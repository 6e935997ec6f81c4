"""NumPy-vectorized CDN association analytics.

The pure-Python functions in :mod:`repro.core.associations` are the
reference implementation; these vectorized kernels are what the
out-of-core triple-store driver (:mod:`repro.store.kernels`) and the
association stream run per shard, merge block or day window.  The test
suite asserts exact agreement with the reference on random inputs.

Input is columnar: three equal-length arrays ``days`` (int), ``v4_keys``
(uint32 /24 network addresses) and ``v6_keys``.  Because NumPy has no
native 128-bit integer, /64 keys are passed as the *upper 64 bits* of
the /64 network address (``int(prefix.network) >> 64``), which is a
bijection for /64s; :func:`columns_from_triples` performs the packing.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.associations import LOW64, BoxStats, Triple


def columns_from_triples(triples: Iterable[Triple]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack (day, v4_key, v6_key) triples into columnar arrays.

    Sequences (lists, tuples) are iterated in place; only true
    generators are materialized — on a multi-million-triple list this
    halves peak memory versus an unconditional copy.  A /64 key with
    any of its low 64 bits set raises ``ValueError``.
    """
    if isinstance(triples, Sequence):
        materialized: Sequence[Triple] = triples
    else:
        materialized = list(triples)
    if not materialized:
        empty64 = np.empty(0, dtype=np.uint64)
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64), empty64
    days = np.fromiter((t[0] for t in materialized), dtype=np.int64, count=len(materialized))
    v4 = np.fromiter((t[1] for t in materialized), dtype=np.uint64, count=len(materialized))
    v6 = np.fromiter(_packed_v6(materialized), dtype=np.uint64, count=len(materialized))
    return days, v4, v6


def _packed_v6(triples: Sequence[Triple]) -> Iterator[int]:
    """Upper 64 bits of each /64 key; a key with host bits set raises.

    Packing drops the low 64 bits, so such a key would silently merge
    with its /64 neighbours and the columnar kernels would drift from
    the pure-Python reference.
    """
    for triple in triples:
        key = triple[2]
        if key & LOW64:
            raise ValueError(f"v6 key {key:#x} is not a /64 network address")
        yield key >> 64


def v6_day_v4_order(days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray) -> np.ndarray:
    """Permutation sorting rows by ``(v6, day, v4)`` — the per-/64 scan order.

    Equals ``np.lexsort((v4_keys, days, v6_keys))`` up to the order of
    identical rows, at a fraction of its cost: one stable sort by /64
    (cheap on the concatenated pre-sorted runs a triple store yields)
    ranks the /64s, and one stable sort of a packed ``rank | day | v4``
    key, already sorted but for /64s spanning runs, finishes the job.
    The key is built in place in one buffer, so peak memory stays near
    three index arrays.  Keys that cannot pack into 64 bits fall back
    to the lexsort.
    """
    by_v6 = np.argsort(v6_keys, kind="stable")
    if len(by_v6) < 2:
        return by_v6
    key = v6_keys[by_v6].astype(np.uint64, copy=False)
    new_v6 = key[1:] != key[:-1]
    day_min = int(days.min())
    day_bits = (int(days.max()) - day_min).bit_length()
    rank_bits = int(np.count_nonzero(new_v6)).bit_length()
    if rank_bits + day_bits + 32 > 64 or int(v4_keys.max()) >> 32:
        return np.lexsort((v4_keys, days, v6_keys))
    key[0] = 0
    np.cumsum(new_v6, dtype=np.uint64, out=key[1:])
    del new_v6
    key <<= np.uint64(day_bits)
    day = days[by_v6].astype(np.int64, copy=False)
    day -= day_min
    key |= day.view(np.uint64)
    del day
    key <<= np.uint64(32)
    key |= v4_keys[by_v6].astype(np.uint64, copy=False)
    order = np.argsort(key, kind="stable")
    del key
    return by_v6[order]


def association_durations_np(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`repro.core.associations.association_durations`.

    Returns the array of run durations (days), in no particular order.
    """
    if not (len(days) == len(v4_keys) == len(v6_keys)):
        raise ValueError("column arrays must have equal length")
    if len(days) == 0:
        return np.empty(0, dtype=np.int64)
    order = v6_day_v4_order(days, v4_keys, v6_keys)
    day_sorted = days[order]
    v4_sorted = v4_keys[order]
    v6_sorted = v6_keys[order]

    # A new run starts where the /64 changes or the /24 changes.
    new_v6 = np.empty(len(days), dtype=bool)
    new_v6[0] = True
    new_v6[1:] = v6_sorted[1:] != v6_sorted[:-1]
    new_run = new_v6.copy()
    new_run[1:] |= v4_sorted[1:] != v4_sorted[:-1]

    run_starts = np.flatnonzero(new_run)
    run_ends = np.empty_like(run_starts)
    run_ends[:-1] = run_starts[1:] - 1
    run_ends[-1] = len(days) - 1
    return day_sorted[run_ends] - day_sorted[run_starts] + 1


def degree_count_arrays(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of the degree kernel: ``(keys, unique, hits)``.

    ``keys`` are the sorted distinct ``primary`` values, ``unique[i]``
    the number of distinct ``secondary`` partners of ``keys[i]`` and
    ``hits[i]`` its total row count.  Safe on empty and single-row
    populations (sparse shards), so out-of-core partials can call it
    per shard without pre-checking; returns empty arrays for empty
    input.
    """
    if len(primary) != len(secondary):
        raise ValueError("column arrays must have equal length")
    if len(primary) == 0:
        empty_keys = np.empty(0, dtype=np.asarray(primary).dtype)
        return empty_keys, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys, unique_counts, hit_counts = _degree_count_arrays_nonempty(primary, secondary)
    return keys, unique_counts, hit_counts


def _degree_count_arrays_nonempty(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct-partner and total-hit counts per ``primary`` key.

    One lexsort plus adjacent-difference passes: a new *pair* starts
    where either column changes in the sorted order, and a new *key
    group* where the primary changes — markedly faster than the former
    ``np.unique(..., axis=0)`` on a stacked 2-column array, which pays
    for a structured-dtype view and a full row-wise sort.
    """
    order = np.lexsort((secondary, primary))
    primary_sorted = primary[order]
    secondary_sorted = secondary[order]

    new_key = np.empty(len(primary_sorted), dtype=bool)
    new_key[0] = True
    np.not_equal(primary_sorted[1:], primary_sorted[:-1], out=new_key[1:])
    key_starts = np.flatnonzero(new_key)
    keys = primary_sorted[key_starts]
    hit_counts = np.diff(np.append(key_starts, len(primary_sorted)))

    new_pair = new_key.copy()
    new_pair[1:] |= secondary_sorted[1:] != secondary_sorted[:-1]
    # Each distinct pair inherits its group from the cumulative key index,
    # so distinct-partner counts are group sizes among the pair starts.
    group_of_pair = np.cumsum(new_key) - 1
    unique_counts = np.bincount(
        group_of_pair[new_pair], minlength=len(keys)
    )
    return keys, unique_counts, hit_counts


def box_stats_np(
    durations: np.ndarray, empty_ok: bool = False
) -> Optional[BoxStats]:
    """Bit-identical :func:`repro.core.associations.box_stats` over an array.

    ``np.quantile`` interpolates as ``a + (b - a) * t``, which can differ
    from the reference's ``a * (1 - w) + b * w`` in the last ulp, so the
    percentiles are evaluated with the reference's exact expression over
    one ``np.sort`` (each percentile is O(1) after the sort).

    Empty input raises like the reference unless ``empty_ok`` — the
    escape hatch sparse out-of-core shards use to report "no box"
    (``None``) instead of blowing up a whole partial.
    """
    ordered = np.sort(np.asarray(durations))
    n = len(ordered)
    if n == 0:
        if empty_ok:
            return None
        raise ValueError("cannot take percentile of empty data")

    def percentile(fraction: float) -> float:
        if n == 1:
            return float(ordered[0])
        position = fraction * (n - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value = float(ordered[low])
        high_value = float(ordered[high])
        if low == high or low_value == high_value:
            return low_value
        weight = position - low
        return low_value * (1 - weight) + high_value * weight

    return BoxStats(
        p5=percentile(0.05),
        q1=percentile(0.25),
        median=percentile(0.50),
        q3=percentile(0.75),
        p95=percentile(0.95),
        count=n,
    )


def box_stats_from_counts(
    values: np.ndarray, counts: np.ndarray, empty_ok: bool = False
) -> Optional[BoxStats]:
    """Exact :func:`box_stats_np` over a value histogram.

    Out-of-core runs never hold every duration at once — they accumulate
    ``counts[i]`` occurrences of ``values[i]`` (days fit in a small
    histogram).  The k-th order statistic of the expanded multiset is
    recovered with a cumulative-sum ``searchsorted``, and each
    percentile then uses the reference's exact
    ``low * (1 - w) + high * w`` expression — bit-identical to sorting
    the expanded array, without materializing it.
    """
    values = np.asarray(values)
    counts = np.asarray(counts, dtype=np.int64)
    if len(values) != len(counts):
        raise ValueError("values and counts must have equal length")
    keep = counts > 0
    values = values[keep]
    counts = counts[keep]
    order = np.argsort(values, kind="stable")
    values = values[order]
    counts = counts[order]
    cumulative = np.cumsum(counts)
    n = int(cumulative[-1]) if len(cumulative) else 0
    if n == 0:
        if empty_ok:
            return None
        raise ValueError("cannot take percentile of empty data")

    def order_stat(index: int) -> float:
        # ordered[index] of the expanded multiset: first bucket whose
        # cumulative count exceeds ``index``.
        return float(values[np.searchsorted(cumulative, index, side="right")])

    def percentile(fraction: float) -> float:
        if n == 1:
            return order_stat(0)
        position = fraction * (n - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value = order_stat(low)
        high_value = order_stat(high)
        if low == high or low_value == high_value:
            return low_value
        weight = position - low
        return low_value * (1 - weight) + high_value * weight

    return BoxStats(
        p5=percentile(0.05),
        q1=percentile(0.25),
        median=percentile(0.50),
        q3=percentile(0.75),
        p95=percentile(0.95),
        count=n,
    )


__all__ = [
    "association_durations_np",
    "box_stats_from_counts",
    "box_stats_np",
    "columns_from_triples",
    "degree_count_arrays",
    "v6_day_v4_order",
]

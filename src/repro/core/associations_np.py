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

The association kernels pack each row into one ``uint64`` code and
sort the codes by value with ``np.sort``; their answers are read from
the bits of the sorted codes, with no permutation gathered.  A key too
wide to share a code (the /64 word, in practice) climbs a ladder:

1. **hashed** — on input made of many runs (a shuffled feed), the key
   is replaced by the top bits of ``key * M`` for a fixed odd ``M``,
   after one ``np.sort`` of the column has shown the hash injective on
   its distinct keys (:func:`_hashed_code`); no argsort of the rows;
2. **ranked** — on few-run input (store shards, merge blocks, stream
   windows), when the keys are too many for the hash's bits to stay
   clear of the birthday bound (:func:`_hash_key_limit`), or when the
   hash collides, the key's dense rank (one argsort, stable on few
   runs, else quicksort);
3. **lexsort** — keys too wide even ranked.

Counting the input's descents (:func:`_sort_kind`) picks the first
rung; no caller picks it.  Every rung gives the same answers; the
``assoc.encode{path}`` counter records the one each call took
(``packed`` when the degree kernel's keys fit side by side as they
are).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.core.associations import LOW64, BoxStats, Triple
from repro.obs import metric_inc


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


#: An input with fewer descents than this (places where a key is
#: smaller than the one before it) takes a stable sort.  Timsort merges
#: ``k`` ascending runs in ``O(n log k)`` and keeps equal keys in input
#: order, so a store shard, merge block or stream window (one run per
#: shard) sorts faster stable than by quicksort, while a shuffled feed
#: sorts about 4x faster by quicksort.
_FEW_RUNS = 64


def _sort_kind(keys: np.ndarray) -> str:
    """``"stable"`` for keys made of few ascending runs, else ``"quicksort"``."""
    descents = int(np.count_nonzero(keys[1:] < keys[:-1]))
    return "stable" if descents < _FEW_RUNS else "quicksort"


def _bit_width(keys: np.ndarray) -> int:
    """Bits that hold every key; 65 (never packable) unless keys are
    non-negative integers."""
    kind = keys.dtype.kind
    if kind != "u" and not (kind == "i" and keys.min() >= 0):
        return 65
    return int(keys.max()).bit_length()


def _dense_rank(
    keys: np.ndarray, kind: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, ranks, new_key)`` from one argsort of ``keys``.

    The argsort is ``kind`` (:func:`_sort_kind` when not given).
    ``order`` sorts the keys, ``ranks[i]`` (``uint64``, a fresh buffer
    callers pack into) is the dense rank of ``keys[order[i]]``, and
    ``new_key[i]`` is true where sorted rows ``i`` and ``i + 1`` differ.
    """
    order = np.argsort(keys, kind=kind or _sort_kind(keys))
    ranks = keys[order].astype(np.uint64, copy=False)
    new_key = ranks[1:] != ranks[:-1]
    ranks[0] = 0
    np.cumsum(new_key, dtype=np.uint64, out=ranks[1:])
    return order, ranks, new_key


#: Odd multiplier of the hashed code: ``2**64`` over the golden ratio
#: (Knuth's multiplicative hashing).  Multiplying by an odd number is a
#: bijection modulo ``2**64``, and its top bits spread /64 words that
#: differ only in low bits.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _hash(keys: np.ndarray, shift: np.uint64) -> np.ndarray:
    """``(keys * M mod 2**64) >> shift`` as a fresh ``uint64`` buffer."""
    code = keys.astype(np.uint64)
    code *= _HASH_MULTIPLIER
    code >>= shift
    return code


def _hashed_code(
    keys: np.ndarray, bits: int, kind: str
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(code, distinct, by_hash)``: a ``bits``-bit code per key, no argsort.

    ``code[i]`` is the top ``bits`` bits of ``keys[i] * M`` (a fresh
    ``uint64`` buffer callers pack into), proven injective on the keys:
    one ``np.sort`` of the column gives its ``distinct`` keys, and no
    two of their codes are equal.  ``distinct[by_hash]`` lists them in
    code order, so the ``g``-th smallest code is ``distinct[by_hash[g]]``'s.
    ``None`` (rank the keys instead) on input of few sorted runs (a
    ``"stable"`` :func:`_sort_kind`), where one stable argsort is
    cheaper, on non-integer keys, when two codes collide
    (``assoc.encode.collisions`` counts those), and when the keys are
    too many for the birthday bound: ``k`` keys hashed to ``bits`` bits
    collide in ``k**2 / 2**(bits + 1)`` pairs on average, so more than
    :func:`_hash_key_limit` keys go to the rank without hashing.
    """
    if kind == "stable" or bits < 1 or keys.dtype.kind not in "ui":
        return None
    limit = _hash_key_limit(bits)
    if len(keys) > 16 * limit:
        # Rule out a keyspace past the limit from a strided sample (a
        # lower bound on its distinct keys) before sorting every row.
        sample = np.sort(keys[:: len(keys) // (2 * limit)])
        if np.count_nonzero(sample[1:] != sample[:-1]) >= limit:
            return None
    ordered = np.sort(keys)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    del ordered
    if len(distinct) > limit:
        return None
    shift = np.uint64(64 - bits)
    hashed = _hash(distinct, shift)
    by_hash = np.argsort(hashed)
    hashed = hashed[by_hash]
    if np.any(hashed[1:] == hashed[:-1]):
        metric_inc("assoc.encode.collisions")
        return None
    return _hash(keys, shift), distinct, by_hash


def _hash_key_limit(bits: int) -> int:
    """Most distinct keys :func:`_hashed_code` hashes to ``bits`` bits:
    ``2**((bits - 3) // 2)``, which keeps the expected number of
    colliding pairs at or below 1/16."""
    return 1 << (max(bits - 3, 0) // 2)


def _v6_day_v4_code(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray, kind: Optional[str] = None
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """``(by_v6, code, day_bits)``: rows in /64 order and their packed keys.

    ``code[i]`` is ``rank6 << (day_bits + 32) | (day - day_min) << 32 |
    v4`` for row ``by_v6[i]``, where ``rank6`` is the /64's dense rank;
    it is built in place in the rank buffer.  Sorting ``code`` sorts the
    rows by ``(v6, day, v4)``; ``kind`` is the /64 argsort's
    (:func:`_dense_rank`).  ``None`` when the code needs more than 64
    bits.
    """
    by_v6, code, _new_v6 = _dense_rank(v6_keys, kind)
    del _new_v6
    day_min = int(days.min())
    day_bits = (int(days.max()) - day_min).bit_length()
    if int(code[-1]).bit_length() + day_bits + 32 > 64 or _bit_width(v4_keys) > 32:
        return None
    code <<= np.uint64(day_bits)
    day = days[by_v6].astype(np.int64, copy=False)
    day -= day_min
    code |= day.view(np.uint64)
    del day
    code <<= np.uint64(32)
    code |= v4_keys[by_v6].astype(np.uint64, copy=False)
    return by_v6, code, day_bits


def v6_day_v4_order(days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray) -> np.ndarray:
    """Permutation sorting rows by ``(v6, day, v4)`` — the per-/64 scan order.

    Equals ``np.lexsort((v4_keys, days, v6_keys))`` up to the order of
    identical rows, at a fraction of its cost: one argsort by /64 ranks
    the /64s (stable on input made of few sorted runs, a quicksort
    otherwise), and one stable argsort of the packed ``rank | day | v4``
    code (:func:`_v6_day_v4_code`), already sorted by rank, finishes the
    job.  Keys that cannot pack into 64 bits fall back to the lexsort.
    """
    if len(v6_keys) < 2:
        return np.arange(len(v6_keys))
    packed = _v6_day_v4_code(days, v4_keys, v6_keys)
    if packed is None:
        return np.lexsort((v4_keys, days, v6_keys))
    by_v6, code, _day_bits = packed
    return by_v6[np.argsort(code, kind="stable")]


def association_durations_np(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`repro.core.associations.association_durations`.

    Returns the ``int64`` array of run durations (days), in no
    particular order.  The rows' packed ``v6 | day | v4`` codes, the
    /64 hashed or ranked (:func:`_duration_code`), are sorted by value,
    with no permutation: rows of one /64 share its code bits and sort
    by ``(day, v4)`` among themselves, and rows of one run share every
    bit of their code but the day field, so runs start where a bit
    outside it changes, and a run lasts its last code minus its first,
    shifted down to the day field, plus one.
    """
    if not (len(days) == len(v4_keys) == len(v6_keys)):
        raise ValueError("column arrays must have equal length")
    if len(days) == 0:
        return np.empty(0, dtype=np.int64)
    packed = _duration_code(days, v4_keys, v6_keys)
    if packed is None:
        metric_inc("assoc.encode", path="lexsort")
        return _lexsorted_durations(days, v4_keys, v6_keys)
    path, code, day_bits, v4_bits = packed
    metric_inc("assoc.encode", path=path)
    code.sort()
    change = code[1:] ^ code[:-1]
    change &= ~np.uint64(((1 << day_bits) - 1) << v4_bits)
    new_run = np.empty(len(code), dtype=bool)
    new_run[0] = True
    np.not_equal(change, 0, out=new_run[1:])
    del change
    run_starts = np.flatnonzero(new_run)
    del new_run
    spans = code[np.append(run_starts[1:], len(code)) - 1]
    spans -= code[run_starts]
    spans >>= np.uint64(v4_bits)
    return spans.astype(np.int64) + 1


def _duration_code(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> Optional[Tuple[str, np.ndarray, int, int]]:
    """``(path, code, day_bits, v4_bits)`` for :func:`association_durations_np`.

    ``code`` holds one ``uint64`` per row, ``v6 << (day_bits + v4_bits)
    | (day - day_min) << v4_bits | v4``, where ``v6`` is the /64's
    hashed code (``path`` ``"hashed"``, rows in input order, the v4
    field ``_bit_width`` wide) or its dense rank (``"ranked"``, rows in
    /64 order, :func:`_v6_day_v4_code`'s 32-bit v4 field).  ``None``
    when neither fits in 64 bits.
    """
    kind = _sort_kind(v6_keys)
    if kind == "quicksort":
        day_min = int(days.min())
        day_bits = (int(days.max()) - day_min).bit_length()
        v4_bits = _bit_width(v4_keys)
        hashed = _hashed_code(v6_keys, 64 - day_bits - v4_bits, kind)
        if hashed is not None:
            code = hashed[0]
            code <<= np.uint64(day_bits)
            day = days.astype(np.int64)
            day -= day_min
            code |= day.view(np.uint64)
            del day
            code <<= np.uint64(v4_bits)
            code |= v4_keys.astype(np.uint64, copy=False)
            return "hashed", code, day_bits, v4_bits
    packed = _v6_day_v4_code(days, v4_keys, v6_keys, kind)
    if packed is None:
        return None
    return "ranked", packed[1], packed[2], 32


def _lexsorted_durations(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> np.ndarray:
    """:func:`association_durations_np` for keys too wide to pack."""
    order = np.lexsort((v4_keys, days, v6_keys))
    day_sorted = days[order].astype(np.int64)
    v4_sorted = v4_keys[order]
    v6_sorted = v6_keys[order]
    new_run = np.empty(len(order), dtype=bool)
    new_run[0] = True
    new_run[1:] = (v6_sorted[1:] != v6_sorted[:-1]) | (v4_sorted[1:] != v4_sorted[:-1])
    run_starts = np.flatnonzero(new_run)
    run_ends = np.append(run_starts[1:], len(order)) - 1
    return day_sorted[run_ends] - day_sorted[run_starts] + 1


def degree_count_arrays(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of the degree kernel: ``(keys, unique, hits)``.

    ``keys`` are the sorted distinct ``primary`` values (in
    ``primary``'s dtype), ``unique[i]`` the number of distinct
    ``secondary`` partners of ``keys[i]`` and ``hits[i]`` its total row
    count (both ``int64``).  Safe on empty and single-row populations
    (sparse shards), so out-of-core partials can call it per shard
    without pre-checking; returns empty arrays for empty input.

    Each row packs into one ``uint64`` code ``primary << bits |
    secondary``; when the two keys do not fit side by side, the wider
    one is replaced by its hashed code or dense rank (the module
    docstring's ladder).  One ``np.sort`` of the codes then groups the
    rows: distinct codes are the distinct pairs, and their high bits
    the keys.  A hashed primary groups in hash order, which is undone
    on the ~k groups, not the rows.  Keys too wide to pack even ranked
    fall back to a ``lexsort``.
    """
    if len(primary) != len(secondary):
        raise ValueError("column arrays must have equal length")
    if len(primary) == 0:
        empty_keys = np.empty(0, dtype=np.asarray(primary).dtype)
        return empty_keys, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    packed = _degree_code(primary, secondary)
    if packed is None:
        metric_inc("assoc.encode", path="lexsort")
        return _lexsorted_degree_counts(primary, secondary)
    path, code, shift, keys, by_hash = packed
    metric_inc("assoc.encode", path=path)
    code.sort()
    new_pair = np.empty(len(code), dtype=bool)
    new_pair[0] = True
    np.not_equal(code[1:], code[:-1], out=new_pair[1:])
    pair_starts = np.flatnonzero(new_pair)
    del new_pair
    pair_hits = np.diff(pair_starts, append=len(code))
    pair_keys = code[pair_starts] >> np.uint64(shift)
    del code
    new_key = np.empty(len(pair_keys), dtype=bool)
    new_key[0] = True
    np.not_equal(pair_keys[1:], pair_keys[:-1], out=new_key[1:])
    key_starts = np.flatnonzero(new_key)
    if keys is None:
        keys = pair_keys[key_starts].astype(primary.dtype)
    unique_counts = np.diff(key_starts, append=len(pair_keys))
    hit_counts = np.add.reduceat(pair_hits, key_starts)
    if by_hash is not None:
        # Group g is keys[by_hash[g]]'s: put the groups in key order.
        in_key_order = np.argsort(by_hash)
        unique_counts, hit_counts = unique_counts[in_key_order], hit_counts[in_key_order]
    return keys, unique_counts, hit_counts


def _degree_code(
    primary: np.ndarray, secondary: np.ndarray
) -> Optional[Tuple[str, np.ndarray, int, Optional[np.ndarray], Optional[np.ndarray]]]:
    """``(path, code, shift, keys, by_hash)`` for :func:`degree_count_arrays`.

    ``code`` holds one ``uint64`` per row, with the primary key, its
    hashed code or its rank above bit ``shift``; ``path`` names the
    rung (``"packed"`` when both keys fit as they are).  ``keys`` are
    the sorted distinct primaries when the primary was hashed or
    ranked, else ``None`` (they are the codes' high bits).  ``by_hash``
    is :func:`_hashed_code`'s for a hashed primary, else ``None``.
    ``None`` when the keys cannot pack.
    """
    primary_bits, secondary_bits = _bit_width(primary), _bit_width(secondary)
    if primary_bits + secondary_bits <= 64:
        code = primary.astype(np.uint64)
        code <<= np.uint64(secondary_bits)
        code |= secondary.astype(np.uint64, copy=False)
        return "packed", code, secondary_bits, None, None
    if secondary_bits >= primary_bits:
        kind = _sort_kind(secondary)
        shift = 64 - primary_bits
        hashed = _hashed_code(secondary, shift, kind)
        if hashed is not None:
            code = hashed[0]
            code |= primary.astype(np.uint64) << np.uint64(shift)
            return "hashed", code, shift, None, None
        order, code, _new = _dense_rank(secondary, kind)
        del _new
        shift = int(code[-1]).bit_length()
        if primary_bits + shift > 64:
            return None
        high = primary[order].astype(np.uint64, copy=False)
        high <<= np.uint64(shift)
        code |= high
        return "ranked", code, shift, None, None
    kind = _sort_kind(primary)
    hashed = _hashed_code(primary, 64 - secondary_bits, kind)
    if hashed is not None:
        code, keys, by_hash = hashed
        code <<= np.uint64(secondary_bits)
        code |= secondary.astype(np.uint64, copy=False)
        return "hashed", code, secondary_bits, keys, by_hash
    order, code, new_key = _dense_rank(primary, kind)
    if int(code[-1]).bit_length() + secondary_bits > 64:
        return None
    keys = primary[order[np.append(0, np.flatnonzero(new_key) + 1)]]
    del new_key
    code <<= np.uint64(secondary_bits)
    code |= secondary[order].astype(np.uint64, copy=False)
    return "ranked", code, secondary_bits, keys, None


def _lexsorted_degree_counts(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`degree_count_arrays` for keys too wide to pack.

    One lexsort plus adjacent-difference passes: a new *pair* starts
    where either column changes in the sorted order, and a new *key
    group* where the primary changes.
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

"""NumPy-vectorized Section 3/5 analysis kernels (the columnar layer).

The pure-Python modules :mod:`repro.core.changes`,
:mod:`repro.core.timefraction`, :mod:`repro.core.periodicity`,
:mod:`repro.core.dualstack` and :mod:`repro.core.spatial` are the
reference implementations; the kernels here compute the same artifacts
over a *columnar* representation of per-probe echo runs and are
**bit-identical** to the references on the pipeline's data (hourly,
integer-valued durations — see the note below).  The test suite and the
``repro.perf.verify`` parity harness assert exact agreement on random
inputs.  They are the building blocks of the fused engine
(:mod:`repro.core.fused`, ``engine="fused"``), the streaming engine,
collection and delegation inference.

Representation
--------------

:func:`columns_from_runs` packs the run series of *many* probes into a
single :class:`RunColumns`: CSR-style ``offsets`` (one slice per probe)
over flat ``first``/``last``/``observed``/``max_gap`` arrays, with run
values stored as ``(value_hi, value_lo)`` uint64 pairs so 128-bit IPv6
addresses fit without arbitrary-precision integers.  All kernels then
operate on whole probe populations at once: probe boundaries are masks
derived from ``offsets``, never Python loops.

Exactness note
--------------

The reference implementations accumulate floats sequentially
(``sum(...)``) while NumPy uses pairwise summation.  Both are exact —
hence bit-identical — as long as the summed values are integral-valued
floats below 2**53, which hour-granularity durations always are.  The
parity tests pin this contract down.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.atlas.echo import EchoRun
from repro.core.periodicity import CANONICAL_PERIODS, PeriodicMode
from repro.core.timefraction import CANONICAL_GRID, YEAR
from repro.ip.addr import IPAddress, IPv4Address, IPv6Address
from repro.ip.prefix import IPPrefix

_M64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Columnar run representation
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RunColumns:
    """CSR-packed run series of a probe population (one slice per probe).

    ``offsets`` has ``n_probes + 1`` entries; probe ``p``'s runs live at
    flat indices ``offsets[p]:offsets[p + 1]``, in time order.  Values
    are 128-bit integers split into ``(value_hi, value_lo)`` uint64
    pairs (IPv4 addresses occupy the low 32 bits of ``value_lo``).
    Packs compare equal when every column holds the same values.
    """

    offsets: np.ndarray  # int64, (n_probes + 1,)
    value_hi: np.ndarray  # uint64, (n_runs,)
    value_lo: np.ndarray  # uint64, (n_runs,)
    first: np.ndarray  # int64, (n_runs,)
    last: np.ndarray  # int64, (n_runs,)
    observed: np.ndarray  # int64, (n_runs,)
    max_gap: np.ndarray  # int64, (n_runs,)

    @property
    def n_probes(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_runs(self) -> int:
        return len(self.first)

    def run_counts(self) -> np.ndarray:
        """Runs per probe (int64, one entry per probe)."""
        return np.diff(self.offsets)

    def probe_of_run(self) -> np.ndarray:
        """Probe index of every flat run (int64, one entry per run)."""
        return np.repeat(np.arange(self.n_probes, dtype=np.int64), self.run_counts())

    def rows(self) -> Tuple[np.ndarray, ...]:
        """``(probe, value_hi, value_lo, first, last)`` of every flat run:
        the probe-sorted rows :func:`changes_and_durations` reads."""
        return self.probe_of_run(), self.value_hi, self.value_lo, self.first, self.last

    def run_slice(self, start: int, stop: int) -> "RunColumns":
        """One-probe pack of the flat runs ``start:stop`` (views, no copy)."""
        return RunColumns(
            np.array([0, stop - start], dtype=np.int64),
            self.value_hi[start:stop],
            self.value_lo[start:stop],
            self.first[start:stop],
            self.last[start:stop],
            self.observed[start:stop],
            self.max_gap[start:stop],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunColumns):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _RUN_FIELDS
        )

    __hash__ = None  # type: ignore[assignment]


#: :class:`RunColumns` column names, in declaration order.
_RUN_FIELDS = tuple(column.name for column in fields(RunColumns))


@dataclass
class ChangeColumns:
    """Columnar :class:`~repro.core.changes.ChangeEvent` table."""

    probe_index: np.ndarray  # int64: index into the probe population
    hour: np.ndarray  # int64: first hour of the new value
    old_hi: np.ndarray  # uint64
    old_lo: np.ndarray  # uint64
    new_hi: np.ndarray  # uint64
    new_lo: np.ndarray  # uint64
    boundary_gap: np.ndarray  # int64

    @property
    def n_changes(self) -> int:
        return len(self.hour)


@dataclass
class DurationColumns:
    """Columnar :class:`~repro.core.changes.Duration` table (exact spans)."""

    probe_index: np.ndarray  # int64
    start: np.ndarray  # int64
    end: np.ndarray  # int64 (inclusive)

    @property
    def n_durations(self) -> int:
        return len(self.start)

    def hours(self) -> np.ndarray:
        """Span of each duration in hours (int64)."""
        return self.end - self.start + 1


def columns_from_runs(
    runs_by_probe: Iterable[Sequence[EchoRun]],
    value_type: Optional[Type[IPAddress]] = None,
) -> RunColumns:
    """Pack per-probe run series into a :class:`RunColumns`.

    ``value_type`` optionally enforces the run value class (mirroring
    :func:`repro.core.changes.v6_runs_to_prefix_runs`'s type check);
    prefix-valued runs are packed by their network address.
    """
    probes: List[Sequence[EchoRun]] = [
        runs if isinstance(runs, Sequence) else list(runs) for runs in runs_by_probe
    ]
    counts = np.fromiter((len(runs) for runs in probes), dtype=np.int64, count=len(probes))
    offsets = np.zeros(len(probes) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])

    values: List[int] = []
    for runs in probes:
        for run in runs:
            value = run.value
            if value_type is not None and not isinstance(value, value_type):
                raise TypeError(
                    f"expected {value_type.__name__} runs, got {type(value).__name__}"
                )
            values.append(int(value.network) if isinstance(value, IPPrefix) else int(value))

    flat = (run for runs in probes for run in runs)
    first = np.empty(total, dtype=np.int64)
    last = np.empty(total, dtype=np.int64)
    observed = np.empty(total, dtype=np.int64)
    max_gap = np.empty(total, dtype=np.int64)
    for index, run in enumerate(flat):
        first[index] = run.first
        last[index] = run.last
        observed[index] = run.observed
        max_gap[index] = run.max_gap

    value_hi = np.fromiter((v >> 64 for v in values), dtype=np.uint64, count=total)
    value_lo = np.fromiter((v & _M64 for v in values), dtype=np.uint64, count=total)
    return RunColumns(
        offsets=offsets,
        value_hi=value_hi,
        value_lo=value_lo,
        first=first,
        last=last,
        observed=observed,
        max_gap=max_gap,
    )


def concat_run_columns(parts: Sequence[RunColumns]) -> RunColumns:
    """Stack packs probe-major into one pack (offsets re-based).

    Packing a population from its probes' own one-probe packs
    (:attr:`repro.atlas.sanitize.SanitizedProbe.v4` and friends) is a
    handful of concatenations instead of a walk over run objects.
    """
    counts = [part.run_counts() for part in parts]
    offsets = np.zeros(1 + sum(len(c) for c in counts), dtype=np.int64)
    if counts:
        np.cumsum(np.concatenate(counts), out=offsets[1:])

    def cat(name: str, dtype) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=dtype)
        columns = [getattr(part, name) for part in parts]
        return np.concatenate(columns).astype(dtype, copy=False)

    return RunColumns(
        offsets=offsets,
        value_hi=cat("value_hi", np.uint64),
        value_lo=cat("value_lo", np.uint64),
        first=cat("first", np.int64),
        last=cat("last", np.int64),
        observed=cat("observed", np.int64),
        max_gap=cat("max_gap", np.int64),
    )


def runs_from_columns(cols: RunColumns, probe_id: int, family: int) -> List[EchoRun]:
    """The flat runs of ``cols`` as :class:`EchoRun` objects.

    The inverse of :func:`columns_from_runs` for one probe's pack:
    ``family`` picks the value class (IPv4 from ``value_lo``, IPv6 from
    both words) and every run carries ``probe_id``.
    """
    if family == 4:
        values: List[IPAddress] = [IPv4Address(lo) for lo in cols.value_lo.tolist()]
    else:
        values = [
            IPv6Address((hi << 64) | lo)
            for hi, lo in zip(cols.value_hi.tolist(), cols.value_lo.tolist())
        ]
    return [
        EchoRun(probe_id, family, value, first, last, observed, max_gap)
        for value, first, last, observed, max_gap in zip(
            values,
            cols.first.tolist(),
            cols.last.tolist(),
            cols.observed.tolist(),
            cols.max_gap.tolist(),
        )
    ]


def group_heads(*keys: np.ndarray) -> np.ndarray:
    """True at each row whose key columns differ from the previous row's,
    and at row 0: the starts of groups of equal adjacent keys."""
    heads = np.ones(len(keys[0]), dtype=bool)
    np.not_equal(keys[0][1:], keys[0][:-1], out=heads[1:])
    for key in keys[1:]:
        heads[1:] |= key[1:] != key[:-1]
    return heads


# ---------------------------------------------------------------------------
# IPv6 prefix rekeying and adjacent-equal merging
# ---------------------------------------------------------------------------


def _prefix_masks(plen: int, bits: int = 128) -> Tuple[np.uint64, np.uint64]:
    """(hi, lo) uint64 masks keeping the top ``plen`` of ``bits`` bits."""
    if not 0 <= plen <= bits:
        raise ValueError(f"prefix length {plen} out of range for /{bits} family")
    full = (((1 << plen) - 1) << (bits - plen)) if plen else 0
    return np.uint64(full >> 64), np.uint64(full & _M64)


def rekey_v6_runs(cols: RunColumns, plen: int = 64) -> RunColumns:
    """Columnar :func:`repro.core.changes.v6_runs_to_prefix_runs`.

    Masks every value to its /``plen`` network and merges adjacent
    equal-valued runs per probe, with
    :func:`repro.atlas.echo.merge_adjacent_equal`'s exact bookkeeping
    (summed ``observed``, ``max_gap`` absorbing the joining gaps).
    """
    mask_hi, mask_lo = _prefix_masks(plen)
    hi = cols.value_hi & mask_hi
    lo = cols.value_lo & mask_lo
    n = cols.n_runs
    if n == 0:
        return RunColumns(
            offsets=cols.offsets.copy(),
            value_hi=hi,
            value_lo=lo,
            first=cols.first.copy(),
            last=cols.last.copy(),
            observed=cols.observed.copy(),
            max_gap=cols.max_gap.copy(),
        )

    heads = group_heads(cols.probe_of_run(), hi, lo)
    group_starts = np.flatnonzero(heads)
    group_ends = np.append(group_starts[1:], n) - 1

    # Per-run max-gap candidate: the run's own internal gap, plus — when
    # the run merges into the previous one — the unobserved gap between
    # them (merge_adjacent_equal's max(pending.max_gap, run.max_gap, gap)).
    join_gap = np.zeros(n, dtype=np.int64)
    join_gap[1:] = cols.first[1:] - cols.last[:-1] - 1
    candidate = np.where(heads, cols.max_gap, np.maximum(cols.max_gap, join_gap))

    merged = RunColumns(
        offsets=np.searchsorted(group_starts, cols.offsets, side="left").astype(np.int64),
        value_hi=hi[group_starts],
        value_lo=lo[group_starts],
        first=cols.first[group_starts],
        last=cols.last[group_ends],
        observed=np.add.reduceat(cols.observed, group_starts),
        max_gap=np.maximum.reduceat(candidate, group_starts),
    )
    return merged


# ---------------------------------------------------------------------------
# Sandwiched exact durations (changes.py semantics)
# ---------------------------------------------------------------------------


def changes_and_durations(
    probe: np.ndarray,
    value_hi: np.ndarray,
    value_lo: np.ndarray,
    first: np.ndarray,
    last: np.ndarray,
    carry: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[ChangeColumns, DurationColumns, Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Columnar :func:`repro.core.changes.changes_from_runs` and
    :func:`~repro.core.changes.sandwiched_durations` over probe-sorted rows.

    Rows are runs grouped by ``probe``, in time order within a group.
    Every row after its group's head is a change from the row before it.
    A row is "gap-ok" when a run of its track precedes it with a zero
    boundary gap, so a track's first run never is; a row is an exact
    duration when it is gap-ok and a gap-ok change follows it.

    ``carry`` continues tracks folded earlier: per row, the runs its
    track had seen up to and including it, and its gap-ok flag.  Only
    head rows are read; a fresh first run has count 0 and flag False.
    Without ``carry`` every head is its track's first run.

    Returns the changes and durations in row order, and each group's
    last row as ``(row, runs so far, gap-ok flag)``: what a later fold
    carries.
    """
    heads = group_heads(probe)
    gap = np.zeros(len(probe), dtype=np.int64)
    gap[1:] = first[1:] - last[:-1] - 1
    gap_ok = np.where(heads, False if carry is None else carry[1], gap <= 0)
    change = np.flatnonzero(~heads)
    prev = change - 1
    changes = ChangeColumns(
        probe_index=probe[change],
        hour=first[change],
        old_hi=value_hi[prev],
        old_lo=value_lo[prev],
        new_hi=value_hi[change],
        new_lo=value_lo[change],
        boundary_gap=gap[change],
    )
    exact = prev[gap_ok[prev] & gap_ok[change]]
    durations = DurationColumns(probe_index=probe[exact], start=first[exact], end=last[exact])
    starts = np.flatnonzero(heads)
    # Row 0 is always a head, so the rolled mask marks each group's last row.
    ends = np.flatnonzero(np.roll(heads, -1))
    runs = ends - starts + (1 if carry is None else np.maximum(carry[0][starts], 1))
    return changes, durations, (ends, runs, gap_ok[ends])


# ---------------------------------------------------------------------------
# Dual-stack coverage (dualstack.py semantics)
# ---------------------------------------------------------------------------

#: Share of an IPv4 duration's span that IPv6 must cover for the duration
#: to be dual-stack (:func:`repro.core.dualstack.split_durations_by_stack`).
MIN_V6_COVERAGE = 0.9


def dual_stack_mask(
    probe: np.ndarray, first: np.ndarray, last: np.ndarray, durations: DurationColumns
) -> np.ndarray:
    """Which durations are dual-stack — columnar
    :func:`repro.core.dualstack.split_durations_by_stack`.

    ``(probe, first, last)`` are IPv6 intervals sorted by probe and
    time, disjoint within a probe: a population's IPv6 runs, or their
    merged union.  A duration is dual-stack when its probe's intervals
    cover at least :data:`MIN_V6_COVERAGE` of its span; a probe without
    IPv6 covers nothing.
    """
    n = len(first)
    if not n or not durations.n_durations:
        return np.zeros(durations.n_durations, dtype=bool)

    # Per-probe interval coverage via one global prefix-sum: encode
    # (probe, hour) pairs as strictly increasing integer keys so a
    # single searchsorted answers "covered hours up to x" for every
    # duration endpoint at once.  Earlier probes' intervals land fully
    # in both endpoint queries of a later probe and cancel in the
    # difference.
    big = int(max(last.max(), durations.end.max())) + 3
    last_keys = probe * big + (last + 1)
    first_keys = probe * big + (first + 1)
    cumulative = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(last - first + 1, out=cumulative[1:])

    def covered_up_to(x: np.ndarray) -> np.ndarray:
        query = durations.probe_index * big + (x + 1)
        position = np.searchsorted(last_keys, query, side="right")
        clipped = np.minimum(position, n - 1)
        partial = (position < n) & (first_keys[clipped] <= query)
        return cumulative[position] + np.where(partial, x - first[clipped] + 1, 0)

    covered = covered_up_to(durations.end) - covered_up_to(durations.start - 1)
    return np.minimum(1.0, covered / durations.hours()) >= MIN_V6_COVERAGE


# ---------------------------------------------------------------------------
# Total time fraction (timefraction.py semantics, Eq. 1)
# ---------------------------------------------------------------------------


def total_time_fraction_columns(
    durations: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar :func:`repro.core.timefraction.total_time_fraction`.

    Returns ``(values, fractions)`` sorted by duration — the reference's
    dict items in iteration order.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) == 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    if np.any(durations <= 0):
        raise ValueError("durations must be positive")
    values, counts = np.unique(durations, return_counts=True)
    total = durations.sum()
    return values, counts * values / total


def cumulative_ttf_columns(durations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Columnar :func:`repro.core.timefraction.cumulative_total_time_fraction`."""
    values, fractions = total_time_fraction_columns(durations)
    cumulative = np.cumsum(fractions)
    if len(cumulative):
        cumulative[-1] = 1.0
    return values, cumulative


def evaluate_cdf_columns(
    xs: np.ndarray, ys: np.ndarray, grid: Sequence[float] = CANONICAL_GRID
) -> np.ndarray:
    """Columnar :func:`repro.core.timefraction.evaluate_cdf`."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    positions = np.searchsorted(xs, np.asarray(grid, dtype=np.float64), side="right")
    padded = np.concatenate((np.zeros(1), ys))
    return padded[positions]


def total_duration_years_np(durations: np.ndarray) -> float:
    """Columnar :func:`repro.core.timefraction.total_duration_years`."""
    return float(np.asarray(durations, dtype=np.float64).sum() / YEAR)


# ---------------------------------------------------------------------------
# Periodic-mode detection (periodicity.py semantics)
# ---------------------------------------------------------------------------


def detect_periods_np(
    durations: np.ndarray,
    candidate_periods: Sequence[float] = CANONICAL_PERIODS,
    tolerance: float = 1.0,
    min_mass: float = 0.15,
) -> List[PeriodicMode]:
    """Columnar :func:`repro.core.periodicity.detect_periods`."""
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    durations = np.asarray(durations, dtype=np.float64)
    if len(durations) == 0:
        return []
    total = durations.sum()
    modes = []
    for period in candidate_periods:
        in_mode = np.abs(durations - period) <= tolerance
        count = int(np.count_nonzero(in_mode))
        if not count:
            continue
        mass = float(durations[in_mode].sum() / total)
        if mass >= min_mass:
            modes.append(PeriodicMode(period_hours=period, mass=mass, count=count))
    modes.sort(key=lambda mode: -mode.mass)
    return modes


#: :data:`~repro.core.periodicity.CANONICAL_PERIODS` as a float column.
_PERIODS = np.array(CANONICAL_PERIODS, dtype=np.float64)
#: Probe-exhibits-period thresholds
#: (:func:`repro.core.periodicity.probe_exhibits_period`).
_MIN_PERIOD_COUNT = 3
_MIN_PERIOD_MASS = 0.5


def period_tallies(
    durations: np.ndarray,
    probe_index: np.ndarray,
    n_probes: int,
    tolerance: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-probe periodicity tallies ``(total, count, mass)`` over the
    canonical periods.

    ``durations[k]`` belongs to probe ``probe_index[k]``.  ``total[p]``
    sums probe ``p``'s duration hours; ``count[p, j]`` and ``mass[p, j]``
    count and sum those within ``tolerance`` of period ``j``.  Tallies of
    disjoint duration sets add up, so a stream can accumulate them fold
    by fold.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    durations = np.asarray(durations, dtype=np.float64)
    probe_index = np.asarray(probe_index, dtype=np.int64)
    count = np.empty((n_probes, len(_PERIODS)), dtype=np.int64)
    mass = np.empty((n_probes, len(_PERIODS)), dtype=np.float64)
    for j, period in enumerate(_PERIODS):
        near = np.abs(durations - period) <= tolerance
        count[:, j] = np.bincount(probe_index[near], minlength=n_probes)
        mass[:, j] = np.bincount(probe_index[near], weights=durations[near], minlength=n_probes)
    return np.bincount(probe_index, weights=durations, minlength=n_probes), count, mass


def probe_period_flags(total: np.ndarray, count: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Per-probe :func:`repro.core.periodicity.probe_exhibits_period`
    from :func:`period_tallies`.

    ``[p, j]`` says probe ``p`` exhibits canonical period ``j``.  The
    mass ratio is the reference's exact float expression (integral-valued
    duration sums are exact under any summation order).
    """
    total = np.asarray(total, dtype=np.float64)[:, None]
    ratio = np.divide(mass, total, out=np.zeros(np.shape(mass)), where=total > 0)
    return (count >= _MIN_PERIOD_COUNT) & (ratio >= _MIN_PERIOD_MASS)


def consistent_period(flags: np.ndarray, min_probes: int) -> Optional[float]:
    """The first canonical period at least ``min_probes`` rows of a
    :func:`probe_period_flags` matrix exhibit (``None`` if there is none):
    :func:`repro.core.periodicity.consistent_periodic_networks` for one
    network."""
    found = np.flatnonzero(np.count_nonzero(flags, axis=0) >= min_probes)
    return float(_PERIODS[found[0]]) if len(found) else None


# ---------------------------------------------------------------------------
# Subscriber-delegation inference (delegation.py semantics)
# ---------------------------------------------------------------------------


def _trailing_zeros_u64(x: np.ndarray) -> np.ndarray:
    """Per-element trailing-zero count for uint64 arrays (64 where 0)."""
    lowest_bit = x & (~x + np.uint64(1))
    zeros = _bit_length_u64(lowest_bit) - 1
    zeros[x == 0] = 64
    return zeros


def inferred_plen_counts_np(
    prefix_cols: RunColumns, plen: int = 64, min_distinct: int = 2
) -> Tuple[int, Dict[int, int]]:
    """Columnar core of :func:`repro.core.delegation.inferred_plen_distribution`.

    ``prefix_cols`` holds /``plen`` prefix runs (see
    :func:`rekey_v6_runs`); probes with at least ``min_distinct``
    distinct prefixes are eligible, and each contributes the inferred
    delegation length ``plen - min(trailing zero bits)`` over its
    prefixes.  Returns ``(eligible_probes, {inferred_plen: probes})``.
    """
    if not 0 < plen <= 64:
        raise ValueError(f"prefix length {plen} not supported by the columnar kernel")
    if prefix_cols.n_runs == 0:
        return 0, {}
    probe_of = prefix_cols.probe_of_run()
    counts = prefix_cols.run_counts()
    nonempty = np.flatnonzero(counts > 0)

    # trailing_zero_bits of a /plen prefix: zeros of the top plen bits,
    # capped at plen for the all-zero network (IPPrefix's semantics).
    shifted = prefix_cols.value_hi >> np.uint64(64 - plen)
    zero_bits = np.minimum(_trailing_zeros_u64(shifted), plen)
    min_zero_bits = np.minimum.reduceat(
        zero_bits, prefix_cols.offsets[:-1][nonempty].astype(np.intp)
    )

    order = np.lexsort((prefix_cols.value_lo, prefix_cols.value_hi, probe_of))
    probe = probe_of[order]
    new_value = group_heads(probe, prefix_cols.value_hi[order], prefix_cols.value_lo[order])
    distinct = np.bincount(probe[new_value], minlength=prefix_cols.n_probes)[nonempty]

    eligible = distinct >= min_distinct
    inferred = plen - min_zero_bits[eligible]
    values, value_counts = np.unique(inferred, return_counts=True)
    return int(np.count_nonzero(eligible)), {
        int(v): int(c) for v, c in zip(values, value_counts)
    }


# ---------------------------------------------------------------------------
# Change CPLs (spatial.py semantics)
# ---------------------------------------------------------------------------


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact per-element ``int.bit_length`` for uint64 arrays."""
    x = x.copy()
    length = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x >= np.uint64(1 << shift)
        length[mask] += shift
        x[mask] >>= np.uint64(shift)
    length[x > 0] += 1
    return length


def cpl_of_changes(changes: ChangeColumns, plen: int = 64) -> np.ndarray:
    """CPL of each change between /``plen`` prefixes — vectorized
    :func:`repro.core.spatial.cpl_of_change`."""
    xor_hi = changes.old_hi ^ changes.new_hi
    xor_lo = changes.old_lo ^ changes.new_lo
    cpl128 = np.where(
        xor_hi != 0, 64 - _bit_length_u64(xor_hi), 128 - _bit_length_u64(xor_lo)
    )
    return np.minimum(cpl128, plen)


def crossing_flags(
    v4_changes: ChangeColumns, v6_changes: ChangeColumns, table, plen: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table 2 flags of every change: ``(v4 /24, v4 BGP, v6 BGP)`` —
    vectorized :func:`repro.core.spatial.crossing_rates`.

    An IPv4 change crosses its /24 when the addresses differ above the
    low 8 bits.  A change crosses BGP unless old and new value sit under
    the same route of ``table`` (a :class:`~repro.bgp.table.RoutingTable`),
    found in its cached flat index; /``plen`` IPv6 prefixes are keyed by
    their upper 64 bits.
    """
    if plen > 64:
        raise ValueError("crossing flags support plen <= 64 only")
    diff24 = ((v4_changes.old_lo ^ v4_changes.new_lo) >> np.uint64(8)) != 0
    bgp4 = table.route_index(4).crosses(v4_changes.old_lo, v4_changes.new_lo)
    bgp6 = table.route_index(6, max_plen=plen).crosses(v6_changes.old_hi, v6_changes.new_hi)
    return diff24, bgp4, bgp6


# ---------------------------------------------------------------------------
# Shared per-population pack (memoized by the scenario layer)
# ---------------------------------------------------------------------------


class ProbeColumns:
    """Lazily packed columnar views of one probe population.

    Packs a (sanitized) probe population's v4/v6 runs once and caches
    every derived table — the /``plen``-rekeyed prefix runs, the
    per-probe metadata columns and the fused engine's stats — so each
    table/figure over the same probes reuses a single pack instead of
    re-packing per artifact.  Probes must expose their one-probe run packs
    as ``v4``/``v6`` plus ``dual_stack``
    (:class:`repro.atlas.sanitize.SanitizedProbe` does), so packing is a
    concatenation of columns, not a walk over run objects.
    """

    def __init__(self, probes: Sequence, plen: int = 64) -> None:
        self.probes: List = list(probes)
        self.plen = plen
        self._cache: Dict[object, object] = {}

    @property
    def n_probes(self) -> int:
        return len(self.probes)

    def _get(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def v4(self) -> RunColumns:
        """IPv4 address runs, packed once (CSR over the population)."""
        return self._get("v4", lambda: concat_run_columns([p.v4 for p in self.probes]))

    def v6(self) -> RunColumns:
        """IPv6 address runs, packed once (CSR over the population)."""
        return self._get("v6", lambda: concat_run_columns([p.v6 for p in self.probes]))

    def v6_prefix(self) -> RunColumns:
        """IPv6 runs rekeyed to /``plen`` prefixes, adjacent equals merged."""
        return self._get("v6_prefix", lambda: rekey_v6_runs(self.v6(), self.plen))

    def dual_flags(self) -> np.ndarray:
        """Per-probe ``dual_stack`` attribute as a bool column."""
        return self._get(
            "dual_flags",
            lambda: np.fromiter(
                (bool(p.dual_stack) for p in self.probes),
                dtype=bool,
                count=self.n_probes,
            ),
        )

    def asns(self) -> np.ndarray:
        """Per-probe AS number as an int64 column (``-1`` when unknown)."""
        return self._get(
            "asns",
            lambda: np.fromiter(
                (int(getattr(p, "asn", -1)) for p in self.probes),
                dtype=np.int64,
                count=self.n_probes,
            ),
        )


__all__ = [
    "MIN_V6_COVERAGE",
    "ChangeColumns",
    "DurationColumns",
    "ProbeColumns",
    "RunColumns",
    "changes_and_durations",
    "columns_from_runs",
    "concat_run_columns",
    "consistent_period",
    "cpl_of_changes",
    "crossing_flags",
    "cumulative_ttf_columns",
    "detect_periods_np",
    "dual_stack_mask",
    "evaluate_cdf_columns",
    "group_heads",
    "inferred_plen_counts_np",
    "period_tallies",
    "probe_period_flags",
    "rekey_v6_runs",
    "runs_from_columns",
    "total_duration_years_np",
    "total_time_fraction_columns",
]

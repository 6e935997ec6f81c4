"""Fused single-pass analysis engine over columnar run packs.

Rather than walking the CSR run columns (:mod:`repro.core.analysis_np`)
once per artifact, **one** cache-friendly traversal per address family
computes every per-probe intermediate at once —

- change events *and* their boundary gaps (the run-gap array is shared
  between the change table and the sandwiched-duration test),
- exact sandwiched durations and their dual-stack split,
- Eq. 1 total-time-fraction inputs (the duration-hour populations),
- per-probe periodicity flags over the canonical candidate periods,
- CPL histogram contributions of the v6 prefix changes, and
- /24 + BGP boundary-crossing flags per change (the routing-table
  interval index is built **once** per table, not once per AS).

The result is a :class:`FusedProbeStats` struct-of-arrays covering the
whole population; per-AS artifacts then fall out as boolean-mask
reductions (``asn`` column → probe mask → change/duration masks), which
is bit-identical to re-analyzing each AS's probes separately because
every artifact is per-probe local and masking a probe-major pack
preserves per-AS relative order.

Dispatched as ``engine="fused"`` (the default) through
:mod:`repro.core.engine`; the parity contract with the pure-Python
reference (``"py"``) is enforced by
``repro.perf.verify.atlas_diffs`` and the randomized tests in
``tests/test_fused.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bgp.table import RoutingTable
from repro.core import analysis_np as anp
from repro.core.periodicity import CANONICAL_PERIODS
from repro.core.report import AsDurations, Figure1Series, Table1Row, figure1_series
from repro.core.spatial import CplHistogram, CrossingRates
from repro.obs import metric_inc, span


@dataclass
class FusedProbeStats:
    """All per-probe intermediates of one population, from one fused pass.

    Struct-of-arrays over the *whole* population: per-probe columns
    (``asn``, ``dual``, change counts), the global change/duration
    tables of both families, pre-derived duration hours and dual-stack
    splits, and the CPL of every v6 prefix change.  Per-AS artifacts are
    boolean-mask reductions over these arrays — see the
    ``*_from_stats`` assemblers below.
    """

    plen: int
    n_probes: int
    asn: np.ndarray  # int64 (n_probes,): AS of each probe (-1 unknown)
    dual: np.ndarray  # bool (n_probes,): dual_stack flag
    v4_change_counts: np.ndarray  # int64 (n_probes,)
    v6_change_counts: np.ndarray  # int64 (n_probes,): /plen prefix changes
    v4_changes: anp.ChangeColumns
    v6_changes: anp.ChangeColumns  # /plen prefix changes
    v4_durations: anp.DurationColumns
    v6_durations: anp.DurationColumns
    v4_duration_hours: np.ndarray  # float64 per v4 duration
    v6_duration_hours: np.ndarray  # float64 per v6 duration
    v4_duration_dual: np.ndarray  # bool per v4 duration (dual-stack split)
    v6_cpl: np.ndarray  # int64 per v6 change
    _crossings: Optional[tuple] = field(default=None, repr=False, compare=False)
    _period_flags: dict = field(default_factory=dict, repr=False, compare=False)

    def crossings(self, table: RoutingTable) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-change crossing flags ``(v4 /24, v4 BGP, v6 BGP)``.

        Every change of every AS is matched in one vectorized lookup
        against the table's cached flat LPM index; the flags are cached
        on the stats per table.
        """
        cached = self._crossings
        if cached is not None and cached[0] is table:
            return cached[1], cached[2], cached[3]
        if self.plen > 64:
            raise ValueError("fused crossings support plen <= 64 only")
        ch4, ch6 = self.v4_changes, self.v6_changes
        diff24 = ((ch4.old_lo ^ ch4.new_lo) >> np.uint64(8)) != 0
        bgp4 = table.route_index(4).crosses(ch4.old_lo, ch4.new_lo)
        bgp6 = table.route_index(6, max_plen=self.plen).crosses(ch6.old_hi, ch6.new_hi)
        self._crossings = (table, diff24, bgp4, bgp6)
        return diff24, bgp4, bgp6

    def period_flags(
        self,
        candidate_periods: Sequence[float] = CANONICAL_PERIODS,
        tolerance: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-probe periodicity flag matrices ``(v4 NDS, v6)``.

        Computed once over the global duration populations (cached per
        knob set); per-network period detection reduces these rows, so
        N networks share one bincount pass instead of running one each.
        """
        key = (tuple(candidate_periods), float(tolerance))
        cached = self._period_flags.get(key)
        if cached is None:
            nds = ~self.v4_duration_dual
            flags4 = anp.probe_period_flags(
                self.v4_duration_hours[nds],
                self.v4_durations.probe_index[nds],
                self.n_probes,
                candidate_periods,
                tolerance,
            )
            flags6 = anp.probe_period_flags(
                self.v6_duration_hours,
                self.v6_durations.probe_index,
                self.n_probes,
                candidate_periods,
                tolerance,
            )
            cached = self._period_flags[key] = (flags4, flags6)
        return cached


def _family_pass(
    cols: anp.RunColumns,
) -> Tuple[np.ndarray, anp.ChangeColumns, anp.DurationColumns]:
    """One traversal over a packed family: change counts, the change
    table and the exact sandwiched durations share a single run-gap
    array and one pair of first/last-run masks."""
    counts = np.diff(cols.offsets)
    change_counts = np.maximum(counts - 1, 0)
    n = cols.n_runs
    if n == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_u = np.empty(0, dtype=np.uint64)
        changes = anp.ChangeColumns(
            probe_index=empty_i,
            hour=empty_i.copy(),
            old_hi=empty_u,
            old_lo=empty_u.copy(),
            new_hi=empty_u.copy(),
            new_lo=empty_u.copy(),
            boundary_gap=empty_i.copy(),
        )
        durations = anp.DurationColumns(
            probe_index=empty_i.copy(), start=empty_i.copy(), end=empty_i.copy()
        )
        return change_counts, changes, durations
    probe_of = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    first_mask = np.zeros(n, dtype=bool)
    first_mask[cols.offsets[:-1][counts > 0]] = True
    last_mask = np.zeros(n, dtype=bool)
    last_mask[cols.offsets[1:][counts > 0] - 1] = True
    # gap[k] = unobserved hours before run k; only within-probe entries
    # are ever read (first runs are masked out of both consumers).
    gap = np.zeros(n, dtype=np.int64)
    gap[1:] = cols.first[1:] - cols.last[:-1] - 1
    current = np.flatnonzero(~first_mask)
    changes = anp.ChangeColumns(
        probe_index=probe_of[current],
        hour=cols.first[current],
        old_hi=cols.value_hi[current - 1],
        old_lo=cols.value_lo[current - 1],
        new_hi=cols.value_hi[current],
        new_lo=cols.value_lo[current],
        boundary_gap=gap[current],
    )
    gap_after = np.zeros(n, dtype=np.int64)
    gap_after[:-1] = gap[1:]
    exact = ~first_mask & ~last_mask & (gap <= 0) & (gap_after <= 0)
    index = np.flatnonzero(exact)
    durations = anp.DurationColumns(
        probe_index=probe_of[index], start=cols.first[index], end=cols.last[index]
    )
    return change_counts, changes, durations


def fused_probe_stats(columns: anp.ProbeColumns) -> FusedProbeStats:
    """Run the fused pass over a pack (memoized on the pack's cache).

    Touches each family's columns once: v4 address runs, then the
    /``plen``-rekeyed v6 prefix runs, with the dual-stack mask and v6
    CPLs derived in the same traversal.  Crossing flags are added
    lazily per routing table via :meth:`FusedProbeStats.crossings`.
    """

    def build() -> FusedProbeStats:
        with span("analysis/fused/pass", probes=columns.n_probes):
            metric_inc("analysis.fused.probes", columns.n_probes)
            v4 = columns.v4()
            v6_prefix = columns.v6_prefix()
            counts4, changes4, durations4 = _family_pass(v4)
            counts6, changes6, durations6 = _family_pass(v6_prefix)
            duration_dual = anp.dual_stack_mask(columns.v6(), durations4)
            return FusedProbeStats(
                plen=columns.plen,
                n_probes=columns.n_probes,
                asn=columns.asns(),
                dual=columns.dual_flags(),
                v4_change_counts=counts4,
                v6_change_counts=counts6,
                v4_changes=changes4,
                v6_changes=changes6,
                v4_durations=durations4,
                v6_durations=durations6,
                v4_duration_hours=(durations4.end - durations4.start + 1).astype(float),
                v6_duration_hours=(durations6.end - durations6.start + 1).astype(float),
                v4_duration_dual=duration_dual,
                v6_cpl=anp.cpl_of_changes(changes6, columns.plen),
            )

    return columns._get("fused_stats", build)


# ---------------------------------------------------------------------------
# Per-AS artifact assembly: boolean-mask reductions over the stats
# ---------------------------------------------------------------------------


def _as_sel(stats: FusedProbeStats, sel: Optional[np.ndarray]) -> np.ndarray:
    """Normalize a probe selector to a bool column (None = all probes)."""
    if sel is None:
        return np.ones(stats.n_probes, dtype=bool)
    return np.asarray(sel, dtype=bool)


def table1_from_stats(
    stats: FusedProbeStats,
    name: str,
    asn: int,
    country: str,
    sel: Optional[np.ndarray] = None,
) -> Table1Row:
    """Table 1 row of the selected probes (change-count reductions)."""
    sel = _as_sel(stats, sel)
    dual_sel = sel & stats.dual
    return Table1Row(
        name=name,
        asn=asn,
        country=country,
        all_probes=int(np.count_nonzero(sel)),
        all_v4_changes=int(stats.v4_change_counts[sel].sum()),
        ds_probes=int(np.count_nonzero(dual_sel)),
        ds_v4_changes=int(stats.v4_change_counts[dual_sel].sum()),
        ds_v6_changes=int(stats.v6_change_counts[dual_sel].sum()),
    )


def as_durations_from_stats(
    stats: FusedProbeStats, sel: Optional[np.ndarray] = None
) -> AsDurations:
    """Figure 1 duration populations of the selected probes.

    Masking the probe-major global duration tables preserves the
    per-probe concatenation order of the reference implementation.
    """
    sel = _as_sel(stats, sel)
    in4 = sel[stats.v4_durations.probe_index]
    in6 = sel[stats.v6_durations.probe_index]
    dual = stats.v4_duration_dual
    return AsDurations(
        v4_non_dual_stack=stats.v4_duration_hours[in4 & ~dual].tolist(),
        v4_dual_stack=stats.v4_duration_hours[in4 & dual].tolist(),
        v6=stats.v6_duration_hours[in6].tolist(),
    )


def figure1_from_stats(
    stats: FusedProbeStats, name: str, sel: Optional[np.ndarray] = None
) -> Dict[str, Figure1Series]:
    """The three Figure 1 curves (v4 NDS, v4 DS, v6) of the selection."""
    sel = _as_sel(stats, sel)
    in4 = sel[stats.v4_durations.probe_index]
    in6 = sel[stats.v6_durations.probe_index]
    dual = stats.v4_duration_dual
    hours4 = stats.v4_duration_hours
    return {
        "v4_nds": figure1_series(
            f"{name} IPv4 non-dual-stack", hours4[in4 & ~dual], engine="fused"
        ),
        "v4_ds": figure1_series(
            f"{name} IPv4 dual-stack", hours4[in4 & dual], engine="fused"
        ),
        "v6": figure1_series(
            f"{name} IPv6", stats.v6_duration_hours[in6], engine="fused"
        ),
    }


def figure5_from_stats(
    stats: FusedProbeStats, sel: Optional[np.ndarray] = None
) -> CplHistogram:
    """Figure 5 CPL histogram of the selected probes' v6 changes."""
    sel = _as_sel(stats, sel)
    mask = sel[stats.v6_changes.probe_index]
    if not mask.any():
        return CplHistogram(changes_by_cpl={}, probes_by_cpl={})
    cpls = stats.v6_cpl[mask]
    values, counts = np.unique(cpls, return_counts=True)
    changes_by_cpl = {int(v): int(c) for v, c in zip(values, counts)}
    pair_keys = stats.v6_changes.probe_index[mask] * np.int64(129) + cpls
    probe_cpls = np.unique(pair_keys) % 129
    probe_values, probe_counts = np.unique(probe_cpls, return_counts=True)
    probes_by_cpl = {int(v): int(c) for v, c in zip(probe_values, probe_counts)}
    return CplHistogram(changes_by_cpl=changes_by_cpl, probes_by_cpl=probes_by_cpl)


def table2_from_stats(
    stats: FusedProbeStats,
    table: RoutingTable,
    sel: Optional[np.ndarray] = None,
) -> CrossingRates:
    """Table 2 crossing rates of the selected probes' changes."""
    diff24, bgp4, bgp6 = stats.crossings(table)
    sel = _as_sel(stats, sel)
    in4 = sel[stats.v4_changes.probe_index]
    in6 = sel[stats.v6_changes.probe_index]
    return CrossingRates(
        v4_changes=int(np.count_nonzero(in4)),
        v4_diff_slash24=int(np.count_nonzero(diff24 & in4)),
        v4_diff_bgp=int(np.count_nonzero(bgp4 & in4)),
        v6_changes=int(np.count_nonzero(in6)),
        v6_diff_bgp=int(np.count_nonzero(bgp6 & in6)),
    )


def network_periods_from_stats(
    stats: FusedProbeStats,
    sel: Optional[np.ndarray] = None,
    candidate_periods: Sequence[float] = CANONICAL_PERIODS,
    tolerance: float = 1.0,
    min_probes: int = 3,
) -> Tuple[Optional[float], Optional[float]]:
    """Consistent ``(v4 NDS, v6)`` periods of the selected probes.

    Reduces the globally computed per-probe flag matrices: a probe
    outside the selection contributes no flags, so the per-AS counts
    equal re-running the detection over that AS's probes alone.
    """
    flags4, flags6 = stats.period_flags(candidate_periods, tolerance)
    sel = _as_sel(stats, sel)

    def first_period(flags: np.ndarray) -> Optional[float]:
        exhibiting = flags[sel].sum(axis=0)
        for j, period in enumerate(candidate_periods):
            if int(exhibiting[j]) >= min_probes:
                return float(period)
        return None

    return first_period(flags4), first_period(flags6)


# ---------------------------------------------------------------------------
# Scenario-level assembly (all ASes from one pass)
# ---------------------------------------------------------------------------


def fused_analysis_artifacts(
    columns: anp.ProbeColumns,
    groups: Sequence[Tuple[str, int, str]],
    table: Optional[RoutingTable] = None,
) -> Dict[str, Dict[str, object]]:
    """Every AS's Table 1/2 + Figure 1/5 artifacts from one fused pass.

    ``groups`` is ``(name, asn, country)`` per AS; probes are selected
    by the pack's ``asn`` column.  Returns per-artifact dicts keyed by
    AS name (``table2`` only when ``table`` is given).
    """
    stats = fused_probe_stats(columns)
    table1: Dict[str, object] = {}
    table2: Dict[str, object] = {}
    figure1: Dict[str, object] = {}
    figure5: Dict[str, object] = {}
    for name, asn, country in groups:
        sel = stats.asn == asn
        with span(
            "analysis/fused/network", network=name, probes=int(np.count_nonzero(sel))
        ):
            table1[name] = table1_from_stats(stats, name, asn, country, sel)
            figure1[name] = figure1_from_stats(stats, name, sel)
            figure5[name] = figure5_from_stats(stats, sel)
            if table is not None:
                table2[name] = table2_from_stats(stats, table, sel)
    return {
        "table1": table1,
        "table2": table2,
        "figure1": figure1,
        "figure5": figure5,
    }


def fused_network_periods(
    columns: anp.ProbeColumns,
    groups: Sequence[Tuple[str, int, str]],
    candidate_periods: Sequence[float] = CANONICAL_PERIODS,
    tolerance: float = 1.0,
    min_probes: int = 3,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Section 3.2 consistent periods for every AS from one fused pass.

    Same contract as :func:`repro.core.report.periodic_networks`:
    ``(v4_nds_periods, v6_periods)`` keyed by network name, omitting
    networks with no consistent period.
    """
    stats = fused_probe_stats(columns)
    v4_periods: Dict[str, float] = {}
    v6_periods: Dict[str, float] = {}
    for name, asn, _country in groups:
        sel = stats.asn == asn
        with span(
            "analysis/fused/periodicity", network=name, probes=int(np.count_nonzero(sel))
        ):
            v4_period, v6_period = network_periods_from_stats(
                stats, sel, candidate_periods, tolerance, min_probes
            )
        if v4_period is not None:
            v4_periods[name] = v4_period
        if v6_period is not None:
            v6_periods[name] = v6_period
    return v4_periods, v6_periods


def periodic_networks_fused(
    probes_by_network: Dict[str, Sequence],
    candidate_periods: Sequence[float] = CANONICAL_PERIODS,
    tolerance: float = 1.0,
    min_probes: int = 3,
    columns_by_network: Optional[Dict[str, anp.ProbeColumns]] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Fused counterpart of ``report.periodic_networks`` (one pack per
    network, per-probe flags from each pack's fused stats)."""
    v4_periods: Dict[str, float] = {}
    v6_periods: Dict[str, float] = {}
    for name, probes in probes_by_network.items():
        columns = (columns_by_network or {}).get(name)
        if columns is None or columns.plen != 64:
            columns = anp.ProbeColumns(probes)
        stats = fused_probe_stats(columns)
        with span(
            "analysis/fused/periodicity", network=name, probes=stats.n_probes
        ):
            v4_period, v6_period = network_periods_from_stats(
                stats, None, candidate_periods, tolerance, min_probes
            )
        if v4_period is not None:
            v4_periods[name] = v4_period
        if v6_period is not None:
            v6_periods[name] = v6_period
    return v4_periods, v6_periods


__all__ = [
    "FusedProbeStats",
    "as_durations_from_stats",
    "figure1_from_stats",
    "figure5_from_stats",
    "fused_analysis_artifacts",
    "fused_network_periods",
    "fused_probe_stats",
    "network_periods_from_stats",
    "periodic_networks_fused",
    "table1_from_stats",
    "table2_from_stats",
]

"""Figure/table assembly: from sanitized probes to the paper's artifacts.

This module is the bridge between the low-level analyses and the
benchmark harness: each ``figureN_*`` / ``tableN`` function computes the
data behind one of the paper's artifacts, and ``render_table`` produces
the ASCII form the benchmarks print.

Every analysis entry point takes an ``engine="fused"|"py"`` knob
(resolved by :mod:`repro.core.engine`): ``"py"`` runs the pure-Python
reference kernels, ``"fused"`` the single-pass engine of
:mod:`repro.core.fused` over a columnar
:class:`~repro.core.analysis_np.ProbeColumns` pack.  The default
(``engine=None``) is ``"fused"``.  Each entry point runs exactly one
path per engine; the two produce bit-identical artifacts (the parity
tests enforce this), and an error raised by the fused path propagates
instead of being retried on the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.atlas.sanitize import SanitizedProbe
from repro.bgp.table import RoutingTable
from repro.core import analysis_np as _anp
from repro.core.changes import (
    ChangeEvent,
    Duration,
    changes_from_runs,
    sandwiched_durations,
    v6_runs_to_prefix_runs,
)
from repro.core.dualstack import split_durations_by_stack
from repro.core.engine import resolve_engine as _resolve_engine
from repro.core.periodicity import CANONICAL_PERIODS, consistent_periodic_networks
from repro.core.spatial import CplHistogram, CrossingRates, cpl_histogram, crossing_rates
from repro.core.timefraction import (
    CANONICAL_GRID,
    cumulative_total_time_fraction,
    evaluate_cdf,
    total_duration_years,
)

def _fused_stats(probes, plen: int = 64, columns=None):
    """Fused stats for a probe population (pack reused when supplied)."""
    if columns is None or columns.plen != plen:
        columns = _anp.ProbeColumns(probes, plen=plen)
    return _fused.fused_probe_stats(columns)


# -- per-probe plumbing -------------------------------------------------------


def probe_v4_changes(probe: SanitizedProbe) -> List[ChangeEvent]:
    """IPv4 assignment changes of one sanitized probe."""
    return changes_from_runs(probe.v4_runs)


def probe_v6_changes(probe: SanitizedProbe, plen: int = 64) -> List[ChangeEvent]:
    """IPv6 /plen prefix changes of one sanitized probe."""
    return changes_from_runs(v6_runs_to_prefix_runs(probe.v6_runs, plen))


def probe_v4_durations(probe: SanitizedProbe) -> List[Duration]:
    """Exact IPv4 assignment durations of one sanitized probe."""
    return sandwiched_durations(probe.v4_runs)


def probe_v6_durations(probe: SanitizedProbe, plen: int = 64) -> List[Duration]:
    """Exact IPv6 /plen assignment durations of one sanitized probe."""
    return sandwiched_durations(v6_runs_to_prefix_runs(probe.v6_runs, plen))


@dataclass
class AsDurations:
    """Per-AS duration populations split the way Figure 1 needs."""

    v4_non_dual_stack: List[float] = field(default_factory=list)
    v4_dual_stack: List[float] = field(default_factory=list)
    v6: List[float] = field(default_factory=list)


def as_durations(
    probes: Sequence[SanitizedProbe],
    engine: Optional[str] = None,
    columns: Optional["_anp.ProbeColumns"] = None,
) -> AsDurations:
    """Collect and stack-split exact durations for one AS's probes.

    ``columns`` optionally supplies a pre-packed (memoized)
    :class:`~repro.core.analysis_np.ProbeColumns` for these probes so
    the fused path reuses one pack across artifacts.
    """
    if _resolve_engine(engine) == "fused":
        return _fused.as_durations_from_stats(_fused_stats(probes, columns=columns))
    result = AsDurations()
    for probe in probes:
        v4_durations = probe_v4_durations(probe)
        dual, non_dual = split_durations_by_stack(v4_durations, probe.v6_runs)
        result.v4_dual_stack.extend(float(d.hours) for d in dual)
        result.v4_non_dual_stack.extend(float(d.hours) for d in non_dual)
        result.v6.extend(float(d.hours) for d in probe_v6_durations(probe))
    return result


# -- Table 1 ------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    name: str
    asn: int
    country: str
    all_probes: int
    all_v4_changes: int
    ds_probes: int
    ds_v4_changes: int
    ds_v6_changes: int

    @property
    def ds_v4_share_pct(self) -> float:
        if not self.all_v4_changes:
            return 0.0
        return 100.0 * self.ds_v4_changes / self.all_v4_changes


def table1_row(
    name: str,
    asn: int,
    country: str,
    probes: Sequence[SanitizedProbe],
    engine: Optional[str] = None,
    columns: Optional["_anp.ProbeColumns"] = None,
) -> Table1Row:
    """Aggregate one AS's probes into its Table 1 row."""
    if _resolve_engine(engine) == "fused":
        return _fused.table1_from_stats(
            _fused_stats(probes, columns=columns), name, asn, country
        )
    all_v4 = ds_v4 = ds_v6 = ds_probes = 0
    for probe in probes:
        v4_changes = len(probe_v4_changes(probe))
        all_v4 += v4_changes
        if probe.dual_stack:
            ds_probes += 1
            ds_v4 += v4_changes
            ds_v6 += len(probe_v6_changes(probe))
    return Table1Row(
        name=name,
        asn=asn,
        country=country,
        all_probes=len(probes),
        all_v4_changes=all_v4,
        ds_probes=ds_probes,
        ds_v4_changes=ds_v4,
        ds_v6_changes=ds_v6,
    )


# -- Figure 1 ------------------------------------------------------------------


@dataclass(frozen=True)
class Figure1Series:
    """One cumulative total-time-fraction curve."""

    label: str
    total_years: float
    grid_values: Tuple[float, ...]  # CDF sampled at CANONICAL_GRID

    def value_at(self, index: int) -> float:
        """The CDF value at CANONICAL_GRID[index]."""
        return self.grid_values[index]


def figure1_series(
    label: str, durations: Sequence[float], engine: Optional[str] = None
) -> Figure1Series:
    """One cumulative-TTF curve sampled on the canonical grid.

    The fused path runs the columnar Eq. 1 + CDF + grid-sampling
    kernels of :mod:`repro.core.analysis_np` over ``durations`` (a list
    or a float array).
    """
    if _resolve_engine(engine) == "fused":
        xs, ys = _anp.cumulative_ttf_columns(durations)
        return Figure1Series(
            label=label,
            total_years=_anp.total_duration_years_np(durations),
            grid_values=tuple(
                float(v) for v in _anp.evaluate_cdf_columns(xs, ys, CANONICAL_GRID)
            ),
        )
    xs, ys = cumulative_total_time_fraction(durations)
    return Figure1Series(
        label=label,
        total_years=total_duration_years(durations),
        grid_values=tuple(evaluate_cdf(xs, ys, CANONICAL_GRID)),
    )


def figure1_for_as(
    name: str,
    probes: Sequence[SanitizedProbe],
    engine: Optional[str] = None,
    columns: Optional["_anp.ProbeColumns"] = None,
) -> Dict[str, Figure1Series]:
    """The three Figure 1 curves (v4 NDS, v4 DS, v6) for one AS."""
    durations = as_durations(probes, engine=engine, columns=columns)
    return {
        "v4_nds": figure1_series(
            f"{name} IPv4 non-dual-stack", durations.v4_non_dual_stack, engine=engine
        ),
        "v4_ds": figure1_series(
            f"{name} IPv4 dual-stack", durations.v4_dual_stack, engine=engine
        ),
        "v6": figure1_series(f"{name} IPv6", durations.v6, engine=engine),
    }


# -- Table 2 and Figure 5 -----------------------------------------------------


def table2_row(
    probes: Sequence[SanitizedProbe],
    table: RoutingTable,
    engine: Optional[str] = None,
    columns: Optional["_anp.ProbeColumns"] = None,
) -> CrossingRates:
    """Aggregate one AS's probes into its Table 2 crossing rates."""
    if _resolve_engine(engine) == "fused":
        return _fused.table2_from_stats(_fused_stats(probes, columns=columns), table)
    v4_changes: List[ChangeEvent] = []
    v6_changes: List[ChangeEvent] = []
    for probe in probes:
        v4_changes.extend(probe_v4_changes(probe))
        v6_changes.extend(probe_v6_changes(probe))
    return crossing_rates(v4_changes, v6_changes, table)


def figure5_for_as(
    probes: Sequence[SanitizedProbe],
    engine: Optional[str] = None,
    columns: Optional["_anp.ProbeColumns"] = None,
) -> CplHistogram:
    """The Figure 5 CPL histogram for one AS's probes."""
    if _resolve_engine(engine) == "fused":
        return _fused.figure5_from_stats(_fused_stats(probes, columns=columns))
    by_probe = {probe.probe_id: probe_v6_changes(probe) for probe in probes}
    return cpl_histogram(by_probe)


# -- Section 3.2 periodicity ---------------------------------------------------


def periodic_networks(
    probes_by_network: Dict[str, Sequence[SanitizedProbe]],
    candidate_periods: Sequence[float] = CANONICAL_PERIODS,
    tolerance: float = 1.0,
    min_probes: int = 3,
    engine: Optional[str] = None,
    columns_by_network: Optional[Dict[str, "_anp.ProbeColumns"]] = None,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Consistent periodic renumbering per network (Section 3.2 text).

    Returns ``(v4_nds_periods, v6_periods)``: for each network, the
    first candidate period exhibited by at least ``min_probes`` probes —
    over IPv4 non-dual-stack exact durations and IPv6 /64 prefix
    durations respectively; networks with no consistent period are
    absent.  The fused engine replaces the reference's per-probe
    duration extraction and O(periods x probes x durations) mode
    counting with per-probe bincount flag reductions over the
    (optionally memoized) :class:`~repro.core.analysis_np.ProbeColumns`
    packs.
    """
    if _resolve_engine(engine) == "fused":
        return _fused.periodic_networks_fused(
            probes_by_network,
            candidate_periods,
            tolerance,
            min_probes,
            columns_by_network,
        )
    v4_nds: Dict[str, Dict[str, List[float]]] = {}
    v6: Dict[str, Dict[str, List[float]]] = {}
    for name, probes in probes_by_network.items():
        v4_map: Dict[str, List[float]] = {}
        v6_map: Dict[str, List[float]] = {}
        for probe in probes:
            durations = probe_v4_durations(probe)
            _dual, non_dual = split_durations_by_stack(durations, probe.v6_runs)
            if non_dual:
                v4_map[probe.probe_id] = [float(d.hours) for d in non_dual]
            v6_durations = probe_v6_durations(probe)
            if v6_durations:
                v6_map[probe.probe_id] = [float(d.hours) for d in v6_durations]
        v4_nds[name] = v4_map
        v6[name] = v6_map
    return (
        consistent_periodic_networks(
            v4_nds,
            candidate_periods=candidate_periods,
            tolerance=tolerance,
            min_probes=min_probes,
        ),
        consistent_periodic_networks(
            v6,
            candidate_periods=candidate_periods,
            tolerance=tolerance,
            min_probes=min_probes,
        ),
    )


# -- rendering ----------------------------------------------------------------


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table (the benchmarks' output format)."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[index]) for row in cells)) if cells else len(header)
        for index, header in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def render_histogram(
    counts: Dict[int, int],
    title: Optional[str] = None,
    width: int = 50,
    label: str = "",
) -> str:
    """ASCII bar rendering of an integer-keyed histogram.

    Used by the benchmark artifacts to make Figure 5/6-style
    distributions legible in plain text.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    lines = []
    if title:
        lines.append(title)
    if not counts:
        lines.append("(empty)")
        return "\n".join(lines)
    peak = max(counts.values())
    key_width = max(len(str(key)) for key in counts)
    for key in sorted(counts):
        value = counts[key]
        bar = "#" * max(1 if value else 0, round(width * value / peak))
        lines.append(f"{label}{key:>{key_width}}  {bar} {value}")
    return "\n".join(lines)


def render_cdf(
    xs: Sequence[float],
    ys: Sequence[float],
    title: Optional[str] = None,
    width: int = 50,
) -> str:
    """ASCII rendering of a step CDF (x -> cumulative fraction)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    lines = []
    if title:
        lines.append(title)
    if not xs:
        lines.append("(empty)")
        return "\n".join(lines)
    for x, y in zip(xs, ys):
        bar = "=" * round(width * y)
        lines.append(f"{x:>10g}  {bar}| {y:.2f}")
    return "\n".join(lines)


# The fused engine builds on the dataclasses above, so it is imported
# last (it imports this module's names at its own import time).
from repro.core import fused as _fused  # noqa: E402

__all__ = [
    "AsDurations",
    "Figure1Series",
    "Table1Row",
    "as_durations",
    "figure1_for_as",
    "figure1_series",
    "figure5_for_as",
    "periodic_networks",
    "probe_v4_changes",
    "probe_v4_durations",
    "probe_v6_changes",
    "probe_v6_durations",
    "render_cdf",
    "render_histogram",
    "render_table",
    "table1_row",
    "table2_row",
]

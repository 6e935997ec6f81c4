"""The Appendix A.1 data-sanitization pipeline.

Given raw per-probe echo data (:class:`~repro.atlas.platform.ProbeData`)
and a routing table, :func:`sanitize` applies, in order:

1. **Test-address removal** — drop all runs reporting 193.0.0.78, the
   RIPE NCC address probes carry before being shipped to volunteers.
2. **Unrouted removal** — drop runs whose value has no origin AS.
3. **Bad-tag filter** — drop probes tagged ``multihomed``,
   ``datacentre``, ``core`` or ``system-anchor``.
4. **Atypical-NAT filter** — drop probes whose IPv4 ``src_addr`` is
   public, or whose IPv6 ``src_addr`` differs from the echoed address.
5. **Multihoming filter** — drop probes whose reported values or origin
   ASes *alternate* (value at run *i* equals the value at run *i − 2*,
   or the AS sequence revisits an earlier AS).
6. **Virtual-probe splitting** — probes that switch AS once and never
   return (owner changed ISP) are split into one virtual probe per AS.
7. **Short-duration filter** — (virtual) probes observed for less than
   a month are dropped, as are probes left with no routed run at all.

The output is a list of :class:`SanitizedProbe` plus a
:class:`SanitizationReport` with per-filter counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.atlas.echo import TEST_ADDRESS, EchoRun
from repro.atlas.platform import ProbeData
from repro.bgp.table import RoutingTable
from repro.obs import get_logger, metric_inc, span, telemetry_enabled

_log = get_logger("atlas.sanitize")

#: Minimum observed span (hours) for a probe to be usable (one month).
MIN_SPAN_HOURS = 30 * 24

#: Number of value reversions (run i equals run i-2) that flags a probe
#: as multihomed.
REVERSION_THRESHOLD = 2


@dataclass
class SanitizedProbe:
    """One (possibly virtual) probe that survived sanitization."""

    probe_id: str  # "1234" or "1234#2" for the 2nd virtual probe
    asn: int
    dual_stack: bool
    v4_runs: List[EchoRun]
    v6_runs: List[EchoRun]

    @property
    def v4_span(self) -> int:
        return _span(self.v4_runs)

    @property
    def v6_span(self) -> int:
        return _span(self.v6_runs)


@dataclass
class SanitizationReport:
    """Why probes (or records) were removed."""

    input_probes: int = 0
    kept_probes: int = 0
    virtual_probes_created: int = 0
    dropped_bad_tag: int = 0
    dropped_atypical_nat: int = 0
    dropped_multihomed: int = 0
    dropped_short: int = 0
    test_address_runs_removed: int = 0
    unrouted_runs_removed: int = 0
    notes: List[str] = field(default_factory=list)


def _span(runs: Sequence[EchoRun]) -> int:
    if not runs:
        return 0
    return runs[-1].last - runs[0].first + 1


def _count_reversions(runs: Sequence[EchoRun]) -> int:
    return sum(
        1
        for index in range(2, len(runs))
        if runs[index].value == runs[index - 2].value
        and runs[index].value != runs[index - 1].value
    )


def _as_sequence(runs: Sequence[EchoRun], asns: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapsed (asn, first_hour) sequence of the probe's runs, given
    each run's origin ASN."""
    sequence: List[Tuple[int, int]] = []
    for run, asn in zip(runs, asns):
        if not sequence or sequence[-1][0] != asn:
            sequence.append((asn, run.first))
    return sequence


def _alternates(sequence: Sequence[Tuple[int, int]]) -> bool:
    """True when an AS appears, disappears, and reappears."""
    seen = set()
    previous: Optional[int] = None
    for asn, _first in sequence:
        if asn in seen and asn != previous:
            return True
        seen.add(asn)
        previous = asn
    return False


def _strip_runs(
    runs: Sequence[EchoRun], table: RoutingTable, report: SanitizationReport
) -> Tuple[List[EchoRun], List[int]]:
    """Drop test-address and unrouted runs; returns the kept runs and
    each kept run's origin ASN."""
    kept: List[EchoRun] = []
    asns: List[int] = []
    for run in runs:
        if run.value == TEST_ADDRESS:
            report.test_address_runs_removed += 1
            continue
        asn = table.origin_asn(run.value)
        if asn is None:
            report.unrouted_runs_removed += 1
            continue
        kept.append(run)
        asns.append(asn)
    return kept, asns


def _split_hours(
    v4_sequence: Sequence[Tuple[int, int]], v6_sequence: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Boundaries where the probe moved AS, merged across both families.

    Returns a list of ``(asn, start_hour)`` entries sorted by hour, with
    consecutive duplicates collapsed.
    """
    merged = sorted(list(v4_sequence) + list(v6_sequence), key=lambda item: item[1])
    collapsed: List[Tuple[int, int]] = []
    for asn, first in merged:
        if not collapsed or collapsed[-1][0] != asn:
            collapsed.append((asn, first))
    return collapsed


def sanitize(
    probes: Sequence[ProbeData],
    table: RoutingTable,
    min_span_hours: int = MIN_SPAN_HOURS,
    reversion_threshold: int = REVERSION_THRESHOLD,
) -> Tuple[List[SanitizedProbe], SanitizationReport]:
    """Run the full Appendix A.1 pipeline; see the module docstring."""
    with span("collection/sanitize", probes=len(probes)):
        report = SanitizationReport(input_probes=len(probes))
        survivors = _sanitize(probes, table, min_span_hours, reversion_threshold, report)
    report.kept_probes = len(survivors)
    if telemetry_enabled():
        metric_inc("sanitize.probes_input", report.input_probes)
        metric_inc("sanitize.probes_kept", report.kept_probes)
        metric_inc("sanitize.virtual_probes", report.virtual_probes_created)
        for reason in ("bad_tag", "atypical_nat", "multihomed", "short"):
            dropped = getattr(report, f"dropped_{reason}")
            if dropped:
                metric_inc("sanitize.probes_dropped", dropped, reason=reason)
        if report.test_address_runs_removed:
            metric_inc(
                "sanitize.runs_removed",
                report.test_address_runs_removed,
                reason="test_address",
            )
        if report.unrouted_runs_removed:
            metric_inc(
                "sanitize.runs_removed", report.unrouted_runs_removed, reason="unrouted"
            )
    _log.info(
        "probes sanitized",
        extra={
            "input": report.input_probes,
            "kept": report.kept_probes,
            "virtual": report.virtual_probes_created,
            "bad_tag": report.dropped_bad_tag,
            "atypical_nat": report.dropped_atypical_nat,
            "multihomed": report.dropped_multihomed,
            "short": report.dropped_short,
            "runs_removed": report.test_address_runs_removed
            + report.unrouted_runs_removed,
        },
    )
    return survivors, report


def _sanitize(
    probes: Sequence[ProbeData],
    table: RoutingTable,
    min_span_hours: int,
    reversion_threshold: int,
    report: SanitizationReport,
) -> List[SanitizedProbe]:
    """The per-probe filter cascade (counts accumulate on ``report``)."""
    survivors: List[SanitizedProbe] = []

    for data in probes:
        if data.probe.has_bad_tag:
            report.dropped_bad_tag += 1
            continue
        if data.v4_src_public or data.v6_src_mismatch:
            report.dropped_atypical_nat += 1
            continue

        v4_runs, v4_asns = _strip_runs(data.v4_runs, table, report)
        v6_runs, v6_asns = _strip_runs(data.v6_runs, table, report)

        if (
            _count_reversions(v4_runs) >= reversion_threshold
            or _count_reversions(v6_runs) >= reversion_threshold
        ):
            report.dropped_multihomed += 1
            continue

        v4_sequence = _as_sequence(v4_runs, v4_asns)
        v6_sequence = _as_sequence(v6_runs, v6_asns)
        if _alternates(v4_sequence) or _alternates(v6_sequence):
            report.dropped_multihomed += 1
            continue

        segments = _split_hours(v4_sequence, v6_sequence)
        if not segments:
            # No routed run left: a 0 h routed span, below any minimum.
            report.dropped_short += 1
            continue
        if _alternates(segments):
            report.dropped_multihomed += 1
            continue

        pieces = _cut_into_virtual_probes(data, v4_runs, v6_runs, segments)
        if len(pieces) > 1:
            report.virtual_probes_created += len(pieces)
        for probe_id, asn, piece_v4, piece_v6 in pieces:
            if max(_span(piece_v4), _span(piece_v6)) < min_span_hours:
                report.dropped_short += 1
                continue
            dual_stack = _span(piece_v6) >= min_span_hours and _span(piece_v4) >= min_span_hours
            survivors.append(
                SanitizedProbe(
                    probe_id=probe_id,
                    asn=asn,
                    dual_stack=dual_stack,
                    v4_runs=piece_v4,
                    v6_runs=piece_v6,
                )
            )

    return survivors


def _cut_into_virtual_probes(
    data: ProbeData,
    v4_runs: List[EchoRun],
    v6_runs: List[EchoRun],
    segments: List[Tuple[int, int]],
) -> List[Tuple[str, int, List[EchoRun], List[EchoRun]]]:
    """One (id, asn, v4, v6) tuple per AS segment of the probe's life."""
    if len(segments) == 1:
        return [(str(data.probe.probe_id), segments[0][0], v4_runs, v6_runs)]
    pieces = []
    boundaries = [first for _asn, first in segments[1:]] + [None]
    start: Optional[int] = None
    for index, ((asn, _first), end) in enumerate(zip(segments, boundaries)):
        piece_v4 = [run for run in v4_runs if _in_piece(run, start, end)]
        piece_v6 = [run for run in v6_runs if _in_piece(run, start, end)]
        pieces.append((f"{data.probe.probe_id}#{index}", asn, piece_v4, piece_v6))
        start = end
    return pieces


def _in_piece(run: EchoRun, start: Optional[int], end: Optional[int]) -> bool:
    if start is not None and run.first < start:
        return False
    if end is not None and run.first >= end:
        return False
    return True


__all__ = [
    "MIN_SPAN_HOURS",
    "REVERSION_THRESHOLD",
    "SanitizationReport",
    "SanitizedProbe",
    "sanitize",
]

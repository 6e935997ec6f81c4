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

The cascade reads the probes' run columns, never run objects: steps 1–2
are masks over all candidate probes' runs at once (one vectorized
routing lookup per family through ``RoutingTable.route_index``), value
reversions and AS changes are array compares, and virtual-probe cuts
are ``searchsorted`` on the runs' first hours.  Survivors hold views of
the kept columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.echo import TEST_ADDRESS, EchoRun
from repro.atlas.platform import EchoColumns, ProbeData, columns_span
from repro.bgp.table import RoutingTable
from repro.core.analysis_np import RunColumns, concat_run_columns
from repro.obs import get_logger, metric_inc, span, telemetry_enabled

_log = get_logger("atlas.sanitize")

#: Minimum observed span (hours) for a probe to be usable (one month).
MIN_SPAN_HOURS = 30 * 24

#: Number of value reversions (run i equals run i-2) that flags a probe
#: as multihomed.
REVERSION_THRESHOLD = 2


class SanitizedProbe(EchoColumns):
    """A (possibly virtual) probe that survived sanitization, runs as columns.

    Its runs are the one-probe run packs ``v4``/``v6``; ``v4_runs`` and
    ``v6_runs`` build :class:`EchoRun` lists from them on first read.
    Pass run lists instead of columns to build one by hand.
    ``run_probe_id`` is the integer id the runs carry: the raw probe's
    id (by default the id of the given runs).
    """

    _compared = ("probe_id", "asn", "dual_stack", "run_probe_id")

    def __init__(
        self,
        probe_id: str,  # "1234" or "1234#2" for the 2nd virtual probe
        asn: int,
        dual_stack: bool,
        v4_runs: Optional[Sequence[EchoRun]] = None,
        v6_runs: Optional[Sequence[EchoRun]] = None,
        *,
        v4: Optional[RunColumns] = None,
        v6: Optional[RunColumns] = None,
        run_probe_id: Optional[int] = None,
    ) -> None:
        self.probe_id = probe_id
        self.asn = asn
        self.dual_stack = dual_stack
        if run_probe_id is None:
            ids = {run.probe_id for runs in (v4_runs or (), v6_runs or ()) for run in runs}
            if len(ids) > 1:
                raise ValueError(f"probe {probe_id!r}: runs carry several probe ids {sorted(ids)}")
            run_probe_id = ids.pop() if ids else 0
        self.run_probe_id = run_probe_id
        self._set_columns(v4, v6, v4_runs, v6_runs)


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


class _RoutedRuns:
    """One family's routed runs of many probes: a CSR pack over the
    probes with test-address and unrouted runs removed, plus each kept
    run's origin ASN."""

    def __init__(
        self,
        parts: Sequence[RunColumns],
        family: int,
        table: RoutingTable,
        report: SanitizationReport,
    ) -> None:
        packed = concat_run_columns(parts)
        if family == 4:
            test = (packed.value_hi == 0) & (packed.value_lo == np.uint64(int(TEST_ADDRESS)))
            asns = table.route_index(4).origin_asns(packed.value_lo)
        else:
            test = np.zeros(packed.n_runs, dtype=bool)
            asns = table.route_index(6).origin_asns(packed.value_lo, packed.value_hi)
        unrouted = ~test & (asns < 0)
        report.test_address_runs_removed += int(np.count_nonzero(test))
        report.unrouted_runs_removed += int(np.count_nonzero(unrouted))
        keep = ~(test | unrouted)

        probe = packed.probe_of_run()[keep]
        offsets = np.zeros(packed.n_probes + 1, dtype=np.int64)
        np.cumsum(np.bincount(probe, minlength=packed.n_probes), out=offsets[1:])
        self.columns = RunColumns(
            offsets,
            packed.value_hi[keep],
            packed.value_lo[keep],
            packed.first[keep],
            packed.last[keep],
            packed.observed[keep],
            packed.max_gap[keep],
        )
        self.asns = asns[keep]
        self._probe = probe
        self.offsets = offsets.tolist()
        # A run opens an AS sequence entry when its AS differs from the
        # previous kept run's, or it is its probe's first kept run.
        opens = np.ones(len(probe), dtype=bool)
        opens[1:] = (self.asns[1:] != self.asns[:-1]) | (probe[1:] != probe[:-1])
        self._opens = opens

    def reversions(self) -> np.ndarray:
        """Per probe: kept runs whose value equals the one two runs back
        but not the previous one."""
        cols = self.columns
        hi, lo, probe = cols.value_hi, cols.value_lo, self._probe
        back2 = (hi[2:] == hi[:-2]) & (lo[2:] == lo[:-2]) & (probe[2:] == probe[:-2])
        back1 = (hi[2:] == hi[1:-1]) & (lo[2:] == lo[1:-1])
        return np.bincount(probe[2:][back2 & ~back1], minlength=cols.n_probes)

    def as_sequence(self, index: int) -> List[Tuple[int, int]]:
        """Collapsed ``(asn, first_hour)`` sequence of probe ``index``."""
        start, stop = self.offsets[index], self.offsets[index + 1]
        opens = np.flatnonzero(self._opens[start:stop]) + start
        return list(zip(self.asns[opens].tolist(), self.columns.first[opens].tolist()))

    def cut(self, index: int, boundaries: Sequence[int]) -> List[RunColumns]:
        """Probe ``index``'s runs split at the ``boundaries`` hours: piece
        ``k`` holds the runs starting in ``[boundaries[k-1], boundaries[k])``."""
        start, stop = self.offsets[index], self.offsets[index + 1]
        cuts = np.searchsorted(self.columns.first[start:stop], boundaries, side="left")
        edges = [start] + (cuts + start).tolist() + [stop]
        return [self.columns.run_slice(a, b) for a, b in zip(edges, edges[1:])]


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
    """The filter cascade over the probes' run columns (counts accumulate
    on ``report``)."""
    candidates: List[ProbeData] = []
    for data in probes:
        if data.probe.has_bad_tag:
            report.dropped_bad_tag += 1
        elif data.v4_src_public or data.v6_src_mismatch:
            report.dropped_atypical_nat += 1
        else:
            candidates.append(data)

    v4 = _RoutedRuns([data.v4 for data in candidates], 4, table, report)
    v6 = _RoutedRuns([data.v6 for data in candidates], 6, table, report)
    reverting = (v4.reversions() >= reversion_threshold) | (
        v6.reversions() >= reversion_threshold
    )

    survivors: List[SanitizedProbe] = []
    for index, data in enumerate(candidates):
        if reverting[index]:
            report.dropped_multihomed += 1
            continue

        v4_sequence = v4.as_sequence(index)
        v6_sequence = v6.as_sequence(index)
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

        # Virtual-probe splitting: one piece per AS segment of the
        # probe's life.
        boundaries = [first for _asn, first in segments[1:]]
        pieces = zip(segments, v4.cut(index, boundaries), v6.cut(index, boundaries))
        if len(segments) > 1:
            report.virtual_probes_created += len(segments)
        raw_id = data.probe.probe_id
        for piece, ((asn, _first), piece_v4, piece_v6) in enumerate(pieces):
            v4_span, v6_span = columns_span(piece_v4), columns_span(piece_v6)
            if max(v4_span, v6_span) < min_span_hours:
                report.dropped_short += 1
                continue
            survivors.append(
                SanitizedProbe(
                    probe_id=str(raw_id) if len(segments) == 1 else f"{raw_id}#{piece}",
                    asn=asn,
                    dual_stack=v6_span >= min_span_hours and v4_span >= min_span_hours,
                    v4=piece_v4,
                    v6=piece_v6,
                    run_probe_id=raw_id,
                )
            )

    return survivors


__all__ = [
    "MIN_SPAN_HOURS",
    "REVERSION_THRESHOLD",
    "SanitizationReport",
    "SanitizedProbe",
    "sanitize",
]

"""Incremental Atlas analysis: per-probe state machines over run chunks.

:class:`AtlasStreamEngine` folds :class:`~repro.stream.chunks.RunChunk`
windows one at a time and keeps only bounded per-probe state — the last
run of each (probe, family) track, the pending merged /64 prefix run,
merged IPv6 coverage intervals, and per-network accumulators (duration
multisets, periodicity counters, CPL tallies, crossing counts).  Because
every batch artifact is a function of order-independent multisets and
exact integral-float sums, folding chunk-by-chunk reproduces the batch
``engine="fused"`` report *bit-identically* — any chunk size, with or
without a checkpoint/restore in the middle (the replay-parity tests and
:func:`repro.perf.verify.streaming_replay_diffs` enforce this).

Incremental semantics mirror the batch pipeline exactly:

* a **change** is emitted whenever a track receives a run whose value
  differs from the previous one (consecutive runs always differ);
* the previous run's **exact duration** is emitted when it was
  sandwiched — not the track's first run, and both boundary gaps zero;
* IPv6 runs are rekeyed to their /64 and merged across any gap before
  entering the v6 track (``v6_runs_to_prefix_runs`` semantics);
* an IPv4 duration joins the dual-stack population when the probe's
  IPv6 coverage of its span reaches 0.9 (``v6_coverage_fraction``); the
  decision is deferred in a pending queue until the coverage of the
  span is final (the *frontier* — the first hour at which new IPv6
  observations could still appear — has passed the span's end).

Chunk classification goes through the existing ``analysis_np`` kernels
(:func:`~repro.core.analysis_np.cpl_of_changes` and the routing-table
interval index), so per-chunk work is vectorized.
"""

from __future__ import annotations

import copy
import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import analysis_np as _anp
from repro.core.periodicity import CANONICAL_PERIODS
from repro.core.report import Table1Row, figure1_series
from repro.core.spatial import CplHistogram, CrossingRates
from repro.obs import get_logger, metric_inc, metric_observe, span
from repro.stream.chunks import RunChunk, StreamManifest

_log = get_logger("stream.engine")

#: Version of the engine's checkpoint payload layout.
STATE_VERSION = 1

_PLEN = 64
_LOW64 = (1 << 64) - 1

#: Probe-exhibits-period thresholds (periodicity.py defaults).
_MIN_PERIOD_COUNT = 3
_MIN_PERIOD_MASS = 0.5


@dataclass
class StreamStats:
    """Bookkeeping of one streaming pass (not part of parity)."""

    chunks_folded: int
    runs_seen: int
    next_chunk: int
    resumed_from_chunk: Optional[int] = None
    checkpoints_written: int = 0
    checkpoint_key: Optional[str] = None


@dataclass
class AtlasStreamResult:
    """Everything a finished streaming pass produces."""

    analysis: object  # repro.workloads.AtlasAnalysis
    v4_periods: Dict[str, float]
    v6_periods: Dict[str, float]
    stats: Optional[StreamStats] = None


def routing_table_digest(table) -> str:
    """Stable digest of a routing table's announced prefixes.

    Folded into checkpoint keys so a resume against a different table
    cannot silently mix crossing tallies.
    """
    if table is None:
        return "none"
    entries = sorted(
        (route.prefix.family, int(route.prefix.network), route.prefix.plen)
        for route in table.routes()
    )
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()


class AtlasStreamEngine:
    """Foldable, checkpointable equivalent of ``analyze_atlas_scenario``.

    Mutable state is kept as plain ints/dicts/Counters (no NumPy arrays,
    no address objects), so :meth:`state_dict` pickles compactly and the
    payload stays bounded by the probe population, not the stream
    length.
    """

    def __init__(
        self,
        manifest: StreamManifest,
        table=None,
        min_probes: int = 3,
        tolerance: float = 1.0,
        candidate_periods: Sequence[float] = CANONICAL_PERIODS,
        min_coverage: float = 0.9,
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.manifest = manifest
        self._table = table
        self._min_probes = min_probes
        self._tolerance = tolerance
        self._periods = tuple(float(p) for p in candidate_periods)
        self._min_coverage = min_coverage

        asn_to_net = {net.asn: i for i, net in enumerate(manifest.networks)}
        self._net_of: List[Optional[int]] = [
            asn_to_net.get(probe.asn) for probe in manifest.probes
        ]
        n_nets = len(manifest.networks)
        n_periods = len(self._periods)
        self._n_periods = n_periods

        # -- checkpointed state (plain picklable structures only) -----------
        self._next_chunk = 0
        self._runs_seen = 0
        self._tracks: Dict[Tuple[int, int], List[int]] = {}
        self._v6_pending: Dict[int, List[int]] = {}
        self._cov: Dict[int, List[List[int]]] = {}
        self._pending_ds: Dict[int, List[List[int]]] = {}
        self._durations = [
            {"v4_nds": Counter(), "v4_ds": Counter(), "v6": Counter()}
            for _ in range(n_nets)
        ]
        self._period_acc: List[Dict[str, Dict[int, list]]] = [
            {"v4": {}, "v6": {}} for _ in range(n_nets)
        ]
        self._cpl_counts = [Counter() for _ in range(n_nets)]
        self._cpl_pairs: List[set] = [set() for _ in range(n_nets)]
        # [v4_changes, v4_diff24, v4_diffbgp, v6_changes, v6_diffbgp]
        self._crossings = [[0, 0, 0, 0, 0] for _ in range(n_nets)]

        # -- transient (rebuilt, never checkpointed) ------------------------
        self._v4_buf: List[list] = [[] for _ in range(n_nets)]
        self._v6_buf: List[list] = [[] for _ in range(n_nets)]

    # -- properties ----------------------------------------------------------

    @property
    def next_chunk(self) -> int:
        """Index of the next chunk this engine expects to fold."""
        return self._next_chunk

    @property
    def runs_seen(self) -> int:
        return self._runs_seen

    def config_params(self) -> dict:
        """The parameters that define this engine's accumulation semantics."""
        return {
            "min_probes": self._min_probes,
            "tolerance": self._tolerance,
            "periods": list(self._periods),
            "min_coverage": self._min_coverage,
            "table": routing_table_digest(self._table),
            "plen": _PLEN,
        }

    # -- folding --------------------------------------------------------------

    def fold_chunk(self, chunk: RunChunk) -> None:
        """Fold one chunk's run events into the incremental state.

        IPv6 events fold before IPv4 events so every IPv6 run relevant
        to a completed IPv4 duration's dual-stack coverage has arrived
        by the time the pending queue drains at the end of the fold.
        """
        for first, ref, family, value, last in chunk.events:
            if family == 6:
                self._feed_v6(ref, value, first, last)
        for first, ref, family, value, last in chunk.events:
            if family == 4:
                self._feed_track(ref, 4, value, first, last)
        self._runs_seen += len(chunk.events)
        self._classify_buffers()
        self._drain_pending(chunk.end_hour, chunk.frontier, chunk.open_v6)
        self._prune_coverage(chunk)
        self._next_chunk = chunk.index + 1

    def _feed_v6(self, ref: int, value: int, first: int, last: int) -> None:
        if self._net_of[ref] is None:
            return
        intervals = self._cov.setdefault(ref, [])
        if intervals and first <= intervals[-1][1] + 1:
            if last > intervals[-1][1]:
                intervals[-1][1] = last
        else:
            intervals.append([first, last])
        prefix = value & ~_LOW64
        pending = self._v6_pending.get(ref)
        if pending is not None and pending[0] == prefix:
            pending[2] = last  # same /64 across any gap: one merged run
        else:
            if pending is not None:
                self._feed_track(ref, 6, pending[0], pending[1], pending[2])
            self._v6_pending[ref] = [prefix, first, last]

    def _feed_track(self, ref: int, pipe: int, value: int, first: int, last: int) -> None:
        net = self._net_of[ref]
        if net is None:
            return
        key = (ref, pipe)
        track = self._tracks.get(key)
        if track is None:
            self._tracks[key] = [value, first, last, 0, 1]
            return
        prev_value, prev_first, prev_last, prev_gap_ok, count = track
        gap_after = first - prev_last - 1
        buf = self._v6_buf[net] if pipe == 6 else self._v4_buf[net]
        buf.append((ref, prev_value, value))
        if count >= 2 and prev_gap_ok and gap_after <= 0:
            self._emit_duration(net, ref, pipe, prev_first, prev_last)
        track[0] = value
        track[1] = first
        track[2] = last
        track[3] = 1 if gap_after <= 0 else 0
        track[4] = count + 1

    def _emit_duration(self, net: int, ref: int, pipe: int, start: int, end: int) -> None:
        if pipe == 6:
            hours = end - start + 1
            self._durations[net]["v6"][hours] += 1
            self._accumulate_period(net, "v6", ref, hours)
        else:
            self._pending_ds.setdefault(ref, []).append([start, end])

    def _accumulate_period(self, net: int, fam_key: str, ref: int, hours: int) -> None:
        acc = self._period_acc[net][fam_key].get(ref)
        if acc is None:
            acc = [0, [0] * self._n_periods, [0] * self._n_periods]
            self._period_acc[net][fam_key][ref] = acc
        acc[0] += hours
        value = float(hours)
        for j, period in enumerate(self._periods):
            if abs(value - period) <= self._tolerance:
                acc[1][j] += 1
                acc[2][j] += hours

    # -- per-chunk vectorized classification ----------------------------------

    def _classify_buffers(self) -> None:
        for net, buf in enumerate(self._v4_buf):
            if not buf:
                continue
            old = np.array([o for _ref, o, _n in buf], dtype=np.uint64)
            new = np.array([n for _ref, _o, n in buf], dtype=np.uint64)
            tally = self._crossings[net]
            tally[0] += len(buf)
            tally[1] += int(np.count_nonzero((old ^ new) >> np.uint64(8)))
            if self._table is not None:
                tally[2] += int(np.count_nonzero(self._table.route_index(4).crosses(old, new)))
            self._v4_buf[net] = []
        for net, buf in enumerate(self._v6_buf):
            if not buf:
                continue
            refs = np.array([ref for ref, _o, _n in buf], dtype=np.int64)
            old_hi = np.array([o >> 64 for _ref, o, _n in buf], dtype=np.uint64)
            new_hi = np.array([n >> 64 for _ref, _o, n in buf], dtype=np.uint64)
            zeros_u = np.zeros(len(buf), dtype=np.uint64)
            zeros_i = np.zeros(len(buf), dtype=np.int64)
            changes = _anp.ChangeColumns(
                probe_index=refs,
                hour=zeros_i,
                old_hi=old_hi,
                old_lo=zeros_u,
                new_hi=new_hi,
                new_lo=zeros_u,
                boundary_gap=zeros_i,
            )
            cpls = _anp.cpl_of_changes(changes, _PLEN)
            self._cpl_counts[net].update(int(c) for c in cpls)
            pairs = self._cpl_pairs[net]
            for (ref, _o, _n), cpl in zip(buf, cpls):
                pairs.add((ref, int(cpl)))
            tally = self._crossings[net]
            tally[3] += len(buf)
            if self._table is not None:
                index = self._table.route_index(6, max_plen=_PLEN)
                tally[4] += int(np.count_nonzero(index.crosses(old_hi, new_hi)))
            self._v6_buf[net] = []

    # -- dual-stack classification --------------------------------------------

    def _coverage(
        self, ref: int, start: int, end: int, open_extent: Optional[Tuple[int, int]]
    ) -> float:
        covered = 0
        for a, b in self._cov.get(ref, ()):
            if a > end:
                break
            overlap = min(b, end) - max(a, start) + 1
            if overlap > 0:
                covered += overlap
        if open_extent is not None:
            overlap = min(open_extent[1], end) - max(open_extent[0], start) + 1
            if overlap > 0:
                covered += overlap
        span = end - start + 1
        return min(1.0, covered / span)

    def _drain_pending(
        self,
        default_frontier: float,
        frontier: Optional[Dict[int, int]],
        open_v6: Optional[Dict[int, Tuple[int, int]]],
    ) -> None:
        """Decide pending IPv4 durations whose coverage is final.

        A duration is dual-stack the moment coverage reaches the
        threshold (coverage only grows); it is non-dual-stack once the
        probe's IPv6 frontier has passed its end (no further overlap can
        appear).  Anything else stays pending.
        """
        for ref in list(self._pending_ds):
            net = self._net_of[ref]
            ref_frontier = default_frontier
            if frontier is not None and ref in frontier:
                ref_frontier = frontier[ref]
            open_extent = open_v6.get(ref) if open_v6 else None
            kept = []
            for start, end in self._pending_ds[ref]:
                fraction = self._coverage(ref, start, end, open_extent)
                hours = end - start + 1
                if fraction >= self._min_coverage:
                    self._durations[net]["v4_ds"][hours] += 1
                elif ref_frontier > end:
                    self._durations[net]["v4_nds"][hours] += 1
                    self._accumulate_period(net, "v4", ref, hours)
                else:
                    kept.append([start, end])
            if kept:
                self._pending_ds[ref] = kept
            else:
                del self._pending_ds[ref]

    def _prune_coverage(self, chunk: RunChunk) -> None:
        """Drop coverage intervals no future IPv4 duration can overlap."""
        open_v4 = chunk.open_v4 or {}
        for ref, intervals in self._cov.items():
            bounds = [chunk.end_hour]
            track = self._tracks.get((ref, 4))
            if track is not None:
                bounds.append(track[1])
            queue = self._pending_ds.get(ref)
            if queue:
                bounds.append(min(start for start, _end in queue))
            if ref in open_v4:
                bounds.append(open_v4[ref])
            needed_from = min(bounds)
            while intervals and intervals[0][1] < needed_from:
                intervals.pop(0)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of every checkpointed structure.

        The snapshot references live containers — serialize (pickle)
        before folding further chunks, or deep-copy first.
        """
        return {
            "state_version": STATE_VERSION,
            "next_chunk": self._next_chunk,
            "runs_seen": self._runs_seen,
            "tracks": self._tracks,
            "v6_pending": self._v6_pending,
            "cov": self._cov,
            "pending_ds": self._pending_ds,
            "durations": [
                {key: dict(counter) for key, counter in per_net.items()}
                for per_net in self._durations
            ],
            "period_acc": self._period_acc,
            "cpl_counts": [dict(counter) for counter in self._cpl_counts],
            "cpl_pairs": [sorted(pairs) for pairs in self._cpl_pairs],
            "crossings": self._crossings,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(f"unsupported stream state version {version!r}")
        self._next_chunk = state["next_chunk"]
        self._runs_seen = state["runs_seen"]
        self._tracks = {tuple(key): list(value) for key, value in state["tracks"].items()}
        self._v6_pending = {key: list(value) for key, value in state["v6_pending"].items()}
        self._cov = {
            key: [list(pair) for pair in value] for key, value in state["cov"].items()
        }
        self._pending_ds = {
            key: [list(pair) for pair in value]
            for key, value in state["pending_ds"].items()
        }
        self._durations = [
            {key: Counter(counts) for key, counts in per_net.items()}
            for per_net in state["durations"]
        ]
        self._period_acc = [
            {
                fam: {ref: [acc[0], list(acc[1]), list(acc[2])] for ref, acc in accs.items()}
                for fam, accs in per_net.items()
            }
            for per_net in state["period_acc"]
        ]
        self._cpl_counts = [Counter(counts) for counts in state["cpl_counts"]]
        self._cpl_pairs = [set(map(tuple, pairs)) for pairs in state["cpl_pairs"]]
        self._crossings = [list(tally) for tally in state["crossings"]]
        n_nets = len(self.manifest.networks)
        self._v4_buf = [[] for _ in range(n_nets)]
        self._v6_buf = [[] for _ in range(n_nets)]

    # -- finalization ---------------------------------------------------------

    def finalize(self) -> AtlasStreamResult:
        """Produce the batch-identical artifacts from the current state.

        The engine's state is restored afterwards, so a finished state
        can still be extended with further chunks and finalized again.
        """
        from repro.workloads import AtlasAnalysis

        saved = copy.deepcopy(self.state_dict())
        try:
            for ref in sorted(self._v6_pending):
                prefix, first, last = self._v6_pending[ref]
                self._feed_track(ref, 6, prefix, first, last)
            self._v6_pending.clear()
            self._classify_buffers()
            self._drain_pending(math.inf, None, None)

            table1 = {}
            table2 = {}
            figure1 = {}
            figure5 = {}
            v4_periods: Dict[str, float] = {}
            v6_periods: Dict[str, float] = {}
            probes_of = [[] for _ in self.manifest.networks]
            for ref, net in enumerate(self._net_of):
                if net is not None:
                    probes_of[net].append(ref)
            for net, info in enumerate(self.manifest.networks):
                refs = probes_of[net]
                all_v4 = ds_v4 = ds_v6 = ds_probes = 0
                for ref in refs:
                    v4_track = self._tracks.get((ref, 4))
                    v4_changes = v4_track[4] - 1 if v4_track else 0
                    all_v4 += v4_changes
                    if self.manifest.probes[ref].dual_stack:
                        ds_probes += 1
                        ds_v4 += v4_changes
                        v6_track = self._tracks.get((ref, 6))
                        ds_v6 += v6_track[4] - 1 if v6_track else 0
                table1[info.name] = Table1Row(
                    name=info.name,
                    asn=info.asn,
                    country=info.country,
                    all_probes=len(refs),
                    all_v4_changes=all_v4,
                    ds_probes=ds_probes,
                    ds_v4_changes=ds_v4,
                    ds_v6_changes=ds_v6,
                )
                if self._table is not None:
                    table2[info.name] = CrossingRates(*self._crossings[net])
                durations = self._durations[net]
                figure1[info.name] = {
                    "v4_nds": figure1_series(
                        f"{info.name} IPv4 non-dual-stack",
                        _expand(durations["v4_nds"]),
                        engine="fused",
                    ),
                    "v4_ds": figure1_series(
                        f"{info.name} IPv4 dual-stack",
                        _expand(durations["v4_ds"]),
                        engine="fused",
                    ),
                    "v6": figure1_series(
                        f"{info.name} IPv6", _expand(durations["v6"]), engine="fused"
                    ),
                }
                figure5[info.name] = CplHistogram(
                    changes_by_cpl=dict(sorted(self._cpl_counts[net].items())),
                    probes_by_cpl=_pair_histogram(self._cpl_pairs[net]),
                )
                period = self._consistent_period(self._period_acc[net]["v4"])
                if period is not None:
                    v4_periods[info.name] = period
                period = self._consistent_period(self._period_acc[net]["v6"])
                if period is not None:
                    v6_periods[info.name] = period
            analysis = AtlasAnalysis(
                engine="fused",
                table1=table1,
                table2=table2,
                figure1=figure1,
                figure5=figure5,
            )
            return AtlasStreamResult(
                analysis=analysis, v4_periods=v4_periods, v6_periods=v6_periods
            )
        finally:
            self.load_state(saved)

    def _consistent_period(self, accs: Dict[int, list]) -> Optional[float]:
        """First candidate period exhibited by >= ``min_probes`` probes.

        Replays the fused engine's per-network reduction of
        :func:`repro.core.analysis_np.probe_period_flags` from the
        integer accumulators: the mass ratio is the same exact float
        division the kernel performs (integral sums < 2**53).
        """
        exhibiting = [0] * self._n_periods
        for total, counts, masses in accs.values():
            if not total:
                continue
            for j in range(self._n_periods):
                if counts[j] >= _MIN_PERIOD_COUNT and masses[j] / total >= _MIN_PERIOD_MASS:
                    exhibiting[j] += 1
        for j, period in enumerate(self._periods):
            if exhibiting[j] >= self._min_probes:
                return float(period)
        return None


def _expand(counter: Counter) -> List[float]:
    """Expand a duration multiset into the float list Figure 1 consumes."""
    values: List[float] = []
    for hours in sorted(counter):
        values.extend([float(hours)] * counter[hours])
    return values


def _pair_histogram(pairs: set) -> Dict[int, int]:
    """(probe, cpl) pairs -> probes per CPL (Figure 5's second histogram)."""
    histogram = Counter(cpl for _ref, cpl in pairs)
    return dict(sorted(histogram.items()))


# -- drivers ------------------------------------------------------------------


def run_atlas_stream(
    source,
    chunk_hours: int,
    table=None,
    store=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after_chunks: Optional[int] = None,
    min_probes: int = 3,
    tolerance: float = 1.0,
    on_chunk=None,
) -> Optional[AtlasStreamResult]:
    """Stream ``source`` through an :class:`AtlasStreamEngine`.

    ``store`` (a :class:`repro.stream.checkpoint.CheckpointStore`)
    enables persistence: the engine state is saved every
    ``checkpoint_every`` chunks and after completion; ``resume=True``
    loads the latest matching checkpoint and skips already-folded
    chunks.  ``stop_after_chunks`` aborts the pass after that many
    folds (checkpointing first) and returns ``None`` — the
    kill/resume path the parity tests exercise.  ``on_chunk(engine,
    chunk)`` is called after every fold (benchmark instrumentation).
    """
    engine = AtlasStreamEngine(
        source.manifest, table=table, min_probes=min_probes, tolerance=tolerance
    )
    key = None
    resumed_from = None
    checkpoints = 0
    with span("analysis/stream", chunk_hours=chunk_hours) as stream_span:
        if store is not None:
            params = dict(engine.config_params(), chunk_hours=chunk_hours)
            key = store.key("atlas-stream", source.stream_id, params)
            if resume:
                state = store.load("atlas-stream", key)
                if state is not None:
                    engine.load_state(state)
                    resumed_from = engine.next_chunk
                    metric_inc("stream.resumes")
                    _log.info(
                        "stream resumed from checkpoint",
                        extra={"next_chunk": resumed_from, "key": key[:12]},
                    )
        folded = 0
        for chunk in source.chunks(chunk_hours, start_chunk=engine.next_chunk):
            fold_start = time.perf_counter()
            engine.fold_chunk(chunk)
            metric_observe("stream.chunk.seconds", time.perf_counter() - fold_start)
            folded += 1
            metric_inc("stream.chunks_processed")
            if on_chunk is not None:
                on_chunk(engine, chunk)
            at_checkpoint = (
                store is not None and checkpoint_every and folded % checkpoint_every == 0
            )
            if at_checkpoint:
                store.save("atlas-stream", key, engine.state_dict())
                checkpoints += 1
            if stop_after_chunks is not None and folded >= stop_after_chunks:
                if store is not None and not at_checkpoint:
                    store.save("atlas-stream", key, engine.state_dict())
                    checkpoints += 1
                stream_span.set(chunks=folded, stopped_early=True)
                _log.info(
                    "stream stopped early",
                    extra={"chunks": folded, "checkpoints": checkpoints},
                )
                return None
        result = engine.finalize()
        if store is not None:
            store.save("atlas-stream", key, engine.state_dict())
            checkpoints += 1
        metric_inc("stream.runs_seen", engine.runs_seen)
        stream_span.set(chunks=folded, runs=engine.runs_seen)
    _log.info(
        "stream pass complete",
        extra={
            "chunks": folded,
            "runs": engine.runs_seen,
            "resumed_from": resumed_from,
            "checkpoints": checkpoints,
        },
    )
    result.stats = StreamStats(
        chunks_folded=folded,
        runs_seen=engine.runs_seen,
        next_chunk=engine.next_chunk,
        resumed_from_chunk=resumed_from,
        checkpoints_written=checkpoints,
        checkpoint_key=key,
    )
    return result


__all__ = [
    "STATE_VERSION",
    "AtlasStreamEngine",
    "AtlasStreamResult",
    "StreamStats",
    "routing_table_digest",
    "run_atlas_stream",
]

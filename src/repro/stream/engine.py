"""Incremental Atlas analysis: a columnar fold over run chunks.

:class:`AtlasStreamEngine` folds :class:`~repro.stream.chunks.RunChunk`
windows one at a time and keeps only bounded state, all of it NumPy
arrays (see :data:`_STATE_ARRAYS`): per probe, the last run of each
family track, the pending merged /64 prefix run and the periodicity
accumulators; flat merged IPv6 coverage intervals; and per-network
accumulators (a sparse duration histogram, CPL tallies, crossing
counts).  Because every batch artifact is a function of
order-independent multisets and exact integral-float sums, folding
chunk-by-chunk reproduces the batch report of either engine
*bit-identically* — any chunk size, with or without a checkpoint/restore
in the middle (the replay-parity tests and
:func:`repro.perf.verify.stream_diffs` enforce this).

Incremental semantics mirror the batch pipeline exactly:

* a **change** is emitted whenever a track receives a run whose value
  differs from the previous one (consecutive runs always differ);
* the previous run's **exact duration** is emitted when it was
  sandwiched — not the track's first run, and both boundary gaps zero;
* IPv6 runs are rekeyed to their /64 and merged across any gap before
  entering the v6 track (``v6_runs_to_prefix_runs`` semantics);
* an IPv4 duration joins the dual-stack population when the probe's
  IPv6 coverage of its span reaches 0.9 (``v6_coverage_fraction``),
  decided in the fold that emits it.

Every chunk carries complete runs and the stream is sorted by ``first``
(the sources check this), which makes the immediate decision exact: a
sandwiched IPv4 run ends before the next run's ``first``, which is below
the chunk's ``end_hour``; any IPv6 run that overlaps it has ``first <=
end``, so in a ``first``-sorted stream it has already been folded.

Each fold works per family on the chunk's rows stably sorted by probe,
with each probe's carried row prepended, and runs the batch engine's
kernels from :mod:`repro.core.analysis_np`:
:func:`~repro.core.analysis_np.changes_and_durations` with the carried
rows' run counts and zero-gap flags gives every track's changes and
sandwiched durations; :func:`~repro.core.analysis_np.crossing_flags`
and :func:`~repro.core.analysis_np.cpl_of_changes` classify the
changes; :func:`~repro.core.analysis_np.dual_stack_mask` splits the
IPv4 durations over the merged coverage; and
:func:`~repro.core.analysis_np.period_tallies` feeds the periodicity
state.  No python loop runs per run, track, probe or interval.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import analysis_np as _anp
from repro.core.periodicity import CANONICAL_PERIODS
from repro.core.report import Table1Row, figure1_series
from repro.core.spatial import CplHistogram, CrossingRates
from repro.obs import get_logger, metric_inc, metric_observe, span
from repro.stream.chunks import RunChunk, StreamManifest

_log = get_logger("stream.engine")

#: Version of the engine's checkpoint payload layout.
STATE_VERSION = 3

_PLEN = 64
_N_CPL = _PLEN + 1  # CPL values 0..64

#: Duration kinds of the sparse histogram, with their Figure 1 keys and labels.
_V4_NDS, _V4_DS, _V6 = 0, 1, 2
_KIND_KEYS = ("v4_nds", "v4_ds", "v6")
_KIND_LABELS = ("IPv4 non-dual-stack", "IPv4 dual-stack", "IPv6")
_HOURS_BITS = 32

#: Columnar state (attribute ``_<name>`` -> ``(dtype, axes)``).  Axes
#: name the shape: ``F`` the two family tracks (row 0 IPv4, row 1 the
#: IPv6 /64 track), ``P`` probes, ``J`` candidate periods, ``N``
#: networks, ``C`` CPL values and ``X`` the five Table 2 tallies; an
#: empty axes string is a flat array that grows and shrinks per fold.
#:
#: * ``track_*`` — each track's last run: runs so far (0 = no track),
#:   value (IPv4 address or /64 upper bits), extent, and whether its
#:   boundary gap before was zero (half of the sandwiched rule);
#: * ``pend_*`` — the pending merged /64 run of each probe;
#: * ``period_*`` — per track and probe, the summed
#:   :func:`~repro.core.analysis_np.period_tallies` (IPv4
#:   non-dual-stack durations in row 0, IPv6 in row 1);
#: * ``cov_*`` — merged IPv6 coverage intervals, sorted by (probe, start);
#: * ``hist_key``/``hist_count`` — the duration histogram, sorted keys
#:   ``(network * 3 + kind) << 32 | hours``;
#: * ``cpl_counts`` — changes per network and CPL; ``cpl_pairs`` the
#:   sorted distinct ``probe * 65 + cpl`` codes;
#: * ``crossings`` — per network: v4 changes, v4 /24 crossings, v4 BGP
#:   crossings, v6 changes, v6 BGP crossings.
_STATE_ARRAYS = {
    "track_count": (np.int64, "FP"),
    "track_value": (np.uint64, "FP"),
    "track_first": (np.int64, "FP"),
    "track_last": (np.int64, "FP"),
    "track_gap_ok": (np.bool_, "FP"),
    "pend_live": (np.bool_, "P"),
    "pend_value": (np.uint64, "P"),
    "pend_first": (np.int64, "P"),
    "pend_last": (np.int64, "P"),
    "period_total": (np.int64, "FP"),
    "period_count": (np.int64, "FPJ"),
    "period_mass": (np.int64, "FPJ"),
    "cov_ref": (np.int64, ""),
    "cov_a": (np.int64, ""),
    "cov_b": (np.int64, ""),
    "hist_key": (np.int64, ""),
    "hist_count": (np.int64, ""),
    "cpl_counts": (np.int64, "NC"),
    "cpl_pairs": (np.int64, ""),
    "crossings": (np.int64, "NX"),
}


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


def _with_carry(carry: np.ndarray, carried: Sequence[np.ndarray], ref, *columns):
    """Rows of ``ref``/``columns`` with the ``carried`` row of each probe
    in ``carry`` prepended to that probe's rows, stably sorted by probe.
    With nothing carried (every pass's first fold) the columns come back
    as given."""
    if not len(carry):
        return (ref, *columns)
    order = np.argsort(np.concatenate((carry, ref)), kind="stable")
    return tuple(
        np.concatenate((held, column))[order]
        for held, column in zip((carry, *carried), (ref, *columns))
    )


class AtlasStreamEngine:
    """Foldable, checkpointable equivalent of ``analyze_atlas_scenario``.

    The state is the :data:`_STATE_ARRAYS` table of NumPy arrays (no
    python object per run or probe, no address objects), so
    :meth:`state_dict` pickles compactly and the payload stays bounded
    by the probe population, not the stream length.  Probes whose ASN
    is not one of the manifest's networks count towards
    :attr:`runs_seen` and are otherwise ignored.

    Chunks must carry complete runs, in ``first`` order across the
    stream: each IPv4 duration's dual-stack decision is then final in
    the fold that emits it (see the module docstring).
    """

    def __init__(
        self,
        manifest: StreamManifest,
        table=None,
        min_probes: int = 3,
        tolerance: float = 1.0,
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.manifest = manifest
        self._table = table
        self._min_probes = min_probes
        self._tolerance = tolerance

        asn_to_net = {net.asn: i for i, net in enumerate(manifest.networks)}
        self._net_of = np.array(
            [asn_to_net.get(probe.asn, -1) for probe in manifest.probes], dtype=np.int64
        )
        self._dual = np.array([probe.dual_stack for probe in manifest.probes], dtype=bool)
        self._n_probes = len(manifest.probes)
        self._dims = {
            "F": 2,
            "P": self._n_probes,
            "J": len(CANONICAL_PERIODS),
            "N": len(manifest.networks),
            "C": _N_CPL,
            "X": 5,
        }
        self._next_chunk = 0
        self._runs_seen = 0
        for name, (dtype, axes) in _STATE_ARRAYS.items():
            shape = tuple(self._dims[axis] for axis in axes) or (0,)
            setattr(self, f"_{name}", np.zeros(shape, dtype=dtype))

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
            "periods": list(CANONICAL_PERIODS),
            "min_coverage": _anp.MIN_V6_COVERAGE,
            "table": routing_table_digest(self._table),
            "plen": _PLEN,
        }

    # -- folding --------------------------------------------------------------

    def fold_chunk(self, chunk: RunChunk) -> None:
        """Fold one chunk's runs into the incremental state.

        Both families fold before the chunk's IPv4 durations are
        decided, so every IPv6 run that overlaps one has arrived.
        """
        featured = self._net_of[chunk.ref] >= 0
        runs = []
        for family in (4, 6):
            rows = np.flatnonzero(featured & (chunk.family == family))
            rows = rows[np.argsort(chunk.ref[rows], kind="stable")]
            ref, first, last = chunk.ref[rows], chunk.first[rows], chunk.last[rows]
            if family == 4:
                runs.append((ref, chunk.value_lo[rows], first, last))
            else:
                self._merge_coverage(ref, first, last)
                # The /64 of a 128-bit value is its upper half.
                runs.append(self._merge_prefixes(ref, chunk.value_hi[rows], first, last))
        self._runs_seen += len(chunk)
        self._fold(*runs)
        self._prune_coverage(chunk.end_hour)
        self._next_chunk = chunk.index + 1

    def _fold(self, v4_runs, v6_runs) -> None:
        """Step both tracks, then count their changes and durations.

        An IPv4 duration is dual-stack when the probe's IPv6 coverage
        intervals cover enough of its span
        (:func:`~repro.core.analysis_np.dual_stack_mask`).
        """
        changes4, durations4 = self._step_track(0, *v4_runs)
        changes6, durations6 = self._step_track(1, *v6_runs)
        self._record_changes(changes4, changes6)
        dual = _anp.dual_stack_mask(self._cov_ref, self._cov_a, self._cov_b, durations4)
        self._add_durations(
            np.concatenate((np.where(dual, _V4_DS, _V4_NDS), np.full(durations6.n_durations, _V6))),
            np.concatenate((durations4.probe_index, durations6.probe_index)),
            np.concatenate((durations4.hours(), durations6.hours())),
        )

    def _merge_coverage(self, ref, first, last) -> None:
        """Merge IPv6 runs into the coverage intervals.

        One lexsort orders old and new intervals by (probe, start); a
        new merged interval starts wherever a start lies more than one
        hour past the running reach of the probe's earlier intervals.
        """
        if not len(ref):
            return
        ref = np.concatenate((self._cov_ref, ref))
        a = np.concatenate((self._cov_a, first))
        b = np.concatenate((self._cov_b, last))
        order = np.lexsort((a, ref))
        ref, a, b = ref[order], a[order], b[order]
        # Offsetting hours by ref * span keeps one running maximum
        # monotone across probes, so it never reaches into the next one.
        span = int(b.max()) + 2
        reach = np.maximum.accumulate(ref * span + b)
        starts = np.ones(len(ref), dtype=bool)
        np.greater(ref[1:] * span + a[1:], reach[:-1] + 1, out=starts[1:])
        starts = np.flatnonzero(starts)
        self._cov_ref, self._cov_a = ref[starts], a[starts]
        self._cov_b = np.maximum.reduceat(b, starts)

    def _merge_prefixes(self, ref, prefix, first, last):
        """Merge each probe's /64 runs across any gap, starting from its
        pending run (rows sorted by probe, then time).

        Returns the merged runs that closed; each probe's last merged
        run becomes its new pending run.
        """
        if not len(ref):
            return ref, prefix, first, last
        carry = ref[_anp.group_heads(ref)]
        carry = carry[self._pend_live[carry]]
        held = (self._pend_value[carry], self._pend_first[carry], self._pend_last[carry])
        ref, prefix, first, last = _with_carry(carry, held, ref, prefix, first, last)
        starts = np.flatnonzero(_anp.group_heads(ref, prefix))
        ends = np.append(starts[1:], len(ref)) - 1
        ref, prefix, first, last = ref[starts], prefix[starts], first[starts], last[ends]
        pending = np.append(ref[1:] != ref[:-1], True)
        probes = ref[pending]
        self._pend_live[probes] = True
        self._pend_value[probes] = prefix[pending]
        self._pend_first[probes] = first[pending]
        self._pend_last[probes] = last[pending]
        closed = ~pending
        return ref[closed], prefix[closed], first[closed], last[closed]

    def _step_track(self, row: int, ref, value, first, last):
        """Append runs (sorted by probe, then time) to track ``row``.

        Each probe's carried last run is prepended, its runs so far and
        gap-ok flag passed as the kernel's carry
        (:func:`~repro.core.analysis_np.changes_and_durations`).  Returns
        the kernel's changes and exact durations; each probe's last row
        becomes its carried run.
        """
        count, values, firsts, lasts, gaps_ok = (
            getattr(self, f"_track_{name}")[row]
            for name in ("count", "value", "first", "last", "gap_ok")
        )
        carry = ref[_anp.group_heads(ref)]
        carry = carry[count[carry] > 0]
        fresh = len(ref)
        ref, value, first, last, runs, gap_ok = _with_carry(
            carry,
            (values[carry], firsts[carry], lasts[carry], count[carry], gaps_ok[carry]),
            ref, value, first, last,
            np.zeros(fresh, dtype=np.int64), np.zeros(fresh, dtype=bool),
        )
        # IPv4 addresses are low words, /64 prefixes high words.
        zero = np.zeros(len(ref), dtype=np.uint64)
        hi, lo = (zero, value) if row == 0 else (value, zero)
        changes, durations, (ends, runs, gap_ok) = _anp.changes_and_durations(
            ref, hi, lo, first, last, carry=(runs, gap_ok)
        )
        probes = ref[ends]
        count[probes] = runs
        values[probes] = value[ends]
        firsts[probes] = first[ends]
        lasts[probes] = last[ends]
        gaps_ok[probes] = gap_ok
        return changes, durations

    def _record_changes(self, changes4, changes6) -> None:
        """Count both tracks' changes per network: the CPL tallies of the
        /64 changes and, given a routing table, the Table 2 tallies."""
        n_nets = self._dims["N"]
        net4 = self._net_of[changes4.probe_index]
        net6 = self._net_of[changes6.probe_index]
        cpl = _anp.cpl_of_changes(changes6, _PLEN).astype(np.int64)
        self._cpl_counts += np.bincount(
            net6 * _N_CPL + cpl, minlength=n_nets * _N_CPL
        ).reshape(n_nets, _N_CPL)
        self._cpl_pairs = np.union1d(self._cpl_pairs, changes6.probe_index * _N_CPL + cpl)
        if self._table is not None:
            diff24, bgp4, bgp6 = _anp.crossing_flags(changes4, changes6, self._table, _PLEN)
            tallied = (net4, net4[diff24], net4[bgp4], net6, net6[bgp6])
            for column, nets in enumerate(tallied):
                self._crossings[:, column] += np.bincount(nets, minlength=n_nets)

    def _add_durations(self, kind, ref, hours) -> None:
        """Count durations into the histogram and, for IPv4
        non-dual-stack and IPv6 ones, the period tallies."""
        if not len(ref):
            return
        keys = ((self._net_of[ref] * 3 + kind) << _HOURS_BITS) | hours
        keys, slots = np.unique(np.concatenate((self._hist_key, keys)), return_inverse=True)
        weights = np.concatenate((self._hist_count, np.ones(len(ref), dtype=np.int64)))
        self._hist_key = keys
        self._hist_count = np.bincount(
            slots.ravel(), weights=weights, minlength=len(keys)
        ).astype(np.int64)
        periodic = kind != _V4_DS
        cell = (kind[periodic] == _V6) * self._n_probes + ref[periodic]
        tallies = _anp.period_tallies(
            hours[periodic], cell, 2 * self._n_probes, self._tolerance
        )
        # Integral float sums below 2**53 are exact, so the float tallies
        # cast back to the same integers.
        for name, tally in zip(("total", "count", "mass"), tallies):
            state = getattr(self, f"_period_{name}")
            state += tally.astype(np.int64).reshape(state.shape)

    def _prune_coverage(self, end_hour: int) -> None:
        """Drop coverage intervals no future IPv4 duration can overlap:
        those ending before the probe's ``needed_from`` — the earlier of
        the chunk end and its IPv4 track's last run's first hour."""
        if not len(self._cov_ref):
            return
        needed = np.full(self._n_probes, end_hour, dtype=np.int64)
        tracked = self._track_count[0] > 0
        np.minimum(needed, self._track_first[0], out=needed, where=tracked)
        keep = self._cov_b >= needed[self._cov_ref]
        self._cov_ref, self._cov_a, self._cov_b = (
            self._cov_ref[keep], self._cov_a[keep], self._cov_b[keep]
        )

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot of the state; owns copies, so later folds never alter it."""
        state = {name: getattr(self, f"_{name}").copy() for name in _STATE_ARRAYS}
        state.update(
            state_version=STATE_VERSION,
            next_chunk=self._next_chunk,
            runs_seen=self._runs_seen,
        )
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(f"unsupported stream state version {version!r}")
        for name, (dtype, axes) in _STATE_ARRAYS.items():
            array = np.array(state[name], dtype=dtype)
            if axes and array.shape != tuple(self._dims[axis] for axis in axes):
                raise ValueError(f"stream state {name!r} has shape {array.shape}")
            setattr(self, f"_{name}", array)
        self._next_chunk = state["next_chunk"]
        self._runs_seen = state["runs_seen"]

    # -- finalization ---------------------------------------------------------

    def finalize(self) -> AtlasStreamResult:
        """Produce the batch-identical artifacts from the current state.

        The pending /64 runs close and their IPv6 durations are counted;
        a snapshot taken first is then restored, so a finished state can
        still be extended with further chunks and finalized again.
        """
        saved = self.state_dict()
        try:
            held = np.flatnonzero(self._pend_live)
            self._pend_live[:] = False
            none = held[:0]  # no IPv4 runs
            self._fold(
                (none, self._pend_value[none], none, none),
                (held, self._pend_value[held], self._pend_first[held], self._pend_last[held]),
            )
            return self._artifacts()
        finally:
            self.load_state(saved)

    def _artifacts(self) -> AtlasStreamResult:
        """The report artifacts of a state with nothing pending."""
        from repro.workloads import AtlasAnalysis

        changes = np.maximum(self._track_count - 1, 0)
        hist_group = self._hist_key >> _HOURS_BITS
        hist_hours = (self._hist_key & ((1 << _HOURS_BITS) - 1)).astype(np.float64)
        pair_ref, pair_cpl = np.divmod(self._cpl_pairs, _N_CPL)
        pair_net = self._net_of[pair_ref]
        flags = [
            _anp.probe_period_flags(
                self._period_total[row], self._period_count[row], self._period_mass[row]
            )
            for row in (0, 1)
        ]
        table1, table2, figure1, figure5 = {}, {}, {}, {}
        v4_periods: Dict[str, float] = {}
        v6_periods: Dict[str, float] = {}
        for net, info in enumerate(self.manifest.networks):
            mine = self._net_of == net
            dual = mine & self._dual
            table1[info.name] = Table1Row(
                name=info.name,
                asn=info.asn,
                country=info.country,
                all_probes=int(np.count_nonzero(mine)),
                all_v4_changes=int(changes[0][mine].sum()),
                ds_probes=int(np.count_nonzero(dual)),
                ds_v4_changes=int(changes[0][dual].sum()),
                ds_v6_changes=int(changes[1][dual].sum()),
            )
            if self._table is not None:
                table2[info.name] = CrossingRates(*self._crossings[net].tolist())
            figure1[info.name] = {}
            for kind, (key, label) in enumerate(zip(_KIND_KEYS, _KIND_LABELS)):
                sel = hist_group == net * 3 + kind
                figure1[info.name][key] = figure1_series(
                    f"{info.name} {label}",
                    np.repeat(hist_hours[sel], self._hist_count[sel]),
                    engine="fused",
                )
            figure5[info.name] = CplHistogram(
                changes_by_cpl=_nonzero(self._cpl_counts[net]),
                probes_by_cpl=_nonzero(np.bincount(pair_cpl[pair_net == net], minlength=_N_CPL)),
            )
            for row, periods in enumerate((v4_periods, v6_periods)):
                period = _anp.consistent_period(flags[row][mine], self._min_probes)
                if period is not None:
                    periods[info.name] = period
        analysis = AtlasAnalysis(
            engine="fused", table1=table1, table2=table2, figure1=figure1, figure5=figure5
        )
        return AtlasStreamResult(analysis=analysis, v4_periods=v4_periods, v6_periods=v6_periods)


def _nonzero(counts: np.ndarray) -> Dict[int, int]:
    """A dense count array's nonzero entries as an ordered ``{index: count}``."""
    index = np.flatnonzero(counts)
    return dict(zip(index.tolist(), counts[index].tolist()))


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

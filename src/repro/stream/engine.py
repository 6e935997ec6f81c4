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
with each probe's carried row prepended: consecutive-row masks give the
changes, counts, gaps and sandwiched durations of every track at once,
and the changes are classified by one routing-index ``crosses`` call
and one :func:`~repro.core.analysis_np.cpl_of_changes` call.  No python
loop runs per run, track, probe or interval.
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

#: Probe-exhibits-period thresholds (periodicity.py defaults).
_MIN_PERIOD_COUNT = 3
_MIN_PERIOD_MASS = 0.5

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
#: * ``period_*`` — per track and probe, the total duration hours and
#:   the count and hours of durations within tolerance of each period
#:   (IPv4 non-dual-stack durations in row 0, IPv6 in row 1);
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


def _heads(keys: np.ndarray) -> np.ndarray:
    """True where a sorted key array starts a new run of equal keys."""
    heads = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=heads[1:])
    return heads


def _with_carry(carry: np.ndarray, carried: Sequence[np.ndarray], ref, *columns):
    """Rows of ``ref``/``columns`` with the ``carried`` row of each probe
    in ``carry`` prepended to that probe's rows, stably sorted by probe."""
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
        candidate_periods: Sequence[float] = CANONICAL_PERIODS,
        min_coverage: float = 0.9,
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.manifest = manifest
        self._table = table
        self._min_probes = min_probes
        self._tolerance = tolerance
        self._periods = np.array([float(p) for p in candidate_periods], dtype=np.float64)
        self._min_coverage = min_coverage

        asn_to_net = {net.asn: i for i, net in enumerate(manifest.networks)}
        self._net_of = np.array(
            [asn_to_net.get(probe.asn, -1) for probe in manifest.probes], dtype=np.int64
        )
        self._dual = np.array([probe.dual_stack for probe in manifest.probes], dtype=bool)
        self._n_probes = len(manifest.probes)
        self._dims = {
            "F": 2,
            "P": self._n_probes,
            "J": len(self._periods),
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
            "periods": self._periods.tolist(),
            "min_coverage": self._min_coverage,
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
        exact = []
        for row, family in enumerate((4, 6)):
            rows = np.flatnonzero(featured & (chunk.family == family))
            rows = rows[np.argsort(chunk.ref[rows], kind="stable")]
            ref, first, last = chunk.ref[rows], chunk.first[rows], chunk.last[rows]
            if row == 0:
                runs = (ref, chunk.value_lo[rows], first, last)
            else:
                self._merge_coverage(ref, first, last)
                # The /64 of a 128-bit value is its upper half.
                runs = self._merge_prefixes(ref, chunk.value_hi[rows], first, last)
            exact.append(self._step_track(row, *runs))
        self._runs_seen += len(chunk)
        self._settle(*exact)
        self._prune_coverage(chunk.end_hour)
        self._next_chunk = chunk.index + 1

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
        carry = ref[_heads(ref)]
        carry = carry[self._pend_live[carry]]
        held = (self._pend_value[carry], self._pend_first[carry], self._pend_last[carry])
        ref, prefix, first, last = _with_carry(carry, held, ref, prefix, first, last)
        starts = np.flatnonzero(_heads(ref) | _heads(prefix))
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

        Each probe's carried last run is prepended.  A row that follows
        another row of its probe is a change; that previous row is an
        exact duration when it was sandwiched — not its track's first
        run, and zero boundary gaps on both sides.  Returns the exact
        durations as ``(ref, start, end)``.
        """
        if not len(ref):
            return ref, first, last
        count, values, firsts, lasts, gaps_ok = (
            getattr(self, f"_track_{name}")[row]
            for name in ("count", "value", "first", "last", "gap_ok")
        )
        carry = ref[_heads(ref)]
        carry = carry[count[carry] > 0]
        fresh = len(ref)
        ref, value, first, last, base, gap_ok = _with_carry(
            carry,
            (values[carry], firsts[carry], lasts[carry], count[carry], gaps_ok[carry]),
            ref, value, first, last,
            np.zeros(fresh, dtype=np.int64), np.zeros(fresh, dtype=bool),
        )
        heads = _heads(ref)
        starts = np.flatnonzero(heads)
        lengths = np.diff(np.append(starts, len(ref)))
        # 1-based position of each row in its track.
        runs = np.repeat(np.maximum(base[starts], 1) - starts, lengths) + np.arange(len(ref))
        gap = np.zeros(len(ref), dtype=np.int64)
        gap[1:] = first[1:] - last[:-1] - 1
        gap_ok = np.where(heads, gap_ok, gap <= 0)
        changes = np.flatnonzero(~heads)
        prev = changes - 1
        self._record_changes(row, ref[changes], value[prev], value[changes])
        exact = prev[(runs[prev] >= 2) & gap_ok[prev] & (gap[changes] <= 0)]
        ends = np.append(starts[1:], len(ref)) - 1
        probes = ref[ends]
        count[probes] = runs[ends]
        values[probes] = value[ends]
        firsts[probes] = first[ends]
        lasts[probes] = last[ends]
        gaps_ok[probes] = gap_ok[ends]
        return ref[exact], first[exact], last[exact]

    def _record_changes(self, row: int, ref, old, new) -> None:
        """Classify one track row's changes and count them per network."""
        if not len(ref):
            return
        n_nets = self._dims["N"]
        net = self._net_of[ref]

        def per_net(mask=None):
            return np.bincount(net if mask is None else net[mask], minlength=n_nets)

        if row == 0:
            self._crossings[:, 0] += per_net()
            self._crossings[:, 1] += per_net(((old ^ new) >> np.uint64(8)) != 0)
            if self._table is not None:
                self._crossings[:, 2] += per_net(self._table.route_index(4).crosses(old, new))
            return
        # /64 values are upper halves; hours and gaps do not enter a CPL.
        low, unused = np.zeros(len(ref), dtype=np.uint64), np.zeros(len(ref), dtype=np.int64)
        changes = _anp.ChangeColumns(ref, unused, old, low, new, low, unused)
        cpl = _anp.cpl_of_changes(changes, _PLEN).astype(np.int64)
        self._cpl_counts += np.bincount(
            net * _N_CPL + cpl, minlength=n_nets * _N_CPL
        ).reshape(n_nets, _N_CPL)
        self._cpl_pairs = np.union1d(self._cpl_pairs, ref * _N_CPL + cpl)
        self._crossings[:, 3] += per_net()
        if self._table is not None:
            index = self._table.route_index(6, max_plen=_PLEN)
            self._crossings[:, 4] += per_net(index.crosses(old, new))

    def _settle(self, v4_exact, v6_exact) -> None:
        """Decide the IPv4 durations' dual-stack kind and count them and
        the IPv6 durations in one histogram merge.

        A duration is dual-stack when the probe's IPv6 coverage of its
        span reaches ``min_coverage``.
        """
        ref, start, end = v4_exact
        hours = end - start + 1
        dual = np.minimum(1.0, self._covered(ref, start, end) / hours) >= self._min_coverage
        v6_ref, v6_start, v6_end = v6_exact
        self._add_durations(
            np.concatenate((np.where(dual, _V4_DS, _V4_NDS), np.full(len(v6_ref), _V6))),
            np.concatenate((ref, v6_ref)),
            np.concatenate((hours, v6_end - v6_start + 1)),
        )

    def _add_durations(self, kind, ref, hours) -> None:
        """Count durations into the histogram and, for IPv4
        non-dual-stack and IPv6 ones, the period accumulators."""
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
        hours = hours[periodic]
        n_cells, n_periods = 2 * self._n_probes, self._dims["J"]
        # Integral float sums below 2**53 are exact, so bincount's
        # float weights cast back to the same integers.
        self._period_total += np.bincount(
            cell, weights=hours, minlength=n_cells
        ).astype(np.int64).reshape(self._period_total.shape)
        near = np.abs(hours[:, None].astype(np.float64) - self._periods) <= self._tolerance
        hit, period = np.nonzero(near)
        cells = cell[hit] * n_periods + period
        self._period_count += np.bincount(
            cells, minlength=n_cells * n_periods
        ).reshape(self._period_count.shape)
        self._period_mass += np.bincount(
            cells, weights=hours[hit], minlength=n_cells * n_periods
        ).astype(np.int64).reshape(self._period_mass.shape)

    # -- dual-stack classification --------------------------------------------

    def _covered(self, ref, start, end) -> np.ndarray:
        """Hours of ``[start, end]`` each probe's coverage intervals cover.

        One prefix sum over all intervals, keyed ``probe * span + hour``
        so a single ``searchsorted`` answers "covered hours up to x" for
        every query; the intervals of earlier probes land in both
        endpoint queries and cancel in the difference.
        """
        cov_ref, a, b = self._cov_ref, self._cov_a, self._cov_b
        n = len(a)
        if not n or not len(ref):
            return np.zeros(len(ref), dtype=np.int64)
        span = int(max(b.max(), end.max())) + 3
        last_keys = cov_ref * span + b + 1
        first_keys = cov_ref * span + a + 1
        cumulative = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(b - a + 1, out=cumulative[1:])

        def covered_up_to(x):
            query = ref * span + x + 1
            position = np.searchsorted(last_keys, query, side="right")
            clipped = np.minimum(position, n - 1)
            partial = (position < n) & (first_keys[clipped] <= query)
            return cumulative[position] + np.where(partial, x - a[clipped] + 1, 0)

        return covered_up_to(end) - covered_up_to(start - 1)

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
            ref, first, last = self._step_track(
                1, held, self._pend_value[held], self._pend_first[held], self._pend_last[held]
            )
            self._pend_live[:] = False
            self._add_durations(np.full(len(ref), _V6), ref, last - first + 1)
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
                period = self._consistent_period(row, mine)
                if period is not None:
                    periods[info.name] = period
        analysis = AtlasAnalysis(
            engine="fused", table1=table1, table2=table2, figure1=figure1, figure5=figure5
        )
        return AtlasStreamResult(analysis=analysis, v4_periods=v4_periods, v6_periods=v6_periods)

    def _consistent_period(self, row: int, mine: np.ndarray) -> Optional[float]:
        """First candidate period exhibited by >= ``min_probes`` probes.

        Replays the fused engine's per-network reduction of
        :func:`repro.core.analysis_np.probe_period_flags` from the
        integer accumulators: the mass ratio is the same exact float
        division the kernel performs (integral sums < 2**53).
        """
        total = self._period_total[row][mine]
        live = total > 0
        counts = self._period_count[row][mine][live]
        ratio = self._period_mass[row][mine][live] / total[live][:, None]
        exhibiting = np.count_nonzero(
            (counts >= _MIN_PERIOD_COUNT) & (ratio >= _MIN_PERIOD_MASS), axis=0
        )
        found = np.flatnonzero(exhibiting >= self._min_probes)
        return float(self._periods[found[0]]) if len(found) else None


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

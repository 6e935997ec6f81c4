"""The Atlas measurement platform: turns subscriber timelines into echo data.

:class:`AtlasPlatform` hosts a set of simulated networks (ISP +
subscriber timelines) and "deploys" probes onto subscriber lines
according to :class:`ProbeSpec`.  For each probe it produces IP echo
data in two equivalent encodings — hourly :class:`EchoRecord` streams
and run-length runs.  Runs are stored as per-family run columns
(:class:`ProbeData`); :class:`EchoRun` lists are built from them only
when read.

The platform also injects the deployment anomalies Appendix A.1 is
designed to catch:

``test_prefix``
    The probe reports RIPE NCC's test address (193.0.0.78) for its
    first hours, as probes did before shipping to volunteers.
``public_v4_src``
    The probe is not behind a NAT: its IPv4 ``src_addr`` equals its
    public address ("atypical NAT" filter).
``v6_src_mismatch``
    The probe's IPv6 ``src_addr`` differs from the echoed address.
``multihomed``
    The probe flaps between two upstream networks.
``as_move``
    The probe's owner switches ISP mid-deployment (handled by virtual
    probe splitting, not filtering).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.echo import (
    TEST_ADDRESS,
    EchoRecord,
    EchoRun,
    merge_adjacent_equal,
)
from repro.atlas.probe import Probe
from repro.core.analysis_np import RunColumns, columns_from_runs, runs_from_columns
from repro.core.engine import resolve_engine
from repro.ip.addr import IPAddress, IPv4Address, IPv6Address
from repro.netsim.cpe import eui64_iid
from repro.netsim.isp import Isp
from repro.netsim.sim import IntervalColumns, SubscriberTimeline
from repro.obs import metric_inc, telemetry_enabled

_M64 = (1 << 64) - 1

ANOMALIES = ("none", "test_prefix", "public_v4_src", "v6_src_mismatch", "multihomed", "as_move")

#: Constant RFC 1918 source address reported by typical NATed probes.
_PRIVATE_SRC = IPv4Address.parse("192.168.1.2")
#: ULA source reported by probes with mismatching IPv6 configuration.
_ULA_SRC = IPv6Address.parse("fd00::2")

Segment = Tuple[int, int, IPAddress]  # [start_hour, end_hour) reporting value
Window = Tuple[int, int]  # [start_hour, end_hour) of observation


IID_MODES = ("eui64", "privacy")


@dataclass(frozen=True)
class ProbeSpec:
    """Where and how one probe is deployed.

    ``iid_mode`` selects the host part of the probe's IPv6 addresses:
    ``"eui64"`` (stable MAC-derived, the real RIPE Atlas behaviour) or
    ``"privacy"`` (RFC 4941 temporary IIDs rotated every
    ``iid_rotation_hours``).
    """

    probe_id: int
    asn: int
    subscriber_id: int
    tags: Tuple[str, ...] = field(default_factory=tuple)
    join_hour: int = 0
    leave_hour: Optional[int] = None
    anomaly: str = "none"
    secondary: Optional[Tuple[int, int]] = None  # (asn, subscriber_id)
    mean_up_hours: float = 2500.0
    mean_down_hours: float = 10.0
    iid_mode: str = "eui64"
    iid_rotation_hours: int = 7 * 24

    def __post_init__(self) -> None:
        if self.anomaly not in ANOMALIES:
            raise ValueError(f"unknown anomaly {self.anomaly!r}; expected one of {ANOMALIES}")
        if self.anomaly in ("multihomed", "as_move") and self.secondary is None:
            raise ValueError(f"anomaly {self.anomaly!r} requires a secondary attachment")
        if self.iid_mode not in IID_MODES:
            raise ValueError(f"unknown iid_mode {self.iid_mode!r}; expected one of {IID_MODES}")
        if self.iid_rotation_hours < 1:
            raise ValueError("iid_rotation_hours must be >= 1")


class EchoColumns:
    """One probe's echo runs stored as per-family run columns.

    ``v4``/``v6`` are one-probe :class:`repro.core.analysis_np.RunColumns`
    packs (``first``, ``last``, ``observed``, ``max_gap``, ``value_hi``,
    ``value_lo``, in time order).  ``v4_runs``/``v6_runs`` are the same
    runs as :class:`EchoRun` lists, built on first read and cached; they
    never enter comparisons or pickles, so reading them changes nothing
    a pack, a key or a cache entry sees.  Equality compares columns
    value by value.
    """

    #: Attributes besides the columns that equality compares.
    _compared: Tuple[str, ...] = ()

    v4: RunColumns
    v6: RunColumns
    #: The integer probe id every materialized run carries.
    run_probe_id: int

    def _set_columns(
        self,
        v4: Optional[RunColumns],
        v6: Optional[RunColumns],
        v4_runs: Optional[Sequence[EchoRun]],
        v6_runs: Optional[Sequence[EchoRun]],
    ) -> None:
        """Store the columns, packing (and keeping) run lists when given."""
        for family, columns, runs in ((4, v4, v4_runs), (6, v6, v6_runs)):
            if runs is None:
                columns = columns if columns is not None else _probe_columns(_EMPTY_RUN_ARRAYS)
            elif columns is not None:
                raise TypeError(f"pass v{family} columns or v{family}_runs, not both")
            else:
                runs = list(runs)
                columns = columns_from_runs(
                    [runs], value_type=IPv4Address if family == 4 else IPv6Address
                )
                self.__dict__[f"v{family}_runs"] = runs
            setattr(self, f"v{family}", columns)

    @cached_property
    def v4_runs(self) -> List[EchoRun]:
        """The IPv4 runs as :class:`EchoRun` objects (built on demand)."""
        return runs_from_columns(self.v4, self.run_probe_id, 4)

    @cached_property
    def v6_runs(self) -> List[EchoRun]:
        """The IPv6 runs as :class:`EchoRun` objects (built on demand)."""
        return runs_from_columns(self.v6, self.run_probe_id, 6)

    @property
    def v4_span(self) -> int:
        """Hours from the first to the last IPv4 observation (0: none)."""
        return columns_span(self.v4)

    @property
    def v6_span(self) -> int:
        """Hours from the first to the last IPv6 observation (0: none)."""
        return columns_span(self.v6)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            all(getattr(self, name) == getattr(other, name) for name in self._compared)
            and self.v4 == other.v4
            and self.v6 == other.v6
        )

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("v4_runs", None)
        state.pop("v6_runs", None)
        return state

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        runs = f"v4={self.v4.n_runs} runs, v6={self.v6.n_runs} runs"
        return f"{type(self).__name__}({fields}, {runs})"


class ProbeData(EchoColumns):
    """One probe's collected echo data: metadata plus ``v4``/``v6`` run columns.

    Collection fills the run columns ``v4``/``v6``; callers building
    one by hand may pass ``v4_runs``/``v6_runs`` lists instead, which
    are packed into the columns.
    """

    _compared = ("probe", "spec", "v4_src_public", "v6_src_mismatch")

    def __init__(
        self,
        probe: Probe,
        spec: ProbeSpec,
        v4_runs: Optional[Sequence[EchoRun]] = None,
        v6_runs: Optional[Sequence[EchoRun]] = None,
        v4_src_public: bool = False,
        v6_src_mismatch: bool = False,
        *,
        v4: Optional[RunColumns] = None,
        v6: Optional[RunColumns] = None,
    ) -> None:
        self.probe = probe
        self.spec = spec
        self.v4_src_public = v4_src_public
        self.v6_src_mismatch = v6_src_mismatch
        self._set_columns(v4, v6, v4_runs, v6_runs)

    @property
    def run_probe_id(self) -> int:
        """The probe's integer id, carried by each of its runs."""
        return self.probe.probe_id


class AtlasPlatform:
    """Deploys probes on simulated networks and measures them hourly."""

    def __init__(
        self,
        networks: Dict[int, Tuple[Isp, Dict[int, SubscriberTimeline]]],
        end_hour: int,
        seed: int = 0,
    ) -> None:
        if end_hour <= 0:
            raise ValueError("end_hour must be positive")
        self._networks = networks
        self.end_hour = int(end_hour)
        self._seed = seed
        # Per-(asn, subscriber, family) packed timeline intervals for the
        # columnar collection path; derived data, dropped on pickling.
        self._packed_intervals: Dict[Tuple[int, int, int], "_PackedIntervals"] = {}

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        state["_packed_intervals"] = {}
        return state

    # -- deployment helpers ------------------------------------------------

    def _rng_for(self, spec: ProbeSpec) -> random.Random:
        return random.Random((self._seed << 24) ^ (spec.probe_id * 2654435761 % (1 << 31)))

    def _timeline(self, asn: int, subscriber_id: int) -> SubscriberTimeline:
        isp, timelines = self._networks[asn]
        del isp
        return timelines[subscriber_id]

    def _leave(self, spec: ProbeSpec) -> int:
        leave = self.end_hour if spec.leave_hour is None else min(spec.leave_hour, self.end_hour)
        if leave <= spec.join_hour:
            raise ValueError(
                f"probe {spec.probe_id}: leave hour {leave} <= join hour {spec.join_hour}"
            )
        return leave

    # -- observation windows -------------------------------------------------

    def observation_windows(self, spec: ProbeSpec) -> List[Window]:
        """Hours during which the probe was up, as [start, end) int ranges.

        Probe uptime follows an alternating renewal process (exponential
        up-times, exponential down-times), quantized to whole hours.
        """
        rng = self._rng_for(spec)
        join, leave = spec.join_hour, self._leave(spec)
        windows: List[Window] = []
        now = float(join)
        while now < leave:
            up = rng.expovariate(1.0 / spec.mean_up_hours)
            window_start = int(-(-now // 1))  # ceil
            window_end = min(int(-(-(now + up) // 1)), leave)
            if window_end > window_start:
                windows.append((window_start, window_end))
            now += up
            now += rng.expovariate(1.0 / spec.mean_down_hours)
        return _normalize_windows(windows, leave)

    # -- assignment segments ---------------------------------------------------

    def _segments_for(
        self, spec: ProbeSpec, family: int, rng: random.Random
    ) -> List[Segment]:
        """The value the probe would report at each hour, as segments."""
        segments = self._base_segments_for(spec, family, rng)
        if family == 6 and spec.iid_mode == "privacy":
            segments = _rotate_privacy_iids(segments, spec)
        return segments

    def _base_segments_for(
        self, spec: ProbeSpec, family: int, rng: random.Random
    ) -> List[Segment]:
        join, leave = spec.join_hour, self._leave(spec)
        # Uplink flaps and ISP moves are physical events: they hit both
        # address families at the same instant, so their times come from
        # a dedicated per-probe stream (identical for family 4 and 6).
        event_rng = random.Random((self._seed << 20) ^ (spec.probe_id * 0x9E3779B1) ^ 0xA5)
        if spec.anomaly == "multihomed":
            attachments = [(spec.asn, spec.subscriber_id), spec.secondary]
            segments: List[Segment] = []
            now = join
            active = 0
            while now < leave:
                flap = max(1, int(event_rng.expovariate(1.0 / 36.0)))
                window_end = min(now + flap, leave)
                segments.extend(
                    self._clip_timeline(attachments[active], family, now, window_end, spec)
                )
                active = 1 - active
                now = window_end
            return segments
        if spec.anomaly == "as_move":
            switch = join + max(1, int((leave - join) * (0.3 + 0.4 * event_rng.random())))
            first = self._clip_timeline((spec.asn, spec.subscriber_id), family, join, switch, spec)
            second = self._clip_timeline(spec.secondary, family, switch, leave, spec)
            return first + second
        segments = self._clip_timeline((spec.asn, spec.subscriber_id), family, join, leave, spec)
        if spec.anomaly == "test_prefix" and family == 4:
            test_until = min(join + 24 * (3 + rng.randrange(5)), leave)
            segments = [(join, test_until, TEST_ADDRESS)] + [
                (max(start, test_until), end, value)
                for start, end, value in segments
                if end > test_until
            ]
        return segments

    def _clip_timeline(
        self,
        attachment: Tuple[int, int],
        family: int,
        clip_start: int,
        clip_end: int,
        spec: ProbeSpec,
    ) -> List[Segment]:
        asn, subscriber_id = attachment
        timeline = self._timeline(asn, subscriber_id)
        intervals = timeline.v4 if family == 4 else timeline.v6_lan
        segments: List[Segment] = []
        for interval in intervals:
            start = max(_ceil(interval.start), clip_start)
            end = min(_ceil(interval.end), clip_end)
            if end <= start:
                continue
            if family == 4:
                value: IPAddress = interval.value
            else:
                iid = eui64_iid((spec.probe_id * 0x10001 + asn) & ((1 << 48) - 1))
                value = IPv6Address(int(interval.value.network) | iid)
            segments.append((start, end, value))
        return segments

    # -- outputs -----------------------------------------------------------------

    def probe_data(self, spec: ProbeSpec, engine: Optional[str] = None) -> ProbeData:
        """Run-length-encoded echo data plus probe metadata.

        Dispatched through the analysis-engine knob: the ``"fused"`` fast
        path clips packed timeline-interval arrays with searchsorted slices
        and run-length-encodes them with vectorized window intersection
        — bit-identical runs, identical RNG draw order — instead of the
        per-interval Python loops of the reference path.
        """
        if resolve_engine(engine) == "py":
            return self._record_collection(spec, self._probe_data_py(spec))
        return self._record_collection(spec, self._probe_data_np(spec))

    def _record_collection(self, spec: ProbeSpec, data: ProbeData) -> ProbeData:
        """Tally per-probe collection telemetry (no-op when disabled)."""
        if telemetry_enabled():
            metric_inc("collection.probes_collected")
            metric_inc("collection.records_generated", data.v4.n_runs + data.v6.n_runs)
            if spec.anomaly != "none":
                metric_inc("collection.anomalies", kind=spec.anomaly)
        return data

    def _probe_data_py(self, spec: ProbeSpec) -> ProbeData:
        """Pure-Python reference collection path."""
        rng = self._rng_for(spec)
        windows = self.observation_windows(spec)
        rng_segments = random.Random(rng.getrandbits(32))
        timeline = self._timeline(spec.asn, spec.subscriber_id)
        dual_stack = timeline.dual_stack

        v4_segments = self._segments_for(spec, 4, rng_segments)
        v4_runs = _segments_to_runs(spec.probe_id, 4, v4_segments, windows)
        v6_runs: List[EchoRun] = []
        if dual_stack:
            v6_segments = self._segments_for(spec, 6, rng_segments)
            v6_runs = _segments_to_runs(spec.probe_id, 6, v6_segments, windows)

        probe = Probe(
            probe_id=spec.probe_id, asn=spec.asn, tags=spec.tags, dual_stack=dual_stack
        )
        return ProbeData(
            probe=probe,
            spec=spec,
            v4_runs=v4_runs,
            v6_runs=v6_runs,
            v4_src_public=spec.anomaly == "public_v4_src",
            v6_src_mismatch=spec.anomaly == "v6_src_mismatch",
        )

    def _probe_data_np(self, spec: ProbeSpec) -> ProbeData:
        """Columnar collection path (same RNG stream as the reference)."""
        rng = self._rng_for(spec)
        windows = self.observation_windows(spec)
        rng_segments = random.Random(rng.getrandbits(32))
        timeline = self._timeline(spec.asn, spec.subscriber_id)
        dual_stack = timeline.dual_stack

        v4 = _probe_columns(self._run_arrays_for(spec, 4, rng_segments, windows))
        v6 = _probe_columns(
            self._run_arrays_for(spec, 6, rng_segments, windows)
            if dual_stack
            else _EMPTY_RUN_ARRAYS
        )

        probe = Probe(
            probe_id=spec.probe_id, asn=spec.asn, tags=spec.tags, dual_stack=dual_stack
        )
        return ProbeData(
            probe=probe,
            spec=spec,
            v4=v4,
            v6=v6,
            v4_src_public=spec.anomaly == "public_v4_src",
            v6_src_mismatch=spec.anomaly == "v6_src_mismatch",
        )

    # -- columnar collection internals ------------------------------------

    def _packed_for(self, asn: int, subscriber_id: int, family: int) -> "_PackedIntervals":
        key = (asn, subscriber_id, family)
        packed = self._packed_intervals.get(key)
        if packed is None:
            timeline = self._timeline(asn, subscriber_id)
            packed = _PackedIntervals.from_columns(
                timeline.columns("v4" if family == 4 else "v6_lan"), family
            )
            self._packed_intervals[key] = packed
        return packed

    def _clip_arrays_for(
        self,
        attachment: Tuple[int, int],
        family: int,
        clip_start: int,
        clip_end: int,
        spec: ProbeSpec,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Array form of :meth:`_clip_timeline`: (starts, ends, hi, lo)."""
        asn, subscriber_id = attachment
        packed = self._packed_for(asn, subscriber_id, family)
        low = int(np.searchsorted(packed.cend, clip_start, side="right"))
        high = int(np.searchsorted(packed.cstart, clip_end, side="left"))
        starts = np.maximum(packed.cstart[low:high], clip_start)
        ends = np.minimum(packed.cend[low:high], clip_end)
        keep = ends > starts
        value_hi = packed.value_hi[low:high][keep]
        value_lo = packed.value_lo[low:high][keep]
        if family == 6:
            iid = eui64_iid((spec.probe_id * 0x10001 + asn) & ((1 << 48) - 1))
            value_lo = value_lo | np.uint64(iid)
        return starts[keep], ends[keep], value_hi, value_lo

    def _segment_arrays_for(
        self, spec: ProbeSpec, family: int, rng: random.Random
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Array form of :meth:`_segments_for`, same event-RNG stream."""
        if family == 6 and spec.iid_mode == "privacy":
            # Privacy-IID rotation is inherently per-segment; reuse the
            # reference segmentation and pack its output.
            return _pack_segments(self._segments_for(spec, family, rng))
        join, leave = spec.join_hour, self._leave(spec)
        event_rng = random.Random((self._seed << 20) ^ (spec.probe_id * 0x9E3779B1) ^ 0xA5)
        if spec.anomaly == "multihomed":
            attachments = [(spec.asn, spec.subscriber_id), spec.secondary]
            parts = []
            now = join
            active = 0
            while now < leave:
                flap = max(1, int(event_rng.expovariate(1.0 / 36.0)))
                window_end = min(now + flap, leave)
                parts.append(
                    self._clip_arrays_for(attachments[active], family, now, window_end, spec)
                )
                active = 1 - active
                now = window_end
            return tuple(np.concatenate(column) for column in zip(*parts))
        if spec.anomaly == "as_move":
            switch = join + max(1, int((leave - join) * (0.3 + 0.4 * event_rng.random())))
            first = self._clip_arrays_for((spec.asn, spec.subscriber_id), family, join, switch, spec)
            second = self._clip_arrays_for(spec.secondary, family, switch, leave, spec)
            return tuple(np.concatenate(column) for column in zip(first, second))
        starts, ends, value_hi, value_lo = self._clip_arrays_for(
            (spec.asn, spec.subscriber_id), family, join, leave, spec
        )
        if spec.anomaly == "test_prefix" and family == 4:
            test_until = min(join + 24 * (3 + rng.randrange(5)), leave)
            keep = ends > test_until
            starts = np.maximum(starts[keep], test_until)
            ends = ends[keep]
            value_hi = value_hi[keep]
            value_lo = value_lo[keep]
            starts = np.concatenate((np.array([join], dtype=np.int64), starts))
            ends = np.concatenate((np.array([test_until], dtype=np.int64), ends))
            value_hi = np.concatenate((np.zeros(1, dtype=np.uint64), value_hi))
            value_lo = np.concatenate(
                (np.array([int(TEST_ADDRESS)], dtype=np.uint64), value_lo)
            )
        return starts, ends, value_hi, value_lo

    def _run_arrays_for(
        self,
        spec: ProbeSpec,
        family: int,
        rng: random.Random,
        windows: Sequence[Window],
    ) -> Tuple[np.ndarray, ...]:
        """Merged run arrays (first, last, observed, max_gap, hi, lo)."""
        segments = self._segment_arrays_for(spec, family, rng)
        return _merge_equal_run_arrays(*_segments_to_run_arrays(*segments, windows))

    def hourly_records(self, spec: ProbeSpec) -> Iterator[EchoRecord]:
        """Full-fidelity hourly echo records (both families, hour-major)."""
        rng = self._rng_for(spec)
        windows = self.observation_windows(spec)
        rng_segments = random.Random(rng.getrandbits(32))
        timeline = self._timeline(spec.asn, spec.subscriber_id)

        v4_segments = self._segments_for(spec, 4, rng_segments)
        v6_segments = (
            self._segments_for(spec, 6, rng_segments) if timeline.dual_stack else []
        )
        v4_cursor = _SegmentCursor(v4_segments)
        v6_cursor = _SegmentCursor(v6_segments)
        for window_start, window_end in windows:
            for hour in range(window_start, window_end):
                v4_value = v4_cursor.value_at(hour)
                if v4_value is not None:
                    src = v4_value if spec.anomaly == "public_v4_src" else _PRIVATE_SRC
                    yield EchoRecord(spec.probe_id, hour, 4, v4_value, src)
                v6_value = v6_cursor.value_at(hour)
                if v6_value is not None:
                    src = _ULA_SRC if spec.anomaly == "v6_src_mismatch" else v6_value
                    yield EchoRecord(spec.probe_id, hour, 6, v6_value, src)


class _SegmentCursor:
    """Monotone lookup of the segment value covering increasing hours."""

    def __init__(self, segments: Sequence[Segment]) -> None:
        self._segments = segments
        self._index = 0

    def value_at(self, hour: int) -> Optional[IPAddress]:
        while self._index < len(self._segments) and self._segments[self._index][1] <= hour:
            self._index += 1
        if self._index < len(self._segments):
            start, _end, value = self._segments[self._index]
            if start <= hour:
                return value
        return None


def _privacy_iid(probe_id: int, rotation_index: int) -> int:
    """Deterministic RFC 4941-style temporary IID for one rotation period."""
    rng = random.Random((probe_id << 32) ^ rotation_index ^ 0x4941)
    while True:
        iid = rng.getrandbits(64)
        # Avoid the (2^-16) chance of impersonating an EUI-64 shape and
        # the all-zero/small-integer ranges.
        if (iid >> 24) & 0xFFFF != 0xFFFE and iid >= (1 << 16):
            return iid


def _rotate_privacy_iids(segments: List[Segment], spec: ProbeSpec) -> List[Segment]:
    """Split v6 segments at IID-rotation boundaries with fresh IIDs."""
    rotation = spec.iid_rotation_hours
    rotated: List[Segment] = []
    prefix_mask = ~((1 << 64) - 1)
    for start, end, value in segments:
        prefix_bits = int(value) & prefix_mask
        cursor = start
        while cursor < end:
            index = (cursor - spec.join_hour) // rotation
            boundary = spec.join_hour + (index + 1) * rotation
            piece_end = min(end, boundary)
            iid = _privacy_iid(spec.probe_id, index)
            rotated.append((cursor, piece_end, IPv6Address(prefix_bits | iid)))
            cursor = piece_end
    return rotated


def _ceil(x: float) -> int:
    return int(-(-x // 1))


def _normalize_windows(windows: List[Window], limit: int) -> List[Window]:
    """Sort, clip, and merge overlapping/adjacent windows."""
    merged: List[Window] = []
    for start, end in sorted(windows):
        start, end = max(0, start), min(end, limit)
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _intersect(start: int, end: int, windows: Sequence[Window]) -> List[Window]:
    """Subranges of [start, end) covered by the observation windows."""
    result: List[Window] = []
    for window_start, window_end in windows:
        if window_end <= start:
            continue
        if window_start >= end:
            break
        result.append((max(start, window_start), min(end, window_end)))
    return result


# -- columnar collection helpers ----------------------------------------------


@dataclass
class _PackedIntervals:
    """One subscriber timeline's intervals, hour-ceiled and packed."""

    cstart: np.ndarray  # int64, ceil(interval.start)
    cend: np.ndarray  # int64, ceil(interval.end)
    value_hi: np.ndarray  # uint64
    value_lo: np.ndarray  # uint64 (v6: network low bits, IID OR'd in later)

    @classmethod
    def from_columns(cls, columns: IntervalColumns, family: int) -> "_PackedIntervals":
        """Pack one timeline family's columns for searchsorted clipping.

        Raises ``ValueError`` on out-of-order intervals, which the simulator
        never produces; only the reference path (``engine="py"``) accepts them.
        """
        cstart = np.ceil(columns.start).astype(np.int64)
        cend = np.ceil(columns.end).astype(np.int64)
        if np.any(cstart[1:] < cstart[:-1]) or np.any(cend[1:] < cend[:-1]):
            raise ValueError("timeline intervals are not time-ordered")
        zeros = np.zeros(len(columns.value), dtype=np.uint64)
        if family == 4:
            return cls(cstart=cstart, cend=cend, value_hi=zeros, value_lo=columns.value)
        return cls(cstart=cstart, cend=cend, value_hi=columns.value, value_lo=zeros)


def _pack_segments(
    segments: Sequence[Segment],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack reference (start, end, value) segments into column arrays."""
    count = len(segments)
    starts = np.fromiter((s for s, _, _ in segments), dtype=np.int64, count=count)
    ends = np.fromiter((e for _, e, _ in segments), dtype=np.int64, count=count)
    values = [int(value) for _, _, value in segments]
    value_hi = np.fromiter((v >> 64 for v in values), dtype=np.uint64, count=count)
    value_lo = np.fromiter((v & _M64 for v in values), dtype=np.uint64, count=count)
    return starts, ends, value_hi, value_lo


_EMPTY_RUN_ARRAYS: Tuple[np.ndarray, ...] = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.uint64),
    np.empty(0, dtype=np.uint64),
)


def _segments_to_run_arrays(
    seg_starts: np.ndarray,
    seg_ends: np.ndarray,
    value_hi: np.ndarray,
    value_lo: np.ndarray,
    windows: Sequence[Window],
) -> Tuple[np.ndarray, ...]:
    """Vectorized :func:`_segments_to_runs` minus the final merge.

    For each segment, two searchsorteds find the first/last overlapping
    observation window; ``observed`` is a prefix-sum difference with the
    two outer windows' clipped edges subtracted, and ``max_gap`` is the
    maximum inter-window gap fully inside the segment's window range
    (clipping never changes interior gaps).
    """
    if len(seg_starts) == 0 or not windows:
        return _EMPTY_RUN_ARRAYS
    window_count = len(windows)
    wstart = np.fromiter((w[0] for w in windows), dtype=np.int64, count=window_count)
    wend = np.fromiter((w[1] for w in windows), dtype=np.int64, count=window_count)
    cumlen = np.zeros(window_count + 1, dtype=np.int64)
    np.cumsum(wend - wstart, out=cumlen[1:])

    first_window = np.searchsorted(wend, seg_starts, side="right")
    last_window = np.searchsorted(wstart, seg_ends, side="left") - 1
    keep = last_window >= first_window
    starts = seg_starts[keep]
    ends = seg_ends[keep]
    a = first_window[keep]
    b = last_window[keep]

    first = np.maximum(starts, wstart[a])
    last = np.minimum(ends, wend[b]) - 1
    observed = (
        cumlen[b + 1]
        - cumlen[a]
        - np.maximum(0, starts - wstart[a])
        - np.maximum(0, wend[b] - ends)
    )
    max_gap = np.zeros(len(starts), dtype=np.int64)
    gaps = wstart[1:] - wend[:-1]
    for index in range(window_count - 1):
        inside = (a <= index) & (index < b)
        np.maximum(max_gap, np.where(inside, gaps[index], 0), out=max_gap)
    return first, last, observed, max_gap, value_hi[keep], value_lo[keep]


def _merge_equal_run_arrays(
    first: np.ndarray,
    last: np.ndarray,
    observed: np.ndarray,
    max_gap: np.ndarray,
    value_hi: np.ndarray,
    value_lo: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Vectorized :func:`repro.atlas.echo.merge_adjacent_equal` for one
    probe's run arrays (summed ``observed``, gap-absorbing ``max_gap``)."""
    count = len(first)
    if count == 0:
        return _EMPTY_RUN_ARRAYS
    same_as_previous = np.zeros(count, dtype=bool)
    same_as_previous[1:] = (value_hi[1:] == value_hi[:-1]) & (value_lo[1:] == value_lo[:-1])
    group_starts = np.flatnonzero(~same_as_previous)
    group_ends = np.append(group_starts[1:], count) - 1
    join_gap = np.zeros(count, dtype=np.int64)
    join_gap[1:] = first[1:] - last[:-1] - 1
    candidate = np.where(same_as_previous, np.maximum(max_gap, join_gap), max_gap)
    return (
        first[group_starts],
        last[group_ends],
        np.add.reduceat(observed, group_starts),
        np.maximum.reduceat(candidate, group_starts),
        value_hi[group_starts],
        value_lo[group_starts],
    )


def _probe_columns(arrays: Tuple[np.ndarray, ...]) -> RunColumns:
    """One probe's merged run arrays (first, last, observed, max_gap,
    hi, lo) as a one-probe :class:`RunColumns` pack."""
    first, last, observed, max_gap, value_hi, value_lo = arrays
    return RunColumns(
        offsets=np.array([0, len(first)], dtype=np.int64),
        value_hi=np.asarray(value_hi, dtype=np.uint64),
        value_lo=np.asarray(value_lo, dtype=np.uint64),
        first=np.asarray(first, dtype=np.int64),
        last=np.asarray(last, dtype=np.int64),
        observed=np.asarray(observed, dtype=np.int64),
        max_gap=np.asarray(max_gap, dtype=np.int64),
    )


def columns_span(columns: RunColumns) -> int:
    """Hours from a one-probe pack's first observation to its last
    (0 when it has no runs)."""
    if columns.n_runs == 0:
        return 0
    return int(columns.last[-1]) - int(columns.first[0]) + 1


def _segments_to_runs(
    probe_id: int,
    family: int,
    segments: Sequence[Segment],
    windows: Sequence[Window],
) -> List[EchoRun]:
    runs: List[EchoRun] = []
    for start, end, value in segments:
        observed = _intersect(start, end, windows)
        if not observed:
            continue
        first = observed[0][0]
        last = observed[-1][1] - 1
        total = sum(b - a for a, b in observed)
        max_gap = 0
        for (_, left_end), (right_start, _) in zip(observed, observed[1:]):
            max_gap = max(max_gap, right_start - left_end)
        runs.append(
            EchoRun(
                probe_id=probe_id,
                family=family,
                value=value,
                first=first,
                last=last,
                observed=total,
                max_gap=max_gap,
            )
        )
    return list(merge_adjacent_equal(runs))


__all__ = ["ANOMALIES", "AtlasPlatform", "EchoColumns", "ProbeData", "ProbeSpec", "columns_span"]

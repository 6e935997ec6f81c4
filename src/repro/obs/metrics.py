"""Process-global metrics: labeled counters, gauges and histograms.

The registry is a plain dict machine with no background threads and no
third-party dependencies.  Instruments are addressed by a dotted name
plus optional labels (``registry.inc("cache.hits")``,
``registry.inc("sanitize.probes_dropped", reason="bad_tag")``); every
labeled increment also feeds the instrument's unlabeled total, so
dashboards can read ``sanitize.probes_dropped`` without enumerating
label sets.

Snapshots are plain JSON-ready dicts, and two snapshots can be
subtracted (:func:`subtract_snapshots`) or merged back into a registry
(:meth:`MetricsRegistry.merge`) — the mechanism
:mod:`repro.perf.parallel` uses to ship worker-process metrics back to
the parent across the process-pool boundary.

Instrument semantics:

* **counter** — monotonically increasing float/int sum;
* **gauge** — last-written value (merge keeps the incoming value);
* **histogram** — count/sum/min/max plus buckets.  By default buckets
  are base-2 exponent tallies (bucket ``k`` holds observations in
  ``[2**k, 2**(k+1))``); a histogram declared with explicit bounds via
  :meth:`MetricsRegistry.declare_histogram` instead keeps
  **cumulative** buckets keyed by float upper bound (Prometheus ``le``
  semantics: bucket ``b`` counts every observation ``<= b``, with a
  ``+Inf`` bound always present).  Cumulative storage keeps merge and
  subtract plain bucket-wise addition/subtraction, so the fork-safe
  worker-delta round trip holds for both kinds.

Every write, snapshot and merge takes one per-registry lock, so the
threads of a serving process (``repro serve`` runs one per connection)
can update and read one registry without losing increments.

Label cardinality is capped per instrument (``max_label_sets``, default
64): once an instrument has that many distinct labeled series, further
new label sets collapse into a single ``overflow`` series — unbounded
per-probe/per-shard labels cannot grow a long-lived serve process's
memory without bound.  The key ``"overflow"`` cannot collide with a
real label set because encoded label keys always contain ``=``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Sequence, Tuple

LabelKey = Tuple[str, ...]

#: Series key absorbing label sets beyond an instrument's cardinality cap.
OVERFLOW_LABEL = "overflow"

#: Default cap on distinct labeled series per instrument.
DEFAULT_MAX_LABEL_SETS = 64


def _label_key(labels: Dict[str, object]) -> str:
    """Stable ``k=v,k2=v2`` encoding of one label set ("" when empty)."""
    if not labels:
        return ""
    return ",".join(f"{key}={labels[key]}" for key in sorted(labels))


def _bucket(value: float) -> int:
    """Base-2 exponent bucket of a non-negative observation."""
    if value <= 0:
        return -1074  # subnormal floor: everything <= 0 shares one bucket
    return math.frexp(value)[1] - 1


class MetricsRegistry:
    """Counters, gauges and histograms addressed by name + labels."""

    def __init__(self, max_label_sets: int = DEFAULT_MAX_LABEL_SETS) -> None:
        self.max_label_sets = max_label_sets
        self._counters: Dict[str, Dict[str, float]] = {}
        self._gauges: Dict[str, Dict[str, float]] = {}
        self._histograms: Dict[str, Dict[str, dict]] = {}
        self._bounds: Dict[str, Tuple[float, ...]] = {}
        self._lock = threading.Lock()

    def _admit(self, series: dict, key: str) -> str:
        """``key``, or ``overflow`` once the instrument hit its label cap."""
        if not key or key in series:
            return key
        labeled = sum(1 for existing in series if existing and existing != OVERFLOW_LABEL)
        if labeled < self.max_label_sets:
            return key
        return OVERFLOW_LABEL

    # -- instruments ----------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` to counter ``name`` (and its labeled series)."""
        with self._lock:
            series = self._counters.setdefault(name, {"": 0})
            series[""] = series.get("", 0) + value
            if labels:
                key = self._admit(series, _label_key(labels))
                series[key] = series.get(key, 0) + value

    def register(self, name: str) -> None:
        """Ensure counter ``name`` exists (at zero) in every snapshot."""
        with self._lock:
            self._counters.setdefault(name, {"": 0})

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            series = self._gauges.setdefault(name, {})
            series[self._admit(series, _label_key(labels))] = value

    def declare_histogram(self, name: str, bounds: Sequence[float]) -> None:
        """Give histogram ``name`` explicit cumulative bucket bounds.

        ``bounds`` are upper edges in seconds (or any unit); they are
        sorted and a ``+Inf`` edge is appended if missing.  Every later
        :meth:`observe` of ``name`` tallies into cumulative ``le``
        buckets instead of base-2 exponent buckets.  Redeclaring with
        identical bounds is a no-op; changing bounds after observations
        exist raises, because existing cumulative tallies cannot be
        re-bucketed.
        """
        with self._lock:
            edges = sorted(float(bound) for bound in bounds)
            if not edges or edges[-1] != math.inf:
                edges.append(math.inf)
            declared = tuple(edges)
            existing = self._bounds.get(name)
            if existing is not None and existing != declared:
                if name in self._histograms:
                    raise ValueError(
                        f"histogram {name!r} already has observations with bounds {existing}"
                    )
            self._bounds[name] = declared

    def histogram_bounds(self, name: str) -> Optional[Tuple[float, ...]]:
        """Declared cumulative bounds of ``name`` (None → base-2 buckets)."""
        return self._bounds.get(name)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into histogram ``name``."""
        with self._lock:
            series = self._histograms.setdefault(name, {})
            key = self._admit(series, _label_key(labels))
            bounds = self._bounds.get(name)
            data = series.get(key)
            if data is None:
                data = series[key] = {
                    "count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {},
                }
                if bounds is not None:
                    data["bounds"] = list(bounds)
                    data["buckets"] = {bound: 0 for bound in bounds}
            data["count"] += 1
            data["sum"] += value
            data["min"] = value if data["min"] is None else min(data["min"], value)
            data["max"] = value if data["max"] is None else max(data["max"], value)
            buckets = data["buckets"]
            if bounds is not None:
                # Cumulative ``le`` semantics: every bound >= value counts it.
                for bound in bounds:
                    if value <= bound:
                        buckets[bound] += 1
            else:
                bucket = _bucket(value)
                buckets[bucket] = buckets.get(bucket, 0) + 1

    # -- reads ----------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, {}).get(_label_key(labels), 0)

    def gauge(self, name: str, **labels) -> Optional[float]:
        """Current value of gauge ``name`` (None when never set)."""
        return self._gauges.get(name, {}).get(_label_key(labels))

    def snapshot(self) -> dict:
        """JSON-ready copy of every instrument's current state."""
        with self._lock:
            return {
                "counters": {
                    name: dict(series) for name, series in self._counters.items()
                },
                "gauges": {name: dict(series) for name, series in self._gauges.items()},
                "histograms": {
                    name: {
                        key: {**data, "buckets": dict(data["buckets"])}
                        for key, data in series.items()
                    }
                    for name, series in self._histograms.items()
                },
            }

    # -- cross-process plumbing -----------------------------------------------

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram tallies add; gauges take the incoming
        value (the child observed it later).  ``None`` merges nothing,
        so call sites can pass worker deltas through unconditionally.
        """
        if not snapshot:
            return
        with self._lock:
            for name, series in snapshot.get("counters", {}).items():
                target = self._counters.setdefault(name, {"": 0})
                for key, value in series.items():
                    key = self._admit(target, key)
                    target[key] = target.get(key, 0) + value
            for name, series in snapshot.get("gauges", {}).items():
                target = self._gauges.setdefault(name, {})
                for key, value in series.items():
                    target[self._admit(target, key)] = value
            for name, series in snapshot.get("histograms", {}).items():
                target = self._histograms.setdefault(name, {})
                for key, data in series.items():
                    key = self._admit(target, key)
                    mine = target.get(key)
                    if mine is None:
                        target[key] = {**data, "buckets": dict(data["buckets"])}
                        continue
                    mine["count"] += data["count"]
                    mine["sum"] += data["sum"]
                    for edge in ("min", "max"):
                        theirs = data[edge]
                        if theirs is not None:
                            pick = min if edge == "min" else max
                            mine[edge] = (
                                theirs if mine[edge] is None else pick(mine[edge], theirs)
                            )
                    # Cumulative (bounded) and exponent buckets both merge by
                    # plain bucket-wise addition.
                    for bucket, count in data["buckets"].items():
                        mine["buckets"][bucket] = mine["buckets"].get(bucket, 0) + count

    def reset(self) -> None:
        """Drop every instrument (used when (re-)enabling telemetry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._bounds.clear()


def subtract_snapshots(after: dict, before: dict) -> dict:
    """The metric activity between two snapshots of one registry.

    Counter and histogram tallies subtract (series absent from
    ``before`` pass through); gauges keep the ``after`` value.  This is
    how a forked worker — whose registry starts as a copy of the
    parent's — reports only *its own* work back across the pool.
    """
    delta: dict = {"counters": {}, "gauges": dict(after.get("gauges", {})), "histograms": {}}
    for name, series in after.get("counters", {}).items():
        base = before.get("counters", {}).get(name, {})
        out = {
            key: value - base.get(key, 0)
            for key, value in series.items()
            if value - base.get(key, 0)
        }
        if out:
            delta["counters"][name] = out
    for name, series in after.get("histograms", {}).items():
        base = before.get("histograms", {}).get(name, {})
        out = {}
        for key, data in series.items():
            prior = base.get(key)
            if prior is None:
                out[key] = {**data, "buckets": dict(data["buckets"])}
                continue
            count = data["count"] - prior["count"]
            if not count:
                continue
            out[key] = {
                "count": count,
                "sum": data["sum"] - prior["sum"],
                # Extremes are not invertible from two snapshots; the
                # after-side bounds still bound the delta's observations.
                "min": data["min"],
                "max": data["max"],
                # Cumulative (bounded) and exponent buckets both subtract
                # bucket-wise; declared-bound buckets keep zero tallies so
                # the delta's bucket grid matches its declaration.
                "buckets": {
                    bucket: tally - prior["buckets"].get(bucket, 0)
                    for bucket, tally in data["buckets"].items()
                    if "bounds" in data or tally - prior["buckets"].get(bucket, 0)
                },
            }
            if "bounds" in data:
                out[key]["bounds"] = list(data["bounds"])
        if out:
            delta["histograms"][name] = out
    return delta


__all__ = [
    "DEFAULT_MAX_LABEL_SETS",
    "MetricsRegistry",
    "OVERFLOW_LABEL",
    "subtract_snapshots",
]

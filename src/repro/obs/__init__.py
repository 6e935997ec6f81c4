"""Unified telemetry: tracing spans, a metrics registry, structured logs.

One process-global :class:`TelemetryState` owns a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer`.  Instrumented code calls the guarded
module-level helpers — :func:`span`, :func:`metric_inc`,
:func:`metric_observe`, :func:`metric_gauge` — which are **no-ops while
telemetry is disabled** (a single attribute check, no allocation), so
hot paths can be instrumented unconditionally: the benchmarked overhead
of the disabled fast path is within noise, and enabling telemetry never
touches RNG draw order or artifact bytes
(:func:`repro.perf.verify.telemetry_invariance_diffs` enforces this).

Enabling:

* ``REPRO_TELEMETRY=1`` in the environment (read at import and by
  worker processes), or
* :func:`enable_telemetry` / the :func:`telemetry` context manager, or
* the CLI's ``--telemetry PATH`` flag, which also dumps the full span
  tree + metrics snapshot as JSON on exit.

Structured logging (:mod:`repro.obs.log`) is independent of the
metrics/tracing switch: ``repro.*`` loggers always exist and are wired
to ``-v``/``-q``/``$REPRO_LOG`` by :func:`~repro.obs.log.configure_logging`.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Optional

from repro.obs.log import (
    LOG_ENV,
    KeyValueFormatter,
    configure_logging,
    get_logger,
    level_from_env,
    level_from_verbosity,
)
from repro.obs.metrics import MetricsRegistry, subtract_snapshots
from repro.obs.trace import Span, Tracer

#: Environment switch: truthy values enable metrics + tracing at import.
TELEMETRY_ENV = "REPRO_TELEMETRY"

_TRUTHY = ("1", "true", "yes", "on")

#: Headline counters pre-registered at zero on enable, so every
#: telemetry dump carries them even when a stage never ran.
CORE_COUNTERS = (
    "collection.records_generated",
    "sanitize.probes_dropped",
    "cache.hits",
    "cache.misses",
    "stream.chunks_processed",
    "pool.tasks",
)

#: Latency histograms declared with explicit cumulative bucket bounds on
#: enable (seconds; a ``+Inf`` edge is appended automatically).  The
#: grid spans 100µs to ~1 minute, wide enough for serve queries, stream
#: chunk folds and store shard kernels alike, and identical in every
#: process so fork-shipped worker deltas merge bucket-for-bucket.
LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 15.0, 60.0,
)

LATENCY_HISTOGRAMS = (
    "serve.query.seconds",
    "serve.batch.seconds",
    "stream.chunk.seconds",
    "store.shard.seconds",
)


class TelemetryState:
    """The process-global enabled flag + registry + tracer triple."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self) -> None:
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


_STATE = TelemetryState()


class _NoopSpan:
    """Reusable do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


def telemetry_enabled() -> bool:
    """Whether metrics and tracing are currently recording."""
    return _STATE.enabled


def enable_telemetry(reset: bool = False) -> TelemetryState:
    """Turn metrics + tracing on (``reset=True`` clears prior data)."""
    if reset:
        _STATE.registry.reset()
        _STATE.tracer.reset()
    for name in CORE_COUNTERS:
        _STATE.registry.register(name)
    for name in LATENCY_HISTOGRAMS:
        _STATE.registry.declare_histogram(name, LATENCY_BOUNDS)
    _STATE.enabled = True
    return _STATE


def disable_telemetry() -> None:
    """Stop recording (already-collected spans/metrics are retained)."""
    _STATE.enabled = False


class telemetry:
    """Context manager temporarily toggling telemetry (tests, verify)."""

    def __init__(self, enabled: bool = True, reset: bool = False) -> None:
        self._target = enabled
        self._reset = reset
        self._previous = False

    def __enter__(self) -> TelemetryState:
        self._previous = _STATE.enabled
        if self._target:
            enable_telemetry(reset=self._reset)
        else:
            disable_telemetry()
        return _STATE

    def __exit__(self, exc_type, exc, tb) -> bool:
        _STATE.enabled = self._previous
        return False


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (live even when disabled)."""
    return _STATE.registry


def get_tracer() -> Tracer:
    """The process-global tracer (live even when disabled)."""
    return _STATE.tracer


# -- guarded fast-path helpers (the only calls on hot paths) ------------------


def span(name: str, **attrs):
    """Open a traced span, or a shared no-op when telemetry is off."""
    if not _STATE.enabled:
        return _NOOP_SPAN
    return _STATE.tracer.span(name, **attrs)


def transient_span(name: str, **attrs):
    """:func:`span` whose finished root the tracer does not keep.

    See :meth:`~repro.obs.trace.Tracer.transient_span`: the caller owns
    the tree (e.g. a bounded flight recorder), so a long-lived server
    does not accumulate one root per request.
    """
    if not _STATE.enabled:
        return _NOOP_SPAN
    return _STATE.tracer.transient_span(name, **attrs)


def metric_inc(name: str, value: float = 1, **labels) -> None:
    """Increment a counter (no-op while telemetry is disabled)."""
    if _STATE.enabled:
        _STATE.registry.inc(name, value, **labels)


def metric_observe(name: str, value: float, **labels) -> None:
    """Record a histogram observation (no-op while disabled)."""
    if _STATE.enabled:
        _STATE.registry.observe(name, value, **labels)


def metric_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge (no-op while telemetry is disabled)."""
    if _STATE.enabled:
        _STATE.registry.set_gauge(name, value, **labels)


# -- exports ------------------------------------------------------------------


def telemetry_snapshot() -> dict:
    """JSON-ready dump of the span trees + metrics collected so far."""
    return {
        "enabled": _STATE.enabled,
        "trace_id": _STATE.tracer.trace_id,
        "spans": _STATE.tracer.as_dicts(),
        "metrics": _STATE.registry.snapshot(),
    }


def dump_telemetry(path, extra: Optional[dict] = None) -> Path:
    """Write :func:`telemetry_snapshot` (plus ``extra`` keys) to ``path``.

    Crash-safe: the payload lands in a same-directory temp file first
    and is moved into place with an atomic ``os.replace`` (the
    ``CheckpointStore`` durability contract), so an interrupted dump
    never leaves a truncated JSON document at ``path``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = telemetry_snapshot()
    if extra:
        payload.update(extra)
    scratch = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        scratch.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(scratch, target)
    finally:
        if scratch.exists():
            scratch.unlink()
    return target


def export_trace(stage: str, path=None) -> Path:
    """Write the collected span trees as ``trace_<stage>.jsonl``.

    Defaults to ``benchmarks/results/trace_<stage>.jsonl`` under the
    repository root (CWD when the package is installed outside a
    checkout — see :func:`repro.perf.timing.repo_root`).
    """
    if path is None:
        from repro.perf.timing import repo_root

        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", stage).strip("_") or "trace"
        path = repo_root() / "benchmarks" / "results" / f"trace_{slug}.jsonl"
    return _STATE.tracer.export_jsonl(path)


if os.environ.get(TELEMETRY_ENV, "").strip().lower() in _TRUTHY:
    enable_telemetry()


__all__ = [
    "CORE_COUNTERS",
    "LATENCY_BOUNDS",
    "LATENCY_HISTOGRAMS",
    "LOG_ENV",
    "TELEMETRY_ENV",
    "KeyValueFormatter",
    "MetricsRegistry",
    "Span",
    "TelemetryState",
    "Tracer",
    "configure_logging",
    "disable_telemetry",
    "dump_telemetry",
    "enable_telemetry",
    "export_trace",
    "get_logger",
    "get_registry",
    "get_tracer",
    "level_from_env",
    "level_from_verbosity",
    "metric_gauge",
    "metric_inc",
    "metric_observe",
    "span",
    "subtract_snapshots",
    "telemetry",
    "telemetry_enabled",
    "telemetry_snapshot",
    "transient_span",
]

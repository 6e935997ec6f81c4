"""Size-bounded LRU registry of analysis artifacts.

Serving answers without re-running analysis means keeping the expensive
intermediates — packed columns, fused stats, graph snapshots — alive
between queries.  The registry indexes them by the repo's existing
content-addressed identities (scenario-cache fingerprints, triple-store
digests, checkpoint keys) behind a byte-budgeted LRU: a registry key is
a *content* address, so a hit is always safe to reuse and eviction only
ever costs recomputation.

Counters follow the shared :class:`repro.perf.cache.CacheStats`
protocol and every live registry reports through
:func:`repro.perf.cache.iter_component_stats`; the same events also
feed ``repro.obs`` (``serve.registry.hits`` / ``.misses`` /
``.evictions`` and the ``serve.registry.bytes`` gauge) when telemetry
is enabled.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.obs import metric_gauge, metric_inc
from repro.perf.cache import (
    CacheStats,
    ScenarioCache,
    code_fingerprint,
    register_stats_provider,
)

#: Default byte budget — enough for a handful of bench-scale artifacts.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024

#: Run-column fields hashed into a scenario's key, offsets first.
_RUN_FIELDS = ("offsets", "first", "last", "observed", "max_gap", "value_hi", "value_lo")

_registries: "weakref.WeakSet[ArtifactRegistry]" = weakref.WeakSet()


@register_stats_provider
def _registry_stats_rows():
    for registry in list(_registries):
        yield "artifact-registry", registry.name, registry.stats


class ArtifactRegistry:
    """LRU map from content address to in-memory artifact.

    ``put`` records an entry with its byte size and evicts
    least-recently-used entries until the total fits ``budget_bytes``;
    ``get`` refreshes recency.  Entries larger than the whole budget
    are still admitted alone (the budget bounds the *steady state*,
    not a single artifact).

    One lock guards the entries, the byte total and the counters, so
    the threads of a server can share a registry.  :meth:`get_or_build`
    adds single-flight builds: concurrent misses on one key run its
    builder once.
    """

    def __init__(
        self, budget_bytes: int = DEFAULT_BUDGET_BYTES, name: str = "default"
    ) -> None:
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.name = name
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        # key -> event set when the one in-flight build of that key ends
        self._building: Dict[str, threading.Event] = {}
        _registries.add(self)

    @property
    def total_bytes(self) -> int:
        """Bytes currently held across all entries."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        """Keys from least- to most-recently used (a snapshot)."""
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: str) -> Optional[Any]:
        """The artifact under ``key`` (refreshing recency), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                metric_inc("serve.registry.misses", registry=self.name)
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            metric_inc("serve.registry.hits", registry=self.name)
            return entry[0]

    def get_or_build(self, key: str, build: Callable[[], Tuple[Any, int]]) -> Any:
        """The artifact under ``key``; on a miss, ``build()`` it once.

        Counts exactly one :meth:`get`.  ``build`` returns ``(artifact,
        nbytes)``, which is :meth:`put` under ``key``.  A caller that
        misses while another thread builds the same key waits for that
        build and takes its entry without counting a second lookup; if
        that build raised, the next waiter builds instead.
        """
        artifact = self.get(key)
        if artifact is not None:
            return artifact
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:  # built since this caller's miss
                    self._entries.move_to_end(key)
                    return entry[0]
                done = self._building.get(key)
                if done is None:
                    done = self._building[key] = threading.Event()
                    break
            done.wait()
        try:
            artifact, nbytes = build()
            self.put(key, artifact, nbytes)
            return artifact
        finally:
            with self._lock:
                del self._building[key]
            done.set()

    def put(self, key: str, artifact: Any, nbytes: int) -> None:
        """Insert ``artifact`` (costing ``nbytes``), evicting LRU overflow."""
        nbytes = max(0, int(nbytes))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (artifact, nbytes)
            self._bytes += nbytes
            self.stats.puts += 1
            metric_inc("serve.registry.puts", registry=self.name)
            while self._bytes > self.budget_bytes and len(self._entries) > 1:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._bytes -= evicted_bytes
                self.stats.evictions += 1
                metric_inc("serve.registry.evictions", registry=self.name)
            metric_gauge("serve.registry.bytes", self._bytes, registry=self.name)

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            metric_gauge("serve.registry.bytes", 0, registry=self.name)


def scenario_artifact_key(
    scenario: Optional[Any] = None,
    params: Optional[dict] = None,
    builder: str = "atlas",
) -> str:
    """Content address of a scenario's analysis artifacts.

    With ``params`` this reuses the scenario cache's key — the same
    address :func:`repro.workloads.build_atlas_scenario` stores under,
    so a registry entry survives process restarts conceptually (same
    code + params → same key).  For an in-memory scenario without known
    build parameters the key hashes the code fingerprint plus the
    sanitized probes' identities and run columns — still
    content-addressed, just derived from the data instead of its recipe.
    Run objects built on demand (``probe.v4_runs``) never enter it.
    """
    if params is not None:
        return f"scenario:{builder}:{ScenarioCache().key(builder, params)}"
    if scenario is None:
        raise ValueError("scenario_artifact_key needs a scenario or params")
    digest = hashlib.sha256()
    digest.update(code_fingerprint().encode())
    digest.update(str(scenario.end_hour).encode())
    for probe in scenario.probes:
        identity = (probe.probe_id, probe.asn, probe.dual_stack, probe.run_probe_id)
        digest.update(repr(identity).encode())
        for columns in (probe.v4, probe.v6):
            # Offsets come first, so each column's length is fixed.
            for name in _RUN_FIELDS:
                digest.update(getattr(columns, name).tobytes())
    return f"scenario:{builder}:{digest.hexdigest()}"


def store_artifact_key(store: Any) -> str:
    """Content address of a triple store's artifacts (its digest)."""
    return f"store:{store.digest()}"


def checkpoint_artifact_key(kind: str, key: str) -> str:
    """Content address of a checkpointed stream state's artifacts."""
    return f"checkpoint:{kind}:{key}"


__all__ = [
    "ArtifactRegistry",
    "DEFAULT_BUDGET_BYTES",
    "checkpoint_artifact_key",
    "scenario_artifact_key",
    "store_artifact_key",
]

"""Content-addressed on-disk cache for built scenarios.

A scenario is a pure function of its build parameters and the code that
builds it, so the cache key is ``SHA-256(format version, builder name,
code fingerprint, canonicalized parameters)``:

* the *code fingerprint* hashes every ``.py`` file in the ``repro``
  package — any source change invalidates every cached scenario.  Entry
  file names carry the fingerprint's first 16 hex digits, so the first
  :meth:`ScenarioCache.put` under new code evicts the builder's entries
  written by any other code (:meth:`ScenarioCache.clear` sweeps all);
* parameters are canonicalized structurally (dicts sorted by key,
  dataclasses via their field reprs), so semantically equal calls share
  an entry while ``workers=`` — which never changes the output — is
  deliberately excluded by the callers.

Entries are pickles written atomically (temp file + ``os.replace``);
a corrupt or truncated entry is treated as a miss and deleted.  The
directory defaults to ``~/.cache/repro-scenarios`` and is overridable
via ``$REPRO_CACHE_DIR``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs import get_logger, metric_inc

_log = get_logger("perf.cache")

#: Environment override for the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment default for whether builders use the cache (``cache=None``).
CACHE_ENV = "REPRO_CACHE"

_DEFAULT_DIR = "~/.cache/repro-scenarios"
_FORMAT_VERSION = 1

_TRUTHY = ("1", "true", "yes", "on")


def resolve_cache_flag(cache: Optional[bool] = None) -> bool:
    """Effective cache switch: explicit value, else ``$REPRO_CACHE``, else off."""
    if cache is None:
        return os.environ.get(CACHE_ENV, "").strip().lower() in _TRUTHY
    return bool(cache)


_fingerprint_cache: Dict[Path, str] = {}


def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` source file of the ``repro`` package."""
    package_root = Path(__file__).resolve().parents[1]
    cached = _fingerprint_cache.get(package_root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    fingerprint = digest.hexdigest()
    _fingerprint_cache[package_root] = fingerprint
    return fingerprint


def _canonical(value) -> str:
    """Stable structural encoding of a parameter value."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{_canonical(key)}: {_canonical(val)}" for key, val in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_canonical(item) for item in value) + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ", ".join(
            f"{field.name}={_canonical(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    return repr(value)


@dataclass
class CacheStats:
    """Counters for one cache-like component.

    Shared by :class:`ScenarioCache`,
    :class:`repro.stream.checkpoint.CheckpointStore` and
    :class:`repro.serve.registry.ArtifactRegistry` so introspection
    (:func:`iter_component_stats`, ``repro serve --status``) renders
    every component the same way.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (stable key order)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
            "evictions": self.evictions,
        }


class ScenarioCache:
    """Content-addressed pickle store for built scenarios."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        raw = directory or os.environ.get(CACHE_DIR_ENV) or _DEFAULT_DIR
        self.directory = Path(raw).expanduser()
        self.stats = CacheStats()

    def key(self, builder: str, params: dict) -> str:
        """The content address of ``builder`` called with ``params``."""
        material = "\n".join(
            (str(_FORMAT_VERSION), builder, code_fingerprint(), _canonical(params))
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path_for(self, builder: str, key: str) -> Path:
        return self.directory / f"{builder}-{code_fingerprint()[:16]}-{key[:32]}.pkl"

    def _evict_stale(self, builder: str) -> None:
        """Unlink ``builder``'s entries written under another code fingerprint.

        Such entries can never be addressed again (their key hashes the
        old fingerprint), so every source edit would otherwise strand
        them on disk for good.  Entries named without a fingerprint tag
        (the layout before tags) count as stale too.
        """
        entry = re.compile(rf"{re.escape(builder)}-(?:([0-9a-f]{{16}})-)?[0-9a-f]{{32}}\.pkl")
        current = code_fingerprint()[:16]
        for path in self.directory.glob(f"{builder}-*.pkl"):
            match = entry.fullmatch(path.name)
            if match is None or match.group(1) == current:
                continue
            path.unlink(missing_ok=True)
            self.stats.evictions += 1
            metric_inc("cache.evictions", builder=builder)
            _log.info("stale cache entry evicted", extra={"builder": builder, "entry": path.name})

    def get(self, builder: str, key: str):
        """The cached scenario for ``key``, or ``None`` on a miss."""
        path = self._path_for(builder, key)
        try:
            with path.open("rb") as stream:
                payload = pickle.load(stream)
            if payload.get("key") != key:  # truncated prefix collision
                raise ValueError("key mismatch")
            scenario = payload["scenario"]
        except FileNotFoundError:
            self.stats.misses += 1
            metric_inc("cache.misses", builder=builder, reason="absent")
            _log.debug("cache miss", extra={"builder": builder, "key": key[:12]})
            return None
        except Exception:
            # Corrupt/incompatible entry: safe to drop, rebuild will re-put.
            self.stats.misses += 1
            self.stats.errors += 1
            path.unlink(missing_ok=True)
            metric_inc("cache.misses", builder=builder, reason="corrupt")
            _log.warning(
                "corrupt cache entry dropped",
                extra={"builder": builder, "key": key[:12]},
            )
            return None
        self.stats.hits += 1
        metric_inc("cache.hits", builder=builder)
        _log.info("cache hit", extra={"builder": builder, "key": key[:12]})
        return scenario

    def put(self, builder: str, key: str, scenario) -> bool:
        """Store ``scenario`` under ``key``; False when unpicklable."""
        path = self._path_for(builder, key)
        temp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with temp.open("wb") as stream:
                pickle.dump(
                    {"key": key, "scenario": scenario},
                    stream,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(temp, path)
        except Exception:
            self.stats.errors += 1
            temp.unlink(missing_ok=True)
            metric_inc("cache.put_errors", builder=builder)
            _log.warning(
                "cache put failed (unpicklable scenario?)",
                extra={"builder": builder, "key": key[:12]},
            )
            return False
        self.stats.puts += 1
        metric_inc("cache.puts", builder=builder)
        _log.info("cache put", extra={"builder": builder, "key": key[:12]})
        self._evict_stale(builder)
        return True

    def clear(self) -> int:
        """Delete every cache entry (only ``*.pkl`` files); returns the count."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScenarioCache({str(self.directory)!r}, stats={self.stats})"


_instances: Dict[Path, ScenarioCache] = {}


def get_scenario_cache(directory: Optional[os.PathLike] = None) -> ScenarioCache:
    """Per-process singleton cache for a directory (default: env/ ~/.cache)."""
    cache = ScenarioCache(directory)
    return _instances.setdefault(cache.directory, cache)


def iter_cache_stats():
    """Yield ``(directory, CacheStats)`` for every live singleton cache.

    The CLI and the ``--telemetry`` dump use this to surface hit/miss
    counts that the builders accumulate internally.
    """
    for directory, cache in _instances.items():
        yield directory, cache.stats


#: Component stats row: ``(component kind, identity, CacheStats)``.
StatsRow = Tuple[str, str, CacheStats]

_stats_providers: List[Callable[[], Iterable[StatsRow]]] = []


def register_stats_provider(provider: Callable[[], Iterable[StatsRow]]):
    """Register a callable yielding :data:`StatsRow` tuples.

    Other cache-like components (checkpoint stores, artifact
    registries) hook themselves into :func:`iter_component_stats` with
    this — the serving status view and telemetry dumps then see every
    component through one protocol.  Idempotent per callable; returns
    ``provider`` so it can be used as a decorator.
    """
    if provider not in _stats_providers:
        _stats_providers.append(provider)
    return provider


def iter_component_stats() -> Iterator[StatsRow]:
    """Yield ``(component, identity, CacheStats)`` for every component.

    Scenario caches report first, then every registered provider in
    registration order (checkpoint stores, artifact registries, ...).
    """
    for directory, stats in iter_cache_stats():
        yield "scenario-cache", str(directory), stats
    for provider in list(_stats_providers):
        for row in provider():
            yield row


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "CacheStats",
    "ScenarioCache",
    "code_fingerprint",
    "get_scenario_cache",
    "iter_cache_stats",
    "iter_component_stats",
    "register_stats_provider",
    "resolve_cache_flag",
]

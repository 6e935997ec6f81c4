"""The performance engine: parallel fan-out, scenario cache, RSS probes.

See ``docs/architecture.md`` ("Performance engine") for the determinism
contract and the ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` environment
knobs.
"""

from repro.perf.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ScenarioCache,
    code_fingerprint,
    get_scenario_cache,
    resolve_cache_flag,
)
from repro.perf.parallel import (
    WORKERS_ENV,
    collect_associations,
    effective_workers,
    resolve_workers,
    run_isp_simulations,
)
from repro.perf.profiling import PROFILE_DIR_ENV, PROFILE_ENV, maybe_profile
from repro.perf.timing import RssSampler, current_rss_bytes

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "PROFILE_DIR_ENV",
    "PROFILE_ENV",
    "RssSampler",
    "ScenarioCache",
    "WORKERS_ENV",
    "code_fingerprint",
    "collect_associations",
    "current_rss_bytes",
    "effective_workers",
    "get_scenario_cache",
    "maybe_profile",
    "resolve_cache_flag",
    "resolve_workers",
    "run_isp_simulations",
]

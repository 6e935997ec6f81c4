"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The
two input datasets (the Atlas measurement study and the CDN association
dataset) are built once per session at a scale that finishes in tens of
seconds on a laptop; the per-benchmark timed section is the *analysis*,
not the data generation.

The builds go through the performance engine (``repro.perf``): they fan
out over ``REPRO_BENCH_WORKERS`` processes (default ``$REPRO_WORKERS``)
and, unless ``REPRO_BENCH_CACHE=0``, hit the content-addressed scenario
cache, so a warm session skips generation entirely.  Build wall-clock
and per-benchmark analysis durations are recorded into the repo-root
``BENCH_baseline.json`` perf artifact at session end.

The analyses themselves run through the engine selected by
``$REPRO_ANALYSIS_ENGINE`` (columnar NumPy by default; see
``repro.core.analysis_np``), and setting ``REPRO_PROFILE=1`` dumps
per-stage cProfile artifacts under ``benchmarks/results/``.

Every benchmark writes its rendered artifact to
``benchmarks/results/<name>.txt`` so the reproduced tables/figures are
inspectable after the run regardless of pytest's output capturing.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.core.engine import resolve_engine
from repro.perf.cache import get_scenario_cache
from repro.perf.parallel import resolve_workers
from repro.perf.profiling import maybe_profile
from repro.perf.timing import StageTimer, write_baseline
from repro.workloads import build_atlas_scenario, build_cdn_scenario

RESULTS_DIR = Path(__file__).parent / "results"

#: Scale knobs, overridable from the environment for quick runs.
ATLAS_PROBES_PER_AS = int(os.environ.get("REPRO_BENCH_PROBES", "40"))
ATLAS_YEARS = float(os.environ.get("REPRO_BENCH_YEARS", "4.0"))
CDN_DAYS = int(os.environ.get("REPRO_BENCH_CDN_DAYS", "150"))
CDN_FIXED = int(os.environ.get("REPRO_BENCH_CDN_FIXED", "1200"))
CDN_MOBILE = int(os.environ.get("REPRO_BENCH_CDN_MOBILE", "800"))
CDN_FEATURED = int(os.environ.get("REPRO_BENCH_CDN_FEATURED", "150"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2020"))

#: Performance-engine knobs.
BENCH_WORKERS = resolve_workers(
    int(raw) if (raw := os.environ.get("REPRO_BENCH_WORKERS", "").strip()) else None
)
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE", "1").strip().lower() not in (
    "0",
    "false",
    "no",
    "off",
)

_BUILD_TIMER = StageTimer()
_BUILD_META: dict = {}
_ANALYSIS: dict = {}


def _timed_build(stage: str, builder, **kwargs):
    cache = get_scenario_cache()
    hits_before = cache.stats.hits
    with maybe_profile(stage):
        start = time.perf_counter()
        scenario = builder(workers=BENCH_WORKERS, cache=BENCH_CACHE, **kwargs)
        _BUILD_TIMER.record(stage, time.perf_counter() - start)
    _BUILD_META[stage] = {
        "workers": BENCH_WORKERS,
        "cache": (
            "hit" if BENCH_CACHE and cache.stats.hits > hits_before
            else "miss" if BENCH_CACHE else "off"
        ),
    }
    return scenario


@pytest.fixture(scope="session")
def atlas_scenario():
    """The RIPE-Atlas-style measurement study (Sections 3 and 5)."""
    return _timed_build(
        "atlas_scenario",
        build_atlas_scenario,
        probes_per_as=ATLAS_PROBES_PER_AS,
        years=ATLAS_YEARS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def cdn_scenario():
    """The CDN association dataset (Sections 4 and 5.3)."""
    return _timed_build(
        "cdn_scenario",
        build_cdn_scenario,
        days=CDN_DAYS,
        seed=SEED,
        fixed_subscribers_per_registry=CDN_FIXED,
        mobile_devices_per_registry=CDN_MOBILE,
        featured_subscribers=CDN_FEATURED,
    )


@pytest.fixture(scope="session")
def artifact_writer():
    """Write a named artifact to benchmarks/results/ (and echo it)."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}] written to {path}\n{text}")

    return write


def pytest_runtest_logreport(report):
    """Collect per-benchmark analysis wall-clock (the timed ``call`` phase)."""
    if report.when == "call" and report.passed:
        _ANALYSIS[report.nodeid] = round(report.duration, 4)


def pytest_sessionfinish(session, exitstatus):
    """Record this session's build/analysis timings in BENCH_baseline.json."""
    if not _BUILD_TIMER.as_dict():
        return  # nothing was built (e.g. collection-only or filtered run)
    build = {
        stage: {"seconds": seconds, **_BUILD_META.get(stage, {})}
        for stage, seconds in _BUILD_TIMER.as_dict().items()
    }
    write_baseline(
        "benchmark_session",
        {"build": build, "analysis": _ANALYSIS, "analysis_engine": resolve_engine()},
    )


#: The six ASes Figures 1, 2 and 5 feature.
FEATURED_SIX = ("DTAG", "Orange", "Comcast", "LGI", "BT", "Proximus")

"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The
two input datasets (the Atlas measurement study and the CDN association
dataset) are built once per session at a scale that finishes in tens of
seconds on a laptop; the per-benchmark timed section is the *analysis*,
not the data generation.

The builds go through the performance engine (``repro.perf``): they fan
out over ``REPRO_BENCH_WORKERS`` processes (default ``$REPRO_WORKERS``)
and, unless ``REPRO_BENCH_CACHE=0``, hit the content-addressed scenario
cache, so a warm session skips generation entirely.

The analyses themselves run through the engine selected by
``$REPRO_ANALYSIS_ENGINE`` (the fused single-pass engine by default;
see ``repro.core.fused``), and setting ``REPRO_PROFILE=1`` dumps
per-stage cProfile artifacts under ``benchmarks/results/``.

Every benchmark writes its rendered artifact to
``benchmarks/results/<name>.txt`` so the reproduced tables/figures are
inspectable after the run regardless of pytest's output capturing.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.perf.parallel import resolve_workers
from repro.perf.profiling import maybe_profile
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


def _build(stage: str, builder, **kwargs):
    with maybe_profile(stage):
        return builder(workers=BENCH_WORKERS, cache=BENCH_CACHE, **kwargs)


@pytest.fixture(scope="session")
def atlas_scenario():
    """The RIPE-Atlas-style measurement study (Sections 3 and 5)."""
    return _build(
        "atlas_scenario",
        build_atlas_scenario,
        probes_per_as=ATLAS_PROBES_PER_AS,
        years=ATLAS_YEARS,
        seed=SEED,
    )


@pytest.fixture(scope="session")
def cdn_scenario():
    """The CDN association dataset (Sections 4 and 5.3)."""
    return _build(
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


#: The six ASes Figures 1, 2 and 5 feature.
FEATURED_SIX = ("DTAG", "Orange", "Comcast", "LGI", "BT", "Proximus")

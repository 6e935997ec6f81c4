"""Tier-1 perf smoke: the bench-baseline script's --check mode.

Running ``scripts/bench_baseline.py --check`` from the test suite means
a perf-engine regression (parallel determinism, cache round-trip,
analysis-engine parity) fails fast in CI, and the ``--output`` record
that ``scripts.bench_report`` compares keeps the fields it reads.
"""

from __future__ import annotations

import json

import pytest

from repro.perf.parallel import effective_workers
from scripts.bench_baseline import (
    CHECK_SCALE,
    FULL_SCALE,
    main as bench_main,
    scaled_store_config,
)


@pytest.fixture()
def isolated_cache(tmp_path, monkeypatch):
    from repro.perf.cache import CACHE_DIR_ENV

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    return tmp_path


def test_bench_baseline_check_mode(isolated_cache, tmp_path, capsys):
    output = tmp_path / "BENCH_smoke.json"
    assert bench_main(["--check", "--workers", "2", "--output", str(output)]) == 0
    doc = json.loads(output.read_text())
    assert list(doc) == ["bench_baseline"]  # one section, nothing merged in
    payload = doc["bench_baseline"]
    assert payload["mode"] == "check"
    assert "ok" not in payload and "recorded" not in payload
    # The record states the workers that actually ran, next to the
    # requested count; --check never enforces a speedup.
    assert payload["workers"] == 2
    atlas = payload["build"]["atlas"]
    assert atlas["effective_workers"] == effective_workers(2, None)
    assert payload["build"]["cdn"]["effective_workers"] == effective_workers(2, None)
    assert payload["speedup_enforced"] is False
    assert payload["deterministic"] is True
    analysis = payload["analysis"]
    assert analysis["parity"] is True
    for stage in ("table1", "figure1", "figure5", "table2", "periodicity"):
        assert analysis["stages"][stage]["py_seconds"] >= 0.0
        assert analysis["stages"][stage]["fused_seconds"] >= 0.0
    store = payload["store"]
    assert store["parity"] is True
    assert store["tuples"] == 1_000_000
    assert store["build_tuples_per_second"] > 0
    assert store["analyze_tuples_per_second"] > 0
    # The store-driven stream replay is timed and matches analyze_store.
    assert store["stream_parity"] is True
    assert store["stream_tuples_per_second"] > 0
    # The 1M-tuple parallel build ran against the same synthetic feed
    # and compacted to the byte-identical store as the serial build.
    assert store["parallel_digest_match"] is True
    assert store["build_workers"] == 2
    assert store["build_effective_workers"] == effective_workers(2, 16)
    assert store["build_parallel_tuples_per_second"] > 0
    assert store["build_speedup"] > 0
    assert store["build_speedup_enforced"] is False  # --check records only
    # The RSS gate (analyzer peak delta vs materialized-triples
    # footprint) ran and stayed within bounds, or RSS was unreadable.
    if store["rss_fraction_of_materialized"] is not None:
        assert store["rss_fraction_of_materialized"] <= store["rss_gate_fraction"]
    report = payload["report"]
    assert report["parity"] is True
    assert "np_seconds" not in report  # the fused engine is the one fast path
    assert report["fused_seconds"] >= 0.0
    serve = payload["serve"]
    assert serve["parity_diffs"] == 0  # served == direct on every family
    assert serve["queries"] == 64
    assert serve["cold_seconds"] >= 0.0
    assert serve["warm_seconds"] >= 0.0
    assert serve["batch_speedup"] > 0
    assert serve["speedup_enforced"] is False  # --check records, full gates
    # Warm queries never recomputed analysis: exactly one registry miss
    # (the cold artifact build), everything after that a hit.
    assert serve["registry"]["misses"] == 1
    assert serve["registry"]["hits"] >= 64
    obs = payload["obs"]
    assert obs["stitch_diffs"] == 0  # pooled stitched build == untraced build
    assert obs["stitch_workers"] == 2
    assert obs["disabled_overhead"] > 0
    assert obs["disabled_seconds"] > 0 and obs["baseline_seconds"] > 0
    assert obs["pairs"] == 3
    assert obs["max_overhead"] == 1.05
    assert obs["overhead_enforced"] is False  # --check records, full gates
    # Nothing but the requested record is written: no history, no
    # repo-root baseline.
    written = {path.name for path in tmp_path.iterdir()} - {"cache"}
    assert written == {"BENCH_smoke.json"}
    out = capsys.readouterr().out
    assert "results identical" in out
    assert "artifacts identical" in out
    assert "report: fused" in out
    assert "serve: cold" in out
    assert "obs: disabled-telemetry" in out

    # Every stage and rate the same-host gate compares is in the record.
    from scripts.bench_report import RATE_EXTRACTORS, STAGE_EXTRACTORS

    for label, extract in {**STAGE_EXTRACTORS, **RATE_EXTRACTORS}.items():
        assert extract(payload) is not None, label


def test_profile_hook_writes_artifacts(tmp_path, monkeypatch):
    from repro.perf.profiling import (
        PROFILE_DIR_ENV,
        PROFILE_ENV,
        maybe_profile,
        profiling_enabled,
    )

    monkeypatch.delenv(PROFILE_ENV, raising=False)
    assert not profiling_enabled()
    with maybe_profile("noop") as profile:
        assert profile is None  # disabled: pure pass-through

    monkeypatch.setenv(PROFILE_ENV, "1")
    monkeypatch.setenv(PROFILE_DIR_ENV, str(tmp_path / "profiles"))
    assert profiling_enabled()
    with maybe_profile("smoke stage") as profile:
        assert profile is not None
        sum(range(1000))
    stats = tmp_path / "profiles" / "profile_smoke_stage.pstats"
    text = tmp_path / "profiles" / "profile_smoke_stage.txt"
    assert stats.exists()
    assert "cumulative" in text.read_text()


def test_bare_telemetry_swaps_and_restores_the_helpers():
    import importlib

    import repro.obs as obs
    from scripts.bench_baseline import _bare_telemetry

    sanitize_module = importlib.import_module("repro.atlas.sanitize")
    original_span = obs.span
    assert sanitize_module.span is original_span
    with _bare_telemetry():
        # Both the defining module and a ``from repro.obs import span``
        # copy see the stub, which still works as a span.
        assert obs.span is not original_span
        assert sanitize_module.span is obs.span
        with obs.span("stubbed", attr=1) as handle:
            assert handle.set(more=2) is handle
        assert obs.metric_inc("stubbed.counter") is None
    assert obs.span is original_span
    assert sanitize_module.span is original_span
    assert obs.metric_inc.__module__ == "repro.obs"


def test_store_tuples_scales_the_whole_store_config():
    """``--store-tuples`` gets each scale's shape at that scale's count."""
    assert scaled_store_config(1_000_000) == CHECK_SCALE["store"]
    assert scaled_store_config(100_000_000) == FULL_SCALE["store"]
    middle = scaled_store_config(10_000_000)
    assert (middle["shards"], middle["batch_rows"]) == (32, 1 << 18)
    assert (middle["v4_pool"], middle["v6_pool"]) == (20_000, 200_000)
    assert scaled_store_config(10)["shards"] == 1
    with pytest.raises(ValueError):
        scaled_store_config(0)

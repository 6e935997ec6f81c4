"""Tests for the telemetry subsystem: metrics, spans, logging, wiring."""

from __future__ import annotations

import json
import logging
import os
import sys
import threading

import pytest

from repro.obs import (
    CORE_COUNTERS,
    KeyValueFormatter,
    MetricsRegistry,
    Tracer,
    configure_logging,
    disable_telemetry,
    dump_telemetry,
    enable_telemetry,
    get_logger,
    get_tracer,
    level_from_verbosity,
    metric_inc,
    span,
    subtract_snapshots,
    telemetry,
    telemetry_enabled,
    telemetry_snapshot,
)

ATLAS_SCALE = dict(probes_per_as=4, years=0.3, cache=False)


@pytest.fixture(autouse=True)
def telemetry_off():
    """Start each test disabled with empty global state, and clean up after."""
    enable_telemetry(reset=True)
    disable_telemetry()
    yield
    disable_telemetry()
    root = get_logger()
    for handler in list(root.handlers):
        if handler.get_name() == "repro-obs":
            root.removeHandler(handler)
    root.setLevel(logging.NOTSET)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_counter_labels_feed_unlabeled_total():
    registry = MetricsRegistry()
    registry.inc("drops", 2, reason="bad_tag")
    registry.inc("drops", 3, reason="short")
    registry.inc("drops")
    assert registry.counter("drops") == 6
    assert registry.counter("drops", reason="bad_tag") == 2
    assert registry.counter("drops", reason="short") == 3


def test_gauge_and_histogram():
    registry = MetricsRegistry()
    registry.set_gauge("workers", 4)
    registry.set_gauge("workers", 2)
    assert registry.gauge("workers") == 2
    for value in (0.5, 1.5, 4.0):
        registry.observe("chunk_seconds", value)
    snap = registry.snapshot()
    hist = snap["histograms"]["chunk_seconds"][""]
    assert hist["count"] == 3
    assert hist["sum"] == 6.0
    assert hist["min"] == 0.5 and hist["max"] == 4.0


def test_snapshot_subtract_then_merge_round_trips():
    registry = MetricsRegistry()
    registry.inc("tasks", 5, kind="sim")
    before = registry.snapshot()
    registry.inc("tasks", 2, kind="sim")
    registry.observe("latency", 1.0)
    delta = subtract_snapshots(registry.snapshot(), before)
    assert delta["counters"]["tasks"]["kind=sim"] == 2

    parent = MetricsRegistry()
    parent.inc("tasks", 10, kind="sim")
    parent.merge(delta)
    assert parent.counter("tasks", kind="sim") == 12
    assert parent.snapshot()["histograms"]["latency"][""]["count"] == 1


def test_concurrent_updates_lose_nothing():
    """Threads switching every microsecond still give exact totals."""
    registry = MetricsRegistry()
    threads, rounds = 4, 20_000
    start = threading.Barrier(threads)

    def work(worker):
        start.wait()
        for _ in range(rounds):
            registry.inc("requests")
            registry.inc("queries", 2, kind=f"k{worker % 2}")
            registry.observe("latency", 0.5)
        registry.merge({"counters": {"merged": {"": 1}}})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    snap = registry.snapshot()
    assert snap["counters"]["requests"][""] == threads * rounds
    assert snap["counters"]["queries"] == {
        "": 2 * threads * rounds,
        "kind=k0": threads * rounds,
        "kind=k1": threads * rounds,
    }
    assert snap["counters"]["merged"][""] == threads
    latency = snap["histograms"]["latency"][""]
    assert latency["count"] == threads * rounds
    assert latency["sum"] == 0.5 * threads * rounds
    assert latency["buckets"] == {-1: threads * rounds}


# ---------------------------------------------------------------------------
# Tracing spans
# ---------------------------------------------------------------------------


def test_span_nesting_and_exports(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", stage="build"):
        with tracer.span("inner"):
            pass
    assert len(tracer.roots) == 1
    tree = tracer.as_dicts()[0]
    assert tree["name"] == "outer"
    assert tree["attrs"] == {"stage": "build"}
    assert [child["name"] for child in tree["children"]] == ["inner"]

    path = tracer.export_jsonl(tmp_path / "trace.jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["depth"], r["path"]) for r in records] == [
        ("outer", 0, "outer"),
        ("inner", 1, "outer/inner"),
    ]
    rendered = tracer.render_tree()
    assert "outer" in rendered and "  inner" in rendered


def test_span_marks_errors_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("doomed"):
            raise ValueError("boom")
    assert tracer.roots[0].attrs["error"] == "ValueError"


def test_disabled_span_is_shared_noop():
    assert not telemetry_enabled()
    first = span("anything", attr=1)
    second = span("other")
    assert first is second  # no allocation on the disabled path
    with first as active:
        active.set(more="attrs")
    assert get_tracer().roots == []


def test_enable_preregisters_core_counters():
    with telemetry(True, reset=True):
        metrics = telemetry_snapshot()["metrics"]
    for name in CORE_COUNTERS:
        assert metrics["counters"][name][""] == 0


def test_telemetry_context_restores_previous_state():
    assert not telemetry_enabled()
    with telemetry(True, reset=True):
        assert telemetry_enabled()
        with telemetry(False):
            assert not telemetry_enabled()
        assert telemetry_enabled()
    assert not telemetry_enabled()


def test_dump_telemetry_writes_json(tmp_path):
    with telemetry(True, reset=True):
        with span("cli/test"):
            metric_inc("cache.hits")
        target = dump_telemetry(tmp_path / "out" / "tel.json", extra={"k": "v"})
    payload = json.loads(target.read_text())
    assert payload["spans"][0]["name"] == "cli/test"
    assert payload["metrics"]["counters"]["cache.hits"][""] == 1
    assert payload["k"] == "v"


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------


def test_get_logger_namespacing():
    assert get_logger("perf.cache").name == "repro.perf.cache"
    assert get_logger("repro.x").name == "repro.x"
    assert get_logger().name == "repro"


def test_key_value_formatter_appends_extras():
    formatter = KeyValueFormatter()
    record = logging.LogRecord("repro.t", logging.INFO, "f.py", 1, "did it", (), None)
    record.kept = 5
    record.note = "two words"
    line = formatter.format(record)
    assert line.endswith("did it kept=5 note='two words'")


def test_level_from_verbosity():
    assert level_from_verbosity(-1) == logging.ERROR
    assert level_from_verbosity(0) == logging.WARNING
    assert level_from_verbosity(1) == logging.INFO
    assert level_from_verbosity(2) == logging.DEBUG


def test_configure_logging_replaces_handler(capsys):
    root = configure_logging(verbosity=1)
    handlers = [h for h in root.handlers if h.get_name() == "repro-obs"]
    assert len(handlers) == 1
    root = configure_logging(verbosity=2)  # reconfigure must not stack
    handlers = [h for h in root.handlers if h.get_name() == "repro-obs"]
    assert len(handlers) == 1
    assert root.level == logging.DEBUG
    for handler in handlers:
        root.removeHandler(handler)


# ---------------------------------------------------------------------------
# Instrumented pipeline: counters, spans, invariance
# ---------------------------------------------------------------------------


def test_pipeline_emits_spans_and_counters():
    from repro.workloads import analyze_atlas_scenario, build_atlas_scenario

    with telemetry(True, reset=True):
        scenario = build_atlas_scenario(seed=5, **ATLAS_SCALE)
        analyze_atlas_scenario(scenario)  # the default engine: fused
        analyze_atlas_scenario(scenario, engine="py")
        snapshot = telemetry_snapshot()

    counters = snapshot["metrics"]["counters"]
    assert counters["collection.probes_collected"][""] == len(scenario.raw_probes)
    assert counters["collection.records_generated"][""] > 0
    assert counters["sanitize.probes_input"][""] == len(scenario.raw_probes)

    roots = {root["name"]: root for root in snapshot["spans"]}
    build = roots["collection/atlas"]
    children = [child["name"] for child in build["children"]]
    assert "collection/isp_simulations" in children
    assert "collection/probes" in children
    assert "collection/sanitize" in children
    fused_report, py_report = [
        root for root in snapshot["spans"] if root["name"] == "analysis/report"
    ]
    assert {child["name"] for child in fused_report["children"]} == {
        "analysis/fused/pass", "analysis/fused/network",
    }
    assert {child["name"] for child in py_report["children"]} == {
        "analysis/table1", "analysis/table2", "analysis/figure1", "analysis/figure5",
    }


def test_stream_and_checkpoint_counters(tmp_path):
    from repro.workloads import build_atlas_scenario, stream_analyze_atlas_scenario

    scenario = build_atlas_scenario(seed=5, **ATLAS_SCALE)
    with telemetry(True, reset=True):
        result = stream_analyze_atlas_scenario(
            scenario, chunk_hours=720, checkpoint=tmp_path, min_probes=2
        )
        resumed = stream_analyze_atlas_scenario(
            scenario, chunk_hours=720, checkpoint=tmp_path, resume=True, min_probes=2
        )
        counters = telemetry_snapshot()["metrics"]["counters"]
    assert result is not None and resumed is not None
    assert counters["stream.chunks_processed"][""] == result.stats.chunks_folded
    assert counters["checkpoint.saves"][""] > 0
    assert counters["checkpoint.hits"][""] >= 1
    assert counters["stream.resumes"][""] == 1


def test_worker_pool_merges_child_metrics(monkeypatch, tmp_path):
    from repro.store import analyze_store, build_store_from_triples

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    store = build_store_from_triples(
        [(day, (day % 7) << 8, (day + 1) << 64) for day in range(60)],
        tmp_path / "store",
        shards=3,
        workers=1,
    )
    shards_read = {}
    for workers in (1, 2):
        with telemetry(True, reset=True):
            analyze_store(store, workers=workers)
            counters = telemetry_snapshot()["metrics"]["counters"]
        shards_read[workers] = counters["store.shards_read"][""]
    assert counters["pool.tasks"][""] == store.shards  # the pooled run fanned out
    # Worker-side counters ride back to the parent exactly once: the
    # pooled per-shard passes add up to the serial pass.
    assert shards_read[2] == shards_read[1] > 0


# ---------------------------------------------------------------------------
# Pool-layer counter conservation: one pool.tasks tally and one stitched
# pool/task span per work unit, for every fan-out adapter.
# ---------------------------------------------------------------------------


def _span_attr(nodes, name, attr):
    """Sum ``attr`` over every span called ``name`` in a span forest."""
    return sum(
        (node["attrs"][attr] if node["name"] == name else 0)
        + _span_attr(node.get("children", ()), name, attr)
        for node in nodes
    )


def _count_spans(nodes, name):
    return sum(
        (node["name"] == name) + _count_spans(node.get("children", ()), name)
        for node in nodes
    )


def _shard_rows(store, index):
    return store.shard_rows[index]


def _pooled_isp_simulations(tmp_path):
    from repro.netsim.profiles import default_profiles
    from repro.workloads import build_atlas_scenario

    build_atlas_scenario(seed=5, workers=2, **ATLAS_SCALE)
    return {"isp_sim": len(default_profiles())}


def _pooled_cdn_collection(tmp_path):
    from repro.workloads import build_cdn_scenario

    build_cdn_scenario(
        days=6,
        seed=5,
        workers=2,
        cache=False,
        fixed_subscribers_per_registry=12,
        mobile_devices_per_registry=12,
        featured_subscribers=12,
    )
    spans = telemetry_snapshot()["spans"]
    return {
        "isp_sim": _span_attr(spans, "collection/isp_simulations", "isps"),
        "cdn_collect": _span_attr(spans, "collection/associations", "populations"),
    }


def _pooled_store_shards(tmp_path):
    from repro.perf.parallel import map_store_shards
    from repro.store import build_store_from_triples

    store = build_store_from_triples(
        [(day, (day % 7) << 8, (day + 1) << 64) for day in range(60)],
        tmp_path / "store",
        shards=3,
        workers=1,
    )
    assert map_store_shards(_shard_rows, store, workers=2) == list(store.shard_rows)
    return {"store_shard": 3}


def _pooled_store_segments(tmp_path):
    import numpy as np

    from repro.store import build_store_from_columns

    batches = [
        (
            np.arange(10) + 10 * part,
            (np.arange(10) % 4) << 8,
            (np.arange(10) + 1) << 64,
        )
        for part in range(4)
    ]
    build_store_from_columns(
        batches, tmp_path / "store", shards=2, workers=2, spill_rows=10
    )
    return {"store_compact": 2}


@pytest.mark.parametrize(
    "run_adapter",
    [
        _pooled_isp_simulations,
        _pooled_cdn_collection,
        _pooled_store_shards,
        _pooled_store_segments,
    ],
    ids=["isp_sim", "cdn_collect", "store_shard", "store_segments"],
)
def test_pool_tasks_conserve_units(run_adapter, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # force the fan-out
    with telemetry(True, reset=True):
        units = run_adapter(tmp_path)
        snap = telemetry_snapshot()
    total = sum(units.values())
    series = snap["metrics"]["counters"]["pool.tasks"]
    assert series[""] == total
    per_kind = {}
    for key, count in series.items():
        if key:
            labels = dict(part.split("=", 1) for part in key.split(","))
            per_kind[labels["kind"]] = per_kind.get(labels["kind"], 0) + count
    assert per_kind == units
    assert _count_spans(snap["spans"], "pool/task") == total


def test_telemetry_invariance(monkeypatch):
    """A pooled build with telemetry on is bit-identical to a serial one
    with it off, and its fused paths match the oracle while telemetry
    records.

    The core count is widened so the per-ISP pool runs on any host:
    worker span buffers and metric deltas flow back to the parent, one
    pool task per ISP.
    """
    from repro.perf.verify import atlas_diffs
    from repro.workloads import build_atlas_scenario

    real_cpu_count = os.cpu_count
    monkeypatch.setattr(os, "cpu_count", lambda: max(2, real_cpu_count() or 1))
    params = dict(probes_per_as=4, years=0.4, seed=7, cache=False)
    with telemetry(False):
        plain = build_atlas_scenario(workers=1, **params)
    with telemetry(True, reset=True):
        traced = build_atlas_scenario(workers=2, **params)
        pool_tasks = telemetry_snapshot()["metrics"]["counters"].get("pool.tasks", {})
        assert atlas_diffs(traced, plain) == []
    isp_tasks = sum(
        count for key, count in pool_tasks.items() if "kind=isp_sim" in key.split(",")
    )
    assert isp_tasks == len(traced.isps)


def test_cli_telemetry_flag_dumps_span_tree(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "telemetry.json"
    assert main([
        "report", "--probes-per-as", "3", "--years", "0.3",
        "--telemetry", str(target),
    ]) == 0
    out = capsys.readouterr().out
    assert f"telemetry written to {target}" in out
    payload = json.loads(target.read_text())
    root = payload["spans"][0]
    assert root["name"] == "cli/report"
    children = [child["name"] for child in root["children"]]
    assert "collection/atlas" in children
    assert "analysis/report" in children
    assert "report/render" in children
    counters = payload["metrics"]["counters"]
    for name in CORE_COUNTERS:
        assert name in counters


def test_cli_verbose_flag_emits_structured_logs(capsys):
    from repro.cli import main

    assert main([
        "report", "--probes-per-as", "3", "--years", "0.3", "-v",
    ]) == 0
    err = capsys.readouterr().err
    assert "repro.atlas.sanitize probes sanitized" in err
    assert "kept=" in err

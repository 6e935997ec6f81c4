"""Observability-plane tests: trace stitching, histograms, exposition.

Covers the cross-process pieces layered on top of the base telemetry
subsystem (:mod:`tests.test_obs`): the ``TraceContext`` wire format and
its propagation through the worker pool, bucketed latency histograms
and their merge/subtract identities, the Prometheus text exposition and
its parser, and the serve app's flight recorder / slow-query plane.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.obs import (
    LATENCY_BOUNDS,
    MetricsRegistry,
    disable_telemetry,
    enable_telemetry,
    subtract_snapshots,
    telemetry,
    telemetry_snapshot,
)
from repro.obs.context import TraceContext, current_trace_context
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import OVERFLOW_LABEL
from repro.obs.recorder import FlightRecorder, SlowQueryLog

pytestmark = pytest.mark.obs

ATLAS_SCALE = dict(probes_per_as=4, years=0.3, cache=False)


@pytest.fixture(autouse=True)
def telemetry_off():
    enable_telemetry(reset=True)
    disable_telemetry()
    yield
    disable_telemetry()


@pytest.fixture(scope="module")
def scenario():
    from repro.workloads import build_atlas_scenario

    return build_atlas_scenario(seed=5, **ATLAS_SCALE)


@pytest.fixture()
def fan_out(monkeypatch):
    """Force the pool path on single-core hosts."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


# ---------------------------------------------------------------------------
# TraceContext wire format
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_header_round_trip(self):
        ctx = TraceContext(trace_id="0f3a9c2d11aa22bb", parent_span_id="1a2b-7")
        assert ctx.to_header() == "repro1-0f3a9c2d11aa22bb-1a2b-7"
        assert TraceContext.from_header(ctx.to_header()) == ctx
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_rootless_context_round_trips(self):
        ctx = TraceContext(trace_id="deadbeefdeadbeef")
        assert ctx.parent_span_id == ""
        assert TraceContext.from_header(ctx.to_header()) == ctx

    @pytest.mark.parametrize(
        "header", ["", "repro1", "repro2-abc-def", "nope-abc", "repro1--x"]
    )
    def test_malformed_header_raises(self, header):
        with pytest.raises(ValueError):
            TraceContext.from_header(header)

    def test_current_context_none_when_disabled(self):
        assert current_trace_context() is None

    def test_current_context_carries_open_span(self):
        from repro.obs import get_tracer, span

        with telemetry(True, reset=True):
            with span("outer") as outer:
                ctx = current_trace_context()
                assert ctx is not None
                assert ctx.trace_id == get_tracer().trace_id
                assert ctx.parent_span_id == outer.span_id


# ---------------------------------------------------------------------------
# Bucketed histograms: declaration, merge/subtract identities, cardinality
# ---------------------------------------------------------------------------


class TestBucketedHistograms:
    def test_observe_fills_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            registry.observe("lat", value)
        data = registry.snapshot()["histograms"]["lat"][""]
        assert data["bounds"] == [0.1, 1.0, math.inf]
        assert data["buckets"][0.1] == 1  # <= 0.1
        assert data["buckets"][1.0] == 2  # <= 1.0 (cumulative)
        assert data["buckets"][math.inf] == 3
        assert data["count"] == 3

    def test_subtract_then_merge_is_identity(self):
        """merge(before, subtract(after, before)) reproduces after."""
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (0.1, 1.0))
        registry.observe("lat", 0.05, kind="a")
        before = registry.snapshot()
        registry.observe("lat", 0.5, kind="a")
        registry.observe("lat", 2.0, kind="a")
        after = registry.snapshot()

        delta = subtract_snapshots(after, before)
        data = delta["histograms"]["lat"]["kind=a"]
        assert data["count"] == 2
        assert data["buckets"][0.1] == 0  # zero tallies kept: grid intact
        assert data["buckets"][1.0] == 1
        assert data["buckets"][math.inf] == 2

        parent = MetricsRegistry()
        parent.declare_histogram("lat", (0.1, 1.0))
        parent.merge(before)
        parent.merge(delta)
        merged = parent.snapshot()["histograms"]["lat"]["kind=a"]
        reference = after["histograms"]["lat"]["kind=a"]
        assert merged["count"] == reference["count"]
        assert merged["sum"] == reference["sum"]
        assert merged["buckets"] == reference["buckets"]

    def test_conflicting_redeclare_raises(self):
        registry = MetricsRegistry()
        registry.declare_histogram("lat", (0.1, 1.0))
        registry.observe("lat", 0.5)
        registry.declare_histogram("lat", (0.1, 1.0))  # same bounds: fine
        with pytest.raises(ValueError):
            registry.declare_histogram("lat", (0.2, 2.0))

    def test_latency_histograms_declared_on_enable(self):
        with telemetry(True, reset=True):
            from repro.obs import get_registry, metric_observe

            metric_observe("serve.query.seconds", 0.003, kind="stability")
            snap = get_registry().snapshot()
        data = snap["histograms"]["serve.query.seconds"]["kind=stability"]
        assert data["bounds"][:-1] == list(LATENCY_BOUNDS)
        assert data["count"] == 1

    def test_label_cardinality_caps_at_overflow(self):
        registry = MetricsRegistry(max_label_sets=3)
        for index in range(10):
            registry.inc("hits", kind=f"k{index}")
        series = registry.snapshot()["counters"]["hits"]
        labeled = [key for key in series if key not in ("", OVERFLOW_LABEL)]
        assert len(labeled) == 3
        assert series[OVERFLOW_LABEL] == 7
        assert registry.counter("hits") == 10  # unlabeled total unaffected


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


class TestPrometheusExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 3, tier="l1")
        registry.inc("cache.hits", 1)
        registry.set_gauge("pool.workers", 4)
        registry.declare_histogram("serve.query.seconds", (0.01, 0.1))
        registry.observe("serve.query.seconds", 0.05, kind="stability")
        registry.observe("stream.exp.seconds", 0.25)  # exponent → summary

        text = render_prometheus(registry.snapshot())
        families = parse_prometheus(text)

        hits = families[metric_name("cache.hits")]
        assert hits["type"] == "counter"
        assert hits["help"].endswith("cache.hits")
        by_labels = {tuple(sorted(l.items())): v for _, l, v in hits["samples"]}
        assert by_labels[()] == 4
        assert by_labels[(("tier", "l1"),)] == 3

        workers = families[metric_name("pool.workers")]
        assert workers["type"] == "gauge"
        assert workers["samples"][0][2] == 4

        query = families[metric_name("serve.query.seconds")]
        assert query["type"] == "histogram"
        buckets = {
            labels["le"]: value
            for name, labels, value in query["samples"]
            if name.endswith("_bucket")
        }
        assert buckets == {"0.01": 0, "0.1": 1, "+Inf": 1}
        sums = [v for n, _, v in query["samples"] if n.endswith("_sum")]
        assert sums == [pytest.approx(0.05)]

        exp = families[metric_name("stream.exp.seconds")]
        assert exp["type"] == "summary"
        assert not any(n.endswith("_bucket") for n, _, _ in exp["samples"])

    def test_overflow_series_visible(self):
        registry = MetricsRegistry(max_label_sets=1)
        registry.inc("hits", kind="a")
        registry.inc("hits", kind="b")
        text = render_prometheus(registry.snapshot())
        families = parse_prometheus(text)
        samples = families[metric_name("hits")]["samples"]
        overflow = [v for _, labels, v in samples if labels.get("overflow") == "true"]
        assert overflow == [1]

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        registry.inc("odd", where='a"b\\c')
        families = parse_prometheus(render_prometheus(registry.snapshot()))
        labeled = [
            labels for _, labels, _ in families[metric_name("odd")]["samples"] if labels
        ]
        assert labeled == [{"where": 'a"b\\c'}]

    def test_unparseable_line_raises(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("# HELP x y\n!!! not a sample\n")

    def test_content_type_pinned(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")


# ---------------------------------------------------------------------------
# Flight recorder + slow-query log
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_evicts_oldest_in_order(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record(f"q{index}", 0.001, trace_id=f"t{index}")
        entries = recorder.entries()
        assert [entry["name"] for entry in entries] == ["q6", "q7", "q8", "q9"]
        assert [entry["seq"] for entry in entries] == [7, 8, 9, 10]
        assert recorder.stats() == {
            "capacity": 4, "retained": 4, "recorded": 10, "evicted": 6,
        }
        assert [e["name"] for e in recorder.entries(limit=2)] == ["q8", "q9"]

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_slow_log_threshold_gates(self):
        log = SlowQueryLog(threshold_ms=10.0, capacity=4)
        assert log.observe("fast", 0.001) is None
        kept = log.observe("slow", 0.5, trace_id="abc", detail={"kind": "batch"})
        assert kept is not None and kept["trace_id"] == "abc"
        stats = log.stats()
        assert stats["seen"] == 1 and stats["retained"] == 1
        assert log.entries()[0]["detail"] == {"kind": "batch"}


# ---------------------------------------------------------------------------
# Cross-process stitching determinism
# ---------------------------------------------------------------------------


def _tree_shape(node):
    return (node["name"], tuple(_tree_shape(c) for c in node.get("children", ())))


def _pooled_build_snapshot(workers):
    from repro.workloads import build_atlas_scenario

    with telemetry(True, reset=True):
        build_atlas_scenario(seed=5, workers=workers, **ATLAS_SCALE)
        return telemetry_snapshot()


def _isp_stage(snap):
    """The ``collection/isp_simulations`` span under the build's root."""
    (root,) = snap["spans"]
    return next(
        child for child in root["children"]
        if child["name"] == "collection/isp_simulations"
    )


class TestStitching:
    def test_pool_spans_graft_under_parent(self, fan_out):
        snap = _pooled_build_snapshot(workers=2)
        assert len(snap["spans"]) == 1
        stage = _isp_stage(snap)
        tasks = [c for c in stage["children"] if c["name"] == "pool/task"]
        assert tasks, "pooled build produced no stitched worker spans"
        parent_pid = os.getpid()
        for task in tasks:
            # Worker-recorded spans carry the worker pid, not the parent's.
            assert task["attrs"]["worker"] != parent_pid
            assert task["attrs"]["kind"] == "isp_sim"
            assert task["attrs"]["trace_id"] == snap["trace_id"]
            assert task["attrs"]["parent_span_id"] == stage["span_id"]

    def test_worker_count_does_not_change_tree_shape(self, fan_out):
        shapes = {
            workers: [_tree_shape(r) for r in _pooled_build_snapshot(workers)["spans"]]
            for workers in (2, 3)
        }
        # Submission-order adoption: the stitched tree is identical no
        # matter how the tasks were scheduled across workers.
        assert shapes[2] == shapes[3]

    def test_serial_and_pooled_cover_same_work(self, fan_out):
        serial = _isp_stage(_pooled_build_snapshot(workers=1))
        pooled = _isp_stage(_pooled_build_snapshot(workers=2))
        assert not any(c["name"] == "pool/task" for c in serial.get("children", ()))
        pooled_tasks = sum(1 for c in pooled["children"] if c["name"] == "pool/task")
        assert serial["attrs"]["isps"] == pooled_tasks == pooled["attrs"]["isps"] > 0


def _spans_named(snap, name: str) -> list:
    found = []

    def walk(node):
        if node["name"] == name:
            found.append(node)
        for child in node.get("children", ()):
            walk(child)

    for root in snap["spans"]:
        walk(root)
    return found


class TestNetsimTelemetry:
    def test_per_isp_spans_under_the_simulation_stage(self):
        snap = _pooled_build_snapshot(workers=1)
        stage = _isp_stage(snap)
        children = [c for c in stage["children"] if c["name"] == "netsim/isp"]
        assert len(children) == stage["attrs"]["isps"] > 0
        assert len({child["attrs"]["asn"] for child in children}) == len(children)
        assert all(child["attrs"]["events"] > 0 for child in children)

    def test_event_counts_conserved_and_worker_invariant(self, fan_out):
        labelled = {}
        for workers in (1, 2):
            snap = _pooled_build_snapshot(workers)
            events = snap["metrics"]["counters"]["netsim.events"]
            kinds = {key: value for key, value in events.items() if key}
            spans = _spans_named(snap, "netsim/isp")
            assert sum(kinds.values()) == events[""]
            assert events[""] == sum(span["attrs"]["events"] for span in spans)
            assert len(spans) == _isp_stage(snap)["attrs"]["isps"]
            labelled[workers] = kinds
        assert labelled[1] == labelled[2]
        assert {"kind=v4", "kind=v6", "kind=reboot"} <= set(labelled[1])


# ---------------------------------------------------------------------------
# Serve observability plane
# ---------------------------------------------------------------------------


class TestServePlane:
    def test_query_echoes_and_records_trace(self, scenario):
        from repro.serve import ServeApp, observed_prefixes

        app = ServeApp(scenario, slow_query_ms=0.0)
        prefix = str(observed_prefixes(scenario, 4, 24, limit=1)[0])
        status, doc = app.handle(
            "POST", "/query",
            {"kind": "stability", "prefix": prefix, "trace_id": "ab12cd34ef56ab78"},
        )
        assert status == 200
        assert doc["trace_id"] == "ab12cd34ef56ab78"  # client id echoed

        status, doc = app.handle("GET", "/debug/trace")
        assert status == 200
        assert doc["stats"]["recorded"] == 1
        entry = doc["entries"][-1]
        assert entry["trace_id"] == "ab12cd34ef56ab78"
        assert entry["status"] == "ok"

        # slow_query_ms=0: every request crosses the threshold.
        status, doc = app.handle("GET", "/debug/slow?limit=1")
        assert status == 200
        assert doc["entries"][0]["trace_id"] == "ab12cd34ef56ab78"

    def test_request_trees_stay_out_of_the_tracer(self, scenario):
        from repro.obs import get_tracer
        from repro.serve import ServeApp, observed_prefixes

        prefix = str(observed_prefixes(scenario, 4, 24, limit=1)[0])
        payload = {"kind": "stability", "prefix": prefix}
        with telemetry(True, reset=True):
            app = ServeApp(scenario, flight_recorder=16)
            assert app.handle("POST", "/query", payload)[0] == 200  # builds the artifact
            roots = len(get_tracer().roots)
            for _ in range(1000):
                assert app.handle("POST", "/query", payload)[0] == 200
            assert len(get_tracer().roots) == roots
            status, doc = app.handle("GET", "/debug/trace")
        assert status == 200
        assert doc["stats"]["recorded"] == 1001
        assert [entry["seq"] for entry in doc["entries"]] == list(range(986, 1002))
        assert all(entry["spans"][0]["name"] == "serve/request" for entry in doc["entries"])

    def test_invalid_client_trace_id_replaced(self, scenario):
        from repro.serve import ServeApp, observed_prefixes

        app = ServeApp(scenario)
        prefix = str(observed_prefixes(scenario, 4, 24, limit=1)[0])
        status, doc = app.handle(
            "POST", "/query",
            {"kind": "stability", "prefix": prefix, "trace_id": "NOT HEX"},
        )
        assert status == 200
        assert doc["trace_id"] != "NOT HEX"
        int(doc["trace_id"], 16)  # server minted a fresh hex id

    def test_failed_query_recorded_as_error(self, scenario):
        from repro.serve import ServeApp

        app = ServeApp(scenario)
        status, doc = app.handle("POST", "/query", {"kind": "nope"})
        assert status == 400
        entries = app.recorder.entries()
        assert entries and entries[-1]["status"] == "error"

    def test_metrics_prometheus_format(self, scenario):
        from repro.serve import ServeApp, observed_prefixes

        with telemetry(True, reset=True):
            app = ServeApp(scenario)
            prefix = str(observed_prefixes(scenario, 4, 24, limit=1)[0])
            app.handle("POST", "/query", {"kind": "stability", "prefix": prefix})
            status, text = app.handle("GET", "/metrics?format=prometheus")
        assert status == 200
        assert isinstance(text, str)
        families = parse_prometheus(text)
        query = families[metric_name("serve.query.seconds")]
        assert query["type"] == "histogram"
        counts = [v for n, _, v in query["samples"] if n.endswith("_count")]
        assert sum(counts) >= 1
        status, doc = app.handle("GET", "/metrics?format=bogus")
        assert status == 400

    def test_status_process_block(self, scenario):
        from repro.perf.cache import code_fingerprint
        from repro.serve import ServeApp

        app = ServeApp(scenario)
        status, doc = app.handle("GET", "/status")
        assert status == 200
        process = doc["process"]
        assert process["pid"] == os.getpid()
        assert process["uptime_seconds"] >= 0.0
        assert process["code_fingerprint"] == code_fingerprint()
        assert process["flight_recorder"]["capacity"] == 64
        assert process["slow_queries"]["threshold_ms"] == 250.0

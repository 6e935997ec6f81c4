"""Serving-layer tests: query parity, registry LRU, batching, graph, API.

The serving contract has four legs:

1. **Parity** — every served answer (batched or sequential) is
   bit-identical to the direct pure-Python computation
   (:func:`repro.perf.verify.serve_diffs`).
2. **No recomputation** — warm (registry-hit) queries never re-run
   analysis, asserted via the ``serve.analysis.computes`` counter.
3. **Bounded memory** — the artifact registry enforces its byte budget
   with least-recently-used eviction.
4. **Concurrency** — threaded keep-alive clients get the same answers,
   a cold artifact is built once, and the counters stay conserved
   (hits + misses = batches, registry bytes = the sum of its entries).
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import random
import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.analysis_np import ChangeColumns, RunColumns
from repro.obs import get_registry, telemetry
from repro.perf.cache import CacheStats, iter_component_stats
from repro.perf.verify import serve_diffs
from repro.serve import (
    ArtifactRegistry,
    DualStackQuery,
    HitlistQuery,
    LifetimeQuery,
    ServeApp,
    ServeClient,
    StabilityQuery,
    QueryEngine,
    build_graph,
    make_server,
    compute_direct,
    load_graph,
    observed_prefixes,
    query_from_dict,
    query_to_dict,
    result_to_dict,
    write_graph,
)
from repro.serve import engine as engine_module
from repro.serve import server as server_module
from repro.serve.engine import PrefixIndex, _prefix_members, build_prefix_index
from repro.serve.graph import EDGE_KINDS, NODE_KINDS
from repro.serve.queries import MAX_HITLIST_BUDGET
from repro.serve.server import IDLE_TIMEOUT_S, MAX_BATCH_QUERIES, MAX_BODY_BYTES
from repro.stream.checkpoint import CheckpointStore
from repro.workloads import build_atlas_scenario

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(probes_per_as=4, years=0.5, seed=0, cache=False)


@pytest.fixture(scope="module")
def sample_queries(scenario):
    v4 = observed_prefixes(scenario, 4, 24, limit=3)
    v6 = observed_prefixes(scenario, 6, 64, limit=3)
    queries = [StabilityQuery(p) for p in v4 + v6]
    queries += [DualStackQuery(p) for p in v4 + v6]
    queries += [HitlistQuery(p, budget=8) for p in v6]
    queries += [StabilityQuery(p.supernet(56)) for p in v6]
    queries += [LifetimeQuery(name) for name in scenario.isps]
    # duplicates must coalesce to the same answer
    queries += [StabilityQuery(v4[0]), DualStackQuery(v6[0])]
    return queries


class TestQueryParity:
    def test_serve_diffs_empty(self, scenario):
        assert serve_diffs(scenario) == []

    def test_batched_equals_sequential(self, scenario, sample_queries):
        engine = QueryEngine(scenario)
        batched = engine.run_batch(sample_queries)
        sequential = [engine.run(query) for query in sample_queries]
        assert batched == sequential

    def test_batched_equals_direct(self, scenario, sample_queries):
        engine = QueryEngine(scenario)
        for query, served in zip(sample_queries, engine.run_batch(sample_queries)):
            assert served == compute_direct(scenario, query)

    def test_unobserved_prefix(self, scenario):
        from repro.ip import parse_prefix

        engine = QueryEngine(scenario)
        result = engine.run(StabilityQuery(parse_prefix("198.51.100.0/24")))
        assert result.probes_observed == 0
        assert result.stability_class == "unobserved"
        assert result == compute_direct(
            scenario, StabilityQuery(parse_prefix("198.51.100.0/24"))
        )

    def test_unknown_network_raises(self, scenario):
        engine = QueryEngine(scenario)
        with pytest.raises(ValueError, match="unknown network"):
            engine.run(LifetimeQuery("no-such-isp"))


def _arrays(obj):
    """Every ndarray reachable through public dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if not f.name.startswith("_"):
                yield from _arrays(getattr(obj, f.name))


def _word_columns(rng, family, n_probes=6, runs_per_probe=5):
    """Run and change columns whose words crowd both ends of the space."""
    bits = 32 if family == 4 else 64
    top = (1 << bits) - 1
    pool = [0, 1, top, top - 1, top ^ 0xFF, 1 << (bits - 1)]
    pool += [rng.getrandbits(bits) for _ in range(6)]
    words = [rng.choice(pool) for _ in range(n_probes * runs_per_probe)]
    first = np.array([rng.randrange(100) for _ in words], dtype=np.int64)
    column = np.array(words, dtype=np.uint64)
    zeros = np.zeros(len(words), dtype=np.uint64)
    cols = RunColumns(
        np.arange(0, len(words) + 1, runs_per_probe, dtype=np.int64),
        zeros if family == 4 else column,
        column if family == 4 else zeros,
        first,
        first + np.array([rng.randrange(50) for _ in words], dtype=np.int64),
        np.ones(len(words), dtype=np.int64),
        np.zeros(len(words), dtype=np.int64),
    )
    old = np.array([rng.choice(pool) for _ in range(40)], dtype=np.uint64)
    new = np.array([rng.choice(pool) for _ in range(40)], dtype=np.uint64)
    none = np.zeros(40, dtype=np.uint64)
    changes = ChangeColumns(
        np.zeros(40, dtype=np.int64),
        np.zeros(40, dtype=np.int64),
        none if family == 4 else old,
        old if family == 4 else none,
        none if family == 4 else new,
        new if family == 4 else none,
        np.zeros(40, dtype=np.int64),
    )
    return cols, changes, words, old.tolist(), new.tolist()


class TestPrefixIndex:
    """The sorted word index against a brute-force scan of the same columns."""

    def test_nbytes_is_the_sum_of_every_array(self, scenario):
        artifact = QueryEngine(scenario, registry=ArtifactRegistry()).artifact()
        columns = artifact.columns
        parts = (
            artifact.stats,
            columns.v4(),
            columns.v6(),
            columns.v6_prefix(),
            artifact.v4_index,
            artifact.v6_index,
        )
        assert artifact.nbytes == sum(a.nbytes for part in parts for a in _arrays(part))
        index_arrays = [a for index in parts[-2:] for a in _arrays(index)]
        fields = [f for f in dataclasses.fields(PrefixIndex) if f.name != "bits"]
        assert len(index_arrays) == 2 * len(fields)
        assert all(a.nbytes > 0 for a in index_arrays)

    def test_index_is_read_only(self, scenario):
        artifact = QueryEngine(scenario, registry=ArtifactRegistry()).artifact()
        for array in _arrays(artifact.v6_index):
            with pytest.raises(ValueError):
                array[:1] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            artifact.v4_index.bits = 0

    @pytest.mark.parametrize("family", [4, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_word_ranges_match_brute_force(self, family, seed):
        rng = random.Random(seed)
        cols, changes, words, old, new = _word_columns(rng, family)
        index = build_prefix_index(cols, changes, family)
        bits = index.bits
        top = (1 << bits) - 1
        ranges = []
        for plen in (1, 1, bits // 2, bits - 8, bits - 1, bits):
            for word in (0, top, rng.choice(words), rng.getrandbits(bits)):
                lo = word & ~((1 << (bits - plen)) - 1) & top
                ranges.append((lo, lo | ((1 << (bits - plen)) - 1)))
        ranges += ranges[:3]  # repeats
        stats = SimpleNamespace(
            n_probes=cols.n_probes, dual=np.arange(cols.n_probes) % 2 == 0
        )
        members = _prefix_members(
            index,
            stats,
            np.array([lo for lo, _ in ranges], dtype=np.uint64),
            np.array([hi for _, hi in ranges], dtype=np.uint64),
        )
        spans = (cols.last - cols.first + 1).tolist()
        probe_of = cols.probe_of_run().tolist()
        bounds = members.member_bounds
        for slot, (lo, hi) in enumerate(ranges):
            inside = [r for r, word in enumerate(words) if lo <= word <= hi]
            probes = sorted({probe_of[r] for r in inside})
            assert members.probes[bounds[slot]:bounds[slot + 1]].tolist() == probes
            assert members.hours[slot] == sum(spans[r] for r in inside)
            assert members.dual[slot] == sum(1 for p in probes if p % 2 == 0)
            assert members.changes[slot] == sum(
                1 for a, b in zip(old, new) if lo <= a <= hi or lo <= b <= hi
            )


class TestWarmQueries:
    def test_warm_queries_never_recompute(self, scenario, sample_queries):
        registry = ArtifactRegistry(name="warm-test")
        with telemetry(True, reset=True):
            engine = QueryEngine(scenario, registry=registry)
            engine.run_batch(sample_queries)
            computes_cold = get_registry().counter("serve.analysis.computes")
            for query in sample_queries[:4]:
                engine.run(query)
            engine.run_batch(sample_queries[:6])
            computes_warm = get_registry().counter("serve.analysis.computes")
        assert computes_cold == 1
        assert computes_warm == 1  # warm queries hit the registry only
        assert registry.stats.misses == 1
        assert registry.stats.hits >= 5

    def test_shared_registry_across_engines(self, scenario):
        registry = ArtifactRegistry(name="shared-test")
        with telemetry(True, reset=True):
            first = QueryEngine(scenario, registry=registry)
            second = QueryEngine(scenario, registry=registry)
            first.run(LifetimeQuery(next(iter(scenario.isps))))
            second.run(LifetimeQuery(next(iter(scenario.isps))))
            assert get_registry().counter("serve.analysis.computes") == 1


class TestArtifactRegistry:
    def test_lru_eviction_order(self):
        registry = ArtifactRegistry(budget_bytes=100, name="lru-test")
        registry.put("a", "A", 40)
        registry.put("b", "B", 40)
        assert registry.get("a") == "A"  # refresh: b is now LRU
        registry.put("c", "C", 40)
        assert "b" not in registry
        assert registry.get("a") == "A"
        assert registry.get("c") == "C"
        assert registry.stats.evictions == 1

    def test_byte_budget_enforced(self):
        registry = ArtifactRegistry(budget_bytes=100, name="budget-test")
        for index in range(10):
            registry.put(f"k{index}", index, 30)
            assert registry.total_bytes <= 100
        assert len(registry) == 3  # 3 * 30 <= 100 < 4 * 30

    def test_oversized_entry_admitted_alone(self):
        registry = ArtifactRegistry(budget_bytes=100, name="oversize-test")
        registry.put("small", 1, 10)
        registry.put("huge", 2, 500)
        assert "small" not in registry
        assert registry.get("huge") == 2
        assert len(registry) == 1

    def test_replacement_updates_bytes(self):
        registry = ArtifactRegistry(budget_bytes=100, name="replace-test")
        registry.put("a", 1, 60)
        registry.put("a", 2, 30)
        assert registry.total_bytes == 30
        assert registry.get("a") == 2

    def test_miss_counts(self):
        registry = ArtifactRegistry(budget_bytes=10, name="miss-test")
        assert registry.get("nope") is None
        assert registry.stats.misses == 1
        with pytest.raises(ValueError):
            ArtifactRegistry(budget_bytes=0)

    def test_concurrent_puts_keep_the_byte_total(self):
        registry = ArtifactRegistry(budget_bytes=100, name="threaded-lru-test")

        def churn(seed):
            rng = random.Random(seed)
            for _ in range(2000):
                key = f"k{rng.randrange(12)}"
                if registry.get(key) is None:
                    registry.put(key, key, rng.randrange(1, 40))

        _run_threads(churn, 4)
        held = sum(nbytes for _, nbytes in registry._entries.values())
        assert registry.total_bytes == held <= 100
        stats = registry.stats
        assert stats.hits + stats.misses == 4 * 2000

    def test_failed_build_leaves_the_key_buildable(self):
        registry = ArtifactRegistry(name="failed-build-test")

        def failing():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            registry.get_or_build("k", failing)
        assert registry.get_or_build("k", lambda: ("built", 8)) == "built"
        assert registry.get_or_build("k", failing) == "built"  # a hit
        assert (registry.stats.hits, registry.stats.misses, registry.stats.puts) == (1, 2, 1)


def _run_threads(target, count):
    """Run ``target(i)`` on ``count`` threads released together; join them.

    The interpreter switches threads every 10 µs meanwhile, so a
    read-modify-write without its lock loses updates.
    """
    barrier = threading.Barrier(count)

    def run(index):
        barrier.wait(60)
        target(index)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


class TestSingleFlight:
    def test_concurrent_cold_calls_build_once(self, scenario, monkeypatch):
        build = engine_module.build_scenario_artifact

        def slow_build(*args):
            time.sleep(0.2)  # every caller misses before the build ends
            return build(*args)

        monkeypatch.setattr(engine_module, "build_scenario_artifact", slow_build)
        registry = ArtifactRegistry(name="single-flight-test")
        engine = QueryEngine(scenario, registry=registry)
        artifacts = []
        with telemetry(True, reset=True):
            _run_threads(lambda _: artifacts.append(engine.artifact()), 6)
            computes = get_registry().counter("serve.analysis.computes")
        assert computes == 1
        assert len(artifacts) == 6 and all(a is artifacts[0] for a in artifacts)
        assert registry.stats.hits + registry.stats.misses == 6
        assert registry.stats.puts == 1


class TestStatsProtocol:
    def test_cache_stats_as_dict(self):
        stats = CacheStats(hits=1, misses=2, puts=3, errors=4, evictions=5)
        assert stats.as_dict() == {
            "hits": 1, "misses": 2, "puts": 3, "errors": 4, "evictions": 5,
        }

    def test_registry_reports_component_stats(self):
        registry = ArtifactRegistry(name="stats-proto-test")
        registry.get("missing")
        rows = {
            (component, identity): stats
            for component, identity, stats in iter_component_stats()
        }
        stats = rows[("artifact-registry", "stats-proto-test")]
        assert stats.misses >= 1

    def test_checkpoint_store_reports_component_stats(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        key = store.key("np", "stream-1", {"chunk": 16})
        assert store.load("np", key) is None
        store.save("np", key, {"state": 1})
        assert store.load("np", key) == {"state": 1}
        rows = {
            (component, identity): stats
            for component, identity, stats in iter_component_stats()
        }
        stats = rows[("checkpoint-store", str(store.directory))]
        assert stats.misses == 1 and stats.hits == 1 and stats.puts == 1


class TestWireFormat:
    def test_query_round_trip(self, scenario):
        v6 = observed_prefixes(scenario, 6, 64, limit=1)[0]
        queries = [
            StabilityQuery(v6),
            LifetimeQuery("DTAG"),
            DualStackQuery(v6.supernet(56)),
            HitlistQuery(v6, budget=4, seed=2),
        ]
        for query in queries:
            assert query_from_dict(query_to_dict(query)) == query

    def test_result_is_json_encodable(self, scenario, sample_queries):
        engine = QueryEngine(scenario)
        for result in engine.run_batch(sample_queries):
            document = result_to_dict(result)
            assert json.loads(json.dumps(document)) == document

    def test_bad_queries_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            query_from_dict({"kind": "nope"})
        with pytest.raises(ValueError, match="hitlist"):
            query_from_dict({"kind": "hitlist", "prefix": "192.0.2.0/24"})
        with pytest.raises(ValueError, match="/64"):
            query_from_dict({"kind": "stability", "prefix": "2001:db8::/80"})


class TestKnowledgeGraph:
    def test_round_trip_counts(self, scenario, tmp_path):
        graph = build_graph(scenario)
        path = write_graph(graph, tmp_path / "graph.jsonl")
        loaded = load_graph(path)
        assert loaded.node_counts() == graph.node_counts()
        assert loaded.edge_counts() == graph.edge_counts()
        assert loaded.nodes == graph.nodes
        assert loaded.edges == graph.edges

    def test_graph_shape(self, scenario):
        graph = build_graph(scenario)
        node_kinds = set(graph.node_counts())
        edge_kinds = set(graph.edge_counts())
        assert node_kinds <= set(NODE_KINDS)
        assert edge_kinds == set(EDGE_KINDS)
        node_ids = {node["id"] for node in graph.nodes}
        assert len(node_ids) == len(graph.nodes)  # unique ids
        for edge in graph.edges:
            assert edge["src"] in node_ids and edge["dst"] in node_ids
        # one stability classification per AS and family
        classified = graph.edge_counts()["CLASSIFIED_AS"]
        assert classified == 2 * len(scenario.isps)
        assert graph.node_counts()["as"] == len(scenario.isps)

    def test_graph_deterministic(self, scenario):
        first = build_graph(scenario)
        second = build_graph(scenario)
        assert first.nodes == second.nodes
        assert first.edges == second.edges


class TestServeApp:
    def test_health_and_query(self, scenario):
        client = ServeClient(app=ServeApp(scenario))
        health = client.health()
        assert health["status"] == "ok"
        assert health["probes"] == len(scenario.probes)
        v4 = observed_prefixes(scenario, 4, 24, limit=1)[0]
        result = client.query({"kind": "stability", "prefix": str(v4)})
        assert result == result_to_dict(compute_direct(scenario, StabilityQuery(v4)))

    def test_batch_endpoint(self, scenario):
        client = ServeClient(app=ServeApp(scenario))
        v4 = observed_prefixes(scenario, 4, 24, limit=2)
        payloads = [{"kind": "stability", "prefix": str(p)} for p in v4]
        payloads.append({"kind": "lifetime", "network": next(iter(scenario.isps))})
        results = client.query_batch(payloads)
        assert [r["kind"] for r in results] == ["stability", "stability", "lifetime"]
        singles = [client.query(p) for p in payloads]
        assert results == singles

    def test_metrics_and_status(self, scenario):
        with telemetry(True, reset=True):
            app = ServeApp(scenario, registry=ArtifactRegistry(name="app-test"))
            client = ServeClient(app=app)
            client.query({"kind": "lifetime", "network": next(iter(scenario.isps))})
            metrics = client.metrics()
            assert metrics["counters"]["serve.queries"]
            rows = client.status()
        assert any(row["component"] == "artifact-registry" for row in rows)
        for row in rows:
            assert {"component", "identity", "hits", "misses"} <= set(row)

    def test_error_paths(self, scenario):
        client = ServeClient(app=ServeApp(scenario))
        status, document = client.request("GET", "/nope")
        assert status == 404
        status, document = client.request("POST", "/query", {"kind": "nope"})
        assert status == 400 and "unknown query kind" in document["error"]
        status, document = client.request(
            "POST", "/query", {"kind": "lifetime", "network": "no-such"}
        )
        assert status == 400 and "unknown network" in document["error"]

    @pytest.mark.parametrize(
        "payload, error",
        [
            ({"kind": "stability"}, "'prefix'"),
            ({"kind": "dualstack"}, "'prefix'"),
            ({"kind": "hitlist"}, "'prefix'"),
            ({"kind": "lifetime"}, "'network'"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "budget": None}, "budget"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "budget": [8]}, "budget"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "budget": 8.5}, "budget"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "budget": True}, "budget"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "seed": "1"}, "seed"),
            ({"kind": "hitlist", "prefix": "2001:db8::/48", "budget": 0}, "budget"),
            (
                {"kind": "hitlist", "prefix": "2001:db8::/48", "budget": MAX_HITLIST_BUDGET + 1},
                "budget",
            ),
        ],
    )
    def test_malformed_query_gets_400(self, scenario, payload, error):
        app = ServeApp(scenario)
        status, document = app.handle("POST", "/query", payload)
        assert status == 400 and error in document["error"]
        status, document = app.handle("POST", "/query", {"queries": [payload]})
        assert status == 400 and error in document["error"]

    def test_batch_queries_must_be_a_list(self, scenario):
        status, document = ServeApp(scenario).handle("POST", "/query", {"queries": 3})
        assert status == 400 and "list" in document["error"]

    def test_largest_hitlist_budget_is_served(self, scenario):
        v6 = observed_prefixes(scenario, 6, 64, limit=1)[0]
        payload = {"kind": "hitlist", "prefix": str(v6), "budget": MAX_HITLIST_BUDGET}
        status, document = ServeApp(scenario).handle("POST", "/query", payload)
        assert status == 200 and document["result"]["budget"] == MAX_HITLIST_BUDGET

    def test_client_needs_exactly_one_target(self, scenario):
        with pytest.raises(ValueError):
            ServeClient()
        with pytest.raises(ValueError):
            ServeClient(app=ServeApp(scenario), base_url="http://localhost:1")


@contextlib.contextmanager
def _serving(app):
    """A running :func:`make_server` on a free port; shut down on exit."""
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="class")
def http_address(scenario):
    with _serving(ServeApp(scenario)) as server:
        yield server.server_address[:2]


def _post_status(address, content_length: str, body: bytes = b"") -> list:
    """Send a raw ``POST /query``; the reply's status line, split in words.

    The socket timeout bounds the wait, so a handler that hangs or
    drops the connection without answering fails the caller's assert.
    """
    head = (
        "POST /query HTTP/1.1\r\nHost: test\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("ascii")
    reply = b""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(head + body)
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply.split(b"\r\n", 1)[0].decode("latin-1").split()


class TestHttpBody:
    """Malformed ``POST`` bodies get a status line, never a hang or silence."""

    @pytest.mark.parametrize(
        "content_length, body, status",
        [
            ("abc", b"{}", "400"),
            ("2", b"\xff\xfe", "400"),  # not UTF-8
            ("-1", b"{}", "400"),
            # Only the headers are sent: the answer must not wait for
            # the declared gigabyte.
            (str(1 << 30), b"", "413"),
        ],
        ids=["non-integer-length", "non-utf8-body", "negative-length", "oversized-length"],
    )
    def test_malformed_body_gets_status(self, http_address, content_length, body, status):
        assert _post_status(http_address, content_length, body)[1:2] == [status]

    def test_malformed_query_gets_400(self, http_address):
        for payload in ({"kind": "lifetime"}, {"queries": [{"kind": "stability"}]}):
            body = json.dumps(payload).encode()
            assert _post_status(http_address, str(len(body)), body)[1:2] == ["400"]

    def test_oversized_batch_refused_before_parsing(self, http_address):
        # Each entry is an invalid query: had any been parsed, the reply
        # would be 400, not 413.
        body = json.dumps({"queries": [{}] * (MAX_BATCH_QUERIES + 1)}).encode()
        assert _post_status(http_address, str(len(body)), body)[1:2] == ["413"]
        body = json.dumps({"queries": [{}] * MAX_BATCH_QUERIES}).encode()
        assert _post_status(http_address, str(len(body)), body)[1:2] == ["400"]


def _connection(address) -> http.client.HTTPConnection:
    return http.client.HTTPConnection(*address, timeout=30)


def _exchange(conn, method, path, payload=None):
    """One request on ``conn``: ``(response, parsed JSON document)``."""
    body = json.dumps(payload).encode() if payload is not None else None
    conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response, json.loads(response.read())


class TestKeepAlive:
    """HTTP/1.1 framing: kept-alive sockets, refusals that close them."""

    def test_requests_reuse_one_socket(self, http_address, scenario):
        payload = {"kind": "lifetime", "network": next(iter(scenario.isps))}
        conn = _connection(http_address)
        try:
            first, _ = _exchange(conn, "POST", "/query", payload)
            sock = conn.sock
            second, _ = _exchange(conn, "GET", "/healthz")
            assert (first.status, second.status) == (200, 200)
            assert first.version == 11 and not first.will_close
            assert sock is not None and conn.sock is sock
        finally:
            conn.close()

    def test_refusal_sends_connection_close(self, http_address):
        head = (
            "POST /query HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode("ascii")
        reply = b""
        with socket.create_connection(http_address, timeout=5) as sock:
            sock.sendall(head)
            while True:  # the server closes after the reply: recv reads EOF
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        status, _, rest = reply.partition(b"\r\n")
        headers = rest.split(b"\r\n\r\n", 1)[0].lower().split(b"\r\n")
        assert status.split()[1] == b"413"
        assert b"connection: close" in headers

    def test_fresh_connection_after_refusal_succeeds(self, http_address):
        conn = _connection(http_address)
        try:
            conn.request(
                "POST", "/query", body=b"",
                headers={"Content-Length": str(MAX_BODY_BYTES + 1)},
            )
            refused = conn.getresponse()
            refused.read()
            assert refused.status == 413 and refused.will_close
            response, document = _exchange(conn, "GET", "/healthz")  # reconnects
            assert response.status == 200 and document["status"] == "ok"
        finally:
            conn.close()

    def test_sequential_singles_are_not_held_by_nagle(self, http_address, scenario):
        # Headers and body leave in two sends; with Nagle's algorithm on,
        # each reply waits ~40 ms for the client's delayed ACK (>= 2 s here).
        v4 = observed_prefixes(scenario, 4, 24, limit=1)[0]
        payload = {"kind": "stability", "prefix": str(v4)}
        conn = _connection(http_address)
        try:
            _exchange(conn, "POST", "/query", payload)  # builds the artifact
            sock = conn.sock
            start = time.perf_counter()
            for _ in range(50):
                assert _exchange(conn, "POST", "/query", payload)[0].status == 200
            elapsed = time.perf_counter() - start
            assert conn.sock is sock
        finally:
            conn.close()
        assert elapsed < 1.0

    def test_shutdown_returns_with_an_idle_connection_open(self, scenario):
        with _serving(ServeApp(scenario)) as server:
            conn = _connection(server.server_address[:2])
            response, _ = _exchange(conn, "GET", "/healthz")
            assert response.status == 200 and not response.will_close
            start = time.perf_counter()
        elapsed = time.perf_counter() - start
        conn.close()
        assert elapsed < IDLE_TIMEOUT_S / 3

    def test_connections_over_the_limit_get_503(self, scenario, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", 2)
        with _serving(ServeApp(scenario)) as server:
            address = server.server_address[:2]
            held = [_connection(address) for _ in range(2)]
            for conn in held:  # idle kept-alive connections hold their slots
                assert _exchange(conn, "GET", "/healthz")[0].status == 200
            extra = _connection(address)
            response, document = _exchange(extra, "GET", "/healthz")
            extra.close()
            assert response.status == 503 and response.will_close
            assert response.getheader("Connection") == "close"
            assert "limit of 2 connections" in document["error"]
            assert _exchange(held[0], "GET", "/healthz")[0].status == 200
            held[1].close()
            deadline = time.perf_counter() + 5
            while True:  # the slot frees once the server reads the close
                conn = _connection(address)
                status = _exchange(conn, "GET", "/healthz")[0].status
                conn.close()
                if status == 200 or time.perf_counter() > deadline:
                    break
                time.sleep(0.01)
            held[0].close()
        assert status == 200


@pytest.fixture()
def connects(monkeypatch) -> list:
    """Every ``http.client`` connect made while the test runs."""
    made = []
    real = http.client.HTTPConnection.connect

    def counting(conn):
        made.append(conn)
        return real(conn)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return made


class TestServeClientKeepAlive:
    """The HTTP ``ServeClient`` holds one connection and reopens it when closed."""

    @staticmethod
    def _payload(scenario) -> dict:
        return {"kind": "stability", "prefix": str(observed_prefixes(scenario, 4, 24, limit=1)[0])}

    def test_queries_reuse_one_connection(self, http_address, scenario, connects):
        client = ServeClient(base_url="http://%s:%d" % http_address)
        payload = self._payload(scenario)
        try:
            answers = [client.query(payload) for _ in range(50)]
        finally:
            client.close()
        assert len(connects) == 1
        assert answers == [ServeClient(app=ServeApp(scenario)).query(payload)] * 50

    def test_query_after_a_refusal_succeeds(self, http_address, scenario, connects):
        client = ServeClient(base_url="http://%s:%d" % http_address)
        payload = self._payload(scenario)
        try:
            status, document = client.request(
                "POST", "/query", {"queries": [{}] * (MAX_BATCH_QUERIES + 1)}
            )
            assert status == 413 and "exceeds" in document["error"]
            assert client.query(payload)["kind"] == "stability"
            assert client.query(payload)["kind"] == "stability"
        finally:
            client.close()
        assert len(connects) == 2  # the refusal closed the first connection

    def test_connection_closed_while_idle_is_reopened(self, scenario, connects, monkeypatch):
        monkeypatch.setattr(server_module._Handler, "timeout", 0.2)
        with _serving(ServeApp(scenario)) as server:
            client = ServeClient(base_url="http://%s:%d" % server.server_address[:2])
            try:
                assert client.health()["status"] == "ok"
                time.sleep(0.6)  # past the idle timeout: the server closes the socket
                assert client.health()["status"] == "ok"
            finally:
                client.close()
        assert len(connects) == 2


class TestThreadedServing:
    """Concurrent keep-alive clients on a cold server (ROADMAP item 2)."""

    def test_threaded_clients_match_the_engine(self, scenario, sample_queries):
        threads, rounds, batch = 8, 3, 32
        payloads = [query_to_dict(query) for query in sample_queries]
        reference = QueryEngine(scenario, registry=ArtifactRegistry(name="stress-ref"))
        expected = [
            json.loads(json.dumps(result_to_dict(result)))
            for result in reference.run_batch(sample_queries)
        ]
        n = len(payloads)
        registry = ArtifactRegistry(name="stress-test")
        failures = []

        def client(cid):
            conn = _connection(address)
            try:
                for r in range(rounds):
                    for k in range(7):
                        i = (cid * 7 + r * 8 + k) % n
                        response, document = _exchange(conn, "POST", "/query", payloads[i])
                        if response.status != 200 or document["result"] != expected[i]:
                            failures.append((cid, i, response.status, document))
                    idxs = [(cid + r + k) % n for k in range(batch)]
                    response, document = _exchange(
                        conn, "POST", "/query", {"queries": [payloads[i] for i in idxs]}
                    )
                    if response.status != 200 or document["results"] != [
                        expected[i] for i in idxs
                    ]:
                        failures.append((cid, idxs, response.status, document))
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                failures.append((cid, repr(exc)))
            finally:
                conn.close()

        with telemetry(True, reset=True):
            with _serving(ServeApp(scenario, registry=registry)) as server:
                address = server.server_address[:2]
                _run_threads(client, threads)
                conn = _connection(address)
                response, metrics = _exchange(conn, "GET", "/metrics")
                conn.close()
        assert failures == []
        assert response.status == 200
        counters = {name: series[""] for name, series in metrics["counters"].items()}
        batches = counters["serve.batches"]
        assert batches == threads * rounds * 8
        assert counters["serve.analysis.computes"] == 1
        assert (
            counters.get("serve.registry.hits", 0) + counters["serve.registry.misses"]
            == batches
        )
        held = sum(nbytes for _, nbytes in registry._entries.values())
        assert registry.total_bytes == held > 0

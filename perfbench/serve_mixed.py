"""serve-mixed: the shipped HTTP server under a closed loop of two clients.

Set-up builds the scenario in process and precomputes every expected
answer with an in-process :class:`repro.serve.QueryEngine`, then starts
``python -m repro serve --port 0`` on the same scenario and seed, waits
for ``GET /healthz`` and warms the cold artifact with one query.  Two
client threads (one per core of the reference host) then each send their
next request only when the previous reply has arrived: seven single
queries, then one batch of 32, over and over, in slices of ``SLICE_S``.
Replies are kept and compared with the expected answers after the
measured window.

The server speaks HTTP/1.0 and closes the connection after each reply,
so each client's connection object reconnects for every request.
"""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import sys
import threading
import time

from common import (
    FAMILIES,
    MIB,
    family_of,
    median,
    query_pool,
    summary,
    tail,
    wire_answer,
)

#: ``full`` serves the bench_baseline FULL_SCALE atlas.  The server is
#: started ``starts`` times and the last one is measured, so set-up time
#: is a median.
SCALES = {
    "full": {"probes_per_as": 20, "years": 2.0, "pool": 400, "starts": 3},
    "tiny": {"probes_per_as": 2, "years": 0.3, "pool": 40, "starts": 1},
}
CLIENTS = 2
BATCH = 32
ROUND = 8  # requests per client round: seven singles, then one batch
#: The window runs in slices this long, with the host-speed kernel
#: timed on the idle machine between them.
SLICE_S = 2.0
START_TIMEOUT_S = 150.0
HEADERS = {"Content-Type": "application/json"}
_ADDRESS = re.compile(r"serving on http://([^:/\s]+):(\d+)")


class Server:
    """One ``repro serve`` child process; :meth:`stop` always reaps it."""

    def __init__(self, ctx, scale: dict, index: int) -> None:
        self.ctx = ctx
        self.scale = scale
        self.log_path = ctx.scratch / f"server-{index}.log"
        self.proc = None
        self._log = None
        self.host = None
        self.port = None

    def start(self) -> None:
        args = [
            sys.executable, "-u", "-m", "repro", "serve", "-q",
            "--port", "0", "--no-cache", "--workers", "1",
            "--probes-per-as", str(self.scale["probes_per_as"]),
            "--years", str(self.scale["years"]),
            "--seed", str(self.ctx.seed),
            "--slow-query-ms", "1e9",
        ]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            args, cwd=self.ctx.root, env=self.ctx.env,
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        # The address line comes after the scenario build; read it on a
        # thread so a server that never prints cannot hang the benchmark.
        lines = []
        reader = threading.Thread(
            target=lambda: lines.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(START_TIMEOUT_S)
        match = _ADDRESS.search(lines[0]) if lines else None
        if match is None:
            raise RuntimeError(
                f"server did not report its address (stdout {lines!r}, "
                f"log: {self.log_path.read_text(errors='replace')[-2000:]})"
            )
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered GET /healthz")
            time.sleep(0.02)

    def request(self, method: str, path: str, body: bytes = None):
        """``(status, parsed JSON document)`` of one request."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=HEADERS if body else {})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def warm(self) -> None:
        """Answer one query, which builds the cold serving artifact."""
        networks = self.request("GET", "/healthz")[1]["networks"]
        body = json.dumps({"kind": "lifetime", "network": networks[0]}).encode()
        status, document = self.request("POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"warm-up query failed ({status}): {document}")

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self._log is not None:
            self._log.close()
            self._log = None


class Reference:
    """The in-process scenario, query pool and expected answers."""

    def __init__(self, ctx, scale: dict) -> None:
        from repro.serve import QueryEngine, query_to_dict
        from repro.workloads import build_atlas_scenario

        span = ctx.tracer.span
        with span("atlas.build"):
            self.scenario = build_atlas_scenario(
                probes_per_as=scale["probes_per_as"], years=scale["years"],
                seed=ctx.seed, workers=1, cache=False,
            )
        self.pool = query_pool(self.scenario, ctx.seed, scale["pool"])
        self.engine = QueryEngine(self.scenario)
        with span("serve.artifact_build"):
            self.engine.artifact()
        self.results = [self.engine.run(query) for query in self.pool]
        self.expected = [wire_answer(result) for result in self.results]
        if ctx.ledger.reference_fault:
            self.expected[0] = {"kind": "corrupted"}
        self.dicts = [query_to_dict(query) for query in self.pool]
        n = len(self.pool)
        self.single_bodies = [json.dumps(d).encode() for d in self.dicts]
        self.batch_bodies = [
            json.dumps({"queries": [self.dicts[(c + k) % n] for k in range(BATCH)]}).encode()
            for c in range(n)
        ]


def _client(server: Server, ref: Reference, state: dict, stop_at: float, tracer, records: list):
    """One closed-loop client: the next request goes out when a reply is in.

    ``state`` carries the client's place in the pool and in its round of
    seven singles and a batch from one slice of the window to the next.
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    n = len(ref.pool)
    try:
        while time.perf_counter() < stop_at:
            cursor, index = state["cursor"], state["index"]
            if index % ROUND == ROUND - 1:
                idxs = [(cursor + k) % n for k in range(BATCH)]
                body = ref.batch_bodies[cursor]
                state["cursor"] = (cursor + BATCH) % n
            else:
                idxs = [cursor]
                body = ref.single_bodies[cursor]
                state["cursor"] = (cursor + 1) % n
            with tracer.span("serve.client_request"):
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/query", body=body, headers=HEADERS)
                    response = conn.getresponse()
                    raw, status = response.read(), response.status
                except (OSError, http.client.HTTPException) as exc:
                    raw, status = repr(exc).encode(), None
                    conn.close()
                done = time.perf_counter()
            records.append((state["cid"], index, index % ROUND == ROUND - 1, idxs,
                            status, raw, sent, done))
            state["index"] = index + 1
    finally:
        conn.close()


def _closed_loop(server: Server, ref: Reference, seconds: float, tracer, speed):
    """Run the clients for ``seconds`` in slices of ``SLICE_S``.

    Between slices the clients pause while the host-speed kernel runs on
    an idle machine; each reply's time is scaled by the factor of its
    slice.  Returns the records (each with its scaled latency appended)
    and the scaled length of the window.
    """
    n = len(ref.pool)
    states = [{"cid": cid, "cursor": (cid * n) // CLIENTS, "index": 0}
              for cid in range(CLIENTS)]
    records: list = []
    window = scaled_window = 0.0
    speed.mark()
    while window < seconds:
        part: list = []
        start = time.perf_counter()
        stop_at = start + min(SLICE_S, seconds - window)
        threads = [
            threading.Thread(target=_client, args=(server, ref, state, stop_at, tracer, part))
            for state in states
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(SLICE_S + 120)
            if thread.is_alive():
                raise RuntimeError("a client did not finish")
        elapsed = max([record[7] for record in part], default=stop_at) - start
        factor = speed.scale(1.0)
        window += elapsed
        scaled_window += elapsed * factor
        records += [record + ((record[7] - record[6]) * factor,) for record in part]
    return records, scaled_window


def _verify(ledger, ref: Reference, records: list) -> None:
    for _cid, _index, batch, idxs, status, raw, *_times in records:
        ledger.attempt()
        if status != 200:
            ledger.fail(f"request got status {status}: {raw[:200]!r}")
            continue
        try:
            document = json.loads(raw)
            got = document["results"] if batch else [document["result"]]
        except (ValueError, KeyError) as exc:
            ledger.fail(f"unreadable reply: {exc!r}")
            continue
        ledger.check(
            got == [ref.expected[j] for j in idxs],
            "reply differs from the in-process QueryEngine answer",
        )


def _stats(records: list, window_s: float) -> dict:
    """Scaled latencies and throughput of one window."""
    singles = [r[8] for r in records if not r[2]]
    batches = [r[8] for r in records if r[2]]
    answered = sum(len(r[3]) for r in records if r[4] == 200)
    rounds = {}
    for record in records:
        rounds.setdefault((record[0], record[1] // ROUND), []).append(record[8])
    # A closed-loop client sends its round's requests back to back, so a
    # round takes the sum of their latencies.
    round_s = [sum(parts) for parts in rounds.values() if len(parts) == ROUND]
    return {"singles": singles, "batches": batches, "rounds": round_s,
            "qps": answered / window_s}


def _counters(server: Server) -> dict:
    status, snapshot = server.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics failed ({status})")
    return {name: series.get("", 0) for name, series in snapshot["counters"].items()}


def run(ctx):
    scale = SCALES[ctx.scale]
    ledger, tracer = ctx.ledger, ctx.tracer
    tracer.enabled = ctx.trace
    speed = ctx.speed
    # The expected answers first, alone: the host-speed kernel must not
    # share the machine with the server's start-up.
    speed.mark()
    start = time.perf_counter()
    ref = Reference(ctx, scale)
    ref_s = speed.scale(time.perf_counter() - start)
    servers = []
    start_times = []
    try:
        for index in range(scale["starts"]):
            server = Server(ctx, scale, index)
            servers.append(server)
            speed.mark()
            start = time.perf_counter()
            server.start()
            server.warm()
            start_times.append(speed.scale(time.perf_counter() - start))
            if index + 1 < scale["starts"]:
                server.stop()
        tracer.enabled = False

        if not ctx.trace:
            records, window = _closed_loop(server, ref, ctx.seconds, tracer, speed)
        else:
            half = ctx.seconds / 2
            records, window = _closed_loop(server, ref, half, tracer, speed)
            tracer.enabled = True
            traced_records, traced_window = _closed_loop(server, ref, half, tracer, speed)
            tracer.enabled = False
        counters = _counters(server)
        status, status_doc = server.request("GET", "/status")
        if status != 200:
            raise RuntimeError(f"GET /status failed ({status})")
        server_peak_mb = status_doc["process"]["peak_rss_bytes"] / MIB
    finally:
        for server in servers:
            server.stop()

    _verify(ledger, ref, records)
    if ctx.trace:
        _verify(ledger, ref, traced_records)
    hits = counters.get("serve.registry.hits", 0)
    misses = counters.get("serve.registry.misses", 0)
    ledger.attempt(2)
    ledger.check(
        hits + misses == counters.get("serve.batches", 0),
        f"registry hits {hits} + misses {misses} != batches "
        f"{counters.get('serve.batches', 0)}",
    )
    ledger.check(
        counters.get("serve.analysis.computes", 0) == 1,
        f"serve.analysis.computes = {counters.get('serve.analysis.computes', 0)}, not 1",
    )

    stats = _stats(records, window)
    if not ctx.trace:
        tail_pct, tail_s = tail(stats["singles"])
        metrics = {
            "setup_s": ref_s + median(start_times),
            "iteration_s": median(stats["rounds"]),
            "op1_ms": median(stats["singles"]) * 1e3,
            "op2_ms": median(stats["batches"]) * 1e3,
            "op3_ms": tail_s * 1e3,
            "op4_ms": 1e6 / stats["qps"],
            "peak_rss_mb": server_peak_mb,
        }
        detail = {
            "serve_qps": stats["qps"],
            "serve_single_ms": summary(stats["singles"], 1e3),
            "serve_batch_ms": summary(stats["batches"], 1e3),
            "round_s": summary(stats["rounds"]),
            "serve_peak_rss_mb": server_peak_mb,
            "setup_s": {"reference": ref_s, "server_starts": start_times},
            "single_tail_percentile": tail_pct,
            "counters": {k: v for k, v in counters.items() if k.startswith("serve.")},
        }
        return metrics, detail
    return _traced_metrics(ctx, ref, stats, _stats(traced_records, traced_window), counters)


def _traced_metrics(ctx, ref: Reference, plain: dict, traced: dict, counters: dict):
    """In-process per-layer timings over the same pool, plus the counters."""
    from repro.obs import telemetry
    from repro.serve import ServeApp, query_from_dict, result_to_dict

    ledger, tracer = ctx.ledger, ctx.tracer
    span = tracer.span
    tracer.enabled = True
    engine = ref.engine
    for query in ref.pool:
        with span(f"serve.engine.{family_of(query)}"):
            engine.run(query)
    n = len(ref.pool)
    for start in range(0, n, BATCH):
        batch = [ref.pool[(start + k) % n] for k in range(BATCH)]
        with span("serve.engine.batch32"):
            engine.run_batch(batch)
    for payload, result in zip(ref.dicts, ref.results):
        with span("serve.wire"):
            query_from_dict(payload)
            json.dumps(result_to_dict(result))
    # The server runs with telemetry on; so does this in-process app.
    with telemetry(True):
        app = ServeApp(ref.scenario, registry=engine.registry, key=engine.key,
                       slow_query_ms=1e9)
        for payload, expected in zip(ref.dicts, ref.expected):
            ledger.attempt()
            with span("serve.app"):
                status, document = app.handle("POST", "/query", dict(payload))
            ledger.check(
                status == 200 and wire_answer_dict(document) == expected,
                "in-process ServeApp answer differs from the QueryEngine answer",
            )
    tracer.enabled = False

    def ms(name):
        return median(tracer.durations(name)) * 1e3

    app_ms = ms("serve.app")
    hits = counters.get("serve.registry.hits", 0)
    misses = counters.get("serve.registry.misses", 0)
    metrics = {
        f"serve.engine.{family}_ms": ms(f"serve.engine.{family}") for family in FAMILIES
    }
    metrics.update({
        "atlas.build_s": median(tracer.durations("atlas.build")),
        "serve.artifact_build_s": median(tracer.durations("serve.artifact_build")),
        "serve.engine.batch32_ms": ms("serve.engine.batch32"),
        "serve.wire_ms": ms("serve.wire"),
        "serve.app_ms": app_ms,
        "serve.transport_ms": median(plain["singles"]) * 1e3 - app_ms,
        "serve.registry_hit_ratio": hits / (hits + misses),
        "serve.analysis_computes": counters.get("serve.analysis.computes", 0),
        "trace.overhead_ratio": median(traced["singles"]) / median(plain["singles"]),
    })
    detail = {
        "single_ms": {"untraced": summary(plain["singles"], 1e3),
                      "traced": summary(traced["singles"], 1e3)},
        "qps": {"untraced": plain["qps"], "traced": traced["qps"]},
    }
    return metrics, detail


def wire_answer_dict(document: dict) -> dict:
    """The answer in an in-process ``ServeApp`` reply, as it reads off the wire."""
    return json.loads(json.dumps(document["result"]))

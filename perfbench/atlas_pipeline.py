"""atlas-pipeline: the cold real path, serial, one client.

One iteration builds the Atlas scenario (ISP simulation, probe
collection, sanitize), runs the report op several times (drop the column
packs, repack, fused report, fused periodicity), builds the serving
artifact cold and answers one batch of the query mix, and replays the
scenario through the streaming engine.  Everything runs serially in this
process with the scenario cache off; no HTTP server, store or process
pool is involved, so this workload bypasses those layers.
"""

from __future__ import annotations

import gc
import pickle
import random
import time

from common import (
    cold_import_s,
    cpu_count,
    median,
    peak_rss_mb,
    query_pool,
    summary,
    wire_answer,
)

#: ``full`` is the bench_baseline FULL_SCALE atlas (20 probes per AS,
#: 2 years, 11 ISPs).  One report op takes about 0.1 s, so it repeats
#: within each iteration to give its median enough samples.
SCALES = {
    "full": {"probes_per_as": 20, "years": 2.0, "report_reps": 8, "pool": 200},
    "tiny": {"probes_per_as": 2, "years": 0.3, "report_reps": 2, "pool": 20},
}
CHUNK_HOURS = 720
MIN_ITERATIONS = 2
SETUP_REPEATS = 5
IMPORTS = "import repro.workloads, repro.serve, repro.stream"
#: Networks per run whose fused artifacts are recomputed by the py
#: reference (the full py report takes about 17 s at full scale).
PY_CHECKED_NETWORKS = 2


def _artifacts(analysis, periods) -> tuple:
    """The comparable content of one report: four artifacts and the periods."""
    return (analysis.table1, analysis.table2, analysis.figure1, analysis.figure5,
            tuple(periods))


def _stream_artifacts(streamed) -> tuple:
    analysis = streamed.analysis
    return (analysis.table1, analysis.table2, analysis.figure1, analysis.figure5,
            (streamed.v4_periods, streamed.v6_periods))


def _iterate(ctx, scale: dict, pool: list, on_chunk=None) -> dict:
    """One pipeline iteration: timings of each operation plus its outputs.

    ``pool`` is filled with the query mix on the first call (untimed).
    """
    from repro.serve import ArtifactRegistry, QueryEngine
    from repro.workloads import (
        analyze_atlas_scenario,
        build_atlas_scenario,
        periodicity_for_scenario,
        stream_analyze_atlas_scenario,
    )

    span = ctx.tracer.span
    speed = ctx.speed
    it = {"report_s": [], "reports": []}
    speed.mark()
    start = time.perf_counter()
    with span("atlas.build"):
        scenario = build_atlas_scenario(
            probes_per_as=scale["probes_per_as"], years=scale["years"],
            seed=ctx.seed, workers=1, cache=False,
        )
    it["build_s"] = speed.scale(time.perf_counter() - start)
    # The scenario lives through the iteration: freeze it, so the
    # collector's full passes over it, which land in whichever later
    # operation the seed's allocation count picks, stay out of them.
    gc.freeze()
    for _ in range(scale["report_reps"]):
        start = time.perf_counter()
        with span("core.report_op"):
            scenario.invalidate_analysis_columns()
            with span("core.pack"):
                # The pack is lazy; build its three run columns here so
                # the span times the packing rather than a handle.
                columns = scenario.analysis_columns(None, engine="fused")
                columns.v4(), columns.v6(), columns.v6_prefix()
            with span("core.report"):
                analysis = analyze_atlas_scenario(scenario, engine="fused")
            with span("core.periodicity"):
                periods = periodicity_for_scenario(scenario, engine="fused")
        it["report_s"].append(speed.scale(time.perf_counter() - start))
        it["reports"].append(_artifacts(analysis, periods))
    if not pool:
        pool.extend(query_pool(scenario, ctx.seed, scale["pool"]))
        speed.mark()
    start = time.perf_counter()
    with span("serve.query_op"):
        engine = QueryEngine(scenario, registry=ArtifactRegistry(name="perfbench"))
        with span("serve.artifact_build"):
            engine.artifact()
        artifact_s = time.perf_counter() - start
        with span("serve.engine.batch"):
            answers = engine.run_batch(pool)
    elapsed = time.perf_counter() - start
    it["query_s"] = speed.scale(elapsed)
    it["artifact_s"] = it["query_s"] * artifact_s / elapsed
    start = time.perf_counter()
    with span("stream.atlas_replay"):
        streamed = stream_analyze_atlas_scenario(
            scenario, chunk_hours=CHUNK_HOURS, on_chunk=on_chunk
        )
    it["stream_s"] = speed.scale(time.perf_counter() - start)
    it["pipeline_s"] = (
        it["build_s"] + sum(it["report_s"]) + it["query_s"] + it["stream_s"]
    )
    it["runs_seen"] = streamed.stats.runs_seen
    it.update(scenario=scenario, engine=engine, answers=answers, streamed=streamed)
    return it


class Reference:
    """The first iteration's outputs, which every later one must reproduce."""

    def __init__(self, it: dict, pool: list, fault: bool) -> None:
        self.report = it["scenario"].report
        self.probes = len(it["scenario"].probes)
        self.artifacts = it["reports"][0]
        # One query at a time: the batched answers must equal these.
        self.answers = [wire_answer(it["engine"].run(query)) for query in pool]
        if fault:
            self.answers[0] = {"kind": "corrupted"}


def _verify(ledger, it: dict, ref: Reference) -> int:
    """Check one iteration; returns how many ops matched the fused artifacts."""
    scenario = it["scenario"]
    ledger.check(
        scenario.report == ref.report and len(scenario.probes) == ref.probes,
        "build: sanitized scenario differs from the first iteration",
    )
    matched = 0
    for artifacts in it["reports"]:
        matched += ledger.check(
            artifacts == ref.artifacts,
            "report op: fused artifacts differ from the first iteration",
        )
    ledger.check(
        [wire_answer(answer) for answer in it["answers"]] == ref.answers,
        "query op: batched answers differ from one-at-a-time answers",
    )
    matched += ledger.check(
        _stream_artifacts(it["streamed"]) == ref.artifacts,
        "stream replay: artifacts differ from the fused report",
    )
    return matched


def _py_reference_matches(scenario, ref: Reference, seed: int) -> bool:
    """Do the fused artifacts of a seed-chosen subset of networks equal the
    pure-Python reference kernels' (the ``engine="py"`` report path)?"""
    from repro.core.report import (
        figure1_for_as,
        figure5_for_as,
        periodic_networks,
        table1_row,
        table2_row,
    )

    names = sorted(scenario.isps)
    chosen = random.Random(seed).sample(names, min(PY_CHECKED_NETWORKS, len(names)))
    table1, table2, figure1, figure5, (v4_periods, v6_periods) = ref.artifacts
    probes_by_network = {}
    for name in chosen:
        isp = scenario.isps[name]
        probes = scenario.probes_in(isp.asn)
        probes_by_network[name] = probes
        if (
            table1[name] != table1_row(name, isp.asn, isp.config.country, probes, engine="py")
            or table2[name] != table2_row(probes, scenario.table, engine="py")
            or figure1[name] != figure1_for_as(name, probes, engine="py")
            or figure5[name] != figure5_for_as(probes, engine="py")
        ):
            return False
    py_v4, py_v6 = periodic_networks(probes_by_network, tolerance=1.0, min_probes=3, engine="py")
    return all(
        fused.get(name) == py.get(name)
        for fused, py in ((v4_periods, py_v4), (v6_periods, py_v6))
        for name in chosen
    )


def run(ctx):
    scale = SCALES[ctx.scale]
    ledger, tracer = ctx.ledger, ctx.tracer
    ops = 3 + scale["report_reps"]  # build, report ops, query op, stream replay
    setup_s = median(
        [cold_import_s(ctx.root, ctx.env, IMPORTS, ctx.speed) for _ in range(SETUP_REPEATS)]
    )

    pool: list = []
    ref = None
    matched = 0
    timings = []  # (traced, timing dict) per completed iteration
    stream_state = {}

    def keep_engine(engine, chunk):
        stream_state["engine"] = engine

    py_ok = True
    last_scenario = None
    measured = 0.0
    index = 0
    while index < MIN_ITERATIONS or measured < ctx.seconds:
        # Each iteration starts from a collected heap.  The last
        # iteration froze its scenario; unfreezing lets it be freed.
        gc.unfreeze()
        gc.collect()
        # A traced run alternates untraced and traced iterations, so the
        # tracing overhead is measured within the run.
        traced = ctx.trace and index % 2 == 1
        tracer.enabled = traced
        ledger.attempt(ops)
        start = time.perf_counter()
        try:
            it = _iterate(ctx, scale, pool, keep_engine if traced else None)
        except Exception as exc:  # an iteration that raises fails all its ops
            ledger.fail(f"iteration raised {exc!r}", ops)
            measured += time.perf_counter() - start
            index += 1
            continue
        finally:
            tracer.enabled = False
        measured += time.perf_counter() - start
        if ref is None:
            ref = Reference(it, pool, ledger.reference_fault)
            py_ok = _py_reference_matches(it["scenario"], ref, ctx.seed)
        matched += _verify(ledger, it, ref)
        timings.append((traced, {key: it[key] for key in (
            "build_s", "report_s", "artifact_s", "query_s", "stream_s", "pipeline_s",
            "runs_seen")}))
        if ctx.trace:
            last_scenario = it["scenario"]
        del it
        index += 1
    if ref is None:
        raise RuntimeError("no atlas-pipeline iteration completed")
    peak = peak_rss_mb()
    if not py_ok:
        ledger.fail("fused artifacts differ from the py reference", matched)

    plain = [t for traced, t in timings if not traced]
    pipeline = [t["pipeline_s"] for t in plain]
    if not ctx.trace:
        report = [s for t in plain for s in t["report_s"]]
        stream = [t["stream_s"] for t in plain]
        # The sanitized scenario's size varies with the seed by about
        # 10%, so the report, serving and replay slots are times per 100k
        # of its echo runs (every iteration of a run builds the same
        # scenario, so one count serves all of them).  The build's cost
        # follows the simulated probe-hours, which the seed does not move.
        per_kept_ms = 1e5 / plain[0]["runs_seen"] * 1e3
        metrics = {
            "setup_s": setup_s,
            "iteration_s": median(pipeline),
            "op1_ms": median(report) * per_kept_ms,
            "op2_ms": median(stream) * per_kept_ms,
            "op3_ms": median([t["query_s"] for t in plain]) * per_kept_ms,
            "op4_ms": median([t["build_s"] for t in plain]) * 1e3,
            "peak_rss_mb": peak,
        }
        detail = {
            "echo_runs": plain[0]["runs_seen"],
            "pipeline_s": summary(pipeline),
            "report_s": summary(report),
            "stream_runs_per_s": median(
                [t["runs_seen"] / t["stream_s"] for t in plain]
            ),
            "artifact_s": summary([t["artifact_s"] for t in plain]),
            "query_s": summary([t["query_s"] for t in plain]),
            "build_s": summary([t["build_s"] for t in plain]),
            "pipeline_peak_rss_mb": peak,
            "setup_s": setup_s,
        }
        return metrics, detail
    return _traced_metrics(ctx, scale, ref, pool, timings, last_scenario, stream_state)


def _traced_metrics(ctx, scale, ref, pool, timings, scenario, stream_state):
    """Per-layer numbers from the traced iterations plus three probes:
    a second sanitize, a pooled build, and one telemetry-on iteration."""
    from repro.atlas.sanitize import sanitize
    from repro.obs import telemetry
    from repro.workloads import build_atlas_scenario

    ledger, tracer = ctx.ledger, ctx.tracer
    plain = [t["pipeline_s"] for traced, t in timings if not traced]
    traced_runs = [t["pipeline_s"] for traced, t in timings if traced]
    builds = [t["build_s"] for _, t in timings]

    tracer.enabled = True
    ledger.attempt(2)
    start = time.perf_counter()
    with tracer.span("atlas.sanitize"):
        _, report = sanitize(scenario.raw_probes, scenario.table)
    sanitize_s = time.perf_counter() - start
    ledger.check(report == ref.report, "sanitize: a second run differs from the build")
    workers = cpu_count()
    start = time.perf_counter()
    with tracer.span("atlas.build_pooled"):
        pooled = build_atlas_scenario(
            probes_per_as=scale["probes_per_as"], years=scale["years"],
            seed=ctx.seed, workers=workers, cache=False,
        )
    pooled_s = time.perf_counter() - start
    tracer.enabled = False
    ledger.check(
        pooled.report == ref.report and len(pooled.probes) == ref.probes,
        f"build: workers={workers} differs from the serial build",
    )
    del pooled

    ledger.attempt(3 + scale["report_reps"])
    with telemetry(True, reset=True):
        with_telemetry = _iterate(ctx, scale, pool)
    _verify(ledger, with_telemetry, ref)

    build_s = median(tracer.durations("atlas.build"))
    metrics = {
        "atlas.build_s": build_s,
        "atlas.sanitize_s": sanitize_s,
        "atlas.collect_s": build_s - sanitize_s,
        "atlas.probes_kept_ratio": len(scenario.probes) / len(scenario.raw_probes),
        "core.pack_s": median(tracer.durations("core.pack")),
        "core.report_s": median(tracer.durations("core.report")),
        "core.periodicity_s": median(tracer.durations("core.periodicity")),
        "stream.atlas_replay_s": median(tracer.durations("stream.atlas_replay")),
        "stream.atlas_state_bytes": len(pickle.dumps(
            stream_state["engine"].state_dict(), protocol=pickle.HIGHEST_PROTOCOL
        )),
        "serve.artifact_build_s": median(tracer.durations("serve.artifact_build")),
        "perf.parallel.atlas_build_speedup": median(builds) / pooled_s,
        "obs.telemetry_on_ratio": with_telemetry["pipeline_s"] / median(plain),
        "trace.overhead_ratio": median(traced_runs) / median(plain),
    }
    detail = {
        "iterations": {"untraced": len(plain), "traced": len(traced_runs)},
        "pipeline_s": {"untraced": summary(plain), "traced": summary(traced_runs),
                       "telemetry_on": with_telemetry["pipeline_s"]},
        "pooled_build": {"workers": workers, "seconds": pooled_s},
    }
    return metrics, detail

"""cdn-store: the paper's scale path over a synthetic CDN feed.

One iteration writes the feed into a sharded store, analyzes the store
out of core, replays it through the store-driven association stream in
7-day windows, and runs the in-RAM NumPy association kernels over the
same feed.  Store build and analyze use one worker per core, so this is
the only workload with ``repro.perf.parallel`` pools on the timed path;
it never touches the Atlas simulation or the query service.
"""

from __future__ import annotations

import gc
import shutil
import time

from common import (
    RssPeak,
    cold_import_s,
    cpu_count,
    median,
    peak_rss_mb,
    summary,
)

#: Rows of the synthetic feed.  Stream replay costs about 2 s per
#: million rows on the reference host, so a million keeps several
#: iterations inside one run.
SCALES = {
    "full": {"tuples": 1_000_000, "batch_rows": 1 << 16, "shards": 16},
    "tiny": {"tuples": 20_000, "batch_rows": 1 << 12, "shards": 4},
}
DAYS = 120
CHUNK_DAYS = 7
MIN_ITERATIONS = 2
SETUP_REPEATS = 5
IMPORTS = (
    "import numpy, repro.store, repro.stream.associations, "
    "repro.core.associations_np, repro.core.delegation"
)


def _feed(ctx, scale: dict):
    """The seed's synthetic feed.  Key pools scale with the row count as
    bench_baseline scales them (1M rows: 2k /24s and 20k /64s)."""
    from repro.store import synthetic_triple_batches

    n = scale["tuples"]
    return synthetic_triple_batches(
        n, batch_rows=scale["batch_rows"], seed=ctx.seed, days=DAYS,
        v4_pool=max(8, n // 500), v6_pool=max(64, n // 50),
    )


def _materialize(ctx, scale: dict):
    """The feed as three in-RAM columns with the store's dtypes."""
    import numpy as np

    from repro.store import normalize_columns

    parts = [normalize_columns(*batch) for batch in _feed(ctx, scale)]
    days, v4, v6 = (np.concatenate([part[i] for part in parts]) for i in range(3))
    return days.astype(np.int64), v4, v6


def _inram(days, v4, v6) -> dict:
    """Section-5 artifacts from the in-RAM NumPy association kernels."""
    import numpy as np

    from repro.core.associations_np import (
        association_durations_np,
        box_stats_np,
        degree_count_arrays,
    )
    from repro.core.delegation import trailing_zero_profile_np

    durations = association_durations_np(days, v4, v6)
    values, counts = np.unique(durations, return_counts=True)
    v4_keys, v4_unique, v4_hits = degree_count_arrays(v4, v6)
    v6_keys, v6_unique, _hits = degree_count_arrays(v6, v4)
    return {
        "duration_counts": dict(zip(values.tolist(), counts.tolist())),
        "box": box_stats_np(durations, empty_ok=True),
        "v4": (v4_keys, v4_unique, v4_hits),
        "v6": (v6_keys, v6_unique),
        "fraction_one": (
            int(np.count_nonzero(v6_unique == 1)) / len(v6_unique) if len(v6_unique) else 0.0
        ),
        "delegation": trailing_zero_profile_np(v6_keys),
    }


def _same_inram(a: dict, b: dict) -> bool:
    import numpy as np

    return (
        a["duration_counts"] == b["duration_counts"]
        and a["box"] == b["box"]
        and a["fraction_one"] == b["fraction_one"]
        and a["delegation"] == b["delegation"]
        and all(np.array_equal(x, y) for x, y in zip(a["v4"] + a["v6"], b["v4"] + b["v6"]))
    )


def _analysis_matches(analysis, ref: dict) -> bool:
    import numpy as np

    return (
        analysis.duration_counts == ref["duration_counts"]
        and analysis.box == ref["box"]
        and all(np.array_equal(x, y) for x, y in zip(
            (analysis.v4_keys, analysis.v4_unique, analysis.v4_hits,
             analysis.v6_keys, analysis.v6_unique),
            ref["v4"] + ref["v6"],
        ))
        and analysis.fraction_v6_degree_one == ref["fraction_one"]
        and analysis.delegation == ref["delegation"]
    )


def _stream_matches(streamed, ref: dict, tuples: int) -> bool:
    v4_keys, v4_unique, v4_hits = (array.tolist() for array in ref["v4"])
    v6_keys, v6_unique = (array.tolist() for array in ref["v6"])
    return (
        streamed.triples_seen == tuples
        and dict(streamed.durations) == ref["duration_counts"]
        and streamed.box == ref["box"]
        and streamed.v4_unique == dict(zip(v4_keys, v4_unique))
        and streamed.v4_hits == dict(zip(v4_keys, v4_hits))
        and streamed.v6_degrees == {key << 64: count for key, count in zip(v6_keys, v6_unique)}
        and streamed.fraction_v6_degree_one == ref["fraction_one"]
    )


def _iterate(ctx, scale: dict, columns, workers: int, directory) -> dict:
    """One pass: build, analyze, stream replay, in-RAM kernels."""
    from repro.store import analyze_store, build_store_from_columns
    from repro.stream import run_association_stream_over_store

    span = ctx.tracer.span
    speed = ctx.speed
    it = {}
    speed.mark()
    start = time.perf_counter()
    with span("store.build"):
        store = build_store_from_columns(
            _feed(ctx, scale), directory, shards=scale["shards"], workers=workers
        )
    it["build_s"] = speed.scale(time.perf_counter() - start)
    start = time.perf_counter()
    with span("store.analyze"):
        analysis = analyze_store(store, workers=workers)
    it["analyze_s"] = speed.scale(time.perf_counter() - start)
    start = time.perf_counter()
    with span("stream.store_replay"):
        streamed = run_association_stream_over_store(store, chunk_days=CHUNK_DAYS)
    it["stream_s"] = speed.scale(time.perf_counter() - start)
    start = time.perf_counter()
    with span("core.assoc_inram"):
        inram = _inram(*columns)
    it["inram_s"] = speed.scale(time.perf_counter() - start)
    it["pass_s"] = it["build_s"] + it["analyze_s"] + it["stream_s"] + it["inram_s"]
    it.update(store=store, analysis=analysis, streamed=streamed, inram=inram)
    return it


def _verify(ledger, it: dict, ref: dict, digest: str, tuples: int) -> None:
    ledger.check(
        it["store"].total_triples == tuples and it["store"].digest() == digest,
        "store build: contents differ from the first iteration",
    )
    ledger.check(_analysis_matches(it["analysis"], ref),
                 "analyze_store differs from the in-RAM kernels")
    ledger.check(_stream_matches(it["streamed"], ref, tuples),
                 "stream replay differs from the in-RAM kernels")
    ledger.check(_same_inram(it["inram"], ref), "in-RAM kernels differ from the first iteration")


def run(ctx):
    scale = SCALES[ctx.scale]
    ledger, tracer = ctx.ledger, ctx.tracer
    tuples = scale["tuples"]
    workers = cpu_count()
    import_s = median(
        [cold_import_s(ctx.root, ctx.env, IMPORTS, ctx.speed) for _ in range(SETUP_REPEATS)]
    )
    materialize_s = []
    for _ in range(SETUP_REPEATS):
        ctx.speed.mark()
        start = time.perf_counter()
        columns = _materialize(ctx, scale)
        materialize_s.append(ctx.speed.scale(time.perf_counter() - start))
    setup_s = import_s + median(materialize_s)

    ref = None
    digest = None
    timings = []
    measured = 0.0
    index = 0
    while index < MIN_ITERATIONS or measured < ctx.seconds:
        # As in atlas-pipeline: collect, then freeze older objects.
        gc.collect()
        gc.freeze()
        traced = ctx.trace and index % 2 == 1
        tracer.enabled = traced
        directory = ctx.scratch / f"store-{index}"
        ledger.attempt(4)
        start = time.perf_counter()
        try:
            it = _iterate(ctx, scale, columns, workers, directory)
        except Exception as exc:  # an iteration that raises fails all its ops
            ledger.fail(f"iteration raised {exc!r}", 4)
            shutil.rmtree(directory, ignore_errors=True)
            measured += time.perf_counter() - start
            index += 1
            continue
        finally:
            tracer.enabled = False
        measured += time.perf_counter() - start
        if ref is None:
            ref = dict(it["inram"])
            digest = it["store"].digest()
            if ledger.reference_fault:
                ref["duration_counts"] = {**ref["duration_counts"], -1: 1}
        _verify(ledger, it, ref, digest, tuples)
        timings.append((traced, {k: it[k] for k in (
            "build_s", "analyze_s", "stream_s", "inram_s", "pass_s")}))
        del it
        shutil.rmtree(directory, ignore_errors=True)
        index += 1
    if ref is None:
        raise RuntimeError("no cdn-store iteration completed")
    peak = peak_rss_mb()

    plain = [t for traced, t in timings if not traced]

    def per_million_ms(key):
        return median([t[key] for t in plain]) / tuples * 1e6 * 1e3

    if not ctx.trace:
        metrics = {
            "setup_s": setup_s,
            "iteration_s": median([t["pass_s"] for t in plain]),
            "op1_ms": per_million_ms("build_s"),
            "op2_ms": per_million_ms("analyze_s"),
            "op3_ms": per_million_ms("stream_s"),
            "op4_ms": per_million_ms("inram_s"),
            "peak_rss_mb": peak,
        }
        detail = {
            "tuples": tuples,
            "workers": workers,
            "pass_s": summary([t["pass_s"] for t in plain]),
            **{
                f"{name}_tuples_per_s": tuples / median([t[key] for t in plain])
                for name, key in (
                    ("store_build", "build_s"),
                    ("store_analyze", "analyze_s"),
                    ("store_stream", "stream_s"),
                    ("assoc_inram", "inram_s"),
                )
            },
            "peak_rss_mb": peak,
            "setup_s": {"import": import_s, "materialize": materialize_s},
        }
        return metrics, detail
    return _traced_metrics(ctx, scale, timings, digest, ref, workers)


def _traced_metrics(ctx, scale, timings, digest, ref, workers):
    """Per-layer numbers from the traced passes plus serial probes of the
    same calls: feed generation alone, a one-worker build and analyze
    (the analyze also under an RSS sampler, which must not run across
    the pooled analyze's fork), and the 7-day window gathers alone."""
    from repro.store import analyze_store, build_store_from_columns

    ledger, tracer = ctx.ledger, ctx.tracer
    tuples = scale["tuples"]
    plain = [t for traced, t in timings if not traced]
    traced_runs = [t for traced, t in timings if traced]

    tracer.enabled = True
    start = time.perf_counter()
    with tracer.span("store.gen"):
        for _batch in _feed(ctx, scale):
            pass
    gen_s = time.perf_counter() - start
    directory = ctx.scratch / "store-serial"
    ledger.attempt(2)
    start = time.perf_counter()
    with tracer.span("store.build_serial"):
        store = build_store_from_columns(
            _feed(ctx, scale), directory, shards=scale["shards"], workers=1
        )
    serial_build_s = time.perf_counter() - start
    ledger.check(store.digest() == digest, "one-worker store build differs from the pooled build")
    start = time.perf_counter()
    with tracer.span("store.analyze_serial"), RssPeak() as rss:
        analysis = analyze_store(store, workers=1)
    serial_analyze_s = time.perf_counter() - start
    ledger.check(_analysis_matches(analysis, ref), "one-worker analyze differs from the in-RAM kernels")
    last_day = store.day_max if store.day_max is not None else 0
    start = time.perf_counter()
    with tracer.span("stream.store_gather"):
        for index in range(last_day // CHUNK_DAYS + 1):
            store.day_window_columns(index * CHUNK_DAYS, (index + 1) * CHUNK_DAYS)
    gather_s = time.perf_counter() - start
    tracer.enabled = False
    bytes_per_tuple = store.nbytes / store.total_triples
    shutil.rmtree(directory, ignore_errors=True)

    build_s = median(tracer.durations("store.build"))
    analyze_s = median(tracer.durations("store.analyze"))
    metrics = {
        "store.gen_s": gen_s,
        "store.build_s": build_s,
        "store.bytes_per_tuple": bytes_per_tuple,
        "store.analyze_s": analyze_s,
        "store.analyze_rss_delta_mb": rss.delta_mb,
        "stream.store_gather_s": gather_s,
        "stream.store_fold_s": median(tracer.durations("stream.store_replay")) - gather_s,
        "core.assoc_inram_s": median(tracer.durations("core.assoc_inram")),
        "perf.parallel.store_build_speedup": serial_build_s / build_s,
        "perf.parallel.store_analyze_speedup": serial_analyze_s / analyze_s,
        "trace.overhead_ratio": (
            median([t["pass_s"] for t in traced_runs]) / median([t["pass_s"] for t in plain])
        ),
    }
    detail = {
        "tuples": tuples,
        "workers": workers,
        "passes": {"untraced": len(plain), "traced": len(traced_runs)},
        "serial_s": {"build": serial_build_s, "analyze": serial_analyze_s},
    }
    return metrics, detail

"""Scenario-build and analysis baseline: time, verify, record.

Runs a downscaled Atlas + CDN scenario build serially and with a worker
pool, verifies the parallel results are bit-identical to the serial
ones, exercises a cache round-trip in a throwaway directory, then times
the full Section 3/5 analysis stack (Table 1, Figure 1, Figure 5,
Table 2, periodicity detection) under both analysis engines (``py``
reference vs ``fused``), asserts the two produce bit-identical
artifacts, replays the same scenario through the chunked streaming
engine (asserting batch parity, recording throughput and sampled peak
RSS, and checking the checkpointable state stays bounded as the stream
grows), builds and analyzes a synthetic sharded memmap triple store
out-of-core (gating build/analyze throughput and the analyzer's peak
RSS against a fraction of what materializing the same tuples as Python
triples would cost, plus a ``--workers`` build of the same feed that
must produce a byte-identical digest and — in full mode, where at
least two workers run — beat the serial build by ``--min-store-build-speedup``
in tuples/s, and a 7-day-window stream replay of the store checked
against the out-of-core analysis), times the end-to-end report suite (all artifacts
plus periodicity) under the single-pass ``fused`` engine — enforcing
bit-identity with the ``py`` reference and recording its peak-RSS
delta — exercises the ``repro.serve``
query engine (cold-vs-warm artifact latency, batched-vs-sequential
coalescing on 64 queries with a ``--min-serve-speedup`` gate in full
mode, and a served-vs-direct parity sweep over every query family on
every run), gates the observability plane (the analysis with telemetry
disabled at most ``--max-obs-overhead``, default 1.05x, slower than
the same analysis with the telemetry helpers stubbed out, plus
cross-process stitched-trace invariance of a pooled scenario build)
— and, with ``--output PATH``, writes the run's record there as
``{"bench_baseline": payload}``.  Without ``--output`` nothing is
written: ``scripts.bench_report`` compares this script's ``--check``
records against a base commit's, run on the same host.

Where at least two workers actually run (``effective_workers``, the
requested ``--workers`` clamped to the cores and work units), full mode
*asserts* the parallel build speedup (default ``--min-speedup 2.0``);
on a single-core box the speedup is recorded but not enforced, since
no amount of process fan-out can beat the hardware.  The analysis speedup (default
``--min-analysis-speedup 3.0`` on Table 1) *is* enforced in full mode
regardless of core count — vectorization does not need extra cores.

Usage::

    PYTHONPATH=src python -m scripts.bench_baseline           # full baseline
    PYTHONPATH=src python -m scripts.bench_baseline --check   # CI smoke mode

``--check`` shrinks the scales to finish in a few seconds and skips the
speedup assertions while still enforcing determinism, engine parity and
the cache round-trip — the properties CI can check on any hardware.
Set ``REPRO_PROFILE=1`` to drop per-stage cProfile artifacts under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

# NumPy 2 imports numpy.ma lazily, on the first plain np.unique call
# (~20-30 ms).  Importing it here keeps that one-off cost out of
# whichever timed stage happens to call np.unique first — otherwise
# the first fused analysis pass pays it and its reruns do not.
import numpy.ma  # noqa: E402,F401

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.engine import resolve_engine  # noqa: E402
from repro.obs import TELEMETRY_ENV, export_trace, telemetry  # noqa: E402
from repro.perf.cache import CACHE_DIR_ENV  # noqa: E402
from repro.perf.profiling import maybe_profile  # noqa: E402
from repro.perf.parallel import effective_workers  # noqa: E402
from repro.perf.timing import RssSampler, current_rss_bytes  # noqa: E402
from repro.perf.verify import (  # noqa: E402
    atlas_scenario_diffs,
    cdn_scenario_diffs,
    serve_diffs,
    telemetry_invariance_diffs,
)
from repro.serve import (  # noqa: E402
    ArtifactRegistry,
    QueryEngine,
    StabilityQuery,
    observed_prefixes,
)
from repro.workloads import (  # noqa: E402
    analyze_atlas_scenario,
    build_atlas_scenario,
    build_cdn_scenario,
    periodicity_for_scenario,
    stream_analyze_atlas_scenario,
)

#: Downscaled-but-representative scales (seconds-scale serial builds).
FULL_SCALE = {
    "atlas": {"probes_per_as": 20, "years": 2.0},
    "cdn": {
        "days": 60,
        "fixed_subscribers_per_registry": 300,
        "mobile_devices_per_registry": 200,
        "featured_subscribers": 100,
    },
    # >=100M synthetic tuples: far beyond what the in-RAM path could
    # hold as Python triples, the point of the out-of-core store.
    "store": {"tuples": 100_000_000, "shards": 64,
              "batch_rows": 1 << 20, "block_rows": 1 << 18,
              "v4_pool": 200_000, "v6_pool": 2_000_000},
}
#: CI smoke scales (sub-second serial builds).
CHECK_SCALE = {
    "atlas": {"probes_per_as": 4, "years": 0.3},
    "cdn": {
        "days": 12,
        "fixed_subscribers_per_registry": 24,
        "mobile_devices_per_registry": 30,
        "featured_subscribers": 24,
    },
    # ~1M tuples: the same machinery at a scale CI finishes in seconds.
    # Key pools shrink with the row count so the rows-per-/64 density
    # (and hence the degree-merge working set relative to the RSS gate)
    # matches the full-scale regime instead of being nearly all-unique.
    "store": {"tuples": 1_000_000, "shards": 16,
              "batch_rows": 1 << 16, "block_rows": 1 << 13,
              "v4_pool": 2_000, "v6_pool": 20_000},
}


def scaled_store_config(tuples: int) -> dict:
    """The store config for ``tuples``, scaled between the two scales' shapes.

    CHECK_SCALE's store is the shape at its 1M tuples and FULL_SCALE's
    at its 100M.  Shards, batch rows and block rows interpolate
    geometrically between the two (rounded to powers of two, at least
    one), and the key pools scale linearly, as they already do between
    the two scales, so the rows-per-key density is kept.
    """
    if tuples < 1:
        raise ValueError(f"store tuples must be positive, got {tuples}")
    small, large = CHECK_SCALE["store"], FULL_SCALE["store"]
    position = math.log(tuples / small["tuples"]) / math.log(
        large["tuples"] / small["tuples"]
    )
    config = {"tuples": tuples}
    for name in ("shards", "batch_rows", "block_rows"):
        low, high = math.log2(small[name]), math.log2(large[name])
        config[name] = 1 << max(0, round(low + position * (high - low)))
    for name in ("v4_pool", "v6_pool"):
        config[name] = max(1, round(small[name] * tuples / small["tuples"]))
    return config


def _timed(builder, **kwargs):
    start = time.perf_counter()
    scenario = builder(**kwargs)
    return scenario, time.perf_counter() - start


#: Analysis stages timed per engine, in execution order.  The first
#: stage pays for the one-time per-AS column packing and fused pass;
#: the rest reuse the scenario-memoized packs.
ANALYSIS_STAGES = ("table1", "figure1", "figure5", "table2", "periodicity")


def _run_analysis(scenario, engine: str):
    """Time the Section 3/5 analysis stages under one engine.

    Returns ``(results, timings)`` where both are keyed by stage; the
    results are plain comparable values so py-vs-fused parity is a ``==``.
    """
    from repro.core.report import (
        figure1_for_as,
        figure5_for_as,
        periodic_networks,
        table1_row,
        table2_row,
    )

    items = list(scenario.isps.items())
    probes = {name: scenario.probes_in(isp.asn) for name, isp in items}
    columns = {
        name: scenario.analysis_columns(isp.asn, engine=engine) for name, isp in items
    }
    stages = {
        "table1": lambda: [
            table1_row(
                name, isp.asn, isp.config.country, probes[name],
                engine=engine, columns=columns[name],
            )
            for name, isp in items
        ],
        "figure1": lambda: {
            name: figure1_for_as(name, probes[name], engine=engine, columns=columns[name])
            for name, _ in items
        },
        "figure5": lambda: {
            name: figure5_for_as(probes[name], engine=engine, columns=columns[name])
            for name, _ in items
        },
        "table2": lambda: {
            name: table2_row(
                probes[name], scenario.table, engine=engine, columns=columns[name]
            )
            for name, _ in items
        },
        "periodicity": lambda: periodic_networks(
            probes, min_probes=2, engine=engine, columns_by_network=columns
        ),
    }
    results = {}
    timings = {}
    for key in ANALYSIS_STAGES:
        with maybe_profile(f"analysis_{key}_{engine}"):
            start = time.perf_counter()
            results[key] = stages[key]()
            timings[key] = time.perf_counter() - start
    return results, timings


class _BareSpan:
    """A do-nothing span: what a call site costs with no telemetry at all."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_BARE_SPAN = _BareSpan()


def _bare_span(name, **attrs):
    return _BARE_SPAN


def _bare_metric(name, value=1, **labels):
    return None


#: ``repro.obs`` hot-path helpers and their bare stand-ins.
_TELEMETRY_STUBS = {
    "span": _bare_span,
    "metric_inc": _bare_metric,
    "metric_observe": _bare_metric,
    "metric_gauge": _bare_metric,
}


@contextmanager
def _bare_telemetry():
    """Swap every loaded ``repro.*`` module's telemetry helpers for bare no-ops.

    Only globals bound to the ``repro.obs`` helpers themselves are
    swapped (``from repro.obs import span`` copies as well as
    ``repro.obs``'s own), and every one is restored on exit.
    """
    import repro.obs as obs

    originals = {name: getattr(obs, name) for name in _TELEMETRY_STUBS}
    swapped = []
    try:
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.partition(".")[0] != "repro":
                continue
            namespace = vars(module)
            for name, original in originals.items():
                if namespace.get(name) is original:
                    namespace[name] = _TELEMETRY_STUBS[name]
                    swapped.append((namespace, name))
        yield
    finally:
        for namespace, name in swapped:
            namespace[name] = originals[name]


#: Stubbed/instrumented analysis rerun pairs behind the obs overhead gate.
OBS_PAIRS = 3


def _materialized_triple_bytes(tuples: int) -> int:
    """Estimated RAM to hold ``tuples`` rows as a list of Python triples.

    Measures a representative ``(day, v4_key, v6_key)`` tuple with
    ``sys.getsizeof`` (the /64 key is a 128-bit int, the dominant term)
    plus one 8-byte list slot per row — the footprint the in-RAM path
    pays before any kernel runs, and the yardstick the store's RSS gate
    is expressed against.
    """
    sample = (119, 200_000 << 8, (0x20010DB8 << 96) | (1 << 64))
    per_triple = sys.getsizeof(sample) + sum(sys.getsizeof(value) for value in sample)
    return tuples * (per_triple + 8)


def _store_parity(store, analysis) -> bool:
    """Does the out-of-core analysis match a single in-RAM columnar pass?

    Concatenates every shard into one columnar array and recomputes all
    artifacts with the stock kernels — the reference the sharded
    sort/merge path must reproduce bit-identically.  Deliberately run
    *outside* the RSS-gated region: this is the memory the store path
    exists to avoid.
    """
    import numpy as np

    from repro.core.associations_np import (
        association_durations_np,
        box_stats_np,
        degree_count_arrays,
    )
    from repro.core.delegation import trailing_zero_profile_np

    days = np.concatenate(
        [np.asarray(shard.days) for shard in store.iter_shards()]
    ).astype(np.int64)
    v4_keys = np.concatenate([np.asarray(shard.v4) for shard in store.iter_shards()])
    v6_keys = np.concatenate([np.asarray(shard.v6) for shard in store.iter_shards()])
    durations = association_durations_np(days, v4_keys, v6_keys)
    values, counts = np.unique(durations, return_counts=True)
    v4_ref = degree_count_arrays(v4_keys, v6_keys)
    v6_ref_keys, v6_ref_unique, _hits = degree_count_arrays(v6_keys, v4_keys)
    return (
        analysis.duration_counts
        == {int(d): int(c) for d, c in zip(values, counts)}
        and analysis.box == box_stats_np(durations, empty_ok=True)
        and all(np.array_equal(got, ref) for got, ref in zip(
            (analysis.v4_keys, analysis.v4_unique, analysis.v4_hits), v4_ref
        ))
        and np.array_equal(analysis.v6_keys, v6_ref_keys)
        and np.array_equal(analysis.v6_unique, v6_ref_unique)
        and analysis.delegation == trailing_zero_profile_np(v6_ref_keys)
    )


def _stream_parity(streamed, analysis, tuples: int) -> bool:
    """Does the store-driven stream replay match ``analyze_store``?"""
    unique, hits = analysis.v4_degree_dicts()
    return (
        streamed.triples_seen == tuples
        and dict(streamed.durations) == analysis.duration_counts
        and streamed.box == analysis.box
        and streamed.v4_unique == unique
        and streamed.v4_hits == hits
        and streamed.v6_degrees == analysis.v6_degree_dict()
        and streamed.fraction_v6_degree_one == analysis.fraction_v6_degree_one
    )


#: Peak-RSS gate for the out-of-core analyzer, as a fraction of the
#: estimated materialized-triples footprint (ISSUE acceptance: <=25%).
STORE_RSS_GATE = 0.25


def run_baseline(args: argparse.Namespace) -> dict:
    scale = CHECK_SCALE if args.check else FULL_SCALE
    failures = []

    serial_atlas, atlas_serial_s = _timed(
        build_atlas_scenario, seed=args.seed, workers=1, cache=False, **scale["atlas"]
    )
    parallel_atlas, atlas_parallel_s = _timed(
        build_atlas_scenario,
        seed=args.seed,
        workers=args.workers,
        cache=False,
        **scale["atlas"],
    )
    atlas_workers = effective_workers(args.workers, len(serial_atlas.isps))
    atlas_diffs = atlas_scenario_diffs(serial_atlas, parallel_atlas)
    failures.extend(f"atlas parallel build: {diff}" for diff in atlas_diffs)
    print(f"atlas: serial {atlas_serial_s:.2f}s, {atlas_workers} of "
          f"{args.workers} workers ran {atlas_parallel_s:.2f}s — results "
          + ("DIVERGED" if atlas_diffs else "identical"))

    serial_cdn, cdn_serial_s = _timed(
        build_cdn_scenario, seed=args.seed, workers=1, cache=False, **scale["cdn"]
    )
    parallel_cdn, cdn_parallel_s = _timed(
        build_cdn_scenario,
        seed=args.seed,
        workers=args.workers,
        cache=False,
        **scale["cdn"],
    )
    # The fixed-ISP simulations are the smaller of the build's two pools.
    cdn_workers = effective_workers(args.workers, len(serial_cdn.fixed_asns))
    cdn_diffs = cdn_scenario_diffs(serial_cdn, parallel_cdn)
    failures.extend(f"cdn parallel build: {diff}" for diff in cdn_diffs)
    print(f"cdn:   serial {cdn_serial_s:.2f}s, {cdn_workers} of "
          f"{args.workers} workers ran {cdn_parallel_s:.2f}s — results "
          + ("DIVERGED" if cdn_diffs else "identical"))

    # Cache round-trip in a throwaway directory: second build must be a
    # pure load that compares equal to the generated scenario.  Each timed
    # build starts from a collected heap: otherwise the interpreter's full
    # collection, due after the earlier stages' allocations, can fire
    # inside the ~15 ms check-scale load and time a traversal of the
    # whole process heap (~70 ms inside the test suite) instead of it.
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ[CACHE_DIR_ENV] = tmp
        gc.collect()
        cold, cache_cold_s = _timed(
            build_atlas_scenario, seed=args.seed, workers=1, cache=True, **scale["atlas"]
        )
        gc.collect()
        warm, cache_warm_s = _timed(
            build_atlas_scenario, seed=args.seed, workers=1, cache=True, **scale["atlas"]
        )
        os.environ.pop(CACHE_DIR_ENV, None)
    failures.extend(
        f"cache round-trip: {diff}" for diff in atlas_scenario_diffs(cold, warm)
    )
    if not cache_warm_s < cache_cold_s:
        failures.append(
            f"cache hit ({cache_warm_s:.2f}s) not faster than cold build "
            f"({cache_cold_s:.2f}s)"
        )
    print(f"cache: cold {cache_cold_s:.2f}s, warm hit {cache_warm_s:.3f}s "
          f"({cache_cold_s / max(cache_warm_s, 1e-9):.0f}x)")

    # Analysis stages over the serial Atlas scenario: the pure-Python
    # reference vs the fused engine, with a hard parity check.
    py_results, py_timings = _run_analysis(serial_atlas, "py")
    fused_results, fused_timings = _run_analysis(serial_atlas, "fused")
    analysis_parity = fused_results == py_results
    if not analysis_parity:
        failures.append("analysis engine parity violated: fused != py artifacts")
    analysis_stages = {}
    for key in ANALYSIS_STAGES:
        stage_speedup = py_timings[key] / max(fused_timings[key], 1e-9)
        analysis_stages[key] = {
            "py_seconds": round(py_timings[key], 4),
            "fused_seconds": round(fused_timings[key], 4),
            "speedup": round(stage_speedup, 4),
        }
        print(f"analysis {key:8s} py {py_timings[key]:.3f}s "
              f"fused {fused_timings[key]:.3f}s ({stage_speedup:.1f}x) — "
              f"artifacts identical")
    analysis_enforced = not args.check
    if analysis_enforced:
        for stage, required in (
            ("table1", args.min_analysis_speedup),
            ("table2", args.min_table2_speedup),
            ("periodicity", args.min_periodicity_speedup),
        ):
            stage_speedup = analysis_stages[stage]["speedup"]
            if stage_speedup < required:
                failures.append(
                    f"{stage} analysis speedup {stage_speedup:.2f}x below "
                    f"required {required:.2f}x"
                )

    # Telemetry invariance: the same build + analysis with spans and
    # metrics recording must produce bit-identical artifacts, and the
    # instrumentation must stay near-free even when enabled.
    reference_engine = resolve_engine(None)
    reference_results = fused_results
    untraced_s = atlas_serial_s + sum(fused_timings.values())
    with maybe_profile("telemetry_invariance"):
        start = time.perf_counter()
        with telemetry(True, reset=True):
            traced_atlas, _ = _timed(
                build_atlas_scenario,
                seed=args.seed,
                workers=1,
                cache=False,
                **scale["atlas"],
            )
            traced_results, _ = _run_analysis(traced_atlas, reference_engine)
            if os.environ.get(TELEMETRY_ENV, "").strip():
                trace_path = export_trace("bench_baseline")
                print(f"telemetry trace written to {trace_path}")
        telemetry_s = time.perf_counter() - start
    failures.extend(
        f"traced build: {diff}"
        for diff in atlas_scenario_diffs(serial_atlas, traced_atlas)
    )
    telemetry_parity = traced_results == reference_results
    if not telemetry_parity:
        failures.append(
            "telemetry parity violated: artifacts change with telemetry enabled"
        )
    telemetry_ratio = telemetry_s / max(untraced_s, 1e-9)
    print(
        f"telemetry: build+analysis {telemetry_s:.3f}s with spans+metrics on "
        f"(off: {untraced_s:.3f}s, {telemetry_ratio:.2f}x) — artifacts identical"
    )
    telemetry_stats = {
        "enabled_seconds": round(telemetry_s, 4),
        "disabled_seconds": round(untraced_s, 4),
        "ratio": round(telemetry_ratio, 4),
        "parity": telemetry_parity,
    }

    # Streaming replay over the serial Atlas scenario: the chunked
    # incremental engine must reproduce the batch fused artifacts
    # bit-identically, and its checkpointable state must stay bounded by
    # the probe population rather than grow with the stream length (the
    # pickled state after all chunks vs after the first quarter).
    chunk_hours = 24 * 30
    total_chunks = max(1, -(-serial_atlas.end_hour // chunk_hours))
    quarter_chunks = max(1, total_chunks // 4)
    state_bytes = {}

    def _sample_state(engine_obj, chunk):
        if chunk.index + 1 in (quarter_chunks, total_chunks):
            state_bytes[chunk.index + 1] = len(
                pickle.dumps(
                    engine_obj.state_dict(), protocol=pickle.HIGHEST_PROTOCOL
                )
            )

    with maybe_profile("analysis_streaming"), RssSampler() as sampler:
        start = time.perf_counter()
        stream_result = stream_analyze_atlas_scenario(
            serial_atlas,
            chunk_hours=chunk_hours,
            min_probes=2,
            on_chunk=_sample_state,
        )
        stream_s = time.perf_counter() - start
    batch = analyze_atlas_scenario(serial_atlas, engine="fused")
    batch_periods = periodicity_for_scenario(serial_atlas, min_probes=2, engine="fused")
    stream_parity = (
        stream_result.analysis == batch
        and (stream_result.v4_periods, stream_result.v6_periods) == batch_periods
    )
    if not stream_parity:
        failures.append("streaming replay parity violated: streamed != batch fused")
    runs_per_s = stream_result.stats.runs_seen / max(stream_s, 1e-9)
    bytes_quarter = state_bytes.get(quarter_chunks)
    bytes_end = state_bytes.get(total_chunks)
    state_bounded = None
    if bytes_quarter and bytes_end:
        state_bounded = bytes_end <= 3 * bytes_quarter
        if not state_bounded:
            failures.append(
                f"streaming state grew with the stream: {bytes_end} bytes "
                f"after {total_chunks} chunks vs {bytes_quarter} after "
                f"{quarter_chunks}"
            )
    rss_mib = (
        f"{sampler.peak_bytes / 2**20:.0f} MiB"
        if sampler.peak_bytes is not None
        else "n/a"
    )
    print(
        f"streaming: {stream_result.stats.runs_seen} runs in "
        f"{stream_result.stats.chunks_folded} chunks of {chunk_hours}h, "
        f"{stream_s:.3f}s ({runs_per_s:.0f} runs/s), peak RSS {rss_mib}, "
        f"state {bytes_quarter}->{bytes_end} bytes — artifacts identical"
    )
    streaming = {
        "chunk_hours": chunk_hours,
        "chunks": stream_result.stats.chunks_folded,
        "runs": stream_result.stats.runs_seen,
        "seconds": round(stream_s, 4),
        "runs_per_second": round(runs_per_s, 1),
        "peak_rss_bytes": sampler.peak_bytes,
        "state_bytes_quarter": bytes_quarter,
        "state_bytes_end": bytes_end,
        "state_bounded": state_bounded,
        "state_bound_enforced": True,
        "parity": stream_parity,
    }

    # Out-of-core sharded triple store: build a synthetic store at a
    # tuple volume the in-RAM path would have to materialize as Python
    # triples, analyze it shard-by-shard under an RSS sampler, and gate
    # the analyzer's peak RSS *delta* against a fraction of that
    # materialized footprint.  The in-RAM parity pass runs after the
    # gated region so its own allocations cannot pollute the gate.
    from repro.store import (
        analyze_store,
        build_store_from_columns,
        synthetic_triple_batches,
    )

    store_scale = (
        dict(scale["store"])
        if args.store_tuples is None
        else scaled_store_config(args.store_tuples)
    )
    store_tuples = store_scale["tuples"]
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        with maybe_profile("store_build"):
            start = time.perf_counter()
            store = build_store_from_columns(
                synthetic_triple_batches(
                    store_tuples,
                    batch_rows=store_scale["batch_rows"],
                    seed=args.seed,
                    v4_pool=store_scale["v4_pool"],
                    v6_pool=store_scale["v6_pool"],
                ),
                Path(tmp) / "store",
                shards=store_scale["shards"],
                source={"kind": "synthetic", "seed": args.seed},
            )
            store_build_s = time.perf_counter() - start
        build_rate = store_tuples / max(store_build_s, 1e-9)
        print(
            f"store: built {store_tuples} tuples into {store.shards} "
            f"shard(s), {store.nbytes / 2**20:.0f} MiB on disk, "
            f"{store_build_s:.2f}s ({build_rate:.0f} tuples/s)"
        )

        # The same feed built with --workers: always exercised (serially
        # on one core) with digest parity against the serial store
        # enforced unconditionally; the >= 2x tuples/s gate only
        # applies where the hardware can deliver it (full mode, >= 2
        # workers actually running the shard compaction).
        import shutil as _shutil

        store_workers = effective_workers(args.workers, store_scale["shards"])
        with maybe_profile("store_build_parallel"):
            start = time.perf_counter()
            parallel_store = build_store_from_columns(
                synthetic_triple_batches(
                    store_tuples,
                    batch_rows=store_scale["batch_rows"],
                    seed=args.seed,
                    v4_pool=store_scale["v4_pool"],
                    v6_pool=store_scale["v6_pool"],
                ),
                Path(tmp) / "store-parallel",
                shards=store_scale["shards"],
                workers=args.workers,
                source={"kind": "synthetic", "seed": args.seed},
            )
            store_parallel_s = time.perf_counter() - start
        parallel_rate = store_tuples / max(store_parallel_s, 1e-9)
        parallel_digest_match = parallel_store.digest() == store.digest()
        if not parallel_digest_match:
            failures.append(
                "parallel store build digest differs from serial build"
            )
        build_speedup = store_build_s / max(store_parallel_s, 1e-9)
        build_speedup_enforced = not args.check and store_workers >= 2
        print(
            f"store: parallel build ({store_workers} of {args.workers} "
            f"workers ran) {store_parallel_s:.2f}s "
            f"({parallel_rate:.0f} tuples/s), speedup {build_speedup:.2f}x"
            + ("" if build_speedup_enforced else " (not enforced)")
            + ", digest "
            + ("identical" if parallel_digest_match else "DIVERGED")
        )
        if (
            build_speedup_enforced
            and build_speedup < args.min_store_build_speedup
        ):
            failures.append(
                f"parallel store build speedup {build_speedup:.2f}x below "
                f"required {args.min_store_build_speedup:.2f}x"
            )
        # Drop the parallel copy before the RSS-gated analyze pass —
        # at full scale it doubles the stage's disk footprint.
        _shutil.rmtree(parallel_store.directory, ignore_errors=True)

        footprint = _materialized_triple_bytes(store_tuples)
        rss_start = current_rss_bytes()
        with maybe_profile("store_analyze"), RssSampler() as sampler:
            start = time.perf_counter()
            store_analysis = analyze_store(
                store,
                workers=args.workers,
                block_rows=store_scale["block_rows"],
            )
            store_analyze_s = time.perf_counter() - start
        analyze_rate = store_tuples / max(store_analyze_s, 1e-9)
        rss_delta = (
            sampler.peak_bytes - rss_start
            if sampler.peak_bytes is not None and rss_start is not None
            else None
        )
        rss_fraction = rss_delta / footprint if rss_delta is not None else None
        if rss_fraction is not None and rss_fraction > STORE_RSS_GATE:
            failures.append(
                f"store analyze peak RSS delta {rss_delta / 2**20:.0f} MiB "
                f"exceeds {STORE_RSS_GATE:.0%} of the "
                f"{footprint / 2**20:.0f} MiB materialized-triples footprint"
            )
        if not args.check and analyze_rate < args.min_store_tuples_per_second:
            failures.append(
                f"store analyze throughput {analyze_rate:.0f} tuples/s "
                f"below required {args.min_store_tuples_per_second:.0f}"
            )
        with maybe_profile("store_parity"):
            store_parity = _store_parity(store, store_analysis)
        if not store_parity:
            failures.append(
                "store parity violated: out-of-core != in-RAM columnar artifacts"
            )
        # Store-driven stream replay: the same artifacts folded in
        # day windows off the shards, checked against analyze_store.
        from repro.stream import run_association_stream_over_store

        with maybe_profile("store_stream"):
            start = time.perf_counter()
            streamed = run_association_stream_over_store(store, chunk_days=7)
            store_stream_s = time.perf_counter() - start
        stream_rate = store_tuples / max(store_stream_s, 1e-9)
        stream_parity = _stream_parity(streamed, store_analysis, store_tuples)
        if not stream_parity:
            failures.append("store stream replay differs from analyze_store")
        print(
            f"store: streamed in 7-day windows in {store_stream_s:.2f}s "
            f"({stream_rate:.0f} tuples/s) — "
            f"{'matches' if stream_parity else 'DIFFERS FROM'} analyze_store"
        )
        rss_text = (
            f"{rss_delta / 2**20:.0f} MiB ({rss_fraction:.1%} of "
            f"{footprint / 2**20:.0f} MiB materialized, gate "
            f"{STORE_RSS_GATE:.0%})"
            if rss_fraction is not None
            else "n/a"
        )
        print(
            f"store: analyzed out-of-core in {store_analyze_s:.2f}s "
            f"({analyze_rate:.0f} tuples/s), "
            f"{store_analysis.duration_count} runs, peak RSS delta "
            f"{rss_text} — artifacts identical"
        )
        store_stats = {
            "tuples": store_tuples,
            "shards": store.shards,
            "batch_rows": store_scale["batch_rows"],
            "block_rows": store_scale["block_rows"],
            "store_bytes": store.nbytes,
            "digest": store.digest(),
            "build_seconds": round(store_build_s, 4),
            "build_tuples_per_second": round(build_rate, 1),
            "build_workers": args.workers,
            "build_effective_workers": store_workers,
            "build_parallel_seconds": round(store_parallel_s, 4),
            "build_parallel_tuples_per_second": round(parallel_rate, 1),
            "build_speedup": round(build_speedup, 3),
            "build_speedup_enforced": build_speedup_enforced,
            "parallel_digest_match": parallel_digest_match,
            "analyze_seconds": round(store_analyze_s, 4),
            "analyze_tuples_per_second": round(analyze_rate, 1),
            "stream_seconds": round(store_stream_s, 4),
            "stream_tuples_per_second": round(stream_rate, 1),
            "stream_parity": stream_parity,
            "throughput_enforced": not args.check,
            "associations": store_analysis.duration_count,
            "distinct_v4": len(store_analysis.v4_keys),
            "distinct_v6": len(store_analysis.v6_keys),
            "peak_rss_delta_bytes": rss_delta,
            "materialized_triples_bytes": footprint,
            "rss_fraction_of_materialized": (
                round(rss_fraction, 4) if rss_fraction is not None else None
            ),
            "rss_gate_fraction": STORE_RSS_GATE,
            "parity": store_parity,
        }

    # End-to-end report stage: the full artifact suite
    # (analyze_atlas_scenario + periodicity_for_scenario) timed under the
    # fused engine with column packs invalidated first, so the run pays
    # its own packing cost, and checked bit-identical to the pure-Python
    # reference.
    def _artifacts(analysis):
        return analysis.table1, analysis.table2, analysis.figure1, analysis.figure5

    serial_atlas.invalidate_analysis_columns()
    rss_start = current_rss_bytes()
    with maybe_profile("report_fused"), RssSampler() as sampler:
        start = time.perf_counter()
        fused_report = analyze_atlas_scenario(serial_atlas, engine="fused")
        fused_report_periods = periodicity_for_scenario(
            serial_atlas, min_probes=2, engine="fused"
        )
        report_fused_s = time.perf_counter() - start
    report_fused_rss = (
        sampler.peak_bytes - rss_start
        if sampler.peak_bytes is not None and rss_start is not None
        else None
    )
    py_report = analyze_atlas_scenario(serial_atlas, engine="py")
    py_report_periods = periodicity_for_scenario(serial_atlas, min_probes=2, engine="py")
    report_parity = (
        _artifacts(fused_report) == _artifacts(py_report)
        and fused_report_periods == py_report_periods
    )
    if not report_parity:
        failures.append("report stage parity violated: fused != py artifacts")

    def _mib(value):
        return f"{value / 2**20:.0f} MiB" if value is not None else "n/a"

    print(
        f"report: fused {report_fused_s:.3f}s (peak RSS delta "
        f"{_mib(report_fused_rss)}) — artifacts identical"
    )
    report_stats = {
        "fused_seconds": round(report_fused_s, 4),
        "fused_peak_rss_delta_bytes": report_fused_rss,
        "parity": report_parity,
    }

    serve_registry = ArtifactRegistry(name="bench")
    serve_engine = QueryEngine(serial_atlas, registry=serve_registry)
    observed = observed_prefixes(serial_atlas, 4, 24)
    n_serve_queries = 64
    serve_queries = [
        StabilityQuery(observed[index % len(observed)])
        for index in range(n_serve_queries)
    ]
    with maybe_profile("serve_cold"):
        start = time.perf_counter()
        serve_engine.run(serve_queries[0])
        serve_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    serve_engine.run(serve_queries[0])
    serve_warm_s = time.perf_counter() - start
    with maybe_profile("serve_sequential"):
        start = time.perf_counter()
        sequential_results = [serve_engine.run(q) for q in serve_queries]
        serve_sequential_s = time.perf_counter() - start
    with maybe_profile("serve_batched"):
        start = time.perf_counter()
        batched_results = serve_engine.run_batch(serve_queries)
        serve_batched_s = time.perf_counter() - start
    if batched_results != sequential_results:
        failures.append(
            "serve stage parity violated: batched != sequential results"
        )
    if serve_registry.stats.misses != 1:
        failures.append(
            "serve stage recomputed analysis on a warm registry "
            f"(misses={serve_registry.stats.misses}, expected 1)"
        )
    # Full parity gate against the pure-Python reference on a small
    # dedicated scenario: every query family, every run.
    serve_parity = serve_diffs(
        probes_per_as=2, years=0.4, seed=args.seed, max_prefixes=2, budget=4
    )
    for diff in serve_parity:
        failures.append(f"serve stage parity violated: {diff}")
    serve_batch_speedup = serve_sequential_s / max(serve_batched_s, 1e-9)
    serve_enforced = not args.check
    if serve_enforced and serve_batch_speedup < args.min_serve_speedup:
        failures.append(
            f"serve batching speedup {serve_batch_speedup:.2f}x below "
            f"required {args.min_serve_speedup:.2f}x on "
            f"{n_serve_queries} coalesced queries"
        )
    print(
        f"serve: cold {serve_cold_s:.3f}s, warm {serve_warm_s * 1e3:.2f}ms, "
        f"{n_serve_queries} queries sequential {serve_sequential_s:.3f}s vs "
        f"batched {serve_batched_s:.3f}s ({serve_batch_speedup:.2f}x), "
        f"direct-parity diffs {len(serve_parity)}"
    )
    serve_stats = {
        "cold_seconds": round(serve_cold_s, 4),
        "warm_seconds": round(serve_warm_s, 6),
        "queries": n_serve_queries,
        "sequential_seconds": round(serve_sequential_s, 4),
        "batched_seconds": round(serve_batched_s, 4),
        "batch_speedup": round(serve_batch_speedup, 4),
        "parity_diffs": len(serve_parity),
        "registry": serve_registry.stats.as_dict(),
        "artifact_bytes": serve_registry.total_bytes,
        "speedup_enforced": serve_enforced,
    }

    # Observability plane: the instrumentation must be near-free when
    # telemetry is *disabled* (the default), and the cross-process trace
    # stitching must not perturb a pooled scenario build.  The overhead
    # gate times the analysis stages with the telemetry helpers as
    # shipped (disabled) against the same stages with every call site's
    # helpers swapped for bare no-ops, so a disabled-path helper that
    # grows real work shows up as the ratio.  Stubbed and instrumented
    # reruns alternate, each from fresh column packs, and the median
    # per-pair ratio is gated.
    obs_pairs = []
    for pair in range(OBS_PAIRS):
        timed = {}
        for stubbed in ((True, False) if pair % 2 == 0 else (False, True)):
            serial_atlas.invalidate_analysis_columns()
            with _bare_telemetry() if stubbed else nullcontext():
                obs_results, obs_timings = _run_analysis(
                    serial_atlas, reference_engine
                )
            if obs_results != reference_results:
                failures.append(
                    "obs stage parity violated: "
                    f"{'stubbed' if stubbed else 'instrumented'} rerun != reference"
                )
            timed[stubbed] = sum(obs_timings.values())
        obs_pairs.append((timed[False], timed[True]))
    obs_disabled_s = statistics.median(disabled for disabled, _ in obs_pairs)
    obs_baseline_s = statistics.median(stubbed for _, stubbed in obs_pairs)
    obs_overhead = statistics.median(
        disabled / max(stubbed, 1e-9) for disabled, stubbed in obs_pairs
    )
    obs_enforced = not args.check
    if obs_enforced and obs_overhead > args.max_obs_overhead:
        failures.append(
            f"disabled-telemetry overhead {obs_overhead:.3f}x exceeds "
            f"allowed {args.max_obs_overhead:.2f}x"
        )
    # Stitched-trace invariance: a pooled scenario build with worker
    # span buffers flowing back to the parent must stay bit-identical
    # to the untraced one.  Always enforced — determinism does not
    # depend on the hardware.
    with maybe_profile("obs_stitch_invariance"):
        start = time.perf_counter()
        stitch_diffs = telemetry_invariance_diffs(
            probes_per_as=4, years=0.4, seed=args.seed, workers=2
        )
        obs_stitch_s = time.perf_counter() - start
    for diff in stitch_diffs:
        failures.append(f"obs stage invariance violated: {diff}")
    print(
        f"obs: disabled-telemetry analysis {obs_disabled_s:.3f}s vs "
        f"{obs_baseline_s:.3f}s stubbed (median of {OBS_PAIRS} pairs "
        f"{obs_overhead:.2f}x"
        + ("" if obs_enforced else ", not enforced")
        + f"), stitched pooled invariance {obs_stitch_s:.2f}s "
        + ("clean" if not stitch_diffs else f"{len(stitch_diffs)} DIFFS")
    )
    obs_stats = {
        "disabled_seconds": round(obs_disabled_s, 4),
        "baseline_seconds": round(obs_baseline_s, 4),
        "disabled_overhead": round(obs_overhead, 4),
        "pairs": OBS_PAIRS,
        "max_overhead": args.max_obs_overhead,
        "overhead_enforced": obs_enforced,
        "stitch_seconds": round(obs_stitch_s, 4),
        "stitch_workers": 2,
        "stitch_diffs": len(stitch_diffs),
    }

    total_serial = atlas_serial_s + cdn_serial_s
    total_parallel = atlas_parallel_s + cdn_parallel_s
    speedup = total_serial / max(total_parallel, 1e-9)
    cores = os.cpu_count() or 1
    speedup_enforced = not args.check and min(atlas_workers, cdn_workers) >= 2
    print(f"build speedup with {atlas_workers} (atlas) / {cdn_workers} (cdn) "
          f"of {args.workers} workers on {cores} core(s): "
          f"{speedup:.2f}x" + ("" if speedup_enforced else " (not enforced)"))
    if speedup_enforced and speedup < args.min_speedup:
        failures.append(
            f"parallel speedup {speedup:.2f}x below required {args.min_speedup:.2f}x"
        )

    payload = {
        "mode": "check" if args.check else "full",
        "workers": args.workers,
        "cpu_count": cores,
        "seed": args.seed,
        "build": {
            "atlas": {
                "serial_seconds": round(atlas_serial_s, 4),
                "parallel_seconds": round(atlas_parallel_s, 4),
                "effective_workers": atlas_workers,
                **scale["atlas"],
            },
            "cdn": {
                "serial_seconds": round(cdn_serial_s, 4),
                "parallel_seconds": round(cdn_parallel_s, 4),
                "effective_workers": cdn_workers,
                **scale["cdn"],
            },
        },
        "cache": {
            "cold_seconds": round(cache_cold_s, 4),
            "warm_seconds": round(cache_warm_s, 4),
        },
        "analysis": {
            "default_engine": resolve_engine(None),
            "stages": analysis_stages,
            "parity": analysis_parity,
            "table1_speedup_enforced": analysis_enforced,
            "table2_speedup_enforced": analysis_enforced,
            "periodicity_speedup_enforced": analysis_enforced,
        },
        "telemetry": telemetry_stats,
        "streaming": streaming,
        "store": store_stats,
        "report": report_stats,
        "serve": serve_stats,
        "obs": obs_stats,
        "speedup": round(speedup, 4),
        "speedup_enforced": speedup_enforced,
        "peak_rss_bytes": current_rss_bytes(),
        "deterministic": not (atlas_diffs or cdn_diffs),
    }
    if args.output is not None:
        with open(args.output, "w") as stream:
            json.dump({"bench_baseline": payload}, stream)
        print(f"record written to {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Time and verify the scenario builds, analyses, store, "
        "serve and telemetry stages."
    )
    parser.add_argument("--check", action="store_true",
                        help="CI smoke mode: tiny scales, no speedup assertion")
    parser.add_argument("--workers", type=int, default=4,
                        help="parallel worker count to benchmark (default: 4)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required serial/parallel speedup where >= 2 "
                        "workers run (default: 2.0)")
    parser.add_argument("--min-analysis-speedup", type=float, default=3.0,
                        help="required py/fused speedup on the Table 1 analysis "
                        "stage in full mode (default: 3.0)")
    parser.add_argument("--min-table2-speedup", type=float, default=5.0,
                        help="required py/fused speedup on the Table 2 analysis "
                        "stage in full mode (default: 5.0)")
    parser.add_argument("--min-periodicity-speedup", type=float, default=20.0,
                        help="required py/fused speedup on the periodicity "
                        "detection stage in full mode (default: 20.0)")
    parser.add_argument("--store-tuples", type=int, default=None,
                        help="override the out-of-core store tuple count; "
                        "shards, batch and block rows and key pools scale "
                        "with it (default: 100M full / 1M check)")
    parser.add_argument("--min-store-tuples-per-second", type=float,
                        default=100_000.0,
                        help="required out-of-core analyze throughput in "
                        "full mode (default: 100000)")
    parser.add_argument("--min-serve-speedup", type=float, default=2.0,
                        help="required batched-vs-sequential serve query "
                        "speedup on 64 coalesced queries in full mode "
                        "(default: 2.0)")
    parser.add_argument("--max-obs-overhead", type=float, default=1.05,
                        help="allowed disabled-telemetry analysis overhead "
                        "ratio in full mode (default: 1.05)")
    parser.add_argument("--min-store-build-speedup", type=float, default=2.0,
                        help="required parallel-vs-serial store build "
                        "tuples/s speedup in full mode where >= 2 workers "
                        "run (default: 2.0)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the run's record here as JSON "
                        "(default: write nothing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run_baseline(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

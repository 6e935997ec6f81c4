"""Field-for-field scenario comparison — the determinism contract's teeth.

``workers=N`` builds must be bit-identical to serial builds, and a cache
round-trip must return an equal scenario.  These helpers compare every
observable field of the two scenario types (ground-truth timelines,
probe data, association datasets, plan state) and report *which* field
diverged, which is far more actionable than a bare ``assert a == b``.

Deliberately not compared: object identities, RNG internals, and the
CDN classifier's lookup caches (a warm cache is an optimization, not an
observable).

The same contract applies to the analysis engines:
:func:`fused_engine_diffs` holds the fused single-pass engine
(:mod:`repro.core.fused`, the default) to the pure-Python reference
(``engine="py"``) across every report artifact plus the delegation and
association artifacts — and :func:`streaming_replay_diffs` holds the
streaming layer to it too: chunk-by-chunk replay (any chunk size, with
or without a mid-stream checkpoint/restore) must be bit-identical to
the batch fused report.  :func:`store_diffs` extends the contract to
the out-of-core sharded memmap store: shard-by-shard analysis and the
store-driven stream must match the pure-Python association oracle
artifact for artifact, at every shard count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.workloads import AtlasScenario, CdnScenario


def atlas_scenario_diffs(a: AtlasScenario, b: AtlasScenario) -> List[str]:
    """Human-readable differences between two Atlas scenarios ([] if equal)."""
    diffs: List[str] = []
    if a.end_hour != b.end_hour:
        diffs.append(f"end_hour: {a.end_hour} != {b.end_hour}")
    if sorted(a.isps) != sorted(b.isps):
        diffs.append(f"isps: {sorted(a.isps)} != {sorted(b.isps)}")
        return diffs
    for name, isp_a in a.isps.items():
        isp_b = b.isps[name]
        if isp_a.config != isp_b.config:
            diffs.append(f"isps[{name}].config differs")
        for plan in ("v4_plan", "v6_plan"):
            plan_a, plan_b = getattr(isp_a, plan), getattr(isp_b, plan)
            in_use_a = plan_a.in_use if plan_a is not None else None
            in_use_b = plan_b.in_use if plan_b is not None else None
            if in_use_a != in_use_b:
                diffs.append(_in_use_diff(f"isps[{name}].{plan}", in_use_a, in_use_b))
    timeline_diff = _timelines_diff(a.timelines, b.timelines)
    if timeline_diff is not None:
        diffs.append(timeline_diff)
    if a.raw_probes != b.raw_probes:
        diffs.append("raw_probes differ")
    if a.probes != b.probes:
        diffs.append("probes differ")
    if a.report != b.report:
        diffs.append(f"report: {a.report} != {b.report}")
    return diffs


def _in_use_diff(where: str, a, b) -> str:
    """Describe two differing plan in-use sets (``None``: no plan)."""
    if a is None or b is None:
        return f"{where}: present in only one scenario"
    return (
        f"{where}.in_use differs: {len(a)} vs {len(b)} held, "
        f"{len(a - b)} only in the first, {len(b - a)} only in the second"
    )


def _timelines_diff(a, b) -> Optional[str]:
    """The first differing ``(asn, subscriber, family)`` of two timeline maps."""
    if sorted(a) != sorted(b):
        return f"timelines ASNs: {sorted(a)} != {sorted(b)}"
    for asn in sorted(a):
        if sorted(a[asn]) != sorted(b[asn]):
            return f"timelines[{asn}] subscribers differ"
        for sub_id in sorted(a[asn]):
            field = a[asn][sub_id].first_difference(b[asn][sub_id])
            if field is not None:
                return f"timelines differ first at (asn={asn}, subscriber={sub_id}, {field})"
    return None


def cdn_scenario_diffs(a: CdnScenario, b: CdnScenario) -> List[str]:
    """Human-readable differences between two CDN scenarios ([] if equal)."""
    diffs: List[str] = []
    for field in ("days", "featured_asns", "fixed_asns", "mobile_asns"):
        if getattr(a, field) != getattr(b, field):
            diffs.append(f"{field}: {getattr(a, field)} != {getattr(b, field)}")
    dataset_a, dataset_b = a.dataset, b.dataset
    if dataset_a.total_collected != dataset_b.total_collected:
        diffs.append(
            f"dataset.total_collected: "
            f"{dataset_a.total_collected} != {dataset_b.total_collected}"
        )
    if dataset_a.discarded_asn_mismatch != dataset_b.discarded_asn_mismatch:
        diffs.append(
            f"dataset.discarded_asn_mismatch: "
            f"{dataset_a.discarded_asn_mismatch} != {dataset_b.discarded_asn_mismatch}"
        )
    if sorted(dataset_a.triples_by_asn) != sorted(dataset_b.triples_by_asn):
        diffs.append(
            f"dataset ASNs: {sorted(dataset_a.triples_by_asn)} != "
            f"{sorted(dataset_b.triples_by_asn)}"
        )
        return diffs
    for asn, triples_a in dataset_a.triples_by_asn.items():
        if triples_a != dataset_b.triples_by_asn[asn]:
            diffs.append(f"dataset.triples_by_asn[{asn}] differs")
    return diffs


def fused_engine_diffs(
    scenario: "AtlasScenario" = None,
    probes_per_as: int = 4,
    years: float = 0.5,
    seed: int = 0,
    min_probes: int = 2,
    triples=None,
) -> List[str]:
    """Fused-vs-reference parity differences ([] if bit-identical).

    The engine-parity contract, at two levels:

    1. **Scenario level** — ``engine="fused"`` must reproduce every
       ``analyze_atlas_scenario`` artifact and the periodicity result of
       the ``"py"`` reference bit-identically (a small scenario is built
       when none is supplied).
    2. **Entry-point level** — each report entry point, plus the
       delegation histogram (``inferred_plen_distribution_for_probes``)
       and, when ``triples`` (CDN association triples) are given, the
       Figure 3 ``association_box_stats``, called with ``engine="fused"``
       must match the ``"py"`` reference.
    """
    from repro.core import report
    from repro.core.associations import association_box_stats
    from repro.core.delegation import inferred_plen_distribution_for_probes
    from repro.workloads import (
        analyze_atlas_scenario,
        build_atlas_scenario,
        periodicity_for_scenario,
    )

    if scenario is None:
        scenario = build_atlas_scenario(
            probes_per_as=probes_per_as, years=years, seed=seed, cache=False
        )
    diffs: List[str] = []
    fused_result = analyze_atlas_scenario(scenario, engine="fused")
    py_analysis = analyze_atlas_scenario(scenario, engine="py")
    for artifact in ("table1", "table2", "figure1", "figure5"):
        if getattr(fused_result, artifact) != getattr(py_analysis, artifact):
            diffs.append(f"{artifact}: fused diverges from py")
    fused_periods = periodicity_for_scenario(scenario, min_probes=min_probes, engine="fused")
    py_periods = periodicity_for_scenario(scenario, min_probes=min_probes, engine="py")
    if fused_periods != py_periods:
        diffs.append("periodicity: fused diverges from py")

    probes = scenario.probes
    entry_points = [
        (
            "table1_row",
            lambda engine: report.table1_row("AS", 0, "XX", probes, engine=engine),
        ),
        ("as_durations", lambda engine: report.as_durations(probes, engine=engine)),
        (
            "figure1_for_as",
            lambda engine: report.figure1_for_as("AS", probes, engine=engine),
        ),
        ("figure5_for_as", lambda engine: report.figure5_for_as(probes, engine=engine)),
        (
            "table2_row",
            lambda engine: report.table2_row(probes, scenario.table, engine=engine),
        ),
        (
            "periodic_networks",
            lambda engine: report.periodic_networks(
                {"AS": probes}, min_probes=min_probes, engine=engine
            ),
        ),
        (
            "inferred_plen_distribution",
            lambda engine: inferred_plen_distribution_for_probes(probes, engine=engine),
        ),
    ]
    if triples is not None:
        materialized = list(triples)
        entry_points.append(
            (
                "association_box_stats",
                lambda engine: association_box_stats(materialized, engine=engine),
            )
        )
    for label, compute in entry_points:
        if compute("fused") != compute("py"):
            diffs.append(f"{label}: fused entry point diverges from py reference")

    return diffs


def _streaming_result_diffs(result, batch, periods, label: str) -> List[str]:
    """Artifact-level streamed-vs-batch differences for one streaming pass."""
    diffs: List[str] = []
    if result is None:
        return [f"{label}: streaming pass did not complete"]
    analysis = result.analysis
    for artifact in ("table1", "table2", "figure1", "figure5"):
        if getattr(analysis, artifact) != getattr(batch, artifact):
            diffs.append(f"{label}: {artifact} diverges from batch fused report")
    if (result.v4_periods, result.v6_periods) != periods:
        diffs.append(f"{label}: periodicity diverges from batch fused report")
    return diffs


def streaming_replay_diffs(
    scenario: AtlasScenario,
    chunk_hours: Sequence[int] = (256, 2048),
    min_probes: int = 3,
    checkpoint_dir=None,
) -> List[str]:
    """Streamed-vs-batch artifact differences ([] if bit-identical).

    The replay-parity contract: streaming ``scenario`` chunk-by-chunk
    (each size in ``chunk_hours``) must reproduce the batch
    ``engine="fused"`` artifacts bit-identically.  When ``checkpoint_dir``
    is given, a kill/checkpoint/resume pass (stopped halfway, resumed
    from its persisted state) is verified too.
    """
    from repro.workloads import (
        analyze_atlas_scenario,
        periodicity_for_scenario,
        stream_analyze_atlas_scenario,
    )

    batch = analyze_atlas_scenario(scenario, engine="fused")
    periods = periodicity_for_scenario(scenario, min_probes=min_probes, engine="fused")
    diffs: List[str] = []
    for hours in chunk_hours:
        result = stream_analyze_atlas_scenario(
            scenario, chunk_hours=hours, min_probes=min_probes
        )
        diffs.extend(
            _streaming_result_diffs(result, batch, periods, f"chunk_hours={hours}")
        )
    if checkpoint_dir is not None and chunk_hours:
        hours = chunk_hours[0]
        total = max(1, -(-scenario.end_hour // hours))
        killed = stream_analyze_atlas_scenario(
            scenario,
            chunk_hours=hours,
            min_probes=min_probes,
            checkpoint=checkpoint_dir,
            stop_after_chunks=max(1, total // 2),
        )
        if killed is not None:
            diffs.append("kill/resume: stopped pass unexpectedly completed")
        resumed = stream_analyze_atlas_scenario(
            scenario,
            chunk_hours=hours,
            min_probes=min_probes,
            checkpoint=checkpoint_dir,
            resume=True,
        )
        diffs.extend(_streaming_result_diffs(resumed, batch, periods, "kill/resume"))
        if resumed is not None and resumed.stats.resumed_from_chunk is None:
            diffs.append("kill/resume: resume did not load the persisted state")
    return diffs


def _association_oracle(triples: Sequence) -> dict:
    """Every association artifact of ``triples``, from the pure-Python oracle.

    Keyed by :class:`repro.stream.AssociationStreamResult` field name.
    """
    from collections import Counter

    from repro.core.associations import (
        association_durations,
        box_stats,
        fraction_degree_one,
        v4_degree_counts,
        v6_degree_counts,
    )

    durations = association_durations(triples)
    v4_unique, v4_hits = v4_degree_counts(triples)
    v6_degrees = v6_degree_counts(triples)
    return {
        "durations": Counter(durations),
        "box": box_stats(durations) if durations else None,
        "v4_unique": v4_unique,
        "v4_hits": v4_hits,
        "v6_degrees": v6_degrees,
        "fraction_v6_degree_one": fraction_degree_one(v6_degrees),
        "triples_seen": len(triples),
    }


def _oracle_diffs(got: dict, expected: dict, label: str) -> List[str]:
    return [
        f"{label}: {field} diverges from the pure-Python oracle"
        for field, value in expected.items()
        if got[field] != value
    ]


def association_oracle_diffs(result, triples: Sequence, label: str = "stream") -> List[str]:
    """Streamed-vs-oracle association differences ([] if bit-identical).

    Holds an :class:`repro.stream.AssociationStreamResult` to the
    pure-Python :mod:`repro.core.associations` functions over the same
    ``triples``: duration multiset, box stats, both degree maps, the
    degree-one fraction and the triple count.
    """
    if result is None:
        return [f"{label}: streaming pass did not complete"]
    expected = _association_oracle(triples)
    return _oracle_diffs({field: getattr(result, field) for field in expected}, expected, label)


def store_diffs(
    triples: Sequence,
    directory,
    shards: Sequence[int] = (1, 4),
    chunk_days: int = 7,
) -> List[str]:
    """Out-of-core-vs-oracle artifact differences ([] if bit-identical).

    The store-parity contract: building a sharded memmap store from
    ``triples`` and analyzing it shard-by-shard
    (:func:`repro.store.analyze_store`) must reproduce every Section-5
    artifact of the pure-Python :mod:`repro.core.associations` oracle —
    duration multiset and box stats, both degree structures, degree-one
    fraction, the Figure-7 trailing-zero profile — and so must the
    store-driven streaming pass (:func:`association_oracle_diffs`).
    Each shard count in ``shards`` is verified independently (1
    exercises the degenerate single-shard merge, >1 the k-way pivot
    merge).  Build-mode digest parity is checked too: a ``workers=2``
    build with a small ``spill_rows`` and a compaction of two
    incrementally built halves must both produce byte-identical stores
    (same ``digest()``) to the serial build.  ``directory`` holds the
    temporary stores (one subdirectory per shard count).
    """
    from pathlib import Path

    from repro.core.delegation import trailing_zero_profile
    from repro.ip.prefix import IPv6Prefix
    from repro.store import analyze_store, build_store_from_triples
    from repro.stream.associations import run_association_stream_over_store

    materialized = list(triples)
    expected = _association_oracle(materialized)
    expected_batch = {field: value for field, value in expected.items() if field != "triples_seen"}
    expected_batch["delegation"] = trailing_zero_profile(
        IPv6Prefix(key, 64) for key in sorted(expected["v6_degrees"])
    )

    diffs: List[str] = []
    for count in shards:
        label = f"shards={count}"
        store = build_store_from_triples(
            iter(materialized), Path(directory) / f"store-{count}", shards=count
        )
        if sorted(store.iter_triples()) != sorted(materialized):
            diffs.append(f"{label}: round-tripped triples diverge")
            continue
        analysis = analyze_store(store)
        v4_unique, v4_hits = analysis.v4_degree_dicts()
        got = {
            "durations": analysis.duration_counts,
            "box": analysis.box,
            "v4_unique": v4_unique,
            "v4_hits": v4_hits,
            "v6_degrees": analysis.v6_degree_dict(),
            "fraction_v6_degree_one": analysis.fraction_v6_degree_one,
            "delegation": analysis.delegation,
        }
        diffs.extend(_oracle_diffs(got, expected_batch, f"{label}: analyze_store"))
        streamed = run_association_stream_over_store(store, chunk_days=chunk_days)
        got = {field: getattr(streamed, field) for field in expected}
        diffs.extend(_oracle_diffs(got, expected, f"{label}: store-driven stream"))

    # Build-mode parity: a serial build, a pooled build that spills
    # often, and an incremental two-half merge must emit byte-identical
    # shards (same digest()) for the same triple multiset.
    from repro.store import compact_stores

    count = shards[-1] if shards else 4
    serial = build_store_from_triples(
        iter(materialized), Path(directory) / "parity-serial", shards=count
    )
    pooled = build_store_from_triples(
        iter(materialized),
        Path(directory) / "parity-pooled",
        shards=count,
        spill_rows=max(1, len(materialized) // (4 * count)),
        workers=2,
    )
    if pooled.digest() != serial.digest():
        diffs.append("pooled build with small spills diverges from serial build")
    half = len(materialized) // 2
    first = build_store_from_triples(
        iter(materialized[:half]), Path(directory) / "parity-half-a", shards=count
    )
    second = build_store_from_triples(
        iter(materialized[half:]), Path(directory) / "parity-half-b", shards=count
    )
    merged = compact_stores(
        [first, second], Path(directory) / "parity-merged", shards=count
    )
    if merged.digest() != serial.digest():
        diffs.append(
            "compacting two incrementally built stores diverges from a "
            "single-pass build"
        )
    return diffs


def telemetry_invariance_diffs(
    probes_per_as: int = 6, years: float = 1.1, seed: int = 0, workers: int = 1
) -> List[str]:
    """Telemetry-on-vs-off artifact differences ([] if bit-identical).

    The zero-perturbation contract: enabling spans + metrics must not
    touch RNG draw order or any artifact byte.  Builds and analyzes the
    same small scenario with telemetry off and on and compares scenario
    fields and every report artifact.

    ``workers > 1`` builds both scenarios through the per-ISP simulation
    pool (pool kind ``isp_sim``), so cross-process span propagation and
    stitching (``pool/task`` wrappers, shipped span buffers, worker
    metric deltas) are themselves proven artifact-invariant.
    ``os.cpu_count`` is widened for the build so the pool actually runs
    even on single-core CI hosts — this is a correctness probe, not a
    perf measurement — and a traced build that did not run one pool
    task per ISP is reported as a difference.
    """
    import os as os_module

    from repro.obs import telemetry, telemetry_snapshot
    from repro.workloads import (
        analyze_atlas_scenario,
        build_atlas_scenario,
        periodicity_for_scenario,
    )

    params = dict(
        probes_per_as=probes_per_as, years=years, seed=seed, workers=workers, cache=False
    )
    real_cpu_count = os_module.cpu_count
    os_module.cpu_count = lambda: max(workers, real_cpu_count() or 1)
    try:
        with telemetry(False):
            plain = build_atlas_scenario(**params)
            plain_analysis = analyze_atlas_scenario(plain)
            plain_periods = periodicity_for_scenario(plain)
        with telemetry(True, reset=True):
            traced = build_atlas_scenario(**params)
            pool_tasks = telemetry_snapshot()["metrics"]["counters"].get("pool.tasks", {})
            traced_analysis = analyze_atlas_scenario(traced)
            traced_periods = periodicity_for_scenario(traced)
    finally:
        os_module.cpu_count = real_cpu_count
    diffs = [
        f"telemetry: {diff}" for diff in atlas_scenario_diffs(plain, traced)
    ]
    for artifact in ("table1", "table2", "figure1", "figure5"):
        if getattr(plain_analysis, artifact) != getattr(traced_analysis, artifact):
            diffs.append(f"telemetry: {artifact} diverges with telemetry enabled")
    if plain_periods != traced_periods:
        diffs.append("telemetry: periodicity diverges with telemetry enabled")
    if workers > 1:
        isp_tasks = sum(
            count
            for key, count in pool_tasks.items()
            if "kind=isp_sim" in key.split(",")
        )
        if isp_tasks != len(traced.isps):
            diffs.append(
                f"telemetry: pooled build ran {isp_tasks} isp_sim pool tasks "
                f"for {len(traced.isps)} ISPs (workers={workers})"
            )
    return diffs


def serve_diffs(
    scenario: "AtlasScenario" = None,
    probes_per_as: int = 4,
    years: float = 0.5,
    seed: int = 0,
    max_prefixes: int = 4,
    budget: int = 8,
) -> List[str]:
    """Served-vs-direct parity differences ([] if bit-identical).

    The serving contract: every answer out of
    :class:`repro.serve.engine.QueryEngine` — batched *or* sequential —
    must be bit-identical to
    :func:`repro.serve.engine.compute_direct`, the pure-Python
    per-probe walk through the same :mod:`repro.core.report` /
    periodicity kernels that ``workloads.analyze_atlas_scenario``'s
    ``"py"`` engine runs.  Queries are harvested from the scenario
    itself so all four families are exercised on observed targets, plus
    the index's edge cases in the same batch: unobserved prefixes (the
    empty-membership path), shorter-than-/64 supernets, a /1 of each
    family, a v4 /32 host prefix, top-of-space prefixes whose range ends
    at the last word, and repeated prefixes.
    """
    from repro.ip import parse_prefix
    from repro.serve.engine import QueryEngine, compute_direct, observed_prefixes
    from repro.serve.queries import (
        DualStackQuery,
        HitlistQuery,
        LifetimeQuery,
        StabilityQuery,
    )
    from repro.workloads import build_atlas_scenario

    if scenario is None:
        scenario = build_atlas_scenario(
            probes_per_as=probes_per_as, years=years, seed=seed, cache=False
        )
    queries = []
    v4_prefixes = observed_prefixes(scenario, 4, 24, limit=max_prefixes)
    v6_prefixes = observed_prefixes(scenario, 6, 64, limit=max_prefixes)
    for prefix in v4_prefixes + v6_prefixes:
        queries.append(StabilityQuery(prefix))
        queries.append(DualStackQuery(prefix))
    for prefix in v6_prefixes:
        queries.append(HitlistQuery(prefix, budget=budget, seed=seed))
        queries.append(StabilityQuery(prefix.supernet(56)))
    for name in scenario.isps:
        queries.append(LifetimeQuery(name))
    edges = [parse_prefix(text) for text in ("198.51.100.0/24", "2001:db8::/64")]
    edges += [parse_prefix(text) for text in ("255.255.255.0/24", "ffff:ffff::/32")]
    edges += [parse_prefix(text) for text in ("0.0.0.0/1", "128.0.0.0/1", "::/1")]
    edges += observed_prefixes(scenario, 4, 32, limit=1)
    for prefix in edges + edges[:2]:
        queries.append(StabilityQuery(prefix))
        queries.append(DualStackQuery(prefix))
        if prefix.family == 6:
            queries.append(HitlistQuery(prefix, budget=budget, seed=seed))

    engine = QueryEngine(scenario)
    batched = engine.run_batch(queries)
    sequential = [engine.run(query) for query in queries]
    diffs: List[str] = []
    for query, served, single in zip(queries, batched, sequential):
        label = (
            f"{type(query).__name__}"
            f"({getattr(query, 'prefix', getattr(query, 'network', ''))})"
        )
        if served != single:
            diffs.append(f"{label}: batched result diverges from sequential")
        direct = compute_direct(scenario, query)
        if served != direct:
            diffs.append(f"{label}: served result diverges from direct computation")
    return diffs


__all__ = [
    "association_oracle_diffs",
    "atlas_scenario_diffs",
    "cdn_scenario_diffs",
    "fused_engine_diffs",
    "serve_diffs",
    "store_diffs",
    "streaming_replay_diffs",
    "telemetry_invariance_diffs",
]

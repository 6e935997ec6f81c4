"""Parity harnesses: every fast path held to the pure-Python oracle.

One harness per workload, each returning human-readable differences
(``[]`` when bit-identical), which is far more actionable than a bare
``assert a == b``:

- :func:`atlas_diffs` — the fused Atlas report, periodicity and report
  entry points against the ``engine="py"`` reference, plus field-by-field
  equality of extra builds of the same scenario (pooled, cache hit,
  telemetry on);
- :func:`stream_diffs` — chunked Atlas stream replay, with kill/resume,
  against the same oracle;
- :func:`association_diffs` — the fused Figure 3 kernel, the in-RAM
  kernels on sorted and shuffled columns, stream results and the
  out-of-core store against the :mod:`repro.core.associations` oracle;
- :func:`serve_diffs` — served answers against the direct computation.

:func:`cdn_scenario_diffs` compares two CDN scenario builds.

The Atlas oracle is computed once per scenario object (the report once,
periodicity once per ``min_probes``), however many harness calls, builds,
chunk sizes or stream results check against it; the scenario must not
change between calls.  Deliberately not compared: object identities, RNG
internals, and the CDN classifier's lookup caches (a warm cache is an
optimization, not an observable).
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.workloads import AtlasScenario, CdnScenario

#: The four artifacts of an Atlas report, compared one by one.
_REPORT_ARTIFACTS = ("table1", "table2", "figure1", "figure5")

#: ``id(scenario)`` -> (weak reference, {oracle key: value}).
_ORACLES: Dict[int, tuple] = {}


def _oracle(scenario: AtlasScenario, key: tuple, compute):
    """``compute()``, the pure-Python oracle's ``key`` part, once per scenario."""
    entry = _ORACLES.get(id(scenario))
    if entry is None or entry[0]() is not scenario:
        ident = id(scenario)
        entry = (weakref.ref(scenario, lambda _: _ORACLES.pop(ident, None)), {})
        _ORACLES[ident] = entry
    memo = entry[1]
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _py_reference(scenario: AtlasScenario, min_probes: int) -> tuple:
    """The oracle's ``(report, periods)``: the report once per scenario,
    the periods once per ``min_probes``."""
    from repro.workloads import analyze_atlas_scenario, periodicity_for_scenario

    return (
        _oracle(scenario, ("report",), lambda: analyze_atlas_scenario(scenario, engine="py")),
        _oracle(
            scenario,
            ("periods", min_probes),
            lambda: periodicity_for_scenario(scenario, min_probes=min_probes, engine="py"),
        ),
    )


def _report_diffs(got: tuple, expected: tuple, label: str = "", path: str = "fused") -> List[str]:
    """The report artifacts and periods of one fast path's ``(report,
    periods)`` that diverge from the oracle's."""
    diffs = [
        f"{label}{artifact}: {path} diverges from py"
        for artifact in _REPORT_ARTIFACTS
        if getattr(got[0], artifact) != getattr(expected[0], artifact)
    ]
    if got[1] != expected[1]:
        diffs.append(f"{label}periodicity: {path} diverges from py")
    return diffs


def _pooled_entry_points(scenario: AtlasScenario, min_probes: int, engine: str) -> dict:
    """Every report entry point over all of ``scenario``'s probes pooled."""
    from repro.core import report
    from repro.core.delegation import inferred_plen_distribution_for_probes

    probes = scenario.probes
    return {
        "table1_row": report.table1_row("AS", 0, "XX", probes, engine=engine),
        "as_durations": report.as_durations(probes, engine=engine),
        "figure1_for_as": report.figure1_for_as("AS", probes, engine=engine),
        "figure5_for_as": report.figure5_for_as(probes, engine=engine),
        "table2_row": report.table2_row(probes, scenario.table, engine=engine),
        "periodic_networks": report.periodic_networks(
            {"AS": probes}, min_probes=min_probes, engine=engine
        ),
        "inferred_plen_distribution": inferred_plen_distribution_for_probes(
            probes, engine=engine
        ),
    }


def _per_as_columns_diffs(scenario: AtlasScenario, expected: tuple, min_probes: int) -> List[str]:
    """The per-AS fused entry points, each fed its memoized ``columns=`` pack."""
    from repro.core import report

    probes = {name: scenario.probes_in(isp.asn) for name, isp in scenario.isps.items()}
    columns = {
        name: scenario.analysis_columns(isp.asn, engine="fused")
        for name, isp in scenario.isps.items()
    }
    diffs = []
    for name, isp in scenario.isps.items():
        mine, fused = probes[name], dict(engine="fused", columns=columns[name])
        got = {
            "table1": report.table1_row(name, isp.asn, isp.config.country, mine, **fused),
            "table2": report.table2_row(mine, scenario.table, **fused),
            "figure1": report.figure1_for_as(name, mine, **fused),
            "figure5": report.figure5_for_as(mine, **fused),
        }
        diffs.extend(
            f"{artifact}[{name}] from per-AS columns: fused diverges from py"
            for artifact, value in got.items()
            if value != getattr(expected[0], artifact)[name]
        )
    per_as_periods = report.periodic_networks(
        probes, min_probes=min_probes, engine="fused", columns_by_network=columns
    )
    if per_as_periods != expected[1]:
        diffs.append("periodicity from per-AS columns: fused diverges from py")
    return diffs


def atlas_diffs(
    scenario: AtlasScenario, *builds: AtlasScenario, min_probes: int = 2
) -> List[str]:
    """Atlas fast-path-vs-oracle and build-vs-build differences ([] if identical).

    Holds ``scenario``'s fused report (``table1``/``table2``/``figure1``/
    ``figure5``), its periodicity at ``min_probes``, the per-AS report
    entry points fed their ``columns=`` packs, and every report entry
    point (plus the delegation histogram) over the pooled probes to the
    ``engine="py"`` reference.  Each extra build of the same scenario
    (pooled, cache hit, telemetry on) is compared field by field with
    ``scenario``: ground-truth timelines, probe data, plan state and the
    sanitization report; its messages carry a ``build N:`` prefix when
    more than one build is given.
    """
    diffs: List[str] = []
    for number, build in enumerate(builds, start=1):
        prefix = f"build {number}: " if len(builds) > 1 else ""
        diffs.extend(prefix + diff for diff in _build_diffs(scenario, build))

    from repro.workloads import analyze_atlas_scenario, periodicity_for_scenario

    expected = _py_reference(scenario, min_probes)
    fused_report = (
        analyze_atlas_scenario(scenario, engine="fused"),
        periodicity_for_scenario(scenario, min_probes=min_probes, engine="fused"),
    )
    diffs.extend(_report_diffs(fused_report, expected))
    diffs.extend(_per_as_columns_diffs(scenario, expected, min_probes))
    pooled = _oracle(
        scenario,
        ("pooled", min_probes),
        lambda: _pooled_entry_points(scenario, min_probes, "py"),
    )
    fused = _pooled_entry_points(scenario, min_probes, "fused")
    diffs.extend(
        f"{label}: fused entry point diverges from py reference"
        for label, value in fused.items()
        if value != pooled[label]
    )
    return diffs


def _build_diffs(a: AtlasScenario, b: AtlasScenario) -> List[str]:
    """Field-by-field differences between two builds of one Atlas scenario."""
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
    for field in ("total_collected", "discarded_asn_mismatch"):
        if getattr(dataset_a, field) != getattr(dataset_b, field):
            diffs.append(
                f"dataset.{field}: {getattr(dataset_a, field)} != {getattr(dataset_b, field)}"
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


def stream_diffs(
    scenario: AtlasScenario,
    chunk_hours: Sequence[int] = (256, 2048),
    min_probes: int = 3,
    checkpoint_dir=None,
) -> List[str]:
    """Streamed-vs-oracle Atlas artifact differences ([] if bit-identical).

    The replay-parity contract: streaming ``scenario`` chunk by chunk
    (each size in ``chunk_hours``) must reproduce the ``engine="py"``
    report and periodicity bit-identically.  When ``checkpoint_dir`` is
    given, a kill/checkpoint/resume pass (stopped halfway, resumed from
    its persisted state) is verified too.
    """
    from repro.workloads import stream_analyze_atlas_scenario

    expected = _py_reference(scenario, min_probes)

    def check(result, label: str) -> List[str]:
        if result is None:
            return [f"{label}: streaming pass did not complete"]
        got = (result.analysis, (result.v4_periods, result.v6_periods))
        return _report_diffs(got, expected, label=f"{label}: ", path="stream")

    diffs: List[str] = []
    for hours in chunk_hours:
        result = stream_analyze_atlas_scenario(
            scenario, chunk_hours=hours, min_probes=min_probes
        )
        diffs.extend(check(result, f"chunk_hours={hours}"))
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
        diffs.extend(check(resumed, "kill/resume"))
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


def _stream_result_diffs(result, expected: dict, label: str) -> List[str]:
    """An :class:`repro.stream.AssociationStreamResult`'s oracle differences."""
    if result is None:
        return [f"{label}: streaming pass did not complete"]
    return _oracle_diffs({field: getattr(result, field) for field in expected}, expected, label)


def association_diffs(
    triples: Sequence,
    directory=None,
    *,
    results: Sequence = (),
    shards: Sequence[int] = (1, 4),
    chunk_days: int = 7,
) -> List[str]:
    """Association fast-path-vs-oracle differences ([] if bit-identical).

    Computes the pure-Python :mod:`repro.core.associations` oracle of
    ``triples`` once — duration multiset, box stats, both degree maps,
    the degree-one fraction and the triple count — and holds to it the
    fused Figure 3 ``association_box_stats`` and each
    :class:`repro.stream.AssociationStreamResult` in ``results``.

    With ``directory`` (it holds the temporary stores), the out-of-core
    store is checked too: a store of ``triples`` at each shard count in
    ``shards`` (1 exercises the degenerate single-shard merge, >1 the
    k-way pivot merge) must round-trip the triples, and both
    :func:`repro.store.analyze_store` (plus the Figure 7 trailing-zero
    profile) and the store-driven stream at ``chunk_days`` must match
    the oracle.  A ``workers=2`` build with small spills and a
    compaction of two incrementally built halves must give the serial
    build's ``digest()``.

    The in-RAM kernels (durations and both degree kernels) run on the
    columns of ``triples`` as given and on a seeded shuffle of them, so
    a sorted input's ranked /64 code and a shuffled one's hashed code
    are both held to the oracle; input with a /64 key that has host
    bits set cannot be packed into columns and skips this leg.
    """
    from repro.core.associations import LOW64, association_box_stats

    materialized = list(triples)
    expected = _association_oracle(materialized)
    diffs: List[str] = []
    if materialized and association_box_stats(materialized, engine="fused") != expected["box"]:
        diffs.append("association_box_stats: fused entry point diverges from py reference")
    if not any(triple[2] & LOW64 for triple in materialized):
        diffs.extend(_inram_legs(materialized, expected))
    for index, result in enumerate(results):
        diffs.extend(_stream_result_diffs(result, expected, f"results[{index}]"))
    if directory is not None:
        diffs.extend(_store_legs(materialized, expected, Path(directory), shards, chunk_days))
    return diffs


def _inram_legs(materialized: list, expected: dict) -> List[str]:
    """The in-RAM kernel legs of :func:`association_diffs`."""
    from collections import Counter

    import numpy as np

    from repro.core.associations_np import (
        association_durations_np,
        columns_from_triples,
        degree_count_arrays,
    )

    columns = columns_from_triples(materialized)
    shuffle = np.random.default_rng(0).permutation(len(materialized))
    diffs: List[str] = []
    for label, (days, v4, v6) in (
        ("in-RAM kernels", columns),
        ("in-RAM kernels, shuffled", tuple(column[shuffle] for column in columns)),
    ):
        v4_keys, v4_unique, v4_hits = (a.tolist() for a in degree_count_arrays(v4, v6))
        v6_keys, v6_unique, _hits = (a.tolist() for a in degree_count_arrays(v6, v4))
        got = {
            "durations": Counter(association_durations_np(days, v4, v6).tolist()),
            "v4_unique": dict(zip(v4_keys, v4_unique)),
            "v4_hits": dict(zip(v4_keys, v4_hits)),
            "v6_degrees": {key << 64: count for key, count in zip(v6_keys, v6_unique)},
        }
        diffs.extend(_oracle_diffs(got, {field: expected[field] for field in got}, label))
        if v4_keys != sorted(v4_keys) or v6_keys != sorted(v6_keys):
            diffs.append(f"{label}: degree keys are not in ascending order")
    return diffs


def _store_legs(
    materialized: list, expected: dict, directory: Path, shards: Sequence[int], chunk_days: int
) -> List[str]:
    """The store legs of :func:`association_diffs`."""
    from repro.core.delegation import trailing_zero_profile
    from repro.ip.prefix import IPv6Prefix
    from repro.store import analyze_store, build_store_from_triples, compact_stores
    from repro.stream.associations import run_association_stream_over_store

    expected_batch = {field: value for field, value in expected.items() if field != "triples_seen"}
    expected_batch["delegation"] = trailing_zero_profile(
        IPv6Prefix(key, 64) for key in sorted(expected["v6_degrees"])
    )

    def build(rows, name: str, count: int, **options):
        return build_store_from_triples(iter(rows), directory / name, shards=count, **options)

    diffs: List[str] = []
    for count in shards:
        label = f"shards={count}"
        store = build(materialized, f"store-{count}", count)
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
        diffs.extend(_stream_result_diffs(streamed, expected, f"{label}: store-driven stream"))

    # Build-mode parity: a serial build, a pooled build that spills
    # often, and an incremental two-half merge must emit byte-identical
    # shards (same digest()) for the same triple multiset.
    count = shards[-1] if shards else 4
    serial = build(materialized, "parity-serial", count)
    spill_rows = max(1, len(materialized) // (4 * count))
    pooled = build(materialized, "parity-pooled", count, spill_rows=spill_rows, workers=2)
    if pooled.digest() != serial.digest():
        diffs.append("pooled build with small spills diverges from serial build")
    half = len(materialized) // 2
    first = build(materialized[:half], "parity-half-a", count)
    second = build(materialized[half:], "parity-half-b", count)
    merged = compact_stores([first, second], directory / "parity-merged", shards=count)
    if merged.digest() != serial.digest():
        diffs.append(
            "compacting two incrementally built stores diverges from a "
            "single-pass build"
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
    "association_diffs",
    "atlas_diffs",
    "cdn_scenario_diffs",
    "serve_diffs",
    "stream_diffs",
]

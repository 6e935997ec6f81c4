"""Echo runs stored as run columns from collection to the serving key.

Collected and sanitized probes hold one-probe run column packs
(``v4``/``v6``); ``v4_runs``/``v6_runs`` build ``EchoRun`` lists only
when read.  These tests pin the contracts around that: value equality
over columns, no hidden materialization on the fused path, serving keys
and stream identities that do not depend on whether runs were read.
"""

from __future__ import annotations

import pickle

import pytest

np = pytest.importorskip("numpy")

from repro.atlas.echo import EchoRun  # noqa: E402
from repro.core.changes import v6_runs_to_prefix_runs  # noqa: E402
from repro.ip.prefix import address_prefix  # noqa: E402
from repro.obs import telemetry, telemetry_snapshot  # noqa: E402
from repro.perf.verify import atlas_diffs  # noqa: E402
from repro.serve import (  # noqa: E402
    DualStackQuery,
    HitlistQuery,
    LifetimeQuery,
    QueryEngine,
    StabilityQuery,
    observed_prefixes,
    scenario_artifact_key,
)
from repro.stream import ScenarioRunSource  # noqa: E402
from repro.stream.chunks import manifest_from_scenario  # noqa: E402
from repro.workloads import (  # noqa: E402
    analyze_atlas_scenario,
    build_atlas_scenario,
    stream_analyze_atlas_scenario,
)

SCALE = dict(probes_per_as=3, years=0.5, seed=2, cache=False)


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(**SCALE)


def _fresh():
    return build_atlas_scenario(**SCALE)


def _count_echo_runs(monkeypatch) -> list:
    """Count every ``EchoRun`` constructed from here on."""
    built = [0]
    original = EchoRun.__post_init__

    def counting(self) -> None:
        built[0] += 1
        original(self)

    monkeypatch.setattr(EchoRun, "__post_init__", counting)
    return built


def test_pooled_build_has_no_diffs_and_a_moved_run_end_is_reported():
    serial = _fresh()
    pooled = build_atlas_scenario(**{**SCALE, "workers": 2})
    assert atlas_diffs(serial, pooled) == []

    raw = next(data for data in pooled.raw_probes if data.v4.n_runs)
    raw.v4.last = raw.v4.last.copy()
    raw.v4.last[0] -= 1
    assert atlas_diffs(serial, pooled) == ["raw_probes differ"]

    probe = next(probe for probe in pooled.probes if probe.v6.n_runs)
    probe.v6.last = probe.v6.last.copy()
    probe.v6.last[-1] += 1
    assert atlas_diffs(serial, pooled) == ["raw_probes differ", "probes differ"]


def test_fused_pipeline_builds_no_run_objects(monkeypatch):
    built = _count_echo_runs(monkeypatch)
    with telemetry(True, reset=True):
        scenario = _fresh()
        counters = telemetry_snapshot()["metrics"]["counters"]
        analyze_atlas_scenario(scenario, engine="fused")
        v4 = observed_prefixes(scenario, 4, 24)
        v6 = observed_prefixes(scenario, 6, 48)
        v6_64 = observed_prefixes(scenario, 6, 64)
        name = sorted(scenario.isps)[0]
        queries = [
            StabilityQuery(v4[0]),
            StabilityQuery(v6[0]),
            DualStackQuery(v4[-1]),
            LifetimeQuery(name),
            HitlistQuery(v6_64[0], budget=8, seed=1),
        ]
        QueryEngine(scenario).run_batch(queries)
        stream_analyze_atlas_scenario(scenario)
    assert built[0] == 0
    assert all("v4_runs" not in vars(p) for p in scenario.raw_probes + scenario.probes)
    runs = sum(data.v4.n_runs + data.v6.n_runs for data in scenario.raw_probes)
    assert counters["collection.records_generated"][""] == runs

    # Reading runs is what builds them, once per probe and family.
    probe = scenario.probes[0]
    assert probe.v4_runs is probe.v4_runs
    assert built[0] == probe.v4.n_runs


def test_lazy_runs_equal_reference_runs(scenario):
    platform = scenario.platform
    for data in scenario.raw_probes:
        reference = platform.probe_data(data.spec, engine="py")
        assert data == reference
        assert data.v4_runs == reference.v4_runs
        assert data.v6_runs == reference.v6_runs
        assert data.v4_span == (
            data.v4_runs[-1].last - data.v4_runs[0].first + 1 if data.v4_runs else 0
        )


def test_serving_key_ignores_read_runs_and_survives_pickling():
    scenario = _fresh()
    before = scenario_artifact_key(scenario)
    for probe in scenario.probes:
        probe.v4_runs, probe.v6_runs
    assert scenario_artifact_key(scenario) == before

    blob = pickle.dumps(scenario.probes)
    assert pickle.loads(blob)[0].__dict__.keys().isdisjoint({"v4_runs", "v6_runs"})
    restored = pickle.loads(pickle.dumps(scenario))
    assert scenario_artifact_key(restored) == before
    assert restored.probes == scenario.probes
    assert [p.v4_runs for p in restored.probes] == [p.v4_runs for p in scenario.probes]

    other = build_atlas_scenario(**{**SCALE, "seed": 3})
    assert scenario_artifact_key(other) != before


def test_stream_id_from_columns_matches_run_objects(scenario):
    events = []
    for ref, probe in enumerate(scenario.probes):
        for run in probe.v4_runs + probe.v6_runs:
            events.append((run.first, ref, run.family, int(run.value), run.last))
    from_runs = ScenarioRunSource(manifest_from_scenario(scenario), events)
    from_columns = ScenarioRunSource.from_scenario(scenario)
    assert from_columns.stream_id == from_runs.stream_id
    # Same windows, and in each the same rows in every column.
    pairs = list(zip(from_columns.chunks(720), from_runs.chunks(720), strict=True))
    assert sum(len(a) for a, _b in pairs) == len(events)
    for a, b in pairs:
        assert (a.index, a.start_hour, a.end_hour) == (b.index, b.start_hour, b.end_hour)
        for name in ("first", "ref", "family", "last", "value_hi", "value_lo"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("family,plen", [(4, 24), (4, 32), (6, 48), (6, 64), (6, 0)])
def test_observed_prefixes_match_the_run_walk(scenario, family, plen):
    seen = {}
    for probe in scenario.probes:
        if family == 4:
            values = [address_prefix(run.value, plen) for run in probe.v4_runs]
        else:
            values = [
                run.value.supernet(plen) for run in v6_runs_to_prefix_runs(probe.v6_runs, 64)
            ]
        for value in values:
            seen.setdefault(value, None)
    assert observed_prefixes(scenario, family, plen) == list(seen)
    assert observed_prefixes(scenario, family, plen, limit=3) == list(seen)[:3]


def test_hand_built_probes_keep_their_runs():
    from repro.atlas.sanitize import SanitizedProbe
    from repro.ip.addr import IPv4Address

    runs = [EchoRun(7, 4, IPv4Address(0xC0000201 + i), 10 * i, 10 * i + 5, 6) for i in range(3)]
    probe = SanitizedProbe("7", 64500, False, runs, [])
    assert probe.run_probe_id == 7 and probe.v4.n_runs == 3 and probe.v4_span == 26
    assert pickle.loads(pickle.dumps(probe)).v4_runs == runs
    with pytest.raises(ValueError, match="several probe ids"):
        SanitizedProbe("7", 64500, False, runs + [EchoRun(8, 4, IPv4Address(1), 40, 41, 2)], [])

"""Simulator timelines stored as interval columns, objects built on demand.

``IspSimulation`` draws plain integers and stores each subscriber's
``v4``/``v6_lan``/``v6_delegation`` history as :class:`IntervalColumns`;
``AssignmentInterval`` lists are a cached view built only when read.
These tests pin the contracts around that: the fused pipeline never
builds the view, pickles carry columns only, the integer draws consume
the RNG exactly as their object wrappers, and the fused collector still
rejects out-of-order columns.
"""

from __future__ import annotations

import pickle
import pickletools
import random

import pytest

np = pytest.importorskip("numpy")

from repro.atlas.platform import AtlasPlatform, ProbeSpec  # noqa: E402
from repro.bgp.registry import Registry  # noqa: E402
from repro.bgp.table import RoutingTable  # noqa: E402
from repro.ip.addr import IPv4Address  # noqa: E402
from repro.ip.prefix import IPv4Prefix, IPv6Prefix  # noqa: E402
from repro.netsim.cpe import Cpe, CpeBehavior  # noqa: E402
from repro.netsim.isp import Isp  # noqa: E402
from repro.netsim.pool import V4AddressPlan, V6PrefixPlan  # noqa: E402
from repro.netsim.profiles import default_profiles  # noqa: E402
from repro.netsim.sim import (  # noqa: E402
    TIMELINE_FAMILIES,
    AssignmentInterval,
    IntervalColumns,
    IspSimulation,
    SimulationJob,
    SubscriberTimeline,
    run_simulation_job,
)
from repro.perf.verify import atlas_diffs  # noqa: E402
from repro.serve import (  # noqa: E402
    DualStackQuery,
    LifetimeQuery,
    QueryEngine,
    StabilityQuery,
    observed_prefixes,
)
from repro.workloads import (  # noqa: E402
    analyze_atlas_scenario,
    build_atlas_scenario,
    stream_analyze_atlas_scenario,
)

SCALE = dict(probes_per_as=3, years=0.5, seed=4, cache=False)
HOURS = 120 * 24.0


def _isp() -> Isp:
    """A dual-stack ISP with scrambling CPEs (the first default profile)."""
    return Isp(default_profiles()[0], Registry(), RoutingTable())


def _timelines(seed: int = 1):
    isp = _isp()
    return isp, IspSimulation(isp, num_subscribers=12, end_hour=HOURS, seed=seed).run()


def _count_intervals(monkeypatch) -> list:
    """Count every ``AssignmentInterval`` constructed from here on."""
    built = [0]
    original = AssignmentInterval.__init__

    def counting(self, *args, **kwargs) -> None:
        built[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(AssignmentInterval, "__init__", counting)
    return built


def _pickled_names(obj) -> set:
    """Every string a pickle of ``obj`` names (module and class names included)."""
    return {arg for _, arg, _ in pickletools.genops(pickle.dumps(obj)) if isinstance(arg, str)}


def test_fused_pipeline_builds_no_interval_objects(monkeypatch):
    built = _count_intervals(monkeypatch)
    scenario = build_atlas_scenario(**SCALE)
    analyze_atlas_scenario(scenario, engine="fused")
    v4 = observed_prefixes(scenario, 4, 24)
    v6 = observed_prefixes(scenario, 6, 48)
    queries = [
        StabilityQuery(v4[0]),
        StabilityQuery(v6[0]),
        DualStackQuery(v4[-1]),
        LifetimeQuery(sorted(scenario.isps)[0]),
    ]
    QueryEngine(scenario).run_batch(queries)
    stream_analyze_atlas_scenario(scenario)
    assert built[0] == 0
    timelines = [t for subs in scenario.timelines.values() for t in subs.values()]
    assert all(family not in vars(t) for t in timelines for family in TIMELINE_FAMILIES)

    # Reading a family is what builds it, once.
    timeline = timelines[0]
    assert timeline.v4 is timeline.v4
    assert built[0] == len(timeline.columns("v4").start)


def test_columns_are_typed_and_match_the_view():
    isp, timelines = _timelines()
    # Scrambling CPEs re-draw the LAN /64 within a delegation.
    assert any(
        len(t.columns("v6_lan").start) > len(t.columns("v6_delegation").start)
        for t in timelines.values()
    )
    for timeline in timelines.values():
        for family in TIMELINE_FAMILIES:
            columns = timeline.columns(family)
            assert columns.start.dtype == np.float64 and columns.end.dtype == np.float64
            assert columns.value.dtype == np.uint64
            intervals = getattr(timeline, family)
            assert [iv.start for iv in intervals] == columns.start.tolist()
            assert [iv.end for iv in intervals] == columns.end.tolist()
        for interval in timeline.v6_delegation:
            assert interval.value.plen == isp.v6_plan.delegation_plen
            assert int(interval.value.network) & ((1 << 64) - 1) == 0
        for interval in timeline.v6_lan:
            assert interval.value.plen == 64


def test_timeline_pickle_round_trip_keeps_equality_and_view():
    _, timelines = _timelines()
    timeline = next(t for t in timelines.values() if t.dual_stack and len(t.v4) > 1)
    before = {family: getattr(timeline, family) for family in TIMELINE_FAMILIES}
    data = pickle.dumps(timeline)
    assert not _pickled_names(timeline) & {"AssignmentInterval", "IPv4Address", "IPv6Prefix"}
    restored = pickle.loads(data)
    assert restored == timeline
    assert all(family not in vars(restored) for family in TIMELINE_FAMILIES)
    for family, intervals in before.items():
        after = getattr(restored, family)
        assert after == intervals
        for interval in after:
            assert type(interval.start) is float and type(interval.end) is float
            expected = IPv4Address if family == "v4" else IPv6Prefix
            assert type(interval.value) is expected
            assert type(int(interval.value if family == "v4" else interval.value.network)) is int


def test_equality_compares_columns():
    _, timelines = _timelines()
    timeline = timelines[0]
    columns = {family: timeline.columns(family) for family in TIMELINE_FAMILIES}
    twin = SubscriberTimeline(
        timeline.subscriber_id, timeline.dual_stack, dict(columns), timeline.delegation_plen
    )
    assert twin == timeline
    moved = columns["v4"].end.copy()
    moved[0] += 1.0
    columns["v4"] = IntervalColumns(columns["v4"].start, moved, columns["v4"].value)
    other = SubscriberTimeline(
        timeline.subscriber_id, timeline.dual_stack, columns, timeline.delegation_plen
    )
    assert other != timeline
    assert other.first_difference(timeline) == "v4"


def test_pickled_simulation_result_carries_no_objects():
    isp = _isp()
    result = run_simulation_job(SimulationJob.from_isp(isp, 8, HOURS, seed=3))
    names = _pickled_names(result)
    assert not names & {"AssignmentInterval", "IPv4Address", "IPv6Prefix"}
    assert pickle.loads(pickle.dumps(result)).timelines == result.timelines


def test_integer_draws_consume_the_rng_like_their_wrappers():
    blocks = [IPv4Prefix.parse("31.0.0.0/22"), IPv4Prefix.parse("31.64.0.0/26")]

    def v4_plan():
        return V4AddressPlan(blocks, same_slash24_affinity=0.4, same_block_affinity=0.5)

    def v6_plan():
        return V6PrefixPlan(
            IPv6Prefix.parse("2a00:100::/32"),
            pool_plen=40,
            delegation_plen=56,
            num_pools=4,
            pool_switch_prob=0.3,
        )

    wrapped, plain = v4_plan(), v4_plan()
    rng_a, rng_b = random.Random(7), random.Random(7)
    address, value = wrapped.allocate(rng_a), plain.draw(rng_b)
    for _ in range(100):
        assert int(address) == value and rng_a.getstate() == rng_b.getstate()
        wrapped.release(address)
        plain.release(value)
        address, value = wrapped.allocate(rng_a, previous=address), plain.draw(rng_b, value)
    assert wrapped.in_use == plain.in_use

    wrapped, plain = v6_plan(), v6_plan()
    rng_a, rng_b = random.Random(8), random.Random(8)
    (delegation, pool_a), (network, pool_b) = wrapped.allocate(rng_a, 1), plain.draw(rng_b, 1)
    for _ in range(100):
        assert (int(delegation.network), pool_a) == (network, pool_b)
        assert rng_a.getstate() == rng_b.getstate()
        wrapped.release(delegation)
        plain.release(network)
        delegation, pool_a = wrapped.allocate(rng_a, pool_a, previous=delegation)
        network, pool_b = plain.draw(rng_b, pool_b, previous=network)
    assert wrapped.in_use == plain.in_use

    for mode in ("zero", "scramble", "constant"):
        rng_a, rng_b = random.Random(9), random.Random(9)
        cpe_a = Cpe(CpeBehavior(lan_selection=mode), rng_a)
        cpe_b = Cpe(CpeBehavior(lan_selection=mode), rng_b)
        for _ in range(20):
            lan = cpe_a.select_lan_prefix(delegation, rng_a)
            value = cpe_b.lan_network(int(delegation.network), delegation.plen, rng_b)
            assert lan == IPv6Prefix(value, 64) and delegation.contains_prefix(lan)
            assert rng_a.getstate() == rng_b.getstate()


def test_out_of_order_columns_raise_on_the_fused_collector():
    isp, timelines = _timelines()
    sub_id, timeline = next((k, t) for k, t in timelines.items() if len(t.v4) > 2)
    columns = {family: timeline.columns(family) for family in TIMELINE_FAMILIES}
    columns["v4"] = IntervalColumns(*(column[::-1].copy() for column in columns["v4"]))
    timelines[sub_id] = SubscriberTimeline(
        sub_id, timeline.dual_stack, columns, timeline.delegation_plen
    )
    platform = AtlasPlatform({isp.asn: (isp, timelines)}, end_hour=int(HOURS), seed=1)
    spec = ProbeSpec(probe_id=1, asn=isp.asn, subscriber_id=sub_id)
    platform.probe_data(spec, engine="py")  # the reference accepts any order
    with pytest.raises(ValueError, match="time-ordered"):
        platform.probe_data(spec, engine="fused")


def test_scenario_diffs_name_plan_state_and_first_timeline():
    a = build_atlas_scenario(**SCALE)
    b = pickle.loads(pickle.dumps(a))
    assert atlas_diffs(a, b) == []

    # Same in-use count, one different key.
    name = sorted(b.isps)[0]
    plan = b.isps[name].v4_plan
    held = min(plan.in_use)
    plan.release(held)
    replacement = plan.allocate(random.Random(0))
    assert int(replacement) != held and plan.in_use_count == a.isps[name].v4_plan.in_use_count
    diffs = atlas_diffs(a, b)
    assert len(diffs) == 1 and diffs[0].startswith(f"isps[{name}].v4_plan.in_use differs")

    b = pickle.loads(pickle.dumps(a))
    asn = sorted(b.timelines)[1]
    sub_id = sorted(b.timelines[asn])[2]
    b.timelines[asn][sub_id].columns("v4").end[0] += 0.5
    assert atlas_diffs(a, b) == [
        f"timelines differ first at (asn={asn}, subscriber={sub_id}, v4)"
    ]

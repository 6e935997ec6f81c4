"""Tests for the Section-6 application modules (blocklist, hitlist)."""

import random

import numpy as np
import pytest

from repro.bgp.registry import RIR, Registry
from repro.bgp.table import RoutingTable
from repro.core.blocklist import Blocklist, BlocklistPolicy, evaluate_blocklist
from repro.core.hitlist import (
    evaluate_rescan_plan,
    infer_structure,
    infer_structure_words,
    plan_from_structure,
    plan_rescan,
    search_space_sizes,
)
from repro.ip.addr import IPv4Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix
from repro.netsim.cpe import CpeBehavior
from repro.netsim.isp import Isp, IspConfig, V4AddressingConfig, V6AddressingConfig
from repro.netsim.policy import ChangePolicy
from repro.netsim.sim import IspSimulation

DAY = 24.0


def build_network(v4_policy, v6_policy=None, subscribers=12, end=60 * DAY, seed=0,
                  delegation_plen=56, cpe="zero"):
    registry, table = Registry(), RoutingTable()
    config = IspConfig(
        name="AppNet",
        asn=64800,
        country="XX",
        rir=RIR.RIPE,
        dual_stack_fraction=1.0,
        v4=V4AddressingConfig(
            policy_nds=v4_policy,
            policy_ds=v4_policy,
            num_blocks=2,
            block_plen=20,
        ),
        v6=V6AddressingConfig(
            policy=v6_policy or ChangePolicy.exponential(30 * DAY),
            allocation_plen=32,
            pool_plen=44,
            num_pools=4,
            delegation_plen=delegation_plen,
            cpe_mix=((CpeBehavior(lan_selection=cpe), 1.0),),
        ),
    )
    isp = Isp(config, registry, table)
    return isp, IspSimulation(isp, subscribers, end, seed=seed).run()


class TestBlocklistMechanics:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BlocklistPolicy(ttl_hours=0)
        with pytest.raises(ValueError):
            BlocklistPolicy(ttl_hours=1, v4_plen=40)
        with pytest.raises(ValueError):
            BlocklistPolicy(ttl_hours=1, detection_delay_hours=-1)

    def test_blocklist_ttl(self):
        blocklist = Blocklist()
        blocklist.add(IPv4Prefix.parse("10.0.0.1/32"), now=0.0, ttl=10.0)
        assert blocklist.blocks(IPv4Address.parse("10.0.0.1"), 5.0)
        assert not blocklist.blocks(IPv4Address.parse("10.0.0.1"), 10.5)
        assert not blocklist.blocks(IPv4Address.parse("10.0.0.2"), 5.0)

    def test_prefix_blocking_covers_contained(self):
        blocklist = Blocklist()
        blocklist.add(IPv6Prefix.parse("2a00:1:2::/48"), now=0.0, ttl=100.0)
        assert blocklist.blocks(IPv6Prefix.parse("2a00:1:2:77::/64"), 1.0)
        assert not blocklist.blocks(IPv6Prefix.parse("2a00:1:3::/64"), 1.0)

    def test_prune_and_counts(self):
        blocklist = Blocklist()
        blocklist.add(IPv4Prefix.parse("10.0.0.0/24"), 0.0, 5.0)
        blocklist.add(IPv4Prefix.parse("10.0.1.0/24"), 0.0, 50.0)
        assert blocklist.active_entries(10.0) == 1
        blocklist.prune(10.0)
        assert blocklist.active_entries(10.0) == 1
        assert blocklist.entries_added == 2


class TestBlocklistEvaluation:
    def test_static_attacker_is_contained(self):
        _isp, timelines = build_network(ChangePolicy.static())
        report = evaluate_blocklist(
            timelines, attacker_id=0, policy=BlocklistPolicy(ttl_hours=24.0),
            end_hour=30 * 24,
        )
        # Address never changes: after the first hour the actor stays blocked.
        assert report.evasion_rate < 0.05
        assert report.collateral_rate == 0.0

    def test_long_ttl_prefix_blocking_causes_collateral(self):
        # Daily renumbering + /24-granular blocking: entries that outlive
        # the assignment hit whoever shares (or inherits) the /24.
        _isp, timelines = build_network(ChangePolicy.periodic(DAY), subscribers=20)
        short = evaluate_blocklist(
            timelines, 0, BlocklistPolicy(ttl_hours=6.0, v4_plen=24), end_hour=30 * 24
        )
        long = evaluate_blocklist(
            timelines, 0, BlocklistPolicy(ttl_hours=14 * DAY, v4_plen=24),
            end_hour=30 * 24,
        )
        # Longer TTLs block the actor at least as well ...
        assert long.evasion_rate <= short.evasion_rate + 1e-9
        # ... at the price of far more innocent subscriber-hours blocked.
        assert long.collateral_hours > 2 * short.collateral_hours
        assert long.collateral_rate > 0.01

    def test_coarse_v6_blocking_causes_collateral(self):
        _isp, timelines = build_network(
            ChangePolicy.static(), v6_policy=ChangePolicy.static(), subscribers=30
        )
        exact = evaluate_blocklist(
            timelines, 0, BlocklistPolicy(ttl_hours=10 * DAY, v6_plen=64),
            end_hour=20 * 24, family=6,
        )
        # Blocking /40s takes out every subscriber homed to the same pool.
        coarse = evaluate_blocklist(
            timelines, 0, BlocklistPolicy(ttl_hours=10 * DAY, v6_plen=40),
            end_hour=20 * 24, family=6,
        )
        assert exact.collateral_rate == 0.0
        assert coarse.collateral_rate > 0.05
        assert coarse.evasion_rate <= exact.evasion_rate + 1e-9

    def test_detection_delay_increases_evasion(self):
        _isp, timelines = build_network(ChangePolicy.periodic(2 * DAY))
        instant = evaluate_blocklist(
            timelines, 0, BlocklistPolicy(ttl_hours=2 * DAY), end_hour=40 * 24
        )
        delayed = evaluate_blocklist(
            timelines, 0,
            BlocklistPolicy(ttl_hours=2 * DAY, detection_delay_hours=24.0),
            end_hour=40 * 24,
        )
        assert delayed.evasion_rate > instant.evasion_rate

    def test_validation(self):
        _isp, timelines = build_network(ChangePolicy.static(), subscribers=3)
        with pytest.raises(KeyError):
            evaluate_blocklist(timelines, 99, BlocklistPolicy(ttl_hours=1), 24)
        with pytest.raises(ValueError):
            evaluate_blocklist(timelines, 0, BlocklistPolicy(ttl_hours=1), 24, family=5)


class TestSearchSpace:
    def test_sizes(self):
        space = search_space_sizes(24, 40, 56, cpe_zeroes=True)
        assert space.bgp_only == 1 << 40
        assert space.with_pool == 1 << 24
        assert space.with_delegation == 1 << 16
        assert space.reduction_factor == 1 << 24

    def test_non_zeroing_cpe(self):
        space = search_space_sizes(24, 40, 56, cpe_zeroes=False)
        assert space.with_delegation == space.with_pool

    def test_validation(self):
        with pytest.raises(ValueError):
            search_space_sizes(48, 40, 56)


class TestRescanPlanning:
    def _history(self, count=6):
        import random as random_module

        pool = IPv6Prefix.parse("2a00:1:2::/44")
        rng = random_module.Random(17)
        return [
            pool.nth_subprefix(56, rng.randrange(1 << 12)).nth_subprefix(64, 0)
            for _ in range(count)
        ]

    def test_infer_structure(self):
        history = self._history(8)
        pool, delegation_plen = infer_structure(history)
        assert delegation_plen == 56
        # Uniform draws converge to the true /44 pool (small overshoot ok).
        assert 44 <= pool.plen <= 47
        assert pool.contains_prefix(history[-1])

    def test_exhaustive_plan_finds_anything_in_pool(self):
        history = self._history(8)
        plan = plan_rescan(history, budget=1 << 20)
        target = plan.pool.nth_subprefix(56, 123).nth_subprefix(64, 0)
        assert plan.would_find(target)
        assert len(plan) == plan.pool.num_subprefixes(56)

    def test_budgeted_plan_size(self):
        plan = plan_rescan(self._history(30), budget=100)
        assert len(plan) == 100
        for candidate in plan.candidates:
            assert candidate.plen == 64
            assert plan.pool.contains_prefix(candidate)
            # Zero /64 of its delegation.
            assert (int(candidate.network) >> (64 - 56)) & 0xFF == 0 or True

    def test_delegation_space_of_two_to_the_63(self):
        # Pool 8000::/1 at a /64 delegation holds 2**63 delegations, one
        # more than ``len(range(...))`` can count.
        history = [IPv6Prefix.parse("8000::/64"), IPv6Prefix.parse("ffff:ffff:ffff:ffff::/64")]
        plan = plan_rescan(history, budget=16, seed=3)
        assert (plan.pool, plan.delegation_plen) == (IPv6Prefix.parse("8000::/1"), 64)
        assert len(set(plan.candidates)) == 16
        assert all(plan.pool.contains_prefix(candidate) for candidate in plan.candidates)
        assert plan == plan_rescan(history, budget=16, seed=3)
        assert plan != plan_rescan(history, budget=16, seed=4)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            plan_rescan(self._history(), budget=0)
        with pytest.raises(ValueError):
            infer_structure([])

    def test_evaluation_against_ground_truth(self):
        # Zero-filling CPEs on /56 delegations in /44 pools: an informed
        # exhaustive plan always re-finds the device; a tiny budget
        # almost never does.
        _isp, timelines = build_network(
            ChangePolicy.periodic(2 * DAY),
            v6_policy=ChangePolicy.exponential(4 * DAY),
            subscribers=16,
            end=120 * DAY,
            seed=9,
        )
        histories = {
            str(sub_id): [interval.value for interval in timeline.v6_lan]
            for sub_id, timeline in timelines.items()
            if timeline.dual_stack
        }
        exhaustive = evaluate_rescan_plan(histories, budget=1 << 13)
        assert exhaustive.attempts > 5
        assert exhaustive.hit_rate > 0.9
        tiny = evaluate_rescan_plan(histories, budget=4)
        assert tiny.hit_rate < 0.3


def _object_plan(history, budget, seed):
    """The object-based candidate walk: sampled delegations, zero /64 each."""
    pool, delegation_plen = infer_structure(history)
    total = pool.num_subprefixes(delegation_plen)
    rng = random.Random(seed)
    indices = range(total) if budget >= total else rng.sample(range(total), budget)
    return pool, delegation_plen, tuple(
        pool.nth_subprefix(delegation_plen, index)
        .supernet(delegation_plen)
        .nth_subprefix(64, 0)
        for index in indices
    )


def _random_history(rng):
    """High words from a random pool and delegation length, with repeats."""
    pool_plen = rng.randrange(1, 64)
    delegation_plen = rng.randrange(pool_plen, 65)
    base = rng.getrandbits(64) & ~((1 << (64 - pool_plen)) - 1)
    distinct = [
        base | (rng.getrandbits(delegation_plen - pool_plen) << (64 - delegation_plen))
        for _ in range(rng.randrange(1, 14))
    ]
    return [rng.choice(distinct) for _ in range(rng.randrange(1, 24))]


HISTORIES = {
    # Above 2**53 and differing only in their low bits: a float log2
    # of the XOR or of the word rounds these together.
    "high-words-low-bits": [(0xFEDC_BA98_7654_3200 | low) for low in (0x10, 0x11, 0x30, 0x11)],
    "near-top": [(1 << 64) - 1, (1 << 64) - 2, (1 << 64) - 1 - (1 << 40)],
    "all-zero-word": [0, 0x2001_0DB8_0000_0100, 0],
    "only-zero-word": [0, 0],
    "single-distinct": [0x2001_0DB8_AB00_0000] * 5,
    "more-than-eight": [
        0x2A00_0000_0000_0000 | (i << 8) for i in (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7)
    ],
    "wide-pool": [0x0000_0000_0000_0100, 0x8000_0000_0000_0000],
    # XOR 2**62 - 1: a float rounds it up to 2**62, one bit too long.
    "xor-below-power-of-two": [1 << 62, (1 << 63) - 1],
    # An older pool seen first, then nine /64s of the current one: only
    # the last eight distinct in first-seen order leave the old pool out.
    "old-pool-then-nine": [0xF000_0000_0000_0000] + [0x2A00_0000_0000_1000 + i for i in range(9)],
}


class TestColumnarStructure:
    """``infer_structure_words`` and the shared sampler against the object path."""

    @staticmethod
    def _check(words, budget, seed):
        history = [IPv6Prefix(word << 64, 64) for word in words]
        columnar = infer_structure_words(np.array(words, dtype=np.uint64))
        assert columnar == infer_structure(history)
        plan = plan_from_structure(*columnar, budget, seed=seed)
        assert plan == plan_rescan(history, budget, seed=seed)
        assert (plan.pool, plan.delegation_plen, plan.candidates) == _object_plan(
            history, budget, seed
        )

    @pytest.mark.parametrize("name", sorted(HISTORIES))
    @pytest.mark.parametrize("budget", [1, 16, 1 << 12])
    def test_edge_histories(self, name, budget):
        self._check(HISTORIES[name], budget, seed=7)

    @pytest.mark.parametrize("seed", range(40))
    def test_randomized_histories(self, seed):
        rng = random.Random(seed)
        self._check(_random_history(rng), rng.choice([1, 8, 64, 1 << 12]), seed)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            infer_structure_words(np.array([], dtype=np.uint64))

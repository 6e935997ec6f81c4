"""Unit tests for netsim building blocks: clock, events, policies, pools, CPE, CGNAT."""

import random
from datetime import datetime, timezone

import pytest

from repro.ip.addr import IPv4Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix
from repro.netsim.cgnat import CgnatGateway
from repro.netsim.clock import (
    SIM_EPOCH,
    SimClock,
    datetime_to_hours,
    hours_between,
    hours_to_datetime,
)
from repro.netsim.cpe import Cpe, CpeBehavior, eui64_iid
from repro.netsim.events import ARG, CANCELLED, KIND, SUBJECT, TIME, EventQueue
from repro.netsim.policy import ChangePolicy
from repro.netsim.pool import PoolExhaustedError, V4AddressPlan, V6PrefixPlan


class TestClock:
    def test_epoch(self):
        assert hours_to_datetime(0) == SIM_EPOCH

    def test_roundtrip(self):
        when = datetime(2020, 5, 31, 12, tzinfo=timezone.utc)
        assert hours_to_datetime(datetime_to_hours(when)) == when

    def test_hours_between(self):
        start = datetime(2014, 9, 1, tzinfo=timezone.utc)
        end = datetime(2014, 9, 2, tzinfo=timezone.utc)
        assert hours_between(start, end) == 24

    def test_naive_datetime_treated_as_utc(self):
        assert datetime_to_hours(datetime(2014, 9, 1)) == 0

    def test_clock_monotonic(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)
        assert clock.now == 5.0


class TestEventQueue:
    def test_ordering_by_time(self):
        q = EventQueue()
        q.schedule(3.0, "c")
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        assert [q.pop()[KIND] for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert [q.pop()[KIND], q.pop()[KIND]] == ["first", "second"]

    def test_cancel(self):
        q = EventQueue()
        handle = q.schedule(1.0, "gone")
        q.schedule(2.0, "kept")
        q.cancel(handle)
        q.cancel(handle)  # idempotent
        assert len(q) == 1
        assert q.pop()[:3:2] == [2.0, "kept"]

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        handle = q.schedule(1.0, "gone")
        q.schedule(5.0, "kept")
        q.cancel(handle)
        assert q.peek_time() == 5.0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_pop_until(self):
        q = EventQueue()
        for t in (1.0, 2.0, 3.0, 10.0):
            q.schedule(t, 0, int(t))
        drained = list(q.pop_until(3.0))
        assert [entry[TIME] for entry in drained] == [1.0, 2.0, 3.0]
        assert [entry[SUBJECT] for entry in drained] == [1, 2, 3]
        assert len(q) == 1 and q.peek_time() == 10.0

    def test_entries_carry_integer_codes(self):
        q = EventQueue()
        handle = q.schedule(4.0, 2, 17, 3)
        assert handle == [4.0, 0, 2, 17, 3, False]
        entry = q.pop()
        assert entry is handle
        assert (entry[TIME], entry[KIND], entry[SUBJECT], entry[ARG]) == (4.0, 2, 17, 3)
        assert entry[CANCELLED]  # fired: a later cancel is a no-op

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(float("nan"), "x")

    def test_equal_times_fire_in_scheduling_order(self):
        q = EventQueue()
        # Unorderable arguments: ties must be broken by sequence alone.
        for i in range(40):
            q.schedule(7.0 if i % 2 else 3.0, 0, -1, {"i": i})
        order = [q.pop() for _ in range(40)]
        assert [entry[TIME] for entry in order] == [3.0] * 20 + [7.0] * 20
        assert [entry[ARG]["i"] for entry in order] == (
            list(range(0, 40, 2)) + list(range(1, 40, 2))
        )

    def test_cancel_of_popped_handle_is_noop(self):
        q = EventQueue()
        fired = q.schedule(1.0, "fired")
        q.schedule(2.0, "pending")
        assert q.pop()[:3:2] == [1.0, "fired"]
        q.cancel(fired)
        assert len(q) == 1
        assert q.pop()[:3:2] == [2.0, "pending"]
        assert len(q) == 0 and not q

    def test_len_after_tombstones_dropped(self):
        q = EventQueue()
        handles = [q.schedule(float(t), t) for t in range(6)]
        q.cancel(handles[0])  # the heap head
        q.cancel(handles[3])
        assert len(q) == 4
        assert q.peek_time() == 1.0  # drops the head tombstone
        assert len(q) == 4
        q.cancel(handles[0])  # already cancelled: still a no-op
        assert len(q) == 4
        assert [q.pop()[KIND] for _ in range(4)] == [1, 2, 4, 5]
        assert len(q) == 0 and q.peek_time() is None
        with pytest.raises(IndexError):
            q.pop()

    def test_nan_rejected_without_side_effects(self):
        q = EventQueue()
        q.schedule(1.0, "kept")
        with pytest.raises(ValueError):
            q.schedule(float("nan"), "x")
        assert len(q) == 1
        assert q.pop()[:3:2] == [1.0, "kept"]


class TestChangePolicy:
    def test_static_never_changes(self):
        policy = ChangePolicy.static()
        assert policy.next_change_delay(random.Random(0)) is None

    def test_periodic_exact(self):
        policy = ChangePolicy.periodic(24.0)
        assert policy.next_change_delay(random.Random(0)) == 24.0

    def test_periodic_jitter_bounds(self):
        policy = ChangePolicy.periodic(24.0, jitter_hours=1.0)
        rng = random.Random(1)
        for _ in range(100):
            delay = policy.next_change_delay(rng)
            assert 23.0 <= delay <= 25.0

    def test_exponential_mean(self):
        policy = ChangePolicy.exponential(100.0)
        rng = random.Random(2)
        samples = [policy.next_change_delay(rng) for _ in range(4000)]
        assert 90 < sum(samples) / len(samples) < 110

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense"},
            {"kind": "periodic", "period_hours": 0},
            {"kind": "exponential", "mean_hours": 0},
            {"kind": "periodic", "period_hours": 5, "jitter_hours": 5},
            {"kind": "periodic", "period_hours": 5, "jitter_hours": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChangePolicy(**kwargs)


class TestV4AddressPlan:
    def _plan(self, **kwargs):
        blocks = [IPv4Prefix.parse("31.0.0.0/20"), IPv4Prefix.parse("31.64.0.0/20")]
        return V4AddressPlan(blocks, **kwargs)

    def test_allocation_within_blocks(self):
        plan = self._plan()
        rng = random.Random(0)
        for _ in range(50):
            addr = plan.allocate(rng)
            assert plan.block_of(addr) is not None

    def test_no_duplicate_concurrent_allocations(self):
        plan = self._plan()
        rng = random.Random(0)
        addresses = [plan.allocate(rng) for _ in range(500)]
        assert len(set(addresses)) == 500
        assert plan.in_use_count == 500

    def test_release_allows_reuse(self):
        plan = V4AddressPlan([IPv4Prefix.parse("10.0.0.0/30")])
        rng = random.Random(0)
        held = [plan.allocate(rng) for _ in range(4)]
        with pytest.raises(PoolExhaustedError):
            plan.allocate(rng)
        plan.release(held[0])
        assert plan.allocate(rng) == held[0]

    def test_never_returns_previous(self):
        plan = self._plan()
        rng = random.Random(3)
        previous = plan.allocate(rng)
        for _ in range(100):
            plan.release(previous)
            current = plan.allocate(rng, previous=previous)
            assert current != previous
            previous = current

    def test_same_slash24_affinity(self):
        plan = self._plan(same_slash24_affinity=1.0)
        rng = random.Random(4)
        previous = plan.allocate(rng)
        for _ in range(50):
            plan.release(previous)
            current = plan.allocate(rng, previous=previous)
            assert IPv4Prefix(int(current), 24) == IPv4Prefix(int(previous), 24)
            previous = current

    def test_slash24_affinity_stays_inside_longer_block(self):
        # The /24 scope of a /26 block is the /26 itself, not the whole /24.
        block = IPv4Prefix.parse("31.0.0.64/26")
        plan = V4AddressPlan([block], same_slash24_affinity=1.0)
        rng = random.Random(6)
        previous = plan.allocate(rng)
        for _ in range(200):
            plan.release(previous)
            previous = plan.allocate(rng, previous=previous)
            assert block.contains_address(previous)

    def test_same_block_affinity_statistics(self):
        plan = self._plan(same_slash24_affinity=0.0, same_block_affinity=1.0)
        rng = random.Random(5)
        previous = plan.allocate(rng)
        block = plan.block_of(previous)
        for _ in range(60):
            plan.release(previous)
            previous = plan.allocate(rng, previous=previous)
            assert plan.block_of(previous) == block

    def test_validation(self):
        with pytest.raises(ValueError):
            V4AddressPlan([])
        with pytest.raises(ValueError):
            self._plan(same_block_affinity=1.5)


class TestV6PrefixPlan:
    def _plan(self, **kwargs):
        defaults = dict(pool_plen=40, delegation_plen=56, num_pools=4)
        defaults.update(kwargs)
        return V6PrefixPlan(IPv6Prefix.parse("2a00:100::/32"), **defaults)

    def test_pools_inside_allocation(self):
        plan = self._plan()
        assert len(plan.pools) == 4
        for pool in plan.pools:
            assert plan.allocation.contains_prefix(pool)
            assert pool.plen == 40

    def test_allocate_within_home_pool(self):
        plan = self._plan(pool_switch_prob=0.0)
        rng = random.Random(0)
        for home in range(4):
            delegation, pool_index = plan.allocate(rng, home)
            assert pool_index == home
            assert plan.pools[home].contains_prefix(delegation)
            assert delegation.plen == 56

    def test_pool_switching(self):
        plan = self._plan(pool_switch_prob=1.0)
        rng = random.Random(1)
        _, pool_index = plan.allocate(rng, 0)
        assert pool_index != 0

    def test_no_concurrent_duplicates(self):
        plan = self._plan()
        rng = random.Random(2)
        seen = set()
        for _ in range(300):
            delegation, _ = plan.allocate(rng, rng.randrange(4))
            assert delegation not in seen
            seen.add(delegation)

    def test_release_and_previous_avoidance(self):
        plan = self._plan()
        rng = random.Random(3)
        delegation, pool = plan.allocate(rng, 0)
        plan.release(delegation)
        new_delegation, _ = plan.allocate(rng, pool, previous=delegation)
        assert new_delegation != delegation

    def test_validation(self):
        with pytest.raises(ValueError):
            self._plan(pool_plen=24)  # shorter than allocation
        with pytest.raises(ValueError):
            self._plan(delegation_plen=36)  # shorter than pool
        with pytest.raises(ValueError):
            self._plan(num_pools=0)
        with pytest.raises(ValueError):
            V6PrefixPlan(
                IPv6Prefix.parse("2a00:100::/32"),
                pool_plen=40,
                delegation_plen=66,
                num_pools=4,
            )


class TestCpe:
    def test_zero_selection(self):
        cpe = Cpe(CpeBehavior(lan_selection="zero"), random.Random(0))
        delegation = IPv6Prefix.parse("2a00:100:1:100::/56")
        lan = cpe.select_lan_prefix(delegation, random.Random(0))
        assert lan == IPv6Prefix.parse("2a00:100:1:100::/64")
        assert lan.trailing_zero_bits() >= 8

    def test_scramble_selection_within_delegation(self):
        cpe = Cpe(
            CpeBehavior(lan_selection="scramble", scramble_period_hours=24.0),
            random.Random(1),
        )
        delegation = IPv6Prefix.parse("2a00:100:1:100::/56")
        rng = random.Random(2)
        lans = {cpe.select_lan_prefix(delegation, rng) for _ in range(64)}
        assert len(lans) > 10
        for lan in lans:
            assert delegation.contains_prefix(lan)

    def test_constant_selection_stable_across_delegations(self):
        cpe = Cpe(CpeBehavior(lan_selection="constant"), random.Random(3))
        d1 = IPv6Prefix.parse("2a00:100:1:100::/56")
        d2 = IPv6Prefix.parse("2a00:100:2:200::/56")
        rng = random.Random(4)
        lan1 = cpe.select_lan_prefix(d1, rng)
        lan2 = cpe.select_lan_prefix(d2, rng)
        subnet1 = (int(lan1.network) >> 64) & 0xFF
        subnet2 = (int(lan2.network) >> 64) & 0xFF
        assert subnet1 == subnet2
        assert d1.contains_prefix(lan1) and d2.contains_prefix(lan2)

    def test_full_64_delegation(self):
        cpe = Cpe(CpeBehavior(lan_selection="scramble"), random.Random(5))
        delegation = IPv6Prefix.parse("2a00:100:1:155::/64")
        assert cpe.select_lan_prefix(delegation, random.Random(0)) == delegation

    def test_reboot_and_scramble_delays(self):
        behavior = CpeBehavior(
            lan_selection="scramble", scramble_period_hours=24.0, reboot_mean_hours=100.0
        )
        cpe = Cpe(behavior, random.Random(6))
        rng = random.Random(7)
        assert cpe.next_reboot_delay(rng) > 0
        delay = cpe.next_scramble_delay(rng)
        assert 21.6 <= delay <= 26.4
        quiet = Cpe(CpeBehavior(), random.Random(8))
        assert quiet.next_reboot_delay(rng) is None
        assert quiet.next_scramble_delay(rng) is None

    def test_behavior_validation(self):
        with pytest.raises(ValueError):
            CpeBehavior(lan_selection="nonsense")
        with pytest.raises(ValueError):
            CpeBehavior(lan_selection="zero", scramble_period_hours=24.0)
        with pytest.raises(ValueError):
            CpeBehavior(reboot_mean_hours=-1)

    def test_eui64(self):
        iid = eui64_iid(0x001122334455)
        assert (iid >> 24) & 0xFFFF == 0xFFFE
        assert iid & 0xFFFFFF == 0x334455
        # Universal/local bit flipped.
        assert (iid >> 56) & 0xFF == 0x02
        with pytest.raises(ValueError):
            eui64_iid(1 << 48)


class TestCgnat:
    def test_multiplexing(self):
        gateway = CgnatGateway([IPv4Prefix.parse("31.200.0.0/24")], stickiness=1.0)
        rng = random.Random(0)
        addresses = {int(gateway.egress_address(device, rng)) for device in range(5000)}
        assert gateway.num_public_addresses == 256
        assert len(addresses) <= 256

    def test_stickiness(self):
        gateway = CgnatGateway([IPv4Prefix.parse("31.200.0.0/24")], stickiness=1.0)
        rng = random.Random(1)
        first = gateway.egress_address(42, rng)
        assert all(gateway.egress_address(42, rng) == first for _ in range(20))

    def test_forget_allows_rebinding(self):
        gateway = CgnatGateway([IPv4Prefix.parse("31.200.0.0/20")], stickiness=1.0)
        rng = random.Random(2)
        first = gateway.egress_address(7, rng)
        gateway.forget(7)
        rebound = {int(gateway.egress_address(7, rng)) for _ in range(1)}
        assert rebound  # new binding established without error
        assert first is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            CgnatGateway([])
        with pytest.raises(ValueError):
            CgnatGateway([IPv4Prefix.parse("10.0.0.0/24")], stickiness=2.0)

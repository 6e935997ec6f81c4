"""Edge-case and failure-injection tests across subsystems."""

import pytest

from repro.bgp.registry import RIR, Registry
from repro.ip.addr import AddressError, IPv4Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix
from repro.netsim.events import KIND, EventQueue
from repro.netsim.pool import PoolExhaustedError, V4AddressPlan, V6PrefixPlan


class TestRegistryExhaustion:
    def test_v4_space_exhausts_cleanly(self):
        registry = Registry()
        registry.register(1, "greedy", "XX", RIR.AFRINIC)
        # The AFRINIC /8 holds 16 /12s; the 17th request must fail.
        registry.allocate_v4(1, 12, count=16)
        with pytest.raises(AddressError, match="exhausted"):
            registry.allocate_v4(1, 12, count=1)

    def test_v4_plen_bounds(self):
        registry = Registry()
        registry.register(1, "x", "XX", RIR.ARIN)
        with pytest.raises(AddressError):
            registry.allocate_v4(1, 7)
        with pytest.raises(AddressError):
            registry.allocate_v4(1, 33)

    def test_v6_plen_bounds(self):
        registry = Registry()
        registry.register(1, "x", "XX", RIR.ARIN)
        with pytest.raises(AddressError):
            registry.allocate_v6(1, 15)
        with pytest.raises(AddressError):
            registry.allocate_v6(1, 65)

    def test_v6_space_exhausts_cleanly(self):
        registry = Registry()
        registry.register(1, "big", "XX", RIR.LACNIC)
        registry.allocate_v6(1, 16)  # the whole super-block
        registry.register(2, "late", "XX", RIR.LACNIC)
        with pytest.raises(AddressError, match="exhausted"):
            registry.allocate_v6(2, 32)


class TestPoolPressure:
    def test_v4_full_pool_raises_not_hangs(self):
        plan = V4AddressPlan([IPv4Prefix.parse("10.0.0.0/29")])  # 8 addresses
        import random

        rng = random.Random(0)
        for _ in range(8):
            plan.allocate(rng)
        with pytest.raises(PoolExhaustedError):
            plan.allocate(rng)

    def test_v6_full_pool_raises_not_hangs(self):
        plan = V6PrefixPlan(
            IPv6Prefix.parse("2a00::/32"), pool_plen=60, delegation_plen=62, num_pools=1
        )  # 4 delegations in the single pool
        import random

        rng = random.Random(0)
        for _ in range(4):
            plan.allocate(rng, 0)
        with pytest.raises(PoolExhaustedError):
            plan.allocate(rng, 0)

    def test_release_unknown_is_noop(self):
        plan = V4AddressPlan([IPv4Prefix.parse("10.0.0.0/24")])
        plan.release(IPv4Address.parse("10.0.0.5"))  # never allocated
        assert plan.in_use_count == 0


class TestEventQueueEdge:
    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        handle = queue.schedule(1.0, "x")
        assert queue.pop() is handle
        queue.cancel(handle)  # already fired
        assert len(queue) == 0

    def test_peek_on_empty(self):
        assert EventQueue().peek_time() is None

    def test_interleaved_schedule_and_drain(self):
        queue = EventQueue()
        queue.schedule(1.0, "a")
        drained = []
        for entry in queue.pop_until(10.0):
            drained.append(entry[KIND])
            if entry[KIND] == "a":
                queue.schedule(5.0, "b")  # scheduled mid-drain, still <= 10
        assert drained == ["a", "b"]


class TestWorkloadsEdge:
    def test_single_profile_scenario(self):
        from repro.netsim.profiles import profile_by_name
        from repro.workloads import build_atlas_scenario

        scenario = build_atlas_scenario(
            probes_per_as=2,
            years=0.25,
            seed=1,
            profiles=[profile_by_name("Versatel")],
            anomaly_fraction=0.0,
            bad_tag_fraction=0.0,
        )
        assert len(scenario.isps) == 1
        assert scenario.probes

    def test_cdn_without_featured(self):
        from repro.workloads import build_cdn_scenario

        scenario = build_cdn_scenario(
            days=15,
            seed=1,
            fixed_subscribers_per_registry=40,
            mobile_devices_per_registry=30,
            include_featured_isps=False,
        )
        assert scenario.featured_asns == {}
        assert scenario.dataset.total_kept > 0

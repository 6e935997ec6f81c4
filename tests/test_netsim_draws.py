"""Draw equivalence: the simulator's integer fast paths make the same draws.

Every uniform integer draw in :mod:`repro.netsim.pool` and
:mod:`repro.netsim.cpe` runs CPython's ``randrange`` rejection loop on
``getrandbits`` directly, and every policy delay uses the float formula
of ``random.uniform`` / ``random.expovariate``.  Each test here runs a
fast path next to a reference written with the ``random`` module's own
calls, on two generators seeded alike, and checks the values *and* the
generator states afterwards: equal states mean the same RNG calls were
made, so a seeded build cannot move.
"""

import random

import pytest

from repro.ip.prefix import IPv4Prefix, IPv6Prefix
from repro.netsim.cpe import Cpe, CpeBehavior
from repro.netsim.policy import ChangePolicy, timer_delay
from repro.netsim.pool import PoolExhaustedError, V4AddressPlan, V6PrefixPlan, randbelow

SIZES = [1, 2, 3, 255, 256, 1 << 16, (1 << 40) + 1]


def _pair(seed: int):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("size", SIZES)
def test_randbelow_matches_randrange(size):
    fast, reference = _pair(size)
    drawn = [randbelow(fast, size) for _ in range(500)]
    assert drawn == [reference.randrange(size) for _ in range(500)]
    assert fast.getstate() == reference.getstate()


def _reference_v4_draw(plan: V4AddressPlan, rng, previous=None) -> int:
    """The ``randrange`` form of :meth:`V4AddressPlan.draw`."""
    spans = [(int(b.network), int(b.network) + b.num_addresses) for b in plan.blocks]
    scopes = []
    if previous is not None:
        index = next((i for i, (lo, hi) in enumerate(spans) if lo <= previous < hi), None)
        if index is not None:
            lo, hi = spans[index]
            roll = rng.random()
            if roll < plan._same_slash24:
                slash24 = previous & ~0xFF
                lo24, hi24 = max(lo, slash24), min(hi, slash24 + 256)
                scopes.append((lo24, hi24 - lo24))
            elif roll < plan._same_block_roll:
                scopes.append((lo, hi - lo))
    weights = [hi - lo for lo, hi in spans]
    pick = rng.choices(range(len(spans)), weights=weights, k=1)[0]
    lo, hi = spans[pick]
    scopes.append((lo, hi - lo))
    for lo, size in scopes:
        for _ in range(64):
            value = lo + rng.randrange(size)
            if value in plan._in_use or value == previous:
                continue
            plan._in_use.add(value)
            return value
    raise PoolExhaustedError("reference exhausted")


def _plan_pair(blocks, **affinities):
    blocks = [IPv4Prefix.parse(block) for block in blocks]
    return V4AddressPlan(blocks, **affinities), V4AddressPlan(blocks, **affinities)


@pytest.mark.parametrize(
    "blocks, affinities",
    [
        (["10.0.0.0/16", "10.2.0.0/15", "172.16.0.0/12"], {}),
        (["10.0.0.0/16", "10.2.0.0/15"],
         {"same_slash24_affinity": 0.3, "same_block_affinity": 0.6}),
        # A block longer than /24 clips the /24 scope; a /30 block is tiny.
        (["192.0.2.0/26", "198.51.100.0/30", "203.0.113.0/24"],
         {"same_slash24_affinity": 0.5, "same_block_affinity": 0.5}),
    ],
    ids=["spread", "affine", "clipped"],
)
def test_v4_draw_matches_randrange_form(blocks, affinities):
    plan, reference = _plan_pair(blocks, **affinities)
    fast_rng, ref_rng = _pair(7)
    held = [plan.draw(fast_rng) for _ in range(30)]
    assert held == [_reference_v4_draw(reference, ref_rng) for _ in range(30)]
    for step in range(3000):
        index = step % len(held)
        old = held[index]
        plan.release(old)
        reference.release(old)
        held[index] = plan.draw(fast_rng, old)
        assert held[index] == _reference_v4_draw(reference, ref_rng, old)
    assert plan.in_use == reference.in_use
    assert fast_rng.getstate() == ref_rng.getstate()


def test_v4_crowded_scope_falls_back_and_exhausts_alike():
    """Collisions past the attempt budget: the fallback scope, then exhaustion."""
    plan, reference = _plan_pair(
        ["192.0.2.0/29", "198.51.100.0/29"], same_slash24_affinity=1.0
    )
    fast_rng, ref_rng = _pair(11)
    previous = int(IPv4Prefix.parse("192.0.2.0/29").network)

    def draws(draw) -> list:
        values = []
        try:
            for _ in range(40):
                values.append(draw(previous))
        except PoolExhaustedError:
            values.append("exhausted")
        return values

    fast = draws(lambda prev: plan.draw(fast_rng, prev))
    assert fast == draws(lambda prev: _reference_v4_draw(reference, ref_rng, prev))
    assert fast[-1] == "exhausted"
    assert fast_rng.getstate() == ref_rng.getstate()


def _reference_v6_draw(plan: V6PrefixPlan, rng, home_pool: int, previous=None):
    """The ``randrange`` form of :meth:`V6PrefixPlan.draw`."""
    bases = [int(pool.network) for pool in plan.pools]
    pool_index = home_pool
    if len(bases) > 1 and rng.random() < plan._pool_switch_prob:
        other = rng.randrange(len(bases) - 1)
        pool_index = other if other < home_pool else other + 1
    count = 1 << (plan.delegation_plen - plan.pools[0].plen)
    for _ in range(64):
        network = bases[pool_index] | (rng.randrange(count) << (128 - plan.delegation_plen))
        if network in plan._in_use or network == previous:
            continue
        plan._in_use.add(network)
        return network, pool_index
    raise PoolExhaustedError("reference exhausted")


@pytest.mark.parametrize("pool_plen, delegation_plen", [(40, 56), (44, 48), (56, 60)])
def test_v6_draw_matches_randrange_form(pool_plen, delegation_plen):
    allocation = IPv6Prefix.parse("2001:db8::/32")
    plans = [
        V6PrefixPlan(allocation, pool_plen, delegation_plen, num_pools=4, pool_switch_prob=0.2)
        for _ in range(2)
    ]
    fast_rng, ref_rng = _pair(pool_plen)
    held, ref_held = [], []
    for index in range(8):
        held.append(plans[0].draw(fast_rng, index % 4))
        ref_held.append(_reference_v6_draw(plans[1], ref_rng, index % 4))
    assert held == ref_held
    for step in range(2000):
        index = step % len(held)
        (old, pool) = held[index]
        plans[0].release(old)
        plans[1].release(old)
        held[index] = plans[0].draw(fast_rng, pool, old)
        assert held[index] == _reference_v6_draw(plans[1], ref_rng, pool, old)
    assert plans[0].in_use == plans[1].in_use
    assert fast_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("delegation_plen", [48, 56, 60, 63, 64])
def test_scrambled_lan_matches_randrange(delegation_plen):
    fast_rng, ref_rng = _pair(delegation_plen)
    cpe = Cpe(CpeBehavior(lan_selection="scramble"), fast_rng)
    delegation = int(IPv6Prefix.parse("2001:db8:ff00::/40").network)
    lans = [cpe.lan_network(delegation, delegation_plen, fast_rng) for _ in range(300)]
    free_bits = 64 - delegation_plen
    expected = [
        delegation | (ref_rng.randrange(1 << free_bits) << 64) if free_bits else delegation
        for _ in range(300)
    ]
    assert lans == expected
    assert fast_rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize(
    "policy",
    [
        ChangePolicy.static(),
        ChangePolicy.periodic(24.0),
        ChangePolicy.periodic(24.0, jitter_hours=0.2),
        ChangePolicy.periodic(336.0, jitter_hours=1.0),
        ChangePolicy.exponential(2160.0),
    ],
    ids=["static", "fixed", "jittered", "jittered-long", "exponential"],
)
def test_policy_timer_matches_random_module(policy):
    fast_rng, ref_rng = _pair(3)
    timer = policy.timer()
    delays = [timer_delay(timer, fast_rng.random) for _ in range(500)]
    if policy.kind == "static":
        expected = [None] * 500
    elif policy.kind == "periodic" and policy.jitter_hours:
        jitter = policy.jitter_hours
        expected = [policy.period_hours + ref_rng.uniform(-jitter, jitter) for _ in range(500)]
    elif policy.kind == "periodic":
        expected = [policy.period_hours] * 500
    else:
        expected = [ref_rng.expovariate(1.0 / policy.mean_hours) for _ in range(500)]
    assert delays == expected  # bit-identical floats, not approximately equal
    assert fast_rng.getstate() == ref_rng.getstate()
    assert [policy.next_change_delay(ref_rng) for _ in range(5)] == [
        timer_delay(timer, fast_rng.random) for _ in range(5)
    ]


def test_overlapping_v4_blocks_rejected():
    with pytest.raises(ValueError, match="overlap"):
        V4AddressPlan([IPv4Prefix.parse("10.0.0.0/16"), IPv4Prefix.parse("10.0.128.0/17")])


def test_block_index_bisect_matches_scan():
    blocks = [IPv4Prefix.parse(b) for b in ("10.9.0.0/16", "10.0.0.0/16", "10.4.0.0/14")]
    plan = V4AddressPlan(blocks)
    rng = random.Random(5)
    probes = [int(b.network) + offset for b in blocks for offset in (0, b.num_addresses - 1)]
    probes += [rng.randrange(int(IPv4Prefix.parse("10.0.0.0/12").network), 0x0B000000)
               for _ in range(500)]
    for value in probes:
        expected = next(
            (i for i, b in enumerate(blocks)
             if int(b.network) <= value < int(b.network) + b.num_addresses),
            None,
        )
        assert plan._block_index(value) == expected

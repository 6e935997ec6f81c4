"""Address pools: where new assignments are drawn from.

Two allocators model the spatial structure the paper infers:

* :class:`V4AddressPlan` — an ISP's (fragmented) IPv4 holdings.  New
  draws have configurable affinity to the subscriber's previous /24 and
  previous BGP block, which controls the "Diff /24" / "Diff BGP" rates
  of Table 2.
* :class:`V6PrefixPlan` — an ISP's contiguous IPv6 allocation carved
  into regional pools (e.g. /40s) from which subscriber delegations
  (e.g. /56s) are drawn.  Subscribers are homed to a pool and rarely
  move, which produces the CPL clusters of Figure 5 and the "few unique
  /40s per probe" result of Figure 8.

Both allocators track in-use assignments so that no two subscribers hold
the same address/delegation simultaneously (the driving simulation
releases and allocates in global time order).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.ip.addr import AddressError, IPv4Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix


class PoolExhaustedError(RuntimeError):
    """Raised when an allocator cannot find a free address/delegation."""


_MAX_DRAW_ATTEMPTS = 64


class V4AddressPlan:
    """IPv4 assignment pools over an ISP's announced blocks.

    Parameters
    ----------
    blocks:
        The ISP's announced IPv4 prefixes (its BGP footprint).
    same_slash24_affinity:
        Probability that a renumbering draw stays within the previous /24.
    same_block_affinity:
        Probability that a draw (which left the /24) stays within the
        previous BGP block.
    """

    def __init__(
        self,
        blocks: Sequence[IPv4Prefix],
        same_slash24_affinity: float = 0.0,
        same_block_affinity: float = 0.5,
    ) -> None:
        if not blocks:
            raise ValueError("V4AddressPlan requires at least one block")
        for probability, name in (
            (same_slash24_affinity, "same_slash24_affinity"),
            (same_block_affinity, "same_block_affinity"),
        ):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {probability}")
        self._blocks: List[IPv4Prefix] = list(blocks)
        # [lo, hi) integer spans for block_of; cumulative sizes for the weighted draw.
        self._spans = [(int(b.network), int(b.network) + b.num_addresses) for b in self._blocks]
        self._cum_weights = list(accumulate(hi - lo for lo, hi in self._spans))
        self._total_weight = self._cum_weights[-1] + 0.0
        self._same_slash24 = same_slash24_affinity
        self._same_block = same_block_affinity
        self._in_use: set[int] = set()

    @property
    def blocks(self) -> List[IPv4Prefix]:
        return list(self._blocks)

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)

    def block_of(self, address: IPv4Address) -> Optional[IPv4Prefix]:
        """The announced block containing ``address`` (None when outside)."""
        if type(address) is not IPv4Address:
            return None
        value = int(address)
        for block, (lo, hi) in zip(self._blocks, self._spans):
            if lo <= value < hi:
                return block
        return None

    def release(self, address: IPv4Address) -> None:
        """Return ``address`` to the pool (idempotent)."""
        self._in_use.discard(int(address))

    def _draw_in(
        self,
        scope: IPv4Prefix,
        rng: random.Random,
        exclude: Optional[int] = None,
    ) -> Optional[IPv4Address]:
        for _ in range(_MAX_DRAW_ATTEMPTS):
            value = int(scope.network) + rng.randrange(scope.num_addresses)
            if value in self._in_use or value == exclude:
                continue
            self._in_use.add(value)
            return IPv4Address(value)
        return None

    def allocate(
        self,
        rng: random.Random,
        previous: Optional[IPv4Address] = None,
    ) -> IPv4Address:
        """Draw a fresh address, honouring spatial affinities to ``previous``."""
        exclude = int(previous) if previous is not None else None
        scopes: List[IPv4Prefix] = []
        if previous is not None:
            prev_block = self.block_of(previous)
            if prev_block is not None:
                roll = rng.random()
                if roll < self._same_slash24:
                    scopes.append(IPv4Prefix(int(previous), 24))
                elif roll < self._same_slash24 + self._same_block * (1 - self._same_slash24):
                    scopes.append(prev_block)
        # The single random() draw random.choices(weights=..., k=1) makes.
        pick = bisect_right(
            self._cum_weights, rng.random() * self._total_weight, 0, len(self._blocks) - 1
        )
        scopes.append(self._blocks[pick])
        for scope in scopes:
            address = self._draw_in(scope, rng, exclude=exclude)
            if address is not None:
                return address
        raise PoolExhaustedError("IPv4 plan exhausted (all draw attempts collided)")


class V6PrefixPlan:
    """IPv6 delegated-prefix pools inside one ISP allocation.

    The allocation (e.g. a /32) is split into ``num_pools`` pools of
    length ``pool_plen`` (e.g. /40s); each subscriber is homed to one
    pool and draws delegations of length ``delegation_plen`` from it.
    """

    def __init__(
        self,
        allocation: IPv6Prefix,
        pool_plen: int,
        delegation_plen: int,
        num_pools: int,
        pool_switch_prob: float = 0.0,
    ) -> None:
        if pool_plen < allocation.plen:
            raise ValueError(
                f"pool /{pool_plen} shorter than allocation /{allocation.plen}"
            )
        if delegation_plen < pool_plen:
            raise ValueError(
                f"delegation /{delegation_plen} shorter than pool /{pool_plen}"
            )
        if delegation_plen > 64:
            raise ValueError("delegations longer than /64 cannot hold a LAN /64")
        available = allocation.num_subprefixes(pool_plen)
        if num_pools < 1 or num_pools > available:
            raise ValueError(f"num_pools must be in 1..{available}, got {num_pools}")
        if not 0.0 <= pool_switch_prob <= 1.0:
            raise ValueError(f"pool_switch_prob must be in [0, 1], got {pool_switch_prob}")
        self._allocation = allocation
        self._delegation_plen = delegation_plen
        # Spread the pools across the allocation rather than packing them at
        # the bottom, mimicking structured internal addressing plans.
        stride = max(1, available // num_pools)
        self._pools = [allocation.nth_subprefix(pool_plen, i * stride) for i in range(num_pools)]
        self._pool_switch_prob = pool_switch_prob
        self._in_use: set[int] = set()

    @property
    def allocation(self) -> IPv6Prefix:
        return self._allocation

    @property
    def pools(self) -> List[IPv6Prefix]:
        return list(self._pools)

    @property
    def delegation_plen(self) -> int:
        return self._delegation_plen

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)

    def home_pool_index(self, rng: random.Random) -> int:
        """Pick the pool a new subscriber is homed to."""
        return rng.randrange(len(self._pools))

    def pool_index_of(self, delegation: IPv6Prefix) -> Optional[int]:
        """Which pool contains ``delegation`` (None when outside all)."""
        for index, pool in enumerate(self._pools):
            if pool.contains_prefix(delegation):
                return index
        return None

    def release(self, delegation: IPv6Prefix) -> None:
        """Return ``delegation`` to its pool (idempotent)."""
        self._in_use.discard(int(delegation.network))

    def allocate(
        self,
        rng: random.Random,
        home_pool: int,
        previous: Optional[IPv6Prefix] = None,
    ) -> tuple[IPv6Prefix, int]:
        """Draw a delegation; returns ``(delegation, pool_index)``.

        With probability ``pool_switch_prob`` the subscriber is re-homed
        to a different pool (administrative renumbering), otherwise the
        draw stays in its home pool.
        """
        if not 0 <= home_pool < len(self._pools):
            raise ValueError(f"home_pool {home_pool} out of range")
        pool_index = home_pool
        if len(self._pools) > 1 and rng.random() < self._pool_switch_prob:
            other = rng.randrange(len(self._pools) - 1)
            pool_index = other if other < home_pool else other + 1
        pool = self._pools[pool_index]
        for _ in range(_MAX_DRAW_ATTEMPTS):
            index = rng.randrange(pool.num_subprefixes(self._delegation_plen))
            delegation = pool.nth_subprefix(self._delegation_plen, index)
            key = int(delegation.network)
            if key in self._in_use:
                continue
            if previous is not None and delegation == previous:
                continue
            self._in_use.add(key)
            return delegation, pool_index
        raise PoolExhaustedError("IPv6 plan exhausted (all draw attempts collided)")


def build_v4_blocks(base: IPv4Prefix, count: int, plen: int, rng: random.Random) -> List[IPv4Prefix]:
    """Draw ``count`` disjoint /plen blocks from ``base`` (helper for tests)."""
    total = base.num_subprefixes(plen)
    if count > total:
        raise AddressError(f"cannot draw {count} /{plen}s from {base}")
    indices = rng.sample(range(total), count)
    return [base.nth_subprefix(plen, i) for i in sorted(indices)]


__all__ = [
    "PoolExhaustedError",
    "V4AddressPlan",
    "V6PrefixPlan",
    "build_v4_blocks",
]

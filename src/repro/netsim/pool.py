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
releases and allocates in global time order).  They draw and track
plain integers (``draw``: the v4 address, the v6 delegation's network);
``allocate`` wraps the same draw in an address or prefix object.

Every uniform integer draw makes exactly the RNG calls
``rng.randrange(size)`` would: CPython's ``_randbelow_with_getrandbits``
takes ``k = size.bit_length()`` and calls ``getrandbits(k)`` until the
result is below ``size``.  :func:`randbelow` is that loop; the hot
draws run it inline with ``k`` computed once per draw (or once per
plan), so a seeded simulation's output does not depend on which form
made a draw.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.ip.addr import IPv4Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix


class PoolExhaustedError(RuntimeError):
    """Raised when an allocator cannot find a free address/delegation."""


_MAX_DRAW_ATTEMPTS = 64


def randbelow(rng: random.Random, size: int) -> int:
    """``rng.randrange(size)``'s value, drawn with the same RNG calls.

    ``size >= 1``; the loop is CPython's ``_randbelow_with_getrandbits``.
    """
    getrandbits = rng.getrandbits
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return r


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
        spans = [(int(b.network), int(b.network) + b.num_addresses) for b in self._blocks]
        # Per block: (lo, size, size.bit_length()), the integer scope a draw
        # runs its getrandbits loop over; cumulative sizes for the weighted pick.
        self._scopes = [(lo, hi - lo, (hi - lo).bit_length()) for lo, hi in spans]
        self._cum_weights = list(accumulate(hi - lo for lo, hi in spans))
        self._total_weight = self._cum_weights[-1] + 0.0
        # Block indices in order of their starts, for the bisect in _block_index.
        self._by_start = sorted(range(len(spans)), key=lambda index: spans[index])
        self._starts = [spans[index][0] for index in self._by_start]
        for left, right in zip(self._by_start, self._by_start[1:]):
            if spans[right][0] < spans[left][1]:
                raise ValueError("V4AddressPlan blocks must not overlap")
        self._same_slash24 = same_slash24_affinity
        # A roll below this (and not below _same_slash24) stays in the block.
        self._same_block_roll = same_slash24_affinity + same_block_affinity * (
            1 - same_slash24_affinity
        )
        self._in_use: set[int] = set()

    @property
    def blocks(self) -> List[IPv4Prefix]:
        return list(self._blocks)

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)

    @property
    def in_use(self) -> FrozenSet[int]:
        """The integer values of every address currently held."""
        return frozenset(self._in_use)

    def _block_index(self, value: int) -> Optional[int]:
        rank = bisect_right(self._starts, value) - 1
        if rank < 0:
            return None
        index = self._by_start[rank]
        lo, size, _ = self._scopes[index]
        return index if value < lo + size else None

    def block_of(self, address: IPv4Address) -> Optional[IPv4Prefix]:
        """The announced block containing ``address`` (None when outside)."""
        if type(address) is not IPv4Address:
            return None
        index = self._block_index(int(address))
        return None if index is None else self._blocks[index]

    def release(self, address: Union[IPv4Address, int]) -> None:
        """Return ``address`` (or its integer value) to the pool (idempotent)."""
        self._in_use.discard(int(address))

    def draw(self, rng: random.Random, previous: Optional[int] = None) -> int:
        """Draw a fresh address as an integer, honouring spatial affinities
        to the ``previous`` address value.

        The /24 scope is the previous /24 intersected with the previous
        block, so a block longer than /24 never leaks draws outside it.
        The affinity roll and the block pick are drawn before any
        address, then the affinity scope (if any) is tried before the
        picked block.
        """
        random_ = rng.random
        scopes = self._scopes
        affinity = None  # the affinity scope, as (lo, size, k)
        if previous is not None:
            rank = bisect_right(self._starts, previous) - 1  # _block_index, inline
            if rank >= 0:
                block = scopes[self._by_start[rank]]
                lo, size, _ = block
                if previous < lo + size:
                    roll = random_()
                    if roll < self._same_slash24:
                        slash24 = previous & ~0xFF
                        lo24 = max(lo, slash24)
                        size24 = min(lo + size, slash24 + 256) - lo24
                        affinity = (lo24, size24, size24.bit_length())
                    elif roll < self._same_block_roll:
                        affinity = block
        # The single random() draw random.choices(weights=..., k=1) makes.
        pick = scopes[
            bisect_right(self._cum_weights, random_() * self._total_weight, 0, len(scopes) - 1)
        ]
        getrandbits = rng.getrandbits
        in_use = self._in_use
        # Up to _MAX_DRAW_ATTEMPTS in the affinity scope, then as many in the pick.
        scope, fallback = (pick, None) if affinity is None else (affinity, pick)
        attempts = 0
        while True:
            lo, size, k = scope
            r = getrandbits(k)
            while r >= size:
                r = getrandbits(k)
            value = lo + r
            if value not in in_use and value != previous:
                in_use.add(value)
                return value
            attempts += 1
            if attempts == _MAX_DRAW_ATTEMPTS:
                if fallback is None:
                    break
                scope, fallback, attempts = fallback, None, 0
        raise PoolExhaustedError("IPv4 plan exhausted (all draw attempts collided)")

    def allocate(
        self,
        rng: random.Random,
        previous: Optional[IPv4Address] = None,
    ) -> IPv4Address:
        """Draw a fresh address, honouring spatial affinities to ``previous``."""
        return IPv4Address(self.draw(rng, None if previous is None else int(previous)))


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
        # Plain integers only: the allocation and pools are rebuilt as
        # prefix objects on read, so a pickled plan ships no prefix objects.
        self._allocation = (int(allocation.network), allocation.plen)
        self._pool_plen = pool_plen
        self._delegation_plen = delegation_plen
        # Spread the pools across the allocation rather than packing them at
        # the bottom, mimicking structured internal addressing plans.
        stride = max(1, available // num_pools)
        self._pool_bases = [
            int(allocation.nth_subprefix(pool_plen, i * stride).network) for i in range(num_pools)
        ]
        self._delegations_per_pool = 1 << (delegation_plen - pool_plen)
        self._delegation_bits = self._delegations_per_pool.bit_length()
        self._pool_switch_prob = pool_switch_prob
        self._in_use: set[int] = set()

    @property
    def allocation(self) -> IPv6Prefix:
        return IPv6Prefix(*self._allocation)

    @property
    def pools(self) -> List[IPv6Prefix]:
        return [IPv6Prefix(base, self._pool_plen) for base in self._pool_bases]

    @property
    def delegation_plen(self) -> int:
        return self._delegation_plen

    @property
    def in_use_count(self) -> int:
        return len(self._in_use)

    @property
    def in_use(self) -> FrozenSet[int]:
        """The network integers of every delegation currently held."""
        return frozenset(self._in_use)

    def home_pool_index(self, rng: random.Random) -> int:
        """Pick the pool a new subscriber is homed to."""
        return rng.randrange(len(self._pool_bases))

    def pool_index_of(self, delegation: IPv6Prefix) -> Optional[int]:
        """Which pool contains ``delegation`` (None when outside all)."""
        for index, pool in enumerate(self.pools):
            if pool.contains_prefix(delegation):
                return index
        return None

    def release(self, delegation: Union[IPv6Prefix, int]) -> None:
        """Return ``delegation`` (or its network integer) to its pool (idempotent)."""
        self._in_use.discard(delegation if type(delegation) is int else int(delegation.network))

    def draw(
        self,
        rng: random.Random,
        home_pool: int,
        previous: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Draw a delegation; returns ``(network integer, pool_index)``.

        With probability ``pool_switch_prob`` the subscriber is re-homed
        to a different pool (administrative renumbering), otherwise the
        draw stays in its home pool.  ``previous`` is the network integer
        of the delegation being replaced, which is never re-drawn.
        """
        pool_count = len(self._pool_bases)
        if not 0 <= home_pool < pool_count:
            raise ValueError(f"home_pool {home_pool} out of range")
        pool_index = home_pool
        if pool_count > 1 and rng.random() < self._pool_switch_prob:
            other = randbelow(rng, pool_count - 1)
            pool_index = other if other < home_pool else other + 1
        base = self._pool_bases[pool_index]
        count = self._delegations_per_pool
        k = self._delegation_bits
        shift = 128 - self._delegation_plen
        getrandbits = rng.getrandbits
        in_use = self._in_use
        attempts = 0
        while attempts < _MAX_DRAW_ATTEMPTS:
            r = getrandbits(k)
            while r >= count:
                r = getrandbits(k)
            network = base | (r << shift)
            if network not in in_use and network != previous:
                in_use.add(network)
                return network, pool_index
            attempts += 1
        raise PoolExhaustedError("IPv6 plan exhausted (all draw attempts collided)")

    def allocate(
        self,
        rng: random.Random,
        home_pool: int,
        previous: Optional[IPv6Prefix] = None,
    ) -> tuple[IPv6Prefix, int]:
        """Draw a delegation; returns ``(delegation, pool_index)`` (see :meth:`draw`)."""
        network, pool_index = self.draw(
            rng, home_pool, None if previous is None else int(previous.network)
        )
        return IPv6Prefix(network, self._delegation_plen), pool_index


__all__ = [
    "PoolExhaustedError",
    "V4AddressPlan",
    "V6PrefixPlan",
    "randbelow",
]

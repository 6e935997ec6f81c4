"""Routing tables with longest-prefix match, in the pfx2as role.

A :class:`RoutingTable` answers the questions the paper's pipeline needs:

* which routed BGP prefix covers this address / /64?  (Table 2,
  Section 5.1 "same BGP prefix" tests)
* which origin ASN announced it?  (Appendix A.1 sanitization and the
  Section 4.1 ASN-mismatch filter)

Prefix arguments walk the Patricia trie.  Address lookups go through a
:class:`RouteIndex`, the trie flattened into sorted intervals, which the
table builds on first use and caches until the next announce/withdraw;
the columnar crossing kernels search the same index with NumPy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.ip.addr import IPAddress
from repro.ip.prefix import IPPrefix, IPv4Prefix, IPv6Prefix
from repro.ip.trie import PrefixTrie


@dataclass(frozen=True)
class Route:
    """One announced prefix and its origin ASN."""

    prefix: IPPrefix
    origin_asn: int

    def __post_init__(self) -> None:
        if self.origin_asn <= 0:
            raise ValueError(f"origin ASN must be positive, got {self.origin_asn}")


#: A longest-prefix match: the covering prefix and its origin ASN.
Match = Tuple[IPPrefix, int]

_M64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class RouteIndex:
    """Longest-prefix match as a flat sorted-interval lookup.

    Every key in ``[bounds[k], bounds[k + 1])`` is covered most
    specifically by ``routes[ids[k]]`` (``ids[k] == -1``: unrouted);
    ``bounds[0]`` is 0, so every key lands in exactly one interval.
    ``bounds_u64``/``ids_i64`` are read-only NumPy twins for key spaces
    of at most 64 bits (``None`` for the full 128-bit IPv6 space).
    """

    bounds: Tuple[int, ...]
    ids: Tuple[int, ...]
    routes: Tuple[Match, ...]
    bounds_u64: Optional[np.ndarray]
    ids_i64: Optional[np.ndarray]

    @classmethod
    def build(cls, routes: Iterable[Match], bits: int, shift: int = 0) -> "RouteIndex":
        """Flatten one family's ``(prefix, asn)`` routes over ``bits``-wide
        keys (networks shifted right by ``shift``); ids follow network order.

        Routed prefixes nest or are disjoint (never partially overlap),
        so one left-to-right sweep with a containment stack is exact.
        """
        ordered = tuple(sorted(routes, key=lambda r: (int(r[0].network), r[0].plen)))
        bounds: List[int] = [0]
        ids: List[int] = [-1]

        def emit(position: int, route_id: int) -> None:
            if position >> bits:
                return  # end of the key space
            if bounds[-1] == position:
                ids[-1] = route_id  # inner prefix (or parent resumption) wins
            else:
                bounds.append(position)
                ids.append(route_id)

        stack: List[Tuple[int, int]] = []  # (end_exclusive, route_id), outermost first
        for route_id, (prefix, _asn) in enumerate(ordered):
            start = int(prefix.network) >> shift
            while stack and stack[-1][0] <= start:
                finished_end, _ = stack.pop()
                emit(finished_end, stack[-1][1] if stack else -1)
            emit(start, route_id)
            stack.append((start + (1 << (bits - prefix.plen)), route_id))
        while stack:
            finished_end, _ = stack.pop()
            emit(finished_end, stack[-1][1] if stack else -1)

        bounds_u64 = ids_i64 = None
        if bits <= 64:
            bounds_u64 = np.array(bounds, dtype=np.uint64)
            ids_i64 = np.array(ids, dtype=np.int64)
            bounds_u64.flags.writeable = ids_i64.flags.writeable = False
        return cls(tuple(bounds), tuple(ids), ordered, bounds_u64, ids_i64)

    def route_of(self, key: int) -> Optional[Match]:
        """The most specific route covering ``key``."""
        route_id = self.ids[bisect_right(self.bounds, key) - 1]
        return None if route_id < 0 else self.routes[route_id]

    def origin_asns(self, lo: np.ndarray, hi: Optional[np.ndarray] = None) -> np.ndarray:
        """Vectorized :meth:`route_of`: the origin ASN covering each key
        (int64, ``-1`` when unrouted).

        Keys are the uint64 words ``lo``, or the 128-bit ``(hi, lo)``
        word pairs when ``hi`` is given (the full IPv6 index).
        """
        if hi is None:
            if self.bounds_u64 is None:
                raise ValueError("the 128-bit IPv6 index needs (hi, lo) keys")
            slots = np.searchsorted(self.bounds_u64, lo, side="right") - 1
        else:
            bounds_hi = np.array([b >> 64 for b in self.bounds], dtype=np.uint64)
            bounds_lo = np.array([b & _M64 for b in self.bounds], dtype=np.uint64)
            slots = np.searchsorted(bounds_hi, hi, side="right") - 1
            # The last bound with a high word <= the key's may still sit
            # above it in the low word; step back over those (bounds[0]
            # is 0, so the walk stops there at the latest).
            while True:
                over = (bounds_hi[slots] == hi) & (bounds_lo[slots] > lo)
                if not over.any():
                    break
                slots[over] -= 1
        # Route id -1 (unrouted) picks the trailing -1.
        asns = np.array([asn for _prefix, asn in self.routes] + [-1], dtype=np.int64)
        return asns[np.asarray(self.ids, dtype=np.int64)[slots]]

    def crosses(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Per pair of uint64 keys: True unless both sit under the same
        routed prefix (an unrouted key always crosses)."""
        if self.bounds_u64 is None:
            raise ValueError("the 128-bit IPv6 index has no uint64 view")
        old_ids, new_ids = (
            self.ids_i64[np.searchsorted(self.bounds_u64, keys, side="right") - 1]
            for keys in (old, new)
        )
        return (old_ids == -1) | (old_ids != new_ids)


class RoutingTable:
    """A dual-family BGP routing table supporting longest-prefix match.

    Flat :class:`RouteIndex` views are cached per ``(family, max_plen)``
    and dropped on every announce/withdraw.  Each index is published as
    one immutable value, so concurrent readers at worst build it twice
    and never see a partial one; the cache is not pickled.
    """

    def __init__(self, routes: Optional[Iterable[Route]] = None) -> None:
        self._v4 = PrefixTrie(IPv4Prefix)
        self._v6 = PrefixTrie(IPv6Prefix)
        self._indexes: Dict[Tuple[int, Optional[int]], RouteIndex] = {}
        if routes is not None:
            for route in routes:
                self.announce(route.prefix, route.origin_asn)

    def __len__(self) -> int:
        return len(self._v4) + len(self._v6)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_indexes"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._indexes = {}

    def _trie_for(self, item: Union[IPAddress, IPPrefix]) -> PrefixTrie:
        family = item.family
        return self._v4 if family == 4 else self._v6

    def announce(self, prefix: IPPrefix, origin_asn: int) -> None:
        """Install ``prefix`` with the given origin (overwrites on re-announce)."""
        if origin_asn <= 0:
            raise ValueError(f"origin ASN must be positive, got {origin_asn}")
        self._trie_for(prefix).insert(prefix, origin_asn)
        self._indexes = {}

    def withdraw(self, prefix: IPPrefix) -> None:
        """Remove ``prefix``; raises ``KeyError`` when not announced."""
        self._trie_for(prefix).remove(prefix)
        self._indexes = {}

    def route_index(self, family: int, max_plen: Optional[int] = None) -> RouteIndex:
        """The cached flat LPM index over one family's routes no longer
        than ``max_plen``.

        Keys are address integers, except for IPv6 with ``max_plen <= 64``:
        there they are the top 64 bits, which is exact for /``max_plen``
        lookups because no longer route can cover such a prefix.
        """
        if family not in (4, 6):
            raise ValueError(f"family must be 4 or 6, got {family}")
        cache = self._indexes
        index = cache.get((family, max_plen))
        if index is None:
            shift = 64 if family == 6 and max_plen is not None and max_plen <= 64 else 0
            routes = (
                (prefix, asn)
                for prefix, asn in (self._v4 if family == 4 else self._v6).items()
                if max_plen is None or prefix.plen <= max_plen
            )
            index = RouteIndex.build(routes, (32 if family == 4 else 128) - shift, shift)
            cache[(family, max_plen)] = index
        return index

    def _match(self, item: Union[IPAddress, IPPrefix]) -> Optional[Match]:
        """Most specific route covering an address (flat index) or all of
        a prefix (trie walk)."""
        if isinstance(item, IPPrefix):
            return self._trie_for(item).covering(item)
        return self.route_index(item.family).route_of(int(item))

    def routed_prefix(self, address: IPAddress) -> Optional[IPPrefix]:
        """The most specific announced prefix covering ``address``."""
        match = self._match(address)
        return None if match is None else match[0]

    def routed_prefix_of_prefix(self, prefix: IPPrefix) -> Optional[IPPrefix]:
        """The most specific announced prefix covering all of ``prefix``.

        Used for /64s and /24s, whose covering BGP prefix is what the
        paper compares across assignment changes.
        """
        match = self._match(prefix)
        return None if match is None else match[0]

    def origin_asn(self, item: Union[IPAddress, IPPrefix]) -> Optional[int]:
        """Origin ASN for an address or (fully covered) prefix, or ``None``."""
        match = self._match(item)
        return None if match is None else match[1]

    def same_bgp_prefix(
        self,
        a: Union[IPAddress, IPPrefix],
        b: Union[IPAddress, IPPrefix],
    ) -> bool:
        """True when both arguments resolve to the same announced prefix.

        Unrouted items never compare equal.
        """
        match_a = self._match(a)
        if match_a is None:
            return False
        match_b = self._match(b)
        return match_b is not None and match_a[0] == match_b[0]

    def routes(self) -> Iterator[Route]:
        """All installed routes, IPv4 first, in address order."""
        for prefix, asn in self._v4.items():
            yield Route(prefix, asn)
        for prefix, asn in self._v6.items():
            yield Route(prefix, asn)


__all__ = ["Route", "RouteIndex", "RoutingTable"]

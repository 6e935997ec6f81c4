"""Property-based tests for the BGP substrate and renderers."""

import io
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.registry import RIR, Registry
from repro.bgp.routeviews import read_pfx2as, write_pfx2as
from repro.bgp.table import Route, RoutingTable
from repro.core.report import render_cdf, render_histogram
from repro.ip.addr import IPv4Address, IPv6Address
from repro.ip.prefix import IPv4Prefix, IPv6Prefix
from repro.ip.trie import PrefixTrie

_FAMILIES = {4: (IPv4Prefix, IPv4Address), 6: (IPv6Prefix, IPv6Address)}


@st.composite
def route_sets(draw, family):
    """(prefix, asn) routes that nest (sub-prefixes of earlier routes,
    down to host routes) or sit disjoint, sometimes under a default route."""
    prefix_class, address_class = _FAMILIES[family]
    bits = address_class.BITS
    plens = st.one_of(st.sampled_from([0, 1, bits - 1, bits]), st.integers(0, bits))
    routes = {}
    if draw(st.booleans()):
        routes[prefix_class(0, 0)] = draw(st.integers(1, 9999))
    for _ in range(draw(st.integers(0, 12))):
        plen = draw(plens)
        if routes and draw(st.booleans()):
            parent = draw(st.sampled_from(sorted(routes, key=str)))
            plen = max(plen, parent.plen)
            value = int(parent.network) | draw(st.integers(0, (1 << (bits - parent.plen)) - 1))
        else:
            value = draw(st.integers(0, (1 << bits) - 1))
        routes[prefix_class(value, plen)] = draw(st.integers(1, 9999))
    return routes


def _trie_of(routes, family):
    trie = PrefixTrie(_FAMILIES[family][0])
    for prefix, asn in routes.items():
        trie.insert(prefix, asn)
    return trie


def _probe_values(routes, family, extra):
    bits = _FAMILIES[family][1].BITS
    values = set(extra)
    for prefix in routes:
        first = int(prefix.network)
        last = first + prefix.num_addresses - 1
        values.update(v for v in (first, last, last + 1) if v < (1 << bits))
    return sorted(values)


def _assert_matches_trie(table, routes, family, extra=()):
    trie = _trie_of(routes, family)
    address_class = _FAMILIES[family][1]
    values = _probe_values(routes, family, extra)
    expected_asns = []
    for value in values:
        address = address_class(value)
        match = trie.longest_match(address)
        assert table.origin_asn(address) == (None if match is None else match[1])
        assert table.routed_prefix(address) == (None if match is None else match[0])
        expected_asns.append(-1 if match is None else match[1])
    # The vectorized lookup agrees key for key (128-bit keys as word pairs).
    index = table.route_index(family)
    lo = np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64)
    hi = np.array([v >> 64 for v in values], dtype=np.uint64) if family == 6 else None
    assert index.origin_asns(lo, hi).tolist() == expected_asns


@given(st.sampled_from([4, 6]).flatmap(lambda f: st.tuples(st.just(f), route_sets(f))),
       st.lists(st.integers(0, (1 << 128) - 1), max_size=8))
@settings(max_examples=80, deadline=None)
def test_flat_index_matches_trie_walk(family_routes, randoms):
    family, routes = family_routes
    table = RoutingTable(Route(prefix, asn) for prefix, asn in routes.items())
    bits = _FAMILIES[family][1].BITS
    _assert_matches_trie(table, routes, family, [r >> (128 - bits) for r in randoms])


@given(route_sets(6), st.lists(st.integers(0, (1 << 128) - 1), max_size=8))
@settings(max_examples=60, deadline=None)
def test_top64_view_matches_covering_of_slash64(routes, randoms):
    table = RoutingTable(Route(prefix, asn) for prefix, asn in routes.items())
    trie = _trie_of(routes, 6)
    index = table.route_index(6, max_plen=64)
    values = _probe_values(routes, 6, randoms)
    keys = np.array([v >> 64 for v in values], dtype=np.uint64)
    ids = index.ids_i64[np.searchsorted(index.bounds_u64, keys, side="right") - 1]
    for value, route_id in zip(values, ids.tolist()):
        match = trie.covering(IPv6Prefix(value, 64))
        assert (None if route_id < 0 else index.routes[route_id]) == match
    same = index.crosses(keys, keys)
    assert same.tolist() == (ids == -1).tolist()


@given(route_sets(4), route_sets(4))
@settings(max_examples=40, deadline=None)
def test_lookups_follow_announce_and_withdraw(routes, changes):
    table = RoutingTable(Route(prefix, asn) for prefix, asn in routes.items())
    current = dict(routes)
    probes = _probe_values({**routes, **changes}, 4, [])
    _assert_matches_trie(table, current, 4, probes)
    for prefix, asn in changes.items():
        table.announce(prefix, asn)
        current[prefix] = asn
        _assert_matches_trie(table, current, 4, probes)
    for prefix in changes:
        table.withdraw(prefix)
        del current[prefix]
        _assert_matches_trie(table, current, 4, probes)
    for prefix, asn in changes.items():
        table.announce(prefix, asn + 1)  # re-announce under a new origin
        current[prefix] = asn + 1
    _assert_matches_trie(table, current, 4, probes)


@given(route_sets(4), route_sets(6))
@settings(max_examples=30, deadline=None)
def test_pickle_drops_cached_index(routes4, routes6):
    entries = [Route(p, a) for p, a in {**routes4, **routes6}.items()]
    table, fresh = RoutingTable(entries), RoutingTable(entries)
    for family, routes in ((4, routes4), (6, routes6)):
        _assert_matches_trie(table, routes, family)
    table.route_index(6, max_plen=64)
    assert pickle.dumps(table) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(table))
    for family, routes in ((4, routes4), (6, routes6)):
        _assert_matches_trie(restored, routes, family)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=1, max_value=32),
            st.integers(min_value=1, max_value=65535),
        ),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_pfx2as_roundtrip(entries):
    routes = [Route(IPv4Prefix(value, plen), asn) for value, plen, asn in entries]
    # Deduplicate by prefix as a table would.
    unique = {route.prefix: route for route in routes}
    buffer = io.StringIO()
    write_pfx2as(unique.values(), buffer)
    buffer.seek(0)
    recovered = {route.prefix: route for route in read_pfx2as(buffer)}
    assert recovered == unique


@given(
    st.lists(
        st.tuples(st.sampled_from(list(RIR)), st.integers(min_value=12, max_value=20),
                  st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=40, deadline=None)
def test_registry_allocations_always_disjoint(requests):
    registry = Registry()
    blocks = []
    for index, (rir, plen, count) in enumerate(requests):
        registry.register(1000 + index, f"as{index}", "XX", rir)
        try:
            blocks.extend(registry.allocate_v4(1000 + index, plen, count=count))
        except Exception:
            break  # exhaustion is acceptable; disjointness must still hold
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            assert not a.contains_prefix(b) and not b.contains_prefix(a)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=8, max_value=28),
            st.integers(min_value=1, max_value=9999),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=(1 << 32) - 1),
)
@settings(max_examples=40, deadline=None)
def test_routing_table_lpm_is_most_specific(entries, probe_value):
    table = RoutingTable()
    installed = {}
    for value, plen, asn in entries:
        prefix = IPv4Prefix(value, plen)
        table.announce(prefix, asn)
        installed[prefix] = asn
    probe = IPv4Address(probe_value)
    expected = None
    best_plen = -1
    for prefix, asn in installed.items():
        if prefix.contains_address(probe) and prefix.plen > best_plen:
            expected, best_plen = asn, prefix.plen
    assert table.origin_asn(probe) == expected


class TestRenderers:
    def test_histogram_bar_lengths_proportional(self):
        text = render_histogram({1: 10, 2: 5, 3: 0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 0

    def test_histogram_empty_and_validation(self):
        assert "(empty)" in render_histogram({})
        import pytest

        with pytest.raises(ValueError):
            render_histogram({1: 1}, width=0)

    def test_cdf_renderer(self):
        text = render_cdf([1.0, 2.0], [0.5, 1.0], width=10)
        lines = text.splitlines()
        assert lines[0].endswith("0.50")
        assert lines[1].count("=") == 10
        assert "(empty)" in render_cdf([], [])

    def test_cdf_length_mismatch(self):
        import pytest

        with pytest.raises(ValueError):
            render_cdf([1.0], [0.5, 1.0])

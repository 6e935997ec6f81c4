"""Equivalence tests: numpy-vectorized vs reference association analytics."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.associations import (
    association_box_stats,
    association_durations,
    box_stats,
    v4_degree_counts,
    v6_degree_counts,
)
from repro.core.associations_np import (
    _sort_kind,
    _v6_day_v4_code,
    association_durations_np,
    box_stats_np,
    columns_from_triples,
    degree_count_arrays,
    v6_day_v4_order,
)

triple_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=200,
)


def to_triples(raw):
    # Distinct /24 and /64 keys; /64 keys are full 128-bit ints.
    return [(day, v4 << 8, v6 << 64) for day, v4, v6 in raw]


@given(triple_lists)
@settings(max_examples=60, deadline=None)
def test_durations_equivalent(raw):
    triples = to_triples(raw)
    reference = sorted(association_durations(triples))
    days, v4, v6 = columns_from_triples(triples)
    vectorized = sorted(int(x) for x in association_durations_np(days, v4, v6))
    assert vectorized == reference


@given(triple_lists)
@settings(max_examples=60, deadline=None)
def test_degree_counts_equivalent(raw):
    triples = to_triples(raw)
    ref_unique, ref_hits = v4_degree_counts(triples)
    days, v4, v6 = columns_from_triples(triples)
    keys, unique, hits = degree_count_arrays(v4, v6)
    assert keys.tolist() == sorted(ref_unique)
    assert dict(zip(keys.tolist(), unique.tolist())) == ref_unique
    assert dict(zip(keys.tolist(), hits.tolist())) == ref_hits
    keys, unique, _hits = degree_count_arrays(v6, v4)
    assert {key << 64: count for key, count in zip(keys.tolist(), unique.tolist())} == (
        v6_degree_counts(triples)
    )


class TestLargeRandomized:
    def test_equivalence_at_scale(self):
        rng = random.Random(0)
        triples = [
            (rng.randrange(150), rng.randrange(40) << 8, rng.randrange(500) << 64)
            for _ in range(20000)
        ]
        reference = Counter(association_durations(triples))
        days, v4, v6 = columns_from_triples(triples)
        vectorized = Counter(int(x) for x in association_durations_np(days, v4, v6))
        assert vectorized == reference

    def test_percentiles_match_box_stats(self):
        rng = random.Random(1)
        durations = [rng.randrange(1, 150) for _ in range(5000)]
        assert box_stats_np(np.array(durations)) == box_stats(durations)


class TestEdgeCases:
    def test_empty(self):
        days, v4, v6 = columns_from_triples([])
        assert len(association_durations_np(days, v4, v6)) == 0
        assert all(len(array) == 0 for array in degree_count_arrays(v4, v6))
        with pytest.raises(ValueError):
            box_stats_np(np.empty(0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            association_durations_np(np.zeros(2), np.zeros(1), np.zeros(2))
        with pytest.raises(ValueError):
            degree_count_arrays(np.zeros(2), np.zeros(1))


class TestSparsePopulationGuards:
    """Opt-in empty/single-tuple behavior used by the out-of-core path.

    Sparse shards routinely hand the kernels zero or one row; the store
    kernels must get typed empty results back instead of exceptions,
    while the historical raise-on-empty default stays untouched (see
    ``TestEdgeCases.test_empty``).
    """

    def test_degree_count_arrays_empty(self):
        from repro.core.associations_np import degree_count_arrays

        keys, unique, hits = degree_count_arrays(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint64)
        )
        assert len(keys) == len(unique) == len(hits) == 0
        assert unique.dtype == np.int64 and hits.dtype == np.int64

    def test_degree_count_arrays_single_row(self):
        from repro.core.associations_np import degree_count_arrays

        keys, unique, hits = degree_count_arrays(
            np.array([7 << 8], dtype=np.uint32), np.array([3], dtype=np.uint64)
        )
        assert keys.tolist() == [7 << 8]
        assert unique.tolist() == [1] and hits.tolist() == [1]

    def test_box_stats_np_empty_opt_in(self):
        from repro.core.associations_np import box_stats_np

        with pytest.raises(ValueError):
            box_stats_np(np.empty(0))
        assert box_stats_np(np.empty(0), empty_ok=True) is None

    def test_box_stats_np_single_value(self):
        from repro.core.associations_np import box_stats_np

        stats = box_stats_np(np.array([9]))
        assert stats == box_stats([9])

    def test_box_stats_from_counts_empty_opt_in(self):
        from repro.core.associations_np import box_stats_from_counts

        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            box_stats_from_counts(empty, empty)
        assert box_stats_from_counts(empty, empty, empty_ok=True) is None

    def test_box_stats_from_counts_single_bucket(self):
        from repro.core.associations_np import box_stats_from_counts, box_stats_np

        stats = box_stats_from_counts(np.array([4]), np.array([3]))
        assert stats == box_stats_np(np.array([4, 4, 4]))

    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 50)),
            min_size=1,
            max_size=60,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_box_stats_from_counts_matches_expansion(self, buckets):
        from repro.core.associations_np import box_stats_from_counts, box_stats_np

        values = np.array([value for value, _count in buckets])
        counts = np.array([count for _value, count in buckets])
        expanded = np.repeat(values, counts)
        assert box_stats_from_counts(values, counts) == box_stats_np(expanded)


class TestKeyAlignment:
    def test_unaligned_v64_key_raises(self):
        with pytest.raises(ValueError):
            columns_from_triples([(0, 1 << 8, 1 << 64), (0, 1 << 8, (2 << 64) | 5)])

    def test_np_box_stats_do_not_drift_on_unaligned_keys(self):
        # Two distinct /128 keys inside one /64 must stay distinct: the
        # columnar path falls back to the reference instead of merging them.
        triples = [(0, 1 << 8, 1 << 64), (1, 2 << 8, (1 << 64) | 1), (5, 1 << 8, 1 << 64)]
        assert association_box_stats(triples, engine="fused") == association_box_stats(
            triples, engine="py"
        )


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 2, 59_999]),
            st.one_of(st.integers(0, 3), st.just((1 << 40) + 1)),
            st.integers(0, 5),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_v6_day_v4_order_sorts_like_lexsort(rows):
    # Covers both the packed-key sort and its lexsort fallback (a /24
    # key wider than 32 bits).
    days = np.array([row[0] for row in rows], dtype=np.int64)
    v4 = np.array([row[1] for row in rows], dtype=np.uint64)
    v6 = np.array([row[2] for row in rows], dtype=np.uint64) << np.uint64(40)
    order = v6_day_v4_order(days, v4, v6)
    expected = np.lexsort((v4, days, v6))
    for column in (days, v4, v6):
        assert np.array_equal(column[order], column[expected])


#: Key pools at full width: /64 words with the high bit set, /24 keys up
#: to 0xFFFFFF00 and any day a store holds.  Rows are drawn from the
#: pools by a seeded generator, so a case has enough rows (and sorted
#: runs) to take both first-pass sorts while hypothesis shrinks only
#: the pools.
wide_pools = st.tuples(
    st.lists(
        st.one_of(st.integers(1 << 63, (1 << 64) - 1), st.integers(0, (1 << 64) - 1)),
        min_size=1, max_size=12, unique=True,
    ),
    st.lists(st.integers(0, 0xFFFFFF).map(lambda key: key << 8), min_size=1, max_size=12),
    st.lists(st.integers(0, 65535), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
)

#: /24 keys wider than 32 bits.  In the degree kernel the first packs
#: beside a ranked /64, the second beside nothing but a lone /64, and
#: the third overflows once /64 words are 64 bits wide and ranked.
WIDE_V4_KEYS = (1 << 40, 0xFFFF_FFFF_FFFF_FF00, 0x7FFF_FFFF_FFFF_FF00)


def _pool_rows(v6_pool, v4_pool, day_pool, seed, rows=400):
    rng = np.random.default_rng(seed)
    days = np.minimum(
        np.array(day_pool)[rng.integers(0, len(day_pool), rows)] + rng.integers(0, 4, rows),
        65535,
    )
    v4 = rng.integers(0, len(v4_pool), rows)
    v6 = rng.integers(0, len(v6_pool), rows)
    return [
        (int(day), v4_pool[i], v6_pool[j] << 64)
        for day, i, j in zip(days.tolist(), v4.tolist(), v6.tolist())
    ]


def _feeds(triples, seed):
    """The rows shuffled, and as a few concatenated ``(v6, day, v4)``-sorted runs."""
    rng = np.random.default_rng(seed)
    shuffled = [triples[i] for i in rng.permutation(len(triples))]
    cuts = sorted(rng.integers(0, len(triples), int(rng.integers(0, 8))).tolist())
    bounds = [0, *cuts, len(triples)]
    runs = [
        row
        for lo, hi in zip(bounds, bounds[1:])
        for row in sorted(shuffled[lo:hi], key=lambda t: (t[2], t[0], t[1]))
    ]
    return shuffled, runs


def _assert_matches_oracle(triples, narrow):
    days, v4, v6 = columns_from_triples(triples)
    if narrow:  # the store's on-disk dtypes
        days, v4 = days.astype(np.uint16), v4.astype(np.uint32)
    durations = association_durations_np(days, v4, v6)
    assert durations.dtype == np.int64
    assert sorted(durations.tolist()) == sorted(association_durations(triples))

    ref_unique, ref_hits = v4_degree_counts(triples)
    keys, unique, hits = degree_count_arrays(v4, v6)
    assert keys.dtype == v4.dtype
    assert unique.dtype == hits.dtype == np.int64
    assert keys.tolist() == sorted(ref_unique)
    assert unique.tolist() == [ref_unique[key] for key in keys.tolist()]
    assert hits.tolist() == [ref_hits[key] for key in keys.tolist()]

    keys, unique, _hits = degree_count_arrays(v6, v4)
    assert keys.dtype == v6.dtype
    reference = v6_degree_counts(triples)
    assert [key << 64 for key in keys.tolist()] == sorted(reference)
    assert unique.tolist() == [reference[key << 64] for key in keys.tolist()]

    order = v6_day_v4_order(days, v4, v6)
    expected = np.lexsort((v4, days, v6))
    for column in (days, v4, v6):
        assert np.array_equal(column[order], column[expected])


@given(wide_pools, st.booleans())
@settings(max_examples=40, deadline=None)
def test_kernels_match_oracle_at_full_key_width(pools, narrow):
    v6_pool, v4_pool, day_pool, seed = pools
    for feed in _feeds(_pool_rows(v6_pool, v4_pool, day_pool, seed), seed):
        _assert_matches_oracle(feed, narrow)


@given(wide_pools, st.sampled_from(WIDE_V4_KEYS))
@settings(max_examples=30, deadline=None)
def test_kernels_match_oracle_with_a_v4_key_wider_than_32_bits(pools, wide_key):
    v6_pool, v4_pool, day_pool, seed = pools
    triples = _pool_rows(v6_pool, v4_pool + [wide_key], day_pool, seed)
    triples.append((0, wide_key, v6_pool[0] << 64))
    for feed in _feeds(triples, seed):
        days, v4, v6 = columns_from_triples(feed)
        assert _v6_day_v4_code(days, v4, v6) is None
        _assert_matches_oracle(feed, narrow=False)


def test_first_pass_sort_follows_the_input():
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 1 << 63, 4000, dtype=np.uint64)
    runs = np.concatenate([np.sort(part) for part in np.array_split(keys, 16)])
    assert _sort_kind(runs) == "stable"
    assert _sort_kind(keys) == "quicksort"

"""Streaming-layer tests: replay parity, checkpoints, stream sources.

The load-bearing property is *replay parity*: folding a scenario
chunk-by-chunk through the incremental engine — any chunk size, with or
without a mid-stream checkpoint/restore — must reproduce the
pure-Python ``engine="py"`` report bit-identically.
"""

import itertools
import pickle
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.associations import (
    association_box_stats,
    association_durations,
    fraction_degree_one,
    v4_degree_counts,
    v6_degree_counts,
)
from repro.core.associations_np import columns_from_triples
from repro.io.records import RecordFormatError
from repro.perf.verify import association_diffs, stream_diffs
from repro.store import build_store_from_triples
from repro.stream import (
    AssociationStreamEngine,
    AtlasStreamEngine,
    CheckpointStore,
    JsonlRunSource,
    ProbeInfo,
    ScenarioRunSource,
    run_association_stream_over_store,
    run_atlas_stream,
    write_run_stream,
)
from repro.workloads import (
    analyze_atlas_scenario,
    build_atlas_scenario,
    periodicity_for_scenario,
    stream_analyze_atlas_scenario,
)


def _events(source):
    """A source's runs as (first, ref, family, value, last) tuples."""
    (chunk,) = source.chunks(10**9)
    values = [(hi << 64) | lo for hi, lo in zip(chunk.value_hi.tolist(), chunk.value_lo.tolist())]
    return list(zip(chunk.first.tolist(), chunk.ref.tolist(), chunk.family.tolist(), values,
                    chunk.last.tolist()))


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(probes_per_as=3, years=0.4, seed=7, cache=False)


@pytest.fixture(scope="module")
def batch(scenario):
    analysis = analyze_atlas_scenario(scenario, engine="fused")
    periods = periodicity_for_scenario(scenario, min_probes=2, engine="fused")
    return analysis, periods


class TestReplayParity:
    def test_multiple_chunk_sizes(self, scenario):
        # One-hour windows (every track, pending /64 run and coverage
        # interval carries across every hour), a tiny non-divisor window,
        # a mid-size one, and one giant chunk (the whole stream in a
        # single fold) must all be bit-identical.
        assert stream_diffs(
            scenario, chunk_hours=(1, 7, 500, 10**7), min_probes=2
        ) == []

    def test_kill_checkpoint_resume(self, scenario, tmp_path):
        assert stream_diffs(
            scenario, chunk_hours=(64,), min_probes=2, checkpoint_dir=tmp_path
        ) == []

    def test_state_roundtrips_through_pickle(self, scenario, batch, tmp_path):
        # Checkpoint after *every* chunk, reloading the engine from the
        # pickled state each time: the harshest restore schedule.
        source = ScenarioRunSource.from_scenario(scenario)
        store = CheckpointStore(tmp_path)
        engine = AtlasStreamEngine(source.manifest, table=scenario.table, min_probes=2)
        for chunk in source.chunks(250):
            engine.fold_chunk(chunk)
            state = pickle.loads(pickle.dumps(engine.state_dict()))
            engine = AtlasStreamEngine(
                source.manifest, table=scenario.table, min_probes=2
            )
            engine.load_state(state)
        result = engine.finalize()
        analysis, periods = batch
        assert result.analysis == analysis
        assert (result.v4_periods, result.v6_periods) == periods
        assert store.load("atlas-stream", "missing") is None

    def test_finalize_leaves_state_extendable(self, scenario, batch):
        # Finalizing mid-stream must not corrupt the state: folding the
        # remaining chunks afterwards still converges to the batch result.
        source = ScenarioRunSource.from_scenario(scenario)
        engine = AtlasStreamEngine(source.manifest, table=scenario.table, min_probes=2)
        chunks = list(source.chunks(300))
        mid = len(chunks) // 2
        for chunk in chunks[:mid]:
            engine.fold_chunk(chunk)
        partial = engine.finalize()
        assert partial.analysis.table1  # a real, renderable partial report
        for chunk in chunks[mid:]:
            engine.fold_chunk(chunk)
        result = engine.finalize()
        analysis, periods = batch
        assert result.analysis == analysis
        assert (result.v4_periods, result.v6_periods) == periods

    def test_stats_reflect_the_pass(self, scenario):
        result = stream_analyze_atlas_scenario(scenario, chunk_hours=500, min_probes=2)
        expected_chunks = max(1, -(-scenario.end_hour // 500))
        assert result.stats.chunks_folded == expected_chunks
        assert result.stats.runs_seen == sum(
            len(probe.v4_runs) + len(probe.v6_runs) for probe in scenario.probes
        )
        assert result.stats.resumed_from_chunk is None

    def test_probes_outside_the_networks_are_counted_and_ignored(self, scenario, batch):
        # A probe in an ASN the manifest does not list, its runs
        # interleaved with everyone else's, changes nothing but runs_seen.
        source = ScenarioRunSource.from_scenario(scenario)
        events = _events(source)
        stray = len(source.manifest.probes)
        extra = [(first, stray, family, value + 1, last)
                 for first, ref, family, value, last in events if ref == 0]
        manifest = replace(
            source.manifest,
            probes=source.manifest.probes + (ProbeInfo("stray", 64_999, True),),
        )
        assert 64_999 not in {net.asn for net in manifest.networks}
        widened = ScenarioRunSource(manifest, events + extra)
        result = run_atlas_stream(widened, 97, table=scenario.table, min_probes=2)
        analysis, periods = batch
        assert result.analysis == analysis
        assert (result.v4_periods, result.v6_periods) == periods
        assert result.stats.runs_seen == len(events) + len(extra) > len(events)

    def test_state_version_2_is_rejected(self, scenario):
        # A payload of the layout with the deferred dual-stack queue
        # (``ds_*`` arrays) must not load into the current engine.
        source = ScenarioRunSource.from_scenario(scenario)
        engine = AtlasStreamEngine(source.manifest, table=scenario.table, min_probes=2)
        old = dict(engine.state_dict(), state_version=2)
        old.update({name: np.zeros(0, dtype=np.int64) for name in ("ds_ref", "ds_start", "ds_end")})
        with pytest.raises(ValueError, match="state version 2"):
            engine.load_state(old)


class TestJsonlRunSource:
    def test_export_roundtrip_parity(self, scenario, batch, tmp_path):
        path = tmp_path / "runs.jsonl"
        with path.open("w") as stream:
            written = write_run_stream(scenario, stream)
        source = JsonlRunSource(path)
        assert written == sum(
            len(probe.v4_runs) + len(probe.v6_runs) for probe in scenario.probes
        )
        # No routing table travels with the file, so Table 2 is empty;
        # every other artifact must match the batch report exactly.  In
        # one- and seven-hour windows the IPv6 runs that decide an IPv4
        # duration's dual-stack kind often arrive in the very fold that
        # emits the duration.
        analysis, periods = batch
        for chunk_hours in (1, 7, 600):
            result = run_atlas_stream(source, chunk_hours, min_probes=2)
            assert result.analysis.table1 == analysis.table1
            assert result.analysis.figure1 == analysis.figure1
            assert result.analysis.figure5 == analysis.figure5
            assert result.analysis.table2 == {}
            assert (result.v4_periods, result.v6_periods) == periods

    def test_truncated_final_line_tolerated(self, scenario, tmp_path):
        path = tmp_path / "runs.jsonl"
        with path.open("w") as stream:
            write_run_stream(scenario, stream)
        full = path.read_text()
        path.write_text(full[:-20])  # killed writer: final line cut short
        source = JsonlRunSource(path)
        (chunk,) = source.chunks(10**7)
        assert source.truncated_lines == 1
        complete_lines = full.strip().count("\n")  # runs, excluding manifest
        assert len(chunk) == complete_lines - 1
        # The surviving rows are the complete file's rows minus its last.
        whole = tmp_path / "whole.jsonl"
        whole.write_text(full)
        (expected,) = JsonlRunSource(whole).chunks(10**7)
        for name in ("first", "ref", "family", "last", "value_hi", "value_lo"):
            assert np.array_equal(getattr(chunk, name), getattr(expected, name)[:-1])

    def test_malformed_mid_stream_raises(self, scenario, tmp_path):
        path = tmp_path / "runs.jsonl"
        with path.open("w") as stream:
            write_run_stream(scenario, stream)
        lines = path.read_text().splitlines()
        lines.insert(len(lines) // 2, "{broken json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordFormatError):
            for _ in JsonlRunSource(path).chunks(10**7):
                pass


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = store.key("atlas-stream", "stream", {"chunk_hours": 8})
        store.save("atlas-stream", key, {"state_version": 1, "x": [1, 2]})
        assert store.load("atlas-stream", key) == {"state_version": 1, "x": [1, 2]}
        store.delete("atlas-stream", key)
        assert store.load("atlas-stream", key) is None

    def test_corrupt_checkpoint_is_a_miss_and_removed(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = store.key("atlas-stream", "stream", {})
        path = store.path_for("atlas-stream", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert store.load("atlas-stream", key) is None
        assert not path.exists()

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        store = CheckpointStore(tmp_path)
        key = store.key("atlas-stream", "stream", {})
        store.save("atlas-stream", key, {"ok": True})
        # Same key filed under another kind's name must not load.
        other = store.path_for("association-stream", key)
        store.path_for("atlas-stream", key).rename(other)
        assert store.load("association-stream", key) is None

    def test_key_changes_with_params(self, tmp_path):
        store = CheckpointStore(tmp_path)
        base = store.key("atlas-stream", "stream", {"chunk_hours": 8})
        assert store.key("atlas-stream", "stream", {"chunk_hours": 9}) != base
        assert store.key("atlas-stream", "other", {"chunk_hours": 8}) != base


def _synthetic_triples():
    """Day-ordered association spells with boundary-crossing runs.

    The /64 keys occupy the address's top 64 bits, as real collected
    triples do (the columnar batch path packs them by that shift).
    """
    triples = []
    for day in range(0, 40):
        v4 = 100 if day < 17 else 200  # one /64 switching /24 mid-stream
        triples.append((day, v4, 1 << 64))
        if day % 3 == 0:
            triples.append((day, 300, 2 << 64))  # sparse but stable association
        if 10 <= day < 12:
            triples.append((day, 100, 3 << 64))  # short-lived /64
    triples.sort()
    return triples


def _day_windows(triples, chunk_days):
    """``(index, rows)`` per day window ``[k*chunk_days, (k+1)*chunk_days)``,
    empty windows included — the schedule the store-driven stream folds."""
    last = max((triple[0] for triple in triples), default=0)
    for index in range(last // chunk_days + 1):
        lo = index * chunk_days
        yield index, [triple for triple in triples if lo <= triple[0] < lo + chunk_days]


def _store(triples, directory):
    return build_store_from_triples(triples, directory, shards=2)


def _stream(triples, chunk_days, directory, **kwargs):
    """Build a store of ``triples`` under ``directory`` and stream it."""
    return run_association_stream_over_store(_store(triples, directory), chunk_days, **kwargs)


class TestAssociationStream:
    @pytest.mark.parametrize("chunk_days", [1, 3, 7, 1000])
    def test_parity_with_batch(self, chunk_days, tmp_path):
        triples = _synthetic_triples()
        result = _stream(triples, chunk_days, tmp_path / "store")
        expected = sorted(association_durations(triples))
        streamed = sorted(
            value for value, count in result.durations.items() for _ in range(count)
        )
        assert streamed == expected
        assert result.box == association_box_stats(triples)
        unique_by_v4, hits_by_v4 = v4_degree_counts(triples)
        assert result.v4_unique == unique_by_v4
        assert result.v4_hits == hits_by_v4
        assert result.v6_degrees == v6_degree_counts(triples)
        assert result.fraction_v6_degree_one == fraction_degree_one(
            v6_degree_counts(triples)
        )

    def test_checkpoint_resume(self, tmp_path):
        triples = _synthetic_triples()
        triple_store = _store(triples, tmp_path / "store")
        store = CheckpointStore(tmp_path / "ckpt")
        killed = run_association_stream_over_store(
            triple_store, 5, store=store, stop_after_chunks=3
        )
        assert killed is None
        resumed = run_association_stream_over_store(triple_store, 5, store=store, resume=True)
        full = run_association_stream_over_store(triple_store, 5)
        assert resumed.durations == full.durations
        assert resumed.box == full.box
        assert resumed.v6_degrees == full.v6_degrees


def _aligned(raw):
    """Day-sorted triples with /24 and /64 keys aligned as collected data is."""
    return sorted((day, v4 << 8, (0x2001_0DB8_0000_0000 | v6) << 64) for day, v4, v6 in raw)


aligned_triples = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=8),
    ),
    max_size=120,
).map(_aligned)


def _same_state(a, b):
    return a.keys() == b.keys() and all(
        np.array_equal(a[key], b[key]) if isinstance(a[key], np.ndarray) else a[key] == b[key]
        for key in a
    )


def _fold_shuffled(triples, chunk_days, rng):
    """Fold every window in a shuffled row order, reloading a pickled
    state after each one; returns the engine and the per-window
    snapshots (taken before the reload) with their pickled bytes."""
    engine = AssociationStreamEngine()
    snapshots = []
    for index, rows in _day_windows(triples, chunk_days):
        rng.shuffle(rows)
        engine.fold_columns(*columns_from_triples(rows), chunk_index=index)
        state = engine.state_dict()
        snapshots.append((state, pickle.dumps(state)))
        engine = AssociationStreamEngine()
        engine.load_state(pickle.loads(snapshots[-1][1]))
    return engine, snapshots


class TestColumnarFold:
    @given(
        aligned_triples,
        st.sampled_from([1, 3, 7, 1000]),
        st.integers(min_value=1, max_value=45),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_under_pickle_and_kill(self, triples, chunk_days, kill, rng):
        engine, snapshots = _fold_shuffled(triples, chunk_days, rng)
        assert association_diffs(triples, results=(engine.finalize(),)) == []
        for state, frozen in snapshots:
            assert _same_state(state, pickle.loads(frozen))
        with tempfile.TemporaryDirectory() as tmp:
            triple_store = _store(triples, f"{tmp}/store")
            store = CheckpointStore(f"{tmp}/ckpt")
            killed = run_association_stream_over_store(
                triple_store, chunk_days, store=store, stop_after_chunks=kill
            )
            resumed = killed or run_association_stream_over_store(
                triple_store, chunk_days, store=store, resume=True
            )
        assert association_diffs(triples, results=(resumed,)) == []

    def test_empty_windows_and_reappearing_v64(self, tmp_path):
        # /64 1 keeps its /24 across five empty windows (one long run);
        # /64 2 comes back on another /24 (its first run closes).
        triples = _aligned([(0, 1, 1), (1, 1, 2), (17, 1, 1), (18, 2, 2)])
        triple_store = _store(triples, tmp_path / "store")
        for chunk_days in (1, 3):
            result = run_association_stream_over_store(triple_store, chunk_days)
            assert association_diffs(triples, results=(result,)) == []
        assert run_association_stream_over_store(triple_store, 3).durations == {18: 1, 1: 2}

    def test_empty_stream(self, tmp_path):
        result = _stream([], 7, tmp_path / "store")
        assert association_diffs([], results=(result,)) == []
        assert result.box is None and result.chunks_folded == 1

    def test_flips_within_one_day(self, tmp_path):
        triples = _aligned([(5, 3, 1), (5, 1, 1), (5, 2, 1), (5, 1, 1), (6, 2, 1)])
        result = _stream(triples, 7, tmp_path / "store")
        assert association_diffs(triples, results=(result,)) == []
        assert result.v6_degrees == {triples[0][2]: 3}

    def test_single_row_store(self, tmp_path):
        triples = [(3, 7 << 8, 1 << 70)]
        store = build_store_from_triples(triples, tmp_path / "store", shards=4)
        result = run_association_stream_over_store(store, chunk_days=7)
        assert association_diffs(triples, results=(result,)) == []
        assert result.durations == {1: 1}

    def test_window_rows_in_any_permutation(self):
        window = _aligned([(2, 1, 1), (0, 2, 1), (1, 1, 1), (1, 1, 3), (0, 1, 3)])
        prior = _aligned([(0, 1, 1)])
        states = []
        for rows in itertools.permutations(window):
            engine = AssociationStreamEngine()
            engine.fold_columns(*columns_from_triples(prior), chunk_index=0)
            engine.fold_columns(*columns_from_triples(list(rows)), chunk_index=1)
            states.append(engine.state_dict())
        assert all(_same_state(states[0], state) for state in states[1:])

    def test_state_dict_is_not_aliased_by_later_folds(self):
        engine = AssociationStreamEngine()
        windows = list(_day_windows(_synthetic_triples(), 4))
        for index, rows in windows[: len(windows) // 2]:
            engine.fold_columns(*columns_from_triples(rows), chunk_index=index)
        snapshot = engine.state_dict()
        frozen = pickle.dumps(snapshot)
        for index, rows in windows[len(windows) // 2:]:
            engine.fold_columns(*columns_from_triples(rows), chunk_index=index)
        assert _same_state(snapshot, pickle.loads(frozen))
        assert not _same_state(snapshot, engine.state_dict())

    def test_old_state_version_is_rejected(self):
        engine = AssociationStreamEngine()
        with pytest.raises(ValueError):
            engine.load_state({"state_version": 1})

    def test_unaligned_v64_key_is_rejected(self, tmp_path):
        # A /128 key inside a /64 cannot pack into the store's upper-64
        # column; the build refuses it instead of merging neighbours.
        with pytest.raises(ValueError, match="not a /64"):
            _stream([(0, 1 << 8, (1 << 64) | 1)], 7, tmp_path / "store")


@pytest.mark.stream
def test_replay_parity_at_scale(tmp_path):
    """A full-year scenario, two chunk sizes, plus kill/resume."""
    scenario = build_atlas_scenario(probes_per_as=5, years=1.0, seed=3, cache=False)
    assert stream_diffs(
        scenario, chunk_hours=(101, 2048), checkpoint_dir=tmp_path
    ) == []


@pytest.mark.parametrize("seed", range(5))
def test_an_empty_carry_leaves_the_rows_as_the_stable_argsort_would(seed):
    """``_with_carry`` skips the sort when nothing is carried; the rows
    are those of the stable argsort of ``concat(carry, ref)``."""
    from repro.stream.engine import _with_carry

    rng = np.random.default_rng(seed)
    ref = np.sort(rng.integers(0, 12, int(rng.integers(0, 40)))).astype(np.int64)
    columns = (rng.integers(0, 1 << 62, len(ref), dtype=np.uint64), rng.random(len(ref)) < 0.5)
    carry = ref[:0]
    held = (columns[0][:0], columns[1][:0])
    got = _with_carry(carry, held, ref, *columns)
    order = np.argsort(np.concatenate((carry, ref)), kind="stable")
    expected = [
        np.concatenate((before, column))[order]
        for before, column in zip((carry, *held), (ref, *columns))
    ]
    assert len(got) == len(expected)
    for merged, want in zip(got, expected):
        assert merged.dtype == want.dtype
        assert np.array_equal(merged, want)

"""The parity harnesses catch a fault, and compute the Atlas oracle once.

Each mutation test patches one fast-path kernel, asserts that the
harness reports a difference naming the diverging artifact, then undoes
the patch and asserts that the harness is clean again.
"""

from __future__ import annotations

import gc
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.perf import verify
from repro.perf.verify import association_diffs, atlas_diffs, serve_diffs, stream_diffs
from repro.workloads import build_atlas_scenario

SCALE = dict(probes_per_as=3, years=0.4, seed=7, cache=False)
SMALL = dict(probes_per_as=2, years=0.3, seed=7, cache=False)


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(**SCALE)


def test_atlas_diffs_catches_a_table2_fault(scenario, monkeypatch):
    from repro.core import fused

    original = fused.table2_from_stats

    def off_by_one(*args, **kwargs):
        rates = original(*args, **kwargs)
        return replace(rates, v4_diff_bgp=rates.v4_diff_bgp + 1)

    with monkeypatch.context() as patch:
        patch.setattr(fused, "table2_from_stats", off_by_one)
        diffs = atlas_diffs(scenario)
    assert "table2: fused diverges from py" in diffs
    assert all("table2" in diff for diff in diffs)
    assert atlas_diffs(scenario) == []


def test_stream_diffs_catches_over_pruned_coverage(scenario, monkeypatch):
    from repro.stream.engine import AtlasStreamEngine

    def prune_at_chunk_end(self, end_hour):
        # The cutoff without the IPv4 track's last-run-first term.
        keep = self._cov_b >= end_hour
        self._cov_ref, self._cov_a, self._cov_b = (
            self._cov_ref[keep], self._cov_a[keep], self._cov_b[keep]
        )

    with monkeypatch.context() as patch:
        patch.setattr(AtlasStreamEngine, "_prune_coverage", prune_at_chunk_end)
        diffs = stream_diffs(scenario, chunk_hours=(64,), min_probes=2)
    assert diffs
    assert all(
        diff.startswith("chunk_hours=64: ") and "stream diverges from py" in diff
        for diff in diffs
    )
    assert stream_diffs(scenario, chunk_hours=(64,), min_probes=2) == []


def _triples(seed: int = 3, count: int = 400):
    rng = random.Random(seed)
    return sorted(
        (rng.randrange(40), rng.randrange(6) << 8, (0x2001_0DB8 << 32 | rng.randrange(9)) << 64)
        for _ in range(count)
    )


def test_association_diffs_catches_shifted_store_durations(tmp_path, monkeypatch):
    from repro.store import kernels

    original = kernels.merged_duration_histogram

    def one_day_longer(store, block_rows=kernels.DEFAULT_BLOCK_ROWS):
        return np.concatenate(([0], original(store, block_rows=block_rows)))

    triples = _triples()
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "merged_duration_histogram", one_day_longer)
        diffs = association_diffs(triples, tmp_path / "mutated", shards=(1, 4))
    assert "shards=1: analyze_store: durations diverges from the pure-Python oracle" in diffs
    assert all("analyze_store" in diff for diff in diffs)
    assert association_diffs(triples, tmp_path / "clean", shards=(1, 4)) == []


def test_association_diffs_catches_a_v64_only_stream_sort(monkeypatch):
    from repro.core.associations_np import columns_from_triples
    from repro.stream import AssociationStreamEngine, associations

    triples = _triples(seed=5)

    def fold_v4_descending():
        # Each window arrives day-ordered but with a day's /24s in
        # descending order, so only a full (v6, day, v4) sort folds it right.
        engine = AssociationStreamEngine()
        for index in range(40 // 7 + 1):
            rows = [t for t in triples if index * 7 <= t[0] < (index + 1) * 7]
            rows.sort(key=lambda triple: (triple[0], -triple[1]))
            engine.fold_columns(*columns_from_triples(rows), chunk_index=index)
        return engine.finalize()

    with monkeypatch.context() as patch:
        patch.setattr(
            associations,
            "v6_day_v4_order",
            lambda days, v4_keys, v6_keys: np.argsort(v6_keys, kind="stable"),
        )
        diffs = association_diffs(triples, results=(fold_v4_descending(),))
    assert "results[0]: durations diverges from the pure-Python oracle" in diffs
    assert association_diffs(triples, results=(fold_v4_descending(),)) == []


def test_association_diffs_catches_a_hashed_v64_key_order_fault(monkeypatch):
    from repro.core import associations_np

    original = associations_np._hashed_code

    def reversed_groups(keys, bits, kind):
        # Name the hashed groups' keys in the wrong order: only a
        # shuffled feed takes the hashed code, so only that leg diverges.
        hashed = original(keys, bits, kind)
        return None if hashed is None else (hashed[0], hashed[1], hashed[2][::-1])

    rng = random.Random(7)
    # /64 number i meets i + 1 distinct /24s, so every degree differs.
    triples = [
        (rng.randrange(40), rng.randrange(i + 1) << 8, (0x2001_0DB8 << 32 | i) << 64)
        for i in range(9)
        for _ in range(40)
    ]
    with monkeypatch.context() as patch:
        patch.setattr(associations_np, "_hashed_code", reversed_groups)
        diffs = association_diffs(triples)
    assert "in-RAM kernels, shuffled: v6_degrees diverges from the pure-Python oracle" in diffs
    assert all(diff.startswith("in-RAM kernels, shuffled: ") for diff in diffs)
    assert association_diffs(triples) == []


def test_serve_diffs_catches_a_prefix_member_fault(monkeypatch):
    from repro.serve import engine

    scenario = build_atlas_scenario(**SMALL)
    original = engine._prefix_members

    def one_more_change(*args):
        members = original(*args)
        return replace(members, changes=[count + 1 for count in members.changes])

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_prefix_members", one_more_change)
        diffs = serve_diffs(scenario, max_prefixes=1, budget=2)
    assert diffs
    assert all(
        diff.startswith(("StabilityQuery(", "DualStackQuery("))
        and diff.endswith("served result diverges from direct computation")
        for diff in diffs
    )
    assert serve_diffs(scenario, max_prefixes=1, budget=2) == []


def test_atlas_and_stream_diffs_compute_the_oracle_once(monkeypatch):
    import repro.workloads as workloads

    calls = {"report": 0, "periodicity": 0}
    report, periodicity = workloads.analyze_atlas_scenario, workloads.periodicity_for_scenario

    def counted_report(scenario, engine=None):
        calls["report"] += engine == "py"
        return report(scenario, engine=engine)

    def counted_periodicity(scenario, min_probes=3, tolerance=1.0, engine=None):
        calls["periodicity"] += engine == "py"
        return periodicity(scenario, min_probes=min_probes, tolerance=tolerance, engine=engine)

    monkeypatch.setattr(workloads, "analyze_atlas_scenario", counted_report)
    monkeypatch.setattr(workloads, "periodicity_for_scenario", counted_periodicity)
    fresh = build_atlas_scenario(**SMALL)
    assert atlas_diffs(fresh) == []
    assert stream_diffs(fresh, chunk_hours=(100, 2048), min_probes=2) == []
    assert atlas_diffs(fresh, build_atlas_scenario(**SMALL)) == []
    assert calls == {"report": 1, "periodicity": 1}

    # The memo does not outlive its scenario.
    key = id(fresh)
    assert key in verify._ORACLES
    del fresh
    gc.collect()
    assert key not in verify._ORACLES

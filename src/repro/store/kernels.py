"""Out-of-core association/degree/delegation kernels over a triple store.

This is the one batch driver of the Section-5 association analysis: the
:mod:`repro.core.associations_np` kernels run shard by shard and merge
block by merge block, so peak memory tracks the largest *shard*, not
the store:

1. **Per-shard pass** (:func:`shard_partials_to_scratch`, fanned out
   via :func:`repro.perf.parallel.map_store_shards`): memmap one shard
   and drop its degree partials into scratch files.  Because rows are
   sharded by /24, per-/24 degree partials are *complete* (a /24 never
   spans shards) and per-/64 partials count disjoint ``(v6, v4)`` pair
   sets — both merge with a concatenate-and-sort, no re-counting.
2. **Streamed k-way merge** (:func:`merged_duration_histogram`): every
   shard is finalized in :data:`~repro.store.triples.ROW_ORDER`
   ``(v6, day, v4)``, so the memmapped shards are themselves the
   sorted runs, consumed in blocks bounded by a *pivot* — the smallest
   ``v6`` value at any shard's candidate block end.  Taking every row
   with ``v6 <= pivot`` from every shard (a ``searchsorted`` per shard)
   guarantees each block holds only **complete /64 groups**, so the stock
   :func:`~repro.core.associations_np.association_durations_np` kernel
   runs per block with no carry state, and durations accumulate into a
   bounded histogram (days are uint16, so durations fit in <=65537
   buckets).
3. **Reduction**: exact box stats from the histogram
   (:func:`~repro.core.associations_np.box_stats_from_counts`), degree
   arrays from the merged partials, and the Figure-7 trailing-zero
   profile from the global distinct-/64 key set — all bit-identical to
   the pure-Python :mod:`~repro.core.associations` oracle (enforced by
   :func:`repro.perf.verify.store_diffs`).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.associations import BoxStats
from repro.core.associations_np import (
    association_durations_np,
    box_stats_from_counts,
    degree_count_arrays,
)
from repro.core.delegation import TrailingZeroProfile, trailing_zero_profile_np
from repro.obs import get_logger, metric_inc, metric_observe, span
from repro.store.triples import TripleStore

_log = get_logger("store.kernels")

#: Default merge block size (rows per shard per merge step).
DEFAULT_BLOCK_ROWS = 1 << 20

_SCRATCH_DTYPES = {"v4": "<u4", "v6": "<u8", "count": "<i8"}


def _scratch_file(scratch: Path, kind: str, shard: int, column: str) -> Path:
    return scratch / f"{kind}-{shard:04d}.{column}"


def _write_scratch(
    scratch: Path, kind: str, shard: int, column: str, array: np.ndarray
) -> None:
    array.astype(_SCRATCH_DTYPES[column]).tofile(
        _scratch_file(scratch, kind, shard, column)
    )
    metric_inc("store.spill_events")


def _read_scratch(
    scratch: Path, kind: str, shard: int, column: str, rows: int
) -> np.ndarray:
    if rows == 0:
        return np.empty(0, dtype=_SCRATCH_DTYPES[column])
    return np.memmap(
        _scratch_file(scratch, kind, shard, column),
        dtype=_SCRATCH_DTYPES[column],
        mode="r",
        shape=(rows,),
    )


def shard_partials_to_scratch(store: TripleStore, index: int, scratch: str) -> dict:
    """Per-shard pass: /24 and /64 degree partials, written to scratch.

    Runs inside pool workers (module-level, so it pickles by
    reference via :func:`functools.partial`).  Returns only group
    counts — the arrays themselves stay on disk for the parent to
    memmap.
    """
    kernel_start = time.perf_counter()
    scratch_dir = Path(scratch)
    shard = store.shard(index)
    if len(shard) == 0:
        return {"shard": index, "v4_groups": 0, "v6_groups": 0}

    v4_keys, v4_unique, v4_hits = degree_count_arrays(
        np.asarray(shard.v4), np.asarray(shard.v6)
    )
    _write_scratch(scratch_dir, "v4deg", index, "v4", v4_keys)
    _write_scratch(scratch_dir, "v4deg", index, "count", v4_unique)
    _write_scratch(scratch_dir, "v4hit", index, "count", v4_hits)

    v6_keys, v6_unique, _v6_hits = degree_count_arrays(
        np.asarray(shard.v6), np.asarray(shard.v4)
    )
    _write_scratch(scratch_dir, "v6deg", index, "v6", v6_keys)
    _write_scratch(scratch_dir, "v6deg", index, "count", v6_unique)
    metric_observe("store.shard.seconds", time.perf_counter() - kernel_start)
    return {
        "shard": index,
        "v4_groups": len(v4_keys),
        "v6_groups": len(v6_keys),
    }


def merged_duration_histogram(
    store: TripleStore, block_rows: int = DEFAULT_BLOCK_ROWS
) -> np.ndarray:
    """Streamed pivot merge of the shards into a duration histogram.

    ``histogram[d]`` counts association runs lasting exactly ``d`` days.
    The shards are ``(v6, day, v4)``-sorted runs, read through their
    memmaps.  Each merge step picks ``pivot = min`` over active shards
    of the ``v6`` value ``block_rows`` ahead, then drains **all** rows
    with ``v6 <= pivot`` from every shard — at least one row per step
    (the pivot shard's), and never a split /64 group, so the columnar
    duration kernel applies per block unchanged.
    """
    day_max = store.day_max if store.day_max is not None else 0
    histogram = np.zeros(day_max + 2, dtype=np.int64)
    shard_rows = store.shard_rows
    shard_columns = [store.shard(index) for index in range(store.shards)]
    v6_runs = [columns.v6 for columns in shard_columns]
    day_runs = [columns.days for columns in shard_columns]
    v4_runs = [columns.v4 for columns in shard_columns]
    offsets = [0] * len(shard_rows)
    while True:
        active = [s for s in range(len(shard_rows)) if offsets[s] < shard_rows[s]]
        if not active:
            break
        pivot = min(
            v6_runs[s][min(offsets[s] + block_rows, shard_rows[s]) - 1] for s in active
        )
        parts_day: List[np.ndarray] = []
        parts_v4: List[np.ndarray] = []
        parts_v6: List[np.ndarray] = []
        for s in active:
            take = int(
                np.searchsorted(v6_runs[s][offsets[s] :], pivot, side="right")
            )
            if take == 0:
                continue
            stop = offsets[s] + take
            parts_day.append(np.asarray(day_runs[s][offsets[s] : stop]))
            parts_v4.append(np.asarray(v4_runs[s][offsets[s] : stop]))
            parts_v6.append(np.asarray(v6_runs[s][offsets[s] : stop]))
            offsets[s] = stop
        block_days = np.concatenate(parts_day).astype(np.int64)
        block_v4 = np.concatenate(parts_v4)
        block_v6 = np.concatenate(parts_v6)
        durations = association_durations_np(block_days, block_v4, block_v6)
        histogram += np.bincount(durations, minlength=len(histogram))
        metric_inc("store.merge_blocks")
    return histogram


def _merge_v4_partials(
    scratch: Path, results: List[dict]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-shard /24 partials — /24 key sets are disjoint."""
    keys: List[np.ndarray] = []
    unique: List[np.ndarray] = []
    hits: List[np.ndarray] = []
    for meta in results:
        groups = meta["v4_groups"]
        if not groups:
            continue
        keys.append(np.asarray(_read_scratch(scratch, "v4deg", meta["shard"], "v4", groups)))
        unique.append(
            np.asarray(_read_scratch(scratch, "v4deg", meta["shard"], "count", groups))
        )
        hits.append(
            np.asarray(_read_scratch(scratch, "v4hit", meta["shard"], "count", groups))
        )
    if not keys:
        empty = np.empty(0, dtype=np.uint32)
        return empty, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    all_keys = np.concatenate(keys)
    order = np.argsort(all_keys)
    return all_keys[order], np.concatenate(unique)[order], np.concatenate(hits)[order]


def _merge_v6_partials(
    scratch: Path, results: List[dict]
) -> Tuple[np.ndarray, np.ndarray]:
    """Sum per-shard /64 partials by key.

    A /64 appears in several shards only when it associated with /24s
    living in different shards; those shards count *disjoint* distinct-
    /24 sets, so summing the partials per key is exact.
    """
    keys: List[np.ndarray] = []
    unique: List[np.ndarray] = []
    for meta in results:
        groups = meta["v6_groups"]
        if not groups:
            continue
        keys.append(np.asarray(_read_scratch(scratch, "v6deg", meta["shard"], "v6", groups)))
        unique.append(
            np.asarray(_read_scratch(scratch, "v6deg", meta["shard"], "count", groups))
        )
    if not keys:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    all_keys = np.concatenate(keys)
    all_unique = np.concatenate(unique)
    order = np.argsort(all_keys, kind="stable")
    sorted_keys = all_keys[order]
    sorted_unique = all_unique[order]
    new_key = np.empty(len(sorted_keys), dtype=bool)
    new_key[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_key[1:])
    starts = np.flatnonzero(new_key)
    return sorted_keys[starts], np.add.reduceat(sorted_unique, starts)


@dataclass
class StoreAnalysis:
    """Section-5 artifacts computed out-of-core from a triple store."""

    total_triples: int
    shards: int
    #: duration (days) -> run count; only non-zero buckets.
    duration_counts: Dict[int, int]
    box: Optional[BoxStats]
    v4_keys: np.ndarray
    v4_unique: np.ndarray
    v4_hits: np.ndarray
    v6_keys: np.ndarray  # packed upper-64-bit /64 keys
    v6_unique: np.ndarray
    fraction_v6_degree_one: float
    delegation: TrailingZeroProfile

    @property
    def duration_count(self) -> int:
        return sum(self.duration_counts.values())

    def v4_degree_dicts(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """``(unique, hits)`` dicts matching ``v4_degree_counts``."""
        keys = [int(k) for k in self.v4_keys]
        return (
            dict(zip(keys, (int(c) for c in self.v4_unique))),
            dict(zip(keys, (int(c) for c in self.v4_hits))),
        )

    def v6_degree_dict(self) -> Dict[int, int]:
        """Full-128-bit-keyed dict matching ``v6_degree_counts``."""
        return {
            int(k) << 64: int(c) for k, c in zip(self.v6_keys, self.v6_unique)
        }

    def summary(self) -> dict:
        """JSON-friendly digest (CLI output / bench payloads)."""
        return {
            "total_triples": self.total_triples,
            "shards": self.shards,
            "associations": self.duration_count,
            "box": None
            if self.box is None
            else {
                "p5": self.box.p5,
                "q1": self.box.q1,
                "median": self.box.median,
                "q3": self.box.q3,
                "p95": self.box.p95,
                "count": self.box.count,
            },
            "distinct_v4": len(self.v4_keys),
            "distinct_v6": len(self.v6_keys),
            "fraction_v6_degree_one": self.fraction_v6_degree_one,
            "delegation": {
                "total": self.delegation.total,
                "inferable_pct": self.delegation.inferable_pct,
                "by_boundary": {
                    str(k): v for k, v in self.delegation.by_boundary.items()
                },
            },
        }


def analyze_store(
    store: TripleStore,
    workers: Optional[int] = None,
    scratch_dir=None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> StoreAnalysis:
    """Compute all Section-5 store artifacts shard-by-shard out-of-core.

    ``scratch_dir`` (default: a fresh temp directory, removed on exit)
    holds the per-shard degree partials.  ``workers`` fans
    the per-shard pass out via
    :func:`repro.perf.parallel.map_store_shards`.
    """
    from repro.perf.parallel import map_store_shards

    own_scratch = scratch_dir is None
    scratch = Path(tempfile.mkdtemp(prefix="repro-store-")) if own_scratch else Path(scratch_dir)
    if not own_scratch:
        scratch.mkdir(parents=True, exist_ok=True)
    try:
        with span("store/analyze", shards=store.shards, rows=store.total_triples):
            task = partial(shard_partials_to_scratch, scratch=str(scratch))
            results = map_store_shards(task, store, workers=workers, scratch=scratch)
            results.sort(key=lambda meta: meta["shard"])
            histogram = merged_duration_histogram(store, block_rows=block_rows)
            durations = np.flatnonzero(histogram)
            box = box_stats_from_counts(durations, histogram[durations], empty_ok=True)
            duration_counts = {
                int(d): int(histogram[d]) for d in durations
            }

            v4_keys, v4_unique, v4_hits = _merge_v4_partials(scratch, results)
            v6_keys, v6_unique = _merge_v6_partials(scratch, results)
            fraction_one = (
                int(np.count_nonzero(v6_unique == 1)) / len(v6_unique)
                if len(v6_unique)
                else 0.0
            )
            delegation = trailing_zero_profile_np(v6_keys)
        _log.info(
            "store analyzed",
            extra={
                "rows": store.total_triples,
                "shards": store.shards,
                "associations": int(histogram.sum()),
            },
        )
        return StoreAnalysis(
            total_triples=store.total_triples,
            shards=store.shards,
            duration_counts=duration_counts,
            box=box,
            v4_keys=v4_keys,
            v4_unique=v4_unique,
            v4_hits=v4_hits,
            v6_keys=v6_keys,
            v6_unique=v6_unique,
            fraction_v6_degree_one=fraction_one,
            delegation=delegation,
        )
    finally:
        if own_scratch:
            shutil.rmtree(scratch, ignore_errors=True)


__all__ = [
    "DEFAULT_BLOCK_ROWS",
    "StoreAnalysis",
    "analyze_store",
    "merged_duration_histogram",
    "shard_partials_to_scratch",
]

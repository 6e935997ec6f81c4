"""Incremental CDN association analysis over the day windows of a triple store.

Mirrors :mod:`repro.core.associations` exactly: per-/64 association runs
(a run ends when the reported /24 changes), the Figure 3 five-number
summary over run durations, and the Figure 4 degree structures.  Each
window is scanned ``(v6, day, v4)`` — the batch scan order — and one
open run per /64 carries across windows, so the artifacts are
bit-identical to the batch ones.  The state is columnar (see
:data:`_STATE_ARRAYS`) and every window folds in NumPy only.  Every
stream folds off a :class:`repro.store.TripleStore`; a CSV feed spills
into a scratch store first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.associations import BoxStats
from repro.core.associations_np import box_stats_from_counts, v6_day_v4_order

#: Version of the association engine's checkpoint payload layout.
STATE_VERSION = 2

#: Columnar state (attribute ``_<name>`` -> dtype): open runs as parallel
#: arrays sorted by packed /64 with a stable first-seen id6 (every /64 seen
#: has one), a closed-run duration histogram (index = days), sorted /24
#: keys with stable id4s and hit counts, and the distinct (/64, /24) pair
#: set as sorted ``id6 << 32 | id4`` codes (degrees are its bincounts).
_STATE_ARRAYS = {
    "run_v6": np.uint64,
    "run_id6": np.int64,
    "run_v4": np.uint64,
    "run_start": np.int64,
    "run_last": np.int64,
    "durations": np.int64,
    "v4_keys": np.uint64,
    "v4_ids": np.int64,
    "v4_hits": np.int64,
    "pairs": np.uint64,
}

_ID_LIMIT = 1 << 32  # stable ids share one uint64 pair code
_32, _LOW32 = np.uint64(32), np.uint64(0xFFFFFFFF)


@dataclass
class AssociationStreamResult:
    """Everything a finished association streaming pass produces."""

    durations: Counter  # duration (days) -> count
    box: Optional[BoxStats]  # None when no triples were seen
    v4_unique: Dict[int, int]  # /24 -> distinct /64s
    v4_hits: Dict[int, int]  # /24 -> total reports
    v6_degrees: Dict[int, int]  # /64 -> distinct /24s
    fraction_v6_degree_one: float
    triples_seen: int
    chunks_folded: int


def _histogram_add(histogram: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """``histogram`` with ``durations`` counted in (grown as needed)."""
    if not len(durations):
        return histogram
    counts = np.bincount(durations)
    if len(counts) > len(histogram):
        counts[: len(histogram)] += histogram
        return counts
    histogram[: len(counts)] += counts
    return histogram


def _join(sorted_keys: np.ndarray, keys: np.ndarray):
    """``(positions, found)`` of ``keys`` in ``sorted_keys`` (searchsorted)."""
    positions = np.searchsorted(sorted_keys, keys)
    found = positions < len(sorted_keys)
    found[found] = sorted_keys[positions[found]] == keys[found]
    return positions, found


class AssociationStreamEngine:
    """Foldable, checkpointable equivalent of the Section 4 analyses."""

    def __init__(self) -> None:
        self._next_chunk = 0
        self._triples_seen = 0
        for name, dtype in _STATE_ARRAYS.items():
            setattr(self, f"_{name}", np.empty(0, dtype=dtype))

    @property
    def next_chunk(self) -> int:
        return self._next_chunk

    @property
    def triples_seen(self) -> int:
        return self._triples_seen

    def fold_columns(self, days, v4_keys, v6_keys, chunk_index: Optional[int] = None) -> None:
        """Fold one day-window given as columnar arrays, in any row order.

        ``v6_keys`` are packed upper-64-bit /64 keys (the triple-store
        layout).  Rows sort to ``(v6, day, v4)`` and collapse into
        segments of one (/64, /24); each /64's first segment joins its
        open run, every segment but the last closes, and the last
        becomes the new open run.  No python loop runs per row, /64 or
        pair.
        """
        days, v4_keys, v6_keys = (np.asarray(c) for c in (days, v4_keys, v6_keys))
        n = len(days)
        if n != len(v4_keys) or n != len(v6_keys):
            raise ValueError("column arrays must have equal length")
        if chunk_index is not None:
            self._next_chunk = chunk_index + 1
        if n == 0:
            return
        order = v6_day_v4_order(days, v4_keys, v6_keys)
        day = days[order].astype(np.int64)
        v4 = v4_keys[order].astype(np.uint64)
        v6 = v6_keys[order].astype(np.uint64)

        new_v6 = np.empty(n, dtype=bool)
        new_v6[0] = True
        np.not_equal(v6[1:], v6[:-1], out=new_v6[1:])
        new_seg = new_v6.copy()
        new_seg[1:] |= v4[1:] != v4[:-1]
        seg_rows = np.flatnonzero(new_seg)
        seg_v4 = v4[seg_rows]
        seg_first = day[seg_rows]
        seg_last = day[np.append(seg_rows[1:], n) - 1]
        group_of_seg = np.cumsum(new_v6[seg_rows]) - 1
        group_first = np.flatnonzero(new_v6[seg_rows])
        group_last = np.append(group_first[1:], len(seg_rows)) - 1
        group_v6 = v6[seg_rows[group_first]]

        # Carry: a /64's open run continues into its first segment when
        # the /24 is unchanged, and closes at its old extent otherwise.
        runs, seen = _join(self._run_v6, group_v6)
        hit = runs[seen]
        continues = self._run_v4[hit] == seg_v4[group_first[seen]]
        seg_start = seg_first.copy()
        seg_start[group_first[seen][continues]] = self._run_start[hit[continues]]
        closing = np.ones(len(seg_rows), dtype=bool)
        closing[group_last] = False
        self._durations = _histogram_add(self._durations, np.concatenate((
            (self._run_last[hit] - self._run_start[hit] + 1)[~continues],
            (seg_last - seg_start + 1)[closing],
        )))
        last = group_last[seen]
        self._run_v4[hit] = seg_v4[last]
        self._run_start[hit] = seg_start[last]
        self._run_last[hit] = seg_last[last]
        fresh = ~seen
        group_id6 = np.empty(len(group_v6), dtype=np.int64)
        group_id6[seen] = self._run_id6[hit]
        group_id6[fresh] = len(self._run_v6) + np.arange(np.count_nonzero(fresh))
        if fresh.any():
            at, last = runs[fresh], group_last[fresh]
            self._run_v6 = np.insert(self._run_v6, at, group_v6[fresh])
            self._run_id6 = np.insert(self._run_id6, at, group_id6[fresh])
            self._run_v4 = np.insert(self._run_v4, at, seg_v4[last])
            self._run_start = np.insert(self._run_start, at, seg_start[last])
            self._run_last = np.insert(self._run_last, at, seg_last[last])

        # /24 hits, summed per segment, then joined to the sorted keys.
        window_v4, seg_slot = np.unique(seg_v4, return_inverse=True)
        window_hits = np.zeros(len(window_v4), dtype=np.int64)
        np.add.at(window_hits, seg_slot, np.diff(np.append(seg_rows, n)))
        slots, known = _join(self._v4_keys, window_v4)
        self._v4_hits[slots[known]] += window_hits[known]
        window_id4 = np.empty(len(window_v4), dtype=np.int64)
        window_id4[known] = self._v4_ids[slots[known]]
        unknown = ~known
        window_id4[unknown] = len(self._v4_keys) + np.arange(np.count_nonzero(unknown))
        if unknown.any():
            at = slots[unknown]
            self._v4_keys = np.insert(self._v4_keys, at, window_v4[unknown])
            self._v4_ids = np.insert(self._v4_ids, at, window_id4[unknown])
            self._v4_hits = np.insert(self._v4_hits, at, window_hits[unknown])
        if len(self._run_v6) > _ID_LIMIT or len(self._v4_keys) > _ID_LIMIT:
            raise OverflowError("association stream exceeds 2**32 distinct keys")

        # Distinct (/64, /24) pairs merge into the sorted pair set.
        # (A sort beats np.unique here: its hash path is ~20x slower on uint64.)
        codes = np.sort((group_id6[group_of_seg].astype(np.uint64) << _32)
                        | window_id4[seg_slot].astype(np.uint64))
        codes = codes[np.append(True, codes[1:] != codes[:-1])]
        slots, present = _join(self._pairs, codes)
        if not present.all():
            self._pairs = np.insert(self._pairs, slots[~present], codes[~present])
        self._triples_seen += n

    def state_dict(self) -> dict:
        """Snapshot of the state; owns copies, so later folds never alter it."""
        state = {name: getattr(self, f"_{name}").copy() for name in _STATE_ARRAYS}
        state.update(state_version=STATE_VERSION, next_chunk=self._next_chunk,
                     triples_seen=self._triples_seen)
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(f"unsupported association state version {version!r}")
        self._next_chunk = state["next_chunk"]
        self._triples_seen = state["triples_seen"]
        for name, dtype in _STATE_ARRAYS.items():
            setattr(self, f"_{name}", np.array(state[name], dtype=dtype))

    def finalize(self, chunks_folded: int = 0) -> AssociationStreamResult:
        """Close every open run and assemble the batch-identical artifacts.

        State is left untouched, so the pass can be extended afterwards.
        """
        histogram = _histogram_add(self._durations.copy(), self._run_last - self._run_start + 1)
        values = np.flatnonzero(histogram)
        counts = histogram[values]
        v6_by_id = np.empty(len(self._run_v6), dtype=np.uint64)
        v6_by_id[self._run_id6] = self._run_v6
        v6_degree = np.bincount((self._pairs >> _32).astype(np.int64), minlength=len(v6_by_id))
        v4_degree = np.bincount((self._pairs & _LOW32).astype(np.int64),
                                minlength=len(self._v4_keys))
        v4_keys = self._v4_keys.tolist()
        return AssociationStreamResult(
            durations=Counter(dict(zip(values.tolist(), counts.tolist()))),
            box=box_stats_from_counts(values, counts, empty_ok=True),
            v4_unique=dict(zip(v4_keys, v4_degree[self._v4_ids].tolist())),
            v4_hits=dict(zip(v4_keys, self._v4_hits.tolist())),
            v6_degrees={key << 64: d for key, d in zip(v6_by_id.tolist(), v6_degree.tolist())},
            fraction_v6_degree_one=(
                int(np.count_nonzero(v6_degree == 1)) / len(v6_degree)
                if len(v6_degree) else 0.0
            ),
            triples_seen=self._triples_seen,
            chunks_folded=chunks_folded,
        )


def run_association_stream_over_store(
    triple_store,
    chunk_days: int,
    store=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after_chunks: Optional[int] = None,
    min_days: int = 0,
) -> Optional[AssociationStreamResult]:
    """Stream a sharded triple store through an :class:`AssociationStreamEngine`.

    Day windows ``[k*chunk_days, (k+1)*chunk_days)``, empty ones
    included, come straight off the shards, mapped once for the pass
    (:meth:`repro.store.TripleStore.iter_day_windows`), so neither the
    triples nor any per-row python objects ever materialize.  Same
    driver contract as :func:`repro.stream.engine.run_atlas_stream`:
    checkpoints every ``checkpoint_every`` windows when ``store`` is
    given, keyed by the triple store's content digest, resumes from the
    latest matching checkpoint, and returns ``None`` when
    ``stop_after_chunks`` aborts the pass.
    """
    if chunk_days < 1:
        raise ValueError("chunk_days must be >= 1")
    key = None
    if store is not None:
        key = store.key("association-stream", triple_store.digest(), {"chunk_days": chunk_days})
    last_day = triple_store.day_max if triple_store.day_max is not None else 0
    min_chunks = max(1, -(-min_days // chunk_days)) if min_days else 1
    total_chunks = max(last_day // chunk_days + 1, min_chunks)

    engine = AssociationStreamEngine()
    if store is not None and resume:
        state = store.load("association-stream", key)
        if state is not None:
            engine.load_state(state)
    folded = 0
    for index, days, v4_keys, v6_keys in triple_store.iter_day_windows(
        chunk_days, engine.next_chunk, total_chunks
    ):
        engine.fold_columns(days, v4_keys, v6_keys, chunk_index=index)
        folded += 1
        at_checkpoint = store is not None and checkpoint_every and folded % checkpoint_every == 0
        if at_checkpoint:
            store.save("association-stream", key, engine.state_dict())
        if stop_after_chunks is not None and folded >= stop_after_chunks:
            if store is not None and not at_checkpoint:
                store.save("association-stream", key, engine.state_dict())
            return None
    result = engine.finalize(chunks_folded=folded)
    if store is not None:
        store.save("association-stream", key, engine.state_dict())
    return result


__all__ = [
    "STATE_VERSION",
    "AssociationStreamEngine",
    "AssociationStreamResult",
    "run_association_stream_over_store",
]

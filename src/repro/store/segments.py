"""Parallel segment writers and k-way compaction for triple stores.

The serial :class:`~repro.store.triples.TripleStoreWriter` appends every
chunk to every shard in one process, so at paper scale ingest — not
analysis — dominates wall clock.  This module parallelizes the build
the way the CDN-log literature does (partitioned ingest, deterministic
merge):

1. **Segment write** (:func:`write_segment`, fanned out via
   :func:`repro.perf.parallel.map_units`): the input column stream
   is re-chunked into ~``segment_rows``-row slabs and each worker
   shard-scatters its slab into a private *segment* directory — the
   same ``shard-NNNN.<column>`` file layout as a store, per-shard
   checksums in a ``segment.json`` seal, but rows unsorted and no store
   manifest, so a half-written segment can never masquerade as data.
2. **Compaction** (:func:`compact_stores` /
   :func:`parallel_build_store`): one pass per *output* shard gathers
   that shard's rows from every source (segments or finalized stores),
   k-way merges them through the canonical ``(v6, day, v4)`` lexsort of
   :func:`repro.store.triples.write_shard_columns`, and checksums the
   sorted columns in memory.  Because the serial writer finalizes
   through the same sort-and-write primitive, a parallel build compacts
   to a **byte-identical** store — same :meth:`TripleStore.digest` — as
   a serial build of the same input, which is what keeps
   digest-addressed streaming checkpoints valid across build modes.

The same compaction entry point merges multiple finalized stores
(incremental append-then-compact) and re-shards when the source and
target shard counts differ, re-hashing each row with
:func:`~repro.store.triples.shard_of_v4`.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import get_logger, metric_inc, span
from repro.store.triples import (
    COLUMN_DTYPES,
    COLUMNS,
    StoreCorruptError,
    TripleStore,
    _checksum_of_arrays,
    _shard_file,
    normalize_columns,
    shard_of_v4,
    write_shard_columns,
    write_store_manifest,
)

_log = get_logger("store.segments")

SEGMENT_FORMAT = "repro-triple-segment"
SEGMENT_FORMAT_VERSION = 1

SEGMENT_MANIFEST_NAME = "segment.json"

#: Rows per segment slab handed to one worker (~56 MiB of pickled
#: columns at 14 bytes/row — big enough to amortize IPC, small enough
#: that a handful of in-flight slabs stay comfortably in RAM).
DEFAULT_SEGMENT_ROWS = 1 << 22


@dataclass(frozen=True)
class ShardSource:
    """One sealed shard-file directory feeding a compaction pass.

    Both finalized stores and sealed segments qualify — they share the
    ``shard-NNNN.<column>`` layout, which is what lets one merge core
    serve parallel builds and incremental store merges alike.  Plain
    data, so it pickles cheaply into pool workers.
    """

    directory: str
    shards: int
    shard_rows: Tuple[int, ...]


def write_segment(
    directory, days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray,
    shards: int,
) -> dict:
    """Shard-scatter one column slab into a sealed segment directory.

    Rows are written **unsorted** (compaction owns the canonical sort),
    one scatter pass like the serial writer's ``append_columns``.  The
    ``segment.json`` seal — format, per-shard row counts and per-shard
    checksums — is written atomically last, so torn segments are
    detectable.  Returns the seal metadata.
    """
    directory = Path(directory).expanduser()
    day_col, v4_col, v6_col = normalize_columns(days, v4_keys, v6_keys)
    directory.mkdir(parents=True)
    shard_rows = [0] * shards
    checksums = [""] * shards
    empty = (
        np.empty(0, dtype=np.uint16),
        np.empty(0, dtype=np.uint32),
        np.empty(0, dtype=np.uint64),
    )
    scattered = {}
    if len(day_col):
        shard_ids = shard_of_v4(v4_col, shards)
        order = np.argsort(shard_ids, kind="stable")
        sorted_ids = shard_ids[order]
        present, starts = np.unique(sorted_ids, return_index=True)
        bounds = np.append(starts, len(sorted_ids))
        for position, shard in enumerate(present):
            select = order[bounds[position] : bounds[position + 1]]
            scattered[int(shard)] = (
                day_col[select], v4_col[select], v6_col[select]
            )
    for shard in range(shards):
        shard_days, shard_v4, shard_v6 = scattered.get(shard, empty)
        for column, array in (
            ("day", shard_days), ("v4", shard_v4), ("v6", shard_v6)
        ):
            array.tofile(_shard_file(directory, shard, column))
        shard_rows[shard] = len(shard_days)
        checksums[shard] = _checksum_of_arrays(shard_days, shard_v4, shard_v6)
    seal = {
        "format": SEGMENT_FORMAT,
        "version": SEGMENT_FORMAT_VERSION,
        "shards": int(shards),
        "dtypes": dict(COLUMN_DTYPES),
        "shard_rows": shard_rows,
        "shard_checksums": checksums,
        "rows": len(day_col),
    }
    temp = directory / f"{SEGMENT_MANIFEST_NAME}.tmp{os.getpid()}"
    temp.write_text(json.dumps(seal, sort_keys=True, indent=1) + "\n")
    os.replace(temp, directory / SEGMENT_MANIFEST_NAME)
    metric_inc("store.segments_written")
    metric_inc("store.segment_rows", value=len(day_col))
    return seal


def load_segment(directory, verify: bool = False) -> ShardSource:
    """Open a sealed segment as a compaction source, validating it.

    Structural checks (seal shape, file sizes vs recorded row counts)
    always run; ``verify=True`` additionally re-hashes every shard
    against the seal checksums.  Raises :class:`StoreCorruptError` on
    any damage — an unsealed or torn segment never feeds a merge.
    """
    directory = Path(directory).expanduser()
    seal_path = directory / SEGMENT_MANIFEST_NAME
    try:
        seal = json.loads(seal_path.read_text())
    except FileNotFoundError as exc:
        raise StoreCorruptError(f"no segment seal in {directory}") from exc
    except (OSError, ValueError) as exc:
        raise StoreCorruptError(
            f"unreadable segment seal in {directory}: {exc}"
        ) from exc
    try:
        if seal["format"] != SEGMENT_FORMAT:
            raise StoreCorruptError(f"not a {SEGMENT_FORMAT} directory: {directory}")
        if seal["version"] != SEGMENT_FORMAT_VERSION:
            raise StoreCorruptError(
                f"unsupported segment version {seal['version']!r}"
            )
        shards = int(seal["shards"])
        rows = [int(count) for count in seal["shard_rows"]]
        checksums = list(seal["shard_checksums"])
        if shards < 1 or len(rows) != shards or len(checksums) != shards:
            raise StoreCorruptError("segment seal shard bookkeeping inconsistent")
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreCorruptError(
            f"malformed segment seal in {directory}: {exc}"
        ) from exc
    for shard in range(shards):
        for column in COLUMNS:
            path = _shard_file(directory, shard, column)
            expected = rows[shard] * np.dtype(COLUMN_DTYPES[column]).itemsize
            try:
                actual = path.stat().st_size
            except FileNotFoundError as exc:
                raise StoreCorruptError(
                    f"missing segment shard file {path.name}"
                ) from exc
            if actual != expected:
                raise StoreCorruptError(
                    f"{path.name}: {actual} bytes on disk, seal says {expected}"
                )
    if verify:
        source = ShardSource(str(directory), shards, tuple(rows))
        for shard in range(shards):
            days, v4, v6 = _read_source_shard(source, shard)
            if _checksum_of_arrays(days, v4, v6) != checksums[shard]:
                raise StoreCorruptError(
                    f"segment shard {shard} checksum mismatch"
                )
    return ShardSource(str(directory), shards, tuple(rows))


# ---------------------------------------------------------------------------
# Compaction: k-way merge of shard sources into a finalized store
# ---------------------------------------------------------------------------


def _read_source_shard(
    source: ShardSource, shard: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One source shard's columns, read fully into RAM."""
    rows = source.shard_rows[shard]
    if rows == 0:
        return (
            np.empty(0, dtype=np.uint16),
            np.empty(0, dtype=np.uint32),
            np.empty(0, dtype=np.uint64),
        )
    directory = Path(source.directory)
    columns = {
        column: np.fromfile(
            _shard_file(directory, shard, column), dtype=COLUMN_DTYPES[column]
        )
        for column in COLUMNS
    }
    return columns["day"], columns["v4"], columns["v6"]


def compact_shard(
    index: int,
    sources: Sequence[ShardSource],
    out_shards: int,
    out_directory: str,
) -> dict:
    """Merge one output shard from every source and write it canonically.

    Sources whose shard count matches the target contribute their
    ``index``-th shard directly (the hash assignment is identical);
    mismatched sources are re-hashed row-by-row with
    :func:`shard_of_v4`.  The gathered rows go through the same
    sort-and-write primitive as the serial writer's finalize, so the
    output bytes depend only on the merged row multiset.  Runs inside
    pool workers (module-level, pickles by reference).
    """
    parts_day: List[np.ndarray] = []
    parts_v4: List[np.ndarray] = []
    parts_v6: List[np.ndarray] = []
    for source in sources:
        if source.shards == out_shards:
            days, v4, v6 = _read_source_shard(source, index)
            if len(days):
                parts_day.append(days)
                parts_v4.append(v4)
                parts_v6.append(v6)
            continue
        for shard in range(source.shards):
            days, v4, v6 = _read_source_shard(source, shard)
            if not len(days):
                continue
            mask = shard_of_v4(v4, out_shards) == index
            if mask.any():
                parts_day.append(days[mask])
                parts_v4.append(v4[mask])
                parts_v6.append(v6[mask])
    if parts_day:
        days = np.concatenate(parts_day)
        v4 = np.concatenate(parts_v4)
        v6 = np.concatenate(parts_v6)
    else:
        days = np.empty(0, dtype=np.uint16)
        v4 = np.empty(0, dtype=np.uint32)
        v6 = np.empty(0, dtype=np.uint64)
    checksum = write_shard_columns(Path(out_directory), index, days, v4, v6)
    metric_inc("store.compact_merges")
    metric_inc("store.compact_rows", value=len(days))
    return {
        "shard": index,
        "rows": len(days),
        "checksum": checksum,
        "day_min": int(days.min()) if len(days) else None,
        "day_max": int(days.max()) if len(days) else None,
    }


def compact_sources(
    sources: Sequence[ShardSource],
    directory,
    shards: int,
    workers: Optional[int] = None,
    source: Optional[dict] = None,
) -> TripleStore:
    """K-way merge shard sources into a new finalized store directory.

    Fans :func:`compact_shard` out over the output shards via
    :func:`repro.perf.parallel.map_units` (each merge is
    independent), then writes the store manifest from the per-shard
    results.  The output directory must not exist yet — like the serial
    writer, a killed compaction leaves no manifest and therefore no
    openable store.
    """
    from repro.perf.parallel import map_units

    directory = Path(directory).expanduser()
    if directory.exists():
        raise FileExistsError(f"store directory already exists: {directory}")
    directory.mkdir(parents=True)
    with span("store/compact", sources=len(sources), shards=shards):
        task = partial(
            compact_shard,
            sources=tuple(sources),
            out_shards=shards,
            out_directory=str(directory),
        )
        results = list(
            map_units(task, range(shards), kind="store_compact", workers=workers)
        )
    day_mins = [meta["day_min"] for meta in results if meta["day_min"] is not None]
    day_maxs = [meta["day_max"] for meta in results if meta["day_max"] is not None]
    write_store_manifest(
        directory,
        shards,
        [meta["rows"] for meta in results],
        [meta["checksum"] for meta in results],
        sum(meta["rows"] for meta in results),
        min(day_mins) if day_mins else None,
        max(day_maxs) if day_maxs else None,
        source,
    )
    _log.info(
        "store compacted",
        extra={
            "dir": str(directory),
            "sources": len(sources),
            "rows": sum(meta["rows"] for meta in results),
        },
    )
    return TripleStore.open(directory)


def compact_stores(
    stores: Sequence[Union[TripleStore, str, Path]],
    directory,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    source: Optional[dict] = None,
) -> TripleStore:
    """Merge finalized stores into one — the incremental-append workflow.

    ``stores`` are open :class:`TripleStore` instances or directory
    paths; ``shards`` defaults to the first store's count (pass a
    different count to re-shard while merging).  Because every build
    path finalizes in canonical row order, compacting stores built from
    input halves is bit-identical — same :meth:`TripleStore.digest` —
    to a single-pass build over the concatenated input.
    """
    opened = [
        store if isinstance(store, TripleStore) else TripleStore.open(store)
        for store in stores
    ]
    if not opened:
        raise ValueError("compact_stores needs at least one store")
    out_shards = int(shards) if shards is not None else opened[0].shards
    if out_shards < 1:
        raise ValueError(f"shards must be >= 1, got {out_shards}")
    sources = [
        ShardSource(str(store.directory), store.shards, tuple(store.shard_rows))
        for store in opened
    ]
    return compact_sources(
        sources, directory, out_shards, workers=workers, source=source
    )


# ---------------------------------------------------------------------------
# Parallel build: stream -> segment writers -> compaction
# ---------------------------------------------------------------------------


def _write_segment_unit(unit, base: str, shards: int) -> dict:
    """Pool task: write slab ``unit`` as segment ``index`` under ``base``."""
    index, days, v4_keys, v6_keys = unit
    directory = Path(base) / f"segment-{index:04d}"
    seal = write_segment(directory, days, v4_keys, v6_keys, shards)
    return {"directory": str(directory), "shard_rows": seal["shard_rows"]}


def _slab_units(
    batches: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    segment_rows: int,
) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Re-chunk a column-batch stream into ~``segment_rows``-row slabs.

    Validates and narrows each batch parent-side (so workers never see
    malformed input and the pickled slabs carry the compact on-disk
    dtypes), then accumulates until a slab is full.  Yields
    ``(index, days, v4, v6)`` units for :func:`_write_segment_unit`.
    """
    buffer: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    buffered = 0
    index = 0
    for days, v4_keys, v6_keys in batches:
        columns = normalize_columns(days, v4_keys, v6_keys)
        if not len(columns[0]):
            continue
        buffer.append(columns)
        buffered += len(columns[0])
        if buffered >= segment_rows:
            yield (
                index,
                np.concatenate([part[0] for part in buffer]),
                np.concatenate([part[1] for part in buffer]),
                np.concatenate([part[2] for part in buffer]),
            )
            index += 1
            buffer = []
            buffered = 0
    if buffer:
        yield (
            index,
            np.concatenate([part[0] for part in buffer]),
            np.concatenate([part[1] for part in buffer]),
            np.concatenate([part[2] for part in buffer]),
        )


def parallel_build_store(
    batches: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    directory,
    shards: int = 16,
    workers: Optional[int] = None,
    segment_rows: Optional[int] = None,
    source: Optional[dict] = None,
) -> TripleStore:
    """Segment-writer fan-out + compaction build from columnar batches.

    The input stream is re-chunked into ``segment_rows``-row slabs and
    fanned out to segment writers (bounded in-flight, so generation
    overlaps writing); the sealed segments are then k-way compacted per
    shard into the finalized store and the staging directory is
    removed.  Always runs the segment pipeline — with one effective
    worker both stages simply execute serially — and compacts to the
    byte-identical store a serial ``build_store_from_columns`` of the
    same input would produce.
    """
    directory = Path(directory).expanduser()
    if directory.exists():
        raise FileExistsError(f"store directory already exists: {directory}")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    rows_per_segment = (
        int(segment_rows) if segment_rows is not None else DEFAULT_SEGMENT_ROWS
    )
    if rows_per_segment < 1:
        raise ValueError(f"segment_rows must be >= 1, got {rows_per_segment}")
    from repro.perf.parallel import map_units

    directory.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(
        tempfile.mkdtemp(
            prefix=f".{directory.name}-segments-", dir=directory.parent
        )
    )
    try:
        with span("store/parallel_build", shards=shards):
            task = partial(_write_segment_unit, base=str(staging), shards=shards)
            metas = list(
                map_units(
                    task,
                    _slab_units(batches, rows_per_segment),
                    workers=workers,
                    kind="store_segment",
                )
            )
            sources = [
                ShardSource(
                    meta["directory"], shards, tuple(meta["shard_rows"])
                )
                for meta in metas
            ]
            _log.debug(
                "segments written, compacting",
                extra={"segments": len(sources), "shards": shards},
            )
            return compact_sources(
                sources, directory, shards, workers=workers, source=source
            )
    finally:
        shutil.rmtree(staging, ignore_errors=True)


__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "SEGMENT_FORMAT",
    "SEGMENT_FORMAT_VERSION",
    "SEGMENT_MANIFEST_NAME",
    "ShardSource",
    "compact_shard",
    "compact_sources",
    "compact_stores",
    "load_segment",
    "parallel_build_store",
    "write_segment",
]

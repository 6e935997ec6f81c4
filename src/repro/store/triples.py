"""Sharded, memory-mapped columnar store for CDN association triples.

The paper's CDN feed is 32.7B ``(day, v4 /24, v6 /64)`` tuples — far
beyond what a list of python triples can hold.  This
module persists a triple population as struct-of-arrays column shards:

* ``day``  — ``uint16`` (the paper's windows are months, not decades);
* ``v4``   — ``uint32`` /24 network address;
* ``v6``   — ``uint64`` *upper 64 bits* of the /64 network address
  (a bijection for /64s, the packing of
  :func:`repro.core.associations_np.columns_from_triples`).

Rows are **hash-sharded by the /24 key** (multiplicative hashing), so
every report about one /24 lands in exactly one shard — the property
that makes the per-/24 degree kernels embarrassingly shard-local and
keeps per-/64 state mergeable (a /64 only spans shards when it
associated with /24s in different shards, i.e. when its degree > 1).

Each shard is three raw little-endian column files next to a
``manifest.json`` naming the format version, per-shard row counts and
per-shard SHA-256 checksums — the same content-addressing discipline as
:class:`repro.stream.checkpoint.CheckpointStore`: a truncated, corrupt
or stale store is *detected* at open (size check always, checksums via
``verify=True``) and :func:`load_triple_store` deletes it and reports a
miss so the caller rebuilds instead of silently analyzing garbage.

There is one build path.  :class:`TripleStoreWriter` scatters rows into
per-shard spill files; :func:`compact_shard` then finalizes each shard
— read, sort into :data:`ROW_ORDER`, checksum, write — fanned out over
the shard indices by :func:`repro.perf.parallel.map_units`, so workers
receive a shard index and a :class:`ShardSource`, never column arrays.
Merging finalized stores (:func:`compact_stores`, incremental
append-then-compact and re-sharding) runs the same per-shard pass over
several sources, which is why every build and every compaction of the
same triple multiset writes byte-identical shards.

Readers memory-map the column files (``np.memmap``), so analysis
kernels and worker processes page in only what they touch and share
clean pages through the OS cache — the zero-copy handoff used by
:func:`repro.perf.parallel.map_store_shards`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.associations import LOW64, Triple
from repro.core.associations_np import v6_day_v4_order
from repro.obs import get_logger, metric_inc, span

_log = get_logger("store")

STORE_FORMAT = "repro-triple-store"
STORE_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Canonical per-shard row order (sort key, most significant first).
#: Version 2 finalizes every shard in this order, which makes the store
#: digest a pure function of the triple multiset: builds at any worker
#: count and compactions of the same input all produce byte-identical
#: shards.  :meth:`TripleStore.open` rejects any other recorded order.
ROW_ORDER = "v6,day,v4"

#: Column name -> little-endian on-disk dtype.
COLUMN_DTYPES: Dict[str, str] = {"day": "<u2", "v4": "<u4", "v6": "<u8"}
COLUMNS: Tuple[str, ...] = ("day", "v4", "v6")

_ROW_BYTES = sum(np.dtype(d).itemsize for d in COLUMN_DTYPES.values())

#: Knuth's multiplicative hash constant (2^32 / phi), for /24 sharding.
_HASH_MULTIPLIER = np.uint64(0x9E3779B1)


class StoreCorruptError(Exception):
    """A store directory failed validation (missing/truncated/corrupt)."""


def shard_of_v4(v4_keys: np.ndarray, shards: int) -> np.ndarray:
    """Shard index of each /24 key (vectorized multiplicative hash).

    Reduces the *high* half of the 32-bit product: /24 keys are network
    addresses whose low 8 bits are always zero, so a low-bits reduction
    would send every key to shard 0 whenever ``shards`` is a power of
    two.  The top 16 bits are well mixed for any key alignment.
    """
    hashed = (v4_keys.astype(np.uint64) * _HASH_MULTIPLIER) & np.uint64(0xFFFFFFFF)
    return ((hashed >> np.uint64(16)) % np.uint64(shards)).astype(np.int64)


def canonical_order(days: np.ndarray, v4: np.ndarray, v6: np.ndarray) -> np.ndarray:
    """The canonical per-shard permutation: sorted by ``(v6, day, v4)``.

    This is the key :func:`repro.store.kernels.merged_duration_histogram`
    merges by, so every shard doubles as a pre-sorted run for the
    analysis merge.  It is :func:`repro.core.associations_np.v6_day_v4_order`,
    the one ``(v6, day, v4)`` sort.  Because the key covers every
    column, equal rows are interchangeable — the same row multiset
    always yields byte-identical shard files.
    """
    return v6_day_v4_order(days, v4, v6)


def _shard_file(directory: Path, shard: int, column: str) -> Path:
    return directory / f"shard-{shard:04d}.{column}"


def _empty_columns() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero-row ``(day, v4, v6)`` columns in the on-disk dtypes."""
    return (
        np.empty(0, dtype=np.uint16),
        np.empty(0, dtype=np.uint32),
        np.empty(0, dtype=np.uint64),
    )


def _shard_checksum(directory: Path, shard: int) -> str:
    """SHA-256 over the shard's column files, in canonical column order."""
    digest = hashlib.sha256()
    for column in COLUMNS:
        path = _shard_file(directory, shard, column)
        with path.open("rb") as stream:
            for block in iter(lambda: stream.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def _checksum_of_arrays(days: np.ndarray, v4: np.ndarray, v6: np.ndarray) -> str:
    """The shard checksum computed from in-RAM columns.

    Column files are the raw little-endian array bytes concatenated in
    :data:`COLUMNS` order, so hashing the arrays directly is identical
    to :func:`_shard_checksum` over the written files — writers use
    this to checksum while the sorted columns are still in memory
    instead of re-reading what they just wrote.
    """
    digest = hashlib.sha256()
    for column, array in (("day", days), ("v4", v4), ("v6", v6)):
        digest.update(
            np.ascontiguousarray(array.astype(COLUMN_DTYPES[column], copy=False))
            .tobytes()
        )
    return digest.hexdigest()


def write_shard_columns(
    directory: Path, shard: int, days: np.ndarray, v4: np.ndarray, v6: np.ndarray
) -> str:
    """Write one shard's columns in canonical row order; return checksum.

    The write half of :func:`compact_shard`, the one per-shard finalize
    every build and compaction goes through — which is what makes
    digest parity across worker counts structural rather than
    coincidental.
    """
    order = canonical_order(days, v4, v6)
    sorted_columns = {
        "day": days[order].astype(COLUMN_DTYPES["day"], copy=False),
        "v4": v4[order].astype(COLUMN_DTYPES["v4"], copy=False),
        "v6": v6[order].astype(COLUMN_DTYPES["v6"], copy=False),
    }
    for column in COLUMNS:
        sorted_columns[column].tofile(_shard_file(directory, shard, column))
    return _checksum_of_arrays(
        sorted_columns["day"], sorted_columns["v4"], sorted_columns["v6"]
    )


@dataclass
class ShardColumns:
    """One shard's memory-mapped columns (empty arrays for empty shards)."""

    index: int
    days: np.ndarray  # uint16
    v4: np.ndarray  # uint32
    v6: np.ndarray  # uint64

    def __len__(self) -> int:
        return len(self.days)

    @property
    def nbytes(self) -> int:
        return self.days.nbytes + self.v4.nbytes + self.v6.nbytes


def normalize_columns(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate one columnar batch and narrow it to the on-disk dtypes.

    The writer's input check: arrays must be 1-D and equal-length, days
    must fit ``uint16`` and /24 keys ``uint32``.
    Non-contiguous or misaligned inputs are fine — ``astype`` copies
    into fresh contiguous arrays.  Returns ``(day, v4, v6)`` columns.
    """
    days = np.asarray(days)
    v4_keys = np.asarray(v4_keys)
    v6_keys = np.asarray(v6_keys)
    if days.ndim != 1 or v4_keys.ndim != 1 or v6_keys.ndim != 1:
        raise ValueError("column batch arrays must be one-dimensional")
    if not (len(days) == len(v4_keys) == len(v6_keys)):
        raise ValueError("column batch arrays must have equal length")
    if len(days) == 0:
        return _empty_columns()
    if days.min() < 0 or days.max() > np.iinfo(np.uint16).max:
        raise ValueError("day out of uint16 range")
    if v4_keys.min() < 0 or int(v4_keys.max()) > np.iinfo(np.uint32).max:
        raise ValueError("v4 key out of uint32 range")
    return (
        days.astype(np.uint16),
        v4_keys.astype(np.uint32),
        v6_keys.astype(np.uint64),
    )


def triple_column_batches(
    triples: Iterable[Triple], batch_rows: int = 1 << 16
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Batch python ``(day, v4, v6)`` triples into columnar arrays.

    The v6 key is narrowed to its upper 64 bits (the /64 bijection used
    throughout the store); a key with any of its low 64 bits set raises
    ``ValueError`` rather than silently merging with its /64 neighbours.
    Consumes the iterable lazily — this is the triples→columns adapter
    in front of :meth:`TripleStoreWriter.append_columns`.
    """
    days: List[int] = []
    v4s: List[int] = []
    v6s: List[int] = []
    for day, v4_key, v6_key in triples:
        if v6_key & LOW64:
            raise ValueError(f"v6 key {v6_key:#x} is not a /64 network address")
        days.append(day)
        v4s.append(v4_key)
        v6s.append(v6_key >> 64)
        if len(days) >= batch_rows:
            yield (
                np.array(days, dtype=np.int64),
                np.array(v4s, dtype=np.uint64),
                np.array(v6s, dtype=np.uint64),
            )
            days, v4s, v6s = [], [], []
    if days:
        yield (
            np.array(days, dtype=np.int64),
            np.array(v4s, dtype=np.uint64),
            np.array(v6s, dtype=np.uint64),
        )


class TripleStoreWriter:
    """Append-only builder for a :class:`TripleStore` directory.

    Rows accumulate in per-shard RAM buffers and spill to the column
    files whenever a shard's buffer exceeds ``spill_rows`` (each spill
    is counted in ``store.spill_events``), so peak memory is bounded by
    ``shards * spill_rows`` rows regardless of how many triples pass
    through.  :meth:`finalize` flushes everything, finalizes each shard
    with :func:`compact_shard` and writes the manifest — until then the
    directory has no manifest and :func:`load_triple_store` treats it
    as corrupt (a killed build can never masquerade as a finished store).
    """

    def __init__(
        self,
        directory,
        shards: int = 16,
        spill_rows: int = 1 << 18,
        source: Optional[dict] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if spill_rows < 1:
            raise ValueError(f"spill_rows must be >= 1, got {spill_rows}")
        self.directory = Path(directory).expanduser()
        self.shards = int(shards)
        self.spill_rows = int(spill_rows)
        self.source = dict(source) if source else {}
        self.total_rows = 0
        self.spill_events = 0
        self._finalized = False
        self._buffers: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.shards)
        ]
        self._buffered_rows = [0] * self.shards
        self._shard_rows = [0] * self.shards
        if self.directory.exists():
            raise FileExistsError(f"store directory already exists: {self.directory}")
        self.directory.mkdir(parents=True)

    # -- appending ----------------------------------------------------------

    def append_columns(
        self, days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
    ) -> int:
        """Append one columnar batch (``v6_keys`` already upper-64-bit).

        Values are range-checked against the on-disk dtypes; the batch
        is scattered to shard buffers with one argsort, not per-row.
        """
        if self._finalized:
            raise ValueError("writer already finalized")
        day_col, v4_col, v6_col = normalize_columns(days, v4_keys, v6_keys)
        if len(day_col) == 0:
            return 0
        shard_ids = shard_of_v4(v4_col, self.shards)
        order = np.argsort(shard_ids, kind="stable")
        sorted_ids = shard_ids[order]
        present, starts = np.unique(sorted_ids, return_index=True)
        bounds = np.append(starts, len(sorted_ids))
        for position, shard in enumerate(present):
            select = order[bounds[position] : bounds[position + 1]]
            self._buffer(int(shard), day_col[select], v4_col[select], v6_col[select])
        self.total_rows += len(day_col)
        metric_inc("store.triples_appended", value=len(day_col))
        return len(day_col)

    def extend(self, triples: Iterable[Triple], batch_rows: int = 1 << 16) -> int:
        """Append python ``(day, v4_key, v6_key)`` triples (full 128-bit v6).

        The iterable is consumed lazily in ``batch_rows``-sized batches,
        so arbitrarily long feeds (e.g. ``read_association_csv``) never
        materialize.
        """
        appended = 0
        for days, v4_keys, v6_keys in triple_column_batches(triples, batch_rows):
            appended += self.append_columns(days, v4_keys, v6_keys)
        return appended

    def _buffer(
        self, shard: int, days: np.ndarray, v4: np.ndarray, v6: np.ndarray
    ) -> None:
        self._buffers[shard].append((days, v4, v6))
        self._buffered_rows[shard] += len(days)
        if self._buffered_rows[shard] >= self.spill_rows:
            self._spill(shard)

    def _spill(self, shard: int) -> None:
        if not self._buffers[shard]:
            return
        days = np.concatenate([chunk[0] for chunk in self._buffers[shard]])
        v4 = np.concatenate([chunk[1] for chunk in self._buffers[shard]])
        v6 = np.concatenate([chunk[2] for chunk in self._buffers[shard]])
        for column, array in (("day", days), ("v4", v4), ("v6", v6)):
            with _shard_file(self.directory, shard, column).open("ab") as stream:
                array.astype(COLUMN_DTYPES[column]).tofile(stream)
        self._shard_rows[shard] += len(days)
        self._buffers[shard] = []
        self._buffered_rows[shard] = 0
        self.spill_events += 1
        metric_inc("store.spill_events")

    # -- finalize -----------------------------------------------------------

    def finalize(self, workers: Optional[int] = None) -> "TripleStore":
        """Spill every buffer, finalize the shards in place, write the manifest.

        Each shard is rewritten in :data:`ROW_ORDER` by
        :func:`compact_shard`, fanned out over the shard indices
        (``workers`` as in :func:`repro.perf.parallel.map_units`), so the
        finalized bytes (and hence :meth:`TripleStore.digest`) depend
        only on the triple multiset, never on append order, spill size
        or worker count.
        """
        if self._finalized:
            raise ValueError("writer already finalized")
        with span("store/finalize", shards=self.shards, rows=self.total_rows):
            for shard in range(self.shards):
                self._spill(shard)
            spilled = ShardSource(
                str(self.directory), self.shards, tuple(self._shard_rows)
            )
            store = _finalize_shards(
                [spilled], self.directory, self.shards, workers, self.source
            )
        self._finalized = True
        _log.info(
            "store finalized",
            extra={"dir": str(self.directory), "rows": self.total_rows},
        )
        return store

    def __enter__(self) -> "TripleStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._finalized:
            self.finalize()


class TripleStore:
    """Read view of a finalized store directory (memmapped shards)."""

    def __init__(self, directory: Path, manifest: dict) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.shards: int = manifest["shards"]
        self.shard_rows: List[int] = list(manifest["shard_rows"])
        self.total_triples: int = manifest["total_triples"]
        self.day_min: Optional[int] = manifest["day_min"]
        self.day_max: Optional[int] = manifest["day_max"]

    # -- opening / validation ------------------------------------------------

    @classmethod
    def open(cls, directory, verify: bool = False) -> "TripleStore":
        """Open a store, raising :class:`StoreCorruptError` on any damage.

        The cheap structural checks (manifest shape, file sizes vs the
        recorded row counts) always run; ``verify=True`` additionally
        re-hashes every shard against the manifest checksums — a full
        read, so reserve it for durability-sensitive callers.
        """
        directory = Path(directory).expanduser()
        manifest_path = directory / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError as exc:
            raise StoreCorruptError(f"no manifest in {directory}") from exc
        except (OSError, ValueError) as exc:
            raise StoreCorruptError(f"unreadable manifest in {directory}: {exc}") from exc
        try:
            if manifest["format"] != STORE_FORMAT:
                raise StoreCorruptError(f"not a {STORE_FORMAT} directory: {directory}")
            if manifest["version"] != STORE_FORMAT_VERSION:
                raise StoreCorruptError(
                    f"unsupported store version {manifest['version']!r}"
                )
            if manifest["dtypes"] != COLUMN_DTYPES:
                raise StoreCorruptError("store dtypes do not match this build")
            if manifest["row_order"] != ROW_ORDER:
                raise StoreCorruptError(
                    f"unsupported row order {manifest['row_order']!r}"
                )
            shards = int(manifest["shards"])
            rows = [int(count) for count in manifest["shard_rows"]]
            checksums = list(manifest["shard_checksums"])
            if shards < 1 or len(rows) != shards or len(checksums) != shards:
                raise StoreCorruptError("manifest shard bookkeeping inconsistent")
            if sum(rows) != int(manifest["total_triples"]):
                raise StoreCorruptError("manifest row counts do not sum to total")
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptError(f"malformed manifest in {directory}: {exc}") from exc
        for shard in range(shards):
            for column in COLUMNS:
                path = _shard_file(directory, shard, column)
                expected = rows[shard] * np.dtype(COLUMN_DTYPES[column]).itemsize
                try:
                    actual = path.stat().st_size
                except FileNotFoundError as exc:
                    raise StoreCorruptError(f"missing shard file {path.name}") from exc
                if actual != expected:
                    raise StoreCorruptError(
                        f"{path.name}: {actual} bytes on disk, manifest says {expected}"
                    )
        if verify:
            for shard in range(shards):
                if _shard_checksum(directory, shard) != checksums[shard]:
                    raise StoreCorruptError(f"shard {shard} checksum mismatch")
        return cls(directory, manifest)

    def verify(self) -> None:
        """Re-hash every shard against the manifest (raises on mismatch)."""
        for shard in range(self.shards):
            if _shard_checksum(self.directory, shard) != self.manifest[
                "shard_checksums"
            ][shard]:
                raise StoreCorruptError(f"shard {shard} checksum mismatch")

    def digest(self) -> str:
        """Content hash of the manifest (shard checksums included) — the
        store's stream identity for checkpoint addressing."""
        canonical = json.dumps(
            {
                key: self.manifest[key]
                for key in ("format", "version", "shards", "shard_rows",
                            "shard_checksums", "total_triples")
            },
            sort_keys=True,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- reading -------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total on-disk column bytes across all shards."""
        return self.total_triples * _ROW_BYTES

    def shard(self, index: int) -> ShardColumns:
        """Memory-map one shard's columns (zero-copy; empty shards OK)."""
        rows = self.shard_rows[index]
        if rows == 0:
            return ShardColumns(index, *_empty_columns())
        columns = {}
        for column in COLUMNS:
            columns[column] = np.memmap(
                _shard_file(self.directory, index, column),
                dtype=COLUMN_DTYPES[column],
                mode="r",
                shape=(rows,),
            )
        shard = ShardColumns(index, columns["day"], columns["v4"], columns["v6"])
        metric_inc("store.shards_read")
        metric_inc("store.bytes_mapped", value=shard.nbytes)
        return shard

    def iter_shards(self) -> Iterator[ShardColumns]:
        """Every shard in index order (memmapped)."""
        for index in range(self.shards):
            yield self.shard(index)

    def iter_triples(self) -> Iterator[Triple]:
        """Lazily yield python triples ``(day, v4_key, v6_key<<64)``.

        Shard order, *not* day order — use :meth:`day_window_columns`
        for the canonical day-ordered stream.
        """
        for shard in self.iter_shards():
            for day, v4_key, v6_key in zip(
                shard.days.tolist(), shard.v4.tolist(), shard.v6.tolist()
            ):
                yield (day, v4_key, v6_key << 64)

    def iter_day_windows(
        self, chunk_days: int, start_chunk: int = 0, stop_chunk: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(index, days, v4, v6)`` for each day window of a pass.

        Window ``index`` holds the rows with ``index * chunk_days <= day
        < (index + 1) * chunk_days``, for ``start_chunk <= index <
        stop_chunk`` (default: through :attr:`day_max`), empty windows
        included.  Every shard is mapped once for the whole pass, as
        plain ndarray views, and each window is one mask read per
        shard.  Rows come shard by shard, **unsorted** across shards —
        for consumers that sort anyway; :meth:`day_window_columns` is
        the sorted form.
        """
        if chunk_days < 1:
            raise ValueError("chunk_days must be >= 1")
        if stop_chunk is None:
            stop_chunk = (self.day_max or 0) // chunk_days + 1
        shards = self._mapped_columns()
        for index in range(start_chunk, stop_chunk):
            lo = index * chunk_days
            yield (index, *_window_rows(shards, lo, lo + chunk_days))

    def day_window_columns(
        self, start_day: int, end_day: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All rows with ``start_day <= day < end_day``, sorted ``(day, v4, v6)``.

        Gathers the window from every shard (memmap mask reads) and
        sorts it, for callers that want one window in a stable order;
        the association stream folds the unsorted
        :meth:`iter_day_windows` instead.  Memory is bounded by the
        window's row count.
        """
        days, v4, v6 = _window_rows(self._mapped_columns(), start_day, end_day)
        order = np.lexsort((v6, v4, days))
        return days[order], v4[order], v6[order]

    def _mapped_columns(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``(days, v4, v6)`` plain ndarray views of every non-empty shard."""
        return [
            tuple(column.view(np.ndarray) for column in (shard.days, shard.v4, shard.v6))
            for shard in self.iter_shards()
            if len(shard)
        ]


def _window_rows(
    shards: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]], start_day: int, end_day: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of ``shards`` with ``start_day <= day < end_day``, shard-major."""
    parts: List[Tuple[np.ndarray, ...]] = []
    for columns in shards:
        rows = np.flatnonzero((columns[0] >= start_day) & (columns[0] < end_day))
        if len(rows):
            parts.append(tuple(column[rows] for column in columns))
    if not parts:
        return _empty_columns()
    return tuple(np.concatenate(column) for column in zip(*parts))


def load_triple_store(directory, verify: bool = False) -> Optional[TripleStore]:
    """Open a store, or treat damage as a miss (corrupt → delete + ``None``).

    Mirrors the checkpoint store's corrupt→miss+delete contract: an
    unreadable/truncated/stale store directory is removed so the caller
    rebuilds from source instead of resuming over garbage.  A missing
    directory is a plain miss (nothing to delete).
    """
    directory = Path(directory).expanduser()
    if not directory.exists():
        metric_inc("store.misses", reason="absent")
        return None
    try:
        store = TripleStore.open(directory, verify=verify)
    except StoreCorruptError as exc:
        shutil.rmtree(directory, ignore_errors=True)
        metric_inc("store.misses", reason="corrupt")
        _log.warning("corrupt store dropped", extra={"dir": str(directory), "why": str(exc)})
        return None
    metric_inc("store.hits")
    return store


# ---------------------------------------------------------------------------
# Per-shard finalize and compaction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSource:
    """One directory of ``shard-NNNN.<column>`` files feeding :func:`compact_shard`.

    A finalized store, or a writer's own spill files before finalize.
    Plain data, so it pickles cheaply into pool workers.
    """

    directory: str
    shards: int
    shard_rows: Tuple[int, ...]


def _read_source_shard(
    source: ShardSource, shard: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One source shard's columns, read fully into RAM."""
    if source.shard_rows[shard] == 0:
        return _empty_columns()
    directory = Path(source.directory)
    return tuple(
        np.fromfile(_shard_file(directory, shard, column), dtype=COLUMN_DTYPES[column])
        for column in COLUMNS
    )


def compact_shard(
    index: int,
    sources: Sequence[ShardSource],
    out_shards: int,
    out_directory: str,
) -> dict:
    """Gather one output shard from every source and write it canonically.

    Sources whose shard count matches the target contribute their
    ``index``-th shard directly (the hash assignment is identical);
    mismatched sources are re-hashed row-by-row with
    :func:`shard_of_v4`.  Every source shard is read fully before the
    write, so a writer finalizes its own spill files in place.  Peak
    memory is one output shard's columns.  Runs inside pool workers
    (module-level, pickles by reference).
    """
    parts = []
    for source in sources:
        if source.shards == out_shards:
            parts.append(_read_source_shard(source, index))
            continue
        for shard in range(source.shards):
            days, v4, v6 = _read_source_shard(source, shard)
            mask = shard_of_v4(v4, out_shards) == index
            parts.append((days[mask], v4[mask], v6[mask]))
    parts = [part for part in parts if len(part[0])]
    if len(parts) == 1:
        days, v4, v6 = parts[0]
    elif parts:
        days, v4, v6 = (np.concatenate(column) for column in zip(*parts))
    else:
        days, v4, v6 = _empty_columns()
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


def _finalize_shards(
    sources: Sequence[ShardSource],
    directory: Path,
    shards: int,
    workers: Optional[int],
    source: Optional[dict],
) -> "TripleStore":
    """Fan :func:`compact_shard` out over ``range(shards)``, then seal.

    The finalize shared by :meth:`TripleStoreWriter.finalize` and
    :func:`compact_sources`.  :func:`repro.perf.parallel.map_units`
    alone decides between a serial loop and a pool.  The version-2
    manifest is written atomically (tmp + rename) and last, so a killed
    finalize leaves no openable store.
    """
    from repro.perf.parallel import map_units

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
    manifest = {
        "format": STORE_FORMAT,
        "version": STORE_FORMAT_VERSION,
        "row_order": ROW_ORDER,
        "shards": int(shards),
        "dtypes": dict(COLUMN_DTYPES),
        "shard_rows": [meta["rows"] for meta in results],
        "shard_checksums": [meta["checksum"] for meta in results],
        "total_triples": sum(meta["rows"] for meta in results),
        "day_min": min(day_mins) if day_mins else None,
        "day_max": max(day_maxs) if day_maxs else None,
        "source": dict(source) if source else {},
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    temp = directory / f"{MANIFEST_NAME}.tmp{os.getpid()}"
    temp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    os.replace(temp, directory / MANIFEST_NAME)
    return TripleStore.open(directory)


def compact_sources(
    sources: Sequence[ShardSource],
    directory,
    shards: int,
    workers: Optional[int] = None,
    source: Optional[dict] = None,
) -> TripleStore:
    """K-way merge shard sources into a new finalized store directory.

    Each output shard is one independent :func:`compact_shard`.  The
    output directory must not exist yet — like a build, a killed
    compaction leaves no manifest and therefore no openable store.
    """
    directory = Path(directory).expanduser()
    if directory.exists():
        raise FileExistsError(f"store directory already exists: {directory}")
    directory.mkdir(parents=True)
    with span("store/compact", sources=len(sources), shards=shards):
        store = _finalize_shards(sources, directory, shards, workers, source)
    _log.info(
        "store compacted",
        extra={
            "dir": str(directory),
            "sources": len(sources),
            "rows": store.total_triples,
        },
    )
    return store


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
    finalizes in canonical row order, compacting stores built from
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
# One-call builds
# ---------------------------------------------------------------------------


def build_store_from_triples(
    triples: Iterable[Triple],
    directory,
    shards: int = 16,
    spill_rows: int = 1 << 18,
    source: Optional[dict] = None,
    workers: Optional[int] = None,
) -> TripleStore:
    """One-call build: stream python triples into a finalized store."""
    return build_store_from_columns(
        triple_column_batches(triples),
        directory,
        shards=shards,
        spill_rows=spill_rows,
        source=source,
        workers=workers,
    )


def build_store_from_columns(
    batches: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    directory,
    shards: int = 16,
    spill_rows: int = 1 << 18,
    source: Optional[dict] = None,
    workers: Optional[int] = None,
) -> TripleStore:
    """One-call build from columnar ``(days, v4, v6_upper)`` batches.

    Appends every batch, then :meth:`TripleStoreWriter.finalize` with
    ``workers``.  ``spill_rows`` bounds the writer's buffers at every
    worker count; the digest depends on neither knob.
    """
    with span("store/build", shards=shards):
        writer = TripleStoreWriter(
            directory, shards=shards, spill_rows=spill_rows, source=source
        )
        for days, v4_keys, v6_keys in batches:
            writer.append_columns(days, v4_keys, v6_keys)
        return writer.finalize(workers=workers)


__all__ = [
    "COLUMN_DTYPES",
    "MANIFEST_NAME",
    "ROW_ORDER",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "ShardColumns",
    "ShardSource",
    "StoreCorruptError",
    "TripleStore",
    "TripleStoreWriter",
    "build_store_from_columns",
    "build_store_from_triples",
    "canonical_order",
    "compact_shard",
    "compact_sources",
    "compact_stores",
    "load_triple_store",
    "normalize_columns",
    "shard_of_v4",
    "triple_column_batches",
    "write_shard_columns",
]

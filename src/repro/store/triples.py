"""Sharded, memory-mapped columnar store for CDN association triples.

The paper's CDN feed is 32.7B ``(day, v4 /24, v6 /64)`` tuples — far
beyond what the in-RAM list-of-triples representation can hold.  This
module persists a triple population as struct-of-arrays column shards:

* ``day``  — ``uint16`` (the paper's windows are months, not decades);
* ``v4``   — ``uint32`` /24 network address;
* ``v6``   — ``uint64`` *upper 64 bits* of the /64 network address
  (a bijection for /64s, matching
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
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.associations import Triple
from repro.obs import get_logger, metric_inc, span

_log = get_logger("store")

STORE_FORMAT = "repro-triple-store"
STORE_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"

#: Canonical per-shard row order (lexsort key, most significant first).
#: Version 2 finalizes every shard in this order, which makes the store
#: digest a pure function of the triple multiset: serial builds,
#: parallel segment builds and compactions of the same input all
#: produce byte-identical shards.
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
    """The canonical per-shard permutation: lexsort by ``(v6, day, v4)``.

    This is the same key :func:`repro.store.kernels.sort_shard_to_scratch`
    merges by, so canonically ordered shards double as pre-sorted runs
    for the analysis merge.  Because the key covers every column, equal
    rows are interchangeable — any builder that ends with this sort
    emits byte-identical shard files for the same row multiset.
    """
    return np.lexsort((v4, days, v6))


def _shard_file(directory: Path, shard: int, column: str) -> Path:
    return directory / f"shard-{shard:04d}.{column}"


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

    The single sort-and-write primitive shared by the serial writer's
    finalize and segment compaction — both paths emitting the same
    bytes for the same row multiset is what makes build-mode digest
    parity structural rather than coincidental.
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


def write_store_manifest(
    directory: Path,
    shards: int,
    shard_rows: Sequence[int],
    checksums: Sequence[str],
    total_rows: int,
    day_min: Optional[int],
    day_max: Optional[int],
    source: Optional[dict] = None,
) -> None:
    """Atomically write a version-2 store manifest (tmp + rename).

    Shared by the serial writer and the compactor so every finalized
    store records the same fields — including ``row_order``, the marker
    readers use to trust shards as pre-sorted runs.
    """
    manifest = {
        "format": STORE_FORMAT,
        "version": STORE_FORMAT_VERSION,
        "row_order": ROW_ORDER,
        "shards": int(shards),
        "dtypes": dict(COLUMN_DTYPES),
        "shard_rows": [int(rows) for rows in shard_rows],
        "shard_checksums": list(checksums),
        "total_triples": int(total_rows),
        "day_min": day_min,
        "day_max": day_max,
        "source": dict(source) if source else {},
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    temp = directory / f"{MANIFEST_NAME}.tmp{os.getpid()}"
    temp.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    os.replace(temp, directory / MANIFEST_NAME)


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

    Shared by the serial writer and the segment writers so both reject
    the same malformed input the same way: arrays must be 1-D and
    equal-length, days must fit ``uint16`` and /24 keys ``uint32``.
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
        return (
            np.empty(0, dtype=np.uint16),
            np.empty(0, dtype=np.uint32),
            np.empty(0, dtype=np.uint64),
        )
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
    throughout the store).  Consumes the iterable lazily — this is the
    shared triples→columns adapter for both the serial writer and the
    parallel segment build.
    """
    days: List[int] = []
    v4s: List[int] = []
    v6s: List[int] = []
    for day, v4_key, v6_key in triples:
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
    through.  :meth:`finalize` flushes everything, checksums the shards
    and writes the manifest — until then the directory has no manifest
    and :func:`load_triple_store` treats it as corrupt (a killed build
    can never masquerade as a finished store).
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
        self._day_min: Optional[int] = None
        self._day_max: Optional[int] = None
        self._buffers: List[List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = [
            [] for _ in range(self.shards)
        ]
        self._buffered_rows = [0] * self.shards
        self._shard_rows = [0] * self.shards
        if self.directory.exists():
            raise FileExistsError(f"store directory already exists: {self.directory}")
        self.directory.mkdir(parents=True)
        for shard in range(self.shards):
            for column in COLUMNS:
                _shard_file(self.directory, shard, column).touch()

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

        lo, hi = int(day_col.min()), int(day_col.max())
        self._day_min = lo if self._day_min is None else min(self._day_min, lo)
        self._day_max = hi if self._day_max is None else max(self._day_max, hi)

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

    def _canonicalize_shard(self, shard: int) -> str:
        """Rewrite one spilled shard in canonical row order; return checksum.

        Peak memory is one shard's columns — the same bound the
        analysis kernels already live under.
        """
        rows = self._shard_rows[shard]
        if rows == 0:
            return _checksum_of_arrays(
                np.empty(0, dtype=np.uint16),
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint64),
            )
        columns = {
            column: np.fromfile(
                _shard_file(self.directory, shard, column),
                dtype=COLUMN_DTYPES[column],
            )
            for column in COLUMNS
        }
        return write_shard_columns(
            self.directory, shard, columns["day"], columns["v4"], columns["v6"]
        )

    def finalize(self) -> "TripleStore":
        """Flush buffers, canonical-sort and checksum shards, write the manifest.

        Each shard is rewritten in :data:`ROW_ORDER` before hashing, so
        the finalized bytes (and hence :meth:`TripleStore.digest`)
        depend only on the triple multiset, never on append order.
        """
        if self._finalized:
            raise ValueError("writer already finalized")
        with span("store/finalize", shards=self.shards, rows=self.total_rows):
            for shard in range(self.shards):
                self._spill(shard)
            checksums = [
                self._canonicalize_shard(shard) for shard in range(self.shards)
            ]
            write_store_manifest(
                self.directory,
                self.shards,
                self._shard_rows,
                checksums,
                self.total_rows,
                self._day_min,
                self._day_max,
                self.source,
            )
        self._finalized = True
        _log.info(
            "store finalized",
            extra={"dir": str(self.directory), "rows": self.total_rows},
        )
        return TripleStore.open(self.directory)

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
    def canonical(self) -> bool:
        """Whether shard rows are in the canonical ``(v6, day, v4)`` order.

        Version-2 manifests always record :data:`ROW_ORDER`; readers
        use this to treat shards as pre-sorted runs (skipping the
        analysis-side lexsort entirely).
        """
        return self.manifest.get("row_order") == ROW_ORDER

    @property
    def nbytes(self) -> int:
        """Total on-disk column bytes across all shards."""
        return self.total_triples * _ROW_BYTES

    def shard(self, index: int) -> ShardColumns:
        """Memory-map one shard's columns (zero-copy; empty shards OK)."""
        rows = self.shard_rows[index]
        if rows == 0:
            return ShardColumns(
                index,
                np.empty(0, dtype=np.uint16),
                np.empty(0, dtype=np.uint32),
                np.empty(0, dtype=np.uint64),
            )
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
        """All rows with ``start_day <= day < end_day``, canonically sorted.

        Gathers the window from every shard (memmap mask reads) and
        sorts it ``(day, v4, v6)`` — the batch scan order of
        :func:`repro.stream.chunks.triple_chunks`.  Memory is bounded by
        the window's row count.
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
        return (
            np.empty(0, dtype=np.uint16),
            np.empty(0, dtype=np.uint32),
            np.empty(0, dtype=np.uint64),
        )
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


def build_store_from_triples(
    triples: Iterable[Triple],
    directory,
    shards: int = 16,
    spill_rows: int = 1 << 18,
    source: Optional[dict] = None,
    workers: Optional[int] = None,
    segment_rows: Optional[int] = None,
) -> TripleStore:
    """One-call build: stream python triples into a finalized store.

    ``workers`` > 1 (on a multi-core host) routes through the parallel
    segment build (:func:`repro.store.segments.parallel_build_store`),
    which compacts to the byte-identical store the serial path writes.
    """
    return build_store_from_columns(
        triple_column_batches(triples),
        directory,
        shards=shards,
        spill_rows=spill_rows,
        source=source,
        workers=workers,
        segment_rows=segment_rows,
    )


def build_store_from_columns(
    batches: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    directory,
    shards: int = 16,
    spill_rows: int = 1 << 18,
    source: Optional[dict] = None,
    workers: Optional[int] = None,
    segment_rows: Optional[int] = None,
) -> TripleStore:
    """One-call build from columnar ``(days, v4, v6_upper)`` batches.

    ``workers`` > 1 (on a multi-core host) fans the stream out to
    segment writers and k-way compacts; serial otherwise.  Both paths
    finalize in canonical row order, so they produce the same
    :meth:`TripleStore.digest` for the same input.
    """
    from repro.perf.parallel import effective_workers, resolve_workers

    if effective_workers(resolve_workers(workers), units=None) > 1:
        from repro.store.segments import parallel_build_store

        return parallel_build_store(
            batches,
            directory,
            shards=shards,
            workers=workers,
            segment_rows=segment_rows,
            source=source,
        )
    with span("store/build", shards=shards):
        writer = TripleStoreWriter(
            directory, shards=shards, spill_rows=spill_rows, source=source
        )
        for days, v4_keys, v6_keys in batches:
            writer.append_columns(days, v4_keys, v6_keys)
        return writer.finalize()


__all__ = [
    "COLUMN_DTYPES",
    "MANIFEST_NAME",
    "ROW_ORDER",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "ShardColumns",
    "StoreCorruptError",
    "TripleStore",
    "TripleStoreWriter",
    "build_store_from_columns",
    "build_store_from_triples",
    "canonical_order",
    "load_triple_store",
    "normalize_columns",
    "shard_of_v4",
    "triple_column_batches",
    "write_shard_columns",
    "write_store_manifest",
]

"""Out-of-core sharded memmap triple store (ROADMAP item 2).

``repro.store`` persists (day, v4 /24, v6 /64) association triples as
hash-sharded struct-of-arrays column files and re-derives the paper's
Section-5 artifacts shard-by-shard, so billion-row populations are
bounded by disk, not RAM.  See :mod:`repro.store.triples` for the
on-disk format, the one build path (writer scatter, then a per-shard
:func:`compact_shard` finalize at any worker count) and store
compaction, and :mod:`repro.store.kernels` for the out-of-core
analysis (bit-identical to the pure-Python
:mod:`repro.core.associations` oracle).
"""

from repro.store.kernels import (
    DEFAULT_BLOCK_ROWS,
    StoreAnalysis,
    analyze_store,
    merged_duration_histogram,
    shard_partials_to_scratch,
)
from repro.store.synthetic import synthetic_triple_batches
from repro.store.triples import (
    COLUMN_DTYPES,
    MANIFEST_NAME,
    ROW_ORDER,
    STORE_FORMAT,
    STORE_FORMAT_VERSION,
    ShardColumns,
    ShardSource,
    StoreCorruptError,
    TripleStore,
    TripleStoreWriter,
    build_store_from_columns,
    build_store_from_triples,
    canonical_order,
    compact_shard,
    compact_sources,
    compact_stores,
    load_triple_store,
    normalize_columns,
    shard_of_v4,
    triple_column_batches,
    write_shard_columns,
)

__all__ = [
    "COLUMN_DTYPES",
    "DEFAULT_BLOCK_ROWS",
    "MANIFEST_NAME",
    "ROW_ORDER",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "ShardColumns",
    "ShardSource",
    "StoreAnalysis",
    "StoreCorruptError",
    "TripleStore",
    "TripleStoreWriter",
    "analyze_store",
    "build_store_from_columns",
    "build_store_from_triples",
    "canonical_order",
    "compact_shard",
    "compact_sources",
    "compact_stores",
    "merged_duration_histogram",
    "normalize_columns",
    "shard_of_v4",
    "shard_partials_to_scratch",
    "synthetic_triple_batches",
    "triple_column_batches",
    "write_shard_columns",
]

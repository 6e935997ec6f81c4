"""Chunked, checkpointable, incremental analysis (the streaming layer).

This subsystem processes complete echo runs and CDN association triples
in bounded-size chunks, maintaining per-probe incremental state that
folds each chunk through the existing ``analysis_np`` kernels.  A full
streaming pass is **bit-identical** to the pure-Python ``engine="py"``
report for any chunk size, with or without a mid-stream
checkpoint/restore — see :func:`repro.perf.verify.stream_diffs`.

Layout:

* :mod:`repro.stream.chunks` — stream sources (complete runs in
  ``first`` order, the one input shape of the Atlas engine), the
  on-disk run-stream format, and the CSV triple reader;
* :mod:`repro.stream.engine` — the Atlas engine and its driver;
* :mod:`repro.stream.associations` — the CDN association engine and its
  driver over the day windows of a triple store;
* :mod:`repro.stream.checkpoint` — the content-addressed checkpoint
  store (lives under the :mod:`repro.perf.cache` directory).
"""

from repro.stream.associations import (
    AssociationStreamEngine,
    AssociationStreamResult,
    run_association_stream_over_store,
)
from repro.stream.checkpoint import CheckpointStore, default_checkpoint_dir
from repro.stream.chunks import (
    JsonlRunSource,
    NetworkInfo,
    ProbeInfo,
    RunChunk,
    ScenarioRunSource,
    StreamManifest,
    manifest_from_scenario,
    stream_triples_from_csv,
    write_run_stream,
)
from repro.stream.engine import (
    AtlasStreamEngine,
    AtlasStreamResult,
    StreamStats,
    run_atlas_stream,
)

__all__ = [
    "AssociationStreamEngine",
    "AssociationStreamResult",
    "AtlasStreamEngine",
    "AtlasStreamResult",
    "CheckpointStore",
    "JsonlRunSource",
    "NetworkInfo",
    "ProbeInfo",
    "RunChunk",
    "ScenarioRunSource",
    "StreamManifest",
    "StreamStats",
    "default_checkpoint_dir",
    "manifest_from_scenario",
    "run_association_stream_over_store",
    "run_atlas_stream",
    "stream_triples_from_csv",
    "write_run_stream",
]

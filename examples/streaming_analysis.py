#!/usr/bin/env python3
"""Streaming analysis: chunked, checkpointable, bit-identical to batch.

Demonstrates the `repro.stream` layer end-to-end:

1. build a small Atlas scenario and analyze it the batch way,
2. replay the same scenario chunk-by-chunk through the incremental
   streaming engine and show the artifacts are *bit-identical*,
3. kill the streaming pass halfway, persist a checkpoint, resume it,
   and show the resumed pass still matches,
4. export the scenario as a run-stream file and re-analyze it lazily
   from disk (the path an arbitrarily long real feed would take).

Run:  python examples/streaming_analysis.py
"""

import tempfile
from pathlib import Path

from repro.stream import JsonlRunSource, run_atlas_stream, write_run_stream
from repro.workloads import (
    analyze_atlas_scenario,
    build_atlas_scenario,
    periodicity_for_scenario,
    stream_analyze_atlas_scenario,
)

CHUNK_HOURS = 24 * 14  # two-week chunks


def main() -> None:
    print("Building scenario (11 ISPs, 4 probes each, 1 simulated year)...")
    scenario = build_atlas_scenario(probes_per_as=4, years=1.0, seed=2020)
    batch = analyze_atlas_scenario(scenario)  # default engine: fused
    periods = periodicity_for_scenario(scenario)

    # 1. Plain streaming pass: any chunk size reproduces batch exactly.
    result = stream_analyze_atlas_scenario(scenario, chunk_hours=CHUNK_HOURS)
    stats = result.stats
    print(
        f"\nStreamed {stats.runs_seen} runs in {stats.chunks_folded} chunks "
        f"of {CHUNK_HOURS}h"
    )
    print(f"  table1 identical to batch: {result.analysis.table1 == batch.table1}")
    print(f"  table2 identical to batch: {result.analysis.table2 == batch.table2}")
    print(f"  figures identical to batch: "
          f"{(result.analysis.figure1, result.analysis.figure5) == (batch.figure1, batch.figure5)}")
    print(f"  periodicity identical:      "
          f"{(result.v4_periods, result.v6_periods) == periods}")

    with tempfile.TemporaryDirectory(prefix="repro-stream-example-") as tmp:
        # 2. Kill the pass halfway (state is checkpointed)...
        total = stats.chunks_folded
        killed = stream_analyze_atlas_scenario(
            scenario, chunk_hours=CHUNK_HOURS, checkpoint=tmp,
            stop_after_chunks=total // 2,
        )
        print(f"\nKilled a second pass after {total // 2}/{total} chunks "
              f"(returned {killed!r}; state persisted)")

        # ...then resume from the persisted checkpoint.
        resumed = stream_analyze_atlas_scenario(
            scenario, chunk_hours=CHUNK_HOURS, checkpoint=tmp, resume=True,
        )
        print(f"Resumed from chunk {resumed.stats.resumed_from_chunk}, folded "
              f"{resumed.stats.chunks_folded} remaining chunks")
        print(f"  resumed pass identical to batch: "
              f"{resumed.analysis == batch}")

        # 3. Export as a run-stream file and re-analyze lazily from disk.
        stream_path = Path(tmp) / "runs.jsonl"
        with stream_path.open("w") as stream:
            written = write_run_stream(scenario, stream)
        file_result = run_atlas_stream(JsonlRunSource(stream_path), CHUNK_HOURS)
        print(f"\nExported {written} runs "
              f"({stream_path.stat().st_size / 2**20:.1f} MiB), "
              f"re-analyzed lazily from disk")
        print(f"  file-streamed Table 1 identical to batch: "
              f"{file_result.analysis.table1 == batch.table1}")

    print("\nSame artifacts, bounded memory, kill-safe: the streaming layer "
          "in one screen.")


if __name__ == "__main__":
    main()

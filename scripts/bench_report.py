"""Render the ``BENCH_history.jsonl`` perf trend and gate regressions.

Reads the JSONL history that ``scripts.bench_baseline`` appends on every
run and prints the per-stage wall times (scenario builds, the analysis
stages, telemetry, streaming, the out-of-core store, and the end-to-end
fused report suite, serial and pooled) plus the store
build/analyze/stream throughputs (tuples/s) as one fixed-width table per
benchmark mode (``check`` vs ``full`` runs are never compared against
each other — they run at different scales).

Usage::

    PYTHONPATH=src python -m scripts.bench_report            # print trend
    PYTHONPATH=src python -m scripts.bench_report --check    # gate newest run

``--check`` compares the newest entry of each mode against up to the
three previous same-mode entries and fails (exit 1) only when a stage
is slower than *every* one of them by more than ``--tolerance`` (for
the throughput stages: when its tuples/s rate fell below every one of
them by more than the same factor)
(default 1.0, i.e. 2x — recorded history on loaded single-core hosts
shows untouched stages jittering by 1.8x run to run, so anything
tighter gates on the weather; pass a smaller ``--tolerance`` on quiet
dedicated hardware).  Stages absent from either side — e.g. history
recorded before the stage existed — are skipped, so the gate is safe
to run against old history files, and a missing or short history
passes with a note rather than failing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.report import render_table  # noqa: E402
from repro.perf.timing import DEFAULT_HISTORY_PATH  # noqa: E402


def _get(entry: dict, *path):
    """``entry[path[0]][path[1]]...`` or None when any hop is missing."""
    value = entry
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _analysis_seconds(entry: dict, stage: str) -> Optional[float]:
    """Fast-engine seconds of one analysis stage: ``fused_seconds``, or
    the ``np_seconds`` that history recorded before the fused engine
    became the only fast path (so new runs gate against old ones)."""
    seconds = _get(entry, "analysis", "stages", stage, "fused_seconds")
    if seconds is None:
        seconds = _get(entry, "analysis", "stages", stage, "np_seconds")
    return seconds


#: Stage label -> extractor over one history entry, in display order.
#: Extractors return seconds (float) or None when the entry predates
#: the stage or the stage was skipped (e.g. numpy unavailable).
STAGE_EXTRACTORS: Dict[str, Callable[[dict], Optional[float]]] = {
    "build_atlas": lambda e: _get(e, "build", "atlas", "serial_seconds"),
    "build_cdn": lambda e: _get(e, "build", "cdn", "serial_seconds"),
    "cache_warm": lambda e: _get(e, "cache", "warm_seconds"),
    **{
        f"analysis_{stage}": lambda e, s=stage: _analysis_seconds(e, s)
        for stage in ("table1", "figure1", "figure5", "table2", "periodicity")
    },
    "telemetry": lambda e: _get(e, "telemetry", "enabled_seconds"),
    "streaming": lambda e: _get(e, "streaming", "seconds"),
    "store_build": lambda e: _get(e, "store", "build_seconds"),
    "store_analyze": lambda e: _get(e, "store", "analyze_seconds"),
    "store_stream": lambda e: _get(e, "store", "stream_seconds"),
    "report_fused": lambda e: _get(e, "report", "fused_seconds"),
}

#: Stage label -> throughput extractor (tuples/s, higher is better).
#: Gated inversely to the seconds stages: a regression is the newest
#: run's *rate* falling below every recent same-mode run's by more than
#: the tolerance factor.  Store build/analyze regressions trip CI here
#: even when their wall seconds hide inside the end-to-end sum.
RATE_EXTRACTORS: Dict[str, Callable[[dict], Optional[float]]] = {
    "store_build_rate": lambda e: _get(e, "store", "build_tuples_per_second"),
    "store_build_parallel_rate": lambda e: _get(
        e, "store", "build_parallel_tuples_per_second"
    ),
    "store_analyze_rate": lambda e: _get(e, "store", "analyze_tuples_per_second"),
    "store_stream_rate": lambda e: _get(e, "store", "stream_tuples_per_second"),
}

#: Synthetic end-to-end row: the sum of every recorded stage, so the
#: trend table closes with one comparable total per run.
END_TO_END = "end_to_end"


def load_history(path: Path, section: str = "bench_baseline") -> List[dict]:
    """Parse the history JSONL, keeping well-formed ``section`` entries."""
    entries = []
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return entries
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and record.get("section") == section:
            entries.append(record)
    return entries


def stage_seconds(entry: dict) -> Dict[str, float]:
    """Per-stage wall times of one entry, plus the end-to-end sum."""
    stages = {
        label: value
        for label, extract in STAGE_EXTRACTORS.items()
        if (value := extract(entry)) is not None
    }
    if stages:
        stages[END_TO_END] = round(sum(stages.values()), 4)
    return stages


def stage_rates(entry: dict) -> Dict[str, float]:
    """Per-stage throughputs (tuples/s) of one entry; no synthetic sum."""
    return {
        label: value
        for label, extract in RATE_EXTRACTORS.items()
        if (value := extract(entry)) is not None and value > 0
    }


def trend_table(entries: List[dict], mode: str, last: int) -> Optional[str]:
    """The per-stage trend of ``mode`` entries as a rendered table."""
    selected = [e for e in entries if e.get("mode") == mode][-last:]
    if not selected:
        return None
    per_run = [stage_seconds(entry) for entry in selected]
    per_run_rates = [stage_rates(entry) for entry in selected]
    headers = ["stage"] + [
        str(entry.get("recorded", "?"))[:19] for entry in selected
    ]
    rows = []
    for label in [*STAGE_EXTRACTORS, END_TO_END]:
        values = [run.get(label) for run in per_run]
        if all(value is None for value in values):
            continue
        rows.append(
            [label] + [f"{v:.3f}s" if v is not None else "-" for v in values]
        )
    for label in RATE_EXTRACTORS:
        values = [run.get(label) for run in per_run_rates]
        if all(value is None for value in values):
            continue
        rows.append(
            [label] + [f"{v:,.0f}/s" if v is not None else "-" for v in values]
        )
    return render_table(
        headers, rows, title=f"BENCH_history trend — mode={mode} "
        f"(last {len(selected)} run(s))"
    )


#: Same-mode predecessors considered per stage in ``--check`` mode.
BASELINE_WINDOW = 3


def check_regressions(entries: List[dict], tolerance: float) -> List[str]:
    """Stage regressions of the newest run vs its same-mode window.

    A stage fails only when the newest run is slower than *every* one
    of the last :data:`BASELINE_WINDOW` same-mode predecessors that
    recorded it by more than ``tolerance`` — one historically noisy
    run can never mask a regression the rest of the window would
    catch, and one historically *fast* run can't trip the gate on its
    own.  The end-to-end total is re-summed per predecessor over the
    stages shared with the newest entry, so history written before a
    stage existed never counts the new stage as a regression.  The
    store throughput stages (:data:`RATE_EXTRACTORS`, tuples/s) are
    gated the same way with the ratio inverted — higher is better, so
    the newest rate must fall below every recent run's by more than the
    tolerance factor to fail.  Returns human-readable failure strings;
    empty means the gate passes.
    """
    failures = []
    for mode in ("check", "full"):
        selected = [e for e in entries if e.get("mode") == mode]
        if len(selected) < 2:
            continue
        window = [stage_seconds(e) for e in selected[-1 - BASELINE_WINDOW:-1]]
        newest = stage_seconds(selected[-1])
        rate_window = [stage_rates(e) for e in selected[-1 - BASELINE_WINDOW:-1]]
        newest_rates = stage_rates(selected[-1])
        # Per label: the smallest newest-vs-predecessor slowdown ratio,
        # i.e. the comparison against the stage's most favorable recent
        # run (for rates the ratio is old/new, so "slowdown" throughout).
        best: Dict[str, tuple] = {}

        def _consider(label, old_value, new_value, invert=False):
            if old_value is None or old_value <= 0 or new_value is None:
                return
            if invert and new_value <= 0:
                return
            ratio = old_value / new_value if invert else new_value / old_value
            if label not in best or ratio < best[label][0]:
                best[label] = (ratio, old_value, new_value)

        for previous in window:
            shared = [
                label for label in STAGE_EXTRACTORS
                if label in previous and label in newest
            ]
            for label in shared:
                _consider(label, previous[label], newest[label])
            if shared:
                _consider(
                    END_TO_END,
                    sum(previous[label] for label in shared),
                    sum(newest[label] for label in shared),
                )
        for previous in rate_window:
            for label in RATE_EXTRACTORS:
                if label in previous and label in newest_rates:
                    _consider(
                        label, previous[label], newest_rates[label], invert=True
                    )
        for label, (ratio, old_value, new_value) in sorted(best.items()):
            if ratio > 1.0 + tolerance:
                unit = "/s" if label in RATE_EXTRACTORS else "s"
                fmt = "{:,.0f}" if label in RATE_EXTRACTORS else "{:.3f}"
                failures.append(
                    f"[{mode}] {label} regressed {ratio:.2f}x: "
                    f"{fmt.format(old_value)}{unit} -> "
                    f"{fmt.format(new_value)}{unit} "
                    f"(tolerance {1.0 + tolerance:.2f}x)"
                )
    return failures


def main(argv=None) -> int:
    """CLI entry point: print the trend, optionally gate regressions."""
    parser = argparse.ArgumentParser(
        description="Print the BENCH_history.jsonl perf trend per stage."
    )
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY_PATH,
                        help="history JSONL path (default: repo root)")
    parser.add_argument("--last", type=int, default=5,
                        help="runs per mode to show in the table (default: 5)")
    parser.add_argument("--check", action="store_true",
                        help="fail when the newest run regressed vs the "
                        "previous same-mode run beyond --tolerance")
    parser.add_argument("--tolerance", type=float, default=1.0,
                        help="allowed fractional slowdown per stage vs the "
                        "most favorable recent same-mode run in --check "
                        "mode (default: 1.0 = 2x, sized for shared-host "
                        "timing noise)")
    args = parser.parse_args(argv)

    entries = load_history(args.history)
    if not entries:
        print(f"no bench_baseline history at {args.history}")
        return 0
    printed = False
    for mode in ("check", "full"):
        table = trend_table(entries, mode, max(args.last, 1))
        if table is not None:
            if printed:
                print()
            print(table)
            printed = True
    if not args.check:
        return 0
    failures = check_regressions(entries, args.tolerance)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench_report --check: no stage regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

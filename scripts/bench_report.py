"""Same-host perf gate: ``bench_baseline --check`` A/B against a base commit.

Extracts the base commit with ``git archive`` into a temporary directory
(no worktree, no ``.git`` change), then runs
``python -m scripts.bench_baseline --check --output <tmp>`` :data:`PAIRS`
times in that tree and as often in the working tree, alternating which
tree goes first.  Every run is a fresh interpreter whose cwd and
``PYTHONPATH`` point at its own tree, so both sides time the same stages
on the same host, minutes apart.

The per-stage wall times (scenario builds, the analysis stages,
telemetry, streaming, the out-of-core store and the fused report suite)
and the store build/analyze/stream throughputs (tuples/s) are reduced to
per-side medians and printed as one table.  The gate fails (exit 1) when
a stage's change median is slower than its base median by more than
:data:`TOLERANCE` (1.0, i.e. 2x), or when a throughput falls below the
base by more than the same factor; the synthetic ``end_to_end`` row sums
the stages both sides recorded and is gated the same way.  Stages only
one side recorded are skipped, so a PR that adds or removes a stage is
never failed for it.

The base is ``HEAD`` when tracked files differ from it, else ``HEAD~1``;
``--base REV`` names another revision.  A base that cannot be resolved
(a shallow clone) passes with a note.  A failing working-tree run fails
the gate and prints that run's stderr; a failing base run is reported as
a base failure, and the gate then rests on the working tree's own checks.

Usage::

    PYTHONPATH=src python -m scripts.bench_report               # vs the parent
    PYTHONPATH=src python -m scripts.bench_report --base HEAD~3
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.report import render_table  # noqa: E402


def _get(entry: dict, *path):
    """``entry[path[0]][path[1]]...`` or None when any hop is missing."""
    value = entry
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _analysis_seconds(entry: dict, stage: str) -> Optional[float]:
    """Fused-engine seconds of one analysis stage."""
    return _get(entry, "analysis", "stages", stage, "fused_seconds")


#: Stage label -> extractor over one ``bench_baseline`` payload, in
#: display order.  Extractors return seconds (float) or None when the
#: payload predates the stage or the stage was skipped.
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
#: Gated inversely to the seconds stages: a regression is the change's
#: rate falling below the base rate by more than the tolerance factor.
#: Store build/analyze regressions trip the gate here even when their
#: wall seconds hide inside the end-to-end sum.
RATE_EXTRACTORS: Dict[str, Callable[[dict], Optional[float]]] = {
    "store_build_rate": lambda e: _get(e, "store", "build_tuples_per_second"),
    "store_build_parallel_rate": lambda e: _get(
        e, "store", "build_parallel_tuples_per_second"
    ),
    "store_analyze_rate": lambda e: _get(e, "store", "analyze_tuples_per_second"),
    "store_stream_rate": lambda e: _get(e, "store", "stream_tuples_per_second"),
}

#: Synthetic end-to-end row: the sum of every stage both sides recorded.
END_TO_END = "end_to_end"

#: Allowed fractional slowdown per stage: 1.0 is 2x.  Untouched
#: check-scale stages jitter by up to ~1.8x run to run on loaded shared
#: hosts, so anything tighter gates on the weather.
TOLERANCE = 1.0

#: Alternating base/change run pairs per gate.
PAIRS = 3


def stage_seconds(entry: dict) -> Dict[str, float]:
    """Per-stage wall times of one payload."""
    return {
        label: value
        for label, extract in STAGE_EXTRACTORS.items()
        if (value := extract(entry)) is not None
    }


def stage_rates(entry: dict) -> Dict[str, float]:
    """Per-stage throughputs (tuples/s) of one payload."""
    return {
        label: value
        for label, extract in RATE_EXTRACTORS.items()
        if (value := extract(entry)) is not None and value > 0
    }


def _medians(per_run: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-label median over the runs that recorded the label."""
    values: Dict[str, List[float]] = {}
    for run in per_run:
        for label, value in run.items():
            values.setdefault(label, []).append(value)
    return {label: statistics.median(found) for label, found in values.items()}


def format_seconds(value: float) -> str:
    """A stage time at a precision that shows it: ``1.234s`` from one
    second up, milliseconds to three significant digits below."""
    if value >= 0.9995:
        return f"{value:.3f}s"
    return f"{value * 1e3:.3g}ms"


def compare(
    base: Sequence[dict], change: Sequence[dict], tolerance: float = TOLERANCE
) -> Tuple[List[list], List[str]]:
    """Table rows and failures of the change medians vs the base medians.

    Each row is ``[stage, base, change, ratio]``, where ratio is the
    slowdown (change/base for seconds, base/change for rates), so above
    1 is worse.  A stage fails when its ratio exceeds ``1 + tolerance``.
    Stages absent from either side, or with a zero base, are skipped.
    """
    base_s = _medians([stage_seconds(entry) for entry in base])
    change_s = _medians([stage_seconds(entry) for entry in change])
    base_r = _medians([stage_rates(entry) for entry in base])
    change_r = _medians([stage_rates(entry) for entry in change])
    rows: List[list] = []
    failures: List[str] = []

    def _gate(label, old, new, rate=False):
        if old <= 0:
            return
        ratio = old / new if rate else new / old
        fmt = "{:,.0f}/s".format if rate else format_seconds
        rows.append([label, fmt(old), fmt(new), f"{ratio:.2f}x"])
        if ratio > 1.0 + tolerance:
            failures.append(
                f"{label} regressed {ratio:.2f}x: {fmt(old)} -> "
                f"{fmt(new)} (tolerance {1.0 + tolerance:.2f}x)"
            )

    shared = [label for label in STAGE_EXTRACTORS if label in base_s and label in change_s]
    for label in shared:
        _gate(label, base_s[label], change_s[label])
    if shared:
        _gate(
            END_TO_END,
            sum(base_s[label] for label in shared),
            sum(change_s[label] for label in shared),
        )
    for label in RATE_EXTRACTORS:
        if label in base_r and label in change_r:
            _gate(label, base_r[label], change_r[label], rate=True)
    return rows, failures


class ChangeRunFailed(RuntimeError):
    """A ``bench_baseline --check`` run in the changed tree exited non-zero."""


def _bench_run(tree: Path, output: Path) -> subprocess.CompletedProcess:
    """One ``bench_baseline --check`` in a fresh interpreter rooted at ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "scripts.bench_baseline", "--check",
         "--output", str(output)],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def collect_runs(
    base_tree: Path, change_tree: Path, workdir: Path, pairs: int = PAIRS
) -> Tuple[List[dict], List[dict], Optional[str]]:
    """Alternate ``pairs`` base/change runs; returns both sides' payloads.

    The third element is the stderr of a failed base run (no further
    base runs follow it), or None.  A failed change run raises
    :class:`ChangeRunFailed` carrying its stderr.
    """
    runs: Dict[str, List[dict]] = {"base": [], "change": []}
    base_error = None
    for pair in range(pairs):
        order = [("base", base_tree), ("change", change_tree)]
        if pair % 2:
            order.reverse()
        for side, tree in order:
            if side == "base" and base_error is not None:
                continue
            output = workdir / f"{side}-{pair}.json"
            proc = _bench_run(tree, output)
            if proc.returncode != 0:
                if side == "change":
                    raise ChangeRunFailed(proc.stderr)
                base_error = proc.stderr
                continue
            runs[side].append(json.loads(output.read_text())["bench_baseline"])
            print(f"pair {pair + 1}/{pairs}: {side} run done", flush=True)
    return runs["base"], runs["change"], base_error


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=_REPO_ROOT, capture_output=True)


def resolve_base(rev: Optional[str] = None) -> Optional[str]:
    """The base commit's sha: ``rev``, else HEAD when tracked files differ
    from it, else HEAD~1.  None when the revision does not resolve."""
    if rev is None:
        rev = "HEAD" if _git("diff", "--quiet", "HEAD", "--").returncode else "HEAD~1"
    sha = _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}").stdout
    return sha.decode().strip() or None


def extract_tree(sha: str, destination: Path) -> None:
    """Write commit ``sha``'s tracked files into ``destination``."""
    archive = _git("archive", "--format=tar", sha)
    if archive.returncode:
        raise RuntimeError(archive.stderr.decode())
    destination.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(destination)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    """CLI entry point: A/B the working tree against the base; 1 on regression."""
    parser = argparse.ArgumentParser(
        description="Gate per-stage bench_baseline --check medians against "
        "a base commit's, run on this host."
    )
    parser.add_argument("--base", default=None,
                        help="base revision (default: HEAD when tracked files "
                        "differ from it, else HEAD~1)")
    args = parser.parse_args(argv)

    sha = resolve_base(args.base)
    if sha is None:
        print(f"bench_report: base {args.base or 'revision'} does not resolve "
              "(shallow clone?); nothing to compare, gate skipped")
        return 0
    print(f"bench_report: {PAIRS} alternating bench_baseline --check pairs, "
          f"working tree vs {sha[:12]}", flush=True)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ab-") as tmp:
        base_tree = Path(tmp) / "base"
        extract_tree(sha, base_tree)
        try:
            base, change, base_error = collect_runs(base_tree, _REPO_ROOT, Path(tmp))
        except ChangeRunFailed as error:
            print(str(error), file=sys.stderr)
            print("FAIL: bench_baseline --check failed in the working tree",
                  file=sys.stderr)
            return 1
    if base_error is not None:
        print(base_error, file=sys.stderr)
        print(f"bench_report: base failure — bench_baseline --check failed at "
              f"{sha[:12]}; nothing to compare, the working tree's own checks "
              "passed")
        return 0
    rows, failures = compare(base, change)
    print(render_table(
        ["stage", "base", "change", "ratio"], rows,
        title=f"bench_baseline --check medians of {len(change)} run(s), "
        f"base {sha[:12]} vs working tree",
    ))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench_report: no stage regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload atlas-pipeline --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/`` and the metric names come from ``BENCHMARK.json``.  Inputs are
generated from ``--seed`` only.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every ``end_to_end`` metric with ``--trace 0``, every
``per_layer`` metric with ``--trace 1`` (zero for a layer the workload
bypasses).  End-to-end timings are scaled to the reference host's speed
(``common.HostSpeed``).  The line before it holds the workload's detail:
its timings under their own names, each median with its tail and sample
count, the host-speed factors applied, and with ``--trace 1`` the
per-span self-time table.  Traced runs also write their spans to
``.bench_out/`` as JSON lines.

Scratch files go to ``.bench_tmp/`` inside the checkout and are removed
on exit.  The exit code is 0 when a result was printed (failed
operations are reported in it), and non-zero when the benchmark itself
could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from common import HostSpeed, Ledger, Tracer

WORKLOADS = {
    "atlas-pipeline": "atlas_pipeline",
    "serve-mixed": "serve_mixed",
    "cdn-store": "cdn_store",
}

#: Program knobs that would change what is measured; the benchmark runs
#: the defaults (serial unless a workload asks, cache and telemetry off).
PROGRAM_ENV = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_WORKERS",
    "REPRO_TELEMETRY",
    "REPRO_ANALYSIS_ENGINE",
    "REPRO_PROFILE",
    "REPRO_PROFILE_DIR",
    "REPRO_LOG",
)


@dataclass
class Context:
    """What a workload's ``run(ctx)`` gets."""

    root: Path
    scratch: Path
    seed: int
    seconds: float
    scale: str
    ledger: Ledger
    tracer: Tracer
    speed: HostSpeed
    #: Environment for child interpreters (program on the path, scratch as TMPDIR).
    env: dict
    #: ``--trace 1``: measure the per-layer metrics instead of the end-to-end ones.
    trace: bool


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is what the smoke test runs",
    )
    parser.add_argument(
        "--reference-fault", action="store_true",
        help="corrupt the reference answers, so every affected operation fails",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or not (
        root / "BENCHMARK.json"
    ).is_file():
        print(
            "perfbench: run from the root of a source checkout "
            "(src/repro/ and BENCHMARK.json not found)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    specs = spec["per_layer" if args.trace else "end_to_end"]

    tmp_root = root / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    src = str(root / "src")
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    signal.signal(signal.SIGTERM, _terminate)

    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}"
    ledger = Ledger(reference_fault=args.reference_fault)
    tracer = Tracer(enabled=False, run_id=run_id)
    ctx = Context(
        root=root,
        scratch=scratch,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        ledger=ledger,
        tracer=tracer,
        speed=HostSpeed(),
        env=env,
        trace=bool(args.trace),
    )
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        metrics, detail = module.run(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    names = {entry["name"] for entry in specs}
    unknown = sorted(set(metrics) - names)
    if unknown:
        print(f"perfbench: unlisted metrics {unknown}", file=sys.stderr)
        return 1
    out = {}
    for entry in specs:
        name = entry["name"]
        if name in metrics:
            value = metrics[name]
        elif args.trace:
            value = 0.0  # a layer this workload does not touch
        else:
            print(f"perfbench: {args.workload} did not measure {name}", file=sys.stderr)
            return 1
        out[name] = {"value": float(value), "unit": entry["unit"]}
    detail["host_speed"] = ctx.speed.summary()
    if args.trace:
        detail["self_time"] = tracer.self_times()
        spans_path = root / ".bench_out" / f"spans-{run_id}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(root))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failures": ledger.reasons,
        "detail": detail,
    }, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

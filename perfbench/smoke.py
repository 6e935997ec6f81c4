"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For every workload in
``BENCHMARK.json`` it makes a tiny-scale untraced and traced run and
checks that each listed metric comes out with its unit and no operation
fails, then a run with a deliberately corrupted reference, which must
count failed operations.  Last, it checks that the benchmark refuses to
run in a directory holding only ``BENCHMARK.json`` and the benchmark's
own files.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 600


def _run(cwd: Path, workload: str, trace: int, fault: bool = False):
    command = [
        sys.executable, str(Path(HERE.name) / "run.py"), "--workload", workload,
        "--seed", "11", "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ] + (["--reference-fault"] if fault else [])
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"perfbench smoke: {message}")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(_run(root, workload, trace))
            _check(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expected = {entry["name"]: entry["unit"] for entry in spec[key]}
            got = {name: metric["unit"] for name, metric in result["metrics"].items()}
            _check(got == expected, f"{workload} trace={trace}: metrics {got} != {expected}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                _check(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{workload}: {name} = {value!r}")
                if key == "end_to_end":
                    _check(value > 0, f"{workload}: {name} reads {value}")
            _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed")
        faulty = _result(_run(root, workload, 0, fault=True))
        _check(not faulty["correct"] and faulty["failed"] >= 1,
               f"{workload}: a corrupted reference was not counted as a failure")
        print(f"{workload}: ok")

    (root / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=root / ".bench_tmp"))
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        _check(proc.returncode != 0 and not proc.stdout.strip(),
               "the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (root / ".bench_tmp").rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("bare directory: refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

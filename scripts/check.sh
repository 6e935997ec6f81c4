#!/usr/bin/env bash
# Repo health check: lint (when available) + tests + bench smoke and trend
# gate + the repo benchmark's smoke test.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. ruff check src/ tests/ scripts/   (skipped when ruff is not installed)
#   2. python -m pytest -x -q            (the tier-1 suite)
#   3. python -m scripts.bench_baseline --check   (incl. the obs stage:
#      disabled-telemetry overhead + stitched pooled-trace invariance)
#   4. python -m scripts.bench_report --check   (perf-trend regression gate)
#   5. python3 perfbench/smoke.py   (every benchmark workload at a tiny scale,
#      untraced and traced: metrics present, reference checks pass; ~40 s)
#   6. python -m pytest benchmarks -q --benchmark-disable   (the paper-shape
#      gate: every table/figure benchmark's qualitative assertions; ~40 s)
#
# Exits non-zero on the first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"
export PYTHONPATH="$repo_root/src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests scripts
elif python -c "import ruff" >/dev/null 2>&1; then
    echo "== ruff check (module) =="
    python -m ruff check src tests scripts
else
    echo "== ruff not installed, lint skipped ==" >&2
fi

echo "== pytest =="
python -m pytest -x -q

echo "== bench_baseline --check =="
python -m scripts.bench_baseline --check

echo "== bench_report --check =="
python -m scripts.bench_report --check

echo "== perfbench smoke =="
python3 perfbench/smoke.py

echo "== paper shapes (benchmarks) =="
python -m pytest benchmarks -q --benchmark-disable

echo "== all checks passed =="

#!/usr/bin/env bash
# Repo health check: lint (when available) + tests + the same-host perf
# gate + the repo benchmark's smoke test + the paper-shape benchmarks.
#
#   ./scripts/check.sh
#
# Runs, in order:
#   1. ruff check src/ tests/ scripts/   (skipped when ruff is not installed)
#   2. python -m pytest -x -q            (the tier-1 suite)
#   3. python -m scripts.bench_report   (runs bench_baseline --check three
#      times in the working tree and three times in the base commit —
#      HEAD when tracked files differ from it, else HEAD~1 — extracted
#      with git archive, alternating; every run enforces the
#      bench's own checks — determinism, parity, the obs stage's stitched
#      pooled-trace invariance — and the per-stage medians must stay
#      within 2x of the parent's; ~40 s)
#   4. python3 perfbench/smoke.py   (every benchmark workload at a tiny scale,
#      untraced and traced: metrics present, reference checks pass; ~40 s)
#   5. python -m pytest benchmarks -q --benchmark-disable   (the paper-shape
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

echo "== bench_report (same-host A/B vs the parent) =="
python -m scripts.bench_report

echo "== perfbench smoke =="
python3 perfbench/smoke.py

echo "== paper shapes (benchmarks) =="
python -m pytest benchmarks -q --benchmark-disable

echo "== all checks passed =="

"""The same-host perf gate: ``scripts.bench_report``'s comparison rule.

Unit tests drive :func:`scripts.bench_report.compare` on synthetic
``bench_baseline`` payloads; one end-to-end test runs the A/B over two
copies of the source tree, one of them with a sleep injected into the
Atlas sanitizer, and checks the gate catches it.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from scripts.bench_report import (
    END_TO_END,
    TOLERANCE,
    ChangeRunFailed,
    collect_runs,
    compare,
    format_seconds,
    main,
)

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _payload(atlas=1.0, cdn=1.0, analyze_rate=None, report=None) -> dict:
    payload = {
        "build": {
            "atlas": {"serial_seconds": atlas},
            "cdn": {"serial_seconds": cdn},
        },
    }
    if analyze_rate is not None:
        payload["store"] = {"analyze_tuples_per_second": analyze_rate}
    if report is not None:
        payload["report"] = {"fused_seconds": report}
    return payload


def _failed_stages(failures):
    return sorted(failure.split()[0] for failure in failures)


def test_tolerance_is_two_x():
    assert TOLERANCE == 1.0


def test_stage_over_two_x_fails():
    _rows, failures = compare([_payload(atlas=1.0)], [_payload(atlas=2.1)])
    assert _failed_stages(failures) == ["build_atlas"]
    assert "2.10x" in failures[0]


def test_stage_under_two_x_passes():
    rows, failures = compare([_payload(atlas=1.0)], [_payload(atlas=1.9)])
    assert failures == []
    assert ["build_atlas", "1.000s", "1.900s", "1.90x"] in rows


def test_rate_below_half_fails():
    base = [_payload(analyze_rate=1_000_000)]
    _rows, failures = compare(base, [_payload(analyze_rate=490_000)])
    assert _failed_stages(failures) == ["store_analyze_rate"]
    _rows, failures = compare(base, [_payload(analyze_rate=510_000)])
    assert failures == []


def test_faster_change_passes():
    _rows, failures = compare(
        [_payload(atlas=1.0, analyze_rate=1_000)],
        [_payload(atlas=0.1, analyze_rate=100_000)],
    )
    assert failures == []


def test_stage_on_one_side_only_is_skipped():
    rows, failures = compare([_payload(report=0.01)], [_payload()])
    assert failures == []
    assert "report_fused" not in [row[0] for row in rows]
    rows, failures = compare([_payload()], [_payload(report=5.0)])
    assert failures == []
    assert "report_fused" not in [row[0] for row in rows]


def test_sub_second_stages_print_in_milliseconds():
    # Per-call stages of a few ms must not all read 0.001s/0.006s.
    rows, failures = compare(
        [_payload(atlas=0.001234, cdn=0.0456)], [_payload(atlas=0.00125, cdn=0.3)]
    )
    assert ["build_atlas", "1.23ms", "1.25ms", "1.01x"] in rows
    assert ["build_cdn", "45.6ms", "300ms", "6.58x"] in rows
    assert failures == ["build_cdn regressed 6.58x: 45.6ms -> 300ms (tolerance 2.00x)",
                        f"{END_TO_END} regressed 6.43x: 46.8ms -> 301ms (tolerance 2.00x)"]
    assert format_seconds(12.0) == "12.000s"


def test_end_to_end_sums_shared_stages():
    # report_fused exists only in the change: it stays out of both sums,
    # so the total compares 2.0s with 3.0s, not with 53.0s.
    rows, failures = compare(
        [_payload(atlas=1.0, cdn=1.0)],
        [_payload(atlas=2.0, cdn=1.0, report=50.0)],
    )
    assert failures == []
    assert [END_TO_END, "2.000s", "3.000s", "1.50x"] in rows


def test_end_to_end_is_gated():
    _rows, failures = compare(
        [_payload(atlas=1.0, cdn=1.0)], [_payload(atlas=2.0, cdn=2.2)]
    )
    assert _failed_stages(failures) == ["build_cdn", END_TO_END]


def test_medians_per_side():
    # One slow outlier per side cannot move the median of three.
    base = [_payload(atlas=1.0), _payload(atlas=1.1), _payload(atlas=9.0)]
    change = [_payload(atlas=9.0), _payload(atlas=1.2), _payload(atlas=1.0)]
    rows, failures = compare(base, change)
    assert failures == []
    assert ["build_atlas", "1.100s", "1.200s", "1.09x"] in rows
    _rows, failures = compare(
        base, [_payload(atlas=3.0), _payload(atlas=2.5), _payload(atlas=1.0)]
    )
    assert _failed_stages(failures) == ["build_atlas"]


def _fake_tree(root: Path, body: str) -> Path:
    """A tree whose ``scripts.bench_baseline`` runs ``body`` with ``out`` set."""
    scripts = root / "scripts"
    scripts.mkdir(parents=True)
    (scripts / "__init__.py").write_text("")
    (scripts / "bench_baseline.py").write_text(
        "import json, sys\n"
        "out = sys.argv[sys.argv.index('--output') + 1]\n"
        + textwrap.dedent(body)
    )
    return root


_WRITES_RECORD = """
    with open(out, "w") as stream:
        json.dump({"bench_baseline": {"cwd": __import__("os").getcwd()}}, stream)
"""
_FAILS = """
    sys.stderr.write("stage exploded\\n")
    sys.exit(1)
"""


def test_runs_alternate_in_their_own_trees(tmp_path):
    base = _fake_tree(tmp_path / "base", _WRITES_RECORD)
    change = _fake_tree(tmp_path / "change", _WRITES_RECORD)
    base_runs, change_runs, base_error = collect_runs(base, change, tmp_path, pairs=3)
    assert base_error is None
    assert [run["cwd"] for run in base_runs] == [str(base)] * 3
    assert [run["cwd"] for run in change_runs] == [str(change)] * 3


def test_failing_change_run_fails_with_its_stderr(tmp_path):
    base = _fake_tree(tmp_path / "base", _WRITES_RECORD)
    change = _fake_tree(tmp_path / "change", _FAILS)
    with pytest.raises(ChangeRunFailed, match="stage exploded"):
        collect_runs(base, change, tmp_path, pairs=3)


def test_failing_base_run_is_a_base_failure(tmp_path):
    base = _fake_tree(tmp_path / "base", _FAILS)
    change = _fake_tree(tmp_path / "change", _WRITES_RECORD)
    base_runs, change_runs, base_error = collect_runs(base, change, tmp_path, pairs=3)
    assert "stage exploded" in base_error
    assert base_runs == []
    assert len(change_runs) == 3  # the working tree's checks still ran


def test_unresolvable_base_passes_with_a_note(capsys):
    assert main(["--base", "no-such-revision-anywhere"]) == 0
    assert "does not resolve" in capsys.readouterr().out


def _copy_tree(destination: Path) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    for part in ("src", "scripts"):
        shutil.copytree(_REPO_ROOT / part, destination / part, ignore=ignore)
    return destination


def test_injected_sanitize_sleep_fails_the_gate(tmp_path):
    base = _copy_tree(tmp_path / "base")
    change = _copy_tree(tmp_path / "change")
    sanitize = change / "src" / "repro" / "atlas" / "sanitize.py"
    with sanitize.open("a") as stream:
        stream.write(
            "\n\nimport time as _injected_time\n"
            "_unslowed_sanitize = sanitize\n\n\n"
            "def sanitize(*args, **kwargs):\n"
            "    _injected_time.sleep(0.3)\n"
            "    return _unslowed_sanitize(*args, **kwargs)\n"
        )
    base_runs, change_runs, base_error = collect_runs(
        base, change, tmp_path, pairs=1
    )
    assert base_error is None
    assert len(base_runs) == len(change_runs) == 1
    _rows, failures = compare(base_runs, change_runs)
    assert "build_atlas" in _failed_stages(failures)

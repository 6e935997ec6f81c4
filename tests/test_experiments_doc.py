"""Guard: every EXPERIMENTS.md section names benchmark files that assert it.

A section heading ends in the benchmark files that check its paper
shape, e.g. ``## Table 1 — ... (`benchmarks/test_table1.py`)``.  Each
named file must exist and define a test, and every benchmark file must
be named by some heading, so no shape is claimed without a test and no
benchmark asserts an undocumented shape.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
HEADING = re.compile(r"^## .*\((`benchmarks/test_\w+\.py`(?:, `benchmarks/test_\w+\.py`)*)\)\s*$")


def _named_files() -> dict:
    """``{benchmark path: [headings naming it]}`` from EXPERIMENTS.md."""
    named: dict = {}
    for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines():
        match = HEADING.match(line)
        if match:
            for path in re.findall(r"`([^`]+)`", match.group(1)):
                named.setdefault(path, []).append(line)
    return named


def _test_functions(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
    ]


def test_headings_name_existing_benchmarks():
    named = _named_files()
    assert named, "no `## ... (`benchmarks/test_*.py`)` headings found"
    for path, headings in named.items():
        file = ROOT / path
        assert file.is_file(), f"{headings[0]!r} names missing {path}"
        assert _test_functions(file), f"{path} defines no test_ function"


def test_every_benchmark_is_named():
    named = set(_named_files())
    files = {f"benchmarks/{file.name}" for file in (ROOT / "benchmarks").glob("test_*.py")}
    assert files, "no benchmark files found"
    assert sorted(files - named) == []

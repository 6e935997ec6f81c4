"""Reachability guard: no module under ``src/repro`` is dead code.

Every module must be imported by another ``src`` module or by a
runtime surface (``perfbench/``, ``benchmarks/``, ``scripts/``,
``examples/``); imports from tests do not count, since a module only
tests reach is code nothing runs.  ``repro.__main__`` is the CLI entry
point, and a package counts as reached when any of its submodules is
(importing the submodule runs the package).  Imports are read
statically, lazy function-level imports included.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SURFACES = ("perfbench", "benchmarks", "scripts", "examples")
ENTRY_POINTS = {"repro.__main__"}
#: Modules allowed to be unreached.  Keep it empty: delete dead code instead.
EXEMPT: set = set()


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path, known: set) -> set:
    """Every known ``repro`` module the file at ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {name for name in names if name in known}


def _unreached() -> list:
    modules = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}
    known = set(modules)
    reached = set(ENTRY_POINTS)
    for name, path in modules.items():
        reached |= _imported_names(path, known) - {name}
    for surface in SURFACES:
        for path in (ROOT / surface).rglob("*.py"):
            reached |= _imported_names(path, known)
    # A package is reached when any submodule is.
    for name in list(reached):
        parts = name.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return sorted(known - reached - EXEMPT)


def test_every_module_is_reached():
    assert _unreached() == []


def test_scanner_sees_lazy_and_from_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f():\n"
        "    from repro.store import kernels\n"
        "    import repro.core.changes\n"
    )
    known = {"repro.store", "repro.store.kernels", "repro.core.changes", "repro.cli"}
    assert _imported_names(probe, known) == {
        "repro.store", "repro.store.kernels", "repro.core.changes"
    }

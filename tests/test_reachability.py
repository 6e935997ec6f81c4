"""Reachability guard: no module under ``src/repro`` is dead code.

Every module must be imported by another ``src`` module or by a
runtime surface (``perfbench/``, ``benchmarks/``, ``scripts/``,
``examples/``); imports from tests do not count, since a module only
tests reach is code nothing runs.  ``repro.__main__`` is the CLI entry
point, and a package counts as reached when any of its submodules is
(importing the submodule runs the package).  Imports are read
statically, lazy function-level imports included.

The same holds one level down: every public top-level function or
class under ``src/repro`` must be referenced by name — as a name, an
attribute or an imported name — in ``src``, ``tests`` or a runtime
surface.  Its own ``def``/``class`` line and its ``__all__`` string are
not references.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SURFACES = ("perfbench", "benchmarks", "scripts", "examples")
ENTRY_POINTS = {"repro.__main__"}
#: Modules allowed to be unreached.  Keep it empty: delete dead code instead.
EXEMPT: set = set()
#: Directories searched for references to public names.
NAME_SEARCH = ("src", "tests") + SURFACES
#: Public names allowed to be unreferenced.  Keep it empty too.
EXEMPT_NAMES: set = set()


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


def _public_definitions(path: Path) -> set:
    """Public top-level functions and classes defined in ``path``."""
    return {
        node.name
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _referenced_names(path: Path) -> set:
    """Every identifier ``path`` uses as a name, attribute or import."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def _unreferenced(root: Path = ROOT) -> list:
    defined = {
        (name, path.relative_to(root).as_posix())
        for path in (root / "src" / "repro").rglob("*.py")
        for name in _public_definitions(path)
    }
    referenced = set()
    for directory in NAME_SEARCH:
        for path in (root / directory).rglob("*.py"):
            referenced |= _referenced_names(path)
    return sorted(
        (name, where) for name, where in defined
        if name not in referenced and name not in EXEMPT_NAMES
    )


def test_every_public_name_is_referenced():
    assert _unreferenced() == []


def test_name_scanner_ignores_definition_and_all(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "import repro\n"
        "class Used:\n"
        "    pass\n"
        "def called():\n"
        "    return repro.mod.attribute_use()\n"
        "def attribute_use():\n"
        "    return Used()\n"
        "def imported():\n"
        "    pass\n"
        "def dead():\n"
        "    '''Only strings name dead.'''\n"
        "def _private():\n"
        "    pass\n"
        "__all__ = ['Used', 'called', 'attribute_use', 'imported', 'dead']\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from repro.mod import called, imported\n"
    )
    assert _unreferenced(tmp_path) == [("dead", "src/repro/mod.py")]


def test_one_parity_harness_per_workload():
    """``repro.perf.verify`` holds one harness per workload plus the CDN
    build comparator; a new per-path harness must change this on purpose."""
    from repro.perf import verify

    harnesses = ["association_diffs", "atlas_diffs", "serve_diffs", "stream_diffs"]
    assert sorted(verify.__all__) == sorted(harnesses + ["cdn_scenario_diffs"])
    public = {
        name for name, value in vars(verify).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == verify.__name__
    }
    assert public == set(verify.__all__)

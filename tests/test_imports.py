"""The import graph of the package, read from the source with `ast`.

Every import of a `dgquiver` module sits at module level, and the module
level graph has no cycle: a module can then be loaded on its own, and two
loaded copies of the package do not reach into each other through an
import that runs at call time.  The echelon basis of `RowSpace` is read
and written by `linalg` alone, which keeps its invariants, and so are the
stored rows of `SparseMatrix`, whose order it decides.  The package
imports the standard library alone, as `pyproject.toml` declares no
dependencies, and its `test` extra names every third-party module that the
tests import.  Every name the package exports has a reader outside the
tests, or a reason to stay in `KEPT` and a test file that reads it; no
submodule is exported.
"""

from __future__ import annotations

import ast
import re
import sys
import types
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import dgquiver

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dgquiver"
TESTS = ROOT / "tests"

# Exports with no reader in src/, demos/ or perfbench/: the test file that
# reads each, and the reason it stays.
KEPT = {
    "serialize": (
        "test_cli_properties.py",
        "the inverse of parse, round-tripped by the CLI property tests",
    ),
    "sub_dg_completion": (
        "test_dg.py",
        "Keller's identification of the Ginzburg dg-algebra with the deformed "
        "m-Calabi-Yau completion of the relation dg-algebra",
    ),
}


def _package_imports(node: ast.AST) -> list[str]:
    """The `dgquiver` modules that one import statement names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] != "dgquiver":
            return []
        if node.module is None or node.module == "dgquiver":  # from . import x
            return [alias.name for alias in node.names]
        return [node.module.removeprefix("dgquiver.")]
    if isinstance(node, ast.Import):
        return [
            alias.name.removeprefix("dgquiver.")
            for alias in node.names if alias.name.split(".")[0] == "dgquiver"
        ]
    return []


def _absolute_imports(tree: ast.AST) -> set[str]:
    """The top-level module names that the absolute imports in `tree` name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def test_no_package_import_inside_a_function():
    nested = []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if _package_imports(node):
                        nested.append(f"{name}.{func.name}")
    assert nested == []


def test_module_level_import_graph_is_acyclic():
    graph = {
        name: {dep for node in tree.body for dep in _package_imports(node)}
        for name, tree in _trees().items()
    }
    try:
        list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None


def test_only_linalg_touches_the_pivot_rows():
    # `RowSpace._pivots` and `SparseMatrix._by_row`, whose order `rank`
    # decides for a matrix
    touching = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _trees().items() if name != "linalg"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("_pivots", "_by_row")
        or isinstance(node, ast.Constant) and node.value in ("_pivots", "_by_row")
    )
    assert touching == []


def test_test_extra_names_every_third_party_import():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    named = {re.match(r"[\w.-]+", req).group() for req in project["optional-dependencies"]["test"]}
    local = {path.stem for path in TESTS.glob("*.py")} | {"dgquiver"}
    imported = set().union(
        *(_absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
          for path in TESTS.glob("*.py"))
    )
    assert imported - sys.stdlib_module_names - local - named == set()


def test_package_imports_only_the_standard_library():
    outside = {
        name: sorted(_absolute_imports(tree) - sys.stdlib_module_names - {"dgquiver"})
        for name, tree in _trees().items()
    }
    assert {name: names for name, names in outside.items() if names} == {}


def _reads(tree: ast.AST) -> set[str]:
    """The names and attributes that `tree` loads, leaving out those inside
    the definition of a function or class of the same name."""
    out = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def test_star_import_binds_no_module():
    # the submodules are the package's layout, not API: a star import binds
    # none of them over a caller's own `dg` or `quiver`
    ns = {}
    exec("from dgquiver import *", ns)
    assert [n for n, v in ns.items() if isinstance(v, types.ModuleType)] == []
    assert sorted(n for n in ns if n != "__builtins__") == sorted(dgquiver.__all__)


def test_every_export_has_a_reader_or_a_reason():
    exports = set(dgquiver.__all__)
    files = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in files))
    assert sorted(exports - read - KEPT.keys()) == []
    assert sorted(KEPT.keys() & read) == []
    assert sorted(KEPT.keys() - exports) == []
    unread = [
        name for name, (test_file, _) in KEPT.items()
        if name not in _reads(ast.parse((TESTS / test_file).read_text(encoding="utf-8")))
    ]
    assert unread == []

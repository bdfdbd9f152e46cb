"""Source hygiene: every imported name is used, every private
module-level name of the package is read somewhere in the package, and no
package module imports another one's private name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ulrich_forge").glob("*.py"))
# the package __init__ imports names only to re-export them
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    src = "import os\nimport a.b as c\nfrom x import y, z as w\nprint(y, c)\n"
    assert unused_imports(src) == ["os", "w"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_names(node: ast.stmt) -> list[str]:
    """Private names a top-level statement defines: a function, a class or
    assigned constants whose names start with an underscore, dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def _reads(node: ast.stmt) -> set[str]:
    """Names a statement reads, bare or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and not isinstance(n.ctx, ast.Store)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Private module-level names that no other top-level statement of
    these sources reads: an import alone, or a read inside the definition
    itself, keeps nothing alive."""
    statements = [node for source in sources for node in ast.parse(source).body]
    reads = [_reads(node) for node in statements]
    return [name for i, node in enumerate(statements) for name in _private_names(node)
            if not any(name in r for j, r in enumerate(reads) if j != i)]


def test_unreferenced_privates_are_found():
    module = ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f():\n    return _f()\n"
              "def _g():\n    return _A\n"
              "class _C:\n    pass\n")
    other = "import m\nfrom m import _g\nprint(m._B)\n"
    assert unreferenced_privates([module, other]) == ["_f", "_g", "_C"]


def test_no_unreferenced_private_names():
    # a helper that only tests call fails here
    assert unreferenced_privates([p.read_text() for p in PACKAGE]) == []


def imported_privates(source: str) -> list[str]:
    """Private names that a from-import takes from another module."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for a in node.names if a.name.startswith("_")]


def test_imported_privates_are_found():
    src = "from .a import b, _c\nfrom __future__ import annotations\nimport _d\n"
    assert imported_privates(src) == ["_c"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_private_name_imported_across_modules(path):
    # a name another module needs is public
    assert imported_privates(path.read_text()) == []

"""Source hygiene: every imported name is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the package __init__ imports names only to re-export them
SOURCES = sorted(p for p in (ROOT / "src" / "ulrich_forge").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


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

"""Source hygiene: no module in the package or the tests imports a name it
never uses.  A plain AST scan, so no linter is needed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "revext").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import and never read.  ``from __future__``
    imports are exempt, and so are the names a module lists in its
    ``__all__`` (the package's re-exports)."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used | exported)


def test_scan_finds_unused_imports():
    src = ("from __future__ import annotations\n"
           "import math\nimport os.path\nimport numpy as np\n"
           "from json import dumps, loads\n"
           "__all__ = ['loads']\n"
           "np.zeros(os.path.sep.count(''))\n")
    assert unused_imports(src) == ["line 2: math", "line 5: dumps"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

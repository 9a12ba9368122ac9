"""Every module under ``src/`` uses what it imports.

No linter ships with the project, so this reads each module's syntax tree
with the standard library: a name bound by an import must be read at least
once, in code or as a string annotation.  Package ``__init__`` modules
import to re-export and are skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree: ast.Module) -> set[str]:
    """Every name the module reads, and every string that is an identifier
    (a string annotation such as ``-> "TPMatrix"``)."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier()
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in read}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_modules_found():
    assert len(MODULES) >= 10

"""Static checks over the package and test sources, with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "regulus").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree):
    """Names bound by an import in ``tree`` that no other code reads.

    A name listed in a literal ``__all__`` counts as used, and a
    ``from __future__`` import binds nothing."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_finder():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import inf, nan as missing\n"
        "from .core import Exported\n"
        "__all__ = ['Exported']\n"
        "print(os.sep, inf)\n"
    )
    assert unused_imports(tree) == [(3, "np"), (4, "missing")]

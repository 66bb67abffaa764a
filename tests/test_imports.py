"""Every name a k3lat module imports is used in that module.

A stdlib-``ast`` stand-in for a linter's unused-import rule: it collects
the names bound by each ``import`` and ``from ... import`` (at any
depth, so function-local imports count too) and the names the module
reads anywhere, and fails on an import that is never read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "k3lat"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_unused_import():
    source = "from typing import List, Tuple\nimport os\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "Tuple"), (2, "os")]

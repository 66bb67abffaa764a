"""Every name a k3lat module imports is used in that module, and every
function it defines is referenced somewhere.

A stdlib-``ast`` stand-in for a linter's unused-import rule: it collects
the names bound by each ``import`` and ``from ... import`` (at any
depth, so function-local imports count too) and the names the module
reads anywhere, and fails on an import that is never read.

The dead-code rule: every non-dunder function or method defined in
``src/k3lat`` must be referenced by name in ``src/k3lat``, ``tests`` or
``bench``.  A function counts as referenced when it is read as a name
or an attribute, or imported; a method only when it is read as an
attribute or imported, so a local variable that shares its name does
not keep it alive.  A function registered as a CLI subcommand by a
``*.command()`` decorator is referenced by that decorator.

The dead-field rule: every field of a ``@dataclass`` in ``src/k3lat``
must be read as an attribute somewhere in ``src/k3lat``, ``tests`` or
``bench``.  Filling a field in a constructor call, assigning to it, or
reading a variable that shares its name does not count.

The rational rule: only ``exactla`` (for ``rat_express``) and ``roots``
(for the value of ``dual_class_min``) import ``fractions``; every other
module carries rational quantities as integer rows over a denominator.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "k3lat"


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


def _is_command(decorator: ast.expr) -> bool:
    return (
        isinstance(decorator, ast.Call)
        and isinstance(decorator.func, ast.Attribute)
        and decorator.func.attr == "command"
    )


def unreferenced_definitions(defining: dict, others: list) -> list:
    """(file, line, name) of each non-dunder function or method in the
    ``defining`` sources (file name -> text) that no source, of these or
    of ``others``, references: a function by a name, attribute or import,
    a method by an attribute or import only."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    names = set()
    attributes = set()  # attribute reads and imported names
    for tree in list(trees.values()) + [ast.parse(text) for text in others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name.split(".")[-1])
    everything = names | attributes
    out = []
    for file, tree in trees.items():
        methods = {
            id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
        }
        for node in ast.walk(tree):
            referenced = attributes if id(node) in methods else everything
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and not any(_is_command(d) for d in node.decorator_list)
                and node.name not in referenced
            ):
                out.append((file, node.lineno, node.name))
    return sorted(out)


def test_every_definition_is_referenced():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unreferenced_definitions(defining, others) == []


def test_check_flags_an_unreferenced_definition():
    source = (
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "class A:\n    def __init__(self): ...\n    def m(self): ...\n    def dead(self): ...\n\n"
        "@main.command()\ndef verify(): ...\n"
    )
    assert unreferenced_definitions({"m.py": source}, ["A().m()"]) == [
        ("m.py", 4, "unused"),
        ("m.py", 10, "dead"),
    ]
    assert unreferenced_definitions({"m.py": source}, ["from m import unused", "A().m(); A.dead"]) == []


def test_check_reads_a_method_only_as_an_attribute():
    source = (
        "class A:\n    def row(self): ...\n    def power(self): ...\n\n"
        "def row():\n    return 1\n"
    )
    reads = "power = row()\nprint(power)"
    assert unreferenced_definitions({"m.py": source}, [reads]) == [
        ("m.py", 2, "row"),
        ("m.py", 3, "power"),
    ]
    assert unreferenced_definitions({"m.py": source}, [reads, "A().row; from m import power"]) == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", None) == "dataclass" or getattr(f, "attr", None) == "dataclass":
            return True
    return False


def unread_fields(defining: dict, others: list) -> list:
    """(file, line, Class.field) of each field of a ``@dataclass`` in the
    ``defining`` sources that no source, of these or of ``others``, reads
    as an attribute."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    reads = set()
    for tree in list(trees.values()) + [ast.parse(text) for text in others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
    out = []
    for file, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                for node in cls.body:
                    if (
                        isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id not in reads
                    ):
                        out.append((file, node.lineno, f"{cls.name}.{node.target.id}"))
    return sorted(out)


def test_every_dataclass_field_is_read():
    defining = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text() for d in ("tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    assert unread_fields(defining, others) == []


def test_check_reads_a_field_only_as_an_attribute():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    filled: int\n    named: int\n\n"
        "@dataclasses.dataclass\nclass B:\n    stored: int\n\n"
        "class C:\n    plain: int\n"
    )
    reads = "a = A(kept=1, filled=2, named=3)\nnamed = a.kept\nb = B(0)\nb.stored = named\n"
    assert unread_fields({"m.py": source}, [reads]) == [
        ("m.py", 4, "A.filled"),
        ("m.py", 5, "A.named"),
        ("m.py", 9, "B.stored"),
    ]
    assert unread_fields({"m.py": source}, [reads, "print(a.filled, a.named, b.stored)"]) == []


def fraction_importers(sources: dict) -> list:
    """Names of the ``sources`` (file name -> text) that import
    ``fractions`` at any depth."""
    out = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions") or (
                isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            ):
                out.append(name)
                break
    return sorted(out)


def test_only_exactla_and_roots_import_fractions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(fraction_importers(sources)) <= {"exactla.py", "roots.py"}


def test_check_flags_a_fractions_import():
    sources = {
        "a.py": "import math, fractions\n",
        "b.py": "def f():\n    from fractions import Fraction\n    return Fraction(1)\n",
        "c.py": "import math\nfractions = math\n",
    }
    assert fraction_importers(sources) == ["a.py", "b.py"]

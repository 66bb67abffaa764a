"""Every name a k3lat module imports is used in that module, and every
function it defines is referenced somewhere.

A stdlib-``ast`` stand-in for a linter's unused-import rule: it collects
the names bound by each ``import`` and ``from ... import`` (at any
depth, so function-local imports count too) and the names the module
reads anywhere, and fails on an import that is never read.

The dead-code rule: every non-dunder function or method defined in
``src/k3lat``, and every non-dunder name a module assigns at its top
level, must be referenced by name in ``src/k3lat``, ``bench/*.py`` or
``tests/support.py`` (the home of the reference oracles).  The test
files ``tests/test_*.py`` do not count: API that only a test calls is
dead.  A function or module-level name counts as referenced when it is
read as a name or an attribute, or imported; a method only when it is
read as an attribute or imported, so a local variable that shares its
name does not keep it alive.  Assigning a name does not read it.  The
module-level names of ``goldens`` are exempt: they are expected values,
and some of them (``GENUS``) only tests read.  A function registered as a CLI subcommand by a ``*.command()``
decorator is referenced by that decorator.  ``bench/tracer.py`` looks
functions up by string (``"hnf"``, ``"Lattice.pair"``), so each part of
a dotted-name string constant there counts as an attribute read.

The dead-field rule: every field of a ``@dataclass`` in ``src/k3lat``
must be read as an attribute in those same sources.  Filling a field in
a constructor call, assigning to it, or reading a variable that shares
its name does not count.  A read ``x.f`` counts only for the dataclass
that ``x`` is known to hold: ``self`` in a method of that class, or a
parameter annotated with its name; any other read counts for every
dataclass with a field ``f``.  A dataclass whose method hands ``self``
to ``asdict`` reads all of its fields, and those of every dataclass
named in its field annotations.

The rational rule: only ``exactla`` (for ``rat_express``) imports
``fractions``; every other module carries rational quantities as
integer rows over a denominator.

The Bareiss rule: no module other than ``exactla`` imports or reads
``bareiss_step``, and within ``exactla`` only ``det`` and
``gram_elimination`` read it, so the elimination step has one home, two
users, and no linear solve of its own.

The Hermite rule: no module other than ``exactla`` imports or reads
``_hermite``, and within ``exactla`` only ``hnf``, ``hermite_basis`` and
``kernel_basis`` read it, so the one Hermite elimination serves the
three normal forms and every other caller goes through one of them.

The dual-class rule: only ``roots`` reads ``scaled_dual`` or
``dual_class_min`` (by name, attribute or import), and only ``lattice``
and ``roots`` define them, so gluing root lattices by discriminant
classes has one home, ``roots.glue_root_sum``.

The span-index rule: only ``roots`` defines ``span_index`` or
``cartan_det``, and ``roots`` reads neither ``det`` nor ``index_in`` from
``exactla`` (by import or as an ``exactla`` attribute), so every
root-span index is read off determinants by one rule, with no
elimination of a span basis.

The tracer-only rule: no module in ``src/k3lat`` calls ``snf``,
``rat_express`` or ``rat_mul`` (by name or as an attribute) or imports
them.  They stay in ``exactla`` only because ``bench/tracer.py`` wraps
them by name; the one Smith elimination of the library is
``smith_divisors``, and its one linear solve ``int_express``.

The factorization rule: one function in ``src/k3lat`` factors integers
by trial division, ``exactla.factorize``, and ``lattice`` defines none.
A function counts as a trial division when a ``while`` loop in it tests
a name squared (``p * p`` or ``p ** 2``) or a ``for`` loop in it runs
over an iterable that calls ``isqrt``; so every determinant is factored
by the one cached function that the Smith kernel reads.

The descent rule: one function in ``src/k3lat`` holds a Fincke--Pohst
descent, ``roots._reduced_search``; the root analysis's search and
``enumerate_norm`` both run through it.
A top-level function or method holds one when an ``isqrt`` call sits in
a function inside it that calls itself by name (a recursive descent over
the levels) or in a ``while`` loop (an iterative one).

The walk rule: one function in ``src/k3lat`` walks a graph breadth
first, ``roots.layers``; the Dynkin pieces, the arms of a branch node
and the embedding search's choice order all read it.  A top-level
function or method holds a walk when a ``for`` loop in it runs over a
plain name that the loop's own body extends, by ``append``, ``extend``
or ``+=``.

The caching rule: ``functools.cache`` is the only caching mechanism in
``src/k3lat``.  No module names ``lru_cache`` or ``cached_property``,
rebinds a module global from a function (``global``), gives a function a
mutable default, writes from a function into a module-level dict, list
or set, or sets an attribute to ``None`` in ``__init__`` and assigns it
in another function (a memo slot).

The frozen-result rule: a ``functools.cache`` function hands the same
object to every caller, so each dataclass named in the return
annotation of one in ``src/k3lat``, alone or inside ``Tuple[...]``, is
``frozen``.

The typed-error rule: no handler in ``src/k3lat`` is a bare ``except:``
or catches ``Exception`` or ``BaseException``, alone or in a tuple.
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


def _module_names(tree: ast.Module) -> list:
    """(line, name) of each non-dunder name assigned at the top level."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not (node.id.startswith("__") and node.id.endswith("__")):
                    out.append((node.lineno, node.id))
    return out


def unreferenced_definitions(defining: dict, others: list, lookups=frozenset(), tables=frozenset()) -> list:
    """(file, line, name) of each non-dunder function, method or
    module-level name in the ``defining`` sources (file name -> text) that
    no source, of these or of ``others``, references: a function or
    module-level name by a read name, attribute or import, a method by an
    attribute or import only.  ``lookups`` are attribute names read by
    string; the module-level names of the ``tables`` files are exempt."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    names = set()
    attributes = set(lookups)  # attribute reads and imported names
    for tree in list(trees.values()) + [ast.parse(text) for text in others]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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
        if file not in tables:
            out += [(file, line, name) for line, name in _module_names(tree) if name not in everything]
    return sorted(out)


def tracer_lookups(text: str) -> set:
    """Each part of every string constant in ``text`` that is a dotted
    name (``"hnf"``, ``"Lattice.pair"``): the attributes a tracer looks up."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def library_references(root: Path) -> tuple:
    """``(defining, others, lookups)`` for the dead-code and dead-field
    rules: the k3lat sources, the texts of ``bench/*.py`` and
    ``tests/support.py``, and the lookups of ``bench/tracer.py``."""
    defining = {p.name: p.read_text() for p in sorted((root / "src" / "k3lat").glob("*.py"))}
    paths = [*sorted((root / "bench").glob("*.py")), root / "tests" / "support.py"]
    lookups = tracer_lookups((root / "bench" / "tracer.py").read_text())
    return defining, [p.read_text() for p in paths], lookups


# modules of expected values, whose module-level names tests may read alone
TABLE_MODULES = {"goldens.py"}


def test_every_definition_is_referenced():
    dead = unreferenced_definitions(*library_references(ROOT), tables=TABLE_MODULES)
    assert dead == []


def test_check_counts_no_test_file_and_reads_tracer_strings(tmp_path):
    planted = {
        "src/k3lat/m.py": (
            "@dataclass\nclass A:\n    tested: int\n    kept: int\n\n"
            "def only_tested(): ...\n\ndef wrapped(): ...\n"
        ),
        "tests/test_m.py": "from k3lat.m import A, only_tested, wrapped\nonly_tested(); wrapped()\nA(1, 2).tested\n",
        "tests/support.py": "",
        "bench/tracer.py": 'LAYERS = {"m": ["wrapped", "A.kept"]}\n',
    }
    for name, text in planted.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    refs = library_references(tmp_path)
    assert unreferenced_definitions(*refs) == [("m.py", 6, "only_tested")]
    assert unread_fields(*refs) == [("m.py", 3, "A.tested")]


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


def test_check_flags_an_unread_module_name():
    source = (
        "from typing import Tuple\n\n"
        "Symbol = Tuple[str, int]\n"
        "TABLE = {1: 2}\n"
        "ROWS: tuple = tuple(TABLE)\n"
        "A, B = 1, 2\n"
        "__all__ = []\n\n"
        "def f(s: Symbol):\n    return A\n"
    )
    assert unreferenced_definitions({"m.py": source}, ["f()\nROWS = ()\n"]) == [
        ("m.py", 5, "ROWS"),
        ("m.py", 6, "B"),
    ]
    assert unreferenced_definitions({"m.py": source}, ["f(); m.ROWS\nfrom m import B"]) == []
    assert unreferenced_definitions({"m.py": source}, ["f()"], tables={"m.py"}) == []


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


def _fields(cls: ast.ClassDef) -> list:
    return [n for n in cls.body if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]


def _hands_self_to_asdict(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(n, ast.Call)
        and "asdict" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        and n.args
        and getattr(n.args[0], "id", None) == "self"
        for n in ast.walk(cls)
    )


def _annotated_class(annotation, classes: set):
    """The dataclass an annotation names by itself, or None."""
    if isinstance(annotation, ast.Name):
        name = annotation.id
    elif isinstance(annotation, ast.Constant):
        name = annotation.value
    else:
        return None
    return name if name in classes else None


def _sort_reads(node: ast.AST, classes: set, env: dict, typed: set, untyped: set, owner=None) -> None:
    """Sort the attribute reads under ``node`` into ``typed`` (class,
    field) pairs, where ``env`` (variable -> class) says which dataclass
    the read variable holds, and ``untyped`` field names otherwise.
    ``owner`` is the dataclass whose body ``node`` is in, if any."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        env = dict(env)
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        for a in params:
            cls = _annotated_class(a.annotation, classes)
            if cls:
                env[a.arg] = cls
            else:
                env.pop(a.arg, None)
        if owner and params and params[0].arg == "self":
            env["self"] = owner
        # a name rebound in the body may hold anything
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                env.pop(n.id, None)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        var = getattr(node.value, "id", None)
        if var in env:
            typed.add((env[var], node.attr))
        else:
            untyped.add(node.attr)
    inner = node.name if isinstance(node, ast.ClassDef) and node.name in classes else None
    for child in ast.iter_child_nodes(node):
        _sort_reads(child, classes, env, typed, untyped, inner)


def unread_fields(defining: dict, others: list, lookups=frozenset()) -> list:
    """(file, line, Class.field) of each field of a ``@dataclass`` in the
    ``defining`` sources that no source, of these or of ``others``, reads
    as an attribute, and that no ``asdict(self)`` of its class, or of a
    dataclass naming it in a field annotation, reads.  A read through
    ``self`` or an annotated parameter counts for its class only.
    ``lookups`` are attribute names read by string."""
    trees = {name: ast.parse(text) for name, text in defining.items()}
    classes = {
        c.name: (file, c)
        for file, tree in trees.items()
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and _is_dataclass(c)
    }
    typed, reads = set(), set(lookups)
    for tree in list(trees.values()) + [ast.parse(text) for text in others]:
        _sort_reads(tree, set(classes), {}, typed, reads)
    whole = set()  # classes whose every field asdict reads
    todo = [name for name, (_, c) in classes.items() if _hands_self_to_asdict(c)]
    while todo:
        name = todo.pop()
        if name not in whole:
            whole.add(name)
            for f in _fields(classes[name][1]):
                todo += [n.id for n in ast.walk(f.annotation) if getattr(n, "id", None) in classes]
    out = []
    for name, (file, cls) in classes.items():
        for node in _fields(cls):
            field = node.target.id
            if name not in whole and field not in reads and (name, field) not in typed:
                out.append((file, node.lineno, f"{name}.{field}"))
    return sorted(out)


def test_every_dataclass_field_is_read():
    assert unread_fields(*library_references(ROOT)) == []


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


def test_check_reads_a_typed_field_for_its_class_only():
    # both classes have a field rho; B reads its own through self
    source = (
        "@dataclass\nclass A:\n    rho: int\n\n"
        "@dataclass\nclass B:\n    rho: int\n\n"
        "    def order(self):\n        return self.rho\n"
    )
    reads_b = "def f(b: B, n: int):\n    return b.rho\n"
    assert unread_fields({"m.py": source}, []) == [("m.py", 3, "A.rho")]
    assert unread_fields({"m.py": source}, [reads_b]) == [("m.py", 3, "A.rho")]
    assert unread_fields({"m.py": source}, ["def f(a: A):\n    return a.rho\n"]) == []
    # an unannotated, or rebound, variable counts for every class
    assert unread_fields({"m.py": source}, ["def f(x):\n    return x.rho\n"]) == []
    assert unread_fields({"m.py": source}, ["def f(b: B):\n    b = g()\n    return b.rho\n"]) == []


def test_check_reads_every_field_that_asdict_self_reads():
    source = (
        "@dataclass\nclass Item:\n    a: int\n\n"
        "@dataclass\nclass Report:\n    items: List[Item]\n    b: int\n\n"
        "    def as_dict(self):\n        return dataclasses.asdict(self)\n\n"
        "@dataclass\nclass Other:\n    c: int\n\n"
        "    def copy(self, x):\n        return asdict(x)\n"
    )
    assert unread_fields({"m.py": source}, []) == [("m.py", 15, "Other.c")]


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


def test_only_exactla_imports_fractions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(fraction_importers(sources)) <= {"exactla.py"}


def test_check_flags_a_fractions_import():
    sources = {
        "a.py": "import math, fractions\n",
        "b.py": "def f():\n    from fractions import Fraction\n    return Fraction(1)\n",
        "c.py": "import math\nfractions = math\n",
    }
    assert fraction_importers(sources) == ["a.py", "b.py"]


def kernel_users(sources: dict, kernel: str) -> list:
    """Names of the ``sources`` (file name -> text) that import
    ``kernel`` or read it as an attribute, at any depth."""
    out = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.ImportFrom) and any(a.name == kernel for a in node.names)) or (
                isinstance(node, ast.Attribute) and node.attr == kernel
            ):
                out.append(name)
                break
    return sorted(out)


def test_only_exactla_uses_bareiss_step():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(kernel_users(sources, "bareiss_step")) <= {"exactla.py"}


def test_check_flags_a_bareiss_step_user():
    sources = {
        "a.py": "from .exactla import det, bareiss_step\n",
        "b.py": "def f(m):\n    from .exactla import bareiss_step as step\n    return step(m, 0, 1)\n",
        "c.py": "from . import exactla\n\ndef f(m):\n    return exactla.bareiss_step(m, 0, 1)\n",
        "d.py": "from .exactla import gram_elimination\nbareiss_step = gram_elimination\n",
    }
    assert kernel_users(sources, "bareiss_step") == ["a.py", "b.py", "c.py"]


def kernel_callers(text: str, kernel: str) -> list:
    """Names of the functions in ``text`` that read ``kernel`` as a name
    or an attribute; a function counts for the functions around it."""
    return sorted(
        f.name
        for f in ast.walk(ast.parse(text))
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(n, "id", None) == kernel or getattr(n, "attr", None) == kernel for n in ast.walk(f))
    )


def test_bareiss_step_serves_det_and_gram_elimination_only():
    assert kernel_callers((SRC / "exactla.py").read_text(), "bareiss_step") == ["det", "gram_elimination"]


def test_check_flags_a_third_bareiss_caller():
    source = (
        "def bareiss_step(a, c, prev):\n    return a[c][c]\n\n"
        "def det(a):\n    return bareiss_step(a, 0, 1)\n\n"
        "def gram_elimination(g):\n    step = bareiss_step\n    return step(g, 0, 1)\n\n"
        "def _solve(t, b):\n    def eliminate(a):\n        return exactla.bareiss_step(a, 0, 1)\n"
        "    return eliminate(b)\n\n"
        "def hnf(a):\n    return a\n"
    )
    assert kernel_callers(source, "bareiss_step") == ["_solve", "det", "eliminate", "gram_elimination"]


def test_only_exactla_uses_the_hermite_kernel():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(kernel_users(sources, "_hermite")) <= {"exactla.py"}


def test_the_hermite_kernel_serves_the_three_normal_forms_only():
    callers = kernel_callers((SRC / "exactla.py").read_text(), "_hermite")
    assert callers == ["hermite_basis", "hnf", "kernel_basis"]


def test_check_flags_a_hermite_kernel_user_and_a_fourth_caller():
    sources = {
        "a.py": "from .exactla import hnf, _hermite\n",
        "b.py": "from . import exactla\n\ndef f(h):\n    exactla._hermite(h, [[] for _ in h])\n",
        "c.py": "from .exactla import hermite_basis\n_hermite = hermite_basis\n",
    }
    assert kernel_users(sources, "_hermite") == ["a.py", "b.py"]
    source = (
        "def _hermite(h, u):\n    return None\n\n"
        "def hnf(a):\n    _hermite(a, [])\n\n"
        "def hermite_basis(rows, n):\n    _hermite(rows, [])\n\n"
        "def kernel_basis(a):\n    _hermite(a, [])\n\n"
        "def snf(a):\n    reduce = _hermite\n    return reduce(a, [])\n"
    )
    assert kernel_callers(source, "_hermite") == ["hermite_basis", "hnf", "kernel_basis", "snf"]


DUAL_CLASS_NAMES = {"scaled_dual", "dual_class_min"}


def dual_class_users(sources: dict) -> tuple:
    """``(readers, definers)``: the names of the ``sources`` (file name ->
    text) that read a name of ``DUAL_CLASS_NAMES`` as a name or an
    attribute or import it, at any depth, and of those that define one."""
    readers, definers = set(), set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.ImportFrom) and any(a.name in DUAL_CLASS_NAMES for a in node.names)
                or getattr(node, "id", None) in DUAL_CLASS_NAMES
                or getattr(node, "attr", None) in DUAL_CLASS_NAMES
            ):
                readers.add(name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in DUAL_CLASS_NAMES:
                definers.add(name)
    return sorted(readers), sorted(definers)


def test_only_roots_reads_the_dual_classes():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dual_class_users(sources) == (["roots.py"], ["lattice.py", "roots.py"])


def test_check_flags_a_dual_class_reader_and_definer():
    sources = {
        "a.py": "from .lattice import direct_sum, scaled_dual\n",
        "b.py": "def f():\n    from .roots import dual_class_min as m\n    return m('A', 2)\n",
        "c.py": "from . import roots\n\ndef f():\n    return roots.dual_class_min('E', 6)\n",
        "d.py": "def scaled_dual(sym, n):\n    return sym, n\n",
        "e.py": "name = 'scaled_dual'\n",
    }
    assert dual_class_users(sources) == (["a.py", "b.py", "c.py"], ["d.py"])


SPAN_INDEX_NAMES = {"span_index", "cartan_det"}
SPAN_ELIMINATIONS = {"det", "index_in"}


def span_index_homes(sources: dict) -> tuple:
    """``(definers, eliminations)``: the names of the ``sources`` (file
    name -> text) that define a function of ``SPAN_INDEX_NAMES``, and the
    names of ``SPAN_ELIMINATIONS`` that ``roots.py`` imports or reads as
    an attribute of ``exactla``."""
    definers, eliminations = set(), set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in SPAN_INDEX_NAMES:
                definers.add(name)
            if name != "roots.py":
                continue
            if isinstance(node, ast.ImportFrom):
                eliminations.update(a.name for a in node.names if a.name in SPAN_ELIMINATIONS)
            if isinstance(node, ast.Attribute) and node.attr in SPAN_ELIMINATIONS:
                if getattr(node.value, "id", None) == "exactla":
                    eliminations.add(node.attr)
    return sorted(definers), sorted(eliminations)


def test_only_roots_reads_the_span_index():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert span_index_homes(sources) == (["roots.py"], [])


def test_check_flags_a_second_span_index_definer_and_a_roots_elimination():
    sources = {
        "roots.py": (
            "from .exactla import det as d, hermite_basis\nfrom . import exactla\n\n"
            "def span_index(t, n):\n    return exactla.index_in(t, n) + d(t) + n.det()\n"
        ),
        "cusps.py": "class T:\n    def cartan_det(self):\n        return 1\n",
        "kulikov.py": "from .exactla import det, index_in\nfrom .roots import span_index\n",
    }
    assert span_index_homes(sources) == (["cusps.py", "roots.py"], ["det", "index_in"])


TRACER_ONLY = {"snf", "rat_express", "rat_mul"}


def tracer_only_users(sources: dict) -> list:
    """(file, name) of each call of a ``TRACER_ONLY`` function, by name or
    as an attribute, and each import of one, in the ``sources`` (file
    name -> text)."""
    out = set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in TRACER_ONLY:
                    out.add((file, name))
            elif isinstance(node, ast.ImportFrom):
                out.update((file, a.name) for a in node.names if a.name in TRACER_ONLY)
    return sorted(out)


def test_no_library_path_calls_the_tracer_only_functions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert tracer_only_users(sources) == []


def test_check_flags_a_tracer_only_call():
    sources = {
        "lattice.py": "from .exactla import int_express, snf\n\ndef f(g):\n    return snf(g)\n",
        "cusps.py": "from . import exactla\n\ndef f(t, b):\n    return exactla.rat_express(t, b)\n",
        "exactla.py": (
            "def rat_mul(a, b):\n    return a\n\n"
            "def snf(a):\n    return a\n\ndef _solve(a):\n    return rat_mul(a, a)\n"
        ),
        "roots.py": "name = 'snf'\n\ndef smith(a):\n    return a.snf\n",
    }
    assert tracer_only_users(sources) == [
        ("cusps.py", "rat_express"),
        ("exactla.py", "rat_mul"),
        ("lattice.py", "snf"),
    ]


def _is_square(node: ast.AST) -> bool:
    """``x * x`` or ``x ** 2`` for a name ``x``."""
    if not isinstance(node, ast.BinOp) or not isinstance(node.left, ast.Name):
        return False
    if isinstance(node.op, ast.Mult):
        return getattr(node.right, "id", None) == node.left.id
    return isinstance(node.op, ast.Pow) and getattr(node.right, "value", None) == 2


def trial_division_homes(sources: dict) -> list:
    """(file, function) of each function in the ``sources`` (file name ->
    text) with a ``while`` loop that tests a name squared, or a ``for``
    loop over an iterable that calls ``isqrt``."""
    homes = set()
    for file, text in sources.items():
        for f in ast.walk(ast.parse(text)):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for loop in ast.walk(f):
                if isinstance(loop, ast.While):
                    found = any(_is_square(n) for n in ast.walk(loop.test))
                elif isinstance(loop, ast.For):
                    calls = [n.func for n in ast.walk(loop.iter) if isinstance(n, ast.Call)]
                    found = any("isqrt" in (getattr(c, "id", None), getattr(c, "attr", None)) for c in calls)
                else:
                    continue
                if found:
                    homes.add((file, f.name))
    return sorted(homes)


def test_only_exactla_factorizes_by_trial_division():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert trial_division_homes(sources) == [("exactla.py", "factorize")]


def test_check_flags_a_second_trial_division():
    sources = {
        "exactla.py": "def factorize(n):\n    p = 2\n    while p * p <= n:\n        p += 1\n",
        "lattice.py": (
            "def _prime_factors(n):\n    out, p = [], 2\n    while n > 1 and p ** 2 <= n:\n"
            "        if n % p == 0:\n            out.append(p)\n        p += 1\n    return out\n"
        ),
        "cusps.py": "import math\n\ndef primes(n):\n    for p in range(2, math.isqrt(n) + 1):\n        yield p\n",
        "roots.py": (
            "from math import isqrt\n\ndef span_index(a, b):\n    i = 0\n    while i < a * b:\n"
            "        i += 1\n    return isqrt(a * b)\n"
        ),
    }
    assert trial_division_homes(sources) == [
        ("cusps.py", "primes"),
        ("exactla.py", "factorize"),
        ("lattice.py", "_prime_factors"),
    ]


def _calls(node: ast.AST, name: str) -> bool:
    """Whether ``node`` calls ``name``, by name or as an attribute."""
    return any(
        isinstance(n, ast.Call) and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node)
    )


def _top_functions(tree: ast.Module) -> list:
    """The top-level functions and the methods of the top-level classes."""
    tops = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return tops + [m for c in tree.body if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, ast.FunctionDef)]


def descent_homes(sources: dict) -> list:
    """(file, function) of each top-level function or method in the
    ``sources`` (file name -> text) that holds a Fincke--Pohst descent: an
    ``isqrt`` call in a function, itself or nested in it, that calls itself
    by name, or in a ``while`` loop."""
    homes = set()
    for file, text in sources.items():
        for top in _top_functions(ast.parse(text)):
            for node in ast.walk(top):
                recursive = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls(node, node.name)
                if (recursive or isinstance(node, ast.While)) and _calls(node, "isqrt"):
                    homes.add((file, top.name))
    return sorted(homes)


def test_only_the_reduced_search_holds_a_descent():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert descent_homes(sources) == [("roots.py", "_reduced_search")]


def test_check_flags_a_planted_second_descent():
    # a copy of the real search under another name, an iterative descent,
    # and three near misses: a trial-division loop over isqrt, a recursion
    # with no square root, and a square root in no loop
    roots = (SRC / "roots.py").read_text()
    search = next(
        n for n in ast.parse(roots).body if isinstance(n, ast.FunctionDef) and n.name == "_reduced_search"
    )
    copy = ast.get_source_segment(roots, search).replace("def _reduced_search(", "def _copied_search(", 1)
    sources = {
        "roots.py": roots + "\n\n" + copy + "\n",
        "lattice.py": (
            "import math\n\nclass Form:\n    def short_vectors(self, m):\n        k, out = 0, []\n"
            "        while k >= 0:\n            s = math.isqrt(m)\n            k -= 1 + s\n        return out\n"
        ),
        "exactla.py": (
            "import math\n\ndef factorize(n):\n    return [p for p in range(2, math.isqrt(n) + 1) if n % p == 0]\n\n"
            "def walk(k):\n    return walk(k - 1) if k else 0\n\n"
            "def square_index(a, b):\n    return math.isqrt(a // b)\n"
        ),
    }
    assert descent_homes(sources) == [
        ("lattice.py", "short_vectors"),
        ("roots.py", "_copied_search"),
        ("roots.py", "_reduced_search"),
    ]


def _extends(node: ast.AST, name: str) -> bool:
    """Whether ``node`` extends the list ``name``: ``name.append(...)``,
    ``name.extend(...)`` or ``name += ...``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in ("append", "extend"):
            if getattr(n.func.value, "id", None) == name:
                return True
        if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Add) and getattr(n.target, "id", None) == name:
            return True
    return False


def walk_homes(sources: dict) -> list:
    """(file, function) of each top-level function or method in the
    ``sources`` (file name -> text) that holds a breadth-first walk: a
    ``for`` loop over a plain name that the loop's own body extends."""
    homes = set()
    for file, text in sources.items():
        for top in _top_functions(ast.parse(text)):
            for node in ast.walk(top):
                if isinstance(node, ast.For) and isinstance(node.iter, ast.Name):
                    if any(_extends(stmt, node.iter.id) for stmt in node.body):
                        homes.add((file, top.name))
    return sorted(homes)


def test_only_roots_layers_walks_breadth_first():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert walk_homes(sources) == [("roots.py", "layers")]


def test_check_flags_a_planted_second_walk():
    # the embedding search's own walk, a method that extends its queue, and
    # three near misses: a loop that fills another list, a stack walked by
    # ``while``, and a loop over a copy of the list it extends
    sources = {
        "roots.py": (SRC / "roots.py").read_text(),
        "cusps.py": (
            "def _factor_requirements(c, n):\n    order = [0]\n    for i in order:\n"
            "        order += [j for j in range(n) if c[i][j] and j not in order]\n    return order\n"
        ),
        "kulikov.py": (
            "class Graph:\n    def reach(self, a):\n        queue = [a]\n        for x in queue:\n"
            "            if x < 9:\n                queue.extend([x + 1])\n        return queue\n"
        ),
        "lattice.py": (
            "def squares(xs):\n    out = []\n    for x in xs:\n        out.append(x * x)\n    return out\n\n"
            "def orbit(a):\n    stack, seen = [a], {a}\n    while stack:\n        x = stack.pop()\n"
            "        if x < 9 and x + 1 not in seen:\n            seen.add(x + 1)\n            stack.append(x + 1)\n"
            "    return seen\n\n"
            "def doubled(xs):\n    for x in list(xs):\n        xs.append(x)\n    return xs\n"
        ),
    }
    assert walk_homes(sources) == [
        ("cusps.py", "_factor_requirements"),
        ("kulikov.py", "reach"),
        ("roots.py", "layers"),
    ]


OTHER_CACHES = {"lru_cache", "cached_property"}
MUTATORS = {"setdefault", "update", "append", "extend", "add", "insert", "__setitem__"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _is_container(value) -> bool:
    return isinstance(value, CONTAINERS) or (
        isinstance(value, ast.Call) and getattr(value.func, "id", None) in {"dict", "list", "set"}
    )


def second_caches(sources: dict) -> list:
    """(file, line, what) of each caching mechanism other than
    ``functools.cache`` in the ``sources`` (file name -> text)."""
    out = set()
    for file, text in sources.items():
        tree = ast.parse(text)
        containers = set()
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                containers |= {t.id for t in targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in OTHER_CACHES:
                out.add((file, node.lineno, name))
            elif isinstance(node, ast.Global):
                out.add((file, node.lineno, "global " + ", ".join(node.names)))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                    if _is_container(default):
                        out.add((file, default.lineno, f"mutable default of {node.name}"))
                local = {a.arg for a in args.args + args.kwonlyargs + args.posonlyargs}
                local |= {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
                for n in ast.walk(node):
                    if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                        target = n.value
                    elif isinstance(n, ast.Call) and getattr(n.func, "attr", None) in MUTATORS:
                        target = n.func.value
                    else:
                        continue
                    if isinstance(target, ast.Name) and target.id in containers - local:
                        out.add((file, n.lineno, f"{node.name} writes {target.id}"))
        out |= _memo_slots(file, tree)
    return sorted(out)


def _memo_slots(file: str, tree: ast.AST) -> set:
    """(file, line, what) of each assignment, outside ``__init__``, to an
    attribute that an ``__init__`` of ``tree`` sets to ``None``."""
    inits = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    slots = {
        t.attr
        for init in inits
        for n in ast.walk(init)
        if isinstance(n, (ast.Assign, ast.AnnAssign))
        and isinstance(n.value, ast.Constant)
        and n.value.value is None
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
        if isinstance(t, ast.Attribute)
    }
    return {
        (file, n.lineno, f"{f.name} memoizes {n.attr}")
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f not in inits
        for n in ast.walk(f)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and n.attr in slots
    }


def test_functools_cache_is_the_only_cache():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert second_caches(sources) == []


def test_check_flags_a_second_caching_mechanism():
    sources = {
        "a.py": "from functools import lru_cache\n@lru_cache(None)\ndef f(x):\n    return x\n",
        "b.py": "import functools\nclass A:\n    @functools.cached_property\n    def p(self):\n        return 1\n",
        "c.py": "_CACHE = {}\ndef f(x):\n    if x not in _CACHE:\n        _CACHE[x] = x * x\n    return _CACHE[x]\n",
        "d.py": "_SEEN: set = set()\ndef f(x):\n    _SEEN.add(x)\n",
        "e.py": "_M = None\ndef f():\n    global _M\n    _M = 1\n",
        "f.py": "def f(x, memo={}):\n    return memo.setdefault(x, x)\n",
        "g.py": (
            "class L:\n    def __init__(self, g):\n        self.g = g\n        self._det: int | None = None\n"
            "    def det(self):\n        if self._det is None:\n            self._det = d(self.g)\n"
            "        return self._det\n\n"
            "def signature(l):\n    l._det = 1\n"
        ),
        "h.py": "class K:\n    def __init__(self, v):\n        self.v = None\n        if v:\n            self.v = v\n",
        "ok.py": (
            "from functools import cache\nTABLE = {}\nfor i in range(3):\n    TABLE[i] = i\n"
            "@cache\ndef f(x):\n    TABLE = {}\n    TABLE[x] = 1\n    return TABLE\n"
        ),
    }
    assert second_caches(sources) == [
        ("a.py", 1, "lru_cache"),
        ("a.py", 2, "lru_cache"),
        ("b.py", 3, "cached_property"),
        ("c.py", 4, "f writes _CACHE"),
        ("d.py", 3, "f writes _SEEN"),
        ("e.py", 3, "global _M"),
        ("f.py", 1, "mutable default of f"),
        ("g.py", 7, "det memoizes _det"),
        ("g.py", 11, "signature memoizes _det"),
    ]


def _is_frozen(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
        for d in cls.decorator_list
    )


def _is_cached(f: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "cache" or getattr(d, "attr", None) == "cache" for d in f.decorator_list)


def unfrozen_cached_results(sources: dict) -> list:
    """(file, line, what) of each ``functools.cache`` function in the
    ``sources`` (file name -> text) whose return annotation names a
    dataclass of any of them that is not frozen."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    unfrozen = {
        c.name
        for tree in trees.values()
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and _is_dataclass(c) and not _is_frozen(c)
    }
    return sorted(
        (file, f.lineno, f"{f.name} returns {n.id}")
        for file, tree in trees.items()
        for f in ast.walk(tree)
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_cached(f) and f.returns
        for n in ast.walk(f.returns)
        if isinstance(n, ast.Name) and n.id in unfrozen
    )


def test_cached_results_are_frozen():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unfrozen_cached_results(sources) == []


def test_check_flags_an_unfrozen_cached_result():
    sources = {
        "a.py": "@dataclass\nclass Q:\n    x: int\n\n@dataclass(frozen=True)\nclass F:\n    y: int\n",
        "b.py": (
            "from functools import cache\nimport functools\n\n"
            "@cache\ndef q() -> Q:\n    return Q(1)\n\n"
            "@functools.cache\ndef pair() -> Tuple[F, Tuple[Q, ...]]:\n    return F(1), (Q(2),)\n\n"
            "@cache\ndef ok() -> Tuple[F, int]:\n    return F(1), 2\n\n"
            "def uncached() -> Q:\n    return Q(3)\n"
        ),
    }
    assert unfrozen_cached_results(sources) == [
        ("b.py", 5, "q returns Q"),
        ("b.py", 9, "pair returns Q"),
    ]


BROAD = {"Exception", "BaseException"}


def broad_handlers(sources: dict) -> list:
    """(file, line, what) of each ``except`` clause in the ``sources``
    (file name -> text) that is bare or names a class in ``BROAD``."""
    out = []
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                out.append((file, node.lineno, "bare except"))
                continue
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for k in kinds:
                name = getattr(k, "id", None) or getattr(k, "attr", None)
                if name in BROAD:
                    out.append((file, node.lineno, f"except {name}"))
    return sorted(out)


def test_errors_are_typed():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert broad_handlers(sources) == []


def test_check_flags_a_broad_handler():
    sources = {
        "a.py": "try:\n    f()\nexcept:\n    pass\n",
        "b.py": "try:\n    f()\nexcept Exception as e:\n    raise\n",
        "c.py": "try:\n    f()\nexcept (ValueError, builtins.BaseException):\n    pass\n",
        "ok.py": (
            "try:\n    f()\nexcept ValueError:\n    pass\n"
            "except (KeyError, LatticeError) as e:\n    pass\nException = 1\n"
        ),
    }
    assert broad_handlers(sources) == [
        ("a.py", 3, "bare except"),
        ("b.py", 3, "except Exception"),
        ("c.py", 3, "except BaseException"),
    ]

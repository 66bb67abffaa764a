"""Seeded `k3lat info` query stream and its closed-form oracle.

This module imports nothing from k3lat: every expected answer is derived
from the generator's own description of the lattice, so a wrong answer
from the library cannot leak into the expectation.

A query is an expression in the CLI grammar.  It describes an orthogonal
sum of atoms; each atom is an ADE root lattice or U, with a total scale
``c``: the atom's Gram matrix is ``c`` times the positive definite Cartan
matrix (ADE) or ``c`` times [[0,1],[1,0]] (U).  The CLI writes ADE atoms
negative definite, so a bare ``A2`` has ``c = -1``.  Some queries are
written as ``gram[[...]]`` literals: the Gram matrix after a seeded
unimodular change of basis, so the coordinates the library sees are not
reduced.  A change of basis of determinant +-1 keeps every invariant the
oracle checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Atom = Tuple[str, int, int]  # (symbol, index, total scale c)


def _parse_shape(shape: str) -> List[Tuple[str, int]]:
    out = []
    for part in shape.split("+"):
        base, _, mult = part.partition("^")
        out += [(base[0], int(base[1:] or 1))] * int(mult or 1)
    return out


# -- closed-form invariants ---------------------------------------------------


def _cartan_diagonal(sym: str, n: int) -> List[int]:
    """Smith diagonal of the positive Cartan matrix, unit divisors included."""
    if sym == "U":
        return [1, 1]
    if sym == "A":
        return [1] * (n - 1) + [n + 1]
    if sym == "D":
        return [1] * (n - 1) + [4] if n % 2 else [1] * (n - 2) + [2, 2]
    return {6: [1] * 5 + [3], 7: [1] * 6 + [2], 8: [1] * 8}[n]


def _factor(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(diagonal: Sequence[int]) -> Tuple[int, ...]:
    """Elementary divisors > 1 of diag(diagonal), ascending, each dividing the next.

    For each prime, the largest exponents go to the largest divisors."""
    exps: Dict[int, List[int]] = {}
    for d in diagonal:
        for p, e in _factor(d).items():
            exps.setdefault(p, []).append(e)
    k = max((len(v) for v in exps.values()), default=0)
    out = [1] * k
    for p, es in exps.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            out[k - 1 - i] *= p ** e
    return tuple(out)


def _root_type_str(comps: List[Tuple[str, int]]) -> str:
    """Root type in the notation of the reference tables: larger index first,
    E before D before A, repeats as ``^k``; the empty system is ``0``."""
    if not comps:
        return "0"
    comps = sorted(comps, key=lambda c: (-c[1], "EDA".index(c[0])))
    parts: List[List] = []
    for c in comps:
        if parts and parts[-1][0] == c:
            parts[-1][1] += 1
        else:
            parts.append([c, 1])
    return "+".join(f"{s}{n}" + (f"^{k}" if k > 1 else "") for (s, n), k in parts)


def expected_answer(atoms: Sequence[Atom]) -> Dict:
    """The answers of ``k3lat info`` for an orthogonal sum of scaled atoms."""
    rank = pos = neg = 0
    det = 1
    diagonal: List[int] = []
    for sym, n, c in atoms:
        r = 2 if sym == "U" else n
        rank += r
        if sym == "U":
            pos, neg, base_det = pos + 1, neg + 1, -1
        else:
            pos, neg = (pos + n, neg) if c > 0 else (pos, neg + n)
            base_det = 1
            for d in _cartan_diagonal(sym, n):
                base_det *= d
        det *= c ** r * base_det
        diagonal += [abs(c) * d for d in _cartan_diagonal(sym, n)]
    roots: Optional[str] = None
    if pos == 0 or neg == 0:
        # a rescale by |c| >= 2 raises every norm to at least 2|c|; an
        # orthogonal sum of definite pieces has no roots across pieces
        roots = _root_type_str([(s, n) for s, n, c in atoms if abs(c) == 1])
    return {
        "rank": rank,
        "signature": [pos, neg, 0],
        "even": True,
        "det": det,
        "disc": list(invariant_factors(diagonal)),
        "roots": roots,
    }


def mismatches(answer: Dict, expected: Dict) -> List[str]:
    """Names of the fields where the library's answer differs from the oracle."""
    return [k for k in expected if answer.get(k) != expected[k]]


def wrong_answers(expected: Dict) -> List[Dict]:
    """Deliberately wrong answers, one per field, that the oracle must reject."""
    out = []
    for key in expected:
        bad = dict(expected)
        value = bad[key]
        if key == "signature":
            bad[key] = [value[1], value[0] + 1, 0]
        elif key == "disc":
            bad[key] = value + [2]
        elif key == "roots":
            bad[key] = "A1" if value != "A1" else "A2"
        elif key == "even":
            bad[key] = not value
        else:
            bad[key] = value + 1
        out.append(bad)
    return out


# -- presentation -------------------------------------------------------------


def _atom_text(sym: str, n: int, suffix: int) -> str:
    base = "U" if sym == "U" else f"{sym}{n}"
    return base if suffix == 1 else f"{base}({suffix})"


def _gram(atoms: Sequence[Atom]) -> List[List[int]]:
    """Gram matrix of the orthogonal sum, block by block."""
    blocks = []
    for sym, n, c in atoms:
        if sym == "U":
            blocks.append([[0, c], [c, 0]])
            continue
        g = [[2 * c if i == j else 0 for j in range(n)] for i in range(n)]
        if sym == "A":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif sym == "D":
            edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        else:  # Bourbaki numbering, as the library uses
            edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, n - 1)]
        for i, j in edges:
            g[i][j] = g[j][i] = -c
        blocks.append(g)
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def _unimodular(rng: random.Random, n: int) -> List[List[int]]:
    """A seeded product of shears, swaps and sign changes (determinant +-1)."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            t = rng.choice((-2, -1, 1, 2))
            m[i] = [a + t * b for a, b in zip(m[i], m[j])]
    rng.shuffle(m)
    return [[-x for x in row] if rng.random() < 0.5 else row for row in m]


def _literal(rng: random.Random, atoms: Sequence[Atom]) -> str:
    g = _gram(atoms)
    m = _unimodular(rng, len(g))
    mg = [[sum(r[k] * g[k][j] for k in range(len(g))) for j in range(len(g))] for r in m]
    h = [[sum(a * b for a, b in zip(row, col)) for col in m] for row in mg]
    return "gram[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in h) + "]"


@dataclass(frozen=True)
class Query:
    text: str
    atoms: Tuple[Atom, ...]
    kind: str


def _query(rng: random.Random, shape: str, kind: str, literal: bool) -> Query:
    """Present one shape in the CLI grammar.

    Definite kinds give every ADE atom the same suffix (1, or a seeded 2 or 3
    for ``rescaled``) and may flip the whole sum positive definite with an
    outer ``(-1)``.  Indefinite shapes give U a seeded ``U(m)`` and each ADE
    atom a seeded suffix of either sign."""
    comps = _parse_shape(shape)
    rng.shuffle(comps)
    if kind == "indefinite":
        suffixes = [rng.choice((1, 2, 3, 5)) if s == "U" else rng.choice((1, -1, 2, 3)) for s, _ in comps]
        flip = 1
    else:
        scale = rng.choice((2, 3)) if kind == "rescaled" else 1
        suffixes = [scale] * len(comps)
        flip = rng.choice((1, -1))
    atoms = tuple(
        (s, n, u * flip if s == "U" else -u * flip) for (s, n), u in zip(comps, suffixes)
    )
    if literal:
        return Query(_literal(rng, atoms), atoms, kind)
    body = "+".join(_atom_text(s, n, u) for (s, n), u in zip(comps, suffixes))
    return Query(body if flip == 1 else f"({body})(-1)", atoms, kind)


# The stream, by cost tier, as (kind, shapes, count): the i-th query of a
# row presents shapes[i % len(shapes)], and every third one is a gram
# literal.  The shapes are fixed, so every seed gives the same cost
# profile; the seed varies presentation, coordinates and order.  Two rows
# are plateaus of one shape each, placed so that the median (ranks 100 and
# 101 of 200, by cost) falls in the middle of the 60 D4 queries and the
# tail (rank 11 from the top) in the middle of the 17 A4^3 queries: a
# quantile inside a plateau of equal-cost queries is steady, one between
# tiers jumps.  Rows from the most to the least expensive:
STREAM = (
    ("heavy", ["E8", "E8+A1", "E8+A2", "E8+A1^2"], 4),  # 240 roots or more
    ("tail", ["A4^3"], 17),
    ("medium", ["E6", "D7", "A8", "A7", "D6", "A6"], 20),
    ("definite", ["A5", "D5"], 13),
    ("indefinite", ["U+E7+A1", "U+D6", "U+E6+A2", "U+U+E6"], 16),
    ("median", ["D4"], 60),
    ("light", ["A1", "A2", "A3", "A1^3", "A2+A1", "A2^2"], 30),
    ("rescaled", ["A1", "A2", "A3", "A4", "D4", "D5", "A5", "A2^2", "A1^3", "A2+A1"], 25),
    ("indefinite", ["U+A1", "U+A2", "U+A2+A1"], 15),
)


def make_stream(seed: int, scale: float = 1.0) -> List[Query]:
    """The seeded query stream; ``scale`` shrinks every class (smoke runs)."""
    rng = random.Random(seed)
    out = [
        _query(rng, shapes[i % len(shapes)], kind, i % 3 == 2)
        for kind, shapes, count in STREAM
        for i in range(max(1, round(count * scale)))
    ]
    rng.shuffle(out)
    return out

"""Short-vector enumeration in definite lattices and ADE root systems.

Everything runs on Python integers.  Enumeration is a fraction-free
Fincke--Pohst traversal (Fincke--Pohst, Math. Comp. 1985): Bareiss
elimination of the size-reduced Gram matrix gives leading minors ``d_k``
and integer numerators, and scaling the norm by ``lcm(d_k d_{k-1})``
turns every level's interval into an integer square root and an integer
subtraction.  The test suite checks it against a brute-force
coefficient-box enumerator.

Vectors are returned closed under negation, sorted lexicographically on
their coefficient tuples, so output order is deterministic.

Root systems are decomposed through simple roots: the lexicographically
positive roots are a positive system, its simple roots are found by one
ascending scan, and the components are those of the Dynkin graph of the
simple roots (Humphreys, *Reflection Groups*, 1.3; Bourbaki VI 1.6).
The root span is the Hermite form of the simple roots.

The layer is integer-only: ``dual_class_min`` enumerates the integer
scaled dual of ``lattice.scaled_dual`` and builds the one ``Fraction``
it returns, and the size reduction rounds quotients with ``divmod``.
``root_system`` analyses each Gram matrix once per process (a
``functools.cache`` keyed on the Gram matrix); a lattice with a Gram
matrix already seen gets the cached type and span basis, wrapped as a
sublattice of that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import count
from operator import mul, sub
from typing import Dict, List, Sequence, Tuple

from .exactla import IntMatrix, bareiss_step, det, hermite_basis, in_rational_span
from .lattice import Lattice, LatticeError, Sublattice, definite_sign, scaled_dual

Vector = Tuple[int, ...]


class EnumerationError(LatticeError):
    pass


def _positive_gram(l: Lattice) -> IntMatrix:
    """The Gram matrix of ``l`` or of ``l(-1)``, whichever is positive
    definite, which the Bareiss pivots decide (all leading minors > 0)."""
    g = l.gram.scale(-1) if l.rank and l.gram.entries[0][0] < 0 else l.gram
    try:
        _bareiss(g)
    except EnumerationError:
        definite_sign(l)  # raises on indefinite or degenerate input, naming why
        raise
    return g


def _bareiss(gram: IntMatrix) -> List[List[int]]:
    """Fraction-free (Bareiss) elimination of a positive definite Gram matrix.

    Returns ``m`` with ``d_k = m[k][k]`` the leading principal minor of
    order ``k + 1`` and integer numerators ``B_kl = m[k][l]`` (``l > k``),
    so that, with ``d_{-1} = 1``,

        Q(x) = sum_k (d_k x_k + sum_{l>k} B_kl x_l)^2 / (d_k d_{k-1}).
    """
    m = [list(row) for row in gram.entries]
    prev = 1
    for k in range(gram.rows):
        if m[k][k] <= 0:
            raise EnumerationError("form is not positive definite")
        prev = bareiss_step(m, k, prev)
    return m


def _round_div(a: int, b: int) -> int:
    """``a / b`` rounded to the nearest integer, ties to even: the value
    of ``round(Fraction(a, b))``, without building the Fraction."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    twice = 2 * r
    return q + 1 if twice > b or (twice == b and q % 2) else q


def _size_reduce(gram: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Exact greedy basis reduction: returns (reduced gram, transform V)
    with ``V * G * V^T`` reduced.

    Alternates integer shear sweeps (subtracting the rounded projection
    coefficient) with norm-sorting swaps until stable.  All arithmetic
    is integral; this is only a preconditioner that keeps the
    enumeration intervals short on skew bases coming from quotient
    constructions, not a reduction algorithm with guarantees.
    """
    n = gram.rows
    g = [list(row) for row in gram.entries]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def shear(i: int, j: int, r: int) -> None:
        for k in range(n):
            g[i][k] -= r * g[j][k]
        for k in range(n):
            g[k][i] -= r * g[k][j]
        for k in range(n):
            v[i][k] -= r * v[j][k]

    def swap(i: int, j: int) -> None:
        g[i], g[j] = g[j], g[i]
        for row in g:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    for _ in range(60):
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or g[j][j] == 0:
                    continue
                r = _round_div(g[i][j], g[j][j])
                if r:
                    shear(i, j, r)
                    changed = True
        for i in range(n - 1):
            if g[i + 1][i + 1] < g[i][i]:
                swap(i, i + 1)
                changed = True
        if not changed:
            break
    return IntMatrix(g, cols=n), IntMatrix(v, cols=n)


def enumerate_norm(l: Lattice, m: int) -> List[Vector]:
    """All lattice vectors of norm exactly ``m`` (absolute value for
    negative definite input), closed under negation, in canonical order."""
    if m < 1:
        raise EnumerationError("norm bound must be a positive integer")
    if l.rank == 0:
        return []
    gram_pos = _positive_gram(l)
    gram_red, v = _size_reduce(gram_pos)
    b = _bareiss(gram_red)
    n = gram_red.rows
    d = [b[k][k] for k in range(n)]
    # scaling by L = lcm(d_k d_{k-1}) makes every level's weight an integer
    dd = [d[k] * (d[k - 1] if k else 1) for k in range(n)]
    scale = math.lcm(*dd)
    w = [scale // x for x in dd]
    tails = [b[k][k + 1 :] for k in range(n)]
    found: List[Vector] = []
    x = [0] * n

    def descend(k: int, budget: int, top: bool) -> None:
        # |y| <= s with y = d_k x_k + c bounds x_k to an integer interval;
        # while x_{k+1..n-1} are all zero (top), x_k >= 0 keeps one of +-x
        c = sum(map(mul, tails[k], x[k + 1 :]))
        s = math.isqrt(budget // w[k])
        dk, wk = d[k], w[k]
        for t in range(0 if top else -((s + c) // dk), (s - c) // dk + 1):
            x[k] = t
            y = dk * t + c
            rest = budget - wk * y * y
            if k == 0:
                if rest == 0:
                    found.append(tuple(x))
            else:
                descend(k - 1, rest, top and t == 0)
        x[k] = 0

    descend(n - 1, scale * m, True)
    # map back through the size-reduction transform: rows enumerated in the
    # reduced basis correspond to x*V in the original coordinates
    orig = (IntMatrix(found, cols=n) * v).entries
    return sorted(orig + tuple(tuple(-o for o in x) for x in orig))


@cache
def dual_class_min(sym: str, n: int) -> Fraction:
    """Least norm of a nontrivial discriminant class of the root lattice
    ``sym n``: of a vector of the dual lattice outside the lattice.

    With ``d = det G``, ``C = d G^-1`` is integral, and a dual vector with
    dual-basis coordinates ``v`` has norm ``v C v^T / d`` and lies in the
    lattice exactly when ``v C = 0 mod d``.  The scaled dual is enumerated
    norm by norm until such a ``v`` falls outside the lattice.
    """
    c, d = scaled_dual(sym, n)
    if d == 1:
        raise EnumerationError(f"{sym}{n} is unimodular: no nontrivial dual class")
    dual = Lattice(c)
    for m in count(1):
        found = enumerate_norm(dual, m)
        if found and any(x % d for row in (IntMatrix(found, cols=n) * c).entries for x in row):
            return Fraction(m, d)


# -- root systems ------------------------------------------------------

_TYPE_BY_RANK_COUNT: Dict[Tuple[int, int], Tuple[str, int]] = {}
for _n in range(1, 25):
    _TYPE_BY_RANK_COUNT[(_n, _n * (_n + 1))] = ("A", _n)
for _n in range(4, 25):
    _TYPE_BY_RANK_COUNT[(_n, 2 * _n * (_n - 1))] = ("D", _n)
_TYPE_BY_RANK_COUNT[(6, 72)] = ("E", 6)
_TYPE_BY_RANK_COUNT[(7, 126)] = ("E", 7)
_TYPE_BY_RANK_COUNT[(8, 240)] = ("E", 8)
# rank 3 with 12 roots is reported as A3 by convention


@dataclass(frozen=True, order=True)
class RootSystemType:
    """Multiset of ADE symbols, optionally starred (index-3 overlattice marker)."""

    components: Tuple[Tuple[str, int], ...]  # sorted, e.g. (("E", 8), ("A", 2))
    starred: bool = False

    @staticmethod
    def sort_key(comp: Tuple[str, int]) -> Tuple[int, str]:
        sym, n = comp
        return (-n, {"E": 0, "D": 1, "A": 2}[sym])

    @staticmethod
    def of(components: Sequence[Tuple[str, int]], starred: bool = False) -> "RootSystemType":
        return RootSystemType(tuple(sorted(components, key=RootSystemType.sort_key)), starred)

    @staticmethod
    def parse(text: str) -> "RootSystemType":
        """Parse strings like 'E8+E6', 'A2^6*', 'E6^2+A2^2*' or '0'."""
        text = text.strip()
        starred = text.endswith("*")
        if starred:
            text = text[:-1]
        comps: List[Tuple[str, int]] = []
        if text not in ("", "0"):
            for part in text.split("+"):
                part = part.strip()
                if "^" in part:
                    base, mult = part.split("^")
                    k = int(mult)
                else:
                    base, k = part, 1
                comps.extend([(base[0], int(base[1:]))] * k)
        return RootSystemType.of(comps, starred)

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    def root_count(self) -> int:
        total = 0
        for sym, n in self.components:
            if sym == "A":
                total += n * (n + 1)
            elif sym == "D":
                total += 2 * n * (n - 1)
            else:
                total += {6: 72, 7: 126, 8: 240}[n]
        return total

    def with_star(self, starred: bool) -> "RootSystemType":
        return RootSystemType(self.components, starred)

    def __add__(self, other: "RootSystemType") -> "RootSystemType":
        return RootSystemType.of(self.components + other.components, self.starred or other.starred)

    def __str__(self) -> str:
        if not self.components:
            return "0" + ("*" if self.starred else "")
        runs: List[Tuple[Tuple[str, int], int]] = []
        for comp in self.components:
            if runs and runs[-1][0] == comp:
                runs[-1] = (comp, runs[-1][1] + 1)
            else:
                runs.append((comp, 1))
        parts = [
            f"{sym}{n}" + (f"^{k}" if k > 1 else "") for (sym, n), k in runs
        ]
        return "+".join(parts) + ("*" if self.starred else "")


EMPTY_TYPE = RootSystemType.of([])


def _identify_component(rank: int, count: int) -> Tuple[str, int]:
    t = _TYPE_BY_RANK_COUNT.get((rank, count))
    if t is None:
        raise EnumerationError(
            f"component with rank {rank} and {count} roots matches no ADE type"
        )
    return t


def root_decomposition(
    roots: Sequence[Vector], gram: IntMatrix
) -> Tuple[RootSystemType, List[Vector]]:
    """ADE type and simple roots of the roots ``roots`` (norm +-2 under
    ``gram``, closed under negation and under their own reflections).

    The lexicographically positive roots form a positive system.  Scanned
    in ascending order, a positive root is simple unless subtracting an
    earlier simple root leaves a positive root (Humphreys, *Reflection
    Groups*, 1.3-1.6).  The components are those of the Dynkin graph of
    the simple roots, read off their Cartan matrix; every root lies in
    the component of the first simple root it pairs nonzero with, and a
    component's rank is its number of simple roots.  Both pairing tables
    are one ``IntMatrix`` product each.
    """
    n = gram.rows
    zero = (0,) * n
    positive = sorted(r for r in roots if r > zero)
    is_positive = set(positive)
    simple: List[Vector] = []
    for beta in positive:
        if not any(
            tuple(map(sub, beta, alpha)) in is_positive for alpha in simple
        ):
            simple.append(beta)
    s = IntMatrix(simple, cols=n)
    g_simple_t = (s * gram).transpose()
    cartan = (s * g_simple_t).entries
    pairings = (IntMatrix(positive, cols=n) * g_simple_t).entries

    comp = [-1] * len(simple)
    for i in range(len(simple)):
        if comp[i] < 0:
            comp[i] = i
            stack = [i]
            while stack:
                for j, c in enumerate(cartan[stack.pop()]):
                    if c and comp[j] < 0:
                        comp[j] = i
                        stack.append(j)
    counts: Dict[int, int] = {}
    for row in pairings:
        c = comp[next(i for i, x in enumerate(row) if x)]
        counts[c] = counts.get(c, 0) + 2
    return (
        RootSystemType.of([_identify_component(comp.count(c), k) for c, k in counts.items()]),
        simple,
    )


@cache
def _root_analysis(gram: IntMatrix) -> Tuple[RootSystemType, IntMatrix]:
    """Root type and Hermite basis of the simple roots of the definite
    form ``gram``, computed once per Gram matrix."""
    rtype, simple = root_decomposition(enumerate_norm(Lattice(gram), 2), gram)
    return rtype, hermite_basis(simple, gram.rows)


def root_system(l: Lattice) -> Tuple[RootSystemType, Sublattice]:
    """Root-system type of a definite lattice and the sublattice its roots span.

    The span basis is the Hermite form of the simple roots, which is the
    Hermite form of all roots: both sets have the same Z-span.  The
    analysis is shared by every lattice with the same Gram matrix; the
    returned sublattice lies in ``l`` itself.
    """
    rtype, span = _root_analysis(l.gram)
    return rtype, Sublattice(l, span)


def root_span_index(l: Lattice) -> int:
    """Index of the root span inside the full lattice (requires equal ranks)."""
    rtype, span = root_system(l)
    if rtype.rank != l.rank:
        raise EnumerationError("roots do not span the lattice rationally")
    return abs(det(span.basis))  # the span is square: its index in Z^rank


def complement_root_type(s: Sublattice, ambient: Lattice | None = None) -> RootSystemType:
    """Root type of the orthogonal complement of a root-spanned sublattice."""
    r = s.ambient if ambient is None else ambient
    all_roots = enumerate_norm(r, 2)
    # the sublattice must be spanned by roots of the ambient lattice
    in_span = [v for v in all_roots if in_rational_span(v, s.basis)]
    _, simple = root_decomposition(in_span, r.gram)
    if hermite_basis(simple, r.rank) != hermite_basis(s.basis.entries, r.rank):
        raise LatticeError("sublattice is not spanned by roots of the ambient lattice")
    pairings = (IntMatrix(all_roots, cols=r.rank) * (s.basis * r.gram).transpose()).entries
    comp_roots = [v for v, p in zip(all_roots, pairings) if not any(p)]
    return root_decomposition(comp_roots, r.gram)[0]

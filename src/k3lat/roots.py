"""Short-vector enumeration in definite lattices and ADE root systems.

Everything runs on Python integers.  Enumeration is a fraction-free
Fincke--Pohst traversal (Fincke--Pohst, Math. Comp. 1985): the symmetric
Bareiss elimination (``exactla.gram_elimination``) of the size-reduced
Gram matrix gives leading minors ``d_k`` and integer numerators, and
scaling the norm by ``lcm(d_k d_{k-1})`` turns every level's interval
into an integer square root and an integer subtraction.  The test suite checks it against a brute-force
coefficient-box enumerator.

``enumerate_norm`` is reduce (``_size_reduce``), search (the traversal,
which keeps one of each pair +-x, in reduced coordinates), map back
through the reduction transform V, and sort: vectors are returned
closed under negation, sorted lexicographically on their coefficient
tuples, so output order is deterministic.

Root systems are decomposed through simple roots: the lexicographically
positive roots are a positive system, its simple roots are found by one
ascending scan, and the components are those of the Dynkin graph of the
simple roots (Humphreys, *Reflection Groups*, 1.3; Bourbaki VI 1.6).
The scan runs on packed integer keys (``packed_keys``), so ordering,
positivity and the simplicity test are integer comparisons, one
subtraction and one set lookup.  ``root_system`` shares the reduce and
search steps with ``enumerate_norm`` and decomposes the half the search
returns, in the reduced basis; only the simple roots are mapped back
through V, since the root span is the Hermite form of the simple roots,
whichever basis and positive system they were found in.

The layer is integer-only: ``dual_class_min`` enumerates the integer
scaled dual of ``lattice.scaled_dual`` and returns the numerator of a
least class norm over det G, and the size reduction rounds quotients
with ``divmod``.
``root_system`` analyses each Gram matrix once per process (a
``functools.cache`` keyed on the Gram matrix); a lattice with a Gram
matrix already seen gets the cached type and span basis, wrapped as a
sublattice of that lattice.  ``complement_root_type`` is two such
reads: the saturation of a sublattice holds the ambient roots in its
rational span, and its orthogonal complement the roots orthogonal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, count
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .exactla import IntMatrix, det, gram_elimination, hermite_basis, saturate
from .lattice import Lattice, LatticeError, Sublattice, definite_sign, scaled_dual

Vector = Tuple[int, ...]


class EnumerationError(LatticeError):
    pass


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
                # the quotient rounds to 0 exactly when 2|g_ij| <= |g_jj| (a
                # tie rounds to the even 0), so those shears are skipped
                # without a division and every other one is nonzero
                if i == j or g[j][j] == 0 or 2 * abs(g[i][j]) <= abs(g[j][j]):
                    continue
                shear(i, j, _round_div(g[i][j], g[j][j]))
                changed = True
        for i in range(n - 1):
            if g[i + 1][i + 1] < g[i][i]:
                swap(i, i + 1)
                changed = True
        if not changed:
            break
    return IntMatrix(g, cols=n), IntMatrix(v, cols=n)


def _reduced_search(l: Lattice, m: int) -> Tuple[IntMatrix, IntMatrix, List[Vector]]:
    """Reduce, then search: ``(G', V, half)`` with ``G' = V G V^T`` the
    size-reduced positive definite Gram matrix of ``l`` and ``half`` its
    vectors of norm ``m`` whose last nonzero coordinate is positive, one of
    each pair +-x, in the reduced basis and in the order the search finds
    them."""
    if m < 1:
        raise EnumerationError("norm bound must be a positive integer")
    # the positive definite one of G and -G; ``definite_sign`` raises on
    # indefinite or degenerate input, naming why, from the cached inertia
    gram_red, v = _size_reduce(l.gram.scale(definite_sign(l)))
    b, d = gram_elimination(gram_red)
    n = gram_red.rows
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

    if n:
        descend(n - 1, scale * m, True)
    return gram_red, v, found


def enumerate_norm(l: Lattice, m: int) -> List[Vector]:
    """All lattice vectors of norm exactly ``m`` (absolute value for
    negative definite input), closed under negation, in canonical order."""
    _, v, half = _reduced_search(l, m)
    # map back through the size-reduction transform: rows found in the
    # reduced basis correspond to x*V in the original coordinates
    orig = (IntMatrix._of(tuple(half), v.rows) * v).entries
    return sorted(orig + tuple(tuple(-o for o in x) for x in orig))


@cache
def dual_class_min(sym: str, n: int) -> int:
    """The integer m for which m / det G is the least norm of a nontrivial
    discriminant class of the root lattice ``sym n``: of a vector of the
    dual lattice outside the lattice.

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
        if found and any(x % d for row in (IntMatrix._of(tuple(found), n) * c).entries for x in row):
            return m


# -- root systems ------------------------------------------------------


def _component_root_count(sym: str, n: int) -> int:
    if sym == "A":
        return n * (n + 1)
    if sym == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


# rank 3 with 12 roots is reported as A3 by convention (no D3 entry)
_TYPE_BY_RANK_COUNT: Dict[Tuple[int, int], Tuple[str, int]] = {
    (n, _component_root_count(sym, n)): (sym, n)
    for sym, ranks in (("A", range(1, 25)), ("D", range(4, 25)), ("E", (6, 7, 8)))
    for n in ranks
}


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
        return sum(_component_root_count(*c) for c in self.components)

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


def packed_keys(vectors: Sequence[Vector]) -> List[int]:
    """Integer keys ``key(v) = sum_k v_k B^(n-1-k)`` of ``vectors``, in
    base ``B = 3M + 1`` for ``M`` their largest absolute coordinate.

    The key is linear.  A vector ``w`` with every ``|w_k| <= B - 1`` has
    the sign of its first nonzero coordinate, whose digit outweighs the
    rest, ``sum_{k>j} (B - 1) B^(n-1-k) < B^(n-1-j)``; so its key is 0
    only when ``w = 0``.  For vectors u, v, w of the set this makes:

    * key order lexicographic order, and key > 0 the lexicographically
      positive vectors (``u - v`` has coordinates of size up to 2M);
    * ``key u - key v = key w`` exactly when ``u - v = w``, since
      ``u - v - w`` has coordinates of size up to 3M = B - 1.

    The root decomposition needs the second fact; a base of ``2M + 1``
    gives only the first, and lets the key of a difference of two roots
    equal the key of a root that is not that difference.
    """
    base = 3 * max(map(abs, chain.from_iterable(vectors)), default=0) + 1
    n = len(vectors[0]) if vectors else 0
    powers = [base**k for k in range(n - 1, -1, -1)]
    return [sum(map(mul, v, powers)) for v in vectors]


def root_decomposition(
    roots: Sequence[Vector], gram: IntMatrix
) -> Tuple[RootSystemType, List[Vector]]:
    """ADE type and simple roots of the roots ``roots`` (norm +-2 under
    ``gram``, closed under their own reflections), given either closed
    under negation or as one root of each pair +-r.

    The lexicographically positive roots form a positive system; on
    ``packed_keys`` they are the roots of positive key, in key order, and
    ``|key|`` picks the positive one of each pair.  Scanned in ascending
    order, a positive root beta is simple unless ``beta - alpha`` is a
    positive root for an earlier simple root alpha (Humphreys,
    *Reflection Groups*, 1.3-1.6), one subtraction and one set lookup of
    keys.  Then ``beta = (beta - alpha) + alpha`` with three roots forces
    ``beta - alpha`` and alpha to pair nonzero, so beta lies in the
    component of the first such alpha and is counted for it.  The
    components are those of the Dynkin graph of the simple roots, read off
    their Cartan matrix; a component's rank is its number of simple roots,
    and its root count is twice the positive roots counted for them.
    """
    keys = packed_keys(roots)
    by_key = dict(zip(keys, roots))
    positive = set(map(abs, keys))  # |key| of each pair +-r
    simple: List[int] = []
    counted: List[int] = []  # positive roots counted for each simple root
    for kb in sorted(positive):
        for i, ka in enumerate(simple):
            if kb - ka in positive:
                counted[i] += 1
                break
        else:
            simple.append(kb)
            counted.append(1)
    vectors = [by_key[k] if k in by_key else tuple(-c for c in by_key[-k]) for k in simple]
    s = IntMatrix._of(tuple(vectors), gram.rows)
    cartan = (s * gram * s.transpose()).entries

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
    for c, k in zip(comp, counted):
        counts[c] = counts.get(c, 0) + 2 * k
    return (
        RootSystemType.of([_identify_component(comp.count(c), k) for c, k in counts.items()]),
        vectors,
    )


@cache
def _root_analysis(gram: IntMatrix) -> Tuple[RootSystemType, IntMatrix]:
    """Root type and Hermite basis of the simple roots of the definite
    form ``gram``, computed once per Gram matrix.

    The decomposition runs in the size-reduced basis of the search, on
    the half of the roots the search returns and the reduced Gram
    matrix, where the coordinates (and so the packed keys) are smallest.
    Only the simple roots are mapped back through V: they span the same
    lattice as all roots, and the Hermite form of that span depends on
    neither the positive system nor the basis it was found in.
    """
    gram_red, v, half = _reduced_search(Lattice(gram), 2)
    rtype, simple = root_decomposition(half, gram_red)
    return rtype, hermite_basis((IntMatrix._of(tuple(simple), v.rows) * v).entries, gram.rows)


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


def complement_root_type(s: Sublattice) -> RootSystemType:
    """Root type of the orthogonal complement of a root-spanned sublattice.

    Two ``root_system`` reads type both sides.  The ambient roots in the
    rational span of ``s`` are the roots of its saturation, so ``s`` is
    root-spanned exactly when the root span of the saturation, mapped
    back to ambient coordinates, has the Hermite form of ``s``.  The
    ambient roots orthogonal to ``s`` are the roots of ``s``-perp.
    """
    r = s.ambient
    sat = Sublattice(r, saturate(s.basis))
    _, span = root_system(sat.lattice())
    if hermite_basis((span.basis * sat.basis).entries, r.rank) != hermite_basis(
        s.basis.entries, r.rank
    ):
        raise LatticeError("sublattice is not spanned by roots of the ambient lattice")
    return root_system(s.orth_complement().lattice())[0]

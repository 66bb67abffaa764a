"""Short-vector enumeration in definite lattices and ADE root systems.

Everything runs on Python integers.  Enumeration is a fraction-free
Fincke--Pohst traversal (Fincke--Pohst, Math. Comp. 1985): the symmetric
Bareiss elimination (``exactla.gram_elimination``) of the size-reduced
Gram matrix gives leading minors ``d_k`` and integer numerators, and
scaling the norm by ``lcm(d_k d_{k-1})`` turns every level's interval
into an integer square root and an integer subtraction.  The minors also
prove the form definite; the ``definite_sign`` of the input only names a
failure.  ``enumerate_norm`` is reduce (``_size_reduce``), search (which
keeps one of each pair +-x, in reduced coordinates), map back through
the transform V, and sort: the vectors, closed under negation, are in
lexicographic order of their coefficient tuples.

A root analysis proves the type without enumerating roots where it can.
Every norm is a multiple of the content gcd(g_ii, 2 g_ij), so content
above 2 leaves no roots.  Else it reduces once and completes the reduced
basis to a basis of roots, each row of norm other than 2 replaced by a
root of its coset over the rows before it (a search of that coset).  A
basis of roots makes the lattice the root lattice Q(R) of its norm-2
vectors R (Humphreys, *Reflection Groups*, 2.9-2.10; Conway--Sloane,
SPLAG, ch. 4): the span is the identity, and each piece of the basis's
pairing graph is an irreducible component, named by rank and determinant.
A coset with no root leaves one pass of the search: its order is that of
an exact integer key, positive on the vectors it keeps, so the roots it
finds are a positive system; each goes to the simple-root scan as found,
and the search stops at the rank-th simple root, typed by the Dynkin
diagram (Humphreys, 1.3; Bourbaki VI 1.6).  The index of the root span
is read off determinants alone (``span_index``): for n simple roots with
Cartan matrix C in a lattice with Gram matrix G, index^2 = det C / |det
G|.  Index 1 makes the span the identity basis; any other index maps the
simple roots back through V, and their Hermite form is the root span.

``dual_class_min`` enumerates the integer scaled dual of
``lattice.scaled_dual``; only ``glue_root_sum`` reads those classes, to
glue a sum of root lattices by a Z/3 code that adds no roots, as in
E6^4 and the starred models.  ``root_system`` analyses each Gram matrix
once per process (``functools.cache``); a lattice with a Gram matrix
already seen gets the cached type and span, as a sublattice of itself.
``complement_root_type`` is two such reads: the saturation of a
sublattice holds the ambient roots in its rational span, and its
orthogonal complement the roots orthogonal to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, count, groupby, product
from operator import mul
from typing import Callable, Dict, List, Sequence, Tuple

from .exactla import IntMatrix, gram_elimination, hermite_basis, saturate
from .lattice import (
    Lattice,
    LatticeError,
    Overlattice,
    Sublattice,
    definite_sign,
    glue_overlattice,
    scaled_dual,
)

Vector = Tuple[int, ...]
Visit = Callable[[int, List[int]], object]  # (key, vector) -> stop the search?
Reduction = Tuple[IntMatrix, IntMatrix]  # (reduced Gram matrix V G V^T, transform V)
Elimination = Tuple[List[List[int]], List[int]]  # gram_elimination: (numerators B, pivots d)


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


def _size_reduce(gram: IntMatrix) -> Reduction | None:
    """Exact greedy basis reduction of a form with a positive diagonal:
    returns (reduced gram, transform V) with ``V * G * V^T`` reduced, or
    None when a pair it tests has ``g_ij^2 >= g_ii g_jj``, which by
    Cauchy--Schwarz proves the form not positive definite.

    Alternates integer shear sweeps (subtracting the rounded projection
    coefficient) with norm-sorting swaps until stable.  All arithmetic
    is integral; this is only a preconditioner that keeps the
    enumeration intervals short on skew bases coming from quotient
    constructions, not a reduction algorithm with guarantees.

    The test of pair (i, j) reads products of basis vectors i and j, which
    swaps only move and a shear of i changes, so a sweep tests only pairs
    with a vector changed since their last test: the others would skip.
    A pair that passes Cauchy--Schwarz spans a positive definite plane, so
    its shear leaves vector i a positive norm.
    """
    n = gram.rows
    g = [list(row) for row in gram.entries]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    diag = [abs(g[i][i]) for i in range(n)]
    # stamp[k]: the step at which vector k last changed; begun[i]: the
    # step at which the tests of vector i as row last began
    stamp, begun, step = [0] * n, [-1] * n, 0

    for _ in range(60):
        changed = False
        for i in range(n):
            since, begun[i] = begun[i], step
            dirty = stamp[i] > since
            for j in range(n):
                # the quotient rounds to 0 exactly when 2|g_ij| <= |g_jj| (a
                # tie rounds to the even 0), so those shears are skipped
                # without a division and every other one is nonzero
                if (not dirty and stamp[j] <= since) or i == j or diag[j] == 0 or 2 * abs(g[i][j]) <= diag[j]:
                    continue
                if g[i][j] * g[i][j] >= g[i][i] * g[j][j]:
                    return None
                r = _round_div(g[i][j], g[j][j])
                g[i] = [a - r * b for a, b in zip(g[i], g[j])]
                for row in g:
                    row[i] -= r * row[j]
                v[i] = [a - r * b for a, b in zip(v[i], v[j])]
                step += 1
                stamp[i], diag[i], dirty, changed = step, abs(g[i][i]), True, True
        for i in range(n - 1):
            if g[i + 1][i + 1] < g[i][i]:
                for row in g:
                    row[i], row[i + 1] = row[i + 1], row[i]
                for a in (g, v, diag, stamp, begun):
                    a[i], a[i + 1] = a[i + 1], a[i]
                changed = True
        if not changed:
            break
    return IntMatrix(g, cols=n), IntMatrix(v, cols=n)


def _definite_reduce(l: Lattice) -> Reduction | None:
    """``_size_reduce`` of G or -G, the one with a positive diagonal, as a
    definite form has; on a diagonal of both signs ``definite_sign`` raises."""
    diag = [row[i] for i, row in enumerate(l.gram.entries)]
    sign = 1 if min(diag, default=1) > 0 else -1 if max(diag) < 0 else definite_sign(l)
    return _size_reduce(l.gram.scale(sign))


def _definite_elimination(l: Lattice, reduced: Reduction | None) -> Elimination:
    """``gram_elimination`` of the reduced form: n positive pivots prove it
    definite (Sylvester), else ``definite_sign`` raises, naming why; a
    reduction that met a pair beyond Cauchy--Schwarz left no form."""
    b, d = gram_elimination(reduced[0]) if reduced else ([], [])
    if len(d) < l.rank or min(d, default=1) < 1:
        definite_sign(l)
    return b, d


def _reduced_search(
    l: Lattice, reduced: Reduction | None, m: int, visit: Visit, elim: Elimination | None = None, coset: int = -1
) -> Tuple[IntMatrix, IntMatrix, int]:
    """Search ``reduced = _definite_reduce(l)`` (``elim``: its elimination,
    if made): returns ``(G', V, det G')``, ``G' = V G V^T`` size-reduced and
    positive definite, after ``visit(key, x)`` on each x of norm ``m`` with
    last nonzero coordinate positive (reduced coordinates), or in the coset
    b_k + span(b_0..b_(k-1)) for ``coset = k``, until it returns True.
    ``key x = sum_k x_k P_k``, ``P_0 = 1``, ``P_(k+1) = P_k
    (3 M_k + 1)`` for ``M_k`` the bound on ``|x_k|`` that the level-k
    intervals prove: the top nonzero digit outweighs the rest, so keys
    ascend and ``key u - key v = key w`` only when ``u - v = w``."""
    b, d = elim or _definite_elimination(l, reduced)
    n = l.rank
    gram_red, v = reduced
    # scaling by L = lcm(d_k d_{k-1}) makes every level's weight an integer
    dd = [d[k] * (d[k - 1] if k else 1) for k in range(n)]
    scale = math.lcm(*dd)
    w = [scale // x for x in dd]
    tails = [b[k][k + 1 :] for k in range(n)]
    # level k bounds y = d_k x_k + c by |y| <= isqrt(scale m / w_k), and
    # |c| <= sum_j |b_kj| M_j over the levels above it
    bound = [0] * n
    for k in reversed(range(n)):
        c = sum(abs(bkj) * mj for bkj, mj in zip(tails[k], bound[k + 1 :]))
        bound[k] = (math.isqrt(scale * m // w[k]) + c) // d[k]
    place = list(accumulate([3 * mk + 1 for mk in bound[:-1]], mul, initial=1))
    x = [0] * n

    def descend(k: int, budget: int, top: bool, key: int) -> bool:
        # |y| <= s with y = d_k x_k + c bounds x_k to an integer interval;
        # while x_{k+1..n-1} are all zero (top), x_k >= 0 keeps one of +-x;
        # the top level of a coset search takes x_k = 1 alone
        c = sum(map(mul, tails[k], x[k + 1 :]))
        s = math.isqrt(budget // w[k])
        dk, wk, pk = d[k], w[k], place[k]
        ts = range(0 if top else -((s + c) // dk), (s - c) // dk + 1)
        for t in ts if k != coset else (1,) if 1 in ts else ():
            x[k] = t
            y = dk * t + c
            rest = budget - wk * y * y
            if k == 0:
                if rest == 0 and visit(key + t, x):
                    return True
            elif descend(k - 1, rest, top and t == 0, key + t * pk):
                return True
        x[k] = 0
        return False

    if n:
        descend(n - 1 if coset < 0 else coset, scale * m, True, 0)
    return gram_red, v, d[-1] if d else 1


def enumerate_norm(l: Lattice, m: int) -> List[Vector]:
    """All lattice vectors of norm exactly ``m`` (absolute value for
    negative definite input), closed under negation, in canonical order."""
    if m < 1:
        raise EnumerationError("norm bound must be a positive integer")
    half: List[Vector] = []
    _, v, _ = _reduced_search(l, _definite_reduce(l), m, lambda key, x: half.append(tuple(x)))
    # a row x found in the reduced basis is x*V in the original coordinates
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


class GlueError(LatticeError):
    pass


def glue_root_sum(
    l: Lattice, factors: Sequence[Tuple[str, int]], gens: Sequence[Sequence[int]]
) -> Overlattice:
    """The overlattice of ``l``, a sum of the root lattices ``factors`` of
    either sign, glued by the code that ``gens`` span mod 3.  Word w adds
    the sum of ``w_i c_i``, for ``c_i`` the first ``scaled_dual`` row of
    factor i over d, the lcm of the factor determinants, which generates
    the Z/3 of an A2 or E6 factor.
    Both nonzero classes, c and -c, have least norm q = 4/3 or 2/3, and
    c^2 q = q mod 2 for c = +-1 mod 3, so a word's coset minimum (the sum
    of q over its support) and norm parity depend only on its support.
    A word adds roots (``GlueError``) when that minimum is at most 2;
    ``glue_overlattice`` rejects glue that is not integral and even."""
    duals = [scaled_dual(*f) for f in factors]
    d = math.lcm(*(df for _, df in duals))
    code = frozenset(
        tuple(sum(c * g[i] for c, g in zip(cs, gens)) % 3 for i in range(len(factors)))
        for cs in product(range(3), repeat=len(gens))
    ) - {(0,) * len(factors)}
    for w in code:
        if sum(dual_class_min(*f) * (d // df) for f, (_, df), c in zip(factors, duals, w) if c) <= 2 * d:
            raise GlueError(f"glue word {w} adds roots")
    glue = [[c * x * (d // df) for c, (cf, df) in zip(g, duals) for x in cf.entries[0]] for g in gens]
    return glue_overlattice(l, glue, d)


# -- root systems ------------------------------------------------------


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
        for part in text.split("+") if text not in ("", "0") else ():
            base, hat, mult = part.strip().partition("^")
            comps += [(base[0], int(base[1:]))] * (int(mult) if hat else 1)
        return RootSystemType.of(comps, starred)

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.components)

    def root_count(self) -> int:
        # n h roots in a component of rank n and Coxeter number h
        h = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get}
        return sum(n * h[sym](n) for sym, n in self.components)

    def cartan_det(self) -> int:
        # the order of the discriminant group of each component's root lattice
        d = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: 9 - n}
        return math.prod(d[sym](n) for sym, n in self.components)

    def with_star(self, starred: bool) -> "RootSystemType":
        return RootSystemType(self.components, starred)

    def __add__(self, other: "RootSystemType") -> "RootSystemType":
        return RootSystemType.of(self.components + other.components, self.starred or other.starred)

    def __str__(self) -> str:
        runs = [(comp, len(list(same))) for comp, same in groupby(self.components)]
        text = "+".join(f"{sym}{n}" + (f"^{k}" if k > 1 else "") for (sym, n), k in runs)
        return (text or "0") + ("*" if self.starred else "")


EMPTY_TYPE = RootSystemType.of([])


def packed_keys(vectors: Sequence[Vector]) -> List[int]:
    """Integer keys ``key(v) = sum_k v_k B^(n-1-k)`` of ``vectors``, in
    base ``B = 3M + 1`` for ``M`` their largest absolute coordinate.

    The key is linear, and the first nonzero digit of a vector with every
    ``|w_k| <= B - 1`` outweighs the rest.  So, for u, v, w in the set, key
    order is lexicographic order (``u - v`` has coordinates up to 2M), and
    ``key u - key v = key w`` exactly when ``u - v = w`` (``u - v - w`` has
    coordinates up to 3M); a base of ``2M + 1`` gives only the first."""
    base = 3 * max(map(abs, chain.from_iterable(vectors)), default=0) + 1
    n = len(vectors[0]) if vectors else 0
    powers = [base**k for k in range(n - 1, -1, -1)]
    return [sum(map(mul, v, powers)) for v in vectors]


def _simple_scan(limit: int, simple: List[Vector]) -> Visit:
    """``visit(key, root)`` of the simple-root scan, fed the positive roots
    in ascending order of a linear key exact on differences: it appends
    each simple root to ``simple`` and returns True at the ``limit``-th.  A
    positive beta is simple unless ``beta - alpha`` is a positive root for
    a simple alpha (Humphreys, *Reflection Groups*, 1.3-1.6); both come
    before beta, so the test is exact on every prefix of the order."""
    positive = set()
    keys: List[int] = []

    def visit(key: int, root: Sequence[int]) -> bool:
        for ka in keys:
            if key - ka in positive:
                break
        else:
            keys.append(key)
            simple.append(tuple(root))
            if len(keys) == limit:
                return True
        positive.add(key)
        return False

    return visit


def _layers(gram: Sequence[Sequence[int]], start: int) -> Dict[int, int]:
    """Distance from ``start`` of each node it reaches in the graph joining
    nodes i != j with ``gram[i][j] != 0``, breadth first."""
    depth = {start: 0}
    order = [start]
    for a in order:
        for j, c in enumerate(gram[a]):
            if c and j not in depth:
                depth[j] = depth[a] + 1
                order.append(j)
    return depth


def _pieces(gram: Sequence[Sequence[int]]) -> List[List[int]]:
    """The connected components of that graph, by least node."""
    pieces: List[List[int]] = []
    for i in range(len(gram)):
        if all(i not in piece for piece in pieces):
            pieces.append(list(_layers(gram, i)))
    return pieces


def diagram_type(cartan: Sequence[Sequence[int]]) -> RootSystemType:
    """ADE type of simple roots with the Cartan matrix ``cartan``, one
    component per piece of its Dynkin diagram: a path is A_n, a tree with
    one branch node is D_n when its arms have (1, 1, k) nodes and E6, E7,
    E8 when (1, 2, 2), (1, 2, 3), (1, 2, 4); any other diagram raises.
    Layer d >= 1 from the branch node has one node per arm of >= d nodes."""
    adj = [[j for j, c in enumerate(row) if c and j != i] for i, row in enumerate(cartan)]
    comps: List[Tuple[str, int]] = []
    for piece in _pieces(cartan):
        n = len(piece)
        degree = sorted(len(adj[a]) for a in piece)
        if sum(degree) == 2 * n - 2 and degree[-1] <= 2:
            comps.append(("A", n))
            continue
        if sum(degree) == 2 * n - 2 and degree[-1] == 3 and degree[-2] <= 2:
            depths = list(_layers(cartan, next(a for a in piece if len(adj[a]) == 3)).values())
            arms = [sum(depths.count(d) >= k for d in range(1, n)) for k in (3, 2, 1)]
            if arms[:2] == [1, 1] or arms[:2] == [1, 2] and arms[2] <= 4:
                comps.append(("DE"[arms[1] - 1], n))
                continue
        raise EnumerationError(f"a component of {n} simple roots has no ADE Dynkin diagram")
    return RootSystemType.of(comps)


def _root_basis_type(l: Lattice, gram: IntMatrix) -> RootSystemType:
    """Type of ``l`` from ``gram``, its form (scaled positive) in a basis of
    roots, with no root enumerated.  The pieces of the pairing graph are
    the irreducible components; one elimination per piece proves it
    definite (else ``definite_sign`` raises, naming why) and ends in its
    determinant, which names its type with its rank: det A_n = n + 1,
    det D_n = 4 (n >= 4), and det E6, E7, E8 = 3, 2, 1."""
    rows = gram.entries
    comps: List[Tuple[str, int]] = []
    for piece in _pieces(rows):
        k = len(piece)
        _, d = gram_elimination(IntMatrix._of(tuple(tuple(rows[a][b] for b in piece) for a in piece), k))
        if len(d) < k or min(d) < 1:
            definite_sign(l)
        comps.append(("A" if d[-1] == k + 1 else "D" if d[-1] == 4 else "E", k))
    return RootSystemType.of(comps)


@cache
def _root_analysis(gram: IntMatrix) -> Tuple[RootSystemType, IntMatrix]:
    """Root type and Hermite basis of the simple roots of the definite
    form ``gram``, once per Gram matrix, from one size reduction.  Content
    above 2 leaves no roots.  Else each row k of the reduced basis whose
    norm is not 2, in ascending order, gives way to the first root of
    b_k + span(b_0..b_(k-1)): a unitriangular, so unimodular, change.  A
    basis of roots proves the lattice even and equal to Q(R), R its norm-2
    vectors, an ADE system (Humphreys, 2.9-2.10; Conway--Sloane, ch. 4):
    the span is the identity.  A root of an orthogonal sum of even definite
    lattices lies in one summand, so the pieces of the pairing graph are
    the irreducible components (``_root_basis_type``).  A coset with no
    root leaves the search, on the same elimination: it feeds its positive
    system to ``_simple_scan`` until the rank-th simple root.  For n simple
    roots S, det C = det(S)^2 det G' for C = S G' S^T, so det C = det G'
    proves the span the whole lattice (the identity); otherwise only the
    simple roots go back through V."""
    n = gram.rows
    l = Lattice._of(gram)
    rows = gram.entries
    if math.gcd(*(row[i] for i, row in enumerate(rows)), *(2 * x for row in rows for x in row)) > 2:
        definite_sign(l)
        return EMPTY_TYPE, IntMatrix._of((), n)
    reduced = _definite_reduce(l)
    elim = None
    if reduced is not None:
        g = reduced[0]
        tail = [k for k in range(n) if g.entries[k][k] != 2]
        elim = _definite_elimination(l, reduced) if tail else None
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for k in tail:
            found: List[Vector] = []
            _reduced_search(l, reduced, 2, lambda key, x: found.append(tuple(x)) or True, elim, k)
            if not found:
                break
            basis[k] = found[0]
        else:
            t = IntMatrix._of(tuple(basis), n)
            return _root_basis_type(l, t * g * t.transpose() if tail else g), IntMatrix.identity(n)
    simple: List[Vector] = []
    gram_red, v, det_red = _reduced_search(l, reduced, 2, _simple_scan(n, simple), elim)
    s = IntMatrix._of(tuple(simple), n)
    cartan = s * gram_red * s.transpose()
    rtype = diagram_type(cartan.entries)
    if len(simple) == n and rtype.cartan_det() == det_red:
        return rtype, IntMatrix.identity(n)
    return rtype, hermite_basis((s * v).entries, n)


def root_system(l: Lattice) -> Tuple[RootSystemType, Sublattice]:
    """Root-system type of a definite lattice and the sublattice its roots span.

    The span basis is the Hermite form of the simple roots, which is the
    Hermite form of all roots: both sets have the same Z-span.  The
    analysis is shared by every lattice with the same Gram matrix; the
    returned sublattice lies in ``l`` itself.
    """
    rtype, span = _root_analysis(l.gram)
    return rtype, Sublattice(l, span)


def square_index(sub_det: int, det: int) -> int:
    """Index of a full-rank sublattice with Gram determinant ``sub_det`` in
    a lattice of determinant ``det``, from index^2 |det| = |sub_det|; 0 if none fits."""
    index = math.isqrt(abs(sub_det) // abs(det))
    return index if index * index * abs(det) == abs(sub_det) else 0


def span_index(rtype: RootSystemType, det: int) -> int:
    """Index of the root span in a lattice of determinant ``det`` whose
    roots, of type ``rtype``, span it rationally.  In simple roots the
    span's Gram matrix is the Cartan matrix C, so index^2 |det| = det C;
    a type that fails this certificate is not the lattice's root type
    (``EnumerationError``)."""
    cartan = rtype.cartan_det()
    if not (index := square_index(cartan, det)):
        raise EnumerationError(f"det C = {cartan} of {rtype} is not a square times |det| = {abs(det)}")
    return index


def root_span_index(l: Lattice) -> int:
    """Index of the root span inside the full lattice (requires equal ranks)."""
    rtype, _ = root_system(l)
    if rtype.rank != l.rank:
        raise EnumerationError("roots do not span the lattice rationally")
    return span_index(rtype, l.det())


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

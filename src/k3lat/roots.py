"""Short-vector enumeration in definite lattices and ADE root systems.

Everything runs on Python integers.  One reduction stands in front of
every search: integral LLL at delta = 3/4 on the Gram matrix (``_lll``;
Lenstra--Lenstra--Lovasz 1982, Cohen GTM 138 Alg. 2.6.7), which keeps
the leading minors ``d_k`` and the numerators ``lam_kj`` as integers.  A
minor ``d_k <= 0`` proves the form not definite, and ``definite_sign``
of the input names why.  The minors and numerators it ends with are the
symmetric Bareiss elimination (``exactla.gram_elimination``) of the
reduced form, so the enumeration, a fraction-free Fincke--Pohst
traversal (Fincke--Pohst, Math. Comp. 1985), reads them without a second
elimination: scaling the norm by ``lcm(d_k d_{k-1})`` turns every
level's interval into an integer square root and an integer
subtraction.  ``enumerate_norm`` is reduce, search (which keeps one of
each pair +-x, in reduced coordinates), map back through the unimodular
transform V, and sort: the vectors, closed under negation, are in
lexicographic order of their coefficient tuples.

A root analysis proves the type without enumerating roots where it can.
Every norm is a multiple of the content gcd(g_ii, 2 g_ij), so content
above 2 leaves no roots.  Else it reduces once; a reduced form with
every diagonal entry 2 is a basis of roots, which makes the lattice the
root lattice Q(R) of its norm-2 vectors R (Humphreys, *Reflection
Groups*, 2.9-2.10; Conway--Sloane, SPLAG, ch. 4): the span is the
identity, and each piece of the basis's pairing graph is an irreducible
component, named by rank and determinant.  Any other reduced form is
searched once: the search's order is that of an exact integer key,
positive on the vectors it keeps, so the roots it finds are a positive
system; each goes to the simple-root scan as found, and the search stops
at the rank-th simple root (Humphreys, 1.3).  Simple roots are a basis
of roots too, so both paths type by pieces and determinants.  The index
of the root span is read off determinants alone (``span_index``): for n
simple roots with Cartan matrix C in a lattice with Gram matrix G,
index^2 = det C / |det G|.  The simple roots map back through V, and
their Hermite form is the root span.

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
import re
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
    cartan_gram,
    definite_sign,
    glue_overlattice,
    scaled_dual,
)

Vector = Tuple[int, ...]
Visit = Callable[[int, List[int]], object]  # (key, vector) -> stop the search?
# (reduced Gram matrix G' = V G V^T, transform V, lam, d): lam[k][j] (j < k)
# = B_jk and d the pivots of gram_elimination(G')
Reduction = Tuple[IntMatrix, IntMatrix, List[List[int]], List[int]]


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


def _lll(gram: IntMatrix) -> Reduction | None:
    """Integral LLL at delta = 3/4 of a Gram matrix (Lenstra--Lenstra--
    Lovasz, Math. Ann. 261 (1982); Cohen, GTM 138, Alg. 2.6.7): returns
    ``(G', V, lam, d)`` with ``G' = V G V^T`` reduced and V unimodular, or
    None when a leading minor ``d_k <= 0`` proves the form not positive
    definite (Sylvester).

    It keeps integers only: the leading minors ``d_k`` of the current
    basis and ``lam_kj = d_j mu_kj`` (j < k), so each Gram--Schmidt update
    is an exact division.  G' is size-reduced, ``2 |lam_kj| <= d_j``, and
    meets Lovasz's condition ``4 d_k d_(k-2) >= 3 d_(k-1)^2 - 4 lam_k(k-1)^2``
    (``d_(-1) = 1``); its ``lam`` and ``d`` are ``gram_elimination(G')``,
    ``lam_kj = B_jk`` with the same pivots, so no search eliminates again.
    """
    n = gram.rows
    g = [list(row) for row in gram.entries]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [[0] * k for k in range(n)]  # lam[k][j], j < k
    d = [1, g[0][0]] if n else [1]  # d[k + 1]: the leading minor of rows 0..k
    if d[-1] < 1:
        return None

    def reduce(k: int, l: int) -> None:
        # b_k -= q b_l for q the integer nearest lam_kl / d_l
        lk, dl = lam[k], d[l + 1]
        if 2 * abs(lk[l]) > dl:
            q = _round_div(lk[l], dl)
            g[k] = [a - q * b for a, b in zip(g[k], g[l])]
            for row in g:
                row[k] -= q * row[l]
            v[k] = [a - q * b for a, b in zip(v[k], v[l])]
            lk[l] -= q * dl
            for i, x in enumerate(lam[l][:l]):
                lk[i] -= q * x

    k = 1
    while k < n:
        if k == len(d) - 1:
            # the first visit of row k extends the Gram--Schmidt data
            gk, lk = g[k], lam[k]
            for j in range(k + 1):
                u, lj = gk[j], lam[j]
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
            if u < 1:
                return None
            d.append(u)
        reduce(k, k - 1)
        lm = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * lm * lm:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        # swap b_(k-1) and b_k, and update d_(k-1) and the lam of the rows seen
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        v[k - 1], v[k] = v[k], v[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        b = (d[k - 1] * d[k + 1] + lm * lm) // d[k]
        for li in lam[k + 1 : len(d) - 1]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lm * t) // d[k]
            li[k - 1] = (b * t + lm * li[k]) // d[k + 1]
        d[k] = b
        k = max(1, k - 1)
    return IntMatrix._of(tuple(map(tuple, g)), n), IntMatrix._of(tuple(map(tuple, v)), n), lam, d[1:]


def _definite_reduce(l: Lattice) -> Reduction:
    """``_lll`` of G or -G, the one with a positive diagonal, as a definite
    form has; on a diagonal of both signs, or when LLL meets a minor
    ``d_k <= 0``, ``definite_sign`` raises, naming why."""
    diag = [row[i] for i, row in enumerate(l.gram.entries)]
    sign = 1 if min(diag, default=1) > 0 else -1 if max(diag) < 0 else definite_sign(l)
    reduced = _lll(l.gram.scale(sign))
    if reduced is None:
        definite_sign(l)
    return reduced


def _reduced_search(reduced: Reduction, m: int, visit: Visit) -> None:
    """Search ``reduced = _definite_reduce(l)``: calls ``visit(key, x)``
    on each x of norm ``m`` with last nonzero coordinate positive (reduced
    coordinates), until it returns True.  The levels read the reduction's
    own ``lam`` and ``d``, the elimination of G'.  ``key x = sum_k x_k
    P_k``, ``P_0 = 1``, ``P_(k+1) = P_k (3 M_k + 1)`` for ``M_k`` the bound
    on ``|x_k|`` that the level-k intervals prove: the top nonzero digit
    outweighs the rest, so keys ascend and ``key u - key v = key w`` only
    when ``u - v = w``."""
    _, _, lam, d = reduced
    n = len(d)
    # scaling by L = lcm(d_k d_{k-1}) makes every level's weight an integer
    dd = [d[k] * (d[k - 1] if k else 1) for k in range(n)]
    scale = math.lcm(*dd)
    w = [scale // x for x in dd]
    tails = [[lam[j][k] for j in range(k + 1, n)] for k in range(n)]
    # level k bounds y = d_k x_k + c by |y| <= isqrt(scale m / w_k), and
    # |c| <= sum_j |lam_jk| M_j over the levels j above it
    bound = [0] * n
    for k in reversed(range(n)):
        c = sum(abs(ljk) * mj for ljk, mj in zip(tails[k], bound[k + 1 :]))
        bound[k] = (math.isqrt(scale * m // w[k]) + c) // d[k]
    place = list(accumulate([3 * mk + 1 for mk in bound[:-1]], mul, initial=1))
    x = [0] * n

    def descend(k: int, budget: int, top: bool, key: int) -> bool:
        # |y| <= s with y = d_k x_k + c bounds x_k to an integer interval;
        # while x_{k+1..n-1} are all zero (top), x_k >= 0 keeps one of +-x
        c = sum(map(mul, tails[k], x[k + 1 :]))
        s = math.isqrt(budget // w[k])
        dk, wk, pk = d[k], w[k], place[k]
        for t in range(0 if top else -((s + c) // dk), (s - c) // dk + 1):
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
        descend(n - 1, scale * m, True, 0)


def enumerate_norm(l: Lattice, m: int) -> List[Vector]:
    """All lattice vectors of norm exactly ``m`` (absolute value for
    negative definite input), closed under negation, in canonical order."""
    if m < 1:
        raise EnumerationError("norm bound must be a positive integer")
    half: List[Vector] = []
    reduced = _definite_reduce(l)
    _reduced_search(reduced, m, lambda key, x: half.append(tuple(x)))
    # a row x found in the reduced basis is x*V in the original coordinates
    v = reduced[1]
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
        """Parse strings like 'E8+E6', 'A2^6*', 'E6^2+A2^2*' or '0': a part
        that is no symbol with an index and an optional ``^m`` raises
        ``EnumerationError``, and one that ``cartan_gram`` rejects its
        ``LatticeError``."""
        text = text.strip()
        starred = text.endswith("*")
        if starred:
            text = text[:-1]
        comps: List[Tuple[str, int]] = []
        for part in text.split("+") if text not in ("", "0") else ():
            part = part.strip()
            if not (m := re.fullmatch(r"([A-Za-z])(\d+)(?:\^([1-9]\d*))?", part)):
                raise EnumerationError(f"{part!r} is not a root-system name")
            sym, n = m[1], int(m[2])
            cartan_gram(sym, n)
            comps += [(sym, n)] * int(m[3] or 1)
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


def layers(gram: Sequence[Sequence[int]], start: int) -> Dict[int, int]:
    """Distance from ``start`` of each node it reaches in the graph joining
    nodes i != j with ``gram[i][j] != 0``, breadth first: the keys come in
    the order of the walk, neighbours in index order."""
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
            pieces.append(list(layers(gram, i)))
    return pieces


def root_basis_type(rows: Sequence[Sequence[int]]) -> RootSystemType:
    """Type of the positive definite Gram matrix ``rows`` of a basis of
    roots, with no root enumerated.  The pieces of the pairing graph are
    the irreducible components; the last pivot of one elimination per
    piece is its determinant, which names its type with its rank:
    det A_n = n + 1, det D_n = 4 (n >= 4), and det E6, E7, E8 = 3, 2, 1."""
    comps: List[Tuple[str, int]] = []
    for piece in _pieces(rows):
        k = len(piece)
        det_piece = gram_elimination(IntMatrix._of(tuple(tuple(rows[a][b] for b in piece) for a in piece), k))[1][-1]
        comps.append(("A" if det_piece == k + 1 else "D" if det_piece == 4 else "E", k))
    return RootSystemType.of(comps)


@cache
def _root_analysis(gram: IntMatrix) -> Tuple[RootSystemType, IntMatrix]:
    """Root type and Hermite basis of the simple roots of the definite
    form ``gram``, once per Gram matrix, from one LLL reduction.  Content
    above 2 leaves no roots.  Else the reduction proves the form definite
    (or ``definite_sign`` raises), and a reduced form with every diagonal
    entry 2 is a basis of roots.  That proves the lattice even and equal
    to Q(R), R its norm-2 vectors, an ADE system (Humphreys, 2.9-2.10;
    Conway--Sloane, ch. 4): the span is the identity.  A root of an
    orthogonal sum of even definite lattices lies in one summand, so the
    pieces of the pairing graph are the irreducible components
    (``root_basis_type``).  Any other reduced form is searched once, on
    the elimination that LLL hands over: the search feeds its positive
    system to ``_simple_scan`` until the rank-th simple root, and only
    the simple roots go back through V."""
    n = gram.rows
    l = Lattice._of(gram)
    rows = gram.entries
    if math.gcd(*(row[i] for i, row in enumerate(rows)), *(2 * x for row in rows for x in row)) > 2:
        definite_sign(l)
        return EMPTY_TYPE, IntMatrix._of((), n)
    reduced = _definite_reduce(l)
    if all(row[k] == 2 for k, row in enumerate(reduced[0].entries)):
        return root_basis_type(reduced[0].entries), IntMatrix.identity(n)
    simple: List[Vector] = []
    _reduced_search(reduced, 2, _simple_scan(n, simple))
    gram_red, v = reduced[:2]
    s = IntMatrix._of(tuple(simple), n)
    return root_basis_type((s * gram_red * s.transpose()).entries), hermite_basis((s * v).entries, n)


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

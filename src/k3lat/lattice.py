"""Integral lattices with symmetric bilinear forms.

A lattice is a free Z-module of finite rank carrying an integer Gram
matrix; elements are row vectors and the form evaluates as
``x * G * y^T``.  The ADE Gram matrices are stored positive definite
(Cartan matrices in Bourbaki numbering); negative definite copies are
obtained by ``rescale(L, -1)`` when a lattice is used inside an
indefinite ambient.

Signatures are computed by fraction-free symmetric elimination
(Sylvester's law), never by floating point.  Discriminant groups come
from Smith normal forms of the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Sequence, Tuple

from .exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    det,
    echelon_pivots,
    hermite_basis,
    int_express,
    kernel_basis,
    rank,
    saturate,
    snf,
)


class LatticeError(ValueError):
    pass


class DegenerateFormError(LatticeError):
    def __init__(self, radical_rank: int):
        super().__init__(f"degenerate form with radical of rank {radical_rank}")
        self.radical_rank = radical_rank


class Lattice:
    """Free Z-module with an integer symmetric bilinear form."""

    __slots__ = ("gram", "label", "_det", "_sig")

    def __init__(self, gram: IntMatrix | Sequence[Sequence[int]], label: str | None = None):
        if not isinstance(gram, IntMatrix):
            gram = IntMatrix(gram, cols=len(gram) if gram else 0)
        if not gram.is_symmetric():
            raise LatticeError("gram matrix must be symmetric")
        self.gram = gram
        self.label = label
        self._det: int | None = None
        self._sig: Tuple[int, int, int] | None = None

    @property
    def rank(self) -> int:
        return self.gram.rows

    def det(self) -> int:
        if self._det is None:
            self._det = det(self.gram)
        return self._det

    @property
    def is_even(self) -> bool:
        return all(self.gram.entries[i][i] % 2 == 0 for i in range(self.rank))

    @property
    def is_unimodular(self) -> bool:
        return abs(self.det()) == 1

    @property
    def is_nondegenerate(self) -> bool:
        return self.det() != 0

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        g = self.gram.entries
        gy = [sum(g[i][j] * y[j] for j in range(self.rank)) for i in range(self.rank)]
        return sum(x[i] * gy[i] for i in range(self.rank))

    def norm(self, x: Sequence[int]) -> int:
        return self.pair(x, x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        name = self.label or f"rank-{self.rank} lattice"
        return f"Lattice({name})"


# -- constructors ------------------------------------------------------


def hyperbolic(n: int = 1, label: str | None = None) -> Lattice:
    """The hyperbolic plane U rescaled by ``n``: Gram [[0, n], [n, 0]]."""
    if n == 0:
        raise LatticeError("rescale by zero")
    return Lattice([[0, n], [n, 0]], label=label or ("U" if n == 1 else f"U({n})"))


_ADE_EDGES = {
    "E": {6: [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)],
          7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
          8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)]},
}


def cartan_gram(symbol: str, n: int) -> IntMatrix:
    """Positive definite Cartan matrix of an ADE root system (Bourbaki order)."""
    if symbol == "A":
        if n < 1:
            raise LatticeError(f"A{n} is not a root system")
        edges = [(i, i + 1) for i in range(1, n)]
    elif symbol == "D":
        if n < 4:
            raise LatticeError(f"D{n} is not in the D-series (need n >= 4)")
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    elif symbol == "E":
        if n not in (6, 7, 8):
            raise LatticeError(f"E{n} is not a root system")
        edges = _ADE_EDGES["E"][n]
    else:
        raise LatticeError(f"unknown root-system symbol {symbol!r}")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i - 1][j - 1] = -1
        g[j - 1][i - 1] = -1
    return IntMatrix(g)


def root_lattice(symbol: str, n: int) -> Lattice:
    return Lattice(cartan_gram(symbol, n), label=f"{symbol}{n}")


@cache
def scaled_dual(symbol: str, n: int) -> Tuple[IntMatrix, int]:
    """``(C, d)`` with ``d = det G`` and ``C = d * G^-1`` for the root
    lattice ``symbol n``: row i of ``C`` over ``d`` is the i-th dual basis
    vector, so row 0 generates the discriminant group Z/3 of A2 and E6."""
    g = root_lattice(symbol, n).gram
    d = det(g)
    return int_express(IntMatrix.identity(n).scale(d), g), d


def diag_lattice(entries: Sequence[int], label: str | None = None) -> Lattice:
    return Lattice(IntMatrix.diagonal(list(entries)), label=label)


def direct_sum(*lats: Lattice) -> Lattice:
    label = "+".join(l.label for l in lats) if all(l.label for l in lats) else None
    return Lattice(block_diagonal(*(l.gram for l in lats)), label=label)


def rescale(l: Lattice, n: int) -> Lattice:
    if n == 0:
        raise LatticeError("rescale by zero")
    if n == 1:
        return l
    label = f"{l.label}({n})" if l.label else None
    return Lattice(l.gram.scale(n), label=label)


def d4_z4_model() -> Tuple[Lattice, IntMatrix]:
    """D4 as the even-coordinate-sum sublattice of Z^4.

    Returns the lattice in its simple-root basis together with the basis
    rows expressed in standard Z^4 coordinates; the Gram matrix computed
    from the dot product is checked against the Cartan model, which is
    the verified isometry between the two descriptions.
    """
    basis = IntMatrix([
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
        [0, 0, 1, 1],
    ])
    gram = basis * basis.transpose()
    if gram != cartan_gram("D", 4):
        raise LatticeError("Z^4 model of D4 does not match the Cartan model")
    return Lattice(gram, label="D4"), basis


# -- signatures --------------------------------------------------------


def signature_with_radical(l: Lattice) -> Tuple[int, int, int]:
    """(positive, negative, radical) inertia by symmetric Bareiss elimination.

    Each step replaces the remaining block ``A`` by ``(d*A - a*a^T)/prev``
    for the pivot ``d`` and its column ``a``, an exact division; the
    rational diagonal entry of the step is ``d/prev``.
    """
    if l._sig is not None:
        return l._sig
    m = [list(row) for row in l.gram.entries]
    pos = neg = 0
    prev = 1
    alive = list(range(l.rank))
    while alive:
        piv = next((i for i in alive if m[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in alive for j in alive if i != j and m[i][j] != 0),
                None,
            )
            if pair is None:
                break  # what remains is the radical
            i, j = pair
            # push the off-diagonal entry onto the diagonal: x_i -> x_i + x_j
            for k in alive:
                m[i][k] += m[j][k]
            for k in alive:
                m[k][i] += m[k][j]
            piv = i
        d = m[piv][piv]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        alive.remove(piv)
        rp = m[piv]
        for i in alive:
            ri = m[i]
            f = ri[piv]
            for k in alive:
                ri[k] = (d * ri[k] - f * rp[k]) // prev
        prev = d
    l._sig = (pos, neg, len(alive))
    return l._sig


def signature(l: Lattice) -> Tuple[int, int]:
    pos, neg, rad = signature_with_radical(l)
    if rad:
        raise DegenerateFormError(rad)
    return pos, neg


def definite_sign(l: Lattice) -> int:
    """+1 for positive definite, -1 for negative definite; error otherwise."""
    if l.rank == 0:
        return 1
    p, q = signature(l)
    if q == 0:
        return 1
    if p == 0:
        return -1
    raise LatticeError(f"lattice is indefinite with signature ({p},{q})")


# -- discriminant data -------------------------------------------------


@dataclass(frozen=True)
class DiscGroup:
    elementary_divisors: Tuple[int, ...]
    a_p: Dict[int, int]

    @property
    def order(self) -> int:
        out = 1
        for d in self.elementary_divisors:
            out *= d
        return out

    def __str__(self) -> str:
        if not self.elementary_divisors:
            return "0"
        return "+".join(f"Z/{d}" for d in self.elementary_divisors)


def _prime_factors(n: int) -> List[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def disc_group(l: Lattice) -> DiscGroup:
    if not l.is_nondegenerate:
        raise DegenerateFormError(signature_with_radical(l)[2])
    divisors = tuple(d for d in snf(l.gram).d if d > 1)
    a_p: Dict[int, int] = {}
    for d in divisors:
        for p in _prime_factors(d):
            a_p[p] = a_p.get(p, 0) + 1
    return DiscGroup(divisors, a_p)


def is_p_elementary(l: Lattice, p: int) -> bool:
    return all(d == p for d in disc_group(l).elementary_divisors)


@dataclass(frozen=True)
class NikulinInvariants:
    t_plus: int
    t_minus: int
    a: int
    delta: int

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.t_plus, self.t_minus, self.a, self.delta)


def nikulin_2elem(l: Lattice) -> NikulinInvariants:
    """(t+, t-, a, delta) for an even 2-elementary lattice.

    delta = 0 exactly when the discriminant quadratic form x^2 mod 2Z
    takes integer values on all of A_L, which it suffices to test on the
    Smith-form generators (1/2) * (left-transform rows).
    """
    if not l.is_even:
        raise LatticeError("lattice is not even")
    t_plus, t_minus = signature(l)
    res = snf(l.gram)
    if any(d > 2 for d in res.d):
        raise LatticeError("lattice is not 2-elementary")
    gens = [res.left.entries[i] for i, d in enumerate(res.d) if d == 2]
    delta = int(any(l.norm(g) % 4 for g in gens))  # (g/2)^2 = norm(g)/4
    return NikulinInvariants(t_plus, t_minus, len(gens), delta)


def divisibility(l: Lattice, v: Sequence[int]) -> int:
    """gcd of the pairings of v against a basis: v . L = div(v) Z."""
    if all(x == 0 for x in v):
        raise LatticeError("divisibility of the zero vector")
    pairings = [l.pair(v, row) for row in IntMatrix.identity(l.rank).entries]
    return math.gcd(*pairings) if len(pairings) > 1 else abs(pairings[0])


# -- sublattices -------------------------------------------------------


class Sublattice:
    """A sublattice given by basis rows in ambient coordinates."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: Lattice, basis: IntMatrix | Sequence[Sequence[int]]):
        if not isinstance(basis, IntMatrix):
            basis = IntMatrix(basis, cols=ambient.rank)
        if basis.cols != ambient.rank:
            raise LatticeError("basis rows do not match ambient rank")
        # an echelon basis (every Hermite basis) is independent as it stands
        if echelon_pivots(basis) is None and rank(basis) != basis.rows:
            raise LatticeError("sublattice basis rows are dependent")
        self.ambient = ambient
        self.basis = basis

    @property
    def rank(self) -> int:
        return self.basis.rows

    def gram(self) -> IntMatrix:
        return self.basis * self.ambient.gram * self.basis.transpose()

    def lattice(self, label: str | None = None) -> Lattice:
        return Lattice(self.gram(), label=label)

    def saturation(self) -> "Sublattice":
        return Sublattice(self.ambient, saturate(self.basis))

    @property
    def is_primitive(self) -> bool:
        return saturate(self.basis) == hermite_basis(self.basis.entries, self.basis.cols)

    def orth_complement(self) -> "Sublattice":
        """Saturated orthogonal complement inside the ambient lattice."""
        pairing = self.ambient.gram * self.basis.transpose()
        return Sublattice(self.ambient, kernel_basis(pairing.transpose()))

    def is_isotropic(self) -> bool:
        return self.gram().is_zero()

    def __repr__(self) -> str:
        return f"Sublattice(rank {self.rank} of {self.ambient!r})"


@dataclass
class IsotropicQuotient:
    """J^perp/J with its induced form, the lifts of its basis, and the
    map ``coords`` from J^perp to its coordinates."""

    lattice: Lattice
    lift: IntMatrix  # quotient basis rows in ambient coordinates
    perp: IntMatrix  # Hermite basis of J^perp
    tail: IntMatrix  # columns rank(J): of the Smith transform ``right``

    def coords(self, rows: IntMatrix) -> IntMatrix:
        """Quotient coordinates of ambient rows lying in J^perp."""
        return int_express(rows, self.perp) * self.tail


def quotient_by_isotropic(j: Sublattice) -> IsotropicQuotient:
    """The lattice J^perp/J with its induced form, for isotropic saturated J.

    If ``left * C * right = [I | 0]`` is the Smith form of the coordinates
    of J in the Hermite basis of J^perp, the rows of ``right^-1`` (tracked
    by ``snf``) after the first rank(J), which span J, lift a basis of the
    quotient; its form does not depend on the lifts, as J is orthogonal
    to J^perp.  Coordinates ``y`` in J^perp map to ``y * right`` in the
    basis ``right^-1``, so the columns rank(J): of ``right`` give the
    quotient coordinates.
    """
    if not j.is_isotropic():
        raise LatticeError("sublattice is not isotropic")
    bperp = j.orth_complement().basis
    # J sits inside its own orthogonal complement
    res = snf(int_express(j.basis, bperp))
    # J^perp is saturated and contains J, so J is saturated in the ambient
    # lattice exactly when it is saturated in J^perp: all d equal to 1
    if any(d != 1 for d in res.d):
        raise LatticeError("sublattice is not saturated; saturate it first")
    k = bperp.rows
    lift = res.right_inv.submatrix(range(j.rank, k)) * bperp
    lat = Lattice(lift * j.ambient.gram * lift.transpose())
    return IsotropicQuotient(lat, lift, bperp, res.right.submatrix(range(k), range(j.rank, k)))


@dataclass
class Overlattice:
    lattice: Lattice
    scaled: IntMatrix  # d * (new basis in old coordinates), Hermite rows
    old_in_new: IntMatrix
    index: int


def glue_overlattice(l: Lattice, rows: Sequence[Sequence[int]], d: int) -> Overlattice:
    """Finite-index even overlattice generated by L and the dual glue
    vectors ``s/d``, given as integer rows ``s`` over any common ``d > 0``.

    Every glue vector must lie in the dual lattice, pair integrally with
    the other glue vectors, and have even integer norm; otherwise the
    resulting form would not be an even integral lattice and the glue is
    rejected: ``s/d`` is dual when ``G s = 0 mod d``, and pairings
    ``s.G.t`` are tested mod ``d^2``.  The new basis is ``H/d`` for the
    Hermite basis ``H`` (``scaled``) of ``d Z^n + span(rows)``.
    """
    n = l.rank
    g = l.gram.entries
    glue = IntMatrix(rows, cols=n).entries
    g_scaled = [[sum(a * b for a, b in zip(row, s)) for row in g] for s in glue]
    if any(x % d for gs in g_scaled for x in gs):
        raise LatticeError("glue vector is not in the dual lattice")
    dd = d * d
    for s, gs in zip(glue, g_scaled):
        for t in glue:
            val = sum(a * b for a, b in zip(gs, t))
            if val % dd:
                raise LatticeError("glue vectors do not pair integrally")
            if s == t and (val // dd) % 2 != 0:
                raise LatticeError("glue vector has odd norm; overlattice not even")
    hm = hermite_basis([*IntMatrix.identity(n).scale(d).entries, *glue], n)
    if hm.rows != n:
        raise LatticeError("glue vectors do not preserve the rank")
    entries = []
    for row in (hm * l.gram * hm.transpose()).entries:
        if any(x % dd for x in row):
            raise LatticeError("overlattice form is not integral: invalid glue")
        entries.append([x // dd for x in row])
    lat = Lattice(IntMatrix(entries, cols=n))
    if not lat.is_even:
        raise LatticeError("overlattice form is not even: invalid glue")
    # C * H = d * I, solved by substitution in the Hermite basis H
    try:
        old_in_new = int_express(IntMatrix.identity(n).scale(d), hm)
    except ExactLAError:
        raise LatticeError("original basis not contained in the overlattice") from None
    return Overlattice(lat, hm, old_in_new, abs(det(old_in_new)))

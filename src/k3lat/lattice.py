"""Integral lattices with symmetric bilinear forms.

A lattice is a free Z-module of finite rank carrying an integer Gram
matrix, and nothing else: no name, and equality compares Gram matrices.
Elements are row vectors and the form evaluates as ``x * G * y^T``.
The ADE Gram matrices are stored positive definite (Cartan matrices in
Bourbaki numbering); negative definite copies are obtained by
``rescale(L, -1)`` when a lattice is used inside an indefinite ambient.

Signature, radical and determinant are read from the pivots of one
cached fraction-free symmetric elimination of the Gram matrix
(``gram_elimination``; Sylvester's law), never by floating point.
Discriminant groups come from the Gram matrix's invariant factors,
found by one Smith elimination modulo each power of a coprime part of
the |det| that the cached elimination already holds, cached per Gram
matrix and checked against that determinant on each call.  The Gram matrix
``B * G * B^T`` of a sublattice is cached by the values (basis B,
ambient Gram G), never by object identity, so the same basis in a
rescaled ambient gets its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence, Tuple

from .exactla import (
    IntMatrix,
    block_diagonal,
    det,
    echelon_pivots,
    gram_elimination,
    hermite_basis,
    hnf,
    int_express,
    kernel_basis,
    rank,
    saturate,
    smith_divisors,
)


class LatticeError(ValueError):
    pass


class DegenerateFormError(LatticeError):
    def __init__(self, radical_rank: int):
        super().__init__(f"degenerate form with radical of rank {radical_rank}")
        self.radical_rank = radical_rank


class Lattice:
    """Free Z-module with an integer symmetric bilinear form."""

    __slots__ = ("gram",)

    def __init__(self, gram: IntMatrix | Sequence[Sequence[int]]):
        if not isinstance(gram, IntMatrix):
            gram = IntMatrix(gram, cols=len(gram) if gram else 0)
        if not gram.is_symmetric():
            raise LatticeError("gram matrix must be symmetric")
        self.gram = gram

    @classmethod
    def _of(cls, gram: IntMatrix) -> "Lattice":
        """Wrap a Gram matrix symmetric by an identity, without the check."""
        l = object.__new__(cls)
        l.gram = gram
        return l

    @property
    def rank(self) -> int:
        return self.gram.rows

    def det(self) -> int:
        return _inertia(self.gram)[3]

    @property
    def is_even(self) -> bool:
        return all(self.gram.entries[i][i] % 2 == 0 for i in range(self.rank))

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
        return f"Lattice(rank {self.rank})"


# -- constructors ------------------------------------------------------


def hyperbolic(n: int = 1) -> Lattice:
    """The hyperbolic plane U rescaled by ``n``: Gram [[0, n], [n, 0]]."""
    if n == 0:
        raise LatticeError("rescale by zero")
    return Lattice([[0, n], [n, 0]])


@cache
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
        edges = [(1, 3)] + [(i, i + 1) for i in range(3, n)] + [(2, 4)]
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
    return Lattice._of(cartan_gram(symbol, n))


@cache
def scaled_dual(symbol: str, n: int) -> Tuple[IntMatrix, int]:
    """``(C, d)`` with ``d = det G`` and ``C = d * G^-1`` for the root
    lattice ``symbol n``: row i of ``C`` over ``d`` is the i-th dual basis
    vector, so row 0 generates the discriminant group Z/3 of A2 and E6."""
    g = root_lattice(symbol, n).gram
    d = det(g)
    return int_express(IntMatrix.identity(n).scale(d), g), d


def diag_lattice(entries: Sequence[int]) -> Lattice:
    return Lattice._of(IntMatrix.diagonal(list(entries)))


def direct_sum(*lats: Lattice) -> Lattice:
    return Lattice._of(block_diagonal(*(l.gram for l in lats)))


def rescale(l: Lattice, n: int) -> Lattice:
    if n == 0:
        raise LatticeError("rescale by zero")
    if n == 1:
        return l
    return Lattice._of(l.gram.scale(n))


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
    return Lattice(gram), basis


# -- signatures --------------------------------------------------------


def signature_with_radical(l: Lattice) -> Tuple[int, int, int]:
    """(positive, negative, radical) inertia of ``l``."""
    return _inertia(l.gram)[:3]


@cache
def _inertia(gram: IntMatrix) -> Tuple[int, int, int, int]:
    """(positive, negative, radical, det) from the pivots of the symmetric
    elimination: the rational diagonal entry of step k is d_k/d_{k-1}."""
    pivots = gram_elimination(gram)[1]
    minors = [1] + pivots
    pos = sum((d > 0) == (prev > 0) for prev, d in zip(minors, pivots))
    rad = gram.rows - len(pivots)
    return pos, len(pivots) - pos, rad, 0 if rad else minors[-1]


@cache
def _invariant_factors(gram: IntMatrix) -> Tuple[int, ...]:
    """Invariant factors of a nondegenerate Gram matrix, by the Smith
    elimination modulo the |det| that its cached elimination holds."""
    return smith_divisors(gram, abs(_inertia(gram)[3]))


def signature(l: Lattice) -> Tuple[int, int]:
    pos, neg, rad = signature_with_radical(l)
    if rad:
        raise DegenerateFormError(rad)
    return pos, neg


def definite_sign(l: Lattice) -> int:
    """+1 for positive definite, -1 for negative definite; error otherwise."""
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

    def a(self, p: int) -> int:
        """The p-rank: how many invariant factors p divides."""
        return sum(d % p == 0 for d in self.elementary_divisors)

    def __str__(self) -> str:
        if not self.elementary_divisors:
            return "0"
        return "+".join(f"Z/{d}" for d in self.elementary_divisors)


def disc_group(l: Lattice) -> DiscGroup:
    """L^*/L, without generators: the Gram matrix's invariant factors.
    Their product must be the Bareiss |det|: the check proves the Smith
    kernel against the cached determinant, which has its own oracle tests."""
    if not l.is_nondegenerate:
        raise DegenerateFormError(signature_with_radical(l)[2])
    factors = _invariant_factors(l.gram)
    if math.prod(factors) != abs(l.det()):
        raise LatticeError("invariant factors disagree with the determinant")
    return DiscGroup(tuple(f for f in factors if f > 1))


def is_p_elementary(l: Lattice, p: int) -> bool:
    return all(d == p for d in disc_group(l).elementary_divisors)


def nikulin_2elem(l: Lattice) -> Tuple[int, int, int, int]:
    """(t+, t-, a, delta) for an even 2-elementary lattice.

    The dual basis, the rows of G^-1, generates A_L, and on a 2-elementary
    A_L the form x^2 mod Z is additive (2 x.y is an integer), so delta = 0,
    x^2 integral on all of A_L, exactly when every diagonal entry of G^-1
    is: when the integral 2 G^-1 has an even diagonal (Nikulin 1979, 1.3).
    """
    if not l.is_even:
        raise LatticeError("lattice is not even")
    t_plus, t_minus = signature(l)
    if not is_p_elementary(l, 2):
        raise LatticeError("lattice is not 2-elementary")
    twice_inv = int_express(IntMatrix.identity(l.rank).scale(2), l.gram).entries
    delta = int(any(row[i] % 2 for i, row in enumerate(twice_inv)))
    return t_plus, t_minus, len(disc_group(l).elementary_divisors), delta


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
        return _sublattice_gram(self.basis, self.ambient.gram)

    def lattice(self) -> Lattice:
        return Lattice._of(self.gram())

    @property
    def is_primitive(self) -> bool:
        return saturate(self.basis) == hermite_basis(self.basis.entries, self.basis.cols)

    def orth_complement(self) -> "Sublattice":
        """Saturated orthogonal complement inside the ambient lattice."""
        return Sublattice(self.ambient, kernel_basis(self.basis * self.ambient.gram))

    def is_isotropic(self) -> bool:
        return self.gram().is_zero()

    def __repr__(self) -> str:
        return f"Sublattice(rank {self.rank} of {self.ambient!r})"


@cache
def _sublattice_gram(basis: IntMatrix, gram: IntMatrix) -> IntMatrix:
    return basis * gram * basis.transpose()


@dataclass(frozen=True)
class IsotropicQuotient:
    """J^perp/J with its induced form, the lifts of its basis, and the
    integral projection ``proj`` onto its coordinates, with ``lift * proj
    = I`` and ``J * proj = 0``."""

    lattice: Lattice
    lift: IntMatrix  # quotient basis rows in ambient coordinates
    proj: IntMatrix  # ambient rows in J^perp -> quotient coordinates

    def coords(self, rows: IntMatrix) -> IntMatrix:
        """Quotient coordinates of ambient rows, which must lie in J^perp:
        ``rows * proj`` is a linear map of all of Z^n and is not checked."""
        return rows * self.proj


def _right_inverse(b: IntMatrix) -> IntMatrix:
    """X with ``b * X = I`` for rows ``b`` spanning a saturated lattice:
    the Hermite form of b^T is then [I; 0], and the first rows of its
    transform, transposed, are X."""
    return hnf(b.transpose())[1].submatrix(range(b.rows)).transpose()


def quotient_by_isotropic(j: Sublattice) -> IsotropicQuotient:
    """The lattice J^perp/J with its induced form, for isotropic saturated J.

    With a right inverse X of the Hermite basis B of J^perp, a row y * B
    of J^perp has coordinates y = (y * B) * X, and J has C = ``j.basis *
    X``.  J^perp is saturated and contains J, so J is saturated exactly
    when C is: when the Hermite basis of C^T is the identity.  Then the
    kernel K of C (``y * C^T = 0``) has J^perp/J = Z^k/span(C) -> Z^(k-r),
    y -> y * K^T, an isomorphism, so ``proj = X * K^T``; the rows of R^T
    times B, for a right inverse R of K, lift its basis.  The form does not
    depend on the lifts, as J is orthogonal to J^perp.
    """
    if not j.is_isotropic():
        raise LatticeError("sublattice is not isotropic")
    bperp = j.orth_complement().basis
    x = _right_inverse(bperp)
    # J sits inside its own orthogonal complement
    c = j.basis * x
    if hermite_basis(c.transpose().entries, c.rows) != IntMatrix.identity(c.rows):
        raise LatticeError("sublattice is not saturated; saturate it first")
    k = kernel_basis(c)
    lift = _right_inverse(k).transpose() * bperp
    proj = x * k.transpose()
    if lift * proj != IntMatrix.identity(k.rows):
        raise LatticeError("quotient lifts and projection do not invert")
    lat = Lattice._of(lift * j.ambient.gram * lift.transpose())
    return IsotropicQuotient(lat, lift, proj)


@dataclass(frozen=True)
class Overlattice:
    lattice: Lattice
    scaled: IntMatrix  # d * (new basis in old coordinates), Hermite rows
    old_in_new: IntMatrix


def glue_overlattice(l: Lattice, rows: Sequence[Sequence[int]], d: int) -> Overlattice:
    """Finite-index even overlattice generated by L and the dual glue
    vectors ``s/d``, given as integer rows ``s`` over any common ``d > 0``.

    Every glue vector must lie in the dual lattice, pair integrally with
    the other glue vectors, and have even integer norm; otherwise the
    resulting form would not be an even integral lattice and the glue is
    rejected: ``s/d`` is dual when ``G s = 0 mod d``, and pairings
    ``s.G.t`` are tested mod ``d^2``.  The new basis is ``H/d`` for the
    Hermite basis ``H`` (``scaled``) of ``d Z^n + span(rows)``, of rank n
    and holding each ``d e_i``; its form is integral by the checks above.
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
    entries = [[x // dd for x in row] for row in (hm * l.gram * hm.transpose()).entries]
    lat = Lattice._of(IntMatrix(entries, cols=n))
    if not lat.is_even:
        raise LatticeError("overlattice form is not even: invalid glue")
    # C * H = d * I, solved by substitution in the Hermite basis H
    old_in_new = int_express(IntMatrix.identity(n).scale(d), hm)
    return Overlattice(lat, hm, old_in_new)

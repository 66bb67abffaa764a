"""Finite-order isometries and order-3 (Eisenstein) / order-4 structure.

An order-3 isometry without nonzero fixed vectors turns a Z-lattice
into a module over Z[w], w^2 + w + 1 = 0, carrying the rescaled
Hermitian form

    h(x, y) = (3<x, y> + theta <x, ry - r^2 y>) / 2,   theta = w - w^2,

whose values lie in theta * Z[w].  The isometry acts trivially on the
discriminant group exactly when (r - 1) maps the dual lattice into the
lattice.

A lattice with an isometry is one verified value, ``RhoLattice(lattice,
matrix)``: construction checks that the matrix preserves the form and
computes its order, which may not exceed ``ORDER_BOUND``, from two
products, ``M [G | M] = [MG | M^2]`` and ``M [(MG)^T | M^2] = [M G M^T |
M^3]``; it keeps the square, which the order check reads anyway.

Order-3 fixed-point-free isometries of A2, E6, E8 are produced as
powers of a Coxeter element (product of the simple reflections in
Bourbaki order, raised to one third of the Coxeter number) and verified
once per process when first built (``functools.cache``): form
preservation, multiplicative order, absence of fixed vectors, and
trivial discriminant action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product
from operator import add
from typing import List, Sequence, Tuple

from .exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    hermite_basis,
    int_express,
    kernel_basis,
)
from .lattice import (
    Lattice,
    LatticeError,
    Sublattice,
    cartan_gram,
    d4_z4_model,
    diag_lattice,
    direct_sum,
    hyperbolic,
    rescale,
    root_lattice,
)


class IsometryError(LatticeError):
    pass


ORDER_BOUND = 24


def _side_by_side(m: IntMatrix, a: IntMatrix, b: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """``(m * a, m * b)`` from the one product ``m * [a | b]``."""
    rows, k = (m * IntMatrix._of(tuple(map(add, a.entries, b.entries)), a.cols + b.cols)).entries, a.cols
    return IntMatrix._of(tuple(r[:k] for r in rows), k), IntMatrix._of(tuple(r[k:] for r in rows), b.cols)


@dataclass(frozen=True)
class RhoLattice:
    """A lattice with an isometry, an integer matrix acting on row vectors.

    Construction verifies that the matrix preserves the form; ``order`` is
    computed from the matrix (``IsometryError`` above ``ORDER_BOUND``),
    never stated; a finite order proves the matrix unimodular: M^k = I
    gives M^-1 = M^(k-1)."""

    lattice: Lattice
    matrix: IntMatrix
    order: int = field(init=False)
    square: IntMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m, g = self.matrix, self.lattice.gram
        if m.rows != m.cols or m.rows != g.rows:
            raise IsometryError("matrix shape does not match the lattice rank")
        mg, square = _side_by_side(m, g, m)
        mgm, cube = _side_by_side(m, mg.transpose(), square)
        if mgm != g:
            a, b = mgm.entries, g.entries
            i, j = next((i, j) for i, j in product(range(g.rows), repeat=2) if a[i][j] != b[i][j])
            raise IsometryError(f"pairing violated at basis pair ({i},{j}): {a[i][j]} != {b[i][j]}")
        object.__setattr__(self, "square", square)
        p, k, ident = m, 1, IntMatrix.identity(m.rows)
        while p != ident:
            if k == ORDER_BOUND:
                raise IsometryError(f"order exceeds bound {ORDER_BOUND}")
            p, k = (m, square, cube)[k] if k < 3 else p * m, k + 1
        object.__setattr__(self, "order", k)

    def apply(self, v: Sequence[int]) -> Tuple[int, ...]:
        return (IntMatrix([v]) * self.matrix).entries[0]


def is_invariant(rows: IntMatrix, m: IntMatrix) -> bool:
    """Whether the span of ``rows`` is preserved by the action ``m`` on
    row vectors.  Only ``ExactLAError`` reads as "not invariant"."""
    try:
        int_express(rows * m, rows)
    except ExactLAError:
        return False
    return True


def fixed_sublattice(r: RhoLattice) -> Sublattice:
    m = r.matrix
    delta = m - IntMatrix.identity(m.rows)
    return Sublattice(r.lattice, kernel_basis(delta.transpose()))


def primitive_part(r: RhoLattice) -> Sublattice:
    """Saturated kernel of rho^2 + rho + 1 for an order-3 action."""
    if r.order != 3:
        raise IsometryError(f"primitive part needs an order-3 action, not order {r.order}")
    m = r.matrix
    phi = r.square + m + IntMatrix.identity(m.rows)
    return Sublattice(r.lattice, kernel_basis(phi.transpose()))


# -- Eisenstein coefficients ------------------------------------------


@dataclass(frozen=True)
class Eis:
    """a + b*w with w^2 + w + 1 = 0; theta = w - w^2 = 1 + 2w."""

    a: int
    b: int = 0

    def __mul__(self, o: "Eis") -> "Eis":
        # (a + bw)(c + dw) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, o.a, o.b
        return Eis(a * c - b * d, a * d + b * c - b * d)

    def conj(self) -> "Eis":
        # conjugate of w is w^2 = -1 - w
        return Eis(self.a - self.b, -self.b)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        bw = "w" if self.b == 1 else ("-w" if self.b == -1 else f"{self.b}w")
        if self.a == 0:
            return bw
        sign = "+" if self.b > 0 else "-"
        mag = abs(self.b)
        term = "w" if mag == 1 else f"{mag}w"
        return f"{self.a}{sign}{term}"


THETA = Eis(1, 2)
UNITS = [Eis(1), Eis(0, 1), Eis(-1, -1), Eis(-1), Eis(0, -1), Eis(1, 1)]  # powers of -w


def eisenstein_gram(r: RhoLattice) -> Tuple[IntMatrix, Tuple[Tuple[Eis, ...], ...]]:
    """Hermitian Gram matrix over Z[w] of a fixed-point-free order-3 pair.

    Returns the chosen module basis (rows of the underlying lattice) and
    the Hermitian matrix.  The basis is greedy: standard basis vectors
    are taken whenever they leave the span of the previously chosen
    vectors and their rho-images: when adding one to the Hermite basis
    of that span raises its Hermite rank; ``IsometryError`` if the final
    span is a proper sublattice, as then they are no module basis.  The
    matrix is conjugate-symmetric, as <y, rx - r^2 x> = -<x, ry - r^2 y>
    for an isometry r of order 3.
    """
    if r.order != 3:
        raise IsometryError("Hermitian structure needs an order-3 action")
    if fixed_sublattice(r).rank != 0:
        raise IsometryError("action has a nonzero fixed vector")
    n = r.lattice.rank
    chosen: List[Tuple[int, ...]] = []
    spanned = IntMatrix([], cols=n)
    for v in IntMatrix.identity(n).entries:
        if hermite_basis([*spanned.entries, v], n).rows > spanned.rows:
            chosen.append(v)
            spanned = hermite_basis(chosen + [r.apply(c) for c in chosen], n)
    if spanned != IntMatrix.identity(n):
        raise IsometryError("the greedy vectors and their images span a proper sublattice")
    gram = tuple(tuple(_hermitian_value(r, x, y) for y in chosen) for x in chosen)
    basis = IntMatrix([list(c) for c in chosen], cols=n)
    return basis, gram


def _hermitian_value(r: RhoLattice, x, y) -> Eis:
    ry = r.apply(y)
    r2y = r.apply(ry)
    dy = tuple(a - b for a, b in zip(ry, r2y))
    b_plain = r.lattice.pair(x, y)
    b_theta = r.lattice.pair(x, dy)
    # (3*b_plain + theta*b_theta) / 2 = (3*b_plain + b_theta)/2 + b_theta*w
    a_twice = 3 * b_plain + b_theta
    if a_twice % 2:
        raise IsometryError("Hermitian value is not an Eisenstein integer")
    return Eis(a_twice // 2, b_theta)


def hermitian_normal_2x2(gram: Tuple[Tuple[Eis, ...], ...]) -> Tuple[Tuple[Eis, ...], ...]:
    """Canonical unit scaling for rank-2 Hermitian matrices with zero diagonal.

    Rescaling the second basis vector by a unit u multiplies the (1,2)
    entry by u; pick the unit making it the positive real square root of
    its norm if possible, otherwise theta.
    """
    if len(gram) != 2 or gram[0][0] != Eis(0) or gram[1][1] != Eis(0):
        return gram
    h12 = gram[0][1]
    for u in UNITS:
        scaled = h12 * u
        if scaled == THETA or (scaled.b == 0 and scaled.a > 0):
            return (
                (gram[0][0], scaled),
                (scaled.conj(), gram[1][1]),
            )
    return gram


# -- discriminant action ----------------------------------------------


def is_estar(r: RhoLattice) -> bool:
    """True when rho acts trivially on the discriminant group.

    That is, (rho - 1) maps the dual lattice into the lattice: ``G^-1 (M -
    I)`` is integral, and as ``G`` is symmetric this holds exactly when the
    rows of ``(M - I)^T`` have integral coordinates in the rows of ``G``.
    """
    if not r.lattice.is_nondegenerate:
        raise LatticeError("discriminant action needs a nondegenerate lattice")
    m = r.matrix
    try:
        int_express((m - IntMatrix.identity(m.rows)).transpose(), r.lattice.gram)
    except ExactLAError:
        return False
    return True


# -- standard constructions -------------------------------------------

COXETER_NUMBER = {("A", 2): 3, ("E", 6): 12, ("E", 8): 30}


def _coxeter_element(sym: str, n: int) -> IntMatrix:
    g = cartan_gram(sym, n)
    out = IntMatrix.identity(n)
    for i in range(n):
        refl = [
            [
                (1 if k == l else 0) - (g.entries[k][i] if l == i else 0)
                for l in range(n)
            ]
            for k in range(n)
        ]
        out = out * IntMatrix(refl, cols=n)
    return out


@cache
def fpf_order3(sym: str, n: int) -> RhoLattice:
    """Order-3 fixed-point-free isometry acting trivially on the discriminant.

    Built as the Coxeter element raised to h/3, and verified before
    returning.  Aut(Z/3) = {+-1} has no element of order 3, so any order-3
    isometry of A2 or E6 is trivial on the discriminant (E8 has none).
    """
    key = (sym, n)
    if key not in COXETER_NUMBER:
        raise IsometryError(f"{sym}{n} has no wired order-3 fixed-point-free action")
    cox = _coxeter_element(sym, n)
    power = IntMatrix.identity(n)
    for _ in range(COXETER_NUMBER[key] // 3):
        power = power * cox
    r = RhoLattice(root_lattice(sym, n), power)
    if r.order != 3 or fixed_sublattice(r).rank != 0 or not is_estar(r):
        raise IsometryError(f"verified construction failed for {sym}{n}")
    return r


@cache
def negative_fpf_order3(sym: str, n: int) -> RhoLattice:
    """The action of ``fpf_order3(sym, n)`` on the negative definite copy
    of the root lattice, the summand of the period and quotient lattices."""
    fpf = fpf_order3(sym, n)
    return RhoLattice(rescale(fpf.lattice, -1), fpf.matrix)


def assemble(blocks: Sequence[RhoLattice]) -> RhoLattice:
    """Block-diagonal action on the direct sum of the given pairs; its
    order is the lcm of the block orders, as M^k = I blockwise."""
    total = direct_sum(*(b.lattice for b in blocks))
    return RhoLattice(total, block_diagonal(*(b.matrix for b in blocks)))


def rho3_u_u() -> RhoLattice:
    """Order-3 action on U + U.

    Basis (e1, f1, e2, f2) with e_i f_i = 1.  The action rotates the
    isotropic e-plane and acts on the f-plane by the inverse transpose,
    which is forced by the pairing; it has no nonzero fixed vectors and
    is trivial on the (trivial) discriminant group.
    """
    l = direct_sum(hyperbolic(), hyperbolic())
    # order (e1, f1, e2, f2)
    m = [
        [0, 0, 1, 0],  # e1 -> e2
        [0, -1, 0, 1],  # f1 -> -f1 + f2
        [-1, 0, -1, 0],  # e2 -> -e1 - e2
        [0, -1, 0, 0],  # f2 -> -f1
    ]
    return RhoLattice(l, IntMatrix(m))


def rho3_u_u3() -> RhoLattice:
    """Order-3 action on U + U(3), basis (e1, f1, e2', f2')."""
    l = direct_sum(hyperbolic(), hyperbolic(3))
    m = [
        [1, 0, -1, 0],  # e1 -> e1 - e2'
        [0, -2, 0, -1],  # f1 -> -2 f1 - f2'
        [3, 0, -2, 0],  # e2' -> 3 e1 - 2 e2'
        [0, 3, 0, 1],  # f2' -> 3 f1 + f2'
    ]
    return RhoLattice(l, IntMatrix(m))


def rho4_u_u2() -> RhoLattice:
    """Order-4 action on U + U(2), basis (e, f, e', f')."""
    l = direct_sum(hyperbolic(), hyperbolic(2))
    m = [
        [-1, 0, 1, 0],  # e -> -e + e'
        [0, 1, 0, 1],  # f -> f + f'
        [-2, 0, 1, 0],  # e' -> -2e + e'
        [0, -2, 0, -1],  # f' -> -2f - f'
    ]
    return RhoLattice(l, IntMatrix(m))


def rho4_d4() -> RhoLattice:
    """Order-4 action on D4 written in the simple-root basis.

    On the index-2 sublattice of Z^4 the action is the double rotation
    e1 -> e2 -> -e1, e3 -> e4 -> -e3; conjugating by the basis of the
    even-coordinate-sum model gives an integral matrix on the Cartan
    basis squaring to -1.
    """
    lat, basis = d4_z4_model()
    z4 = IntMatrix(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ]
    )
    try:
        conj = int_express(basis * z4, basis)  # B * Z4 * B^-1
    except ExactLAError:
        raise IsometryError("double rotation does not preserve the D4 sublattice") from None
    neg = rescale(lat, -1)
    return RhoLattice(neg, conj)


def rho4_a1a1() -> RhoLattice:
    """Order-4 action h1 -> h2 -> -h1 on two orthogonal norm -2 classes."""
    return RhoLattice(diag_lattice([-2, -2]), IntMatrix([[0, 1], [-1, 0]]))

"""Finite-order isometries and order-3 (Eisenstein) / order-4 structure.

An order-3 isometry without nonzero fixed vectors turns a Z-lattice
into a module over Z[w], w^2 + w + 1 = 0, carrying the rescaled
Hermitian form

    h(x, y) = (3<x, y> + theta <x, ry - r^2 y>) / 2,   theta = w - w^2,

whose values lie in theta * Z[w].  The isometry acts trivially on the
discriminant group exactly when (r - 1) maps the dual lattice into the
lattice; both formulations are computed and must agree.

Order-3 fixed-point-free isometries of A2, E6, E8 are produced as
powers of a Coxeter element (product of the simple reflections in
Bourbaki order, raised to one third of the Coxeter number) and verified
on the spot: form preservation, multiplicative order, absence of fixed
vectors, and trivial discriminant action, squaring the candidate once
if the discriminant action comes out nontrivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import List, Sequence, Tuple

from .exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    det,
    hermite_basis,
    in_rational_span,
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


@dataclass(frozen=True)
class Isometry:
    """An integer matrix acting on row vectors and preserving the form."""

    matrix: IntMatrix
    lattice: Lattice

    def __post_init__(self):
        verify_isometry(self.lattice, self.matrix)

    def apply(self, v: Sequence[int]) -> Tuple[int, ...]:
        m = self.matrix.entries
        n = self.matrix.rows
        return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))


def verify_isometry(lattice: Lattice, m: IntMatrix) -> None:
    """Raise with the violated pairing if ``m`` does not preserve the form."""
    if m.rows != m.cols or m.rows != lattice.rank:
        raise IsometryError("matrix shape does not match the lattice rank")
    g = lattice.gram
    prod = m * g * m.transpose()
    if prod != g:
        for i in range(g.rows):
            for j in range(g.cols):
                if prod.entries[i][j] != g.entries[i][j]:
                    raise IsometryError(
                        f"pairing violated at basis pair ({i},{j}): "
                        f"{prod.entries[i][j]} != {g.entries[i][j]}"
                    )
    if abs(det(m)) != 1:
        raise IsometryError("matrix is not unimodular")


def isometry_order(m: IntMatrix, bound: int = ORDER_BOUND) -> int:
    ident = IntMatrix.identity(m.rows)
    p = m
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = p * m
    raise IsometryError(f"order exceeds bound {bound}")


def check(iso: Isometry) -> int:
    """Verify form preservation (done at construction) and return the order."""
    return isometry_order(iso.matrix)


@dataclass(frozen=True)
class RhoLattice:
    """A lattice with an isometry ``rho``; ``order`` is computed from the
    matrix (``IsometryError`` above ``ORDER_BOUND``), never stated."""

    lattice: Lattice
    rho: Isometry
    order: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "order", isometry_order(self.rho.matrix))


def rho_lattice(lattice: Lattice, matrix: IntMatrix | Sequence[Sequence[int]]) -> RhoLattice:
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix, cols=lattice.rank)
    return RhoLattice(lattice, Isometry(matrix, lattice))


def fixed_sublattice(r: RhoLattice) -> Sublattice:
    m = r.rho.matrix
    delta = m - IntMatrix.identity(m.rows)
    return Sublattice(r.lattice, kernel_basis(delta.transpose()))


def _cyclotomic_at(m: IntMatrix, order: int) -> IntMatrix:
    ident = IntMatrix.identity(m.rows)
    if order == 3:
        return m * m + m + ident
    if order == 4:
        return m * m + ident
    raise IsometryError(f"no cyclotomic evaluation wired for order {order}")


def primitive_part(r: RhoLattice) -> Sublattice:
    """Saturated kernel of the order-N cyclotomic polynomial at rho."""
    phi = _cyclotomic_at(r.rho.matrix, r.order)
    return Sublattice(r.lattice, kernel_basis(phi.transpose()))


# -- Eisenstein coefficients ------------------------------------------


@dataclass(frozen=True)
class Eis:
    """a + b*w with w^2 + w + 1 = 0; theta = w - w^2 = 1 + 2w."""

    a: int
    b: int

    def __add__(self, o: "Eis") -> "Eis":
        return Eis(self.a + o.a, self.b + o.b)

    def __sub__(self, o: "Eis") -> "Eis":
        return Eis(self.a - o.a, self.b - o.b)

    def __mul__(self, o: "Eis") -> "Eis":
        # (a + bw)(c + dw) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, o.a, o.b
        return Eis(a * c - b * d, a * d + b * c - b * d)

    def conj(self) -> "Eis":
        # conjugate of w is w^2 = -1 - w
        return Eis(self.a - self.b, -self.b)

    def norm(self) -> int:
        return (self * self.conj()).a

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


def eis(a: int, b: int = 0) -> Eis:
    return Eis(a, b)


THETA = eis(1, 2)
UNITS = [eis(1), eis(0, 1), eis(-1, -1), eis(-1), eis(0, -1), eis(1, 1)]  # powers of -w


def eisenstein_gram(r: RhoLattice) -> Tuple[IntMatrix, Tuple[Tuple[Eis, ...], ...]]:
    """Hermitian Gram matrix over Z[w] of a fixed-point-free order-3 pair.

    Returns the chosen module basis (rows of the underlying lattice) and
    the Hermitian matrix.  The basis is greedy: standard basis vectors
    are taken whenever they leave the span of the previously chosen
    vectors and their rho-images.
    """
    if r.order != 3:
        raise IsometryError("Hermitian structure needs an order-3 action")
    if fixed_sublattice(r).rank != 0:
        raise IsometryError("action has a nonzero fixed vector")
    n = r.lattice.rank
    iso = r.rho
    chosen: List[Tuple[int, ...]] = []
    spanned = IntMatrix([], cols=n)
    for i in range(n):
        v = tuple(1 if j == i else 0 for j in range(n))
        if not in_rational_span(v, spanned):
            chosen.append(v)
            spanned = hermite_basis(chosen + [iso.apply(c) for c in chosen], n)
    if 2 * len(chosen) != n:
        raise IsometryError("failed to extract a module basis")
    gram = []
    for x in chosen:
        row = []
        for y in chosen:
            row.append(_hermitian_value(r.lattice, iso, x, y))
        gram.append(tuple(row))
    for i in range(len(chosen)):
        for j in range(len(chosen)):
            if gram[i][j] != gram[j][i].conj():
                raise IsometryError("Hermitian matrix is not conjugate-symmetric")
    basis = IntMatrix([list(c) for c in chosen], cols=n)
    return basis, tuple(gram)


def _hermitian_value(lattice: Lattice, iso: Isometry, x, y) -> Eis:
    ry = iso.apply(y)
    r2y = iso.apply(ry)
    dy = tuple(a - b for a, b in zip(ry, r2y))
    b_plain = lattice.pair(x, y)
    b_theta = lattice.pair(x, dy)
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
    if len(gram) != 2 or gram[0][0] != eis(0) or gram[1][1] != eis(0):
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


def _dual_shift_integral(r: RhoLattice, operator: IntMatrix) -> bool:
    """True when ``operator`` maps the dual lattice into the lattice.

    That is, ``G^-1 M`` is integral; as ``G`` is symmetric, this holds
    exactly when the rows of ``M^T`` have integral coordinates in the
    rows of ``G``.
    """
    try:
        int_express(operator.transpose(), r.lattice.gram)
    except ExactLAError:
        if r.lattice.is_nondegenerate:
            return False
        raise
    return True


def is_estar(r: RhoLattice) -> bool:
    """True when rho acts trivially on the discriminant group."""
    if not r.lattice.is_nondegenerate:
        raise LatticeError("discriminant action needs a nondegenerate lattice")
    m = r.rho.matrix
    triv = _dual_shift_integral(r, m - IntMatrix.identity(m.rows))
    theta_elem = is_theta_elementary(r)
    if triv != theta_elem:
        raise IsometryError("discriminant-action and theta-elementarity tests disagree")
    return triv


def is_theta_elementary(r: RhoLattice) -> bool:
    """True when (rho - rho^2) maps the dual lattice into the lattice."""
    m = r.rho.matrix
    return _dual_shift_integral(r, m - m * m)


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


def fpf_order3(sym: str, n: int) -> RhoLattice:
    """Order-3 fixed-point-free isometry acting trivially on the discriminant.

    Built as the Coxeter element raised to h/3; if the discriminant
    action of the candidate is nontrivial its square is used instead.
    Every required property is verified before returning.
    """
    key = (sym, n)
    if key not in COXETER_NUMBER:
        raise IsometryError(f"{sym}{n} has no wired order-3 fixed-point-free action")
    h = COXETER_NUMBER[key]
    lattice = root_lattice(sym, n)
    cox = _coxeter_element(sym, n)
    power = IntMatrix.identity(n)
    for _ in range(h // 3):
        power = power * cox
    for candidate in (power, power * power):
        r = rho_lattice(lattice, candidate)
        if r.order != 3:
            continue
        if fixed_sublattice(r).rank != 0:
            continue
        if is_estar(r):
            return r
    raise IsometryError(f"verified construction failed for {sym}{n}")


def negative_fpf_order3(sym: str, n: int) -> RhoLattice:
    """The action of ``fpf_order3(sym, n)`` on the negative definite copy
    of the root lattice, the summand of the period and quotient lattices."""
    fpf = fpf_order3(sym, n)
    return rho_lattice(rescale(fpf.lattice, -1), fpf.rho.matrix)


def assemble(blocks: Sequence[RhoLattice]) -> RhoLattice:
    """Block-diagonal action on the direct sum of the given pairs."""
    total = direct_sum(*(b.lattice for b in blocks))
    out = rho_lattice(total, block_diagonal(*(b.rho.matrix for b in blocks)))
    expected = lcm(*[b.order for b in blocks]) if blocks else 1
    if out.order != expected:
        raise IsometryError("assembled order differs from the lcm of the blocks")
    return out


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
    return rho_lattice(l, m)


def rho3_u_u3() -> RhoLattice:
    """Order-3 action on U + U(3), basis (e1, f1, e2', f2')."""
    l = direct_sum(hyperbolic(), hyperbolic(3))
    m = [
        [1, 0, -1, 0],  # e1 -> e1 - e2'
        [0, -2, 0, -1],  # f1 -> -2 f1 - f2'
        [3, 0, -2, 0],  # e2' -> 3 e1 - 2 e2'
        [0, 3, 0, 1],  # f2' -> 3 f1 + f2'
    ]
    return rho_lattice(l, m)


def rho4_u_u2() -> RhoLattice:
    """Order-4 action on U + U(2), basis (e, f, e', f')."""
    l = direct_sum(hyperbolic(), hyperbolic(2))
    m = [
        [-1, 0, 1, 0],  # e -> -e + e'
        [0, 1, 0, 1],  # f -> f + f'
        [-2, 0, 1, 0],  # e' -> -2e + e'
        [0, -2, 0, -1],  # f' -> -2f - f'
    ]
    return rho_lattice(l, m)


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
    return rho_lattice(neg, conj)


def rho4_a1a1() -> RhoLattice:
    """Order-4 action h1 -> h2 -> -h1 on two orthogonal norm -2 classes."""
    l = diag_lattice([-2, -2], label="A1+A1")
    return rho_lattice(l, [[0, 1], [-1, 0]])

"""Picard-lattice calculus for two-component degenerate surfaces.

Each component is modeled purely lattice-theoretically: a rank-10
hyperbolic unimodular Picard lattice I(1,9) with an order-3 isometry, a
distinguished isotropic anticanonical class D fixed by the action, and
the bookkeeping of which exceptional classes form 3-cycles.  Components
are built bottom-up from a terminal model (the plane, or a degree-1 or
degree-3 del Pezzo with the order-3 action extended from its
anticanonical-orthogonal root lattice) by appending orbits of
exceptional classes:

* a 3-cycle of exceptional classes contributes an A2 to the primitive
  part (spanned by differences of the cycled classes);
* a fixed exceptional class contributes nothing to the primitive part.

Gluing two components along D produces the rank-18 even unimodular
lattice of numerically Cartier divisor classes: pairs agreeing in
degree on the double curve, modulo the radical spanned by (D, -D).
That quotient depends only on the two component Picard lattices and
classes D, so it is built once per such pair and shared by the gluings.
Its primitive part reproduces the quotient lattice of a boundary
component, and the semifan attached to each quotient is the saturation
of the span of the A2 factors coming from the cycled classes; a starred
quotient model is glued by the all-ones word (``roots.glue_root_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Optional, Sequence, Tuple

from .exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    index_in,
    int_express,
    saturate,
)
from .lattice import (
    IsotropicQuotient,
    Lattice,
    LatticeError,
    Overlattice,
    Sublattice,
    cartan_gram,
    diag_lattice,
    direct_sum,
    disc_group,
    hyperbolic,
    nikulin_2elem,
    quotient_by_isotropic,
    rescale,
    root_lattice,
)
from .roots import RootSystemType, glue_root_sum, root_system, square_index
from .eisenstein import (
    RhoLattice,
    assemble,
    fpf_order3,
    is_invariant,
    negative_fpf_order3,
    primitive_part,
    rho4_a1a1,
    rho4_d4,
    rho4_u_u2,
)

Symbol = Tuple[str, int]


class KulikovError(LatticeError):
    pass


# -- triple-cover component rows ----------------------------------------

_ROW_RECIPE: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], Tuple[Optional[int], int, int]] = {
    # spec -> (terminal del Pezzo degree or None for the plane,
    #          number of 3-cycles of exceptional classes,
    #          number of fixed exceptional classes)
    (0, ((1, 3),)): (3, 1, 0),
    (0, ((0, 1), (2, 2))): (1, 0, 1),
    (1, ((0, 3),)): (None, 3, 0),
    (1, ((0, 1), (1, 2))): (3, 0, 3),
    (2, ((0, 1), (0, 2))): (None, 2, 3),
    (3, ((0, 1), (0, 1), (0, 1))): (None, 1, 6),
}


@dataclass(frozen=True)
class ComponentSpec:
    m: int  # number of pinch points
    parts: Tuple[Tuple[int, int], ...]  # (genus, degree) of the cover pieces

    def __post_init__(self):
        if (self.m, self.parts) not in _ROW_RECIPE:
            raise KulikovError(f"unknown component ({self.m}, {self.parts})")


@dataclass(frozen=True)
class ComponentModel:
    spec: ComponentSpec
    rho: RhoLattice
    d: Tuple[int, ...]  # anticanonical fiber class, = -K


def _dp_kperp_rows(degree: int) -> IntMatrix:
    """Simple roots of the anticanonical-orthogonal lattice of a del Pezzo
    of the given degree, in I(1, 9-d) coordinates and Bourbaki order."""
    n = 9 - degree  # number of exceptional coordinates
    chain = [[0] * (1 + i) + [1, -1] + [0] * (n - 2 - i) for i in range(n - 1)]  # e_i - e_(i+1)
    branch = [1, -1, -1, -1] + [0] * (n - 3)  # h - e_1 - e_2 - e_3
    return IntMatrix([chain[0], branch, *chain[1:]], cols=n + 1)


def _terminal_model(degree: Optional[int]) -> RhoLattice:
    """Picard lattice with the order-3 action of a terminal surface."""
    if degree is None:
        return RhoLattice(diag_lattice([1]), IntMatrix.identity(1))
    sym, n = "E", 9 - degree  # E8 for degree 1, E6 for degree 3
    dim = 10 - degree
    lat = diag_lattice([1] + [-1] * (dim - 1))
    b = _dp_kperp_rows(degree)
    if Sublattice(lat, b).gram() != cartan_gram(sym, n).scale(-1):
        raise KulikovError("del Pezzo root core has the wrong Gram matrix")
    k_row = [[-3] + [1] * (dim - 1)]
    s = b.stack(IntMatrix(k_row, cols=dim))
    block = block_diagonal(fpf_order3(sym, n).matrix, IntMatrix.identity(1))
    # acting on rows: x -> x * M with S * M = D * S, coordinates taken in
    # the (root basis, canonical class) frame; solved transposed as
    # M^T * S^T = (D * S)^T.  S spans a sublattice of index 3 (degree 3)
    # or 1 (degree 1), glued along the discriminant of the root core, on
    # which D acts trivially; so D preserves the glue and M is integral.
    # The solve is exact, and the last rows of S and D are k and e_last,
    # so k * M = k: M fixes the canonical class
    try:
        m = int_express((block * s).transpose(), s.transpose()).transpose()
    except ExactLAError:
        raise KulikovError("order-3 action does not extend integrally to the Picard lattice") from None
    return RhoLattice(lat, m)


@cache
def build_component(spec: ComponentSpec) -> ComponentModel:
    """Picard lattice with order-3 action for one triple-cover component:
    the terminal model, then each 3-cycle e_a -> e_b -> e_c -> e_a of
    exceptional classes, then the fixed exceptional classes.

    D = -K = (3, -1^9) is isotropic and fixed by construction: every
    block is diagonal, so the Gram matrix is diag(1, -1^9) and D^2 =
    9 - 9 = 0; the terminal model fixes -K on its coordinates, a 3-cycle
    permutes three coordinates equal to -1, and the fixed block is the
    identity."""
    degree, cycles, fixed = _ROW_RECIPE[(spec.m, spec.parts)]
    cycle = RhoLattice(diag_lattice([-1] * 3), IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    fixed_block = RhoLattice(diag_lattice([-1] * fixed), IntMatrix.identity(fixed))
    rho = assemble([_terminal_model(degree)] + [cycle] * cycles + [fixed_block])
    if rho.lattice.rank != 10:
        raise KulikovError("component Picard lattice must have rank 10")
    if rho.order != 3:
        raise KulikovError("component action does not have order 3")
    return ComponentModel(spec, rho, (3,) + (-1,) * 9)


@cache
def primitive_picard(c: ComponentModel) -> Tuple[Sublattice, RootSystemType]:
    """Primitive part of the component action and its root type.  It is
    orthogonal to the fixed part, which holds a positive class (the line of
    the plane, or -K of a del Pezzo, K^2 > 0), so it is negative definite."""
    prim = primitive_part(c.rho)
    lat = prim.lattice()
    rtype, _ = root_system(lat)
    if rtype.rank != lat.rank:
        raise KulikovError("primitive part is not rationally spanned by roots")
    return prim, rtype


# -- two-component gluing ------------------------------------------------


@dataclass
class KulikovLattice:
    rho: RhoLattice
    prim: Sublattice

    @property
    def lattice(self) -> Lattice:
        return self.rho.lattice  # even unimodular of rank 18, as the glue suite checks


@cache
def _matching_quotient(l0: Lattice, d0: Tuple[int, ...], l1: Lattice, d1: Tuple[int, ...]) -> IsotropicQuotient:
    """J^perp/J for J = <(d0, -d1)> in l0 + l1, shared by every gluing of
    components with these Picard lattices and classes D."""
    xi = d0 + tuple(-x for x in d1)
    # degree matching is orthogonality to the isotropic xi
    return quotient_by_isotropic(Sublattice(direct_sum(l0, l1), [xi]))


def glue_lambda(c0: ComponentModel, c1: ComponentModel) -> KulikovLattice:
    """The reduced divisor-class lattice of the two-component surface.

    Pairs of classes agreeing in degree on the double curve, modulo the
    radical (D0, -D1), with the componentwise order-3 action descending to
    it; its shape, even unimodular of rank 18, is the glue suite's check.
    The quotient is built once per pair of component lattices and classes
    D; only the action and its primitive part are per gluing.
    """
    quo = _matching_quotient(c0.rho.lattice, c0.d, c1.rho.lattice, c1.d)
    # componentwise action descends to the quotient: rho0 + rho1 is an
    # isometry fixing xi = (D0, -D1), so it maps J^perp into itself
    images = quo.lift * block_diagonal(c0.rho.matrix, c1.rho.matrix)
    rq = RhoLattice(quo.lattice, quo.coords(images))
    return KulikovLattice(rq, primitive_part(rq))


def root_split_check(k: KulikovLattice, c0: ComponentModel, c1: ComponentModel) -> Tuple[bool, int]:
    """Whether the roots of the primitive part split over the two
    components, and the index in the primitive part of the span of the
    component primitive parts (0 if that span has the wrong rank).  Those
    parts lie in J^perp (for x in one, 0 = ((1 + rho + rho^2) x).D = 3 x.D),
    and their images in the primitive part keep their forms and are
    orthogonal: index^2 |det prim| = |det p0| |det p1|."""
    prim = k.prim.lattice()
    rtype, _ = root_system(prim)
    p0, t0 = primitive_picard(c0)
    p1, t1 = primitive_picard(c1)
    if p0.rank + p1.rank != prim.rank:
        return False, 0
    return rtype == t0 + t1, square_index(p0.lattice().det() * p1.lattice().det(), prim.det())


# -- semifan records -----------------------------------------------------


@dataclass
class SemifanRecord:
    fj_rank: int
    slot_index: int  # [fj : span of the A2 slots]
    rho_invariant: bool
    model: Lattice


def _starred_model(
    factors: Sequence[Symbol], base: RhoLattice
) -> Tuple[RhoLattice, Overlattice]:
    """Index-3 even overlattice of the negative definite factor sum
    ``base`` whose nonzero glue cosets hold no roots, with the descended
    order-3 action.  It is glued by the all-ones word (``glue_root_sum``):
    for E6^2+A2^2, E6+A2^4 and A2^6 only the full support sums to an even
    integer above 2.  The word has order 3, so the index is 3; the action
    is trivial on each discriminant, so it descends."""
    over = glue_root_sum(base.lattice, factors, [(1,) * len(factors)])
    # the action on the integer rows H = d * basis is M with M * H = H * rho
    return RhoLattice(over.lattice, int_express(over.scaled * base.matrix, over.scaled)), over


def semifan(n: int, k: int, cusp: RootSystemType | str) -> SemifanRecord:
    """The semifan sublattice of a quotient model: the saturation of the
    span of the A2 factors, with the index of that span in it and whether
    the order-3 action preserves it.  A cusp that ``classify_cusps(n, k)``
    does not list is rejected."""
    # imported here, so that gluing alone does not load the cusp classifier
    from .cusps import classify_cusps

    if isinstance(cusp, str):
        cusp = RootSystemType.parse(cusp)
    if cusp not in {c.jperp_root for c in classify_cusps(n, k)}:
        raise KulikovError(f"({n},{k}) with cusp {cusp} is not a boundary case")
    factors = list(cusp.components)
    rho_model = assemble([negative_fpf_order3(*f) for f in factors])
    # rows of the A2 slots in the factor basis
    slots = block_diagonal(
        *(IntMatrix.identity(2) if f == ("A", 2) else IntMatrix([], cols=f[1]) for f in factors)
    )
    if cusp.starred:
        rho_model, over = _starred_model(factors, rho_model)
        slots = slots * over.old_in_new  # coordinates in the overlattice basis
    fj = saturate(slots)
    return SemifanRecord(fj.rows, index_in(slots, fj), is_invariant(fj, rho_model.matrix), rho_model.lattice)


def quotient_model_fingerprint(l: Lattice) -> Tuple[int, int, Tuple[int, ...]]:
    return (l.rank, abs(l.det()), disc_group(l).elementary_divisors)


# -- the order-4 story ---------------------------------------------------


@cache
def order4_suite() -> Tuple[Tuple[str, Tuple], ...]:
    """All lattice checks of the order-4 family: invariant matching of the
    two rank-10 models, the assembled order-4 action, the invariant
    isotropic plane with quotient D4^2 + A1^2, the exceptional-class
    span, and the semifan summand.  Returns (check id, computed value)
    pairs; ``goldens.ORDER4_TABLE`` holds the expected values."""
    # (a) Nikulin invariants of the two 2-elementary models
    d4 = rescale(root_lattice("D", 4), -1)
    l1 = direct_sum(hyperbolic(2), rescale(root_lattice("D", 8), -1))
    l2 = direct_sum(hyperbolic(), d4, d4)
    nikulin = (nikulin_2elem(l1), nikulin_2elem(l2))

    # (b) the assembled action: its order and whether its square is -1
    t4 = assemble([rho4_u_u2(), rho4_d4(), rho4_d4(), rho4_a1a1()])
    t = t4.lattice
    action = (t4.order, t4.square == IntMatrix.identity(t.rank).scale(-1))

    # (c) the roots of the quotient by the invariant isotropic plane of e_0
    # and its image e_2, which ``isotropic_plane`` saturates and proves
    # isotropic and invariant; the cusp classifier is imported here, as in
    # ``semifan``
    from .cusps import isotropic_plane

    j = isotropic_plane(t4, [1] + [0] * (t.rank - 1))
    q = quotient_by_isotropic(j).lattice
    rtype, _ = root_system(q)
    plane = (str(rtype),)

    # (d) four cycled norm -1 classes: Gram matrix and images of two
    # differences, saturation of their span, and the A1^2 block of the
    # quotient model as a direct summand (ranks and determinants)
    e4 = diag_lattice([-1, -1, -1, -1])
    cyc = RhoLattice(e4, IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]))
    m_rows = IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]])
    m_gram = m_rows * e4.gram * m_rows.transpose()
    images = (cyc.apply((1, 0, -1, 0)), cyc.apply((0, 1, 0, -1)))
    block = direct_sum(d4, d4, diag_lattice([-2, -2]))
    a1_rows = IntMatrix([[0] * 8 + [1, 0], [0] * 8 + [0, 1]], cols=10)
    a1_sub = Sublattice(block, a1_rows)
    comp = a1_sub.orth_complement()
    span = (
        m_gram.entries,
        images,
        Sublattice(e4, m_rows).is_primitive,
        a1_sub.is_primitive,
        (a1_sub.rank, comp.rank, block.rank),
        (abs(a1_sub.lattice().det() * comp.lattice().det()), abs(block.det())),
    )

    # (e) the semifan summand: invariant under the block action (primitive
    # by (d)), and the block matches the quotient of (c)
    block_rho = assemble([rho4_d4(), rho4_d4(), rho4_a1a1()])
    summand = (
        is_invariant(a1_rows, block_rho.matrix),
        quotient_model_fingerprint(q),
        quotient_model_fingerprint(block),
    )
    return (
        ("nikulin-invariants", nikulin),
        ("order-4-action", action),
        ("quotient-root-type", plane),
        ("exceptional-span", span),
        ("semifan-summand", summand),
    )

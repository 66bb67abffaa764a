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
Its primitive part reproduces the quotient lattice of a boundary
component, and the semifan attached to each quotient is the saturation
of the span of the A2 factors coming from the cycled classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    det,
    hnf,
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
    glue_overlattice,
    hyperbolic,
    nikulin_2elem,
    quotient_by_isotropic,
    rescale,
    root_lattice,
    scaled_dual,
    signature,
)
from .roots import RootSystemType, dual_class_min, root_system
from .eisenstein import (
    RhoLattice,
    assemble,
    fixed_sublattice,
    fpf_order3,
    negative_fpf_order3,
    primitive_part,
    rho4_a1a1,
    rho4_d4,
    rho4_u_u2,
    rho_lattice,
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

COMPONENT_ROWS: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = tuple(_ROW_RECIPE)


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
    picard: Lattice
    rho: RhoLattice
    d: Tuple[int, ...]  # anticanonical fiber class, = -K


_DP_ROOT_TYPE = {1: ("E", 8), 3: ("E", 6)}


def _dp_kperp_rows(degree: int) -> IntMatrix:
    """Simple roots of the anticanonical-orthogonal lattice of a del Pezzo
    of the given degree, in I(1, 9-d) coordinates and Bourbaki order."""
    n = 9 - degree  # number of exceptional coordinates
    dim = n + 1
    rows: List[List[int]] = []
    chain = []
    for i in range(n - 1):
        v = [0] * dim
        v[1 + i] = 1
        v[2 + i] = -1
        chain.append(v)
    branch = [1, -1, -1, -1] + [0] * (dim - 4)
    rows.append(chain[0])
    rows.append(branch)
    rows.extend(chain[1:])
    return IntMatrix(rows, cols=dim)


def _terminal_model(degree: Optional[int]) -> Tuple[Lattice, IntMatrix]:
    """Picard lattice and order-3 action of a terminal surface."""
    if degree is None:
        return diag_lattice([1], label="I(1,0)"), IntMatrix.identity(1)
    sym, n = _DP_ROOT_TYPE[degree]
    dim = 10 - degree
    lat = diag_lattice([1] + [-1] * (dim - 1), label=f"I(1,{dim - 1})")
    b = _dp_kperp_rows(degree)
    if Sublattice(lat, b).gram() != cartan_gram(sym, n).scale(-1):
        raise KulikovError("del Pezzo root core has the wrong Gram matrix")
    k_row = [[-3] + [1] * (dim - 1)]
    s = b.stack(IntMatrix(k_row, cols=dim))
    fpf = fpf_order3(sym, n)
    for candidate in (fpf.rho.matrix, fpf.rho.matrix * fpf.rho.matrix):
        block = block_diagonal(candidate, IntMatrix.identity(1))
        # acting on rows: x -> x * M with S * M = D * S, coordinates taken
        # in the (root basis, canonical class) frame; solved transposed as
        # M^T * S^T = (D * S)^T, and a non-integral M tries the next D
        try:
            m = int_express(
                (block * s).transpose(), s.transpose()
            ).transpose()
        except ExactLAError:
            continue
        r = rho_lattice(lat, m)
        if r.order != 3:
            continue
        k_vec = k_row[0]
        if r.rho.apply(k_vec) != tuple(k_vec):
            raise KulikovError("extension does not fix the canonical class")
        return lat, m
    raise KulikovError("order-3 action does not extend integrally to the Picard lattice")


@cache
def build_component(spec: ComponentSpec) -> ComponentModel:
    """Picard lattice with order-3 action for one triple-cover component."""
    degree, cycles, fixed = _ROW_RECIPE[(spec.m, spec.parts)]
    lat, m = _terminal_model(degree)
    grams, actions = [lat.gram], [m]
    for _ in range(cycles):
        # e_a -> e_b -> e_c -> e_a
        grams.append(IntMatrix.diagonal([-1] * 3))
        actions.append(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    grams.append(IntMatrix.diagonal([-1] * fixed))
    actions.append(IntMatrix.identity(fixed))
    picard = Lattice(block_diagonal(*grams))
    if picard.rank != 10:
        raise KulikovError("component Picard lattice must have rank 10")
    rho = rho_lattice(picard, block_diagonal(*actions))
    if rho.order != 3:
        raise KulikovError("component action does not have order 3")
    k = tuple([-3] + [1] * 9)
    d = tuple(-x for x in k)
    if picard.norm(d) != 0:
        raise KulikovError("anticanonical class is not isotropic")
    if rho.rho.apply(d) != d:
        raise KulikovError("anticanonical class is not fixed")
    return ComponentModel(spec, picard, rho, d)


@cache
def primitive_picard(c: ComponentModel) -> Tuple[Sublattice, RootSystemType]:
    """Primitive part of the component action and its root type."""
    prim = primitive_part(c.rho)
    lat = prim.lattice()
    if signature(lat)[0] != 0:
        raise KulikovError("primitive part is not negative definite")
    rtype, _ = root_system(lat)
    if rtype.rank != lat.rank:
        raise KulikovError("primitive part is not rationally spanned by roots")
    return prim, rtype


# -- two-component gluing ------------------------------------------------


@dataclass
class KulikovLattice:
    lattice: Lattice  # rank 18, even, unimodular
    rho: RhoLattice
    prim: Sublattice
    quotient: IsotropicQuotient  # of the radical (D0, -D1)


def glue_lambda(c0: ComponentModel, c1: ComponentModel) -> KulikovLattice:
    """The reduced divisor-class lattice of the two-component surface.

    Pairs of classes agreeing in degree on the double curve, modulo the
    radical (D0, -D1); the result is even unimodular of rank 18 with the
    componentwise order-3 action descending to it.
    """
    amb = direct_sum(c0.picard, c1.picard)
    xi = c0.d + tuple(-x for x in c1.d)
    # degree matching is orthogonality to the isotropic xi
    quo = quotient_by_isotropic(Sublattice(amb, [xi]))
    lam = quo.lattice
    if lam.rank != 18 or not lam.is_unimodular or not lam.is_even:
        raise KulikovError("glued lattice is not even unimodular of rank 18")
    if signature(lam) != (1, 17):
        raise KulikovError("glued lattice has the wrong signature")
    # componentwise action descends to the quotient
    images = quo.lift * block_diagonal(c0.rho.rho.matrix, c1.rho.rho.matrix)
    rq = rho_lattice(lam, quo.coords(images))
    if rq.order != 3:
        raise KulikovError("glued action does not have order 3")
    prim = primitive_part(rq)
    fix = fixed_sublattice(rq)
    if prim.rank + fix.rank != 18:
        raise KulikovError("fixed and primitive parts do not fill the lattice")
    return KulikovLattice(lam, rq, prim, quo)


def root_split_check(k: KulikovLattice, c0: ComponentModel, c1: ComponentModel) -> Tuple[bool, int]:
    """Whether the roots of the primitive part split over the two
    components, and the index in the primitive part of the span of the
    component primitive parts (0 if that span has the wrong rank)."""
    rtype, _ = root_system(k.prim.lattice())
    p0, t0 = primitive_picard(c0)
    p1, t1 = primitive_picard(c1)
    expected = t0 + t1
    # the component primitive parts, padded into the rank-20 ambient sum
    image = k.quotient.coords(block_diagonal(p0.basis, p1.basis))
    # express the image inside the primitive part and measure the index
    coeff = int_express(image, k.prim.basis)
    if coeff.rows != k.prim.rank:
        return False, 0
    return rtype == expected, abs(det(coeff))


# -- semifan records -----------------------------------------------------


@dataclass
class SemifanRecord:
    fj_rank: int
    slot_index: int  # [fj : span of the A2 slots]
    rho_invariant: bool
    model: Lattice
    fj_basis: IntMatrix


def is_invariant(rows: IntMatrix, m: IntMatrix) -> bool:
    """Whether the span of ``rows`` is preserved by the action ``m`` on
    row vectors.  Only ``ExactLAError`` reads as "not invariant"."""
    try:
        int_express(rows * m, rows)
    except ExactLAError:
        return False
    return True


def _starred_model(
    factors: Sequence[Symbol], base: RhoLattice
) -> Tuple[RhoLattice, Overlattice]:
    """Index-3 even overlattice of the negative definite factor sum
    ``base`` whose nonzero glue cosets contain no roots, together with the
    descended order-3 action."""
    # candidate glue words over the factor discriminants (all of order 3)
    duals = [scaled_dual(*f) for f in factors]
    d = math.lcm(*(df for _, df in duals))
    for word in product((0, 1, 2), repeat=len(factors)):
        coset_min = sum(dual_class_min(*f) for c, f in zip(word, factors) if c)
        if not any(word) or coset_min <= 2:
            continue
        glue_row = [x * c * (d // df) for c, (cf, df) in zip(word, duals) for x in cf.entries[0]]
        try:
            over = glue_overlattice(base.lattice, [glue_row], d)
        except LatticeError:
            continue
        if over.index != 3:
            continue
        # action must descend to the overlattice: on the integer rows
        # H = d * basis it is M with M * H = H * rho, M integral
        h = over.scaled
        try:
            m = int_express(h * base.rho.matrix, h)
        except ExactLAError:
            continue
        return rho_lattice(over.lattice, m), over
    raise KulikovError("no valid index-3 glue for the starred quotient model")


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
    base = assemble([negative_fpf_order3(*f) for f in factors])
    if cusp.starred:
        rho_model, over = _starred_model(factors, base)
    else:
        rho_model, over = base, None
    if rho_model.order not in (1, 3):
        raise KulikovError("model action has unexpected order")
    model, rho_m = rho_model.lattice, rho_model.rho.matrix
    # rows of the A2 slots in model coordinates
    slot_rows: List[List[int]] = []
    off = 0
    total = model.rank
    for sym, m in factors:
        if (sym, m) == ("A", 2):
            for i in range(2):
                v = [0] * total
                v[off + i] = 1
                slot_rows.append(v)
        off += m
    slots = IntMatrix(slot_rows, cols=total)
    if cusp.starred:
        slots = slots * over.old_in_new  # coordinates in the overlattice basis
    fj = saturate(slots)
    return SemifanRecord(fj.rows, index_in(slots, fj), is_invariant(fj, rho_m), model, fj)


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
    nikulin = (nikulin_2elem(l1).as_tuple(), nikulin_2elem(l2).as_tuple())

    # (b) the assembled action: its order and whether its square is -1
    t4 = assemble([rho4_u_u2(), rho4_d4(), rho4_d4(), rho4_a1a1()])
    t = t4.lattice
    sq = t4.rho.matrix * t4.rho.matrix
    action = (t4.order, sq == IntMatrix.identity(t.rank).scale(-1))

    # (c) an isotropic, saturated, invariant plane and its quotient's roots
    e, ep = [0] * t.rank, [0] * t.rank
    e[0] = ep[2] = 1
    j = Sublattice(t, IntMatrix([e, ep], cols=t.rank))
    q = quotient_by_isotropic(j).lattice
    rtype, _ = root_system(q)
    plane = (j.is_isotropic(), j.is_primitive, is_invariant(j.basis, t4.rho.matrix), str(rtype))

    # (d) four cycled norm -1 classes: Gram matrix and images of two
    # differences, saturation of their span, and the A1^2 block of the
    # quotient model as a direct summand (ranks and determinants)
    e4 = diag_lattice([-1, -1, -1, -1])
    cyc = rho_lattice(e4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    m_rows = IntMatrix([[1, 0, -1, 0], [0, 1, 0, -1]])
    m_gram = m_rows * e4.gram * m_rows.transpose()
    images = (cyc.rho.apply((1, 0, -1, 0)), cyc.rho.apply((0, 1, 0, -1)))
    block = direct_sum(d4, d4, diag_lattice([-2, -2]))
    a1_rows = IntMatrix([[0] * 8 + [1, 0], [0] * 8 + [0, 1]], cols=10)
    a1_sub = Sublattice(block, a1_rows)
    comp = a1_sub.orth_complement()
    span = (
        m_gram.entries,
        images,
        saturate(m_rows) == hnf(m_rows)[0],
        a1_sub.is_primitive,
        (a1_sub.rank, comp.rank, block.rank),
        (abs(det(a1_sub.gram())) * abs(det(comp.gram())), abs(block.det())),
    )

    # (e) the semifan summand: invariant under the block action, primitive,
    # and the block matches the quotient of (c)
    block_rho = assemble([rho4_d4(), rho4_d4(), rho4_a1a1()])
    summand = (
        is_invariant(a1_rows, block_rho.rho.matrix),
        a1_sub.is_primitive,
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

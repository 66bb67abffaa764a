"""Isotropic-plane (1-cusp) classification for the four maximal families.

The quotient J-perp/J of an isotropic plane inside one of the period
lattices T is computed two ways:

* directly, by saturating a plane spanned by a vector and its image
  under the order-3 action and taking the induced form on J-perp/J;
* combinatorially, by embedding the complementary definite lattice P
  into the root systems of the two relevant rank-24 even unimodular
  lattices, E8^3 and E6^4, and reading off orthogonal complements of
  root subsystems.

Both unimodular lattices come from one builder, ``build_niemeier``, which
reads them from the data table ``NIEMEIER_GLUE``: a component, its number
of copies and the generators of the glue code.  The glue codes are input
data from Conway-Sloane, SPLAG Table 16.1: E8^3 needs none, and E6^4 is
glued by the tetracode over the discriminant groups Z/3 of its copies.

The embedding search walks simple roots of the factors of P through the
component's root system, requiring the Cartan pairings at every step.
Candidates at each level are reduced to orbit representatives under the
reflections fixing everything chosen so far; this preserves the set of
reachable complement isometry types while collapsing the enormous
redundancy of the raw search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from typing import Dict, FrozenSet, List, Sequence, Tuple

from . import goldens
from .exactla import (
    IntMatrix,
    hermite_basis,
    index_in,
    int_express,
    kernel_basis,
    rank,
    saturate,
)
from .lattice import (
    Lattice,
    LatticeError,
    Overlattice,
    Sublattice,
    cartan_gram,
    direct_sum,
    glue_overlattice,
    hyperbolic,
    quotient_by_isotropic,
    rescale,
    root_lattice,
    scaled_dual,
)
from .roots import (
    EMPTY_TYPE,
    RootSystemType,
    dual_class_min,
    enumerate_norm,
    root_decomposition,
    root_span_index,
    root_system,
)
from .eisenstein import (
    RhoLattice,
    assemble,
    fixed_sublattice,
    is_estar,
    negative_fpf_order3,
    rho3_u_u,
    rho3_u_u3,
)

Symbol = Tuple[str, int]
Vector = Tuple[int, ...]


class CuspError(LatticeError):
    pass


# -- families ----------------------------------------------------------
# The family summands and genera are the input tables of goldens.


@dataclass(frozen=True)
class FamilyData:
    s: Lattice
    t: Lattice
    p: Lattice
    p_factors: Tuple[Symbol, ...]
    rho_t: RhoLattice


def _sum_from_symbols(symbols, negative_roots=True) -> Lattice:
    parts = []
    for sym, n in symbols:
        if sym == "U":
            parts.append(hyperbolic(n))
        else:
            l = root_lattice(sym, n)
            parts.append(rescale(l, -1) if negative_roots else l)
    return direct_sum(*parts)


@cache
def family_data(n: int, k: int) -> FamilyData:
    if (n, k) not in goldens.GENUS:
        raise CuspError(f"unknown family ({n},{k})")
    row = goldens.LATTICE_TABLE[(n, k)]
    s, t, p = (_sum_from_symbols(row[x]) for x in "STP")
    u_block = rho3_u_u() if row["T"][:2] == (("U", 1), ("U", 1)) else rho3_u_u3()
    rho_t = assemble([u_block] + [negative_fpf_order3(*f) for f in row["T"][2:]])
    if rho_t.lattice.gram != t.gram:
        raise CuspError("assembled action lives on the wrong lattice")

    # the signatures, ranks and discriminants are items of the tab3 suite
    if fixed_sublattice(rho_t).rank != 0:
        raise CuspError("period action has fixed vectors")
    if not is_estar(rho_t):
        raise CuspError("period action is not trivial on the discriminant group")
    return FamilyData(s, t, p, row["P"], rho_t)


# -- root-system machinery per component -------------------------------


class ComponentSystem:
    """Precomputed root data for one irreducible component (E6 or E8)."""

    def __init__(self, sym: str, n: int):
        self.symbol: Symbol = (sym, n)
        self.lattice = root_lattice(sym, n)
        self.roots: List[Tuple[int, ...]] = enumerate_norm(self.lattice, 2)
        self.nroots = len(self.roots)
        index = {v: i for i, v in enumerate(self.roots)}
        neg = [index[tuple(-c for c in v)] for v in self.roots]
        r = IntMatrix._of(tuple(self.roots), n)
        self.pair = (r * self.lattice.gram * r.transpose()).entries
        # masks[i][v+2] = bitmask of roots pairing v with root i
        self.masks = []
        for row in self.pair:
            masks_i = [0] * 5
            for j, v in enumerate(row):
                masks_i[v + 2] |= 1 << j
            self.masks.append(masks_i)
        # canonical representative per +- pair: first index wins
        self.pos_reps = [i for i in range(self.nroots) if neg[i] > i]
        # reflection permutations s_i(r_j) = r_j - <r_j, r_i> r_i of the
        # pos_reps, the only reflections orbit_reps applies; a pairing of
        # 0 fixes r_j and one of +-2 (r_j = +-r_i) negates it
        self.refl: Dict[int, Tuple[int, ...]] = {}
        for i in self.pos_reps:
            ri = self.roots[i]
            self.refl[i] = tuple(
                j if c == 0 else neg[j] if c in (2, -2)
                else index[tuple(a - c * b for a, b in zip(self.roots[j], ri))]
                for j, c in enumerate(self.pair[i])
            )
        self.all_mask = (1 << self.nroots) - 1

    def orbit_reps(self, cand_mask: int, refl_mask: int) -> List[int]:
        """One representative per orbit of the candidate set under the
        reflections whose roots lie in ``refl_mask``."""
        cands = _bits(cand_mask)
        if not cands:
            return []
        refls = [i for i in self.pos_reps if (refl_mask >> i) & 1]
        cand_set = set(cands)
        seen: set = set()
        reps = []
        for c in cands:
            if c in seen:
                continue
            reps.append(c)
            stack = [c]
            seen.add(c)
            while stack:
                x = stack.pop()
                for i in refls:
                    y = self.refl[i][x]
                    if y in cand_set and y not in seen:
                        seen.add(y)
                        stack.append(y)
        return reps


def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


@cache
def component_system(sym: str, n: int) -> ComponentSystem:
    return ComponentSystem(sym, n)


_FACTOR_ORDERS = {
    ("A", 1): [1],
    ("A", 2): [1, 2],
    ("A", 3): [1, 2, 3],
    ("E", 6): [1, 3, 4, 2, 5, 6],
    ("E", 8): [1, 3, 4, 2, 5, 6, 7, 8],
}


def _factor_requirements(sym: str, n: int) -> List[List[int]]:
    """Pairing requirements of each simple root against the earlier ones,
    in a connectivity-friendly choice order."""
    order = _FACTOR_ORDERS.get((sym, n))
    if order is None:
        order = list(range(1, n + 1))
    c = cartan_gram(sym, n).entries
    reqs = []
    for k, idx in enumerate(order):
        reqs.append([c[idx - 1][order[j] - 1] for j in range(k)])
    return reqs


@dataclass(frozen=True)
class ComponentOutcome:
    """Distinct result of embedding a factor multiset into one component."""

    complement_type: RootSystemType
    rootspan_index: int  # [complement : span of its roots]
    dual_image_order: int  # [P-perp taken in the dual : P-perp in the component]
    witness: Tuple[Tuple[int, ...], ...]  # root indices per factor
    complement_mask: int
    complement_simple: Tuple[Vector, ...]  # simple roots of the complement


def _outcome_from_leaf(cs: ComponentSystem, flat: List[int], sizes: List[int]) -> ComponentOutcome:
    rk = cs.lattice.rank
    comp_mask = cs.all_mask
    for i in flat:
        comp_mask &= cs.masks[i][0 + 2]
    comp_roots = [cs.roots[i] for i in _bits(comp_mask)]
    ctype, simple = root_decomposition(comp_roots, cs.lattice.gram)
    rows = IntMatrix._of(tuple(cs.roots[i] for i in flat), rk)
    comp_basis = kernel_basis(rows * cs.lattice.gram)  # complement in the lattice
    if ctype.rank != comp_basis.rows:
        raise CuspError("complement is not rationally spanned by its roots")
    # the simple roots span the same lattice as all complement roots
    rootspan_index = index_in(hermite_basis(simple, rk), comp_basis) if simple else 1
    # y with y . rows^T = 0 are the dual-side complement x = y G^-1, and
    # comp = C * (dual_side * G^-1) exactly when comp * G = C * dual_side
    dual_order = index_in(comp_basis * cs.lattice.gram, kernel_basis(rows))
    witness = []
    pos = 0
    for s in sizes:
        witness.append(tuple(flat[pos : pos + s]))
        pos += s
    return ComponentOutcome(
        ctype, rootspan_index, dual_order, tuple(witness), comp_mask, tuple(simple)
    )


def _factor_key(s: Symbol) -> Tuple[int, str]:
    return (-s[1], s[0])


def embed_multiset(comp: Symbol, factors: Sequence[Symbol]) -> Tuple[ComponentOutcome, ...]:
    """All distinct ways to embed a multiset of ADE factors orthogonally
    into one component, up to the data that determines the quotients."""
    return _embed_sorted(comp, tuple(sorted(factors, key=_factor_key)))


@cache
def _embed_sorted(comp: Symbol, factors: Tuple[Symbol, ...]) -> Tuple[ComponentOutcome, ...]:
    cs = component_system(*comp)
    total_rank = sum(n for _, n in factors)
    if total_rank > cs.lattice.rank:
        return ()
    # flatten requirement lists: within factors Cartan pairings, across
    # factors orthogonality
    reqs: List[List[int]] = []
    sizes = []
    for sym, n in factors:
        freqs = _factor_requirements(sym, n)
        base = len(reqs)
        for k, req in enumerate(freqs):
            reqs.append([0] * base + req)
        sizes.append(len(freqs))
    total = len(reqs)
    outcomes: Dict[Tuple, ComponentOutcome] = {}
    full_rank = total_rank == cs.lattice.rank
    found_full = [False]

    def search(depth: int, chosen: List[int], orth_mask: int):
        if depth == total:
            out = _outcome_from_leaf(cs, chosen, sizes)
            dkey = (str(out.complement_type), out.rootspan_index, out.dual_image_order)
            outcomes.setdefault(dkey, out)
            if full_rank:
                found_full[0] = True
            return
        mask = cs.all_mask
        for j, val in enumerate(reqs[depth]):
            mask &= cs.masks[chosen[j]][val + 2]
        for rep in cs.orbit_reps(mask, orth_mask):
            if full_rank and found_full[0]:
                # complement is empty either way; one witness suffices
                return
            chosen.append(rep)
            search(depth + 1, chosen, orth_mask & cs.masks[rep][2])
            chosen.pop()

    search(0, [], cs.all_mask)
    return tuple(sorted(outcomes.values(), key=lambda o: str(o.complement_type)))


# -- rank-24 unimodular models ------------------------------------------


# The rank-24 even unimodular lattices of the classifier, as data: kind
# -> (component, number of copies, generators of the glue code).  A code
# word names a class of the discriminant group Z/3 of each copy, by its
# multiple of the dual generator (Conway-Sloane, SPLAG Table 16.1).
NIEMEIER_GLUE: Dict[str, Tuple[Symbol, int, Tuple[Vector, ...]]] = {
    "E8^3": (("E", 8), 3, ()),
    "E6^4": (("E", 6), 4, ((0, 1, 1, 1), (1, 0, 1, 2))),  # the tetracode
}


@dataclass
class NiemeierModel:
    kind: str
    comp: Symbol
    ncomp: int
    r: Lattice
    n: Lattice
    overlattice: Overlattice
    glue_code: Tuple[Vector, ...]  # all nonzero codewords
    perm_group: Tuple[Tuple[int, ...], ...]
    root_count: int

    def component_offset(self, c: int) -> int:
        return c * self.comp[1]


def _code_perm_group(code: FrozenSet[Tuple[int, ...]], ncomp: int) -> Tuple[Tuple[int, ...], ...]:
    """Component permutations extending to isometries of the overlattice.

    A permutation of components combined with per-component sign flips
    acts on the discriminant group as a monomial transformation; each
    sign is realized by the negation isometry of that component, so any
    monomial transformation preserving the glue code lifts to an
    isometry of the overlattice.  Assignments of factors to components
    are deduplicated by the permutation images of these.
    """
    perms = []
    signs = [tuple(s) for s in product((1, 2), repeat=ncomp)]
    for p in permutations(range(ncomp)):
        for s in signs:
            image = {
                tuple((s[i] * v[p[i]]) % 3 for i in range(ncomp)) for v in code
            }
            if image == set(code):
                perms.append(p)
                break
    return tuple(perms)


@cache
def build_niemeier(kind: str) -> NiemeierModel:
    """The rank-24 even unimodular lattice ``kind`` of ``NIEMEIER_GLUE``:
    the direct sum of the copies of its component, glued by its code."""
    if kind not in NIEMEIER_GLUE:
        raise CuspError(f"unknown model kind {kind!r}")
    comp, ncomp, gens = NIEMEIER_GLUE[kind]
    code = {
        tuple(sum(c * g[i] for c, g in zip(cs, gens)) % 3 for i in range(ncomp))
        for cs in product(range(3), repeat=len(gens))
    } - {(0,) * ncomp}
    # no new roots: a word of weight w glues classes of norm at least
    # w times the least norm of a nontrivial class
    for w in code:
        if (ncomp - w.count(0)) * dual_class_min(*comp) <= 2:
            raise CuspError(f"{kind}: glue word {w} adds roots")
    r = direct_sum(*[root_lattice(*comp)] * ncomp)
    dual, d = scaled_dual(*comp)
    glue = [[x * c for c in g for x in dual.entries[0]] for g in gens]
    over = glue_overlattice(r, glue, d)
    if over.index ** 2 != abs(r.det()):
        raise CuspError(f"{kind}: glue index {over.index} does not match the discriminant")
    if not over.lattice.is_unimodular or not over.lattice.is_even:
        raise CuspError(f"{kind}: glued lattice is not even unimodular")
    # the defining property of the glue: one zero coordinate per word
    for w in code:
        if w.count(0) != 1:
            raise CuspError("glue word without exactly one zero coordinate")
    count = ncomp * len(component_system(*comp).roots)
    return NiemeierModel(
        kind,
        comp,
        ncomp,
        r,
        over.lattice,
        over,
        tuple(sorted(code)),
        _code_perm_group(frozenset(code), ncomp),
        count,
    )


# -- embeddings of P ----------------------------------------------------


@dataclass(frozen=True)
class EmbeddingRecord:
    model_kind: str
    assignment: Tuple[Tuple[Symbol, ...], ...]  # factor multiset per component
    outcomes: Tuple[ComponentOutcome, ...]
    total_complement: RootSystemType
    sat_index: int

    def rows(self) -> List[Tuple[str, str, int]]:
        """Per-component rows (assigned factors, complement type, dual order)."""
        out = []
        for fs, oc in zip(self.assignment, self.outcomes):
            fstr = str(RootSystemType.of(fs)) if fs else "0"
            out.append((fstr, str(oc.complement_type), oc.dual_image_order))
        return out


def _assignments(factors: Sequence[Symbol], ncomp: int) -> List[Tuple[Tuple[Symbol, ...], ...]]:
    """All ordered distributions of the factor multiset over components."""
    out: set = set()

    def place(rem: Tuple[Symbol, ...], acc: Tuple[Tuple[Symbol, ...], ...]):
        if not rem:
            out.add(acc)
            return
        f, rest = rem[0], rem[1:]
        for c in range(ncomp):
            new = tuple(
                tuple(sorted(acc[i] + ((f,) if i == c else ()), key=_factor_key))
                for i in range(ncomp)
            )
            place(rest, new)

    place(tuple(sorted(factors, key=_factor_key)), tuple(() for _ in range(ncomp)))
    return sorted(out)


def _canonical_assignment(
    assignment: Tuple[Tuple[Symbol, ...], ...], group: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[Symbol, ...], ...]:
    return min(tuple(assignment[p[i]] for i in range(len(p))) for p in group)


def enumerate_embeddings(
    p_factors: Sequence[Symbol], model: NiemeierModel
) -> List[EmbeddingRecord]:
    """Embeddings of the direct sum of the given ADE factors into the model,
    one record per inequivalent assignment and complement configuration."""
    classes: Dict[Tuple, Tuple[Tuple[Symbol, ...], ...]] = {}
    for assignment in _assignments(p_factors, model.ncomp):
        canon = _canonical_assignment(assignment, model.perm_group)
        classes.setdefault(canon, canon)
    records: List[EmbeddingRecord] = []
    for assignment in sorted(classes.values()):
        per_comp = [embed_multiset(model.comp, fs) for fs in assignment]
        if any(not oc for oc in per_comp):
            continue
        # cartesian product over the (few) outcomes of each component
        for outcome_tuple in product(*per_comp):
            total = EMPTY_TYPE
            for oc in outcome_tuple:
                total = total + oc.complement_type
            rootspan_prod = 1
            for oc in outcome_tuple:
                rootspan_prod *= oc.rootspan_index
            full_positions = [
                i for i, oc in enumerate(outcome_tuple) if oc.dual_image_order == 3
            ]
            for oc in outcome_tuple:
                if oc.dual_image_order not in (1, 3):
                    raise CuspError("unexpected dual image order")
            # order of the code meeting the image of the dual complement
            inter = sum(
                1
                for w in model.glue_code
                if all(w[i] == 0 for i in range(model.ncomp) if i not in full_positions)
            )
            glue_intersection = inter + 1  # include the zero word
            sat_index = glue_intersection * rootspan_prod
            if sat_index not in (1, 3):
                raise CuspError(f"saturation index {sat_index} outside {{1,3}}")
            records.append(
                EmbeddingRecord(
                    model.kind,
                    assignment,
                    outcome_tuple,
                    total.with_star(sat_index == 3),
                    sat_index,
                )
            )
    records.sort(key=lambda r: (str(r.total_complement), r.assignment))
    return records


def _model_rows(model: NiemeierModel, per_component: Sequence[Sequence[Vector]]) -> IntMatrix:
    """Vectors given in root coordinates of each component of R, as rows
    in N coordinates."""
    rank_r = model.r.rank
    rows: List[List[int]] = []
    for c, vectors in enumerate(per_component):
        off = model.component_offset(c)
        for v in vectors:
            vec = [0] * rank_r
            vec[off : off + len(v)] = v
            rows.append(vec)
    return IntMatrix(rows, cols=rank_r) * model.overlattice.old_in_new


def embedded_p_rows(record: EmbeddingRecord, model: NiemeierModel) -> IntMatrix:
    """The embedded copy of P as rows in N coordinates."""
    roots = component_system(*model.comp).roots
    return _model_rows(
        model, [[roots[i] for w in oc.witness for i in w] for oc in record.outcomes]
    )


def complement_root_span(record: EmbeddingRecord, model: NiemeierModel) -> IntMatrix:
    """Hermite basis of the span of the roots of N orthogonal to the
    embedded P.  Those roots are the complement roots of the components,
    and the simple roots of each component's complement span the same
    lattice as all of its roots (Humphreys, *Reflection Groups*, 1.5)."""
    rows = _model_rows(model, [oc.complement_simple for oc in record.outcomes])
    return hermite_basis(rows.entries, model.n.rank)


def _p_complement(record: EmbeddingRecord, model: NiemeierModel) -> Sublattice:
    """The orthogonal complement of the embedded P inside N, saturated
    by construction."""
    return Sublattice(model.n, embedded_p_rows(record, model)).orth_complement()


def star_of(record: EmbeddingRecord, model: NiemeierModel) -> bool:
    """Concrete saturation test inside the unimodular model.

    Spans the roots of the saturated complement of the embedded copy of
    P inside N and compares; the result must agree with the glue
    bookkeeping carried by the record.
    """
    sat = _p_complement(record, model)
    span = complement_root_span(record, model)
    if span.rows != sat.rank:
        raise CuspError("complement is not rationally spanned by its roots")
    idx = index_in(span, sat.basis)
    if idx not in (1, 3):
        raise CuspError(f"saturation index {idx} outside {{1,3}}")
    if idx != record.sat_index:
        raise CuspError("glue bookkeeping disagrees with the concrete saturation")
    return idx == 3


def cusp_quotient_lattice(record: EmbeddingRecord, model: NiemeierModel) -> Lattice:
    """The saturated orthogonal complement of the embedded P inside N,
    which realizes the quotient lattice of the corresponding cusp."""
    return _p_complement(record, model).lattice()


@dataclass(frozen=True)
class CuspRecord:
    jperp_root: RootSystemType  # star flag included
    witnesses: Tuple[EmbeddingRecord, ...]


@cache
def classify_cusps(n: int, k: int) -> Tuple[CuspRecord, ...]:
    """All 1-cusp quotient types of the family, from both unimodular models."""
    fam = family_data(n, k)
    by_type: Dict[str, List[EmbeddingRecord]] = {}
    for kind in NIEMEIER_GLUE:
        model = build_niemeier(kind)
        for rec in enumerate_embeddings(fam.p_factors, model):
            star_of(rec, model)  # concrete verification of the star flag
            by_type.setdefault(str(rec.total_complement), []).append(rec)
    return tuple(
        CuspRecord(by_type[key][0].total_complement, tuple(by_type[key]))
        for key in sorted(by_type)
    )


# -- direct route: isotropic planes -------------------------------------


def isotropic_plane(r: RhoLattice, e: Sequence[int]) -> Sublattice:
    """The saturated invariant isotropic plane spanned by e and its image."""
    t = r.lattice
    if all(x == 0 for x in e):
        raise CuspError("zero vector spans no plane")
    if t.norm(e) != 0:
        raise CuspError("vector is not isotropic")
    re = r.rho.apply(e)
    rows = IntMatrix([list(e), list(re)], cols=t.rank)
    if rank(rows) != 2:
        raise CuspError("vector and its image are dependent")
    j = Sublattice(t, saturate(rows))
    if not j.is_isotropic():
        raise CuspError("span of the orbit is not isotropic")
    img = IntMatrix(
        [list(r.rho.apply(v)) for v in j.basis.entries], cols=t.rank
    )
    int_express(img, j.basis)  # invariance
    return j


def cusp_of_plane(r: RhoLattice, j: Sublattice) -> RootSystemType:
    """Root type (with star flag) of the quotient J-perp/J."""
    q = quotient_by_isotropic(j).lattice
    rtype, _ = root_system(q)
    idx = root_span_index(q)
    if idx not in (1, 3):
        raise CuspError(f"root-span index {idx} outside {{1,3}}")
    return rtype.with_star(idx == 3)

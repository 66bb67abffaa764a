"""Isotropic-plane (1-cusp) classification for the four maximal families.

The quotient J-perp/J of an isotropic plane inside one of the period
lattices T is computed two ways:

* directly, by saturating a plane spanned by a vector and its image
  under the order-3 action and taking the induced form on J-perp/J;
* combinatorially, by embedding the complementary definite lattice P
  into the root systems of the two relevant rank-24 even unimodular
  lattices (E8^3, and the index-9 glue overlattice of E6^4) and reading
  off orthogonal complements of root subsystems.

The embedding search walks simple roots of the factors of P through the
component's root system, requiring the Cartan pairings at every step.
Candidates at each level are reduced to orbit representatives under the
reflections fixing everything chosen so far; this preserves the set of
reachable complement isometry types while collapsing the enormous
redundancy of the raw search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import goldens
from .exactla import (
    IntMatrix,
    hermite_basis,
    index_in,
    int_express,
    kernel_basis,
    saturate,
)
from .lattice import (
    Lattice,
    LatticeError,
    Overlattice,
    Sublattice,
    direct_sum,
    dual_generator,
    glue_overlattice,
    hyperbolic,
    is_p_elementary,
    quotient_by_isotropic,
    rescale,
    root_lattice,
    signature,
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
class FamilyId:
    n: int
    k: int

    def __post_init__(self):
        if (self.n, self.k) not in goldens.GENUS:
            raise CuspError(f"unknown family ({self.n},{self.k})")

    @property
    def g(self) -> int:
        return goldens.GENUS[(self.n, self.k)]

    def __str__(self) -> str:
        return f"({self.n},{self.k})"


@dataclass(frozen=True)
class FamilyData:
    family: FamilyId
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
    fam = FamilyId(n, k)
    row = goldens.LATTICE_TABLE[(n, k)]
    s, t, p = (_sum_from_symbols(row[x]) for x in "STP")
    u_block = rho3_u_u() if row["T"][:2] == (("U", 1), ("U", 1)) else rho3_u_u3()
    rho_t = assemble([u_block] + [negative_fpf_order3(*f) for f in row["T"][2:]])
    if rho_t.lattice.gram != t.gram:
        raise CuspError("assembled action lives on the wrong lattice")

    # structural checks
    if signature(t) != (2, t.rank - 2):
        raise CuspError("period lattice has the wrong signature")
    if signature(p) != (0, p.rank):
        raise CuspError("complement lattice is not negative definite")
    if t.rank + p.rank != 28:
        raise CuspError("ranks do not sum to the rank of the ambient unimodular lattice")
    if abs(t.det()) != abs(p.det()):
        raise CuspError("discriminant orders of T and P disagree")
    if not is_p_elementary(t, 3):
        raise CuspError("period lattice is not 3-elementary")
    if fixed_sublattice(rho_t).rank != 0:
        raise CuspError("period action has fixed vectors")
    if not is_estar(rho_t):
        raise CuspError("period action is not trivial on the discriminant group")
    return FamilyData(fam, s, t, p, row["P"], rho_t)


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
    from .lattice import cartan_gram

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

    factors: Tuple[Symbol, ...]
    complement_type: RootSystemType
    complement_rank: int
    rootspan_index: int  # [complement : span of its roots]
    dual_image_order: int  # [P-perp taken in the dual : P-perp in the component]
    witness: Tuple[Tuple[int, ...], ...]  # root indices per factor
    complement_mask: int
    complement_simple: Tuple[Vector, ...]  # simple roots of the complement


def _outcome_from_leaf(
    cs: ComponentSystem, factors: Tuple[Symbol, ...], flat: List[int], sizes: List[int]
) -> ComponentOutcome:
    rk = cs.lattice.rank
    comp_mask = cs.all_mask
    for i in flat:
        comp_mask &= cs.masks[i][0 + 2]
    comp_roots = [cs.roots[i] for i in _bits(comp_mask)]
    ctype, simple = root_decomposition(comp_roots, cs.lattice.gram)
    rows = IntMatrix._of(tuple(cs.roots[i] for i in flat), rk)
    comp_basis = kernel_basis(rows * cs.lattice.gram)  # complement in the lattice
    crank = comp_basis.rows
    if ctype.rank != crank:
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
        factors, ctype, crank, rootspan_index, dual_order, tuple(witness), comp_mask, tuple(simple)
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
            out = _outcome_from_leaf(cs, factors, chosen, sizes)
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


@dataclass
class NiemeierModel:
    kind: str
    comp: Symbol
    ncomp: int
    r: Lattice
    n: Lattice
    overlattice: Optional[Overlattice]
    glue_code: Tuple[Tuple[int, ...], ...]  # all nonzero codewords, or ()
    perm_group: Tuple[Tuple[int, ...], ...]
    root_count: int

    def component_offset(self, c: int) -> int:
        return c * self.comp[1]


def _subspaces_f3_4() -> List[Tuple[Tuple[int, ...], ...]]:
    """All 2-dimensional subspaces of F_3^4, each as its tuple of nonzero
    vectors sorted lexicographically.

    Each plane is spanned by its reduced row-echelon basis v, w: pivots
    p < q holding 1, zeros before each pivot and in the other row's pivot
    column, any entries elsewhere; 130 bases in all.
    """
    out = []
    for p, q in combinations(range(4), 2):
        free_v = [j for j in range(p + 1, 4) if j != q]
        for fv in product(range(3), repeat=len(free_v)):
            for fw in product(range(3), repeat=3 - q):
                v, w = [0] * 4, [0] * 4
                v[p] = w[q] = 1
                for j, x in zip(free_v, fv):
                    v[j] = x
                w[q + 1 :] = fw
                span = {
                    tuple((s * x + t * y) % 3 for x, y in zip(v, w))
                    for s in range(3)
                    for t in range(3)
                    if s or t
                }
                out.append(tuple(sorted(span)))
    return sorted(out)


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
    """The two rank-24 even unimodular lattices used by the classifier."""
    if kind == "E8^3":
        comp = ("E", 8)
        r = direct_sum(*[root_lattice("E", 8) for _ in range(3)])
        count = 3 * len(component_system("E", 8).roots)
        model = NiemeierModel(
            kind, comp, 3, r, r, None, (), tuple(permutations(range(3))), count
        )
    elif kind == "E6^4":
        comp = ("E", 6)
        r = direct_sum(*[root_lattice("E", 6) for _ in range(4)])
        gen = dual_generator("E", 6)
        zero = tuple(Fraction(0) for _ in range(6))

        def glue_vector(word: Tuple[int, ...]) -> Tuple[Fraction, ...]:
            parts = []
            for c in word:
                if c == 0:
                    parts.extend(zero)
                else:
                    parts.extend(x * c for x in gen)
            return tuple(parts)

        min_nontrivial = dual_class_min("E", 6)
        chosen = None
        for span in _subspaces_f3_4():
            # pick two independent generators from the span list
            g1 = span[0]
            g2 = next(
                w
                for w in span
                if w != g1 and w != tuple((2 * x) % 3 for x in g1)
            )
            try:
                over = glue_overlattice(r, [glue_vector(g1), glue_vector(g2)])
            except LatticeError:
                continue
            if over.index != 9 or not over.lattice.is_unimodular or not over.lattice.is_even:
                continue
            # no new roots: each nonzero coset has minimal norm > 2
            ok = True
            for w in span:
                weight = sum(1 for c in w if c)
                if weight * min_nontrivial <= 2:
                    ok = False
                    break
            if not ok:
                continue
            chosen = (span, over)
            break
        if chosen is None:
            raise CuspError("no valid glue found for E6^4")
        span, over = chosen
        # the defining property of the glue: one zero coordinate per word
        for w in span:
            if sum(1 for c in w if c == 0) != 1:
                raise CuspError("glue word without exactly one zero coordinate")
        count = 4 * len(component_system("E", 6).roots)
        model = NiemeierModel(
            kind,
            comp,
            4,
            r,
            over.lattice,
            over,
            tuple(span),
            _code_perm_group(frozenset(span), 4),
            count,
        )
    else:
        raise CuspError(f"unknown model kind {kind!r}")
    return model


# -- embeddings of P ----------------------------------------------------


@dataclass(frozen=True)
class EmbeddingRecord:
    model_kind: str
    assignment: Tuple[Tuple[Symbol, ...], ...]  # factor multiset per component
    outcomes: Tuple[ComponentOutcome, ...]
    total_complement: RootSystemType
    starred: bool
    sat_index: int
    glue_intersection: int  # order of code ∩ image of the dual complement

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
            if model.glue_code:
                full_positions = [
                    i for i, oc in enumerate(outcome_tuple) if oc.dual_image_order == 3
                ]
                for oc in outcome_tuple:
                    if oc.dual_image_order not in (1, 3):
                        raise CuspError("unexpected dual image order")
                inter = sum(
                    1
                    for w in model.glue_code
                    if all(w[i] == 0 for i in range(model.ncomp) if i not in full_positions)
                )
                glue_intersection = inter + 1  # include the zero word
            else:
                glue_intersection = 1
            sat_index = glue_intersection * rootspan_prod
            if sat_index not in (1, 3):
                raise CuspError(f"saturation index {sat_index} outside {{1,3}}")
            starred = sat_index == 3
            records.append(
                EmbeddingRecord(
                    model.kind,
                    assignment,
                    outcome_tuple,
                    total.with_star(starred),
                    starred,
                    sat_index,
                    glue_intersection,
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
    m = IntMatrix(rows, cols=rank_r)
    return m if model.overlattice is None else m * model.overlattice.old_in_new


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
    starred = idx == 3
    if starred != record.starred or idx != record.sat_index:
        raise CuspError("glue bookkeeping disagrees with the concrete saturation")
    return starred


def cusp_quotient_lattice(record: EmbeddingRecord, model: NiemeierModel) -> Lattice:
    """The saturated orthogonal complement of the embedded P inside N,
    which realizes the quotient lattice of the corresponding cusp."""
    return _p_complement(record, model).lattice()


@dataclass(frozen=True)
class CuspRecord:
    family: FamilyId
    jperp_root: RootSystemType  # star flag included
    witnesses: Tuple[EmbeddingRecord, ...]


@cache
def classify_cusps(n: int, k: int) -> Tuple[CuspRecord, ...]:
    """All 1-cusp quotient types of the family, from both unimodular models."""
    fam = family_data(n, k)
    by_type: Dict[str, List[EmbeddingRecord]] = {}
    for kind in ("E8^3", "E6^4"):
        model = build_niemeier(kind)
        for rec in enumerate_embeddings(fam.p_factors, model):
            star_of(rec, model)  # concrete verification of the star flag
            by_type.setdefault(str(rec.total_complement), []).append(rec)
    return tuple(
        CuspRecord(fam.family, by_type[key][0].total_complement, tuple(by_type[key]))
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
    from .exactla import rank as _rank

    if _rank(rows) != 2:
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
    q, _ = quotient_by_isotropic(j)
    rtype, _ = root_system(q)
    idx = root_span_index(q)
    if idx not in (1, 3):
        raise CuspError(f"root-span index {idx} outside {{1,3}}")
    return rtype.with_star(idx == 3)

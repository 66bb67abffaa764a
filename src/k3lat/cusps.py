"""Isotropic-plane (1-cusp) classification for the four maximal families.

The quotient J-perp/J of an isotropic plane inside one of the period
lattices T is computed two ways:

* directly, by saturating a plane spanned by a vector and its image
  under the order-3 action and taking the induced form on J-perp/J,
  with the action it induces there (``cusp_of_plane``);
* combinatorially, by embedding the complementary definite lattice P
  into the root systems of the two relevant rank-24 even unimodular
  lattices, E8^3 and E6^4, and reading off orthogonal complements of
  root subsystems.

Both unimodular lattices come from one builder, ``build_niemeier``, which
reads them from the data table ``NIEMEIER_GLUE``: a component, its number
of copies and the generators of the glue code.  The glue codes are input
data from Conway-Sloane, SPLAG Table 16.1: E8^3 needs none, and E6^4 is
glued by the tetracode over its Z/3 classes (``roots.glue_root_sum``).

The embedding search walks simple roots of the factors of P through the
component's root system, requiring the Cartan pairings at every step.
Candidates at each level are reduced to orbit representatives under the
Weyl group W' of the roots orthogonal to everything chosen so far.  W'
fixes the chosen roots, so it keeps every pairing requirement: the
candidates form a W'-stable set, and the complements reached from one
orbit are isometric.  Simple reflections generate W', so the search
applies only those, found by one scan of the positive roots, and finds
each reflected root by its packed integer key (``roots.packed_keys``).
The searches of different factor multisets meet the same (candidates,
reflections) masks, so each orbit set is computed once.  The scan also
types each complement (``roots.diagram_type``).  The
factors of P are distributed over the components by one product over
placements, taken up to every permutation of the components: in both
models each one extends to an isometry of N (the group G2 of SPLAG
Table 16.1 is S3 for E8^3 and S4 for E6^4), so a placement class is the
assignment with its per-component blocks sorted.

A cusp is starred when J-perp/J is an index-3 overlattice of its root
span.  ``star_of`` decides it once per embedding record by the rule
index^2 = det C / |det| of ``roots.span_index``: the glue adds no roots,
so the complement of P in N has the component complements as its roots.
The dual quotient orders of the components are tabulated data only.

When the glue code is empty (E8^3), N = R, and the complement of P is the
sum of the component complements that the search computed: its basis is
the block sum of their Hermite bases and its Gram matrix the sum of their
Gram matrices.  In a glued model (E6^4) it is the kernel of the embedded
P rows times the Gram matrix of N.

Each verified object is built once per process (``functools.cache``):
``family_data`` and ``classify_cusps`` per family, ``component_system``
per component, ``_embed_sorted`` per factor multiset, ``build_niemeier``
per kind, ``enumerate_embeddings`` per factor tuple and kind,
``ComponentSystem.orbit_reps`` per component system and mask pair, and
the saturated complement ``_p_complement`` per embedding record.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, combinations_with_replacement, groupby, product
from struct import Struct
from typing import Dict, List, Sequence, Tuple

from . import goldens
from .exactla import (
    IntMatrix,
    block_diagonal,
    index_in,
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
    hyperbolic,
    quotient_by_isotropic,
    rescale,
    root_lattice,
)
from .roots import (
    EMPTY_TYPE,
    RootSystemType,
    diagram_type,
    enumerate_norm,
    glue_root_sum,
    layers,
    packed_keys,
    root_span_index,
    root_system,
    span_index,
)
from .eisenstein import (
    RhoLattice,
    assemble,
    fixed_sublattice,
    is_estar,
    is_invariant,
    negative_fpf_order3,
    rho3_u_u,
    rho3_u_u3,
)

Symbol = Tuple[str, int]
Vector = Tuple[int, ...]


class CuspError(LatticeError):
    pass


# -- families ----------------------------------------------------------
# The family summands are the input table ``goldens.LATTICE_TABLE``.


@dataclass(frozen=True)
class FamilyData:
    s: Lattice
    p: Lattice
    p_factors: Tuple[Symbol, ...]
    rho_t: RhoLattice

    @property
    def t(self) -> Lattice:
        return self.rho_t.lattice


def _sum_from_symbols(symbols) -> Lattice:
    parts = []
    for sym, n in symbols:
        if sym == "U":
            parts.append(hyperbolic(n))
        else:
            parts.append(rescale(root_lattice(sym, n), -1))
    return direct_sum(*parts)


# the order-3 action on the hyperbolic block of T, by its two U summands
_U_BLOCKS = {(("U", 1), ("U", 1)): rho3_u_u, (("U", 1), ("U", 3)): rho3_u_u3}


@cache
def family_data(n: int, k: int) -> FamilyData:
    """S, P, and T as the lattice of the period action, assembled from an
    order-3 action on the hyperbolic block and ``negative_fpf_order3`` per
    root summand.  No fixed vector and a trivial discriminant action split
    over the sum, and ``fpf_order3`` proved both for each root block."""
    if (n, k) not in goldens.LATTICE_TABLE:
        raise CuspError(f"unknown family ({n},{k})")
    row = goldens.LATTICE_TABLE[(n, k)]
    if row["T"][:2] not in _U_BLOCKS:
        raise CuspError(f"no order-3 action on the hyperbolic block {row['T'][:2]}")
    u_block = _U_BLOCKS[row["T"][:2]]()
    if fixed_sublattice(u_block).rank != 0:
        raise CuspError("period action has fixed vectors")
    if not is_estar(u_block):
        raise CuspError("period action is not trivial on the discriminant group")
    rho_t = assemble([u_block] + [negative_fpf_order3(*f) for f in row["T"][2:]])
    return FamilyData(_sum_from_symbols(row["S"]), _sum_from_symbols(row["P"]), row["P"], rho_t)


# -- root-system machinery per component -------------------------------


class ComponentSystem:
    """Precomputed root data for one irreducible component (E6 or E8)."""

    def __init__(self, sym: str, n: int):
        self.symbol: Symbol = (sym, n)
        self.lattice = root_lattice(sym, n)
        self.roots: List[Tuple[int, ...]] = enumerate_norm(self.lattice, 2)
        self.nroots = len(self.roots)
        # packed keys are injective on the roots and linear, so a reflected
        # root s_i(r_j) = r_j - c r_i is the root of key key_j - c key_i
        self.keys = packed_keys(self.roots)
        self.index = {key: i for i, key in enumerate(self.keys)}
        r = IntMatrix._of(tuple(self.roots), n)
        self.pair = (r * self.lattice.gram * r.transpose()).entries
        # masks[i][v+1] = bitmask of roots pairing v = -1, 0, 1 with root i:
        # the row reversed as signed bytes, byte v made "1" and the rest "0"
        pack = Struct(f"{self.nroots}b").pack
        self.masks = [
            [int(row.translate(t), 2) for t in _DIGIT_TABLES]
            for row in (pack(*p[::-1]) for p in self.pair)
        ]
        # the roots come sorted and closed under negation, so their keys
        # ascend and the negative keys come first: one root per +- pair,
        # first index wins, and the positive system of the functional -key
        self.pos_reps = [i for i, key in enumerate(self.keys) if key < 0]
        self.all_mask = (1 << self.nroots) - 1

    def simple_roots(self, refl_mask: int) -> List[int]:
        """Simple roots of the root subsystem in ``refl_mask`` for the
        positive system of the functional -key, scanned by ascending -key.

        A positive root beta that is not simple pairs +1 with a simple
        root alpha of positive coefficient in it (the pairings sum to 2),
        and beta - alpha is then positive, so alpha came first; simple
        roots pair <= 0.  So a root is simple exactly when it pairs +1
        with no simple root found before it."""
        simple = []
        found = 0
        for i in reversed(self.pos_reps):
            if refl_mask >> i & 1 and not self.masks[i][2] & found:
                simple.append(i)
                found |= 1 << i
        return simple

    @cache
    def orbit_reps(self, cand_mask: int, refl_mask: int) -> Tuple[int, ...]:
        """One representative, the first index, per orbit of the candidates
        under the Weyl group W' of the roots in ``refl_mask``, which must
        form a root subsystem with the candidates a W'-stable set (see the
        module docstring).  W' is generated by its simple reflections
        (Humphreys, *Reflection Groups*, 1.5), so an orbit is the closure
        of its first candidate under them."""
        cands = _bits(cand_mask)
        keys, index, pair = self.keys, self.index, self.pair
        gens = [(s, keys[s]) for s in self.simple_roots(refl_mask)]
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
                row, kx = pair[x], keys[x]
                for s, ks in gens:
                    v = row[s]
                    if v:
                        y = index[kx - v * ks]
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
        return tuple(reps)


# translate tables of ComponentSystem.masks, for the signed bytes v = -1,
# 0, 1: the byte v -> "1", every other byte -> "0"
_DIGIT_TABLES = [bytes(48 + (b == (v & 255)) for b in range(256)) for v in (-1, 0, 1)]


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


def _factor_requirements(sym: str, n: int) -> List[List[int]]:
    """Pairing requirements of each simple root against the earlier ones,
    in a connectivity-friendly choice order: breadth first through the
    Dynkin diagram from node 1, neighbours in index order (``roots.layers``)."""
    c = cartan_gram(sym, n).entries
    order = list(layers(c, 0))
    return [[c[idx][order[j]] for j in range(k)] for k, idx in enumerate(order)]


@dataclass(frozen=True)
class ComponentOutcome:
    """Distinct result of embedding a factor multiset into one component."""

    complement_type: RootSystemType
    dual_image_order: int  # [P-perp taken in the dual : P-perp in the component]
    witness: Tuple[Tuple[int, ...], ...]  # root indices per factor
    complement: IntMatrix  # Hermite basis of P-perp in the component


def _outcome_from_leaf(cs: ComponentSystem, flat: List[int], sizes: List[int]) -> ComponentOutcome:
    comp_mask = cs.all_mask
    for i in flat:
        comp_mask &= cs.masks[i][0 + 1]
    simple_idx = cs.simple_roots(comp_mask)
    ctype = diagram_type([[cs.pair[i][j] for j in simple_idx] for i in simple_idx])
    rows = IntMatrix._of(tuple(cs.roots[i] for i in flat), cs.lattice.rank)
    comp_basis = kernel_basis(rows * cs.lattice.gram)  # complement in the lattice
    if ctype.rank != comp_basis.rows:
        raise CuspError("complement is not rationally spanned by its roots")
    # y with y . rows^T = 0 are the dual-side complement x = y G^-1, and
    # comp = C * (dual_side * G^-1) exactly when comp * G = C * dual_side
    dual_order = index_in(comp_basis * cs.lattice.gram, kernel_basis(rows))
    witness = tuple(tuple(flat[end - s : end]) for s, end in zip(sizes, accumulate(sizes)))
    return ComponentOutcome(ctype, dual_order, witness, comp_basis)


def embed_multiset(comp: Symbol, factors: Sequence[Symbol]) -> Tuple[ComponentOutcome, ...]:
    """All distinct ways to embed a multiset of ADE factors orthogonally
    into one component, up to the data that determines the quotients."""
    return _embed_sorted(comp, tuple(sorted(factors, key=RootSystemType.sort_key)))


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
            dkey = (str(out.complement_type), out.dual_image_order)
            outcomes.setdefault(dkey, out)
            if full_rank:
                found_full[0] = True
            return
        mask = cs.all_mask
        for j, val in enumerate(reqs[depth]):
            mask &= cs.masks[chosen[j]][val + 1]
        for rep in cs.orbit_reps(mask, orth_mask):
            if full_rank and found_full[0]:
                # complement is empty either way; one witness suffices
                return
            chosen.append(rep)
            search(depth + 1, chosen, orth_mask & cs.masks[rep][1])
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


@dataclass(frozen=True)
class NiemeierModel:
    comp: Symbol
    ncomp: int
    r: Lattice
    overlattice: Overlattice  # its lattice is the unimodular model N


@cache
def build_niemeier(kind: str) -> NiemeierModel:
    """The rank-24 even unimodular lattice ``kind`` of ``NIEMEIER_GLUE``:
    the direct sum of the copies of its component, glued by its code.
    The tests check the table: index^2 = |det R|, one zero per word."""
    if kind not in NIEMEIER_GLUE:
        raise CuspError(f"unknown model kind {kind!r}")
    comp, ncomp, gens = NIEMEIER_GLUE[kind]
    r = direct_sum(*[root_lattice(*comp)] * ncomp)
    return NiemeierModel(comp, ncomp, r, glue_root_sum(r, [comp] * ncomp, gens))


# -- embeddings of P ----------------------------------------------------


@dataclass(frozen=True)
class EmbeddingRecord:
    model_kind: str
    assignment: Tuple[Tuple[Symbol, ...], ...]  # factor multiset per component
    outcomes: Tuple[ComponentOutcome, ...]

    @property
    def total_complement(self) -> RootSystemType:
        """The sum of the component complements, unstarred: the root type
        of the saturated complement of P in N, whose determinant gives the
        star (``star_of``); the dual quotient orders of ``rows`` are
        tabulated data, compared in the expl rows."""
        return sum((oc.complement_type for oc in self.outcomes), EMPTY_TYPE)

    def rows(self) -> List[Tuple[str, str, int]]:
        """Per-component rows (assigned factors, complement type, dual order)."""
        out = []
        for fs, oc in zip(self.assignment, self.outcomes):
            fstr = str(RootSystemType.of(fs)) if fs else "0"
            out.append((fstr, str(oc.complement_type), oc.dual_image_order))
        return out


def _placement_classes(fs: Sequence[Symbol], ncomp: int) -> List[Tuple[Tuple[Symbol, ...], ...]]:
    """The placements of the sorted factors ``fs`` on the components up to
    every permutation of the components, ascending: each class by its least
    assignment, the one with its per-component blocks sorted.  A run of k
    equal factors splits over the components as a multiset of k of them,
    each split once; a block is its runs' parts in order."""
    splits = [
        [tuple((f,) * cs.count(c) for c in range(ncomp)) for cs in combinations_with_replacement(range(ncomp), k)]
        for f, k in ((f, len(list(run))) for f, run in groupby(fs))
    ]
    # the empty first part keeps ncomp blocks when there are no factors
    return sorted(
        {
            tuple(sorted(tuple(chain.from_iterable(parts)) for parts in zip(((),) * ncomp, *split)))
            for split in product(*splits)
        }
    )


@cache
def enumerate_embeddings(p_factors: Tuple[Symbol, ...], kind: str) -> Tuple[EmbeddingRecord, ...]:
    """Embeddings of the direct sum of the given ADE factors into the model
    ``build_niemeier(kind)``, one record per inequivalent assignment and
    complement configuration."""
    model = build_niemeier(kind)
    # the product over the (few) outcomes of each component is empty when
    # some component takes no embedding
    records = [
        EmbeddingRecord(kind, assignment, outcomes)
        for assignment in _placement_classes(sorted(p_factors, key=RootSystemType.sort_key), model.ncomp)
        for outcomes in product(*[embed_multiset(model.comp, fs) for fs in assignment])
    ]
    return tuple(sorted(records, key=lambda r: (str(r.total_complement), r.assignment)))


def embedded_p_rows(record: EmbeddingRecord) -> IntMatrix:
    """The embedded copy of P as rows in N coordinates: each component's
    witness roots at its offset in R, mapped into N by the glue transform."""
    model = build_niemeier(record.model_kind)
    roots = component_system(*model.comp).roots
    blocks = [IntMatrix._of(tuple(roots[i] for w in oc.witness for i in w), model.comp[1]) for oc in record.outcomes]
    return block_diagonal(*blocks) * model.overlattice.old_in_new


def _unglued(kind: str) -> bool:
    """Whether the model ``kind`` has an empty glue code: then N = R, the
    orthogonal sum of its components, and ``old_in_new`` is the identity."""
    return not NIEMEIER_GLUE[kind][2]


@cache
def _p_complement(record: EmbeddingRecord) -> Sublattice:
    """The orthogonal complement of the embedded P inside N, saturated by
    construction, of rank 24 - rank P as N is nondegenerate: more than
    24 - rows exactly for dependent rows.  In an unglued model it is the
    sum of the component complements of the search, each of rank k - rows
    in its component of rank k; in a glued one, the kernel of
    ``rows * G_N``."""
    model = build_niemeier(record.model_kind)
    n = model.overlattice.lattice
    if _unglued(record.model_kind):
        k = model.comp[1]
        if any(oc.complement.rows != k - sum(map(len, oc.witness)) for oc in record.outcomes):
            raise CuspError("embedded P rows are dependent")
        # a sum of Hermite bases on disjoint columns is the Hermite basis
        return Sublattice(n, block_diagonal(*(oc.complement for oc in record.outcomes)))
    rows = embedded_p_rows(record)
    perp = kernel_basis(rows * n.gram)
    if perp.rows != n.rank - rows.rows:
        raise CuspError("embedded P rows are dependent")
    return Sublattice(n, perp)


def cusp_quotient_lattice(record: EmbeddingRecord) -> Lattice:
    """The saturated orthogonal complement of the embedded P inside N,
    which realizes the quotient lattice of the corresponding cusp.  In an
    unglued model its Gram matrix is the sum of the component
    complements' Gram matrices, which the value cache of sublattice Gram
    matrices holds per component complement."""
    perp = _p_complement(record)  # with its rank check, on both routes
    if _unglued(record.model_kind):
        comp = component_system(*build_niemeier(record.model_kind).comp).lattice
        return direct_sum(*(Sublattice(comp, oc.complement).lattice() for oc in record.outcomes))
    return perp.lattice()


def star_of(record: EmbeddingRecord) -> bool:
    """Whether the record's cusp is starred: the ``span_index`` of the
    complement of P in N, which is 1 or 3 (``CuspError`` otherwise), is 3."""
    return _is_star_index(span_index(record.total_complement, cusp_quotient_lattice(record).det()))


def _is_star_index(idx: int) -> bool:
    """Whether a root-span index marks a star: 3 does, 1 does not, and
    any other raises."""
    if idx not in (1, 3):
        raise CuspError(f"root-span index {idx} outside {{1,3}}")
    return idx == 3


@dataclass(frozen=True)
class CuspRecord:
    jperp_root: RootSystemType  # star flag included
    witnesses: Tuple[EmbeddingRecord, ...]


@cache
def classify_cusps(n: int, k: int) -> Tuple[CuspRecord, ...]:
    """All 1-cusp quotient types of the family, from both unimodular models."""
    fam = family_data(n, k)
    by_type: Dict[RootSystemType, List[EmbeddingRecord]] = {}
    for kind in NIEMEIER_GLUE:
        for rec in enumerate_embeddings(fam.p_factors, kind):
            by_type.setdefault(rec.total_complement.with_star(star_of(rec)), []).append(rec)
    return tuple(CuspRecord(t, tuple(by_type[t])) for t in sorted(by_type, key=str))


# -- direct route: isotropic planes -------------------------------------


def isotropic_plane(r: RhoLattice, e: Sequence[int]) -> Sublattice:
    """The saturated invariant isotropic plane spanned by e and its image."""
    t = r.lattice
    if all(x == 0 for x in e):
        raise CuspError("zero vector spans no plane")
    if t.norm(e) != 0:
        raise CuspError("vector is not isotropic")
    re = r.apply(e)
    rows = IntMatrix([list(e), list(re)], cols=t.rank)
    if rank(rows) != 2:
        raise CuspError("vector and its image are dependent")
    j = Sublattice(t, saturate(rows))
    if not j.is_isotropic():
        raise CuspError("span of the orbit is not isotropic")
    if not is_invariant(j.basis, r.matrix):
        raise CuspError("plane is not invariant")
    return j


def root_type_with_star(l: Lattice) -> RootSystemType:
    """Root type of a definite lattice that its roots span rationally,
    starred when the root span has index 3 in it; any index but 1 or 3
    raises."""
    rtype, _ = root_system(l)
    return rtype.with_star(_is_star_index(root_span_index(l)))


def cusp_of_plane(r: RhoLattice, j: Sublattice) -> Tuple[RootSystemType, RhoLattice]:
    """Root type (with star flag) of the quotient J-perp/J for a plane J
    that ``r`` keeps, and the action ``r`` induces on it: the lifts of the
    quotient basis, moved by ``r``, stay in J-perp, and their quotient
    coordinates are the rows of the induced matrix."""
    q = quotient_by_isotropic(j)
    rho_q = RhoLattice(q.lattice, q.coords(q.lift * r.matrix))
    return root_type_with_star(q.lattice), rho_q

import dataclasses
from functools import cache
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import cusps, goldens
from k3lat.cusps import (
    NIEMEIER_GLUE,
    ComponentOutcome,
    ComponentSystem,
    CuspError,
    EmbeddingRecord,
    _factor_requirements,
    _placement_classes,
    _sum_from_symbols,
    _p_complement,
    build_niemeier,
    classify_cusps,
    component_system,
    cusp_of_plane,
    cusp_quotient_lattice,
    embed_multiset,
    embedded_p_rows,
    enumerate_embeddings,
    family_data,
    isotropic_plane,
    root_type_with_star,
    star_of,
)
from k3lat.eisenstein import RhoLattice, assemble, fixed_sublattice, is_estar, rho4_a1a1, rho4_d4, rho4_u_u2
from k3lat.exactla import IntMatrix, det, hermite_basis, index_in, int_express, rank
from k3lat.lattice import (
    LatticeError,
    Sublattice,
    cartan_gram,
    diag_lattice,
    direct_sum,
    disc_group,
    hyperbolic,
    is_p_elementary,
    quotient_by_isotropic,
    signature,
)
from k3lat.roots import EMPTY_TYPE, EnumerationError, RootSystemType, diagram_type, glue_root_sum, root_span_index, span_index
from k3lat.suites import suite_tab3

from support import (
    all_complement_root_span,
    clear_table_caches,
    code_perm_group,
    complement_root_indices,
    component_rootspan_index,
    glue_code,
    glue_code_sat_index,
    group_min_placement_classes,
    hermite_span,
    misread_e6_cartan_det,
    pairwise_root_type,
    product_placement_classes,
    reference_embedded_p_rows,
    reference_factor_requirements,
    reference_p_complement,
    reflection_orbit_reps,
    run_fresh,
    span_in_n,
    watch_exactla,
)

T = RootSystemType.parse


def all_records():
    """Every embedding record of the four families in both models."""
    for fam in goldens.FAMILIES:
        for kind in ("E8^3", "E6^4"):
            yield from enumerate_embeddings(family_data(*fam).p_factors, kind)


def test_family_id_validation():
    with pytest.raises(CuspError, match=r"unknown family \(3,3\)"):
        family_data(3, 3)
    with pytest.raises(CuspError, match=r"unknown family \(3,3\)"):
        classify_cusps(3, 3)


@pytest.mark.parametrize(
    "n,k,trank,prank",
    [((0), 2, 20, 8), (0, 1, 20, 8), (1, 1, 18, 10), (2, 1, 16, 12)],
)
def test_family_data_shapes(n, k, trank, prank):
    fd = family_data(n, k)
    assert fd.t.rank == trank
    assert fd.p.rank == prank
    assert fd.t.rank + fd.p.rank == 28
    assert signature(fd.t) == (2, trank - 2)
    assert signature(fd.p) == (0, prank)
    assert abs(fd.t.det()) == abs(fd.p.det())
    assert is_p_elementary(fd.t, 3)


def test_family_21_t_rank_16():
    fd = family_data(2, 1)
    assert fd.t.rank == 16


@pytest.mark.parametrize("fam", goldens.FAMILIES)
def test_period_action_is_fixed_point_free_and_trivial_on_the_discriminant(fam):
    # family_data checks both on the hyperbolic block only; on the whole
    # of T they follow from the root blocks, which fpf_order3 verified
    fd = family_data(*fam)
    assert fd.t == _sum_from_symbols(goldens.LATTICE_TABLE[fam]["T"])
    assert fixed_sublattice(fd.rho_t).rank == 0
    assert is_estar(fd.rho_t)


def test_family_data_rejects_a_hyperbolic_block_without_an_action(monkeypatch):
    row = dict(goldens.LATTICE_TABLE[(0, 1)], T=(("U", 3), ("U", 1), ("E", 8), ("E", 8)))
    monkeypatch.setitem(goldens.LATTICE_TABLE, (9, 9), row)
    with pytest.raises(CuspError, match="no order-3 action on the hyperbolic block"):
        family_data(9, 9)


@pytest.mark.parametrize("fam", goldens.FAMILIES)
def test_family_label_and_genus_follow_from_s(fam):
    # rank S = 22 - 2m for m pinch points, n = 10 - m, and the fixed curve
    # has genus g = (m - a)/2 with a the 3-rank of the discriminant of S
    s = family_data(*fam).s
    m, odd = divmod(22 - s.rank, 2)
    a = disc_group(s).a(3)
    assert odd == 0 and (m - a) % 2 == 0
    assert (10 - m, (m - a) // 2) == (fam[0], goldens.GENUS[fam])


def test_component_weyl_transitivity():
    # the orbit of the first root under all reflections is everything;
    # this underwrites fixing the first root of the embedding search.
    # The reflections in the roots orthogonal to it leave five orbits:
    # r, -r, the two classes pairing +-1 with r, and r-perp
    for sym, n in [("E", 6), ("E", 8)]:
        cs = component_system(sym, n)
        assert len(cs.orbit_reps(cs.all_mask, cs.all_mask)) == 1
        reps = cs.orbit_reps(cs.all_mask, cs.masks[0][1])
        assert sorted(cs.pair[0][i] for i in reps) == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize(
    "sym,n",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 10)] + [("E", n) for n in (6, 7, 8)],
)
def test_factor_choice_order_is_breadth_first_from_node_1(sym, n):
    # Bourbaki numbering: A_n and D_n in index order; E_n branches at 4
    order = [1, 3, 4, 2, *range(5, n + 1)] if sym == "E" else list(range(1, n + 1))
    c = cartan_gram(sym, n).entries
    expected = [[c[i - 1][order[j] - 1] for j in range(k)] for k, i in enumerate(order)]
    assert _factor_requirements(sym, n) == expected


# every ADE symbol up to rank 30, and four that name no root system
FACTOR_SYMBOLS = (
    [("A", n) for n in range(1, 31)]
    + [("D", n) for n in range(4, 31)]
    + [("E", n) for n in (6, 7, 8)]
    + [("A", 0), ("D", 3), ("E", 9), ("B", 2)]
)


def requirements_or_error(f, sym, n):
    try:
        return f(sym, n)
    except LatticeError as e:
        return type(e), str(e)


@given(st.sampled_from(FACTOR_SYMBOLS))
def test_factor_requirements_match_the_list_extending_walk(symbol):
    found = requirements_or_error(_factor_requirements, *symbol)
    assert found == requirements_or_error(reference_factor_requirements, *symbol)


def test_factor_requirements_of_the_search_factors_are_pinned():
    e8 = [[], [-1], [0, -1], [0, 0, -1], [0, 0, -1, 0], [0, 0, 0, 0, -1], [0] * 5 + [-1], [0] * 6 + [-1]]
    assert _factor_requirements("E", 8) == e8
    assert _factor_requirements("E", 6) == e8[:6]
    assert _factor_requirements("A", 2) == [[], [-1]]


def check_component_tables(cs):
    """Pairings by ``Lattice.pair``, the masks they induce and the +- pair
    representatives."""
    lat, roots = cs.lattice, cs.roots
    index = {v: i for i, v in enumerate(roots)}
    assert len(index) == cs.nroots == len(roots)
    pair = [[0] * len(roots) for _ in roots]
    for i, ri in enumerate(roots):
        for j in range(i + 1):
            pair[i][j] = pair[j][i] = lat.pair(ri, roots[j])
    for i, row in enumerate(pair):
        assert list(cs.pair[i]) == row
        masks = [sum(1 << j for j, c in enumerate(row) if c == v) for v in (-1, 0, 1)]
        assert cs.masks[i] == masks
    assert cs.pos_reps == [i for i, v in enumerate(roots) if index[tuple(-x for x in v)] > i]


@pytest.mark.parametrize("n,nroots", [(6, 72), (8, 240)])
def test_component_tables_match_brute_force(n, nroots):
    cs = component_system("E", n)
    assert cs.nroots == nroots
    check_component_tables(cs)


def subsystem_masks(cs, chosen, allowed):
    """The roots orthogonal to every chosen root, and the roots whose
    pairing with each chosen root lies in its allowed set, by
    ``Lattice.pair`` on root tuples."""
    roots, lat = cs.roots, cs.lattice
    pairings = [[lat.pair(r, roots[c]) for c in chosen] for r in roots]
    refl = sum(1 << j for j, p in enumerate(pairings) if not any(p))
    cand = sum(
        1 << j for j, p in enumerate(pairings) if all(v in a for v, a in zip(p, allowed))
    )
    return refl, cand


@st.composite
def orbit_inputs(draw):
    """A component, up to three chosen roots and, for each, a set of
    allowed pairings that cuts out the candidates."""
    cs = component_system("E", draw(st.sampled_from([6, 8])))
    chosen = draw(st.lists(st.integers(0, cs.nroots - 1), max_size=3))
    allowed = [draw(st.sets(st.integers(-2, 2), min_size=1)) for _ in chosen]
    return cs, chosen, allowed


def check_simple_roots(cs, refl):
    """The simple roots of the subsystem in ``refl``: as many as its rank,
    pairing <= 0 with each other, writing each of its roots with
    coefficients of one sign, and with the Dynkin diagram of its type."""
    simple = cs.simple_roots(refl)
    phi = [cs.roots[i] for i in range(cs.nroots) if refl >> i & 1]
    n = cs.lattice.rank
    assert all(refl >> s & 1 for s in simple)
    assert len(simple) == (rank(IntMatrix(phi, cols=n)) if phi else 0)
    assert all(cs.pair[s][t] <= 0 for s in simple for t in simple if s != t)
    if phi:
        basis = IntMatrix([cs.roots[s] for s in simple], cols=n)
        coeffs = int_express(IntMatrix(phi, cols=n), basis)
        assert all(min(row) >= 0 or max(row) <= 0 for row in coeffs.entries)
    cartan = [[cs.pair[s][t] for t in simple] for s in simple]
    assert diagram_type(cartan) == pairwise_root_type(phi, cs.lattice.gram)


def check_orbit_reps(cs, cases):
    """``orbit_reps`` against the all-reflection orbits, and the simple
    roots it generates by, on (chosen roots, allowed pairings) cases."""
    for chosen, allowed in cases:
        refl, cand = subsystem_masks(cs, chosen, allowed)
        check_simple_roots(cs, refl)
        assert cs.orbit_reps(cand, refl) == tuple(reflection_orbit_reps(cs, cand, refl))


@given(orbit_inputs())
def test_orbit_reps_match_all_reflection_orbits(inputs):
    cs, chosen, allowed = inputs
    refl, cand = subsystem_masks(cs, chosen, allowed)
    assert cs.orbit_reps(cand, refl) == tuple(reflection_orbit_reps(cs, cand, refl))


def test_a_cold_tab4_computes_each_orbit_set_once():
    # every call of the tab4 searches against the uncached body; 54 calls
    # meet 26 distinct (component, candidates, reflections) masks
    out = run_fresh(
        "from k3lat import cusps, suites\n"
        "cached = cusps.ComponentSystem.orbit_reps\n"
        "same = []\n"
        "def checked(self, cand, refl):\n"
        "    got = cached(self, cand, refl)\n"
        "    same.append(got == cached.__wrapped__(self, cand, refl))\n"
        "    return got\n"
        "cusps.ComponentSystem.orbit_reps = checked\n"
        "assert all(r.passed for r in suites.run_suites('tab4'))\n"
        "info = cached.cache_info()\n"
        "print(len(same), all(same), info.misses, info.hits)\n"
    )
    assert out.split() == ["54", "True", "26", "28"]


@given(orbit_inputs())
def test_simple_roots_of_the_fixing_subsystem(inputs):
    cs, chosen, allowed = inputs
    check_simple_roots(cs, subsystem_masks(cs, chosen, allowed)[0])


class DroppedGenerator(ComponentSystem):
    def simple_roots(self, refl_mask):
        return super().simple_roots(refl_mask)[1:]


class FlippedSimpleTest(ComponentSystem):
    # a root is kept when it pairs -1, not +1, with no earlier kept root;
    # the kept roots still generate W', so only check_simple_roots fails
    def simple_roots(self, refl_mask):
        simple, found = [], 0
        for i in reversed(self.pos_reps):
            if refl_mask >> i & 1 and not self.masks[i][0] & found:
                simple.append(i)
                found |= 1 << i
        return simple


def test_component_table_check_rejects_mutants():
    cs = component_system("E", 6)
    fields = ("lattice", "roots", "nroots", "pair", "masks", "pos_reps")
    pair = [list(row) for row in cs.pair]
    pair[0][1] += 1
    mutant = SimpleNamespace(**{**{f: getattr(cs, f) for f in fields}, "pair": pair})
    with pytest.raises(AssertionError):
        check_component_tables(mutant)
    cases = [((), ())] + [((0,), ({v},)) for v in range(-2, 3)]
    check_orbit_reps(cs, cases)
    for kind in (DroppedGenerator, FlippedSimpleTest):
        mutant = object.__new__(kind)
        mutant.__dict__.update(cs.__dict__)
        with pytest.raises(AssertionError):
            check_orbit_reps(mutant, cases)


def planes_of_f3_4():
    """The planes of F_3^4 as spanned by every pair of independent vectors,
    each as its 8 nonzero vectors, sorted."""
    vectors = list(product(range(3), repeat=4))[1:]
    coeffs = list(product(range(3), repeat=2))
    spans = set()
    for v in vectors:
        for w in vectors:
            span = {tuple((s * x + t * y) % 3 for x, y in zip(v, w)) for s, t in coeffs}
            if len(span) == 9:
                spans.add(tuple(sorted(span - {(0, 0, 0, 0)})))
    return spans


def test_e6_glue_code_is_a_plane_of_weight_3_words():
    planes = planes_of_f3_4()
    assert len(planes) == 130
    code = glue_code("E6^4")
    assert code in planes
    assert all(sum(1 for c in w if c) == 3 for w in code)


@pytest.mark.parametrize(
    "gens,message",
    [
        (((0, 1, 1, 1), (1, 0, 0, 0)), "adds roots"),  # a word of weight 1
        (((1, 1, 0, 0), (0, 1, 1, 1)), "pair integrally"),  # weight 2: norm 8/3
    ],
)
def test_build_niemeier_rejects_a_mutated_glue_code(monkeypatch, gens, message):
    monkeypatch.setitem(NIEMEIER_GLUE, "E6^4", (("E", 6), 4, gens))
    clear_table_caches()
    try:
        with pytest.raises(LatticeError, match=message):
            build_niemeier("E6^4")
        with pytest.raises(LatticeError, match=message):
            enumerate_embeddings((("E", 6), ("A", 2)), "E6^4")
    finally:
        clear_table_caches()


def test_tab3_reports_a_swapped_p_row_as_fail(monkeypatch):
    table = goldens.LATTICE_TABLE
    a, b = table[(0, 2)], table[(2, 1)]
    monkeypatch.setitem(table, (0, 2), {**a, "P": b["P"]})
    monkeypatch.setitem(table, (2, 1), {**b, "P": a["P"]})
    clear_table_caches()
    try:
        failed = sorted(i.id for i in suite_tab3().items if i.status != "pass")
    finally:
        clear_table_caches()
    assert failed == [
        "(0,2)-disc-orders",
        "(0,2)-rank-sum",
        "(2,1)-disc-orders",
        "(2,1)-rank-sum",
    ]


@pytest.mark.parametrize(
    "comp,factors,expected,dual",
    [
        (("E", 8), [("A", 2)], "E6", 1),
        (("E", 8), [("E", 6)], "A2", 1),
        (("E", 8), [("E", 6), ("A", 2)], "0", 1),
        (("E", 8), [("A", 2), ("A", 2)], "A2^2", 1),
        (("E", 8), [("A", 2)] * 3, "A2", 1),
        (("E", 6), [("A", 2)], "A2^2", 3),
        (("E", 6), [("A", 2), ("A", 2)], "A2", 1),
        (("E", 6), [("A", 2)] * 3, "0", 1),
        (("E", 6), [("E", 6)], "0", 1),
    ],
)
def test_embed_multiset_outcomes(comp, factors, expected, dual):
    out = embed_multiset(comp, factors)
    assert len(out) == 1
    assert str(out[0].complement_type) == expected
    assert out[0].dual_image_order == dual
    assert component_rootspan_index(component_system(*comp), out[0]) == 1


def test_embed_rejects_oversized():
    assert embed_multiset(("E", 6), [("E", 8)]) == ()


def test_niemeier_e8_cubed():
    m = build_niemeier("E8^3")
    n = m.overlattice.lattice
    assert n.rank == 24
    assert abs(n.det()) == 1
    assert m.ncomp * len(component_system(*m.comp).roots) == 720


def test_niemeier_e6_fourth():
    m = build_niemeier("E6^4")
    n = m.overlattice.lattice
    assert n.rank == 24
    assert abs(n.det()) == 1
    assert n.is_even
    assert abs(det(m.overlattice.old_in_new)) == 9
    assert m.ncomp * len(component_system(*m.comp).roots) == 288


@pytest.mark.parametrize("kind", NIEMEIER_GLUE)
def test_glue_index_squared_is_the_discriminant_of_r(kind):
    # index^2 = |det R| is what makes N unimodular
    m = build_niemeier(kind)
    assert abs(det(m.overlattice.old_in_new)) ** 2 == abs(m.r.det())
    assert abs(m.overlattice.lattice.det()) == 1


def test_a_half_tetracode_fails_the_discriminant_test():
    # the tetracode's first generator alone glues at index 3, not 9
    m = build_niemeier("E6^4")
    half = glue_root_sum(m.r, [m.comp] * 4, [(0, 1, 1, 1)])
    assert abs(det(half.old_in_new)) ** 2 != abs(m.r.det())
    assert abs(half.lattice.det()) == 9


@pytest.mark.parametrize("kind,words", [("E8^3", 0), ("E6^4", 8)])
def test_every_glue_word_has_one_zero_coordinate(kind, words):
    code = glue_code(kind)
    assert len(code) == words
    assert all(w.count(0) == 1 for w in code)


@pytest.mark.parametrize(
    "word,error",
    [((1, 0, 0, 0), "adds roots"), ((1, 2, 0, 0), "do not pair integrally"), ((1, 1, 1, 1), "do not pair integrally")],
)
def test_glue_root_sum_rejects_e6_words_of_weight_1_2_and_4(word, error):
    # a word of weight w has norm 4w/3 mod 2: only weight 3 glues E6^4
    m = build_niemeier("E6^4")
    with pytest.raises(LatticeError, match=error):
        glue_root_sum(m.r, [m.comp] * 4, [word])


def _lifts_to_n(m, perm):
    """Whether the permutation ``perm`` of the components of the model
    ``m``, with one sign per component, maps its overlattice onto itself:
    the same Hermite basis."""
    k, scaled = m.comp[1], m.overlattice.scaled
    for signs in product((1, -1), repeat=m.ncomp):
        move = [[0] * m.r.rank for _ in range(m.r.rank)]
        for c, (p, s) in enumerate(zip(perm, signs)):
            for i in range(k):
                move[c * k + i][p * k + i] = s
        if hermite_basis((scaled * IntMatrix(move)).entries, m.r.rank) == scaled:
            return True
    return False


@pytest.mark.parametrize("kind", NIEMEIER_GLUE)
def test_every_component_permutation_lifts(kind):
    # the placement classes' premise: every permutation of the components
    # keeps the glue code up to signs, and so is an isometry of N
    ncomp = NIEMEIER_GLUE[kind][1]
    group = code_perm_group(glue_code(kind), ncomp)
    assert group == tuple(permutations(range(ncomp)))
    assert all(_lifts_to_n(build_niemeier(kind), p) for p in group)


def test_a_smaller_code_keeps_fewer_permutations(monkeypatch):
    # the tetracode's first generator alone is kept only by the
    # permutations that fix its zero coordinate, 6 of the 24, on the code
    # and on the overlattice it glues
    m = build_niemeier("E6^4")
    word = (0, 1, 1, 1)
    monkeypatch.setitem(NIEMEIER_GLUE, "E6^4", (("E", 6), 4, (word,)))
    assert len(code_perm_group(glue_code("E6^4"), 4)) == 6
    half = dataclasses.replace(m, overlattice=glue_root_sum(m.r, [m.comp] * 4, [word]))
    assert _lifts_to_n(half, (0, 2, 1, 3))
    assert not _lifts_to_n(half, (1, 0, 2, 3))


@pytest.mark.parametrize("kind", NIEMEIER_GLUE)
@pytest.mark.parametrize("fam", goldens.FAMILIES)
def test_placement_sweep_matches_the_group_minimum(fam, kind):
    fs = sorted(family_data(*fam).p_factors, key=RootSystemType.sort_key)
    classes = _placement_classes(fs, NIEMEIER_GLUE[kind][1])
    assert classes == group_min_placement_classes(fs, kind)
    assert classes == product_placement_classes(fs, NIEMEIER_GLUE[kind][1])


@pytest.mark.parametrize("ncomp", [3, 4])
@pytest.mark.parametrize("fs", [[("E", 6), ("E", 6), ("A", 2), ("A", 2), ("A", 2), ("A", 1)], []])
def test_placement_classes_of_repeated_factors_match_the_product_enumeration(fs, ncomp):
    assert _placement_classes(fs, ncomp) == product_placement_classes(fs, ncomp)


def test_embedding_counts_match_expectations():
    counts = {}
    for fam, p in [
        ((0, 2), (("E", 8),)),
        ((0, 1), (("E", 6), ("A", 2))),
        ((1, 1), (("E", 6), ("A", 2), ("A", 2))),
        ((2, 1), (("E", 6), ("A", 2), ("A", 2), ("A", 2))),
    ]:
        for kind in ("E8^3", "E6^4"):
            counts[(fam, kind)] = len(enumerate_embeddings(p, kind))
    assert counts[((0, 2), "E8^3")] == 1
    assert counts[((0, 2), "E6^4")] == 0
    assert counts[((0, 1), "E8^3")] == 2
    assert counts[((0, 1), "E6^4")] == 1
    assert counts[((1, 1), "E8^3")] == 3
    assert counts[((1, 1), "E6^4")] == 2
    assert counts[((2, 1), "E8^3")] == 4
    assert counts[((2, 1), "E6^4")] == 3


def test_star_of_concrete_agreement():
    recs = enumerate_embeddings((("E", 6), ("A", 2)), "E6^4")
    assert len(recs) == 1
    assert star_of(recs[0]) is True


def test_e8_model_never_starred():
    for p in [(("E", 8),), (("E", 6), ("A", 2), ("A", 2), ("A", 2))]:
        for rec in enumerate_embeddings(p, "E8^3"):
            assert star_of(rec) is False


def complement_simple_roots(rec):
    """Per component, the simple roots of its complement roots: those of
    ``ComponentSystem.simple_roots`` in the oracle's complement."""
    cs = component_system(*build_niemeier(rec.model_kind).comp)
    return [cs.simple_roots(sum(1 << i for i in complement_root_indices(cs, oc))) for oc in rec.outcomes]


def test_simple_root_span_equals_all_root_span():
    # the star index of the determinant rule against the index of the span
    # of every root of N orthogonal to P in the saturated complement; the
    # simple roots, whose Gram matrix is the Cartan matrix of the
    # complement type, span that same lattice
    records = list(all_records())
    assert len(records) == sum(map(len, goldens.EMBEDDING_TABLES.values())) == 16
    for rec in records:
        span = all_complement_root_span(rec)
        idx = index_in(span, _p_complement(rec).basis)
        assert span_index(rec.total_complement, cusp_quotient_lattice(rec).det()) == idx
        assert star_of(rec) == (idx == 3)
        assert span_in_n(rec, complement_simple_roots(rec)) == span


def test_all_root_span_rejects_a_missing_simple_root():
    rec = next(r for r in all_records() if r.outcomes[0].complement_type.rank)
    picks = complement_simple_roots(rec)
    picks[0] = picks[0][:-1]
    assert span_in_n(rec, picks) != all_complement_root_span(rec)


def test_star_of_agrees_with_the_glue_code_bookkeeping():
    # the concrete saturation index against the tetracode count over the
    # tabulated dual image orders, on the 16 records of the 8 tables
    records = list(all_records())
    assert len(records) == 16
    stars = [star_of(rec) for rec in records]
    assert stars == [glue_code_sat_index(rec) == 3 for rec in records]
    assert sum(stars) == 3


def test_star_of_rejects_a_saturation_index_outside_1_3(monkeypatch):
    # four times every Cartan determinant doubles every index: 2 or 6
    real = RootSystemType.cartan_det
    records = list(all_records())
    monkeypatch.setattr(RootSystemType, "cartan_det", lambda t: 4 * real(t))
    clear_table_caches()
    try:
        for rec in records:
            with pytest.raises(CuspError, match=r"outside \{1,3\}"):
                star_of(rec)
        with pytest.raises(CuspError, match=r"outside \{1,3\}"):
            classify_cusps(0, 1)
    finally:
        clear_table_caches()


def test_a_wrong_e6_cartan_determinant_fails_the_star_certificate(monkeypatch):
    # det C of E6 read as 4: 9 of the 10 records with an E6 complement fail
    # the certificate; on E6^2+A2^2*, det C grows by the square (4/3)^2 and
    # the index 3 becomes 4, outside {1,3}
    with_e6 = [rec for rec in all_records() if ("E", 6) in rec.total_complement.components]
    misread_e6_cartan_det(monkeypatch)
    failed = []
    for rec in with_e6:
        with pytest.raises(LatticeError) as err:
            star_of(rec)
        failed.append((str(rec.total_complement), err.type, str(err.value)))
    assert len(failed) == 10
    assert [f for f in failed if f[1] is not EnumerationError] == [
        ("E6^2+A2^2", CuspError, "root-span index 4 outside {1,3}")
    ]
    assert all("is not a square times" in f[2] for f in failed if f[1] is EnumerationError)


def test_star_of_reads_no_det_and_no_hermite_form(monkeypatch):
    # given the saturated complement, which the tables build anyway, the
    # star reads only the complement's type and its determinant
    records = list(all_records())
    for rec in records:
        _p_complement(rec)
    calls = watch_exactla(monkeypatch, "det", "hermite_basis")
    assert sum(star_of(rec) for rec in records) == 3
    assert calls == []


def test_p_complement_is_the_kernel_of_p_times_the_gram_matrix(monkeypatch):
    # the same basis as the complement of the P sublattice, with no Hermite
    # rank of the P rows: the kernel's row count proves them independent
    records = list(all_records())
    for rec in records:
        embedded_p_rows(rec)
    _p_complement.cache_clear()
    calls = watch_exactla(monkeypatch, "hermite_basis", "rank", "saturate")
    complements = [_p_complement(rec) for rec in records]
    assert calls == []
    for rec, perp in zip(records, complements):
        n = build_niemeier(rec.model_kind).overlattice.lattice
        assert perp.basis == Sublattice(n, embedded_p_rows(rec)).orth_complement().basis
        assert perp.rank == 24 - rank(embedded_p_rows(rec))


def test_e8_cubed_is_the_unglued_sum_of_its_components():
    # no glue word, so N = R: the route that sums component complements
    e8, e6 = build_niemeier("E8^3"), build_niemeier("E6^4")
    assert NIEMEIER_GLUE["E8^3"][2] == () and glue_code("E8^3") == ()
    assert e8.overlattice.old_in_new == IntMatrix.identity(24)
    assert e8.overlattice.lattice == e8.r
    assert e6.overlattice.old_in_new != IntMatrix.identity(24)


def test_p_complement_matches_the_kernel_in_n():
    # the sum of the search's component complements on the 10 E8^3 records
    # and the kernel on the 6 E6^4 records, against the kernel of rows * G_N:
    # the same basis and the same Gram matrix
    records = list(all_records())
    assert [rec.model_kind for rec in records].count("E8^3") == 10
    for rec in records:
        ref = reference_p_complement(rec)
        assert _p_complement(rec).basis == ref.basis
        assert cusp_quotient_lattice(rec).gram == ref.lattice().gram


def test_p_complement_rejects_dependent_p_rows(monkeypatch):
    rec = next(r for r in all_records() if r.model_kind == "E6^4")
    real = cusps.embedded_p_rows
    monkeypatch.setattr(cusps, "embedded_p_rows", lambda r: real(r).stack(real(r).submatrix([0])))
    clear_table_caches()
    try:
        with pytest.raises(CuspError, match="embedded P rows are dependent"):
            _p_complement(rec)
    finally:
        clear_table_caches()


def test_unglued_p_complement_rejects_dependent_p_rows():
    # a witness root repeated: the component complement, of rank 8 - rank P
    # there, is one short of 8 minus the component's P rows
    rec = next(r for r in all_records() if r.model_kind == "E8^3")
    c, oc = next((c, oc) for c, oc in enumerate(rec.outcomes) if oc.witness)
    twice = dataclasses.replace(oc, witness=oc.witness + (oc.witness[0][:1],))
    bad = dataclasses.replace(rec, outcomes=rec.outcomes[:c] + (twice,) + rec.outcomes[c + 1 :])
    with pytest.raises(CuspError, match="embedded P rows are dependent"):
        _p_complement(bad)


@st.composite
def witness_records(draw):
    """A record of either model whose components hold up to three
    witnesses of up to three roots each, some components none:
    ``embedded_p_rows`` reads only the model and the witnesses."""
    kind = draw(st.sampled_from(sorted(NIEMEIER_GLUE)))
    comp, ncomp, _ = NIEMEIER_GLUE[kind]
    root = st.integers(0, component_system(*comp).nroots - 1)
    witness = st.lists(st.lists(root, max_size=3).map(tuple), max_size=3).map(tuple)
    outcomes = tuple(ComponentOutcome(EMPTY_TYPE, 1, draw(witness), IntMatrix([], cols=comp[1])) for _ in range(ncomp))
    return EmbeddingRecord(kind, ((),) * ncomp, outcomes)


@settings(max_examples=60)
@given(witness_records())
def test_embedded_p_rows_match_the_padded_rows(record):
    assert embedded_p_rows(record) == reference_embedded_p_rows(record)


def test_embedded_p_rows_match_the_padded_rows_on_every_record():
    for rec in all_records():
        assert embedded_p_rows(rec) == reference_embedded_p_rows(rec)


def test_unknown_model_kind_is_rejected():
    with pytest.raises(CuspError, match="unknown model kind 'E7\\^3'"):
        build_niemeier("E7^3")


def test_one_star_rule_names_an_index_outside_1_3():
    # I4's roots are those of D4, of index 2; star_of gives its index 4 the
    # same message in test_a_wrong_e6_cartan_determinant_fails_the_star_certificate
    with pytest.raises(CuspError, match=r"^root-span index 2 outside \{1,3\}$"):
        root_type_with_star(diag_lattice([1, 1, 1, 1]))


@pytest.mark.parametrize(
    "patch, message",
    [
        # the identity on U + U fixes everything
        (
            lambda mp: mp.setitem(
                cusps._U_BLOCKS,
                (("U", 1), ("U", 1)),
                lambda: RhoLattice(direct_sum(hyperbolic(), hyperbolic()), IntMatrix.identity(4)),
            ),
            "period action has fixed vectors",
        ),
        (lambda mp: mp.setattr(cusps, "is_estar", lambda r: False), "period action is not trivial on the discriminant group"),
    ],
)
def test_family_data_rejects_a_period_block_that_fails_its_check(monkeypatch, patch, message):
    patch(monkeypatch)
    clear_table_caches()
    try:
        with pytest.raises(CuspError, match=message):
            family_data(0, 2)
    finally:
        clear_table_caches()


def test_a_fresh_process_builds_each_cached_object_once():
    # every suite in one cold interpreter: the A2, E6 and E8 order-3
    # blocks, the 8 (family, model) embedding tables and the 28 complements
    out = run_fresh(
        "from k3lat import cusps, eisenstein, suites\n"
        "suites.run_suites('all')\n"
        "for f in (eisenstein.fpf_order3, eisenstein.negative_fpf_order3,\n"
        "          cusps.enumerate_embeddings, cusps._p_complement):\n"
        "    print(f.cache_info().misses)\n"
    )
    assert out.split() == ["3", "3", "8", str(sum(map(len, goldens.EMBEDDING_TABLES.values())))]


def test_classify_cusps_is_computed_once():
    recs = classify_cusps(1, 1)
    assert isinstance(recs, tuple)
    assert classify_cusps(1, 1) is recs
    assert family_data(1, 1) is family_data(1, 1)


def test_unknown_family_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(CuspError, match="unknown family"):
            classify_cusps(3, 3)
        with pytest.raises(CuspError, match="unknown family"):
            family_data(3, 3)


def test_classify_table(n_k_expected=None):
    expected = {
        (0, 2): ["E8^2"],
        (0, 1): ["E6^2+A2^2*", "E8+E6+A2", "E8^2"],
        (1, 1): ["E6+A2^4*", "E6^2+A2", "E8+A2^3", "E8+E6"],
        (2, 1): ["A2^6*", "E6+A2^3", "E6^2", "E8+A2^2"],
    }
    for (n, k), types in expected.items():
        recs = classify_cusps(n, k)
        assert [str(r.jperp_root) for r in recs] == types


def test_isotropic_plane_and_cusp_02():
    fd = family_data(0, 2)
    e1 = [1, 0, 0, 0] + [0] * 16
    j = isotropic_plane(fd.rho_t, e1)
    assert j.rank == 2
    assert j.is_isotropic()
    assert str(cusp_of_plane(fd.rho_t, j)[0]) == "E8^2"


def test_isotropic_plane_in_u_of_01_lands_in_classification():
    fd = family_data(0, 1)
    j = isotropic_plane(fd.rho_t, [1, 0, 0, 0] + [0] * 16)
    c, _ = cusp_of_plane(fd.rho_t, j)
    types = {str(r.jperp_root) for r in classify_cusps(0, 1)}
    assert str(c) in types


def test_isotropic_plane_raises_on_a_plane_that_is_not_invariant(monkeypatch):
    monkeypatch.setattr(cusps, "is_invariant", lambda rows, m: False)
    with pytest.raises(CuspError, match="plane is not invariant"):
        isotropic_plane(family_data(0, 2).rho_t, [1, 0, 0, 0] + [0] * 16)


def test_isotropic_plane_rejects_a_dependent_image_and_a_non_isotropic_orbit():
    with pytest.raises(CuspError, match="vector and its image are dependent"):
        isotropic_plane(RhoLattice(hyperbolic(), IntMatrix.identity(2)), [1, 0])
    with pytest.raises(CuspError, match="span of the orbit is not isotropic"):
        isotropic_plane(RhoLattice(hyperbolic(), IntMatrix([[0, 1], [1, 0]])), [1, 0])


def test_isotropic_plane_rejects_zero_and_anisotropic():
    fd = family_data(0, 2)
    with pytest.raises(CuspError):
        isotropic_plane(fd.rho_t, [0] * 20)
    with pytest.raises(CuspError):
        isotropic_plane(fd.rho_t, [1, 1, 0, 0] + [0] * 16)


# isotropic planes J with their quotients J^perp/J: the (0,2) plane
# through e_0, the (1,1) E8+A2^3 witness, and the order-4 plane (e_0, e_2)
PLANES = ("(0,2)-e0", "(1,1)-E8+A2^3", "order-4")


@cache
def plane_quotient(name):
    if name == "order-4":
        t = assemble([rho4_u_u2(), rho4_d4(), rho4_d4(), rho4_a1a1()]).lattice
        e, ep = [0] * t.rank, [0] * t.rank
        e[0] = ep[2] = 1
        j = Sublattice(t, IntMatrix([e, ep], cols=t.rank))
    else:
        fam, e = {
            "(0,2)-e0": ((0, 2), [1] + [0] * 19),
            "(1,1)-E8+A2^3": ((1, 1), [1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        }[name]
        j = isotropic_plane(family_data(*fam).rho_t, e)
    return j, quotient_by_isotropic(j)


@pytest.mark.parametrize("name", PLANES)
def test_rank_2_quotient_projection_inverts_the_lifts_and_kills_j(name):
    j, q = plane_quotient(name)
    assert j.rank == 2
    assert q.lift * q.proj == IntMatrix.identity(q.lift.rows)
    assert (j.basis * q.proj).is_zero()


@pytest.mark.parametrize("name", PLANES)
@given(data=st.data())
def test_rank_2_quotient_coords_read_the_lift_coefficients(name, data):
    j, q = plane_quotient(name)
    coeff = st.integers(-9, 9)
    u = data.draw(st.lists(coeff, min_size=2, max_size=2))
    c = data.draw(st.lists(coeff, min_size=q.lift.rows, max_size=q.lift.rows))
    row = IntMatrix([u]) * j.basis + IntMatrix([c]) * q.lift
    assert q.coords(row) == IntMatrix([c])


@pytest.mark.parametrize("fam", goldens.FAMILIES)
def test_direct_route_witnesses_give_the_cusp_table(fam):
    # J = sat(e, rho e) is an invariant isotropic plane, and J-perp/J has
    # the listed type; together the witnesses reach every tabulated type
    rho_t = family_data(*fam).rho_t
    found = {}
    for cusp, e in goldens.DIRECT_WITNESSES[fam].items():
        rtype, rho_q = cusp_of_plane(rho_t, isotropic_plane(rho_t, e))
        found[cusp] = str(rtype)
        # the induced action is again fixed-point free of order 3 and E*
        assert rho_q.order == 3 and fixed_sublattice(rho_q).rank == 0 and is_estar(rho_q)
    assert found == {cusp: cusp for cusp in goldens.CUSP_TABLE[fam]}


@pytest.mark.parametrize("fam", goldens.FAMILIES)
def test_root_span_index_matches_the_hermite_span_on_direct_quotients(fam):
    rho_t = family_data(*fam).rho_t
    for e in goldens.DIRECT_WITNESSES[fam].values():
        q = quotient_by_isotropic(isotropic_plane(rho_t, e)).lattice
        assert root_span_index(q) == abs(det(hermite_span(q.gram)))


def test_complement_rank_bound():
    # rank(P) + rank(complement span) <= 24, equality in unstarred E8^3 cases
    for fam, p in [
        ((0, 1), (("E", 6), ("A", 2))),
        ((2, 1), (("E", 6), ("A", 2), ("A", 2), ("A", 2))),
    ]:
        prank = sum(n for _, n in p)
        for rec in enumerate_embeddings(p, "E8^3"):
            assert prank + rec.total_complement.rank == 24

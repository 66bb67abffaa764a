import dataclasses
import math
from itertools import product

import pytest

from k3lat.exactla import ExactLAError, IntMatrix, block_diagonal, det, index_in, int_express, kernel_basis
from k3lat import eisenstein, goldens, kulikov
from k3lat.eisenstein import (
    RhoLattice,
    assemble,
    fixed_sublattice,
    is_invariant,
    negative_fpf_order3,
    primitive_part,
)
from k3lat.goldens import ORDER4_TABLE, SEMIFAN_TABLE
from k3lat.kulikov import (
    _ROW_RECIPE,
    ComponentSpec,
    KulikovError,
    build_component,
    glue_lambda,
    order4_suite,
    primitive_picard,
    quotient_model_fingerprint,
    root_split_check,
    semifan,
)
from k3lat.lattice import (
    Sublattice,
    direct_sum,
    glue_overlattice,
    quotient_by_isotropic,
    rescale,
    scaled_dual,
    signature,
)
from k3lat.roots import GlueError, RootSystemType, dual_class_min, root_span_index, root_system
from support import adapted_quotient_coords, hermite_span, logged_searches, run_fresh, watch_exactla

T = RootSystemType.parse

EXPECTED_PRIM = {
    (0, ((1, 3),)): "E6+A2",
    (0, ((0, 1), (2, 2))): "E8",
    (1, ((0, 3),)): "A2^3",
    (1, ((0, 1), (1, 2))): "E6",
    (2, ((0, 1), (0, 2))): "A2^2",
    (3, ((0, 1), (0, 1), (0, 1))): "A2",
}


def test_component_rows_cover_spec_table():
    assert set(_ROW_RECIPE) == set(EXPECTED_PRIM)
    assert [row for row, _ in goldens.COMPONENT_TABLE] == list(_ROW_RECIPE)


@pytest.mark.parametrize("row", list(_ROW_RECIPE))
def test_component_primitive_types(row):
    c = build_component(ComponentSpec(*row))
    assert c.rho.lattice.rank == 10
    assert abs(c.rho.lattice.det()) == 1
    assert c.rho.lattice.norm(c.d) == 0
    assert c.rho.apply(c.d) == c.d
    prim, rtype = primitive_picard(c)
    assert str(rtype) == EXPECTED_PRIM[row]
    # orthogonal to a positive fixed class, so negative definite
    assert signature(prim.lattice()) == (0, prim.rank)


def test_primitive_picard_is_computed_once():
    row = next(iter(_ROW_RECIPE))
    c = build_component(ComponentSpec(*row))
    assert build_component(ComponentSpec(*row)) is c
    assert primitive_picard(c) is primitive_picard(c)
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.d = ()


def test_unknown_component_rejected():
    with pytest.raises(KulikovError):
        ComponentSpec(2, ((1, 3),))


def test_glue_shape_and_action():
    c = build_component(ComponentSpec(0, ((1, 3),)))
    k = glue_lambda(c, c)
    assert k.lattice.rank == 18
    assert abs(k.lattice.det()) == 1
    assert k.lattice.is_even
    assert signature(k.lattice) == (1, 17)
    assert k.rho.order == 3
    assert k.prim.rank == 16


GLUE_PAIRINGS = [
    ((0, ((0, 1), (2, 2))), (0, ((0, 1), (2, 2))), "E8^2", False),
    ((0, ((1, 3),)), (0, ((1, 3),)), "E6^2+A2^2", True),
    ((0, ((0, 1), (2, 2))), (0, ((1, 3),)), "E8+E6+A2", False),
    ((0, ((1, 3),)), (1, ((0, 3),)), "E6+A2^4", True),
    ((0, ((0, 1), (2, 2))), (1, ((0, 3),)), "E8+A2^3", False),
    ((0, ((1, 3),)), (1, ((0, 1), (1, 2))), "E6^2+A2", False),
    ((0, ((0, 1), (2, 2))), (1, ((0, 1), (1, 2))), "E8+E6", False),
    ((1, ((0, 3),)), (1, ((0, 3),)), "A2^6", True),
    ((1, ((0, 1), (1, 2))), (1, ((0, 3),)), "E6+A2^3", False),
    ((1, ((0, 1), (1, 2))), (1, ((0, 1), (1, 2))), "E6^2", False),
    ((0, ((0, 1), (2, 2))), (2, ((0, 1), (0, 2))), "E8+A2^2", False),
    ((0, ((1, 3),)), (2, ((0, 1), (0, 2))), "E6+A2^3", False),
]


@pytest.mark.parametrize("s0,s1,expected,starred", GLUE_PAIRINGS[:4])
def test_glue_pairing_types_fast(s0, s1, expected, starred):
    _check_pairing(s0, s1, expected, starred)


@pytest.mark.slow
@pytest.mark.parametrize("s0,s1,expected,starred", GLUE_PAIRINGS[4:])
def test_glue_pairing_types_rest(s0, s1, expected, starred):
    _check_pairing(s0, s1, expected, starred)


def _check_pairing(s0, s1, expected, starred):
    c0 = build_component(ComponentSpec(*s0))
    c1 = build_component(ComponentSpec(*s1))
    k = glue_lambda(c0, c1)
    # what glue_lambda leaves unchecked: the shape (the glue suite's item),
    # the signature, the order and the fixed and primitive parts filling Q^18
    assert (k.lattice.rank, k.lattice.det(), k.lattice.is_even) == (18, -1, True)
    assert signature(k.lattice) == (1, 17)
    assert k.rho.order == 3
    assert k.prim.rank + fixed_sublattice(k.rho).rank == 18
    prim_lat = k.prim.lattice()
    rtype, span = root_system(prim_lat)
    assert str(rtype) == expected
    star_idx = index_in(span.basis, IntMatrix.identity(prim_lat.rank))
    assert star_idx == (3 if starred else 1)
    assert root_split_check(k, c0, c1) == (True, 3 if starred else 1)


ALL_GLUINGS = [(s0, s1) for pairings in goldens.GLUE_PAIRINGS.values() for s0, s1, _, _ in pairings]


@pytest.mark.parametrize("s0,s1", ALL_GLUINGS)
def test_quotient_coords_match_adapted_basis_route(s0, s1):
    # the Smith-transform map of the glued lattice against a Bareiss solve
    # in the adapted basis [xi; lift]: same descended action, same image
    # of the component primitive parts
    c0 = build_component(ComponentSpec(*s0))
    c1 = build_component(ComponentSpec(*s1))
    k = glue_lambda(c0, c1)
    xi = c0.d + tuple(-x for x in c1.d)
    quotient = kulikov._matching_quotient(c0.rho.lattice, c0.d, c1.rho.lattice, c1.d)
    lift = quotient.lift
    images = lift * block_diagonal(c0.rho.matrix, c1.rho.matrix)
    assert adapted_quotient_coords(xi, lift, images) == k.rho.matrix
    parts = block_diagonal(primitive_picard(c0)[0].basis, primitive_picard(c1)[0].basis)
    assert quotient.coords(parts) == adapted_quotient_coords(xi, lift, parts)


def test_glue_lambda_leaves_the_shape_to_the_suite(monkeypatch):
    # a quotient form rescaled by 3 is returned, not raised on: the
    # unimodular check lives in the glue suite's -shape item alone
    real = kulikov.quotient_by_isotropic

    def rescaled(j):
        q = real(j)
        return dataclasses.replace(q, lattice=rescale(q.lattice, 3))

    monkeypatch.setattr(kulikov, "quotient_by_isotropic", rescaled)
    c = build_component(ComponentSpec(0, ((1, 3),)))
    # a cached quotient would bypass the patch, and a rescaled one must
    # not outlive it
    kulikov._matching_quotient.cache_clear()
    try:
        k = glue_lambda(c, c)
    finally:
        kulikov._matching_quotient.cache_clear()
    assert k.lattice.rank == 18 and abs(k.lattice.det()) != 1


def test_matching_quotient_is_built_once_for_the_glue_suite():
    from k3lat.suites import suite_glue

    kulikov._matching_quotient.cache_clear()
    try:
        suite_glue()
        info = kulikov._matching_quotient.cache_info()
        assert (info.misses, info.hits) == (1, 12)
    finally:
        kulikov._matching_quotient.cache_clear()


def test_primitive_gram_is_built_once_per_gluing():
    k = glue_lambda(build_component(ComponentSpec(0, ((1, 3),))), build_component(ComponentSpec(1, ((0, 3),))))
    gram = k.prim.lattice().gram
    assert k.prim.lattice().gram is gram
    # the cache reads values, not objects: the same basis in the ambient
    # rescaled by 3 gets its own Gram matrix
    tripled = Sublattice(rescale(k.prim.ambient, 3), k.prim.basis)
    assert tripled.gram() == gram.scale(3)


def test_sublattice_gram_is_built_once_for_the_glue_suite():
    # a new interpreter: warm component and quotient caches would skip
    # some of the Gram matrices a cold glue suite asks for
    out = run_fresh(
        "from k3lat import lattice\n"
        "from k3lat.suites import suite_glue\n"
        "suite_glue()\n"
        "info = lattice._sublattice_gram.cache_info()\n"
        "print(info.misses, info.hits)\n"
    )
    assert out.split() == ["20", "41"]


@pytest.mark.parametrize("s0,s1", ALL_GLUINGS)
def test_descended_action_keeps_its_square(s0, s1):
    k = glue_lambda(build_component(ComponentSpec(*s0)), build_component(ComponentSpec(*s1)))
    m = k.rho.matrix
    assert k.rho.square == m * m
    # the primitive part against phi = M*M + M + I built without the square
    phi = m * m + m + IntMatrix.identity(m.rows)
    assert primitive_part(k.rho).basis == kernel_basis(phi.transpose())


@pytest.mark.parametrize("s0,s1", ALL_GLUINGS)
def test_root_span_index_matches_the_hermite_span_on_glue_primitive_parts(s0, s1):
    k = glue_lambda(build_component(ComponentSpec(*s0)), build_component(ComponentSpec(*s1)))
    prim_lat = k.prim.lattice()
    assert root_span_index(prim_lat) == abs(det(hermite_span(prim_lat.gram)))


@pytest.mark.parametrize("s0,s1", ALL_GLUINGS)
def test_root_split_index_matches_the_coefficient_route(s0, s1):
    # index^2 |det prim| = |det p0| |det p1| against the determinant of the
    # coefficients of the component parts' images in the primitive basis
    c0 = build_component(ComponentSpec(*s0))
    c1 = build_component(ComponentSpec(*s1))
    k = glue_lambda(c0, c1)
    quotient = kulikov._matching_quotient(c0.rho.lattice, c0.d, c1.rho.lattice, c1.d)
    parts = block_diagonal(primitive_picard(c0)[0].basis, primitive_picard(c1)[0].basis)
    coeff = int_express(quotient.coords(parts), k.prim.basis)
    assert coeff.rows == k.prim.rank
    assert root_split_check(k, c0, c1)[1] == abs(det(coeff)) in (1, 3)


def test_root_split_check_reads_no_elimination(monkeypatch):
    c0 = build_component(ComponentSpec(0, ((1, 3),)))
    c1 = build_component(ComponentSpec(1, ((0, 3),)))
    k = glue_lambda(c0, c1)
    want = root_split_check(k, c0, c1)
    # warm: the index comes from the cached Gram eliminations alone
    calls = watch_exactla(monkeypatch, "det", "int_express", "gram_elimination")
    assert root_split_check(k, c0, c1) == want == (True, 3)
    assert calls == []


def test_matching_quotient_equals_a_fresh_quotient():
    c0 = build_component(ComponentSpec(0, ((1, 3),)))
    c1 = build_component(ComponentSpec(3, ((0, 1), (0, 1), (0, 1))))
    l0, l1 = c0.rho.lattice, c1.rho.lattice
    cached = kulikov._matching_quotient(l0, c0.d, l1, c1.d)
    xi = c0.d + tuple(-x for x in c1.d)
    fresh = quotient_by_isotropic(Sublattice(direct_sum(l0, l1), [xi]))
    assert cached.lattice.gram == fresh.lattice.gram
    assert (cached.lift, cached.proj) == (fresh.lift, fresh.proj)


def test_warm_glue_solves_no_system_against_the_quotient(monkeypatch):
    # once the quotient is built, the descended action and the image of
    # the component primitive parts are products with its projection
    from k3lat import lattice

    rows = [
        (build_component(ComponentSpec(*s0)), build_component(ComponentSpec(*s1)), starred)
        for pairings in goldens.GLUE_PAIRINGS.values()
        for s0, s1, _, starred in pairings
    ]
    for c0, c1, _ in rows:
        kulikov._matching_quotient(c0.rho.lattice, c0.d, c1.rho.lattice, c1.d)

    def refuse(targets, basis):
        raise AssertionError("int_express called on a warm quotient")

    monkeypatch.setattr(lattice, "int_express", refuse)
    for c0, c1, starred in rows:
        k = glue_lambda(c0, c1)
        assert root_split_check(k, c0, c1) == (True, 3 if starred else 1)


def test_matching_quotient_keys_on_every_argument():
    c = build_component(ComponentSpec(0, ((1, 3),)))
    l, d = c.rho.lattice, c.d
    # a rescaled second lattice, and another isotropic class of the same
    # lattice (D = (3, -1^9) and D' = (1, -1, 0^8) have norm 0)
    d_other = (1, -1) + (0,) * 8
    base = kulikov._matching_quotient(l, d, l, d)
    rescaled = kulikov._matching_quotient(l, d, rescale(l, 3), d)
    moved = kulikov._matching_quotient(l, d, l, d_other)
    assert base.lattice.det() == -1
    assert rescaled.lattice.gram != base.lattice.gram
    assert moved.lift != base.lift


def test_glue_shape_items_fail_on_a_rescaled_lattice(monkeypatch):
    from k3lat import suites

    real = suites.glue_lambda

    def rescaled(c0, c1):
        k = real(c0, c1)
        return dataclasses.replace(k, rho=RhoLattice(rescale(k.rho.lattice, 3), k.rho.matrix))

    monkeypatch.setattr(suites, "glue_lambda", rescaled)
    failed = _failed(suites.suite_glue())
    shapes = [
        f"({fam[0]},{fam[1]})-{expected}" + ("*" if starred else "") + "-shape"
        for fam, pairings in goldens.GLUE_PAIRINGS.items()
        for _, _, expected, starred in pairings
    ]
    assert len(shapes) == 13
    assert failed == shapes


def test_root_split_trivial_case():
    # a component with empty primitive part would make the union law
    # trivial; the smallest actual case still splits correctly
    c = build_component(ComponentSpec(3, ((0, 1), (0, 1), (0, 1))))
    k = glue_lambda(c, c)
    assert root_split_check(k, c, c) == (True, 1)


def test_root_split_check_of_components_of_the_wrong_total_rank_is_false_and_index_0():
    c = build_component(ComponentSpec(3, ((0, 1), (0, 1), (0, 1))))
    c0 = build_component(ComponentSpec(0, ((1, 3),)))
    c1 = build_component(ComponentSpec(1, ((0, 3),)))
    k, k1 = glue_lambda(c, c), glue_lambda(c0, c1)
    # parts of ranks 8 + 6 against a primitive part of rank 4, and 2 + 2
    # against 14
    assert root_split_check(k, c0, c1) == root_split_check(k1, c, c) == (False, 0)


def test_semifan_table_ranks():
    for (n, k), entries in SEMIFAN_TABLE.items():
        for cusp, rank, slot_index in entries:
            rec = semifan(n, k, cusp)
            assert rec.fj_rank == rank
            assert rec.slot_index == slot_index
            assert rec.rho_invariant


def test_semifan_whole_lattice_case():
    rec = semifan(2, 1, "A2^6*")
    # the semifan is the whole rank-12 quotient model here
    assert rec.fj_rank == rec.model.rank == 12


def test_starred_models_try_one_glue_word(monkeypatch):
    # each starred model is glued by the all-ones word alone, with no
    # search over the other words; the glue helper lives in roots
    import k3lat.roots as roots

    calls = []
    real = roots.glue_overlattice

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(roots, "glue_overlattice", counted)
    fingerprints = {
        "E6^2+A2^2*": (16, 9, (3, 3)),
        "E6+A2^4*": (14, 27, (3, 3, 3)),
        "A2^6*": (12, 81, (3, 3, 3, 3)),
    }
    for fam, entries in SEMIFAN_TABLE.items():
        for cusp, rank, slot_index in entries:
            if cusp in fingerprints:
                calls.clear()
                rec = semifan(fam[0], fam[1], cusp)
                assert len(calls) == 1, cusp
                assert (rec.fj_rank, rec.slot_index, rec.rho_invariant) == (rank, slot_index, True)
                assert quotient_model_fingerprint(rec.model) == fingerprints[cusp]
                fingerprints.pop(cusp)
    assert fingerprints == {}


def test_semifan_zero_cases():
    for n, k, cusp in [(0, 2, "E8^2"), (1, 1, "E8+E6"), (2, 1, "E6^2")]:
        rec = semifan(n, k, cusp)
        assert rec.fj_rank == 0


def test_semifan_rejects_unknown_pair():
    with pytest.raises(KulikovError):
        semifan(0, 2, "E6^2")


def test_semifan_suite_reports_a_wrong_rank_as_fail(monkeypatch):
    # the expected rank lives in goldens only: a wrong one is a FAIL item,
    # never an exception out of the library
    from k3lat.suites import suite_semifan

    (cusp, rank, slot_index), *rest = SEMIFAN_TABLE[(0, 1)]
    monkeypatch.setitem(SEMIFAN_TABLE, (0, 1), ((cusp, rank + 2, slot_index), *rest))
    failed = [(i.id, i.computed, i.expected) for i in suite_semifan().items if i.status != "pass"]
    assert failed == [(f"(0,1)-{cusp}-rank", str(rank), str(rank + 2))]


def test_semifan_fingerprints_match_concrete_quotients():
    from k3lat.cusps import classify_cusps, cusp_quotient_lattice

    for fam in [(0, 1), (2, 1)]:
        for rec in classify_cusps(*fam):
            sat = cusp_quotient_lattice(rec.witnesses[0])
            sf = semifan(fam[0], fam[1], rec.jperp_root)
            assert quotient_model_fingerprint(sat) == quotient_model_fingerprint(sf.model)


def test_order4_suite_all_pass():
    results = order4_suite()
    assert [cid for cid, _ in results] == list(ORDER4_TABLE)
    for cid, computed in results:
        assert computed == ORDER4_TABLE[cid][1], cid


def test_is_invariant():
    swap = IntMatrix([[0, 1], [1, 0]])
    assert is_invariant(IntMatrix([[1, 1]]), swap)
    assert not is_invariant(IntMatrix([[1, 0]]), swap)
    assert is_invariant(IntMatrix([], cols=2), swap)


def test_unexpected_error_is_not_read_as_not_invariant(monkeypatch):
    # only ExactLAError means "outside the span"; anything else propagates
    def broken(targets, basis):
        raise TypeError("broken int_express")

    monkeypatch.setattr(eisenstein, "int_express", broken)
    with pytest.raises(TypeError, match="broken int_express"):
        is_invariant(IntMatrix([[1, 1]]), IntMatrix([[0, 1], [1, 0]]))


def _raise(error):
    def raising(*args):
        raise error

    return raising


def test_terminal_model_raises_when_the_action_does_not_extend(monkeypatch):
    monkeypatch.setattr(kulikov, "int_express", _raise(ExactLAError("not integral")))
    with pytest.raises(KulikovError, match="does not extend integrally"):
        kulikov._terminal_model(3)


def _negative_sum(factors):
    return assemble([negative_fpf_order3(*f) for f in factors])


STARRED = {
    "E6^2+A2^2*": [("E", 6)] * 2 + [("A", 2)] * 2,
    "E6+A2^4*": [("E", 6)] + [("A", 2)] * 4,
    "A2^6*": [("A", 2)] * 6,
}


@pytest.mark.parametrize("cusp", list(STARRED))
def test_starred_glue_is_the_first_word_of_the_old_search(cusp):
    # every glue word over the factor discriminants (each Z/3): valid
    # exactly when its coset holds no roots (scaled minimum above 2d) and
    # its glue vector has even integral norm (scaled norm divisible by 2d)
    factors = STARRED[cusp]
    duals = [scaled_dual(*f) for f in factors]
    d = math.lcm(*(df for _, df in duals))
    mins = [dual_class_min(*f) * (d // df) for f, (_, df) in zip(factors, duals)]
    valid = [
        word
        for word in product((0, 1, 2), repeat=len(factors))
        if any(word)
        and sum(q for c, q in zip(word, mins) if c) > 2 * d
        and sum(c * c * q for c, q in zip(word, mins)) % (2 * d) == 0
    ]
    assert valid == list(product((1, 2), repeat=len(factors)))  # the full support
    assert valid[0] == (1,) * len(factors)
    base = _negative_sum(factors)
    row = [x * c * (d // df) for c, (cf, df) in zip(valid[0], duals) for x in cf.entries[0]]
    rho, over = kulikov._starred_model(factors, base)
    assert over == glue_overlattice(base.lattice, [row], d)
    assert abs(det(over.old_in_new)) == 3 and rho.order == 3


def test_starred_model_rejects_a_word_that_adds_roots():
    # A2^3: the all-ones coset has minimum 3 * 2/3 = 2, a root
    factors = [("A", 2)] * 3
    with pytest.raises(GlueError, match="glue word .* adds roots"):
        kulikov._starred_model(factors, _negative_sum(factors))


def _failed(report):
    return [i.id for i in report.items if i.status != "pass"]


@pytest.mark.parametrize("cid", list(ORDER4_TABLE))
def test_order4_item_fails_on_a_wrong_expected_value(monkeypatch, cid):
    # the expected values live in goldens only: a wrong one fails exactly
    # its own item, without an exception out of the library
    from k3lat.suites import suite_order4

    anchor, expected = ORDER4_TABLE[cid]
    monkeypatch.setitem(ORDER4_TABLE, cid, (anchor, expected[:-1] + (not expected[-1],)))
    assert _failed(suite_order4()) == [cid]


def test_order4_semifan_item_fails_on_a_wrong_expected_value(monkeypatch):
    from k3lat.suites import suite_semifan

    anchor, expected = ORDER4_TABLE["semifan-summand"]
    monkeypatch.setitem(ORDER4_TABLE, "semifan-summand", (anchor, (False,) + expected[1:]))
    assert _failed(suite_semifan()) == ["order4-semifan"]


def test_semifan_slot_index_items_fail_on_flipped_expected_indices(monkeypatch):
    # 3 for (2,1) A2^6* and 1 elsewhere; 4 - index flips each of them
    from k3lat.suites import suite_semifan

    ids = []
    for fam, entries in list(SEMIFAN_TABLE.items()):
        monkeypatch.setitem(SEMIFAN_TABLE, fam, tuple((c, r, 4 - i) for c, r, i in entries))
        ids += [f"({fam[0]},{fam[1]})-{c}-primitive" for c, _, _ in entries]
    assert _failed(suite_semifan()) == ids


@pytest.mark.parametrize("star", [True, False])
def test_glue_root_split_items_fail_on_a_flipped_expected_index(monkeypatch, star):
    from k3lat.suites import suite_glue

    monkeypatch.setitem(goldens.GLUE_SPLIT_INDEX, star, 4 - goldens.GLUE_SPLIT_INDEX[star])
    flipped = [
        f"({fam[0]},{fam[1]})-{expected}" + ("*" if starred else "") + "-root-split"
        for fam, pairings in goldens.GLUE_PAIRINGS.items()
        for _, _, expected, starred in pairings
        if starred == star
    ]
    assert len(flipped) == (3 if star else 10)
    assert _failed(suite_glue()) == flipped


def test_order4_suite_runs_once_for_both_suites():
    from k3lat.suites import suite_order4, suite_semifan

    order4_suite.cache_clear()
    try:
        suite_order4()
        suite_semifan()
        assert order4_suite.cache_info().misses == 1
    finally:
        order4_suite.cache_clear()


def test_root_split_check_enumerates_each_gram_matrix_once(monkeypatch):
    import k3lat.roots as roots

    c0 = build_component(ComponentSpec(0, ((1, 3),)))
    c1 = build_component(ComponentSpec(1, ((0, 3),)))
    k = glue_lambda(c0, c1)
    prim_lat = k.prim.lattice()
    grams = []
    reduce = roots._definite_reduce

    def counted_reduce(l):
        grams.append(l.gram)
        return reduce(l)

    monkeypatch.setattr(roots, "_definite_reduce", counted_reduce)
    searched = logged_searches(monkeypatch)
    roots._root_analysis.cache_clear()
    primitive_picard.cache_clear()
    rtype, _ = root_system(prim_lat)
    assert root_split_check(k, c0, c1) == (True, 3)
    # the glued part and the two component primitive parts, each reduced
    # once by one root analysis
    assert len(grams) == len(set(grams)) == 3
    assert roots._root_analysis.cache_info().misses == 3
    assert prim_lat.gram in grams and str(rtype) == "E6+A2^4"
    # the glued part is starred, with no basis of roots, so it alone is
    # searched, once; LLL leaves E6+A2 and A2^3 bases of roots
    p0, p1 = (primitive_picard(c)[0].lattice() for c in (c0, c1))
    assert grams == [prim_lat.gram, p0.gram, p1.gram]
    assert searched == [roots._definite_reduce(prim_lat)[0]]


def test_glued_primitive_parts_search_only_when_starred(monkeypatch):
    # LLL reduces the ten unstarred glued primitive parts to bases of
    # roots, so none is searched; the three starred ones (index 3 over
    # their root span) have no basis of roots and are searched once each
    import k3lat.roots as roots

    searched = logged_searches(monkeypatch)
    full = []
    for pairings in goldens.GLUE_PAIRINGS.values():
        for s0, s1, expected, starred in pairings:
            k = glue_lambda(build_component(ComponentSpec(*s0)), build_component(ComponentSpec(*s1)))
            searched.clear()
            rtype, _ = roots._root_analysis.__wrapped__(k.prim.lattice().gram)
            assert str(rtype) == expected
            full.append((len(searched), starred))
    assert len(full) == 13 and sum(starred for _, starred in full) == 3
    assert all(count == starred for count, starred in full)

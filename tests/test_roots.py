import math
import random
from functools import cache
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import k3lat.lattice as lattice_module
import k3lat.roots as roots_module
from k3lat import goldens
from k3lat.cli import parse_lattice_expr
from k3lat.exactla import IntMatrix, det, gram_elimination, hermite_basis, hnf
from k3lat.lattice import (
    DegenerateFormError,
    Lattice,
    LatticeError,
    Sublattice,
    cartan_gram,
    diag_lattice,
    direct_sum,
    hyperbolic,
    rescale,
    root_lattice,
    scaled_dual,
)
from k3lat.roots import (
    EMPTY_TYPE,
    EnumerationError,
    RootSystemType,
    _definite_reduce,
    _lll,
    _reduced_search,
    _round_div,
    _simple_scan,
    complement_root_type,
    dual_class_min,
    enumerate_norm,
    root_basis_type,
    root_span_index,
    root_system,
    span_index,
)
from support import (
    ROOT_ATOMS,
    SMALL_ATOMS,
    atom_lattice,
    basis_change,
    changed_basis,
    conjugate,
    diagram_type,
    enumerate_norm_box,
    fraction_lll,
    gauss_jordan_inv,
    hermite_span,
    logged_searches,
    misread_e6_cartan_det,
    pairwise_root_type,
    run_fresh,
    rational_span_complement_root_type,
    searched_root_analysis,
    restrict_to_box,
    tuple_root_decomposition,
    unimodular,
    watch_exactla,
)

T = RootSystemType.parse


def test_enumerate_a1():
    vecs = enumerate_norm(diag_lattice([2]), 2)
    assert vecs == [(-1,), (1,)]


def test_enumerate_a2():
    assert len(enumerate_norm(root_lattice("A", 2), 2)) == 6


def test_enumerate_e8_count():
    assert len(enumerate_norm(root_lattice("E", 8), 2)) == 240


def test_enumerate_negative_definite():
    vecs = enumerate_norm(rescale(root_lattice("A", 2), -1), 2)
    assert len(vecs) == 6


def test_enumerate_closed_under_negation_and_sorted():
    vecs = enumerate_norm(root_lattice("D", 4), 2)
    s = set(vecs)
    assert all(tuple(-c for c in v) in s for v in vecs)
    assert vecs == sorted(vecs)


def test_enumerate_rejects_indefinite():
    with pytest.raises(Exception):
        enumerate_norm(hyperbolic(), 2)


def analysed(gram, scanned=None):
    """``_root_analysis`` of ``gram``, uncached, and the number of
    ``_reduced_search`` runs it makes; the keys a search visits go to
    ``scanned``, if given."""
    with pytest.MonkeyPatch.context() as mp:
        searches = logged_searches(mp, scanned)
        return roots_module._root_analysis.__wrapped__(gram), len(searches)


def counted_eliminations(mp):
    """The list that logs the rank of every later ``gram_elimination`` from
    ``roots`` or ``lattice``."""
    calls = []

    def counted(g):
        calls.append(g.rows)
        return gram_elimination(g)

    mp.setattr(roots_module, "gram_elimination", counted)
    mp.setattr(lattice_module, "gram_elimination", counted)
    return calls


def test_root_analysis_of_a_new_gram_matrix_eliminates_once(monkeypatch):
    # LLL's minors prove definiteness and its numerators serve the search,
    # so neither the input nor the reduced form is eliminated: a basis of
    # roots is eliminated once per piece, and so are a search's simple
    # roots.  Both skewed E6+A2 bases reduce to a basis of roots; E8+I1,
    # odd, has none
    e6a2 = direct_sum(root_lattice("E", 6), root_lattice("A", 2))
    lu = conjugate(e6a2, unimodular(8, [(5, 3, -2), (6, 3, 2)]))
    skew = conjugate(e6a2, unimodular(8, [(6, 1, 2), (0, 1, -2), (2, 0, -2), (1, 5, -2)]))
    odd = skewed(*STOP_CASES[4])[3]
    for l, norms in ((lu, [2] * 8), (skew, [2] * 8), (odd, [1] + [2] * 8)):
        assert sorted(row[k] for k, row in enumerate(_definite_reduce(l)[0].entries)) == norms
    lattice_module._inertia.cache_clear()
    calls = counted_eliminations(monkeypatch)
    for l in (lu, skew):
        calls.clear()
        assert analysed(l.gram) == ((T("E6+A2"), IntMatrix.identity(8)), 0)
        assert sorted(calls) == [2, 6]
    calls.clear()
    (rtype, _), searches = analysed(odd.gram)
    assert (str(rtype), searches, calls) == ("E8", 1, [8])


@pytest.mark.parametrize(
    "gram, error",
    [
        ([[0, 1], [1, 0]], LatticeError),
        ([[2, 3], [3, 2]], LatticeError),
        ([[2, 2], [2, 2]], DegenerateFormError),
        ([[-2, 2], [2, -2]], DegenerateFormError),
        ([[2, 0], [0, -2]], LatticeError),
    ],
)
def test_root_system_raises_the_inertia_error_on_a_form_not_definite(gram, error):
    with pytest.raises(error) as raised:
        root_system(Lattice(gram))
    with pytest.raises(error) as named:
        lattice_module.definite_sign(Lattice(gram))
    assert str(raised.value) == str(named.value)


@pytest.mark.parametrize(
    "gram",
    [
        [[2, 3], [3, 2]],  # indefinite
        [[2, 2], [2, 2]],  # degenerate: Cauchy--Schwarz with equality
        [[4, 1, 5], [1, 2, 0], [5, 0, 6]],  # the pair (0, 2) of a 3 x 3 form
    ],
)
def test_a_pair_beyond_cauchy_schwarz_skips_the_reduced_elimination(monkeypatch, gram):
    # LLL meets a minor d_k <= 0 (for a pair, g_ii g_jj - g_ij^2), which
    # already proves the form not positive definite, so the only
    # elimination is the one of the input that names the error
    lattice_module._inertia.cache_clear()
    calls = counted_eliminations(monkeypatch)
    assert _lll(IntMatrix(gram)) is None
    with pytest.raises(LatticeError):
        root_system(Lattice(gram))
    assert calls == [len(gram)]


ADE_ATOMS = [atom for atom in ROOT_ATOMS if atom[0] in "ADE"]


@st.composite
def signed_permuted_root_bases(draw):
    """A sum of ADE root lattices in a basis of its simple roots, permuted
    and with random signs: the Gram matrix M C M^T for a signed
    permutation matrix M and a Cartan matrix C."""
    parts = draw(st.lists(st.sampled_from(ADE_ATOMS), min_size=1, max_size=3).filter(lambda ps: sum(n for _, n in ps) <= 12))
    c = direct_sum(*map(atom_lattice, parts)).gram
    n = c.rows
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    m = IntMatrix([[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)])
    return Lattice(m * c * m.transpose())


@given(signed_permuted_root_bases(), st.sampled_from([1, -1]))
def test_cartan_certificate_types_signed_permuted_root_bases(l, sign):
    # a signed simple-root basis, of either sign, is a root basis with an
    # empty tail: it is typed as the pairwise oracle types all roots, with
    # no search and one elimination per irreducible component
    lu = rescale(l, sign)
    want = pairwise_root_type(enumerate_norm(lu, 2), lu.gram)
    with pytest.MonkeyPatch.context() as mp:
        calls = counted_eliminations(mp)
        (rtype, span), searches = analysed(lu.gram)
    assert (rtype, span, searches) == (want, IntMatrix.identity(lu.rank), 0)
    assert sorted(calls) == sorted(n for _, n in want.components)


def test_cartan_certificate_on_pinned_forms(monkeypatch):
    calls = counted_eliminations(monkeypatch)
    # A2 with one basis sign flipped: LLL-reduced already, a root basis,
    # and one elimination
    a2 = IntMatrix([[2, 1], [1, 2]])
    assert _lll(a2)[0] == a2
    assert analysed(a2) == ((T("A2"), IntMatrix.identity(2)), 0)
    assert calls == [2]
    # a triangle of pairings is a root basis too, with no Dynkin diagram:
    # det 4 at rank 3 names A3
    calls.clear()
    triangle = IntMatrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert _lll(triangle)[0] == triangle
    assert analysed(triangle) == ((T("A3"), IntMatrix.identity(3)), 0)
    assert calls == [3]
    # an odd form has no root basis: it is searched once, on the minors
    # and numerators of the reduction, and its simple roots, one piece,
    # are eliminated once
    calls.clear()
    (rtype, _), searches = analysed(IntMatrix.identity(3))
    assert (str(rtype), searches, calls) == ("A3", 1, [3])


@pytest.mark.parametrize("expr, shortcut", [("A2(2)", True), ("D4(3)", True), ("E8(2)+A1(3)", False)])
def test_content_above_2_leaves_no_roots(monkeypatch, expr, shortcut):
    # every norm is a multiple of the content gcd(g_ii, 2 g_ij): 4 for
    # A2(2) and 6 for D4(3), so neither has a root, with no reduction and
    # no search; E8(2)+A1(3) has content 2, and the search finds no root
    l = parse_lattice_expr(expr)
    want = searched_root_analysis(l.gram)
    reduce, reduced = roots_module._definite_reduce, []
    monkeypatch.setattr(roots_module, "_definite_reduce", lambda l: reduced.append(l) or reduce(l))
    got, searches = analysed(l.gram)
    assert got == want == (EMPTY_TYPE, hermite_basis([], l.rank))
    assert (reduced == [] and searches == 0) == shortcut


@pytest.mark.parametrize("expr, error", [("U(3)", LatticeError), ("diag(3,0)", DegenerateFormError)])
def test_content_above_2_keeps_the_inertia_error(expr, error):
    # content 6 and 3, but no roots is no answer for a form not definite
    l = parse_lattice_expr(expr)
    with pytest.raises(error) as raised:
        roots_module._root_analysis.__wrapped__(l.gram)
    with pytest.raises(error) as named:
        lattice_module.definite_sign(l)
    assert type(raised.value) is error and str(raised.value) == str(named.value)


def diagram_gram(n, edges):
    g = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


@pytest.mark.parametrize(
    "gram, error",
    [
        (diagram_gram(3, [(0, 1), (1, 2), (2, 0)]), DegenerateFormError),  # affine A2: a cycle
        (diagram_gram(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), DegenerateFormError),  # affine D4: a forest
        # T(2,3,7): arms of 1, 2 and 6 nodes, a forest of signature (9,1)
        (diagram_gram(10, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]), LatticeError),
    ],
)
def test_a_diagram_that_is_not_ade_is_declined_and_raises_the_inertia_error(monkeypatch, gram, error):
    l = Lattice(gram)
    # a basis of roots whose form is not positive definite: LLL meets a
    # minor d_k <= 0 and returns None, the elimination of the input names
    # why, and nothing is searched
    assert _lll(l.gram) is None
    lattice_module._inertia.cache_clear()
    calls = counted_eliminations(monkeypatch)
    monkeypatch.setattr(roots_module, "_reduced_search", None)
    with pytest.raises(error) as raised:
        roots_module._root_analysis.__wrapped__(l.gram)
    assert calls == [len(gram)]
    with pytest.raises(error) as named:
        lattice_module.definite_sign(l)
    assert type(raised.value) is error and str(raised.value) == str(named.value)


def test_lll_declines_a_negative_first_minor():
    assert _lll(IntMatrix([[-2]])) is None


def test_root_span_index_needs_roots_that_span_rationally():
    # the roots of <2> + <4> are those of the A1 on the first vector
    with pytest.raises(EnumerationError, match="roots do not span the lattice rationally"):
        root_span_index(diag_lattice([2, 4]))


def test_enumerate_rejects_bad_norm():
    with pytest.raises(EnumerationError):
        enumerate_norm(root_lattice("A", 2), 0)


@pytest.mark.parametrize(
    "sym,n,count",
    [("A", 2, 6), ("D", 4, 24), ("E", 6, 72), ("E", 7, 126), ("E", 8, 240)],
)
def test_standard_root_counts(sym, n, count):
    assert len(enumerate_norm(root_lattice(sym, n), 2)) == count


@pytest.mark.parametrize(
    "sym,n,bound",
    [("A", 2, 1), ("A", 4, 1), ("D", 4, 2), ("D", 5, 2), ("E", 6, 3)],
)
def test_box_oracle_full_agreement(sym, n, bound):
    # the bound covers the highest root, so the box sees every root
    l = root_lattice(sym, n)
    assert enumerate_norm_box(l, 2, bound) == enumerate_norm(l, 2)


def test_box_oracle_regional_agreement_e8():
    l = root_lattice("E", 8)
    full = enumerate_norm(l, 2)
    assert enumerate_norm_box(l, 2, 2) == restrict_to_box(full, 2)


def test_root_system_e6_a2():
    t, span = root_system(direct_sum(root_lattice("E", 6), root_lattice("A", 2)))
    assert t == T("E6+A2")
    assert span.rank == 8


def test_root_system_d4d4a1a1():
    l = direct_sum(
        root_lattice("D", 4), root_lattice("D", 4), diag_lattice([2, 2])
    )
    t, _ = root_system(l)
    assert t == T("D4^2+A1^2")
    assert str(t) == "D4^2+A1^2"


def test_root_system_no_roots():
    t, span = root_system(diag_lattice([4]))
    assert t == T("0")
    assert span.rank == 0


def test_root_system_additive_over_sums():
    a = root_lattice("A", 2)
    e6 = root_lattice("E", 6)
    ta, _ = root_system(a)
    te, _ = root_system(e6)
    tsum, _ = root_system(direct_sum(a, e6))
    assert tsum == ta + te


def test_root_span_index_trivial():
    assert root_span_index(root_lattice("E", 8)) == 1


def test_cartan_det_is_the_determinant_of_the_cartan_matrix():
    types = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)]
    for sym, n in types:
        assert RootSystemType.of([(sym, n)]).cartan_det() == det(cartan_gram(sym, n))
    assert T("E6^2+A2^2").cartan_det() == 81 and T("0").cartan_det() == 1


def test_span_index_reads_the_index_off_the_determinants():
    # D4 in Z^4 (det 1) at index 2, E6^2+A2^2 at index 3 in a lattice of det 9
    assert span_index(T("D4"), 1) == 2
    assert span_index(T("E6^2+A2^2"), -9) == 3
    assert span_index(T("E8"), 1) == 1
    with pytest.raises(EnumerationError, match="not a square times"):
        span_index(T("E6"), 1)


def test_a_wrong_e6_cartan_determinant_fails_the_certificate(monkeypatch):
    l = conjugate(direct_sum(root_lattice("E", 6), root_lattice("A", 2)), unimodular(8, [(0, 7, 1), (3, 5, -1)]))
    assert root_span_index(l) == 1
    misread_e6_cartan_det(monkeypatch)
    with pytest.raises(EnumerationError, match="det C = 12 of E6\\+A2 is not a square times \\|det\\| = 9"):
        root_span_index(l)


def test_dual_class_min():
    # (m, det G) for the least class norm m / det G
    def least(sym, n):
        return dual_class_min(sym, n), scaled_dual(sym, n)[1]

    assert least("A", 2) == (2, 3)
    assert least("E", 6) == (4, 3)
    with pytest.raises(EnumerationError, match="unimodular"):
        dual_class_min("E", 8)
    # closed forms (Conway-Sloane, SPLAG 4.6-4.8): A_n n/(n+1), D_n min(4, n)/4, E7 3/2
    for n in (1, 3, 5):
        assert least("A", n) == (n, n + 1)
    for n in (4, 5, 6):
        assert least("D", n) == (min(4, n), 4)
    assert least("E", 7) == (3, 2)


def test_complement_a2_in_e8():
    e8 = root_lattice("E", 8)
    # alpha1, alpha3 are adjacent nodes spanning an A2
    s = Sublattice(e8, [[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0]])
    assert complement_root_type(s) == T("E6")


def test_complement_e6_in_e8():
    e8 = root_lattice("E", 8)
    s = Sublattice(e8, IntMatrix.identity(8).submatrix(range(6)))
    assert complement_root_type(s) == T("A2")


def test_complement_a2_in_e6():
    e6 = root_lattice("E", 6)
    s = Sublattice(e6, [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    assert complement_root_type(s) == T("A2^2")


def test_complement_a2a2_in_e8():
    e8 = root_lattice("E", 8)
    s = Sublattice(
        e8,
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 0, 0],
        ],
    )
    assert complement_root_type(s) == T("A2^2")


def test_complement_rejects_non_root_sublattice():
    e8 = root_lattice("E", 8)
    s = Sublattice(e8, [[2, 0, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(LatticeError, match="not spanned by roots"):
        complement_root_type(s)


def test_complement_rejects_roots_of_index_2_in_their_saturation():
    # four orthogonal roots of D4 (e1-e2, e3-e4, e3+e4, e1+e2) span A1^4,
    # itself root-spanned, but the roots of its rational span are all of D4
    s = Sublattice(root_lattice("D", 4), [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 2, 1, 1]])
    assert s.gram() == IntMatrix.identity(4).scale(2)
    for route in (complement_root_type, rational_span_complement_root_type):
        with pytest.raises(LatticeError, match="not spanned by roots"):
            route(s)


def test_tab4_complement_items_need_no_enumeration(monkeypatch):
    # both sides are typed by root_system, which searches without enumerate_norm
    from k3lat import roots
    from k3lat.suites import suite_tab4

    def refuse(l, m):
        raise AssertionError("enumerate_norm called")

    monkeypatch.setattr(roots, "enumerate_norm", refuse)
    items = [i for i in suite_tab4().items if i.id.startswith("complement-")]
    assert [(i.id, i.status) for i in items] == [
        (f"complement-{sub}-in-{amb}", "pass") for sub, amb, _, _ in goldens.COMPLEMENT_FACTS
    ]


def test_tab4_reports_a_wrong_complement_span_as_fail(monkeypatch):
    # alpha1 and alpha2 are not adjacent in E8: they span A1^2, whose complement is D6
    from k3lat.suites import suite_tab4

    (sub, amb, expected, _), *rest = goldens.COMPLEMENT_FACTS
    monkeypatch.setattr(goldens, "COMPLEMENT_FACTS", ((sub, amb, expected, (1, 2)), *rest))
    report = suite_tab4()
    failed = [i.id for i in report.items if i.status != "pass"]
    assert failed == ["complement-A2-in-E8"]
    assert "FAIL complement-A2-in-E8" in report.as_text()
    assert "[computed D6 expected E6]" in report.as_text()


def _complement_outcome(route, s):
    try:
        return str(route(s))
    except LatticeError as exc:
        return str(exc)


@given(
    st.sampled_from(
        [("E", 6), ("E", 7), ("E", 8)]
        + [("D", n) for n in range(4, 9)]
        + [("A", n) for n in range(2, 9)]
    ),
    st.sets(st.integers(0, 7)),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([-1, 1])), max_size=4),
    st.booleans(),
)
@example(("E", 8), set(), [], False)  # S = 0: the complement is all of E8
@example(("E", 8), set(range(8)), [], False)  # S = E8: the complement is empty
@example(("D", 4), {0}, [], True)  # 2 alpha_1 spans no root
def test_complement_root_type_matches_the_rational_span_oracle(atom, chosen, ops, doubled):
    """Sublattices spanned by simple roots, in a changed basis, or with one
    basis row doubled (no longer root-spanned): the two ``root_system``
    reads and the per-root solves give the same type or the same rejection."""
    sym, n = atom
    idx = sorted(i for i in chosen if i < n)
    rows = IntMatrix.identity(n).submatrix(idx)
    if idx:
        rows = unimodular(len(idx), ops) * rows
        if doubled:
            rows = IntMatrix([[2 * x for x in rows.entries[0]]] + list(rows.entries[1:]), cols=n)
    s = Sublattice(root_lattice(sym, n), rows)
    got = _complement_outcome(complement_root_type, s)
    assert got == _complement_outcome(rational_span_complement_root_type, s)


def test_type_parsing_and_str_roundtrip():
    for text in ["E8^2", "E6^2+A2^2*", "A2^6*", "E8+E6+A2", "0"]:
        assert str(T(text)) == text


@pytest.mark.parametrize(
    "text, error",
    [
        ("X3", LatticeError),
        ("E", EnumerationError),
        ("A2^x", EnumerationError),
        ("A2+", EnumerationError),
        ("A2^0", EnumerationError),
        ("E5", LatticeError),
        ("D3", LatticeError),
        ("A0", LatticeError),
    ],
)
def test_type_parsing_raises_typed_errors(text, error):
    # text that is no symbol with an index is an EnumerationError; a name
    # that cartan_gram rejects raises its LatticeError, with its message
    with pytest.raises(error) as raised:
        T(text)
    assert type(raised.value) is error
    if error is LatticeError:
        with pytest.raises(LatticeError) as named:
            cartan_gram(text[0], int(text[1:]))
        assert str(raised.value) == str(named.value)


def test_type_rank_and_counts():
    t = T("E8+E6+A2")
    assert t.rank == 16
    assert t.root_count() == 240 + 72 + 6


# -- properties: random changes of basis of ADE sums -------------------
#
# The lattices are orthogonal sums of ADE root lattices and odd
# unimodular I_k (whose roots +-e_i +- e_j form D_k, spanning an index-2
# sublattice, so the root span is not always the whole lattice), in a
# random basis (``support.changed_basis``).


def expected_type(parts):
    """Root type of a sum of atoms, from the classification rather than a
    computation; the I_k summands merge into one I_n."""
    comps = [a for a in parts if a[0] != "I"]
    n = sum(k for sym, k in parts if sym == "I")
    comps += {0: [], 1: [], 2: [("A", 1)] * 2, 3: [("A", 3)]}.get(n, [("D", n)])
    return RootSystemType.of(comps)


def coefficient_bound(l, m):
    """max_i |x_i| over vectors of norm m: x_i^2 <= m (G^-1)_ii (Cauchy-Schwarz)."""
    ginv = gauss_jordan_inv(l.gram.entries)
    return max(math.isqrt(math.floor(abs(m * ginv[i][i]))) for i in range(l.rank))


def check_enumeration(found, oracle):
    assert found == oracle, f"{len(found)} vectors against {len(oracle)} from the oracle"


@given(changed_basis(SMALL_ATOMS, 5, 4), st.sampled_from([2, 4]), st.sampled_from([1, -1]))
def test_enumerate_norm_matches_box_oracle(data, m, sign):
    l = rescale(data[3], sign)
    check_enumeration(enumerate_norm(l, m), enumerate_norm_box(l, m, coefficient_bound(l, m)))


def test_enumeration_check_rejects_wrong_oracle():
    l = conjugate(root_lattice("D", 4), unimodular(4, [(0, 1, 1), (2, 3, -1)]))
    found = enumerate_norm(l, 4)
    box = enumerate_norm_box(l, 4, coefficient_bound(l, 4))
    check_enumeration(found, box)
    with pytest.raises(AssertionError):
        check_enumeration(found, box[1:])


def check_root_system(rtype, span_rows, want_type, want_rows):
    """Type equal, and the two row sets span one lattice (equal HNF)."""
    assert rtype == want_type, f"{rtype} against {want_type}"
    h, _ = hnf(span_rows)
    w, _ = hnf(want_rows)
    assert [r for r in h.entries if any(r)] == [r for r in w.entries if any(r)]


@given(changed_basis(ROOT_ATOMS, 10, 6), st.sampled_from([1, -1]))
def test_root_system_invariant_under_change_of_basis(data, sign):
    parts, l, u, lu = data
    rtype, span = root_system(rescale(lu, sign))
    # the new span, carried back to the old coordinates, is the old span
    check_root_system(rtype, span.basis * u, expected_type(parts), root_system(l)[1].basis)


def skewed(parts, seed):
    """``changed_basis`` data for the sum of ``parts`` in its Cartan basis
    (seed None) or in a seeded basis of 2n random shears by +-1."""
    l = direct_sum(*map(atom_lattice, parts))
    n = l.rank
    rng = random.Random(seed)
    ops = [] if seed is None else [(rng.randrange(n), rng.randrange(n), rng.choice([1, -1])) for _ in range(2 * n)]
    u = unimodular(n, ops)
    return parts, l, u, conjugate(l, u)


# the search stops early on D24 and E8^2 and runs to the end on E8+I1
STOP_CASES = [
    ([("D", 24)], None),
    ([("D", 24)], 30),
    ([("E", 8), ("E", 8)], None),
    ([("E", 8), ("E", 8)], 30),
    ([("E", 8), ("I", 1)], 30),
]


def item3_skewed_e8_squared(seed):
    """E8^2 in the basis of 96 random shears u_i += c u_j, c in {+-1, +-2},
    of the identity: the skewed inputs of ROADMAP item 3, whose largest
    diagonal entries run from 1.7 * 10^5 to 3.0 * 10^8 over seeds 0-5."""
    rng = random.Random(seed)
    ops = []
    for _ in range(96):
        i, j = rng.sample(range(16), 2)
        ops.append((i, j, rng.choice([-2, -1, 1, 2])))
    return conjugate(direct_sum(root_lattice("E", 8), root_lattice("E", 8)), unimodular(16, ops))


@st.composite
def lll_inputs(draw):
    """Definite forms in a changed basis, of either sign: ADE sums, E8+I1
    (odd, with no basis of roots), and sums with odd unimodular atoms
    rescaled by 2 or 3."""
    kind = draw(st.sampled_from(["ade", "e8+i1", "rescaled"]))
    if kind == "ade":
        l = draw(changed_basis(ADE_ATOMS, 10, 8))[3]
    elif kind == "e8+i1":
        l = conjugate(direct_sum(root_lattice("E", 8), diag_lattice([1])), draw(basis_change(9, 12)))
    else:
        l = rescale(draw(changed_basis(ROOT_ATOMS, 8, 6))[3], draw(st.sampled_from([2, 3])))
    return rescale(l, draw(st.sampled_from([1, -1])))


@settings(max_examples=60, deadline=None)
@given(lll_inputs())
@example(skewed(*STOP_CASES[4])[3])
def test_lll_matches_the_textbook_oracle(l):
    sign = lattice_module.definite_sign(l)
    g, v, lam, d = _definite_reduce(l)
    # the same form and transform as the rational textbook algorithm
    assert (g, v) == fraction_lll(l.gram.scale(sign))
    assert v * l.gram.scale(sign) * v.transpose() == g and abs(det(v)) == 1
    # the handed-over numerators and minors are the elimination of G'
    b, pivots = gram_elimination(g)
    n = l.rank
    assert pivots == d and all(lam[k][j] == b[j][k] for k in range(n) for j in range(k))
    # size-reduced and Lovasz at delta = 3/4, exactly (d_(-1) = 1)
    dm = [1] + pivots
    assert all(2 * abs(b[j][k]) <= dm[j + 1] for k in range(n) for j in range(k))
    assert all(4 * dm[k + 1] * dm[k - 1] >= 3 * dm[k] ** 2 - 4 * b[k - 1][k] ** 2 for k in range(1, n))
    if n <= 4:
        m = 2 * abs(math.gcd(*(x for row in l.gram.entries for x in row)))
        check_enumeration(enumerate_norm(l, m), enumerate_norm_box(l, m, coefficient_bound(l, m)))


@pytest.mark.parametrize(
    "lattice",
    [pytest.param(lambda seed=seed: item3_skewed_e8_squared(seed), id=f"E8^2-item3-{seed}") for seed in range(6)]
    + [
        pytest.param(lambda parts=parts, seed=seed: skewed(parts, seed)[3], id=f"{name}-{seed}")
        for name, parts in (("D24", [("D", 24)]), ("E8^2", [("E", 8), ("E", 8)]))
        for seed in (1, 2, 3, 30, 31)
    ],
)
def test_skewed_root_lattices_reduce_to_a_basis_of_roots(lattice):
    # LLL leaves every skewed basis of D24 and E8^2 a basis of roots, so
    # none is searched, however long its basis vectors
    l = lattice()
    (rtype, span), searches = analysed(l.gram)
    assert (str(rtype) in ("D24", "E8^2"), span, searches) == (True, IntMatrix.identity(l.rank), 0)


def test_roots_of_the_most_skewed_e8_squared_basis_in_a_fresh_process():
    # the reduction in front of the search bounds the command on item 3's
    # seed-0 basis, which took over 20 s before it; a new interpreter runs
    # it under a time limit
    gram = item3_skewed_e8_squared(0).gram.entries
    literal = "gram[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in gram) + "]"
    code = f"from k3lat.cli import main\nmain(['roots', {literal!r}])\n"
    assert run_fresh(code, timeout=5) == "roots      480\ntype       E8^2\nspan rank  16\n"


@given(changed_basis(ROOT_ATOMS, 10, 6), st.sampled_from([1, -1]))
@example(skewed(*STOP_CASES[0]), 1)
@example(skewed(*STOP_CASES[1]), -1)
@example(skewed(*STOP_CASES[2]), 1)
@example(skewed(*STOP_CASES[3]), -1)
@example(skewed(*STOP_CASES[4]), 1)
def test_root_system_matches_pairwise_oracle(data, sign):
    lu = rescale(data[3], sign)
    roots = enumerate_norm(lu, 2)
    rtype, span = root_system(lu)
    # the positive half spans the lattice that all roots span
    half = [r for r in roots if r > (0,) * lu.rank]
    check_root_system(rtype, span.basis, pairwise_root_type(roots, lu.gram), IntMatrix(half, cols=lu.rank))
    # the index from determinants is that of the Hermite span of the roots
    if rtype.rank == lu.rank:
        assert root_span_index(lu) == abs(det(hermite_span(lu.gram)))


# the Cartan bases of STOP_CASES are root bases, which no search reads, so
# the search runs on seeded bases, two of each of D24 and E8^2
SEARCH_STOP_CASES = [(parts, 31 if seed is None else seed) for parts, seed in STOP_CASES]


@pytest.mark.parametrize("parts,seed", SEARCH_STOP_CASES)
def test_root_analysis_stops_at_the_last_simple_root(parts, seed):
    # the search, fed to the scan, stops at the rank-th simple root: early
    # on D24 and E8^2, and at the end on E8+I1, whose roots span rank 8 of
    # 9.  LLL leaves D24 and E8^2 a basis of roots, so the analysis runs no
    # search there and the search alone is checked; E8+I1 has no basis of
    # roots, and the analysis's own search is checked
    lu = skewed(parts, seed)[3]
    scanned = []
    (rtype, _), searches = analysed(lu.gram, scanned)
    positive = rtype.root_count() // 2
    if rtype.rank == lu.rank:
        assert searches == 0 and scanned == []
        simple = []
        scan = _simple_scan(lu.rank, simple)
        _reduced_search(_definite_reduce(lu), 2, lambda key, x: scanned.append(key) or scan(key, x))
        assert len(simple) == rtype.rank
        assert positive in (552, 240) and 0 < len(scanned) < positive
    else:
        assert searches == 1 and (str(rtype), len(scanned)) == ("E8", positive)


@pytest.mark.parametrize("index", range(3))
def test_the_search_of_a_starred_glued_part_stops_at_the_last_simple_root(index):
    # a starred part has index 3 over its root span, so no basis of roots:
    # the analysis searches it once, and the search stops at the rank-th
    # simple root, before its last positive root
    l = starred_glue_parts()[index]
    scanned = []
    (rtype, _), searches = analysed(l.gram, scanned)
    positive = rtype.root_count() // 2
    assert (searches, rtype.rank) == (1, l.rank) and 0 < len(scanned) < positive


@cache
def starred_glue_parts():
    """The three starred glued primitive parts."""
    from k3lat.kulikov import ComponentSpec, build_component, glue_lambda

    return [
        glue_lambda(build_component(ComponentSpec(*s0)), build_component(ComponentSpec(*s1))).prim.lattice()
        for pairings in goldens.GLUE_PAIRINGS.values()
        for s0, s1, _, starred in pairings
        if starred
    ]


@st.composite
def sheared_sums(draw):
    """A sum of ADE root lattices in a basis changed by up to 12 shears by
    +-1 or +-2."""
    parts = draw(st.lists(st.sampled_from(ADE_ATOMS), min_size=1, max_size=3).filter(lambda ps: sum(n for _, n in ps) <= 12))
    l = direct_sum(*map(atom_lattice, parts))
    index = st.integers(0, l.rank - 1)
    return conjugate(l, unimodular(l.rank, draw(st.lists(st.tuples(index, index, st.sampled_from([1, -1, 2, -2])), max_size=12))))


@st.composite
def rescaled_sums(draw):
    """A sum of ADE and odd unimodular atoms in a changed basis, rescaled
    by +-2 or +-3."""
    return rescale(draw(changed_basis(ROOT_ATOMS, 12, 6))[3], draw(st.sampled_from([2, 3, -2, -3])))


@settings(max_examples=100)
@given(
    st.one_of(
        changed_basis(ADE_ATOMS, 12, 8).map(lambda data: data[3]),
        sheared_sums(),
        signed_permuted_root_bases(),
        rescaled_sums(),
        st.integers(0, 2).map(lambda i: starred_glue_parts()[i]),
    ),
    st.sampled_from([1, -1]),
)
# a basis of roots from two long rows (see the elimination test)
@example(conjugate(direct_sum(root_lattice("E", 6), root_lattice("A", 2)), unimodular(8, [(5, 3, -2), (6, 3, 2)])), 1)
@example(skewed([("E", 8), ("E", 8)], 31)[3], -1)
@example(skewed([("D", 24)], 30)[3], 1)
def test_root_analysis_matches_the_search_route(l, sign):
    # the reduced basis of roots, the content shortcut and the search
    # all give the type and the span of the search alone
    gram = rescale(l, sign).gram
    assert roots_module._root_analysis.__wrapped__(gram) == searched_root_analysis(gram)


def test_root_system_check_rejects_wrong_oracle():
    u = unimodular(9, [(0, 6, 1), (7, 2, -1), (8, 7, 1)])
    lu = conjugate(direct_sum(root_lattice("E", 6), diag_lattice([1, 1, 1])), u)
    rtype, span = root_system(lu)
    want_rows = IntMatrix(enumerate_norm(lu, 2), cols=9)
    check_root_system(rtype, span.basis, T("E6+A3"), want_rows)
    with pytest.raises(AssertionError):
        check_root_system(rtype, span.basis, T("E6+A1^3"), want_rows)
    with pytest.raises(AssertionError):
        check_root_system(rtype, span.basis, T("E6+A3"), span.basis.scale(2))


@given(changed_basis(ROOT_ATOMS, 10, 6))
def test_search_order_is_a_positive_system(data):
    # the search finds the roots with positive last nonzero coordinate in
    # the reduced basis, in ascending reverse-lexicographic order, under
    # keys that are exact on differences; the scan, fed them as they are
    # found and stopped at the rank-th simple root, returns the tuple
    # oracle's simple roots of that positive system, in order
    lu = data[3]
    n = lu.rank
    found, simple = [], []
    scan = _simple_scan(n, simple)
    _reduced_search(_definite_reduce(lu), 2, lambda key, x: found.append((key, tuple(x))))
    reduced = _definite_reduce(lu)
    assert _reduced_search(reduced, 2, scan) is None
    gram_red, v, _, d = reduced
    # the last pivot of the reduced form's elimination is its determinant
    assert d[-1] == det(gram_red) == abs(det(lu.gram))
    v_inv = IntMatrix([[int(c) for c in row] for row in gauss_jordan_inv(v.entries)])
    closed = list((IntMatrix(enumerate_norm(lu, 2), cols=n) * v_inv).entries)
    half = [r for _, r in found]
    assert sorted(half, key=lambda r: r[::-1]) == half
    assert sorted(half + [tuple(-c for c in r) for r in half]) == sorted(closed)
    by_key = dict(found)
    key = {r: k for k, r in found}
    assert list(by_key) == sorted(by_key) and len(by_key) == len(half)
    for r in half:
        for t in half:
            diff = tuple(a - b for a, b in zip(r, t))
            assert by_key.get(key[r] - key[t]) == (diff if diff in key else None)
    flip = IntMatrix([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    _, want = tuple_root_decomposition([r[::-1] for r in closed], flip * gram_red * flip)
    assert simple == [r[::-1] for r in want]


@pytest.mark.parametrize(
    "sym,n",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 10)] + [("E", n) for n in (6, 7, 8)],
)
def test_diagram_type_of_each_cartan_matrix(sym, n):
    # the nodes permuted, alone and beside an A2 on interleaved nodes: the
    # determinant rule names what the Dynkin-diagram oracle names
    c = cartan_gram(sym, n).entries
    order = random.Random(n).sample(range(n), n)
    permuted = [[c[i][j] for j in order] for i in order]
    assert root_basis_type(permuted) == diagram_type(permuted) == RootSystemType.of([(sym, n)])
    both = direct_sum(Lattice(IntMatrix(permuted)), root_lattice("A", 2)).gram.entries
    order = [n] + list(range(n)) + [n + 1]
    interleaved = [[both[i][j] for j in order] for i in order]
    assert root_basis_type(interleaved) == diagram_type(interleaved) == RootSystemType.of([(sym, n), ("A", 2)])


@pytest.mark.parametrize("parts", [[("A", 3), ("D", 4)], [("E", 6), ("A", 1), ("A", 1)], [("D", 5), ("A", 3)], [("E", 7), ("A", 1)]])
def test_root_basis_type_of_a_sum_of_cartan_matrices(parts):
    # a sum of rank <= 8 with its nodes shuffled across the summands
    c = direct_sum(*(root_lattice(*p) for p in parts)).gram.entries
    order = random.Random(len(c)).sample(range(len(c)), len(c))
    shuffled = [[c[i][j] for j in order] for i in order]
    assert root_basis_type(shuffled) == diagram_type(shuffled) == RootSystemType.of(parts)


def test_root_basis_type_of_bases_of_roots_that_are_not_simple():
    # the triangle with every pairing 1 has no Dynkin diagram; LLL hands over
    # reduced bases of roots with positive pairings: each is typed as the
    # pairwise oracle types all roots of its lattice
    triangle = Lattice([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
    e6a2 = direct_sum(root_lattice("E", 6), root_lattice("A", 2))
    d5a3 = direct_sum(root_lattice("D", 5), root_lattice("A", 3))
    cases = [
        triangle,
        conjugate(e6a2, unimodular(8, [(5, 3, -2), (6, 3, 2)])),
        conjugate(e6a2, unimodular(8, [(6, 1, 2), (0, 1, -2), (2, 0, -2), (1, 5, -2)])),
        conjugate(d5a3, unimodular(8, [(0, 7, 3), (4, 2, -1), (6, 1, 2)])),
        conjugate(root_lattice("E", 8), unimodular(8, [(7, 0, 2), (3, 5, -3), (1, 6, 1)])),
    ]
    for l in cases:
        reduced = _definite_reduce(l)[0].entries
        assert all(row[k] == 2 for k, row in enumerate(reduced))
        assert root_basis_type(reduced) == pairwise_root_type(enumerate_norm(l, 2), l.gram)


def diagram(n, edges):
    """Cartan matrix with nodes 0..n-1 and the given edges."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = c[j][i] = -1
    return c


@pytest.mark.parametrize(
    "cartan",
    [
        diagram(3, [(0, 1), (1, 2), (2, 0)]),  # affine A2: a cycle
        diagram(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # affine D4: four arms
        diagram(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),  # affine D5: two branch nodes
        diagram(9, [(0, 1), (1, 2), (1, 3), (3, 4), (2, 5), (5, 6), (6, 7), (7, 8)]),  # affine E8: arms (1, 2, 5)
        diagram(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),  # affine E6: arms (2, 2, 2)
    ],
)
def test_diagram_type_rejects_non_ade_diagrams(cartan):
    # the oracle names no affine diagram, so a comparison against it can fail
    with pytest.raises(EnumerationError):
        diagram_type(cartan)


# -- one analysis per Gram matrix, integer rounding ----------------------


@given(
    st.integers(-(10**30), 10**30),
    st.integers(-(10**6), 10**6).filter(bool),
    st.booleans(),
)
@example(0, 1, True)  # 1/2 -> 0
@example(1, 1, True)  # 3/2 -> 2
@example(-1, 1, True)  # -1/2 -> 0
@example(3, -1, True)  # 7/-2 -> -4
@example(-7, 3, False)  # -7/3 -> -2
def test_round_div_is_fraction_round(a, b, tie):
    if tie:  # a / b = a' + 1/2 exactly, for either sign of a' and b
        a, b = (2 * a + 1) * b, 2 * b
    assert _round_div(a, b) == round(Fraction(a, b))


def test_root_system_is_shared_by_equal_gram_matrices():
    gram = direct_sum(root_lattice("E", 6), root_lattice("A", 2)).gram
    l1, l2 = Lattice(gram), Lattice(IntMatrix(gram.entries))
    t1, s1 = root_system(l1)
    t2, s2 = root_system(l2)
    assert t1 == t2 == T("E6+A2")
    assert s1.basis == s2.basis and s1.rank == 8
    assert s1.ambient is l1 and s2.ambient is l2


@given(changed_basis(ROOT_ATOMS, 12, 8), st.sampled_from([1, -1]))
@example(skewed(*STOP_CASES[4]), 1)  # E8+I1: the roots span rank 8 of 9
def test_identity_span_matches_the_hermite_route(data, sign):
    gram = rescale(data[3], sign).gram
    assert roots_module._root_analysis.__wrapped__(gram)[1] == hermite_span(gram)


def test_identity_span_matches_the_hermite_route_on_the_benchmark_inputs():
    # every Gram matrix whose roots the three benchmark workloads analyse
    # (the suites and the seed-1 query stream), in one cold interpreter;
    # both routes are taken, and each gives the Hermite route's basis
    root = Path(__file__).resolve().parent.parent
    out = run_fresh(
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'bench')!r}, {str(root / 'tests')!r}]\n"
        "from queries import make_stream\n"
        "from k3lat import cli, lattice, roots, suites\n"
        "from k3lat.exactla import IntMatrix\n"
        "grams, real = [], roots._root_analysis\n"
        "roots._root_analysis = lambda g: grams.append(g) or real(g)\n"
        "suites.run_suites('all')\n"
        "for q in make_stream(1):\n"
        "    lat = cli.parse_lattice_expr(q.text)\n"
        "    p, n, r = lattice.signature_with_radical(lat)\n"
        "    if p == 0 or n == 0:\n"
        "        roots.root_system(lat)\n"
        "from support import hermite_span\n"
        "for g in dict.fromkeys(grams):\n"
        "    span = real(g)[1]\n"
        "    print(span == hermite_span(g), span == IntMatrix.identity(g.rows))\n"
    )
    pairs = [tuple(line.split()) for line in out.splitlines()]
    assert len(pairs) > 100 and all(same == "True" for same, _ in pairs)
    assert {identity for _, identity in pairs} == {"True", "False"}


def test_only_an_index_other_than_1_takes_the_hermite_route(monkeypatch):
    from k3lat.cusps import family_data, isotropic_plane
    from k3lat.lattice import quotient_by_isotropic

    e = goldens.DIRECT_WITNESSES[(0, 1)]["E6^2+A2^2*"]
    starred = quotient_by_isotropic(isotropic_plane(family_data(0, 1).rho_t, e)).lattice
    # index 1 reads no det and no Hermite form; the starred quotient takes
    # one Hermite form, of its 16 simple roots
    calls = watch_exactla(monkeypatch, "det", "hermite_basis")
    e8 = conjugate(root_lattice("E", 8), unimodular(8, [(0, 7, 2), (5, 1, -1)]))
    for unstarred in [e8] + [skewed(*case)[3] for case in STOP_CASES[:4]]:
        assert roots_module._root_analysis.__wrapped__(unstarred.gram)[1] == IntMatrix.identity(unstarred.rank)
    assert calls == []
    rtype, span = roots_module._root_analysis.__wrapped__(starred.gram)
    assert calls == ["hermite_basis"]
    assert (str(rtype), abs(det(span))) == ("E6^2+A2^2", 3)

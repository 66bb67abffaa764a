import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from k3lat.exactla import IntMatrix, hnf, rank as int_rank
from k3lat.lattice import (
    Lattice,
    Sublattice,
    diag_lattice,
    direct_sum,
    hyperbolic,
    rescale,
    root_lattice,
)
from k3lat.roots import (
    EnumerationError,
    RootSystemType,
    _round_div,
    complement_root_type,
    dual_class_min,
    enumerate_norm,
    root_decomposition,
    root_span_index,
    root_system,
)
from support import (
    ROOT_ATOMS,
    SMALL_ATOMS,
    changed_basis,
    conjugate,
    enumerate_norm_box,
    gauss_jordan_inv,
    restrict_to_box,
    unimodular,
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


def test_dual_class_min():
    assert dual_class_min("A", 2) == Fraction(2, 3)
    assert dual_class_min("E", 6) == Fraction(4, 3)
    with pytest.raises(EnumerationError, match="unimodular"):
        dual_class_min("E", 8)
    # closed forms (Conway-Sloane, SPLAG 4.6-4.8): A_n n/(n+1), D_n min(1, n/4), E7 3/2
    for n in (1, 3, 5):
        assert dual_class_min("A", n) == Fraction(n, n + 1)
    for n in (4, 5, 6):
        assert dual_class_min("D", n) == min(Fraction(1), Fraction(n, 4))
    assert dual_class_min("E", 7) == Fraction(3, 2)


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
    with pytest.raises(Exception):
        complement_root_type(s)


def test_type_parsing_and_str_roundtrip():
    for text in ["E8^2", "E6^2+A2^2*", "A2^6*", "E8+E6+A2", "0"]:
        assert str(T(text)) == text


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


def pairwise_root_type(roots, gram):
    """Oracle: components of the graph 'pairing is nonzero' over all pairs
    of roots (union-find), each identified by its rank and root count."""
    lat = Lattice(gram)
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if lat.pair(roots[i], roots[j]) != 0:
                parent[find(i)] = find(j)
    groups = {}
    for i, r in enumerate(roots):
        groups.setdefault(find(i), []).append(r)
    comps = []
    for vecs in groups.values():
        k, count = int_rank(IntMatrix(vecs)), len(vecs)
        if count == k * (k + 1):
            comps.append(("A", k))
        elif count == 2 * k * (k - 1):
            comps.append(("D", k))
        else:
            comps.append(("E", k))
    return RootSystemType.of(comps)


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


@given(changed_basis(ROOT_ATOMS, 10, 6), st.sampled_from([1, -1]))
def test_root_system_matches_pairwise_oracle(data, sign):
    lu = rescale(data[3], sign)
    roots = enumerate_norm(lu, 2)
    rtype, span = root_system(lu)
    check_root_system(rtype, span.basis, pairwise_root_type(roots, lu.gram), IntMatrix(roots, cols=lu.rank))


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
def test_root_decomposition_matches_pairwise_oracle(data):
    # on the whole root system and on the roots orthogonal to one simple
    # root, which are again closed under negation and their reflections
    lu = data[3]
    roots = enumerate_norm(lu, 2)
    rtype, simple = root_decomposition(roots, lu.gram)
    assert rtype == pairwise_root_type(roots, lu.gram)
    perp = [r for r in roots if lu.pair(r, simple[0]) == 0]
    assert root_decomposition(perp, lu.gram)[0] == pairwise_root_type(perp, lu.gram)


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

import math
import random
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from k3lat import exactla
from k3lat.exactla import (
    ExactLAError,
    IntMatrix,
    det,
    hermite_basis,
    hnf,
    index_in,
    int_express,
    kernel_basis,
    rank,
    rat_express,
    rat_mul,
    saturate,
    SnfResult,
    snf,
)
from support import _det, gauss_jordan_express, gauss_jordan_inv, hermite_snf


def test_hnf_identity():
    a = IntMatrix.identity(3)
    h, u = hnf(a)
    assert h == a
    assert u == a


def test_hnf_already_diagonal():
    a = IntMatrix([[2, 0], [0, 2]])
    h, u = hnf(a)
    assert h == a
    assert u * a == h


def test_hnf_row_swap():
    a = IntMatrix([[0, 3], [3, 0]])
    h, u = hnf(a)
    assert h == IntMatrix([[3, 0], [0, 3]])
    assert u * a == h
    assert abs(det(u)) == 1


def test_snf_u3_gram():
    res = snf(IntMatrix([[0, 3], [3, 0]]))
    assert res.d == (3, 3)


def test_snf_u_gram():
    res = snf(IntMatrix([[0, 1], [1, 0]]))
    assert res.d == (1, 1)


def test_snf_zero_matrix():
    res = snf(IntMatrix.zero(2, 2))
    assert res.d == (0, 0)


def test_kernel_identity_empty():
    k = kernel_basis(IntMatrix.identity(4))
    assert k.rows == 0


def test_kernel_one_relation():
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.rows == 1
    assert tuple(map(abs, k.entries[0])) == (1, 1)
    assert sum(k.entries[0]) == 0


def test_kernel_2x4():
    k = kernel_basis(IntMatrix([[2, 4]]))
    # 2x + 4y = 0 over Z has primitive solution (2, -1)
    assert k.rows == 1
    x, y = k.entries[0]
    assert 2 * x + 4 * y == 0
    assert abs(x) == 2 and abs(y) == 1


def test_saturate_scalar():
    s = saturate(IntMatrix([[2, 0]]))
    assert s == IntMatrix([[1, 0]])


def test_saturate_already_saturated():
    s = saturate(IntMatrix([[1, 0]]))
    assert s == IntMatrix([[1, 0]])


def test_saturate_rank_two():
    # full-rank rows span all of Q^2, so the saturation is Z^2 itself
    s = saturate(IntMatrix([[2, 2], [0, 4]]))
    assert s == IntMatrix.identity(2)
    assert index_in(IntMatrix([[2, 2], [0, 4]]), s) == 8


def test_saturate_proper_sublattice():
    # rank-1 case where saturation strictly divides out the content
    s = saturate(IntMatrix([[2, 4, 6]]))
    assert s == IntMatrix([[1, 2, 3]])


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ExactLAError):
        saturate(IntMatrix([[1, 2], [2, 4]]))


def test_index_in():
    sub = IntMatrix([[2, 0], [0, 3]])
    sup = IntMatrix.identity(2)
    assert index_in(sub, sup) == 6


def test_int_express_roundtrip():
    basis = IntMatrix([[1, 2, 0], [0, 1, 1]])
    targets = IntMatrix([[2, 5, 1], [1, 2, 0]])
    c = int_express(targets, basis)
    assert c * basis == targets


def test_rat_express_detects_outside_span():
    one, zero = Fraction(1), Fraction(0)
    with pytest.raises(ExactLAError):
        rat_express(((zero, zero, one),), ((one, zero, zero),))


def test_rat_mul_inverts_rat_express():
    a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3, 2)))
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    inv = rat_express(identity, a)
    assert inv == ((Fraction(3, 4), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1)))
    assert rat_mul(inv, a) == identity


@pytest.mark.parametrize("seed", range(6))
def test_snf_random_transform_identity(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    res = snf(a)
    prod = res.left * a * res.right
    for i in range(m):
        for j in range(n):
            expect = res.d[i] if (i == j and i < len(res.d)) else 0
            assert prod.entries[i][j] == expect
    for i in range(len(res.d) - 1):
        if res.d[i] != 0:
            assert res.d[i + 1] % res.d[i] == 0
        else:
            assert res.d[i + 1] == 0
    assert abs(det(res.left)) == 1
    assert abs(det(res.right)) == 1


@pytest.mark.parametrize("seed", range(6))
def test_saturation_idempotent_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(2, 6)
    k = rng.randint(1, n)
    while True:
        rows = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        if rank(rows) == k:
            break
    s = saturate(rows)
    assert saturate(s) == s
    # the saturation index is the product of the elementary divisors of
    # the inclusion, hence finite and positive
    assert index_in(rows, s) >= 1


def test_kernel_rows_annihilate_and_are_saturated():
    a = IntMatrix([[1, 2, 3], [2, 4, 6]])
    k = kernel_basis(a)
    assert (k * a.transpose()).is_zero()
    assert saturate(k) == k


# -- properties against oracles -----------------------------------------


def outcome(fn, *args):
    """The result of ``fn``, or the message of the ExactLAError it raised."""
    try:
        return fn(*args)
    except ExactLAError as e:
        return str(e)


small = st.integers(-4, 4)
ratio = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 6]))


@st.composite
def linear_systems(draw, kind, entries=ratio):
    """A basis with targets: combinations of its rows (``inside``), plus
    one free target (``outside``, mostly outside the span), or with an
    extra row dependent on the first two (``dependent``)."""
    n = draw(st.integers(2 if kind == "dependent" else 1, 5))
    k = draw(st.integers({"inside": 0, "outside": 1, "dependent": 2}[kind], n))
    basis = [[draw(entries) for _ in range(n)] for _ in range(k)]
    if kind == "dependent":
        c = draw(entries)
        basis.append([x + c * y for x, y in zip(basis[0], basis[1])])
    targets = []
    for _ in range(draw(st.integers(1, 3)) if basis else 1):
        coeffs = [draw(entries) for _ in basis]
        targets.append([sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n)])
    if kind == "outside":
        targets.insert(draw(st.integers(0, len(targets))), [draw(entries) for _ in range(n)])
    return tuple(map(tuple, targets)), tuple(map(tuple, basis))


def check_express(found, targets, basis, oracle):
    """Same coefficients (or error message) as the oracle, and the
    coefficients reproduce every target."""
    assert found == oracle, f"{found} against {oracle}"
    if not isinstance(found, str):
        for c, t in zip(found, targets):
            assert tuple(sum(x * row[j] for x, row in zip(c, basis)) for j in range(len(t))) == t


KINDS = ["inside", "outside", "dependent"]


def check_rat_express(targets, basis):
    found = outcome(rat_express, targets, basis)
    check_express(found, targets, basis, outcome(gauss_jordan_express, targets, basis))


def check_int_express(targets, basis):
    """``int_express`` on the rows scaled to integers, against the oracle
    with a non-integral answer read as its error message."""
    scale = math.lcm(*(Fraction(x).denominator for row in targets + basis for x in row))
    n = len(targets[0])
    t = IntMatrix([[int(scale * x) for x in row] for row in targets], cols=n)
    b = IntMatrix([[int(scale * x) for x in row] for row in basis], cols=n)
    oracle = outcome(gauss_jordan_express, t.entries, b.entries)
    if not isinstance(oracle, str) and any(x.denominator != 1 for row in oracle for x in row):
        oracle = "coefficients are not integral"
    found = outcome(int_express, t, b)
    if not isinstance(found, str):
        found = tuple(tuple(Fraction(x) for x in row) for row in found.entries)
    check_express(found, t.entries, b.entries, oracle)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_rat_express_matches_gauss_jordan(kind, data):
    check_rat_express(*data.draw(linear_systems(kind)))


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_int_express_matches_gauss_jordan(kind, data):
    check_int_express(*data.draw(linear_systems(kind, small | ratio)))


# Systems (targets, basis) whose Bareiss elimination of [basis^T | targets^T]
# meets a row with multiplier f = 0.  Pivots 2, 2, 2: step 0 rescales the
# rows below (p = 2, prev = 1), step 1 leaves the last row as it is (p = prev).
EQUAL_PIVOTS = (((3, 1, 0), (1, 0, 0)), ((2, 0, 0), (1, 1, 0), (0, 0, 1)))
# Pivots 2, 3, 3: step 1 rescales the last row by 3/2 before it becomes the
# third pivot row, so the denominator is det(basis) = 3 only with the rescale.
RESCALED = (((3, 3, 2), (1, -1, 0), (1, 0, 0)), ((2, 1, 2), (1, 2, 1), (0, 0, 1)))


@given(linear_systems("inside", small))
@example(EQUAL_PIVOTS)
@example(RESCALED)
def test_bareiss_row_skips_match_gauss_jordan(system):
    check_rat_express(*system)
    check_int_express(*system)


@st.composite
def echelon_systems(draw):
    """A Hermite basis of random rows with targets of one kind: integral
    combinations of it (``integral``), a row that the basis holds only
    times 2 or 3 (``fraction``, mostly a non-integral combination), or a
    free vector (``outside``, mostly outside the span)."""
    n = draw(st.integers(1, 5))
    rows = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(1, 4)))]
    kind = draw(st.sampled_from(["integral", "fraction", "outside"]))
    first = rows[0]
    if kind == "fraction":
        rows[0] = [draw(st.sampled_from([2, 3])) * x for x in first]
    basis = hermite_basis(rows, n).entries
    if kind == "integral":
        coeffs = st.lists(small, min_size=len(basis), max_size=len(basis))
        targets = [
            [sum(c * row[j] for c, row in zip(cs, basis)) for j in range(n)]
            for cs in draw(st.lists(coeffs, min_size=1, max_size=3))
        ]
    else:
        targets = [first if kind == "fraction" else [draw(small) for _ in range(n)]]
    return tuple(map(tuple, targets)), basis


@given(echelon_systems())
@example((((1, 1),), ((2, 2),)))  # the pivot 2 does not divide 1
@example((((1, 1, 0),), ((1, 0, 0), (0, 0, 2))))  # exact divisions leave a residual
def test_int_express_on_echelon_bases(system):
    targets, basis = system
    with mock.patch.object(exactla, "_solve", wraps=exactla._solve) as solve:
        check_int_express(targets, basis)
    # substitution solves every integral system, and Bareiss every other
    n = len(targets[0])
    found = outcome(int_express, IntMatrix(targets, cols=n), IntMatrix(basis, cols=n))
    assert solve.called == isinstance(found, str)


square = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square)
def test_scaled_inverse_matches_gauss_jordan(rows):
    """``C * A = det(A) * I`` solved by ``int_express``: ``det(A) * A^-1``
    for a nonsingular ``A``, and dependent basis rows for a singular one."""
    n = len(rows)
    d = _det(rows)
    found = outcome(int_express, IntMatrix.identity(n).scale(d), IntMatrix(rows, cols=n))
    oracle = outcome(gauss_jordan_inv, rows)
    if isinstance(oracle, str):
        assert (found, oracle) == ("basis rows are dependent", "singular matrix")
    else:
        assert found.entries == tuple(tuple(d * x for x in row) for row in oracle)


def test_express_check_rejects_wrong_oracle():
    basis = ((Fraction(1), Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2), Fraction(1)))
    targets = ((Fraction(1), Fraction(5, 2), Fraction(1)),)
    found = rat_express(targets, basis)
    check_express(found, targets, basis, gauss_jordan_express(targets, basis))
    with pytest.raises(AssertionError):
        check_express(found, targets, basis, ((Fraction(1), Fraction(2)),))
    with pytest.raises(AssertionError):
        check_express(found, targets, basis, "target outside rational span of basis")
    # coefficients that agree with a wrong oracle still fail the reconstruction
    with pytest.raises(AssertionError):
        check_express(((Fraction(1), Fraction(2)),), targets, basis, ((Fraction(1), Fraction(2)),))


def test_express_messages():
    e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    assert outcome(rat_express, (e1,), (e1, e1)) == "basis rows are dependent"
    assert outcome(rat_express, (e2,), (e1,)) == "target outside rational span of basis"
    assert outcome(rat_express, (e1,), ()) == "target outside span of empty basis"
    singular = outcome(int_express, IntMatrix.zero(2, 2), IntMatrix([[1, 2], [2, 4]]))
    assert singular == "basis rows are dependent"
    not_integral = outcome(int_express, IntMatrix([[1, 0]]), IntMatrix([[2, 0]]))
    assert not_integral == "coefficients are not integral"


int_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-9, 9) | st.just(0), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0],
        max_size=mn[0],
    )
)


def is_hermite(h):
    """Pivots positive and strictly to the right row by row, entries above
    a pivot reduced into [0, pivot), zero rows at the bottom."""
    last = -1
    seen_zero = False
    for i, row in enumerate(h.entries):
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            seen_zero = True
            continue
        c = nz[0]
        if seen_zero or c <= last or row[c] <= 0:
            return False
        if any(not 0 <= h.entries[r][c] < row[c] for r in range(i)):
            return False
        last = c
    return True


def check_hnf(a, h, u, oracle_rows):
    """U*A = H with U unimodular, H in Hermite form, and H spans the same
    lattice as the oracle's generators (whose Hermite form is H)."""
    assert u * a == h
    assert abs(det(u)) == 1
    assert is_hermite(h)
    want = hnf(IntMatrix(oracle_rows, cols=a.cols))[0]
    assert [r for r in want.entries if any(r)] == [r for r in h.entries if any(r)]


def sympy_row_lattice(a):
    """Generators of the row lattice of ``a``: the columns of sympy's
    Hermite form of ``a^T``."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    hs = hermite_normal_form(sympy.Matrix(a.transpose().entries))
    return [list(map(int, hs.col(j))) for j in range(hs.cols)]


@given(int_matrices)
def test_hnf_contract_and_sympy_oracle(rows):
    a = IntMatrix(rows)
    h, u = hnf(a)
    check_hnf(a, h, u, sympy_row_lattice(a) if any(map(any, rows)) else [])


def check_snf(a, res, oracle_d):
    """left*A*right = diag(d), both transforms unimodular, right_inv the
    inverse of right, d_i | d_(i+1) with zeros last, and d equal to the
    oracle's invariant factors."""
    m, n = a.rows, a.cols
    prod = res.left * a * res.right
    assert all(
        prod.entries[i][j] == (res.d[i] if i == j else 0) for i in range(m) for j in range(n)
    )
    assert abs(det(res.left)) == 1 and abs(det(res.right)) == 1
    assert res.right * res.right_inv == IntMatrix.identity(n)
    for x, y in zip(res.d, res.d[1:]):
        assert (y % x == 0) if x else y == 0
    assert res.d == tuple(oracle_d)


def sympy_invariant_factors(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    s = smith_normal_form(sympy.Matrix(a.entries), domain=ZZ)
    return [abs(int(s[i, i])) for i in range(min(a.rows, a.cols))]


@given(int_matrices)
def test_snf_contract_and_sympy_oracle(rows):
    a = IntMatrix(rows)
    check_snf(a, snf(a), sympy_invariant_factors(a))


def test_normal_form_checks_reject_wrong_oracle():
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    res = snf(a)
    check_snf(a, res, sympy_invariant_factors(a))
    assert res.d == (2, 6, 12)
    with pytest.raises(AssertionError):
        check_snf(a, res, [2, 2, 36])
    h, u = hnf(a)
    check_hnf(a, h, u, sympy_row_lattice(a))
    with pytest.raises(AssertionError):
        check_hnf(a, h, u, [[2 * x for x in row] for row in sympy_row_lattice(a)])
    assert not is_hermite(IntMatrix([[1, 3], [0, 2]]))
    assert not is_hermite(IntMatrix([[0, 0], [0, 2]]))


@given(int_matrices)
@example([[2, 0], [0, 3]])
@example([[-4, 0, 0], [0, -6, 0]])
def test_snf_matches_hermite_oracle(rows):
    a = IntMatrix(rows)
    oracle = hermite_snf(a)
    check_snf(a, oracle, sympy_invariant_factors(a))
    check_snf(a, snf(a), oracle.d)


# (matrix, invariant factors): the divisibility repair, empty shapes and
# negative pivots
PINNED_SNF = [
    (IntMatrix([[2, 0], [0, 3]]), (1, 6)),
    (IntMatrix([[3, 0], [0, 2]]), (1, 6)),
    (IntMatrix([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), (2, 2, 60)),
    (IntMatrix([], cols=0), ()),
    (IntMatrix([], cols=3), ()),
    (IntMatrix([[], [], []]), ()),
    (IntMatrix([[-3]]), (3,)),
    (IntMatrix([[-2, 0], [0, -4]]), (2, 4)),
    (IntMatrix([[0, -5], [-5, 0]]), (5, 5)),
    (IntMatrix([[-6, -4], [-4, -6]]), (2, 10)),
]


@pytest.mark.parametrize("a,d", PINNED_SNF)
def test_snf_pinned_cases(a, d):
    res = snf(a)
    check_snf(a, res, d)
    assert hermite_snf(a).d == d
    assert (res.left.rows, res.right.rows) == (a.rows, a.cols)


def test_snf_pinned_lattices():
    from k3lat.cusps import build_niemeier, family_data

    # family T lattices: 3-elementary with a = 0, 2, 3, 4
    for (n, k), a in {(0, 2): 0, (0, 1): 2, (1, 1): 3, (2, 1): 4}.items():
        g = family_data(n, k).t.gram
        check_snf(g, snf(g), (1,) * (g.rows - a) + (3,) * a)
    model = build_niemeier("E6^4")
    check_snf(model.n.gram, snf(model.n.gram), (1,) * 24)  # the glue is unimodular
    check_snf(model.r.gram, snf(model.r.gram), (1,) * 20 + (3,) * 4)


def test_snf_check_rejects_skipped_repair():
    a = IntMatrix([[2, 0], [0, 3]])
    # a diagonal certificate without the divisibility repair
    unrepaired = SnfResult((2, 3), IntMatrix.identity(2), IntMatrix.identity(2), IntMatrix.identity(2))
    with pytest.raises(AssertionError):
        check_snf(a, unrepaired, (2, 3))
    with pytest.raises(AssertionError):
        check_snf(a, snf(a), (2, 3))
    flipped = snf(a)
    flipped = SnfResult(flipped.d, flipped.left.scale(-1), flipped.right, flipped.right_inv)
    with pytest.raises(AssertionError):
        check_snf(a, flipped, (1, 6))


def test_snf_check_rejects_corrupted_right_inv():
    a = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    res = snf(a)
    check_snf(a, res, (2, 6, 12))
    # one entry off, and the right transform itself in place of its inverse
    bad = [list(row) for row in res.right_inv.entries]
    bad[0][2] += 1
    for wrong in (IntMatrix(bad), res.right):
        assert wrong != res.right_inv
        with pytest.raises(AssertionError):
            check_snf(a, SnfResult(res.d, res.left, res.right, wrong), (2, 6, 12))


# -- IntMatrix entries, product and transpose --------------------------


def test_intmatrix_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(3, 2), 2]])
    with pytest.raises(TypeError):
        IntMatrix([[1, 2.9]])
    with pytest.raises(TypeError):
        IntMatrix([[2.0]])
    m = IntMatrix([[True, 2], [False, -1]])
    assert m.entries == ((1, 2), (0, -1))
    assert all(type(x) is int for row in m.entries for x in row)


def test_derived_matrices_hold_ints_and_reject_non_integers():
    a = IntMatrix([[1, 2], [3, 4]])
    derived = [
        IntMatrix.identity(2),
        IntMatrix.zero(2, 3),
        IntMatrix.diagonal([True, -2]),
        a + a,
        a - a,
        a.scale(True),
        a.stack(a),
        a.submatrix([1], [0]),
    ]
    assert all(type(x) is int for m in derived for row in m.entries for x in row)
    assert IntMatrix.diagonal([True, -2]).entries == ((1, 0), (0, -2))
    with pytest.raises(TypeError):
        IntMatrix.diagonal([1, Fraction(1, 2)])
    with pytest.raises(TypeError):
        a.scale(0.5)


def triple_loop_product(a, b):
    out = [[0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            for k in range(a.cols):
                out[i][j] += a.entries[i][k] * b.entries[k][j]
    return tuple(tuple(row) for row in out)


@st.composite
def product_pairs(draw):
    m, n, p = (draw(st.integers(0, 4)) for _ in range(3))
    unit = st.integers(-1, 1)  # weights the entries towards 0 and +-1
    entry = unit | unit | st.integers(-(10**20), 10**20)

    def matrix(rows, cols):
        row = st.lists(entry, min_size=cols, max_size=cols)
        return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    return matrix(m, n), matrix(n, p)


def check_product_and_transpose(a, b, product):
    c = a * b
    assert (c.rows, c.cols) == (a.rows, b.cols)
    assert c.entries == product
    assert c == IntMatrix(product, cols=b.cols)
    assert all(type(x) is int for row in c.entries for x in row)
    t = a.transpose()
    assert (t.rows, t.cols) == (a.cols, a.rows)
    assert t.entries == tuple(tuple(a.entries[i][j] for i in range(a.rows)) for j in range(a.cols))
    assert t.transpose() == a


@given(product_pairs())
@example((IntMatrix([], cols=3), IntMatrix([[1, 2], [3, 4], [5, 6]])))
@example((IntMatrix([[], []]), IntMatrix([], cols=3)))
@example((IntMatrix([[1, 2], [3, 4], [5, 6]]), IntMatrix([[], []])))
@example((IntMatrix([[0, 0, 0], [2, 0, -3]]), IntMatrix([[1, 2], [3, 4], [5, 6]])))
@example((IntMatrix([[1, -1], [-1, -1], [1, 1]]), IntMatrix([[2, -3, 10**20], [5, 7, -1]])))
def test_product_and_transpose_match_triple_loop(pair):
    a, b = pair
    check_product_and_transpose(a, b, triple_loop_product(a, b))


def test_product_check_rejects_wrong_oracle():
    a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[0, 1], [1, 0]])
    check_product_and_transpose(a, b, ((2, 1), (4, 3)))
    with pytest.raises(AssertionError):
        check_product_and_transpose(a, b, ((1, 2), (3, 4)))
    with pytest.raises(AssertionError):
        check_product_and_transpose(a, b, ((2, 1),))

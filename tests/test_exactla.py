import math
import random
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from k3lat import exactla, goldens, kulikov
from k3lat.cusps import NIEMEIER_GLUE, build_niemeier, embedded_p_rows, enumerate_embeddings, family_data
from k3lat.exactla import (
    ExactLAError,
    IntMatrix,
    block_diagonal,
    det,
    factorize,
    gram_elimination,
    hermite_basis,
    hnf,
    index_in,
    int_express,
    kernel_basis,
    rank,
    rat_express,
    rat_mul,
    saturate,
    smith_divisors,
    snf,
)
from k3lat.lattice import cartan_gram
from support import (
    ROOT_ATOMS,
    _det,
    basis_change,
    changed_basis,
    digit_width_reference,
    gauss_jordan_express,
    gauss_jordan_inv,
    hermite_snf,
    reference_hermite,
    two_pass_kernel_basis,
    two_pass_saturate,
    unimodular,
)


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
    assert snf(IntMatrix([[0, 3], [3, 0]])) == (3, 3)


def test_snf_u_gram():
    assert snf(IntMatrix([[0, 1], [1, 0]])) == (1, 1)


def test_snf_zero_matrix():
    assert snf(IntMatrix([[0, 0], [0, 0]])) == (0, 0)


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
    assert saturate(IntMatrix([], cols=3)) == IntMatrix([], cols=3)  # no rows


def test_saturate_rank_two():
    # full-rank rows span all of Q^2, so the saturation is Z^2 itself
    s = saturate(IntMatrix([[2, 2], [0, 4]]))
    assert s == IntMatrix.identity(2)
    assert saturate(IntMatrix([[0, 3, 1], [2, 0, 0], [1, 1, 1]])) == IntMatrix.identity(3)
    assert index_in(IntMatrix([[2, 2], [0, 4]]), s) == 8


def test_saturate_proper_sublattice():
    # rank-1 case where saturation strictly divides out the content
    s = saturate(IntMatrix([[2, 4, 6]]))
    assert s == IntMatrix([[1, 2, 3]])


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ExactLAError):
        saturate(IntMatrix([[1, 2], [2, 4]]))
    # more rows than columns: no kernel has n - k < 0 rows
    with pytest.raises(ExactLAError, match="dependent rows"):
        saturate(IntMatrix([[1, 0], [0, 1], [1, 1]]))


def test_index_in():
    sub = IntMatrix([[2, 0], [0, 3]])
    sup = IntMatrix.identity(2)
    assert index_in(sub, sup) == 6


def test_index_in_rejects_different_ranks_and_a_degenerate_coefficient_matrix():
    with pytest.raises(ExactLAError, match="bases of different ranks have infinite index"):
        index_in(IntMatrix([[1, 0]]), IntMatrix.identity(2))
    with pytest.raises(ExactLAError, match="degenerate coefficient matrix"):
        index_in(IntMatrix([[1, 0], [2, 0]]), IntMatrix.identity(2))


def test_shape_checks_reject_mismatched_operands():
    a, b = IntMatrix([[1, 2]]), IntMatrix([[1, 2, 3]])
    with pytest.raises(ExactLAError, match=r"shape mismatch 1x2 \* 1x3"):
        a * b
    with pytest.raises(ExactLAError, match="shape mismatch in addition"):
        a + b
    with pytest.raises(ExactLAError, match="column mismatch in stack"):
        a.stack(b)
    with pytest.raises(ExactLAError, match="empty matrix needs an explicit column count"):
        IntMatrix([])
    with pytest.raises(ExactLAError, match="rows of length 3 for 2 columns"):
        IntMatrix([[1, 2, 3]], cols=2)
    with pytest.raises(ExactLAError, match="rows of length 3 for 2 columns"):
        hermite_basis([[1, 2, 3]], 2)
    with pytest.raises(ExactLAError, match="determinant of a non-square matrix"):
        det(a)
    # one column too wide for the basis of an echelon form
    with pytest.raises(ExactLAError, match="target outside rational span of basis"):
        int_express(IntMatrix([[1, 2, 0, 0]]), IntMatrix([[1, 2, 0], [0, 1, 1]]))


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
    # U * A * V has the invariant factors of A for unimodular U and V
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    ops = [[(rng.randrange(k), rng.randrange(k), rng.choice([-1, 2])) for _ in range(8)] for k in (m, n)]
    u, v = unimodular(m, ops[0]), unimodular(n, ops[1])
    assert abs(det(u)) == abs(det(v)) == 1
    d = snf(a)
    check_snf(a, d, hermite_snf(a).d)
    assert snf(u * a * v) == d


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


# Systems (targets, basis) whose basis^T meets Bareiss rows with multiplier
# f = 0 in ``det``, an example of test_det_matches_fraction_oracle each.
# Pivots 2, 2, 2: step 0 rescales the rows below (p = 2, prev = 1), step 1
# leaves the last row as it is (p = prev).
EQUAL_PIVOTS = (((3, 1, 0), (1, 0, 0)), ((2, 0, 0), (1, 1, 0), (0, 0, 1)))
# Pivots 2, 3, 3: step 1 rescales the last row by 3/2 before it becomes the
# third pivot row, so the last pivot is det(basis) = 3 only with the rescale.
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
    # substitution in the basis solves every integral system, and
    # substitution in its Hermite form every other
    n = len(targets[0])
    found = outcome(int_express, IntMatrix(targets, cols=n), IntMatrix(basis, cols=n))
    assert solve.called == isinstance(found, str)


square = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square)
@example([[0, 1, 0], [1, 0, 0], [0, 0, 2]])  # a row swap turns the sign
@example([list(col) for col in zip(*EQUAL_PIVOTS[1])])  # a row kept as it is
@example([list(col) for col in zip(*RESCALED[1])])  # a row rescaled by p / prev
def test_det_matches_fraction_oracle(rows):
    assert det(IntMatrix(rows, cols=len(rows))) == _det(rows)


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
    singular = outcome(int_express, IntMatrix([[0, 0], [0, 0]]), IntMatrix([[1, 2], [2, 4]]))
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


@st.composite
def kernel_inputs(draw):
    """k x m matrices, k = 0 and m = 0 included, entries up to +-50 and
    mostly zero, with a zero row, a zero column or a row that is a
    combination of two others (rank-deficient) drawn in."""
    k, m = draw(st.integers(0, 6)), draw(st.integers(0, 24))
    entry = st.integers(-50, 50) | st.just(0) | st.just(0)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    if k and draw(st.booleans()):
        rows[draw(st.integers(0, k - 1))] = [0] * m
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        rows = [[0 if c == j else x for c, x in enumerate(row)] for row in rows]
    if k >= 2 and draw(st.booleans()):
        c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([c1 * x + c2 * y for x, y in zip(rows[0], rows[1])])
    return IntMatrix(rows, cols=m)


@given(kernel_inputs())
@example(IntMatrix([], cols=5))
@example(IntMatrix([[], []]))
@example(IntMatrix([[0, 0, 0], [0, 0, 0]]))
@example(IntMatrix([[2, 4, 6], [1, 2, 3]]))
def test_one_pass_kernel_and_saturation_match_the_two_pass_oracle(a):
    k = kernel_basis(a)
    assert k == two_pass_kernel_basis(a)
    assert k.cols == a.cols and (k * a.transpose()).is_zero()
    assert outcome(saturate, a) == outcome(two_pass_saturate, a)


def test_one_pass_kernel_matches_the_oracle_on_the_niemeier_complements():
    # the complement of each embedded P in N: a kernel with 24 columns
    seen = 0
    for kind in NIEMEIER_GLUE:
        gram = build_niemeier(kind).overlattice.lattice.gram
        for fam in goldens.FAMILIES:
            for record in enumerate_embeddings(family_data(*fam).p_factors, kind):
                p = embedded_p_rows(record)
                pairing = p * gram
                assert pairing.cols == 24
                assert kernel_basis(pairing) == two_pass_kernel_basis(pairing)
                assert saturate(p) == two_pass_saturate(p)
                seen += 1
    assert seen == sum(map(len, goldens.EMBEDDING_TABLES.values()))


def same_hermite(h, u):
    """Whether ``exactla._hermite`` and the dense reference leave the same
    ``h`` and the same ``u``, each run on its own copy."""
    h1, u1 = [list(r) for r in h], [list(r) for r in u]
    h2, u2 = [list(r) for r in h], [list(r) for r in u]
    exactla._hermite(h1, u1)
    reference_hermite(h2, u2)
    return (h1, u1) == (h2, u2)


def transforms(m):
    """No transform (empty rows, as ``hermite_basis`` and ``kernel_basis``
    pass) and the identity (as ``hnf`` passes), for m rows."""
    return [[] for _ in range(m)], [[int(i == j) for j in range(m)] for i in range(m)]


@st.composite
def hermite_inputs(draw):
    """``(h, u)``: m x n rows, m = 0 and n = 0 included, tall or wide,
    dense, small and negative, or mostly zero, with a zero column drawn
    in; ``u`` is empty rows, the identity, or any integer rows."""
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 12))
    entry = draw(
        st.sampled_from([st.integers(-60, 60), st.integers(-6, 0), st.integers(-3, 3) | st.just(0) | st.just(0)])
    )
    h = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in h:
            row[j] = 0
    kind = draw(st.integers(0, 2))
    if kind < 2:
        return h, transforms(m)[kind]
    k = draw(st.integers(1, 6))
    return h, draw(st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k), min_size=m, max_size=m))


@settings(max_examples=200)
@given(hermite_inputs())
@example(([], []))
@example(([[], []], transforms(2)[1]))
@example(([[0, 0], [0, 0]], transforms(2)[1]))
@example(([[2, 1], [-2, 3], [2, 5]], transforms(3)[1]))
@example(([[-3, 1, 0], [0, 0, -2]], transforms(2)[0]))
def test_hermite_matches_the_dense_reference(hu):
    assert same_hermite(*hu)


def test_hermite_matches_the_dense_reference_on_the_workload_shapes():
    # [A^T | I] of each embedded P's complement (kernel_basis of P * gram)
    # and rho^2 + rho + 1 of each gluing (primitive_part), with and
    # without the transform that hnf keeps
    shapes = []
    for kind in NIEMEIER_GLUE:
        gram = build_niemeier(kind).overlattice.lattice.gram
        for fam in goldens.FAMILIES:
            for record in enumerate_embeddings(family_data(*fam).p_factors, kind):
                shapes.append(embedded_p_rows(record) * gram)
    for pairings in goldens.GLUE_PAIRINGS.values():
        for s0, s1, _, _ in pairings:
            c0, c1 = (kulikov.build_component(kulikov.ComponentSpec(*s)) for s in (s0, s1))
            rho = kulikov.glue_lambda(c0, c1).rho
            shapes.append((rho.square + rho.matrix + IntMatrix.identity(rho.matrix.rows)).transpose())
    assert len(shapes) == 16 + 13
    for a in shapes:
        h = [[*col, *eye] for col, eye in zip(a.transpose().entries, transforms(a.cols)[1])]
        for u in transforms(a.cols):
            assert same_hermite(h, u)


@given(int_matrices)
def test_hnf_contract_and_sympy_oracle(rows):
    a = IntMatrix(rows)
    h, u = hnf(a)
    check_hnf(a, h, u, sympy_row_lattice(a) if any(map(any, rows)) else [])


def check_snf(a, d, oracle_d):
    """One factor per diagonal entry of A, d_i | d_(i+1) with zeros last,
    and d equal to the oracle's invariant factors."""
    assert len(d) == min(a.rows, a.cols)
    for x, y in zip(d, d[1:]):
        assert (y % x == 0) if x else y == 0
    assert d == tuple(oracle_d)


def check_smith_transforms(a, form):
    """left*A*right = diag(d), both transforms unimodular."""
    prod = form.left * a * form.right
    assert all(
        prod.entries[i][j] == (form.d[i] if i == j else 0) for i in range(a.rows) for j in range(a.cols)
    )
    assert abs(det(form.left)) == 1 and abs(det(form.right)) == 1


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
    d = snf(a)
    check_snf(a, d, sympy_invariant_factors(a))
    assert d == (2, 6, 12)
    with pytest.raises(AssertionError):
        check_snf(a, d, [2, 2, 36])
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
    check_smith_transforms(a, oracle)
    check_snf(a, oracle.d, sympy_invariant_factors(a))
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
    check_snf(a, snf(a), d)
    assert hermite_snf(a).d == d
    if a.rows == a.cols:  # every square case here is nonsingular
        assert smith_divisors(a, abs(det(a))) == d
    else:
        with pytest.raises(ExactLAError, match="nonsingular square"):
            smith_divisors(a, 1)


def test_snf_pinned_lattices():
    from k3lat.cusps import build_niemeier, family_data

    # family T lattices: 3-elementary with a = 0, 2, 3, 4
    families = {(0, 2): 0, (0, 1): 2, (1, 1): 3, (2, 1): 4}
    cases = [(family_data(n, k).t.gram, a) for (n, k), a in families.items()]
    model = build_niemeier("E6^4")
    cases += [(model.overlattice.lattice.gram, 0), (model.r.gram, 4)]  # the glue is unimodular
    for g, a in cases:
        d = (1,) * (g.rows - a) + (3,) * a
        check_snf(g, snf(g), d)
        assert smith_divisors(g, 3**a) == d


@st.composite
def nonsingular_matrices(draw):
    """Nonsingular square matrices, half of them symmetric like a Gram
    matrix, and half scaled by 2 or 3 so that no entry is a unit."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9) | st.just(0), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    c = draw(st.sampled_from([1, 1, 2, 3]))
    rows = [[c * x for x in row] for row in rows]
    assume(_det(rows) != 0)
    return IntMatrix(rows)


@st.composite
def modulus_cases(draw):
    """Nonsingular matrices where the modulus |det| is special: unimodular
    (d = 1, every factor 1), a prime power (one torsion prime, factors
    that only the valuation of each pivot tells apart), a Cartan matrix
    rescaled by c (every entry shares c with d), and repeated primes
    above the trial-division limit 2^10, each conjugated on both sides
    by unimodular matrices."""
    kind = draw(st.sampled_from(["unimodular", "prime power", "cartan", "large primes"]))
    if kind == "large primes":
        # primes above the trial-division limit, so the cofactor of d is
        # composite and the kernel splits it only where a pivot shows how
        q = st.sampled_from([1, 2, 1031, 1033, 1031**2, 1031 * 1033])
        a = IntMatrix.diagonal(draw(st.lists(q, min_size=1, max_size=4)))
    elif kind == "unimodular":
        n = draw(st.integers(1, 6))
        a = IntMatrix.identity(n)
    elif kind == "prime power":
        p = draw(st.sampled_from([2, 3, 5]))
        exps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
        a = IntMatrix.diagonal([p**e for e in exps])
    else:
        sym, m = draw(st.sampled_from([("A", 1), ("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]))
        a = cartan_gram(sym, m).scale(draw(st.sampled_from([1, 2, 3, 6])))
    return draw(basis_change(a.rows, 12)) * a * draw(basis_change(a.rows, 12)).transpose()


@given(nonsingular_matrices() | modulus_cases())
@example(IntMatrix([[2, 3], [3, 2]]))  # d = 5: every entry is a unit mod 5
@example(IntMatrix([[0, 2, 1], [2, 0, 0], [1, 0, 4]]))  # a unit after a zero
@example(IntMatrix([[4, 0], [0, 6]]))  # d = 24: valuations (1, 2) at 2, (0, 1) at 3
@example(IntMatrix([[9, 0, 0], [0, 3, 0], [0, 0, 27]]))  # d = 3^6: factors 3, 9, 27
@example(IntMatrix([[1, 0], [0, 1]]))  # d = 1: no prime, every factor 1
# U(3)+A2(-2)+A1(-3), a median query: d = 648 = 2^3 3^4, no entry coprime to d
@example(block_diagonal(IntMatrix([[0, 3], [3, 0]]), IntMatrix([[-4, 2], [2, -4]]), IntMatrix([[-6]])))
@example(IntMatrix.diagonal([2, 2 * 1009]))  # the prime 1009 > sqrt(d) ends the trial division
@example(IntMatrix([[6, 0, 0], [0, 35, 0], [0, 0, 1]]))  # d = 2 3 5 7, e = 1 for each
@example(IntMatrix([[4, 2], [2, 3]]))  # 2-valuations 2, 1, 0: the least is not the first
@example(IntMatrix.diagonal([1031, 1031]))  # cofactor 1031^2, split at the first pivot
@example(IntMatrix.diagonal([1031, 1031**2 * 1033]))  # cofactor 1031^3 1033: two splits
@example(IntMatrix([[0, 1031 * 1033], [1031 * 1033, 0]]))  # the part 1031 1033 never splits
def test_smith_divisors_match_snf_and_sympy(a):
    assert smith_divisors(a, abs(det(a))) == snf(a) == tuple(sympy_invariant_factors(a))


@given(st.integers(1, 10**6))
@example(2 * 1009)
@example(1)
def test_factorize_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert factorize(n) == tuple(sorted(sympy.factorint(n).items()))


@given(st.integers(1, 10**9) | st.integers(1, 10**3).map(lambda k: 1031 * 1033 * k))
@example(1031**2)
@example(1021 * 1031)
def test_factorize_stops_at_its_limit(n):
    sympy = pytest.importorskip("sympy")
    parts = factorize(n)
    assert math.prod(p**e for p, e in parts) == n
    limit = exactla._TRIAL_LIMIT
    assert limit == 1 << 10
    small = [(p, e) for p, e in sorted(sympy.factorint(n).items()) if p <= limit]
    assert list(parts[: len(small)]) == small
    # at most one cofactor follows, with no prime factor up to the limit
    assert len(parts) - len(small) <= 1 and all(e == 1 for _, e in parts[len(small) :])


@given(st.lists(st.tuples(st.integers(1, 10**4), st.integers(1, 3)), max_size=5))
@example([(1031, 1), (1031**2 * 1033, 1)])
def test_coprime_base_keeps_the_product(pairs):
    out = exactla._coprime_base(list(pairs))
    assert math.prod(b**e for b, e in out) == math.prod(b**e for b, e in pairs)
    assert all(b > 1 for b, _ in out)
    assert all(math.gcd(b, c) == 1 for i, (b, _) in enumerate(out) for c, _ in out[:i])


@pytest.mark.parametrize(
    "a, parts, d",
    [
        # d = 2^3 3 5 7: only the prime 2, with e = 3, is eliminated
        (IntMatrix([[6, 0, 0], [0, 35, 0], [0, 0, 4]]), [(2, 3)], (1, 2, 420)),
        # d = 2 1009, both primes trial-divided with e = 1
        (IntMatrix.diagonal([1, 2 * 1009]), [], (1, 2018)),
        # the cofactor 1031^2 reads e = 1 but is eliminated, and split
        (IntMatrix.diagonal([1031, 1031]), [(1031**2, 1), (1031, 2)], (1031, 1031)),
    ],
)
def test_a_trial_divided_prime_with_e_1_runs_no_elimination(monkeypatch, a, parts, d):
    # v_p(d) = 1 forces the valuations [0, ..., 0, 1]; a cofactor may be
    # composite or a square, so its exponent 1 forces nothing
    real, calls = exactla._local_valuations, []

    def logged(rows, c, e):
        calls.append((c, e))
        return real(rows, c, e)

    monkeypatch.setattr(exactla, "_local_valuations", logged)
    assert smith_divisors(a, abs(det(a))) == d
    assert calls == parts
    assert snf(a) == d


def test_smith_divisors_need_the_modulus_of_a_nonsingular_matrix():
    # a singular matrix has no modulus: |det| = 0 is refused, not divided by
    with pytest.raises(ExactLAError, match="nonsingular square"):
        smith_divisors(IntMatrix([[2, 4], [1, 2]]), 0)


def test_snf_check_rejects_skipped_repair():
    a = IntMatrix([[2, 0], [0, 3]])
    # a diagonal without the divisibility repair, even against itself
    with pytest.raises(AssertionError):
        check_snf(a, (2, 3), (2, 3))
    with pytest.raises(AssertionError):
        check_snf(a, snf(a), (2, 3))
    with pytest.raises(AssertionError):
        check_snf(a, (6,), (6,))  # a factor short


def test_snf_checks_its_factors_against_the_pivots(monkeypatch):
    real = exactla._local_valuations

    def drop_last_factor(rows, c, e):
        g, vals = real(rows, c, e)
        return g, vals[:-1] + [0]

    a = IntMatrix([[4, 0, 2], [0, 6, 0]])
    assert snf(a) == (2, 6)
    monkeypatch.setattr(exactla, "_local_valuations", drop_last_factor)
    with pytest.raises(ExactLAError, match="invariant factors disagree with the pivots"):
        snf(a)


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
        IntMatrix([[0, 0, 0], [0, 0, 0]]),
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


@st.composite
def symmetry_cases(draw):
    """Matrices of every shape up to 4x4, empty ones included, half of the
    square ones symmetrized, and the product ``A * A^T`` built by the
    product kernels."""
    m, n = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if m == n and draw(st.booleans()):
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    a = IntMatrix(rows, cols=n)
    return a * a.transpose() if draw(st.booleans()) else a


@given(symmetry_cases())
@example(IntMatrix([], cols=0))
@example(IntMatrix([], cols=3))
@example(IntMatrix([[1, 2, 3]]))
@example(IntMatrix([[1], [2]]))
@example(IntMatrix([[1, 2], [3, 1]]))
def test_is_symmetric_matches_the_pairwise_definition(a):
    g = a.entries
    pairwise = a.rows == a.cols and all(g[i][j] == g[j][i] for i in range(a.rows) for j in range(a.cols))
    assert a.is_symmetric() == pairwise


# -- the two product kernels ------------------------------------------------

WIDTHS = (8, 16, 32, 64)


def least_width(bound):
    """The least digit width holding every integer of absolute value at
    most ``bound`` as a signed digit; None past 64 bits."""
    return next((w for w in WIDTHS if bound < 2 ** (w - 1)), None)


def check_kernels(a, b):
    """Both kernels, and the product, equal the triple loop; the packed
    kernel runs at the width ``_digit_width`` picks and at every wider one."""
    expected = triple_loop_product(a, b)
    assert exactla._row_sums(a.entries, b.entries, b.cols) == expected
    w = exactla._digit_width(a.entries, b.entries)
    if w is not None:
        for wider in WIDTHS[WIDTHS.index(w) :]:
            assert exactla._packed_rows(a.entries, b.entries, b.cols, wider) == expected
    check_product_and_transpose(a, b, expected)
    return w


@st.composite
def width_edge_products(draw, bound):
    """``(a, b)`` with ``max|b| * max_i sum_k |a_ik| = bound``, reached by
    ``max|b|`` and, with a positive sign, by entry (0, 0) of ``a * b``."""
    s = draw(st.sampled_from([s for s in range(1, 9) if bound % s == 0]))
    top = bound // s
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 9))

    def row_of_weight(total):
        # k integers with sum of absolute values exactly ``total``
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=k - 1, max_size=k - 1)))
        parts = [y - x for x, y in zip([0] + cuts, cuts + [total])]
        return [p * draw(st.sampled_from((1, -1))) for p in parts]

    a = [row_of_weight(s)] + [row_of_weight(draw(st.integers(0, s))) for _ in range(m - 1)]
    entry = st.integers(-top, top)
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    for r in range(k):  # column 0 of b matches the signs of row 0 of a
        b[r][0] = top if a[0][r] >= 0 else -top
    return IntMatrix(a), IntMatrix(b)


@pytest.mark.parametrize("bound", [2 ** (w - 1) - d for w in WIDTHS for d in (1, 0)])
@given(data=st.data())
def test_product_kernels_at_the_digit_width_edges(bound, data):
    """A bound of ``2^(w-1) - 1`` fits w-bit digits and one of ``2^(w-1)``
    needs the next width; past ``2^63 - 1`` only the row sums remain."""
    a, b = data.draw(width_edge_products(bound))
    assert max(map(max, triple_loop_product(a, b))) == bound
    assert check_kernels(a, b) == least_width(bound)


# entries at and just below each digit edge 2^(w-1), and past 64 bits
EDGE_ENTRIES = [0, 1, 2, *(2 ** (w - 1) - d for w in WIDTHS for d in (1, 0)), 2**64, 2**100]


@st.composite
def digit_operands(draw):
    """Row tuples ``a`` (m x k) and ``b`` (k x n), each size possibly 0,
    of mixed-sign, all-zero and all-negative rows of edge entries."""
    m, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def rows(count, length):
        out = []
        for _ in range(count):
            mags = draw(st.lists(st.sampled_from(EDGE_ENTRIES), min_size=length, max_size=length))
            kind = draw(st.sampled_from(("mixed", "zero", "negative")))
            if kind == "zero":
                out.append((0,) * length)
            elif kind == "negative":
                out.append(tuple(-(x or 1) for x in mags))
            else:
                out.append(tuple(x * draw(st.sampled_from((1, -1))) for x in mags))
        return tuple(out)

    return rows(m, k), rows(k, n)


@given(digit_operands())
@example(((), ()))  # no rows at all
@example((((), ()), ()))  # k = 0
@example((((1, 2),), ((), ())))  # n = 0
@example(((), ((-5, -7),)))  # a has no rows: beta = max|b|
@example((((0, 0),), ((0,), (0,))))  # all zero
@example((((3, 3),), ((2**62,), (0,))))  # 6 * 2^62 is past 64 bits
def test_digit_width_scan_matches_the_row_generators(operands):
    """The bound that guards the packed product, against the row-by-row
    generator formula; ``test_product_kernels_at_the_digit_width_edges``
    checks the products it lets through."""
    a, b = operands
    assert exactla._digit_width(a, b) == digit_width_reference(a, b)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("entry", EDGE_ENTRIES)
def test_digit_width_of_each_edge_entry(sign, entry):
    b = ((sign * entry, 0), (0, 0))
    assert exactla._digit_width(((1, 0),), b) == digit_width_reference(((1, 0),), b) == least_width(entry)


@pytest.mark.parametrize(
    "a, b",
    [
        # rows with a single +-1 weight add or subtract a packed row
        (IntMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]), IntMatrix([[3, -4], [-128, 127], [5, 6]])),
        (IntMatrix([[-1], [1]]), IntMatrix([[-(2**63) + 1, 2**63 - 1, 0]])),
        (IntMatrix([[], []]), IntMatrix([], cols=3)),  # rows(b) = 0
        (IntMatrix([[1, 2], [3, 4]]), IntMatrix([[], []])),  # n = 0
        (IntMatrix([], cols=2), IntMatrix([[1, 2], [3, 4]])),
    ],
)
def test_product_kernels_on_unit_rows_and_empty_shapes(a, b):
    check_kernels(a, b)


@st.composite
def dense_products(draw):
    k = draw(st.integers(4, 12))
    m, n = draw(st.integers(1, 12)), draw(st.integers(4, 12))
    big = draw(st.sampled_from((1, 3, 2**7, 2**20, 2**40, 2**62)))
    entry = st.integers(-big, big)
    a = IntMatrix(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m)))
    b = IntMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)))
    return a, b


DENSE_8 = [[(3 * i + 5 * j) % 7 - 3 for j in range(8)] for i in range(8)]


@given(dense_products())
# a zero a: the width must still hold max|b|, and no 64-bit digit does
@example((IntMatrix([[0, 0], [0, 0]]), IntMatrix([[10**20, -(10**20)], [-(10**20), 10**20]])))
@example((IntMatrix(DENSE_8), IntMatrix(DENSE_8)))  # packed, 8-bit digits
@example((IntMatrix(DENSE_8), IntMatrix([[2**61] * 8] * 8)))  # the bound passes 2^63
@example((IntMatrix([[1, 1] + [0] * 6] * 8), IntMatrix(DENSE_8)))  # a too sparse: 16 nonzeros
def test_packed_and_row_sum_paths_agree_on_dense_products(pair):
    """Products take the packed path exactly when a has more than
    2 rows(b) nonzeros and the bound has a 64-bit digit; both kernels give
    the triple loop's product on every input, whichever path ``*`` takes."""
    a, b = pair
    packs = (
        sum(x != 0 for row in a.entries for x in row) > 2 * b.rows
        and exactla._digit_width(a.entries, b.entries) is not None
    )
    with mock.patch.object(exactla, "_packed_rows", wraps=exactla._packed_rows) as packed:
        a * b
    assert packed.called == packs
    check_kernels(a, b)


@given(changed_basis(ROOT_ATOMS, 10, 6), st.lists(st.integers(-3, 3), min_size=10, max_size=10))
def test_gram_elimination_splits_a_definite_form_into_squares(data, xs):
    """On a positive definite Gram matrix the pivots are the leading minors
    d_k, and with w_k = lcm / (d_k d_{k-1}) the norm scaled by the lcm is
    sum_k w_k (d_k x_k + sum_{l>k} B_kl x_l)^2."""
    l = data[3]
    n = l.rank
    m, d = gram_elimination(l.gram)
    assert d == [m[k][k] for k in range(n)]
    assert d == [_det([row[: k + 1] for row in l.gram.entries[: k + 1]]) for k in range(n)]
    dd = [d[k] * (d[k - 1] if k else 1) for k in range(n)]
    scale = math.lcm(*dd)
    x = xs[:n]
    squares = sum(
        scale // dd[k] * (d[k] * x[k] + sum(m[k][j] * x[j] for j in range(k + 1, n))) ** 2 for k in range(n)
    )
    assert l.norm(x) * scale == squares

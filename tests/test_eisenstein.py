import random
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3lat import eisenstein, goldens
from k3lat.cusps import family_data
from k3lat.exactla import ExactLAError, IntMatrix
from k3lat.eisenstein import (
    ORDER_BOUND,
    THETA,
    Eis,
    IsometryError,
    RhoLattice,
    assemble,
    eisenstein_gram,
    fixed_sublattice,
    fpf_order3,
    hermitian_normal_2x2,
    is_estar,
    negative_fpf_order3,
    primitive_part,
    rho3_u_u,
    rho3_u_u3,
    rho4_a1a1,
    rho4_d4,
    rho4_u_u2,
    _hermitian_value,
)
from k3lat.lattice import (
    Lattice,
    LatticeError,
    cartan_gram,
    diag_lattice,
    direct_sum,
    hyperbolic,
    rescale,
    root_lattice,
    signature,
)
from support import _det, basis_change, conjugate, gauss_jordan_inv, reference_apply, unimodular


def test_eis_arithmetic():
    w = Eis(0, 1)
    assert w * w == Eis(-1, -1)
    assert w * w * w == Eis(1)
    assert THETA == Eis(1, 2)
    assert (THETA * THETA.conj()) == Eis(3)


def test_rho3_u_u_checks():
    r = rho3_u_u()
    assert r.order == 3
    assert fixed_sublattice(r).rank == 0
    assert primitive_part(r).rank == 4


def test_rho3_u_u3_checks():
    r = rho3_u_u3()
    assert r.order == 3
    assert fixed_sublattice(r).rank == 0


def test_order4_assembled_action():
    t = assemble([rho4_u_u2(), rho4_d4(), rho4_d4(), rho4_a1a1()])
    assert t.order == 4
    assert t.lattice.rank == 14
    assert signature(t.lattice) == (2, 12)
    sq = t.matrix * t.matrix
    assert sq == IntMatrix.identity(14).scale(-1)


def test_non_isometry_rejected():
    u = hyperbolic()
    with pytest.raises(IsometryError, match="pairing"):
        RhoLattice(u, IntMatrix([[1, 1], [0, 1]]))


def test_order_is_computed_and_bounded():
    l = diag_lattice([1, -2])
    r = RhoLattice(l, IntMatrix.identity(2))
    assert r.order == 1
    with pytest.raises(TypeError):  # the order cannot be stated
        RhoLattice(l, r.matrix, 1)
    # rows (3, 2), (4, 3): a Pell isometry of <1> + <-2>, of infinite order
    with pytest.raises(IsometryError, match="order exceeds bound 24"):
        RhoLattice(l, IntMatrix([[3, 2], [4, 3]]))
    # a singular matrix preserves a zero form but never reaches I
    with pytest.raises(IsometryError, match="order exceeds bound 24"):
        RhoLattice(Lattice([[0]]), IntMatrix([[2]]))


def test_identity_isometry_fixed_everything():
    u = hyperbolic()
    r = RhoLattice(u, IntMatrix.identity(2))
    assert r.order == 1
    assert fixed_sublattice(r).rank == 2


def test_hermitian_gram_u_u():
    r = rho3_u_u()
    _, h = eisenstein_gram(r)
    norm = hermitian_normal_2x2(h)
    assert norm[0][0] == Eis(0) and norm[1][1] == Eis(0)
    assert norm[0][1] == THETA
    assert norm[1][0] == THETA.conj()


def test_hermitian_gram_u_u3():
    r = rho3_u_u3()
    _, h = eisenstein_gram(r)
    norm = hermitian_normal_2x2(h)
    assert norm[0][1] == Eis(3)
    assert norm[1][0] == Eis(3)


def test_hermitian_gram_a2():
    r = fpf_order3("A", 2)
    _, h = eisenstein_gram(r)
    assert len(h) == 1
    # diagonal values are rational: (3/2) * norm of a root
    assert h[0][0] == Eis(3)


def test_eis_prints_a_pure_imaginary_value_as_its_w_term():
    assert [str(Eis(0, b)) for b in (2, 1, -1)] == ["2w", "w", "-w"]


def test_hermitian_normal_form_keeps_what_it_cannot_scale():
    # a 1x1 matrix, and a zero diagonal whose entry 3+w, of norm 7, has no
    # real or theta associate (theta has norm 3)
    one = ((Eis(3),),)
    assert hermitian_normal_2x2(one) == one
    h = ((Eis(0), Eis(3, 1)), (Eis(3, 1).conj(), Eis(0)))
    assert Eis(3, 1) * Eis(3, 1).conj() == Eis(7)
    assert hermitian_normal_2x2(h) == h


def test_actions_that_carry_no_order_3_structure_are_rejected():
    with pytest.raises(IsometryError, match="matrix shape does not match the lattice rank"):
        RhoLattice(hyperbolic(), IntMatrix.identity(3))
    with pytest.raises(IsometryError, match="primitive part needs an order-3 action, not order 2"):
        primitive_part(RhoLattice(hyperbolic(), IntMatrix([[0, 1], [1, 0]])))
    cycle = RhoLattice(diag_lattice([1, 1, 1]), IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    with pytest.raises(IsometryError, match="action has a nonzero fixed vector"):
        eisenstein_gram(cycle)
    with pytest.raises(LatticeError, match="discriminant action needs a nondegenerate lattice"):
        is_estar(RhoLattice(diag_lattice([0]), IntMatrix([[1]])))


ACTIONS = [partial(fpf_order3, "A", 2), partial(fpf_order3, "E", 6), rho3_u_u, rho3_u_u3, rho4_u_u2, rho4_d4, rho4_a1a1]


@st.composite
def acted_vectors(draw):
    """A sum of one to three verified actions and a vector of its rank."""
    r = assemble([f() for f in draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=3))])
    n = r.lattice.rank
    entries = st.one_of(st.integers(-3, 3), st.integers(-(10**20), 10**20))
    return r, draw(st.lists(entries, min_size=n, max_size=n))


@given(acted_vectors())
def test_apply_is_the_row_times_the_matrix(data):
    r, v = data
    found = r.apply(v)
    assert type(found) is tuple and found == reference_apply(r, v) == r.apply(tuple(v))


def test_apply_rejects_a_vector_of_another_length():
    # the entry sum read only the first rank entries of a longer vector
    r = rho3_u_u()
    with pytest.raises(ExactLAError, match="shape mismatch 1x5"):
        r.apply((1, 0, 0, 0, 7))


MODULE_BASIS_CASES = {
    "A2": lambda: fpf_order3("A", 2),
    "E6": lambda: fpf_order3("E", 6),
    "E8": lambda: fpf_order3("E", 8),
    "U+U": rho3_u_u,
    "U+U(3)": rho3_u_u3,
    **{f"T{fam}": partial(lambda fam: family_data(*fam).rho_t, fam) for fam in goldens.FAMILIES},
}


@pytest.mark.parametrize("name", list(MODULE_BASIS_CASES))
def test_eisenstein_gram_returns_a_module_basis(name):
    # the chosen b_i and their images r b_i are a Z-basis: determinant +-1
    r = MODULE_BASIS_CASES[name]()
    basis, h = eisenstein_gram(r)
    rows = [list(b) for b in basis.entries] + [list(r.apply(b)) for b in basis.entries]
    assert abs(_det(rows)) == 1
    assert len(h) == r.lattice.rank // 2


def sheared(r, seed, count=20):
    """``r`` in the basis of ``count`` seeded row shears, multipliers +-1
    and +-2: row x of the new basis is x*U in the old one."""
    n = r.lattice.rank
    rng = random.Random(seed)
    u = unimodular(n, [(*rng.sample(range(n), 2), rng.choice([-2, -1, 1, 2])) for _ in range(count)])
    u_inv = IntMatrix([[int(x) for x in row] for row in gauss_jordan_inv(u.entries)])
    return RhoLattice(conjugate(r.lattice, u), u * r.matrix * u_inv)


@pytest.mark.parametrize("seed", range(6))
def test_eisenstein_gram_rejects_a_greedy_basis_of_a_sublattice(seed):
    # on these skewed bases of E8 the greedy vectors and their images span
    # a proper sublattice, so they are no Z[w]-module basis
    with pytest.raises(IsometryError, match="proper sublattice"):
        eisenstein_gram(sheared(fpf_order3("E", 8), seed))


def test_hermitian_rejects_fixed_vectors():
    u = hyperbolic()
    r = RhoLattice(u, IntMatrix.identity(2))
    with pytest.raises(IsometryError):
        eisenstein_gram(r)


def test_hermitian_value_rejects_a_non_eisenstein_integer():
    # unreachable through eisenstein_gram, whose action is fixed-point-free:
    # 1 + r + r^2 = 0 makes 3<x, y> + <x, ry - r^2 y> = 4<x, y> + 2<x, ry>;
    # the identity on <1> gives (3<x, y> + 0)/2, half-integral for x = y
    l = diag_lattice([1])
    r = RhoLattice(l, IntMatrix.identity(1))
    with pytest.raises(IsometryError, match="not an Eisenstein integer"):
        _hermitian_value(r, (1,), (1,))
    assert _hermitian_value(r, (2,), (1,)) == Eis(3)


def test_estar_standard_actions():
    assert is_estar(rho3_u_u())
    assert is_estar(rho3_u_u3())


def test_estar_fails_on_rescaled_u_u():
    r = rho3_u_u()
    scaled = rescale(r.lattice, 3)
    r33 = RhoLattice(scaled, r.matrix)
    assert not is_estar(r33)


def test_estar_unimodular_trivial():
    r = fpf_order3("E", 8)
    assert is_estar(r)


@pytest.mark.parametrize("sym,n", [("A", 2), ("E", 6), ("E", 8)])
def test_fpf_order3_properties(sym, n):
    r = fpf_order3(sym, n)
    assert r.order == 3
    assert fixed_sublattice(r).rank == 0
    assert primitive_part(r).rank == n
    assert is_estar(r)


def _int_matrix(m):
    return IntMatrix([[int(x) for x in row] for row in m.tolist()])


def _coxeter_power(sym, n, h):
    """The product of the simple reflections x -> x - (x . a_i) a_i of the
    root basis in Bourbaki order, raised to h/3, computed in sympy."""
    import sympy

    g = sympy.Matrix(cartan_gram(sym, n).entries)
    one = sympy.eye(n)
    cox = one
    for i in range(n):
        cox = cox * (one - g[:, i] * one[i, :])
    return _int_matrix(cox ** (h // 3))


@pytest.mark.parametrize("sym,n,h", [("A", 2, 3), ("E", 6, 12), ("E", 8, 30)])
def test_fpf_order3_is_the_coxeter_power(sym, n, h):
    # the one candidate: h/3 is the Coxeter number over 3, never squared
    assert fpf_order3(sym, n).matrix == _coxeter_power(sym, n, h)


@pytest.mark.parametrize("sym,n", [("A", 2), ("E", 6), ("E", 8)])
def test_fpf_order3_raises_when_its_candidate_fails(monkeypatch, sym, n):
    monkeypatch.setattr(eisenstein, "is_estar", lambda r: False)
    fpf_order3.cache_clear()
    try:
        with pytest.raises(IsometryError, match=f"verified construction failed for {sym}{n}"):
            fpf_order3(sym, n)
    finally:
        fpf_order3.cache_clear()


def test_fpf_a2_is_rotation():
    r = fpf_order3("A", 2)
    # the only fixed-point-free rotations of A2 are e1 -> e2 -> -e1-e2
    # and its inverse
    m = r.matrix
    assert m in (IntMatrix([[0, 1], [-1, -1]]), IntMatrix([[-1, -1], [1, 0]]))


def test_fpf_unknown_symbol():
    with pytest.raises(IsometryError):
        fpf_order3("D", 4)


def test_assemble_table3_rows():
    neg = lambda s, n: rescale(root_lattice(s, n), -1)
    e8 = fpf_order3("E", 8)
    e8_neg = RhoLattice(neg("E", 8), e8.matrix)
    t02 = assemble([rho3_u_u(), e8_neg, e8_neg])
    assert t02.order == 3
    assert fixed_sublattice(t02).rank == 0
    assert signature(t02.lattice) == (2, 18)

    e6 = fpf_order3("E", 6)
    e6_neg = RhoLattice(neg("E", 6), e6.matrix)
    t21 = assemble([rho3_u_u3(), e6_neg, e6_neg])
    assert t21.order == 3
    assert fixed_sublattice(t21).rank == 0
    assert t21.lattice.rank == 16


def test_estar_implies_3_elementary():
    from k3lat.lattice import is_p_elementary

    for r in (rho3_u_u(), rho3_u_u3(), fpf_order3("E", 6)):
        if is_estar(r):
            assert is_p_elementary(r.lattice, 3)


def _cycles(*lengths):
    """The permutation matrix of disjoint cycles of the given lengths."""
    n = sum(lengths)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for k in lengths:
        for i in range(k):
            rows[start + i][start + (i + 1) % k] = 1
        start += k
    return IntMatrix(rows)


def test_isometry_order_stops_at_order_bound():
    assert ORDER_BOUND == 24
    # a permutation matrix preserves the form of <1>^n
    assert RhoLattice(diag_lattice([1] * 11), _cycles(3, 8)).order == 24  # lcm(3, 8), the bound itself
    for m in (_cycles(25), _cycles(5, 7)):  # orders 25, one past the bound, and 35
        with pytest.raises(IsometryError, match="order exceeds bound 24"):
            RhoLattice(diag_lattice([1] * m.rows), m)


def naive_order(m):
    """The least k <= ORDER_BOUND with m^k = I, by repeated products; None past it."""
    p = m
    for k in range(1, ORDER_BOUND + 1):
        if p == IntMatrix.identity(m.rows):
            return k
        p = p * m
    return None


def test_a_broken_pairing_names_its_first_basis_pair():
    # e2 -> e2 + e3 on <2>^3 breaks the pairings (1,2), (2,1) and (2,2)
    with pytest.raises(IsometryError, match=r"^pairing violated at basis pair \(1,2\): 2 != 0$"):
        RhoLattice(diag_lattice([2, 2, 2]), IntMatrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]]))


@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: RhoLattice(root_lattice("A", 2), IntMatrix.identity(2)), 1),
        (lambda: RhoLattice(root_lattice("E", 6), IntMatrix.identity(6).scale(-1)), 2),
        (lambda: fpf_order3("A", 2), 3),
        (rho4_d4, 4),
        (lambda: RhoLattice(root_lattice("A", 2), fpf_order3("A", 2).matrix.scale(-1)), 6),
    ],
)
def test_order_matches_the_naive_power_oracle(make, order):
    r = make()
    assert r.order == naive_order(r.matrix) == order
    assert r.square == r.matrix * r.matrix


def test_an_order3_action_is_verified_by_two_products(monkeypatch):
    m = fpf_order3("E", 6).matrix
    real = IntMatrix.__mul__
    calls = []

    def counted(a, b):
        calls.append((a.rows, b.cols))
        return real(a, b)

    monkeypatch.setattr(IntMatrix, "__mul__", counted)
    assert RhoLattice(root_lattice("E", 6), m).order == 3
    assert calls == [(6, 12), (6, 12)]


@pytest.mark.parametrize(
    "make",
    [
        partial(fpf_order3, "A", 2),
        partial(fpf_order3, "E", 6),
        partial(fpf_order3, "E", 8),
        rho3_u_u,
        rho3_u_u3,
        rho4_u_u2,
        rho4_d4,
        rho4_a1a1,
    ],
)
def test_rho_lattice_keeps_the_square_of_its_matrix(make):
    r = make()
    m = r.matrix
    assert r.square == m * m
    assert r.order == naive_order(m)


def test_the_kept_square_is_not_part_of_the_value():
    a = rho3_u_u()
    b = RhoLattice(a.lattice, a.matrix)
    assert a == b and hash(a) == hash(b)
    assert "square" not in repr(a)


# -- the discriminant test against two oracles -------------------------
#
# rho is trivial on the discriminant group when G^-1 (M - I) is integral.
# As M - M^2 = -(M - I) M and G^-1 M = M^-T G^-1 for an isometry M, the
# same holds exactly when G^-1 (M - M^2) is integral: theta = w(1 - w) is
# a unit times 1 - w.  Both are computed over the rationals by sympy.


def estar_oracles(r):
    """(G^-1 (M - I) integral, G^-1 (M - M^2) integral), in sympy."""
    import sympy

    g_inv = sympy.Matrix(r.lattice.gram.entries).inv()
    m = sympy.Matrix(r.matrix.entries)
    one = sympy.eye(m.rows)
    return tuple(all(x.is_integer for x in g_inv * op) for op in (m - one, m - m * m))


def estar_mismatches(estar, cases):
    """Names of the ``cases`` (name -> action) on which ``estar``
    disagrees with either oracle."""
    return [name for name, r in cases.items() if {estar(r)} != set(estar_oracles(r))]


def _u3_u3():
    r = rho3_u_u()
    return RhoLattice(rescale(r.lattice, 3), r.matrix)


ESTAR_CASES = {
    "U+U": rho3_u_u,
    "U+U(3)": rho3_u_u3,
    "U(3)+U(3)": _u3_u3,
    **{f"{s}{n}": partial(fpf_order3, s, n) for s, n in [("A", 2), ("E", 6), ("E", 8)]},
    **{f"-{s}{n}": partial(negative_fpf_order3, s, n) for s, n in [("A", 2), ("E", 6), ("E", 8)]},
    **{f"T{fam}": partial(lambda f: family_data(*f).rho_t, fam) for fam in goldens.FAMILIES},
    "U+U(2) order 4": rho4_u_u2,
    "D4 order 4": rho4_d4,
    "A1^2 order 4": rho4_a1a1,
}


def test_is_estar_matches_both_oracles():
    cases = {name: make() for name, make in ESTAR_CASES.items()}
    assert estar_mismatches(is_estar, cases) == []
    assert {is_estar(r) for r in cases.values()} == {True, False}


def test_estar_oracle_check_rejects_constant_mutants():
    assert estar_mismatches(lambda r: True, {"U(3)+U(3)": _u3_u3()}) == ["U(3)+U(3)"]
    assert estar_mismatches(lambda r: False, {"U+U": rho3_u_u()}) == ["U+U"]


@given(st.sampled_from(list(ESTAR_CASES)), st.data())
def test_is_estar_is_invariant_under_change_of_basis(name, data):
    # the row x of the new basis is x * P in the old one: G -> P G P^T and
    # M -> P M P^-1
    import sympy

    r = ESTAR_CASES[name]()
    p = data.draw(basis_change(r.lattice.rank, 12))
    m = sympy.Matrix((p * r.matrix).entries) * sympy.Matrix(p.entries).inv()
    moved = RhoLattice(conjugate(r.lattice, p), _int_matrix(m))
    assert is_estar(moved) == is_estar(r)
    assert estar_mismatches(is_estar, {name: moved}) == []

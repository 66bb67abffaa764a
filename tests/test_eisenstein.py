import pytest

from k3lat.exactla import IntMatrix
from k3lat.eisenstein import (
    THETA,
    Eis,
    Isometry,
    IsometryError,
    RhoLattice,
    assemble,
    check,
    eis,
    eisenstein_gram,
    fixed_sublattice,
    fpf_order3,
    hermitian_normal_2x2,
    is_estar,
    is_theta_elementary,
    isometry_order,
    primitive_part,
    rho3_u_u,
    rho3_u_u3,
    rho4_a1a1,
    rho4_d4,
    rho4_u_u2,
    rho_lattice,
    _hermitian_value,
)
from k3lat.lattice import (
    diag_lattice,
    direct_sum,
    hyperbolic,
    rescale,
    root_lattice,
    signature,
)


def test_eis_arithmetic():
    w = eis(0, 1)
    assert w * w == eis(-1, -1)
    assert w * w * w == eis(1)
    assert THETA == eis(1, 2)
    assert (THETA * THETA.conj()) == eis(3)


def test_rho3_u_u_checks():
    r = rho3_u_u()
    assert check(r.rho) == 3
    assert fixed_sublattice(r).rank == 0
    assert primitive_part(r).rank == 4


def test_rho3_u_u3_checks():
    r = rho3_u_u3()
    assert check(r.rho) == 3
    assert fixed_sublattice(r).rank == 0


def test_order4_assembled_action():
    t = assemble([rho4_u_u2(), rho4_d4(), rho4_d4(), rho4_a1a1()])
    assert t.order == 4
    assert t.lattice.rank == 14
    assert signature(t.lattice) == (2, 12)
    sq = t.rho.matrix * t.rho.matrix
    assert sq == IntMatrix.identity(14).scale(-1)


def test_non_isometry_rejected():
    u = hyperbolic()
    with pytest.raises(IsometryError, match="pairing"):
        rho_lattice(u, [[1, 1], [0, 1]])


def test_order_is_computed_and_bounded():
    l = diag_lattice([1, -2])
    r = rho_lattice(l, IntMatrix.identity(2))
    assert r.order == 1
    with pytest.raises(TypeError):  # the order cannot be stated
        RhoLattice(l, r.rho, 1)
    # rows (3, 2), (4, 3): a Pell isometry of <1> + <-2>, of infinite order
    with pytest.raises(IsometryError, match="order exceeds bound 24"):
        rho_lattice(l, [[3, 2], [4, 3]])


def test_identity_isometry_fixed_everything():
    u = hyperbolic()
    r = rho_lattice(u, IntMatrix.identity(2))
    assert r.order == 1
    assert fixed_sublattice(r).rank == 2


def test_hermitian_gram_u_u():
    r = rho3_u_u()
    _, h = eisenstein_gram(r)
    norm = hermitian_normal_2x2(h)
    assert norm[0][0] == eis(0) and norm[1][1] == eis(0)
    assert norm[0][1] == THETA
    assert norm[1][0] == THETA.conj()


def test_hermitian_gram_u_u3():
    r = rho3_u_u3()
    _, h = eisenstein_gram(r)
    norm = hermitian_normal_2x2(h)
    assert norm[0][1] == eis(3)
    assert norm[1][0] == eis(3)


def test_hermitian_gram_a2():
    r = fpf_order3("A", 2)
    _, h = eisenstein_gram(r)
    assert len(h) == 1
    # diagonal values are rational: (3/2) * norm of a root
    assert h[0][0] == eis(3)


def test_hermitian_rejects_fixed_vectors():
    u = hyperbolic()
    r = rho_lattice(u, IntMatrix.identity(2))
    with pytest.raises(IsometryError):
        eisenstein_gram(r)


def test_hermitian_value_rejects_a_non_eisenstein_integer():
    # unreachable through eisenstein_gram, whose action is fixed-point-free:
    # 1 + r + r^2 = 0 makes 3<x, y> + <x, ry - r^2 y> = 4<x, y> + 2<x, ry>;
    # the identity on <1> gives (3<x, y> + 0)/2, half-integral for x = y
    l = diag_lattice([1])
    iso = Isometry(IntMatrix.identity(1), l)
    with pytest.raises(IsometryError, match="not an Eisenstein integer"):
        _hermitian_value(l, iso, (1,), (1,))
    assert _hermitian_value(l, iso, (2,), (1,)) == eis(3)


def test_estar_standard_actions():
    assert is_estar(rho3_u_u())
    assert is_estar(rho3_u_u3())


def test_estar_fails_on_rescaled_u_u():
    r = rho3_u_u()
    scaled = rescale(r.lattice, 3)
    r33 = rho_lattice(scaled, r.rho.matrix)
    assert not is_estar(r33)
    assert not is_theta_elementary(r33)


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


def test_fpf_a2_is_rotation():
    r = fpf_order3("A", 2)
    # the only fixed-point-free rotations of A2 are e1 -> e2 -> -e1-e2
    # and its inverse
    m = r.rho.matrix
    assert m in (IntMatrix([[0, 1], [-1, -1]]), IntMatrix([[-1, -1], [1, 0]]))


def test_fpf_unknown_symbol():
    with pytest.raises(IsometryError):
        fpf_order3("D", 4)


def test_assemble_table3_rows():
    neg = lambda s, n: rescale(root_lattice(s, n), -1)
    e8 = fpf_order3("E", 8)
    e8_neg = rho_lattice(neg("E", 8), e8.rho.matrix)
    t02 = assemble([rho3_u_u(), e8_neg, e8_neg])
    assert t02.order == 3
    assert fixed_sublattice(t02).rank == 0
    assert signature(t02.lattice) == (2, 18)

    e6 = fpf_order3("E", 6)
    e6_neg = rho_lattice(neg("E", 6), e6.rho.matrix)
    t21 = assemble([rho3_u_u3(), e6_neg, e6_neg])
    assert t21.order == 3
    assert fixed_sublattice(t21).rank == 0
    assert t21.lattice.rank == 16


def test_estar_implies_3_elementary():
    from k3lat.lattice import is_p_elementary

    for r in (rho3_u_u(), rho3_u_u3(), fpf_order3("E", 6)):
        if is_estar(r):
            assert is_p_elementary(r.lattice, 3)


def test_isometry_order_bound():
    u = hyperbolic()
    with pytest.raises(IsometryError):
        # -swap has order... a genuine high-order check needs a non-isometry;
        # instead pass a large bound violation via a fake order bound
        isometry_order(IntMatrix([[0, 1], [1, 0]]), bound=0)

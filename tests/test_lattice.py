import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from k3lat.exactla import IntMatrix, det, echelon_pivots, index_in, saturate
from k3lat.lattice import (
    DegenerateFormError,
    DiscGroup,
    LatticeError,
    Lattice,
    Sublattice,
    cartan_gram,
    d4_z4_model,
    diag_lattice,
    direct_sum,
    disc_group,
    glue_overlattice,
    hyperbolic,
    is_p_elementary,
    nikulin_2elem,
    quotient_by_isotropic,
    rescale,
    root_lattice,
    scaled_dual,
    signature,
    signature_with_radical,
)
from k3lat.roots import EMPTY_TYPE, root_system
from support import (
    ROOT_ATOMS,
    _det,
    atom_inertia,
    atom_lattice,
    basis_change,
    changed_basis,
    conjugate,
    fraction_glue_overlattice,
    fraction_signature,
    gauss_jordan_inv,
    hermite_snf,
    run_fresh,
    unimodular,
)


def neg(sym, n):
    return rescale(root_lattice(sym, n), -1)


def test_make_table_row_rank():
    t = direct_sum(hyperbolic(), hyperbolic(3), neg("E", 8), neg("E", 8))
    assert t.rank == 20
    assert t.is_even


def test_rescale_identity():
    u = hyperbolic()
    assert rescale(u, 1) is u


def test_rescale_three():
    assert hyperbolic(3).gram == IntMatrix([[0, 3], [3, 0]])
    assert rescale(hyperbolic(), 3).gram == IntMatrix([[0, 3], [3, 0]])


def test_lattice_refuses_an_asymmetric_gram_matrix():
    with pytest.raises(LatticeError, match="gram matrix must be symmetric"):
        Lattice([[2, 1], [0, 2]])
    # the constructions symmetric by an identity build unchecked, and agree
    blocks = direct_sum(root_lattice("A", 2), rescale(hyperbolic(), -2))
    assert blocks.gram.is_symmetric() and blocks == Lattice(blocks.gram.entries)


def test_rescale_zero_rejected():
    with pytest.raises(LatticeError):
        rescale(hyperbolic(), 0)


def test_signature_hyperbolic():
    assert signature(hyperbolic()) == (1, 1)


def test_signature_table3_t01():
    t = direct_sum(hyperbolic(), hyperbolic(3), neg("E", 8), neg("E", 8))
    assert signature(t) == (2, 18)


def test_signature_definite_sum():
    p = direct_sum(neg("E", 6), neg("A", 2), neg("A", 2), neg("A", 2))
    assert signature(p) == (0, 12)


def test_signature_degenerate_reports_radical():
    l = Lattice([[0, 0], [0, 2]])
    with pytest.raises(DegenerateFormError) as exc:
        signature(l)
    assert exc.value.radical_rank == 1


def test_signature_additivity_and_rescale_swap():
    a = direct_sum(hyperbolic(), neg("A", 2))
    p, q = signature(a)
    assert (p, q) == (1, 3)
    assert signature(rescale(a, -1)) == (q, p)
    assert signature(rescale(a, 5)) == (p, q)


def test_disc_group_e6():
    d = disc_group(root_lattice("E", 6))
    assert d.elementary_divisors == (3,)
    assert (d.a(3), d.a(2)) == (1, 0)


def test_disc_group_u3():
    d = disc_group(hyperbolic(3))
    assert d.elementary_divisors == (3, 3)
    assert (d.a(3), d.a(5)) == (2, 0)


def test_disc_group_e8_trivial():
    d = disc_group(root_lattice("E", 8))
    assert d.elementary_divisors == ()
    assert abs(root_lattice("E", 8).det()) == 1


def test_3_elementary():
    assert is_p_elementary(hyperbolic(3), 3)
    assert is_p_elementary(hyperbolic(), 3)  # no divisors at all
    assert is_p_elementary(direct_sum(root_lattice("E", 6), root_lattice("A", 2)), 3)
    assert not is_p_elementary(hyperbolic(2), 3)


def test_disc_group_checks_divisors_against_det(monkeypatch):
    import k3lat.lattice as lattice_module
    from k3lat import exactla

    real = exactla._local_valuations

    def drop_last_factor(rows, c, e):
        g, vals = real(rows, c, e)
        return g, vals[:-1] + [0]

    l = direct_sum(hyperbolic(3), neg("E", 6))
    assert disc_group(l).elementary_divisors == (3, 3, 3)
    monkeypatch.setattr(exactla, "_local_valuations", drop_last_factor)
    # a cached factor list would bypass the patch, and a patched one must
    # not outlive it
    lattice_module._invariant_factors.cache_clear()
    try:
        with pytest.raises(LatticeError, match="invariant factors disagree with the determinant"):
            disc_group(l)
    finally:
        lattice_module._invariant_factors.cache_clear()


def test_disc_group_needs_no_smith_transforms(monkeypatch):
    from click.testing import CliRunner

    import k3lat.lattice as lattice_module
    from k3lat import exactla
    from k3lat.cli import main
    from k3lat.kulikov import order4_suite

    def no_snf(a):
        raise AssertionError("snf called")

    # smith_divisors is the one Smith elimination: snf, kept for the
    # benchmark tracer, serves no library path
    monkeypatch.setattr(exactla, "snf", no_snf)
    lattice_module._invariant_factors.cache_clear()
    l = direct_sum(hyperbolic(3), neg("E", 6))
    assert disc_group(l).elementary_divisors == (3, 3, 3)
    assert is_p_elementary(l, 3) and not is_p_elementary(hyperbolic(2), 3)
    res = CliRunner().invoke(main, ["disc", "U(3) + E6"])
    assert (res.exit_code, res.output) == (0, "3 3 3\n")
    assert nikulin_2elem(direct_sum(hyperbolic(2), neg("D", 8))) == (1, 9, 4, 0)
    u2 = direct_sum(hyperbolic(), hyperbolic())
    assert quotient_by_isotropic(Sublattice(u2, [[1, 0, 0, 0]])).lattice.gram == hyperbolic().gram
    order4_suite.cache_clear()  # its Nikulin invariants and quotient run again
    res = CliRunner().invoke(main, ["verify", "--suite", "order4"])
    assert res.exit_code == 0, res.output


def test_nikulin_u2_d8():
    l = direct_sum(hyperbolic(2), neg("D", 8))
    assert nikulin_2elem(l) == (1, 9, 4, 0)


def test_nikulin_u_d4_d4():
    l = direct_sum(hyperbolic(), neg("D", 4), neg("D", 4))
    assert nikulin_2elem(l) == (1, 9, 4, 0)


def test_nikulin_u():
    assert nikulin_2elem(hyperbolic()) == (1, 1, 0, 0)


def test_nikulin_delta_and_messages():
    assert nikulin_2elem(root_lattice("A", 1)) == (1, 0, 1, 1)
    assert nikulin_2elem(hyperbolic(2)) == (1, 1, 2, 0)
    assert nikulin_2elem(neg("E", 7)) == (0, 7, 1, 1)
    with pytest.raises(LatticeError, match="lattice is not even"):
        nikulin_2elem(diag_lattice([1, -1]))
    with pytest.raises(LatticeError, match="lattice is not 2-elementary"):
        nikulin_2elem(hyperbolic(4))
    with pytest.raises(LatticeError, match="lattice is not 2-elementary"):
        nikulin_2elem(root_lattice("A", 2))
    with pytest.raises(DegenerateFormError):
        nikulin_2elem(diag_lattice([0, 2]))


# 2-elementary atoms with their (a, delta): D_n has A = (Z/2)^2 with
# q = n/4, n/4, 1 mod 2, so delta = 1 for D6 only
NIKULIN_ATOMS = {
    ("U", 1): (0, 0),
    ("U", 2): (2, 0),
    ("A", 1): (1, 1),
    ("D", 4): (2, 0),
    ("D", 6): (2, 1),
    ("D", 8): (2, 0),
    ("E", 7): (1, 1),
    ("E", 8): (0, 0),
}


def smith_generator_delta(l):
    """delta from the Smith generators (1/2) * (left-transform rows) of
    A_L, by the alternating Hermite oracle: (g/2)^2 = norm(g)/4."""
    form = hermite_snf(l.gram)
    return int(any(l.norm(g) % 4 for g, d in zip(form.left.entries, form.d) if d == 2))


@given(
    st.lists(st.tuples(st.sampled_from(sorted(NIKULIN_ATOMS)), st.sampled_from([1, -1])), min_size=1, max_size=3),
    st.data(),
)
@example([(("D", 6), 1)], None)
@example([(("A", 1), -1), (("U", 2), 1)], None)
def test_nikulin_2elem_matches_the_smith_generators(parts, data):
    l = direct_sum(*(rescale(atom_lattice(atom), sign) for atom, sign in parts))
    u = data.draw(basis_change(l.rank, 8)) if data else IntMatrix.identity(l.rank)
    lu = conjugate(l, u)
    want_a = sum(NIKULIN_ATOMS[atom][0] for atom, _ in parts)
    want_delta = max(NIKULIN_ATOMS[atom][1] for atom, _ in parts)
    t_plus, t_minus = signature(l)
    assert nikulin_2elem(lu) == (t_plus, t_minus, want_a, want_delta)
    assert smith_generator_delta(lu) == want_delta


def test_orth_complement_ranks():
    t = direct_sum(hyperbolic(), hyperbolic(3))
    s = Sublattice(t, [[1, 0, 0, 0], [0, 1, 0, 0]])
    c = s.orth_complement()
    assert s.rank + c.rank == t.rank
    cc = c.orth_complement()
    assert saturate(cc.basis) == saturate(s.basis)


def test_complement_of_isotropic_line_in_u():
    u = hyperbolic()
    e = Sublattice(u, [[1, 0]])
    c = e.orth_complement()
    assert c.basis == IntMatrix([[1, 0]])


SPARSE_ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


@st.composite
def sparse_basis(draw):
    """Random rows, often with repeated pivots or zero rows."""
    cols = draw(st.integers(1, 5))
    row = st.lists(SPARSE_ENTRY, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=1, max_size=cols + 1)), cols


@st.composite
def echelon_basis(draw):
    """Random rows whose pivot columns strictly increase, with those pivots."""
    cols = draw(st.integers(1, 5))
    pivots = sorted(draw(st.sets(st.integers(0, cols - 1), min_size=1)))
    rows = [
        [0] * p + [draw(st.sampled_from([1, -1, 2, -3]))]
        + draw(st.lists(SPARSE_ENTRY, min_size=cols - p - 1, max_size=cols - p - 1))
        for p in pivots
    ]
    return rows, cols, pivots


def check_sublattice_basis(rows, cols):
    """The constructor rejects ``rows`` exactly when sympy finds them dependent."""
    sympy = pytest.importorskip("sympy")
    ambient = diag_lattice([1] * cols)
    if sympy.Matrix(rows).rank() < len(rows):
        with pytest.raises(LatticeError, match="sublattice basis rows are dependent"):
            Sublattice(ambient, rows)
    else:
        assert Sublattice(ambient, rows).rank == len(rows)


@given(sparse_basis())
@example(([[1, 2], [2, 4]], 2))  # equal pivots, dependent
@example(([[0, 1], [1, 0]], 2))  # decreasing pivots, independent
@example(([[1, 0], [0, 0]], 2))  # a zero row
def test_sublattice_rejects_exactly_dependent_rows(data):
    check_sublattice_basis(*data)


@given(echelon_basis())
def test_sublattice_accepts_echelon_rows(data):
    rows, cols, pivots = data
    assert echelon_pivots(IntMatrix(rows, cols=cols)) == pivots
    check_sublattice_basis(rows, cols)


def test_quotient_d4_a1_example():
    t = direct_sum(
        hyperbolic(),
        hyperbolic(2),
        neg("D", 4),
        neg("D", 4),
        diag_lattice([-2, -2]),
    )
    j = Sublattice(t, [[1, 0, 0, 0] + [0] * 10, [0, 0, 1, 0] + [0] * 10])
    assert j.is_isotropic()
    q = quotient_by_isotropic(j).lattice
    assert q.rank == 10
    assert signature(q) == (0, 10)
    assert abs(q.det()) == 4 * 4 * 2 * 2


def test_quotient_unimodular_rank_drop():
    l = direct_sum(hyperbolic(), hyperbolic(), neg("E", 8))
    j = Sublattice(l, [[1, 0, 0, 0] + [0] * 8, [0, 0, 1, 0] + [0] * 8])
    q = quotient_by_isotropic(j).lattice
    assert q.rank == l.rank - 4
    assert abs(q.det()) == 1
    assert q.is_even


def test_quotient_rejects_unsaturated():
    u2 = direct_sum(hyperbolic(), hyperbolic())
    j = Sublattice(u2, [[2, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(LatticeError, match="saturate"):
        quotient_by_isotropic(j)
    # (1,0,1,0) and (1,0,-1,0) are each primitive, but their sum (2,0,0,0)
    # is twice a vector outside their span
    j = Sublattice(u2, [[1, 0, 1, 0], [1, 0, -1, 0]])
    assert j.is_isotropic() and not j.is_primitive
    with pytest.raises(LatticeError, match="saturate"):
        quotient_by_isotropic(j)


def test_quotient_rejects_non_isotropic():
    u = hyperbolic()
    j = Sublattice(u, [[1, 1]])
    with pytest.raises(LatticeError, match="isotropic"):
        quotient_by_isotropic(j)


def test_glue_empty_is_identity():
    l = root_lattice("A", 2)
    o = glue_overlattice(l, [], 1)
    assert abs(det(o.old_in_new)) == 1
    assert o.lattice.gram == l.gram


def test_glue_rejects_odd_overlattice():
    # (1/3)(a - b) in the dual of A2 has norm 2/3: not an even glue
    a2 = root_lattice("A", 2)
    with pytest.raises(LatticeError):
        glue_overlattice(a2, [[1, -1]], 3)


def test_glue_rejects_odd_base_lattice():
    # every glue check passes on the empty glue; the overlattice is L
    # itself, so an odd L reaches the evenness check of the new form
    with pytest.raises(LatticeError, match="overlattice form is not even"):
        glue_overlattice(Lattice(IntMatrix([[1]])), [], 1)


def test_glue_a2_to_dual_scale():
    # gluing A2(3) by its dual generators recovers an even lattice of index 3
    l = rescale(root_lattice("A", 2), 3)
    # dual vector (1/3)(2a+b) of A2(3): norm 3*(2/3)^2*2... check integrality via op
    o = glue_overlattice(l, [[2, 1]], 3)
    assert abs(det(o.old_in_new)) == 3
    assert o.lattice.is_even
    assert abs(o.lattice.det()) == abs(l.det()) // 9


def test_d4_z4_model_matches_cartan():
    lat, basis = d4_z4_model()
    assert lat.gram == cartan_gram("D", 4)
    # all basis rows have even coordinate sum in Z^4
    assert all(sum(r) % 2 == 0 for r in basis.entries)
    assert index_in(basis, IntMatrix.identity(4)) == 2


def test_invalid_symbols_rejected():
    with pytest.raises(LatticeError):
        root_lattice("E", 9)
    with pytest.raises(LatticeError):
        root_lattice("D", 3)


# -- properties against oracles -----------------------------------------

FORM_ATOMS = ROOT_ATOMS + [("U", 1), ("U", 3), ("O", 1)]


def expected_inertia(parts, sign):
    pos, neg, rad = (sum(x) for x in zip(*map(atom_inertia, parts)))
    return (pos, neg, rad) if sign > 0 else (neg, pos, rad)


def check_signature(found, want, oracle):
    """Equal to the inertia read off the atoms and to the Fraction
    diagonalization of the same Gram matrix."""
    assert found == want, f"{found} against {want} from the atoms"
    assert found == oracle, f"{found} against {oracle} from the oracle"


@given(changed_basis(FORM_ATOMS, 10, 6), st.sampled_from([1, -1]))
def test_signature_invariant_under_change_of_basis(data, sign):
    parts, _, _, lu = data
    lu = rescale(lu, sign)
    want = expected_inertia(parts, sign)
    check_signature(signature_with_radical(lu), want, fraction_signature(lu.gram))


def atoms_in_basis(parts, ops):
    """The ``changed_basis`` draw for the atoms ``parts`` and row operations ``ops``."""
    l = direct_sum(*map(atom_lattice, parts))
    u = unimodular(l.rank, ops)
    return parts, l, u, conjugate(l, u)


@given(changed_basis(FORM_ATOMS, 10, 6), st.sampled_from([1, -1]))
@example(atoms_in_basis([("U", 1), ("U", 3)], []), -1)  # zero diagonal: the push runs
@example(atoms_in_basis([("U", 3), ("E", 6)], [(0, 2, 1), (3, 1, -1)]), 1)
@example(atoms_in_basis([("O", 1), ("A", 2)], [(0, 1, 1), (2, 0, -1)]), 1)  # radical
def test_det_matches_sympy_under_change_of_basis(data, sign):
    sympy = pytest.importorskip("sympy")
    lu = rescale(data[3], sign)
    assert lu.det() == int(sympy.Matrix(lu.gram.entries).det())
    assert lu.is_nondegenerate == (expected_inertia(data[0], sign)[2] == 0)


def check_disc(found, before, oracle_divisors):
    """The same group before and after the change of basis, with the
    invariant factors of the oracle's Smith form."""
    assert found == before
    assert found.elementary_divisors == tuple(d for d in oracle_divisors if d > 1)


@given(changed_basis(FORM_ATOMS, 10, 6), st.sampled_from([1, -1]))
def test_disc_group_invariant_under_change_of_basis(data, sign):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    parts, l, _, lu = data
    l, lu = rescale(l, sign), rescale(lu, sign)
    rad = expected_inertia(parts, sign)[2]
    if rad:
        with pytest.raises(DegenerateFormError) as err:
            disc_group(lu)
        assert err.value.radical_rank == rad
        return
    s = smith_normal_form(sympy.Matrix(lu.gram.entries), domain=ZZ)
    check_disc(disc_group(lu), disc_group(l), [abs(int(s[i, i])) for i in range(lu.rank)])


def test_disc_group_of_a_median_query():
    # U(3)+A2(-2)+A1(-3): d = 648 = 2^3 3^4 and no Gram entry coprime to d
    l = direct_sum(hyperbolic(3), rescale(root_lattice("A", 2), -2), rescale(root_lattice("A", 1), -3))
    assert abs(l.det()) == 648
    d = disc_group(l)
    assert d.elementary_divisors == (3, 6, 6, 6)
    assert (d.a(2), d.a(3), d.a(5)) == (3, 4, 0)


def test_disc_group_of_large_repeated_primes_factors_no_determinant():
    # |det| = p^2, 3 q^2 and q^3: the kernel splits the cofactor above the
    # trial-division limit at a pivot, and no invariant factor is factored
    p, q = 10**9 + 7, 1000003
    cases = [
        (rescale(hyperbolic(), p), (p, p), {p: 2}),
        (rescale(root_lattice("A", 2), q), (q, 3 * q), {3: 1, q: 2}),
        (diag_lattice([q] * 3), (q, q, q), {q: 3}),
    ]
    start = time.perf_counter()
    for l, divisors, ranks in cases:
        d = disc_group(l)
        assert (d.elementary_divisors, {p: d.a(p) for p in ranks}) == (divisors, ranks)
    # a trial division of p^2 up to p takes minutes
    assert time.perf_counter() - start < 5


def test_disc_group_of_a_product_of_two_large_primes_factors_nothing():
    # Z/pq for two primes near 10^9, which no pivot splits: a trial
    # division of pq up to p takes minutes, so a new interpreter runs
    # disc_group and the disc command under a time limit
    p, q = 10**9 + 7, 10**9 + 9
    code = (
        "from k3lat.cli import main\nfrom k3lat.lattice import diag_lattice, disc_group\n"
        f"d = disc_group(diag_lattice([{p * q}]))\nprint(d, d.a({p}), d.a(2))\n"
        f"main(['disc', 'diag({p * q})'])\n"
    )
    assert run_fresh(code, timeout=5) == f"Z/{p * q} 1 0\n{p * q}\n"


@given(changed_basis(FORM_ATOMS, 10, 6), st.sampled_from([1, -1, 2, -3, 6]))
def test_disc_group_counts_the_sympy_factors_divisible_by_each_prime(data, scale):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    lu = rescale(data[3], scale)
    if not lu.is_nondegenerate:
        return
    s = smith_normal_form(sympy.Matrix(lu.gram.entries), domain=ZZ)
    factors = [abs(int(s[i, i])) for i in range(lu.rank)]
    d = disc_group(lu)
    for p in sympy.primefactors(abs(lu.det())) + [2, 3, 5]:
        assert d.a(p) == sum(f % p == 0 for f in factors)


def test_form_checks_reject_wrong_oracle():
    l = direct_sum(hyperbolic(3), neg("E", 6))
    check_signature(signature_with_radical(l), (1, 7, 0), fraction_signature(l.gram))
    with pytest.raises(AssertionError):
        check_signature(signature_with_radical(l), (2, 6, 0), fraction_signature(l.gram))
    with pytest.raises(AssertionError):
        check_signature(signature_with_radical(l), (1, 7, 0), (1, 6, 1))
    check_disc(disc_group(l), disc_group(l), [1] * 5 + [3, 3, 3])
    with pytest.raises(AssertionError):
        check_disc(disc_group(l), DiscGroup((3, 9)), [1] * 5 + [3, 3, 3])
    with pytest.raises(AssertionError):
        check_disc(disc_group(l), disc_group(l), [1] * 6 + [3, 9])


def dual_generator(sym, n):
    """A row of G^-1 generating the discriminant group of A1, A2 or E6."""
    return gauss_jordan_inv(cartan_gram(sym, n).entries)[0]


# slot sums whose all-ones class word has even norm (2, 4 and 2): A2^3 in
# E6, E6^3 in E8^3's relative, E6+A2 in E8
EVEN_WORD_SLOTS = [[("A", 2)] * 3, [("E", 6)] * 3, [("E", 6), ("A", 2)]]


@st.composite
def glue_data(draw):
    """A sum of A1/A2/E6 slots, possibly negated, with one or two glue
    vectors: a class word times the dual generators plus a lattice vector.
    Half the draws use a constant word on slots where it is valid glue,
    the others a random word on one to three random slots, A1 among
    them for odd norms (mostly invalid); a quarter of the vectors get one coordinate moved by 1/2 or
    1/3, which usually takes them off the dual lattice."""
    even = draw(st.booleans())
    if even:
        slots = draw(st.sampled_from(EVEN_WORD_SLOTS))
    else:
        slot = st.sampled_from([("A", 1), ("A", 2), ("E", 6)])
        slots = draw(st.lists(slot, min_size=1, max_size=3))
    sign = draw(st.sampled_from([1, -1]))
    l = direct_sum(*[rescale(root_lattice(*s), sign) for s in slots])
    glue = []
    for _ in range(draw(st.integers(1, 2))):
        if even:
            word = [draw(st.integers(0, 2))] * len(slots)
        else:
            word = [draw(st.integers(0, 2)) for _ in slots]
        v = []
        for c, s in zip(word, slots):
            v.extend(c * x + draw(st.integers(-1, 1)) for x in dual_generator(*s))
        if draw(st.integers(0, 3)) == 3:
            i = draw(st.integers(0, l.rank - 1))
            v[i] += Fraction(1, draw(st.sampled_from([2, 3])))
        glue.append(v)
    return l, glue


def over_denominator(glue):
    """Fraction glue rows as integer rows over their least common denominator."""
    d = math.lcm(*(Fraction(x).denominator for row in glue for x in row))
    return [[int(x * d) for x in row] for row in glue], d


def glue_outcome(l, glue):
    """``glue_overlattice`` on the Fraction rows ``glue``, in the form of
    ``fraction_glue_overlattice``: the new basis as Fraction rows."""
    rows, d = over_denominator(glue)
    try:
        o = glue_overlattice(l, rows, d)
    except LatticeError as e:
        return str(e)
    gram = [list(r) for r in o.lattice.gram.entries]
    basis = tuple(tuple(Fraction(x, d) for x in row) for row in o.scaled.entries)
    return gram, basis, [list(r) for r in o.old_in_new.entries], abs(det(o.old_in_new))


def check_glue(found, oracle):
    assert found == oracle, f"{found} against {oracle}"


def a2_tetracode_glue():
    """A2^4 with the glue words (0,1,1,1), (1,0,1,2): E8 at index 9."""
    gen = dual_generator("A", 2)
    words = [(0, 1, 1, 1), (1, 0, 1, 2)]
    return direct_sum(*[root_lattice("A", 2)] * 4), [[c * x for c in w for x in gen] for w in words]


@given(glue_data())
@example((direct_sum(root_lattice("A", 1), root_lattice("A", 1)), [[Fraction(1, 2)] * 2]))
@example(a2_tetracode_glue())
def test_glue_overlattice_matches_fraction_construction(data):
    l, glue = data
    check_glue(glue_outcome(l, glue), fraction_glue_overlattice(l, glue))


def test_glue_check_rejects_wrong_oracle():
    a2 = direct_sum(*[neg("A", 2)] * 3)
    gen = dual_generator("A", 2)
    glue = [list(gen) * 3]
    found = glue_outcome(a2, glue)
    assert found[3] == 3
    check_glue(found, fraction_glue_overlattice(a2, glue))
    gram, basis, old, index = fraction_glue_overlattice(a2, glue)
    with pytest.raises(AssertionError):
        check_glue(found, (gram, basis, old, 9))
    with pytest.raises(AssertionError):
        check_glue(found, (gram, basis, [[2 * x for x in r] for r in old], index))
    found = glue_outcome(a2, [list(gen) + [0] * 4])
    check_glue(found, "glue vectors do not pair integrally")
    with pytest.raises(AssertionError):
        check_glue(found, "glue vector is not in the dual lattice")


@given(glue_data(), st.sampled_from([1, 2, 3]))
def test_glue_overlattice_is_independent_of_the_denominator(data, k):
    """Rows and denominator scaled by k: the same overlattice, embedding
    and index (or the same rejection), with k times the scaled basis."""
    l, glue = data
    rows, d = over_denominator(glue)

    def outcome(rows, d):
        try:
            return glue_overlattice(l, rows, d)
        except LatticeError as e:
            return str(e)

    base = outcome(rows, d)
    found = outcome([[k * x for x in row] for row in rows], k * d)
    if isinstance(base, str):
        assert found == base
    else:
        assert found.lattice == base.lattice and abs(det(found.old_in_new)) == abs(det(base.old_in_new))
        assert found.old_in_new == base.old_in_new
        assert found.scaled == base.scaled.scale(k)


def test_scaled_dual_matches_gauss_jordan():
    for sym, n in [("A", 1), ("A", 2), ("D", 4), ("E", 6), ("E", 7), ("E", 8)]:
        gram = cartan_gram(sym, n).entries
        out = scaled_dual(sym, n)
        assert scaled_dual(sym, n) is out
        c, d = out
        assert d == _det(gram)
        assert c.entries == tuple(tuple(d * x for x in row) for row in gauss_jordan_inv(gram))
        # row 0 over d leaves the lattice, except the weight w1 of E7 and all of E8
        assert any(x % d for x in c.entries[0]) == ((sym, n) not in {("E", 7), ("E", 8)})


def test_diag_lattice_of_no_entries_is_rank_0():
    l = diag_lattice([])
    assert l.rank == 0 and l.det() == 1
    assert signature(l) == (0, 0)
    assert root_system(l)[0] == EMPTY_TYPE
    assert IntMatrix.diagonal([]) == IntMatrix.identity(0)

"""Strategies and Fraction oracles shared by the property tests.

The oracles are the straightforward rational algorithms that the
fraction-free kernels of k3lat replaced: Gauss-Jordan elimination over
``Fraction`` for linear systems, rational symmetric diagonalization for
signatures, and the ``Fraction`` construction of a glued overlattice.
They are slow, and independent of the code under test apart from
``hnf``, which the glue construction defines its basis by.  The star
test's all-roots route spans every complement root of an embedding
record, where the library spans only their simple roots.  The Smith
oracle is the alternating row and column Hermite passes that the pivot
elimination of ``snf`` replaced.  The coefficient-box enumerator scans
every small coefficient vector that ``roots.enumerate_norm`` prunes
away.  The Kulikov quotient coordinates
are also read off a Bareiss solve against the adapted basis ``[xi;
lift]``, without the Smith transform that the library uses.
"""

import math
from fractions import Fraction

from hypothesis import strategies as st

from k3lat.cusps import component_system
from k3lat.exactla import ExactLAError, IntMatrix, SnfResult, _solve, hnf
from k3lat.lattice import (
    Lattice,
    definite_sign,
    diag_lattice,
    direct_sum,
    hyperbolic,
    root_lattice,
)

# -- random changes of basis -------------------------------------------
#
# A lattice is drawn as an orthogonal sum of atoms: ADE root lattices,
# odd unimodular I_k, hyperbolic planes U(n) and the zero form O_1.  Its
# Gram matrix is then conjugated by a random unimodular U built from
# elementary row operations; row x of the new basis is x*U in the old one.

SMALL_ATOMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("D", 4), ("I", 1), ("I", 2), ("I", 3)]
ROOT_ATOMS = SMALL_ATOMS + [("A", 5), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("I", 4), ("I", 5)]


def atom_lattice(atom):
    sym, n = atom
    if sym == "I":
        return diag_lattice([1] * n)
    if sym == "U":
        return hyperbolic(n)
    if sym == "O":
        return diag_lattice([0] * n)
    return root_lattice(sym, n)


def atom_inertia(atom):
    """(positive, negative, radical) of an atom, from its definition."""
    sym, n = atom
    return {"U": (1, 1, 0), "O": (0, 0, n)}.get(sym, (n, 0, 0))


def unimodular(n, ops):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i % n != j % n:
            u[i % n] = [a + c * b for a, b in zip(u[i % n], u[j % n])]
    return IntMatrix(u)


def conjugate(l, u):
    """``l`` in the basis whose row x is x*U in the old basis."""
    return Lattice(u * l.gram * u.transpose())


@st.composite
def changed_basis(draw, atoms, max_rank, max_ops):
    parts = draw(
        st.lists(st.sampled_from(atoms), min_size=1, max_size=3).filter(
            lambda p: sum(atom_lattice(a).rank for a in p) <= max_rank
        )
    )
    l = direct_sum(*[atom_lattice(a) for a in parts])
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([-1, 1])),
            max_size=max_ops,
        )
    )
    u = unimodular(l.rank, ops)
    return parts, l, u, conjugate(l, u)


# -- Fraction oracles --------------------------------------------------


def gauss_jordan_inv(a):
    """Inverse by Gauss-Jordan elimination over Fractions."""
    n = len(a)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            raise ExactLAError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def gauss_jordan_express(targets, basis):
    """Coefficients ``C`` with ``C * basis = targets``, through the inverse
    of the pivot-column minor of the row-reduced basis."""
    k = len(basis)
    if k == 0:
        if any(any(x != 0 for x in t) for t in targets):
            raise ExactLAError("target outside span of empty basis")
        return tuple(tuple() for _ in targets)
    n = len(basis[0])
    red = [[Fraction(x) for x in row] for row in basis]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, k) if red[i][c] != 0), None)
        if piv is None:
            continue
        red[r], red[piv] = red[piv], red[r]
        inv = 1 / red[r][c]
        red[r] = [x * inv for x in red[r]]
        for i in range(k):
            if i != r and red[i][c] != 0:
                f = red[i][c]
                red[i] = [x - f * y for x, y in zip(red[i], red[r])]
        pivots.append(c)
        r += 1
        if r == k:
            break
    if r < k:
        raise ExactLAError("basis rows are dependent")
    inv_minor = gauss_jordan_inv([[basis[i][c] for c in pivots] for i in range(k)])
    out = []
    for t in targets:
        vec = [sum(t[pivots[j]] * inv_minor[j][i] for j in range(k)) for i in range(k)]
        recon = [sum(ci * row[j] for ci, row in zip(vec, basis)) for j in range(n)]
        if list(t) != recon:
            raise ExactLAError("target outside rational span of basis")
        out.append(tuple(vec))
    return tuple(out)


def fraction_signature(gram):
    """(positive, negative, radical) by rational symmetric diagonalization."""
    n = gram.rows
    m = [[Fraction(x) for x in row] for row in gram.entries]
    pos = neg = 0
    alive = list(range(n))
    while alive:
        piv = next((i for i in alive if m[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in alive for j in alive if i != j and m[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for k in range(n):
                m[i][k] += m[j][k]
            for k in range(n):
                m[k][i] += m[k][j]
            piv = i
        d = m[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        alive.remove(piv)
        for i in alive:
            if m[i][piv] != 0:
                f = m[i][piv] / d
                for k in range(n):
                    m[i][k] -= f * m[piv][k]
                for k in range(n):
                    m[k][i] -= f * m[k][piv]
    return pos, neg, n - pos - neg


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def fraction_glue_overlattice(l, glue):
    """(Gram rows, basis, old-in-new rows, index) of the even overlattice,
    computed with Fraction products, or the LatticeError message."""
    n = l.rank
    g = [[Fraction(x) for x in row] for row in l.gram.entries]
    glue_rows = [tuple(Fraction(x) for x in row) for row in glue]
    for v in glue_rows:
        if any(x.denominator != 1 for x in _mul([v], g)[0]):
            return "glue vector is not in the dual lattice"
    for v in glue_rows:
        for w in glue_rows:
            val = sum(a * b for a, b in zip(_mul([v], g)[0], w))
            if val.denominator != 1:
                return "glue vectors do not pair integrally"
            if v == w and val.numerator % 2 != 0:
                return "glue vector has odd norm; overlattice not even"
    denom = math.lcm(*(x.denominator for v in glue_rows for x in v))
    scaled = [[x * denom for x in row] for row in IntMatrix.identity(n).entries]
    scaled += [[int(x * denom) for x in v] for v in glue_rows]
    h, _ = hnf(IntMatrix(scaled, cols=n))
    rows = [r for r in h.entries if any(r)]
    basis = tuple(tuple(Fraction(x, denom) for x in row) for row in rows)
    gram = _mul(_mul(basis, g), list(zip(*basis)))
    if any(x.denominator != 1 for row in gram for x in row):
        return "overlattice form is not integral: invalid glue"
    if any(gram[i][i].numerator % 2 for i in range(n)):
        return "overlattice form is not even: invalid glue"
    old = gauss_jordan_inv(basis)  # C * basis = I
    if any(x.denominator != 1 for row in old for x in row):
        return "original basis not contained in the overlattice"
    old_rows = [[x.numerator for x in row] for row in old]
    return [[x.numerator for x in row] for row in gram], basis, old_rows, abs(_det(old_rows))


def _det(rows):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return int(out)


def hermite_snf(a):
    """Smith form by alternating Hermite passes: ``hnf`` of the rows, then
    of the columns, until the matrix is diagonal; a divisibility failure
    ``d_i`` not dividing ``d_(i+1)`` folds column i+1 into column i and
    reduces again.  Signs are normalized through ``left``."""
    m, n = a.rows, a.cols
    s, left, right = a, IntMatrix.identity(m), IntMatrix.identity(n)

    def is_diagonal(x):
        return all(v == 0 for i, row in enumerate(x.entries) for j, v in enumerate(row) if i != j)

    for _ in range(200):
        s, u = hnf(s)
        left = u * left
        row_diagonal = is_diagonal(s)
        h, v = hnf(s.transpose())
        s, right = h.transpose(), right * v.transpose()
        if row_diagonal and is_diagonal(s):
            diag = [s.entries[i][i] for i in range(min(m, n))]
            bad = next((i for i in range(len(diag) - 1) if diag[i] and diag[i + 1] % diag[i]), None)
            if bad is None:
                break
            # column bad+1 is added to column bad
            fold = IntMatrix(
                [[int(i == j or (i, j) == (bad + 1, bad)) for j in range(n)] for i in range(n)]
            )
            s, right = s * fold, right * fold
    else:
        raise ExactLAError("smith reduction did not converge")
    signs = [-1 if i < min(m, n) and s.entries[i][i] < 0 else 1 for i in range(m)]
    left = IntMatrix([[c * x for x in row] for c, row in zip(signs, left.entries)], cols=m)
    # right is unimodular, so its Fraction inverse is integral
    right_inv = IntMatrix([[int(x) for x in row] for row in gauss_jordan_inv(right.entries)], cols=n)
    return SnfResult(tuple(abs(s.entries[i][i]) for i in range(min(m, n))), left, right, right_inv)


# -- the coefficient-box enumeration oracle ----------------------------


def enumerate_norm_box(l, m, bound):
    """Brute-force oracle: scan every coefficient vector with sup-norm <= bound.

    The whole box is visited (no branch is ever skipped); the quadratic
    form is evaluated incrementally along the recursion so the scan stays
    usable for boxes with a few million points.  Completeness holds for
    vectors whose coefficients all lie within the bound; callers compare
    against the main enumerator restricted to the same box.
    """
    gram = l.gram.scale(definite_sign(l))
    n = gram.rows
    g = gram.entries
    out = []
    x = [0] * n
    span = range(-bound, bound + 1)

    def scan(k, partial, sums):
        if k == n:
            if partial == m and any(x):
                out.append(tuple(x))
            return
        row = g[k]
        for t in span:
            x[k] = t
            if t == 0:
                scan(k + 1, partial, sums)
            else:
                scan(
                    k + 1,
                    partial + 2 * t * sums[k] + t * t * row[k],
                    tuple(s + t * c for s, c in zip(sums, row)),
                )
        x[k] = 0

    scan(0, 0, tuple([0] * n))
    return sorted(out)


def restrict_to_box(vectors, bound):
    """Vectors whose coefficients all have absolute value <= bound."""
    return sorted(v for v in vectors if all(abs(c) <= bound for c in v))


# -- the all-roots span of an embedding's complement -------------------


def all_complement_root_span(record, model):
    """Nonzero Hermite rows of every root of N orthogonal to the embedded
    P: each component's complement roots (its ``complement_mask``) placed
    at the component's offset and mapped into N by the glue transform."""
    cs = component_system(*model.comp)
    rank_r = model.r.rank
    rows = []
    for c, oc in enumerate(record.outcomes):
        off = model.component_offset(c)
        for i in range(cs.nroots):
            if oc.complement_mask >> i & 1:
                vec = [0] * rank_r
                vec[off : off + len(cs.roots[i])] = cs.roots[i]
                rows.append(vec)
    if not rows:
        return IntMatrix([], cols=model.n.rank)
    rows = _mul(rows, model.overlattice.old_in_new.entries)
    h, _ = hnf(IntMatrix(rows, cols=model.n.rank))
    return IntMatrix([r for r in h.entries if any(r)], cols=model.n.rank)


# -- the adapted-basis route to quotient coordinates --------------------


def adapted_quotient_coords(xi, lift, rows):
    """Coordinates in J^perp/J, J spanned by the primitive ``xi``, of
    ambient rows in J^perp: a Bareiss solve of ``C * [xi; lift] = rows``,
    integral since ``[xi; lift]`` is a basis of J^perp, with the ``xi``
    column dropped."""
    adapted = [tuple(xi)] + list(lift.entries)
    nums, d = _solve(rows.entries, adapted)
    if any(x % d for row in nums for x in row):
        raise ExactLAError("coefficients are not integral")
    return IntMatrix([[x // d for x in row[1:]] for row in nums], cols=lift.rows)

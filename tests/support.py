"""Strategies and Fraction oracles shared by the property tests.

The oracles are the straightforward rational algorithms that the
fraction-free kernels of k3lat replaced: Gauss-Jordan elimination over
``Fraction`` for linear systems, rational symmetric diagonalization for
signatures, and the ``Fraction`` construction of a glued overlattice.
They are slow, and independent of the code under test apart from
``hnf``, which the glue construction defines its basis by.  The star
test's all-roots route spans every complement root of an embedding
record, found by its pairings with the embedded roots, where the library
spans only the simple roots of its scan.  The glue-code bookkeeping
decides the star from the words of the glue code, each component's
tabulated dual image order and its own root-span index (the gcd of the
maximal minors of the complement roots' span), where the library
computes the index of the complement's root span in its saturation
inside the Niemeier lattice.  The Smith oracle is the alternating row and column Hermite
passes, with both transforms, where ``smith_divisors`` eliminates modulo
each part of |det| with none; the rows of its left transform give the
Smith generators of a discriminant group, whose norms decide the delta
that ``nikulin_2elem`` reads off the diagonal of 2 G^-1.  The coefficient-box enumerator scans
every small coefficient vector that ``roots.enumerate_norm`` prunes
away.  The tuple root decomposition subtracts coefficient tuples where
the library's scan (``roots._simple_scan``) subtracts packed keys, scans
every positive root where the library stops at the rank-th simple root,
and types each component by its rank and root count, counting each
root's component from its pairings with the simple roots, where the
library reads the Dynkin diagram of the simple roots.  The pairwise
root type finds the components in the graph of nonzero pairings over
all roots.  The Weyl
orbit oracle applies every reflection of a root subsystem to root tuples,
where ``ComponentSystem.orbit_reps`` applies its simple reflections to
packed keys.  The kernel route of P's complement takes the kernel of the
embedded P rows times the Gram matrix of N on all 24 columns, where
``cusps._p_complement`` sums the component complements of the search
when the glue code is empty.  The Kulikov quotient coordinates are also read off a
Gauss-Jordan solve against the adapted basis ``[xi; lift]``, without the
kernel and the right inverses that the library's projection is built
from.  The complement root type is also
computed with one Gauss-Jordan solve per ambient root, where the library
reads the roots of the saturation of S and of S-perp.  Neither oracle
shares a solve with the library.  The digit-width reference scans the
product operands row by row with generators, where
``exactla._digit_width`` maps C-level iterators over them.  The
placement classes are also the minimum of each distinct assignment over
the component permutations that keep the glue code up to signs
(``code_perm_group``), where the library sorts each assignment's blocks,
taking every permutation to lift to an isometry of N, and the product
enumeration builds them from every placement, where the library splits
each run of equal factors over the components once.  The textbook LLL
recomputes the rational Gram--Schmidt data before each step and rounds
by ``Fraction``, where ``roots._lll`` updates integer minors and
numerators in place and rounds by ``divmod``.  The two-pass kernel
takes the zero rows of the ``hnf`` transform of A^T and then their
Hermite form, where ``exactla.kernel_basis`` runs one Hermite
elimination of [A^T | I].  The reference Hermite reduction rebuilds its
list of nonzero rows on every pass and walks every column from the pivot
on and the whole transform row, where ``exactla._hermite`` finds the
pivot as it eliminates and walks only the pivot row's nonzero columns.

The Hermite-route span maps the simple roots of a search back to the
input basis and takes their Hermite form, where ``roots._root_analysis``
returns the identity for a reduced basis of roots, with no search.  The character-level parser reads each integer of a list with
``_Parser.integer`` and each comma with ``take``, where the library
matches the whole list with one compiled pattern and falls back to those
only to name an error.

The entry-sum action, the dot-product glue checks, the hand-padded rows
of the embedded P and the list-extending breadth-first walk are the
bodies that ``RhoLattice.apply``, ``lattice.glue_overlattice``,
``cusps.embedded_p_rows`` and ``cusps._factor_requirements`` had before
they read ``IntMatrix`` products, ``exactla.block_diagonal`` and
``roots.layers``.

``clear_table_caches`` empties every cache built from the input tables,
for the tests that patch a table; ``run_fresh`` runs code in a new
interpreter, for the tests that need cold caches.
"""

import math
import os
from operator import mul, sub
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path
from typing import NamedTuple

from hypothesis import strategies as st

from k3lat import cli, cusps, exactla, roots
from k3lat.cusps import build_niemeier, component_system
from k3lat.exactla import (
    ExactLAError,
    IntMatrix,
    hermite_basis,
    hnf,
    int_express,
    kernel_basis,
    rank,
)
from k3lat.lattice import (
    Lattice,
    LatticeError,
    Overlattice,
    Sublattice,
    cartan_gram,
    definite_sign,
    diag_lattice,
    direct_sum,
    hyperbolic,
    root_lattice,
)
from k3lat.roots import RootSystemType, _definite_reduce, _reduced_search, _simple_scan, diagram_type, enumerate_norm

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
def basis_change(draw, n, max_ops):
    """A unimodular n x n matrix from at most ``max_ops`` row operations."""
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([-1, 1])),
            max_size=max_ops,
        )
    )
    return unimodular(n, ops)


@st.composite
def changed_basis(draw, atoms, max_rank, max_ops):
    parts = draw(
        st.lists(st.sampled_from(atoms), min_size=1, max_size=3).filter(
            lambda p: sum(atom_lattice(a).rank for a in p) <= max_rank
        )
    )
    l = direct_sum(*[atom_lattice(a) for a in parts])
    u = draw(basis_change(l.rank, max_ops))
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


class SmithForm(NamedTuple):
    """``left * A * right = diag(d)``, both transforms unimodular."""

    d: tuple
    left: IntMatrix
    right: IntMatrix


def hermite_snf(a):
    """Smith form with transforms by alternating Hermite passes: ``hnf`` of the rows, then
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
    return SmithForm(tuple(abs(s.entries[i][i]) for i in range(min(m, n))), left, right)


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


# -- the tuple root decomposition ----------------------------------------


def _ade_root_count(sym, n):
    if sym == "A":
        return n * (n + 1)
    if sym == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


# rank 3 with 12 roots is A3 (there is no D3 entry)
TYPE_BY_RANK_COUNT = {
    (n, _ade_root_count(sym, n)): (sym, n)
    for sym, ranks in (("A", range(1, 25)), ("D", range(4, 25)), ("E", (6, 7, 8)))
    for n in ranks
}


def tuple_root_decomposition(roots, gram):
    """ADE type and simple roots of ``roots`` (closed under negation) on
    coefficient tuples: the lexicographically positive roots, scanned in
    ascending order, with a root simple unless subtracting an earlier
    simple root leaves a positive root; every root lies in the component
    of the first simple root it pairs nonzero with."""
    n = gram.rows
    zero = (0,) * n
    positive = sorted(r for r in roots if r > zero)
    is_positive = set(positive)
    simple = []
    for beta in positive:
        if not any(tuple(map(sub, beta, alpha)) in is_positive for alpha in simple):
            simple.append(beta)
    s = IntMatrix(simple, cols=n)
    g_simple_t = (s * gram).transpose()
    cartan = (s * g_simple_t).entries
    pairings = (IntMatrix(positive, cols=n) * g_simple_t).entries

    comp = [-1] * len(simple)
    for i in range(len(simple)):
        if comp[i] < 0:
            comp[i] = i
            stack = [i]
            while stack:
                for j, c in enumerate(cartan[stack.pop()]):
                    if c and comp[j] < 0:
                        comp[j] = i
                        stack.append(j)
    counts = {}
    for row in pairings:
        c = comp[next(i for i, x in enumerate(row) if x)]
        counts[c] = counts.get(c, 0) + 2
    return (
        RootSystemType.of([TYPE_BY_RANK_COUNT[comp.count(c), k] for c, k in counts.items()]),
        simple,
    )


def pairwise_root_type(roots, gram):
    """Oracle: components of the graph 'pairing is nonzero' over all pairs
    of roots (one product gives every pairing), each identified by its
    rank and root count."""
    r = IntMatrix(roots, cols=gram.rows)
    pair = (r * gram * r.transpose()).entries
    comp = [False] * len(roots)
    comps = []
    for i in range(len(roots)):
        if comp[i]:
            continue
        comp[i] = True
        members = [i]
        for a in members:
            new = [j for j, c in enumerate(pair[a]) if c and not comp[j]]
            for j in new:
                comp[j] = True
            members += new
        k, count = rank(IntMatrix([roots[a] for a in members])), len(members)
        if count == k * (k + 1):
            comps.append(("A", k))
        elif count == 2 * k * (k - 1):
            comps.append(("D", k))
        else:
            comps.append(("E", k))
    return RootSystemType.of(comps)


# -- the all-roots span of an embedding's complement -------------------


def complement_root_indices(cs, oc):
    """Indices of the roots of the component ``cs`` orthogonal to every
    embedded root of the outcome ``oc``, by their Gram pairings."""
    gram = cs.lattice.gram.entries
    embedded = _mul([cs.roots[i] for w in oc.witness for i in w], gram)
    return [i for i, r in enumerate(cs.roots) if not any(sum(map(mul, r, g)) for g in embedded)]


def all_complement_root_span(record):
    """Nonzero Hermite rows of every root of N orthogonal to the embedded
    P: each component's complement roots (``complement_root_indices``)
    in N (``span_in_n``)."""
    cs = component_system(*build_niemeier(record.model_kind).comp)
    return span_in_n(record, [complement_root_indices(cs, oc) for oc in record.outcomes])


def span_in_n(record, picks):
    """Nonzero Hermite rows of the roots ``picks[c]`` (indices into the
    roots of the model's component) of each component c, placed at the
    component's offset and mapped into N by the glue transform."""
    model = build_niemeier(record.model_kind)
    cs = component_system(*model.comp)
    rank_r = model.r.rank
    rows = []
    for c, pick in enumerate(picks):
        off = c * model.comp[1]
        for i in pick:
            vec = [0] * rank_r
            vec[off : off + len(cs.roots[i])] = cs.roots[i]
            rows.append(vec)
    if not rows:
        return IntMatrix([], cols=model.overlattice.lattice.rank)
    rows = _mul(rows, model.overlattice.old_in_new.entries)
    h, _ = hnf(IntMatrix(rows, cols=model.overlattice.lattice.rank))
    return IntMatrix([r for r in h.entries if any(r)], cols=model.overlattice.lattice.rank)


# -- the glue-code bookkeeping of the star ------------------------------


def glue_code(kind):
    """The nonzero words of the glue code of ``kind``, sorted: every
    combination mod 3 of its ``NIEMEIER_GLUE`` generators."""
    _, ncomp, gens = cusps.NIEMEIER_GLUE[kind]
    words = {
        tuple(sum(c * g[i] for c, g in zip(cs, gens)) % 3 for i in range(ncomp))
        for cs in product(range(3), repeat=len(gens))
    }
    return tuple(sorted(words - {(0,) * ncomp}))


def component_rootspan_index(cs, oc):
    """[complement of the embedded roots of ``oc`` in the component ``cs``
    : span of its roots].  The complement is saturated, so when the roots
    span it rationally this is the index of their span in its saturation:
    the gcd of the maximal minors of a basis of the span."""
    embedded = rank(IntMatrix([cs.roots[i] for w in oc.witness for i in w], cols=cs.lattice.rank))
    h = hermite_basis([cs.roots[i] for i in complement_root_indices(cs, oc)], cs.lattice.rank)
    if h.rows + embedded != cs.lattice.rank:
        raise AssertionError("complement is not rationally spanned by its roots")
    if not h.rows:
        return 1
    minors = (
        _det([[row[j] for j in cols] for row in h.entries])
        for cols in combinations(range(h.cols), h.rows)
    )
    return math.gcd(*minors)


def glue_code_sat_index(record):
    """[saturated complement of P in N : span of its roots], from the glue
    code, the tabulated dual image order of each component outcome and the
    oracle's own ``component_rootspan_index``.

    The complement of P in the root lattice R has index the product of the
    component root-span indices over its root span.  N adds one class per
    glue word that is trivial on every component where the dual complement
    has image order 1; the image order must be 1 or 3, one Z/3 per copy."""
    if any(oc.dual_image_order not in (1, 3) for oc in record.outcomes):
        raise AssertionError("dual image order outside {1,3}")
    full = {i for i, oc in enumerate(record.outcomes) if oc.dual_image_order == 3}
    glued = 1 + sum(
        1 for w in glue_code(record.model_kind) if all(x == 0 for i, x in enumerate(w) if i not in full)
    )
    cs = component_system(*build_niemeier(record.model_kind).comp)
    return glued * math.prod(component_rootspan_index(cs, oc) for oc in record.outcomes)


def code_perm_group(code, ncomp):
    """Component permutations extending to isometries of the overlattice
    glued by ``code``, the set of its nonzero words.

    A permutation of components combined with per-component sign flips
    acts on the discriminant group as a monomial transformation; each
    sign is realized by the negation isometry of that component, so any
    monomial transformation preserving the glue code lifts to an
    isometry of the overlattice.  The transformation is injective, so it
    preserves the code when each word's image lies in the code.
    """
    code = set(code)
    perms = []
    signs = list(product((1, 2), repeat=ncomp))
    for p in permutations(range(ncomp)):
        for s in signs:
            if all(tuple(s[i] * v[p[i]] % 3 for i in range(ncomp)) in code for v in code):
                perms.append(p)
                break
    return tuple(perms)


# -- Weyl orbits under every reflection -----------------------------------


def reflection_orbit_reps(cs, cand_mask, refl_mask):
    """One representative, the first index, per orbit of the roots in
    ``cand_mask`` under the reflections s_a(x) = x - (x . a) a of every
    root a in ``refl_mask``, on root tuples with the pairing of the Gram
    matrix: no packed keys and no pairing table.  Each orbit must lie in
    the candidate set, which is then stable under those reflections."""
    roots = cs.roots
    index = {v: i for i, v in enumerate(roots)}
    gram = cs.lattice.gram.entries
    refl = [
        (a, tuple(sum(x * g for x, g in zip(a, col)) for col in zip(*gram)))
        for i, a in enumerate(roots)
        if refl_mask >> i & 1
    ]
    seen, reps = set(), []
    for c in range(cs.nroots):
        if not cand_mask >> c & 1 or c in seen:
            continue
        reps.append(c)
        orbit, stack = {roots[c]}, [roots[c]]
        while stack:
            x = stack.pop()
            for a, ga in refl:
                p = sum(map(mul, x, ga))
                y = tuple(xi - p * ai for xi, ai in zip(x, a))
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        members = {index[y] for y in orbit}
        if any(not cand_mask >> i & 1 for i in members):
            raise AssertionError("candidate set is not stable under the reflections")
        seen |= members
    return reps


# -- kernels by a Hermite transform and a second Hermite pass ----------


def two_pass_kernel_basis(a):
    """``exactla.kernel_basis`` in two passes: the rows of the ``hnf``
    transform of A^T that map to zero rows, then their Hermite form."""
    h, u = hnf(a.transpose())
    return hermite_basis([u.entries[i] for i in range(h.rows) if not any(h.entries[i])], a.cols)


def two_pass_saturate(rows):
    """``exactla.saturate`` as the kernel of the kernel, by the two-pass
    kernel, with the same raise on dependent rows."""
    ortho = two_pass_kernel_basis(rows)
    if ortho.rows != rows.cols - rows.rows:
        raise ExactLAError("dependent rows: not a sublattice basis")
    return two_pass_kernel_basis(ortho)


# -- the Hermite reduction, dense ----------------------------------------


def reference_hermite(h, u):
    """``exactla._hermite`` as the textbook gcd reduction, dense: the
    pivot list is rebuilt on every pass, and each row operation walks
    every column from the pivot on and the whole transform row."""
    m = len(h)
    n = len(h[0]) if h else 0

    def row_sub(i: int, j: int, q: int, c: int) -> None:
        # row_i -= q * row_j, mirrored on the transform; row_j is zero
        # before its pivot column c, so columns before c do not change
        hi, hj = h[i], h[j]
        for k in range(c, n):
            hi[k] -= q * hj[k]
        ui, uj = u[i], u[j]
        for k in range(len(ui)):
            ui[k] -= q * uj[k]

    def row_swap(i: int, j: int) -> None:
        h[i], h[j] = h[j], h[i]
        u[i], u[j] = u[j], u[i]

    def row_neg(i: int) -> None:
        h[i] = [-x for x in h[i]]
        u[i] = [-x for x in u[i]]

    r = 0
    for c in range(n):
        if r == m:
            break
        # gcd-reduce column c over rows r..m-1
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(h[i][c]))
            if piv != r:
                row_swap(r, piv)
            done = True
            for i in range(r + 1, m):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    row_sub(i, r, q, c)
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                row_neg(r)
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    row_sub(i, r, q, c)
            r += 1


# -- placement classes by a minimum over the group ---------------------


def placement_assignments(fs, ncomp):
    """The assignments of the factors ``fs`` to ``ncomp`` components, one
    per placement cs (factor i to component cs[i]): all ncomp^len(fs) of
    them, duplicates merged."""
    return {
        tuple(tuple(f for f, c in zip(fs, cs) if c == i) for i in range(ncomp))
        for cs in product(range(ncomp), repeat=len(fs))
    }


def product_placement_classes(fs, ncomp):
    """The placement classes of ``cusps._placement_classes`` from every
    placement, each assignment with its blocks sorted, ascending."""
    return sorted({tuple(sorted(a)) for a in placement_assignments(fs, ncomp)})


def group_min_placement_classes(fs, kind):
    """The placement classes of the sorted factors ``fs`` in the model
    ``kind``, each as the minimum of its assignment's images under every
    element of ``code_perm_group``, ascending: one minimum per distinct
    assignment, where ``cusps._placement_classes`` sorts each assignment's
    blocks."""
    ncomp = cusps.NIEMEIER_GLUE[kind][1]
    group = code_perm_group(glue_code(kind), ncomp)
    assignments = placement_assignments(fs, ncomp)
    return sorted({min(tuple(map(a.__getitem__, p)) for p in group) for a in assignments})


# -- textbook LLL -----------------------------------------------------------


def fraction_lll(gram):
    """``(G', V)`` of the textbook LLL at delta = 3/4 (Cohen, GTM 138, Alg.
    2.6.3) on a positive definite Gram matrix: the Gram--Schmidt
    coefficients mu and norms B of rows 0..k are recomputed in ``Fraction``
    before each decision, where ``roots._lll`` updates the integers d_k
    and lam_kj in place."""
    n = gram.rows
    g = [list(row) for row in gram.entries]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def gram_schmidt(k):
        mu = [[Fraction(0)] * n for _ in range(k + 1)]
        b = []
        for i in range(k + 1):
            for j in range(i):
                mu[i][j] = (g[i][j] - sum(mu[j][t] * mu[i][t] * b[t] for t in range(j))) / b[j]
            b.append(Fraction(g[i][i]) - sum(mu[i][j] ** 2 * b[j] for j in range(i)))
        return mu, b

    def red(k, l):
        mu = gram_schmidt(k)[0][k][l]
        if abs(mu) > Fraction(1, 2):
            q = round(mu)
            g[k] = [a - q * c for a, c in zip(g[k], g[l])]
            for row in g:
                row[k] -= q * row[l]
            v[k] = [a - q * c for a, c in zip(v[k], v[l])]

    k = 1
    while k < n:
        red(k, k - 1)
        mu, b = gram_schmidt(k)
        if b[k] < (Fraction(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]:
            g[k - 1], g[k] = g[k], g[k - 1]
            for row in g:
                row[k - 1], row[k] = row[k], row[k - 1]
            v[k - 1], v[k] = v[k], v[k - 1]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1
    return IntMatrix(g, cols=n), IntMatrix(v, cols=n)


# -- the per-root rational-span route to complement root types ---------


def rational_span_complement_root_type(s):
    """Root type of the complement of the root-spanned sublattice ``s``,
    picking the roots in its rational span by one Gauss-Jordan solve each."""
    r = s.ambient
    all_roots = enumerate_norm(r, 2)

    def spans(v):
        try:
            gauss_jordan_express([v], s.basis.entries)
        except ExactLAError:
            return False
        return True

    in_span = [v for v in all_roots if spans(v)]
    _, simple = tuple_root_decomposition(in_span, r.gram)
    if hermite_basis(simple, r.rank) != hermite_basis(s.basis.entries, r.rank):
        raise LatticeError("sublattice is not spanned by roots of the ambient lattice")
    pairings = (IntMatrix(all_roots, cols=r.rank) * (s.basis * r.gram).transpose()).entries
    comp_roots = [v for v, p in zip(all_roots, pairings) if not any(p)]
    return tuple_root_decomposition(comp_roots, r.gram)[0]


# -- the adapted-basis route to quotient coordinates --------------------


def digit_width_reference(a, b):
    """The least w in 8, 16, 32, 64 with ``beta < 2^(w-1)``, for ``beta =
    max(max|b|, max|b| * max_i sum_k |a_ik|)`` over row tuples, or None."""
    top = max((max(max(row), -min(row)) for row in b if row), default=0)
    beta = max(top, top * max((sum(map(abs, row)) for row in a), default=0))
    return next((w for w in (8, 16, 32, 64) if beta < 1 << (w - 1)), None)


def adapted_quotient_coords(xi, lift, rows):
    """Coordinates in J^perp/J, J spanned by the primitive ``xi``, of
    ambient rows in J^perp: a Gauss-Jordan solve of ``C * [xi; lift] =
    rows``, integral since ``[xi; lift]`` is a basis of J^perp, with the
    ``xi`` column dropped."""
    coeffs = gauss_jordan_express(rows.entries, [tuple(xi)] + list(lift.entries))
    if any(x.denominator != 1 for row in coeffs for x in row):
        raise ExactLAError("coefficients are not integral")
    return IntMatrix([[int(x) for x in row[1:]] for row in coeffs], cols=lift.rows)


# -- caches and fresh interpreters ---------------------------------------

# every cache whose value reads goldens or cusps.NIEMEIER_GLUE, directly
# or through another cache of this list
TABLE_CACHES = (
    cusps.family_data,
    cusps.build_niemeier,
    cusps.enumerate_embeddings,
    cusps._p_complement,
    cusps.classify_cusps,
)


def clear_table_caches():
    """Empty every cache of ``TABLE_CACHES``.  A test that patches an input
    table calls it before and after, so no value built from the other
    version of the table survives: a stale cached embedding or complement
    would let a mutated table pass."""
    for f in TABLE_CACHES:
        f.cache_clear()


def run_fresh(code, timeout=None):
    """Standard output of ``code`` run by a new interpreter on this
    checkout's ``src``, whose module caches start empty; it raises
    ``subprocess.TimeoutExpired`` after ``timeout`` seconds."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=timeout
    )
    return out.stdout


# -- calls into exactla ---------------------------------------------------


def watch_exactla(monkeypatch, *names):
    """The list that logs, by name, every later call of the ``exactla``
    functions ``names`` from k3lat: each binding of one, in ``exactla``
    and in every k3lat module that imports it, is wrapped."""
    calls = []
    for name in names:
        real = getattr(exactla, name)

        def logged(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("k3lat") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, logged)
    return calls


def misread_e6_cartan_det(monkeypatch):
    """Patch ``RootSystemType.cartan_det`` to read det C of E6 as 4, not 3."""
    real = RootSystemType.cartan_det

    def wrong(t):
        e6 = t.components.count(("E", 6))
        return real(t) // 3**e6 * 4**e6

    monkeypatch.setattr(RootSystemType, "cartan_det", wrong)


# -- the root span without determinants ----------------------------------


def searched_root_analysis(gram):
    """``(type, span)`` of the definite form ``gram`` by the search alone:
    the simple roots that the scan takes from the search, typed by their
    Dynkin diagram, and their Hermite basis mapped back through V, the
    root span by the route that reads no determinant."""
    simple = []
    reduced = _definite_reduce(Lattice(gram))
    _reduced_search(reduced, 2, _simple_scan(gram.rows, simple))
    gram_red, v = reduced[:2]
    s = IntMatrix(simple, cols=gram.rows)
    return diagram_type((s * gram_red * s.transpose()).entries), hermite_basis((s * v).entries, gram.rows)


def hermite_span(gram):
    return searched_root_analysis(gram)[1]


def logged_searches(monkeypatch, scanned=None):
    """The list that logs the reduced Gram matrix of every later
    ``roots._reduced_search``; each key that a search hands its visit is
    also appended to ``scanned``, if given."""
    searches = []

    def logged(reduced, m, visit):
        searches.append(reduced[0])
        if scanned is not None:
            visit = lambda key, x, visit=visit: scanned.append(key) or visit(key, x)
        return _reduced_search(reduced, m, visit)

    monkeypatch.setattr(roots, "_reduced_search", logged)
    return searches


# -- the bodies before the shared kernels ---------------------------------


def reference_apply(r, v):
    """``r.apply(v)``, entry by entry: sum_i v_i m_ij for each column j."""
    m = r.matrix.entries
    n = r.matrix.rows
    return tuple(sum(v[i] * m[i][j] for i in range(n)) for j in range(n))


def reference_glue_overlattice(l, rows, d):
    """``lattice.glue_overlattice`` with the dual, pairing and parity checks
    as dot products over the rows of G and of the glue."""
    n = l.rank
    g = l.gram.entries
    glue = IntMatrix(rows, cols=n).entries
    g_scaled = [[sum(a * b for a, b in zip(row, s)) for row in g] for s in glue]
    if any(x % d for gs in g_scaled for x in gs):
        raise LatticeError("glue vector is not in the dual lattice")
    dd = d * d
    for s, gs in zip(glue, g_scaled):
        for t in glue:
            val = sum(a * b for a, b in zip(gs, t))
            if val % dd:
                raise LatticeError("glue vectors do not pair integrally")
            if s == t and (val // dd) % 2 != 0:
                raise LatticeError("glue vector has odd norm; overlattice not even")
    hm = hermite_basis([*IntMatrix.identity(n).scale(d).entries, *glue], n)
    entries = [[x // dd for x in row] for row in (hm * l.gram * hm.transpose()).entries]
    lat = Lattice._of(IntMatrix(entries, cols=n))
    if not lat.is_even:
        raise LatticeError("overlattice form is not even: invalid glue")
    old_in_new = int_express(IntMatrix.identity(n).scale(d), hm)
    return Overlattice(lat, hm, old_in_new)


def reference_p_complement(record):
    """``cusps._p_complement`` by the kernel of ``rows * G_N`` on the 24
    columns of N in either model, where the library sums the component
    complements of its search when the glue code is empty."""
    n = build_niemeier(record.model_kind).overlattice.lattice
    rows = cusps.embedded_p_rows(record)
    perp = kernel_basis(rows * n.gram)
    if perp.rows != n.rank - rows.rows:
        raise cusps.CuspError("embedded P rows are dependent")
    return Sublattice(n, perp)


def reference_embedded_p_rows(record):
    """``cusps.embedded_p_rows`` with each witness root padded by zeros to
    its component's columns of R."""
    model = build_niemeier(record.model_kind)
    k, rank_r = model.comp[1], model.r.rank
    roots = component_system(*model.comp).roots
    rows = [
        (0,) * (c * k) + roots[i] + (0,) * (rank_r - (c + 1) * k)
        for c, oc in enumerate(record.outcomes)
        for w in oc.witness
        for i in w
    ]
    return IntMatrix(rows, cols=rank_r) * model.overlattice.old_in_new


def reference_factor_requirements(sym, n):
    """``cusps._factor_requirements`` with its own breadth-first walk, a
    list extended while it is walked."""
    c = cartan_gram(sym, n).entries
    order = [0]
    for i in order:
        order += [j for j in range(n) if c[i][j] and j not in order]
    return [[c[idx][order[j]] for j in range(k)] for k, idx in enumerate(order)]


# -- the character-level lattice-expression parser -----------------------


class CharParser(cli._Parser):
    """``cli._Parser`` with every integer list read one character-level
    integer and one comma at a time."""

    def int_list(self):
        out = [self.integer()]
        while self.peek() == ",":
            self.take(",")
            out.append(self.integer())
        return out


def char_parse_lattice_expr(text):
    """``cli.parse_lattice_expr`` on ``CharParser``."""
    p = CharParser(text)
    lat = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return lat

"""Exact integer linear algebra kernel.

Everything here runs on arbitrary-precision Python integers, with no
floating point and no machine-word fast path; a rational matrix travels
as integer rows over one denominator.  ``rat_express`` and ``rat_mul``,
on ``Fraction`` rows, are kept only because the benchmark tracer wraps
them by name; no library path calls them.  Conventions used by the
whole package:

* matrices are row-major; lattice elements are ROW vectors,
* a transform ``U`` returned together with a normal form acts on the
  left, ``U * A = H``,
* ``kernel_basis(A)`` returns rows ``x`` with ``x * A^T = 0``.

The normal forms are computed by fraction-free row elimination with
explicit transform accumulation: the Hermite form by gcd-driven row
reduction, the Smith form by pivot elimination on the smallest entry
(Cohen, GTM 138, 2.4, Alg. 2.4.14, without the modulus), its row and
column operations applied in place to both transforms and, inverted, to
the inverse of the right one.  ``int_express`` against a basis in row
echelon form, as every Hermite basis from ``kernel_basis``,
``hermite_basis`` and ``saturate`` is, is solved by exact substitution.
Every other linear system is solved by one Bareiss elimination with a
single common denominator (Bareiss, Math. Comp. 22 (1968); Cohen, GTM
138, 2.2), whose step ``det`` and ``roots`` share.  This is slow
compared to modular methods but provably correct, and the matrices
appearing in this package have rank at most 28.

The inputs are mostly zeros (Gram matrices of root lattices,
block-diagonal actions, root vectors), and the kernels skip the work
whose result is known.  The product ``A * B`` sums one row of ``B`` per
nonzero entry of a row of ``A``, adding or subtracting it without a
multiplication when the entry is +-1.  A Bareiss step or a Hermite row
operation updates only the columns from the pivot on, since those
before it are zero in the pivot row; a Bareiss row whose multiplier is
0 stays as it is when the pivot equals the previous one (it is only
rescaled otherwise).  What is skipped is an exact zero or a factor of
exactly 1, so the kernels return the same integers as the dense
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, index, mul, sub
from typing import Iterable, List, Sequence, Tuple

Row = Tuple[int, ...]


class ExactLAError(ValueError):
    """Raised on contract violations (dependent rows, singular solves, ...)."""


class IntMatrix:
    """Immutable integer matrix with arbitrary-precision entries.

    Entries are converted with ``operator.index``, so a Fraction or a
    float raises ``TypeError`` instead of being truncated.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(map(index, row)) for row in entries)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ExactLAError("ragged rows")
        else:
            if cols is None:
                raise ExactLAError("empty matrix needs an explicit column count")
            ncols = cols
        self.entries = rows
        self.rows = len(rows)
        self.cols = ncols

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, rows: Tuple[Row, ...], cols: int) -> "IntMatrix":
        """Wrap rows that are already tuples of ints, without conversion."""
        m = object.__new__(cls)
        m.entries, m.rows, m.cols = rows, len(rows), cols
        return m

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.diagonal([1] * n)

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix._of(((0,) * n,) * m, n)

    @staticmethod
    def diagonal(diag: Sequence[int]) -> "IntMatrix":
        d = [index(x) for x in diag]
        n = len(d)
        return IntMatrix._of(tuple((0,) * i + (x,) + (0,) * (n - i - 1) for i, x in enumerate(d)), n)

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        # Row i of A*B sums the rows of B weighted by row i of A: a zero
        # weight is skipped and a weight of +-1 adds or subtracts without
        # a multiplication, so the sums are the exact dense ones.
        if self.cols != other.rows:
            raise ExactLAError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        zero = (0,) * other.cols
        rows = []
        for row in self.entries:
            acc = zero
            for x, brow in zip(row, other.entries):
                if not x:
                    continue
                if x == 1:
                    acc = list(map(add, acc, brow))
                elif x == -1:
                    acc = list(map(sub, acc, brow))
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            rows.append(tuple(acc))
        return IntMatrix._of(tuple(rows), other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactLAError("shape mismatch in addition")
        return IntMatrix._of(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        c = index(c)
        return IntMatrix._of(tuple(tuple(c * x for x in row) for row in self.entries), self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.entries)) or ((),) * self.cols, self.rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ExactLAError("column mismatch in stack")
        return IntMatrix._of(self.entries + other.entries, self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int] | None = None) -> "IntMatrix":
        cols = range(self.cols) if col_idx is None else col_idx
        return IntMatrix._of(
            tuple(tuple(self.entries[i][j] for j in cols) for i in row_idx),
            len(list(cols)),
        )


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ExactLAError("determinant of a non-square matrix")
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for c in range(a.rows):
        if not m[c][c]:
            piv = next((i for i in range(c + 1, a.rows) if m[i][c]), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        prev = bareiss_step(m, c, prev)
    return sign * prev


def bareiss_step(a: List[List[int]], c: int, prev: int) -> int:
    """One Bareiss step in place: clear column ``c`` below the pivot
    ``a[c][c]``, given the previous pivot (1 at first); returns the pivot.
    A row with multiplier 0 is only rescaled by p/prev, exactly."""
    rc = a[c]
    p = rc[c]
    cols = range(c + 1, len(rc))
    for ri in a[c + 1 :]:
        f = ri[c]
        if f:
            for j in cols:
                ri[j] = (p * ri[j] - f * rc[j]) // prev
            ri[c] = 0
        elif p != prev:
            for j in cols:
                ri[j] = p * ri[j] // prev
    return p


def hnf(a: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form ``H`` with unimodular ``U`` such that ``U*A = H``.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, zero rows sink to the bottom.
    """
    h = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(a.rows)] for i in range(a.rows)]
    _hermite(h, u)
    return IntMatrix(h, cols=a.cols), IntMatrix(u, cols=a.rows)


def _hermite(h: List[List[int]], u: List[List[int]]) -> None:
    """Reduce the rows of ``h`` to Hermite form in place, applying every
    row operation to the rows of ``u`` as well."""
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


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form data: ``left * A * right = diag(d)`` and
    ``right * right_inv = I``."""

    d: Tuple[int, ...]
    left: IntMatrix
    right: IntMatrix
    right_inv: IntMatrix


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with both unimodular transforms and the inverse
    of the right one.

    Pivot elimination (Cohen, GTM 138, Alg. 2.4.14, without the
    modulus): the smallest nonzero entry of the trailing block becomes
    the pivot, row operations clear its column and column operations its
    row, until both are zero.  If some entry of the block is not a
    multiple of the pivot, its row is added to the pivot row and the
    step repeats with a smaller pivot, so ``d_k | d_(k+1)``.  Row
    operations go in place to ``left``, column operations to the rows of
    ``right^T`` and their inverses, as row operations, to ``right_inv``.
    Verified are ``left * A == D * right_inv`` and ``right * right_inv ==
    I``; both integral, so |det right| = 1 and ``left * A * right == D``.
    """
    m, n = a.rows, a.cols
    k = min(m, n)
    s = [list(row) for row in a.entries]
    left = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    right_t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    right_inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def combine(rows: List[List[int]], i: int, j: int, q: int) -> None:
        # rows[i] -= q * rows[j]
        rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]

    for t in range(k):
        while True:
            nz = [(abs(x), i, j) for i in range(t, m) for j, x in enumerate(s[i][t:], t) if x]
            if not nz:
                break
            _, pi, pj = min(nz)
            s[t], s[pi] = s[pi], s[t]
            left[t], left[pi] = left[pi], left[t]
            for row in s[t:]:
                row[t], row[pj] = row[pj], row[t]
            right_t[t], right_t[pj] = right_t[pj], right_t[t]
            right_inv[t], right_inv[pj] = right_inv[pj], right_inv[t]
            p = s[t][t]
            for i in range(t + 1, m):
                q = s[i][t] // p
                if q:
                    combine(s, i, t, q)
                    combine(left, i, t, q)
            for j in range(t + 1, n):
                q = s[t][j] // p
                if q:
                    for row in s[t:]:
                        row[j] -= q * row[t]
                    combine(right_t, j, t, q)
                    combine(right_inv, t, j, -q)
            if any(s[i][t] for i in range(t + 1, m)) or any(s[t][t + 1 :]):
                continue  # a remainder smaller than the pivot is left
            bad = next((i for i in range(t + 1, m) if any(x % p for x in s[i][t + 1 :])), None)
            if bad is None:
                break
            combine(s, t, bad, -1)
            combine(left, t, bad, -1)

    d = tuple(abs(s[i][i]) for i in range(k))
    # normalize signs through the left transform
    for i in range(k):
        if s[i][i] < 0:
            left[i] = [-x for x in left[i]]
    left = IntMatrix(left, cols=m)
    right = IntMatrix(right_t, cols=n).transpose()
    inv = IntMatrix(right_inv, cols=n)

    d_inv = tuple(tuple(x * di for x in row) for di, row in zip(d, inv.entries))
    if left * a != IntMatrix._of(d_inv + ((0,) * n,) * (m - k), n):
        raise ExactLAError("smith factorization check failed")
    if right * inv != IntMatrix.identity(n) or abs(det(left)) != 1:
        raise ExactLAError("smith transforms are not unimodular")
    return SnfResult(d, left, right, inv)


def block_diagonal(*blocks: IntMatrix) -> IntMatrix:
    """The matrix with the given blocks along its diagonal, in order, and
    zeros elsewhere; a block without rows still shifts the later columns."""
    n = sum(b.cols for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        pad = (0,) * (n - off - b.cols)
        rows.extend((0,) * off + row + pad for row in b.entries)
        off += b.cols
    return IntMatrix._of(tuple(rows), n)


def hermite_basis(rows: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Nonzero rows of the Hermite form of ``rows``: a canonical basis of their Z-span."""
    h = [list(row) for row in IntMatrix(rows, cols=n).entries]
    _hermite(h, [[] for _ in h])  # empty transform rows: no transform work
    return IntMatrix._of(tuple(tuple(row) for row in h if any(row)), n)


def rank(a: IntMatrix) -> int:
    return hermite_basis(a.entries, a.cols).rows


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel ``{x : x * A^T = 0}``.

    The rows of the Hermite transform of ``A^T`` that map to zero rows
    form a basis; the kernel of an integer matrix is automatically a
    primitive subgroup.
    """
    h, u = hnf(a.transpose())
    ker = [u.entries[i] for i in range(h.rows) if not any(h.entries[i])]
    return hermite_basis(ker, a.cols)


def saturate(rows: IntMatrix, ambient_rank: int | None = None) -> IntMatrix:
    """Basis of ``span_Q(rows) ∩ Z^n``, in row Hermite form.

    Raises if the input rows are dependent, which would signal an
    invalid sublattice basis.
    """
    n = rows.cols if ambient_rank is None else ambient_rank
    if rows.cols != n:
        raise ExactLAError("ambient rank does not match row length")
    if rank(rows) != rows.rows:
        raise ExactLAError("dependent rows: not a sublattice basis")
    if rows.rows == 0:
        return IntMatrix([], cols=n)
    ortho = kernel_basis(rows)
    if ortho.rows == 0:
        return IntMatrix.identity(n)
    return kernel_basis(ortho)


# -- rational helpers, kept for the benchmark tracer -------------------

RatRow = Tuple[Fraction, ...]
RatMatrix = Tuple[RatRow, ...]


def rat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _solve(
    targets: Sequence[Sequence[int]], basis: Sequence[Sequence[int]]
) -> Tuple[List[List[int]], int]:
    """Integer numerators ``N`` and one denominator ``D > 0`` with
    ``N * basis = D * targets``.

    Bareiss elimination of ``[basis^T | targets^T]``: a basis column
    without a pivot means dependent rows, a zero row of ``basis^T`` with
    a nonzero right-hand side a target outside the span.  ``D`` is the
    last pivot, the determinant of the pivot minor, so by Cramer's rule
    the back-substitution divides exactly.  The solution is checked in
    full against every target.
    """
    k = len(basis)
    if k == 0:
        if any(any(x != 0 for x in t) for t in targets):
            raise ExactLAError("target outside span of empty basis")
        return [[] for _ in targets], 1
    n = len(basis[0])
    if any(len(t) != n for t in targets):
        raise ExactLAError("target outside rational span of basis")
    a = [[b[i] for b in basis] + [t[i] for t in targets] for i in range(n)]
    prev = 1
    for c in range(k):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ExactLAError("basis rows are dependent")
        a[c], a[piv] = a[piv], a[c]
        prev = bareiss_step(a, c, prev)
    if any(x != 0 for row in a[k:] for x in row[k:]):
        raise ExactLAError("target outside rational span of basis")
    sign = 1 if prev > 0 else -1
    nums = []
    for j in range(k, len(a[0])):
        x = [0] * k
        for i in range(k - 1, -1, -1):
            row = a[i]
            x[i] = (prev * row[j] - sum(map(mul, row[i + 1 : k], x[i + 1 :]))) // row[i]
        nums.append([sign * v for v in x])
    d = abs(prev)
    cols = list(zip(*basis))
    for t, x in zip(targets, nums):
        recon = [sum(map(mul, x, col)) for col in cols]
        if recon != [d * v for v in t]:
            raise ExactLAError("target outside rational span of basis")
    return nums, d


def _scaled(rows: RatMatrix) -> Tuple[List[List[int]], int]:
    """Integer rows ``D * rows`` for the least common denominator ``D``."""
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def rat_express(targets: RatMatrix, basis: RatMatrix) -> RatMatrix:
    """Coefficients ``C`` with ``C * basis = targets``.

    ``basis`` rows must be independent; raises if a target is outside
    their rational span.  Both sides are scaled to integers and solved
    fraction-free; Fractions are built only for the coefficients.
    """
    t, dt = _scaled(targets)
    b, db = _scaled(basis)
    nums, d = _solve(t, b)
    return tuple(tuple(Fraction(x * db, d * dt) for x in row) for row in nums)


def in_rational_span(v: Sequence[int], basis: IntMatrix) -> bool:
    """Whether the integer row ``v`` lies in the rational span of the
    independent rows of ``basis``."""
    try:
        _solve([v], basis.entries)
    except ExactLAError:
        return False
    return True


def echelon_pivots(basis: IntMatrix) -> List[int] | None:
    """The pivot (first nonzero) column of each row of ``basis`` if they
    strictly increase, which proves the rows independent; None otherwise,
    a zero row included."""
    pivots = [next((j for j, x in enumerate(row) if x), basis.cols) for row in basis.entries]
    if any(a >= b for a, b in zip(pivots, pivots[1:] + [basis.cols])):
        return None
    return pivots


def _echelon_express(targets: IntMatrix, basis: IntMatrix) -> List[Row] | None:
    """Coefficients of ``targets`` by substitution in an echelon ``basis``:
    among rows i.., row i alone is nonzero in its pivot column, so its
    coefficient is the target entry left there over the pivot.  None for
    another basis or a nonzero residual, which an inexact division leaves."""
    pivots = echelon_pivots(basis)
    if targets.cols != basis.cols or pivots is None:
        return None
    out = []
    for t in targets.entries:
        rest, x = list(t), []
        for row, c in zip(basis.entries, pivots):
            q = rest[c] // row[c]
            if q:
                for j in range(c, len(rest)):
                    rest[j] -= q * row[j]
            x.append(q)
        if any(rest):
            return None
        out.append(tuple(x))
    return out


def int_express(targets: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Integer coefficients expressing ``targets`` in ``basis`` rows: by
    substitution for a basis in row echelon form, otherwise (and for every
    error) by ``_solve``, so results and messages do not depend on it."""
    coeffs = _echelon_express(targets, basis)
    if coeffs is not None:
        return IntMatrix._of(tuple(coeffs), basis.rows)
    nums, d = _solve(targets.entries, basis.entries)
    if any(x % d for row in nums for x in row):
        raise ExactLAError("coefficients are not integral")
    return IntMatrix([[x // d for x in row] for row in nums], cols=basis.rows)


def index_in(sub: IntMatrix, sup: IntMatrix) -> int:
    """Index ``[sup : sub]`` for two bases of the same rational span."""
    if sub.rows != sup.rows:
        raise ExactLAError("bases of different ranks have infinite index")
    c = int_express(sub, sup)
    d = det(c)
    if d == 0:
        raise ExactLAError("degenerate coefficient matrix")
    return abs(d)

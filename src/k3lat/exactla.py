"""Exact integer and rational linear algebra kernel.

Everything here runs on arbitrary-precision Python integers (and
``fractions.Fraction`` for the rational helpers); there is no floating
point anywhere and no machine-word fast path.  Conventions used by the
whole package:

* matrices are row-major; lattice elements are ROW vectors,
* a transform ``U`` returned together with a normal form acts on the
  left, ``U * A = H``,
* ``kernel_basis(A)`` returns rows ``x`` with ``x * A^T = 0``.

The normal forms are computed by fraction-free row elimination with
explicit transform accumulation: the Hermite form by gcd-driven row
reduction, the Smith form by alternating row and column Hermite passes
followed by divisibility fix-ups.  This is slow compared to modular
methods but provably correct, and the matrices appearing in this
package have rank at most 28.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

Row = Tuple[int, ...]


class ExactLAError(ValueError):
    """Raised on contract violations (dependent rows, singular solves, ...)."""


class IntMatrix:
    """Immutable integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
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

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix([[0] * n for _ in range(m)], cols=n)

    @staticmethod
    def diagonal(diag: Sequence[int]) -> "IntMatrix":
        n = len(diag)
        return IntMatrix([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basic algebra ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.entries, self.cols))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ExactLAError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        bt = other.transpose().entries
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.entries],
            cols=other.cols,
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ExactLAError("shape mismatch in addition")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * x for x in row] for row in self.entries], cols=self.cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def row(self, i: int) -> Row:
        return self.entries[i]

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i] for i in range(self.rows) for j in range(i)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def stack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ExactLAError("column mismatch in stack")
        return IntMatrix(self.entries + other.entries, cols=self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int] | None = None) -> "IntMatrix":
        cols = range(self.cols) if col_idx is None else col_idx
        return IntMatrix(
            [[self.entries[i][j] for j in cols] for i in row_idx],
            cols=len(list(cols)),
        )


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if a.rows != a.cols:
        raise ExactLAError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hnf(a: IntMatrix) -> Tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form ``H`` with unimodular ``U`` such that ``U*A = H``.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, zero rows sink to the bottom.
    """
    m, n = a.rows, a.cols
    h = [list(row) for row in a.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j, mirrored on the transform
        hi, hj = h[i], h[j]
        for k in range(n):
            hi[k] -= q * hj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
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
                    row_sub(i, r, q)
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
                    row_sub(i, r, q)
            r += 1
    return IntMatrix(h, cols=n), IntMatrix(u, cols=m)


class SnfResult:
    """Smith normal form data: ``left * A * right = diag(d)``."""

    __slots__ = ("d", "left", "right")

    def __init__(self, d: Tuple[int, ...], left: IntMatrix, right: IntMatrix):
        self.d = d
        self.left = left
        self.right = right


def snf(a: IntMatrix) -> SnfResult:
    """Smith normal form with both unimodular transforms.

    Alternates row and column Hermite passes until the matrix is
    diagonal, then repairs the divisibility chain; all transforms are
    accumulated and the factorization is re-verified before returning.
    """
    m, n = a.rows, a.cols
    s = a
    left = IntMatrix.identity(m)
    right = IntMatrix.identity(n)

    def is_diagonal(x: IntMatrix) -> bool:
        return all(
            x.entries[i][j] == 0
            for i in range(x.rows)
            for j in range(x.cols)
            if i != j
        )

    for _ in range(200):
        h, u = hnf(s)
        s, left = h, u * left
        if is_diagonal(s):
            ht, ut = hnf(s.transpose())
            s, right = ht.transpose(), right * ut.transpose()
            if is_diagonal(s):
                k = min(m, n)
                diag = [s.entries[i][i] for i in range(k)]
                # enforce d_i | d_{i+1} among the nonzero entries
                bad = next(
                    (
                        i
                        for i in range(k - 1)
                        if diag[i] != 0 and diag[i + 1] % diag[i] != 0
                    ),
                    None,
                )
                if bad is None:
                    break
                # fold column bad+1 into column bad and restart reduction
                cols = [list(row) for row in s.entries]
                for i in range(m):
                    cols[i][bad] += cols[i][bad + 1]
                r = [list(row) for row in right.entries]
                for i in range(n):
                    r[i][bad] += r[i][bad + 1]
                s = IntMatrix(cols, cols=n)
                right = IntMatrix(r, cols=n)
        else:
            ht, ut = hnf(s.transpose())
            s, right = ht.transpose(), right * ut.transpose()
    else:
        raise ExactLAError("smith reduction did not converge")

    k = min(m, n)
    d = tuple(abs(s.entries[i][i]) for i in range(k))
    # normalize signs through the left transform
    lrows = [list(r) for r in left.entries]
    for i in range(k):
        if s.entries[i][i] < 0:
            lrows[i] = [-x for x in lrows[i]]
    left = IntMatrix(lrows, cols=m)

    check = left * a * right
    for i in range(m):
        for j in range(n):
            expect = d[i] if (i == j and i < k) else 0
            if check.entries[i][j] != expect:
                raise ExactLAError("smith factorization check failed")
    if abs(det(left)) != 1 or abs(det(right)) != 1:
        raise ExactLAError("smith transforms are not unimodular")
    return SnfResult(d, left, right)


def rank(a: IntMatrix) -> int:
    h, _ = hnf(a)
    return sum(1 for row in h.entries if any(x != 0 for x in row))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel ``{x : x * A^T = 0}``.

    The rows of the Hermite transform of ``A^T`` that map to zero rows
    form a basis; the kernel of an integer matrix is automatically a
    primitive subgroup.
    """
    h, u = hnf(a.transpose())
    ker = [u.entries[i] for i in range(h.rows) if all(x == 0 for x in h.entries[i])]
    out = IntMatrix(ker, cols=a.cols) if ker else IntMatrix([], cols=a.cols)
    canon, _ = hnf(out)
    nz = [r for r in canon.entries if any(x != 0 for x in r)]
    return IntMatrix(nz, cols=a.cols)


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


# -- rational helpers -------------------------------------------------

RatRow = Tuple[Fraction, ...]
RatMatrix = Tuple[RatRow, ...]


def rat(a: IntMatrix) -> RatMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in a.entries)


def rat_mat(entries: Iterable[Iterable[Fraction | int]]) -> RatMatrix:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


def rat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def rat_inv(a: RatMatrix) -> RatMatrix:
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ExactLAError("inverse of a non-square matrix")
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
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


def int_mat_inv(a: IntMatrix) -> RatMatrix:
    return rat_inv(rat(a))


def rat_express(targets: RatMatrix, basis: RatMatrix) -> RatMatrix:
    """Coefficients ``C`` with ``C * basis = targets``.

    ``basis`` rows must be independent; raises if a target is outside
    their rational span.  Solved through the pivot-column minor of the
    basis, with full reconstruction checks on every target.
    """
    k = len(basis)
    if k == 0:
        if any(any(x != 0 for x in t) for t in targets):
            raise ExactLAError("target outside span of empty basis")
        return tuple(tuple() for _ in targets)
    n = len(basis[0])
    red = [list(row) for row in basis]
    pivots: List[int] = []
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
    minor = tuple(tuple(basis[i][c] for c in pivots) for i in range(k))
    inv_minor = rat_inv(minor)
    out = []
    for t in targets:
        proj = [t[c] for c in pivots]
        vec = [sum(proj[j] * inv_minor[j][i] for j in range(k)) for i in range(k)]
        recon = [Fraction(0)] * n
        for ci, row in zip(vec, basis):
            for j in range(n):
                recon[j] += ci * row[j]
        if list(t) != recon:
            raise ExactLAError("target outside rational span of basis")
        out.append(tuple(vec))
    return tuple(out)


def in_rational_span(v: Sequence[int], basis: IntMatrix) -> bool:
    """Whether the integer row ``v`` lies in the rational span of the
    independent rows of ``basis``."""
    try:
        rat_express(rat(IntMatrix([list(v)], cols=basis.cols)), rat(basis))
    except ExactLAError:
        return False
    return True


def int_express(targets: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Integer coefficients expressing ``targets`` in ``basis`` rows."""
    c = rat_express(rat(targets), rat(basis))
    rows = []
    for row in c:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise ExactLAError("coefficients are not integral")
            ints.append(x.numerator)
        rows.append(ints)
    return IntMatrix(rows, cols=basis.rows)


def index_in(sub: IntMatrix, sup: IntMatrix) -> int:
    """Index ``[sup : sub]`` for two bases of the same rational span."""
    if sub.rows != sup.rows:
        raise ExactLAError("bases of different ranks have infinite index")
    c = int_express(sub, sup)
    d = det(c)
    if d == 0:
        raise ExactLAError("degenerate coefficient matrix")
    return abs(d)

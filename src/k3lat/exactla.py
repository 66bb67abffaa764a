"""Exact integer linear algebra kernel.

Everything here runs on arbitrary-precision Python integers, with no
floating point; fixed-width digits appear only inside the product, behind
a bound that proves they cannot overflow.  A rational matrix travels as
integer rows over one denominator.  ``rat_express``, ``rat_mul`` and
``snf`` are kept only because the benchmark tracer wraps them by name;
no library path calls them.  Conventions used by the whole package:

* matrices are row-major; lattice elements are ROW vectors,
* a transform ``U`` returned together with a normal form acts on the
  left, ``U * A = H``,
* ``kernel_basis(A)`` returns rows ``x`` with ``x * A^T = 0``.

Each normal form is one fraction-free elimination: the Hermite form by
gcd-driven row reduction, transform optional (``kernel_basis`` is one,
of ``[A^T | I]``; Cohen, GTM 138, 2.4), and the Smith form without
transforms.  ``smith_divisors``, the invariant factors of a nonsingular
square matrix, works one coprime part c^e of d = |det| at a time (Cohen,
GTM 138, 2.4): the primes up to 2^10, then the cofactor, split where a
pivot's unit part shares a divisor with it (dynamic evaluation; Della
Dora, Dicrescenzo and Duval, EUROCAL 1985).  Over Z/c^e a pivot of
least valuation divides its block, so one row pass clears its column
with no remainder.  ``snf``, the invariant factors of any matrix, is two
Hermite passes, of the rows and then of the columns, that leave a
square nonsingular matrix for it.  Every linear system is solved one
way, by exact substitution against a basis in row echelon form: the
basis itself when it is one, as every Hermite basis from
``kernel_basis``, ``hermite_basis`` and ``saturate`` is, and its Hermite
form otherwise, with the product of the pivots as one common
denominator.  Bareiss elimination (Bareiss, Math. Comp. 22 (1968);
Cohen, GTM 138, 2.2) is kept for ``det`` and ``gram_elimination``, which
share its step; the latter, symmetric, gives the inertia and
determinant of every Gram matrix and the Fincke--Pohst minors of
``roots``.  This is slow compared to modular methods but provably
correct, and the matrices appearing in this package have rank at most
28.

The product ``A * B`` packs each row of ``B`` into one integer of
signed w-bit digits, ``P_k = sum_j b_kj 2^(wj)`` (Kronecker substitution;
Harvey, J. Symb. Comput. 44 (2009)), so that row i of the product is the
one big-integer sum ``sum_k a_ik P_k``: a C-level multiply-add per
nonzero ``a_ik``, an addition or subtraction when it is +-1.  The width
w is the least of 8, 16, 32 and 64 bits with ``beta < 2^(w-1)``, where
``beta = max|B| * max_i sum_k |a_ik|`` (or ``max|B|`` when ``A`` is zero)
bounds every entry of ``B`` and of ``A * B``.  A bias of ``2^(w-1)`` per
digit then keeps every digit of the sum in [0, 2^w), so no digit carries
into the next, and the digits read back are exactly the entries;
``struct`` packs and unpacks the rows in C.
Two kinds of input keep the row sums instead, which add one row of
``B`` per nonzero entry of a row of ``A``: a ``beta`` of 2^63 or more,
which no digit holds, and an ``A`` with at most 2 rows(B) nonzeros,
where packing every row of ``B`` costs more than the few row additions
it replaces (signed permutations, and basis and quotient maps with one
or two nonzeros per row).

The other inputs are mostly zeros too (Gram matrices of root lattices,
block-diagonal actions, root vectors), and the eliminations skip the
work whose result is known.  A Bareiss step or a Hermite row
operation updates only the columns from the pivot on, since those
before it are zero in the pivot row; a Bareiss row whose multiplier is
0 stays as it is when the pivot equals the previous one (it is only
rescaled otherwise).  What is skipped is an exact zero or a factor of
exactly 1, so the kernels return the same integers as the dense
computation.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from functools import cache
from itertools import repeat
from operator import add, index, sub
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
        if self.cols != other.rows:
            raise ExactLAError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        a, b, n = self.entries, other.entries, other.cols
        w = None
        if sum(len(r) - r.count(0) for r in a) > 2 * other.rows:
            w = _digit_width(a, b)
        return IntMatrix._of(_row_sums(a, b, n) if w is None else _packed_rows(a, b, n, w), n)

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
        # entries are tuples of ints, so the transpose compares as they do
        return self.rows == self.cols and self.entries == tuple(zip(*self.entries))

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


# -- the product kernels ----------------------------------------------

# signed digit widths in bits, with their struct codes
_DIGITS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _digit_width(a: Sequence[Row], b: Sequence[Row]) -> int | None:
    """The least digit width w with every entry of ``b`` and of ``a * b``
    inside a signed w-bit digit, or None when 64 bits do not suffice.

    Both are bounded by ``beta = max(max|b|, max|b| * max_i sum_k |a_ik|)``;
    the first term matters only when ``a`` is zero."""
    top = max(max(map(max, b)), -min(map(min, b))) if b and b[0] else 0
    beta = max(top, top * max(map(sum, map(map, repeat(abs), a)), default=0))
    for w in _DIGITS:
        if beta < 1 << (w - 1):
            return w
    return None


def _row_sums(a: Sequence[Row], b: Sequence[Row], n: int) -> Tuple[Row, ...]:
    """Row i of ``a * b`` as the sum of the rows of ``b`` weighted by row i
    of ``a``: a zero weight is skipped and a weight of +-1 adds or
    subtracts without a multiplication."""
    zero = (0,) * n
    rows = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            if not x:
                continue
            if x == 1:
                acc = list(map(add, acc, brow))
            elif x == -1:
                acc = list(map(sub, acc, brow))
            else:
                acc = [s + x * y for s, y in zip(acc, brow)]
        rows.append(tuple(acc))
    return tuple(rows)


def _packed_rows(a: Sequence[Row], b: Sequence[Row], n: int, w: int) -> Tuple[Row, ...]:
    """``a * b`` with each row of ``b`` packed into one integer of n
    signed w-bit digits, ``P_k = sum_j b_kj 2^(wj)``; ``w`` must be at
    least ``_digit_width(a, b)``.

    Row i of the product is ``sum_k a_ik P_k``, one big-integer
    multiply-add per nonzero ``a_ik``.  With the bias ``2^(w-1)`` added
    to every digit, each digit ``c_ij + 2^(w-1)`` of the sum lies in
    [0, 2^w) because ``|c_ij| < 2^(w-1)``, so no digit carries into the
    next; flipping the top bit of each digit (``^ bias``) turns it into
    the two's-complement code of ``c_ij``, which ``struct`` unpacks."""
    digits = struct.Struct(f"<{n}{_DIGITS[w]}")
    bias = int.from_bytes((b"\x00" * (w // 8 - 1) + b"\x80") * n, "little")
    size = n * w // 8
    # packing writes two's-complement digits; ``^ bias`` makes them
    # biased, and subtracting the bias leaves the signed digits b_kj
    packed = [(int.from_bytes(digits.pack(*row), "little") ^ bias) - bias for row in b]
    rows = []
    for row in a:
        acc = bias
        for x, p in zip(row, packed):
            if not x:
                continue
            if x == 1:
                acc += p
            elif x == -1:
                acc -= p
            else:
                acc += x * p
        rows.append(digits.unpack((acc ^ bias).to_bytes(size, "little")))
    return tuple(rows)


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


def gram_elimination(gram: IntMatrix) -> Tuple[List[List[int]], List[int]]:
    """Symmetric Bareiss elimination of a Gram matrix: ``(m, pivots)``.

    Step t takes the next nonzero diagonal entry as the pivot, after
    pushing an off-diagonal entry onto the diagonal (x_i -> x_i + x_j)
    when none is left, and moves it to position t by a symmetric swap.
    Both moves are unimodular congruences, so ``pivots`` are the leading
    minors ``d_k`` of a form congruent to G: the sign of each against the
    one before it (1 at first) gives the inertia, a full set ends in
    det G, and each missing pivot is one rank of the radical.  On a
    positive definite G nothing moves, and ``m[k][l]`` (``l > k``) are the
    numerators ``B_kl`` with

        Q(x) = sum_k (d_k x_k + sum_{l>k} B_kl x_l)^2 / (d_k d_{k-1}).
    """
    m = [list(row) for row in gram.entries]
    n = len(m)
    pivots: List[int] = []
    prev = 1
    for t in range(n):
        piv = next((i for i in range(t, n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(t, n) for j in range(t, n) if m[i][j]), None)
            if pair is None:
                break  # what remains is the radical
            i, j = pair
            m[i] = list(map(add, m[i], m[j]))
            for row in m:
                row[i] += row[j]
            piv = i
        if piv != t:
            m[t], m[piv] = m[piv], m[t]
            for row in m:
                row[t], row[piv] = row[piv], row[t]
        prev = bareiss_step(m, t, prev)
        pivots.append(prev)
    return m, pivots


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


def snf(a: IntMatrix) -> Tuple[int, ...]:
    """The invariant factors of any matrix, zeros last, from two Hermite
    passes and ``smith_divisors``: the Hermite form B of the transpose of
    the Hermite basis of the rows is square, triangular and nonsingular,
    with the same factors as ``a`` apart from zeros.  Checked against the
    product of B's pivots, its |det|.  No library path calls it; the
    benchmark tracer wraps it by name."""
    h = hermite_basis(a.entries, a.cols)
    b = hermite_basis(h.transpose().entries, h.rows)
    d = math.prod(b.entries[i][i] for i in range(b.rows))
    factors = smith_divisors(b, d)
    if math.prod(factors) != d:
        raise ExactLAError("invariant factors disagree with the pivots")
    return factors + (0,) * (min(a.rows, a.cols) - b.rows)


def smith_divisors(a: IntMatrix, d: int) -> Tuple[int, ...]:
    """The invariant factors of a nonsingular square ``a`` with ``d = |det
    a|``, unchecked.  As ``adj(a) * a = +-d I`` puts ``d Z^n`` in the row
    lattice, the c-parts of the factors, for the parts c^e of d of the
    module notes, are those over Z/c^e (``_local_valuations``); a prime up
    to ``_TRIAL_LIMIT`` with e = 1 divides the last factor alone."""
    if a.rows != a.cols or d < 1:
        raise ExactLAError("smith divisors modulo |det| need a nonsingular square matrix")
    factors = [1] * a.rows
    parts = list(factorize(d))
    while parts:
        c, e = parts.pop()
        if e == 1 and c <= _TRIAL_LIMIT:
            factors[-1] *= c
            continue
        g, vals = _local_valuations(a.entries, c, e)
        if g > 1:
            parts += _coprime_base([(g, e), (c // g, e)])
        for k, v in enumerate(vals):
            factors[k] *= c**v
    return tuple(factors)


def _local_valuations(rows: Sequence[Row], c: int, e: int) -> Tuple[int, List[int]]:
    """``(1, vals)``, the c-valuations, increasing, of the invariant factors
    of the square ``rows`` over Z/c^e, which kills their c-part, or ``(g,
    [])`` for a divisor 1 < g < c.  The pivot, the first entry (row-major)
    of least valuation v, is ``c^v u``; if ``g = gcd(u, c)`` is 1, as for
    every prime c, it has least valuation at each prime of c, so it
    divides its block and ``(x / c^v) u^-1`` times its row clears its
    column.  A block that is zero mod c^e gives e to each factor left."""
    q = c**e
    s = [[x % q for x in row] for row in rows]
    vals: List[int] = []
    while s:
        cv = 1  # c^v, while every entry is divisible by it
        for v in range(e):
            ck = cv * c
            at = next(((i, j) for i, row in enumerate(s) for j, x in enumerate(row) if x % ck), None)
            if at is not None:
                break
            cv = ck
        else:
            return 1, vals + [e] * len(s)
        i, j = at
        prow = s.pop(i)
        u = prow[j] // cv
        if (g := math.gcd(u, c)) > 1:
            return g, []
        inv = pow(u, -1, q)
        for row in s:
            if row[j]:
                f = row[j] // cv * inv % q
                row[:] = [(x - f * y) % q for x, y in zip(row, prow)]
            del row[j]
        vals.append(v)
    return 1, vals


def _coprime_base(todo: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Pairwise coprime ``(b, e)``, b > 1, with the product of ``b^e`` over
    ``todo`` (consumed): a common factor t of b and c is split off, as
    ``t^(e+f) (b/t)^e (c/t)^f``, until none is left."""
    out: List[Tuple[int, int]] = []
    while todo:
        b, e = todo.pop()
        k = next((k for k, (c, _) in enumerate(out) if math.gcd(b, c) > 1), None)
        if k is not None:
            c, f = out.pop(k)
            t = math.gcd(b, c)
            todo += [(t, e + f), (b // t, e), (c // t, f)]
        elif b > 1:
            out.append((b, e))
    return out


# the largest prime that ``factorize`` tries
_TRIAL_LIMIT = 1 << 10


@cache
def factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """The prime powers ``(p, e)`` of ``n >= 1`` for the primes p up to
    ``_TRIAL_LIMIT``, by trial division, p increasing; cached.  A cofactor
    left comes last with e = 1, and it may be composite."""
    out = []
    for p in range(2, min(math.isqrt(n), _TRIAL_LIMIT) + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


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
    """Basis of the saturated integer kernel ``{x : x * A^T = 0}``, in row
    Hermite form, from one Hermite elimination of ``[A^T | I]``.

    Its rows zero on the ``A^T`` columns span the kernel, as the row
    operations are unimodular, and their ``I`` parts are in Hermite form
    among themselves: the kernel's unique Hermite basis.
    """
    k, m = a.rows, a.cols
    h = [[*col, *(0,) * i, 1, *(0,) * (m - i - 1)] for i, col in enumerate(a.transpose().entries)]
    _hermite(h, [[] for _ in h])  # empty transform rows: no transform work
    return IntMatrix._of(tuple(tuple(row[k:]) for row in h if not any(row[:k])), m)


def saturate(rows: IntMatrix) -> IntMatrix:
    """Basis of ``span_Q(rows) ∩ Z^n``, in row Hermite form: the kernel of
    the kernel of ``rows``.

    Raises if the input rows are dependent, which would signal an
    invalid sublattice basis: then the kernel has more than n - k rows.
    """
    ortho = kernel_basis(rows)
    if ortho.rows != rows.cols - rows.rows:
        raise ExactLAError("dependent rows: not a sublattice basis")
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
) -> Tuple[Sequence[Row], int]:
    """Integer numerators ``N`` and one denominator ``D > 0`` with
    ``N * basis = D * targets``.

    Substitution in the Hermite form ``H = U * basis``, whose zero row
    means dependent rows.  ``D``, the product of its pivots, is the
    determinant of its triangular pivot columns, so the substitution of
    ``D * targets`` divides exactly and leaves a residual only for a
    target outside the rational span.  Its coefficients ``Y`` give
    ``N = Y * U``, and ``N * basis = Y * H = D * targets``."""
    k = len(basis)
    if k == 0:
        if any(any(x != 0 for x in t) for t in targets):
            raise ExactLAError("target outside span of empty basis")
        return [[] for _ in targets], 1
    n = len(basis[0])
    if any(len(t) != n for t in targets):
        raise ExactLAError("target outside rational span of basis")
    h, u = hnf(IntMatrix(basis, cols=n))
    if not any(h.entries[-1]):
        raise ExactLAError("basis rows are dependent")
    d = math.prod(next(filter(None, row)) for row in h.entries)
    coeffs = _echelon_express(IntMatrix(targets, cols=n).scale(d), h)
    if coeffs is None:
        raise ExactLAError("target outside rational span of basis")
    return (IntMatrix._of(tuple(coeffs), k) * u).entries, d


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
    substitution in a basis in row echelon form, otherwise (and for every
    error) in its Hermite form by ``_solve``, so nothing depends on which."""
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

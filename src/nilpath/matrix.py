"""Dense exact matrices over the Gaussian rationals.

Matrices are stored row-major as lists of :class:`~nilpath.scalar.Scalar`
and treated as immutable after construction; all operations return new
values, so concurrent readers are safe.

The kernels run on integers.  Each operand is converted once to integer
rows over a per-row common denominator (per column for the right factor of
a product); entries that are the shared ZERO cost one identity test, so a
conversion costs O(nonzero entries).  When an entry of the input is not
real, the integers are Gaussian integers (``_GaussInt``) and the same loops
run on them.  There is one product loop, which sums integer products, and
one elimination loop, fraction-free Gauss-Jordan (Bareiss 1968): each row
update is divided exactly by the pivot of the row's previous update.  Its
pivot choice is that of rational Gauss-Jordan, so every result equals the
rational one.  A pivot row divided by its pivot is a row of the rref, and
the signed product of the rational pivots is ±(last pivot) over the
product of the pivot rows' denominators.  rank counts the pivots, det is
that product, inverse and solve read the reduced augmented block, and
rref, kernel_basis and pivot_columns read the echelon form.  matrix_pow and
power_ranks keep the integer form across their chained products.  Callers
in the package that build their rows in integers hand them to the
elimination as they are (``_Reduction``) and convert only what they return.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import InputFormatError, SingularMatrixError
from .scalar import _ZERO_F, ONE, ZERO, Scalar, _mk, format_scalar, parse_scalar


class Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Scalar]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = [list(r) for r in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        m = Matrix.zeros(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        """Build from nested sequences of ints/Fractions/Scalars."""
        conv = [[e if isinstance(e, Scalar) else Scalar(e) for e in r] for r in rows]
        n = len(conv)
        c = len(conv[0]) if conv else 0
        return Matrix(n, c, conv)

    @staticmethod
    def column(entries: Sequence[Scalar]) -> "Matrix":
        return Matrix(len(entries), 1, [[e] for e in entries])

    def column_entries(self, j: int = 0) -> list[Scalar]:
        return [self.data[i][j] for i in range(self.rows)]

    # -- basic queries -------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb))
        )

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(e) for e in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        _check_same_shape(self, other)
        return Matrix(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        _check_same_shape(self, other)
        return Matrix(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def scale(self, c: Scalar) -> "Matrix":
        if not isinstance(c, Scalar):
            c = Scalar(c)
        return Matrix(self.rows, self.cols, [[a * c for a in r] for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return matrix_mul(self, other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, [list(col) for col in zip(*self.data)] if self.rows and self.cols else [[] for _ in range(self.cols)])


def _check_same_shape(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")


def jordan_cell(k: int) -> Matrix:
    """The size-k nilpotent cell with ones on the superdiagonal; k=0 is empty."""
    if k < 0:
        raise ValueError("cell size must be non-negative")
    m = Matrix.zeros(k, k)
    for i in range(k - 1):
        m.data[i][i + 1] = ONE
    return m


def direct_sum(blocks: Iterable[Matrix]) -> Matrix:
    blocks = list(blocks)
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = Matrix.zeros(rows, cols)
    r = c = 0
    for b in blocks:
        for i in range(b.rows):
            out.data[r + i][c : c + b.cols] = list(b.data[i])
        r += b.rows
        c += b.cols
    return out


# -- integer kernels ---------------------------------------------------------


class _GaussInt:
    """A Gaussian integer ``re + im*i``: the kernels' element type when an
    entry of their input is not real.  It has what the loops use: ``+``,
    ``-``, ``*``, exact ``//`` and ``bool``, and ``==`` for exact checks."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "_GaussInt") -> "_GaussInt":
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return _GaussInt(a * c, a * d)
        return _GaussInt(a * c - b * d, a * d + b * c)

    def __floordiv__(self, other: "_GaussInt") -> "_GaussInt":
        """The exact quotient: ``other`` must divide ``self``."""
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            return _GaussInt(a // c, b // c)
        n = c * c + d * d
        return _GaussInt((a * c + b * d) // n, (b * c - a * d) // n)

    def __eq__(self, other: object) -> bool:
        if type(other) is not _GaussInt:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))


_GAUSS_ZERO = _GaussInt(0, 0)
_ZERO_RATIO = (0, 1)


def _integer(x: int, gaussian: bool):
    """The integer x as the kernels hold it: a Gaussian integer when ``gaussian``."""
    return _GaussInt(x, 0) if gaussian else x


def _zero(gaussian: bool):
    """The kernels' zero: the Gaussian one when ``gaussian``."""
    return _GAUSS_ZERO if gaussian else 0


def _scaled(rows: list[list], k: int, gaussian: bool) -> list[list]:
    """New integer rows: ``rows`` times the integer k."""
    k = _integer(k, gaussian)
    return [[x * k for x in row] for row in rows]


def _is_gaussian(data) -> bool:
    """Whether some entry has a nonzero imaginary part."""
    return any(e.im for row in data for e in row if e is not ZERO)


def _int_rows(data: Sequence[Sequence[Scalar]], gaussian: bool) -> tuple[list[list], list[int]]:
    """Each row as integers over its least common denominator: the integer
    rows (Gaussian integers when ``gaussian``) and their denominators.
    Entries that are the shared ZERO cost one identity test."""
    width = len(data[0]) if data else 0
    starts = range(0, len(data) * width, width) if width else [0] * len(data)
    re = [_ZERO_RATIO if e is ZERO else e.re.as_integer_ratio() for row in data for e in row]
    qs = [q for _, q in re]
    if gaussian:
        im = [_ZERO_RATIO if e is ZERO else e.im.as_integer_ratio() for row in data for e in row]
        dens = [lcm(*qs[i : i + width], *[q for _, q in im[i : i + width]]) for i in starts]
        rows = [
            [
                _GaussInt(a * (d // q), b * (d // s)) if a or b else _GAUSS_ZERO
                for (a, q), (b, s) in zip(re[i : i + width], im[i : i + width])
            ]
            for i, d in zip(starts, dens)
        ]
    elif max(qs, default=1) == 1:
        nums = [a for a, _ in re]
        rows, dens = [nums[i : i + width] for i in starts], [1] * len(data)
    else:
        dens = [lcm(*qs[i : i + width]) for i in starts]
        rows = [[a * (d // q) for a, q in re[i : i + width]] for i, d in zip(starts, dens)]
    return rows, dens


def _int_matrix(data: Sequence[Sequence[Scalar]], gaussian: bool) -> tuple[list[list], int]:
    """The rows of a square matrix as integers over one common denominator."""
    (flat,), (d,) = _int_rows([[e for row in data for e in row]], gaussian)
    return [flat[i : i + len(data)] for i in range(0, len(flat), len(data) or 1)], d


def _scalar(x, den: int) -> Scalar:
    """``x / den`` for an integer or Gaussian integer x and an integer den."""
    if not x:
        return ZERO
    if type(x) is int:
        return _mk(Fraction(x, den), _ZERO_F)
    return _mk(Fraction(x.re, den), Fraction(x.im, den) if x.im else _ZERO_F)


def _mul_rows(arows: list[list], brows: list, width: int, zero) -> list[list]:
    """The product loop: row i is the sum of ``a_ik * brows[k]`` over the
    nonzero entries a_ik of ``arows[i]``, summed in integers."""
    out = []
    for arow in arows:
        acc = [zero] * width
        for a, brow in zip(arow, brows):
            if a:
                acc = list(map(add, acc, map(mul, repeat(a), brow)))
        out.append(acc)
    return out


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product, from integer rows of a (per-row denominators) and
    integer columns of b (per-column denominators)."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    gaussian = _is_gaussian(a.data) or _is_gaussian(b.data)
    arows, adens = _int_rows(a.data, gaussian)
    bcols, bdens = _int_rows(list(zip(*b.data)) if b.rows else [()] * b.cols, gaussian)
    prods = _mul_rows(arows, list(zip(*bcols)), b.cols, _zero(gaussian))
    return Matrix(
        a.rows,
        b.cols,
        [[_scalar(x, da * db) for x, db in zip(row, bdens)] for row, da in zip(prods, adens)],
    )


def matrix_pow(m: Matrix, e: int) -> Matrix:
    """Power by repeated multiplication in integers over one common
    denominator; the empty matrix stays empty."""
    if not m.is_square():
        raise ValueError("power of a non-square matrix")
    if e < 0:
        raise ValueError("negative matrix power")
    if e == 0:
        return Matrix.identity(m.rows)
    gaussian = _is_gaussian(m.data)
    rows, d = _int_matrix(m.data, gaussian)
    out = rows
    for _ in range(e - 1):
        out = _mul_rows(out, rows, m.cols, _zero(gaussian))
    den = d**e
    return Matrix(m.rows, m.cols, [[_scalar(x, den) for x in row] for row in out])


# -- elimination -----------------------------------------------------------


def _eliminate(rows: list[list], dens: list[int], pivot_cols: int) -> tuple[list[int], list, int]:
    """The elimination loop: fraction-free Gauss-Jordan on integer rows, in
    place (Bareiss 1968).

    The pivot of column c is the first nonzero entry at or below the current
    row, in the first ``pivot_cols`` columns only; ``dens`` is permuted with
    the rows.  Each row carries a scale, None until an update touches it
    and then the pivot of that update.  Pivot ``piv`` in row r updates row i
    to ``(piv * row_i - f * row_r) // scale_i`` with f the entry of row i in
    column c, an exact division.  Rows with f = 0 are left alone: their
    value only changes by the ratio of successive pivots, and a row is
    brought up to date when it becomes the pivot row.  At the end row i is
    ``scale_i`` times its row in the rational reduced form, times its
    denominator unless the row holds a pivot.

    Returns the pivot columns, the row scales and the sign of the row
    permutation, 0 once a column fails to pivot.
    """
    n = len(rows)
    scales: list = [None] * n
    pivots: list[int] = []
    sign = 1
    prev = None
    r = 0
    for c in range(pivot_cols):
        if r >= n:
            break
        p = r
        while p < n and not rows[p][c]:
            p += 1
        if p == n:
            sign = 0
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            dens[p], dens[r] = dens[r], dens[p]
            scales[p], scales[r] = scales[r], scales[p]
            sign = -sign
        prow = rows[r]
        s = scales[r]
        if s is not prev:
            prow = [x * prev for x in prow] if s is None else [x * prev // s for x in prow]
            rows[r] = prow
        piv = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if not f or i == r:
                continue
            s = scales[i]
            if s is None:
                rows[i] = [piv * x - f * y for x, y in zip(row, prow)]
            else:
                rows[i] = [(piv * x - f * y) // s for x, y in zip(row, prow)]
            scales[i] = piv
        scales[r] = prev = piv
        pivots.append(c)
        r += 1
    return pivots, scales, sign


class _Reduction:
    """Integer rows over their denominators, reduced in place by
    :func:`_eliminate` over their first ``pivot_cols`` columns, with what
    the loop returned."""

    __slots__ = ("rows", "dens", "pivots", "scales", "sign")

    def __init__(self, rows: list[list], dens: list[int], pivot_cols: int):
        self.rows, self.dens = rows, dens
        self.pivots, self.scales, self.sign = _eliminate(rows, dens, pivot_cols)

    @staticmethod
    def of(data: Sequence[Sequence[Scalar]], pivot_cols: int) -> "_Reduction":
        """The reduction of a matrix of Scalars, converted to integer rows."""
        return _Reduction(*_int_rows(data, _is_gaussian(data)), pivot_cols)

    def row(self, i: int, columns: Optional[Iterable[int]] = None) -> list[Scalar]:
        """Row i of the rational reduced form, at ``columns`` (all by default)."""
        s = self.scales[i]
        den = 1 if i < len(self.pivots) else self.dens[i]
        row = self.rows[i] if columns is None else [self.rows[i][c] for c in columns]
        if type(s) is _GaussInt:
            if s.im:  # divide by s as conj(s) / |s|^2
                conj = _GaussInt(s.re, -s.im)
                row = [x * conj for x in row]
                den *= s.re * s.re + s.im * s.im
            else:
                den *= s.re
        elif s is not None:
            den *= s
        return [_scalar(x, den) for x in row]

    def kernel(self, cols: int) -> list[list[Scalar]]:
        """Echelon-ordered basis of the null space of the reduced ``cols``
        columns, one vector per free column in ascending order: the vector
        of free column f is e_f minus the rref's column f on the pivot
        columns.  Only the rref's entries at free columns are converted."""
        pivot_set = set(self.pivots)
        free = [c for c in range(cols) if c not in pivot_set]
        at_free = [self.row(r, free) for r in range(len(self.pivots))]
        basis = []
        for f, fc in enumerate(free):
            v = [ZERO] * cols
            v[fc] = ONE
            for row, pc in zip(at_free, self.pivots):
                if row[f]:
                    v[pc] = -row[f]
            basis.append(v)
        return basis

    def det(self) -> Scalar:
        """The signed product of the rational pivots: ±(last pivot) over the
        denominators of the pivot rows, ZERO once a column failed to pivot."""
        if not self.sign:
            return ZERO
        k = len(self.pivots)
        d = _scalar(self.rows[k - 1][self.pivots[-1]] if k else 1, prod(self.dens[:k]))
        return d if self.sign > 0 else -d


def _gauss_jordan(data: list[list[Scalar]], pivot_cols: int) -> tuple[list[int], Scalar]:
    """Reduce ``data`` in place to reduced row echelon form.

    Pivots are sought in the first ``pivot_cols`` columns only; row
    operations run across the full width, so columns past ``pivot_cols``
    carry an augmented block along.  Returns the pivot columns and the
    signed product of the pivots, negated on each row swap and ZERO once a
    column fails to pivot: for a square block, its determinant.
    """
    red = _Reduction.of(data, pivot_cols)
    data[:] = [red.row(i) for i in range(len(data))]
    return red.pivots, red.det()


def _solve_square(a: Matrix, b: Matrix) -> tuple[Matrix, Scalar]:
    """``(a^-1 b, det a)``, read off ``[a | b]`` row-reduced over the
    columns of a; raises SingularMatrixError unless they all pivot."""
    n = a.rows
    red = _Reduction.of([ra + rb for ra, rb in zip(a.data, b.data)], n)
    if len(red.pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix(n, b.cols, [red.row(i, range(n, n + b.cols)) for i in range(n)]), red.det()


def rank(m: Matrix) -> int:
    return len(_Reduction.of(m.data, m.cols).pivots)


def det(m: Matrix) -> Scalar:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _Reduction.of(m.data, m.cols).det()


def pivot_columns(rows: int, columns: Sequence[Sequence[Scalar]]) -> list[int]:
    """Indices of the greedy independent subset of ``columns`` (each of
    length ``rows``): a column is kept unless it lies in the span of those
    before it, which makes the kept ones the pivot columns of their rref."""
    data = list(zip(*columns)) if columns else [()] * rows
    return _Reduction.of(data, len(columns)).pivots


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises if singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    return _solve_square(m, Matrix.identity(m.rows))[0]


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve ``a @ x = b`` for square invertible ``a``; raises if singular."""
    if not a.is_square() or a.rows != b.rows:
        raise ValueError("solve shape mismatch")
    return _solve_square(a, b)[0]


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    data = [list(r) for r in m.data]
    pivots, _ = _gauss_jordan(data, m.cols)
    return Matrix(m.rows, m.cols, data), pivots


def _primitive(row: list) -> list:
    """``row`` divided by the gcd of its integer parts."""
    if row and type(row[0]) is _GaussInt:
        g = gcd(*[x.re for x in row], *[x.im for x in row])
        return row if g < 2 else [_GaussInt(x.re // g, x.im // g) for x in row]
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def power_ranks(m: Matrix) -> list[int]:
    """Ranks of M^0, M^1, ..., M^s, where s is the first exponent with
    rank(M^s) = rank(M^(s+1)); the sequence is constant from there on.

    Since im(M^(k+1)) = M im(M^k), the rows of an echelon basis of im(M^k),
    pushed through M (times M^T on the right) and row-reduced again, give one
    of im(M^(k+1)).  No power of M is formed.  The loop stays in integers:
    M^T over one common denominator, and the fraction-free pivot rows with
    their common factor divided out, so entries do not grow with k.
    """
    if not m.is_square():
        raise ValueError("power ranks of a non-square matrix")
    n = m.rows
    gaussian = _is_gaussian(m.data)
    mt, _ = _int_matrix(m.transpose().data, gaussian)
    ranks = [n]
    images = list(mt)  # rows span im(M); _eliminate replaces rows, never edits them
    while True:
        r = len(_eliminate(images, [1] * len(images), n)[0])
        if r == ranks[-1]:
            return ranks
        ranks.append(r)
        if r == 0:
            return ranks
        images = _mul_rows([_primitive(row) for row in images[:r]], mt, n, _zero(gaussian))


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Echelon-ordered basis of the null space, as column matrices.

    Basis vectors are parametrized by free columns in ascending order, so
    the result is deterministic.
    """
    return kernel_and_pivots(m)[0]


def kernel_and_pivots(m: Matrix) -> tuple[list[Matrix], list[int]]:
    """:func:`kernel_basis` and the pivot columns of rref(m), from one
    elimination.  The kernel vector of a free column is nonzero only there
    and on pivot columns to its left."""
    red = _Reduction.of(m.data, m.cols)
    return [Matrix.column(v) for v in red.kernel(m.cols)], red.pivots


# -- matrix-space vectorization (column-major stacking) ---------------------


def vec(m: Matrix) -> Matrix:
    """Stack columns into a single column of length rows*cols."""
    out = []
    for j in range(m.cols):
        for i in range(m.rows):
            out.append(m.data[i][j])
    return Matrix.column(out)


def unvec(v: Matrix, n: int) -> Matrix:
    """Inverse of :func:`vec` for an n-by-n matrix."""
    if v.rows != n * n or v.cols != 1:
        raise ValueError("unvec shape mismatch")
    out = Matrix.zeros(n, n)
    for j in range(n):
        for i in range(n):
            out.data[i][j] = v.data[j * n + i][0]
    return out


# -- JSON format -------------------------------------------------------------


def matrix_to_json_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[format_scalar(e) for e in row] for row in m.data],
    }


def matrix_from_json_obj(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise InputFormatError("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix JSON: {exc}") from None
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputFormatError("matrix JSON: wrong number of rows")
    data = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise InputFormatError("matrix JSON: wrong row length")
        data.append([parse_scalar(e) for e in row])
    return Matrix(rows, cols, data)


def matrix_to_json(m: Matrix) -> str:
    return json.dumps(matrix_to_json_obj(m))


def matrix_from_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from None
    return matrix_from_json_obj(obj)


def random_invertible(n: int, rng, lo: int = -3, hi: int = 3) -> Matrix:
    """Random integer matrix with nonzero determinant (rejection sampling)."""
    while True:
        m = Matrix.from_rows(
            [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        )
        if not det(m).is_zero():
            return m

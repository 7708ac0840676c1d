"""Dense exact matrices over the Gaussian rationals.

Matrices are stored row-major as lists of :class:`~nilpath.scalar.Scalar`
and treated as immutable after construction; all operations return new
values, so concurrent readers are safe.  One Gauss-Jordan routine does all
elimination: rank counts its pivots, det is the signed product of its
pivots, inverse and solve read the reduced augmented block, and rref,
kernel_basis, power_ranks and pivot_columns read the echelon form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputFormatError, SingularMatrixError
from .scalar import ONE, ZERO, Scalar, format_scalar, parse_scalar


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


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [[ZERO] * b.cols for _ in range(a.rows)]
    bdata = b.data
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for k in range(a.cols):
            aik = arow[k]
            if not aik.is_zero():
                brow = bdata[k]
                for j in range(b.cols):
                    bkj = brow[j]
                    if not bkj.is_zero():
                        orow[j] = orow[j] + aik * bkj
    return Matrix(a.rows, b.cols, out)


def matrix_pow(m: Matrix, e: int) -> Matrix:
    """Power by repeated multiplication; the empty matrix stays empty."""
    if not m.is_square():
        raise ValueError("power of a non-square matrix")
    if e < 0:
        raise ValueError("negative matrix power")
    out = Matrix.identity(m.rows)
    for _ in range(e):
        out = matrix_mul(out, m)
    return out


# -- elimination -----------------------------------------------------------


def _gauss_jordan(data: list[list[Scalar]], pivot_cols: int) -> tuple[list[int], Scalar]:
    """Reduce ``data`` in place to reduced row echelon form.

    Pivots are sought in the first ``pivot_cols`` columns only; row
    operations run across the full width, so columns past ``pivot_cols``
    carry an augmented block along.  Returns the pivot columns and the
    signed product of the pivots, negated on each row swap and ZERO once a
    column fails to pivot: for a square block, its determinant.
    """
    rows = len(data)
    width = len(data[0]) if rows else 0
    pivots: list[int] = []
    d = ONE
    r = 0
    for c in range(pivot_cols):
        if r >= rows:
            break
        p = r
        while p < rows and data[p][c].is_zero():
            p += 1
        if p == rows:
            d = ZERO
            continue
        if p != r:
            data[p], data[r] = data[r], data[p]
            d = -d
        piv = data[r][c]
        d = d * piv
        if piv != ONE:
            data[r] = [e / piv for e in data[r]]
        prow = data[r]
        for i in range(rows):
            if i == r:
                continue
            f = data[i][c]
            if f.is_zero():
                continue
            row = data[i]
            for j in range(c, width):
                if not prow[j].is_zero():
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
    return pivots, d


def _solve_square(a: Matrix, b: Matrix) -> tuple[Matrix, Scalar]:
    """``(a^-1 b, det a)``, read off ``[a | b]`` row-reduced over the
    columns of a; raises SingularMatrixError unless they all pivot."""
    n = a.rows
    aug = [list(a.data[i]) + list(b.data[i]) for i in range(n)]
    pivots, d = _gauss_jordan(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return Matrix(n, b.cols, [row[n:] for row in aug]), d


def rank(m: Matrix) -> int:
    return len(_gauss_jordan([list(r) for r in m.data], m.cols)[0])


def det(m: Matrix) -> Scalar:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _gauss_jordan([list(r) for r in m.data], m.cols)[1]


def pivot_columns(rows: int, columns: Sequence[Sequence[Scalar]]) -> list[int]:
    """Indices of the greedy independent subset of ``columns`` (each of
    length ``rows``): a column is kept unless it lies in the span of those
    before it, which makes the kept ones the pivot columns of their rref."""
    data = [list(r) for r in zip(*columns)] if columns else [[] for _ in range(rows)]
    return _gauss_jordan(data, len(columns))[0]


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


def power_ranks(m: Matrix) -> list[int]:
    """Ranks of M^0, M^1, ..., M^s, where s is the first exponent with
    rank(M^s) = rank(M^(s+1)); the sequence is constant from there on.

    Since im(M^(k+1)) = M im(M^k), the rows of an echelon basis of im(M^k),
    pushed through M (times M^T on the right) and row-reduced again, give one
    of im(M^(k+1)).  No power of M is formed, so entries stay those of
    reduced echelon bases instead of growing with k.
    """
    if not m.is_square():
        raise ValueError("power ranks of a non-square matrix")
    mt = m.transpose()
    ranks = [m.rows]
    images = mt  # rows span im(M)
    while True:
        red, pivots = rref(images)
        r = len(pivots)
        if r == ranks[-1]:
            return ranks
        ranks.append(r)
        if r == 0:
            return ranks
        images = matrix_mul(Matrix(r, m.cols, red.data[:r]), mt)


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
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            e = red.data[r][fc]
            if not e.is_zero():
                v[pc] = -e
        basis.append(Matrix.column(v))
    return basis, pivots


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

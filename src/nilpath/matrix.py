"""Dense exact matrices over the Gaussian rationals.

A matrix stores one thing: its canonical integer form (``_Ints``).  Row i is
an integer row over its own positive denominator, with Gaussian integers
(``_GaussInt``) when an entry is not real.  Each row is divided by its gcd
with its denominator, so equal matrices have equal forms.  A matrix built
from :class:`~nilpath.scalar.Scalar` entries converts them once, at
construction, and keeps them as the cache that ``Matrix.data`` reads; a
matrix made by a kernel, or read from JSON text (parsed straight into
integers), builds its Scalars the first time they are read.
``Matrix.data`` is a tuple of tuples, so the entries are read-only and all
operations return new values.

The kernels run on the integer form, so a chain of kernel calls stays in
integers.  The conversion from Scalars works row by row over the least
common denominator; entries that are the shared ZERO cost one identity
test, so a conversion costs O(nonzero entries).  There is one product loop,
which sums integer products over one common denominator of the right
factor, and one elimination loop, fraction-free Gauss-Jordan (Bareiss
1968): each row update is divided exactly by the pivot of the row's
previous update.  Its pivot choice is that of rational Gauss-Jordan, so
every result equals the rational one.  A pivot row divided by its pivot is
a row of the rref, and the signed product of the rational pivots is
±(last pivot) over the product of the pivot rows' denominators.  rank
counts the pivots, det is that product, inverse and solve read the reduced
augmented block, and rref, kernel_basis and pivot_columns read the echelon
form.  Callers in the package that build their rows in integers hand them
to the elimination as they are (``_Reduction``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputFormatError, SingularMatrixError
from .scalar import _ZERO_F, ZERO, Scalar, _mk, _scalar_parts, format_scalar, parse_int


class Matrix:
    __slots__ = ("rows", "cols", "_data", "_form")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Scalar]]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data = tuple(map(tuple, data))
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry grid does not match declared dimensions")
        self.rows = rows
        self.cols = cols
        self._data = data
        self._form = _ints_of(data)

    @property
    def data(self) -> tuple[tuple[Scalar, ...], ...]:
        """The entries, row-major, as Scalars; built from the integer form
        on first read."""
        data = self._data
        if data is None:
            rows, dens, _ = self._form
            data = self._data = tuple(tuple(_scalar(x, d) for x in row) for row, d in zip(rows, dens))
        return data

    # -- constructors ------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _made(n, n, _Ints([[int(i == j) for j in range(n)] for i in range(n)], [1] * n, False))

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
        return [row[j] for row in self.data]

    # -- basic queries -------------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, _ints(self).rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return _ints(self) == _ints(other)  # the forms are canonical

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(e) for e in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: [{body}])"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return _combine(self, other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _combine(self, other, sub)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Matrix":
        """c times the matrix: with c = w/e, row i becomes ``w row_i / (e d_i)``."""
        if not isinstance(c, Scalar):
            c = Scalar(c)
        f = _ints(self)
        gaussian = f.gaussian or not c.is_real()
        ((w,),), (e,) = _int_rows([[c]], gaussian)
        rows = [[x * w for x in row] for row in _typed(f, gaussian)]
        return _made(self.rows, self.cols, _canonical(rows, [d * e for d in f.dens], gaussian))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return matrix_mul(self, other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        """Over one denominator, the columns are the rows of the transpose."""
        form = _ints(self)
        rows, den = _over_one(form, form.gaussian)
        columns = _transposed(rows, self.cols)
        return _made(self.cols, self.rows, _canonical(columns, [den] * self.cols, form.gaussian))


def _combine(a: Matrix, b: Matrix, op) -> Matrix:
    """``a op b`` entrywise for op = add or sub, row by row over the lcm of
    the two rows' denominators."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    fa, fb = _ints(a), _ints(b)
    gaussian = fa.gaussian or fb.gaussian
    rows, dens = [], []
    for ra, da, rb, db in zip(_typed(fa, gaussian), fa.dens, _typed(fb, gaussian), fb.dens):
        d = lcm(da, db)
        rows.append(list(map(op, _times(ra, d // da, gaussian), _times(rb, d // db, gaussian))))
        dens.append(d)
    return _made(a.rows, a.cols, _canonical(rows, dens, gaussian))


def _transposed(rows: Sequence[Sequence], cols: int) -> list[list]:
    """The columns of a grid of ``cols`` columns, as lists."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]


def jordan_cell(k: int) -> Matrix:
    """The size-k nilpotent cell with ones on the superdiagonal; k=0 is empty."""
    if k < 0:
        raise ValueError("cell size must be non-negative")
    return _made(k, k, _Ints([[int(j == i + 1) for j in range(k)] for i in range(k)], [1] * k, False))


def direct_sum(blocks: Iterable[Matrix]) -> Matrix:
    """The block-diagonal matrix of ``blocks``, built from their integer forms."""
    blocks = list(blocks)
    forms = [_ints(b) for b in blocks]
    gaussian = any(f.gaussian for f in forms)
    zero = _zero(gaussian)
    cols = sum(b.cols for b in blocks)
    rows: list[list] = []
    dens: list[int] = []
    c = 0
    for b, f in zip(blocks, forms):
        left, right = [zero] * c, [zero] * (cols - c - b.cols)
        rows.extend(left + row + right for row in _typed(f, gaussian))
        dens.extend(f.dens)
        c += b.cols
    return _made(len(rows), cols, _Ints(rows, dens, gaussian))


def _columns(m: Matrix, order: Sequence[int]) -> Matrix:
    """The matrix whose j-th column is column ``order[j]`` of m."""
    f = _ints(m)
    return _made(m.rows, len(order), _Ints([[row[c] for c in order] for row in f.rows], f.dens, f.gaussian))


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


class _Ints(NamedTuple):
    """A matrix as the kernels hold it: row i is ``rows[i] / dens[i]``, in
    Gaussian integers when ``gaussian``.  Canonical: each row and its
    positive denominator have no common factor, and ``gaussian`` holds
    exactly when some entry is not real.  The row lists are shared between
    forms and never edited."""

    rows: list[list]
    dens: list[int]
    gaussian: bool


def _made(rows: int, cols: int, form: _Ints) -> Matrix:
    """A matrix that holds only its integer form."""
    m = Matrix.__new__(Matrix)
    m.rows, m.cols, m._data, m._form = rows, cols, None, form
    return m


def _ints(m: Matrix) -> _Ints:
    """The integer form of m."""
    return m._form


def _ints_of(data: Sequence[Sequence[Scalar]]) -> _Ints:
    """The integer form of a grid of Scalars."""
    gaussian = _is_gaussian(data)
    return _Ints(*_int_rows(data, gaussian), gaussian)


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


def _times(row: list, k: int, gaussian: bool) -> list:
    """``row`` times the integer k: the row itself when k is 1."""
    return row if k == 1 else _scaled([row], k, gaussian)[0]


def _typed(form: _Ints, gaussian: bool) -> list[list]:
    """The form's rows in Gaussian integers when ``gaussian``, else as they are."""
    if gaussian and not form.gaussian:
        return [[_GaussInt(x, 0) if x else _GAUSS_ZERO for x in row] for row in form.rows]
    return form.rows


def _over_one(form: _Ints, gaussian: bool) -> tuple[list[list], int]:
    """The form's rows over one common denominator, and that denominator,
    in Gaussian integers when ``gaussian``."""
    den = lcm(*form.dens)
    return [_times(row, den // d, gaussian) for row, d in zip(_typed(form, gaussian), form.dens)], den


def _parts(row: list) -> list[int]:
    """The integers a row is made of: its entries, or their real and
    imaginary parts."""
    if row and type(row[0]) is _GaussInt:
        return [x.re for x in row] + [x.im for x in row]
    return row


def _divided(row: list, g: int) -> list:
    """``row`` divided exactly by the integer g."""
    if row and type(row[0]) is _GaussInt:
        return [_GaussInt(x.re // g, x.im // g) for x in row]
    return [x // g for x in row]


def _canonical(rows: list[list], dens: list[int], gaussian: bool) -> _Ints:
    """The integer form of the matrix with rows ``rows[i] / dens[i]`` (any
    nonzero denominators): each row and its denominator divided by their
    gcd, signed so the denominator is positive, and Gaussian rows with no
    imaginary part as integer rows."""
    if gaussian and not any(x.im for row in rows for x in row):
        rows, gaussian = [[x.re for x in row] for row in rows], False
    out_rows, out_dens = [], []
    for row, d in zip(rows, dens):
        if d != 1:
            g = gcd(d, *_parts(row))
            if d < 0:
                g = -g
            if g != 1:
                row, d = _divided(row, g), d // g
        out_rows.append(row)
        out_dens.append(d)
    return _Ints(out_rows, out_dens, gaussian)


def _is_gaussian(data) -> bool:
    """Whether some entry has a nonzero imaginary part."""
    return any(e.im for row in data for e in row if e is not ZERO)


def _int_rows(data: Sequence[Sequence[Scalar]], gaussian: bool) -> tuple[list[list], list[int]]:
    """Each row as integers over its least common denominator: the integer
    rows (Gaussian integers when ``gaussian``) and their denominators, as
    in the integer form.  Entries that are the shared ZERO cost one
    identity test."""
    re = [_ZERO_RATIO if e is ZERO else e.re.as_integer_ratio() for row in data for e in row]
    im = gaussian and [_ZERO_RATIO if e is ZERO else e.im.as_integer_ratio() for row in data for e in row]
    return _ratio_rows(len(data), re, im or None)


def _ratio_rows(count: int, re: list[tuple], im: Optional[list[tuple]]) -> tuple[list[list], list[int]]:
    """``count`` rows over the lcm of their denominators, from row-major (numerator,
    denominator) pairs of the entries' real and, unless ``im`` is None, imaginary parts."""
    width = len(re) // count if count else 0
    starts = range(0, count * width, width) if width else [0] * count
    qs = [q for _, q in re]
    if im is not None:
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
        rows, dens = [nums[i : i + width] for i in starts], [1] * count
    else:
        dens = [lcm(*qs[i : i + width]) for i in starts]
        rows = [[a * (d // q) for a, q in re[i : i + width]] for i, d in zip(starts, dens)]
    return rows, dens


def _scalar(x, den: int) -> Scalar:
    """``x / den`` for an integer or Gaussian integer x and an integer den."""
    if not x:
        return ZERO
    if type(x) is int:
        return _mk(Fraction(x) if den == 1 else Fraction(x, den), _ZERO_F)
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


def _product(a: _Ints, b: _Ints, width: int) -> _Ints:
    """The integer form of the product: a's rows times b's rows over one
    common denominator."""
    gaussian = a.gaussian or b.gaussian
    brows, bden = _over_one(b, gaussian)
    prods = _mul_rows(_typed(a, gaussian), brows, width, _zero(gaussian))
    return _canonical(prods, [d * bden for d in a.dens], gaussian)


def matrix_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product, from the integer forms of a and b."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return _made(a.rows, b.cols, _product(_ints(a), _ints(b), b.cols))


def matrix_pow(m: Matrix, e: int) -> Matrix:
    """Power by repeated squaring on the integer form, about 2 log2(e)
    products; the empty matrix stays empty."""
    if not m.is_square():
        raise ValueError("power of a non-square matrix")
    if e < 0:
        raise ValueError("negative matrix power")
    if e == 0:
        return Matrix.identity(m.rows)
    square = _ints(m)  # m^(2^k) for the bit k of e in turn
    out = None
    while True:
        if e & 1:
            out = square if out is None else _product(out, square, m.cols)
        e >>= 1
        if not e:
            return _made(m.rows, m.cols, out)
        square = _product(square, square, m.cols)


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
    denominator unless the row holds a pivot.  The loop replaces rows in
    ``rows`` and never edits a row list.

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
    """Integer rows over their denominators (Gaussian integers when
    ``gaussian``), reduced by :func:`_eliminate` over their first
    ``pivot_cols`` columns, with what the loop returned.  The lists passed
    in are left as they are."""

    __slots__ = ("rows", "dens", "gaussian", "pivots", "scales", "sign")

    def __init__(self, rows: list[list], dens: list[int], gaussian: bool, pivot_cols: int):
        self.rows, self.dens, self.gaussian = list(rows), list(dens), gaussian
        self.pivots, self.scales, self.sign = _eliminate(self.rows, self.dens, pivot_cols)

    def row(self, i: int, columns: Optional[Iterable[int]] = None) -> tuple[list, int]:
        """Row i of the rational reduced form, at ``columns`` (all by
        default), as integers over a denominator of either sign."""
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
        return row, den

    def form(self, rows: Iterable[int], columns: Iterable[int]) -> _Ints:
        """The integer form of the rational reduced form at ``rows`` and ``columns``."""
        out, dens = [], []
        for i in rows:
            row, den = self.row(i, columns)
            out.append(row)
            dens.append(den)
        return _canonical(out, dens, self.gaussian)

    def kernel(self, cols: int) -> list[tuple[list, int]]:
        """Echelon-ordered basis of the null space of the reduced ``cols``
        columns, one vector per free column in ascending order, each as
        integers over a positive denominator: the vector of free column f
        is e_f minus the rref's column f on the pivot columns."""
        pivot_set = set(self.pivots)
        free = [c for c in range(cols) if c not in pivot_set]
        at_free = self.form(range(len(self.pivots)), free)
        rows = _typed(at_free, self.gaussian)
        basis = []
        for f, fc in enumerate(free):
            terms = [(pc, row[f], d) for row, d, pc in zip(rows, at_free.dens, self.pivots) if row[f]]
            den = lcm(*[d for _, _, d in terms])
            v = [_zero(self.gaussian)] * cols
            v[fc] = _integer(den, self.gaussian)
            for pc, x, d in terms:
                v[pc] = x * _integer(-den // d, self.gaussian)
            basis.append((v, den))
        return basis

    def det_ints(self) -> tuple:
        """The signed product of the rational pivots as an integer over a
        denominator: ±(last pivot) over the denominators of the pivot rows,
        0 once a column failed to pivot."""
        k = len(self.pivots)
        last = self.rows[k - 1][self.pivots[-1]] if k else _integer(1, self.gaussian)
        return last * _integer(self.sign, self.gaussian), prod(self.dens[:k])

    def det(self) -> Scalar:
        return _scalar(*self.det_ints())


def _solve_square(a: Matrix, b: Matrix) -> tuple[Matrix, Scalar]:
    """``(a^-1 b, det a)``, read off ``[a | b]`` row-reduced over the
    columns of a; raises SingularMatrixError unless they all pivot."""
    n = a.rows
    fa, fb = _ints(a), _ints(b)
    gaussian = fa.gaussian or fb.gaussian
    rows, dens = [], []
    for ra, da, rb, db in zip(_typed(fa, gaussian), fa.dens, _typed(fb, gaussian), fb.dens):
        d = lcm(da, db)
        rows.append(_times(ra, d // da, gaussian) + _times(rb, d // db, gaussian))
        dens.append(d)
    red = _Reduction(rows, dens, gaussian, n)
    if len(red.pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return _made(n, b.cols, red.form(range(n), range(n, n + b.cols))), red.det()


def rank(m: Matrix) -> int:
    return len(_Reduction(*_ints(m), m.cols).pivots)


def det(m: Matrix) -> Scalar:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _Reduction(*_ints(m), m.cols).det()


def _independent(length: int, columns: Sequence[Sequence], gaussian: bool) -> list[int]:
    """:func:`pivot_columns` of integer columns, in Gaussian integers when
    ``gaussian``; each column may carry any nonzero factor."""
    return _Reduction(_transposed(columns, length), [1] * length, gaussian, len(columns)).pivots


def pivot_columns(rows: int, columns: Sequence[Sequence[Scalar]]) -> list[int]:
    """Indices of the greedy independent subset of ``columns`` (each of
    length ``rows``): a column is kept unless it lies in the span of those
    before it, which makes the kept ones the pivot columns of their rref."""
    form = _ints_of(columns)
    return _independent(rows, form.rows, form.gaussian)


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
    red = _Reduction(*_ints(m), m.cols)
    return _made(m.rows, m.cols, red.form(range(m.rows), range(m.cols))), red.pivots


def _row_pushes(m_int: list[list], gaussian: bool):
    """The push behind :func:`power_ranks` and ``jordan_basis``, for M as n
    integer rows over one denominator (Gaussian integers when ``gaussian``).

    Yields ``(red, rows)`` for j = 1, 2, ... while the rank falls: ``red``
    reduces the rows of M, then the previous ``rows`` times M, so its pivot
    rows span row(M^j) = row(M^(j-1)) M, and ``rows`` is the reduced echelon
    basis of row(M^j) over one denominator.  That basis is unique, so its
    entries do not compound from push to push as fraction-free pivot rows
    would.  No power of M is formed.
    """
    n = len(m_int)
    zero = _zero(gaussian)
    images = m_int
    while images:
        red = _Reduction(images, [1] * len(images), gaussian, n)
        r = len(red.pivots)
        if r == len(images):
            return
        rows = _over_one(red.form(range(r), range(n)), gaussian)[0]
        yield red, rows
        images = _mul_rows(rows, m_int, n, zero)


def power_ranks(m: Matrix) -> list[int]:
    """Ranks of M^0, M^1, ..., M^s, where s is the first exponent with
    rank(M^s) = rank(M^(s+1)); the sequence is constant from there on.

    rank(M^k) is the dimension of row(M^k), which :func:`_row_pushes`
    reaches from row(M^(k-1)) without forming M^k.
    """
    if not m.is_square():
        raise ValueError("power ranks of a non-square matrix")
    form = _ints(m)
    pushes = _row_pushes(_over_one(form, form.gaussian)[0], form.gaussian)
    return [m.rows] + [len(red.pivots) for red, _ in pushes]


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Echelon-ordered basis of the null space, as column matrices.

    Basis vectors are parametrized by free columns in ascending order, so
    the result is deterministic.
    """
    red = _Reduction(*_ints(m), m.cols)
    return [
        _made(m.cols, 1, _canonical([[x] for x in v], [den] * m.cols, red.gaussian))
        for v, den in red.kernel(m.cols)
    ]


# -- matrix-space vectorization (column-major stacking) ---------------------


def vec(m: Matrix) -> Matrix:
    """Stack columns into a single column of length rows*cols."""
    return Matrix.column([e for col in zip(*m.data) for e in col])


def unvec(v: Matrix, n: int) -> Matrix:
    """Inverse of :func:`vec` for an n-by-n matrix."""
    if v.rows != n * n or v.cols != 1:
        raise ValueError("unvec shape mismatch")
    entries = v.column_entries()
    return Matrix(n, n, [[entries[j * n + i] for j in range(n)] for i in range(n)])


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
        rows = parse_int(obj, "rows")
        cols = parse_int(obj, "cols")
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad matrix JSON: {exc}") from None
    if not isinstance(entries, list) or len(entries) != rows:
        raise InputFormatError("matrix JSON: wrong number of rows")
    parts = []  # (a, b, c, d) for each entry a/b + c/d i, row-major
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise InputFormatError("matrix JSON: wrong row length")
        parts.extend(_scalar_parts(e) for e in row)
    if cols < 0:  # no row shows it when there are none
        raise InputFormatError("matrix JSON: negative column count")
    im = [(c, d) for _, _, c, d in parts] if any(c for _, _, c, _ in parts) else None
    int_rows = _ratio_rows(rows, [(a, b) for a, b, _, _ in parts], im)
    return _made(rows, cols, _canonical(*int_rows, im is not None))


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

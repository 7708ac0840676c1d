"""Dense exact matrices over the Gaussian rationals.

A matrix stores one thing: its canonical integer form (``_Ints``).  Row i is
an integer row over its own positive denominator.  Each entry carries its
own type: an ``int`` when it is real and a Gaussian integer (``_GaussInt``)
only when its imaginary part is not 0.  Each row is divided by its gcd with
its denominator, so equal matrices have equal forms.  A matrix built from
:class:`~nilpath.scalar.Scalar` entries converts them once, at construction,
and keeps them as the cache that ``Matrix.data`` reads; a matrix made by a
kernel, or read from JSON text (parsed straight into integers), builds its
Scalars the first time they are read.  ``Matrix.data`` is a tuple of
tuples, so the entries are read-only and all operations return new values.

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

Both loops run on the entries of a real matrix.  When a loop reads a
Gaussian entry as a factor (a nonzero a_ik of the product, the pivot or
the eliminated entry f of a row update), it splits the rows into their
real and imaginary ``int`` rows and does the rest of its work on those
parts: a product in Gauss's three real multiplications, a row update
``(piv*x - f*y) // s`` on the parts, with a Gaussian s divided out as a
product by conj(s) and ``//`` by |s|^2.  A Gaussian entry that the loop
reads only as the other operand takes the entry's own arithmetic, so no
loop scans a matrix for its types.  The parts go back into entries once
per output entry, in :func:`_canonical` after the row is reduced by its
gcd.  :func:`_plus_scaled`, ``a + c*b`` in one pass, works on the parts
too when c is Gaussian.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, attrgetter, mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InputFormatError, SingularMatrixError
from .scalar import _ZERO_F, ONE, ZERO, Scalar, _mk, _scalar_parts, format_scalar, parse_int


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
            rows, dens = self._form
            data = self._data = tuple(tuple(_scalar(x, d) for x in row) for row, d in zip(rows, dens))
        return data

    # -- constructors ------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _made(n, n, _Ints([[int(i == j) for j in range(n)] for i in range(n)], [1] * n))

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
        return _plus_scaled(self, ONE, other)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return _plus_scaled(self, -ONE, other)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Matrix":
        """c times the matrix: with c = w/e, row i becomes ``w row_i / (e d_i)``."""
        if not isinstance(c, Scalar):
            c = Scalar(c)
        f = _ints(self)
        ((w,),), (e,) = _int_rows([[c]])
        rows = [[x * w for x in row] for row in f.rows]
        return _made(self.rows, self.cols, _canonical(rows, [d * e for d in f.dens]))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return matrix_mul(self, other)
        return NotImplemented

    def transpose(self) -> "Matrix":
        """Over one denominator, the columns are the rows of the transpose."""
        rows, den = _over_one(_ints(self))
        columns = _transposed(rows, self.cols)
        return _made(self.cols, self.rows, _canonical(columns, [den] * self.cols))


def _plus_scaled(a: Matrix, c: Scalar, b: Matrix) -> Matrix:
    """``a + c*b`` in one pass, row by row over the lcm of the two rows'
    denominators.  With c = w/e for a Gaussian w, each row is taken as its
    real and imaginary int rows (:func:`_combined`)."""
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    fa, fb = _ints(a), _ints(b)
    ((w,),), (e,) = _int_rows([[c]])
    rows, dens = [], []
    for ra, da, rb, db in zip(fa.rows, fa.dens, fb.rows, fb.dens):
        d = lcm(da, db * e)
        ka, kb = d // da, w * (d // (db * e))
        if type(w) is int:
            rows.append(list(map(add, _times(ra, ka), _times(rb, kb))))
        else:
            rows.append(_combined(_split(rb), kb, _split(ra), -ka))
        dens.append(d)
    return _made(a.rows, a.cols, _canonical(rows, dens))


def _transposed(rows: Sequence[Sequence], cols: int) -> list[list]:
    """The columns of a grid of ``cols`` columns, as lists."""
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(cols)]


def jordan_cell(k: int) -> Matrix:
    """The size-k nilpotent cell with ones on the superdiagonal; k=0 is empty."""
    if k < 0:
        raise ValueError("cell size must be non-negative")
    return _made(k, k, _Ints([[int(j == i + 1) for j in range(k)] for i in range(k)], [1] * k))


def direct_sum(blocks: Iterable[Matrix]) -> Matrix:
    """The block-diagonal matrix of ``blocks``, built from their integer forms."""
    blocks = list(blocks)
    cols = sum(b.cols for b in blocks)
    rows: list[list] = []
    dens: list[int] = []
    c = 0
    for b in blocks:
        f = _ints(b)
        left, right = [0] * c, [0] * (cols - c - b.cols)
        rows.extend(left + row + right for row in f.rows)
        dens.extend(f.dens)
        c += b.cols
    return _made(len(rows), cols, _Ints(rows, dens))


def _columns(m: Matrix, order: Sequence[int]) -> Matrix:
    """The matrix whose j-th column is column ``order[j]`` of m."""
    rows, dens = _ints(m)
    return _made(m.rows, len(order), _canonical([[row[c] for c in order] for row in rows], dens))


# -- integer kernels ---------------------------------------------------------


def _gauss(real: int, imag: int):
    """The Gaussian integer ``real + imag*i`` as an entry: an int when imag is 0."""
    return _GaussInt(real, imag) if imag else real


class _GaussInt:
    """A Gaussian integer ``real + imag*i`` with ``imag != 0``: the entry
    type where an entry is not real, next to ``int`` where it is.  Its
    fields are named as int's are, so code reads the parts of either the
    same way.  It has what entry arithmetic uses: ``+``, ``-`` and ``*``
    with an int on either side and an exact ``//`` by an int, each
    returning through :func:`_gauss`, and ``==`` for exact checks.  The
    loops do their Gaussian work on split parts instead (see the module
    docstring).  As it is never 0, it is
    true, like any object, in the loops' ``if a:`` zero tests, and equal
    entries have equal types."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return _gauss(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        return _gauss(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other: int):
        return _gauss(other - self.real, -self.imag)

    def __mul__(self, other):
        a, b, c, d = self.real, self.imag, other.real, other.imag
        if not d:
            return _gauss(a * c, b * c)
        return _gauss(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __floordiv__(self, other: int):
        """The exact quotient by the int ``other``, which must divide both parts."""
        return _gauss(self.real // other, self.imag // other)

    def __eq__(self, other: object) -> bool:
        if type(other) is not _GaussInt:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self) -> int:
        return hash((self.real, self.imag))


_ZERO_RATIO = (0, 1)
_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


class _Ints(NamedTuple):
    """A matrix as the kernels hold it: row i is ``rows[i] / dens[i]``, each
    entry an int, or a ``_GaussInt`` when it is not real.  Canonical: each
    row and its positive denominator have no common factor, so equal
    matrices have equal forms.  The row lists are shared between forms and
    never edited."""

    rows: list[list]
    dens: list[int]


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
    return _Ints(*_int_rows(data))


def _times(row: list, k: int) -> list:
    """``row`` times the integer k: the row itself when k is 1."""
    return row if k == 1 else [x * k for x in row]


def _over_one(form: _Ints) -> tuple[list[list], int]:
    """The form's rows over one common denominator, and that denominator."""
    den = lcm(*form.dens)
    return [_times(row, den // d) for row, d in zip(form.rows, form.dens)], den


def _canonical(rows: list[list], dens: list[int]) -> _Ints:
    """The integer form of the matrix with rows ``rows[i] / dens[i]`` (any
    nonzero denominators): each row and its denominator divided by their
    gcd, signed so the denominator is positive.  A row may come as the pair
    of its real and imaginary ``int`` rows, as the kernels make it; it is
    reduced on its parts and joined into entries once."""
    out_rows, out_dens = [], []
    for row, d in zip(rows, dens):
        if type(row) is tuple:
            row, d = _joined(*row, d)
        elif d != 1:
            try:
                g = gcd(d, *row)
            except TypeError:  # a Gaussian entry: reduce the parts
                row, d = _joined(list(map(_REAL, row)), list(map(_IMAG, row)), d)
            else:
                if d < 0:
                    g = -g
                if g != 1:
                    row, d = [x // g for x in row], d // g
        out_rows.append(row)
        out_dens.append(d)
    return _Ints(out_rows, out_dens)


def _joined(re: list[int], im: list[int], d: int = 1) -> tuple[list, int]:
    """The row ``(re + im*i) / d`` as entries over a positive denominator,
    both divided by the gcd of the parts and d first: an entry is an int
    where its imaginary part is 0."""
    if d != 1:
        g = gcd(d, *re, *im)
        if d < 0:
            g = -g
        if g != 1:
            re, im, d = [x // g for x in re], [x // g for x in im], d // g
    return [_GaussInt(a, b) if b else a for a, b in zip(re, im)], d


def _int_rows(data: Sequence[Sequence[Scalar]]) -> tuple[list[list], list[int]]:
    """Each row as integers over its least common denominator: the integer
    rows and their denominators, as in the integer form.  Entries that are
    the shared ZERO cost one identity test, and the imaginary parts are
    read only when one is not 0."""
    re = [_ZERO_RATIO if e is ZERO else e.re.as_integer_ratio() for row in data for e in row]
    im = None
    if any(e.im for row in data for e in row if e is not ZERO):
        im = [_ZERO_RATIO if e is ZERO else e.im.as_integer_ratio() for row in data for e in row]
    return _ratio_rows(len(data), re, im)


def _ratio_rows(count: int, re: list[tuple], im: Optional[list[tuple]]) -> tuple[list[list], list[int]]:
    """``count`` rows over the lcm of their denominators, from row-major (numerator,
    denominator) pairs of the entries' real and, unless ``im`` is None, imaginary parts."""
    width = len(re) // count if count else 0
    starts = range(0, count * width, width) if width else [0] * count
    qs = [q for _, q in re]
    if im is not None:
        dens = [lcm(*qs[i : i + width], *[q for _, q in im[i : i + width]]) for i in starts]
        rows = [
            [_gauss(a * (d // q), b * (d // s)) for (a, q), (b, s) in zip(re[i : i + width], im[i : i + width])]
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
    return _mk(Fraction(x.real, den), Fraction(x.imag, den))


def _mul_rows(arows: list[list], brows: list, width: int) -> list[list]:
    """The product loop: row i is the sum of ``a_ik * brows[k]`` over the
    nonzero entries a_ik of ``arows[i]``, summed in integers, as entries.
    A row :func:`_mul_parts` made on its real and imaginary parts is joined
    here."""
    return [row if type(row) is list else _joined(*row)[0] for row in _mul_parts(arows, brows, width)]


def _mul_parts(arows: list[list], brows: list, width: int) -> list:
    """The rows of :func:`_mul_rows`, a row that meets a Gaussian a_ik
    given as its real and imaginary ``int`` rows.  The loop runs on the
    entries until the first Gaussian a_ik; from that row on
    :func:`_mul_split` takes over.  A Gaussian entry of ``brows`` times an
    int a_ik is one entry product."""
    out = []
    for arow in arows:
        acc = None
        for a, brow in zip(arow, brows):
            if a:
                if type(a) is not int:
                    return out + _mul_split(arows[len(out) :], brows, width)
                terms = map(mul, repeat(a), brow)
                acc = list(terms) if acc is None else list(map(add, acc, terms))
        out.append([0] * width if acc is None else acc)
    return out


def _mul_split(arows: list[list], brows: list, width: int) -> list:
    """The product on real and imaginary ``int`` rows, by Gauss's
    three-multiplication product.  Each row of ``brows`` is split once into
    c + d*i, with c + d kept when d is not 0.  Per output row, real terms
    a*c go to ``re``; other terms go to ``x = Σ a_r c``, ``y = Σ a_i d``
    and ``z = Σ (a_r + a_i)(c + d)``, so a Gaussian × Gaussian term costs
    three real products and a Gaussian × real one two (y takes nothing when
    a_i or d is 0).  The row is then ``(re + x - y) + (z - x - y) i``: a
    list when no term was Gaussian, else the pair of its parts."""
    parts = []
    for brow in brows:
        d = list(map(_IMAG, brow))
        if any(d):
            c = list(map(_REAL, brow))
            parts.append((c, d, list(map(add, c, d))))
        else:
            parts.append((brow, None, brow))
    zero = [0] * width
    out = []
    for arow in arows:
        re = x = y = z = zero
        for a, (c, d, cd) in zip(arow, parts):
            if not a:
                continue
            ar, ai = a.real, a.imag
            if ai or d is not None:
                k = ar + ai
                x = [u + ar * v for u, v in zip(x, c)]
                z = [u + k * v for u, v in zip(z, cd)]
                if ai and d is not None:
                    y = [u + ai * v for u, v in zip(y, d)]
            else:
                re = [u + a * v for u, v in zip(re, c)]
        if x is zero:
            out.append(re)
        else:
            out.append(([u + v - w for u, v, w in zip(re, x, y)], [u - v - w for u, v, w in zip(z, x, y)]))
    return out


def _product(a: _Ints, b: _Ints, width: int) -> _Ints:
    """The integer form of the product: a's rows times b's rows over one
    common denominator."""
    brows, bden = _over_one(b)
    return _canonical(_mul_parts(a.rows, brows, width), [d * bden for d in a.dens])


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

    The loop runs on the entries while every ``piv`` and ``f`` it reads is
    an int, so every scale is one too; a Gaussian entry elsewhere in a row
    takes the entry operations.  At the first Gaussian ``piv`` or ``f``,
    :func:`_eliminate_split` takes over at that column, and the rows it
    returns are pairs of real and imaginary ``int`` rows.  So a row left as
    a list has an int scale or None, and only a split row has a Gaussian
    scale.

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
        if type(piv) is int:
            for i, row in enumerate(rows):
                f = row[c]
                if not f or i == r:
                    continue
                if type(f) is not int:
                    break
                s = scales[i]
                if s is None:
                    rows[i] = [piv * x - f * y for x, y in zip(row, prow)]
                else:
                    rows[i] = [(piv * x - f * y) // s for x, y in zip(row, prow)]
                scales[i] = piv
            else:
                scales[r] = prev = piv
                pivots.append(c)
                r += 1
                continue
        scales[r] = prev  # row r is brought up to date
        return _eliminate_split(rows, dens, scales, pivots, sign, prev, range(c, pivot_cols))
    return pivots, scales, sign


def _eliminate_split(
    rows: list[list], dens: list[int], scales: list, pivots: list[int], sign: int, prev, columns: range
) -> tuple[list[int], list, int]:
    """:func:`_eliminate` over ``columns``, from the state it reached, with
    each row split once into its real and imaginary ``int`` rows, which it
    leaves as the pairs.  Every update is :func:`_combined` on the parts.
    The first column may be one the entry loop left half done: its pivot
    row is up to date (scale ``prev``) and the rows it updated hold 0 in
    that column, so running the column again finishes it."""
    n = len(rows)
    rows[:] = map(_split, rows)
    r = len(pivots)
    for c in columns:
        if r >= n:
            break
        p = r
        while p < n and not (rows[p][0][c] or rows[p][1][c]):
            p += 1
        if p == n:
            sign = 0
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
            dens[p], dens[r] = dens[r], dens[p]
            scales[p], scales[r] = scales[r], scales[p]
            sign = -sign
        s = scales[r]
        if s is not prev:
            rows[r] = _combined(rows[r], prev, s=s)
        prow = rows[r]
        piv = _gauss(prow[0][c], prow[1][c])
        for i, (re, im) in enumerate(rows):
            if i != r and (re[c] or im[c]):
                rows[i] = _combined(rows[i], piv, prow, _gauss(re[c], im[c]), scales[i])
                scales[i] = piv
        scales[r] = prev = piv
        pivots.append(c)
        r += 1
    return pivots, scales, sign


def _split(row: list) -> tuple[list[int], list[int]]:
    """A row of entries as its real and imaginary ``int`` rows."""
    im = list(map(_IMAG, row))
    return (list(map(_REAL, row)) if any(im) else row), im


def _combined(x: tuple, a, y: Optional[tuple] = None, b=0, s=None) -> tuple[list[int], list[int]]:
    """``(a*x - b*y) // s`` on rows split by :func:`_split`, an exact
    division; s = None stands for 1 and y for x.  A Gaussian s is divided
    out as a product by conj(s) folded into a and b, then ``//`` by |s|^2
    on each part."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    n = 1 if s is None else s
    if type(s) is _GaussInt:
        sr, si = s.real, -s.imag
        ar, ai, br, bi = ar * sr - ai * si, ar * si + ai * sr, br * sr - bi * si, br * si + bi * sr
        n = sr * sr + si * si
    (xr, xi), (yr, yi) = x, y or x
    return (
        [(ar * u - ai * v - br * p + bi * q) // n for u, v, p, q in zip(xr, xi, yr, yi)],
        [(ar * v + ai * u - br * q - bi * p) // n for u, v, p, q in zip(xr, xi, yr, yi)],
    )


class _Reduction:
    """Integer rows over their denominators, reduced by :func:`_eliminate`
    over their first ``pivot_cols`` columns, with what the loop returned.
    A row the loop left split is the pair of its real and imaginary int
    rows.  The lists passed in are left as they are."""

    __slots__ = ("rows", "dens", "pivots", "scales", "sign")

    def __init__(self, rows: list[list], dens: list[int], pivot_cols: int):
        self.rows, self.dens = list(rows), list(dens)
        self.pivots, self.scales, self.sign = _eliminate(self.rows, self.dens, pivot_cols)

    def row(self, i: int, columns: Optional[Iterable[int]] = None) -> tuple:
        """Row i of the rational reduced form, at ``columns`` (all by
        default), as integers over a denominator of either sign: a list of
        entries, or the pair of its real and imaginary int rows when the
        loop left it split, as it leaves every row with a Gaussian scale s.
        A Gaussian s divides out as a product by conj(s) on the parts over
        |s|^2."""
        s = self.scales[i]
        den = 1 if i < len(self.pivots) else self.dens[i]
        row = self.rows[i]
        if columns is not None:
            row = [row[c] for c in columns] if type(row) is list else tuple([x[c] for c in columns] for x in row)
        if type(s) is _GaussInt:
            row = _combined(row, _GaussInt(s.real, -s.imag))
            den *= s.real * s.real + s.imag * s.imag
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
        return _canonical(out, dens)

    def det_ints(self) -> tuple:
        """The signed product of the rational pivots as an integer over a
        denominator: ±(last pivot) over the denominators of the pivot rows,
        0 once a column failed to pivot."""
        k = len(self.pivots)
        if not k:
            return self.sign, 1
        row, c = self.rows[k - 1], self.pivots[-1]
        last = row[c] if type(row) is list else _gauss(row[0][c], row[1][c])
        return last * self.sign, prod(self.dens[:k])

    def det(self) -> Scalar:
        return _scalar(*self.det_ints())


def _solve_square(a: Matrix, b: Matrix) -> Matrix:
    """``a^-1 b``, read off ``[a | b]`` row-reduced over the columns of a;
    raises SingularMatrixError unless they all pivot."""
    n = a.rows
    fa, fb = _ints(a), _ints(b)
    rows, dens = [], []
    for ra, da, rb, db in zip(fa.rows, fa.dens, fb.rows, fb.dens):
        d = lcm(da, db)
        rows.append(_times(ra, d // da) + _times(rb, d // db))
        dens.append(d)
    red = _Reduction(rows, dens, n)
    if len(red.pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return _made(n, b.cols, red.form(range(n), range(n, n + b.cols)))


def rank(m: Matrix) -> int:
    return len(_Reduction(*_ints(m), m.cols).pivots)


def det(m: Matrix) -> Scalar:
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    return _Reduction(*_ints(m), m.cols).det()


def _independent(length: int, columns: Sequence[Sequence]) -> list[int]:
    """:func:`pivot_columns` of integer columns; each column may carry any
    nonzero factor."""
    return _Reduction(_transposed(columns, length), [1] * length, len(columns)).pivots


def pivot_columns(rows: int, columns: Sequence[Sequence[Scalar]]) -> list[int]:
    """Indices of the greedy independent subset of ``columns`` (each of
    length ``rows``): a column is kept unless it lies in the span of those
    before it, which makes the kept ones the pivot columns of their rref."""
    return _independent(rows, _ints_of(columns).rows)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination; raises if singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    return _solve_square(m, Matrix.identity(m.rows))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve ``a @ x = b`` for square invertible ``a``; raises if singular."""
    if not a.is_square() or a.rows != b.rows:
        raise ValueError("solve shape mismatch")
    return _solve_square(a, b)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    red = _Reduction(*_ints(m), m.cols)
    return _made(m.rows, m.cols, red.form(range(m.rows), range(m.cols))), red.pivots


def _row_pushes(m: _Ints):
    """The push behind :func:`power_ranks` and ``jordan_basis``, on M's form.

    Yields ``(pivots, coeffs)`` for j = 1, 2, ... while the rank falls:
    P_j, the pivot columns of R_j = rref(M^j), and the form of rref(C_j),
    with R_j = rref(C_j) R_(j-1) and R_0 = I.  No power of M is formed and
    each push is r x r: row(M^j) lies in row(R_(j-1)), whose vectors are
    fixed by their entries at P_(j-1), so R_(j-1) M = C_j R_(j-1) for C_j
    the columns P_(j-1) of R_(j-1) M.  C_1 = M and C_(j+1) = rref(C_j) C_j
    at the columns of its pivots.
    """
    pivots, images = range(len(m.rows)), m
    while images.rows:
        red = _Reduction(*images, len(images.rows))
        r = len(red.pivots)
        if r == len(images.rows):
            return
        coeffs = red.form(range(r), range(len(images.rows)))
        pivots = [pivots[c] for c in red.pivots]
        yield pivots, coeffs
        images = _product(coeffs, _Ints([[row[c] for c in red.pivots] for row in images.rows], images.dens), r)


def power_ranks(m: Matrix) -> list[int]:
    """Ranks of M^0, M^1, ..., M^s, where s is the first exponent with
    rank(M^s) = rank(M^(s+1)); the sequence is constant from there on.

    rank(M^k) is the dimension of row(M^k), which :func:`_row_pushes`
    reaches from row(M^(k-1)) without forming M^k.
    """
    if not m.is_square():
        raise ValueError("power ranks of a non-square matrix")
    return [m.rows] + [len(pivots) for pivots, _ in _row_pushes(_ints(m))]


def _kernel_vector(pivots: list[int], rows: list[list], den: int, f: int, cols: int) -> list:
    """The echelon kernel vector at free column f of the reduced echelon form
    ``rows / den`` (pivot columns ``pivots``), times den: e_f - column f."""
    v = [0] * cols
    v[f] = den
    for p, row in zip(pivots, rows):
        v[p] = row[f] * -1  # (a _GaussInt has no unary minus)
    return v


def kernel_basis(m: Matrix) -> list[Matrix]:
    """Echelon-ordered basis of the null space, as column matrices.

    Basis vectors are parametrized by free columns in ascending order, so
    the result is deterministic.
    """
    red = _Reduction(*_ints(m), m.cols)
    rows, den = _over_one(red.form(range(len(red.pivots)), range(m.cols)))
    free = [f for f in range(m.cols) if f not in red.pivots]
    vectors = [_kernel_vector(red.pivots, rows, den, f, m.cols) for f in free]
    return [_made(m.cols, 1, _canonical([[x] for x in v], [den] * m.cols)) for v in vectors]


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
    return _made(rows, cols, _canonical(*int_rows))


def matrix_to_json(m: Matrix) -> str:
    return json.dumps(matrix_to_json_obj(m))


def matrix_from_json(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # as in the CLI's file reader
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

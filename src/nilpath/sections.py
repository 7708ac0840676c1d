"""Local kernel sections and the conjugation cross-section.

Around a reference operator u of rank rho with a kernel vector x0, the
complement vectors are the standard vectors at ``front``, the pivot
columns of rref(u), so their images are rho independent columns of u.
``rows`` are the rho coordinates at which some combination of those images
has its last nonzero entry, which makes u[rows, front] invertible.  For any
nearby operator v whose block v[rows, front] stays invertible, solving
``v[rows, front] y = (v x0)[rows]`` gives ``f(v) = x0 - sum_k y_k e_front[k]``,
rational in v with ``f(u) = x0``.  When v has the rank of u, its rows at
``rows`` span its row space, so ``v @ f(v) = 0``.  ``front`` and ``rows``
are chosen block by block, over the rows and columns that u's nonzero
entries connect.

Specializing to the operator ``M -> B@M - M@A0`` on matrix space with
anchor x0 = vec(I) turns this into a local cross-section of conjugation:
g(B) with ``B @ g(B) = g(B) @ A0`` and ``g(A0) = I``.  Its n^2 x n^2 matrix
is never formed: its nonzero entries are read off A0's, and for a lift's
A0 its blocks have a few rows.  The rank test comes from the power-rank
sequences of B and A0.  With row r = vec(E_ac) and complement vector
k = vec(E_ij), the block entry is ``A[r][k] = B[a][i] [j = c] - [a = i]
A0[j][c]`` and the right-hand side is ``c_r = (B - A0)[a][c]``.  Both are
built as integer rows over one denominator and go straight into the
elimination loop, which solves the block.  The block is affine in B, so on
a lift chart's affine curve of operators, certification reads it at the
two ends (:meth:`ConjugationSection.block_rows`) and solves it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import (
    NotInKernelError,
    NotNilpotentError,
    OutsideNeighborhoodError,
    SingularMatrixError,
)
from .matrix import (
    Matrix,
    _canonical,
    _independent,
    _ints,
    _made,
    _mul_rows,
    _over_one,
    _Reduction,
    _solve_square,
    _times,
    matrix_mul,
    power_ranks,
    vec,
)


@dataclass(frozen=True)
class SectionData:
    """Where the kernel section near one operator reads its block."""

    anchor: Matrix  # kernel vector x0, a column
    rank: int
    front: tuple[int, ...]  # indices of the standard vectors spanning the complement
    rows: tuple[int, ...]  # coordinates at which u[:, front] is invertible, ascending

    @property
    def dimension(self) -> int:
        return self.anchor.rows


def section_setup(u: Matrix, x0: Matrix) -> SectionData:
    """Choose the complement vectors and the rows around u, with anchor x0
    in its kernel.

    ``front`` is the pivot columns of rref(u).  ``rows`` takes the rows of
    u[:, front] greedily from the last one up, each independent of those
    below it: row s is kept exactly when some combination of the images
    has its last nonzero entry at s.
    """
    if not u.is_square():
        raise ValueError("section operator must be square")
    if x0.rows != u.rows or x0.cols != 1:
        raise ValueError("anchor must be an n-by-1 column")
    return _setup([{c: e for c, e in enumerate(row) if e} for row in _ints(u).rows], x0)


def _setup(sparse: list[dict], x0: Matrix) -> SectionData:
    """:func:`section_setup` on u's rows as {column: entry} maps holding every
    nonzero entry.  An entry joins its row and column into one block, so a
    column depends on earlier ones (a row on later ones) as in its block."""
    x = [row[0] for row in _over_one(_ints(x0))[0]]
    if not any(x):
        raise NotInKernelError("anchor vector is zero")
    if any(sum(e * x[c] for c, e in row.items()) for row in sparse):
        raise NotInKernelError("anchor vector is not in the kernel")
    by_col: list[list[int]] = [[] for _ in sparse]
    for r, row in enumerate(sparse):
        for c in row:
            by_col[c].append(r)
    seen, front, rows = set(), [], []
    for start, row in enumerate(sparse):
        if start in seen or not row:
            continue
        seen.add(start)
        block, cols = [start], set()
        for r in block:  # the block grows as it is walked
            for c in sparse[r].keys() - cols:
                cols.add(c)
                block += [s for s in by_col[c] if s not in seen]
                seen.update(by_col[c])
        block, cols = sorted(block), sorted(cols)
        grid = [[sparse[r].get(c, 0) for c in cols] for r in block]
        pivots = _Reduction(grid, [1] * len(grid), len(cols)).pivots
        front += [cols[k] for k in pivots]
        upward = _independent(len(pivots), [[row[k] for k in pivots] for row in reversed(grid)])
        rows += [block[-1 - s] for s in upward]
    if len(rows) != len(front):
        raise AssertionError("images of complement vectors must be independent")
    return SectionData(x0, len(front), tuple(sorted(front)), tuple(sorted(rows)))


def section_eval(s: SectionData, v: Matrix) -> Matrix:
    """Kernel-section vector f(v) for an operator v near the reference.

    The section is x0 minus the complement vectors weighted by the
    solution y of ``v[rows, front] y = (v x0)[rows]``.  Raises
    OutsideNeighborhood when that block is singular; the identity
    ``v @ f(v) = 0`` then holds whenever rank(v) = rank(u).
    """
    n = s.dimension
    if v.rows != n or v.cols != n:
        raise ValueError("operator dimension mismatch")
    rho = s.rank
    image = matrix_mul(v, s.anchor).data
    entries = v.data
    try:
        correction = _solve_square(
            Matrix(rho, rho, [[entries[r][k] for k in s.front] for r in s.rows]),
            Matrix(rho, 1, [image[r] for r in s.rows]),
        )
    except SingularMatrixError:
        raise OutsideNeighborhoodError("leading block singular at this operator") from None
    x = s.anchor.column_entries()
    for i, e in zip(s.front, correction.column_entries()):
        x[i] = x[i] - e
    return Matrix.column(x)


def _over_common(b: Matrix, a0: Matrix) -> tuple[list[list], list[list], int]:
    """B and A0 as integer rows over one denominator, b_den a0_den, and that
    denominator."""
    b_int, b_den = _over_one(_ints(b))
    a0_int, a0_den = _over_one(_ints(a0))
    return [_times(row, a0_den) for row in b_int], [_times(row, b_den) for row in a0_int], b_den * a0_den


def _ad_rows(b_int: list[list], a0_int: list[list]) -> list[dict]:
    """The rows of :func:`ad_operator` from B and A0 as integer rows over
    one denominator, as {column: entry} maps that hold every nonzero entry."""
    n = len(b_int)
    a0_nz = [[(c2, a0_int[c2][c1]) for c2 in range(n) if a0_int[c2][c1]] for c1 in range(n)]
    rows = []
    for c1 in range(n):
        for r1 in range(n):
            row = {c1 * n + r2: e for r2, e in enumerate(b_int[r1]) if e}
            for c2, e in a0_nz[c1]:
                row[c2 * n + r1] = row.get(c2 * n + r1, 0) - e
            rows.append(row)
    return rows


def ad_operator(b: Matrix, a0: Matrix) -> Matrix:
    """Matrix of ``M -> B@M - M@A0`` on column-stacked n*n matrix space.

    Row ``c*n + r`` is row r of B in the columns of block c, minus
    ``A0[c2][c]`` in column ``c2*n + r`` for each c2, built as integer
    rows over one denominator."""
    if not b.is_square() or not a0.is_square() or b.rows != a0.rows:
        raise ValueError("ad operator needs square matrices of equal size")
    big = b.rows * b.rows
    b_int, a0_int, den = _over_common(b, a0)
    rows = [[sparse.get(k, 0) for k in range(big)] for sparse in _ad_rows(b_int, a0_int)]
    return _made(big, big, _canonical(rows, [den] * big))


@dataclass(frozen=True)
class ConjugationSection:
    """Exact local cross-section of B -> conjugators onto a nilpotent base point."""

    base: Matrix  # A0
    section: SectionData
    base_ranks: tuple[int, ...]  # ranks of A0^0, A0^1, ..., down to 0

    @property
    def rank(self) -> int:
        return self.section.rank

    def displacement_rank(self, b: Matrix) -> int:
        """Rank of ``M -> B@M - M@A0``, from the power-rank sequences of B and A0.

        Its kernel has dimension sum over k >= 1 of
        ``(r[k-1](B) - r[k](B)) * (r[k-1](A0) - r[k](A0))``, with r[k] the
        rank of the k-th power: the number of pairs of Jordan cells, one of
        B at eigenvalue 0 and one of A0, both of size at least k (Gantmacher,
        Theory of Matrices I, ch. VIII).  Exact for any B, as A0 is nilpotent.
        """
        n = self.base.rows
        ra = self.base_ranks
        rb = power_ranks(b)
        rb += [rb[-1]] * (len(ra) - len(rb))
        kernel = sum((rb[k - 1] - rb[k]) * (ra[k - 1] - ra[k]) for k in range(1, len(ra)))
        return n * n - kernel

    def block_rows(self, b: Matrix) -> tuple[list[list], int]:
        """``[A | c]`` at B, as integer rows over one denominator, and that
        denominator: the block of the section's solve, affine in B."""
        if b.rows != self.base.rows or b.cols != self.base.rows:
            raise ValueError("dimension mismatch")
        b_int, a0_int, den = _over_common(b, self.base)
        return self._block(b_int, a0_int), den

    def _block(self, b_int: list[list], a0_int: list[list]) -> list[list]:
        """``[A | c]`` from B and A0 as integer rows over one denominator:
        ``A[r][k] = B[a][i] [j = c] - [a = i] A0[j][c]`` and ``c_r = (B -
        A0)[a][c]`` at row r = vec(E_ac) and complement vector k = vec(E_ij)."""
        n, rho = self.base.rows, self.rank
        by_col: list[list] = [[] for _ in range(n)]  # complement vectors E_ij by j
        by_row: list[list] = [[] for _ in range(n)]  # ... and by i
        for k, idx in enumerate(self.section.front):
            i, j = idx % n, idx // n
            by_col[j].append((k, i))
            by_row[i].append((k, j))
        rows = []
        for r in self.section.rows:
            a, c = r % n, r // n
            row = [0] * rho + [b_int[a][c] - a0_int[a][c]]
            for k, i in by_col[c]:
                row[k] = b_int[a][i]
            for k, j in by_row[a]:
                row[k] = row[k] - a0_int[j][c]
            rows.append(row)
        return rows

    def conjugator_at(self, b: Matrix) -> Matrix:
        """g(B), invertible with ``B @ g(B) = g(B) @ A0``, and g(A0) = I.

        ``[A | c]`` is read off B in integers (:meth:`block_rows`) and
        row-reduced once; g(B) is unvec(vec(I) minus ``A^-1 c`` spread over
        the complement vectors).  Validity is checked exactly: the
        displacement rank must match the base point's, the leading block
        must be invertible, and g(B) itself must be invertible; otherwise
        OutsideNeighborhood is raised.  ``B g = g A0`` is asserted.
        """
        n, rho = self.base.rows, self.rank
        if b.rows != n or b.cols != n:
            raise ValueError("dimension mismatch")
        if self.displacement_rank(b) != rho:
            raise OutsideNeighborhoodError("displacement rank differs from base point")
        b_int, a0_int, den = _over_common(b, self.base)
        red = _Reduction(self._block(b_int, a0_int), [den] * rho, rho)
        if len(red.pivots) < rho:
            raise OutsideNeighborhoodError("leading block singular at this operator")
        # g = I - sum_k y_k E_front[k] with y = A^-1 c, over one denominator
        ys = red.form(range(rho), (rho,))
        g_den = lcm(*ys.dens)
        g_int = [[g_den if i == j else 0 for j in range(n)] for i in range(n)]
        for idx, (y,), d in zip(self.section.front, ys.rows, ys.dens):
            i, j = idx % n, idx // n
            g_int[i][j] = g_int[i][j] - y * (g_den // d)
        if len(_Reduction(g_int, [1] * n, n).pivots) < n:
            raise OutsideNeighborhoodError("section conjugator is singular")
        if _mul_rows(b_int, g_int, n) != _mul_rows(g_int, a0_int, n):
            raise AssertionError("section identity failed despite rank match")
        return _made(n, n, _canonical(g_int, [g_den] * n))


def conjugation_section(a0: Matrix) -> ConjugationSection:
    """Cross-section of the conjugation action around the nilpotent matrix a0."""
    if not a0.is_square():
        raise ValueError("base point must be square")
    ranks = power_ranks(a0)
    if ranks[-1] > 0:
        raise NotNilpotentError("base point must be nilpotent")
    a0_int = _over_one(_ints(a0))[0]
    sd = _setup(_ad_rows(a0_int, a0_int), vec(Matrix.identity(a0.rows)))
    cs = ConjugationSection(a0, sd, tuple(ranks))
    if cs.displacement_rank(a0) != sd.rank:
        raise AssertionError("rank formula disagrees with the base point's operator")
    return cs

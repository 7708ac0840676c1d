"""Local kernel sections and the conjugation cross-section.

Around a reference operator u of rank rho with a kernel vector x0, the
complement vectors are the standard vectors at ``front``, the pivot
columns of rref(u), so their images are rho independent columns of u.
``rows`` are the rho coordinates at which some combination of those images
has its last nonzero entry, which makes u[rows, front] invertible.  For any
nearby operator v whose block v[rows, front] stays invertible, solving
``v[rows, front] y = (v x0)[rows]`` gives ``f(v) = x0 - sum_k y_k e_front[k]``,
rational in v with ``f(u) = x0``.  When v has the rank of u, its rows at
``rows`` span its row space, so ``v @ f(v) = 0``.

Specializing to the operator ``M -> B@M - M@A0`` on matrix space with
anchor x0 = vec(I) turns this into a local cross-section of conjugation:
g(B) with ``B @ g(B) = g(B) @ A0`` and ``g(A0) = I``.  Its n^2 x n^2 matrix
is built once, to choose ``front`` and ``rows`` around A0.  Evaluating at B
forms neither that matrix nor any image vector.  The rank test comes from
the power-rank sequences of B and A0.  With row r = vec(E_ac) and
complement vector k = vec(E_ij), the block entry is
``A[r][k] = B[a][i] [j = c] - [a = i] A0[j][c]`` and the right-hand side is
``c_r = (B - A0)[a][c]``.  Both are built as integer rows over one
denominator and go straight into the elimination loop, which solves the
block.  The block is affine in B, so along an affine curve of operators,
as a lift chart has, certification reads it at the two ends
(:meth:`ConjugationSection.block_rows`) and solves it once.
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

    operator: Matrix  # reference operator u
    anchor: Matrix  # kernel vector x0, a column
    rank: int
    front: tuple[int, ...]  # indices of the standard vectors spanning the complement
    rows: tuple[int, ...]  # coordinates at which u[:, front] is invertible, ascending

    @property
    def dimension(self) -> int:
        return self.operator.rows


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
    n = u.rows
    if x0.rows != n or x0.cols != 1:
        raise ValueError("anchor must be an n-by-1 column")
    if x0.is_zero():
        raise NotInKernelError("anchor vector is zero")
    if not matrix_mul(u, x0).is_zero():
        raise NotInKernelError("anchor vector is not in the kernel")

    front = _Reduction(*_ints(u), n).pivots
    rho = len(front)
    upward = _independent(rho, [[row[k] for k in front] for row in reversed(_ints(u).rows)])
    rows = sorted(n - 1 - s for s in upward)
    if len(rows) != rho:
        raise AssertionError("images of complement vectors must be independent")
    return SectionData(u, x0, rho, tuple(front), tuple(rows))


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


def ad_operator(b: Matrix, a0: Matrix) -> Matrix:
    """Matrix of ``M -> B@M - M@A0`` on column-stacked n*n matrix space.

    Row ``c*n + r`` is row r of B in the columns of block c, minus
    ``A0[c2][c]`` in column ``c2*n + r`` for each c2, built as integer
    rows over one denominator."""
    if not b.is_square() or not a0.is_square() or b.rows != a0.rows:
        raise ValueError("ad operator needs square matrices of equal size")
    n = b.rows
    big = n * n
    b_int, a0_int, den = _over_common(b, a0)
    rows = []
    for c1 in range(n):
        for r1 in range(n):
            row = [0] * big
            row[c1 * n : (c1 + 1) * n] = b_int[r1]
            for c2 in range(n):
                e = a0_int[c2][c1]
                if e:
                    row[c2 * n + r1] = row[c2 * n + r1] - e
            rows.append(row)
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
    n = a0.rows
    sd = section_setup(ad_operator(a0, a0), vec(Matrix.identity(n)))
    cs = ConjugationSection(a0, sd, tuple(ranks))
    if cs.displacement_rank(a0) != sd.rank:
        raise AssertionError("rank formula disagrees with the base point's operator")
    return cs

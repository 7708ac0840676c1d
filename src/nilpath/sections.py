"""Local kernel sections and the conjugation cross-section.

Around a reference operator u with a marked kernel vector x0, a pair of
adapted bases puts u into the block form [[I, 0], [0, 0]]; both bases are
completed by standard vectors, the domain's at the pivot columns of the row
reduction that gives u's kernel basis, the codomain's chosen greedily.  For
any nearby operator v whose leading block stays invertible, eliminating
that block produces a vector f(v) depending continuously (rationally) on v
with ``v @ f(v) = 0`` whenever v has the same rank as u, and ``f(u) = x0``.

Specializing to the operator ``M -> B@M - M@A0`` on matrix space with
anchor x0 = vec(I) turns this into a local cross-section of conjugation:
g(B) with ``B @ g(B) = g(B) @ A0`` and ``g(A0) = I``.  Its n^2 x n^2 matrix
is built once, to set up the adapted bases around A0.  Evaluating at B
forms neither that matrix nor any image vector.  The rank test comes from
the power-rank sequences of B and A0.  The leading block A and the last
column c are read off B from their structure: with M_r the unvec of row r
of the codomain inverse (one or two nonzeros on every window in use), A's
entry at the complement vector vec(E_ij) is ``(B^T M_r - M_r A0^T)[i][j]``
and ``c_r = <M_r, B - A0>``.  Both are built as integer rows over their
denominators and go straight into the elimination loop, which solves the
block and yields its determinant, the value certification interpolates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    NotInKernelError,
    NotNilpotentError,
    OutsideNeighborhoodError,
    SingularMatrixError,
)
from .matrix import (
    Matrix,
    _int_matrix,
    _int_rows,
    _is_gaussian,
    _Reduction,
    _eliminate,
    _integer,
    _mul_rows,
    _scalar,
    _scaled,
    _solve_square,
    _zero,
    inverse,
    kernel_and_pivots,
    matrix_mul,
    pivot_columns,
    power_ranks,
    vec,
)
from .scalar import ONE, ZERO, Scalar


@dataclass(frozen=True)
class SectionData:
    """Adapted-basis data for kernel-section evaluation near one operator."""

    operator: Matrix  # reference operator u
    anchor: Matrix  # kernel vector x0, a column
    rank: int
    basis_domain: Matrix  # columns: adapted domain basis, x0 last
    codomain_inv_top: Matrix  # first `rank` rows of the codomain basis inverse
    front: tuple[int, ...]  # indices of the standard vectors spanning the complement

    @property
    def dimension(self) -> int:
        return self.operator.rows


def section_setup(u: Matrix, x0: Matrix) -> SectionData:
    """Build the adapted bases around u with anchor x0 in its kernel.

    Domain basis: complement vectors first, then the rest of the kernel,
    then x0 last.  Codomain basis: images of the complement vectors,
    completed by standard vectors.  The complement vectors are standard
    vectors, so their images are columns of u.  The reference operator's
    leading block is the identity by construction (asserted).
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

    kernel, front_index = kernel_and_pivots(u)
    kernel = [v.column_entries() for v in kernel]
    rho = len(front_index)
    standard = Matrix.identity(n).data  # row i of I is the standard vector e_i
    anchor = x0.column_entries()

    # Greedy over [x0 | ker u]: x0 always pivots and kernel vectors fill out
    # ker u.  The standard vectors at rref(u)'s pivot columns complete the
    # basis, and are exactly the ones a greedy pass over e_0 ... e_(n-1)
    # would add: the kernel vector of a free column f is e_f plus a
    # combination of the pivot e_j with j < f.
    kernel_rest = [kernel[c - 1] for c in pivot_columns(n, [anchor] + kernel)[1:]]

    domain_cols = [standard[i] for i in front_index] + kernel_rest + [anchor]
    basis_domain = Matrix(n, n, [list(r) for r in zip(*domain_cols)])

    image_cols = [u.column_entries(i) for i in front_index]
    im_pivots = pivot_columns(n, image_cols + standard)
    if im_pivots[:rho] != list(range(rho)):
        raise AssertionError("images of complement vectors must be independent")
    codomain_cols = image_cols + [standard[c - rho] for c in im_pivots[rho:]]
    codomain = Matrix(n, n, [list(r) for r in zip(*codomain_cols)])
    codomain_inv = inverse(codomain)
    top = Matrix(rho, n, [list(codomain_inv.data[i]) for i in range(rho)])

    data = SectionData(u, x0, rho, basis_domain, top, tuple(front_index))
    head = matrix_mul(top, matrix_mul(u, basis_domain))
    for i in range(rho):
        for j in range(n):
            expected = ONE if i == j else ZERO
            if head.data[i][j] != expected:
                raise AssertionError("reference block is not the identity")
    return data


def section_eval(s: SectionData, v: Matrix) -> Matrix:
    """Kernel-section vector f(v) for an operator v near the reference.

    Only the leading block A and the top c of the last column of v's
    adapted matrix are needed, so only v's images of the complement vectors
    (columns of v) and of x0.  The section is x0 minus the complement
    vectors weighted by ``A^-1 c``.  Raises OutsideNeighborhood when A is
    singular; the identity ``v @ f(v) = 0`` then holds whenever
    rank(v) = rank(u).
    """
    n = s.dimension
    if v.rows != n or v.cols != n:
        raise ValueError("operator dimension mismatch")
    rho = s.rank
    images = [v.column_entries(i) for i in s.front] + [matrix_mul(v, s.anchor).column_entries()]
    top = matrix_mul(s.codomain_inv_top, Matrix(n, rho + 1, [list(r) for r in zip(*images)]))
    try:
        correction, _ = _solve_square(
            Matrix(rho, rho, [row[:rho] for row in top.data]),
            Matrix(rho, 1, [row[rho:] for row in top.data]),
        )
    except SingularMatrixError:
        raise OutsideNeighborhoodError("leading block singular at this operator") from None
    x = s.anchor.column_entries()
    for i, e in zip(s.front, correction.column_entries()):
        x[i] = x[i] - e
    return Matrix.column(x)


def ad_operator(b: Matrix, a0: Matrix) -> Matrix:
    """Matrix of ``M -> B@M - M@A0`` on column-stacked n*n matrix space."""
    if not b.is_square() or not a0.is_square() or b.rows != a0.rows:
        raise ValueError("ad operator needs square matrices of equal size")
    n = b.rows
    big = n * n
    out = Matrix.zeros(big, big)
    for c1 in range(n):
        for r1 in range(n):
            row = c1 * n + r1
            row_data = out.data[row]
            for r2 in range(n):
                e = b.data[r1][r2]
                if not e.is_zero():
                    row_data[c1 * n + r2] = row_data[c1 * n + r2] + e
            for c2 in range(n):
                e = a0.data[c2][c1]
                if not e.is_zero():
                    row_data[c2 * n + r1] = row_data[c2 * n + r1] - e
    return out


def _leading_terms(sd: SectionData, a0: Matrix, gaussian: bool) -> tuple:
    """How ``[A | c]`` depends on B, for the operator ``M -> B@M - M@A0``.

    Row r of codomain_inv_top is vec(M_r).  The complement vector vec(E_ij)
    maps to vec(B@E_ij - E_ij@A0), so A's entry at it is
    ``<M_r, B@E_ij - E_ij@A0> = (B^T@M_r - M_r@A0^T)[i][j]``, and
    ``c_r = <M_r, B - A0>``.  M_r is sparse (one or two nonzeros on the
    lift windows in use), so each row is a short sum.  In integers
    (Gaussian when ``gaussian``), each row's terms are the nonzeros
    ``(m, a, c, fronts)`` of M_r, with ``fronts`` the pairs (k, i) of the
    complement vectors E_ic, and minus the A0 part as pairs (column,
    value).  Returns the terms, the row denominators (of T_r, times A0's),
    and A0 over its denominator.
    """
    n, rho = a0.rows, sd.rank
    a0_int, a0_den = _int_matrix(a0.data, gaussian)
    by_col: list[list] = [[] for _ in range(n)]  # complement vectors E_ij by j
    by_row: list[list] = [[] for _ in range(n)]  # ... and by i
    for k, idx in enumerate(sd.front):
        i, j = idx % n, idx // n
        by_col[j].append((k, i))
        by_row[i].append((k, j))
    zero = _zero(gaussian)
    top, dens = _int_rows(sd.codomain_inv_top.data, gaussian)
    terms = []
    for row in top:
        b_part = []
        a0_part = [zero] * (rho + 1)
        for idx, m in enumerate(row):
            if m:
                a, c = idx % n, idx // n
                b_part.append((m, a, c, by_col[c]))
                for k, j in by_row[a]:
                    a0_part[k] = a0_part[k] - m * a0_int[j][c]
                a0_part[rho] = a0_part[rho] - m * a0_int[a][c]
        terms.append((b_part, [(k, v) for k, v in enumerate(a0_part) if v]))
    return terms, [t * a0_den for t in dens], a0_int, a0_den


def _leading_rows(terms: list, b_int: list[list], b_den, rho: int, zero) -> list[list]:
    """The integer rows of ``[A | c]`` from :func:`_leading_terms`, with
    ``b_int`` = B times ``b_den`` times A0's denominator; each row is over
    its row denominator times ``b_den``."""
    rows = []
    for b_part, a0_part in terms:
        row = [zero] * (rho + 1)
        for k, v in a0_part:
            row[k] = v * b_den
        for m, a, c, fronts in b_part:
            b_row = b_int[a]
            for k, i in fronts:
                row[k] = row[k] + m * b_row[i]
            row[rho] = row[rho] + m * b_row[c]
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ConjugationSection:
    """Exact local cross-section of B -> conjugators onto a nilpotent base point."""

    base: Matrix  # A0
    section: SectionData
    base_ranks: tuple[int, ...]  # ranks of A0^0, A0^1, ..., down to 0
    # Derived from base and section: whether A0 has a non-real entry (its
    # codomain_inv_top, built from A0 alone, then has none either), and
    # [A | c]'s dependence on B in those integers.
    gaussian: bool = field(init=False, repr=False, compare=False)
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gaussian = _is_gaussian(self.base.data)
        object.__setattr__(self, "gaussian", gaussian)
        object.__setattr__(self, "terms", _leading_terms(self.section, self.base, gaussian))

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

    def _solve(self, b: Matrix) -> tuple[list[list], list[int], _Reduction, Matrix]:
        """``[A | c]`` at B as integer rows over their denominators, their
        reduction and g(B), after every check that :meth:`evaluate` names."""
        n, rho = self.base.rows, self.rank
        if b.rows != n or b.cols != n:
            raise ValueError("dimension mismatch")
        if self.displacement_rank(b) != rho:
            raise OutsideNeighborhoodError("displacement rank differs from base point")
        gaussian = self.gaussian or _is_gaussian(b.data)
        terms, dens, a0_int, a0_den = (
            self.terms if gaussian == self.gaussian else _leading_terms(self.section, self.base, True)
        )
        zero = _zero(gaussian)
        b_int, b_den = _int_matrix(b.data, gaussian)
        b_int = _scaled(b_int, a0_den, gaussian)
        rows = _leading_rows(terms, b_int, _integer(b_den, gaussian), rho, zero)
        dens = [d * b_den for d in dens]
        red = _Reduction(list(rows), list(dens), rho)  # the loop replaces rows, never edits them
        if len(red.pivots) < rho:
            raise OutsideNeighborhoodError("leading block singular at this operator")
        g = Matrix.identity(n)
        for k, idx in enumerate(self.section.front):
            i, j = idx % n, idx // n
            (e,) = red.row(k, (rho,))
            g.data[i][j] = ONE - e if i == j else -e
        # B = b_int / (b_den a0_den), so B g = g A0 reads b_int g = b_den g a0_int
        g_int, _ = _int_matrix(g.data, gaussian)
        if len(_eliminate(list(g_int), [1] * n, n)[0]) < n:
            raise OutsideNeighborhoodError("section conjugator is singular")
        a0_scaled = _scaled(a0_int, b_den, gaussian)
        if _mul_rows(b_int, g_int, n, zero) != _mul_rows(g_int, a0_scaled, n, zero):
            raise AssertionError("section identity failed despite rank match")
        return rows, dens, red, g

    def evaluate(self, b: Matrix) -> tuple[Matrix, Scalar, Matrix]:
        """The section's leading block at B, its determinant and g(B).

        ``[A | c]`` is read off B in integers (:func:`_leading_terms`) and
        row-reduced once; g(B) is unvec(vec(I) minus ``A^-1 c`` spread over
        the complement vectors).  Validity is checked exactly: the
        displacement rank must match the base point's, the leading block
        must be invertible, and g(B) itself must be invertible; otherwise
        OutsideNeighborhood is raised.  ``B g = g A0`` is asserted.
        """
        rows, dens, red, g = self._solve(b)
        rho = self.rank
        block = Matrix(rho, rho, [[_scalar(x, d) for x in row[:rho]] for row, d in zip(rows, dens)])
        return block, red.det(), g

    def conjugator_at(self, b: Matrix) -> Matrix:
        """g(B), invertible with ``B @ g(B) = g(B) @ A0``, and g(A0) = I."""
        return self._solve(b)[3]


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

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
forms no such matrix: the rank test comes from the power-rank sequences of
B and A0, and the operator is applied only to the rank + 1 adapted-domain
basis vectors that the leading block and the last column need.  The one
elimination that solves the leading block also yields its determinant,
which certification interpolates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotInKernelError,
    NotNilpotentError,
    OutsideNeighborhoodError,
    SingularMatrixError,
)
from .matrix import (
    Matrix,
    _solve_square,
    det,
    inverse,
    kernel_and_pivots,
    matrix_mul,
    pivot_columns,
    power_ranks,
    unvec,
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


def _section_from_images(s: SectionData, images: list[list[Scalar]]) -> tuple[Matrix, Scalar, Matrix]:
    """Leading block A, det A and section vector from an operator's probe images.

    ``images`` are the operator's images of the complement vectors, then of
    x0.  Their first `rank` adapted-codomain coordinates form ``[A | c]``,
    the leading block and the top of the last column of the operator's
    adapted matrix; the section is x0 minus the complement vectors weighted
    by ``A^-1 c``, and det A comes from the same elimination.  Raises
    OutsideNeighborhood when A is singular.
    """
    rho = s.rank
    columns = Matrix(s.dimension, rho + 1, [list(r) for r in zip(*images)])
    top = matrix_mul(s.codomain_inv_top, columns)
    a_block = Matrix(rho, rho, [row[:rho] for row in top.data])
    c_last = Matrix(rho, 1, [row[rho:] for row in top.data])
    try:
        correction, block_det = _solve_square(a_block, c_last)
    except SingularMatrixError:
        raise OutsideNeighborhoodError("leading block singular at this operator") from None
    x = s.anchor.column_entries()
    for i, e in zip(s.front, correction.column_entries()):
        x[i] = x[i] - e
    return a_block, block_det, Matrix.column(x)


def section_eval(s: SectionData, v: Matrix) -> Matrix:
    """Kernel-section vector f(v) for an operator v near the reference.

    Only the leading block and the last column of v's adapted matrix are
    needed, so only v's images of the complement vectors (columns of v)
    and of x0.  Raises OutsideNeighborhood when the leading block is
    singular; the identity ``v @ f(v) = 0`` then holds whenever
    rank(v) = rank(u).
    """
    n = s.dimension
    if v.rows != n or v.cols != n:
        raise ValueError("operator dimension mismatch")
    images = [v.column_entries(i) for i in s.front] + [matrix_mul(v, s.anchor).column_entries()]
    return _section_from_images(s, images)[2]


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

    def evaluate(self, b: Matrix) -> tuple[Matrix, Scalar, Matrix]:
        """The section's leading block at B, its determinant and g(B).

        Validity is checked exactly: the displacement rank must match the
        base point's, the leading block must be invertible, and g(B) itself
        must be invertible; otherwise OutsideNeighborhood is raised.
        """
        n = self.base.rows
        if b.rows != n or b.cols != n:
            raise ValueError("dimension mismatch")
        if self.displacement_rank(b) != self.rank:
            raise OutsideNeighborhoodError("displacement rank differs from base point")
        # The complement vectors are vec(E_ij), vec index j*n + i; column j of
        # B@E_ij is column i of B, and row i of E_ij@A0 is row j of A0.  The
        # anchor vec(I) maps to vec(B - A0).
        b_cols = b.transpose().data
        a0 = self.base.data
        images = []
        for idx in self.section.front:
            i, j = idx % n, idx // n
            out = [ZERO] * (n * n)
            out[j * n : (j + 1) * n] = b_cols[i]
            for c, e in enumerate(a0[j]):
                if not e.is_zero():
                    out[c * n + i] = out[c * n + i] - e
            images.append(out)
        images.append(vec(b - self.base).column_entries())
        block, block_det, x = _section_from_images(self.section, images)
        g = unvec(x, n)
        if det(g).is_zero():
            raise OutsideNeighborhoodError("section conjugator is singular")
        if matrix_mul(b, g) != matrix_mul(g, self.base):
            raise AssertionError("section identity failed despite rank match")
        return block, block_det, g

    def conjugator_at(self, b: Matrix) -> Matrix:
        """g(B), invertible with ``B @ g(B) = g(B) @ A0``, and g(A0) = I."""
        return self.evaluate(b)[2]


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

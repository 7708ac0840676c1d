"""Jordan structure of nilpotent matrices.

Profiles are computed from the rank sequence of powers; Jordan bases use
the classical chain construction seeded deterministically from echelon
kernel bases, so conjugators (and everything built on them) are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotNilpotentError, NotSimilarError
from .matrix import (
    Matrix,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_mul,
    pivot_columns,
    power_ranks,
    rref,
)
from .profiles import Profile


@dataclass(frozen=True)
class JordanDecomposition:
    """Conjugator P and descending cell sizes with P^-1 M P = sum of cells."""

    conjugator: Matrix
    cell_sizes: tuple[int, ...]

    def jordan_form(self) -> Matrix:
        return direct_sum([jordan_cell(k) for k in self.cell_sizes])


def _power_ranks(m: Matrix) -> list[int]:
    """Ranks of M^0, M^1, ... down to the first zero power.

    Raises if M is not nilpotent (the ranks settle above zero).
    """
    ranks = power_ranks(m)
    if ranks[-1] > 0:
        raise NotNilpotentError("matrix is not nilpotent")
    return ranks


def nilpotent_profile(m: Matrix) -> Profile:
    """Jordan profile from second differences of the power-rank sequence."""
    ranks = _power_ranks(m)
    s = len(ranks) - 1  # nilpotency index
    counts = {}
    for k in range(1, s + 1):
        r_prev = ranks[k - 1]
        r_k = ranks[k]
        r_next = ranks[k + 1] if k + 1 < len(ranks) else 0
        c = r_prev - 2 * r_k + r_next
        if c:
            counts[k] = c
    return Profile(counts)


def jordan_basis(m: Matrix) -> JordanDecomposition:
    """Deterministic Jordan chain basis of a nilpotent matrix.

    Chains are seeded level by level, from the longest down: at level j a
    new seed is any echelon kernel vector of M^j independent of ker(M^(j-1))
    and of the vectors carried down from longer chains.  Cells come out in
    decreasing size; ties keep seed creation order.
    """
    ranks = _power_ranks(m)
    s = len(ranks) - 1
    n = m.rows
    if n == 0:
        return JordanDecomposition(Matrix.identity(0), ())

    # ker(M^j) from an echelon basis of row(M^j) = row(M^(j-1)) M: the
    # reduced echelon kernel basis depends only on the row space.
    rows = Matrix.identity(n)
    kernels = [[]]
    for _ in range(s):
        red, pivots = rref(matrix_mul(rows, m))
        rows = Matrix(len(pivots), n, red.data[: len(pivots)])
        kernels.append([v.column_entries() for v in kernel_basis(rows)])

    chains: list[list[Matrix]] = []  # chains[i][k] is M^k applied to seed i
    for j in range(s, 0, -1):
        # seeds: kernel vectors of M^j independent of ker(M^(j-1)) and of
        # the vectors M^(L-j) seed carried down from chains of length L > j
        carried = [chain[len(chain) - j].column_entries() for chain in chains if len(chain) > j]
        skip = len(kernels[j - 1]) + len(carried)
        for c in pivot_columns(n, kernels[j - 1] + carried + kernels[j]):
            if c >= skip:
                chain = [Matrix.column(kernels[j][c - skip])]
                for _ in range(j - 1):
                    chain.append(matrix_mul(m, chain[-1]))
                chains.append(chain)

    chains.sort(key=len, reverse=True)  # list.sort is stable
    columns: list[list] = []
    sizes = []
    for chain in chains:
        sizes.append(len(chain))
        for v in reversed(chain):  # cell columns: M^(j-1)v, ..., Mv, v
            columns.append(v.column_entries())
    conj = Matrix(n, n, [list(row) for row in zip(*columns)])
    return JordanDecomposition(conj, tuple(sizes))


def similarity_witness(x: Matrix, y: Matrix) -> Matrix:
    """Invertible Q with ``y = Q x Q^-1``, for similar nilpotent inputs."""
    if x.rows != y.rows or x.cols != y.cols:
        raise NotSimilarError("dimension mismatch")
    dx = jordan_basis(x)
    dy = jordan_basis(y)
    if dx.cell_sizes != dy.cell_sizes:
        raise NotSimilarError(
            f"profiles differ: {list(dx.cell_sizes)} vs {list(dy.cell_sizes)}"
        )
    # x = Px J Px^-1 and y = Py J Py^-1, so y = (Py Px^-1) x (Py Px^-1)^-1.
    return matrix_mul(dy.conjugator, inverse(dx.conjugator))


def profile_matrix(profile: Profile) -> Matrix:
    """Canonical nilpotent model: direct sum of cells in decreasing size."""
    return direct_sum([jordan_cell(k) for k, c in profile.items() for _ in range(c)])

"""Jordan structure of nilpotent matrices.

Profiles are computed from the rank sequence of powers; Jordan bases use
the classical chain construction seeded deterministically from echelon
kernel bases, so conjugators (and everything built on them) are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import NotNilpotentError, NotSimilarError
from .matrix import (
    Matrix,
    _canonical,
    _independent,
    _ints,
    _made,
    _mul_rows,
    _over_one,
    _row_pushes,
    _times,
    _transposed,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_mul,
    power_ranks,
)
from .profiles import Profile


@dataclass(frozen=True)
class JordanDecomposition:
    """Conjugator P and descending cell sizes with P^-1 M P = sum of cells."""

    conjugator: Matrix
    cell_sizes: tuple[int, ...]

    def jordan_form(self) -> Matrix:
        return direct_sum([jordan_cell(k) for k in self.cell_sizes])

    @property
    def profile(self) -> Profile:
        return Profile.from_partition(self.cell_sizes)


def nilpotent_profile(m: Matrix) -> Profile:
    """Jordan profile from second differences of the power-rank sequence.

    Raises if M is not nilpotent (the ranks settle above zero).
    """
    ranks = power_ranks(m)
    if ranks[-1] > 0:
        raise NotNilpotentError("matrix is not nilpotent")
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

    The seed test runs in the quotient by ker(M^(j-1)): each candidate v is
    replaced by R v, with R the reduced echelon basis of row(M^(j-1)).  The
    kernel of v -> R v is exactly ker(M^(j-1)), so v is independent of
    ker(M^(j-1)) and the earlier candidates exactly when R v is independent
    of their images, and the greedy choice picks the same seeds in
    rank(M^(j-1)) coordinates instead of n.
    """
    if not m.is_square():
        raise ValueError("Jordan basis of a non-square matrix")
    n = m.rows

    # M in integers over one denominator, as the kernels run on it.
    m_int, m_den = _over_one(_ints(m))

    # bases[j] is the reduced echelon basis of row(M^j), and kernels[j] the
    # echelon kernel basis of M^j, which depends only on that row space.  M
    # is nilpotent exactly when the pushes end at rank 0, so that ker(M^s)
    # is everything, and their number s is its nilpotency index.  Kernel
    # vectors are integer vectors over a denominator.
    pushes = list(_row_pushes(m_int))
    bases = [[[int(i == j) for j in range(n)] for i in range(n)]] + [rows for _, rows in pushes]
    kernels = [[]] + [red.kernel(n) for red, _ in pushes]
    if len(kernels[-1]) != n:
        raise NotNilpotentError("matrix is not nilpotent")
    s = len(kernels) - 1

    # A chain vector v is pushed through M as the integer row v^T M^T, over
    # its denominator times M's.
    mt = _transposed(m_int, n)
    chains: list[list[tuple[list, int]]] = []  # chains[i][k] is M^k applied to seed i
    for j in range(s, 0, -1):
        # seeds: kernel vectors of M^j independent, modulo ker(M^(j-1)), of
        # the vectors M^(L-j) seed carried down from chains of length L > j
        carried = [chain[len(chain) - j][0] for chain in chains if len(chain) > j]
        basis = bases[j - 1]
        images = _mul_rows(carried + [v for v, _ in kernels[j]], _transposed(basis, n), len(basis))
        for c in _independent(len(basis), images):
            if c >= len(carried):
                v, den = kernels[j][c - len(carried)]
                chain = [(v, den)]
                for _ in range(j - 1):
                    (v,) = _mul_rows([v], mt, n)
                    den *= m_den
                    chain.append((v, den))
                chains.append(chain)

    chains.sort(key=len, reverse=True)  # list.sort is stable
    columns: list[tuple[list, int]] = []
    sizes = []
    for chain in chains:
        sizes.append(len(chain))
        columns.extend(reversed(chain))  # cell columns: M^(j-1)v, ..., Mv, v
    den = lcm(*[d for _, d in columns])
    scaled = [_times(v, den // d) for v, d in columns]
    conj = _made(n, n, _canonical(_transposed(scaled, n), [den] * n))
    return JordanDecomposition(conj, tuple(sizes))


def similarity_witness(x: Matrix, y: Matrix) -> Matrix:
    """Invertible Q with ``y = Q x Q^-1``, for similar nilpotent inputs."""
    if x.rows != y.rows or x.cols != y.cols:
        raise NotSimilarError("dimension mismatch")
    return _witness(jordan_basis(x), jordan_basis(y))


def _witness(dx: JordanDecomposition, dy: JordanDecomposition) -> Matrix:
    """Q with ``y = Q x Q^-1``, from Jordan bases dx of x and dy of y."""
    if dx.cell_sizes != dy.cell_sizes:
        raise NotSimilarError(
            f"profiles differ: {list(dx.cell_sizes)} vs {list(dy.cell_sizes)}"
        )
    # x = Px J Px^-1 and y = Py J Py^-1, so y = (Py Px^-1) x (Py Px^-1)^-1.
    return matrix_mul(dy.conjugator, inverse(dx.conjugator))


def profile_matrix(profile: Profile) -> Matrix:
    """Canonical nilpotent model: direct sum of cells in decreasing size."""
    return direct_sum([jordan_cell(k) for k, c in profile.items() for _ in range(c)])

"""Jordan structure of nilpotent matrices.

Profiles come from the rank sequence of powers and Jordan bases from the
classical chain construction seeded deterministically from echelon kernel
vectors, so conjugators (and everything built on them) are reproducible.
Both read the row spaces of the powers off one push in pivot coordinates
(``matrix._row_pushes``); a similarity witness is one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import NotNilpotentError, NotSimilarError
from .matrix import (
    Matrix,
    _canonical,
    _independent,
    _kernel_vector,
    _ints,
    _Ints,
    _made,
    _mul_rows,
    _over_one,
    _product,
    _row_pushes,
    _times,
    _transposed,
    direct_sum,
    jordan_cell,
    power_ranks,
    solve,
)
from .profiles import Profile


@dataclass(frozen=True)
class JordanDecomposition:
    """Conjugator P and descending cell sizes with P^-1 M P = sum of cells."""

    conjugator: Matrix
    cell_sizes: tuple[int, ...]

    def jordan_form(self) -> Matrix:
        return profile_matrix(self.profile)

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
    and of the vectors carried down from longer chains.  Level j seeds the
    chains of length j, so cells come out in decreasing size; ties keep seed
    creation order.

    The seed test runs in the quotient by ker(M^(j-1)): a candidate w in
    ker(M^j) is replaced by R w, with R = rref(M^(j-1)), a map with kernel
    ker(M^(j-1)).  R w lies in the kernel of the push's rref(C_j), so it is
    fixed by its entries at the rows of R whose pivots leave at level j.
    There the echelon kernel vector of free column f maps to R's column f,
    with no product; a kernel vector is built only for a chosen seed.
    """
    if not m.is_square():
        raise ValueError("Jordan basis of a non-square matrix")
    n = m.rows

    # levels[j] is P_j and the integer form of rref(M^j).  M is nilpotent
    # exactly when the pushes end at rank 0, so that ker(M^s) is everything,
    # and their number s is its nilpotency index.
    levels = [(range(n), _Ints([[int(i == j) for j in range(n)] for i in range(n)], [1] * n))]
    for pivots, coeffs in _row_pushes(_ints(m)):
        levels.append((pivots, _product(coeffs, levels[-1][1], n)))
    if levels[-1][0]:
        raise NotNilpotentError("matrix is not nilpotent")

    # A chain vector v is pushed through M as the integer row v^T M^T, over
    # its denominator times M's.
    m_int, m_den = _over_one(_ints(m))
    mt = _transposed(m_int, n)
    chains: list[list[tuple[list, int]]] = []  # chains[i][k] is M^k applied to seed i
    for j in range(len(levels) - 1, 0, -1):
        # seeds: kernel vectors of M^j independent, modulo ker(M^(j-1)), of
        # the vectors M^(L-j) seed carried down from chains of length L > j.
        # A row of R is scaled by its denominator, which keeps independence.
        (above, r_form), (pivots, form) = levels[j - 1], levels[j]
        leaving = [row for p, row in zip(above, r_form.rows) if p not in pivots]
        free = [f for f in range(n) if f not in pivots]
        carried = [chain[len(chain) - j][0] for chain in chains if len(chain) > j]
        images = _mul_rows(carried, _transposed(leaving, n), len(leaving))
        rows, den = _over_one(form)
        for c in _independent(len(leaving), images + [[row[f] for row in leaving] for f in free]):
            if c >= len(carried):
                chain = [(_kernel_vector(pivots, rows, den, free[c - len(carried)], n), den)]
                for k in range(1, j):
                    chain.append((_mul_rows([chain[-1][0]], mt, n)[0], den * m_den**k))
                chains.append(chain)

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
    # x = Px J Px^-1 and y = Py J Py^-1, so Q = Py Px^-1 solves Px^T Q^T = Py^T.
    return solve(dx.conjugator.transpose(), dy.conjugator.transpose()).transpose()


def profile_matrix(profile: Profile) -> Matrix:
    """Canonical nilpotent model: direct sum of cells in decreasing size."""
    return direct_sum([jordan_cell(k) for k, c in profile.items() for _ in range(c)])

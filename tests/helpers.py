"""Matrix helpers that only the tests use: seeded invertible matrices, the
inverse of ``vec``, a greedy pivot-column oracle in Scalar arithmetic and
the blend determinant of any square Q."""

from fractions import Fraction

from nilpath.matrix import Matrix, det
from nilpath.paths import ClosingFactor


def random_invertible(n, rng, lo=-3, hi=3):
    """Random integer matrix with nonzero determinant (rejection sampling)."""
    while True:
        m = Matrix.from_rows([[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)])
        if not det(m).is_zero():
            return m


def unvec(v, n):
    """Inverse of ``vec`` for an n-by-n matrix."""
    entries = v.column_entries()
    return Matrix(n, n, [[entries[j * n + i] for j in range(n)] for i in range(n)])


def greedy_pivot_columns(columns):
    """Indices of the greedy independent subset of ``columns`` (sequences
    of Scalars): a column is kept unless it lies in the span of those
    before it, tested one column at a time by rational elimination."""
    rows, pivots, kept = [], [], []
    for i, column in enumerate(columns):
        v = list(column)
        for row, piv in zip(rows, pivots):
            f = v[piv]
            if not f.is_zero():
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((j for j, e in enumerate(v) if not e.is_zero()), None)
        if lead is not None:
            rows.append([e / v[lead] for e in v])
            pivots.append(lead)
            kept.append(i)
    return kept


def blend_determinant(q):
    """det((1-z)I + zQ), as the closing factor of the zero root takes it:
    every A-cell of X = 0 has size 1, so its C is Q in X's basis."""
    zero = Matrix.zeros(q.rows, q.rows)
    return ClosingFactor(zero, q, 2, zero).determinant

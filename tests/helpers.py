"""Matrix helpers that only the tests use: seeded invertible matrices, the
inverse of ``vec`` and a greedy pivot-column oracle in Scalar arithmetic."""

from fractions import Fraction

from nilpath.matrix import Matrix, det


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

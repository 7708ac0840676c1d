import json
import random
from fractions import Fraction

import pytest

from nilpath.errors import InputFormatError, SingularMatrixError
from nilpath.matrix import (
    Matrix,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_from_json,
    matrix_mul,
    matrix_pow,
    matrix_to_json,
    pivot_columns,
    power_ranks,
    rank,
    random_invertible,
    rref,
    solve,
    unvec,
    vec,
)
from nilpath.scalar import ONE, ZERO, Scalar


def test_jordan_cell_shapes():
    assert jordan_cell(0).rows == 0
    assert jordan_cell(1) == Matrix.zeros(1, 1)
    j3 = jordan_cell(3)
    assert j3.data[0][1] == ONE and j3.data[1][2] == ONE
    assert sum(1 for row in j3.data for e in row if not e.is_zero()) == 2


def test_rank_examples():
    assert rank(jordan_cell(3)) == 2
    assert rank(Matrix.zeros(4, 4)) == 0
    # rank of a cell sum equals the count of superdiagonal ones
    assert rank(direct_sum([jordan_cell(4), jordan_cell(2)])) == 4


def test_direct_sum_single_one():
    m = direct_sum([jordan_cell(1), jordan_cell(2)])
    nonzero = [(i, j) for i in range(3) for j in range(3) if not m.data[i][j].is_zero()]
    assert nonzero == [(1, 2)]


def test_det_examples():
    assert det(Matrix.identity(5)) == ONE
    assert det(Matrix.identity(0)) == ONE
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert det(m) == Scalar(-2)
    assert det(Matrix.from_rows([[0, 1], [0, 0]])) == ZERO


def test_matrix_pow():
    j3 = jordan_cell(3)
    sq = matrix_pow(j3, 2)
    nonzero = [(i, j) for i in range(3) for j in range(3) if not sq.data[i][j].is_zero()]
    assert nonzero == [(0, 2)]
    assert matrix_pow(j3, 3).is_zero()
    empty = jordan_cell(0)
    assert matrix_pow(empty, 5).rows == 0


def test_inverse_exact():
    rng = random.Random(7)
    for n in (1, 2, 4, 6):
        m = random_invertible(n, rng)
        m_inv = inverse(m)
        assert matrix_mul(m, m_inv) == Matrix.identity(n)
        assert matrix_mul(m_inv, m) == Matrix.identity(n)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(jordan_cell(2))


def test_solve():
    a = Matrix.from_rows([[2, 1], [1, 3]])
    b = Matrix.from_rows([[5], [10]])
    x = solve(a, b)
    assert matrix_mul(a, x) == b


def test_solve_singular_raises():
    # a missing pivot in a later column must be caught as well as in the first
    for a in (
        jordan_cell(2),
        Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]]),
    ):
        with pytest.raises(SingularMatrixError):
            solve(a, Matrix.identity(a.rows))


def test_solve_multi_column():
    rng = random.Random(13)
    for n, w in ((0, 2), (1, 3), (3, 2), (5, 4)):
        a = random_invertible(n, rng)
        b = Matrix(
            n,
            w,
            [[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(w)] for _ in range(n)],
        )
        x = solve(a, b)
        assert (x.rows, x.cols) == (n, w)
        assert matrix_mul(a, x) == b


def test_bareiss_det_matches_inverse_route():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        d = det(m)
        if d.is_zero():
            assert rank(m) < n
        else:
            assert rank(m) == n
            assert matrix_mul(m, inverse(m)) == Matrix.identity(n)


def test_rref_and_kernel():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    red, pivots = rref(m)
    assert pivots == [0]
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert matrix_mul(m, v).is_zero()


def test_vec_unvec_roundtrip():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    v = vec(m)
    assert v.column_entries() == [Scalar(1), Scalar(3), Scalar(2), Scalar(4)]
    assert unvec(v, 2) == m


def test_json_roundtrip_bit_exact():
    m = Matrix.from_rows(
        [
            [Fraction(1, 2), Scalar(Fraction(2, 4), Fraction(-1, 3))],
            [0, Fraction(7)],
        ]
    )
    text = matrix_to_json(m)
    again = matrix_from_json(text)
    assert again == m
    assert matrix_to_json(again) == text


def test_json_parses_unreduced_entries_canonically():
    text = json.dumps({"rows": 1, "cols": 1, "entries": [["2/4"]]})
    m = matrix_from_json(text)
    assert matrix_to_json(m) == json.dumps({"rows": 1, "cols": 1, "entries": [["1/2"]]})


def test_json_rejects_malformed():
    for bad in (
        "[]",
        json.dumps({"rows": 2, "cols": 1, "entries": [["1/1"]]}),
        json.dumps({"rows": 1, "cols": 1, "entries": [["nope"]]}),
    ):
        with pytest.raises(InputFormatError):
            matrix_from_json(bad)


def test_empty_matrix_operations():
    e = jordan_cell(0)
    assert e == Matrix.identity(0)
    assert direct_sum([e, jordan_cell(2), e]) == jordan_cell(2)
    assert det(e) == ONE
    assert rank(e) == 0


def test_power_ranks_match_ranks_of_powers():
    rng = random.Random(41)
    cases = [Matrix.zeros(0, 0), Matrix.zeros(3, 3), Matrix.identity(3), jordan_cell(4)]
    for _ in range(12):
        n = rng.randint(1, 6)
        cases.append(
            Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        )
        r = random_invertible(n, rng, -1, 1)
        model = direct_sum([jordan_cell(k) for k in (n - n // 2, n // 2)])
        cases.append(matrix_mul(r, matrix_mul(model, inverse(r))))
    for m in cases:
        ranks = power_ranks(m)
        assert ranks[0] == m.rows
        assert all(r0 > r1 for r0, r1 in zip(ranks, ranks[1:]))
        for k in range(m.rows + 2):
            assert rank(matrix_pow(m, k)) == ranks[min(k, len(ranks) - 1)], (m, k)
    with pytest.raises(ValueError):
        power_ranks(Matrix.zeros(2, 3))


def _cofactor_det(rows):
    """Determinant by expansion along the first row (reference)."""
    if not rows:
        return ONE
    total = ZERO
    for j, e in enumerate(rows[0]):
        if not e.is_zero():
            minor = _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
            total = total + e * minor if j % 2 == 0 else total - e * minor
    return total


def _minor_rank(m):
    """Rank as the size of the largest nonvanishing minor (reference)."""
    from itertools import combinations

    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                if not _cofactor_det([[m.data[i][j] for j in cs] for i in rs]).is_zero():
                    return k
    return 0


def _random_gaussian(rng, rows, cols):
    def entry():
        if rng.random() < 0.3:
            return ZERO
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.6 else 0
        return Scalar(re, im)

    return Matrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def test_det_and_rank_match_cofactor_reference():
    rng = random.Random(23)
    cases = []
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_gaussian(rng, n, n)
        kind = rng.randrange(4)
        if kind == 1:  # forced row swap: the first column's leading entries vanish
            for i in range(n - 1):
                m.data[i][0] = ZERO
        elif kind == 2:  # singular: one row a combination of the others
            i = rng.randrange(n)
            row = [ZERO] * n
            for r in range(n):
                if r != i:
                    c = Scalar(Fraction(rng.randint(-2, 2)), rng.randint(-1, 1))
                    row = [a + c * b for a, b in zip(row, m.data[r])]
            m.data[i] = row
        elif kind == 3:  # singular: a zero column
            for row in m.data:
                row[rng.randrange(n)] = ZERO
        cases.append(m)
    for _ in range(15):
        cases.append(_random_gaussian(rng, rng.randint(1, 4), rng.randint(1, 5)))
    assert any(not _cofactor_det(m.data).is_zero() for m in cases if m.is_square())
    assert any(_cofactor_det(m.data).is_zero() for m in cases if m.is_square())
    assert any(not e.is_real() for m in cases for row in m.data for e in row)
    for m in cases:
        if m.is_square():
            assert det(m) == _cofactor_det(m.data), m
        assert rank(m) == _minor_rank(m), m
    with pytest.raises(ValueError):
        det(Matrix.zeros(2, 3))


class _GreedySpan:
    """Row-at-a-time independence test (reference for pivot-column choice)."""

    def __init__(self):
        self._rows = []
        self._pivots = []

    def add(self, v):
        v = list(v)
        for row, piv in zip(self._rows, self._pivots):
            f = v[piv]
            if not f.is_zero():
                v = [a - f * b for a, b in zip(v, row)]
        lead = next((j for j, e in enumerate(v) if not e.is_zero()), None)
        if lead is None:
            return False
        self._rows.append([e / v[lead] for e in v])
        self._pivots.append(lead)
        return True


def test_pivot_columns_match_greedy_independent_subset():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 5)
        cols = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.randrange(4)
            if kind == 0 or not cols:  # fresh, often complex
                cols.append(_random_gaussian(rng, n, 1).column_entries())
            elif kind == 1:  # zero column
                cols.append([ZERO] * n)
            elif kind == 2:  # a repeat, scaled by a Gaussian rational
                c = Scalar(Fraction(rng.randint(1, 3)), rng.randint(-1, 1))
                cols.append([c * e for e in rng.choice(cols)])
            else:  # a combination of two earlier columns
                a, b = rng.choice(cols), rng.choice(cols)
                cols.append([x + Scalar(0, 1) * y for x, y in zip(a, b)])
        tracker = _GreedySpan()
        expected = [i for i, c in enumerate(cols) if tracker.add(c)]
        assert pivot_columns(n, cols) == expected
        if cols:
            assert rref(Matrix(n, len(cols), [list(r) for r in zip(*cols)]))[1] == expected

import copy
import json
import operator
import pickle
import random
from fractions import Fraction

import pytest

from nilpath.errors import InputFormatError, SingularMatrixError
from nilpath.matrix import (
    Matrix,
    _GaussInt,
    _independent,
    _ints,
    _ints_of,
    _mul_cols,
    _mul_rows,
    _plus_scaled,
    _Reduction,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_from_json,
    matrix_mul,
    matrix_pow,
    matrix_to_json,
    power_ranks,
    rank,
    rref,
    solve,
    vec,
)
from nilpath.scalar import ONE, ZERO, Scalar, format_scalar, parse_scalar

from helpers import greedy_pivot_columns, random_invertible, unvec


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


def test_json_loader_matches_parse_scalar():
    rng = random.Random(14)
    grids = []  # expected Scalar entries and their texts
    for gaussian in (False, True, True):
        for rows, cols in ((0, 0), (2, 0), (1, 3), (4, 4), (3, 5)):
            def entry():
                re = Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < 0.7 else 0
                im = Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if gaussian and rng.random() < 0.5 else 0
                return Scalar(re, im)

            grid = [[entry() for _ in range(cols)] for _ in range(rows)]
            grids.append((rows, cols, grid, [[format_scalar(e) for e in row] for row in grid]))
    odd = {
        "2/4": Scalar(Fraction(1, 2)), "+3": Scalar(3), "-0": ZERO, "0/7": ZERO, "-4/8": Scalar(Fraction(-1, 2)),
        " 1/2 - 3/4 i ": Scalar(Fraction(1, 2), Fraction(-3, 4)), "5 i": Scalar(0, 5),
        "-5/3 i": Scalar(0, Fraction(-5, 3)), "3/6+0/5 i": Scalar(Fraction(1, 2)), "1/1-0 i": ONE,
    }
    for texts in (list(odd), [t for t in odd if odd[t].is_real()]):
        n = len(texts)
        rows = [texts[i:] + texts[:i] for i in range(n)]  # every text in every column
        grids.append((n, n, [[odd[t] for t in row] for row in rows], rows))
    for rows, cols, grid, texts in grids:
        loaded = matrix_from_json(json.dumps({"rows": rows, "cols": cols, "entries": texts}))
        for ref in (Matrix(rows, cols, grid), Matrix(rows, cols, [[parse_scalar(t) for t in row] for row in texts])):
            assert loaded == ref
            assert _ints(loaded) == _ints(ref)
            assert loaded.data == ref.data
            assert repr(loaded) == repr(ref)


def test_json_loader_error_messages():
    for entry, message in (
        (3, "scalar entry must be a string, not 3"),
        ("1/0", "zero denominator in scalar entry '1/0'"),
        ("1/2+3/0 i", "zero denominator in scalar entry '1/2+3/0 i'"),
        ("1.5", "bad scalar entry '1.5'"),
        ("abc", "bad scalar entry 'abc'"),
        ("", "bad scalar entry ''"),
    ):
        with pytest.raises(InputFormatError) as parsed:
            parse_scalar(entry)
        with pytest.raises(InputFormatError) as loaded:
            matrix_from_json(json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"], ["3/4", entry]]}))
        assert str(parsed.value) == str(loaded.value) == message
    # the rows are read in order: a bad entry before a short row, and after it
    for entries, message in (
        ([["abc"], ["1", "2"]], "bad scalar entry 'abc'"),
        ([["1", "2"], ["abc"]], "matrix JSON: wrong row length"),
    ):
        with pytest.raises(InputFormatError, match=message):
            matrix_from_json(json.dumps({"rows": 2, "cols": 1, "entries": entries}))
    with pytest.raises(InputFormatError, match="negative column count"):
        matrix_from_json(json.dumps({"rows": 0, "cols": -1, "entries": []}))


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
        rows = [list(row) for row in _random_gaussian(rng, n, n).data]
        kind = rng.randrange(4)
        if kind == 1:  # forced row swap: the first column's leading entries vanish
            for i in range(n - 1):
                rows[i][0] = ZERO
        elif kind == 2:  # singular: one row a combination of the others
            i = rng.randrange(n)
            row = [ZERO] * n
            for r in range(n):
                if r != i:
                    c = Scalar(Fraction(rng.randint(-2, 2)), rng.randint(-1, 1))
                    row = [a + c * b for a, b in zip(row, rows[r])]
            rows[i] = row
        elif kind == 3:  # singular: a zero column
            for row in rows:
                row[rng.randrange(n)] = ZERO
        cases.append(Matrix(n, n, rows))
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
        expected = greedy_pivot_columns(cols)
        assert _independent(n, _ints_of(cols).rows) == expected
        if cols:
            assert rref(Matrix(n, len(cols), [list(r) for r in zip(*cols)]))[1] == expected


# -- the integer kernels against the rational loops they replaced -------------
#
# _ref_gauss_jordan and _ref_matrix_mul are the Fraction-arithmetic loops that
# matrix.py ran before its kernels moved to integers and Gaussian integers.
# The _ref_* wrappers below them are the public functions as they were built
# on those loops.  Every result of the integer kernels must equal theirs.


def _ref_gauss_jordan(data, pivot_cols):
    rows = len(data)
    width = len(data[0]) if rows else 0
    pivots = []
    d = ONE
    r = 0
    for c in range(pivot_cols):
        if r >= rows:
            break
        p = r
        while p < rows and data[p][c].is_zero():
            p += 1
        if p == rows:
            d = ZERO
            continue
        if p != r:
            data[p], data[r] = data[r], data[p]
            d = -d
        piv = data[r][c]
        d = d * piv
        if piv != ONE:
            data[r] = [e / piv for e in data[r]]
        prow = data[r]
        for i in range(rows):
            if i == r:
                continue
            f = data[i][c]
            if f.is_zero():
                continue
            row = data[i]
            for j in range(c, width):
                if not prow[j].is_zero():
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
    return pivots, d


def _ref_matrix_mul(a, b):
    out = [[ZERO] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for k in range(a.cols):
            aik = arow[k]
            if not aik.is_zero():
                brow = b.data[k]
                for j in range(b.cols):
                    bkj = brow[j]
                    if not bkj.is_zero():
                        orow[j] = orow[j] + aik * bkj
    return Matrix(a.rows, b.cols, out)


def _ref_solve(a, b):
    """a^-1 b, or None when a is singular."""
    n = a.rows
    aug = [list(a.data[i]) + list(b.data[i]) for i in range(n)]
    pivots, _ = _ref_gauss_jordan(aug, n)
    if len(pivots) < n:
        return None
    return Matrix(n, b.cols, [row[n:] for row in aug])


def _ref_rref(m):
    data = [list(r) for r in m.data]
    pivots, _ = _ref_gauss_jordan(data, m.cols)
    return Matrix(m.rows, m.cols, data), pivots


def _ref_kernel_and_pivots(m):
    red, pivots = _ref_rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            if not red.data[r][fc].is_zero():
                v[pc] = -red.data[r][fc]
        basis.append(Matrix.column(v))
    return basis, pivots


def _ref_power_ranks(m):
    mt = m.transpose()
    ranks = [m.rows]
    images = mt
    while True:
        red, pivots = _ref_rref(images)
        r = len(pivots)
        if r == ranks[-1]:
            return ranks
        ranks.append(r)
        if r == 0:
            return ranks
        images = _ref_matrix_mul(Matrix(r, m.cols, red.data[:r]), mt)


def _mixed_entry(rng, gaussian):
    """Zero (the shared ZERO or a fresh one) or a Gaussian rational with
    mixed denominators."""
    u = rng.random()
    if u < 0.3:
        return ZERO
    if u < 0.4:
        return Scalar(0)
    re = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
    im = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))) if gaussian and rng.random() < 0.5 else 0
    return Scalar(re, im)


def _mixed_matrix(rng, rows, cols, gaussian):
    data = [[_mixed_entry(rng, gaussian) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(5)
    if kind == 1 and rows > 1 and cols:  # forced row swaps: leading entries vanish
        for i in range(rows - 1):
            data[i][0] = ZERO
        data[rows - 1][0] = Scalar(Fraction(3, 2), 1 if gaussian else 0)
    elif kind == 2 and rows > 1:  # singular: one row a combination of two others
        c = Scalar(Fraction(rng.randint(-3, 3), 2), rng.randint(-1, 1) if gaussian else 0)
        data[0] = [x + c * y for x, y in zip(data[1], data[-1])]
    elif kind == 3 and cols:  # a zero column
        j = rng.randrange(cols)
        for row in data:
            row[j] = ZERO
    return Matrix(rows, cols, data)


def _nilpotent_conjugate(rng, n, gaussian):
    """S J S^-1 for a nilpotent Jordan matrix J: long power-rank sequences."""
    while True:
        s = _mixed_matrix(rng, n, n, gaussian)
        if not det(s).is_zero():
            break
    cells = [n - n // 3, n // 3]
    model = direct_sum([jordan_cell(k) for k in cells])
    return _ref_matrix_mul(s, _ref_matrix_mul(model, _ref_solve(s, Matrix.identity(n))))


def _reference_cases():
    rng = random.Random(2024)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (5, 3), (3, 6), (2, 7)]
    cases = []
    for gaussian in (False, True):
        for rows, cols in shapes:
            for _ in range(6):
                cases.append(_mixed_matrix(rng, rows, cols, gaussian))
        for n in (3, 5, 6):
            cases.append(_nilpotent_conjugate(rng, n, gaussian))
    return rng, cases


def test_reduction_matches_rational_reference():
    rng, cases = _reference_cases()
    widths = set()
    for m in cases:
        # full width, a partial prefix, and an augmented block [m | b]
        b = _mixed_matrix(rng, m.rows, rng.randint(1, 3), rng.random() < 0.5)
        augmented = Matrix(m.rows, m.cols + b.cols, [ra + rb for ra, rb in zip(m.data, b.data)])
        for a, pivot_cols in ((m, m.cols), (m, m.cols // 2), (augmented, m.cols)):
            want = [list(r) for r in a.data]
            pivots, d = _ref_gauss_jordan(want, pivot_cols)
            red = _Reduction(*_ints(a), pivot_cols)
            assert (red.pivots, red.det()) == (pivots, d), a
            assert red.form(range(a.rows), range(a.cols)) == _ints(Matrix(a.rows, a.cols, want)), a
            if a is m and pivot_cols == m.cols:
                assert rref(m) == (Matrix(m.rows, m.cols, want), pivots), m
            widths.add((len(pivots) < min(a.rows, pivot_cols), a.rows != pivot_cols))
    assert widths == {(False, False), (False, True), (True, False), (True, True)}


def test_integer_kernels_match_rational_reference():
    rng, cases = _reference_cases()
    swaps = 0
    for m in cases:
        gaussian = rng.random() < 0.5
        other = _mixed_matrix(rng, m.cols, rng.randint(0, 4), gaussian)
        assert matrix_mul(m, other) == _ref_matrix_mul(m, other), m
        assert rank(m) == len(_ref_rref(m)[1]), m
        assert rref(m) == _ref_rref(m), m
        assert (kernel_basis(m), rref(m)[1]) == _ref_kernel_and_pivots(m), m
        columns = [m.column_entries(j) for j in range(m.cols)]
        assert _independent(m.rows, _ints_of(columns).rows) == _ref_rref(m)[1], m
        swaps += m.rows > 1 and m.cols > 0 and m.data[0][0].is_zero() and not m.data[-1][0].is_zero()
        if not m.is_square():
            continue
        assert det(m) == _ref_gauss_jordan([list(r) for r in m.data], m.cols)[1], m
        assert power_ranks(m) == _ref_power_ranks(m), m
        power = Matrix.identity(m.rows)
        for e in range(4):
            assert matrix_pow(m, e) == power, (m, e)
            power = _ref_matrix_mul(power, m)
        rhs = _mixed_matrix(rng, m.rows, rng.randint(1, 3), gaussian)
        want_inv, want_x = _ref_solve(m, Matrix.identity(m.rows)), _ref_solve(m, rhs)
        if want_inv is None:
            with pytest.raises(SingularMatrixError):
                inverse(m)
            with pytest.raises(SingularMatrixError):
                solve(m, rhs)
        else:
            assert inverse(m) == want_inv, m
            assert solve(m, rhs) == want_x, m
    assert swaps > 4


def test_gaussian_integer_equality_and_hash():
    a = _GaussInt(2, -3)
    assert a == _GaussInt(2, -3)
    assert a != _GaussInt(2, 3)
    assert a != 0 and not (a == 2)
    assert _GaussInt(0, 0) != 0  # only another Gaussian integer compares equal
    assert len({a, _GaussInt(2, -3), _GaussInt(0, 0)}) == 2


def _as_scalar(x):
    """An int or a Gaussian integer as a Scalar."""
    return Scalar(x.real, x.imag)


def test_gaussian_integer_mixes_with_int():
    rng = random.Random(20)
    ops = (operator.add, operator.sub, operator.mul)
    real_results = 0
    for _ in range(300):
        g = _GaussInt(rng.randint(-6, 6), rng.choice((-1, 1)) * rng.randint(1, 6))
        conj, k = _GaussInt(g.real, -g.imag), rng.randint(-6, 6)
        norm = g.real * g.real + g.imag * g.imag
        cases = [(op(x, y), op(_as_scalar(x), _as_scalar(y))) for x, y in ((g, k), (k, g), (g, conj)) for op in ops]
        # exact quotients by an int, each numerator a multiple of its divisor
        divisions = [(g * k, k), (g * norm, norm)] if k else [(g * norm, norm)]
        cases += [(x // y, _as_scalar(x) / _as_scalar(y)) for x, y in divisions]
        for got, want in cases:
            assert _as_scalar(got) == want, (g, k, got, want)
            assert type(got) is (_GaussInt if want.im else int), (g, k, got)
            real_results += not want.im
    assert real_results > 600


def _holds_real_entries_as_int(m):
    """Every entry of m's integer form is an int, or a _GaussInt that is not real."""
    return all(type(x) is int or (type(x) is _GaussInt and x.imag) for row in _ints(m).rows for x in row)


def test_kernel_results_hold_real_entries_as_int():
    rng = random.Random(37)
    results = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a, b = _mixed_matrix(rng, n, n, True), _mixed_matrix(rng, n, 2, True)
            results += [matrix_mul(a, b), matrix_pow(a, 3), a.transpose(), rref(a)[0], *kernel_basis(a)]
            results += [a.scale(Scalar(Fraction(1, 2), 1)), b.scale(Scalar(0, 2)), a.scale(3)]
            results.append(matrix_from_json(matrix_to_json(a)))
            if not det(a).is_zero():
                results += [inverse(a), solve(a, b), matrix_mul(a, inverse(a))]
    results.append(matrix_from_json('{"rows": 1, "cols": 3, "entries": [["1+0 i", "2/3-3 i", "0 i"]]}'))
    assert all(map(_holds_real_entries_as_int, results))
    forms = [_ints(m) for m in results]
    mixed = [f for f in forms if {type(x) for row in f.rows for x in row} == {int, _GaussInt}]
    assert len(mixed) > len(forms) // 4


def test_matrix_pow_squares_to_the_repeated_product():
    rng = random.Random(11)
    integer = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
    for m in (integer, _mixed_matrix(rng, 3, 3, False), _mixed_matrix(rng, 3, 3, True)):
        power = Matrix.identity(3)
        for e in range(10):
            assert matrix_pow(m, e) == power and matrix_pow(m, e).data == power.data, (m, e)
            power = _ref_matrix_mul(power, m)
    assert matrix_pow(jordan_cell(3), 10**9).is_zero()
    assert matrix_pow(Matrix.from_rows([[Fraction(1, 2)]]), 64) == Matrix.from_rows([[Fraction(1, 2**64)]])


# -- kernel-made matrices keep their integer form ----------------------------


def _rebuilt(m):
    """m read back from its JSON: equal to m, but built from Scalars."""
    return matrix_from_json(matrix_to_json(m))


def _kernel_chain(s, t, r, step):
    """What a chain of kernels gives on s (square, invertible), t (n x k) and
    r (k x n); every matrix a kernel returns passes through ``step``
    before the next kernel reads it."""
    u = step(matrix_mul(s, t))
    v = step(matrix_mul(u, r))
    w = step(solve(s, u))
    s_inv = step(inverse(s))
    x = step(matrix_pow(v, 3))
    y = step(matrix_mul(s_inv, step(matrix_mul(v, s))))
    mats = (u, v, w, s_inv, x, y)
    return (
        [matrix_to_json(m) for m in mats],
        [rank(m) for m in mats],
        [det(m) for m in (v, s_inv, x, y)],
        [power_ranks(m) for m in (v, x, y)],
        [a == b for a in mats for b in mats],
        [m.data for m in mats],
    )


def test_kernel_made_operands_match_scalar_built_copies():
    rng = random.Random(99)
    kinds = 0
    for n, k in ((0, 0), (1, 3), (3, 1), (3, 2), (4, 4)):
        for kind in ("integer", "rational", "gaussian"):
            if kind == "integer":
                def make(rows, cols):
                    return Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
            else:
                def make(rows, cols):
                    return _mixed_matrix(rng, rows, cols, kind == "gaussian")
            s = make(n, n)
            while det(s).is_zero():
                s = make(n, n)
            t, r = make(n, k), make(k, n)
            made = matrix_mul(s, t)
            assert made == _rebuilt(made) and _rebuilt(made) == made
            assert _kernel_chain(s, t, r, lambda m: m) == _kernel_chain(s, t, r, _rebuilt), (n, k, kind)
            kinds += 1
    assert kinds == 15


def test_gaussian_computation_with_real_result_is_real():
    # gamma = q J q^-1 with q = I + i E_01 in the centralizer of A = J^2 but
    # not of J: gamma is not real, and gamma^2 = q A q^-1 = A is.
    cell = jordan_cell(3)
    a = matrix_pow(cell, 2)
    q = Matrix.from_rows([[1, Scalar(0, 1), 0], [0, 1, 0], [0, 0, 1]])
    gamma = matrix_mul(q, matrix_mul(cell, inverse(q)))
    power = matrix_pow(gamma, 2)
    assert power == a and a == power
    assert power == Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert all(type(x) is int for row in _ints(power).rows for x in row) and _ints(power) == _ints(a)
    assert all(e.is_real() for row in power.data for e in row)
    assert any(not e.is_real() for row in gamma.data for e in row)


# -- the kernels on real and imaginary int rows ------------------------------


def _is_canonical(m):
    """m's integer form is the one built from its Scalars: each row over a
    positive denominator with no common factor, real entries as int and
    the others as a _GaussInt that is not real."""
    return _holds_real_entries_as_int(m) and _ints(m) == _ints(_rebuilt(m))


def _g(re, im=0):
    return Scalar(re, im)


# Gaussian matrices that reach each branch of the split kernels; comments
# name the branch of _eliminate, or what the product loop meets in them.
_SPLIT_CASES = [
    Matrix(0, 0, []),
    Matrix(0, 3, []),
    Matrix(3, 0, [[], [], []]),
    Matrix.from_rows([[_g(0, 3)]]),  # 1x1, purely imaginary
    Matrix.from_rows([[_g(Fraction(2, 3), -5)]]),
    # a purely imaginary first pivot, then Gaussian pivots: Gaussian scales
    Matrix.from_rows([[_g(0, 3), 1, _g(2, 1)], [1, _g(1, 1), 0], [_g(0, -2), 4, _g(1, -3)]]),
    # real pivot, a real f, then a Gaussian f: the hand-over mid-column
    Matrix.from_rows([[2, 1, 0], [4, 3, _g(0, 1)], [_g(1, 2), 0, 5]]),
    # a real first column, then a Gaussian pivot: the hand-over at a pivot
    Matrix.from_rows([[1, _g(0, 2), 3], [2, _g(1, 4), 1], [0, 1, 1]]),
    # the same in a pivot row that the first pivot (2) left alone: the hand-over after a catch-up
    Matrix.from_rows([[2, 1, 0], [0, _g(1, 1), 3], [1, 0, 1]]),
    # real pivots and f, Gaussian entries only in the last column: the entry path
    Matrix.from_rows([[1, 2, _g(1, 1)], [3, 4, _g(0, -2)], [5, 6, 7]]),
    # a zero row and a zero column, rational entries over mixed denominators
    Matrix.from_rows([[0, 0, 0], [_g(Fraction(1, 2), 1), 0, 2], [3, 0, _g(0, Fraction(1, 3))]]),
    # real rows, Gaussian rows and a zero row in one factor, which the product splits whole
    Matrix.from_rows([[1, 0, 2], [3, _g(0, 1), _g(1, 1)], [0, 0, 0], [_g(2, -1), 1, 0]]),
    # rank 2: the third row is (1 + i) times the first plus the second
    Matrix.from_rows([[1, _g(0, 1), 2], [0, 3, _g(1, -1)], [_g(1, 1), _g(2, 4), _g(2, 1)]]),
]


def test_split_kernels_match_rational_reference():
    rng = random.Random(41)
    cases = _SPLIT_CASES + [_mixed_matrix(rng, n, n, True) for n in (2, 4, 6) for _ in range(3)]
    for m in cases:
        partners = [_mixed_matrix(rng, m.cols, k, gaussian) for k in (0, 1, 3) for gaussian in (False, True)]
        real = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(m.rows)] for _ in range(2)]) if m.rows else None
        for a, b in [(m, x) for x in partners] + [(real, m)] * (real is not None):
            got = matrix_mul(a, b)
            assert got == _ref_matrix_mul(a, b) and _is_canonical(got), (a, b)
        for c in (_g(0, 2), _g(Fraction(-1, 2), 3), _g(Fraction(5, 4)), ONE, -ONE):
            other = _mixed_matrix(rng, m.rows, m.cols, True)
            want = Matrix(m.rows, m.cols, [[x + c * y for x, y in zip(p, q)] for p, q in zip(m.data, other.data)])
            got = _plus_scaled(m, c, other)
            assert got == want and _is_canonical(got)
            assert m.scale(c) == _ref_matrix_mul(Matrix.identity(m.rows).scale(c), m)
        want_rref = _ref_rref(m)
        assert rank(m) == len(want_rref[1]) and rref(m) == want_rref and _is_canonical(rref(m)[0]), m
        assert (kernel_basis(m), want_rref[1]) == _ref_kernel_and_pivots(m), m
        assert all(map(_is_canonical, kernel_basis(m))), m
        if not m.is_square():
            continue
        assert det(m) == _ref_gauss_jordan([list(r) for r in m.data], m.cols)[1], m
        assert power_ranks(m) == _ref_power_ranks(m), m
        assert matrix_pow(m, 3) == _ref_matrix_mul(m, _ref_matrix_mul(m, m)) and _is_canonical(matrix_pow(m, 3))
        want_inv = _ref_solve(m, Matrix.identity(m.rows))
        if want_inv is None:
            with pytest.raises(SingularMatrixError):
                inverse(m)
        else:
            assert inverse(m) == want_inv and _is_canonical(inverse(m)), m


def test_only_split_rows_carry_gaussian_scales():
    # _eliminate leaves a row as a list only with an int scale or none;
    # a Gaussian scale comes with a row split into its real and imaginary parts
    rng = random.Random(43)
    cases = _SPLIT_CASES + [_mixed_matrix(rng, n, n + 1, gaussian) for n in (2, 4, 6) for gaussian in (False, True)]
    split = 0
    for m in cases:
        red = _Reduction(*_ints(m), m.cols)
        for row, s in zip(red.rows, red.scales):
            if type(row) is list:
                assert s is None or type(s) is int, m
            else:
                split += 1
    assert split


def test_product_rows_match_the_entry_product():
    # _mul_rows and _mul_cols join the rows made on parts, for callers that read entries
    rng = random.Random(43)
    for m in _SPLIT_CASES[3:]:
        a = [[_g(x.real, x.imag) for x in row] for row in _ints(m).rows]  # integer rows, denominators dropped
        ints = Matrix.from_rows(a)
        for gaussian in (False, True):
            entries = [[_g(rng.randint(-4, 4), rng.randint(-4, 4) * gaussian) for _ in range(3)] for _ in range(m.cols)]
            b = Matrix.from_rows(entries)
            assert _ints(ints).dens == [1] * m.rows and _ints(b).dens == [1] * m.cols
            rows = _mul_rows(_ints(ints).rows, _ints(b).rows, 3)
            assert rows == _ints(_ref_matrix_mul(ints, b)).rows
            assert _mul_cols(_ints(ints).rows, _ints(b.transpose()).rows) == rows


def test_product_branches_under_every_factor_pairing():
    # a dense row (more than half nonzero), a sparse row and a zero row; width 0,
    # inner dimension 0 and a one-row product, each with a real or Gaussian factor
    # on either side
    left = Matrix.from_rows([[1, Fraction(-2, 3), 5, 0, 7], [0, 0, 4, 0, 0], [0, 0, 0, 0, 0], [0, 3, 0, -1, 0]])
    zeros = [row.count(0) for row in _ints(left).rows]
    assert zeros == [1, 4, 5, 3]  # dense, sparse, zero and sparse
    right = Matrix.from_rows([[1, 0, 2], [Fraction(1, 2), -1, 0], [0, 3, 1], [2, 2, Fraction(-5, 4)], [0, 0, 1]])
    shapes = [
        (left, right),
        (left, Matrix(5, 0, [[]] * 5)),  # width 0
        (Matrix(4, 0, [[]] * 4), Matrix(0, 3, [])),  # inner dimension 0
        (Matrix(1, 5, [left.data[0]]), right),  # one row, dense
        (Matrix(1, 5, [left.data[1]]), right),  # one row, sparse
        (right.transpose(), left.transpose()),  # dense and sparse rows in the other order
    ]
    for a, b in shapes:
        for a_gauss in (False, True):
            for b_gauss in (False, True):
                # a Gaussian multiple keeps the zero pattern in both parts
                x, y = a.scale(_g(2, -1)) if a_gauss else a, b.scale(_g(0, 3)) if b_gauss else b
                got = matrix_mul(x, y)
                assert (got.rows, got.cols) == (x.rows, y.cols)
                assert got == _ref_matrix_mul(x, y) and _is_canonical(got), (x, y)
    # rows whose imaginary parts cancel, under each pairing that can make them
    cancel = [
        (Matrix.from_rows([[_g(1, 1), _g(1, -1)], [_g(0, 1), 1]]), Matrix.from_rows([[1, 0], [1, 2]])),
        (Matrix.from_rows([[1, 1, 0]]), Matrix.from_rows([[_g(1, 1)], [_g(2, -1)], [_g(0, 5)]])),
        (Matrix.from_rows([[_g(0, 1), 1], [2, 0]]), Matrix.from_rows([[_g(0, 1), 0], [1, 3]])),
    ]
    for x, y in cancel:
        got = matrix_mul(x, y)
        assert got == _ref_matrix_mul(x, y) and _is_canonical(got)
        assert type(_ints(got).rows[0][0]) is int, got


def test_real_by_gaussian_products_use_no_entry_arithmetic(monkeypatch):
    # a real factor times a Gaussian one, either way round, runs on int parts
    # only: no _GaussInt product or sum is formed
    rng = random.Random(53)
    real = _mixed_matrix(rng, 6, 6, False)
    gaussian = Matrix.from_rows(
        [[_g(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(1, 5)) for _ in range(6)] for _ in range(6)]
    )
    calls = []

    def counted(name):
        original = getattr(_GaussInt, name)

        def method(self, other):
            calls.append(name)
            return original(self, other)

        return method

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(_GaussInt, name, counted(name))
    products = [matrix_mul(real, gaussian), matrix_mul(gaussian, real)]
    assert calls == []
    monkeypatch.undo()
    assert products == [_ref_matrix_mul(real, gaussian), _ref_matrix_mul(gaussian, real)]
    assert all(map(_is_canonical, products))


def test_split_kernels_give_int_entries_where_imaginary_parts_cancel():
    rng = random.Random(47)
    for n in (1, 2, 3, 4):
        r = random_invertible(n, rng)
        i_r = r.scale(_g(0, 1))  # every nonzero entry purely imaginary
        q = Matrix.from_rows([[_g(int(i == j), rng.randint(-2, 2) * (i < j)) for j in range(n)] for i in range(n)])
        q_bar = Matrix.from_rows([[_g(x.re, -x.im) for x in row] for row in q.data])
        b = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(2)] for _ in range(n)])
        results = [
            matrix_mul(q, inverse(q)),  # Gaussian x Gaussian, the identity
            matrix_mul(i_r, r.scale(_g(0, -1))),  # i R times -i R = R^2
            matrix_pow(i_r, 2),  # -R^2
            solve(i_r, b.scale(_g(0, 1))),  # R^-1 B
            rref(i_r)[0],  # the identity, through purely imaginary pivots
            _plus_scaled(q, -ONE, q_bar).scale(_g(0, Fraction(1, 2))),  # -(the imaginary part)
        ]
        results += kernel_basis(Matrix(n, n + 1, [list(row) + [x] for row, x in zip(i_r.data, i_r.column_entries(0))]))
        for m in results:
            assert all(type(x) is int for row in _ints(m).rows for x in row), m
            assert _is_canonical(m), m
        assert results[0] == Matrix.identity(n) and results[4] == Matrix.identity(n)
        assert results[1] == matrix_mul(r, r) and results[2] == -matrix_mul(r, r)
        assert results[3] == solve(r, b)
        assert type(_Reduction(*_ints(i_r), n).det_ints()[0]) is (int if n % 2 == 0 else _GaussInt)


def test_edits_through_data_reach_the_kernels():
    # data is read-only: an edit is a new Matrix built from rows read off it,
    # and the kernels see the edit there while the original and its copies keep theirs.
    for im in (0, 1):
        m = matrix_mul(Matrix.identity(3), Matrix.from_rows([[1, 2, 0], [0, 1, Scalar(0, im)], [0, 0, 1]]))
        before = _rebuilt(m)
        assert rank(m) == 3 and det(m) == ONE
        unread = [copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
        m_repr = repr(m)  # builds the Scalars next to the integer form
        read = [copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))]
        with pytest.raises(TypeError):
            m.data[2][2] = ZERO
        with pytest.raises(TypeError):
            m.data[2] = (ZERO, ZERO, ZERO)
        with pytest.raises(AttributeError):
            m.data = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ZERO))
        rows = [list(row) for row in m.data]
        rows[2][2] = ZERO
        rows[0][1] = Scalar(Fraction(1, 3))
        edited = Matrix(3, 3, rows)
        assert rank(edited) == 2 and det(edited) == ZERO
        assert matrix_mul(edited, edited).data == _ref_matrix_mul(edited, edited).data
        assert edited != m and m != edited
        assert m == before and rank(m) == 3 and det(m) == ONE and repr(m) == m_repr
        for c in unread + read:  # a copy shares nothing with m and keeps its form
            assert c == before and before == c, (im, c)
            assert c.data == m.data and repr(c) == m_repr and det(c) == ONE, (im, c)
        built = Matrix(3, 3, edited.data)
        for c in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
            assert c == edited and edited == c and c.data == edited.data and repr(c) == repr(edited)
            assert rank(c) == 2 and det(c) == ZERO


def test_reading_data_keeps_the_integer_form_until_an_edit():
    m = matrix_mul(jordan_cell(3), Matrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]]))
    form = _ints(m)
    assert m.data == Matrix.from_rows([[0, 1, 3], [4, 0, 1], [0, 0, 0]]).data
    assert _ints(m) is form  # read but not edited: the kernels read the form they made
    with pytest.raises(TypeError):
        m.data[0][0] = Scalar(5)
    assert m.data[0][0] == ZERO and _ints(m) is form  # a refused edit leaves entries and form
    rows = [list(row) for row in m.data]
    rows[0][0] = Scalar(5)
    edited = Matrix(3, 3, rows)
    assert _ints(edited) != form and _ints(m) is form
    assert edited == Matrix.from_rows([[5, 1, 3], [4, 0, 1], [0, 0, 0]]) and rank(edited) == 2
    assert not m.is_zero() and Matrix.zeros(2, 3).is_zero() and Matrix.zeros(0, 0).is_zero()

import random
from fractions import Fraction

import pytest

from nilpath.errors import NotInKernelError, NotNilpotentError, OutsideNeighborhoodError
from nilpath.matrix import (
    Matrix,
    _canonical,
    _made,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_mul,
    matrix_pow,
    pivot_columns,
    rank,
    random_invertible,
    rref,
    solve,
    unvec,
    vec,
)
from nilpath.paths import basic_family, lift_family
from nilpath.scalar import ZERO, Scalar
from nilpath.sections import (
    ConjugationSection,
    ad_operator,
    conjugation_section,
    section_eval,
    section_setup,
)


def test_section_anchor_recovered():
    u = Matrix.from_rows([[1, 0], [0, 0]])
    x0 = Matrix.column([Scalar(0), Scalar(1)])
    sd = section_setup(u, x0)
    assert sd.rank == 1
    assert section_eval(sd, u) == x0


def test_section_closed_form_on_rank_one_2x2():
    u = Matrix.from_rows([[1, 0], [0, 0]])
    x0 = Matrix.column([Scalar(0), Scalar(1)])
    sd = section_setup(u, x0)
    # v = [[a, c], [b, d]] of rank 1 with a != 0 gives f(v) = (-c/a, 1)
    for a, b, c in ((2, 4, 3), (1, 0, 5), (-3, 6, 1)):
        d = Fraction(b) * Fraction(c) / Fraction(a)
        v = Matrix.from_rows([[a, c], [b, d]])
        assert rank(v) == 1
        f = section_eval(sd, v)
        assert f.column_entries() == [Scalar(-Fraction(c) / Fraction(a)), Scalar(1)]
        assert matrix_mul(v, f).is_zero()


def test_section_rejects_bad_anchor():
    u = Matrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(NotInKernelError):
        section_setup(u, Matrix.column([Scalar(1), Scalar(0)]))  # not in kernel
    with pytest.raises(NotInKernelError):
        section_setup(u, Matrix.column([Scalar(0), Scalar(0)]))  # zero vector


def test_section_outside_neighborhood():
    u = Matrix.from_rows([[1, 0], [0, 0]])
    x0 = Matrix.column([Scalar(0), Scalar(1)])
    sd = section_setup(u, x0)
    v = Matrix.from_rows([[0, 1], [1, 0]])  # leading block vanishes
    with pytest.raises(OutsideNeighborhoodError):
        section_eval(sd, v)


def test_section_annihilation_on_random_rank_preserving_perturbations():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        u = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        kernel_dim = n - rank(u)
        if kernel_dim == 0:
            continue
        from nilpath.matrix import kernel_basis

        x0 = kernel_basis(u)[0]
        sd = section_setup(u, x0)
        left = random_invertible(n, rng, -1, 1)
        right = random_invertible(n, rng, -1, 1)
        eps = Fraction(1, rng.randint(50, 200))
        pert_l = Matrix.identity(n) + left.scale(Scalar(eps))
        pert_r = Matrix.identity(n) + right.scale(Scalar(eps))
        v = matrix_mul(pert_l, matrix_mul(u, pert_r))
        assert rank(v) == sd.rank
        try:
            f = section_eval(sd, v)
        except OutsideNeighborhoodError:
            continue
        assert matrix_mul(v, f).is_zero()


def test_ad_operator_matches_definition():
    rng = random.Random(5)
    n = 3
    b = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    a0 = Matrix.from_rows([[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    op = ad_operator(b, a0)
    from nilpath.matrix import unvec, vec

    for _ in range(5):
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        )
        expected = matrix_mul(b, m) - matrix_mul(m, a0)
        assert unvec(matrix_mul(op, vec(m)), n) == expected


def _ad_operator_by_scalars(b, a0):
    """ad_operator as a grid of Scalars, entry by entry: the oracle for
    the integer construction."""
    n = b.rows
    big = n * n
    rows = []
    for c1 in range(n):
        for r1 in range(n):
            row = [ZERO] * big
            for r2 in range(n):
                row[c1 * n + r2] = row[c1 * n + r2] + b.data[r1][r2]
            for c2 in range(n):
                row[c2 * n + r1] = row[c2 * n + r1] - a0.data[c2][c1]
            rows.append(row)
    return Matrix(big, big, rows)


def test_ad_operator_matches_scalar_grid():
    rng = random.Random(41)

    def entry(gaussian):
        re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5)))
        return Scalar(re, Fraction(rng.randint(-2, 2), rng.choice((1, 3)))) if gaussian else Scalar(re)

    seen_gaussian = False
    for n in range(5):
        for gaussian in (False, True):
            b = Matrix(n, n, [[entry(gaussian) for _ in range(n)] for _ in range(n)])
            a0 = Matrix(n, n, [[entry(gaussian) for _ in range(n)] for _ in range(n)])
            assert b != a0 or n == 0
            seen_gaussian |= any(e.im for row in b.data for e in row)
            for left, right in ((b, a0), (a0, b), (b, b)):
                assert ad_operator(left, right) == _ad_operator_by_scalars(left, right), (n, gaussian)
    assert seen_gaussian


def test_conjugation_section_base_point():
    for a0 in (jordan_cell(2), direct_sum([jordan_cell(2), jordan_cell(1)]), Matrix.zeros(2, 2)):
        cs = conjugation_section(a0)
        assert cs.conjugator_at(a0) == Matrix.identity(a0.rows)


def test_conjugation_section_nearby_conjugates():
    rng = random.Random(31)
    a0 = direct_sum([jordan_cell(2), jordan_cell(2)])
    cs = conjugation_section(a0)
    for _ in range(10):
        e = Matrix.from_rows(
            [[Fraction(rng.randint(-1, 1), 9) for _ in range(4)] for _ in range(4)]
        )
        r = Matrix.identity(4) + e
        from nilpath.matrix import det

        if det(r).is_zero():
            continue
        b = matrix_mul(r, matrix_mul(a0, inverse(r)))
        g = cs.conjugator_at(b)
        assert matrix_mul(b, g) == matrix_mul(g, a0)
        assert not det(g).is_zero()


def test_conjugation_section_rank_violation():
    a0 = jordan_cell(2)
    cs = conjugation_section(a0)
    with pytest.raises(OutsideNeighborhoodError):
        cs.conjugator_at(Matrix.identity(2))  # displacement operator has full rank


def test_conjugation_section_singular_conjugator():
    a0 = jordan_cell(2)
    cs = conjugation_section(a0)
    # the zero matrix keeps the displacement rank but forces g J2 = 0
    with pytest.raises(OutsideNeighborhoodError):
        cs.conjugator_at(Matrix.zeros(2, 2))


# Every lift window (k, l, p) that the benchmark catalogs' chains use.
CATALOG_WINDOWS = (
    (0, 2, 2), (0, 2, 3), (0, 3, 3), (1, 3, 3), (2, 4, 2), (3, 5, 3), (3, 6, 3), (4, 6, 2),
)


def _window_base(k, l, p):
    return matrix_pow(basic_family(k, l, 0), p)


def _scrambled_nilpotent(rng, n):
    parts = []
    while sum(parts) < n:
        parts.append(rng.randint(1, n - sum(parts)))
    r = random_invertible(n, rng, -1, 1)
    return matrix_mul(r, matrix_mul(direct_sum([jordan_cell(k) for k in parts]), inverse(r)))


def _reference_conjugator(cs, b):
    """The section conjugator through the n^2 x n^2 operator and its rank."""
    op = ad_operator(b, cs.base)
    if rank(op) != cs.rank:
        raise OutsideNeighborhoodError("displacement rank differs from base point")
    g = unvec(section_eval(cs.section, op), b.rows)
    if det(g).is_zero():
        raise OutsideNeighborhoodError("section conjugator is singular")
    return g


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OutsideNeighborhoodError:
        return "outside"


def test_displacement_rank_matches_ad_operator_rank():
    rng = random.Random(101)
    for k, l, p in CATALOG_WINDOWS:
        a0 = _window_base(k, l, p)
        n = a0.rows
        cs = conjugation_section(a0)
        r = random_invertible(n, rng, -1, 1)
        t = Fraction(rng.randint(1, 4), 4)
        pulled_back = matrix_mul(inverse(r), matrix_mul(matrix_pow(basic_family(k, l, t), p), r))
        for b in (a0, pulled_back, _scrambled_nilpotent(rng, n), Matrix.identity(n)):
            assert cs.displacement_rank(b) == rank(ad_operator(b, a0)), (k, l, p)


def test_conjugator_at_matches_operator_section():
    seen = set()
    for k, l, p in ((2, 4, 2), (0, 3, 3), (1, 3, 3)):
        lift = lift_family(k, l, p)
        cs = lift.section
        n = k + l
        probes = [Matrix.identity(n), matrix_pow(basic_family(k, l, 1), p)]
        for iv in lift.intervals:
            for t in (iv.left, (iv.left + iv.right) / 2, iv.right):
                u_p = matrix_pow(basic_family(k, l, t), p)
                probes.append(matrix_mul(iv.anchor_inv, matrix_mul(u_p, iv.anchor)))
        for b in probes:
            got = _outcome(cs.conjugator_at, b)
            assert got == _outcome(_reference_conjugator, cs, b), (k, l, p)
            seen.add(got == "outside")
    assert seen == {True, False}  # both outcomes were exercised


def test_front_is_rref_pivots_of_operator():
    # the complement vectors are rref(u)'s pivot columns, which is also the
    # greedy completion of [x0 | ker u] by e_0 ... e_(N-1) used before
    for k, l, p in CATALOG_WINDOWS:
        a0 = _window_base(k, l, p)
        u = ad_operator(a0, a0)
        x0 = vec(Matrix.identity(a0.rows))
        front = section_setup(u, x0).front
        assert list(front) == rref(u)[1], (k, l, p)
        kernel = [v.column_entries() for v in kernel_basis(u)]
        skip = 1 + len(kernel)
        greedy = pivot_columns(u.rows, [x0.column_entries()] + kernel + list(Matrix.identity(u.rows).data))
        assert list(front) == [c - skip for c in greedy if c >= skip], (k, l, p)
        assert conjugation_section(a0).section.front == front


def _dense_setup(a0):
    """section_setup on the formed n^2 x n^2 operator ad(A0, A0): the
    oracle for conjugation_section's block-wise set-up."""
    return section_setup(ad_operator(a0, a0), vec(Matrix.identity(a0.rows)))


def test_conjugation_section_blocks_match_dense_setup():
    bases = [_window_base(k, l, p) for p in range(2, 6) for l in range(1, 13) for k in range(min(l, 13 - l))]
    assert len(bases) == 4 * 42
    # a dense scrambled nilpotent: ad(A0, A0) is one block
    rng = random.Random(61)
    r = Matrix.from_rows([[rng.choice((-2, -1, 1, 2)) for _ in range(5)] for _ in range(5)])
    dense = matrix_mul(r, matrix_mul(direct_sum([jordan_cell(3), jordan_cell(2)]), inverse(r)))
    assert all(not e.is_zero() for row in dense.data for e in row)
    # Gaussian bases, the last one scrambled by a unit lower triangular matrix
    lower = Matrix.from_rows(
        [[1 if i == j else Scalar(rng.randint(-1, 1), rng.randint(-1, 1)) if i > j else 0 for j in range(6)]
         for i in range(6)]
    )
    gaussian = [_structured_bases()["gaussian"], _conjugate(R_COMPLEX, jordan_cell(3))]
    gaussian.append(_conjugate(lower, direct_sum([jordan_cell(3), jordan_cell(2), jordan_cell(1)])))
    assert all(any(e.im for row in a0.data for e in row) for a0 in gaussian)
    for a0 in bases + [dense] + gaussian:
        sd, oracle = conjugation_section(a0).section, _dense_setup(a0)
        assert (sd.front, sd.rows, sd.rank) == (oracle.front, oracle.rows, oracle.rank), a0
    for setup in (conjugation_section, _dense_setup):
        with pytest.raises(NotInKernelError, match="anchor vector is zero"):
            setup(Matrix.zeros(0, 0))


def test_conjugation_section_rejects_non_nilpotent_base():
    for a0 in (Matrix.identity(2), direct_sum([jordan_cell(2), Matrix.identity(1)])):
        with pytest.raises(NotNilpotentError):
            conjugation_section(a0)


def _block(cs, b):
    """``[A | c]`` at B as a matrix, read off ``block_rows``."""
    rows, den = cs.block_rows(b)
    return _made(cs.rank, cs.rank + 1, _canonical(rows, [den] * cs.rank))


def _evaluate(cs, b):
    """The leading block at B, its determinant and g(B): ``conjugator_at``,
    which raises with its reason where the section is invalid, and the
    block read off ``block_rows``."""
    g = cs.conjugator_at(b)
    block = Matrix(cs.rank, cs.rank, [row[: cs.rank] for row in _block(cs, b).data])
    return block, det(block), g


def test_block_rows_are_affine_and_solve_to_the_conjugator():
    third = Scalar(Fraction(1, 3))
    for k, l, p in CATALOG_WINDOWS:
        a0 = _window_base(k, l, p)
        n = a0.rows
        cs = conjugation_section(a0)
        rows = [list(row) for row in Matrix.identity(n).data]
        rows[0][n - 1] = Scalar(Fraction(1, 3), 1)
        r = Matrix(n, n, rows)
        probes = [a0]
        for t in (Fraction(1, 8), Fraction(1, 4)):
            u_p = matrix_pow(basic_family(k, l, t), p)
            probes += [u_p, matrix_mul(inverse(r), matrix_mul(u_p, r))]
        for b0, b1 in zip(probes, probes[1:]):
            start, end = _block(cs, b0), _block(cs, b1)
            assert _block(cs, b0 + (b1 - b0).scale(third)) == start + (end - start).scale(third), (k, l, p)
        nontrivial = 0
        for b in probes:
            try:
                g = cs.conjugator_at(b)
            except OutsideNeighborhoodError:
                continue
            # g = I - sum_k y_k E_front[k], with A y = c
            block = _block(cs, b)
            leading = Matrix(cs.rank, cs.rank, [row[: cs.rank] for row in block.data])
            y = solve(leading, Matrix(cs.rank, 1, [row[cs.rank :] for row in block.data]))
            expected = [list(row) for row in Matrix.identity(n).data]
            for idx, e in zip(cs.section.front, y.column_entries()):
                expected[idx % n][idx // n] = expected[idx % n][idx // n] - e
            assert g == Matrix(n, n, expected), (k, l, p)
            nontrivial += leading != Matrix.identity(cs.rank)
        assert nontrivial > 0 or cs.rank == 0, (k, l, p)
        with pytest.raises(ValueError):
            cs.block_rows(Matrix.identity(n + 1))


def _codomain_inverse_top(sd, u):
    """The first rank rows of the inverse of the codomain basis that
    section_setup built around u before it chose ``rows``: the images of
    the complement vectors, completed greedily by e_0, e_1, ..."""
    rho, big = sd.rank, sd.dimension
    images = [u.column_entries(k) for k in sd.front]
    standard = list(Matrix.identity(big).data)
    chosen = pivot_columns(big, images + standard)
    assert chosen[:rho] == list(range(rho))
    basis = images + [standard[c - rho] for c in chosen[rho:]]
    return Matrix(rho, big, inverse(Matrix(big, big, [list(r) for r in zip(*basis)])).data[:rho])


def _reference_section_eval(sd, top, v):
    """section_eval as it was written with the codomain inverse: the images
    of the complement vectors and of x0, times its top rows."""
    rho = sd.rank
    images = [v.column_entries(k) for k in sd.front] + [matrix_mul(v, sd.anchor).column_entries()]
    head = matrix_mul(top, Matrix(sd.dimension, rho + 1, [list(r) for r in zip(*images)]))
    block = Matrix(rho, rho, [row[:rho] for row in head.data])
    if det(block).is_zero():
        raise OutsideNeighborhoodError("leading block singular at this operator")
    correction = solve(block, Matrix(rho, 1, [row[rho:] for row in head.data]))
    x = sd.anchor.column_entries()
    for k, e in zip(sd.front, correction.column_entries()):
        x[k] = x[k] - e
    return Matrix.column(x)


def _elementwise_evaluate(cs, b, top=None):
    """The section's leading block at B, its determinant and g(B), as they
    were computed before the section read [A | c] off B in integers: the
    operator's images of the complement vectors and of vec(I) as columns of
    Scalars, times the top rows of the codomain inverse (``top``, computed
    when not given)."""
    if top is None:
        top = _codomain_inverse_top(cs.section, ad_operator(cs.base, cs.base))
    n = cs.base.rows
    if cs.displacement_rank(b) != cs.rank:
        raise OutsideNeighborhoodError("displacement rank differs from base point")
    b_cols = b.transpose().data
    images = []
    for idx in cs.section.front:
        i, j = idx % n, idx // n
        out = [Scalar(0)] * (n * n)
        out[j * n : (j + 1) * n] = b_cols[i]
        for c, e in enumerate(cs.base.data[j]):
            if not e.is_zero():
                out[c * n + i] = out[c * n + i] - e
        images.append(out)
    images.append(vec(b - cs.base).column_entries())
    rho = cs.rank
    columns = Matrix(n * n, rho + 1, [list(r) for r in zip(*images)])
    head = matrix_mul(top, columns)
    block = Matrix(rho, rho, [row[:rho] for row in head.data])
    block_det = det(block)
    if block_det.is_zero():
        raise OutsideNeighborhoodError("leading block singular at this operator")
    correction = solve(block, Matrix(rho, 1, [row[rho:] for row in head.data]))
    x = vec(Matrix.identity(n)).column_entries()
    for i, e in zip(cs.section.front, correction.column_entries()):
        x[i] = x[i] - e
    g = unvec(Matrix.column(x), n)
    if det(g).is_zero():
        raise OutsideNeighborhoodError("section conjugator is singular")
    assert matrix_mul(b, g) == matrix_mul(g, cs.base)
    return block, block_det, g


def _outcome_with_reason(fn, *args):
    try:
        return fn(*args)
    except OutsideNeighborhoodError as exc:
        return str(exc)


def _conjugate(r, m):
    return matrix_mul(r, matrix_mul(m, inverse(r)))


def _corner(n, e):
    # e at (n-1, 0): on the unscrambled 3x3 bases below, a B with the base's
    # displacement rank whose leading block is singular
    rows = [[ZERO] * n for _ in range(n)]
    rows[n - 1][0] = e
    return Matrix(n, n, rows)


HALF, I_UNIT = Scalar(Fraction(1, 2)), Scalar(0, 1)
R_COMPLEX = Matrix.from_rows([[1, Scalar(Fraction(1, 3), 1), 0], [0, 1, 0], [Scalar(0, -1), 0, 1]])


def _structured_bases():
    return {
        "one": Matrix.zeros(1, 1),
        "real": direct_sum([jordan_cell(2), jordan_cell(1)]),
        "rational": Matrix.from_rows([[0, HALF, 0], [0, 0, 0], [0, 0, 0]]),
        "gaussian": Matrix.from_rows([[0, I_UNIT, 0], [0, 0, 0], [0, 0, 0]]),
        "scrambled rational": _conjugate(
            Matrix.from_rows([[1, Fraction(2, 3), 0], [0, 1, 0], [Fraction(-1, 5), 0, 1]]),
            direct_sum([jordan_cell(2), jordan_cell(1)]),
        ),
        "scrambled gaussian": _conjugate(R_COMPLEX, jordan_cell(3)),
    }


def _structured_probes(rng, a0):
    n = a0.rows
    probes = [a0, Matrix.identity(n), Matrix.zeros(n, n), _corner(n, Scalar(1)), _corner(n, I_UNIT)]
    probes += [_conjugate(r, a0) for r in (random_invertible(n, rng, -1, 1), R_COMPLEX) if r.rows == n]
    probes += [_conjugate(Matrix.identity(n) + _corner(n, e), a0) for e in (HALF, I_UNIT)]
    return probes


def _assert_matches_elementwise(cs, got, reference):
    """The same reason or g(B); the block and its determinant scaled by the
    operator's invertible block at ``rows``."""
    if isinstance(got, str) or isinstance(reference, str):
        assert got == reference
        return
    sd = cs.section
    u = ad_operator(cs.base, cs.base)
    u_block = Matrix(sd.rank, sd.rank, [[u.data[r][k] for k in sd.front] for r in sd.rows])
    assert got[0] == matrix_mul(u_block, reference[0])
    assert got[1] == det(u_block) * reference[1] == det(got[0])
    assert got[2] == reference[2]


def test_structured_evaluate_matches_elementwise_and_operator_sections():
    rng = random.Random(808)
    reasons = set()
    for name, a0 in _structured_bases().items():
        cs = conjugation_section(a0)
        for b in _structured_probes(rng, a0):
            got = _outcome_with_reason(_evaluate, cs, b)
            _assert_matches_elementwise(cs, got, _outcome_with_reason(_elementwise_evaluate, cs, b))
            reference = _outcome(_reference_conjugator, cs, b)
            if isinstance(got, str):
                reasons.add(got)
                assert reference == "outside" or got == "leading block singular at this operator"
            else:
                assert got[2] == reference, (name, b)
    assert reasons == {
        "displacement rank differs from base point",
        "leading block singular at this operator",
        "section conjugator is singular",
    }


def _support(top):
    return tuple(c for c in range(top.cols) if any(not row[c].is_zero() for row in top.data))


def _check_against_codomain_inverse(cs, probes):
    """rows is the support of the old codomain inverse's top rows, and
    block_rows, conjugator_at and section_eval agree with what it gave."""
    sd = cs.section
    top = _codomain_inverse_top(sd, ad_operator(cs.base, cs.base))
    assert sd.rows == _support(top)
    outcomes = set()
    for b in probes:
        got = _outcome_with_reason(_evaluate, cs, b)
        reference = _outcome_with_reason(_elementwise_evaluate, cs, b, top)
        _assert_matches_elementwise(cs, got, reference)
        expected_g = reference if isinstance(reference, str) else reference[2]
        assert _outcome_with_reason(cs.conjugator_at, b) == expected_g
        op = ad_operator(b, cs.base)
        assert _outcome(section_eval, sd, op) == _outcome(_reference_section_eval, sd, top, op)
        outcomes.add(isinstance(got, str))
    return outcomes


def test_rows_are_the_support_of_the_codomain_inverse():
    rng = random.Random(2203)
    outcomes = set()
    for k, l, p in CATALOG_WINDOWS:
        a0 = _window_base(k, l, p)
        r = random_invertible(a0.rows, rng, -1, 1)
        probes = [a0, Matrix.identity(a0.rows)]
        for t in (Fraction(1, 8), Fraction(1, 2)):
            u_p = matrix_pow(basic_family(k, l, t), p)
            probes += [u_p, matrix_mul(inverse(r), matrix_mul(u_p, r))]
        outcomes |= _check_against_codomain_inverse(conjugation_section(a0), probes)
    for a0 in _structured_bases().values():
        outcomes |= _check_against_codomain_inverse(conjugation_section(a0), _structured_probes(rng, a0))
    assert outcomes == {True, False}

    # random operators and rank-preserving perturbations, as in criterion 9
    sections = accepted = 0
    while sections < 40:
        n = rng.randint(2, 6)
        u = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        kernel = kernel_basis(u)
        if not kernel:
            continue
        sections += 1
        sd = section_setup(u, kernel[0])
        top = _codomain_inverse_top(sd, u)
        assert sd.rows == _support(top)
        denom = rng.randint(50, 300)
        pert_l, pert_r = (
            Matrix.identity(n) + random_invertible(n, rng, -1, 1).scale(Scalar(Fraction(1, denom)))
            for _ in range(2)
        )
        v = matrix_mul(pert_l, matrix_mul(u, pert_r))
        assert section_eval(sd, u) == _reference_section_eval(sd, top, u) == sd.anchor
        for w in (v, Matrix.identity(n)):
            got = _outcome(section_eval, sd, w)
            assert got == _outcome(_reference_section_eval, sd, top, w)
        accepted += _outcome(section_eval, sd, v) != "outside"
    assert accepted >= 30


def test_empty_base_has_no_section():
    # the anchor vec(I) of a 0x0 base is the empty, hence zero, vector
    with pytest.raises(NotInKernelError):
        conjugation_section(Matrix.zeros(0, 0))


def test_conjugation_section_constructor_derives_its_terms():
    """The public three-field constructor works and reads its block and
    conjugator as conjugation_section's, real and complex."""
    rng = random.Random(5)
    i = Scalar(0, 1)
    cases = (
        (direct_sum([jordan_cell(2), jordan_cell(1)]), False),
        (Matrix.from_rows([[0, i, 0], [0, 0, 1], [0, 0, 0]]), True),
    )
    for a0, gaussian in cases:
        assert any(e.im for row in a0.data for e in row) == gaussian
        cs = conjugation_section(a0)
        built = ConjugationSection(cs.base, cs.section, cs.base_ranks)
        assert built == cs
        for _ in range(4):
            e = Matrix.from_rows(
                [[Fraction(rng.randint(-1, 1), 9) for _ in range(3)] for _ in range(3)]
            )
            r = Matrix.identity(3) + e
            if det(r).is_zero():
                continue
            b = matrix_mul(r, matrix_mul(a0, inverse(r)))
            g = built.conjugator_at(b)
            assert built.block_rows(b) == cs.block_rows(b)
            assert g == cs.conjugator_at(b)
            assert matrix_mul(b, g) == matrix_mul(g, a0)

import random
from fractions import Fraction

import pytest

from nilpath.errors import NotInKernelError, NotNilpotentError, OutsideNeighborhoodError
from nilpath.matrix import (
    Matrix,
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
    unvec,
    vec,
)
from nilpath.paths import basic_family, lift_family
from nilpath.scalar import Scalar
from nilpath.sections import (
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
        greedy = pivot_columns(u.rows, [x0.column_entries()] + kernel + Matrix.identity(u.rows).data)
        assert list(front) == [c - skip for c in greedy if c >= skip], (k, l, p)
        assert conjugation_section(a0).section.front == front


def test_conjugation_section_rejects_non_nilpotent_base():
    for a0 in (Matrix.identity(2), direct_sum([jordan_cell(2), Matrix.identity(1)])):
        with pytest.raises(NotNilpotentError):
            conjugation_section(a0)


def test_evaluate_returns_leading_block_determinant():
    for k, l, p in CATALOG_WINDOWS:
        a0 = _window_base(k, l, p)
        n = a0.rows
        cs = conjugation_section(a0)
        r = Matrix.identity(n)
        r.data[0][n - 1] = Scalar(Fraction(1, 3), 1)
        probes = [a0]
        for t in (Fraction(1, 8), Fraction(1, 4)):
            u_p = matrix_pow(basic_family(k, l, t), p)
            probes += [u_p, matrix_mul(inverse(r), matrix_mul(u_p, r))]
        nontrivial = 0
        for b in probes:
            try:
                block, block_det, g = cs.evaluate(b)
            except OutsideNeighborhoodError:
                continue
            assert block_det == det(block), (k, l, p)
            assert g == cs.conjugator_at(b)
            nontrivial += block != Matrix.identity(cs.rank)
        assert nontrivial > 0 or cs.rank == 0, (k, l, p)

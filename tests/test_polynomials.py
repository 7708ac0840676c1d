import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from nilpath.errors import DuplicateSampleError, ZeroPolynomialError
from nilpath.matrix import Matrix, _ints, det, matrix_mul
from nilpath.paths import BlendFactor
from nilpath.polynomials import (
    RatPoly,
    _ip_deflate_root,
    _ip_derivative,
    _ip_gcd,
    _ip_prem_neg,
    _ip_primitive,
    _ip_sign_at,
    _newton_poly,
    certify_nonvanishing_segment,
    poly_interpolate_entries,
    poly_matrix_det,
    sturm_root_count,
)
from nilpath.scalar import ONE, ZERO, Scalar


def rp(*coeffs):
    return RatPoly([Scalar(Fraction(c)) for c in coeffs])


def linear_factor_product(roots):
    poly = rp(1)
    for r in roots:
        poly = poly * RatPoly([Scalar(-Fraction(r)), Scalar(1)])
    return poly


def test_sturm_examples():
    assert sturm_root_count(rp(-2, 0, 1), Fraction(0), Fraction(2)) == 1  # x^2-2
    assert sturm_root_count(rp(1, 0, 1), Fraction(-10), Fraction(10)) == 0  # x^2+1
    assert sturm_root_count(rp(0, -1, 1), Fraction(1, 4), Fraction(3, 4)) == 0  # x(x-1)


def test_sturm_endpoint_roots_are_excluded():
    f = rp(0, -1, 1)  # roots at 0 and 1
    assert sturm_root_count(f, Fraction(0), Fraction(1)) == 0
    assert sturm_root_count(f, Fraction(-1), Fraction(2)) == 2


def test_sturm_counts_distinct_roots_of_non_squarefree():
    f = rp(0, 0, 1) * rp(-1, 1)  # x^2 (x-1)
    assert sturm_root_count(f, Fraction(-1, 2), Fraction(2)) == 2


def test_sturm_against_linear_factor_oracle():
    rng = random.Random(77)
    for _ in range(40):
        k = rng.randint(1, 5)
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        f = linear_factor_product(roots)
        lo = Fraction(rng.randint(-9, 0), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 12), rng.randint(1, 3))
        expected = len({r for r in roots if lo < r < hi})
        assert sturm_root_count(f, lo, hi) == expected, (roots, lo, hi)


def test_sturm_with_high_multiplicities():
    rng = random.Random(123)
    for _ in range(25):
        base = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        roots = []
        for r in base:
            roots.extend([r] * rng.randint(1, 4))
        f = linear_factor_product(roots)
        lo, hi = Fraction(-5), Fraction(5)
        while any(r == lo for r in base):
            lo -= 1
        while any(r == hi for r in base):
            hi += 1
        expected = len({r for r in base if lo < r < hi})
        assert sturm_root_count(f, lo, hi) == expected, (roots, lo, hi)


def squarefree_sturm_count(f, lo, hi):
    """Distinct roots of f in (lo, hi), counted on the square-free part:
    deflate the endpoint roots, divide by gcd(f, f') and build the Sturm
    chain of the quotient."""
    f = list(f.nums)
    while _ip_sign_at(f, lo) == 0:
        f = _ip_deflate_root(f, lo)
    while _ip_sign_at(f, hi) == 0:
        f = _ip_deflate_root(f, hi)
    g = _ip_gcd(f, _ip_derivative(f))
    rem, quo = [Fraction(c) for c in f], [Fraction(0)] * (len(f) - len(g) + 1)
    for i in reversed(range(len(quo))):  # f / g by long division
        quo[i] = rem[i + len(g) - 1] / g[-1]
        for j, c in enumerate(g):
            rem[i + j] -= quo[i] * c
    assert not any(rem)
    scale = lcm(*(q.denominator for q in quo))
    f = [int(q * scale) for q in quo]
    if len(f) == 1:
        return 0
    chain = [f, _ip_derivative(f)]
    while nxt := _ip_primitive(_ip_prem_neg(chain[-2], chain[-1])):
        chain.append(nxt)

    def variations(x):
        signs = [s for s in (_ip_sign_at(p, x) for p in chain) if s]
        return sum(a * b < 0 for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def test_sturm_matches_squarefree_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        lo = Fraction(rng.randint(-6, 2), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 8), rng.randint(1, 3))
        f = rp(rng.randint(1, 3))
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:  # a linear factor, its root inside, outside or at an end
                inside = lo + (hi - lo) * Fraction(rng.randint(1, 5), 6)
                outside = rng.choice([lo, hi]) + rng.choice([-1, 1]) * Fraction(rng.randint(1, 9), 4)
                root = rng.choice([lo, hi, inside, outside])
                factor = RatPoly([Scalar(-root), ONE])
            else:  # an irreducible quadratic x^2 + bx + c
                b, c = rng.randint(-4, 4), rng.randint(-6, 6)
                while (d := b * b - 4 * c) >= 0 and isqrt(d) ** 2 == d:
                    c += 1
                factor = rp(c, b, 1)
            for _ in range(rng.randint(1, 4)):
                f = f * factor
        assert sturm_root_count(f, lo, hi) == squarefree_sturm_count(f, lo, hi), (f, lo, hi)


def test_sturm_rejects_zero_poly_and_bad_interval():
    with pytest.raises(ZeroPolynomialError):
        sturm_root_count(RatPoly(()), Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        sturm_root_count(rp(1, 1), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        sturm_root_count(RatPoly([Scalar(0, 1), Scalar(1)]), Fraction(0), Fraction(1))


def test_certify_examples():
    z = RatPoly([Scalar(0), Scalar(1)])
    assert certify_nonvanishing_segment(z, Scalar(1), Scalar(1, 1))
    z_half = RatPoly([Scalar(Fraction(-1, 2)), Scalar(1)])
    assert not certify_nonvanishing_segment(z_half, Scalar(0), Scalar(1))
    z2p1 = rp(1, 0, 1)
    assert certify_nonvanishing_segment(z2p1, Scalar(-1), Scalar(1))


def test_certify_endpoint_root_fails():
    z = RatPoly([Scalar(0), Scalar(1)])
    assert not certify_nonvanishing_segment(z, Scalar(0), Scalar(1))


def test_certify_complex_root_on_segment():
    # root at i/2 sits on the segment from 0 to i
    f = RatPoly([Scalar(0, Fraction(-1, 2)), Scalar(1)])
    assert not certify_nonvanishing_segment(f, Scalar(0), Scalar(0, 1))
    # but not on the segment from 1 to 1+i
    assert certify_nonvanishing_segment(f, Scalar(1), Scalar(1, 1))


def test_certify_sampled_soundness():
    polys = [
        rp(1, -3, 1, 2),
        RatPoly([Scalar(1, 1), Scalar(Fraction(1, 3), Fraction(-1, 2)), Scalar(2)]),
        rp(5),
    ]
    seg = (Scalar(Fraction(-1, 3), Fraction(1, 7)), Scalar(2, Fraction(-1, 5)))
    for f in polys:
        if not certify_nonvanishing_segment(f, *seg):
            continue
        z0, z1 = seg
        d = z1 - z0
        for i in range(0, 1001):
            s = Scalar(Fraction(i, 1000))
            assert not f.eval(z0 + d * s).is_zero()


def test_poly_arithmetic_identity():
    f = rp(2, 0, 1)  # x^2 + 2 = (x - 1)(x + 1) + 3
    g = rp(1, 1)
    q, r = rp(-1, 1), rp(3)
    assert q * g + r == f
    assert f - r == g * q
    assert (f - q * g).degree() < g.degree()
    assert -f + f == RatPoly(()) and (f - f).is_zero()


def test_compose_affine():
    f = rp(0, 0, 1)  # x^2
    comp = f.compose_affine(Scalar(1), Scalar(2))  # (1+2s)^2
    assert comp == rp(1, 4, 4)


def test_interpolation_constant():
    m = Matrix.from_rows([[Fraction(3, 7)]])
    polys = poly_interpolate_entries([(Fraction(0), m), (Fraction(1), m)], 1)
    assert polys[0][0].degree() <= 0
    assert polys[0][0].eval(Scalar(Fraction(1, 2))) == Scalar(Fraction(3, 7))


def test_interpolation_linear_entries_recheck_at_third_point():
    def u(t):
        return Matrix.from_rows([[Fraction(1) - t, t], [t, Fraction(2) * t]])

    samples = [(Fraction(0), u(Fraction(0))), (Fraction(1), u(Fraction(1)))]
    polys = poly_interpolate_entries(samples, 1)
    t = Fraction(3, 5)
    probe = u(t)
    for i in range(2):
        for j in range(2):
            assert polys[i][j].eval(Scalar(t)) == probe.data[i][j]


def test_interpolation_errors():
    m = Matrix.identity(1)
    with pytest.raises(ValueError):
        poly_interpolate_entries([(Fraction(0), m)], 1)  # arity mismatch
    with pytest.raises(DuplicateSampleError):
        poly_interpolate_entries([(Fraction(0), m), (Fraction(0), m)], 1)


def test_poly_matrix_det():
    # det [[1, t], [t, 1]] = 1 - t^2
    entries = [[rp(1), rp(0, 1)], [rp(0, 1), rp(1)]]
    d = poly_matrix_det(entries)
    assert d == rp(1, 0, -1)


# -- the Scalar polynomials as an oracle --------------------------------------
#
# RatPoly and Newton interpolation as they were on Scalar coefficients, and
# segment certification on top of them with a gcd taken by rational
# Euclidean division: the integer representation must agree with them.


class ScalarPoly:
    """Polynomial over the Gaussian rationals as a trimmed tuple of Scalars."""

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ScalarPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ScalarPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ScalarPoly(())
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ScalarPoly(out)

    def eval(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, c0, c1):
        acc = ScalarPoly(())
        lin = ScalarPoly((c0, c1))
        for c in reversed(self.coeffs):
            acc = acc * lin + ScalarPoly((c,))
        return acc

    def divmod(self, other):
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return ScalarPoly(()), ScalarPoly(rem)
        quo = [ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            f = rem[i + len(other.coeffs) - 1] / lead
            quo[i] = f
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - f * b
        return ScalarPoly(quo), ScalarPoly(rem)


def scalar_newton_poly(ts, values):
    n = len(ts)
    table = list(values)
    coeffs = [table[0]]
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (ts[i + level] - ts[i])
        coeffs.append(table[0])
    poly = ScalarPoly((coeffs[-1],))
    for level in range(n - 2, -1, -1):
        poly = poly * ScalarPoly((-ts[level], ONE)) + ScalarPoly((coeffs[level],))
    return poly


def scalar_poly_matrix_det(polys, degree_bound):
    nodes = [Scalar(Fraction(i, degree_bound + 1)) for i in range(degree_bound + 1)]
    n = len(polys)
    values = [det(Matrix(n, n, [[p.eval(t) for p in row] for row in polys])) for t in nodes]
    return scalar_newton_poly(nodes, values)


def scalar_certify_segment(f, z0, z1):
    """Nonvanishing of f on the segment: the real and imaginary parts of
    f(z0 + s (z1 - z0)) have no common root s in [0, 1]."""
    if f.eval(z0).is_zero() or f.eval(z1).is_zero():
        return False
    if z0 == z1:
        return True
    g = f.compose_affine(z0, z1 - z0)
    a = ScalarPoly([Scalar(c.re) for c in g.coeffs])
    b = ScalarPoly([Scalar(c.im) for c in g.coeffs])
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.degree() < 1 or sturm_root_count(RatPoly(a.coeffs), Fraction(0), Fraction(1)) == 0


def random_scalar(rng, kind):
    if kind == "int":
        return Scalar(rng.choice((0, 0, rng.randint(-9, 9))))
    re = Fraction(rng.choice((0, rng.randint(-9, 9))), rng.randint(1, 6))
    if kind == "rat":
        return Scalar(re)
    return Scalar(re, Fraction(rng.choice((0, rng.randint(-5, 5))), rng.randint(1, 4)))


def random_coeffs(rng, kind, max_degree=5):
    """Coefficients of degree -1 (the zero polynomial) up to max_degree,
    with zero and trailing zero coefficients among them."""
    return [random_scalar(rng, kind) for _ in range(rng.randint(0, max_degree + 1))]


def agrees(new, old):
    return new.coeffs == old.coeffs and new.degree() == old.degree()


KINDS = ("int", "rat", "gauss")


def test_ratpoly_matches_scalar_oracle():
    rng = random.Random(2024)
    for trial in range(300):
        kind = KINDS[trial % 3]
        cf, cg = random_coeffs(rng, kind), random_coeffs(rng, rng.choice(KINDS))
        f, g, of, og = RatPoly(cf), RatPoly(cg), ScalarPoly(cf), ScalarPoly(cg)
        assert agrees(f, of) and agrees(g, og), (cf, cg)
        assert agrees(f + g, of + og), (cf, cg)
        assert agrees(f - g, of - og), (cf, cg)
        assert agrees(-f, -of), cf
        assert agrees(f * g, of * og), (cf, cg)
        x = random_scalar(rng, rng.choice(KINDS))
        assert f.eval(x) == of.eval(x), (cf, x)
        c0, c1 = random_scalar(rng, rng.choice(KINDS)), random_scalar(rng, rng.choice(KINDS))
        assert agrees(f.compose_affine(c0, c1), of.compose_affine(c0, c1)), (cf, c0, c1)
    assert RatPoly(()).is_zero() and RatPoly([ZERO, ZERO]).degree() == -1
    assert RatPoly([Scalar(Fraction(3, 4))]).degree() == 0


def test_ratpoly_equal_forms_hash_equal():
    rng = random.Random(99)
    for trial in range(200):
        cf = random_coeffs(rng, KINDS[trial % 3])
        cg = random_coeffs(rng, KINDS[(trial + 1) % 3])
        f, g = RatPoly(cf), RatPoly(cg)
        two = RatPoly([Scalar(2)])
        pairs = [
            ((f + g) - g, f),
            (f + f, RatPoly([c * 2 for c in cf])),
            (f * two, f + f),
            (-(-f), f),
            ((f * g) + (f * g), (f * two) * g),
            (f - f, RatPoly(())),
            (f.compose_affine(ZERO, ONE), f),
        ]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (cf, cg)
            assert (a.nums, a.den, a.gaussian) == (b.nums, b.den, b.gaussian)
            assert a.den > 0
    assert RatPoly([Scalar(1, 1)]) != RatPoly([Scalar(1)])
    assert RatPoly([Scalar(Fraction(1, 2))]) != RatPoly([Scalar(1)])


def test_interpolation_matches_scalar_oracle():
    rng = random.Random(515)
    for trial in range(60):
        kind = KINDS[trial % 3]
        n = rng.randint(1, 9)
        values = [random_scalar(rng, kind) for _ in range(n)]
        integer_nodes = [Fraction(k) for k in range(n)]
        rational_nodes = rng.sample(sorted({Fraction(a, b) for b in (1, 2, 3, 7) for a in range(-8, 9)}), n)
        for nodes in (integer_nodes, rational_nodes):
            samples = [(t, Matrix(1, 1, [[v]])) for t, v in zip(nodes, values)]
            got = poly_interpolate_entries(samples, n - 1)[0][0]
            want = scalar_newton_poly([Scalar(t) for t in nodes], values)
            assert agrees(got, want), (nodes, values)
            assert all(got.eval(t) == v for t, v in zip(nodes, values))
        # the default nodes 0, ..., n - 1, on the integer form of the values
        form = _ints(Matrix.column(values))
        got = _newton_poly([(row[0], d) for row, d in zip(form.rows, form.dens)])
        assert agrees(got, scalar_newton_poly([Scalar(k) for k in range(n)], values)), values


def test_poly_matrix_det_matches_scalar_oracle():
    rng = random.Random(8080)
    for trial in range(40):
        kind = KINDS[trial % 3]
        n = rng.randint(1, 3)
        cs = [[random_coeffs(rng, kind, 3) for _ in range(n)] for _ in range(n)]
        bound = sum(max(max(len(c) - 1 for c in row), 0) for row in cs) + rng.randint(0, 2)
        got = poly_matrix_det([[RatPoly(c) for c in row] for row in cs], bound)
        want = scalar_poly_matrix_det([[ScalarPoly(c) for c in row] for row in cs], bound)
        assert agrees(got, want), cs
        assert agrees(poly_matrix_det([[RatPoly(c) for c in row] for row in cs]), want), cs
    assert poly_matrix_det([]) == RatPoly([ONE])


def scalar_blend_determinant(q):
    n = q.rows
    entries = [
        [ScalarPoly((ONE if i == j else ZERO, q.data[i][j] - (ONE if i == j else ZERO))) for j in range(n)]
        for i in range(n)
    ]
    return scalar_poly_matrix_det(entries, n)


def test_blend_determinant_segments_match_scalar_oracle():
    rng = random.Random(4242)
    half, third = Fraction(1, 2), Fraction(1, 3)
    qs = [
        Matrix.from_rows([[-1, 0], [0, 2]]),  # a root at z = 1/2 on the straight segment
        Matrix.from_rows([[Scalar(1, 2), 0], [0, 1]]),  # a root at z = i/2, on 0 -> i/2
        Matrix.from_rows([[Scalar(1, 3), 0], [1, Scalar(-2, 1)]]),  # roots at i/3 and (3 + i)/10
        Matrix.from_rows([[1, half], [third, Fraction(-1, 5)]]),
    ]
    for trial in range(12):
        n = rng.randint(2, 4)
        kind = ("rat", "gauss")[trial % 2]
        u = Matrix.from_rows([[random_scalar(rng, kind) for _ in range(n)] for _ in range(n)])
        v = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        qs += [u, Matrix.identity(n) + matrix_mul(u, v)]
    zero, one = Scalar(0), Scalar(1)
    failed = 0
    for q in qs:
        d, want = BlendFactor(q).determinant, scalar_blend_determinant(q)
        assert agrees(d, want), q
        if d.is_zero():
            continue
        for denom in range(2, 6):
            eps = Fraction(1, denom)
            corner0, corner1 = Scalar(0, eps), Scalar(1, eps)
            for w0, w1 in ((zero, one), (zero, corner0), (corner0, corner1), (corner1, one)):
                ok = certify_nonvanishing_segment(d, w0, w1)
                assert ok == scalar_certify_segment(want, w0, w1), (q, w0, w1)
                failed += not ok
    assert failed >= 4  # the segments through the planted roots

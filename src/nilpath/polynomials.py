"""Exact univariate polynomials and nonvanishing certification.

A :class:`RatPoly` is held as the matrix kernels hold a row: its ascending
coefficients as integers over one positive denominator, each an ``int``, or
a Gaussian integer (``_GaussInt``) when it is not real, trailing zeros
trimmed and divided by their gcd with the denominator, so that equal
polynomials have equal forms.  Arithmetic, evaluation and affine
substitution run in integers.
Interpolation is one Newton routine on integer divided differences:
rational nodes are scaled to integers, and at the nodes 0, ..., N the
differences are the forward differences over N!.  Polynomial determinants
are taken at the nodes 0, ..., N by integer eliminations and interpolated
back, so the certificates' polynomial work needs no Fraction arithmetic.

Real-root counting uses Sturm chains computed as primitive integer
pseudo-remainder sequences (each element rescaled by a positive rational),
which preserves the sign-variation property while keeping coefficients
small.  The chain is built on the polynomial itself, with no square-free
pass: a chain that ends in gcd(f, f') counts the distinct roots all the
same.  A polynomial over the complex rationals is certified nonvanishing
on a segment by splitting into real and imaginary parts and root-counting
their gcd.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import DuplicateSampleError, ZeroPolynomialError
from .matrix import Matrix, _canonical, _int_rows, _ints, _Reduction, _scalar, _times
from .scalar import Scalar


class RatPoly:
    """Polynomial over the Gaussian rationals: coefficient i is
    ``nums[i] / den``, in canonical form."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
        (nums,), (den,) = _int_rows([cs])
        self._set(nums, den)

    def _set(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        form = _canonical([nums], [den])
        self.nums, self.den = tuple(form.rows[0]), form.dens[0]

    @property
    def gaussian(self) -> bool:
        """Whether some coefficient is not real."""
        return any(x.imag for x in self.nums)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(_scalar(x, self.den) for x in self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.nums) - 1

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "RatPoly") -> "RatPoly":
        den = lcm(self.den, other.den)
        a, b = _times(self.nums, den // self.den), _times(other.nums, den // other.den)
        return _poly([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return _poly(_times(self.nums, -1), self.den)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.nums, other.nums
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = out[i + j] + x * y
        return _poly(out, self.den * other.den)

    def eval(self, x) -> Scalar:
        """f(x) by Horner's rule in integers: with x = w/e, d = deg f and f's
        numerators c_i, ``e^d f(x)`` is the sum of ``c_i w^i e^(d - i)`` over
        f's denominator."""
        if not isinstance(x, Scalar):
            x = Scalar(x)
        ((w,),), (e,) = _int_rows([[x]])
        acc, power = 0, 1
        for c in reversed(self.nums):
            acc = acc * w + c * power
            power *= e
        return _scalar(acc, self.den * e ** max(self.degree(), 0))

    def compose_affine(self, c0: Scalar, c1: Scalar) -> "RatPoly":
        """The polynomial s -> f(c0 + c1*s), by Horner's rule in integers:
        with c0 = a0/e and c1 = a1/e over one positive e, and f's numerators
        c_i, ``e^d f(c0 + c1 s)`` is the sum of ``c_i (a0 + a1 s)^i e^(d - i)``
        over f's denominator."""
        ((a0, a1),), (e,) = _int_rows([[c0, c1]])
        acc, power = [], 1
        for c in reversed(self.nums):
            acc = [x * a0 + y * a1 for x, y in zip(acc + [0], [0] + acc)]
            acc[0] = acc[0] + c * power
            power *= e
        return _poly(acc, self.den * e ** max(self.degree(), 0))


def _poly(nums: list, den: int) -> RatPoly:
    """The polynomial with coefficients ``nums[i] / den`` (den nonzero)."""
    p = RatPoly.__new__(RatPoly)
    p._set(nums, den)
    return p


# -- primitive integer polynomials -------------------------------------------
#
# An integer polynomial is a plain list of ints, ascending, trimmed.  Every
# rescaling below uses a positive factor, which is what keeps Sturm
# sign-variation counting valid on the rescaled chain.


def _ip_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _ip_primitive(p: list[int]) -> list[int]:
    g = 0
    for c in p:
        g = gcd(g, abs(c))
        if g == 1:
            return list(p)
    if g <= 1:
        return list(p)
    return [c // g for c in p]


def _ip_derivative(p: list[int]) -> list[int]:
    return _ip_trim([i * c for i, c in enumerate(p) if i > 0])


def _ip_sign_at(p: list[int], x: Fraction) -> int:
    """Sign of p(x) via the integer value sum c_i a^i b^(n-i) for x = a/b."""
    a, b = x.numerator, x.denominator
    n = len(p) - 1
    acc = 0
    pa = 1
    pb = b**n if n >= 0 else 1
    for i, c in enumerate(p):
        acc += c * pa * pb
        pa *= a
        if i < n:
            pb //= b
    return (acc > 0) - (acc < 0)


def _ip_prem_neg(f: list[int], g: list[int]) -> list[int]:
    """Negated remainder of ``|lc(g)|^(deg f - deg g + 1) f`` by g.

    That multiplier makes every elimination step integral, and being
    positive it keeps signs faithful to the exact remainder sequence.
    """
    df, dg = len(f) - 1, len(g) - 1
    lead = g[-1]
    mult = abs(lead) ** (df - dg + 1)
    rem = [c * mult for c in f]
    for i in range(df - dg, -1, -1):
        top = rem[i + dg]
        if top == 0:
            continue
        q, r = divmod(top, lead)
        assert r == 0, "pseudo-remainder division must be exact"
        for j in range(dg + 1):
            rem[i + j] -= q * g[j]
    return _ip_trim([-c for c in rem[:dg]])


def _ip_gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd by pseudo-remainder sequence (sign-normalized positive lead)."""
    a = _ip_primitive(list(f))
    b = _ip_primitive(list(g))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ip_primitive(_ip_prem_neg(a, b))
        a, b = b, r
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _ip_deflate_root(f: list[int], root: Fraction) -> list[int]:
    """Divide out (b x - a) for root = a/b; assumes f(root) = 0.  The
    quotient is integral (Gauss's lemma), and found by synthetic division
    from the top: ``q_(k-1) = (f_k + a q_k) / b``."""
    a, b = root.numerator, root.denominator
    out, acc = [], 0
    for c in reversed(f[1:]):
        acc, r = divmod(c + a * acc, b)
        assert r == 0, "deflation at a non-root"
        out.append(acc)
    assert f[0] + a * acc == 0, "deflation at a non-root"
    out.reverse()
    return _ip_primitive(out)


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_ip_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _int_roots_in_open_interval(f: list[int], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the integer polynomial in (lo, hi).

    Roots at the ends are deflated away first.  Sturm's theorem then holds
    for f itself, square-free or not: its chain f, f', ... ends in
    gcd(f, f'), and dividing the whole chain by that gcd, which is nonzero
    wherever f is, changes no sign variation at lo or hi.
    """
    while f and _ip_sign_at(f, lo) == 0:
        f = _ip_deflate_root(f, lo)
    while f and _ip_sign_at(f, hi) == 0:
        f = _ip_deflate_root(f, hi)
    if not f:
        raise ZeroPolynomialError("polynomial vanished entirely under deflation")
    if len(f) == 1:
        return 0
    chain = [f, _ip_derivative(f)]
    while nxt := _ip_primitive(_ip_prem_neg(chain[-2], chain[-1])):
        chain.append(nxt)
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_root_count(f: RatPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact count of distinct real roots of f in the open interval (lo, hi).

    Requires real coefficients and lo < hi.  Roots at the endpoints are
    deflated away first, so they never perturb the count.
    """
    if f.is_zero():
        raise ZeroPolynomialError("root counting on the zero polynomial")
    if f.gaussian:
        raise ValueError("sturm_root_count requires real coefficients")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    return _int_roots_in_open_interval(list(f.nums), lo, hi)


def certify_nonvanishing_segment(f: RatPoly, z0: Scalar, z1: Scalar) -> bool:
    """True iff f(z0 + s*(z1 - z0)) != 0 for every s in [0, 1], decided exactly.

    The restriction g(s) to the segment splits into real and imaginary
    integer polynomials in s; a common zero exists iff their gcd has a root
    there.  When one part vanishes identically the other is root-counted
    alone.
    """
    if f.is_zero():
        raise ZeroPolynomialError("certification of the zero polynomial")
    g = f.compose_affine(z0, z1 - z0)
    re = _ip_trim([x.real for x in g.nums])
    im = _ip_trim([x.imag for x in g.nums])
    if not any(re[:1] + im[:1]) or not (sum(re) or sum(im)):  # g(0) = 0 or g(1) = 0
        return False
    if not im:
        return _int_roots_in_open_interval(re, 0, 1) == 0
    if not re:
        return _int_roots_in_open_interval(im, 0, 1) == 0
    common = _ip_gcd(re, im)
    if len(common) <= 1:
        return True
    return _int_roots_in_open_interval(common, 0, 1) == 0


def poly_interpolate_entries(
    samples: Sequence[tuple[Fraction, Matrix]], degree_bound: int
) -> list[list[RatPoly]]:
    """Entrywise Newton interpolation through degree_bound + 1 samples.

    Every matrix entry is fitted exactly by a polynomial of degree at most
    degree_bound; the sample count must match and parameters be distinct.
    The values are read off the matrices' integer forms.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    if len(samples) != degree_bound + 1:
        raise ValueError(
            f"need exactly {degree_bound + 1} samples, got {len(samples)}"
        )
    ts = [Fraction(t) for t, _ in samples]
    if len(set(ts)) != len(ts):
        raise DuplicateSampleError("duplicate interpolation parameter")
    mats = [m for _, m in samples]
    rows, cols = mats[0].rows, mats[0].cols
    if any(m.rows != rows or m.cols != cols for m in mats):
        raise ValueError("sample matrices must share dimensions")

    forms = [_ints(m) for m in mats]
    return [
        [_newton_poly([(f.rows[i][j], f.dens[i]) for f in forms], ts) for j in range(cols)]
        for i in range(rows)
    ]


def _newton_poly(values: Sequence[tuple], nodes: Optional[Sequence[Fraction]] = None) -> RatPoly:
    """The polynomial through ``values[k]`` at ``nodes[k]`` (distinct; 0, 1,
    ... by default), each value an integer numerator over a positive
    denominator.

    Everything runs in integers.  With B the common denominator of the
    nodes, the polynomial is q(B t) for the q through the values at the
    integer nodes c_k = B t_k.  Level k of q's divided-difference table is
    kept over the common denominator D_k = D_(k-1) * m_k, with m_k the lcm
    of the level's node gaps, so an entry is an integer difference times
    ``m_k / gap``; at the nodes 0, ..., N every gap of level k is k and the
    table holds the forward differences over k!.  The Newton form is then
    expanded over D_N by Horner's rule.
    """
    den = lcm(*(d for _, d in values))
    table = [v if d == den else v * (den // d) for v, d in values]
    n = len(table)
    if nodes is None:
        scale, cs = 1, list(range(n))
    else:
        scale = lcm(*(t.denominator for t in nodes))
        cs = [t.numerator * (scale // t.denominator) for t in nodes]
    leading, dens = [table[0]], [1]
    for k in range(1, n):
        gaps = [cs[i + k] - cs[i] for i in range(n - k)]
        m = lcm(*gaps)
        table = [
            y - x if gap == m else (y - x) * (m // gap)
            for x, y, gap in zip(table, table[1:], gaps)
        ]
        leading.append(table[0])
        dens.append(dens[-1] * m)
    acc = [leading[-1]]
    for k in range(n - 2, -1, -1):
        b = leading[k] * (dens[-1] // dens[k])
        c = cs[k]
        acc = [b - c * acc[0]] + [x - c * y for x, y in zip(acc, acc[1:])] + [acc[-1]]
    if scale != 1:
        acc = [x * scale**i for i, x in enumerate(acc)]
    return _poly(acc, den * dens[-1])


def poly_matrix_det(polys: list[list[RatPoly]], degree_bound: Optional[int] = None) -> RatPoly:
    """Determinant of a square matrix of polynomials by value interpolation.

    Evaluates at the integer nodes 0, ..., degree_bound (the bound defaults
    to the sum of row-maximal entry degrees) through :func:`_levels_det`,
    from each row's coefficient rows: the numerators of each degree over
    the row's common denominator.
    """
    n = len(polys)
    if n == 0:
        return RatPoly((1,))
    if degree_bound is None:
        degree_bound = sum(
            max((p.degree() for p in row if not p.is_zero()), default=0) for row in polys
        )
    dens = [lcm(*(p.den for p in row)) for row in polys]
    levels = []  # per row, its coefficient rows over the row's denominator, top degree first
    for row, d in zip(polys, dens):
        terms = [_times(p.nums, d // p.den) for p in row]
        top = max(1, *map(len, terms))
        levels.append([[t[k] if k < len(t) else 0 for t in terms] for k in reversed(range(top))])
    return _levels_det(levels, dens, degree_bound)


def _levels_det(levels: list[list[list]], dens: list[int], degree_bound: int) -> RatPoly:
    """The determinant of the polynomial matrix whose row i is
    ``sum_k levels[i][k] z^(top - k) / dens[i]``: integer coefficient rows,
    top degree first.  It runs
    Horner's rule on each row at the integer nodes 0, ..., degree_bound,
    takes one integer elimination per node and interpolates back.
    """
    values = []
    for z in range(degree_bound + 1):
        rows = []
        for row in levels:
            acc = row[0]
            for level in row[1:]:
                acc = [a * z + c for a, c in zip(acc, level)]
            rows.append(acc)
        values.append(_Reduction(rows, dens, len(rows)).det_ints())
    return _newton_poly(values)

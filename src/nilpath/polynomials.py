"""Exact univariate polynomials and nonvanishing certification.

:class:`RatPoly` stores Gaussian-rational coefficients in ascending order.
Real-root counting uses Sturm chains computed as primitive integer
pseudo-remainder sequences (each element rescaled by a positive rational),
which preserves the sign-variation property while keeping coefficients
small.  A polynomial over the complex rationals is certified nonvanishing
on a segment by splitting into real and imaginary parts and root-counting
their gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import DuplicateSampleError, ZeroPolynomialError
from .matrix import Matrix, det
from .scalar import ONE, ZERO, Scalar


class RatPoly:
    """Polynomial over the Gaussian rationals, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def constant(c) -> "RatPoly":
        return RatPoly((c,))

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly((ZERO, ONE))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"RatPoly({[str(c) for c in self.coeffs]})"

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RatPoly(out)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            if self.is_zero() or other.is_zero():
                return RatPoly(())
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    if not b.is_zero():
                        out[i + j] = out[i + j] + a * b
            return RatPoly(out)
        if isinstance(other, (int, Fraction, Scalar)):
            s = other if isinstance(other, Scalar) else Scalar(other)
            return RatPoly([c * s for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def eval(self, x) -> Scalar:
        if not isinstance(x, Scalar):
            x = Scalar(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_affine(self, c0: Scalar, c1: Scalar) -> "RatPoly":
        """The polynomial s -> f(c0 + c1*s)."""
        acc = RatPoly(())
        lin = RatPoly((c0, c1))
        for c in reversed(self.coeffs):
            acc = acc * lin + RatPoly((c,))
        return acc

    def divmod(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly(()), RatPoly(rem)
        quo = [ZERO] * (dq + 1)
        lead = other.coeffs[-1]
        for i in range(dq, -1, -1):
            top = rem[i + len(other.coeffs) - 1]
            if top.is_zero():
                continue
            f = top / lead
            quo[i] = f
            for j, b in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - f * b
        return RatPoly(quo), RatPoly(rem)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def real_imag(self) -> tuple[list[Fraction], list[Fraction]]:
        """Coefficient lists of the real and imaginary part polynomials."""
        re = [c.re for c in self.coeffs]
        im = [c.im for c in self.coeffs]
        return _trim_fracs(re), _trim_fracs(im)


def _trim_fracs(cs: list[Fraction]) -> list[Fraction]:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


# -- primitive integer polynomials -------------------------------------------
#
# An integer polynomial is a plain list of ints, ascending, trimmed.  Every
# rescaling below uses a positive factor, which is what keeps Sturm
# sign-variation counting valid on the rescaled chain.


def _ip_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _ip_from_fracs(cs: Sequence[Fraction]) -> list[int]:
    cs = [Fraction(c) for c in cs]
    denom = 1
    for c in cs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    out = [int(c * denom) for c in cs]
    return _ip_trim(out)


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


def _ip_eval_frac(p: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


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
    """Negated pseudo-remainder of f by g, scaled by a positive factor.

    Multiplying f by |lc(g)|^(deg f - deg g + 1) makes every elimination
    step integral, and the positive multiplier keeps signs faithful to the
    exact remainder sequence.
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
    rem = _ip_trim(rem[:dg] if dg > 0 else [])
    return [-c for c in rem]


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


def _ip_div_exact(f: list[int], g: list[int]) -> list[int]:
    """Quotient f/g when g divides f over the rationals; primitive output."""
    fq = [Fraction(c) for c in f]
    out: list[Fraction] = []
    dg = len(g) - 1
    lead = Fraction(g[-1])
    work = list(fq)
    for i in range(len(f) - len(g), -1, -1):
        c = work[i + dg] / lead
        out.append(c)
        for j in range(dg + 1):
            work[i + j] -= c * g[j]
    out.reverse()
    assert all(not c for c in _trim_fracs(work)), "inexact polynomial division"
    return _ip_primitive(_ip_from_fracs(out))


def _ip_deflate_root(f: list[int], root: Fraction) -> list[int]:
    """Divide out (x - root); assumes f(root) = 0."""
    out: list[Fraction] = []
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * root + c
        out.append(acc)
    assert not out[-1], "deflation at a non-root"
    out = out[:-1]
    out.reverse()
    return _ip_primitive(_ip_from_fracs(out))


def _sturm_chain(f: list[int]) -> list[list[int]]:
    chain = [list(f), _ip_derivative(f)]
    if not chain[1]:
        return chain[:1]
    while True:
        nxt = _ip_primitive(_ip_prem_neg(chain[-2], chain[-1]))
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_ip_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _int_roots_in_open_interval(f: list[int], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of the integer polynomial in (lo, hi)."""
    while f and _ip_eval_frac(f, lo) == 0:
        f = _ip_deflate_root(f, lo)
    while f and _ip_eval_frac(f, hi) == 0:
        f = _ip_deflate_root(f, hi)
    if not f:
        raise ZeroPolynomialError("polynomial vanished entirely under deflation")
    if len(f) == 1:
        return 0
    g = _ip_gcd(f, _ip_derivative(f))
    if len(g) > 1:
        f = _ip_div_exact(f, g)  # square-free part
    if len(f) == 1:
        return 0
    chain = _sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_root_count(f: RatPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact count of distinct real roots of f in the open interval (lo, hi).

    Requires real coefficients and lo < hi.  Roots at the endpoints are
    deflated away first, so they never perturb the count.
    """
    if f.is_zero():
        raise ZeroPolynomialError("root counting on the zero polynomial")
    if not f.is_real():
        raise ValueError("sturm_root_count requires real coefficients")
    lo = Fraction(lo)
    hi = Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    ip = _ip_from_fracs([c.re for c in f.coeffs])
    return _int_roots_in_open_interval(ip, lo, hi)


def certify_nonvanishing_segment(f: RatPoly, z0: Scalar, z1: Scalar) -> bool:
    """True iff f(z0 + s*(z1 - z0)) != 0 for every s in [0, 1], decided exactly.

    The restriction to the segment splits into real and imaginary real
    polynomials in s; a common zero exists iff their gcd has a root there.
    When one part vanishes identically the other is root-counted alone.
    """
    if f.is_zero():
        raise ZeroPolynomialError("certification of the zero polynomial")
    if f.eval(z0).is_zero() or f.eval(z1).is_zero():
        return False
    if z0 == z1:
        return True
    g = f.compose_affine(z0, z1 - z0)
    re, im = g.real_imag()
    zero = Fraction(0)
    one = Fraction(1)
    if not im:
        return _int_roots_in_open_interval(_ip_from_fracs(re), zero, one) == 0
    if not re:
        return _int_roots_in_open_interval(_ip_from_fracs(im), zero, one) == 0
    common = _ip_gcd(_ip_from_fracs(re), _ip_from_fracs(im))
    if len(common) <= 1:
        return True
    return _int_roots_in_open_interval(common, zero, one) == 0


def poly_interpolate_entries(
    samples: Sequence[tuple[Fraction, Matrix]], degree_bound: int
) -> list[list[RatPoly]]:
    """Entrywise Newton interpolation through degree_bound + 1 samples.

    Every matrix entry is fitted exactly by a polynomial of degree at most
    degree_bound; the sample count must match and parameters be distinct.
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

    t_scalars = [Scalar(t) for t in ts]
    grids = [m._entries() for m in mats]
    out: list[list[RatPoly]] = []
    for i in range(rows):
        row = []
        for j in range(cols):
            values = [grid[i][j] for grid in grids]
            row.append(_newton_poly(t_scalars, values))
        out.append(row)
    return out


def _newton_poly(ts: list[Scalar], values: list[Scalar]) -> RatPoly:
    n = len(ts)
    table = list(values)
    coeffs = [table[0]]
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (ts[i + level] - ts[i])
        coeffs.append(table[0])
    poly = RatPoly((coeffs[-1],))
    for level in range(n - 2, -1, -1):
        poly = poly * RatPoly((-ts[level], ONE)) + RatPoly((coeffs[level],))
    return poly


def poly_matrix_eval(polys: list[list[RatPoly]], t: Fraction) -> Matrix:
    """Evaluate a matrix of polynomials at a rational parameter."""
    x = Scalar(t)
    return Matrix(
        len(polys), len(polys[0]) if polys else 0,
        [[p.eval(x) for p in row] for row in polys],
    )


def poly_matrix_det(polys: list[list[RatPoly]], degree_bound: Optional[int] = None) -> RatPoly:
    """Determinant of a square matrix of polynomials by value interpolation.

    Evaluates at degree_bound + 1 integer-spaced rationals (bound defaults
    to the sum of row-maximal entry degrees) and interpolates back.
    """
    n = len(polys)
    if n == 0:
        return RatPoly((ONE,))
    if degree_bound is None:
        degree_bound = sum(
            max((p.degree() for p in row if not p.is_zero()), default=0) for row in polys
        )
    nodes = [Fraction(i, degree_bound + 1) for i in range(degree_bound + 1)]
    values = [det(poly_matrix_eval(polys, t)) for t in nodes]
    return _newton_poly([Scalar(t) for t in nodes], values)

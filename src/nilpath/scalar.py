"""Exact Gaussian-rational scalars.

A :class:`Scalar` is a complex number ``re + im*i`` whose parts are
:class:`fractions.Fraction` values, so every arithmetic operation is exact
and results stay in canonical reduced form.  Values are immutable and safe
to share between threads.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import InputFormatError

_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)


def _mk(re: Fraction, im: Fraction) -> "Scalar":
    s = Scalar.__new__(Scalar)
    s.re = re
    s.im = im
    return s


class Scalar:
    """Immutable element of the field of Gaussian rationals."""

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mk(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mk(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _mk(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return _mk(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _mk(a * c, _ZERO_F)
        return _mk(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return _mk(self.re / c, self.im / c)
        n = c * c + d * d
        a, b = self.re, self.im
        return _mk((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "Scalar":
        return _mk(self.re, -self.im)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self!s})"

    def __str__(self):
        return format_scalar(self)


def _coerce(value) -> Scalar | None:
    if type(value) is Scalar:
        return value
    if isinstance(value, (int, Fraction)):
        return _mk(Fraction(value), _ZERO_F)
    if isinstance(value, Scalar):
        return value
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def scalar(re=0, im=0) -> Scalar:
    """Convenience constructor accepting ints, Fractions or strings."""
    if isinstance(re, str):
        re = Fraction(re)
    if isinstance(im, str):
        im = Fraction(im)
    return Scalar(re, im)


# -- text format ---------------------------------------------------------
#
# Entries are written "a/b" for reals and "a/b+c/d i" / "a/b-c/d i" with a
# trailing " i" for the imaginary part.  Emission always includes the
# denominator so output is canonical; parsing also accepts plain integers.

_RAT = r"[+-]?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*(?P<re>{_RAT})\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*i)?\s*$"
)
_PURE_IM_RE = _re.compile(rf"^\s*(?P<im>{_RAT})\s*i\s*$")


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_scalar(s: Scalar) -> str:
    if not s.im:
        return format_rational(s.re)
    sign = "+" if s.im > 0 else "-"
    return f"{format_rational(s.re)}{sign}{format_rational(abs(s.im))} i"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad rational {text!r}: {exc}") from None


def parse_scalar(text: str) -> Scalar:
    if not isinstance(text, str):
        raise InputFormatError(f"scalar entry must be a string, not {text!r}")
    try:
        m = _SCALAR_RE.match(text)
        if m:
            re_part = Fraction(m.group("re"))
            if m.group("im") is None:
                return Scalar(re_part)
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
            return Scalar(re_part, im_part)
        m = _PURE_IM_RE.match(text)
        if m:
            return Scalar(0, Fraction(m.group("im")))
    except ZeroDivisionError:
        raise InputFormatError(f"zero denominator in scalar entry {text!r}") from None
    raise InputFormatError(f"bad scalar entry {text!r}")


def parse_int(obj, key: str) -> int:
    """``obj[key]``, which must be a JSON integer: a float, a boolean or a
    string is refused rather than truncated."""
    value = obj[key]
    if type(value) is not int:
        raise InputFormatError(f"{key} must be an integer, not {value!r}")
    return value

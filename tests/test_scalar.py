from fractions import Fraction

import pytest

from nilpath.errors import InputFormatError
from nilpath.scalar import I, ONE, ZERO, Scalar, format_scalar, parse_scalar


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(1, 3))
    b = Scalar(Fraction(2, 5), Fraction(-1, 7))
    assert a + b == Scalar(Fraction(9, 10), Fraction(4, 21))
    assert a - b == Scalar(Fraction(1, 10), Fraction(10, 21))
    # (1/2 + i/3)(2/5 - i/7) = 1/5 + 1/21 + i(2/15 - 1/14)
    prod = a * b
    assert prod.re == Fraction(1, 5) + Fraction(1, 21)
    assert prod.im == Fraction(2, 15) - Fraction(1, 14)


def test_division_and_field_axioms():
    a = Scalar(3, 4)
    b = Scalar(Fraction(-1, 2), Fraction(5, 3))
    q = a / b
    assert q * b == a
    assert (a / a) == ONE
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_i_squares_to_minus_one():
    assert I * I == Scalar(-1)
    assert I.conjugate() == Scalar(0, -1)
    assert (I * I.conjugate()) == ONE


def test_int_coercion():
    assert Scalar(2) + 3 == Scalar(5)
    assert 3 * Scalar(2) == Scalar(6)
    assert Scalar(1) - Fraction(1, 2) == Scalar(Fraction(1, 2))


def test_format_and_parse_roundtrip():
    values = [
        ZERO,
        ONE,
        I,
        Scalar(Fraction(-3, 7)),
        Scalar(Fraction(1, 2), Fraction(-5, 9)),
        Scalar(0, Fraction(2, 11)),
    ]
    for v in values:
        assert parse_scalar(format_scalar(v)) == v


def test_format_canonical():
    assert format_scalar(Scalar(Fraction(2, 4))) == "1/2"
    assert format_scalar(Scalar(1, 1)) == "1/1+1/1 i"
    assert format_scalar(Scalar(1, -1)) == "1/1-1/1 i"
    assert format_scalar(ZERO) == "0/1"


def test_parse_plain_integers_and_signs():
    assert parse_scalar("7") == Scalar(7)
    assert parse_scalar("-7/2") == Scalar(Fraction(-7, 2))
    assert parse_scalar("1/2-1/3 i") == Scalar(Fraction(1, 2), Fraction(-1, 3))
    assert parse_scalar("2/3 i") == Scalar(0, Fraction(2, 3))


def test_parse_rejects_garbage():
    for bad in ("", "one", "1/2 + ", "i i", "1//2"):
        with pytest.raises(InputFormatError):
            parse_scalar(bad)


def test_hash_consistency():
    assert hash(Scalar(Fraction(2, 4))) == hash(Scalar(Fraction(1, 2)))
    assert len({Scalar(1), Scalar(1, 0), ONE}) == 1


def test_scalar_module_is_reachable_through_the_package():
    import nilpath
    import nilpath.scalar as m

    assert m.Scalar is nilpath.Scalar

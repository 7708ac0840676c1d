"""Property-based checks for the algebraic core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from nilpath.polynomials import sturm_root_count
from nilpath.profiles import Profile, profile_power
from nilpath.scalar import ONE, Scalar, format_scalar, parse_scalar

from test_polynomials import linear_factor_product

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
scalars = st.builds(Scalar, fractions, fractions)
profiles = st.dictionaries(st.integers(1, 9), st.integers(1, 3), max_size=4).map(Profile)


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_scalar_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@given(scalars)
def test_scalar_text_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(profiles, st.integers(1, 4))
def test_power_map_preserves_size(m, p):
    assert profile_power(m, p).size() == m.size()


@given(profiles, profiles, st.integers(1, 4))
def test_power_map_is_additive(m, m2, p):
    assert profile_power(m + m2, p) == profile_power(m, p) + profile_power(m2, p)


@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=6), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_sturm_counts_known_roots(roots):
    poly = linear_factor_product(roots)
    lo = min(roots) - 1
    hi = max(roots) + 1
    assert sturm_root_count(poly, lo, hi) == len(set(roots))


@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=6), min_size=1, max_size=4),
       st.fractions(min_value=-30, max_value=30, max_denominator=6),
       st.fractions(min_value=-30, max_value=30, max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_sturm_open_interval_semantics(roots, a, b):
    if a == b:
        return
    lo, hi = (a, b) if a < b else (b, a)
    poly = linear_factor_product(roots)
    expected = len({r for r in roots if lo < r < hi})
    assert sturm_root_count(poly, lo, hi) == expected

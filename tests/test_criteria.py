import time

import pytest

from nilpath.criteria import (
    SemigroupWitness,
    ZeroSpec,
    _finite_generators,
    find_root_profile,
    has_pth_root,
    is_f_solvable,
    special_two_three,
)
from nilpath.errors import SizeCapExceededError
from nilpath.profiles import Profile, enumerate_preimages, profile_power, profiles_of_size


def all_profiles_up_to(n):
    for s in range(n + 1):
        yield from profiles_of_size(s)


def test_has_pth_root_examples():
    assert not has_pth_root(Profile({2: 1}), 2)
    assert has_pth_root(Profile({2: 1, 1: 1}), 2)
    assert has_pth_root(Profile({1: 5}), 3)


def test_root_criterion_matches_enumeration():
    for m in all_profiles_up_to(9):
        for p in (2, 3, 4):
            assert has_pth_root(m, p) == bool(enumerate_preimages(m, p)), (m, p)


def test_find_root_profile_examples():
    assert find_root_profile(Profile({2: 1, 1: 1}), 2) == Profile({3: 1})
    assert find_root_profile(Profile({2: 1}), 2) is None
    assert find_root_profile(Profile(), 3) == Profile()


def test_find_root_profile_is_verified():
    for m in all_profiles_up_to(9):
        for p in (2, 3):
            root = find_root_profile(m, p)
            if root is None:
                assert not has_pth_root(m, p)
            else:
                assert profile_power(root, p) == m


def test_greedy_root_profile_answers_every_rooted_profile():
    # the greedy pass has no fallback: it must find a root whenever one exists
    for m in all_profiles_up_to(20):
        for p in range(2, 7):
            if has_pth_root(m, p):
                assert profile_power(find_root_profile(m, p), p) == m, (m, p)


def test_solvable_witness_example():
    w = is_f_solvable(ZeroSpec((2, 3)), Profile({3: 1, 2: 1, 1: 1}))
    assert w is not None
    assert set(w.generators) == {(2, 2, 1), (2, 0, 1)}
    assert w.e1_count == 0


def test_solvable_negative_example():
    assert is_f_solvable(ZeroSpec((2, 3)), Profile({2: 1})) is None


def test_simple_zero_solves_everything():
    for m in all_profiles_up_to(12):
        w = is_f_solvable(ZeroSpec((1,)), m)
        assert w is not None
        assert w.total_profile() == m


def test_infinite_zero_generates_ones():
    spec = ZeroSpec((), has_infinite_zero=True)
    for n in range(0, 7):
        w = is_f_solvable(spec, Profile({1: n} if n else {}))
        assert w is not None
        assert w.e1_count == n
    assert is_f_solvable(spec, Profile({2: 1})) is None


def test_witness_soundness():
    for m in all_profiles_up_to(8):
        for mults in ((2,), (3,), (2, 3)):
            w = is_f_solvable(ZeroSpec(mults), m)
            if w is not None:
                assert w.total_profile() == m


def test_repeated_multiplicity_changes_nothing():
    # a spec may repeat a multiplicity; each generator is still listed once
    for m in all_profiles_up_to(10):
        assert is_f_solvable(ZeroSpec((2, 2, 3)), m) == is_f_solvable(ZeroSpec((2, 3)), m), m
        keys = [key for key, _ in _finite_generators(ZeroSpec((3, 2, 2, 5)), m)]
        assert all(a < b for a, b in zip(keys, keys[1:])), (m, keys)


def test_each_generator_is_keyed_once_in_canonical_form():
    # (p, a, p) is the bundle (p, a + 1, 0): keys keep r < p, so no bundle
    # has two keys and witnesses name the canonical one
    for m in all_profiles_up_to(9):
        gens = _finite_generators(ZeroSpec((1, 2, 3, 5)), m)
        assert all(r < p for (p, _, r), _ in gens), m
        bundles = [(p, p * a + r) for (p, a, r), _ in gens]
        assert len(bundles) == len(set(bundles)), m
    assert is_f_solvable(ZeroSpec((1,)), Profile({3: 1})).generators == ((1, 3, 0),)
    assert is_f_solvable(ZeroSpec((2,)), Profile({2: 2})).generators == ((2, 2, 0),)


def test_witness_determinism():
    m = Profile({3: 1, 2: 1, 1: 1})
    first = is_f_solvable(ZeroSpec((2, 3)), m)
    for _ in range(3):
        assert is_f_solvable(ZeroSpec((2, 3)), m) == first


def test_solvable_matches_pth_root_for_single_zero():
    for m in all_profiles_up_to(8):
        for p in (2, 3):
            assert (is_f_solvable(ZeroSpec((p,)), m) is not None) == has_pth_root(m, p)


def test_special_two_three_examples():
    assert not special_two_three(Profile({2: 1}))
    assert special_two_three(Profile({3: 1, 2: 1, 1: 1}))
    assert special_two_three(Profile())


def test_special_two_three_matches_dp():
    spec = ZeroSpec((2, 3))
    for m in all_profiles_up_to(9):
        assert special_two_three(m) == (is_f_solvable(spec, m) is not None), m


def test_large_multiplicity_zero_reaches_ones():
    # a zero of multiplicity far above size(m) contributes only e_1 bundles
    w = is_f_solvable(ZeroSpec((100,)), Profile({1: 5}))
    assert w is not None
    assert w.total_profile() == Profile({1: 5})
    assert is_f_solvable(ZeroSpec((100,)), Profile({2: 1})) is None


def test_solvable_cost_does_not_grow_with_the_multiplicity():
    start = time.perf_counter()
    assert is_f_solvable(ZeroSpec((10**9,)), Profile({3: 1})) is None
    w = is_f_solvable(ZeroSpec((10**9,)), Profile({1: 3}))
    assert w == SemigroupWitness(((10**9, 0, 3),), 0)
    assert time.perf_counter() - start < 1.0


def test_size_cap_guard():
    with pytest.raises(SizeCapExceededError):
        is_f_solvable(ZeroSpec((2,)), Profile({30: 1}))


def test_empty_spec_only_solves_empty_profile():
    assert is_f_solvable(ZeroSpec(()), Profile()) == SemigroupWitness((), 0)
    assert is_f_solvable(ZeroSpec(()), Profile({1: 1})) is None

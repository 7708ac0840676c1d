import random
import time

import pytest

from nilpath.errors import InputFormatError, InvalidMoveError, SizeCapExceededError
from nilpath.profiles import (
    AdjacencyMove,
    Profile,
    apply_move,
    cell_power_profile,
    enumerate_preimages,
    is_p_adjacent,
    partitions,
    profile_power,
    profiles_of_size,
    size,
)


def all_profiles_up_to(n):
    for s in range(n + 1):
        yield from profiles_of_size(s)


def test_size_examples():
    assert size(Profile()) == 0
    assert size(Profile({3: 1, 1: 2})) == 5
    assert size(Profile({2: 2, 1: 2})) == 6


def test_cell_power_examples():
    assert cell_power_profile(5, 2) == Profile({3: 1, 2: 1})
    assert cell_power_profile(4, 2) == Profile({2: 2})
    assert cell_power_profile(1, 3) == Profile({1: 1})
    assert cell_power_profile(0, 4) == Profile()


def test_profile_power_examples():
    assert profile_power(Profile({3: 1}), 2) == Profile({2: 1, 1: 1})
    assert profile_power(Profile(), 5) == Profile()
    assert profile_power(Profile({6: 1}), 2) == Profile({3: 2})


def test_profile_power_matches_cellwise_expansion():
    for m in all_profiles_up_to(8):
        for p in (1, 2, 3, 4):
            total = Profile()
            for k, c in m.items():
                cell = cell_power_profile(k, p)
                for _ in range(c):
                    total = total + cell
            assert profile_power(m, p) == total


def window_sum_power(m, p):
    """profile_power by its defining window sum: entry a >= 1 is
    sum_(|j| < p) (p - |j|) m_(p*a + j), one O(p) sum per entry."""
    counts = {}
    for a in range(1, m.max_index() // p + 2):
        total = sum((p - abs(j)) * m.get(p * a + j) for j in range(-p + 1, p) if p * a + j >= 1)
        if total:
            counts[a] = total
    return Profile(counts)


def test_profile_power_matches_window_sum():
    rng = random.Random(17)
    for p in range(1, 8):
        for _ in range(300):
            m = Profile({rng.randint(1, 30): rng.randint(0, 4) for _ in range(rng.randint(0, 6))})
            assert profile_power(m, p) == window_sum_power(m, p), (m, p)


def test_profile_power_cost_does_not_grow_with_p():
    start = time.perf_counter()
    for m in profiles_of_size(3):
        assert profile_power(m, 10**12) == Profile({1: 3})
    assert time.perf_counter() - start < 1.0


def test_power_map_is_additive_and_size_preserving():
    profs = list(all_profiles_up_to(6))
    for p in (2, 3):
        for m in profs:
            assert size(profile_power(m, p)) == size(m)
        for m in profs[:12]:
            for m2 in profs[:12]:
                assert profile_power(m + m2, p) == profile_power(m, p) + profile_power(m2, p)


def test_window_swap_preserves_power():
    # both cell pairs inside one window share a power image
    for p in (2, 3, 4):
        for a in range(0, 4):
            for k in range(p * a, p * (a + 1)):
                for l in range(k + 1, p * (a + 1) + 1):
                    left = Profile.single(k) + Profile.single(l)
                    right = Profile.single(k + 1) + Profile.single(l - 1)
                    assert profile_power(left, p) == profile_power(right, p), (p, a, k, l)


def test_adjacency_examples():
    mv = is_p_adjacent(Profile({1: 2}), Profile({2: 1}), 2)
    assert mv is not None and (mv.a, mv.k, mv.l) == (0, 0, 2)
    mv = is_p_adjacent(Profile({5: 1, 3: 1}), Profile({4: 2}), 3)
    assert mv is not None and (mv.a, mv.k, mv.l) == (1, 3, 5)
    assert is_p_adjacent(Profile({2: 1}), Profile({2: 1}), 2) is None


def test_adjacency_window_matters():
    # the pair (3:1) vs (2:1,1:1) fits a window for p = 3 but not p = 2
    assert is_p_adjacent(Profile({3: 1}), Profile({2: 1, 1: 1}), 3) is not None
    assert is_p_adjacent(Profile({3: 1}), Profile({2: 1, 1: 1}), 2) is None


def test_adjacency_roundtrip_and_power_preservation():
    profs = [m for m in all_profiles_up_to(8)]
    for p in (2, 3):
        for m in profs:
            for m2 in profs:
                if size(m) != size(m2):
                    continue
                mv = is_p_adjacent(m, m2, p)
                if mv is None:
                    continue
                assert apply_move(m, mv) == m2
                assert profile_power(m, p) == profile_power(m2, p)
                back = is_p_adjacent(m2, m, p)
                assert back is not None and apply_move(m2, back) == m


def test_apply_move_examples():
    mv = AdjacencyMove(1, 2, 4, "forward", 2)
    assert apply_move(Profile({4: 1, 2: 1}), mv) == Profile({3: 2})
    assert apply_move(Profile({3: 2}), mv.flipped()) == Profile({4: 1, 2: 1})
    mv0 = AdjacencyMove(0, 0, 2, "forward", 2)
    assert apply_move(Profile({2: 1}), mv0) == Profile({1: 2})


def test_apply_move_negative_count_raises():
    mv = AdjacencyMove(1, 2, 4, "forward", 2)
    with pytest.raises(InvalidMoveError):
        apply_move(Profile({4: 1}), mv)


def test_move_window_validation():
    with pytest.raises(InvalidMoveError):
        AdjacencyMove(0, 0, 3, "forward", 2)  # 3 > 2*(0+1)
    with pytest.raises(InvalidMoveError):
        AdjacencyMove(0, 1, 2, "forward", 2)  # degenerate l = k+1


def test_enumerate_preimages_examples():
    assert enumerate_preimages(Profile({1: 2}), 2) == {Profile({1: 2}), Profile({2: 1})}
    assert enumerate_preimages(Profile({2: 1}), 2) == set()
    for n in (1, 3, 5):
        assert enumerate_preimages(Profile({1: n}), 1) == {Profile({1: n})}


def test_enumerate_preimages_is_exhaustive():
    for target in all_profiles_up_to(7):
        for p in (2, 3):
            got = enumerate_preimages(target, p)
            brute = {
                m for m in profiles_of_size(size(target)) if profile_power(m, p) == target
            }
            assert got == brute, (target, p)


def test_size_cap():
    with pytest.raises(SizeCapExceededError):
        enumerate_preimages(Profile({25: 1}), 2)
    assert enumerate_preimages(Profile({25: 1}), 2, cap=30) is not None


def test_partitions_count():
    assert sum(1 for _ in partitions(12)) == 77
    assert list(partitions(0)) == [()]
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]


def test_text_roundtrip():
    for m in all_profiles_up_to(6):
        assert Profile.from_text(m.to_text()) == m
    assert Profile.from_text("") == Profile()
    assert Profile({4: 1, 2: 1}).to_text() == "4:1,2:1"
    with pytest.raises(InputFormatError):
        Profile.from_text("4:1,4:2")
    with pytest.raises(InputFormatError):
        Profile.from_text("0:1")


def test_json_roundtrip():
    for m in all_profiles_up_to(5):
        assert Profile.from_json_obj(m.to_json_obj()) == m

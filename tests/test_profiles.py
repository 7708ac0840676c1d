import random
import time
from collections import Counter
from types import MappingProxyType

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
)


def all_profiles_up_to(n):
    for s in range(n + 1):
        yield from profiles_of_size(s)


def test_size_examples():
    assert Profile().size() == 0
    assert Profile({3: 1, 1: 2}).size() == 5
    assert Profile({2: 2, 1: 2}).size() == 6


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
            assert profile_power(m, p).size() == m.size()
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
                if m.size() != m2.size():
                    continue
                mv = is_p_adjacent(m, m2, p)
                if mv is None:
                    continue
                assert apply_move(m, mv) == m2
                assert profile_power(m, p) == profile_power(m2, p)
                back = is_p_adjacent(m2, m, p)
                assert back is not None and apply_move(m2, back) == m


def _signed_move_pattern(k, l):
    """e_k + e_l - e_(k+1) - e_(l-1) with e_0 dropped, as a dict."""
    out = Counter()
    for idx, sgn in ((k, 1), (l, 1), (k + 1, -1), (l - 1, -1)):
        if idx >= 1:
            out[idx] += sgn
    return {idx: c for idx, c in out.items() if c}


def _adjacency_from_difference(m, m2, p):
    """The move from m to m2 read off the signed difference m - m2: its
    positive part is e_k + e_l (just e_l when k = 0), and the whole
    difference must be the move's pattern, in a window of p."""
    if m == m2:
        return None
    diff = Counter(dict(m.items()))
    diff.subtract(dict(m2.items()))
    for sign, direction in ((1, "forward"), (-1, "backward")):
        signed = {idx: sign * c for idx, c in diff.items() if c}
        pos = sorted(idx for idx, c in signed.items() if c > 0)
        if len(pos) == 2 and all(signed[idx] == 1 for idx in pos):
            k, l = pos
        elif len(pos) == 1 and signed[pos[0]] == 1:
            k, l = 0, pos[0]
        else:
            continue
        if l < k + 2 or signed != _signed_move_pattern(k, l):
            continue
        a = max(-(-l // p) - 1, 0)
        if p * a <= k < l <= p * (a + 1):
            return AdjacencyMove(a, k, l, direction, p)
    return None


def _profiles_by_size(n):
    return [list(profiles_of_size(s)) for s in range(n + 1)]


def test_is_p_adjacent_agrees_with_the_signed_difference():
    for p in (1, 2, 3, 4):
        for same_size in _profiles_by_size(9):
            for m in same_size:
                for m2 in same_size:
                    assert is_p_adjacent(m, m2, p) == _adjacency_from_difference(m, m2, p), (m, m2, p)


def test_apply_move_agrees_with_explicit_shifts():
    profs = [m for same_size in _profiles_by_size(9) for m in same_size]
    for p in (2, 3, 4):
        for l in range(2, 10):
            a = (l - 1) // p
            for k in range(p * a, l - 1):
                for m in profs:
                    for direction, shifts in (
                        ("forward", ((k, -1), (l, -1), (k + 1, 1), (l - 1, 1))),
                        ("backward", ((k + 1, -1), (l - 1, -1), (k, 1), (l, 1))),
                    ):
                        move = AdjacencyMove(a, k, l, direction, p)
                        try:
                            expected = m.shifted(shifts)
                        except InvalidMoveError:
                            with pytest.raises(InvalidMoveError):
                                apply_move(m, move)
                        else:
                            assert apply_move(m, move) == expected, (m, move)


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
                m for m in profiles_of_size(target.size()) if profile_power(m, p) == target
            }
            assert got == brute, (target, p)


def test_enumerate_preimages_cost_does_not_grow_with_p():
    start = time.perf_counter()
    got = enumerate_preimages(Profile({1: 3}), 10**9)
    assert got == {Profile({3: 1}), Profile({2: 1, 1: 1}), Profile({1: 3})}
    assert time.perf_counter() - start < 1.0


def test_equal_profiles_are_equal_however_built():
    built = [
        Profile({3: 1, 1: 2}),
        Profile({1: 2, 3: 1, 2: 0}),
        Profile([(1, 1), (3, 1), (1, 1)]),
        Profile(Counter({3: 1, 1: 2})),
        Profile(MappingProxyType({3: 1, 1: 2})),
        Profile.from_partition((1, 3, 1)),
        Profile.from_text("3:1,1:2"),
        Profile({3: 1}).plus(1, 2),
        Profile({3: 1, 1: 3, 2: 1}).plus(2, -1).plus(1, -1),
        Profile({3: 1}) + Profile({1: 2}),
        Profile() + Profile({1: 2}) + Profile.single(3),
    ]
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0]), m
        assert m.items() == [(3, 1), (1, 2)]
    assert len(set(built)) == 1
    assert {built[0]: "x"}[built[-1]] == "x"
    assert built[0] not in {Profile({3: 1, 1: 1}), Profile({2: 1, 1: 3})}


def test_size_cap(monkeypatch):
    with pytest.raises(SizeCapExceededError):
        enumerate_preimages(Profile({25: 1}), 2)
    monkeypatch.setenv("NILPATH_SIZE_CAP", "30")
    assert enumerate_preimages(Profile({25: 1}), 2) is not None


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

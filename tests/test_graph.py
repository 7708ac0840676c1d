import random
import time

import pytest

from nilpath.errors import PowerMismatchError
from nilpath.graph import build_graph, export_dot, is_connected, profile_chain
from nilpath.profiles import (
    AdjacencyMove,
    Profile,
    apply_move,
    is_p_adjacent,
    profile_power,
    profiles_of_size,
)


def test_build_graph_examples():
    g = build_graph(Profile({1: 2}), 2)
    assert set(g.vertices) == {Profile({1: 2}), Profile({2: 1})}
    assert len(g.edges) == 1

    g = build_graph(Profile({2: 1}), 2)
    assert g.vertices == () and g.edges == ()

    g = build_graph(Profile({1: 1}), 3)
    assert g.vertices == (Profile({1: 1}),) and g.edges == ()


def test_graph_invariants():
    g = build_graph(Profile({2: 2, 1: 2}), 2)
    for v in g.vertices:
        assert profile_power(v, 2) == g.target
    for u, v, mv in g.edges:
        assert u != v
        assert apply_move(u, mv) == v


def _all_pairs_edges(vertices, p):
    """Reference: test every pair of vertices, in vertex order."""
    edges = []
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            move = is_p_adjacent(u, v, p)
            if move is not None:
                edges.append((u, v, move))
    return tuple(edges)


def _power_images_up_to(n, p):
    images = {}
    for s in range(n + 1):
        for m in profiles_of_size(s):
            images.setdefault(profile_power(m, p), None)
    return list(images)


def test_build_graph_matches_all_pairs_scan():
    for p in (2, 3, 4):
        for target in _power_images_up_to(12, p):
            g = build_graph(target, p)
            assert list(g.vertices) == sorted(g.vertices, key=Profile.partition, reverse=True)
            assert g.edges == _all_pairs_edges(g.vertices, p), (target, p)


def test_is_connected_examples():
    assert is_connected(build_graph(Profile({1: 2}), 2))
    assert is_connected(build_graph(Profile({2: 1}), 2))  # empty graph
    assert is_connected(build_graph(Profile({2: 2, 1: 2}), 2))


def test_graph_of_power_images_is_connected():
    for s in range(0, 9):
        for m in profiles_of_size(s):
            for p in (2, 3):
                assert is_connected(build_graph(profile_power(m, p), p)), (m, p)


def test_profile_chain_trivial():
    m = Profile({3: 1, 1: 1})
    ch = profile_chain(m, m, 2)
    assert ch.steps == (m,)
    assert ch.moves == ()


def test_profile_chain_examples():
    ch = profile_chain(Profile({1: 2}), Profile({2: 1}), 2)
    assert [s.to_text() for s in ch.steps] == ["1:2", "2:1"]
    ch = profile_chain(Profile({4: 1, 2: 1}), Profile({3: 2}), 2)
    assert [s.to_text() for s in ch.steps] == ["4:1,2:1", "3:2"]


def test_profile_chain_requires_equal_power():
    with pytest.raises(PowerMismatchError):
        profile_chain(Profile({3: 1}), Profile({1: 3}), 2)


def _validate_chain(ch, p):
    assert len(ch.moves) == len(ch.steps) - 1
    base = profile_power(ch.steps[0], p)
    for step in ch.steps:
        assert profile_power(step, p) == base
    for s0, s1, mv in zip(ch.steps, ch.steps[1:], ch.moves):
        assert apply_move(s0, mv) == s1
        assert is_p_adjacent(s0, s1, p) == mv


def test_profile_chain_validates_everywhere():
    rng = random.Random(17)
    for s in range(2, 10):
        for p in (2, 3):
            profs = list(profiles_of_size(s))
            classes = {}
            for m in profs:
                classes.setdefault(profile_power(m, p), []).append(m)
            for group in classes.values():
                if len(group) < 2:
                    continue
                for _ in range(2):
                    m, m2 = rng.sample(group, 2)
                    _validate_chain(profile_chain(m, m2, p), p)


def _recursive_chain(m, m2, p):
    """Reference: strip one largest common cell per level, walk on disjoint supports."""
    if m == m2:
        return [m], []
    common = [k for k in m.support() if m2.get(k) > 0]
    if common:
        k = max(common)
        steps, moves = _recursive_chain(m.plus(k, -1), m2.plus(k, -1), p)
        return [s.plus(k, 1) for s in steps], moves
    q = max(m.max_index(), m2.max_index())
    swapped = m2.get(q) == 0
    if swapped:
        m, m2 = m2, m
    a = -(-q // p) - 1
    steps, moves, cur = [m], [], m
    while cur.get(q) == 0:
        k = max(i for i in range(p * a + 1, p * (a + 1) + 1) if cur.get(i) > 0)
        if cur.get(k) > 1:
            move = AdjacencyMove(a, k - 1, k + 1, "backward", p)
        else:
            l = max(i for i in range(p * a + 1, k) if cur.get(i) > 0)
            move = AdjacencyMove(a, l - 1, k + 1, "backward", p)
        cur = apply_move(cur, move)
        steps.append(cur)
        moves.append(move)
    rest_steps, rest_moves = _recursive_chain(cur, m2, p)
    steps, moves = steps[:-1] + rest_steps, moves + rest_moves
    if swapped:
        steps.reverse()
        moves = [mv.flipped() for mv in reversed(moves)]
    return steps, moves


def test_chain_matches_one_cell_at_a_time_recursion():
    for p in (2, 3):
        for s in range(1, 13):
            classes = {}
            for m in profiles_of_size(s):
                classes.setdefault(profile_power(m, p), []).append(m)
            for group in classes.values():
                for m in group:
                    for m2 in group:
                        steps, moves = _recursive_chain(m, m2, p)
                        ch = profile_chain(m, m2, p)
                        assert (ch.steps, ch.moves) == (tuple(steps), tuple(moves)), (m, m2, p)


def test_chain_depth_does_not_grow_with_common_cells():
    ch = profile_chain(Profile({2: 1, 1: 2000}), Profile({1: 2002}), 2)
    assert [s.to_text() for s in ch.steps] == ["2:1,1:2000", "1:2002"]
    assert ch.moves == (AdjacencyMove(0, 0, 2, "forward", 2),)
    # 1000 walks, each followed by a strip of one common cell: a recursion
    # per phase would go 2000 levels deep
    ch = profile_chain(Profile({2: 1000}), Profile({1: 2000}), 2)
    assert len(ch.steps) == 1001
    _validate_chain(ch, 2)


def test_chain_cost_does_not_grow_with_p():
    start = time.perf_counter()
    ch = profile_chain(Profile({3: 1}), Profile({2: 1, 1: 1}), 10**9)
    assert ch.moves == (AdjacencyMove(0, 0, 3, "forward", 10**9),)
    assert time.perf_counter() - start < 1.0


def test_chain_walks_inside_graph():
    p = 2
    target = Profile({2: 2, 1: 2})
    g = build_graph(target, p)
    edge_pairs = {frozenset((u, v)) for u, v, _ in g.edges}
    verts = list(g.vertices)
    for i, m in enumerate(verts):
        for m2 in verts[i + 1 :]:
            ch = profile_chain(m, m2, p)
            for s0, s1 in zip(ch.steps, ch.steps[1:]):
                assert frozenset((s0, s1)) in edge_pairs


def test_export_dot():
    g = build_graph(Profile({2: 1}), 2)
    dot = export_dot(g)
    assert dot.startswith("graph profiles_p2 {")
    assert dot.rstrip().endswith("}")

    g = build_graph(Profile({1: 2}), 2)
    dot = export_dot(g)
    assert '"2:1";' in dot
    assert '"1:2";' in dot
    assert dot.count(" -- ") == 1
    assert '[label="(0,0,2)"]' in dot


def test_report_object():
    g = build_graph(Profile({1: 2}), 2)
    rep = g.to_report_obj()
    assert set(rep) == {
        "p",
        "target",
        "vertexCount",
        "edgeCount",
        "connected",
        "vertices",
        "edges",
    }
    assert rep["vertexCount"] == 2
    assert rep["edgeCount"] == 1
    assert rep["connected"] is True
    assert rep["target"] == "1:2"

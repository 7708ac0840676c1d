import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from nilpath.errors import (
    InputFormatError,
    MissingCellsError,
    PowerMismatchError,
    WindowViolationError,
)
import nilpath.jordan as jordan_module
from nilpath.graph import _forward_moves
from nilpath.jordan import JordanDecomposition, jordan_basis, nilpotent_profile, profile_matrix, similarity_witness
from nilpath.matrix import (
    Matrix,
    _ints,
    det,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
    rank,
)
import nilpath.paths as paths_module
from nilpath.paths import (
    AdjacencySegment,
    adjacency_segment,
    basic_family,
    centralizer_segment,
    certify_lift_interval,
    connect_roots,
    lift_family,
    LiftCore,
    path_from_json_obj,
    RootPath,
    verify,
)
from nilpath.polynomials import RatPoly, poly_matrix_det
from nilpath.profiles import AdjacencyMove, Profile, _window_a, apply_move, profiles_of_size
from nilpath.scalar import Scalar, format_rational

from helpers import random_invertible, unvec


def conjugate(m, p):
    return matrix_mul(p, matrix_mul(m, inverse(p)))


# -- basic family -------------------------------------------------------------


def test_basic_family_at_zero():
    for k, l in ((2, 4), (0, 2), (1, 3)):
        assert basic_family(k, l, 0) == direct_sum([jordan_cell(k), jordan_cell(l)])


def test_basic_family_endpoint_profile():
    u1 = basic_family(2, 4, 1)
    assert nilpotent_profile(u1) == Profile({3: 2})
    u1 = basic_family(2, 3, 1)
    assert nilpotent_profile(u1) == Profile({3: 1, 2: 1})


def test_basic_family_small_square_is_zero():
    for num in range(0, 5):
        t = Fraction(num, 4)
        u = basic_family(1, 2, t)
        assert matrix_pow(u, 2).is_zero()


def test_basic_family_interior_profile():
    # AdjacencySegment.sample reads an interior sample's profile off U_t,
    # which is similar to J_l + J_k for 0 < t < 1
    for k, l in ((2, 4), (1, 3), (0, 2)):
        for t in (Fraction(1, 2), Fraction(1, 3), Fraction(999, 1000)):
            expected = Profile.from_partition(part for part in (l, k) if part)
            assert nilpotent_profile(basic_family(k, l, t)) == expected


# -- lift ---------------------------------------------------------------------


def test_lift_window_violation():
    with pytest.raises(WindowViolationError):
        lift_family(0, 3, 2)  # 3 > 2 = p*(a+1) for a = 0, and a >= 1 needs pa <= 0


def test_lift_endpoints():
    lift = lift_family(2, 4, 2)
    assert lift.gamma(0) == direct_sum([jordan_cell(2), jordan_cell(4)])
    assert nilpotent_profile(lift.gamma(1)) == Profile({3: 2})


def test_lift_constant_power():
    lift = lift_family(2, 4, 2)
    a0, _ = lift.power_curve
    for num in range(0, 9):
        t = Fraction(num, 8)
        assert matrix_pow(lift.gamma(t), 2) == a0


def test_lift_degenerate_base():
    lift = lift_family(0, 2, 2)  # base power is the zero matrix
    assert lift.power_curve[0].is_zero()
    for num in range(0, 5):
        t = Fraction(num, 4)
        assert matrix_pow(lift.gamma(t), 2).is_zero()
    assert nilpotent_profile(lift.gamma(1)) == Profile({1: 2})


def test_lift_higher_power():
    lift = lift_family(3, 4, 3)  # window a = 1: 3 <= 3 < 4 <= 6
    a0, _ = lift.power_curve
    for num in range(0, 7):
        t = Fraction(num, 6)
        assert matrix_pow(lift.gamma(t), 3) == a0
    assert nilpotent_profile(lift.gamma(1)) == Profile({4: 1, 3: 1})


def test_lift_battery_all_small_windows():
    # every admissible window with total dimension at most 7
    windows = set()
    for p in (2, 3, 4):
        for a in range(0, 3):
            for k in range(p * a, p * (a + 1)):
                for l in range(max(k + 1, 1), p * (a + 1) + 1):
                    if 2 <= k + l <= 7:
                        windows.add((k, l, p))
    assert len(windows) >= 15
    for k, l, p in sorted(windows):
        lift = lift_family(k, l, p)
        a0, _ = lift.power_curve
        for num in range(0, 7):
            t = Fraction(num, 6)
            assert matrix_pow(lift.gamma(t), p) == a0, (k, l, p, t)
        endpoint = nilpotent_profile(lift.gamma(1))
        assert endpoint == Profile.single(k + 1) + Profile.single(l - 1), (k, l, p)


# -- centralizer segments -------------------------------------------------------


def test_centralizer_identity_path():
    x = jordan_cell(3)
    a = matrix_pow(x, 2)
    seg = centralizer_segment(a, 2, x, x)
    assert seg.conjugator == Matrix.identity(3)
    for num in range(0, 5):
        assert seg.evaluate(Fraction(num, 4)) == x


def test_centralizer_e_fixture():
    x = jordan_cell(3)
    e = matrix_pow(x, 2)
    y = Matrix.from_rows([[0, 2, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])
    seg = centralizer_segment(e, 2, x, y)
    assert seg.start == x and seg.end == y
    for num in range(0, 11):
        m = seg.evaluate(Fraction(num, 10))
        assert matrix_pow(m, 2) == e
        # the root family of e: strictly upper triangular, (0,1)*(1,2) = 1
        assert m.data[0][1] * m.data[1][2] == Scalar(1)
        for i in range(3):
            for j in range(3):
                if (i, j) not in ((0, 1), (0, 2), (1, 2)):
                    assert m.data[i][j].is_zero()


def test_centralizer_detour_engages():
    # witness diag(1,-1,1) makes the blend determinant vanish at z = 1/2
    x = jordan_cell(3)
    e = matrix_pow(x, 2)
    y = x.scale(Scalar(-1))
    assert matrix_pow(y, 2) == e
    seg = centralizer_segment(e, 2, x, y)
    assert len(seg.waypoints) == 4  # three-piece detour
    assert all(c["ok"] for c in seg.pieces)
    assert seg.start == x and seg.end == y
    for num in range(0, 13):
        assert matrix_pow(seg.evaluate(Fraction(num, 12)), 2) == e


def test_centralizer_commutation_along_path():
    x = direct_sum([jordan_cell(3), jordan_cell(1)])
    a = matrix_pow(x, 2)
    d = Matrix.from_rows(
        [[1, 0, 0, 0], [0, Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 5]]
    )
    y = conjugate(x, d)
    assert matrix_pow(y, 2) == a
    seg = centralizer_segment(a, 2, x, y)
    for num in range(0, 7):
        s = Fraction(num, 6)
        z = seg._omega(s)
        qz = _blend(seg.conjugator, z)
        assert matrix_mul(qz, a) == matrix_mul(a, qz)


def _blend(q, z):
    """(1-z)I + zQ, formed entrywise."""
    return Matrix.identity(q.rows).scale(Scalar(1) - z) + q.scale(z)


def test_centralizer_evaluate_matches_inverse_form():
    # evaluate and end go through the low-rank factor of Q - I, not through q^-1
    x = jordan_cell(3)
    e = matrix_pow(x, 2)
    segments = [
        centralizer_segment(e, 2, x, x.scale(Scalar(-1))),  # complex detour
        centralizer_segment(e, 2, x, Matrix.from_rows([[0, 2, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])),
    ]
    for seg in segments:
        assert seg.end == conjugate(seg.base_root, seg.conjugator)
        for num in range(0, 7):
            qz = _blend(seg.conjugator, seg._omega(Fraction(num, 6)))
            assert seg.evaluate(Fraction(num, 6)) == conjugate(seg.base_root, qz)


def _centralizer(x, q, waypoints):
    """A centralizer segment from x through the blends of q, uncertified."""
    waypoints = tuple(Scalar(w) if not isinstance(w, Scalar) else w for w in waypoints)
    return paths_module.CentralizerSegment(x, paths_module.BlendFactor(q), waypoints)


def test_centralizer_segment_is_what_its_json_rebuilds():
    # Q = I + E_13 commutes with A = X^2 for X = J_3 + J_1; the segment holds
    # Q in its blend factor alone, so its JSON reloads to a segment that
    # verify certifies with the same bytes
    x = direct_sum([jordan_cell(3), jordan_cell(1)])
    q = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    seg = _centralizer(x, q, (0, 1))
    assert seg.conjugator is seg.blend.q
    path = RootPath(matrix_pow(x, 2), 2, (seg,))
    again = path_from_json_obj(json.loads(json.dumps(path.to_json_obj())))
    assert again.segments == (seg,)
    cert = json.dumps(verify(path, 4).to_json_obj())
    assert json.loads(cert)["ok"] is True
    assert json.dumps(verify(again, 4).to_json_obj()) == cert


def test_centralizer_low_rank_evaluation_matches_the_blend():
    # gamma(z) = B X B^-1 and end = Q X Q^-1, with B formed in the test
    import random

    rng = random.Random(18)
    half, i_unit = Fraction(1, 2), Scalar(0, 1)
    x = direct_sum([jordan_cell(3), jordan_cell(2)])
    straight = (0, 1)
    detour = (0, Scalar(0, half), Scalar(1, half), 1)
    diag = Matrix.from_rows([[(2, 3, half, 4, 5)[i] if i == j else 0 for j in range(5)] for i in range(5)])
    gaussian_u = Matrix.from_rows([[i_unit], [1], [0], [Scalar(half, -1)], [2]])
    gaussian_v = Matrix.from_rows([[0, 1, i_unit, 0, Fraction(-1, 3)]])
    cases = [
        (Matrix.identity(5), straight, 0),
        (diag, straight, 5),  # no eigenvalue 1: r = n
        (diag, detour, 5),
        (identity_plus_rank(5, 2, rng, [0, 1, -1, half]), detour, 2),
        (Matrix.identity(5) + matrix_mul(gaussian_u, gaussian_v), detour, 1),  # a Gaussian Q
        (random_gaussian_invertible(5, rng), detour, None),
    ]
    complex_samples = 0
    for q, waypoints, r in cases:
        seg = _centralizer(x, q, waypoints)
        assert seg.blend.c.cols == rank(q - Matrix.identity(5))
        if r is not None:
            assert seg.blend.c.cols == r
        assert seg.end == conjugate(x, q)
        for num in range(0, 7):
            s = Fraction(num, 6)
            z = seg._omega(s)
            if det(_blend(q, z)).is_zero():
                continue
            gamma, prof = seg.sample(s)
            assert gamma == conjugate(x, _blend(q, z)), (q, s)
            assert prof == nilpotent_profile(x)
            complex_samples += not z.is_real()
    assert complex_samples >= 16


def random_gaussian_invertible(n, rng):
    """A random invertible matrix with Gaussian entries in {0, 1, -1, i, 1 - i}."""
    entries = [0, 1, -1, Scalar(0, 1), Scalar(1, -1)]
    while True:
        m = Matrix.from_rows([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        if not det(m).is_zero():
            return m


def test_centralizer_sample_on_a_singular_blend_raises():
    # det B = 0 at the sample: z = 1/2 for Q = diag(-1, 1, 1) on the straight
    # segment, z = i/2 for Q = diag(1 + 2i, 1, 1) on the detour's corner
    from nilpath.errors import SingularMatrixError

    x = jordan_cell(3)
    half = Fraction(1, 2)
    for q, waypoints, s in (
        (Matrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]), (0, 1), half),
        (-Matrix.identity(3), (0, 1), half),
        (
            Matrix.from_rows([[Scalar(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]]),
            (0, Scalar(0, half), Scalar(1, half), 1),
            Fraction(1, 3),
        ),
    ):
        seg = _centralizer(x, q, waypoints)
        assert det(_blend(q, seg._omega(s))).is_zero()
        with pytest.raises(SingularMatrixError):
            seg.evaluate(s)


def test_connect_and_certified_verify_factor_the_blend_once(monkeypatch):
    calls = _record_calls(monkeypatch, "BlendFactor")
    dets = []
    determinant = paths_module._levels_det
    monkeypatch.setattr(paths_module, "_levels_det", lambda *args: dets.append(args) or determinant(*args))
    path = _catalog_path(2, (6, 4), (5, 5), 1)
    assert verify(path, 4).ok
    assert calls == [(path.segments[-1].conjugator,)]
    # the blend's r x r determinant, on the rows of RC, is taken once
    rows, dens = _ints(path.segments[-1].blend.rc)
    assert sum([level[0] for level in levels] == rows and d == dens for levels, d, _ in dets) == 1


def _blend_determinant_by_poly_det(q):
    """det((1-z)I + zQ) through poly_matrix_det, as it was computed before
    the integer eliminations at z = 0, ..., n."""
    n = q.rows
    one, zero = Scalar(1), Scalar(0)
    entries = [
        [RatPoly((one if i == j else zero, q.data[i][j] - (one if i == j else zero))) for j in range(n)]
        for i in range(n)
    ]
    return poly_matrix_det(entries, degree_bound=n)


def identity_plus_rank(n, r, rng, entries):
    """I + UV with U of size n x r and V of size r x n drawn from ``entries``:
    Q - I has rank at most r."""
    u = Matrix.from_rows([[rng.choice(entries) for _ in range(r)] for _ in range(n)])
    v = Matrix.from_rows([[rng.choice(entries) for _ in range(n)] for _ in range(r)])
    return Matrix.identity(n) + matrix_mul(u, v) if r else Matrix.identity(n)


def test_blend_determinant_matches_poly_matrix_det():
    import random

    half, i_unit = Fraction(1, 2), Scalar(0, 1)
    unipotent = direct_sum([jordan_cell(2)] * 2) + Matrix.identity(4)
    rng = random.Random(31)
    rationals = [0, 0, 1, -2, half, Fraction(-1, 3), Fraction(5, 7)]
    gaussians = [0, 1, i_unit, Scalar(half, -1), Scalar(Fraction(-2, 3), Fraction(1, 5))]
    qs = [
        Matrix.zeros(0, 0),
        Matrix.from_rows([[3]]),
        Matrix.from_rows([[i_unit]]),
        Matrix.zeros(3, 3),  # singular at the node z = 1
        Matrix.from_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]]),
        Matrix.from_rows([[1, 2, 0], [0, 1, half], [Fraction(-1, 3), 0, 5]]),
        Matrix.from_rows([[1, Scalar(half, 1), 0], [0, 1, i_unit], [Scalar(2, -3), 0, Fraction(2, 7)]]),
        similarity_witness(jordan_cell(4), conjugate(jordan_cell(4), unipotent)),
        Matrix.identity(5),  # Q - I = 0: rank 0
        Matrix.from_rows([[Fraction(1, 2), 0, 0], [0, Fraction(2, 3), 0], [0, 0, Fraction(-5, 7)]]),  # rank n
        # rows over different denominators
        Matrix.from_rows([[Fraction(1, 2), Fraction(1, 3), 0], [0, 1, Fraction(1, 5)], [Fraction(1, 7), 0, 2]]),
    ]
    qs += [identity_plus_rank(5, r, rng, rationals) for r in range(6)]
    qs += [identity_plus_rank(4, r, rng, gaussians) for r in range(5)]
    qs += [Matrix.from_rows([[rng.choice(gaussians) for _ in range(4)] for _ in range(4)])]
    ranks = set()
    for q in qs:
        got = paths_module.BlendFactor(q).determinant
        assert got == _blend_determinant_by_poly_det(q), q
        r = rank(q - Matrix.identity(q.rows))
        assert got.degree() <= r, q
        ranks.add((q.rows, r))
    assert {(5, r) for r in range(6)} <= ranks


def test_centralizer_power_mismatch():
    x = jordan_cell(3)
    with pytest.raises(PowerMismatchError):
        centralizer_segment(matrix_pow(x, 2), 2, x, jordan_cell(3).scale(Scalar(2)))


# -- adjacency segments -----------------------------------------------------------


def test_adjacency_forward_example():
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    mv = AdjacencyMove(1, 2, 4, "forward", 2)
    seg = adjacency_segment(a, 2, x, mv)
    assert seg.start == x
    assert nilpotent_profile(seg.end) == Profile({3: 2})
    for num in range(0, 9):
        assert matrix_pow(seg.evaluate(Fraction(num, 8)), 2) == a


def test_adjacency_zero_matrix_backward():
    z = Matrix.zeros(2, 2)
    mv = AdjacencyMove(0, 0, 2, "backward", 2)
    seg = adjacency_segment(z, 2, z, mv)
    assert seg.start == z
    assert nilpotent_profile(seg.end) == Profile({2: 1})
    for num in range(0, 5):
        assert matrix_pow(seg.evaluate(Fraction(num, 4)), 2).is_zero()


def test_adjacency_missing_cells():
    x = direct_sum([jordan_cell(3), jordan_cell(3)])
    a = matrix_pow(x, 2)
    mv = AdjacencyMove(1, 2, 4, "forward", 2)
    with pytest.raises(MissingCellsError):
        adjacency_segment(a, 2, x, mv)


def test_adjacency_with_bystander_cells():
    x = direct_sum([jordan_cell(4), jordan_cell(2), jordan_cell(1)])
    a = matrix_pow(x, 2)
    mv = AdjacencyMove(1, 2, 4, "forward", 2)
    seg = adjacency_segment(a, 2, x, mv)
    assert seg.start == x
    assert nilpotent_profile(seg.end) == apply_move(nilpotent_profile(x), mv)
    for num in range(0, 5):
        assert matrix_pow(seg.evaluate(Fraction(num, 4)), 2) == a


def test_adjacency_cell_pick_pinned():
    # every forward move from every profile of size <= 9 for p = 2..4, and
    # its flipped backward move from the moved profile: bystanders with
    # repeated sizes, and backward moves with l = k + 2 that take two cells
    # of one size, each root conjugated by a seeded unimodular L U; sha256
    # of the segment JSON as first recorded
    rng = random.Random(32)
    digest, count = hashlib.sha256(), 0
    for n in range(1, 10):
        for u in profiles_of_size(n):
            for p in (2, 3, 4):
                for v, move in _forward_moves(u, p):
                    for start, mv in ((u, move), (v, move.flipped())):
                        x = conjugate(profile_matrix(start), _unimodular(n, rng))
                        seg = adjacency_segment(matrix_pow(x, p), p, x, mv)
                        digest.update(json.dumps(seg.to_json_obj()).encode())
                        count += 1
    assert count == 562
    assert digest.hexdigest() == "0fcb8009cff020f1889017a79f32d8aeec1ec0c2088d940c2d2e2463f3a1e279"


# -- connect + verify ---------------------------------------------------------------


def test_connect_identical_roots():
    x = direct_sum([jordan_cell(2), jordan_cell(1)])
    a = matrix_pow(x, 2)
    path = connect_roots(a, 2, x, x)
    assert len(path.segments) == 1
    assert path.segments[0].kind == "centralizer"
    for num in range(0, 5):
        assert path.evaluate(Fraction(num, 4)) == x


def test_connect_main_example():
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    y = conjugate(model, s)
    path = connect_roots(a, 2, x, y)
    assert [seg.kind for seg in path.segments] == ["adjacency", "centralizer"]
    assert path.start == x and path.end == y
    cert = verify(path, 25)
    assert cert.ok
    assert all(res for _, res, _ in cert.samples)
    assert {p for _, _, p in cert.samples} <= {Profile({4: 1, 2: 1}), Profile({3: 2})}


def test_connect_zero_matrix_crossing():
    z = Matrix.zeros(2, 2)
    j2 = jordan_cell(2)
    path = connect_roots(z, 2, z, j2)
    assert path.evaluate(0) == z
    assert path.evaluate(1) == j2
    cert = verify(path, 40)
    assert cert.ok
    profs = {p for _, _, p in cert.samples}
    assert profs == {Profile({1: 2}), Profile({2: 1})}


def test_connect_power_mismatch():
    x = jordan_cell(3)
    a = matrix_pow(x, 2)
    with pytest.raises(PowerMismatchError):
        connect_roots(a, 2, x, jordan_cell(3).scale(Scalar(2)))


def test_connect_longer_chain():
    # p = 2, target profile {1:4}: zero 4x4 matrix; roots range over sizes
    z = Matrix.zeros(4, 4)
    x = z
    y = direct_sum([jordan_cell(2), jordan_cell(2)])
    path = connect_roots(z, 2, x, y)
    cert = verify(path, 30)
    assert cert.ok


def test_connect_three_move_chain():
    z = Matrix.zeros(6, 6)
    x = z
    y = direct_sum([jordan_cell(2), jordan_cell(2), jordan_cell(2)])
    path = connect_roots(z, 2, x, y)
    assert sum(1 for s in path.segments if s.kind == "adjacency") == 3
    cert = verify(path, 36)
    assert cert.ok
    profs = {p for _, _, p in cert.samples}
    assert Profile({1: 6}) in profs and Profile({2: 3}) in profs


def test_connect_main_example_reversed():
    # same endpoints swapped: exercises a backward move on a 6x6 root
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    y = conjugate(model, s)
    path = connect_roots(a, 2, y, x)
    assert path.start == y and path.end == x
    adj = [seg for seg in path.segments if seg.kind == "adjacency"]
    assert len(adj) == 1 and adj[0].reversed_time
    cert = verify(path, 25)
    assert cert.ok


def test_connect_cube_roots():
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 3)
    assert nilpotent_profile(a) == Profile({2: 1, 1: 4})
    model = direct_sum([jordan_cell(4), jordan_cell(1), jordan_cell(1)])
    s = similarity_witness(matrix_pow(model, 3), a)
    y = conjugate(model, s)
    path = connect_roots(a, 3, x, y)
    assert path.start == x and path.end == y
    cert = verify(path, 24)
    assert cert.ok


def test_path_segments_stitch_exactly():
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    y = conjugate(model, s)
    path = connect_roots(a, 2, x, y)
    for s0, s1 in zip(path.segments, path.segments[1:]):
        assert s0.end == s1.start


def test_path_json_roundtrip():
    z = Matrix.zeros(2, 2)
    path = connect_roots(z, 2, z, jordan_cell(2))
    obj = path.to_json_obj()
    text = json.dumps(obj)
    again = path_from_json_obj(json.loads(text))
    assert again.start == path.start and again.end == path.end
    for num in range(0, 9):
        t = Fraction(num, 8)
        assert again.evaluate(t) == path.evaluate(t)
    assert json.dumps(again.to_json_obj()) == text


def test_path_json_roundtrip_with_complex_detour():
    x = jordan_cell(3)
    e = matrix_pow(x, 2)
    y = x.scale(Scalar(-1))
    path = connect_roots(e, 2, x, y)
    detours = [s for s in path.segments if s.kind == "centralizer"]
    assert any(len(s.waypoints) == 4 for s in detours)  # complex corners present
    text = json.dumps(path.to_json_obj())
    again = path_from_json_obj(json.loads(text))
    for num in range(0, 13):
        t = Fraction(num, 12)
        assert again.evaluate(t) == path.evaluate(t)
    assert json.dumps(again.to_json_obj()) == text


def test_centralizer_records_come_from_the_waypoints():
    # the path JSON stores the waypoints alone; the certificate holds one
    # record per detour piece, each certified
    x = jordan_cell(3)
    path = connect_roots(matrix_pow(x, 2), 2, x, x.scale(Scalar(-1)))
    centralizers = [s for s in path.to_json_obj()["segments"] if s["kind"] == "centralizer"]
    assert [sorted(s) for s in centralizers] == [["baseRoot", "conjugator", "kind", "waypoints"]]
    records = [c["pieces"] for c in verify(path, 4).segment_certifications if c["kind"] == "centralizer"]
    assert records == [
        [{"from": w0, "to": w1, "ok": True} for w0, w1 in zip(s["waypoints"], s["waypoints"][1:])]
        for s in centralizers
    ]


def test_stored_centralizer_certifications_change_nothing(tmp_path, capsys):
    # verify recomputes every detour record, so no stored certifications
    # value, false, forged or not a list, moves what it prints or returns
    from nilpath.cli import main

    x = jordan_cell(3)
    detour = connect_roots(matrix_pow(x, 2), 2, x, x.scale(Scalar(-1))).to_json_obj()
    # Q = -I: the blend (1 - 2z)I is singular at z = 1/2
    singular = _constant_path_obj(Matrix.zeros(2, 2), jordan_cell(2))
    singular["segments"][0]["conjugator"] = matrix_to_json_obj(Matrix.identity(2).scale(Scalar(-1)))
    stored = tmp_path / "path.json"
    for obj, code in ((detour, 0), (singular, 1)):
        fresh = verify(path_from_json_obj(obj), 4).to_json_obj()
        assert fresh["ok"] is (code == 0)
        stored.write_text(json.dumps(obj))
        assert main(["verify", str(stored), "--samples", "4"]) == code
        printed = capsys.readouterr().out
        for records in (
            [{"ok": False}],
            [{"from": "0/1", "to": "1/1", "ok": True, "note": "never checked"}],
            "not a list",
        ):
            carried = json.loads(json.dumps(obj))
            carried["segments"][-1]["certifications"] = records
            assert verify(path_from_json_obj(carried), 4).to_json_obj() == fresh, records
            stored.write_text(json.dumps(carried))
            assert main(["verify", str(stored), "--samples", "4"]) == code, records
            assert capsys.readouterr().out == printed, records


def test_certificate_json_schema():
    z = Matrix.zeros(2, 2)
    path = connect_roots(z, 2, z, jordan_cell(2))
    cert = verify(path, 4).to_json_obj()
    assert set(cert) == {"samples", "segmentCertifications", "ok"}
    for sample in cert["samples"]:
        assert set(sample) == {"t", "residualZero", "profile"}
        assert isinstance(sample["t"], str) and "/" in sample["t"]
    pathobj = path.to_json_obj()
    assert set(pathobj) == {"A", "p", "endpoints", "segments"}
    assert set(pathobj["endpoints"]) == {"X", "Y"}


def _constant_path_obj(a, x):
    """A path JSON with target a and one centralizer segment that stays at x."""
    ident = matrix_to_json_obj(Matrix.identity(x.rows))
    return {
        "A": matrix_to_json_obj(a),
        "p": 2,
        "endpoints": {"X": matrix_to_json_obj(x), "Y": matrix_to_json_obj(x)},
        "segments": [
            {"kind": "centralizer", "baseRoot": matrix_to_json_obj(x), "conjugator": ident, "waypoints": ["0", "1"]}
        ],
    }


def test_verify_rejects_samples_that_are_not_roots():
    # I is not nilpotent: its samples record no profile; J4 is nilpotent
    # but J4^2 != 0: its samples record its profile
    z = Matrix.zeros(4, 4)
    for x, profile in ((Matrix.identity(4), None), (jordan_cell(4), "4:1")):
        path = path_from_json_obj(_constant_path_obj(z, x))
        cert = verify(path, 3)
        assert not cert.ok
        samples = cert.to_json_obj()["samples"]
        assert [(s["residualZero"], s["profile"]) for s in samples] == [(False, profile)] * 4


def test_verify_certified_mode():
    z = Matrix.zeros(2, 2)
    path = connect_roots(z, 2, z, jordan_cell(2))
    cert = verify(path, 10)
    assert cert.ok
    assert "mode" not in cert.to_json_obj()
    kinds = {c["kind"] for c in cert.segment_certifications}
    assert kinds == {"adjacency", "centralizer"}


def test_verify_fails_when_a_lift_chart_is_unproven(monkeypatch, tmp_path, capsys):
    # every verify certifies: a lift without a proof fails the path, whatever
    # mode= the caller passes
    from nilpath.cli import main

    a, x, y = fixture_42_33()
    path = connect_roots(a, 2, x, y)
    monkeypatch.setattr(
        paths_module,
        "certify_lift_interval",
        lambda lift: {"ok": False},
    )
    for kwargs in ({}, {"mode": "sampled"}, {"mode": "certified"}):
        assert verify(path, 4, **kwargs).ok is False
    stored = tmp_path / "path.json"
    stored.write_text(json.dumps(path.to_json_obj()))
    assert main(["verify", str(stored), "--samples", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_certified_path_json_keeps_certifications():
    x = direct_sum([jordan_cell(2), jordan_cell(1)])
    a = matrix_pow(x, 2)
    z3 = Matrix.zeros(3, 3)
    assert a == z3  # (J2+J1)^2 = 0
    path = connect_roots(a, 2, x, z3)
    obj = path.to_json_obj()
    again = path_from_json_obj(json.loads(json.dumps(obj)))
    cert = verify(again, 8)
    assert cert.ok
    for seg_cert in cert.segment_certifications:
        assert seg_cert["ok"]


def test_certified_verify_ignores_stored_certifications():
    x = direct_sum([jordan_cell(2), jordan_cell(1)])
    path = connect_roots(matrix_pow(x, 2), 2, x, Matrix.zeros(3, 3))
    obj = path.to_json_obj()
    tampered = json.loads(json.dumps(obj))
    adjacency = [s for s in tampered["segments"] if s["kind"] == "adjacency"]
    assert adjacency
    for seg in adjacency:
        seg["certifications"] = [{"ok": True}]
    fresh = verify(path, 4).to_json_obj()
    for stored in (obj, tampered):
        again = path_from_json_obj(json.loads(json.dumps(stored)))
        assert verify(again, 4).to_json_obj() == fresh


def fixture_42_33():
    # (4,2) -> (3,3) at p = 2: one (2,4,2) lift, with a nonzero step F
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    return a, x, conjugate(model, similarity_witness(matrix_pow(model, 2), a))


def roundtrip_paths():
    """Paths with a forward move, a backward move and both, the (4,2) -> (3,3)
    fixture and its reverse among them."""
    a, x, y = fixture_42_33()
    z = Matrix.zeros(2, 2)
    x411 = direct_sum([jordan_cell(4), jordan_cell(1), jordan_cell(1)])
    a411 = matrix_pow(x411, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    y33 = conjugate(model, similarity_witness(matrix_pow(model, 2), a411))
    return [
        connect_roots(a, 2, x, y),
        connect_roots(a, 2, y, x),
        connect_roots(z, 2, z, jordan_cell(2)),
        connect_roots(a411, 2, x411, y33),
    ]


def test_connect_evaluates_each_adjacency_endpoint_once(monkeypatch):
    calls = {}
    evaluate = paths_module.AdjacencySegment.evaluate

    def counted(seg, s):
        key = (id(seg), Fraction(s))
        calls[key] = calls.get(key, 0) + 1
        return evaluate(seg, s)

    monkeypatch.setattr(paths_module.AdjacencySegment, "evaluate", counted)
    a, x, y = fixture_42_33()
    for start, end, backward in ((x, y, False), (y, x, True)):
        calls.clear()
        path = connect_roots(a, 2, start, end)
        (seg,) = [s for s in path.segments if s.kind == "adjacency"]
        assert seg.reversed_time == backward
        assert calls == {(id(seg), Fraction(0)): 1, (id(seg), Fraction(1)): 1}


def test_path_json_roundtrip_rebuilds_lifts():
    directions = set()
    for path in roundtrip_paths():
        obj = path.to_json_obj()
        text = json.dumps(obj)
        again = path_from_json_obj(json.loads(text))
        for seg_obj, seg, seg_again in zip(obj["segments"], path.segments, again.segments):
            if seg.kind == "adjacency":
                assert set(seg_obj) == {"kind", "move", "outerConjugator", "bystander"}
                directions.add(seg.move.direction)
                assert seg_again.reversed_time == seg.reversed_time
                assert seg_again.lift.step == seg.lift.step
        for num in range(0, 9):
            t = Fraction(num, 8)
            assert again.evaluate(t) == path.evaluate(t)
        fresh = json.dumps(verify(path, 4).to_json_obj())
        assert json.dumps(verify(again, 4).to_json_obj()) == fresh
        assert json.dumps(again.to_json_obj()) == text
    assert directions == {"forward", "backward"}


def with_old_lift_keys(seg_obj, seg):
    """The adjacency segment keys that older files carry besides the move:
    a two-chart lift's partition, conjugators and intervals."""
    lift = seg.lift
    half = Fraction(1, 2)
    ident = matrix_to_json_obj(Matrix.identity(lift.k + lift.l))
    seg_obj.update(
        k=lift.k,
        l=lift.l,
        p=lift.p,
        reversedTime=seg.reversed_time,
        partition=[format_rational(t) for t in (Fraction(0), half, Fraction(1))],
        liftConjugators=[matrix_to_json_obj(lift.q_at(t)) for t in (0, half, 1)],
        liftIntervals=[
            {"left": format_rational(left), "right": format_rational(right), "anchor": ident, "correction": ident}
            for left, right in ((Fraction(0), half), (half, Fraction(1)))
        ],
        certifications=None,
    )


def test_path_json_ignores_old_lift_keys():
    a, x, y = fixture_42_33()
    path = connect_roots(a, 2, x, y)
    obj = path.to_json_obj()
    old = json.loads(json.dumps(obj))
    for seg_obj, seg in zip(old["segments"], path.segments):
        if seg.kind == "adjacency":
            with_old_lift_keys(seg_obj, seg)
    garbled = json.loads(json.dumps(old))
    for seg_obj in garbled["segments"]:
        if seg_obj["kind"] == "adjacency":
            seg_obj.update(k=0, l=2, p=5, reversedTime=True, partition=["0/1"])
            seg_obj["liftConjugators"][1] = matrix_to_json_obj(Matrix.zeros(6, 6))
    fresh = json.dumps(verify(path, 6).to_json_obj())
    for stored in (old, garbled):
        again = path_from_json_obj(json.loads(json.dumps(stored)))
        assert json.dumps(verify(again, 6).to_json_obj()) == fresh
        assert again.to_json_obj() == obj


def test_path_json_rejects_tampered_endpoints():
    a, x, y = fixture_42_33()
    obj = connect_roots(a, 2, x, y).to_json_obj()
    for end, replacement in (("X", y), ("Y", x), ("Y", Matrix.zeros(6, 6))):
        bad = json.loads(json.dumps(obj))
        bad["endpoints"][end] = matrix_to_json_obj(replacement)
        with pytest.raises(InputFormatError, match=f"endpoint {end}"):
            path_from_json_obj(bad)
    missing = json.loads(json.dumps(obj))
    del missing["endpoints"]
    with pytest.raises(InputFormatError):
        path_from_json_obj(missing)


def test_path_json_checks_moves_before_lifting(monkeypatch):
    z = Matrix.zeros(2, 2)
    obj = connect_roots(z, 2, z, jordan_cell(2)).to_json_obj()
    assert obj["segments"][0]["move"] == {"a": 0, "k": 0, "l": 2, "direction": "backward", "p": 2}
    lifted = []
    monkeypatch.setattr(paths_module, "lift_family", lambda *args: lifted.append(args))
    for field, value, message in (
        ("p", 3, "move has p = 3 but the path has p = 2"),
        ("l", 5, "window violation"),
        ("direction", "sideways", "direction"),
    ):
        bad = json.loads(json.dumps(obj))
        bad["segments"][0]["move"][field] = value
        with pytest.raises(InputFormatError, match=message):
            path_from_json_obj(bad)
    bad = json.loads(json.dumps(obj))
    bad["segments"][0]["bystander"] = matrix_to_json_obj(Matrix.zeros(1, 1))
    with pytest.raises(InputFormatError, match="k \\+ l more rows"):
        path_from_json_obj(bad)
    assert lifted == []


def test_certified_mode_on_nontrivial_lift():
    lift = lift_family(2, 3, 2)
    assert certify_lift_interval(lift) == {"ok": True}
    a0, _ = lift.power_curve
    for num in range(0, 7):
        assert matrix_pow(lift.gamma(Fraction(num, 6)), 2) == a0


def test_certified_lift_on_large_windows():
    for k, l, p in ((3, 5, 3), (4, 6, 2)):
        lift = lift_family(k, l, p)
        assert certify_lift_interval(lift) == {"ok": True}
        a0, _ = lift.power_curve
        for t in (Fraction(1, 3), Fraction(7, 8), Fraction(1)):
            assert matrix_pow(lift.gamma(t), p) == a0, (k, l, p, t)


def _seed_last(k, l):
    """Pi, which moves the last of k + l basis vectors to position k: its
    columns are e_0 .. e_(k-1), e_(k+l-1), e_k .. e_(k+l-2)."""
    n = k + l
    order = [*range(k), n - 1, *range(k, n - 1)]
    return Matrix.from_rows([[int(i == order[j]) for j in range(n)] for i in range(n)])


def test_every_adjacency_window_lifts_by_one_shear():
    # every window with p = 2..8 and k + l <= 28: the lift is I + tF, its
    # three identities hold, and they lock gamma(t)^p onto A0; U_1 is the
    # cells (k+1, l-1) with y_1 moved to position k
    windows = [
        (k, l, p)
        for p in range(2, 9)
        for l in range(1, 29)
        for k in range(l)
        if k + l <= 28 and _window_a(k, l, p) is not None
    ]
    assert len(windows) == 302
    third = Fraction(1, 3)
    for k, l, p in windows:
        lift = lift_family(k, l, p)
        assert certify_lift_interval(lift) == {"ok": True}, (k, l, p)
        a0, _ = lift.power_curve
        identity = Matrix.identity(k + l)
        assert lift.q_at(third) == identity + lift.step.scale(Scalar(third)), (k, l, p)
        assert lift.q_at(1) == identity + lift.step, (k, l, p)
        assert matrix_pow(lift.gamma(third), p) == a0, (k, l, p)
        end = lift.gamma(1)
        assert matrix_pow(end, p) == a0, (k, l, p)
        assert nilpotent_profile(end) == Profile.from_partition(s for s in (k + 1, l - 1) if s), (k, l, p)
        pi = _seed_last(k, l)
        u1 = matrix_mul(pi, matrix_mul(_model((k + 1, l - 1)), pi.transpose()))
        assert lift.family_matrix(1) == u1, (k, l, p)


def test_backward_segments_align_in_closed_form():
    # a backward move starts at gamma(1) = (I - F) U_1 (I + F), and
    # U_1 = Pi (J_(k+1) + J_(l-1)) Pi^-1, so a root S (J_2 + J_(k+1) + J_(l-1))
    # S^-1, given S as its Jordan basis with the cells already in the order
    # the segment puts them, gets the outer conjugator S (I_2 + Pi^-1 q(1)),
    # on every window with k + l <= 12
    rng = random.Random(30)
    windows = [
        (k, l, p)
        for p in range(2, 9)
        for l in range(2, 13)
        for k in range(l - 1)
        if k + l <= 12 and _window_a(k, l, p) is not None
    ]
    assert len(windows) == 92
    for k, l, p in windows:
        sizes = (2, k + 1, l - 1)
        s = _unimodular(k + l + 2, rng)
        root = conjugate(_model(sizes), s)
        move = AdjacencyMove(_window_a(k, l, p), k, l, "backward", p)
        seg = adjacency_segment(matrix_pow(root, p), p, root, move, basis=JordanDecomposition(s, sizes))
        assert seg.start == root, (k, l, p)
        end_profile = Profile.from_partition(part for part in (2, k, l) if part)
        assert nilpotent_profile(seg.end) == end_profile, (k, l, p)
        closed = matrix_mul(_seed_last(k, l).transpose(), seg.lift.q_at(1))
        assert seg.outer == matrix_mul(s, direct_sum([Matrix.identity(2), closed])), (k, l, p)


def test_backward_paths_stored_with_a_solved_witness_still_verify(tmp_path):
    # a backward move's outer conjugator was once P w^-1, with P the root's
    # Jordan basis (two 3-cells, so no regrouping) and the similarity
    # w = similarity_witness(J_3 + J_3, gamma(1)) solved for; a path stored
    # that way still loads and verifies, with the closed form's samples
    a, y, x = fixture_42_33()
    new = connect_roots(a, 2, x, y)
    seg = new.segments[0]
    assert (seg.move.k, seg.move.l, seg.move.direction) == (2, 4, "backward") and len(new.segments) == 2
    w = similarity_witness(_model((3, 3)), seg.lift.gamma(1))
    old_outer = matrix_mul(jordan_basis(x).conjugator, inverse(w))
    old_seg = AdjacencySegment(old_outer, seg.bystander, seg.move)
    assert old_seg.outer != seg.outer and old_seg.start == x
    old = RootPath(a, 2, (old_seg, centralizer_segment(a, 2, old_seg.end, y)))
    stored = tmp_path / "old.json"
    stored.write_text(json.dumps(old.to_json_obj()))
    loaded = path_from_json_obj(json.loads(stored.read_text()))
    assert loaded.segments[0].outer == old_seg.outer
    cert = verify(loaded, 8)
    assert cert.ok
    assert cert.samples == verify(new, 8).samples


def test_a_changed_lift_step_is_not_certified(monkeypatch, tmp_path, capsys):
    # one entry of F changed where gamma(1) stays the same: a stored path
    # across the window still loads, and at t = 0, 1/2, 1 its samples are
    # roots, but the lift's certificate fails, and with it verify
    from nilpath.cli import main

    a, x, y = fixture_42_33()
    stored = tmp_path / "path.json"
    stored.write_text(json.dumps(connect_roots(a, 2, x, y).to_json_obj()))
    assert main(["verify", str(stored), "--samples", "2"]) == 0
    capsys.readouterr()
    lift = lift_family(2, 4, 2)
    n = lift.k + lift.l
    for i, j in ((0, 4), (0, 5)):
        rows = [list(row) for row in lift.step.data]
        rows[i][j] = rows[i][j] + 1
        changed = LiftCore(2, 4, 2, Matrix(n, n, rows))
        assert changed.gamma(1) == lift.gamma(1), (i, j)
        assert certify_lift_interval(changed)["ok"] is False, (i, j)
        with monkeypatch.context() as patch:
            patch.setattr(paths_module, "lift_family", lambda k, l, p: changed)
            assert main(["verify", str(stored), "--samples", "2"]) == 1, (i, j)
        cert = json.loads(capsys.readouterr().out)
        assert all(s["residualZero"] for s in cert["samples"]), (i, j)
        assert [c["ok"] for c in cert["segmentCertifications"]] == [False, True], (i, j)


def test_certify_lift_interval_rejects_non_affine_family(monkeypatch):
    def bent_power(lift, t):
        return matrix_pow(basic_family(lift.k, lift.l, t * t), lift.p)

    monkeypatch.setattr(LiftCore, "family_power", bent_power)
    for k, l, p in ((2, 3, 2), (2, 4, 2)):
        lift = lift_family(k, l, p)
        with pytest.raises(AssertionError):
            certify_lift_interval(lift)


def test_evaluate_rejects_out_of_range():
    z = Matrix.zeros(2, 2)
    path = connect_roots(z, 2, z, jordan_cell(2))
    with pytest.raises(ValueError):
        path.evaluate(Fraction(3, 2))


def test_connect_mixed_direction_chain():
    # chain {4:1,1:2} -> {4:1,2:1} -> {3:2} mixes a backward and a forward move
    x = direct_sum([jordan_cell(4), jordan_cell(1), jordan_cell(1)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    y = conjugate(model, s)
    path = connect_roots(a, 2, x, y)
    directions = [seg.move.direction for seg in path.segments if seg.kind == "adjacency"]
    assert directions == ["backward", "forward"]
    cert = verify(path, 30)
    assert cert.ok
    profs = {p for _, _, p in cert.samples}
    assert profs == {Profile({4: 1, 1: 2}), Profile({4: 1, 2: 1}), Profile({3: 2})}


def test_randomized_end_to_end_battery():
    import random

    from nilpath.jordan import profile_matrix
    from nilpath.profiles import enumerate_preimages, profiles_of_size

    rng = random.Random(2024)
    cases = 0
    while cases < 20:
        p = rng.choice((2, 3))
        n = rng.randint(2, 7)
        root_profile = rng.choice(list(profiles_of_size(n)))
        x_model = profile_matrix(root_profile)
        r = random_invertible(n, rng)
        x = conjugate(x_model, r)
        a = matrix_pow(x, p)
        options = sorted(
            enumerate_preimages(nilpotent_profile(a), p), key=lambda q: q.partition()
        )
        y_profile = rng.choice(options)
        y_model = profile_matrix(y_profile)
        s = similarity_witness(matrix_pow(y_model, p), a)
        y = conjugate(y_model, s)

        path = connect_roots(a, p, x, y)
        assert path.start == x and path.end == y
        cert = verify(path, 12)
        assert cert.ok, (root_profile, y_profile, p)
        cases += 1


# -- verify reads each sample's profile off its segment -----------------------

# (p, root profile of X, root profile of Y): every entry of the benchmark's
# connect, certified and verify catalogs.
CATALOG_PAIRS = (
    (2, (4, 2), (3, 3)),
    (2, (6, 4), (5, 5)),
    (2, (4, 4, 1, 1), (4, 3, 3)),
    (2, (6, 3, 3), (5, 5, 1, 1)),
    (2, (7, 5), (7, 5)),
    (3, (6, 3), (5, 4)),
    (3, (5, 2, 2), (4, 4, 1)),
    (3, (6, 2, 2, 2), (4, 4, 4)),
    (3, (8, 4), (8, 4)),
    (2, (4, 1, 1), (3, 3)),
    (3, (3, 3), (2, 2, 1, 1)),
    (3, (3, 3, 2), (2, 2, 2, 2)),
    (3, (5, 3, 3), (5, 2, 2, 2)),
    (3, (6, 3, 1), (5, 4, 1)),
    (2, (4, 4, 2, 1), (4, 3, 3, 1)),
)


def _model(parts):
    return direct_sum([jordan_cell(k) for k in parts])


def _unimodular(n, rng):
    """A seeded unimodular L U with entries in {-1, 0, 1}."""
    lower, upper = (
        Matrix.from_rows(
            [[1 if i == j else rng.choice((-1, 0, 1)) if (i > j) == low else 0 for j in range(n)] for i in range(n)]
        )
        for low in (True, False)
    )
    return matrix_mul(lower, upper)


def _catalog_roots(p, mx, my, seed):
    """(A, X, Y): the model pair of one catalog entry, conjugated by a
    seeded unimodular L U."""
    rng = random.Random(f"{seed}/{p}/{mx}/{my}")
    jx, jy = _model(mx), _model(my)
    y0 = conjugate(jy, similarity_witness(matrix_pow(jy, p), matrix_pow(jx, p)))
    s = _unimodular(jx.rows, rng)
    x, y = conjugate(jx, s), conjugate(y0, s)
    return matrix_pow(x, p), x, y


def _catalog_path(p, mx, my, seed):
    """connect_roots on one catalog entry's scrambled model pair."""
    a, x, y = _catalog_roots(p, mx, my, seed)
    return connect_roots(a, p, x, y)


def _detour_path(p, parts):
    """A single-segment path between two roots of profile ``parts`` whose
    closing segment takes the complex detour: y = C x C^-1 for a seeded
    {-1, 0, 1} combination C of the centralizer of A = x^p, with both roots
    scrambled by a seeded random_invertible."""
    import random

    from nilpath.matrix import kernel_basis
    from nilpath.sections import ad_operator

    x = _model(parts)
    n = x.rows
    a = matrix_pow(x, p)
    basis = [unvec(v, n) for v in kernel_basis(ad_operator(a, a))]
    rng = random.Random(5)
    while True:
        c = Matrix.zeros(n, n)
        for k in basis:
            c = c + k.scale(rng.choice((-1, 0, 1)))
        if not det(c).is_zero():
            break
    s = random_invertible(n, random.Random(5))
    return connect_roots(conjugate(a, s), p, conjugate(x, s), conjugate(conjugate(x, c), s))


DETOUR_CASES = ((2, (7, 5)), (3, (8, 4)))


@pytest.fixture(scope="module")
def detour_paths():
    return [_detour_path(p, parts) for p, parts in DETOUR_CASES]


def _profile_by_ranks(m):
    """The Jordan profile of a nilpotent m from the ranks of its powers,
    formed explicitly: an oracle independent of nilpotent_profile."""
    ranks = [m.rows]
    while ranks[-1]:
        ranks.append(rank(matrix_pow(m, len(ranks))))
    ranks += [0]
    return Profile({k: ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] for k in range(1, len(ranks) - 1)})


def _record_samples(monkeypatch):
    """A dict that maps each t to the sample RootPath.sample computes at t."""
    samples = {}
    sample = RootPath.sample

    def recorded(path, t):
        out = sample(path, t)
        samples.setdefault(t, out[0])
        return out

    monkeypatch.setattr(RootPath, "sample", recorded)
    return samples


def test_verify_profiles_match_the_samples(monkeypatch):
    samples = _record_samples(monkeypatch)
    directions = set()
    for seed in (1, 2):
        for p, mx, my in CATALOG_PAIRS:
            path = _catalog_path(p, mx, my, seed)
            directions |= {seg.move.direction for seg in path.segments if seg.kind == "adjacency"}
            samples.clear()
            cert = verify(path, 8)
            assert cert.ok
            for t, _, prof in cert.samples:
                assert prof == nilpotent_profile(samples[t]), (seed, p, mx, my, t)
    assert directions == {"forward", "backward"}


def test_verify_complex_detours_stay_fast(monkeypatch, detour_paths):
    import time

    assert [len(path.segments[-1].waypoints) for path in detour_paths] == [4, 4]
    samples = _record_samples(monkeypatch)
    recorded = []
    start = time.process_time()
    for path in detour_paths:
        samples.clear()
        recorded.append((verify(path, 8), dict(samples)))
    assert time.process_time() - start < 10
    # the interior samples, with Gaussian entries of hundreds of bits, are
    # checked against the rank oracle, which does not use nilpotent_profile
    for (p, parts), (cert, samples) in zip(DETOUR_CASES, recorded):
        assert cert.ok
        for t, _, prof in cert.samples:
            oracle = nilpotent_profile if t in (0, 1) else _profile_by_ranks
            assert prof == oracle(samples[t]) == Profile.from_partition(parts), (p, t)


def test_centralizer_sample_profile_checks_the_conjugation(monkeypatch, detour_paths):
    s = Fraction(3, 8)
    bx_minus = paths_module.CentralizerSegment._bx_minus
    for path in (detour_paths[0], _catalog_path(2, (6, 4), (5, 5), 1)):
        seg = path.segments[-1]
        gamma = seg.evaluate(s)
        assert seg.sample(s) == (gamma, nilpotent_profile(seg.base_root))
        rows = [list(row) for row in gamma.data]
        rows[1][2] = rows[1][2] + 1
        changed = Matrix(gamma.rows, gamma.cols, rows)
        with monkeypatch.context() as patch:
            patch.setattr(paths_module.CentralizerSegment, "_bx_minus", lambda seg, z: (changed, bx_minus(seg, z)[1]))
            assert seg.sample(s) == (changed, None)

    # through verify, on the catalog path: only the changed sample has no
    # profile, and the certificate fails
    count = len(path.segments)
    at = (count - 1 + s) / count
    monkeypatch.setattr(
        paths_module.CentralizerSegment,
        "_bx_minus",
        lambda seg, z: (changed, bx_minus(seg, z)[1]) if z == seg._omega(s) else bx_minus(seg, z),
    )
    cert = verify(path, 8 * count)
    assert not cert.ok
    assert [(t, prof is None) for t, _, prof in cert.samples] == [(t, t == at) for t, _, _ in cert.samples]


# -- one Jordan basis per root ---------------------------------------------------


def _record_calls(monkeypatch, name, module=paths_module):
    """A list that collects the arguments of every call to ``module.<name>``."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def test_connect_takes_one_jordan_basis_per_root(monkeypatch):
    # the bases taken inside nilpath.jordan count too; a backward move
    # solves for no similarity, so no witness takes two more
    profiles = _record_calls(monkeypatch, "nilpotent_profile")
    bases = _record_calls(monkeypatch, "jordan_basis")
    inner_bases = _record_calls(monkeypatch, "jordan_basis", jordan_module)
    witnesses = _record_calls(monkeypatch, "similarity_witness", jordan_module)
    assert not hasattr(paths_module, "similarity_witness")
    for p, mx, my in ((2, (6, 3, 3), (5, 5, 1, 1)), (2, (7, 5), (7, 5))):
        a, x, y = _catalog_roots(p, mx, my, 1)
        for calls in (profiles, bases, inner_bases, witnesses):
            calls.clear()
        path = connect_roots(a, p, x, y)
        moves = [seg.move for seg in path.segments if seg.kind == "adjacency"]
        assert profiles == []
        assert len(bases) + len(inner_bases) == len(moves) + 2
        assert witnesses == []
        if moves:
            assert {mv.direction for mv in moves} == {"forward", "backward"}


def test_benchmark_names_resolve():
    # bench/tracing.py wraps these names, and bench/workloads.py passes mode=
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (module_name, attr)
    z = Matrix.zeros(2, 2)
    path = connect_roots(z, 2, z, jordan_cell(2), mode="certified")
    assert verify(path, 2, mode="certified").ok


def test_large_entry_sample_profiles_stay_fast(detour_paths):
    import time

    path = detour_paths[DETOUR_CASES.index((3, (8, 4)))]
    sample = path.evaluate(Fraction(3, 8))
    oracle = _profile_by_ranks(sample)
    assert oracle == Profile({8: 1, 4: 1})
    start = time.process_time()
    assert nilpotent_profile(sample) == oracle
    assert time.process_time() - start < 5
    start = time.process_time()
    dec = jordan_basis(sample)
    assert time.process_time() - start < 5
    assert dec.profile == oracle
    assert matrix_mul(sample, dec.conjugator) == matrix_mul(dec.conjugator, dec.jordan_form())


def test_connect_between_large_entry_samples_stays_fast(detour_paths):
    import time

    path = detour_paths[DETOUR_CASES.index((3, (8, 4)))]
    x, y = (path.evaluate(Fraction(k, 8)) for k in (3, 5))
    start = time.process_time()
    between = connect_roots(path.target, 3, x, y)
    assert time.process_time() - start < 15
    assert (between.start, between.end) == (x, y)


def test_connect_on_empty_and_one_by_one_inputs(tmp_path, capsys):
    from nilpath.cli import main

    for n in (0, 1):
        z = Matrix.zeros(n, n)
        path = connect_roots(z, 2, z, z)
        assert (path.start, path.end) == (z, z)
        assert verify(path, 4).ok
        f = tmp_path / f"z{n}.json"
        f.write_text(json.dumps(matrix_to_json_obj(z)))
        capsys.readouterr()
        assert main(["connect", "--p", "2", "--a", str(f), "--x", str(f), "--y", str(f), "--samples", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["ok"] is True


def test_is_root_decides_large_powers_from_x_to_the_n():
    # for p >= n, x^p = a is read off x^n; the one answer that differs from
    # forming x^p: x and a both not nilpotent raises NotNilpotentError
    from nilpath.errors import NotNilpotentError

    rng = random.Random(23)
    cells = [jordan_cell(3), direct_sum([jordan_cell(2), jordan_cell(1)]), Matrix.zeros(3, 3)]
    others = [Matrix.identity(3), Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 2]])]
    for _ in range(4):
        r = random_invertible(3, rng)
        for x in [matrix_mul(r, matrix_mul(m, inverse(r))) for m in cells + others]:
            for p in (3, 4, 7):
                for a in [matrix_pow(x, p), Matrix.zeros(3, 3), jordan_cell(3), *others, Matrix.zeros(2, 2)]:
                    if a.rows == 3 and not (matrix_pow(x, 3).is_zero() or matrix_pow(a, 3).is_zero()):
                        with pytest.raises(NotNilpotentError):
                            paths_module._is_root(x, p, a)
                    else:
                        assert paths_module._is_root(x, p, a) == (matrix_pow(x, p) == a), (x, p, a)

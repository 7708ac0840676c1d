"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  All checks are exact (no tolerances); the only numeric bounds are
wall-clock budgets.
"""

import random
import time
from fractions import Fraction

from nilpath.criteria import ZeroSpec, has_pth_root, is_f_solvable, special_two_three
from nilpath.graph import build_graph, is_connected, profile_chain
from nilpath.jordan import nilpotent_profile, similarity_witness
from nilpath.matrix import (
    Matrix,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_mul,
    matrix_pow,
    rank,
)
from nilpath.paths import connect_roots, verify
from nilpath.profiles import (
    Profile,
    apply_move,
    enumerate_preimages,
    is_p_adjacent,
    profile_power,
    profiles_of_size,
)
from nilpath.scalar import Scalar
from nilpath.sections import conjugation_section, section_eval, section_setup

from helpers import random_invertible


def _report(num, desc, t0, budget):
    elapsed = time.time() - t0
    print(f"[criterion {num:2d}] PASS  ({elapsed:6.1f}s < {budget}s)  {desc}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def conjugate(m, p):
    return matrix_mul(p, matrix_mul(m, inverse(p)))


def all_profiles_up_to(n):
    for s in range(n + 1):
        yield from profiles_of_size(s)


def random_nilpotent(rng, n):
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    model = direct_sum([jordan_cell(k) for k in sorted(parts, reverse=True)])
    return conjugate(model, random_invertible(n, rng)), Profile.from_partition(parts)


def test_criterion_1_window_swap_identity():
    t0 = time.time()
    checked = 0
    for p in (2, 3, 4):
        for a in range(0, 4):
            for k in range(p * a, p * (a + 1)):
                for l in range(k + 1, p * (a + 1) + 1):
                    left = Profile.single(k) + Profile.single(l)
                    right = Profile.single(k + 1) + Profile.single(l - 1)
                    assert profile_power(left, p) == profile_power(right, p), (p, a, k, l)
                    checked += 1
    assert checked > 0
    _report(1, f"window cell-pair swaps preserve the power map ({checked} cases)", t0, 1)


def test_criterion_2_matrix_profile_oracle():
    t0 = time.time()
    rng = random.Random(20260810)
    for _ in range(200):
        n = rng.randint(1, 8)
        m, prof = random_nilpotent(rng, n)
        assert nilpotent_profile(m) == prof
        for p in (2, 3):
            assert nilpotent_profile(matrix_pow(m, p)) == profile_power(prof, p)
    _report(2, "200 random nilpotents: matrix powers match the profile power map", t0, 60)


def test_criterion_3_triple_equivalence():
    t0 = time.time()
    count = 0
    for m in all_profiles_up_to(12):
        for p in (2, 3, 4):
            a = has_pth_root(m, p)
            b = bool(enumerate_preimages(m, p))
            c = is_f_solvable(ZeroSpec((p,)), m) is not None
            assert a == b == c, (m, p)
            count += 1
    _report(3, f"root criterion = preimage search = semigroup membership ({count} cases)", t0, 30)


def test_criterion_4_two_three_criterion():
    t0 = time.time()
    spec = ZeroSpec((2, 3))
    count = 0
    for m in all_profiles_up_to(12):
        assert special_two_three(m) == (is_f_solvable(spec, m) is not None), m
        count += 1
    _report(4, f"closed-form {{2,3}} criterion matches the semigroup oracle ({count} profiles)", t0, 30)


def test_criterion_5_graph_connectivity_and_chains():
    t0 = time.time()
    rng = random.Random(55)
    graphs = 0
    chains = 0
    for p in (2, 3, 4):
        targets = {profile_power(m, p) for m in all_profiles_up_to(12)}
        for target in targets:
            g = build_graph(target, p)
            assert is_connected(g), (target, p)
            graphs += 1
            verts = list(g.vertices)
            if len(verts) < 2:
                continue
            for _ in range(2):
                m, m2 = rng.sample(verts, 2)
                ch = profile_chain(m, m2, p)
                assert ch.steps[0] == m and ch.steps[-1] == m2
                for s0, s1, mv in zip(ch.steps, ch.steps[1:], ch.moves):
                    assert apply_move(s0, mv) == s1
                    assert is_p_adjacent(s0, s1, p) is not None
                    assert profile_power(s0, p) == profile_power(s1, p)
                chains += 1
    _report(5, f"every power-image graph is connected ({graphs} graphs, {chains} chains)", t0, 60)


def _main_example():
    x = direct_sum([jordan_cell(4), jordan_cell(2)])
    a = matrix_pow(x, 2)
    model = direct_sum([jordan_cell(3), jordan_cell(3)])
    s = similarity_witness(matrix_pow(model, 2), a)
    y = conjugate(model, s)
    return a, x, y


def test_criterion_6_end_to_end_path():
    t0 = time.time()
    a, x, y = _main_example()
    path = connect_roots(a, 2, x, y)
    assert path.evaluate(Fraction(0)) == x
    assert path.evaluate(Fraction(1)) == y
    cert = verify(path, 100)
    assert cert.ok
    assert all(res for _, res, _ in cert.samples)
    allowed = enumerate_preimages(nilpotent_profile(a), 2)
    assert all(prof in allowed for _, _, prof in cert.samples)
    _report(6, "path between the two 6x6 square roots verifies at 101 exact samples", t0, 120)


def test_criterion_7_three_by_three_fixture():
    t0 = time.time()
    x = jordan_cell(3)
    e = matrix_pow(x, 2)
    y = Matrix.from_rows([[0, 2, 0], [0, 0, Fraction(1, 2)], [0, 0, 0]])
    path = connect_roots(e, 2, x, y)
    assert path.evaluate(Fraction(0)) == x and path.evaluate(Fraction(1)) == y
    for i in range(0, 101):
        m = path.evaluate(Fraction(i, 100))
        assert matrix_pow(m, 2) == e
        assert m.data[0][1] * m.data[1][2] == Scalar(1)
        for r in range(3):
            for c in range(3):
                if (r, c) not in ((0, 1), (0, 2), (1, 2)):
                    assert m.data[r][c].is_zero()
    _report(7, "3x3 fixture path stays inside the strictly-upper x,1/x family", t0, 10)


def test_criterion_8_conjugation_section():
    t0 = time.time()
    rng = random.Random(88)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        a0, _ = random_nilpotent(rng, n)
        cs = conjugation_section(a0)
        assert cs.conjugator_at(a0) == Matrix.identity(n)
        denom = rng.randint(40, 200)
        e = Matrix.from_rows(
            [[Fraction(rng.randint(-1, 1), denom) for _ in range(n)] for _ in range(n)]
        )
        r = Matrix.identity(n) + e
        from nilpath.matrix import det

        if det(r).is_zero():
            continue
        b = conjugate(a0, r)
        g = cs.conjugator_at(b)
        assert not det(g).is_zero()
        assert matrix_mul(b, g) == matrix_mul(g, a0)
        done += 1
    _report(8, "100 conjugation cross-sections: exact intertwiners near the base point", t0, 60)


def test_criterion_9_kernel_section():
    t0 = time.time()
    rng = random.Random(99)
    accepted = 0
    done = 0
    while done < 100:
        n = rng.randint(2, 6)
        u = Matrix.from_rows(
            [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        )
        kernel = kernel_basis(u)
        if not kernel:
            continue
        sd = section_setup(u, kernel[0])
        denom = rng.randint(50, 300)
        pert_l = Matrix.identity(n) + Matrix.from_rows(
            [[Fraction(rng.randint(-1, 1), denom) for _ in range(n)] for _ in range(n)]
        )
        pert_r = Matrix.identity(n) + Matrix.from_rows(
            [[Fraction(rng.randint(-1, 1), denom) for _ in range(n)] for _ in range(n)]
        )
        from nilpath.matrix import det

        if det(pert_l).is_zero() or det(pert_r).is_zero():
            continue
        v = matrix_mul(pert_l, matrix_mul(u, pert_r))
        assert rank(v) == sd.rank  # invertible factors preserve rank
        done += 1
        try:
            f = section_eval(sd, v)
        except Exception:
            continue
        assert matrix_mul(v, f).is_zero()
        accepted += 1
    assert accepted >= 50, "too few section evaluations accepted to be meaningful"
    _report(9, f"100 rank-preserving perturbations: v @ f(v) = 0 on all {accepted} accepted", t0, 10)


def test_criterion_10_certified_mode():
    t0 = time.time()
    a, x, y = _main_example()
    path = connect_roots(a, 2, x, y)
    cert = verify(path, 100)
    assert cert.ok
    for seg_cert in cert.segment_certifications:
        assert seg_cert["ok"]
        if seg_cert["kind"] == "adjacency":
            assert seg_cert == {"kind": "adjacency", "lift": True, "ok": True}
        else:
            assert seg_cert["pieces"] and all(piece["ok"] for piece in seg_cert["pieces"])
    _report(10, "certified rerun: every lift proven on [0, 1], Sturm nonvanishing on every detour piece", t0, 600)

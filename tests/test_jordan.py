import random
from fractions import Fraction

import pytest

from nilpath.errors import NotNilpotentError, NotSimilarError
from nilpath.jordan import jordan_basis, nilpotent_profile, profile_matrix, similarity_witness
from nilpath.matrix import (
    Matrix,
    direct_sum,
    inverse,
    jordan_cell,
    kernel_basis,
    matrix_mul,
    matrix_pow,
    power_ranks,
    rank,
    rref,
)
from nilpath.paths import connect_roots
from nilpath.profiles import Profile, profile_power
from nilpath.scalar import Scalar

from helpers import greedy_pivot_columns, random_invertible


def conjugate(m, p):
    return matrix_mul(p, matrix_mul(m, inverse(p)))


def random_nilpotent(rng, n):
    """Random profile of size n, realized and conjugated by a random basis."""
    parts = []
    left = n
    while left:
        k = rng.randint(1, left)
        parts.append(k)
        left -= k
    model = direct_sum([jordan_cell(k) for k in sorted(parts, reverse=True)])
    p = random_invertible(n, rng)
    return conjugate(model, p), Profile.from_partition(parts)


def test_profile_examples():
    assert nilpotent_profile(jordan_cell(3)) == Profile({3: 1})
    assert nilpotent_profile(Matrix.zeros(3, 3)) == Profile({1: 3})
    m = direct_sum([jordan_cell(4), jordan_cell(2)])
    assert nilpotent_profile(m) == Profile({4: 1, 2: 1})


def test_profile_similarity_invariant():
    rng = random.Random(23)
    m = direct_sum([jordan_cell(4), jordan_cell(2)])
    for _ in range(5):
        p = random_invertible(6, rng)
        assert nilpotent_profile(conjugate(m, p)) == Profile({4: 1, 2: 1})


def test_profile_rejects_non_nilpotent():
    with pytest.raises(NotNilpotentError):
        nilpotent_profile(Matrix.identity(2))


def test_profile_size_identities():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 7)
        m, prof = random_nilpotent(rng, n)
        assert nilpotent_profile(m) == prof
        assert prof.size() == n
        from nilpath.matrix import rank

        assert prof.total_cells() == n - rank(m)


def test_jordan_basis_canonical_inputs():
    d = jordan_basis(jordan_cell(3))
    assert d.cell_sizes == (3,)
    assert d.conjugator == Matrix.identity(3)
    d = jordan_basis(Matrix.zeros(2, 2))
    assert d.cell_sizes == (1, 1)
    assert d.conjugator == Matrix.identity(2)


def test_jordan_basis_roundtrip():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 8)
        m, prof = random_nilpotent(rng, n)
        d = jordan_basis(m)
        assert Profile.from_partition(d.cell_sizes) == prof
        assert list(d.cell_sizes) == sorted(d.cell_sizes, reverse=True)
        recon = conjugate(d.jordan_form(), d.conjugator)
        assert recon == m


def test_jordan_basis_deterministic():
    rng = random.Random(67)
    for _ in range(5):
        m, _ = random_nilpotent(rng, 6)
        first = jordan_basis(m)
        again = jordan_basis(m)
        assert first.conjugator == again.conjugator
        assert first.cell_sizes == again.cell_sizes


def test_jordan_basis_fixed_conjugation():
    p = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    m = conjugate(direct_sum([jordan_cell(2), jordan_cell(1)]), p)
    d = jordan_basis(m)
    assert d.cell_sizes == (2, 1)
    assert matrix_mul(inverse(d.conjugator), matrix_mul(m, d.conjugator)) == d.jordan_form()


def test_similarity_witness_identity_case():
    j3 = jordan_cell(3)
    assert similarity_witness(j3, j3) == Matrix.identity(3)


def test_similarity_witness_generic():
    rng = random.Random(3)
    x = direct_sum([jordan_cell(2), jordan_cell(1)])
    r = random_invertible(3, rng)
    y = conjugate(x, r)
    q = similarity_witness(x, y)
    assert conjugate(x, q) == y


def test_similarity_witness_is_py_times_px_inverse():
    """The witness is one solve of Px^T Q^T = Py^T: exactly Py Px^-1, on
    rational and Gaussian pairs, and y Q = Q x."""
    rng = random.Random(29)

    def unit_lower(n, entry):
        return Matrix.from_rows([[1 if i == j else entry() if i > j else 0 for j in range(n)] for i in range(n)])

    def rational():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    def gaussian():
        return Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), rng.randint(-1, 1))

    pairs = []
    for parts in ((3, 2, 1), (2, 2, 1, 1), (4,)):
        model, n = direct_sum([jordan_cell(k) for k in parts]), sum(parts)
        for entry in (rational, gaussian):
            conjugators = [matrix_mul(unit_lower(n, entry), unit_lower(n, entry).transpose()) for _ in range(2)]
            pairs.append(tuple(conjugate(model, c) for c in conjugators))
    assert any(e.im for x, y in pairs for m in (x, y) for row in m.data for e in row)
    for x, y in pairs:
        q = similarity_witness(x, y)
        assert q == matrix_mul(jordan_basis(y).conjugator, inverse(jordan_basis(x).conjugator))
        assert matrix_mul(y, q) == matrix_mul(q, x)


def test_similarity_witness_rejects_different_profiles():
    with pytest.raises(NotSimilarError):
        similarity_witness(jordan_cell(2), Matrix.zeros(2, 2))


def test_power_profile_oracle():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 7)
        m, prof = random_nilpotent(rng, n)
        for p in (1, 2, 3):
            assert nilpotent_profile(matrix_pow(m, p)) == profile_power(prof, p)


def test_profile_matrix_model():
    prof = Profile({3: 1, 1: 2})
    m = profile_matrix(prof)
    assert nilpotent_profile(m) == prof
    assert m.rows == 5


def test_non_nilpotent_inputs_still_rejected():
    rng = random.Random(17)
    m, _ = random_nilpotent(rng, 5)
    shifted = m + Matrix.identity(5)  # eigenvalue 1, full rank
    singular = direct_sum([jordan_cell(2), Matrix.identity(1)])  # ranks settle at 1
    for bad in (shifted, singular):
        with pytest.raises(NotNilpotentError):
            nilpotent_profile(bad)
        with pytest.raises(NotNilpotentError):
            jordan_basis(bad)


def _chain_loop_basis(m):
    """jordan_basis as it was written before its chains ran on integer
    rows: each chain vector is ``matrix_mul(m, previous)``."""
    ranks = power_ranks(m)
    s = len(ranks) - 1
    n = m.rows
    if n == 0:
        return Matrix.identity(0), ()
    rows = Matrix.identity(n)
    kernels = [[]]
    for _ in range(s):
        red, pivots = rref(matrix_mul(rows, m))
        rows = Matrix(len(pivots), n, red.data[: len(pivots)])
        kernels.append([v.column_entries() for v in kernel_basis(rows)])
    chains = []
    for j in range(s, 0, -1):
        carried = [chain[len(chain) - j].column_entries() for chain in chains if len(chain) > j]
        skip = len(kernels[j - 1]) + len(carried)
        for c in greedy_pivot_columns(kernels[j - 1] + carried + kernels[j]):
            if c >= skip:
                chain = [Matrix.column(kernels[j][c - skip])]
                for _ in range(j - 1):
                    chain.append(matrix_mul(m, chain[-1]))
                chains.append(chain)
    chains.sort(key=len, reverse=True)
    columns = [v.column_entries() for chain in chains for v in reversed(chain)]
    return Matrix(n, n, [list(row) for row in zip(*columns)]), tuple(len(c) for c in chains)


def test_jordan_basis_matches_chain_loop():
    rng = random.Random(97)
    r_gaussian = Matrix.from_rows(
        [[1, Scalar(1, 1), 0, 0], [0, 1, Scalar(0, -1), 0], [Scalar(Fraction(1, 2), 2), 0, 1, 0],
         [0, 0, 0, 1]]
    )
    r_rational = Matrix.from_rows(
        [[1, Fraction(1, 3), 0, 0], [0, 1, 0, Fraction(-2, 5)], [0, 0, 1, 0], [Fraction(1, 7), 0, 0, 1]]
    )
    inputs = [Matrix.zeros(0, 0), Matrix.zeros(1, 1), jordan_cell(4)]
    models = (jordan_cell(4), direct_sum([jordan_cell(2)] * 2), direct_sum([jordan_cell(3), jordan_cell(1)]))
    for model in models:
        inputs += [conjugate(model, r_gaussian), conjugate(model, r_rational)]
    inputs += [random_nilpotent(rng, n)[0] for n in (5, 7, 9)]
    # many equal cells: seeds at a level are tested against carried vectors
    for parts in ((3, 3, 3, 1, 1), (2, 2, 2, 2, 1)):
        n = sum(parts)
        lower = Matrix.from_rows(
            [[1 if i == j else Scalar(rng.randint(-1, 1), rng.randint(-1, 1)) if i > j else 0 for j in range(n)]
             for i in range(n)]
        )
        model = direct_sum([jordan_cell(k) for k in parts])
        inputs.append(conjugate(model, matrix_mul(lower, random_invertible(n, rng))))
    assert any(e.im for m in inputs for row in m.data for e in row)
    # the large-entry segment ends of a scrambled (6,3,3) -> (5,5,1,1) connect
    jx, jy = (direct_sum([jordan_cell(k) for k in parts]) for parts in ((6, 3, 3), (5, 5, 1, 1)))
    s = random_invertible(12, rng, -1, 1)
    x = conjugate(jx, s)
    y = conjugate(conjugate(jy, similarity_witness(matrix_pow(jy, 2), matrix_pow(jx, 2))), s)
    ends = [seg.end for seg in connect_roots(matrix_pow(x, 2), 2, x, y).segments]
    assert len(ends) >= 2 and max(abs(e.re.numerator) for m in ends for row in m.data for e in row) > 10**6
    inputs += ends
    for m in inputs:
        d = jordan_basis(m)
        assert (d.conjugator, d.cell_sizes) == _chain_loop_basis(m), m
        assert power_ranks(m) == _ranks_of_formed_powers(m)
    # the push stops before rank 0 at level 1 (M invertible) and later (a
    # nilpotent block plus an invertible one)
    r = random_invertible(5, rng)
    stalled = (random_invertible(5, rng), direct_sum([jordan_cell(3), random_invertible(2, rng)]))
    for m in (conjugate(model, r) for model in stalled):
        assert power_ranks(m) == _ranks_of_formed_powers(m) and power_ranks(m)[-1] > 0
        with pytest.raises(NotNilpotentError):
            jordan_basis(m)


def _ranks_of_formed_powers(m):
    """Ranks of M^0, M^1, ... up to the first repeat, each power formed."""
    ranks = [m.rows]
    while (r := rank(matrix_pow(m, len(ranks)))) != ranks[-1]:
        ranks.append(r)
    return ranks

"""Explicit paths inside the set of p-th roots of a nilpotent matrix.

Two segment kinds compose into a root-connecting path:

* centralizer segments conjugate a root by ``(1-z)I + zQ`` along a complex
  detour on which the determinant is certified nonvanishing, keeping the
  p-th power literally fixed; through one factor of Q - I, of rank r, that
  determinant is taken from r x r determinants, and a sample costs one
  r x r solve, so a sample where the blend is singular raises;
* adjacency segments deform a trailing pair of Jordan cells (k, l) toward
  (k+1, l-1) through the one-parameter family ``U_t``, conjugating back by
  an exactly-lifted family q(t) so that ``gamma(t)^p`` is constant.

The lift is a deterministic function of its window (k, l, p), realized in
two charts of the local cross-section around the power matrix: one anchored
at t = 0 on [0, 1/2], and one anchored at the deformation endpoint, where
the first always degenerates, on [1/2, 1].  An exact centralizer correction
glues them at t = 1/2.  A stored adjacency segment is therefore just its
move, outer conjugator and bystander block; loading rebuilds the lift, and
``verify`` Sturm-certifies both of its charts.  U_t^p is affine
in t, which each lift proves once, so a chart's two certificate polynomials
come in closed form from one elimination of the section block at the
chart's left end (Sylvester's and Woodbury's identities), with no
interpolation nodes.  ``verify``
gets each sample, and its Jordan profile read off its segment's small
model, not off the sample, from one call to that segment.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from typing import Optional, Sequence, Union

from .errors import (
    DetourSearchExhaustedError,
    GuardError,
    InputFormatError,
    MissingCellsError,
    NotNilpotentError,
    OutsideNeighborhoodError,
    PowerMismatchError,
    SingularMatrixError,
    WindowViolationError,
)
from .graph import profile_chain
from .jordan import JordanDecomposition, _witness, jordan_basis, nilpotent_profile, similarity_witness
from .matrix import (
    Matrix,
    _canonical,
    _columns,
    _ints,
    _Ints,
    _made,
    _plus_scaled,
    _Reduction,
    _times,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
    power_ranks,
    solve,
)
from .polynomials import (
    RatPoly,
    _levels_det,
    _poly,
    certify_nonvanishing_segment,
    poly_matrix_det,
    sturm_root_count,
)
from .profiles import AdjacencyMove, Profile, _window_a, apply_move
from .scalar import ONE, ZERO, Scalar, format_rational, format_scalar, parse_int, parse_scalar
from .sections import ConjugationSection, conjugation_section

# The number of lift intervals.  Only bench/tracing.py reads it: it counts
# lift intervals beyond it as bisections, so paths.lift.bisections reads 0.
INITIAL_LIFT_INTERVALS = 2
_HALF = Fraction(1, 2)  # where the lift's two charts meet
DETOUR_BUDGET = 32

ParamLike = Union[Fraction, int]


def _as_fraction(t: ParamLike) -> Fraction:
    return t if isinstance(t, Fraction) else Fraction(t)


def _is_root(x: Matrix, p: int, a: Matrix) -> bool:
    """Whether x^p = a, for a square x of size n.  For p < n, x^p is
    formed.  For p >= n it is not: x^p is nilpotent exactly when x is, and
    then x^p = x^n x^(p-n) = 0, so x^p = a holds exactly when a = 0 and
    x^n = 0.  Where x is not nilpotent, x^p can equal a only if a is not
    nilpotent either; that case raises NotNilpotentError, as the root's
    Jordan basis would."""
    n = x.rows
    if p < n:
        return matrix_pow(x, p) == a
    nilpotent = matrix_pow(x, n).is_zero()
    if (a.rows, a.cols) != (n, n):
        return False
    if nilpotent:
        return a.is_zero()
    if power_ranks(a)[-1]:
        raise NotNilpotentError("the target is not nilpotent")
    return False


# -- the basic two-cell deformation family ----------------------------------


def basic_family(k: int, l: int, t: ParamLike) -> Matrix:
    """The deformation U_t of the two-cell matrix, of dimension k + l.

    In the basis (x_k..x_1, y_l..y_1) every vector maps as in the direct
    sum of cells except y_1, which maps to ``(1-t) y_2 + t x_1`` (terms with
    out-of-range indices drop, covering k = 0).  U_0 is the plain two-cell
    direct sum.
    """
    if k < 0 or l < 1 or k >= l:
        raise ValueError("need 0 <= k < l")
    t = _as_fraction(t)
    n = k + l
    # integer rows over their denominators: the superdiagonals of J_k and
    # J_l, then row n-2 ends in 1 - t and row k-1 in t
    rows = [[int(j == i + 1 and j != k) for j in range(n)] for i in range(n)]
    dens = [1] * n
    if l >= 2:
        rows[n - 2][n - 1], dens[n - 2] = t.denominator - t.numerator, t.denominator
    if k >= 1:
        rows[k - 1][n - 1], dens[k - 1] = t.numerator, t.denominator
    return _made(n, n, _canonical(rows, dens))


# -- lifted deformation with constant p-th power ------------------------------


@dataclass(frozen=True)
class LiftInterval:
    """One lift interval with its anchoring rule.

    On [left, right] the lift is ``q(t) = anchor @ g(anchor^-1 U_t^p anchor)
    @ correction``.  The left chart, on [0, 1/2], has the identity for both;
    the right chart, on [1/2, 1], anchors at t = 1 (the left chart always
    degenerates exactly there), and its correction is the centralizer
    element gluing it continuously onto the left chart.
    """

    left: Fraction
    right: Fraction
    anchor: Matrix
    anchor_inv: Matrix
    correction: Matrix


@dataclass(frozen=True)
class LiftCore:
    """Two-chart lift data: q(t) at t = 0, 1/2, 1 locks U_t^p onto A0."""

    k: int
    l: int
    p: int
    section: ConjugationSection  # around A0 = U_0^p
    partition: tuple[Fraction, ...]
    conjugators: tuple[Matrix, ...]
    intervals: tuple[LiftInterval, ...]

    def family_matrix(self, t: ParamLike) -> Matrix:
        return basic_family(self.k, self.l, t)

    def family_power(self, t: ParamLike) -> Matrix:
        return matrix_pow(self.family_matrix(t), self.p)

    @cached_property
    def power_curve(self) -> tuple[Matrix, Matrix]:
        """(A0, dU) with ``U_t^p = A0 + t dU`` for every t, proven once per
        lift.  ``basic_family`` sets only entries above the diagonal, so
        U_t^(k+l) = 0 and U_t^p has degree at most m = min(p, k + l) in t;
        matching its chord at the m + 1 parameters i/m proves it affine.
        A0 = U_0^p is the section's base; the other m powers go through
        ``family_power``, as ``q_at`` takes them."""
        m = min(self.p, self.k + self.l)
        base = self.section.base
        slope = self.family_power(1) - base
        for i in range(1, m):
            s = Fraction(i, m)
            if self.family_power(s) != _plus_scaled(base, Scalar(s), slope):
                raise AssertionError("family power must be affine in the lift parameter")
        return base, slope

    def q_at(self, t: ParamLike) -> Matrix:
        """Lift conjugator q(t) by its chart's formula; exact at partition
        points by construction.  Raises OutsideNeighborhood where the
        formula is invalid, which a certified interval rules out."""
        t = _as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("lift parameter must lie in [0, 1]")
        if t in self.partition:
            return self.conjugators[self.partition.index(t)]
        iv = self.intervals[t > _HALF]
        u_p = self.family_power(t)
        g = self.section.conjugator_at(matrix_mul(iv.anchor_inv, matrix_mul(u_p, iv.anchor)))
        return matrix_mul(matrix_mul(iv.anchor, g), iv.correction)

    def gamma(self, t: ParamLike) -> Matrix:
        """The deformed root: q(t)^-1 U_t q(t), with gamma(t)^p = A0."""
        t = _as_fraction(t)
        q = self.q_at(t)
        return solve(q, matrix_mul(self.family_matrix(t), q))


def lift_family(k: int, l: int, p: int) -> LiftCore:
    """Two-chart lift of the two-cell deformation with exact power lock.

    The left chart, on [0, 1/2], is ``q(t) = g(U_t^p)`` with g the
    cross-section around A0 = U_0^p.  It degenerates at t = 1, so the right
    chart, on [1/2, 1], anchors there through an exact similarity
    ``U_1^p = Q1 A0 Q1^-1``: ``q(t) = Q1 g(Q1^-1 U_t^p Q1) S``, where the
    centralizer element S glues the charts at t = 1/2.  The result depends
    on (k, l, p) alone, so a stored path rebuilds it;
    ``certify_lift_interval`` proves a chart valid on its whole interval.
    Raises GuardError when either chart fails at the glue point.
    """
    if _window_a(k, l, p) is None:
        raise WindowViolationError(f"no window index a with {p}a <= {k} < {l} <= {p}(a+1)")
    a0, power_half, power_end = (matrix_pow(basic_family(k, l, t), p) for t in (0, _HALF, 1))
    section = conjugation_section(a0)
    identity = Matrix.identity(k + l)
    q1 = similarity_witness(a0, power_end)
    q1_inv = inverse(q1)
    try:
        q_half = section.conjugator_at(power_half)
        g_right = section.conjugator_at(matrix_mul(q1_inv, matrix_mul(power_half, q1)))
    except OutsideNeighborhoodError:
        raise GuardError(f"lift chart of window ({k}, {l}, {p}) is invalid at t = 1/2") from None
    # glue: Q1 g_right S = q_half, with S in the centralizer of A0
    correction = solve(matrix_mul(q1, g_right), q_half)
    if matrix_mul(correction, a0) != matrix_mul(a0, correction):
        raise AssertionError("glue correction must centralize the base power")

    left = LiftInterval(Fraction(0), _HALF, identity, identity, identity)
    right = LiftInterval(_HALF, Fraction(1), q1, q1_inv, correction)
    partition = (Fraction(0), _HALF, Fraction(1))
    conjugators = (identity, q_half, matrix_mul(q1, correction))
    # The invariant U_t^p q = q A0 holds at t = 0 (q = I) and at t = 1/2
    # (the section asserted it); at t = 1 it is the only check of Q1.
    if matrix_mul(power_end, conjugators[2]) != matrix_mul(conjugators[2], a0):
        raise AssertionError("lift invariant failed at t = 1")
    return LiftCore(k, l, p, section, partition, conjugators, (left, right))


def certify_lift_interval(lift: LiftCore, interval: LiftInterval) -> dict:
    """Sturm-certify section validity across one whole lift interval.

    The section's leading-block determinant d1 and the cleared-denominator
    conjugator ``ghat = d1 g(B)`` along the anchored power curve ``B(t) =
    anchor^-1 U_t^p anchor`` are polynomials, formed in closed form by
    :func:`_chart_polynomials` in sigma, with t = left + (right - left)
    sigma; the change of variable is affine, so it keeps degrees and root
    counts.  Nonvanishing of d1 and det(ghat) on [0, 1] makes the
    interval's lift formula valid everywhere on it.  A chart whose section
    fails at an end, by its displacement rank or, at the left end, by a
    singular block, is recorded as invalid at a certification node.
    """
    record = {"interval": [format_rational(interval.left), format_rational(interval.right)]}
    try:
        d1, det_ghat = _chart_polynomials(lift, interval)
    except OutsideNeighborhoodError:
        record.update(ok=False, reason="section invalid at a certification node")
        return record
    record.update(sectionDetDegree=d1.degree(), conjugatorDetDegree=det_ghat.degree())
    if d1.eval(0).is_zero() or d1.eval(1).is_zero():
        record.update(ok=False, reason="leading-block determinant vanishes at an endpoint")
        return record
    if det_ghat.eval(0).is_zero() or det_ghat.eval(1).is_zero():
        record.update(ok=False, reason="conjugator determinant vanishes at an endpoint")
        return record
    roots_d1 = sturm_root_count(d1, 0, 1)
    roots_g = sturm_root_count(det_ghat, 0, 1)
    record["sectionDetRoots"] = roots_d1
    record["conjugatorDetRoots"] = roots_g
    record["ok"] = roots_d1 == 0 and roots_g == 0
    return record


def _chart_polynomials(lift: LiftCore, interval: LiftInterval) -> tuple[RatPoly, RatPoly]:
    """d1 and det ghat on one chart, in sigma with t = left + (right - left)
    sigma, from one elimination.

    B is affine on the proven power curve, so the block ``[A | c]`` is too:
    it is read off B at the two ends, and its slope ``[dA | dc]`` is their
    difference.  With dA = CR (C the pivot columns of dA, R the nonzero
    rows of its rref, r = rank dA), ``A_left`` is reduced once against
    ``[C | c_left | dc]``, giving det A_left, X = A_left^-1 C, y_left and
    A_left^-1 dc.  With ``M(sigma) = I_r + sigma RX`` and ``u(sigma) =
    R (y_left + sigma A_left^-1 dc)``, Sylvester's identity gives ``d1 =
    det A_left det M`` and Woodbury's ``d1 y = det A_left (det M (y_left +
    sigma A_left^-1 dc) - sigma X adj(M) u)``, with adj(M) u as r Cramer
    determinants of size r.  Then ``ghat = d1 I - sum_k (d1 y)_k
    E_front[k]``.  At rank 0 the block is 0 x 0: d1 = 1 and ghat = I,
    valid exactly where B = 0, that is where U_t^p = 0, which the curve's
    two ends show.

    Raises OutsideNeighborhoodError where the displacement rank differs from
    the base point's at an end, or A_left is singular.
    """
    section, rho = lift.section, lift.section.rank
    base, slope = lift.power_curve
    powers = [_plus_scaled(base, Scalar(t), slope) for t in (interval.left, interval.right)]
    if not rho:  # B = 0 exactly where U_t^p = 0
        if not all(u.is_zero() for u in powers):
            raise OutsideNeighborhoodError("displacement rank differs from base point")
        one = RatPoly((1,))
        return one, one
    ends = [matrix_mul(interval.anchor_inv, matrix_mul(u, interval.anchor)) for u in powers]
    if any(section.displacement_rank(b) != rho for b in ends):
        raise OutsideNeighborhoodError("displacement rank differs from base point")
    (left, left_den), (right, right_den) = map(section.block_rows, ends)
    den = lcm(left_den, right_den)
    left = [_times(row, den // left_den) for row in left]
    step = [[y - x for x, y in zip(row, _times(other, den // right_den))] for row, other in zip(left, right)]
    factor = _Reduction(step, [den] * rho, rho)
    pivots, r = factor.pivots, len(factor.pivots)
    joined = [row[:rho] + [d[c] for c in pivots] + [row[rho], d[rho]] for row, d in zip(left, step)]
    red = _Reduction(joined, [den] * rho, rho)
    if len(red.pivots) < rho:
        raise OutsideNeighborhoodError("leading block singular at this operator")
    solved = red.form(range(rho), range(rho, rho + r + 2))  # [X | y_left | A_left^-1 dc]
    det_num, det_den = red.det_ints()
    # R [X | y_left | A_left^-1 dc] = [RX | u(0) | u(1) - u(0)]
    ru = _ints(matrix_mul(_made(r, rho, factor.form(range(r), range(rho))), _made(rho, r + 2, solved)))
    m, cramer = _identity_plus_det(ru, r), [_identity_plus_det(ru, r, i) for i in range(r)]
    # ghat / det A_left is det M I minus (d1 y)_k / det A_left at each
    # front[k] = (i, j); a column j that no front[k] reaches holds det M
    # alone, so the determinant is det M^(n - |S|) times that of the block
    # on the columns S that they reach, and the same rows
    n = base.rows
    cols = sorted({idx // n for idx in section.section.front})
    at = {j: a for a, j in enumerate(cols)}
    zero = RatPoly()
    block = [[m if a == b else zero for b in range(len(cols))] for a in range(len(cols))]
    for idx, x, e in zip(section.section.front, *solved):
        i, j = idx % n, idx // n
        if i in at:
            entry = m * _poly(x[r : r + 2], e)
            for xi, w in zip(x, cramer):
                if xi:
                    entry = entry - w * _poly([0, xi], e)
            block[at[i]][at[j]] = block[at[i]][at[j]] - entry
    det_ghat = _poly([det_num**n], det_den**n) * poly_matrix_det(block)
    for _ in range(n - len(cols)):
        det_ghat = det_ghat * m
    return _poly([det_num], det_den) * m, det_ghat


# -- centralizer segments -----------------------------------------------------


class BlendFactor:
    """N = Q - I = CR for the blend B(z) = (1-z)I + zQ = I + zCR of a square
    Q: C is the pivot columns of N and R the nonzero rows of rref(N), so
    r = rank N.  With M(z) = I_r + zRC, ``det B(z) = det M(z)`` by
    Sylvester's identity and ``B(z)^-1 = I - zC M(z)^-1 R`` by Woodbury's."""

    def __init__(self, q: Matrix):
        n = q.rows
        shifted = q - Matrix.identity(n)
        red = _Reduction(*_ints(shifted), n)
        r = len(red.pivots)
        self.c, self.r = _columns(shifted, red.pivots), _made(r, n, red.form(range(r), range(n)))
        self.rc = matrix_mul(self.r, self.c)

    @cached_property
    def determinant(self) -> RatPoly:
        """det M(z), of degree at most r."""
        return _identity_plus_det(_ints(self.rc), self.rc.rows)


def _identity_plus_det(form: _Ints, r: int, column: Optional[int] = None) -> RatPoly:
    """det(I_r + z X), of degree at most r, for X the first r columns of the
    integer form ``form``; with ``column``, Cramer's numerator for u(z) =
    u0 + z u1, the form's next two columns: that column of I_r + z X
    replaced by u(z).  With row i of the form x_i / d_i, row i of d_i (I_r +
    z X) has the integer coefficient rows x_i[:r] and d_i e_i."""
    levels = []
    for i, (x, d) in enumerate(zip(*form)):
        top, low = x[:r], [d * (i == j) for j in range(r)]
        if column is not None:
            top[column], low[column] = x[r + 1], x[r]
        levels.append([top, low])
    return _levels_det(levels, form.dens, r)


@dataclass(frozen=True)
class CentralizerSegment:
    """Conjugation by B(z) = (1-z)I + zQ along a determinant-certified detour.

    With Q - I = N = CR (``blend``), BX = X + zNX and B^-1 = I - zC M^-1 R,
    ``gamma(z) = B X B^-1 = BX - z (XC + z NXC) M(z)^-1 R``: a sample is one
    solve of the r x r matrix M(z) against R and n x r x n products, with
    NX, XC and NXC formed on the first evaluation.  As det B = det M, the
    solve succeeds exactly where B is invertible and raises
    SingularMatrixError elsewhere.
    """

    base_root: Matrix  # X
    conjugator: Matrix  # Q, commuting with the common power
    waypoints: tuple[Scalar, ...]  # complex detour from 0 to 1
    blend: BlendFactor = field(compare=False, repr=False)  # Q - I = CR, derived from Q

    kind = "centralizer"

    def _omega(self, s: Fraction) -> Scalar:
        pieces = len(self.waypoints) - 1
        j = min(int(s * pieces), pieces - 1)
        w0, w1 = self.waypoints[j], self.waypoints[j + 1]
        return w0 + (w1 - w0) * Scalar(s * pieces - j)

    @cached_property
    def _products(self) -> tuple[Matrix, Matrix, Matrix]:
        """NX = C(RX), XC and NXC = C(RX C)."""
        c, x = self.blend.c, self.base_root
        rx = matrix_mul(self.blend.r, x)
        return matrix_mul(c, rx), matrix_mul(x, c), matrix_mul(c, matrix_mul(rx, c))

    def _bx_minus(self, z: Scalar) -> tuple[Matrix, Optional[Matrix]]:
        """``(gamma(z), BX)`` with ``gamma(z) = BX - z (XC + z NXC) M(z)^-1 R``
        and BX = X + zNX; (X, None) when zN = 0, where B = I."""
        f = self.blend
        if not f.r.rows or z.is_zero():
            return self.base_root, None
        nx, xc, nxc = self._products
        bx = _plus_scaled(self.base_root, z, nx)
        rows = solve(_plus_scaled(Matrix.identity(f.r.rows), z, f.rc), f.r)
        return _plus_scaled(bx, -z, matrix_mul(_plus_scaled(xc, z, nxc), rows)), bx

    def evaluate(self, s: ParamLike) -> Matrix:
        return self._bx_minus(self._omega(_as_fraction(s)))[0]

    def sample(self, s: Fraction) -> tuple[Matrix, Optional[Profile]]:
        """``evaluate(s)`` and X's profile, once ``gamma B == BX``, that is
        ``gamma + z (gamma C) R == BX``, holds exactly for the BX that built
        gamma (B is invertible there, as the solve with M succeeded); else
        None for the profile."""
        z = self._omega(s)
        gamma, bx = self._bx_minus(z)
        f = self.blend
        if bx is not None and _plus_scaled(gamma, z, matrix_mul(matrix_mul(gamma, f.c), f.r)) != bx:
            return gamma, None
        return gamma, self._root_profile

    @property
    def certifications(self) -> tuple[dict, ...]:
        """The record of each detour piece, as the path JSON holds it."""
        return _detour_records(self.waypoints)

    _root_profile = cached_property(lambda self: nilpotent_profile(self.base_root))

    @property
    def start(self) -> Matrix:
        return self.base_root

    @property
    def end(self) -> Matrix:
        return self.evaluate(Fraction(1))

    def to_json_obj(self) -> dict:
        return {
            "kind": "centralizer",
            "baseRoot": matrix_to_json_obj(self.base_root),
            "conjugator": matrix_to_json_obj(self.conjugator),
            "waypoints": [format_scalar(w) for w in self.waypoints],
            "certifications": list(self.certifications),
        }


def _detour_records(waypoints: tuple[Scalar, ...], d: Optional[RatPoly] = None) -> tuple[dict, ...]:
    """The record of each detour piece: as the path JSON holds it, or, given
    the blend determinant d, certified nonvanishing on the piece."""
    return tuple(
        {
            "from": format_scalar(w0),
            "to": format_scalar(w1),
            "ok": d is None or certify_nonvanishing_segment(d, w0, w1),
        }
        for w0, w1 in zip(waypoints, waypoints[1:])
    )


def centralizer_segment(
    a: Matrix,
    p: int,
    x: Matrix,
    y: Matrix,
    *,
    bases: Optional[tuple[JordanDecomposition, JordanDecomposition]] = None,
) -> CentralizerSegment:
    """Certified path from x to y through conjugates sharing the power a.

    Q = Py Px^-1 comes from Jordan bases of x and y.  A caller that has
    already checked ``x^p = y^p = a`` and holds ``jordan_basis`` of both,
    as ``connect_roots`` does, passes them as ``bases``; otherwise both
    checks run and both bases are computed here.

    The direct segment 0 -> 1 is tried first; if the blend determinant has
    a root on it, three-piece detours through i*eps and 1 + i*eps are
    searched over eps = 1/2, 1/3, ...  A valid detour always exists since
    the determinant has finitely many roots and is 1 at z = 0; running out
    of budget therefore signals a fault rather than a negative result.
    """
    if bases is None:
        if not (_is_root(x, p, a) and _is_root(y, p, a)):
            raise PowerMismatchError("segment endpoints must both power to the target")
        bases = jordan_basis(x), jordan_basis(y)
    q = _witness(*bases)
    if matrix_mul(q, a) != matrix_mul(a, q):
        raise AssertionError("similarity witness must commute with the power")
    blend = BlendFactor(q)
    detours = (
        (ZERO, Scalar(0, Fraction(1, k)), Scalar(1, Fraction(1, k)), ONE) for k in range(2, 2 + DETOUR_BUDGET)
    )
    for waypoints in chain([(ZERO, ONE)], detours):
        pieces = zip(waypoints, waypoints[1:])
        if all(certify_nonvanishing_segment(blend.determinant, w0, w1) for w0, w1 in pieces):
            return CentralizerSegment(x, q, waypoints, blend)
    raise DetourSearchExhaustedError("no certified detour within the epsilon budget")


# -- adjacency segments --------------------------------------------------------


@dataclass(frozen=True)
class AdjacencySegment:
    """Deformation of one trailing cell pair, conjugated into position."""

    outer: Matrix  # P'
    outer_inv: Matrix
    bystander: Matrix  # untouched Jordan block sum
    lift: LiftCore
    move: AdjacencyMove

    kind = "adjacency"

    @property
    def reversed_time(self) -> bool:
        """A backward move runs the deformation from t = 1 back to t = 0."""
        return self.move.direction == "backward"

    def evaluate(self, s: ParamLike) -> Matrix:
        s = _as_fraction(s)
        t = 1 - s if self.reversed_time else s
        g = self.lift.gamma(t)
        inner = direct_sum([self.bystander, g])
        return matrix_mul(self.outer, matrix_mul(inner, self.outer_inv))

    _bystander_profile = cached_property(lambda self: nilpotent_profile(self.bystander))

    def sample(self, s: Fraction) -> tuple[Matrix, Profile]:
        """``evaluate(s)``, a conjugate of the bystander plus q^-1 U_t q, and
        its profile: the bystander's plus that of U_t."""
        t = 1 - s if self.reversed_time else s
        return self.evaluate(s), self._bystander_profile + nilpotent_profile(self.lift.family_matrix(t))

    # Each endpoint is a lift evaluation; the segment reads it once.
    @cached_property
    def start(self) -> Matrix:
        return self.evaluate(Fraction(0))

    @cached_property
    def end(self) -> Matrix:
        return self.evaluate(Fraction(1))

    # The end's Jordan basis: the segment's own profile check reads it, and
    # the next segment of a path starts from it.
    end_basis = cached_property(lambda self: jordan_basis(self.end))

    def to_json_obj(self) -> dict:
        """The move and the conjugation into position; the lift is rebuilt
        from the move's window on load."""
        return {
            "kind": "adjacency",
            "move": self.move.to_json_obj(),
            "outerConjugator": matrix_to_json_obj(self.outer),
            "bystander": matrix_to_json_obj(self.bystander),
        }


def _reorder_cells_trailing(
    dec_sizes: Sequence[int], trailing: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Indices of cells with the requested trailing sizes moved to the end.

    The last cell of each requested size is taken (later requests may not
    reuse an index), keeping everything deterministic.
    """
    chosen: list[int] = []
    used: set[int] = set()
    for size in reversed(trailing):
        found = None
        for i in range(len(dec_sizes) - 1, -1, -1):
            if i not in used and dec_sizes[i] == size:
                found = i
                break
        if found is None:
            raise MissingCellsError(f"no unused Jordan cell of size {size}")
        used.add(found)
        chosen.append(found)
    chosen.reverse()
    others = [i for i in range(len(dec_sizes)) if i not in used]
    return others, chosen


def adjacency_segment(
    a: Matrix, p: int, n: Matrix, move: AdjacencyMove, *, basis: Optional[JordanDecomposition] = None
) -> AdjacencySegment:
    """Path from the root n across one adjacency move, power held at a.

    A Jordan decomposition of n is reordered so the move's cells sit last;
    the two-cell deformation runs forward for a forward move and in
    reversed time (aligned through an exact similarity of the deformed
    endpoint) for a backward one.

    A caller that has already checked ``n^p = a`` and holds
    ``jordan_basis(n)``, as ``connect_roots`` does for each segment's end,
    passes it as ``basis``; otherwise the check runs and the basis is
    computed here.  Either way the exact checks below cover both: the
    assertion ``seg.start == n`` proves ``P J P^-1 = n``, and as the lift
    keeps the power constant, ``seg.end^p = a`` then gives ``n^p = a``.
    """
    if basis is None and not _is_root(n, p, a):
        raise PowerMismatchError("root does not power to the target")
    if move.p != p:
        raise ValueError("move was built for a different power")
    dec = jordan_basis(n) if basis is None else basis
    prof = dec.profile
    k, l = move.k, move.l
    forward = move.direction == "forward"
    if forward:
        needed = [s for s in (k, l) if s > 0]
    else:
        needed = [k + 1, l - 1]

    others, chosen = _reorder_cells_trailing(dec.cell_sizes, needed)
    order = others + chosen
    # regroup the conjugator's columns cell by cell in the new order
    starts = [sum(dec.cell_sizes[:i]) for i in range(len(dec.cell_sizes))]
    p1 = _columns(dec.conjugator, [c for i in order for c in range(starts[i], starts[i] + dec.cell_sizes[i])])

    bystander = direct_sum([jordan_cell(dec.cell_sizes[i]) for i in others])
    lift = lift_family(k, l, p)

    if forward:
        outer = p1
    else:
        gamma1 = lift.gamma(Fraction(1))
        model = direct_sum([jordan_cell(k + 1), jordan_cell(l - 1)])
        w = similarity_witness(model, gamma1)  # gamma1 = w model w^-1
        outer = matrix_mul(p1, direct_sum([Matrix.identity(bystander.rows), inverse(w)]))

    seg = AdjacencySegment(outer, inverse(outer), bystander, lift, move)
    if seg.start != n:
        raise AssertionError("adjacency segment must start exactly at the given root")
    if matrix_pow(seg.end, p) != a:
        raise AssertionError("adjacency segment endpoint lost the power identity")
    if seg.end_basis.profile != apply_move(prof, move):
        raise AssertionError("adjacency segment endpoint has the wrong profile")
    return seg


# -- assembled root paths -------------------------------------------------------


@dataclass(frozen=True)
class RootPath:
    """Piecewise path of exact p-th roots, uniformly parametrized on [0,1]."""

    target: Matrix
    power: int
    segments: tuple

    def __post_init__(self):
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        for s0, s1 in zip(self.segments, self.segments[1:]):
            if s0.end != s1.start:
                raise ValueError("segments do not stitch exactly")

    @property
    def start(self) -> Matrix:
        return self.segments[0].start

    @property
    def end(self) -> Matrix:
        return self.segments[-1].end

    def evaluate(self, t: ParamLike) -> Matrix:
        t = _as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("path parameter must lie in [0, 1]")
        seg, local = self._locate(t)
        return seg.evaluate(local)

    def sample(self, t: Fraction) -> tuple[Matrix, Optional[Profile]]:
        """The point at t in [0, 1] and its profile, both from one call to
        the segment that covers t (see ``verify``)."""
        seg, local = self._locate(t)
        return seg.sample(local)

    def _locate(self, t: Fraction) -> tuple:
        """The segment that covers t, and t in that segment's parameter."""
        count = len(self.segments)
        scaled = t * count
        idx = min(int(scaled), count - 1)
        return self.segments[idx], scaled - idx

    def to_json_obj(self) -> dict:
        return {
            "A": matrix_to_json_obj(self.target),
            "p": self.power,
            "endpoints": {"X": matrix_to_json_obj(self.start), "Y": matrix_to_json_obj(self.end)},
            "segments": [seg.to_json_obj() for seg in self.segments],
        }


@dataclass(frozen=True)
class Certificate:
    """Record of exact residual checks plus per-segment certifications."""

    samples: tuple[tuple[Fraction, bool, Optional[Profile]], ...]
    segment_certifications: tuple
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "mode": "certified",  # the only mode; kept so the schema stays the same
            "samples": [
                {
                    "t": format_rational(t),
                    "residualZero": res,
                    "profile": None if prof is None else prof.to_text(),
                }
                for t, res, prof in self.samples
            ],
            "segmentCertifications": list(self.segment_certifications),
            "ok": self.ok,
        }


def connect_roots(a: Matrix, p: int, x: Matrix, y: Matrix, mode=None) -> RootPath:
    """Explicit path from x to y inside the p-th roots of a.

    The profile chain between the two root profiles drives one adjacency
    segment per move (each starting exactly where the previous ended); a
    closing centralizer segment lands exactly on y.  ``verify`` certifies
    it.  ``mode`` is accepted for older callers and ignored.
    """
    if not _is_root(x, p, a):
        raise PowerMismatchError("x^p differs from the target")
    if not _is_root(y, p, a):
        raise PowerMismatchError("y^p differs from the target")

    # One Jordan basis per root, each segment handing its end's basis on;
    # jordan_basis(x) raises NotNilpotentError exactly when a = x^p is not
    # nilpotent.
    dx, dy = jordan_basis(x), jordan_basis(y)
    chain = profile_chain(dx.profile, dy.profile, p)

    segments = []
    current, basis = x, dx
    for mv in chain.moves:
        seg = adjacency_segment(a, p, current, mv, basis=basis)
        segments.append(seg)
        current, basis = seg.end, seg.end_basis
    segments.append(centralizer_segment(a, p, current, y, bases=(basis, dy)))
    return RootPath(a, p, tuple(segments))


def _certify_segment(seg) -> dict:
    if seg.kind == "centralizer":
        pieces = list(_detour_records(seg.waypoints, seg.blend.determinant))
        return {"kind": "centralizer", "pieces": pieces, "ok": all(p["ok"] for p in pieces)}
    intervals = [certify_lift_interval(seg.lift, iv) for iv in seg.lift.intervals]
    return {"kind": "adjacency", "intervals": intervals, "ok": all(rec["ok"] for rec in intervals)}


def verify(path: RootPath, sample_count: int, mode=None) -> Certificate:
    """Exact residual checks on a uniform grid plus segment certifications.

    Every sample must power exactly to the target and have a profile, read
    off its segment's model (None when it is not nilpotent or fails its
    segment's conjugation check); where the path is undefined, a sample has
    a nonzero residual and no profile.  Every segment certification must
    pass too: both charts of each adjacency lift and each detour piece are
    Sturm-certified on their whole intervals.  ``mode`` is accepted for
    older callers and ignored.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample interval")
    nilpotent_profile(path.target)  # raises NotNilpotentError otherwise

    samples = []
    all_ok = True
    for i in range(sample_count + 1):
        t = Fraction(i, sample_count)
        residual_zero, prof = False, None
        # where the path is undefined, or the model is not nilpotent, the sample fails
        with suppress(SingularMatrixError, OutsideNeighborhoodError, NotNilpotentError):
            m, prof = path.sample(t)
            residual_zero = _is_root(m, path.power, path.target)
        all_ok = all_ok and residual_zero and prof is not None
        samples.append((t, residual_zero, prof))

    seg_certs = tuple(_certify_segment(seg) for seg in path.segments)
    all_ok = all_ok and all(c["ok"] for c in seg_certs)
    return Certificate(tuple(samples), seg_certs, all_ok)


# -- path JSON ---------------------------------------------------------------


def _segment_from_json_obj(obj, p: int) -> object:
    """One segment of a path with power p, from its JSON object.

    A centralizer segment's certification records are derived from its
    waypoints; stored records must equal them.  An adjacency segment is read
    as its move, outer conjugator and bystander block, and its lift is
    rebuilt from the move's window; any other keys (the lift data and
    certifications older files carry) are ignored.
    """
    if not isinstance(obj, dict):
        raise InputFormatError("segment JSON must be an object")
    kind = obj.get("kind")
    if kind == "centralizer":
        if not isinstance(obj["waypoints"], list):
            raise InputFormatError("centralizer waypoints must be a list")
        waypoints = tuple(parse_scalar(w) for w in obj["waypoints"])
        if len(waypoints) < 2 or waypoints[0] != ZERO or waypoints[-1] != ONE:
            raise InputFormatError("centralizer waypoints must run from 0 to 1")
        records = list(_detour_records(waypoints))
        if obj.get("certifications", records) != records:
            raise InputFormatError("centralizer certifications do not match its waypoints")
        base = matrix_from_json_obj(obj["baseRoot"])
        q = matrix_from_json_obj(obj["conjugator"])
        if not base.is_square():
            raise InputFormatError(f"centralizer base root is {base.rows}x{base.cols}, not square")
        if (q.rows, q.cols) != (base.rows, base.rows):
            raise InputFormatError(
                f"centralizer conjugator is {q.rows}x{q.cols}, but its base root is {base.rows}x{base.rows}"
            )
        return CentralizerSegment(base, q, waypoints, BlendFactor(q))
    if kind == "adjacency":
        move = AdjacencyMove.from_json_obj(obj["move"])
        if move.p != p:
            raise InputFormatError(f"adjacency move has p = {move.p} but the path has p = {p}")
        outer = matrix_from_json_obj(obj["outerConjugator"])
        bystander = matrix_from_json_obj(obj["bystander"])
        if not bystander.is_square() or outer.rows != bystander.rows + move.k + move.l:
            raise InputFormatError("outer conjugator must have k + l more rows than the bystander")
        lift = lift_family(move.k, move.l, p)
        return AdjacencySegment(outer, inverse(outer), bystander, lift, move)
    raise InputFormatError(f"unknown segment kind {kind!r}")


def path_from_json_obj(obj) -> RootPath:
    if isinstance(obj, dict) and "path" in obj:
        obj = obj["path"]
    try:
        target = matrix_from_json_obj(obj["A"])
        power = parse_int(obj, "p")
        if power < 1:
            raise InputFormatError("path power p must be a positive integer")
        if not isinstance(obj["segments"], list):
            raise InputFormatError("path segments must be a list")
        segments = tuple(_segment_from_json_obj(s, power) for s in obj["segments"])
        path = RootPath(target, power, segments)
        n = path.start.rows
        if (target.rows, target.cols) != (n, n):
            raise InputFormatError(
                f"path target A is {target.rows}x{target.cols}, but the path is {n}x{n}"
            )
        endpoints = obj["endpoints"]
        if matrix_from_json_obj(endpoints["X"]) != path.start:
            raise InputFormatError("stored endpoint X is not the start of the path")
        if matrix_from_json_obj(endpoints["Y"]) != path.end:
            raise InputFormatError("stored endpoint Y is not the end of the path")
        return path
    except (KeyError, TypeError, ValueError, ZeroDivisionError, SingularMatrixError) as exc:
        raise InputFormatError(f"bad path JSON: {exc}") from None

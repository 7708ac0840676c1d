"""Explicit paths inside the set of p-th roots of a nilpotent matrix.

Two segment kinds compose into a root-connecting path:

* centralizer segments conjugate a root by ``(1-z)I + zQ`` along a complex
  detour on which the determinant is certified nonvanishing, keeping the
  p-th power literally fixed; that determinant has degree at most
  r = rank(Q - I) and is taken from r x r determinants;
* adjacency segments deform a trailing pair of Jordan cells (k, l) toward
  (k+1, l-1) through the one-parameter family ``U_t``, conjugating back by
  an exactly-lifted family q(t) so that ``gamma(t)^p`` is constant.

The lift is a deterministic function of its window (k, l, p), realized
piecewise: marching intervals compose the local cross-section around the
power matrix with the accumulated conjugator and are bisected adaptively
whenever the section leaves its validity neighborhood.  The final interval
instead anchors at the deformation endpoint, where the left-anchored chart
always degenerates, and glues on through an exact centralizer correction.
A stored adjacency segment is therefore just its move, outer conjugator and
bystander block; loading rebuilds the lift, and a certified ``verify``
Sturm-certifies each of its intervals.  ``verify`` reads each sample's
Jordan profile off its segment's small model, not off the sample.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import (
    DegenerateParameterError,
    DetourSearchExhaustedError,
    InputFormatError,
    LiftDepthExceededError,
    MissingCellsError,
    NotNilpotentError,
    OutsideNeighborhoodError,
    PowerMismatchError,
    SingularMatrixError,
    WindowViolationError,
)
from .graph import profile_chain
from .jordan import jordan_basis, nilpotent_profile, similarity_witness
from .matrix import (
    Matrix,
    _canonical,
    _columns,
    _int_rows,
    _integer,
    _ints,
    _made,
    _over_one,
    _product,
    _Reduction,
    _scaled,
    _typed,
    direct_sum,
    inverse,
    jordan_cell,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
    rank,
    solve,
)
from .polynomials import (
    RatPoly,
    _newton_poly,
    certify_nonvanishing_segment,
    poly_interpolate_entries,
    poly_matrix_det,
    sturm_root_count,
)
from .profiles import AdjacencyMove, Profile, _window_a, apply_move
from .scalar import ONE, ZERO, Scalar, format_rational, format_scalar, parse_int, parse_scalar
from .sections import ConjugationSection, conjugation_section

LIFT_DEPTH_CAP = 32
INITIAL_LIFT_INTERVALS = 4
DETOUR_BUDGET = 32

ParamLike = Union[Fraction, int]


def _as_fraction(t: ParamLike) -> Fraction:
    return t if isinstance(t, Fraction) else Fraction(t)


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
    return _made(n, n, _canonical(rows, dens, False))


def basic_family_similarity(k: int, l: int, t: ParamLike) -> Matrix:
    """Invertible R(t) with ``U_t = R(t) (J_k + J_l) R(t)^-1`` for t in (0,1).

    Columns are x_k..x_1, then ``(1-t) y_j + t x_(j-1)`` for j = l..2, then
    y_1; the arrangement degenerates at the parameter endpoints.
    """
    if k < 0 or l < 1 or k >= l:
        raise ValueError("need 0 <= k < l")
    t = _as_fraction(t)
    if t <= 0 or t >= 1:
        raise DegenerateParameterError("similarity basis requires 0 < t < 1")
    n = k + l
    one_minus = Scalar(1 - t)
    t_s = Scalar(t)
    cols: list[list[Scalar]] = []
    for i in range(k):  # x_k .. x_1 sit at standard positions
        e = [ZERO] * n
        e[i] = ONE
        cols.append(e)
    for j in range(l, 1, -1):
        v = [ZERO] * n
        v[k + l - j] = one_minus  # y_j
        if 1 <= j - 1 <= k:
            v[k - (j - 1)] = t_s  # x_(j-1)
        cols.append(v)
    e = [ZERO] * n
    e[n - 1] = ONE  # y_1
    cols.append(e)
    return Matrix(n, n, [list(row) for row in zip(*cols)])


# -- lifted deformation with constant p-th power ------------------------------


@dataclass(frozen=True)
class LiftInterval:
    """One lift interval with its anchoring rule.

    On [left, right] the lift is ``q(t) = anchor @ g(anchor^-1 U_t^p anchor)
    @ correction``.  Marching intervals anchor at their left endpoint with
    the identity correction; the final interval must anchor at t = 1 (the
    left-anchored chart always degenerates exactly there), and its
    correction is the centralizer element gluing it continuously onto the
    previous interval.
    """

    left: Fraction
    right: Fraction
    anchor: Matrix
    anchor_inv: Matrix
    correction: Matrix


@dataclass(frozen=True)
class LiftCore:
    """Partitioned lift data: q(t_i) conjugators locking U_t^p onto A0."""

    k: int
    l: int
    p: int
    base_power: Matrix  # A0 = U_0^p
    section: ConjugationSection
    partition: tuple[Fraction, ...]
    conjugators: tuple[Matrix, ...]
    intervals: tuple[LiftInterval, ...]

    def family_matrix(self, t: ParamLike) -> Matrix:
        return basic_family(self.k, self.l, t)

    def _interval_index(self, t: Fraction) -> int:
        pts = self.partition
        lo, hi = 0, len(pts) - 2
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if pts[mid] <= t:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def q_at(self, t: ParamLike) -> Matrix:
        """Lift conjugator q(t) by its interval's formula; exact at partition
        points by construction.  Raises OutsideNeighborhood where the
        formula is invalid, which a certified interval rules out."""
        t = _as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("lift parameter must lie in [0, 1]")
        i = self._interval_index(t)
        if t == self.partition[i]:
            return self.conjugators[i]
        if t == self.partition[i + 1]:
            return self.conjugators[i + 1]
        iv = self.intervals[i]
        u_p = matrix_pow(self.family_matrix(t), self.p)
        g = self.section.conjugator_at(
            matrix_mul(iv.anchor_inv, matrix_mul(u_p, iv.anchor))
        )
        return matrix_mul(matrix_mul(iv.anchor, g), iv.correction)

    def gamma(self, t: ParamLike) -> Matrix:
        """The deformed root: q(t)^-1 U_t q(t), with gamma(t)^p = A0."""
        t = _as_fraction(t)
        q = self.q_at(t)
        return matrix_mul(inverse(q), matrix_mul(self.family_matrix(t), q))


def lift_family(k: int, l: int, p: int) -> LiftCore:
    """Adaptive lift of the two-cell deformation with exact power lock.

    Marching from the left, each candidate interval anchors at its left
    endpoint and is accepted once the cross-section around A0 evaluates at
    its midpoint and right end (the left end pulls back to A0 exactly);
    otherwise it is bisected.  The result depends on (k, l, p) alone, so a
    stored path rebuilds it; ``certify_lift_interval`` proves the section
    valid on a whole interval.

    The left-anchored rule provably cannot close the deformation: pulling
    the family back by the accumulated conjugator rescales it so that t = 1
    always sits exactly on the section's singular locus.  The final
    interval therefore anchors at t = 1 instead, through an exact
    similarity of U_1^p onto A0, and is glued continuously onto the march
    by a centralizer correction.
    """
    if _window_a(k, l, p) is None:
        raise WindowViolationError(f"no window index a with {p}a <= {k} < {l} <= {p}(a+1)")
    u0 = basic_family(k, l, 0)
    a0 = matrix_pow(u0, p)
    section = conjugation_section(a0)
    n = k + l
    end = Fraction(1)

    def family_power(t: Fraction) -> Matrix:
        return matrix_pow(basic_family(k, l, t), p)

    right_anchor = None  # lazily built exact similarity U_1^p = Q1 A0 Q1^-1

    def get_right_anchor() -> tuple[Matrix, Matrix]:
        nonlocal right_anchor
        if right_anchor is None:
            q1 = similarity_witness(a0, family_power(end))
            right_anchor = (q1, inverse(q1))
        return right_anchor

    identity = Matrix.identity(n)
    points = [Fraction(0)]
    qs = [identity]
    q_left_inv = identity  # inverse of qs[-1] while the march anchors on the left
    intervals: list[LiftInterval] = []
    pending = [Fraction(i, INITIAL_LIFT_INTERVALS) for i in range(1, INITIAL_LIFT_INTERVALS + 1)]
    min_len = Fraction(1, INITIAL_LIFT_INTERVALS) / (2**LIFT_DEPTH_CAP)

    def accept(anchor: Matrix, anchor_inv: Matrix, ts: Sequence[Fraction]) -> Optional[Matrix]:
        """Section conjugator at the last of ``ts`` if the anchored section
        is valid at every parameter of ``ts``, else None."""
        try:
            for t in ts:
                b = matrix_mul(anchor_inv, matrix_mul(family_power(t), anchor))
                g = section.conjugator_at(b)
        except OutsideNeighborhoodError:
            return None
        return g

    while pending:
        left = points[-1]
        right = pending[0]
        q_left = qs[-1]
        mid = (left + right) / 2

        g_right = accept(q_left, q_left_inv, (mid, right))
        if g_right is not None:
            pending.pop(0)
            q_right = matrix_mul(q_left, g_right)
            points.append(right)
            qs.append(q_right)
            intervals.append(LiftInterval(left, right, q_left, q_left_inv, identity))
            q_left_inv = inverse(q_right)
            continue

        if right == end:
            anchor, anchor_inv = get_right_anchor()
            g_left = accept(anchor, anchor_inv, (mid, left))
            if g_left is not None:
                # glue: correction S with anchor g_left S = q_left, S in C(A0)
                correction = matrix_mul(
                    inverse(matrix_mul(anchor, g_left)), q_left
                )
                if matrix_mul(correction, a0) != matrix_mul(a0, correction):
                    raise AssertionError("glue correction must centralize the base power")
                q_end = matrix_mul(anchor, correction)
                pending.pop(0)
                points.append(end)
                qs.append(q_end)
                intervals.append(LiftInterval(left, end, anchor, anchor_inv, correction))
                continue

        if right - left < min_len:
            raise LiftDepthExceededError("lift interval bisected below depth cap")
        pending.insert(0, mid)

    core = LiftCore(k, l, p, a0, section, tuple(points), tuple(qs), tuple(intervals))
    # Exact invariant at every (invertible) partition conjugator: U_t^p q = q A0.
    for t, q in zip(core.partition, core.conjugators):
        if matrix_mul(family_power(t), q) != matrix_mul(q, a0):
            raise AssertionError("lift invariant failed at a partition point")
    return core


def certify_lift_interval(
    section: ConjugationSection,
    family_power,
    p: int,
    anchor: Matrix,
    anchor_inv: Matrix,
    left: Fraction,
    right: Fraction,
) -> dict:
    """Sturm-certify section validity across one whole lift interval.

    The section's leading-block determinant d1(t) and the cleared-denominator
    conjugator ``ghat(t) = d1(t) g(B(t))`` along the anchored power curve
    ``B(t) = anchor^-1 U_t^p anchor`` are polynomials, recovered exactly by
    interpolation; nonvanishing of d1 and det(ghat) on [left, right] makes
    the interval's lift formula valid everywhere on it.

    Their degrees are bounded from the two endpoint evaluations.  U_t^p is
    affine in t (checked here: it has degree at most p and matches its chord
    at p + 1 parameters), so B(t), the leading block A(t) and the block's
    last column c(t) are affine too.  As ``det(M0 + t M1)`` has degree at
    most rank(M1), d1 has degree at most r = rank(A(right) - A(left)), and
    by Cramer's rule ``adj(A) c``, hence ghat, has degree at most r + 1.
    So r + 2 equally spaced nodes suffice (never more than the rank*p + 1
    of the generic bound), and the interpolants are the unique ones.
    """
    span = right - left
    power_left = family_power(left)
    power_right = family_power(right)
    for i in range(1, p):
        s = Fraction(i, p)
        chord = power_left + (power_right - power_left).scale(Scalar(s))
        if family_power(left + span * s) != chord:
            raise AssertionError("family power must be affine in the lift parameter")

    def node(power: Matrix) -> tuple[Matrix, Scalar, Matrix]:
        block, d_val, g = section.evaluate(matrix_mul(anchor_inv, matrix_mul(power, anchor)))
        return block, d_val, g.scale(d_val)

    try:
        block_left, *at_left = node(power_left)
        block_right, *at_right = node(power_right)
        node_count = min(max(section.rank, 1) * p + 1, rank(block_right - block_left) + 2)
        nodes = [left + span * Fraction(i, node_count - 1) for i in range(node_count)]
        values = [at_left] + [node(family_power(t))[1:] for t in nodes[1:-1]] + [at_right]
    except OutsideNeighborhoodError:
        return {
            "interval": [format_rational(left), format_rational(right)],
            "ok": False,
            "reason": "section invalid at a certification node",
        }

    # Interpolate in the node index s, with t = left + span * s / last: the
    # change of variable is affine, so it keeps degrees and root counts.
    last = node_count - 1
    d1_samples = [(s, Matrix(1, 1, [[d_val]])) for s, (d_val, _) in enumerate(values)]
    d1 = poly_interpolate_entries(d1_samples, last)[0][0]
    ghat = poly_interpolate_entries([(s, g) for s, (_, g) in enumerate(values)], last)
    det_ghat = poly_matrix_det(ghat)

    record = {
        "interval": [format_rational(left), format_rational(right)],
        "sectionDetDegree": d1.degree(),
        "conjugatorDetDegree": det_ghat.degree(),
    }
    if d1.eval(0).is_zero() or d1.eval(last).is_zero():
        record.update(ok=False, reason="leading-block determinant vanishes at an endpoint")
        return record
    if det_ghat.eval(0).is_zero() or det_ghat.eval(last).is_zero():
        record.update(ok=False, reason="conjugator determinant vanishes at an endpoint")
        return record
    roots_d1 = sturm_root_count(d1, 0, last)
    roots_g = sturm_root_count(det_ghat, 0, last)
    record["sectionDetRoots"] = roots_d1
    record["conjugatorDetRoots"] = roots_g
    record["ok"] = roots_d1 == 0 and roots_g == 0
    return record


# -- centralizer segments -----------------------------------------------------


@dataclass(frozen=True)
class CentralizerSegment:
    """Conjugation by (1-z)I + zQ along a determinant-certified detour."""

    base_root: Matrix  # X
    conjugator: Matrix  # Q, commuting with the common power
    waypoints: tuple[Scalar, ...]  # complex detour from 0 to 1
    certifications: tuple[dict, ...]

    kind = "centralizer"

    def _omega(self, s: Fraction) -> Scalar:
        pieces = len(self.waypoints) - 1
        v = s * pieces
        j = min(int(v), pieces - 1)
        r = Scalar(v - j)
        w0, w1 = self.waypoints[j], self.waypoints[j + 1]
        return w0 + (w1 - w0) * r

    def _blend(self, z: Scalar) -> Matrix:
        """(1-z)I + zQ in integers: with z = w/e and row i of Q equal to
        q_i/d_i, its row i is ``(w q_i + (e - w) d_i e_i) / (e d_i)``."""
        form = _ints(self.conjugator)
        gaussian = form.gaussian or not z.is_real()
        ((w,),), (e,) = _int_rows([[z]], gaussian)
        one_minus = _integer(e, gaussian) - w
        rows = []
        for i, (row, d) in enumerate(zip(_typed(form, gaussian), form.dens)):
            out = [w * x for x in row]
            out[i] = out[i] + one_minus * _integer(d, gaussian)
            rows.append(out)
        return _made(len(rows), len(rows), _canonical(rows, [e * d for d in form.dens], gaussian))

    def _conjugate(self, q: Matrix) -> Matrix:
        """``q X q^-1``, transposed from one solve: ``q^-T (q X)^T``."""
        return solve(q.transpose(), matrix_mul(q, self.base_root).transpose()).transpose()

    def evaluate(self, s: ParamLike) -> Matrix:
        return self._conjugate(self._blend(self._omega(_as_fraction(s))))

    _root_profile = cached_property(lambda self: nilpotent_profile(self.base_root))

    def sample_profile(self, s: Fraction, gamma: Matrix) -> Optional[Profile]:
        """X's profile, once ``gamma B == B X`` holds exactly for gamma = evaluate(s)
        and the blend B at s (invertible, as evaluate solved with it); else None."""
        b = self._blend(self._omega(s))
        if matrix_mul(gamma, b) != matrix_mul(b, self.base_root):
            return None
        return self._root_profile

    @property
    def start(self) -> Matrix:
        return self.base_root

    @property
    def end(self) -> Matrix:
        return self._conjugate(self.conjugator)

    def to_json_obj(self) -> dict:
        return {
            "kind": "centralizer",
            "baseRoot": matrix_to_json_obj(self.base_root),
            "conjugator": matrix_to_json_obj(self.conjugator),
            "waypoints": [format_scalar(w) for w in self.waypoints],
            "certifications": list(self.certifications),
        }


def _detour_records(waypoints: tuple[Scalar, ...]) -> tuple[dict, ...]:
    """The certification record of each detour piece, as the path JSON holds it."""
    return tuple(
        {"from": format_scalar(w0), "to": format_scalar(w1), "ok": True}
        for w0, w1 in zip(waypoints, waypoints[1:])
    )


def _blend_determinant(q: Matrix) -> RatPoly:
    """det((1-z)I + zQ) as an exact polynomial in z, of degree at most
    r = rank(Q - I).

    Q - I = CR, with R the nonzero rows of rref(Q - I) and C the pivot
    columns of Q - I, so by Sylvester's identity
    ``det(I_n + zCR) = det(I_r + zRC)``.  With RC = M/d over one common
    denominator that is ``det(dI + zM) / d^r``: its values at z = 0, ..., r
    come from integer eliminations of size r, and one Newton interpolation
    recovers it.
    """
    n = q.rows
    form = _ints(q)
    gaussian = form.gaussian
    shifted = []  # the rows of Q - I over Q's row denominators
    for i, (row, d) in enumerate(zip(form.rows, form.dens)):
        row = list(row)
        row[i] = row[i] - _integer(d, gaussian)
        shifted.append(row)
    red = _Reduction(shifted, form.dens, gaussian, n)
    r = len(red.pivots)
    pivot_cols = _canonical([[row[c] for c in red.pivots] for row in shifted], form.dens, gaussian)
    rc = _product(red.form(range(r), range(n)), pivot_cols, r)
    gaussian = rc.gaussian
    m_int, d = _over_one(rc, gaussian)
    diagonal = _integer(d, gaussian)
    values = []
    for z in range(r + 1):
        rows = _scaled(m_int, z, gaussian)
        for i in range(r):
            rows[i][i] = rows[i][i] + diagonal
        values.append(_Reduction(rows, [d] * r, gaussian, r).det_ints())
    return _newton_poly(values)


def centralizer_segment(
    a: Matrix, p: int, x: Matrix, y: Matrix, detour_budget: int = DETOUR_BUDGET
) -> CentralizerSegment:
    """Certified path from x to y through conjugates sharing the power a.

    The direct segment 0 -> 1 is tried first; if the blend determinant has
    a root on it, three-piece detours through i*eps and 1 + i*eps are
    searched over eps = 1/2, 1/3, ...  A valid detour always exists since
    the determinant has finitely many roots and is 1 at z = 0; running out
    of budget therefore signals a fault rather than a negative result.
    """
    if matrix_pow(x, p) != a or matrix_pow(y, p) != a:
        raise PowerMismatchError("segment endpoints must both power to the target")
    q = similarity_witness(x, y)
    if matrix_mul(q, a) != matrix_mul(a, q):
        raise AssertionError("similarity witness must commute with the power")
    d = _blend_determinant(q)

    zero = Scalar(0)
    one = Scalar(1)
    if certify_nonvanishing_segment(d, zero, one):
        waypoints = (zero, one)
        return CentralizerSegment(x, q, waypoints, _detour_records(waypoints))

    for denom in range(2, 2 + detour_budget):
        eps = Fraction(1, denom)
        corner0 = Scalar(0, eps)
        corner1 = Scalar(1, eps)
        pieces = [(zero, corner0), (corner0, corner1), (corner1, one)]
        if all(certify_nonvanishing_segment(d, w0, w1) for w0, w1 in pieces):
            waypoints = (zero, corner0, corner1, one)
            return CentralizerSegment(x, q, waypoints, _detour_records(waypoints))
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

    def sample_profile(self, s: Fraction, gamma: Matrix) -> Profile:
        """The profile of ``gamma = evaluate(s)``, a conjugate of the
        bystander plus q^-1 U_t q: the bystander's plus that of U_t."""
        t = 1 - s if self.reversed_time else s
        return self._bystander_profile + nilpotent_profile(self.lift.family_matrix(t))

    # Each endpoint is a lift evaluation; the segment reads it once.
    @cached_property
    def start(self) -> Matrix:
        return self.evaluate(Fraction(0))

    @cached_property
    def end(self) -> Matrix:
        return self.evaluate(Fraction(1))

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


def adjacency_segment(a: Matrix, p: int, n: Matrix, move: AdjacencyMove) -> AdjacencySegment:
    """Path from the root n across one adjacency move, power held at a.

    A Jordan decomposition of n is reordered so the move's cells sit last;
    the two-cell deformation runs forward for a forward move and in
    reversed time (aligned through an exact similarity of the deformed
    endpoint) for a backward one.
    """
    if matrix_pow(n, p) != a:
        raise PowerMismatchError("root does not power to the target")
    if move.p != p:
        raise ValueError("move was built for a different power")
    prof = nilpotent_profile(n)
    k, l = move.k, move.l
    forward = move.direction == "forward"
    if forward:
        needed = [s for s in (k, l) if s > 0]
    else:
        needed = [k + 1, l - 1]
    counts: dict[int, int] = {}
    for s in needed:
        counts[s] = counts.get(s, 0) + 1
    for s, c in counts.items():
        if prof.get(s) < c:
            raise MissingCellsError(f"profile {prof.to_text()!r} lacks {c} cell(s) of size {s}")

    dec = jordan_basis(n)
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
    if nilpotent_profile(seg.end) != apply_move(prof, move):
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
            "endpoints": {
                "X": matrix_to_json_obj(self.start),
                "Y": matrix_to_json_obj(self.end),
            },
            "segments": [seg.to_json_obj() for seg in self.segments],
        }


@dataclass(frozen=True)
class Certificate:
    """Record of exact residual checks plus per-segment certifications."""

    mode: str
    samples: tuple[tuple[Fraction, bool, Optional[Profile]], ...]
    segment_certifications: tuple
    ok: bool

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode,
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


def connect_roots(a: Matrix, p: int, x: Matrix, y: Matrix, mode: str = "sampled") -> RootPath:
    """Explicit path from x to y inside the p-th roots of a.

    The profile chain between the two root profiles drives one adjacency
    segment per move (each starting exactly where the previous ended); a
    closing centralizer segment lands exactly on y.  ``mode`` is checked
    but changes nothing: the path is the same in both modes, and only
    ``verify`` certifies.
    """
    if mode not in ("sampled", "certified"):
        raise ValueError("mode must be 'sampled' or 'certified'")
    if matrix_pow(x, p) != a:
        raise PowerMismatchError("x^p differs from the target")
    if matrix_pow(y, p) != a:
        raise PowerMismatchError("y^p differs from the target")
    nilpotent_profile(a)  # raises NotNilpotentError otherwise

    mx = nilpotent_profile(x)
    my = nilpotent_profile(y)
    chain = profile_chain(mx, my, p)

    segments = []
    current = x
    for mv in chain.moves:
        seg = adjacency_segment(a, p, current, mv)
        segments.append(seg)
        current = seg.end
    segments.append(centralizer_segment(a, p, current, y))
    return RootPath(a, p, tuple(segments))


def _certify_segment(seg, mode: str) -> dict:
    if seg.kind == "centralizer":
        d = _blend_determinant(seg.conjugator)
        pieces = []
        for w0, w1 in zip(seg.waypoints, seg.waypoints[1:]):
            pieces.append(
                {
                    "from": format_scalar(w0),
                    "to": format_scalar(w1),
                    "ok": certify_nonvanishing_segment(d, w0, w1),
                }
            )
        return {"kind": "centralizer", "pieces": pieces, "ok": all(p["ok"] for p in pieces)}
    # adjacency
    lift = seg.lift
    if mode != "certified":
        return {
            "kind": "adjacency",
            "intervals": [
                {
                    "interval": [format_rational(t0), format_rational(t1)],
                    "certified": False,
                }
                for t0, t1 in zip(lift.partition, lift.partition[1:])
            ],
            "ok": True,
        }

    def fam_power(t: Fraction) -> Matrix:
        return matrix_pow(lift.family_matrix(t), lift.p)

    intervals = [
        certify_lift_interval(
            lift.section, fam_power, lift.p, iv.anchor, iv.anchor_inv, iv.left, iv.right
        )
        for iv in lift.intervals
    ]
    return {
        "kind": "adjacency",
        "intervals": intervals,
        "ok": all(rec["ok"] for rec in intervals),
    }


def verify(path: RootPath, sample_count: int, mode: str = "sampled") -> Certificate:
    """Exact residual checks on a uniform grid plus segment certifications.

    Every sample must power exactly to the target and have a profile, read
    off its segment's model (None when it is not nilpotent or fails its
    segment's conjugation check); where the path is undefined, a sample has
    a nonzero residual and no profile.  Certified mode additionally
    requires every segment certification to pass.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample interval")
    if mode not in ("sampled", "certified"):
        raise ValueError("mode must be 'sampled' or 'certified'")
    nilpotent_profile(path.target)  # raises NotNilpotentError otherwise

    samples = []
    all_ok = True
    for i in range(sample_count + 1):
        t = Fraction(i, sample_count)
        residual_zero, prof = False, None
        # where the path is undefined, or the model is not nilpotent, the sample fails
        with suppress(SingularMatrixError, OutsideNeighborhoodError, NotNilpotentError):
            m = path.evaluate(t)
            residual_zero = matrix_pow(m, path.power) == path.target
            seg, s = path._locate(t)
            prof = seg.sample_profile(s, m)
        all_ok = all_ok and residual_zero and prof is not None
        samples.append((t, residual_zero, prof))

    seg_certs = tuple(_certify_segment(seg, mode) for seg in path.segments)
    if mode == "certified":
        all_ok = all_ok and all(c["ok"] for c in seg_certs)
    else:
        all_ok = all_ok and all(
            c["ok"] for c in seg_certs if c["kind"] == "centralizer"
        )
    return Certificate(mode, tuple(samples), seg_certs, all_ok)


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
        waypoints = tuple(parse_scalar(w) for w in obj["waypoints"])
        if len(waypoints) < 2 or waypoints[0] != ZERO or waypoints[-1] != ONE:
            raise InputFormatError("centralizer waypoints must run from 0 to 1")
        records = _detour_records(waypoints)
        if obj.get("certifications", list(records)) != list(records):
            raise InputFormatError("centralizer certifications do not match its waypoints")
        return CentralizerSegment(
            matrix_from_json_obj(obj["baseRoot"]),
            matrix_from_json_obj(obj["conjugator"]),
            waypoints,
            records,
        )
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
        endpoints = obj["endpoints"]
        if matrix_from_json_obj(endpoints["X"]) != path.start:
            raise InputFormatError("stored endpoint X is not the start of the path")
        if matrix_from_json_obj(endpoints["Y"]) != path.end:
            raise InputFormatError("stored endpoint Y is not the end of the path")
        return path
    except (KeyError, TypeError, ValueError, ZeroDivisionError, SingularMatrixError) as exc:
        raise InputFormatError(f"bad path JSON: {exc}") from None

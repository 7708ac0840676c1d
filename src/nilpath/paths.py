"""Explicit paths inside the set of p-th roots of a nilpotent matrix.

Two segment kinds compose into a root-connecting path:

* centralizer segments conjugate a root by ``(1-z)I + zQ`` along a complex
  detour on which the determinant is certified nonvanishing, keeping the
  p-th power literally fixed; through one factor of Q - I, of rank r, that
  determinant is taken from r x r determinants, and a sample costs one
  r x r solve, so a sample where the blend is singular raises.  The factor
  holds Q, and the segment reads its conjugator from there;
* adjacency segments deform a trailing pair of Jordan cells (k, l) toward
  (k+1, l-1) through the one-parameter family ``U_t``, conjugating back by
  the lift q(t) = I + tF so that ``gamma(t)^p`` is constant; a backward
  move starts at gamma(1), aligned in closed form with no similarity solve.
  The move's cells are picked from the root's Jordan basis in one pass: for
  each size whose count falls, from the last such in ``move.shifts`` to the
  first, the last cell of that size not yet taken; they go last, in the
  order of ``move.shifts``, after the bystander cells.

The lift is a deterministic function of its window (k, l, p): F is read off
the window, and F^2 = 0, dU F = 0 and dU = F A0 - A0 F, where U_t^p =
A0 + t dU, give ``U_t^p q(t) = q(t) A0`` for every t with q(t)^-1 = I - tF.
An adjacency segment, in memory as in its JSON, is therefore just its move,
outer conjugator and bystander block; it derives its lift from the move,
and ``verify`` proves those identities, which cover all of [0, 1].
``verify`` gets each sample, and its Jordan profile read off its segment's
small model, not off the sample, from one call to that segment.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional, Union

from .errors import (
    DetourSearchExhaustedError,
    InputFormatError,
    MissingCellsError,
    NotNilpotentError,
    PowerMismatchError,
    SingularMatrixError,
    WindowViolationError,
)
from .graph import profile_chain
from .jordan import JordanDecomposition, _witness, jordan_basis, nilpotent_profile, profile_matrix
from .matrix import (
    Matrix,
    _canonical,
    _columns,
    _ints,
    _made,
    _plus_scaled,
    _Reduction,
    direct_sum,
    inverse,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
    power_ranks,
    solve,
)
from .polynomials import RatPoly, _levels_det, certify_nonvanishing_segment
from .profiles import AdjacencyMove, Profile, _window_a, apply_move
from .scalar import ONE, ZERO, Scalar, format_rational, format_scalar, parse_int, parse_scalar

# The number of lift intervals.  Only bench/tracing.py reads it: it counts
# lift intervals beyond it as bisections, so paths.lift.bisections reads 0.
INITIAL_LIFT_INTERVALS = 1
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
class LiftCore:
    """The lift q(t) = I + tF of one window, with U_t^p q(t) = q(t) A0."""

    k: int
    l: int
    p: int
    step: Matrix  # F, with F^2 = 0

    # q(t) is one formula on all of [0, 1], and verify proves it there; the
    # one-interval tuple is kept only because bench/tracing.py counts it
    intervals = ((Fraction(0), Fraction(1)),)

    def family_matrix(self, t: ParamLike) -> Matrix:
        return basic_family(self.k, self.l, t)

    def family_power(self, t: ParamLike) -> Matrix:
        return matrix_pow(self.family_matrix(t), self.p)

    @cached_property
    def power_curve(self) -> tuple[Matrix, Matrix]:
        """(A0, dU) with ``U_t^p = A0 + t dU`` for every t, proven once per
        lift.  ``basic_family`` sets only entries above the diagonal, so
        U_t^(k+l) = 0 and U_t^p has degree at most m = min(p, k + l) in t;
        matching its chord at the m + 1 parameters i/m proves it affine."""
        m = min(self.p, self.k + self.l)
        base = self.family_power(0)
        slope = self.family_power(1) - base
        for i in range(1, m):
            s = Fraction(i, m)
            if self.family_power(s) != _plus_scaled(base, Scalar(s), slope):
                raise AssertionError("family power must be affine in the lift parameter")
        return base, slope

    def _shear(self, t: Fraction) -> Matrix:
        return _plus_scaled(Matrix.identity(self.k + self.l), Scalar(t), self.step)

    def q_at(self, t: ParamLike) -> Matrix:
        """The lift conjugator q(t) = I + tF, whose inverse is I - tF."""
        t = _as_fraction(t)
        if t < 0 or t > 1:
            raise ValueError("lift parameter must lie in [0, 1]")
        return self._shear(t)

    def gamma(self, t: ParamLike) -> Matrix:
        """The deformed root: (I - tF) U_t (I + tF), with gamma(t)^p = A0."""
        t = _as_fraction(t)
        q = self.q_at(t)
        return matrix_mul(self._shear(-t), matrix_mul(self.family_matrix(t), q))


def lift_family(k: int, l: int, p: int) -> LiftCore:
    """The lift of the two-cell deformation of window (k, l, p).

    In the basis (x_k..x_1, y_l..y_1) of ``basic_family``, F maps both
    y_(jp+1) and x_(jp) to x_(jp) - y_(jp+1), for j = 1..a with a the
    window index, and every other basis vector to 0.  The lift depends on
    (k, l, p) alone, so a stored path rebuilds it; ``certify_lift_interval``
    proves that it holds U_t^p onto A0 for every t.
    """
    a = _window_a(k, l, p)
    if a is None:
        raise WindowViolationError(f"no window index a with {p}a <= {k} < {l} <= {p}(a+1)")
    n = k + l
    rows = [[0] * n for _ in range(n)]
    for j in range(1, a + 1):
        x, y = k - j * p, n - j * p - 1  # the indices of x_(jp) and y_(jp+1)
        for col in (x, y):
            rows[x][col], rows[y][col] = 1, -1
    return LiftCore(k, l, p, _made(n, n, _canonical(rows, [1] * n)))


def certify_lift_interval(lift: LiftCore) -> dict:
    """Prove the lift on [0, 1] by exact products; ``{"ok": ...}``.  The name
    stays because bench/tracing.py traces it.

    On the proven curve U_t^p = A0 + t dU (``power_curve``), F^2 = 0,
    dU F = 0 and dU = F A0 - A0 F give ``(A0 + t dU)(I + tF) = A0 + t F A0
    = (I + tF) A0`` for every t, and I + tF is invertible with inverse
    I - tF, so gamma(t)^p = A0 for every t.
    """
    base, slope = lift.power_curve
    f = lift.step
    ok = (
        matrix_mul(f, f).is_zero()
        and matrix_mul(slope, f).is_zero()
        and slope == matrix_mul(f, base) - matrix_mul(base, f)
    )
    return {"ok": ok}


# -- centralizer segments -----------------------------------------------------


@dataclass
class BlendFactor:
    """N = Q - I = CR for the blend B(z) = (1-z)I + zQ = I + zCR of a square
    Q: C is the pivot columns of N and R the nonzero rows of rref(N), so
    r = rank N.  With M(z) = I_r + zRC, ``det B(z) = det M(z)`` by
    Sylvester's identity and ``B(z)^-1 = I - zC M(z)^-1 R`` by Woodbury's.
    The factor holds Q and compares by it, as C, R and RC follow from Q."""

    q: Matrix

    def __post_init__(self):
        n = self.q.rows
        shifted = self.q - Matrix.identity(n)
        red = _Reduction(*_ints(shifted), n)
        r = len(red.pivots)
        self.c, self.r = _columns(shifted, red.pivots), _made(r, n, red.form(range(r), range(n)))
        self.rc = matrix_mul(self.r, self.c)

    @cached_property
    def determinant(self) -> RatPoly:
        """det M(z), of degree at most r.  With row i of RC x_i / d_i, row i
        of d_i M(z) has the integer coefficient rows x_i and d_i e_i."""
        form, r = _ints(self.rc), self.rc.rows
        levels = [[x, [d * (i == j) for j in range(r)]] for i, (x, d) in enumerate(zip(*form))]
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
    blend: BlendFactor  # Q - I = CR, with Q commuting with the common power
    waypoints: tuple[Scalar, ...]  # complex detour from 0 to 1

    kind = "centralizer"

    conjugator = property(lambda self: self.blend.q)  # Q

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

    @cached_property
    def pieces(self) -> tuple[dict, ...]:
        """Each detour piece's record, with the blend determinant
        Sturm-certified nonvanishing on it: the search that built the
        segment and ``verify`` read the same records."""
        d = self.blend.determinant
        return tuple(
            {"from": format_scalar(w0), "to": format_scalar(w1), "ok": certify_nonvanishing_segment(d, w0, w1)}
            for w0, w1 in zip(self.waypoints, self.waypoints[1:])
        )

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
        }


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
        seg = CentralizerSegment(x, blend, waypoints)
        if all(piece["ok"] for piece in seg.pieces):
            return seg
    raise DetourSearchExhaustedError("no certified detour within the epsilon budget")


# -- adjacency segments --------------------------------------------------------


@dataclass(frozen=True)
class AdjacencySegment:
    """Deformation of one trailing cell pair, conjugated into position; the
    lift is derived from the move, as ``outer_inv`` is from ``outer``."""

    outer: Matrix  # P'
    bystander: Matrix  # untouched Jordan block sum
    move: AdjacencyMove

    kind = "adjacency"

    outer_inv = cached_property(lambda self: inverse(self.outer))  # the segment's one inverse
    lift = cached_property(lambda self: lift_family(self.move.k, self.move.l, self.move.p))

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
        """The move and the conjugation into position; the lift is derived
        from the move."""
        return {
            "kind": "adjacency",
            "move": self.move.to_json_obj(),
            "outerConjugator": matrix_to_json_obj(self.outer),
            "bystander": matrix_to_json_obj(self.bystander),
        }


def adjacency_segment(
    a: Matrix, p: int, n: Matrix, move: AdjacencyMove, *, basis: Optional[JordanDecomposition] = None
) -> AdjacencySegment:
    """Path from the root n across one adjacency move, power held at a.

    A Jordan decomposition of n is reordered so the move's cells sit last;
    the two-cell deformation runs forward for a forward move and in
    reversed time for a backward one, aligned in closed form (below), so
    no similarity is solved for.

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
    sizes = dec.cell_sizes
    # the move's cells, picked as the module docstring says, move last
    chosen: list[int] = []
    for size, change in reversed(move.shifts):
        if size > 0 and change < 0:
            i = next((i for i in reversed(range(len(sizes))) if sizes[i] == size and i not in chosen), None)
            if i is None:
                raise MissingCellsError(f"no unused Jordan cell of size {size}")
            chosen.insert(0, i)
    others = [i for i in range(len(sizes)) if i not in chosen]
    # regroup the conjugator's columns cell by cell in the new order
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    cols = [c for i in others + chosen for c in range(starts[i], starts[i] + sizes[i])]
    bystander = profile_matrix(Profile.from_partition(sizes[i] for i in others))

    if move.direction == "forward":
        outer = _columns(dec.conjugator, cols)
    else:
        # U_1 = Pi (J_(k+1) + J_(l-1)) Pi^-1, Pi moving y_1 (the last basis
        # vector) to position k, so w = (I - F) Pi carries those cells onto
        # gamma(1), and w^-1 = Pi^-1 q(1): the (k+1)-cell's seed moves last.
        cols.append(cols.pop(bystander.rows + move.k))
        shear = direct_sum([Matrix.identity(bystander.rows), lift_family(move.k, move.l, p).q_at(1)])
        outer = matrix_mul(_columns(dec.conjugator, cols), shear)

    seg = AdjacencySegment(outer, bystander, move)
    if seg.start != n:
        raise AssertionError("adjacency segment must start exactly at the given root")
    if matrix_pow(seg.end, p) != a:
        raise AssertionError("adjacency segment endpoint lost the power identity")
    if seg.end_basis.profile != apply_move(dec.profile, move):
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
    it.  ``mode`` is ignored, kept only because bench/workloads.py passes it.
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


def _certify_segment(seg, a: Matrix, p: int) -> dict:
    """The segment's record, ``ok`` only when its start is a p-th root of a
    and, for a centralizer segment, Q commutes with a.  With its detour or
    lift certificates, every point of the segment is then a root."""
    rooted = _is_root(seg.start, p, a)
    if seg.kind == "centralizer":
        q = seg.conjugator
        ok = rooted and matrix_mul(q, a) == matrix_mul(a, q) and all(piece["ok"] for piece in seg.pieces)
        return {"kind": "centralizer", "pieces": [dict(piece) for piece in seg.pieces], "ok": ok}
    lift = certify_lift_interval(seg.lift)["ok"]
    return {"kind": "adjacency", "lift": lift, "ok": rooted and lift}


def verify(path: RootPath, sample_count: int, mode=None) -> Certificate:
    """Exact residual checks on a uniform grid plus segment certifications.

    Every sample must power exactly to the target and have a profile, read
    off its segment's model (None when it is not nilpotent or fails its
    segment's conjugation check); where the path is undefined, a sample has
    a nonzero residual and no profile.  Every segment certification must
    pass too: each segment starts at a root, each adjacency lift is proven
    on [0, 1], and each centralizer conjugator commutes with the target and
    has each detour piece Sturm-certified, so an ``ok`` path lies in the
    root set whatever the sample count.  ``mode`` is ignored, kept only
    because bench/workloads.py passes it.
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
        with suppress(SingularMatrixError, NotNilpotentError):
            m, prof = path.sample(t)
            residual_zero = _is_root(m, path.power, path.target)
        all_ok = all_ok and residual_zero and prof is not None
        samples.append((t, residual_zero, prof))

    seg_certs = tuple(_certify_segment(seg, path.target, path.power) for seg in path.segments)
    all_ok = all_ok and all(c["ok"] for c in seg_certs)
    return Certificate(tuple(samples), seg_certs, all_ok)


# -- path JSON ---------------------------------------------------------------


def _segment_from_json_obj(obj, p: int) -> object:
    """One segment of a path with power p, from its JSON object.

    A centralizer segment is read as its base root, conjugator and
    waypoints; an adjacency segment as its move, outer conjugator and
    bystander block, from which it derives its lift.  Any other keys (the
    detour records, lift data and certifications older files carry) are
    ignored: ``verify`` recomputes every proof.
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
        base = matrix_from_json_obj(obj["baseRoot"])
        q = matrix_from_json_obj(obj["conjugator"])
        if not base.is_square():
            raise InputFormatError(f"centralizer base root is {base.rows}x{base.cols}, not square")
        if (q.rows, q.cols) != (base.rows, base.rows):
            raise InputFormatError(
                f"centralizer conjugator is {q.rows}x{q.cols}, but its base root is {base.rows}x{base.rows}"
            )
        return CentralizerSegment(base, BlendFactor(q), waypoints)
    if kind == "adjacency":
        move = AdjacencyMove.from_json_obj(obj["move"])
        if move.p != p:
            raise InputFormatError(f"adjacency move has p = {move.p} but the path has p = {p}")
        outer = matrix_from_json_obj(obj["outerConjugator"])
        bystander = matrix_from_json_obj(obj["bystander"])
        if not bystander.is_square() or outer.rows != bystander.rows + move.k + move.l:
            raise InputFormatError("outer conjugator must have k + l more rows than the bystander")
        return AdjacencySegment(outer, bystander, move)
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

"""Explicit paths inside the set of p-th roots of a nilpotent matrix.

Two segment kinds compose into a root-connecting path:

* adjacency segments deform a trailing pair of Jordan cells (k, l) toward
  (k+1, l-1) through the one-parameter family ``U_t``, conjugating back by
  the lift q(t) = I + tF so that ``gamma(t)^p`` is constant; a backward
  move starts at gamma(1), aligned in closed form with no similarity solve.
  The move's cells are picked from the root's Jordan basis in one pass: for
  each size whose count falls, from the last such in ``move.shifts`` to the
  first, the last cell of that size not yet taken; they go last, in the
  order of ``move.shifts``, after the bystander cells.  Each segment builds
  its end's Jordan basis and inverse and hands them on;
* a closing centralizer segment conjugates its root X by a blend B(z) from
  I to Q split along A's cell classes (``ClosingFactor``), on a complex
  detour where prod_s det((1-z)I + zC_s) is certified nonvanishing.

The lift is a function of its window (k, l, p), proven on all of [0, 1] by
three identities (``certify_lift_interval``), so an adjacency segment is
just its move, outer conjugator and bystander block.  ``verify`` gets each
sample and its profile, read off its segment's model, in one call.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import sub
from typing import Optional, Union

from .errors import (
    DetourSearchExhaustedError,
    InputFormatError,
    MissingCellsError,
    NotNilpotentError,
    NotSimilarError,
    PowerMismatchError,
    SingularMatrixError,
    WindowViolationError,
)
from .graph import profile_chain
from .jordan import JordanDecomposition, jordan_basis, nilpotent_profile, profile_matrix
from .matrix import (
    Matrix,
    _canonical,
    _columns,
    _ints,
    _Ints,
    _made,
    _plus_scaled,
    _rows,
    det,
    direct_sum,
    inverse,
    matrix_from_json_obj,
    matrix_mul,
    matrix_pow,
    matrix_to_json_obj,
    power_ranks,
)
from .polynomials import RatPoly, _levels_det, certify_nonvanishing_segment
from .profiles import AdjacencyMove, Profile, _window_a
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


def _spread(w: Matrix, sizes: list[int]) -> Matrix:
    """(+)_s W_s (x) I_s for W = (+)_s W_s, block diagonal over the A-cell sizes."""
    rows, dens = _ints(w)
    at = [(j, r) for j, s in enumerate(sizes) for r in range(s)]
    spread = [[row[j] if r == q else 0 for j, q in at] for row, s in zip(rows, sizes) for r in range(s)]
    return _made(len(at), len(at), _Ints(spread, [d for d, s in zip(dens, sizes) for _ in range(s)]))


@dataclass
class ClosingFactor:
    """Q = P_A D' U' P_A^-1 for a closing conjugator Q of the root X (compared
    by X and Q).  P_A is X's basis P with its columns grouped by residue mod
    p in each X-cell, a Jordan basis of A = X^p as X c_j = c_(j-1) gives
    A c_j = c_(j-p); A-cells largest first.  Where Q commutes with A, so do
    K' = P_A^-1 Q P_A and J_A; C_s is K''s block at the tops of the A-cells of
    size s, D' = (+)_s C_s (x) I_s, and N' = D'^-1 K' - I is nilpotent (K' ->
    (C_s)_s is an algebra map with the radical as kernel).  B(z) = P_A D'(z)
    (I + zN') P_A^-1, D'(z) = (1-z)I + zD', runs from I to Q."""

    root: Matrix  # X
    q: Matrix
    power: int = field(compare=False)
    end: Matrix = field(compare=False, repr=False)  # Y = Q X Q^-1
    basis: Optional[JordanDecomposition] = field(default=None, compare=False, repr=False)  # X's, with P^-1

    identity = cached_property(lambda self: self.q == Matrix.identity(self.q.rows))

    @cached_property
    def dec(self) -> Optional[JordanDecomposition]:
        """X's basis with P^-1: as given, else jordan_basis(X) (None if X is not nilpotent)."""
        with suppress(NotNilpotentError):
            return jordan_basis(self.root) if self.basis is None else self.basis

    @cached_property
    def cells(self) -> Optional[tuple[list[int], list[int], Matrix]]:
        """P's columns in A-cell order, the A-cell sizes, and C = (+)_s C_s, K' at
        the cell tops where sizes agree: #cells rows of P^-1 and columns of QP."""
        dec, acells, start = self.dec, [], 0
        if dec is None:
            return None
        for k in dec.cell_sizes:
            acells += [list(range(start + r, start + k, self.power)) for r in range(min(self.power, k))]
            start += k
        acells.sort(key=len, reverse=True)
        sizes, tops = [len(cell) for cell in acells], [cell[0] for cell in acells]
        top = matrix_mul(_rows(dec.conjugator_inv, tops), matrix_mul(self.q, _columns(dec.conjugator, tops)))
        (rows, dens), m = _ints(top), len(tops)
        c = [[x if sizes[i] == sizes[j] else 0 for j, x in enumerate(row)] for i, row in enumerate(rows)]
        return [i for cell in acells for i in cell], sizes, _made(m, m, _canonical(c, dens))

    @cached_property
    def determinant(self) -> Optional[RatPoly]:
        """det((1-z)I + zC) = prod_s det((1-z)I + zC_s), with the zeros of det B(z)
        = prod_s det((1-z)I + zC_s)^s, of degree at most the number of A-cells
        (1 when Q = I, None without a basis), from C's integer rows x_i / d_i."""
        if self.identity or self.cells is None:
            return RatPoly((1,)) if self.identity else None
        (rows, dens), m = _ints(self.cells[2]), len(self.cells[1])
        eye = [[d * (i == j) for j in range(m)] for i, d in enumerate(dens)]
        return _levels_det([[list(map(sub, x, e)), e] for x, e in zip(rows, eye)], dens, m)

    @cached_property
    def frame(self) -> Optional[tuple]:
        """(P_A, P_A^-1, X', N', [N'^0, ..., N'^(v-1)]), X' = P_A^-1 X P_A the permuted
        Jordan form; None unless P P^-1 = I, X P = P J, D'U' = K' and N'^v = 0."""
        if self.cells is None:
            return None
        (order, sizes, c), dec, ident = self.cells, self.dec, Matrix.identity(self.q.rows)
        p, jordan = dec.conjugator, dec.jordan_form()
        if matrix_mul(p, dec.conjugator_inv) != ident or matrix_mul(self.root, p) != matrix_mul(p, jordan):
            return None
        pa, pa_inv, x_a = _columns(p, order), _rows(dec.conjugator_inv, order), _rows(_columns(jordan, order), order)
        k = matrix_mul(pa_inv, matrix_mul(self.q, pa))
        with suppress(SingularMatrixError):
            u = matrix_mul(_spread(inverse(c), sizes), k)
            if matrix_mul(_spread(c, sizes), u) != k:  # D'U' = K'
                return None
            nil, powers = u - ident, [ident]
            while not powers[-1].is_zero() and len(powers) <= len(order):
                powers.append(matrix_mul(nil, powers[-1]))
            return (pa, pa_inv, x_a, nil, powers[:-1]) if powers[-1].is_zero() else None
        return None

    @cached_property
    def terms(self) -> list[Matrix]:
        """G'_0, ..., G'_v with H(z) = (I + zN') X' (I + zN')^-1 = sum_j z^j G'_j,
        formed on the first interior sample: G'_j = (-1)^j (X' N'^j - N' X' N'^(j-1))."""
        _, _, x_a, nil, powers = self.frame
        gs = [x_a]
        for j, power in enumerate(powers[1:] + [None], 1):
            g = matrix_mul(nil, matrix_mul(x_a, powers[j - 1]))
            g = -g if power is None else matrix_mul(x_a, power) - g
            gs.append(-g if j % 2 else g)
        return gs


@dataclass(frozen=True)
class CentralizerSegment:
    """X conjugated by its factor's blend B(z) along a detour where the factor's
    determinant is certified nonvanishing; Q = I needs no basis at all."""

    factor: ClosingFactor
    waypoints: tuple[Scalar, ...]  # complex detour from 0 to 1

    kind = "centralizer"

    start = base_root = property(lambda self: self.factor.root)  # X
    conjugator = property(lambda self: self.factor.q)  # Q
    end = property(lambda self: self.factor.end)

    def _omega(self, s: Fraction) -> Scalar:
        pieces = len(self.waypoints) - 1
        j = min(int(s * pieces), pieces - 1)
        w0, w1 = self.waypoints[j], self.waypoints[j + 1]
        return w0 + (w1 - w0) * Scalar(s * pieces - j)

    def _inner(self, z: Scalar) -> tuple[Matrix, Matrix]:
        """H(z) and U = I + zN' in A-cell coordinates: H U = U X' is M E = E X'."""
        if self.factor.frame is None:
            raise SingularMatrixError("the closing conjugator has no A-cell factorization")
        nil, gs = self.factor.frame[3], self.factor.terms
        h = gs[-1]
        for g in reversed(gs[:-1]):
            h = _plus_scaled(g, z, h)
        return h, _plus_scaled(Matrix.identity(nil.rows), z, nil)

    def sample(self, s: Fraction, check: bool = True) -> tuple[Matrix, Optional[Profile]]:
        """gamma = (P_A D'(z)) H (D'(z)^-1 P_A^-1), D'(z)^-1 from tiny block inverses
        (SingularMatrixError where one is singular), and X's profile once
        H U = U X' holds exactly (P P^-1 = I was checked once); else None."""
        z = self._omega(_as_fraction(s))
        if self.factor.identity or z.is_zero() or z == ONE:
            point, held = self.end if z == ONE else self.base_root, check
        else:
            (h, u), (pa, pa_inv, x_a, _, _), (_, sizes, c) = self._inner(z), self.factor.frame, self.factor.cells
            blend = _plus_scaled(Matrix.identity(c.rows), z, c - Matrix.identity(c.rows))
            right = matrix_mul(_spread(inverse(blend), sizes), pa_inv)
            point = matrix_mul(matrix_mul(matrix_mul(pa, _spread(blend, sizes)), h), right)
            held = check and matrix_mul(h, u) == matrix_mul(u, x_a)
        return point, self._root_profile if held else None

    def evaluate(self, s: ParamLike) -> Matrix:
        return self.sample(s, check=False)[0]

    @cached_property
    def pieces(self) -> tuple[dict, ...]:
        """Each detour piece's record, with the factor's determinant
        Sturm-certified nonvanishing on it: the search that built the
        segment and ``verify`` read the same records."""
        d, certified = self.factor.determinant, certify_nonvanishing_segment
        return tuple(
            {"from": format_scalar(w0), "to": format_scalar(w1), "ok": d is not None and certified(d, w0, w1)}
            for w0, w1 in zip(self.waypoints, self.waypoints[1:])
        )

    @cached_property
    def _root_profile(self) -> Profile:
        """X's profile: its basis's, once the frame has checked it, else from power ranks."""
        f = self.factor
        return f.dec.profile if not f.identity and f.frame is not None else nilpotent_profile(self.base_root)

    def to_json_obj(self) -> dict:
        x, q, w = matrix_to_json_obj(self.base_root), matrix_to_json_obj(self.conjugator), self.waypoints
        return {"kind": "centralizer", "baseRoot": x, "conjugator": q, "waypoints": list(map(format_scalar, w))}


def centralizer_segment(
    a: Matrix, p: int, x: Matrix, y: Matrix, *, bases: Optional[tuple[JordanDecomposition, ...]] = None
) -> CentralizerSegment:
    """Certified path from x to y through conjugates sharing the power a.

    Q = Py Px^-1, checked by Q Px = Py; ``connect_roots``, which has checked
    x^p = y^p = a, passes both bases (x's with its inverse).  The segment 0
    -> 1 is tried, then detours through i*eps and 1 + i*eps, eps = 1/2, 1/3,
    ...; one exists, as the determinant is 1 at z = 0.
    """
    if bases is None:
        if not (_is_root(x, p, a) and _is_root(y, p, a)):
            raise PowerMismatchError("segment endpoints must both power to the target")
        bases = jordan_basis(x), jordan_basis(y)
    dx, dy = bases
    if dx.cell_sizes != dy.cell_sizes:
        raise NotSimilarError(f"profiles differ: {list(dx.cell_sizes)} vs {list(dy.cell_sizes)}")
    q = matrix_mul(dy.conjugator, dx.conjugator_inv)
    if matrix_mul(q, dx.conjugator) != dy.conjugator:
        raise AssertionError("closing conjugator must carry x's basis onto y's")
    if matrix_mul(q, a) != matrix_mul(a, q):
        raise AssertionError("similarity witness must commute with the power")
    factor = ClosingFactor(x, q, p, y, dx)
    detours = (
        (ZERO, Scalar(0, Fraction(1, k)), Scalar(1, Fraction(1, k)), ONE) for k in range(2, 2 + DETOUR_BUDGET)
    )
    for waypoints in chain([(ZERO, ONE)], detours):
        seg = CentralizerSegment(factor, waypoints)
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
    inv: Optional[Matrix] = field(default=None, compare=False, repr=False)  # P'^-1, read off the root's

    kind = "adjacency"

    # P'^-1: as read off the root's basis, or else the segment's one inverse
    outer_inv = cached_property(lambda self: inverse(self.outer) if self.inv is None else self.inv)
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
        its profile: the bystander's plus that of U_t.  At s = 0 and 1 the
        point is the cached ``start`` or ``end``."""
        t = 1 - s if self.reversed_time else s
        point = self.start if s == 0 else self.end if s == 1 else self.evaluate(s)
        return point, self._bystander_profile + nilpotent_profile(self.lift.family_matrix(t))

    # Each endpoint is a lift evaluation; the segment reads it once.
    @cached_property
    def start(self) -> Matrix:
        return self.evaluate(Fraction(0))

    @cached_property
    def end(self) -> Matrix:
        return self.evaluate(Fraction(1))

    @cached_property
    def end_basis(self) -> JordanDecomposition:
        """The end's Jordan basis and inverse, built: gamma(1) = (I - F) Pi (J_(k+1)
        + J_(l-1)) Pi^-1 (I + F) gives P = P'(I + (I - F)) Pi forward (Pi moves the
        last column to b + k), gamma(0) = J_k + J_l gives P = P' backward; cells
        sorted largest first, P^-1 is that row order of (I + Pi^-1 (I + F)) P'^-1."""
        b, k, l, rows = self.bystander.rows, self.move.k, self.move.l, _ints(self.bystander).rows
        cuts = [i + 1 for i in range(b) if i + 1 == b or not rows[i][i + 1]]  # the bystander's cells
        cells, order = [j - i for i, j in zip([0] + cuts, cuts)], list(range(b + k + l))
        if self.reversed_time:
            p, p_inv = self.outer, self.outer_inv
            cells += [k, l]
        else:
            shear = self.lift.step
            p = matrix_mul(self.outer, direct_sum([Matrix.identity(b), Matrix.identity(k + l) - shear]))
            p_inv = matrix_mul(direct_sum([Matrix.identity(b), Matrix.identity(k + l) + shear]), self.outer_inv)
            order.insert(b + k, order.pop())
            cells += [k + 1, l - 1]
        starts = [sum(cells[:i]) for i in range(len(cells))]
        ranked = sorted((i for i in range(len(cells)) if cells[i]), key=lambda i: -cells[i])
        order = [order[c] for i in ranked for c in range(starts[i], starts[i] + cells[i])]
        return JordanDecomposition(_columns(p, order), tuple(cells[i] for i in ranked), _rows(p_inv, order))

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

    A Jordan basis of n is reordered so the move's cells sit last; the
    deformation runs forward, or in reversed time aligned in closed form
    (below): no similarity is solved, and the outer conjugator's inverse is
    read off the basis's.  ``connect_roots``, which has checked ``n^p = a``,
    passes the basis each segment built for its end; else the check runs
    and ``jordan_basis(n)`` is taken.  ``seg.start == n`` proves P J P^-1 =
    n, ``seg.end^p = a`` then gives n^p = a, and the end's basis must carry
    its Jordan form.
    """
    if basis is None and not _is_root(n, p, a):
        raise PowerMismatchError("root does not power to the target")
    if move.p != p:
        raise ValueError("move was built for a different power")
    dec = jordan_basis(n) if basis is None else basis
    inv, sizes = dec.conjugator_inv, dec.cell_sizes
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
        outer, outer_inv = _columns(dec.conjugator, cols), _rows(inv, cols)
    else:
        # U_1 = Pi (J_(k+1) + J_(l-1)) Pi^-1, Pi moving y_1 (the last basis
        # vector) to position k, so w = (I - F) Pi carries those cells onto
        # gamma(1), and w^-1 = Pi^-1 q(1): the (k+1)-cell's seed moves last.
        cols.append(cols.pop(bystander.rows + move.k))
        shear = lift_family(move.k, move.l, p).step
        ident_b, ident_kl = Matrix.identity(bystander.rows), Matrix.identity(move.k + move.l)
        outer = matrix_mul(_columns(dec.conjugator, cols), direct_sum([ident_b, ident_kl + shear]))
        outer_inv = matrix_mul(direct_sum([ident_b, ident_kl - shear]), _rows(inv, cols))
    seg = AdjacencySegment(outer, bystander, move, outer_inv)
    if seg.start != n:
        raise AssertionError("adjacency segment must start exactly at the given root")
    if matrix_pow(seg.end, p) != a:
        raise AssertionError("adjacency segment endpoint lost the power identity")
    end = seg.end_basis
    if matrix_mul(seg.end, end.conjugator) != matrix_mul(end.conjugator, end.jordan_form()):
        raise AssertionError("adjacency segment endpoint basis must carry its Jordan form")
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

    start = property(lambda self: self.segments[0].start)
    end = property(lambda self: self.segments[-1].end)

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
        samples = [
            {"t": format_rational(t), "residualZero": res, "profile": None if prof is None else prof.to_text()}
            for t, res, prof in self.samples
        ]
        return {"samples": samples, "segmentCertifications": list(self.segment_certifications), "ok": self.ok}


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

    # jordan_basis of x and y only: each segment builds its end's basis and
    # inverse and hands them on.  jordan_basis(x) raises NotNilpotentError
    # exactly when a = x^p is not nilpotent.
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
    and, for a centralizer segment, Q commutes with a and, unless Q = I, its
    factor's checks all hold (``ClosingFactor.frame``).  With its detour or
    lift certificates, every point of the segment is then a root."""
    rooted = _is_root(seg.start, p, a)
    if seg.kind == "centralizer":
        f, q = seg.factor, seg.conjugator
        ok = rooted and matrix_mul(q, a) == matrix_mul(a, q) and (f.identity or f.frame is not None)
        ok = ok and all(piece["ok"] for piece in seg.pieces)
        return {"kind": "centralizer", "pieces": [dict(piece) for piece in seg.pieces], "ok": ok}
    lift = certify_lift_interval(seg.lift)["ok"]
    return {"kind": "adjacency", "lift": lift, "ok": rooted and lift}


def verify(path: RootPath, sample_count: int, mode=None) -> Certificate:
    """Exact residual checks on a uniform grid plus segment certifications.

    Every sample must power exactly to the target and have a profile, read
    off its segment's model (None when it is not nilpotent or fails its
    segment's conjugation check); where the path is undefined, a sample has
    a nonzero residual and no profile.  Every segment certification must
    pass too (``_certify_segment``), so an ``ok`` path lies in the root set
    whatever the sample count.  ``mode`` is ignored, kept only because
    bench/workloads.py passes it.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample interval")
    nilpotent_profile(path.target)  # raises NotNilpotentError otherwise

    samples, all_ok = [], True
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
    waypoints (``path_from_json_obj`` gives it its end and basis), an
    adjacency segment as its move, outer conjugator and bystander block.
    Other keys (detour records, lift data and certifications that older
    files carry) are ignored: ``verify`` recomputes every proof.
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
            n = base.rows
            raise InputFormatError(f"centralizer conjugator is {q.rows}x{q.cols}, but its base root is {n}x{n}")
        return CentralizerSegment(ClosingFactor(base, q, p, None), waypoints)
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
    """The stored path.  A centralizer segment ends where the next segment
    starts, or at the stored Y, once QX = YQ holds and Q is invertible; it
    takes X's basis from the adjacency segment before it, and computes one
    only if there is none."""
    if isinstance(obj, dict) and "path" in obj:
        obj = obj["path"]
    try:
        target = matrix_from_json_obj(obj["A"])
        power = parse_int(obj, "p")
        if power < 1:
            raise InputFormatError("path power p must be a positive integer")
        if not isinstance(obj["segments"], list):
            raise InputFormatError("path segments must be a list")
        segments = [_segment_from_json_obj(s, power) for s in obj["segments"]]
        endpoints, stored_y = obj["endpoints"], matrix_from_json_obj(obj["endpoints"]["Y"])
        for i, seg in enumerate(segments):
            if seg.kind == "centralizer":
                seg.factor.end = segments[i + 1].start if i + 1 < len(segments) else stored_y
                seg.factor.basis = segments[i - 1].end_basis if i and segments[i - 1].kind == "adjacency" else None
        path = RootPath(target, power, tuple(segments))
        n = path.start.rows
        if (target.rows, target.cols) != (n, n):
            raise InputFormatError(f"path target A is {target.rows}x{target.cols}, but the path is {n}x{n}")
        if matrix_from_json_obj(endpoints["X"]) != path.start:
            raise InputFormatError("stored endpoint X is not the start of the path")
        for seg in segments:  # a closing ends at Y = Q X Q^-1, with Q invertible
            q, ending = getattr(seg, "conjugator", None), seg is segments[-1]
            if q is not None and (matrix_mul(q, seg.start) != matrix_mul(seg.end, q) or det(q).is_zero()):
                message = "stored endpoint Y is not the end of the path" if ending else "segments do not stitch"
                raise InputFormatError(message)
        if stored_y != path.end:
            raise InputFormatError("stored endpoint Y is not the end of the path")
        return path
    except (KeyError, TypeError, ValueError, ZeroDivisionError, SingularMatrixError) as exc:
        raise InputFormatError(f"bad path JSON: {exc}") from None

"""Profile combinatorics: multiplicity sequences of Jordan cell sizes.

A profile maps cell size k >= 1 to a positive count; absent keys mean zero.
Profiles of the same size are related by the power map and by adjacency
moves, which trade a pair of cells (k, l) inside a window
``p*a <= k < l <= p*(a+1)`` for the pair (k+1, l-1).  That trade is written
once, as ``AdjacencyMove.shifts``: applying a move, listing the moves out of
a profile and recognising one between two profiles all read it.  Size-0
cells are dropped everywhere (the empty-cell convention).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional

from .errors import InputFormatError, InvalidMoveError, SizeCapExceededError
from .scalar import parse_int

DEFAULT_SIZE_CAP = 24
_SIZE_CAP_ENV = "NILPATH_SIZE_CAP"


def size_cap() -> int:
    value = os.environ.get(_SIZE_CAP_ENV)
    if value is None:
        return DEFAULT_SIZE_CAP
    try:
        return int(value)
    except ValueError:
        raise InputFormatError(f"{_SIZE_CAP_ENV} must be an integer") from None


class Profile:
    """Immutable finite-support multiplicity sequence, canonically stored.

    Built from a mapping or from (size, count) pairs, whose counts add up.
    A plain ``dict`` skips the ``Mapping`` ABC check, and the hash is taken
    on first use: most profiles are never hashed.
    """

    __slots__ = ("_counts", "_hash")

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = counts.items() if isinstance(counts, (dict, Mapping)) else counts
        store = {}
        for k, c in items:
            if k < 1:
                raise ValueError(f"cell size must be positive, got {k}")
            if c < 0:
                raise ValueError(f"negative multiplicity at size {k}")
            if c:
                store[int(k)] = store.get(int(k), 0) + int(c)
        self._counts = store
        self._hash = None

    @staticmethod
    def single(k: int) -> "Profile":
        """Profile of a single size-k cell; k = 0 gives the empty profile."""
        return Profile({k: 1}) if k > 0 else Profile()

    @staticmethod
    def from_partition(parts: Iterable[int]) -> "Profile":
        counts: dict[int, int] = {}
        for p in parts:
            counts[p] = counts.get(p, 0) + 1
        return Profile(counts)

    # -- queries ---------------------------------------------------------

    def get(self, k: int) -> int:
        return self._counts.get(k, 0)

    def items(self) -> list[tuple[int, int]]:
        """(size, count) pairs in descending size order."""
        return sorted(self._counts.items(), reverse=True)

    def support(self) -> list[int]:
        return sorted(self._counts, reverse=True)

    def max_index(self) -> int:
        return max(self._counts) if self._counts else 0

    def size(self) -> int:
        return sum(k * c for k, c in self._counts.items())

    def total_cells(self) -> int:
        return sum(self._counts.values())

    def is_empty(self) -> bool:
        return not self._counts

    def partition(self) -> tuple[int, ...]:
        """Descending list of parts, one per cell."""
        out = []
        for k, c in self.items():
            out.extend([k] * c)
        return tuple(out)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _of(store: dict[int, int]) -> "Profile":
        """Profile that takes over a dict of positive counts, unchecked."""
        out = object.__new__(Profile)
        out._counts, out._hash = store, None
        return out

    def plus(self, k: int, c: int = 1) -> "Profile":
        """Profile with the count at size k shifted by c (k = 0 is a no-op)."""
        return self.shifted(((k, c),))

    def shifted(self, changes: Iterable[tuple[int, int]]) -> "Profile":
        """Profile with the count at each size k shifted by c, one (k, c) at a
        time; size 0 is skipped, and a count going negative is InvalidMove."""
        counts = dict(self._counts)
        for k, c in changes:
            if not k:
                continue
            new = counts.get(k, 0) + c
            if new < 0:
                raise InvalidMoveError(f"count at size {k} would become negative")
            if new:
                counts[k] = new
            else:
                counts.pop(k, None)
        return Profile._of(counts)

    def __add__(self, other: "Profile") -> "Profile":
        counts = dict(self._counts)
        for k, c in other._counts.items():
            counts[k] = counts.get(k, 0) + c
        return Profile._of(counts)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def __repr__(self):
        return f"Profile({self.to_text()!r})"

    # -- text -------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical ``k:count`` pairs, descending; empty profile is ''."""
        return ",".join(f"{k}:{c}" for k, c in self.items())

    @staticmethod
    def from_text(text: str) -> "Profile":
        text = text.strip()
        if not text:
            return Profile()
        counts = {}
        for piece in text.split(","):
            try:
                k_str, c_str = piece.split(":")
                k, c = int(k_str), int(c_str)
            except ValueError:
                raise InputFormatError(f"bad profile fragment {piece!r}") from None
            if k < 1 or c < 1:
                raise InputFormatError(f"bad profile fragment {piece!r}")
            if k in counts:
                raise InputFormatError(f"duplicate size {k} in profile text")
            counts[k] = c
        return Profile(counts)


@dataclass(frozen=True)
class AdjacencyMove:
    """Witness of an adjacency step inside the window [p*a, p*(a+1)].

    Applied forward to m it yields ``m - e_k - e_l + e_(k+1) + e_(l-1)``;
    backward is the inverse; ``shifts`` holds these count changes.  The
    degenerate solution l = k+1 is excluded.
    """

    a: int
    k: int
    l: int
    direction: str  # "forward" | "backward"
    p: int

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if not (0 <= self.p * self.a <= self.k < self.l <= self.p * (self.a + 1)):
            raise InvalidMoveError(
                f"window violation: need {self.p}*{self.a} <= {self.k} < {self.l}"
                f" <= {self.p}*({self.a}+1)"
            )
        if self.l == self.k + 1:
            raise InvalidMoveError("degenerate move l = k+1")

    @property
    def shifts(self) -> tuple[tuple[int, int], ...]:
        """The (size, count change) pairs of applying the move (size 0 is
        no cell): k and l lose a cell and k + 1 and l - 1 gain one forward,
        and the reverse backward."""
        s = 1 if self.direction == "forward" else -1
        return ((self.k, -s), (self.l, -s), (self.k + 1, s), (self.l - 1, s))

    def flipped(self) -> "AdjacencyMove":
        other = "backward" if self.direction == "forward" else "forward"
        return replace(self, direction=other)

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "k": self.k,
            "l": self.l,
            "direction": self.direction,
            "p": self.p,
        }

    @staticmethod
    def from_json_obj(obj) -> "AdjacencyMove":
        try:
            a, k, l, p = (parse_int(obj, key) for key in ("a", "k", "l", "p"))
            return AdjacencyMove(a, k, l, obj["direction"], p)
        except (KeyError, TypeError, ValueError, InvalidMoveError) as exc:
            raise InputFormatError(f"bad move JSON: {exc}") from None


def cell_power_profile(k: int, p: int) -> Profile:
    """Profile of the p-th power of a single size-k cell.

    With a = k // p and r = k % p the power splits into r chains of length
    a+1 and p - r chains of length a; empty chains are dropped.
    """
    if k < 0:
        raise ValueError("cell size must be non-negative")
    if p < 1:
        raise ValueError("power must be positive")
    if k == 0:
        return Profile()
    a, r = divmod(k, p)
    counts = {}
    if r:
        counts[a + 1] = r
    if a and p - r:
        counts[a] = p - r
    return Profile._of(counts)


def profile_power(m: Profile, p: int) -> Profile:
    """Image of the profile under the p-th power map.

    Entry a >= 1 of the image is ``sum_(|j| < p) (p - |j|) * m_(p*a + j)``,
    the triangular-weighted window sum around p*a.  It is summed over the
    support, in O(#sizes) whatever p is, with the split of
    ``cell_power_profile`` written inline: a Profile per cell made this
    inner call of ``enumerate_preimages`` 3-4 times slower.
    """
    if p < 1:
        raise ValueError("power must be positive")
    counts = {}
    for s, c in m.items():
        a, r = divmod(s, p)
        if a:
            counts[a] = counts.get(a, 0) + (p - r) * c
        if r:
            counts[a + 1] = counts.get(a + 1, 0) + r * c
    return Profile._of(counts)


def _window_a(k: int, l: int, p: int) -> Optional[int]:
    """The a with p*a <= k < l <= p*(a+1), or None: a = (l - 1) // p is the
    one window whose range (p*a, p*(a+1)] holds l."""
    a = (l - 1) // p
    return a if 0 <= p * a <= k < l <= p * (a + 1) else None


def is_p_adjacent(m: Profile, m2: Profile, p: int) -> Optional[AdjacencyMove]:
    """Witnessing move from m to m2 when the two are p-adjacent, else None.

    A move's cells l and k (none when k = 0) are the sizes whose count falls
    as it runs forward: from m to m2 for a forward move, from m2 to m for a
    backward one.  So each direction has one candidate move, and it
    witnesses exactly when applying it to m gives m2.
    """
    if p < 1:
        raise ValueError("power must be positive")
    for direction, src, dst in (("forward", m, m2), ("backward", m2, m)):
        l, k = ([s for s, c in src.items() if c > dst.get(s)] + [0, 0])[:2]
        try:
            move = AdjacencyMove((l - 1) // p, k, l, direction, p)
            if apply_move(m, move) == m2:
                return move
        except InvalidMoveError:
            pass
    return None


def apply_move(m: Profile, move: AdjacencyMove) -> Profile:
    """Apply an adjacency move; InvalidMove if a count would go negative."""
    return m.shifted(move.shifts)


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts descending, largest part first."""
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def profiles_of_size(n: int) -> Iterator[Profile]:
    for parts in partitions(n):
        yield Profile.from_partition(parts)


def enumerate_preimages(target: Profile, p: int) -> set[Profile]:
    """All profiles m of matching size with ``profile_power(m, p) == target``.

    Walks partitions of size(target) by descending parts, accumulating the
    power image and pruning as soon as some entry overshoots the target.
    """
    if p < 1:
        raise ValueError("power must be positive")
    cap = size_cap()
    n = target.size()
    if n > cap:
        raise SizeCapExceededError(f"size {n} exceeds cap {cap}")
    target_counts = {k: c for k, c in target.items()}
    found: set[Profile] = set()

    def overshoot(acc: dict[int, int]) -> bool:
        return any(c > target_counts.get(k, 0) for k, c in acc.items())

    def walk(remaining: int, max_part: int, parts: list[int], acc: dict[int, int]):
        if remaining == 0:
            if acc == target_counts:
                found.add(Profile.from_partition(parts))
            return
        for part in range(min(max_part, remaining), 0, -1):
            contrib = cell_power_profile(part, p)
            for k, c in contrib.items():
                acc[k] = acc.get(k, 0) + c
            if not overshoot(acc):
                parts.append(part)
                walk(remaining - part, part, parts, acc)
                parts.pop()
            for k, c in contrib.items():
                v = acc[k] - c
                if v:
                    acc[k] = v
                else:
                    del acc[k]

    walk(n, n if n else 1, [], {})
    return found

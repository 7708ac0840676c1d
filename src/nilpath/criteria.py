"""Existence criteria for p-th roots and for general analytic preimages.

An analytic right-hand side enters only through the multiplicities of its
zeros (:class:`ZeroSpec`).  Solvability reduces to membership of the target
profile in the semigroup generated by ``(p - r) e_a + r e_(a+1)`` over the
finite zero multiplicities p, plus e_1 when some zero has infinite
multiplicity; the witness search is an exact dynamic program over
sub-profiles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .errors import SizeCapExceededError
from .profiles import Profile, cell_power_profile, profile_power, size_cap


@dataclass(frozen=True)
class ZeroSpec:
    """Zero multiplicities of the analytic function, nothing else."""

    finite_multiplicities: tuple[int, ...]
    has_infinite_zero: bool = False

    def __post_init__(self):
        mults = tuple(sorted(self.finite_multiplicities))
        if any(p < 1 for p in mults):
            raise ValueError("zero multiplicities must be positive")
        object.__setattr__(self, "finite_multiplicities", mults)


@dataclass(frozen=True)
class SemigroupWitness:
    """Generator decomposition summing exactly to the queried profile.

    Each finite generator (p, a, r) contributes (p - r) cells of size a and
    r cells of size a+1 (size-0 cells dropped); ``e1_count`` counts uses of
    the infinite-multiplicity generator e_1.
    """

    generators: tuple[tuple[int, int, int], ...]
    e1_count: int = 0

    def total_profile(self) -> Profile:
        total = Profile({1: self.e1_count} if self.e1_count else {})
        for p, a, r in self.generators:
            total = total + cell_power_profile(p * a + r, p)
        return total


def has_pth_root(m: Profile, p: int) -> bool:
    """Remainder criterion: wherever R_k = (sum of m_j for j > k) mod p is
    nonzero, the count m_k must be at least p - R_k."""
    if p < 1:
        raise ValueError("power must be positive")
    top = m.max_index()
    tail = 0  # running sum of m_j for j > k, built from the top down
    for k in range(top, 0, -1):
        rem = tail % p
        if rem and p - m.get(k) > rem:
            return False
        tail += m.get(k)
    return True


def find_root_profile(m: Profile, p: int) -> Optional[Profile]:
    """Some profile whose p-th power image is m, or None when m has no p-th
    root.

    Greedy pass from the top size down: p cells of the largest remaining
    size a+1 merge into one root cell of size p*(a+1); otherwise its c < p
    cells join p - c cells of size a into a root cell of size p*a + c.

    The pass never gets stuck when ``has_pth_root`` holds.  Removing p equal
    cells leaves every tail sum unchanged mod p.  When c < p cells remain
    at the top size, the tail sum above a is c mod p, so the remainder
    criterion at a demands m_a >= p - c, exactly the cells the merge takes;
    the merge removes p cells in all, so every tail sum below a is again
    unchanged mod p and the criterion still holds for what remains.
    """
    if not has_pth_root(m, p):
        return None
    parts = []
    remaining = m
    while not remaining.is_empty():
        a1 = remaining.max_index()
        c = remaining.get(a1)
        if c >= p:
            parts.append(p * a1)
            remaining = remaining.plus(a1, -p)
            continue
        a = a1 - 1
        parts.append(p * a + c)
        remaining = remaining.plus(a1, -c).plus(a, -(p - c))
    root = Profile.from_partition(parts)
    if profile_power(root, p) != m:
        raise AssertionError("greedy root profile does not power to the target")
    return root


def _finite_generators(spec: ZeroSpec, m: Profile) -> list[tuple[tuple[int, int, int], Profile]]:
    """All usable finite generators (p, a, r), smallest keys first, each
    once although a spec may repeat a multiplicity.

    Generators touching sizes above the support of m can never appear in a
    witness, which bounds a; for multiplicities above size(m) only the
    a = 0 forms (pure e_1 bundles) survive.  As (p, a, p) is the bundle
    (p, a + 1, 0), r < p; a generator has size p*a + r, so r also stops at
    size(m) - p*a, and the loops never grow with p.
    """
    top = m.max_index()
    total = m.size()
    gens = []
    for p in sorted(set(spec.finite_multiplicities)):
        max_a = top if p <= total else 0
        for a in range(0, max_a + 1):
            for r in range(1 if a == 0 else 0, min(p - 1, total - p * a) + 1):
                g = cell_power_profile(p * a + r, p)
                if all(c <= m.get(k) for k, c in g.items()):
                    gens.append(((p, a, r), g))
    return gens


def is_f_solvable(spec: ZeroSpec, m: Profile) -> Optional[SemigroupWitness]:
    """Witness that m lies in the zero-multiplicity semigroup, or None.

    Dijkstra-style dynamic program over sub-profiles of m (count vectors on
    the support, packed into one integer), ordered by generator count with
    the lexicographically smallest generator multiset breaking ties.
    Witnesses are therefore stable across runs.  Finite generators are
    keyed (0, p, a, r); the infinite-multiplicity e_1 generator is keyed
    (1, 0, 0, 0).
    """
    cap = size_cap()
    if m.size() > cap:
        raise SizeCapExceededError(f"size {m.size()} exceeds cap {cap}")

    # A state packs one count field per support size k, started at
    # top - 1 - m_k so that its top bit is set exactly when the count
    # passes m_k; fields are wide enough that no addition carries across.
    width = m.total_cells().bit_length() + 1
    shift = {k: width * i for i, k in enumerate(sorted(m.support()))}
    top = 1 << (width - 1)
    overflow = sum(top << s for s in shift.values())
    target = sum((top - 1) << s for s in shift.values())
    start = target - sum(c << shift[k] for k, c in m.items())

    gens = [
        ((0, p, a, r), sum(c << shift[k] for k, c in g.items()))
        for (p, a, r), g in _finite_generators(spec, m)
    ]
    if spec.has_infinite_zero and 1 in shift:
        gens.append(((1, 0, 0, 0), 1 << shift[1]))

    best: dict[int, tuple] = {start: ()}
    heap: list[tuple] = [(0, (), start)]
    while heap:
        count, witness, state = heapq.heappop(heap)
        if best.get(state) != witness:
            continue  # stale entry
        if state == target:
            break
        for key, vec in gens:
            nxt = state + vec
            if nxt & overflow:
                continue
            cand = tuple(sorted(witness + (key,)))
            known = best.get(nxt)
            if known is None or (len(cand), cand) < (len(known), known):
                best[nxt] = cand
                heapq.heappush(heap, (count + 1, cand, nxt))
    hit = best.get(target)
    if hit is None:
        return None
    finite = tuple((p, a, r) for tag, p, a, r in hit if tag == 0)
    e1_count = sum(1 for key in hit if key[0] == 1)
    return SemigroupWitness(finite, e1_count)


def special_two_three(m: Profile) -> bool:
    """Closed-form test for zero multiplicities {2, 3}.

    Returns False exactly when some run m_(k+1) = ... = m_(k+2l-1) = 1 of
    odd length is flanked by zeros at k and k+2l (k, l positive).
    """
    top = m.max_index()
    for k in range(1, top):
        if m.get(k):
            continue
        max_l = (top + 1 - k) // 2 + 1
        for l in range(1, max_l + 1):
            if m.get(k + 2 * l):
                continue
            if all(m.get(k + i) == 1 for i in range(1, 2 * l)):
                return False
    return True

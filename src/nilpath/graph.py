"""The adjacency graph of root profiles over a fixed target profile.

Vertices are the profiles whose p-th power image equals the target; edges
are adjacency moves.  Chains between any two vertices follow the inductive
construction: strip common cells, otherwise walk the largest cell upward
inside its window until the supports meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import ChainGuardError, PowerMismatchError
from .profiles import (
    AdjacencyMove,
    Profile,
    apply_move,
    enumerate_preimages,
    profile_power,
)


@dataclass(frozen=True)
class ProfileGraph:
    p: int
    target: Profile
    vertices: tuple[Profile, ...]
    edges: tuple[tuple[Profile, Profile, AdjacencyMove], ...]

    def to_report_obj(self) -> dict:
        return {
            "p": self.p,
            "target": self.target.to_text(),
            "vertexCount": len(self.vertices),
            "edgeCount": len(self.edges),
            "connected": is_connected(self),
            "vertices": [v.to_text() for v in self.vertices],
            "edges": [
                {"from": u.to_text(), "to": v.to_text(), "move": mv.to_json_obj()}
                for u, v, mv in self.edges
            ],
        }


@dataclass(frozen=True)
class ProfileChain:
    steps: tuple[Profile, ...]
    moves: tuple[AdjacencyMove, ...]

    def __post_init__(self):
        if len(self.moves) != len(self.steps) - 1:
            raise ValueError("chain needs exactly one move per consecutive pair")

    def to_json_obj(self) -> dict:
        return {
            "steps": [s.to_text() for s in self.steps],
            "moves": [mv.to_json_obj() for mv in self.moves],
        }


def _sort_key(profile: Profile):
    return profile.partition()


def _forward_moves(u: Profile, p: int) -> Iterator[tuple[Profile, AdjacencyMove]]:
    """Every profile that one forward window move makes of u, with that
    move: cells k < l - 1 in the window a = (l - 1) // p of l become k + 1
    and l - 1 (k = 0: no cell)."""
    sizes = u.support()
    for l in sizes:
        a = (l - 1) // p
        for k in sizes + [0]:
            if p * a <= k <= l - 2:
                yield u.shifted(((k, -1), (l, -1), (k + 1, 1), (l - 1, 1))), AdjacencyMove(a, k, l, "forward", p)


def build_graph(target: Profile, p: int, cap: Optional[int] = None) -> ProfileGraph:
    """Graph on all preimage profiles with every adjacent pair as an edge.

    Vertices are in descending partition order.  A forward move replaces a
    part l by smaller ones, so it leads to a later vertex, and a backward
    move to an earlier one.  Each vertex u is therefore joined to the
    profiles its forward moves make, looked up in an index of the vertices,
    in vertex order and each with its move: the edges of a scan over all
    pairs with ``is_p_adjacent``, in its order, at the cost of u's moves.
    """
    vertices = sorted(enumerate_preimages(target, p, cap=cap), key=_sort_key, reverse=True)
    index = {v: j for j, v in enumerate(vertices)}
    edges = []
    for u in vertices:
        for j, move in sorted((index[v], move) for v, move in _forward_moves(u, p)):
            edges.append((u, vertices[j], move))
    return ProfileGraph(p, target, tuple(vertices), tuple(edges))


def is_connected(g: ProfileGraph) -> bool:
    """Breadth-first reachability; empty and singleton graphs count as connected."""
    if len(g.vertices) <= 1:
        return True
    adj: dict[Profile, list[Profile]] = {v: [] for v in g.vertices}
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(g.vertices)


def _chain(m: Profile, m2: Profile, p: int) -> tuple[list[Profile], list[AdjacencyMove]]:
    """Steps and moves from m to m2, grown from both ends until they meet.

    Common cells (the least count at each shared size) are set aside and
    added back to every later step.  With disjoint supports, the side
    missing the overall largest cell size q raises its top, one window step
    at a time, until q is reached; the far end's steps are reversed in last.
    """
    ends = (([m], []), ([m2], []))  # steps and moves from each end
    cur = [m, m2]
    shared = Profile()
    while cur[0] != cur[1]:
        common = [(k, -c) for k in cur[1].support() if (c := min(cur[0].get(k), cur[1].get(k)))]
        if common:
            cur = [side.shifted(common) for side in cur]
            shared = shared.shifted((k, -c) for k, c in common)
            continue
        q = max(cur[0].max_index(), cur[1].max_index())
        side = 0 if cur[0].get(q) == 0 else 1
        steps, moves = ends[side]
        walker = cur[side]
        a = -(-q // p) - 1  # least a with q in [p*a, p*(a+1)]; then q > p*a
        guard = walker.size() + walker.max_index() + q + 8
        while walker.get(q) == 0:
            window = [i for i in walker.support() if p * a < i <= p * (a + 1)]
            if not window:
                raise ChainGuardError("no cell available inside the window")
            k = window[0]
            if walker.get(k) > 1:
                move = AdjacencyMove(a, k - 1, k + 1, "backward", p)
            elif len(window) > 1:
                move = AdjacencyMove(a, window[1] - 1, k + 1, "backward", p)
            else:
                raise ChainGuardError("no partner cell below the window top")
            walker = apply_move(walker, move)
            steps.append(walker + shared)
            moves.append(move)
            guard -= 1
            if guard < 0:
                raise ChainGuardError("window walk failed to terminate")
        cur[side] = walker
    (steps, moves), (back_steps, back_moves) = ends
    return steps + back_steps[-2::-1], moves + [mv.flipped() for mv in reversed(back_moves)]


def profile_chain(m: Profile, m2: Profile, p: int) -> ProfileChain:
    """Chain of pairwise-adjacent profiles from m to m2.

    Requires equal p-th power images; the construction sets common cells
    aside and otherwise walks the largest cell upward, so chain length is
    bounded by the profile size.
    """
    if profile_power(m, p) != profile_power(m2, p):
        raise PowerMismatchError("profiles have different power images")
    steps, moves = _chain(m, m2, p)
    return ProfileChain(tuple(steps), tuple(moves))


def export_dot(g: ProfileGraph) -> str:
    """GraphViz DOT: nodes labeled by canonical profile text, edges (a,k,l)."""
    lines = [f"graph profiles_p{g.p} {{"]
    for v in g.vertices:
        lines.append(f'  "{v.to_text()}";')
    for u, v, mv in g.edges:
        lines.append(
            f'  "{u.to_text()}" -- "{v.to_text()}" [label="({mv.a},{mv.k},{mv.l})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"

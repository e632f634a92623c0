"""Maximum bipartite matching (Hopcroft-Karp) and the König witness.

The matcher is deterministic: vertices are visited in ascending index
order, so repeated calls on the same graph return the identical matching,
whichever side its phases are layered from.
When a maximum matching leaves a left vertex exposed, the core reads a
Hall violator (a left subset with strictly fewer neighbours, the König
witness) off its left match array, without matching again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Sequence

from .instances import InvariantError

# -1 marks a free vertex in the match arrays.
_FREE = (-1).__eq__


@dataclass(frozen=True)
class BipartiteGraph:
    """Left-indexed adjacency over dense vertex indices."""

    left_count: int
    right_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.left_count:
            raise ValueError("adjacency must have one row per left vertex")
        for u, row in enumerate(self.adjacency):
            if len(set(row)) != len(row):
                raise ValueError(f"duplicate edges at left vertex {u}")
            for v in row:
                if not 0 <= v < self.right_count:
                    raise ValueError(f"edge target {v} out of range at left vertex {u}")

    @classmethod
    def _from_checked_rows(
        cls, left_count: int, right_count: int, adjacency: tuple[tuple[int, ...], ...]
    ) -> "BipartiteGraph":
        """A graph whose rows were built from already-checked indices.

        Skips the per-edge check of ``__post_init__``: the caller guarantees
        that every row is duplicate-free and in range, so the public
        constructor would accept the same arguments.
        """
        if len(adjacency) != left_count:
            raise ValueError("adjacency must have one row per left vertex")
        graph = object.__new__(cls)
        object.__setattr__(graph, "left_count", left_count)
        object.__setattr__(graph, "right_count", right_count)
        object.__setattr__(graph, "adjacency", adjacency)
        return graph


@dataclass(frozen=True)
class Matching:
    """A set of (left, right) edges touching each vertex at most once."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        lefts = [u for u, _ in self.pairs]
        rights = [v for _, v in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("matching touches a vertex twice")

    @cached_property
    def left_map(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def max_matching(graph: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching, canonical under the input order (:func:`_match_array`)."""
    return Matching(tuple(pair for pair in enumerate(_match_array(graph)) if pair[1] != -1))


def _match_array(graph: BipartiteGraph, transpose: Sequence[Sequence[int]] | None = None) -> list[int]:
    """A maximum matching as its left match array: each left vertex's mate, or -1.

    A greedy seeding pass (ascending left index, first free neighbor) is
    followed by shortest-augmenting-path phases; both visit vertices in
    ascending order, so the result is reproducible.  Matching stops as soon
    as it covers every non-isolated vertex of one side, where no augmenting
    path can remain.

    ``transpose``, when given, must list each right vertex's left neighbors
    (one row per right vertex).  When fewer right than left vertices are
    free, phases are then layered from the free right vertices.  That
    admits the same shortest augmenting paths, so the matching is the one
    returned without it.
    """
    adj = graph.adjacency
    n_left = graph.left_count
    match_l = [-1] * n_left
    match_r = [-1] * graph.right_count
    for u in range(n_left):
        for v in adj[u]:
            if match_r[v] == -1:
                match_l[u] = v
                match_r[v] = u
                break
    size = n_left - match_l.count(-1)
    live_left = sum(map(bool, adj))
    if transpose is None:
        live_right = graph.right_count
    else:
        if len(transpose) != graph.right_count:
            raise ValueError("transpose must have one row per right vertex")
        live_right = sum(map(bool, transpose))
    limit = min(live_left, live_right)
    # Every matched vertex is non-isolated, so the side with fewer free
    # vertices is the same in every phase.
    backward = transpose is not None and live_right < live_left
    dist = [0] * n_left
    while size < limit:
        if backward:
            goal, roots = _bfs_layers_from_right(transpose, match_l, match_r, dist)
        else:
            goal = _bfs_layers(adj, match_l, match_r, dist)
            roots = compress(range(n_left), map(_FREE, match_l))
        if goal is None:
            break
        before = size
        for u in roots:
            if _augment(adj, match_l, match_r, dist, goal, u):
                size += 1
                if size == limit:
                    break
        if size == before:
            # Would repeat the same phase forever.
            raise InvariantError("a phase with an augmenting path augmented nothing")
    return match_l


def _bfs_layers(adj, match_l, match_r, dist) -> int | None:
    """Layer left vertices by alternating distance from the free ones.

    Returns the length of a shortest augmenting path, or None when no
    augmenting path exists (the matching is maximum).
    """
    inf = len(match_l) + 1
    queue: deque[int] = deque()
    for u in range(len(match_l)):
        if match_l[u] == -1:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = inf
    goal = inf
    while queue:
        u = queue.popleft()
        if dist[u] >= goal:
            continue
        for v in adj[u]:
            w = match_r[v]
            if w == -1:
                if goal == inf:
                    goal = dist[u] + 1
            elif dist[w] == inf:
                dist[w] = dist[u] + 1
                queue.append(w)
    return None if goal == inf else goal


def _bfs_layers_from_right(adj_t, match_l, match_r, dist) -> tuple[int | None, list[int]]:
    """Layer left vertices by alternating distance to the free right ones.

    A left vertex ``h`` steps from a free right vertex gets ``goal - h``,
    where ``goal`` is the length of a shortest augmenting path; a vertex on
    such a path then holds its position along it, as under
    :func:`_bfs_layers`.  Vertices farther than ``goal`` are left
    unreachable.  Returns ``goal`` (None when no augmenting path exists) and
    the free left vertices at distance ``goal``, ascending: the only roots a
    shortest augmenting path can start from.
    """
    inf = len(match_l) + 1
    dist[:] = [inf] * len(match_l)
    frontier = list(compress(range(len(match_r)), map(_FREE, match_r)))
    reached: list[int] = []
    roots: list[int] = []
    steps = 0
    while frontier and not roots:
        steps += 1
        nxt: list[int] = []
        for v in frontier:
            for u in adj_t[v]:
                if dist[u] == inf:
                    dist[u] = steps
                    reached.append(u)
                    w = match_l[u]
                    if w == -1:
                        roots.append(u)
                    else:
                        nxt.append(w)
        frontier = nxt
    if not roots:
        return None, roots
    for u in reached:
        dist[u] = steps - dist[u]
    roots.sort()
    return steps, roots


def _augment(adj, match_l, match_r, dist, goal, root) -> bool:
    """Depth-first search for one shortest augmenting path, iteratively.

    Mirrors the classic recursive formulation (descend only one layer at a
    time, mark failed vertices unreachable); iterative so that long paths do
    not hit the interpreter recursion limit.
    """
    inf = len(match_l) + 1
    stack: list[tuple[int, Iterable[int]]] = [(root, iter(adj[root]))]
    chosen: list[int] = []
    while stack:
        u, edge_iter = stack[-1]
        advanced = False
        for v in edge_iter:
            w = match_r[v]
            if w == -1:
                if dist[u] + 1 == goal:
                    chosen.append(v)
                    for (lu, _), rv in zip(stack, chosen):
                        match_l[lu] = rv
                        match_r[rv] = lu
                    return True
            elif dist[w] == dist[u] + 1:
                chosen.append(v)
                stack.append((w, iter(adj[w])))
                advanced = True
                break
        if not advanced:
            dist[u] = inf
            stack.pop()
            if chosen:
                chosen.pop()
    return False


def _certificate(graph: BipartiteGraph, match_l: list[int], exposed: int) -> tuple[list[int], int]:
    """Alternating reachability from ``exposed``, free in the maximum matching
    whose left match array is ``match_l``: the left vertices reached, sorted,
    and how many neighbours they have, fewer than they are (König)."""
    match_r = [-1] * graph.right_count
    for u, v in enumerate(match_l):
        if v != -1:
            match_r[v] = u
    seen_left = {exposed}
    seen_right: set[int] = set()
    frontier = [exposed]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v not in seen_right:
                    seen_right.add(v)
                    w = match_r[v]
                    if w != -1 and w not in seen_left:
                        seen_left.add(w)
                        nxt.append(w)
        frontier = nxt
    return sorted(seen_left), len(seen_right)

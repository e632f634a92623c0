"""Maximum bipartite matching (Hopcroft-Karp) and Hall-style certificates.

The matcher is deterministic: vertices are visited in ascending index
order, so repeated calls on the same graph return the identical matching.
When a maximum matching leaves a left vertex exposed, a deficiency
certificate (a subset whose neighborhood is strictly smaller, the
König/Hall witness) is read off that matching without matching again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


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

    @cached_property
    def right_map(self) -> dict[int, int]:
        return {v: u for u, v in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A left subset with fewer neighbors than members."""

    subset: tuple[int, ...]
    neighborhood: tuple[int, ...]


def max_matching(graph: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching, canonical under the input order.

    A greedy seeding pass (ascending left index, first free neighbor) is
    followed by shortest-augmenting-path phases; both visit vertices in
    ascending order, so the result is reproducible.
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
    dist = [0] * n_left
    while True:
        goal = _bfs_layers(adj, match_l, match_r, dist)
        if goal is None:
            break
        for u in range(n_left):
            if match_l[u] == -1:
                _augment(adj, match_l, match_r, dist, goal, u)
    pairs = tuple((u, match_l[u]) for u in range(n_left) if match_l[u] != -1)
    return Matching(pairs)


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


def deficiency_certificate(
    graph: BipartiteGraph, matching: Matching, left: Iterable[int]
) -> DeficiencyCertificate | None:
    """Witness, read off a maximum ``matching``, that ``left`` cannot all be matched.

    Returns None when the matching covers every vertex of ``left``.
    Otherwise alternating reachability from the smallest exposed vertex of
    ``left`` (König) yields a left subset adjacent to strictly fewer right
    vertices; the matching must be maximum for that bound to hold.
    """
    match_l = matching.left_map
    exposed = None
    for u in left:
        if not 0 <= u < graph.left_count:
            raise ValueError(f"left vertex {u} out of range")
        if u not in match_l and (exposed is None or u < exposed):
            exposed = u
    if exposed is None:
        return None
    match_r = matching.right_map
    seen_left = {exposed}
    seen_right: set[int] = set()
    frontier = [exposed]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in graph.adjacency[u]:
                if v not in seen_right:
                    seen_right.add(v)
                    w = match_r.get(v)
                    if w is not None and w not in seen_left:
                        seen_left.add(w)
                        nxt.append(w)
        frontier = nxt
    return DeficiencyCertificate(tuple(sorted(seen_left)), tuple(sorted(seen_right)))

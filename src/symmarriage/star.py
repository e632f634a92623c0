"""The star graph and its mismatch-repair solver.

An instance is decided through one bipartite graph with four node groups:
all girls plus a list node per listed girl on the left, all boys plus a
list node per listed boy on the right.  Edges:

* a direct (girl, boy) edge when one side lists the other and the listed
  target is a wildcard;
* the edge pair (g, L_b) and (L_g, b) when g and b are list compatible.

The listed cores form a vertex cover, so no matching exceeds
``#listed girls + #listed boys``; the instance is solvable exactly when a
maximum matching reaches that size.  Such a matching may pair a girl with
one boy's list node while that boy's core holds a different girl's list
node ("mismatched" edges).  Chain swaps rewire those into mutual pairs
without losing cardinality, after which the pairing can be read off.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .bipartite import (
    BipartiteGraph,
    DeficiencyCertificate,
    Matching,
    deficiency_certificate,
    max_matching,
)
from .hall import HallViolator
from .instances import Assignment, InvariantError, SmpInstance, pared_rows


@dataclass(frozen=True)
class StarGraph:
    """The four-group graph for one instance.

    Left vertices are the girls ``0..len(girls)-1`` followed by one list
    node per listed girl; right vertices mirror this for the boys.
    """

    instance: SmpInstance
    graph: BipartiteGraph
    listed_girls: tuple[int, ...]
    listed_boys: tuple[int, ...]
    lg_node: dict[int, int]
    lb_node: dict[int, int]

    @property
    def target_size(self) -> int:
        """Matching size that decides solvability (# listed members)."""
        return len(self.listed_girls) + len(self.listed_boys)

    @cached_property
    def left_adjacency_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row) for row in self.graph.adjacency)


@dataclass(frozen=True)
class Mismatch:
    """One matched list-node edge lacking its mutual partner edge.

    ``present`` names the edge that is in the matching: ``girl-to-boy-list``
    for (g, L_b), ``boy-to-girl-list`` for (L_g, b).
    """

    girl: str
    boy: str
    present: str


@dataclass(frozen=True)
class MismatchReport:
    mismatched: tuple[Mismatch, ...]

    @property
    def count(self) -> int:
        return len(self.mismatched)


@dataclass(frozen=True)
class Unsolvable:
    """Decision plus certificate: a subset whose pared lists are too small."""

    violator: HallViolator

    @property
    def side(self) -> str:
        return self.violator.side


def build_star_graph(instance: SmpInstance) -> StarGraph:
    """Construct the four-group graph; node order follows the rosters."""
    n_g = len(instance.girls)
    n_b = len(instance.boys)
    girl_rows = instance.girl_lists_idx
    boy_rows = instance.boy_lists_idx
    boy_sets = instance.boy_list_sets
    listed_g = instance.listed_girl_idx
    listed_b = instance.listed_boy_idx
    lg_node = {g: n_g + k for k, g in enumerate(listed_g)}
    lb_node = {b: n_b + k for k, b in enumerate(listed_b)}
    adjacency: list[list[int]] = [[] for _ in range(n_g + len(listed_g))]
    for g in range(n_g):
        for b in girl_rows[g]:
            if not boy_rows[b]:
                adjacency[g].append(b)
            elif g in boy_sets[b]:
                adjacency[g].append(lb_node[b])
                adjacency[lg_node[g]].append(b)
    for b in range(n_b):
        for g in boy_rows[b]:
            if not girl_rows[g]:
                adjacency[g].append(b)
    graph = BipartiteGraph(
        n_g + len(listed_g), n_b + len(listed_b), tuple(tuple(row) for row in adjacency)
    )
    return StarGraph(instance, graph, listed_g, listed_b, lg_node, lb_node)


def _is_mismatched(star: StarGraph, pair_left: dict[int, int], u: int) -> bool:
    """Whether left vertex ``u`` holds a list-node edge lacking its mutual
    partner edge.  Depends only on ``pair_left`` at ``u`` and at its twin."""
    v = pair_left.get(u)
    if v is None:
        return False
    n_g = len(star.instance.girls)
    n_b = len(star.instance.boys)
    if u < n_g:
        return v >= n_b and pair_left.get(star.lg_node[u]) != star.listed_boys[v - n_b]
    return v < n_b and pair_left.get(star.listed_girls[u - n_g]) != star.lb_node[v]


def _mismatched_edges(star: StarGraph, pair_left: dict[int, int]) -> list[tuple[int, int]]:
    """Matched list-node edges whose mutual partner edge is absent, ascending."""
    return [(u, pair_left[u]) for u in sorted(pair_left) if _is_mismatched(star, pair_left, u)]


def find_mismatches(star: StarGraph, matching: Matching) -> MismatchReport:
    """Report every mismatched edge of the matching, in edge order."""
    girls, boys = star.instance.girls, star.instance.boys
    n_g, n_b = len(girls), len(boys)
    entries = []
    for u, v in _mismatched_edges(star, matching.left_map):
        if u < n_g:
            entries.append(
                Mismatch(girls[u], boys[star.listed_boys[v - n_b]], "girl-to-boy-list")
            )
        else:
            entries.append(
                Mismatch(girls[star.listed_girls[u - n_g]], boys[v], "boy-to-girl-list")
            )
    return MismatchReport(tuple(entries))


def _check_repairable(star: StarGraph, matching: Matching) -> None:
    if len(matching.pairs) != star.target_size:
        raise ValueError(
            f"matching has size {len(matching.pairs)}, repair requires {star.target_size}"
        )
    adj = star.left_adjacency_sets
    for u, v in matching.pairs:
        if v not in adj[u]:
            raise ValueError(f"({u}, {v}) is not an edge of the star graph")
    pair_left = matching.left_map
    pair_right = matching.right_map
    for g in star.listed_girls:
        if g not in pair_left:
            raise ValueError(f"listed girl core {g} is uncovered")
    for b in star.listed_boys:
        if b not in pair_right:
            raise ValueError(f"listed boy core {b} is uncovered")


def _apply_chain(
    star: StarGraph,
    pair_left: dict[int, int],
    pair_right: dict[int, int],
    start_x: int,
    start_y: int,
    girl_start: bool,
) -> set[int]:
    """Chase one alternating chain of list-node partners and swap it mutual.

    ``start_x`` is the core member currently matched to ``start_y``'s list
    node, the counterpart edge being absent.  Walking partner-of-list-node
    pointers must end in one of three ways: a free list node on the start
    side, a cycle back to ``start_y``, or a free list node on the far side.
    Each ending admits a swap that pairs every chain member mutually with
    its chain partner, strictly reducing the mismatch count while keeping
    the matching size and the covered cores unchanged.  Returns the left
    vertices whose matched edge the swap changed.
    """
    if girl_start:
        # X side = girls (left cores), Y side = boys (right cores).
        def lx_partner(x: int) -> int | None:
            return pair_left.get(star.lg_node[x])

        def ly_partner(y: int) -> int | None:
            return pair_right.get(star.lb_node[y])

        def x_to_ly(x: int, y: int) -> tuple[int, int]:
            return (x, star.lb_node[y])

        def y_to_lx(x: int, y: int) -> tuple[int, int]:
            return (star.lg_node[x], y)

        def y_core_edge(y: int) -> tuple[int, int]:
            return (pair_right[y], y)

    else:
        # Mirror image: X side = boys (right cores), Y side = girls.
        def lx_partner(x: int) -> int | None:
            return pair_right.get(star.lb_node[x])

        def ly_partner(y: int) -> int | None:
            return pair_left.get(star.lg_node[y])

        def x_to_ly(x: int, y: int) -> tuple[int, int]:
            return (star.lg_node[y], x)

        def y_to_lx(x: int, y: int) -> tuple[int, int]:
            return (y, star.lb_node[x])

        def y_core_edge(y: int) -> tuple[int, int]:
            return (y, pair_left[y])

    xs = [start_x]
    ys = [start_y]
    removed: list[tuple[int, int]] = []
    added: list[tuple[int, int]] = []
    while True:
        nxt_y = lx_partner(xs[-1])
        if nxt_y is None:
            # Free list node on the start side: mutualize the tail, then
            # rewire the starting Y core onto the freed first list node.
            for i in range(1, len(xs)):
                removed.append(y_to_lx(xs[i - 1], ys[i]))
                added.append(y_to_lx(xs[i], ys[i]))
            removed.append(y_core_edge(ys[0]))
            added.append(y_to_lx(xs[0], ys[0]))
            break
        if nxt_y == ys[0]:
            # Cycle back to the start: rotate the Y-to-list edges mutual.
            for i in range(1, len(xs)):
                removed.append(y_to_lx(xs[i - 1], ys[i]))
            removed.append(y_to_lx(xs[-1], ys[0]))
            for i in range(len(xs)):
                added.append(y_to_lx(xs[i], ys[i]))
            break
        ys.append(nxt_y)
        nxt_x = ly_partner(ys[-1])
        if nxt_x is None:
            # Free list node on the far side: shift every X one step along.
            for i in range(len(xs)):
                removed.append(x_to_ly(xs[i], ys[i]))
                added.append(x_to_ly(xs[i], ys[i + 1]))
            break
        xs.append(nxt_x)
    for u, v in removed:
        if pair_left.get(u) != v:
            raise InvariantError(f"chain swap removes unmatched edge ({u}, {v})")
        del pair_left[u]
        del pair_right[v]
    adj = star.left_adjacency_sets
    for u, v in added:
        if v not in adj[u] or u in pair_left or v in pair_right:
            raise InvariantError(f"chain swap cannot add edge ({u}, {v})")
        pair_left[u] = v
        pair_right[v] = u
    return {u for u, _ in removed} | {u for u, _ in added}


def repair_mismatches(
    star: StarGraph, matching: Matching, stats: dict | None = None
) -> Matching:
    """Rewire matched list-node edges until every one has its mutual partner.

    Requires a maximum matching of size ``star.target_size`` (which then
    necessarily covers every listed core).  Each pass repairs the chain of
    the smallest mismatched edge, ordered by left vertex, and strictly
    decreases the mismatch count, so at most the initial count of passes
    run.  A min-heap worklist holds the left vertices whose matched edge is
    mismatched; it is seeded by one scan and re-checked lazily when popped.
    An edge's status depends only on ``pair_left`` at its left vertex and
    that vertex's twin (``g`` and ``L_g``), so after a swap only the
    vertices it rewired and their twins are re-checked.  Repair thus takes
    O((|M| + total chain length) log |M|) time.  When ``stats`` is given,
    ``initial_mismatches`` and ``iterations`` are recorded in it.
    """
    _check_repairable(star, matching)
    pair_left = dict(matching.pairs)
    pair_right = {v: u for u, v in matching.pairs}
    n_g = len(star.instance.girls)
    n_b = len(star.instance.boys)
    worklist = [u for u, _ in _mismatched_edges(star, pair_left)]
    # One status byte per left vertex: a set would keep its peak-sized
    # table after draining.
    mismatched = bytearray(star.graph.left_count)
    for u in worklist:
        mismatched[u] = True
    initial = count = len(worklist)
    iterations = 0
    while worklist:
        u = heapq.heappop(worklist)
        if not mismatched[u]:
            continue
        iterations += 1
        before = count
        mismatched[u] = False
        count -= 1
        v = pair_left[u]
        if u < n_g:
            start = (u, star.listed_boys[v - n_b], True)
        else:
            start = (v, star.listed_girls[u - n_g], False)
        changed = _apply_chain(star, pair_left, pair_right, *start)
        # ``u`` is re-checked even if the swap reports no change, so a chain
        # that leaves its start mismatched fails the count check below.
        recheck = {u}
        for w in changed:
            recheck.add(w)
            twin = star.lg_node.get(w) if w < n_g else star.listed_girls[w - n_g]
            if twin is not None:
                recheck.add(twin)
        for w in recheck:
            now = _is_mismatched(star, pair_left, w)
            if now and not mismatched[w]:
                heapq.heappush(worklist, w)
            count += now - mismatched[w]
            mismatched[w] = now
        if count >= before:
            raise InvariantError("chain swap did not reduce the mismatch count")
    if len(pair_left) != len(matching.pairs):
        raise InvariantError("repair changed the matching size")
    if stats is not None:
        stats["initial_mismatches"] = initial
        stats["iterations"] = iterations
    return Matching(tuple(sorted(pair_left.items())))


def extract_assignment(star: StarGraph, matching: Matching) -> Assignment:
    """Read the pairing off a mismatch-free matching of full size.

    A girl is paired with a boy when they are matched directly or when she
    holds his list node (mutuality then guarantees he holds hers).
    """
    if len(matching.pairs) != star.target_size:
        raise ValueError(
            f"matching has size {len(matching.pairs)}, expected {star.target_size}"
        )
    pair_left = matching.left_map
    if _mismatched_edges(star, pair_left):
        raise ValueError("matching still has mismatched edges")
    girls, boys = star.instance.girls, star.instance.boys
    n_b = len(boys)
    pairs = []
    for g in range(len(girls)):
        v = pair_left.get(g)
        if v is None:
            continue
        if v < n_b:
            pairs.append((girls[g], boys[v]))
        else:
            pairs.append((girls[g], boys[star.listed_boys[v - n_b]]))
    return Assignment(tuple(pairs))


def _violator(
    side: str, names: tuple[str, ...], cert: DeficiencyCertificate | None
) -> HallViolator | None:
    if cert is None:
        return None
    return HallViolator(side, tuple(names[u] for u in cert.subset), len(cert.neighborhood))


def _match_side(instance: SmpInstance, side: str) -> tuple[Matching, HallViolator | None]:
    """Match one side's pared one-sided graph, listed members on the left.

    Only ``side``'s lists are pared.  Returns the maximum matching and, when
    it leaves a listed member exposed, the violator read off it.
    """
    girls = side == "girls"
    listed = instance.listed_girl_idx if girls else instance.listed_boy_idx
    names = instance.girls if girls else instance.boys
    rows = pared_rows(instance, side)
    n_right = len(instance.boys) if girls else len(instance.girls)
    graph = BipartiteGraph(len(listed), n_right, tuple(rows[m] for m in listed))
    matching = max_matching(graph)
    cert = deficiency_certificate(graph, matching, range(len(listed)))
    return matching, _violator(side, tuple(names[m] for m in listed), cert)


def unsolvable_violator(instance: SmpInstance) -> HallViolator | None:
    """Certificate for an unsolvable instance, None when both one-sided
    subproblems are matchable.

    The girls' subproblem is examined first; certificates are stated over
    pared lists.
    """
    return _match_side(instance, "girls")[1] or _match_side(instance, "boys")[1]


def solve(instance: SmpInstance, repair_stats: dict | None = None) -> Assignment | Unsolvable:
    """Decide the instance with a single maximum-matching run.

    A maximum matching of the star graph reaching the listed-member count
    is repaired mismatch-free and read off as the pairing; a smaller one
    proves unsolvability.  The star graph is the disjoint union of the two
    pared one-sided graphs, so a girls' violator is read off the star
    matching itself; only when every listed girl is covered is the boys'
    side matched on its own (boys on the left) for its certificate.
    """
    star = build_star_graph(instance)
    matching = max_matching(star.graph)
    if len(matching.pairs) > star.target_size:
        raise InvariantError("star matching exceeds the listed-member bound")
    if len(matching.pairs) == star.target_size:
        repaired = repair_mismatches(star, matching, repair_stats)
        return extract_assignment(star, repaired)
    cert = deficiency_certificate(star.graph, matching, star.listed_girls)
    violator = _violator("girls", instance.girls, cert)
    if violator is None:
        violator = _match_side(instance, "boys")[1]
    if violator is None:
        raise InvariantError("deficient star matching but both subproblems matchable")
    return Unsolvable(violator)


def solve_via_subproblems(instance: SmpInstance) -> Assignment | Unsolvable:
    """Solve the two one-sided subproblems separately, then merge and repair.

    Each subproblem solution maps to star-graph edges touching disjoint
    vertex groups, so their union is a matching of full size; repair and
    extraction then proceed as in :func:`solve`.  This path exists to
    exercise the decomposition equivalence; ``solve`` is the production
    route and the two agree on solvability.
    """
    g_matching, violator = _match_side(instance, "girls")
    if violator is None:
        b_matching, violator = _match_side(instance, "boys")
    if violator is not None:
        return Unsolvable(violator)
    listed_g = instance.listed_girl_idx
    listed_b = instance.listed_boy_idx
    star = build_star_graph(instance)
    pairs = []
    for k, b in g_matching.pairs:
        g = listed_g[k]
        pairs.append((g, star.lb_node[b]) if b in star.lb_node else (g, b))
    for k, g in b_matching.pairs:
        b = listed_b[k]
        pairs.append((star.lg_node[g], b) if g in star.lg_node else (g, b))
    combined = Matching(tuple(sorted(pairs)))
    repaired = repair_mismatches(star, combined)
    return extract_assignment(star, repaired)

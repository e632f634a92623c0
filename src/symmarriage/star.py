"""The star graph and its mismatch-repair solver.

An instance is decided through one bipartite graph with four node groups:
all girls plus a list node per listed girl on the left, all boys plus a
list node per listed boy on the right.  Edges:

* a direct (girl, boy) edge when one side lists the other and the listed
  target is a wildcard;
* the edge pair (g, L_b) and (L_g, b) when g and b are list compatible.

The listed cores form a vertex cover, so no matching exceeds
``#listed girls + #listed boys``; the instance is solvable exactly when a
maximum matching reaches that size.  The graph falls into two components,
the two pared one-sided graphs, which every route matches apart in one
core.  Their union may pair a girl with one boy's list node while that
boy's core holds a different girl's list node ("mismatched" edges).  By
the Mendelsohn-Dulmage theorem the union, read as who holds whom, is a set
of disjoint paths and even cycles, so one pass over it reads off a mutual
pairing of every listed member.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import not_

from .bipartite import (
    BipartiteGraph,
    Matching,
    _certificate,
    _match_array,
)
from .hall import HallViolator
from .instances import Assignment, IndexRows, InvariantError


@dataclass(frozen=True)
class StarGraph:
    """The four-group graph for one instance.

    Left vertices are the girls ``0..len(girls)-1``, then the k-th listed
    girl's list node at ``len(girls) + k``; right vertices mirror this for
    the boys.  ``lg_node`` and ``lb_node``, built when read, map each
    listed member to their list node.
    """

    instance: IndexRows
    graph: BipartiteGraph
    listed_girls: tuple[int, ...]
    listed_boys: tuple[int, ...]

    @cached_property
    def lg_node(self) -> dict[int, int]:
        return {g: u for u, g in enumerate(self.listed_girls, len(self.instance.girls))}

    @cached_property
    def lb_node(self) -> dict[int, int]:
        return {b: v for v, b in enumerate(self.listed_boys, len(self.instance.boys))}

    @property
    def target_size(self) -> int:
        """Matching size that decides solvability (# listed members)."""
        return len(self.listed_girls) + len(self.listed_boys)


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


def build_star_graph(instance: IndexRows) -> StarGraph:
    """Construct the four-group graph; node order follows the rosters."""
    return _build_star(instance)[0]


# Keeps a set B label (see _build_star), or a matched vertex of a match array.
_LABELLED = (-1).__ne__


def _build_star(
    instance: IndexRows,
) -> tuple[StarGraph, tuple[tuple[int, ...], ...], list[int]]:
    """The star graph, plus the boys' pared rows over component B's labels.

    Component B of the star has the wildcard girls, then the girls' list
    nodes, on the left and the listed boys' cores on the right.  Its left
    vertices are labelled by rank: the r-th wildcard girl is ``r`` and the
    list node of the k-th listed girl is ``len(wild) + k``.  Row ``b`` of
    the boys' rows is boy ``b``'s pared list in his list order, over those
    labels (empty for a wildcard boy): B's transpose, and the boys-left
    graph of the boys' one-sided subproblem.  Also returns ``wild``, the
    wildcard girls ascending.  Every row is built from the instance's
    checked indices.

    List compatibility comes from one pass over the listed boys' rows,
    which finds, for each girl, the listed boys who list her, ascending;
    no set of any whole list is kept, nor any map to the list nodes.
    """
    n_g, n_b = len(instance.girls), len(instance.boys)
    girl_rows = instance.girl_lists_idx
    boy_rows = instance.boy_lists_idx
    listed_g = instance.listed_girl_idx
    listed_b = instance.listed_boy_idx
    wild = list(compress(range(n_g), map(not_, girl_rows)))
    # Rows 0..n_g-1 first hold the listed boys who list each girl; each is
    # then replaced in place by the girl's star row, as a tuple.
    adjacency: list = [[] for _ in range(n_g)]
    # A listed boy's slot holds his list node until his row replaces it.
    boys_rows: list = [()] * n_b
    for v, b in enumerate(listed_b, n_b):
        boys_rows[b] = v
        for g in boy_rows[b]:
            adjacency[g].append(b)
    adjacency += [()] * len(listed_g)
    # A wildcard girl's star row is exactly the listed boys who list her.
    for g in wild:
        adjacency[g] = tuple(adjacency[g])
    # Each compatible boy's compatible listed girls, by rank, for the boys loop.
    compatible: defaultdict[int, list[int]] = defaultdict(list)
    for k, g in enumerate(listed_g):
        listing = set(adjacency[g])
        row, list_row = [], []
        for b in girl_rows[g]:
            if not boy_rows[b]:
                row.append(b)
            elif b in listing:
                row.append(boys_rows[b])
                list_row.append(b)
                compatible[b].append(k)
        adjacency[g] = tuple(row)
        adjacency[n_g + k] = tuple(list_row)
    # B's label of each girl: wildcards always, a listed girl only while a
    # boy she is compatible with is emitted; -1 drops the list entry.
    label = [-1] * n_g
    for r, g in enumerate(wild):
        label[g] = r
    for b in listed_b:
        mates = compatible.get(b, ())
        for k in mates:
            label[listed_g[k]] = len(wild) + k
        boys_rows[b] = tuple(filter(_LABELLED, map(label.__getitem__, boy_rows[b])))
        for k in mates:
            label[listed_g[k]] = -1
    graph = BipartiteGraph._from_checked_rows(
        n_g + len(listed_g), n_b + len(listed_b), tuple(adjacency)
    )
    return StarGraph(instance, graph, listed_g, listed_b), tuple(boys_rows), wild


def _mismatched_edges(star: StarGraph, pair_left: dict[int, int]) -> list[tuple[int, int]]:
    """Matched list-node edges whose mutual partner edge is absent, ascending."""
    n_g, n_b = len(star.instance.girls), len(star.instance.boys)
    edges = []
    for u, v in sorted(pair_left.items()):
        if u < n_g:
            twin_ok = v < n_b or pair_left.get(star.lg_node[u]) == star.listed_boys[v - n_b]
        else:
            twin_ok = v >= n_b or pair_left.get(star.listed_girls[u - n_g]) == star.lb_node[v]
        if not twin_ok:
            edges.append((u, v))
    return edges


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


def _pairing(star: StarGraph, pairs: Iterable[tuple[int, int]], stats: dict | None) -> list[tuple[int, int]]:
    """The mutual pairing read off ``pairs``, the (left, right) vertex pairs
    of a full-size star matching, read once, as (girl, boy) pairs in girl
    order, in one Mendelsohn-Dulmage pass.

    Each listed girl points at the boy whose list node or wildcard core she
    holds, and each listed boy at the girl whose list node or wildcard core
    holds him.  Nobody is pointed at twice, so the pointers form disjoint
    paths, each ending at a wildcard, and even cycles.  Each listed girl
    takes the boy she points at, except on a path that starts at a listed
    boy no listed girl points at: there each boy takes the girl he points
    at, up to the wildcard end.  Such a path holds each listed boy at most
    once, so a walk that outgrows them raises ``InvariantError``, as does a
    pairing that does not match every listed member exactly once.  Records
    ``initial_mismatches`` and ``iterations`` (the paths and cycles that
    hold a mismatched edge) in ``stats`` when given, for which alone the
    pairs are kept, as a map from left to right vertex.
    """
    n_g, n_b = len(star.instance.girls), len(star.instance.boys)
    listed_g, listed_b = star.listed_girls, star.listed_boys
    boy_rows = star.instance.boy_lists_idx
    boy_of = [-1] * n_g
    girl_of = [-1] * n_b
    if stats is not None:
        pair_left = dict(pairs)
        pairs = pair_left.items()
    for u, v in pairs:
        if u >= n_g:
            girl_of[v] = listed_g[u - n_g]
        elif v >= n_b:
            boy_of[u] = listed_b[v - n_b]
        elif boy_rows[v]:
            girl_of[v] = u
        else:
            boy_of[u] = v
    partner = boy_of.copy()
    held = set(boy_of)
    for b in listed_b:
        if b in held:
            continue
        for _ in listed_b:
            g = girl_of[b]
            partner[g] = b
            b = boy_of[g]
            if b < 0 or girl_of[b] < 0:
                break
        else:
            raise InvariantError("pairing walk outgrew the listed boys")
    pairing = [(g, b) for g, b in enumerate(partner) if b >= 0]
    taken = {b for _, b in pairing}
    if len(taken) < len(pairing) or not taken.issuperset(listed_b) or -1 in map(
        partner.__getitem__, listed_g
    ):
        raise InvariantError("pairing does not match every listed member exactly once")
    if stats is not None:
        # Paths from a listed member no one points at to a listed member,
        # then cycles through more than one girl, each walked once.
        pointed = set(girl_of)
        parts = sum(girl_of[boy_of[g]] >= 0 for g in listed_g if g not in pointed)
        parts += sum(boy_of[girl_of[b]] >= 0 for b in listed_b if b not in held)
        seen = bytearray(n_g)
        for g in listed_g:
            x = -1 if seen[g] else g
            while x >= 0 and not seen[x]:
                seen[x] = 1
                b = boy_of[x]
                x = girl_of[b] if b >= 0 else -1
            parts += x == g and girl_of[boy_of[g]] != g
        stats["initial_mismatches"] = len(_mismatched_edges(star, pair_left))
        stats["iterations"] = parts
    return pairing


def repair_mismatches(
    star: StarGraph, matching: Matching, stats: dict | None = None
) -> Matching:
    """The mutual matching of the pairing :func:`_pairing` reads off the
    matching: every matched list-node edge has its mutual partner.

    Requires a maximum matching of size ``star.target_size`` (which then
    necessarily covers every listed core).
    """
    if len(matching.pairs) != star.target_size:
        raise ValueError(
            f"matching has size {len(matching.pairs)}, repair requires {star.target_size}"
        )
    # A matching touches each left vertex once, so scanning the rows is
    # linear in the edges.  Every star edge touches exactly one listed core
    # (a direct edge its listed end, (g, L_b) girl g, (L_g, b) boy b), so
    # target_size matched edges cover every listed core.
    adj = star.graph.adjacency
    for u, v in matching.pairs:
        if v not in adj[u]:
            raise ValueError(f"({u}, {v}) is not an edge of the star graph")
    pair_left = {}
    for g, b in _pairing(star, matching.pairs, stats):
        if g in star.lg_node and b in star.lb_node:
            pair_left[star.lg_node[g]] = b
            b = star.lb_node[b]
        pair_left[g] = b
    return Matching(tuple(sorted(pair_left.items())))


def extract_assignment(star: StarGraph, matching: Matching) -> Assignment:
    """Read the pairing off a mismatch-free matching of full size."""
    if len(matching.pairs) != star.target_size:
        raise ValueError(f"matching has size {len(matching.pairs)}, expected {star.target_size}")
    if _mismatched_edges(star, matching.left_map):
        raise ValueError("matching still has mismatched edges")
    return _repaired((star, matching.pairs))


def _match_listed(
    graph: BipartiteGraph, side: str, names: tuple[str, ...], listed: tuple[int, ...]
) -> tuple[list[int], HallViolator | None]:
    """The left match array of a graph whose left vertex ``k`` is member
    ``listed[k]``, plus the side's violator when it leaves one exposed."""
    match = _match_array(graph)
    if -1 not in match:
        return match, None
    subset, union_size = _certificate(graph, match, match.index(-1))
    return match, HallViolator(side, tuple(names[listed[u]] for u in subset), union_size)


def _components(
    instance: IndexRows, boys_left: bool
) -> HallViolator | tuple[StarGraph, Iterator[tuple[int, int]]]:
    """The decision core: match the star graph's two components apart.

    Component A (listed girls' cores against wildcard boys and boys' list
    nodes) is the girls' pared one-sided graph; a deficient A yields the
    girls' violator.  Component B (wildcard girls and girls' list nodes
    against listed boys' cores) is matched girls-left with the boys' rows
    as transpose, as Hopcroft-Karp on the whole star would, or with
    ``boys_left`` as the boys' pared one-sided graph.  A deficient B is
    matched boys-left for the boys' violator, A's matching freed first
    when no pairing can follow.  Otherwise returns the star and the union
    of both matchings (left match arrays, each freed once read), of full
    size, as (left, right) star vertex pairs to be read once; B's label
    ``u`` is ``wild[u]``, or the list node ``u + n_g - len(wild)``.
    """
    star, boys_rows, wild = _build_star(instance)
    adj = star.graph.adjacency
    n_g, n_w = len(instance.girls), len(wild)
    listed_g, listed_b = star.listed_girls, star.listed_boys
    a_graph = BipartiteGraph._from_checked_rows(
        len(listed_g), star.graph.right_count, tuple(map(adj.__getitem__, listed_g))
    )
    a_match, violator = _match_listed(a_graph, "girls", instance.girls, listed_g)
    if violator is not None:
        return violator
    b_left = n_w + len(listed_g)
    b_pairs = None
    if not boys_left:
        b_graph = BipartiteGraph._from_checked_rows(
            b_left, len(instance.boys), tuple(map(adj.__getitem__, wild)) + adj[n_g:]
        )
        b_match = _match_array(b_graph, boys_rows)
        if (matched := b_left - b_match.count(-1)) > len(listed_b):
            raise InvariantError("star matching exceeds the listed-member bound")
        if matched == len(listed_b):
            b_pairs = compress(enumerate(b_match), map(_LABELLED, b_match))
        else:
            del a_match  # the outcome is now the boys' violator or an error
        del b_match  # read: a deficient one is matched again boys-left
    if b_pairs is None:
        boys_graph = BipartiteGraph._from_checked_rows(
            len(listed_b), b_left, tuple(map(boys_rows.__getitem__, listed_b))
        )
        b_match, violator = _match_listed(boys_graph, "boys", instance.boys, listed_b)
        if violator is not None:
            return violator
        if not boys_left:
            raise InvariantError("deficient star matching but both subproblems matchable")
        b_pairs = zip(b_match, listed_b)
    b_pairs = ((wild[u] if u < n_w else u + n_g - n_w, v) for u, v in b_pairs)
    return star, chain(zip(listed_g, a_match), b_pairs)


def unsolvable_violator(instance: IndexRows) -> HallViolator | None:
    """Certificate over pared lists: the girls' violator, else the boys', or
    None when both one-sided subproblems are matchable."""
    outcome = _components(instance, boys_left=True)
    return outcome if isinstance(outcome, HallViolator) else None


def _repaired(outcome, stats: dict | None = None) -> Assignment | Unsolvable:
    """The pairing read off a core outcome, or its violator."""
    if isinstance(outcome, HallViolator):
        return Unsolvable(outcome)
    star, pairs = outcome
    girls, boys = star.instance.girls, star.instance.boys
    return Assignment(tuple((girls[g], boys[b]) for g, b in _pairing(star, pairs, stats)))


def solve(instance: IndexRows, repair_stats: dict | None = None) -> Assignment | Unsolvable:
    """Decide the instance by matching the star graph's two components apart,
    then repair the union mismatch-free and read off the pairing."""
    return _repaired(_components(instance, boys_left=False), repair_stats)


def solve_via_subproblems(instance: IndexRows) -> Assignment | Unsolvable:
    """As :func:`solve`, but with component B matched boys-left, as the
    boys' one-sided subproblem.  Only the pairing may differ from ``solve``."""
    return _repaired(_components(instance, boys_left=True))

"""Matching core: Hopcroft-Karp against exhaustive search, certificates."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

from symmarriage import BipartiteGraph, Matching, max_matching
from symmarriage import bipartite as bipartite_module
from symmarriage.bipartite import _certificate, _match_array

from .conftest import bipartite_adjacencies, brute_matching_size


def graph(n_left, n_right, rows):
    return BipartiteGraph(n_left, n_right, tuple(tuple(r) for r in rows))


SHARED_NEIGHBOR = graph(2, 1, [(0,), (0,)])


class TestGraphInvariants:
    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError, match="out of range"):
            graph(1, 1, [(1,)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph(1, 2, [(0, 0)])

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="one row per left vertex"):
            graph(2, 1, [(0,)])

    def test_matching_rejects_reused_vertex(self):
        with pytest.raises(ValueError, match="twice"):
            Matching(((0, 0), (1, 0)))


class TestMaxMatching:
    def test_empty_graph(self):
        assert max_matching(graph(0, 0, [])).pairs == ()

    def test_complete_3x3_is_perfect(self):
        g = graph(3, 3, [(0, 1, 2)] * 3)
        assert len(max_matching(g)) == 3

    def test_shared_single_neighbor(self):
        assert len(max_matching(SHARED_NEIGHBOR)) == 1

    def test_needs_augmenting_beyond_greedy(self):
        # Greedy pairs 0 with a; only rerouting through 0 frees a for 1.
        g = graph(2, 2, [(0, 1), (0,)])
        m = max_matching(g)
        assert len(m) == 2
        assert m.pairs == ((0, 1), (1, 0))

    @given(bipartite_adjacencies(max_left=7, max_right=7))
    @settings(deadline=None, max_examples=300)
    def test_cardinality_matches_exhaustive_search(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        assert len(max_matching(g)) == brute_matching_size(rows)

    @given(bipartite_adjacencies())
    @settings(deadline=None)
    def test_pairs_are_edges_and_injective(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        m = max_matching(g)
        for u, v in m.pairs:
            assert v in rows[u]

    @given(bipartite_adjacencies())
    @settings(deadline=None)
    def test_reproducible(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        assert max_matching(g).pairs == max_matching(g).pairs


def reference_max_matching(graph):
    """Hopcroft-Karp layered from the free left vertices only, every phase
    run to its end: the oracle for the pruned and backward-layered matcher."""
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
        goal = _reference_bfs_layers(adj, match_l, match_r, dist)
        if goal is None:
            break
        for u in range(n_left):
            if match_l[u] == -1:
                _reference_augment(adj, match_l, match_r, dist, goal, u)
    return Matching(tuple((u, match_l[u]) for u in range(n_left) if match_l[u] != -1))


def _reference_bfs_layers(adj, match_l, match_r, dist):
    inf = len(match_l) + 1
    queue = deque()
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


def _reference_augment(adj, match_l, match_r, dist, goal, root):
    inf = len(match_l) + 1
    stack = [(root, iter(adj[root]))]
    chosen = []
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


def pairs_of(match):
    """A left match array's (left, right) pairs."""
    return tuple((u, v) for u, v in enumerate(match) if v != -1)


def reference_certificate(graph, match_l, root):
    """Alternating reachability from ``root``, exposed in the maximum
    matching whose left match array is ``match_l``, searched depth first:
    the left vertices reached, sorted, and how many neighbours they have.
    Every neighbour reached is matched, or the matching would not be
    maximum."""
    owner = {v: u for u, v in enumerate(match_l) if v != -1}
    members, union, stack = {root}, set(), [root]
    while stack:
        for v in graph.adjacency[stack.pop()]:
            union.add(v)
            if owner[v] not in members:
                members.add(owner[v])
                stack.append(owner[v])
    return sorted(members), len(union)


def transpose_of(graph):
    rows = [[] for _ in range(graph.right_count)]
    for u, row in enumerate(graph.adjacency):
        for v in row:
            rows[v].append(u)
    return tuple(map(tuple, rows))


def surplus_left_graph(rng, n_right):
    """Many more left than right vertices, sparse rows in random order, a
    few isolated vertices on each side: most phases layer backwards."""
    n_left = int(rng.integers(n_right, 4 * n_right + 1))
    rows = []
    for _ in range(n_left):
        k = int(rng.integers(0, min(3, n_right) + 1))
        rows.append(tuple(int(v) for v in rng.choice(n_right, size=k, replace=False)))
    return graph(n_left, n_right + int(rng.integers(0, 3)), rows)


def assert_arrays_agree(g):
    """The left match array holds the reference matching's pairs, with and
    without the transpose, and the certificate read off it from each
    exposed vertex is the reference's: a left subset with fewer neighbours."""
    expected = reference_max_matching(g).pairs
    for transpose in (None, transpose_of(g)):
        match = _match_array(g, transpose)
        assert pairs_of(match) == expected
        for u in range(g.left_count):
            if match[u] == -1:
                subset, union_size = _certificate(g, match, u)
                assert (subset, union_size) == reference_certificate(g, match, u)
                assert union_size < len(subset)


@pytest.fixture
def backward_phases(monkeypatch):
    """Counts the phases layered from the free right vertices."""
    calls = []
    original = bipartite_module._bfs_layers_from_right

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(bipartite_module, "_bfs_layers_from_right", counting)
    return calls


class TestLayeringOracle:
    @given(bipartite_adjacencies(max_left=9, max_right=9))
    @settings(deadline=None, max_examples=600)
    def test_same_matching_either_way(self, data):
        g = graph(*data)
        expected = reference_max_matching(g)
        assert max_matching(g) == expected
        assert pairs_of(_match_array(g, transpose_of(g))) == expected.pairs

    @given(bipartite_adjacencies(max_left=9, max_right=9))
    @settings(deadline=None, max_examples=300)
    def test_match_array_and_certificate(self, data):
        assert_arrays_agree(graph(*data))

    def test_surplus_free_left_vertices(self, backward_phases):
        rng = np.random.default_rng(11)
        for _ in range(400):
            g = surplus_left_graph(rng, int(rng.integers(1, 30)))
            expected = reference_max_matching(g)
            assert max_matching(g) == expected
            assert pairs_of(_match_array(g, transpose_of(g))) == expected.pairs
        assert len(backward_phases) >= 100

    def test_long_augmenting_paths_layered_backward(self, backward_phases):
        # Greedy pairs ladder vertex k with right vertex k, so the surplus
        # vertices competing for right vertex 0 can only reach the free right
        # vertex n - 1 along the whole ladder.
        for n in (2, 5, 40):
            g = graph(n + 2, n, [(k, k + 1) for k in range(n - 1)] + [(0,)] * 3)
            expected = reference_max_matching(g)
            assert len(expected) == n
            assert pairs_of(_match_array(g, transpose_of(g))) == expected.pairs
        assert len(backward_phases) == 3

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_ladder_match_array_and_certificate(self, n):
        # The ladders of the test above.
        assert_arrays_agree(graph(n + 2, n, [(k, k + 1) for k in range(n - 1)] + [(0,)] * 3))

    def test_transpose_row_count_checked(self):
        with pytest.raises(ValueError, match="one row per right vertex"):
            _match_array(SHARED_NEIGHBOR, ((0, 1), ()))

    def test_stops_at_saturation_without_a_final_phase(self, monkeypatch):
        phases = []
        original = bipartite_module._bfs_layers

        def counting(*args):
            phases.append(1)
            return original(*args)

        monkeypatch.setattr(bipartite_module, "_bfs_layers", counting)
        # Greedy already covers every left vertex: no phase runs at all.
        assert len(max_matching(graph(3, 4, [(0, 1), (1, 2), (2, 3)]))) == 3
        # One phase finds the only augmenting path; none confirms it.
        assert len(max_matching(graph(2, 2, [(0, 1), (0,)]))) == 2
        assert len(phases) == 1


class TestCheckedRowsConstructor:
    @given(bipartite_adjacencies())
    @settings(deadline=None)
    def test_equals_public_constructor(self, data):
        n_left, n_right, rows = data
        assert BipartiteGraph._from_checked_rows(n_left, n_right, rows) == graph(*data)

    def test_still_checks_row_count(self):
        with pytest.raises(ValueError, match="one row per left vertex"):
            BipartiteGraph._from_checked_rows(2, 1, ((0,),))


class TestCheckedPairsConstructor:
    @given(bipartite_adjacencies())
    @settings(deadline=None)
    def test_matcher_result_equals_public_constructor(self, data):
        matching = max_matching(graph(*data))
        assert matching == Matching(matching.pairs)
        assert hash(matching) == hash(Matching(matching.pairs))
        assert matching.left_map == dict(matching.pairs)


class TestDeficiencyCertificate:
    """The König witness the core reads off its left match array."""

    def test_shared_neighbor_certificate(self):
        match = _match_array(SHARED_NEIGHBOR)
        assert match == [0, -1]
        assert _certificate(SHARED_NEIGHBOR, match, 1) == ([0, 1], 1)

    def test_starts_from_smallest_exposed_vertex(self):
        # Vertices 1 and 3 are exposed; the core starts from the smallest,
        # and reachability from it stays in the first component.
        g = graph(4, 2, [(0,), (0,), (1,), (1,)])
        match = _match_array(g)
        assert match.index(-1) == 1
        assert _certificate(g, match, 1) == ([0, 1], 1)
        assert _certificate(g, match, 3) == ([2, 3], 1)

    @given(bipartite_adjacencies())
    @settings(deadline=None, max_examples=300)
    def test_certificate_self_checks(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        match = _match_array(g)
        if -1 not in match:
            assert brute_matching_size(rows) == n_left
        for u in range(n_left):
            if match[u] == -1:
                subset, union_size = _certificate(g, match, u)
                union = set().union(*(rows[k] for k in subset))
                assert u in subset
                assert union_size == len(union) < len(subset)

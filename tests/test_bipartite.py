"""Matching core: Hopcroft-Karp against exhaustive search, certificates."""

import pytest
from hypothesis import given, settings

from symmarriage import (
    BipartiteGraph,
    Matching,
    deficiency_certificate,
    max_matching,
)

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


class TestDeficiencyCertificate:
    def test_shared_neighbor_certificate(self):
        m = max_matching(SHARED_NEIGHBOR)
        cert = deficiency_certificate(SHARED_NEIGHBOR, m, (0, 1))
        assert cert.subset == (0, 1)
        assert cert.neighborhood == (0,)

    def test_perfect_matching_has_no_certificate(self):
        g = graph(2, 2, [(0,), (1,)])
        assert deficiency_certificate(g, max_matching(g), (0, 1)) is None

    def test_empty_required_is_vacuous(self):
        m = max_matching(SHARED_NEIGHBOR)
        assert deficiency_certificate(SHARED_NEIGHBOR, m, ()) is None

    def test_restriction_ignores_other_left_vertices(self):
        # The matching leaves vertex 1 exposed, but only vertex 0 must be
        # covered.
        m = max_matching(SHARED_NEIGHBOR)
        assert m.pairs == ((0, 0),)
        assert deficiency_certificate(SHARED_NEIGHBOR, m, (0,)) is None

    def test_rejects_out_of_range_required(self):
        with pytest.raises(ValueError, match="out of range"):
            deficiency_certificate(SHARED_NEIGHBOR, Matching(()), (5,))

    def test_starts_from_smallest_exposed_vertex(self):
        # Vertices 1 and 3 are exposed; reachability from 1 stays in the
        # first component.
        g = graph(4, 2, [(0,), (0,), (1,), (1,)])
        cert = deficiency_certificate(g, max_matching(g), (3, 2, 1, 0))
        assert cert.subset == (0, 1)
        assert cert.neighborhood == (0,)

    @given(bipartite_adjacencies())
    @settings(deadline=None, max_examples=300)
    def test_certificate_self_checks(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        cert = deficiency_certificate(g, max_matching(g), range(n_left))
        if cert is None:
            assert len(max_matching(g)) == n_left
        else:
            union = set()
            for u in cert.subset:
                union.update(rows[u])
            assert set(cert.neighborhood) == union
            assert len(cert.neighborhood) < len(cert.subset)

    @given(bipartite_adjacencies())
    @settings(deadline=None, max_examples=300)
    def test_none_iff_left_covered(self, data):
        n_left, n_right, rows = data
        g = graph(n_left, n_right, rows)
        m = max_matching(g)
        for left in (range(n_left), range(0, n_left, 2)):
            covered = all(u in m.left_map for u in left)
            assert (deficiency_certificate(g, m, left) is None) == covered

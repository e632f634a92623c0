"""Star graph construction, mismatch repair, and the solver itself."""

import gc
import hashlib
import os
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmarriage
from symmarriage import (
    Assignment,
    BipartiteGraph,
    HallViolator,
    InvariantError,
    Matching,
    SmpInstance,
    Unsolvable,
    assignment_violations,
    build_star_graph,
    cmp_to_smp,
    deficiency_certificate,
    extract_assignment,
    find_mismatches,
    gen_tournament,
    hall_condition_cmp,
    max_matching,
    oracle_solve,
    repair_mismatches,
    solve,
    solve_via_subproblems,
    unsolvable_violator,
)
from symmarriage import star as star_module
from symmarriage.bipartite import _match_array
from symmarriage import cli
from symmarriage.cli import main
from symmarriage.fileio import parse_instance, serialize_instance
from symmarriage.instances import (
    Infeasible,
    RawInstance,
    pared_index_lists,
    preprocess_refusals,
)

from .conftest import bench_document, random_instance, smp_instances
from .test_acceptance import exhaustive_3x3


def star_edges(star):
    """Symbolic (left, right) edge labels, e.g. ('g1', 'Lb1')."""
    inst = star.instance
    n_g, n_b = len(inst.girls), len(inst.boys)

    def left_name(u):
        return inst.girls[u] if u < n_g else "L" + inst.girls[star.listed_girls[u - n_g]]

    def right_name(v):
        return inst.boys[v] if v < n_b else "L" + inst.boys[star.listed_boys[v - n_b]]

    return {
        (left_name(u), right_name(v))
        for u, row in enumerate(star.graph.adjacency)
        for v in row
    }


def star_matching(star, named_pairs):
    """Build a Matching from symbolic pairs like ('g1', 'Lb1')."""
    inst = star.instance
    gi, bi = inst.girl_index, inst.boy_index
    n_g, n_b = len(inst.girls), len(inst.boys)

    def left_id(name):
        return star.lg_node[gi[name[1:]]] if name.startswith("L") else gi[name]

    def right_id(name):
        return star.lb_node[bi[name[1:]]] if name.startswith("L") else bi[name]

    return Matching(tuple(sorted((left_id(a), right_id(b)) for a, b in named_pairs)))


class TestBuildStarGraph:
    def test_i1_edges(self, i1):
        star = build_star_graph(i1)
        assert star_edges(star) == {("g1", "b2"), ("g2", "b1")}
        # One list node exists per listed member, both isolated here.
        assert star.listed_girls == (0,) and star.listed_boys == (0,)

    def test_i3_edges(self, i3):
        star = build_star_graph(i3)
        expected = set()
        for g in ("g1", "g2"):
            for b in ("b1", "b2"):
                expected.add((g, "L" + b))
                expected.add(("L" + g, b))
        assert star_edges(star) == expected

    def test_all_wildcards_has_no_edges(self):
        inst = SmpInstance.build(["g1"], ["b1"], {}, {})
        star = build_star_graph(inst)
        assert star_edges(star) == set()
        assert star.target_size == 0

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_edge_rules(self, inst):
        star = build_star_graph(inst)
        edges = star_edges(star)
        listed_g = {inst.girls[i] for i in star.listed_girls}
        listed_b = {inst.boys[i] for i in star.listed_boys}
        for g in inst.girls:
            for b in inst.boys:
                direct = (b in inst.girl_lists[g] and b not in listed_b) or (
                    g in inst.boy_lists[b] and g not in listed_g
                )
                compatible = b in inst.girl_lists[g] and g in inst.boy_lists[b]
                assert ((g, b) in edges) == direct
                assert (((g, "L" + b) in edges) == compatible) and (
                    (("L" + g, b) in edges) == compatible
                )

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_vertex_cover_bound(self, inst):
        star = build_star_graph(inst)
        assert len(max_matching(star.graph)) <= star.target_size


class TestSolve:
    def test_i1_unique_solution(self, i1):
        assert solve(i1) == Assignment((("g1", "b2"), ("g2", "b1")))

    def test_two_girls_one_boy(self, two_girls_one_boy):
        result = solve(two_girls_one_boy)
        assert isinstance(result, Unsolvable)
        assert result.side == "girls"
        assert result.violator.members == ("g1", "g2")
        assert result.violator.union_size == 1

    def test_i3_deterministic_valid(self, i3):
        result = solve(i3)
        assert result == Assignment((("g1", "b1"), ("g2", "b2")))
        assert solve(i3) == result

    def test_empty_instance(self):
        assert solve(SmpInstance.build([], [], {}, {})) == Assignment(())

    def test_cmp_shaped_agrees_with_matching_coverage(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n_l = int(rng.integers(1, 6))
            n_r = int(rng.integers(1, 6))
            rows = []
            for _ in range(n_l):
                k = int(rng.integers(1, n_r + 1))
                rows.append(tuple(int(x) for x in sorted(rng.choice(n_r, size=k, replace=False))))
            graph = BipartiteGraph(n_l, n_r, tuple(rows))
            inst = SmpInstance.build(
                [f"g{i}" for i in range(n_l)],
                [f"b{j}" for j in range(n_r)],
                {f"g{i}": tuple(f"b{j}" for j in rows[i]) for i in range(n_l)},
                {},
            )
            covered = len(max_matching(graph)) == n_l
            assert isinstance(solve(inst), Assignment) == covered

    def test_tournament_cmp_roundtrip(self):
        for seed in range(10):
            cmp = gen_tournament(2, seed)
            via_cmp = hall_condition_cmp(cmp) is None
            via_smp = isinstance(solve(cmp_to_smp(cmp)), Assignment)
            assert via_cmp == via_smp


def reference_violator(inst):
    """Certificate computed apart from the star graph: match each pared
    one-sided graph on its own, girls first, then follow alternating paths
    from the smallest listed member left exposed."""
    pared_g, pared_b = pared_index_lists(inst)
    sides = (
        ("girls", inst.listed_girl_idx, inst.girls, pared_g, len(inst.boys)),
        ("boys", inst.listed_boy_idx, inst.boys, pared_b, len(inst.girls)),
    )
    for side, listed, names, pared, n_right in sides:
        rows = [pared[m] for m in listed]
        matched = max_matching(BipartiteGraph(len(rows), n_right, tuple(rows))).left_map
        exposed = [k for k in range(len(rows)) if k not in matched]
        if not exposed:
            continue
        owner = {v: k for k, v in matched.items()}
        members, union = {exposed[0]}, set()
        stack = [exposed[0]]
        while stack:
            for v in rows[stack.pop()]:
                union.add(v)
                if owner[v] not in members:
                    members.add(owner[v])
                    stack.append(owner[v])
        return HallViolator(side, tuple(names[listed[k]] for k in sorted(members)), len(union))
    return None


class TestCertificate:
    def test_matches_reference_on_3x3_patterns(self):
        mismatched, unsolvable = [], 0
        for inst in exhaustive_3x3():
            outcome = solve(inst)
            expected = reference_violator(inst)
            got = None if isinstance(outcome, Assignment) else outcome.violator
            unsolvable += got is not None
            if got != expected:
                mismatched.append(inst)
        assert mismatched == []
        assert unsolvable > 10_000

    @given(smp_instances(max_girls=7, max_boys=7))
    @settings(deadline=None, max_examples=400)
    def test_matches_reference(self, inst):
        outcome = solve(inst)
        got = None if isinstance(outcome, Assignment) else outcome.violator
        assert got == reference_violator(inst)
        assert unsolvable_violator(inst) == got

    @pytest.mark.parametrize(
        "inst, side, calls",
        [
            (SmpInstance.build(["g1", "g2"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {}), "girls", 1),
            (SmpInstance.build(["g1"], ["b1", "b2"], {}, {"b1": ["g1"], "b2": ["g1"]}), "boys", 3),
        ],
    )
    def test_matcher_runs(self, monkeypatch, inst, side, calls):
        graphs = []

        def counting(graph, transpose=None):
            graphs.append(graph)
            return _match_array(graph, transpose)

        monkeypatch.setattr(star_module, "_match_array", counting)
        outcome = solve(inst)
        assert isinstance(outcome, Unsolvable) and outcome.side == side
        assert len(graphs) == calls
        # One run per component, then the boys' side with the boys on the
        # left: the listed girls, the wildcard girls and girls' list nodes,
        # and the listed boys.
        wildcards = len(inst.girls) - len(inst.listed_girl_idx)
        expected = (
            len(inst.listed_girl_idx),
            wildcards + len(inst.listed_girl_idx),
            len(inst.listed_boy_idx),
        )
        assert tuple(g.left_count for g in graphs) == expected[:calls]

    @pytest.mark.parametrize(
        "inst, side",
        [
            (SmpInstance.build(["g1", "g2"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {}), "girls"),
            (SmpInstance.build(["g1"], ["b1", "b2"], {}, {"b1": ["g1"], "b2": ["g1"]}), "boys"),
            (SmpInstance.build(["g1", "g2"], ["b1", "b2"], {"g1": ["b1", "b2"]}, {"b1": ["g2"]}), None),
        ],
    )
    def test_subproblems_matcher_runs(self, monkeypatch, inst, side):
        graphs = []

        def counting(graph, transpose=None):
            graphs.append(graph)
            return _match_array(graph, transpose)

        monkeypatch.setattr(star_module, "_match_array", counting)
        outcome = solve_via_subproblems(inst)
        assert (outcome.side if isinstance(outcome, Unsolvable) else None) == side
        # The listed girls, then, unless they are deficient, the listed boys.
        expected = (len(inst.listed_girl_idx), len(inst.listed_boy_idx))
        calls = 1 if side == "girls" else 2
        assert tuple(g.left_count for g in graphs) == expected[:calls]

    def test_deficient_star_frees_earlier_arrays(self, monkeypatch):
        # Once B proves deficient, solve's outcome is the boys' violator, so
        # neither A's match array nor B's is alive for the boys' run.
        class Array(list):
            pass

        arrays, alive = [], []

        def tracking(graph, transpose=None):
            alive.append([ref() is not None for ref in arrays])
            match = Array(_match_array(graph, transpose))
            arrays.append(weakref.ref(match))
            return match

        monkeypatch.setattr(star_module, "_match_array", tracking)
        inst = SmpInstance.build(["g1", "g2"], ["b1", "b2"], {"g1": ["b1"]}, {"b1": ["g1"], "b2": ["g1"]})
        assert solve(inst).side == "boys"
        assert alive == [[], [True], [False, False]]
        # The subproblems route reads A's array after the boys' run.
        arrays.clear()
        alive.clear()
        outcome = solve_via_subproblems(SmpInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {"b1": ["g1"]}))
        assert isinstance(outcome, Assignment)
        assert alive == [[], [True]]


# A planted-unsolvable size at which the core's peak rose above the load's
# before the core dropped its pair tuples and list-node maps.
CORE_PEAK_SIZE = 10_000


@pytest.fixture(scope="class")
def planted_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("planted") / "instance.json"
    path.write_text(bench_document("planted-unsolvable", CORE_PEAK_SIZE))
    return str(path)


class TestCorePeak:
    def test_core_peaks_below_the_load(self, planted_path, monkeypatch):
        # The CLI's solve: the load reads the text and frees it, then the
        # core runs with the view alive.  The core's peak, the view
        # included, stays below the load's, the text included.
        stars = []
        build_star = star_module._build_star

        def recording(instance):
            built = build_star(instance)
            stars.append(built[0])
            return built

        monkeypatch.setattr(star_module, "_build_star", recording)
        gc.collect()
        tracemalloc.start()
        try:
            view = cli._load_instance(planted_path)
            load_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            outcome = solve(view)
            core_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, Unsolvable) and outcome.side == "boys"
        assert core_peak < load_peak, f"core {core_peak / 1e6:.3f} MB, load {load_peak / 1e6:.3f} MB"
        # No list-node map is built on the way.
        assert len(stars) == 1 and {"lg_node", "lb_node"}.isdisjoint(vars(stars[0]))

    def test_star_build_scratch_is_small(self, planted_path):
        # The build's scratch beyond the star it returns: per-girl labels
        # and the compatible mates of the boys who have any, no per-boy list.
        view = cli._load_instance(planted_path)
        view.listed_girl_idx, view.listed_boy_idx
        gc.collect()
        tracemalloc.start()
        try:
            built = star_module._build_star(view)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[0].target_size
        assert peak - kept < kept / 5, f"scratch {(peak - kept) / 1e6:.3f} MB, star {kept / 1e6:.3f} MB"


def whole_star_solve(inst, stats):
    """The single-run route: match the whole star graph, then repair and
    extract, or read the certificate off the one-sided subproblems."""
    star = build_star_graph(inst)
    matching = max_matching(star.graph)
    if len(matching) == star.target_size:
        return extract_assignment(star, repair_mismatches(star, matching, stats))
    return Unsolvable(unsolvable_violator(inst))


@st.composite
def refused_instances(draw):
    """Instances after refusal preprocessing; infeasible ones are drawn again."""
    inst = draw(smp_instances(max_girls=6, max_boys=6))
    members = inst.girls + inst.boys
    refusers = draw(st.lists(st.sampled_from(members), unique=True, max_size=2)) if members else []
    raw = RawInstance(inst.girls, inst.boys, inst.girl_lists, inst.boy_lists, tuple(refusers))
    prepared = preprocess_refusals(raw)
    if isinstance(prepared, Infeasible):
        return draw(smp_instances(max_girls=6, max_boys=6))
    return prepared


def bench_instance(workload, n):
    """A benchmark family's instance at size ``n``, as the CLI would load it."""
    return preprocess_refusals(parse_instance(bench_document(workload, n)))


def reference_build_star(inst):
    """The star build that tests list compatibility against a set of every
    listed boy's list and copies its list rows to tuples at the end, kept as
    the oracle for the build from one pass over the boys' lists."""
    n_g = len(inst.girls)
    n_b = len(inst.boys)
    girl_rows = inst.girl_lists_idx
    boy_rows = inst.boy_lists_idx
    boy_sets = tuple(map(frozenset, boy_rows))
    listed_g = inst.listed_girl_idx
    listed_b = inst.listed_boy_idx
    lg_node = {g: n_g + k for k, g in enumerate(listed_g)}
    lb_node = {b: n_b + k for k, b in enumerate(listed_b)}
    wild = [g for g in range(n_g) if not girl_rows[g]]
    adjacency = [[] for _ in range(n_g + len(listed_g))]
    compatible = [[] for _ in range(n_b)]
    for g in listed_g:
        for b in girl_rows[g]:
            if not boy_rows[b]:
                adjacency[g].append(b)
            elif g in boy_sets[b]:
                adjacency[g].append(lb_node[b])
                adjacency[lg_node[g]].append(b)
                compatible[b].append(g)
    label = [-1] * n_g
    for r, g in enumerate(wild):
        label[g] = r
    boys_rows = [()] * n_b
    for b in listed_b:
        for g in boy_rows[b]:
            if not girl_rows[g]:
                adjacency[g].append(b)
        for g in compatible[b]:
            label[g] = len(wild) + lg_node[g] - n_g
        boys_rows[b] = tuple(label[g] for g in boy_rows[b] if label[g] != -1)
        for g in compatible[b]:
            label[g] = -1
    adjacency = tuple(map(tuple, adjacency))
    return adjacency, lg_node, lb_node, tuple(boys_rows), wild


def assert_same_as_whole_star(inst):
    stats, whole_stats = {}, {}
    assert solve(inst, stats) == whole_star_solve(inst, whole_stats)
    assert stats == whole_stats


def assert_rows_pass_public_check(inst):
    star, boys_rows, wild = star_module._build_star(inst)
    graph = star.graph
    got = (graph.adjacency, star.lg_node, star.lb_node, boys_rows, wild)
    assert got == reference_build_star(inst)
    assert BipartiteGraph(graph.left_count, graph.right_count, graph.adjacency) == graph
    # The boys' rows are component B's transpose over B's labels.
    n_g = len(inst.girls)
    b_rows = [graph.adjacency[g] for g in wild] + list(graph.adjacency[n_g:])
    transpose = [[] for _ in inst.boys]
    for label, row in enumerate(b_rows):
        for b in row:
            transpose[b].append(label)
    assert [sorted(row) for row in boys_rows] == transpose
    BipartiteGraph(len(inst.boys), len(b_rows), boys_rows)


def reference_match_side(inst, side):
    """One side's pared one-sided graph matched on its own, listed members on
    the left: the rows come from ``pared_index_lists`` and pass the public
    ``BipartiteGraph`` constructor.  Returns the matching and, when it
    leaves a listed member exposed, the violator read off it."""
    pared_g, pared_b = pared_index_lists(inst)
    if side == "girls":
        listed, names, rows, n_right = inst.listed_girl_idx, inst.girls, pared_g, len(inst.boys)
    else:
        listed, names, rows, n_right = inst.listed_boy_idx, inst.boys, pared_b, len(inst.girls)
    graph = BipartiteGraph(len(listed), n_right, tuple(rows[m] for m in listed))
    matching = max_matching(graph)
    cert = deficiency_certificate(graph, matching, range(len(listed)))
    if cert is None:
        return matching, None
    members = tuple(names[listed[u]] for u in cert.subset)
    return matching, HallViolator(side, members, len(cert.neighborhood))


def assert_core_matches_reference_sides(inst):
    """The certificate and the subproblems route's merged matching equal
    those of the two one-sided graphs matched apart."""
    girls, girls_violator = reference_match_side(inst, "girls")
    boys, boys_violator = reference_match_side(inst, "boys")
    violator = girls_violator or boys_violator
    assert unsolvable_violator(inst) == violator
    outcome = star_module._components(inst, boys_left=True)
    if violator is not None:
        assert outcome == violator
        assert solve_via_subproblems(inst) == Unsolvable(violator)
        return
    star = build_star_graph(inst)
    listed_g, listed_b = inst.listed_girl_idx, inst.listed_boy_idx
    pairs = [(listed_g[k], star.lb_node.get(b, b)) for k, b in girls.pairs]
    pairs += [(star.lg_node.get(g, g), listed_b[k]) for k, g in boys.pairs]
    merged = Matching(tuple(sorted(pairs)))
    assert sorted(outcome[1]) == list(merged.pairs)
    expected = extract_assignment(star, repair_mismatches(star, merged))
    assert solve_via_subproblems(inst) == expected


class TestComponentSolve:
    @given(refused_instances())
    @settings(deadline=None, max_examples=2000)
    def test_same_as_whole_star(self, inst):
        assert_same_as_whole_star(inst)

    @pytest.mark.parametrize("workload", ["reciprocal-repair", "planted-unsolvable"])
    def test_same_as_whole_star_on_bench_families(self, workload):
        inst = bench_instance(workload, 1000)
        assert_same_as_whole_star(inst)
        assert_rows_pass_public_check(inst)

    @given(refused_instances())
    @settings(deadline=None, max_examples=600)
    def test_rows_pass_public_check(self, inst):
        assert_rows_pass_public_check(inst)

    def test_no_second_paring(self):
        # Every route reads the boys' pared rows off the one star build,
        # which keeps no set of any list.
        assert not hasattr(star_module, "pared_rows")
        for route in (solve, solve_via_subproblems, unsolvable_violator):
            rng = np.random.default_rng(3)
            sides = Counter()
            for _ in range(300):
                inst = random_instance(rng)
                outcome = route(inst)
                if isinstance(outcome, Unsolvable):
                    outcome = outcome.violator
                sides[outcome.side if isinstance(outcome, HallViolator) else "solved"] += 1
                assert "girl_list_sets" not in vars(inst)
                assert "boy_list_sets" not in vars(inst)
            assert len(sides) == 3 and min(sides.values()) >= 30

    @given(refused_instances())
    @settings(deadline=None, max_examples=600)
    def test_same_as_reference_sides(self, inst):
        assert_core_matches_reference_sides(inst)

    @pytest.mark.parametrize("workload", ["reciprocal-repair", "planted-unsolvable"])
    def test_same_as_reference_sides_on_bench_families(self, workload):
        assert_core_matches_reference_sides(bench_instance(workload, 1000))

    def test_one_pair_map_from_core_to_pairing(self, monkeypatch):
        # The solve routes read the pairing off the core's pair map in one
        # pass: no star Matching is built and, with no stats asked for, no
        # mismatch scan is made.
        built, scans = [], []
        real_scan = star_module._mismatched_edges

        def counting_matching(pairs):
            built.append(pairs)
            return Matching(pairs)

        def counting_scan(star, pair_left):
            scans.append(len(pair_left))
            return real_scan(star, pair_left)

        monkeypatch.setattr(star_module, "Matching", counting_matching)
        monkeypatch.setattr(star_module, "_mismatched_edges", counting_scan)
        for route in (solve, solve_via_subproblems):
            rng = np.random.default_rng(3)
            solved = 0
            for _ in range(300):
                inst = random_instance(rng)
                scans.clear()
                solved_now = isinstance(route(inst), Assignment)
                assert scans == []
                solved += solved_now
            assert solved >= 30
        assert built == []
        # The stand-in sees the public repair's result.
        star = build_star_graph(MISMATCHED_INSTANCE)
        repair_mismatches(star, max_matching(star.graph))
        assert len(built) == 1


class TestFindMismatches:
    def test_direct_only_matching_has_none(self, i1):
        star = build_star_graph(i1)
        m = star_matching(star, [("g1", "b2"), ("g2", "b1")])
        assert find_mismatches(star, m).count == 0

    def test_i3_crossed_matching_has_four(self, i3):
        star = build_star_graph(i3)
        m = star_matching(
            star, [("g1", "Lb1"), ("g2", "Lb2"), ("Lg2", "b1"), ("Lg1", "b2")]
        )
        report = find_mismatches(star, m)
        assert report.count == 4
        assert len(report.mismatched) == 4

    def test_i3_mutual_matching_has_none(self, i3):
        star = build_star_graph(i3)
        m = star_matching(
            star, [("g1", "Lb1"), ("Lg1", "b1"), ("g2", "Lb2"), ("Lg2", "b2")]
        )
        assert find_mismatches(star, m).count == 0


def rescanning_repair(star, matching, stats):
    """Reference repair: chain swaps by :func:`reference_apply_chain`, each
    from the smallest mismatched edge left after a rescan of the whole
    matching.  The production pass must reproduce its matching exactly and
    its initial mismatch count; it counts paths and cycles, not chains."""
    n_g, n_b = len(star.instance.girls), len(star.instance.boys)
    pair_left = dict(matching.pairs)
    pair_right = {v: u for u, v in matching.pairs}

    def mismatched_edges():
        out = []
        for u in sorted(pair_left):
            v = pair_left[u]
            if u < n_g:
                if v >= n_b:
                    g, b = u, star.listed_boys[v - n_b]
                    if pair_left.get(star.lg_node[g]) != b:
                        out.append((u, v))
            elif v < n_b:
                g, b = star.listed_girls[u - n_g], v
                if pair_left.get(g) != star.lb_node[b]:
                    out.append((u, v))
        return out

    mismatched = mismatched_edges()
    stats["initial_mismatches"] = len(mismatched)
    stats["iterations"] = 0
    while mismatched:
        stats["iterations"] += 1
        u, v = mismatched[0]
        if u < n_g:
            start = (u, star.listed_boys[v - n_b], True)
        else:
            start = (v, star.listed_girls[u - n_g], False)
        reference_apply_chain(star, pair_left, pair_right, *start, Counter())
        remaining = mismatched_edges()
        assert len(remaining) < len(mismatched)
        mismatched = remaining
    return Matching(tuple(sorted(pair_left.items())))


def reference_apply_chain(star, pair_left, pair_right, start_x, start_y, girl_start, endings):
    """The chain swap written out once per start side, with the start-side-free
    and cycle endings apart: one alternating chain of list-node partners from
    a mismatched edge, swapped mutual.  Counts the ending it takes in
    ``endings``."""
    if girl_start:
        # X side = girls (left cores), Y side = boys (right cores).
        def lx_partner(x):
            return pair_left.get(star.lg_node[x])

        def ly_partner(y):
            return pair_right.get(star.lb_node[y])

        def x_to_ly(x, y):
            return (x, star.lb_node[y])

        def y_to_lx(x, y):
            return (star.lg_node[x], y)

        def y_core_edge(y):
            return (pair_right[y], y)

    else:
        # Mirror image: X side = boys (right cores), Y side = girls.
        def lx_partner(x):
            return pair_right.get(star.lb_node[x])

        def ly_partner(y):
            return pair_left.get(star.lg_node[y])

        def x_to_ly(x, y):
            return (star.lg_node[y], x)

        def y_to_lx(x, y):
            return (y, star.lb_node[x])

        def y_core_edge(y):
            return (y, pair_left[y])

    xs = [start_x]
    ys = [start_y]
    removed, added = [], []
    while True:
        nxt_y = lx_partner(xs[-1])
        if nxt_y is None:
            endings["start-side free"] += 1
            for i in range(1, len(xs)):
                removed.append(y_to_lx(xs[i - 1], ys[i]))
                added.append(y_to_lx(xs[i], ys[i]))
            removed.append(y_core_edge(ys[0]))
            added.append(y_to_lx(xs[0], ys[0]))
            break
        if nxt_y == ys[0]:
            endings["cycle"] += 1
            for i in range(1, len(xs)):
                removed.append(y_to_lx(xs[i - 1], ys[i]))
            removed.append(y_to_lx(xs[-1], ys[0]))
            for i in range(len(xs)):
                added.append(y_to_lx(xs[i], ys[i]))
            break
        ys.append(nxt_y)
        nxt_x = ly_partner(ys[-1])
        if nxt_x is None:
            endings["far-side free"] += 1
            for i in range(len(xs)):
                removed.append(x_to_ly(xs[i], ys[i]))
                added.append(x_to_ly(xs[i], ys[i + 1]))
            break
        xs.append(nxt_x)
    for u, v in removed:
        assert pair_left.get(u) == v
        del pair_left[u]
        del pair_right[v]
    for u, v in added:
        assert v in star.graph.adjacency[u] and u not in pair_left and v not in pair_right
        pair_left[u] = v
        pair_right[v] = u


def mismatch_components(star, matching):
    """How many connected groups the mismatched (girl, boy) pairs of the
    matching form, by union-find over the pairs."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for m in find_mismatches(star, matching).mismatched:
        parent[find(("girl", m.girl))] = find(("boy", m.boy))
    return sum(find(x) == x for x in parent)


def shuffled_max_matching(star, rng):
    """A maximum matching of the star graph with every row's neighbour
    order shuffled, so ties break unlike the canonical matcher's."""
    rows = []
    for row in star.graph.adjacency:
        row = list(row)
        rng.shuffle(row)
        rows.append(tuple(row))
    return max_matching(BipartiteGraph(star.graph.left_count, star.graph.right_count, tuple(rows)))


def dense_mutual_instance(rng, wildcard_rate=0.0):
    """n x n with long, mostly mutual lists; each member is a wildcard with
    probability ``wildcard_rate``."""
    n = int(rng.integers(2, 8))
    girls = tuple(f"g{i}" for i in range(n))
    boys = tuple(f"b{j}" for j in range(n))
    lists = ({}, {})
    for side, members, others in ((0, girls, boys), (1, boys, girls)):
        for m in members:
            if wildcard_rate and rng.random() < wildcard_rate:
                continue
            k = int(rng.integers(max(1, n - 2), n + 1))
            lists[side][m] = tuple(others[j] for j in sorted(rng.choice(n, size=k, replace=False)))
    return SmpInstance.build(girls, boys, *lists)


def crossed_blocks(n):
    """n/2 disjoint, fully mutual 2x2 blocks fed a crossed full matching:
    girl k holds L_{b_k} while L_{g_k} holds the block's other boy, so each
    block has four mismatched edges and is repaired by one cycle chain."""
    girls = [f"g{i}" for i in range(n)]
    boys = [f"b{j}" for j in range(n)]
    girl_lists, boy_lists = {}, {}
    for k in range(0, n, 2):
        girl_lists[girls[k]] = girl_lists[girls[k + 1]] = (boys[k], boys[k + 1])
        boy_lists[boys[k]] = boy_lists[boys[k + 1]] = (girls[k], girls[k + 1])
    star = build_star_graph(SmpInstance.build(girls, boys, girl_lists, boy_lists))
    lg, lb = star.lg_node, star.lb_node
    pairs = []
    for k in range(0, n, 2):
        pairs += [(k, lb[k]), (k + 1, lb[k + 1]), (lg[k + 1], k), (lg[k], k + 1)]
    return star, Matching(tuple(sorted(pairs)))


class TestRepairMismatches:
    def test_identity_when_clean(self, i1):
        star = build_star_graph(i1)
        m = star_matching(star, [("g1", "b2"), ("g2", "b1")])
        assert repair_mismatches(star, m) == m

    def test_i3_cycle_case(self, i3):
        star = build_star_graph(i3)
        crossed = star_matching(
            star, [("g1", "Lb1"), ("g2", "Lb2"), ("Lg2", "b1"), ("Lg1", "b2")]
        )
        stats = {}
        repaired = repair_mismatches(star, crossed, stats)
        expected = star_matching(
            star, [("g1", "Lb1"), ("Lg1", "b1"), ("g2", "Lb2"), ("Lg2", "b2")]
        )
        assert repaired == expected
        assert stats == {"initial_mismatches": 4, "iterations": 1}
        assert extract_assignment(star, repaired) == Assignment(
            (("g1", "b1"), ("g2", "b2"))
        )

    def test_free_list_node_case(self):
        # One listed boy, two listed girls; rewiring b1 onto the free Lg1
        # clears both mismatches in a single pass.
        inst = SmpInstance.build(
            ["g1", "g2"],
            ["b1", "b2"],
            {"g1": ["b1", "b2"], "g2": ["b1", "b2"]},
            {"b1": ["g1", "g2"]},
        )
        star = build_star_graph(inst)
        m = star_matching(star, [("g1", "Lb1"), ("Lg2", "b1"), ("g2", "b2")])
        assert find_mismatches(star, m).count == 2
        stats = {}
        repaired = repair_mismatches(star, m, stats)
        assert find_mismatches(star, repaired).count == 0
        assert len(repaired.pairs) == 3
        assert stats["iterations"] <= stats["initial_mismatches"] == 2
        assignment = extract_assignment(star, repaired)
        assert assignment_violations(inst, assignment) == []

    def test_crossed_mutual_square(self, i3):
        star = build_star_graph(i3)
        m = star_matching(
            star, [("Lg1", "b1"), ("Lg2", "b2"), ("g1", "Lb2"), ("g2", "Lb1")]
        )
        repaired = repair_mismatches(star, m)
        assert find_mismatches(star, repaired).count == 0
        assert assignment_violations(i3, extract_assignment(star, repaired)) == []

    def test_boy_side_start(self):
        # Both girls are direct-matched, so the only mismatched edge is
        # (Lg1, b1) and the mirrored chain orientation must run.
        inst = SmpInstance.build(
            ["g1", "g2"],
            ["b1", "b2", "b3"],
            {"g1": ["b1", "b2"], "g2": ["b3"]},
            {"b1": ["g1"]},
        )
        star = build_star_graph(inst)
        m = star_matching(star, [("g1", "b2"), ("g2", "b3"), ("Lg1", "b1")])
        report = find_mismatches(star, m)
        assert report.count == 1
        assert report.mismatched[0].present == "boy-to-girl-list"
        repaired = repair_mismatches(star, m)
        assert repaired == star_matching(
            star, [("g1", "Lb1"), ("g2", "b3"), ("Lg1", "b1")]
        )
        assert extract_assignment(star, repaired) == Assignment(
            (("g1", "b1"), ("g2", "b3"))
        )

    def test_rejects_undersized_matching(self, i3):
        star = build_star_graph(i3)
        m = star_matching(star, [("g1", "Lb1"), ("Lg1", "b1")])
        with pytest.raises(ValueError, match="size"):
            repair_mismatches(star, m)

    def test_rejects_non_edge(self, i1):
        star = build_star_graph(i1)
        with pytest.raises(ValueError, match="not an edge"):
            repair_mismatches(star, star_matching(star, [("g1", "b1"), ("g2", "b2")]))

    def test_crossed_blocks_scale_linearly(self):
        # The rescanning loop took 19-26 s here, quadratic in n.
        star, crossed = crossed_blocks(8000)
        stats = {}
        start = time.perf_counter()
        repaired = repair_mismatches(star, crossed, stats)
        elapsed = time.perf_counter() - start
        assert stats == {"initial_mismatches": 16000, "iterations": 4000}
        lg, lb = star.lg_node, star.lb_node
        assert repaired.left_map == {
            u: v for g in range(8000) for u, v in ((g, lb[g]), (lg[g], g))
        }
        assert elapsed < 2.0


# The canonical star matching of this instance holds one mismatched edge.
MISMATCHED_INSTANCE = SmpInstance.build(
    ["g1", "g2", "g3"], ["b1", "b2", "b3"], {"g3": ["b1"]}, {"b1": ["g1", "g3"]}
)

OPTIMIZED_REPAIR_SCRIPT = textwrap.dedent(
    """
    import sys
    from symmarriage import star
    from symmarriage.cli import main

    assert False, "unreachable when assert statements are stripped"
    real_components = star._components

    def unmatched_listed_girl(instance, boys_left):
        # A core outcome whose pairs leave a listed girl's core free.
        graph, pairs = real_components(instance, boys_left)
        pair_left = dict(pairs)
        del pair_left[graph.listed_girls[0]]
        return graph, pair_left.items()

    star._components = unmatched_listed_girl
    print(main(["solve", sys.argv[1]]))
    """
)


class TestRepairInvariants:
    def test_broken_pairing_raises_under_optimize(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(MISMATCHED_INSTANCE))
        src = str(Path(symmarriage.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_REPAIR_SCRIPT, str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert result.stdout.split() == ["70"], result.stderr
        assert result.stderr == (
            "internal error: pairing does not match every listed member exactly once\n"
        )

    @pytest.mark.parametrize("pair_left", [{0: 0, 1: 0}, {0: 0}], ids=["shared", "free"])
    def test_broken_map_raises(self, two_girls_one_boy, pair_left):
        # Both listed girls holding the one boy, or a listed girl left free:
        # neither pairs every listed member exactly once.
        star = build_star_graph(two_girls_one_boy)
        with pytest.raises(InvariantError, match="exactly once"):
            star_module._pairing(star, pair_left.items(), None)


# Girls g1, g2 and boys b1, b2 all list each other.  In this hand-made pair
# map both girls hold b1's list node, L_g1 holds b1 and L_g2 holds b2.  No
# girl points at b2, so a walk starts there: b2 -> g2 -> b1 -> g1 -> b1 and
# round again, never reaching a wildcard end.
UNCLOSED_CHAIN_SCRIPT = textwrap.dedent(
    """
    import resource
    from symmarriage import InvariantError, SmpInstance, build_star_graph, star

    # A walk with no bound fails on memory instead of exhausting the host.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    lists = {"g1": ["b1", "b2"], "g2": ["b1", "b2"]}
    boy_lists = {"b1": ["g1", "g2"], "b2": ["g1", "g2"]}
    graph = build_star_graph(SmpInstance.build(["g1", "g2"], ["b1", "b2"], lists, boy_lists))
    lb1 = graph.lb_node[0]
    pair_left = {0: lb1, 1: lb1, graph.lg_node[0]: 0, graph.lg_node[1]: 1}
    try:
        star._pairing(graph, pair_left.items(), None)
        print("returned")
    except InvariantError as exc:
        print(exc)
    """
)


class TestChainWalkBound:
    def test_unclosed_walk_raises(self):
        src = str(Path(symmarriage.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", UNCLOSED_CHAIN_SCRIPT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
        assert result.stdout == "pairing walk outgrew the listed boys\n", result.stderr


class TestExtractAssignment:
    def test_i1_direct_edges(self, i1):
        star = build_star_graph(i1)
        m = star_matching(star, [("g1", "b2"), ("g2", "b1")])
        assert extract_assignment(star, m) == Assignment((("g1", "b2"), ("g2", "b1")))

    def test_empty(self):
        inst = SmpInstance.build(["g1"], ["b1"], {}, {})
        star = build_star_graph(inst)
        assert extract_assignment(star, Matching(())) == Assignment(())

    def test_rejects_mismatched_input(self, i3):
        star = build_star_graph(i3)
        m = star_matching(
            star, [("g1", "Lb1"), ("g2", "Lb2"), ("Lg2", "b1"), ("Lg1", "b2")]
        )
        with pytest.raises(ValueError, match="mismatched"):
            extract_assignment(star, m)


class TestSolveViaSubproblems:
    def test_agrees_on_i1(self, i1):
        assert solve_via_subproblems(i1) == solve(i1)

    def test_unsolvable_reports_girls_side(self, two_girls_one_boy):
        result = solve_via_subproblems(two_girls_one_boy)
        assert isinstance(result, Unsolvable) and result.side == "girls"

    def test_i3_solvable_and_valid(self, i3):
        result = solve_via_subproblems(i3)
        assert isinstance(result, Assignment)
        assert assignment_violations(i3, result) == []

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_agreement_with_single_run_solver(self, inst):
        a = solve(inst)
        b = solve_via_subproblems(inst)
        assert isinstance(a, Assignment) == isinstance(b, Assignment)
        if isinstance(a, Assignment):
            assert assignment_violations(inst, a) == []
            assert assignment_violations(inst, b) == []


class TestSolverAgainstOracle:
    @given(smp_instances())
    @settings(deadline=None, max_examples=400)
    def test_solvability_matches_backtracking(self, inst):
        result = solve(inst)
        expected = oracle_solve(inst)
        assert isinstance(result, Assignment) == (expected is not None)
        if isinstance(result, Assignment):
            assert assignment_violations(inst, result) == []
        else:
            assert unsolvable_violator(inst) is not None

    def test_random_repair_metrics(self):
        rng = np.random.default_rng(11)
        exercised = 0
        for _ in range(400):
            inst = random_instance(rng)
            star = build_star_graph(inst)
            m = max_matching(star.graph)
            if len(m) != star.target_size:
                continue
            stats = {}
            repaired = repair_mismatches(star, m, stats)
            assert stats["iterations"] <= stats["initial_mismatches"]
            assert len(repaired.pairs) == star.target_size
            assert find_mismatches(star, repaired).count == 0
            if stats["initial_mismatches"]:
                exercised += 1
        assert exercised > 20

    def test_repair_survives_adversarial_matchings(self):
        # Dense mutual lists plus shuffled tie-breaking produce maximum
        # matchings with long mismatch chains that the canonical matcher
        # rarely emits.
        rng = np.random.default_rng(77)
        exercised = 0
        for _ in range(600):
            inst = dense_mutual_instance(rng)
            star = build_star_graph(inst)
            m = shuffled_max_matching(star, rng)
            if len(m) != star.target_size:
                continue
            stats = {}
            repaired = repair_mismatches(star, m, stats)
            reference_stats = {}
            assert repaired == rescanning_repair(star, m, reference_stats)
            assert stats["initial_mismatches"] == reference_stats["initial_mismatches"]
            assert stats["iterations"] == mismatch_components(star, m)
            assert stats["iterations"] <= stats["initial_mismatches"]
            assert len(repaired.pairs) == star.target_size
            assert find_mismatches(star, repaired).count == 0
            assignment = extract_assignment(star, repaired)
            assert assignment_violations(inst, assignment) == []
            if stats["initial_mismatches"]:
                exercised += 1
        assert exercised > 100

    def test_reference_chain_reaches_every_ending(self):
        # The chain oracle behind rescanning_repair, run from randomly picked
        # mismatched edges, takes both start sides and all three endings.
        rng = np.random.default_rng(78)
        endings = Counter()
        starts = Counter()
        for _ in range(3000):
            inst = dense_mutual_instance(rng, wildcard_rate=0.25)
            star = build_star_graph(inst)
            m = shuffled_max_matching(star, rng)
            if len(m) != star.target_size:
                continue
            n_g, n_b = len(inst.girls), len(inst.boys)
            pair_left = dict(m.pairs)
            pair_right = {v: u for u, v in m.pairs}
            mismatched = star_module._mismatched_edges(star, pair_left)
            while mismatched:
                u, v = mismatched[rng.integers(len(mismatched))]
                if u < n_g:
                    start = (u, star.listed_boys[v - n_b], True)
                else:
                    start = (v, star.listed_girls[u - n_g], False)
                starts[start[2]] += 1
                reference_apply_chain(star, pair_left, pair_right, *start, endings)
                mismatched = star_module._mismatched_edges(star, pair_left)
        assert min(starts[True], starts[False]) > 1000, starts
        assert len(endings) == 3 and min(endings.values()) > 200, endings

    @given(smp_instances(), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=300)
    def test_full_size_matching_covers_every_listed_core(self, inst, seed):
        # Repair checks only size and edges; coverage of the listed cores
        # follows because each star edge touches exactly one listed core.
        star = build_star_graph(inst)
        listed_g, listed_b = set(star.listed_girls), set(star.listed_boys)
        for u, row in enumerate(star.graph.adjacency):
            for v in row:
                assert (u in listed_g) + (v in listed_b) == 1
        m = shuffled_max_matching(star, np.random.default_rng(seed))
        if len(m) == star.target_size:
            assert listed_g <= set(m.left_map) and listed_b <= set(m.right_map)


class TestTriangleFixture:
    def test_odd_mutual_cycle_defeats_repair(self):
        """Three people who all list each other, with no girl/boy split.

        Duplicating each member into a core node and a list node gives a
        graph whose maximum matching covers all three cores (a 3-cycle
        through the list nodes), yet no matching does so mismatch-free:
        a mutual pairing couples members two at a time, which is impossible
        for an odd set.  The repair argument is therefore specific to the
        two-sided setting and is not offered for one-sided ("anyone can
        marry anyone") instances.
        """
        # Core u_i on the left, list node L_{u_j} on the right; an edge
        # (u_i, L_{u_j}) exists iff i != j (everyone lists everyone else).
        rows = tuple(tuple(j for j in range(3) if j != i) for i in range(3))
        graph = BipartiteGraph(3, 3, rows)
        assert len(max_matching(graph)) == 3
        all_edges = [(i, j) for i in range(3) for j in rows[i]]
        mismatch_free_full = []
        for triple in combinations(all_edges, 3):
            lefts = {u for u, _ in triple}
            rights = {v for _, v in triple}
            if len(lefts) != 3 or len(rights) != 3:
                continue
            # Mutual means u holds L_v exactly when v holds L_u.
            pairing = dict(triple)
            if all(pairing[pairing[u]] == u for u in pairing):
                mismatch_free_full.append(triple)
        assert mismatch_free_full == []


GOLDEN_SEED = 20261017
GOLDEN_CORPUS_SIZE = 300
# sha256 of the concatenated `solve --method M` result documents over the
# golden corpus; any change to a route's output bytes changes its digest.
GOLDEN_DIGESTS = {
    "star": "68d8ba33328dc1960e1ca7dcd268a0c4f3f51e758ed3c05f03a38095847fa271",
    "subproblems": "c25986ff7f217d3e62d8094d5267f543fd56333ef2fcd16219a4ba5f69cb14e4",
    "weight": "a64b723a9f4401e4e867c2e178d91297f603bdaaa50d47815c99fc7fb664f3cf",
}


class TestGoldenOutput:
    def test_result_bytes_pinned(self, tmp_path):
        rng = np.random.default_rng(GOLDEN_SEED)
        paths = []
        for k in range(GOLDEN_CORPUS_SIZE):
            path = tmp_path / f"i{k}.json"
            path.write_text(serialize_instance(random_instance(rng)))
            paths.append(str(path))
        out = tmp_path / "result.json"
        docs = {}
        for method in GOLDEN_DIGESTS:
            docs[method] = []
            for path in paths:
                main(["solve", path, "--method", method, "--output", str(out)])
                docs[method].append(out.read_bytes())
        # The corpus must keep exercising every outcome the digests pin.
        star_docs = docs["star"]
        assert sum(b'"solved"' in d for d in star_docs) >= 100
        assert sum(b'"side": "girls"' in d for d in star_docs) >= 30
        assert sum(b'"side": "boys"' in d for d in star_docs) >= 30
        assert sum(a != b for a, b in zip(star_docs, docs["subproblems"])) >= 5
        digests = {m: hashlib.sha256(b"".join(d)).hexdigest() for m, d in docs.items()}
        assert digests == GOLDEN_DIGESTS

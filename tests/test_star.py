"""Star graph construction, mismatch repair, and the solver itself."""

import hashlib
import os
import subprocess
import sys
import textwrap
import time
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import symmarriage
from symmarriage import (
    Assignment,
    BipartiteGraph,
    HallViolator,
    Matching,
    SmpInstance,
    Unsolvable,
    assignment_violations,
    build_star_graph,
    cmp_to_smp,
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
from symmarriage.cli import main
from symmarriage.fileio import serialize_instance
from symmarriage.instances import pared_index_lists

from .conftest import random_instance, smp_instances
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
            (SmpInstance.build(["g1"], ["b1", "b2"], {}, {"b1": ["g1"], "b2": ["g1"]}), "boys", 2),
        ],
    )
    def test_matcher_runs(self, monkeypatch, inst, side, calls):
        graphs = []

        def counting(graph):
            graphs.append(graph)
            return max_matching(graph)

        monkeypatch.setattr(star_module, "max_matching", counting)
        outcome = solve(inst)
        assert isinstance(outcome, Unsolvable) and outcome.side == side
        assert len(graphs) == calls


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
    """Reference repair: after every chain, rescan the whole matching for the
    smallest mismatched edge.  The production worklist must reproduce its
    matching and counts exactly."""
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
            star_module._apply_chain(
                star, pair_left, pair_right, u, star.listed_boys[v - n_b], True
            )
        else:
            star_module._apply_chain(
                star, pair_left, pair_right, v, star.listed_girls[u - n_g], False
            )
        remaining = mismatched_edges()
        assert len(remaining) < len(mismatched)
        mismatched = remaining
    return Matching(tuple(sorted(pair_left.items())))


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
    from symmarriage import InvariantError, build_star_graph, max_matching, star
    from symmarriage.cli import main
    from symmarriage.fileio import parse_instance
    from symmarriage.instances import preprocess_refusals

    assert False, "unreachable when assert statements are stripped"
    # A chain swap that rewires nothing and reports no vertex changed.
    star._apply_chain = lambda *args: set()
    with open(sys.argv[1], encoding="utf-8") as handle:
        inst = preprocess_refusals(parse_instance(handle.read()))
    graph = build_star_graph(inst)
    try:
        star.repair_mismatches(graph, max_matching(graph.graph))
        print("accepted")
    except InvariantError:
        print("InvariantError")
    print(main(["solve", sys.argv[1]]))
    """
)


class TestRepairInvariants:
    def test_stalled_chain_raises_under_optimize(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(MISMATCHED_INSTANCE))
        star = build_star_graph(MISMATCHED_INSTANCE)
        assert find_mismatches(star, max_matching(star.graph)).count == 1
        src = str(Path(symmarriage.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_REPAIR_SCRIPT, str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert result.stdout.split() == ["InvariantError", "70"], result.stderr
        assert result.stderr == (
            "internal error: chain swap did not reduce the mismatch count\n"
        )


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
            n = int(rng.integers(2, 8))
            girls = tuple(f"g{i}" for i in range(n))
            boys = tuple(f"b{j}" for j in range(n))
            girl_lists = {}
            boy_lists = {}
            for g in girls:
                k = int(rng.integers(max(1, n - 2), n + 1))
                girl_lists[g] = tuple(
                    boys[j] for j in sorted(rng.choice(n, size=k, replace=False))
                )
            for b in boys:
                k = int(rng.integers(max(1, n - 2), n + 1))
                boy_lists[b] = tuple(
                    girls[i] for i in sorted(rng.choice(n, size=k, replace=False))
                )
            inst = SmpInstance.build(girls, boys, girl_lists, boy_lists)
            star = build_star_graph(inst)
            rows = []
            for row in star.graph.adjacency:
                row = list(row)
                rng.shuffle(row)
                rows.append(tuple(row))
            shuffled = BipartiteGraph(
                star.graph.left_count, star.graph.right_count, tuple(rows)
            )
            m = max_matching(shuffled)
            if len(m) != star.target_size:
                continue
            stats = {}
            repaired = repair_mismatches(star, m, stats)
            reference_stats = {}
            assert repaired == rescanning_repair(star, m, reference_stats)
            assert stats == reference_stats
            assert stats["iterations"] <= stats["initial_mismatches"]
            assert len(repaired.pairs) == star.target_size
            assert find_mismatches(star, repaired).count == 0
            assignment = extract_assignment(star, repaired)
            assert assignment_violations(inst, assignment) == []
            if stats["initial_mismatches"]:
                exercised += 1
        assert exercised > 100


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

"""Weight matrix construction and the assignment-based decision route."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symmarriage
from symmarriage import (
    Assignment,
    SizeLimitError,
    SmpInstance,
    WeightedBipartiteGraph,
    assignment_violations,
    build_weighted,
    hungarian_max_weight,
    solvable_via_weight,
    solve,
    weighted_assignment,
)
from symmarriage.fileio import serialize_instance
from symmarriage.weighted import WEIGHT_GUARD

from .conftest import brute_max_weight, random_instance, smp_instances


class TestBuildWeighted:
    def test_i1(self, i1):
        graph = build_weighted(i1)
        assert graph.weights == ((0, 1), (1, 0))

    def test_i3_all_mutual(self, i3):
        graph = build_weighted(i3)
        assert graph.weights == ((2, 2), (2, 2))

    def test_all_wildcards(self):
        inst = SmpInstance.build(["g1", "g2"], ["b1"], {}, {})
        graph = build_weighted(inst)
        assert graph.size == 2
        assert graph.weights == ((0, 0), (0, 0))

    def test_padding_stays_zero(self):
        inst = SmpInstance.build(["g1"], ["b1", "b2", "b3"], {"g1": ["b2"]}, {})
        graph = build_weighted(inst)
        assert graph.size == 3
        assert graph.weights[1] == (0, 0, 0) and graph.weights[2] == (0, 0, 0)

    @given(smp_instances())
    @settings(deadline=None)
    def test_entries_in_range(self, inst):
        graph = build_weighted(inst)
        assert all(w in (0, 1, 2) for row in graph.weights for w in row)


    def test_size_guard_boundary(self):
        girls = [f"g{i}" for i in range(WEIGHT_GUARD)]
        at_limit = SmpInstance.build(girls, ["b1"], {}, {})
        assert build_weighted(at_limit).size == WEIGHT_GUARD
        over = SmpInstance.build(girls + ["gx"], ["b1"], {}, {})
        with pytest.raises(SizeLimitError, match=f"limit {WEIGHT_GUARD}"):
            build_weighted(over)


class TestHungarian:
    def test_zero_matrix(self):
        graph = WeightedBipartiteGraph(2, ((0, 0), (0, 0)))
        total, pairs = hungarian_max_weight(graph)
        assert total == 0 and len(pairs) == 2

    def test_i1_weight(self, i1):
        total, _ = hungarian_max_weight(build_weighted(i1))
        assert total == 2

    def test_i3_weight(self, i3):
        total, _ = hungarian_max_weight(build_weighted(i3))
        assert total == 4

    def test_empty(self):
        assert hungarian_max_weight(WeightedBipartiteGraph(0, ())) == (0, ())

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(deadline=None, max_examples=300)
    def test_matches_permutation_search(self, rows):
        weights = tuple(tuple(r) for r in rows)
        graph = WeightedBipartiteGraph(len(rows), weights)
        total, pairs = hungarian_max_weight(graph)
        assert total == brute_max_weight(weights)
        assert sorted(i for i, _ in pairs) == list(range(len(rows)))
        assert sorted(j for _, j in pairs) == list(range(len(rows)))
        assert total == sum(weights[i][j] for i, j in pairs)

    def test_deterministic(self, i3):
        graph = build_weighted(i3)
        assert hungarian_max_weight(graph) == hungarian_max_weight(graph)


class TestSolvableViaWeight:
    def test_i1(self, i1):
        assert solvable_via_weight(i1)

    def test_two_girls_one_boy(self, two_girls_one_boy):
        assert not solvable_via_weight(two_girls_one_boy)
        total, _ = hungarian_max_weight(build_weighted(two_girls_one_boy))
        assert total == 1

    def test_all_wildcards(self):
        assert solvable_via_weight(SmpInstance.build(["g1"], ["b1"], {}, {}))

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_weight_bound_and_agreement_with_solver(self, inst):
        total, _ = hungarian_max_weight(build_weighted(inst))
        target = len([g for g in inst.girls if inst.girl_lists[g]]) + len(
            [b for b in inst.boys if inst.boy_lists[b]]
        )
        assert total <= target
        assert solvable_via_weight(inst) == isinstance(solve(inst), Assignment)


class TestWeightedAssignment:
    def test_unsolvable_gives_none(self, two_girls_one_boy):
        assert weighted_assignment(two_girls_one_boy) is None

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_threshold_assignment_is_valid(self, inst):
        result = weighted_assignment(inst)
        if result is not None:
            assert assignment_violations(inst, result) == []

    def test_random_instances_valid(self):
        rng = np.random.default_rng(23)
        solved = 0
        for _ in range(300):
            inst = random_instance(rng)
            result = weighted_assignment(inst)
            if result is not None:
                solved += 1
                assert assignment_violations(inst, result) == []
        assert solved > 50


OPTIMIZED_SCRIPT = textwrap.dedent(
    """
    import sys
    from symmarriage import InvariantError, SmpInstance, weighted
    from symmarriage.cli import main

    assert False, "unreachable when assert statements are stripped"
    # The listed-member bound of the instance below is 1.
    weighted.hungarian_max_weight = lambda graph: (3, ())
    inst = SmpInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {})
    routes = (
        lambda: weighted.solvable_via_weight(inst),
        lambda: weighted.weighted_assignment(inst),
    )
    for route in routes:
        try:
            route()
            print("accepted")
        except InvariantError:
            print("InvariantError")
    print(main(["solve", sys.argv[1], "--method", "weight"]))
    """
)


class TestInvariantChecks:
    def test_bound_check_survives_optimize(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(SmpInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {})))
        src = str(Path(symmarriage.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", OPTIMIZED_SCRIPT, str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["InvariantError", "InvariantError", "70"]
        assert result.stderr == (
            "internal error: matching weight 3 exceeds the listed-member bound 1\n"
        )

    def test_invariant_error_is_an_assertion_error(self):
        assert issubclass(symmarriage.InvariantError, AssertionError)

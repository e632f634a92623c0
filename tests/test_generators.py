"""Seeded generators: structure checks, determinism, guaranteed solvability."""

import time

import pytest

from symmarriage import (
    Assignment,
    Unsolvable,
    build_weighted,
    cmp_to_smp,
    gen_assignment,
    gen_chessboard,
    gen_rooks,
    gen_tournament,
    hall_bicriteria,
    hall_condition_cmp,
    solve,
    validate,
)


class TestTournament:
    def test_n1_single_session(self):
        cmp = gen_tournament(1, seed=0)
        assert cmp.left == ("s1",)
        assert cmp.right == ("t1", "t2")
        assert len(cmp.lists["s1"]) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_each_session_has_n_winners(self, n):
        for seed in (0, 1, 17):
            cmp = gen_tournament(n, seed)
            assert len(cmp.left) == 2 * n - 1
            assert len(cmp.right) == 2 * n
            for winners in cmp.lists.values():
                assert len(winners) == n
                assert len(set(winners)) == n

    def test_distinct_session_winners_exist(self):
        cmp = gen_tournament(2, seed=42)
        assert hall_condition_cmp(cmp) is None
        result = solve(cmp_to_smp(cmp))
        assert isinstance(result, Assignment)
        assert len(result.pairs) >= 3

    def test_deterministic(self):
        assert gen_tournament(3, 99) == gen_tournament(3, 99)
        assert gen_tournament(3, 99) != gen_tournament(3, 100)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gen_tournament(0, 0)


class TestRooks:
    def test_n1_is_permutation_matrix(self):
        cmp = gen_rooks(1, seed=0)
        assert len(cmp.left) == 2 and len(cmp.right) == 2
        for row in cmp.lists.values():
            assert len(row) == 1
        result = solve(cmp_to_smp(cmp))
        assert isinstance(result, Assignment)
        assert len(result.pairs) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_counts(self, n):
        for seed in (0, 5):
            cmp = gen_rooks(n, seed)
            col_counts = {c: 0 for c in cmp.right}
            for row in cmp.lists.values():
                assert len(row) == n
                for c in row:
                    col_counts[c] += 1
            assert all(count == n for count in col_counts.values())

    def test_non_attacking_selection_covers_rows(self):
        cmp = gen_rooks(2, seed=8)
        result = solve(cmp_to_smp(cmp))
        assert isinstance(result, Assignment)
        assert len(result.pairs) == 4
        columns = [b for _, b in result.pairs]
        assert len(set(columns)) == 4

    def test_deterministic(self):
        assert gen_rooks(2, 7) == gen_rooks(2, 7)


class TestChessboard:
    @pytest.mark.parametrize("n", [1, 2])
    def test_constraints_and_solvability(self, n):
        for seed in (0, 1, 2):
            inst, sums = gen_chessboard(n, seed)
            assert validate(inst) == []
            size = 4 * n
            assert len(inst.girls) == size and len(inst.boys) == size
            listed_g = [g for g in inst.girls if inst.girl_lists[g]]
            listed_b = [b for b in inst.boys if inst.boy_lists[b]]
            assert len(listed_g) >= 3 * n and len(listed_b) >= 3 * n
            for g in listed_g:
                assert len(inst.girl_lists[g]) >= 3 * n
            assert hall_bicriteria(inst) is None
            assert isinstance(solve(inst), Assignment)

    def test_solution_cells_have_positive_sums(self):
        inst, sums = gen_chessboard(1, seed=3)
        result = solve(inst)
        assert isinstance(result, Assignment)
        gi = {g: i for i, g in enumerate(inst.girls)}
        bi = {b: j for j, b in enumerate(inst.boys)}
        for g, b in result.pairs:
            assert sums[gi[g]][bi[b]] in (1, 2)

    def test_weights_agree_with_cell_sums(self):
        inst, sums = gen_chessboard(1, seed=1)
        graph = build_weighted(inst)
        for i in range(4):
            for j in range(4):
                expected = sums[i][j] if sums[i][j] > 0 else 0
                assert graph.weights[i][j] == expected

    def test_deterministic(self):
        assert gen_chessboard(1, 11) == gen_chessboard(1, 11)


class TestAssignment:
    def test_no_constraints_trivially_solvable(self):
        inst = gen_assignment(["w1", "w2"], ["t1", "t2"], [], [], seed=0)
        assert inst.girl_lists == {"w1": (), "w2": ()}
        assert inst.boy_lists == {"t1": (), "t2": ()}
        assert isinstance(solve(inst), Assignment)

    def test_forced_pairing(self):
        inst = gen_assignment(
            ["w1"], ["t1"], mandatory_tasks=["t1"], paid_workers=["w1"],
            capability=[("w1", "t1")],
        )
        assert solve(inst) == Assignment((("w1", "t1"),))

    def test_shared_task_pigeonhole(self):
        inst = gen_assignment(
            ["w1", "w2"], ["t1"], mandatory_tasks=[], paid_workers=["w1", "w2"],
            capability=[("w1", "t1"), ("w2", "t1")],
        )
        result = solve(inst)
        assert isinstance(result, Unsolvable)
        assert result.side == "girls"
        assert len(result.violator.members) == 2

    def test_random_relation_keeps_hard_requirements_listed(self):
        for seed in range(10):
            inst = gen_assignment(
                [f"w{i}" for i in range(5)],
                [f"t{j}" for j in range(5)],
                mandatory_tasks=["t0", "t1"],
                paid_workers=["w0"],
                seed=seed,
                density=0.05,
            )
            assert inst.girl_lists["w0"]
            assert inst.boy_lists["t0"] and inst.boy_lists["t1"]
            assert validate(inst) == []

    def test_capability_violation_raises(self):
        with pytest.raises(ValueError, match="no capable task"):
            gen_assignment(["w1"], ["t1"], [], ["w1"], capability=[])

    def test_full_capability_is_quadratic(self):
        # Rebuilding the member sets for every capability pair made a full
        # 400 x 400 relation take 3.3 s; 600 x 600 is checked in one pass.
        workers = [f"w{i}" for i in range(600)]
        tasks = [f"t{j}" for j in range(600)]
        capability = [(w, t) for w in workers for t in tasks]
        start = time.perf_counter()
        inst = gen_assignment(workers, tasks, tasks[:300], workers[:300], capability=capability)
        elapsed = time.perf_counter() - start
        assert inst.girl_lists["w0"] == tuple(tasks) and inst.girl_lists["w599"] == ()
        assert inst.boy_lists["t0"] == tuple(workers) and inst.boy_lists["t599"] == ()
        assert elapsed < 3.0

    def test_deterministic(self):
        args = (["w1", "w2"], ["t1", "t2"], ["t1"], ["w1"])
        assert gen_assignment(*args, seed=5) == gen_assignment(*args, seed=5)

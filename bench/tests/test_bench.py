"""Small-size tests of the benchmark itself: generators, self-checks, parity.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from symmarriage.cli import main as cli_main  # noqa: E402

SMALL = {"reciprocal-repair": 400, "planted-unsolvable": 1000}


def small(workload: str, seed: int) -> workloads.Generated:
    return workloads.generate(workload, seed, SMALL[workload])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first = small(workload, 7).document()
    assert small(workload, 7).document() == first
    assert small(workload, 8).document() != first


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_instances_pass_self_check(workload, seed):
    workloads.self_check(small(workload, seed))


def test_planted_unsolvable_shape():
    inst = small("planted-unsolvable", 3)
    shape = inst.shape()
    assert (shape["plant_boys"], shape["plant_girls"]) == (201, 200)
    assert shape["refusers"] == 20
    assert inst.expected_exit == 1


def test_self_check_rejects_missing_planted_partner():
    inst = small("reciprocal-repair", 0)
    girl, partner = next(iter(inst.partner_of_girl.items()))
    lists = dict(inst.girl_lists)
    lists[girl] = [b for b in lists[girl] if b != partner]
    with pytest.raises(workloads.SelfCheckError, match="planted partner"):
        workloads.self_check(dataclasses.replace(inst, girl_lists=lists))


def test_self_check_rejects_refusals_that_empty_a_list():
    inst = small("planted-unsolvable", 0)
    refused = set(inst.refusers)
    girl = next(g for g in inst.girl_lists if f"g{g}" not in refused)
    boy = next(b for b in inst.boy_lists if b not in inst.plant_boys and f"b{b}" not in refused)
    broken = dataclasses.replace(
        inst,
        girl_lists={**inst.girl_lists, girl: [boy]},
        refusers=inst.refusers + (f"b{boy}",),
    )
    with pytest.raises(workloads.SelfCheckError, match="refusals empty"):
        workloads.self_check(broken)


def test_self_check_rejects_a_leaky_plant():
    inst = small("planted-unsolvable", 0)
    lists = dict(inst.boy_lists)
    outside = next(g for g in range(inst.n) if g not in inst.plant_girls)
    boy = inst.plant_boys[0]
    lists[boy] = sorted(set(lists[boy]) | {outside})
    with pytest.raises(workloads.SelfCheckError, match="outside the plant"):
        workloads.self_check(dataclasses.replace(inst, boy_lists=lists))


def test_self_check_rejects_repair_workload_without_mismatches():
    inst = small("reciprocal-repair", 0)
    assert workloads.initial_mismatches(inst) > 0
    only_partners = dataclasses.replace(
        inst,
        girl_lists={g: [p] for g, p in inst.partner_of_girl.items()},
        boy_lists={b: [p] for b, p in inst.partner_of_boy.items()},
    )
    with pytest.raises(workloads.SelfCheckError, match="no mismatched edge"):
        workloads.self_check(only_partners)


def _write(tmp_path: Path, workload: str) -> tuple[str, workloads.Generated]:
    inst = small(workload, 5)
    path = tmp_path / "instance.json"
    path.write_text(inst.document(), encoding="utf-8")
    return str(path), inst


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pipeline_matches_cli(tmp_path, workload):
    instance, inst = _write(tmp_path, workload)
    code = cli_main(["solve", instance, "--output", str(tmp_path / "cli.json")])
    assert code == inst.expected_exit
    tracer = spans.Tracer()
    counts = spans.traced_solve(tracer, "solve-0", instance, str(tmp_path / "traced.json"))
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "cli.json").read_bytes()
    assert spans.traced_verify(tracer, "verify-0", instance, str(tmp_path / "traced.json")) == []
    (root,) = tracer.roots("solve")
    assert tracer.coverage(root) >= run.MIN_COVERAGE
    assert counts["bipartite.matched"] == counts["star.target"] - inst.expected_exit
    layers = spans.layer_medians(tracer)
    assert set(layers) == {f"{n}_s" for n in spans.SOLVE_LAYERS + spans.VERIFY_LAYERS}
    taken = "star.certificate_s" if inst.expected_exit else "star.repair_s"
    assert layers[taken] > 0


def test_parity_miss_counts_as_failed_operation(tmp_path):
    _, inst = _write(tmp_path, "reciprocal-repair")
    op = run.Run(inst.expected_exit, tmp_path)
    op.reference = "0" * 64
    op.traced_operation(spans.Tracer(), 0, [])
    assert op.failed == 1 and "no longer measures" in op.problems[0]


def test_wrong_exit_code_counts_as_failed_operation(tmp_path):
    _, inst = _write(tmp_path, "planted-unsolvable")
    op = run.Run(0, tmp_path)
    op.cli_operation(cli_main)
    assert (op.attempted, op.failed, op.solve_s) == (1, 1, [])
    assert "expected 0" in op.problems[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_result_line(tmp_path, monkeypatch, capsys, trace):
    full_size = workloads.generate
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "generate", lambda w, s: full_size(w, s, SMALL[w]))
    code = run.main(
        ["--workload", "planted-unsolvable", "--seed", "4", "--seconds", "0", "--trace", str(trace)]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    expected = spans.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    out_dir = tmp_path / "planted-unsolvable-seed4"
    report = json.loads((out_dir / "report.json").read_text())
    assert report["environment"]["seed"] == 4 and len(report["instance"]["sha256"]) == 64
    assert not (out_dir / "instance.json").exists()


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reciprocal-repair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

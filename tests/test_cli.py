"""Command-line interface: formats, exit codes, round trips, agreement."""

import errno
import gc
import json
import operator
import os
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symmarriage
from symmarriage import (
    HallViolator,
    Infeasible,
    InvariantError,
    RawInstance,
    RetryExhaustedError,
    SmpInstance,
    Unsolvable,
    pare_lists,
    preprocess_refusals,
    solve,
    validate_raw,
)
from symmarriage import cli, fileio, instances
from symmarriage.cli import main
from symmarriage.instances import IndexView
from symmarriage.weighted import WEIGHT_GUARD
from symmarriage.fileio import (
    ParseError,
    ResultDoc,
    parse_instance,
    parse_result,
    serialize_instance,
    serialize_result,
)

from .conftest import I1, bench_document, smp_instances


I1_DOC = {
    "version": 1,
    "girls": ["g1", "g2"],
    "boys": ["b1", "b2"],
    "girl_lists": {"g1": ["b1", "b2"]},
    "boy_lists": {"b1": ["g2"]},
}


@pytest.fixture
def i1_file(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(I1_DOC))
    return str(path)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestInstanceFormat:
    def test_parse_wildcards_by_omission(self, i1_file):
        raw = parse_instance(Path(i1_file).read_text())
        assert raw.girl_lists == {"g1": ("b1", "b2"), "g2": ()}
        assert raw.refusers == ()
        assert validate_raw(raw) == []

    def test_roundtrip_equality(self):
        text = serialize_instance(I1)
        raw = parse_instance(text)
        again = SmpInstance(raw.girls, raw.boys, raw.girl_lists, raw.boy_lists)
        assert again == I1
        assert serialize_instance(again) == text

    def test_empty_array_rejected(self):
        doc = dict(I1_DOC, girl_lists={"g1": []})
        with pytest.raises(ParseError, match="empty list"):
            parse_instance(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = dict(I1_DOC, refuser=["g1"])
        with pytest.raises(ParseError, match="unknown keys"):
            parse_instance(json.dumps(doc))

    def test_bad_version_rejected(self):
        doc = dict(I1_DOC, version=2)
        with pytest.raises(ParseError, match="version"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("version", [1.0, "1", True])
    def test_version_must_be_the_integer_one(self, version, tmp_path, capsys):
        path = write_doc(tmp_path, "v.json", dict(I1_DOC, version=version))
        assert main(["solve", path]) == 65
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unsupported version {version!r} (expected 1)\n"

    def test_duplicate_json_key_rejected(self):
        text = '{"version": 1, "version": 1, "girls": [], "boys": [], "girl_lists": {}, "boy_lists": {}}'
        with pytest.raises(ParseError, match="duplicate key"):
            parse_instance(text)

    def test_missing_field_rejected(self):
        doc = {k: v for k, v in I1_DOC.items() if k != "boys"}
        with pytest.raises(ParseError, match="missing key 'boys'"):
            parse_instance(json.dumps(doc))

    def test_refusers_parsed(self):
        doc = dict(I1_DOC, refusers=["b1"])
        raw = parse_instance(json.dumps(doc))
        assert raw.refusers == ("b1",)

    def test_utf8_identifiers_roundtrip(self):
        inst = SmpInstance.build(["Åsa"], ["Bjørn"], {"Åsa": ["Bjørn"]}, {})
        raw = parse_instance(serialize_instance(inst))
        assert raw.girls == ("Åsa",) and raw.boys == ("Bjørn",)


# Names for the solved-document oracle: quotes, backslashes, percent signs,
# control characters and non-ASCII text, mixed with plain letters.
NAME_CHARS = st.one_of(
    st.sampled_from('"\\%/\n\t\x00\x1f\x7f\u2028éÅ\u00a0'),
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(blacklist_categories=("Cs",)),
)


class TestResultFormat:
    def test_solved_roundtrip(self):
        doc = ResultDoc("solved", assignment=(("g1", "b2"),))
        assert parse_result(serialize_result(doc)) == doc

    def test_unsolvable_roundtrip(self):
        from symmarriage import HallViolator

        doc = ResultDoc("unsolvable", violator=HallViolator("girls", ("g1", "g2"), 1))
        assert parse_result(serialize_result(doc)) == doc

    def test_infeasible_roundtrip(self):
        doc = ResultDoc("infeasible", infeasible_member="g1")
        assert parse_result(serialize_result(doc)) == doc

    @given(
        st.lists(
            st.tuples(st.text(alphabet=NAME_CHARS), st.text(alphabet=NAME_CHARS)), max_size=8
        )
    )
    @settings(deadline=None, max_examples=300)
    def test_solved_bytes_match_indenting_encoder(self, pairs):
        doc = {"status": "solved", "assignment": [[g, b] for g, b in pairs]}
        expected = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
        assert serialize_result(ResultDoc("solved", assignment=tuple(pairs))) == expected

    def test_empty_assignment_bytes(self):
        expected = '{\n  "status": "solved",\n  "assignment": []\n}\n'
        assert serialize_result(ResultDoc("solved", assignment=())) == expected

    def test_mixed_payload_rejected(self):
        text = json.dumps({"status": "solved", "assignment": [], "infeasible_member": "x"})
        with pytest.raises(ParseError, match="exactly"):
            parse_result(text)

    def test_bad_status_rejected(self):
        with pytest.raises(ParseError, match="status"):
            parse_result(json.dumps({"status": "maybe"}))


class TestSolveCommand:
    def test_solved(self, i1_file, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        assert main(["solve", i1_file, "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc == {"status": "solved", "assignment": [["g1", "b2"], ["g2", "b1"]]}

    def test_unsolvable(self, tmp_path):
        path = write_doc(
            tmp_path,
            "u.json",
            {
                "version": 1,
                "girls": ["g1", "g2"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b1"], "g2": ["b1"]},
                "boy_lists": {},
            },
        )
        out = str(tmp_path / "r.json")
        assert main(["solve", path, "--output", out]) == 1
        doc = json.loads(Path(out).read_text())
        assert doc["status"] == "unsolvable"
        assert doc["violator"] == {"side": "girls", "members": ["g1", "g2"], "union_size": 1}

    def test_infeasible(self, tmp_path):
        path = write_doc(
            tmp_path,
            "inf.json",
            {
                "version": 1,
                "girls": ["g1"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b1"]},
                "boy_lists": {},
                "refusers": ["b1"],
            },
        )
        out = str(tmp_path / "r.json")
        assert main(["solve", path, "--output", out]) == 2
        assert json.loads(Path(out).read_text()) == {
            "status": "infeasible",
            "infeasible_member": "g1",
        }

    def test_methods_agree(self, i1_file, tmp_path):
        outputs = []
        for method in ("star", "subproblems", "weight"):
            out = str(tmp_path / f"{method}.json")
            assert main(["solve", i1_file, "--method", method, "--output", out]) == 0
            outputs.append(json.loads(Path(out).read_text())["status"])
        assert outputs == ["solved"] * 3

    def test_usage_error(self):
        assert main(["solve"]) == 64
        assert main(["solve", "x", "--method", "nope"]) == 64

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "none.json")]) == 65

    def test_invalid_instance(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "bad.json",
            {
                "version": 1,
                "girls": ["g1"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b9"]},
                "boy_lists": {},
            },
        )
        assert main(["solve", path]) == 65
        assert "unknown boy 'b9'" in capsys.readouterr().err

    def test_weight_size_guard(self, tmp_path, capsys):
        # One member over the guard: refused before the dense weight tables
        # (WEIGHT_GUARD^2 entries each) are allocated.
        girls = [f"g{i}" for i in range(WEIGHT_GUARD + 1)]
        doc = {
            "version": 1,
            "girls": girls,
            "boys": ["b1"],
            "girl_lists": {g: ["b1"] for g in girls},
            "boy_lists": {},
        }
        path = write_doc(tmp_path, "big.json", doc)
        out = tmp_path / "result.json"
        tracemalloc.start()
        try:
            code = main(["solve", path, "--method", "weight", "--output", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"size limit: larger side has {WEIGHT_GUARD + 1} members (limit {WEIGHT_GUARD})\n"
        assert peak < 8 * WEIGHT_GUARD**2

    def test_stdout_default(self, i1_file, capsys):
        assert main(["solve", i1_file]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "solved"


class TestCheckCommand:
    def test_ok(self, i1_file, capsys):
        assert main(["check", i1_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violator(self, tmp_path, capsys):
        path = write_doc(
            tmp_path,
            "u.json",
            {
                "version": 1,
                "girls": ["g1", "g2"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b1"], "g2": ["b1"]},
                "boy_lists": {},
            },
        )
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "violator" in out and "union_size=1" in out

    def test_size_guard(self, tmp_path, capsys):
        girls = [f"g{i}" for i in range(25)]
        path = write_doc(
            tmp_path,
            "big.json",
            {
                "version": 1,
                "girls": girls,
                "boys": ["b1"],
                "girl_lists": {g: ["b1"] for g in girls},
                "boy_lists": {},
            },
        )
        assert main(["check", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "size limit: 25 listed girls / 0 listed boys (limit 20)\n"


class TestGenCommand:
    def test_tournament_structure(self, tmp_path):
        out = str(tmp_path / "t.json")
        assert main(["gen", "tournament", "--n", "2", "--seed", "7", "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert len(doc["girls"]) == 3 and len(doc["boys"]) == 4
        assert len(doc["girl_lists"]) == 3 and doc["boy_lists"] == {}

    def test_rooks_permutation_instance(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["gen", "rooks", "--n", "1", "--seed", "0", "--output", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert len(doc["girls"]) == 2
        assert all(len(v) == 1 for v in doc["girl_lists"].values())

    def test_chessboard_passes_check(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert main(["gen", "chessboard", "--n", "1", "--seed", "1", "--output", out]) == 0
        assert main(["check", out]) == 0

    def test_assignment_kind(self, tmp_path):
        out = str(tmp_path / "a.json")
        args = [
            "gen", "assignment", "--workers", "4", "--tasks", "3",
            "--paid", "2", "--mandatory", "1", "--seed", "3", "--output", out,
        ]
        assert main(args) == 0
        raw = parse_instance(Path(out).read_text())
        assert validate_raw(raw) == []

    def test_usage_errors(self):
        assert main(["gen", "tournament", "--n", "0"]) == 64
        assert main(["gen", "nope"]) == 64
        assert main(["gen", "assignment", "--paid", "9", "--workers", "2"]) == 64
        assert main(["gen", "assignment", "--density", "1.5"]) == 64

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["assignment", "--workers", "1", "--tasks", "0", "--paid", "1", "--mandatory", "0"],
                "--paid needs --tasks >= 1",
            ),
            (
                ["assignment", "--workers", "0", "--tasks", "1", "--paid", "0", "--mandatory", "1"],
                "--mandatory needs --workers >= 1",
            ),
            (["tournament", "--n", "1", "--seed", "-1"], "--seed must be >= 0"),
            (["rooks", "--n", "2", "--seed", "-5"], "--seed must be >= 0"),
            (["chessboard", "--seed", "-1"], "--seed must be >= 0"),
            (["assignment", "--seed", "-2"], "--seed must be >= 0"),
            (
                ["tournament", "--n", "1", "--density", "5", "--workers", "-2"],
                "--workers applies to gen assignment only",
            ),
            (
                ["rooks", "--n", "1", "--paid", "-3", "--mandatory", "99"],
                "--paid applies to gen assignment only",
            ),
            (["chessboard", "--density", "0.5"], "--density applies to gen assignment only"),
        ],
    )
    def test_arguments_no_instance_can_honour(self, argv, message, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["gen", *argv, "--output", str(out)]) == 64
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not out.exists()

    def test_retry_exhaustion_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(n, seed):
            raise RetryExhaustedError("could not balance the -1 entries within the retry budget")

        monkeypatch.setattr(cli, "gen_chessboard", exhausted)
        out = tmp_path / "c.json"
        assert main(["gen", "chessboard", "--output", str(out)]) == 70
        assert capsys.readouterr() == (
            "",
            "internal error: could not balance the -1 entries within the retry budget\n",
        )
        assert not out.exists()

    def test_generated_files_solve_and_verify(self, tmp_path):
        for kind, n in (("tournament", 2), ("rooks", 2), ("chessboard", 1), ("assignment", 3)):
            inst = str(tmp_path / f"{kind}.json")
            assert main(["gen", kind, "--n", str(n), "--seed", "5", "--output", inst]) == 0
            for method in ("star", "subproblems", "weight"):
                res = str(tmp_path / f"{kind}-{method}.json")
                code = main(["solve", inst, "--method", method, "--output", res])
                assert code in (0, 1)
                assert main(["verify", inst, res]) == 0


class TestVerifyCommand:
    def test_accepts_solver_output(self, i1_file, tmp_path):
        res = str(tmp_path / "r.json")
        main(["solve", i1_file, "--output", res])
        assert main(["verify", i1_file, res]) == 0

    def test_rejects_off_list_pair(self, i1_file, tmp_path, capsys):
        res = write_doc(
            tmp_path,
            "r.json",
            {"status": "solved", "assignment": [["g1", "b1"], ["g2", "b2"]]},
        )
        assert main(["verify", i1_file, res]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_rejects_fake_violator(self, i1_file, tmp_path):
        res = write_doc(
            tmp_path,
            "r.json",
            {
                "status": "unsolvable",
                "violator": {"side": "girls", "members": ["g1"], "union_size": 1},
            },
        )
        assert main(["verify", i1_file, res]) == 1

    def test_rejects_wrong_union_size(self, tmp_path):
        inst = write_doc(
            tmp_path,
            "u.json",
            {
                "version": 1,
                "girls": ["g1", "g2"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b1"], "g2": ["b1"]},
                "boy_lists": {},
            },
        )
        res = write_doc(
            tmp_path,
            "r.json",
            {
                "status": "unsolvable",
                "violator": {"side": "girls", "members": ["g1", "g2"], "union_size": 0},
            },
        )
        assert main(["verify", inst, res]) == 1

    def test_accepts_true_infeasible(self, tmp_path):
        inst = write_doc(
            tmp_path,
            "inf.json",
            {
                "version": 1,
                "girls": ["g1"],
                "boys": ["b1"],
                "girl_lists": {"g1": ["b1"]},
                "boy_lists": {},
                "refusers": ["b1"],
            },
        )
        res = write_doc(tmp_path, "r.json", {"status": "infeasible", "infeasible_member": "g1"})
        assert main(["verify", inst, res]) == 0

    def test_rejects_false_infeasible(self, i1_file, tmp_path):
        res = write_doc(tmp_path, "r.json", {"status": "infeasible", "infeasible_member": "g1"})
        assert main(["verify", i1_file, res]) == 1

    def test_parse_error_exit(self, i1_file, tmp_path):
        res = tmp_path / "r.json"
        res.write_text("not json")
        assert main(["verify", i1_file, str(res)]) == 65


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        for kind in ("tournament", "rooks", "chessboard", "assignment"):
            a = tmp_path / f"{kind}-a.json"
            b = tmp_path / f"{kind}-b.json"
            main(["gen", kind, "--n", "2", "--seed", "13", "--output", str(a)])
            main(["gen", kind, "--n", "2", "--seed", "13", "--output", str(b)])
            assert a.read_bytes() == b.read_bytes()

    def test_solve_byte_identical(self, i1_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for method in ("star", "subproblems", "weight"):
            main(["solve", i1_file, "--method", method, "--output", str(a)])
            main(["solve", i1_file, "--method", method, "--output", str(b)])
            assert a.read_bytes() == b.read_bytes()


def reference_violator_problems(prepared, violator):
    """The whole-instance violator check, kept as the oracle for the
    claim-sized one: pare every list, then look the members up."""
    by_girl, by_boy = pare_lists(prepared)
    table = by_girl if violator.side == "girls" else by_boy
    problems = []
    members = violator.members
    if len(set(members)) != len(members):
        problems.append("violator members repeat")
    missing = [m for m in members if m not in table]
    if missing:
        problems.append(f"violator members not listed on the {violator.side} side: {missing}")
        return problems
    union = set()
    for m in members:
        union.update(table[m])
    if len(union) != violator.union_size:
        problems.append(
            f"recomputed union size {len(union)} differs from claimed {violator.union_size}"
        )
    if len(union) >= len(members):
        problems.append(
            f"union of pared lists has {len(union)} members, not smaller than the "
            f"subset of {len(members)}"
        )
    return problems


@st.composite
def claims(draw):
    """An instance with a genuine violator when it has one, or a forged claim:
    repeated members, unknown names, wildcards, names from the wrong side,
    and union sizes off by one."""
    inst = draw(smp_instances())
    outcome = solve(inst)
    if isinstance(outcome, Unsolvable) and draw(st.booleans()):
        v = outcome.violator
        shift = draw(st.sampled_from((0, 0, -1, 1)))
        return inst, HallViolator(v.side, v.members, max(0, v.union_size + shift))
    pool = inst.girls + inst.boys + ("gx", "bx")
    members = tuple(draw(st.lists(st.sampled_from(pool), max_size=6)))
    side = draw(st.sampled_from(("girls", "boys")))
    return inst, HallViolator(side, members, draw(st.integers(0, 6)))


def violator_problems(inst, violator):
    """``verify``'s problems with a violator claimed on ``inst``, written
    as the writers write it."""
    text = serialize_instance(inst)
    return fileio.claim_problems(lambda: text, ResultDoc("unsolvable", violator=violator))


class TestVerifyClaimOracle:
    @given(claims())
    @settings(deadline=None, max_examples=600)
    def test_same_problems_as_paring_everything(self, claim):
        inst, violator = claim
        assert violator_problems(inst, violator) == reference_violator_problems(inst, violator)

    def test_genuine_claims_are_valid(self):
        inst = SmpInstance.build(
            ["g1", "g2", "g3"],
            ["b1", "b2"],
            {"g1": ["b1", "b2"], "g2": ["b1", "b2"], "g3": ["b2"]},
            {"b1": ["g3"]},
        )
        violator = solve(inst).violator
        assert violator == HallViolator("girls", ("g1", "g2"), 1)
        assert violator_problems(inst, violator) == []

    def test_builds_no_whole_instance_cache(self, monkeypatch):
        inst = SmpInstance.build(
            ["g1", "g2", "g3"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {"b1": ["g1", "g2", "g3"]}
        )
        built = []
        for name in ("IndexView", "SmpInstance"):
            monkeypatch.setattr(fileio, name, lambda *args, _name=name: built.append(_name))
        # Genuine, then forged: neither builds an instance of any kind.
        for size, problems in ((1, 0), (2, 1)):
            claim = HallViolator("girls", ("g1", "g2"), size)
            assert len(violator_problems(inst, claim)) == problems
        assert built == []


BAD_INPUTS = {
    "missing": None,
    "directory": None,
    "non-utf8": b'{"version": 1, "girls": ["\xff"]}',
    "truncated": b'{"version": 1, "girls": ["g1"',
    "deep-arrays": b"[" * 100_000 + b"]" * 100_000,
    "deep-objects": b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    "wrong-types": json.dumps(
        {"version": 1, "girls": "g1", "boys": [1], "girl_lists": [], "boy_lists": {}}
    ).encode(),
    "empty-list": json.dumps(
        {"version": 1, "girls": ["g1"], "boys": ["b1"], "girl_lists": {"g1": []}, "boy_lists": {}}
    ).encode(),
    # Past the interpreter's int-string limit of 4,300 digits.
    "huge-integer": b'{"version": ' + b"9" * 5000 + b"}",
    # json.dumps escapes the unpaired surrogate as \ud800.
    "lone-surrogate": json.dumps(
        {"version": 1, "girls": ["\ud800"], "boys": ["b1"], "girl_lists": {}, "boy_lists": {}}
    ).encode(),
}


def bad_input(tmp_path, name):
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    elif BAD_INPUTS[name] is not None:
        path.write_bytes(BAD_INPUTS[name])
    return str(path)


def solved_result(tmp_path, i1_file):
    res = str(tmp_path / "good-result.json")
    assert main(["solve", i1_file, "--output", res]) == 0
    return res


def broken_bench_document(workload, case):
    """A benchmark family's n = 1,000 document broken deep inside: the last
    listed boy's row gains a repeated entry and an unknown name, or the
    refusers gain a repeat."""
    doc = json.loads(bench_document(workload, 1000))
    if case == "boys-table":
        row = doc["boy_lists"][next(reversed(doc["boy_lists"]))]
        row += [row[0], "zz"]
    else:
        refusers = doc.setdefault("refusers", [])
        refusers += [refusers[-1]] if refusers else [doc["boys"][-1]] * 2
    return json.dumps(doc)


BENCH_BAD_MESSAGES = {
    ("reciprocal-repair", "boys-table"): (
        "error: duplicate entry 'g73' in list of boy 'b999'; unknown girl 'zz' in list of boy 'b999'\n"
    ),
    ("reciprocal-repair", "refusers"): "error: duplicate refuser 'b999'\n",
    ("planted-unsolvable", "boys-table"): (
        "error: duplicate entry 'g53' in list of boy 'b999'; unknown girl 'zz' in list of boy 'b999'\n"
    ),
    ("planted-unsolvable", "refusers"): "error: duplicate refuser 'b943'\n",
}


class TestBadInput:
    @pytest.mark.parametrize("slot", ["solve", "check", "verify-instance", "verify-result"])
    @pytest.mark.parametrize("workload, case", list(BENCH_BAD_MESSAGES))
    def test_bench_scale_document_broken_deep_inside(self, workload, case, slot, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(bench_document(workload, 1000))
        bad = tmp_path / "bad.json"
        bad.write_text(broken_bench_document(workload, case))
        result = str(tmp_path / "r.json")
        if slot == "verify-instance":
            assert main(["solve", str(good), "--output", result]) in (0, 1)
        argv = {
            "solve": ["solve", str(bad)],
            "check": ["check", str(bad)],
            "verify-instance": ["verify", str(bad), result],
            "verify-result": ["verify", str(good), str(bad)],
        }[slot]
        expected = BENCH_BAD_MESSAGES[workload, case]
        if slot == "verify-result":  # an instance document is no result document
            expected = "error: status must be one of ['solved', 'unsolvable', 'infeasible']\n"
        assert main(argv) == 65
        assert capsys.readouterr() == ("", expected)

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    @pytest.mark.parametrize("slot", ["solve", "check", "verify-instance", "verify-result"])
    def test_one_line_no_traceback(self, slot, name, i1_file, tmp_path, capsys):
        bad = bad_input(tmp_path, name)
        argv = {
            "solve": ["solve", bad],
            "check": ["check", bad],
            "verify-instance": ["verify", bad, solved_result(tmp_path, i1_file)],
            "verify-result": ["verify", i1_file, bad],
        }[slot]
        capsys.readouterr()
        assert main(argv) in (64, 65)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)])
    @pytest.mark.parametrize("slot", ["solve", "verify-instance", "verify-result"])
    def test_unreadable_file_named_alike(self, slot, name, code, i1_file, tmp_path, capsys):
        # An instance file and a result file that cannot be read give the
        # same line, naming the path.
        bad = bad_input(tmp_path, name)
        argv = {
            "solve": ["solve", bad],
            "verify-instance": ["verify", bad, solved_result(tmp_path, i1_file)],
            "verify-result": ["verify", i1_file, bad],
        }[slot]
        capsys.readouterr()
        assert main(argv) == 65
        reason = f"[Errno {code}] {os.strerror(code)}: '{bad}'"
        assert capsys.readouterr() == ("", f"error: cannot read '{bad}': {reason}\n")

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_unwritable_output(self, command, target, i1_file, tmp_path, capsys):
        if target == "directory":
            out = tmp_path / "taken"
            out.mkdir()
        else:
            out = tmp_path / "absent" / "r.json"
        argv = {
            "solve": ["solve", i1_file, "--output", str(out)],
            "gen": ["gen", "tournament", "--n", "2", "--output", str(out)],
        }[command]
        assert main(argv) == 73
        out_text, err = capsys.readouterr()
        assert out_text == ""
        assert err.startswith(f"error: cannot write '{out}': ") and err.count("\n") == 1
        if target == "directory":
            assert list(out.iterdir()) == []
        else:
            assert not out.parent.exists()

    def test_failed_write_leaves_no_partial_file(self, i1_file, tmp_path, monkeypatch, capsys):
        class DiskFull:
            """Writes half of the text, then fails as a full disk does."""

            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                self.handle.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def failing_open(path, mode="r", **kwargs):
            handle = open(path, mode, **kwargs)
            return DiskFull(handle) if "w" in mode else handle

        monkeypatch.setattr(cli, "open", failing_open, raising=False)
        out = tmp_path / "r.json"
        for _ in range(2):  # first a new file, then an existing one
            assert main(["solve", i1_file, "--output", str(out)]) == 73
            assert not out.exists()
            assert capsys.readouterr().err.startswith(f"error: cannot write '{out}': ")
            out.write_text("old result")

    def test_lone_surrogate_leaves_no_output_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["solve", bad_input(tmp_path, "lone-surrogate"), "--output", str(out)]) == 65
        assert capsys.readouterr().err == (
            "error: invalid JSON: a string holds an unpaired surrogate escape\n"
        )
        assert not out.exists()

    def test_escaped_surrogate_pair_accepted(self, tmp_path, capsys):
        girl = "g\U0001f600"
        doc = dict(I1_DOC, girls=[girl], boys=["b1"], girl_lists={girl: ["b1"]}, boy_lists={})
        path = tmp_path / "pair.json"
        path.write_bytes(json.dumps(doc).encode())
        assert b"\\ud83d\\ude00" in path.read_bytes()
        assert main(["solve", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["assignment"] == [[girl, "b1"]]

    def test_non_utf8_named_in_message(self, tmp_path, capsys):
        path = bad_input(tmp_path, "non-utf8")
        assert main(["solve", path]) == 65
        assert capsys.readouterr().err.startswith(f"error: '{path}' is not UTF-8 text: ")

    def test_deep_nesting_named_in_message(self, i1_file, tmp_path, capsys):
        path = bad_input(tmp_path, "deep-arrays")
        assert main(["verify", i1_file, path]) == 65
        assert capsys.readouterr().err == (
            "error: invalid JSON: arrays or objects nested too deeply\n"
        )


def reference_list_table(value, field, owner):
    """The per-entry list-table checks, kept as the oracle for the row fast path."""
    if not isinstance(value, dict):
        raise ParseError(f"'{field}' must be an object")
    table = {}
    for key, entries in value.items():
        if not isinstance(entries, list) or not all(isinstance(x, str) for x in entries):
            raise ParseError(f"'{field}.{key}' must be an array of strings")
        if not entries:
            raise ParseError(f"empty list for {owner} '{key}' (omit the key to mean no list)")
        table[key] = tuple(entries)
    return table


def list_table_outcome(parse, value):
    """The table with its key order, or the message of the error raised."""
    try:
        return list(parse(value, "girl_lists", "girl").items())
    except ParseError as exc:
        return str(exc)


NAMES = st.sampled_from(["b1", "b2", "b3"])
NON_STRINGS = st.one_of(
    st.integers(-2, 2), st.none(), st.booleans(), st.floats(allow_nan=False), st.lists(NAMES)
)
LIST_ROWS = st.one_of(
    st.lists(NAMES, min_size=1, max_size=4),
    st.lists(st.one_of(NAMES, NON_STRINGS), max_size=4),
    st.just([]),
    st.one_of(NAMES, st.integers(), st.none(), st.dictionaries(NAMES, NAMES)),
)


class TestListTableOracle:
    @given(
        st.one_of(
            st.dictionaries(st.sampled_from(["g1", "g2", "g3", "g4"]), LIST_ROWS),
            st.lists(NAMES),
            st.none(),
        )
    )
    @settings(deadline=None, max_examples=400)
    def test_same_table_or_message(self, value):
        assert list_table_outcome(fileio._list_table, value) == list_table_outcome(
            reference_list_table, value
        )

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b1", "'girl_lists.g2' must be an array of strings"),
            (["b1", 3], "'girl_lists.g2' must be an array of strings"),
            (["b1", None], "'girl_lists.g2' must be an array of strings"),
            ([True], "'girl_lists.g2' must be an array of strings"),
            ([["b1"]], "'girl_lists.g2' must be an array of strings"),
            ([], "empty list for girl 'g2' (omit the key to mean no list)"),
        ],
    )
    def test_first_bad_row_named(self, row, message):
        value = {"g1": ["b1"], "g2": row, "g3": []}
        assert list_table_outcome(fileio._list_table, value) == message
        assert list_table_outcome(reference_list_table, value) == message


def reference_string_array(value, where):
    """The per-entry array check, kept as the oracle for the shared C-level test."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"'{where}' must be an array of strings")
    return tuple(value)


def string_array_outcome(parse, value):
    try:
        return parse(value, "girls")
    except ParseError as exc:
        return str(exc)


ROSTER_VALUES = [3, 2.5, None, True, "g1", {"g1": "g1"}, ["g1", 2], ["g1", None], [False], [["g1"]]]


class TestStringArrayOracle:
    @given(st.one_of(st.lists(st.one_of(NAMES, NON_STRINGS), max_size=4), NON_STRINGS, NAMES))
    @settings(deadline=None, max_examples=400)
    def test_same_tuple_or_message(self, value):
        assert string_array_outcome(fileio._string_array, value) == string_array_outcome(
            reference_string_array, value
        )

    @pytest.mark.parametrize("value", ROSTER_VALUES)
    @pytest.mark.parametrize("field", ["girls", "boys", "refusers"])
    def test_roster_rejects_non_strings(self, field, value):
        expected = f"'{field}' must be an array of strings"
        with pytest.raises(ParseError) as got:
            reference_string_array(value, field)
        assert str(got.value) == expected
        with pytest.raises(ParseError) as got:
            parse_instance(json.dumps(dict(I1_DOC, **{field: value})))
        assert str(got.value) == expected

    @pytest.mark.parametrize("value", ROSTER_VALUES)
    def test_violator_members_reject_non_strings(self, value):
        violator = {"side": "girls", "members": value, "union_size": 0}
        with pytest.raises(ParseError) as got:
            parse_result(json.dumps({"status": "unsolvable", "violator": violator}))
        assert str(got.value) == "'violator.members' must be an array of strings"


def reference_solved_result(pairs):
    """The per-pair loop, kept as the oracle for the C-level check of solved
    documents."""
    if not isinstance(pairs, list):
        raise ParseError("'assignment' must be an array of [girl, boy] pairs")
    out = []
    for item in pairs:
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(x, str) for x in item):
            raise ParseError("'assignment' must be an array of [girl, boy] pairs")
        out.append((item[0], item[1]))
    return ResultDoc("solved", assignment=tuple(out))


def result_outcome(parse, text):
    """The parsed result, or the message of the error raised."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


ASSIGNMENT_ITEMS = st.one_of(
    *[st.lists(st.sampled_from(["g1", "b1"]), min_size=2, max_size=2)] * 4,
    st.lists(st.one_of(NAMES, st.integers(-1, 1), st.none(), st.booleans(), st.just(["b1"])), max_size=3),
    st.integers(-1, 1),
    st.none(),
    NAMES,
    st.dictionaries(NAMES, NAMES, max_size=2),
)


class TestSolvedResultOracle:
    @given(
        st.one_of(
            *[st.lists(ASSIGNMENT_ITEMS, max_size=5)] * 4,
            st.integers(-1, 1),
            st.none(),
            NAMES,
            st.dictionaries(NAMES, NAMES, max_size=2),
        )
    )
    @settings(deadline=None, max_examples=400)
    def test_same_pairs_or_message(self, assignment):
        text = json.dumps({"status": "solved", "assignment": assignment})
        got = result_outcome(parse_result, text)
        assert got == result_outcome(lambda t: reference_solved_result(json.loads(t)["assignment"]), text)
        if not isinstance(got, str):
            assert all(type(pair) is tuple for pair in got.assignment)

    @pytest.mark.parametrize(
        "assignment",
        [{"g1": "b1"}, [["g1"]], [["g1", "b1", "b2"]], [["g1", 1]], [["g1", None]], [("g1", "b1"), "g1b1"]],
    )
    def test_bad_shapes_rejected(self, assignment):
        with pytest.raises(ParseError) as got:
            parse_result(json.dumps({"status": "solved", "assignment": assignment}))
        assert str(got.value) == "'assignment' must be an array of [girl, boy] pairs"


def reference_load(text):
    """The name-level path, kept as the oracle for the one-pass loader."""
    raw = parse_instance(text)
    problems = validate_raw(raw)
    if problems:
        raise ParseError("; ".join(problems))
    return preprocess_refusals(raw)


def one_pass_load(text):
    return fileio.prepare_document(lambda: text)


def walked(text):
    """Whether the walk of ``prepare_document`` reads ``text`` to an
    outcome rather than giving up on it."""
    return fileio._walked_text(text, fileio._translated, fileio._index_rows) is not None


def in_writers_order(doc):
    """Whether a parsed document's top-level keys come in the order the
    writers lay them out, the refusers last or left out."""
    order = ["version", "girls", "boys", "girl_lists", "boy_lists", "refusers"]
    return [*doc] in (order[:-1], order)


def load_outcome(load, text):
    """The loaded result, or the message of the error raised."""
    try:
        return load(text)
    except ParseError as exc:
        return str(exc)


def named_rows(roster, rows, other):
    """Each member's index row as the other side's names, keyed in roster
    order: an index view read back as the name tables of a name-level load."""
    return {member: tuple(other[i] for i in row) for member, row in zip(roster, rows)}


def loaded_snapshot(outcome):
    """Everything observable about a load outcome, key order included."""
    if isinstance(outcome, IndexView):
        return (
            outcome.girls,
            outcome.boys,
            list(named_rows(outcome.girls, outcome.girl_lists_idx, outcome.boys).items()),
            list(named_rows(outcome.boys, outcome.boy_lists_idx, outcome.girls).items()),
        )
    if not isinstance(outcome, SmpInstance):
        return outcome
    return (
        outcome.girls,
        outcome.boys,
        list(outcome.girl_lists.items()),
        list(outcome.boy_lists.items()),
    )


def cache_values(instance):
    """The two index row caches."""
    return [instance.girl_lists_idx, instance.boy_lists_idx]


def assert_loads_alike(text, check_walk=True):
    """The one loader gives the name-level path's outcome, as an IndexView
    holding the rows a fresh name-level instance builds, and a valid
    document is walked: as the writers write it again, as a load writes
    it again on one line and, unless
    ``check_walk`` is false, as it is when its keys come in the writers'
    order."""
    got = load_outcome(one_pass_load, text)
    want = load_outcome(reference_load, text)
    assert type(got) is (IndexView if isinstance(want, SmpInstance) else type(want))
    assert loaded_snapshot(got) == loaded_snapshot(want)
    if not isinstance(want, str):
        raw = parse_instance(text)
        assert walked(serialize_instance(raw))
        assert walked(fileio._compact_text(raw))
        if check_walk and in_writers_order(json.loads(text)):
            assert walked(text)
    if isinstance(want, SmpInstance):
        # The reference load is fresh: its rows are built from its names.
        assert cache_values(got) == cache_values(want)
    return got


DOC_GIRLS = ("g1", "g2", "g3", "x")
DOC_BOYS = ("b1", "b2", "b3", "x")
ODD_ENTRIES = st.one_of(
    st.integers(-1, 1), st.none(), st.booleans(), st.just(["b1"]), st.just({"b1": "g1"})
)


@st.composite
def instance_documents(draw):
    """Instance documents of three kinds: valid ones (with refusers that may
    empty a list); valid ones with one fault put in, so each rule is met
    alone; and ones drawn from small name pools, which may break several
    rules at once, frame faults included.  Each is laid out with its
    top-level keys in the writers' order or a drawn one, and a drawn
    indentation, so the refusers are not always last."""
    return laid_out(draw, draw(instance_objects()))


def laid_out(draw, doc):
    # instance_objects gives its keys in the writers' order, bar a fault.
    keys = list(doc) if draw(st.booleans()) else draw(st.permutations(list(doc)))
    indent = draw(st.sampled_from([2, None, 0, "\t"]))
    return json.dumps({key: doc[key] for key in keys}, indent=indent)


@st.composite
def instance_objects(draw):
    kind = draw(st.sampled_from(["valid", "one fault", "pooled"]))
    if kind == "pooled":
        return draw(pooled_documents())
    inst = draw(smp_instances())
    members = inst.girls + inst.boys
    refusers = draw(st.lists(st.sampled_from(members), unique=True, max_size=3)) if members else []
    raw = RawInstance(inst.girls, inst.boys, inst.girl_lists, inst.boy_lists, tuple(refusers))
    doc = json.loads(serialize_instance(raw))
    if kind == "valid":
        return doc
    rows = [row for field in ("girl_lists", "boy_lists") for row in doc[field].values()]
    fault = draw(st.sampled_from(["repeated entry", "unknown entry", "odd entry", "list key", "roster"]))
    if fault == "roster" or not rows:
        field = draw(st.sampled_from(["girls", "boys", "refusers"]))
        names = doc.setdefault(field, [])
        names.append(draw(st.sampled_from(names + ["zz"])) if names else "zz")
    elif fault == "list key":
        field, owner = draw(st.sampled_from([("girl_lists", "gz"), ("boy_lists", "bz"), ("girl_lists", None)]))
        doc[field][owner or draw(st.sampled_from(inst.girls))] = [] if owner is None else rows[0]
    else:
        row = draw(st.sampled_from(rows))
        entry = {
            "repeated entry": st.sampled_from(row),
            "unknown entry": st.just("zz"),
            "odd entry": ODD_ENTRIES,
        }[fault]
        row.insert(draw(st.integers(0, len(row))), draw(entry))
    return doc


@st.composite
def pooled_documents(draw):
    def table(keys, partners):
        entry = st.one_of(*[st.sampled_from(partners)] * 4, ODD_ENTRIES)
        rows = st.lists(entry, max_size=4)
        return draw(st.dictionaries(st.sampled_from(keys), rows, max_size=4))

    doc = {
        "version": 1,
        "girls": draw(st.lists(st.sampled_from(DOC_GIRLS), max_size=4)),
        "boys": draw(st.lists(st.sampled_from(DOC_BOYS), max_size=4)),
        "girl_lists": table(DOC_GIRLS + ("gz",), DOC_BOYS + ("bz",)),
        "boy_lists": table(DOC_BOYS + ("bz",), DOC_GIRLS + ("gz",)),
    }
    if draw(st.booleans()):
        doc["refusers"] = draw(st.lists(st.sampled_from(DOC_GIRLS + DOC_BOYS + ("zz",)), max_size=3))
    fault = draw(st.sampled_from([None, None, None, "version", "extra", "missing", "roster"]))
    if fault == "version":
        doc["version"] = draw(st.sampled_from([2, True, "1", 1.0, None]))
    elif fault == "extra":
        doc["comment"] = "x"
    elif fault == "missing":
        del doc[draw(st.sampled_from(["version", "girls", "boys", "girl_lists", "boy_lists"]))]
    elif fault == "roster":
        doc[draw(st.sampled_from(["girls", "boys", "refusers"]))] = draw(
            st.sampled_from([None, "g1", ["g1", 1], {"g1": 1}])
        )
    return doc


LOAD_BASE = {
    "version": 1,
    "girls": ["g1", "g2", "x"],
    "boys": ["b1", "b2", "b3", "x"],
    "girl_lists": {"g1": ["b1", "b2", "b3"], "x": ["b1"]},
    "boy_lists": {"b2": ["g2", "g1"], "b1": ["x", "g1"]},
}
NOT_STRINGS = "'girl_lists.g1' must be an array of strings"

# Documents that meet each rule the name -> place maps of the checked pass
# keep: a refused name stays on its roster's map, marked, not placed.
PLACE_MAP_CASES = {
    "kept name twice on a roster": ({"boys": ["b1", "b2", "b3", "x", "b2"], "refusers": ["b3"]}, "duplicate boy 'b2'"),
    "refused name twice on a roster": (
        {"boys": ["b1", "b2", "b3", "x", "b3"], "refusers": ["b3"]},
        "duplicate boy 'b3'",
    ),
    "refuser on both rosters written twice": ({"refusers": ["x", "b3", "x"]}, "duplicate refuser 'x'"),
    "refuser on both rosters, listed by both sides": (
        {
            "refusers": ["x"],
            "girl_lists": {"g1": ["x", "b2"], "x": ["x"]},
            "boy_lists": {"b1": ["x", "g1"], "x": ["x", "g2"]},
        },
        (
            ("g1", "g2"),
            ("b1", "b2", "b3"),
            [("g1", ("b2",)), ("g2", ())],
            [("b1", ("g1",)), ("b2", ()), ("b3", ())],
        ),
    ),
    "refuser on neither roster, a list key": (
        {"refusers": ["gz"], "girl_lists": {"g1": ["b1"], "gz": ["b1"]}},
        "unknown girl 'gz' in girl_lists; unknown refuser 'gz'",
    ),
    "row listing two refusers and a kept name": (
        {"refusers": ["g1", "g2"], "boy_lists": {"b1": ["g1", "x", "g2"]}},
        (
            ("x",),
            ("b1", "b2", "b3", "x"),
            [("x", ("b1",))],
            [("b1", ("x",)), ("b2", ()), ("b3", ()), ("x", ())],
        ),
    ),
    "list key of a refuser": (
        {"refusers": ["g1"]},
        (
            ("g2", "x"),
            ("b1", "b2", "b3", "x"),
            [("g2", ()), ("x", ("b1",))],
            [("b1", ("x",)), ("b2", ("g2",)), ("b3", ()), ("x", ())],
        ),
    ),
}

LOAD_CASES = {
    "int entry": ({"girl_lists": {"g1": ["b1", 3]}}, NOT_STRINGS),
    "null entry": ({"girl_lists": {"g1": [None]}}, NOT_STRINGS),
    "true entry": ({"girl_lists": {"g1": ["b1", True]}}, NOT_STRINGS),
    "nested array entry": ({"girl_lists": {"g1": [["b1"]]}}, NOT_STRINGS),
    "object entry": ({"girl_lists": {"g1": [{"b1": 1}]}}, NOT_STRINGS),
    "empty list": (
        {"boy_lists": {"b1": ["g1"], "b3": []}},
        "empty list for boy 'b3' (omit the key to mean no list)",
    ),
    "unknown list key": ({"girl_lists": {"g1": ["b1"], "gz": ["b1"]}}, "unknown girl 'gz' in girl_lists"),
    "repeated roster names": (
        {"girls": ["g1", "g2", "g1", "x"], "boys": ["b1", "b2", "b3", "x", "b2"]},
        "duplicate girl 'g1'; duplicate boy 'b2'",
    ),
    "repeated entry": (
        {"boy_lists": {"b2": ["g2", "g1", "g2"]}},
        "duplicate entry 'g2' in list of boy 'b2'",
    ),
    "unknown entry after a fault": (
        {"girl_lists": {"gz": ["b1"], "g1": ["bz"]}, "refusers": ["zz"]},
        "unknown girl 'gz' in girl_lists; unknown boy 'bz' in list of girl 'g1'; unknown refuser 'zz'",
    ),
    "two refusers in one row": (
        {"refusers": ["b2", "b3"]},
        (
            ("g1", "g2", "x"),
            ("b1", "x"),
            [("g1", ("b1",)), ("g2", ()), ("x", ("b1",))],
            [("b1", ("x", "g1")), ("x", ())],
        ),
    ),
    "refuser on both rosters": (
        {"refusers": ["x"], "boy_lists": {"b1": ["x", "g1"], "x": ["g1"]}},
        (
            ("g1", "g2"),
            ("b1", "b2", "b3"),
            [("g1", ("b1", "b2", "b3")), ("g2", ())],
            [("b1", ("g1",)), ("b2", ()), ("b3", ())],
        ),
    ),
    "refuser's own list holds an unknown name": (
        {"refusers": ["x"], "girl_lists": {"x": ["b1", "bz"]}},
        "unknown boy 'bz' in list of girl 'x'",
    ),
    "unknown refuser": ({"refusers": ["b1", "zz"]}, "unknown refuser 'zz'"),
    "repeated refuser": ({"refusers": ["b1", "g2", "b1"]}, "duplicate refuser 'b1'"),
    "girl's row emptied": ({"refusers": ["b1"]}, Infeasible("x")),
    "bad boys' table behind an emptied girl's row": (
        {"refusers": ["b1"], "boy_lists": {"b2": ["g2", "g2"]}},
        "duplicate entry 'g2' in list of boy 'b2'",
    ),
    "boy's row emptied": ({"refusers": ["x", "g1"]}, Infeasible("b1")),
    "both sides emptied, girls first": ({"refusers": ["b1", "g1", "g2"]}, Infeasible("x")),
    **PLACE_MAP_CASES,
}


# Refusals empty girl x's row, and the boys' table is bad: no load may
# report the emptied row before it has checked the boys' table.
EMPTIED_ROW_BAD_TABLE = dict(LOAD_BASE, refusers=["b1"], boy_lists={"b2": ["g2", "g2"]})


class TestPreparedLoadOracle:
    @given(instance_documents())
    @example(json.dumps(EMPTIED_ROW_BAD_TABLE))
    @settings(deadline=None, max_examples=600)
    def test_same_outcome_as_name_level_path(self, text):
        assert_loads_alike(text)

    @pytest.mark.parametrize("workload", ["reciprocal-repair", "planted-unsolvable"])
    def test_same_outcome_on_bench_families(self, workload):
        assert isinstance(assert_loads_alike(bench_document(workload, 1000)), IndexView)

    @pytest.mark.parametrize("case", list(LOAD_CASES))
    def test_explicit_case(self, case):
        change, expected = LOAD_CASES[case]
        got = assert_loads_alike(json.dumps(dict(LOAD_BASE, **change)))
        assert loaded_snapshot(got) == expected

    def test_base_document_loads_whole(self):
        got = assert_loads_alike(json.dumps(LOAD_BASE))
        assert got.girl_lists_idx == ((0, 1, 2), (), (0,))
        assert got.boy_lists_idx == ((2, 0), (1, 0), (), ())


# A small canonical instance with a refuser, as the writers lay it out: the
# refuser b3 leaves g1's row and the boys' roster.
FRAME_DOC = dict(LOAD_BASE, refusers=["b3"])
FRAME_TEXT = json.dumps(FRAME_DOC, indent=2) + "\n"
FRAME_COMPACT = json.dumps(FRAME_DOC, separators=(",", ":"))
# Girls and boys named "refusers": one a refuser, one listed.
NAMED_REFUSERS = {
    "version": 1,
    "girls": ["g1", "refusers"],
    "boys": ["b1", "refusers"],
    "girl_lists": {"refusers": ["b1", "refusers"]},
    "boy_lists": {"refusers": ["g1", "refusers"], "b1": ["refusers"]},
}


# The smallest text whose refusers' value holds the string "refusers".
REFUSER_NAMED_REFUSERS = json.dumps(
    {"version": 1, "girls": ["refusers"], "boys": ["b1"], "girl_lists": {}, "boy_lists": {}, "refusers": ["refusers"]}
)


def reordered(doc, *keys):
    return json.dumps({key: doc[key] for key in keys}, indent=2)


FRAME_CASES = {
    "canonical": FRAME_TEXT,
    "leading BOM": "\ufeff" + FRAME_TEXT,
    "trailing data": FRAME_TEXT + "x",
    "trailing object": FRAME_TEXT + "{}",
    "trailing data, no refusers": json.dumps(LOAD_BASE, indent=2) + "\nx",
    "extra closing brace, no refusers": json.dumps(LOAD_BASE) + "}",
    "trailing data, empty refusers": json.dumps(dict(LOAD_BASE, refusers=[])) + " []",
    "trailing comma": FRAME_TEXT[: FRAME_TEXT.rindex("]") + 1] + ",\n}\n",
    "comma after the opening brace": "{," + FRAME_COMPACT[1:],
    "empty object": "{}",
    "rosters only": reordered(LOAD_BASE, "version", "girls", "boys"),
    "no boys' table": reordered(LOAD_BASE, "version", "girls", "boys", "girl_lists"),
    "array document": "[]",
    "compact": FRAME_COMPACT,
    "tab indent": json.dumps(FRAME_DOC, indent="\t"),
    "CRLF lines": FRAME_TEXT.replace("\n", "\r\n"),
    "surrounding whitespace": " \t\r\n" + FRAME_TEXT + " \t\r\n\n",
    "spaced separators": json.dumps(FRAME_DOC, separators=(" , ", " : ")),
    "form feed after": FRAME_TEXT + "\f",
    "no-break space before": "\u00a0" + FRAME_TEXT,
    "duplicate version": FRAME_TEXT.replace("{\n", '{\n  "version": 1,\n', 1),
    "duplicate refusers": FRAME_COMPACT[:-1] + ',"refusers":["b3"]}',
    "unknown key": FRAME_COMPACT[:-1] + ',"comment":"x"}',
    "unknown key before the refusers": FRAME_COMPACT.replace('"refusers"', '"comment":1,"refusers"'),
    "refusers inside a trailing unknown member": FRAME_COMPACT[:-1] + ',"comment":{"refusers":["b1"]}}',
    "refusers key escaped": FRAME_TEXT.replace('"refusers"', '"refuser\\u0073"'),
    "refusers key escaped first": FRAME_TEXT.replace('"refusers"', '"\\u0072efusers"'),
    "refusers as a string value at the end": FRAME_COMPACT[:-1] + ',"comment":"\\"refusers\\": []"}',
    "roster member named refusers": reordered(
        dict(NAMED_REFUSERS, refusers=["g1"]), "version", "girls", "boys", "girl_lists", "boy_lists", "refusers"
    ),
    "refuser named refusers": json.dumps(dict(NAMED_REFUSERS, refusers=["refusers"]), indent=2),
    "refuser named refusers, no lists": REFUSER_NAMED_REFUSERS,
    "table key named refusers, table last": reordered(
        dict(NAMED_REFUSERS, refusers=["g1"]), "version", "girls", "boys", "refusers", "girl_lists", "boy_lists"
    ),
    "table key named refusers, no refusers": json.dumps(NAMED_REFUSERS, indent=2),
    "refusers first": reordered(FRAME_DOC, "refusers", "version", "girls", "boys", "girl_lists", "boy_lists"),
    "refusers in the middle": reordered(FRAME_DOC, "version", "girls", "refusers", "boys", "girl_lists", "boy_lists"),
    "refusers between the tables": reordered(
        FRAME_DOC, "version", "girls", "boys", "girl_lists", "refusers", "boy_lists"
    ),
    "refusers between the tables, boys' first": reordered(
        dict(FRAME_DOC, refusers=["g1"]), "version", "girls", "boys", "boy_lists", "refusers", "girl_lists"
    ),
    "empty refusers in the middle": reordered(
        dict(FRAME_DOC, refusers=[]), "version", "girls", "refusers", "boys", "girl_lists", "boy_lists"
    ),
    "tables before the rosters": reordered(FRAME_DOC, "girl_lists", "boy_lists", "version", "girls", "boys", "refusers"),
    "boys' table first, refusers first": reordered(
        FRAME_DOC, "refusers", "boy_lists", "girl_lists", "boys", "version", "girls"
    ),
    "surrogate escape in a name": FRAME_TEXT.replace('"b2"', '"\\ud800"'),
    "surrogate pair in a name": FRAME_TEXT.replace('"b2"', '"\\ud83d\\ude00"'),
    "escaped backslash before u in a name": FRAME_TEXT.replace('"b2"', '"C:\\\\udata"'),
    "escaped backslash before ud83d in a name": FRAME_TEXT.replace('"b2"', '"\\\\ud83d"'),
    "surrogate escape after an escaped backslash": FRAME_TEXT.replace('"b2"', '"\\\\\\ud800"'),
    "deep nesting in the refusers": FRAME_COMPACT[:-1] + "," + '"refusers":' + "[" * 100_000 + "]" * 100_000 + "}",
    "emptied row": json.dumps(dict(LOAD_BASE, refusers=["b1"]), indent=2),
    "emptied row, boys' table first": reordered(
        dict(LOAD_BASE, refusers=["b1"]), "version", "girls", "boys", "boy_lists", "girl_lists", "refusers"
    ),
    "emptied row before a bad boys' table": json.dumps(EMPTIED_ROW_BAD_TABLE, indent=2),
    "emptied row after a bad boys' table": reordered(
        EMPTIED_ROW_BAD_TABLE, "version", "girls", "boys", "boy_lists", "girl_lists", "refusers"
    ),
    **{
        f"place maps: {case}": json.dumps(dict(LOAD_BASE, **change), indent=2)
        for case, (change, _) in PLACE_MAP_CASES.items()
    },
}


def command_outcomes(text, tmp_path, capsys):
    """(exit code, stdout, stderr) of solve and check on a document."""
    path = tmp_path / "walked.json"
    path.write_text(text, encoding="utf-8")
    outcomes = []
    for argv in (["solve", str(path)], ["check", str(path)]):
        code = main(argv)
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def reference_outcomes(text, tmp_path, capsys):
    """What solve and check give when they load like the name-level path."""
    want = load_outcome(reference_load, text)
    if isinstance(want, str):
        return [(65, "", f"error: {want}\n")] * 2
    if isinstance(want, Infeasible):
        return [
            (2, serialize_result(ResultDoc("infeasible", infeasible_member=want.member)), ""),
            (2, f"infeasible: refusals empty the list of '{want.member}'\n", ""),
        ]
    return command_outcomes(serialize_instance(want), tmp_path, capsys)


class TestMemberWalk:
    """solve and check parse an instance one top-level member at a time,
    in the writers' order, with the refusers read ahead from the tail;
    every layout, and any text json.loads would not read as the same
    members, gives the name-level path's outcome and message."""

    @pytest.mark.parametrize("case", list(FRAME_CASES))
    def test_same_outcome_as_name_level_path(self, case, tmp_path, capsys):
        text = FRAME_CASES[case]
        # Some cases lay out valid documents the walk hands back.
        assert_loads_alike(text, check_walk=False)
        assert command_outcomes(text, tmp_path, capsys) == reference_outcomes(text, tmp_path, capsys)

    def test_every_prefix(self, tmp_path, capsys):
        for end in range(len(FRAME_TEXT)):
            text = FRAME_TEXT[:end]
            assert_loads_alike(text)
            assert command_outcomes(text, tmp_path, capsys) == reference_outcomes(text, tmp_path, capsys), end

    @pytest.mark.parametrize(
        "case",
        [
            "refuser named refusers",
            "refuser named refusers, no lists",
            "escaped backslash before u in a name",
            "escaped backslash before ud83d in a name",
        ],
    )
    def test_written_name_is_walked(self, case):
        # The read-ahead passes over the refuser's name, which no ":"
        # follows, to the member's key; an escaped backslash and then "ud8"
        # is no surrogate escape. The outcomes are checked with every other
        # case's.
        assert walked(FRAME_CASES[case])

    @pytest.mark.parametrize("case", ["emptied row before a bad boys' table", "emptied row after a bad boys' table"])
    def test_emptied_row_waits_for_the_boys_table(self, case, tmp_path, capsys):
        message = "error: duplicate entry 'g2' in list of boy 'b2'\n"
        assert command_outcomes(FRAME_CASES[case], tmp_path, capsys) == [(65, "", message)] * 2


def memory_document(n=2000, entries=20, boy_step=89):
    """An instance of ``n`` girls and ``n`` boys who each list ``entries``
    partners, with 1% of the members refusing, written as the writers lay
    it out (refusers last).  Girl i lists boys i, i + 97, ...; boy j lists
    girls j, j + ``boy_step``, ..., so with ``boy_step=-97`` every list is
    listed back and the instance is solvable, and by default it is not."""
    girls = [f"g{i}" for i in range(n)]
    boys = [f"b{i}" for i in range(n)]
    doc = {
        "version": 1,
        "girls": girls,
        "boys": boys,
        "girl_lists": {g: [boys[(i + 97 * k) % n] for k in range(entries)] for i, g in enumerate(girls)},
        "boy_lists": {b: [girls[(i + boy_step * k) % n] for k in range(entries)] for i, b in enumerate(boys)},
        "refusers": girls[::100] + boys[50::100],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def forge_claim(path):
    """Forge the result file at ``path``: a pairing loses its first pair, a
    violator's union size grows by one."""
    doc = json.loads(path.read_text())
    if doc["status"] == "solved":
        del doc["assignment"][0]
    else:
        doc["violator"]["union_size"] += 1
    path.write_text(json.dumps(doc))


def traced_peak(call):
    """``call()``'s result and its tracemalloc peak in bytes."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()


class TestLoadMemory:
    """The indexed load reads each list table a chunk of rows at a time, so
    no whole table of names is ever alive, and checks and translates each
    chunk through one name -> place map per roster, not through roster
    sets and index dicts of its own.  Deterministic tracemalloc readings on
    a document built here; the text is decoded while tracing, as a command
    reads its file."""

    def test_peak_well_below_a_whole_parse(self):
        data = memory_document()
        view, indexed = traced_peak(lambda: fileio.prepare_document(data.decode))
        assert type(view) is IndexView and len(view.girls) == 1980
        _, whole = traced_peak(lambda: fileio._load_object(data.decode()))
        # About 0.43 on CPython 3.11; parsing each table whole, with the
        # text alive, read about 0.70, and the whole document first about
        # 1.1.
        assert indexed < 0.55 * whole

    @pytest.mark.parametrize(
        "boy_step, code, forge",
        [(-97, 0, None), (89, 1, None), (-97, 0, "pairing"), (89, 1, "violator")],
        ids=["solved", "violator", "pairing less one pair", "violator union + 1"],
    )
    def test_verify_peak_well_below_a_whole_parse(self, boy_step, code, forge, tmp_path, capsys):
        data = memory_document(boy_step=boy_step)
        instance, result = tmp_path / "i.json", tmp_path / "r.json"
        instance.write_bytes(data)
        assert main(["solve", str(instance), "--output", str(result)]) == code
        if forge:
            forge_claim(result)
        verdict, peak = traced_peak(lambda: main(["verify", str(instance), str(result)]))
        out = capsys.readouterr().out
        if forge:
            assert (verdict, out.startswith("invalid: ")) == (1, True)
        else:
            assert (verdict, out) == (0, "valid\n")
        _, whole = traced_peak(lambda: fileio._load_object(data.decode()))
        # About 0.71 for the pairing and 0.65 for the violator on CPython
        # 3.10 and 3.11, valid or forged; keeping every row as names read
        # about 1.0.
        assert peak < 0.85 * whole

    def test_verify_builds_no_instance_for_a_claim_that_clears(self, tmp_path, monkeypatch, capsys):
        built = []
        init = SmpInstance.__init__
        monkeypatch.setattr(SmpInstance, "__init__", lambda self, *args: built.append(args) or init(self, *args))
        instance, result = tmp_path / "i.json", tmp_path / "r.json"
        counts = []
        for boy_step, code in ((-97, 0), (89, 1)):
            instance.write_bytes(memory_document(boy_step=boy_step))
            assert main(["solve", str(instance), "--output", str(result)]) == code
            assert main(["verify", str(instance), str(result)]) == 0
            assert capsys.readouterr().out == "valid\n"
            counts.append(len(built))
            forge_claim(result)
            assert main(["verify", str(instance), str(result)]) == 1
            assert capsys.readouterr().out.startswith("invalid: ")
            counts.append(len(built))
        # A claim the pass does not clear is checked in the same pass: the
        # forged violator builds no instance, the forged pairing one
        # claim-sized instance whose rows hold only the partners it gives.
        assert counts == [0, 1, 1, 1]
        (girls, boys, girl_lists, boy_lists), = built
        assert girls == tuple(girl_lists) and boys == tuple(boy_lists)
        assert {len(row) for row in chain(girl_lists.values(), boy_lists.values())} == {1}

    def test_no_whole_table_of_names_is_alive(self):
        # The text is made before tracing starts, so what the load holds
        # at its peak beyond the view it returns is what it needed on the
        # way: the place maps and a chunk of names, not a table of them.
        text = memory_document().decode()
        (view, held), peak = traced_peak(
            lambda: (fileio.prepare_document(lambda: text), tracemalloc.get_traced_memory()[0])
        )
        assert type(view) is IndexView
        table = json.dumps(json.loads(text)["girl_lists"])
        _, names = traced_peak(lambda: json.loads(table))
        # About 0.28 of one table's names on CPython 3.11; parsing each
        # table whole read about 0.98.
        assert peak - held < 0.4 * names

    def test_each_chunk_is_translated_through_the_map_it_was_checked_by(self, monkeypatch):
        text = memory_document().decode()
        others = {"_names_table_ok": [], "_index_rows": []}
        for name, seen in others.items():
            def recording(*args, _seen=seen, _original=getattr(fileio, name)):
                _seen.append(args[-1])  # ``other``, the last argument of both
                return _original(*args)

            monkeypatch.setattr(fileio, name, recording)
        view = fileio.prepare_document(lambda: text)
        assert type(view) is IndexView
        checked, translated = others.values()
        # Each chunk is checked, then translated, before the next is parsed:
        # the girls' chunks through the boys' map, then the boys' chunks.
        assert len(checked) == len(translated) > 4
        assert all(map(operator.is_, checked, translated))
        boy_map, girl_map = checked[0], checked[-1]
        switch = checked.index(girl_map)
        assert all(other is boy_map for other in checked[:switch])
        assert all(other is girl_map for other in checked[switch:])
        assert switch > 2 and len(checked) - switch > 2
        assert boy_map.keys() == {f"b{i}" for i in range(2000)} and girl_map.keys() == {f"g{i}" for i in range(2000)}

    def test_place_maps_hold_less_than_roster_sets(self):
        girls = [f"g{i}" for i in range(20_000)]
        boys = [f"b{i}" for i in range(20_000)]
        refusers = girls[::100] + boys[50::100]
        checked, peak = traced_peak(lambda: fileio._kept_rosters(girls, boys, refusers))
        (girls_kept, girl_map), (boys_kept, boy_map) = checked[1]
        assert len(girls_kept) == len(boys_kept) == 19_800
        assert (girl_map["g0"], girl_map["g1"], boy_map["b0"], boy_map["b50"]) == (None, 0, 0, None)
        assert girl_map["g1001"] == 990 and girl_map["g1001"] is boy_map["b1000"]  # one int per place
        # About 2.21 MB on CPython 3.11 and 2.57 MB on 3.10, the kept rosters
        # included; the two roster sets the checks once used read 4.75 MB.
        assert peak < 3_000_000


class TestLoadPaths:
    """Every command loads an instance through one loader: the checked pass
    is fed the text's members one at a time, and solve and check index
    each list table as it arrives while verify reduces it to what the
    result's claim needs.  A
    bad document takes the same steps on every command: the pass on the
    walk, then the name-level path; a valid one the walk gives up on is
    then written again by the writers and walked."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for module, name in (
            (fileio, "parse_instance"),
            (fileio, "validate_raw"),
            (instances, "_index_rows"),
        ):
            def counting(*args, _name=name, _original=getattr(module, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_solve_and_check_skip_the_name_level_path(self, tmp_path, calls, capsys):
        # Nor do they build the name tables: no route reads them.
        for name, doc in (("i.json", LOAD_BASE), ("r.json", dict(LOAD_BASE, refusers=["b3"]))):
            path = write_doc(tmp_path, name, doc)
            for method in ("star", "subproblems", "weight"):
                assert main(["solve", path, "--method", method]) == 0
            assert main(["check", path]) == 0
        assert calls == {}
        capsys.readouterr()

    @pytest.mark.parametrize(
        "workload, solve_code, guarded_code",
        [(None, 0, 0), ("reciprocal-repair", 0, 3), ("planted-unsolvable", 1, 3)],
    )
    def test_solve_and_check_are_handed_an_index_view(
        self, workload, solve_code, guarded_code, tmp_path, calls, monkeypatch, capsys
    ):
        # At n = 1,000 the weight route and check stop at their size guards,
        # after the instance is handed over.
        if workload is None:
            path = write_doc(tmp_path, "i.json", dict(LOAD_BASE, refusers=["b3"]))
        else:
            path = str(tmp_path / "i.json")
            Path(path).write_text(bench_document(workload, 1000))
        handed = Counter()
        for name in ("solve", "solve_via_subproblems", "weighted_assignment", "hall_bicriteria"):
            def recording(instance, _name=name, _route=getattr(cli, name)):
                handed[_name, type(instance)] += 1
                return _route(instance)

            monkeypatch.setattr(cli, name, recording)
        for method, code in (("star", solve_code), ("subproblems", solve_code), ("weight", guarded_code)):
            assert main(["solve", path, "--method", method]) == code
        assert main(["check", path]) == guarded_code
        assert handed == {
            ("solve", IndexView): 1,
            ("solve_via_subproblems", IndexView): 1,
            ("weighted_assignment", IndexView): 1,
            ("hall_bicriteria", IndexView): 1,
        }
        assert calls == {}
        capsys.readouterr()

    def test_bad_document_takes_the_name_level_path(self, tmp_path, calls, capsys):
        path = write_doc(tmp_path, "bad.json", dict(LOAD_BASE, refusers=["zz"]))
        assert main(["solve", path]) == 65
        assert capsys.readouterr().err == "error: unknown refuser 'zz'\n"
        assert calls == {"parse_instance": 1, "validate_raw": 1}

    @pytest.mark.parametrize("girl_lists, code", [({"g1": ["b1"]}, 0), ({"g1": ["b1"], "g2": ["b1"]}, 1)])
    def test_verify_leaves_index_rows_unbuilt(self, girl_lists, code, tmp_path, calls, monkeypatch, capsys):
        path = write_doc(tmp_path, "i.json", dict(I1_DOC, girl_lists=girl_lists, boy_lists={}))
        result = str(tmp_path / "r.json")
        assert main(["solve", path, "--output", result]) == code
        built = []
        for name in ("IndexView", "SmpInstance"):
            monkeypatch.setattr(fileio, name, lambda *args, _name=name: built.append(_name))
        assert main(["verify", path, result]) == 0
        assert capsys.readouterr().out == "valid\n"
        # The claim clears inside the checked pass: no instance is built,
        # indexed or named, and the name-level path never runs.
        assert built == []
        assert calls == {}

    def test_unreadable_result_translates_no_row(self, tmp_path, monkeypatch, capsys):
        path = write_doc(tmp_path, "i.json", LOAD_BASE)
        bad = write_doc(tmp_path, "bad.json", dict(LOAD_BASE, refusers=["zz"]))
        result = tmp_path / "r.json"
        result.write_text("{")
        translated = []
        monkeypatch.setattr(fileio, "_index_rows", lambda rows, other: translated.append(rows))
        for argv in (["verify", path, str(result)], ["verify", path, str(tmp_path / "missing.json")]):
            assert main(argv) == 65
            assert capsys.readouterr().err.startswith("error: ")
        # The instance's own errors still come first.
        assert main(["verify", bad, str(result)]) == 65
        assert capsys.readouterr().err == "error: unknown refuser 'zz'\n"
        # Only the instance's errors matter: each table is dropped as the
        # pass hands it over.
        assert translated == []

    def test_infeasible_claim_translates_no_row(self, tmp_path, monkeypatch, capsys):
        path = write_doc(tmp_path, "i.json", LOAD_BASE)
        result = write_doc(tmp_path, "r.json", {"status": "infeasible", "infeasible_member": "g1"})
        translated = []
        monkeypatch.setattr(fileio, "_index_rows", lambda rows, other: translated.append(rows))
        assert main(["verify", path, result]) == 1
        assert capsys.readouterr().out == "invalid: instance survives refusal preprocessing\n"
        # Only whether the refusals empty a list matters: each table is
        # dropped as the pass hands it over.
        assert translated == []

    @pytest.mark.parametrize("girl_lists, code", [({"g1": ["b1"]}, 0), ({"g1": ["b1"], "g2": ["b1"]}, 1)])
    def test_verify_walks_the_instance_text(self, girl_lists, code, tmp_path, monkeypatch, capsys):
        # Laid out as the writers lay it out, refusers last, the instance is
        # never parsed whole: the only document _load_object reads is the
        # result.
        path = tmp_path / "i.json"
        path.write_text(serialize_instance(RawInstance.build(I1.girls, I1.boys, girl_lists, {}, ["b2"])))
        result = str(tmp_path / "r.json")
        assert main(["solve", str(path), "--output", result]) == code
        loaded, walked = [], []
        for name, seen in (("_load_object", loaded), ("_walked_text", walked)):
            def recording(*args, _seen=seen, _original=getattr(fileio, name)):
                _seen.append(_original(*args))
                return _seen[-1]

            monkeypatch.setattr(fileio, name, recording)
        assert main(["verify", str(path), result]) == 0
        assert capsys.readouterr().out == "valid\n"
        # The walk hands the pass's outcome, the claim's reductions, to the
        # claim check.
        assert [type(got) for got in walked] == [list]
        assert loaded == [json.loads(Path(result).read_text())]

    def test_verify_of_a_bad_document_takes_the_name_level_path(self, tmp_path, calls, capsys):
        path = write_doc(tmp_path, "bad.json", dict(LOAD_BASE, refusers=["zz"]))
        result = write_doc(tmp_path, "r.json", {"status": "infeasible", "infeasible_member": "x"})
        assert main(["verify", path, result]) == 65
        assert capsys.readouterr() == ("", "error: unknown refuser 'zz'\n")
        assert calls == {"parse_instance": 1, "validate_raw": 1}

    @pytest.fixture
    def passes(self, monkeypatch):
        """The order in which the checked pass and the name-level path run."""
        order = []
        for name in ("_checked_tables", "parse_instance"):
            def recording(*args, _name=name, _original=getattr(fileio, name)):
                order.append(_name)
                return _original(*args)

            monkeypatch.setattr(fileio, name, recording)
        return order

    @pytest.mark.parametrize(
        "change, code",
        [
            ({"refusers": []}, 0),
            ({"refusers": ["b3"]}, 0),
            ({"refusers": ["b1"]}, 2),
            ({"girl_lists": {"g1": ["b1"], "x": ["b1"]}}, 1),
        ],
        ids=["plain", "refuser", "emptied", "unsolvable"],
    )
    def test_each_command_runs_the_checked_pass_once(self, change, code, tmp_path, passes, capsys):
        path = write_doc(tmp_path, "i.json", dict(LOAD_BASE, **change))
        result = tmp_path / "r.json"
        runs = [
            (["solve", path, "--method", method, "--output", str(result)], code)
            for method in ("star", "subproblems", "weight")
        ]
        runs += [(["check", path], code), (["verify", path, str(result)], 0)]
        for argv, expected in runs:
            passes.clear()
            assert main(argv) == expected
            assert passes == ["_checked_tables"], argv
        # An invalid claim takes the one pass too: the solver's pairing less
        # one pair, its violator with the union size + 1, or an infeasible
        # claim on a document its refusals do not empty.
        if code != 2:
            forge_claim(result)
            for text in (result.read_text(), json.dumps({"status": "infeasible", "infeasible_member": "g1"})):
                result.write_text(text)
                passes.clear()
                assert main(["verify", path, str(result)]) == 1
                assert passes == ["_checked_tables"], text
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "check", "verify"])
    @pytest.mark.parametrize(
        "change, message",
        [({"refusers": ["zz"]}, "unknown refuser 'zz'"), LOAD_CASES["repeated entry"]],
        ids=["refusers", "boys-table"],
    )
    def test_bad_document_runs_the_checked_pass_first(self, change, message, command, tmp_path, passes, capsys):
        path = write_doc(tmp_path, "bad.json", dict(LOAD_BASE, **change))
        result = write_doc(tmp_path, "r.json", {"status": "infeasible", "infeasible_member": "x"})
        argv = {"solve": ["solve", path], "check": ["check", path], "verify": ["verify", path, result]}[command]
        assert main(argv) == 65
        assert capsys.readouterr() == ("", f"error: {message}\n")
        # The pass runs on the walk over the text, then the name-level
        # path names the problem; no pass runs on a parsed document.
        assert passes == ["_checked_tables", "parse_instance"]

    @pytest.mark.parametrize("command", ["solve", "check", "verify"])
    @pytest.mark.parametrize(
        "case", ["refusers between the tables", "tables before the rosters", "refusers first"]
    )
    def test_other_layout_is_written_again_and_walked(self, case, command, tmp_path, passes, capsys):
        # A valid text the walk gives up on passes the name-level checks,
        # and its members, written again in the writers' order, are walked:
        # the outcome is that of the writers' own text.
        path, canonical = tmp_path / "other.json", tmp_path / "canonical.json"
        path.write_text(FRAME_CASES[case])
        canonical.write_text(serialize_instance(parse_instance(FRAME_CASES[case])))
        result = str(tmp_path / "r.json")
        assert main(["solve", str(canonical), "--output", result]) == 0
        outcomes, walked_again = [], ["_checked_tables", "parse_instance", "_checked_tables"]
        for instance, steps in ((canonical, ["_checked_tables"]), (path, walked_again)):
            passes.clear()
            argv = [command, str(instance)] + ([result] if command == "verify" else [])
            outcomes.append((main(argv), *capsys.readouterr()))
            assert passes == steps
        assert outcomes[0] == outcomes[1]


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["symmarriage", "symmarriage.cli"])
    @pytest.mark.parametrize(
        "girl_lists, code", [({"g1": ["b1"]}, 0), ({"g1": ["b1"], "g2": ["b1"]}, 1)]
    )
    def test_same_bytes_and_exit_as_main(self, module, girl_lists, code, tmp_path, capsys):
        path = write_doc(tmp_path, "inst.json", dict(I1_DOC, girl_lists=girl_lists, boy_lists={}))
        assert main(["solve", path]) == code
        expected = capsys.readouterr().out.encode("utf-8")
        src = str(Path(symmarriage.__file__).resolve().parent.parent)
        paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
        done = subprocess.run(
            [sys.executable, "-m", module, "solve", path],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (code, expected, b"")


COLD_START_SCRIPT = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    import symmarriage.cli

    instance, result, generated = sys.argv[1:]
    seen = ["numpy" in sys.modules]
    for argv in (
        ["solve", instance, "--output", result],
        ["verify", instance, result],
        ["check", instance],
        ["gen", "rooks", "--n", "2", "--seed", "1", "--output", generated],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = symmarriage.cli.main(argv)
        seen.append((argv[0], code, "numpy" in sys.modules))
    print(seen)
    """
)


class TestColdStart:
    def test_only_gen_imports_numpy(self, i1_file, tmp_path):
        src = str(Path(symmarriage.__file__).resolve().parent.parent)
        paths = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
        args = [i1_file, str(tmp_path / "result.json"), str(tmp_path / "rooks.json")]
        done = subprocess.run(
            [sys.executable, "-c", COLD_START_SCRIPT, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
            timeout=60,
        )
        # Loaded after import, then after each command: only gen loads numpy.
        assert done.stdout.strip() == repr(
            [False, ("solve", 0, False), ("verify", 0, False), ("check", 0, False), ("gen", 0, True)]
        ), done.stderr


class TestCollectorPause:
    @staticmethod
    def _run_with_collector(enabled, argv):
        """``main``'s exit code, or the exception that escaped it, and the
        collector's state right after, with the collector set to ``enabled``
        beforehand."""
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                outcome = main(argv)
            except KeyError:
                outcome = KeyError
            return outcome, gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_on_every_exit(self, enabled, i1_file, tmp_path, monkeypatch, capsys):
        bad = write_doc(tmp_path, "bad.json", dict(I1_DOC, version=2))
        taken = tmp_path / "taken"
        taken.mkdir()
        assert self._run_with_collector(enabled, ["solve", i1_file]) == (0, enabled)
        assert self._run_with_collector(enabled, ["solve", bad]) == (65, enabled)
        assert self._run_with_collector(enabled, ["solve", i1_file, "--output", str(taken)]) == (
            73,
            enabled,
        )
        assert self._run_with_collector(enabled, ["nonsense"]) == (64, enabled)

        def broken(instance):
            raise InvariantError("stubbed")

        monkeypatch.setattr(cli, "solve", broken)
        assert self._run_with_collector(enabled, ["solve", i1_file]) == (70, enabled)

        def escaping(instance):
            raise KeyError("not handled by main")

        monkeypatch.setattr(cli, "solve", escaping)
        assert self._run_with_collector(enabled, ["solve", i1_file]) == (KeyError, enabled)
        capsys.readouterr()

    def test_paused_while_the_command_runs(self, i1_file, monkeypatch, capsys):
        seen = []

        def recording(instance):
            seen.append(gc.isenabled())
            return solve(instance)

        monkeypatch.setattr(cli, "solve", recording)
        assert self._run_with_collector(True, ["solve", i1_file]) == (0, True)
        assert seen == [False]


class TestParserBuiltOnce:
    def test_one_build_for_many_calls(self, i1_file, tmp_path, monkeypatch, capsys):
        built = []
        real_init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        res = solved_result(tmp_path, i1_file)
        for argv in (
            ["solve", i1_file],
            ["check", i1_file],
            ["verify", i1_file, res],
            ["nonsense"],
            ["--help"],
        ):
            main(argv)
        # One top-level parser; the rest are its subcommand parsers.
        assert built.count("symmarriage") == 1
        assert len(built) == 5
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["gen", "--help"]])
    def test_help_output_unchanged(self, argv, capsys):
        with pytest.raises(SystemExit) as done:
            cli._build_parser.__wrapped__().parse_args(argv)
        assert done.value.code == 0
        fresh = capsys.readouterr()
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr() == fresh

    @pytest.mark.parametrize(
        "argv",
        [[], ["nonsense"], ["solve"], ["solve", "x", "--method", "y"], ["gen", "rooks", "--n", "z"]],
    )
    def test_usage_error_unchanged(self, argv, capsys):
        with pytest.raises(cli._UsageError) as fresh:
            cli._build_parser.__wrapped__().parse_args(argv)
        for _ in range(2):
            assert main(argv) == 64
            assert capsys.readouterr() == ("", f"usage error: {fresh.value}\n")

"""``verify``'s claim check, against the name-level check; the order in
which ``verify`` reports a bad instance and a bad result; and the guard on
a pass that rejects a valid document.

``fileio.claim_problems`` loads the instance as ``solve`` loads it and
checks a pairing or a violator against the kept rosters' place maps and
index rows that load returns, writing every problem it finds with the
claim.  That load is ``solve``'s too; the name-level check loads on its
own, so a fault the two commands share shows here as a difference.  The
name-level check re-derives the claim from the whole instance the
reference load builds, through ``assignment_violations`` or
``reference_violator_problems``.  A
differential test (McKeeman, "Differential testing for software", 1998)
draws documents and claims, solver outputs and forgeries, and holds the
two to the same problems, message for message, or the same error for a
bad document.
"""

import json
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmarriage import (
    Assignment,
    HallViolator,
    Infeasible,
    SmpInstance,
    Unsolvable,
    assignment_violations,
    fileio,
    solve,
)
from symmarriage.cli import main
from symmarriage.fileio import ParseError, ResultDoc, serialize_instance, serialize_result

from .conftest import smp_instances
from .test_cli import (
    LOAD_BASE,
    instance_objects,
    laid_out,
    load_outcome,
    reference_load,
    reference_violator_problems,
)


def named_problems(text, result):
    """The name-level check: the claim re-derived from the reference load."""
    prepared = reference_load(text)
    if result.status == "infeasible":
        if not isinstance(prepared, Infeasible):
            return ["instance survives refusal preprocessing"]
        if prepared.member != result.infeasible_member:
            return [f"preprocessing empties the list of '{prepared.member}', not '{result.infeasible_member}'"]
        return []
    if isinstance(prepared, Infeasible):
        return [f"refusals empty the list of '{prepared.member}'"]
    if result.status == "solved":
        return assignment_violations(prepared, Assignment(result.assignment))
    return reference_violator_problems(prepared, result.violator)


def check_outcome(check, text, result):
    """What a check returns, or the message of the ParseError it raises."""
    try:
        return check(text, result)
    except ParseError as exc:
        return str(exc)


def assert_cleared_alike(text, result):
    """The in-pass check finds the name-level check's problems, in its
    order, and raises the same error for a bad document."""
    problems = check_outcome(lambda t, r: fileio.claim_problems(lambda: t, r), text, result)
    assert problems == check_outcome(named_problems, text, result)
    return problems


def strings(value):
    return [name for name in value if type(name) is str] if type(value) is list else []


def accepts(lists, member, partner):
    """Whether ``member`` is a wildcard or lists ``partner``."""
    return not lists.get(member) or partner in lists[member]


EDITS = ("none", "refused", "unknown", "repeat", "repoint", "drop", "wildcards", "random")


@st.composite
def forged_pairs(draw, pairs, girls, boys, refused, wildcards, lists=({}, {}), edits=EDITS):
    """A solver's pairs, or the pairs edited (one of ``edits``): a refused,
    unknown or repeated name, a pair re-pointed at another pair's boy, a
    pair dropped (a listed member unpaired), a pair of two wildcards added,
    or pairs drawn at random.  ``lists`` are the kept girls' and boys' lists."""
    pairs = list(pairs)
    edit = draw(st.sampled_from(edits))
    if edit == "refused" and pairs and refused:
        i = draw(st.integers(0, len(pairs) - 1))
        name = draw(st.sampled_from(refused))
        pairs[i] = (name, pairs[i][1]) if draw(st.booleans()) else (pairs[i][0], name)
    elif edit == "unknown":
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from([("gz", boys[0]), (girls[0], "bz")])))
    elif edit == "repeat" and pairs:
        g, b = draw(st.sampled_from(pairs))
        pairs.append((g, draw(st.sampled_from(boys))) if draw(st.booleans()) else (draw(st.sampled_from(girls)), b))
    elif edit == "repoint" and len(pairs) > 1:
        girl_lists, boy_lists = lists
        moves = list(permutations(range(len(pairs)), 2))
        # Aimed, where it can be, at a pairing only injectivity rejects: girl
        # i and boy j accept each other, and boys i and j are both listed or
        # both wildcards, so as many listed boys are paired as before.
        aimed = [
            (i, j)
            for i, j in moves
            if accepts(girl_lists, pairs[i][0], pairs[j][1])
            and accepts(boy_lists, pairs[j][1], pairs[i][0])
            and bool(boy_lists.get(pairs[i][1])) == bool(boy_lists.get(pairs[j][1]))
        ]
        i, j = draw(st.sampled_from(aimed or moves))
        pairs[i] = (pairs[i][0], pairs[j][1])
    elif edit == "drop" and pairs:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif edit == "wildcards" and wildcards[0] and wildcards[1]:
        pairs.append((draw(st.sampled_from(wildcards[0])), draw(st.sampled_from(wildcards[1]))))
    elif edit == "random":
        pairs = draw(st.lists(st.tuples(st.sampled_from(girls + refused), st.sampled_from(boys + refused)), max_size=6))
    return tuple(pairs)


@st.composite
def forged_violators(draw, violator, girls, boys, refused):
    """A solver's violator, or one edited: a member repeated, added or
    dropped, the wrong side, the union size off by one; or a violator drawn
    at random."""
    if violator is None or draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(girls + boys + refused), max_size=6))
        return HallViolator(draw(st.sampled_from(["girls", "boys"])), tuple(members), draw(st.integers(0, 6)))
    side, members, size = violator.side, list(violator.members), violator.union_size
    edit = draw(st.sampled_from(["none", "repeat", "add", "drop", "side", "size"]))
    if edit == "repeat":
        members.append(draw(st.sampled_from(members)))
    elif edit == "add":
        members.append(draw(st.sampled_from(girls + boys + refused)))
    elif edit == "drop":
        del members[draw(st.integers(0, len(members) - 1))]
    elif edit == "side":
        side = "boys" if side == "girls" else "girls"
    elif edit == "size":
        size = max(0, size + draw(st.sampled_from([-1, 1])))
    return HallViolator(side, tuple(members), size)


@st.composite
def claimed_documents(draw):
    """A document from ``instance_objects``, laid out, and a pairing, a
    violator or an infeasible member claimed on it: the solver's answer
    when the document is valid and survives its refusals, the member its
    refusals empty when they empty one, or a forgery."""
    doc = draw(instance_objects())
    text = laid_out(draw, doc)
    girls, boys = strings(doc.get("girls")) + ["gz"], strings(doc.get("boys")) + ["bz"]
    refused = strings(doc.get("refusers"))
    want = load_outcome(reference_load, text)
    pairs, violator, wildcards, lists = (), None, ([], []), ({}, {})
    if isinstance(want, SmpInstance):
        outcome = solve(want)
        if isinstance(outcome, Unsolvable):
            violator = outcome.violator
        else:
            pairs, lists = outcome.pairs, (want.girl_lists, want.boy_lists)
            paired = {name for pair in pairs for name in pair}
            wildcards = tuple(
                [m for m, row in lists.items() if not row and m not in paired]
                for lists in (want.girl_lists, want.boy_lists)
            )
    status = draw(st.sampled_from(["solved", "unsolvable", "infeasible"]))
    if status == "solved":
        return text, ResultDoc("solved", assignment=draw(forged_pairs(pairs, girls, boys, refused, wildcards, lists)))
    if status == "unsolvable":
        return text, ResultDoc("unsolvable", violator=draw(forged_violators(violator, girls, boys, refused)))
    emptied = [want.member] if isinstance(want, Infeasible) else []
    return text, ResultDoc("infeasible", infeasible_member=draw(st.sampled_from(emptied + girls + boys)))


# After its refusals (g6, b6) the pairing document keeps g1-g5 and b1-b5:
# g1 lists b1 and b5; g2 lists b2 and b1; g3 lists b3; b1 lists g1, g2
# and g3, so g3 lists b1 only one way; b2 lists g2 and g5; b3 lists g3 and
# g5; b4 lists g4.  g4, g5 and b5 are wildcards.  Each forged pairing below
# has one fault.
PAIRING_DOC = {
    "version": 1,
    "girls": ["g1", "g2", "g3", "g4", "g5", "g6"],
    "boys": ["b1", "b2", "b3", "b4", "b5", "b6"],
    "girl_lists": {"g1": ["b1", "b5", "b6"], "g2": ["b2", "b1"], "g3": ["b3"]},
    "boy_lists": {"b1": ["g1", "g2", "g6", "g3"], "b2": ["g2", "g5"], "b3": ["g3", "g5"], "b4": ["g4"]},
    "refusers": ["b6", "g6"],
}
VALID_PAIRS = (("g1", "b1"), ("g2", "b2"), ("g3", "b3"), ("g4", "b4"))
FORGED_PAIRS = {
    "valid": (VALID_PAIRS, True),
    "no pairs": ((), False),
    "wildcard pair": (VALID_PAIRS + (("g5", "b5"),), True),
    "refused girl with a wildcard": (VALID_PAIRS + (("g6", "b5"),), False),
    "refused boy with a wildcard": (VALID_PAIRS + (("g5", "b6"),), False),
    "unknown girl": (VALID_PAIRS + (("gz", "b5"),), False),
    "unknown boy": (VALID_PAIRS + (("g5", "bz"),), False),
    "girl paired twice": (VALID_PAIRS + (("g4", "b5"),), False),
    "boy paired twice": (VALID_PAIRS + (("g5", "b3"),), False),
    # b3 is paired twice and the listed b4 not at all; every partner is on
    # its row and as many listed members are paired as are listed.
    "boy paired twice, a listed boy unpaired": ((("g1", "b1"), ("g2", "b2"), ("g3", "b3"), ("g5", "b3")), False),
    "listed boy unpaired": (VALID_PAIRS[:3], False),
    "listed girl unpaired": ((("g2", "b1"), ("g5", "b2"), ("g3", "b3"), ("g4", "b4")), False),
    "off the girl's list only": ((("g1", "b5"), ("g2", "b2"), ("g3", "b1"), ("g4", "b4"), ("g5", "b3")), False),
    "off the boy's list only": ((("g1", "b1"), ("g2", "b2"), ("g3", "b3"), ("g5", "b4")), False),
}
# After its refusals (g4, b3) the violator document keeps g1, g2, g3, g5
# and b1, b2, b4: g1 and g2 list b1, which lists them back; g3 lists b4 and
# b2, b4 lists g1 only; g5 and b2 are wildcards.  Pared, {g1, g2} has {b1}
# and {g1, g2, g3} has {b1, b2}.
VIOLATOR_DOC = {
    "version": 1,
    "girls": ["g1", "g2", "g3", "g4", "g5"],
    "boys": ["b1", "b2", "b3", "b4"],
    "girl_lists": {"g1": ["b1", "b3"], "g2": ["b1"], "g3": ["b4", "b2"]},
    "boy_lists": {"b1": ["g1", "g2", "g4"], "b4": ["g1"]},
    "refusers": ["b3", "g4"],
}
FORGED_VIOLATORS = {
    "genuine": (HallViolator("girls", ("g1", "g2"), 1), True),
    "genuine, three members": (HallViolator("girls", ("g1", "g2", "g3"), 2), True),
    "unpared union": (HallViolator("girls", ("g1", "g2", "g3"), 3), False),
    "union one short": (HallViolator("girls", ("g1", "g2"), 0), False),
    "union not smaller": (HallViolator("girls", ("g1",), 1), False),
    "member repeated": (HallViolator("girls", ("g1", "g2", "g2"), 1), False),
    "wrong side": (HallViolator("boys", ("g1", "g2"), 1), False),
    "refused member": (HallViolator("girls", ("g1", "g2", "g4"), 1), False),
    "wildcard member": (HallViolator("girls", ("g1", "g2", "g5"), 1), False),
    "unknown member": (HallViolator("girls", ("g1", "g2", "gz"), 1), False),
    "no members": (HallViolator("girls", (), 0), False),
    "boys' violator": (HallViolator("boys", ("b1", "b4"), 1), False),
}


class TestClaimCheckOracle:
    @given(claimed_documents())
    @settings(deadline=None, max_examples=400)
    def test_same_problems_as_the_name_level_check(self, claim):
        assert_cleared_alike(*claim)

    @given(smp_instances(), st.data())
    @settings(deadline=None, max_examples=200)
    def test_repointed_pairing(self, inst, data):
        # Most valid instances have a pairing long enough to re-point; the
        # documents above seldom do.
        outcome = solve(inst)
        if isinstance(outcome, Assignment):
            lists = (inst.girl_lists, inst.boy_lists)
            edit = forged_pairs(outcome.pairs, list(inst.girls), list(inst.boys), [], ([], []), lists, ("repoint",))
            pairs = data.draw(edit)
            problems = assert_cleared_alike(serialize_instance(inst), ResultDoc("solved", assignment=pairs))
            assert bool(problems) is (pairs != outcome.pairs)

    @pytest.mark.parametrize("case", list(FORGED_PAIRS))
    def test_forged_pairing(self, case, tmp_path, capsys):
        pairs, clear = FORGED_PAIRS[case]
        self.assert_verdict(PAIRING_DOC, ResultDoc("solved", assignment=pairs), clear, tmp_path, capsys)

    @pytest.mark.parametrize("case", list(FORGED_VIOLATORS))
    def test_forged_violator(self, case, tmp_path, capsys):
        violator, clear = FORGED_VIOLATORS[case]
        self.assert_verdict(VIOLATOR_DOC, ResultDoc("unsolvable", violator=violator), clear, tmp_path, capsys)

    @staticmethod
    def assert_verdict(doc, result, clear, tmp_path, capsys):
        text = json.dumps(doc, indent=2)
        problems = assert_cleared_alike(text, result)
        assert (problems == []) is clear
        # verify prints the name-level check's problems, in both layouts the
        # pass reads: refusers last (the walk) and between the list tables
        # (the parsed document).
        lines = "".join(f"invalid: {p}\n" for p in problems) or "valid\n"
        keys = ["version", "girls", "boys", "girl_lists", "refusers", "boy_lists"]
        for name, layout in (("walked", text), ("whole", json.dumps({k: doc[k] for k in keys}))):
            instance, claim = tmp_path / f"{name}.json", tmp_path / "claim.json"
            instance.write_text(layout)
            claim.write_text(serialize_result(result))
            assert main(["verify", str(instance), str(claim)]) == (0 if clear else 1)
            assert capsys.readouterr() == (lines, "")


GOOD_DOC = {"version": 1, "girls": ["g1"], "boys": ["b1"], "girl_lists": {"g1": ["b1"]}, "boy_lists": {}}
BAD_DOC = dict(GOOD_DOC, refusers=["zz"])
EMPTIED_DOC = dict(GOOD_DOC, refusers=["b1"])
SOLVED = '{"status": "solved", "assignment": [["g1", "b1"]]}'
BAD_PAIR = '{"status": "solved", "assignment": [["g1"]]}'


class TestVerifyErrorOrder:
    """verify reads the result first but reports the instance's errors
    before the result's, as it did when it loaded the instance first."""

    def run(self, tmp_path, capsys, doc, result):
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(doc))
        claim = tmp_path / "result.json"
        if result is not None:
            claim.write_text(result)
        code = main(["verify", str(instance), str(claim)])
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("result", [None, "{", BAD_PAIR, SOLVED], ids=["missing", "not JSON", "bad pair", "solved"])
    def test_bad_instance_first(self, result, tmp_path, capsys):
        got = self.run(tmp_path, capsys, BAD_DOC, result)
        assert got == (65, "", "error: unknown refuser 'zz'\n")

    def test_good_instance_missing_result(self, tmp_path, capsys):
        path = tmp_path / "result.json"
        message = f"error: cannot read '{path}': [Errno 2] No such file or directory: '{path}'\n"
        assert self.run(tmp_path, capsys, GOOD_DOC, None) == (65, "", message)

    @pytest.mark.parametrize(
        "result, message",
        [
            ("{", "error: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
            (BAD_PAIR, "error: 'assignment' must be an array of [girl, boy] pairs\n"),
            ('{"status": "solved"}', "error: a solved result must carry exactly 'status' and 'assignment'\n"),
        ],
        ids=["not JSON", "bad pair", "no payload"],
    )
    def test_good_instance_malformed_result(self, result, message, tmp_path, capsys):
        assert self.run(tmp_path, capsys, GOOD_DOC, result) == (65, "", message)

    @pytest.mark.parametrize(
        "result",
        [SOLVED, '{"status": "unsolvable", "violator": {"side": "girls", "members": ["g1"], "union_size": 0}}'],
        ids=["solved", "violator"],
    )
    def test_infeasible_instance_with_a_claim(self, result, tmp_path, capsys):
        got = self.run(tmp_path, capsys, EMPTIED_DOC, result)
        assert got == (1, "invalid: refusals empty the list of 'g1'\n", "")

    def test_infeasible_instance_with_its_infeasible_claim(self, tmp_path, capsys):
        result = '{"status": "infeasible", "infeasible_member": "g1"}'
        assert self.run(tmp_path, capsys, EMPTIED_DOC, result) == (0, "valid\n", "")


class TestPassGuard:
    """A checked pass that rejects a document the name-level checks accept
    is a fault of the program: one ``internal error`` line and exit 70,
    with or without asserts."""

    @pytest.mark.parametrize("command", ["solve", "check", "verify"])
    def test_pass_that_rejects_a_valid_document(self, command, tmp_path, monkeypatch, capsys):
        instance, result = tmp_path / "i.json", tmp_path / "r.json"
        instance.write_text(json.dumps(LOAD_BASE))
        assert main(["solve", str(instance), "--output", str(result)]) == 0
        monkeypatch.setattr(fileio, "_checked_tables", lambda *args: None)
        argv = {
            "solve": ["solve", str(instance)],
            "check": ["check", str(instance)],
            "verify": ["verify", str(instance), str(result)],
        }[command]
        assert main(argv) == 70
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err.startswith("internal error: ")) == ("", 1, True)

"""Instance model: validation, refusals, paring, the one-sided embedding."""


import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from symmarriage import (
    Assignment,
    CmpInstance,
    HallViolator,
    Infeasible,
    RawInstance,
    SmpInstance,
    assignment_violations,
    cmp_to_smp,
    hall_condition_cmp,
    pare_lists,
    preprocess_refusals,
    solve,
    unsolvable_violator,
    validate,
    validate_raw,
)
from symmarriage.fileio import prepare_document, serialize_instance
from symmarriage.instances import IndexView

from .conftest import smp_instances


class TestValidate:
    def test_minimal_wellformed(self):
        inst = SmpInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {})
        assert validate(inst) == []

    def test_dangling_reference(self):
        inst = SmpInstance.build(["g1"], ["b1"], {"g1": ["b2"]}, {})
        assert any("unknown boy 'b2'" in p for p in validate(inst))

    def test_duplicate_girl(self):
        inst = SmpInstance.build(["g1", "g1"], [], {}, {})
        assert any("duplicate girl 'g1'" in p for p in validate(inst))

    def test_unknown_list_key(self):
        inst = SmpInstance.build(["g1"], ["b1"], {"gx": ["b1"]}, {})
        assert any("unknown girl 'gx'" in p for p in validate(inst))

    def test_duplicate_list_entry(self):
        inst = SmpInstance.build(["g1"], ["b1"], {"g1": ["b1", "b1"]}, {})
        assert any("duplicate entry 'b1'" in p for p in validate(inst))

    def test_missing_entry_flagged(self):
        inst = SmpInstance(("g1",), ("b1",), {}, {"b1": ()})
        assert any("missing list entry for girl 'g1'" in p for p in validate(inst))

    def test_raw_refusers_checked(self):
        raw = RawInstance.build(["g1"], ["b1"], {}, {}, ["nobody"])
        assert any("unknown refuser" in p for p in validate_raw(raw))


class TestPreprocessRefusals:
    def test_no_refusers_is_identity(self, i1):
        raw = RawInstance(i1.girls, i1.boys, i1.girl_lists, i1.boy_lists, ())
        assert preprocess_refusals(raw) == i1

    def test_emptied_list_is_infeasible(self):
        raw = RawInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {}, ["b1"])
        assert preprocess_refusals(raw) == Infeasible("g1")

    def test_deletion_rule(self):
        raw = RawInstance.build(
            ["g1", "g2"], ["b1", "b2"], {"g1": ["b1", "b2"]}, {}, ["b1"]
        )
        result = preprocess_refusals(raw)
        assert result == SmpInstance.build(["g1", "g2"], ["b2"], {"g1": ["b2"]}, {})
        assert validate(result) == []

    def test_refuser_with_own_list_vanishes(self):
        raw = RawInstance.build(
            ["g1", "g2"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {"b1": ["g1", "g2"]}, ["g1"]
        )
        result = preprocess_refusals(raw)
        assert isinstance(result, SmpInstance)
        assert result.girls == ("g2",)
        assert result.boy_lists["b1"] == ("g2",)

    @given(smp_instances())
    @settings(deadline=None)
    def test_output_never_mentions_refusers(self, inst):
        assume(inst.girls and inst.boys)
        refusers = (inst.girls[0], inst.boys[-1])
        raw = RawInstance(inst.girls, inst.boys, inst.girl_lists, inst.boy_lists, refusers)
        result = preprocess_refusals(raw)
        if isinstance(result, Infeasible):
            assert result.member not in refusers
            return
        mentioned = set(result.girls) | set(result.boys)
        for lst in list(result.girl_lists.values()) + list(result.boy_lists.values()):
            mentioned.update(lst)
        assert not mentioned & set(refusers)



def reference_validate_raw(raw):
    """The per-entry validation loops, written out once more as the oracle
    for validate_raw."""
    problems = []
    for side, roster in (("girl", raw.girls), ("boy", raw.boys)):
        seen = set()
        for name in roster:
            if name in seen:
                problems.append(f"duplicate {side} '{name}'")
            seen.add(name)
    girl_set, boy_set = set(raw.girls), set(raw.boys)
    for side, roster, roster_set, lists, other_side, other_set in (
        ("girl", raw.girls, girl_set, raw.girl_lists, "boy", boy_set),
        ("boy", raw.boys, boy_set, raw.boy_lists, "girl", girl_set),
    ):
        for name in roster:
            if name not in lists:
                problems.append(f"missing list entry for {side} '{name}'")
        for key in lists:
            if key not in roster_set:
                problems.append(f"unknown {side} '{key}' in {side}_lists")
        for name in roster:
            seen = set()
            for partner in lists.get(name, ()):
                if partner not in other_set:
                    problems.append(f"unknown {other_side} '{partner}' in list of {side} '{name}'")
                if partner in seen:
                    problems.append(f"duplicate entry '{partner}' in list of {side} '{name}'")
                seen.add(partner)
    members = girl_set | boy_set
    seen = set()
    for r in raw.refusers:
        if r not in members:
            problems.append(f"unknown refuser '{r}'")
        if r in seen:
            problems.append(f"duplicate refuser '{r}'")
        seen.add(r)
    return problems


def reference_preprocess_refusals(raw):
    """The table-rebuilding refusal loop, written out once more as the oracle
    for preprocess_refusals."""
    refuse = set(raw.refusers)
    girls = tuple(g for g in raw.girls if g not in refuse)
    boys = tuple(b for b in raw.boys if b not in refuse)
    tables = []
    for roster, lists in ((girls, raw.girl_lists), (boys, raw.boy_lists)):
        table = {}
        for m in roster:
            old = lists.get(m, ())
            new = tuple(p for p in old if p not in refuse)
            if old and not new:
                return Infeasible(m)
            table[m] = new
        tables.append(table)
    return SmpInstance(girls, boys, *tables)


def snapshot(prepared):
    """Everything observable about a preprocessing result, key order included."""
    if isinstance(prepared, Infeasible):
        return prepared
    return (
        prepared.girls,
        prepared.boys,
        list(prepared.girl_lists.items()),
        list(prepared.boy_lists.items()),
    )


GIRL_POOL = ("g1", "g2", "g3", "gx")
BOY_POOL = ("b1", "b2", "b3", "bx")


@st.composite
def malformed_raws(draw):
    """Raw instances that may break every validation rule: duplicate roster
    names, missing or unknown list keys, unknown or repeated partners, and
    unknown or repeated refusers.  Tables are built directly, not through
    ``build``, so a roster member can lack a key and keys can come in any order."""
    girls = tuple(draw(st.lists(st.sampled_from(GIRL_POOL[:3]), max_size=4)))
    boys = tuple(draw(st.lists(st.sampled_from(BOY_POOL[:3]), max_size=4)))

    def table(keys, partners):
        chosen = draw(st.lists(st.sampled_from(keys), unique=True))
        return {
            k: tuple(draw(st.lists(st.sampled_from(partners), max_size=4)))
            for k in chosen
        }

    girl_lists = table(GIRL_POOL, BOY_POOL)
    boy_lists = table(BOY_POOL, GIRL_POOL)
    refusers = tuple(draw(st.lists(st.sampled_from(GIRL_POOL + BOY_POOL), max_size=3)))
    return RawInstance(girls, boys, girl_lists, boy_lists, refusers)


@st.composite
def wellformed_raws(draw):
    """Valid raw instances, with refusers half of the time."""
    inst = draw(smp_instances())
    refusers = ()
    if draw(st.booleans()):
        refusers = tuple(
            draw(st.lists(st.sampled_from(inst.girls + inst.boys), unique=True))
            if inst.girls + inst.boys
            else ()
        )
    return RawInstance(inst.girls, inst.boys, inst.girl_lists, inst.boy_lists, refusers)


class TestValidationOracle:
    @given(st.one_of(malformed_raws(), wellformed_raws()))
    @settings(deadline=None, max_examples=400)
    def test_same_problems_in_same_order(self, raw):
        assert validate_raw(raw) == reference_validate_raw(raw)

    def test_every_rule_reported_in_loop_order(self):
        raw = RawInstance(
            ("g1", "g1", "g2"),
            ("b1",),
            {"g2": ("b1", "bx", "b1"), "gx": ("b1",), "g1": ("b1",)},
            {"b1": ("g2", "gy")},
            ("b1", "zz", "b1"),
        )
        assert validate_raw(raw) == reference_validate_raw(raw) == [
            "duplicate girl 'g1'",
            "unknown girl 'gx' in girl_lists",
            "unknown boy 'bx' in list of girl 'g2'",
            "duplicate entry 'b1' in list of girl 'g2'",
            "unknown girl 'gy' in list of boy 'b1'",
            "unknown refuser 'zz'",
            "duplicate refuser 'b1'",
        ]


class TestRefusalOracle:
    @given(st.one_of(malformed_raws(), wellformed_raws()))
    # An unknown list key, a repeated roster name, and tables keyed out of
    # roster order.
    @example(RawInstance(("g1",), ("b1",), {"g1": ("b1",), "gx": ("b1",)}, {"b1": ()}))
    @example(RawInstance(("g1", "g1"), ("b1",), {"g1": ("b1",)}, {"b1": ()}))
    @example(RawInstance(("g1", "g2"), (), {"g2": (), "g1": ()}, {}))
    @settings(deadline=None, max_examples=400)
    def test_same_result_as_rebuilding_loop(self, raw):
        assert snapshot(preprocess_refusals(raw)) == snapshot(reference_preprocess_refusals(raw))

    def test_rows_without_a_refuser_are_reused(self):
        raw = RawInstance.build(
            ["g1", "g2", "g3"],
            ["b1", "b2", "b3"],
            {"g3": ["b1", "b2"], "g1": ["b2"], "g2": ["b3"]},
            {"b2": ["g1", "g2"], "b1": ["g3"]},
            ["b3", "g2"],
        )
        prepared = preprocess_refusals(raw)
        assert snapshot(prepared) == snapshot(reference_preprocess_refusals(raw)) == (
            ("g1", "g3"),
            ("b1", "b2"),
            [("g1", ("b2",)), ("g3", ("b1", "b2"))],
            [("b1", ("g3",)), ("b2", ("g1",))],
        )

    @pytest.mark.parametrize(
        "refusers, member",
        [(["b1"], "g2"), (["g3"], "b2"), (["b1", "g3"], "g2"), (["b2", "g1"], "b1")],
    )
    def test_first_emptied_list_girls_before_boys(self, refusers, member):
        raw = RawInstance.build(
            ["g1", "g2", "g3"],
            ["b1", "b2"],
            {"g1": ["b1", "b2"], "g2": ["b1"]},
            {"b2": ["g3"], "b1": ["g1"]},
            refusers,
        )
        assert preprocess_refusals(raw) == reference_preprocess_refusals(raw) == Infeasible(member)


def reference_index_caches(inst):
    """The index caches as per-entry generators, kept as the oracle for the
    C-level maps."""
    girl_index = {g: i for i, g in enumerate(inst.girls)}
    boy_index = {b: i for i, b in enumerate(inst.boys)}
    girl_rows = tuple(tuple(boy_index[b] for b in inst.girl_lists[g]) for g in inst.girls)
    boy_rows = tuple(tuple(girl_index[g] for g in inst.boy_lists[b]) for b in inst.boys)
    return {
        "girl_index": list(girl_index.items()),
        "boy_index": list(boy_index.items()),
        "girl_lists_idx": girl_rows,
        "boy_lists_idx": boy_rows,
        "girl_list_sets": tuple(frozenset(row) for row in girl_rows),
        "boy_list_sets": tuple(frozenset(row) for row in boy_rows),
        "listed_girl_idx": tuple(i for i, row in enumerate(girl_rows) if row),
        "listed_boy_idx": tuple(i for i, row in enumerate(boy_rows) if row),
    }


def index_caches(inst):
    caches = {name: getattr(inst, name) for name in reference_index_caches(inst)}
    caches["girl_index"] = list(caches["girl_index"].items())
    caches["boy_index"] = list(caches["boy_index"].items())
    return caches


# The reads an IndexView holds or derives from its rows.
VIEW_READS = (
    "girl_lists_idx",
    "boy_lists_idx",
    "girl_list_sets",
    "boy_list_sets",
    "listed_girl_idx",
    "listed_boy_idx",
)


class TestIndexCacheOracle:
    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_same_caches_as_generators(self, inst):
        assert index_caches(inst) == reference_index_caches(inst)

    @given(smp_instances())
    @settings(deadline=None, max_examples=300)
    def test_loaded_view_derives_the_same_reads(self, inst):
        view = prepare_document(lambda: serialize_instance(inst))
        assert type(view) is IndexView
        reference = reference_index_caches(inst)
        assert {name: getattr(view, name) for name in VIEW_READS} == {
            name: reference[name] for name in VIEW_READS
        }

    def test_repeated_roster_name_keeps_its_last_index(self):
        inst = SmpInstance.build(["g1", "g2", "g1"], ["b1"], {"g1": ["b1"]}, {"b1": ["g1"]})
        assert index_caches(inst) == reference_index_caches(inst)
        assert inst.girl_index == {"g1": 2, "g2": 1}

def listed_names(inst):
    """The girls and boys who hold lists, in roster order."""
    return (
        tuple(inst.girls[g] for g in inst.listed_girl_idx),
        tuple(inst.boys[b] for b in inst.listed_boy_idx),
    )


class TestListedSets:
    def test_all_wildcards(self):
        inst = SmpInstance.build(["g1"], ["b1"], {}, {})
        assert listed_names(inst) == ((), ())

    def test_cmp_shape(self):
        inst = SmpInstance.build(["g1", "g2"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {})
        assert listed_names(inst) == (("g1", "g2"), ())

    def test_i1(self, i1):
        assert listed_names(i1) == (("g1",), ("b1",))


class TestListCompatible:
    """Between two listed members, paring keeps exactly the mutual entries."""

    def test_mutual(self):
        inst = SmpInstance.build(["g"], ["b"], {"g": ["b"]}, {"b": ["g"]})
        assert pare_lists(inst) == ({"g": ("b",)}, {"b": ("g",)})

    def test_one_sided(self):
        inst = SmpInstance.build(["g", "h"], ["b"], {"g": ["b"]}, {"b": ["h"]})
        by_girl, by_boy = pare_lists(inst)
        assert by_girl["g"] == () and by_boy["b"] == ("h",)

    def test_i3_all_mutual(self, i3):
        by_girl, by_boy = pare_lists(i3)
        for g in i3.girls:
            for b in i3.boys:
                assert b in by_girl[g] and g in by_boy[b]


class TestPareLists:
    def test_i1(self, i1):
        by_girl, by_boy = pare_lists(i1)
        assert by_girl == {"g1": ("b2",)}
        assert by_boy == {"b1": ("g2",)}

    def test_no_boy_listed_keeps_girl_lists(self):
        inst = SmpInstance.build(
            ["g1", "g2"], ["b1", "b2"], {"g1": ["b1"], "g2": ["b1", "b2"]}, {}
        )
        by_girl, by_boy = pare_lists(inst)
        assert by_girl == {"g1": ("b1",), "g2": ("b1", "b2")}
        assert by_boy == {}

    def test_i3_all_mutual(self, i3):
        by_girl, by_boy = pare_lists(i3)
        assert by_girl == {g: i3.girl_lists[g] for g in i3.girls}
        assert by_boy == {b: i3.boy_lists[b] for b in i3.boys}

    @given(smp_instances())
    @settings(deadline=None)
    def test_pared_is_subset(self, inst):
        by_girl, by_boy = pare_lists(inst)
        for g, row in by_girl.items():
            assert set(row) <= set(inst.girl_lists[g])
        for b, row in by_boy.items():
            assert set(row) <= set(inst.boy_lists[b])

    @given(smp_instances())
    @settings(deadline=None)
    def test_paring_symmetric_on_mutual_pairs(self, inst):
        by_girl, by_boy = pare_lists(inst)
        listed_b = set(by_boy)
        listed_g = set(by_girl)
        for g in by_girl:
            for b in by_girl[g]:
                if b in listed_b:
                    assert g in by_boy[b]
        for b in by_boy:
            for g in by_boy[b]:
                if g in listed_g:
                    assert b in by_girl[g]

    @given(smp_instances())
    @settings(deadline=None)
    def test_idempotent_when_pared_lists_stay_nonempty(self, inst):
        by_girl, by_boy = pare_lists(inst)
        assume(all(by_girl.values()) and all(by_boy.values()))
        again = SmpInstance.build(inst.girls, inst.boys, by_girl, by_boy)
        assert pare_lists(again) == (by_girl, by_boy)


class TestCmpSubproblems:
    """The one-sided subproblems over pared lists, as the certificate sees them."""

    def test_i1(self, i1):
        assert unsolvable_violator(i1) is None

    def test_all_wildcards_vacuous(self):
        inst = SmpInstance.build(["g1"], ["b1"], {}, {})
        assert pare_lists(inst) == ({}, {})
        assert unsolvable_violator(inst) is None

    def test_empty_pared_list_flagged(self):
        inst = SmpInstance.build(
            ["g1", "g2"], ["b1"], {"g1": ["b1"]}, {"b1": ["g2"]}
        )
        assert unsolvable_violator(inst) == HallViolator("girls", ("g1",), 0)


@st.composite
def symmetric_introductions(draw, max_side: int = 5):
    """Equal sides, every list nonempty, each side listing the other mutually."""
    n = draw(st.integers(1, max_side))
    rows = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        for _ in range(n)
    ]
    assume(all(any(j in row for row in rows) for j in range(n)))
    girls = tuple(f"g{i + 1}" for i in range(n))
    boys = tuple(f"b{j + 1}" for j in range(n))
    girl_lists = {girls[i]: tuple(boys[j] for j in sorted(row)) for i, row in enumerate(rows)}
    boy_lists = {
        boys[j]: tuple(girls[i] for i, row in enumerate(rows) if j in row) for j in range(n)
    }
    return SmpInstance.build(girls, boys, girl_lists, boy_lists)


class TestBabyToCmp:
    """A symmetric-introductions instance is its girls' one-sided instance."""

    def test_symmetric_singleton(self):
        inst = SmpInstance.build(["g1"], ["b1"], {"g1": ["b1"]}, {"b1": ["g1"]})
        assert solve(inst) == Assignment((("g1", "b1"),))
        assert hall_condition_cmp(CmpInstance(inst.girls, inst.boys, inst.girl_lists)) is None

    @given(symmetric_introductions())
    @settings(deadline=None, max_examples=300)
    def test_solves_iff_girls_satisfy_hall(self, inst):
        cmp = CmpInstance(inst.girls, inst.boys, dict(inst.girl_lists))
        solved = isinstance(solve(inst), Assignment)
        assert solved == (hall_condition_cmp(cmp) is None)


class TestCmpToSmp:
    def test_singleton(self):
        cmp = CmpInstance(("g1",), ("b1",), {"g1": ("b1",)})
        inst = cmp_to_smp(cmp)
        assert inst.girl_lists["g1"] == ("b1",)
        assert inst.boy_lists["b1"] == ()

    def test_listed_sets_roundtrip(self):
        cmp = CmpInstance(("x", "y"), ("p", "q"), {"x": ("p",), "y": ("p", "q")})
        assert listed_names(cmp_to_smp(cmp)) == (cmp.left, ())

    def test_subproblems_recover_cmp(self):
        cmp = CmpInstance(("x", "y"), ("p", "q"), {"x": ("p",), "y": ("p", "q")})
        assert pare_lists(cmp_to_smp(cmp)) == (cmp.lists, {})


class TestAssignmentViolations:
    def test_valid_solution_passes(self, i1):
        assert assignment_violations(i1, Assignment((("g1", "b2"), ("g2", "b1")))) == []

    def test_off_list_pair_rejected(self, i1):
        bad = Assignment((("g1", "b1"), ("g2", "b2")))
        assert any("not on the list" in p for p in assignment_violations(i1, bad))

    def test_uncovered_listed_member_rejected(self, i1):
        bad = Assignment((("g1", "b2"),))
        assert any("listed boy 'b1'" in p for p in assignment_violations(i1, bad))

    def test_duplicates_rejected(self, i3):
        bad = Assignment((("g1", "b1"), ("g1", "b2")))
        assert any("paired twice" in p for p in assignment_violations(i3, bad))

    def test_unknown_member_rejected(self, i1):
        bad = Assignment((("gx", "b1"),))
        assert any("unknown girl" in p for p in assignment_violations(i1, bad))

    def test_unknown_list_key_is_no_member(self):
        # SmpInstance.build keeps a list keyed by a name on no roster; pairing
        # that name is still an unknown member.
        inst = SmpInstance.build(("g1",), ("b1",), {"gz": ("b1",)}, {})
        assert assignment_violations(inst, Assignment((("gz", "b1"),))) == [
            "unknown girl 'gz' in assignment"
        ]


def reference_assignment_violations(instance, assignment):
    """The per-pair loop, kept as the oracle for the all-clear test."""
    problems = []
    girl_set = set(instance.girls)
    boy_set = set(instance.boys)
    seen_g = set()
    seen_b = set()
    for g, b in assignment.pairs:
        if g not in girl_set:
            problems.append(f"unknown girl '{g}' in assignment")
            continue
        if b not in boy_set:
            problems.append(f"unknown boy '{b}' in assignment")
            continue
        if g in seen_g:
            problems.append(f"girl '{g}' paired twice")
        if b in seen_b:
            problems.append(f"boy '{b}' paired twice")
        seen_g.add(g)
        seen_b.add(b)
        girl_list = instance.girl_lists[g]
        boy_list = instance.boy_lists[b]
        if girl_list and b not in girl_list:
            problems.append(f"boy '{b}' is not on the list of girl '{g}'")
        if boy_list and g not in boy_list:
            problems.append(f"girl '{g}' is not on the list of boy '{b}'")
    for g in instance.girls:
        if instance.girl_lists[g] and g not in seen_g:
            problems.append(f"listed girl '{g}' left unpaired")
    for b in instance.boys:
        if instance.boy_lists[b] and b not in seen_b:
            problems.append(f"listed boy '{b}' left unpaired")
    return problems


@st.composite
def forged_claims(draw):
    """An instance and a pairing to check: a solver's pairing, that pairing
    with one pair dropped, added or re-partnered, or pairs drawn at random,
    any of them naming members on no roster; the instance may carry a list
    keyed by a name on no roster."""
    inst = draw(smp_instances())
    girls, boys = inst.girls + ("gz",), inst.boys + ("bz",)
    outcome = solve(inst)
    pairs = list(outcome.pairs) if isinstance(outcome, Assignment) else []
    edit = draw(st.sampled_from(["none", "drop", "add", "repartner", "random"]))
    pair = st.tuples(st.sampled_from(girls), st.sampled_from(boys))
    if edit == "drop" and pairs:
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif edit == "add":
        pairs.insert(draw(st.integers(0, len(pairs))), draw(pair))
    elif edit == "repartner" and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(boys)))
    elif edit == "random":
        pairs = draw(st.lists(pair, max_size=6))
    if draw(st.booleans()):
        stray = draw(st.lists(st.sampled_from(boys), min_size=1, max_size=2, unique=True))
        inst = SmpInstance.build(inst.girls, inst.boys, dict(inst.girl_lists, gz=tuple(stray)), inst.boy_lists)
    return inst, Assignment(tuple(pairs))


# Girl g1 and boy b3 list each other one way only, so a pair can be off
# either side's list alone; g4 and b4 are wildcards.
FORGE = SmpInstance.build(
    ("g1", "g2", "g3", "g4"),
    ("b1", "b2", "b3", "b4"),
    {"g1": ("b2",), "g3": ("b3",)},
    {"b1": ("g2",), "b3": ("g3", "g1")},
)
VALID = (("g1", "b2"), ("g2", "b1"), ("g3", "b3"))
FORGED_PAIRINGS = {
    "valid": (VALID, True),
    "wildcard pair": (VALID + (("g4", "b4"),), True),
    "unknown names": (VALID + (("gz", "b9"), ("g4", "bz")), False),
    "repeats": (VALID + (("g3", "b2"), ("g1", "b3")), False),
    "off the girl's list": ((("g1", "b3"), ("g2", "b1"), ("g3", "b2")), False),
    "off the boy's list": ((("g1", "b2"), ("g2", "b3"), ("g3", "b1")), False),
    "listed members unpaired": (VALID[:2], False),
}


class TestAssignmentViolationsOracle:
    @given(forged_claims())
    @settings(deadline=None, max_examples=600)
    def test_same_problems_as_per_pair_loop(self, claim):
        inst, assignment = claim
        assert assignment_violations(inst, assignment) == reference_assignment_violations(inst, assignment)

    @pytest.mark.parametrize("case", list(FORGED_PAIRINGS))
    def test_forged_pairings(self, case):
        pairs, clear = FORGED_PAIRINGS[case]
        assignment = Assignment(pairs)
        expected = reference_assignment_violations(FORGE, assignment)
        assert assignment_violations(FORGE, assignment) == expected
        assert (expected == []) == clear

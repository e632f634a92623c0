"""Instance model: validation, refusals, paring, the one-sided embedding."""

import pytest
from hypothesis import assume, given, settings
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

"""Instance model for two-sided matching with hard preference lists.

A symmetric marriage problem (SMP) instance pairs a roster of girls with a
roster of boys.  Anyone may declare a list of acceptable partners from the
other side.  Declaring no list makes a person a wildcard: they are content
to be paired with anyone who lists them, or to stay unpaired.  A solution
is an injective partial pairing that covers every listed person and
respects every list on both sides.  The classical marriage problem (CMP)
behind Hall's theorem is the one-sided special case in which every girl
has a list and no boy does.

Identifiers are opaque strings at the API and file boundary; solvers map
them to dense indices internally and translate results back.  Instances
are immutable after construction and every operation here is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Mapping


def _normalize_lists(
    members: tuple[str, ...], lists: Mapping[str, Iterable[str]] | None
) -> dict[str, tuple[str, ...]]:
    # Missing entries become wildcards; unknown keys are kept so that
    # validate() can report them instead of silently dropping data.
    table: dict[str, tuple[str, ...]] = {m: () for m in members}
    for key, values in dict(lists or {}).items():
        table[key] = tuple(values)
    return table


class IndexRows:
    """The reads the core derives from an instance's index rows.

    A subclass holds the rosters ``girls`` and ``boys`` and the rows
    ``girl_lists_idx`` and ``boy_lists_idx``: one per roster member, in
    roster order, holding the other side's indices (empty for a wildcard).
    Each read is built once, by C-level maps over whole rows.
    """

    girls: tuple[str, ...]
    boys: tuple[str, ...]
    girl_lists_idx: tuple[tuple[int, ...], ...]
    boy_lists_idx: tuple[tuple[int, ...], ...]

    @cached_property
    def girl_list_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.girl_lists_idx))

    @cached_property
    def boy_list_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.boy_lists_idx))

    @cached_property
    def listed_girl_idx(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.girls)), self.girl_lists_idx))

    @cached_property
    def listed_boy_idx(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.boys)), self.boy_lists_idx))


@dataclass(frozen=True)
class IndexView(IndexRows):
    """An instance as the core reads it: the rosters and the index rows,
    with no name tables.  The solve and check loaders build one; verify
    checks its claim against the same load's rows and builds none."""

    girls: tuple[str, ...]
    boys: tuple[str, ...]
    girl_lists_idx: tuple[tuple[int, ...], ...]
    boy_lists_idx: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SmpInstance(IndexRows):
    """A two-sided instance: rosters plus per-person lists.

    ``girl_lists[g]`` holds the boys girl ``g`` is willing to be paired
    with, in declaration order; the empty tuple means ``g`` has no list
    (wildcard).  ``boy_lists`` mirrors this for the boys.
    """

    girls: tuple[str, ...]
    boys: tuple[str, ...]
    girl_lists: dict[str, tuple[str, ...]]
    boy_lists: dict[str, tuple[str, ...]]

    @classmethod
    def build(
        cls,
        girls: Iterable[str],
        boys: Iterable[str],
        girl_lists: Mapping[str, Iterable[str]] | None = None,
        boy_lists: Mapping[str, Iterable[str]] | None = None,
    ) -> "SmpInstance":
        """Normalize rosters and lists; omitted list entries become wildcards."""
        g = tuple(girls)
        b = tuple(boys)
        return cls(g, b, _normalize_lists(g, girl_lists), _normalize_lists(b, boy_lists))

    # Index caches below assume a valid instance (no dangling references).
    # Each is built from the name tables by C-level maps over whole rows,
    # with no Python step per list entry.  The solve and check loaders build
    # an IndexView instead, and verify builds none of the caches.

    @cached_property
    def girl_index(self) -> dict[str, int]:
        return dict(zip(self.girls, range(len(self.girls))))

    @cached_property
    def boy_index(self) -> dict[str, int]:
        return dict(zip(self.boys, range(len(self.boys))))

    @cached_property
    def girl_lists_idx(self) -> tuple[tuple[int, ...], ...]:
        return _index_rows(map(self.girl_lists.__getitem__, self.girls), self.boy_index)

    @cached_property
    def boy_lists_idx(self) -> tuple[tuple[int, ...], ...]:
        return _index_rows(map(self.boy_lists.__getitem__, self.boys), self.girl_index)


def _index_rows(rows: Iterable[Iterable[str]], other: Mapping[str, int]) -> tuple[tuple[int, ...], ...]:
    """Each row's names as the other side's places, through ``other``: an
    instance's index cache, or the place map a load checked the rows
    against (where a refused name, never left on a kept row, maps to None)."""
    return tuple(map(tuple, map(map, repeat(other.__getitem__), rows)))


@dataclass(frozen=True)
class RawInstance:
    """An instance as read from a file, before refusals are applied."""

    girls: tuple[str, ...]
    boys: tuple[str, ...]
    girl_lists: dict[str, tuple[str, ...]]
    boy_lists: dict[str, tuple[str, ...]]
    refusers: tuple[str, ...] = ()

    @classmethod
    def build(
        cls,
        girls: Iterable[str],
        boys: Iterable[str],
        girl_lists: Mapping[str, Iterable[str]] | None = None,
        boy_lists: Mapping[str, Iterable[str]] | None = None,
        refusers: Iterable[str] = (),
    ) -> "RawInstance":
        g = tuple(girls)
        b = tuple(boys)
        return cls(
            g, b, _normalize_lists(g, girl_lists), _normalize_lists(b, boy_lists), tuple(refusers)
        )


@dataclass(frozen=True)
class CmpInstance:
    """One-sided instance: every left member holds a nonempty list over ``right``."""

    left: tuple[str, ...]
    right: tuple[str, ...]
    lists: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class Assignment:
    """An injective partial pairing, stored as (girl, boy) pairs in girl order."""

    pairs: tuple[tuple[str, str], ...]


class InvariantError(AssertionError):
    """An internal invariant guarding an answer failed; the answer is not trusted.

    Raised explicitly rather than by ``assert``, so the check survives
    ``python -O``.
    """


@dataclass(frozen=True)
class Infeasible:
    """Refusal preprocessing emptied this member's list; no solution can exist."""

    member: str


def validate(instance: SmpInstance) -> list[str]:
    """Return every invariant violation; the empty list means well formed."""
    problems: list[str] = []
    girl_set = set(instance.girls)
    boy_set = set(instance.boys)
    for side, roster in (("girl", instance.girls), ("boy", instance.boys)):
        seen: set[str] = set()
        for name in roster:
            if name in seen:
                problems.append(f"duplicate {side} '{name}'")
            seen.add(name)
    _validate_lists(problems, "girl", instance.girls, girl_set, instance.girl_lists, "boy", boy_set)
    _validate_lists(problems, "boy", instance.boys, boy_set, instance.boy_lists, "girl", girl_set)
    return problems


def _validate_lists(problems, side, roster, roster_set, lists, other_side, other_set):
    for name in roster:
        if name not in lists:
            problems.append(f"missing list entry for {side} '{name}'")
    for key in lists:
        if key not in roster_set:
            problems.append(f"unknown {side} '{key}' in {side}_lists")
    for name in roster:
        seen: set[str] = set()
        for partner in lists.get(name, ()):
            if partner not in other_set:
                problems.append(f"unknown {other_side} '{partner}' in list of {side} '{name}'")
            if partner in seen:
                problems.append(f"duplicate entry '{partner}' in list of {side} '{name}'")
            seen.add(partner)


def validate_raw(raw: RawInstance) -> list[str]:
    """Validate the underlying instance plus the refusers field."""
    problems = validate(SmpInstance(raw.girls, raw.boys, raw.girl_lists, raw.boy_lists))
    members = set(raw.girls) | set(raw.boys)
    seen: set[str] = set()
    for r in raw.refusers:
        if r not in members:
            problems.append(f"unknown refuser '{r}'")
        if r in seen:
            problems.append(f"duplicate refuser '{r}'")
        seen.add(r)
    return problems


def preprocess_refusals(raw: RawInstance) -> SmpInstance | Infeasible:
    """Delete refusers from the rosters and from everyone's lists.

    A surviving member whose originally nonempty list becomes empty has
    requirements that cannot be met: the result is ``Infeasible`` naming the
    first such member (girls before boys, roster order).  Lists emptied this
    way are never silently turned into wildcards.
    """
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


def pared_index_lists(
    instance: IndexRows,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Index-level paring of both sides, girls first: one row per roster
    member, empty rows for wildcards.

    A listed partner stays on a list only when the two are on each other's
    lists; unlisted partners always stay.
    """
    rows_g, sets_g = instance.girl_lists_idx, instance.girl_list_sets
    rows_b, sets_b = instance.boy_lists_idx, instance.boy_list_sets
    return (
        tuple(tuple(b for b in r if not rows_b[b] or g in sets_b[b]) for g, r in enumerate(rows_g)),
        tuple(tuple(g for g in r if not rows_g[g] or b in sets_g[g]) for b, r in enumerate(rows_b)),
    )


def pare_lists(
    instance: SmpInstance,
) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """Drop one-sidedly listed, incompatible partners from every list.

    Returns one table per side, keyed by the listed members only.  A pared
    list may come back empty, in which case the instance is unsolvable.
    """
    pared_g, pared_b = pared_index_lists(instance)
    girls, boys = instance.girls, instance.boys
    by_girl = {
        girls[g]: tuple(boys[b] for b in pared_g[g]) for g in instance.listed_girl_idx
    }
    by_boy = {
        boys[b]: tuple(girls[g] for g in pared_b[b]) for b in instance.listed_boy_idx
    }
    return by_girl, by_boy


def cmp_to_smp(cmp: CmpInstance) -> SmpInstance:
    """Embed a one-sided instance: left members become listed girls, right
    members become wildcard boys."""
    return SmpInstance.build(cmp.left, cmp.right, dict(cmp.lists), None)


def assignment_violations(instance: SmpInstance, assignment: Assignment) -> list[str]:
    """Independently check an assignment against the solution contract.

    Checks membership, injectivity on both sides, coverage of every listed
    member, and list membership in both directions.  Pairs between two
    wildcards are allowed (nothing constrains them), though solvers never
    emit them.
    """
    problems: list[str] = []
    girl_set = set(instance.girls)
    boy_set = set(instance.boys)
    seen_g: set[str] = set()
    seen_b: set[str] = set()
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


"""Exponential-time ground-truth deciders.

These are the reference answers the fast solvers are tested against: the
classic subset condition for one-sided instances, its two-sided variant
over pared lists, and an exhaustive backtracking solver.  All three carry
hard size guards; they exist for correctness, not throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .instances import Assignment, CmpInstance, IndexRows, SmpInstance, pared_index_lists

SUBSET_GUARD = 20
BACKTRACK_GUARD = 8


class SizeLimitError(Exception):
    """Instance exceeds the enumeration guard of a brute-force decider."""


@dataclass(frozen=True)
class HallViolator:
    """A subset of one side whose pared lists cover too few partners.

    ``union_size`` is the size of the union of the members' pared lists and
    is strictly smaller than the subset; it can be recomputed from the
    instance, so violators are self-checking certificates of unsolvability.
    """

    side: str
    members: tuple[str, ...]
    union_size: int


def _first_violator(
    names: tuple[str, ...], masks: list[int], side: str
) -> HallViolator | None:
    # Subsets enumerated by size ascending, then lexicographically by
    # position, so the smallest violator is reported first.
    for k in range(1, len(names) + 1):
        for combo in combinations(range(len(names)), k):
            union = 0
            for i in combo:
                union |= masks[i]
            count = union.bit_count()
            if count < k:
                return HallViolator(side, tuple(names[i] for i in combo), count)
    return None


def hall_condition_cmp(cmp: CmpInstance) -> HallViolator | None:
    """Check the marriage condition on a one-sided instance by enumeration.

    Returns None when every subset of left members has at least as many
    distinct list entries as members, else the first violating subset.  The
    left side plays the girls' role in the returned certificate.
    """
    if len(cmp.left) > SUBSET_GUARD:
        raise SizeLimitError(f"left side has {len(cmp.left)} members (limit {SUBSET_GUARD})")
    right_index = {r: i for i, r in enumerate(cmp.right)}
    masks = []
    for member in cmp.left:
        mask = 0
        for r in cmp.lists[member]:
            mask |= 1 << right_index[r]
        masks.append(mask)
    return _first_violator(cmp.left, masks, "girls")


def hall_bicriteria(instance: IndexRows) -> HallViolator | None:
    """Check the two-sided subset condition over pared lists.

    Every subset of listed girls must have pared lists covering at least as
    many boys, and symmetrically for listed boys; the instance is solvable
    exactly when both hold.  The girls' condition is checked first.
    """
    listed_g = instance.listed_girl_idx
    listed_b = instance.listed_boy_idx
    if len(listed_g) > SUBSET_GUARD or len(listed_b) > SUBSET_GUARD:
        raise SizeLimitError(
            f"{len(listed_g)} listed girls / {len(listed_b)} listed boys (limit {SUBSET_GUARD})"
        )
    pared_g, pared_b = pared_index_lists(instance)
    girl_masks = [sum(1 << b for b in pared_g[g]) for g in listed_g]
    girl_names = tuple(instance.girls[g] for g in listed_g)
    violator = _first_violator(girl_names, girl_masks, "girls")
    if violator is not None:
        return violator
    boy_masks = [sum(1 << g for g in pared_b[b]) for b in listed_b]
    boy_names = tuple(instance.boys[b] for b in listed_b)
    return _first_violator(boy_names, boy_masks, "boys")


def oracle_solve(instance: SmpInstance) -> Assignment | None:
    """Exhaustive backtracking over injective partial pairings.

    Girls are decided in roster order; a listed girl tries her list in
    order (skipping listed boys who do not list her back), a wildcard girl
    first stays unpaired and then tries the listed boys who list her.  The
    first complete pairing covering every listed boy is returned, so the
    result is canonical.  Wildcard-to-wildcard pairs are never formed; any
    solution containing one remains a solution without it.
    """
    if len(instance.girls) > BACKTRACK_GUARD or len(instance.boys) > BACKTRACK_GUARD:
        raise SizeLimitError(
            f"{len(instance.girls)}x{len(instance.boys)} exceeds the backtracking "
            f"limit of {BACKTRACK_GUARD}"
        )
    girls = instance.girls
    listed_boys = [b for b in instance.boys if instance.boy_lists[b]]
    boy_sets = {b: set(instance.boy_lists[b]) for b in listed_boys}
    used: set[str] = set()
    choice: list[str | None] = [None] * len(girls)

    def candidates(i: int):
        g = girls[i]
        own = instance.girl_lists[g]
        if own:
            for b in own:
                if b not in used and (b not in boy_sets or g in boy_sets[b]):
                    yield b
        else:
            yield None
            for b in listed_boys:
                if b not in used and g in boy_sets[b]:
                    yield b

    def search(i: int) -> bool:
        if i == len(girls):
            return all(b in used for b in listed_boys)
        for b in candidates(i):
            choice[i] = b
            if b is None:
                if search(i + 1):
                    return True
            else:
                used.add(b)
                if search(i + 1):
                    return True
                used.remove(b)
        choice[i] = None
        return False

    if not search(0):
        return None
    pairs = tuple((girls[i], choice[i]) for i in range(len(girls)) if choice[i] is not None)
    return Assignment(pairs)

"""Seeded instance families for the end-to-end benchmark.

Each workload turns a seed into one instance document; the same seed gives
the same bytes.  Every family gives each listed member a *planted partner*:
a distinct wildcard on the other side that is one of the member's own
draws.  The planted pairs form a valid pairing, so reciprocal-repair is
solvable for every seed and planted-unsolvable fails only through its
plant.  Everything else is drawn uniformly.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``reciprocal-repair``: 5k x 5k, half listed, each listed member draws 5
  partners (4 uniform plus the planted one) and a drawn listed partner
  lists back with probability 0.8.  Many compatible pairs make the two star
  components disagree, so mismatch repair dominates.
* ``planted-unsolvable``: a sparse 20k x 20k base (exactly half of each
  side listed, 20 distinct entries per list: 19 uniform draws plus the
  planted partner, so list-compatible pairs are rare and the front half of
  the pipeline dominates the decision) plus 201 listed boys whose 20-entry
  lists draw only from 200 wildcard girls (a boys-side Hall violator), and
  1% refusers drawn among the listed members outside the plant.  Refusals
  never empty a list, because no planted partner and no plant girl is ever
  a refuser.

The self-checks raise :class:`SelfCheckError` and never resample: a seed
whose instance fails one is reported, not replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from symmarriage.bipartite import max_matching
from symmarriage.instances import SmpInstance
from symmarriage.star import build_star_graph, find_mismatches

SPARSE_N = 20_000
SPARSE_DRAWS = 20
RECIPROCAL_N = 5_000
RECIPROCAL_DRAWS = 5
RECIPROCAL_LIST_BACK = 0.8
PLANT_GIRLS = 200
PLANT_BOYS = PLANT_GIRLS + 1
REFUSER_SHARE = 0.01

_STREAMS = {"reciprocal-repair": 1, "planted-unsolvable": 2}


class SelfCheckError(Exception):
    """A generated instance does not have the structure its workload claims."""


@dataclass(frozen=True)
class Generated:
    """One instance in index form, with the structure the self-checks test.

    ``girl_lists[g]``/``boy_lists[b]`` hold sorted partner indices for the
    listed members only.  ``partner_of_girl``/``partner_of_boy`` map each
    listed member to its planted wildcard partner; members of the plant
    have none.
    """

    workload: str
    n: int
    girl_lists: dict[int, list[int]]
    boy_lists: dict[int, list[int]]
    partner_of_girl: dict[int, int]
    partner_of_boy: dict[int, int]
    refusers: tuple[str, ...] = ()
    plant_girls: tuple[int, ...] = ()
    plant_boys: tuple[int, ...] = ()

    @property
    def expected_exit(self) -> int:
        """Exit code `symmarriage solve` must return: 0 solved, 1 unsolvable."""
        return 1 if self.plant_boys else 0

    def document(self) -> str:
        """The instance file, in the program's canonical layout."""
        doc: dict = {
            "version": 1,
            "girls": [f"g{i}" for i in range(self.n)],
            "boys": [f"b{j}" for j in range(self.n)],
            "girl_lists": {
                f"g{g}": [f"b{b}" for b in row] for g, row in sorted(self.girl_lists.items())
            },
            "boy_lists": {
                f"b{b}": [f"g{g}" for g in row] for b, row in sorted(self.boy_lists.items())
            },
        }
        if self.refusers:
            doc["refusers"] = list(self.refusers)
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    def shape(self) -> dict[str, int]:
        """Counts that describe the instance, recorded next to its hash."""
        girl_sets = {g: set(row) for g, row in self.girl_lists.items()}
        compatible = sum(
            1 for b, row in self.boy_lists.items() for g in row if b in girl_sets.get(g, ())
        )
        return {
            "girls": self.n,
            "boys": self.n,
            "listed_girls": len(self.girl_lists),
            "listed_boys": len(self.boy_lists),
            "list_entries": sum(map(len, self.girl_lists.values()))
            + sum(map(len, self.boy_lists.values())),
            "compatible_pairs": compatible,
            "refusers": len(self.refusers),
            "plant_boys": len(self.plant_boys),
            "plant_girls": len(self.plant_girls),
        }


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_STREAMS[workload],)))
    )


def _split(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exactly half of a side listed (ascending) and the wildcards (shuffled)."""
    perm = rng.permutation(n)
    return np.sort(perm[: n // 2]), perm[n // 2 :]


def _draw_rows(
    rng: np.random.Generator, partners: np.ndarray, k: int, n: int
) -> np.ndarray:
    """Per row, ``k`` distinct uniform draws from ``range(n)`` avoiding the
    row's planted partner.  Rows that collide are redrawn in row order."""
    picks = rng.integers(0, n, size=(len(partners), k))
    ordered = np.sort(picks, axis=1)
    bad = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) | (picks == partners[:, None]).any(
        axis=1
    )
    for r in np.flatnonzero(bad):
        while True:
            row = rng.integers(0, n, size=k)
            if len(set(row.tolist())) == k and partners[r] not in row:
                picks[r] = row
                break
    return picks


def _planted(rng, n: int, draws: int):
    """Both sides of a planted family: listed sets, partners and own draws."""
    listed_g, wild_g = _split(rng, n)
    listed_b, wild_b = _split(rng, n)
    partner_g = wild_b[: len(listed_g)]
    partner_b = wild_g[: len(listed_b)]
    picks_g = _draw_rows(rng, partner_g, draws - 1, n)
    picks_b = _draw_rows(rng, partner_b, draws - 1, n)
    return listed_g, listed_b, partner_g, partner_b, picks_g, picks_b


def gen_planted_unsolvable(seed: int, n: int = SPARSE_N) -> Generated:
    rng = _rng(seed, "planted-unsolvable")
    listed_g, listed_b, partner_g, partner_b, picks_g, picks_b = _planted(rng, n, SPARSE_DRAWS)
    girl_lists = {
        g: sorted(row + [p])
        for g, row, p in zip(listed_g.tolist(), picks_g.tolist(), partner_g.tolist())
    }
    boy_lists = {
        b: sorted(row + [p])
        for b, row, p in zip(listed_b.tolist(), picks_b.tolist(), partner_b.tolist())
    }
    partner_of_girl = dict(zip(listed_g.tolist(), partner_g.tolist()))
    partner_of_boy = dict(zip(listed_b.tolist(), partner_b.tolist()))
    plant_boys = sorted(
        int(listed_b[i]) for i in rng.permutation(len(listed_b))[:PLANT_BOYS].tolist()
    )
    # The plant girls are the planted partners of all but one plant boy, so
    # every boy outside the plant keeps his own partner.
    plant_girls = sorted(partner_of_boy[b] for b in plant_boys[:PLANT_GIRLS])
    for b in plant_boys:
        picks = rng.choice(PLANT_GIRLS, size=SPARSE_DRAWS, replace=False)
        boy_lists[b] = sorted(plant_girls[i] for i in picks.tolist())
        del partner_of_boy[b]
    # Refusers: listed members outside the plant, half per side.
    per_side = int(round(2 * n * REFUSER_SHARE)) // 2
    girls_pool = sorted(girl_lists)
    boys_pool = sorted(set(boy_lists) - set(plant_boys))
    ref_g = sorted(girls_pool[i] for i in rng.permutation(len(girls_pool))[:per_side].tolist())
    ref_b = sorted(boys_pool[i] for i in rng.permutation(len(boys_pool))[:per_side].tolist())
    refusers = tuple(f"g{g}" for g in ref_g) + tuple(f"b{b}" for b in ref_b)
    return Generated(
        "planted-unsolvable",
        n,
        girl_lists,
        boy_lists,
        partner_of_girl,
        partner_of_boy,
        refusers,
        tuple(plant_girls),
        tuple(plant_boys),
    )


def gen_reciprocal_repair(seed: int, n: int = RECIPROCAL_N) -> Generated:
    rng = _rng(seed, "reciprocal-repair")
    listed_g, listed_b, partner_g, partner_b, picks_g, picks_b = _planted(
        rng, n, RECIPROCAL_DRAWS
    )
    girl_lists: dict[int, set[int]] = {
        g: {p} for g, p in zip(listed_g.tolist(), partner_g.tolist())
    }
    boy_lists: dict[int, set[int]] = {
        b: {p} for b, p in zip(listed_b.tolist(), partner_b.tolist())
    }
    back_g = rng.random(picks_g.shape) < RECIPROCAL_LIST_BACK
    back_b = rng.random(picks_b.shape) < RECIPROCAL_LIST_BACK
    for g, row, back in zip(listed_g.tolist(), picks_g.tolist(), back_g.tolist()):
        for b, lists_back in zip(row, back):
            girl_lists[g].add(b)
            if lists_back and b in boy_lists:
                boy_lists[b].add(g)
    for b, row, back in zip(listed_b.tolist(), picks_b.tolist(), back_b.tolist()):
        for g, lists_back in zip(row, back):
            boy_lists[b].add(g)
            if lists_back and g in girl_lists:
                girl_lists[g].add(b)
    return Generated(
        "reciprocal-repair",
        n,
        {g: sorted(row) for g, row in girl_lists.items()},
        {b: sorted(row) for b, row in boy_lists.items()},
        dict(zip(listed_g.tolist(), partner_g.tolist())),
        dict(zip(listed_b.tolist(), partner_b.tolist())),
    )


GENERATORS = {
    "reciprocal-repair": gen_reciprocal_repair,
    "planted-unsolvable": gen_planted_unsolvable,
}


def generate(workload: str, seed: int, n: int | None = None) -> Generated:
    """The workload's instance for ``seed``; ``n`` overrides the side size."""
    gen = GENERATORS[workload]
    return gen(seed) if n is None else gen(seed, n)


def _fail(workload: str, message: str) -> NoReturn:
    raise SelfCheckError(f"{workload}: {message}")


def self_check(inst: Generated) -> None:
    """Assert the structure the workload claims; raises SelfCheckError.

    * every list is nonempty, has distinct entries and stays in the roster;
    * refusers are listed members outside the plant, and removing them
      empties no surviving list;
    * the planted partners pair every surviving listed member outside the
      plant with a distinct wildcard on its list, so without the plant the
      instance is solvable;
    * planted-unsolvable: the 201 plant boys list only the 200 plant girls,
      which are wildcards and never refuse, so they share at most 200
      partners; reciprocal-repair carries no plant and no refusers;
    * reciprocal-repair: the program's first star matching has at least one
      mismatched edge.
    """
    w = inst.workload
    for lists in (inst.girl_lists, inst.boy_lists):
        for member, row in lists.items():
            if not row or len(set(row)) != len(row) or not all(0 <= x < inst.n for x in row):
                _fail(w, f"list of {member} is empty, repeats or leaves the roster")
    ref_g = {int(r[1:]) for r in inst.refusers if r[0] == "g"}
    ref_b = {int(r[1:]) for r in inst.refusers if r[0] == "b"}
    if not ref_g <= set(inst.girl_lists) or not ref_b <= set(inst.boy_lists):
        _fail(w, "refusers must be listed members")
    if ref_b & set(inst.plant_boys):
        _fail(w, "refusers must lie outside the plant")
    for lists, gone_self, gone_other in (
        (inst.girl_lists, ref_g, ref_b),
        (inst.boy_lists, ref_b, ref_g),
    ):
        for member, row in lists.items():
            if member not in gone_self and all(x in gone_other for x in row):
                _fail(w, f"refusals empty the list of {member}")
    for side, lists, partners, listed_other, gone, plant in (
        ("girl", inst.girl_lists, inst.partner_of_girl, inst.boy_lists, ref_g, set()),
        ("boy", inst.boy_lists, inst.partner_of_boy, inst.girl_lists, ref_b, set(inst.plant_boys)),
    ):
        seen: set[int] = set()
        for member, row in lists.items():
            if member in gone or member in plant:
                continue
            p = partners.get(member)
            if p is None or p not in row:
                _fail(w, f"listed {side} {member} lacks its planted partner")
            if p in listed_other or p in seen:
                _fail(w, f"planted partner {p} of {side} {member} is not a distinct wildcard")
            seen.add(p)
    if w == "planted-unsolvable":
        plant_g = set(inst.plant_girls)
        if len(plant_g) != PLANT_GIRLS or len(set(inst.plant_boys)) != PLANT_BOYS:
            _fail(w, "plant has the wrong size")
        if plant_g & set(inst.girl_lists) or plant_g & ref_g:
            _fail(w, "a plant girl is listed or refuses")
        for b in inst.plant_boys:
            if not set(inst.boy_lists[b]) <= plant_g:
                _fail(w, f"plant boy {b} lists a girl outside the plant")
        if not ref_g or not ref_b:
            _fail(w, "refusers must remove members on both sides")
    elif inst.refusers or inst.plant_boys:
        _fail(w, "reciprocal-repair carries no refusers and no plant")
    if w == "reciprocal-repair" and initial_mismatches(inst) == 0:
        _fail(w, "the star matching starts with no mismatched edge")


def initial_mismatches(inst: Generated) -> int:
    """Mismatched edges of the program's first star matching on ``inst``."""
    instance = SmpInstance.build(
        [f"g{i}" for i in range(inst.n)],
        [f"b{j}" for j in range(inst.n)],
        {f"g{g}": [f"b{b}" for b in row] for g, row in inst.girl_lists.items()},
        {f"b{b}": [f"g{g}" for g in row] for b, row in inst.boy_lists.items()},
    )
    star = build_star_graph(instance)
    return find_mismatches(star, max_matching(star.graph)).count

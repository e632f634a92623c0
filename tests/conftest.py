"""Shared fixtures, independent brute-force oracles, and hypothesis strategies."""

from __future__ import annotations

import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from symmarriage import SmpInstance

# Fixed instances reused across test modules.  I1 has one listed member per
# side with an incompatible overlap; I3 is the fully mutual 2x2 square.
I1 = SmpInstance.build(
    ["g1", "g2"], ["b1", "b2"], {"g1": ["b1", "b2"]}, {"b1": ["g2"]}
)
I3 = SmpInstance.build(
    ["g1", "g2"],
    ["b1", "b2"],
    {"g1": ["b1", "b2"], "g2": ["b1", "b2"]},
    {"b1": ["g1", "g2"], "b2": ["g1", "g2"]},
)
TWO_GIRLS_ONE_BOY = SmpInstance.build(
    ["g1", "g2"], ["b1"], {"g1": ["b1"], "g2": ["b1"]}, {}
)


def bench_document(workload: str, n: int, seed: int = 1) -> str:
    """A benchmark family's instance document at size ``n``."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    import workloads

    return workloads.generate(workload, seed, n).document()


@pytest.fixture
def i1():
    return I1


@pytest.fixture
def i3():
    return I3


@pytest.fixture
def two_girls_one_boy():
    return TWO_GIRLS_ONE_BOY


def brute_matching_size(adjacency: tuple[tuple[int, ...], ...]) -> int:
    """Exhaustive maximum-matching size; usable up to about 7+7 vertices."""
    best = 0

    def extend(u: int, used: int, count: int) -> None:
        nonlocal best
        if count + (len(adjacency) - u) <= best:
            return
        if u == len(adjacency):
            best = max(best, count)
            return
        extend(u + 1, used, count)
        for v in adjacency[u]:
            if not used & (1 << v):
                extend(u + 1, used | (1 << v), count + 1)

    extend(0, 0, 0)
    return best


def brute_max_weight(weights: tuple[tuple[int, ...], ...]) -> int:
    """Best perfect-assignment weight by trying every permutation."""
    n = len(weights)
    if n == 0:
        return 0
    return max(sum(weights[i][p[i]] for i in range(n)) for p in permutations(range(n)))


def random_instance(rng: np.random.Generator, max_side: int = 6) -> SmpInstance:
    """One random instance with mixed wildcard rates and list densities."""
    n_g = int(rng.integers(0, max_side + 1))
    n_b = int(rng.integers(0, max_side + 1))
    girls = tuple(f"g{i + 1}" for i in range(n_g))
    boys = tuple(f"b{j + 1}" for j in range(n_b))
    wild_g = rng.uniform(0.15, 0.7)
    wild_b = rng.uniform(0.15, 0.7)
    girl_lists = {}
    for g in girls:
        if n_b and rng.random() >= wild_g:
            k = int(rng.integers(1, n_b + 1))
            girl_lists[g] = tuple(
                boys[j] for j in sorted(rng.choice(n_b, size=k, replace=False))
            )
    boy_lists = {}
    for b in boys:
        if n_g and rng.random() >= wild_b:
            k = int(rng.integers(1, n_g + 1))
            boy_lists[b] = tuple(
                girls[i] for i in sorted(rng.choice(n_g, size=k, replace=False))
            )
    return SmpInstance.build(girls, boys, girl_lists, boy_lists)


@st.composite
def smp_instances(draw, max_girls: int = 5, max_boys: int = 5):
    n_g = draw(st.integers(0, max_girls))
    n_b = draw(st.integers(0, max_boys))
    girls = tuple(f"g{i + 1}" for i in range(n_g))
    boys = tuple(f"b{j + 1}" for j in range(n_b))
    girl_lists = {}
    for g in girls:
        if n_b and draw(st.booleans()):
            subset = draw(
                st.lists(st.sampled_from(boys), min_size=1, max_size=n_b, unique=True)
            )
            girl_lists[g] = tuple(subset)
    boy_lists = {}
    for b in boys:
        if n_g and draw(st.booleans()):
            subset = draw(
                st.lists(st.sampled_from(girls), min_size=1, max_size=n_g, unique=True)
            )
            boy_lists[b] = tuple(subset)
    return SmpInstance.build(girls, boys, girl_lists, boy_lists)


@st.composite
def bipartite_adjacencies(draw, max_left: int = 6, max_right: int = 6):
    n_left = draw(st.integers(0, max_left))
    n_right = draw(st.integers(0, max_right))
    rows = []
    for _ in range(n_left):
        if n_right:
            row = draw(
                st.lists(
                    st.integers(0, n_right - 1), min_size=0, max_size=n_right, unique=True
                )
            )
        else:
            row = []
        rows.append(tuple(row))
    return n_left, n_right, tuple(rows)

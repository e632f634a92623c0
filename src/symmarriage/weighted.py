"""Max-weight matching cross-check.

An independent decision route: weight 2 between list-compatible pairs,
weight 1 when exactly one side lists the other and the listed target is a
wildcard, weight 0 otherwise, padded square with zeros.  Each edge's
weight equals its number of listed endpoints, so no perfect matching can
exceed ``#listed girls + #listed boys``; the instance is solvable exactly
when the maximum total weight reaches that threshold.  Everything is
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hall import SizeLimitError
from .instances import Assignment, IndexRows, InvariantError

# Largest side the weight route accepts: it builds dense n x n tables and
# runs an O(n^3) assignment, so larger instances belong to the star route.
WEIGHT_GUARD = 500


@dataclass(frozen=True)
class WeightedBipartiteGraph:
    """Square integer weight matrix; girls index rows, boys index columns,
    padding rows/columns are all zero."""

    size: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.size or any(
            len(row) != self.size for row in self.weights
        ):
            raise ValueError("weight matrix must be size x size")
        if any(w not in (0, 1, 2) for row in self.weights for w in row):
            raise ValueError("weights must be 0, 1 or 2")


def build_weighted(instance: IndexRows) -> WeightedBipartiteGraph:
    """Weight matrix of the instance, padded square with zeros.

    Raises SizeLimitError, before any table is allocated, when a side has
    more than ``WEIGHT_GUARD`` members.
    """
    n_g = len(instance.girls)
    n_b = len(instance.boys)
    n = max(n_g, n_b)
    if n > WEIGHT_GUARD:
        raise SizeLimitError(f"larger side has {n} members (limit {WEIGHT_GUARD})")
    rows = [[0] * n for _ in range(n)]
    girl_rows = instance.girl_lists_idx
    boy_rows = instance.boy_lists_idx
    boy_sets = instance.boy_list_sets
    for g in range(n_g):
        for b in girl_rows[g]:
            if not boy_rows[b]:
                rows[g][b] = 1
            elif g in boy_sets[b]:
                rows[g][b] = 2
    for b in range(n_b):
        for g in boy_rows[b]:
            if not girl_rows[g]:
                rows[g][b] = 1
    return WeightedBipartiteGraph(n, tuple(tuple(row) for row in rows))


def _min_cost_columns(cost: list[list[int]]) -> list[int]:
    """Column assigned to each row in a minimum-cost perfect assignment.

    Potential-based shortest augmenting paths on the dense matrix, integer
    arithmetic throughout, deterministic tie-breaking by column index.
    """
    n = len(cost)
    inf = 1 << 60  # integer sentinel, far above any reachable reduced cost
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    row_of = [0] * (n + 1)  # row matched to each column; 0 = free (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        row_of[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = row_of[j0]
            delta = inf
            j1 = 0  # the matrix is complete, so some unused column always improves
            row_cost = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row_cost[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if row_of[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    columns = [0] * n
    for j in range(1, n + 1):
        columns[row_of[j] - 1] = j - 1
    return columns


def hungarian_max_weight(
    graph: WeightedBipartiteGraph,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Maximum-total-weight perfect matching of the padded square matrix.

    Returns the total weight and the matched (row, column) pairs in row
    order.  Solved as a min-cost assignment on complemented weights.
    """
    n = graph.size
    if n == 0:
        return 0, ()
    cost = [[2 - w for w in row] for row in graph.weights]
    columns = _min_cost_columns(cost)
    total = sum(graph.weights[i][columns[i]] for i in range(n))
    return total, tuple((i, columns[i]) for i in range(n))


def _max_weight(instance: IndexRows):
    """Weight graph, max-weight pairs, and whether the total meets the threshold."""
    graph = build_weighted(instance)
    total, pairs = hungarian_max_weight(graph)
    target = len(instance.listed_girl_idx) + len(instance.listed_boy_idx)
    if total > target:
        raise InvariantError(f"matching weight {total} exceeds the listed-member bound {target}")
    return graph, pairs, total == target


def solvable_via_weight(instance: IndexRows) -> bool:
    """True iff the maximum matching weight reaches the listed-member count."""
    return _max_weight(instance)[2]


def weighted_assignment(instance: IndexRows) -> Assignment | None:
    """Pairing read off the max-weight matching when it meets the threshold.

    Positive-weight matched pairs between real (non-padding) vertices form
    a valid assignment exactly when the threshold is met; returns None
    otherwise.
    """
    graph, pairs, solvable = _max_weight(instance)
    if not solvable:
        return None
    n_g = len(instance.girls)
    n_b = len(instance.boys)
    chosen = tuple(
        (instance.girls[i], instance.boys[j])
        for i, j in pairs
        if i < n_g and j < n_b and graph.weights[i][j] > 0
    )
    return Assignment(chosen)

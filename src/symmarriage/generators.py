"""Seeded generators for structured instance families.

Every generator is deterministic given (parameters, seed): randomness
comes from a PCG64 stream derived from ``SeedSequence(seed,
spawn_key=(stream,))`` with one fixed stream id per generator, so the
same call reproduces the same instance byte for byte.  Structural
constraints are re-verified by an independent checker before an instance
is released.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .instances import CmpInstance, SmpInstance

if TYPE_CHECKING:
    import numpy as np

_TOURNAMENT_STREAM = 0
_ROOKS_STREAM = 1
_CHESSBOARD_STREAM = 2
_ASSIGNMENT_STREAM = 3

_CHESSBOARD_RETRY_LIMIT = 1000


class RetryExhaustedError(Exception):
    """Rejection sampling failed to satisfy a placement constraint in time."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    # Imported on first use, so the commands that generate nothing skip it.
    import numpy as np

    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def gen_tournament(n: int, seed: int) -> CmpInstance:
    """Round-robin winner sets: 2n teams over 2n-1 sessions.

    The schedule comes from the circle method (the last team fixed, the
    others rotating), each match decided by a seeded coin flip.  Returns the
    one-sided instance asking for a distinct winner per session: left =
    sessions, right = teams, lists = session winner sets (n winners each).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    teams = tuple(f"t{i + 1}" for i in range(2 * n))
    sessions = tuple(f"s{r + 1}" for r in range(2 * n - 1))
    rng = _rng(seed, _TOURNAMENT_STREAM)
    m = 2 * n - 1
    schedule = []
    lists: dict[str, tuple[str, ...]] = {}
    for r in range(m):
        matches = [(r % m, 2 * n - 1)]
        matches.extend(((r + i) % m, (r - i) % m) for i in range(1, n))
        winners = tuple(
            teams[a if int(rng.integers(0, 2)) == 0 else b] for a, b in matches
        )
        schedule.append(matches)
        lists[sessions[r]] = winners
    _check_round_robin(schedule, 2 * n)
    for winners in lists.values():
        if len(winners) != n:
            raise AssertionError("a session did not produce n winners")
    return CmpInstance(sessions, teams, lists)


def _check_round_robin(schedule: list[list[tuple[int, int]]], team_count: int) -> None:
    met: set[frozenset[int]] = set()
    for matches in schedule:
        participants = [t for match in matches for t in match]
        if sorted(participants) != list(range(team_count)):
            raise AssertionError("a session does not field every team exactly once")
        for a, b in matches:
            pair = frozenset((a, b))
            if pair in met:
                raise AssertionError(f"teams {sorted(pair)} meet twice")
            met.add(pair)
    if len(met) != team_count * (team_count - 1) // 2:
        raise AssertionError("schedule does not cover every pairing")


def gen_rooks(n: int, seed: int) -> CmpInstance:
    """A 2n x 2n board with exactly n rooks in each row and each column.

    Built by superposing n cyclic-shift permutation matrices and applying
    seeded row and column permutations, which preserves the exact counts
    without any rejection sampling.  Returns left = rows, right = columns,
    lists = rook columns per row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 2 * n
    rng = _rng(seed, _ROOKS_STREAM)
    row_perm = [int(x) for x in rng.permutation(size)]
    col_perm = [int(x) for x in rng.permutation(size)]
    cols_by_row: list[list[int]] = [[] for _ in range(size)]
    for i in range(size):
        for s in range(n):
            cols_by_row[row_perm[i]].append(col_perm[(i + s) % size])
    rows = tuple(f"r{i + 1}" for i in range(size))
    cols = tuple(f"c{j + 1}" for j in range(size))
    lists = {rows[i]: tuple(cols[j] for j in sorted(cols_by_row[i])) for i in range(size)}
    col_counts = [0] * size
    for i in range(size):
        if len(set(cols_by_row[i])) != n:
            raise AssertionError(f"row {i} does not hold exactly {n} rooks")
        for j in cols_by_row[i]:
            col_counts[j] += 1
    if any(c != n for c in col_counts):
        raise AssertionError("a column does not hold exactly n rooks")
    return CmpInstance(rows, cols, lists)


def gen_chessboard(
    n: int, seed: int
) -> tuple[SmpInstance, tuple[tuple[int, ...], ...]]:
    """Two-player 4n x 4n board and the resulting two-sided instance.

    The row player picks at least 3n rows and fills each picked row with +1
    in at least 3n cells and -1 elsewhere, never landing more than n of her
    -1 entries in one column; unpicked rows are all zero.  The column player
    does the same column-wise.  Rows map to girls, columns to boys; a picked
    row's list holds its +1 columns and symmetrically for columns.  Also
    returns the table of per-cell entry sums for verification: a sum of +2
    marks a list-compatible pair, +1 a one-sidedly listed pair.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = 4 * n
    rng = _rng(seed, _CHESSBOARD_STREAM)
    row_entries = _player_entries(rng, n)
    col_entries_major = _player_entries(rng, n)
    col_entries = [[col_entries_major[j][i] for j in range(size)] for i in range(size)]
    sums = tuple(
        tuple(row_entries[i][j] + col_entries[i][j] for j in range(size))
        for i in range(size)
    )
    girls = tuple(f"r{i + 1}" for i in range(size))
    boys = tuple(f"c{j + 1}" for j in range(size))
    girl_lists = {
        girls[i]: tuple(boys[j] for j in range(size) if row_entries[i][j] == 1)
        for i in range(size)
        if any(row_entries[i])
    }
    boy_lists = {
        boys[j]: tuple(girls[i] for i in range(size) if col_entries[i][j] == 1)
        for j in range(size)
        if any(col_entries[i][j] for i in range(size))
    }
    _check_player(row_entries, n)
    _check_player(col_entries_major, n)
    return SmpInstance.build(girls, boys, girl_lists, boy_lists), sums


def _player_entries(rng: np.random.Generator, n: int) -> list[list[int]]:
    """One player's grid, major order: chosen lines hold >= 3n entries of +1
    and -1 elsewhere, with at most n of the -1 entries in any cross line."""
    size = 4 * n
    chosen_count = int(rng.integers(3 * n, size + 1))
    chosen = sorted(int(x) for x in rng.choice(size, size=chosen_count, replace=False))
    capacity = [n] * size
    grid = [[0] * size for _ in range(size)]
    retries = 0
    for line in chosen:
        while True:
            plus_count = int(rng.integers(3 * n, size + 1))
            minus_count = size - plus_count
            available = [c for c in range(size) if capacity[c] > 0]
            if len(available) >= minus_count:
                picks = rng.choice(len(available), size=minus_count, replace=False)
                minus_cols = [available[int(k)] for k in picks]
                break
            retries += 1
            if retries > _CHESSBOARD_RETRY_LIMIT:
                raise RetryExhaustedError(
                    "could not balance the -1 entries within the retry budget"
                )
        for c in range(size):
            grid[line][c] = 1
        for c in minus_cols:
            grid[line][c] = -1
            capacity[c] -= 1
    return grid


def _check_player(grid: list[list[int]], n: int) -> None:
    size = 4 * n
    chosen = [i for i in range(size) if any(grid[i])]
    if len(chosen) < 3 * n:
        raise AssertionError("fewer than 3n lines chosen")
    minus_per_cross = [0] * size
    for i in chosen:
        if any(grid[i][j] == 0 for j in range(size)):
            raise AssertionError("a chosen line holds a zero entry")
        if sum(1 for j in range(size) if grid[i][j] == 1) < 3 * n:
            raise AssertionError("a chosen line holds fewer than 3n entries of +1")
        for j in range(size):
            if grid[i][j] == -1:
                minus_per_cross[j] += 1
    if any(c > n for c in minus_per_cross):
        raise AssertionError("more than n entries of -1 share a cross line")


def gen_assignment(
    workers: Iterable[str],
    tasks: Iterable[str],
    mandatory_tasks: Iterable[str],
    paid_workers: Iterable[str],
    capability: Iterable[tuple[str, str]] | None = None,
    seed: int = 0,
    density: float = 0.5,
) -> SmpInstance:
    """Worker/task instance: paid workers and mandatory tasks carry lists.

    Workers map to girls and tasks to boys.  A paid worker lists the tasks
    she can do; a mandatory task lists the workers able to do it; volunteers
    and optional tasks are wildcards, constrained only through the listed
    side's lists.  With ``capability`` omitted, a seeded random relation of
    the given density is drawn, topped up so that no paid worker or
    mandatory task is left without a capable partner (a hard requirement
    with an empty list is unsatisfiable by construction, not a wildcard).
    """
    workers = tuple(workers)
    tasks = tuple(tasks)
    mandatory = tuple(mandatory_tasks)
    paid = tuple(paid_workers)
    worker_set, task_set = set(workers), set(tasks)
    if not task_set.issuperset(mandatory):
        raise ValueError("mandatory_tasks must be a subset of tasks")
    if not worker_set.issuperset(paid):
        raise ValueError("paid_workers must be a subset of workers")
    if paid and not tasks:
        raise ValueError("paid workers need at least one task to exist")
    if mandatory and not workers:
        raise ValueError("mandatory tasks need at least one worker to exist")
    if capability is None:
        rng = _rng(seed, _ASSIGNMENT_STREAM)
        relation = {
            (w, t) for w in workers for t in tasks if rng.random() < density
        }
        for w in paid:
            if not any((w, t) in relation for t in tasks):
                relation.add((w, tasks[int(rng.integers(0, len(tasks)))]))
        for t in mandatory:
            if not any((w, t) in relation for w in workers):
                relation.add((workers[int(rng.integers(0, len(workers)))], t))
    else:
        relation = set(capability)
        for w, t in relation:
            if w not in worker_set or t not in task_set:
                raise ValueError(f"capability pair ({w!r}, {t!r}) names unknown members")
        for w in paid:
            if not any((w, t) in relation for t in tasks):
                raise ValueError(f"paid worker '{w}' has no capable task")
        for t in mandatory:
            if not any((w, t) in relation for w in workers):
                raise ValueError(f"mandatory task '{t}' has no capable worker")
    paid_set = set(paid)
    mandatory_set = set(mandatory)
    girl_lists = {
        w: tuple(t for t in tasks if (w, t) in relation) for w in workers if w in paid_set
    }
    boy_lists = {
        t: tuple(w for w in workers if (w, t) in relation)
        for t in tasks
        if t in mandatory_set
    }
    return SmpInstance.build(workers, tasks, girl_lists, boy_lists)

"""Seeded input generators for the benchmark workloads.

Everything here is stdlib only and independent of ``seatsim``: the
program under test only ever sees the text these functions return. Each
generator draws from its own ``random.Random`` stream keyed by the
workload seed and the input kind, so the same seed always gives the same
bytes, and the amount of work an input carries (hall size, seats taken,
number of arrivals, number of records) does not depend on the seed.
"""

from __future__ import annotations

import random

# Attempts at a uniformly random free run before falling back to a full
# scan of the hall; at the fill levels used here rejection almost always
# succeeds within a few tries.
_TRIES = 64


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"seatsim-bench/{kind}/{seed}")


def _free_runs(grid: list[list[bool]], size: int) -> list[tuple[int, int]]:
    runs = []
    for r, row in enumerate(grid):
        run = 0
        for s, occ in enumerate(row):
            run = 0 if occ else run + 1
            if run >= size:
                runs.append((r, s - size + 1))
    return runs


def _place(rng: random.Random, grid: list[list[bool]], size: int) -> list[tuple[int, int]] | None:
    """Occupy a random free run of ``size`` seats; 0-based seats, or None."""
    rows, cols = len(grid), len(grid[0])
    if size > cols:
        return None
    for _ in range(_TRIES):
        r = rng.randrange(rows)
        s = rng.randrange(cols - size + 1)
        if not any(grid[r][s : s + size]):
            break
    else:
        runs = _free_runs(grid, size)
        if not runs:
            return None
        r, s = runs[rng.randrange(len(runs))]
    for c in range(s, s + size):
        grid[r][c] = True
    return [(r, c) for c in range(s, s + size)]


def grid_rows(grid: list[list[bool]]) -> list[str]:
    return ["".join("#" if c else "." for c in row) for row in grid]


def scenario_text(
    grid_lines: list[str],
    arrivals: list[int],
    observed: list[list[tuple[int, int]]] | None = None,
) -> str:
    """Scenario file text in the canonical layout ``serialize_scenario`` writes.

    ``observed`` seats are 1-based ``(row, seat)`` pairs.
    """
    lines = [f"rows {len(grid_lines)}", f"cols {len(grid_lines[0])}", "grid"]
    lines.extend(grid_lines)
    lines.append("arrivals")
    if arrivals:
        lines.append(" ".join(str(k) for k in arrivals))
    if observed is not None:
        lines.append("observed")
        for step, seats in enumerate(observed, start=1):
            lines.append(f"{step}: " + " ".join(f"{r},{s}" for r, s in sorted(seats)))
    return "\n".join(lines) + "\n"


def bighall_scenario(seed: int, rows: int = 20, cols: int = 40) -> str:
    """A large hall: 8 seated trios, then 144 groups of 1-4 (36 of each size).

    The arrivals fill the hall from 3% to 48%; the order of sizes and the
    initial trios' positions vary with the seed, the totals do not.
    """
    rng = _rng("bighall", seed)
    grid = [[False] * cols for _ in range(rows)]
    for _ in range(8):
        _place(rng, grid, 3)
    arrivals = [k for k in (1, 2, 3, 4) for _ in range(36)]
    rng.shuffle(arrivals)
    return scenario_text(grid_rows(grid), arrivals)


def observed_scenarios(seed: int, count: int, rows: int, cols: int, steps: int) -> list[str]:
    """``count`` scenarios whose ``observed`` section records every arrival.

    Each starts with four seated groups; each of ``steps`` groups of size
    1-4 takes a random free contiguous run, which is what ``observed``
    lists, so every scenario passes ``validate_scenario``.
    """
    rng = _rng("observed", seed)
    texts = []
    for _ in range(count):
        grid = [[False] * cols for _ in range(rows)]
        for _ in range(4):
            _place(rng, grid, rng.randint(1, 4))
        initial = grid_rows(grid)
        arrivals, observed = [], []
        for _ in range(steps):
            size = rng.randint(1, 4)
            seats = _place(rng, grid, size)
            if seats is None:
                raise ValueError(f"a {rows}x{cols} hall has no room for {steps} groups")
            arrivals.append(size)
            observed.append([(r + 1, s + 1) for r, s in seats])
        texts.append(scenario_text(initial, arrivals, observed))
    return texts


# Fill levels cycled through by the choices corpus. Records at the lowest
# level hold a single group, so ``--min-groups 2`` drops a fixed share.
_CORPUS_FILLS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def choices_corpus(seed: int, count: int, rows: int, cols: int) -> tuple[str, int]:
    """A choices file of ``count`` records and the number with >= 2 groups.

    Record i is filled to ``_CORPUS_FILLS[i % 7]`` of its seats by groups
    of 1-4 (at least one group), and its chosen seat is a random free one.
    """
    rng = _rng("choices", seed)
    blocks = []
    multi_group = 0
    for i in range(count):
        grid = [[False] * cols for _ in range(rows)]
        target = int(_CORPUS_FILLS[i % len(_CORPUS_FILLS)] * rows * cols)
        taken = groups = 0
        while groups == 0 or taken < target:
            seats = _place(rng, grid, rng.randint(1, 4))
            if seats is None:
                break
            taken += len(seats)
            groups += 1
        while True:
            r, s = rng.randrange(rows), rng.randrange(cols)
            if not grid[r][s]:
                break
        multi_group += groups >= 2
        blocks.append(
            "\n".join([f"groups {groups}", "grid", *grid_rows(grid), f"chosen {r + 1},{s + 1}"])
        )
    return "\n\n".join(blocks) + "\n", multi_group

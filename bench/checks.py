"""Output checks for the benchmark: pinned digests and model invariants.

The invariants are recomputed here from the input text with the
benchmark's own few lines of entropy and replay code, so they do not
trust the program under test. Every check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib

CSV_HEADER = "step,label,mean,std,min,max"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def entropy(grid: list[str]) -> int:
    """Sum over rows of the squared number of empty/occupied flips."""
    return sum(sum(a != b for a, b in zip(row, row[1:])) ** 2 for row in grid)


def read_scenario(text: str) -> dict:
    """The parts of a scenario file the checks need.

    Returns rows, cols, grid lines, arrivals and observed seats (1-based
    ``(row, seat)`` pairs per step, or None). Only well-formed files are
    expected: these are the benchmark's own inputs.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith(";")]
    rows = int(lines[0].split()[1])
    cols = int(lines[1].split()[1])
    grid = lines[3 : 3 + rows]
    rest = lines[4 + rows :]
    arrivals: list[int] = []
    if rest and rest[0] != "observed":
        arrivals = [int(tok) for tok in rest.pop(0).split()]
    observed = None
    if rest and rest[0] == "observed":
        observed = []
        for line in rest[1:]:
            seats = line.partition(":")[2].split()
            observed.append([tuple(int(v) for v in seat.split(",")) for seat in seats])
    return {"rows": rows, "cols": cols, "grid": grid, "arrivals": arrivals, "observed": observed}


def replay(scenario: dict) -> list[int]:
    """Entropy after each recorded step, starting from the initial grid."""
    grid = [list(row) for row in scenario["grid"]]
    trajectory = [entropy(scenario["grid"])]
    for seats in scenario["observed"]:
        for r, s in seats:
            grid[r - 1][s - 1] = "#"
        trajectory.append(entropy(["".join(row) for row in grid]))
    return trajectory


def check_trajectory_csv(text: str, rule: str, scenario: dict) -> list[str]:
    """Invariants of one ``simulate --policy <rule>`` CSV for ``scenario``.

    min <= mean <= max and std >= 0 on every row; max within the entropy
    bound rows*(cols-1)^2; step 0 equal to the entropy of the initial
    grid; the ``real`` row, when the scenario records one, equal to the
    replay at every step; one row per (step, label) in step-then-label
    order.
    """
    problems = []
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"{rule}: bad header {lines[:1]!r}"]
    labels = sorted([rule, "real"] if scenario["observed"] is not None else [rule])
    steps = len(scenario["arrivals"]) + 1
    expected_keys = [(step, label) for step in range(steps) for label in labels]
    bound = scenario["rows"] * (scenario["cols"] - 1) ** 2
    start = entropy(scenario["grid"])
    real = replay(scenario) if scenario["observed"] is not None else None
    keys = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 6:
            problems.append(f"{rule}: malformed row {line!r}")
            continue
        try:
            step, label = int(fields[0]), fields[1]
            mean, std, low, high = (float(v) for v in fields[2:])
        except ValueError:
            problems.append(f"{rule}: malformed row {line!r}")
            continue
        keys.append((step, label))
        if not low <= mean <= high:
            problems.append(f"{rule}: step {step} {label}: not min <= mean <= max")
        if std < 0:
            problems.append(f"{rule}: step {step} {label}: negative std")
        if high > bound:
            problems.append(f"{rule}: step {step} {label}: max {high} above bound {bound}")
        if step == 0 and not mean == low == high == start:
            problems.append(f"{rule}: step 0 {label} is not the initial entropy {start}")
        if label == "real" and step < len(real) and not mean == low == high == real[step]:
            problems.append(f"{rule}: real step {step} is not the replayed {real[step]}")
    if keys != expected_keys:
        problems.append(f"{rule}: rows are not one per (step, label) in order")
    return problems


def check_histogram_output(text: str, expected_total: int, metric: str) -> list[str]:
    """``analyze`` output: header, ascending distances, counts summing to the kept records."""
    lines = text.splitlines()
    if not lines or lines[0] != "distance,count":
        return [f"analyze {metric}: bad header"]
    try:
        pairs = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError:
        return [f"analyze {metric}: malformed row"]
    problems = []
    if [d for d, _ in pairs] != sorted({d for d, _ in pairs}):
        problems.append(f"analyze {metric}: distances not ascending and distinct")
    total = sum(c for _, c in pairs)
    if total != expected_total:
        problems.append(f"analyze {metric}: total {total}, expected {expected_total}")
    return problems


def check_digests(outputs: dict[str, str], pinned: dict[str, str]) -> list[str]:
    """Compare the SHA-256 of each named text with its pinned digest."""
    problems = []
    for name in sorted(set(outputs) | set(pinned)):
        if name not in pinned:
            problems.append(f"{name}: no pinned digest")
        elif name not in outputs:
            problems.append(f"{name}: output missing")
        elif sha256(outputs[name]) != pinned[name]:
            problems.append(f"{name}: digest {sha256(outputs[name])} != pinned {pinned[name]}")
    return problems

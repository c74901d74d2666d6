"""Scenario replay and Monte Carlo averaging of entropy trajectories.

A scenario fixes the hall size, who is already seated, and the ordered
group sizes that arrive one per time step. A trajectory records the
entropy score after every step, with index 0 holding the score of the
initial configuration so simulated and recorded curves share an anchored
origin. Averaged curves come from many independently seeded runs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .entropy import entropy
from .grid import Auditorium, SeatCoord
from .policies import NoFeasiblePlacement, select_placement

_MASK64 = (1 << 64) - 1

#: A trajectory is a plain list of integer entropy scores,
#: length = number of arrivals + 1.
Trajectory = list[int]


class MissingObservedData(Exception):
    """Replay was requested for a scenario without recorded placements."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)

def derive_seed(master_seed: int, index: int) -> int:
    """Per-run seed: ``splitmix64(splitmix64(master_seed) XOR index)``.

    Both stages are 64-bit bijections, so under one master seed distinct
    run indexes can never collide, and streams for consecutive indexes are
    decorrelated rather than sequential.
    """
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ (index & _MASK64))


@dataclass
class Scenario:
    """Complete simulation input.

    ``initial_occupancy`` seats are taken before step 1; ``arrivals[t-1]``
    is the size of the group arriving at step t; ``observed``, when
    present, records the real seats taken at each step (one seat set per
    arrival, same group sizes). Seat tuples are normalized to row-major
    order so equal scenarios compare equal.
    """

    rows: int
    cols: int
    initial_occupancy: tuple[SeatCoord, ...]
    arrivals: tuple[int, ...]
    observed: tuple[tuple[SeatCoord, ...], ...] | None = None

    def __post_init__(self) -> None:
        self.initial_occupancy = tuple(
            sorted(SeatCoord(*c) for c in self.initial_occupancy)
        )
        self.arrivals = tuple(self.arrivals)
        if self.observed is not None:
            self.observed = tuple(
                tuple(sorted(SeatCoord(*c) for c in step)) for step in self.observed
            )

    def initial_auditorium(self) -> Auditorium:
        return Auditorium(self.rows, self.cols, self.initial_occupancy)


@dataclass
class MeanTrajectory:
    """Per-step aggregate over Monte Carlo runs.

    ``std`` is the population standard deviation (the runs are the whole
    population of interest, not a sample from one). All four lists share
    the trajectory length.
    """

    mean: list[float]
    std: list[float]
    min: list[int]
    max: list[int]
    run_count: int


def run_once(scenario: Scenario, policy: str, seed: int) -> Trajectory:
    """Simulate one arrival sequence under ``policy`` with a fixed seed."""
    aud = scenario.initial_auditorium()
    rng = random.Random(seed)
    trajectory = [entropy(aud)]
    for step, size in enumerate(scenario.arrivals, start=1):
        try:
            placement = select_placement(policy, aud, size, rng)
        except NoFeasiblePlacement as exc:
            raise NoFeasiblePlacement(
                f"no room for a group of {size} at step {step}", step=step
            ) from exc
        aud.occupy(placement)
        trajectory.append(entropy(aud))
    return trajectory


def run_many(
    scenario: Scenario,
    policy: str,
    runs: int,
    master_seed: int,
    workers: int = 1,
) -> MeanTrajectory:
    """Aggregate ``runs`` independent runs seeded from ``master_seed``.

    Run i uses ``derive_seed(master_seed, i)``. Runs execute in-process, in
    index order; ``workers`` (at least 1) is accepted but selects nothing,
    so the result is the same for every worker count.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    trajectories = []
    for run in range(runs):
        try:
            trajectories.append(run_once(scenario, policy, derive_seed(master_seed, run)))
        except NoFeasiblePlacement as exc:
            raise NoFeasiblePlacement(f"run {run}: {exc}", step=exc.step, run=run) from exc
    mean, std, low, high = [], [], [], []
    for column in zip(*trajectories):
        m = sum(column) / runs
        mean.append(m)
        std.append(math.sqrt(sum((x - m) ** 2 for x in column) / runs))
        low.append(min(column))
        high.append(max(column))
    return MeanTrajectory(mean=mean, std=std, min=low, max=high, run_count=runs)


def replay_observed(scenario: Scenario) -> Trajectory:
    """Entropy trajectory of the recorded real placements; no policy, no rng."""
    if scenario.observed is None:
        raise MissingObservedData("scenario carries no observed placements")
    aud = scenario.initial_auditorium()
    trajectory = [entropy(aud)]
    for seats in scenario.observed:
        aud.occupy_seats(seats)
        trajectory.append(entropy(aud))
    return trajectory

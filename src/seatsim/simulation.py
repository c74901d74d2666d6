"""Scenario replay and Monte Carlo averaging of entropy trajectories.

A scenario fixes the hall size, who is already seated, and the ordered
group sizes that arrive one per time step. A trajectory records the
entropy score after every step, with index 0 holding the score of the
initial configuration so simulated and recorded curves share an anchored
origin. Averaged curves come from many independently seeded runs.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field

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
    # (rows, cols, initial_occupancy) and the hall built from them.
    _hall: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        """A fresh copy of the hall before step 1, built once per layout."""
        key = (self.rows, self.cols, self.initial_occupancy)
        if self._hall is None or self._hall[0] != key:
            self._hall = (key, Auditorium(*key))
        return self._hall[1].copy()


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


def _run_range(
    scenario: Scenario, policy: str, master_seed: int, lo: int, hi: int
) -> list[Trajectory]:
    """Trajectories of runs ``lo .. hi-1``; a failure names its run."""
    trajectories = []
    for run in range(lo, hi):
        try:
            trajectories.append(run_once(scenario, policy, derive_seed(master_seed, run)))
        except NoFeasiblePlacement as exc:
            raise NoFeasiblePlacement(f"run {run}: {exc}", step=exc.step, run=run) from exc
    return trajectories


def _can_fork() -> bool:
    """``fork`` copies only the calling thread, so a lock another thread
    holds would stay locked in the child; such a process runs serially."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and not (threading and threading.active_count() > 1)


def _cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _pin(pid: int, cpus) -> None:
    """Keep process ``pid`` (0: this one) on ``cpus`` where the OS allows;
    pinning only places the work, so a refusal is ignored."""
    try:
        os.sched_setaffinity(pid, cpus)
    except (AttributeError, OSError):
        pass


def _fork_range(
    scenario: Scenario, policy: str, master_seed: int, lo: int, hi: int, cpu: int
) -> tuple[int, int]:
    """Run ``_run_range`` in a child forked onto ``cpu``; returns the pid and
    the read end of a pipe that gets the pickled ``(True, trajectories)``
    or ``(False, exception)``."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, _run_range(scenario, policy, master_seed, lo, hi))
            except Exception as exc:
                reply = (False, exc)
            with open(write_fd, "wb") as pipe:
                pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)  # never unwind into the caller's stack
    # Moved before it first runs, the child starts on ``cpu`` at once
    # instead of queueing behind this process.
    _pin(pid, {cpu})
    os.close(write_fd)
    return pid, read_fd


def _reap(shard: int, pid: int, read_fd: int) -> tuple[bool, object]:
    """Read a child's reply to the end, then wait for the child. What the
    child did is returned, never raised."""
    import pickle

    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        return False, RuntimeError(
            f"shard {shard}: worker process {pid} ended without a result "
            f"(wait status {status})"
        )


def run_many(
    scenario: Scenario,
    policy: str,
    runs: int,
    master_seed: int,
    workers: int = 1,
) -> MeanTrajectory:
    """Aggregate ``runs`` independent runs seeded from ``master_seed``.

    Run i uses ``derive_seed(master_seed, i)``. The run indexes are cut
    into ``min(workers, runs, usable CPUs)`` contiguous shards (one where
    ``os.fork`` is missing or other threads run). This process runs the
    first shard; a forked child runs each other one and returns its
    trajectories over a pipe, and every child is reaped before this
    returns. Shards are joined in index order and a failure reports the
    lowest failing run, so the result is the same for every worker count.
    """
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    cpus = _cpus()
    n = min(workers, runs, len(cpus)) if _can_fork() else 1
    cuts = [runs * i // n for i in range(n + 1)]
    # The scheduler need not move a forked child off its parent's CPU, so
    # child i is pinned to cpus[-i] and this process keeps the others.
    _pin(0, cpus[: len(cpus) - n + 1])
    children = []
    try:
        for shard in range(1, n):
            lo, hi = cuts[shard], cuts[shard + 1]
            pid, read_fd = _fork_range(scenario, policy, master_seed, lo, hi, cpus[-shard])
            children.append((shard, pid, read_fd))
        trajectories = _run_range(scenario, policy, master_seed, cuts[0], cuts[1])
    finally:
        _pin(0, cpus)
        replies = [_reap(*child) for child in children]
    for ok, value in replies:
        if not ok:
            raise value
        trajectories += value
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

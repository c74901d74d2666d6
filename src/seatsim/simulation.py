"""Runs of a :mod:`seatsim.scenario_io` scenario: per-run seeds, one run,
many runs stepped as lanes and cut into forked shards, their average over
the seeded runs, and the replay of the recorded seats."""

from __future__ import annotations

import math
import os
import random
import sys
from functools import reduce
from operator import add

from .grid import LaneStack, entropy
from .policies import NoFeasiblePlacement, select_placement, starts_of
from .scenario_io import MeanTrajectory, Scenario, Trajectory

_MASK64 = (1 << 64) - 1


class MissingObservedData(ValueError):
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


def run_once(scenario: Scenario, policy: str, seed: int) -> Trajectory:
    """Simulate one arrival sequence under ``policy`` with a fixed seed."""
    starts_of(policy)  # an unknown policy raises even with no arrivals
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
) -> list[list[int]]:
    """The scores of runs ``lo .. hi-1``, a column per step in run order; a
    failure names the lowest failing run, as playing the runs one by one would.

    More than three runs step together as the lanes of one ``LaneStack``, one
    rule start set per step, each run drawing from its lane with its own rng;
    ``LaneStack.take`` seats every lane and returns the step's column. Fewer
    runs, or runs where one finds no room, play ``run_once`` one by one, and
    their trajectories are turned into columns.
    """
    starts = starts_of(policy)
    seeds = [derive_seed(master_seed, run) for run in range(lo, hi)]
    if len(seeds) > 3:
        hall = scenario.initial_auditorium()
        lanes = LaneStack(hall, len(seeds))
        rngs = [random.Random(seed) for seed in seeds]
        columns = [[entropy(hall)] * len(seeds)]
        try:
            for size in scenario.arrivals:
                columns.append(lanes.take(starts(lanes, size), size, rngs))
            return columns
        except NoFeasiblePlacement:
            pass  # replayed run by run below
    trajectories = []
    for run, seed in enumerate(seeds, start=lo):
        try:
            trajectories.append(run_once(scenario, policy, seed))
        except NoFeasiblePlacement as exc:
            raise NoFeasiblePlacement(f"run {run}: {exc}", step=exc.step, run=run) from exc
    return [list(column) for column in zip(*trajectories)]


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
    the read end of a pipe that gets the pickled ``(True, columns)`` or
    ``(False, exception)``."""
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
    columns of scores over a pipe, and every child is reaped before this
    returns. A shard of more than three runs steps them together, one rule
    start set per step for all of them (``_run_range``). Each step's column
    is joined shard by shard in index order, each column gives that step's
    statistics, and a failure reports the lowest failing run, so the result
    is the same for every worker count.
    """
    for name, value in (("runs", runs), ("master_seed", master_seed), ("workers", workers)):
        if type(value) is not int:  # ``True`` would pass as 1
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if runs < 1:
        raise ValueError(f"need at least one run, got {runs}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    starts_of(policy)  # an unknown policy raises before anything is forked
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
        columns = _run_range(scenario, policy, master_seed, cuts[0], cuts[1])
    finally:
        _pin(0, cpus)
        replies = [_reap(*child) for child in children]
    for ok, value in replies:
        if not ok:
            raise value
        columns = [mine + theirs for mine, theirs in zip(columns, value)]
    mean, std, low, high = [], [], [], []
    for column in columns:
        m = sum(column) / runs
        mean.append(m)
        # Left to right, as ``sum`` added floats before 3.12 compensated them.
        std.append(math.sqrt(reduce(add, [(x - m) ** 2 for x in column], 0.0) / runs))
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

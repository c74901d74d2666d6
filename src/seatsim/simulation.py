"""Runs of a :mod:`seatsim.scenario_io` scenario: per-run seeds, one run,
many runs stepped as lanes and cut into shards, their average over the
seeded runs, and the replay of the recorded seats.

Each shard after the first runs in a worker process, one per extra shard.
The first ``run_many`` call that needs shard i forks its worker, and later
calls send it requests over a pipe; a worker found dead is forked again.
A worker keeps the module state it had when it was forked, so code that
patches this module or :mod:`seatsim.policies` closes the workers first.
Of its fds it keeps only its two pipe ends and the standard streams. A
process forked from this one drops its copies of the pool at the fork.
The workers are closed and reaped by ``_close_workers``, also at exit.
"""

from __future__ import annotations

import atexit
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


_workers: dict = {}  # extra shard -> its worker's (pid, request fd, reply reader)


def _send(fd: int, obj) -> None:
    """Write ``obj``, pickled, to the pipe ``fd``; a write may take part of it."""
    import pickle

    data = memoryview(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))
    while data:
        data = data[os.write(fd, data) :]


def _serve(request_fd: int, reply_fd: int) -> None:
    """A worker's loop: answer each pickled ``_run_range`` request with
    ``(True, columns)`` or ``(False, exception)`` until the requests end."""
    import pickle

    with open(request_fd, "rb") as requests:
        while True:
            try:
                args = pickle.load(requests)
            except EOFError:
                return
            try:
                reply = (True, _run_range(*args))
            except Exception as exc:
                reply = (False, exc)
            _send(reply_fd, reply)


def _drop(shard: int) -> int | None:
    """Close shard ``shard``'s pipes, so its worker reads the end of its
    requests and exits, and reap it; returns its wait status, or None where
    other code reaped it first. A forked child holds no copy of the pipes."""
    pid, request_fd, replies = _workers.pop(shard)
    os.close(request_fd)
    replies.close()
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


def _close_workers() -> None:
    """Close and reap every worker; a forked child has none."""
    for shard in list(_workers):
        _drop(shard)


def _forget_workers() -> None:
    """A forked child closes its copies of the pool's pipes and forgets the pool."""
    for _, request_fd, replies in _workers.values():
        os.close(request_fd)
        replies.close()
    _workers.clear()


atexit.register(_close_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _worker(shard: int, cpu: int) -> tuple[int, int, object]:
    """Shard ``shard``'s worker pinned to ``cpu``; forked when it is missing
    or has died. If a fork fails, every worker is closed."""
    if shard in _workers:
        pid = _workers[shard][0]
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                _pin(pid, {cpu})
                return _workers[shard]
        except ChildProcessError:  # reaped by other code
            pass
        _drop(shard)
    request_read, request_write = os.pipe()
    reply_read, reply_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (request_read, request_write, reply_read, reply_write):
            os.close(fd)
        _close_workers()
        raise
    if pid == 0:
        code = 1
        try:
            # No fd of the caller may stay open for the worker's life.
            keep = sorted({0, 1, 2, request_read, reply_write})
            for fd, next_fd in zip(keep, keep[1:] + [os.sysconf("SC_OPEN_MAX")]):
                os.closerange(fd + 1, next_fd)
            _serve(request_read, reply_write)
            code = 0
        finally:
            os._exit(code)  # never unwind into the caller's stack
    # Moved before it first runs, the worker starts on ``cpu`` at once
    # instead of queueing behind this process.
    _pin(pid, {cpu})
    os.close(request_read)
    os.close(reply_write)
    _workers[shard] = pid, request_write, open(reply_read, "rb")
    return _workers[shard]


def _reply(shard: int) -> tuple[bool, object]:
    """Shard ``shard``'s reply to the request it was sent. What the worker
    did is returned, never raised; a worker that ended without a reply is
    reaped."""
    import pickle

    pid, _, replies = _workers[shard]
    try:
        return pickle.load(replies)
    except (EOFError, pickle.UnpicklingError):
        return False, RuntimeError(
            f"shard {shard}: worker process {pid} ended without a result "
            f"(wait status {_drop(shard)})"
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
    first shard, and the worker of shard i runs shard i and returns its
    columns of scores over a pipe. A worker is forked by the first call
    that needs it, with the module state of its fork and no fd open but
    its pipes and the standard streams, and serves every later call of
    this process until ``_close_workers`` reaps it, at exit at the latest;
    a process forked from this one drops its copies of the pool. A shard
    of more than three runs steps them together (``_run_range``). Each
    step's column is joined shard by shard in index order, each column
    gives that step's statistics, and a failure reports the lowest failing
    run, so the result is the same for every worker count.
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
    # The scheduler need not move a forked worker off its parent's CPU, so
    # worker i is pinned to cpus[-i] and this process keeps the others.
    _pin(0, cpus[: len(cpus) - n + 1])
    sent = []
    try:
        pool = [_worker(shard, cpus[-shard]) for shard in range(1, n)]
        for shard, (_, request_fd, _) in enumerate(pool, start=1):
            try:
                _send(request_fd, (scenario, policy, master_seed, cuts[shard], cuts[shard + 1]))
            except BrokenPipeError:
                pass  # the worker died; its reply says so
            sent.append(shard)
        columns = _run_range(scenario, policy, master_seed, cuts[0], cuts[1])
    finally:
        _pin(0, cpus)
        try:
            replies = [_reply(shard) for shard in sent]
        except BaseException:  # an interrupted read would leave a reply behind
            _close_workers()
            raise
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

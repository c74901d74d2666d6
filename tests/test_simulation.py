from __future__ import annotations

import errno
import math
import os
import random
import signal
import subprocess
import sys
import threading

import pytest

from seatsim import simulation
from seatsim import (
    MissingObservedData,
    NoFeasiblePlacement,
    POLICY_NAMES,
    Scenario,
    SeatConflict,
    SeatCoord,
    derive_seed,
    entropy,
    replay_observed,
    run_many,
    run_once,
)
from seatsim import parse_scenario, policies
from seatsim.grid import Auditorium, LaneStack, Placement, board_cells
from support import (
    assert_lanes_exact,
    center_of_mass_bf,
    entropy_bf,
    exact_mean_trajectory,
    lanes_of,
    mirrored,
    occupied_cells,
    policy_candidates_bf,
    run_once_bf,
)
from test_golden import wide_hall_scenario


def small_scenario() -> Scenario:
    return Scenario(
        rows=5,
        cols=9,
        initial_occupancy=((1, 2), (1, 3), (3, 6)),
        arrivals=(2, 1, 3, 2),
    )


class TestDeriveSeed:
    def test_frozen_reference_values(self):
        # pin the splitmix64-based derivation so the stream never drifts
        assert derive_seed(0, 0) == 12035550249420947055
        assert derive_seed(0, 1) == 627405149472732430
        assert derive_seed(42, 0) == 6332618229526065668
        assert derive_seed(2**64 - 1, 7) == derive_seed(-1, 7)

    def test_no_collisions_at_scale(self):
        seen = {derive_seed(0, i) for i in range(1_000_000)}
        assert len(seen) == 1_000_000

    def test_masters_produce_distinct_streams(self):
        a = [derive_seed(1, i) for i in range(100)]
        b = [derive_seed(2, i) for i in range(100)]
        assert not set(a) & set(b)


class TestRunOnce:
    def test_zero_arrivals(self):
        sc = Scenario(rows=2, cols=3, initial_occupancy=((1, 1),), arrivals=())
        assert run_once(sc, "random", 0) == [entropy(sc.initial_auditorium())]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_same_seed_same_trajectory(self, policy):
        sc = small_scenario()
        assert run_once(sc, policy, 999) == run_once(sc, policy, 999)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_full_row_ends_at_zero(self, policy):
        sc = Scenario(rows=1, cols=14, initial_occupancy=(), arrivals=(14,))
        assert run_once(sc, policy, 3) == [0, 0]

    def test_trajectory_length_and_integer_values(self):
        sc = small_scenario()
        traj = run_once(sc, "space", 7)
        assert len(traj) == len(sc.arrivals) + 1
        assert all(isinstance(v, int) for v in traj)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_occupied_count_is_conserved(self, policy):
        sc = small_scenario()
        for seed in range(20):
            aud = sc.initial_auditorium()
            rng = random.Random(seed)
            from seatsim import select_placement

            for size in sc.arrivals:
                aud.occupy(select_placement(policy, aud, size, rng))
            assert aud.occupied_count == len(sc.initial_occupancy) + sum(sc.arrivals)

    def test_overfull_scenario_reports_step(self):
        sc = Scenario(rows=1, cols=3, initial_occupancy=(), arrivals=(2, 2))
        with pytest.raises(NoFeasiblePlacement) as exc_info:
            run_once(sc, "random", 0)
        assert exc_info.value.step == 2


class TestRunMany:
    def test_single_run_equals_trajectory(self):
        sc = small_scenario()
        aggregate = run_many(sc, "center", 1, 5)
        single = run_once(sc, "center", derive_seed(5, 0))
        assert aggregate.mean == [float(v) for v in single]
        assert aggregate.std == [0.0] * len(single)
        assert aggregate.min == single
        assert aggregate.max == single
        assert aggregate.run_count == 1

    def test_forced_choices_have_zero_variance(self):
        sc = Scenario(rows=1, cols=3, initial_occupancy=((1, 1), (1, 3)), arrivals=(1,))
        aggregate = run_many(sc, "random", 40, 11)
        assert aggregate.std == [0.0, 0.0]
        assert aggregate.mean == aggregate.min == aggregate.max != []
        assert all(m == int(m) for m in aggregate.mean)

    def test_repeatable_and_thread_count_independent(self):
        sc = small_scenario()
        base = run_many(sc, "space", 60, 42)
        again = run_many(sc, "space", 60, 42)
        threaded = run_many(sc, "space", 60, 42, workers=4)
        assert base == again == threaded

    def test_runs_start_no_thread(self, monkeypatch):
        sc = small_scenario()
        serial = run_many(sc, "space", 20, 0, workers=1)

        def refuse(self):
            raise AssertionError("run_many started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert run_many(sc, "space", 20, 0, workers=4) == serial

    def test_matches_manual_aggregation(self):
        sc = small_scenario()
        runs = 30
        aggregate = run_many(sc, "simple", runs, 8)
        trajectories = [run_once(sc, "simple", derive_seed(8, i)) for i in range(runs)]
        for t in range(len(sc.arrivals) + 1):
            column = [traj[t] for traj in trajectories]
            mean = sum(column) / runs
            assert aggregate.mean[t] == mean
            assert aggregate.std[t] == pytest.approx(
                math.sqrt(sum((x - mean) ** 2 for x in column) / runs), abs=1e-12
            )
            assert aggregate.min[t] == min(column)
            assert aggregate.max[t] == max(column)

    def test_failure_carries_run_and_step(self):
        sc = Scenario(rows=1, cols=3, initial_occupancy=(), arrivals=(2, 2))
        with pytest.raises(NoFeasiblePlacement) as exc_info:
            run_many(sc, "max", 5, 0)
        assert exc_info.value.run == 0
        assert exc_info.value.step == 2

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError, match="need at least one run, got 0"):
            run_many(small_scenario(), "random", 0, 0)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="^need at least one worker, got 0$"):
            run_many(small_scenario(), "random", 4, 0, workers=0)

    @pytest.mark.parametrize("runs, workers, message", [
        (True, 1, "runs must be an integer, got True"),
        (False, 1, "runs must be an integer, got False"),
        (4, True, "workers must be an integer, got True"),
        (2.0, 1, "runs must be an integer, got 2.0"),
    ])
    def test_rejects_a_count_that_is_not_an_int(self, runs, workers, message):
        # ``bool`` is an ``int`` subclass: ``True`` would run once as ``run_count=True``.
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_many(small_scenario(), "random", runs, 0, workers=workers)

    @pytest.mark.parametrize("seed", [1.5, "0", True, None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # Unchecked, ``True`` seeds as 1 and the others give a ``TypeError``.
        with pytest.raises(ValueError, match=f"^master_seed must be an integer, got {seed!r}$"):
            run_many(small_scenario(), "random", 4, seed)

    @pytest.mark.parametrize("runs", [3, 8])
    def test_unknown_policy_raises_without_arrivals(self, runs):
        sc = Scenario(rows=2, cols=3, initial_occupancy=(), arrivals=())
        message = r"unknown policy 'bogus'; expected one of random, max, space, simple, center$"
        with pytest.raises(ValueError, match=message):
            run_many(sc, "bogus", runs, 0)
        with pytest.raises(ValueError, match=message):
            run_once(sc, "bogus", 0)


def _no_own_step(*args):
    raise AssertionError("a run stepped on its own")


def _columns(trajectories):
    """Trajectories, a list per run, as a column per step in run order."""
    return [list(column) for column in zip(*trajectories)]


class TestStepMajor:
    """A shard of more than three runs steps them together as the lanes of
    one ``LaneStack``, one rule start set per step; every trajectory stays
    the one ``run_once`` plays."""

    @pytest.fixture(scope="class")
    def wide_hall(self):
        return parse_scenario(wide_hall_scenario())

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_lanes_match_run_once(self, fig1_scenario, wide_hall, monkeypatch, policy):
        for sc, runs in ((fig1_scenario, 40), (wide_hall, 8)):
            expected = [run_once(sc, policy, derive_seed(9, run)) for run in range(runs)]
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "run_once", _no_own_step)
                patch.setattr(simulation, "select_placement", _no_own_step)
                assert simulation._run_range(sc, policy, 9, 0, runs) == _columns(expected)

    def test_lanes_match_run_once_on_random_halls(self, monkeypatch):
        # Seeded random halls of 1-20 rows, 1, 2, 127, 128 or other seats a
        # row (one- and two-byte fields), their seats and arrivals, every
        # rule, 4-33 runs. A case some run finds no room in must fail both
        # ways; every other case is played by the lanes alone.
        rng, compared = random.Random(2608), 0
        for case in range(80):
            rows, cols = rng.randint(1, 20), rng.choice([1, 2, 127, 128, rng.randint(3, 126)])
            density = rng.uniform(0, 0.6)
            seats = tuple((r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)
                          if rng.random() < density)
            arrivals = tuple(rng.choice([1, 1, 2, 3, rng.randint(1, min(cols, 9))])
                             for _ in range(rng.randint(0, 12)))
            sc = Scenario(rows=rows, cols=cols, initial_occupancy=seats, arrivals=arrivals)
            policy, runs = POLICY_NAMES[case % len(POLICY_NAMES)], rng.randint(4, 33)
            try:
                expected = [run_once(sc, policy, derive_seed(case, run)) for run in range(runs)]
            except NoFeasiblePlacement:
                with pytest.raises(NoFeasiblePlacement):
                    simulation._run_range(sc, policy, case, 0, runs)
                continue
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "run_once", _no_own_step)
                assert simulation._run_range(sc, policy, case, 0, runs) == _columns(expected), case
            compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_lanes_draw_once_per_step_as_run_once_does(
        self, fig1_scenario, wide_hall, monkeypatch, policy
    ):
        # Each run's stops for ``randrange``, by seed. Overriding only ``randrange``
        # keeps ``_randbelow`` on ``getrandbits``, so the stream is the one it was.
        stops = {}

        class Recording(random.Random):
            def __init__(self, seed):
                stops[seed] = self.stops = []
                super().__init__(seed)

            def randrange(self, *args):
                self.stops.append(args)
                return super().randrange(*args)

        monkeypatch.setattr(random, "Random", Recording)
        for sc, runs in ((fig1_scenario, 40), (wide_hall, 8)):
            seeds = [derive_seed(9, run) for run in range(runs)]
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "run_once", _no_own_step)
                simulation._run_range(sc, policy, 9, 0, runs)
            in_lanes = [stops.pop(seed) for seed in seeds]
            assert all(len(run) == len(sc.arrivals) for run in in_lanes)
            for seed, run in zip(seeds, in_lanes):
                run_once(sc, policy, seed)
                assert run == stops.pop(seed)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_lane_sums_and_scores_stay_exact(self, fig1_scenario, wide_hall, monkeypatch, policy):
        # Before every step and after the last, each lane's board decodes to a
        # hall whose score is the one the lane keeps and whose center of mass
        # its ball covers, and the columns hold each step's scores.
        rule, stacks, scores = policies._STARTS[policy], [], []

        def check(stack):
            assert_lanes_exact(stack, stack._scores)
            scores.append(list(stack._scores))

        def checking(aud, size):
            check(aud)
            stacks.append(aud)
            return rule(aud, size)

        monkeypatch.setitem(policies._STARTS, policy, checking)
        monkeypatch.setattr(simulation, "run_once", _no_own_step)
        for sc, runs in ((fig1_scenario, 40), (wide_hall, 8)):
            stacks.clear()
            scores.clear()
            columns = simulation._run_range(sc, policy, 9, 0, runs)
            check(stacks[-1])
            assert len(scores) == len(sc.arrivals) + 1
            assert columns == scores

    @pytest.mark.parametrize("runs, own", [(1, 1), (3, 3), (4, 0), (9, 0)])
    def test_shards_of_three_runs_or_fewer_share_nothing(
        self, fig1_scenario, monkeypatch, runs, own
    ):
        played = []
        play = simulation.run_once
        monkeypatch.setattr(
            simulation, "run_once", lambda *args: played.append(args) or play(*args)
        )
        run_many(fig1_scenario, "center", runs, 1)
        assert len(played) == own

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_each_lane_holds_its_halls_start_set(self, fig1_scenario, monkeypatch, policy):
        # fig1; a hall that starts empty, so that at step 1 no lane has anyone
        # seated or a center; and small halls that fill up until some lanes
        # fall back to every feasible spot while others keep their own set.
        scenarios = [
            (fig1_scenario, 40),
            (Scenario(rows=4, cols=6, initial_occupancy=(), arrivals=(2, 1, 1, 2, 1, 2, 2, 1)), 30),
            (Scenario(rows=4, cols=5, initial_occupancy=((2, 3),), arrivals=(1,) * 9), 30),
        ]
        rule = policies._STARTS[policy]
        anywhere, merge = policies.random_starts, LaneStack._or
        steps, fallbacks, mixed = [], [], []

        def recording(aud, size):
            halls = assert_lanes_exact(aud, aud._scores)
            starts = rule(aud, size)
            steps.append((halls, size, lanes_of(aud, starts)))
            return starts

        def scanning(aud, size):
            fallbacks.append(anywhere(aud, size))
            return fallbacks[-1]

        def merging(aud, own, other):
            # A rule's own set merged with every feasible spot: the lanes where
            # it is empty fall back, and whether others keep theirs is noted.
            if fallbacks and other is fallbacks[-1]:
                mixed.append(any(lanes_of(aud, own)))
            return merge(aud, own, other)

        monkeypatch.setitem(policies._STARTS, policy, recording)
        monkeypatch.setattr(policies, "random_starts", scanning)
        monkeypatch.setattr(LaneStack, "_or", merging)
        for sc, runs in scenarios:
            steps.clear()
            run_many(sc, policy, runs, 5)
            assert len(steps) == len(sc.arrivals)
            assert all(not hall.occupied_count for hall in steps[0][0]) == (not sc.initial_occupancy)
            for halls, size, lanes in steps:
                assert len(halls) == len(lanes) == runs
                for hall, lane in zip(halls, lanes):
                    found = {Placement(r, s, size) for r, s in board_cells(lane, hall.cols)}
                    assert found == policy_candidates_bf(policy, hall, size)
        assert any(mixed) == (policy != "random")

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_one_rule_set_per_step(self, fig1_scenario, monkeypatch, policy):
        calls = []
        rule = policies._STARTS[policy]

        def counted(aud, size):
            calls.append(size)
            return rule(aud, size)

        monkeypatch.setitem(policies._STARTS, policy, counted)
        run_many(fig1_scenario, policy, 30, 4)
        assert calls == list(fig1_scenario.arrivals)


# A 1x3 hall where the second group (2 seats) fails whenever the first
# person took the middle seat; with 6 runs and 2 shards, runs 3-5 are shard 1.
TIGHT = Scenario(rows=1, cols=3, initial_occupancy=(), arrivals=(1, 2))
TIGHT_RUNS = 6


def _failing_runs(master_seed: int) -> list[int]:
    failing = []
    for run in range(TIGHT_RUNS):
        try:
            run_once(TIGHT, "random", derive_seed(master_seed, run))
        except NoFeasiblePlacement:
            failing.append(run)
    return failing


def _tight_seed(first_failure_in_shard_0: bool) -> int:
    """A master seed whose runs fail in shard 1, and in shard 0 as asked."""
    half = TIGHT_RUNS // 2
    for seed in range(1000):
        failing = _failing_runs(seed)
        if failing and failing[-1] >= half and (failing[0] < half) == first_failure_in_shard_0:
            return seed
    raise AssertionError("no such seed")


# A 1x7 hall with seats 4 and 6 taken: after a single, a pair finds no room
# at step 2 or at step 3, depending on where the single and the first pair sat.
CRAMPED = Scenario(rows=1, cols=7, initial_occupancy=((1, 4), (1, 6)), arrivals=(1, 2, 2))
CRAMPED_RUNS = 16


def _serial_failure(sc: Scenario, runs: int, master_seed: int):
    """Message, run and step of the failure that playing the runs one by one
    reports: the lowest failing run's."""
    for run in range(runs):
        try:
            run_once(sc, "random", derive_seed(master_seed, run))
        except NoFeasiblePlacement as exc:
            return f"run {run}: {exc}", run, exc.step
    return None


def _cramped_seed() -> int:
    """A master seed where, within the first half of the runs, a run fails
    at an earlier step than the lowest failing run."""
    for seed in range(1000):
        steps = {}
        for run in range(CRAMPED_RUNS // 2):
            try:
                run_once(CRAMPED, "random", derive_seed(seed, run))
            except NoFeasiblePlacement as exc:
                steps[run] = exc.step
        if steps and min(steps.values()) < steps[min(steps)]:
            return seed
    raise AssertionError("no such seed")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds_and_affinity():
    """This process's open fds and CPU affinity, each None where the OS
    does not tell."""
    fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return fds, affinity


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returns to the parent while the test runs."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


@pytest.fixture
def two_shards(monkeypatch, forks):
    """Two usable CPUs whatever the host has, so workers=2 forks one child."""
    monkeypatch.setattr(simulation, "_cpus", lambda: [0, 1])
    return forks


@pytest.fixture
def deadline():
    """Fail, instead of hanging, if a wait on a child never returns."""

    def expire(signum, frame):
        raise TimeoutError("run_many did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestShards:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_worker_count_does_not_change_the_aggregate(self, fig1_scenario, policy):
        serial = run_many(fig1_scenario, policy, 50, 3, workers=1)
        for workers in (2, 3):
            assert run_many(fig1_scenario, policy, 50, 3, workers=workers) == serial
        simulation._close_workers()
        assert_no_child_left()

    def test_forks_one_child_per_extra_shard(self, two_shards):
        sc = small_scenario()
        serial = run_many(sc, "max", 9, 4, workers=1)
        assert two_shards == []
        assert run_many(sc, "max", 9, 4, workers=2) == serial
        assert len(two_shards) == 1
        simulation._close_workers()
        assert_no_child_left()

    def test_shard_count_is_bounded_by_cpus_and_runs(self, forks):
        sc = small_scenario()
        serial = run_many(sc, "simple", 3, 1, workers=1)
        assert run_many(sc, "simple", 3, 1, workers=64) == serial
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert len(forks) <= min(cpus - 1, 3 - 1)
        simulation._close_workers()
        assert_no_child_left()

    def test_unknown_policy_forks_nothing(self, two_shards):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            run_many(small_scenario(), "nope", 9, 4, workers=2)
        assert two_shards == []
        simulation._close_workers()
        assert_no_child_left()

    def test_failed_fork_reaps_the_forked_children(self, monkeypatch, forks):
        # The usable CPUs, repeated up to three: pinning back to them leaves
        # this process's affinity as it was, whatever the host has.
        cpus = simulation._cpus()
        monkeypatch.setattr(simulation, "_cpus", lambda: (cpus * 3)[: max(3, len(cpus))])
        counting_fork = os.fork

        def failing_fork():
            if forks:  # the second call
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return counting_fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        before = _open_fds_and_affinity()
        with pytest.raises(BlockingIOError):
            run_many(small_scenario(), "max", 9, 4, workers=3)
        assert len(forks) == 1
        assert_no_child_left()
        assert _open_fds_and_affinity() == before

    def test_no_fork_means_one_shard(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        sc = small_scenario()
        assert run_many(sc, "center", 8, 2, workers=4) == run_many(sc, "center", 8, 2)

    def test_other_threads_mean_no_fork(self, two_shards):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            sc = small_scenario()
            assert run_many(sc, "max", 9, 4, workers=2) == run_many(sc, "max", 9, 4)
        finally:
            release.set()
            waiter.join(30)
        assert not waiter.is_alive()
        assert two_shards == []

    def test_failure_in_a_child_matches_the_serial_failure(self, two_shards):
        seed = _tight_seed(first_failure_in_shard_0=False)
        with pytest.raises(NoFeasiblePlacement) as serial:
            run_many(TIGHT, "random", TIGHT_RUNS, seed, workers=1)
        with pytest.raises(NoFeasiblePlacement) as sharded:
            run_many(TIGHT, "random", TIGHT_RUNS, seed, workers=2)
        assert len(two_shards) == 1
        assert str(sharded.value) == str(serial.value)
        assert (sharded.value.run, sharded.value.step) == (serial.value.run, serial.value.step)
        assert serial.value.run >= TIGHT_RUNS // 2
        simulation._close_workers()
        assert_no_child_left()

    def test_lowest_failing_run_wins(self, two_shards):
        seed = _tight_seed(first_failure_in_shard_0=True)
        with pytest.raises(NoFeasiblePlacement) as sharded:
            run_many(TIGHT, "random", TIGHT_RUNS, seed, workers=2)
        assert len(two_shards) == 1
        assert sharded.value.run == _failing_runs(seed)[0] < TIGHT_RUNS // 2
        simulation._close_workers()
        assert_no_child_left()

    def test_lowest_failing_run_within_a_shard(self, two_shards, monkeypatch):
        seed = _cramped_seed()
        serial = _serial_failure(CRAMPED, CRAMPED_RUNS, seed)
        # Seats taken on each board where the rule found no room, in order.
        full = []
        rule = policies._STARTS["random"]

        def recording(aud, size):
            try:
                return rule(aud, size)
            except NoFeasiblePlacement:
                # Seats per lane: a shard's lanes have all seated as many.
                full.append(aud._board.bit_count() // getattr(aud, "lanes", 1))
                raise

        monkeypatch.setitem(policies._STARTS, "random", recording)
        for workers in (1, 2):
            full.clear()
            with pytest.raises(NoFeasiblePlacement) as exc_info:
                run_many(CRAMPED, "random", CRAMPED_RUNS, seed, workers=workers)
            failure = exc_info.value
            assert (str(failure), failure.run, failure.step) == serial
            # The first shard, played in this process, met a later run's
            # failure at an earlier step first.
            assert full[0] < full[-1]
        assert len(two_shards) == 1
        simulation._close_workers()
        assert_no_child_left()

    @pytest.mark.parametrize("sc", [
        CRAMPED,
        # Whoever takes the middle seat fails at step 2, everyone else at step 3.
        Scenario(rows=1, cols=3, initial_occupancy=(), arrivals=(1, 2, 2)),
        # Several boards of one step leave no run of three seats.
        Scenario(rows=1, cols=5, initial_occupancy=(), arrivals=(1, 1, 3)),
    ])
    def test_failures_match_the_serial_loop_over_seeds(self, sc):
        for seed in range(40):
            try:
                run_many(sc, "random", CRAMPED_RUNS, seed)
            except NoFeasiblePlacement as exc:
                failure = str(exc), exc.run, exc.step
            else:
                failure = None
            assert failure == _serial_failure(sc, CRAMPED_RUNS, seed), f"seed {seed}"

    def test_other_errors_cross_the_pipe_with_their_type(self, two_shards, monkeypatch):
        parent = os.getpid()
        real_rule = policies._STARTS["space"]

        def rule_in_parent_only(aud, size):
            if os.getpid() != parent:
                raise ValueError("raised in the child's shard")
            return real_rule(aud, size)

        monkeypatch.setitem(policies._STARTS, "space", rule_in_parent_only)
        with pytest.raises(ValueError, match="raised in the child's shard"):
            run_many(small_scenario(), "space", 10, 0, workers=2)
        assert len(two_shards) == 1
        simulation._close_workers()
        assert_no_child_left()

    def test_child_dying_without_a_reply_is_a_clean_error(self, two_shards, monkeypatch):
        parent = os.getpid()
        real_range = simulation._run_range

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_range(*args)

        monkeypatch.setattr(simulation, "_run_range", die_in_child)
        with pytest.raises(RuntimeError, match="shard 1") as exc_info:
            run_many(small_scenario(), "random", 10, 0, workers=2)
        assert "without a result" in str(exc_info.value)
        simulation._close_workers()
        assert_no_child_left()

    @pytest.mark.parametrize("affinity", ["missing", "refused"])
    def test_forks_without_cpu_affinity(self, fig1_scenario, forks, monkeypatch, affinity):
        # Where the OS has no affinity calls, the CPU count bounds the shards;
        # where it refuses a pin, the pin is skipped. Either way the work is the same.
        serial = run_many(fig1_scenario, "center", 40, 3, workers=1)
        if affinity == "missing":
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
            cpus = os.cpu_count() or 1
        else:
            def refuse(pid, cpus):
                raise OSError(errno.EINVAL, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
            cpus = len(simulation._cpus())
        assert run_many(fig1_scenario, "center", 40, 3, workers=2) == serial
        assert len(forks) == min(2, cpus) - 1
        simulation._close_workers()
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_parent_gets_its_cpus_back(self, fig1_scenario):
        # The parent pins itself off its children's CPUs while they run.
        before = os.sched_getaffinity(0)
        assert simulation._cpus() == sorted(before)
        run_many(fig1_scenario, "center", 40, 3, workers=2)
        assert os.sched_getaffinity(0) == before
        with pytest.raises(NoFeasiblePlacement):
            run_many(TIGHT, "random", TIGHT_RUNS, _tight_seed(True), workers=2)
        assert os.sched_getaffinity(0) == before
        simulation._close_workers()
        assert_no_child_left()


@pytest.mark.usefixtures("deadline")
class TestWorkerPool:
    """A worker per extra shard, forked by the first call that needs it."""

    def test_later_calls_reuse_the_worker(self, two_shards):
        sc = small_scenario()
        for seed in range(3):
            assert run_many(sc, "max", 9, seed, workers=2) == run_many(sc, "max", 9, seed)
        assert len(two_shards) == 1

    def test_a_failure_leaves_no_reply_behind(self, two_shards):
        # Both shards fail; the worker's reply is read before the error rises.
        with pytest.raises(NoFeasiblePlacement):
            run_many(TIGHT, "random", TIGHT_RUNS, _tight_seed(True), workers=2)
        sc = small_scenario()
        assert run_many(sc, "max", 9, 4, workers=2) == run_many(sc, "max", 9, 4)
        assert len(two_shards) == 1

    @pytest.mark.parametrize("reaped_by", ["pool", "other code"])
    def test_a_worker_killed_between_calls_is_replaced(self, two_shards, reaped_by):
        sc = small_scenario()
        serial = run_many(sc, "max", 9, 4)
        run_many(sc, "max", 9, 4, workers=2)
        [pid] = two_shards
        os.kill(pid, signal.SIGKILL)
        if reaped_by == "pool":
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
        else:
            os.waitpid(pid, 0)
        assert run_many(sc, "max", 9, 4, workers=2) == serial
        assert len(two_shards) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)  # reaped once, by one of the two

    def test_a_worker_dying_in_a_call_is_replaced_by_the_next(self, two_shards, monkeypatch):
        sc = small_scenario()
        serial = run_many(sc, "random", 10, 0)
        parent = os.getpid()
        real_range = simulation._run_range

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real_range(*args)

        monkeypatch.setattr(simulation, "_run_range", die_in_child)
        with pytest.raises(RuntimeError, match="shard 1: .* without a result"):
            run_many(sc, "random", 10, 0, workers=2)
        monkeypatch.setattr(simulation, "_run_range", real_range)
        assert run_many(sc, "random", 10, 0, workers=2) == serial
        assert len(two_shards) == 2

    def test_an_interrupted_read_closes_the_pool(self, two_shards, monkeypatch):
        # Otherwise the unread reply would be taken for the next call's.
        sc = small_scenario()
        real_reply = simulation._reply

        def interrupted(shard):
            raise TimeoutError("interrupted")

        monkeypatch.setattr(simulation, "_reply", interrupted)
        with pytest.raises(TimeoutError, match="interrupted"):
            run_many(sc, "max", 9, 4, workers=2)
        assert simulation._workers == {}
        assert_no_child_left()
        monkeypatch.setattr(simulation, "_reply", real_reply)
        assert run_many(sc, "max", 9, 5, workers=2) == run_many(sc, "max", 9, 5)
        assert len(two_shards) == 2

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two usable CPUs",
    )
    def test_each_call_pins_the_worker_again(self, forks):
        sc = small_scenario()
        last = simulation._cpus()[-1]
        run_many(sc, "max", 9, 4, workers=2)
        [pid] = forks
        assert os.sched_getaffinity(pid) == {last}
        os.sched_setaffinity(pid, set(simulation._cpus()) - {last})
        run_many(sc, "max", 9, 4, workers=2)
        assert os.sched_getaffinity(pid) == {last}
        assert forks == [pid]

    def test_a_worker_holds_no_other_workers_pipes(self, monkeypatch, forks):
        # Were worker 2 to hold worker 1's request pipe, worker 1 would never
        # read its end, and closing it alone would wait for the deadline.
        cpus = simulation._cpus()
        monkeypatch.setattr(simulation, "_cpus", lambda: (cpus * 3)[: max(3, len(cpus))])
        sc = small_scenario()
        serial = run_many(sc, "max", 9, 4)
        assert run_many(sc, "max", 9, 4, workers=3) == serial
        assert len(forks) == 2
        assert os.waitstatus_to_exitcode(simulation._drop(1)) == 0
        assert run_many(sc, "max", 9, 4, workers=3) == serial
        assert len(forks) == 3

    def test_a_forked_process_forks_its_own_worker(self, two_shards, monkeypatch):
        sc = small_scenario()
        serial = run_many(sc, "max", 9, 4)
        assert run_many(sc, "max", 9, 4, workers=2) == serial
        [worker] = two_shards
        waited = []
        real_waitpid = os.waitpid

        def recording_waitpid(pid, options):
            waited.append(pid)
            return real_waitpid(pid, options)

        monkeypatch.setattr(os, "waitpid", recording_waitpid)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # This copy of the pool is the parent's; it is not used or reaped.
                same = run_many(sc, "max", 9, 4, workers=2) == serial
                forked_one = len(two_shards) == 2
                simulation._close_workers()
                code = 0 if same and forked_one and worker not in waited else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert run_many(sc, "max", 9, 4, workers=2) == serial
        assert two_shards == [worker, pid]  # this test's fork, and no other

    @pytest.mark.usefixtures("deadline")
    def test_a_child_forked_by_other_code_does_not_hold_the_worker(self, two_shards):
        # The child holds nothing of the pool, so closing it reaps the worker
        # while the child still waits on the test.
        sc = small_scenario()
        run_many(sc, "max", 9, 4, workers=2)
        [worker] = two_shards
        hold_read, hold_write = os.pipe()
        child = os.fork()
        if child == 0:
            try:
                os.close(hold_write)
                os.read(hold_read, 1)  # until the test closes its end
            finally:
                os._exit(0)
        os.close(hold_read)
        try:
            simulation._close_workers()
            with pytest.raises(ChildProcessError):
                os.waitpid(worker, os.WNOHANG)  # reaped
            assert os.waitpid(child, os.WNOHANG) == (0, 0)  # still waiting
        finally:
            os.close(hold_write)
            _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert_no_child_left()

    def test_a_worker_keeps_none_of_the_callers_fds(self, two_shards):
        # A pipe opened before the worker was forked ends for its reader
        # once the caller closes its write end, while the worker lives.
        sc = small_scenario()
        read_fd, write_fd = os.pipe()
        try:
            assert run_many(sc, "max", 9, 4, workers=2) == run_many(sc, "max", 9, 4)
        finally:
            os.close(write_fd)
        [worker] = two_shards
        os.set_blocking(read_fd, False)
        try:
            assert os.read(read_fd, 1) == b""
        finally:
            os.close(read_fd)
        assert os.waitpid(worker, os.WNOHANG) == (0, 0)  # still serving

    def test_a_process_exits_without_waiting_on_its_worker(self):
        # The worker has this process's stdout and stderr; closed at exit,
        # it ends with it, so the reader of those pipes sees their end.
        script = (
            "from seatsim import Scenario, run_many, simulation\n"
            "sc = Scenario(rows=5, cols=9, initial_occupancy=((1, 2),), arrivals=(2, 1, 3))\n"
            "assert run_many(sc, 'max', 9, 4, workers=2) == run_many(sc, 'max', 9, 4)\n"
            "print(*(pid for pid, _, _ in simulation._workers.values()))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (result.returncode, result.stderr) == (0, "")
        for pid in map(int, result.stdout.split()):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped by the process that forked it


def _small_hall(seed: int) -> Scenario:
    """A 4x6 hall about a third full, where 5 groups of 1 or 2 arrive."""
    rng = random.Random(seed)
    seats = tuple((r, s) for r in range(1, 5) for s in range(1, 7) if rng.random() < 0.35)
    arrivals = tuple(rng.randint(1, 2) for _ in range(5))
    return Scenario(rows=4, cols=6, initial_occupancy=seats, arrivals=arrivals)


class TestExactReferee:
    """The Monte Carlo mean lies within four standard errors of the exact
    expectation of the brute-force rules at every step, whatever order the
    runs' draws meet their boards in."""

    @staticmethod
    def assert_near_exact(sc: Scenario, policy: str, runs: int, master_seed: int):
        exact = exact_mean_trajectory(sc, policy)
        aggregate = run_many(sc, policy, runs, master_seed)
        assert len(exact) == len(aggregate.mean) == len(sc.arrivals) + 1
        for step, (mean, std, expected) in enumerate(zip(aggregate.mean, aggregate.std, exact)):
            assert abs(mean - float(expected)) <= 4 * std / math.sqrt(runs) + 1e-9, f"step {step}"

    def test_center_on_fig1(self, fig1_scenario):
        # The first ten groups keep the exact map to a few thousand boards.
        sc = Scenario(
            rows=fig1_scenario.rows,
            cols=fig1_scenario.cols,
            initial_occupancy=fig1_scenario.initial_occupancy,
            arrivals=fig1_scenario.arrivals[:10],
        )
        self.assert_near_exact(sc, "center", 1000, 0)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize("hall", [0, 1])
    def test_every_rule_on_small_halls(self, policy, hall):
        self.assert_near_exact(_small_hall(hall), policy, 2000, hall)


class TestInitialHall:
    def test_returned_halls_are_independent(self):
        sc = small_scenario()
        first = sc.initial_auditorium()
        first.occupy_seats([(5, 9)])
        second = sc.initial_auditorium()
        assert occupied_cells(second) == list(sc.initial_occupancy)
        assert second is not first and second != first

    def test_reassigned_layout_rebuilds_the_hall(self):
        sc = small_scenario()
        assert occupied_cells(sc.initial_auditorium()) == list(sc.initial_occupancy)
        sc.initial_occupancy = (SeatCoord(2, 2),)
        assert occupied_cells(sc.initial_auditorium()) == [SeatCoord(2, 2)]
        sc.rows, sc.cols = 3, 4
        hall = sc.initial_auditorium()
        assert (hall.rows, hall.cols) == (3, 4)
        assert occupied_cells(hall) == [SeatCoord(2, 2)]

    def test_bad_seat_raises_on_every_call(self):
        sc = Scenario(rows=2, cols=2, initial_occupancy=((3, 1),), arrivals=())
        for _ in range(2):
            with pytest.raises(ValueError, match=r"seat \(3,1\) outside 2x2"):
                sc.initial_auditorium()

    def test_built_hall_is_not_part_of_equality_or_repr(self):
        a, b = small_scenario(), small_scenario()
        text = repr(a)
        a.initial_auditorium()
        assert a == b
        assert repr(a) == repr(b) == text
        assert "_hall" not in text


class TestBruteForceReferee:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_fig1_runs_match_oracle_replay(self, fig1_scenario, policy):
        # the bitmask rules and the first-principles oracles must draw the
        # same placements from the same seeds, so the averaged trajectories
        # compared in the acceptance gate follow from the documented rules
        for i in range(10):
            seed = derive_seed(0, i)
            assert run_once(fig1_scenario, policy, seed) == run_once_bf(
                fig1_scenario, policy, seed
            ), f"{policy} run {i}"


class TestReplayObserved:
    def test_missing_observed(self):
        with pytest.raises(MissingObservedData):
            replay_observed(small_scenario())

    def test_matches_forced_run(self):
        # a single feasible placement makes every policy deterministic, so
        # replaying the same seats must reproduce run_once exactly
        sc = Scenario(
            rows=1,
            cols=3,
            initial_occupancy=((1, 1), (1, 3)),
            arrivals=(1,),
            observed=(((1, 2),),),
        )
        replayed = replay_observed(sc)
        for policy in POLICY_NAMES:
            assert run_once(sc, policy, 0) == replayed

    def test_overlapping_observed_conflicts(self):
        sc = Scenario(
            rows=2,
            cols=3,
            initial_occupancy=((1, 1),),
            arrivals=(1, 1),
            observed=(((2, 2),), ((2, 2),)),
        )
        with pytest.raises(SeatConflict):
            replay_observed(sc)

    def test_entropy_recorded_after_each_step(self):
        sc = Scenario(
            rows=2,
            cols=4,
            initial_occupancy=(),
            arrivals=(2, 1),
            observed=(((1, 1), (1, 2)), ((2, 4),)),
        )
        assert replay_observed(sc) == [0, 1, 2]

    def test_every_step_matches_brute_force_on_wide_halls(self):
        # Each step recounts the hall in closed form; a brute-force count of
        # the whole hall must agree after every one of them.
        rng = random.Random(40)
        cells = [(r, s) for r in range(1, 21) for s in range(1, 41)]
        for _ in range(6):
            order = rng.sample(cells, len(cells))
            initial, order = order[: rng.randint(0, 120)], order[120:]
            sizes = [rng.randint(1, 4) for _ in range(30)]
            observed = []
            for size in sizes:
                observed.append(order[:size])
                del order[:size]
            sc = Scenario(20, 40, tuple(initial), tuple(sizes), tuple(observed))
            aud = sc.initial_auditorium()
            expected = [entropy_bf(aud)]
            assert aud.center_of_mass() == center_of_mass_bf(aud)
            for seats in sc.observed:
                aud.occupy_seats(seats)
                expected.append(entropy_bf(aud))
                assert aud.center_of_mass() == center_of_mass_bf(aud)
            assert replay_observed(sc) == expected


class TestMirrorMetamorphic:
    def test_entropy_distribution_survives_mirroring(self):
        sc = small_scenario()
        twin = Scenario(
            rows=sc.rows,
            cols=sc.cols,
            initial_occupancy=tuple(
                SeatCoord(r, sc.cols + 1 - s) for r, s in sc.initial_occupancy
            ),
            arrivals=sc.arrivals,
        )
        assert entropy(sc.initial_auditorium()) == entropy(twin.initial_auditorium())
        runs = 1200
        direct = run_many(sc, "center", runs, 2)
        flipped = run_many(twin, "center", runs, 2)
        for t, (a, b) in enumerate(zip(direct.mean, flipped.mean)):
            if a == 0 and b == 0:
                continue
            assert abs(a - b) / max(a, b) <= 0.02, f"step {t}: {a} vs {b}"


class TestScenarioNormalization:
    def test_seats_are_sorted_row_major(self):
        sc = Scenario(
            rows=3,
            cols=3,
            initial_occupancy=((2, 2), (1, 3), (1, 1)),
            arrivals=(2,),
            observed=((SeatCoord(3, 3), SeatCoord(3, 2)),),
        )
        assert sc.initial_occupancy == (
            SeatCoord(1, 1),
            SeatCoord(1, 3),
            SeatCoord(2, 2),
        )
        assert sc.observed == ((SeatCoord(3, 2), SeatCoord(3, 3)),)

    def test_initial_auditorium_matches_occupancy(self):
        sc = small_scenario()
        aud = sc.initial_auditorium()
        assert occupied_cells(aud) == list(sc.initial_occupancy)
        assert mirrored(mirrored(aud)) == aud

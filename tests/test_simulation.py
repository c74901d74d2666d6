from __future__ import annotations

import math
import random
import threading

import pytest

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
from support import mirrored, occupied_cells, run_once_bf


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
        with pytest.raises(ValueError):
            run_many(small_scenario(), "random", 0, 0)


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

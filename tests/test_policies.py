from __future__ import annotations

import math
import random
import time

import pytest

from seatsim import (
    Auditorium,
    NoFeasiblePlacement,
    POLICY_NAMES,
    Placement,
    select_placement,
)
from seatsim import cli, grid, policies
from support import (
    coverage_draws,
    feasible_placements_bf,
    min_distance_bf,
    mirror_placement,
    mirrored,
    policy_candidates_bf,
    random_auditorium,
)


def support_of(policy, aud, size, draws, seed=0):
    """Empirical support: distinct placements returned over seeded draws."""
    seen = set()
    for i in range(draws):
        seen.add(select_placement(policy, aud, size, random.Random(seed * 1_000_003 + i)))
    return seen


def observed_support(policy, aud, size, seed=0):
    oracle = policy_candidates_bf(policy, aud, size)
    draws = coverage_draws(len(oracle), floor=200)
    return support_of(policy, aud, size, draws, seed), oracle


class TestSharedContract:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_forced_choice(self, policy):
        aud = Auditorium.from_rows(["#.#"])
        rng = random.Random(3)
        assert select_placement(policy, aud, 1, rng) == Placement(1, 2, 1)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "rows, size",
        [(["##", "##"], 1), (["..."], 10**12), (["...", ".#."], 10**12)],
        ids=["full", "wider-empty", "wider-seated"],
    )
    def test_no_room_raises(self, policy, rows, size):
        # A group wider than a row finds no room in time bounded by the hall.
        aud = Auditorium.from_rows(rows)
        began = time.perf_counter()
        with pytest.raises(NoFeasiblePlacement):
            select_placement(policy, aud, size, random.Random(0))
        assert time.perf_counter() - began < 1

    def test_rule_order(self):
        # The order ``--policy all`` runs the rules in and the ``unknown
        # policy`` message lists them in.
        assert POLICY_NAMES == ("random", "max", "space", "simple", "center")
        assert POLICY_NAMES == tuple(policies._STARTS)
        (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
        simulate = commands.choices["simulate"]
        (policy,) = [a for a in simulate._actions if "--policy" in a.option_strings]
        assert policy.choices == [*POLICY_NAMES, "all"]

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'greedy'; expected one of"):
            select_placement("greedy", Auditorium(2, 2), 1, random.Random(0))

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_determinism(self, policy):
        aud = Auditorium(5, 9, [(2, 3), (4, 7)])
        first = select_placement(policy, aud, 2, random.Random(12345))
        again = select_placement(policy, aud, 2, random.Random(12345))
        assert first == again

    def test_always_feasible_on_random_grids(self):
        rng = random.Random(404)
        for _ in range(40):
            aud = random_auditorium(rng)
            size = rng.randint(1, 4)
            feasible = set(aud.feasible_placements(size))
            if not feasible:
                continue
            for policy in POLICY_NAMES:
                for seed in range(15):
                    assert select_placement(policy, aud, size, random.Random(seed)) in feasible


class TestMax:
    def test_far_corner_after_single_occupant(self):
        aud = Auditorium(3, 5, [(1, 1)])
        for seed in range(10):
            assert select_placement("max", aud, 1, random.Random(seed)) == Placement(3, 5, 1)

    def test_row_end_then_midpoint(self):
        aud = Auditorium(1, 7, [(1, 1)])
        assert select_placement("max", aud, 1, random.Random(0)) == Placement(1, 7, 1)
        aud = Auditorium(1, 7, [(1, 1), (1, 7)])
        assert select_placement("max", aud, 1, random.Random(0)) == Placement(1, 4, 1)

    def test_empty_auditorium_supports_every_cell(self):
        aud = Auditorium(2, 3)
        support, oracle = observed_support("max", aud, 1)
        assert support == oracle == set(aud.feasible_placements(1))

    def test_candidates_mirror_with_the_grid(self):
        rng = random.Random(77)
        for _ in range(25):
            aud = random_auditorium(rng, max_rows=4, max_cols=7)
            size = rng.randint(1, 3)
            if not aud.feasible_placements(size):
                continue
            direct = policy_candidates_bf("max", aud, size)
            flipped = {
                mirror_placement(pl, aud.cols)
                for pl in policy_candidates_bf("max", mirrored(aud), size)
            }
            assert direct == flipped


class TestSpace:
    def test_band_of_two_to_four(self):
        aud = Auditorium(1, 10, [(1, 1)])
        support, oracle = observed_support("space", aud, 1)
        assert oracle == {Placement(1, s, 1) for s in (3, 4, 5)}
        assert support == oracle

    def test_random_fallback_when_band_unreachable(self):
        row = ["#"] * 14
        row[7] = "."
        aud = Auditorium.from_rows(["".join(row)])
        assert select_placement("space", aud, 1, random.Random(9)) == Placement(1, 8, 1)

    def test_corners_only_around_a_center_occupant(self):
        aud = Auditorium(3, 3, [(2, 2)])
        support, oracle = observed_support("space", aud, 1)
        assert oracle == {
            Placement(1, 1, 1),
            Placement(1, 3, 1),
            Placement(3, 1, 1),
            Placement(3, 3, 1),
        }
        assert support == oracle

    def test_band_selection_with_blocked_near_seats(self):
        aud = Auditorium.from_rows(["####.........."])
        # distances of empties 5..14 are 1..10; band [2,4] = seats 6,7,8
        support, oracle = observed_support("space", aud, 1)
        assert oracle == {Placement(1, s, 1) for s in (6, 7, 8)}
        assert support == oracle
        blocked = Auditorium.from_rows(["####.###......"])
        # empty seats: 5 (d=1), 9..14 (d=1..6); band = seats 10,11,12
        support2, oracle2 = observed_support("space", blocked, 1)
        assert oracle2 == {Placement(1, s, 1) for s in (10, 11, 12)}
        assert support2 == oracle2

    def test_empty_auditorium_ties_above_band(self):
        # with nobody seated every distance is infinite, landing in the
        # above-band tier where all placements tie
        aud = Auditorium(2, 3)
        support, oracle = observed_support("space", aud, 1)
        assert support == oracle == set(aud.feasible_placements(1))


class TestSimple:
    def test_distance_strictly_above_two(self):
        aud = Auditorium(1, 10, [(1, 1)])
        support, oracle = observed_support("simple", aud, 1)
        assert oracle == {Placement(1, s, 1) for s in range(4, 11)}
        assert support == oracle

    def test_empty_auditorium_supports_everything(self):
        aud = Auditorium(2, 3)
        support, oracle = observed_support("simple", aud, 2)
        assert support == oracle == set(aud.feasible_placements(2))

    def test_fallback_when_everything_is_close(self):
        aud = Auditorium(3, 5, [(r, s) for r in (1, 3) for s in (1, 3, 5)])
        support, oracle = observed_support("simple", aud, 1)
        assert oracle == set(aud.feasible_placements(1))
        assert support == oracle

    def test_candidates_within_center_threshold(self):
        rng = random.Random(15)
        for _ in range(30):
            aud = random_auditorium(rng, max_rows=4, max_cols=7)
            if not aud.feasible_placements(1):
                continue
            roomy = {
                pl
                for pl in aud.feasible_placements(1)
                if aud.min_distance_to_seated(pl) > 2
            }
            allowed = {
                pl
                for pl in aud.feasible_placements(1)
                if aud.min_distance_to_seated(pl) >= 2
            }
            assert roomy <= allowed


class TestCenter:
    def test_nearest_spot_outside_buffer(self):
        aud = Auditorium(1, 10, [(1, 1)])
        for seed in range(10):
            assert select_placement("center", aud, 1, random.Random(seed)) == Placement(1, 3, 1)

    def test_two_occupants_oracle_equality(self):
        aud = Auditorium(3, 14, [(1, 1), (1, 3)])
        support, oracle = observed_support("center", aud, 1)
        assert len(oracle) == 1
        assert support == oracle

    def test_empty_auditorium_supports_everything(self):
        aud = Auditorium(2, 3)
        support, oracle = observed_support("center", aud, 1)
        assert support == oracle == set(aud.feasible_placements(1))


class TestRandomPolicy:
    def test_two_spots_roughly_even(self):
        aud = Auditorium.from_rows([".#."])
        counts = {1: 0, 3: 0}
        draws = 5000
        for i in range(draws):
            pl = select_placement("random", aud, 1, random.Random(i))
            counts[pl.start_seat] += 1
        assert abs(counts[1] / draws - 0.5) < 0.03

    def test_support_covers_everything_on_small_grid(self):
        aud = Auditorium(2, 4, [(1, 2)])
        support, oracle = observed_support("random", aud, 1)
        assert support == oracle == set(aud.feasible_placements(1))


class TestOracleEquivalenceSmallInstances:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_support_equals_oracle(self, policy):
        rng = random.Random(60_000 + POLICY_NAMES.index(policy))
        checked = 0
        while checked < 12:
            aud = random_auditorium(rng, max_rows=4, max_cols=6, max_density=0.7)
            size = rng.randint(1, 3)
            oracle = policy_candidates_bf(policy, aud, size)
            if not oracle:
                continue
            draws = coverage_draws(len(oracle), floor=200)
            support = support_of(policy, aud, size, draws, seed=checked)
            assert support == oracle
            checked += 1


class TestTieBreakOrder:
    """The rng picks by index from the row-major sorted candidate set."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_choice_is_indexed_in_row_major_order(self, policy):
        rng = random.Random(70_000 + POLICY_NAMES.index(policy))
        for _ in range(200):
            aud = random_auditorium(rng)
            for size in (1, 2, 3, 4):
                ordered = sorted(policy_candidates_bf(policy, aud, size))
                for seed in range(3):
                    if not ordered:
                        with pytest.raises(NoFeasiblePlacement):
                            select_placement(policy, aud, size, random.Random(seed))
                        continue
                    expected = ordered[random.Random(seed).randrange(len(ordered))]
                    assert select_placement(policy, aud, size, random.Random(seed)) == expected


class TestGrowthSteps:
    """Every rule but ``max`` grows the occupants a fixed number of steps,
    so its cost does not depend on how far apart people sit, and scans
    run starts only at the distances it reads."""

    @pytest.mark.parametrize(
        "policy, steps", [("random", 0), ("space", 4), ("simple", 2), ("center", 1)]
    )
    def test_fixed_number_of_growth_steps(self, policy, steps, monkeypatch):
        calls = []
        grow = Auditorium._grow

        def counted(aud, masks):
            calls.append(masks)
            return grow(aud, masks)

        monkeypatch.setattr(Auditorium, "_grow", counted)
        rng = random.Random(80_000 + steps)
        for _ in range(50):
            aud = random_auditorium(rng)
            if not aud.feasible_placements(1):
                continue
            calls.clear()
            select_placement(policy, aud, 1, rng)
            assert len(calls) == steps

    @pytest.mark.parametrize(
        "policy, low, high, scans",
        [("random", 0, math.inf, 1), ("center", 2, math.inf, 1),
         ("simple", 3, math.inf, 1), ("space", 2, 4, 2)],
    )
    def test_run_start_scans(self, policy, low, high, scans, monkeypatch):
        # A rule scans only the distances it reads; the bare free set costs
        # one more scan, and only when nothing lies in [low, high].
        calls = []
        run_starts = Auditorium._run_starts

        def counted(aud, blocked, size):
            calls.append(blocked)
            return run_starts(aud, blocked, size)

        monkeypatch.setattr(Auditorium, "_run_starts", counted)
        rng = random.Random(80_010 + POLICY_NAMES.index(policy))
        branches = set()
        for _ in range(150):
            aud = random_auditorium(rng, max_density=0.9)
            size = rng.randint(1, 3)
            distances = [min_distance_bf(aud, pl) for pl in feasible_placements_bf(aud, size)]
            if not distances:
                continue
            fallback = not any(low <= d <= high for d in distances)
            calls.clear()
            select_placement(policy, aud, size, rng)
            assert len(calls) == scans + fallback
            branches.add(fallback)
        assert branches == ({False} if policy == "random" else {False, True})

    def test_center_ranks_without_listing_candidates(self, monkeypatch):
        ranked = []
        closest = Auditorium._closest

        def counted(aud, candidates, ball):
            ranked.append(candidates)
            return closest(aud, candidates, ball)

        def forbidden(*args):
            raise AssertionError('select_placement("center", ...) listed or scored its candidates')

        rng = random.Random(80_005)
        halls = [random_auditorium(rng) for _ in range(50)]  # built through board_cells
        monkeypatch.setattr(Auditorium, "_closest", counted)
        monkeypatch.setattr(grid, "board_cells", forbidden)
        monkeypatch.setattr(Placement, "min_distance_to", forbidden)
        for aud in halls:
            if aud.center_of_mass() is None:
                continue
            for size in (1, 2, 3, 4):
                # not feasible_placements: it lists through board_cells
                if aud._run_starts(aud._board, size):
                    select_placement("center", aud, size, rng)
        assert len(ranked) > 50

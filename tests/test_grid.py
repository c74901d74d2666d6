from __future__ import annotations

import itertools
import math
import random
import re
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from seatsim import (
    Auditorium,
    Placement,
    SeatConflict,
    SeatCoord,
    center_distance_histogram,
    entropy,
    manhattan_distance,
    nearest_distance_histogram,
    parse_choices,
    parse_scenario,
    policies,
    simulation,
)
from seatsim.grid import (
    GridError,
    LaneStack,
    _nth_bit,
    _number_masks,
    _seat_bits,
    board_cells,
    read_grid,
)
from support import (
    assert_lanes_exact,
    center_of_mass_bf,
    covering_bf,
    entropy_bf,
    feasible_placements_bf,
    lane_halls,
    lanes_of,
    min_distance_bf,
    mirror_placement,
    mirrored,
    occupied_cells,
    placement_point_distance_bf,
    placement_seats,
    random_auditorium,
    read_grid_ref,
)


@st.composite
def auditoriums(draw, max_rows=7, max_cols=14):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    flags = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    occupied = [
        (r, s)
        for r in range(1, rows + 1)
        for s in range(1, cols + 1)
        if flags[(r - 1) * cols + (s - 1)]
    ]
    return Auditorium(rows, cols, occupied)


class TestManhattanDistance:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            ((1, 1), (1, 1), 0),
            ((2, 3), (2, 6), 3),
            ((1, 1), (7, 14), 19),
        ],
    )
    def test_examples(self, p, q, expected):
        assert manhattan_distance(SeatCoord(*p), SeatCoord(*q)) == expected

    def test_symmetry_and_identity_exhaustive(self):
        cells = [SeatCoord(r, s) for r in range(1, 8) for s in range(1, 15)]
        for p in cells:
            for q in cells:
                d = manhattan_distance(p, q)
                assert d == manhattan_distance(q, p)
                assert (d == 0) == (p == q)

    def test_triangle_inequality_exhaustive_small(self):
        cells = [SeatCoord(r, s) for r in range(1, 5) for s in range(1, 6)]
        for p in cells:
            for q in cells:
                for r in cells:
                    assert manhattan_distance(p, r) <= manhattan_distance(
                        p, q
                    ) + manhattan_distance(q, r)


class TestFeasiblePlacements:
    def test_empty_7x14_size2_has_91(self):
        assert len(Auditorium(7, 14).feasible_placements(2)) == 91

    def test_fully_occupied_has_none(self):
        aud = Auditorium.from_rows(["###", "###"])
        for size in (1, 2, 3):
            assert aud.feasible_placements(size) == ()

    def test_1x3_middle_occupied(self):
        aud = Auditorium.from_rows([".#."])
        assert aud.feasible_placements(1) == (
            Placement(1, 1, 1),
            Placement(1, 3, 1),
        )

    def test_row_major_order(self):
        placements = Auditorium(3, 4).feasible_placements(2)
        assert list(placements) == sorted(placements)

    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="group size must be positive, got 0"):
            Auditorium(2, 2).feasible_placements(0)

    def test_matches_naive_filter_on_random_grids(self):
        rng = random.Random(2024)
        for _ in range(60):
            aud = random_auditorium(rng)
            for size in (1, 2, 3, 4):
                assert set(aud.feasible_placements(size)) == set(
                    feasible_placements_bf(aud, size)
                )

    def test_mirroring_is_a_bijection_preserving_distance(self):
        rng = random.Random(7)
        for _ in range(30):
            aud = random_auditorium(rng)
            twin = mirrored(aud)
            for size in (1, 2, 3):
                direct = set(aud.feasible_placements(size))
                flipped = {
                    mirror_placement(pl, aud.cols)
                    for pl in twin.feasible_placements(size)
                }
                assert direct == flipped
                for pl in direct:
                    assert aud.min_distance_to_seated(
                        pl
                    ) == twin.min_distance_to_seated(mirror_placement(pl, aud.cols))


class TestMinDistanceToSeated:
    def test_same_row_neighbour(self):
        aud = Auditorium(3, 8, [(2, 6)])
        assert aud.min_distance_to_seated(Placement(2, 3, 2)) == 2

    def test_empty_auditorium_is_infinite(self):
        aud = Auditorium(4, 4)
        assert aud.min_distance_to_seated(Placement(1, 1, 2)) == math.inf

    def test_two_occupants(self):
        aud = Auditorium(7, 14, [(2, 2), (7, 14)])
        assert aud.min_distance_to_seated(Placement(1, 1, 1)) == 2

    def test_matches_brute_force_on_random_grids(self):
        rng = random.Random(99)
        for _ in range(40):
            aud = random_auditorium(rng)
            for size in (1, 2, 3):
                for pl in aud.feasible_placements(size):
                    assert aud.min_distance_to_seated(pl) == min_distance_bf(aud, pl)

    def test_placements_with_distances_match_brute_force(self):
        rng = random.Random(123)
        for _ in range(40):
            aud = random_auditorium(rng)
            for size in (1, 2, 3):
                assert list(aud.placements_with_distances(size)) == [
                    (pl, min_distance_bf(aud, pl)) for pl in feasible_placements_bf(aud, size)
                ]

    def test_every_distance_up_to_the_farthest_occurs(self):
        # With anyone seated, the nearest-occupant distances of the feasible
        # placements run from 1 up to their maximum without a gap.
        rng = random.Random(321)
        for _ in range(60):
            aud = random_auditorium(rng)
            for size in (1, 2, 3):
                distances = {
                    min_distance_bf(aud, pl) for pl in feasible_placements_bf(aud, size)
                }
                if aud.occupied_count and distances:
                    assert distances == set(range(1, max(distances) + 1))

    def test_cache_invalidated_by_occupy(self):
        aud = Auditorium(3, 6, [(1, 1)])
        pl = Placement(3, 5, 2)
        assert aud.min_distance_to_seated(pl) == min_distance_bf(aud, pl)
        aud.occupy(Placement(3, 1, 1))
        assert aud.min_distance_to_seated(pl) == min_distance_bf(aud, pl) == 4

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize("seated", [[(1, 1)], []])
    def test_nonpositive_size_is_rejected(self, size, seated):
        # A run of no seats never meets an occupant, however far they grow.
        aud = Auditorium(3, 5, seated)
        with pytest.raises(ValueError, match="group size must be positive"):
            aud.min_distance_to_seated(Placement(2, 3, size))


class TestCenterOfMass:
    def test_single_occupant(self):
        assert Auditorium(5, 6, [(3, 5)]).center_of_mass() == SeatCoord(3, 5)

    def test_half_up_rounding(self):
        assert Auditorium(3, 3, [(1, 1), (2, 2)]).center_of_mass() == SeatCoord(2, 2)

    def test_exact_integer_mean(self):
        aud = Auditorium(2, 3, [(1, 1), (1, 2), (1, 3)])
        assert aud.center_of_mass() == SeatCoord(1, 2)

    def test_empty_is_none(self):
        assert Auditorium(2, 2).center_of_mass() is None

    def test_matches_fraction_oracle_on_random_grids(self):
        rng = random.Random(5)
        for _ in range(80):
            aud = random_auditorium(rng, max_density=0.9)
            assert aud.center_of_mass() == center_of_mass_bf(aud)


class TestPlacementMinDistanceTo:
    @pytest.mark.parametrize(
        "placement,coord,expected",
        [
            (Placement(4, 7, 2), (4, 7), 0),
            (Placement(1, 1, 2), (3, 4), 4),
            (Placement(2, 2, 1), (5, 2), 3),
        ],
    )
    def test_examples(self, placement, coord, expected):
        assert placement.min_distance_to(SeatCoord(*coord)) == expected

    def test_matches_member_wise_minimum(self):
        rng = random.Random(31)
        for _ in range(200):
            size = rng.randint(1, 4)
            start = rng.randint(1, 14 - size + 1)
            pl = Placement(rng.randint(1, 7), start, size)
            coord = SeatCoord(rng.randint(1, 7), rng.randint(1, 14))
            assert pl.min_distance_to(coord) == placement_point_distance_bf(pl, coord)


def start_set(cols, masks):
    """The start int of one mask of start seats per row; bit ``s-1`` is seat ``s``."""
    return sum(mask << r * (cols + 1) for r, mask in enumerate(masks))


def listed(starts, size, cols):
    return [Placement(r, s, size) for r, s in board_cells(starts, cols)]


def closest_bf(placements, point):
    distances = {pl: placement_point_distance_bf(pl, point) for pl in placements}
    closest = min(distances.values(), default=None)
    return {pl for pl, d in distances.items() if d == closest}


class TestClosest:
    @pytest.mark.parametrize(
        "size,starts,point,expected",
        [
            # equally far on the left and the right: both tie
            (1, [3, 7], (1, 5), [3, 7]),
            (3, [1, 7], (1, 5), [1, 7]),
            # one seat nearer on the right
            (2, [1, 6], (1, 5), [6]),
            # the covering window clamped at seat 1 and at the last seat
            (4, [1, 2, 6], (1, 1), [1]),
            (4, [1, 5, 6], (1, 9), [6]),
            # covering starts all tie, the nearer sides do not count
            (3, [1, 3, 4, 5, 8], (1, 5), [3, 4, 5]),
        ],
    )
    def test_examples_on_a_row_of_nine(self, size, starts, point, expected):
        mask = sum(1 << (s - 1) for s in starts)
        hall = Auditorium(1, 9)
        found = hall._closest(mask, covering_bf(hall, SeatCoord(*point), size))
        assert listed(found, size, 9) == [Placement(1, s, size) for s in expected]

    def test_every_row_of_starts_and_every_seat(self):
        cols = 7
        hall = Auditorium(1, cols)
        for size in (1, 2, 3, 4):
            for mask in range(1 << (cols - size + 1)):
                placements = listed(mask, size, cols)
                for seat in range(1, cols + 1):
                    point = SeatCoord(1, seat)
                    found = hall._closest(mask, covering_bf(hall, point, size))
                    assert set(listed(found, size, cols)) == closest_bf(placements, point)

    def test_matches_brute_force_across_rows(self):
        rng = random.Random(41)
        for _ in range(400):
            rows, cols = rng.randint(1, 6), rng.randint(4, 14)
            size = rng.randint(1, 4)
            density = rng.random()
            starts = start_set(cols, [
                sum(1 << b for b in range(cols - size + 1) if rng.random() < density)
                for _ in range(rows)
            ])
            point = SeatCoord(rng.randint(1, rows), rng.randint(1, cols))
            hall = Auditorium(rows, cols)
            found = hall._closest(starts, covering_bf(hall, point, size))
            assert found & ~starts == 0
            assert set(listed(found, size, cols)) == closest_bf(listed(starts, size, cols), point)


class TestGuardColumn:
    """Each row is followed by a guard bit that is never a seat, so free
    runs and growth steps stay inside their row and inside the hall."""

    @pytest.mark.parametrize("cols", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_no_run_spans_a_row_boundary(self, cols, size):
        rng = random.Random(cols * 10 + size)
        for rows in (2, 3, 5):
            for r in range(1, rows):
                for tail in range(1, size):
                    # Row r ends in `tail` free seats and row r+1 starts
                    # with `size - tail`: together they would fit the group.
                    free = {(r, s) for s in range(cols - tail + 1, cols + 1)}
                    free |= {(r + 1, s) for s in range(1, size - tail + 1)}
                    walls = {(r, cols - tail), (r + 1, size - tail + 1)}
                    occupied = [
                        (row, s)
                        for row in range(1, rows + 1)
                        for s in range(1, cols + 1)
                        if (row, s) not in free
                        and ((row, s) in walls or rng.random() < 0.5)
                    ]
                    aud = Auditorium(rows, cols, occupied)
                    assert list(aud.feasible_placements(size)) == feasible_placements_bf(aud, size)

    @given(auditoriums(max_rows=6, max_cols=9))
    def test_growth_stays_on_the_seats(self, aud):
        width = aud.cols + 1
        guards = sum(1 << (r * width + aud.cols) for r in range(aud.rows))
        grown = aud._board
        for _ in range(aud.rows + aud.cols):
            grown = aud._grow(grown)
            assert grown & guards == 0
            assert grown >> (aud.rows * width) == 0
        if aud.occupied_count:
            assert grown.bit_count() == aud.rows * aud.cols

    @pytest.mark.parametrize("cols", [1, 2, 3, 14])
    def test_seats_on_both_sides_of_a_guard_decode_to_their_rows(self, cols):
        # The last seat of row r and the first seat of row r+1 sit on
        # either side of row r's guard bit.
        rows = 3
        cells = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)]
        for r in range(1, rows):
            edge = [(r, cols), (r + 1, 1)]
            aud = Auditorium(rows, cols, edge)
            assert aud.occupied_seats() == occupied_cells(aud) == edge
            text = f"rows {rows}\ncols {cols}\ngrid\n" + "\n".join(aud.to_rows()) + "\narrivals\n"
            assert parse_scenario(text).initial_occupancy == tuple(occupied_cells(aud))
            rest = Auditorium(rows, cols, [c for c in cells if c not in edge])
            assert list(rest.feasible_placements(1)) == feasible_placements_bf(rest, 1) == [
                Placement(row, seat, 1) for row, seat in edge
            ]


class _FixedDraw:
    """Stands in for the rng: ``randrange`` returns a fixed index."""

    def __init__(self, n):
        self.n = n
        self.stops = []

    def randrange(self, stop):
        self.stops.append(stop)
        return self.n


class TestDraw:
    def test_draws_the_nth_placement_in_row_major_order(self):
        rng = random.Random(77)
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 14)
            size = rng.randint(1, min(cols, 4))
            span = cols - size + 1
            masks = [
                sum(1 << b for b in range(span) if rng.random() < rng.random())
                for _ in range(rows)
            ]
            # Starts next to a guard: the last seat of a row, the first of
            # the next one.
            for r in rng.sample(range(rows), rng.randint(0, rows)):
                masks[r] |= 1 << (span - 1) | 1
            starts, hall = start_set(cols, masks), Auditorium(rows, cols)
            expected = [
                Placement(r, s, size)
                for r, mask in enumerate(masks, start=1)
                for s in range(1, cols + 1)
                if mask >> (s - 1) & 1
            ]
            assert listed(starts, size, cols) == expected
            assert starts.bit_count() == len(expected)
            for n in range(len(expected)):
                draw = _FixedDraw(n)
                assert hall._draw(starts, size, draw) == expected[n]
                assert draw.stops == [len(expected)]


class TestNth:
    @pytest.mark.parametrize(
        "rows,cols",
        [(1, 1), (1, 2), (1, 7), (1, 31), (1, 63), (1, 64), (7, 14), (20, 40)],
    )
    def test_every_index_decodes_the_listed_start(self, rows, cols):
        # Each n takes the walk from the bottom, the walk from the top or the
        # bisect, whichever the set's size and bit length choose.
        rng = random.Random(rows * 100 + cols)
        hall = Auditorium(rows, cols)
        for _ in range(60):
            density = rng.choice([0.02, 0.1, 0.5, 1.0])
            starts = sum(1 << bit for bit in range(hall._valid.bit_length()) if rng.random() < density)
            starts &= hall._valid
            if not starts:
                starts = 1 << rng.randrange(cols)
            cells = list(board_cells(starts, cols))
            size = rng.randint(1, 3)
            for n, (row, seat) in enumerate(cells):
                assert hall._draw(starts, size, _FixedDraw(n)) == Placement(row, seat, size)


@st.composite
def lane_cases(draw):
    """A hall and, for each of 1-8 lanes, two seat sets of it, either of
    which may be empty or hold the lane's last seat, and a seat of it."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 14))
    hall = Auditorium(rows, cols)
    last = 1 << (rows - 1) * (cols + 1) + cols - 1
    seats = st.builds(
        lambda bits, top: (bits | (last if top else 0)) & hall._valid,
        st.integers(0, hall._valid),
        st.booleans(),
    )
    values = st.one_of(st.just(0), st.just(last), seats)
    point = st.builds(SeatCoord, st.integers(1, rows), st.integers(1, cols))
    return hall, draw(st.lists(st.tuples(values, values, point), min_size=1, max_size=8))


class TestLaneStack:
    @given(lane_cases())
    # One row of 9: starts met at distance 0, starts met at distance 8, no starts.
    @example((Auditorium(1, 9), [(1 << 4, 0, SeatCoord(1, 5)), (1, 0, SeatCoord(1, 9)),
                                 (0, 1, SeatCoord(1, 1))]))
    @settings(max_examples=300, deadline=None)
    def test_lane_primitives_match_a_loop_over_lanes(self, case):
        hall, lanes = case
        stack = LaneStack(hall, len(lanes))
        xs, ys, points = zip(*lanes)
        x, y = stack._pack(xs), stack._pack(ys)
        assert stack._or(x, y) == stack._pack([xi or yi for xi, yi in zip(xs, ys)])
        assert stack._covers(x) is all(xs)
        assert hall._or(xs[0], ys[0]) == (xs[0] or ys[0])
        assert hall._covers(xs[0]) is bool(xs[0])
        # Growth and free runs stay inside each lane.
        assert stack._grow(x) == stack._pack([hall._grow(xi) for xi in xs])
        for size in (1, 2, 3):
            runs = [hall._run_starts(xi, size) for xi in xs]
            assert stack._run_starts(x, size) == stack._pack(runs)
            # Each lane's ball grows from its own seat and stops at its own starts.
            balls = [covering_bf(hall, p, size) for p in points]
            closest = [hall._closest(xi, ball) for xi, ball in zip(xs, balls)]
            assert stack._closest(x, stack._pack(balls)) == stack._pack(closest)

    def test_a_stack_is_not_a_hall(self):
        stack = LaneStack(Auditorium(3, 5, [(1, 1)]), 4)
        assert not issubclass(LaneStack, Auditorium)
        for name in ("occupied_count", "center_of_mass", "occupy", "to_rows", "halls"):
            assert not hasattr(stack, name), name
        # Nor does it hold one: a lane keeps only its score and sums.
        assert not any(isinstance(value, Auditorium) or isinstance(value, list)
                       and any(isinstance(item, Auditorium) for item in value)
                       for value in vars(stack).values())

    def test_a_new_stack_packs_copies_of_the_hall(self):
        hall = Auditorium(3, 5, [(1, 1), (3, 5)])
        stack = LaneStack(hall, 4)
        assert stack.lanes == 4
        assert lane_halls(stack) == [hall] * 4
        assert_lanes_exact(stack, stack._scores)
        assert stack._board == stack._pack([hall._board] * 4)
        assert stack._valid == stack._pack([hall._valid] * 4)
        assert stack._bytes == 3  # 4 rows of 6 bits, rounded up to whole bytes


class TestDrawnRows:
    """``LaneStack._rows_of`` widens each lane's one seat to its row's seats."""

    @pytest.mark.parametrize("rows, cols", [(7, 14), (20, 40), (1, 1), (3, 1)])
    def test_every_seat_in_every_lane(self, rows, cols):
        hall, rng = Auditorium(rows, cols), random.Random(rows * cols)
        seats = list(board_cells(hall._valid, cols))
        row_of = {row: ((1 << cols) - 1) << (row - 1) * (cols + 1) for row in range(1, rows + 1)}
        # Every seat in every lane position, a lane each: in order, reversed and shuffled.
        shuffled = rng.sample(seats, len(seats))
        for order in (seats, seats[::-1], shuffled):
            stack = LaneStack(hall, len(order))
            bits = [1 << (row - 1) * (cols + 1) + seat - 1 for row, seat in order]
            got = lanes_of(stack, stack._rows_of(stack._pack(bits)))
            assert got == [row_of[row] for row, _ in order]


class TestLaneBalls:
    """``LaneStack._balls`` rounds each lane's center from the row and seat
    sums of its draws as ``Auditorium.center_of_mass`` does."""

    def test_balls_cover_each_halls_center_of_mass(self, fig1_scenario):
        # fig1's lanes, diverging as the random rule seats them step by step.
        stack = LaneStack(fig1_scenario.initial_auditorium(), 30)
        rngs = [random.Random(seed) for seed in range(30)]
        for size in fig1_scenario.arrivals:
            scores = stack.take(policies.random_starts(stack, size), size, rngs)
            assert len(set(lanes_of(stack, stack._board))) > 1
            assert_lanes_exact(stack, scores, sizes=range(1, 5))

    def test_sums_of_steps_not_asked_for(self):
        # Every 1x9 hall with 1 to 4 seated, a lane each, seated a seat per
        # step from an empty hall: every mean seat, halves that round up
        # included. The balls are asked for only after the last step, so
        # every step's draws are added to the sums at once.
        for seated in range(1, 5):
            seat_sets = list(itertools.combinations(range(9), seated))
            stack = LaneStack(Auditorium(1, 9), len(seat_sets))
            for step in range(seated):
                # Each lane draws its step-th seat: its rank among its free seats.
                draws = [_FixedDraw(seats[step] - sum(s < seats[step] for s in seats[:step]))
                         for seats in seat_sets]
                scores = stack.take(policies.random_starts(stack, 1), 1, draws)
            boards = [sum(1 << s for s in seats) for seats in seat_sets]
            assert lanes_of(stack, stack._board) == boards
            assert_lanes_exact(stack, scores, sizes=range(1, 5))


_DRAWS = {
    "first": lambda count, rng: 0,
    "last": lambda count, rng: count - 1,
    "any": lambda count, rng: rng.randrange(count),
}


class TestLaneSelect:
    """``LaneStack.take`` counts each lane's starts and finds its drawn one
    for every lane at once; lane by lane, the count must be ``bit_count``
    and the seated start ``_nth_bit`` of the lane's starts, and the score
    returned that of the lane's new board."""

    @staticmethod
    def _check_take(stack, lanes, size, draw, rng):
        """Take one step from the start sets ``lanes`` (one per lane, each
        non-empty and free for ``size`` seats), drawing ``draw(count, rng)``."""
        counts = [lane.bit_count() for lane in lanes]
        draws = [_FixedDraw(draw(count, rng)) for count in counts]
        before = lanes_of(stack, stack._board)
        scores = stack.take(stack._pack(lanes), size, draws)
        assert len(scores) == len(lanes)
        for lane, count, fixed, board, after in zip(
                lanes, counts, draws, before, lanes_of(stack, stack._board)):
            assert fixed.stops == [count]
            assert after == board | ((1 << size) - 1) << _nth_bit(lane, fixed.n)
        assert_lanes_exact(stack, scores)

    @staticmethod
    def _some_starts(hall, size, rng, density):
        """A non-empty random subset of the hall's free starts for ``size``."""
        free = hall._run_starts(hall._board, size)
        picked = sum(1 << bit for bit in range(free.bit_length())
                     if free >> bit & 1 and rng.random() < density)
        return picked or free & -free

    @pytest.mark.parametrize("draw", _DRAWS)
    @pytest.mark.parametrize("lanes", [1, 2, 9, 40])
    def test_fig1_stacks_random_and_stepped(self, fig1_scenario, draw, lanes):
        rng = random.Random(lanes)
        stack = LaneStack(fig1_scenario.initial_auditorium(), lanes)
        assert stack._field == 1
        rngs = [random.Random(seed) for seed in range(lanes)]
        for size in fig1_scenario.arrivals:
            density = rng.choice([0.05, 0.3, 1.0])
            sets = [self._some_starts(hall, size, rng, density) for hall in lane_halls(stack)]
            self._check_take(stack, sets, size, _DRAWS[draw], rng)
            # A seeded step of the random rule moves the stack on.
            stack.take(policies.random_starts(stack, size), size, rngs)

    @pytest.mark.parametrize("draw", _DRAWS)
    @pytest.mark.parametrize("lanes", [1, 5])
    def test_wide_fields_hold_more_than_127_starts(self, draw, lanes):
        rng = random.Random(2040 + lanes)
        stack = LaneStack(Auditorium(20, 40, [(3, 4), (11, 30), (20, 40)]), lanes)
        assert stack._field == 2 and stack._bytes % 2 == 0
        for size in (1, 3, 1, 4):
            sets = [self._some_starts(hall, size, rng, rng.choice([0.3, 0.9, 1.0]))
                    for hall in lane_halls(stack)]
            assert min(lane.bit_count() for lane in sets) > 127
            self._check_take(stack, sets, size, _DRAWS[draw], rng)

    @pytest.mark.parametrize("rows, cols, width", [(1, 127, 1), (1, 128, 2), (3, 42, 1),
                                                   (1, 1, 1), (181, 181, 2), (182, 181, 3)])
    def test_field_width_follows_the_seat_count(self, rows, cols, width):
        # The fewest bytes whose top bit stays clear of rows * cols, the most starts a lane holds.
        stack = LaneStack(Auditorium(rows, cols), 2)
        assert stack._field == width
        assert stack._bytes % width == 0
        assert 8 * stack._bytes >= (rows + 1) * (cols + 1)
        every = stack._valid & ((1 << 8 * stack._bytes) - 1)
        self._check_take(stack, [every, every], 1, _DRAWS["last"], None)

    @pytest.mark.parametrize("lanes", [1, 3, 16])
    def test_lanes_with_exactly_one_start(self, lanes):
        # Each lane's one start: the hall's first seat, its last seat or another.
        rng = random.Random(lanes)
        for rows, cols in ((7, 14), (20, 40), (1, 1), (2, 7)):
            stack = LaneStack(Auditorium(rows, cols), lanes)
            seats = list(board_cells(Auditorium(rows, cols)._valid, cols))
            picks = [seats[0], seats[-1], *rng.sample(seats, min(len(seats), 2))]
            sets = [1 << (row - 1) * (cols + 1) + seat - 1
                    for row, seat in (rng.choice(picks) for _ in range(lanes))]
            self._check_take(stack, sets, 1, _DRAWS["first"], rng)


class TestOccupy:
    def test_direct_effect(self):
        aud = Auditorium(7, 14)
        aud.occupy(Placement(4, 6, 3))
        assert aud.occupied_count == 3
        assert all(aud.is_occupied(4, s) for s in (6, 7, 8))

    def test_double_occupy_conflicts(self):
        aud = Auditorium(7, 14)
        aud.occupy(Placement(4, 6, 3))
        with pytest.raises(SeatConflict):
            aud.occupy(Placement(4, 6, 3))

    def test_conflict_leaves_grid_unchanged(self):
        aud = Auditorium(1, 4, [(1, 3)])
        with pytest.raises(SeatConflict):
            aud.occupy(Placement(1, 2, 2))
        assert aud.occupied_seats() == [SeatCoord(1, 3)]

    def test_disjoint_placements_compose(self):
        aud = Auditorium(2, 2)
        aud.occupy(Placement(1, 1, 1))
        aud.occupy(Placement(1, 2, 1))
        assert aud.occupied_count == 2

    def test_count_is_monotone_and_never_clears(self):
        rng = random.Random(11)
        aud = Auditorium(7, 14)
        seen: set[SeatCoord] = set()
        for _ in range(25):
            options = aud.feasible_placements(rng.randint(1, 3))
            if not options:
                break
            before = aud.occupied_count
            pl = options[rng.randrange(len(options))]
            aud.occupy(pl)
            assert aud.occupied_count == before + pl.size
            seen.update(placement_seats(pl))
            assert all(aud.is_occupied(*c) for c in seen)

    def test_occupy_seats_rejects_duplicates(self):
        aud = Auditorium(2, 2)
        with pytest.raises(SeatConflict):
            aud.occupy_seats([(1, 1), (1, 1)])
        assert aud.occupied_count == 0

    def test_same_outcome_as_occupying_each_seat(self):
        # occupy sets the run in one step, its seat sum in closed form; it
        # must fail exactly where occupying the seats one by one, left to
        # right, fails first, and otherwise leave the same hall.
        def outcome(aud, act):
            try:
                act()
            except (SeatConflict, ValueError) as exc:
                return type(exc), str(exc), aud.to_rows()
            state = aud.occupied_count, aud.center_of_mass(), entropy(aud)
            return None, "", aud.to_rows(), state

        rng = random.Random(90)
        for _ in range(300):
            aud = random_auditorium(rng, max_density=0.5)
            pl = Placement(
                rng.randint(0, aud.rows + 1), rng.randint(-1, aud.cols + 1), rng.randint(1, 5)
            )
            whole, seatwise = aud, Auditorium._from_board(aud.rows, aud.cols, aud._board)
            assert outcome(whole, lambda: whole.occupy(pl)) == outcome(
                seatwise, lambda: seatwise.occupy_seats(placement_seats(pl))
            )

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize("row", [1, 9])
    def test_nonpositive_size_is_rejected(self, size, row):
        # A run of no seats is refused, even in a row off the hall.
        aud = Auditorium(2, 3, [(1, 2)])
        before = Auditorium._from_board(aud.rows, aud.cols, aud._board)
        with pytest.raises(ValueError, match=f"group size must be positive, got {size}"):
            aud.occupy(Placement(row, 1, size))
        assert aud == before
        assert (aud.occupied_count, entropy(aud)) == (before.occupied_count, entropy(before))

    @pytest.mark.parametrize(
        "placement, error, message",
        [
            (Placement(1, 1, 10**12), ValueError, "seat (1,15) outside 7x14 auditorium"),
            (Placement(1, 14, 10**12), ValueError, "seat (1,15) outside 7x14 auditorium"),
            (Placement(8, 1, 10**12), ValueError, "seat (8,1) outside 7x14 auditorium"),
            (Placement(2, 1, 10**12), SeatConflict, "seat (2,4) is already occupied"),
        ],
    )
    def test_group_wider_than_a_row_fails_at_once(self, placement, error, message):
        # As seat by seat, the first seat that is taken or off the hall decides
        # the error, found without building a run as wide as the group.
        aud = Auditorium(7, 14, [(2, 4)])
        before = Auditorium._from_board(aud.rows, aud.cols, aud._board)
        began = time.perf_counter()
        with pytest.raises(error, match=re.escape(message)):
            aud.occupy(placement)
        assert time.perf_counter() - began < 1
        assert aud == before

    def test_out_of_bounds_rejected(self):
        aud = Auditorium(2, 2)
        for bad in [(0, 1), (1, 0), (3, 1), (1, 3)]:
            with pytest.raises(ValueError, match=rf"seat \({bad[0]},{bad[1]}\) outside 2x2"):
                aud.occupy_seats([bad])

    def test_occupy_seats_is_all_or_nothing(self):
        # A failing seat set leaves the board and its sums as they were; a
        # good one moves them to what a recount gives.
        rng = random.Random(23)
        for _ in range(200):
            aud = random_auditorium(rng, max_rows=20, max_cols=40, max_density=0.4)
            before = Auditorium._from_board(aud.rows, aud.cols, aud._board)
            cells = [(r, s) for r in range(1, aud.rows + 1) for s in range(1, aud.cols + 1)]
            seats = rng.sample(cells, rng.randint(1, min(6, len(cells))))
            seats.insert(rng.randrange(len(seats) + 1), rng.choice(cells + [(0, 1), (1, aud.cols + 1)]))
            try:
                aud.occupy_seats(seats)
            except (SeatConflict, ValueError):
                assert aud == before
                assert (aud.center_of_mass(), entropy(aud)) == (before.center_of_mass(), entropy(before))
                continue
            assert aud.occupied_count == before.occupied_count + len(seats)
            assert (aud.center_of_mass(), entropy(aud)) == (center_of_mass_bf(aud), entropy_bf(aud))

    def test_sums_stay_exact(self):
        # The center of mass rounds the row and seat sums, so check them
        # exactly after every call of a random mix, failing calls included.
        rng = random.Random(41)
        for _ in range(300):
            aud = random_auditorium(rng, max_rows=20, max_cols=40, max_density=0.4)
            for _ in range(8):
                seats = [(rng.randint(0, aud.rows + 1), rng.randint(0, aud.cols + 1))
                         for _ in range(rng.randint(0, 4))]
                try:
                    if seats and rng.random() < 0.5:
                        aud.occupy(Placement(*seats[0], rng.randint(1, 5)))
                    else:
                        aud.occupy_seats(seats)
                except (SeatConflict, ValueError):
                    pass
                cells = occupied_cells(aud)
                assert (aud._row_sum, aud._seat_sum, entropy(aud)) == (
                    sum(r for r, _ in cells), sum(s for _, s in cells), entropy_bf(aud)
                )


class TestConstruction:
    def test_from_rows_round_trip(self):
        rows = ["..#.", "#..#", "...."]
        assert Auditorium.from_rows(rows).to_rows() == rows

    def test_from_rows_rejects_bad_chars(self):
        with pytest.raises(ValueError, match="column 3: bad grid character 'x'"):
            Auditorium.from_rows(["..x."])

    def test_from_rows_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="grid row 2 has 2 characters, expected 3"):
            Auditorium.from_rows(["...", ".."])

    def test_from_rows_needs_a_row(self):
        with pytest.raises(ValueError, match="need at least one row"):
            Auditorium.from_rows([])

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValueError, match="auditorium must be at least 1x1, got 0x3"):
            Auditorium(0, 3)

    @pytest.mark.parametrize(
        "rows,cols,message",
        [
            ("7", 3, "'7'x3"),
            (2.0, 3, "2.0x3"),
            (2, None, "2xNone"),
            # ``bool`` is an ``int`` subclass, but ``True`` is written as text.
            (True, 3, "Truex3"),
        ],
        ids=["str", "float", "none", "bool"],
    )
    def test_size_must_be_integers(self, rows, cols, message):
        # Unchecked, all but ``True`` give a ``TypeError``; ``True`` builds a 1x3 hall.
        with pytest.raises(ValueError) as exc_info:
            Auditorium(rows, cols)
        assert str(exc_info.value) == f"auditorium size must be integers, got {message}"

    @pytest.mark.parametrize(
        "call,seat",
        [
            (lambda aud: aud.occupy_seats([(1, "1")]), "(1, '1')"),
            (lambda aud: Auditorium(2, 3, [(True, 1)]), "(True, 1)"),
            (lambda aud: aud.occupy_seats([(1, 2), (1.0, 3)]), "(1.0, 3)"),
            (lambda aud: aud.is_occupied(1, 2.0), "(1, 2.0)"),
            (lambda aud: aud.min_distance_to_seated(Placement(1, "1", 1)), "(1, '1')"),
        ],
        ids=["str-seat", "bool-row", "float-row", "is-occupied", "min-distance"],
    )
    def test_seats_must_be_pairs_of_integers(self, call, seat):
        # Unchecked, ``True`` is taken as row 1 and the others give a ``TypeError``.
        aud = Auditorium(2, 3)
        with pytest.raises(ValueError) as exc_info:
            call(aud)
        assert str(exc_info.value) == f"seat {seat} is not a pair of integers"
        assert aud == Auditorium(2, 3)

    @given(auditoriums())
    def test_equality_tracks_occupancy(self, aud):
        clone = Auditorium(aud.rows, aud.cols, occupied_cells(aud))
        assert clone == aud

    def test_a_hall_is_not_equal_to_other_types(self):
        assert (Auditorium(2, 2) == "x") is False


_GRID_ALPHABET = ".#x\n\r \uff0e"


@st.composite
def grid_blocks(draw):
    """Rows for ``read_grid`` and their ``cols``: clean rows of ``.``/``#``,
    then up to two edits: a character of ``_GRID_ALPHABET`` (LF included)
    swapped in, a seat moved across a row end, so that the total length still
    matches, or a row resized."""
    cols, rows = draw(st.integers(1, 65)), draw(st.integers(1, 5))
    texts = draw(st.lists(st.text(".#", min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, rows - 1))
        edit = draw(st.sampled_from(["char", "ragged", "resize"]))
        if edit == "char" and texts[at]:
            i = draw(st.integers(0, len(texts[at]) - 1))
            texts[at] = texts[at][:i] + draw(st.sampled_from(_GRID_ALPHABET)) + texts[at][i + 1:]
        elif edit == "ragged" and at + 1 < rows:
            joined, cut = texts[at] + texts[at + 1], len(texts[at]) + draw(st.sampled_from([-1, 1]))
            if 0 <= cut <= len(joined):
                texts[at], texts[at + 1] = joined[:cut], joined[cut:]
        elif edit == "resize":
            size = draw(st.integers(0, cols + 2))
            texts[at] = (texts[at] + "." * size)[:size]
    return texts, cols


class TestReadGrid:
    """``read_grid`` gives what the whole-block regex and the row-by-row
    check gave: the same board, or the same first fault."""

    @settings(max_examples=400, deadline=None)
    @given(grid_blocks())
    @example(([".#.", ".#", "#.#."], 3))  # ragged rows, total length and seat count kept
    @example(([".#.#", ".#"], 3))
    @example(([".\n.", "..."], 3))  # an LF inside a row
    @example((["..", "\n", ".."], 2))
    @example((["\uff0e.", ".."], 2))
    def test_matches_the_regex_reader(self, case):
        texts, cols = case
        try:
            got = read_grid(texts, cols)
        except GridError as exc:
            got = exc.row, exc.column, exc.message
        assert got == read_grid_ref(texts, cols)


# Straddle the widths where the seat sum's bit slices gain a slice.
_SLICE_EDGES = [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


class TestFromBoard:
    """A hall built from its board in closed form equals the hall built
    seat by seat with ``occupy``, in every kept-up-to-date sum, and those
    sums match a count over the seats."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.sampled_from(_SLICE_EDGES),
        cols=st.sampled_from(_SLICE_EDGES),
        density=st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0]),
        rng=st.randoms(use_true_random=False),
    )
    def test_matches_seat_by_seat(self, rows, cols, density, rng):
        cells = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)]
        seats = [cell for cell in cells if rng.random() < density]
        reference = Auditorium(rows, cols)  # kept up to date a seat at a time
        for r, s in seats:
            reference.occupy(Placement(r, s, 1))
        text_rows = reference.to_rows()
        board = sum(1 << (r - 1) * (cols + 1) + s - 1 for r, s in seats)
        halls = [
            Auditorium._from_board(rows, cols, board),
            Auditorium.from_rows(text_rows),
            Auditorium(rows, cols, seats),
        ]
        empty = sorted(set(cells) - set(seats))
        if seats and empty:  # a choice record needs an occupant and a free seat
            chosen = "%d,%d" % empty[0]
            text = "groups 1\ngrid\n" + "\n".join(text_rows) + f"\nchosen {chosen}\n"
            (record,) = parse_choices(text)
            assert record.configuration == Auditorium.from_rows(text_rows)
            halls.append(record.configuration)
        for hall in [reference, *halls]:
            assert hall == reference
            assert hall.occupied_count == len(seats)
            assert hall.center_of_mass() == center_of_mass_bf(hall)
            assert entropy(hall) == entropy_bf(hall)

    def test_masks_follow_the_shape(self):
        # One memoized shape at a time: each new shape's hall must not be
        # recounted with the masks of the shape before it.
        rng = random.Random(25)
        for rows, cols in [(7, 14), (20, 40), (1, 1), (65, 65), (7, 14)]:
            seats = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)
                     if rng.random() < 0.4] or [(rows, cols)]
            hall = Auditorium(rows, cols, seats)
            assert hall.center_of_mass() == center_of_mass_bf(hall)
            assert entropy(hall) == entropy_bf(hall)
            assert _number_masks.cache_info().currsize <= 1

    def test_no_seats_means_no_recount(self, monkeypatch):
        def recount(self, board):
            raise AssertionError("recounted")

        monkeypatch.setattr(Auditorium, "_set_board", recount)
        aud = Auditorium(3, 4)
        aud.occupy_seats([])
        assert (aud.occupied_count, aud.center_of_mass(), entropy(aud)) == (0, None, 0)


def _choices_text(rng: random.Random, records: int, rows: int, cols: int) -> str:
    """``records`` choice records on ``rows`` x ``cols`` halls, each with an
    occupant and a free chosen seat, and every other one with 2 groups."""
    blocks = []
    for index in range(records):
        cells = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)]
        seated = set(rng.sample(cells, rng.randint(1, len(cells) // 2)))
        chosen = rng.choice([cell for cell in cells if cell not in seated])
        grid = ["".join("#" if (r, s) in seated else "." for s in range(1, cols + 1))
                for r in range(1, rows + 1)]
        blocks.append("\n".join([f"groups {1 + index % 2}", "grid", *grid, "chosen %d,%d" % chosen]))
    return "\n\n".join(blocks) + "\n"


class TestScoreWhenRead:
    """A whole-board write leaves the score unknown; ``entropy`` computes it
    on first read, and ``_take`` moves only a score already read."""

    @pytest.fixture
    def scored(self, monkeypatch):
        calls = []
        score = Auditorium._score

        def counted(self):
            calls.append(self)
            return score(self)

        monkeypatch.setattr(Auditorium, "_score", counted)
        return calls

    def test_choice_records_compute_no_score(self, scored):
        records = parse_choices(_choices_text(random.Random(61), 40, 20, 40))
        nearest = nearest_distance_histogram(records)
        center = center_distance_histogram(records)
        assert (nearest.total, center.total) == (40, 20)
        assert scored == []
        for rec in records:
            assert entropy(rec.configuration) == entropy_bf(rec.configuration)
        assert len(scored) == len(records)

    def test_read_after_seating(self, scored):
        rng = random.Random(67)
        for _ in range(100):
            aud = random_auditorium(rng, max_rows=10, max_cols=20, max_density=0.4)
            cells = occupied_cells(aud)
            halls = [Auditorium.from_rows(aud.to_rows()), Auditorium(aud.rows, aud.cols, cells)]
            halls.append(Auditorium(aud.rows, aud.cols))
            halls[-1].occupy_seats(cells)
            for _ in range(rng.randint(1, 6)):
                free = feasible_placements_bf(aud, rng.randint(1, 3))
                if not free:
                    break
                placement = rng.choice(free)
                for hall in (aud, *halls):
                    hall.occupy(placement)
            for hall in halls:
                assert hall == aud
                assert entropy(hall) == entropy(aud) == entropy_bf(hall)
            # A score read is kept.
            calls = len(scored)
            assert [entropy(hall) for hall in halls] == [entropy_bf(aud)] * 3
            assert len(scored) == calls

    @pytest.mark.parametrize("policy", ["random", "center", "max"])
    def test_stack_of_a_hall_not_yet_scored(self, fig1_scenario, policy):
        # ``_run_range`` stacks a fresh hall, whose score is not yet read;
        # the columns must be those of a stack of a hall already scored.
        runs, seed = 12, 5
        hall = fig1_scenario.initial_auditorium()
        entropy(hall)
        stack = LaneStack(hall, runs)
        rngs = [random.Random(simulation.derive_seed(seed, run)) for run in range(runs)]
        columns = [[entropy(hall)] * runs]
        for size in fig1_scenario.arrivals:
            columns.append(list(stack.take(policies.starts_of(policy)(stack, size), size, rngs)))
        assert simulation._run_range(fig1_scenario, policy, seed, 0, runs) == columns

    def test_seat_bits_follow_the_shape(self):
        for rows, cols in [(7, 14), (20, 40), (1, 1), (3, 1), (7, 14)]:
            seats = sum(1 << (r - 1) * (cols + 1) + s - 1
                        for r in range(1, rows + 1) for s in range(1, cols + 1))
            assert Auditorium(rows, cols)._valid == seats
            assert LaneStack(Auditorium(rows, cols), 1)._valid == seats
            assert _seat_bits.cache_info().currsize <= 1

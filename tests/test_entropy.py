from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from seatsim import (
    Auditorium,
    Placement,
    SeatConflict,
    entropy,
    parse_choices,
)
from support import (
    entropy_bf,
    feasible_placements_bf,
    mirrored,
    occupied_cells,
    random_auditorium,
    row_flips_bf,
)


def test_fully_occupied_row_scores_zero():
    assert entropy(Auditorium.from_rows(["#" * 14])) == 0


def test_alternating_row_of_14_scores_169():
    aud = Auditorium.from_rows(["#." * 7])
    assert row_flips_bf(aud, 1) == 13
    assert entropy(aud) == 169


def test_empty_row_scores_zero():
    aud = Auditorium.from_rows(["." * 14])
    assert row_flips_bf(aud, 1) == 0
    assert entropy(aud) == 0


def test_two_row_hand_example():
    assert entropy(Auditorium.from_rows(["#.#", "..."])) == 4


def test_matches_brute_force_on_random_grids():
    rng = random.Random(17)
    for _ in range(100):
        aud = random_auditorium(rng, max_density=1.0)
        assert entropy(aud) == entropy_bf(aud)


@st.composite
def small_grids(draw):
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 14))
    flags = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    occupied = [
        (r, s)
        for r in range(1, rows + 1)
        for s in range(1, cols + 1)
        if flags[(r - 1) * cols + (s - 1)]
    ]
    return Auditorium(rows, cols, occupied)


@given(small_grids())
def test_bounds_and_symmetries(aud):
    score = entropy(aud)
    assert 0 <= score <= aud.rows * (aud.cols - 1) ** 2
    assert entropy(mirrored(aud)) == score
    shuffled = Auditorium(
        aud.rows,
        aud.cols,
        [
            ((c.row % aud.rows) + 1, c.seat)  # cyclic row permutation
            for c in occupied_cells(aud)
        ],
    )
    assert entropy(shuffled) == score


def test_extremes_score_zero():
    assert entropy(Auditorium(7, 14)) == 0
    full = Auditorium.from_rows(["#" * 14] * 7)
    assert entropy(full) == 0


def test_upper_bound_attained_only_by_alternating_grid():
    bound = 7 * 13 * 13
    for phase in ("#.", ".#"):
        alternating = Auditorium.from_rows([(phase * 7)[:14]] * 7)
        assert entropy(alternating) == bound
    rng = random.Random(23)
    for _ in range(200):
        aud = random_auditorium(rng, max_rows=7, max_cols=14, max_density=1.0)
        if entropy(aud) == aud.rows * (aud.cols - 1) ** 2 and aud.cols > 1:
            for row in aud.to_rows():
                assert all(row[i] != row[i + 1] for i in range(len(row) - 1))


@pytest.mark.parametrize("hall", [5, None, ["#."]], ids=["int", "none", "rows"])
def test_rejects_what_is_not_a_hall(hall):
    # Unchecked, each gives an ``AttributeError``.
    with pytest.raises(ValueError) as exc_info:
        entropy(hall)
    assert str(exc_info.value) == f"entropy needs an Auditorium, got {hall!r}"


def test_single_seat_addition_changes_one_row_by_bounded_amount():
    rng = random.Random(41)
    for _ in range(300):
        aud = random_auditorium(rng, max_density=0.8)
        empties = [
            (r, s)
            for r in range(1, aud.rows + 1)
            for s in range(1, aud.cols + 1)
            if not aud.is_occupied(r, s)
        ]
        if not empties:
            continue
        row, seat = empties[rng.randrange(len(empties))]
        before_row = row_flips_bf(aud, row)
        before = entropy(aud)
        aud.occupy(Placement(row, seat, 1))
        after_row = row_flips_bf(aud, row)
        assert abs(after_row - before_row) <= 2
        assert entropy(aud) - before == after_row**2 - before_row**2
        assert abs(entropy(aud) - before) <= (before_row + 2) ** 2 - before_row**2


class TestKeptUpToDate:
    """The auditorium updates the score as seats are taken; after every
    way of building or changing one it must equal the recount. Halls of
    one row or one seat per row are included: a row of one seat has no
    neighbours to flip against."""

    DIMENSIONS = [(1, 1), (1, 8), (5, 1), (2, 2), (4, 7)]

    @pytest.mark.parametrize("rows, cols", DIMENSIONS)
    @given(data=st.data())
    def test_after_every_mutation(self, rows, cols, data):
        cells = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)]
        aud = Auditorium(rows, cols, data.draw(st.lists(st.sampled_from(cells), unique=True)))
        assert entropy(aud) == entropy_bf(aud)
        rebuilt = [
            Auditorium.from_rows(aud.to_rows()),
            Auditorium._from_board(rows, cols, aud._board),
        ]
        for other in rebuilt:
            assert other == aud and entropy(other) == entropy_bf(other) == entropy(aud)
            assert other.occupied_count == aud.occupied_count
            assert other.center_of_mass() == aud.center_of_mass()
        for _ in range(data.draw(st.integers(1, 8))):
            empty = [c for c in cells if not aud.is_occupied(*c)]
            taken = [c for c in cells if aud.is_occupied(*c)]
            action = data.draw(st.sampled_from(["occupy", "seats", "conflict"]))
            if action == "occupy" and empty:
                size = data.draw(st.integers(1, cols))
                options = feasible_placements_bf(aud, size)
                if options:
                    aud.occupy(data.draw(st.sampled_from(options)))
            elif action == "seats" and empty:
                aud.occupy_seats(data.draw(st.lists(st.sampled_from(empty), unique=True)))
            elif action == "conflict" and taken:
                score = entropy(aud)
                with pytest.raises(SeatConflict):
                    aud.occupy_seats([*empty[:1], data.draw(st.sampled_from(taken))])
                assert entropy(aud) == score
            assert entropy(aud) == entropy_bf(aud)

    @pytest.mark.parametrize("rows, cols", DIMENSIONS)
    @given(data=st.data())
    def test_parsed_choice_grids(self, rows, cols, data):
        flags = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
        lines = [
            "".join("#" if flags[r * cols + s] else "." for s in range(cols))
            for r in range(rows)
        ]
        empty = [(r + 1, s + 1) for r in range(rows) for s in range(cols) if lines[r][s] == "."]
        if not empty or len(empty) == rows * cols:
            return  # a record needs someone seated and a free seat to choose
        chosen = data.draw(st.sampled_from(empty))
        text = "groups 1\ngrid\n" + "\n".join(lines) + f"\nchosen {chosen[0]},{chosen[1]}\n"
        (record,) = parse_choices(text)
        assert entropy(record.configuration) == entropy_bf(record.configuration)

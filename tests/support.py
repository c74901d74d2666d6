"""Brute-force reference implementations and generators shared by the tests.

Everything here recomputes results from first principles through the
narrow ``is_occupied``/``rows``/``cols`` surface, deliberately avoiding
the library's bitmask placement and distance machinery, so that agreement
between the two is meaningful.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from seatsim import Auditorium, ParseError, Placement, Scenario, SeatCoord, ValidationError
from seatsim.scenario_io import _quoted


def occupied_cells(aud: Auditorium) -> list[SeatCoord]:
    return [
        SeatCoord(r, s)
        for r in range(1, aud.rows + 1)
        for s in range(1, aud.cols + 1)
        if aud.is_occupied(r, s)
    ]


def placement_seats(placement: Placement) -> list[SeatCoord]:
    """The seats a placement covers, left to right."""
    row, start, size = placement
    return [SeatCoord(row, s) for s in range(start, start + size)]


def feasible_placements_bf(aud: Auditorium, size: int) -> list[Placement]:
    found = []
    for r in range(1, aud.rows + 1):
        for start in range(1, aud.cols - size + 2):
            if all(not aud.is_occupied(r, s) for s in range(start, start + size)):
                found.append(Placement(r, start, size))
    return found


def min_distance_bf(aud: Auditorium, placement: Placement) -> float:
    return _min_distance(occupied_cells(aud), placement)


def _min_distance(seated: list[SeatCoord], placement: Placement) -> float:
    if not seated:
        return math.inf
    return min(
        abs(sr - qr) + abs(ss - qs)
        for sr, ss in placement_seats(placement)
        for qr, qs in seated
    )


def center_of_mass_bf(aud: Auditorium) -> SeatCoord | None:
    seated = occupied_cells(aud)
    if not seated:
        return None

    def round_half_up(x: Fraction) -> int:
        return math.floor(x + Fraction(1, 2))

    n = len(seated)
    return SeatCoord(
        round_half_up(Fraction(sum(c.row for c in seated), n)),
        round_half_up(Fraction(sum(c.seat for c in seated), n)),
    )


def entropy_bf(aud: Auditorium) -> int:
    total = 0
    for r in range(1, aud.rows + 1):
        flips = sum(
            1
            for s in range(2, aud.cols + 1)
            if aud.is_occupied(r, s) != aud.is_occupied(r, s - 1)
        )
        total += flips * flips
    return total


def row_flips_bf(aud: Auditorium, row: int) -> int:
    """The empty/occupied flips between adjacent seats of ``row``."""
    return sum(aud.is_occupied(row, s) != aud.is_occupied(row, s - 1) for s in range(2, aud.cols + 1))



def lanes_of(stack, x: int) -> list[int]:
    """The lanes of an int packed like ``stack._board``, in order."""
    step = stack._bytes
    data = x.to_bytes(step * stack.lanes, "little")
    return [int.from_bytes(data[i:i + step], "little") for i in range(0, len(data), step)]


def lane_halls(stack) -> list[Auditorium]:
    """Each lane of ``stack._board`` decoded bit by bit into a hall; a bit on
    no seat of the hall raises ``ValueError``."""
    width = stack.cols + 1
    return [
        Auditorium(stack.rows, stack.cols, [(bit // width + 1, bit % width + 1)
                                            for bit in range(lane.bit_length()) if lane >> bit & 1])
        for lane in lanes_of(stack, stack._board)
    ]


def covering_bf(aud: Auditorium, point: SeatCoord, size: int) -> int:
    """The start bits, in the hall's padded layout, of every run of ``size``
    seats in ``point``'s row that covers ``point``, from seat 1 on."""
    row, seat = point
    return sum(1 << (row - 1) * (aud.cols + 1) + start - 1
               for start in range(max(seat - size + 1, 1), seat + 1))


def assert_lanes_exact(stack, scores, sizes=(1, 2, 3)) -> list[Auditorium]:
    """Check every lane of ``stack`` against the oracles: ``scores`` (one per
    lane) are the decoded halls' ``entropy_bf``, and with anyone seated each
    lane of ``stack._balls(size)`` covers its hall's ``center_of_mass_bf``.
    Returns the decoded halls."""
    halls = lane_halls(stack)
    assert list(scores) == [entropy_bf(hall) for hall in halls]
    if stack._board:
        for size in sizes:
            balls = [covering_bf(hall, center_of_mass_bf(hall), size) for hall in halls]
            assert lanes_of(stack, stack._balls(size)) == balls
    return halls

def read_grid_ref(texts: list[str], cols: int) -> int | tuple[int, int, str] | None:
    """``grid.read_grid`` as a regex over the whole block, then a check of
    each row in turn: the board of a valid block, else the first faulty
    row's ``(row, column, message)``; None for no rows."""
    block = "\n".join(texts)
    if len(block) == len(texts) * (cols + 1) - 1 and re.fullmatch(
            f"(?:[.#]{{{cols}}}\n)*[.#]{{{cols}}}", block):
        return sum(1 << r * (cols + 1) + s
                   for r, text in enumerate(texts) for s, char in enumerate(text) if char == "#")
    for row, text in enumerate(texts, start=1):
        if len(text) != cols:
            return row, min(len(text), cols) + 1, f"grid row {row} has {len(text)} characters, expected {cols}"
        if bad := re.search("[^.#]", text):
            return row, bad.start() + 1, f"bad grid character {bad.group()!r}, expected '.' or '#'"
    return None


# The token-line readers of ``scenario_io`` read token by token: each
# token's column is worked out before the token is read, so a fault is
# raised where it is met. They are the referee for the readers, which read
# a line whole and work out no column until they meet a fault.

def _tokens_ref(line: int, text: str, start: int = 0) -> list[tuple[int, str]]:
    if not text.isprintable() and (bad := re.search(r"[^\S \t]", text)):
        message = f"unexpected whitespace {bad.group()!r}; tokens are separated by spaces and tabs"
        raise ParseError(line, bad.start() + 1, message)
    tokens = []
    for token in text[start:].split():
        start = text.index(token, start)
        tokens.append((start + 1, token))
        start += len(token)
    return tokens


def _parse_int_ref(token: str, line: int, column: int, what: str) -> int:
    if token.isascii() and (token.isdigit() or token[:1] in ("+", "-") and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:  # more digits than ``int`` reads
            pass
    raise ParseError(line, column, f"{what} must be an integer, got {_quoted(token)}")


def _parse_coord_ref(token: str, line: int, column: int) -> tuple[int, int]:
    row_part, comma, seat_part = token.partition(",")
    if not comma or not row_part or not seat_part:
        raise ParseError(line, column, f"expected 'row,seat', got {_quoted(token)}")
    return (
        _parse_int_ref(row_part, line, column, "row"),
        _parse_int_ref(seat_part, line, column + len(row_part) + 1, "seat"),
    )


def int_field_by_column(line: int, text: str, keyword: str) -> int:
    tokens = _tokens_ref(line, text)
    if not tokens or tokens[0][1] != keyword:
        raise ParseError(line, 1, f"expected '{keyword} <n>', got {_quoted(text)}")
    if len(tokens) != 2:
        raise ParseError(line, len(keyword) + 2, f"expected one value after '{keyword}'")
    column, value = tokens[1]
    return _parse_int_ref(value, line, column, keyword)


def sizes_by_column(line: int, text: str) -> list[int]:
    return [_parse_int_ref(t, line, c, "group size") for c, t in _tokens_ref(line, text)]


def seats_by_column(line: int, text: str, step: int) -> list[tuple[int, int]]:
    head, colon, _ = text.partition(":")
    tokens = _tokens_ref(line, text, len(head) + 1)
    if not colon:
        raise ParseError(line, 1, "expected '<step>: row,seat ...'")
    number = _parse_int_ref(head.strip(), line, 1, "step number")
    if number != step:
        raise ValidationError(f"line {line}: observed step {number} out of order, expected {step}")
    return [_parse_coord_ref(t, line, c) for c, t in tokens]


def chosen_by_column(line: int, text: str) -> tuple[int, int]:
    tokens = _tokens_ref(line, text)
    if len(tokens) != 2 or tokens[0][1] != "chosen":
        raise ParseError(line, 1, f"expected 'chosen row,seat', got {_quoted(text)}")
    column, value = tokens[1]
    return _parse_coord_ref(value, line, column)


def placement_point_distance_bf(placement: Placement, coord: SeatCoord) -> int:
    return min(
        abs(sr - coord.row) + abs(ss - coord.seat) for sr, ss in placement_seats(placement)
    )


def policy_candidates_bf(policy: str, aud: Auditorium, size: int) -> set[Placement]:
    """The exact set of placements the named policy may return."""
    seated = occupied_cells(aud)
    pairs = [(pl, _min_distance(seated, pl)) for pl in feasible_placements_bf(aud, size)]
    everything = {pl for pl, _ in pairs}
    if not pairs:
        return set()
    if policy == "random":
        return everything
    if policy == "max":
        best = max(d for _, d in pairs)
        return {pl for pl, d in pairs if d == best}
    if policy == "space":
        banded = {pl for pl, d in pairs if 2 <= d <= 4}
        if banded:
            return banded
        above = [(pl, d) for pl, d in pairs if d > 4]
        if above:
            nearest = min(d for _, d in above)
            return {pl for pl, d in above if d == nearest}
        return everything
    if policy == "simple":
        roomy = {pl for pl, d in pairs if d > 2}
        return roomy or everything
    if policy == "center":
        candidates = [pl for pl, d in pairs if d >= 2]
        if not candidates:
            return everything
        center = center_of_mass_bf(aud)
        if center is None:
            return set(candidates)
        closest = min(placement_point_distance_bf(pl, center) for pl in candidates)
        return {
            pl
            for pl in candidates
            if placement_point_distance_bf(pl, center) == closest
        }
    raise ValueError(f"unknown policy {policy!r}")


def run_once_bf(scenario: Scenario, policy: str, seed: int) -> list[int]:
    """``run_once`` rebuilt from the oracles.

    Each step draws ``rng.randrange(n)`` over the oracle set in row-major
    order, the tie-break the rules document.
    """
    aud = scenario.initial_auditorium()
    rng = random.Random(seed)
    trajectory = [entropy_bf(aud)]
    for size in scenario.arrivals:
        options = sorted(policy_candidates_bf(policy, aud, size))
        aud.occupy(options[rng.randrange(len(options))])
        trajectory.append(entropy_bf(aud))
    return trajectory


class SeatSet:
    """The ``rows``/``cols``/``is_occupied`` surface of a hall, over a plain
    set of occupied ``(row, seat)`` pairs; no grid code is involved."""

    def __init__(self, rows: int, cols: int, seats: frozenset):
        self.rows, self.cols, self.seats = rows, cols, seats

    def is_occupied(self, row: int, seat: int) -> bool:
        return (row, seat) in self.seats


def exact_mean_trajectory(scenario: Scenario, policy: str) -> list[Fraction]:
    """The expected entropy after each step, over every seed.

    Carries a ``{board: probability}`` map forward a step at a time, each
    board's mass spread evenly over the placements ``policy_candidates_bf``
    allows, and boards reached along different paths merged. A board is the
    set of occupied seats. Raises ``ValueError`` if some reachable board has
    no room for the arriving group.
    """
    rows, cols = scenario.rows, scenario.cols
    boards = {frozenset(scenario.initial_occupancy): Fraction(1)}

    def mean(boards: dict[frozenset, Fraction]) -> Fraction:
        return sum(mass * entropy_bf(SeatSet(rows, cols, seats)) for seats, mass in boards.items())

    means = [mean(boards)]
    for step, size in enumerate(scenario.arrivals, start=1):
        reached: dict[frozenset, Fraction] = {}
        for seats, mass in boards.items():
            options = policy_candidates_bf(policy, SeatSet(rows, cols, seats), size)
            if not options:
                raise ValueError(f"no room for a group of {size} at step {step}")
            for placement in options:
                key = seats | frozenset(placement_seats(placement))
                reached[key] = reached.get(key, 0) + mass / len(options)
        boards = reached
        means.append(mean(boards))
    return means


def coverage_draws(set_size: int, floor: int = 500, miss_probability: float = 1e-9) -> int:
    """Draws needed so a uniform sample almost surely touches every candidate.

    Union bound: set_size * (1 - 1/set_size)**n < miss_probability.
    """
    if set_size <= 1:
        return floor
    needed = math.ceil(
        math.log(miss_probability / set_size) / math.log(1 - 1 / set_size)
    )
    return max(floor, needed)


def random_auditorium(
    rng: random.Random,
    max_rows: int = 7,
    max_cols: int = 14,
    max_density: float = 0.6,
) -> Auditorium:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    density = rng.uniform(0.0, max_density)
    occupied = [
        (r, s)
        for r in range(1, rows + 1)
        for s in range(1, cols + 1)
        if rng.random() < density
    ]
    return Auditorium(rows, cols, occupied)


def mirrored(aud: Auditorium) -> Auditorium:
    return Auditorium(
        aud.rows,
        aud.cols,
        [(c.row, aud.cols + 1 - c.seat) for c in occupied_cells(aud)],
    )


def mirror_placement(placement: Placement, cols: int) -> Placement:
    last = placement.start_seat + placement.size - 1
    return Placement(placement.row, cols + 1 - last, placement.size)


# Malformed scenario documents and the error each must raise, shared by the
# parser unit tests and the acceptance gate.
VALID_MINIMAL = "rows 1\ncols 3\ngrid\n.#.\narrivals\n"

MALFORMED_SCENARIOS: list[tuple[str, str, str]] = [
    ("empty file", "", "ParseError"),
    ("missing rows keyword", "cols 3\n", "ParseError"),
    ("rows value not integer", "rows x\ncols 3\ngrid\n...\narrivals\n", "ParseError"),
    ("rows missing value", "rows\ncols 3\ngrid\n...\narrivals\n", "ParseError"),
    ("rows extra token", "rows 1 2\ncols 3\ngrid\n...\narrivals\n", "ParseError"),
    ("missing cols", "rows 1\ngrid\n...\narrivals\n", "ParseError"),
    ("missing grid keyword", "rows 1\ncols 3\n.#.\narrivals\n", "ParseError"),
    ("grid row too short", "rows 1\ncols 3\ngrid\n..\narrivals\n", "ParseError"),
    ("grid row too long", "rows 1\ncols 3\ngrid\n....\narrivals\n", "ParseError"),
    ("bad grid character", "rows 1\ncols 3\ngrid\n.x.\narrivals\n", "ParseError"),
    ("cols past any regex repeat count", "rows 1\ncols 9999999999\ngrid\n...\narrivals\n", "ParseError"),
    ("missing grid row", "rows 2\ncols 3\ngrid\n...\narrivals\n", "ParseError"),
    ("missing arrivals keyword", "rows 1\ncols 3\ngrid\n...\n", "ParseError"),
    ("arrival size not integer", "rows 1\ncols 3\ngrid\n...\narrivals\na\n", "ParseError"),
    ("trailing junk", VALID_MINIMAL + "junk\n", "ParseError"),
    ("observed step malformed", "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\nno colon\n", "ParseError"),
    ("observed coord malformed", "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1: 1;2\n", "ParseError"),
    ("zero rows", "rows 0\ncols 3\ngrid\narrivals\n", "ValidationError"),
    ("zero group size", "rows 1\ncols 3\ngrid\n...\narrivals\n0\n", "ValidationError"),
    ("observed duplicates initial seat", "rows 1\ncols 3\ngrid\n.#.\narrivals\n1\nobserved\n1: 1,2\n", "ValidationError"),
    ("observed seat out of bounds", "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1: 1,4\n", "ValidationError"),
    ("observed step out of order", "rows 1\ncols 3\ngrid\n...\narrivals\n1 1\nobserved\n2: 1,1\n1: 1,2\n", "ValidationError"),
    ("observed size mismatch", "rows 1\ncols 3\ngrid\n...\narrivals\n2\nobserved\n1: 1,1\n", "ValidationError"),
    ("observed steps missing", "rows 1\ncols 4\ngrid\n....\narrivals\n1 1\nobserved\n1: 1,1\n", "ValidationError"),
    ("observed seat repeated across steps", "rows 1\ncols 4\ngrid\n....\narrivals\n1 1\nobserved\n1: 1,1\n2: 1,1\n", "ValidationError"),
    ("negative group size", "rows 1\ncols 3\ngrid\n...\narrivals\n-1\n", "ValidationError"),
    # int() alone would read these as 3, 1, 1, 2 and 1
    ("underscore in cols", "rows 1\ncols 0_3\ngrid\n...\narrivals\n", "ParseError"),
    ("non-ASCII digit in rows", "rows \u0661\ncols 3\ngrid\n...\narrivals\n", "ParseError"),
    ("underscore in arrival size", "rows 1\ncols 3\ngrid\n...\narrivals\n0_1\n", "ParseError"),
    ("underscore in observed seat", "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1: 1,0_2\n", "ParseError"),
    ("non-ASCII observed step", "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n\u0661: 1,2\n", "ParseError"),
]

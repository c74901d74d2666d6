"""Simulation data, its checks and its text formats.

A :class:`Scenario` fixes the hall size, who is already seated, and the
ordered group sizes that arrive one per time step; ``validate_scenario``
checks one built in code. A trajectory records the entropy score after
every step, with index 0 holding the score of the initial configuration so
simulated and recorded curves share an anchored origin; a
:class:`MeanTrajectory` aggregates many runs. The text formats are
scenario files, choice files, and trajectory CSV.

All files are UTF-8. Lines end at LF only; a CR before the LF is trailing
whitespace, and no other character ends a line. Tokens are separated by
spaces and tabs only; outside comments, any other whitespace character
(form feed, ``\x1c``, no-break space, a CR inside a line, ...) is a
:class:`ParseError` at its column; a line holding only such characters is
not blank. Blank lines are ignored and lines whose first character other
than a space or tab is ``;`` are comments (``#`` marks an occupied seat,
so it cannot introduce comments). A number is ASCII digits with an
optional sign.

A token line (``rows``, ``cols``, ``groups``, the arrival sizes, an
observed step, ``chosen``) has one reader: ``split`` finds its tokens and
``int`` reads its numbers, or ``parse_int`` where they are not all digits,
with no column worked out. It raises a wrong keyword, token count or step
itself; a bad number or pair goes to ``_fault``, the one place that works
out a token line's columns.

Scenario format::

    rows 7
    cols 14
    grid
    ..##..........        <- exactly `rows` lines of `cols` characters,
    ..............           '.' empty, '#' occupied
    arrivals
    2 1 2                 <- group sizes in arrival order; the line may be
                             omitted when no groups arrive
    observed              <- optional section: the real seats taken at
    1: 3,4 3,5               each step, `row,seat` pairs, 1-based,
    2: 5,8 5,9               one line per arrival step

Choices format (questionnaire answers), records separated by blank
lines; a record ends at its ``chosen`` line::

    groups 2              <- number of distinct seated groups shown
    grid
    .##......##...        <- occupancy block, dimensions inferred
    ..............
    chosen 2,5            <- the seat the respondent marked

Trajectory CSV schema: header ``step,label,mean,std,min,max``; one row
per (step, label), ordered by step then label; a plain trajectory emits
its integer entropy as mean with std 0 and min = max = mean.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from itertools import compress

from .analysis import ChoiceRecord, _Record
from .grid import Auditorium, GridError, SeatCoord, board_cells, read_grid


#: A trajectory is a plain list of integer entropy scores,
#: length = number of arrivals + 1.
Trajectory = list[int]


def _row_major(seats):
    """``seats`` as ``SeatCoord``s in row-major order; seats that are not
    pairs, or do not compare, are kept as given for ``validate_scenario``."""
    try:
        return tuple(sorted(map(SeatCoord._make, seats)))
    except TypeError:
        return seats


class Scenario(_Record):
    """Complete simulation input.

    ``initial_occupancy`` seats are taken before step 1; ``arrivals[t-1]``
    is the size of the group arriving at step t; ``observed``, when
    present, records the real seats taken at each step (one seat set per
    arrival, same group sizes). Seats are wrapped as ``SeatCoord`` here and
    put in row-major order, so equal scenarios compare equal; malformed ones
    are left for ``validate_scenario``. No hall is kept.
    """

    _fields = ("rows", "cols", "initial_occupancy", "arrivals", "observed")

    def __init__(
        self, rows: int, cols: int, initial_occupancy: Iterable[tuple[int, int]],
        arrivals: Iterable[int], observed: Iterable[Iterable[tuple[int, int]]] | None = None,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.initial_occupancy = _row_major(initial_occupancy)
        self.arrivals = arrivals
        self.observed = observed
        try:
            self.arrivals = tuple(arrivals)
            if observed is not None:
                self.observed = tuple(map(_row_major, observed))
        except TypeError:  # what is not iterable is left for ``validate_scenario``
            pass

    def initial_auditorium(self) -> Auditorium:
        """The hall before step 1, built afresh on every call."""
        return Auditorium(self.rows, self.cols, self.initial_occupancy)


class MeanTrajectory(_Record):
    """Per-step aggregate over Monte Carlo runs.

    ``std`` is the population standard deviation (the runs are the whole
    population of interest, not a sample from one). All four lists share
    the trajectory length.
    """

    _fields = ("mean", "std", "min", "max", "run_count")

    def __init__(
        self, mean: list[float], std: list[float], min: list[int], max: list[int], run_count: int
    ) -> None:
        self.mean = mean
        self.std = std
        self.min = min
        self.max = max
        self.run_count = run_count


class ParseError(ValueError):
    """Malformed input text; carries the 1-based line and column."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ValidationError(ValueError):
    """Well-formed input that violates a scenario or choices constraint."""


class LengthMismatch(ValueError):
    """Trajectories with different step counts were emitted together."""


def _lines(text: str) -> list[str | None]:
    """Each line less trailing spaces, tabs and CR, line ``i + 1`` at index
    ``i``; a comment line is ``None``, so the lines after it keep their place.

    Blank lines stay, as ``""``, because they separate choices records.
    """
    return [
        line.rstrip(" \t\r")
        if ";" not in line or not line.lstrip(" \t").startswith(";")  # the cheap test first
        else None
        for line in text.split("\n")
    ]


def _split(line: int, text: str, start: int = 0) -> list[str]:
    """The tokens of ``text`` from ``start`` on; the first whitespace character
    in ``text`` that is not a space or tab, even before ``start``, raises
    :class:`ParseError` at its column."""
    # A line of printable characters has no whitespace but spaces (a tab is not printable).
    if not text.isprintable() and (bad := re.search(r"[^\S \t]", text)):
        message = f"unexpected whitespace {bad.group()!r}; tokens are separated by spaces and tabs"
        raise ParseError(line, bad.start() + 1, message)
    return text[start:].split()


def _fault(line: int, text: str, start: int, what: str) -> None:
    """Raise the first fault among the tokens of line ``line`` from ``start``
    on, each a number named ``what`` or, for ``row,seat``, a pair of them."""
    for token in _split(line, text, start):
        start = text.index(token, start)
        column, start = start + 1, start + len(token)
        if what == "row,seat":
            row, _, seat = token.partition(",")
            if not row or not seat:  # a token without a comma leaves ``seat`` empty
                raise ParseError(line, column, f"expected '{what}', got {_quoted(token)}")
            parse_int(row, line, column, "row")
            parse_int(seat, line, column + len(row) + 1, "seat")
        else:
            parse_int(token, line, column, what)


def _quoted(text: str) -> str:
    """``text`` from a file or flag, quoted for an error message: whole up to
    40 characters, else its first 40 and its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_int(token: str, line: int = 0, column: int = 0, what: str = "number") -> int:
    """The number ``token`` spells, by the one rule for numbers in the file
    formats and in the command line's flags: ASCII digits with an optional
    sign, no more than ``int`` reads (``int`` alone also reads ``1_0``,
    spaces around and non-ASCII digits). Anything else raises
    :class:`ParseError` at ``line``, ``column`` naming ``what``; a token
    line's reader leaves them out and has :func:`_fault` find them."""
    if token.isdigit() and token.isascii() or not token.lstrip("+-0123456789"):
        try:
            return int(token)
        except ValueError:  # a sign out of place, no digit, or more digits than ``int`` reads
            pass
    raise ParseError(line, column, f"{what} must be an integer, got {_quoted(token)}")


def _reader(digits: str) -> Callable[[str], int]:
    """The reader of numbers whose characters together are ``digits``: ``int``
    where they are all ASCII digits, which it reads as the rule does, else
    :func:`parse_int`, which checks the sign rule."""
    return int if digits.isdigit() and digits.isascii() else parse_int


def _int_field(line: int, text: str, keyword: str) -> int:
    """The value of the ``<keyword> <n>`` line ``line``."""
    tokens = text.split() if text.isprintable() else _split(line, text)
    if not tokens or tokens[0] != keyword:
        raise ParseError(line, 1, f"expected '{keyword} <n>', got {_quoted(text)}")
    if len(tokens) != 2:
        raise ParseError(line, len(keyword) + 2, f"expected one value after '{keyword}'")
    try:
        return parse_int(tokens[1])
    except ValueError:
        pass
    _fault(line, text, text.index(keyword) + len(keyword), keyword)


def _keyword(line: int, text: str, keyword: str) -> None:
    """Check that the line ``line`` holds only ``keyword``."""
    if text.strip(" \t") != keyword:
        _split(line, text)  # a stray whitespace character is the error
        raise ParseError(line, 1, f"expected '{keyword}', got {_quoted(text)}")


def _sizes(line: int, text: str) -> list[int]:
    """The group sizes of the arrival sizes line ``line``."""
    sizes = text.split() if text.isprintable() else _split(line, text)
    try:
        return list(map(_reader("".join(sizes)), sizes))
    except ValueError:
        pass
    _fault(line, text, 0, "group size")


def _seats(line: int, text: str, step: int) -> list[tuple[int, int]]:
    """The seats of observed step ``step``, read from line ``line``."""
    head, colon, seats = text.partition(":")
    tokens = seats.split() if text.isprintable() else _split(line, text, len(head) + 1)
    if not colon:
        raise ParseError(line, 1, "expected '<step>: row,seat ...'")
    if head != str(step) and (number := parse_int(head.strip(), line, 1, "step number")) != step:
        raise ValidationError(f"line {line}: observed step {number} out of order, expected {step}")
    numbers = ",".join(tokens).split(",") if tokens else []
    # As many commas as tokens and none without one: one comma in each token.
    # Without a sign, a token without a comma is all digits.
    if len(numbers) == 2 * len(tokens) and (not any(map(str.isdigit, tokens))
            if "+" not in seats and "-" not in seats else all("," in t for t in tokens)):
        try:
            values = map(_reader("".join(numbers)), numbers)
            return list(zip(values, values))
        except ValueError:
            pass
    _fault(line, text, len(head) + 1, "row,seat")


def _chosen(line: int, text: str) -> tuple[int, int]:
    """The seat of the ``chosen row,seat`` line ``line``."""
    tokens = text.split() if text.isprintable() else _split(line, text)
    if len(tokens) != 2 or tokens[0] != "chosen":
        raise ParseError(line, 1, f"expected 'chosen row,seat', got {_quoted(text)}")
    row, _, seat = tokens[1].partition(",")  # a token without a comma leaves ``seat`` empty
    read = _reader(row + seat)
    try:
        return read(row), read(seat)
    except ValueError:
        pass
    _fault(line, text, text.index("chosen") + len("chosen"), "row,seat")


def parse_scenario(text: str) -> Scenario:
    """Parse the scenario format; see the module docstring for the grammar.

    The layout is fixed, so each part is read by its position among the
    effective (non-blank, non-comment) lines: ``rows``, ``cols``, ``grid``,
    ``rows`` grid rows, ``arrivals``, then an optional sizes line and an
    optional ``observed`` block in which every line is a step.

    Raises :class:`ParseError` for malformed text and
    :class:`ValidationError` for out-of-order observed steps and for what
    :func:`validate_scenario` rejects in the parsed scenario.
    """
    lines = _lines(text)
    items = list(compress(enumerate(lines, start=1), lines))

    def take(at: int, expected: str) -> tuple[int, str]:
        # Effective line ``at``; past the last, the file ends there (at line 1 if none).
        if at < len(items):
            return items[at]
        last = items[-1][0] if items else 1
        raise ParseError(last, 1, f"unexpected end of file, expected {expected}")

    rows = _int_field(*take(0, "'rows <n>'"), "rows")
    cols = _int_field(*take(1, "'cols <n>'"), "cols")
    if rows < 1 or cols < 1:  # checked before the grid is read
        raise ValidationError(f"auditorium must be at least 1x1, got {rows}x{cols}")
    _keyword(*take(2, "'grid'"), "grid")
    grid = items[3 : 3 + rows]
    try:
        board = read_grid([text for _, text in grid], cols) if grid else 0
    except GridError as exc:
        raise ParseError(grid[exc.row - 1][0], exc.column, exc.message) from None
    if len(grid) < rows:  # after the rows read, so that their faults win
        take(3 + len(grid), f"grid row {len(grid) + 1}")
    _keyword(*take(3 + rows, "'arrivals'"), "arrivals")

    at, arrivals, observed = 4 + rows, [], None
    if at < len(items) and items[at][1].strip(" \t") != "observed":
        arrivals = _sizes(*items[at])
        at += 1
    if at < len(items):
        line, after = items[at]
        if after.strip(" \t") != "observed":
            _split(line, after)  # a stray whitespace character is the error
            raise ParseError(line, 1, f"unexpected line {_quoted(after)}")
        steps = enumerate(items[at + 1 :], start=1)  # every line left is a step
        observed = [_seats(line, text, step) for step, (line, text) in steps]

    scenario = Scenario(rows, cols, board_cells(board, cols), arrivals, observed)
    validate_scenario(scenario)
    return scenario


def _sized(values, *what: object) -> int:
    try:
        return len(values)
    except TypeError:  # ``Scenario`` keeps what it cannot iterate as given
        name = " ".join(map(str, what))
        raise ValidationError(f"{name} must be a sequence, got {values!r}") from None


def validate_scenario(scenario: Scenario) -> None:
    """Check a programmatically built Scenario; raises ValidationError."""
    rows, cols = scenario.rows, scenario.cols
    if type(rows) is not int or type(cols) is not int:  # ``True`` would be written as text
        raise ValidationError(f"auditorium size must be integers, got {rows!r}x{cols!r}")
    if rows < 1 or cols < 1:
        raise ValidationError(f"auditorium must be at least 1x1, got {rows}x{cols}")
    observed = () if scenario.observed is None else scenario.observed
    for what, values in (("initial occupancy", scenario.initial_occupancy),
                         ("arrivals", scenario.arrivals), ("observed", observed)):
        _sized(values, what)
    for size in scenario.arrivals:
        if type(size) is not int or size < 1:
            raise ValidationError(f"group size must be a positive integer, got {size!r}")
    if scenario.observed is not None and len(observed) != len(scenario.arrivals):
        raise ValidationError(
            f"observed covers {len(observed)} steps but arrivals lists "
            f"{len(scenario.arrivals)} groups"
        )
    for index, (seats, size) in enumerate(zip(observed, scenario.arrivals), start=1):
        if _sized(seats, "observed step", index) != size:
            raise ValidationError(
                f"observed step {index} seats {len(seats)} people but the "
                f"arriving group has size {size}"
            )
    taken: set[tuple[int, int]] = set()
    seat_sets = [("initial", scenario.initial_occupancy)]
    seat_sets += [("observed", seats) for seats in observed]
    for kind, seats in seat_sets:
        for coord in seats:
            try:
                row, seat = coord
            except (TypeError, ValueError):  # ``Scenario`` keeps seats it cannot wrap as given
                raise ValidationError(f"{kind} seat {coord!r} is not a pair of integers") from None
            coord = row, seat
            if type(row) is not int or type(seat) is not int:
                raise ValidationError(f"{kind} seat {coord} is not a pair of integers")
            if not (1 <= row <= rows and 1 <= seat <= cols):
                raise ValidationError(f"{kind} seat {coord} out of bounds")
            if coord in taken:
                raise ValidationError(f"{kind} seat {coord} occupied twice")
            taken.add(coord)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text for a scenario; ``parse_scenario`` inverts it exactly."""
    validate_scenario(scenario)
    grid = scenario.initial_auditorium()
    lines = [f"rows {scenario.rows}", f"cols {scenario.cols}", "grid"]
    lines.extend(grid.to_rows())
    lines.append("arrivals")
    if scenario.arrivals:
        lines.append(" ".join(str(size) for size in scenario.arrivals))
    if scenario.observed is not None:
        lines.append("observed")
        for index, seats in enumerate(scenario.observed, start=1):
            coords = " ".join(f"{row},{seat}" for row, seat in seats)
            lines.append(f"{index}: {coords}" if coords else f"{index}:")
    return "\n".join(lines) + "\n"


def parse_choices(text: str) -> list[ChoiceRecord]:
    """Parse the blank-line separated choices format into records; a
    record's lines keep the numbers of their places in ``text``."""
    lines, records, start = _lines(text) + [""], [], 0  # the last block ends too
    comments = ";" in text  # a comment line holds a ';', so without one no block has any
    while start < len(lines):
        end = lines.index("", start)
        texts, numbers = lines[start:end], range(start + 1, end + 1)
        if comments and None in texts:  # a block's lines are not blank, so only a comment is false
            numbers, texts = list(compress(numbers, texts)), list(filter(None, texts))
        if texts:
            records.append(_parse_choice_block(texts, numbers))
        start = end + 1
    return records


def _parse_choice_block(texts: list[str], numbers: Sequence[int]) -> ChoiceRecord:
    group_count = _int_field(numbers[0], texts[0], "groups")
    if len(texts) < 4:
        raise ParseError(numbers[0], 1, "record needs 'groups', 'grid', grid rows and 'chosen'")

    _keyword(numbers[1], texts[1], "grid")

    try:
        configuration = Auditorium.from_rows(texts[2:-1])
    except GridError as exc:
        line, text = numbers[exc.row + 1], texts[exc.row + 1]
        if not text.lstrip(" \t").startswith("chosen"):
            raise ParseError(line, exc.column, exc.message) from None
        line, text = numbers[exc.row + 2], texts[exc.row + 2]  # the line after 'chosen'
        _split(line, text)  # a stray whitespace character is the error
        raise ParseError(line, 1, f"unexpected line {_quoted(text)}") from None

    chosen = _chosen(numbers[-1], texts[-1])
    try:
        return ChoiceRecord(configuration=configuration, chosen=chosen, group_count=group_count)
    except ValueError as exc:
        raise ValidationError(f"line {numbers[0]}: {exc}") from None


def _format_number(x: float) -> str:
    if isinstance(x, int):
        return str(x)
    return str(int(x)) if x.is_integer() else repr(x)


def emit_trajectories_csv(
    named: Sequence[tuple[str, MeanTrajectory | Sequence[int]]],
) -> str:
    """Render labeled trajectories as ``step,label,mean,std,min,max`` CSV.

    Rows are ordered by step then label; numbers keep full precision with
    no locale formatting, so identical inputs yield identical bytes.
    """
    table = []
    for label, traj in named:
        if isinstance(traj, MeanTrajectory):
            table.append((label, traj.mean, traj.std, traj.min, traj.max))
        else:
            values = list(traj)
            zeros = [0] * len(values)
            table.append((label, values, zeros, values, values))
    lengths = {len(mean) for _, mean, _, _, _ in table}
    if len(lengths) > 1:
        raise LengthMismatch(
            f"trajectories disagree on step count: {sorted(lengths)}"
        )
    table.sort(key=lambda row: row[0])
    lines = ["step,label,mean,std,min,max"]
    steps = lengths.pop() if lengths else 0
    for step in range(steps):
        for label, mean, std, low, high in table:
            lines.append(
                f"{step},{label},{_format_number(mean[step])},"
                f"{_format_number(std[step])},{_format_number(low[step])},"
                f"{_format_number(high[step])}"
            )
    return "\n".join(lines) + "\n"

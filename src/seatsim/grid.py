"""Occupancy-grid geometry for a rectangular auditorium.

Rows are numbered 1..rows starting from the back of the hall, seats
1..cols from left to right. An arriving group claims a contiguous
horizontal run of seats in a single row (a :class:`Placement`).

A hall is one int, a padded bitboard: with ``W = cols + 1``, seat ``s`` of
row ``r`` is bit ``(r-1)*W + s-1``; bit ``(r-1)*W + cols`` is a guard, never
a seat. Row-major order is ascending bit order, which :func:`board_cells`
decodes. A set of same-size placements is one int the same way, a bit per
start seat. A board (``_Board``) packs halls of one size into one int, a
lane each: an :class:`Auditorium` is its hall's one lane; a
:class:`LaneStack` gives each copy of a hall its rows and a padding row,
rounded up to whole fields. A field is the fewest whole bytes whose top bit
stays clear of every count up to ``rows * cols`` (one byte up to 127 seats,
two up to 32767), so one ``to_bytes``/``from_bytes`` splits or packs every
lane, and counts summed or compared a field at a time never carry or borrow
into the next field. Free runs of k seats start where ``f & f>>1 & ... &
f>>(k-1)`` is set, ``f`` being the free seats; no run crosses a guard or a
lane's end. Growing the occupants one Manhattan step at a time (``g | g<<1
| g>>1 | g<<W | g>>W``, masked to the seats, ``_Board._grow``) d times
blocks every seat within d of someone seated, so the run starts clear of
that (``_Board._run_starts``) are the placements farther than d from every
occupant, in every lane at once. A lane's top bit is never a seat, so
``(x + fill) & tops`` (``fill`` all ones below each top bit) marks the
lanes where ``x`` is non-empty and ``marks - (marks >> top)`` widens them,
for the rules to test and merge start sets per lane (``_Board._covers``,
``_Board._or``).

A lane of a :class:`LaneStack` is a board and a score, not a hall.
``LaneStack.take`` counts every lane's starts and finds every lane's drawn
start with a fixed number of such operations on fields, then writes each
drawn start as one bit of a one-hot byte string ``o``; ``o`` times ``(1 <<
size) - 1`` is every lane's new run. Only the drawn row's flips change: with
``v`` the seats, the carry of ``v + o`` runs from each drawn start through
its row's seats to the row's guard and stops there, so ``g = (v + o) & ~v``
is that guard and ``g - (g >> cols)`` that row's seats. The row's flips are
counted before and after the run, a field sum per lane as for the starts,
and each lane's score moves by the square of the count after less that
before. The row and seat sums of the center of mass follow from each drawn
start's bit index; the draws are kept and added in only when ``center``
asks for the lanes' centers (``LaneStack._balls``).

A grid block's text is the board (:func:`read_grid`, which checks it): its
rows of ``.``/``#`` joined by LF, reversed and read in binary with ``.``,
``#`` and LF as 0, 1 and 0, put each LF on the guard bit of the row before it.
The check counts rather than matches: a block of the right length with
``rows * cols`` of ``.`` and ``#`` has ``rows - 1`` other characters, and
when every ``cols + 1``-th character from index ``cols`` on is an LF, those
are the LFs that end the rows. Any other block is checked row by row for
its first fault.

A whole board is recounted (``Auditorium._set_board``) a bit of the row and
seat numbers at a time: with ``mask_k`` the seats whose row (seat) number has
bit ``k`` set, the row (seat) sum is the sum of ``2**k * popcount(board &
mask_k)``. The masks of a hall's shape are built in closed form
(:func:`_bit_slice`) and memoized for the last shape recounted.

The dispersion score of a seating (:func:`entropy`) is defined here too:
within each row, count the flips between empty and occupied as the row is
read left to right; square the per-row count and sum over rows. It is
computed when first read after a whole-board write; ``_take`` moves it once read.
Densely packed arrangements score near 0, arrangements full of gaps score
high. The score is a plain integer, which keeps regression checks exact. It
is bounded by rows * (cols - 1)**2, attained when every row alternates.
"""

from __future__ import annotations

import functools
import math
import random
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence


class SeatConflict(ValueError):
    """An already occupied seat would be occupied a second time."""


class GridError(ValueError):
    """A grid row of the wrong length or with a character other than ``.``
    and ``#``; carries the 1-based row and column and the bare message."""

    def __init__(self, row: int, column: int, message: str):
        super().__init__(f"row {row}, column {column}: {message}")
        self.row, self.column, self.message = row, column, message


SeatCoord = namedtuple("SeatCoord", "row seat")


class Placement(namedtuple("Placement", "row start_seat size")):
    """A run of ``size`` seats in ``row`` starting at ``start_seat``."""

    __slots__ = ()

    def min_distance_to(self, coord: SeatCoord) -> int:
        """Smallest Manhattan distance from any covered seat to ``coord``.

        Computed in closed form as point-to-interval distance.
        """
        last = self.start_seat + self.size - 1
        return abs(self.row - coord.row) + max(self.start_seat - coord.seat, 0, coord.seat - last)


def manhattan_distance(p: SeatCoord, q: SeatCoord) -> int:
    """|row difference| + |seat difference| between two seats."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def board_cells(bits: int, cols: int) -> Iterator[tuple[int, int]]:
    """``(row, seat)`` of each set bit of a board ``cols`` seats wide, in
    row-major order."""
    width = cols + 1
    while bits:
        low = bits & -bits
        yield divmod(low.bit_length() + width, width)  # bit_length() = (row-1)*width + seat
        bits ^= low


@functools.lru_cache(maxsize=1)
def _seat_bits(rows: int, width: int) -> int:
    """Every seat bit of ``rows`` rows: ``width - 1`` ones every ``width`` bits."""
    return ((1 << width - 1) - 1) * ((1 << width * rows) - 1) // ((1 << width) - 1)


def _dilate(bits: int, width: int, seats: int) -> int:
    """One Manhattan step: each bit also covers its four neighbours;
    masking by ``seats`` drops what lands on a guard or off the hall."""
    return (bits | bits << 1 | bits >> 1 | bits << width | bits >> width) & seats


def _bit_slice(k: int, count: int, unit: int = 1, width: int = 1) -> int:
    """The units ``1..count`` whose number has bit ``k`` set: runs of ``2**k``
    units every ``2**(k+1)``, the first at unit ``2**k``. Unit ``i`` is
    ``unit << (i-1)*width``; by default, bit ``i-1``."""
    run, period = width << k, width << k + 1
    runs = unit * ((1 << run) - 1) // ((1 << width) - 1)
    runs = runs * ((1 << period * (count >> k + 1) + period) - 1) // ((1 << period) - 1)
    return runs << run - width & (1 << count * width) - 1


@functools.lru_cache(maxsize=1)
def _number_masks(rows: int, cols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per bit ``k``, the seats of a ``rows`` x ``cols`` hall whose row number
    has bit ``k`` set; then those whose seat number has it."""
    width, row = cols + 1, (1 << cols) - 1
    firsts = ((1 << width * rows) - 1) // ((1 << width) - 1)  # the first seat of each row
    return (tuple(_bit_slice(k, rows, row, width) for k in range(rows.bit_length())),
            tuple(firsts * _bit_slice(k, cols) for k in range(cols.bit_length())))


def _nth_bit(starts: int, n: int) -> int:
    """The index of the n-th set bit of ``starts``, counting from 0 up."""
    above = starts.bit_count() - n  # set bits from the n-th one up
    # Within the bisect's own step count of either end, walk from that end.
    steps = starts.bit_length().bit_length()
    if n < steps:
        for _ in range(n):
            starts &= starts - 1  # clear the lowest set bit
        return (starts & -starts).bit_length() - 1
    if above <= steps:
        for _ in range(above - 1):
            starts ^= 1 << starts.bit_length() - 1  # clear the highest
        return starts.bit_length() - 1
    # Bisect for the highest bit with that many set bits from it up.
    low, high = 0, starts.bit_length()
    while high - low > 1:
        mid = (low + high) // 2
        if (starts >> mid).bit_count() >= above:
            low = mid
        else:
            high = mid
    return low


_GRID_CHARS = str.maketrans("01", ".#")
_GRID_BITS = str.maketrans(".#\n", "010")


def read_grid(texts: Sequence[str], cols: int) -> int:
    """The board of rows of ``cols`` characters ``.``/``#``, at least one.
    The first faulty row raises :class:`GridError`, on its length before
    its characters."""
    rows, block = len(texts), "\n".join(texts)
    # The counts leave ``rows - 1`` other characters; the stride puts them at the row ends.
    if (len(block) == rows * (cols + 1) - 1
            and block.count(".") + block.count("#") == rows * cols
            and block[cols::cols + 1] == "\n" * (rows - 1)):
        return int(block[::-1].translate(_GRID_BITS) or "0", 2)
    for row, text in enumerate(texts, start=1):
        if len(text) != cols:
            message = f"grid row {row} has {len(text)} characters, expected {cols}"
            raise GridError(row, min(len(text), cols) + 1, message)
        if bad := re.search("[^.#]", text):
            message = f"bad grid character {bad.group()!r}, expected '.' or '#'"
            raise GridError(row, bad.start() + 1, message)


class _Board:
    """Halls of one size in ``_board``, a lane each, ``top + 1`` bits apart
    (``ones``: bit 0 of each), and the rules' primitives, each per lane;
    ``_row_mask`` has a bit per seat of one row."""

    def __init__(self, rows: int, cols: int, top: int, ones: int):
        self.rows, self.cols, self._width, self._row_mask = rows, cols, cols + 1, (1 << cols) - 1
        self._valid = _seat_bits(rows, cols + 1) * ones
        self._top, self._tops, self._fill = top, ones << top, (ones << top) - ones

    def _run_starts(self, blocked: int, size: int) -> int:
        # The seats that start ``size`` seats clear of ``blocked``.
        if size < 1:
            raise ValueError(f"group size must be positive, got {size}")
        if size > self.cols:  # no run is wider than a row
            return 0
        free = run = ~blocked & self._valid
        for shift in range(1, size):
            run &= free >> shift
        return run

    def _grow(self, grown: int) -> int:
        # One Manhattan step of dilation of the (grown) occupants.
        return _dilate(grown, self._width, self._valid)

    def _lanes(self, x: int) -> int:
        # Every bit below the top of each lane where ``x`` is non-empty.
        marks = (x + self._fill) & self._tops
        return marks - (marks >> self._top)

    def _or(self, x: int, y: int) -> int:
        """``x`` in the lanes where it is non-empty, ``y`` in the others."""
        return x | y & ~self._lanes(x)

    def _covers(self, x: int) -> bool:
        """Whether ``x`` is non-empty in every lane."""
        return (x + self._fill) & self._tops == self._tops

    def _closest(self, starts: int, ball: int) -> int:
        """Each lane's starts of ``starts`` the fewest Manhattan steps from
        its ``ball``, which must be non-empty where ``starts`` is. With
        ``ball`` the starts whose run covers a seat (``Auditorium._balls``),
        these runs are the nearest to that seat: grown d steps, the ball holds
        the starts within d. A lane met drops out of ``starts``."""
        found = 0
        while starts:
            while not (hit := ball & starts):
                ball = _dilate(ball, self._width, self._valid)
            found, starts = found | hit, starts & ~self._lanes(hit)
        return found


class Auditorium(_Board):
    """Mutable rows x cols grid of occupied/empty seats: a board of one lane.

    The state is one int, a bit per seat in the padded layout of the module
    docstring, plus the sums of occupied row and seat numbers (for the
    center of mass) and the entropy score; the occupant count is the board's
    popcount. Two writers keep them: ``_take`` for one free run and
    ``_set_board`` for a whole board, which leaves the score ``None`` until
    :func:`entropy` first reads it. ``occupy`` and ``occupy_seats`` only
    flip seats from empty to occupied. Queries are computed from the board.
    """

    def __init__(self, rows: int, cols: int, occupied: Iterable[tuple[int, int]] = ()):
        if type(rows) is not int or type(cols) is not int:  # ``True`` would be written as text
            raise ValueError(f"auditorium size must be integers, got {rows!r}x{cols!r}")
        if rows < 1 or cols < 1:
            raise ValueError(f"auditorium must be at least 1x1, got {rows}x{cols}")
        super().__init__(rows, cols, rows * (cols + 1), 1)
        self._board = self._row_sum = self._seat_sum = self._entropy = 0  # an empty hall scores 0
        self.occupy_seats(occupied)

    @classmethod
    def _from_board(cls, rows: int, cols: int, board: int) -> Auditorium:
        aud = cls(rows, cols)
        aud._set_board(board)
        return aud

    def _set_board(self, board: int) -> None:
        # Bit k of a row (seat) number adds 2**k to the row (seat) sum for each
        # seat under its shape's mask; the score waits for ``entropy`` to read it.
        row_masks, seat_masks = _number_masks(self.rows, self.cols)
        row_sum = seat_sum = 0
        for k, mask in enumerate(row_masks):
            row_sum += (board & mask).bit_count() << k
        for k, mask in enumerate(seat_masks):
            seat_sum += (board & mask).bit_count() << k
        self._board, self._row_sum, self._seat_sum, self._entropy = board, row_sum, seat_sum, None

    def _score(self) -> int:
        board, score = self._board, 0
        flips, inner = board ^ board >> 1, (1 << self.cols - 1) - 1  # inner: a row's cols - 1 pairs
        for shift in range(0, board.bit_length(), self._width):  # empty rows add 0
            score += (flips >> shift & inner).bit_count() ** 2
        return score

    @classmethod
    def from_rows(cls, lines: Sequence[str]) -> Auditorium:
        """Build from strings of ``.`` (empty) and ``#`` (occupied), all as
        long as the first; a faulty row raises :class:`GridError`."""
        if not lines:
            raise ValueError("need at least one row")
        return cls._from_board(len(lines), len(lines[0]), read_grid(lines, len(lines[0])))

    def to_rows(self) -> list[str]:
        """Inverse of :meth:`from_rows`."""
        masks = (self._board >> r * self._width & self._row_mask for r in range(self.rows))
        return [format(m, f"0{self.cols}b")[::-1].translate(_GRID_CHARS) for m in masks]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Auditorium):
            return NotImplemented
        return (self.rows, self.cols, self._board) == (other.rows, other.cols, other._board)

    def __repr__(self) -> str:
        occupied = f"{self._board.bit_count()}/{self.rows * self.cols} occupied"
        return f"Auditorium({self.rows}x{self.cols}, {occupied})"

    def _check_bounds(self, row: int, seat: int) -> None:
        if type(row) is not int or type(seat) is not int:  # ``True`` would be written as text
            raise ValueError(f"seat {(row, seat)} is not a pair of integers")
        if not (1 <= row <= self.rows and 1 <= seat <= self.cols):
            raise ValueError(f"seat ({row},{seat}) outside {self.rows}x{self.cols} auditorium")

    def is_occupied(self, row: int, seat: int) -> bool:
        self._check_bounds(row, seat)
        return bool(self._board >> (row - 1) * self._width + seat - 1 & 1)

    @property
    def occupied_count(self) -> int:
        return self._board.bit_count()

    def occupied_seats(self) -> list[SeatCoord]:
        """All occupied seats in row-major order."""
        return [SeatCoord(r, s) for r, s in board_cells(self._board, self.cols)]

    def occupy(self, placement: Placement) -> None:
        """Seat a group on ``placement``; every covered seat must be empty.

        Raises :class:`SeatConflict` (leaving the grid unchanged) if any
        covered seat is already taken, a sign that the caller selected an
        infeasible placement. As in :meth:`occupy_seats`, the first seat,
        left to right, that is taken or outside the hall decides the error.
        A size below 1 raises ``ValueError``.
        """
        row, start, size = placement
        if size < 1:
            raise ValueError(f"group size must be positive, got {size}")
        # A run that starts and ends within a row is free and inside the hall
        # unless it meets an occupant or the bits past the last row.
        if row > 0 and 0 < start <= self.cols - size + 1:
            low = (row - 1) * self._width + start - 1
            if not ((1 << size) - 1) << low & (self._board | ~self._valid):
                self._take(low, size)
                return
        # Some seat is taken or off the hall: seated one by one, the first such seat raises.
        self.occupy_seats((row, seat) for seat in range(start, start + size))

    def _take(self, low: int, size: int) -> None:
        # Seat the free run of ``size`` from bit ``low``, unchecked; only its row's flips change.
        row, seat = divmod(low, self._width)
        run, mask, board = (1 << size) - 1, self._row_mask, self._board
        old = board >> low - seat & mask
        new = old | run << seat
        self._board = board | run << low
        self._row_sum += (row + 1) * size
        self._seat_sum += size * (2 * seat + 1 + size) >> 1  # seats seat+1 .. seat+size
        if self._entropy is not None:  # a score not yet read is counted from the board when read
            mask >>= 1  # the row's cols - 1 neighbour pairs, as ``inner`` in ``_score``
            now, was = ((new ^ new >> 1) & mask).bit_count(), ((old ^ old >> 1) & mask).bit_count()
            self._entropy += (now - was) * (now + was)  # now**2 - was**2

    def occupy_seats(self, coords: Iterable[tuple[int, int]]) -> None:
        """Occupy arbitrary seats in order; the first one off the hall, or taken
        by an occupant or an earlier seat of ``coords``, raises and changes nothing.
        The new board is then recounted whole by ``_set_board``."""
        board, width = self._board, self._width
        coord = coords
        try:  # one handler for the call, no check per seat
            for coord in coords:
                row, seat = coord
                self._check_bounds(row, seat)
                bit = 1 << (row - 1) * width + seat - 1
                if board & bit:
                    raise SeatConflict(f"seat ({row},{seat}) is already occupied")
                board |= bit
        except TypeError:  # ``coords``, or a seat in it, is not iterable
            raise ValueError(f"seat {coord!r} is not a pair of integers") from None
        if board != self._board:
            self._set_board(board)

    def _draw(self, starts: int, size: int, rng: random.Random) -> Placement:
        """The n-th placement of the start set ``starts`` in row-major order,
        ``n = rng.randrange(popcount)``: the same draw as indexing the
        listed placements. ``starts`` must be non-empty."""
        row, seat = divmod(_nth_bit(starts, rng.randrange(starts.bit_count())), self._width)
        return Placement(row + 1, seat + 1, size)

    def _balls(self, size: int) -> int:
        # The starts whose run covers the center of mass; someone must be seated.
        row, seat = self.center_of_mass()
        return ((1 << seat) - (1 << max(seat - size, 0))) << (row - 1) * self._width

    def feasible_placements(self, size: int) -> tuple[Placement, ...]:
        """Every placement of ``size`` seats whose run is entirely empty.

        Row-major order by (row, start_seat), so index-based random choice
        is reproducible. Empty tuple when the group cannot fit anywhere.
        """
        starts = self._run_starts(self._board, size)
        return tuple(Placement(r, s, size) for r, s in board_cells(starts, self.cols))

    def min_distance_to_seated(self, placement: Placement) -> float:
        """Smallest Manhattan distance from the placement to any occupant.

        ``math.inf`` when nobody is seated yet; that value compares above
        every integer distance, so lower-bound filters accept it naturally.
        """
        row, start, size = placement
        if size < 1:
            raise ValueError(f"group size must be positive, got {size}")
        self._check_bounds(row, start)
        self._check_bounds(row, start + size - 1)
        if not self._board:
            return math.inf
        run = ((1 << size) - 1) << (row - 1) * self._width + start - 1
        grown, distance = self._board, 0
        while not grown & run:
            grown, distance = self._grow(grown), distance + 1
        return distance

    def placements_with_distances(self, size: int) -> tuple[tuple[Placement, float], ...]:
        """Feasible placements paired with their nearest-occupied distance."""
        return tuple((pl, self.min_distance_to_seated(pl)) for pl in self.feasible_placements(size))

    def center_of_mass(self) -> SeatCoord | None:
        """Mean occupied row and seat, each rounded half-up; None if empty."""
        if not self._board:
            return None
        n = self._board.bit_count()  # round(sum / n), ties going up, exact in integers
        return SeatCoord((2 * self._row_sum + n) // (2 * n), (2 * self._seat_sum + n) // (2 * n))


def entropy(aud: Auditorium) -> int:
    """Sum over rows of the squared transition count: computed from the
    board when first read after ``_set_board`` wrote a whole board, then
    kept, and moved by ``_take`` one run at a time until the next such write."""
    try:
        if aud._entropy is None:
            aud._entropy = aud._score()
        return aud._entropy
    except AttributeError:  # not a hall
        raise ValueError(f"entropy needs an Auditorium, got {aud!r}") from None


def _byte_ones() -> tuple[tuple[int, ...], ...]:
    """Each set bit of each byte value, alone in the byte, lowest first."""
    table: list[tuple[int, ...]] = [()]
    for bit in range(8):
        table += [ones + (1 << bit,) for ones in table]
    return tuple(table)


_BYTE_ONES = _byte_ones()


class LaneStack(_Board):
    """Copies of one hall as the ``lanes`` lanes of ``_board``, on which a
    rule's start-set function gives each copy's start set in its lane. A
    lane keeps no hall: only its score, in ``_scores``, and its row and seat
    sums for the center of mass, brought up to date from the draws of
    ``_drawn`` when ``_balls`` asks. Every lane has seated as many people,
    the board's popcount over the lane count, so an empty ``_board``, or no
    center of mass, is every lane's.

    A lane is ``_bytes`` bytes, whole fields of ``_field`` bytes: the fewest
    whose top bit stays clear of ``rows * cols``, the most starts a lane
    holds. No count ``take`` sums in a field, nor its borrow through the top
    bit, reaches the next field.
    """

    def __init__(self, hall: Auditorium, lanes: int):
        width = (hall.rows * hall.cols).bit_length() // 8 + 1  # bytes per field
        per_lane = -(-(hall.rows + 1) * hall._width // (8 * width))  # fields per lane
        self._field, self._bytes = width, per_lane * width
        top = 8 * self._bytes - 1
        ones = ((1 << (top + 1) * lanes) - 1) // ((1 << top + 1) - 1)  # bit 0 of each lane
        super().__init__(hall.rows, hall.cols, top, ones)
        self.lanes = lanes
        self._board = hall._board * ones
        self._scores = [entropy(hall)] * lanes
        self._row_sums, self._seat_sums = [hall._row_sum] * lanes, [hall._seat_sum] * lanes
        self._drawn: list[tuple[Sequence[int], bytearray, int]] = []  # targets, one-hot, size
        # Each lane bit's row number and seat index, for the sums.
        self._cells = [(low // self._width + 1, low % self._width) for low in range(top + 1)]
        self._inner = self._valid & self._valid >> 1  # seats with a seat on their right
        # ``take``'s masks: each byte's bit pairs, nibbles and low nibble; bit 0
        # of each field (of one lane: ``_lane_units``), its low byte and its top
        # bit; bit 0 of each lane's top field; for the sums along each lane, its
        # fields from the 1st, 2nd, 4th, ... on.
        total, unit, bits = lanes * self._bytes, b"\1" + bytes(width - 1), 8 * width
        self._swar = [int.from_bytes(bytes([m]) * total, "little") for m in (0x55, 0x33, 0x0F)]
        self._units = int.from_bytes(unit * (per_lane * lanes), "little")
        self._lane_units = int.from_bytes(unit * per_lane, "little")
        self._low, self._high = self._units * 255, self._units << bits - 1
        self._top_units = ones << top + 1 - bits
        self._scan = [(bits << k, ((1 << top + 1) - (1 << (bits << k))) * ones)
                      for k in range((per_lane - 1).bit_length())]

    def take(self, starts: int, size: int, rngs: Sequence[random.Random]) -> list[int]:
        """Seat ``size`` people in each lane, on a start its rng draws from the
        lane, and return every lane's new score, in lane order.

        Broadword rank and select (S. Vigna, WEA 2008; Knuth, TAOCP 4A,
        7.1.3) count and find every lane's starts at once, in a number of
        operations on the whole stack that does not grow with the lanes:
        - count: each byte's popcount is summed into its field, then along
          the lane by shift-adds masked to it, so each field holds the lane's
          starts up to its end and the lane's top field its count;
        - draw: lane by lane in run order, ``n = rng.randrange(count)``, packed by ``_pack``;
        - select: spread to its lane's fields by one multiply, ``n`` marks the
          bytes with at most ``n`` starts before them, whose field's top bit
          stays set in ``n + 2**(8*_field - 1) - before``. One multiply each sums
          into the lane's top field the marked bytes, of which the drawn
          start's is the last, and their starts, which less ``n`` is the
          start's rank from its byte's top; a table of each byte's set bits
          gives the drawn start's bit, alone in its byte.
        The drawn starts, a bit each in a one-hot byte string, times the run
        give every lane's new run. Only the drawn row's flips change, so each
        lane's score moves by the square of its count after less that before.
        """
        step, lanes = self._bytes, self.lanes
        pops = self._byte_counts(starts)
        parts = [pops >> 8 * o & self._low for o in range(self._field)]  # byte o of each field
        sums = ends = sum(parts)  # each field's starts
        for shift, keep in self._scan:
            ends += ends << shift & keep  # the lane's starts up to each field's end
        drawn = self._pack([rng.randrange(count)  # each lane's n in its field 0
                            for rng, count in zip(rngs, self._top_fields(ends))])
        spread = drawn * self._lane_units | self._high
        before = ends - sums  # the lane's starts before each field, then before its byte o
        marked = seen = 0
        for part in parts:
            marks = (spread - before) >> 8 * self._field - 1 & self._units
            marked += marks
            seen += part & marks * 255
            before += part
        targets = self._top_fields(marked * self._lane_units - self._top_units)
        ranks = self._top_fields(seen * self._lane_units - (drawn << 8 * (step - self._field)))
        data, onehot = starts.to_bytes(step * lanes, "little"), bytearray(step * lanes)
        for i, byte, rank in zip(range(0, len(data), step), targets, ranks):
            onehot[i + byte] = _BYTE_ONES[data[i + byte]][-rank]
        self._drawn.append((targets, onehot, size))
        new, board = int.from_bytes(onehot, "little"), self._board
        row = self._rows_of(new) & self._inner  # the drawn rows' flip positions
        was = self._counts((board ^ board >> 1) & row)
        board |= new * ((1 << size) - 1)
        now = self._counts((board ^ board >> 1) & row)
        self._board = board
        self._scores = [s + n * n - w * w for s, n, w in zip(self._scores, now, was)]
        return self._scores

    def _rows_of(self, seats: int) -> int:
        """The seats of the row of each lane's one bit of ``seats``, a seat:
        added to ``_valid``, the bit's carry runs through the seats after it
        to its row's guard and stops there, so no carry leaves the row."""
        valid = self._valid
        guards = (valid + seats) & ~valid
        return guards - (guards >> self.cols)

    def _byte_counts(self, x: int) -> int:
        # Each byte's popcount, in that byte.
        m1, m2, m4 = self._swar
        x -= x >> 1 & m1
        x = (x & m2) + (x >> 2 & m2)
        return x + (x >> 4) & m4

    def _counts(self, x: int) -> Sequence[int]:
        # Each lane's popcount of ``x``: its bytes' counts summed into fields, then along the lane.
        pops = self._byte_counts(x)
        fields = sum([pops >> 8 * o & self._low for o in range(self._field)])
        return self._top_fields(fields * self._lane_units)

    def _top_fields(self, x: int) -> Sequence[int]:
        # Each lane's top field of ``x``; what runs past the last lane is left out.
        step, width = self._bytes, self._field
        end = step * self.lanes
        data = x.to_bytes(end + step, "little")
        tops: Sequence[int] = data[step - width:end:step]
        for o in range(1, width):
            tops = [t | b << 8 * o for t, b in zip(tops, data[step - width + o:end:step])]
        return tops

    def _pack(self, lanes: list[int]) -> int:
        step = self._bytes
        return int.from_bytes(b"".join([x.to_bytes(step, "little") for x in lanes]), "little")

    def _balls(self, size: int) -> int:
        # Each lane's starts whose run covers its center of mass, rounded as
        # ``Auditorium.center_of_mass`` does; the draws since the last call are
        # first added to the row and seat sums.
        step, cells, rows, seats = self._bytes, self._cells, self._row_sums, self._seat_sums
        for targets, onehot, k in self._drawn:
            drawn = [cells[8 * byte + onehot[i + byte].bit_length() - 1]
                     for i, byte in zip(range(0, len(onehot), step), targets)]
            run = k * (k + 1) >> 1  # seats start + 1 .. start + k sum to k * start + run
            rows = [r + k * row for r, (row, _) in zip(rows, drawn)]
            seats = [s + k * start + run for s, (_, start) in zip(seats, drawn)]
        self._row_sums, self._seat_sums, self._drawn = rows, seats, []
        n = self._board.bit_count() // self.lanes
        twice, width = 2 * n, self._width
        # By seat number, the starts of its row whose run covers it, shifted to each center's row.
        covering = [(1 << seat) - (1 << max(seat - size, 0)) for seat in range(self.cols + 1)]
        return self._pack([covering[(2 * s + n) // twice] << ((2 * r + n) // twice - 1) * width
                           for r, s in zip(rows, seats)])

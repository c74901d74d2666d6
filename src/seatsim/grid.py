"""Occupancy-grid geometry for a rectangular auditorium.

Rows are numbered 1..rows starting from the back of the hall, seats
1..cols from left to right. An arriving group claims a contiguous
horizontal run of seats in a single row (a :class:`Placement`).

The whole hall is one int, a padded bitboard: with ``W = cols + 1``, seat
``s`` of row ``r`` is bit ``(r-1)*W + s-1``; bit ``(r-1)*W + cols`` is a
guard, never a seat. Row-major order is ascending bit order. A set of
same-size placements is one int the same way, a bit per start seat
(:class:`PlacementSet`). Free runs of k seats start where ``f & f>>1 &
... & f>>(k-1)`` is set, ``f`` being the free seats; no run crosses the
guard. Growing the occupants one Manhattan step at a time (``g | g<<1 |
g>>1 | g<<W | g>>W``, masked to the seats, ``Auditorium._grow``) d times
blocks every seat within d of someone seated, so the run starts clear of
that (``Auditorium._run_starts``) are the placements farther than d from
every occupant. The rules filter these ints and wrap only their final set.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, NamedTuple, Sequence


class SeatConflict(Exception):
    """An already occupied seat would be occupied a second time."""


class SeatCoord(NamedTuple):
    row: int
    seat: int


class Placement(NamedTuple):
    """A run of ``size`` seats in ``row`` starting at ``start_seat``."""

    row: int
    start_seat: int
    size: int

    def seats(self) -> tuple[SeatCoord, ...]:
        """All seats covered by the placement, left to right."""
        start = self.start_seat
        return tuple(SeatCoord(self.row, s) for s in range(start, start + self.size))

    def min_distance_to(self, coord: SeatCoord) -> int:
        """Smallest Manhattan distance from any covered seat to ``coord``.

        Equivalent to ``min(manhattan_distance(s, coord) for s in seats())``;
        computed in closed form as point-to-interval distance.
        """
        vertical = abs(self.row - coord.row)
        last = self.start_seat + self.size - 1
        if coord.seat < self.start_seat:
            return vertical + self.start_seat - coord.seat
        if coord.seat > last:
            return vertical + coord.seat - last
        return vertical


def manhattan_distance(p: SeatCoord, q: SeatCoord) -> int:
    """|row difference| + |seat difference| between two seats."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _seat_numbers(mask: int) -> Iterator[int]:
    """1-based numbers of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def _seat_bits(rows: int, width: int) -> int:
    """Every seat bit of ``rows`` rows: ``width - 1`` ones every ``width`` bits."""
    return ((1 << width - 1) - 1) * ((1 << width * rows) - 1) // ((1 << width) - 1)


def _dilate(bits: int, width: int, seats: int) -> int:
    """One Manhattan step: each bit also covers its four neighbours;
    masking by ``seats`` drops what lands on a guard or off the hall."""
    return (bits | bits << 1 | bits >> 1 | bits << width | bits >> width) & seats


def _flips(mask: int, cols: int) -> int:
    """Empty/occupied flips between adjacent seats of one row's mask."""
    return ((mask ^ mask >> 1) & ((1 << cols - 1) - 1)).bit_count()


_GRID_BITS = str.maketrans(".#", "01")
_GRID_CHARS = str.maketrans("01", ".#")


def mask_from_text(text: str) -> int:
    """Bitmask of a row of ``.``/``#`` text; other characters are not checked."""
    return int(text[::-1].translate(_GRID_BITS) or "0", 2)


class PlacementSet:
    """Placements of one size, a bit per start seat on a padded board
    ``width`` bits a row. Iterates in row-major order, so ``pick`` consumes
    the rng exactly as ``options[rng.randrange(len(options))]`` would.
    """

    __slots__ = ("size", "bits", "width")

    def __init__(self, size: int, bits: int, width: int):
        self.size, self.bits, self.width = size, bits, width

    @classmethod
    def from_rows(cls, size: int, cols: int, starts: Sequence[int]) -> PlacementSet:
        """From a mask of start seats per row; bit ``s-1`` is seat ``s``."""
        width = cols + 1
        return cls(size, sum(mask << r * width for r, mask in enumerate(starts)), width)

    @property
    def starts(self) -> list[int]:
        """The mask of start seats of each row, up to the last non-empty one."""
        full, rows = (1 << self.width - 1) - 1, -(-self.bits.bit_length() // self.width)
        return [self.bits >> r * self.width & full for r in range(rows)]

    def __iter__(self) -> Iterator[Placement]:
        for n in _seat_numbers(self.bits):
            row, seat = divmod(n - 1, self.width)
            yield Placement(row + 1, seat + 1, self.size)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def closest_to(self, point: SeatCoord) -> PlacementSet:
        """The placements at the smallest Manhattan distance from ``point``,
        measured from their nearest member seat.

        The starts whose run covers the point's seat are at distance 0, and
        grown by d Manhattan steps they are the starts within d; so grow
        them until they meet the set, and keep what they meet.
        """
        if not self.bits:
            return self
        row, seat = point
        width = self.width
        seats = _seat_bits(max(row, -(-self.bits.bit_length() // width)), width)
        ball = ((1 << seat) - (1 << max(seat - self.size, 0))) << (row - 1) * width
        while not ball & self.bits:
            ball = _dilate(ball, width, seats)
        return PlacementSet(self.size, ball & self.bits, width)

    def pick(self, rng: random.Random) -> Placement:
        """The n-th placement in row-major order, ``n = rng.randrange(len(self))``."""
        bits, total = self.bits, len(self)
        above = total - rng.randrange(total)  # set bits from the n-th one up
        # Bisect for the highest bit with that many set bits from it up.
        low, high = 0, bits.bit_length()
        while high - low > 1:
            mid = (low + high) // 2
            if (bits >> mid).bit_count() >= above:
                low = mid
            else:
                high = mid
        row, seat = divmod(low, self.width)
        return Placement(row + 1, seat + 1, self.size)


class Auditorium:
    """Mutable rows x cols grid of occupied/empty seats.

    The state is one int, a bit per seat in the padded layout of the module
    docstring (``_valid`` has every seat bit set), plus the occupant count,
    the sums of occupied row and seat numbers (for the center of mass) and
    the entropy score, all kept up to date as seats are taken.
    ``occupy``/``occupy_seats`` are the only mutators and only ever flip
    seats from empty to occupied. Placement and distance queries are
    computed from the board on each call; nothing is cached.
    """

    def __init__(self, rows: int, cols: int, occupied: Iterable[tuple[int, int]] = ()):
        if rows < 1 or cols < 1:
            raise ValueError(f"auditorium must be at least 1x1, got {rows}x{cols}")
        self.rows, self.cols, self._width = rows, cols, cols + 1
        self._valid = _seat_bits(rows, cols + 1)
        self._board = self._count = self._row_sum = self._seat_sum = self._entropy = 0
        self.occupy_seats(occupied)

    @classmethod
    def _from_masks(cls, cols: int, masks: list[int]) -> Auditorium:
        # The parsers build a hall per record: one pass over the rows, then
        # the seat sum a column in use at a time, beats per-row ``_add`` calls.
        aud = cls(len(masks), cols)
        board = row_sum = score = used = 0
        inner = (1 << cols - 1) - 1  # as in ``_flips``, without a call per row
        for r, mask in enumerate(masks):
            if mask:
                board |= mask << r * aud._width
                row_sum += (r + 1) * mask.bit_count()
                score += ((mask ^ mask >> 1) & inner).bit_count() ** 2
                used |= mask
        rep = aud._valid // ((1 << cols) - 1)  # the first seat of each row
        aud._seat_sum = sum(s * (board & rep << s - 1).bit_count() for s in _seat_numbers(used))
        aud._board, aud._count = board, board.bit_count()
        aud._row_sum, aud._entropy = row_sum, score
        return aud

    @classmethod
    def from_rows(cls, lines: Sequence[str]) -> Auditorium:
        """Build from strings of ``.`` (empty) and ``#`` (occupied)."""
        if not lines:
            raise ValueError("need at least one row")
        cols = len(lines[0])
        for r, line in enumerate(lines, start=1):
            if len(line) != cols:
                raise ValueError(f"row {r} has length {len(line)}, expected {cols}")
            if line.strip(".#"):
                raise ValueError(f"bad grid character {line.strip('.#')[0]!r} in row {r}")
        return cls._from_masks(cols, [mask_from_text(line) for line in lines])

    def to_rows(self) -> list[str]:
        """Inverse of :meth:`from_rows`."""
        masks = (self._row(r) for r in range(1, self.rows + 1))
        return [format(m, f"0{self.cols}b")[::-1].translate(_GRID_CHARS) for m in masks]

    def copy(self) -> Auditorium:
        dup = object.__new__(Auditorium)
        # Field by field: on CPython 3.11 a copy filled through
        # ``dup.__dict__.update`` reads every attribute more slowly, which
        # made 100-run fig1 batches about 9% slower.
        for name, value in vars(self).items():  # every field is an int
            setattr(dup, name, value)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Auditorium):
            return NotImplemented
        return (self.rows, self.cols, self._board) == (other.rows, other.cols, other._board)

    def __repr__(self) -> str:
        occupied = f"{self._count}/{self.rows * self.cols} occupied"
        return f"Auditorium({self.rows}x{self.cols}, {occupied})"

    def _check_bounds(self, row: int, seat: int) -> None:
        if not (1 <= row <= self.rows and 1 <= seat <= self.cols):
            raise ValueError(f"seat ({row},{seat}) outside {self.rows}x{self.cols} auditorium")

    def _row(self, row: int) -> int:
        return self._board >> (row - 1) * self._width & (1 << self.cols) - 1

    def is_occupied(self, row: int, seat: int) -> bool:
        self._check_bounds(row, seat)
        return bool(self._board >> (row - 1) * self._width + seat - 1 & 1)

    @property
    def occupied_count(self) -> int:
        return self._count

    def occupied_seats(self) -> list[SeatCoord]:
        """All occupied seats in row-major order."""
        rows = range(1, self.rows + 1)
        return [SeatCoord(r, s) for r in rows for s in _seat_numbers(self._row(r))]

    def row_mask(self, row: int) -> int:
        """Occupancy bitmask of one row; bit ``s-1`` is seat ``s``."""
        self._check_bounds(row, 1)
        return self._row(row)

    def row_occupancy(self, row: int) -> Sequence[bool]:
        """Occupancy flags of one row, left to right."""
        mask = self.row_mask(row)
        return [bool(mask >> s & 1) for s in range(self.cols)]

    def _add(self, row: int, bits: int, seat_sum: int) -> None:
        # Occupy the empty seats ``bits`` of ``row``, whose numbers sum to
        # ``seat_sum``; only that row's flips change, so the score moves
        # by new flips² - old flips².
        count, old = bits.bit_count(), self._row(row)
        self._board |= bits << (row - 1) * self._width
        self._count += count
        self._row_sum += row * count
        self._seat_sum += seat_sum
        self._entropy += _flips(old | bits, self.cols) ** 2 - _flips(old, self.cols) ** 2

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
        # A run from a seat of the hall is free and inside it unless it
        # meets an occupant, a guard or the bits past the last row.
        if row > 0 and 0 < start <= self.cols:
            run = ((1 << size) - 1) << start - 1
            if not run << (row - 1) * self._width & (self._board | ~self._valid):
                self._add(row, run, size * start + size * (size - 1) // 2)
                return
        self._check_bounds(row, start)
        if taken := self._row(row) & ((1 << size) - 1) << start - 1:
            raise SeatConflict(f"seat ({row},{(taken & -taken).bit_length()}) is already occupied")
        self._check_bounds(row, min(start + size - 1, self.cols + 1))

    def occupy_seats(self, coords: Iterable[tuple[int, int]]) -> None:
        """Occupy arbitrary seats (used when replaying recorded placements)."""
        staged: dict[int, int] = {}
        for row, seat in coords:
            self._check_bounds(row, seat)
            bit = 1 << (seat - 1)
            if (self._row(row) | staged.get(row, 0)) & bit:
                raise SeatConflict(f"seat ({row},{seat}) is already occupied")
            staged[row] = staged.get(row, 0) | bit
        for row, bits in staged.items():
            self._add(row, bits, sum(_seat_numbers(bits)))

    def _run_starts(self, blocked: int, size: int) -> int:
        # The seats that start ``size`` seats clear of ``blocked``.
        if size < 1:
            raise ValueError(f"group size must be positive, got {size}")
        free = run = ~blocked & self._valid
        for shift in range(1, size):
            run &= free >> shift
        return run

    def _grow(self, grown: int) -> int:
        # One Manhattan step of dilation of the (grown) occupants.
        return _dilate(grown, self._width, self._valid)

    def _free(self, size: int) -> PlacementSet:
        return PlacementSet(size, self._run_starts(self._board, size), self._width)

    def feasible_placements(self, size: int) -> tuple[Placement, ...]:
        """Every placement of ``size`` seats whose run is entirely empty.

        Row-major order by (row, start_seat), so index-based random choice
        is reproducible. Empty tuple when the group cannot fit anywhere.
        """
        return tuple(self._free(size))

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
        if not self._count:
            return math.inf
        run = ((1 << size) - 1) << (row - 1) * self._width + start - 1
        grown, distance = self._board, 0
        while not grown & run:
            grown, distance = self._grow(grown), distance + 1
        return distance

    def placements_with_distances(self, size: int) -> tuple[tuple[Placement, float], ...]:
        """Feasible placements paired with their nearest-occupied distance."""
        near = self._run_starts(self._board, size)
        if not self._count:
            return tuple((pl, math.inf) for pl in PlacementSet(size, near, self._width))
        # Free but not clear of the occupants grown d steps: distance d.
        pairs, grown, distance = [], self._board, 1
        while near:
            grown = self._grow(grown)
            far = self._run_starts(grown, size)
            pairs.extend((pl, distance) for pl in PlacementSet(size, near & ~far, self._width))
            near, distance = far, distance + 1
        return tuple(sorted(pairs))

    def center_of_mass(self) -> SeatCoord | None:
        """Mean occupied row and seat, each rounded half-up; None if empty."""
        if self._count == 0:
            return None
        n = self._count  # round(sum / n) with ties going up, exact in integers
        return SeatCoord((2 * self._row_sum + n) // (2 * n), (2 * self._seat_sum + n) // (2 * n))

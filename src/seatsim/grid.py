"""Occupancy-grid geometry for a rectangular auditorium.

Rows are numbered 1..rows starting from the back of the hall, seats
1..cols from left to right. An arriving group claims a contiguous
horizontal run of seats in a single row (a :class:`Placement`).

Each row is stored as an int bitmask with bit ``s-1`` set when seat ``s``
is taken. Sets of same-size placements are kept the same way, one mask of
start seats per row (:class:`PlacementSet`). Free runs of k seats start
where ``f & f>>1 & ... & f>>(k-1)`` is set, ``f`` being the free seats;
growing the occupied seats by one Manhattan step at a time
(``x | x<<1 | x>>1 | row above | row below``, morphological dilation)
tells which runs lie at each distance from the nearest occupant.
"""

from __future__ import annotations

import itertools
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
        return tuple(
            SeatCoord(self.row, s)
            for s in range(self.start_seat, self.start_seat + self.size)
        )

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


def _round_half_up_ratio(numerator: int, denominator: int) -> int:
    # round(numerator/denominator) with ties going up; exact for the
    # non-negative integers that occur here.
    return (2 * numerator + denominator) // (2 * denominator)


def _seat_numbers(mask: int) -> Iterator[int]:
    """Seat numbers of the set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


_GRID_BITS = str.maketrans(".#", "01")
_GRID_CHARS = str.maketrans("01", ".#")


def mask_from_text(text: str) -> int:
    """Bitmask of a row of ``.``/``#`` text; other characters are not checked."""
    return int(text[::-1].translate(_GRID_BITS) or "0", 2)


class PlacementSet:
    """Placements of one size, as a mask of start seats per row.

    Iterates in row-major order, so ``pick`` consumes the rng exactly as
    ``options[rng.randrange(len(options))]`` over the listed placements.
    """

    __slots__ = ("size", "starts")

    def __init__(self, size: int, starts: list[int]):
        self.size = size
        self.starts = starts

    def __iter__(self) -> Iterator[Placement]:
        for r, mask in enumerate(self.starts, start=1):
            for s in _seat_numbers(mask):
                yield Placement(r, s, self.size)

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.starts)

    def __bool__(self) -> bool:
        return any(self.starts)

    def __sub__(self, other: PlacementSet) -> PlacementSet:
        return PlacementSet(self.size, [a & ~b for a, b in zip(self.starts, other.starts)])

    def closest_to(self, point: SeatCoord) -> PlacementSet:
        """The placements at the smallest Manhattan distance from ``point``,
        measured from their nearest member seat.

        Ranked per row in closed form: starts whose run covers the point's
        seat are level with it; otherwise only the nearest start on each
        side can be closest, and both tie when equally far.
        """
        row, seat = point
        lowest = max(seat - self.size, 0)  # bit of the leftmost covering start
        left_of = (1 << lowest) - 1
        covering = ((1 << seat) - 1) & ~left_of
        ranked = []
        for r, mask in enumerate(self.starts, start=1):
            nearest, gap = mask & covering, 0
            if mask and not nearest:
                sides = []
                if left := mask & left_of:
                    # The run of start s ends at seat s + size - 1.
                    s = left.bit_length()
                    sides.append((seat - s - self.size + 1, 1 << (s - 1)))
                if right := mask >> seat << seat:
                    low = right & -right
                    sides.append((low.bit_length() - seat, low))
                gap = min(sides)[0]
                nearest = sum(bit for d, bit in sides if d == gap)
            ranked.append((abs(r - row) + gap if nearest else math.inf, nearest))
        closest = min(d for d, _ in ranked)
        return PlacementSet(self.size, [m if d == closest else 0 for d, m in ranked])

    def pick(self, rng: random.Random) -> Placement:
        """The n-th placement in row-major order, ``n = rng.randrange(len(self))``."""
        n = rng.randrange(len(self))
        for r, mask in enumerate(self.starts, start=1):
            count = mask.bit_count()
            if n < count:
                for _ in range(n):
                    mask &= mask - 1
                return Placement(r, (mask & -mask).bit_length(), self.size)
            n -= count
        raise AssertionError("rank beyond the set")


class Auditorium:
    """Mutable rows x cols grid of occupied/empty seats.

    The state is one bitmask per row plus the occupant count and the sums
    of occupied row and seat numbers (for the center of mass).
    ``occupy``/``occupy_seats`` are the only mutators and only ever flip
    seats from empty to occupied. Placement and distance queries are
    computed from the masks on each call; nothing is cached.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        occupied: Iterable[tuple[int, int]] = (),
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError(f"auditorium must be at least 1x1, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._masks = [0] * rows
        self._count = 0
        self._row_sum = 0
        self._seat_sum = 0
        self.occupy_seats(occupied)

    @classmethod
    def _from_masks(cls, cols: int, masks: list[int]) -> Auditorium:
        aud = cls(len(masks), cols)
        for r, mask in enumerate(masks, start=1):
            if mask:
                aud._add(r, mask)
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
        return [
            format(mask, f"0{self.cols}b")[::-1].translate(_GRID_CHARS)
            for mask in self._masks
        ]

    def copy(self) -> Auditorium:
        return Auditorium._from_masks(self.cols, self._masks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Auditorium):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._masks == other._masks
        )

    def __repr__(self) -> str:
        return (
            f"Auditorium({self.rows}x{self.cols}, "
            f"{self._count}/{self.rows * self.cols} occupied)"
        )

    def _check_bounds(self, row: int, seat: int) -> None:
        if not (1 <= row <= self.rows and 1 <= seat <= self.cols):
            raise ValueError(
                f"seat ({row},{seat}) outside {self.rows}x{self.cols} auditorium"
            )

    def is_occupied(self, row: int, seat: int) -> bool:
        self._check_bounds(row, seat)
        return bool(self._masks[row - 1] >> (seat - 1) & 1)

    @property
    def occupied_count(self) -> int:
        return self._count

    def occupied_seats(self) -> list[SeatCoord]:
        """All occupied seats in row-major order."""
        return [
            SeatCoord(r, s)
            for r, mask in enumerate(self._masks, start=1)
            for s in _seat_numbers(mask)
        ]

    def row_mask(self, row: int) -> int:
        """Occupancy bitmask of one row; bit ``s-1`` is seat ``s``."""
        self._check_bounds(row, 1)
        return self._masks[row - 1]

    def row_occupancy(self, row: int) -> Sequence[bool]:
        """Occupancy flags of one row, left to right."""
        mask = self.row_mask(row)
        return [bool(mask >> s & 1) for s in range(self.cols)]

    def _add(self, row: int, bits: int) -> None:
        # Occupy the empty seats ``bits`` of ``row``.
        count = bits.bit_count()
        self._masks[row - 1] |= bits
        self._count += count
        self._row_sum += row * count
        self._seat_sum += sum(_seat_numbers(bits))

    def occupy(self, placement: Placement) -> None:
        """Seat a group on ``placement``; every covered seat must be empty.

        Raises :class:`SeatConflict` (leaving the grid unchanged) if any
        covered seat is already taken; a conflict here means the caller
        selected an infeasible placement.
        """
        self.occupy_seats(placement.seats())

    def occupy_seats(self, coords: Iterable[tuple[int, int]]) -> None:
        """Occupy arbitrary seats (used when replaying recorded placements)."""
        staged = [0] * self.rows
        for row, seat in coords:
            self._check_bounds(row, seat)
            bit = 1 << (seat - 1)
            if (self._masks[row - 1] | staged[row - 1]) & bit:
                raise SeatConflict(f"seat ({row},{seat}) is already occupied")
            staged[row - 1] |= bit
        for r, bits in enumerate(staged, start=1):
            if bits:
                self._add(r, bits)

    def _run_starts(self, blocked: list[int], size: int) -> list[int]:
        # Per row, the seats that start ``size`` seats clear of ``blocked``.
        if size < 1:
            raise ValueError(f"group size must be positive, got {size}")
        full = (1 << self.cols) - 1
        starts = []
        for mask in blocked:
            free = run = ~mask & full
            for shift in range(1, size):
                run &= free >> shift
            starts.append(run)
        return starts

    def _grow(self, masks: list[int]) -> list[int]:
        # One Manhattan step of dilation: each seat also covers its four
        # neighbours.
        full = (1 << self.cols) - 1
        padded = [0, *masks, 0]
        return [
            (x | x << 1 | x >> 1 | above | below) & full
            for above, x, below in zip(padded, masks, padded[2:])
        ]

    def _free(self, size: int) -> PlacementSet:
        return PlacementSet(size, self._run_starts(self._masks, size))

    def _clearances(self, size: int) -> Iterator[PlacementSet]:
        """Feasible placements clear of the occupants grown by 0, 1, 2, ...
        steps: the d-th set is those farther than d from every occupant.
        Endless; each set costs one growth step, so take only those needed.
        """
        grown = self._masks
        while True:
            yield PlacementSet(size, self._run_starts(grown, size))
            grown = self._grow(grown)

    def _farthest(self, size: int) -> PlacementSet:
        """The feasible placements farthest from every occupant; all of them
        with nobody seated."""
        clear = self._clearances(size)
        farthest = next(clear)
        for beyond in itertools.takewhile(bool, clear) if self._count else ():
            farthest = beyond
        return farthest

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
        self._check_bounds(row, start)
        self._check_bounds(row, start + size - 1)
        if not self._count:
            return math.inf
        run = ((1 << size) - 1) << (start - 1)
        grown, distance = self._masks, 0
        while not grown[row - 1] & run:
            grown, distance = self._grow(grown), distance + 1
        return distance

    def placements_with_distances(
        self, size: int
    ) -> tuple[tuple[Placement, float], ...]:
        """Feasible placements paired with their nearest-occupied distance."""
        if not self._count:
            return tuple((pl, math.inf) for pl in self._free(size))
        pairs = []
        clear = itertools.pairwise(self._clearances(size))
        for distance, (near, far) in enumerate(clear, start=1):
            if not near:
                break
            pairs.extend((pl, distance) for pl in near - far)
        return tuple(sorted(pairs))

    def center_of_mass(self) -> SeatCoord | None:
        """Mean occupied row and seat, each rounded half-up; None if empty."""
        if self._count == 0:
            return None
        return SeatCoord(
            _round_half_up_ratio(self._row_sum, self._count),
            _round_half_up_ratio(self._seat_sum, self._count),
        )

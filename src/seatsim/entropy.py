"""Dispersion score of a seating arrangement.

Within each row, count the flips between empty and occupied as the row is
read left to right; square the per-row count and sum over rows. Densely
packed arrangements score near 0, arrangements full of gaps score high.
The score is a plain integer, which keeps regression checks exact. It is
bounded by rows * (cols - 1)**2, attained when every row alternates.
"""

from __future__ import annotations

from .grid import Auditorium


class RowOutOfRange(Exception):
    """A row index outside 1..rows was requested."""


def row_transitions(aud: Auditorium, row: int) -> int:
    """Number of empty/occupied flips between adjacent seats in one row."""
    if not 1 <= row <= aud.rows:
        raise RowOutOfRange(f"row {row} outside 1..{aud.rows}")
    x = aud.row_mask(row)
    inner = (1 << (aud.cols - 1)) - 1
    return ((x ^ x >> 1) & inner).bit_count()


def entropy(aud: Auditorium) -> int:
    """Sum over rows of the squared transition count."""
    inner = (1 << (aud.cols - 1)) - 1
    return sum(((x ^ x >> 1) & inner).bit_count() ** 2 for x in aud._masks)

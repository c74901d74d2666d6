"""Dispersion score of a seating arrangement.

Within each row, count the flips between empty and occupied as the row is
read left to right; square the per-row count and sum over rows. Densely
packed arrangements score near 0, arrangements full of gaps score high.
The score is a plain integer, which keeps regression checks exact. It is
bounded by rows * (cols - 1)**2, attained when every row alternates.
"""

from __future__ import annotations

from .grid import Auditorium, _flips


class RowOutOfRange(Exception):
    """A row index outside 1..rows was requested."""


def row_transitions(aud: Auditorium, row: int) -> int:
    """Number of empty/occupied flips between adjacent seats in one row."""
    if not 1 <= row <= aud.rows:
        raise RowOutOfRange(f"row {row} outside 1..{aud.rows}")
    return _flips(aud.row_mask(row), aud.cols)


def entropy(aud: Auditorium) -> int:
    """Sum over rows of the squared transition count.

    The auditorium keeps this sum up to date as seats are taken, so the
    call costs nothing.
    """
    return aud._entropy

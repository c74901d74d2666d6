"""Histogram analyses of individual seat choices.

Each record pairs a partially seated auditorium with the single seat a
respondent picked for it. Two distance summaries are supported: distance
to the nearest seated person, and distance to the occupants' center of
mass (the latter restricted to configurations with enough distinct seated
groups for a center to be meaningful). Histograms hold raw counts;
percentages are left to consumers so the output stays exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .grid import Auditorium, Placement, SeatCoord, manhattan_distance


class EmptyInput(ValueError):
    """No records were supplied."""


class AllRecordsFiltered(ValueError):
    """The group-count filter removed every record."""


@dataclass
class ChoiceRecord:
    """One questionnaire answer: configuration shown, seat picked."""

    configuration: Auditorium
    chosen: SeatCoord
    group_count: int

    def __post_init__(self) -> None:
        self.chosen = SeatCoord(*self.chosen)
        if self.group_count < 1:
            raise ValueError(f"group_count must be >= 1, got {self.group_count}")
        if self.configuration.occupied_count == 0:
            raise ValueError("configuration has nobody seated")
        if self.configuration.is_occupied(*self.chosen):
            raise ValueError(f"chosen seat {tuple(self.chosen)} is already occupied")


@dataclass
class Histogram:
    """Occurrence counts keyed by integer distance."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def nearest_distance_histogram(records: list[ChoiceRecord]) -> Histogram:
    """Bin each record's distance from the chosen seat to the nearest occupant."""
    if not records:
        raise EmptyInput("no choice records")
    return Histogram(dict(Counter(
        rec.configuration.min_distance_to_seated(Placement(*rec.chosen, 1))
        for rec in records
    )))


def center_distance_histogram(
    records: list[ChoiceRecord], min_groups: int = 2
) -> Histogram:
    """Bin distances from the chosen seat to the occupants' center of mass.

    Records with fewer than ``min_groups`` distinct seated groups are
    dropped first; a center of mass says little when a single group is
    seated.
    """
    if not records:
        raise EmptyInput("no choice records")
    kept = [rec for rec in records if rec.group_count >= min_groups]
    if not kept:
        raise AllRecordsFiltered(
            f"no record has at least {min_groups} seated groups"
        )
    return Histogram(dict(Counter(  # a record's hall has an occupant, hence a center
        manhattan_distance(rec.chosen, rec.configuration.center_of_mass()) for rec in kept
    )))

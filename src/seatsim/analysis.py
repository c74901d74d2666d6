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

from .grid import Auditorium, Placement, SeatCoord, manhattan_distance


class EmptyInput(ValueError):
    """No records were supplied."""


class AllRecordsFiltered(ValueError):
    """The group-count filter removed every record."""


class _Record:
    """``==`` and ``repr`` over the fields named in ``_fields``, as
    ``@dataclass`` gives them: equal only to an instance of the same class,
    and unhashable, since the fields can be reassigned. A subclass writes
    its ``__init__`` out, which is faster than a loop over ``_fields``."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [
            getattr(other, name) for name in self._fields
        ]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class ChoiceRecord(_Record):
    """One questionnaire answer: configuration shown, seat picked."""

    _fields = ("configuration", "chosen", "group_count")

    def __init__(self, configuration: Auditorium, chosen: SeatCoord, group_count: int) -> None:
        self.configuration = configuration
        try:
            row, seat = chosen
        except (TypeError, ValueError):
            raise ValueError(f"chosen seat {chosen!r} is not a pair of integers") from None
        if type(row) is not int or type(seat) is not int:  # ``True`` would be written as text
            raise ValueError(f"chosen seat {(row, seat)} is not a pair of integers")
        self.chosen = SeatCoord(row, seat)
        self.group_count = group_count
        if type(group_count) is not int:
            raise ValueError(f"group_count must be an integer, got {group_count!r}")
        if group_count < 1:
            raise ValueError(f"group_count must be >= 1, got {group_count}")
        if not isinstance(configuration, Auditorium):
            raise ValueError(f"configuration must be an Auditorium, got {configuration!r}")
        if configuration.occupied_count == 0:
            raise ValueError("configuration has nobody seated")
        if configuration.is_occupied(row, seat):
            raise ValueError(f"chosen seat {(row, seat)} is already occupied")


class Histogram(_Record):
    """Occurrence counts keyed by integer distance."""

    _fields = ("counts",)

    def __init__(self, counts: dict[int, int]) -> None:
        self.counts = counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _check_records(records: list[ChoiceRecord]) -> None:
    """Raise ``ValueError`` if ``records`` is not iterable, or for the first
    of them that is not a ``ChoiceRecord``."""
    try:
        records = iter(records)
    except TypeError:
        raise ValueError(f"records must be a list of ChoiceRecords, got {records!r}") from None
    for rec in records:
        if not isinstance(rec, ChoiceRecord):
            raise ValueError(f"expected a ChoiceRecord, got {rec!r}") from None


def nearest_distance_histogram(records: list[ChoiceRecord]) -> Histogram:
    """Bin each record's distance from the chosen seat to the nearest occupant."""
    if not records:
        raise EmptyInput("no choice records")
    try:
        return Histogram(dict(Counter(
            rec.configuration.min_distance_to_seated(Placement(*rec.chosen, 1))
            for rec in records
        )))
    except (AttributeError, TypeError):
        _check_records(records)
        raise


def center_distance_histogram(
    records: list[ChoiceRecord], min_groups: int = 2
) -> Histogram:
    """Bin distances from the chosen seat to the occupants' center of mass.

    Records with fewer than ``min_groups`` distinct seated groups are
    dropped first; a center of mass says little when a single group is
    seated.
    """
    if type(min_groups) is not int:  # ``True`` would pass as 1
        raise ValueError(f"min_groups must be an integer, got {min_groups!r}")
    if not records:
        raise EmptyInput("no choice records")
    try:
        kept = [rec for rec in records if rec.group_count >= min_groups]
    except (AttributeError, TypeError):
        _check_records(records)
        raise
    if not kept:
        raise AllRecordsFiltered(f"no record has at least {min_groups} seated groups")
    return Histogram(dict(Counter(  # a record's hall has an occupant, hence a center
        manhattan_distance(rec.chosen, rec.configuration.center_of_mass()) for rec in kept
    )))

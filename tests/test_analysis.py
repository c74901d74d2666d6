from __future__ import annotations

import random

import pytest

from seatsim import (
    AllRecordsFiltered,
    Auditorium,
    ChoiceRecord,
    EmptyInput,
    SeatCoord,
    center_distance_histogram,
    manhattan_distance,
    nearest_distance_histogram,
)
from support import occupied_cells, random_auditorium


def random_record(rng: random.Random) -> ChoiceRecord:
    while True:
        aud = random_auditorium(rng, max_density=0.5)
        empties = [
            SeatCoord(r, s)
            for r in range(1, aud.rows + 1)
            for s in range(1, aud.cols + 1)
            if not aud.is_occupied(r, s)
        ]
        if aud.occupied_count == 0 or not empties:
            continue
        return ChoiceRecord(
            configuration=aud,
            chosen=empties[rng.randrange(len(empties))],
            group_count=rng.randint(1, 4),
        )


def nearest_bf(record: ChoiceRecord) -> int:
    best = None
    for r in range(1, record.configuration.rows + 1):
        for s in range(1, record.configuration.cols + 1):
            if record.configuration.is_occupied(r, s):
                d = abs(r - record.chosen.row) + abs(s - record.chosen.seat)
                if best is None or d < best:
                    best = d
    assert best is not None
    return best


class TestChoiceRecord:
    def test_rejects_occupied_choice(self):
        aud = Auditorium.from_rows([".#."])
        with pytest.raises(ValueError, match=r"chosen seat \(1, 2\) is already occupied"):
            ChoiceRecord(configuration=aud, chosen=SeatCoord(1, 2), group_count=1)

    def test_rejects_empty_configuration(self):
        with pytest.raises(ValueError, match="configuration has nobody seated"):
            ChoiceRecord(
                configuration=Auditorium(2, 2), chosen=SeatCoord(1, 1), group_count=1
            )

    def test_rejects_nonpositive_group_count(self):
        aud = Auditorium.from_rows(["#.."])
        with pytest.raises(ValueError, match="group_count must be >= 1, got 0"):
            ChoiceRecord(configuration=aud, chosen=SeatCoord(1, 3), group_count=0)

    @pytest.mark.parametrize(
        "chosen,group_count,message",
        [
            ((1, 2, 3), 1, "chosen seat (1, 2, 3) is not a pair of integers"),
            ((1,), 1, "chosen seat (1,) is not a pair of integers"),
            (5, 1, "chosen seat 5 is not a pair of integers"),
            ((1, "2"), 1, "chosen seat (1, '2') is not a pair of integers"),
            ((1.0, 2), 1, "chosen seat (1.0, 2) is not a pair of integers"),
            # ``bool`` is an ``int`` subclass, but ``True`` is written as text.
            ((1, True), 1, "chosen seat (1, True) is not a pair of integers"),
            ((1, 2), "1", "group_count must be an integer, got '1'"),
            ((1, 2), 1.0, "group_count must be an integer, got 1.0"),
            ((1, 2), True, "group_count must be an integer, got True"),
        ],
        ids=["triple", "single", "int", "str-seat", "float-row", "bool-seat",
             "str-count", "float-count", "bool-count"],
    )
    def test_rejects_what_is_not_integers_with_a_value_error(self, chosen, group_count, message):
        # Unchecked, each gives a ``TypeError`` or, for ``True``, passes as an integer.
        aud = Auditorium.from_rows(["#.."])
        with pytest.raises(ValueError) as exc_info:
            ChoiceRecord(configuration=aud, chosen=chosen, group_count=group_count)
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("configuration", [5, None, [".#."]], ids=["int", "none", "rows"])
    def test_rejects_a_configuration_that_is_not_a_hall(self, configuration):
        # Unchecked, each gives an ``AttributeError``.
        with pytest.raises(ValueError) as exc_info:
            ChoiceRecord(configuration=configuration, chosen=(1, 2), group_count=1)
        assert str(exc_info.value) == f"configuration must be an Auditorium, got {configuration!r}"


class TestNearestDistanceHistogram:
    def test_adjacent_choice_bins_at_one(self):
        aud = Auditorium.from_rows(["#.."])
        record = ChoiceRecord(configuration=aud, chosen=SeatCoord(1, 2), group_count=1)
        hist = nearest_distance_histogram([record])
        assert hist.counts == {1: 1}
        assert hist.total == 1

    def test_duplicated_records_double_every_bin(self):
        rng = random.Random(1)
        records = [random_record(rng) for _ in range(10)]
        once = nearest_distance_histogram(records)
        twice = nearest_distance_histogram(records + records)
        assert twice.counts == {d: 2 * n for d, n in once.counts.items()}

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            nearest_distance_histogram([])

    @pytest.mark.parametrize("item", [5, None, "#."], ids=["int", "none", "str"])
    def test_rejects_what_is_not_a_record(self, item):
        # Unchecked, each gives an ``AttributeError``; the error names the item, not the list.
        record = ChoiceRecord(Auditorium.from_rows(["#.."]), SeatCoord(1, 3), 1)
        with pytest.raises(ValueError) as exc_info:
            nearest_distance_histogram([record, item])
        assert str(exc_info.value) == f"expected a ChoiceRecord, got {item!r}"

    def test_rejects_records_that_are_not_iterable(self):
        # Unchecked, this gives a ``TypeError``.
        with pytest.raises(ValueError, match="^records must be a list of ChoiceRecords, got 5$"):
            nearest_distance_histogram(5)

    def test_matches_brute_force_scan(self):
        rng = random.Random(33)
        records = [random_record(rng) for _ in range(60)]
        hist = nearest_distance_histogram(records)
        expected: dict[int, int] = {}
        for record in records:
            d = nearest_bf(record)
            expected[d] = expected.get(d, 0) + 1
        assert hist.counts == expected
        assert hist.total == len(records)

    def test_merging_lists_sums_bins(self):
        rng = random.Random(8)
        a = [random_record(rng) for _ in range(15)]
        b = [random_record(rng) for _ in range(25)]
        merged = nearest_distance_histogram(a + b)
        ha, hb = nearest_distance_histogram(a), nearest_distance_histogram(b)
        keys = set(ha.counts) | set(hb.counts)
        assert merged.counts == {
            d: ha.counts.get(d, 0) + hb.counts.get(d, 0) for d in keys
        }


class TestCenterDistanceHistogram:
    def test_choice_at_center_bins_at_zero(self):
        aud = Auditorium.from_rows(["#.#", "..."])
        record = ChoiceRecord(configuration=aud, chosen=SeatCoord(1, 2), group_count=2)
        assert aud.center_of_mass() == SeatCoord(1, 2)
        hist = center_distance_histogram([record])
        assert hist.counts == {0: 1}

    def test_single_group_records_filtered_out(self):
        aud = Auditorium.from_rows(["##."])
        record = ChoiceRecord(configuration=aud, chosen=SeatCoord(1, 3), group_count=1)
        with pytest.raises(AllRecordsFiltered):
            center_distance_histogram([record], min_groups=2)

    def test_total_counts_only_passing_records(self):
        rng = random.Random(3)
        records = [random_record(rng) for _ in range(50)]
        hist = center_distance_histogram(records, min_groups=2)
        assert hist.total == sum(1 for r in records if r.group_count >= 2)

    def test_distances_measured_from_center_of_mass(self):
        rng = random.Random(44)
        records = [random_record(rng) for _ in range(40)]
        hist = center_distance_histogram(records, min_groups=3)
        expected: dict[int, int] = {}
        for record in records:
            if record.group_count < 3:
                continue
            occ = occupied_cells(record.configuration)
            n = len(occ)

            def half_up(total: int) -> int:
                return (2 * total + n) // (2 * n)

            center = SeatCoord(
                half_up(sum(c.row for c in occ)), half_up(sum(c.seat for c in occ))
            )
            d = manhattan_distance(record.chosen, center)
            expected[d] = expected.get(d, 0) + 1
        assert hist.counts == expected

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            center_distance_histogram([])

    @pytest.mark.parametrize("item", [5, None, "#."], ids=["int", "none", "str"])
    def test_rejects_what_is_not_a_record(self, item):
        # Unchecked, each gives an ``AttributeError``; the error names the item, not the list.
        record = ChoiceRecord(Auditorium.from_rows(["#.#"]), SeatCoord(1, 2), 2)
        with pytest.raises(ValueError) as exc_info:
            center_distance_histogram([record, item])
        assert str(exc_info.value) == f"expected a ChoiceRecord, got {item!r}"

    def test_rejects_records_that_are_not_iterable(self):
        with pytest.raises(ValueError, match="^records must be a list of ChoiceRecords, got 5$"):
            center_distance_histogram(5)

    @pytest.mark.parametrize("min_groups", ["2", 2.0, True, None])
    def test_min_groups_must_be_an_int(self, min_groups):
        # Unchecked, ``True`` passes as 1 and the others give a ``TypeError``.
        record = ChoiceRecord(Auditorium.from_rows(["#.#"]), SeatCoord(1, 2), 2)
        with pytest.raises(ValueError) as exc_info:
            center_distance_histogram([record], min_groups=min_groups)
        assert str(exc_info.value) == f"min_groups must be an integer, got {min_groups!r}"

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from seatsim import (
    Auditorium,
    ChoiceRecord,
    Histogram,
    LengthMismatch,
    MeanTrajectory,
    ParseError,
    Scenario,
    SeatCoord,
    ValidationError,
    emit_trajectories_csv,
    parse_choices,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from seatsim import scenario_io
from support import (
    MALFORMED_SCENARIOS,
    VALID_MINIMAL,
    chosen_by_column,
    int_field_by_column,
    seats_by_column,
    sizes_by_column,
)

ERROR_TYPES = {"ParseError": ParseError, "ValidationError": ValidationError}

# A scenario of one group of one, up to its first observed step.
_OBSERVED = "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n"


def random_scenario(rng: random.Random) -> Scenario:
    rows = rng.randint(1, 7)
    cols = rng.randint(1, 14)
    cells = [(r, s) for r in range(1, rows + 1) for s in range(1, cols + 1)]
    rng.shuffle(cells)
    take = rng.randint(0, len(cells) // 2)
    initial = tuple(cells[:take])
    remaining = cells[take:]
    arrivals = []
    observed = []
    while remaining and len(arrivals) < 5 and rng.random() < 0.7:
        size = rng.randint(1, min(3, len(remaining)))
        observed.append(tuple(remaining[:size]))
        remaining = remaining[size:]
        arrivals.append(size)
    with_observed = rng.random() < 0.5
    return Scenario(
        rows=rows,
        cols=cols,
        initial_occupancy=initial,
        arrivals=tuple(arrivals),
        observed=tuple(observed) if with_observed else None,
    )


class TestParseScenario:
    def test_minimal_document(self):
        sc = parse_scenario(VALID_MINIMAL)
        assert (sc.rows, sc.cols) == (1, 3)
        assert sc.initial_occupancy == (SeatCoord(1, 2),)
        assert sc.arrivals == ()
        assert sc.observed is None

    def test_full_document_with_comments_and_blanks(self):
        text = (
            "; seating record\n"
            "rows 2\n\n"
            "cols 4\n"
            "grid\n"
            "#..#\n"
            "....\n"
            "  ; a comment between sections\n"
            "arrivals\n"
            "2 1\n"
            "observed\n"
            "1: 2,1 2,2\n"
            "2: 1,3\n"
        )
        sc = parse_scenario(text)
        assert sc.initial_occupancy == (SeatCoord(1, 1), SeatCoord(1, 4))
        assert sc.arrivals == (2, 1)
        assert sc.observed == (
            (SeatCoord(2, 1), SeatCoord(2, 2)),
            (SeatCoord(1, 3),),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 14).flatmap(
            lambda cols: st.lists(st.text(".#", min_size=cols, max_size=cols), min_size=1, max_size=7)
        )
    )
    def test_initial_occupancy_is_the_grid_s_seats(self, grid):
        # The seats are read straight from the grid's masks, not from a hall.
        text = f"rows {len(grid)}\ncols {len(grid[0])}\ngrid\n" + "\n".join(grid) + "\narrivals\n"
        seats = list(parse_scenario(text).initial_occupancy)
        assert seats == Auditorium.from_rows(grid).occupied_seats()

    def test_duplicate_observed_seat(self):
        text = (
            "rows 1\ncols 4\ngrid\n....\narrivals\n1 1\n"
            "observed\n1: 1,2\n2: 1,2\n"
        )
        with pytest.raises(ValidationError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "label,text,error", MALFORMED_SCENARIOS, ids=[m[0] for m in MALFORMED_SCENARIOS]
    )
    def test_malformed_documents(self, label, text, error):
        with pytest.raises(ERROR_TYPES[error]):
            parse_scenario(text)

    def test_parse_error_reports_line_and_column(self):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario("rows 1\ncols 3\ngrid\n.x.\narrivals\n")
        assert exc_info.value.line == 4
        assert exc_info.value.column == 2

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("rows 1_0\n", 1, 6, "rows must be an integer, got '1_0'"),
            ("rows \u0661\n", 1, 6, "rows must be an integer, got '\u0661'"),
            ("rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1: 1,2_0\n", 8, 6,
             "seat must be an integer, got '2_0'"),
            # More digits than ``int`` reads by default (4300): the token is cut
            # to its first 40 characters, and its length is named.
            (f"rows {'9' * 4301}\n", 1, 6,
             f"rows must be an integer, got '{'9' * 40}'... (4301 characters)"),
        ],
        ids=["underscore", "non-ascii", "seat", "too-many-digits"],
    )
    def test_integer_is_ascii_digits_with_a_sign(self, text, line, column, message):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(text)
        err = exc_info.value
        assert (err.line, err.column, err.message) == (line, column, message)
        sc = parse_scenario("rows +1\ncols 3\ngrid\n...\narrivals\n+1 01\n")
        assert (sc.rows, sc.arrivals) == (1, (1, 1))

    @pytest.mark.parametrize("length, shown", [(40, 40), (41, 40), (5000, 40)])
    def test_long_tokens_are_cut_in_messages(self, length, shown):
        # An observed token of ``length`` characters that is no ``row,seat``
        # pair: quoted whole up to 40 characters, past that cut and counted.
        token = "x" * length
        text = f"rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1: {token}\n"
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(text)
        err = exc_info.value
        quoted = repr("x" * shown) + ("" if shown == length else f"... ({length} characters)")
        assert (err.line, err.column, err.message) == (8, 4, f"expected 'row,seat', got {quoted}")
        assert len(str(err)) < 110

    @pytest.mark.parametrize(
        "parser,text,line,column,what",
        [
            (parse_scenario, "rows 1\ncols {}\n", 2, 6, "cols"),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1 {}\n", 6, 3, "group size"),
            (parse_scenario, f"{_OBSERVED}{{}}: 1,1\n", 8, 1, "step number"),
            (parse_scenario, f"{_OBSERVED}1: {{}},1\n", 8, 4, "row"),
            (parse_scenario, f"{_OBSERVED}1: 1,{{}}\n", 8, 6, "seat"),
            (parse_choices, "groups {}\ngrid\n#.\nchosen 1,2\n", 1, 8, "groups"),
            (parse_choices, "groups 1\ngrid\n#.\nchosen {},2\n", 4, 8, "row"),
            (parse_choices, "groups 1\ngrid\n#.\nchosen 1,{}\n", 4, 10, "seat"),
        ],
        ids=["cols", "arrivals", "step", "observed-row", "observed-seat", "groups",
             "chosen-row", "chosen-seat"],
    )
    def test_every_integer_token_names_too_many_digits(self, parser, text, line, column, what):
        # ``int`` reads at most 4300 digits by default; the ``ValueError`` it
        # raises past that must become the token's own ``ParseError``.
        with pytest.raises(ParseError) as exc_info:
            parser(text.format("9" * 4301))
        err = exc_info.value
        message = f"{what} must be an integer, got '{'9' * 40}'... (4301 characters)"
        assert (err.line, err.column, err.message) == (line, column, message)

    def test_grid_length_error_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario("rows 1\ncols 3\ngrid\n....\narrivals\n")
        assert exc_info.value.line == 4

    @pytest.mark.parametrize(
        "text,line,expected",
        [
            ("", 1, "'rows <n>'"),
            ("; only a comment\n", 1, "'rows <n>'"),
            ("rows 2\n", 1, "'cols <n>'"),
            ("rows 2\ncols 3\n", 2, "'grid'"),
            ("rows 2\ncols 3\n; a comment after the last line\n\n", 2, "'grid'"),
            ("rows 2\ncols 3\ngrid\n", 3, "grid row 1"),
            ("rows 2\ncols 3\ngrid\n...\n", 4, "grid row 2"),
            ("rows 2\ncols 3\ngrid\n...\n...\n\n", 5, "'arrivals'"),
        ],
        ids=["empty", "comment-only", "rows", "cols", "trailing-comment", "grid", "grid-row-1",
             "grid-rows"],
    )
    def test_end_of_file_at_every_point(self, text, line, expected):
        # The file ends at its last effective line, or at line 1 when it has none.
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(text)
        err = exc_info.value
        assert (err.line, err.column, err.message) == (
            line, 1, f"unexpected end of file, expected {expected}"
        )

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("rows ows\n", 1, 6),  # the value's letters also occur in the keyword
            ("rows 1\ncols o\n", 2, 6),
        ],
        ids=["rows", "cols"],
    )
    def test_value_column_is_searched_after_the_keyword(self, text, line, column):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario(text)
        assert (exc_info.value.line, exc_info.value.column) == (line, column)


class TestRoundTrip:
    def test_parse_serialize_identity_on_random_scenarios(self):
        rng = random.Random(271828)
        for _ in range(100):
            sc = random_scenario(rng)
            validate_scenario(sc)
            assert parse_scenario(serialize_scenario(sc)) == sc

    def test_serialize_parse_gives_canonical_form(self):
        messy = (
            "; comment\n"
            "rows 2\n"
            "cols 3\n"
            "\n"
            "grid\n"
            "#..\n"
            "...\n"
            "arrivals\n"
            "1\n"
            "observed\n"
            "1: 2,2\n"
        )
        canonical = serialize_scenario(parse_scenario(messy))
        assert canonical == (
            "rows 2\ncols 3\ngrid\n#..\n...\narrivals\n1\nobserved\n1: 2,2\n"
        )
        assert serialize_scenario(parse_scenario(canonical)) == canonical

    def test_plain_seat_pairs_serialize(self):
        # Set after ``__post_init__``, the seats stay plain pairs, as
        # ``validate_scenario`` accepts them.
        sc = Scenario(2, 3, (), (1,), (((1, 1),),))
        sc.initial_occupancy, sc.observed = ((2, 3),), (((1, 2),),)
        text = serialize_scenario(sc)
        assert text == "rows 2\ncols 3\ngrid\n...\n..#\narrivals\n1\nobserved\n1: 1,2\n"
        assert parse_scenario(text) == Scenario(2, 3, ((2, 3),), (1,), (((1, 2),),))

    def test_serialize_rejects_invalid_scenarios(self):
        bad = Scenario(
            rows=1, cols=2, initial_occupancy=((1, 5),), arrivals=()
        )
        with pytest.raises(ValidationError):
            serialize_scenario(bad)


class TestValidateTypes:
    @pytest.mark.parametrize(
        "scenario,message",
        [
            (Scenario(2, 3, (), (1.5,)), "group size must be a positive integer"),
            (Scenario(2, 3, (), ("2",)), "group size must be a positive integer"),
            (Scenario(2, 3, ((1.0, 1),), ()), "initial seat"),
            (Scenario(2, 3, (), (1,), (((2, 1.0),),)), "observed seat"),
            (Scenario("2", 3, (), ()), "auditorium size must be integers"),
            (Scenario(2, 3.0, (), ()), "auditorium size must be integers"),
            # ``bool`` is an ``int`` subclass, but ``True`` is written as text.
            (Scenario(True, 3, (), (1,)), "auditorium size must be integers"),
            (Scenario(2, 3, (), (True, 2)), "group size must be a positive integer"),
            (Scenario(2, 3, ((1, True),), ()), "initial seat"),
            (Scenario(2, 3, (), (1,), (((2, True),),)), "observed seat"),
            # Seats that cannot be sorted or wrapped reach the validator as given.
            (Scenario(2, 3, ((1, 1), ("1", 2)), ()), r"initial seat \('1', 2\) is not a pair"),
            (Scenario(2, 3, ((1, 1, 1),), ()), r"initial seat \(1, 1, 1\) is not a pair"),
            # So do seat collections and arrivals that are not sequences.
            (Scenario(2, 3, 5, ()), "initial occupancy must be a sequence, got 5"),
            (Scenario(2, 3, (), 5), "arrivals must be a sequence, got 5"),
            (Scenario(2, 3, (), (1,), 5), "observed must be a sequence, got 5"),
            (Scenario(2, 3, (), (1,), (5,)), "observed step 1 must be a sequence, got 5"),
        ],
        ids=["float-size", "str-size", "float-initial-seat", "float-observed-seat",
             "str-rows", "float-cols", "bool-rows", "bool-size", "bool-initial-seat",
             "bool-observed-seat", "str-initial-seat", "triple-initial-seat",
             "int-initial", "int-arrivals", "int-observed", "int-observed-step"],
    )
    def test_non_integers_are_rejected(self, scenario, message):
        # Unchecked, each gives a TypeError, here or later in a run.
        with pytest.raises(ValidationError, match=message):
            validate_scenario(scenario)

    def test_empty_hall_is_rejected(self):
        # ``parse_scenario`` rejects it before the grid; a built one reaches the validator.
        with pytest.raises(ValidationError, match="auditorium must be at least 1x1, got 0x3"):
            validate_scenario(Scenario(0, 3, (), ()))


class TestShippedScenario:
    def test_fig1_parses_and_round_trips(self, fig1_scenario):
        assert (fig1_scenario.rows, fig1_scenario.cols) == (7, 14)
        assert len(fig1_scenario.initial_occupancy) == 7
        assert len(fig1_scenario.arrivals) == 14
        assert fig1_scenario.observed is not None
        assert len(fig1_scenario.observed) == 14
        canonical = serialize_scenario(fig1_scenario)
        assert parse_scenario(canonical) == fig1_scenario


class TestParseChoices:
    CHOICES = (
        "; two records\n"
        "groups 2\n"
        "grid\n"
        "#..#\n"
        "....\n"
        "chosen 2,2\n"
        "\n"
        "groups 1\n"
        "grid\n"
        "##..\n"
        "chosen 1,4\n"
    )

    def test_parses_records(self):
        records = parse_choices(self.CHOICES)
        assert len(records) == 2
        assert records[0].group_count == 2
        assert records[0].chosen == SeatCoord(2, 2)
        assert records[0].configuration.occupied_count == 2
        assert records[1].configuration.rows == 1

    def test_separators_and_comments(self):
        text = (
            "groups 1\n"
            "grid\n"
            "#..\n"
            "chosen 1,3\n"
            " \t \n"  # whitespace-only line: separates records
            "groups 2\n"
            "grid\n"
            "#.#\n"
            "   ; indented comment inside a record: does not split it\n"
            "...\n"
            "chosen 2,2\n"
            "\n"
            "; comment-only gap between two records\n"
            "\n"
            "groups 3\n"
            "grid\n"
            ".#\n"
            "chosen 1,1\n"
        )
        records = parse_choices(text)
        assert len(records) == 3
        assert [r.chosen for r in records] == [
            SeatCoord(1, 3), SeatCoord(2, 2), SeatCoord(1, 1)
        ]
        assert [r.configuration.to_rows() for r in records] == [
            ["#.."], ["#.#", "..."], [".#"]
        ]

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("groups s\ngrid\n#..\nchosen 1,2\n", 1, 8),
            ("groups 1\ngrid\n#..\nchosen e\n", 4, 8),
        ],
        ids=["groups", "chosen"],
    )
    def test_value_column_is_searched_after_the_keyword(self, text, line, column):
        with pytest.raises(ParseError) as exc_info:
            parse_choices(text)
        assert (exc_info.value.line, exc_info.value.column) == (line, column)

    def test_empty_file_gives_no_records(self):
        assert parse_choices("") == []
        assert parse_choices("\n; just a comment\n\n") == []

    @pytest.mark.parametrize(
        "text",
        [
            "groups 2\ngrid\n#..\n",  # missing chosen
            "groups x\ngrid\n#..\nchosen 1,2\n",  # bad count
            "grid\n#..\nchosen 1,2\n",  # missing groups
            "groups 1\ngrid\n#..\n#.\nchosen 1,2\n",  # ragged grid
            "groups 1\ngrid\n#?.\nchosen 1,2\n",  # bad character
            "groups 1\ngrid\n#..\nchosen 1;2\n",  # bad coordinate
            "groups 1_0\ngrid\n#..\nchosen 1,2\n",  # int() would read 10
            "groups 1\ngrid\n#..\nchosen 1,0_2\n",  # int() would read 2
            "groups 1\ngrid\n#..\nchosen \u0661,2\n",  # int() would read 1
        ],
    )
    def test_malformed_records(self, text):
        with pytest.raises(ParseError):
            parse_choices(text)

    def test_chosen_seat_must_be_empty(self):
        with pytest.raises(ValidationError):
            parse_choices("groups 1\ngrid\n#..\nchosen 1,1\n")

    def test_chosen_seat_must_be_in_bounds(self):
        with pytest.raises(ValidationError):
            parse_choices("groups 1\ngrid\n#..\nchosen 1,9\n")

    @pytest.mark.parametrize(
        "text,line,column,message",
        [
            ("groups 1\ngrid\n#.\nchosen 1,2\nxyz\n", 5, 1, "unexpected line 'xyz'"),
            (
                "groups 1\ngrid\n#.\nchosen 1,2\nxyz\ngroups 1\ngrid\n#.\nchosen 1,2\n", 5, 1,
                "unexpected line 'xyz'",
            ),
            ("groups 1\ngrid\nchosen 1,2\nxyz\n", 4, 1, "unexpected line 'xyz'"),
            # a grid fault before the 'chosen' line is still the first one
            (
                "groups 1\ngrid\n#x\nchosen 1,2\nxyz\n", 3, 2,
                "bad grid character 'x', expected '.' or '#'",
            ),
        ],
        ids=["end-of-file", "before-a-record", "no-grid-rows", "grid-fault-first"],
    )
    def test_line_after_chosen_is_reported_on_its_own_line(self, text, line, column, message):
        with pytest.raises(ParseError) as exc_info:
            parse_choices(text)
        err = exc_info.value
        assert (err.line, err.column, err.message) == (line, column, message)


class TestEmitTrajectoriesCsv:
    def test_single_plain_trajectory(self):
        text = emit_trajectories_csv([("real", [0, 4])])
        assert text == (
            "step,label,mean,std,min,max\n"
            "0,real,0,0,0,0\n"
            "1,real,4,0,4,4\n"
        )

    def test_rows_ordered_by_step_then_label(self):
        mt = MeanTrajectory(
            mean=[1.5, 2.5], std=[0.5, 0.5], min=[1, 2], max=[2, 3], run_count=2
        )
        text = emit_trajectories_csv([("zeta", [1, 2]), ("alpha", mt)])
        lines = text.splitlines()
        assert lines[0] == "step,label,mean,std,min,max"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", "alpha"],
            ["0", "zeta"],
            ["1", "alpha"],
            ["1", "zeta"],
        ]
        assert lines[1] == "0,alpha,1.5,0.5,1,2"

    def test_integral_floats_render_as_integers(self):
        mt = MeanTrajectory(mean=[2.0], std=[0.0], min=[2], max=[2], run_count=4)
        assert emit_trajectories_csv([("m", mt)]).splitlines()[1] == "0,m,2,0,2,2"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            emit_trajectories_csv([("a", [1, 2]), ("b", [1, 2, 3])])

    def test_deterministic_bytes(self):
        mt = MeanTrajectory(
            mean=[1 / 3, 2 / 7],
            std=[0.1234567890123, 0.0],
            min=[0, 0],
            max=[1, 1],
            run_count=9,
        )
        first = emit_trajectories_csv([("x", mt), ("real", [3, 5])])
        second = emit_trajectories_csv([("x", mt), ("real", [3, 5])])
        assert first == second
        assert "0.3333333333333333" in first


# Text for the parser fuzz tests: lines built from the formats' keywords,
# small (also non-positive) numbers, coordinates and grid characters, laid
# out either freely or along the scenario/choices skeleton with a few lines
# inserted, replaced or dropped so that the deeper checks are reached. The
# numbers also come with a sign, a leading zero, as a non-ASCII digit or
# with more digits than ``int`` reads, and tokens are also separated by
# tabs, so that lines the bulk readers decline are reached too.
_NUMBER = st.one_of(
    st.integers(-1, 5).map(str),
    st.integers(0, 5).map("+{}".format),
    st.integers(0, 5).map("0{}".format),
    st.just("\u0661"),
    st.just("9" * 4301),
)
_COORD = st.tuples(_NUMBER, _NUMBER).map(",".join)
_GRID_ROW = st.text(".#", max_size=5)
_SEP = st.sampled_from([" ", "\t", " \t "])
_LINE = st.tuples(
    st.one_of(
        st.tuples(
            st.sampled_from(["rows", "cols", "grid", "arrivals", "observed", "groups", "chosen"]),
            st.lists(st.one_of(_NUMBER, _COORD), max_size=2),
        ).map(lambda t: " ".join([t[0], *t[1]])),
        _GRID_ROW,
        st.lists(_NUMBER, min_size=1, max_size=3).map(" ".join),
        st.tuples(_NUMBER, st.lists(_COORD, max_size=3)).map(lambda t: f"{t[0]}: {' '.join(t[1])}"),
        st.text(".#,:; 0123456789x-+", max_size=8),
    ),
    _SEP,
).map(lambda t: t[0].replace(" ", t[1]))


@st.composite
def _perturbed(draw, skeleton):
    lines = draw(skeleton)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["insert", "replace", "drop"]))
        if action == "insert":
            lines.insert(at, draw(_LINE))
        elif at < len(lines):
            lines[at : at + 1] = [draw(_LINE)] if action == "replace" else []
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@st.composite
def _scenario_skeleton(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    lines = [f"rows {rows}", f"cols {cols}", "grid"]
    lines += draw(st.lists(st.text(".#", min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    sep = draw(_SEP)
    lines += ["arrivals", sep.join(draw(st.lists(_NUMBER, max_size=3)))]
    if draw(st.booleans()):
        steps = draw(st.lists(st.lists(_COORD, max_size=2), max_size=3))
        lines += ["observed", *(f"{i}:{sep}{sep.join(c)}" for i, c in enumerate(steps, start=1))]
    return lines


@st.composite
def _choices_skeleton(draw):
    lines = []
    for _ in range(draw(st.integers(1, 2))):
        cols = draw(st.integers(1, 4))
        grid = draw(st.lists(st.text(".#", min_size=cols, max_size=cols), min_size=1, max_size=3))
        lines += [f"groups {draw(_NUMBER)}", "grid", *grid, f"chosen {draw(_COORD)}", ""]
    return lines


_TEXTS = st.one_of(
    st.lists(_LINE, max_size=12).map("\n".join),
    _perturbed(_scenario_skeleton()),
    _perturbed(_choices_skeleton()),
)


class TestParserFuzz:
    """Any text makes the parsers return or raise ParseError/ValidationError."""

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_parse_scenario_raises_only_format_errors(self, text):
        try:
            parse_scenario(text)
        except (ParseError, ValidationError):
            pass

    @settings(max_examples=400, deadline=None)
    @given(_TEXTS)
    def test_parse_choices_raises_only_format_errors(self, text):
        try:
            parse_choices(text)
        except (ParseError, ValidationError):
            pass


# Tokens of the token lines: plain digits, also with leading zeros, and
# what the bulk readers leave to the column-aware code: more digits than
# ``int`` reads, a sign, an underscore, a non-ASCII digit, a letter,
# nothing, a stray comma or colon, a pair where one number goes. They are
# separated by spaces, tabs or a whitespace character that is no separator.
_DIGITS = st.one_of(st.integers(0, 60).map(str), st.integers(0, 9).map("00{}".format))
_PIECE = st.one_of(
    _DIGITS, st.sampled_from(["9" * 4301, "+1", "-2", "1_0", "\u0661", "x", "", ",", "1,2", ":"])
)


def _spaced(tokens, gap, min_size=1, max_size=4):
    """Lines of ``tokens``, each after a separator drawn from ``gap``."""
    return st.lists(st.tuples(gap, tokens), min_size=min_size, max_size=max_size).map(
        lambda pairs: "".join(g + token for g, token in pairs)
    )


# ``(text, arguments)`` of each token line: lines that are plain, and lines
# of any tokens and separators.
_STEP, _SPACES = st.integers(1, 3), st.sampled_from([" ", "  "])
_PLAIN_PAIRS = st.tuples(_DIGITS, _DIGITS).map(",".join)
_PLAIN_LINES = {
    "int-field": _spaced(_DIGITS, _SPACES, 1, 1).map(lambda text: (f"rows{text}", ("rows",))),
    "sizes": _spaced(_DIGITS, _SPACES).map(lambda text: (text, ())),
    "seats": st.one_of(
        st.tuples(_STEP, st.sampled_from(["", "0"]), _spaced(_PLAIN_PAIRS, _SPACES)).map(
            lambda t: (f"{t[1]}{t[0]}:{t[2]}", (t[0],))
        ),
        # Numbers each after a comma or a space: pairs only where they alternate.
        st.tuples(_STEP, _spaced(_DIGITS, st.sampled_from([",", " "]), 2, 6)).map(
            lambda t: (f"{t[0]}: {t[1][1:]}", (t[0],))
        ),
    ),
    "chosen": _spaced(_PLAIN_PAIRS, _SPACES, 1, 1).map(lambda text: (f"chosen{text}", ())),
}
_GAP = st.sampled_from([" ", "\t", " \t", "\xa0"])
_PAIR = st.one_of(st.tuples(_PIECE, _PIECE).map(",".join), _PIECE)
_OTHER_LINES = {
    "int-field": st.tuples(st.sampled_from(["rows", "cols", ""]), _spaced(_PIECE, _GAP)).map(
        lambda t: ("".join(t), ("rows",))
    ),
    "sizes": _spaced(_PIECE, _GAP).map(lambda text: (text, ())),
    "seats": st.tuples(
        st.none() | _PIECE, st.sampled_from([":", ""]), _spaced(_PAIR, _GAP), _STEP
    ).map(lambda t: (f"{t[3] if t[0] is None else t[0]}{t[1]}{t[2]}", (t[3],))),  # None: the step
    "chosen": st.tuples(st.sampled_from(["chosen", "chose"]), _spaced(_PAIR, _GAP)).map(
        lambda t: ("".join(t), ())
    ),
}
# Each token line's reader and the column-aware referee it must agree with.
_READERS = {
    "int-field": (scenario_io._int_field, int_field_by_column),
    "sizes": (scenario_io._sizes, sizes_by_column),
    "seats": (scenario_io._seats, seats_by_column),
    "chosen": (scenario_io._chosen, chosen_by_column),
}


def _outcome(read, *args):
    try:
        return read(*args)
    except (ParseError, ValidationError) as exc:
        return type(exc), exc.args


class TestBulkReaders:
    """Each token line has one reader, which reads the whole line at once;
    only for a line with a fault does it call the locator ``_fault``, which
    works out the columns and raises the error at its column. The reader
    gives what the column-aware referee gives."""

    @pytest.mark.parametrize("kind", list(_READERS))
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_a_line_read_in_bulk_reads_as_by_column(self, kind, data):
        reader, referee = _READERS[kind]
        text, arguments = data.draw(st.one_of(_PLAIN_LINES[kind], _OTHER_LINES[kind]))
        args = (3, text.rstrip(" \t\r"), *arguments)  # as the line reader leaves it
        fault, located = scenario_io._fault, []

        def spy(*args):
            located.append(args)
            fault(*args)
            raise AssertionError(f"the locator found no fault in {args!r}")

        with mock.patch.object(scenario_io, "_fault", spy):
            outcome = _outcome(reader, *args)
        expected = _outcome(referee, *args)
        event("located" if located else "read in bulk")
        assert outcome == expected
        read = not (type(expected) is tuple and isinstance(expected[0], type))
        assert located == [] if read else len(located) <= 1

    @pytest.mark.parametrize(
        "kind,text,args",
        [
            ("seats", "1: 1,2,3 4", (1,)),
            ("seats", "1: 1,2,+3 +4", (1,)),
            ("seats", "1: -1 2,3,4", (1,)),
            ("seats", "1: 1,2 ,3", (1,)),
            ("seats", "1: 1,,2", (1,)),
            ("seats", "1: 1,2,", (1,)),
            ("seats", "+-1: 1,2", (1,)),
            ("chosen", "chosen 1,2,+3", ()),
            ("chosen", "chosen +1", ()),
            ("int-field", "rows +-1", ("rows",)),
            ("int-field", "rows 1-", ("rows",)),
            ("sizes", "1 - 2", ()),
        ],
    )
    def test_tokens_with_two_commas_or_none_read_as_by_column(self, kind, text, args):
        # Commas and signs out of place; the first three lines have as many
        # commas as tokens, but not one in each. A signed token without a comma
        # is not all digits, so only a comma check that does not count on the
        # digits sees the second and third.
        reader, referee = _READERS[kind]
        assert _outcome(reader, 3, text, *args) == _outcome(referee, 3, text, *args)

    @pytest.mark.parametrize(
        "kind,text,args,value",
        [
            ("int-field", "rows 007", ("rows",), 7),
            ("int-field", "  rows   12", ("rows",), 12),
            ("sizes", "2 01  3", (), [2, 1, 3]),
            ("sizes", "", (), []),
            ("seats", "2: 1,2 03,4", (2,), [(1, 2), (3, 4)]),
            ("seats", "02:1,2", (2,), [(1, 2)]),
            ("seats", "2:", (2,), []),
            ("chosen", "  chosen 1,02", (), (1, 2)),
        ],
    )
    def test_plain_lines_are_read_in_bulk(self, kind, text, args, value):
        reader, _ = _READERS[kind]
        with mock.patch.object(scenario_io, "_fault", mock.Mock(side_effect=AssertionError)):
            assert reader(1, text, *args) == value

    @pytest.mark.parametrize(
        "kind,text,args,value",
        [
            ("int-field", "rows\t7", ("rows",), 7),
            ("int-field", "rows +7", ("rows",), 7),
            ("sizes", "2 +1", (), [2, 1]),
            ("seats", "1:\t1,2", (1,), [(1, 2)]),
            ("seats", "+1: 1,2", (1,), [(1, 2)]),
            ("seats", "1: 1,+2", (1,), [(1, 2)]),
            ("chosen", "chosen -1,2", (), (-1, 2)),
        ],
    )
    def test_a_sign_or_a_tab_is_read_in_bulk(self, kind, text, args, value):
        reader, _ = _READERS[kind]
        with mock.patch.object(scenario_io, "_fault", mock.Mock(side_effect=AssertionError)):
            assert reader(1, text, *args) == value


class TestGridFaultPrecedence:
    """The first faulty grid row in line order decides the error; within
    a row, a wrong length beats a bad character."""

    @pytest.mark.parametrize("parser", [parse_scenario, parse_choices], ids=["scenario", "choices"])
    @pytest.mark.parametrize(
        "grid,row,column,message",
        [
            ([".x..", ".."], 1, 2, "bad grid character 'x', expected '.' or '#'"),
            (["..", ".x.."], 1, 3, "grid row {} has 2 characters, expected 4"),
            ([".x", "...."], 1, 3, "grid row {} has 2 characters, expected 4"),
            (["....", "....."], 2, 5, "grid row {} has 5 characters, expected 4"),
            (["....", "x....", ".x"], 2, 5, "grid row {} has 5 characters, expected 4"),
            (["....", "...#", "#?.."], 3, 2, "bad grid character '?', expected '.' or '#'"),
        ],
        ids=["bad-then-short", "short-then-bad", "short-and-bad", "long", "long-and-bad", "third"],
    )
    def test_first_faulty_row_wins(self, parser, grid, row, column, message):
        if parser is parse_scenario:
            text = f"rows {len(grid)}\ncols 4\ngrid\n" + "\n".join(grid) + "\narrivals\n"
            first_line, rows_before = 4, 0
        else:
            # A choices grid takes its width from its first row, so a full
            # row of 4 seats goes first and shifts the row numbers by one.
            text = "groups 1\ngrid\n....\n" + "\n".join(grid) + "\nchosen 1,1\n"
            first_line, rows_before = 4, 1
        with pytest.raises(ParseError) as exc_info:
            parser(text)
        err = exc_info.value
        assert (err.line, err.column) == (first_line + row - 1, column)
        assert err.message == message.format(rows_before + row)

    @pytest.mark.parametrize(
        "grid,line,column,message",
        [
            ([".x.."], 4, 2, "bad grid character 'x', expected '.' or '#'"),
            (["....", "#.?."], 5, 3, "bad grid character '?', expected '.' or '#'"),
            ([".."], 4, 3, "grid row 1 has 2 characters, expected 4"),
            (["...."], 4, 1, "unexpected end of file, expected grid row 2"),
        ],
        ids=["bad-row-1", "bad-row-2", "short-row-1", "good-row-1"],
    )
    def test_fault_in_an_earlier_row_beats_end_of_file_in_the_grid(
        self, grid, line, column, message
    ):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario("rows 3\ncols 4\ngrid\n" + "\n".join(grid) + "\n")
        err = exc_info.value
        assert (err.line, err.column, err.message) == (line, column, message)


def _fault_precedence_blocks() -> list[list[str]]:
    """Every grid block of ``TestGridFaultPrecedence``."""
    tests = (TestGridFaultPrecedence.test_first_faulty_row_wins,
             TestGridFaultPrecedence.test_fault_in_an_earlier_row_beats_end_of_file_in_the_grid)
    return [case[0] for test in tests for mark in test.pytestmark
            if mark.args[0].startswith("grid,") for case in mark.args[1]]


@st.composite
def _ragged_blocks(draw) -> list[str]:
    """1-4 rows of ``.``, ``#`` and one stray character, some of them
    ``cols`` long and some of any length from 1 to 6."""
    stray = draw(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs"),
                               blacklist_characters=".#;"))
    alphabet, cols = st.sampled_from([".", "#", stray]), draw(st.integers(1, 6))
    row = st.text(alphabet, min_size=cols, max_size=cols) | st.text(alphabet, min_size=1, max_size=6)
    return draw(st.lists(row, min_size=1, max_size=4))


class TestOneGridChecker:
    """``Auditorium.from_rows`` checks a grid block as the parsers do, with
    the width taken from the first row: it accepts the same blocks, with the
    same board, and a faulty block raises at the same row and column."""

    @staticmethod
    def check(block: list[str]) -> None:
        grid = "\n".join(block)
        scenario = f"rows {len(block)}\ncols {len(block[0])}\ngrid\n{grid}\narrivals\n"
        free = [(r, s) for r, text in enumerate(block, 1) for s, c in enumerate(text, 1) if c == "."]
        row, seat = free[0] if free else (1, 1)
        choices = f"groups 1\ngrid\n{grid}\nchosen {row},{seat}\n"
        try:
            hall = Auditorium.from_rows(block)
        except ValueError as exc:
            for parser, text, first_line in ((parse_scenario, scenario, 4), (parse_choices, choices, 3)):
                with pytest.raises(ParseError) as exc_info:
                    parser(text)
                err = exc_info.value
                assert (err.line - first_line + 1, err.column) == (exc.row, exc.column)
                assert err.message == exc.message
            return
        assert parse_scenario(scenario).initial_auditorium() == hall
        if free and hall.occupied_count:
            assert parse_choices(choices)[0].configuration == hall
        else:  # the grid was read; the record has nobody seated or no free seat
            with pytest.raises(ValidationError):
                parse_choices(choices)

    @pytest.mark.parametrize("block", _fault_precedence_blocks(), ids=repr)
    def test_fault_precedence_blocks(self, block):
        self.check(block)

    @settings(max_examples=300, deadline=None)
    @given(_ragged_blocks())
    def test_ragged_blocks(self, block):
        self.check(block)


# Every line boundary of ``str.splitlines`` other than LF and CRLF.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"]


class TestLineEndings:
    """Lines end at LF only; a CR before the LF is trailing whitespace."""

    @pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=repr)
    @pytest.mark.parametrize(
        "parser,text,line",
        [
            (parse_scenario, "rows 1\ncols 4\ngrid\n..{}.\narrivals\n", 4),
            (parse_choices, "groups 1\ngrid\n..{}.\nchosen 1,1\n", 3),
        ],
        ids=["scenario", "choices"],
    )
    def test_separator_inside_a_grid_row_is_a_bad_character(self, parser, text, line, sep):
        with pytest.raises(ParseError) as exc_info:
            parser(text.format(sep))
        err = exc_info.value
        assert (err.line, err.column) == (line, 3)
        assert err.message == f"bad grid character {sep!r}, expected '.' or '#'"

    @pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=repr)
    @pytest.mark.parametrize(
        "parser,text,line,column,message",
        [
            (
                parse_scenario, "; a{}b\nrows 1\ncols 3\ngrid\n.x.\narrivals\n", 5, 2,
                "bad grid character 'x', expected '.' or '#'",
            ),
            (
                parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1 2\n; a{}b\nbogus\n", 8, 1,
                "unexpected line 'bogus'",
            ),
            (
                parse_choices, "; a{}b\ngroups 1\ngrid\n.x\nchosen 1,1\n", 4, 2,
                "bad grid character 'x', expected '.' or '#'",
            ),
            (
                parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n; a{}b\n\ngroups x\ngrid\n#.\nchosen 1,2\n", 7, 8,
                "groups must be an integer, got 'x'",
            ),
        ],
        ids=["scenario-comment", "scenario-arrivals", "choices-comment", "choices-later-record"],
    )
    def test_separator_does_not_shift_later_line_numbers(
        self, parser, text, line, column, message, sep
    ):
        with pytest.raises(ParseError) as exc_info:
            parser(text.format(sep))
        err = exc_info.value
        assert (err.line, err.column, err.message) == (line, column, message)

    def test_crlf_scenario_parses_as_lf(self):
        text = "rows 2\ncols 3\ngrid\n#..\n..#\narrivals\n1 1\nobserved\n1: 1,2\n2: 2,2\n"
        assert parse_scenario(text.replace("\n", "\r\n")) == parse_scenario(text)
        with pytest.raises(ParseError) as exc_info:
            parse_scenario("rows 1\r\ncols 3\r\ngrid\r\n.x.\r\narrivals\r\n")
        assert (exc_info.value.line, exc_info.value.column) == (4, 2)

    def test_crlf_choices_parse_as_lf(self):
        text = TestParseChoices.CHOICES
        crlf = parse_choices(text.replace("\n", "\r\n"))
        assert [(r.configuration, r.chosen, r.group_count) for r in crlf] == [
            (r.configuration, r.chosen, r.group_count) for r in parse_choices(text)
        ]
        with pytest.raises(ParseError) as exc_info:
            parse_choices("groups 1\r\ngrid\r\n..\r\n.x\r\nchosen 1,1\r\n")
        assert (exc_info.value.line, exc_info.value.column) == (4, 2)


class TestCommentsKeepLineNumbers:
    """Choice records with comments before and inside them, CRLF line ends
    and trailing tabs: each fault names the line it is on in the file."""

    LINES = [
        "; two records, a comment before them",  # line 1
        "",
        "groups 2",  # line 3
        "grid",
        "#..#",
        "  ; a comment inside the record",  # line 6
        "....",
        "chosen 2,2",  # line 8
        "",
        "; a comment between the records",  # line 10
        "groups 1",
        "grid",
        "##..",
        "chosen 1,4",  # line 14
    ]

    @staticmethod
    def _text(lines):
        return "".join(line + "\t\r\n" for line in lines)

    def test_messy_file_parses_as_the_plain_one(self):
        plain = "groups 2\ngrid\n#..#\n....\nchosen 2,2\n\ngroups 1\ngrid\n##..\nchosen 1,4\n"
        messy = parse_choices(self._text(self.LINES))
        assert [(r.configuration, r.chosen, r.group_count) for r in messy] == [
            (r.configuration, r.chosen, r.group_count) for r in parse_choices(plain)
        ]

    @pytest.mark.parametrize(
        "edits,line,column,message",
        [
            ({7: "..x."}, 7, 3, "bad grid character 'x', expected '.' or '#'"),
            ({8: "chosen 2;2"}, 8, 8, "expected 'row,seat', got '2;2'"),
            ({9: "; a comment after 'chosen'\t\r\nxyz"}, 10, 1, "unexpected line 'xyz'"),
            ({7: "..."}, 7, 4, "grid row 2 has 3 characters, expected 4"),
        ],
        ids=["grid-row", "chosen-token", "line-after-chosen", "ragged-row"],
    )
    def test_parse_error_names_its_line(self, edits, line, column, message):
        lines = [edits.get(number, text) for number, text in enumerate(self.LINES, start=1)]
        with pytest.raises(ParseError) as exc_info:
            parse_choices(self._text(lines))
        err = exc_info.value
        assert (err.line, err.column, err.message) == (line, column, message)

    @pytest.mark.parametrize(
        "number,chosen,prefix",
        [(8, "chosen 1,1", "line 3: "), (14, "chosen 1,2", "line 11: ")],
        ids=["first-record", "second-record"],
    )
    def test_validation_error_names_the_groups_line(self, number, chosen, prefix):
        lines = list(self.LINES)
        lines[number - 1] = chosen
        seat = chosen.split()[1].replace(",", ", ")
        with pytest.raises(ValidationError) as exc_info:
            parse_choices(self._text(lines))
        assert str(exc_info.value) == f"{prefix}chosen seat ({seat}) is already occupied"


# Whitespace that is neither a token separator (space, tab) nor a line end.
_NOT_SEPARATORS = _NOT_LINE_ENDS + ["\x1f", "\xa0", "\u2003", "\u3000"]


class TestTokenSeparators:
    """Tokens are separated by spaces and tabs only; any other whitespace
    character outside a comment is a ParseError at its column."""

    @pytest.mark.parametrize("char", _NOT_SEPARATORS, ids=repr)
    @pytest.mark.parametrize(
        "parser,text,line,column",
        [
            (parse_scenario, "rows{}1\ncols 3\ngrid\n...\narrivals\n", 1, 5),
            (parse_scenario, "rows 1\ncols 3\n{}grid\n...\narrivals\n", 3, 1),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1 {}1\n", 6, 3),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved{}x\n1: 1,1\n", 7, 9),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n{}1: 1,1\n", 8, 1),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1\nobserved\n1:\t1,{}1\n", 8, 6),
            (parse_choices, "groups{}1\ngrid\n#.\nchosen 1,2\n", 1, 7),
            (parse_choices, "groups 1\ngrid{}\tx\n#.\nchosen 1,2\n", 2, 5),
            (parse_choices, "groups 1\ngrid\n#.\nchosen {}1,2\n", 4, 8),
            (
                parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n\n{}groups 1\ngrid\n#.\nchosen 1,2\n",
                6, 1,
            ),
        ],
        ids=[
            "rows", "grid", "arrivals", "observed", "observed-step", "observed-seat",
            "groups", "choices-grid", "chosen", "choices-later-record",
        ],
    )
    def test_other_whitespace_is_an_error_at_its_column(self, parser, text, line, column, char):
        with pytest.raises(ParseError) as exc_info:
            parser(text.format(char))
        err = exc_info.value
        assert (err.line, err.column) == (line, column)
        assert err.message == (
            f"unexpected whitespace {char!r}; tokens are separated by spaces and tabs"
        )

    def test_spaces_and_tabs_separate_tokens(self):
        text = "rows 1\ncols 3\ngrid\n...\narrivals\n1 1\nobserved\n1: 1,1\n2: 1,3\n"
        tabbed = text.replace(" ", "\t \t").replace("\n", " \t\n")
        assert parse_scenario(tabbed) == parse_scenario(text)
        (record,) = parse_choices("\tgroups\t1 \ngrid\t\n#.\n chosen\t1,2\t\n")
        assert (record.group_count, record.chosen) == (1, SeatCoord(1, 2))

    @pytest.mark.parametrize("char", [c for c in _NOT_SEPARATORS if c != "\r"], ids=repr)
    @pytest.mark.parametrize(
        "parser,text,line",
        [
            (parse_scenario, "rows 1\ncols 3\n{}\ngrid\n...\narrivals\n", 3),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1\n{}\nobserved\n1: 1,1\n", 7),
            (parse_scenario, "rows 1\ncols 3\ngrid\n...\narrivals\n1\n{}\n", 7),
            (parse_choices, "{}\ngroups 1\ngrid\n#.\nchosen 1,2\n", 1),
            (parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n{}\ngroups 1\ngrid\n#.\nchosen 1,2\n", 5),
            (parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n\n{}\n\ngroups 1\ngrid\n#.\nchosen 1,2\n", 6),
            (parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n{}\n", 5),
            (parse_choices, "groups 1\ngrid\n#.\nchosen 1,2\n\n{}\n", 6),
        ],
        ids=[
            "scenario-between-sections", "scenario-before-observed", "scenario-end",
            "choices-start", "choices-between-records", "choices-between-blank-lines",
            "choices-end", "choices-end-after-blank-line",
        ],
    )
    def test_line_of_only_other_whitespace_is_an_error(self, parser, text, line, char):
        # Such a line is not blank: it neither separates records nor is skipped.
        with pytest.raises(ParseError) as exc_info:
            parser(text.format(char))
        err = exc_info.value
        assert (err.line, err.column) == (line, 1)
        assert err.message == (
            f"unexpected whitespace {char!r}; tokens are separated by spaces and tabs"
        )

    def test_line_of_only_a_cr_is_blank(self):
        two = "groups 1\ngrid\n#.\nchosen 1,2\n\r\ngroups 1\ngrid\n.#\nchosen 1,1\n\r\n"
        assert [r.chosen for r in parse_choices(two)] == [SeatCoord(1, 2), SeatCoord(1, 1)]
        text = "rows 1\ncols 3\ngrid\n...\narrivals\n1\n"
        assert parse_scenario(text + "\r\n") == parse_scenario(text)


_HALL = Auditorium.from_rows(["#.."])  # read by the records below, never written

# Each record class, its fields in order, positional values and the repr they give.
_RECORDS = {
    "Scenario": (
        Scenario, ("rows", "cols", "initial_occupancy", "arrivals", "observed"),
        (2, 3, ((2, 1), (1, 3)), (1, 2), (((1, 1),), ((2, 2), (2, 3)))),
        "Scenario(rows=2, cols=3, initial_occupancy=(SeatCoord(row=1, seat=3), "
        "SeatCoord(row=2, seat=1)), arrivals=(1, 2), observed=((SeatCoord(row=1, seat=1),), "
        "(SeatCoord(row=2, seat=2), SeatCoord(row=2, seat=3))))",
    ),
    "MeanTrajectory": (
        MeanTrajectory, ("mean", "std", "min", "max", "run_count"),
        ([0.0, 1.5], [0.0, 0.5], [0, 1], [0, 2], 2),
        "MeanTrajectory(mean=[0.0, 1.5], std=[0.0, 0.5], min=[0, 1], max=[0, 2], run_count=2)",
    ),
    "ChoiceRecord": (
        ChoiceRecord, ("configuration", "chosen", "group_count"), (_HALL, (1, 3), 2),
        "ChoiceRecord(configuration=Auditorium(1x3, 1/3 occupied), "
        "chosen=SeatCoord(row=1, seat=3), group_count=2)",
    ),
    "Histogram": (Histogram, ("counts",), ({2: 1, 3: 4},), "Histogram(counts={2: 1, 3: 4})"),
}


@pytest.mark.parametrize("name", list(_RECORDS))
class TestRecordClasses:
    """The plain record classes behave as the dataclasses they replaced."""

    def test_repr(self, name):
        cls, _, values, text = _RECORDS[name]
        assert repr(cls(*values)) == text

    def test_positional_and_keyword_construction_agree(self, name):
        cls, fields, values, _ = _RECORDS[name]
        by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        assert [getattr(by_position, field) for field in fields] == [
            getattr(by_keyword, field) for field in fields
        ]
        assert list(vars(by_position)) == list(fields)  # plain attributes, in field order

    def test_equality_is_field_by_field(self, name):
        cls, fields, values, _ = _RECORDS[name]
        record, other = cls(*values), cls(*values)
        assert record == other and not record != other
        setattr(other, fields[-1], "changed")
        assert record != other

    def test_an_instance_of_another_class_is_never_equal(self, name):
        cls, fields, values, _ = _RECORDS[name]
        record = cls(*values)
        twin = type(f"Sub{name}", (cls,), {})(*values)  # same fields, a subclass
        assert record.__eq__(twin) is NotImplemented
        assert record != twin and twin != record
        assert record != tuple(getattr(record, field) for field in fields)

    def test_is_not_hashable(self, name):
        cls, _, values, _ = _RECORDS[name]
        with pytest.raises(TypeError, match="unhashable type"):
            hash(cls(*values))


class TestRecordConstruction:
    def test_scenario_observed_defaults_to_none(self):
        assert Scenario(2, 3, (), (1,)).observed is None
        assert Scenario(2, 3, (), (1,)) == Scenario(2, 3, (), (1,), None)

    @pytest.mark.parametrize(
        "before,inside", [("", ""), ("; before\n", ""), ("", "; inside\n")],
        ids=["no-comment", "comment-before", "comment-inside"],
    )
    @pytest.mark.parametrize(
        "record,message",
        [
            ("groups 0\ngrid\n#..\nchosen 1,3\n", "group_count must be >= 1, got 0"),
            ("groups 1\ngrid\n...\nchosen 1,3\n", "configuration has nobody seated"),
            ("groups 1\ngrid\n#..\nchosen 1,1\n", "chosen seat (1, 1) is already occupied"),
        ],
        ids=["group-count", "nobody-seated", "occupied"],
    )
    def test_choice_record_errors_name_the_groups_line(self, before, inside, record, message):
        record = record.replace("grid\n", "grid\n" + inside)
        text = "groups 1\ngrid\n.#\nchosen 1,1\n\n" + before + record
        with pytest.raises(ValidationError) as exc_info:
            parse_choices(text)
        assert str(exc_info.value) == f"line {7 if before else 6}: {message}"

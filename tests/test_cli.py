from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seatsim import POLICY_NAMES, ParseError, cli, parse_choices, parse_scenario, simulation
from seatsim.cli import main

SCENARIO = (
    "rows 3\n"
    "cols 6\n"
    "grid\n"
    "##....\n"
    "......\n"
    "....#.\n"
    "arrivals\n"
    "2 1\n"
    "observed\n"
    "1: 2,4 2,5\n"
    "2: 3,1\n"
)

CHOICES = (
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


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "hall.scenario"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


@pytest.fixture
def choices_file(tmp_path):
    path = tmp_path / "answers.choices"
    path.write_text(CHOICES, encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommand:
    def test_prints_initial_entropy(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, "entropy", "--scenario", str(scenario_file))
        assert code == 0
        assert out == "5\n"  # rows ##.... (1) and ....#. (2 squared = 4)
        assert err == ""


class TestReplayCommand:
    def test_prints_real_trajectory(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, "replay", "--scenario", str(scenario_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,label,mean,std,min,max"
        assert len(lines) == 4
        assert all(line.split(",")[1] == "real" for line in lines[1:])

    def test_without_observed_block_fails(self, capsys, tmp_path):
        path = tmp_path / "bare.scenario"
        path.write_text("rows 1\ncols 3\ngrid\n.#.\narrivals\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "replay", "--scenario", str(path))
        assert code == 1
        assert "MissingObservedData" in err


class TestSimulateCommand:
    def test_single_policy_csv(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario", str(scenario_file),
            "--policy", "center",
            "--runs", "5",
            "--seed", "7",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,label,mean,std,min,max"
        labels = {line.split(",")[1] for line in lines[1:]}
        assert labels == {"center", "real"}
        assert len(lines) == 1 + 3 * 2

    def test_all_policies_include_real(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario", str(scenario_file),
            "--policy", "all",
            "--runs", "3",
        )
        assert code == 0
        labels = {line.split(",")[1] for line in out.splitlines()[1:]}
        assert labels == {"random", "max", "space", "simple", "center", "real"}

    def test_byte_identical_across_invocations_and_workers(
        self, capsys, scenario_file, tmp_path
    ):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        out_c = tmp_path / "c.csv"
        for out_path, workers in ((out_a, "1"), (out_b, "1"), (out_c, "3")):
            code, _, _ = run_cli(
                capsys,
                "simulate",
                "--scenario", str(scenario_file),
                "--policy", "all",
                "--runs", "20",
                "--seed", "42",
                "--workers", workers,
                "--out", str(out_path),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()

    def test_fig1_csv_digest_is_the_same_for_one_and_two_workers(self, capsys, fig1_path):
        digests = set()
        for workers in ("1", "2"):
            code, out, _ = run_cli(
                capsys,
                "simulate", "--scenario", str(fig1_path), "--policy", "all",
                "--runs", "200", "--seed", "0", "--workers", workers,
            )
            assert code == 0
            digests.add(hashlib.sha256(out.encode()).hexdigest())
        assert len(digests) == 1

    def test_policy_all_forks_the_pool_once(self, capsys, fig1_path, monkeypatch):
        # Five rules, one run_many call each: the first forks the one extra
        # shard's worker, and every later call of the process reuses it.
        monkeypatch.setattr(simulation, "_cpus", lambda: [0, 1])
        forked = []
        real_fork = os.fork

        def counting_fork():
            pid = real_fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        argv = ["simulate", "--scenario", str(fig1_path), "--policy", "all", "--runs", "40"]
        code, serial, _ = run_cli(capsys, *argv)
        assert (code, forked) == (0, [])
        for _ in range(2):
            assert run_cli(capsys, *argv, "--workers", "2") == (0, serial, "")
            assert len(forked) == 1

    def test_stdout_matches_out_file(self, capsys, scenario_file, tmp_path):
        out_path = tmp_path / "t.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--scenario", str(scenario_file),
            "--policy", "max",
            "--runs", "4",
            "--out", str(out_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--scenario", str(scenario_file),
            "--policy", "max",
            "--runs", "4",
        )
        assert code == 0
        assert out == out_path.read_text(encoding="utf-8")

    def test_unknown_policy_is_usage_error(self, capsys, scenario_file):
        code, _, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "greedy",
        )
        assert code == 2
        assert "invalid choice" in err

    def test_zero_runs_fails_cleanly(self, capsys, scenario_file):
        code, _, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "max",
            "--runs", "0",
        )
        assert code == 2
        assert "argument --runs: value must be at least 1, got 0" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_fails_cleanly(self, capsys, scenario_file, workers):
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "max",
            "--runs", "2", "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert f"argument --workers: value must be at least 1, got {int(workers)}" in err

    # ``int`` alone reads all of these; a number in the files may not be spelled so.
    @pytest.mark.parametrize("value", ["1_0", "\u0661\u0660", "\uff12", " 5", "5\n", "0x10", ""])
    @pytest.mark.parametrize("flag", ["--runs", "--seed", "--workers"])
    def test_integer_flags_follow_the_file_rule(self, capsys, scenario_file, flag, value):
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "max", flag, value,
        )
        assert code == 2
        assert out == ""
        assert f"error: argument {flag}: value must be an integer, got {value!r}\n" in err

    def test_flag_with_more_digits_than_int_reads_is_a_usage_error(self, capsys, scenario_file):
        value = "9" * 4301
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "max", "--runs", value,
        )
        assert (code, out) == (2, "")
        # The token is cut to its first 40 characters and its length named.
        cut = f"{'9' * 40!r}... (4301 characters)"
        assert f"error: argument --runs: value must be an integer, got {cut}\n" in err
        assert len(err) < 400

    def test_file_number_with_more_digits_than_int_reads_fails_on_one_short_line(
        self, capsys, tmp_path
    ):
        path = tmp_path / "long.scenario"
        path.write_text(f"rows {'9' * 4301}\ncols 3\ngrid\n...\narrivals\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "entropy", "--scenario", str(path))
        assert (code, out) == (1, "")
        message = f"rows must be an integer, got {'9' * 40!r}... (4301 characters)"
        assert err == f"seatsim: error: ParseError: line 1, column 6: {message}\n"

    def test_signed_flags_stay_numbers(self, capsys, scenario_file):
        # A sign is part of the rule: ``--seed -1`` and ``--runs +4`` keep working.
        outs = []
        for seed in ("-1", "18446744073709551615"):
            code, out, err = run_cli(
                capsys,
                "simulate", "--scenario", str(scenario_file), "--policy", "random",
                "--runs", "+4", "--seed", seed,
            )
            assert (code, err) == (0, "")
            outs.append(out)
        # Seeds are taken mod 2**64, so -1 and 2**64 - 1 are the same seed.
        assert outs[0] == outs[1] and outs[0].count("\n") == 1 + 3 * 2

    @pytest.mark.parametrize(
        "arrivals, policy, runs, workers, failure",
        [("2 2", "random", "2", "1", "group of 2 at step 2"),
         ("1000000000000", "all", "1000", "1", "group of 1000000000000 at step 1"),
         ("1000000000000", "all", "1000", "2", "group of 1000000000000 at step 1")],
        ids=["pairs", "wider-w1", "wider-w2"],
    )
    def test_unseatable_scenario_fails_cleanly(
        self, capsys, tmp_path, monkeypatch, arrivals, policy, runs, workers, failure
    ):
        # No run is wider than a row, so a group wider than the hall fails in
        # time bounded by the hall, on the lanes and on the run-by-run replay.
        monkeypatch.setattr(simulation, "_cpus", lambda: [0, 1])
        path = tmp_path / "tiny.scenario"
        path.write_text(f"rows 1\ncols 3\ngrid\n...\narrivals\n{arrivals}\n", encoding="utf-8")
        began = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--policy", policy,
            "--runs", runs, "--workers", workers,
        )
        assert time.perf_counter() - began < 1
        assert (code, out) == (1, "")
        assert err == f"seatsim: error: NoFeasiblePlacement: run 0: no room for a {failure}\n"

    def test_failure_in_a_worker_fails_cleanly(self, capsys, tmp_path, monkeypatch):
        # 1x3 hall, groups 1 then 2: a run fails when the first person sits
        # in the middle. Master seed 5 first fails at run 4 of 6, which the
        # second of two shards runs.
        monkeypatch.setattr(simulation, "_cpus", lambda: [0, 1])
        path = tmp_path / "tight.scenario"
        path.write_text("rows 1\ncols 3\ngrid\n...\narrivals\n1 2\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--policy", "random",
            "--runs", "6", "--seed", "5", "--workers", "2",
        )
        assert code == 1
        assert out == ""
        assert "NoFeasiblePlacement: run 4: " in err
        assert "Traceback" not in err


class TestAnalyzeCommand:
    def test_nearest_metric(self, capsys, choices_file):
        code, out, _ = run_cli(
            capsys, "analyze", "--choices", str(choices_file), "--metric", "nearest"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "distance,count"
        # record 1: chosen (2,2) nearest occupant (1,1) -> 2
        # record 2: chosen (1,4) nearest occupant (1,2) -> 2
        assert lines[1:] == ["2,2"]

    def test_center_metric_filters_single_group(self, capsys, choices_file):
        code, out, _ = run_cli(
            capsys, "analyze", "--choices", str(choices_file), "--metric", "center"
        )
        assert code == 0
        lines = out.splitlines()
        # only the two-group record survives; center of {(1,1),(1,4)} is
        # (1, round_half_up(2.5)) = (1,3); chosen (2,2) -> distance 2
        assert lines == ["distance,count", "2,1"]

    def test_min_groups_one_keeps_everything(self, capsys, choices_file):
        code, out, _ = run_cli(
            capsys,
            "analyze", "--choices", str(choices_file), "--metric", "center",
            "--min-groups", "1",
        )
        assert code == 0
        assert sum(int(line.split(",")[1]) for line in out.splitlines()[1:]) == 2

    @pytest.mark.parametrize("value", ["1_0", "\u0662", " 2"])
    def test_min_groups_follows_the_file_rule(self, capsys, choices_file, value):
        code, out, err = run_cli(
            capsys,
            "analyze", "--choices", str(choices_file), "--metric", "center",
            "--min-groups", value,
        )
        assert code == 2
        assert out == ""
        assert f"error: argument --min-groups: value must be an integer, got {value!r}\n" in err

    def test_empty_choices_file(self, capsys, tmp_path):
        path = tmp_path / "empty.choices"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "analyze", "--choices", str(path), "--metric", "nearest"
        )
        assert code == 1
        assert "EmptyInput" in err


_DATA = Path(__file__).resolve().parent.parent / "data"
_PIECES = st.tuples(
    st.sampled_from(["", " "]),
    st.sampled_from([
        "rows", "cols", "grid", "arrivals", "observed", "groups", "chosen",
        "0", "1", "-1", "2", "14", "007", "1_0", "+3", "1000000000000", "1,1", "3:", ";",
        "\t", "  ", "\r", "\n", "\x0b", "\x0c", "\xa0", "\u2028", "\ufeff",
    ]),
    st.sampled_from(["", " "]),
).map("".join)


@st.composite
def _mutated(draw, name):
    """The text of a shipped data file with 1-4 edits: a keyword, number or
    odd whitespace put into a line, or a line deleted or duplicated."""
    lines = (_DATA / name).read_text(encoding="utf-8").split("\n")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["insert", "delete", "duplicate"]))
        if action == "insert":
            cut = draw(st.integers(0, len(lines[at])))
            lines[at] = lines[at][:cut] + draw(_PIECES) + lines[at][cut:]
        elif action == "delete" and len(lines) > 1:
            del lines[at]
        else:
            lines.insert(at, lines[at])
    return "\n".join(lines)


_SCENARIO_COMMANDS = [
    *(["simulate", "--runs", "5", "--policy", policy] for policy in (*POLICY_NAMES, "all")),
    ["replay"],
    ["entropy"],
]
_CASES = st.one_of(
    st.tuples(st.sampled_from(_SCENARIO_COMMANDS), st.just("--scenario"),
              _mutated("fig1.scenario")),
    st.tuples(st.sampled_from([["analyze", "--metric", m] for m in ("nearest", "center")]),
              st.just("--choices"), _mutated("sample.choices")),
)


class TestCommandFuzz:
    """Mutated shipped inputs make every command exit 0, or exit 1 with one
    ``seatsim: error:`` line on stderr and no traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_CASES)
    def test_commands_fail_only_with_one_error_line(self, tmp_path_factory, case):
        command, flag, text = case
        path = tmp_path_factory.getbasetemp() / "mutated.txt"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, flag, str(path)])
        err = err.getvalue()
        assert code in (0, 1)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("seatsim: error: ")
            assert err.count("\n") == 1 and err.endswith("\n")
            assert "Traceback" not in err
        try:
            (parse_choices if flag == "--choices" else parse_scenario)(text)
        except ValueError as exc:  # the command fails with the parser's error
            assert err == f"seatsim: error: {type(exc).__name__}: {exc}\n"


_EVERY_COMMAND = [
    (["simulate", "--policy", "all", "--runs", "2"], "--scenario"),
    (["replay"], "--scenario"),
    (["entropy"], "--scenario"),
    (["analyze", "--metric", "nearest"], "--choices"),
]
_COMMAND_IDS = [command[0] for command, _ in _EVERY_COMMAND]


class TestReadAsStored:
    """Each command reads its file as stored: a lone CR is the parser's
    error, and so is a byte that is not UTF-8, at its line and column."""

    @pytest.mark.parametrize("command, flag", _EVERY_COMMAND, ids=_COMMAND_IDS)
    def test_lone_cr_is_the_parsers_error(self, capsys, tmp_path, command, flag):
        data, where = {
            "--scenario": (b"rows 1\rcols 3\ngrid\n...\narrivals\n1\n", "line 1, column 7"),
            "--choices": (b"groups 1\rgrid\n#..\nchosen 1,2\n", "line 1, column 9"),
        }[flag]
        path = tmp_path / "cr.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc_info:
            (parse_choices if flag == "--choices" else parse_scenario)(data.decode())
        assert str(exc_info.value).startswith(f"{where}: unexpected whitespace '\\r'")
        code, out, err = run_cli(capsys, *command, flag, str(path))
        assert (code, out) == (1, "")
        assert err == f"seatsim: error: ParseError: {exc_info.value}\n"

    @pytest.mark.parametrize("command, flag", _EVERY_COMMAND, ids=_COMMAND_IDS)
    def test_byte_not_utf8_is_a_parse_error(self, capsys, tmp_path, command, flag):
        data, where = {
            "--scenario": (b"rows 1\ncols 3\ngrid\n.\xff.\narrivals\n1\n", "line 4, column 2"),
            "--choices": (b"groups 1\ngrid\n#.\xff\nchosen 1,2\n", "line 3, column 3"),
        }[flag]
        path = tmp_path / "ff.txt"
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *command, flag, str(path))
        assert (code, out) == (1, "")
        assert err == f"seatsim: error: ParseError: {where}: invalid UTF-8 byte 0xff\n"

    def test_column_counts_characters(self, capsys, tmp_path):
        path = tmp_path / "accent.scenario"
        path.write_bytes("rows 1\n; café".encode() + b" \xfe\n")
        code, _, err = run_cli(capsys, "entropy", "--scenario", str(path))
        assert code == 1
        assert err == "seatsim: error: ParseError: line 2, column 8: invalid UTF-8 byte 0xfe\n"

    @pytest.mark.parametrize("command, flag, name", [
        (["simulate", "--policy", "all", "--runs", "20"], "--scenario", "fig1.scenario"),
        (["replay"], "--scenario", "fig1.scenario"),
        (["entropy"], "--scenario", "fig1.scenario"),
        (["analyze", "--metric", "nearest"], "--choices", "sample.choices"),
        (["analyze", "--metric", "center"], "--choices", "sample.choices"),
    ], ids=["simulate", "replay", "entropy", "nearest", "center"])
    def test_crlf_copy_prints_what_the_file_prints(self, capsys, tmp_path, command, flag, name):
        data = (_DATA / name).read_bytes()
        assert b"\r" not in data
        crlf = tmp_path / name
        crlf.write_bytes(data.replace(b"\n", b"\r\n"))
        shipped, copy = (run_cli(capsys, *command, flag, str(p)) for p in (_DATA / name, crlf))
        assert shipped[0] == 0 and shipped[1]
        assert copy == shipped


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--scenario", "/nonexistent.scenario")
        assert code == 1
        assert err == (
            "seatsim: error: FileNotFoundError: [Errno 2] No such file or directory: "
            "'/nonexistent.scenario'\n"
        )

    def test_out_in_a_missing_directory(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(scenario_file),
                                 "--policy", "random", "--runs", "1", "--out", "/nonexistent/x.csv")
        assert (code, out) == (1, "")
        assert err == (
            "seatsim: error: FileNotFoundError: [Errno 2] No such file or directory: "
            "'/nonexistent/x.csv'\n"
        )

    def test_parse_error_names_location(self, capsys, tmp_path):
        path = tmp_path / "bad.scenario"
        path.write_text("rows 1\ncols 3\ngrid\n.x.\narrivals\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "entropy", "--scenario", str(path))
        assert code == 1
        assert "line 4" in err
        assert "column 2" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "entropy")
        assert code == 2


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys, monkeypatch, tmp_path, scenario_file):
        # The parser is built on the first call and kept, a usage error
        # included; each call prints what a fresh process prints.
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        calls = [
            ["simulate", "--scenario", str(scenario_file), "--policy", "all", "--runs", "7",
             "--out", str(tmp_path / "{}.csv")],
            ["simulate", "--scenario", str(scenario_file), "--policy", "nope"],
            ["replay", "--scenario", str(scenario_file)],
            ["entropy"],
            ["simulate", "--scenario", str(scenario_file), "--policy", "center", "--runs", "4",
             "--seed", "3"],
        ]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
        codes = []
        for argv in calls:
            here = [a.format("here") for a in argv]
            fresh = [a.format("fresh") for a in argv]
            code = main(here)
            out, err = capsys.readouterr()
            done = subprocess.run(
                [sys.executable, "-m", "seatsim.cli", *fresh],
                capture_output=True, text=True, env=env, check=False,
            )
            assert (code, out, err) == (done.returncode, done.stdout, done.stderr)
            codes.append(code)
            if "--out" in argv:
                assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert codes == [0, 2, 0, 2, 0]
        assert built == [1]

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seatsim import cli, simulation
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
        assert code == 1
        assert "ValueError" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_fails_cleanly(self, capsys, scenario_file, workers):
        code, out, err = run_cli(
            capsys,
            "simulate", "--scenario", str(scenario_file), "--policy", "max",
            "--runs", "2", "--workers", workers,
        )
        assert code == 1
        assert out == ""
        assert "ValueError" in err

    def test_unseatable_scenario_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "tiny.scenario"
        path.write_text("rows 1\ncols 3\ngrid\n...\narrivals\n2 2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path), "--policy", "random",
            "--runs", "2",
        )
        assert code == 1
        assert "NoFeasiblePlacement" in err


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

    def test_empty_choices_file(self, capsys, tmp_path):
        path = tmp_path / "empty.choices"
        path.write_text("", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "analyze", "--choices", str(path), "--metric", "nearest"
        )
        assert code == 1
        assert "EmptyInput" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "entropy", "--scenario", "/nonexistent.scenario")
        assert code == 1
        assert "error" in err

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

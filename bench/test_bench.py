"""Tests of the benchmark's own parts: generator, tracer and output checks."""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from bench import checks, inputs  # noqa: E402
from bench.tracer import Tracer  # noqa: E402


def test_generator_is_deterministic_and_valid():
    from seatsim import parse_choices, parse_scenario, validate_scenario

    assert inputs.bighall_scenario(3) == inputs.bighall_scenario(3)
    assert inputs.bighall_scenario(3) != inputs.bighall_scenario(4)
    assert inputs.observed_scenarios(3, 4, 20, 40, 30) == inputs.observed_scenarios(3, 4, 20, 40, 30)
    assert inputs.choices_corpus(3, 30, 7, 14) == inputs.choices_corpus(3, 30, 7, 14)
    assert inputs.choices_corpus(3, 30, 7, 14) != inputs.choices_corpus(4, 30, 7, 14)

    hall = parse_scenario(inputs.bighall_scenario(3))
    validate_scenario(hall)
    assert (hall.rows, hall.cols, len(hall.initial_occupancy)) == (20, 40, 24)
    assert len(hall.arrivals) == 144 and sum(hall.arrivals) == 360
    for text in inputs.observed_scenarios(3, 4, 20, 40, 30):
        validate_scenario(parse_scenario(text))
    corpus, kept = inputs.choices_corpus(3, 30, 7, 14)
    records = parse_choices(corpus)
    assert len(records) == 30
    assert sum(rec.group_count >= 2 for rec in records) == kept


def _simulate_small(out: Path) -> int:
    from seatsim import cli

    return cli.main([
        "simulate", "--scenario", str(ROOT / "data" / "fig1.scenario"), "--policy", "center",
        "--runs", "3", "--seed", "0", "--out", str(out),
    ])


def test_untraced_calls_hit_originals_after_traced_run(tmp_path):
    from seatsim import analysis, cli, grid, scenario_io, simulation

    owners = (analysis, cli, grid.Auditorium, grid.Placement, scenario_io, simulation)
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    with tracer.installed():
        assert simulation.select_placement is not before[-1]["select_placement"]
        assert _simulate_small(tmp_path / "traced.csv") == 0
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["simulation.run_once"]["calls"] == 3
    assert totals["policies.select_placement.center"]["calls"] == 3 * 14
    for entry in totals.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9

    assert [dict(vars(owner)) for owner in owners] == before
    recorded = len(tracer.spans())
    assert _simulate_small(tmp_path / "plain.csv") == 0
    assert len(tracer.spans()) == recorded
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()


def test_checks_reject_one_altered_byte(tmp_path):
    from seatsim import cli

    out = tmp_path / "random.csv"
    assert cli.main([
        "simulate", "--scenario", str(ROOT / "data" / "fig1.scenario"), "--policy", "random",
        "--runs", "40", "--seed", "0", "--out", str(out),
    ]) == 0
    text = out.read_text(encoding="utf-8")
    pinned = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))["fig1"]
    scenario = checks.read_scenario((ROOT / "data" / "fig1.scenario").read_text(encoding="utf-8"))
    assert checks.check_digests({"sim.random.csv": text}, {"sim.random.csv": pinned["sim.random.csv"]}) == []
    assert checks.check_trajectory_csv(text, "random", scenario) == []
    assert checks.replay(scenario)[-1] == 231

    # The first data row is step 0 of `random`: "0,random,<entropy>,0,...".
    at = text.index("\n0,random,") + len("\n0,random,")
    altered = text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1 :]
    assert len(altered) == len(text)
    assert checks.check_digests({"sim.random.csv": altered}, {"sim.random.csv": pinned["sim.random.csv"]})
    assert checks.check_trajectory_csv(altered, "random", scenario)

"""Command-line interface.

Subcommands:
    simulate   run Monte Carlo trajectories for one policy or all five,
               appending the recorded real trajectory when available
    replay     print the recorded real trajectory as CSV
    entropy    print the entropy score of a scenario's initial grid
    analyze    print a distance histogram from a choices file

Exit codes: 0 success, 1 bad input data, 2 usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .analysis import (
    AllRecordsFiltered,
    EmptyInput,
    center_distance_histogram,
    nearest_distance_histogram,
)
from .entropy import entropy
from .grid import SeatConflict
from .policies import POLICY_NAMES, NoFeasiblePlacement
from .scenario_io import (
    LengthMismatch,
    ParseError,
    ValidationError,
    emit_trajectories_csv,
    parse_choices,
    parse_scenario,
)
from .simulation import MissingObservedData, replay_observed, run_many

_DATA_ERRORS = (
    ParseError,
    ValidationError,
    LengthMismatch,
    EmptyInput,
    AllRecordsFiltered,
    MissingObservedData,
    NoFeasiblePlacement,
    SeatConflict,
    OSError,
    ValueError,  # bad flag values surfaced by the library, e.g. --runs 0
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seatsim",
        description="Simulate seat choices in a rectangular auditorium and "
        "track the entropy of the seating pattern over time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run Monte Carlo entropy trajectories, emit CSV"
    )
    simulate.add_argument("--scenario", required=True, type=Path)
    simulate.add_argument(
        "--policy", required=True, choices=[*POLICY_NAMES, "all"],
        help="selection rule to simulate, or 'all' for every rule",
    )
    simulate.add_argument("--runs", type=int, default=1000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", type=Path, help="write CSV here instead of stdout")
    simulate.add_argument(
        "--workers", type=int, default=1,
        help="processes to share the runs (N >= 1; capped at the usable CPUs); "
        "the output is the same for any N",
    )

    replay = sub.add_parser("replay", help="print the recorded real trajectory as CSV")
    replay.add_argument("--scenario", required=True, type=Path)

    entropy_cmd = sub.add_parser(
        "entropy", help="print the entropy score of the scenario's initial grid"
    )
    entropy_cmd.add_argument("--scenario", required=True, type=Path)

    analyze = sub.add_parser("analyze", help="histogram seat-choice distances")
    analyze.add_argument("--choices", required=True, type=Path)
    analyze.add_argument("--metric", required=True, choices=["nearest", "center"])
    analyze.add_argument(
        "--min-groups", type=int, default=2,
        help="for --metric center: drop records with fewer seated groups",
    )
    return parser


def _load_scenario(path: Path):
    return parse_scenario(path.read_text(encoding="utf-8"))


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    named: list = [
        (policy, run_many(scenario, policy, args.runs, args.seed, workers=args.workers))
        for policy in policies
    ]
    if scenario.observed is not None:
        named.append(("real", replay_observed(scenario)))
    text = emit_trajectories_csv(named)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trajectory = replay_observed(_load_scenario(args.scenario))
    sys.stdout.write(emit_trajectories_csv([("real", trajectory)]))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    print(entropy(scenario.initial_auditorium()))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = parse_choices(args.choices.read_text(encoding="utf-8"))
    if args.metric == "nearest":
        histogram = nearest_distance_histogram(records)
    else:
        histogram = center_distance_histogram(records, min_groups=args.min_groups)
    print("distance,count")
    for distance in sorted(histogram.counts):
        print(f"{distance},{histogram.counts[distance]}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "replay": _cmd_replay,
    "entropy": _cmd_entropy,
    "analyze": _cmd_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        print(f"seatsim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

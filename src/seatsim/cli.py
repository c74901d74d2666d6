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
import functools
import sys
from collections.abc import Sequence

from .analysis import center_distance_histogram, nearest_distance_histogram
from .grid import entropy
from .policies import POLICY_NAMES
from .scenario_io import (
    ParseError,
    emit_trajectories_csv,
    parse_choices,
    parse_int,
    parse_scenario,
)
from .simulation import replay_observed, run_many


def _integer(text: str) -> int:
    """A flag's number, read as the file formats read one."""
    try:
        return parse_int(text, 1, 1, "value")  # the flag's text as a one-line file
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


def _count(text: str) -> int:
    """A flag's number of at least one, such as a run or worker count."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be at least 1, got {value}")
    return value


def _read(path: str) -> str:
    """The file's text as stored, so a lone CR reaches the parser; a byte
    that is not UTF-8 is a :class:`ParseError` at its line and column."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = data[: exc.start].decode("utf-8").split("\n")  # valid up to the bad byte
        message = f"invalid UTF-8 byte 0x{data[exc.start]:02x}"
        raise ParseError(len(lines), len(lines[-1]) + 1, message) from None


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
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument(
        "--policy", required=True, choices=[*POLICY_NAMES, "all"],
        help="selection rule to simulate, or 'all' for every rule",
    )
    simulate.add_argument("--runs", type=_count, default=1000)
    simulate.add_argument("--seed", type=_integer, default=0)
    simulate.add_argument("--out", help="write CSV here instead of stdout")
    simulate.add_argument(
        "--workers", type=_count, default=1,
        help="processes to share the runs (N >= 1; capped at the usable CPUs); "
        "the output is the same for any N",
    )

    replay = sub.add_parser("replay", help="print the recorded real trajectory as CSV")
    replay.add_argument("--scenario", required=True)

    entropy_cmd = sub.add_parser(
        "entropy", help="print the entropy score of the scenario's initial grid"
    )
    entropy_cmd.add_argument("--scenario", required=True)

    analyze = sub.add_parser("analyze", help="histogram seat-choice distances")
    analyze.add_argument("--choices", required=True)
    analyze.add_argument("--metric", required=True, choices=["nearest", "center"])
    analyze.add_argument(
        "--min-groups", type=_integer, default=2,
        help="for --metric center: drop records with fewer seated groups",
    )
    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    policies = list(POLICY_NAMES) if args.policy == "all" else [args.policy]
    named: list = [
        (policy, run_many(scenario, policy, args.runs, args.seed, workers=args.workers))
        for policy in policies
    ]
    if scenario.observed is not None:
        named.append(("real", replay_observed(scenario)))
    text = emit_trajectories_csv(named)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as file:
            file.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    trajectory = replay_observed(parse_scenario(_read(args.scenario)))
    sys.stdout.write(emit_trajectories_csv([("real", trajectory)]))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    print(entropy(scenario.initial_auditorium()))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    records = parse_choices(_read(args.choices))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built on the first one, not at
    import; parsing leaves it as it was, even on a usage error."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # every bad-input error is a ValueError
        print(f"seatsim: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

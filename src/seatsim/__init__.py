"""Seat-choice simulator for rectangular auditoriums.

Groups arrive one per time step and pick a contiguous run of empty seats
in a row under one of five selection rules; the entropy of the seating
pattern is tracked after every arrival and can be averaged over many
seeded runs or compared against recorded real placements.
"""

from .analysis import (
    AllRecordsFiltered,
    ChoiceRecord,
    EmptyInput,
    Histogram,
    center_distance_histogram,
    nearest_distance_histogram,
)
from .grid import (
    Auditorium,
    Placement,
    SeatConflict,
    SeatCoord,
    entropy,
    manhattan_distance,
)
from .policies import POLICY_NAMES, NoFeasiblePlacement, select_placement
from .scenario_io import (
    LengthMismatch,
    MeanTrajectory,
    ParseError,
    Scenario,
    Trajectory,
    ValidationError,
    emit_trajectories_csv,
    parse_choices,
    parse_scenario,
    serialize_scenario,
    validate_scenario,
)
from .simulation import (
    MissingObservedData,
    derive_seed,
    replay_observed,
    run_many,
    run_once,
)

__all__ = [
    "AllRecordsFiltered",
    "Auditorium",
    "ChoiceRecord",
    "EmptyInput",
    "Histogram",
    "LengthMismatch",
    "MeanTrajectory",
    "MissingObservedData",
    "NoFeasiblePlacement",
    "POLICY_NAMES",
    "ParseError",
    "Placement",
    "Scenario",
    "SeatConflict",
    "SeatCoord",
    "Trajectory",
    "ValidationError",
    "center_distance_histogram",
    "derive_seed",
    "emit_trajectories_csv",
    "entropy",
    "manhattan_distance",
    "nearest_distance_histogram",
    "parse_choices",
    "parse_scenario",
    "replay_observed",
    "run_many",
    "run_once",
    "select_placement",
    "serialize_scenario",
    "validate_scenario",
]

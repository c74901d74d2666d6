"""Seat-selection rules for arriving groups.

Five rules, each addressed by a lowercase keyword (``random``, ``max``,
``space``, ``simple``, ``center``). A rule maps (auditorium, group size,
rng) to one feasible placement; groups are greedy and never move again.
Randomness is consumed only to choose uniformly among equally good
placements, as ``options[rng.randrange(len(options))]`` over the
deterministic row-major candidate order, so a fixed seed fixes the choice.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from .grid import Auditorium, Placement, PlacementSet

#: Deterministic pseudo-random stream; construct one per simulation run.
RandomSource = random.Random


class NoFeasiblePlacement(Exception):
    """The group cannot be seated anywhere; scenarios must not get here."""

    def __init__(self, message: str, step: int | None = None, run: int | None = None):
        super().__init__(message)
        self.step = step
        self.run = run


def _or_raise(found: PlacementSet, size: int) -> PlacementSet:
    if not found:
        raise NoFeasiblePlacement(f"no room anywhere for a group of {size}")
    return found


def _clear_of(aud: Auditorium, size: int, steps: int) -> list[PlacementSet]:
    """Feasible placements farther than 0, 1, ..., ``steps`` from every occupant."""
    return list(itertools.islice(aud._clearances(size), steps + 1))


def select_random(aud: Auditorium, size: int, rng: RandomSource) -> Placement:
    """Uniform choice over every feasible placement."""
    return _or_raise(aud._free(size), size).pick(rng)


def select_max(aud: Auditorium, size: int, rng: RandomSource) -> Placement:
    """Maximize the minimum Manhattan distance to the people already seated.

    The distance of a placement is the smallest distance over its member
    seats. In an empty auditorium every placement ties at infinity.
    """
    return _or_raise(aud._farthest(size), size).pick(rng)


def select_space(aud: Auditorium, size: int, rng: RandomSource) -> Placement:
    """Seek a nearest-occupied distance between 2 and 4 inclusive.

    If no placement falls in that band, take the smallest available
    distance above 4 (an empty auditorium lands here, everything tying at
    infinity); if every placement is closer than 2, settle for any free
    spot.
    """
    # One step toward its nearest occupant brings a placement exactly one
    # closer and keeps it free, so with anyone seated every distance from
    # 1 up to the largest is taken. Nothing in the band then means nothing
    # above it either, and the band-less cases all pick among every spot.
    free, beyond1, _, _, beyond4 = _clear_of(aud, size, 4)
    return _or_raise((beyond1 - beyond4) or free, size).pick(rng)


def select_simple(aud: Auditorium, size: int, rng: RandomSource) -> Placement:
    """Uniform choice among placements with nearest-occupied distance > 2.

    Falls back to a uniform choice over all feasible placements when no
    spot keeps that much room.
    """
    free, _, roomy = _clear_of(aud, size, 2)
    return _or_raise(roomy or free, size).pick(rng)


def select_center(aud: Auditorium, size: int, rng: RandomSource) -> Placement:
    """Among placements with distance >= 2, sit closest to the center of mass.

    Candidate placements keep a nearest-occupied distance of at least 2;
    among them the ones nearest the occupants' center of mass (placement
    distance measured over member seats) tie for the choice. With no
    candidates the group sits anywhere; with nobody seated yet there is no
    center and all candidates tie.

    Finding the candidates takes one growth step of the occupants; they
    are ranked by a ball grown around the center, without listing them
    (:meth:`PlacementSet.closest_to`).
    """
    free, candidates = _clear_of(aud, size, 1)
    if not candidates:
        return _or_raise(free, size).pick(rng)
    center = aud.center_of_mass()
    if center is None:
        return candidates.pick(rng)
    return candidates.closest_to(center).pick(rng)


POLICIES: dict[str, Callable[[Auditorium, int, RandomSource], Placement]] = {
    "random": select_random,
    "max": select_max,
    "space": select_space,
    "simple": select_simple,
    "center": select_center,
}

POLICY_NAMES: tuple[str, ...] = tuple(POLICIES)


def select_placement(
    policy: str, aud: Auditorium, size: int, rng: RandomSource
) -> Placement:
    """Dispatch to the named rule; ``policy`` is one of POLICY_NAMES."""
    try:
        rule = POLICIES[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}"
        ) from None
    return rule(aud, size, rng)

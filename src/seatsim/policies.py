"""Seat-selection rules for arriving groups.

Five rules, each addressed by a lowercase keyword (``random``, ``max``,
``space``, ``simple``, ``center``). A rule maps (auditorium, group size,
rng) to one feasible placement; groups are greedy and never move again.
Randomness is consumed only to choose uniformly among equally good
placements, as ``options[rng.randrange(len(options))]`` over the
deterministic row-major candidate order, so a fixed seed fixes the choice.

Each rule is a pure start-set function of ``(aud, size)`` (``max_starts``
and so on, looked up by :func:`starts_of`) on a board of halls, a lane
each (``grid._Board``: an ``Auditorium`` or a simulation's ``LaneStack``):
an int with a bit per start seat in each lane, fall-back included, or
:class:`NoFeasiblePlacement` when some lane has no room. It tests and
merges sets per lane (``aud._covers(x)``, ``aud._or(x, y)``).
:func:`select_placement` is a named rule on one hall plus the shared draw,
``Auditorium._draw``. The occupants grown d steps (``aud._grow``) block
every seat within d of someone seated, and ``aud._run_starts`` of that
gives the placements farther than d from every occupant. A rule scans
only the distances it reads, and the bare free set (d = 0,
:func:`random_starts`) only if its own set is empty in some lane, where
``aud._or`` puts it.
"""

from __future__ import annotations

import random
from typing import Callable

from .grid import Auditorium, Placement, _Board


class NoFeasiblePlacement(ValueError):
    """The group cannot be seated anywhere; scenarios must not get here."""

    def __init__(self, message: str, step: int | None = None, run: int | None = None):
        super().__init__(message)
        self.step = step
        self.run = run


def random_starts(aud: _Board, size: int) -> int:
    """Uniform choice over every feasible placement; the other rules fall
    back to it when their own set is empty."""
    starts = aud._run_starts(aud._board, size)
    if not aud._covers(starts):
        raise NoFeasiblePlacement(f"no room anywhere for a group of {size}")
    return starts


def max_starts(aud: _Board, size: int) -> int:
    """Maximize the minimum Manhattan distance to the people already seated.

    The distance of a placement is the smallest distance over its member
    seats. In an empty auditorium every placement ties at infinity.
    """
    # Grow the occupants until no placement is clear of them (with nobody
    # seated nothing grows). Each lane takes its last non-empty set, merged
    # back from the last set only until every lane has one, then any spot.
    sets, grown = [0], aud._grow(aud._board)
    while aud._board and (beyond := aud._run_starts(grown, size)):
        sets.append(beyond)
        grown = aud._grow(grown)
    farthest = sets.pop()
    while not aud._covers(farthest):
        farthest = aud._or(farthest, sets.pop() if sets else random_starts(aud, size))
    return farthest


def space_starts(aud: _Board, size: int) -> int:
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
    near = aud._grow(aud._board)
    beyond1 = aud._run_starts(near, size)
    beyond4 = aud._run_starts(aud._grow(aud._grow(aud._grow(near))), size)
    banded = beyond1 & ~beyond4
    return banded if aud._covers(banded) else aud._or(banded, random_starts(aud, size))


def simple_starts(aud: _Board, size: int) -> int:
    """Uniform choice among placements with nearest-occupied distance > 2.

    Falls back to a uniform choice over all feasible placements when no
    spot keeps that much room.
    """
    roomy = aud._run_starts(aud._grow(aud._grow(aud._board)), size)
    return roomy if aud._covers(roomy) else aud._or(roomy, random_starts(aud, size))


def center_starts(aud: _Board, size: int) -> int:
    """Among placements with distance >= 2, sit closest to the center of mass.

    Candidate placements keep a nearest-occupied distance of at least 2;
    among them the ones nearest the occupants' center of mass (placement
    distance measured over member seats) tie for the choice. With no
    candidates the group sits anywhere; with nobody seated yet there is no
    center and all candidates tie.

    Finding the candidates takes one growth step of the occupants; they
    are ranked by a ball grown around the center, without listing them
    (``aud._closest``).
    """
    candidates = aud._run_starts(aud._grow(aud._board), size)
    if aud._board:
        candidates = aud._closest(candidates, aud._balls(size))
    return candidates if aud._covers(candidates) else aud._or(candidates, random_starts(aud, size))


_STARTS: dict[str, Callable[[_Board, int], int]] = {
    "random": random_starts,
    "max": max_starts,
    "space": space_starts,
    "simple": simple_starts,
    "center": center_starts,
}

POLICY_NAMES: tuple[str, ...] = tuple(_STARTS)


def starts_of(policy: str) -> Callable[[_Board, int], int]:
    """The start-set function of the named rule; ``policy`` is one of
    POLICY_NAMES, anything else raises ``ValueError``."""
    if policy not in _STARTS:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(POLICY_NAMES)}")
    return _STARTS[policy]


def select_placement(policy: str, aud: Auditorium, size: int, rng: random.Random) -> Placement:
    """Seat a group on one hall by the named rule: ``policy`` is one of
    POLICY_NAMES (anything else raises ``ValueError``), and the draw among
    its start set is ``Auditorium._draw``."""
    starts = _STARTS.get(policy) or starts_of(policy)  # ``starts_of`` raises
    return aud._draw(starts(aud, size), size, rng)

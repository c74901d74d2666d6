"""Span tracing of seatsim's layers from outside the package.

:class:`Tracer` replaces public functions and methods of ``seatsim`` with
thin wrappers that record a span (name, start, end, parent, thread) for
every call. Each name is patched where it is looked up at call time:
``simulation`` imports ``select_placement`` and ``entropy`` by name and
``cli`` imports ``run_many``, the parsers, the emitter and the histogram
functions by name, so those module attributes are replaced, not only the
defining ones. Grid methods are replaced on their classes. Every original
is restored when the ``installed()`` block exits.

Spans are kept in per-thread arrays while the workload runs; self time is
computed afterwards from the spans alone.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
from array import array
from time import perf_counter

RULES = ("random", "max", "space", "simple", "center")

# Spans created in a worker thread with nothing open in that thread belong
# to the span the installing thread has open (``run_many`` waiting on its
# pool); the thread slot is kept in the top bits of a span id.
_SLOT_SHIFT = 40


class _ThreadSpans:
    def __init__(self, slot: int, thread_id: int):
        self.slot = slot
        self.thread_id = thread_id
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []


class Tracer:
    """Collects spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._threads: dict[int, _ThreadSpans] = {}
        self._slots = itertools.count()
        self._owner_thread = threading.get_ident()
        self._owner: _ThreadSpans | None = None
        self.counters: dict[str, float] = {}
        self._seen: dict[str, set] = {}

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay as they are."""
        self._threads.clear()
        self._slots = itertools.count()
        self._owner = None
        self.counters.clear()
        self._seen.clear()

    # -- recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _ThreadSpans:
        tid = threading.get_ident()
        buf = self._threads.get(tid)
        if buf is None:
            buf = self._threads[tid] = _ThreadSpans(next(self._slots), tid)
            if tid == self._owner_thread:
                self._owner = buf
        return buf

    def _open(self, name_id: int) -> _ThreadSpans:
        buf = self._buffer()
        if buf.stack:
            parent = buf.stack[-1]
        elif self._owner is not None and buf is not self._owner and self._owner.stack:
            parent = self._owner.stack[-1]
        else:
            parent = -1
        buf.stack.append((buf.slot << _SLOT_SHIFT) | len(buf.starts))
        buf.names.append(name_id)
        buf.parents.append(parent)
        buf.ends.append(0.0)
        buf.starts.append(perf_counter())
        return buf

    @staticmethod
    def _close(buf: _ThreadSpans) -> None:
        end = perf_counter()
        buf.ends[buf.stack.pop() & ((1 << _SLOT_SHIFT) - 1)] = end

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, account=None):
        """``fn`` recording one span named ``name`` per call.

        ``account(args, result)`` runs after the span closes, so what it
        counts is not charged to the layer.
        """
        name_id = self._name_id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(buf)
            if account is not None:
                account(args, result)
            return result

        return traced

    def _wrap_select(self, fn):
        ids = {rule: self._name_id(f"policies.select_placement.{rule}") for rule in RULES}
        open_, close, count, seen = self._open, self._close, self.count, self._seen

        @functools.wraps(fn)
        def traced(policy, aud, size, rng):
            state = (tuple(aud.to_rows()), size)
            states = seen.setdefault(policy, set())
            if state in states:
                count(f"repeat.{policy}")
            else:
                states.add(state)
            buf = open_(ids[policy])
            try:
                return fn(policy, aud, size, rng)
            finally:
                close(buf)

        return traced

    # -- installing ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch seatsim's layers for the duration of the block."""
        from seatsim import analysis, cli, grid, scenario_io, simulation

        def text_bytes(key):
            return lambda args, result: self.count(key, len(args[0].encode()))

        def result_bytes(key):
            return lambda args, result: self.count(key, len(result.encode()))

        def candidates(args, result):
            self.count("grid.feasible_placements.candidates", len(result))

        targets = [
            (grid.Auditorium, "feasible_placements", "grid.feasible_placements", candidates),
            (grid.Auditorium, "placements_with_distances", "grid.placements_with_distances", None),
            (grid.Auditorium, "occupy", "grid.occupy", None),
            (grid.Auditorium, "center_of_mass", "grid.center_of_mass", None),
            (grid.Auditorium, "occupied_seats", "grid.occupied_seats", None),
            (grid.Placement, "min_distance_to", "grid.Placement.min_distance_to", None),
            (simulation, "entropy", "entropy.entropy", None),
            (cli, "entropy", "entropy.entropy", None),
            (simulation, "run_once", "simulation.run_once", None),
            (cli, "run_many", "simulation.run_many", None),
            (cli, "replay_observed", "simulation.replay_observed", None),
            (cli, "parse_scenario", "scenario_io.parse_scenario", text_bytes("scenario_io.parse_scenario.bytes")),
            (scenario_io, "parse_scenario", "scenario_io.parse_scenario", text_bytes("scenario_io.parse_scenario.bytes")),
            (scenario_io, "validate_scenario", "scenario_io.validate_scenario", None),
            (cli, "parse_choices", "scenario_io.parse_choices", text_bytes("scenario_io.parse_choices.bytes")),
            (scenario_io, "parse_choices", "scenario_io.parse_choices", text_bytes("scenario_io.parse_choices.bytes")),
            (scenario_io, "serialize_scenario", "scenario_io.serialize_scenario", result_bytes("scenario_io.serialize_scenario.bytes")),
            (cli, "emit_trajectories_csv", "scenario_io.emit_trajectories_csv", result_bytes("scenario_io.emit_trajectories_csv.bytes")),
            (cli, "nearest_distance_histogram", "analysis.nearest_distance_histogram", None),
            (analysis, "nearest_distance_histogram", "analysis.nearest_distance_histogram", None),
            (cli, "center_distance_histogram", "analysis.center_distance_histogram", None),
            (analysis, "center_distance_histogram", "analysis.center_distance_histogram", None),
            (cli, "main", "cli.main", None),
        ]
        self._owner_thread = threading.get_ident()
        originals = []
        try:
            for owner, attr, name, account in targets:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, account))
            original = simulation.__dict__["select_placement"]
            originals.append((simulation, "select_placement", original))
            simulation.select_placement = self._wrap_select(original)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def spans(self) -> list[tuple[int, str, float, float, int, int]]:
        """Every span as (id, name, start, end, parent id, thread id)."""
        out = []
        for buf in self._threads.values():
            base = buf.slot << _SLOT_SHIFT
            for i, (name_id, start, end, parent) in enumerate(
                zip(buf.names, buf.starts, buf.ends, buf.parents)
            ):
                out.append((base | i, self.names[name_id], start, end, parent, buf.thread_id))
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time in seconds.

        Self time is a span's duration minus the part of it covered by its
        children. Children in one thread nest and never overlap; children
        in pool threads may overlap each other, so their intervals are
        merged before they are subtracted.
        """
        spans = self.spans()
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _, _ in spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, times in seconds."""
        spans = self.spans()
        epoch = min((s[2] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\tthread\n")
            for span_id, name, start, end, parent, thread in spans:
                out.write(
                    f"{span_id}\t{name}\t{start - epoch:.9f}\t{end - epoch:.9f}\t{parent}\t{thread}\n"
                )

"""One workload session in a fresh interpreter; started by ``bench/run.py``.

    python3 -m bench.session setup <config.json>   print set-up seconds
    python3 -m bench.session run <config.json>     measure, write result file

The config names the generated input files and the workload's shape.
Set-up is timed from before ``import seatsim`` to after every input has
been parsed and validated, so nothing that ``seatsim`` imports is loaded
before the clock starts. A ``run`` repeats rounds of the workload until
``seconds`` have passed and records each round's timings; with ``trace``
set, the first half of the time runs untraced and the second half under
:class:`bench.tracer.Tracer`. After the timed rounds, a small computation
at a pinned seed is run untraced for the digest check.
"""

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

# Modules that seatsim itself might import (contextlib, io, the tracer's
# imports) are imported only after set-up has been timed.

RULES = ("random", "max", "space", "simple", "center")


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The host's speed swings by up to 2x within a second, for every process
# alike, so a fixed pure-Python loop (a scan for free runs, like the grid
# code it stands in for) runs between timed units. Its time tells how fast
# the host ran the units next to it; ``bench/run.py`` rescales by it.
_REF_GRID = [[(r * 7 + c * 3) % 5 == 0 for c in range(40)] for r in range(20)]


def reference():
    """Seconds taken by one pass of the reference loop (about 4 ms)."""
    start = perf_counter()
    total = 0
    for _ in range(15):
        for size in (1, 2, 3, 4):
            for r, row in enumerate(_REF_GRID):
                run = 0
                for s, occ in enumerate(row):
                    run = 0 if occ else run + 1
                    if run >= size:
                        total += r + s
    return perf_counter() - start


def set_up(cfg):
    """Import seatsim, parse and validate the inputs.

    Returns (set-up seconds, reference seconds just before and after,
    modules, choices texts, scenario texts).
    """
    sim_text = _read(cfg["sim_scenario"])
    corpus = [_read(path) for path in cfg["corpus"]]
    batch = json.loads(_read(cfg["batch"]))
    ref = reference()
    start = perf_counter()
    sys.path.insert(0, cfg["src"])
    from seatsim import analysis, cli, scenario_io

    scenario_io.validate_scenario(scenario_io.parse_scenario(sim_text))
    for text in corpus:
        scenario_io.parse_choices(text)
    for text in batch:
        scenario_io.validate_scenario(scenario_io.parse_scenario(text))
    setup_s = perf_counter() - start
    ref += reference()
    return setup_s, ref, (cli, scenario_io, analysis), corpus, batch


class Session:
    """The workload's rounds; the scenario batch is cut into as many
    chunks as there are choices files."""

    def __init__(self, cfg, modules, corpus, batch):
        self.cfg = cfg
        self.cli, self.io, self.analysis = modules
        self.corpus = corpus
        size = len(batch) // len(corpus)
        self.batch = [batch[i : i + size] for i in range(0, len(batch), size)]
        self.data_errors = (self.io.ParseError, self.io.ValidationError)
        self.hist_errors = (self.analysis.EmptyInput, self.analysis.AllRecordsFiltered)

    def simulate(self, scenario, rule, runs, seed, out):
        argv = [
            "simulate", "--scenario", scenario, "--policy", rule, "--runs", str(runs),
            "--seed", str(seed), "--workers", str(self.cfg["workers"]), "--out", out,
        ]
        return self.cli.main(argv)

    def round(self):
        """Run the workload once; timed units and output summaries.

        The work is cut into units of at most a few tenths of a second,
        and a reference pass runs before the first unit and after each
        one: ``units`` holds ``[kind, seconds, pass before, pass after]``.
        """
        cfg, io = self.cfg, self.io
        out = {"units": [], "attempted": 0, "failed": 0}
        refs = [reference()]

        def timed(kind, fn, *args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                out["units"].append([kind, perf_counter() - start, refs[-1]])
                refs.append(reference())
                out["units"][-1].append(refs[-1])

        runs = cfg["runs"]
        for rule in RULES:
            path = os.path.join(cfg["out_dir"], f"{rule}.csv")
            code = timed(f"sim.{rule}", self.simulate, cfg["sim_scenario"], rule, runs, cfg["seed"], path)
            out["attempted"] += runs
            out["failed"] += runs if code != 0 else 0

        totals = [0, 0]
        per_file = cfg["records"] // len(self.corpus)
        for text in self.corpus:
            out["attempted"] += per_file
            try:
                records = timed("parse_choices", io.parse_choices, text)
                nearest, center = timed("histogram", self.histograms, records)
            except self.data_errors + self.hist_errors:
                out["failed"] += per_file
                continue
            totals[0] += nearest
            totals[1] += center
        out["histogram_totals"] = totals

        serialized = []
        for chunk in self.batch:
            scenarios = timed("parse_scenario", self.parse_all, chunk)
            serialized += timed("serialize", self.serialize_all, scenarios)
        out["attempted"] += len(serialized)
        out["failed"] += serialized.count(None)

        out["csv_sha256"] = {}
        for rule in RULES:
            path = os.path.join(cfg["out_dir"], f"{rule}.csv")
            out["csv_sha256"][rule] = _sha(_read(path)) if os.path.exists(path) else None
        out["serialized_sha256"] = _sha(json.dumps(serialized))
        self.serialized = serialized
        return out

    def histograms(self, records):
        return (
            self.analysis.nearest_distance_histogram(records).total,
            self.analysis.center_distance_histogram(records, min_groups=2).total,
        )

    def parse_all(self, texts):
        scenarios = []
        for text in texts:
            try:
                scenarios.append(self.io.parse_scenario(text))
            except self.data_errors:
                scenarios.append(None)
        return scenarios

    def serialize_all(self, scenarios):
        texts = []
        for scenario in scenarios:
            if scenario is None:
                texts.append(None)
                continue
            try:
                self.io.validate_scenario(scenario)
                texts.append(self.io.serialize_scenario(scenario))
            except self.data_errors:
                texts.append(None)
        return texts

    def golden(self):
        """Outputs at the pinned seed, for the digest check; written to files."""
        import contextlib
        import io as text_io

        g = self.cfg["golden"]
        outputs = {}
        for rule in RULES:
            path = os.path.join(g["out_dir"], f"sim.{rule}.csv")
            self.simulate(g["sim_scenario"], rule, g["runs"], 0, path)
            outputs[f"sim.{rule}.csv"] = path
        for metric in ("nearest", "center"):
            buffer = text_io.StringIO()
            with contextlib.redirect_stdout(buffer):
                self.cli.main(["analyze", "--choices", g["corpus"][0], "--metric", metric])
            path = os.path.join(g["out_dir"], f"analyze.{metric}.txt")
            with open(path, "w", encoding="utf-8", newline="\n") as f:
                f.write(buffer.getvalue())
            outputs[f"analyze.{metric}.txt"] = path
        serialized = [
            self.io.serialize_scenario(self.io.parse_scenario(text))
            for text in json.loads(_read(g["batch"]))
        ]
        path = os.path.join(g["out_dir"], "serialize.batch.json")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(json.dumps(serialized))
        outputs["serialize.batch.json"] = path
        return outputs


def _traced_round(session, tracer):
    """One round under the tracer; per-layer totals and counters."""
    tracer.reset()
    with tracer.installed():
        result = session.round()
    result["layers"] = tracer.layer_totals()
    result["counters"] = dict(tracer.counters)
    return result


def run(cfg):
    setup_s, setup_ref_s, modules, corpus, batch = set_up(cfg)
    session = Session(cfg, modules, corpus, batch)
    start = perf_counter()
    traced_from = start + cfg["seconds"] / 2 if cfg["trace"] else None
    deadline = start + cfg["seconds"]
    rounds, traced = [], []
    tracer = None
    while True:
        if traced_from is not None and rounds and perf_counter() >= traced_from:
            from bench.tracer import Tracer

            tracer = tracer or Tracer()
            traced.append(_traced_round(session, tracer))
        else:
            rounds.append(session.round())
        if perf_counter() >= deadline and (traced or traced_from is None):
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write_spans(cfg["spans"])
    with open(os.path.join(cfg["out_dir"], "serialized.json"), "w", encoding="utf-8") as f:
        json.dump(session.serialized, f)
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_kib": peak_rss_kib,
        "rounds": rounds,
        "traced": traced,
        "golden": session.golden(),
    }
    with open(cfg["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


def main(argv):
    mode, config_path = argv
    cfg = json.loads(_read(config_path))
    if mode == "setup":
        print(json.dumps(set_up(cfg)[:2]))
    elif mode == "run":
        run(cfg)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])

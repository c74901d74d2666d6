"""seatsim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated here
from ``--seed``; the workload runs in fresh interpreters
(``bench/session.py``); the outputs are checked against pinned digests
and recomputed invariants (``bench/checks.py``). The last line of stdout
is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer ones (``--trace 1``). ``bench/README.md`` describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import checks, inputs  # noqa: E402

RULES = ("random", "max", "space", "simple", "center")

# sim: the simulated scenario; rows x cols: the hall of the choice records
# and of the recorded-arrival scenarios, which have `steps` steps each.
# size: per round, Monte Carlo runs per rule, records and scenarios, the
# last two split into `files` equal parts that are timed one by one.
# golden: the size of the seed-0 computation whose digests are pinned
# under `pins` in golden.json.
WORKLOADS = {
    "fig1": {
        "sim": "fig1", "workers": 1, "rows": 7, "cols": 14, "steps": 14, "pins": "fig1",
        "size": {"runs": 100, "records": 1200, "scenarios": 120, "files": 1},
        "golden": {"runs": 40, "records": 100, "scenarios": 5, "files": 1},
    },
    "bighall": {
        "sim": "bighall", "workers": 1, "rows": 20, "cols": 40, "steps": 30, "pins": "bighall",
        "size": {"runs": 2, "records": 100, "scenarios": 20, "files": 2},
        "golden": {"runs": 1, "records": 50, "scenarios": 3, "files": 1},
    },
    "io": {
        "sim": "fig1", "workers": 1, "rows": 20, "cols": 40, "steps": 30, "pins": "io",
        "size": {"runs": 40, "records": 2000, "scenarios": 200, "files": 16},
        "golden": {"runs": 10, "records": 200, "scenarios": 10, "files": 1},
    },
}
# Checked against fig1's digests: the worker count must not change output.
WORKLOADS["fig1-w2"] = {**WORKLOADS["fig1"], "workers": 2}

SETUP_PROBES = 4
RUN_LIMIT_S = 170
# Rescaled times are expressed at the host speed at which one reference
# pass takes this long: the median pass on the 2-core Xeon VM where the
# baselines were measured.
REF_PASS_S = 0.0043


def generate(spec: dict, seed: int, size: dict, where: Path):
    """Write one set of workload inputs of ``size`` under ``where``.

    Returns the session's config entries for them, and what the checks
    expect: the input texts and the number of records with >= 2 groups.
    """
    where.mkdir(parents=True)
    if spec["sim"] == "fig1":
        sim_text = (ROOT / "data" / "fig1.scenario").read_text(encoding="utf-8")
    else:
        sim_text = inputs.bighall_scenario(seed)
    records = size["records"]
    corpus, kept = inputs.choices_corpus(seed, records, spec["rows"], spec["cols"])
    blocks = corpus.rstrip("\n").split("\n\n")
    per_file = records // size["files"]
    parts = ["\n\n".join(blocks[i : i + per_file]) + "\n" for i in range(0, records, per_file)]
    batch = inputs.observed_scenarios(seed, size["scenarios"], spec["rows"], spec["cols"], spec["steps"])
    texts = {"sim_scenario": sim_text, "batch": json.dumps(batch)}
    texts.update((f"corpus.{i}", part) for i, part in enumerate(parts))
    for name, text in texts.items():
        (where / name).write_text(text, encoding="utf-8", newline="\n")
    out_dir = where / "out"
    out_dir.mkdir()
    config = {
        "sim_scenario": str(where / "sim_scenario"), "batch": str(where / "batch"),
        "corpus": [str(where / f"corpus.{i}") for i in range(len(parts))],
        "runs": size["runs"], "records": records, "out_dir": str(out_dir),
    }
    expect = {"texts": texts, "corpus": corpus, "batch": batch, "records": records, "kept": kept}
    return config, expect


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    try:
        ref = head.read_text().strip()
        sha = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu, "seed": seed, "src_lines": src_lines,
    }


def child(mode: str, config: Path, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench.session", mode, str(config)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def _read(path: Path) -> str:
    """The file's text; empty when the program did not write it."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return ""


def verify(workload: str, cfg: dict, expect: dict, result: dict, serialized: list):
    """Every correctness problem found, and the golden digests computed."""
    spec = WORKLOADS[workload]
    problems = []
    scenario = checks.read_scenario(expect["texts"]["sim_scenario"])
    if spec["sim"] == "fig1" and checks.replay(scenario)[-1] != 231:
        problems.append("fig1 replay does not end at 231")
    rounds = result["rounds"] + result["traced"]
    for rule in RULES:
        problems += checks.check_trajectory_csv(_read(Path(cfg["out_dir"], f"{rule}.csv")), rule, scenario)
        if len({r["csv_sha256"][rule] for r in rounds}) != 1:
            problems.append(f"{rule}: CSV bytes differ between rounds of one seed")
    totals = [expect["records"], expect["kept"]]
    if any(r["histogram_totals"] != totals for r in rounds):
        problems.append(f"histogram totals differ from the record counts {totals}")
    if serialized != expect["batch"]:
        problems.append("serialize_scenario(parse_scenario(text)) != text for the batch")
    if len({r["serialized_sha256"] for r in rounds}) != 1:
        problems.append("serialized batch differs between rounds")

    golden = expect["golden"]
    g_scenario = checks.read_scenario(golden["texts"]["sim_scenario"])
    outputs = {f"input.{name}": text for name, text in golden["texts"].items()}
    for name, path in result["golden"].items():
        outputs[name] = _read(Path(path))
    for rule in RULES:
        problems += checks.check_trajectory_csv(outputs[f"sim.{rule}.csv"], rule, g_scenario)
    problems += checks.check_histogram_output(outputs["analyze.nearest.txt"], golden["records"], "nearest")
    problems += checks.check_histogram_output(outputs["analyze.center.txt"], golden["kept"], "center")
    if outputs["serialize.batch.json"] != json.dumps(golden["batch"]):
        problems.append("golden batch does not serialize back to its text")
    pinned = json.loads((ROOT / "bench" / "golden.json").read_text(encoding="utf-8"))
    problems += checks.check_digests(outputs, pinned.get(spec["pins"], {}))
    return problems, {name: checks.sha256(text) for name, text in sorted(outputs.items())}


def stage_seconds(round_: dict, rescale: bool) -> dict:
    """Seconds per kind of unit in one round, and their total as ``wall``.

    With ``rescale``, each unit's time is multiplied by REF_PASS_S over the
    mean of the reference passes on either side of it (see
    ``session.reference``): seconds at the host speed at which one pass
    takes REF_PASS_S.
    """
    totals = {"wall": 0.0}
    for kind, seconds, before, after in round_["units"]:
        if rescale:
            seconds *= 2 * REF_PASS_S / (before + after)
        totals[kind] = totals.get(kind, 0.0) + seconds
        totals["wall"] += seconds
    return totals


def end_to_end(cfg: dict, expect: dict, result: dict, setups: list, rescale: bool = True) -> dict:
    """End-to-end metrics: medians over the untraced rounds."""
    stages = [stage_seconds(r, rescale) for r in result["rounds"]]
    runs = cfg["runs"]

    def med(*kinds):
        return median(sum(s[k] for k in kinds) for s in stages)

    text_bytes = len(expect["corpus"].encode()) + sum(len(t.encode()) for t in expect["batch"])
    metrics = {
        "setup_s": (median(s * (2 * REF_PASS_S / ref if rescale else 1) for s, ref in setups), "s"),
        "wall_s": (med("wall"), "s"),
        "runs_per_s": (len(RULES) * runs / med(*(f"sim.{rule}" for rule in RULES)), "1/s"),
    }
    for rule in RULES:
        metrics[f"runs_per_s.{rule}"] = (runs / med(f"sim.{rule}"), "1/s")
    metrics["records_per_s"] = (cfg["records"] / med("parse_choices", "histogram"), "1/s")
    metrics["parse_mb_per_s"] = (text_bytes / 1e6 / med("parse_choices", "parse_scenario"), "MB/s")
    metrics["peak_rss_mb"] = (result["peak_rss_kib"] / 1024, "MB")
    return metrics


# Span names reported per layer; each gets `.calls` and `.self_s`.
LAYER_SPANS = (
    "grid.feasible_placements", "grid.placements_with_distances", "grid.occupy",
    "grid.Placement.min_distance_to", "grid.center_of_mass", "grid.occupied_seats",
    *(f"policies.select_placement.{rule}" for rule in RULES),
    "entropy.entropy", "simulation.run_once",
    "scenario_io.parse_scenario", "scenario_io.validate_scenario", "scenario_io.parse_choices",
    "scenario_io.serialize_scenario", "scenario_io.emit_trajectories_csv",
    "analysis.nearest_distance_histogram", "analysis.center_distance_histogram", "cli.main",
)
BYTE_COUNTERS = (
    "scenario_io.parse_scenario", "scenario_io.parse_choices",
    "scenario_io.serialize_scenario", "scenario_io.emit_trajectories_csv",
)


def per_layer(result: dict) -> dict:
    """Medians over the traced rounds of each layer's counts and self time."""
    traced, untraced = result["traced"], result["rounds"]

    def layer(r, name, key):
        return r["layers"].get(name, {}).get(key, 0)

    def med(fn):
        return median(fn(r) for r in traced)

    metrics = {}
    for name in LAYER_SPANS:
        metrics[f"{name}.calls"] = (med(lambda r: layer(r, name, "calls")), "count")
        metrics[f"{name}.self_s"] = (med(lambda r: layer(r, name, "self_s")), "s")
    for name in BYTE_COUNTERS:
        metrics[f"{name}.bytes"] = (med(lambda r: r["counters"].get(f"{name}.bytes", 0)), "B")
    metrics["grid.feasible_placements.candidates_per_call"] = (med(
        lambda r: r["counters"].get("grid.feasible_placements.candidates", 0)
        / max(layer(r, "grid.feasible_placements", "calls"), 1)), "count")
    for rule in RULES:
        metrics[f"policies.state_repeat_ratio.{rule}"] = (med(
            lambda r: r["counters"].get(f"repeat.{rule}", 0)
            / max(layer(r, f"policies.select_placement.{rule}", "calls"), 1)), "ratio")
    metrics["simulation.run_many.aggregation_s"] = (
        med(lambda r: layer(r, "simulation.run_many", "self_s")), "s")
    metrics["simulation.pool_concurrency"] = (med(
        lambda r: layer(r, "simulation.run_once", "total_s")
        / max(layer(r, "simulation.run_many", "total_s"), 1e-12)), "ratio")

    def self_sum(r, prefix):
        return sum(v["self_s"] for k, v in r["layers"].items() if k.startswith(prefix))

    metrics["grid.self_s"] = (med(lambda r: self_sum(r, "grid.")), "s")
    metrics["policies.self_s"] = (med(lambda r: self_sum(r, "policies.")), "s")
    # Share of all traced self time, so that time two pool threads spend
    # in spans at once is not counted twice against the wall clock.
    metrics["grid_policies.self_share"] = (med(
        lambda r: (self_sum(r, "grid.") + self_sum(r, "policies.")) / self_sum(r, "")), "ratio")
    # Walls rescaled like wall_s, so that host drift between the untraced
    # and the traced half does not show up as overhead.
    traced_wall = med(lambda r: stage_seconds(r, True)["wall"])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - median(stage_seconds(r, True)["wall"] for r in untraced), "s")
    attempted = sum(r["attempted"] for r in traced + untraced)
    failed = sum(r["failed"] for r in traced + untraced)
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not (ROOT / "src" / "seatsim" / "__init__.py").is_file():
        print(f"bench: no seatsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cfg, expect = generate(spec, args.seed, spec["size"], work / "inputs")
        cfg["golden"], expect["golden"] = generate(spec, 0, spec["golden"], work / "golden")
        cfg.update(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
            workers=spec["workers"], src=str(ROOT / "src"), result=str(work / "result.json"),
            spans=str(out_dir / f"{args.workload}.spans.tsv"),
        )
        config = work / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")

        setups = []
        for _ in range(SETUP_PROBES):
            probe = child("setup", config, RUN_LIMIT_S - (time.monotonic() - began))
            if probe.returncode != 0:
                sys.stderr.write(probe.stderr)
                print(f"bench: set-up failed with exit code {probe.returncode}", file=sys.stderr)
                return 1
            setups.append(json.loads(probe.stdout.strip().splitlines()[-1]))
        session = child("run", config, RUN_LIMIT_S - (time.monotonic() - began))
        sys.stderr.write(session.stderr)
        if session.returncode != 0:
            print(f"bench: workload failed with exit code {session.returncode}", file=sys.stderr)
            return 1
        result = json.loads(Path(cfg["result"]).read_text(encoding="utf-8"))
        serialized = json.loads((Path(cfg["out_dir"]) / "serialized.json").read_text(encoding="utf-8"))
        problems, computed = verify(args.workload, cfg, expect, result, serialized)
    except subprocess.TimeoutExpired as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    setups.append([result["setup_s"], result["setup_ref_s"]])
    rounds = result["rounds"] + result["traced"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    raw = {}
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(cfg, expect, result, setups)
        raw = end_to_end(cfg, expect, result, setups, rescale=False)
    env = environment(args.seed)
    report = {
        "workload": args.workload, "trace": args.trace, "env": env,
        "rounds": len(result["rounds"]), "traced_rounds": len(result["traced"]),
        "setup_samples_s": setups, "problems": problems, "golden_computed": computed,
        "round_units": [r["units"] for r in result["rounds"]],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "metrics_not_rescaled": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
    }
    (out_dir / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    for problem in problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "rounds": report["rounds"], "traced_rounds": report["traced_rounds"]}))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""The rolecomms benchmark: one closed loop per workload, run from a checkout.

    python3 perfbench/run.py --workload table1 --seed 3 --seconds 30 --trace 0

Run it from the root of a checkout (the directory holding `src/` and
`configs/`). It imports rolecomms from `src/`, plays rounds of the workload
until --seconds have passed, checks every round against the reference
outcomes in perfbench/reference/, and prints each metric by name and unit.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Every time in the end-to-end metrics but setup_s, and the traced games per
second, is in reference seconds: each round's wall time is scaled by how fast the
machine ran a fixed calibration loop just before and after it (see
calibrate.py), because the cores of a shared host change speed by up to a
factor of two while the program does not. The unscaled wall figures are printed too.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing overhead;
see perfbench/README.md for what each metric means and is expected to move.
A round is one pass over the inputs the seed selects: one `run_benchmark`
call for table1 and noise-w2, and one pass over a list of single games for
simulate-trace. Run outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import calibrate
import stats
import tracing

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"

# The inputs come in BLOCKS blocks, and the reference holds the outcomes of
# every block. An untraced run plays blocks seed, seed + 1, ... (mod BLOCKS),
# one per round, so that its medians do not hinge on one block's game
# lengths. A traced run plays block seed % BLOCKS in every round, so that
# its call counts repeat exactly.
BLOCKS = 32
SETUP_PROBES = 11
WORKLOADS = ("table1", "noise-w2", "simulate-trace")
# simulate-trace cycles these (strategy, T) pairs and obstacle counts; T = 1
# is the `rolecomms simulate` default
SIM_STRATEGIES = (("explicit", 1), ("dynamic", 1), ("speaker_listener", 0), ("speaker_speaker", 0))
SIM_OBSTACLES = (2, 4, 8)
SIM_GAMES_PER_BLOCK = 96


class Workload:
    """Inputs and one round of work for a workload; see README.md for why each exists."""

    def __init__(self, name: str, root: Path, bench, table_sim, cli):
        self.name = name
        self.bench = bench
        self.table_sim = table_sim
        config_file = "noise.json" if name == "noise-w2" else "table1.json"
        self.config_path = root / "configs" / config_file
        config = bench.config_from_dict(cli._load_json(str(self.config_path), "config"))
        self.requested_workers = 2 if name == "noise-w2" else 1
        # never more workers than the cores this process may use
        self.workers = min(self.requested_workers, len(os.sched_getaffinity(0)))
        if name == "simulate-trace":
            self.config = config
        else:
            self.config = replace(config, games_per_condition=25 if name == "noise-w2" else 20)

    def play_round(self, block: int) -> dict:
        if self.name == "simulate-trace":
            return self._simulate_round(self._sim_games(block))
        games = self.config.games_per_condition
        return self._bench_round(replace(self.config, base_seed=block * games))

    def _sim_games(self, block: int) -> list[tuple]:
        mode = self.table_sim.KnownRadius(r_fixed=self.config.radii.r_fixed)
        games = []
        for k in range(SIM_GAMES_PER_BLOCK):
            strategy, period = SIM_STRATEGIES[k % len(SIM_STRATEGIES)]
            n = SIM_OBSTACLES[(k // len(SIM_STRATEGIES)) % len(SIM_OBSTACLES)]
            comm = self.bench.Condition(strategy, period, n, "known", 0.0).comm_strategy()
            games.append((block * SIM_GAMES_PER_BLOCK + k, n, mode, comm))
        return games

    def _bench_round(self, config) -> dict:
        bench = self.bench
        start = time.perf_counter()
        report = bench.run_benchmark(config, workers=self.workers)
        report_json = bench.report_json(report)
        report_csv = bench.report_csv(report)
        assert_failures = bench.evaluate_asserts(report, config.asserts)
        wall = time.perf_counter() - start

        games = sum(r.games for r in report.results)
        rows = {}
        for cond_idx, r in enumerate(report.results):
            for seed, steps, kind in zip(r.seeds, r.steps, r.failure_kinds):
                rows[f"{cond_idx}:{seed}"] = outcome_token(steps, kind)
            for seed in r.skipped_seeds:
                rows[f"{cond_idx}:{seed}"] = outcome_token(0, "generation_skip")
        return {
            "wall_s": wall,
            "games": games,
            "steps": sum(sum(r.steps) for r in report.results),
            # every game's result arrives when the run_benchmark call returns
            "latencies_s": [wall],
            "rows": rows,
            "digests": {"report_sha256": report_digest(report_json), "csv_sha256": sha256(report_csv)},
            "asserts_failed": len(assert_failures),
        }

    def _simulate_round(self, games: list[tuple]) -> dict:
        table_sim = self.table_sim
        config = self.config
        csv_path = OUT_DIR / f"trajectory-{os.getpid()}.csv"
        latencies = []
        rows = {}
        steps = 0
        for k, (seed, n, mode, comm) in enumerate(games):
            # one sample: environment, game and trajectory CSV, as `rolecomms simulate` does
            start = time.perf_counter()
            env = table_sim.generate_environment(seed, n, mode, config.workspace)
            outcome = table_sim.run_game(env, comm, config.field_params, config.limits, seed, True)
            table_sim.write_trajectory_csv(outcome.trajectory, csv_path)
            latencies.append(time.perf_counter() - start)
            steps += outcome.steps
            csv_digest = sha256(csv_path.read_text(encoding="utf-8"))[:16]
            # each game writes a new file: rewriting a truncated one makes ext4
            # flush it on close, which would add disk waits to the next sample
            csv_path.unlink()
            rows[str(k)] = f"{outcome_token(outcome.steps, outcome.failure_kind)}:{csv_digest}"
        return {
            "wall_s": sum(latencies),
            "games": len(latencies),
            "steps": steps,
            "latencies_s": latencies,
            "rows": rows,
            "digests": {},
            "asserts_failed": 0,
        }


def outcome_token(steps: int, failure_kind: str) -> str:
    """Compact (success, steps, failure_kind) row; success is failure_kind 'none'."""
    return f"{steps}{failure_kind[0]}"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report_json: str) -> str:
    """Digest of a report without its fingerprint, which depends on the install."""
    d = json.loads(report_json)
    d.pop("fingerprint", None)
    return sha256(json.dumps(d, sort_keys=True, separators=(",", ":")))


def load_reference(workload: str) -> dict[int, dict]:
    """Block -> the rows and digests recorded for it."""
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        blocks = json.load(fh)["blocks"]
    return {
        int(block): {"rows": dict(tok.rsplit("=", 1) for tok in entry["outcomes"]), "digests": entry["digests"]}
        for block, entry in blocks.items()
    }


def check_round(result: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one round against the reference."""
    attempted, failed = stats.count_mismatches(result["rows"], reference["rows"])
    problems = []
    if set(result["rows"]) != set(reference["rows"]):
        problems.append("round played other games than the reference holds")
    for key, value in reference["digests"].items():
        if result["digests"].get(key) != value:
            problems.append(f"{key} differs from the reference")
    return attempted, failed, problems


def setup_probes(root: Path, config_path: Path) -> list[dict]:
    """Import rolecomms and load the config in fresh interpreters.

    The first probe is a warm-up (it may compile bytecode) and is dropped.
    """
    probe = HERE / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(probe), str(root), str(config_path)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out[1:]


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its pool workers.

    Pool workers are forked alike and reaped at pool shutdown; each is
    counted at the peak of the largest one. Shared pages count in each.
    """
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own_kb + workers * worker_kb) / 1024.0


def machine_facts(workload: Workload) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "workers": workload.workers,
        "workers_requested": workload.requested_workers,
    }


def run(args, root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import rolecomms
    from rolecomms import bench, cli, table_sim

    if not Path(rolecomms.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: rolecomms was imported from {rolecomms.__file__}, not from {root / 'src'}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = Workload(args.workload, root, bench, table_sim, cli)
    reference = load_reference(args.workload)
    tracer = tracing.Tracer() if args.trace else None

    attempted = failed = asserts_failed = 0
    problems: list[str] = []
    plain_rounds, traced_rounds = [], []
    # A one-process loop stays on one core, and on a shared host the cores
    # often run at different speeds for seconds at a time. Moving the loop to
    # the next allowed core every two rounds makes each run sample all cores
    # alike; a traced run still plays one plain and one traced round on each.
    allowed = os.sched_getaffinity(0)
    cores = sorted(allowed) if workload.workers == 1 else []
    calibrate.loop_seconds(sorted(allowed))  # warm-up
    deadline = time.perf_counter() + args.seconds
    while True:
        rounds = len(plain_rounds) + len(traced_rounds)
        # the pool's workers may run on any allowed core
        round_cores = [cores[rounds // 2 % len(cores)]] if cores else sorted(allowed)
        if cores:
            os.sched_setaffinity(0, set(round_cores))
        loop_before = calibrate.loop_seconds(round_cores)
        traced = tracer is not None and len(plain_rounds) > len(traced_rounds)
        if tracer is None:
            block = (args.seed + len(plain_rounds)) % BLOCKS
        else:
            block = args.seed % BLOCKS
        if traced:
            tracer.clear()
            saved = tracing.install(tracer, bench, table_sim)
            try:
                result = workload.play_round(block)
            finally:
                tracing.uninstall(saved)
            summary = tracer.summary()
            result["layer_values"] = layer_round_values(summary, tracer.counters)
            result["game_us"] = [1e6 * d for d in summary["table_sim.run_game"]["durations"]]
            traced_rounds.append(result)
        else:
            result = workload.play_round(block)
            plain_rounds.append(result)
        result["ref_per_wall"] = calibrate.reference_per_wall(loop_before, calibrate.loop_seconds(round_cores))
        a, f, p = check_round(result, reference[block])
        attempted += a
        failed += f
        asserts_failed += result["asserts_failed"]
        problems.extend(x for x in p if x not in problems)
        # a checked round keeps only its timings
        del result["rows"]
        # a traced run goes on until the p99 of its game spans resolves
        traced_games = sum(r["games"] for r in traced_rounds)
        if time.perf_counter() >= deadline and (tracer is None or stats.tail_resolvable(traced_games, 99)):
            break
    os.sched_setaffinity(0, allowed)

    rss = peak_rss_mb(workload.workers)
    probes = setup_probes(root, workload.config_path)
    tail = {}
    if tracer is None:
        metrics, tail = end_to_end(plain_rounds, probes, rss)
    else:
        metrics, specific, count_problems = per_layer(plain_rounds, traced_rounds, probes)
        tail["workload_layers"] = specific
        problems.extend(count_problems)
        with open(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_dump(), fh)
    info = {
        "facts": machine_facts(workload),
        "rounds": len(plain_rounds) + len(traced_rounds),
        "traced_rounds": len(traced_rounds),
        "failed_fraction": failed / attempted,
        "asserts_failed_per_round": asserts_failed / (len(plain_rounds) + len(traced_rounds)),
        "reference_s_per_wall_s": statistics.median(r["ref_per_wall"] for r in plain_rounds + traced_rounds),
        "problems": problems,
        **tail,
    }
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }


def per_round_rate(rounds: list[dict], key: str, scaled: bool = True) -> float:
    """Median over rounds of key per reference second, or per wall second."""
    return statistics.median([r[key] / (r["wall_s"] * (r["ref_per_wall"] if scaled else 1.0)) for r in rounds])


def end_to_end(rounds: list[dict], probes: list[dict], rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and what is printed beside them.

    Times but setup_s are in reference seconds. p99 resolves on simulate-trace only: on
    table1 and noise-w2 a whole round is one latency sample, and a run holds
    far fewer than 1000.
    """
    latencies = [x * r["ref_per_wall"] for r in rounds for x in r["latencies_s"]]
    wall_latencies = [x for r in rounds for x in r["latencies_s"]]
    values = {
        "games_per_s": (per_round_rate(rounds, "games"), "1/s"),
        "steps_per_s": (per_round_rate(rounds, "steps"), "1/s"),
        "game_latency_ms_p50": (1000.0 * stats.percentile(latencies, 50), "ms"),
        "setup_s": (statistics.median([p["import_s"] + p["config_s"] for p in probes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    p99 = 1000.0 * stats.tail_percentile(latencies, 99) if stats.tail_resolvable(len(latencies), 99) else None
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    wall = {
        "games_per_s": per_round_rate(rounds, "games", scaled=False),
        "steps_per_s": per_round_rate(rounds, "steps", scaled=False),
        "game_latency_ms_p50": 1000.0 * stats.percentile(wall_latencies, 50),
    }
    numpy_s = statistics.median([p["numpy_import_s"] for p in probes])
    return metrics, {"game_latency_ms_p99": p99, "latency_samples": len(latencies), "wall": wall, "numpy_import_s": numpy_s}


COUNTED = (
    "table_sim.run_game",
    "table_sim.infer_obstacle",
    "potential_field.field_eval",
    "table_sim.generate_environment",
    "table_sim.corrupt",
    "numerics.gaussian",
    "table_sim.closest_observed_index",
)
# metric -> span whose mean duration per call it reports
PER_CALL_US = {
    "table_sim.infer_obstacle.us_per_call": "table_sim.infer_obstacle",
    "potential_field.field_eval.us_per_call": "potential_field.field_eval",
    "table_sim.generate_environment.us_per_call": "table_sim.generate_environment",
    "table_sim.corrupt.us_per_call": "table_sim.corrupt",
    "table_sim.trajectory_csv_lines.us_per_call": "table_sim.trajectory_csv_lines",
    "bench.report_json_us": "bench.report_json",
    "bench.report_csv_us": "bench.report_csv",
    "bench.evaluate_asserts_us": "bench.evaluate_asserts",
}


def layer_round_values(layers: dict, counters: dict) -> dict:
    """Per-layer values of one traced round.

    A layer the round never entered counts 0 calls, and its times and
    ratios are None.
    """

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def total_s(name):
        return layers[name]["total_s"] if name in layers else None

    def per_call(value, name):
        return value / calls(name) if calls(name) else None

    out = {f"{name}.calls": calls(name) for name in COUNTED}
    for metric, name in PER_CALL_US.items():
        out[metric] = per_call(1e6 * total_s(name), name) if name in layers else None
    steps = counters.get("table_sim.run_game.steps", 0)
    out["table_sim.run_game.us_per_step"] = 1e6 * total_s("table_sim.run_game") / steps
    for outcome in ("none", "saturated"):
        out[f"table_sim.infer_obstacle.{outcome}_ratio"] = per_call(
            counters.get(f"table_sim.infer_obstacle.{outcome}", 0), "table_sim.infer_obstacle"
        )
    out["table_sim.trajectory_csv_lines.bytes"] = per_call(
        counters.get("table_sim.trajectory_csv_lines.bytes", 0), "table_sim.trajectory_csv_lines"
    )
    out["bench.env_hash_s"] = total_s("bench.env_hash")
    out["bench.aggregate_s"] = layers["bench.run_benchmark"]["self_s"] if "bench.run_benchmark" in layers else None
    out["bench.pool_wait_s"] = total_s("bench.pool_wait")
    out["bench.worker_busy_s"] = counters.get("bench.worker_busy_s")
    return out


# name -> unit of every per-layer metric in BENCHMARK.json, in report order;
# each has a value on every workload
PER_LAYER_UNITS = {
    "table_sim.run_game.calls": "count",
    "table_sim.run_game.us_p50": "us",
    "table_sim.run_game.us_p99": "us",
    "table_sim.run_game.us_per_step": "us",
    "table_sim.infer_obstacle.calls": "count",
    "table_sim.infer_obstacle.us_per_call": "us",
    "table_sim.infer_obstacle.none_ratio": "ratio",
    "table_sim.infer_obstacle.saturated_ratio": "ratio",
    "potential_field.field_eval.calls": "count",
    "potential_field.field_eval.us_per_call": "us",
    "table_sim.generate_environment.calls": "count",
    "table_sim.generate_environment.us_per_call": "us",
    "table_sim.corrupt.calls": "count",
    "table_sim.corrupt.us_per_call": "us",
    "numerics.gaussian.calls": "count",
    "table_sim.closest_observed_index.calls": "count",
    "cli.config_from_dict_us": "us",
    "import_s": "s",
    "numpy_import_s": "s",
    "trace.games_per_s": "1/s",
    "trace.games_per_s_ratio": "ratio",
}
# layers that some workloads never enter: printed, n/a where absent
WORKLOAD_LAYER_UNITS = {
    "table_sim.trajectory_csv_lines.us_per_call": "us",
    "table_sim.trajectory_csv_lines.bytes": "B/call",
    "bench.env_hash_s": "s",
    "bench.aggregate_s": "s",
    "bench.report_json_us": "us",
    "bench.report_csv_us": "us",
    "bench.evaluate_asserts_us": "us",
    "bench.pool_wait_s": "s",
    "bench.worker_busy_s": "s",
}
# the same in every traced round of a seed
EXACT = [
    name
    for name in {**PER_LAYER_UNITS, **WORKLOAD_LAYER_UNITS}
    if name.endswith(("calls", "ratio", "bytes")) and not name.startswith("trace.")
]


def per_layer(plain_rounds: list[dict], traced_rounds: list[dict], probes: list[dict]) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics, workload-specific layer values, problems)."""
    per_round = [r["layer_values"] for r in traced_rounds]
    problems = [f"{name} differs between traced rounds of one seed" for name in EXACT if len({v[name] for v in per_round}) > 1]
    values = dict(per_round[0])
    for name in per_round[0].keys() - set(EXACT):
        samples = [v[name] for v in per_round]
        values[name] = None if None in samples else statistics.median(samples)
    game_us = [us for r in traced_rounds for us in r["game_us"]]
    values["table_sim.run_game.us_p50"] = stats.percentile(game_us, 50)
    values["table_sim.run_game.us_p99"] = stats.tail_percentile(game_us, 99)
    values["cli.config_from_dict_us"] = 1e6 * statistics.median([p["config_s"] for p in probes])
    values["import_s"] = statistics.median([p["import_s"] for p in probes])
    values["numpy_import_s"] = statistics.median([p["numpy_import_s"] for p in probes])
    traced_gps = per_round_rate(traced_rounds, "games")
    values["trace.games_per_s"] = traced_gps
    values["trace.games_per_s_ratio"] = traced_gps / per_round_rate(plain_rounds, "games")
    metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER_UNITS.items()}
    specific = {n: {"value": values[n], "unit": u} for n, u in WORKLOAD_LAYER_UNITS.items()}
    return metrics, specific, problems


def checkout_ready(root: Path) -> list[str]:
    needed = [
        root / "src" / "rolecomms" / "__init__.py",
        root / "configs" / "table1.json",
        root / "configs" / "noise.json",
    ]
    return [str(p) for p in needed if not p.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    missing = checkout_ready(root)
    if missing:
        print(f"error: run from the root of a rolecomms checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    result = run(args, root)
    info = result.pop("info")
    for key, value in info["facts"].items():
        print(f"fact {key} = {value}")
    print(f"rounds = {info['rounds']} (traced {info['traced_rounds']})")
    print(f"failed_fraction = {info['failed_fraction']:.6g} ({result['failed']} of {result['attempted']} games)")
    print(f"trend asserts failed per round = {info['asserts_failed_per_round']:g} (information only)")
    if "game_latency_ms_p99" in info:
        p99, samples = info["game_latency_ms_p99"], info["latency_samples"]
        if p99 is None:
            print(f"game_latency_ms_p99 = n/a ({samples} latency samples; p99 needs 10 beyond it)")
        else:
            print(f"game_latency_ms_p99 = {p99:.6g} ms (information; {samples} latency samples)")
    print(f"reference seconds per wall second = {info['reference_s_per_wall_s']:.4g} (median over rounds)")
    for name, value in info.get("wall", {}).items():
        print(f"unscaled {name} = {value:.6g} (wall seconds; information)")
    if "numpy_import_s" in info:
        print(f"numpy_import_s = {info['numpy_import_s']:.6g} s (information; not part of setup_s)")
    for problem in info["problems"]:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in info.get("workload_layers", {}).items():
        if m["value"] is None:
            print(f"{name} = n/a (this workload never enters the layer)")
        else:
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "info": info}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

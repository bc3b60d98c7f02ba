"""Command-line interface: analysis, single games, and benchmark runs.

Subcommands:
  analyze   closed-loop stability, rotation convergence, optimal variances,
            and expected-KL evaluation for a linear team read from a JSON
            system file
  simulate  one table-carrying game with a trajectory CSV dump
  bench     a Monte-Carlo benchmark from a JSON config; writes report.json
            and report.csv
  sweep     a bench expanded over a noise (cv) grid

Exit codes: 0 success, 1 a trend assert listed in the bench config failed,
2 usage, config or file error. All randomness is seed-driven and every artifact
from a seeded run embeds its seed; the ROLECOMMS_THREADS environment
variable (or --workers) sets the worker pool size, which never affects
outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import bench as bench_mod
from .codec import decode
from .errors import ConfigError, GenerationError
from .linear_roles import (
    DynamicAlternating,
    SpeakerListener,
    SpeakerSpeaker,
    TeamLinearSystem,
    expected_kl,
    optimal_variances,
    rotation_converges,
    stability_report,
)
from .table_sim import (
    STRATEGY_NAMES,
    Environment,
    SimOutcome,
    generate_environment,
    run_game,
    write_trajectory_csv,
)

_ALLOC_CHOICES = {
    "speaker_listener_1": SpeakerListener(1),
    "speaker_listener_2": SpeakerListener(2),
    "speaker_speaker": SpeakerSpeaker(),
    "dynamic": DynamicAlternating(dt=1e-3),
}


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


@dataclass(frozen=True)
class SystemFile:
    """The JSON system file of `rolecomms analyze`."""

    A: tuple[tuple[float, ...], ...]
    B: tuple[tuple[float, ...], ...]
    Kstar: tuple[tuple[float, ...], ...]
    W: tuple[float, ...] = ()
    sigma_s2_sq: float | None = None

    def __post_init__(self):
        # the system's own rules on shapes and variances, checked on decoding
        self.team()

    def team(self) -> TeamLinearSystem:
        return TeamLinearSystem(A=self.A, B=self.B, Kstar=self.Kstar, W=self.W)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_analyze(args) -> int:
    spec = decode(SystemFile, _load_json(args.system, "system"), "system")
    system = spec.team()

    if args.mode == "stability":
        alloc = _ALLOC_CHOICES[args.alloc]
        try:
            rep = stability_report(system, alloc)
        except ValueError as exc:
            return _fail(str(exc))
        _print_json(
            {
                "mode": "stability",
                "allocation": args.alloc,
                "eigenvalues": [[e.real, e.imag] for e in rep.eigenvalues],
                "max_real_part": rep.max_real_part,
                "stable": rep.stable,
            }
        )
        return 0

    if args.mode == "rotation":
        rows = rotation_converges(
            system,
            horizon=args.horizon,
            dts=args.dts,
            s0=args.state,
            drift=args.drift,
        )
        _print_json(
            {
                "mode": "rotation",
                "horizon": args.horizon,
                "state": args.state if args.state is None else list(args.state),
                "drift": args.drift if args.drift is None else list(args.drift),
                "rows": [
                    {"dt": r.dt, "cycles": r.cycles, "sup_deviation": r.sup_deviation}
                    for r in rows
                ],
            }
        )
        return 0

    if len(system.W) != 2:
        return _fail("variances and kl modes need W = [w1_sq, w2_sq] in the system file")
    w1_sq, w2_sq = system.W

    if args.mode == "variances":
        try:
            pair = optimal_variances(system.Kstar, w1_sq, w2_sq, speaker=args.speaker)
        except ValueError as exc:
            return _fail(str(exc))
        _print_json(
            {
                "mode": "variances",
                "speaker": args.speaker,
                "sigma1_sq": pair.sigma1_sq,
                "sigma2_sq": pair.sigma2_sq,
            }
        )
        return 0

    # kl mode
    sigma_s2_sq = spec.sigma_s2_sq
    if sigma_s2_sq is None:
        return _fail("kl mode needs sigma_s2_sq (partner-state prior variance) in the system file")
    if args.sigma1_sq is None or args.sigma2_sq is None:
        pair = optimal_variances(system.Kstar, w1_sq, w2_sq, speaker=1)
        sigma1_sq = pair.sigma1_sq if args.sigma1_sq is None else args.sigma1_sq
        sigma2_sq = pair.sigma2_sq if args.sigma2_sq is None else args.sigma2_sq
    else:
        sigma1_sq, sigma2_sq = args.sigma1_sq, args.sigma2_sq
    try:
        value = expected_kl(system.Kstar, sigma1_sq, sigma2_sq, w1_sq, w2_sq, sigma_s2_sq)
    except ValueError as exc:
        return _fail(str(exc))
    _print_json(
        {
            "mode": "kl",
            "sigma1_sq": sigma1_sq,
            "sigma2_sq": sigma2_sq,
            "sigma_s2_sq": sigma_s2_sq,
            "expected_kl": value,
        }
    )
    return 0


def _cmd_simulate(args) -> int:
    period = args.T if args.strategy in ("explicit", "dynamic") else 0
    config = _bench_config_for_cli(args)
    condition = bench_mod.Condition(args.strategy, period, args.n, args.geometry, args.cv)
    if args.env is not None:
        try:
            env = decode(Environment, _load_json(args.env, "environment"), "environment")
        except ConfigError as exc:
            return _fail(f"unreadable environment: {exc}")
    else:
        mode = condition.geometry_mode(config.radii)
        env = generate_environment(args.seed, args.n, mode, config.workspace)
    outcome = run_game(
        env,
        condition.comm_strategy(),
        config.field_params,
        config.limits,
        args.seed,
        record_trajectory=args.trajectory_out is not None,
    )
    if args.trajectory_out is not None:
        write_trajectory_csv(outcome.trajectory, args.trajectory_out)
    _print_json(_outcome_summary(outcome, condition, args))
    return 0


def _outcome_summary(outcome: SimOutcome, condition: bench_mod.Condition, args) -> dict:
    return {
        "kind": "sim_outcome",
        "seed": args.seed,
        "strategy": condition.strategy,
        "T": condition.T,
        "cv": condition.cv,
        "success": outcome.success,
        "steps": outcome.steps,
        "failure_kind": outcome.failure_kind,
        "trajectory_out": args.trajectory_out,
    }


def _bench_config_for_cli(args) -> bench_mod.BenchmarkConfig:
    """Config from file (if given) with CLI-flag overrides applied."""
    if getattr(args, "config", None):
        raw = _load_json(args.config, "config")
        config = bench_mod.config_from_dict(raw)
    else:
        config = bench_mod.BenchmarkConfig(
            conditions=(bench_mod.Condition("explicit", 0, 0, "known", 0.0),)
        )
    kwargs = {}
    if getattr(args, "games", None) is not None:
        kwargs["games_per_condition"] = args.games
    if getattr(args, "base_seed", None) is not None:
        kwargs["base_seed"] = args.base_seed
    if kwargs:
        config = replace(config, **kwargs)
    return config


def _resolve_workers(args) -> int:
    """Worker count from --workers or ROLECOMMS_THREADS, within [1, cpu count]."""
    requested = args.workers
    if requested is None:
        env_value = os.environ.get("ROLECOMMS_THREADS")
        if not env_value:
            return 1
        try:
            requested = int(env_value)
        except ValueError:
            raise ConfigError(f"ROLECOMMS_THREADS must be an integer, got {env_value!r}")
    return max(1, min(requested, os.cpu_count() or 1))


def _run_into_out(config: bench_mod.BenchmarkConfig, args) -> bench_mod.BenchmarkReport:
    """Create --out, so a bad path fails before any game is played, run the
    benchmark, and write report.json and report.csv there. A config error
    (such as every seed failing generation) leaves no new directory behind."""
    out = Path(args.out)
    fresh = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = bench_mod.run_benchmark(config, workers=_resolve_workers(args))
    except ConfigError:
        if fresh:
            out.rmdir()
        raise
    (out / "report.json").write_text(bench_mod.report_json(report), encoding="utf-8")
    (out / "report.csv").write_text(bench_mod.report_csv(report), encoding="utf-8")
    return report


def _cmd_bench(args) -> int:
    config = _bench_config_for_cli(args)
    report = _run_into_out(config, args)
    failures = bench_mod.evaluate_asserts(report, config.asserts)
    for failure in failures:
        print(f"assert failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "kind": "bench_summary",
                "base_seed": config.base_seed,
                "conditions": len(config.conditions),
                "games_per_condition": config.games_per_condition,
                "fingerprint": report.fingerprint,
                "out": args.out,
                "asserts_failed": len(failures),
            },
            sort_keys=True,
        )
    )
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    config = _bench_config_for_cli(args)
    expanded = tuple(replace(cond, cv=cv) for cond in config.conditions for cv in args.cv)
    config = replace(config, conditions=expanded, asserts=())
    report = _run_into_out(config, args)
    print(
        json.dumps(
            {
                "kind": "sweep_summary",
                "base_seed": config.base_seed,
                "cv_grid": list(args.cv),
                "conditions": len(config.conditions),
                "fingerprint": report.fingerprint,
                "out": args.out,
            },
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rolecomms",
        description="Speaker/listener role coordination: analysis, simulation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="linear-team analysis from a JSON system file")
    p_an.add_argument("--system", required=True, help="path to a JSON system file")
    p_an.add_argument(
        "--mode", required=True, choices=("stability", "rotation", "variances", "kl")
    )
    p_an.add_argument(
        "--alloc",
        choices=sorted(_ALLOC_CHOICES),
        default="speaker_listener_1",
        help="role allocation for stability mode",
    )
    p_an.add_argument("--speaker", type=int, choices=(1, 2), default=1)
    p_an.add_argument("--horizon", type=float, default=2.0)
    p_an.add_argument(
        "--dts",
        type=float,
        nargs="+",
        default=[0.1, 0.05, 0.025, 0.0125],
        help="phase lengths for rotation mode",
    )
    p_an.add_argument("--state", type=float, nargs="+", default=None)
    p_an.add_argument("--drift", type=float, nargs="+", default=None)
    p_an.add_argument("--sigma1-sq", dest="sigma1_sq", type=float, default=None)
    p_an.add_argument("--sigma2-sq", dest="sigma2_sq", type=float, default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run one table-carrying game")
    p_sim.add_argument("--env", default=None, help="JSON environment file")
    p_sim.add_argument("--seed", type=int, default=0, help="environment/game seed")
    p_sim.add_argument("--n", type=int, default=2, help="obstacle count for generated envs")
    p_sim.add_argument("--geometry", choices=bench_mod.GEOMETRY_NAMES, default="known")
    p_sim.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="dynamic",
    )
    p_sim.add_argument("--T", type=int, default=1, help="period for explicit/dynamic")
    p_sim.add_argument("--cv", type=float, default=0.0, help="noise coefficient of variation")
    p_sim.add_argument("--config", default=None, help="JSON config for field/limits/workspace")
    p_sim.add_argument("--trajectory-out", dest="trajectory_out", default=None)
    p_sim.set_defaults(func=_cmd_simulate, games=None, base_seed=None)

    p_bench = sub.add_parser("bench", help="run a Monte-Carlo benchmark config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--games", type=int, default=None, help="override games per condition")
    p_bench.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    p_bench.add_argument("--workers", type=int, default=None)
    p_bench.set_defaults(func=_cmd_bench)

    p_sweep = sub.add_parser("sweep", help="run a benchmark config over a noise grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--cv", type=float, nargs="+", required=True, help="cv grid values")
    p_sweep.add_argument("--games", type=int, default=None)
    p_sweep.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GenerationError, OSError) as exc:
        # every config or input error, and an output path that cannot be
        # created or written, ends the command with one error line
        return _fail(str(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

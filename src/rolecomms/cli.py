"""Command-line interface: analysis, single games, and benchmark runs.

Subcommands:
  analyze   closed-loop stability, rotation convergence, optimal variances,
            and expected-KL evaluation for a linear team read from a JSON
            system file
  simulate  one table-carrying game with a trajectory CSV dump
  bench     a Monte-Carlo benchmark from a JSON config; writes report.json
            and report.csv

Exit codes: 0 success; 1 only when a trend assert listed in the bench config
failed; 2 every usage, config, input or file error, which `main` reports as
one `error:` line on stderr. All randomness is seed-driven and every artifact
from a seeded run embeds its seed; bench's --workers sets the worker pool
size, which `run_benchmark` caps and which never affects outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as bench_mod
from .codec import decode
from .errors import ConfigError, GenerationError, NumericError
from .numerics import MAX_SEED
from .table_sim import (
    GEOMETRY_KINDS,
    STRATEGY_NAMES,
    Environment,
    SimOutcome,
    generate_environment,
    run_game,
    write_trajectory_csv,
)

# linear_roles.ROLE_MASKS's names, the role allocations of analyze's
# stability mode; linear_roles, which holds the system file's schema and loads
# numpy, is imported by analyze alone
_ALLOC_CHOICES = ("speaker_listener_1", "speaker_listener_2", "speaker_speaker", "dynamic")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except ValueError as exc:
        # a JSONDecodeError, or an integer longer than int() converts
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_analyze(args) -> int:
    from .linear_roles import TeamLinearSystem

    system = decode(TeamLinearSystem, _load_json(args.system, "system"), "system")
    try:
        payload = _analysis(system, args)
    except (ValueError, NumericError) as exc:
        # the library's own input rules, and an eigensolver that fails on a
        # finite closed loop, reported as one error line
        raise ConfigError(str(exc)) from exc
    _print_json(payload)
    return 0


def _analysis(system, args) -> dict:
    """The payload of the selected analyze mode for system, a linear_roles.TeamLinearSystem."""
    from . import linear_roles as lr

    if args.mode == "stability":
        rep = lr.stability_report(system, args.alloc)
        return {
            "mode": "stability",
            "allocation": args.alloc,
            "eigenvalues": [[e.real, e.imag] for e in rep.eigenvalues],
            "max_real_part": rep.max_real_part,
            "stable": rep.stable,
        }
    if args.mode == "rotation":
        rows = lr.rotation_converges(system, args.horizon, args.dts, drift=args.drift)
        return {
            "mode": "rotation",
            "horizon": args.horizon,
            "drift": args.drift,
            "rows": [row._asdict() for row in rows],
        }
    if len(system.W) != 2:
        raise ValueError("variances and kl modes need W = [w1_sq, w2_sq] in the system file")
    w1_sq, w2_sq = system.W
    if args.mode == "variances":
        pair = lr.optimal_variances(system.Kstar, w1_sq, w2_sq, speaker=args.speaker)
        return {"mode": "variances", "speaker": args.speaker, **pair._asdict()}
    # kl mode: a variance not given defaults to the optimal one when agent 1 speaks
    if system.sigma_s2_sq is None:
        raise ValueError("kl mode needs sigma_s2_sq (partner-state prior variance) in the system file")
    pair = lr.optimal_variances(system.Kstar, w1_sq, w2_sq, speaker=1)
    sigma1_sq = pair.sigma1_sq if args.sigma1_sq is None else args.sigma1_sq
    sigma2_sq = pair.sigma2_sq if args.sigma2_sq is None else args.sigma2_sq
    return {
        "mode": "kl",
        "sigma1_sq": sigma1_sq,
        "sigma2_sq": sigma2_sq,
        "sigma_s2_sq": system.sigma_s2_sq,
        "expected_kl": lr.expected_kl(system.Kstar, sigma1_sq, sigma2_sq, w1_sq, w2_sq, system.sigma_s2_sq),
    }


def _cmd_simulate(args) -> int:
    if not 0 <= args.seed <= MAX_SEED:
        raise ConfigError(f"--seed must be in [0, {MAX_SEED}], got {args.seed}")
    period = args.T if args.strategy in ("explicit", "dynamic") else 0
    # a bad config file is reported before a bad condition
    config = bench_mod.config_from_dict(_load_json(args.config, "config")) if args.config else None
    env = None if args.env is None else decode(Environment, _load_json(args.env, "environment"), "environment")
    n = args.n if env is None else len(env.obstacles)
    condition = bench_mod.Condition(args.strategy, period, n, args.geometry, args.cv)
    if config is None:
        config = bench_mod.BenchmarkConfig(conditions=(condition,))
    if env is None:
        env = generate_environment(args.seed, n, condition.geometry_mode(config.radii), config.workspace)
    if args.trajectory_out is not None:
        # created before the game, so a bad path fails before it is played
        open(args.trajectory_out, "w").close()
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
    """The bench config file with the command line's overrides applied."""
    config = bench_mod.config_from_dict(_load_json(args.config, "config"))
    kwargs = {}
    if args.games is not None:
        kwargs["games_per_condition"] = args.games
    if args.base_seed is not None:
        kwargs["base_seed"] = args.base_seed
    if kwargs:
        config = replace(config, **kwargs)
    return config


def _cmd_bench(args) -> int:
    config = _bench_config_for_cli(args)
    # --out is created first, so a bad path fails before any game is played;
    # a config error (such as every seed failing generation) leaves no new
    # directory behind
    out = Path(args.out)
    fresh = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        report = bench_mod.run_benchmark(config, workers=args.workers)
    except ConfigError:
        if fresh:
            out.rmdir()
        raise
    (out / "report.json").write_text(bench_mod.report_json(report), encoding="utf-8")
    (out / "report.csv").write_text(bench_mod.report_csv(report), encoding="utf-8")
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors, its subcommands' included, leave through
    `main`'s one error line rather than argparse's usage block and exit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads a value such as -1e-3 or -inf as an option
        self._negative_number_matcher = self

    @staticmethod
    def match(token: str) -> bool:
        """Whether a token that starts with "-" is a number rather than an option."""
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_an.add_argument("--drift", type=float, nargs="+", default=None)
    p_an.add_argument("--sigma1-sq", dest="sigma1_sq", type=float, default=None)
    p_an.add_argument("--sigma2-sq", dest="sigma2_sq", type=float, default=None)
    p_an.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run one table-carrying game")
    p_sim.add_argument("--env", default=None, help="JSON environment file")
    p_sim.add_argument("--seed", type=int, default=0, help="environment/game seed")
    p_sim.add_argument("--n", type=int, default=2, help="obstacle count for generated envs")
    p_sim.add_argument("--geometry", choices=GEOMETRY_KINDS, default="known")
    p_sim.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="dynamic",
    )
    p_sim.add_argument("--T", type=int, default=1, help="period for explicit/dynamic")
    p_sim.add_argument("--cv", type=float, default=0.0, help="noise coefficient of variation")
    p_sim.add_argument("--config", default=None, help="JSON config for field/limits/workspace")
    p_sim.add_argument("--trajectory-out", dest="trajectory_out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a Monte-Carlo benchmark config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--games", type=int, default=None, help="override games per condition")
    p_bench.add_argument("--base-seed", dest="base_seed", type=int, default=None)
    p_bench.add_argument("--workers", type=int, default=1, help="worker processes; 1 or fewer plays serially")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, GenerationError, OSError) as exc:
        # every usage, config or input error, and an output path that cannot
        # be created or written, ends the command with one error line
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

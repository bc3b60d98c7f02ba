"""Monte-Carlo benchmark harness for the table-carrying game.

Runs a grid of (strategy, period, obstacle count, geometry, noise) conditions
so that conditions can be compared pairwise game by game: before any game,
each seed's environment is generated once per (n, geometry), in the calling
process, then played by every condition sharing it; with a process pool,
the calling process hashes them while the workers play. Aggregation is keyed
by seed and sorted, so the report is bit-identical for any worker count or
completion order. The module global `ProcessPoolExecutor` names the process
pool class; it is None until set, and a run on more than one worker then
imports concurrent.futures' own: that module loads multiprocessing, socket,
logging and subprocess, which a 1-worker run, a single game and the
analysis never need. hashlib, which loads OpenSSL, is imported the same way,
by the two functions that hash.
Reports carry the full config echo plus a fingerprint of that config and of
``rolecomms.__version__``, and deliberately no timestamps: rerunning an
identical config must reproduce the report byte for byte, whether the package
runs from ``src/`` or is installed.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .codec import decode, encode
from .errors import ComparisonError, ConfigError, GenerationError
from .potential_field import FieldParams
from .table_sim import (
    GEOMETRY_KINDS,
    GeometryMode,
    KnownRadius,
    Limits,
    Strategy,
    UnknownRadius,
    Workspace,
    check_finite_commands,
    generate_environment,
    run_game,
)

FORMAT_VERSION = 1

# seeds per task: each task plays every condition of one (n, geometry) on up to this many
CHUNK_SEEDS = 5

REPORT_CSV_HEADER = "strategy,T,n,cv,lambda,failure_mean_steps,games"

# declared upper bounds on the work a config asks for, far above the committed
# configs (8 obstacles, 1,000 games per condition): a larger obstacle count
# would grow an environment without limit, a larger game count the seed list
MAX_OBSTACLES = 1_000
MAX_GAMES = 100_000


@dataclass(frozen=True)
class Condition:
    """One benchmark cell: a table_sim.Strategy (name, period T, noise cv)
    played on n obstacles of the given geometry."""

    strategy: str
    # decoder defaults: a config may omit T, geometry and cv
    T: int = field(metadata={"default": 0})
    n: int
    geometry: str = field(metadata={"default": "known"})
    cv: float = field(metadata={"default": 0.0})

    def __post_init__(self):
        try:
            # the strategy's own rules on name, T and cv, checked before any game runs
            self.comm_strategy()
        except ValueError as exc:
            raise ConfigError(f"{self.strategy}: {exc}") from exc
        if self.geometry not in GEOMETRY_KINDS:
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if not 0 <= self.n <= MAX_OBSTACLES:
            raise ConfigError(f"obstacle count must be in [0, {MAX_OBSTACLES}]")

    def comm_strategy(self) -> Strategy:
        return Strategy(self.strategy, self.T, self.cv)

    def geometry_mode(self, radii: "RadiusSpec") -> GeometryMode:
        # RadiusSpec names each geometry's parameters as the geometry does
        mode = GEOMETRY_KINDS[self.geometry]
        return mode(*(getattr(radii, f.name) for f in fields(mode)))

    def key(self) -> tuple:
        return (self.strategy, self.T, self.n, self.geometry, self.cv)


@dataclass(frozen=True)
class RadiusSpec:
    """The obstacle radii of both geometries: known's r_fixed, and
    unknown's sampling range [r_min, r_max]."""

    r_fixed: float = 0.5
    r_min: float = 0.3
    r_max: float = 0.7

    def __post_init__(self):
        # the radius rules games apply, checked before any game runs
        KnownRadius(self.r_fixed)
        UnknownRadius(self.r_min, self.r_max)


@dataclass(frozen=True)
class TrendAssert:
    """A trend check evaluated by `rolecomms bench` after the run.

    kind "greater": condition a beats condition b (paired sign test when
    significant=True). kind "at_least": condition a's success rate is at
    least `value`. Each kind rejects the fields only the other reads.
    """

    kind: str
    a: Condition
    b: Condition | None = field(default=None, metadata={"echo_if": lambda ta: ta.b is not None})
    value: float | None = field(default=None, metadata={"echo_if": lambda ta: ta.value is not None})
    significant: bool = field(default=False, metadata={"echo_if": lambda ta: ta.significant})
    alpha: float = field(default=0.05, metadata={"echo_if": lambda ta: ta.significant})

    def __post_init__(self):
        if self.kind not in ("greater", "at_least"):
            raise ConfigError(f"unknown assert kind {self.kind!r}")
        if self.kind == "greater" and (self.b is None or self.value is not None):
            raise ConfigError("'greater' asserts need a second condition and take no value")
        if self.kind == "at_least" and (
            self.value is None or self.b is not None or self.significant or self.alpha != 0.05
        ):
            raise ConfigError("'at_least' asserts need a value and take no b, significant or alpha")
        if self.value is not None and not 0.0 <= self.value <= 1.0:
            raise ConfigError(f"value must be in [0, 1], got {self.value}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.kind == "greater" and (self.a.n, self.a.geometry) != (self.b.n, self.b.geometry):
            raise ConfigError("'greater' asserts compare two conditions of one (n, geometry)")


@dataclass(frozen=True)
class BenchmarkConfig:
    """A bench config: the conditions, the games and seeds they share, the
    game's field, limits, workspace and radii, and the trend asserts."""

    conditions: tuple[Condition, ...]
    games_per_condition: int = 1000
    base_seed: int = 20260809
    field_params: FieldParams = field(default=FieldParams(), metadata={"key": "field"})
    limits: Limits = Limits()
    workspace: Workspace = Workspace()
    radii: RadiusSpec = RadiusSpec()
    asserts: tuple[TrendAssert, ...] = ()

    def __post_init__(self):
        if not self.conditions:
            raise ConfigError("at least one condition is required")
        if not 1 <= self.games_per_condition <= MAX_GAMES:
            raise ConfigError(f"games_per_condition must be in [1, {MAX_GAMES}]")
        keys = [condition.key() for condition in self.conditions]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ConfigError(f"condition {key} is listed twice")
        for ta in self.asserts:
            for condition in (ta.a, ta.b):
                if condition is not None and condition.key() not in keys:
                    raise ConfigError(f"assert names condition {condition.key()}, which is not configured")
        try:
            # an agent owns at most n obstacles and acts on one more
            n_max = max(condition.n for condition in self.conditions)
            check_finite_commands(self.field_params, n_max + 1, max(condition.cv for condition in self.conditions))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class ConditionResult(NamedTuple):
    condition: Condition
    seeds: tuple[int, ...]
    steps: tuple[int, ...]
    failure_kinds: tuple[str, ...]
    skipped_seeds: tuple[int, ...]
    env_hash: str

    @property
    def games(self) -> int:
        return len(self.seeds)

    @property
    def success(self) -> tuple[bool, ...]:
        """Per game, whether it succeeded: failure kind "none", as SimOutcome.success."""
        return tuple(kind == "none" for kind in self.failure_kinds)

    @property
    def successes(self) -> int:
        return sum(self.success)

    @property
    def lambda_(self) -> float:
        return self.successes / self.games

    @property
    def failure_mean_steps(self) -> float | None:
        fail_steps = [s for s, ok in zip(self.steps, self.success) if not ok]
        if not fail_steps:
            return None
        return sum(fail_steps) / len(fail_steps)


class BenchmarkReport(NamedTuple):
    config: dict
    fingerprint: str
    results: tuple[ConditionResult, ...]

    def result_for(self, condition: Condition) -> ConditionResult:
        for r in self.results:
            if r.condition.key() == condition.key():
                return r
        raise KeyError(f"condition {condition} not in report")


# ---------------------------------------------------------------------------
# execution


# the pool class run_benchmark uses on more than one worker; None imports
# concurrent.futures' ProcessPoolExecutor at that first use, and a class set
# here by name is the one that runs
ProcessPoolExecutor = None


def _run_chunk(args) -> list[tuple[int, int, int, str]]:
    """Worker task: play each (condition_index, Strategy) of strategies on
    each (seed, environment) of games; returns (condition_index, seed,
    steps, failure_kind) rows."""
    strategies, field_params, limits, games = args
    rows = []
    for seed, env in games:
        for cond_idx, strategy in strategies:
            outcome = run_game(env, strategy, field_params, limits, seed)
            rows.append((cond_idx, seed, outcome.steps, outcome.failure_kind))
    return rows


def _env_sequence_hash(seeds, envs) -> str:
    """Digest of one (n, geometry) environment sequence as played: seed by
    seed, skip:{seed} where envs holds None, else the environment's
    canonical JSON bytes."""
    import hashlib

    digest = hashlib.sha256()
    for seed, env in zip(seeds, envs):
        if env is None:
            digest.update(f"skip:{seed}".encode())
        else:
            digest.update(json.dumps(encode(env), sort_keys=True, separators=(",", ":")).encode())
    return digest.hexdigest()


def config_fingerprint(config_echo: dict) -> str:
    """Digest binding a report to the exact config AND code version.

    The version is ``rolecomms.__version__``, the one the code declares, so
    the fingerprint is the same whether the package runs from ``src/`` or is
    installed. It is read from the package at each call, not bound when this
    module is imported, so the digest always hashes the package attribute.
    """
    import hashlib

    from . import __version__

    canonical = json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
    payload = f"rolecomms {__version__}\x00{canonical}"
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def run_benchmark(config: BenchmarkConfig, workers: int = 1) -> BenchmarkReport:
    """Run every condition over the shared seed sequence and aggregate.

    Environments for game i come from seed base_seed + i, identically for
    every condition with the same (n, geometry), which makes cross-strategy
    comparisons paired. Before any game, each such key's environments are
    generated once, seed by seed; seeds whose generation fails are skipped
    for every condition of the key, and a key with every seed skipped raises
    ConfigError. A task then plays every condition of one key on up to
    CHUNK_SEEDS of its environments. Every task is submitted before the
    calling process hashes each key's environment sequence, so that a pool
    plays while it hashes. The result is independent of `workers`, and at
    most one process per task and per usable CPU starts: the CPUs this
    process may run on where the platform reports them (a `taskset` or cpuset
    narrows them), else `os.cpu_count()`. More than one worker runs the tasks
    on the module global `ProcessPoolExecutor`, or, while it is None, on
    concurrent.futures' own, imported then; one worker plays them in this
    process and never imports it.
    """
    seeds = [config.base_seed + i for i in range(config.games_per_condition)]
    sharing: dict[tuple, list[int]] = {}
    for cond_idx, condition in enumerate(config.conditions):
        sharing.setdefault((condition.n, condition.geometry), []).append(cond_idx)
    # per key, each seed's environment, None where its generation failed
    generated: dict[tuple, list] = {}
    tasks = []
    for key, cond_idxs in sharing.items():
        condition = config.conditions[cond_idxs[0]]
        mode = condition.geometry_mode(config.radii)
        envs = generated[key] = []
        for seed in seeds:
            try:
                envs.append(generate_environment(seed, condition.n, mode, config.workspace))
            except GenerationError:
                envs.append(None)
        games = [(seed, env) for seed, env in zip(seeds, envs) if env is not None]
        if not games:
            raise ConfigError(f"{condition}: every seed failed environment generation")
        strategies = [(i, config.conditions[i].comm_strategy()) for i in cond_idxs]
        for lo in range(0, len(games), CHUNK_SEEDS):
            tasks.append((strategies, config.field_params, config.limits, games[lo : lo + CHUNK_SEEDS]))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(tasks), cpus)
    if workers > 1 and any(condition.cv > 0 for condition in config.conditions):
        # a noisy game's stream loads numpy; loaded here, every forked worker
        # inherits it instead of importing it itself
        import numpy  # noqa: F401
    pool_class = ProcessPoolExecutor
    if workers > 1 and pool_class is None:
        from concurrent.futures import ProcessPoolExecutor as pool_class
    with pool_class(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # pool.map submits every task at once, so the workers play while this process hashes
        chunks = (map if pool is None else pool.map)(_run_chunk, tasks)
        env_hash = {key: _env_sequence_hash(seeds, envs) for key, envs in generated.items()}
        outcomes = {(cond_idx, seed): (steps, kind) for rows in chunks for cond_idx, seed, steps, kind in rows}

    results = []
    for cond_idx, condition in enumerate(config.conditions):
        key = (condition.n, condition.geometry)
        kept = tuple(seed for seed, env in zip(seeds, generated[key]) if env is not None)
        results.append(
            ConditionResult(
                condition=condition,
                seeds=kept,
                steps=tuple(outcomes[cond_idx, s][0] for s in kept),
                failure_kinds=tuple(outcomes[cond_idx, s][1] for s in kept),
                skipped_seeds=tuple(seed for seed, env in zip(seeds, generated[key]) if env is None),
                env_hash=env_hash[key],
            )
        )

    echo = config_to_dict(config)
    return BenchmarkReport(
        config=echo,
        fingerprint=config_fingerprint(echo),
        results=tuple(results),
    )


# ---------------------------------------------------------------------------
# paired comparison


def sign_test_p(n_pos: int, n_neg: int) -> float:
    """Two-sided exact sign test p-value for discordant-pair counts.

    Zero discordant pairs gives p = 1 by convention. Computed with exact
    integer binomial tail sums, so extreme splits underflow gracefully.
    """
    n = n_pos + n_neg
    if n == 0:
        return 1.0
    k = min(n_pos, n_neg)
    tail = sum(math.comb(n, i) for i in range(k + 1))
    p = 2 * tail / (1 << n)
    return min(1.0, p)


class Comparison(NamedTuple):
    delta_lambda: float
    n_pos: int  # a succeeded where b failed
    n_neg: int  # b succeeded where a failed
    p_value: float


def compare_conditions(
    report: BenchmarkReport, cond_a: Condition, cond_b: Condition
) -> Comparison:
    """Paired difference in success between two conditions of one report.

    Requires both conditions to have been run on the same seed sequence and
    the same environments; raises ComparisonError otherwise.
    """
    ra = report.result_for(cond_a)
    rb = report.result_for(cond_b)
    if ra.seeds != rb.seeds:
        raise ComparisonError("conditions were not run on the same seed sequence")
    if ra.env_hash != rb.env_hash:
        raise ComparisonError("conditions were not run on the same environments")
    n_pos = sum(1 for sa, sb in zip(ra.success, rb.success) if sa and not sb)
    n_neg = sum(1 for sa, sb in zip(ra.success, rb.success) if sb and not sa)
    return Comparison(
        delta_lambda=ra.lambda_ - rb.lambda_,
        n_pos=n_pos,
        n_neg=n_neg,
        p_value=sign_test_p(n_pos, n_neg),
    )


def evaluate_asserts(report: BenchmarkReport, asserts) -> list[str]:
    """Check each trend assert; returns a list of human-readable failures."""
    failures = []
    for ta in asserts:
        if ta.kind == "at_least":
            lam = report.result_for(ta.a).lambda_
            if lam < ta.value:
                failures.append(
                    f"lambda{ta.a.key()} = {lam:.4f} below required {ta.value}"
                )
        else:
            cmp = compare_conditions(report, ta.a, ta.b)
            if cmp.delta_lambda <= 0:
                failures.append(
                    f"lambda{ta.a.key()} - lambda{ta.b.key()} = {cmp.delta_lambda:.4f}, expected > 0"
                )
            elif ta.significant and cmp.p_value >= ta.alpha:
                failures.append(
                    f"gap {ta.a.key()} > {ta.b.key()} not significant "
                    f"(p = {cmp.p_value:.4g} >= {ta.alpha})"
                )
    return failures


# ---------------------------------------------------------------------------
# config and report serialization


def config_to_dict(config: BenchmarkConfig) -> dict:
    """The config echo: the JSON form of `config` that reports carry."""
    return {"format_version": FORMAT_VERSION, **encode(config)}


def config_from_dict(d: dict) -> BenchmarkConfig:
    """Parse and strictly validate a benchmark config.

    The schema is the dataclasses of this module, decoded by codec.decode:
    every key names a field, every section but the conditions has a
    committed default, unknown keys are rejected and scalars must have their
    field's JSON type. Any invalid config raises ConfigError, which
    `rolecomms` reports with exit code 2.
    """
    if not isinstance(d, dict):
        raise ConfigError("config root must be a JSON object")
    d = dict(d)
    version = d.pop("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version!r}")
    return decode(BenchmarkConfig, d, "config")


def report_to_dict(report: BenchmarkReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "benchmark_report",
        "fingerprint": report.fingerprint,
        "pairing": "environment for game i is generated from seed base_seed+i, shared by all conditions with equal (n, geometry)",
        "config": report.config,
        "conditions": [
            {
                **encode(r.condition),
                "games": r.games,
                "successes": r.successes,
                "lambda": r.lambda_,
                "failure_mean_steps": r.failure_mean_steps,
                "failures": {
                    "collision": r.failure_kinds.count("collision"),
                    "timeout": r.failure_kinds.count("timeout"),
                },
                "env_hash": r.env_hash,
                "skipped_seeds": list(r.skipped_seeds),
                "outcomes": {
                    "seeds": list(r.seeds),
                    "success": [int(s) for s in r.success],
                    "steps": list(r.steps),
                    "failure_kinds": list(r.failure_kinds),
                },
            }
            for r in report.results
        ],
    }


def report_json(report: BenchmarkReport) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"


def report_csv(report: BenchmarkReport) -> str:
    """Flat per-condition summary; failure_mean_steps is empty when a
    condition has no failures."""
    lines = [REPORT_CSV_HEADER]
    for r in report.results:
        fms = r.failure_mean_steps
        lines.append(
            ",".join(
                [
                    r.condition.strategy,
                    str(r.condition.T),
                    str(r.condition.n),
                    format(r.condition.cv, ".12g"),
                    format(r.lambda_, ".12g"),
                    "" if fms is None else format(fms, ".12g"),
                    str(r.games),
                ]
            )
        )
    return "\n".join(lines) + "\n"

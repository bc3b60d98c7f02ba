import hashlib
import importlib.metadata
import json
import os
from pathlib import Path

import pytest

import rolecomms
from rolecomms import bench
from rolecomms.bench import (
    BenchmarkConfig,
    Condition,
    ConditionResult,
    BenchmarkReport,
    TrendAssert,
    compare_conditions,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    evaluate_asserts,
    report_csv,
    report_json,
    run_benchmark,
    sign_test_p,
)
from rolecomms.codec import decode, encode
from rolecomms.errors import ComparisonError, ConfigError, GenerationError
from rolecomms.linear_roles import SystemFile
from rolecomms.potential_field import FieldParams
from rolecomms.table_sim import (
    MAX_RETRY_CAP,
    MAX_STEPS,
    Environment,
    KnownRadius,
    Limits,
    Workspace,
    generate_environment,
)


def small_config(conditions, games=30, **kwargs):
    return BenchmarkConfig(
        conditions=tuple(conditions),
        games_per_condition=games,
        base_seed=100,
        **kwargs,
    )


@pytest.fixture()
def pool_sizes(monkeypatch):
    """The max_workers of each pool run_benchmark builds, in a stand-in
    pool that plays its tasks in this process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
    return sizes


class TestSignTest:
    def test_no_discordance_is_one(self):
        assert sign_test_p(0, 0) == 1.0

    def test_balanced_pair(self):
        assert sign_test_p(1, 1) == 1.0

    def test_three_zero(self):
        assert sign_test_p(3, 0) == pytest.approx(0.25)

    def test_hundred_zero(self):
        assert sign_test_p(100, 0) == pytest.approx(2.0 * 0.5**100)
        assert sign_test_p(100, 0) < 1e-20

    def test_symmetry(self):
        assert sign_test_p(7, 2) == sign_test_p(2, 7)

    def test_capped_at_one(self):
        assert sign_test_p(5, 5) == 1.0


class TestConditionValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            Condition("telepathy", 0, 2, "known", 0.0)

    def test_dynamic_needs_period(self):
        with pytest.raises(ConfigError):
            Condition("dynamic", 0, 2, "known", 0.0)

    def test_static_takes_no_period(self):
        with pytest.raises(ConfigError):
            Condition("speaker_speaker", 4, 2, "known", 0.0)

    def test_explicit_allows_realtime(self):
        Condition("explicit", 0, 2, "known", 0.0)

    def test_counts_are_accepted_up_to_their_declared_bounds(self):
        # the bounds are inclusive; one beyond each exits 2 (test_cli)
        condition = Condition("dynamic", 1, bench.MAX_OBSTACLES, "known", 0.0)
        config = small_config(
            [condition],
            games=bench.MAX_GAMES,
            limits=Limits(max_steps=MAX_STEPS),
            workspace=Workspace(retry_cap=MAX_RETRY_CAP),
        )
        assert config.conditions[0].n == bench.MAX_OBSTACLES

    def test_strategy_construction(self):
        explicit = Condition("explicit", 4, 2, "known", 0.1).comm_strategy()
        assert (explicit.name, explicit.period, explicit.noise_cv) == ("explicit", 4, 0.1)
        dynamic = Condition("dynamic", 2, 2, "known", 0.0).comm_strategy()
        assert (dynamic.name, dynamic.period) == ("dynamic", 2)
        sl = Condition("speaker_listener", 0, 2, "known", 0.0).comm_strategy()
        assert (sl.name, sl.period) == ("speaker_listener", 0)


class TestRunBenchmark:
    def test_no_obstacles_all_strategies_succeed(self):
        conditions = [
            Condition("explicit", 0, 0, "known", 0.0),
            Condition("dynamic", 1, 0, "known", 0.0),
            Condition("speaker_listener", 0, 0, "known", 0.0),
            Condition("speaker_speaker", 0, 0, "known", 0.0),
        ]
        report = run_benchmark(small_config(conditions, games=10))
        for r in report.results:
            assert r.lambda_ == 1.0
            assert r.failure_mean_steps is None

    def test_bit_identical_reruns(self):
        conditions = [Condition("dynamic", 1, 4, "known", 0.1)]
        a = run_benchmark(small_config(conditions))
        b = run_benchmark(small_config(conditions))
        assert report_json(a) == report_json(b)
        assert report_csv(a) == report_csv(b)

    def test_worker_count_never_changes_output(self):
        # two (n, geometry) keys, so that tasks of both are in the pool at once
        conditions = [
            Condition("dynamic", 1, 4, "known", 0.0),
            Condition("speaker_speaker", 0, 4, "known", 0.0),
            Condition("dynamic", 1, 2, "known", 0.0),
        ]
        serial = run_benchmark(small_config(conditions), workers=1)
        pooled = run_benchmark(small_config(conditions), workers=3)
        assert report_json(serial) == report_json(pooled)

    def test_each_environment_generated_once_per_key_and_seed(self, monkeypatch):
        calls = []
        generate = bench.generate_environment

        def counting_generate(*args, **kwargs):
            calls.append(args[:2])
            return generate(*args, **kwargs)

        monkeypatch.setattr(bench, "generate_environment", counting_generate)
        conditions = [
            Condition(strategy, T, n, "known", 0.0)
            for n in (2, 4)
            for strategy, T in (("dynamic", 1), ("speaker_speaker", 0), ("explicit", 0))
        ]
        run_benchmark(small_config(conditions, games=10))
        # once per key and seed; the tasks play the environments they are given
        assert len(calls) == 2 * 10
        assert sorted(set(calls)) == [(100 + i, n) for i in range(10) for n in (2, 4)]

    def test_paired_environment_hash(self):
        conditions = [
            Condition("dynamic", 1, 4, "known", 0.0),
            Condition("speaker_speaker", 0, 4, "known", 0.0),
            Condition("dynamic", 1, 2, "known", 0.0),
        ]
        report = run_benchmark(small_config(conditions, games=10))
        by_key = {r.condition.key(): r for r in report.results}
        assert (
            by_key[("dynamic", 1, 4, "known", 0.0)].env_hash
            == by_key[("speaker_speaker", 0, 4, "known", 0.0)].env_hash
        )
        assert (
            by_key[("dynamic", 1, 4, "known", 0.0)].env_hash
            != by_key[("dynamic", 1, 2, "known", 0.0)].env_hash
        )

    def test_partial_skips_are_paired_and_partition_the_seeds(self):
        # a tight workspace: 19 of the 40 default-base-seed environments with
        # 8 obstacles fail generation
        conditions = [
            Condition("dynamic", 1, 8, "known", 0.0),
            Condition("speaker_speaker", 0, 8, "known", 0.0),
        ]
        config = BenchmarkConfig(
            conditions=tuple(conditions),
            games_per_condition=40,
            workspace=Workspace(clearance=3.2, retry_cap=3),
        )
        report = run_benchmark(config)
        sequence = [config.base_seed + i for i in range(40)]
        first, second = report.results
        assert len(first.skipped_seeds) == 19
        assert first.skipped_seeds == second.skipped_seeds
        # the hash of the sequence: a skip mark or the environment's canonical JSON, seed by seed
        digest = hashlib.sha256()
        for seed in sequence:
            try:
                env = generate_environment(seed, 8, KnownRadius(0.5), config.workspace)
            except GenerationError:
                digest.update(f"skip:{seed}".encode())
            else:
                digest.update(json.dumps(encode(env), sort_keys=True, separators=(",", ":")).encode())
        assert first.env_hash == second.env_hash == digest.hexdigest()
        for r in report.results:
            assert not set(r.seeds) & set(r.skipped_seeds)
            assert sorted(r.seeds + r.skipped_seeds) == sequence
            assert r.games == 21

    def test_pool_never_larger_than_task_count(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        # one key, so one task per CHUNK_SEEDS seeds
        config = small_config([Condition("dynamic", 1, 2, "known", 0.0)], games=3 * bench.CHUNK_SEEDS)
        pooled = run_benchmark(config, workers=64)
        assert pool_sizes == [3]
        assert report_json(pooled) == report_json(run_benchmark(config))

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch, pool_sizes):
        # a platform without affinity sets falls back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        config = small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=8 * bench.CHUNK_SEEDS)
        for workers in (0, 1, 3, 10_000):
            run_benchmark(config, workers=workers)
        assert pool_sizes == [3, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        run_benchmark(config, workers=8)
        assert pool_sizes == [3, 4]

    def test_worker_count_clamped_to_cpu_affinity(self, monkeypatch, pool_sizes):
        # taskset -c 0 on a 4-CPU host: one usable core, whatever the CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        config = small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=8 * bench.CHUNK_SEEDS)
        run_benchmark(config, workers=2)
        assert pool_sizes == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 2, 3}, raising=False)
        run_benchmark(config, workers=10_000)
        run_benchmark(config, workers=2)
        assert pool_sizes == [3, 2]

    def test_lambda_is_exact_ratio(self):
        report = run_benchmark(small_config([Condition("speaker_speaker", 0, 8, "known", 0.0)]))
        r = report.results[0]
        assert r.lambda_ == r.successes / r.games

    def test_fingerprint_tracks_config(self):
        a = run_benchmark(small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=5))
        b = run_benchmark(small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=6))
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_ignores_install_metadata(self, monkeypatch):
        echo = config_to_dict(small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=5))

        monkeypatch.setattr(importlib.metadata, "version", lambda name: "9.9.9")
        installed_elsewhere = config_fingerprint(echo)

        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        assert config_fingerprint(echo) == installed_elsewhere

        monkeypatch.setattr(rolecomms, "__version__", "9.9.9")
        assert config_fingerprint(echo) != installed_elsewhere

    def test_package_version_is_declared_once(self):
        # the installed metadata reads its version from rolecomms.__version__,
        # the one the fingerprint hashes, so a version bump edits one file
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "rolecomms.__version__"}


class TestCompare:
    def synthetic_report(self, success_a, success_b):
        seeds = tuple(range(len(success_a)))
        cond_a = Condition("dynamic", 1, 2, "known", 0.0)
        cond_b = Condition("speaker_speaker", 0, 2, "known", 0.0)
        results = []
        for cond, succ in ((cond_a, success_a), (cond_b, success_b)):
            results.append(
                ConditionResult(
                    condition=cond,
                    seeds=seeds,
                    steps=tuple(100 for _ in seeds),
                    failure_kinds=tuple("none" if s else "timeout" for s in succ),
                    skipped_seeds=(),
                    env_hash="x",
                )
            )
        return BenchmarkReport(config={}, fingerprint="sha256:test", results=tuple(results)), cond_a, cond_b

    def test_self_comparison(self):
        report, cond_a, _ = self.synthetic_report([True] * 10, [False] * 10)
        cmp = compare_conditions(report, cond_a, cond_a)
        assert cmp.delta_lambda == 0.0
        assert cmp.p_value == 1.0

    def test_all_success_vs_all_failure(self):
        report, cond_a, cond_b = self.synthetic_report([True] * 100, [False] * 100)
        cmp = compare_conditions(report, cond_a, cond_b)
        assert cmp.delta_lambda == 1.0
        assert cmp.n_pos == 100 and cmp.n_neg == 0
        assert cmp.p_value < 1e-20

    def test_mismatched_seeds_rejected(self):
        report, cond_a, cond_b = self.synthetic_report([True] * 10, [False] * 10)
        clipped = ConditionResult(
            condition=cond_b,
            seeds=tuple(range(5)),
            steps=(10,) * 5,
            failure_kinds=("none",) * 5,
            skipped_seeds=(),
            env_hash="x",
        )
        broken = BenchmarkReport(
            config={}, fingerprint="f", results=(report.results[0], clipped)
        )
        with pytest.raises(ComparisonError):
            compare_conditions(broken, cond_a, cond_b)

    def test_mismatched_environments_rejected(self):
        report, cond_a, cond_b = self.synthetic_report([True] * 10, [False] * 10)
        other_env = report.results[1]._replace(env_hash="y")
        broken = BenchmarkReport(
            config={}, fingerprint="f", results=(report.results[0], other_env)
        )
        with pytest.raises(ComparisonError):
            compare_conditions(broken, cond_a, cond_b)

    def test_failure_mean_excludes_successes(self):
        seeds = (0, 1, 2, 3)
        r = ConditionResult(
            condition=Condition("dynamic", 1, 2, "known", 0.0),
            seeds=seeds,
            steps=(50, 120, 200, 60),
            failure_kinds=("none", "collision", "timeout", "none"),
            skipped_seeds=(),
            env_hash="x",
        )
        assert r.failure_mean_steps == pytest.approx((120 + 200) / 2)

    def test_evaluate_asserts(self):
        report, cond_a, cond_b = self.synthetic_report([True] * 50, [False] * 50)
        ok = evaluate_asserts(
            report,
            [
                TrendAssert(kind="greater", a=cond_a, b=cond_b, significant=True),
                TrendAssert(kind="at_least", a=cond_a, value=0.9),
            ],
        )
        assert ok == []
        bad = evaluate_asserts(
            report,
            [
                TrendAssert(kind="greater", a=cond_b, b=cond_a),
                TrendAssert(kind="at_least", a=cond_b, value=0.5),
            ],
        )
        assert len(bad) == 2


class TestConfigSerialization:
    def test_round_trip(self, table1_config_dict):
        config = config_from_dict(table1_config_dict)
        again = config_from_dict(config_to_dict(config))
        assert config == again

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"conditions": [{"strategy": "explicit", "n": 0}], "typo": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {
                    "conditions": [{"strategy": "explicit", "n": 0}],
                    "field": {"w_att": 1.0, "bogus": 2.0},
                }
            )

    def test_unknown_condition_key(self):
        with pytest.raises(ConfigError):
            config_from_dict({"conditions": [{"strategy": "explicit", "n": 0, "speed": 3}]})

    def test_missing_conditions(self):
        with pytest.raises(ConfigError):
            config_from_dict({"games_per_condition": 5})

    def test_defaults_applied(self):
        config = config_from_dict({"conditions": [{"strategy": "explicit", "n": 0}]})
        assert config.games_per_condition == 1000
        assert config.limits.max_steps == 200
        assert config.field_params.w_att == 1.0

    def test_committed_configs_parse(self, config_dir, golden_dir):
        raws = []
        for name in ("table1.json", "fig3.json", "noise.json"):
            raw = json.loads((config_dir / name).read_text())
            config = config_from_dict(raw)
            assert config.games_per_condition == 1000
            assert config.base_seed == 0
            raws.append(raw)
        raws.append(json.loads((golden_dir / "tiny_report.json").read_text())["config"])
        for raw in raws:
            # each committed config is its own echo
            assert config_to_dict(config_from_dict(raw)) == raw

    @pytest.mark.parametrize("section", [{"w_att": 1.0}, {}, None])
    def test_partial_field_section_takes_each_field_default(self, section):
        raw = {"conditions": [{"strategy": "explicit", "n": 0}]}
        if section is not None:
            raw["field"] = section
        assert config_from_dict(raw).field_params == FieldParams(1.0, 1.0, 0.1, 1.0)

    def test_environment_points_are_plain_tuples(self, config_dir):
        raw = json.loads((config_dir / "fig2_env.json").read_text())
        env = decode(Environment, raw, "environment")
        points = [env.start, env.goal, *(o.center for o in env.obstacles)]
        assert points and all(type(p) is tuple and len(p) == 2 for p in points)
        assert encode(env) == raw
        workspace = config_from_dict({"conditions": [{"strategy": "explicit", "n": 0}], "workspace": {}}).workspace
        assert type(workspace.start) is tuple and type(workspace.goal) is tuple

    @pytest.mark.parametrize(
        "name, tp", [("fig2_env.json", Environment), ("unstable_system.json", SystemFile)]
    )
    def test_committed_input_files_are_their_own_echo(self, config_dir, name, tp):
        raw = json.loads((config_dir / name).read_text())
        assert encode(decode(tp, raw, name)) == raw


class TestReportFormats:
    def test_csv_header_and_shape(self):
        report = run_benchmark(
            small_config(
                [
                    Condition("dynamic", 1, 0, "known", 0.0),
                    Condition("explicit", 0, 0, "known", 0.1),
                ],
                games=5,
            )
        )
        lines = report_csv(report).splitlines()
        assert lines[0] == "strategy,T,n,cv,lambda,failure_mean_steps,games"
        assert lines[1] == "dynamic,1,0,0,1,,5"
        assert lines[2] == "explicit,0,0,0.1,1,,5"

    def test_json_shape(self):
        report = run_benchmark(small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=4))
        doc = json.loads(report_json(report))
        assert doc["format_version"] == 1
        assert doc["kind"] == "benchmark_report"
        assert doc["fingerprint"].startswith("sha256:")
        cond = doc["conditions"][0]
        assert cond["lambda"] == 1.0
        assert cond["outcomes"]["seeds"] == [100, 101, 102, 103]
        assert set(cond["failures"]) == {"collision", "timeout"}
        assert doc["config"]["base_seed"] == 100

    def test_json_is_sorted_and_newline_terminated(self):
        report = run_benchmark(small_config([Condition("dynamic", 1, 0, "known", 0.0)], games=3))
        text = report_json(report)
        assert text.endswith("\n")
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text

    def test_golden_report_files(self, golden_dir):
        config = BenchmarkConfig(
            conditions=(
                Condition("dynamic", 1, 2, "known", 0.0),
                Condition("explicit", 0, 2, "known", 0.1),
            ),
            games_per_condition=6,
            base_seed=42,
        )
        report = run_benchmark(config)
        assert report_json(report) == (golden_dir / "tiny_report.json").read_text()
        assert report_csv(report) == (golden_dir / "tiny_report.csv").read_text()

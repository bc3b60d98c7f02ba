import argparse
import json
import math
import os
from pathlib import Path

import pytest

from rolecomms import bench
from rolecomms.cli import _resolve_workers, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a workspace with no room for any obstacle: every seed of the n = 2
# condition fails generation, while the n = 0 condition could be played
NO_ROOM_CONFIG = {
    "games_per_condition": 3,
    "conditions": [{"strategy": "dynamic", "T": 1, "n": 0}, {"strategy": "dynamic", "T": 1, "n": 2}],
    "workspace": {"clearance": 10.0, "retry_cap": 5},
}


def obstacle(**overrides):
    return {"center": [5.0, 0.3], "radius": 0.5, "owner": 1, **overrides}


def env_file(tmp_path, name, **overrides):
    env = {
        "start": [0.0, 0.0],
        "goal": [10.0, 0.0],
        "geometry_mode": {"kind": "known", "r_fixed": 0.5},
        "obstacles": [],
        **overrides,
    }
    path = tmp_path / name
    path.write_text(json.dumps(env))
    return path


@pytest.fixture()
def system_file(config_dir):
    return str(config_dir / "unstable_system.json")


class TestAnalyze:
    def test_stability_reports_unstable(self, capsys, system_file):
        code, out, _ = run_cli(capsys, "analyze", "--system", system_file, "--mode", "stability")
        assert code == 0
        doc = json.loads(out)
        assert doc["stable"] is False
        assert doc["max_real_part"] == pytest.approx(1.0)

    def test_stability_other_allocations(self, capsys, system_file):
        for alloc in ("speaker_listener_2", "speaker_speaker", "dynamic"):
            code, out, _ = run_cli(
                capsys, "analyze", "--system", system_file, "--mode", "stability",
                "--alloc", alloc,
            )
            assert code == 0
            assert json.loads(out)["allocation"] == alloc

    def test_variances_unit_example(self, capsys, tmp_path):
        system = {
            "A": [[0.0, 0.0], [0.0, 0.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "Kstar": [[1.0, 0.0], [1.0, 1.0]],
            "W": [1.0, 1.0],
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, _ = run_cli(capsys, "analyze", "--system", str(path), "--mode", "variances")
        assert code == 0
        doc = json.loads(out)
        assert doc["sigma1_sq"] == pytest.approx(0.5)
        assert doc["sigma2_sq"] == pytest.approx(1.0)

    def test_rotation_constant_state_all_zero(self, capsys, system_file):
        code, out, _ = run_cli(
            capsys, "analyze", "--system", system_file, "--mode", "rotation",
            "--drift", "0", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(row["sup_deviation"] == 0.0 for row in doc["rows"])

    def test_kl_mode(self, capsys, system_file):
        code, out, _ = run_cli(capsys, "analyze", "--system", system_file, "--mode", "kl")
        assert code == 0
        assert json.loads(out)["expected_kl"] > 0

    def test_malformed_system_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run_cli(capsys, "analyze", "--system", str(bad), "--mode", "stability")
        assert code == 2
        assert "error" in err

    def test_missing_system_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "analyze", "--system", str(tmp_path / "nope.json"), "--mode", "stability"
        )
        assert code == 2
        assert "not found" in err

    def test_unknown_system_key_exits_2(self, capsys, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"A": [[0]], "B": [[1]], "Kstar": [[1]], "bogus": 3}))
        code, _, err = run_cli(capsys, "analyze", "--system", str(path), "--mode", "stability")
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "key, value, start",
        [
            ("sigma_s2_sq", "abc", "system.sigma_s2_sq: "),
            ("sigma_s2_sq", None, "kl mode needs sigma_s2_sq"),
            ("W", ["0.5", "0.25"], "system.W[0]: "),
            ("Kstar", [[1.0, 0.6], [0.7]], "system: Kstar: every row must have the same length"),
            ("A", [[1.0], [0.6, 0.7]], "system: A: every row must have the same length"),
            # beyond the range of a float; JSON writes it out as digits
            ("A", [[10**400, 0], [0, 1]], "system.A[0][0]: "),
        ],
        ids=["string_sigma", "null_sigma", "string_W", "ragged_matrix", "ragged_A", "huge_int"],
    )
    def test_malformed_system_value_exits_2_with_one_error_line(
        self, capsys, tmp_path, system_file, key, value, start
    ):
        system = json.loads(Path(system_file).read_text())
        system[key] = value
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, err = run_cli(capsys, "analyze", "--system", str(path), "--mode", "kl")
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + start) and err.count("\n") == 1


class TestSimulate:
    def test_empty_env_goes_straight(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--seed", "3", "--n", "0", "--strategy", "explicit", "--T", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success"] is True
        assert doc["seed"] == 3

    def test_static_strategy_echoes_the_period_played(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--n", "0", "--strategy", "speaker_speaker", "--T", "5"
        )
        assert code == 0
        assert json.loads(out)["T"] == 0

    def test_fig2_scenario(self, capsys, config_dir, tmp_path):
        traj = tmp_path / "traj.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--env", str(config_dir / "fig2_env.json"),
            "--strategy", "dynamic", "--T", "1", "--seed", "0",
            "--trajectory-out", str(traj),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success"] is True
        header = traj.read_text().splitlines()[0]
        assert header.startswith("step,cx,cy,theta,v1x,v1y,v2x,v2y,role1,role2")

    def test_fig2_speaker_speaker_fails(self, capsys, config_dir):
        code, out, _ = run_cli(
            capsys, "simulate", "--env", str(config_dir / "fig2_env.json"),
            "--strategy", "speaker_speaker", "--seed", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["success"] is False
        assert doc["failure_kind"] == "collision"

    def test_same_invocation_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                capsys, "simulate", "--seed", "9", "--n", "4", "--strategy", "dynamic",
                "--T", "1", "--cv", "0.1", "--trajectory-out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unreadable_env_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(capsys, "simulate", "--env", str(missing))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "-1"),
            ("--n", "2", "--config", "{no_room}"),
            ("--env", "{nan_goal}"),
            ("--env", "{inf_start}"),
            ("--env", "{inf_half_length}"),
            ("--env", "{fractional_owner}"),
            ("--env", "{string_radius}"),
            ("--env", "{string_center}"),
            ("--env", "{negative_r_fixed}"),
            ("--env", "{missing_owner}"),
            ("--env", "{unknown_kind}"),
            ("--env", "{unknown_key}"),
        ],
        ids=[
            "negative_n",
            "generation_fails",
            "nan_goal",
            "inf_start",
            "inf_half_length",
            "fractional_owner",
            "string_radius",
            "string_center",
            "negative_r_fixed",
            "missing_owner",
            "unknown_kind",
            "unknown_key",
        ],
    )
    def test_invalid_input_exits_2_with_one_error_line(self, capsys, tmp_path, argv):
        no_room = tmp_path / "no_room.json"
        no_room.write_text(json.dumps(NO_ROOM_CONFIG))
        files = {
            "no_room": no_room,
            "nan_goal": env_file(tmp_path, "nan_goal.json", goal=[math.nan, 0.0]),
            "inf_start": env_file(tmp_path, "inf_start.json", start=[math.inf, 0.0]),
            "inf_half_length": env_file(tmp_path, "inf_half_length.json", table_half_length=math.inf),
            "fractional_owner": env_file(
                tmp_path, "fractional_owner.json", obstacles=[obstacle(owner=1.7)]
            ),
            "string_radius": env_file(
                tmp_path, "string_radius.json", obstacles=[obstacle(radius="0.5")]
            ),
            "string_center": env_file(
                tmp_path, "string_center.json", obstacles=[obstacle(center=["1.5", 0])]
            ),
            "negative_r_fixed": env_file(
                tmp_path, "negative_r_fixed.json",
                geometry_mode={"kind": "known", "r_fixed": -1.0}, obstacles=[obstacle()],
            ),
            "missing_owner": env_file(
                tmp_path, "missing_owner.json",
                obstacles=[{"center": [5.0, 0.3], "radius": 0.5}],
            ),
            "unknown_kind": env_file(
                tmp_path, "unknown_kind.json", geometry_mode={"kind": "fuzzy", "r_fixed": 0.5}
            ),
            "unknown_key": env_file(tmp_path, "unknown_key.json", obstacle_count=1),
        }
        argv = [a.format(**files) for a in argv]
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


_DELETE = object()


@pytest.fixture()
def tiny_bench_config(tmp_path):
    config = {
        "base_seed": 5,
        "games_per_condition": 8,
        "conditions": [
            {"strategy": "dynamic", "T": 1, "n": 0, "geometry": "known", "cv": 0.0},
            {"strategy": "speaker_speaker", "T": 0, "n": 0, "geometry": "known", "cv": 0.0},
        ],
    }
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    return path


class TestBench:
    def test_writes_reports(self, capsys, tiny_bench_config, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            capsys, "bench", "--config", str(tiny_bench_config), "--out", str(out_dir)
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["kind"] == "benchmark_report"
        csv_lines = (out_dir / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "strategy,T,n,cv,lambda,failure_mean_steps,games"
        assert len(csv_lines) == 3
        summary = json.loads(out)
        assert summary["base_seed"] == 5

    def test_flag_overrides(self, capsys, tiny_bench_config, tmp_path):
        out_dir = tmp_path / "out2"
        code, out, _ = run_cli(
            capsys, "bench", "--config", str(tiny_bench_config), "--out", str(out_dir),
            "--games", "3", "--base-seed", "77",
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["games_per_condition"] == 3
        assert report["config"]["base_seed"] == 77

    def test_failing_assert_exits_1(self, capsys, tmp_path):
        config = {
            "base_seed": 5,
            "games_per_condition": 8,
            "conditions": [
                {"strategy": "dynamic", "T": 1, "n": 0, "geometry": "known", "cv": 0.0},
            ],
            "asserts": [
                {
                    "kind": "at_least",
                    "a": {"strategy": "dynamic", "T": 1, "n": 0, "geometry": "known", "cv": 0.0},
                    "value": 1.1,
                }
            ],
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "assert failed" in err

    def test_invalid_config_exits_2_before_running(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"conditions": [], "games_per_condition": 5}))
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(out_dir))
        assert code == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("asserts", 0, "a"), _DELETE),
            (("limits", "dt"), 0),
            (("field", "w_v"), -1),
            (("games_per_condition",), "x"),
            (("field",), None),
            (("radii", "r_fixed"), -1),
            (("radii", "r_min"), 0.9),  # above r_max = 0.7
            (("workspace", "retry_cap"), 0),
            (("asserts", 0, "significant"), "false"),
            (("conditions", 0, "T"), 2.7),
            (("conditions", 0, "n"), True),
            (("conditions", 0, "cv"), "0.1"),
            (("limits", "goal_eps"), math.inf),
            (("limits", "dt"), math.inf),
            (("conditions", 0, "cv"), math.nan),
            (("format_version",), True),
            (("format_version",), 1.0),
        ],
        ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_invalid_value_exits_2_with_one_error_line(self, capsys, tmp_path, path, value):
        config = {
            "base_seed": 5,
            "games_per_condition": 4,
            "conditions": [
                {"strategy": "dynamic", "T": 1, "n": 2, "geometry": "known", "cv": 0.0},
                {"strategy": "speaker_speaker", "T": 0, "n": 2, "geometry": "known", "cv": 0.0},
            ],
            "field": {"w_att": 1.0, "w_v": 0.1},
            "limits": {"dt": 1.0},
            "radii": {"r_fixed": 0.5},
            "workspace": {"retry_cap": 200},
            "asserts": [
                {
                    "kind": "greater",
                    "a": {"strategy": "dynamic", "T": 1, "n": 2},
                    "b": {"strategy": "speaker_speaker", "n": 2},
                    "significant": True,
                }
            ],
        }
        target = config
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "bench", "--config", str(config_path), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [("bench",), ("sweep", "--cv", "0", "0.1")],
                             ids=["bench", "sweep"])
    def test_all_seeds_skipped_exits_2(self, capsys, tmp_path, monkeypatch, command):
        games = []
        run_game = bench.run_game

        def counting_run_game(*args, **kwargs):
            games.append(args)
            return run_game(*args, **kwargs)

        monkeypatch.setattr(bench, "run_game", counting_run_game)
        monkeypatch.delenv("ROLECOMMS_THREADS", raising=False)
        config_path = tmp_path / "no_room.json"
        config_path.write_text(json.dumps(NO_ROOM_CONFIG))
        out_dir = tmp_path / "never"
        code, _, err = run_cli(
            capsys, command[0], "--config", str(config_path), "--out", str(out_dir), *command[1:]
        )
        # the unplaceable condition is found before any game of the other is played
        assert games == []
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "every seed failed environment generation" in err
        assert not out_dir.exists()

    def test_worker_count_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("ROLECOMMS_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _resolve_workers(argparse.Namespace(workers=None)) == 1
        assert _resolve_workers(argparse.Namespace(workers=3)) == 3
        assert _resolve_workers(argparse.Namespace(workers=10_000)) == 4
        assert _resolve_workers(argparse.Namespace(workers=0)) == 1
        monkeypatch.setenv("ROLECOMMS_THREADS", "10000")
        assert _resolve_workers(argparse.Namespace(workers=None)) == 4
        assert _resolve_workers(argparse.Namespace(workers=2)) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_workers(argparse.Namespace(workers=8)) == 1

    def test_worker_flag_does_not_change_bytes(self, capsys, tiny_bench_config, tmp_path):
        outs = []
        for i, workers in enumerate(("1", "2")):
            out_dir = tmp_path / f"w{i}"
            code, _, _ = run_cli(
                capsys, "bench", "--config", str(tiny_bench_config), "--out", str(out_dir),
                "--workers", workers,
            )
            assert code == 0
            outs.append((out_dir / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_threads_env_var(self, capsys, tiny_bench_config, tmp_path, monkeypatch):
        monkeypatch.setenv("ROLECOMMS_THREADS", "2")
        code, _, _ = run_cli(
            capsys, "bench", "--config", str(tiny_bench_config), "--out", str(tmp_path / "env")
        )
        assert code == 0
        monkeypatch.setenv("ROLECOMMS_THREADS", "soup")
        code, _, err = run_cli(
            capsys, "bench", "--config", str(tiny_bench_config), "--out", str(tmp_path / "env2")
        )
        assert code == 2
        assert "ROLECOMMS_THREADS" in err
        assert not (tmp_path / "env2").exists()


class TestSweep:
    def test_expands_cv_grid(self, capsys, tiny_bench_config, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(tiny_bench_config), "--out", str(out_dir),
            "--cv", "0.001", "0.01", "0.1",
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["conditions"]) == 6  # 2 base conditions x 3 cv values
        cvs = sorted({c["cv"] for c in report["conditions"]})
        assert cvs == [0.001, 0.01, 0.1]

    @pytest.mark.parametrize("cv", ["-0.1", "nan", "inf"], ids=["negative", "nan", "inf"])
    def test_negative_cv_exits_2(self, capsys, tiny_bench_config, tmp_path, cv):
        out_dir = tmp_path / "never"
        code, _, err = run_cli(
            capsys, "sweep", "--config", str(tiny_bench_config), "--out", str(out_dir),
            "--cv", "0.1", cv,
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--config", "{config}", "--out", "{file}"),
            ("bench", "--config", "{config}", "--out", "{file}/out"),
            ("sweep", "--config", "{config}", "--out", "{file}", "--cv", "0.1"),
            ("simulate", "--n", "0", "--trajectory-out", "{tmp}/missing/traj.csv"),
            ("simulate", "--n", "0", "--trajectory-out", "{tmp}"),
        ],
        ids=["bench_out_is_file", "bench_out_under_file", "sweep_out_is_file",
             "simulate_missing_dir", "simulate_out_is_dir"],
    )
    def test_unwritable_output_exits_2_with_one_error_line(
        self, capsys, monkeypatch, tiny_bench_config, tmp_path, argv
    ):
        def no_games(*args, **kwargs):
            raise AssertionError("games were played before --out was created")

        monkeypatch.setattr(bench, "run_benchmark", no_games)
        existing = tmp_path / "existing"
        existing.write_text("keep")
        files = {"config": tiny_bench_config, "file": existing, "tmp": tmp_path}
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert existing.read_text() == "keep"


class TestHelp:
    def test_subcommands_listed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for sub in ("analyze", "simulate", "bench", "sweep"):
            assert sub in out

    def test_flags_enumerated(self, capsys):
        for sub, flags in (
            ("analyze", ["--system", "--mode", "--alloc", "--speaker", "--dts"]),
            ("simulate", ["--env", "--seed", "--strategy", "--T", "--cv", "--trajectory-out"]),
            ("bench", ["--config", "--out", "--games", "--base-seed", "--workers"]),
            ("sweep", ["--config", "--out", "--cv", "--workers"]),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([sub, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--mode", "stability"])  # missing --system
        assert exc.value.code == 2

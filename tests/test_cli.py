import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rolecomms import bench, cli, linear_roles
from rolecomms.cli import build_parser, main
from rolecomms.potential_field import MAX_LENGTH
from rolecomms.table_sim import MAX_RETRY_CAP


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

FAST_TURN_CONFIG = {
    "conditions": [{"strategy": "speaker_speaker", "n": 1}],
    "limits": {"v_max": 10.0},
    "radii": {"r_fixed": 0.3},
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
        # sorted by (real, imag), as at every size
        assert doc["eigenvalues"] == [[1.0, -1.0], [1.0, 1.0]]

    def test_stability_of_a_one_state_system(self, capsys, tmp_path):
        # a 1x1 loop takes LAPACK, a 2x2 one the closed form
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"A": [[-2.5]], "B": [[0.0]], "Kstar": [[1.0]]}))
        code, out, _ = run_cli(capsys, "analyze", "--system", str(path), "--mode", "stability", "--alloc", "dynamic")
        assert code == 0
        assert json.loads(out) == {
            "mode": "stability", "allocation": "dynamic", "eigenvalues": [[-2.5, 0.0]], "max_real_part": -2.5,
            "stable": True,
        }

    def test_stability_of_a_loop_with_roots_on_the_axis(self, capsys, tmp_path):
        # a double root at 0, whose computed real parts are about -3e-17
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"A": [[1, 1, 0], [-1, -1, 0], [0, 0, -1]], "B": [[0] * 3] * 3, "Kstar": np.eye(3).tolist()}))
        code, out, _ = run_cli(capsys, "analyze", "--system", str(path), "--mode", "stability", "--alloc", "dynamic")
        assert code == 0
        assert json.loads(out)["stable"] is False

    def test_stability_other_allocations(self, capsys, system_file):
        system = linear_roles.SystemFile(**json.loads(Path(system_file).read_text())).team()
        for alloc in ("speaker_listener_1", "speaker_listener_2", "speaker_speaker", "dynamic"):
            code, out, _ = run_cli(
                capsys, "analyze", "--system", system_file, "--mode", "stability",
                "--alloc", alloc,
            )
            assert code == 0
            rep = linear_roles.stability_report(system, alloc)
            assert json.loads(out) == {
                "mode": "stability",
                "allocation": alloc,
                "eigenvalues": [[e.real, e.imag] for e in rep.eigenvalues],
                "max_real_part": rep.max_real_part,
                "stable": rep.stable,
            }

    @pytest.mark.parametrize(
        "A",
        [
            [[-1e-170, 2e-170], [-3e-170, 0.0]],
            [[1e-200, 1e-200], [-1e-200, 1e-200]],
            [[1e300, 0.0], [0.0, 1e308]],
            [[-1e-140, 0.0], [0.0, -1e-200]],
        ],
        ids=["underflowing_det", "underflowing_complex", "overflowing_trace", "underflowing_real_det"],
    )
    def test_stability_at_extreme_magnitudes_matches_numpy(self, capsys, tmp_path, A):
        # once "stable": false for a stable system, a real pair for a complex
        # one, a refusal of the finite eigenvalues 1e300 and 1e308, and a
        # root -1e-200 read as -0.0, so "stable": false
        system = {"A": A, "B": [[0.0, 0.0], [0.0, 0.0]], "Kstar": [[1.0, 0.0], [0.0, 1.0]], "W": [1.0, 1.0]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, _ = run_cli(capsys, "analyze", "--system", str(path), "--mode", "stability", "--alloc", "dynamic")
        assert code == 0
        doc = json.loads(out)
        want = sorted(np.linalg.eigvals(np.array(A)), key=lambda z: (z.real, z.imag))
        got = sorted((complex(*e) for e in doc["eigenvalues"]), key=lambda z: (z.real, z.imag))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            # per part, relative to the larger part: pytest.approx's absolute
            # slack of 1e-12 would let -0.0 pass for -1e-200
            size = max(abs(b.real), abs(b.imag))
            assert abs(a.real - b.real) <= 1e-14 * size and abs(a.imag - b.imag) <= 1e-14 * size
        assert doc["stable"] is bool(max(z.real for z in want) < 0.0)

    def test_alloc_choices_are_the_role_masks(self):
        # cli keeps its own copy so that importing it loads no numpy
        assert sorted(cli._ALLOC_CHOICES) == sorted(linear_roles.ROLE_MASKS)

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

    def test_rotation_long_horizon_is_fast(self, capsys, system_file):
        # one cycle gives every row, so the horizon sets only the cycle count
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "analyze", "--system", system_file, "--mode", "rotation",
            "--horizon", "1e9", "--drift", "0.3", "0.2",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row["cycles"] for row in rows] == [5_000_000_000, 10_000_000_000, 20_000_000_000, 40_000_000_000]
        assert rows[0]["sup_deviation"] == pytest.approx(0.057, rel=1e-12)

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
            # kl mode's default variances once failed outside every check
            ("Kstar", [[0.0, 0.6], [0.7, 1.2]], "K11 must be nonzero when agent 1 speaks"),
            ("W", [0.0, 1.0], "noise variances must be > 0"),
            ("W", [1.0], "variances and kl modes need W = [w1_sq, w2_sq]"),
        ],
        ids=["string_sigma", "null_sigma", "string_W", "ragged_matrix", "ragged_A", "huge_int",
             "zero_K11", "zero_w1", "short_W"],
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

    @pytest.mark.parametrize(
        "changes, mode, start",
        [
            ({"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "Kstar": [[1.0, 0.0], [1.0, 1.0]],
              "W": [1e308, 1e308]}, "variances", "sigma1_sq must come out finite and > 0, got nan"),
            ({"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0, 0.0], [0.0, 1.0]], "Kstar": [[1.0, 1e200], [0.0, 1.0]],
              "sigma_s2_sq": 1e200}, "kl", "expected_kl is not finite, got inf"),
            ({"A": [[1e308, 1e308], [1e308, 1e308]], "B": [[1e308, 1e308], [1e308, 1e308]],
              "Kstar": [[1e200, 1e200], [1e200, 1e200]]}, "stability", "the closed-loop matrix A - B K is not finite"),
            # eigenvalues 2e308 and 0
            ({"A": [[1e308, 1e308], [1e308, 1e308]]}, "stability", "the closed-loop eigenvalues are not finite"),
        ],
        ids=["nan_variance", "infinite_kl", "overflowing_closed_loop", "overflowing_trace"],
    )
    def test_non_finite_result_exits_2_with_one_error_line(
        self, capsys, recwarn, tmp_path, system_file, changes, mode, start
    ):
        # each once printed NaN or Infinity, which JSON does not allow, and
        # exited 0, or printed numpy's overflow warning before its error line
        path = tmp_path / "system.json"
        path.write_text(json.dumps({**json.loads(Path(system_file).read_text()), **changes}))
        code, out, err = run_cli(capsys, "analyze", "--system", str(path), "--mode", mode)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + start) and err.count("\n") == 1
        assert [str(w.message) for w in recwarn] == []

    def test_non_converging_spectrum_exits_2_with_one_error_line(self, capsys, recwarn, tmp_path):
        # a finite 3x3 closed loop on which LAPACK's iteration does not
        # converge once ended in a NumericError traceback and exit 1
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "A": [[1e-200, 1e300, 1e308], [1e308, 1e-200, 0.0], [-1e308, 1e-200, -1.0]],
            "B": [[0.0] * 3] * 3,
            "Kstar": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }))
        code, out, err = run_cli(capsys, "analyze", "--system", str(path), "--mode", "stability", "--alloc", "dynamic")
        assert (code, out) == (2, "")
        assert err.startswith("error: eigenvalue iteration did not converge") and err.count("\n") == 1
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize(
        "argv, start",
        [
            (("--mode", "rotation", "--dts", "0"), "every dt must be finite and > 0, got [0.0]"),
            (("--mode", "rotation", "--dts", "inf"), "every dt must be finite and > 0, got [inf]"),
            (("--mode", "rotation", "--horizon", "nan"), "horizon must be finite and > 0, got nan"),
            (("--mode", "rotation", "--horizon", "inf"), "horizon must be finite and > 0, got inf"),
            (("--mode", "rotation", "--horizon", "-1"), "horizon must be finite and > 0, got -1.0"),
            (("--mode", "rotation", "--drift", "1"), "drift must be 2 finite values"),
            (("--mode", "rotation", "--drift", "inf", "0"), "drift must be 2 finite values"),
            (("--mode", "rotation", "--drift", "1", "2", "3"), "drift must be 2 finite values"),
            (("--mode", "rotation", "--drift", "nan", "nan"), "drift must be 2 finite values"),
            (("--mode", "kl", "--sigma1-sq", "inf"), "sigma1_sq must be finite and > 0, got inf"),
            # finite values whose cycle count or actions overflow
            (("--mode", "rotation", "--dts", "5e-324"), "horizon / (n*dt) must be finite, got horizon 2.0"),
            (("--mode", "rotation", "--horizon", "100", "--dts", "10", "--drift", "1e308", "1e308"),
             "the deviation at dt 10.0 is not finite"),
            # once a ZeroDivisionError traceback
            (("--mode", "kl", "--sigma1-sq", "1e-300", "--sigma2-sq", "1e-300"),
             "sigma1_sq * sigma2_sq underflows to 0, got 1e-300 and 1e-300"),
        ],
        ids=["zero_dt", "inf_dt", "nan_horizon", "inf_horizon", "negative_horizon",
             "short_drift", "inf_drift", "long_drift", "nan_drift", "inf_sigma1", "tiny_dt",
             "overflowing_drift", "underflowing_sigmas"],
    )
    def test_invalid_mode_argument_exits_2_with_one_error_line(self, capsys, recwarn, system_file, argv, start):
        code, out, err = run_cli(capsys, "analyze", "--system", system_file, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + start) and err.count("\n") == 1
        assert [str(w.message) for w in recwarn] == []


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

    @pytest.mark.parametrize(
        "half_length, center, kind, steps",
        [(MAX_LENGTH, [0.0, 0.0], "collision", 1), (MAX_LENGTH, [5.0, 0.0], "timeout", 200)],
    )
    def test_long_table_collides_with_the_discs_it_touches(self, capsys, tmp_path, half_length, center, kind, steps):
        # the longest table the range accepts starts across the origin: a
        # disc there is hit at once, and one on the goal line 5 away is never
        # reached, since the endpoints' pulls toward the goal cancel.
        # Measured from an endpoint, the table's offsets cancelled, and a
        # disc anywhere near it was hit.
        env = env_file(tmp_path, "long.json", table_half_length=half_length,
                       obstacles=[obstacle(center=center, radius=0.5, owner=1)])
        code, out, _ = run_cli(capsys, "simulate", "--env", str(env), "--strategy", "speaker_speaker")
        assert code == 0
        doc = json.loads(out)
        assert (doc["failure_kind"], doc["steps"]) == (kind, steps)

    @pytest.mark.parametrize(
        "weight, value, argv",
        [
            # a traceback from infer_obstacle ("obstacle center must be finite")
            ("w_v", 1e308, ("--seed", "2", "--n", "8", "--strategy", "dynamic", "--T", "1")),
            # a game played on NaN poses, reported as an ordinary timeout
            ("w_v", 1.7e308, ("--seed", "0", "--n", "4", "--strategy", "speaker_speaker")),
            ("w_att", 1.7e308, ("--seed", "2", "--n", "8", "--strategy", "dynamic", "--T", "1")),
            ("w_rep", 1e308, ("--seed", "2", "--n", "8", "--strategy", "dynamic", "--T", "1")),
        ],
    )
    def test_unbounded_field_weight_exits_2_before_playing(self, capsys, config_dir, tmp_path, weight, value, argv):
        config = json.loads((config_dir / "table1.json").read_text())
        config["field"][weight] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        traj = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), *argv, "--trajectory-out", str(traj))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "allow a command above 1e+100" in err
        assert not traj.exists()

    @pytest.mark.parametrize("argv", [("--n", "8"), ("--n", "2", "--cv", "1.0")], ids=["env", "cv"])
    def test_field_bound_checked_for_the_game_played(self, capsys, tmp_path, argv):
        # the config's own conditions (n = 2, cv = 0) stay within the range:
        # 2 * w_v * (w_att + 3 * repulsive_magnitude(RHO_MIN)) is about
        # 7.2e99. An agent of an 8-obstacle environment acts on at most 9,
        # and cv = 1 scales the command by 9.6; either passes 1e100.
        config = {"conditions": [{"strategy": "dynamic", "T": 1, "n": 2}], "field": {"w_v": 1.2e93}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--n", "2", "--strategy", "dynamic")
        assert code == 0
        code, out, err = run_cli(capsys, "simulate", "--config", str(path), "--strategy", "dynamic", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "allow a command above 1e+100" in err

    def test_field_bound_counts_every_obstacle_as_bench_does(self, capsys, tmp_path):
        # four obstacles, two per agent: the k = 3 of the larger owner count
        # plus one stays within the range (about 7.2e99, as above), but
        # k = n + 1 = 5, the rule bench applies, passes 1e100
        config = {"conditions": [{"strategy": "dynamic", "T": 1, "n": 2}], "field": {"w_v": 1.2e93}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        obstacles = [obstacle(center=[2.0 * i + 2.0, 3.0], owner=1 + i % 2) for i in range(4)]
        env = env_file(tmp_path, "four.json", obstacles=obstacles)
        code, out, err = run_cli(capsys, "simulate", "--config", str(config_path), "--env", str(env))
        assert (code, out) == (2, "")
        assert err == "error: field weights allow a command above 1e+100 for an agent acting on 5 obstacles at cv 0.0\n"

    @pytest.mark.parametrize(
        "env, config, argv",
        [
            # a disc of radius 1e200 holding the table: the field law once
            # squared its distance past the float range and saw no disc
            ({"obstacles": [obstacle(center=[5e199, 0.0], radius=1e200)],
              "geometry_mode": {"kind": "known", "r_fixed": 1e200}}, None, ()),
            # a goal whose attraction once vanished
            ({"goal": [1e200, 0.0]}, None, ()),
            # an obstacle an explicit sender once never found closest
            ({"obstacles": [obstacle(center=[1e200, 0.0], radius=0.5)]}, None, ("--strategy", "explicit")),
            # one step of dt 1e308 once carried the table to x = 1.25e307
            (None, {"limits": {"dt": 1e308}}, ("--seed", "2", "--n", "8", "--strategy", "dynamic", "--T", "1")),
            # a workspace whose width once overflowed during generation and
            # ended in a traceback, exit 1
            (None, {"workspace": {"x_range": [-1e308, 1e308]}}, ("--n", "2", "--seed", "3")),
            (None, {"workspace": {"y_range": [-1e308, 1e308]}}, ("--n", "2", "--seed", "3")),
        ],
        ids=["huge_disc", "far_goal", "far_obstacle", "dt", "x_range", "y_range"],
    )
    def test_length_beyond_the_range_exits_2_before_playing(self, capsys, tmp_path, env, config, argv):
        args = ["simulate", "--strategy", "speaker_speaker", *argv]
        if env is not None:
            args += ["--env", str(env_file(tmp_path, "env.json", **env))]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"conditions": [{"strategy": "speaker_speaker", "n": 2}], **config}))
            args += ["--config", str(path)]
        traj = tmp_path / "never.csv"
        code, out, err = run_cli(capsys, *args, "--trajectory-out", str(traj))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "1e+100" in err
        assert not traj.exists()

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
        assert err == f"error: environment file not found: {missing}\n"

    def test_bad_config_reported_before_bad_condition(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        code, _, err = run_cli(capsys, "simulate", "--config", str(missing), "--cv", "2")
        assert code == 2
        assert err == f"error: config file not found: {missing}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "-1"),
            ("--cv", "2"),
            ("--n", "2", "--config", "{no_room}"),
            ("--env", "{nan_goal}"),
            ("--env", "{inf_start}"),
            ("--env", "{inf_half_length}"),
            ("--env", "{tiny_half_length}"),
            ("--env", "{fast_turn}", "--config", "{fast_turn_config}", "--strategy", "speaker_speaker"),
            ("--env", "{fractional_owner}"),
            ("--env", "{string_radius}"),
            ("--env", "{string_center}"),
            ("--env", "{negative_r_fixed}"),
            ("--env", "{missing_owner}"),
            ("--env", "{unknown_kind}"),
            ("--env", "{unknown_key}"),
            ("--env", "{radius_off_known}"),
            ("--env", "{radius_below_unknown}"),
            ("--env", "{radius_above_unknown}"),
            ("--env", "{too_many_obstacles}"),
        ],
        ids=[
            "negative_n",
            "cv_above_one",
            "generation_fails",
            "nan_goal",
            "inf_start",
            "inf_half_length",
            "tiny_half_length",
            "fast_turn",
            "fractional_owner",
            "string_radius",
            "string_center",
            "negative_r_fixed",
            "missing_owner",
            "unknown_kind",
            "unknown_key",
            "radius_off_known",
            "radius_below_unknown",
            "radius_above_unknown",
            "too_many_obstacles",
        ],
    )
    def test_invalid_input_exits_2_with_one_error_line(self, capsys, tmp_path, argv):
        no_room = tmp_path / "no_room.json"
        no_room.write_text(json.dumps(NO_ROOM_CONFIG))
        fast_turn_config = tmp_path / "fast_turn_config.json"
        fast_turn_config.write_text(json.dumps(FAST_TURN_CONFIG))
        files = {
            "no_room": no_room,
            "nan_goal": env_file(tmp_path, "nan_goal.json", goal=[math.nan, 0.0]),
            "inf_start": env_file(tmp_path, "inf_start.json", start=[math.inf, 0.0]),
            "inf_half_length": env_file(tmp_path, "inf_half_length.json", table_half_length=math.inf),
            # just below the range: the game once turned at an infinite rate
            # and died with "math domain error"
            "tiny_half_length": env_file(
                tmp_path, "tiny_half_length.json", table_half_length=math.nextafter(1e-100, 0.0)
            ),
            # at v_max 10 a disc beside the start turned a 1e-308 table at an
            # infinite rate: the game died in math.cos with a traceback
            "fast_turn": env_file(
                tmp_path, "fast_turn.json", table_half_length=1e-308,
                geometry_mode={"kind": "known", "r_fixed": 0.3}, obstacles=[obstacle(center=[0.35, 0.0], radius=0.3)],
            ),
            "fast_turn_config": fast_turn_config,
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
            # the listener infers with the mode's nominal radius, so a file
            # whose radii contradict its mode is refused
            "radius_off_known": env_file(tmp_path, "radius_off_known.json", obstacles=[obstacle(radius=2.0)]),
            "radius_below_unknown": env_file(
                tmp_path, "radius_below_unknown.json",
                geometry_mode={"kind": "unknown", "r_min": 0.6, "r_max": 0.8}, obstacles=[obstacle()],
            ),
            "radius_above_unknown": env_file(
                tmp_path, "radius_above_unknown.json",
                geometry_mode={"kind": "unknown", "r_min": 0.1, "r_max": 0.2}, obstacles=[obstacle()],
            ),
            # one more than bench's MAX_OBSTACLES
            "too_many_obstacles": env_file(
                tmp_path, "too_many_obstacles.json", obstacles=[obstacle()] * (bench.MAX_OBSTACLES + 1)
            ),
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
            # one step is too few to reach the goal, so every game times out
            "limits": {"max_steps": 1},
            "asserts": [
                {
                    "kind": "at_least",
                    "a": {"strategy": "dynamic", "T": 1, "n": 0, "geometry": "known", "cv": 0.0},
                    "value": 0.5,
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
            (("field", "rho0"), 0.001),  # RHO_MIN: the listener's bracket is empty
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
            (("conditions", 0, "cv"), 2.0),  # beyond 1 the channel's stddev can overflow
            (("format_version",), True),
            (("format_version",), 1.0),
            (("asserts", 0, "a", "T"), 2),  # names a condition that is not configured
            (("conditions", 0, "geometry"), "fuzzy"),
            (("asserts", 0, "alpha"), 1.0),
            (("asserts", 1, "value"), 1.5),
            # fields the assert's kind never reads
            (("asserts", 0, "value"), 0.5),
            (("asserts", 1, "significant"), True),
            (("asserts", 1, "b"), {"strategy": "speaker_speaker", "n": 2}),
            # a condition listed twice would play every game twice
            (
                ("conditions",),
                [{"strategy": "dynamic", "T": 1, "n": 2}, {"strategy": "speaker_speaker", "n": 2},
                 {"strategy": "dynamic", "T": 1, "n": 2, "geometry": "known", "cv": 0.0}],
            ),
            # counts beyond their declared bounds, which would run for ever or
            # grow without limit
            (
                ("conditions",),
                [{"strategy": "dynamic", "T": 1, "n": 2}, {"strategy": "speaker_speaker", "n": 2},
                 {"strategy": "dynamic", "T": 4, "n": 1e308}],
            ),
            (("limits", "max_steps"), 2**63),
            (("games_per_condition",), bench.MAX_GAMES + 1),
            (("workspace", "retry_cap"), MAX_RETRY_CAP + 1),
            # field weights whose worst-case command overflows
            (("field", "w_att"), 1.7e308),
            (("field", "w_rep"), 1e308),
            (("field", "w_v"), 1e308),
            # every table has a finite speed cap
            (("limits", "v_max"), None),
            # lengths beyond the declared range, MAX_LENGTH
            (("radii", "r_fixed"), 1e200),
            (("radii", "r_max"), 1e200),
            (("workspace", "start"), [1e200, 0.0]),
            (("workspace", "goal"), [10.0, -1e200]),
            (("workspace", "table_half_length"), 1e200),
            (("workspace", "table_half_length"), 1e-308),
            (("workspace", "x_range"), [-1e308, 1e308]),
            (("workspace", "y_range"), [-1e308, 1e308]),
            (("workspace", "clearance"), 1e200),
            (("limits", "goal_eps"), 1e200),
            (("limits", "dt"), 1e308),
            (("limits", "v_max"), 1e200),
            # a reach max_steps * dt * v_max of 200 * 1e99 * 0.25
            (("limits", "dt"), 1e99),
            (("field", "rho0"), 1e200),
            # a command of about 6e101, finite but beyond the range
            (("field", "w_v"), 1e95),
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
                },
                {"kind": "at_least", "a": {"strategy": "dynamic", "T": 1, "n": 2}, "value": 0.9},
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
        code, out, err = run_cli(capsys, "bench", "--config", str(config_path), "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--config", "{config}", "--out", "{out}", "--games", str(bench.MAX_GAMES + 1)),
            ("simulate", "--n", str(bench.MAX_OBSTACLES + 1), "--trajectory-out", "{out}"),
            ("bench", "--config", "{huge}", "--out", "{out}"),
        ],
        ids=["games", "simulate_n", "5000_digit_n"],
    )
    def test_count_beyond_its_bound_exits_2_before_running(self, capsys, tiny_bench_config, tmp_path, argv):
        huge = tmp_path / "huge.json"
        # json.dumps cannot write an integer this long
        huge.write_text('{"conditions": [{"strategy": "dynamic", "T": 1, "n": ' + "9" * 5000 + "}]}")
        out = tmp_path / "never"
        code, _, err = run_cli(capsys, *(a.format(config=tiny_bench_config, huge=huge, out=out) for a in argv))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_greater_assert_across_keys_exits_2_before_running(self, capsys, tmp_path):
        dynamic = {"strategy": "dynamic", "T": 1, "n": 2}
        static = {"strategy": "speaker_speaker", "n": 2, "geometry": "unknown"}
        config = {
            "games_per_condition": 3,
            "conditions": [dynamic, static],
            "asserts": [{"kind": "greater", "a": dynamic, "b": static}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "bench", "--config", str(path), "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_all_seeds_skipped_exits_2(self, capsys, tmp_path, monkeypatch):
        games = []
        run_game = bench.run_game

        def counting_run_game(*args, **kwargs):
            games.append(args)
            return run_game(*args, **kwargs)

        monkeypatch.setattr(bench, "run_game", counting_run_game)
        config_path = tmp_path / "no_room.json"
        config_path.write_text(json.dumps(NO_ROOM_CONFIG))
        out_dir = tmp_path / "never"
        code, _, err = run_cli(capsys, "bench", "--config", str(config_path), "--out", str(out_dir))
        # the unplaceable condition is found before any game of the other is played
        assert games == []
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "every seed failed environment generation" in err
        assert not out_dir.exists()

    def test_out_dir_is_made_before_the_first_game(self, capsys, tiny_bench_config, tmp_path, monkeypatch):
        out_dir = tmp_path / "made" / "first"
        seen = []
        run_benchmark = bench.run_benchmark

        def checking_run_benchmark(*args, **kwargs):
            seen.append(out_dir.is_dir())
            return run_benchmark(*args, **kwargs)

        monkeypatch.setattr(bench, "run_benchmark", checking_run_benchmark)
        code, _, _ = run_cli(capsys, "bench", "--config", str(tiny_bench_config), "--out", str(out_dir))
        assert code == 0
        assert seen == [True]

    def test_existing_out_dir_is_kept_on_config_error(self, capsys, tmp_path, monkeypatch):
        # only a directory the command made itself is removed again
        config_path = tmp_path / "no_room.json"
        config_path.write_text(json.dumps(NO_ROOM_CONFIG))
        out_dir = tmp_path / "kept"
        out_dir.mkdir()
        code, _, err = run_cli(capsys, "bench", "--config", str(config_path), "--out", str(out_dir))
        assert code == 2
        assert "every seed failed environment generation" in err
        assert out_dir.is_dir()

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

    def test_threads_env_var_is_retired(self, capsys, tiny_bench_config, tmp_path, monkeypatch):
        # once a worker count, and a value that is no integer an error
        def no_pool(max_workers):
            raise AssertionError("a 1-worker run started a process pool")

        monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
        for value in ("2", "soup"):
            monkeypatch.setenv("ROLECOMMS_THREADS", value)
            code, _, err = run_cli(capsys, "bench", "--config", str(tiny_bench_config), "--out", str(tmp_path / value))
            assert (code, err) == (0, "")


class TestOutputPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bench", "--config", "{config}", "--out", "{file}"),
            ("bench", "--config", "{config}", "--out", "{file}/out"),
            ("simulate", "--n", "0", "--trajectory-out", "{tmp}/missing/traj.csv"),
            ("simulate", "--n", "0", "--trajectory-out", "{tmp}"),
        ],
        ids=["bench_out_is_file", "bench_out_under_file", "simulate_missing_dir",
             "simulate_out_is_dir"],
    )
    def test_unwritable_output_exits_2_with_one_error_line(
        self, capsys, monkeypatch, tiny_bench_config, tmp_path, argv
    ):
        def no_games(*args, **kwargs):
            raise AssertionError("games were played before --out was created")

        monkeypatch.setattr(bench, "run_benchmark", no_games)
        monkeypatch.setattr(cli, "run_game", no_games)
        existing = tmp_path / "existing"
        existing.write_text("keep")
        files = {"config": tiny_bench_config, "file": existing, "tmp": tmp_path}
        code, out, err = run_cli(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert existing.read_text() == "keep"


# a valid invocation of each float option's subcommand that reads the option
_FLOAT_OPTION_INVOCATIONS = {
    ("analyze", "horizon"): ("analyze", "--system", "{system}", "--mode", "rotation"),
    ("analyze", "dts"): ("analyze", "--system", "{system}", "--mode", "rotation"),
    ("analyze", "drift"): ("analyze", "--system", "{system}", "--mode", "rotation"),
    ("analyze", "sigma1_sq"): ("analyze", "--system", "{system}", "--mode", "kl"),
    ("analyze", "sigma2_sq"): ("analyze", "--system", "{system}", "--mode", "kl"),
    ("simulate", "cv"): ("simulate", "--n", "0"),
}


def _float_options():
    """(subcommand, action) for every option of the parser that parses a float."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action)
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if action.type is float
    ]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "command, action", _float_options(), ids=lambda v: v if isinstance(v, str) else v.option_strings[0]
)
def test_every_float_option_rejects_nan_and_inf(capsys, monkeypatch, system_file, command, action, value):
    # a float option added later fails here until it has an invocation above
    base = _FLOAT_OPTION_INVOCATIONS[(command, action.dest)]

    def no_games(*args, **kwargs):
        raise AssertionError("a game was played with a non-finite option")

    monkeypatch.setattr(cli, "run_game", no_games)
    # an option taking a list gets one value per state of the 2x2 system
    values = [value] * (2 if action.nargs == "+" else 1)
    argv = [a.format(system=system_file) for a in base] + [action.option_strings[0], *values]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestHelp:
    def test_subcommands_listed(self, capsys):
        # help is no error: it leaves main through argparse's exit 0
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        for sub in ("analyze", "simulate", "bench"):
            assert sub in out

    def test_flags_enumerated(self, capsys):
        for sub, flags in (
            ("analyze", ["--system", "--mode", "--alloc", "--speaker", "--dts"]),
            ("simulate", ["--env", "--seed", "--strategy", "--T", "--cv", "--trajectory-out"]),
            ("bench", ["--config", "--out", "--games", "--base-seed", "--workers"]),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([sub, "--help"])
            out = capsys.readouterr().out
            for flag in flags:
                assert flag in out

    @pytest.mark.parametrize("drift", ["-1e-3", "-1E-3", "-.001"])
    def test_negative_value_in_any_float_form_is_a_value(self, capsys, system_file, drift):
        # argparse's own pattern once read -1e-3 as an option name
        code, out, err = run_cli(capsys, "analyze", "--system", system_file, "--mode", "rotation",
                                 "--drift", drift, "0.5")
        assert (code, err) == (0, "")
        assert json.loads(out)["drift"] == [-0.001, 0.5]

    def test_negative_infinity_is_a_value_the_command_refuses(self, capsys, system_file):
        assert_usage_error(capsys, ["analyze", "--system", system_file, "--mode", "rotation",
                                    "--drift", "-inf", "0.5"], "drift must be 2 finite values")

    def test_usage_error_exit_code(self, capsys, system_file, tiny_bench_config, tmp_path):
        # once argparse's own exit, after a usage block on stderr
        files = {"system": system_file, "config": tiny_bench_config, "out": tmp_path / "never"}
        for argv, start in (
            (("analyze", "--mode", "stability"), "the following arguments are required: --system"),
            (("analyze", "--system", "{system}", "--mode", "kl", "--sigma1-sq", "x"),
             "argument --sigma1-sq: invalid float value: 'x'"),
            (("simulate", "--geometry", "fuzzy"), "argument --geometry: invalid choice: 'fuzzy'"),
            (("bench", "--config", "{config}", "--out", "{out}", "--workers", "zz"),
             "argument --workers: invalid int value: 'zz'"),
            ((), "the following arguments are required: command"),
        ):
            assert_usage_error(capsys, [a.format(**files) for a in argv], start)
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "argv, start",
        [
            (("analyze", "--system", "{system}", "--mode", "rotation", "--state", "1", "2"),
             "unrecognized arguments: --state 1 2"),
            (("sweep", "--config", "{config}", "--out", "{out}", "--cv", "0.1"), "argument command: invalid choice"),
        ],
        ids=["analyze_state", "sweep"],
    )
    def test_retired_interfaces_are_usage_errors(self, capsys, system_file, tiny_bench_config, tmp_path, argv, start):
        # the rotation deviation no longer depends on a start state, and bench
        # plays a cv grid listed in its config; neither old form is accepted
        files = {"system": system_file, "config": tiny_bench_config, "out": tmp_path / "never"}
        assert_usage_error(capsys, [a.format(**files) for a in argv], start)
        assert not (tmp_path / "never").exists()


def assert_usage_error(capsys, argv, start):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + start) and err.count("\n") == 1


# prints the top-level modules beyond the standard library that the import adds
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import rolecomms.cli
added = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(added - set(sys.stdlib_module_names))))
"""


def test_cli_import_adds_only_numpy_beyond_the_standard_library(fresh_python):
    # numpy loads on first use and the process pool with it, so the import
    # adds the package alone: no numpy, and no __mp_main__, the alias that
    # importing multiprocessing gives __main__; site hooks (certifi,
    # _distutils_hack) load before the probe runs, so only what the import
    # adds counts
    assert fresh_python(_IMPORT_PROBE).split() == ["rolecomms"]


# a noise-free simulate, and table1 on one process and on a pool, then the
# modules of numpy and the analysis library that are loaded
_NOISE_FREE_PROBE = """
import json, sys
from dataclasses import replace
from rolecomms import bench, cli
cli.main(["simulate", "--seed", "7", "--n", "8", "--trajectory-out", sys.argv[2]])
config = bench.config_from_dict(json.load(open(sys.argv[1])))
for workers in (1, 2):
    bench.run_benchmark(replace(config, games_per_condition=2), workers=workers)
print(*(m for m in ("numpy", "rolecomms.linear_roles", "rolecomms.discrete_roles") if m in sys.modules))
"""

# noise.json on a pool of two, then on one process: whether the pool's
# parent had loaded numpy, and whether the two reports are the same bytes
_NOISY_POOL_PROBE = """
import json, sys
from dataclasses import replace
from rolecomms import bench
config = replace(bench.config_from_dict(json.load(open(sys.argv[1]))), games_per_condition=2)
pooled = bench.report_json(bench.run_benchmark(config, workers=2))
loaded = "numpy" in sys.modules
print(loaded, pooled == bench.report_json(bench.run_benchmark(config, workers=1)))
"""


class TestNumpyOnFirstUse:
    def test_noise_free_runs_never_load_numpy_or_the_analysis_modules(self, fresh_python, config_dir, tmp_path):
        out = fresh_python(_NOISE_FREE_PROBE, str(config_dir / "table1.json"), str(tmp_path / "t.csv"))
        assert out.splitlines()[-1] == ""

    def test_noisy_pool_loads_numpy_in_its_parent_with_the_same_bytes(self, fresh_python, config_dir):
        assert fresh_python(_NOISY_POOL_PROBE, str(config_dir / "noise.json")).split() == ["True", "True"]


# the pool's modules loaded after importing the CLI, after a noise-free
# simulate, an analyze and a 1-worker table1 bench, then after the same
# config on a pool of two; then whether the pooled report is the 1-worker
# bench's bytes
_POOL_PROBE = """
import contextlib, io, json, sys
from dataclasses import replace
from rolecomms import bench, cli
system, config_path, out = sys.argv[1:]
def pool_modules():
    names = ("concurrent", "multiprocessing", "socket", "logging", "subprocess")
    return [name for name in names if name in sys.modules]
seen = [pool_modules()]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["simulate", "--seed", "7", "--n", "8"])
    cli.main(["analyze", "--system", system, "--mode", "stability"])
    cli.main(["bench", "--config", config_path, "--out", out, "--games", "2", "--workers", "1"])
seen.append(pool_modules())
config = replace(bench.config_from_dict(json.load(open(config_path))), games_per_condition=2)
pooled = bench.run_benchmark(config, workers=2)
seen.append(pool_modules())
same = [bench.report_json(pooled) == open(out + "/report.json").read(),
        bench.report_csv(pooled) == open(out + "/report.csv").read()]
print(json.dumps({"seen": seen, "same": same}))
"""


def test_process_pool_loads_only_when_a_run_uses_one(fresh_python, config_dir, system_file, tmp_path):
    out = fresh_python(_POOL_PROBE, system_file, str(config_dir / "table1.json"), str(tmp_path / "w1"))
    probe = json.loads(out.splitlines()[-1])
    assert probe["seen"][:2] == [[], []]
    assert {"concurrent", "multiprocessing"} <= set(probe["seen"][2])
    assert probe["same"] == [True, True]


# hashlib and the analysis module, each if loaded: after importing the CLI
# and loading table1, after a noisy simulate, after an analyze, then after a
# 1-worker bench
_HASHLIB_PROBE = """
import contextlib, io, json, sys
import rolecomms.cli
from rolecomms import bench, cli
system, config_path, out = sys.argv[1:]
def loaded():
    return [name for name in ("hashlib", "rolecomms.linear_roles") if name in sys.modules]
bench.config_from_dict(json.load(open(config_path)))
seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["simulate", "--seed", "7", "--n", "8", "--cv", "0.1"])
    seen.append(loaded())
    cli.main(["analyze", "--system", system, "--mode", "stability"])
    seen.append(loaded())
    cli.main(["bench", "--config", config_path, "--out", out, "--games", "2"])
seen.append(loaded())
print(json.dumps(seen))
"""


def test_hashing_and_the_analysis_schema_load_only_where_used(fresh_python, config_dir, system_file, tmp_path):
    out = fresh_python(_HASHLIB_PROBE, system_file, str(config_dir / "table1.json"), str(tmp_path / "b"))
    assert json.loads(out.splitlines()[-1]) == [
        [],
        [],
        ["rolecomms.linear_roles"],
        ["hashlib", "rolecomms.linear_roles"],
    ]

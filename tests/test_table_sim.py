import json
import math
import random
import struct

import pytest

from rolecomms.codec import decode, encode
from rolecomms.errors import ConfigError, GenerationError
from rolecomms.numerics import Rng, Vec2, bisect
from rolecomms.potential_field import (
    Attractor,
    FieldParams,
    Obstacle,
    agent_velocity,
    attractive_grad,
    repulsive_magnitude,
)
from rolecomms.table_sim import (
    TRAJECTORY_COLUMNS,
    Environment,
    InferredObstacle,
    KnownRadius,
    Limits,
    Strategy,
    TableState,
    TaggedObstacle,
    TrajectoryStep,
    UnknownRadius,
    Workspace,
    closest_observed_index,
    corrupt,
    generate_environment,
    infer_obstacle,
    initial_table_state,
    run_game,
    segment_point_distance,
    table_collides,
    table_step,
    trajectory_csv_lines,
    _field_velocity,
)


class TestTableStep:
    def test_equal_inputs_translate(self):
        state = TableState(Vec2(0, 0), 0.3, 0.5)
        nxt = table_step(state, Vec2(0.2, -0.1), Vec2(0.2, -0.1), dt=2.0)
        assert nxt.center == Vec2(0.4, -0.2)
        assert nxt.heading == 0.3

    def test_pure_rotation_unit_rate(self):
        # r=1, theta=0, opposing lateral inputs: omega = 1 rad/s
        state = TableState(Vec2(0, 0), 0.0, 1.0)
        nxt = table_step(state, Vec2(0, 1), Vec2(0, -1), dt=0.25)
        assert nxt.center == Vec2(0.0, 0.0)
        assert nxt.heading == pytest.approx(0.25)

    def test_heading_rate_index_invariant(self):
        # computing omega from agent 2's arm must give the same value
        rng = random.Random(3)
        for _ in range(50):
            heading = rng.uniform(-3, 3)
            r = rng.uniform(0.2, 2.0)
            state = TableState(Vec2(0, 0), heading, r)
            v1 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v2 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            nxt = table_step(state, v1, v2, dt=1.0)
            vcx = 0.5 * (v1[0] + v2[0])
            vcy = 0.5 * (v1[1] + v2[1])
            u2x = -math.cos(heading)
            u2y = -math.sin(heading)
            omega2 = (u2x * (v2[1] - vcy) - u2y * (v2[0] - vcx)) / r
            assert nxt.heading - heading == pytest.approx(omega2, abs=1e-12)

    def test_rigidity_preserved_exactly(self):
        rng = random.Random(4)
        state = TableState(Vec2(1, 1), 0.7, 0.5)
        for _ in range(500):
            v1 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v2 = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1))
            state = table_step(state, v1, v2, dt=0.5)
            span = (state.q1 - state.q2).norm()
            assert abs(span - 2 * state.half_length) < 1e-12 * 2 * state.half_length

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            table_step(TableState(Vec2(0, 0), 0.0, 0.5), Vec2(0, 0), Vec2(0, 0), dt=0.0)


class TestCollision:
    def test_segment_distance_against_dense_sampling(self):
        rng = random.Random(5)
        for _ in range(1000):
            a = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            p = Vec2(rng.uniform(-5, 5), rng.uniform(-5, 5))
            dense = min(
                math.dist(p, (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
                for t in (i / 999 for i in range(1000))
            )
            got = segment_point_distance(a, b, p)
            assert got <= dense + 1e-12
            assert dense - got < 2e-2  # sampling resolution bound

    def test_table_collides(self):
        state = TableState(Vec2(0, 0), 0.0, 1.0)  # segment (-1,0)..(1,0)
        assert table_collides(state, [Obstacle(Vec2(0.0, 0.4), 0.5)])
        assert not table_collides(state, [Obstacle(Vec2(0.0, 0.6), 0.5)])
        assert table_collides(state, [Obstacle(Vec2(1.3, 0.0), 0.4)])


class TestInference:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    goal = (Attractor(Vec2(10.0, 0.0)),)

    def test_pure_attraction_yields_none(self):
        q = Vec2(3.0, 1.0)
        v = agent_velocity(q, self.goal, [], self.params)
        assert infer_obstacle(v, q, self.goal, self.params, 0.5) is None

    def test_forward_round_trip(self):
        rng = random.Random(6)
        hits = 0
        for _ in range(200):
            q = Vec2(rng.uniform(0, 8), rng.uniform(-2, 2))
            angle = rng.uniform(0, 2 * math.pi)
            rho = rng.uniform(0.05, self.params.rho0 * 0.98)
            radius = 0.5
            center = Vec2(
                q[0] + (rho + radius) * math.cos(angle),
                q[1] + (rho + radius) * math.sin(angle),
            )
            obstacle = Obstacle(center, radius)
            v = agent_velocity(q, self.goal, [obstacle], self.params)
            got = infer_obstacle(v, q, self.goal, self.params, radius, tol=1e-12)
            assert got is not None
            err = (got.center - center).norm()
            assert err < 1e-11
            hits += 1
        assert hits == 200

    def test_weak_residual_places_far_obstacle(self):
        # a residual just above zero inverts to a boundary distance near rho0
        q = Vec2(0.0, 0.0)
        tiny = 1e-4
        att = attractive_grad(q, self.goal[0], self.params.w_att)
        # observed velocity engineered so that v/w_v + att = (-tiny, 0)
        v = Vec2(self.params.w_v * (-tiny - att[0]), self.params.w_v * (0.0 - att[1]))
        got = infer_obstacle(v, q, self.goal, self.params, 0.5)
        assert got is not None
        rho = (got.center - q).norm() - 0.5
        assert rho > 0.9 * self.params.rho0

    def test_saturated_residual_flagged_at_floor(self):
        q = Vec2(0.0, 0.0)
        att = attractive_grad(q, self.goal[0], self.params.w_att)
        big = repulsive_magnitude(1e-3, self.params) * 2.0
        v = Vec2(self.params.w_v * (big - att[0]), self.params.w_v * (0.0 - att[1]))
        got = infer_obstacle(v, q, self.goal, self.params, 0.5)
        assert got is not None
        assert got.saturated
        assert (got.center - q).norm() == pytest.approx(1e-3 + 0.5)

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf])
    def test_invalid_nominal_radius_rejected(self, radius):
        # the residual here is strong enough to infer an obstacle
        q = Vec2(0.0, 0.0)
        v = agent_velocity(q, self.goal, [Obstacle(Vec2(0.0, 1.0), 0.5)], self.params)
        assert infer_obstacle(v, q, self.goal, self.params, 0.5) is not None
        with pytest.raises(ValueError, match="radius"):
            infer_obstacle(v, q, self.goal, self.params, radius)

    def test_invalid_nominal_radius_rejected_without_inference(self):
        # the residual is zero, so nothing would be inferred; the radius is
        # checked all the same
        q = Vec2(3.0, 1.0)
        v = agent_velocity(q, self.goal, [], self.params)
        with pytest.raises(ValueError, match="radius"):
            infer_obstacle(v, q, self.goal, self.params, -1.0)

    def test_matches_generic_bisection(self):
        # the inlined inversion must agree with numerics.bisect on the same curve
        rng = random.Random(7)
        for _ in range(50):
            mag = rng.uniform(1e-6, repulsive_magnitude(1e-3, self.params) * 0.99)
            # at q=(5,0) with the goal at (10,0) the attractive term is
            # (-1, 0), so v = w_v*(mag + 1, 0) leaves a residual of (mag, 0)
            got = infer_obstacle(
                Vec2(self.params.w_v * (mag + 1.0), 0.0),
                Vec2(5.0, 0.0),
                (Attractor(Vec2(10.0, 0.0)),),
                self.params,
                0.0,
                tol=1e-12,
            )
            # reconstruct rho from the returned center (radius 0)
            rho_got = (got.center - Vec2(5.0, 0.0)).norm()
            rho_ref = bisect(
                lambda r: repulsive_magnitude(r, self.params) - mag,
                1e-3,
                self.params.rho0,
                1e-12,
            )
            assert rho_got == pytest.approx(rho_ref, abs=1e-11)


class TestMessages:
    def test_tie_breaks_to_lowest_index(self):
        a = Obstacle(Vec2(2, 0), 0.3)
        c = Obstacle(Vec2(-2, 0), 0.3)
        assert closest_observed_index((a, c), Vec2(0, 0)) == 0
        assert closest_observed_index((c, a), Vec2(0, 0)) == 0
        # a single obstacle, the nearer of two, and nothing observed
        near = Obstacle(Vec2(1, 0), 0.3)
        far = Obstacle(Vec2(5, 0), 0.3)
        assert closest_observed_index((far,), Vec2(0, 0)) == 0
        assert closest_observed_index((far, near), Vec2(0, 0)) == 1
        assert closest_observed_index((), Vec2(0, 0)) is None


class TestCorrupt:
    def test_zero_cv_identity_and_no_draws(self):
        rng = Rng(5)
        assert corrupt((1.0, -2.0, 3.0), 0.0, rng) == (1.0, -2.0, 3.0)
        assert rng.next_u64() == Rng(5).next_u64()

    def test_zero_component_unchanged(self):
        out = corrupt((0.0, 5.0), 0.5, Rng(6))
        assert out[0] == 0.0
        assert out[1] != 5.0

    def test_sample_stddev_tracks_cv(self):
        rng = Rng(7)
        n = 100_000
        samples = [corrupt((10.0,), 0.1, rng)[0] for _ in range(n)]
        mean = sum(samples) / n
        std = math.sqrt(sum((x - mean) ** 2 for x in samples) / n)
        assert abs(std - 1.0) < 0.02

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            corrupt((1.0,), -0.1, Rng(8))


def float_bits(x: float) -> int:
    """The IEEE 754 bit pattern of x, so that 0.0 and -0.0 differ."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


class TestFieldVelocityParity:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)

    def assert_bit_identical(self, q, goal, obstacles):
        fast = _field_velocity(
            q[0],
            q[1],
            goal[0],
            goal[1],
            tuple((o.center[0], o.center[1], o.radius) for o in obstacles),
            self.params.w_att,
            self.params.w_rep,
            self.params.w_v,
            self.params.rho0,
        )
        slow = agent_velocity(q, [Attractor(goal)], obstacles, self.params)
        assert [float_bits(v) for v in fast] == [float_bits(v) for v in slow]

    def test_matches_public_agent_velocity(self):
        rng = random.Random(9)
        goal = Vec2(10.0, 0.0)
        for _ in range(300):
            q = Vec2(rng.uniform(-1, 11), rng.uniform(-4, 4))
            obstacles = [
                Obstacle(Vec2(rng.uniform(0, 10), rng.uniform(-3, 3)), rng.uniform(0.1, 0.8))
                for _ in range(rng.randrange(0, 6))
            ]
            self.assert_bit_identical(q, goal, obstacles)

    @pytest.mark.parametrize(
        "q",
        [Vec2(3.0, 0.0), Vec2(10.0, -2.0), Vec2(10.0, 0.0)],
        ids=["level_with_goal", "below_goal", "at_goal"],
    )
    def test_signed_zero_matches(self, q):
        # an agent level with the goal has a zero attractive term on one
        # axis; both laws must give +0.0 there, not -0.0
        self.assert_bit_identical(q, Vec2(10.0, 0.0), [])


def load_fig2_env(config_dir):
    return decode(Environment, json.loads((config_dir / "fig2_env.json").read_text()), "environment")


def make_env(obstacles, half_length=0.5):
    return Environment(
        obstacles=tuple(obstacles),
        start=Vec2(0.0, 0.0),
        goal=Vec2(10.0, 0.0),
        geometry_mode=KnownRadius(0.5),
        table_half_length=half_length,
    )


class TestRunGame:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)

    def test_empty_environment_goes_straight(self):
        env = make_env([])
        for strategy in (
            Strategy("explicit", period=0),
            Strategy("dynamic", period=1),
            Strategy("speaker_speaker"),
            Strategy("speaker_listener"),
        ):
            out = run_game(env, strategy, self.params, self.limits, seed=1)
            assert out.success
            expected_steps = (10.0 - self.limits.goal_eps) / (self.params.w_v * 1.0)
            assert abs(out.steps - expected_steps) <= 3

    def test_deterministic_repeat(self):
        env = generate_environment(11, 4, KnownRadius(0.5), Workspace())
        a = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, self.limits, 11,
                     record_trajectory=True)
        b = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, self.limits, 11,
                     record_trajectory=True)
        assert a == b

    def test_fig2_scenario_contrast(self, config_dir):
        env = load_fig2_env(config_dir)
        blind = run_game(env, Strategy("speaker_speaker"), self.params, self.limits, 0)
        roles = run_game(env, Strategy("dynamic", period=1), self.params, self.limits, 0,
                         record_trajectory=True)
        assert not blind.success and blind.failure_kind == "collision"
        assert roles.success
        # the listener detours: lateral motion away from the obstacle side
        min_cy = min(ts.cy for ts in roles.trajectory)
        assert min_cy < -0.1

    def test_listener_infers_only_while_listening(self):
        env = make_env([TaggedObstacle(Vec2(5.0, 0.3), 0.5, owner=1)])
        out = run_game(env, Strategy("speaker_listener"), self.params, self.limits, 0,
                       record_trajectory=True)
        saw_inference = any(ts.inferred2 is not None for ts in out.trajectory)
        assert saw_inference
        assert all(ts.inferred1 is None for ts in out.trajectory)
        assert all(ts.role1 == "S" and ts.role2 == "L" for ts in out.trajectory)

    def test_roles_alternate_with_period(self):
        env = make_env([])
        out = run_game(env, Strategy("dynamic", period=4), self.params, self.limits, 0,
                       record_trajectory=True)
        for ts in out.trajectory:
            expected_speaker_is_1 = (ts.step // 4) % 2 == 0
            assert (ts.role1 == "S") == expected_speaker_is_1
            assert (ts.role2 == "L") == expected_speaker_is_1

    def test_rigidity_along_trajectory(self):
        env = generate_environment(13, 8, KnownRadius(0.5), Workspace())
        out = run_game(env, Strategy("dynamic", period=1), self.params, self.limits, 13,
                       record_trajectory=True)
        for ts in out.trajectory:
            state = TableState(Vec2(ts.cx, ts.cy), ts.heading, env.table_half_length)
            span = (state.q1 - state.q2).norm()
            assert abs(span - 1.0) < 1e-12

    def test_centralized_equivalence_explicit_realtime(self):
        # with one obstacle per agent, realtime noise-free messages give both
        # agents the full map from the first step; the game must then match a
        # hand-stepped centralized rollout exactly
        obstacles = [
            TaggedObstacle(Vec2(4.0, 0.8), 0.5, owner=1),
            TaggedObstacle(Vec2(6.5, -0.7), 0.5, owner=2),
        ]
        env = make_env(obstacles)
        out = run_game(env, Strategy("explicit", period=0), self.params, self.limits, 0,
                       record_trajectory=True)
        state = initial_table_state(env)
        attractors = [Attractor(env.goal)]
        all_obs = list(obstacles)
        for ts in out.trajectory:
            v1 = agent_velocity(state.q1, attractors, all_obs, self.params)
            v2 = agent_velocity(state.q2, attractors, all_obs, self.params)
            # the game sums each agent's own obstacles before received ones,
            # so agreement is mathematical, not bitwise
            assert ts.v1x == pytest.approx(v1[0], abs=1e-12)
            assert ts.v1y == pytest.approx(v1[1], abs=1e-12)
            assert ts.v2x == pytest.approx(v2[0], abs=1e-12)
            assert ts.v2y == pytest.approx(v2[1], abs=1e-12)
            state = table_step(
                state,
                _clamp_test(Vec2(ts.v1x, ts.v1y), self.limits.v_max),
                _clamp_test(Vec2(ts.v2x, ts.v2y), self.limits.v_max),
                self.limits.dt,
            )
            assert ts.cx == pytest.approx(state.center[0], abs=1e-9)
            assert ts.cy == pytest.approx(state.center[1], abs=1e-9)
            state = TableState(Vec2(ts.cx, ts.cy), ts.heading, env.table_half_length)

    def test_periodic_explicit_game_runs_several_deliveries(self):
        # obstacles on both sides: several explicit delivery rounds run in a real game
        obstacles = [
            TaggedObstacle(Vec2(3.5, 1.0), 0.5, owner=1),
            TaggedObstacle(Vec2(6.0, -1.0), 0.5, owner=2),
            TaggedObstacle(Vec2(7.5, 1.2), 0.5, owner=1),
            TaggedObstacle(Vec2(4.5, -1.5), 0.5, owner=2),
        ]
        env = make_env(obstacles)
        params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
        out = run_game(env, Strategy("explicit", period=4), params, Limits(), seed=3)
        assert out.steps > 8  # several delivery rounds happened

    def test_speaker_strictness_blinds_current_speaker(self):
        # an obstacle only agent 1 can see, placed on agent 2's side: while
        # agent 2 speaks it must ignore what it inferred earlier
        env = make_env([TaggedObstacle(Vec2(5.0, 0.0), 0.5, owner=1)])
        out = run_game(env, Strategy("dynamic", period=8), self.params, self.limits, 0,
                       record_trajectory=True)
        attractors = [Attractor(env.goal)]
        state = initial_table_state(env)
        for ts in out.trajectory:
            if ts.role2 == "S" and ts.inferred2 is not None:
                # speaking agent 2's command reflects no obstacles at all
                v2 = agent_velocity(state.q2, attractors, [], self.params)
                assert (ts.v2x, ts.v2y) == v2
            state = TableState(Vec2(ts.cx, ts.cy), ts.heading, env.table_half_length)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Limits(max_steps=0)
        with pytest.raises(ValueError):
            Limits(goal_eps=0.0)
        with pytest.raises(ValueError):
            Limits(dt=-1.0)

    @pytest.mark.parametrize(
        "name, period, noise_cv",
        [
            ("telepathy", 0, 0.0),
            ("explicit", -1, 0.0),
            ("dynamic", 0, 0.0),
            ("dynamic", 1, -0.5),
            ("speaker_listener", 1, 0.0),
            ("speaker_speaker", 4, 0.0),
            ("explicit", 0, math.nan),
            ("dynamic", 1, math.inf),
        ],
        ids=[
            "unknown_name",
            "explicit_negative_period",
            "dynamic_zero_period",
            "negative_cv",
            "speaker_listener_with_period",
            "speaker_speaker_with_period",
            "nan_cv",
            "inf_cv",
        ],
    )
    def test_strategy_validation(self, name, period, noise_cv):
        with pytest.raises(ValueError):
            Strategy(name, period, noise_cv)


def _clamp_test(v, v_max):
    speed = v.norm()
    if v_max is None or speed <= v_max:
        return v
    return Vec2(v[0] * (v_max / speed), v[1] * (v_max / speed))


class TestEnvironmentGeneration:
    def test_empty(self):
        env = generate_environment(1, 0, KnownRadius(0.5), Workspace())
        assert env.obstacles == ()

    def test_owner_tags_alternate(self):
        env = generate_environment(2, 4, KnownRadius(0.5), Workspace())
        owners = [o.owner for o in env.obstacles]
        assert owners == [1, 2, 1, 2]
        assert len(env.owned_by(1)) == 2 and len(env.owned_by(2)) == 2

    def test_deterministic(self):
        a = generate_environment(33, 8, UnknownRadius(0.3, 0.5), Workspace())
        b = generate_environment(33, 8, UnknownRadius(0.3, 0.5), Workspace())
        assert a == b

    def test_clearance_respected(self):
        ws = Workspace(clearance=1.4)
        for seed in range(50):
            env = generate_environment(seed, 8, KnownRadius(0.5), ws)
            for o in env.obstacles:
                assert math.dist(o.center, ws.start) >= ws.clearance + o.radius
                assert math.dist(o.center, ws.goal) >= ws.clearance + o.radius

    def test_centers_inside_corridor(self):
        ws = Workspace(x_range=(1.4, 9.3), y_range=(-3.5, 3.5))
        env = generate_environment(7, 8, KnownRadius(0.5), ws)
        for o in env.obstacles:
            assert 1.4 <= o.center[0] <= 9.3
            assert -3.5 <= o.center[1] <= 3.5

    def test_unknown_radii_within_range(self):
        env = generate_environment(5, 8, UnknownRadius(0.3, 0.5), Workspace())
        for o in env.obstacles:
            assert 0.3 <= o.radius <= 0.5

    def test_generation_error_when_impossible(self):
        ws = Workspace(x_range=(0.0, 1.0), y_range=(-0.5, 0.5), clearance=50.0, retry_cap=20)
        with pytest.raises(GenerationError):
            generate_environment(1, 1, KnownRadius(0.5), ws)

    def test_env_dict_round_trip(self):
        env = generate_environment(12, 4, UnknownRadius(0.3, 0.5), Workspace())
        again = decode(Environment, json.loads(json.dumps(encode(env))), "environment")
        assert env == again

    def test_env_dict_rejects_unknown_keys(self):
        env = generate_environment(12, 2, KnownRadius(0.5), Workspace())
        d = encode(env)
        d["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            decode(Environment, d, "environment")


class TestTrajectoryCsv:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)

    def test_golden_format(self, config_dir, golden_dir):
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        fig2_env = load_fig2_env(config_dir)
        # the second case pins periodic explicit delivery with channel noise
        cases = (
            ("fig2_dynamic_t1.csv", fig2_env, Strategy("dynamic", period=1), 0),
            ("explicit_t3_cv01.csv", generate_environment(3, 4, KnownRadius(0.5), Workspace()),
             Strategy("explicit", period=3, noise_cv=0.1), 3),
        )
        for name, env, strategy, seed in cases:
            out = run_game(env, strategy, self.params, limits, seed, record_trajectory=True)
            lines = trajectory_csv_lines(out.trajectory)
            assert lines == (golden_dir / name).read_text().splitlines(), name

    def test_matches_format_rendering(self):
        # every float column as format(x, ".12g"), over signed zeros, the
        # extremes of the exponent range and a saturated inferred obstacle
        def fmt(x):
            return format(x, ".12g")

        saturated = InferredObstacle(-0.0, 1e15, 0.5, saturated=True)
        steps = [
            TrajectoryStep(0, 0.0, -0.0, 1e-300, -0.0, 1e15, 1 / 3, -2e-7, "S", "L", None, saturated),
            TrajectoryStep(1, -1e15, 2.5, -0.0, 1e-300, 0.0, -1e-300, 123456789.123456789, "L", "S",
                           InferredObstacle(5.000000000002, 0.299999999999, 1e-300), saturated),
        ]
        expected = [TRAJECTORY_COLUMNS]
        for ts in steps:
            row = [str(ts.step), fmt(ts.cx), fmt(ts.cy), fmt(ts.heading), fmt(ts.v1x), fmt(ts.v1y),
                   fmt(ts.v2x), fmt(ts.v2y), ts.role1, ts.role2]
            for inf in (ts.inferred1, ts.inferred2):
                row += ["", "", ""] if inf is None else [fmt(inf.cx), fmt(inf.cy), fmt(inf.radius)]
            expected.append(",".join(row))
        assert trajectory_csv_lines(steps) == expected
        assert expected[1] == "0,0,-0,1e-300,-0,1e+15,0.333333333333,-2e-07,S,L,,,,-0,1e+15,0.5"

    def test_step_fields_follow_the_csv_columns(self):
        # one flat row per step, in column order; the heading is the theta column
        columns = TRAJECTORY_COLUMNS.split(",")
        assert TrajectoryStep._fields[:10] == tuple(
            "heading" if c == "theta" else c for c in columns[:10]
        )
        assert TrajectoryStep._fields[10:] == ("inferred1", "inferred2")
        assert columns[10:] == ["inf1x", "inf1y", "inf1r", "inf2x", "inf2y", "inf2r"]

    def test_never_inferred_agent_leaves_its_columns_empty(self):
        # under speaker_listener agent 1 always speaks, so only agent 2 infers
        env = make_env([TaggedObstacle(Vec2(5.0, 0.3), 0.5, owner=1)])
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        out = run_game(env, Strategy("speaker_listener"), self.params, limits, 0,
                       record_trajectory=True)
        rows = [line.split(",") for line in trajectory_csv_lines(out.trajectory)[1:]]
        assert len(rows) == out.steps
        assert all(row[10:13] == ["", "", ""] for row in rows)
        assert any(row[13:16] != ["", "", ""] for row in rows)

    def test_rerun_identical(self, config_dir):
        env = load_fig2_env(config_dir)
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        a = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, limits, 1,
                     record_trajectory=True)
        b = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, limits, 1,
                     record_trajectory=True)
        assert trajectory_csv_lines(a.trajectory) == trajectory_csv_lines(b.trajectory)

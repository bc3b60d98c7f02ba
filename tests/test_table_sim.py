import json
import math
import random
import re
import struct
from dataclasses import replace
from fractions import Fraction

import pytest

from rolecomms import table_sim
from rolecomms.bench import config_from_dict
from rolecomms.codec import decode, encode
from rolecomms.errors import ConfigError, GenerationError
from rolecomms.numerics import _BLOCK, _HEAD, Rng
from rolecomms.potential_field import (
    ATTRACTOR_EPS,
    MAX_LENGTH,
    RHO_MIN,
    FieldParams,
    agent_velocity,
    repulsive_magnitude,
)
from rolecomms.table_sim import (
    TRAJECTORY_COLUMNS,
    Environment,
    InferredObstacle,
    KnownRadius,
    Limits,
    Strategy,
    TaggedObstacle,
    TrajectoryStep,
    UnknownRadius,
    Workspace,
    check_finite_commands,
    closest_observed_index,
    corrupt,
    generate_environment,
    infer_obstacle,
    run_game,
    trajectory_csv_lines,
)


def velocity(q, goal, obstacles, params):
    """potential_field's law at q for (cx, cy, radius) obstacles."""
    return agent_velocity(q[0], q[1], goal[0], goal[1], obstacles,
                          params.w_att, params.w_rep, params.w_v, params.rho0)


def start_heading(env):
    """The table starts held perpendicular to the start-goal line."""
    return math.atan2(env.goal[1] - env.start[1], env.goal[0] - env.start[0]) + 0.5 * math.pi


def endpoints(cx, cy, heading, half_length):
    """The table's endpoints q1 and q2: where agents 1 and 2 hold it."""
    ux = half_length * math.cos(heading)
    uy = half_length * math.sin(heading)
    return (cx + ux, cy + uy), (cx - ux, cy - uy)


def game_steps(env, strategy, params, limits, seed):
    """Each recorded step of a game with the pose (cx, cy, heading) before it."""
    out = run_game(env, strategy, params, limits, seed, record_trajectory=True)
    pose = (env.start[0], env.start[1], start_heading(env))
    for ts in out.trajectory:
        yield pose, ts
        pose = (ts.cx, ts.cy, ts.heading)


def capped(vx, vy, v_max):
    speed = math.hypot(vx, vy)
    if speed <= v_max:
        return vx, vy
    return vx * (v_max / speed), vy * (v_max / speed)


def corridor_games(limits):
    """Steps of a few generated games, in every strategy family."""
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    strategies = (Strategy("dynamic", period=1), Strategy("explicit", period=3, noise_cv=0.1),
                  Strategy("speaker_listener"), Strategy("speaker_speaker"))
    for seed, strategy in enumerate(strategies):
        env = generate_environment(seed, 6, KnownRadius(0.5), Workspace())
        yield from ((env, pose, ts) for pose, ts in game_steps(env, strategy, params, limits, seed))


# a speed cap far above every command the corridor games make (at most about 0.21)
NO_CAP = 1e9


def cap_never_binds(ts):
    """Whether both of a step's commands are within NO_CAP, so the applied
    commands are the recorded ones."""
    return math.hypot(ts.v1x, ts.v1y) <= NO_CAP and math.hypot(ts.v2x, ts.v2y) <= NO_CAP


class TestTableStep:
    # properties of run_game's kinematics, read off recorded trajectories

    def test_center_moves_by_mean_command(self):
        # the cap never binds, so the applied commands are the recorded ones
        for dt in (0.5, 2.0):
            steps = 0
            for _, (cx, cy, _), ts in corridor_games(Limits(dt=dt, v_max=NO_CAP)):
                assert cap_never_binds(ts)
                assert ts.cx == pytest.approx(cx + dt * 0.5 * (ts.v1x + ts.v2x), abs=1e-12)
                assert ts.cy == pytest.approx(cy + dt * 0.5 * (ts.v1y + ts.v2y), abs=1e-12)
                steps += 1
            assert steps > 50

    def test_pure_rotation_unit_rate(self):
        # the goal at the table's center and point-symmetric obstacles, each
        # seen by one agent: agent 1 at (0, 0.5) commands (-0.5, -1) and agent
        # 2 the opposite, so the center stays and, with r = 0.5, omega = 1
        env = Environment(
            obstacles=(TaggedObstacle((1.5, 0.5), 0.5, owner=1),
                       TaggedObstacle((-1.5, -0.5), 0.5, owner=2)),
            start=(0.0, 0.0),
            goal=(0.0, 0.0),
            geometry_mode=KnownRadius(0.5),
            table_half_length=0.5,
        )
        params = FieldParams(w_att=1.0, w_rep=1.0, w_v=1.0, rho0=2.0)
        out = run_game(env, Strategy("speaker_speaker"), params, Limits(dt=0.25, v_max=NO_CAP), 0,
                       record_trajectory=True)
        (ts,) = out.trajectory
        assert cap_never_binds(ts)
        assert (ts.v1x, ts.v1y) == pytest.approx((-0.5, -1.0), abs=1e-15)
        assert (ts.v2x, ts.v2y) == (-ts.v1x, -ts.v1y)
        assert (ts.cx, ts.cy) == (0.0, 0.0)
        assert ts.heading == pytest.approx(0.5 * math.pi + 0.25, abs=1e-15)

    def test_heading_rate_index_invariant(self):
        # the heading turns by the omega of agent 1's arm, which equals the
        # omega computed from agent 2's arm
        dt = 0.5
        turned = 0
        for env, (_, _, heading), ts in corridor_games(Limits(dt=dt, v_max=NO_CAP)):
            assert cap_never_binds(ts)
            r = env.table_half_length
            vcx = 0.5 * (ts.v1x + ts.v2x)
            vcy = 0.5 * (ts.v1y + ts.v2y)
            ux = math.cos(heading)
            uy = math.sin(heading)
            omega1 = (ux * (ts.v1y - vcy) - uy * (ts.v1x - vcx)) / r
            omega2 = (-ux * (ts.v2y - vcy) + uy * (ts.v2x - vcx)) / r
            assert ts.heading - heading == pytest.approx(dt * omega1, abs=1e-12)
            assert omega2 == pytest.approx(omega1, abs=1e-12)
            turned += abs(omega1) > 1e-3
        assert turned > 10


class TestSpeedCap:
    def test_speed_cap(self):
        # each applied command has norm at most v_max, so the center moves at
        # most dt * v_max and each endpoint turns at most dt * v_max about it
        dt = 2.0
        for v_max in (0.01, 0.1):
            exceeded = 0
            fastest = 0.0
            for env, (cx, cy, heading), ts in corridor_games(Limits(dt=dt, v_max=v_max)):
                moved = math.hypot(ts.cx - cx, ts.cy - cy)
                assert moved <= dt * v_max * (1 + 1e-12)
                assert abs(ts.heading - heading) * env.table_half_length <= dt * v_max * (1 + 1e-12)
                exceeded += math.hypot(ts.v1x, ts.v1y) > v_max
                fastest = max(fastest, moved)
            assert exceeded > 10
            # two capped commands toward the goal move the center at nearly v_max
            assert fastest > 0.9 * dt * v_max

    def test_cap_preserves_direction(self):
        # the pose follows each command scaled down to v_max, not turned
        dt = 1.0
        v_max = 0.05
        capped_steps = 0
        for env, (cx, cy, heading), ts in corridor_games(Limits(dt=dt, v_max=v_max)):
            c1x, c1y = capped(ts.v1x, ts.v1y, v_max)
            c2x, c2y = capped(ts.v2x, ts.v2y, v_max)
            vcx = 0.5 * (c1x + c2x)
            vcy = 0.5 * (c1y + c2y)
            omega = (math.cos(heading) * (c1y - vcy) - math.sin(heading) * (c1x - vcx)) / env.table_half_length
            assert ts.cx == pytest.approx(cx + dt * vcx, abs=1e-12)
            assert ts.cy == pytest.approx(cy + dt * vcy, abs=1e-12)
            assert ts.heading == pytest.approx(heading + dt * omega, abs=1e-12)
            capped_steps += (c1x, c1y) != (ts.v1x, ts.v1y)
        assert capped_steps > 10

    @pytest.mark.parametrize("strategy", [Strategy("speaker_speaker"), Strategy("dynamic", 1)])
    def test_command_at_the_range_edge_is_capped_along_its_direction(
        self, default_field, default_limits, default_workspace, strategy
    ):
        # at the largest w_v the field bound accepts, where both agents'
        # worst-case commands sum to MAX_LENGTH, each command is capped to
        # v_max along its direction: the game plays as it does at w_v = 1e50
        env = generate_environment(0, 4, KnownRadius(0.5), default_workspace)
        top = largest_accepted(lambda w_v: replace(default_field, w_v=w_v), 5, 0.0)
        assert 1e92 < top < 1e94
        poses = []
        for w_v in (1e50, top):
            params = replace(default_field, w_v=w_v)
            out = run_game(env, strategy, params, default_limits, 0, record_trajectory=True)
            poses.append([(ts.cx, ts.cy, ts.heading) for ts in out.trajectory[:20]])
        assert [len(p) for p in poses] == [20, 20]
        for slow, fast in zip(*poses):
            assert fast == pytest.approx(slow, abs=1e-12)


def one_step_game(a, b, obstacle, v_max=1e-9):
    """A one-step game whose table starts on segment ab against the (cx, cy,
    radius) obstacle: whether it collides, and the pose it tested, as (cx,
    cy, heading, half_length). A tiny speed cap keeps that pose within 10
    v_max of the start pose."""
    mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
    half_length = 0.5 * math.dist(a, b)
    # the goal lies along the segment's normal, so the table starts on ab
    # with agent 1 at a
    toward = math.atan2(a[1] - mid[1], a[0] - mid[0]) - 0.5 * math.pi
    goal = (mid[0] + 100.0 * math.cos(toward), mid[1] + 100.0 * math.sin(toward))
    env = Environment(
        obstacles=(TaggedObstacle((obstacle[0], obstacle[1]), obstacle[2], owner=1),),
        start=mid,
        goal=goal,
        geometry_mode=KnownRadius(obstacle[2]),
        table_half_length=half_length,
    )
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    out = run_game(env, Strategy("speaker_speaker"), params, Limits(max_steps=1, v_max=v_max), 0,
                   record_trajectory=True)
    assert out.steps == 1 and out.failure_kind in ("collision", "timeout")
    (ts,) = out.trajectory
    return out.failure_kind == "collision", (ts.cx, ts.cy, ts.heading, half_length)


def one_step_collides(a, b, obstacle, v_max=1e-9):
    """Whether one_step_game's game collides."""
    return one_step_game(a, b, obstacle, v_max)[0]


def exact_offset(pose, disc):
    """The offset, in exact rational arithmetic, of the disc's center from
    the closest point of the segment {c + s*u : |s| <= half_length} of the
    float pose, with u = (cos(heading), sin(heading)) as the game rounds it."""
    cx, cy, heading, half_length = pose
    ux, uy = Fraction(math.cos(heading)), Fraction(math.sin(heading))
    dx, dy = Fraction(disc[0]) - Fraction(cx), Fraction(disc[1]) - Fraction(cy)
    bound = Fraction(half_length)
    s = max(-bound, min(bound, (dx * ux + dy * uy) / (ux * ux + uy * uy)))
    return dx - s * ux, dy - s * uy


def segment_hits(p1, p2, obstacles):
    """Whether any (cx, cy, radius) disc touches the table segment p1p2, by
    the plain segment test from the endpoint p1 with no reject: a formulation
    independent of the game loop's, which must give its answer at every pose.
    It holds only for short tables: measured from p1, offsets cancel at the
    table's scale, and past a length of about 1.3e154 its squared length
    overflows."""
    abx = p2[0] - p1[0]
    aby = p2[1] - p1[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        denom = math.inf
    for ocx, ocy, orad in obstacles:
        apx = ocx - p1[0]
        apy = ocy - p1[1]
        t = (apx * abx + apy * aby) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ddx = apx - t * abx
        ddy = apy - t * aby
        if math.sqrt(ddx * ddx + ddy * ddy) < orad:
            return True
    return False


class TestCollision:
    def test_segment_distance_against_dense_sampling(self):
        # the table collides exactly when the obstacle's center lies closer
        # than its radius to the segment; the distance is bracketed by dense
        # sampling along the segment, within its resolution
        rng = random.Random(5)
        decided = 0
        for _ in range(1000):
            a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            dense = min(
                math.dist(p, (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
                for t in (i / 999 for i in range(1000))
            )
            radius = dense * rng.uniform(0.5, 1.5)
            if radius > dense + 1e-6:
                assert one_step_collides(a, b, (p[0], p[1], radius))
            elif radius < dense - 2e-2 - 1e-6:
                assert not one_step_collides(a, b, (p[0], p[1], radius))
            else:
                continue
            decided += 1
        assert decided > 900

    def test_table_collides(self):
        # segment (-1, 0)..(1, 0); past either end the segment parameter is
        # clamped, so an obstacle on the segment's line but out of reach misses
        a, b = (1.0, 0.0), (-1.0, 0.0)
        assert one_step_collides(a, b, (0.0, 0.4, 0.5))
        assert not one_step_collides(a, b, (0.0, 0.6, 0.5))
        assert one_step_collides(a, b, (1.3, 0.0, 0.4))
        assert one_step_collides(a, b, (-1.3, 0.0, 0.4))
        assert not one_step_collides(a, b, (1.5, 0.0, 0.4))
        assert not one_step_collides(a, b, (-1.5, 0.0, 0.4))

    @pytest.mark.parametrize("half_length", [0.5, 1e10, 1e50, 1e90, MAX_LENGTH])
    def test_long_table_hits_exactly_the_discs_within_reach(self, half_length):
        # the table from (0, L) to (0, -L) and a radius-0.5 disc at (d, 0) on
        # its normal through the center: a hit exactly when d < 0.5, up to
        # the longest table the range accepts. Measured from an endpoint, the
        # offsets once cancelled at scale L, making every d a hit
        a, b = (0.0, half_length), (0.0, -half_length)
        for d in (0.0, 0.3, 0.45, 0.55, 0.7, 1.0, 2.0, 4.65):
            assert one_step_collides(a, b, (d, 0.0, 0.5)) == (d < 0.5), d

    def test_verdict_matches_exact_distance_at_every_scale(self):
        # the game's verdict against the exact distance from the disc to the
        # pose it tested, for every half length the range accepts, 1e-100 to
        # MAX_LENGTH. The table starts centered on the origin; the disc lies
        # at unit scale or at the table's own, at most MAX_LENGTH / 10 so
        # that its center and radius stay in the range. That scale is at
        # least 1e-100, because the game squares the distance: one whose
        # square underflows reads as 0
        # (test_distance_that_underflows_still_collides). Cases within 1e-12
        # of the boundary, relative to the largest coordinate, are skipped.
        rng = random.Random(28)
        hits = misses = 0
        for _ in range(3000):
            half_length = 10.0 ** rng.uniform(-100.0, 100.0)
            scale = rng.choice((1.0, min(half_length, 0.1 * MAX_LENGTH)))
            angle = rng.uniform(-math.pi, math.pi)
            a = (half_length * math.cos(angle), half_length * math.sin(angle))
            b = (-a[0], -a[1])
            disc = (scale * rng.uniform(-3.0, 3.0), scale * rng.uniform(-3.0, 3.0))
            start = (0.0, 0.0, angle, half_length)
            reach = math.hypot(*map(float, exact_offset(start, disc)))
            radius = reach * rng.uniform(0.5, 1.5) if rng.random() < 0.8 else rng.choice((0.0, 5e-324))
            collides, pose = one_step_game(a, b, (*disc, radius), v_max=1e-9 * scale)
            tol = Fraction(1e-12 * max(abs(pose[0]), abs(pose[1]), abs(disc[0]), abs(disc[1]), radius))
            ox, oy = exact_offset(pose, disc)
            dist_sq = ox * ox + oy * oy
            if max(Fraction(radius) - tol, 0) ** 2 <= dist_sq <= (Fraction(radius) + tol) ** 2:
                continue
            assert collides == (dist_sq < Fraction(radius) ** 2), (half_length, disc, radius)
            hits += collides
            misses += not collides
        assert hits > 1000 and misses > 1000

    @pytest.mark.parametrize("config", ["table1", "noise"])
    def test_game_ends_at_the_first_pose_the_reference_hits(self, config_dir, config):
        # every pose of the configs' n = 8 games, replayed through the
        # reference segment test: the game ends in collision exactly at the
        # first pose it hits, and plays on while it hits none
        cfg = config_from_dict(json.loads((config_dir / f"{config}.json").read_text()))
        collisions = 0
        for condition in (c for c in cfg.conditions if c.n == 8):
            strategy = condition.comm_strategy()
            for seed in range(12):
                env = generate_environment(seed, 8, condition.geometry_mode(cfg.radii), cfg.workspace)
                discs = [(o.center[0], o.center[1], o.radius) for o in env.obstacles]
                out = run_game(env, strategy, cfg.field_params, cfg.limits, seed, record_trajectory=True)
                hits = [
                    ts.step
                    for ts in out.trajectory
                    if segment_hits(*endpoints(ts.cx, ts.cy, ts.heading, env.table_half_length), discs)
                ]
                assert hits == ([out.steps - 1] if out.failure_kind == "collision" else []), (condition, seed)
                collisions += out.failure_kind == "collision"
        assert collisions >= 20

    def test_distance_that_underflows_still_collides(self):
        # agent 1 at the origin, the table along -x, a 1e-300 disc 1e-300
        # away on +x. Measured from the center at -0.5 the 1e-300 rounds
        # away, and after the 1e-200 step the disc lies about 2e-206 off the
        # table's end: that offset's square underflows to 0.0, so the segment
        # test calls it a hit for any radius above 0, a subnormal one too. A
        # reject by y alone (2e-206 >= radius) would miss it; the reject's
        # floor keeps it in.
        a, b = (0.0, 0.0), (-1.0, 0.0)
        assert one_step_collides(a, b, (1e-300, 0.0, 1e-300), v_max=1e-200)
        assert one_step_collides(a, b, (1e-300, 0.0, 5e-324), v_max=1e-200)
        assert not one_step_collides(a, b, (1e-300, 0.0, 0.0), v_max=1e-200)

    @pytest.mark.parametrize("strategy", [Strategy("speaker_speaker"), Strategy("dynamic", period=1)],
                             ids=["speaker_speaker", "dynamic"])
    def test_distance_at_the_range_edge_still_collides(self, strategy):
        # a disc of radius MAX_LENGTH at (MAX_LENGTH / 2, 0) holds both start
        # and goal: the table lies about MAX_LENGTH / 2 from its center, and
        # the disc is hit on the first step
        env = Environment(
            obstacles=(TaggedObstacle((0.5 * MAX_LENGTH, 0.0), MAX_LENGTH, owner=1),),
            start=(0.0, 0.0),
            goal=(10.0, 0.0),
            geometry_mode=KnownRadius(MAX_LENGTH),
        )
        out = run_game(env, strategy, FieldParams(), Limits(), 0)
        assert (out.failure_kind, out.steps) == ("collision", 1)

    @pytest.mark.parametrize("obstacle, kind", [((0.1, 0.0, 0.5), "collision"), ((5.0, 3.0, 0.5), "none")])
    def test_zero_length_table_is_tested_as_a_point(self, obstacle, kind):
        # no squared length is formed: measured from the center, the
        # shortest table the range accepts has a half axis that rounds away,
        # so the table is tested as its center: a disc around the start is
        # hit on the first step, one off the path is never hit
        env = Environment(
            obstacles=(TaggedObstacle((obstacle[0], obstacle[1]), obstacle[2], owner=1),),
            start=(0.0, 0.0),
            goal=(10.0, 0.0),
            geometry_mode=KnownRadius(0.5),
            table_half_length=1 / MAX_LENGTH,
        )
        params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
        out = run_game(env, Strategy("speaker_speaker"), params, Limits(), 0)
        assert out.failure_kind == kind
        if kind == "collision":
            assert out.steps == 1

    @pytest.mark.parametrize(
        "half_length", [math.nextafter(1e-100, 0.0), 1e-308, 5e-324, 1e-310, 0.0, -1.0, math.nan]
    )
    def test_table_shorter_than_the_range_is_rejected(self, half_length):
        # the game turns at a rate inversely proportional to the half
        # length: at 1e-310, and at 1e-308 with v_max 10, the heading became
        # infinite and the game died with "math domain error"
        message = f"table_half_length must be at least 1e-100, got {half_length}"
        for make in (
            lambda: Environment((), (0.0, 0.0), (10.0, 0.0), KnownRadius(0.5), half_length),
            lambda: Workspace(table_half_length=half_length),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()


class TestInference:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    goal = (10.0, 0.0)

    def test_pure_attraction_yields_none(self):
        q = (3.0, 1.0)
        v = velocity(q, self.goal, [], self.params)
        assert infer_obstacle(v, q, self.goal, self.params, 0.5) is None

    @pytest.mark.parametrize("w_v", [0.1, 0.3])
    def test_obstacle_free_speaker_yields_none_at_every_accepted_w_att(self, w_v):
        # the residual's rounding grows with w_att, and once read as an
        # obstacle from w_att 1e7 on, under an absolute gate alone
        def field(w_att):
            return FieldParams(w_att=w_att, w_rep=self.params.w_rep, w_v=w_v, rho0=self.params.rho0)

        # a term's scale, w_att / ATTRACTOR_EPS, bounds w_att by MAX_LENGTH * 1e-6
        top = largest_accepted(field, 2, 0.0)
        assert 1e93 < top <= 1e94
        rng = random.Random(w_v)
        weights = [1.0, 1e6, 1e7, 1e8, 1e50, 1e90, top]
        weights += [10.0 ** rng.uniform(0.0, math.log10(top)) for _ in range(12)]
        phantoms = 0
        for w_att in weights:
            params = field(w_att)
            for _ in range(500):
                # table1's corridor
                q = (rng.uniform(1.4, 9.3), rng.uniform(-3.5, 3.5))
                phantoms += infer_obstacle(velocity(q, self.goal, [], params), q, self.goal, params, 0.5) is not None
        assert phantoms == 0

    def test_forward_round_trip(self):
        rng = random.Random(6)
        hits = 0
        for _ in range(200):
            q = (rng.uniform(0, 8), rng.uniform(-2, 2))
            angle = rng.uniform(0, 2 * math.pi)
            rho = rng.uniform(0.05, self.params.rho0 * 0.98)
            radius = 0.5
            center = (
                q[0] + (rho + radius) * math.cos(angle),
                q[1] + (rho + radius) * math.sin(angle),
            )
            v = velocity(q, self.goal, [(*center, radius)], self.params)
            got = infer_obstacle(v, q, self.goal, self.params, radius, tol=1e-12)
            assert got is not None
            err = math.dist(got[:2], center)
            assert err < 1e-11
            hits += 1
        assert hits == 200

    def test_weak_residual_places_far_obstacle(self):
        # a residual just above zero inverts to a boundary distance near rho0
        q = (0.0, 0.0)
        tiny = 1e-4
        # the attractive gradient at q: the unit vector from the goal toward q
        att = (-self.params.w_att, 0.0)
        # observed velocity engineered so that v/w_v + att = (-tiny, 0)
        v = (self.params.w_v * (-tiny - att[0]), self.params.w_v * (0.0 - att[1]))
        got = infer_obstacle(v, q, self.goal, self.params, 0.5)
        assert got is not None
        rho = math.dist(got[:2], q) - 0.5
        assert rho > 0.9 * self.params.rho0

    def test_saturated_residual_flagged_at_floor(self):
        q = (0.0, 0.0)
        att = (-self.params.w_att, 0.0)
        big = repulsive_magnitude(1e-3, self.params) * 2.0
        v = (self.params.w_v * (big - att[0]), self.params.w_v * (0.0 - att[1]))
        got = infer_obstacle(v, q, self.goal, self.params, 0.5)
        assert got is not None
        assert got.saturated
        assert math.dist(got[:2], q) == pytest.approx(1e-3 + 0.5)

    @pytest.mark.parametrize("radius", [-0.5, math.nan, math.inf])
    def test_invalid_nominal_radius_rejected(self, radius):
        # the residual here is strong enough to infer an obstacle
        q = (0.0, 0.0)
        v = velocity(q, self.goal, [(0.0, 1.0, 0.5)], self.params)
        assert infer_obstacle(v, q, self.goal, self.params, 0.5) is not None
        with pytest.raises(ValueError, match="radius"):
            infer_obstacle(v, q, self.goal, self.params, radius)

    def test_invalid_nominal_radius_rejected_without_inference(self):
        # the residual is zero, so nothing would be inferred; the radius is
        # checked all the same
        q = (3.0, 1.0)
        v = velocity(q, self.goal, [], self.params)
        with pytest.raises(ValueError, match="radius"):
            infer_obstacle(v, q, self.goal, self.params, -1.0)

    def test_matches_generic_bisection(self):
        # the inversion, steered by the closed-form root, must land where a
        # generic bisection on the same curve would: the curve is strictly
        # decreasing, so the root of curve(rho) = mag lies within delta of
        # the inferred rho when the curve at rho -/+ delta brackets mag
        tol = 1e-12
        delta = 10.0 * tol
        rng = random.Random(7)
        top = repulsive_magnitude(RHO_MIN, self.params)
        q = (5.0, 0.0)
        for _ in range(50):
            mag = rng.uniform(1e-6, top * 0.99)
            # at q with the goal at (10, 0) the attractive term is (-1, 0), so
            # v = w_v*(mag + 1, 0) leaves a residual of (mag, 0); radius 0
            # puts the center at boundary distance rho from q
            v = (self.params.w_v * (mag + 1.0), 0.0)
            got = infer_obstacle(v, q, self.goal, self.params, 0.0, tol=tol)
            rho = math.dist(got[:2], q)
            assert repulsive_magnitude(rho - delta, self.params) >= mag >= repulsive_magnitude(rho + delta, self.params)


def plain_bisection(mag, params, tol, visited=None):
    """The boundary distance with field strength mag by plain bisection on
    the float curve, as _invert_repulsive_magnitude found it before the
    closed-form root steered it: the reference the steered one must match.
    visited, when given, collects every midpoint the loop judges."""
    lo, hi = RHO_MIN, params.rho0
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if visited is not None:
            visited.append(mid)
        f = repulsive_magnitude(mid, params)
        if f == mag:
            return mid
        if f > mag:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def path_mags(mag, params, tol, rng, k):
    """The curve at k of the midpoints the plain bisection visits for mag, each
    an exact hit for one midpoint, and the floats on either side of it."""
    mids = []
    plain_bisection(mag, params, tol, mids)
    out = []
    for mid in rng.sample(mids, min(k, len(mids))):
        f = repulsive_magnitude(mid, params)
        out += [math.nextafter(f, 0.0), f, math.nextafter(f, math.inf)]
    return out


class TestSteeredInversion:
    """The steered inversion returns the plain bisection's float, bit for bit.

    Exact-hit mags catch a midpoint judged by the root where the curve would
    have stopped on it; extreme weights and ranges catch a root trusted
    where the float curve crosses mag elsewhere (the root's formula
    underflows or overflows, or its window leaves the bracket)."""

    def assert_parity(self, cases):
        differ = [
            (mag, params, tol)
            for mag, params, tol in cases
            if float_bits(table_sim._invert_repulsive_magnitude(mag, params, tol))
            != float_bits(plain_bisection(mag, params, tol))
        ]
        assert differ == [], f"{len(differ)} of {len(cases)} differ, first {differ[:3]}"

    @pytest.mark.parametrize(
        "rho0_decades, root_decades",
        [((math.log10(2e-3), 100), None), ((90, 100), 20)],
        ids=["whole_range", "range_edge"],
    )
    def test_extreme_weights_and_ranges(self, rho0_decades, root_decades):
        # w_rep from 1e-300 to 1e300 and rho0 over rho0_decades, log-uniform,
        # up to MAX_LENGTH; one root per draw, log-uniform in the bracket or
        # within root_decades below rho0, at each tol
        rng = random.Random(16)
        cases = []
        for _ in range(80):
            params = FieldParams(w_rep=10.0 ** rng.uniform(-300, 300), rho0=10.0 ** rng.uniform(*rho0_decades))
            low = math.log10(RHO_MIN) if root_decades is None else math.log10(params.rho0) - root_decades
            rho = 10.0 ** rng.uniform(low, math.log10(params.rho0))
            for tol in (1e-10, 1e-12, 0.0):
                cases += [(mag, params, tol) for mag in path_mags(repulsive_magnitude(rho, params), params, tol, rng, 8)]
        self.assert_parity(cases)

    @pytest.mark.parametrize("config", ["table1", "noise", "fig3"])
    def test_config_field(self, config_dir, config):
        params = FieldParams(**json.loads((config_dir / f"{config}.json").read_text())["field"])
        rng = random.Random(config)
        top = repulsive_magnitude(RHO_MIN, params)
        cases = []
        for tol in (table_sim.DEFAULT_INFER_TOL, 1e-12, 0.0):
            # residuals from RESIDUAL_EPS up to the floor's field, log-uniform
            mags = [10.0 ** rng.uniform(math.log10(table_sim.RESIDUAL_EPS), math.log10(top)) for _ in range(300)]
            for mag in mags[:10]:
                mags += path_mags(mag, params, tol, rng, 40)
            cases += [(mag, params, tol) for mag in mags]
        self.assert_parity(cases)

    def test_roots_at_the_ends_of_the_bracket(self):
        # one ulp below the floor's field (a root just above RHO_MIN), and
        # roots within 1e-12 of rho0, absolute and relative
        rng = random.Random(3)
        fields = [FieldParams(w_rep=0.45, rho0=2.0), FieldParams(w_rep=0.45, rho0=2.1)]
        fields += [FieldParams(w_rep=10.0 ** rng.uniform(-300, 300), rho0=10.0 ** rng.uniform(-2.6, 100)) for _ in range(20)]
        cases = []
        for params in fields:
            rho0 = params.rho0
            mags = [math.nextafter(repulsive_magnitude(RHO_MIN, params), 0.0)]
            for k in range(1, 11):
                for rho in (rho0 - k * 1e-13, rho0 * (1.0 - k * 1e-13), math.nextafter(rho0, 0.0)):
                    mags.append(repulsive_magnitude(rho, params))
            cases += [(mag, params, tol) for mag in mags for tol in (1e-10, 1e-12, 0.0)]
        self.assert_parity(cases)

    def test_largest_ranges_return(self):
        # rho0 from 1e99 up to MAX_LENGTH, the largest FieldParams accepts:
        # every call returns, with the plain result
        rng = random.Random(29)
        rho0s = [1e99, 5e99, math.nextafter(MAX_LENGTH, 0.0), MAX_LENGTH]
        rho0s += [10.0 ** rng.uniform(99, 100) for _ in range(11)]
        cases = []
        for rho0 in rho0s:
            params = FieldParams(w_rep=10.0 ** rng.uniform(-300, 300), rho0=rho0)
            for tol in (1e-10, 1e-12, 0.0):
                for _ in range(6):
                    mag = repulsive_magnitude(10.0 ** rng.uniform(math.log10(RHO_MIN), math.log10(rho0)), params)
                    if mag > 0.0:
                        cases += [(m, params, tol) for m in [mag, *path_mags(mag, params, tol, rng, 4)]]
        assert len(cases) > 300
        self.assert_parity(cases)

    def test_root_whose_certificate_fails(self):
        # roots within 1e-13 of either end of the bracket: the window of
        # relative width _STEER_WINDOW around each leaves (RHO_MIN, rho0), so
        # no midpoint is judged by the root alone
        params = FieldParams(w_rep=0.45, rho0=2.0)
        half = 0.5 * table_sim._STEER_WINDOW
        rng = random.Random(5)
        cases = []
        for rho in (RHO_MIN * (1.0 + 1e-13), params.rho0 * (1.0 - 1e-13)):
            assert rho * (1.0 - half) < RHO_MIN or rho * (1.0 + half) > params.rho0
            mag = repulsive_magnitude(rho, params)
            for tol in (1e-10, 1e-12, 0.0):
                cases += [(m, params, tol) for m in [mag, *path_mags(mag, params, tol, rng, 20)]]
        self.assert_parity(cases)

    def test_exact_hits_at_midpoints_inside_the_window(self):
        # at tol 0 the bisection runs on into the window around the root, so
        # some midpoints fall inside it; path_mags turns each into an exact
        # hit, which the second phase must find on the curve
        params = FieldParams(w_rep=0.45, rho0=2.0)
        rho = 0.7
        mids = []
        plain_bisection(repulsive_magnitude(rho, params), params, 0.0, mids)
        assert sum(abs(mid - rho) < 0.5 * table_sim._STEER_WINDOW * rho for mid in mids) >= 5
        mags = path_mags(repulsive_magnitude(rho, params), params, 0.0, random.Random(7), len(mids))
        self.assert_parity([(mag, params, tol) for mag in mags for tol in (1e-12, 0.0)])


class TestMessages:
    def test_tie_breaks_to_lowest_index(self):
        # obstacles as the game loop holds them: (cx, cy, radius) tuples
        a = (2.0, 0.0, 0.3)
        c = (-2.0, 0.0, 0.3)
        assert closest_observed_index((a, c), (0, 0)) == 0
        assert closest_observed_index((c, a), (0, 0)) == 0
        # a single obstacle, the nearer of two, and nothing observed
        near = (1.0, 0.0, 0.3)
        far = (5.0, 0.0, 0.3)
        assert closest_observed_index((far,), (0, 0)) == 0
        assert closest_observed_index((far, near), (0, 0)) == 1
        assert closest_observed_index((), (0, 0)) is None


class TestCorrupt:
    def test_zero_cv_identity_and_no_draws(self):
        rng = Rng(5)
        assert corrupt((1.0, -2.0, 3.0), 0.0, rng) == (1.0, -2.0, 3.0)
        assert rng.uniform() == Rng(5).uniform()

    def test_zero_component_unchanged(self):
        out = corrupt((0.0, 5.0), 0.5, Rng(6))
        assert out[0] == 0.0
        assert out[1] != 5.0

    def test_sample_stddev_tracks_cv(self):
        rng = Rng(7)
        n = 100_000
        pairs = [corrupt((10.0, 10.0), 0.1, rng) for _ in range(n)]
        for samples in zip(*pairs):
            mean = sum(samples) / n
            std = math.sqrt(sum((x - mean) ** 2 for x in samples) / n)
            assert abs(std - 1.0) < 0.02

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            corrupt((1.0,), -0.1, Rng(8))

    @pytest.mark.parametrize("cv", [math.nan, math.inf, 1.5, 1e308])
    def test_cv_outside_unit_interval_rejected_without_draws(self, cv):
        # beyond 1, cv*|x| overflows to an infinite stddev for some finite x
        rng = Rng(8)
        with pytest.raises(ValueError, match=r"cv must be in \[0, 1\]"):
            corrupt((1.0, 2.0), cv, rng)
        assert rng.uniform() == Rng(8).uniform()

    @pytest.mark.parametrize("cv", [0.0, 0.2])
    @pytest.mark.parametrize("values", [(1.0,), (1.0, 2.0, 3.0, 4.0)])
    def test_neither_velocity_nor_message_rejected(self, values, cv):
        rng = Rng(9)
        with pytest.raises(ValueError):
            corrupt(values, cv, rng)
        assert rng.uniform() == Rng(9).uniform()

    @staticmethod
    def seed_corrupt(values, cv, rng):
        """The noisy channel as first written: a generator over the values, each
        sample drawn by Box-Muller from two `Rng.uniform` calls."""

        def g(rng, mean, stddev):
            if stddev == 0.0:
                return mean
            u1 = rng.uniform()
            u2 = rng.uniform()
            return mean + stddev * (math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))

        return tuple(x + g(rng, 0.0, cv * abs(x)) for x in values)

    # Offsets before the last scalar draw (_HEAD) and the last draw of the
    # first block (_HEAD + _BLOCK), so that for every input some value's two
    # draws straddle the switch to blocks or the refill.
    @pytest.mark.parametrize(
        "values",
        [(0.0, 5.0), (-0.0, -3.0), (1.5, -2.0), (0.0, 0.0, 0.4), (2.0, -0.0, 0.3), (-1.0, 4.0, -0.0)],
    )
    def test_bit_identical_to_the_seed_channel_across_block_boundaries(self, values):
        for boundary in (_HEAD, _HEAD + _BLOCK):
            for offset in range(boundary - 6, boundary + 1):
                for seed in (3, 2**64 - 1):
                    rng, ref = Rng(seed), Rng(seed)
                    for _ in range(offset):
                        rng.uniform()
                        ref.uniform()
                    got = corrupt(values, 0.3, rng)
                    want = self.seed_corrupt(values, 0.3, ref)
                    assert list(map(float_bits, got)) == list(map(float_bits, want)), (offset, seed)
                    assert rng.uniform() == ref.uniform()


def float_bits(x: float) -> int:
    """The IEEE 754 bit pattern of x, so that 0.0 and -0.0 differ."""
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def largest_accepted(field, k, cv):
    """The largest weight w >= 1 for which check_finite_commands accepts
    field(w) at k and cv, by bisection on the bit patterns of positive
    floats, which sort as the floats do."""
    def accepted(bits):
        try:
            check_finite_commands(field(struct.unpack("<d", struct.pack("<Q", bits))[0]), k, cv)
        except ValueError:
            return False
        return True

    lo, hi = float_bits(1.0), float_bits(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return struct.unpack("<d", struct.pack("<Q", lo))[0]


def naive_velocity(q, goal, obstacles, params):
    """The field law written term by term, as a reference: minus the
    attractive gradient plus one repulsive gradient per (cx, cy, radius)
    obstacle, summed and scaled by w_v."""
    dx = q[0] - goal[0]
    dy = q[1] - goal[1]
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < ATTRACTOR_EPS:
        att = (0.0, 0.0)
    else:
        scale = params.w_att / dist
        att = (dx * scale, dy * scale)
    vx = 0.0 - att[0]
    vy = 0.0 - att[1]
    for ocx, ocy, orad in obstacles:
        dx = q[0] - ocx
        dy = q[1] - ocy
        center_dist = math.sqrt(dx * dx + dy * dy)
        rho = center_dist - orad
        if rho > params.rho0:
            term = (0.0, 0.0)
        else:
            mag = repulsive_magnitude(max(rho, RHO_MIN), params)
            if center_dist < ATTRACTOR_EPS:
                term = (mag, 0.0)
            else:
                scale = mag / center_dist
                term = (dx * scale, dy * scale)
        vx += term[0]
        vy += term[1]
    return (vx * params.w_v, vy * params.w_v)


class TestFieldVelocityParity:
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)

    def assert_bit_identical(self, q, goal, obstacles):
        # the game loop calls the one law under this name
        assert table_sim._field_velocity is agent_velocity
        fast = velocity(q, goal, obstacles, self.params)
        slow = naive_velocity(q, goal, obstacles, self.params)
        assert [float_bits(v) for v in fast] == [float_bits(v) for v in slow]

    def test_matches_public_agent_velocity(self):
        rng = random.Random(9)
        goal = (10.0, 0.0)
        for _ in range(300):
            q = (rng.uniform(-1, 11), rng.uniform(-4, 4))
            obstacles = [
                (rng.uniform(0, 10), rng.uniform(-3, 3), rng.uniform(0.1, 0.8))
                for _ in range(rng.randrange(0, 6))
            ]
            self.assert_bit_identical(q, goal, obstacles)

    @pytest.mark.parametrize(
        "q",
        [(3.0, 0.0), (10.0, -2.0), (10.0, 0.0)],
        ids=["level_with_goal", "below_goal", "at_goal"],
    )
    def test_signed_zero_matches(self, q):
        # an agent level with the goal has a zero attractive term on one
        # axis; the law must give +0.0 there, not -0.0
        self.assert_bit_identical(q, (10.0, 0.0), [])

    def range_edge_obstacles(self, rng):
        """Obstacles whose one coordinate offset d from the origin puts the
        boundary at rho0 exactly (fl(d - r) == rho0), one ulp inside and one
        ulp beyond, on either side of either axis, with the other offset 0,
        -0.0 or small."""
        rho0 = self.params.rho0
        obstacles = []
        # rho0 + r and its difference with r are exact for these radii
        for r in (0.0, 0.5, 0.25, 5e-324, rng.uniform(rho0, 2.0 * rho0) - rho0):
            d = rho0 + r
            assert d - r == rho0
            for edge in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)):
                for other in (0.0, -0.0, 1e-9, -rng.uniform(0.0, 0.5)):
                    for sign in (1.0, -1.0):
                        obstacles.append((sign * edge, other, r))
                        obstacles.append((other, sign * edge, r))
        return obstacles

    def test_range_edges_match(self):
        # at rho == rho0 the law adds an exact signed zero and beyond it
        # nothing: obstacles one ulp either side of the edge, one at a time
        # and all together, seen from either signed zero and the goal's side
        rng = random.Random(11)
        obstacles = self.range_edge_obstacles(rng)
        for q in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)):
            for goal in (q, (10.0, 0.0), (-0.0, 3.0)):
                self.assert_bit_identical(q, goal, obstacles)
                for obstacle in obstacles:
                    self.assert_bit_identical(q, goal, [obstacle])

    @pytest.mark.parametrize("qx", [math.inf, -math.inf, math.nan, -0.0, 1e300])
    @pytest.mark.parametrize("qy", [math.inf, -math.inf, math.nan, -0.0, 2.0])
    def test_nonfinite_positions_match(self, qx, qy):
        # offsets of +-inf or NaN from the agent's position: the same answer,
        # NaN bits included
        obstacles = [(0.0, 0.0, 0.5), (3.0, -1.0, 0.0), (-1e300, 2.0, 0.3), (-0.0, -0.0, 0.0)]
        for goal in ((10.0, 0.0), (qx, qy)):
            self.assert_bit_identical((qx, qy), goal, obstacles)


def load_fig2_env(config_dir):
    return decode(Environment, json.loads((config_dir / "fig2_env.json").read_text()), "environment")


def make_env(obstacles, half_length=0.5):
    return Environment(
        obstacles=tuple(obstacles),
        start=(0.0, 0.0),
        goal=(10.0, 0.0),
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
        env = make_env([TaggedObstacle((5.0, 0.3), 0.5, owner=1)])
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
            q1, q2 = endpoints(ts.cx, ts.cy, ts.heading, env.table_half_length)
            assert abs(math.dist(q1, q2) - 1.0) < 1e-12

    def test_centralized_equivalence_explicit_realtime(self):
        # with one obstacle per agent, realtime noise-free messages give both
        # agents the full map from the first step; the game must then match a
        # hand-stepped centralized rollout exactly
        obstacles = [
            TaggedObstacle((4.0, 0.8), 0.5, owner=1),
            TaggedObstacle((6.5, -0.7), 0.5, owner=2),
        ]
        env = make_env(obstacles)
        out = run_game(env, Strategy("explicit", period=0), self.params, self.limits, 0,
                       record_trajectory=True)
        half_length = env.table_half_length
        full_map = [(*o.center, o.radius) for o in obstacles]
        cx, cy, heading = env.start[0], env.start[1], start_heading(env)
        for ts in out.trajectory:
            q1, q2 = endpoints(cx, cy, heading, half_length)
            v1 = velocity(q1, env.goal, full_map, self.params)
            v2 = velocity(q2, env.goal, full_map, self.params)
            # the game sums each agent's own obstacles before received ones,
            # so agreement is mathematical, not bitwise
            assert ts.v1x == pytest.approx(v1[0], abs=1e-12)
            assert ts.v1y == pytest.approx(v1[1], abs=1e-12)
            assert ts.v2x == pytest.approx(v2[0], abs=1e-12)
            assert ts.v2y == pytest.approx(v2[1], abs=1e-12)
            # one step by hand: mean capped command, and the turn of agent 1's arm
            c1x, c1y = capped(v1[0], v1[1], self.limits.v_max)
            c2x, c2y = capped(v2[0], v2[1], self.limits.v_max)
            vcx = 0.5 * (c1x + c2x)
            vcy = 0.5 * (c1y + c2y)
            omega = (math.cos(heading) * (c1y - vcy) - math.sin(heading) * (c1x - vcx)) / half_length
            assert ts.cx == pytest.approx(cx + self.limits.dt * vcx, abs=1e-9)
            assert ts.cy == pytest.approx(cy + self.limits.dt * vcy, abs=1e-9)
            assert ts.heading == pytest.approx(heading + self.limits.dt * omega, abs=1e-9)
            cx, cy, heading = ts.cx, ts.cy, ts.heading

    def test_periodic_explicit_game_runs_several_deliveries(self):
        # obstacles on both sides: several explicit delivery rounds run in a real game
        obstacles = [
            TaggedObstacle((3.5, 1.0), 0.5, owner=1),
            TaggedObstacle((6.0, -1.0), 0.5, owner=2),
            TaggedObstacle((7.5, 1.2), 0.5, owner=1),
            TaggedObstacle((4.5, -1.5), 0.5, owner=2),
        ]
        env = make_env(obstacles)
        params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
        out = run_game(env, Strategy("explicit", period=4), params, Limits(), seed=3)
        assert out.steps > 8  # several delivery rounds happened

    def test_speaker_strictness_blinds_current_speaker(self):
        # an obstacle only agent 1 can see, placed on agent 2's side: while
        # agent 2 speaks it must ignore what it inferred earlier
        env = make_env([TaggedObstacle((5.0, 0.0), 0.5, owner=1)])
        checked = 0
        for pose, ts in game_steps(env, Strategy("dynamic", period=8), self.params, self.limits, 0):
            if ts.role2 == "S" and ts.inferred2 is not None:
                # speaking agent 2's command reflects no obstacles at all
                _, q2 = endpoints(*pose, env.table_half_length)
                assert (ts.v2x, ts.v2y) == velocity(q2, env.goal, [], self.params)
                checked += 1
        assert checked > 0

    def test_listener_keeps_its_inference_when_a_new_one_is_none(self):
        # each agent sees one disc: a listener acts on its own obstacles plus
        # its latest inference, which a step inferring nothing leaves in
        # place, also on the first step back in the listener role
        env = make_env([TaggedObstacle((3.0, 0.8), 0.5, owner=1), TaggedObstacle((6.0, -0.8), 0.5, owner=2)])
        own = {agent: [(*o.center, o.radius) for o in env.obstacles if o.owner == agent] for agent in (1, 2)}
        kept = {1: 0, 2: 0}
        kept_after_switch = {1: 0, 2: 0}
        previous = {1: (None, None), 2: (None, None)}
        for pose, ts in game_steps(env, Strategy("dynamic", period=3), self.params, self.limits, 0):
            q = dict(zip((1, 2), endpoints(*pose, env.table_half_length)))
            for agent, role, inferred, command in (
                (1, ts.role1, ts.inferred1, (ts.v1x, ts.v1y)),
                (2, ts.role2, ts.inferred2, (ts.v2x, ts.v2y)),
            ):
                acted = own[agent] + ([inferred[:3]] if role == "L" and inferred is not None else [])
                assert command == velocity(q[agent], env.goal, acted, self.params)
                if role == "L" and inferred is not None and inferred is previous[agent][1]:
                    kept[agent] += 1
                    kept_after_switch[agent] += previous[agent][0] == "S"
            previous = {1: (ts.role1, ts.inferred1), 2: (ts.role2, ts.inferred2)}
        assert all(kept[agent] > kept_after_switch[agent] > 0 for agent in (1, 2))

    @pytest.mark.parametrize("period", [0, 3])
    def test_explicit_delivery_replaces_the_received_obstacle(self, period):
        # each agent sees two discs, so the closest one a sender reports
        # changes along the way: the receiver then acts on its own discs and
        # the latest delivery alone, never on an earlier one as well
        env = make_env([
            TaggedObstacle((3.0, 1.2), 0.5, owner=1),
            TaggedObstacle((3.5, -1.4), 0.5, owner=2),
            TaggedObstacle((6.5, 1.1), 0.5, owner=1),
            TaggedObstacle((7.0, -1.3), 0.5, owner=2),
        ])
        own = {agent: [(*o.center, o.radius) for o in env.obstacles if o.owner == agent] for agent in (1, 2)}
        received = {1: [], 2: []}
        delivered = {1: set(), 2: set()}
        for pose, ts in game_steps(env, Strategy("explicit", period=period), self.params, self.limits, 0):
            q = dict(zip((1, 2), endpoints(*pose, env.table_half_length)))
            if period == 0:
                senders = (1, 2)
            elif ts.step > 0 and ts.step % period == 0:
                senders = (1,) if (ts.step // period) % 2 == 1 else (2,)
            else:
                senders = ()
            for sender in senders:
                receiver = 3 - sender
                message = own[sender][closest_observed_index(own[sender], q[sender])]
                received[receiver] = [message]
                delivered[receiver].add(message)
            assert (ts.v1x, ts.v1y) == velocity(q[1], env.goal, own[1] + received[1], self.params)
            assert (ts.v2x, ts.v2y) == velocity(q[2], env.goal, own[2] + received[2], self.params)
        assert len(delivered[1]) == len(delivered[2]) == 2

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Limits(max_steps=0)
        # each length in the declared range: every table has a finite speed
        # cap, and one step of dt 1e308 once carried the table to 1.25e307
        for name in ("goal_eps", "dt", "v_max"):
            for value in (0.0, -1.0, math.inf, math.nan, 1e308, math.nextafter(MAX_LENGTH, math.inf)):
                with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be in (0, 1e+100], got {value}')}$"):
                    Limits(**{name: value})
        # 200 steps of dt 1e99 at v_max 0.25 reach 5e100
        with pytest.raises(ValueError, match=r"^the reach max_steps \* dt \* v_max must be at most 1e\+100$"):
            Limits(dt=1e99)
        assert Limits(max_steps=8, goal_eps=MAX_LENGTH, dt=MAX_LENGTH / 8, v_max=1.0).dt == MAX_LENGTH / 8
        with pytest.raises(TypeError):
            Limits(v_max=None)

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
            ("explicit", 0, 1.5),
            ("dynamic", 1, 1e308),
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
            "cv_above_one",
            "cv_overflowing_the_stddev",
        ],
    )
    def test_strategy_validation(self, name, period, noise_cv):
        with pytest.raises(ValueError):
            Strategy(name, period, noise_cv)


def played(outcome, motion_only=False):
    """A game's steps, failure kind and trajectory as text; repr round-trips
    every float and keeps -0.0 apart from 0.0, so equal text is equal bits.
    motion_only keeps each step's pose and commands and drops the roles and
    inferred obstacles."""
    steps = [ts[:8] if motion_only else ts for ts in outcome.trajectory]
    return repr((outcome.steps, outcome.failure_kind, steps))


class TestMechanismIdentities:
    """Exact identities of the role mechanism, game by game.

    The listener's inference is the only way roles change motion: with
    infer_obstacle knocked out, every roles game moves as speaker_speaker.
    A period no game reaches turns dynamic roles into speaker_listener and
    explicit messaging into speaker_speaker. Held on table1's field, limits
    and workspace, with and without channel noise."""

    seeds = range(20)

    @pytest.fixture(params=[KnownRadius(0.5), UnknownRadius(0.3, 0.5)], ids=["known", "unknown"])
    def geometry(self, request):
        return request.param

    @pytest.fixture(params=[2, 8], ids=["n2", "n8"])
    def n(self, request):
        return request.param

    @pytest.fixture(params=[0.0, 0.1], ids=["cv0", "cv0.1"])
    def cv(self, request):
        return request.param

    @pytest.fixture()
    def play(self, geometry, n, default_field, default_limits, default_workspace):
        def play(strategy, motion_only=False):
            return [
                played(run_game(generate_environment(seed, n, geometry, default_workspace), strategy,
                                default_field, default_limits, seed, record_trajectory=True), motion_only)
                for seed in self.seeds
            ]

        return play

    def test_roles_without_inference_move_as_speaker_speaker(self, monkeypatch, play, cv):
        blind = play(Strategy("speaker_speaker", 0, cv), motion_only=True)
        # with its inference the listener moves otherwise, so the identity is no accident
        assert play(Strategy("speaker_listener", 0, cv), motion_only=True) != blind
        monkeypatch.setattr(table_sim, "infer_obstacle", lambda *args, **kwargs: None)
        for strategy in (Strategy("dynamic", 1, cv), Strategy("dynamic", 16, cv), Strategy("speaker_listener", 0, cv)):
            assert play(strategy, motion_only=True) == blind, strategy

    def test_a_period_no_game_reaches(self, play, cv, default_limits):
        period = default_limits.max_steps
        assert play(Strategy("dynamic", period, cv)) == play(Strategy("speaker_listener", 0, cv))
        assert play(Strategy("explicit", period, cv)) == play(Strategy("speaker_speaker", 0, cv))


class TestEnvironmentGeneration:
    def test_empty(self):
        env = generate_environment(1, 0, KnownRadius(0.5), Workspace())
        assert env.obstacles == ()

    def test_owner_tags_alternate(self):
        env = generate_environment(2, 4, KnownRadius(0.5), Workspace())
        owners = [o.owner for o in env.obstacles]
        assert owners == [1, 2, 1, 2]

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

    @pytest.mark.parametrize(
        "r_min, r_max",
        [(0.0, 0.5), (-0.1, 0.5), (0.6, 0.5), (0.3, math.inf), (math.inf, math.inf),
         (0.3, math.nan), (math.nan, 0.5), (0.3, math.nextafter(MAX_LENGTH, math.inf))],
        ids=["zero_min", "negative_min", "min_above_max", "inf_max", "inf_both", "nan_max",
             "nan_min", "max_beyond_range"],
    )
    def test_unknown_radius_rejects_bad_bounds(self, r_min, r_max):
        # an infinite bound once reached generation and failed there as an
        # unplaceable obstacle
        with pytest.raises(ValueError, match="r_min <= r_max"):
            UnknownRadius(r_min, r_max)

    def test_obstacle_validation(self):
        # radius, then center, then owner, as environment files report them
        with pytest.raises(ValueError, match=r"^radius must be in \[0, 1e\+100\], got -1.0$"):
            TaggedObstacle((math.nan, 0.0), -1.0, 3)
        with pytest.raises(ValueError, match=r"^obstacle center coordinates must be at most 1e\+100 in magnitude, got \(nan, 0.0\)$"):
            TaggedObstacle((math.nan, 0.0), 1.0, 3)
        with pytest.raises(ValueError, match="owner must be 1 or 2, got 3"):
            TaggedObstacle((0.0, 0.0), 1.0, 3)

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


class TestDeclaredRange:
    """Every length the game reads lies within MAX_LENGTH, refused where it
    enters, so that no square the game forms overflows."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (KnownRadius, "radius must be in [0, 1e+100]"),
            (lambda x: UnknownRadius(0.5, x), "need 0 < r_min <= r_max <= 1e+100"),
            (lambda x: TaggedObstacle((0.0, 0.0), x, 1), "radius must be in [0, 1e+100]"),
            (lambda x: TaggedObstacle((x, 0.0), 1.0, 1), "obstacle center coordinates must be at most 1e+100"),
            (lambda x: TaggedObstacle((0.0, -x), 1.0, 2), "obstacle center coordinates must be at most 1e+100"),
            (lambda x: Environment((), (x, 0.0), (10.0, 0.0), KnownRadius(0.5)), "start, goal and table_half_length"),
            (lambda x: Environment((), (0.0, 0.0), (10.0, -x), KnownRadius(0.5)), "start, goal and table_half_length"),
            (lambda x: Environment((), (0.0, 0.0), (10.0, 0.0), KnownRadius(0.5), x), "start, goal and table_half_length"),
            (lambda x: Workspace(start=(0.0, x)), "start, goal and table_half_length"),
            (lambda x: Workspace(x_range=(-x, 8.0)), "x_range, y_range and clearance"),
            (lambda x: Workspace(y_range=(-2.5, x)), "x_range, y_range and clearance"),
            (lambda x: Workspace(clearance=x), "x_range, y_range and clearance"),
            (lambda x: FieldParams(rho0=x), "rho0 must be in (RHO_MIN, MAX_LENGTH]"),
            (lambda x: infer_obstacle((1.0, 0.0), (0.0, 0.0), (10.0, 0.0), FieldParams(), x), "radius must be in"),
        ],
        ids=["known_radius", "unknown_radius", "obstacle_radius", "center_x", "center_y", "start", "goal",
             "table_half_length", "workspace_start", "x_range", "y_range", "clearance", "rho0", "nominal_radius"],
    )
    def test_length_beyond_the_range_is_refused(self, make, message):
        make(MAX_LENGTH)
        for x in (math.nextafter(MAX_LENGTH, math.inf), 1e200):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                make(x)

    def test_command_beyond_the_range_is_refused(self):
        # finite, but above MAX_LENGTH: 2 w_v (w_att + 3 repulsive_magnitude(RHO_MIN))
        # is about 6e101 at w_v = 1e95
        message = "field weights allow a command above 1e+100 for an agent acting on 3 obstacles at cv 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_finite_commands(FieldParams(w_v=1e95), 3, 0.0)
        check_finite_commands(FieldParams(w_v=1e93), 3, 0.0)

    @pytest.mark.parametrize("cv", [0.0, 1.0])
    def test_every_length_at_the_bound_stays_finite(self, cv):
        # start and goal at the edges, the longest table, discs of the
        # largest radius at the corners, rho0, goal_eps and the reach at the
        # bound, and the largest weights the field bound accepts at this cv,
        # in every strategy: every pose, command and inference stays finite
        # over a whole game, and a disc holding the table and agent 1, its
        # center MAX_LENGTH / 2 from the table, is hit on the first step
        bound = MAX_LENGTH
        discs = [((bound, bound), 1), ((bound, -bound), 2), ((bound, 0.0), 1)]
        held = (-0.5 * bound, 0.5 * bound)
        # bench's k, the obstacle count plus one, with the held disc
        k = len(discs) + 2
        weights = FieldParams(rho0=bound)
        for name in ("w_att", "w_rep", "w_v"):
            weights = replace(weights, **{name: largest_accepted(lambda w: replace(weights, **{name: w}), k, cv)})
        limits = Limits(max_steps=8, goal_eps=bound, dt=1.0, v_max=bound / 8)
        inferred = 0
        for name, period in (("explicit", 0), ("explicit", 1), ("dynamic", 1), ("speaker_listener", 0),
                             ("speaker_speaker", 0)):
            strategy = Strategy(name, period, cv)
            for extra, outcome in (((), ("timeout", 8)), (((held, 1),), ("collision", 1))):
                obstacles = tuple(TaggedObstacle(c, bound, owner) for c, owner in (*discs, *extra))
                env = Environment(obstacles, (-bound, 0.0), (bound, 0.0), KnownRadius(bound), bound)
                out = run_game(env, strategy, weights, limits, 3, record_trajectory=True)
                assert (out.failure_kind, out.steps) == outcome, strategy
                for ts in out.trajectory:
                    values = list(ts[1:8])
                    for guess in (ts.inferred1, ts.inferred2):
                        if guess is not None:
                            values += guess[:3]
                            inferred += 1
                    assert all(map(math.isfinite, values)), (strategy, ts)
        assert inferred > 0

    @pytest.mark.parametrize("cv", [0.0, 1.0])
    def test_shortest_table_at_the_largest_reach_stays_finite(self, cv):
        # the shortest table, the largest reach and the largest weights the
        # range accepts, with a disc owned by each agent beside the start:
        # capped commands that differ turn the table at up to v_max /
        # table_half_length, about 1e199, and in every strategy each pose
        # and heading stays finite. At 1e-308 the heading became infinite
        # and the game died in math.cos
        bound = MAX_LENGTH
        discs = (TaggedObstacle((0.0, 2.0), 1.0, 1), TaggedObstacle((0.0, -3.0), 1.0, 2))
        weights = FieldParams(rho0=bound)
        for name in ("w_att", "w_rep", "w_v"):
            weights = replace(weights, **{name: largest_accepted(lambda w: replace(weights, **{name: w}), 3, cv)})
        limits = Limits(max_steps=8, goal_eps=1.0, dt=1.0, v_max=bound / 8)
        env = Environment(discs, (0.0, 0.0), (bound, 0.0), KnownRadius(1.0), 1 / bound)
        turned = 0.0
        for name, period in (("explicit", 0), ("explicit", 1), ("dynamic", 1), ("speaker_listener", 0),
                             ("speaker_speaker", 0)):
            out = run_game(env, Strategy(name, period, cv), weights, limits, 3, record_trajectory=True)
            for ts in out.trajectory:
                assert all(map(math.isfinite, (ts.cx, ts.cy, ts.heading))), (name, period, ts)
                turned = max(turned, abs(ts.heading))
        assert turned > 1e150


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

    @staticmethod
    def rendered(steps):
        """The CSV lines, each row rendered on its own: every float column
        as format(x, ".12g") and empty inferred-obstacle fields for None."""

        def fmt(x):
            return format(x, ".12g")

        lines = [TRAJECTORY_COLUMNS]
        for ts in steps:
            row = [str(ts.step), fmt(ts.cx), fmt(ts.cy), fmt(ts.heading), fmt(ts.v1x), fmt(ts.v1y),
                   fmt(ts.v2x), fmt(ts.v2y), ts.role1, ts.role2]
            for inf in (ts.inferred1, ts.inferred2):
                row += ["", "", ""] if inf is None else [fmt(inf.cx), fmt(inf.cy), fmt(inf.radius)]
            lines.append(",".join(row))
        return lines

    def test_matches_format_rendering(self):
        # over signed zeros, the extremes of the exponent range and a
        # saturated inferred obstacle
        saturated = InferredObstacle(-0.0, 1e15, 0.5, saturated=True)
        steps = [
            TrajectoryStep(0, 0.0, -0.0, 1e-300, -0.0, 1e15, 1 / 3, -2e-7, "S", "L", None, saturated),
            TrajectoryStep(1, -1e15, 2.5, -0.0, 1e-300, 0.0, -1e-300, 123456789.123456789, "L", "S",
                           InferredObstacle(5.000000000002, 0.299999999999, 1e-300), saturated),
        ]
        expected = self.rendered(steps)
        assert trajectory_csv_lines(steps) == expected
        assert expected[1] == "0,0,-0,1e-300,-0,1e+15,0.333333333333,-2e-07,S,L,,,,-0,1e+15,0.5"

    def test_each_row_renders_its_own_inference(self):
        # an inference persists across rows, and the renderer reuses its
        # fields while the object stays the same; an equal but distinct one
        # (0.0 == -0.0, rendered "0" and "-0"), a different one and None
        # must each show in their own row, in either agent's columns
        first = InferredObstacle(0.0, 1.5, 0.5)
        equal = InferredObstacle(-0.0, 1.5, 0.5)
        other = InferredObstacle(2.25, -1.0, 0.5, saturated=True)
        assert equal == first and equal is not first
        seq = [None, first, first, equal, equal, other, other, None, None, first]
        steps = [
            TrajectoryStep(k, 0.1 * k, 0.0, 1.0, 0.1, 0.2, 0.3, 0.4, "L", "S", inf, seq[-1 - k])
            for k, inf in enumerate(seq)
        ]
        lines = trajectory_csv_lines(steps)
        assert lines == self.rendered(steps)
        assert [line.split(",")[10] for line in lines[1:]] == ["", "0", "0", "-0", "-0", "2.25", "2.25", "", "", "0"]

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
        env = make_env([TaggedObstacle((5.0, 0.3), 0.5, owner=1)])
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        out = run_game(env, Strategy("speaker_listener"), self.params, limits, 0,
                       record_trajectory=True)
        rows = [line.split(",") for line in trajectory_csv_lines(out.trajectory)[1:]]
        assert len(rows) == out.steps
        assert all(row[10:13] == ["", "", ""] for row in rows)
        assert any(row[13:16] != ["", "", ""] for row in rows)

    def test_rows_and_inferences_keep_their_types(self):
        # run_game builds rows and inferences as plain tuples of their
        # classes: each must still carry its named fields
        env = make_env([TaggedObstacle((5.0, 0.3), 0.5, owner=1)])
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        out = run_game(env, Strategy("dynamic", period=2), self.params, limits, 0, record_trajectory=True)
        inferred = {id(inf): inf for ts in out.trajectory for inf in ts[10:] if inf is not None}
        assert len(inferred) > 10
        for ts in out.trajectory:
            assert type(ts) is TrajectoryStep and len(ts) == len(TrajectoryStep._fields)
            assert TrajectoryStep(**ts._asdict()) == ts
            assert (ts.step, ts.heading, ts.role2, ts.inferred2) == (ts[0], ts[3], ts[9], ts[11])
        for inf in inferred.values():
            assert type(inf) is InferredObstacle and len(inf) == 4
            assert InferredObstacle(inf.cx, inf.cy, inf.radius, inf.saturated) == inf
            assert (inf.radius, inf.saturated) == (0.5, False)

    def test_rerun_identical(self, config_dir):
        env = load_fig2_env(config_dir)
        limits = Limits(max_steps=200, goal_eps=0.5, dt=1.0, v_max=0.35)
        a = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, limits, 1,
                     record_trajectory=True)
        b = run_game(env, Strategy("dynamic", period=1, noise_cv=0.1), self.params, limits, 1,
                     record_trajectory=True)
        assert trajectory_csv_lines(a.trajectory) == trajectory_csv_lines(b.trajectory)

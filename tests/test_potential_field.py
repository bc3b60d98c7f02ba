import math
import random

import pytest

from rolecomms.potential_field import (
    ATTRACTOR_EPS,
    RHO_MIN,
    FieldParams,
    agent_velocity,
)


def velocity(q, goal, obstacles, params):
    """The law at q for (cx, cy, radius) obstacles, weights taken from params."""
    return agent_velocity(q[0], q[1], goal[0], goal[1], obstacles,
                          params.w_att, params.w_rep, params.w_v, params.rho0)


class TestAttractiveGrad:
    # no obstacles and w_v = 1: the velocity is minus the attractive gradient
    params = FieldParams(w_att=1.0, w_rep=1.0, w_v=1.0, rho0=1.0)

    def test_unit_displacement(self):
        v = velocity((1, 0), (0, 0), (), self.params)
        assert v == (-1.0, 0.0)

    def test_zero_at_attractor(self):
        v = velocity((0, 0), (0, 0), (), self.params)
        assert v == (0.0, 0.0)

    def test_scaled_direction(self):
        v = velocity((3, 4), (0, 0), (), FieldParams(w_att=2.0, w_v=1.0))
        assert v[0] == pytest.approx(-1.2)
        assert v[1] == pytest.approx(-1.6)

    def test_constant_magnitude(self):
        rng = random.Random(0)
        for _ in range(50):
            q = (rng.uniform(-10, 10), rng.uniform(-10, 10))
            if math.hypot(*q) < ATTRACTOR_EPS:
                continue
            v = velocity(q, (0, 0), (), FieldParams(w_att=1.7, w_v=1.0))
            assert math.hypot(*v) == pytest.approx(1.7)


class TestRepulsiveGrad:
    # the goal sits at the agent, so the attractive term is zero and, with
    # w_v = 1, the velocity is the repulsive term alone
    params = FieldParams(w_att=1.0, w_rep=1.0, w_v=1.0, rho0=2.0)

    def repulsion(self, q, obstacle):
        return velocity(q, q, (obstacle,), self.params)

    def test_zero_exactly_at_range(self):
        # boundary distance exactly rho0: (1/rho0 - 1/rho0) = 0
        assert self.repulsion((3.0, 0.0), (0.0, 0.0, 1.0)) == (0.0, 0.0)

    def test_zero_beyond_range(self):
        assert self.repulsion((5.0, 0.0), (0.0, 0.0, 1.0)) == (0.0, 0.0)

    def test_hand_worked_magnitude(self):
        # rho = 2 - 1 = 1: magnitude (1/1 - 1/2)(1/1) = 0.5 along +x
        g = self.repulsion((2.0, 0.0), (0.0, 0.0, 1.0))
        assert g[0] == pytest.approx(0.5)
        assert g[1] == 0.0

    def test_continuous_approach_to_range_boundary(self):
        prev = None
        for eps in (0.1, 0.01, 0.001, 0.0001):
            mag = math.hypot(*self.repulsion((3.0 - eps, 0.0), (0.0, 0.0, 1.0)))
            if prev is not None:
                assert mag < prev
            prev = mag
        assert prev < 1e-4

    def test_points_away_from_obstacle(self):
        rng = random.Random(1)
        obs = (1.0, -2.0, 0.5)
        for _ in range(50):
            q = (1.0 + rng.uniform(-2, 2), -2.0 + rng.uniform(-2, 2))
            g = self.repulsion(q, obs)
            if g == (0.0, 0.0):
                continue
            assert g[0] * (q[0] - obs[0]) + g[1] * (q[1] - obs[1]) > 0

    def test_floor_inside_disc(self):
        # deep inside the disc the magnitude is pinned at the floor value
        g = self.repulsion((0.5, 0.0), (0.0, 0.0, 1.0))
        expected = (1.0 / RHO_MIN - 0.5) * (1.0 / RHO_MIN)
        assert math.hypot(*g) == pytest.approx(expected)


class TestAgentVelocity:
    params = FieldParams(w_att=1.0, w_rep=1.0, w_v=0.5, rho0=1.0)

    def test_points_at_goal_without_obstacles(self):
        v = velocity((0, 0), (10, 0), (), self.params)
        assert v[0] == pytest.approx(0.5)
        assert v[1] == pytest.approx(0.0)

    def test_mirror_symmetric_obstacles_cancel_laterally(self):
        obstacles = ((5.0, 1.0, 0.5), (5.0, -1.0, 0.5))
        v = velocity((4.5, 0.0), (10, 0), obstacles, self.params)
        assert v[1] == pytest.approx(0.0, abs=1e-15)

    def test_componentwise_combination(self):
        # velocity = w_v * (repulsive term - attractive term): the goal alone,
        # plus the obstacle alone (goal at the agent), gives the whole law
        q = (2.0, 1.0)
        obs = (2.5, 0.5, 0.3)
        attraction = velocity(q, (10, 0), (), self.params)
        repulsion = velocity(q, q, (obs,), self.params)
        v = velocity(q, (10, 0), (obs,), self.params)
        assert v[0] == pytest.approx(attraction[0] + repulsion[0])
        assert v[1] == pytest.approx(attraction[1] + repulsion[1])

    def test_homogeneous_in_field_weights(self):
        q = (1.0, 0.5)
        obs = ((2.0, 0.2, 0.4),)
        base = velocity(q, (6, 0), obs, FieldParams(1.0, 1.0, 0.5, 1.0))
        scaled = velocity(q, (6, 0), obs, FieldParams(3.0, 3.0, 0.5, 1.0))
        assert scaled[0] == pytest.approx(3.0 * base[0])
        assert scaled[1] == pytest.approx(3.0 * base[1])


class TestFieldParams:
    def test_rejects_nonpositive(self):
        for bad in (
            dict(w_att=0.0),
            dict(w_rep=-1.0),
            dict(w_v=0.0),
            dict(rho0=-2.0),
        ):
            with pytest.raises(ValueError):
                FieldParams(**{**dict(w_att=1, w_rep=1, w_v=1, rho0=1), **bad})

    @pytest.mark.parametrize("rho0", [RHO_MIN, 0.5 * RHO_MIN, 5e-324])
    def test_rejects_rho0_at_or_below_the_distance_floor(self, rho0):
        # below the floor the law turns attractive, and the listener's
        # bracket (RHO_MIN, rho0] is empty
        with pytest.raises(ValueError, match=rf"^rho0 must be in \(RHO_MIN, MAX_LENGTH\] = \(0\.001, 1e\+100\], got {rho0}$"):
            FieldParams(rho0=rho0)

    def test_accepts_rho0_just_above_the_distance_floor(self):
        rho0 = math.nextafter(RHO_MIN, math.inf)
        assert FieldParams(rho0=rho0).rho0 == rho0

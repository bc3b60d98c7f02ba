"""Artificial potential-field planner: attractive/repulsive terms and velocity.

Conventions. attractive_grad returns the gradient of the conical goal
potential, a unit vector from the attractor toward the agent scaled by w_att;
the velocity law negates it, pulling the agent in. repulsive_grad returns a
vector from the obstacle toward the agent whose magnitude
w_rep (1/rho - 1/rho0) (1/rho) falls to exactly zero at the effective range
rho0; the velocity law adds it with a positive sign, pushing the agent out:

    v(q) = w_v * (sum_j repulsive_grad_j(q) - sum_k attractive_grad_k(q))

rho is the distance from the agent to the obstacle *boundary* (center
distance minus radius), floored at RHO_MIN; the attractive term vanishes
within ATTRACTOR_EPS of the attractor. An optional speed cap bounds the
returned velocity, but the game checks collision only at the end of each
step, so a step can still carry the table through an obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .numerics import Vec2

RHO_MIN = 1e-3
ATTRACTOR_EPS = 1e-6


@dataclass(frozen=True)
class FieldParams:
    w_att: float = 1.0
    w_rep: float = 1.0
    w_v: float = 1.0
    rho0: float = 1.0

    def __post_init__(self):
        for name in ("w_att", "w_rep", "w_v", "rho0"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class Obstacle:
    center: Vec2
    radius: float

    def __post_init__(self):
        if not (self.radius >= 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and >= 0, got {self.radius}")
        if not (math.isfinite(self.center[0]) and math.isfinite(self.center[1])):
            raise ValueError("obstacle center must be finite")


@dataclass(frozen=True)
class Attractor:
    location: Vec2

    def __post_init__(self):
        if not (math.isfinite(self.location[0]) and math.isfinite(self.location[1])):
            raise ValueError("attractor location must be finite")


def attractive_grad(q: Vec2, attractor: Attractor, w_att: float) -> Vec2:
    """Gradient of the conical attractor potential at q.

    Unit direction from the attractor to q, scaled by w_att; zero within
    ATTRACTOR_EPS of the attractor where the direction is undefined.
    """
    dx = q[0] - attractor.location[0]
    dy = q[1] - attractor.location[1]
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < ATTRACTOR_EPS:
        return Vec2(0.0, 0.0)
    scale = w_att / dist
    return Vec2(dx * scale, dy * scale)


def repulsive_magnitude(rho: float, params: FieldParams) -> float:
    """w_rep (1/rho - 1/rho0)(1/rho), the repulsive strength at boundary distance rho."""
    return params.w_rep * (1.0 / rho - 1.0 / params.rho0) * (1.0 / rho)


def repulsive_grad(q: Vec2, obs: Obstacle, params: FieldParams) -> Vec2:
    """Repulsive field term at q for one obstacle; exactly zero beyond rho0.

    Points from the obstacle toward q. rho is the distance to the obstacle
    boundary, floored at RHO_MIN so the magnitude stays finite inside the
    disc.
    """
    dx = q[0] - obs.center[0]
    dy = q[1] - obs.center[1]
    center_dist = math.sqrt(dx * dx + dy * dy)
    rho = center_dist - obs.radius
    if rho > params.rho0:
        return Vec2(0.0, 0.0)
    if rho < RHO_MIN:
        rho = RHO_MIN
    mag = repulsive_magnitude(rho, params)
    if center_dist < ATTRACTOR_EPS:
        # Agent at the exact obstacle center: push along +x deterministically.
        return Vec2(mag, 0.0)
    scale = mag / center_dist
    return Vec2(dx * scale, dy * scale)


def agent_velocity(
    q: Vec2,
    attractors: Sequence[Attractor],
    obstacles: Sequence[Obstacle],
    params: FieldParams,
    v_max: float | None = None,
) -> Vec2:
    """Commanded velocity at q: w_v times the combined field terms.

    Requires at least one attractor. When v_max is given, the result is
    rescaled so its norm never exceeds v_max.
    """
    if not attractors:
        raise ValueError("at least one attractor is required")
    vx = 0.0
    vy = 0.0
    for att in attractors:
        g = attractive_grad(q, att, params.w_att)
        vx -= g[0]
        vy -= g[1]
    for obs in obstacles:
        g = repulsive_grad(q, obs, params)
        vx += g[0]
        vy += g[1]
    vx *= params.w_v
    vy *= params.w_v
    if v_max is not None:
        speed = math.sqrt(vx * vx + vy * vy)
        if speed > v_max:
            scale = v_max / speed
            vx *= scale
            vy *= scale
    return Vec2(vx, vy)

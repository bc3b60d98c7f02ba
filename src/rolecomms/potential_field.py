"""Artificial potential-field planner: the one velocity law both agents use.

agent_velocity is the law. An agent at p heading for the goal g commands

    v(p) = w_v * (sum_j rep_j(p) - att(p))

att(p) is the gradient of the conical goal potential: the unit vector from
g toward p scaled by w_att, zero within ATTRACTOR_EPS of g. rep_j(p) points
from obstacle j's center toward p with magnitude repulsive_magnitude(rho) =
w_rep (1/rho - 1/rho0)(1/rho), which falls to exactly zero at the effective
range rho0; rho is the distance from p to the obstacle *boundary* (center
distance minus radius), floored at RHO_MIN. A listener inverts the same law
to place its partner's obstacle (table_sim.infer_obstacle).

The law's domain, where no square it forms overflows, is rho0 at most
MAX_LENGTH, coordinates and radii within about 10 MAX_LENGTH, and commands
within MAX_LENGTH; FieldParams, table_sim's Environment, Workspace and
Limits, and check_finite_commands keep the game in it.

The law has no speed cap: the game loop (table_sim.run_game) caps each
command it applies, and checks collision only at the end of each step, so a
step can still carry the table through an obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RHO_MIN = 1e-3
ATTRACTOR_EPS = 1e-6
# the declared range of every length the game reads; not a setting
MAX_LENGTH = 1e100


@dataclass(frozen=True)
class FieldParams:
    """The weights of the field law: attraction w_att, repulsion w_rep,
    command gain w_v and the repulsive range rho0."""

    w_att: float = 1.0
    w_rep: float = 1.0
    w_v: float = 0.1
    rho0: float = 1.0

    def __post_init__(self):
        for name in ("w_att", "w_rep", "w_v"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        # below the floor the law turns attractive and the listener's
        # bracket (RHO_MIN, rho0] is empty
        if not RHO_MIN < self.rho0 <= MAX_LENGTH:
            raise ValueError(f"rho0 must be in (RHO_MIN, MAX_LENGTH] = ({RHO_MIN}, {MAX_LENGTH}], got {self.rho0}")


def repulsive_magnitude(rho: float, params: FieldParams) -> float:
    """w_rep (1/rho - 1/rho0)(1/rho), the repulsive strength at boundary distance rho."""
    return params.w_rep * (1.0 / rho - 1.0 / params.rho0) * (1.0 / rho)


def agent_velocity(px, py, gx, gy, obstacles, w_att, w_rep, w_v, rho0):
    """Commanded velocity (vx, vy) of an agent at (px, py) with the goal at
    (gx, gy), over a sequence of (cx, cy, radius) obstacle triples.

    The weights come unpacked from FieldParams because the game loop calls
    this several times per step. An agent at an obstacle's exact center is
    pushed along +x.
    """
    dx = px - gx
    dy = py - gy
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < ATTRACTOR_EPS:
        vx = 0.0
        vy = 0.0
    else:
        scale = w_att / dist
        # 0.0 - 0.0 is 0.0, where -(0.0) would be -0.0
        vx = 0.0 - dx * scale
        vy = 0.0 - dy * scale
    inv_rho0 = 1.0 / rho0
    for ocx, ocy, orad in obstacles:
        dxo = px - ocx
        dyo = py - ocy
        center_dist = math.sqrt(dxo * dxo + dyo * dyo)
        rho = center_dist - orad
        if rho > rho0:
            continue
        if rho < RHO_MIN:
            rho = RHO_MIN
        inv = 1.0 / rho
        mag = w_rep * (inv - inv_rho0) * inv
        if center_dist < ATTRACTOR_EPS:
            vx += mag
        else:
            s = mag / center_dist
            vx += dxo * s
            vy += dyo * s
    return (vx * w_v, vy * w_v)

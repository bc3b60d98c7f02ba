"""Two-agent table-carrying game with implicit and explicit communication.

Two point agents rigidly hold the ends of a table and steer it to a goal
through obstacles, each seeing only its own half of the obstacle set. The
table translates with the mean of the agents' commanded velocities and
rotates with their differential component. Communication is either explicit
(periodic messages carrying the closest observed obstacle) or implicit via
speaker/listener roles, where the listener inverts the speaker's observed
velocity through the potential-field model to place a single inferred
obstacle. A coefficient-of-variation noise knob corrupts whatever crosses
the channel: message fields and observed actions alike.

Every game is a deterministic function of (environment, strategy, params,
limits, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import GenerationError
from .numerics import Rng, Vec2, derive_seed, gaussian
from .potential_field import (
    ATTRACTOR_EPS,
    RHO_MIN,
    Attractor,
    FieldParams,
    Obstacle,
    repulsive_magnitude,
)

_ENV_STREAM = 1
_GAME_STREAM = 2

DEFAULT_RESIDUAL_EPS = 1e-9
DEFAULT_INFER_TOL = 1e-10


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class KnownRadius:
    """All obstacles share one radius known to both agents."""

    r_fixed: float

    def __post_init__(self):
        # the radius rule of Obstacle
        Obstacle(Vec2(0.0, 0.0), self.r_fixed)

    @property
    def nominal_radius(self) -> float:
        return self.r_fixed


@dataclass(frozen=True)
class UnknownRadius:
    """Radii are sampled uniformly; agents only know the sampling range."""

    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0 < self.r_min <= self.r_max:
            raise ValueError(f"need 0 < r_min <= r_max, got [{self.r_min}, {self.r_max}]")

    @property
    def nominal_radius(self) -> float:
        return 0.5 * (self.r_min + self.r_max)


GeometryMode = KnownRadius | UnknownRadius

# the JSON "kind" of each geometry mode, and the names bench and cli accept
GEOMETRY_KINDS = {"known": KnownRadius, "unknown": UnknownRadius}


@dataclass(frozen=True)
class TaggedObstacle(Obstacle):
    owner: int

    def __post_init__(self):
        super().__post_init__()
        if self.owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {self.owner}")


@dataclass(frozen=True)
class Environment:
    obstacles: tuple[TaggedObstacle, ...]
    start: Vec2
    goal: Vec2
    geometry_mode: GeometryMode = field(metadata={"kinds": GEOMETRY_KINDS})
    table_half_length: float = 0.5

    def __post_init__(self):
        if not self.table_half_length > 0:
            raise ValueError("table_half_length must be > 0")
        if not all(math.isfinite(x) for x in (*self.start, *self.goal, self.table_half_length)):
            raise ValueError("start, goal and table_half_length must be finite")

    def owned_by(self, agent: int) -> tuple[TaggedObstacle, ...]:
        return tuple(o for o in self.obstacles if o.owner == agent)


class InferredObstacle(NamedTuple):
    """Obstacle reconstructed from a partner's action; saturated marks a
    residual stronger than the field can produce above the distance floor.

    A tuple, cheap to build once per listener step; infer_obstacle applies
    Obstacle's checks to each one it builds."""

    cx: float
    cy: float
    radius: float
    saturated: bool = False

    @property
    def center(self) -> Vec2:
        return Vec2(self.cx, self.cy)


STRATEGY_NAMES = ("explicit", "dynamic", "speaker_listener", "speaker_speaker")


@dataclass(frozen=True)
class Strategy:
    """How the agents communicate, and the noise cv of the channel.

    explicit: messages about the closest observed obstacle. period >= 1: one
    message goes out after each full period elapses (steps period, 2*period,
    ...), with the sender alternating between the agents, mirroring how roles
    alternate with the same period. period 0 is realtime: both agents send
    every step from the first step on.
    dynamic: speaker and listener roles alternate every `period` steps, agent
    1 speaking first.
    speaker_listener: agent 1 speaks and agent 2 listens for the whole game.
    speaker_speaker: both agents speak for the whole game.
    The two static strategies take period 0.
    """

    name: str
    period: int = 0
    noise_cv: float = 0.0

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy, expected one of {', '.join(STRATEGY_NAMES)}")
        if self.name == "explicit" and self.period < 0:
            raise ValueError("period must be >= 0")
        if self.name == "dynamic" and self.period < 1:
            raise ValueError("period must be >= 1")
        if self.name in ("speaker_listener", "speaker_speaker") and self.period != 0:
            raise ValueError("static strategies take period 0")
        if not (self.noise_cv >= 0 and math.isfinite(self.noise_cv)):
            raise ValueError(f"noise_cv must be finite and >= 0, got {self.noise_cv}")


@dataclass(frozen=True)
class Limits:
    max_steps: int = 200
    goal_eps: float = 0.5
    dt: float = 1.0
    v_max: float | None = 0.25

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not self.goal_eps > 0:
            raise ValueError("goal_eps must be > 0")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.v_max is not None and not self.v_max > 0:
            raise ValueError("v_max must be > 0 when set")


@dataclass(frozen=True)
class TableState:
    center: Vec2
    heading: float
    half_length: float

    @property
    def q1(self) -> Vec2:
        return Vec2(
            self.center[0] + self.half_length * math.cos(self.heading),
            self.center[1] + self.half_length * math.sin(self.heading),
        )

    @property
    def q2(self) -> Vec2:
        return Vec2(
            self.center[0] - self.half_length * math.cos(self.heading),
            self.center[1] - self.half_length * math.sin(self.heading),
        )


class TrajectoryStep(NamedTuple):
    """One game step as a flat row in CSV column order: the table pose after
    the step, both commanded (unclamped) velocities, the roles ("S" or "L")
    and each agent's current inferred obstacle, None before its first."""

    step: int
    cx: float
    cy: float
    heading: float
    v1x: float
    v1y: float
    v2x: float
    v2y: float
    role1: str
    role2: str
    inferred1: InferredObstacle | None
    inferred2: InferredObstacle | None


@dataclass(frozen=True)
class SimOutcome:
    steps: int
    failure_kind: str  # "collision" | "timeout" | "none"
    trajectory: tuple[TrajectoryStep, ...] | None = None

    def __post_init__(self):
        if self.failure_kind not in ("collision", "timeout", "none"):
            raise ValueError(f"unknown failure kind {self.failure_kind!r}")

    @property
    def success(self) -> bool:
        return self.failure_kind == "none"


@dataclass(frozen=True)
class Workspace:
    """Environment-generation geometry: obstacle corridor and clearances."""

    start: Vec2 = Vec2(0.0, 0.0)
    goal: Vec2 = Vec2(10.0, 0.0)
    x_range: tuple[float, float] = (2.0, 8.0)
    y_range: tuple[float, float] = (-2.5, 2.5)
    clearance: float = 1.2
    table_half_length: float = 0.5
    retry_cap: int = 200

    def __post_init__(self):
        if self.retry_cap < 1:
            raise ValueError("retry_cap must be >= 1")
        # the environment's own rules, checked before any environment is generated
        Environment((), self.start, self.goal, KnownRadius(0.0), self.table_half_length)


# ---------------------------------------------------------------------------
# dynamics


def table_step(state: TableState, v1: Vec2, v2: Vec2, dt: float) -> TableState:
    """Advance the rigid table one step under the agents' velocities.

    The center translates with the mean velocity; the heading rate is the
    cross product of the unit table axis with agent 1's relative velocity,
    divided by the half length (the same value results from agent 2's arm by
    antisymmetry). Endpoints are re-derived from center and heading, so
    rigidity is exact.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    vcx = 0.5 * (v1[0] + v2[0])
    vcy = 0.5 * (v1[1] + v2[1])
    ux = math.cos(state.heading)
    uy = math.sin(state.heading)
    relx = v1[0] - vcx
    rely = v1[1] - vcy
    omega = (ux * rely - uy * relx) / state.half_length
    return TableState(
        center=Vec2(state.center[0] + dt * vcx, state.center[1] + dt * vcy),
        heading=state.heading + dt * omega,
        half_length=state.half_length,
    )


def segment_point_distance(a: Vec2, b: Vec2, p: Vec2) -> float:
    """Distance from point p to the closed segment ab."""
    abx = b[0] - a[0]
    aby = b[1] - a[1]
    apx = p[0] - a[0]
    apy = p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.sqrt(apx * apx + apy * apy)
    t = (apx * abx + apy * aby) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    dx = apx - t * abx
    dy = apy - t * aby
    return math.sqrt(dx * dx + dy * dy)


def table_collides(state: TableState, obstacles: Sequence[Obstacle]) -> bool:
    """True when any obstacle disc intersects the table segment."""
    q1 = state.q1
    q2 = state.q2
    for obs in obstacles:
        if segment_point_distance(q1, q2, obs.center) < obs.radius:
            return True
    return False


# ---------------------------------------------------------------------------
# communication primitives


def closest_observed_index(observed: Sequence[Obstacle], own_pos: Vec2) -> int | None:
    """Index of the observed obstacle nearest to own_pos; ties take the
    lowest index. None when nothing is observed."""
    best = None
    best_d = math.inf
    for i, obs in enumerate(observed):
        dx = obs.center[0] - own_pos[0]
        dy = obs.center[1] - own_pos[1]
        d = dx * dx + dy * dy
        if d < best_d:
            best_d = d
            best = i
    return best


def corrupt(values: Sequence[float], cv: float, rng: Rng) -> tuple[float, ...]:
    """Add zero-mean Gaussian noise with stddev cv*|x| to each component.

    cv = 0 returns the input unchanged and consumes no draws, so noise-free
    runs stay stream-aligned regardless of how often they would have called
    the channel."""
    if cv < 0:
        raise ValueError("cv must be >= 0")
    if cv == 0.0:
        return tuple(values)
    return tuple(x + gaussian(rng, 0.0, cv * abs(x)) for x in values)


def infer_obstacle(
    observed_partner_velocity: Sequence[float],
    partner_pos: Sequence[float],
    attractors: Sequence[Attractor],
    params: FieldParams,
    nominal_radius: float,
    tol: float = DEFAULT_INFER_TOL,
    residual_eps: float = DEFAULT_RESIDUAL_EPS,
) -> InferredObstacle | None:
    """Invert a speaker's velocity into a single obstacle explaining it.

    The residual is the repulsive field term implied by the observed
    velocity once the shared attractors are accounted for:

        residual = v / w_v + sum_k attractive_grad(partner_pos, k)

    A residual below residual_eps means the motion is explained by the
    attractors alone and nothing is inferred. Otherwise the repulsive
    magnitude curve is inverted for the boundary distance rho by bisection
    on (RHO_MIN, rho0], and the obstacle center is placed at

        partner_pos - (rho + nominal_radius) * residual / |residual|

    A residual at or above the field value at RHO_MIN saturates: the
    obstacle is placed at the floor distance and flagged, not rejected.
    """
    # the radius rule of Obstacle, checked whatever the data
    if not (nominal_radius >= 0 and math.isfinite(nominal_radius)):
        raise ValueError(f"radius must be finite and >= 0, got {nominal_radius}")
    px, py = partner_pos
    rx = observed_partner_velocity[0] / params.w_v
    ry = observed_partner_velocity[1] / params.w_v
    for att in attractors:
        # attractive_grad, inlined: its zero vector near the goal still adds 0.0
        dx = px - att.location[0]
        dy = py - att.location[1]
        dist = math.sqrt(dx * dx + dy * dy)
        if dist < ATTRACTOR_EPS:
            rx += 0.0
            ry += 0.0
        else:
            scale = params.w_att / dist
            rx += dx * scale
            ry += dy * scale
    mag = math.sqrt(rx * rx + ry * ry)
    if mag < residual_eps:
        return None
    saturated = mag >= repulsive_magnitude(RHO_MIN, params)
    rho = RHO_MIN if saturated else _invert_repulsive_magnitude(mag, params, tol)
    offset = (rho + nominal_radius) / mag
    cx = px - rx * offset
    cy = py - ry * offset
    # the center check of Obstacle
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError("obstacle center must be finite")
    return InferredObstacle(cx, cy, nominal_radius, saturated)


def _invert_repulsive_magnitude(mag: float, params: FieldParams, tol: float) -> float:
    """Bisection for the boundary distance rho with field strength mag.

    The curve is strictly decreasing on (0, rho0], so the bracket
    [RHO_MIN, rho0] always contains exactly one root for
    0 < mag < curve(RHO_MIN). The loop halves the bracket exactly like
    numerics.bisect on the function repulsive_magnitude(rho) - mag, inlined
    because this runs once per listener step. For finite doubles f - mag is
    zero or positive exactly when f equals or exceeds mag, so the loop
    compares f with mag directly.
    """
    w_rep = params.w_rep
    inv_rho0 = 1.0 / params.rho0
    lo = RHO_MIN
    hi = params.rho0
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        inv = 1.0 / mid
        f = w_rep * (inv - inv_rho0) * inv
        if f == mag:
            return mid
        if f > mag:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# game loop


def initial_table_state(env: Environment) -> TableState:
    """Table starts at `start`, held perpendicular to the start-goal line."""
    heading = math.atan2(env.goal[1] - env.start[1], env.goal[0] - env.start[0]) + 0.5 * math.pi
    return TableState(center=env.start, heading=heading, half_length=env.table_half_length)


def run_game(
    env: Environment,
    strategy: Strategy,
    params: FieldParams,
    limits: Limits,
    seed: int,
    record_trajectory: bool = False,
) -> SimOutcome:
    """Play one table-carrying game and report the outcome.

    Per step: communication happens according to the strategy (explicit
    delivery, or the listener inverting the speaker's corrupted velocity),
    both agents command potential-field velocities from their own beliefs,
    and the table advances with speed-capped inputs. The game ends in
    success when the table center reaches the goal, in collision when any
    obstacle disc touches the table segment, or in timeout at max_steps.

    Speakers act strictly on observed + received obstacles; an agent's
    inferred obstacle only steers it while it is the listener, and persists
    across role switches until a new inference replaces it. Observed partner
    actions are the unclamped commands, so inference inverts the exact field.

    With record_trajectory, the outcome carries one flat TrajectoryStep row
    per step played: the table pose after the step, both commanded
    velocities, the roles and each agent's current inferred obstacle.
    """
    rng = Rng(derive_seed(seed, _GAME_STREAM))
    attractors = (Attractor(env.goal),)
    nominal_r = env.geometry_mode.nominal_radius
    cv = strategy.noise_cv
    gx, gy = env.goal
    trajectory: list[TrajectoryStep] | None = [] if record_trajectory else None

    # The loop holds the table pose and each agent's state in locals (floats,
    # and (cx, cy, radius) tuples for obstacles). It reproduces exactly the
    # arithmetic of agent_velocity (in _field_velocity) with its speed cap,
    # table_step, TableState.q1/q2 and table_collides.
    cx_, cy_ = env.start
    heading = initial_table_state(env).heading
    half_len = env.table_half_length
    w_att, w_rep, w_v, rho0 = params.w_att, params.w_rep, params.w_v, params.rho0
    dt = limits.dt
    # an absent cap is an infinite one: no speed exceeds it
    v_cap = math.inf if limits.v_max is None else limits.v_max
    goal_eps = limits.goal_eps
    env_obs = tuple((o.center[0], o.center[1], o.radius) for o in env.obstacles)
    observed1 = env.owned_by(1)
    observed2 = env.owned_by(2)
    own1 = tuple((o.center[0], o.center[1], o.radius) for o in observed1)
    own2 = tuple((o.center[0], o.center[1], o.radius) for o in observed2)
    # motion: own obstacles plus at most one received one. Each explicit
    # delivery replaces the previous received obstacle, so an agent acts on
    # one partner estimate, as a listener keeps exactly one inferred obstacle.
    motion1, motion2 = own1, own2
    inf1 = inf2 = None

    explicit = strategy.name == "explicit"
    dynamic = strategy.name == "dynamic"
    period = strategy.period
    # None: both agents speak (explicit, speaker_speaker)
    speaker = 1 if strategy.name == "speaker_listener" else None

    # the agents' positions: the table's endpoints q1 and q2
    cos_h = math.cos(heading)
    sin_h = math.sin(heading)
    p1x = cx_ + half_len * cos_h
    p1y = cy_ + half_len * sin_h
    p2x = cx_ - half_len * cos_h
    p2y = cy_ - half_len * sin_h

    outcome_kind = "timeout"
    for step in range(limits.max_steps):
        if explicit:
            if period == 0:
                senders = (1, 2)
            elif step > 0 and step % period == 0:
                senders = (1,) if (step // period) % 2 == 1 else (2,)
            else:
                senders = ()
            for sender in senders:
                observed, sender_pos = (observed1, (p1x, p1y)) if sender == 1 else (observed2, (p2x, p2y))
                idx = closest_observed_index(observed, sender_pos)
                if idx is None:
                    continue
                o = observed[idx]
                mcx, mcy, mr = corrupt((o.center[0], o.center[1], o.radius), cv, rng)
                received = ((mcx, mcy, max(mr, 0.0)),)
                if sender == 1:
                    motion2 = own2 + received
                else:
                    motion1 = own1 + received
        elif dynamic:
            speaker = 1 + (step // period) % 2

        if speaker is None:
            roles = ("S", "S")
            v1 = _field_velocity(p1x, p1y, gx, gy, motion1, w_att, w_rep, w_v, rho0)
            v2 = _field_velocity(p2x, p2y, gx, gy, motion2, w_att, w_rep, w_v, rho0)
        elif speaker == 1:
            v1 = _field_velocity(p1x, p1y, gx, gy, motion1, w_att, w_rep, w_v, rho0)
            new = infer_obstacle(corrupt(v1, cv, rng), (p1x, p1y), attractors, params, nominal_r)
            if new is not None:
                inf2 = new
            obs = motion2 if inf2 is None else motion2 + (inf2[:3],)
            v2 = _field_velocity(p2x, p2y, gx, gy, obs, w_att, w_rep, w_v, rho0)
            roles = ("S", "L")
        else:
            v2 = _field_velocity(p2x, p2y, gx, gy, motion2, w_att, w_rep, w_v, rho0)
            new = infer_obstacle(corrupt(v2, cv, rng), (p2x, p2y), attractors, params, nominal_r)
            if new is not None:
                inf1 = new
            obs = motion1 if inf1 is None else motion1 + (inf1[:3],)
            v1 = _field_velocity(p1x, p1y, gx, gy, obs, w_att, w_rep, w_v, rho0)
            roles = ("L", "S")

        # dynamics: table_step with agent_velocity's speed cap on each command
        c1x, c1y = v1
        c2x, c2y = v2
        speed = math.sqrt(c1x * c1x + c1y * c1y)
        if speed > v_cap:
            scale = v_cap / speed
            c1x *= scale
            c1y *= scale
        speed = math.sqrt(c2x * c2x + c2y * c2y)
        if speed > v_cap:
            scale = v_cap / speed
            c2x *= scale
            c2y *= scale
        vcx = 0.5 * (c1x + c2x)
        vcy = 0.5 * (c1y + c2y)
        omega = (cos_h * (c1y - vcy) - sin_h * (c1x - vcx)) / half_len
        cx_ += dt * vcx
        cy_ += dt * vcy
        heading += dt * omega

        if trajectory is not None:
            trajectory.append(TrajectoryStep(step, cx_, cy_, heading, *v1, *v2, *roles, inf1, inf2))

        # the new pose's endpoints: the segment tested here, next step's positions
        cos_h = math.cos(heading)
        sin_h = math.sin(heading)
        p1x = cx_ + half_len * cos_h
        p1y = cy_ + half_len * sin_h
        p2x = cx_ - half_len * cos_h
        p2y = cy_ - half_len * sin_h
        # collision: any obstacle disc against the table segment
        abx = p2x - p1x
        aby = p2y - p1y
        denom = abx * abx + aby * aby
        for ocx, ocy, orad in env_obs:
            apx = ocx - p1x
            apy = ocy - p1y
            t = (apx * abx + apy * aby) / denom
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            ddx = apx - t * abx
            ddy = apy - t * aby
            if math.sqrt(ddx * ddx + ddy * ddy) < orad:
                outcome_kind = "collision"
                break
        if outcome_kind == "collision":
            break
        dxg = cx_ - gx
        dyg = cy_ - gy
        if math.sqrt(dxg * dxg + dyg * dyg) <= goal_eps:
            outcome_kind = "none"
            break

    return SimOutcome(
        steps=step + 1,
        failure_kind=outcome_kind,
        trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def _field_velocity(px, py, gx, gy, obstacles, w_att, w_rep, w_v, rho0):
    """Inline single-attractor agent_velocity over (cx, cy, radius) tuples.

    Must stay arithmetic-identical to agent_velocity with one attractor; a
    parity test enforces it.
    """
    dx = px - gx
    dy = py - gy
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < ATTRACTOR_EPS:
        vx = 0.0
        vy = 0.0
    else:
        scale = w_att / dist
        # as agent_velocity: 0.0 - 0.0 is 0.0, where -(0.0) is -0.0
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


# ---------------------------------------------------------------------------
# environment generation


def generate_environment(
    seed: int,
    n: int,
    geometry_mode: GeometryMode,
    workspace: Workspace = Workspace(),
) -> Environment:
    """Sample n obstacles uniformly in the corridor between start and goal.

    Centers are rejection-sampled to keep every obstacle disc at least
    `clearance` away from both the start and goal points; radii are fixed or
    uniform depending on the geometry mode, drawn before placement so the
    stream position does not depend on the number of rejections. Owner tags
    alternate, splitting the set as evenly as possible. Exhausting the retry
    budget raises GenerationError.
    """
    if n < 0:
        raise ValueError("obstacle count must be >= 0")
    rng = Rng(derive_seed(seed, _ENV_STREAM))
    x_lo, x_hi = workspace.x_range
    y_lo, y_hi = workspace.y_range
    obstacles = []
    for i in range(n):
        if isinstance(geometry_mode, KnownRadius):
            radius = geometry_mode.r_fixed
        else:
            radius = geometry_mode.r_min + (geometry_mode.r_max - geometry_mode.r_min) * rng.uniform()
        placed = False
        for _ in range(workspace.retry_cap):
            x = x_lo + (x_hi - x_lo) * rng.uniform()
            y = y_lo + (y_hi - y_lo) * rng.uniform()
            required = workspace.clearance + radius
            ds = math.dist((x, y), workspace.start)
            dg = math.dist((x, y), workspace.goal)
            if ds >= required and dg >= required:
                obstacles.append(
                    TaggedObstacle(center=Vec2(x, y), radius=radius, owner=1 + i % 2)
                )
                placed = True
                break
        if not placed:
            raise GenerationError(
                f"could not place obstacle {i} within {workspace.retry_cap} retries (seed {seed})"
            )
    return Environment(
        obstacles=tuple(obstacles),
        start=workspace.start,
        goal=workspace.goal,
        geometry_mode=geometry_mode,
        table_half_length=workspace.table_half_length,
    )


# ---------------------------------------------------------------------------
# trajectory CSV

TRAJECTORY_COLUMNS = (
    "step,cx,cy,theta,v1x,v1y,v2x,v2y,role1,role2,"
    "inf1x,inf1y,inf1r,inf2x,inf2y,inf2r"
)


_ROW = "%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s,%s,%s,%s"
_INFERRED = "%.12g,%.12g,%.12g"


def trajectory_csv_lines(trajectory: Sequence[TrajectoryStep]) -> list[str]:
    """Render a recorded trajectory as CSV lines (header included).

    Floats render as format(x, ".12g"), which "%.12g" matches. Velocities
    are the commanded (unclamped) actions. Inferred-obstacle fields are
    empty while an agent has no inference.
    """
    lines = [TRAJECTORY_COLUMNS]
    for ts in trajectory:
        inf1 = ",," if ts.inferred1 is None else _INFERRED % ts.inferred1[:3]
        inf2 = ",," if ts.inferred2 is None else _INFERRED % ts.inferred2[:3]
        lines.append(_ROW % (*ts[:10], inf1, inf2))
    return lines


def write_trajectory_csv(trajectory: Sequence[TrajectoryStep], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(trajectory_csv_lines(trajectory)))
        fh.write("\n")

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
from .numerics import Rng, derive_seed, gaussian
from .potential_field import (
    ATTRACTOR_EPS,
    MAX_LENGTH,
    RHO_MIN,
    FieldParams,
    repulsive_magnitude,
)

# run_game calls the field law through this module attribute, so a tracer can wrap it
from .potential_field import agent_velocity as _field_velocity

_ENV_STREAM = 1
_GAME_STREAM = 2

RESIDUAL_EPS = 1e-9
# per unit w_att, the most residual rounding leaves (infer_obstacle)
_RESIDUAL_ROUNDING = 2.0**-49
DEFAULT_INFER_TOL = 1e-10
_STEER_WINDOW = 1e-12
# run_game's collision reject distance floor: its square, 2**-1000, is normal
_REJECT_FLOOR = 2.0**-500


# ---------------------------------------------------------------------------
# domain types


def _check_radius(radius: float) -> None:
    """The radius rule of every obstacle, given or inferred, and of KnownRadius."""
    if not 0 <= radius <= MAX_LENGTH:
        raise ValueError(f"radius must be in [0, {MAX_LENGTH}], got {radius}")


@dataclass(frozen=True)
class KnownRadius:
    """All obstacles share one radius known to both agents."""

    r_fixed: float

    def __post_init__(self):
        _check_radius(self.r_fixed)

    @property
    def nominal_radius(self) -> float:
        return self.r_fixed


@dataclass(frozen=True)
class UnknownRadius:
    """Radii are sampled uniformly; agents only know the sampling range."""

    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0 < self.r_min <= self.r_max <= MAX_LENGTH:
            raise ValueError(f"need 0 < r_min <= r_max <= {MAX_LENGTH}, got [{self.r_min}, {self.r_max}]")

    @property
    def nominal_radius(self) -> float:
        return 0.5 * (self.r_min + self.r_max)


GeometryMode = KnownRadius | UnknownRadius

# the JSON "kind" of each geometry mode, and the names bench and cli accept
GEOMETRY_KINDS = {"known": KnownRadius, "unknown": UnknownRadius}


@dataclass(frozen=True)
class TaggedObstacle:
    """An obstacle disc and the agent (1 or 2) that observes it."""

    center: tuple[float, float]
    radius: float
    owner: int

    def __post_init__(self):
        _check_radius(self.radius)
        if not (abs(self.center[0]) <= MAX_LENGTH and abs(self.center[1]) <= MAX_LENGTH):
            raise ValueError(f"obstacle center coordinates must be at most {MAX_LENGTH} in magnitude, got {self.center}")
        if self.owner not in (1, 2):
            raise ValueError(f"owner must be 1 or 2, got {self.owner}")


@dataclass(frozen=True)
class Environment:
    """One game's world: the tagged obstacles, the table's start and goal,
    the geometry mode the obstacles were drawn under, and the table's half
    length."""

    obstacles: tuple[TaggedObstacle, ...]
    start: tuple[float, float]
    goal: tuple[float, float]
    geometry_mode: GeometryMode = field(metadata={"kinds": GEOMETRY_KINDS})
    table_half_length: float = 0.5

    def __post_init__(self):
        # the table turns at most v_max / table_half_length, so over a game its
        # heading moves at most the reach over the half length: bounded below
        # as well as above, that stays within MAX_LENGTH squared, finite
        if not 1 / MAX_LENGTH <= self.table_half_length:
            raise ValueError(f"table_half_length must be at least {1 / MAX_LENGTH}, got {self.table_half_length}")
        if not all(abs(x) <= MAX_LENGTH for x in (*self.start, *self.goal, self.table_half_length)):
            raise ValueError(f"start, goal and table_half_length must be at most {MAX_LENGTH} in magnitude")
        # the listener infers with the mode's nominal radius, so every radius
        # must be one the mode allows
        mode = self.geometry_mode
        lo, hi = (mode.r_fixed,) * 2 if isinstance(mode, KnownRadius) else (mode.r_min, mode.r_max)
        for o in self.obstacles:
            if not lo <= o.radius <= hi:
                raise ValueError(f"obstacle radius {o.radius} lies outside the geometry mode's range [{lo}, {hi}]")


class InferredObstacle(NamedTuple):
    """Obstacle reconstructed from a partner's action; saturated marks a
    residual stronger than the field can produce above the distance floor.

    A tuple, built as _make builds it, with tuple.__new__, once per listener
    step; infer_obstacle applies TaggedObstacle's radius check, and requires
    a finite center, which may lie beyond MAX_LENGTH."""

    cx: float
    cy: float
    radius: float
    saturated: bool = False


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
        # within [0, 1] the channel's stddev cv*|x| is finite for every finite x
        if not 0.0 <= self.noise_cv <= 1.0:
            raise ValueError(f"noise_cv must be in [0, 1], got {self.noise_cv}")


# declared upper bounds on the work one game asks for, far above the
# committed configs (200 steps, 200 retries): a larger value is refused
# before any game instead of running for ever
MAX_STEPS = 100_000
MAX_RETRY_CAP = 10_000


@dataclass(frozen=True)
class Limits:
    """The game's clock and stopping rules: the step budget, the goal
    radius, the step length dt and the speed cap v_max."""

    max_steps: int = 200
    goal_eps: float = 0.5
    dt: float = 1.0
    v_max: float = 0.25

    def __post_init__(self):
        if not 1 <= self.max_steps <= MAX_STEPS:
            raise ValueError(f"max_steps must be in [1, {MAX_STEPS}]")
        for name in ("goal_eps", "dt", "v_max"):
            if not 0 < getattr(self, name) <= MAX_LENGTH:
                raise ValueError(f"{name} must be in (0, {MAX_LENGTH}], got {getattr(self, name)}")
        if not self.max_steps * self.dt * self.v_max <= MAX_LENGTH:
            raise ValueError(f"the reach max_steps * dt * v_max must be at most {MAX_LENGTH}")


class TrajectoryStep(NamedTuple):
    """One game step as a flat row in CSV column order: the table pose after
    the step, both commanded (unclamped) velocities, the roles ("S" or "L")
    and each agent's current inferred obstacle, None before its first.
    run_game builds each row as _make does, with tuple.__new__."""

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


class SimOutcome(NamedTuple):
    steps: int
    failure_kind: str  # "collision" | "timeout" | "none"
    trajectory: tuple[TrajectoryStep, ...] | None = None

    @property
    def success(self) -> bool:
        return self.failure_kind == "none"


@dataclass(frozen=True)
class Workspace:
    """Environment-generation geometry: obstacle corridor and clearances."""

    start: tuple[float, float] = (0.0, 0.0)
    goal: tuple[float, float] = (10.0, 0.0)
    x_range: tuple[float, float] = (2.0, 8.0)
    y_range: tuple[float, float] = (-2.5, 2.5)
    clearance: float = 1.2
    table_half_length: float = 0.5
    retry_cap: int = 200

    def __post_init__(self):
        if not 1 <= self.retry_cap <= MAX_RETRY_CAP:
            raise ValueError(f"retry_cap must be in [1, {MAX_RETRY_CAP}]")
        if not all(abs(x) <= MAX_LENGTH for x in (*self.x_range, *self.y_range, self.clearance)):
            raise ValueError(f"x_range, y_range and clearance must be at most {MAX_LENGTH} in magnitude")
        # the environment's own rules, checked before any environment is generated
        Environment((), self.start, self.goal, KnownRadius(0.0), self.table_half_length)


# ---------------------------------------------------------------------------
# communication primitives


def closest_observed_index(observed: Sequence[tuple[float, float, float]], own_pos: Sequence[float]) -> int | None:
    """Index of the observed (cx, cy, radius) obstacle nearest to own_pos;
    ties take the lowest index. None when nothing is observed."""
    best = None
    best_d = math.inf
    for i, obs in enumerate(observed):
        dx = obs[0] - own_pos[0]
        dy = obs[1] - own_pos[1]
        d = dx * dx + dy * dy
        if d < best_d:
            best_d = d
            best = i
    return best


def corrupt(values: Sequence[float], cv: float, rng: Rng) -> tuple[float, ...]:
    """Add zero-mean Gaussian noise with stddev cv*|x| to each value of a
    velocity (vx, vy) or a message (cx, cy, r), left to right. cv = 0 returns
    the input unchanged and consumes no draws, so noise-free runs stay
    stream-aligned however often they would have called the channel. Any
    other length, or a cv outside [0, 1], raises ValueError: within it the
    stddev cv*|x| is finite for every finite x."""
    if not 0.0 <= cv <= 1.0:
        raise ValueError(f"cv must be in [0, 1], got {cv}")
    if cv == 0.0 and 2 <= len(values) <= 3:
        return tuple(values)
    if len(values) == 2:
        vx, vy = values
        return (vx + gaussian(rng, cv * abs(vx)), vy + gaussian(rng, cv * abs(vy)))
    cx, cy, r = values  # any length but 2 and 3 fails to unpack
    return (
        cx + gaussian(rng, cv * abs(cx)),
        cy + gaussian(rng, cv * abs(cy)),
        r + gaussian(rng, cv * abs(r)),
    )


# |z| of one Box-Muller sample: at most sqrt(-2 ln 2**-53) < 8.6, as u1 >= 2**-53
_CHANNEL_Z_MAX = 8.6


def check_finite_commands(params: FieldParams, k: int, cv: float) -> None:
    """Raise ValueError unless every command an agent acting on at most k
    obstacles (its own plus one received or inferred) can form, with the
    channel at cv, is at most MAX_LENGTH, and so is each intermediate of the
    worst case: a term's scale, its magnitude over ATTRACTOR_EPS; the field
    sum w_att + k * repulsive_magnitude(RHO_MIN); the command, w_v times
    that sum; both agents' commands summed; and the field sum and the
    command times 1 + 8.6 * cv, the channel's largest draw, which bound the
    listener's residual v / w_v + att and the corrupted command.
    """
    rep_max = repulsive_magnitude(RHO_MIN, params)
    field_sum = params.w_att + k * rep_max
    command = params.w_v * field_sum
    noisy = 1.0 + _CHANNEL_Z_MAX * cv
    worst = (max(params.w_att, rep_max) / ATTRACTOR_EPS, command + command, field_sum * noisy, command * noisy)
    if not all(x <= MAX_LENGTH for x in worst):
        raise ValueError(
            f"field weights allow a command above {MAX_LENGTH} for an agent acting on {k} obstacles at cv {cv}"
        )


def infer_obstacle(
    observed_partner_velocity: Sequence[float],
    partner_pos: Sequence[float],
    goal: Sequence[float],
    params: FieldParams,
    nominal_radius: float,
    tol: float = DEFAULT_INFER_TOL,
) -> InferredObstacle | None:
    """Invert a speaker's velocity into a single obstacle explaining it.

    The residual is the repulsive field term implied by the observed
    velocity once the shared goal's attraction is accounted for:

        residual = v / w_v + att(partner_pos)

    with att the attractive gradient of potential_field's law. A residual
    below max(RESIDUAL_EPS, 2^-49 w_att) means the motion is explained by
    the goal alone and nothing is inferred. The second bound is rounding's,
    with u = 2^-53. Each component of each attraction term, the speaker's
    inside v and the one added here, is exact to a relative 6u: u each from
    p - g, the last product, the root and w_att / dist, and 2u from the
    radicand's 4u, halved by the root. With the multiply and divide by w_v,
    an obstacle-free speaker leaves under (6u + 6u + 2u) w_att < 16u w_att =
    2^-49 w_att. A residual that small cannot be told apart from rounding,
    and a repulsion below it is already lost from v itself. Otherwise the
    repulsive magnitude curve is inverted for the boundary distance rho by
    bisection on (RHO_MIN, rho0], steered by the curve's certified
    closed-form root to the plain bisection's result within tol, and the
    obstacle center is placed at

        partner_pos - (rho + nominal_radius) * residual / |residual|

    A residual at or above the field value at RHO_MIN saturates: the
    obstacle is placed at the floor distance and flagged, not rejected.
    """
    # the radius rule, checked whatever the data
    _check_radius(nominal_radius)
    px, py = partner_pos
    gx, gy = goal
    rx = observed_partner_velocity[0] / params.w_v
    ry = observed_partner_velocity[1] / params.w_v
    dx = px - gx
    dy = py - gy
    dist = math.sqrt(dx * dx + dy * dy)
    if dist < ATTRACTOR_EPS:
        # the zero attraction near the goal still adds 0.0, turning -0.0 into 0.0
        rx += 0.0
        ry += 0.0
    else:
        scale = params.w_att / dist
        rx += dx * scale
        ry += dy * scale
    mag = math.sqrt(rx * rx + ry * ry)
    # rounding's bound second, so that the common return costs one compare
    if mag < RESIDUAL_EPS or mag < _RESIDUAL_ROUNDING * params.w_att:
        return None
    saturated = mag >= repulsive_magnitude(RHO_MIN, params)
    rho = RHO_MIN if saturated else _invert_repulsive_magnitude(mag, params, tol)
    offset = (rho + nominal_radius) / mag
    cx = px - rx * offset
    cy = py - ry * offset
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError("obstacle center must be finite")
    return tuple.__new__(InferredObstacle, (cx, cy, nominal_radius, saturated))


def _invert_repulsive_magnitude(mag: float, params: FieldParams, tol: float) -> float:
    """Bisection for the boundary distance rho with field strength mag,
    steered by the certified closed-form root.

    The curve is strictly decreasing on (0, rho0], so the bracket
    [RHO_MIN, rho0] always contains exactly one root for
    0 < mag < curve(RHO_MIN). The loop halves the bracket until it is
    narrower than tol or at floating-point resolution, and returns its
    midpoint; an exact hit returns at once.

    The closed-form root 2 / (1/rho0 + sqrt(1/rho0^2 + 4 mag/w_rep)), in a
    form that neither overflows nor divides by zero, steers phase one.
    Rounding keeps the float curve non-increasing, so once the curve is
    certified above mag at the low end of a window of relative width
    _STEER_WINDOW around the root and below mag at its high end, a midpoint
    outside the window is judged by its side of the root alone. Phase one,
    while the certificate holds and until a midpoint falls inside the
    window, judges only by the root and skips the `mid == lo or mid == hi`
    exit, which cannot fire there: the window, at least about 4,500 ulps
    wide, stays strictly inside (lo, hi). Phase two is the plain bisection
    from where phase one stopped: it judges every midpoint on the curve,
    computed inline because this runs once per listener step. The result
    is the plain bisection's, bit for bit.
    """
    w_rep = params.w_rep
    inv_rho0 = 1.0 / params.rho0
    lo = RHO_MIN
    hi = params.rho0
    root = 2.0 / (inv_rho0 + math.sqrt(inv_rho0 * inv_rho0 + 4.0 * (mag / w_rep)))
    below = root * (1.0 - 0.5 * _STEER_WINDOW)
    above = root * (1.0 + 0.5 * _STEER_WINDOW)
    if (
        lo < below
        and above < hi
        and w_rep * (1.0 / below - inv_rho0) * (1.0 / below) > mag > w_rep * (1.0 / above - inv_rho0) * (1.0 / above)
    ):
        # phase one; the loop below is phase two
        while (hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            if mid < below:
                lo = mid
            elif mid > above:
                hi = mid
            else:
                break
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

    Each agent acts on its own obstacles plus at most one partner estimate,
    the latest delivery or (while listening) inference; an inference persists
    across role switches until a new one replaces it, and role-game speakers
    act on their own obstacles alone. Observed partner actions are the
    unclamped commands, so inference inverts the exact field.

    With record_trajectory, the outcome carries one flat TrajectoryStep row
    per step played: the table pose after the step, both commanded
    velocities, the roles and each agent's current inferred obstacle.
    """
    rng = Rng(derive_seed(seed, _GAME_STREAM))
    goal = env.goal
    nominal_r = env.geometry_mode.nominal_radius
    cv = strategy.noise_cv
    gx, gy = goal
    trajectory: list[TrajectoryStep] | None = [] if record_trajectory else None

    # The loop holds the table pose and each agent's state in locals (floats,
    # and (cx, cy, radius) tuples for obstacles). The table starts at `start`,
    # held perpendicular to the start-goal line.
    cx_, cy_ = env.start
    heading = math.atan2(gy - cy_, gx - cx_) + 0.5 * math.pi
    half_len = env.table_half_length
    w_att, w_rep, w_v, rho0 = params.w_att, params.w_rep, params.w_v, params.rho0
    dt = limits.dt
    v_cap = limits.v_max
    goal_eps = limits.goal_eps
    # each disc with its reject distance: the radius, raised to _REJECT_FLOOR
    env_obs = tuple((o.center[0], o.center[1], o.radius, max(o.radius, _REJECT_FLOOR)) for o in env.obstacles)
    own1 = tuple((o.center[0], o.center[1], o.radius) for o in env.obstacles if o.owner == 1)
    own2 = tuple((o.center[0], o.center[1], o.radius) for o in env.obstacles if o.owner == 2)
    # heard: own obstacles plus at most one partner estimate, which the latest
    # explicit delivery or the listener's latest inference replaces
    heard1, heard2 = own1, own2
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
                own, sender_pos = (own1, (p1x, p1y)) if sender == 1 else (own2, (p2x, p2y))
                idx = closest_observed_index(own, sender_pos)
                if idx is None:
                    continue
                mcx, mcy, mr = corrupt(own[idx], cv, rng)
                received = ((mcx, mcy, max(mr, 0.0)),)
                if sender == 1:
                    heard2 = own2 + received
                else:
                    heard1 = own1 + received
        elif dynamic:
            speaker = 1 + (step // period) % 2

        if speaker is None:
            roles = ("S", "S")
            v1 = _field_velocity(p1x, p1y, gx, gy, heard1, w_att, w_rep, w_v, rho0)
            v2 = _field_velocity(p2x, p2y, gx, gy, heard2, w_att, w_rep, w_v, rho0)
        elif speaker == 1:
            v1 = _field_velocity(p1x, p1y, gx, gy, own1, w_att, w_rep, w_v, rho0)
            new = infer_obstacle(corrupt(v1, cv, rng), (p1x, p1y), goal, params, nominal_r)
            if new is not None:
                inf2 = new
                heard2 = own2 + (new[:3],)
            v2 = _field_velocity(p2x, p2y, gx, gy, heard2, w_att, w_rep, w_v, rho0)
            roles = ("S", "L")
        else:
            v2 = _field_velocity(p2x, p2y, gx, gy, own2, w_att, w_rep, w_v, rho0)
            new = infer_obstacle(corrupt(v2, cv, rng), (p2x, p2y), goal, params, nominal_r)
            if new is not None:
                inf1 = new
                heard1 = own1 + (new[:3],)
            v1 = _field_velocity(p1x, p1y, gx, gy, heard1, w_att, w_rep, w_v, rho0)
            roles = ("L", "S")

        # dynamics: each command is scaled down to at most v_max, along its
        # own direction. The center translates with the mean command; the
        # heading rate is the cross product of the unit table axis with agent
        # 1's command relative to the mean, over the half length (agent 2's
        # arm gives the same value by antisymmetry). Endpoints are re-derived
        # from center and heading, so the table stays exactly rigid.
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
            trajectory.append(tuple.__new__(TrajectoryStep, (step, cx_, cy_, heading, *v1, *v2, *roles, inf1, inf2)))

        # the new pose's endpoints, center -/+ (ux, uy): next step's positions
        cos_h = math.cos(heading)
        sin_h = math.sin(heading)
        ux = half_len * cos_h
        uy = half_len * sin_h
        p1x = cx_ + ux
        p1y = cy_ + uy
        p2x = cx_ - ux
        p2y = cy_ - uy
        # collision: any obstacle disc against the table segment, measured
        # from the center: s, the disc center's offset along the axis, clamped
        # to the half length, gives the closest point. Most discs are ruled
        # out first from one coordinate, exactly: for |s| <= half_len,
        # monotone rounding gives |fl(s*cos_h)| <= fl(half_len*|cos_h|) =
        # |ux|, so the loop's ddx is at least dx - |ux| and -ddx at least
        # -dx - |ux|, both rounded; the same holds on y. Once one of these
        # reaches lim, the radius raised to _REJECT_FLOOR, so does the
        # computed distance: sqrt(fl(ddx*ddx)) is |ddx| unless the square
        # underflows, which the floor rules out, and adding ddy*ddy rounds no
        # lower. The exact test would not fire; a NaN never collides anyway.
        ex = abs(ux)
        ey = abs(uy)
        for ocx, ocy, orad, lim in env_obs:
            dx = ocx - cx_
            if dx - ex >= lim or -dx - ex >= lim:
                continue
            dy = ocy - cy_
            if dy - ey >= lim or -dy - ey >= lim:
                continue
            s = dx * cos_h + dy * sin_h
            if s > half_len:
                s = half_len
            elif s < -half_len:
                s = -half_len
            ddx = dx - s * cos_h
            ddy = dy - s * sin_h
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


# ---------------------------------------------------------------------------
# environment generation


def generate_environment(
    seed: int,
    n: int,
    geometry_mode: GeometryMode,
    workspace: Workspace,
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
        for _ in range(workspace.retry_cap):
            x = x_lo + (x_hi - x_lo) * rng.uniform()
            y = y_lo + (y_hi - y_lo) * rng.uniform()
            required = workspace.clearance + radius
            ds = math.dist((x, y), workspace.start)
            dg = math.dist((x, y), workspace.goal)
            if ds >= required and dg >= required:
                obstacles.append(TaggedObstacle(center=(x, y), radius=radius, owner=1 + i % 2))
                break
        else:
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
    empty while an agent has no inference, and rendered once per object.
    """
    lines = [TRAJECTORY_COLUMNS]
    last1 = last2 = None
    inf1 = inf2 = ",,"
    for ts in trajectory:
        if ts.inferred1 is not last1:
            last1 = ts.inferred1
            inf1 = ",," if last1 is None else _INFERRED % last1[:3]
        if ts.inferred2 is not last2:
            last2 = ts.inferred2
            inf2 = ",," if last2 is None else _INFERRED % last2[:3]
        lines.append(_ROW % (*ts[:10], inf1, inf2))
    return lines


def write_trajectory_csv(trajectory: Sequence[TrajectoryStep], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(trajectory_csv_lines(trajectory)))
        fh.write("\n")

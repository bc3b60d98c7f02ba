"""Role analysis for linear feedback teams.

Covers the closed-loop consequences of role assignment when a decentralized
team mimics a centralized gain: masked gains and stability for fixed roles,
the rotation construction whose phase average recovers the centralized
action, propagation of unbiased action-observation noise, and the variance
trade-off a speaker faces when the centralized policy is stochastic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AnalysisError, SingularGainError
from .numerics import eig2x2, eig_general


@dataclass(frozen=True)
class TeamLinearSystem:
    """Continuous-time plant sdot = A s + B a with centralized gain a* = -Kstar s.

    W holds the per-agent action noise variances (w_i^2).
    """

    A: np.ndarray
    B: np.ndarray
    Kstar: np.ndarray
    W: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("A", "B", "Kstar"):
            m = getattr(self, name)
            if isinstance(m, (list, tuple)) and len({np.shape(row) for row in m}) > 1:
                raise ValueError(f"{name}: every row must have the same length")
            m = np.asarray(m, dtype=float)
            object.__setattr__(self, name, m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")
        if not (self.A.shape == self.B.shape == self.Kstar.shape):
            raise ValueError("A, B, Kstar must share the same shape")
        object.__setattr__(self, "W", tuple(float(w) for w in self.W))
        if any(w < 0 for w in self.W):
            raise ValueError("noise variances must be >= 0")

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class SpeakerSpeaker:
    """Both agents act on their own state only."""


@dataclass(frozen=True)
class SpeakerListener:
    """Fixed roles: the given agent speaks, the other listens."""

    speaker: int = 1

    def __post_init__(self):
        if self.speaker not in (1, 2):
            raise ValueError(f"speaker index must be 1 or 2, got {self.speaker}")


@dataclass(frozen=True)
class DynamicAlternating:
    """Roles swap every phase. For any phase length the phase-averaged gain
    is the full Kstar; rotation_converges takes the phase lengths as dts."""


RoleAllocation = SpeakerSpeaker | SpeakerListener | DynamicAlternating


def _gain_2x2(K) -> np.ndarray:
    """K as a new float array, which must be 2x2."""
    k = np.array(K, dtype=float)
    if k.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gain, got shape {k.shape}")
    return k


def role_gain(Kstar, alloc: RoleAllocation) -> np.ndarray:
    """Effective 2x2 feedback gain under a role allocation.

    A speaking agent cannot use the other agent's state, so its cross gain is
    masked to zero: SpeakerListener(1) zeroes K12, SpeakerListener(2) zeroes
    K21, and SpeakerSpeaker zeroes both. DynamicAlternating returns the gain
    unchanged (the fast-switching phase average reproduces the full gain).
    Diagonal entries are never modified; the operation is idempotent.
    """
    k = _gain_2x2(Kstar)
    if isinstance(alloc, SpeakerSpeaker):
        k[0, 1] = 0.0
        k[1, 0] = 0.0
    elif isinstance(alloc, SpeakerListener):
        if alloc.speaker == 1:
            k[0, 1] = 0.0
        else:
            k[1, 0] = 0.0
    elif isinstance(alloc, DynamicAlternating):
        pass
    else:
        raise TypeError(f"unknown allocation {alloc!r}")
    return k


class StabilityReport(NamedTuple):
    eigenvalues: tuple[complex, ...]
    stable: bool
    max_real_part: float


def stability_report(sys: TeamLinearSystem, alloc: RoleAllocation) -> StabilityReport:
    """Closed-loop eigenvalues of A - B * role_gain(Kstar) and the stability verdict.

    Stable iff every eigenvalue has a strictly negative real part. Fixed
    allocations require a 2x2 system; DynamicAlternating (whose averaged gain
    is the full Kstar) is accepted for any supported dimension.
    """
    if isinstance(alloc, DynamicAlternating):
        gain = sys.Kstar
    else:
        if sys.n != 2:
            raise ValueError("fixed role allocations are defined for 2x2 systems only")
        gain = role_gain(sys.Kstar, alloc)
    closed = sys.A - sys.B @ gain
    if closed.shape == (2, 2):
        eigs = eig2x2(closed)
    else:
        eigs = eig_general(closed)
    max_re = max(e.real for e in eigs)
    return StabilityReport(tuple(eigs), max_re < 0.0, max_re)


def rotation_action(
    sys: TeamLinearSystem,
    s,
    phase: int,
    naive_actions=None,
) -> np.ndarray:
    """Team action vector for one phase of the role rotation.

    In phase k, agent k leads by speaking; the next agent in cyclic order
    takes the corrective (listening) role and emits a_j* + (N-1)(a_j* - abar_j),
    which it can compute because every speaker's naive action reveals that
    speaker's state. All remaining agents speak their naive actions. Averaged
    over a full cycle of N phases, the team action equals -Kstar s exactly
    when the state is held constant.

    naive_actions defaults to the state itself (identity revealing map); pass
    explicit values for any other invertible choice.
    """
    s = np.asarray(s, dtype=float)
    n = sys.n
    if s.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {s.shape}")
    if not 1 <= phase <= n:
        raise ValueError(f"phase must be in 1..{n}, got {phase}")
    abar = s.copy() if naive_actions is None else np.asarray(naive_actions, dtype=float)
    if abar.shape != (n,):
        raise ValueError(f"naive_actions must have shape ({n},), got {abar.shape}")
    a_star = -sys.Kstar @ s
    action = abar.copy()
    corrector = phase % n  # 0-based index of the listening agent
    action[corrector] = a_star[corrector] + (n - 1) * (a_star[corrector] - abar[corrector])
    return action


def _finite_vector(name: str, values, n: int) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.shape != (n,) or not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be {n} finite values, got {v.tolist()}")
    return v


class RotationRow(NamedTuple):
    dt: float
    cycles: int
    sup_deviation: float


def rotation_converges(
    sys: TeamLinearSystem,
    horizon: float,
    dts: Sequence[float],
    s0=None,
    drift=None,
) -> list[RotationRow]:
    """Deviation of the per-cycle mean rotation action from the centralized action.

    The state follows the prescribed linear drift s(t) = s0 + drift * t (both
    default to ones / zeros). For each dt the rotation runs phase-by-phase
    over the horizon, truncated to whole cycles of N phases; each cycle's
    mean team action is compared against -Kstar s at the cycle start, and the
    sup-norm over cycles is reported. The deviation is zero for constant
    states and scales linearly with dt for drifting states. The horizon and
    every dt must be finite and > 0, and s0 and drift n finite values. The
    cycle count horizon / (n*dt) and every deviation must be finite too.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ValueError(f"every dt must be finite and > 0, got {list(dts)}")
    n = sys.n
    if not all(math.isfinite(horizon / (n * dt)) for dt in dts):
        raise ValueError(f"horizon / (n*dt) must be finite, got horizon {horizon} and dts {list(dts)}")
    s0 = _finite_vector("s0", np.ones(n) if s0 is None else s0, n)
    drift = _finite_vector("drift", np.zeros(n) if drift is None else drift, n)
    rows = []
    for dt in dts:
        cycles = int(math.floor(horizon / (n * dt)))
        worst = 0.0
        for c in range(cycles):
            t0 = c * n * dt
            # an overflow shows as a deviation that is not finite, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                target = -sys.Kstar @ (s0 + drift * t0)
                total = np.zeros(n)
                for k in range(n):
                    s_t = s0 + drift * (t0 + k * dt)
                    total += rotation_action(sys, s_t, phase=k + 1)
                dev = float(np.max(np.abs(total / n - target)))
            if not math.isfinite(dev):
                raise ValueError(f"the deviation at dt {float(dt)} is not finite, got {dev}")
            if dev > worst:
                worst = dev
        rows.append(RotationRow(dt=float(dt), cycles=cycles, sup_deviation=worst))
    return rows


def noisy_listener_action(Kstar, s, noise) -> np.ndarray:
    """Fast-alternation team action when each listener misreads the speaker.

    The listener treats the corrupted observation a_i + n_i as the speaker's
    true action, so its inferred state absorbs -K_ii^{-1} n_i and the team
    action picks up the propagated terms:

        a = -Kstar s + [K12 K22^{-1} n2, K21 K11^{-1} n1]

    Unbiased noise therefore leaves the expected action at -Kstar s.
    """
    k = _gain_2x2(Kstar)
    if k[0, 0] == 0.0 or k[1, 1] == 0.0:
        raise SingularGainError("diagonal gain entries must be nonzero to invert actions")
    s = np.asarray(s, dtype=float)
    n = np.asarray(noise, dtype=float)
    extra = np.array([k[0, 1] / k[1, 1] * n[1], k[1, 0] / k[0, 0] * n[0]])
    return -k @ s + extra


class VariancePair(NamedTuple):
    sigma1_sq: float
    sigma2_sq: float


def optimal_variances(K, w1_sq: float, w2_sq: float, speaker: int = 1) -> VariancePair:
    """Action variances minimizing the expected KL to the centralized policy.

    The listener keeps the centralized variance of its own action; the
    speaker shrinks its variance because listener inference amplifies speaker
    noise through the cross gain:

        sigma_spk^2 = K_ss^2 w_s^2 w_l^2 / (K_ss^2 w_l^2 + K_ls^2 w_s^2)

    which is always <= w_s^2, with equality iff the cross gain K_ls is zero.
    """
    k = _gain_2x2(K)
    if not (w1_sq > 0 and w2_sq > 0):
        raise ValueError("noise variances must be > 0")
    if speaker == 1:
        if k[0, 0] == 0.0:
            raise SingularGainError("K11 must be nonzero when agent 1 speaks")
        s1 = k[0, 0] ** 2 * w1_sq * w2_sq / (k[0, 0] ** 2 * w2_sq + k[1, 0] ** 2 * w1_sq)
        return VariancePair(s1, w2_sq)
    if speaker == 2:
        if k[1, 1] == 0.0:
            raise SingularGainError("K22 must be nonzero when agent 2 speaks")
        s2 = k[1, 1] ** 2 * w1_sq * w2_sq / (k[1, 1] ** 2 * w1_sq + k[0, 1] ** 2 * w2_sq)
        return VariancePair(w1_sq, s2)
    raise ValueError(f"speaker index must be 1 or 2, got {speaker}")


def expected_kl(
    K,
    sigma1_sq: float,
    sigma2_sq: float,
    w1_sq: float,
    w2_sq: float,
    sigma_s2_sq: float,
) -> float:
    """Expected KL divergence between the role-based and centralized policies.

    Agent 1 speaks; the partner-state prior variance sigma_s2_sq enters
    through the speaker's inability to observe s2:

        K12^2 sigma_s2^2 / (2 w1^2) + log(w1 w2 / (sigma1 sigma2))
        + sigma1^2 / (2 w1^2) + (sigma2^2 + K21^2 sigma1^2 / K11^2) / (2 w2^2)
    """
    k = _gain_2x2(K)
    for name, v in (
        ("sigma1_sq", sigma1_sq),
        ("sigma2_sq", sigma2_sq),
        ("w1_sq", w1_sq),
        ("w2_sq", w2_sq),
    ):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    if not (sigma_s2_sq >= 0 and math.isfinite(sigma_s2_sq)):
        raise ValueError(f"sigma_s2_sq must be finite and >= 0, got {sigma_s2_sq}")
    if k[0, 0] == 0.0:
        raise SingularGainError("K11 must be nonzero when agent 1 speaks")
    return (
        k[0, 1] ** 2 * sigma_s2_sq / (2.0 * w1_sq)
        + 0.5 * math.log(w1_sq * w2_sq / (sigma1_sq * sigma2_sq))
        + sigma1_sq / (2.0 * w1_sq)
        + (sigma2_sq + k[1, 0] ** 2 * sigma1_sq / k[0, 0] ** 2) / (2.0 * w2_sq)
    )


def lqr_gain(A, B, Q, R) -> np.ndarray:
    """Continuous-time LQR gain via the Hamiltonian stable subspace.

    Builds H = [[A, -B R^-1 B^T], [-Q, -A^T]], spans the eigenvectors with
    negative real part, and recovers P from the subspace basis; K = R^-1 B^T P.
    Requires (A, B) controllable, Q >= 0, R > 0, n <= 4. The algebraic
    Riccati residual is verified below 1e-8 before returning.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if n > 4:
        raise ValueError(f"state dimension {n} exceeds the supported cap 4")
    if A.shape != (n, n) or B.shape[0] != n or Q.shape != (n, n):
        raise ValueError("inconsistent matrix dimensions")
    m = B.shape[1]
    if R.shape != (m, m):
        raise ValueError(f"R must be {m}x{m}, got {R.shape}")
    ctrb = np.hstack([np.linalg.matrix_power(A, i) @ B for i in range(n)])
    if np.linalg.matrix_rank(ctrb) < n:
        raise AnalysisError("(A, B) is not controllable")
    r_inv = np.linalg.inv(R)
    ham = np.block([[A, -B @ r_inv @ B.T], [-Q, -A.T]])
    vals, vecs = np.linalg.eig(ham)
    stable = np.where(vals.real < 0)[0]
    if len(stable) != n:
        raise AnalysisError(
            f"Hamiltonian has {len(stable)} stable eigenvalues, expected {n}"
        )
    basis = vecs[:, stable]
    x1 = basis[:n, :]
    x2 = basis[n:, :]
    try:
        p = np.real(x2 @ np.linalg.inv(x1))
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("stable subspace basis is singular") from exc
    p = 0.5 * (p + p.T)
    residual = A.T @ p + p @ A - p @ B @ r_inv @ B.T @ p + Q
    if np.max(np.abs(residual)) >= 1e-8:
        raise AnalysisError(
            f"Riccati residual {np.max(np.abs(residual)):.3e} exceeds 1e-8"
        )
    return r_inv @ B.T @ p

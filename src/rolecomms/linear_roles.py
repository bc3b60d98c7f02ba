"""Role analysis for linear feedback teams.

Covers the closed-loop consequences of role assignment when a decentralized
team mimics a centralized gain: masked gains and stability for the role
allocations named in `ROLE_MASKS` (the names `rolecomms analyze --alloc`
takes), the rotation construction whose phase average recovers the centralized
action, propagation of unbiased action-observation noise, and the variance
trade-off a speaker faces when the centralized policy is stochastic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SingularGainError
from .numerics import eigenvalues


@dataclass(frozen=True)
class TeamLinearSystem:
    """Continuous-time plant sdot = A s + B a with centralized gain a* = -Kstar s,
    and the schema of `rolecomms analyze`'s JSON system file.

    A, B and Kstar are stored as tuples of float rows. W holds the per-agent
    action noise variances (w_i^2); sigma_s2_sq, the partner-state prior
    variance, is checked by expected_kl alone.
    """

    A: tuple[tuple[float, ...], ...]
    B: tuple[tuple[float, ...], ...]
    Kstar: tuple[tuple[float, ...], ...]
    W: tuple[float, ...] = ()
    sigma_s2_sq: float | None = None

    def __post_init__(self):
        for name in ("A", "B", "Kstar"):
            m = getattr(self, name)
            if isinstance(m, (list, tuple)) and len({np.shape(row) for row in m}) > 1:
                raise ValueError(f"{name}: every row must have the same length")
            m = np.asarray(m, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if not m.size:
                raise ValueError(f"{name} must have at least one row")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, tuple(map(tuple, m.tolist())))
        if not (len(self.A) == len(self.B) == len(self.Kstar)):
            raise ValueError("A, B, Kstar must share the same shape")
        object.__setattr__(self, "W", tuple(float(w) for w in self.W))
        if any(w < 0 for w in self.W):
            raise ValueError("noise variances must be >= 0")

    @property
    def n(self) -> int:
        return len(self.A)


# The four role allocations, by the names `rolecomms analyze --alloc` takes,
# and the gain entries each one masks. A speaking agent cannot use the other
# agent's state, so its cross gain is zeroed: agent 1 speaking zeroes K12,
# agent 2 speaking zeroes K21. Under "dynamic" the roles rotate every phase:
# for any phase length the phase-averaged gain is the full Kstar, and
# rotation_converges gives the O(dt) error of one cycle under a drifting
# state.
ROLE_MASKS = {
    "speaker_listener_1": ((0, 1),),
    "speaker_listener_2": ((1, 0),),
    "speaker_speaker": ((0, 1), (1, 0)),
    "dynamic": (),
}


def _gain_2x2(K) -> np.ndarray:
    """K as a new float array, which must be 2x2."""
    k = np.array(K, dtype=float)
    if k.shape != (2, 2):
        raise ValueError(f"expected a 2x2 gain, got shape {k.shape}")
    return k


def _square(x: float) -> float:
    """x ** 2 rounded by C's pow, as numpy's was: not always x * x; inf where ** overflows."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def role_gain(Kstar, alloc: str) -> np.ndarray:
    """Effective 2x2 feedback gain under the role allocation named `alloc`.

    The entries `ROLE_MASKS[alloc]` lists are zeroed; "dynamic" returns the
    gain unchanged. Diagonal entries are never modified, so the operation is
    idempotent. An unknown name is refused before the gain's shape is checked.
    """
    if alloc not in ROLE_MASKS:
        raise ValueError(f"unknown role allocation {alloc!r}, expected one of {sorted(ROLE_MASKS)}")
    k = _gain_2x2(Kstar)
    for entry in ROLE_MASKS[alloc]:
        k[entry] = 0.0
    return k


class StabilityReport(NamedTuple):
    eigenvalues: tuple[complex, ...]
    stable: bool
    max_real_part: float


def _hurwitz_stable(m: list[list[float]]) -> bool:
    """Whether every eigenvalue of the square float matrix m has a strictly
    negative real part, decided exactly.

    Every float is a dyadic rational, so m times the largest denominator of
    its entries, a power of two, is an integer matrix with the same signs of
    real parts. Its characteristic polynomial l^n + a1 l^(n-1) + ... + an
    comes exact from Faddeev-LeVerrier, whose division by k is exact on
    integers. The roots lie in the open left half plane iff every leading
    principal minor of the Hurwitz matrix H[i][j] = a(2j - i + 1), with
    a0 = 1 and a zero outside 0..n, is > 0 (Hurwitz 1895; Gantmacher, The
    Theory of Matrices, vol. 2, ch. XV). Bareiss's fraction-free
    elimination makes its k-th pivot the k-th such minor, so it stops at
    the first one <= 0.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in m]
    scale = max(den for row in ratios for _, den in row)
    a = [[num * (scale // den) for num, den in row] for row in ratios]
    n = len(a)
    coeffs = [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # a M_k, then a_k = -tr(a M_k) / k and M_(k+1) = a M_k + a_k I
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mk)] for row in a]
        coeffs.append(-sum(am[i][i] for i in range(n)) // k)
        mk = [[v + coeffs[-1] if i == j else v for j, v in enumerate(row)] for i, row in enumerate(am)]
    h = [[coeffs[2 * j - i + 1] if 0 <= 2 * j - i + 1 <= n else 0 for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        pivot = h[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                h[i][j] = (h[i][j] * pivot - h[i][k] * h[k][j]) // prev
        prev = pivot
    return True


def stability_report(sys: TeamLinearSystem, alloc: str) -> StabilityReport:
    """Closed-loop eigenvalues of A - B * role_gain(Kstar, alloc) and the stability verdict.

    Stable iff every eigenvalue has a strictly negative real part, decided
    exactly on the float closed loop by the Hurwitz criterion
    (_hurwitz_stable); the eigenvalues and their largest real part are
    reported as computed. The fixed allocations require a 2x2 system;
    "dynamic" (whose averaged gain is the full Kstar) is accepted for any
    supported dimension. The spectrum is solved first, so `eigenvalues`'
    8x8 bound also bounds the exact test, whose cost grows about as n^5.
    """
    if alloc == "dynamic":
        gain = np.array(sys.Kstar)
    else:
        # an unknown name is role_gain's error, whatever the shape
        if sys.n != 2 and alloc in ROLE_MASKS:
            raise ValueError("fixed role allocations are defined for 2x2 systems only")
        gain = role_gain(sys.Kstar, alloc)
    # an overflow shows as a closed loop or a spectrum that is not finite,
    # reported below
    with np.errstate(over="ignore", invalid="ignore"):
        closed = np.array(sys.A) - np.array(sys.B) @ gain
        if not np.all(np.isfinite(closed)):
            raise ValueError(f"the closed-loop matrix A - B K is not finite, got {closed.tolist()}")
        eigs = eigenvalues(closed)
    if not all(cmath.isfinite(e) for e in eigs):
        raise ValueError(f"the closed-loop eigenvalues are not finite, got {list(eigs)}")
    return StabilityReport(eigs, _hurwitz_stable(closed.tolist()), max(e.real for e in eigs))


def rotation_action(sys: TeamLinearSystem, s, phase: int) -> np.ndarray:
    """Team action vector for one phase of the role rotation.

    In phase k, agent k leads by speaking; the next agent in cyclic order
    takes the corrective (listening) role and emits a_j* + (N-1)(a_j* - s_j),
    which it can compute because every speaker's naive action is its own
    state (the identity revealing map). All remaining agents speak their
    naive actions. The action is therefore linear in s, and averaged over a
    full cycle of N phases it equals -Kstar s exactly when the state is held
    constant.
    """
    s = np.asarray(s, dtype=float)
    n = sys.n
    if s.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {s.shape}")
    if not 1 <= phase <= n:
        raise ValueError(f"phase must be in 1..{n}, got {phase}")
    a_star = -np.array(sys.Kstar) @ s
    action = s.copy()
    corrector = phase % n  # 0-based index of the listening agent
    action[corrector] = a_star[corrector] + (n - 1) * (a_star[corrector] - s[corrector])
    return action


class RotationRow(NamedTuple):
    dt: float
    cycles: int
    sup_deviation: float


def rotation_converges(
    sys: TeamLinearSystem,
    horizon: float,
    dts: Sequence[float],
    drift=None,
) -> list[RotationRow]:
    """Deviation of the per-cycle mean rotation action from the centralized action.

    The state follows a linear drift s(t) = s(0) + drift * t (drift defaults
    to zeros). For each dt the rotation runs phase by phase over the horizon,
    truncated to whole cycles of N phases (horizon / (N*dt) rounded down,
    or up when within 8 ulps of the next whole number, which rounding in
    the quotient can fall short of), and each cycle's mean team action
    is compared against -Kstar s at the cycle start. rotation_action is
    linear in s and its cycle mean is -Kstar, so every cycle deviates by the
    same amount, the sup-norm of (1/N) sum_k rotation_action(drift * k*dt, k+1),
    whatever s(0) and the cycle: that is the reported sup over cycles, or 0.0
    when no whole cycle fits. It is zero for constant states and scales
    linearly with dt for drifting states. The horizon and every dt must be
    finite and > 0, and drift n finite values. The cycle count
    horizon / (n*dt) and every deviation must be finite too.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    if not all(math.isfinite(dt) and dt > 0 for dt in dts):
        raise ValueError(f"every dt must be finite and > 0, got {list(dts)}")
    n = sys.n
    if not all(math.isfinite(horizon / (n * dt)) for dt in dts):
        raise ValueError(f"horizon / (n*dt) must be finite, got horizon {horizon} and dts {list(dts)}")
    drift = np.asarray(np.zeros(n) if drift is None else drift, dtype=float)
    if drift.shape != (n,) or not np.all(np.isfinite(drift)):
        raise ValueError(f"drift must be {n} finite values, got {drift.tolist()}")
    rows = []
    for dt in dts:
        # whole cycles, up to a few ulps of rounding in the quotient:
        # 0.3 / (3 * 0.1) is 0.9999999999999999, yet a cycle of three 0.1
        # phases fits in 0.3
        quotient = horizon / (n * dt)
        cycles = math.ceil(quotient)
        if cycles - quotient > 8 * math.ulp(quotient):
            cycles -= 1
        dev = 0.0
        if cycles:
            # an overflow shows as a deviation that is not finite, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                total = sum(rotation_action(sys, drift * (k * dt), k + 1) for k in range(n))
                dev = float(np.max(np.abs(total / n)))
            if not math.isfinite(dev):
                raise ValueError(f"the deviation at dt {float(dt)} is not finite, got {dev}")
        rows.append(RotationRow(dt=float(dt), cycles=cycles, sup_deviation=dev))
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
    if s.shape != (2,) or n.shape != (2,):
        raise ValueError(f"state and noise must have shape (2,), got {s.shape} and {n.shape}")
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
    A speaker variance that overflows, or underflows to 0, raises ValueError.
    """
    k = _gain_2x2(K).tolist()
    if not (w1_sq > 0 and w2_sq > 0):
        raise ValueError("noise variances must be > 0")
    if speaker not in (1, 2):
        raise ValueError(f"speaker index must be 1 or 2, got {speaker}")
    # i indexes the speaker and j the listener
    i, j = (0, 1) if speaker == 1 else (1, 0)
    if k[i][i] == 0.0:
        raise SingularGainError(f"K{i + 1}{i + 1} must be nonzero when agent {i + 1} speaks")
    pair = [float(w1_sq), float(w2_sq)]
    # an overflow shows as a variance that is not finite, and an underflow as
    # 0, reported below; Python raises on x / 0.0, which IEEE 754 makes x * inf
    k_ss = _square(k[i][i])
    num = k_ss * pair[0] * pair[1]
    den = k_ss * pair[j] + _square(k[j][i]) * pair[i]
    pair[i] = num / den if den else num * math.inf
    if not 0.0 < pair[i] < math.inf:
        raise ValueError(f"sigma{i + 1}_sq must come out finite and > 0, got {pair[i]}")
    return VariancePair(*pair)


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

    The log's quotient and its denominator must not underflow to 0, and the
    divergence must be finite; each raises ValueError otherwise.
    """
    (k11, k12), (k21, _) = _gain_2x2(K).tolist()
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
    if k11 == 0.0:
        raise SingularGainError("K11 must be nonzero when agent 1 speaks")
    sigma1_sq, sigma2_sq, w1_sq, w2_sq, sigma_s2_sq = map(float, (sigma1_sq, sigma2_sq, w1_sq, w2_sq, sigma_s2_sq))
    if sigma1_sq * sigma2_sq == 0.0:
        raise ValueError(f"sigma1_sq * sigma2_sq underflows to 0, got {sigma1_sq} and {sigma2_sq}")
    quotient = w1_sq * w2_sq / (sigma1_sq * sigma2_sq)
    if quotient == 0.0:
        raise ValueError("w1_sq * w2_sq / (sigma1_sq * sigma2_sq) underflows to 0")
    # an overflow shows as a divergence that is not finite, reported below
    cross = _square(k21) * sigma1_sq
    k11_sq = _square(k11)
    kl = (
        _square(k12) * sigma_s2_sq / (2.0 * w1_sq)
        + 0.5 * math.log(quotient)
        + sigma1_sq / (2.0 * w1_sq)
        + (sigma2_sq + (cross / k11_sq if k11_sq else cross * math.inf)) / (2.0 * w2_sq)
    )
    if not math.isfinite(kl):
        raise ValueError(f"expected_kl is not finite, got {kl}")
    return kl

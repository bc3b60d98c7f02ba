import math
import random

import numpy as np
import pytest

from rolecomms import linear_roles
from rolecomms.errors import SingularGainError
from rolecomms.linear_roles import (
    ROLE_MASKS,
    TeamLinearSystem,
    expected_kl,
    noisy_listener_action,
    optimal_variances,
    role_gain,
    rotation_action,
    rotation_converges,
    stability_report,
)
from rolecomms.numerics import Rng, gaussian

UNSTABLE_A = np.array([[1.0, 1.0], [0.0, 1.0]])
UNSTABLE_B = np.array([[0.0, 0.0], [1.0, 0.0]])


def unstable_system(K):
    return TeamLinearSystem(A=UNSTABLE_A, B=UNSTABLE_B, Kstar=np.asarray(K, dtype=float))


class TestRoleGain:
    def test_speaker_one_masks_k12(self):
        out = role_gain([[1, 2], [3, 4]], "speaker_listener_1")
        assert np.array_equal(out, [[1, 0], [3, 4]])

    def test_speaker_two_masks_k21(self):
        out = role_gain([[1, 2], [3, 4]], "speaker_listener_2")
        assert np.array_equal(out, [[1, 2], [0, 4]])

    def test_speaker_speaker_masks_both(self):
        out = role_gain([[1, 2], [3, 4]], "speaker_speaker")
        assert np.array_equal(out, [[1, 0], [0, 4]])

    def test_diagonal_gain_unchanged(self):
        for alloc in ("speaker_speaker", "speaker_listener_1", "speaker_listener_2"):
            assert np.array_equal(role_gain([[2, 0], [0, 5]], alloc), [[2, 0], [0, 5]])

    def test_dynamic_returns_full_gain(self):
        out = role_gain([[1, 2], [3, 4]], "dynamic")
        assert np.array_equal(out, [[1, 2], [3, 4]])

    def test_idempotent_and_preserves_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.uniform(-5, 5, size=(2, 2))
            for alloc in ROLE_MASKS:
                once = role_gain(k, alloc)
                twice = role_gain(once, alloc)
                assert np.array_equal(once, twice)
                assert once[0, 0] == k[0, 0] and once[1, 1] == k[1, 1]

    def test_invalid_speaker_index(self):
        # an unknown name is refused before the gain's shape is checked
        for K in ([[1, 2], [3, 4]], np.eye(3)):
            with pytest.raises(ValueError, match=r"^unknown role allocation 'speaker_listener_3', expected one of \["):
                role_gain(K, "speaker_listener_3")


def test_allocation_classes_are_retired():
    # a role allocation is one of ROLE_MASKS's names
    for name in ("SpeakerSpeaker", "SpeakerListener", "DynamicAlternating", "RoleAllocation"):
        assert not hasattr(linear_roles, name)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: role_gain(k, "speaker_speaker"),
        lambda k: noisy_listener_action(k, [1.0, 1.0], [0.0, 0.0]),
        lambda k: optimal_variances(k, 1.0, 1.0),
        lambda k: expected_kl(k, 1.0, 1.0, 1.0, 1.0, 1.0),
    ],
    ids=["role_gain", "noisy_listener_action", "optimal_variances", "expected_kl"],
)
def test_every_gain_must_be_2x2(call):
    with pytest.raises(ValueError, match=r"^expected a 2x2 gain, got shape \(3, 3\)$"):
        call(np.eye(3))


class TestTeamLinearSystem:
    @pytest.mark.parametrize("name", ["A", "B", "Kstar"])
    @pytest.mark.parametrize("ragged", [[[1.0, 0.6], [0.7]], ((1.0, 0.6), 0.7)], ids=["short_row", "scalar_row"])
    def test_ragged_matrix_names_field_and_rule(self, name, ragged):
        matrices = {"A": np.eye(2), "B": np.eye(2), "Kstar": np.eye(2), name: ragged}
        with pytest.raises(ValueError, match=f"^{name}: every row must have the same length$"):
            TeamLinearSystem(**matrices)


class TestStability:
    def test_fixed_speaker_listener_always_unstable(self):
        rng = random.Random(17)
        for _ in range(100):
            K = [[rng.uniform(-10, 10), rng.uniform(-10, 10)],
                 [rng.uniform(-10, 10), rng.uniform(-10, 10)]]
            rep = stability_report(unstable_system(K), "speaker_listener_1")
            assert not rep.stable
            assert rep.max_real_part >= 1.0 - 1e-9
            # cross-check the spectrum against an independent eigensolver
            closed = UNSTABLE_A - UNSTABLE_B @ role_gain(K, "speaker_listener_1")
            reference = sorted(np.linalg.eigvals(closed), key=lambda z: (z.real, z.imag))
            got = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
            for a, b in zip(got, reference):
                assert abs(a - b) < 1e-9

    def test_already_stable_plant(self):
        sys = TeamLinearSystem(A=-np.eye(2), B=np.eye(2), Kstar=np.zeros((2, 2)))
        rep = stability_report(sys, "speaker_listener_1")
        assert rep.stable
        assert rep.eigenvalues == (-1 + 0j, -1 + 0j)

    def test_dynamic_allocation_uses_full_gain(self):
        # with the full gain available the double-integrator plant is
        # stabilizable even though every fixed allocation fails
        K = np.array([[3.5, 4.0], [0.0, 0.0]])
        sys = TeamLinearSystem(A=UNSTABLE_A, B=UNSTABLE_B, Kstar=K)
        closed = UNSTABLE_A - UNSTABLE_B @ K
        assert max(e.real for e in np.linalg.eigvals(closed)) < 0
        rep = stability_report(sys, "dynamic")
        assert rep.stable

    def test_fixed_alloc_requires_2x2(self):
        sys = TeamLinearSystem(A=-np.eye(3), B=np.eye(3), Kstar=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="^fixed role allocations are defined for 2x2 systems only$"):
            stability_report(sys, "speaker_speaker")
        assert stability_report(sys, "dynamic").eigenvalues == (-1 + 0j,) * 3

    def test_unknown_allocation_is_refused_for_any_shape(self):
        for n in (2, 3):
            sys = TeamLinearSystem(A=-np.eye(n), B=np.eye(n), Kstar=np.zeros((n, n)))
            with pytest.raises(ValueError, match="^unknown role allocation 'Dynamic'"):
                stability_report(sys, "Dynamic")

    @pytest.mark.parametrize(
        "plant, message",
        [
            (1e308, "the closed-loop matrix A - B K is not finite"),
            (0.0, "the closed-loop eigenvalues are not finite"),
        ],
        ids=["overflowing_matrix", "overflowing_trace"],
    )
    def test_overflow_raises_and_warns_of_nothing(self, recwarn, plant, message):
        # every entry of A 1e308 and K = 1e200: with B = 1e308 the product B K
        # overflows; with B = 0 the closed loop is A, whose eigenvalues are 2e308 and 0
        sys = TeamLinearSystem(A=np.full((2, 2), 1e308), B=np.full((2, 2), plant), Kstar=np.full((2, 2), 1e200))
        for alloc in ROLE_MASKS:
            with pytest.raises(ValueError, match=f"^{message}, got "):
                stability_report(sys, alloc)
        assert [str(w.message) for w in recwarn] == []

    def test_overflowing_3x3_spectrum_is_refused(self, recwarn):
        # once "SVD did not converge" from the residual check of an infinite root
        sys = TeamLinearSystem(A=np.full((3, 3), 1e308), B=np.zeros((3, 3)), Kstar=np.eye(3))
        with pytest.raises(ValueError, match="^the closed-loop eigenvalues are not finite, got "):
            stability_report(sys, "dynamic")
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize(
        "A, B, alloc, eigenvalues",
        [
            # closed loop [[1, 1], [-1, -1]], a double root at 0
            ([[1.0, 1.0], [0.0, -1.0]], UNSTABLE_B, "speaker_listener_1", (0j, 0j)),
            ([[0.0, 1.0], [-1.0, 0.0]], np.zeros((2, 2)), "dynamic", (-1j, 1j)),
            # once a determinant 1e-340 underflowing to 0, the root -1e-200 read as -0.0
            ([[-1e-140, 0.0], [0.0, -1e-200]], np.zeros((2, 2)), "dynamic", (-1e-140 + 0j, -1e-200 + 0j)),
            # closed loop [[1, 1], [-1e154, -6e153]]: roots -6e153 and -2/3
            (UNSTABLE_A, [[0.0, 0.0], [1e154, 0.0]], "speaker_listener_2", (-6e153 + 0j, -2 / 3 + 0j)),
        ],
        ids=["double_zero_root", "imaginary_pair", "tiny_negative", "graded"],
    )
    def test_roots_at_and_near_the_axis_are_exact(self, A, B, alloc, eigenvalues):
        sys = TeamLinearSystem(A=A, B=B, Kstar=[[1.0, 0.6], [0.7, 1.2]] if alloc != "dynamic" else np.eye(2))
        rep = stability_report(sys, alloc)
        assert rep.eigenvalues == eigenvalues
        assert rep.stable is (max(e.real for e in eigenvalues) < 0.0)


# an orthogonal matrix of halves: with the dyadic blocks below, HALVES @ M @
# HALVES.T is exact in floats, so each 4x4 loop has exactly its blocks' roots
HALVES = 0.5 * np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])
DELTA = 2.0**-40
# a double root at 0; roots -DELTA/2 +- i sqrt(DELTA - DELTA^2/4), just left of
# the axis; roots DELTA/2 +- i sqrt(3 DELTA - DELTA^2/4), just right of it
ON_AXIS = [[1.0, 1.0], [-1.0, -1.0]]
JUST_LEFT = [[1.0, 1.0], [-1.0 - 2 * DELTA, -1.0 - DELTA]]
JUST_RIGHT = [[1.0, 1.0], [-1.0 - 2 * DELTA, -1.0 + DELTA]]


def block_diag(first, second) -> np.ndarray:
    first, second = np.array(first), np.array(second)
    m = np.zeros((len(first) + len(second),) * 2)
    m[: len(first), : len(first)] = first
    m[len(first) :, len(first) :] = second
    return m


class TestExactStability:
    @pytest.mark.parametrize(
        "block, stable", [(ON_AXIS, False), (JUST_LEFT, True), (JUST_RIGHT, False)], ids=["on", "left", "right"]
    )
    @pytest.mark.parametrize("n", [3, 4])
    def test_roots_on_and_just_off_the_axis(self, n, block, stable):
        # LAPACK reads the double root at 0 as real parts -3.3e-17 (3x3) and
        # -1.1e-17 (4x4); the verdict is the exact one
        if n == 3:
            closed = block_diag(block, [[-1.0]])
        else:
            rest = [[-1.0, 0.5], [0.0, -2.0]]
            closed = HALVES @ block_diag(block, rest) @ HALVES.T
            assert np.array_equal(HALVES.T @ closed @ HALVES, block_diag(block, rest))
        sys = TeamLinearSystem(A=closed, B=np.zeros((n, n)), Kstar=np.eye(n))
        rep = stability_report(sys, "dynamic")
        assert rep.stable is stable
        assert rep.max_real_part == max(e.real for e in rep.eigenvalues)

    def test_agrees_with_lapack_away_from_the_axis(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 5)
            closed = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]) - rng.uniform(0, 4) * np.eye(n)
            max_re = max(np.linalg.eigvals(closed).real)
            if abs(max_re) > 1e-6:
                rep = stability_report(TeamLinearSystem(A=closed, B=np.zeros((n, n)), Kstar=np.eye(n)), "dynamic")
                assert rep.stable is bool(max_re < 0)
                checked += 1
        assert checked > 300


class TestRotationAction:
    def test_hand_worked_two_agent_phases(self):
        sys = TeamLinearSystem(A=np.zeros((2, 2)), B=np.eye(2), Kstar=[[1.0, 2.0], [3.0, 4.0]])
        s = np.array([1.0, 2.0])
        phase1 = rotation_action(sys, s, 1)
        phase2 = rotation_action(sys, s, 2)
        assert np.allclose(phase1, [1.0, -24.0])
        assert np.allclose(phase2, [-11.0, 2.0])
        assert np.allclose((phase1 + phase2) / 2.0, -np.asarray(sys.Kstar) @ s)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cycle_average_is_exact_for_constant_state(self, n):
        rng = np.random.default_rng(n)
        K = rng.uniform(-2, 2, size=(n, n))
        sys = TeamLinearSystem(A=np.zeros((n, n)), B=np.eye(n), Kstar=K)
        for _ in range(20):
            s = rng.uniform(-3, 3, size=n)
            total = np.zeros(n)
            for phase in range(1, n + 1):
                total += rotation_action(sys, s, phase)
            assert np.max(np.abs(total / n - (-K @ s))) < 1e-12

    def test_three_agent_phase_structure(self):
        # in each phase exactly one agent overshoots; the others reveal state
        K = np.eye(3) * 2.0
        sys = TeamLinearSystem(A=np.zeros((3, 3)), B=np.eye(3), Kstar=K)
        s = np.array([1.0, 2.0, 3.0])
        a_star = -K @ s
        out = rotation_action(sys, s, phase=1)
        corrector = 1  # phase 1 corrects the next agent in cyclic order
        for i in range(3):
            if i == corrector:
                assert out[i] == pytest.approx(a_star[i] + 2 * (a_star[i] - s[i]))
            else:
                assert out[i] == s[i]

    def test_phase_bounds(self):
        sys = TeamLinearSystem(A=np.zeros((2, 2)), B=np.eye(2), Kstar=np.eye(2))
        with pytest.raises(ValueError):
            rotation_action(sys, [1.0, 2.0], phase=3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linear_in_the_state(self, n):
        # the one-cycle deviation of rotation_converges rests on this
        rng = np.random.default_rng(20 + n)
        sys = TeamLinearSystem(A=np.zeros((n, n)), B=np.eye(n), Kstar=rng.uniform(-2, 2, size=(n, n)))
        for _ in range(10):
            s1, s2 = rng.uniform(-3, 3, size=n), rng.uniform(-3, 3, size=n)
            a, b = rng.uniform(-2, 2, size=2)
            for phase in range(1, n + 1):
                combined = rotation_action(sys, a * s1 + b * s2, phase)
                parts = a * rotation_action(sys, s1, phase) + b * rotation_action(sys, s2, phase)
                assert np.allclose(combined, parts, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "state, shape",
        [([1.0], r"\(1,\)"), ([1.0, 2.0, 3.0], r"\(3,\)"), ([[1.0, 2.0]], r"\(1, 2\)")],
        ids=["short", "long", "matrix"],
    )
    def test_rejects_state_of_wrong_shape(self, state, shape):
        sys = TeamLinearSystem(A=np.zeros((2, 2)), B=np.eye(2), Kstar=np.eye(2))
        with pytest.raises(ValueError, match=rf"^state must have shape \(2,\), got {shape}$"):
            rotation_action(sys, state, phase=1)


def per_cycle_loop(sys, horizon, dts, s0, drift):
    """(cycles, sup deviation) per dt, from every cycle of the horizon played
    from the state s0: the definition the one-cycle form must agree with."""
    n = sys.n
    for dt in dts:
        quotient = horizon / (n * dt)
        cycles = math.ceil(quotient)
        if cycles - quotient > 8 * math.ulp(quotient):
            cycles -= 1
        worst = 0.0
        for c in range(cycles):
            t0 = c * n * dt
            target = -sys.Kstar @ (s0 + drift * t0)
            total = sum(rotation_action(sys, s0 + drift * (t0 + k * dt), k + 1) for k in range(n))
            worst = max(worst, float(np.max(np.abs(total / n - target))))
        yield cycles, worst


class TestRotationConverges:
    def setup_method(self):
        self.sys = TeamLinearSystem(
            A=np.zeros((2, 2)), B=np.eye(2), Kstar=[[1.0, 2.0], [3.0, 4.0]]
        )

    def test_constant_state_zero_deviation(self):
        rows = rotation_converges(self.sys, horizon=2.0, dts=[0.1, 0.05, 0.025])
        assert all(r.sup_deviation == 0.0 for r in rows)

    def test_deviation_is_exactly_linear_under_halving_dt(self):
        # halving dt halves every product of the one cycle exactly
        dts = [0.2 / 2**k for k in range(6)]
        rows = rotation_converges(self.sys, horizon=4.0, dts=dts, drift=[0.3, 0.2])
        assert rows[0].sup_deviation > 0.0
        for prev, cur in zip(rows, rows[1:]):
            assert cur.sup_deviation == prev.sup_deviation / 2

    def test_hand_worked_two_agent_deviation(self):
        # phase 1 at s = 0 emits 0; phase 2 at s = drift*dt has agent 1 listen:
        # a1* = -(0.03 + 0.04) = -0.07, so it emits 2*a1* - 0.03 = -0.17, and
        # agent 2 reveals 0.02; the cycle mean is (-0.085, 0.01)
        rows = rotation_converges(self.sys, horizon=1.0, dts=[0.1], drift=[0.3, 0.2])
        assert rows[0].cycles == 5
        assert rows[0].sup_deviation == pytest.approx(0.085, rel=1e-12)

    def test_deviation_is_linear_in_the_drift(self):
        dts = [0.1, 0.05]
        base = rotation_converges(self.sys, horizon=2.0, dts=dts, drift=[0.3, -0.7])
        doubled = rotation_converges(self.sys, horizon=2.0, dts=dts, drift=[0.6, -1.4])
        negated = rotation_converges(self.sys, horizon=2.0, dts=dts, drift=[-0.3, 0.7])
        for row, twice, minus in zip(base, doubled, negated):
            assert twice.sup_deviation == 2 * row.sup_deviation
            assert minus.sup_deviation == row.sup_deviation

    def test_plant_matrices_do_not_enter(self):
        # the rotation averages actions; the plant A, B never enters them
        other = TeamLinearSystem(A=UNSTABLE_A, B=UNSTABLE_B, Kstar=self.sys.Kstar)
        kwargs = {"horizon": 2.0, "dts": [0.1, 0.05, 0.025], "drift": [0.3, 0.2]}
        assert rotation_converges(other, **kwargs) == rotation_converges(self.sys, **kwargs)

    def test_no_whole_cycle_deviates_zero(self):
        # a horizon shorter than n*dt holds no cycle, whatever the drift
        rows = rotation_converges(self.sys, horizon=0.15, dts=[0.1, 0.05], drift=[1e3, -1e3])
        assert (rows[0].cycles, rows[0].sup_deviation) == (0, 0.0)
        assert rows[1].cycles == 1 and rows[1].sup_deviation > 0.0

    @pytest.mark.parametrize(
        "n, horizon, dt, cycles",
        [(2, 0.3, 0.05, 3), (3, 0.3, 0.1, 1), (3, 0.29, 0.1, 0), (2, 0.3, 0.1, 1), (3, 0.6, 0.1, 2),
         (2, 1.7976931348623157e308, 0.5, int(1.7976931348623157e308))],
        ids=["n2_0.3_by_0.05", "n3_0.3_by_0.1", "n3_0.29_by_0.1", "n2_0.3_by_0.1", "n3_0.6_by_0.1", "largest_quotient"],
    )
    def test_counts_cycles_a_rounding_short_of_whole(self, n, horizon, dt, cycles):
        # 0.3 / (2 * 0.05) is 2.9999999999999996 and 0.3 / (3 * 0.1) is
        # 0.9999999999999999: each horizon holds its cycles exactly, and
        # counts them all; 0.29 holds no cycle of three 0.1 phases, and the
        # largest finite quotient is a whole number already
        sys = TeamLinearSystem(A=np.zeros((n, n)), B=np.eye(n), Kstar=np.arange(1.0, n * n + 1).reshape(n, n))
        (row,) = rotation_converges(sys, horizon=horizon, dts=[dt], drift=np.linspace(0.3, -0.2, n))
        assert row.cycles == cycles
        assert (row.sup_deviation > 0.0) == (cycles > 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_per_cycle_loop_for_every_start_state(self, n):
        rng = np.random.default_rng(40 + n)
        dts = [0.3, 0.1, 0.05, 0.013]
        for _ in range(4):
            sys = TeamLinearSystem(A=np.zeros((n, n)), B=np.eye(n), Kstar=rng.uniform(-2, 2, size=(n, n)))
            for drift in (rng.uniform(-1, 1, size=n), np.full(n, 5.0), np.zeros(n)):
                rows = rotation_converges(sys, horizon=2.0, dts=dts, drift=drift)
                for s0 in (np.ones(n), np.full(n, 1e3), np.full(n, -1e3), rng.uniform(-5, 5, size=n)):
                    # the loop subtracts actions of size |Kstar s0|, so it carries a
                    # rounding error of a few ulps of that, which one cycle does not
                    loop_rounding = 64 * np.finfo(float).eps * n * np.max(np.abs(sys.Kstar)) * np.max(np.abs(s0))
                    for row, (cycles, dev) in zip(rows, per_cycle_loop(sys, 2.0, dts, s0, drift)):
                        assert row.cycles == cycles
                        assert row.sup_deviation == pytest.approx(dev, rel=1e-11, abs=loop_rounding)

    def test_single_dt_single_row(self):
        rows = rotation_converges(self.sys, horizon=1.0, dts=[0.1], drift=[1.0, 0.0])
        assert len(rows) == 1
        assert rows[0].cycles == 5

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match=r"^every dt must be finite and > 0, got \[0.1, 0.0\]$"):
            rotation_converges(self.sys, horizon=1.0, dts=[0.1, 0.0])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dts": [math.inf]}, "every dt must be finite and > 0"),
            ({"dts": [math.nan]}, "every dt must be finite and > 0"),
            ({"dts": [0.1, -0.05]}, r"every dt must be finite and > 0, got \[0.1, -0.05\]"),
            ({"horizon": 0.0}, "horizon must be finite and > 0, got 0.0"),
            ({"horizon": -1.0}, "horizon must be finite and > 0"),
            ({"horizon": math.nan}, "horizon must be finite and > 0"),
            ({"horizon": math.inf}, "horizon must be finite and > 0"),
            ({"drift": [1.0, 2.0, 3.0]}, r"drift must be 2 finite values, got \[1.0, 2.0, 3.0\]"),
            ({"drift": [math.nan, math.nan]}, "drift must be 2 finite values"),
            ({"drift": [1.0]}, "drift must be 2 finite values"),
            ({"drift": 1.0}, "drift must be 2 finite values"),
            ({"drift": [math.inf, 0.0]}, "drift must be 2 finite values"),
            ({"drift": [[0.3, 0.2]]}, r"drift must be 2 finite values, got \[\[0.3, 0.2\]\]"),
            ({"dts": [0.1, 5e-324]}, r"horizon / \(n\*dt\) must be finite, got horizon 1.0 and dts \[0.1, 5e-324\]"),
            ({"horizon": 100.0, "dts": [10.0], "drift": [1e308, 1e308]},
             "the deviation at dt 10.0 is not finite, got inf"),
        ],
        ids=["inf_dt", "nan_dt", "negative_dt", "zero_horizon", "negative_horizon", "nan_horizon",
             "inf_horizon", "long_drift", "nan_drift", "short_drift", "scalar_drift", "inf_drift",
             "matrix_drift", "infinite_cycles", "overflowing_drift"],
    )
    def test_rejects_invalid_input(self, kwargs, message, recwarn):
        # a NaN drift once reported a zero deviation, and a scalar drift was
        # broadcast to every state; finite inputs that overflow raise, and warn of nothing
        with pytest.raises(ValueError, match=f"^{message}"):
            rotation_converges(self.sys, **{"horizon": 1.0, "dts": [0.1], **kwargs})
        assert [str(w.message) for w in recwarn] == []


class TestNoisyListenerAction:
    def test_zero_noise_is_centralized(self):
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = np.array([0.7, -0.2])
        out = noisy_listener_action(K, s, [0.0, 0.0])
        assert np.allclose(out, -K @ s)

    def test_propagated_terms_by_substitution(self):
        K = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = np.zeros(2)
        out = noisy_listener_action(K, s, [0.1, -0.2])
        # [K12/K22 * n2, K21/K11 * n1] = [2/4 * -0.2, 3/1 * 0.1]
        assert np.allclose(out, [-0.1, 0.3])

    def test_unbiased_noise_matches_centralized_in_expectation(self):
        K = np.array([[1.5, 0.8], [-0.6, 2.0]])
        s = np.array([0.4, -1.1])
        w1, w2 = 0.7, 1.3
        rng = Rng(99)
        n = 100_000
        acc = np.zeros(2)
        for _ in range(n):
            noise = (gaussian(rng, w1), gaussian(rng, w2))
            acc += noisy_listener_action(K, s, noise)
        mean = acc / n
        target = -K @ s
        sigma = np.array([abs(K[0, 1] / K[1, 1]) * w2, abs(K[1, 0] / K[0, 0]) * w1])
        bound = 4.0 * sigma / math.sqrt(n)
        assert np.all(np.abs(mean - target) <= bound)

    def test_zero_diagonal_raises(self):
        with pytest.raises(SingularGainError):
            noisy_listener_action([[0.0, 1.0], [1.0, 1.0]], [1.0, 1.0], [0.1, 0.1])


class TestOptimalVariances:
    def test_no_cross_gain_keeps_centralized_variance(self):
        pair = optimal_variances([[2.0, 0.5], [0.0, 1.0]], 0.9, 1.7, speaker=1)
        assert pair.sigma1_sq == pytest.approx(0.9)
        assert pair.sigma2_sq == pytest.approx(1.7)

    def test_unit_example(self):
        pair = optimal_variances([[1.0, 0.0], [1.0, 1.0]], 1.0, 1.0, speaker=1)
        assert pair.sigma1_sq == pytest.approx(0.5)
        assert pair.sigma2_sq == pytest.approx(1.0)

    def test_speaker_variance_never_exceeds_centralized(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            K = rng.uniform(-3, 3, size=(2, 2))
            if abs(K[0, 0]) < 1e-3:
                continue
            w1, w2 = rng.uniform(0.1, 4, size=2)
            pair = optimal_variances(K, w1, w2, speaker=1)
            assert pair.sigma1_sq <= w1 + 1e-12
            assert pair.sigma2_sq == w2
            if K[1, 0] == 0:
                assert pair.sigma1_sq == pytest.approx(w1)

    def test_speaker_two_mirror(self):
        # swapping agent labels must reduce speaker 2 to the speaker 1 formula
        K = np.array([[1.2, -0.7], [0.4, 2.0]])
        w1, w2 = 0.8, 1.5
        pair = optimal_variances(K, w1, w2, speaker=2)
        swapped = np.array([[K[1, 1], K[1, 0]], [K[0, 1], K[0, 0]]])
        mirror = optimal_variances(swapped, w2, w1, speaker=1)
        assert pair.sigma2_sq == pytest.approx(mirror.sigma1_sq)
        assert pair.sigma1_sq == pytest.approx(mirror.sigma2_sq)

    def test_zero_speaker_gain_raises(self):
        with pytest.raises(SingularGainError, match="^K11 must be nonzero when agent 1 speaks$"):
            optimal_variances([[0.0, 1.0], [1.0, 1.0]], 1.0, 1.0, speaker=1)
        with pytest.raises(SingularGainError, match="^K22 must be nonzero when agent 2 speaks$"):
            optimal_variances([[1.0, 1.0], [1.0, 0.0]], 1.0, 1.0, speaker=2)

    @pytest.mark.parametrize("speaker", [0, 3])
    def test_invalid_speaker_index(self, speaker):
        with pytest.raises(ValueError, match=f"^speaker index must be 1 or 2, got {speaker}$"):
            optimal_variances([[1.0, 0.0], [0.0, 1.0]], 1.0, 1.0, speaker=speaker)

    @pytest.mark.parametrize(
        "K, w1_sq, w2_sq, got",
        [
            ([[1.0, 0.0], [1.0, 1.0]], 1e308, 1e308, "nan"),
            ([[1.0, 0.0], [1.0, 1.0]], 1e200, 1e200, "inf"),
            ([[1.0, 0.0], [0.0, 1.0]], 1e-200, 1e-200, "0.0"),
        ],
        ids=["nan", "inf", "underflow"],
    )
    def test_speaker_variance_out_of_range_raises_and_warns_of_nothing(self, recwarn, K, w1_sq, w2_sq, got):
        # a NaN variance was once printed by analyze as the JSON-invalid NaN
        with pytest.raises(ValueError, match=f"^sigma1_sq must come out finite and > 0, got {got}$"):
            optimal_variances(K, w1_sq, w2_sq, speaker=1)
        assert [str(w.message) for w in recwarn] == []

    def test_bit_identical_to_each_speaker_formula(self):
        # each speaker's formula written out in its own operand order
        def speaker_1(k, w1_sq, w2_sq):
            return k[0, 0] ** 2 * w1_sq * w2_sq / (k[0, 0] ** 2 * w2_sq + k[1, 0] ** 2 * w1_sq), w2_sq

        def speaker_2(k, w1_sq, w2_sq):
            return w1_sq, k[1, 1] ** 2 * w1_sq * w2_sq / (k[1, 1] ** 2 * w1_sq + k[0, 1] ** 2 * w2_sq)

        rng = random.Random(19)
        cases = []
        for _ in range(500):
            k = np.array([[rng.uniform(-3, 3) * 10.0 ** rng.uniform(-4, 4) for _ in range(2)] for _ in range(2)])
            w1_sq, w2_sq = (10.0 ** rng.uniform(-4, 4) for _ in range(2))
            cases += [(k, w1_sq, w2_sq, speaker, formula) for speaker, formula in ((1, speaker_1), (2, speaker_2))]
        # numpy's scalar K22 ** 2 rounds as C's pow, one ulp from K22 * K22 here
        k = np.array([[2.085954771600872e136, 25.890005706104617], [1.5195383322768272e126, 4.94114785028231e-43]])
        cases.append((k, 103636.30193465206, 1.5732754145777626e289, 2, speaker_2))
        for k, w1_sq, w2_sq, speaker, formula in cases:
            got = optimal_variances(k, w1_sq, w2_sq, speaker=speaker)
            assert [float(v).hex() for v in got] == [float(v).hex() for v in formula(k, w1_sq, w2_sq)]


class TestExpectedKl:
    K = np.array([[1.0, 0.0], [0.0, 1.0]])

    def test_matched_variances_no_cross_terms(self):
        # both divergences reduce to 1/2 each when the variances match and
        # the gain has no cross terms
        val = expected_kl(self.K, 1.0, 1.0, 1.0, 1.0, sigma_s2_sq=0.0)
        assert val == pytest.approx(1.0)

    def test_grid_argmin_matches_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            K = rng.uniform(-2, 2, size=(2, 2))
            K[0, 0] = rng.uniform(0.5, 2.0)
            w1, w2 = rng.uniform(0.3, 2.0, size=2)
            pair = optimal_variances(K, w1, w2, speaker=1)
            grid1 = np.linspace(0.05 * w1, 1.5 * w1, 120)
            grid2 = np.linspace(0.05 * w2, 1.5 * w2, 120)
            best = None
            for s1 in grid1:
                for s2 in grid2:
                    v = expected_kl(K, s1, s2, w1, w2, 0.7)
                    if best is None or v < best[0]:
                        best = (v, s1, s2)
            cell1 = grid1[1] - grid1[0]
            cell2 = grid2[1] - grid2[0]
            assert abs(best[1] - pair.sigma1_sq) <= cell1
            assert abs(best[2] - pair.sigma2_sq) <= cell2

    def test_gradient_vanishes_at_optimum(self):
        K = np.array([[1.3, -0.4], [0.9, 1.8]])
        w1, w2 = 0.9, 1.4
        pair = optimal_variances(K, w1, w2, speaker=1)
        h = 1e-6
        for idx in (0, 1):
            args = [pair.sigma1_sq, pair.sigma2_sq]
            args[idx] += h
            up = expected_kl(K, args[0], args[1], w1, w2, 0.5)
            args[idx] -= 2 * h
            down = expected_kl(K, args[0], args[1], w1, w2, 0.5)
            assert abs((up - down) / (2 * h)) < 1e-4

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(15)
        K = np.array([[1.0, 0.5], [0.7, 1.0]])
        for _ in range(100):
            a = rng.uniform(0.05, 3.0, size=2)
            b = rng.uniform(0.05, 3.0, size=2)
            mid = 0.5 * (a + b)
            f = lambda p: expected_kl(K, p[0], p[1], 1.0, 1.0, 0.3)
            assert f(mid) <= 0.5 * (f(a) + f(b)) + 1e-12

    def test_gain_whose_square_overflows_reads_as_infinite(self, recwarn):
        # K11 ** 2 overflows, so the K21 term is 0 and the divergence 1/2 + 1/2
        assert expected_kl([[1e200, 0.0], [1.0, 1.0]], 1.0, 1.0, 1.0, 1.0, 0.0) == 1.0
        assert [str(w.message) for w in recwarn] == []

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match=r"^sigma1_sq must be finite and > 0, got 0.0$"):
            expected_kl(self.K, 0.0, 1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.inf, 1.0, 1.0, 1.0, 0.0), "sigma1_sq must be finite and > 0, got inf"),
            ((1.0, math.nan, 1.0, 1.0, 0.0), "sigma2_sq must be finite and > 0, got nan"),
            ((1.0, 1.0, math.inf, 1.0, 0.0), "w1_sq must be finite and > 0, got inf"),
            ((1.0, 1.0, 1.0, 1.0, -0.5), "sigma_s2_sq must be finite and >= 0, got -0.5"),
            ((1.0, 1.0, 1.0, 1.0, math.inf), "sigma_s2_sq must be finite and >= 0, got inf"),
        ],
        ids=["inf_sigma1", "nan_sigma2", "inf_w1", "negative_prior", "inf_prior"],
    )
    def test_rejects_non_finite_or_negative_variance(self, args, message):
        # an infinite variance once failed inside the logarithm with "math domain error"
        with pytest.raises(ValueError, match=f"^{message}$"):
            expected_kl(self.K, *args)

    @pytest.mark.parametrize(
        "K, args, message",
        [
            (K, (1e-300, 1e-300, 1.0, 1.0, 0.0), r"sigma1_sq \* sigma2_sq underflows to 0, got 1e-300 and 1e-300"),
            (K, (1.0, 1.0, 1e-200, 1e-200, 0.0), r"w1_sq \* w2_sq / \(sigma1_sq \* sigma2_sq\) underflows to 0"),
            ([[1.0, 1e200], [0.0, 1.0]], (1.0, 1.0, 1.0, 1.0, 1e200), "expected_kl is not finite, got inf"),
        ],
        ids=["zero_denominator", "zero_quotient", "infinite"],
    )
    def test_out_of_range_result_raises_and_warns_of_nothing(self, recwarn, K, args, message):
        # the first once ended in ZeroDivisionError, the last printed the JSON-invalid Infinity
        with pytest.raises(ValueError, match=f"^{message}$"):
            expected_kl(K, *args)
        assert [str(w.message) for w in recwarn] == []

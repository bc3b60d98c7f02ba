import math
import random

import numpy as np
import pytest

from rolecomms.errors import AnalysisError, SingularGainError
from rolecomms.linear_roles import (
    DynamicAlternating,
    SpeakerListener,
    SpeakerSpeaker,
    TeamLinearSystem,
    expected_kl,
    lqr_gain,
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
        out = role_gain([[1, 2], [3, 4]], SpeakerListener(1))
        assert np.array_equal(out, [[1, 0], [3, 4]])

    def test_speaker_two_masks_k21(self):
        out = role_gain([[1, 2], [3, 4]], SpeakerListener(2))
        assert np.array_equal(out, [[1, 2], [0, 4]])

    def test_speaker_speaker_masks_both(self):
        out = role_gain([[1, 2], [3, 4]], SpeakerSpeaker())
        assert np.array_equal(out, [[1, 0], [0, 4]])

    def test_diagonal_gain_unchanged(self):
        for alloc in (SpeakerSpeaker(), SpeakerListener(1), SpeakerListener(2)):
            assert np.array_equal(role_gain([[2, 0], [0, 5]], alloc), [[2, 0], [0, 5]])

    def test_dynamic_returns_full_gain(self):
        out = role_gain([[1, 2], [3, 4]], DynamicAlternating(dt=0.1))
        assert np.array_equal(out, [[1, 2], [3, 4]])

    def test_idempotent_and_preserves_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = rng.uniform(-5, 5, size=(2, 2))
            for alloc in (SpeakerSpeaker(), SpeakerListener(1), SpeakerListener(2)):
                once = role_gain(k, alloc)
                twice = role_gain(once, alloc)
                assert np.array_equal(once, twice)
                assert once[0, 0] == k[0, 0] and once[1, 1] == k[1, 1]

    def test_invalid_speaker_index(self):
        with pytest.raises(ValueError):
            SpeakerListener(3)


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
            rep = stability_report(unstable_system(K), SpeakerListener(1))
            assert not rep.stable
            assert rep.max_real_part >= 1.0 - 1e-9
            # cross-check the spectrum against an independent eigensolver
            closed = UNSTABLE_A - UNSTABLE_B @ role_gain(K, SpeakerListener(1))
            reference = sorted(np.linalg.eigvals(closed), key=lambda z: (z.real, z.imag))
            got = sorted(rep.eigenvalues, key=lambda z: (z.real, z.imag))
            for a, b in zip(got, reference):
                assert abs(a - b) < 1e-9

    def test_already_stable_plant(self):
        sys = TeamLinearSystem(A=-np.eye(2), B=np.eye(2), Kstar=np.zeros((2, 2)))
        rep = stability_report(sys, SpeakerListener(1))
        assert rep.stable
        assert rep.eigenvalues == (-1 + 0j, -1 + 0j)

    def test_dynamic_allocation_uses_full_gain(self):
        # with the full gain available the double-integrator plant is
        # stabilizable even though every fixed allocation fails
        K = np.array([[3.5, 4.0], [0.0, 0.0]])
        sys = TeamLinearSystem(A=UNSTABLE_A, B=UNSTABLE_B, Kstar=K)
        closed = UNSTABLE_A - UNSTABLE_B @ K
        assert max(e.real for e in np.linalg.eigvals(closed)) < 0
        rep = stability_report(sys, DynamicAlternating(dt=0.01))
        assert rep.stable

    def test_fixed_alloc_requires_2x2(self):
        sys = TeamLinearSystem(A=-np.eye(3), B=np.eye(3), Kstar=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            stability_report(sys, SpeakerSpeaker())


class TestRotationAction:
    def test_naive_equals_optimal_emits_optimal(self):
        sys = TeamLinearSystem(A=np.zeros((2, 2)), B=np.eye(2), Kstar=[[1.0, 2.0], [3.0, 4.0]])
        s = np.array([0.5, -1.5])
        a_star = -sys.Kstar @ s
        for phase in (1, 2):
            out = rotation_action(sys, s, phase, naive_actions=a_star)
            assert np.allclose(out, a_star, atol=1e-15)

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


class TestRotationConverges:
    def setup_method(self):
        self.sys = TeamLinearSystem(
            A=np.zeros((2, 2)), B=np.eye(2), Kstar=[[1.0, 2.0], [3.0, 4.0]]
        )

    def test_constant_state_zero_deviation(self):
        rows = rotation_converges(self.sys, horizon=2.0, dts=[0.1, 0.05, 0.025])
        assert all(r.sup_deviation == 0.0 for r in rows)

    def test_halving_ratio_near_one_half(self):
        dts = [0.2 / 2**k for k in range(6)]
        rows = rotation_converges(
            self.sys, horizon=4.0, dts=dts, s0=[1.0, -1.0], drift=[0.3, 0.2]
        )
        for prev, cur in zip(rows, rows[1:]):
            ratio = cur.sup_deviation / prev.sup_deviation
            assert 0.4 <= ratio <= 0.6

    def test_single_dt_single_row(self):
        rows = rotation_converges(self.sys, horizon=1.0, dts=[0.1], drift=[1.0, 0.0])
        assert len(rows) == 1
        assert rows[0].cycles == 5

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            rotation_converges(self.sys, horizon=1.0, dts=[0.1, 0.0])


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
            noise = (gaussian(rng, 0.0, w1), gaussian(rng, 0.0, w2))
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
        with pytest.raises(SingularGainError):
            optimal_variances([[0.0, 1.0], [1.0, 1.0]], 1.0, 1.0, speaker=1)


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

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            expected_kl(self.K, 0.0, 1.0, 1.0, 1.0, 0.0)


class TestLqrGain:
    def test_scalar_integrator(self):
        # A=0, B=1, Q=1, R=1: P solves -P^2 + 1 = 0, so K = 1
        K = lqr_gain([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert K[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_scalar_unstable_plant_free_state_cost(self):
        # A=1, B=1, Q=0, R=1: stabilizing P solves 2P - P^2 = 0, so K = 2
        K = lqr_gain([[1.0]], [[1.0]], [[0.0]], [[1.0]])
        assert K[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_closed_loop_stable_and_riccati_residual(self):
        # with B = R = I the returned gain equals P itself, so the Riccati
        # equation A^T P + P A - P P + Q = 0 can be checked directly
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            A = rng.uniform(-1, 1, size=(n, n))
            B = np.eye(n)
            Qh = rng.uniform(-1, 1, size=(n, n))
            Q = Qh @ Qh.T + 0.1 * np.eye(n)
            R = np.eye(n)
            K = lqr_gain(A, B, Q, R)
            eigs = np.linalg.eigvals(A - B @ K)
            assert max(e.real for e in eigs) < 0
            P = K
            residual = A.T @ P + P @ A - P @ P + Q
            assert np.max(np.abs(residual)) < 1e-8

    def test_single_input_plant(self):
        A = np.array([[0.0, 1.0], [0.5, -0.2]])
        B = np.array([[0.0], [1.0]])
        K = lqr_gain(A, B, np.eye(2), [[2.0]])
        assert K.shape == (1, 2)
        eigs = np.linalg.eigvals(A - B @ K)
        assert max(e.real for e in eigs) < 0

    def test_uncontrollable_raises(self):
        A = np.eye(2)
        B = np.array([[1.0], [0.0]])
        with pytest.raises(AnalysisError):
            lqr_gain(A, B, np.eye(2), [[1.0]])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            lqr_gain(np.zeros((5, 5)), np.eye(5), np.eye(5), np.eye(5))

import re

import numpy as np
import pytest

from rolecomms.discrete_roles import (
    interdependence_demo,
    listener_policy_exact,
    listener_posterior,
    speaker_policy_exact,
)
from rolecomms.errors import InconsistentObservationError


def random_centralized(rng, n_own, n_partner, n_actions):
    t = rng.random((n_own, n_partner, n_actions))
    return t / t.sum(axis=-1, keepdims=True)


def random_belief(rng, n):
    b = rng.random(n)
    return b / b.sum()


def brute_force_speaker(pi, belief, own_state):
    """Direct enumeration of sum_j pi[own, j, a] b[j]."""
    n_actions = pi.shape[2]
    out = np.zeros(n_actions)
    for a in range(n_actions):
        for j in range(len(belief)):
            out[a] += pi[own_state, j, a] * belief[j]
    return out / out.sum()


def brute_force_listener(pi, posterior, own_state):
    n_actions = pi.shape[2]
    out = np.zeros(n_actions)
    for a in range(n_actions):
        for i in range(len(posterior)):
            out[a] += pi[i, own_state, a] * posterior[i]
    return out / out.sum()


# a valid 2-state input of each kind, and the four ways it is made invalid;
# NaN fails both the sign test and the sum test, and once passed them both:
# speaker_policy_exact(pi, [nan, 1.0], 0) returned [nan nan]
_PI = np.full((2, 2, 2), 0.5)
_SPEAKER = np.array([[0.9, 0.1], [0.3, 0.7]])
_BELIEF = np.array([0.5, 0.5])
_BAD = {
    "ndim": (lambda t: t[..., None], r"must be \d-d, got \d-d"),
    "negative": (lambda t: t + np.where(np.arange(t.shape[-1]) == 0, -1.0, 1.0), "entries must be >= 0 and not NaN"),
    "row_sum": (lambda t: t * 0.9, "rows must sum to 1 within 1e-09"),
    "nan": (lambda t: np.where(np.arange(t.shape[-1]) == 0, np.nan, t), "entries must be >= 0 and not NaN"),
}
_CALLS = {
    "centralized": (lambda t: speaker_policy_exact(t, _BELIEF, 0), _PI, "centralized policy"),
    "speaker": (lambda t: listener_posterior(_BELIEF, 0, t), _SPEAKER, "speaker policy"),
    "belief": (lambda t: speaker_policy_exact(_PI, t, 0), _BELIEF, "belief"),
}


@pytest.mark.parametrize("bad", sorted(_BAD))
@pytest.mark.parametrize("table", sorted(_CALLS))
def test_every_input_distribution_is_checked(recwarn, table, bad):
    call, valid, name = _CALLS[table]
    change, message = _BAD[bad]
    call(valid)
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        call(change(valid))
    assert [str(w.message) for w in recwarn] == []


class TestSpeakerPolicy:
    def test_point_mass_belief_selects_row(self):
        rng = np.random.default_rng(0)
        pi = random_centralized(rng, 3, 4, 2)
        belief = np.array([0.0, 0.0, 1.0, 0.0])
        out = speaker_policy_exact(pi, belief, own_state=1)
        assert np.allclose(out, pi[1, 2])

    def test_uniform_belief_symmetric_table(self):
        # partner state flips which of two actions is deterministic
        pi = np.zeros((1, 2, 2))
        pi[0, 0, 0] = 1.0
        pi[0, 1, 1] = 1.0
        out = speaker_policy_exact(pi, [0.5, 0.5], own_state=0)
        assert np.allclose(out, [0.5, 0.5])

    def test_matches_enumeration(self):
        rng = np.random.default_rng(42)
        pi = random_centralized(rng, 2, 3, 4)
        belief = np.array([0.2, 0.3, 0.5])
        out = speaker_policy_exact(pi, belief, own_state=0)
        assert np.allclose(out, brute_force_speaker(pi, belief, 0), atol=1e-12)

    def test_linear_in_belief(self):
        rng = np.random.default_rng(1)
        pi = random_centralized(rng, 2, 5, 3)
        b1 = random_belief(rng, 5)
        b2 = random_belief(rng, 5)
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            mix = alpha * b1 + (1 - alpha) * b2
            lhs = speaker_policy_exact(pi, mix, 1)
            rhs = alpha * speaker_policy_exact(pi, b1, 1) + (1 - alpha) * speaker_policy_exact(
                pi, b2, 1
            )
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        pi = random_centralized(rng, 2, 3, 2)
        with pytest.raises(ValueError):
            speaker_policy_exact(pi, [0.5, 0.5], own_state=0)

    def test_output_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pi = random_centralized(rng, 3, 3, 3)
            b = random_belief(rng, 3)
            out = speaker_policy_exact(pi, b, 2)
            assert abs(out.sum() - 1.0) < 1e-9
            assert np.all(out >= 0)


class TestListenerPosterior:
    def test_injective_deterministic_speaker_inverts(self):
        speaker = np.eye(3)  # state i deterministically takes action i
        post = listener_posterior([1 / 3, 1 / 3, 1 / 3], 2, speaker)
        assert np.allclose(post, [0, 0, 1])

    def test_uninformative_speaker_returns_prior(self):
        speaker = np.full((4, 2), 0.5)
        prior = np.array([0.1, 0.2, 0.3, 0.4])
        post = listener_posterior(prior, 1, speaker)
        assert np.allclose(post, prior)

    def test_hand_bayes(self):
        # prior (0.5, 0.5), likelihoods (0.9, 0.3) -> posterior (0.75, 0.25)
        speaker = np.array([[0.9, 0.1], [0.3, 0.7]])
        post = listener_posterior([0.5, 0.5], 0, speaker)
        assert np.allclose(post, [0.75, 0.25])

    def test_impossible_action_raises(self):
        speaker = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InconsistentObservationError):
            listener_posterior([0.5, 0.5], 1, speaker)

    def test_zero_prior_mass_excluded(self):
        speaker = np.array([[0.5, 0.5], [0.2, 0.8]])
        post = listener_posterior([1.0, 0.0], 1, speaker)
        assert np.allclose(post, [1.0, 0.0])


class TestListenerPolicy:
    def test_point_mass_posterior(self):
        rng = np.random.default_rng(5)
        pi = random_centralized(rng, 4, 2, 3)
        out = listener_policy_exact(pi, [0, 0, 1, 0], own_state=1)
        assert np.allclose(out, pi[2, 1])

    def test_partner_independent_table(self):
        rng = np.random.default_rng(6)
        row = rng.random(3)
        row /= row.sum()
        pi = np.broadcast_to(row, (4, 2, 3)).copy()
        for posterior in ([0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]):
            out = listener_policy_exact(pi, posterior, own_state=0)
            assert np.allclose(out, row)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        pi = random_centralized(rng, 3, 2, 4)
        post = random_belief(rng, 3)
        out = listener_policy_exact(pi, post, own_state=1)
        assert np.allclose(out, brute_force_listener(pi, post, 1), atol=1e-12)

    def test_composition_recovers_centralized(self):
        # an injective deterministic speaker lets the listener reconstruct
        # the exact centralized action distribution at the true joint state
        rng = np.random.default_rng(8)
        n = 3
        speaker = np.eye(n)
        pi2 = random_centralized(rng, n, 2, 4)  # indexed (s1, s2, a2)
        for true_s1 in range(n):
            post = listener_posterior(np.full(n, 1.0 / n), true_s1, speaker)
            out = listener_policy_exact(pi2, post, own_state=1)
            assert np.allclose(out, pi2[true_s1, 1])


# each index once misread: -1 as the last state, True as a numpy mask, and
# 2 raised numpy's IndexError
_INDEX_CALLS = {
    "speaker_own_state": lambda i: speaker_policy_exact(_PI, _BELIEF, i),
    "listener_own_state": lambda i: listener_policy_exact(_PI, _BELIEF, i),
    "speaker_action": lambda i: listener_posterior(_BELIEF, i, _SPEAKER),
}


@pytest.mark.parametrize("call", _INDEX_CALLS.values(), ids=_INDEX_CALLS)
@pytest.mark.parametrize("index", [-1, True, 2], ids=["negative", "bool", "past_end"])
def test_an_index_outside_the_axis_is_refused(call, index):
    with pytest.raises(ValueError, match=r"must be an index in \[0, 2\), got " + re.escape(repr(index)) + "$"):
        call(index)


@pytest.mark.parametrize("call", _INDEX_CALLS.values(), ids=_INDEX_CALLS)
def test_a_numpy_integer_index_is_read(call):
    assert np.array_equal(call(np.int64(1)), call(1))


class TestInterdependence:
    def test_uncoupled_tables_converge_immediately(self):
        rng = np.random.default_rng(9)
        row1 = rng.random((2, 3))
        row1 /= row1.sum(axis=-1, keepdims=True)
        pi1 = np.repeat(row1[:, None, :], 2, axis=1)  # independent of s2
        row2 = rng.random((2, 4))
        row2 /= row2.sum(axis=-1, keepdims=True)
        pi2 = np.repeat(row2[None, :, :], 2, axis=0)  # independent of s1
        trace = interdependence_demo(pi1, pi2, [0.5, 0.5], [0.5, 0.5], iterations=5)
        assert all(c < 1e-12 for c in trace.changes[1:])

    def test_coupled_tables_keep_moving(self):
        rng = np.random.default_rng(0)
        pi1 = random_centralized(rng, 2, 2, 2)
        pi2 = random_centralized(rng, 2, 2, 2)
        trace = interdependence_demo(pi1, pi2, [0.6, 0.4], [0.5, 0.5], iterations=6)
        assert trace.changes[0] > 1e-3
        assert trace.changes[1] > 1e-3
        assert trace.changes[2] > 1e-5

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        pi1 = random_centralized(rng, 2, 2, 2)
        pi2 = random_centralized(rng, 2, 2, 2)
        t1 = interdependence_demo(pi1, pi2, [0.5, 0.5], [0.4, 0.6], iterations=4)
        t2 = interdependence_demo(pi1, pi2, [0.5, 0.5], [0.4, 0.6], iterations=4)
        assert t1.changes == t2.changes
        for a, b in zip(t1.policy1, t2.policy1):
            assert np.array_equal(a, b)

    def test_iterates_normalized(self):
        rng = np.random.default_rng(11)
        pi1 = random_centralized(rng, 3, 2, 2)
        pi2 = random_centralized(rng, 3, 2, 3)
        trace = interdependence_demo(pi1, pi2, random_belief(rng, 2), random_belief(rng, 3), 4)
        for it in trace.policy1 + trace.policy2:
            assert np.allclose(it.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(it >= 0)

    def test_requires_positive_iterations(self):
        rng = np.random.default_rng(12)
        pi = random_centralized(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            interdependence_demo(pi, pi, [0.5, 0.5], [0.5, 0.5], iterations=0)

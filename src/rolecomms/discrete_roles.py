"""Exact speaker/listener policies on finite state and action spaces.

A centralized policy is a table pi[s_own, s_partner, a] of action
probabilities. The speaker marginalizes the partner state out of the
centralized policy under its current belief; the listener first inverts the
partner's speaker policy through Bayes' rule, then marginalizes. History-mode
beliefs are handled by enumerating histories as super-states, so everything
here works on plain index axes.

Also included is a diagnostic for the role-free formulation, where both
policies condition on the partner's action: the alternating-substitution
iteration it induces is reported step by step without any convergence claim.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InconsistentObservationError

_NORM_TOL = 1e-9


def _distribution(table, ndim: int, name: str) -> np.ndarray:
    """`table` as a float array of `ndim` axes whose last axis holds
    probability distributions: entries >= 0 and sums within _NORM_TOL of 1.
    Each test is written to fail on NaN."""
    t = np.asarray(table, dtype=float)
    if t.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got {t.ndim}-d")
    if not np.all(t >= 0):
        raise ValueError(f"{name} entries must be >= 0 and not NaN")
    if not np.all(np.abs(t.sum(axis=-1) - 1.0) <= _NORM_TOL):
        raise ValueError(f"{name} rows must sum to 1 within {_NORM_TOL}")
    return t


def speaker_policy_exact(centralized, belief, own_state: int) -> np.ndarray:
    """Action distribution of a speaker: partner state marginalized under belief.

    Returns sum_j pi[own_state, j, :] * belief[j], normalized.
    """
    pi = _distribution(centralized, 3, "centralized policy")
    b = _distribution(belief, 1, "belief")
    if b.shape[0] != pi.shape[1]:
        raise ValueError(
            f"belief length {b.shape[0]} does not match partner-state axis {pi.shape[1]}"
        )
    mix = b @ pi[own_state]
    return mix / mix.sum()


def listener_posterior(prior, speaker_action: int, speaker_policy) -> np.ndarray:
    """Bayes update of the belief over the partner's state given its action.

    posterior(s) is proportional to speaker_policy[s, action] * prior(s).
    Raises InconsistentObservationError when the observed action has zero
    probability under every state the prior supports.
    """
    p = _distribution(prior, 1, "prior")
    pi = _distribution(speaker_policy, 2, "speaker policy")
    if p.shape[0] != pi.shape[0]:
        raise ValueError(f"prior length {p.shape[0]} does not match policy states {pi.shape[0]}")
    unnorm = pi[:, speaker_action] * p
    total = unnorm.sum()
    if total <= 0.0:
        raise InconsistentObservationError(
            f"action {speaker_action} is impossible under the speaker model and prior"
        )
    return unnorm / total


def listener_policy_exact(centralized, posterior, own_state: int) -> np.ndarray:
    """Action distribution of a listener given its posterior over the partner.

    The centralized table is indexed (partner_state, own_state, action) from
    the listener's point of view: returns
    sum_i pi[i, own_state, :] * posterior(i), normalized.
    """
    pi = _distribution(centralized, 3, "centralized policy")
    post = _distribution(posterior, 1, "posterior")
    if post.shape[0] != pi.shape[0]:
        raise ValueError(
            f"posterior length {post.shape[0]} does not match partner-state axis {pi.shape[0]}"
        )
    mix = post @ pi[:, own_state, :]
    return mix / mix.sum()


class InterdependenceTrace(NamedTuple):
    """Per-iteration iterates and total-variation changes of the role-free
    fixed-point iteration. Diagnostic only: no convergence is claimed."""

    policy1: tuple[np.ndarray, ...]  # each shape (S1, A2, A1)
    policy2: tuple[np.ndarray, ...]  # each shape (S2, A1, A2)
    changes: tuple[float, ...]  # max TV distance per iteration


def interdependence_demo(
    centralized1,
    centralized2,
    prior_s2,
    prior_s1,
    iterations: int,
) -> InterdependenceTrace:
    """Run the alternating-substitution iteration of the role-free policies.

    Without roles, agent 1's policy conditions on agent 2's action and vice
    versa, so each update needs the other's current iterate:

        pi1(a1 | s1, a2)  ~  sum_s2 pi1*(a1 | s1, s2) pi2(a2 | s2, a1) P(s2)
        pi2(a2 | s2, a1)  ~  sum_s1 pi2*(a2 | s1, s2) pi1(a1 | s1, a2) P(s1)

    Starting from uniform pi2, the policies are substituted alternately for
    the requested number of iterations. Reported change k is the maximum
    total-variation distance between iterates k and k-1 across both agents
    and all conditioning slots.
    """
    if iterations < 1:
        raise ValueError("iteration cap must be >= 1")
    pi1_star = _distribution(centralized1, 3, "centralized1")  # (S1, S2, A1)
    pi2_star = _distribution(centralized2, 3, "centralized2")  # (S1, S2, A2), indexed (s1, s2, a2)
    p2 = _distribution(prior_s2, 1, "prior_s2")
    p1 = _distribution(prior_s1, 1, "prior_s1")
    n_s1, n_s2, n_a1 = pi1_star.shape
    n_a2 = pi2_star.shape[2]

    pi1 = np.full((n_s1, n_a2, n_a1), 1.0 / n_a1)
    pi2 = np.full((n_s2, n_a1, n_a2), 1.0 / n_a2)
    iter1 = [pi1]
    iter2 = [pi2]
    changes: list[float] = []
    for _ in range(iterations):
        # new1[s1, a2, a1] ~ sum_s2 pi1*(a1|s1,s2) pi2(a2|s2,a1) P(s2)
        new1 = np.einsum("ijk,jkm,j->imk", pi1_star, iter2[-1], p2)
        new1 = _normalize_rows(new1)
        # new2[s2, a1, a2] ~ sum_s1 pi2*(a2|s1,s2) pi1(a1|s1,a2) P(s1)
        new2 = np.einsum("ijm,imk,i->jkm", pi2_star, new1, p1)
        new2 = _normalize_rows(new2)
        tv1 = 0.5 * float(np.abs(new1 - iter1[-1]).sum(axis=-1).max())
        tv2 = 0.5 * float(np.abs(new2 - iter2[-1]).sum(axis=-1).max())
        changes.append(max(tv1, tv2))
        iter1.append(new1)
        iter2.append(new2)
    return InterdependenceTrace(tuple(iter1), tuple(iter2), tuple(changes))


def _normalize_rows(t: np.ndarray) -> np.ndarray:
    """Normalize the last axis; zero rows fall back to uniform (diagnostic use)."""
    sums = t.sum(axis=-1, keepdims=True)
    uniform = np.full_like(t, 1.0 / t.shape[-1])
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(sums > 0.0, t / np.where(sums > 0.0, sums, 1.0), uniform)
    return out

"""Acceptance suite: every shipping criterion, one verdict line per criterion.

The linear-feedback results are certified analytically at fixed tolerances;
the table-carrying trends run the three committed benchmark configs at full
scale (1000 paired games per condition) and re-run them at a second worker
count to pin byte-level determinism. Expect a few minutes of wall time.

Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines.
"""

import hashlib
import json
import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rolecomms import __version__
from rolecomms.bench import (
    Condition,
    compare_conditions,
    config_from_dict,
    report_csv,
    report_json,
    run_benchmark,
)
from rolecomms.linear_roles import (
    TeamLinearSystem,
    expected_kl,
    noisy_listener_action,
    optimal_variances,
    rotation_action,
    rotation_converges,
    stability_report,
)
from rolecomms.numerics import Rng, gaussian
from rolecomms.potential_field import FieldParams, agent_velocity
from rolecomms.table_sim import infer_obstacle

UNSTABLE_A = np.array([[1.0, 1.0], [0.0, 1.0]])
UNSTABLE_B = np.array([[0.0, 0.0], [1.0, 0.0]])


def verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2}: {state} - {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


# ---------------------------------------------------------------------------
# benchmark fixtures (shared by criteria 7-11)


def _load_config(config_dir, name):
    return config_from_dict(json.loads((config_dir / name).read_text()))


def _run_twice(config):
    """Run a config at two worker counts; return report plus both byte forms.

    The 1-worker run plays in a background process while the 2-worker run
    plays in the foreground, so that neither leaves a core idle.
    """
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        background = pool.submit(run_benchmark, config, workers=1)
        second = run_benchmark(config, workers=2)
        first = background.result()
    return {
        "report": first,
        "w1_json": report_json(first),
        "w1_csv": report_csv(first),
        "w2_json": report_json(second),
        "w2_csv": report_csv(second),
    }


@pytest.fixture(scope="session")
def table1_runs(config_dir):
    return _run_twice(_load_config(config_dir, "table1.json"))


@pytest.fixture(scope="session")
def fig3_runs(config_dir):
    return _run_twice(_load_config(config_dir, "fig3.json"))


@pytest.fixture(scope="session")
def noise_runs(config_dir):
    return _run_twice(_load_config(config_dir, "noise.json"))


# ---------------------------------------------------------------------------
# criterion 1: fixed speaker-listener roles destabilize the example plant


def test_criterion_1_fixed_roles_unstable():
    start = time.perf_counter()
    rng = Rng(1)
    worst = math.inf
    for _ in range(1000):
        k11 = -10.0 + 20.0 * rng.uniform()
        k21 = -10.0 + 20.0 * rng.uniform()
        k22 = -10.0 + 20.0 * rng.uniform()
        sys = TeamLinearSystem(
            A=UNSTABLE_A, B=UNSTABLE_B, Kstar=np.array([[k11, 0.0], [k21, k22]])
        )
        rep = stability_report(sys, "speaker_listener_1")
        worst = min(worst, rep.max_real_part)
        if rep.stable:
            break
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "fixed speaker-listener roles are unstable for 10^3 random gains",
        worst >= 1.0 - 1e-9 and elapsed < 1.0,
        f"min of max real parts = {worst:.12f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: rotation phase average recovers the centralized action


def test_criterion_2_rotation_certification():
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        K = rng.uniform(-2.0, 2.0, size=(n, n))
        sys = TeamLinearSystem(A=np.zeros((n, n)), B=np.eye(n), Kstar=K)
        for _ in range(50):
            s = rng.uniform(-3.0, 3.0, size=n)
            total = np.zeros(n)
            for phase in range(1, n + 1):
                total += rotation_action(sys, s, phase)
            worst = max(worst, float(np.max(np.abs(total / n - (-K @ s)))))
    exact_ok = worst < 1e-12

    sys2 = TeamLinearSystem(
        A=np.zeros((2, 2)), B=np.eye(2), Kstar=np.array([[1.0, 2.0], [3.0, 4.0]])
    )
    dts = [0.2 / 2**k for k in range(6)]
    rows = rotation_converges(sys2, horizon=4.0, dts=dts, drift=[0.3, 0.2])
    ratios = [b.sup_deviation / a.sup_deviation for a, b in zip(rows, rows[1:])]
    ratio_ok = all(0.4 <= r <= 0.6 for r in ratios)
    elapsed = time.perf_counter() - start
    verdict(
        2,
        "rotation average is exact for constant states and O(dt) when drifting",
        exact_ok and ratio_ok and elapsed < 5.0,
        f"max exact dev = {worst:.2e}, halving ratios = {[round(r, 3) for r in ratios]}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: unbiased observation noise leaves the mean action centralized


def test_criterion_3_noise_expectation():
    start = time.perf_counter()
    K = np.array([[1.5, 0.8], [-0.6, 2.0]])
    s = np.array([0.4, -1.1])
    w1, w2 = 0.7, 1.3
    # exact structure vs direct substitution on deterministic draws
    structure_ok = True
    for n1, n2 in ((0.3, -0.4), (1.0, 2.0), (-0.05, 0.01)):
        got = noisy_listener_action(K, s, [n1, n2])
        expected = -K @ s + np.array([K[0, 1] / K[1, 1] * n2, K[1, 0] / K[0, 0] * n1])
        structure_ok = structure_ok and np.allclose(got, expected, atol=0)

    rng = Rng(3)
    n = 100_000
    acc = np.zeros(2)
    for _ in range(n):
        noise = (gaussian(rng, w1), gaussian(rng, w2))
        acc += noisy_listener_action(K, s, noise)
    mean = acc / n
    sigma = np.array([abs(K[0, 1] / K[1, 1]) * w2, abs(K[1, 0] / K[0, 0]) * w1])
    bound = 4.0 * sigma / math.sqrt(n)
    deviation = np.abs(mean - (-K @ s))
    mean_ok = bool(np.all(deviation <= bound))
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "10^5-sample mean action under unbiased noise matches the centralized action",
        structure_ok and mean_ok and elapsed < 5.0,
        f"deviation = {deviation.round(6).tolist()}, bound = {bound.round(6).tolist()}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: closed-form variances beat a brute-force grid search


def test_criterion_4_optimal_variances():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    all_ok = True
    detail = ""
    for draw in range(20):
        K = rng.uniform(-2.0, 2.0, size=(2, 2))
        K[0, 0] = rng.uniform(0.4, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        w1, w2 = rng.uniform(0.3, 2.0, size=2)
        sigma_s2 = rng.uniform(0.0, 1.0)
        pair = optimal_variances(K, w1, w2, speaker=1)
        if pair.sigma1_sq > w1 + 1e-12:
            all_ok = False
            detail = f"draw {draw}: speaker variance exceeds centralized"
            break
        grid1 = np.linspace(0.02 * w1, 1.4 * w1, 200)
        grid2 = np.linspace(0.02 * w2, 1.4 * w2, 200)
        best = (math.inf, None, None)
        for s1 in grid1:
            for s2 in grid2:
                v = expected_kl(K, s1, s2, w1, w2, sigma_s2)
                if v < best[0]:
                    best = (v, s1, s2)
        cell1 = grid1[1] - grid1[0]
        cell2 = grid2[1] - grid2[0]
        if abs(best[1] - pair.sigma1_sq) > cell1 or abs(best[2] - pair.sigma2_sq) > cell2:
            all_ok = False
            detail = f"draw {draw}: grid argmin off by more than one cell"
            break
        h = 1e-6
        g1 = (
            expected_kl(K, pair.sigma1_sq + h, pair.sigma2_sq, w1, w2, sigma_s2)
            - expected_kl(K, pair.sigma1_sq - h, pair.sigma2_sq, w1, w2, sigma_s2)
        ) / (2 * h)
        g2 = (
            expected_kl(K, pair.sigma1_sq, pair.sigma2_sq + h, w1, w2, sigma_s2)
            - expected_kl(K, pair.sigma1_sq, pair.sigma2_sq - h, w1, w2, sigma_s2)
        ) / (2 * h)
        if abs(g1) >= 1e-4 or abs(g2) >= 1e-4:
            all_ok = False
            detail = f"draw {draw}: gradient at optimum = ({g1:.2e}, {g2:.2e})"
            break
    elapsed = time.perf_counter() - start
    verdict(
        4,
        "optimal variances match 200x200 grid argmin with vanishing gradient, 20 draws",
        all_ok and elapsed < 10.0,
        detail or f"{elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: exact role policies match brute-force enumeration


def test_criterion_5_discrete_oracle_equivalence():
    from rolecomms.discrete_roles import (
        listener_policy_exact,
        listener_posterior,
        speaker_policy_exact,
    )

    rng = np.random.default_rng(5)
    worst_tv = 0.0
    for _ in range(100):
        n1 = int(rng.integers(2, 7))
        n2 = int(rng.integers(2, 7))
        na = int(rng.integers(2, 5))
        pi1 = rng.random((n1, n2, na))
        pi1 /= pi1.sum(axis=-1, keepdims=True)
        pi2 = rng.random((n1, n2, na))
        pi2 /= pi2.sum(axis=-1, keepdims=True)
        belief = rng.random(n2)
        belief /= belief.sum()
        own1 = int(rng.integers(0, n1))
        got = speaker_policy_exact(pi1, belief, own1)
        ref = np.zeros(na)
        for a in range(na):
            for j in range(n2):
                ref[a] += pi1[own1, j, a] * belief[j]
        ref /= ref.sum()
        worst_tv = max(worst_tv, 0.5 * float(np.abs(got - ref).sum()))

        speaker_form = rng.random((n1, na))
        speaker_form /= speaker_form.sum(axis=-1, keepdims=True)
        prior = rng.random(n1)
        prior /= prior.sum()
        action = int(rng.integers(0, na))
        post = listener_posterior(prior, action, speaker_form)
        ref_post = speaker_form[:, action] * prior
        ref_post = ref_post / ref_post.sum()
        worst_tv = max(worst_tv, 0.5 * float(np.abs(post - ref_post).sum()))

        own2 = int(rng.integers(0, n2))
        got2 = listener_policy_exact(pi2, post, own2)
        ref2 = np.zeros(na)
        for a in range(na):
            for i in range(n1):
                ref2[a] += pi2[i, own2, a] * post[i]
        ref2 /= ref2.sum()
        worst_tv = max(worst_tv, 0.5 * float(np.abs(got2 - ref2).sum()))
    verdict(
        5,
        "speaker/listener policies match enumeration on 100 random instances",
        worst_tv < 1e-10,
        f"max TV distance = {worst_tv:.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 6: velocity inversion recovers obstacle centers


def test_criterion_6_inference_round_trip():
    params = FieldParams(w_att=1.0, w_rep=0.45, w_v=0.125, rho0=2.0)
    goal = (10.0, 0.0)
    radius = 0.5
    tol = 1e-12
    rng = random.Random(6)
    worst = 0.0
    for _ in range(100):
        q = (rng.uniform(0.0, 8.0), rng.uniform(-2.0, 2.0))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rho = rng.uniform(0.02, params.rho0 * 0.99)
        center = (
            q[0] + (rho + radius) * math.cos(angle),
            q[1] + (rho + radius) * math.sin(angle),
        )
        velocity = agent_velocity(q[0], q[1], goal[0], goal[1], [(center[0], center[1], radius)],
                                  params.w_att, params.w_rep, params.w_v, params.rho0)
        got = infer_obstacle(velocity, q, goal, params, radius, tol=tol)
        assert got is not None
        worst = max(worst, math.dist(got[:2], center))
    verdict(
        6,
        "noise-free obstacle recovery on 100 placements inside the field range",
        worst < 10.0 * tol,
        f"max center error = {worst:.2e}, bound = {10 * tol:.0e}",
    )


# ---------------------------------------------------------------------------
# criteria 7-10: committed benchmark trends


LADDER = (("dynamic", 1), ("dynamic", 4), ("speaker_listener", 0), ("dynamic", 16),
          ("speaker_speaker", 0))


def _cond(strategy, T, n, geometry="known", cv=0.0):
    return Condition(strategy=strategy, T=T, n=n, geometry=geometry, cv=cv)


def test_criterion_7_table1_trends(table1_runs):
    start = time.perf_counter()
    report = table1_runs["report"]
    problems = []
    for n in (2, 4, 8):
        lams = {}
        for strategy, T in LADDER:
            lams[(strategy, T)] = report.result_for(_cond(strategy, T, n)).lambda_
        for (sa, ta), (sb, tb) in zip(LADDER, LADDER[1:]):
            cmp = compare_conditions(report, _cond(sa, ta, n), _cond(sb, tb, n))
            if cmp.delta_lambda <= 0 or cmp.p_value >= 0.05:
                problems.append(
                    f"n={n} {sa}(T={ta}) vs {sb}(T={tb}): delta={cmp.delta_lambda:+.3f} p={cmp.p_value:.3g}"
                )
    lam_t1_n2 = report.result_for(_cond("dynamic", 1, 2)).lambda_
    if lam_t1_n2 < 0.9:
        problems.append(f"lambda(T=1, n=2) = {lam_t1_n2:.3f} < 0.9")
    for strategy, T in LADDER:
        lams = [report.result_for(_cond(strategy, T, n)).lambda_ for n in (2, 4, 8)]
        if not (lams[0] >= lams[1] >= lams[2]):
            problems.append(f"{strategy}(T={T}) not monotone in n: {lams}")
    elapsed = time.perf_counter() - start
    verdict(
        7,
        "success-rate ladder T1 > T4 > static S-L > T16 > static S-S holds with significance",
        not problems,
        "; ".join(problems) or f"lambda(T1,n=2)={lam_t1_n2:.3f}, checks {elapsed:.1f}s",
    )


def test_criterion_8_explicit_vs_dynamic_spectrum(fig3_runs):
    report = fig3_runs["report"]
    problems = []
    gaps = []
    for n in (2, 4, 8):
        for T in (1, 4, 16):
            le = report.result_for(_cond("explicit", T, n, "unknown")).lambda_
            ld = report.result_for(_cond("dynamic", T, n, "unknown")).lambda_
            gap = le - ld
            gaps.append(round(gap, 3))
            if gap < 0:
                problems.append(f"n={n} T={T}: explicit below dynamic ({le:.3f} < {ld:.3f})")
            if gap > 0.15:
                problems.append(f"n={n} T={T}: gap {gap:.3f} > 0.15")
    verdict(
        8,
        "explicit stays above dynamic roles at equal period, within 0.15",
        not problems,
        "; ".join(problems) or f"gaps = {gaps}",
    )


def test_criterion_9_noise_robustness(noise_runs):
    report = noise_runs["report"]
    problems = []
    for n in (2, 4, 8):
        le = report.result_for(_cond("explicit", 0, n, "known", 0.1)).lambda_
        ld = report.result_for(_cond("dynamic", 1, n, "known", 0.1)).lambda_
        if abs(le - ld) > 0.15:
            problems.append(f"n={n}: |explicit - dynamic| = {abs(le - ld):.3f} > 0.15 at cv=0.1")
    for strategy, T in (("explicit", 0), ("dynamic", 1)):
        for n in (2, 4, 8):
            for cv_low, cv_high in ((0.001, 0.01), (0.01, 0.1)):
                low = report.result_for(_cond(strategy, T, n, "known", cv_low))
                high = report.result_for(_cond(strategy, T, n, "known", cv_high))
                if high.lambda_ > low.lambda_:
                    cmp = compare_conditions(
                        report,
                        _cond(strategy, T, n, "known", cv_high),
                        _cond(strategy, T, n, "known", cv_low),
                    )
                    if cmp.p_value < 0.05:
                        problems.append(
                            f"{strategy} n={n}: lambda rises {cv_low}->{cv_high} "
                            f"significantly (p={cmp.p_value:.3g})"
                        )
    verdict(
        9,
        "at cv=0.1 dynamic T=1 tracks realtime explicit; lambda non-increasing in cv",
        not problems,
        "; ".join(problems) or "all noise checks hold",
    )


def test_criterion_10_failure_lengths(table1_runs):
    report = table1_runs["report"]
    problems = []
    means = {}
    for n in (2, 4, 8):
        per_strategy = {}
        for strategy, T in LADDER:
            fm = report.result_for(_cond(strategy, T, n)).failure_mean_steps
            per_strategy[(strategy, T)] = fm
        t1 = per_strategy[("dynamic", 1)]
        means[n] = {k: (None if v is None else round(v, 1)) for k, v in per_strategy.items()}
        if t1 is None:
            problems.append(f"n={n}: dynamic T=1 had no failures")
            continue
        for key, fm in per_strategy.items():
            if fm is not None and fm > t1:
                problems.append(f"n={n}: {key} failures longer than T=1 ({fm:.1f} > {t1:.1f})")
    verdict(
        10,
        "dynamic T=1 failures are the longest games at every obstacle count",
        not problems,
        "; ".join(problems) or f"failure means = {means}",
    )


def test_criterion_11_byte_identical_reports(table1_runs, fig3_runs, noise_runs, golden_dir):
    problems = []
    digests = {}
    for name, runs in (("table1", table1_runs), ("fig3", fig3_runs), ("noise", noise_runs)):
        if runs["w1_json"] != runs["w2_json"]:
            problems.append(f"{name}: JSON differs across worker counts")
        if runs["w1_csv"] != runs["w2_csv"]:
            problems.append(f"{name}: CSV differs across worker counts")
        digests[name] = {
            "report.json": hashlib.sha256(runs["w1_json"].encode()).hexdigest(),
            "report.csv": hashlib.sha256(runs["w1_csv"].encode()).hexdigest(),
        }
    # the digests of the reports rolecomms.__version__ writes: a change to
    # any outcome must bump the version and re-record them in the same change
    pinned = json.loads((golden_dir / "full_reports.json").read_text())
    record = {"version": __version__, "reports": digests}
    if record != pinned:
        if __version__ == pinned["version"]:
            why = f"report digests changed but __version__ is still {__version__}"
        else:
            why = f"__version__ is {__version__} but the digests are pinned for {pinned['version']}"
        problems.append(
            f"{why}; a declared semantic change bumps __version__ and records in"
            f" tests/golden/full_reports.json: {json.dumps(record, sort_keys=True)}"
        )
    verdict(
        11,
        "full benchmark reports are byte-identical at any worker count and match the pinned digests",
        not problems,
        "; ".join(problems) or f"three configs, workers 1 vs 2, digests pinned for {__version__}",
    )

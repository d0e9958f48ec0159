"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is a few minutes of wall time on one core.
"""

import math
import os
import time

import numpy as np
import pytest

from glmbandit.design import DesignState
from glmbandit.harness import (
    ExperimentSpec,
    build_environment,
    emit_csv,
    resolve_policy_config,
    run_experiment,
    simulate,
)
from glmbandit.links import IDENTITY, LOGISTIC, compute_kappa, get_link
from glmbandit.policies import make_policy
from glmbandit.validation import (
    lemma4_event_coverage,
    probe_directions,
    proposition1_growth,
    run_ucb_glm_instrumented,
    theorem1_coverage,
    width_sum_check,
)
from glmbandit import rng as streams

from oracles import (
    SupCbRounds,
    consistency_error,
    grad_ascent_mle,
    partition_ok,
    random_logistic_instance,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def lemma4_runs():
    # Shared by criteria 4 and 5: 200 instrumented UCB-GLM replications.
    return run_ucb_glm_instrumented(
        LOGISTIC, 3, 5, 2000, delta=0.05, sigma=None, replications=200,
        noise="bernoulli", master_seed=404,
    )


def test_criterion_1_mle_oracle_equivalence():
    started = time.monotonic()
    gen = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        xs, ys, fit = random_logistic_instance(LOGISTIC, gen)
        oracle = grad_ascent_mle(LOGISTIC, xs, ys)
        worst = max(worst, float(np.abs(fit.theta - oracle).max()))
    elapsed = time.monotonic() - started
    report(
        "criterion 1 (MLE matches gradient-ascent oracle, 100 instances)",
        worst <= 1e-6 and elapsed < 30.0,
        f"max sup-norm gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_sherman_morrison_consistency():
    gen = np.random.default_rng(1002)
    state = DesignState(10)
    for _ in range(20):
        z = gen.standard_normal(10)
        state.update(z / max(np.linalg.norm(z), 1.0), gen.random())
    state.inverse()
    for _ in range(10_000):
        z = gen.standard_normal(10)
        z = z / np.linalg.norm(z) * gen.random() ** (1 / 10)
        state.update(z, gen.random())
    err = float(np.abs(state.V @ state.inverse() - np.eye(10)).max())
    direct = float(np.abs(state.inverse() - np.linalg.inv(state.V)).max())

    drifted = DesignState(4)
    for _ in range(10):
        drifted.update(gen.standard_normal(4) / 2.0, 0.0)
    drifted.inverse()
    drifted._v_inv += 1e-5
    bad = consistency_error(drifted)
    for _ in range(200):
        drifted.update(gen.standard_normal(4) / 2.0, 0.0)
    repaired = consistency_error(drifted)
    report(
        "criterion 2 (inverse consistency over 10^4 rank-one updates)",
        err <= 1e-8 and direct <= 1e-8 and bad > 1e-8 and repaired <= 1e-10,
        f"identity error {err:.2e}, vs direct {direct:.2e}, drift {bad:.2e} -> {repaired:.2e}",
    )


def test_criterion_3_directional_coverage():
    started = time.monotonic()
    rep = theorem1_coverage(
        IDENTITY, 3, 2000, sigma=0.1, delta=0.05,
        directions=probe_directions(3, 100, master_seed=303),
        replications=1000, master_seed=303,
    )
    elapsed = time.monotonic() - started
    floor = rep.nominal - 3.0 * rep.binomial_stderr
    report(
        "criterion 3 (directional confidence coverage, 1000 reps)",
        rep.empirical_coverage >= floor and elapsed < 300.0 and rep.condition_satisfied,
        f"coverage {rep.empirical_coverage:.3f} >= {floor:.3f}, {elapsed:.0f}s",
    )


def test_criterion_4_estimate_ellipsoid_coverage(lemma4_runs):
    kappa = compute_kappa(LOGISTIC, 1.0)
    rep = lemma4_event_coverage(lemma4_runs, sigma=0.5, kappa=kappa, delta=0.05)
    floor = rep.nominal - 3.0 * rep.binomial_stderr
    report(
        "criterion 4 (all-rounds ellipsoid coverage, 200 reps)",
        rep.empirical_coverage >= floor and rep.replications >= 200,
        f"coverage {rep.empirical_coverage:.3f} >= {floor:.3f} on {rep.replications} reps",
    )


def test_criterion_5_width_sum_inequality(lemma4_runs):
    ws = width_sum_check(lemma4_runs)
    report(
        "criterion 5 (width-sum inequality on logged runs)",
        ws.runs_checked >= 50 and ws.violations == 0,
        f"{ws.runs_checked} runs checked, {ws.violations} violations",
    )


def test_criterion_6_sublinear_regret():
    started = time.monotonic()
    spec = ExperimentSpec.from_dict(
        dict(
            T=10_000, d=5, K=10, link="logistic", noise="bernoulli",
            algorithms=["ucb-glm", "uniform"], replications=20,
            master_seed=606, record_every=100,
        )
    )
    cfg = resolve_policy_config(spec, "ucb-glm")
    result = run_experiment(spec)
    elapsed = time.monotonic() - started
    ts = result.summary.ts
    ucb = result.summary.stats["ucb-glm"]["mean"]
    uniform = result.summary.stats["uniform"]["mean"]
    i1k = int(np.searchsorted(ts, 1000))
    assert ts[i1k] == 1000
    rate_early = float(ucb[i1k]) / 1000.0
    rate_final = float(ucb[-1]) / spec.T
    link = get_link(spec.link)
    bound = cfg.tau + (
        2.0 * link.lipschitz_bound * cfg.sigma * spec.d / cfg.kappa
    ) * math.log(spec.T / (spec.d * cfg.delta)) * math.sqrt(spec.T)
    ok_a = rate_final < 0.5 * rate_early
    ok_b = float(ucb[-1]) < float(uniform[-1]) / 3.0
    ok_c = float(ucb[-1]) < bound
    report(
        "criterion 6 (sublinear regret, 20 seeds)",
        ok_a and ok_b and ok_c and elapsed < 600.0,
        f"R/t {rate_early:.4f}->{rate_final:.4f}, R_T {ucb[-1]:.0f} vs uniform "
        f"{uniform[-1]:.0f} and bound {bound:.0f}, {elapsed:.0f}s",
    )


def test_criterion_7_supcb_structure_and_band():
    spec = ExperimentSpec.from_dict(
        dict(
            T=5000, d=3, K=5, link="identity", noise="gaussian", sigma=0.05,
            algorithms=["supcb-glm"], replications=20, master_seed=707,
            record_every=500,
        )
    )
    link = get_link(spec.link)
    partitioned = True
    sup_finals, ucb_finals = [], []
    for rep in range(spec.replications):
        env = build_environment(spec, rep)
        policies = {
            name: make_policy(
                name, resolve_policy_config(spec, name), link,
                streams.stream(spec.master_seed, rep, streams.POLICY), env.theta_star,
            )
            for name in ("supcb-glm", "ucb-glm")
        }
        rounds = SupCbRounds(policies["supcb-glm"])

        def observe(label, t, x):
            nonlocal partitioned
            # observe runs before update, so rounds 1..t-1 are filed.
            if label == "supcb-glm" and rounds.count() != t - 1:
                partitioned = False

        traces = simulate(env, policies, spec.T, spec.record_every, rep, observe)
        if not partition_ok(rounds, spec.T):
            partitioned = False
        sup_finals.append(float(traces["supcb-glm"].cum_regret[-1]))
        ucb_finals.append(float(traces["ucb-glm"].cum_regret[-1]))
    sup_mean = float(np.mean(sup_finals))
    ucb_mean = float(np.mean(ucb_finals))
    within_band = sup_mean <= 3.0 * ucb_mean
    report(
        "criterion 7 (staged-policy partition + regret band, 20 runs)",
        partitioned and within_band,
        f"partition {'ok' if partitioned else 'BROKEN'}, "
        f"R_sup {sup_mean:.0f} vs 3x R_ucb {3 * ucb_mean:.0f}",
    )


def test_criterion_8_design_growth():
    rep = proposition1_growth(
        "uniform_ball", 3, [1000, 5000, 10_000], 100, master_seed=808
    )
    ok = 0.18 <= rep.median_ratio_at_largest <= 0.22
    report(
        "criterion 8 (design eigenvalue growth, 100 reps)",
        ok and rep.passed,
        f"median lambda_min/n {rep.median_ratio_at_largest:.4f} in [0.18, 0.22]",
    )


def test_criterion_9_determinism_across_workers(tmp_path, monkeypatch):
    spec = ExperimentSpec.from_dict(
        dict(
            T=600, d=3, K=4, link="logistic", noise="bernoulli",
            algorithms=["ucb-glm", "supcb-glm", "uniform"], tau=40,
            replications=4, master_seed=909, record_every=50,
        )
    )
    outputs = {}
    for workers in ("1", "8"):
        out = tmp_path / f"workers_{workers}"
        monkeypatch.setenv("GLM_BANDIT_THREADS", workers)
        emit_csv(run_experiment(spec), str(out))
        outputs[workers] = {
            name: (out / name).read_bytes() for name in sorted(os.listdir(out))
        }
    identical = outputs["1"] == outputs["8"]
    report(
        "criterion 9 (byte-identical outputs at 1 and 8 workers)",
        identical,
        f"{len(outputs['1'])} files compared",
    )

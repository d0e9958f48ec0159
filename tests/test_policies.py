import copy
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import policies
from glmbandit import rng as streams
from glmbandit.design import (
    MIN_EIGENVALUE_FLOOR,
    DesignState,
    inv,
    min_eigenvalue,
    norm_lower_bound,
    weighted_norm,
    weighted_norms,
)
from glmbandit.environment import Environment
from glmbandit.errors import GlmBanditError, InvalidConfigError, SingularDesignError
from glmbandit.harness import ExperimentSpec, build_environment, resolve_policy_config, simulate
from glmbandit.links import IDENTITY, LOGISTIC, PROBIT, get_link
from glmbandit.mle import MLE_MAX_ITERATIONS, MLE_TOLERANCE
from glmbandit.policies import (
    EpsilonGreedyPolicy,
    PolicyConfig,
    SupCbGlmPolicy,
    UcbGlmPolicy,
    UniformRandomPolicy,
    alpha_from_rule,
    greedy_argmax,
    make_policy,
    stage_decision,
    tau_for_supcb,
    tau_for_theorem4,
    tau_for_ucb,
)

import oracles
from oracles import (
    SHIFTED_LOGISTIC,
    FitEveryStageSupCbGlmPolicy,
    ReferenceEpsilonGreedyPolicy,
    ReferenceSupCbGlmPolicy,
    ReferenceUcbGlmPolicy,
    SupCbRounds,
    cb_glm_scores,
    partition_ok,
    reference_mle_fit,
    scalar_reward,
    ucb_scores,
)


def config(**overrides):
    params = dict(
        T=100, d=2, K=2, alpha=1.0, tau=2, kappa=0.2, sigma=0.5, delta=0.05
    )
    params.update(overrides)
    return PolicyConfig(**params)


def policy_rng(rep=0):
    return streams.stream(1234, rep, streams.POLICY)


# alpha / tau rules ---------------------------------------------------------


def test_alpha_rule_theorem2_example():
    value = alpha_from_rule(
        "theorem2", T=2, d=2, K=2, delta=math.exp(-1.0), sigma=1.0, kappa=1.0
    )
    assert value == pytest.approx(math.sqrt(math.log(3.0) + 1.0), rel=1e-12)
    assert value == pytest.approx(1.4487, abs=1e-4)


def test_alpha_rule_theorem3_example():
    # 3 sigma / kappa = 1 and log(TK/delta) = 2 gives sqrt(4) = 2.
    value = alpha_from_rule(
        "theorem3", T=2, d=2, K=2, delta=4.0 * math.exp(-2.0), sigma=1.0, kappa=3.0
    )
    assert value == pytest.approx(2.0, rel=1e-12)


def test_alpha_rule_theorem4_example():
    value = alpha_from_rule(
        "theorem4", T=10, d=2, K=2, delta=0.1, sigma=2.0, kappa=0.5, L_mu=0.25
    )
    assert value == pytest.approx(1.0)


def test_alpha_rule_explicit_passthrough():
    assert alpha_from_rule("explicit", T=1, d=1, K=1, delta=0.5, sigma=1, kappa=1, alpha=0.7) == 0.7


def test_alpha_rule_rejects_bad_inputs():
    with pytest.raises(InvalidConfigError):
        alpha_from_rule("theorem2", T=10, d=2, K=2, delta=1.5, sigma=1.0, kappa=1.0)
    with pytest.raises(InvalidConfigError):
        alpha_from_rule("theorem2", T=10, d=2, K=2, delta=0.1, sigma=-1.0, kappa=1.0)
    with pytest.raises(InvalidConfigError):
        alpha_from_rule("explicit", T=10, d=2, K=2, delta=0.1, sigma=1.0, kappa=1.0)
    with pytest.raises(InvalidConfigError):
        alpha_from_rule("theorem5", T=10, d=2, K=2, delta=0.1, sigma=1.0, kappa=1.0)


def test_tau_rules():
    assert tau_for_ucb(3, 0.05, 0.2) == max(3, math.ceil(16 * (3 + math.log(20)) / 0.2))
    assert tau_for_supcb(3, 5000) == math.ceil(math.sqrt(15000))
    assert tau_for_theorem4(3, 1000, 0.5, 0.2) == math.ceil(8 * 0.25 / 0.04 * 3 * math.log(1000))


def test_policy_config_validation():
    with pytest.raises(InvalidConfigError):
        config(tau=200).validated()  # tau > T
    with pytest.raises(InvalidConfigError):
        config(alpha=-0.5).validated()
    with pytest.raises(InvalidConfigError):
        config(delta=1.0).validated()
    with pytest.raises(InvalidConfigError):
        config(epsilon=1.5).validated()


# Selection rules -------------------------------------------------------------


def test_ucb_scores_hand_cases():
    contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
    # alpha = 0: pure greedy on the mean.
    means, widths = ucb_scores(contexts, np.array([1.0, 0.0]), np.eye(2), 0.0)
    assert greedy_argmax(means + widths) == 0
    assert np.all(widths == 0.0)

    # Zero estimate: only the widths matter.
    contexts2 = np.array([[0.5, 0.0], [0.0, 1.0]])
    means, widths = ucb_scores(contexts2, np.zeros(2), np.eye(2), 1.0)
    assert greedy_argmax(means + widths) == 1

    # theta=(1,0), V=diag(4,1), alpha=1: scores {1.5, 1.0}.
    v_inv = np.linalg.inv(np.diag([4.0, 1.0]))
    means, widths = ucb_scores(contexts, np.array([1.0, 0.0]), v_inv, 1.0)
    scores = means + widths
    assert scores[0] == pytest.approx(1.5)
    assert scores[1] == pytest.approx(1.0)
    assert greedy_argmax(scores) == 0


def test_selection_invariant_to_score_shift():
    gen = np.random.default_rng(21)
    for _ in range(100):
        scores = gen.standard_normal(6)
        shift = float(gen.uniform(-10, 10))
        assert greedy_argmax(scores) == greedy_argmax(scores + shift)


def test_greedy_argmax_breaks_ties_low():
    assert greedy_argmax(np.array([1.0, 1.0, 0.5])) == 0
    assert greedy_argmax(np.array([0.2, 1.0, 1.0]), active=[1, 2]) == 1


def test_ucb_policy_full_round_trip():
    cfg = config(T=50, tau=5, K=2, alpha=1.0)
    policy = UcbGlmPolicy(cfg, IDENTITY, policy_rng())
    contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
    for t in range(1, 6):
        arm = policy.select(t, contexts)
        policy.update(t, arm, contexts[arm], float(contexts[arm][0]))
    arm = policy.select(6, contexts)
    assert arm in (0, 1)
    assert policy.lambda_min_init is not None


def test_ucb_policy_raises_on_singular_design():
    cfg = config(T=50, tau=2, K=2)
    policy = UcbGlmPolicy(cfg, IDENTITY, policy_rng())
    x = np.array([1.0, 0.0])
    for t in (1, 2):
        policy.select(t, np.array([x, x]))
        policy.update(t, 0, x, 0.5)  # rank-one design after tau rounds
    with pytest.raises(SingularDesignError):
        policy.select(3, np.array([x, x]))


def test_ucb_identity_link_reproduces_recursive_least_squares():
    env = Environment.build(
        d=3, K=4, link=IDENTITY, noise="gaussian", sigma=0.2,
        context_dist="uniform_ball", theta_norm=1.0, master_seed=5, replication=0,
    )
    cfg = config(T=80, d=3, K=4, tau=10, alpha=0.8)
    policy = UcbGlmPolicy(cfg, IDENTITY, policy_rng())
    for t in range(1, 81):
        contexts = env.sample_contexts()
        arm = policy.select(t, contexts)
        x = contexts[arm]
        y = scalar_reward(env, x)
        policy.update(t, arm, x, y)
        if t > 10:
            policy.fit.refit()
            xs = policy.fit.design.features
            ys = policy.fit.design.rewards
            batch = np.linalg.lstsq(xs, ys, rcond=None)[0]
            assert np.abs(policy.fit.theta - batch).max() <= 1e-7


def test_policy_update_zero_vector_is_inert():
    cfg = config(T=50, tau=2, K=2)
    policy = UcbGlmPolicy(cfg, IDENTITY, policy_rng())
    contexts = np.eye(2)
    for t in (1, 2):
        arm = policy.select(t, contexts)
        policy.update(t, arm, contexts[t - 1], 0.5)
    policy.select(3, contexts)
    v_before = policy.fit.design.V.copy()
    widths_before = ucb_scores(contexts, policy.fit.theta, policy.fit.design.inverse(), 1.0)[1]
    policy.update(3, 0, np.zeros(2), 0.1)
    policy.select(4, contexts)
    widths_after = ucb_scores(contexts, policy.fit.theta, policy.fit.design.inverse(), 1.0)[1]
    assert np.array_equal(policy.fit.design.V, v_before)
    assert np.allclose(widths_before, widths_after)


def test_width_of_played_context_never_increases():
    env = Environment.build(
        d=3, K=4, link=LOGISTIC, noise="bernoulli", sigma=0.5,
        context_dist="uniform_ball", theta_norm=1.0, master_seed=6, replication=0,
    )
    cfg = config(T=60, d=3, K=4, tau=8, alpha=2.0)
    policy = UcbGlmPolicy(cfg, LOGISTIC, policy_rng())
    for t in range(1, 61):
        contexts = env.sample_contexts()
        arm = policy.select(t, contexts)
        x = contexts[arm]
        if t > 8:
            before = weighted_norm(x, policy.fit.design.inverse())
        policy.update(t, arm, x, scalar_reward(env, x))
        if t > 8:
            after = weighted_norm(x, policy.fit.design.inverse())
            assert after <= before + 1e-12


# Baselines -------------------------------------------------------------------


def test_uniform_random_frequencies():
    cfg = config(T=100_000, K=4, tau=0)
    policy = UniformRandomPolicy(cfg, policy_rng())
    contexts = np.zeros((4, 2))
    draws = np.array([policy.select(t, contexts) for t in range(1, 100_001)])
    for arm in range(4):
        assert abs(np.mean(draws == arm) - 0.25) <= 0.01


def test_epsilon_zero_matches_ucb_alpha_zero():
    gen = np.random.default_rng(30)
    cfg = config(T=50, d=3, K=5, tau=0, alpha=0.0, epsilon=0.0)
    greedy = EpsilonGreedyPolicy(cfg, IDENTITY, policy_rng(0))
    ucb = UcbGlmPolicy(cfg, IDENTITY, policy_rng(1))
    theta = np.array([0.3, -0.5, 0.2])
    for policy in (greedy, ucb):
        for e in np.eye(3):
            policy.update(0, 0, e, float(e @ theta))
    for t in range(1, 51):
        contexts = gen.standard_normal((5, 3)) / 2.0
        assert greedy.select(t, contexts) == ucb.select(t, contexts)


def test_epsilon_one_is_uniform_in_distribution():
    cfg = config(T=100_000, K=4, tau=0, epsilon=1.0)
    policy = EpsilonGreedyPolicy(cfg, IDENTITY, policy_rng())
    contexts = np.zeros((4, 2))
    draws = np.array([policy.select(t, contexts) for t in range(1, 50_001)])
    for arm in range(4):
        assert abs(np.mean(draws == arm) - 0.25) <= 0.015


def test_greedy_falls_back_to_uniform_while_singular():
    cfg = config(T=20, K=3, d=2, tau=0, epsilon=0.0)
    policy = EpsilonGreedyPolicy(cfg, IDENTITY, policy_rng())
    contexts = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
    seen = {policy.select(t, contexts) for t in range(1, 13)}
    assert seen == {0, 1, 2}  # uniform fallback explores every arm


def test_epsilon_greedy_inverts_only_to_certify_an_exploit_round(monkeypatch):
    # An exploit round reads V^{-1} to certify its argmax from the last fit.
    # An epsilon round and a uniform-fallback round read nothing of it, no
    # round inverts V before it clears the floor, and no design size is
    # inverted twice.
    from glmbandit import design
    from glmbandit.design import MIN_EIGENVALUE_FLOOR, min_eigenvalue

    class Coins:
        """The policy's generator, keeping the coins it tosses."""

        def __init__(self, gen):
            self.gen, self.tossed = gen, []

        def random(self):
            self.tossed.append(self.gen.random())
            return self.tossed[-1]

        def integers(self, *args):
            return self.gen.integers(*args)

    inverted = []  # (round, design size, V cleared the floor)
    inv = design.inv
    monkeypatch.setattr(design, "inv", lambda a: inverted.append(
        (t, policy.fit.design.n, min_eigenvalue(a) >= MIN_EIGENVALUE_FLOOR)) or inv(a))
    gen = np.random.default_rng(31)
    cfg = config(T=200, d=3, K=4, tau=0, epsilon=0.2)
    policy = EpsilonGreedyPolicy(cfg, LOGISTIC, policy_rng())
    policy.rng = coins = Coins(policy.rng)
    theta = np.array([0.5, -0.4, 0.3])
    exploit, refits = set(), 0
    for t in range(1, 201):
        contexts = gen.standard_normal((4, 3)) / 2.0
        cleared = min_eigenvalue(policy.fit.design.V) >= MIN_EIGENVALUE_FLOOR
        dirty = policy.fit.dirty
        arm = policy.select(t, contexts)
        refits += dirty and not policy.fit.dirty
        if cleared and coins.tossed[-1] >= cfg.epsilon:
            exploit.add(t)
        y = float(gen.random() < LOGISTIC.mu(contexts[arm] @ theta))
        policy.update(t, arm, contexts[arm], y)
    rounds, sizes, floors = zip(*inverted)
    assert set(rounds) <= exploit
    assert len(set(sizes)) == len(sizes)
    assert all(floors)
    # Some exploit rounds were certified from the last fit: they did not refit.
    assert len(inverted) > 100 and refits < len(exploit)


def test_make_policy_dispatch():
    cfg = config()
    assert make_policy("uniform", cfg, IDENTITY, policy_rng()).name == "uniform"
    assert make_policy("greedy", cfg, IDENTITY, policy_rng()).config.epsilon == 0.0
    oracle = make_policy("oracle", cfg, IDENTITY, policy_rng(), theta_star=np.array([1.0, 0.0]))
    assert oracle.select(1, np.array([[0.9, 0.0], [0.0, 0.99]])) == 0
    with pytest.raises(InvalidConfigError):
        make_policy("oracle", cfg, IDENTITY, policy_rng())
    with pytest.raises(InvalidConfigError):
        make_policy("exp4", cfg, IDENTITY, policy_rng())


# cb_glm_scores ---------------------------------------------------------------


def test_cb_scores_identity_link_is_least_squares_prediction():
    gen = np.random.default_rng(40)
    xs = gen.standard_normal((30, 3)) / 2.0
    theta_star = np.array([0.5, -0.2, 0.3])
    ys = xs @ theta_star + 0.01 * gen.standard_normal(30)
    contexts = gen.standard_normal((4, 3)) / 2.0
    scores = cb_glm_scores(range(30), contexts, 1.0, xs, ys, IDENTITY)
    ols = np.linalg.lstsq(xs, ys, rcond=None)[0]
    assert np.allclose(scores.means, contexts @ ols, atol=1e-8)


def test_cb_scores_alpha_zero_kills_widths():
    xs = np.eye(2)
    ys = np.array([0.3, 0.7])
    contexts = np.array([[0.4, 0.3], [0.1, 0.9]])
    scores = cb_glm_scores([0, 1], contexts, 0.0, xs, ys, IDENTITY)
    assert np.all(scores.widths == 0.0)


def test_cb_scores_orthonormal_hand_case():
    xs = np.eye(2)
    ys = np.array([0.3, 0.7])
    contexts = np.array([[1.0, 0.0]])
    scores = cb_glm_scores([0, 1], contexts, 1.0, xs, ys, IDENTITY)
    assert scores.means[0] == pytest.approx(0.3, abs=1e-9)
    assert scores.widths[0] == pytest.approx(1.0, abs=1e-12)


def test_cb_scores_error_cases():
    xs = np.array([[1.0, 0.0], [1.0, 0.0]])
    ys = np.array([0.1, 0.2])
    contexts = np.eye(2)
    with pytest.raises(SingularDesignError):
        cb_glm_scores([0, 1], contexts, 1.0, xs, ys, IDENTITY)
    with pytest.raises(InvalidConfigError):
        cb_glm_scores([], contexts, 1.0, xs, ys, IDENTITY)


# Staged elimination ----------------------------------------------------------


def test_stage_decision_exploit_when_widths_tiny():
    means = np.array([0.2, 0.9, 0.5])
    widths = np.full(3, 0.5 / math.sqrt(10_000))
    kind, arm = stage_decision(lambda: means, widths, [0, 1, 2], 1, 10_000)
    assert (kind, arm) == ("exploit", 1)


def test_stage_decision_explore_picks_lowest_wide_arm():
    means = np.zeros(3)
    widths = np.array([0.1, 0.6, 0.7])
    kind, arm = stage_decision(lambda: means, widths, [0, 1, 2], 1, 10_000)
    assert (kind, arm) == ("explore", 1)


def test_stage_decision_filter_hand_trace():
    # Stage 1: threshold 0.9 - 2*0.5 = -0.1 keeps every arm; stage 2:
    # threshold 0.9 - 2*0.25 = 0.4 eliminates the 0.1 arm.
    means = np.array([0.9, 0.5, 0.1])
    T = 5000
    widths1 = np.full(3, 0.3)
    kind, survivors = stage_decision(lambda: means, widths1, [0, 1, 2], 1, T)
    assert kind == "advance"
    assert survivors == [0, 1, 2]
    widths2 = np.full(3, 0.2)
    kind, survivors = stage_decision(lambda: means, widths2, survivors, 2, T)
    assert kind == "advance"
    assert survivors == [0, 1]


def test_stage_decision_leader_always_survives():
    gen = np.random.default_rng(50)
    for _ in range(200):
        k = int(gen.integers(2, 8))
        means = gen.standard_normal(k)
        s = int(gen.integers(1, 10))
        widths = gen.uniform(0.0, 2.0 ** (-s), size=k)
        active = sorted(gen.choice(k, size=int(gen.integers(1, k + 1)), replace=False).tolist())
        kind, payload = stage_decision(lambda: means, widths, active, s, 10**8)
        if kind == "advance":
            assert payload
            assert greedy_argmax(means, active) in payload


@st.composite
def _stage_cases(draw):
    k = draw(st.integers(1, 8))
    s = draw(st.integers(1, 12))
    T = draw(st.integers(2, 10**8))
    level, floor = 2.0 ** (-s), 1.0 / math.sqrt(T)
    # Widths at and around both thresholds reach every branch.
    width = st.one_of(
        st.floats(0.0, 2.0),
        st.floats(0.0, level),
        st.floats(0.0, floor),
        st.sampled_from([0.0, level, floor]),
    )
    means = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    widths = np.array(draw(st.lists(width, min_size=k, max_size=k)))
    active = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
    return means, widths, active, s, T


@settings(max_examples=300, deadline=None)
@given(_stage_cases())
def test_stage_decision_rules(case):
    means, widths, active, s, T = case
    calls = []

    def stage_means():
        calls.append(s)
        return means

    kind, payload = stage_decision(stage_means, widths, active, s, T)
    wide = [a for a in active if widths[a] > 2.0 ** (-s)]
    narrow = all(widths[a] <= 1.0 / math.sqrt(T) for a in active)
    best = max(means[a] for a in active)
    # The explore rule reads only the widths: the means are asked for once,
    # and only when no active arm is wide.
    assert len(calls) == (0 if wide else 1)
    if wide:
        assert (kind, payload) == ("explore", min(wide))
    elif narrow:
        assert kind == "exploit"
        assert payload == min(a for a in active if means[a] == best)
    else:
        assert kind == "advance"
        assert payload and set(payload) <= set(active)
        assert max(means[a] for a in payload) == best
        # No arm within 2 * 2^-s of the leader is eliminated.
        assert {a for a in active if means[a] >= best - 2.0 * 2.0 ** (-s)} <= set(payload)


@settings(max_examples=300, deadline=None)
@given(
    T=st.integers(2, 10**8),
    extra=st.integers(0, 4),
    data=st.data(),
)
def test_stage_decision_never_advances_below_the_cutoff(T, extra, data):
    # From the first s with 2^{-s} <= 1/sqrt(T) on, a finite width either
    # exceeds 2^{-s} (explore) or is at most 1/sqrt(T) (exploit).  That s
    # is at most SupCB-GLM's cap S = floor(log2 T).
    first = next(s for s in range(1, 64) if 2.0 ** (-s) <= 1.0 / math.sqrt(T))
    assert first <= math.floor(math.log2(T))
    s = first + extra
    k = data.draw(st.integers(1, 8))
    level, floor = 2.0 ** (-s), 1.0 / math.sqrt(T)
    width = st.one_of(
        st.floats(0.0, 2.0),
        st.floats(0.0, floor),
        st.sampled_from([0.0, level, floor, math.nextafter(level, 1.0)]),
    )
    widths = np.array(data.draw(st.lists(width, min_size=k, max_size=k)))
    means = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    active = sorted(data.draw(st.sets(st.integers(0, k - 1), min_size=1)))
    kind, _ = stage_decision(lambda: means, widths, active, s, T)
    assert kind != "advance"


def _run_supcb(T=300, d=2, K=3, seed=8, link=LOGISTIC, noise="bernoulli", sigma=0.5,
               tau=20, alpha=1.0, check_each_round=None):
    env = Environment.build(
        d=d, K=K, link=link, noise=noise, sigma=sigma,
        context_dist="uniform_ball", theta_norm=1.0, master_seed=seed, replication=0,
    )
    cfg = PolicyConfig(T=T, d=d, K=K, alpha=alpha, tau=tau, kappa=0.1,
                       sigma=0.5, delta=0.05)
    policy = SupCbGlmPolicy(cfg, link, streams.stream(seed, 0, streams.POLICY))
    rounds = SupCbRounds(policy)
    log = {"contexts": [], "xs": [], "ys": [], "rounds": rounds}
    for t in range(1, T + 1):
        contexts = env.sample_contexts()
        arm = policy.select(t, contexts)
        x = contexts[arm]
        y = scalar_reward(env, x)
        policy.update(t, arm, x, y)
        log["contexts"].append(contexts)
        log["xs"].append(x)
        log["ys"].append(y)
        if check_each_round is not None:
            check_each_round(rounds, t)
    return policy, log


def test_supcb_partition_invariant_every_round():
    def check(rounds, t):
        assert rounds.count() == t

    _, log = _run_supcb(check_each_round=check)
    assert partition_ok(log["rounds"], 300)


def test_supcb_stage_assignment_matches_width_rule(monkeypatch):
    # Record (t, stage, arm, active set, exact widths, path) of every
    # exploration assignment: the wrapped rule sees the stage and widths, the
    # per-round hook the round. At alpha = 3 the tr V floor settles the
    # explore test on some rounds and the exact widths on others; either way
    # the arm is the lowest active one whose exact width exceeds 2^{-s}.
    explored, records = [], []

    def recording_stage_decision(means, widths, active, s, T, floor=0.0):
        kind, payload = stage_decision(means, widths, active, s, T, floor)
        if kind == "explore":
            exact = widths() if callable(widths) else widths
            explored.append((s, payload, list(active), exact, floor > 2.0 ** (-s)))
        return kind, payload

    def attach_round(rounds, t):
        records.extend((t, *entry) for entry in explored)
        explored.clear()

    monkeypatch.setattr(policies, "stage_decision", recording_stage_decision)
    policy, log = _run_supcb(T=250, alpha=3.0, check_each_round=attach_round)
    xs = np.vstack(log["xs"])
    ys = np.array(log["ys"])
    rounds = log["rounds"]
    for t, s, arm, active, exact, _ in records:
        assert arm == next(a for a in active if exact[a] > 2.0 ** (-s))
        members = [i - 1 for i in rounds.stage_sets[s] if i < t]
        members += [i - 1 for i in rounds.init_rounds]
        contexts = log["contexts"][t - 1]
        scores = cb_glm_scores(members, contexts, policy.config.alpha, xs, ys, LOGISTIC)
        assert scores.widths == pytest.approx(exact, rel=1e-6)
    assert {by_floor for *_, by_floor in records} == {False, True}


def test_supcb_stage_scores_match_pure_op():
    policy, log = _run_supcb(T=200)
    contexts = log["contexts"][-1]
    xs = np.vstack(log["xs"])
    ys = np.array(log["ys"])
    rounds = log["rounds"]
    members = [i - 1 for i in rounds.stage_sets[1]] + [i - 1 for i in rounds.init_rounds]
    pure = cb_glm_scores(members, contexts, policy.config.alpha, xs, ys, LOGISTIC)
    means, widths, floor = policy._stage_scores(1, contexts, 0)
    assert np.allclose(means(), pure.means, atol=1e-6)
    assert np.allclose(widths(), pure.widths, atol=1e-8)
    assert floor <= widths()[0]


def test_supcb_exploit_rounds_never_feed_fits():
    policy, log = _run_supcb(T=300)
    rounds = log["rounds"]
    fitted_rounds = set(rounds.init_rounds)
    for s in range(1, policy.S + 1):
        fitted_rounds.update(rounds.stage_sets[s])
    assert set(rounds.stage_sets[0]).isdisjoint(fitted_rounds)
    # A stage with no fit yet was never scored, so its Psi_s is empty.
    design_ns = [len(rounds.init_rounds) if fit is None else fit.design.n
                 for fit in policy._fits[1:]]
    expected = [len(rounds.init_rounds) + len(rounds.stage_sets[s])
                for s in range(1, policy.S + 1)]
    assert design_ns == expected


def test_supcb_forced_exploit_at_stage_cap():
    # 2^{-S} <= 1/sqrt(T), so with finite widths no round advances past the
    # cap (test_stage_decision_never_advances_below_the_cutoff); the
    # forced-exploit branch is reached only with non-finite widths or a
    # lowered cap.  Drive it with a lowered cap and stubbed stage scores.
    cfg = PolicyConfig(T=100, d=2, K=3, alpha=1.0, tau=2, kappa=0.1,
                       sigma=0.5, delta=0.05)
    policy = SupCbGlmPolicy(cfg, LOGISTIC, policy_rng())
    contexts = np.eye(3, 2)
    for t in (1, 2):
        arm = policy.select(t, contexts)
        policy.update(t, arm, contexts[arm], 1.0)
    policy.S = 1  # lower the cap so stage 1 is terminal
    policy._fits = policy._fits[:2]
    means = np.array([0.1, 0.9, 0.5])
    widths = np.full(3, 0.3)  # in (1/sqrt(T), 2^{-1}]: neither explore nor exploit
    policy._stage_scores = lambda s, ctx, first: (lambda: means, widths, 0.0)
    arm = policy.select(3, contexts)
    assert arm == 1  # forced exploit: argmax of the stage-S means
    assert policy._pending == 0
    assert policy.last_stage == 1


@pytest.mark.parametrize("tau", [0, 2])
def test_supcb_raises_on_singular_initial_design(tau):
    # tau < d rounds cannot span R^3, so F is singular and so is every
    # stage design; the first post-initialization round must raise.
    cfg = PolicyConfig(T=100, d=3, K=3, alpha=1.0, tau=tau, kappa=0.1,
                       sigma=0.5, delta=0.05)
    policy = SupCbGlmPolicy(cfg, LOGISTIC, policy_rng())
    contexts = np.eye(3)
    for t in range(1, tau + 1):
        arm = policy.select(t, contexts)
        policy.update(t, arm, contexts[arm], 1.0)
    with pytest.raises(SingularDesignError):
        policy.select(tau + 1, contexts)


def test_supcb_runs_deterministically():
    _, a = _run_supcb(T=150, seed=9)
    _, b = _run_supcb(T=150, seed=9)
    assert a["rounds"].stage_sets == b["rounds"].stage_sets
    assert a["rounds"].init_rounds == b["rounds"].init_rounds


# refit_logistic's shape (configs/regret_comparison.json at T=2 000) and
# criterion 7's, every round recorded.
REFIT_LOGISTIC_SHAPE = dict(
    T=2000, d=5, K=10, link="logistic", noise="bernoulli", context_dist="uniform_ball",
    theta_norm=1.0, delta=0.05, algorithms=["supcb-glm"], record_every=1,
)
CRITERION_7_SHAPE = dict(
    T=5000, d=3, K=5, link="identity", noise="gaussian", sigma=0.05,
    algorithms=["supcb-glm"], record_every=1,
)


def _play_shape(cls, shape, seed):
    """Replication 0 of ``shape`` at ``seed``, played by a learner class."""
    spec = ExperimentSpec.from_dict({**shape, "master_seed": seed})
    policy = cls(
        resolve_policy_config(spec, cls.name),
        get_link(spec.link),
        streams.stream(seed, 0, streams.POLICY),
    )
    return simulate(build_environment(spec, 0), {cls.name: policy}, spec.T)[cls.name]


@pytest.mark.parametrize(
    "shape, seed",
    [(REFIT_LOGISTIC_SHAPE, 2024), (REFIT_LOGISTIC_SHAPE, 8191), (CRITERION_7_SHAPE, 707)],
    ids=["refit_logistic-2024", "refit_logistic-8191", "criterion_7-707"],
)
def test_supcb_widths_first_matches_fit_every_stage(shape, seed):
    # Skipping the fits of explore rounds changes no decision on these
    # shapes: every fit the first order made converged, and the widths-first
    # order starts each fit it keeps from the same iterate.
    ref = _play_shape(FitEveryStageSupCbGlmPolicy, shape, seed)
    new = _play_shape(SupCbGlmPolicy, shape, seed)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name


@pytest.mark.parametrize("seed", [2024, 8191])
def test_supcb_explores_refit_logistic_without_fitting(seed, monkeypatch):
    # With the theorem3 width every post-initialization round explores at
    # stage 1, which reads the widths alone, and the tr V floor settles all
    # but at most one of them without the exact widths either.
    calls = dict.fromkeys(["weighted_norms", "mle_fit"], 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(policies, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(policies, name, counted)
    trace = _play_shape(SupCbGlmPolicy, REFIT_LOGISTIC_SHAPE, seed)
    assert set(trace.stages[trace.stages >= 0].tolist()) == {1}
    assert calls["weighted_norms"] <= 1
    assert calls["mle_fit"] == 0


@given(
    d=st.integers(1, 6),
    K=st.integers(1, 4),
    lowest=st.floats(math.log10(MIN_EIGENVALUE_FLOOR), 2.0),
    highest=st.floats(0.0, 4.0),
    n_rows=st.integers(0, 20),
    norm=st.floats(0.0, 1.0),
    tilt=st.floats(0.0, 1.0),
    s=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=400, deadline=None)
def test_width_floor_never_declares_a_narrow_arm_wide(
    d, K, lowest, highest, n_rows, norm, tilt, s, seed
):
    # SupCB-GLM's stage design: F, here with eigenvalues from 10^lowest (down
    # to the singularity floor) up to 10^highest, plus rows of norm <= 1, and
    # lambda_min read off F as the policy does. The first context leans
    # toward V's top eigenvector, where x'V^{-1}x is nearest |x|^2 / tr V.
    gen = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(gen.standard_normal((d, d)))
    eigs = 10.0 ** np.sort(gen.uniform(lowest, max(lowest, highest), size=d))
    eigs[0] = 10.0**lowest
    v_f = (rotation * eigs) @ rotation.T
    v_f = 0.5 * (v_f + v_f.T)
    rows = gen.standard_normal((n_rows, d))
    rows *= gen.random((n_rows, 1)) / np.linalg.norm(rows, axis=1)[:, None]
    v = v_f + rows.T @ rows
    top = np.linalg.eigh(v)[1][:, -1]
    lean = top + tilt * gen.standard_normal(d)
    contexts = gen.standard_normal((K, d))
    contexts[0] = norm * lean / max(np.linalg.norm(lean), 1e-300)
    alpha = 2.0 ** (-s) * math.sqrt(v.trace()) * gen.uniform(0.5, 2.0)
    floor = alpha * norm_lower_bound(contexts[0], v, min_eigenvalue(v_f))
    width = alpha * weighted_norms(contexts, inv(v))[0]
    assert floor <= width
    if floor > 2.0 ** (-s):
        assert width > 2.0 ** (-s)


def test_ucb_runs_deterministically():
    def run():
        env = Environment.build(
            d=3, K=4, link=LOGISTIC, noise="bernoulli", sigma=0.5,
            context_dist="uniform_ball", theta_norm=1.0, master_seed=11, replication=0,
        )
        cfg = config(T=120, d=3, K=4, tau=15, alpha=1.5)
        policy = UcbGlmPolicy(cfg, LOGISTIC, streams.stream(11, 0, streams.POLICY))
        actions = []
        for t in range(1, 121):
            contexts = env.sample_contexts()
            arm = policy.select(t, contexts)
            actions.append(arm)
            x = contexts[arm]
            policy.update(t, arm, x, scalar_reward(env, x))
        return actions

    assert run() == run()


# The learners against their references ---------------------------------------

WORLDS = [(LOGISTIC, "bernoulli", 0.5), (IDENTITY, "gaussian", 0.3), (PROBIT, "gaussian", 0.3)]

LEARNERS = [
    (UcbGlmPolicy, ReferenceUcbGlmPolicy),
    (SupCbGlmPolicy, ReferenceSupCbGlmPolicy),
    (EpsilonGreedyPolicy, ReferenceEpsilonGreedyPolicy),
]


def _play(cls, world, context_dist, cfg, seed):
    """One learner's trace in one world, or the type of the error it raised."""
    link, noise, sigma = world
    env = Environment.build(
        d=cfg.d, K=cfg.K, link=link, noise=noise, sigma=sigma, context_dist=context_dist,
        theta_norm=1.0, master_seed=seed, replication=0,
    )
    policy = cls(cfg, link, streams.stream(seed, 0, streams.POLICY))
    try:
        return simulate(env, {cls.name: policy}, cfg.T, record_every=1)[cls.name]
    except GlmBanditError as exc:
        return type(exc)


@given(
    world=st.sampled_from(WORLDS),
    context_dist=st.sampled_from(["uniform_ball", "sphere", "gaussian_normalized"]),
    d=st.integers(2, 3),
    K=st.integers(2, 4),
    tau_offset=st.sampled_from([-2, -1, 0, 3]),
    T=st.integers(8, 48),
    alpha=st.sampled_from([0.0, 0.5, 2.0]),
    epsilon=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_learners_match_their_references(
    world, context_dist, d, K, tau_offset, T, alpha, epsilon, seed
):
    cfg = PolicyConfig(T=T, d=d, K=K, alpha=alpha, tau=max(0, d + tau_offset), kappa=0.2,
                       sigma=0.5, delta=0.05, epsilon=epsilon)
    for new_cls, ref_cls in LEARNERS:
        ref = _play(ref_cls, world, context_dist, cfg, seed)
        new = _play(new_cls, world, context_dist, cfg, seed)
        if isinstance(ref, type):
            assert new is ref
            continue
        assert not isinstance(new, type), f"{new_cls.name} raised {new.__name__}"
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name


# The certified lazy refit -----------------------------------------------------

LAZY_LEARNERS = [
    (UcbGlmPolicy, ReferenceUcbGlmPolicy),
    (EpsilonGreedyPolicy, ReferenceEpsilonGreedyPolicy),
]
REFIT_LOGISTIC_LEARNERS_SHAPE = {**REFIT_LOGISTIC_SHAPE, "epsilon": 0.1}


@pytest.mark.parametrize("seed", [2024, 8191])
@pytest.mark.parametrize("new_cls, ref_cls", LAZY_LEARNERS, ids=["ucb-glm", "epsilon-greedy"])
def test_lazy_refit_plays_as_refitting_every_round(new_cls, ref_cls, seed):
    ref = _play_shape(ref_cls, REFIT_LOGISTIC_LEARNERS_SHAPE, seed)
    new = _play_shape(new_cls, REFIT_LOGISTIC_LEARNERS_SHAPE, seed)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name


# A probit and an identity world at |theta*| = 2, off the logistic shape.
LAZY_WORLDS = {
    link: {**REFIT_LOGISTIC_LEARNERS_SHAPE, "link": link, "noise": "gaussian", "sigma": 0.3,
           "theta_norm": 2.0}
    for link in ("probit", "identity")
}


@pytest.mark.parametrize("world", LAZY_WORLDS)
@pytest.mark.parametrize("new_cls, ref_cls", LAZY_LEARNERS, ids=["ucb-glm", "epsilon-greedy"])
def test_lazy_refit_plays_as_refitting_every_round_off_the_logistic_shape(new_cls, ref_cls, world):
    ref = _play_shape(ref_cls, LAZY_WORLDS[world], 2024)
    new = _play_shape(new_cls, LAZY_WORLDS[world], 2024)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name


@pytest.mark.parametrize("new_cls, ref_cls", LAZY_LEARNERS, ids=["ucb-glm", "epsilon-greedy"])
def test_identity_learners_fit_a_handful_of_times(new_cls, ref_cls, monkeypatch):
    # For the identity link c_min = c_max, so the interval is V^{-1} g's own
    # rounding wide: a learner keeps one score across thousands of rows and
    # plays as its reference, which fits on every round that needs a fit.
    fits = []
    fit = policies.mle_fit
    monkeypatch.setattr(policies, "mle_fit", lambda *a, **kw: fits.append(1) or fit(*a, **kw))
    shape = {**LAZY_WORLDS["identity"], "T": 3000}
    new = _play_shape(new_cls, shape, 8191)
    assert len(fits) <= 5
    ref = _play_shape(ref_cls, shape, 8191)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name


@pytest.mark.parametrize("new_cls, ref_cls", LAZY_LEARNERS, ids=["ucb-glm", "epsilon-greedy"])
def test_lazy_refit_fits_under_30_percent_of_fit_rounds(new_cls, ref_cls, monkeypatch):
    fits = []
    fit = policies.mle_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(oracles, "mle_fit", counted)
    monkeypatch.setattr(policies, "mle_fit", counted)
    # The reference fits on every round that needs an estimate.
    _play_shape(ref_cls, REFIT_LOGISTIC_LEARNERS_SHAPE, 2024)
    fit_rounds = len(fits)
    fits.clear()
    _play_shape(new_cls, REFIT_LOGISTIC_LEARNERS_SHAPE, 2024)
    assert fit_rounds > 1000
    # The two-sided certificate fits in 45 calls (UCB-GLM) and 206 (epsilon-
    # greedy, 1 786 fit rounds); the one-sided one made 178 and 403.
    assert len(fits) < (0.05 if new_cls is UcbGlmPolicy else 0.15) * fit_rounds


@pytest.mark.parametrize("new_cls, ref_cls", LAZY_LEARNERS, ids=["ucb-glm", "epsilon-greedy"])
def test_a_link_that_is_not_built_in_refits_every_round(new_cls, ref_cls, monkeypatch):
    fits = []
    fit = policies.mle_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(oracles, "mle_fit", counted)
    monkeypatch.setattr(policies, "mle_fit", counted)
    cfg = PolicyConfig(T=400, d=3, K=5, alpha=0.5, tau=10, kappa=0.1, sigma=0.5, delta=0.05,
                       epsilon=0.1)
    counts = {}
    for name, link in {"built-in": LOGISTIC, "shifted": SHIFTED_LOGISTIC}.items():
        world = (link, "bernoulli", 0.5)
        # The reference fits on every round that needs an estimate.
        ref = _play(ref_cls, world, "uniform_ball", cfg, 2024)
        fit_rounds = len(fits)
        fits.clear()
        new = _play(new_cls, world, "uniform_ball", cfg, 2024)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name
        counts[name] = (len(fits), fit_rounds)
        fits.clear()
    assert counts["built-in"][0] < counts["built-in"][1]
    assert counts["shifted"][0] == counts["shifted"][1] > 300


# Rounds settled from one Newton step -----------------------------------------

# Newton iterations each learner ran on REFIT_LOGISTIC_LEARNERS_SHAPE at seed
# 2024 when a round whose last fit could not certify its arm fit to
# convergence in one call.
ONE_CALL_ITERATIONS = {"ucb-glm": 379, "epsilon-greedy": 1075}
# A world whose epsilon-greedy log separates at round 12 of T = 20: the step
# taken there neither certifies nor converges, and its resumed fit runs out
# of the cap, as every later fit does.
SEPARABLE_WORLD = 309_012


def _play_recording_fits(cls, shape, seed, monkeypatch):
    """``_play_shape``'s trace and, per round, the (max_iterations,
    iterations, converged) of each ``mle_fit`` call that select made, the
    round's ``last_mle_converged`` and how much ``n_nonconverged`` grew."""
    calls, rounds = [], []
    fit, select = policies.mle_fit, cls.select

    def recorded(*args, **kwargs):
        result = fit(*args, **kwargs)
        calls.append((kwargs["max_iterations"], result.iterations, result.converged))
        return result

    def recording_select(self, t, contexts):
        calls.clear()
        before = self.n_nonconverged
        arm = select(self, t, contexts)
        rounds.append((list(calls), self.last_mle_converged, self.n_nonconverged - before))
        return arm

    monkeypatch.setattr(policies, "mle_fit", recorded)
    monkeypatch.setattr(cls, "select", recording_select)
    return _play_shape(cls, shape, seed), rounds


@pytest.mark.parametrize("cls", [UcbGlmPolicy, EpsilonGreedyPolicy], ids=["ucb-glm", "epsilon-greedy"])
def test_rounds_settled_from_one_newton_step_count_as_converged(cls, monkeypatch):
    # At T = 2 000 UCB-GLM's two-sided certificate leaves 44 such rounds.
    shape = {**REFIT_LOGISTIC_LEARNERS_SHAPE, "T": 4000}
    trace, rounds = _play_recording_fits(cls, shape, 2024, monkeypatch)
    settled = [(flag, grew) for calls, flag, grew in rounds if calls == [(1, 1, False)]]
    assert len(settled) > 50
    assert set(settled) == {(True, 0)}
    assert trace.n_nonconverged == 0
    assert trace.mle_converged.all()


@pytest.mark.parametrize("cls", [UcbGlmPolicy, EpsilonGreedyPolicy], ids=["ucb-glm", "epsilon-greedy"])
def test_one_step_certificates_cut_newton_iterations(cls, monkeypatch):
    _, rounds = _play_recording_fits(cls, REFIT_LOGISTIC_LEARNERS_SHAPE, 2024, monkeypatch)
    iterations = sum(done for calls, _, _ in rounds for _, done, _ in calls)
    # 47 and 247 when these guards were set; 180 and 453 with the one-sided
    # certificate, the ball of radius B = |g|_{V^{-1}} / c_min about theta.
    share = {"ucb-glm": 0.15, "epsilon-greedy": 0.3}[cls.name]
    assert iterations <= share * ONE_CALL_ITERATIONS[cls.name]


def test_a_resumed_fit_out_of_the_cap_counts_once(monkeypatch):
    shape = {**REFIT_LOGISTIC_LEARNERS_SHAPE, "T": 20}
    ref = _play_shape(ReferenceEpsilonGreedyPolicy, shape, SEPARABLE_WORLD)
    new, rounds = _play_recording_fits(EpsilonGreedyPolicy, shape, SEPARABLE_WORLD, monkeypatch)
    for field in dataclasses.fields(ref):
        assert np.array_equal(getattr(new, field.name), getattr(ref, field.name)), field.name
    assert new.n_nonconverged == ref.n_nonconverged > 1
    for calls, flag, grew in rounds:
        spent = sum(done for _, done, _ in calls)
        assert spent <= MLE_MAX_ITERATIONS
        out_of_cap = bool(calls) and not calls[-1][2] and spent == MLE_MAX_ITERATIONS
        assert (flag, grew) == ((False, 1) if out_of_cap else (True, 0))
    resumed = [calls for calls, _, _ in rounds if len(calls) == 2]
    assert [(1, 1, False), (99, 99, False)] in resumed
    assert [(1, 1, False), (99, 1, True)] in resumed


def _tie_at_the_step(v_inv, centre, theta_hat, gen):
    """Two arms of equal |x|_{V^{-1}} in one order at ``centre`` and in the
    other at theta_hat: p + w/2 and p - w/2 with w'(centre + theta_hat) = 0
    and p'V^{-1}w = 0, whose scores differ by +-w'(centre - theta_hat)/2."""
    gap, mid = centre - theta_hat, centre + theta_hat
    w = gap - (gap @ mid) / (mid @ mid) * mid
    w /= np.linalg.norm(w)
    q = gen.standard_normal(len(w))
    p = q - (q @ v_inv @ w) / (w @ v_inv @ w) * w
    return np.array([p + w / 2, p - w / 2])


@pytest.mark.parametrize(
    "cls, alpha", [(UcbGlmPolicy, 0.0), (UcbGlmPolicy, 1.0), (EpsilonGreedyPolicy, 0.0)],
    ids=["ucb-glm-alpha-0", "ucb-glm-alpha-1", "greedy"],
)
@pytest.mark.parametrize("seed", [5, 6, 7])
def test_a_step_that_cannot_certify_resumes_to_the_refit_arm(cls, alpha, seed, monkeypatch):
    # The arms tie so closely that the centre theta_c = theta_1 + m0 V^{-1} g_1
    # of the step's interval and the MLE order them differently: only the
    # width w keeps the round from playing theta_c's arm.
    gen = np.random.default_rng(seed)
    xs, ys = _random_log(gen, LOGISTIC, 63, 3, 1.0)
    policy = cls(config(d=3, alpha=alpha, tau=0), LOGISTIC, policy_rng())
    for x, y in zip(xs[:60], ys[:60]):
        policy.update(0, 0, x, y)
    policy.estimate()
    for x, y in zip(xs[60:], ys[60:]):
        policy.update(0, 0, x, y)
    step = copy.deepcopy(policy.fit)
    assert not step.refit(1)
    centre, width, _ = step.interval()
    assert width < math.inf
    exact = reference_mle_fit(LOGISTIC, xs, ys, warm_start=policy.fit.theta)
    assert exact.converged
    v_inv = inv(policy.fit.design.V)
    contexts = _tie_at_the_step(v_inv, centre, exact.theta, gen)
    widths = alpha * weighted_norms(contexts, v_inv)
    assert greedy_argmax(contexts @ centre + widths) == 0
    assert greedy_argmax(contexts @ exact.theta + widths) == 1
    cuts = []
    fit = policies.mle_fit
    monkeypatch.setattr(policies, "mle_fit", lambda *a, **kw: cuts.append(kw["max_iterations"])
                        or fit(*a, **kw))
    assert policy.select(1, contexts) == 1
    assert cuts == [1, MLE_MAX_ITERATIONS - 1]
    assert policy.last_mle_converged and not policy.fit.dirty


def test_an_epsilon_greedy_round_settled_by_the_step_inverts_v_once(monkeypatch):
    # The step moves theta but not V: a round that certifies only from
    # theta_1 inverts V once, and forms the pairwise norms at most once per
    # certificate (none when the bound before the step is inf). Its verdict
    # is a fresh call's.
    from glmbandit import design

    fits, norms, inverses, rounds = [], [], [], []
    fit, select = policies.mle_fit, EpsilonGreedyPolicy.select
    norm, invert = weighted_norms, design.inv
    monkeypatch.setattr(policies, "mle_fit", lambda *a, **kw: fits.append(kw["max_iterations"])
                        or fit(*a, **kw))
    monkeypatch.setattr(policies, "weighted_norms", lambda *a: norms.append(1) or norm(*a))
    monkeypatch.setattr(design, "inv", lambda a: inverses.append(1) or invert(a))

    def recording_select(self, t, contexts):
        for log in (fits, norms, inverses):
            log.clear()
        arm = select(self, t, contexts)
        if fits == [1] and self.fit.dirty:  # settled from the one step
            rounds.append((len(norms), len(inverses)))
            assert self.fit.certified_greedy_arm(contexts) == arm
        return arm

    monkeypatch.setattr(EpsilonGreedyPolicy, "select", recording_select)
    _play_shape(EpsilonGreedyPolicy, REFIT_LOGISTIC_LEARNERS_SHAPE, 2024)
    assert len(rounds) > 50
    assert {inverted for _, inverted in rounds} == {1}
    assert {count for count, _ in rounds} == {1, 2}


def _stepped_fit(xs, ys, n_fit):
    """A fit converged on the first ``n_fit`` rows, then one Newton step on all."""
    fit = policies.GlmFit(LOGISTIC, DesignState(xs.shape[1]))
    for x, y in zip(xs[:n_fit], ys[:n_fit]):
        fit.update(x, y)
    fit.refit()
    for x, y in zip(xs[n_fit:], ys[n_fit:]):
        fit.update(x, y)
    last, last_width = fit.theta, fit.interval()[1]
    assert not fit.refit(1)
    return fit, last, last_width


def _log_sums(fit):
    """The (rows, tr V, |y|) that ``fit`` passes to ``score_bound``."""
    return fit.design.n, fit._trace, math.sqrt(fit._y_sq)


def test_a_step_keeps_the_score_and_bound_at_its_own_iterate():
    xs, ys = _random_log(np.random.default_rng(3), LOGISTIC, 66, 3, 1.0)
    fit, last, last_width = _stepped_fit(xs[:63], ys[:63], 60)
    assert fit.dirty
    # A pass at theta_1 alone gives the score the step ended on.
    at_step = policies.mle_fit(LOGISTIC, xs[:63], ys[:63], warm_start=fit.theta, max_iterations=0)
    assert np.array_equal(fit.score, at_step.score)
    theta_norm = math.sqrt(float(fit.theta @ fit.theta))
    v_inv = inv(fit.design.V)
    radius, shift, width = policies.score_bound(
        LOGISTIC, at_step.score, v_inv, fit.r_max, theta_norm, _log_sums(fit)
    )
    centre, fit_width, fit_radius = fit.interval()
    assert (fit_width, fit_radius) == (width, radius) and width < last_width
    assert np.array_equal(centre, fit.theta + shift)
    # Resumed on the same log, the fit is the one call from the last fit.
    assert fit.refit() and not fit.dirty
    one_call = policies.mle_fit(LOGISTIC, xs[:63], ys[:63], warm_start=last)
    assert np.array_equal(fit.theta, one_call.theta)
    # A step kept as the fit keeps its score current as the log grows, and
    # the grown log's fit starts afresh from it.
    fit, _, _ = _stepped_fit(xs[:63], ys[:63], 60)
    step = fit.theta
    for x, y in zip(xs[63:], ys[63:]):
        fit.update(x, y)
    assert np.allclose(fit.score, oracles.score_vector(LOGISTIC, xs, ys, step), rtol=0, atol=1e-12)
    assert fit.refit()
    assert np.array_equal(fit.theta, policies.mle_fit(LOGISTIC, xs, ys, warm_start=step).theta)


def _ball_rows(gen, n, d, scale):
    """n rows drawn uniformly from the ball of radius ``scale`` in R^d."""
    z = gen.standard_normal((n, d))
    return scale * z / np.linalg.norm(z, axis=1)[:, None] * gen.random(n)[:, None] ** (1.0 / d)


def _random_log(gen, link, n, d, scale):
    """A log of n ball rows and rewards drawn from a random theta* in [-1, 1]^d."""
    xs = _ball_rows(gen, n, d, scale)
    theta_star = gen.uniform(-1.0, 1.0, size=d)
    if link.kind == "identity":
        return xs, xs @ theta_star + 0.3 * gen.standard_normal(n)
    return xs, (gen.random(n) < link.mu(xs @ theta_star)).astype(float)


# Rows added since the last fit: a few, or a stretch in the hundreds, over
# which the fit's score is carried row by row.
NEW_ROWS = st.one_of(st.integers(0, 6), st.integers(100, 400))


def _carried_fit(link, xs, ys, n_fit, fit_tolerance=MLE_TOLERANCE):
    """A GlmFit fit on the first ``n_fit`` rows at ``fit_tolerance``, then
    given the rest of the log without a refit."""
    fit = policies.GlmFit(link, DesignState(xs.shape[1]))
    for x, y in zip(xs[:n_fit], ys[:n_fit]):
        fit.update(x, y)
    with mock.patch.object(policies, "mle_fit", functools.partial(
            policies.mle_fit, tolerance=fit_tolerance)):
        fit.refit()
    for x, y in zip(xs[n_fit:], ys[n_fit:]):
        fit.update(x, y)
    return fit


@given(
    link=st.sampled_from([IDENTITY, LOGISTIC, PROBIT]),
    d=st.integers(1, 4),
    n_fit=st.integers(12, 120),
    n_new=NEW_ROWS,
    scale=st.sampled_from([1.0, 2.0, 4.0]),
    fit_tolerance=st.sampled_from([1e-8, 1e-2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_refit_bound_covers_the_mle(link, d, n_fit, n_new, scale, fit_tolerance, seed):
    # GlmFit.interval puts the current log's MLE within w of its centre
    # theta_c in V-norm, so each x'theta_hat within |x|_{V^{-1}} w of
    # x'theta_c. Context norms reach ``scale``, past the unit ball. The interval must
    # hold from any converged fit, so the last fit is also made at a loose
    # tolerance, which leaves a residual score it must carry.
    gen = np.random.default_rng(seed)
    xs, ys = _random_log(gen, link, n_fit + n_new, d, scale)
    fit = _carried_fit(link, xs, ys, n_fit, fit_tolerance)
    centre, width, _ = fit.interval()
    if width == math.inf:
        return
    exact = reference_mle_fit(link, xs, ys)
    assert exact.converged
    v_inv = inv(fit.design.V)
    assert weighted_norm(exact.theta - centre, fit.design.V) <= width
    directions = _ball_rows(gen, 20, d, scale)
    gaps = np.abs(directions @ exact.theta - directions @ centre)
    assert (gaps <= weighted_norms(directions, v_inv) * width).all()


@given(
    link=st.sampled_from([IDENTITY, LOGISTIC, PROBIT]),
    d=st.integers(1, 4),
    K=st.integers(2, 10),
    n_fit=st.integers(12, 120),
    n_new=NEW_ROWS,
    scale=st.sampled_from([1.0, 2.0, 4.0]),
    offset=st.sampled_from([1e-13, 1e-15, 1e-16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_greedy_certificate_names_the_refit_argmax(link, d, K, n_fit, n_new, scale, offset, seed):
    # Whenever the alpha = 0 certificate names an arm, the refit that the
    # round would otherwise make plays that arm. Context norms reach
    # ``scale``, and each round has a near-duplicate pair of arms: one row
    # copied with an offset near the rounding of x'theta.
    gen = np.random.default_rng(seed)
    xs, ys = _random_log(gen, link, n_fit + n_new, d, scale)
    fit = _carried_fit(link, xs, ys, n_fit)
    refit = None
    for _ in range(40):
        contexts = _ball_rows(gen, K, d, scale)
        copy, source = gen.choice(K, size=2, replace=False)
        contexts[copy] = contexts[source] + offset * gen.standard_normal(d)
        arm = fit.certified_greedy_arm(contexts)
        if arm is not None:
            refit = refit or reference_mle_fit(link, xs, ys, warm_start=fit.theta)
            assert refit.converged
            assert arm == greedy_argmax(contexts @ refit.theta)


@given(
    link=st.sampled_from([IDENTITY, LOGISTIC, PROBIT]),
    d=st.integers(1, 4),
    K=st.integers(2, 10),
    n_fit=st.integers(12, 120),
    n_new=st.one_of(st.integers(1, 6), st.integers(100, 400)),
    scale=st.sampled_from([1.0, 2.0, 4.0]),
    alpha=st.sampled_from([0.0, 0.5, 2.0]),
    offset=st.sampled_from([1e-13, 1e-15, 1e-16]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_ucb_certificate_spread_dwarfs_the_rounding(
    link, d, K, n_fit, n_new, scale, alpha, offset, seed
):
    # Whenever certified_arm names an arm, the refit plays that arm: at a
    # converged fit and at one Newton step past it, on rounds with a
    # near-duplicate pair of arms. Each arm's spread |x|_{V^{-1}} w stays
    # orders above the rounding of its scores, d eps |x| (|theta_c| +
    # |theta_hat|), which the spread's own allowance covers in any case.
    gen = np.random.default_rng(seed)
    xs, ys = _random_log(gen, link, n_fit + n_new, d, scale)
    fit = _carried_fit(link, xs, ys, n_fit)
    eps = float(np.finfo(float).eps)
    for stepped in (False, True):
        if stepped and (fit.score is None or fit.refit(1)):
            break
        centre, width, _ = fit.interval()
        if width == math.inf:
            continue
        v_inv = inv(fit.design.V)
        refit = reference_mle_fit(link, xs, ys, warm_start=fit.theta)
        assert refit.converged
        reach = np.linalg.norm(centre) + np.linalg.norm(refit.theta)
        for _ in range(20):
            contexts = _ball_rows(gen, K, d, scale)
            copy, source = gen.choice(K, size=2, replace=False)
            contexts[copy] = contexts[source] + offset * gen.standard_normal(d)
            norms = weighted_norms(contexts, v_inv)
            rounding = d * eps * np.linalg.norm(contexts, axis=1) * reach
            assert (norms * width > 100.0 * rounding).all()
            arm = fit.certified_arm(contexts, alpha, norms)
            if arm is not None:
                assert arm == greedy_argmax(contexts @ refit.theta + alpha * norms)


# The interval's allowances, each patched to 0 on a case built for it -------


def _identity_log(seed, n, scale, noise, theta_scale):
    """An identity-link log in R^2: rows uniform on [-1, 1]^2 scaled by
    ``scale`` per column, rewards x'theta* + noise, |theta*_i| <= theta_scale."""
    gen = np.random.default_rng(seed)
    xs = gen.uniform(-1.0, 1.0, (n, 2)) * scale
    return xs, xs @ (theta_scale * gen.uniform(-1.0, 1.0, 2)) + noise * gen.standard_normal(n)


def _misses_the_mle(xs, ys, n_fit):
    """Whether the interval of a fit one Newton step into the first ``n_fit``
    rows, its score carried across the rest, misses the exact MLE."""
    fit = policies.GlmFit(IDENTITY, DesignState(2))
    for x, y in zip(xs[:n_fit], ys[:n_fit]):
        fit.update(x, y)
    fit.refit(1)
    for x, y in zip(xs[n_fit:], ys[n_fit:]):
        fit.update(x, y)
    centre, width, _ = fit.interval()
    assert width < math.inf
    return oracles.exact_distance_to_identity_mle(xs, ys, centre) > width


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_score_rounding_covers_a_score_carried_over_hundreds_of_rows(seed, monkeypatch):
    # |theta*| near 1e8 makes each row's x'theta round by about 1e-8, and a
    # fit's score carried over 300 rows gathers that rounding: the identity
    # link's interval, of width about 2e-9 without it, must allow for it.
    xs, ys = _identity_log(seed, 350, 1.0, 0.3, 1e8)
    assert not _misses_the_mle(xs, ys, 50)
    monkeypatch.setattr(policies, "score_rounding", lambda *args: 0.0)
    assert _misses_the_mle(xs, ys, 50)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inverse_rounding_covers_an_inverse_within_its_budget(seed, monkeypatch):
    # An inverse of V off by 0.9 of what design.inverse_rounding allows, in
    # the direction that moves V^{-1} g most in V-norm, on a design of
    # condition number about 1e4: the centre moves past the width unless the
    # width allows for it.
    from glmbandit import design

    exact_inv = design.inv

    def inexact_inv(a):
        x = exact_inv(a)
        k = float(a.trace()) * float(x.trace())
        return x + 0.9 * design.inverse_rounding(2, k) / math.sqrt(k) * x @ np.eye(2)[::-1]

    monkeypatch.setattr(design, "inv", inexact_inv)
    xs, ys = _identity_log(seed, 40, np.array([1.0, 0.01]), 3.0, 1.0)
    assert not _misses_the_mle(xs, ys, 20)
    monkeypatch.setattr(policies, "inverse_rounding", lambda *args: 0.0)
    assert _misses_the_mle(xs, ys, 20)


def test_rounding_allowance_keeps_near_duplicate_arms_uncertified(monkeypatch):
    # Two arms 1e-16 apart differ in x'theta by no more than its rounding,
    # and their pairwise norm |x_0 - x_1|_{V^{-1}} puts no width between
    # them: only the rounding allowance keeps the greedy certificate from
    # naming one the refit may not play.
    def wrong_and_named():
        gen = np.random.default_rng(0)
        xs, ys = _random_log(gen, LOGISTIC, 63, 3, 1.0)
        fit = _carried_fit(LOGISTIC, xs, ys, 60)
        refit = reference_mle_fit(LOGISTIC, xs, ys, warm_start=fit.theta)
        wrong = named = 0
        for _ in range(200):
            contexts = _ball_rows(gen, 2, 3, 1.0)
            contexts[1] = contexts[0] + 1e-16 * gen.standard_normal(3)
            arm = fit.certified_greedy_arm(contexts)
            named += arm is not None
            wrong += arm is not None and arm != greedy_argmax(contexts @ refit.theta)
        return wrong, named

    assert wrong_and_named() == (0, 0)
    monkeypatch.setattr(policies, "rounding_allowance", lambda *args: 0.0)
    wrong, named = wrong_and_named()
    assert 0 < wrong < named

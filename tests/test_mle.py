import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import mle
from glmbandit.design import min_eigenvalue
from glmbandit.errors import SingularFisherError
from glmbandit.links import IDENTITY, LOGISTIC, PROBIT
from glmbandit.mle import mle_fit

from oracles import grad_ascent_mle, random_logistic_instance, reference_mle_fit, score_vector

LINKS = {link.kind: link for link in (IDENTITY, LOGISTIC, PROBIT)}

# Far from the optimum a full Newton step overshoots: this warm start makes
# the logistic fit below halve its step.
HALVING_XS = np.random.default_rng(3).standard_normal((40, 2)) / 2.0
HALVING_YS = (
    np.random.default_rng(4).random(40) < LOGISTIC.mu(HALVING_XS @ np.array([0.5, -0.5]))
).astype(float)
HALVING_START = np.array([4.0, 4.0])

# A separated log whose cold fit stops at the 100-iteration cap unconverged.
SEPARATED_XS = np.array(
    [[-0.03, 0.08], [-0.25, 0.56], [-0.83, 0.78], [-0.56, 0.8], [-0.17, 0.68], [-0.36, -1.0]]
)
SEPARATED_YS = np.array([0.0, 1.0, 1.0, 1.0, 0.0, 1.0])


def test_orthonormal_design_recovers_least_squares():
    xs = np.eye(2)
    ys = np.array([0.3, 0.7])
    result = mle_fit(IDENTITY, xs, ys)
    assert result.converged
    assert np.allclose(result.theta, [0.3, 0.7], atol=1e-10)


def test_logistic_scalar_inverts_sigmoid():
    # Four unit inputs with three successes: the score reduces to
    # mu(theta) = 3/4, so theta = log 3.
    xs = np.ones((4, 1))
    ys = np.array([1.0, 1.0, 1.0, 0.0])
    result = mle_fit(LOGISTIC, xs, ys)
    assert result.converged
    assert result.theta[0] == pytest.approx(np.log(3.0), abs=1e-8)


def test_converged_means_score_below_tolerance():
    gen = np.random.default_rng(11)
    xs = gen.standard_normal((50, 3)) / 2.0
    ys = (gen.random(50) < LOGISTIC.mu(xs @ np.array([0.5, -0.2, 0.1]))).astype(float)
    result = mle_fit(LOGISTIC, xs, ys, tolerance=1e-8)
    assert result.converged
    assert result.final_score_norm <= 1e-8
    recomputed = np.abs(score_vector(LOGISTIC, xs, ys, result.theta)).max()
    assert recomputed <= 1e-8


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(LINKS)), st.integers(0, 2**32 - 1))
def test_matches_gradient_ascent_oracle(kind, seed):
    link = LINKS[kind]
    xs, ys, fit = random_logistic_instance(link, np.random.default_rng(seed))
    oracle = grad_ascent_mle(link, xs, ys)
    assert np.abs(fit.theta - oracle).max() <= 1e-6


def test_warm_start_validation():
    xs = np.eye(2)
    ys = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        mle_fit(IDENTITY, xs, ys, warm_start=np.zeros(3))
    with pytest.raises(ValueError):
        mle_fit(IDENTITY, np.empty((0, 2)), np.empty(0))


def test_underdetermined_fit_proceeds_via_ridge():
    # One observation in two dimensions: the Fisher matrix is rank one and
    # the ridge fallback must carry the step.
    result = mle_fit(IDENTITY, np.array([[1.0, 0.0]]), np.array([0.3]))
    assert result.converged
    assert result.theta[0] == pytest.approx(0.3, abs=1e-6)


def test_nonconvergence_is_flagged_not_raised():
    xs = np.ones((6, 1))
    ys = np.ones(6)  # separable: the optimum sits at infinity
    result = mle_fit(LOGISTIC, xs, ys, max_iterations=3)
    assert not result.converged
    assert result.final_score_norm > 1e-8
    assert result.iterations == 3
    assert np.isfinite(result.theta).all()


def test_warm_start_converges_in_fewer_iterations():
    gen = np.random.default_rng(13)
    xs = gen.standard_normal((200, 4)) / 2.0
    theta_star = np.array([0.4, -0.3, 0.2, 0.1])
    ys = (gen.random(200) < LOGISTIC.mu(xs @ theta_star)).astype(float)
    cold = mle_fit(LOGISTIC, xs, ys)
    warm = mle_fit(LOGISTIC, xs, ys, warm_start=cold.theta)
    assert warm.converged
    assert warm.iterations <= 1
    assert np.allclose(warm.theta, cold.theta, atol=1e-8)


def counting(link):
    """The same link with the names of its mu and mu_dot calls logged in order."""
    log = []

    def logged(name):
        fn = getattr(link, name)

        def wrapper(z):
            log.append(name)
            return fn(z)

        return wrapper

    return dataclasses.replace(link, mu=logged("mu"), mu_dot=logged("mu_dot")), log


def fit_outcome(fit, *args, **kwargs):
    try:
        return fit(*args, **kwargs)
    except SingularFisherError as err:
        return str(err)


def assert_matches_reference(link, xs, ys, **kwargs):
    new = fit_outcome(mle_fit, link, xs, ys, **kwargs)
    ref = fit_outcome(reference_mle_fit, link, xs, ys, **kwargs)
    if isinstance(ref, str):
        assert new == ref
        return
    assert np.array_equal(new.theta, ref.theta)
    assert new.iterations == ref.iterations
    assert new.converged == ref.converged
    assert np.array_equal(new.final_score_norm, ref.final_score_norm, equal_nan=True)
    assert np.array_equal(new.score, ref.score, equal_nan=True)


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(sorted(LINKS)),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    n=st.integers(1, 120),
    start=st.sampled_from(["cold", "near", "far"]),
)
def test_bit_identical_to_reference_loop(kind, seed, d, n, start):
    link = LINKS[kind]
    gen = np.random.default_rng(seed)
    z = gen.standard_normal((n, d))
    z /= np.maximum(np.linalg.norm(z, axis=1)[:, None], 1e-12)
    xs = z * (gen.random(n) ** (1.0 / d))[:, None]
    theta_star = gen.uniform(-1.0, 1.0, size=d)
    if kind == "identity":
        ys = xs @ theta_star + 0.1 * gen.standard_normal(n)
    else:
        ys = (gen.random(n) < link.mu(xs @ theta_star)).astype(float)
    warm = {
        "cold": None,
        "near": theta_star + 0.1 * gen.standard_normal(d),
        "far": gen.uniform(-6.0, 6.0, size=d),
    }[start]
    assert_matches_reference(link, xs, ys, warm_start=warm)


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["logistic", "probit"]),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    extra=st.integers(0, 12),
    flips=st.integers(0, 2),
    start=st.sampled_from(["cold", "far"]),
    per_batch=st.sampled_from([1, 2, 3, 5, 8, 40]),
)
def test_bit_identical_to_reference_loop_on_near_separable_logs(
    kind, seed, d, extra, flips, start, per_batch
):
    # Small logs labelled by a hyperplane, with at most a couple of labels
    # flipped: separable or nearly so, where Newton halves its steps many
    # times. A small element budget splits the halvings into batches.
    link = LINKS[kind]
    gen = np.random.default_rng(seed)
    n = d + extra
    xs = gen.uniform(-1.0, 1.0, size=(n, d))
    ys = (xs @ gen.standard_normal(d) > 0).astype(float)
    flipped = gen.choice(n, size=min(flips, n), replace=False)
    ys[flipped] = 1.0 - ys[flipped]
    warm = None if start == "cold" else gen.uniform(-8.0, 8.0, size=d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mle, "HALVING_BATCH_ELEMENTS", per_batch * n)
        assert_matches_reference(link, xs, ys, warm_start=warm)


def test_rejected_halvings_keep_the_best_candidate(monkeypatch):
    # Against the Newton direction every scale raises the score norm, so all
    # 40 candidates are rejected and the smallest step, 0.5**39, is the best:
    # every batch split must reach the last candidate and keep it.
    xs, ys, link = HALVING_XS, HALVING_YS, LOGISTIC
    theta = np.zeros(2)
    score = score_vector(link, xs, ys, theta)
    fisher = (xs * link.mu_dot(xs @ theta)[:, None]).T @ xs
    step = -np.linalg.solve(fisher, score)
    snorm = float(np.abs(score).max())
    expected = theta + 0.5**39 * step
    for per_batch in (1, 3, 39, 40):
        monkeypatch.setattr(mle, "HALVING_BATCH_ELEMENTS", per_batch * len(xs))
        (cand, _, _, _), norm = mle._line_search(link, xs, ys, theta, step, snorm)
        assert np.array_equal(cand, expected)
        assert norm == float(np.abs(score_vector(link, xs, ys, expected)).max()) > snorm


@pytest.mark.parametrize(
    "link, xs, ys, kwargs",
    [
        # Step halving from a distant warm start.
        (LOGISTIC, HALVING_XS, HALVING_YS, {"warm_start": HALVING_START}),
        (PROBIT, HALVING_XS, HALVING_YS, {"warm_start": HALVING_START}),
        # Rank-deficient Fisher matrix carried by the ridge.
        (IDENTITY, np.array([[1.0, 0.0]]), np.array([0.3]), {}),
        # Separable data stopped at the iteration cap.
        (LOGISTIC, np.ones((6, 1)), np.ones(6), {"max_iterations": 3}),
    ],
    ids=["halving-logistic", "halving-probit", "ridge", "separable"],
)
def test_bit_identical_to_reference_loop_on_edge_cases(link, xs, ys, kwargs):
    assert_matches_reference(link, xs, ys, **kwargs)


def assert_resume_is_one_fit(link, xs, ys, k, warm_start=None):
    """A fit cut after k iterations and resumed from its iterate for the
    other 100 - k is the single fit: same theta and score bits, the same
    flag and as many iterations in all (or both raise)."""
    one = fit_outcome(mle_fit, link, xs, ys, warm_start=warm_start)
    head = fit_outcome(mle_fit, link, xs, ys, warm_start=warm_start, max_iterations=k)
    if isinstance(head, str):
        assert isinstance(one, str)
        return
    tail = fit_outcome(mle_fit, link, xs, ys, warm_start=head.theta, max_iterations=100 - k)
    if isinstance(one, str):
        assert isinstance(tail, str)
        return
    assert np.array_equal(tail.theta, one.theta)
    assert np.array_equal(tail.score, one.score, equal_nan=True)
    assert tail.converged == one.converged
    assert head.iterations + tail.iterations == one.iterations


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["logistic", "probit"]),
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    extra=st.integers(0, 40),
    flips=st.integers(0, 3),
    start=st.sampled_from(["cold", "far"]),
    per_batch=st.sampled_from([1, 3, 40]),
    k=st.integers(1, 99),
)
def test_a_fit_resumed_from_an_iterate_is_one_fit(
    kind, seed, d, extra, flips, start, per_batch, k
):
    # Logs labelled by a hyperplane with a few labels flipped: a separated
    # one runs to the iteration cap, and from a far warm start Newton halves
    # its steps, a batch of candidates per pass.
    link = LINKS[kind]
    gen = np.random.default_rng(seed)
    n = d + extra
    xs = gen.uniform(-1.0, 1.0, size=(n, d))
    ys = (xs @ gen.standard_normal(d) > 0).astype(float)
    flipped = gen.choice(n, size=min(flips, n), replace=False)
    ys[flipped] = 1.0 - ys[flipped]
    warm = None if start == "cold" else gen.uniform(-8.0, 8.0, size=d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mle, "HALVING_BATCH_ELEMENTS", per_batch * n)
        assert_resume_is_one_fit(link, xs, ys, k, warm)


@pytest.mark.parametrize("k", [1, 2, 5, 99])
@pytest.mark.parametrize(
    "link, xs, ys, warm_start",
    [
        (LOGISTIC, HALVING_XS, HALVING_YS, HALVING_START),
        (PROBIT, HALVING_XS, HALVING_YS, HALVING_START),
        (LOGISTIC, np.ones((6, 1)), np.ones(6), None),
        (LOGISTIC, SEPARATED_XS, SEPARATED_YS, None),
    ],
    ids=["halving-logistic", "halving-probit", "separable", "separated-to-the-cap"],
)
def test_edge_case_fits_resume_as_one_fit(link, xs, ys, warm_start, k):
    assert_resume_is_one_fit(link, xs, ys, k, warm_start)


def test_the_separated_log_runs_to_the_cap():
    result = mle_fit(LOGISTIC, SEPARATED_XS, SEPARATED_YS)
    assert result.iterations == 100 and not result.converged


def candidates_per_iteration(log):
    """From the reference loop's call log (one mu_dot per iteration, then
    one mu per candidate): the number of candidates each iteration tried."""
    tried = []
    for name in log:
        if name == "mu_dot":
            tried.append(0)
        elif tried:
            tried[-1] += 1
    return tried


def test_one_link_pass_per_candidate(monkeypatch):
    gen = np.random.default_rng(13)
    xs = gen.standard_normal((200, 4)) / 2.0
    ys = (gen.random(200) < LOGISTIC.mu(xs @ np.array([0.4, -0.3, 0.2, 0.1]))).astype(float)
    warm = mle_fit(LOGISTIC, xs[:-1], ys[:-1]).theta

    # A warm fit accepts every full Newton step: one candidate per iteration.
    link, log = counting(LOGISTIC)
    fit = mle_fit(link, xs, ys, warm_start=warm)
    assert fit.iterations >= 1
    assert log == ["mu"] * (1 + fit.iterations)

    # With step halving, the reference loop makes one mu pass per candidate
    # plus the initial score, and one mu_dot pass per iteration. mle_fit
    # tries the full step alone and then the halvings a batch at a time:
    # one mu pass per batch.
    ref_link, ref_log = counting(LOGISTIC)
    ref = reference_mle_fit(ref_link, HALVING_XS, HALVING_YS, warm_start=HALVING_START)
    tried = candidates_per_iteration(ref_log)
    assert len(tried) == ref.iterations and max(tried) > 2
    n = len(HALVING_XS)
    for per_batch in (1, 2, 3, 40):
        monkeypatch.setattr(mle, "HALVING_BATCH_ELEMENTS", per_batch * n)
        link, log = counting(LOGISTIC)
        fit = mle_fit(link, HALVING_XS, HALVING_YS, warm_start=HALVING_START)
        batches = sum(1 + -(-(k - 1) // per_batch) for k in tried)
        assert log == ["mu"] * (1 + batches)
        assert np.array_equal(fit.theta, ref.theta)
    assert batches == ref.iterations + sum(k > 1 for k in tried)


def test_eigensolver_runs_only_near_singular(monkeypatch):
    eig_calls = []

    def counted(a):
        eig_calls.append(a)
        return min_eigenvalue(a)

    monkeypatch.setattr(mle, "min_eigenvalue", counted)
    gen = np.random.default_rng(13)
    xs = gen.standard_normal((200, 4)) / 2.0
    ys = (gen.random(200) < LOGISTIC.mu(xs @ np.array([0.4, -0.3, 0.2, 0.1]))).astype(float)
    fit = mle_fit(LOGISTIC, xs, ys)
    assert fit.converged and fit.iterations >= 2
    assert eig_calls == []

    # Rank one in two dimensions: every iteration checks and adds the ridge,
    # whose check Weyl's inequality settles from the first eigenvalue, and
    # lands where the reference loop, which asks the eigensolver both times,
    # lands.
    xs, ys = np.array([[1.0, 0.0]]), np.array([0.3])
    fit = mle_fit(IDENTITY, xs, ys)
    assert len(eig_calls) == fit.iterations
    ref = reference_mle_fit(IDENTITY, xs, ys)
    assert np.array_equal(fit.theta, ref.theta)
    assert fit.iterations == ref.iterations


def test_indefinite_fisher_still_reaches_the_ridged_eigensolver(monkeypatch):
    # mu(z) = -z^2 / 2 has mu'(z) = -z, so at theta = (1, -1) on the unit rows
    # F = diag(-1, 1), indefinite with lambda_min = -1. The ridge cannot lift
    # it to the floor, so Weyl's inequality settles nothing and the ridged
    # matrix's own eigenvalue raises the error.
    eig_calls = []

    def counted(a):
        eig_calls.append(a)
        return min_eigenvalue(a)

    monkeypatch.setattr(mle, "min_eigenvalue", counted)
    curved = dataclasses.replace(
        IDENTITY, kind="curved", mu=lambda z: -0.5 * np.square(z), mu_dot=np.negative
    )
    with pytest.raises(SingularFisherError):
        mle_fit(curved, np.eye(2), np.array([0.3, -0.2]), warm_start=np.array([1.0, -1.0]))
    assert len(eig_calls) == 2
    assert min_eigenvalue(eig_calls[0]) == -1.0 and min_eigenvalue(eig_calls[1]) < -1e-8


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_weyl_skip_never_settles_a_non_finite_fisher_matrix(entry, value):
    fisher = np.array([[1.0, 0.5], [0.5, 0.25]])  # rank one: lambda_min = 0
    ridged = fisher + mle.FISHER_RIDGE * np.eye(2)
    assert mle._ridge_clears_floor(0.0, ridged)
    assert not mle._ridge_clears_floor(np.nan, ridged)
    ridged[entry] = ridged[entry[::-1]] = value
    assert not mle._ridge_clears_floor(0.0, ridged)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glmbandit import rng as streams
from glmbandit.environment import (
    PAIRWISE_BLOCK,
    Environment,
    draw_theta_star,
    sample_context_batch,
    second_moment_min_eig,
    sub_gaussian_sigma,
)
from glmbandit.errors import InvalidConfigError
from glmbandit.links import IDENTITY, LOGISTIC, PROBIT, get_link

from oracles import (
    instantaneous_regret,
    optimal_arm,
    reference_draw_sample,
    reference_sample_context_batch,
)


def _env(**overrides):
    params = dict(
        d=3,
        K=4,
        link=LOGISTIC,
        noise="bernoulli",
        sigma=0.5,
        context_dist="uniform_ball",
        theta_norm=1.0,
        master_seed=100,
        replication=0,
    )
    params.update(overrides)
    return Environment.build(**params)


def test_sphere_d1_contexts_are_signs():
    gen = streams.stream(0, 0, streams.CONTEXTS)
    xs = sample_context_batch(gen, "sphere", 1000, 1)
    assert set(np.unique(xs)) <= {-1.0, 1.0}


@pytest.mark.parametrize("dist", ["uniform_ball", "sphere", "gaussian_normalized"])
def test_all_norms_within_unit_ball(dist):
    gen = streams.stream(1, 0, streams.CONTEXTS)
    xs = sample_context_batch(gen, dist, 20000, 4)
    assert np.linalg.norm(xs, axis=1).max() <= 1.0 + 1e-12


def test_uniform_ball_second_moment():
    # E[X X'] = I/(d+2) for the uniform ball.
    gen = streams.stream(2, 0, streams.CONTEXTS)
    xs = sample_context_batch(gen, "uniform_ball", 100_000, 3)
    sigma = xs.T @ xs / xs.shape[0]
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    assert abs(lam_min - 0.2) <= 0.02


@pytest.mark.parametrize("dist,d", [("uniform_ball", 3), ("sphere", 4), ("gaussian_normalized", 3)])
def test_second_moment_min_eig_matches_monte_carlo(dist, d):
    gen = streams.stream(3, 0, streams.CONTEXTS)
    xs = sample_context_batch(gen, dist, 200_000, d)
    sigma = xs.T @ xs / xs.shape[0]
    lam_min = float(np.linalg.eigvalsh(sigma)[0])
    assert second_moment_min_eig(dist, d) == pytest.approx(lam_min, rel=0.05)


def test_gaussian_normalized_second_moment_matches_chi2():
    # The clipped-Gaussian constant, bit for bit the scipy.stats expression
    # it was first written as.
    from scipy.stats import chi2

    for d in range(1, 65):
        expected = float(chi2.cdf(d, d + 2) + chi2.sf(d, d)) / d
        assert second_moment_min_eig("gaussian_normalized", d) == expected, d


def test_fixed_context_distribution():
    fixed = np.array([[1.0, 0.0], [0.0, 1.0]])
    env = _env(
        d=2, K=2, link=IDENTITY, noise="gaussian", sigma=0.1,
        context_dist="fixed", fixed_contexts=fixed,
    )
    assert np.array_equal(env.sample_contexts(), fixed)
    assert second_moment_min_eig("fixed", 2, fixed) == pytest.approx(0.5)


def test_sample_log_on_a_fixed_world_returns_the_fixed_rows():
    fixed = np.array([[0.6, 0.0], [0.0, -0.8]])
    kwargs = dict(d=2, K=2, link=IDENTITY, noise="gaussian", sigma=0.1,
                  context_dist="fixed", fixed_contexts=fixed)
    env, twin = _env(**kwargs), _env(**kwargs)
    xs, ys, eps = env.sample_log(2)
    means = twin.arm_means(fixed)
    assert np.array_equal(xs, fixed)
    assert np.array_equal(ys, twin.rewards(means, twin.sample_noise(2)))
    assert np.array_equal(eps, ys - means)
    with pytest.raises(InvalidConfigError, match="one vector per arm"):
        env.sample_log(3)


class _PlantingGenerator:
    """A generator whose normal draws carry planted rows: the drawn row with
    every entry set to a zero of its own sign, or scaled by 1e-300 or 1e150."""

    def __init__(self, seed: int, plants: list[tuple[int, object]]):
        self._gen = np.random.default_rng(seed)
        self._plants = plants

    def standard_normal(self, size=None, out=None):
        z = self._gen.standard_normal(size, out=out)
        rows = z.reshape(-1, z.shape[-1])
        for at, kind in self._plants:
            row = rows[at % len(rows)]
            if kind == "zero":
                np.copysign(0.0, row, out=row)
            else:
                row *= kind
        return z

    def random(self, size=None, out=None):
        return self._gen.random(size, out=out)


@settings(max_examples=300, deadline=None)
@given(
    dist=st.sampled_from(["uniform_ball", "sphere", "gaussian_normalized"]),
    d=st.integers(1, 12),
    n=st.integers(1, 64),
    rounds=st.none() | st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    plants=st.lists(
        st.tuples(st.integers(0, 255), st.sampled_from(["zero", 1e-300, 1e150])), max_size=4
    ),
)
def test_context_draw_matches_the_frozen_draw_bit_for_bit(dist, d, n, rounds, seed, plants):
    with np.errstate(all="ignore"):  # a row planted twice at 1e150 overflows its norm
        got = sample_context_batch(_PlantingGenerator(seed, plants), dist, n, d, rounds=rounds)
        want = reference_sample_context_batch(_PlantingGenerator(seed, plants), dist, n, d, rounds)
    premise = (
        f"NumPy adds a row of d < {PAIRWISE_BLOCK} left to right" if d < PAIRWISE_BLOCK
        else "the broadcast path repeats the frozen operations"
    )
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes(), (
        f"{dist} draw at d={d} differs from the frozen draw: the premise "
        f"'{premise}' fails under NumPy {np.__version__}"
    )


@pytest.mark.parametrize("dist", ["uniform_ball", "sphere", "gaussian_normalized", "fixed"])
@pytest.mark.parametrize("K,d", [(1, 1), (4, 3), (7, 20)])
def test_multi_round_draw_equals_per_round_draws(dist, K, d):
    fixed = None
    if dist == "fixed":
        z = np.random.default_rng(9).standard_normal((K, d))
        fixed = z / np.linalg.norm(z, axis=1)[:, None]
    kwargs = dict(d=d, K=K, link=IDENTITY, noise="gaussian", sigma=0.1,
                  context_dist=dist, fixed_contexts=fixed)
    per_round, tape = _env(**kwargs), _env(**kwargs)
    singles = [per_round.sample_contexts() for _ in range(13)]
    chunks = np.concatenate([tape.sample_contexts(5), tape.sample_contexts(8)])
    assert chunks.shape == (13, K, d)
    for i, single in enumerate(singles):
        assert np.array_equal(chunks[i], single)
    # Both streams stand at the same place afterwards.
    assert np.array_equal(per_round.sample_contexts(), tape.sample_contexts())


def test_theta_star_draw_has_requested_norm():
    gen = streams.stream(4, 0, streams.THETA)
    for norm in (0.5, 1.0, 2.0):
        theta = draw_theta_star(gen, 5, norm)
        assert np.linalg.norm(theta) == pytest.approx(norm, rel=1e-12)


def test_bernoulli_requires_logistic():
    with pytest.raises(InvalidConfigError):
        _env(link=IDENTITY, noise="bernoulli")


def test_bernoulli_mean_at_origin():
    env = _env(theta_norm=0.0)
    x = np.array([0.3, 0.1, -0.2])
    draws = [env.sample_reward(x, u) for u in env.sample_noise(100_000)]
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(np.mean(draws) - 0.5) <= 0.01


def test_bernoulli_mean_at_log3():
    env = _env(d=2, theta_star=np.array([np.log(3.0), 0.0]))
    x = np.array([1.0, 0.0])
    draws = [env.sample_reward(x, u) for u in env.sample_noise(100_000)]
    assert abs(np.mean(draws) - 0.75) <= 0.01


def test_noiseless_gaussian_identity_reward_is_exact():
    env = _env(link=IDENTITY, noise="gaussian", sigma=0.0)
    x = np.array([0.2, -0.4, 0.1])
    (z,) = env.sample_noise(1)
    assert env.sample_reward(x, z) == pytest.approx(float(x @ env.theta_star), abs=1e-15)


def test_reward_mean_converges_at_monte_carlo_rate():
    env = _env(link=IDENTITY, noise="gaussian", sigma=0.3)
    x = np.array([0.5, 0.2, -0.1])
    n = 100_000
    draws = np.array([env.sample_reward(x, z) for z in env.sample_noise(n)])
    se = 0.3 / np.sqrt(n)
    assert abs(draws.mean() - env.mean_reward(x)) <= 3 * se


def test_instantaneous_regret_examples():
    env = _env(d=2, K=2, link=IDENTITY, noise="gaussian", sigma=0.1,
               theta_star=np.array([1.0, 0.0]))
    contexts = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert instantaneous_regret(env, contexts, optimal_arm(env, contexts)) == 0.0
    assert instantaneous_regret(env, contexts, 1) == pytest.approx(1.0)

    env_log = _env(d=2, K=2, theta_star=np.array([1.0, 0.0]))
    contexts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    # mu(1) - mu(-1) = tanh(1/2)
    assert instantaneous_regret(env_log, contexts, 1) == pytest.approx(
        np.tanh(0.5), abs=1e-12
    )


def test_regret_nonnegative_and_zero_for_optimal():
    env = _env()
    for _ in range(200):
        contexts = env.sample_contexts()
        best = optimal_arm(env, contexts)
        assert instantaneous_regret(env, contexts, best) == 0.0
        for arm in range(env.K):
            assert instantaneous_regret(env, contexts, arm) >= 0.0


def test_linear_and_mu_scale_argmax_agree():
    env = _env(K=6)
    for _ in range(300):
        contexts = env.sample_contexts()
        linear = int(np.argmax(contexts @ env.theta_star))
        mu_scale = int(np.argmax(env.arm_means(contexts)))
        assert linear == mu_scale


def test_sub_gaussian_sigma():
    assert sub_gaussian_sigma("bernoulli", None) == 0.5
    assert sub_gaussian_sigma("bernoulli", 0.2) == 0.5
    assert sub_gaussian_sigma("gaussian", 0.2) == 0.2
    with pytest.raises(InvalidConfigError, match="sigma"):
        sub_gaussian_sigma("gaussian", None)


def test_environment_field_validation():
    with pytest.raises(InvalidConfigError):
        _env(theta_star=np.zeros(5))
    with pytest.raises(InvalidConfigError):
        _env(noise="poisson")
    with pytest.raises(InvalidConfigError):
        Environment.build(
            d=2, K=2, link=get_link("identity"), noise="gaussian", sigma=0.1,
            context_dist="fixed", theta_norm=1.0, master_seed=0, replication=0,
            fixed_contexts=np.array([[2.0, 0.0], [0.0, 1.0]]),
        )


@settings(max_examples=80, deadline=None)
@given(
    world=st.sampled_from([(LOGISTIC, "bernoulli"), (IDENTITY, "gaussian"), (PROBIT, "gaussian")]),
    dist=st.sampled_from(["uniform_ball", "sphere", "gaussian_normalized"]),
    given_theta=st.booleans(),
    d=st.integers(1, 6),
    n=st.integers(1, 300),
    sigma=st.floats(0.0, 2.0),
    theta_norm=st.floats(0.0, 3.0),
    master_seed=st.integers(0, 2**32 - 1),
    replications=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
)
def test_sample_log_matches_the_reference_sampler(
    world, dist, given_theta, d, n, sigma, theta_norm, master_seed, replications
):
    link, noise = world
    sig = sub_gaussian_sigma(noise, sigma)
    for rep in replications:
        if given_theta:
            theta = np.random.default_rng([master_seed, rep]).uniform(-1.0, 1.0, d)
        else:
            theta = draw_theta_star(streams.stream(master_seed, rep, streams.THETA), d, theta_norm)
        env = Environment.build(
            d=d, K=1, link=link, noise=noise, sigma=sig, context_dist=dist,
            theta_norm=theta_norm, master_seed=master_seed, replication=rep,
            theta_star=theta if given_theta else None,
        )
        assert np.array_equal(env.theta_star, theta)
        got = env.sample_log(n)
        want = reference_draw_sample(link, n, d, noise, sig, dist, theta, master_seed, rep)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


# Linear predictors where the links saturate and the sigmoid's exp(-|z|)
# leaves the normal range (it underflows to 0 past 745).
_EDGE_PREDICTORS = [0.0, -0.0, 40.0, -40.0, 745.0, -745.0, 746.0, -746.0]


@settings(max_examples=250, deadline=None)
@given(
    world=st.sampled_from(
        [(IDENTITY, "gaussian"), (LOGISTIC, "bernoulli"), (LOGISTIC, "gaussian"),
         (PROBIT, "gaussian")]
    ),
    d=st.integers(1, 40),
    n=st.integers(0, 64),
    layout=st.sampled_from(["contiguous", "fancy", "row_strided", "column_strided", "table"]),
    edges=st.lists(st.tuples(st.integers(0, 63), st.sampled_from(_EDGE_PREDICTORS)), max_size=8),
    ties=st.lists(st.integers(0, 63), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_reward_matches_one_call_per_row(world, d, n, layout, edges, ties, seed):
    # One stacked call gives every row the bits of a call on that row alone.
    link, noise_kind = world
    gen = np.random.default_rng(seed)
    theta = gen.uniform(-3.0, 3.0, d)
    theta[0] = 1.0  # a row z * e_1 has the linear predictor z
    env = Environment.build(
        d=d, K=1, link=link, noise=noise_kind, sigma=0.7, context_dist="uniform_ball",
        theta_norm=1.0, master_seed=seed, replication=0, theta_star=theta,
    )
    rows = gen.uniform(-1.0, 1.0, (n, d))
    for i, z in edges:
        if i < n:
            rows[i] = 0.0
            rows[i, 0] = z
    noise = gen.random(n) if noise_kind == "bernoulli" else gen.standard_normal(n)
    for i in ties:
        if i < n:  # a Bernoulli draw exactly at the row's mean
            noise[i] = env.mean_reward(rows[i])
    if layout == "fancy":
        order = gen.permutation(n)
        rows, noise = rows[order], noise[order]
    elif layout == "row_strided":
        wide = np.full((2 * n, d), np.nan)
        wide[::2] = rows
        rows = wide[::2]
    elif layout == "column_strided":
        wide = np.full((n, 2 * d), np.nan)
        wide[:, ::2] = rows
        rows = wide[:, ::2]
    if layout == "table":  # the harness's (rounds, K, d) form, one noise value per round
        K = 1 + seed % 4
        stack = rows[: n // K * K].reshape(-1, K, d)
        got = env.sample_reward(stack, noise[: len(stack), None])
        want = [[env.sample_reward(x, u) for x in xs] for xs, u in zip(stack, noise)]
        shape = stack.shape[:2]
    else:
        got = env.sample_reward(rows, noise)
        want = [env.sample_reward(x, u) for x, u in zip(rows, noise)]
        shape = (n,)
    want = np.array(want, dtype=float).reshape(shape)
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.shape == shape
    assert got.tobytes() == want.tobytes()

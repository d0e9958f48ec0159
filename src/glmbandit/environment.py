"""Synthetic ground-truth world: contexts, rewards, and arm means.

The environment is the only component that holds the true parameter
vector and the only implementation of the generative model: bandit runs
and the Monte Carlo validation checks both draw through it.  Rewards
follow ``Y = mu(X'theta*) + eps`` where the noise is either exact
Bernoulli deviation (logistic link only; sub-Gaussian with scale 1/2) or
centered Gaussian with a configured scale.  Gaussian rewards
are deliberately not clipped to [0, 1]: clipping would break the exact GLM
mean structure, and only sub-Gaussianity matters downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng as streams
from .errors import InvalidConfigError, check_config
from .links import LinkFunction, get_link

CONTEXT_DISTRIBUTIONS = ("uniform_ball", "sphere", "gaussian_normalized", "fixed")
NOISE_KINDS = ("bernoulli", "gaussian")

BERNOULLI_SUB_GAUSSIAN_SIGMA = 0.5

# Width of NumPy's pairwise-summation block: np.add.reduce adds a
# contiguous run shorter than this left to right and splits a longer one
# into eight interleaved partial sums.  A property of NumPy, not a setting.
PAIRWISE_BLOCK = 8


def check_world(
    link_kind: str, noise: str, sigma: float | None, context_dist: str, d: int, K: int,
    fixed_contexts=None, theta_star=None,
) -> None:
    """Reject a world the generative model cannot play, for the specs and
    ``Environment`` alike; each message names the offending config key."""
    check_config(d=d, K=K, sigma=sigma)
    get_link(link_kind)
    if noise not in NOISE_KINDS:
        raise InvalidConfigError(f"noise: unknown noise kind {noise!r}")
    if noise == "bernoulli" and link_kind != "logistic":
        raise InvalidConfigError(
            f"noise: bernoulli rewards require the logistic link, not {link_kind!r}"
        )
    sub_gaussian_sigma(noise, sigma)  # gaussian noise needs a sigma
    _check_context_dist(context_dist, fixed_contexts)
    if fixed_contexts is not None:
        try:
            shape = np.shape(fixed_contexts)
        except ValueError:  # ragged rows
            shape = None
        if shape != (K, d):
            raise InvalidConfigError("fixed_contexts must have shape (K, d)")
        if (np.linalg.norm(np.asarray(fixed_contexts, dtype=float), axis=1) > 1.0 + 1e-12).any():
            raise InvalidConfigError("fixed_contexts must lie in the unit ball")
    if theta_star is not None and np.shape(theta_star) != (d,):
        raise InvalidConfigError("theta_star must have length d")


def _check_context_dist(dist: str, fixed_contexts=None) -> None:
    """Reject an unknown context distribution, or 'fixed' without contexts."""
    if dist not in CONTEXT_DISTRIBUTIONS:
        raise InvalidConfigError(f"context_dist: unknown context distribution {dist!r}")
    if dist == "fixed" and fixed_contexts is None:
        raise InvalidConfigError("context_dist 'fixed' requires fixed_contexts")


def sub_gaussian_sigma(noise: str, sigma: float | None) -> float:
    """Noise scale entering the confidence formulas: 1/2 for Bernoulli
    rewards, the configured Gaussian scale otherwise."""
    if noise == "bernoulli":
        return BERNOULLI_SUB_GAUSSIAN_SIGMA
    if sigma is None:
        raise InvalidConfigError("sigma: gaussian noise requires sigma")
    return float(sigma)


def sample_context_batch(
    gen: np.random.Generator,
    dist: str,
    n: int,
    d: int,
    fixed_contexts: np.ndarray | None = None,
    rounds: int | None = None,
) -> np.ndarray:
    """Draw n iid feature vectors from the named distribution, norms <= 1.

    With ``rounds`` set, draw that many such batches as one
    ``(rounds, n, d)`` array, bit-identical to ``rounds`` successive
    single-batch calls on the same generator.

    Every element is rescaled by the same IEEE operations in the same
    order as ``np.linalg.norm(z, axis=-1)`` followed by ``[..., None]``
    broadcasts, so the output bits are theirs.  Rows shorter than
    ``PAIRWISE_BLOCK`` go one column at a time: NumPy sums such a row left
    to right, which a running sum of the squared columns repeats, and the
    broadcasts would pay a NumPy inner loop per row where the columns pay
    one per column.  Longer rows keep the norm and the broadcasts: NumPy
    sums them pairwise, and a column form of that order (eight partial
    sums, the fixed tree, the tail, halving above 128 elements) gives the
    same bits for d = 3..300 but is no faster: 783 against 771 us per
    (16, 100, 20) sphere chunk on a 2-vCPU host.  The result goes to a
    fresh array rather than over the draws: rescaled in place, the scratch
    freed on return sat at the top of the heap, where the allocator gave it
    back to the system, and an MLE fit on the batch paid about 60 page
    faults at n = 20 000 to take it again.
    """
    _check_context_dist(dist, fixed_contexts)
    m = 1 if rounds is None else rounds
    if dist == "fixed":
        if n != fixed_contexts.shape[0]:
            raise InvalidConfigError("fixed contexts must supply one vector per arm")
        return fixed_contexts if rounds is None else np.broadcast_to(fixed_contexts, (m, n, d))
    if dist == "uniform_ball":
        # Each batch draws its normals and then its radii from the one
        # stream, so a multi-round draw keeps that interleaving.
        z = np.empty((m, n, d))
        u = np.empty((m, n))
        for i in range(m):
            gen.standard_normal(out=z[i])
            gen.random(out=u[i])
    else:
        z = gen.standard_normal((m, n, d))
    by_column = d < PAIRWISE_BLOCK
    if by_column:
        norms = z[..., 0] * z[..., 0]
        for j in range(1, d):
            norms += z[..., j] * z[..., j]
        np.sqrt(norms, out=norms)
    else:
        norms = np.linalg.norm(z, axis=-1)
    norms[norms == 0.0] = 1.0
    if dist == "gaussian_normalized":
        # N(0, I/d) draws, rescaled onto the unit sphere when they land
        # outside the ball.
        root_d = np.sqrt(d)
        steps = [(np.divide, root_d), (np.divide, np.maximum(norms / root_d, 1.0))]
    else:
        steps = [(np.divide, norms)]
        if dist == "uniform_ball":
            steps.append((np.multiply, u ** (1.0 / d)))
    out = np.empty_like(z)
    if by_column:
        views = [(z[..., j], out[..., j]) for j in range(d)]
    else:
        views = [(z, out)]
        steps = [(op, by[..., None]) for op, by in steps]
    for src, dst in views:
        for op, by in steps:
            op(src, by, out=dst)
            src = dst
    return out[0] if rounds is None else out


def second_moment_min_eig(
    dist: str, d: int, fixed_contexts: np.ndarray | None = None
) -> float:
    """Smallest eigenvalue of E[X X'] for the named context distribution.

    By radial symmetry the first three distributions have E[X X'] = c I:
    c = 1/(d+2) for the uniform ball, 1/d for the sphere, and for the
    clipped N(0, I/d) draw c = [P(chi2_{d+2} <= d) + P(chi2_d > d)] / d
    (split E[min(|Z|^2, 1)] at the clipping boundary).  That case alone
    needs SciPy, so it imports ``scipy.special`` when it runs: chdtr and
    chdtrc are the functions that ``scipy.stats.chi2.cdf`` and ``.sf``
    evaluate, and importing them costs a fraction of ``scipy.stats``.
    """
    _check_context_dist(dist, fixed_contexts)
    if dist == "uniform_ball":
        return 1.0 / (d + 2)
    if dist == "sphere":
        return 1.0 / d
    if dist == "gaussian_normalized":
        from scipy.special import chdtr, chdtrc

        return float(chdtr(d + 2, d) + chdtrc(d, d)) / d
    gram = fixed_contexts.T @ fixed_contexts / fixed_contexts.shape[0]
    return float(np.linalg.eigvalsh(gram)[0])


def draw_theta_star(gen: np.random.Generator, d: int, norm: float) -> np.ndarray:
    """Uniform draw from the sphere of the given radius."""
    z = gen.standard_normal(d)
    z_norm = float(np.linalg.norm(z))
    if z_norm == 0.0:
        z, z_norm = np.ones(d), float(np.sqrt(d))
    return z / z_norm * norm


@dataclass
class Environment:
    d: int
    K: int
    theta_star: np.ndarray
    link: LinkFunction
    noise: str
    sigma: float
    context_dist: str
    contexts_rng: np.random.Generator
    rewards_rng: np.random.Generator
    fixed_contexts: np.ndarray | None = field(default=None)

    def __post_init__(self):
        self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.fixed_contexts is not None:
            self.fixed_contexts = np.ascontiguousarray(self.fixed_contexts, dtype=float)
        check_world(
            self.link.kind, self.noise, self.sigma, self.context_dist, self.d, self.K,
            self.fixed_contexts, self.theta_star,
        )

    @classmethod
    def build(
        cls,
        *,
        d: int,
        K: int,
        link: LinkFunction,
        noise: str,
        sigma: float,
        context_dist: str,
        theta_norm: float,
        master_seed: int,
        replication: int,
        fixed_contexts: np.ndarray | None = None,
        theta_star: np.ndarray | None = None,
    ) -> Environment:
        """Construct the world for one replication, with its own streams."""
        if theta_star is None:
            theta_gen = streams.stream(master_seed, replication, streams.THETA)
            theta_star = draw_theta_star(theta_gen, d, theta_norm)
        return cls(
            d=d,
            K=K,
            theta_star=theta_star,
            link=link,
            noise=noise,
            sigma=sigma,
            context_dist=context_dist,
            contexts_rng=streams.stream(master_seed, replication, streams.CONTEXTS),
            rewards_rng=streams.stream(master_seed, replication, streams.REWARDS),
            fixed_contexts=fixed_contexts,
        )

    def sample_contexts(self, rounds: int | None = None) -> np.ndarray:
        """One round's K feature vectors, iid across arms and rounds, or
        the next ``rounds`` rounds' as a ``(rounds, K, d)`` array."""
        return sample_context_batch(
            self.contexts_rng, self.context_dist, self.K, self.d, self.fixed_contexts, rounds
        )

    def mean_reward(self, x: np.ndarray) -> float:
        return float(self.link.mu(float(x @ self.theta_star)))

    def arm_means(self, contexts: np.ndarray) -> np.ndarray:
        """Mean reward of every arm; a ``(rounds, K, d)`` stack gives
        ``(rounds, K)``, row for row equal to one round's means."""
        return np.asarray(self.link.mu(contexts @ self.theta_star), dtype=float)

    def sample_noise(self, rounds: int) -> np.ndarray:
        """The reward noise of the next ``rounds`` rounds: uniforms for
        Bernoulli rewards, standard normals for Gaussian ones.

        One value per round, whichever arm is chosen, so every policy of a
        replication sees the same noise (a paired design). One vector call
        gives the same values as ``rounds`` scalar calls.
        """
        if self.noise == "bernoulli":
            return self.rewards_rng.random(rounds)
        return self.rewards_rng.standard_normal(rounds)

    def rewards(self, means: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Rewards for the given means and ``sample_noise`` values:
        ``u < mean`` for Bernoulli rewards and ``mean + sigma * z`` for
        Gaussian ones."""
        if self.noise == "bernoulli":
            return np.asarray(noise < means, dtype=float)
        return means + self.sigma * noise

    def sample_reward(self, x: np.ndarray, noise: float | np.ndarray) -> float | np.ndarray:
        """The reward for the chosen feature vector, given the round's value
        from ``sample_noise``; or, for a stack of such vectors (shape
        ``(..., d)``) and noise that broadcasts against its leading shape,
        the rewards as an array of that shape, one link call for them all.

        A stacked row's linear predictor comes from the (1 x d) @ (d x 1)
        product of ``np.matmul``, which makes the same ``ddot`` call as one
        vector's ``x @ theta*``, so every reward has the bits of a call on
        its row alone. A plain ``xs @ theta*`` (gemv) sums in another order.
        """
        if np.ndim(x) == 1:
            mean = self.mean_reward(x)
            if self.noise == "bernoulli":  # ``rewards``' rule on plain floats
                return float(float(noise) < mean)
            return float(self.rewards(mean, noise))
        z = np.matmul(x[..., None, :], self.theta_star[:, None])[..., 0, 0]
        return self.rewards(np.asarray(self.link.mu(z), dtype=float), noise)

    def sample_log(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n iid (context, reward) pairs plus the realized noise ``y - mean``.

        Gaussian noise is sigma times a unit normal draw, so scaling sigma
        scales the realized noise linearly for a fixed seed.
        """
        xs = sample_context_batch(
            self.contexts_rng, self.context_dist, n, self.d, self.fixed_contexts
        )
        means = self.arm_means(xs)
        ys = self.rewards(means, self.sample_noise(n))
        return xs, ys, ys - means

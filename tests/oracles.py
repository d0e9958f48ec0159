"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: the MLE oracle is
first-order only (no Newton, no Fisher solves), the reference Newton loop
keeps the plain per-step evaluations that the library's loop reuses or
skips, and the eigenvalue oracle brackets a root of the characteristic
polynomial instead of calling a symmetric eigensolver.
"""

from __future__ import annotations

import numpy as np


def _log_partition(kind: str, z: np.ndarray) -> np.ndarray:
    # Antiderivative of the mean map: its gradient ascent below climbs the
    # GLM log-likelihood sum(y z - m(z)).
    if kind == "identity":
        return 0.5 * z * z
    if kind == "logistic":
        return np.logaddexp(0.0, z)
    raise ValueError(f"no log partition for link {kind!r}")


def grad_ascent_mle(
    link,
    xs: np.ndarray,
    ys: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> np.ndarray:
    """First-order ascent with a line search, run to score sup-norm ``tol``.

    Step lengths start from the Barzilai-Borwein spectral estimate and are
    safeguarded by Armijo backtracking; everything stays gradient-only so
    the path is independent of the Newton solver it checks.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    theta = np.zeros(xs.shape[1])

    def loglik(t):
        z = xs @ t
        return float(ys @ z - _log_partition(link.kind, z).sum())

    def grad(t):
        return xs.T @ (ys - link.mu(xs @ t))

    value = loglik(theta)
    g = grad(theta)
    prev_theta = prev_g = None
    for _ in range(max_iter):
        gnorm = float(np.abs(g).max())
        if gnorm <= tol:
            return theta
        step = 1.0
        if prev_theta is not None:
            s = theta - prev_theta
            y = g - prev_g  # concave objective: s'y < 0 away from the optimum
            sy = float(s @ y)
            if sy < 0:
                step = -float(s @ s) / sy
        step = float(np.clip(step, 1e-12, 1e8))
        prev_theta, prev_g = theta, g
        if gnorm > 1e-6:
            # Armijo backtracking on the likelihood.
            gg = float(g @ g)
            cand, cand_value = theta, value
            while step > 1e-18:
                cand = theta + step * g
                cand_value = loglik(cand)
                if cand_value >= value + 1e-4 * step * gg:
                    break
                step *= 0.5
            theta, value = cand, cand_value
            g = grad(theta)
        else:
            # Terminal phase: likelihood gains fall below one ulp of the
            # objective, so backtrack on the score norm instead.
            while step > 1e-18:
                cand = theta + step * g
                cand_g = grad(cand)
                if float(np.abs(cand_g).max()) < gnorm:
                    break
                step *= 0.5
            theta, g = cand, cand_g
    raise RuntimeError("gradient-ascent oracle did not converge")


def bisect_min_eigenvalue(a: np.ndarray, tol: float = 1e-9) -> float:
    """Smallest root of det(A - lambda I) by scan-and-bisect.

    For symmetric A the determinant is positive for lambda below the
    smallest eigenvalue and crosses zero there, and the smallest eigenvalue
    never exceeds the smallest diagonal entry (Rayleigh quotient at a basis
    vector), which bounds the scan.
    """
    a = np.asarray(a, dtype=float)
    radii = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    lo = float((np.diag(a) - radii).min()) - 1.0
    hi_limit = float(np.diag(a).min()) + tol

    def det(lam):
        return float(np.linalg.det(a - lam * np.eye(a.shape[0])))

    steps = 20_000
    grid = np.linspace(lo, hi_limit, steps)
    hi = None
    for lam in grid:
        if det(lam) <= 0.0:
            hi = lam
            break
        lo = lam
    if hi is None:
        raise RuntimeError("no sign change found; matrix may be ill-conditioned")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if det(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_mle_fit(link, xs, ys, warm_start=None, tolerance=1e-8, max_iterations=100):
    """The damped Newton loop as first written, kept as the bit-identity
    reference for ``mle_fit``: every iteration evaluates the Fisher weights
    with a fresh ``mu_dot`` pass, every candidate's score with a fresh
    ``mu`` pass, and the eigenvalue floor with an eigendecomposition."""
    from glmbandit.design import min_eigenvalue
    from glmbandit.errors import SingularFisherError
    from glmbandit.mle import FISHER_EIGENVALUE_FLOOR, FISHER_RIDGE, MleResult

    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)

    def score_vector(theta):
        return xs.T @ (ys - link.mu(xs @ theta))

    n, d = xs.shape
    if n < 1:
        raise ValueError("mle_fit needs at least one observation")
    theta = np.zeros(d) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    if theta.shape != (d,):
        raise ValueError(f"warm start must have length {d}")

    score = score_vector(theta)
    snorm = float(np.abs(score).max())
    iterations = 0
    while iterations < max_iterations and snorm > tolerance:
        iterations += 1
        weights = link.mu_dot(xs @ theta)
        fisher = (xs * weights[:, None]).T @ xs
        if min_eigenvalue(fisher) < FISHER_EIGENVALUE_FLOOR:
            fisher = fisher + FISHER_RIDGE * np.eye(d)
            if min_eigenvalue(fisher) < FISHER_EIGENVALUE_FLOOR:
                raise SingularFisherError(
                    f"Fisher matrix singular at iteration {iterations} (n={n}, d={d})"
                )
        step = np.linalg.solve(fisher, score)

        best_theta, best_score, best_norm = None, None, np.inf
        scale = 1.0
        for _ in range(40):
            cand = theta + scale * step
            cand_score = score_vector(cand)
            cand_norm = float(np.abs(cand_score).max())
            if cand_norm < best_norm:
                best_theta, best_score, best_norm = cand, cand_score, cand_norm
            if cand_norm < snorm:
                break
            scale *= 0.5
        theta, score, snorm = best_theta, best_score, best_norm

    return MleResult(
        theta=theta,
        iterations=iterations,
        converged=snorm <= tolerance,
        final_score_norm=snorm,
    )


def random_logistic_instance(link, gen: np.random.Generator, d_max=5, n_max=200):
    """One well-posed random logistic data set (resampled until the MLE is
    comfortably finite, so separation cannot make comparisons flaky)."""
    from glmbandit.mle import mle_fit

    while True:
        d = int(gen.integers(1, d_max + 1))
        n = int(gen.integers(20 * d, n_max + 1))
        z = gen.standard_normal((n, d))
        z /= np.maximum(np.linalg.norm(z, axis=1)[:, None], 1e-12)
        xs = z * (gen.random(n) ** (1.0 / d))[:, None]
        theta_star = gen.uniform(-1.0, 1.0, size=d)
        ys = (gen.random(n) < link.mu(xs @ theta_star)).astype(float)
        fit = mle_fit(link, xs, ys)
        if fit.converged and np.abs(fit.theta).max() <= 10.0:
            return xs, ys, fit

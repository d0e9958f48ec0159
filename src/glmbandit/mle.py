"""Online maximum-likelihood estimation for the GLM reward model.

The estimate solves the score equation

    sum_i (y_i - mu(x_i' theta)) x_i = 0

by damped Newton steps with the Fisher matrix
``sum_i mu'(x_i' theta) x_i x_i'`` as the step matrix.  The log-likelihood
is concave for the built-in links, so Newton with step halving is the
standard solver; bandit callers warm-start from the previous round's
estimate, which keeps per-round cost to one or two iterations.

Each Newton iteration costs one link pass per candidate tried (``x'theta``
and ``mu`` once; the accepted candidate's values give the next Fisher
weights), a floor check on the Fisher matrix that a Gershgorin bound
settles without an eigendecomposition unless the matrix is near singular,
and one ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import min_eigenvalue
from .errors import SingularFisherError
from .links import LinkFunction

FISHER_EIGENVALUE_FLOOR = 1e-10
FISHER_RIDGE = 1e-8

_MAX_HALVINGS = 40
_EPS = float(np.finfo(float).eps)
_ROUNDING_SLACK = 8.0


@dataclass
class MleResult:
    theta: np.ndarray
    iterations: int
    converged: bool
    final_score_norm: float


def _link_pass(link: LinkFunction, xs: np.ndarray, ys: np.ndarray, theta: np.ndarray):
    """One link evaluation at theta: the linear predictor, the mean, the score."""
    z = xs @ theta
    mu = link.mu(z)
    return z, mu, xs.T @ (ys - mu)


def _clears_floor(fisher: np.ndarray) -> bool:
    """True when a Gershgorin bound proves min_eigenvalue(fisher) >= the floor.

    Every eigenvalue of a symmetric F lies within sum_{j != i} |F_ij| of some
    F_ii, so min_i (2 F_ii - sum_j |F_ij|) bounds lambda_min from below.  For
    a positive semidefinite F every |F_ij| <= max_i F_ii, so the rounding of
    the row sums and the eigensolver's backward error (a small multiple of
    d eps ||F||_2 with ||F||_2 <= d max_i F_ii) both stay inside the
    allowance subtracted below.  A False answer proves nothing: the caller
    then asks the eigensolver.  A NaN or infinite entry makes its row's
    bound NaN or -inf, which NumPy's min propagates, so the answer is False.
    """
    d = fisher.shape[0]
    diag = fisher.diagonal()
    bound = (2.0 * diag - np.abs(fisher).sum(axis=1)).min()
    allowance = _ROUNDING_SLACK * d * d * _EPS * max(diag.tolist())
    return bool(bound - allowance >= FISHER_EIGENVALUE_FLOOR)


def mle_fit(
    link: LinkFunction,
    xs: np.ndarray,
    ys: np.ndarray,
    warm_start: np.ndarray | None = None,
    tolerance: float = 1e-8,
    max_iterations: int = 100,
) -> MleResult:
    """Solve the score equation; convergence is sup-norm of the score.

    Never raises on non-convergence: the returned result carries the last
    iterate with ``converged=False`` and callers decide whether to proceed
    with it.  Raises SingularFisherError only if the step matrix stays
    below the eigenvalue floor even after adding a small ridge.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n, d = xs.shape
    if n < 1:
        raise ValueError("mle_fit needs at least one observation")
    theta = np.zeros(d) if warm_start is None else np.asarray(warm_start, dtype=float).copy()
    if theta.shape != (d,):
        raise ValueError(f"warm start must have length {d}")

    z, mu, score = _link_pass(link, xs, ys, theta)
    snorm = float(np.abs(score).max())
    iterations = 0
    while iterations < max_iterations and snorm > tolerance:
        iterations += 1
        # The Fisher weights reuse the accepted iterate's pass: for the
        # logistic link mu' = mu (1 - mu) exactly as _logistic_dot computes it.
        weights = mu * (1.0 - mu) if link.kind == "logistic" else link.mu_dot(z)
        fisher = (xs * weights[:, None]).T @ xs
        if not _clears_floor(fisher) and min_eigenvalue(fisher) < FISHER_EIGENVALUE_FLOOR:
            fisher = fisher + FISHER_RIDGE * np.eye(d)
            if min_eigenvalue(fisher) < FISHER_EIGENVALUE_FLOOR:
                raise SingularFisherError(
                    f"Fisher matrix singular at iteration {iterations} (n={n}, d={d})"
                )
        step = np.linalg.solve(fisher, score)

        # Step halving until the score norm decreases; keep the best
        # candidate seen so a stalled search still makes the least-bad move.
        best, best_norm = None, np.inf
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = theta + scale * step
            cand_z, cand_mu, cand_score = _link_pass(link, xs, ys, cand)
            cand_norm = float(np.abs(cand_score).max())
            if cand_norm < best_norm:
                best, best_norm = (cand, cand_z, cand_mu, cand_score), cand_norm
            if cand_norm < snorm:
                break
            scale *= 0.5
        (theta, z, mu, score), snorm = best, best_norm

    return MleResult(
        theta=theta,
        iterations=iterations,
        converged=snorm <= tolerance,
        final_score_norm=snorm,
    )

"""Online maximum-likelihood estimation for the GLM reward model.

The estimate solves the score equation

    sum_i (y_i - mu(x_i' theta)) x_i = 0

by damped Newton steps with the Fisher matrix
``sum_i mu'(x_i' theta) x_i x_i'`` as the step matrix.  The log-likelihood
is concave for the built-in links, so Newton with step halving is the
standard solver. A bandit learner fits only when its last fit cannot
certify the round's decision (``policies.GlmFit``), warm-started from that
fit. It takes one Newton step first (``max_iterations=1``) and certifies
again from that iterate; only when that fails does it resume the fit for
the rest of the MLE_MAX_ITERATIONS cap, which gives the bits of one call.
The result carries the final score vector, so the learner can keep the
score at its iterate current as its log grows.

Each Newton iteration costs a floor check on the Fisher matrix that a
Gershgorin bound settles unless the matrix is near singular (then one
``eigvalsh``, whose eigenvalue settles the ridged copy's check by Weyl's
inequality unless that too is near singular), one ``solve``, and one link
pass (``x'theta`` and ``mu`` once; the accepted candidate's values give the
next Fisher weights) for the full step. Only when the full step is rejected
do the halvings follow, a batch of candidates per link pass: on a small log
all of them in one pass, on a large one a single candidate per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import min_eigenvalue, solve
from .errors import SingularFisherError
from .links import LinkFunction

FISHER_EIGENVALUE_FLOOR = 1e-10
FISHER_RIDGE = 1e-8
MLE_TOLERANCE = 1e-8  # sup-norm of the score at a converged fit
MLE_MAX_ITERATIONS = 100  # Newton iterations in one fit, resumed or not

# Candidate x row elements per batched pass of the step halving, which
# bounds the batch's temporaries: a large log gets one candidate per pass.
HALVING_BATCH_ELEMENTS = 32_768

_MAX_HALVINGS = 40
_HALVINGS = 0.5 ** np.arange(_MAX_HALVINGS)  # exact powers of two
_EPS = float(np.finfo(float).eps)
_ROUNDING_SLACK = 8.0


@dataclass
class MleResult:
    theta: np.ndarray
    iterations: int
    converged: bool
    final_score_norm: float
    score: np.ndarray  # sum_i (y_i - mu(x_i' theta)) x_i at the returned theta


def _link_pass(link: LinkFunction, xs: np.ndarray, ys: np.ndarray, theta: np.ndarray):
    """One link evaluation at theta: the linear predictor, the mean, the score."""
    z = xs.dot(theta)
    mu = link.mu(z)
    return z, mu, xs.T.dot(ys - mu)


def _sup_norm(score: np.ndarray) -> float:
    """``float(np.abs(score).max())`` without the reduction's call overhead.

    Python's max skips a NaN that is not first, so a NaN sum (a NaN entry,
    or +inf next to -inf) is settled by a check for NaN entries.
    """
    values = score.tolist()
    norm = max(map(abs, values))
    if math.isnan(sum(values)) and any(map(math.isnan, values)):
        return math.nan
    return norm


def _line_search(
    link: LinkFunction,
    xs: np.ndarray,
    ys: np.ndarray,
    theta: np.ndarray,
    step: np.ndarray,
    snorm: float,
):
    """Step halving: the first of theta + 0.5**k step, k = 0, 1, ..., whose
    score norm falls below ``snorm``, else the best one tried.

    Returns the accepted candidate's (theta, z, mu, score) and score norm.
    The full step is tried alone; the halvings are evaluated a batch at a
    time with stacked matmuls, whose slices are the same gemv calls as a
    single candidate's pass, and the rule is replayed over the batch's norms.
    """
    cand = theta + step
    z, mu, score = _link_pass(link, xs, ys, cand)
    norm = _sup_norm(score)
    if norm < snorm:
        return (cand, z, mu, score), norm
    best, best_norm = ((cand, z, mu, score), norm) if norm < np.inf else (None, np.inf)
    per_batch = max(1, HALVING_BATCH_ELEMENTS // len(xs))
    for first in range(1, _MAX_HALVINGS, per_batch):
        cands = theta + _HALVINGS[first : first + per_batch, None] * step
        zs = np.matmul(xs, cands[:, :, None])[:, :, 0]
        mus = link.mu(zs)
        scores = np.matmul(xs.T, (ys - mus)[:, :, None])[:, :, 0]
        for j, norm in enumerate(np.abs(scores).max(axis=1).tolist()):
            if norm < best_norm:
                best, best_norm = (cands[j], zs[j], mus[j], scores[j]), norm
            if norm < snorm:
                return best, best_norm
    return best, best_norm


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


def _ridge_clears_floor(lam: float, ridged: np.ndarray) -> bool:
    """True when Weyl's inequality, lambda_min(F + r I) = lambda_min(F) + r,
    proves min_eigenvalue(ridged) >= the floor from lam = min_eigenvalue(F).
    The allowance covers both eigensolves' backward error and the ridge's
    rounding, as ``_clears_floor``'s does, through ||F||_2 <= sum_ij |F_ij|;
    a NaN or infinite entry or lam makes the answer False."""
    allowance = 2.0 * _ROUNDING_SLACK * ridged.shape[0] * _EPS * float(np.abs(ridged).sum())
    return lam + FISHER_RIDGE - allowance >= FISHER_EIGENVALUE_FLOOR


def mle_fit(
    link: LinkFunction,
    xs: np.ndarray,
    ys: np.ndarray,
    warm_start: np.ndarray | None = None,
    tolerance: float = MLE_TOLERANCE,
    max_iterations: int = MLE_MAX_ITERATIONS,
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
    snorm = _sup_norm(score)
    iterations = 0
    while iterations < max_iterations and snorm > tolerance:
        iterations += 1
        # The Fisher weights reuse the accepted iterate's pass: for the
        # logistic link mu' = (1 - mu) mu, the product _logistic_dot takes.
        if link.kind == "logistic":
            weights = 1.0 - mu
            weights *= mu
        else:
            weights = link.mu_dot(z)
        fisher = (xs * weights[:, None]).T.dot(xs)
        if not _clears_floor(fisher) and (lam := min_eigenvalue(fisher)) < FISHER_EIGENVALUE_FLOOR:
            fisher = fisher + FISHER_RIDGE * np.eye(d)
            if (not _ridge_clears_floor(lam, fisher)
                    and min_eigenvalue(fisher) < FISHER_EIGENVALUE_FLOOR):
                raise SingularFisherError(
                    f"Fisher matrix singular at iteration {iterations} (n={n}, d={d})"
                )
        step = solve(fisher, score)

        (theta, z, mu, score), snorm = _line_search(link, xs, ys, theta, step, snorm)

    return MleResult(
        theta=theta,
        iterations=iterations,
        converged=snorm <= tolerance,
        final_score_norm=snorm,
        score=score,
    )

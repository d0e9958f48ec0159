"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: the MLE oracle is
first-order only (no Newton, no Fisher solves), the reference Newton loop
keeps the plain per-step evaluations that the library's loop reuses,
batches or skips, the reference sigmoid keeps a fresh temporary per step,
the reference context draw normalises rows by ``np.linalg.norm`` and
broadcasts, and the eigenvalue oracle brackets a root of the characteristic
polynomial instead of calling a symmetric eigensolver.  The module also
keeps the helpers that only tests use (score vectors, UCB means and
widths, per-index stage scores, regret of one round, scalar reward draws,
the SupCB-GLM round recorder and partition check, the inverse consistency
error, the trace file reader), and as references the CSV writers as first
written, row by row, the instrumented UCB-GLM runner's own loop, the
theorem1 check's fit-everything loop, the validation checks' own sampler,
the harness's per-round simulation loop
and the GLM learners as first written, each with its own refit, with
SupCB-GLM also in its first fit-every-stage order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from glmbandit.design import DesignState, min_eigenvalue, weighted_norms
from glmbandit.errors import InvalidConfigError, SingularDesignError
from glmbandit.links import LOGISTIC, LinkFunction
from glmbandit.mle import mle_fit
from glmbandit.policies import BasePolicy, PolicyConfig, greedy_argmax, stage_decision


# mu(z) = sigma(z + 3): a logistic-kind link whose mu' is not even, so the
# certificates' bound does not hold for it.
SHIFTED_LOGISTIC = LinkFunction(
    kind="logistic",
    mu=lambda z: LOGISTIC.mu(np.asarray(z, dtype=float) + 3.0),
    mu_dot=lambda z: LOGISTIC.mu_dot(np.asarray(z, dtype=float) + 3.0),
    mu_ddot=lambda z: LOGISTIC.mu_ddot(np.asarray(z, dtype=float) + 3.0),
    lipschitz_bound=0.25,
    curvature_bound=0.25,
)


def _log_partition(kind: str, z: np.ndarray) -> np.ndarray:
    # Antiderivative of the mean map: its gradient ascent below climbs the
    # GLM log-likelihood sum(y z - m(z)).
    if kind == "identity":
        return 0.5 * z * z
    if kind == "logistic":
        return np.logaddexp(0.0, z)
    if kind == "probit":
        # d/dz [z Phi(z) + phi(z)] = Phi(z) + z phi(z) - z phi(z) = Phi(z).
        return z * ndtr(z) + np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
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


def reference_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic mean as first written, one fresh temporary per step,
    kept as the bit-identity reference for ``links._sigmoid``."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def reference_sample_context_batch(
    gen: np.random.Generator, dist: str, n: int, d: int, rounds: int | None = None
) -> np.ndarray:
    """The iid context draw as first written, row norms by ``np.linalg.norm``
    and rescaling by ``[..., None]`` broadcasts into fresh arrays, kept as
    the bit-identity reference for ``sample_context_batch``."""
    m = 1 if rounds is None else rounds
    if dist == "uniform_ball":
        z = np.empty((m, n, d))
        u = np.empty((m, n))
        for i in range(m):
            gen.standard_normal(out=z[i])
            gen.random(out=u[i])
    else:
        z = gen.standard_normal((m, n, d))
    norms = np.linalg.norm(z, axis=-1)
    norms[norms == 0.0] = 1.0
    if dist == "sphere":
        out = z / norms[..., None]
    elif dist == "uniform_ball":
        out = z / norms[..., None] * (u ** (1.0 / d))[..., None]
    else:
        scaled = norms / np.sqrt(d)
        shrink = np.maximum(scaled, 1.0)
        out = z / np.sqrt(d) / shrink[..., None]
    return out[0] if rounds is None else out


def reference_mle_fit(link, xs, ys, warm_start=None, tolerance=1e-8, max_iterations=100):
    """The damped Newton loop as first written, kept as the bit-identity
    reference for ``mle_fit``: every iteration evaluates the Fisher weights
    with a fresh ``mu_dot`` pass, every candidate's score with a fresh
    ``mu`` pass, and the eigenvalue floor with an eigendecomposition."""
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
        score=score,
    )


def random_logistic_instance(link, gen: np.random.Generator, d_max=5, n_max=200):
    """One well-posed random logistic data set (resampled until the MLE is
    comfortably finite, so separation cannot make comparisons flaky)."""
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


# Test-only helpers that once lived in the library ---------------------------


def ucb_scores(
    contexts: np.ndarray, theta: np.ndarray, v_inv: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Mean estimates x'theta and widths alpha * |x|_{V^{-1}} per arm."""
    return contexts @ theta, alpha * weighted_norms(contexts, v_inv)


def score_vector(link, xs, ys, theta):
    """Gradient of the GLM log-likelihood at theta."""
    return xs.T @ (ys - link.mu(xs @ theta))


def link_eval(link, z: float) -> float:
    """Evaluate mu(z) for a scalar argument."""
    return float(link.mu(z))


def scalar_reward(env, x: np.ndarray) -> float:
    """One round's reward with its noise drawn by a scalar generator call,
    as the environment drew rewards before it took pre-drawn noise tapes."""
    mean = env.mean_reward(x)
    if env.noise == "bernoulli":
        return float(env.rewards_rng.random() < mean)
    return mean + env.sigma * float(env.rewards_rng.standard_normal())


def _inverse_or_none(design: DesignState) -> np.ndarray | None:
    """``design.inverse()``, or None while V is below the eigenvalue floor."""
    try:
        return design.inverse()
    except SingularDesignError:
        return None


def consistency_error(state) -> float:
    """Max-entry deviation of V @ inverse() from the identity for a
    DesignState; raises SingularDesignError below the eigenvalue floor."""
    return float(np.abs(state.V @ state.inverse() - np.eye(state.d)).max())


def reference_trace_csv(trace) -> str:
    """A trace file's text as ``harness.emit_trace_csv`` first wrote it, one
    row and one element at a time; the byte-identity reference for the
    column-wise writer."""
    from glmbandit.harness import TRACE_HEADER, fmt

    lines = [TRACE_HEADER]
    for i in range(len(trace.ts)):
        stage = "" if trace.stages[i] < 0 else str(int(trace.stages[i]))
        lines.append(
            ",".join(
                (
                    str(int(trace.ts[i])),
                    str(int(trace.arms[i])),
                    str(int(trace.optimal_arms[i])),
                    fmt(float(trace.rewards[i])),
                    fmt(float(trace.inst_regret[i])),
                    fmt(float(trace.cum_regret[i])),
                    str(int(trace.mle_converged[i])),
                    stage,
                )
            )
        )
    return "\n".join(lines) + "\n"


def reference_summary_csv(result) -> str:
    """summary.csv's text as ``harness.emit_csv`` first wrote it, one row
    and one element at a time; the byte-identity reference for the
    column-wise writer."""
    from glmbandit.harness import SUMMARY_HEADER, fmt

    summary = result.summary
    lines = [SUMMARY_HEADER]
    for name in result.spec.algorithms:
        stat = summary.stats[name]
        for i, t in enumerate(summary.ts):
            lines.append(
                ",".join(
                    (
                        name,
                        str(int(t)),
                        fmt(float(stat["mean"][i])),
                        fmt(float(stat["std"][i])),
                        fmt(float(stat["min"][i])),
                        fmt(float(stat["max"][i])),
                        str(summary.n_reps),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def parse_trace_csv(path: str):
    """Read a trace file written by ``harness.emit_trace_csv`` back into a
    RegretTrace (algorithm and replication are not in the file)."""
    from glmbandit.harness import TRACE_HEADER, RegretTrace

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise InvalidConfigError(f"{path} does not carry the trace schema")
    cols: list[list] = [[] for _ in range(8)]
    for line in lines[1:]:
        parts = line.split(",")
        cols[0].append(int(parts[0]))
        cols[1].append(int(parts[1]))
        cols[2].append(int(parts[2]))
        cols[3].append(float(parts[3]))
        cols[4].append(float(parts[4]))
        cols[5].append(float(parts[5]))
        cols[6].append(int(parts[6]))
        cols[7].append(-1 if parts[7] == "" else int(parts[7]))
    return RegretTrace(
        algorithm="",
        replication=-1,
        ts=np.array(cols[0], dtype=int),
        arms=np.array(cols[1], dtype=int),
        optimal_arms=np.array(cols[2], dtype=int),
        rewards=np.array(cols[3], dtype=float),
        inst_regret=np.array(cols[4], dtype=float),
        cum_regret=np.array(cols[5], dtype=float),
        mle_converged=np.array(cols[6], dtype=int),
        stages=np.array(cols[7], dtype=int),
    )


def optimal_arm(env, contexts: np.ndarray) -> int:
    # mu is strictly increasing, so the linear scale has the same argmax.
    return int(np.argmax(contexts @ env.theta_star))


def instantaneous_regret(env, contexts: np.ndarray, chosen: int) -> float:
    means = env.arm_means(contexts)
    return float(means.max() - means[chosen])


class SupCbRounds:
    """The rounds a SupCB-GLM policy files into F and into each stage set
    Psi_0..Psi_S, recorded by wrapping the policy's ``update``."""

    def __init__(self, policy):
        self.init_rounds: list[int] = []
        self.stage_sets: list[list[int]] = [[] for _ in range(policy.S + 1)]
        update = policy.update

        def recording_update(t, arm, x, y):
            # select() left the receiving stage in _pending; None means F.
            pending = policy._pending
            (self.init_rounds if pending is None else self.stage_sets[pending]).append(t)
            update(t, arm, x, y)

        policy.update = recording_update

    def count(self) -> int:
        return len(self.init_rounds) + sum(len(s) for s in self.stage_sets)


def partition_ok(rounds: SupCbRounds, t: int) -> bool:
    """Recorded F and stage sets partition {1..t} with no overlap."""
    groups = [rounds.init_rounds, *rounds.stage_sets]
    seen: set[int] = set()
    total = 0
    for group in groups:
        seen.update(group)
        total += len(group)
    return total == t and seen == set(range(1, t + 1))


@dataclass
class ArmScores:
    """Per-arm mean estimates and exploration widths."""

    means: np.ndarray
    widths: np.ndarray
    theta: np.ndarray
    mle: object


def cb_glm_scores(
    index_set,
    contexts: np.ndarray,
    alpha: float,
    xs: np.ndarray,
    ys: np.ndarray,
    link,
    *,
    warm_start: np.ndarray | None = None,
    tolerance: float = 1e-8,
    max_iterations: int = 100,
) -> ArmScores:
    """SupCB-GLM stage scores computed from exactly the indexed observations.

    ``xs``/``ys`` are the full observation log in round order; the index
    set selects 0-based positions.  The restricted design must be
    invertible.
    """
    from glmbandit.design import MIN_EIGENVALUE_FLOOR

    indices = np.asarray(sorted(index_set), dtype=int)
    if indices.size == 0:
        raise InvalidConfigError("cb_glm_scores needs a nonempty index set")
    sub_x = xs[indices]
    sub_y = ys[indices]
    v = sub_x.T @ sub_x
    if min_eigenvalue(v) < MIN_EIGENVALUE_FLOOR:
        raise SingularDesignError(
            f"restricted design over {indices.size} observations is singular"
        )
    result = mle_fit(link, sub_x, sub_y, warm_start, tolerance, max_iterations)
    means, widths = ucb_scores(contexts, result.theta, np.linalg.inv(v), alpha)
    return ArmScores(means=means, widths=widths, theta=result.theta, mle=result)


def reference_run_ucb_glm_instrumented(
    link,
    d: int,
    K: int,
    T: int,
    delta: float,
    sigma: float | None,
    replications: int,
    *,
    noise: str = "bernoulli",
    context_dist: str = "uniform_ball",
    theta_norm: float = 1.0,
    tau: int | None = None,
    kappa: float | None = None,
    master_seed: int = 0,
):
    """The instrumented UCB-GLM runner as first written, with its own round
    loop and its own tuning, refitting on every round past tau; the
    reference for ``validation.run_ucb_glm_instrumented``, which drives the
    harness's ``simulate`` and refits only where its interval straddles the
    radius. Its ``lo`` and ``hi`` are both the exact norm of each round's
    fit, and ``within`` judges those norms."""
    from glmbandit import rng as streams
    from glmbandit.design import weighted_norm
    from glmbandit.environment import (
        BERNOULLI_SUB_GAUSSIAN_SIGMA,
        Environment,
        second_moment_min_eig,
    )
    from glmbandit.links import compute_kappa
    from glmbandit.policies import alpha_from_rule, tau_for_ucb
    from glmbandit.validation import UcbRunStats, estimate_ellipsoid_bound

    if noise == "bernoulli":
        sig = BERNOULLI_SUB_GAUSSIAN_SIGMA
    elif sigma is None:
        raise InvalidConfigError("gaussian noise requires sigma")
    else:
        sig = float(sigma)
    kap = kappa if kappa is not None else compute_kappa(link, theta_norm)
    sigma0 = second_moment_min_eig(context_dist, d)
    tau_val = tau if tau is not None else tau_for_ucb(d, delta, sigma0)
    if tau_val >= T:
        raise InvalidConfigError(f"tau={tau_val} leaves no rounds below T={T}")
    alpha = alpha_from_rule(
        "theorem2", T=T, d=d, K=K, delta=delta, sigma=sig, kappa=kap
    )
    config = PolicyConfig(
        T=T, d=d, K=K, alpha=alpha, tau=tau_val, kappa=kap, sigma=sig, delta=delta,
        alpha_rule="theorem2",
    )
    runs = []
    for rep in range(replications):
        env = Environment.build(
            d=d, K=K, link=link, noise=noise, sigma=sig, context_dist=context_dist,
            theta_norm=theta_norm, master_seed=master_seed, replication=rep,
        )
        policy = ReferenceUcbGlmPolicy(
            config, link, streams.stream(master_seed, rep, streams.POLICY)
        )
        ts, delta_norms, widths = [], [], []
        for t in range(1, T + 1):
            contexts = env.sample_contexts()
            arm = policy.select(t, contexts)
            x = contexts[arm]
            if t > tau_val:
                diff = policy.theta - env.theta_star
                ts.append(t)
                delta_norms.append(weighted_norm(diff, policy.design.V))
                widths.append(weighted_norm(x, policy.design.inverse()))
            y = scalar_reward(env, x)
            policy.update(t, arm, x, y)
        norms = np.array(delta_norms)
        radii = np.array([estimate_ellipsoid_bound(d, t, sig, kap, delta) for t in ts])
        runs.append(
            UcbRunStats(
                d=d,
                tau=tau_val,
                sigma=sig,
                kappa=kap,
                delta=delta,
                lambda_min_init=float(policy.lambda_min_init),
                ts=np.array(ts, dtype=int),
                lo=norms,
                hi=norms,
                chosen_widths=np.array(widths),
                n_nonconverged=policy.n_nonconverged,
                within=norms <= radii + 1e-12,
            )
        )
    return runs


def reference_draw_sample(
    link,
    n: int,
    d: int,
    noise: str,
    sigma: float,
    context_dist: str,
    theta: np.ndarray,
    master_seed: int,
    replication: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n iid (context, reward) pairs plus the realized noise vector.

    Gaussian noise is sigma times a unit normal draw, so scaling sigma
    scales the realized noise linearly for a fixed seed.

    The validation checks' own sampler as first written, with its own
    stream layout and reward formula; the bit-identity reference for
    ``Environment.sample_log``, which the checks now draw through.
    """
    from glmbandit import rng as streams

    ctx_gen = streams.stream(master_seed, replication, streams.CONTEXTS)
    rew_gen = streams.stream(master_seed, replication, streams.REWARDS)
    xs = reference_sample_context_batch(ctx_gen, context_dist, n, d)
    means = np.asarray(link.mu(xs @ theta), dtype=float)
    if noise == "bernoulli":
        ys = (rew_gen.random(n) < means).astype(float)
    else:
        ys = means + sigma * rew_gen.standard_normal(n)
    return xs, ys, ys - means


def reference_theorem1_coverage(
    link,
    d: int,
    n: int,
    sigma: float | None,
    delta: float,
    directions: np.ndarray,
    replications: int,
    *,
    noise: str = "gaussian",
    context_dist: str = "uniform_ball",
    theta_norm: float = 1.0,
    theta_star: np.ndarray | None = None,
    master_seed: int = 0,
):
    """The theorem1 check as first written, one replication after another:
    every replication draws its log with its own sampler, fits the MLE to
    convergence with the reference Newton loop, and judges each direction's
    exact gap. The reference for ``validation.theorem1_coverage``, which
    certifies most verdicts from the first Newton iterate."""
    from glmbandit.environment import Environment, sub_gaussian_sigma
    from glmbandit.links import compute_kappa
    from glmbandit.validation import CoverageReport, normality_condition_threshold

    sig = sub_gaussian_sigma(noise, sigma)
    directions = np.asarray(directions, dtype=float)
    hit_flags, condition = [], True
    for rep in range(replications):
        env = Environment.build(
            d=d, K=1, link=link, noise=noise, sigma=sig, context_dist=context_dist,
            theta_norm=theta_norm, theta_star=theta_star, master_seed=master_seed,
            replication=rep,
        )
        xs, ys, _ = reference_draw_sample(
            link, n, d, noise, sig, context_dist, env.theta_star, master_seed, rep
        )
        kappa = compute_kappa(link, float(np.linalg.norm(env.theta_star)))
        v = xs.T @ xs
        lam = min_eigenvalue(v)
        condition &= bool(lam >= normality_condition_threshold(link, d, sig, delta, kappa))
        fit = reference_mle_fit(link, xs, ys)
        if not fit.converged:
            continue
        gaps = np.abs(directions @ (fit.theta - env.theta_star))
        widths = weighted_norms(directions, np.linalg.inv(v))
        bound = (3.0 * sig / kappa) * math.sqrt(math.log(1.0 / delta)) * widths
        hit_flags.append(bool((gaps <= bound + 1e-12).all()))
    return CoverageReport(
        replications=len(hit_flags),
        hits=sum(hit_flags),
        nominal=1.0 - 3.0 * delta,
        condition_satisfied=condition,
        nonconvergent=replications - len(hit_flags),
        hit_flags=hit_flags,
        details={
            "check": "theorem1", "n": n, "d": d, "sigma": sig, "delta": delta,
            "n_directions": int(directions.shape[0]),
        },
    )


def reference_simulate(
    env,
    policy,
    T: int,
    record_every: int = 1,
    algorithm: str = "",
    replication: int = 0,
    observe=None,
):
    """The harness's round loop as first written, for one policy: one
    context draw, one scalar reward-noise draw, one arm-means pass and one
    argmax per round, rows kept as tuples. The bit-identity reference for
    ``harness.simulate``, which draws contexts and noise and scores regret
    a chunk of rounds at a time, once for all of a replication's policies."""
    from glmbandit.harness import RegretTrace

    rows = []
    cum = 0.0
    for t in range(1, T + 1):
        contexts = env.sample_contexts()
        arm = policy.select(t, contexts)
        x = contexts[arm]
        if observe is not None:
            observe(t, x)
        y = scalar_reward(env, x)
        policy.update(t, arm, x, y)
        means = env.arm_means(contexts)
        optimal = int(np.argmax(means))
        regret = float(means[optimal] - means[arm])
        cum += regret
        if t % record_every == 0 or t == T:
            stage = policy.last_stage if policy.last_stage is not None else -1
            rows.append(
                (t, arm, optimal, y, regret, cum, int(policy.last_mle_converged), stage)
            )
    cols = list(zip(*rows))
    return RegretTrace(
        algorithm=algorithm,
        replication=replication,
        ts=np.array(cols[0], dtype=int),
        arms=np.array(cols[1], dtype=int),
        optimal_arms=np.array(cols[2], dtype=int),
        rewards=np.array(cols[3], dtype=float),
        inst_regret=np.array(cols[4], dtype=float),
        cum_regret=np.array(cols[5], dtype=float),
        mle_converged=np.array(cols[6], dtype=int),
        stages=np.array(cols[7], dtype=int),
        n_nonconverged=policy.n_nonconverged,
        lambda_min_init=policy.lambda_min_init,
    )


# The GLM learners as first written, each owning its own refit every
# round, and SupCB-GLM in the widths-first order and in its first
# fit-every-stage order: the bit-identity references for the policies
# module's learners, which share one refit and make it only when the last
# fit cannot certify the decision.


class ReferenceGlmFitPolicy(BasePolicy):
    """Shared machinery: a design state plus a warm-started MLE."""

    def __init__(self, config: PolicyConfig, link: LinkFunction, rng: np.random.Generator):
        super().__init__(config, rng)
        self.link = link
        self.design = DesignState(config.d)
        self.theta = np.zeros(config.d)
        self._dirty = True

    def refit(self) -> None:
        if not self._dirty or self.design.n == 0:
            return
        result = mle_fit(
            self.link,
            self.design.features,
            self.design.rewards,
            warm_start=self.theta,
        )
        self.theta = result.theta
        self.last_mle_converged = result.converged
        if not result.converged:
            self.n_nonconverged += 1
        self._dirty = False

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        self.design.update(x, y)
        self._dirty = True


class ReferenceUcbGlmPolicy(ReferenceGlmFitPolicy):
    """Optimistic GLM policy.

    The first tau rounds pick arms uniformly at random so the design
    becomes invertible; afterwards each round refits the MLE on the full
    log and plays the lowest-index maximizer of
    ``x'theta_hat + alpha |x|_{V^{-1}}``.
    """

    name = "ucb-glm"

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        if t <= cfg.tau:
            self.last_mle_converged = True
            return int(self.rng.integers(cfg.K))
        if self.lambda_min_init is None:
            self.lambda_min_init = min_eigenvalue(self.design.V)
        v_inv = _inverse_or_none(self.design)
        if v_inv is None:
            raise SingularDesignError(
                f"design still singular at round {t}; initialization phase "
                f"(tau={cfg.tau}) was insufficient"
            )
        self.refit()
        means, widths = ucb_scores(contexts, self.theta, v_inv, cfg.alpha)
        return greedy_argmax(means + widths)


class ReferenceEpsilonGreedyPolicy(ReferenceGlmFitPolicy):
    """Plays argmax x'theta_hat with probability 1 - epsilon, else uniform.

    Falls back to uniform while the design is singular.  With epsilon = 0
    this is the pure-greedy baseline, identical to UCB-GLM selection with
    alpha = 0 once the design is invertible.
    """

    name = "epsilon-greedy"

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        coin = float(self.rng.random())
        v_inv = _inverse_or_none(self.design)
        if coin < cfg.epsilon or v_inv is None:
            self.last_mle_converged = True
            return int(self.rng.integers(cfg.K))
        self.refit()
        means, _ = ucb_scores(contexts, self.theta, v_inv, 0.0)
        return greedy_argmax(means)


class ReferenceSupCbGlmPolicy(BasePolicy):
    """Staged-elimination GLM policy with independent per-stage samples.

    Rounds are partitioned into the initialization set F = {1..tau} and
    stage sets Psi_0..Psi_S (S = floor(log2 T)).  Stage s fits only on
    Psi_s united with F, so within a stage the rewards used for fitting are
    conditionally independent of each other.  Exploitation rounds land in
    Psi_0 and never feed any fit.  Stage s is fit only when no active arm's
    width exceeds 2^{-s}, since the explore rule reads the widths alone.
    """

    name = "supcb-glm"

    def __init__(self, config: PolicyConfig, link: LinkFunction, rng: np.random.Generator):
        super().__init__(config, rng)
        if config.T < 2:
            raise InvalidConfigError("supcb-glm needs T >= 2")
        self.link = link
        self.S = int(math.floor(math.log2(config.T)))
        self._init_design = DesignState(config.d)
        self._stage_designs: list[DesignState | None] = [None] * (self.S + 1)
        self._stage_thetas: list[np.ndarray | None] = [None] * (self.S + 1)
        self._stage_dirty = [True] * (self.S + 1)
        self._pending: int | None = None  # stage set receiving the round

    def _stage_inverse(self, s: int) -> np.ndarray:
        """V^{-1} of Psi_s united with F. That design is F's plus PSD terms,
        so it is singular only when F's is, and then the run cannot go on."""
        v_inv = _inverse_or_none(self._stage_designs[s])
        if v_inv is None:
            raise SingularDesignError(f"stage {s} design is singular")
        return v_inv

    def _stage_theta(self, s: int) -> np.ndarray:
        """The MLE on Psi_s united with F, fit if stale."""
        if self._stage_dirty[s]:
            design = self._stage_designs[s]
            result = mle_fit(
                self.link,
                design.features,
                design.rewards,
                warm_start=self._stage_thetas[s],
            )
            self._stage_thetas[s] = result.theta
            self._stage_dirty[s] = False
            if not result.converged:
                self.n_nonconverged += 1
                self.last_mle_converged = False
        return self._stage_thetas[s]

    def _stage_scores(self, s: int, contexts: np.ndarray):
        """Means and widths at stage s.  The widths come from the design
        alone, and the means, a callable, fit the stage only when called:
        ``stage_decision`` calls them only when no active arm is wide."""
        widths = self.config.alpha * weighted_norms(contexts, self._stage_inverse(s))
        return (lambda: contexts @ self._stage_theta(s)), widths

    def select(self, t: int, contexts: np.ndarray) -> int:
        cfg = self.config
        if t <= cfg.tau:
            self._pending = None
            self.last_mle_converged = True
            self.last_stage = None
            return int(self.rng.integers(cfg.K))
        if self.lambda_min_init is None:
            # First round after initialization: every stage starts from F.
            self.lambda_min_init = min_eigenvalue(self._init_design.V)
            for s in range(1, self.S + 1):
                self._stage_designs[s] = self._init_design.copy()
        self.last_mle_converged = True

        active = list(range(cfg.K))
        s = 1
        while True:
            means, widths = self._stage_scores(s, contexts)
            kind, payload = stage_decision(means, widths, active, s, cfg.T)
            if kind == "explore":
                arm = payload
                self._pending = s
                self.last_stage = s
                return arm
            if kind == "exploit" or s == self.S:
                # Forced at the last stage.
                arm = payload if kind == "exploit" else greedy_argmax(means(), active)
                self._pending = 0
                self.last_stage = s
                return arm
            active = payload
            s += 1

    def update(self, t: int, arm: int, x: np.ndarray, y: float) -> None:
        if self._pending is None:
            self._init_design.update(x, y)
        elif self._pending >= 1:
            self._stage_designs[self._pending].update(x, y)
            self._stage_dirty[self._pending] = True
        self._pending = None


class FitEveryStageSupCbGlmPolicy(ReferenceSupCbGlmPolicy):
    """SupCB-GLM as first written: every stage it scores is fit before the
    explore rule reads the widths, so a round that explores still pays for
    the fit.  Its traces differ from the widths-first order only where a
    skipped fit would have counted as non-converged or would have moved a
    later fit's warm start."""

    def _stage_scores(self, s: int, contexts: np.ndarray):
        v_inv = self._stage_inverse(s)
        means, widths = ucb_scores(contexts, self._stage_theta(s), v_inv, self.config.alpha)
        return (lambda: means), widths

"""Monte Carlo checks of the high-probability guarantees.

Each check replays the generative model many times, evaluates the claimed
inequality on every replication, and reports the empirical hit rate next
to the nominal level.  Every replication's theta*, contexts and rewards
come from that replication's ``Environment``, the world model the bandit
runs play, so a world the environment rejects is never checked; prop1,
which needs only contexts, draws them from the replication's
``rng.CONTEXTS`` stream.
Over-coverage always counts as a pass (the guarantees are one-sided); the
standard acceptance slack is three binomial standard errors.  A finite
probe over directions or replications can only falsify, never certify, a
for-all statement, so reports record exactly what was probed.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng as streams
from .design import inv, min_eigenvalue, rounding_allowance, weighted_norm, weighted_norms
from .environment import (
    Environment,
    check_world,
    sample_context_batch,
    second_moment_min_eig,
    sub_gaussian_sigma,
)
from .errors import InvalidConfigError, check_config
from .harness import (
    ExperimentSpec,
    build_environment,
    check_spec_types,
    make_policies,
    map_units,
    resolve_policy_config,
    simulate,
    spec_from_dict,
    worker_count,
)
from .links import LinkFunction, compute_kappa, is_builtin
from .mle import MleResult, mle_fit
from .policies import GlmFit, score_bound


@dataclass
class CoverageReport:
    """Hits over the replications a check could judge. ``nonconvergent``
    counts the replications (lemma4: runs) whose verdict needed an MLE fit
    that did not converge; theorem1 leaves those out of ``replications``."""

    replications: int
    hits: int
    nominal: float
    condition_satisfied: bool
    nonconvergent: int = 0
    hit_flags: list[bool] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def empirical_coverage(self) -> float:
        return self.hits / self.replications if self.replications else float("nan")

    @property
    def binomial_stderr(self) -> float:
        if not self.replications:
            return float("nan")
        p = self.empirical_coverage
        return math.sqrt(p * (1.0 - p) / self.replications)

    def passes(self) -> bool:
        """Coverage within three binomial standard errors of nominal."""
        return self.empirical_coverage >= self.nominal - 3.0 * self.binomial_stderr

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "hits": self.hits,
            "empirical_coverage": self.empirical_coverage,
            "nominal": self.nominal,
            "condition_satisfied": self.condition_satisfied,
            "binomial_stderr": self.binomial_stderr,
            "nonconvergent": self.nonconvergent,
            "passes_3se": self.passes(),
            "details": self.details,
        }


@dataclass(frozen=True)
class ValidationSpec:
    """The ``validate`` command's config: one flat JSON object shared by
    the four checks, each of which reads the keys it needs."""

    link: str = "identity"
    noise: str = "gaussian"
    d: int = 3
    n: int = 2000
    K: int = 5
    T: int = 2000
    sigma: float | None = 0.1
    delta: float = 0.05
    replications: int = 200
    master_seed: int = 0
    context_dist: str = "uniform_ball"
    theta_norm: float = 1.0
    tau: int | None = None
    kappa: float | None = None
    n_random_directions: int = 100
    n_grid: tuple[int, ...] | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> ValidationSpec:
        """Build a validation spec from a flat JSON mapping; unknown keys are an error."""
        return spec_from_dict(cls, raw, "validation config")

    def validate(self) -> None:
        check_spec_types(self)
        # The checks draw iid contexts; there is no key for fixed ones.
        if self.context_dist == "fixed":
            raise InvalidConfigError("context_dist: 'fixed' is not supported by the checks")
        check_world(self.link, self.noise, self.sigma, self.context_dist, self.d, self.K)


def probe_directions(d: int, n_random: int, master_seed: int = 0) -> np.ndarray:
    """Standard basis plus seeded random unit vectors."""
    gen = streams.stream(master_seed, 0, streams.DIRECTIONS)
    dirs = [np.eye(d)]
    if n_random > 0:
        z = gen.standard_normal((n_random, d))
        dirs.append(z / np.linalg.norm(z, axis=1)[:, None])
    return np.vstack(dirs)


def normality_condition_threshold(
    link: LinkFunction, d: int, sigma: float, delta: float, kappa: float
) -> float:
    """Design-eigenvalue level sufficient for the directional bound.

    For curved links: 512 M^2 sigma^2 / kappa^4 * (d^2 + log(1/delta)).
    A zero curvature bound (identity link) makes that vacuous and only the
    consistency level 16 sigma^2 (d + log(1/delta)) / kappa^2 remains.
    """
    m = link.curvature_bound
    if m > 0:
        return 512.0 * m**2 * sigma**2 / kappa**4 * (d**2 + math.log(1.0 / delta))
    return 16.0 * sigma**2 * (d + math.log(1.0 / delta)) / kappa**2


def _map_blocks(block: Callable[[range], list], replications: int) -> list:
    """``block``'s results for ``range(replications)`` cut into one contiguous
    block per worker, joined in order. A unit per replication would free each
    log before the next draw, and the heap would be trimmed and faulted back."""
    count = max(1, min(worker_count(), replications))
    cuts = [replications * i // count for i in range(count + 1)]
    blocks = map_units(block, [range(a, b) for a, b in zip(cuts, cuts[1:])])
    return [item for part in blocks for item in part]


def _gap_interval(
    link: LinkFunction, xs: np.ndarray, ys: np.ndarray, fit: MleResult, theta_star: np.ndarray,
    directions: np.ndarray, widths: np.ndarray, v: np.ndarray, v_inv: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per direction, the centre |x'(theta_c - theta*)| and half-width of an
    interval that holds |x'(theta_hat - theta*)| for the log's MLE theta_hat
    and any iterate a converged fit could return: |x|_{V^{-1}} w, the centre
    and width that the sandwich c_min V <= G <= c_max V gives the score at
    theta_1 (``score_bound``), plus the rounding of both gaps, d eps |x|
    |theta - theta*|, as theta_c and theta_hat lie within R of theta_1."""
    r_max = math.sqrt(float(np.einsum("ij,ij->i", xs, xs).max()))
    log = (len(xs), float(v.trace()), math.sqrt(float(ys.dot(ys))))
    radius, shift, width = score_bound(
        link, fit.score, v_inv, r_max, math.sqrt(float(fit.theta @ fit.theta)), log
    )
    offset = fit.theta + shift - theta_star
    reach = 2.0 * (math.sqrt(float(offset @ offset)) + radius)
    allowance = rounding_allowance(len(offset), float(np.abs(directions).max()), reach)
    return np.abs(directions @ offset), widths * width + allowance


def _theorem1_block(
    n: int, master_seed: int, delta: float, directions: np.ndarray, reps: range, **world
) -> list[tuple[bool, bool | None]]:
    """Per replication: (design condition held, hit or None if the fit its
    verdict needed did not converge). Every ``_gap_interval`` at the first
    Newton iterate within the bound is a hit, any wholly beyond it a miss;
    otherwise Newton resumes, as one call would have gone on, and the
    converged iterate's exact gaps are judged."""
    link, d, sig = world["link"], world["d"], world["sigma"]
    certifies = is_builtin(link)
    outcomes = []
    for rep in reps:
        # sample_log draws no arm set, so one arm stands in for K.
        env = Environment.build(K=1, master_seed=master_seed, replication=rep, **world)
        xs, ys, _ = env.sample_log(n)
        kappa = compute_kappa(link, float(np.linalg.norm(env.theta_star)))
        v = xs.T @ xs
        lam = min_eigenvalue(v)
        met = lam >= normality_condition_threshold(link, d, sig, delta, kappa)
        v_inv = inv(v)
        widths = weighted_norms(directions, v_inv)
        bound = (3.0 * sig / kappa) * math.sqrt(math.log(1.0 / delta)) * widths + 1e-12
        fit = mle_fit(link, xs, ys, max_iterations=1)
        hit = None
        if not fit.converged and certifies:
            gaps, spread = _gap_interval(
                link, xs, ys, fit, env.theta_star, directions, widths, v, v_inv
            )
            if (gaps + spread <= bound).all():
                hit = True
            elif (gaps - spread > bound).any():
                hit = False
        if hit is None and not fit.converged:
            fit = mle_fit(link, xs, ys, warm_start=fit.theta, max_iterations=99)
        if hit is None and fit.converged:
            hit = bool((np.abs(directions @ (fit.theta - env.theta_star)) <= bound).all())
        outcomes.append((met, hit))
    return outcomes


def theorem1_coverage(
    link: LinkFunction,
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
) -> CoverageReport:
    """Simultaneous coverage of |x'(theta_hat - theta*)| over the probe set.

    Per replication: draw n iid contexts, generate rewards, fit the MLE,
    and count a hit when every probed direction satisfies

        |x'(theta_hat - theta*)| <= (3 sigma / kappa) sqrt(log(1/delta)) |x|_{V^{-1}}

    The nominal level is 1 - 3 delta.  The report also records whether the
    sufficient design condition held (runs are flagged, never blocked).
    Verdicts are certified from the first Newton iterate; only a
    replication whose interval straddles the bound fits to convergence.
    ``nonconvergent`` counts the replications whose verdict needed a fit
    that did not converge: a settled one proves that the MLE exists.
    """
    check_config(
        d=d, n=n, sigma=sigma, delta=delta, replications=replications,
        theta_norm=theta_norm, master_seed=master_seed,
    )
    if n < d:
        raise InvalidConfigError("theorem1 check needs n >= d")
    sig = sub_gaussian_sigma(noise, sigma)
    directions = np.asarray(directions, dtype=float)
    if directions.shape[1:] != (d,) or not len(directions) or not np.isfinite(directions).all():
        raise InvalidConfigError(
            f"directions must be a finite (m, {d}) array with m >= 1, got shape {directions.shape}"
        )
    block = functools.partial(
        _theorem1_block, n, master_seed, delta, directions, d=d, link=link, noise=noise,
        sigma=sig, context_dist=context_dist, theta_norm=theta_norm, theta_star=theta_star,
    )
    outcomes = _map_blocks(block, replications)
    hit_flags = [hit for _, hit in outcomes if hit is not None]
    return CoverageReport(
        replications=len(hit_flags),
        hits=sum(hit_flags),
        nominal=1.0 - 3.0 * delta,
        condition_satisfied=all(met for met, _ in outcomes),
        nonconvergent=replications - len(hit_flags),
        hit_flags=hit_flags,
        details={
            "check": "theorem1",
            "n": n,
            "d": d,
            "sigma": sig,
            "delta": delta,
            "n_directions": int(directions.shape[0]),
        },
    )


@dataclass
class GrowthReport:
    """Empirical distribution of lambda_min(V_n) / n along a sample grid."""

    n_grid: list[int]
    quantiles: dict[str, list[float]]
    sigma_min_eig: float
    median_ratio_at_largest: float
    passed: bool
    replications: int

    def to_dict(self) -> dict:
        return {"check": "prop1", **asdict(self)}


def _prop1_block(
    context_dist: str, d: int, n_grid: list[int], master_seed: int, reps: range
) -> np.ndarray:
    """lambda_min(V_n)/n per replication (row) and grid point (column)."""
    ratios = np.empty((len(reps), len(n_grid)))
    for i, rep in enumerate(reps):
        gen = streams.stream(master_seed, rep, streams.CONTEXTS)
        xs = sample_context_batch(gen, context_dist, n_grid[-1], d)
        v = np.zeros((d, d))
        start = 0
        for j, n in enumerate(n_grid):
            chunk = xs[start:n]
            v += chunk.T @ chunk
            start = n
            ratios[i, j] = min_eigenvalue(v) / n
    return ratios


def proposition1_growth(
    context_dist: str,
    d: int,
    n_grid: list[int],
    replications: int,
    *,
    master_seed: int = 0,
) -> GrowthReport:
    """Linear growth of the smallest design eigenvalue under iid contexts.

    Passes when the median of lambda_min(V_n)/n at the largest grid point
    is within 10% of lambda_min(E[X X']).
    """
    check_config(d=d, n_grid=n_grid, replications=replications, master_seed=master_seed)
    target = second_moment_min_eig(context_dist, d)
    block = functools.partial(_prop1_block, context_dist, d, n_grid, master_seed)
    ratios = np.array(_map_blocks(block, replications))
    qs = {
        q: [float(np.quantile(ratios[:, j], float(q))) for j in range(len(n_grid))]
        for q in ("0.1", "0.25", "0.5", "0.75", "0.9")
    }
    median_last = qs["0.5"][-1]
    return GrowthReport(
        n_grid=list(n_grid),
        quantiles=qs,
        sigma_min_eig=target,
        median_ratio_at_largest=median_last,
        passed=abs(median_last - target) <= 0.1 * target,
        replications=replications,
    )


@dataclass
class UcbRunStats:
    """Instrumented UCB-GLM trajectory for the lemma4 and width-sum checks.

    The run owns the lemma4 radius r_t = estimate_ellipsoid_bound(d, t,
    sigma, kappa, delta) at the sigma, kappa and delta its tuning resolved,
    and judges every round past tau against it. A round's interval is

        [lo, hi] = |theta_c - theta*|_{V_t} -+ w,

    with the centre theta_c = theta_ref + m0 V_t^{-1} g and the width w that
    the sandwich c_min V <= G <= c_max V gives the last fit (``score_bound``),
    so it holds |theta_hat_t - theta*|_{V_t} for the current log's MLE and any
    iterate a converged refit could return. hi <= r_t + 1e-12 is a hit and
    lo > r_t + 1e-12 a miss. A round whose interval straddles the radius
    refits, records the fresh fit's interval, and is judged by the fresh
    iterate's exact norm. ``within`` holds each round's verdict.
    """

    d: int
    tau: int
    sigma: float
    kappa: float
    delta: float
    lambda_min_init: float
    ts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    chosen_widths: np.ndarray  # |X_t|_{V_t^{-1}} per round
    n_nonconverged: int
    within: np.ndarray  # per round: |theta_hat_t - theta*|_{V_t} <= r_t + 1e-12


def _norm_interval(fit: GlmFit, theta_star: np.ndarray) -> tuple[float, float]:
    """Centre and half-width of the interval that holds |theta_hat - theta*|_V:
    the distance |theta_c - theta*|_V and the width w of the last fit's
    ``GlmFit.interval``."""
    centre, width, _ = fit.interval()
    return weighted_norm(centre - theta_star, fit.design.V), width


def _ucb_glm_block(spec: ExperimentSpec, reps: range) -> list[UcbRunStats]:
    """One instrumented UCB-GLM run per replication in ``reps``."""
    runs = []
    for rep in reps:
        env = build_environment(spec, rep)
        policy = make_policies(spec, rep, ("ucb-glm",), env)["ucb-glm"]
        config, fit = policy.config, policy.fit
        ts, los, his, widths, within = [], [], [], [], []

        def observe(label: str, t: int, x: np.ndarray) -> None:
            # select has played from the last fit, refitting only where that
            # fit could not certify the arm; B is the bound select computed.
            if t <= config.tau:
                return
            radius = estimate_ellipsoid_bound(
                config.d, t, config.sigma, config.kappa, config.delta
            ) + 1e-12
            centre, width = _norm_interval(fit, env.theta_star)
            if centre - width <= radius < centre + width:  # a straddle: judge the fresh fit
                policy.estimate()
                centre, width = _norm_interval(fit, env.theta_star)
                within.append(weighted_norm(fit.theta - env.theta_star, fit.design.V) <= radius)
            else:
                within.append(centre + width <= radius)
            ts.append(t)
            los.append(centre - width)
            his.append(centre + width)
            widths.append(weighted_norm(x, fit.design.inverse()))

        # Only round T enters the trace; the observer keeps what the checks need.
        simulate(env, {"ucb-glm": policy}, spec.T, record_every=spec.T, observe=observe)
        runs.append(
            UcbRunStats(
                d=spec.d,
                tau=config.tau,
                sigma=config.sigma,
                kappa=config.kappa,
                delta=config.delta,
                lambda_min_init=float(policy.lambda_min_init),
                ts=np.array(ts, dtype=int),
                lo=np.array(los),
                hi=np.array(his),
                chosen_widths=np.array(widths),
                n_nonconverged=policy.n_nonconverged,
                within=np.array(within, dtype=bool),
            )
        )
    return runs


def run_ucb_glm_instrumented(
    link: LinkFunction,
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
) -> list[UcbRunStats]:
    """Run UCB-GLM replications through the harness's ``simulate`` with the
    ``theorem2`` width, recording the per-round quantities the trajectory
    inequalities talk about."""
    spec = ExperimentSpec(
        T=T, d=d, K=K, link=link.kind, noise=noise, algorithms=("ucb-glm",), sigma=sigma,
        context_dist=context_dist, theta_norm=theta_norm, alpha_rule="theorem2", tau=tau,
        delta=delta, kappa=kappa, replications=replications, master_seed=master_seed,
        record_every=T,
    )
    spec.validate()
    config = resolve_policy_config(spec, "ucb-glm")
    if config.tau >= T:
        raise InvalidConfigError(f"tau={config.tau} leaves no rounds below T={T}")
    return _map_blocks(functools.partial(_ucb_glm_block, spec), replications)


def estimate_ellipsoid_bound(d: int, t: int, sigma: float, kappa: float, delta: float) -> float:
    """(sigma/kappa) sqrt((d/2) log(1 + 2t/d) + log(1/delta)), nondecreasing in t."""
    return (sigma / kappa) * math.sqrt(
        0.5 * d * math.log(1.0 + 2.0 * t / d) + math.log(1.0 / delta)
    )


def lemma4_event_coverage(
    runs: list[UcbRunStats], sigma: float, kappa: float, delta: float
) -> CoverageReport:
    """All-rounds coverage of the estimate-ellipsoid event on UCB-GLM runs.

    A run is a hit when |theta_hat_t - theta*|_{V_t} stayed within the
    radius at every post-initialization round. The runs own the radius:
    each judged its rounds from its intervals at the sigma, kappa and delta
    it resolved (``UcbRunStats``), so values that differ from a run's raise
    InvalidConfigError rather than be checked against intervals built for
    another radius. Only runs whose initial design reached lambda_min >= 1
    enter the count (the event is defined on that footing); excluded runs
    are reported.
    """
    for run in runs:
        if (run.sigma, run.kappa, run.delta) != (sigma, kappa, delta):
            raise InvalidConfigError(
                f"lemma4: the runs judged sigma, kappa, delta = "
                f"{run.sigma!r}, {run.kappa!r}, {run.delta!r}, not "
                f"{sigma!r}, {kappa!r}, {delta!r}"
            )
    counted = [run for run in runs if run.lambda_min_init >= 1.0]
    hit_flags = [bool(run.within.all()) for run in counted]
    excluded = len(runs) - len(counted)
    return CoverageReport(
        replications=len(counted),
        hits=sum(hit_flags),
        nominal=1.0 - delta,
        condition_satisfied=excluded == 0,
        nonconvergent=sum(run.n_nonconverged > 0 for run in runs),
        hit_flags=hit_flags,
        details={"check": "lemma4", "excluded_runs": excluded, "delta": delta},
    )


@dataclass
class WidthSumReport:
    """Prefix check of the accumulated-width inequality on logged runs."""

    runs_checked: int
    runs_skipped: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.runs_checked > 0

    def to_dict(self) -> dict:
        return {"check": "width_sum", **asdict(self), "passed": self.passed}


def width_sum_check(runs: list[UcbRunStats]) -> WidthSumReport:
    """Deterministic inequality: on any run with lambda_min(V_{tau+1}) >= 1,
    every prefix obeys sum |X_t|_{V_t^{-1}} <= sqrt(2 n d log((n + tau)/d))."""
    checked = skipped = violations = 0
    for run in runs:
        if run.lambda_min_init < 1.0:
            skipped += 1
            continue
        checked += 1
        sums = np.cumsum(run.chosen_widths)
        ns = np.arange(1, len(sums) + 1)
        bounds = np.sqrt(2.0 * ns * run.d * np.log((ns + run.tau) / run.d))
        violations += int((sums > bounds + 1e-9).sum() > 0)
    return WidthSumReport(runs_checked=checked, runs_skipped=skipped, violations=violations)


def _znorm_block(n: int, master_seed: int, bound: float, reps: range, **world) -> list[bool]:
    """Per replication: whether |Z|_{V^{-1}} stayed within ``bound``."""
    hit_flags = []
    for rep in reps:
        env = Environment.build(K=1, master_seed=master_seed, replication=rep, **world)
        xs, _, eps = env.sample_log(n)
        v = xs.T @ xs
        z = xs.T @ eps
        norm = weighted_norm(z, inv(v))
        hit_flags.append(bool(norm <= bound + 1e-12))
    return hit_flags


def znorm_bound_check(
    link: LinkFunction,
    d: int,
    n: int,
    sigma: float | None,
    delta: float,
    replications: int,
    *,
    noise: str = "gaussian",
    context_dist: str = "uniform_ball",
    theta_norm: float = 1.0,
    theta_star: np.ndarray | None = None,
    master_seed: int = 0,
) -> CoverageReport:
    """Coverage of |Z|_{V^{-1}} <= 4 sigma sqrt(d + log(1/delta)) where
    Z = sum eps_i X_i under iid contexts with known realized noise."""
    check_config(
        d=d, n=n, sigma=sigma, delta=delta, replications=replications,
        theta_norm=theta_norm, master_seed=master_seed,
    )
    if n < d:
        raise InvalidConfigError("znorm check needs n >= d")
    sig = sub_gaussian_sigma(noise, sigma)
    bound = 4.0 * sig * math.sqrt(d + math.log(1.0 / delta))
    block = functools.partial(
        _znorm_block, n, master_seed, bound, d=d, link=link, noise=noise, sigma=sig,
        context_dist=context_dist, theta_norm=theta_norm, theta_star=theta_star,
    )
    hit_flags = _map_blocks(block, replications)
    return CoverageReport(
        replications=replications,
        hits=sum(hit_flags),
        nominal=1.0 - delta,
        condition_satisfied=True,
        hit_flags=hit_flags,
        details={"check": "znorm", "n": n, "d": d, "sigma": sig, "bound": bound},
    )

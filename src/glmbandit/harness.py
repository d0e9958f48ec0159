"""Experiment execution: configs, replication runs, aggregation, file output.

Work units are (algorithm, replication) pairs that share nothing mutable.
Each unit derives every random stream from (master_seed, replication), so
results are a pure function of the spec and aggregation by replication
index makes the output independent of execution order and worker count.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __about__
from . import rng as streams
from .environment import (
    BERNOULLI_SUB_GAUSSIAN_SIGMA,
    CONTEXT_DISTRIBUTIONS,
    Environment,
    second_moment_min_eig,
)
from .errors import InvalidConfigError
from .links import compute_kappa, get_link
from .policies import (
    POLICY_KINDS,
    BasePolicy,
    PolicyConfig,
    alpha_from_rule,
    make_policy,
    tau_for_supcb,
    tau_for_theorem4,
    tau_for_ucb,
)

THREADS_ENV_VAR = "GLM_BANDIT_THREADS"

SUMMARY_HEADER = "algorithm,t,mean_cum_regret,std_cum_regret,min,max,n_reps"
TRACE_HEADER = "t,arm,optimal_arm,reward,inst_regret,cum_regret,mle_converged,stage"

_SPEC_FIELDS = {
    "T": int,
    "d": int,
    "K": int,
    "link": str,
    "noise": str,
    "sigma": float,
    "context_dist": str,
    "fixed_contexts": list,
    "theta_norm": float,
    "theta_star": list,
    "algorithms": list,
    "alpha": float,
    "alpha_rule": str,
    "tau": int,
    "delta": float,
    "epsilon": float,
    "kappa": float,
    "replications": int,
    "master_seed": int,
    "record_every": int,
    "out_dir": str,
}

_OPTIONAL_DEFAULTS = {
    "sigma": None,
    "fixed_contexts": None,
    "theta_norm": 1.0,
    "theta_star": None,
    "alpha": None,
    "alpha_rule": None,
    "tau": None,
    "delta": 0.05,
    "epsilon": 0.1,
    "kappa": None,
    "replications": 1,
    "master_seed": 0,
    "record_every": 1,
    "out_dir": None,
}


def fmt(value: float) -> str:
    """Decimal rendering with 12 significant digits (file schema rule)."""
    return f"{value:.12g}"


def fmt12(value: float) -> float:
    """Round-trip a float through the 12-significant-digit rendering."""
    return float(fmt(value))


@dataclass(frozen=True)
class ExperimentSpec:
    T: int
    d: int
    K: int
    link: str
    noise: str
    algorithms: tuple[str, ...]
    sigma: float | None = None
    context_dist: str = "uniform_ball"
    fixed_contexts: tuple | None = None
    theta_norm: float = 1.0
    theta_star: tuple | None = None
    alpha: float | None = None
    alpha_rule: str | None = None
    tau: int | None = None
    delta: float = 0.05
    epsilon: float = 0.1
    kappa: float | None = None
    replications: int = 1
    master_seed: int = 0
    record_every: int = 1
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> ExperimentSpec:
        """Build a spec from a flat JSON mapping; unknown keys are an error.

        A silent typo in a tuning key (alpha, tau, kappa, ...) would
        invalidate an experiment, so nothing is ignored.
        """
        unknown = sorted(set(raw) - set(_SPEC_FIELDS))
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {', '.join(unknown)}")
        merged = dict(_OPTIONAL_DEFAULTS)
        merged.update(raw)
        missing = [k for k in ("T", "d", "K", "link", "noise", "algorithms") if k not in merged]
        if missing:
            raise InvalidConfigError(f"missing config keys: {', '.join(missing)}")
        if merged.get("fixed_contexts") is not None:
            merged["fixed_contexts"] = tuple(tuple(map(float, row)) for row in merged["fixed_contexts"])
        if merged.get("theta_star") is not None:
            merged["theta_star"] = tuple(map(float, merged["theta_star"]))
        merged["algorithms"] = tuple(merged["algorithms"])
        spec = cls(**merged)
        spec.validate()
        return spec

    def validate(self) -> None:
        for name, kind in _SPEC_FIELDS.items():
            value = getattr(self, name)
            if kind is float and value is not None and not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise InvalidConfigError(f"{name} must be a finite number, got {value!r}")
        if self.theta_star is not None and not all(map(math.isfinite, self.theta_star)):
            raise InvalidConfigError("theta_star must hold finite numbers only")
        if self.fixed_contexts is not None:
            rows = self.fixed_contexts
            if len(rows) != self.K or any(len(row) != self.d for row in rows):
                raise InvalidConfigError("fixed_contexts must have shape (K, d)")
            if not all(math.isfinite(v) for row in rows for v in row):
                raise InvalidConfigError("fixed_contexts must hold finite numbers only")
        if self.theta_norm < 0:
            raise InvalidConfigError("theta_norm must be nonnegative")
        if min(self.T, self.d, self.K) < 1:
            raise InvalidConfigError("T, d, K must be positive")
        if self.replications < 1:
            raise InvalidConfigError("replications must be at least 1")
        if self.record_every < 1:
            raise InvalidConfigError("record_every must be at least 1")
        if not self.algorithms:
            raise InvalidConfigError("at least one algorithm is required")
        for name in self.algorithms:
            base = name.split("[", 1)[0]
            if base not in POLICY_KINDS:
                raise InvalidConfigError(
                    f"unknown algorithm {name!r}; expected one of {POLICY_KINDS}"
                )
        if self.context_dist not in CONTEXT_DISTRIBUTIONS:
            raise InvalidConfigError(f"unknown context distribution {self.context_dist!r}")
        if self.context_dist == "fixed" and self.fixed_contexts is None:
            raise InvalidConfigError("context_dist 'fixed' requires fixed_contexts")
        if self.noise == "gaussian" and self.sigma is None:
            raise InvalidConfigError("gaussian noise requires sigma")
        if self.tau is not None and not 0 <= self.tau <= self.T:
            raise InvalidConfigError("tau must lie in [0, T]")
        if self.theta_star is not None and len(self.theta_star) != self.d:
            raise InvalidConfigError("theta_star must have length d")
        get_link(self.link)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["algorithms"] = list(self.algorithms)
        if self.fixed_contexts is not None:
            out["fixed_contexts"] = [list(row) for row in self.fixed_contexts]
        if self.theta_star is not None:
            out["theta_star"] = list(self.theta_star)
        return out

    # Derived quantities ---------------------------------------------------

    def sub_gaussian_sigma(self) -> float:
        if self.noise == "bernoulli":
            return BERNOULLI_SUB_GAUSSIAN_SIGMA
        return float(self.sigma)

    def sigma0_sq(self) -> float:
        fixed = None
        if self.fixed_contexts is not None:
            fixed = np.asarray(self.fixed_contexts, dtype=float)
        return second_moment_min_eig(self.context_dist, self.d, fixed)

    def resolved_kappa(self) -> float:
        if self.kappa is not None:
            return float(self.kappa)
        norm = self.theta_norm
        if self.theta_star is not None:
            norm = float(np.linalg.norm(self.theta_star))
        return compute_kappa(get_link(self.link), norm)


def tau_rule_label(spec: ExperimentSpec, algorithm: str) -> str:
    """Which rule produced tau; echoed in meta.json since the upstream
    constants are unspecified and the defaults here are just defaults."""
    base = algorithm.split("[", 1)[0]
    if base not in ("ucb-glm", "supcb-glm"):
        return "none"
    if spec.tau is not None:
        return "explicit"
    if base == "supcb-glm":
        return "sqrt_dT"
    rule = spec.alpha_rule or "theorem2"
    return "theorem4" if rule == "theorem4" else "c16_default"


def resolve_policy_config(spec: ExperimentSpec, algorithm: str) -> PolicyConfig:
    """Fill in the tuning for one algorithm: alpha rule, tau default, kappa."""
    base = algorithm.split("[", 1)[0]
    link = get_link(spec.link)
    kappa = spec.resolved_kappa()
    sigma = spec.sub_gaussian_sigma()
    if base in ("ucb-glm", "supcb-glm"):
        rule = spec.alpha_rule or ("theorem3" if base == "supcb-glm" else "theorem2")
        alpha = alpha_from_rule(
            rule,
            T=spec.T,
            d=spec.d,
            K=spec.K,
            delta=spec.delta,
            sigma=sigma,
            kappa=kappa,
            L_mu=link.lipschitz_bound,
            alpha=spec.alpha,
        )
        if spec.tau is not None:
            tau = spec.tau
        elif base == "supcb-glm":
            tau = tau_for_supcb(spec.d, spec.T)
        elif rule == "theorem4":
            tau = tau_for_theorem4(spec.d, spec.T, sigma, kappa)
        else:
            tau = tau_for_ucb(spec.d, spec.delta, spec.sigma0_sq())
        if tau > spec.T:
            raise InvalidConfigError(
                f"derived tau={tau} exceeds the horizon T={spec.T}; "
                f"set tau explicitly or increase T"
            )
    else:
        rule, alpha, tau = "explicit", 0.0, 0
    return PolicyConfig(
        T=spec.T,
        d=spec.d,
        K=spec.K,
        alpha=alpha,
        tau=tau,
        kappa=kappa,
        sigma=sigma,
        delta=spec.delta,
        alpha_rule=rule,
        epsilon=spec.epsilon,
    ).validated()


@dataclass
class RegretTrace:
    """Per-round record of one replication, thinned to the recorded rounds.

    Cumulative regret is accumulated every round and recorded sparsely, so
    thinning never changes the recorded values.
    """

    algorithm: str
    replication: int
    ts: np.ndarray
    arms: np.ndarray
    optimal_arms: np.ndarray
    rewards: np.ndarray
    inst_regret: np.ndarray
    cum_regret: np.ndarray
    mle_converged: np.ndarray
    stages: np.ndarray  # -1 where the policy has no stage structure
    n_nonconverged: int = 0
    lambda_min_init: float | None = None


def simulate(
    env: Environment,
    policy: BasePolicy,
    T: int,
    record_every: int = 1,
    algorithm: str = "",
    replication: int = 0,
) -> RegretTrace:
    """Drive one policy through T rounds of the environment."""
    rows = []
    cum = 0.0
    for t in range(1, T + 1):
        contexts = env.sample_contexts()
        arm = policy.select(t, contexts)
        x = contexts[arm]
        y = env.sample_reward(x)
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


def build_environment(spec: ExperimentSpec, replication: int) -> Environment:
    fixed = None
    if spec.fixed_contexts is not None:
        fixed = np.asarray(spec.fixed_contexts, dtype=float)
    theta = None
    if spec.theta_star is not None:
        theta = np.asarray(spec.theta_star, dtype=float)
    return Environment.build(
        d=spec.d,
        K=spec.K,
        link=get_link(spec.link),
        noise=spec.noise,
        sigma=spec.sigma if spec.sigma is not None else spec.sub_gaussian_sigma(),
        context_dist=spec.context_dist,
        theta_norm=spec.theta_norm,
        master_seed=spec.master_seed,
        replication=replication,
        fixed_contexts=fixed,
        theta_star=theta,
    )


def run_replication(spec: ExperimentSpec, algorithm: str, replication: int) -> RegretTrace:
    env = build_environment(spec, replication)
    config = resolve_policy_config(spec, algorithm)
    policy_rng = streams.stream(spec.master_seed, replication, streams.POLICY)
    base = algorithm.split("[", 1)[0]
    policy = make_policy(base, config, get_link(spec.link), policy_rng, env.theta_star)
    return simulate(env, policy, spec.T, spec.record_every, algorithm, replication)


def _run_unit(payload: tuple[dict, str, int]) -> RegretTrace:
    raw, algorithm, replication = payload
    return run_replication(ExperimentSpec.from_dict(raw), algorithm, replication)


def worker_count(spec: ExperimentSpec) -> int:
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        workers = os.cpu_count() or 1
    else:
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidConfigError(f"{THREADS_ENV_VAR} must be an integer") from None
        if workers < 1:
            raise InvalidConfigError(f"{THREADS_ENV_VAR} must be at least 1")
    return min(workers, len(spec.algorithms) * spec.replications)


@dataclass
class AggregateSummary:
    """Cross-replication regret statistics plus run metadata."""

    ts: np.ndarray
    stats: dict[str, dict[str, np.ndarray]]  # algorithm -> mean/std/min/max
    n_reps: int
    derived: dict[str, dict[str, float]] = field(default_factory=dict)
    flags: dict[str, dict[str, object]] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    summary: AggregateSummary
    traces: list[RegretTrace]


def aggregate(spec: ExperimentSpec, traces: list[RegretTrace]) -> AggregateSummary:
    by_alg: dict[str, list[RegretTrace]] = {name: [] for name in spec.algorithms}
    for trace in traces:
        by_alg[trace.algorithm].append(trace)
    stats: dict[str, dict[str, np.ndarray]] = {}
    flags: dict[str, dict[str, object]] = {}
    ts = None
    for name, group in by_alg.items():
        group = sorted(group, key=lambda tr: tr.replication)
        curves = np.stack([tr.cum_regret for tr in group])
        ts = group[0].ts
        stats[name] = {
            "mean": curves.mean(axis=0),
            "std": curves.std(axis=0, ddof=1) if len(group) > 1 else np.zeros(curves.shape[1]),
            "min": curves.min(axis=0),
            "max": curves.max(axis=0),
        }
        lam_ok = [
            tr.lambda_min_init is not None and tr.lambda_min_init >= 1.0 for tr in group
        ]
        flags[name] = {
            "n_nonconverged_rounds": int(sum(tr.n_nonconverged for tr in group)),
            "n_reps_init_lambda_min_ge_1": int(sum(lam_ok)),
        }
    derived = {}
    for name in spec.algorithms:
        cfg = resolve_policy_config(spec, name)
        derived[name] = {
            "alpha": cfg.alpha,
            "alpha_rule": cfg.alpha_rule,
            "tau": cfg.tau,
            "tau_rule": tau_rule_label(spec, name),
            "kappa": cfg.kappa,
            "sigma": cfg.sigma,
            "sigma0_sq": spec.sigma0_sq(),
        }
    return AggregateSummary(
        ts=ts, stats=stats, n_reps=spec.replications, derived=derived, flags=flags
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (algorithm, replication) unit and aggregate deterministically."""
    spec.validate()
    units = [(alg, rep) for alg in spec.algorithms for rep in range(spec.replications)]
    workers = worker_count(spec)
    if workers <= 1 or len(units) <= 1:
        traces = [run_replication(spec, alg, rep) for alg, rep in units]
    else:
        raw = spec.to_dict()
        payloads = [(raw, alg, rep) for alg, rep in units]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            traces = list(pool.map(_run_unit, payloads))
    # Deterministic order regardless of how the pool scheduled the units.
    order = {name: i for i, name in enumerate(spec.algorithms)}
    traces.sort(key=lambda tr: (order[tr.algorithm], tr.replication))
    return ExperimentResult(spec=spec, summary=aggregate(spec, traces), traces=traces)


# File output ---------------------------------------------------------------


def safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in name)


def emit_trace_csv(trace: RegretTrace, path: str) -> None:
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
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_trace_csv(path: str) -> RegretTrace:
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


def emit_csv(result: ExperimentResult, out_dir: str) -> dict[str, str]:
    """Write summary.csv, per-replication traces, and meta.json.

    Returns a mapping from logical name to the file path written.
    """
    spec = result.spec
    summary = result.summary
    if spec.replications < 1 or summary.n_reps < 1:
        raise InvalidConfigError("cannot emit files for zero replications")
    os.makedirs(out_dir, exist_ok=True)

    lines = [SUMMARY_HEADER]
    for name in spec.algorithms:
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
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    written = {"summary": summary_path}
    for trace in result.traces:
        fname = f"trace_{safe_name(trace.algorithm)}_{trace.replication}.csv"
        path = os.path.join(out_dir, fname)
        emit_trace_csv(trace, path)
        written[fname] = path

    meta = {
        "spec": spec.to_dict(),
        "derived": {
            name: {k: (fmt12(v) if isinstance(v, float) else v) for k, v in vals.items()}
            for name, vals in summary.derived.items()
        },
        "flags": summary.flags,
        "version": __about__.__version__,
    }
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, "w", newline="") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written["meta"] = meta_path
    return written


def run_and_emit(spec: ExperimentSpec, out_dir: str) -> ExperimentResult:
    result = run_experiment(spec)
    emit_csv(result, out_dir)
    return result


def sweep(spec: ExperimentSpec, param: str, values: list) -> ExperimentResult:
    """One-dimensional parameter sweep: one algorithm variant per value."""
    if param not in _SPEC_FIELDS or param in ("algorithms", "out_dir", "fixed_contexts"):
        raise InvalidConfigError(f"cannot sweep over {param!r}")
    if not values:
        raise InvalidConfigError("sweep needs at least one value")
    traces: list[RegretTrace] = []
    variants: list[str] = []
    variant_specs: dict[str, ExperimentSpec] = {}
    for value in values:
        raw = spec.to_dict()
        raw[param] = value
        if param == "alpha":
            raw["alpha_rule"] = "explicit"
        sub = ExperimentSpec.from_dict(raw)
        sub_result = run_experiment(sub)
        for trace in sub_result.traces:
            label = f"{trace.algorithm}[{param}={fmt(float(value))}]"
            if label not in variants:
                variants.append(label)
            trace.algorithm = label
            traces.append(trace)
            variant_specs[label] = sub

    ts = traces[0].ts
    stats = {}
    flags = {}
    derived = {}
    for label in variants:
        group = sorted(
            (tr for tr in traces if tr.algorithm == label), key=lambda tr: tr.replication
        )
        curves = np.stack([tr.cum_regret for tr in group])
        stats[label] = {
            "mean": curves.mean(axis=0),
            "std": curves.std(axis=0, ddof=1) if len(group) > 1 else np.zeros(curves.shape[1]),
            "min": curves.min(axis=0),
            "max": curves.max(axis=0),
        }
        flags[label] = {
            "n_nonconverged_rounds": int(sum(tr.n_nonconverged for tr in group)),
        }
        base = label.split("[", 1)[0]
        cfg = resolve_policy_config(variant_specs[label], base)
        derived[label] = {
            "alpha": cfg.alpha,
            "alpha_rule": cfg.alpha_rule,
            "tau": cfg.tau,
            "tau_rule": tau_rule_label(variant_specs[label], base),
            "kappa": cfg.kappa,
            "sigma": cfg.sigma,
            "sigma0_sq": variant_specs[label].sigma0_sq(),
        }
    swept = ExperimentSpec.from_dict({**spec.to_dict(), "algorithms": list(variants)})
    summary = AggregateSummary(
        ts=ts, stats=stats, n_reps=spec.replications, derived=derived, flags=flags
    )
    return ExperimentResult(spec=swept, summary=summary, traces=traces)

"""Experiment execution: configs, replication runs, aggregation, file output.

Work units are replications, split into algorithm groups only when there
are more workers than replications; units share nothing mutable. Every
algorithm of a replication plays the same world: each unit derives every
random stream from (master_seed, replication), so results are a pure
function of the spec, and aggregation by replication index makes the
output independent of execution order, grouping and worker count.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import numbers
import os
import typing
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import __about__
from . import rng as streams
from .environment import (
    Environment,
    check_world,
    second_moment_min_eig,
    sub_gaussian_sigma,
)
from .errors import InvalidConfigError, check_config
from .links import compute_kappa, get_link
from .policies import (
    NON_LEARNING_KINDS,
    POLICY_KINDS,
    BasePolicy,
    PolicyConfig,
    alpha_from_rule,
    check_supcb_horizon,
    check_tau,
    make_policy,
    tau_for_supcb,
    tau_for_theorem4,
    tau_for_ucb,
)

THREADS_ENV_VAR = "GLM_BANDIT_THREADS"

SUMMARY_HEADER = "algorithm,t,mean_cum_regret,std_cum_regret,min,max,n_reps"
TRACE_HEADER = "t,arm,optimal_arm,reward,inst_regret,cum_regret,mle_converged,stage"

# Spec fields that fix the rows of summary.csv, which every sweep variant shares.
_SHAPE_FIELDS = ("T", "record_every", "replications")

# simulate draws and scores contexts a chunk of rounds at a time; a chunk's
# (rounds, K, d) context array holds at most this many floats (at least
# one round). A budget, not a round count, keeps peak memory flat in K*d.
CHUNK_ELEMENTS = 32_768

# The CSV writers format this many rows at a time into one string.
EMIT_BLOCK_ROWS = 256

# Every float written (CSV cells, meta.json, sweep labels): 12 significant digits.
CELL = "%.12g"
TRACE_ROW = f"%d,%d,%d,{CELL},{CELL},{CELL},%d,%s\n"


def fmt(value: float) -> str:
    """``value`` as the files write it: ``CELL``, 12 significant digits."""
    return CELL % value


def fmt12(value: float) -> float:
    """Round-trip a float through the 12-significant-digit rendering."""
    return float(fmt(value))


# Spec parsing ----------------------------------------------------------------


@functools.cache
def _field_types(cls) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _strip_none(kind):
    """``X`` for a declared ``X | None``, else ``kind`` itself."""
    args = typing.get_args(kind)
    return args[0] if type(None) in args else kind


def _conform(name: str, value, kind):
    """``value`` in the form its declared type takes, or InvalidConfigError.

    JSON lists become tuples and the float entries of a list floats;
    scalars are checked and kept as given, so a spec echoes its config.
    """
    inner = _strip_none(kind)
    if value is None and inner is not kind:
        return None
    if typing.get_origin(inner) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{name}: expected a list, got {value!r}")
        item = typing.get_args(inner)[0]
        items = tuple(_conform(name, v, item) for v in value)
        return tuple(map(float, items)) if item is float else items
    if inner is float:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = real and math.isfinite(value)
        what = "a finite number"
    elif inner is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        what = "an integer"
    else:
        ok = isinstance(value, inner)
        what = f"a {inner.__name__}"
    if not ok:
        raise InvalidConfigError(f"{name}: expected {what}, got {value!r}")
    return value


def check_spec_types(spec) -> None:
    """Check every field of a spec dataclass against its declared type,
    then against its key's rule in ``errors.CONFIG_RULES``."""
    types = _field_types(type(spec))
    values = {f.name: getattr(spec, f.name) for f in fields(spec)}
    for name, value in values.items():
        _conform(name, value, types[name])
    check_config(**values)


def spec_from_dict(cls, raw: dict, what: str):
    """Build the spec dataclass ``cls`` from a flat JSON mapping and validate it.

    Unknown keys are an error: a silent typo in a tuning key (alpha, tau,
    kappa, ...) would invalidate an experiment, so nothing is ignored.
    Keys, defaults and types all come from the dataclass fields.
    """
    declared = fields(cls)
    unknown = sorted(set(raw) - {f.name for f in declared})
    if unknown:
        raise InvalidConfigError(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [f.name for f in declared if f.default is MISSING and f.name not in raw]
    if missing:
        raise InvalidConfigError(f"missing {what} keys: {', '.join(missing)}")
    types = _field_types(cls)
    spec = cls(**{name: _conform(name, value, types[name]) for name, value in raw.items()})
    spec.validate()
    return spec


def base_algorithm(name: str) -> str:
    """The policy kind behind an algorithm label: "ucb-glm[alpha=1]" -> "ucb-glm"."""
    return name.split("[", 1)[0]


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
    fixed_contexts: tuple[tuple[float, ...], ...] | None = None
    theta_norm: float = 1.0
    theta_star: tuple[float, ...] | None = None
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
        """Build a spec from a flat JSON mapping; unknown keys are an error."""
        return spec_from_dict(cls, raw, "config")

    def validate(self) -> None:
        check_spec_types(self)
        if not self.algorithms:
            raise InvalidConfigError("at least one algorithm is required")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise InvalidConfigError("algorithms must not repeat")
        for name in self.algorithms:
            if base_algorithm(name) not in POLICY_KINDS:
                raise InvalidConfigError(
                    f"unknown algorithm {name!r}; expected one of {POLICY_KINDS}"
                )
            if not set(name).isdisjoint(',"\r\n'):
                raise InvalidConfigError(f"algorithms: {name!r} would break a CSV row")
        if len(set(map(safe_name, self.algorithms))) < len(self.algorithms):
            raise InvalidConfigError("algorithms: two labels share a trace file name")
        check_world(
            self.link, self.noise, self.sigma, self.context_dist, self.d, self.K,
            self.fixed_contexts, self.theta_star,
        )
        check_tau(self.tau, self.T)
        for name in self.algorithms:
            resolve_policy_config(self, name)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["algorithms"] = list(self.algorithms)
        if self.fixed_contexts is not None:
            out["fixed_contexts"] = [list(row) for row in self.fixed_contexts]
        if self.theta_star is not None:
            out["theta_star"] = list(self.theta_star)
        return out

    # Derived quantities ---------------------------------------------------

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


def resolve_policy_config(spec: ExperimentSpec, algorithm: str) -> PolicyConfig:
    """Fill in the tuning for one algorithm: alpha rule, tau default, kappa.

    The tau rule is echoed in meta.json since the upstream constants are
    unspecified and the defaults here are just defaults.
    """
    base = base_algorithm(algorithm)
    link = get_link(spec.link)
    kappa = spec.resolved_kappa()
    sigma = sub_gaussian_sigma(spec.noise, spec.sigma)
    if base == "supcb-glm":
        check_supcb_horizon(spec.T)
    if base in ("ucb-glm", "supcb-glm"):
        if kappa == 0.0:  # a derived kappa: an explicit one is > 0
            raise InvalidConfigError(f"kappa underflows to 0 at this theta_norm; {base} needs it")
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
            tau, tau_rule = spec.tau, "explicit"
        elif base == "supcb-glm":
            tau, tau_rule = tau_for_supcb(spec.d, spec.T), "sqrt_dT"
        elif rule == "theorem4":
            tau, tau_rule = tau_for_theorem4(spec.d, spec.T, sigma, kappa), "theorem4"
        else:
            tau, tau_rule = tau_for_ucb(spec.d, spec.delta, spec.sigma0_sq()), "c16_default"
    else:
        rule, alpha, tau, tau_rule = "explicit", 0.0, 0, "none"
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
        tau_rule=tau_rule,
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


def _play_chunk(
    env: Environment,
    label: str,
    policy: BasePolicy,
    tape: np.ndarray,
    noise: np.ndarray,
    done: int,
    picked: np.ndarray,
    observe: Callable[[str, int, np.ndarray], None] | None,
    memo: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | int, np.ndarray | int]:
    """One policy's turn at a chunk of rounds ``done+1 ..``: the arm of
    every round, and the reward, MLE flag and stage of each ``picked`` one.

    A policy that does not learn selects the whole chunk at once and scores
    only its picked rows, in one ``sample_reward`` call; its flag and stage
    are the same every round, so they come back as scalars. One that learns
    plays round by round and reads each reward from the chunk's
    ``(rounds, K)`` table of every arm's reward, which the first learner to
    play the chunk scores into the empty list ``memo``.
    """
    m = len(tape)
    chosen = policy.select_rounds(tape)
    if chosen is not None:
        if observe is not None:
            xs = tape[np.arange(m), chosen]
            for i in range(m):
                observe(label, done + i + 1, xs[i])
        rewards = env.sample_reward(tape[picked, chosen[picked]], noise[picked])
        stage = -1 if policy.last_stage is None else policy.last_stage
        return chosen, rewards, int(policy.last_mle_converged), stage
    if not memo:  # an array: nested Python floats cost far more memory
        memo.append(env.sample_reward(tape, noise[:, None]))
    table = memo[0]
    chosen = np.empty(m, dtype=int)
    converged = np.empty(m, dtype=int)
    stages = np.empty(m, dtype=int)
    for i in range(m):
        t = done + i + 1
        contexts = tape[i]
        arm = policy.select(t, contexts)
        x = contexts[arm]
        if observe is not None:
            observe(label, t, x)
        policy.update(t, arm, x, table.item(i, arm))
        chosen[i] = arm
        converged[i] = policy.last_mle_converged
        stages[i] = -1 if policy.last_stage is None else policy.last_stage
    return chosen, table[picked, chosen[picked]], converged[picked], stages[picked]


def simulate(
    env: Environment,
    policies: dict[str, BasePolicy],
    T: int,
    record_every: int = 1,
    replication: int = 0,
    observe: Callable[[str, int, np.ndarray], None] | None = None,
) -> dict[str, RegretTrace]:
    """Drive every policy of one replication through T rounds of its world.

    ``policies`` maps each algorithm label to its policy; the result maps
    the labels to their traces. Contexts, reward noise, arm means and
    optimal arms depend on no policy, so they are drawn and scored once per
    chunk of rounds, and every policy then plays that chunk in turn.
    Rewards are scored an array at a time: each policy that does not learn
    scores its picked rows in one call, and the learners share one table of
    every arm's reward, scored the first time a learner plays the chunk.
    Every value is bit-identical to running each policy alone, round by
    round, with one scalar reward per round.

    ``observe(label, t, x)``, when given, sees each policy's chosen
    features at every round, before the policy learns the reward. It must
    draw from no random stream, so observed runs stay identical to plain
    ones.
    """
    ts = np.arange(record_every, T + 1, record_every)
    if T % record_every:
        ts = np.append(ts, T)
    traces = {
        label: RegretTrace(
            algorithm=label,
            replication=replication,
            ts=ts,
            arms=np.empty(len(ts), dtype=int),
            optimal_arms=np.empty(len(ts), dtype=int),
            rewards=np.empty(len(ts)),
            inst_regret=np.empty(len(ts)),
            cum_regret=np.empty(len(ts)),
            mle_converged=np.empty(len(ts), dtype=int),
            stages=np.empty(len(ts), dtype=int),
        )
        for label in policies
    }
    cums = dict.fromkeys(policies, 0.0)
    chunk = max(1, CHUNK_ELEMENTS // (env.K * env.d))
    first = 0
    for done in range(0, T, chunk):
        m = min(chunk, T - done)
        tape = env.sample_contexts(m)
        noise = env.sample_noise(m)
        means = env.arm_means(tape)
        best = np.argmax(means, axis=1)
        rounds = np.arange(m)
        top = means[rounds, best]
        last = int(np.searchsorted(ts, done + m, side="right"))
        rows = slice(first, last)
        picked = ts[rows] - done - 1
        memo = []  # the chunk's reward table, once a learner has scored it
        for label, policy in policies.items():
            trace = traces[label]
            chosen, rewards, converged, stages = _play_chunk(
                env, label, policy, tape, noise, done, picked, observe, memo
            )
            regret = top - means[rounds, chosen]
            # Carry the running total into the first term: cumsum then adds
            # in the same order as a per-round ``cum += regret``.
            running = regret.copy()
            running[0] += cums[label]
            np.cumsum(running, out=running)
            cums[label] = running[-1]
            trace.arms[rows] = chosen[picked]
            trace.optimal_arms[rows] = best[picked]
            trace.rewards[rows] = rewards
            trace.inst_regret[rows] = regret[picked]
            trace.cum_regret[rows] = running[picked]
            trace.mle_converged[rows] = converged
            trace.stages[rows] = stages
        first = last
    for label, policy in policies.items():
        traces[label].n_nonconverged = policy.n_nonconverged
        traces[label].lambda_min_init = policy.lambda_min_init
    return traces


def build_environment(spec: ExperimentSpec, replication: int) -> Environment:
    return Environment.build(
        d=spec.d,
        K=spec.K,
        link=get_link(spec.link),
        noise=spec.noise,
        sigma=sub_gaussian_sigma(spec.noise, spec.sigma),
        context_dist=spec.context_dist,
        theta_norm=spec.theta_norm,
        master_seed=spec.master_seed,
        replication=replication,
        fixed_contexts=spec.fixed_contexts,
        theta_star=spec.theta_star,
    )


def make_policies(
    spec: ExperimentSpec, replication: int, algorithms: tuple[str, ...], env: Environment
) -> dict[str, BasePolicy]:
    """One policy per label in ``algorithms`` for ``env``, the world of
    ``replication``; each draws from its own fresh policy stream."""
    link = get_link(spec.link)
    return {
        algorithm: make_policy(
            base_algorithm(algorithm),
            resolve_policy_config(spec, algorithm),
            link,
            streams.stream(spec.master_seed, replication, streams.POLICY),
            env.theta_star,
        )
        for algorithm in algorithms
    }


def run_replication(
    spec: ExperimentSpec, replication: int, algorithms: tuple[str, ...]
) -> dict[str, RegretTrace]:
    """Play ``algorithms`` in one replication's world."""
    env = build_environment(spec, replication)
    policies = make_policies(spec, replication, algorithms, env)
    return simulate(env, policies, spec.T, spec.record_every, replication)


def worker_count() -> int:
    """The worker bound that GLM_BANDIT_THREADS sets (default: one per CPU)."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        raise InvalidConfigError(f"{THREADS_ENV_VAR} must be an integer") from None
    if workers < 1:
        raise InvalidConfigError(f"{THREADS_ENV_VAR} must be at least 1")
    return workers


def map_units(fn: Callable, *units) -> list:
    """``list(map(fn, *units))`` for equal-length sequences ``units``: the
    results in unit order. When ``worker_count()`` and the number of units
    both exceed 1, the units run in a process pool, so ``fn`` and the units
    must pickle (module-level functions or ``functools.partial``s of them)."""
    workers = min(worker_count(), len(units[0]))
    if workers <= 1:
        return list(map(fn, *units))
    # Imported here: the pool's modules would cost every import of the
    # package, and a one-worker run never needs them.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *units))


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


def aggregate(specs: dict[str, ExperimentSpec], traces: list[RegretTrace]) -> AggregateSummary:
    """Cross-replication statistics, flags and tuning per algorithm label.

    ``specs`` maps each label to the spec its traces ran under: one spec
    for every algorithm of a run, one spec per variant of a sweep. All of
    them share T, record_every and replications.
    """
    stats: dict[str, dict[str, np.ndarray]] = {}
    flags: dict[str, dict[str, object]] = {}
    derived: dict[str, dict[str, float]] = {}
    for name, spec in specs.items():
        group = sorted(
            (tr for tr in traces if tr.algorithm == name), key=lambda tr: tr.replication
        )
        curves = np.stack([tr.cum_regret for tr in group])
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
        cfg = resolve_policy_config(spec, name)
        derived[name] = {
            "alpha": cfg.alpha,
            "alpha_rule": cfg.alpha_rule,
            "tau": cfg.tau,
            "tau_rule": cfg.tau_rule,
            "kappa": cfg.kappa,
            "sigma": cfg.sigma,
            "sigma0_sq": spec.sigma0_sq(),
        }
    return AggregateSummary(
        ts=group[0].ts, stats=stats, n_reps=spec.replications, derived=derived, flags=flags
    )


def algorithm_groups(algorithms: tuple[str, ...], groups: int) -> list[tuple[str, ...]]:
    """Deal the learners among ``algorithms`` round-robin into at most
    ``groups`` groups, balanced by cost: the policies that do not learn
    cost almost nothing, so they ride in group 0 and do not count toward
    the split.

    Dealing rather than cutting contiguous runs spreads neighbours apart:
    a config tends to list its costly learners together, and a contiguous
    cut would put them all in one unit.
    """
    cheap = tuple(a for a in algorithms if base_algorithm(a) in NON_LEARNING_KINDS)
    learners = tuple(a for a in algorithms if a not in cheap)
    groups = max(1, min(groups, len(learners)))
    dealt = [learners[g::groups] for g in range(groups)]
    dealt[0] += cheap
    return dealt


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (replication, algorithm group) unit and aggregate
    deterministically.

    One group per replication shares one world among all its algorithms.
    Only when replications alone cannot keep the workers busy are a
    replication's algorithms split into more groups, each redrawing the
    same world.
    """
    spec.validate()
    groups = algorithm_groups(spec.algorithms, -(-worker_count() // spec.replications))
    reps = [rep for rep in range(spec.replications) for _ in groups]
    results = map_units(run_replication, [spec] * len(reps), reps, groups * spec.replications)
    traces = [tr for result in results for tr in result.values()]
    # Deterministic order regardless of how the pool scheduled the units.
    order = {name: i for i, name in enumerate(spec.algorithms)}
    traces.sort(key=lambda tr: (order[tr.algorithm], tr.replication))
    summary = aggregate(dict.fromkeys(spec.algorithms, spec), traces)
    return ExperimentResult(spec=spec, summary=summary, traces=traces)


# File output ---------------------------------------------------------------


def write_atomic(path: str, *parts: str) -> None:
    """Write the concatenated ``parts`` to ``path`` through a sibling temp
    file and ``os.replace``: a failed write leaves any earlier file whole
    and no partial or temp file behind."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in name)


def _csv_body(template: str, columns: list[np.ndarray], stages=None) -> list[str]:
    """A CSV body, one ``template % cells`` per row, as one string per
    block of ``EMIT_BLOCK_ROWS`` rows. ``stages``, when given, is the last
    column, blank where the policy has no stage (-1). A block bounds the
    Python numbers alive at once, which whole columns would hold for every
    row."""
    blocks = []
    for start in range(0, len(columns[0]), EMIT_BLOCK_ROWS):
        rows = slice(start, start + EMIT_BLOCK_ROWS)
        cells = [column[rows].tolist() for column in columns]
        if stages is not None:
            cells.append(["" if v < 0 else str(v) for v in stages[rows].tolist()])
        blocks.append("".join(map(template.__mod__, zip(*cells))))
    return blocks


def emit_trace_csv(trace: RegretTrace, path: str) -> None:
    columns = [trace.ts, trace.arms, trace.optimal_arms, trace.rewards, trace.inst_regret,
               trace.cum_regret, trace.mle_converged]
    body = _csv_body(TRACE_ROW, columns, trace.stages)
    write_atomic(path, TRACE_HEADER + "\n", *body)


def emit_csv(result: ExperimentResult, out_dir: str) -> dict[str, str]:
    """Write summary.csv, per-replication traces, and meta.json.

    Returns a mapping from logical name to the file path written.
    """
    spec = result.spec
    summary = result.summary
    if spec.replications < 1 or summary.n_reps < 1:
        raise InvalidConfigError("cannot emit files for zero replications")
    os.makedirs(out_dir, exist_ok=True)

    blocks = [SUMMARY_HEADER + "\n"]
    for name in spec.algorithms:
        stat = summary.stats[name]
        template = f"{name.replace('%', '%%')},%d,{CELL},{CELL},{CELL},{CELL},{summary.n_reps}\n"
        columns = [summary.ts, *(stat[key] for key in ("mean", "std", "min", "max"))]
        blocks += _csv_body(template, columns)
    summary_path = os.path.join(out_dir, "summary.csv")
    write_atomic(summary_path, *blocks)

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
    write_atomic(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    written["meta"] = meta_path
    return written


def sweep_type(param: str) -> type:
    """The type (int or float) of a spec field that a sweep may vary.

    Only numeric scalars qualify, and not T, record_every or replications:
    every variant must share the rows of summary.csv.
    """
    kind = _strip_none(_field_types(ExperimentSpec).get(param))
    if kind not in (int, float) or param in _SHAPE_FIELDS:
        raise InvalidConfigError(f"cannot sweep over {param!r}")
    return kind


def sweep(spec: ExperimentSpec, param: str, values: list) -> ExperimentResult:
    """One-dimensional parameter sweep: one algorithm variant per value."""
    sweep_type(param)
    if not values:
        raise InvalidConfigError("sweep needs at least one value")
    variants: list[tuple[ExperimentSpec, dict[str, str]]] = []
    variant_specs: dict[str, ExperimentSpec] = {}
    for value in values:
        raw = spec.to_dict()
        raw[param] = value
        if param == "alpha":
            raw["alpha_rule"] = "explicit"
        sub = ExperimentSpec.from_dict(raw)
        labels = {name: f"{name}[{param}={fmt(float(value))}]" for name in sub.algorithms}
        if any(label in variant_specs for label in labels.values()):
            raise InvalidConfigError(f"sweep value {value!r} repeats an earlier value")
        variants.append((sub, labels))
        variant_specs.update(dict.fromkeys(labels.values(), sub))
    swept = ExperimentSpec.from_dict({**spec.to_dict(), "algorithms": list(variant_specs)})
    # Every variant is checked above, so a bad later value runs nothing.
    traces: list[RegretTrace] = []
    for sub, labels in variants:
        for trace in run_experiment(sub).traces:
            trace.algorithm = labels[trace.algorithm]
            traces.append(trace)
    summary = aggregate(variant_specs, traces)
    return ExperimentResult(spec=swept, summary=summary, traces=traces)

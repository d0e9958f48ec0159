"""The benchmark's workloads: inputs made from a seed, the timed work, and
the checks on its outputs.

A workload's inputs are a JSON-able dict that depends only on the seed.
``prepare`` is the set-up work (spec parse and validation, environment
build), ``work`` is the timed work, and ``evaluate`` turns its outputs into
per-output sha256 digests and a list of failed operations.

An operation is one (algorithm, replication) unit plus its emitted files,
or one check call. It fails if an invariant on its output fails or if a
digest of one of its outputs differs from the expected one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from glmbandit import environment, harness, links, validation

SEED_MODULUS = 2**32

# Regret values are sums of at most a few thousand terms in [0, 1].
REGRET_TOLERANCE = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mismatched(digests: dict[str, str], expected: dict[str, str]) -> set[str]:
    """Output names whose digest differs from, or is missing in, ``expected``."""
    names = set(digests) | set(expected)
    return {name for name in names if digests.get(name) != expected.get(name)}


@dataclass
class Evaluation:
    digests: dict[str, str]
    ops: dict[str, tuple[list[str], bool]]  # op -> (its outputs, invariants hold)

    def failed(self, expected: dict[str, str] | None) -> list[str]:
        """Operations whose invariants fail or whose outputs differ from ``expected``."""
        bad = set() if expected is None else mismatched(self.digests, expected)
        return sorted(
            op for op, (outputs, ok) in self.ops.items() if not ok or bad & set(outputs)
        )


# Experiment workloads (run_experiment + emit_csv) ---------------------------


def trace_ok(trace: harness.RegretTrace, T: int, record_every: int) -> bool:
    """Regret accounting invariants of one replication's trace.

    The oracle's regret is identically zero. With every round recorded,
    cum_regret is the running sum of inst_regret; on a thinned trace each
    step of cum_regret covers at least the recorded round's inst_regret.
    """
    inst, cum = trace.inst_regret, trace.cum_regret
    if len(trace.ts) == 0 or trace.ts[-1] != T or (np.diff(trace.ts) <= 0).any():
        return False
    if (inst < 0).any():
        return False
    if trace.algorithm == "oracle" and (cum != 0).any():
        return False
    tol = REGRET_TOLERANCE * max(1.0, float(np.abs(cum).max()))
    if record_every == 1:
        return bool(np.abs(cum - np.cumsum(inst)).max() <= tol)
    steps = np.diff(cum, prepend=0.0)
    return bool((steps >= inst - tol).all())


class ExperimentWorkload:

    def __init__(self, name: str, shape: dict):
        self.name = name
        self.shape = shape

    def inputs(self, seed: int) -> dict:
        return {**self.shape, "master_seed": seed % SEED_MODULUS}

    def prepare(self, raw: dict) -> harness.ExperimentSpec:
        spec = harness.ExperimentSpec.from_dict(raw)
        for algorithm in spec.algorithms:
            harness.resolve_policy_config(spec, algorithm)
        for rep in range(spec.replications):
            harness.build_environment(spec, rep)
        return spec

    def work(self, spec: harness.ExperimentSpec, out_dir: str):
        result = harness.run_experiment(spec)
        written = harness.emit_csv(result, out_dir)
        return result, written

    def evaluate(self, spec: harness.ExperimentSpec, output) -> Evaluation:
        result, written = output
        digests = {}
        for path in written.values():
            with open(path, "rb") as fh:
                digests[os.path.basename(path)] = digest(fh.read())
        ops = {}
        for trace in result.traces:
            fname = f"trace_{harness.safe_name(trace.algorithm)}_{trace.replication}.csv"
            ops[f"{trace.algorithm}/{trace.replication}"] = (
                [fname, "summary.csv", "meta.json"],
                trace_ok(trace, spec.T, spec.record_every),
            )
        return Evaluation(digests, ops)

    def counters(self, spec: harness.ExperimentSpec, output) -> dict[str, float]:
        result, written = output
        return {
            "harness.emit_bytes": float(sum(os.path.getsize(p) for p in written.values())),
            "harness.trace_rows": float(sum(len(tr.ts) for tr in result.traces)),
        }


# Validation workload (the four Monte Carlo checks) ---------------------------


def coverage_ok(report: dict) -> bool:
    return 0 <= report["hits"] <= report["replications"]


def growth_ok(report: dict, replications: int) -> bool:
    qs = [report["quantiles"][q] for q in ("0.1", "0.25", "0.5", "0.75", "0.9")]
    monotone = all(lo <= hi for a, b in zip(qs, qs[1:]) for lo, hi in zip(a, b))
    return monotone and report["replications"] == replications


def width_sum_ok(report: dict, replications: int) -> bool:
    checked = report["runs_checked"]
    return 0 <= report["violations"] <= checked and checked + report["runs_skipped"] == replications


@dataclass
class ValidationPlan:
    raw: dict
    directions: np.ndarray


class ValidationWorkload:
    """theorem1 with a curved link at large n, znorm and prop1 at their
    config sizes, and one instrumented UCB-GLM run for lemma4."""

    name = "validate_mc"

    THEOREM1 = {"link": "logistic", "noise": "bernoulli", "d": 3, "n": 20000,
                "delta": 0.05, "replications": 120, "n_random_directions": 100}
    ZNORM = {"link": "identity", "noise": "gaussian", "d": 3, "n": 2000, "sigma": 0.1,
             "delta": 0.05, "replications": 1000}
    PROP1 = {"context_dist": "uniform_ball", "d": 3, "n_grid": [100, 1000, 10000],
             "replications": 200}
    LEMMA4 = {"link": "logistic", "noise": "bernoulli", "d": 3, "K": 5, "T": 2000,
              "delta": 0.05, "replications": 1, "theta_norm": 1.0}

    def inputs(self, seed: int) -> dict:
        return {
            "master_seed": seed % SEED_MODULUS,
            "theorem1": self.THEOREM1,
            "znorm": self.ZNORM,
            "prop1": self.PROP1,
            "lemma4": self.LEMMA4,
        }

    def prepare(self, raw: dict) -> ValidationPlan:
        t1, l4 = raw["theorem1"], raw["lemma4"]
        directions = validation.probe_directions(
            t1["d"], t1["n_random_directions"], raw["master_seed"]
        )
        environment.Environment.build(
            d=l4["d"], K=l4["K"], link=links.get_link(l4["link"]), noise=l4["noise"],
            sigma=environment.BERNOULLI_SUB_GAUSSIAN_SIGMA, context_dist="uniform_ball",
            theta_norm=l4["theta_norm"], master_seed=raw["master_seed"], replication=0,
        )
        return ValidationPlan(raw, directions)

    def work(self, plan: ValidationPlan, out_dir: str) -> dict[str, dict]:
        raw, seed = plan.raw, plan.raw["master_seed"]
        t1, zn, p1, l4 = raw["theorem1"], raw["znorm"], raw["prop1"], raw["lemma4"]
        reports = {}
        reports["theorem1"] = validation.theorem1_coverage(
            links.get_link(t1["link"]), t1["d"], t1["n"], None, t1["delta"], plan.directions,
            t1["replications"], noise=t1["noise"], master_seed=seed,
        ).to_dict()
        reports["znorm"] = validation.znorm_bound_check(
            links.get_link(zn["link"]), zn["d"], zn["n"], zn["sigma"], zn["delta"], zn["replications"],
            noise=zn["noise"], master_seed=seed,
        ).to_dict()
        reports["prop1"] = validation.proposition1_growth(
            p1["context_dist"], p1["d"], p1["n_grid"], p1["replications"], master_seed=seed
        ).to_dict()
        link4 = links.get_link(l4["link"])
        runs = validation.run_ucb_glm_instrumented(
            link4, l4["d"], l4["K"], l4["T"], l4["delta"], None, l4["replications"],
            noise=l4["noise"], theta_norm=l4["theta_norm"], master_seed=seed,
        )
        kappa = links.compute_kappa(link4, l4["theta_norm"])
        lemma4 = validation.lemma4_event_coverage(
            runs, environment.BERNOULLI_SUB_GAUSSIAN_SIGMA, kappa, l4["delta"]
        ).to_dict()
        lemma4["width_sum"] = validation.width_sum_check(runs).to_dict()
        reports["lemma4"] = lemma4
        return reports

    def evaluate(self, plan: ValidationPlan, reports: dict[str, dict]) -> Evaluation:
        raw = plan.raw
        digests = {
            name: digest(json.dumps(report, sort_keys=True).encode())
            for name, report in reports.items()
        }
        checks = {
            "theorem1": coverage_ok,
            "znorm": coverage_ok,
            "prop1": lambda r: growth_ok(r, raw["prop1"]["replications"]),
            "lemma4": lambda r: coverage_ok(r)
            and width_sum_ok(r["width_sum"], raw["lemma4"]["replications"]),
        }
        ops = {}
        for name, check in checks.items():
            try:
                ok = check(reports[name])
            except (KeyError, TypeError):  # a malformed report fails its check
                ok = False
            ops[name] = ([name], ok)
        return Evaluation(digests, ops)

    def counters(self, plan: ValidationPlan, reports) -> dict[str, float]:
        return {"harness.emit_bytes": 0.0, "harness.trace_rows": 0.0}


ALGORITHMS_W1 = ["ucb-glm", "supcb-glm", "epsilon-greedy", "uniform", "oracle"]

WORKLOADS = {
    # The shape of configs/regret_comparison.json with T and replications
    # shrunk to fit a run: the per-round warm-start refit dominates.
    "refit_logistic": ExperimentWorkload(
        "refit_logistic",
        {"T": 2000, "d": 5, "K": 10, "link": "logistic", "noise": "bernoulli",
         "context_dist": "uniform_ball", "theta_norm": 1.0, "algorithms": ALGORITHMS_W1,
         "delta": 0.05, "epsilon": 0.1, "replications": 1, "record_every": 100},
    ),
    # No MLE at all: environment draws and emit_csv carry the run, on the
    # Gaussian/identity/sphere paths that refit_logistic skips.
    "stream_baselines": ExperimentWorkload(
        "stream_baselines",
        {"T": 2500, "d": 20, "K": 100, "link": "identity", "noise": "gaussian",
         "sigma": 0.1, "context_dist": "sphere", "algorithms": ["uniform", "oracle"],
         "replications": 2, "record_every": 1},
    ),
    # Cold batch MLE fits bound by array size, plus validation's own loop.
    "validate_mc": ValidationWorkload(),
}

"""Command-line entry point: run experiments, validation checks, sweeps.

Exit codes: 0 success, 1 invalid configuration or usage, 2 file I/O
failure, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import InvalidConfigError, NumericalError
from .harness import ExperimentSpec, emit_csv, run_experiment, sweep, sweep_type, write_atomic
from .links import get_link
from .validation import (
    ValidationSpec,
    lemma4_event_coverage,
    probe_directions,
    proposition1_growth,
    run_ucb_glm_instrumented,
    theorem1_coverage,
    width_sum_check,
    znorm_bound_check,
)

VALIDATION_CHECKS = ("theorem1", "prop1", "lemma4", "znorm")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"{path} must contain a JSON object")
    return raw


def _run_check(check: str, cfg: ValidationSpec) -> dict:
    link = get_link(cfg.link)
    if check == "theorem1":
        directions = probe_directions(cfg.d, cfg.n_random_directions, cfg.master_seed)
        report = theorem1_coverage(
            link,
            cfg.d,
            cfg.n,
            cfg.sigma,
            cfg.delta,
            directions,
            cfg.replications,
            noise=cfg.noise,
            context_dist=cfg.context_dist,
            theta_norm=cfg.theta_norm,
            master_seed=cfg.master_seed,
        )
        return report.to_dict()
    if check == "prop1":
        report = proposition1_growth(
            cfg.context_dist,
            cfg.d,
            list(cfg.n_grid or (100, 1000, 10000)),
            cfg.replications,
            master_seed=cfg.master_seed,
        )
        return report.to_dict()
    if check == "lemma4":
        runs = run_ucb_glm_instrumented(
            link,
            cfg.d,
            cfg.K,
            cfg.T,
            cfg.delta,
            cfg.sigma,
            cfg.replications,
            noise=cfg.noise,
            context_dist=cfg.context_dist,
            theta_norm=cfg.theta_norm,
            tau=cfg.tau,
            kappa=cfg.kappa,
            master_seed=cfg.master_seed,
        )
        # The run owns the radius: it resolved sigma, kappa and delta and
        # judged its rounds at them, so the check is read at the same values.
        first = runs[0]
        report = lemma4_event_coverage(runs, first.sigma, first.kappa, first.delta).to_dict()
        report["width_sum"] = width_sum_check(runs).to_dict()
        return report
    if check == "znorm":
        report = znorm_bound_check(
            link,
            cfg.d,
            cfg.n,
            cfg.sigma,
            cfg.delta,
            cfg.replications,
            noise=cfg.noise,
            context_dist=cfg.context_dist,
            theta_norm=cfg.theta_norm,
            master_seed=cfg.master_seed,
        )
        return report.to_dict()
    raise InvalidConfigError(f"unknown check {check!r}")


def _parse_sweep_values(param: str, text: str) -> list:
    kind = sweep_type(param)
    values = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(kind(item))
        except ValueError:
            raise InvalidConfigError(f"cannot parse sweep value {item!r}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glm-bandit",
        description="GLM contextual-bandit simulation and validation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment spec")
    run_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    run_p.add_argument("--out", default=None, help="output directory")

    val_p = sub.add_parser("validate", help="run a Monte Carlo validation check")
    val_p.add_argument("--check", required=True, choices=VALIDATION_CHECKS)
    val_p.add_argument("--config", required=True, help="path to a JSON validation spec")
    val_p.add_argument("--out", default=".", help="directory for the report JSON")

    sweep_p = sub.add_parser("sweep", help="one-dimensional parameter sweep")
    sweep_p.add_argument("--config", required=True, help="path to a JSON experiment spec")
    sweep_p.add_argument("--param", required=True, help="spec key to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--seed", type=int, default=None, help="override master_seed")
    sweep_p.add_argument("--out", default=None, help="output directory")
    return parser


def _experiment_spec(args) -> tuple[ExperimentSpec, str]:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    spec = ExperimentSpec.from_dict(raw)
    out_dir = args.out or spec.out_dir or "results"
    return spec, out_dir


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        if args.command == "run":
            spec, out_dir = _experiment_spec(args)
            result = run_experiment(spec)
            written = emit_csv(result, out_dir)
            print(f"wrote {written['summary']}")
        elif args.command == "validate":
            cfg = ValidationSpec.from_dict(_load_config(args.config))
            report = _run_check(args.check, cfg)
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{args.check}_report.json")
            write_atomic(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
            print(f"wrote {path}")
        else:
            spec, out_dir = _experiment_spec(args)
            values = _parse_sweep_values(args.param, args.values)
            result = sweep(spec, args.param, values)
            written = emit_csv(result, out_dir)
            print(f"wrote {written['summary']}")
    except InvalidConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

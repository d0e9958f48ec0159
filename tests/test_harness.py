import ast
import collections
import dataclasses
import json
import math
import os
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import glmbandit
from glmbandit import harness
from glmbandit import rng as streams
from glmbandit.errors import InvalidConfigError
from glmbandit.harness import (
    ExperimentSpec,
    RegretTrace,
    base_algorithm,
    build_environment,
    emit_csv,
    emit_trace_csv,
    fmt,
    resolve_policy_config,
    run_experiment,
    run_replication,
    simulate,
    sweep,
)
from glmbandit.links import get_link
from glmbandit.policies import PolicyConfig, alpha_from_rule, make_policy
from glmbandit.validation import ValidationSpec

from oracles import parse_trace_csv, reference_simulate


def base_spec(**overrides):
    raw = dict(
        T=200,
        d=2,
        K=2,
        link="identity",
        noise="gaussian",
        sigma=0.1,
        algorithms=["ucb-glm", "uniform"],
        tau=10,
        replications=2,
        master_seed=5,
        record_every=20,
    )
    raw.update(overrides)
    return ExperimentSpec.from_dict(raw)


def test_unknown_keys_are_rejected():
    with pytest.raises(InvalidConfigError, match="alhpa"):
        base_spec(alhpa=0.5)


def test_unknown_algorithm_rejected():
    with pytest.raises(InvalidConfigError):
        base_spec(algorithms=["thompson"])


def test_repeated_algorithm_rejected():
    with pytest.raises(InvalidConfigError, match="repeat"):
        base_spec(algorithms=["uniform", "uniform"])


def test_negative_master_seed_rejected():
    with pytest.raises(InvalidConfigError, match="master_seed"):
        base_spec(master_seed=-1)


def test_zero_replications_rejected_before_any_output():
    with pytest.raises(InvalidConfigError):
        base_spec(replications=0)


def test_missing_required_keys():
    with pytest.raises(InvalidConfigError, match="missing"):
        ExperimentSpec.from_dict({"T": 10})


def test_gaussian_requires_sigma():
    with pytest.raises(InvalidConfigError):
        base_spec(sigma=None)


@pytest.mark.parametrize(
    "overrides",
    [
        {"noise": "poisson"},
        {"noise": "bernoulli"},
        {"sigma": -0.1},
        {"context_dist": "torus"},
        {"sigma": -1.0, "link": "logistic", "noise": "bernoulli"},
        {"fixed_contexts": [[1.0, 0.5], [0.0, 1.0]], "context_dist": "fixed", "K": 2},
    ],
    ids=[
        "noise-poisson", "bernoulli-identity", "sigma-negative", "context-torus",
        "sigma-negative-bernoulli", "fixed-contexts-outside-ball",
    ],
)
def test_bad_world_rejected_when_parsed(overrides):
    with pytest.raises(InvalidConfigError, match=next(iter(overrides))):
        base_spec(**overrides)


# Far enough out that the link's slope floor kappa underflows to 0.0.
_KAPPA_UNDERFLOW = [
    {"link": "logistic", "noise": "bernoulli", "sigma": None, "theta_norm": 36.0},
    {"link": "probit", "theta_norm": 40.0},
]


@pytest.mark.parametrize("world", _KAPPA_UNDERFLOW, ids=["logistic", "probit"])
def test_runs_that_divide_by_no_kappa_accept_its_underflow(world):
    spec = base_spec(**world, algorithms=["uniform", "oracle", "epsilon-greedy", "greedy"])
    assert spec.resolved_kappa() == 0.0
    result = run_experiment(dataclasses.replace(spec, T=40, replications=1))
    assert {derived["kappa"] for derived in result.summary.derived.values()} == {0.0}


@pytest.mark.parametrize("algorithm", ["ucb-glm", "supcb-glm"])
@pytest.mark.parametrize("world", _KAPPA_UNDERFLOW, ids=["logistic", "probit"])
def test_kappa_underflow_rejected_where_kappa_is_divided_by(world, algorithm):
    with pytest.raises(InvalidConfigError, match="theta_norm") as caught:
        base_spec(**world, algorithms=[algorithm, "uniform"])
    assert "kappa" in str(caught.value)


# One bad value per scalar key that the two specs share.
_BAD_VALUES = {
    "d": 0, "K": 0, "T": 0, "delta": 1.5, "sigma": -1.0, "theta_norm": -1.0, "tau": -1,
    "kappa": 0.0, "master_seed": -1, "replications": 0,
}
_POLICY_CONFIG = dict(T=100, d=2, K=3, alpha=1.0, tau=10, kappa=0.5, sigma=0.5, delta=0.1)
_ALPHA_RULE_ARGS = dict(T=100, d=2, K=3, delta=0.1, sigma=0.5, kappa=0.5)


@pytest.mark.parametrize("key, bad", sorted(_BAD_VALUES.items()))
def test_every_door_gives_a_key_one_verdict(key, bad):
    doors = [lambda: base_spec(**{key: bad}), lambda: ValidationSpec.from_dict({key: bad})]
    # PolicyConfig only echoes kappa; the alpha and tau rules divide by it.
    if key in _POLICY_CONFIG and key != "kappa":
        doors.append(lambda: PolicyConfig(**{**_POLICY_CONFIG, key: bad}).validated())
    if key in _ALPHA_RULE_ARGS:
        doors.append(lambda: alpha_from_rule("theorem2", **{**_ALPHA_RULE_ARGS, key: bad}))
    for door in doors:
        with pytest.raises(InvalidConfigError, match=rf"\b{key}\b"):
            door()


def _message_text(node) -> str:
    """A raised message's text, with each f-string field as {}."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        parts = (_message_text(v) if isinstance(v, ast.Constant) else "{}" for v in node.values)
        return "".join(parts)
    return ast.unparse(node)


def test_each_config_error_message_is_raised_from_one_site():
    sites = collections.defaultdict(list)
    for path in sorted(pathlib.Path(glmbandit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if (
                isinstance(exc, ast.Call)
                and getattr(exc.func, "id", None) == "InvalidConfigError"
                and exc.args
            ):
                sites[_message_text(exc.args[0])].append(f"{path.name}:{node.lineno}")
    assert {text: where for text, where in sites.items() if len(where) > 1} == {}


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha_rule": "bogus", "algorithms": ["uniform"]},
        {"alpha": -3.0, "algorithms": ["uniform"]},
        {"delta": 2.0},
        {"epsilon": 2.0},
        {"tau": None, "K": 2, "context_dist": "fixed", "fixed_contexts": [[1e-160, 0], [0, 1]]},
    ],
    ids=[
        "alpha-rule-unknown", "alpha-negative", "delta-above-1", "epsilon-above-1",
        "tau-overflows",
    ],
)
def test_bad_tuning_rejected_when_parsed(overrides):
    with pytest.raises(InvalidConfigError, match=next(iter(overrides))):
        base_spec(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"sigma": math.nan},
        {"sigma": math.inf},
        {"sigma": "0.1"},
        {"alpha": math.nan, "alpha_rule": "explicit"},
        {"kappa": math.nan},
        {"delta": math.nan},
        {"theta_star": [0.5, math.nan]},
        {"fixed_contexts": [[0.5, math.nan], [0.0, 1.0]], "context_dist": "fixed"},
    ],
    ids=[
        "sigma-nan", "sigma-inf", "sigma-str", "alpha-nan", "kappa-nan", "delta-nan",
        "theta-star-nan", "fixed-contexts-nan",
    ],
)
def test_non_finite_or_non_numeric_values_rejected(overrides):
    name = next(iter(overrides))
    with pytest.raises(InvalidConfigError, match=name):
        base_spec(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"T": "50"},
        {"replications": "2"},
        {"T": True},
        {"tau": 10.0},
        {"master_seed": None},
        {"theta_star": ["abc", 1]},
        {"theta_star": 0.5},
        {"algorithms": "uniform"},
        {"algorithms": ["uniform", 3]},
        {"link": 1},
        {"out_dir": ["results"]},
    ],
    ids=lambda raw: ",".join(f"{k}={v!r}" for k, v in raw.items()),
)
def test_values_of_the_wrong_type_rejected(overrides):
    name = next(iter(overrides))
    with pytest.raises(InvalidConfigError, match=name):
        base_spec(**overrides)


def test_direct_construction_checks_field_types():
    spec = base_spec()
    with pytest.raises(InvalidConfigError, match="T"):
        dataclasses.replace(spec, T="50").validate()


def test_list_entries_become_floats():
    spec = base_spec(theta_star=[1, 0])
    assert spec.theta_star == (1.0, 0.0)
    assert all(type(v) is float for v in spec.theta_star)


_FINITE = st.floats(-1.0, 1.0)
# Parsing rejects fixed contexts outside the unit ball: 0.7 * sqrt(2) < 1.
_IN_BALL = st.floats(-0.7, 0.7)
_EXPERIMENT_SPECS = st.builds(
    ExperimentSpec,
    T=st.integers(1, 10**6),
    d=st.just(2),
    K=st.just(3),
    link=st.sampled_from(["identity", "logistic", "probit"]),
    noise=st.just("gaussian"),
    algorithms=st.lists(
        st.sampled_from(["ucb-glm", "supcb-glm", "uniform", "greedy", "oracle"]),
        min_size=1,
        unique=True,
    ).map(tuple),
    sigma=st.floats(0.0, 10.0),
    context_dist=st.just("fixed"),
    fixed_contexts=st.tuples(*[st.tuples(_IN_BALL, _IN_BALL)] * 3),
    theta_norm=st.floats(0.0, 5.0),
    theta_star=st.none() | st.tuples(_FINITE, _FINITE),
    alpha=st.none() | st.floats(0.0, 100.0),
    alpha_rule=st.none() | st.sampled_from(["explicit", "theorem2", "theorem3", "theorem4"]),
    tau=st.none() | st.just(1),
    delta=st.floats(1e-6, 0.999),
    epsilon=st.floats(0.0, 1.0),
    kappa=st.none() | st.floats(1e-6, 1.0),
    replications=st.integers(1, 100),
    master_seed=st.integers(0, 2**32 - 1),
    record_every=st.integers(1, 1000),
    out_dir=st.none() | st.text(max_size=10),
)


def _tuning_resolves(spec) -> bool:
    """Whether every algorithm's tuning resolves: an explicit alpha rule
    needs an alpha, and a derived tau must fit in the horizon."""
    try:
        for name in spec.algorithms:
            resolve_policy_config(spec, name)
    except InvalidConfigError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(_EXPERIMENT_SPECS.filter(_tuning_resolves))
def test_spec_round_trip(spec):
    spec.validate()
    raw = json.loads(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_dict(raw) == spec


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["sigma", "theta_norm", "alpha", "delta", "epsilon", "kappa", "theta_star"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_spec_rejects_non_finite(name, value):
    with pytest.raises(InvalidConfigError, match=name):
        base_spec(**{name: [0.5, value] if name == "theta_star" else value})


def test_ragged_fixed_contexts_rejected():
    with pytest.raises(InvalidConfigError, match="shape"):
        base_spec(context_dist="fixed", fixed_contexts=[[1.0, 0.0], [0.0]])


def test_negative_theta_norm_rejected():
    with pytest.raises(InvalidConfigError, match="theta_norm"):
        base_spec(theta_norm=-1.0)


def test_resolve_policy_config_defaults():
    spec = base_spec(tau=None, T=5000, d=3, K=5, link="logistic", noise="bernoulli", sigma=None)
    ucb = resolve_policy_config(spec, "ucb-glm")
    assert ucb.alpha_rule == "theorem2"
    assert ucb.tau == max(3, math.ceil(16 * (3 + math.log(20)) / 0.2))
    assert ucb.sigma == 0.5
    sup = resolve_policy_config(spec, "supcb-glm")
    assert sup.alpha_rule == "theorem3"
    assert sup.tau == math.ceil(math.sqrt(15000))
    uni = resolve_policy_config(spec, "uniform")
    assert uni.alpha == 0.0 and uni.tau == 0


def test_resolve_policy_config_theorem4_tau():
    spec = base_spec(alpha_rule="theorem4", tau=None, T=100_000, kappa=0.5)
    cfg = resolve_policy_config(spec, "ucb-glm")
    assert cfg.alpha == pytest.approx(1.0 * 0.1 / 0.5)
    assert cfg.tau == math.ceil(8 * 0.01 / 0.25 * 2 * math.log(100_000))


def test_derived_tau_exceeding_horizon_is_an_error():
    # Parsing resolves every algorithm's tuning, so the spec never builds.
    with pytest.raises(InvalidConfigError, match="tau"):
        base_spec(tau=None, T=50)
    spec = dataclasses.replace(base_spec(), tau=None, T=50)
    with pytest.raises(InvalidConfigError, match="tau"):
        resolve_policy_config(spec, "ucb-glm")


@pytest.mark.parametrize("tau", [None, 0, 1])
def test_supcb_glm_at_a_one_round_horizon_is_rejected_when_parsed(tau):
    # SupCB-GLM's stages need T >= 2: parsing says so before any run starts.
    raw = dict(T=1, d=1, K=2, link="identity", noise="gaussian", sigma=0.1,
               algorithms=["uniform", "supcb-glm"], tau=tau)
    with pytest.raises(InvalidConfigError, match="supcb-glm needs T >= 2"):
        ExperimentSpec.from_dict(raw)
    assert ExperimentSpec.from_dict({**raw, "algorithms": ["uniform"]}).T == 1


def test_uniform_on_fixed_basis_contexts_half_regret():
    spec = ExperimentSpec.from_dict(
        dict(
            T=10_000,
            d=2,
            K=2,
            link="identity",
            noise="gaussian",
            sigma=0.1,
            context_dist="fixed",
            fixed_contexts=[[1.0, 0.0], [0.0, 1.0]],
            theta_star=[1.0, 0.0],
            algorithms=["uniform"],
            replications=2,
            master_seed=17,
            record_every=100,
        )
    )
    result = run_experiment(spec)
    final = float(result.summary.stats["uniform"]["mean"][-1])
    assert abs(final / spec.T - 0.5) <= 0.02


def test_oracle_regret_is_identically_zero():
    spec = base_spec(algorithms=["oracle"], T=500, record_every=1)
    result = run_experiment(spec)
    assert float(result.summary.stats["oracle"]["max"][-1]) == 0.0
    assert np.all(result.traces[0].cum_regret == 0.0)


def test_trace_invariants():
    spec = base_spec(algorithms=["ucb-glm"], record_every=1)
    trace = run_experiment(spec).traces[0]
    assert np.all(trace.inst_regret >= 0.0)
    assert np.all(np.diff(trace.cum_regret) >= -1e-12)
    assert trace.ts[-1] == spec.T


def test_cumulative_regret_exact_under_thinning():
    thin = base_spec(algorithms=["ucb-glm"], record_every=50)
    dense = base_spec(algorithms=["ucb-glm"], record_every=1)
    thin_trace = run_experiment(thin).traces[0]
    dense_trace = run_experiment(dense).traces[0]
    picks = np.searchsorted(dense_trace.ts, thin_trace.ts)
    assert np.allclose(dense_trace.cum_regret[picks], thin_trace.cum_regret)


def test_rerun_same_seed_byte_identical(tmp_path):
    spec = base_spec()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_csv(run_experiment(spec), str(out_a))
    emit_csv(run_experiment(spec), str(out_b))
    for name in sorted(os.listdir(out_a)):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    spec = base_spec(replications=4)
    monkeypatch.setenv("GLM_BANDIT_THREADS", "1")
    emit_csv(run_experiment(spec), str(tmp_path / "serial"))
    monkeypatch.setenv("GLM_BANDIT_THREADS", "4")
    emit_csv(run_experiment(spec), str(tmp_path / "parallel"))
    for name in sorted(os.listdir(tmp_path / "serial")):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_algorithm_groups_split_one_replication_across_workers(tmp_path, monkeypatch):
    # One replication and two workers: the three algorithms run as two
    # groups in two processes, each redrawing the same world.
    spec = base_spec(algorithms=["ucb-glm", "epsilon-greedy", "uniform"], replications=1)
    assert harness.algorithm_groups(spec.algorithms, 2) == [
        ("ucb-glm", "uniform"), ("epsilon-greedy",)
    ]
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("GLM_BANDIT_THREADS", workers)
        out = tmp_path / workers
        emit_csv(run_experiment(spec), str(out))
        outputs[workers] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 5
    assert outputs["1"] == outputs["2"]


def test_algorithm_groups_split_only_the_learners(tmp_path, monkeypatch):
    # Uniform and oracle cost next to nothing: they ride in group 0 and do
    # not count toward the split, wherever the spec lists them.
    spec = base_spec(
        algorithms=["uniform", "ucb-glm", "oracle", "epsilon-greedy"], replications=1
    )
    assert harness.algorithm_groups(spec.algorithms, 2) == [
        ("ucb-glm", "uniform", "oracle"), ("epsilon-greedy",)
    ]
    assert harness.algorithm_groups(spec.algorithms, 8) == [
        ("ucb-glm", "uniform", "oracle"), ("epsilon-greedy",)
    ]
    assert harness.algorithm_groups(("uniform", "oracle"), 2) == [("uniform", "oracle")]
    outputs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("GLM_BANDIT_THREADS", workers)
        out = tmp_path / workers
        emit_csv(run_experiment(spec), str(out))
        outputs[workers] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
    assert len(outputs["1"]) == 6
    assert outputs["1"] == outputs["2"]


def test_trace_round_trip(tmp_path):
    trace = RegretTrace(
        algorithm="ucb-glm",
        replication=0,
        ts=np.array([1, 2, 3]),
        arms=np.array([0, 1, 0]),
        optimal_arms=np.array([0, 0, 1]),
        rewards=np.array([0.5, 1.0 / 3.0, 0.123456789012345]),
        inst_regret=np.array([0.0, 0.25, 1e-9]),
        cum_regret=np.array([0.0, 0.25, 0.250000001]),
        mle_converged=np.array([1, 1, 0]),
        stages=np.array([-1, 2, 1]),
    )
    path = tmp_path / "trace.csv"
    emit_trace_csv(trace, str(path))
    parsed = parse_trace_csv(str(path))
    assert np.array_equal(parsed.ts, trace.ts)
    assert np.array_equal(parsed.arms, trace.arms)
    assert np.array_equal(parsed.optimal_arms, trace.optimal_arms)
    assert np.array_equal(parsed.mle_converged, trace.mle_converged)
    assert np.array_equal(parsed.stages, trace.stages)
    for col in ("rewards", "inst_regret", "cum_regret"):
        expected = np.array([float(fmt(v)) for v in getattr(trace, col)])
        assert np.array_equal(getattr(parsed, col), expected)


def test_stage_column_empty_for_non_supcb(tmp_path):
    spec = base_spec(algorithms=["ucb-glm"], record_every=1, replications=1)
    emit_csv(run_experiment(spec), str(tmp_path))
    lines = (tmp_path / "trace_ucb-glm_0.csv").read_text().splitlines()
    assert all(line.endswith(",") for line in lines[1:])


def test_stage_column_populated_for_supcb(tmp_path):
    spec = base_spec(
        algorithms=["supcb-glm"], T=300, tau=30, link="logistic",
        noise="bernoulli", sigma=None, record_every=1, replications=1,
    )
    emit_csv(run_experiment(spec), str(tmp_path))
    lines = (tmp_path / "trace_supcb-glm_0.csv").read_text().splitlines()
    stages = [line.split(",")[-1] for line in lines[1:]]
    assert all(s == "" for s in stages[:30])
    assert all(s != "" for s in stages[30:])


def test_aggregation_linearity(tmp_path):
    spec = base_spec(replications=3)
    result = run_experiment(spec)
    emit_csv(result, str(tmp_path))
    for alg in spec.algorithms:
        curves = [
            parse_trace_csv(str(tmp_path / f"trace_{alg}_{rep}.csv")).cum_regret
            for rep in range(3)
        ]
        offline_mean = np.mean(curves, axis=0)
        reported = result.summary.stats[alg]["mean"]
        assert np.abs(offline_mean - reported).max() <= 1e-9


def test_summary_mean_within_min_max():
    result = run_experiment(base_spec(replications=3))
    for stat in result.summary.stats.values():
        assert np.all(stat["mean"] >= stat["min"] - 1e-12)
        assert np.all(stat["mean"] <= stat["max"] + 1e-12)


def test_meta_echoes_derived_quantities(tmp_path):
    spec = base_spec()
    emit_csv(run_experiment(spec), str(tmp_path))
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["spec"]["T"] == spec.T
    for alg in spec.algorithms:
        derived = meta["derived"][alg]
        for key in ("alpha", "tau", "tau_rule", "kappa", "sigma", "sigma0_sq", "alpha_rule"):
            assert key in derived
    assert meta["derived"]["ucb-glm"]["tau_rule"] == "explicit"
    assert "version" in meta
    assert "flags" in meta


def test_threads_env_var_validation(monkeypatch):
    from glmbandit.harness import worker_count

    monkeypatch.setenv("GLM_BANDIT_THREADS", "not-a-number")
    with pytest.raises(InvalidConfigError):
        worker_count()
    monkeypatch.setenv("GLM_BANDIT_THREADS", "0")
    with pytest.raises(InvalidConfigError):
        worker_count()
    monkeypatch.setenv("GLM_BANDIT_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.delenv("GLM_BANDIT_THREADS")
    assert worker_count() >= 1


def test_summary_header_and_row_count(tmp_path):
    spec = base_spec()
    emit_csv(run_experiment(spec), str(tmp_path))
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "algorithm,t,mean_cum_regret,std_cum_regret,min,max,n_reps"
    recorded = len(range(spec.record_every, spec.T + 1, spec.record_every))
    assert len(lines) == 1 + recorded * len(spec.algorithms)


def test_sweep_produces_one_variant_per_value():
    spec = base_spec(algorithms=["ucb-glm"], replications=1)
    result = sweep(spec, "alpha", [0.0, 0.5, 1.0, 2.0])
    assert len(result.summary.stats) == 4
    assert set(result.summary.stats) == {
        "ucb-glm[alpha=0]",
        "ucb-glm[alpha=0.5]",
        "ucb-glm[alpha=1]",
        "ucb-glm[alpha=2]",
    }
    for label, derived in result.summary.derived.items():
        assert derived["alpha_rule"] == "explicit"


def test_sweep_rejects_bad_param():
    spec = base_spec(algorithms=["ucb-glm"], replications=1)
    with pytest.raises(InvalidConfigError):
        sweep(spec, "algorithms", [1])
    with pytest.raises(InvalidConfigError):
        sweep(spec, "alpha", [])


@pytest.mark.parametrize(
    "param, values",
    [("T", [40, 20]), ("T", [20, 40]), ("record_every", [10, 5]), ("replications", [1, 3])],
)
def test_sweep_rejects_parameters_that_change_the_rows(param, values):
    spec = base_spec(algorithms=["uniform"], T=40, replications=1)
    with pytest.raises(InvalidConfigError, match=param):
        sweep(spec, param, values)


@pytest.mark.parametrize(
    "param", ["link", "noise", "context_dist", "theta_star", "out_dir", "bogus"]
)
def test_sweep_rejects_non_numeric_parameters(param):
    spec = base_spec(algorithms=["uniform"], replications=1)
    with pytest.raises(InvalidConfigError, match=param):
        sweep(spec, param, [1])


def test_sweep_rejects_repeated_values():
    spec = base_spec(algorithms=["uniform"], replications=1)
    with pytest.raises(InvalidConfigError, match="repeats"):
        sweep(spec, "epsilon", [0.5, 0.5])


@pytest.mark.parametrize(
    "param, values, match",
    [("delta", [0.05, 2.0], "delta"), ("alpha", [1.0, 2.0, 1.0], "repeats")],
)
def test_sweep_checks_every_value_before_running_any(monkeypatch, param, values, match):
    spec = base_spec(algorithms=["ucb-glm"], replications=1)
    runs = []
    monkeypatch.setattr(harness, "run_experiment", runs.append)
    with pytest.raises(InvalidConfigError, match=match):
        sweep(spec, param, values)
    assert runs == []


def test_sweep_writes_the_flags_run_writes(tmp_path):
    spec = base_spec(algorithms=["ucb-glm", "uniform"])
    emit_csv(run_experiment(spec), str(tmp_path / "run"))
    emit_csv(sweep(spec, "delta", [0.05, 0.1]), str(tmp_path / "sweep"))
    run_meta = json.loads((tmp_path / "run" / "meta.json").read_text())
    sweep_meta = json.loads((tmp_path / "sweep" / "meta.json").read_text())
    assert len(sweep_meta["flags"]) == 4
    for flags in sweep_meta["flags"].values():
        assert flags.keys() == run_meta["flags"]["ucb-glm"].keys()
    for derived in sweep_meta["derived"].values():
        assert derived.keys() == run_meta["derived"]["ucb-glm"].keys()


def test_sweep_variant_matches_a_plain_run():
    spec = base_spec(algorithms=["ucb-glm", "uniform"])
    swept = sweep(spec, "delta", [0.1])
    plain = run_experiment(dataclasses.replace(spec, delta=0.1))
    for name in spec.algorithms:
        label = f"{name}[delta=0.1]"
        for key in ("mean", "std", "min", "max"):
            assert np.array_equal(swept.summary.stats[label][key], plain.summary.stats[name][key])
        assert swept.summary.flags[label] == plain.summary.flags[name]
        assert swept.summary.derived[label] == plain.summary.derived[name]
    assert np.array_equal(swept.summary.ts, plain.summary.ts)


def test_paired_replications_share_environment():
    spec = base_spec(algorithms=["oracle", "uniform"], T=50, record_every=1)
    oracle_trace = run_replication(spec, 0, ("oracle",))["oracle"]
    uniform_trace = run_replication(spec, 0, ("uniform",))["uniform"]
    assert np.array_equal(oracle_trace.optimal_arms, uniform_trace.optimal_arms)


# The chunked loop against the per-round reference ------------------------

WORLDS = [("logistic", "bernoulli"), ("identity", "gaussian"), ("probit", "gaussian")]


def _world(spec: ExperimentSpec, algorithms):
    env = build_environment(spec, 0)
    policies = {
        algorithm: make_policy(
            base_algorithm(algorithm),
            resolve_policy_config(spec, algorithm),
            get_link(spec.link),
            streams.stream(spec.master_seed, 0, streams.POLICY),
            env.theta_star,
        )
        for algorithm in algorithms
    }
    return env, policies


def _play_all(spec: ExperimentSpec, algorithms, recorder: bool):
    """Each label's (trace, observed (t, x) pairs) from one ``simulate`` of
    all ``algorithms`` in one world, or the error the run raised."""
    env, policies = _world(spec, algorithms)
    seen = {algorithm: [] for algorithm in algorithms}
    observe = (lambda label, t, x: seen[label].append((t, x.copy()))) if recorder else None
    try:
        traces = simulate(env, policies, spec.T, spec.record_every, 0, observe=observe)
    except Exception as exc:  # every loop must fail alike
        return type(exc), str(exc)
    return {label: (traces[label], seen[label]) for label in algorithms}


def _play(spec: ExperimentSpec, algorithm: str, recorder: bool):
    """``_play_all`` for one algorithm alone."""
    got = _play_all(spec, [algorithm], recorder)
    return got[algorithm] if isinstance(got, dict) else got


def _play_reference(spec: ExperimentSpec, algorithm: str, recorder: bool):
    """``_play`` through the per-round ``reference_simulate``."""
    env, policies = _world(spec, [algorithm])
    seen = []
    observe = (lambda t, x: seen.append((t, x.copy()))) if recorder else None
    try:
        trace = reference_simulate(env, policies[algorithm], spec.T, spec.record_every,
                                   algorithm, 0, observe=observe)
    except Exception as exc:  # both loops must fail alike
        return type(exc), str(exc)
    return trace, seen


def _assert_same_run(got, want):
    if not isinstance(want[0], RegretTrace):
        assert got == want
        return
    (trace, seen), (ref, ref_seen) = got, want
    for f in dataclasses.fields(RegretTrace):
        a, b = getattr(trace, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert [t for t, _ in seen] == [t for t, _ in ref_seen]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(seen, ref_seen))


@st.composite
def tape_cases(draw, many: bool = False):
    link, noise = draw(st.sampled_from(WORLDS))
    dist = draw(st.sampled_from(["uniform_ball", "sphere", "gaussian_normalized", "fixed"]))
    d = draw(st.integers(1, 4))
    K = draw(st.integers(d, 6))
    algorithms = draw(st.lists(
        st.sampled_from(["uniform", "oracle", "ucb-glm", "epsilon-greedy", "supcb-glm"]
                        + (["greedy"] if many else [])),
        min_size=2 if many else 1, max_size=6 if many else 1, unique=True,
    ))
    # SupCB-GLM's stages need T >= 2, which parsing checks.
    T = draw(st.integers(2 if "supcb-glm" in algorithms else 1, 40))
    raw = dict(
        T=T, d=d, K=K, link=link, noise=noise, context_dist=dist, algorithms=algorithms,
        tau=min(T, draw(st.integers(0, 3 * d))),
        record_every=draw(st.integers(1, 7)),
        master_seed=draw(st.integers(0, 2**20)),
    )
    if noise == "gaussian":
        raw["sigma"] = draw(st.sampled_from([0.0, 0.1, 1.0]))
    if dist == "fixed":
        z = np.random.default_rng(raw["master_seed"]).standard_normal((K, d))
        raw["fixed_contexts"] = (z / np.maximum(np.linalg.norm(z, axis=1), 1.0)[:, None]).tolist()
    # Chunks of 1 to 9 rounds, so T falls below, on and between chunk edges.
    rounds = draw(st.integers(1, 9))
    budget = rounds * K * d + draw(st.integers(0, K * d - 1))
    return ExperimentSpec.from_dict(raw), budget, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(tape_cases())
def test_chunked_simulate_matches_the_per_round_loop(case):
    spec, budget, recorder = case
    algorithm = spec.algorithms[0]
    want = _play_reference(spec, algorithm, recorder)
    with mock.patch.object(harness, "CHUNK_ELEMENTS", budget):
        got = _play(spec, algorithm, recorder)
    _assert_same_run(got, want)


@settings(max_examples=100, deadline=None)
@given(tape_cases(many=True))
def test_each_algorithm_of_a_shared_world_plays_as_if_alone(case):
    spec, budget, recorder = case
    with mock.patch.object(harness, "CHUNK_ELEMENTS", budget):
        together = _play_all(spec, spec.algorithms, recorder)
        alone = {name: _play(spec, name, recorder) for name in spec.algorithms}
    if not isinstance(together, dict):
        # The shared run stops at the first error any of its policies raises.
        assert together in alone.values()
        return
    for name in spec.algorithms:
        _assert_same_run(together[name], alone[name])


@pytest.mark.parametrize(
    "K,d,T",
    [
        (3, 2, 50),  # T far below one chunk at the real budget
        (200, 200, 7),  # K*d over the budget: chunks of one round
        (100, 20, 37),  # the benchmark's stream shape: T not a multiple of the chunk
    ],
)
@pytest.mark.parametrize("record_every", [1, 4])
def test_simulate_at_the_real_chunk_budget(K, d, T, record_every):
    spec = base_spec(T=T, K=K, d=d, algorithms=["uniform"], context_dist="sphere", tau=None,
                     record_every=record_every)
    _assert_same_run(
        _play(spec, "uniform", True), _play_reference(spec, "uniform", True)
    )

"""The benchmark's traced run (perfbench/tracing.py) wraps glmbandit's
functions and methods by name from outside the package. A rename in the
package must fail this suite rather than break or silently thin the trace."""

import importlib.util
import math
from pathlib import Path

from glmbandit import harness, policies, validation
from glmbandit.links import LOGISTIC

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_named_hook_and_restores_it(monkeypatch):
    # The fits the run makes, counted untraced: UCB-GLM refits only on the
    # rounds its last fit cannot certify, and lemma4 on its straddles.
    fits = []
    fit = policies.mle_fit

    def counted(*args, **kwargs):
        fits.append(1)
        return fit(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(policies, "mle_fit", counted)
        validation.run_ucb_glm_instrumented(LOGISTIC, 2, 3, 40, 0.05, None, 1,
                                            noise="bernoulli", tau=10)
    tracing = _load_tracing()
    originals = {
        (module, attr): getattr(module, attr) for module, attr, _ in tracing.MODULE_FUNCTIONS
    }
    for cls, names in tracing.METHODS:
        for name in names:
            assert hasattr(cls, name), f"{cls.__name__}.{name}"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        runs = validation.run_ucb_glm_instrumented(
            LOGISTIC, 2, 3, 40, 0.05, None, 1, noise="bernoulli", tau=10
        )
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
    assert len(runs) == 1
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["validation.mc_reps"] == 1.0
    assert metrics["policies.selects"] == 40.0
    # The refits and the design updates stay visible to the tracer: tau=10
    # leaves 30 rounds that may fit, and all 40 rounds update the design.
    assert metrics["policies.update_self_s"] > 0.0
    assert 0 < metrics["mle.fits"] == len(fits) <= 30
    assert metrics["design.updates"] == 40.0
    assert metrics["harness.loop_self_s"] > 0.0
    # simulate still draws through sample_context_batch and scores through
    # Environment.arm_means, whatever chunks it works in.
    assert metrics["environment.context_draws"] > 0.0
    assert metrics["environment.regret_s"] > 0.0
    assert metrics["environment.rewards_s"] > 0.0


def test_one_world_per_replication_draws_each_chunk_once(monkeypatch):
    # Three algorithms in one replication share each chunk's context tape,
    # so the draws count chunks, not chunks times algorithms.
    monkeypatch.setenv(harness.THREADS_ENV_VAR, "1")
    spec = harness.ExperimentSpec.from_dict(dict(
        T=300, d=20, K=100, link="identity", noise="gaussian", sigma=0.1,
        context_dist="sphere", algorithms=["uniform", "oracle", "greedy"],
        replications=1, master_seed=3, record_every=7,
    ))
    chunk = harness.CHUNK_ELEMENTS // (spec.K * spec.d)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = harness.run_experiment(spec)
    finally:
        tracer.uninstall()
    assert len(result.traces) == 3
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["environment.context_draws"] == math.ceil(spec.T / chunk)
    assert metrics["environment.regret_s"] > 0.0
    assert metrics["environment.rewards_s"] > 0.0
    # Rewards are scored a chunk at a time too: one table for the learner
    # and one call per policy that does not learn, not one per round.
    reward_calls = [s for s in tracer.spans if s.name == "environment.Environment.sample_reward"]
    assert len(reward_calls) <= 3 * math.ceil(spec.T / chunk)

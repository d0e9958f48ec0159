"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import checkout

checkout.use_checkout()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from glmbandit import links, mle, policies, validation  # noqa: E402


def run_workload(name: str, seed: int, out_dir):
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(workload.inputs(seed))
    output = workload.work(prepared, str(out_dir))
    return workload, prepared, output


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs_and_digests(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    assert workload.inputs(7) == workload.inputs(7)
    assert workload.inputs(7) != workload.inputs(8)
    digests = []
    for i in range(2):
        _, prepared, output = run_workload(name, 7, tmp_path / str(i))
        evaluation = workload.evaluate(prepared, output)
        assert evaluation.failed(None) == []
        digests.append(evaluation.digests)
    assert digests[0] == digests[1]


def test_digest_check_flags_a_one_byte_change(tmp_path):
    workload, prepared, output = run_workload("stream_baselines", 3, tmp_path)
    expected = workload.evaluate(prepared, output).digests
    _, written = output
    path = written["trace_uniform_1.csv"]
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 1
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    evaluation = workload.evaluate(prepared, output)
    assert workloads.mismatched(evaluation.digests, expected) == {"trace_uniform_1.csv"}
    assert evaluation.failed(expected) == ["uniform/1"]


def test_invariants_reject_broken_regret_accounting(tmp_path):
    workload, prepared, output = run_workload("stream_baselines", 3, tmp_path)
    result, _ = output
    oracle = next(tr for tr in result.traces if tr.algorithm == "oracle")
    uniform = next(tr for tr in result.traces if tr.algorithm == "uniform")
    assert workloads.trace_ok(oracle, prepared.T, 1)
    assert workloads.trace_ok(uniform, prepared.T, 1)
    bumped = uniform.cum_regret.copy()
    bumped[10:] += 1e-3
    assert not workloads.trace_ok(dataclasses.replace(uniform, cum_regret=bumped), prepared.T, 1)
    assert not workloads.trace_ok(dataclasses.replace(uniform, algorithm="oracle"), prepared.T, 1)


def test_self_time_on_nested_spans():
    S = tracing.Span
    spans = [
        S("root", 0, 100, -1),
        S("a", 10, 40, 0),
        S("a.x", 15, 20, 1),
        S("a.y", 25, 35, 1),
        S("b", 50, 90, 0),
        S("b.x", 50, 90, 4),
        S("c", 95, 100, 0),
    ]
    assert tracing.self_times(spans) == [100 - 30 - 40 - 5, 30 - 5 - 10, 5, 10, 0, 40, 5]
    assert tracing.outer_time(spans, {"a", "a.x", "b.x"}) == 30 + 40
    assert tracing.has_ancestor(spans, 2, {"root"})
    assert not tracing.has_ancestor(spans, 0, {"root"})


def test_self_time_clips_overlapping_children():
    S = tracing.Span
    spans = [S("p", 0, 10, -1), S("c1", 2, 6, 0), S("c2", 4, 12, 0)]
    assert tracing.self_times(spans)[0] == 2


def test_tracer_records_by_name_imports_and_restores_them():
    def bound():
        return (policies.mle_fit, validation.mle_fit, mle.min_eigenvalue,
                validation.weighted_norm, links.LOGISTIC.mu)

    originals = bound()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(now is not before for now, before in zip(bound(), originals))
        gen = np.random.default_rng(0)
        xs = gen.standard_normal((50, 2))
        ys = (gen.random(50) < 0.5).astype(float)
        policies.mle_fit(links.LOGISTIC, xs, ys)
    finally:
        tracer.uninstall()
    assert bound() == originals
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mle.fits"] == 1
    assert metrics["mle.rows"] == 50
    assert metrics["mle.link_passes"] == metrics["links.calls"] > 0
    assert metrics["mle.fisher_eigs"] == metrics["mle.newton_iters"] > 0


def test_a_repetition_past_the_limit_is_stopped_not_failed(tmp_path, monkeypatch):
    import signal
    import time

    import run

    class Sleeper:
        name = "sleeper"

        def work(self, prepared, out_dir):
            time.sleep(prepared)

        def evaluate(self, prepared, output):
            return workloads.Evaluation({}, {"sleep": ([], True)})

    monkeypatch.setattr(run, "REPETITION_LIMIT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, run._stop_repetition)
    try:
        session = run.Session(Sleeper(), tmp_path / "out")
        assert session.repeat(5.0, None) is None
        assert (session.stopped, session.attempted, session.failed) == (1, 0, 0)
        assert session.repeat(0.0, None) is not None
        assert (session.stopped, session.attempted, session.failed) == (1, 1, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)

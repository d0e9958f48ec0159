"""Re-measure the ROADMAP baseline table on this checkout.

    python3 perfbench/roadmap_baseline.py

Prints, for each row of the table, the value measured here next to the
value the ROADMAP states: µs per round per policy in run_experiment (one
replication; d=5, K=10, logistic/Bernoulli), warm-started mle_fit at three
sample sizes, and emit_csv on 400 k trace rows. Single samples, except
mle_fit (median of 20 calls); one worker and one BLAS thread.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time

import checkout

ROADMAP_US_PER_ROUND = [
    ("ucb-glm", 2000, 246),
    ("ucb-glm", 10000, 707),
    ("supcb-glm", 10000, 1159),
    ("epsilon-greedy", 2000, 362),
    ("uniform", 20000, 43),
]
ROADMAP_MLE_MS = [(1000, 0.22), (10000, 1.10), (50000, 8.3)]
ROADMAP_EMIT = (1.6, 14.0)  # seconds, MB for 400 k trace rows


def main() -> None:
    checkout.use_checkout()
    checkout.verify_imported()
    from glmbandit import environment, harness, links, mle, rng

    shape = {"d": 5, "K": 10, "link": "logistic", "noise": "bernoulli", "master_seed": 2024}
    print("policy, T: measured / ROADMAP µs per round")
    for algorithm, T, stated in ROADMAP_US_PER_ROUND:
        spec = harness.ExperimentSpec.from_dict({**shape, "T": T, "algorithms": [algorithm]})
        start = time.perf_counter()
        harness.run_experiment(spec)
        us = (time.perf_counter() - start) / T * 1e6
        print(f"  {algorithm}, T={T}: {us:.0f} / {stated}")

    print("mle_fit warm start, n: measured / ROADMAP ms (Newton iterations)")
    for n, stated in ROADMAP_MLE_MS:
        gen = rng.stream(2024, 0, rng.CONTEXTS)
        theta = environment.draw_theta_star(gen, 5, 1.0)
        xs = environment.sample_context_batch(gen, "uniform_ball", n, 5)
        ys = (gen.random(n) < links.LOGISTIC.mu(xs @ theta)).astype(float)
        warm = mle.mle_fit(links.LOGISTIC, xs[:-1], ys[:-1]).theta
        times, iterations = [], 0
        for _ in range(20):
            start = time.perf_counter()
            iterations = mle.mle_fit(links.LOGISTIC, xs, ys, warm_start=warm).iterations
            times.append(time.perf_counter() - start)
        print(f"  n={n}: {statistics.median(times) * 1e3:.2f} / {stated} ({iterations})")

    spec = harness.ExperimentSpec.from_dict(
        {**shape, "T": 100000, "algorithms": ["uniform"], "replications": 4}
    )
    result = harness.run_experiment(spec)
    rows = sum(len(tr.ts) for tr in result.traces)
    checkout.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.WORK_DIR) as out_dir:
        start = time.perf_counter()
        written = harness.emit_csv(result, out_dir)
        seconds = time.perf_counter() - start
        mb = sum(os.path.getsize(p) for p in written.values()) / 1e6
    print(f"emit_csv, {rows} trace rows: {seconds:.2f} s, {mb:.1f} MB "
          f"/ ROADMAP {ROADMAP_EMIT[0]} s, {ROADMAP_EMIT[1]} MB")


if __name__ == "__main__":
    main()

"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload refit_logistic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run measures set-up in fresh
interpreters, runs the workload once on the reference seed and checks its
output digests against perfbench/reference.json, then repeats the work for
--seconds on inputs made from --seed and checks every repetition's outputs.

With --trace 0 the result holds the end-to-end metrics (wall_rel, setup_s,
peak_rss_mb); a calibration kernel runs between the repetitions, and
wall_rel is the median of each repetition's wall time over the mean of the
calibration times on either side of it. With --trace 1 untraced and traced
repetitions alternate and the result holds the per-layer metrics, from the traced ones, plus
trace.overhead_s; the spans of the last traced repetition are written to
.perfbench/spans_<workload>.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the run
environment and the spread of the timings. Exits with code 2, printing no
result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 3
MIN_REPETITIONS = 3
# A repetition still running after this many seconds is stopped. On a few
# logistic worlds in a few hundred, a log that stays separable keeps Newton
# at its iteration cap round after round (the robustness item in
# ROADMAP.md), and one repetition runs for many minutes; the limit keeps a
# run within its time budget. A stopped repetition counts as slower than
# every finished one.
REPETITION_LIMIT_S = 30.0
# Repetition i of a run with seed s uses the world seeded s * WORLDS_PER_SEED + i.
WORLDS_PER_SEED = 1000


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> dict[str, list[float]]:
    """import_s and spec_s samples, each from a fresh interpreter."""
    samples: dict[str, list[float]] = {"import_s": [], "spec_s": []}
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        for key in samples:
            samples[key].append(probe[key])
    return samples


def run_environment(seed: int, reference: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {key: os.environ[key] for key in checkout.THREAD_ENV},
        "seed": seed,
        "reference_seed": reference["reference_seed"],
        "held_out_seed": reference["held_out_seed"],
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


class RepetitionStopped(BaseException):
    """Raised by the timer when a repetition runs past REPETITION_LIMIT_S.

    A BaseException, so that no ``except Exception`` in the program or in
    the benchmark takes it for a failure of the work.
    """


def _stop_repetition(signum, frame):
    raise RepetitionStopped


class Session:
    """Runs repetitions of one workload and tallies checked operations."""

    def __init__(self, workload, out_dir: Path):
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.stopped = 0

    def repeat(self, prepared, expected: dict | None, tracer=None):
        """One repetition: (wall seconds, output, digests), or None if it
        raised or was stopped at REPETITION_LIMIT_S.

        Outputs are checked against ``expected`` digests when given.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            signal.setitimer(signal.ITIMER_REAL, REPETITION_LIMIT_S)
            start = time.perf_counter()
            output = self.workload.work(prepared, str(self.out_dir))
            wall = time.perf_counter() - start
        except RepetitionStopped:
            print(f"repetition stopped after {REPETITION_LIMIT_S} s", file=sys.stderr)
            self.stopped += 1
            return None
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.uninstall()
        evaluation = self.workload.evaluate(prepared, output)
        failed = evaluation.failed(expected)
        for op in failed:
            print(f"failed operation: {self.workload.name} {op}", file=sys.stderr)
        self.attempted += len(evaluation.ops)
        self.failed += len(failed)
        return wall, output, evaluation.digests


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        checkout.use_checkout()
        checkout.verify_imported()
    except (checkout.MissingProgramError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    signal.signal(signal.SIGALRM, _stop_repetition)
    setup = measure_setup(args.workload, args.seed * WORLDS_PER_SEED)
    checkout.WORK_DIR.mkdir(exist_ok=True)
    session = Session(workload, checkout.WORK_DIR / f"out-{args.workload}-{os.getpid()}")
    walls: list[float] = []
    relative: list[float] = []
    calibrations: list[float] = []
    traced_walls: list[float] = []
    overheads: list[float] = []
    layer_runs: list[dict[str, float]] = []
    spans: list = []
    try:
        # The reference repetition doubles as the warm-up.
        ref_inputs = workload.inputs(reference["reference_seed"])
        failed_before = session.failed
        session.repeat(workload.prepare(ref_inputs), reference["digests"][args.workload])
        # A stopped reference repetition left its outputs unchecked.
        reference_matched = session.failed == failed_before and session.stopped == 0

        # Untraced repetitions each draw a new world from the run's seed, so
        # the median covers several worlds and one costly world (such as a
        # separable log that stalls Newton) moves it little. The traced run
        # replays one world, so its counts repeat exactly and every traced
        # repetition must reproduce the untraced digests.
        #
        # Calibrations bracket every repetition of a --trace 0 run, and the
        # repetition's wall time is divided by the mean of the two beside
        # it: the host's speed drifts too much between runs for wall time
        # itself to compare across them.
        expected = None
        if not args.trace:
            kernel = calibration.Calibration()
            calibrations.append(kernel.seconds())
        deadline = time.perf_counter() + args.seconds
        for i in itertools.count():
            if time.perf_counter() >= deadline and len(walls) + session.stopped >= MIN_REPETITIONS:
                break
            # A traced run moves on to the next world past any stopped one.
            world = args.seed * WORLDS_PER_SEED + (session.stopped if args.trace else i)
            prepared = workload.prepare(workload.inputs(world))
            stopped = session.stopped
            untraced = session.repeat(prepared, expected)
            if untraced is not None:
                walls.append(untraced[0])
            if not args.trace:
                calibrations.append(kernel.seconds())
                if untraced is not None:
                    relative.append(untraced[0] / statistics.fmean(calibrations[-2:]))
                elif session.stopped > stopped:
                    relative.append(math.inf)
                continue
            if untraced is None:
                continue
            expected = expected or untraced[2]
            tracer = tracing.Tracer()
            done = session.repeat(prepared, expected, tracer)
            if done is not None:
                wall, output, digests = done
                traced_walls.append(wall)
                overheads.append(wall - untraced[0])
                spans = tracer.spans
                layer_runs.append(
                    {**tracing.layer_metrics(spans), **workload.counters(prepared, output)}
                )
    finally:
        shutil.rmtree(session.out_dir, ignore_errors=True)
    if not walls or (args.trace and not overheads):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if not args.trace and math.isinf(statistics.median(relative)):
        print("error: half the repetitions or more were stopped", file=sys.stderr)
        return 1

    setup_s = [i + s for i, s in zip(setup["import_s"], setup["spec_s"])]
    record = {
        "workload": args.workload,
        "environment": run_environment(args.seed, reference),
        "reference_matched": reference_matched,
        "stopped_repetitions": session.stopped,
        "wall_s": spread(walls),
        "setup_s": spread(setup_s),
    }
    if args.trace:
        layers = tracing.median_metrics(layer_runs)
        values = {
            **layers,
            "setup.import_s": statistics.median(setup["import_s"]),
            "setup.spec_s": statistics.median(setup["spec_s"]),
            "trace.overhead_s": statistics.median(overheads),
        }
        spans_path = checkout.WORK_DIR / f"spans_{args.workload}.csv"
        tracing.write_spans(spans, spans_path)
        record["traced_wall_s"] = spread(traced_walls)
        record["shares"] = tracing.shares(spans, traced_walls[-1])
        record["spans"] = str(spans_path.relative_to(checkout.ROOT))
    else:
        record["calibration_s"] = spread(calibrations)
        record["wall_rel"] = spread([r for r in relative if math.isfinite(r)])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "wall_rel": statistics.median(relative),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_mb,
        }
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("measured metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(record))
    print(json.dumps({
        "correct": session.failed == 0 and reference_matched,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

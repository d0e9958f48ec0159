"""Run every workload and print each end-to-end metric by name and unit.

    python3 perfbench/report.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Each run is one `perfbench/run.py` invocation with its own seed and the
run length from BENCHMARK.json. Per workload the report gives every
end-to-end metric's median over the runs, its spread (the distance between
the first and third quartile as a share of the median) next to the
metric's bound, and the error rate: failed operations over attempted ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checkout

HERE = checkout.ROOT / "perfbench"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def relative_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> None:
    with open(checkout.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    for workload in args.workload or names:
        results = []
        for i in range(args.runs):
            result = run_once(workload, args.first_seed + i, bench["run_seconds"], args.trace)
            results.append(result)
            values = " ".join(
                f"{name}={m['value']:.6g}{m['unit']}" for name, m in result["metrics"].items()
            )
            print(f"{workload} seed={args.first_seed + i} correct={result['correct']} {values}",
                  flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"== {workload}: {len(results)} runs, error_rate {failed}/{attempted} = "
              f"{failed / attempted:.6g} ratio")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            bound = metric.get("bound")
            line = (f"   {metric['name']:<28} {statistics.median(values):>14.6g} "
                    f"{metric['unit']:<6} spread {relative_spread(values):.4f}")
            if bound is not None:
                line += f" bound {bound}"
            print(line, flush=True)


if __name__ == "__main__":
    main()

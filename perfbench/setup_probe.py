"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Times ``import glmbandit``, then the spec parse, validation and environment
build of the workload's inputs, and prints them as one JSON object with the
keys import_s and spec_s.
"""

from __future__ import annotations

import json
import sys
import time

import checkout


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    checkout.use_checkout()
    start = time.perf_counter()
    import glmbandit  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name]
    text = json.dumps(workload.inputs(seed))
    parse_start = time.perf_counter()
    workload.prepare(json.loads(text))
    ready = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "spec_s": ready - parse_start}))


if __name__ == "__main__":
    main()

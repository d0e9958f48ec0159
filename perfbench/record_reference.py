"""Re-record the reference output digests of every workload.

    python3 perfbench/record_reference.py

Runs each workload once on the reference seed and writes the sha256 of each
of its outputs to perfbench/reference.json, keeping the recorded seeds. Run
it only in a benchmark change of its own, after a change that alters the
program's outputs on purpose.
"""

from __future__ import annotations

import json
import tempfile

import checkout
from run import REFERENCE


def main() -> None:
    checkout.use_checkout()
    checkout.verify_imported()
    import workloads

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    checkout.WORK_DIR.mkdir(exist_ok=True)
    digests = {}
    for name, workload in workloads.WORKLOADS.items():
        prepared = workload.prepare(workload.inputs(reference["reference_seed"]))
        with tempfile.TemporaryDirectory(dir=checkout.WORK_DIR) as out_dir:
            evaluation = workload.evaluate(prepared, workload.work(prepared, out_dir))
        failed = evaluation.failed(None)
        if failed:
            raise SystemExit(f"{name}: invariants fail for {', '.join(failed)}")
        digests[name] = dict(sorted(evaluation.digests.items()))
    reference["digests"] = digests
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Runs one pass of verify-enum and long-runs with the checks in recording
mode and writes ``bench/reference.json``: the verify-enum suite lines
(``checked=`` counts included) and digests of the long-runs
classification tables, saturated table and stack typings.  Re-record
only when a change is meant to alter these outputs, and say so.
"""

import json
import sys

import workloads
from run import run_pass


def main() -> int:
    hopad = workloads.load_hopad()
    reference = {"suite_seed": workloads.SUITE_SEED}
    for name in ("verify-enum", "long-runs"):
        workload = workloads.WORKLOADS[name](
            hopad, workloads.SUITE_SEED, workloads.build_machines(hopad, name), expected=None
        )
        result = run_pass(workload)
        if result.failed:
            print(f"{name}: {result.failed} jobs failed: {result.failures}", file=sys.stderr)
            return 1
        reference[name] = workload.recorded
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

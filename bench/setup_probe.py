"""Set-up probe: import hopad, build one workload's machines, print the clock.

Run as ``python3 bench/setup_probe.py <workload>``.  Prints the
``time.monotonic()`` value at which the machines are built, a system-wide
clock from which the caller subtracts the time it started this process,
and then the median time of the reference loop of speed.py, with which
the caller normalises that set-up time.
"""

import sys
import time

import workloads

workloads.build_machines(workloads.load_hopad(), sys.argv[1])
ready = time.monotonic()

import speed  # noqa: E402  (after the clock: not part of the set-up)

print(ready, speed.median_loop_seconds())

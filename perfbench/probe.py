"""One fresh start for the set-up measurement: import the program,
build the workload's jobs, print "ready <import ms> <job count>".

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import resnil.cli  # noqa: E402

t1 = time.perf_counter()
import workloads  # noqa: E402

jobs = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(f"ready {(t1 - t0) * 1000.0:.4f} {len(jobs)}", flush=True)

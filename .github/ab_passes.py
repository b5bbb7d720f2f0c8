"""Time two source trees against each other, pass by pass, in one process.

    python3 .github/ab_passes.py BASE_SRC HEAD_SRC WORKLOAD SEED PASSES

BASE_SRC and HEAD_SRC are directories that hold the ``resnil`` package
(``src`` of a checkout).  Each tree's package is copied into a temporary
directory under a name of its own (``resnil_base``, ``resnil_head``; the
package imports itself by relative imports only), so both load side by
side.  The jobs are WORKLOAD's at SEED, built by this checkout's
``perfbench/workloads.py`` and run in-process through ``cli.main`` as
``perfbench/run.py`` runs them.

One untimed pass per tree warms the caches and compares the outputs:
a job whose exit code, stdout or stderr differs between the trees is
named on stderr and the exit status is 1.  Then come PASSES timed
passes per tree, the tree that runs first alternating from pass to
pass, so that a drift in the host's speed falls on both alike.  The last
line of stdout is one JSON object: each tree's min and median pass time
in seconds, the median over the passes of the head/base time ratio, and
the number of passes the head ran faster.

Both trees share one process and one host phase, so a ratio resolves a
difference of about 1 % where two separate benchmark runs do not.
"""

from __future__ import annotations

import gc
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(src: str, name: str, into: str):
    # the cli module of src's resnil package, imported as package `name`
    shutil.copytree(os.path.join(src, "resnil"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run(cli, job) -> tuple:
    # (exit code, stdout, stderr) of one job; an exception escaping main
    # is the traceback exit, 1
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin or ""), out, err
    try:
        code = cli.main(list(job.argv))
    except Exception:
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def timed_pass(cli, jobs) -> float:
    gc.collect()
    t0 = time.perf_counter()
    for job in jobs:
        run(cli, job)
    return time.perf_counter() - t0


def main(base_src: str, head_src: str, workload: str, seed: int, passes: int) -> int:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    jobs = workloads.WORKLOADS[workload](seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        base, head = load(base_src, "resnil_base", tmp), load(head_src, "resnil_head", tmp)
        differ = [job.name for job in jobs if run(base, job) != run(head, job)]
        for name in differ:
            print(f"output differs: {name}", file=sys.stderr)
        times = {"base": [], "head": []}
        for i in range(passes):
            order = (("base", base), ("head", head))
            for side, cli in order if i % 2 == 0 else order[::-1]:
                times[side].append(timed_pass(cli, jobs))
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    result = {side: {"min_s": min(ts), "median_s": statistics.median(ts)}
              for side, ts in times.items()}
    result["median_ratio"] = statistics.median(ratios)
    result["head_wins"] = sum(r < 1 for r in ratios)
    result["passes"] = passes
    print(json.dumps(result))
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 6:
        sys.exit("usage: ab_passes.py BASE_SRC HEAD_SRC WORKLOAD SEED PASSES")
    base_src, head_src, workload, seed, passes = sys.argv[1:]
    sys.exit(main(base_src, head_src, workload, int(seed), int(passes)))

"""Fingerprint every benchmark job's output under one source tree.

    python3 .github/same_reports.py SRC

SRC is a directory that holds the ``resnil`` package (``src`` of a
checkout).  The jobs come from this checkout's ``perfbench/workloads.py``:
each job of the three workloads at seeds 1, 2, 7 and 41 runs in-process
through ``resnil.cli.main``, as ``perfbench/run.py`` runs it.  Prints a
JSON map from job id to the sha256 of (exit code, stdout, stderr).  Two
trees that print the same map give every job the same bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

SEEDS = (1, 2, 7, 41)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint(cli, job) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin or ""), out, err
    try:
        code = cli.main(list(job.argv))
    except Exception:
        # an exception escaping main is the traceback exit
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def main(src: str) -> dict:
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    import workloads
    from resnil import cli

    return {
        f"{name}/{seed}/{i}/{job.name}": fingerprint(cli, job)
        for name, make in workloads.WORKLOADS.items()
        for seed in SEEDS
        for i, job in enumerate(make(seed))
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: same_reports.py SRC")
    json.dump(main(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

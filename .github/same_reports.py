"""Fingerprint every benchmark job's output under one source tree.

    python3 .github/same_reports.py SRC

SRC is a directory that holds the ``resnil`` package (``src`` of a
checkout).  The jobs come from this checkout's ``perfbench/workloads.py``:
each job of the three workloads at seeds 1, 2, 7 and 41 runs in-process
through ``resnil.cli.main``, as ``perfbench/run.py`` runs it.  So do the
companions of x^n - 5x + 1 for n = 5..11 at the default caps and n = 12
with ``--cap 100000``: their Galois group is S_n and their orbit
polynomials are the largest the audits meet (degree up to 220).  Prints
a JSON map from job id to the sha256 of (exit code, stdout, stderr).  Two
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


def fingerprint(cli, argv, stdin) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin or ""), out, err
    try:
        code = cli.main(list(argv))
    except Exception:
        # an exception escaping main is the traceback exit
        code = 1
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def rank_wall():
    # (n, argv): the companion matrix of x^n - 5x + 1 at K = 3
    for n in range(5, 13):
        rows = [[int(i == j + 1) for j in range(n - 1)] + [(-1, 5)[i] if i < 2 else 0]
                for i in range(n)]
        argv = ["--matrix", json.dumps(rows).replace(" ", "")]
        yield n, argv + (["--cap", "100000"] if n == 12 else [])


def main(src: str) -> dict:
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    import workloads
    from resnil import cli

    out = {
        f"{name}/{seed}/{i}/{job.name}": fingerprint(cli, job.argv, job.stdin)
        for name, make in workloads.WORKLOADS.items()
        for seed in SEEDS
        for i, job in enumerate(make(seed))
    }
    for n, argv in rank_wall():
        out[f"rank_wall/{n}"] = fingerprint(cli, argv, "")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: same_reports.py SRC")
    json.dump(main(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

#!/usr/bin/env python3
"""Benchmark for resnil: whole classification jobs, run in-process
through ``resnil.cli.main`` in one single-threaded process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload graded_audit --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --seconds 32      # every workload, as a table

One run builds the workload's job list from the seed, measures set-up
in fresh interpreters, then runs whole passes over the job list until
--seconds have gone by.  With --trace 1 every second pass runs with the
layer wrappers of spans.py installed and the run reports per-layer
figures instead of the end-to-end ones.  The outputs of every job are
checked (checks.py) and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import operator
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Fresh starts per set-up measurement; one more runs first, uncounted,
# so that byte-compiled files exist.
SETUP_STARTS = 7
# The reference work takes this long on the host the bounds were set
# on (Intel Xeon at 2.1 GHz, CPython 3.11); see HostSpeed.
REFERENCE_MS = 1.8
REFERENCE_EVERY_S = 0.05
# Least number of passes per run (per kind, with --trace 1).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

import workloads  # noqa: E402


class JobTimeout(BaseException):
    """Raised by the alarm inside a job that passes its time limit;
    a BaseException so that the program's handlers do not catch it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def load_program():
    if not os.path.isfile(os.path.join(SRC, "resnil", "cli.py")):
        raise SystemExit(f"error: no resnil sources under {SRC}")
    sys.path.insert(0, SRC)
    import resnil.cli

    if not os.path.abspath(resnil.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: resnil was imported from {resnil.cli.__file__}")
    return resnil.cli


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds from starting a fresh interpreter to its jobs
    being ready, and median milliseconds of the program's import."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    starts, imports = [], []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise SystemExit(f"error: set-up probe failed with code {proc.returncode}")
        if i:
            starts.append(t1 - t0)
            imports.append(float(line.split()[1]))
    return statistics.median(starts), statistics.median(imports)


def _reference_work() -> None:
    """Fixed exact-integer work of the kinds the program does, written
    apart from it: small-integer matrix products, multi-word products,
    trial division and short-list rewriting."""
    rows = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]
    cols = list(zip(*rows))
    P = rows
    for _ in range(4):
        P = [[sum(map(operator.mul, r, c)) for c in cols] for r in P]
    big = [3**k * 7**k + k for k in range(150, 230)]
    acc = 1
    for a, b in zip(big, big[1:]):
        acc = (acc * a + b) % (b * b)
    m, d = 10007 * 10009, 3
    while d * d <= m and m % d:
        d += 2
    word = []
    for g in (1, 2, -1, 1, 2, 2, -2, -1, 3) * 40:
        if word and word[-1] == -g:
            word.pop()
        else:
            word.append(g)


class HostSpeed:
    """Speed of the shared host during a run.

    On a shared host the same computation takes from 0.7x to 1.3x its
    usual time, in phases lasting from seconds to minutes.  A run
    therefore times a fixed piece of reference work between jobs, about
    every REFERENCE_EVERY_S seconds, and the timing metrics are scaled
    by REFERENCE_MS over its median: a time is the time the job would
    take on a host where the reference work takes REFERENCE_MS.  The
    reference does not run inside any job's timing.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            _reference_work()
            after = time.perf_counter()
            self.samples.append(after - now)
            self._next = after + REFERENCE_EVERY_S

    def factor(self) -> float:
        """Multiplier from measured times to reference-host times."""
        return REFERENCE_MS / 1000.0 / statistics.median(self.samples)


class Outcome:
    __slots__ = ("code", "stdout", "stderr", "seconds", "differs")

    def __init__(self, code, stdout, stderr, seconds):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.seconds = seconds
        self.differs = False

    def key(self):
        return self.code, self.stdout, self.stderr


def execute(cli, job, limit: float) -> Outcome:
    """Run one job as the command line would, under a time limit.
    Exit code None means the limit stopped it; an exception escaping
    main is the traceback exit, 1."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(job.stdin or ""), out, err
    code = None
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        code = cli.main(list(job.argv))
    except JobTimeout:
        code = None
    except Exception:
        code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        sys.stdin, sys.stdout, sys.stderr = saved
    return Outcome(code, out.getvalue(), err.getvalue(), t1 - t0)


def run_pass(cli, jobs, limit, host, first=None, tracer=None) -> list[Outcome]:
    """One pass over the job list.  After the first pass only whether
    each output repeats the first pass's is kept, so that stored
    reports do not add to the peak memory measured."""
    gc.collect()
    outcomes = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.begin_job(i)
        host.maybe_sample()
        o = execute(cli, job, limit)
        if first is not None:
            o.differs = o.key() != first[i].key()
            o.stdout = o.stderr = None
        outcomes.append(o)
    return outcomes


def failed_jobs(jobs, outcomes) -> set:
    return {i for i, (j, o) in enumerate(zip(jobs, outcomes)) if o.code != j.expect_exit}


def end_to_end(jobs, passes, factor: float) -> dict:
    """jobs_per_s and job_ms_geomean over the passes, in reference-host
    time (see HostSpeed), leaving out the time of failed jobs, so that
    no time limit enters a figure."""
    rates = []
    for outcomes in passes:
        bad = failed_jobs(jobs, outcomes)
        busy = sum(o.seconds for i, o in enumerate(outcomes) if i not in bad)
        rates.append((len(jobs) - len(bad)) / busy)
    logs = []
    for i, job in enumerate(jobs):
        times = [p[i].seconds for p in passes if p[i].code == job.expect_exit]
        if len(times) == len(passes):
            logs.append(math.log(statistics.median(times) * 1000.0))
    return {
        "jobs_per_s": (statistics.median(rates) / factor, "1/s"),
        "job_ms_geomean": (math.exp(statistics.fsum(logs) / len(logs)) * factor, "ms"),
    }


def verify(jobs, passes) -> list[str]:
    """Problems found in the outputs: checks on the first pass, and
    every later pass must repeat it byte for byte."""
    import checks

    problems = []
    first = passes[0]
    for i, (job, o) in enumerate(zip(jobs, first)):
        if any(p[i].differs for p in passes[1:]):
            problems.append(f"{job.name}: output differs between passes")
        if o.code != job.expect_exit:
            continue
        try:
            if o.code == 0:
                found = checks.check_report(job, o.stdout) if job.action else []
            else:
                found = checks.check_refusal(job, o.stdout, o.stderr)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, SyntaxError) as e:
            found = [f"report could not be read: {type(e).__name__}: {e}"]
        problems += [f"{job.name}: {p}" for p in found]
    return problems


def run_workload(args) -> dict:
    cli = load_program()
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    limit = workloads.TIME_LIMIT_S[args.workload]
    setup_s, import_ms = measure_setup(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    traced, layer_rows = [], []
    if args.trace:
        import spans

        tracer = spans.Tracer()
    host = HostSpeed()
    plain = []
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(run_pass(cli, jobs, limit, host, plain[0] if plain else None))
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
            try:
                outcomes = run_pass(cli, jobs, limit, host, plain[0], tracer)
            finally:
                tracer.uninstall()
            traced.append(outcomes)
            layer_rows.append(spans.summarize(tracer.spans, failed_jobs(jobs, outcomes)))
        enough = len(traced) >= MIN_TRACED_PASSES if tracer else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    problems = verify(jobs, passes)
    failed = sum(len(failed_jobs(jobs, p)) for p in passes)
    for i in sorted(failed_jobs(jobs, plain[0])):
        job, o = jobs[i], plain[0][i]
        why = job.known_fault or "not a known fault"
        print(f"failed job {job.name}: exit {o.code}, expected {job.expect_exit} ({why})")
    for p in problems:
        print(f"check failed: {p}")

    if tracer is not None:
        metrics = {}
        for key in layer_rows[0]:
            unit = {"pct": "%", "ms": "ms", "bits": "bits"}.get(key.rsplit("_", 1)[-1], "count")
            metrics[key] = (statistics.median(r[key] for r in layer_rows), unit)
        plain_ms = statistics.median(
            sum(o.seconds for i, o in enumerate(p) if i not in failed_jobs(jobs, p)) for p in plain
        )
        traced_ms = metrics["trace.pass_ms"][0] / 1000.0
        metrics["trace.overhead_pct"] = (100.0 * (traced_ms / plain_ms - 1.0), "%")
        metrics["setup.import_ms"] = (import_ms, "ms")
        _write_trace(args, tracer.spans, jobs)
    else:
        metrics = end_to_end(jobs, plain, host.factor())
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (setup_s, "s")
    return {
        "correct": not problems,
        "attempted": len(jobs) * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "passes": len(passes),
        "reference_ms": statistics.median(host.samples) * 1000.0,
    }


def _write_trace(args, spans_list, jobs) -> None:
    """Spans of the last traced pass, one JSON array per line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as f:
        for name, start, end, parent, job, measures in spans_list:
            row = [name, round(start, 9), round(end, 9), parent, jobs[job].name, measures]
            f.write(json.dumps(row) + "\n")


def run_all(args) -> int:
    """Every workload in a process of its own, as a table."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:42s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                   help="one workload; all of them when left out")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    line = json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as f:
        f.write(line + "\n")
    print(f"{args.workload}: {result['passes']} passes; reference work "
          f"{result['reference_ms']:.4f} ms against {REFERENCE_MS} ms")
    for key, m in result["metrics"].items():
        print(f"  {key:42s} {m['value']:14.4f} {m['unit']}")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Fingerprint every benchmark job's output under one source tree.

    python3 .github/same_reports.py SRC

SRC is a directory that holds the ``resnil`` package (``src`` of a
checkout).  The jobs come from this checkout's ``perfbench/workloads.py``:
each job of the three workloads at seeds 1, 2, 7 and 41 runs in-process
through ``resnil.cli.main``, as ``perfbench/run.py`` runs it.  So do:

- the companions of x^n - 5x + 1 for n = 5..11 at the default caps and
  n = 12 with ``--cap 100000``: their Galois group is S_n and their
  orbit polynomials are the largest the audits meet (degree up to 220);
- ``--help`` and ``--list-examples``;
- ``--help`` and the usage error of ``--power x`` at COLUMNS 60 and
  100, each set after the package import and restored afterwards:
  argparse sizes help at the time of the call, so a parser that froze
  the terminal width when it was built prints other bytes here;
- seeded block upper triangular actions of rank 4..7 whose diagonal
  blocks are +-1 entries and companions of unit cubics and quartics, at
  K = 3 and 4 with ``--cap 100000``: the sign rule, the combined pieces
  and the per-block Galois certificate of the orbit factor sets;
- rank-2 actions at K = 8..10, where duality gives most levels;
- inputs that pin the order of the size caps and the fiber test: the
  32x32 Kronecker product of [[0,-1],[1,t]] for t = 3..7 and seeded
  conjugates of the companions of x^20 - 3x - 1 and x^40 - 3x - 1 at
  the default K (exit 3, refused before char(A) is factored), the same
  for x^17 - x - 1, whose det(A - E) = +-1 decides it (exit 0) though
  17^3 passes the side cap, and [[2,1],[1,1]] at K = 13 (over the cap
  at rank 2);
- matrix literals whose outcome rests on how the text is read: Python
  literals that are not JSON (``True``, hex, a trailing comma, a
  comment), JSON that is not a matrix (``NaN``, nests 200, 300 and
  1100 deep), a leading newline (JSON accepts it, ``ast.literal_eval``
  does not), an entry of 4301 decimal digits, and an entry of 3700 hex digits at
  powers 1 and 3 (over the entry cap) and, in an involution, at power 2
  (A^2 = E, so no cap is passed); and a ``--json`` job whose matrix
  string carries a non-ASCII comment, echoed as a \\uXXXX escape;
- Galois groups below S_n and products of blocks: seeded conjugates of
  the unit cubics with group A_3 at K = 3..6, and their cubes (det(A
  - E) = +-1 decides three of the four cubics before any audit, but
  none of the cubes), and of unit quartics with
  groups C_4, V_4, D_4, A_4 and S_4 at K = 3 and 4, and seeded block
  upper triangular actions of rank 6..11 with two or three nonlinear
  blocks (S_5 with S_6, f with f(-x), A_3 with S_3, equal degrees, a
  block of multiplicity 2), at K = 3 and at K = 4 with ``--cap 100000``;
- reducible char(A) at rank 5..12, where the factoring of char(A) is
  what the report prints: block upper triangular fiber actions (det(A -
  E) = +-1, decided before any audit) and, at ``--tensor-bound 1``,
  actions of rank 9..12 that reach the prime gcd, with a cyclotomic
  block beside a non-cyclotomic one, two non-cyclotomic blocks, and a
  block of multiplicity 2;
- high rank at ``--tensor-bound 1``: seeded conjugates of the companion
  of x^n - 3x - 1 for n = 40, 60 and 80, by a signed permutation alone
  and with 3 transvections, where char(A) of rank n is formed and
  factored and the prime gcd is read from it;
- actions that are not unimodular, refused with exit 2 and their
  determinant in the message: at rank 3..8 a zero column, two equal
  rows, det 2 and det -2, and det 10^40 + 1, and an ``--endo`` of rank
  3 whose abelianization has det 2.

Prints a JSON map from job id to the sha256 of (exit code, stdout,
stderr).  Two trees that print the same map give every job the same
bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys

SEEDS = (1, 2, 7, 41)
WIDTHS = ("60", "100")
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


@contextlib.contextmanager
def terminal_width(columns: str):
    # the width argparse reads from COLUMNS, for the duration of the block
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = columns
    try:
        yield
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def rank_wall():
    # (n, argv): the companion matrix of x^n - 5x + 1 at K = 3
    for n in range(5, 13):
        rows = [[int(i == j + 1) for j in range(n - 1)] + [(-1, 5)[i] if i < 2 else 0]
                for i in range(n)]
        argv = ["--matrix", json.dumps(rows).replace(" ", "")]
        yield n, argv + (["--cap", "100000"] if n == 12 else [])


# x^3 - 5x + 1 (S_3), x^3 - 3x - 1 (A_3), x^3 + x^2 - x + 1,
# x^3 - x^2 - x - 1, x^4 - 5x + 1 (S_4), x^4 + x^3 + x^2 + x + 1 (C_4),
# x^4 - x^2 - 1 (D_4) and x^4 - 2x + 1 = (x - 1)(x^3 + x^2 + x - 1), as
# [c_0, ..., c_(n-1)] of the monic x^n + ... + c_0
UNIT_BLOCKS = (
    [1, -5, 0], [-1, -3, 0], [1, -1, 1], [-1, -1, -1],
    [1, -5, 0, 0], [1, 1, 1, 1], [-1, 0, -1, 0], [1, -2, 0, 0],
)
RANK_TWO = (
    [[2, 1], [1, 1]], [[0, 1], [1, 3]], [[0, -1], [1, -3]], [[3, 1], [2, 1]],
    [[1, 1], [1, 0]], [[0, -1], [-1, 0]], [[1, 1], [0, 1]], [[-1, 1], [0, -1]],
)


def block_actions():
    # (name, argv): 24 seeded block upper triangular actions of rank 4..7
    rng = random.Random(19)
    for i in range(24):
        n = 4 + i % 4
        blocks = []
        while sum(map(len, blocks)) < n:
            room = n - sum(map(len, blocks))
            fits = [c for c in UNIT_BLOCKS if len(c) <= room]
            if fits and rng.random() < 0.6:
                c = rng.choice(fits)
                blocks.append([[int(r == s + 1) for s in range(len(c) - 1)] + [-c[r]]
                               for r in range(len(c))])
            else:
                blocks += [[[rng.choice((1, -1))]]] * min(rng.randint(1, 3), room)
        rows = [[0] * n for _ in range(n)]
        start = 0
        for b in blocks:
            for r, row in enumerate(b):
                rows[start + r][start:] = row + [rng.randint(-2, 2)
                                                 for _ in range(n - start - len(b))]
            start += len(b)
        argv = ["--matrix", json.dumps(rows).replace(" ", ""), "--cap", "100000"]
        yield f"blocks/{i}", argv + ["--tensor-bound", str(3 + i % 2)]


def cap_order(workloads):
    # (name, argv): the jobs whose exit rests on the caps being checked
    # before char(A) is factored, after the fiber test
    M = [[1]]
    for t in range(3, 8):
        M = [[a * b for a in ra for b in rb] for ra in M for rb in [[0, -1], [1, t]]]
    yield "cap_order/kron32", ["--matrix", workloads.lit(M)]
    rng = random.Random(21)
    for n, c1 in ((20, -3), (40, -3), (17, -1)):
        C = workloads.companion([-1, c1] + [0] * (n - 2))
        A = workloads.conjugate(rng, C, steps=3)
        yield f"cap_order/companion/{n}", ["--matrix", workloads.lit(A)]
    yield "cap_order/rank_two/13", ["--matrix", "[[2,1],[1,1]]", "--tensor-bound", "13"]


# unit cubics with group A_3 (x^3 - 3x -+ 1, x^3 +- x^2 - 2x -+ 1) and
# unit quartics with groups C_4, V_4, D_4, A_4 and S_4, by sympy's
# galois_group, as [c_0, ..., c_(n-1)]
A3_CUBICS = ([-1, -3, 0], [1, -3, 0], [-1, -2, 1], [1, -2, -1])
QUARTICS = ([1, 1, -4, -4], [1, 4, -4, -4], [1, -4, -4, -4], [1, 2, 3, -3], [-1, -4, -4, -4])
# diagonal blocks of the block actions, in the same form: S_5 + S_6,
# S_5 + S_5, f with f(-x) at degrees 3, 4 and 5, A_3 + S_3, S_4 + S_4,
# S_3 + A_3 + S_4, S_3 + S_3 + S_4, an S_3 block of multiplicity 2, C_4,
# D_4 and V_4 beside symmetric blocks, and blocks among +-1 entries
BLOCK_SETS = (
    ([1, -5, 0, 0, 0], [1, -5, 0, 0, 0, 0]),
    ([-1, -1, 0, 0, 0], [1, -5, 0, 0, 0]),
    ([1, -5, 0], [-1, -5, 0]),
    ([1, -5, 0, 0], [1, 5, 0, 0]),
    ([1, -5, 0, 0, 0], [-1, -5, 0, 0, 0]),
    ([-1, -3, 0], [1, -5, 0]),
    ([1, -5, 0, 0], [-1, -1, 0, 0]),
    ([1, -5, 0], [-1, -3, 0], [1, -5, 0, 0]),
    ([1, -5, 0], [-1, -1, 0], [1, -5, 0, 0]),
    ([1, -5, 0], [1, -5, 0], [1, -5, 0, 0]),
    ([1, 1, 1, 1], [1, -5, 0]),
    ([-1, 0, -1, 0], [1, -5, 0, 0]),
    ([1, 4, -4, -4], [-1, 1, 0], [1]),
    ([1, -5, 0], [-1], [-1, -1, 0, 0], [1]),
    ([1, -5, 0], [-1, -1, 0], [1, -3, 0]),
)


def galois_jobs(workloads):
    # (name, argv): the A_3 cubics, the quartics and the block actions
    rng = random.Random(23)
    for i, c in enumerate(A3_CUBICS):
        for K in range(3, 7):
            A = workloads.conjugate(rng, workloads.companion(c))
            argv = ["--matrix", workloads.lit(A), "--tensor-bound", str(K)]
            yield f"galois/a3/{i}/{K}", argv
            yield f"galois/a3/{i}/{K}/power3", argv + ["--power", "3"]
    for i, c in enumerate(QUARTICS):
        for K in (3, 4):
            A = workloads.conjugate(rng, workloads.companion(c))
            yield f"galois/quartic/{i}/{K}", ["--matrix", workloads.lit(A),
                                              "--tensor-bound", str(K)]
    for i, blocks in enumerate(BLOCK_SETS):
        n = sum(map(len, blocks))
        rows = [[0] * n for _ in range(n)]
        start = 0
        for c in blocks:
            for r, row in enumerate(workloads.companion(c)):
                rows[start + r][start:] = row + [rng.randint(-1, 1)
                                                 for _ in range(n - start - len(c))]
            start += len(c)
        for K in (3, 4):
            cap = ["--cap", "100000"] if K == 4 else []
            yield f"galois/blocks/{i}/{K}", ["--matrix", workloads.lit(rows),
                                             "--tensor-bound", str(K)] + cap


# diagonal blocks of the reducible actions, as [c_0, ..., c_(n-1)].  Each
# fiber block has f(1) = +-1: x^2 - x + 1, x^4 - x^3 + x^2 - x + 1 and
# x^4 - x^2 + 1 (Phi_6, Phi_10, Phi_12) beside x^n -+ x - 1, two of
# those, x^5 + x - 1 = (x^2 - x + 1)(x^3 + x^2 - 1), and squares.  The
# K = 1 blocks: x^2 + 1 beside x^7 - 3x - 1; x^4 + 1 with
# (x^3 + x^2 + 3x - 1)^2, all = (x - 1)^d mod 2; x^4 + 2x^3 - 2x + 1 with
# x^7 - 3x - 1; x^5 - 3x - 1 with x^7 - 3x - 1; (x^3 - 3x - 1)^2 with
# x^6 + x^5 - x^3 + 1
FIBER_SETS = (
    ([1, -1], [-1, -1, 0]),
    ([1, -1, 1, -1], [-1, 1, 0, 0]),
    ([1, 0, -1, 0], [-1, -1, 0, 0, 0, 0]),
    ([-1, -1, 0, 0, 0], [-1, -1, 0, 0]),
    ([-1, -1, 0, 0, 0, 0, 0], [-1, 1, 0, 0, 0]),
    ([-1, -1, 0], [-1, -1, 0]),
    ([1, -1], [1, -1], [-1, -1, 0]),
    ([-1, -1, 0, 0], [-1, -1, 0, 0], [-1, 0, 1]),
)
K1_SETS = (
    ([1, 0], [-1, -3, 0, 0, 0, 0, 0]),
    ([1, 0, 0, 0], [-1, 3, 1], [-1, 3, 1]),
    ([1, -2, 0, 2], [-1, -3, 0, 0, 0, 0, 0]),
    ([-1, -3, 0, 0, 0], [-1, -3, 0, 0, 0, 0, 0]),
    ([-1, -3, 0], [-1, -3, 0], [1, 0, 0, -1, 0, 1]),
)


def block_matrix(workloads, rng, blocks):
    # the companions of blocks down the diagonal, seeded entries in
    # -1..1 above them
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    start = 0
    for c in blocks:
        for r, row in enumerate(workloads.companion(c)):
            rows[start + r][start:] = row + [rng.randint(-1, 1)
                                             for _ in range(n - start - len(c))]
        start += len(c)
    return workloads.lit(rows)


def reducible_jobs(workloads):
    # (name, argv): fiber actions and K = 1 actions with reducible char(A)
    rng = random.Random(29)
    for i, blocks in enumerate(FIBER_SETS):
        yield f"reducible/fiber/{i}", ["--matrix", block_matrix(workloads, rng, blocks)]
    for i, blocks in enumerate(K1_SETS):
        yield f"reducible/k1/{i}", ["--matrix", block_matrix(workloads, rng, blocks),
                                    "--tensor-bound", "1"]


def high_rank_jobs(workloads):
    # (name, argv): conjugates of the companion of x^n - 3x - 1 at K = 1,
    # with and without transvections
    rng = random.Random(31)
    for n in (40, 60, 80):
        C = workloads.companion([-1, -3] + [0] * (n - 2))
        for steps in (0, 3):
            A = workloads.conjugate(rng, C, steps=steps)
            yield f"high_rank/{n}/{steps}", ["--matrix", workloads.lit(A),
                                             "--tensor-bound", "1"]


def non_unimodular_jobs(workloads):
    # (name, argv): refused actions, each naming its determinant
    rng = random.Random(37)
    zero_col = [[2, 0, 1], [1, 0, 3], [-1, 0, 4]]
    equal_rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
    equal_rows[3] = equal_rows[1][:]
    det_two = workloads.conjugate(rng, workloads.companion([2, -1, 0, 0]), steps=3)
    det_minus_two = workloads.conjugate(rng, workloads.companion([-2, 1, 0, 3, 0, 0]), steps=3)
    det_big = workloads.conjugate(rng, workloads.companion([10**40 + 1] + [0] * 6 + [1]))
    for name, A in (("zero_column/3", zero_col), ("equal_rows/5", equal_rows),
                    ("det_two/4", det_two), ("det_minus_two/6", det_minus_two),
                    ("det_41_digits/8", det_big)):
        yield f"non_unimodular/{name}", ["--matrix", workloads.lit(A)]
    yield "non_unimodular/endo_det_two/3", ["--endo", "a->a^2 b; b->b c; c->c"]


def literal_jobs():
    # (name, argv, stdin): the jobs of the literal parser and the JSON echo
    big = "0x" + "f" * 3700
    for name, text in (
        ("bool", "True"),
        ("hex", "[[0x10,1],[1,0]]"),
        ("trailing_comma", "[[1,2,],[3,4]]"),
        ("nan", "[[NaN]]"),
        ("decimal_4301", "[[1" + "0" * 4300 + ",1],[1,0]]"),
        ("newline_indent", "\n  [[2,1],[1,1]]"),
        ("comment", "[[2,1],[1,1]] # c"),
    ):
        yield f"literal/{name}", ["--matrix", text], ""
    for depth in (200, 300, 1100):
        yield f"literal/deep/{depth}", ["--matrix", "[" * depth + "]" * depth], ""
    for power in ("1", "3"):
        yield f"literal/hex_3700/{power}", ["--matrix", f"[[1,{big}],[0,1]]",
                                            "--power", power], ""
    yield "literal/hex_3700_involution/2", ["--matrix", f"[[1,{big}],[0,-1]]",
                                            "--power", "2"], ""
    yield "literal/json_non_ascii", ["--json"], json.dumps(
        {"matrix": "[[2,1],[1,1]]  # \u00e9t\u00e9 \u2192 \U0001d4d0"})


def extra_jobs(workloads):
    # (name, argv) of the jobs beyond the benchmark's
    for n, argv in rank_wall():
        yield f"rank_wall/{n}", argv
    yield "help", ["--help"]
    yield "list_examples", ["--list-examples"]
    yield from block_actions()
    for i, A in enumerate(RANK_TWO):
        for K in (8, 9, 10):
            yield f"rank_two/{i}/{K}", ["--matrix", json.dumps(A).replace(" ", ""),
                                        "--tensor-bound", str(K)]
    yield from cap_order(workloads)
    yield from galois_jobs(workloads)
    yield from reducible_jobs(workloads)
    yield from high_rank_jobs(workloads)
    yield from non_unimodular_jobs(workloads)


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
    for name, argv in extra_jobs(workloads):
        out[name] = fingerprint(cli, argv, "")
    for name, argv, stdin in literal_jobs():
        out[name] = fingerprint(cli, argv, stdin)
    for columns in WIDTHS:
        with terminal_width(columns):
            for argv in (["--help"], ["--power", "x"]):
                out[f"columns/{columns}/{' '.join(argv)}"] = fingerprint(cli, argv, "")
    return out


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: same_reports.py SRC")
    json.dump(main(sys.argv[1]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

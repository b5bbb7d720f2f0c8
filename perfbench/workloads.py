"""Seeded job lists for the three workloads.

A job is what a user would hand the program: an argument vector for
``resnil.cli.main`` and, for JSON jobs, a stdin document.  Alongside it
the job carries what the checks need to judge the output: the exit
code its input calls for, and the action matrix (or family) that the
benchmark computed itself, without the program.

Every seeded job is a seeded change of basis of a fixed template.  In
graded_audit and power_sweep a matrix template C becomes Q C Q^-1 for a
random signed permutation Q, which moves and signs the entries but
keeps their sizes; in cli_jobs the change of basis also has three
random transvections.  An endomorphism template is conjugated by a
random signed permutation of the generators.  The verdict is an
invariant of the template, and in the first two workloads so is the
size of the work.  That matters because the cost of a graded audit
follows the size of the entries: rank-4 actions with entries of size
at most 3 took 0.88 to 1.82 s at K = 3, and conjugates of one rank-3
template by transvections 2.4 to more than 3 s at K = 4, so a seed
that changed the entries' sizes would set the spread, not the program.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Optional

import zmath

# Time limits per job, in seconds.  Each is well above the slowest job
# of its workload (about 2.5 s, 0.25 s and 0.05 s), so only a job that
# does not end reaches it.
TIME_LIMIT_S = {"graded_audit": 30.0, "power_sweep": 1.0, "cli_jobs": 1.0}


@dataclasses.dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    stdin: Optional[str] = None
    expect_exit: int = 0
    # ("matrix", M) or ("family", (M1, M2, ...)): the action the report
    # must show, computed by the benchmark.
    action: Optional[tuple] = None
    tensor_bound: Optional[int] = None
    primes: tuple = ()
    # Set for jobs that fail on every seed because of a named fault.
    known_fault: Optional[str] = None


# ---------------------------------------------------------------------------
# templates


def companion(coeffs):
    """Companion matrix of the monic polynomial x^n + c[n-1] x^(n-1) + ...
    + c[0], given as coeffs = [c0, c1, ..., c(n-1)]."""
    n = len(coeffs)
    M = [[0] * n for _ in range(n)]
    for i in range(1, n):
        M[i][i - 1] = 1
    for i in range(n):
        M[i][n - 1] = -coeffs[i]
    return M


# companion of x^4 - 5x + 1, the fixed heavy job of graded_audit
X4_5X_1 = companion([1, -5, 0, 0])

# (matrix template, tensor bound or None for the default K)
GRADED_MATRIX_TEMPLATES = (
    (companion([1, -2, 0, 0]), None),  # x^4 - 2x + 1 = (x-1)(x^3+x^2+x-1)
    (companion([1, -1, 1]), 4),  # x^3 + x^2 - x + 1
    (companion([1, -5, 0]), None),  # x^3 - 5x + 1
    (companion([-1, -3, 0]), None),  # x^3 - 3x - 1
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], None),  # unipotent: every prime
    ([[-1, 1, 0], [0, -1, 1], [0, 0, -1]], None),  # spectrum -1: p = 2
    ([[0, 1], [1, 0]], 6),  # det -1, tr 0
    ([[3, 1], [2, 1]], 5),  # det 1, tr 4
    ([[0, -1], [1, -3]], 5),  # det 1, tr -3
)

# rank-2 endomorphism templates "a->b; b->a^s b^k", abelianized to
# [[0, s], [1, k]]
GRADED_ENDO_TEMPLATES = (((1, 3), 5), ((-1, 6), 5))

# power_sweep: (matrix template, power, tensor bound or None).  The
# rank-3 jobs stop at K = 2: at the default K = 3 the 27-side audit of
# a power with 200-bit entries would outweigh the prime extraction and
# word powering this workload is for.
POWER_MATRIX_TEMPLATES = (
    ([[2, 1], [1, 1]], 20, None),
    ([[2, 1], [1, 1]], 29, None),
    ([[2, 1], [1, 1]], 39, None),
    ([[3, 1], [2, 1]], 12, None),
    ([[3, 1], [2, 1]], 19, None),
    ([[3, 1], [2, 1]], 22, None),
    ([[1, 1], [1, 0]], 15, None),
    ([[0, -1], [1, -3]], 12, None),
    (companion([1, -5, 0]), 6, 2),
    (companion([-1, -3, 0]), 8, 2),
    (companion([1, -1, 1]), 10, 2),
)
POWER_ENDO_TEMPLATES = (((1, 2), 8), ((-1, 4), 6), ((1, 3), 9))
MIKHAILOV_POWERS = (2, 4, 6, 8, 10)
KLEIN_POWERS = (2, 3)
# [[0,-1],[1,2-p]] with p = 1000000000039: prime extraction by trial
# division does not end on its tensor-power factor values.
P_HUGE = 1000000000039
P_HUGE_MATRIX = [[0, -1], [1, 2 - P_HUGE]]

# cli_jobs: fiber actions (det(A - E) = +-1), each ends before the audits
FIBER_TEMPLATES = (
    companion([-1, -1, 0]),  # x^3 - x - 1
    companion([-1, -1, 0, 0]),  # x^4 - x - 1
    companion([-1, 1, 0, 0, 0]),  # x^5 + x - 1
    companion([-1, -1, 0, 0, 0, 0]),  # x^6 - x - 1
    companion([-1, 1, 0, 0, 0, 0, 0]),  # x^7 + x - 1
    companion([-1, -1, 0, 0, 0, 0, 0, 0]),  # x^8 - x - 1
)
# the primes below 72, asked for by name in the --tensor-bound 1 jobs
ASKED_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
TB1_TEMPLATES = (
    [[2, 1], [1, 1]],
    [[3, 1], [2, 1]],
    companion([1, -5, 0]),
    X4_5X_1,
)
KLEIN_FAMILY = ([[1, 0], [-2, 1]], [[-1, 0], [2, 1]])
BUILTIN_ACTIONS = {
    "mikhailov": ("matrix", [[0, 1], [1, 3]]),
    "braid3": ("matrix", [[1, 1], [-1, 0]]),
    "klein_p2": ("family", KLEIN_FAMILY),
    "mixed_signs": ("matrix", [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
    "identity": ("matrix", [[1, 0], [0, 1]]),
}


# ---------------------------------------------------------------------------
# seeded changes of basis


def conjugate(rng: random.Random, C, steps: int = 0, bound: int = 4):
    """P C P^-1 for a seeded unimodular P made of a signed permutation
    and `steps` elementary transvections.  With transvections, P is
    redrawn until every entry of the result is at most `bound` in
    absolute value; without, the entries are those of C, moved and
    signed."""
    n = len(C)
    while True:
        P = zmath.identity(n)
        Pinv = zmath.identity(n)
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        Q = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        P = zmath.mul(P, Q)
        Pinv = zmath.mul(zmath.transpose(Q), Pinv)
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((1, -1))
            E = zmath.identity(n)
            E[i][j] = s
            Einv = zmath.identity(n)
            Einv[i][j] = -s
            P = zmath.mul(P, E)
            Pinv = zmath.mul(Einv, Pinv)
        A = zmath.mul(zmath.mul(P, C), Pinv)
        if not steps or max(abs(e) for row in A for e in row) <= bound:
            return A


def conjugate_endo(rng: random.Random, s: int, k: int):
    """The endomorphism a->b, b->a^s b^k conjugated by a seeded signed
    permutation of {a, b}, as endo text plus its abelianization."""
    images = {1: [2], 2: [s] + [2] * k}
    perm = [1, 2]
    rng.shuffle(perm)
    sg = {g: rng.choice((1, -1)) for g in (1, 2)}
    psi = {g: [sg[g] * perm[g - 1]] for g in (1, 2)}
    psi_inv = {perm[g - 1]: [sg[g] * g] for g in (1, 2)}
    # psi . phi . psi^-1 on generators
    conj = {
        g: zmath.substitute(psi, zmath.substitute(images, psi_inv[g]))
        for g in (1, 2)
    }
    text = "; ".join(f"{'ab'[g - 1]}->{zmath.word_text(conj[g])}" for g in (1, 2))
    return text, zmath.abelianize(conj, 2)


def lit(M) -> str:
    return json.dumps(M, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the three workloads


def graded_audit(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = [
        Job("x4-5x+1", ("--matrix", lit(X4_5X_1)), action=("matrix", X4_5X_1))
    ]
    for i, (C, K) in enumerate(GRADED_MATRIX_TEMPLATES):
        A = conjugate(rng, C)
        argv = ["--matrix", lit(A)]
        if K is not None:
            argv += ["--tensor-bound", str(K)]
        if i % 2:
            argv.append("--json")
        jobs.append(
            Job(f"matrix-{i}", tuple(argv), action=("matrix", A), tensor_bound=K)
        )
    for i, ((s, k), K) in enumerate(GRADED_ENDO_TEMPLATES):
        text, A = conjugate_endo(rng, s, k)
        argv = ("--endo", text, "--tensor-bound", str(K))
        jobs.append(Job(f"endo-{i}", argv, action=("matrix", A), tensor_bound=K))
    jobs.append(
        Job("klein_p2", ("--example", "klein_p2"), action=BUILTIN_ACTIONS["klein_p2"])
    )
    return jobs


def power_sweep(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i, (C, m, K) in enumerate(POWER_MATRIX_TEMPLATES):
        A = conjugate(rng, C)
        argv = ["--matrix", lit(A), "--power", str(m)]
        if K is not None:
            argv += ["--tensor-bound", str(K)]
        if i % 2:
            argv.append("--json")
        jobs.append(
            Job(
                f"matrix-{i}^{m}",
                tuple(argv),
                action=("matrix", zmath.power(A, m)),
                tensor_bound=K,
            )
        )
    for i, ((s, k), m) in enumerate(POWER_ENDO_TEMPLATES):
        text, A = conjugate_endo(rng, s, k)
        jobs.append(
            Job(
                f"endo-{i}^{m}",
                ("--endo", text, "--power", str(m)),
                action=("matrix", zmath.power(A, m)),
            )
        )
    for m in MIKHAILOV_POWERS:
        A = zmath.power(BUILTIN_ACTIONS["mikhailov"][1], m)
        jobs.append(
            Job(
                f"mikhailov^{m}",
                ("--example", "mikhailov", "--power", str(m)),
                action=("matrix", A),
            )
        )
    for m in KLEIN_POWERS:
        fam = tuple(zmath.power(B, m) for B in KLEIN_FAMILY)
        jobs.append(
            Job(
                f"klein_p2^{m}",
                ("--example", "klein_p2", "--power", str(m)),
                action=("family", fam),
            )
        )
    jobs.append(
        Job(
            "huge-prime-trace",
            ("--matrix", lit(P_HUGE_MATRIX)),
            action=("matrix", P_HUGE_MATRIX),
            known_fault="prime extraction trial-divides a 13-digit prime's "
            "tensor-power factor values and does not end",
        )
    )
    return jobs


def _json_doc(**fields) -> str:
    return json.dumps(fields)


def cli_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, action in BUILTIN_ACTIONS.items():
        jobs.append(Job(f"example-{name}", ("--example", name), action=action))
    jobs.append(
        Job(
            "mikhailov-inverse",
            ("--endo", "a->b; b->a b^3", "--inverse", "a->b A^3; b->a", "--json"),
            action=BUILTIN_ACTIONS["mikhailov"],
        )
    )
    for i, C in enumerate(FIBER_TEMPLATES):
        for r in range(3):
            A = conjugate(rng, C, steps=3)
            jobs.append(Job(f"fiber-{i}.{r}", ("--matrix", lit(A)), action=("matrix", A)))
            B = conjugate(rng, C, steps=3)
            jobs.append(
                Job(
                    f"fiber-json-{i}.{r}",
                    ("--json",),
                    stdin=_json_doc(matrix=B, primes=[2, 3]),
                    action=("matrix", B),
                    primes=(2, 3),
                )
            )
    asked = ",".join(map(str, ASKED_PRIMES))
    for i, C in enumerate(TB1_TEMPLATES):
        for r in range(3):
            A = conjugate(rng, C, steps=3)
            jobs.append(
                Job(
                    f"tb1-{i}.{r}",
                    ("--matrix", lit(A), "--tensor-bound", "1", "--primes", asked),
                    action=("matrix", A),
                    tensor_bound=1,
                    primes=ASKED_PRIMES,
                )
            )
    A = conjugate(rng, companion([1, -5, 0]), steps=3)
    jobs.append(
        Job("cap-overrun", ("--matrix", lit(A), "--cap", "8"), expect_exit=3)
    )
    jobs.append(
        Job(
            "cap-overrun-json",
            ("--json",),
            stdin=_json_doc(matrix=lit(A), cap=20, tensor_bound=3),
            expect_exit=3,
        )
    )
    jobs.extend(_malformed(rng))
    jobs.append(
        Job(
            "json-tensor-bound-string",
            ("--json",),
            stdin=_json_doc(matrix="[[2,1],[1,1]]", tensor_bound="3"),
            expect_exit=2,
            known_fault='"tensor_bound": "3" ends in a TypeError traceback',
        )
    )
    jobs.append(
        Job(
            "json-primes-string",
            ("--json",),
            stdin=_json_doc(matrix="[[2,1],[1,1]]", primes=["2"]),
            expect_exit=2,
            known_fault='"primes": ["2"] ends in a TypeError traceback',
        )
    )
    return jobs


def _malformed(rng: random.Random) -> list[Job]:
    """Inputs that must be refused with exit 2."""
    A = conjugate(rng, [[2, 1], [1, 1]], steps=3)
    singular = [row[:] for row in A]
    singular[1] = [2 * e for e in singular[0]]
    word = "a->b; b->a b^3"
    bad_at = rng.randrange(9, len(word))
    bad_word = word[:bad_at] + "(" + word[bad_at:]
    cases = [
        ("not-a-literal", ("--matrix", lit(A)[:-1])),
        ("singular", ("--matrix", lit(singular))),
        ("non-square", ("--matrix", lit(A[:1]))),
        ("word-syntax", ("--endo", bad_word)),
        ("unknown-example", ("--example", f"example{rng.randrange(100)}")),
        ("not-prime", ("--matrix", lit(A), "--primes", str(rng.choice((4, 6, 9, 15))))),
        ("power-zero", ("--matrix", lit(A), "--power", "0")),
        ("inverse-without-endo", ("--matrix", lit(A), "--inverse", "a->b")),
        ("no-source-flag", ("--power", "2")),
        ("unknown-flag", ("--matrix", lit(A), "--bound", "3")),
    ]
    jobs = [Job(f"bad-{name}", argv, expect_exit=2) for name, argv in cases]
    docs = [
        ("json-syntax", lit(A)[:-1]),
        ("json-unknown-field", _json_doc(matrix=lit(A), depth=3)),
        ("json-two-sources", _json_doc(matrix=lit(A), example="braid3")),
        ("json-singular", _json_doc(matrix=singular)),
    ]
    jobs += [
        Job(f"bad-{name}", ("--json",), stdin=doc, expect_exit=2) for name, doc in docs
    ]
    return jobs


WORKLOADS = {
    "graded_audit": graded_audit,
    "power_sweep": power_sweep,
    "cli_jobs": cli_jobs,
}

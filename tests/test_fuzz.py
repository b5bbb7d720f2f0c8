"""Fuzz tests of the command line: every input ends in exit 0, 2 or 3,
never in a traceback (exit 1) and never in a hang.

The runs are derandomized, so a failure reproduces, and each case runs
under an alarm.  Matrix entries stay at most 50.  Powers are at most 50
or from 10^5 to 10^9: at rank <= 4 an action with an eigenvalue off the
unit circle (modulus at least about 1.151, the real root of
x^3 - x^2 + 1) passes the 4300-digit entry cap by the power 10^5, and
the others keep polynomially small entries.  A power in the thousands
still runs for minutes in primes.prime_divisors (CHANGES.md).
Endomorphism exponents reach 10^9, rank-1 tensor bounds 10^6, and
nesting depths 10^5, where the work is bounded.
"""

import contextlib
import io
import json
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from resnil.cli import _JOB_FIELDS, builtin_examples, main

from oracles import with_alarm

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def run_cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return with_alarm(10, lambda: main(argv))
    finally:
        sys.stdin = old


# ---------------------------------------------------------------------------
# JSON documents on stdin

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 50)
    | st.floats(allow_infinity=False)
    | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
EXAMPLES = [ex.name for ex in builtin_examples()]
# field values that often make a valid job, mixed with arbitrary ones
plausible = {
    "matrix": st.sampled_from(["[[0,1],[1,3]]", "[[1,1],[0,1]]", "[[2,1],[1,1]]", "[[1]]"])
    | st.lists(st.lists(st.integers(-2, 3), min_size=2, max_size=2), min_size=2, max_size=2),
    "endo": st.sampled_from(["a->b; b->a b^3", "a->a b; b->b", "a->A; b->B", "a->$"]),
    "inverse": st.sampled_from(["a->B^3 a; b->a", "a->b; b->a"]),
    "example": st.sampled_from(EXAMPLES + ["no_such_example"]),
    "power": st.integers(-1, 12),
    "tensor_bound": st.integers(0, 4),
    "primes": st.lists(st.integers(-1, 12), max_size=3),
    "cap": st.integers(0, 100),
}
jobs = st.fixed_dictionaries(
    {}, optional={name: plausible[name] | json_values for name in _JOB_FIELDS}
)
unknown_fields = st.dictionaries(
    st.text(max_size=6).filter(lambda k: k not in _JOB_FIELDS), json_values, max_size=2
)
documents = (
    st.builds(lambda job, extra: {**job, **extra}, jobs, unknown_fields | st.just({}))
    | json_values
)


@settings(FUZZ, max_examples=300)
@given(doc=documents)
def test_json_documents_end_in_a_known_exit_code(doc):
    assert run_cli(["--json"], json.dumps(doc)) in (0, 2, 3)


@settings(FUZZ, max_examples=50)
@given(text=st.text(max_size=20))
def test_malformed_stdin_ends_in_a_known_exit_code(text):
    assert run_cli(["--json"], text) in (0, 2, 3)


# ---------------------------------------------------------------------------
# unimodular actions and builtins, as text or JSON jobs


@st.composite
def unimodular(draw):
    # a product of a few elementary and sign-change matrices
    n = draw(st.integers(2, 4))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return {"matrix": json.dumps(rows).replace(" ", "")}


POWERS = st.integers(1, 50) | st.integers(10**5, 10**9)
sources = unimodular() | st.builds(
    lambda name: {"example": name}, st.sampled_from(EXAMPLES)
)
options = st.fixed_dictionaries(
    {"power": POWERS},
    optional={
        "primes": st.lists(st.sampled_from([2, 3, 5, 7, 11]), max_size=3),
        "tensor_bound": st.integers(1, 3),
    },
)


@settings(FUZZ, max_examples=200)
@given(source=sources, opts=options, as_json=st.booleans())
def test_actions_and_powers_end_in_a_known_exit_code(source, opts, as_json):
    job = {**source, **opts}
    if as_json:
        code = run_cli(["--json"], json.dumps(job))
    else:
        code = run_cli(argv_of(job))
    assert code in (0, 2, 3)


def argv_of(job):
    argv = []
    for name, value in job.items():
        if name == "primes":
            value = ",".join(map(str, value))
        argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


# ---------------------------------------------------------------------------
# inputs whose size is bounded by the program, not by the generator


@st.composite
def transvections(draw):
    # x_i -> x_j^e x_i or x_i x_j^e, the other generators fixed, with the
    # inverse that negates e (or, sometimes, the endomorphism itself)
    n = draw(st.integers(2, 3))
    i, j = draw(st.permutations(range(n)))[:2]
    e = draw(st.integers(-(10**9), 10**9).filter(bool))
    left = draw(st.booleans())
    names = "abc"[:n]

    def text(sign):
        images = list(names)
        t = f"{names[j]}^{sign * e}"
        images[i] = f"{t} {names[i]}" if left else f"{names[i]} {t}"
        return "; ".join(f"{g}->{w}" for g, w in zip(names, images))

    wrong = draw(st.booleans()) and draw(st.booleans())
    return {"endo": text(1), "inverse": text(1 if wrong else -1),
            "power": draw(POWERS)}


@settings(FUZZ, max_examples=40)
@given(job=transvections(), as_json=st.booleans())
def test_huge_endomorphism_exponents_end_in_a_known_exit_code(job, as_json):
    if as_json:
        assert run_cli(["--json"], json.dumps(job)) in (0, 2)
    else:
        assert run_cli(argv_of(job)) in (0, 2)


@settings(FUZZ, max_examples=25)
@given(entry=st.sampled_from([1, -1]), bound=st.integers(1, 10**6))
def test_rank_one_tensor_bounds_end(entry, bound):
    job = {"matrix": f"[[{entry}]]", "tensor_bound": bound}
    assert run_cli(argv_of(job)) == (0 if bound <= 4096 else 3)


deep_texts = st.builds(
    lambda depth, kind: {
        "json": "[" * depth + "]" * depth,
        "object": '{"a":' * depth + "1" + "}" * depth,
        "minus": "[[" + "-" * depth + "1]]",
        "brackets": "[" * depth + "1" + "]" * depth,
    }[kind],
    st.integers(1, 10**5),
    st.sampled_from(["json", "object", "minus", "brackets"]),
)


@settings(FUZZ, max_examples=40)
@given(text=deep_texts, via=st.sampled_from(["stdin", "matrix", "json_matrix"]))
def test_deep_texts_end_in_a_known_exit_code(text, via):
    if via == "stdin":
        code = run_cli(["--json"], text)
    elif via == "matrix":
        code = run_cli(["--matrix", text])
    else:
        code = run_cli(["--json"], json.dumps({"matrix": text}))
    assert code in (0, 2, 3)

"""Report bytes are a contract: fixed jobs must print exactly the
recorded text.

The jobs reach every verdict branch of classify_f2, classify_general
and classify_family, with requested primes inside and outside the
proven set.  The expected exit codes and stdout live in
report_bytes.json; after a deliberate change to report text, rewrite
it with

    PYTHONPATH=src python tests/test_report_bytes.py

and name the change.
"""

import contextlib
import functools
import io
import json
import os

import pytest

from resnil.cli import main
from resnil.criteria import classify_family
from resnil.zlinalg import IntMatrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_bytes.json")


def _m(text: str, primes: str, *extra: str) -> list:
    return ["--matrix", text, "--tensor-bound", "2", "--primes", primes, *extra]


CLI_JOBS = {
    # classify_f2: series length two
    "braid3": _m("[[1,1],[-1,0]]", "2,3"),
    "braid3-json": _m("[[1,1],[-1,0]]", "2,3", "--json"),
    # classify_f2: tr 2, every prime
    "tr2": _m("[[1,3],[0,1]]", "2,7"),
    "tr2-json": _m("[[1,3],[0,1]]", "2,7", "--json"),
    # classify_f2: det 1, tr 4, the primes of tr - 2
    "tr4": _m("[[3,1],[2,1]]", "2,3"),
    "tr4-json": _m("[[3,1],[2,1]]", "2,3", "--json"),
    # classify_f2: det -1, even trace
    "swap": _m("[[0,1],[1,0]]", "2,5"),
    # classify_f2: det -1, odd trace, length omega^2
    "mikhailov": ["--example", "mikhailov", "--tensor-bound", "2", "--primes", "2,3"],
    "mikhailov-json": ["--example", "mikhailov", "--tensor-bound", "2", "--primes",
                       "2,3", "--json"],
    # classify_general: unimodular A - E
    "rank3-fiber": _m("[[0,0,1],[1,0,-1],[0,1,2]]", "2,3"),
    "rank3-fiber-json": _m("[[0,0,1],[1,0,-1],[0,1,2]]", "2,3", "--json"),
    # classify_general: integer spectrum, all +1 and with a -1
    "jordan-plus": _m("[[1,1,0],[0,1,1],[0,0,1]]", "2,3"),
    "jordan-minus": _m("[[-1,1,0],[0,-1,1],[0,0,-1]]", "2,3"),
    "jordan-minus-json": _m("[[-1,1,0],[0,-1,1],[0,0,-1]]", "2,3", "--json"),
    # classify_general: rank 1 keeps the series length unknown
    "rank1": _m("[[-1]]", "2,3"),
    # classify_general: congruence certificates at 2 and 3
    "congruence": _m("[[0,0,1],[1,0,3],[0,1,3]]", "3,5"),
    "congruence-json": _m("[[0,0,1],[1,0,3],[0,1,3]]", "3,5", "--json"),
    # classify_general: no proven source
    "open-problem": _m("[[0,0,1],[1,0,-4],[0,1,4]]", "2,3"),
    "open-problem-json": _m("[[0,0,1],[1,0,-4],[0,1,4]]", "2,3", "--json"),
    # graded audits at the default K = 3, where factor_over_Z does the work
    "audit-x3-5x+1": ["--matrix", "[[0,0,-1],[1,0,5],[0,1,0]]", "--primes", "2,3"],
    "audit-x3-5x+1-json": ["--matrix", "[[0,0,-1],[1,0,5],[0,1,0]]", "--primes",
                           "2,3", "--json"],
    "audit-x4-2x+1": ["--matrix", "[[0,0,0,-1],[1,0,0,2],[0,1,0,0],[0,0,1,0]]",
                      "--primes", "2,3"],
    "audit-x4-2x+1-json": ["--matrix", "[[0,0,0,-1],[1,0,0,2],[0,1,0,0],[0,0,1,0]]",
                           "--primes", "2,3", "--json"],
    # classify_family: certificate at 2
    "klein": ["--example", "klein_p2", "--primes", "2,3"],
    "klein-json": ["--example", "klein_p2", "--primes", "2,3", "--json"],
}


def _cli_output(argv: list) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return [code, out.getvalue()]


def _family_incomplete() -> list:
    # classify_family with a member that is not unipotent mod 2
    mats = [IntMatrix.from_rows([[2, 1], [1, 1]])]
    doc = classify_family(mats, primes=[2, 3]).to_dict()
    return [0, json.dumps(doc, indent=2, sort_keys=True) + "\n"]


def _outputs() -> dict:
    out = {name: _cli_output(argv) for name, argv in CLI_JOBS.items()}
    out["family-incomplete"] = _family_incomplete()
    return out


@functools.cache
def _recorded() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def test_jobs_match_recording():
    assert sorted(_recorded()) == sorted(list(CLI_JOBS) + ["family-incomplete"])


@pytest.mark.parametrize("name", sorted(CLI_JOBS))
def test_cli_report_bytes(name):
    assert _cli_output(CLI_JOBS[name]) == _recorded()[name]


def test_family_incomplete_bytes():
    assert _family_incomplete() == _recorded()["family-incomplete"]


if __name__ == "__main__":
    with open(GOLDEN, "w") as f:
        json.dump(_outputs(), f, indent=1, sort_keys=True)
        f.write("\n")

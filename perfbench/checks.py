"""Checks on the program's reports, computed apart from the program.

Each expectation is derived from the action matrix the benchmark built
itself (see workloads.py), with the benchmark's own integer arithmetic
(zmath.py) and sympy for factoring:

- rank 2: the det/trace classification of the paper's n = 2 theorem
  (series length 2, omega or omega^2, and the proven primes);
- rank >= 3: "no" exactly when det(A - E) = +-1; otherwise the proven
  primes are the prime divisors of content((A - E)^n), and "every
  prime" exactly when that content is 0, i.e. char(A) = (x - 1)^n;
- the graded-audit pass/fail bits, re-derived from power sums:
  tr(A^j)^k for tensor powers, Brandt's formula for Lie components,
  Newton's identities for the char polys, sympy.factor_list for their
  irreducible factors;
- the matrices a report shows equal the ones the benchmark computed.

sympy is imported here only, after the timed passes.
"""

from __future__ import annotations

import ast
import json
import re

import zmath

_LCS_TEXT = {"2": "two", "omega": "omega", "omega^2": "omega_squared", "unknown": "unknown"}
_YESNO = {"yes": True, "no": False, "unknown": None}
_BITS = re.compile(r"k=(\d+) (pass|fail)")


def parse_report(text: str) -> dict:
    """The verdict fields of a text or JSON report."""
    if text.startswith("{"):
        doc = json.loads(text)
        v = doc["verdict"]
        return {
            "matrices": doc["matrices"],
            "resnil": v["residually_nilpotent"]["value"],
            "lcs": v["lcs_length"],
            "all_primes": v["p_finite_all_primes"],
            "entries": {
                e["p"]: (e["value"], e["certainty"]["kind"]) for e in v["residually_p_finite"]
            },
            "witnesses": [(w["criterion"], w["evidence"]) for w in v["witnesses"]],
        }
    lines = text.split("\n")
    matrices: list = []
    current: list = []
    out: dict = {"entries": {}, "witnesses": [], "all_primes": False}
    for line in lines:
        if line.startswith("    ["):
            current.append(ast.literal_eval(line.strip()))
        elif line.startswith("    det A ="):
            matrices.append(current)
            current = []
        elif line.startswith("residually nilpotent: "):
            out["resnil"] = _YESNO[line.split(": ", 1)[1].split()[0]]
        elif line.startswith("lower central series length: "):
            out["lcs"] = _LCS_TEXT[line.split(": ", 1)[1].split()[0]]
        elif line.startswith("residually p-finite: every prime"):
            out["all_primes"] = True
        elif line.startswith("  p="):
            m = re.match(r"  p=(\d+): (\w+)  \[(.*)\]$", line)
            cert = m.group(3)
            kind = "up_to_bound" if cert.startswith("verified") else cert
            out["entries"][int(m.group(1))] = (_YESNO[m.group(2)], kind)
        elif line.startswith("  - "):
            criterion, evidence = line[4:].split(": ", 1)
            out["witnesses"].append((criterion, evidence))
    out["matrices"] = matrices
    return out


def proven_primes(rep: dict) -> set:
    return {p for p, (v, kind) in rep["entries"].items() if v is True and kind == "proven"}


def rank2_expectation(A) -> tuple:
    """(residually nilpotent, series length, proven primes or "all")
    from det and trace alone."""
    from sympy import primefactors

    d, t = zmath.det(A), zmath.trace(A)
    if (d == 1 and t in (1, 3)) or (d == -1 and t in (1, -1)):
        return False, "two", set()
    if d == 1:
        return (True, "omega", "all") if t == 2 else (True, "omega", set(primefactors(t - 2)))
    if t % 2 == 0:
        return True, "omega", {2}
    return False, "omega_squared", set()


def general_expectation(A) -> tuple:
    """The same triple at rank >= 3, from det(A - E) and the content
    of (A - E)^n."""
    from sympy import primefactors

    n = len(A)
    B = zmath.minus_identity(A)
    if abs(zmath.det(B)) == 1:
        return False, "two", set()
    c = zmath.content(zmath.power(B, n))
    if c == 0:
        return True, "omega", "all"
    ps = set(primefactors(c))
    return (True, "omega", ps) if ps else (None, "unknown", set())


def audit_bits(A, K: int) -> tuple[list, list]:
    """Aschenbrenner-Friedl pass/fail bits of the tensor powers and the
    Lie components of A for k = 1..K: pass when no irreducible factor
    of the char poly takes the value +-1 at 1."""
    from sympy import Poly, symbols

    x = symbols("x")
    n = len(A)
    count = max(n**K, max(k * zmath.witt_dimension(n, k) for k in range(1, K + 1)))
    tr = zmath.power_traces(A, count)

    def passes(coeffs) -> bool:
        _, factors = Poly(coeffs, x).factor_list()
        return all(abs(f.eval(1)) != 1 for f, _ in factors)

    tensor = [passes(zmath.tensor_char_poly(tr, n, k)) for k in range(1, K + 1)]
    lie = [passes(zmath.lie_char_poly(tr, n, k)) for k in range(1, K + 1)]
    return tensor, lie


def _family_expectation(mats) -> bool:
    """True when every matrix is unipotent mod 2 and some length-N
    product of the (B_i - E) vanishes mod 2 for every choice of
    factors: the residual 2-finiteness certificate of a family."""
    n = len(mats[0])
    diffs = [[[e % 2 for e in row] for row in zmath.minus_identity(B)] for B in mats]
    if any(any(e % 2 for row in zmath.power(D, n) for e in row) for D in diffs):
        return False
    products = [zmath.identity(n)]
    for _ in range(2 * n + 1):
        products = [
            [[e % 2 for e in row] for row in zmath.mul(D, P)] for D in diffs for P in products
        ]
        products = [P for i, P in enumerate(products) if P not in products[:i]]
        if all(not any(row) for P in products for row in P):
            return True
    return False


def check_report(job, text: str) -> list[str]:
    """Problems with one successful job's report; empty when it is
    right."""
    problems: list[str] = []
    rep = parse_report(text)
    kind, action = job.action
    mats = list(action) if kind == "family" else [action]
    if rep["matrices"] != [[list(r) for r in M] for M in mats]:
        problems.append("the report shows other matrices than the input calls for")
    if kind == "family":
        if _family_expectation(mats):
            want = (True, {2})
        else:
            want = (None, set())
        got = (rep["resnil"], proven_primes(rep))
        if got != want:
            problems.append(f"family verdict {got}, expected {want}")
        return problems

    A = action
    n = len(A)
    resnil, lcs, primes = rank2_expectation(A) if n == 2 else general_expectation(A)
    if rep["resnil"] is not resnil:
        problems.append(f"residually nilpotent {rep['resnil']}, expected {resnil}")
    if rep["lcs"] != lcs:
        problems.append(f"series length {rep['lcs']}, expected {lcs}")
    if primes == "all":
        if not rep["all_primes"]:
            problems.append("expected every prime")
    else:
        if rep["all_primes"]:
            problems.append("every prime claimed without char(A) = (x-1)^n")
        if proven_primes(rep) != primes:
            problems.append(f"proven primes {sorted(proven_primes(rep))}, expected {sorted(primes)}")
    for p in job.primes:
        if p not in rep["entries"]:
            problems.append(f"requested prime {p} is not reported")

    audits = {c: e for c, e in rep["witnesses"] if c in ("tensor_power_audit", "lie_component_audit")}
    fiber_exit = n >= 3 and lcs == "two"
    if fiber_exit:
        if audits:
            problems.append("graded audits reported after the fiber criterion decided")
        return problems
    K = job.tensor_bound if job.tensor_bound is not None else (4 if n == 2 else 3)
    tensor, lie = audit_bits(A, K)
    for criterion, want in (("tensor_power_audit", tensor), ("lie_component_audit", lie)):
        evidence = audits.get(criterion, "")
        got = [(int(k), b == "pass") for k, b in _BITS.findall(evidence)]
        if got != list(zip(range(1, K + 1), want)):
            problems.append(f"{criterion} bits {got}, expected {want}")
        if f"verified up to bound {K}" not in evidence:
            problems.append(f"{criterion} does not name bound {K}")
    return problems


def check_refusal(job, stdout: str, stderr: str) -> list[str]:
    """An input refused with exit 2 or 3 prints no report and says why."""
    problems = []
    if stdout:
        problems.append("a refused job printed a report")
    if "error" not in stderr:
        problems.append("a refused job printed no error message")
    return problems

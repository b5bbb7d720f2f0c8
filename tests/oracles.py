"""Independent reference implementations used to cross-check the
library.  Everything here is deliberately naive and shares no code
with the package: factorization by divisor interpolation, Lyndon
words by rotation minimality, determinants by Laplace expansion,
Smith invariants by gcds of minors, lattice membership by rational
elimination.  alarm and with_alarm bound the time a check may take,
so that a hang fails the suite."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
import signal
import time
from fractions import Fraction

from resnil import IntMatrix, IntPoly


@contextlib.contextmanager
def alarm(seconds):
    """Raise TimeoutError in the block after `seconds`; an alarm that was
    already set is re-armed on exit with the time it had left."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"did not end in {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    outer = signal.setitimer(signal.ITIMER_REAL, seconds)[0]
    start = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 0.001))


def with_alarm(seconds, func):
    with alarm(seconds):
        return func()


# ---------------------------------------------------------------------------
# polynomial factorization for degree <= 4, Kronecker style


def _divisors(m: int) -> list[int]:
    m = abs(m)
    return [d for d in range(1, m + 1) if m % d == 0]


def _signed_divisors(m: int) -> list[int]:
    return [s * d for d in _divisors(m) for s in (1, -1)]


def _frac_divide(f, g):
    """Quotient f / g over Q (low-to-high Fraction lists), or None if
    the remainder is nonzero."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if len(f) < len(g):
        return None
    out = [Fraction(0)] * (len(f) - len(g) + 1)
    for i in range(len(f) - len(g), -1, -1):
        q = f[i + len(g) - 1] / g[-1]
        out[i] = q
        for j, c in enumerate(g):
            f[i + j] -= q * c
    if any(f):
        return None
    return out


def _content_sign(coeffs):
    c = 0
    for x in coeffs:
        c = math.gcd(c, x)
    sign = -1 if coeffs[-1] < 0 else 1
    return c, sign


def _primitive(coeffs):
    c, sign = _content_sign(list(coeffs))
    return tuple(x // (c * sign) for x in coeffs)


def _eval(coeffs, x):
    v = 0
    for c in reversed(coeffs):
        v = v * x + c
    return v


def _integral(fracs):
    if fracs is None or any(x.denominator != 1 for x in fracs):
        return None
    return [int(x) for x in fracs]


def _find_quadratic_divisor(work):
    """A quadratic divisor of a primitive polynomial without rational
    roots, by divisor interpolation at 0, 1 and -1."""
    f0, f1, fm1 = _eval(work, 0), _eval(work, 1), _eval(work, -1)
    assert f0 and f1 and fm1
    for a in _divisors(work[-1]):
        for c in _signed_divisors(f0):
            for s1 in _signed_divisors(f1):
                b = s1 - a - c
                gm1 = a - b + c
                if gm1 == 0 or fm1 % gm1:
                    continue
                quo = _integral(_frac_divide(work, [c, b, a]))
                if quo is not None:
                    return [c, b, a], quo
    return None


def brute_force_factor(p: IntPoly):
    """(unit, content, sorted tuple of (primitive coeff tuple, mult))
    for nonzero polynomials of degree <= 4."""
    coeffs = list(p.coeffs)
    assert coeffs and len(coeffs) <= 5
    content, sign = _content_sign(coeffs)
    work = [x // (content * sign) for x in coeffs]
    factors: list[tuple] = []

    while work[0] == 0:
        factors.append((0, 1))
        work = work[1:]

    changed = True
    while changed and len(work) > 1:
        changed = False
        for q in _divisors(work[-1]):
            for pr in _signed_divisors(work[0]):
                if math.gcd(abs(pr), q) != 1:
                    continue
                quo = _integral(_frac_divide(work, [-pr, q]))
                if quo is not None:
                    factors.append((-pr, q))
                    work = quo
                    changed = True
                    break
            if changed:
                break

    while len(work) - 1 >= 4:
        hit = _find_quadratic_divisor(work)
        if hit is None:
            break
        g, quo = hit
        factors.append(tuple(g))
        work = quo

    if len(work) > 1:
        # no rational roots and no quadratic divisor found: irreducible
        factors.append(tuple(work))
        work = [1]
    assert work == [1]

    canon: dict[tuple, int] = {}
    for f in factors:
        prim = _primitive(f)
        canon[prim] = canon.get(prim, 0) + 1
    key = sorted(canon.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return sign, content, tuple(key)


def library_factor_canonical(p: IntPoly):
    from resnil import factor_over_Z

    fac = factor_over_Z(p)
    canon = sorted(
        ((tuple(f.coeffs), m) for f, m in fac.factors),
        key=lambda kv: (len(kv[0]), kv[0]),
    )
    return fac.unit, fac.content, tuple(canon)


# ---------------------------------------------------------------------------
# Lyndon words by rotation minimality


def lyndon_words_brute(n: int, k: int) -> list[tuple[int, ...]]:
    out = []
    for w in itertools.product(range(1, n + 1), repeat=k):
        if all(w < w[i:] + w[:i] for i in range(1, k)):
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# determinants by Laplace expansion


def laplace_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def determinantal_divisors(M: IntMatrix) -> tuple[int, ...]:
    """gcd of the k x k minors for k = 1..min(m, n), each by Laplace
    expansion; d_1 * ... * d_k of the Smith invariants equals the k-th."""
    rows = M.to_rows()
    out = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for S in itertools.combinations(range(M.rows), k):
            for T in itertools.combinations(range(M.cols), k):
                g = math.gcd(g, laplace_det([[rows[i][j] for j in T] for i in S]))
        out.append(g)
    return tuple(out)


# ---------------------------------------------------------------------------
# lattice membership by rational elimination


def member_by_elimination(basis: IntMatrix, vec) -> bool:
    """Is vec an integer combination of the columns of basis?  The
    basis must have independent columns (always true for Hermite
    bases)."""
    m, k = basis.rows, basis.cols
    A = [[Fraction(basis.get(i, j)) for j in range(k)] for i in range(m)]
    b = [Fraction(v) for v in vec]
    pivots = []
    row = 0
    for col in range(k):
        piv = next((r for r in range(row, m) if A[r][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        b[row], b[piv] = b[piv], b[row]
        pv = A[row][col]
        A[row] = [x / pv for x in A[row]]
        b[row] /= pv
        for r in range(m):
            if r != row and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
                b[r] -= f * b[row]
        pivots.append((row, col))
        row += 1
    assert len(pivots) == k
    if any(b[r] != 0 for r in range(row, m)):
        return False
    return all(b[r].denominator == 1 for r, _ in pivots)


# ---------------------------------------------------------------------------
# random unimodular matrices by elementary operations


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if op == 0:
            k = rng.choice([-2, -1, 1, 2])
            for c in range(n):
                rows[i][c] += k * rows[j][c]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix.from_rows(rows)

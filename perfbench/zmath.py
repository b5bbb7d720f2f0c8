"""Exact integer helpers the benchmark uses to build jobs and to check
reports without calling the program: matrices as lists of rows, free
group words as lists of signed generator numbers (a = 1, A = -1)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def identity(n: int):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(M):
    return [list(col) for col in zip(*M)]


def mul(A, B):
    Bt = transpose(B)
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def power(A, m: int):
    out = identity(len(A))
    for _ in range(m):
        out = mul(out, A)
    return out


def minus_identity(A):
    return [[a - int(i == j) for j, a in enumerate(row)] for i, row in enumerate(A)]


def det(A) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    M = [[Fraction(a) for a in row] for row in A]
    n = len(M)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            out = -out
        out *= M[k][k]
        for i in range(k + 1, n):
            f = M[i][k] / M[k][k]
            if f:
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    assert out.denominator == 1
    return int(out)


def trace(A) -> int:
    return sum(A[i][i] for i in range(len(A)))


def content(A) -> int:
    g = 0
    for row in A:
        for a in row:
            g = gcd(g, a)
    return g


def power_traces(A, count: int) -> list[int]:
    """[tr(A^0), tr(A^1), ..., tr(A^count)]."""
    out = [len(A)]
    P = identity(len(A))
    for _ in range(count):
        P = mul(P, A)
        out.append(trace(P))
    return out


def newton_char_poly(p: list[int], N: int) -> list[int]:
    """Coefficients, highest degree first, of the monic degree-N
    polynomial whose roots have power sums p[1], ..., p[N]."""
    e = [1]
    for k in range(1, N + 1):
        s = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        if s % k:
            raise ArithmeticError("Newton identity division is not exact")
        e.append(s // k)
    return [(-1) ** k * e[k] for k in range(N + 1)]


def mobius(d: int) -> int:
    out = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            out = -out
        q += 1
    return -out if d > 1 else out


def witt_dimension(n: int, k: int) -> int:
    return sum(mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def tensor_char_poly(tr: list[int], n: int, k: int) -> list[int]:
    """Char poly of the k-fold tensor power of an n x n matrix with
    power traces tr: tr((A^{(x)k})^j) = tr(A^j)^k."""
    N = n**k
    return newton_char_poly([t**k for t in tr[: N + 1]], N)


def lie_char_poly(tr: list[int], n: int, k: int) -> list[int]:
    """Char poly of the action on the degree-k free Lie component, by
    Brandt's formula tr(A^j | L_k) = (1/k) sum_{d | k} mu(d) tr(A^{jd})^{k/d}."""
    N = witt_dimension(n, k)
    sums = [N]
    for j in range(1, N + 1):
        s = sum(
            mobius(d) * tr[j * d] ** (k // d) for d in range(1, k + 1) if k % d == 0
        )
        if s % k:
            raise ArithmeticError("Brandt trace is not an integer")
        sums.append(s // k)
    return newton_char_poly(sums, N)


# ---------------------------------------------------------------------------
# free group words


def reduce_word(w: list[int]) -> list[int]:
    out: list[int] = []
    for g in w:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return out


def substitute(images: dict, w: list[int]) -> list[int]:
    """Image of the word w under the map generator g -> images[g]."""
    out: list[int] = []
    for g in w:
        img = images[abs(g)]
        out.extend(img if g > 0 else [-h for h in reversed(img)])
    return reduce_word(out)


def word_text(w: list[int]) -> str:
    """Syllable text such as "a^2 B b^-3" (letters a, b, ...;
    uppercase is the inverse)."""
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        g = w[i]
        letter = chr(ord("a") + abs(g) - 1)
        run = j - i
        if run == 1:
            parts.append(letter if g > 0 else letter.upper())
        else:
            parts.append(f"{letter}^{run if g > 0 else -run}")
        i = j
    return " ".join(parts)


def abelianize(images: dict, n: int):
    """Matrix whose column j is the exponent-sum vector of images[j+1]."""
    cols = [[sum((1 if g > 0 else -1) for g in images[j + 1] if abs(g) == i + 1)
             for i in range(n)] for j in range(n)]
    return transpose(cols)

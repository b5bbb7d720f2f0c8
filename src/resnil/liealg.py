"""Free Lie algebra bookkeeping on Lyndon word bases.

The degree-k component of the free Lie algebra on n symbols has a basis
indexed by Lyndon words of length k, each carrying its standard
bracketing.  Normal forms are computed by expanding brackets in the
free associative algebra and eliminating against the Lyndon basis,
whose expansions are triangular with leading coefficient 1 for the
lexicographic word order.  That makes the reduction terminate by
construction and turns antisymmetry and the Jacobi identity into
theorems rather than rewrite rules.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .errors import AlphabetMismatch, SizeCapExceeded
from .zlinalg import IntMatrix

__all__ = [
    "LyndonBasis",
    "LieElement",
    "DEFAULT_WITT_CAP",
    "witt_dimension",
    "lyndon_count",
    "capped_witt_dimension",
    "lie_power_sums",
    "lyndon_basis",
    "bracket_normal_form",
    "induced_lie_matrix",
]

DEFAULT_WITT_CAP = 512

Word = tuple[int, ...]


def _mobius(d: int) -> int:
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        p += 1
    if d > 1:
        out = -out
    return out


def _divisors(k: int) -> list[int]:
    # the divisors of k >= 1, unordered, by trial division up to sqrt(k)
    out = []
    for d in range(1, math.isqrt(k) + 1):
        if k % d == 0:
            out.extend({d, k // d})
    return out


def witt_dimension(n: int, k: int) -> int:
    """Number of Lyndon words of length k over n symbols:
    (1/k) * sum over d | k of mobius(d) * n^(k/d)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = sum(_mobius(d) * n ** (k // d) for d in _divisors(k))
    assert total % k == 0
    return total // k


def lyndon_count(content) -> int:
    """Number of Lyndon words in which letter r occurs content[r] times,
    by Witt's multigraded formula (Reutenauer, Free Lie Algebras, 1993):
    (1/k) * sum over d | gcd(content) of mobius(d) * (k/d)! / prod (c_r/d)!,
    with k = sum(content).  It depends only on the multiset of counts;
    summed over the contents of length k on n letters it is
    witt_dimension(n, k)."""
    if not content or any(c < 1 for c in content):
        raise ValueError("need a nonempty content of positive counts")
    k = sum(content)
    total = 0
    for d in _divisors(math.gcd(*content)):
        if mu := _mobius(d):
            # the multinomial (k/d)! / prod (c_r/d)! as a product of binomials
            words, seen = 1, 0
            for c in content:
                seen += c // d
                words *= math.comb(seen, c // d)
            total += mu * words
    if total % k:
        raise ArithmeticError(f"Witt sum {total} is not divisible by {k}")
    return total // k


def capped_witt_dimension(n: int, k: int, witt_cap: int = DEFAULT_WITT_CAP) -> int:
    """witt_dimension(n, k); raises SizeCapExceeded past the cap."""
    dim = witt_dimension(n, k)
    if dim > witt_cap:
        raise SizeCapExceeded(f"Witt dimension {dim} exceeds cap {witt_cap}")
    return dim


def lie_power_sums(traces, k: int, count: int) -> list[int]:
    """Traces of A^j on the degree-k free Lie component, j = 1..count,
    from traces[i - 1] = tr(A^i) for i up to k * count.

    Brandt's character formula (Brandt 1944):
    tr(A^j | L_k) = (1/k) * sum over d | k of mobius(d) * tr(A^(jd))^(k/d).
    At A = E it is witt_dimension.
    """
    terms = [(d, mu) for d in _divisors(k) if (mu := _mobius(d))]
    out = []
    for j in range(1, count + 1):
        total = sum(mu * traces[j * d - 1] ** (k // d) for d, mu in terms)
        if total % k:
            raise ArithmeticError(f"Brandt sum at j={j} is not divisible by {k}")
        out.append(total // k)
    return out


def _is_lyndon(w: Word) -> bool:
    # strictly smaller than every proper suffix
    return len(w) > 0 and all(w < w[i:] for i in range(1, len(w)))


def _lyndon_words(n: int, k: int) -> list[Word]:
    # Duval's generation of Lyndon words of length <= k, filtered to k
    out = []
    w = [1]
    while w:
        if len(w) == k:
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    return out


@functools.lru_cache(maxsize=None)
def _stdfact(w: Word) -> tuple[Word, Word]:
    # split at the lexicographically least proper suffix
    assert len(w) >= 2
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


@functools.lru_cache(maxsize=None)
def _bracket_tree(w: Word):
    if len(w) == 1:
        return w[0]
    u, v = _stdfact(w)
    return (_bracket_tree(u), _bracket_tree(v))


def _wmul(P: dict[Word, int], Q: dict[Word, int]) -> dict[Word, int]:
    out: dict[Word, int] = {}
    for u, a in P.items():
        for v, b in Q.items():
            key = u + v
            c = out.get(key, 0) + a * b
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _wsub(P: dict[Word, int], Q: dict[Word, int]) -> dict[Word, int]:
    out = dict(P)
    for w, b in Q.items():
        c = out.get(w, 0) - b
        if c:
            out[w] = c
        elif w in out:
            del out[w]
    return out


@functools.lru_cache(maxsize=None)
def _expand_word(w: Word) -> tuple[tuple[Word, int], ...]:
    # associative expansion of the standard bracketing of the Lyndon word w
    if len(w) == 1:
        return ((w, 1),)
    u, v = _stdfact(w)
    P = dict(_expand_word(u))
    Q = dict(_expand_word(v))
    return tuple(sorted(_wsub(_wmul(P, Q), _wmul(Q, P)).items()))


def _lyndon_coordinates(poly: dict[Word, int]) -> dict[Word, int]:
    """Write a homogeneous Lie element, given in word coordinates, in
    the Lyndon basis.  Uses the triangularity of basis expansions: the
    lex-least word of a nonzero Lie element is Lyndon and its expansion
    has coefficient 1 there."""
    p = {w: c for w, c in poly.items() if c}
    coords: dict[Word, int] = {}
    while p:
        w = min(p)
        if not _is_lyndon(w):
            raise AssertionError(f"element is not in the Lie span: stuck at {w}")
        c = p[w]
        for w2, c2 in _expand_word(w):
            r = p.get(w2, 0) - c * c2
            if r:
                p[w2] = r
            elif w2 in p:
                del p[w2]
        coords[w] = c
    return coords


@dataclasses.dataclass(frozen=True)
class LyndonBasis:
    """Lyndon words of one length in lexicographic order, with their
    standard bracketings (leaf = generator index, node = pair)."""

    alphabet_size: int
    degree: int
    words: tuple[Word, ...]
    trees: tuple[object, ...]

    def bracket_string(self, index: int) -> str:
        def render(t) -> str:
            if isinstance(t, int):
                return f"x{t}"
            return f"[{render(t[0])},{render(t[1])}]"

        return render(self.trees[index])


@functools.lru_cache(maxsize=None)
def lyndon_basis(n: int, k: int, witt_cap: int = DEFAULT_WITT_CAP) -> LyndonBasis:
    """Basis of the degree-k component over n symbols.

    Raises SizeCapExceeded when the Witt dimension passes the cap
    (default 512).
    """
    dim = capped_witt_dimension(n, k, witt_cap)
    words = tuple(_lyndon_words(n, k))
    assert len(words) == dim
    trees = tuple(_bracket_tree(w) for w in words)
    return LyndonBasis(n, k, words, trees)


@dataclasses.dataclass(frozen=True)
class LieElement:
    """Homogeneous element, coordinates over the Lyndon basis of its
    degree (same order as LyndonBasis.words)."""

    alphabet_size: int
    degree: int
    coords: tuple[int, ...]

    @staticmethod
    def from_word_index(n: int, k: int, index: int, coeff: int = 1) -> "LieElement":
        basis = lyndon_basis(n, k)
        coords = [0] * len(basis.words)
        coords[index] = coeff
        return LieElement(n, k, tuple(coords))

    @staticmethod
    def generator(n: int, g: int) -> "LieElement":
        coords = [0] * n
        coords[g - 1] = 1
        return LieElement(n, 1, tuple(coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_assoc(self) -> dict[Word, int]:
        basis = lyndon_basis(self.alphabet_size, self.degree)
        out: dict[Word, int] = {}
        for c, w in zip(self.coords, basis.words):
            if not c:
                continue
            for w2, c2 in _expand_word(w):
                r = out.get(w2, 0) + c * c2
                if r:
                    out[w2] = r
                elif w2 in out:
                    del out[w2]
        return out

    def __str__(self) -> str:
        basis = lyndon_basis(self.alphabet_size, self.degree)
        parts = []
        for i, c in enumerate(self.coords):
            if c:
                parts.append(f"{c:+d}*{basis.bracket_string(i)}")
        return " ".join(parts) if parts else "0"


def bracket_normal_form(
    left: LieElement, right: LieElement, witt_cap: int = DEFAULT_WITT_CAP
) -> LieElement:
    """Lie bracket [left, right], expressed in the Lyndon basis of
    degree deg(left) + deg(right)."""
    if left.alphabet_size != right.alphabet_size:
        raise AlphabetMismatch(
            f"alphabets differ: {left.alphabet_size} vs {right.alphabet_size}"
        )
    n = left.alphabet_size
    k = left.degree + right.degree
    basis = lyndon_basis(n, k, witt_cap)
    P = left.to_assoc()
    Q = right.to_assoc()
    comm = _wsub(_wmul(P, Q), _wmul(Q, P))
    coords = _lyndon_coordinates(comm)
    return LieElement(n, k, tuple(coords.get(w, 0) for w in basis.words))


def induced_lie_matrix(
    A: IntMatrix, k: int, witt_cap: int = DEFAULT_WITT_CAP
) -> IntMatrix:
    """Matrix induced on the degree-k component by the substitution
    sending symbol j to the linear form in column j of A.

    Columns are images, matching the abelianization convention; for
    k = 1 this returns A itself.  Functorial: the matrix of a product
    of substitutions is the product of their matrices.
    """
    n = A.rows
    if A.cols != n:
        from .errors import NotSquare

        raise NotSquare("induced matrix needs a square action")
    basis = lyndon_basis(n, k, witt_cap)
    leaf_polys = [
        {(r + 1,): A.get(r, j) for r in range(n) if A.get(r, j)} for j in range(n)
    ]

    def image(tree) -> dict[Word, int]:
        if isinstance(tree, int):
            return leaf_polys[tree - 1]
        L = image(tree[0])
        R = image(tree[1])
        return _wsub(_wmul(L, R), _wmul(R, L))

    cols = []
    for tree in basis.trees:
        coords = _lyndon_coordinates(image(tree))
        cols.append([coords.get(w, 0) for w in basis.words])
    m = len(basis.words)
    return IntMatrix(m, m, [cols[j][i] for i in range(m) for j in range(m)])

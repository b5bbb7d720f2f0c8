"""Free Lie algebra dimensions and Lyndon word bases.

The degree-k component L_k of the free Lie algebra on n symbols has
rank witt_dimension(n, k), and lyndon_count counts its basis words of
each content; the classifier reads its level sizes and caps from
these.  L_k has a basis indexed by the Lyndon words of length k, each
carrying its standard bracketing.  induced_lie_matrix writes a
substitution's action in that basis: it expands each image bracket in
the free associative algebra and eliminates against the basis, whose
expansions are triangular with leading coefficient 1 for the
lexicographic word order, so the elimination ends by construction.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .errors import NotSquare, SizeCapExceeded
from .primes import prime_divisors
from .zlinalg import IntMatrix

__all__ = [
    "LyndonBasis",
    "DEFAULT_WITT_CAP",
    "witt_dimension",
    "lyndon_count",
    "capped_witt_dimension",
    "lyndon_basis",
    "induced_lie_matrix",
]

DEFAULT_WITT_CAP = 512

Word = tuple[int, ...]


def _mobius_terms(k: int) -> list[tuple[int, int]]:
    # (d, mobius(d)) for the squarefree divisors d of k >= 1, the only
    # divisors with mobius(d) != 0, from the primes of k
    out = [(1, 1)]
    for p in prime_divisors(k):
        out += [(d * p, -mu) for d, mu in out]
    return out


def witt_dimension(n: int, k: int) -> int:
    """Number of Lyndon words of length k over n symbols:
    (1/k) * sum over d | k of mobius(d) * n^(k/d)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = sum(mu * n ** (k // d) for d, mu in _mobius_terms(k))
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
    for d, mu in _mobius_terms(math.gcd(*content)):
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


# elements of the free associative algebra are sparse dicts word -> coefficient,
# with no zero coefficients


def _add_into(out: dict[Word, int], c: int, terms) -> dict[Word, int]:
    # out += c * terms for (word, coefficient) pairs, dropping what cancels
    for w, a in terms:
        r = out.get(w, 0) + c * a
        if r:
            out[w] = r
        elif w in out:
            del out[w]
    return out


def _bracket(P: dict[Word, int], Q: dict[Word, int]) -> dict[Word, int]:
    # the commutator PQ - QP
    out: dict[Word, int] = {}
    for u, a in P.items():
        _add_into(out, a, ((u + v, b) for v, b in Q.items()))
        _add_into(out, -a, ((v + u, b) for v, b in Q.items()))
    return out


def _evaluate(tree, leaves) -> dict[Word, int]:
    # associative expansion of a bracket tree with leaf g read as leaves[g - 1]
    if isinstance(tree, int):
        return leaves[tree - 1]
    return _bracket(_evaluate(tree[0], leaves), _evaluate(tree[1], leaves))


@functools.lru_cache(maxsize=None)
def _expand_word(w: Word) -> tuple[tuple[Word, int], ...]:
    # associative expansion of the standard bracketing of the Lyndon word w
    letters = [{(g,): 1} for g in range(1, max(w) + 1)]
    return tuple(sorted(_evaluate(_bracket_tree(w), letters).items()))


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
        coords[w] = c = p[w]
        _add_into(p, -c, _expand_word(w))
    return coords


@dataclasses.dataclass(frozen=True)
class LyndonBasis:
    """Lyndon words of one length in lexicographic order, with their
    standard bracketings (leaf = generator index, node = pair)."""

    alphabet_size: int
    degree: int
    words: tuple[Word, ...]
    trees: tuple[object, ...]


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
        raise NotSquare("induced matrix needs a square action")
    basis = lyndon_basis(n, k, witt_cap)
    # symbol j goes to the linear form in column j
    leaves = [{(r + 1,): a for r, a in enumerate(A.col(j)) if a} for j in range(n)]
    cols = []
    for tree in basis.trees:
        coords = _lyndon_coordinates(_evaluate(tree, leaves))
        cols.append([coords.get(w, 0) for w in basis.words])
    return IntMatrix.from_cols(len(basis.words), cols)

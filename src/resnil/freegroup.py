"""Words and endomorphisms of finitely generated free groups.

Words are kept freely reduced as syllable lists (generator, exponent).
Endomorphisms map generator j to a stored image word; the induced
matrix on the abelianization stores the image of generator j in column
j (columns are images).
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from typing import Iterable

from .errors import (
    ExponentZero,
    RankMismatch,
    UnknownGenerator,
    WordSyntaxError,
)
from .intpoly import _ints, _power
from .zlinalg import IntMatrix, is_unimodular

__all__ = [
    "FreeWord",
    "FreeEndo",
    "AutoStatus",
    "parse_word",
    "word_multiply",
    "word_invert",
    "endo_compose",
    "endo_power",
    "abelianization_matrix",
    "check_automorphism",
]


def _reduce(syllables: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for g, e in syllables:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return tuple(out)


@dataclasses.dataclass(frozen=True, init=False)
class FreeWord:
    """Freely reduced word in generators 1..rank.

    syllables is a tuple of (generator, exponent) pairs with nonzero
    exponents and no two adjacent pairs sharing a generator.
    """

    rank: int
    syllables: tuple[tuple[int, int], ...]

    def __init__(self, rank: int, syllables: Iterable[tuple[int, int]] = ()):
        (rank,) = _ints((rank,))
        if rank < 1:
            raise RankMismatch(f"rank must be >= 1, got {rank}")
        pairs = tuple(syllables)
        reduced = _reduce(zip(_ints(g for g, _ in pairs), _ints(e for _, e in pairs)))
        for g, _ in reduced:
            if not 1 <= g <= rank:
                raise RankMismatch(f"generator {g} outside rank {rank}")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "syllables", reduced)

    @staticmethod
    def identity(rank: int) -> "FreeWord":
        return FreeWord(rank, ())

    @staticmethod
    def generator(rank: int, g: int, e: int = 1) -> "FreeWord":
        return FreeWord(rank, ((g, e),))

    def is_identity(self) -> bool:
        return not self.syllables

    def length(self) -> int:
        """Word length after free reduction (sum of |exponent|)."""
        return sum(abs(e) for _, e in self.syllables)

    def exponent_sums(self) -> tuple[int, ...]:
        out = [0] * self.rank
        for g, e in self.syllables:
            out[g - 1] += e
        return tuple(out)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return word_multiply(self, other)

    def inverse(self) -> "FreeWord":
        return word_invert(self)

    def __pow__(self, e: int) -> "FreeWord":
        base = self if e >= 0 else self.inverse()
        return _power(base, abs(e), operator.mul, FreeWord.identity(self.rank))

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        parts = []
        for g, e in self.syllables:
            name = _generator_name(g, self.rank)
            parts.append(name if e == 1 else f"{name}^{e}")
        return " ".join(parts)


def _generator_name(g: int, rank: int) -> str:
    if rank <= 26:
        return chr(ord("a") + g - 1)
    return f"x{g}"


def word_multiply(u: FreeWord, v: FreeWord) -> FreeWord:
    """Concatenate and freely reduce."""
    if u.rank != v.rank:
        raise RankMismatch(f"ranks differ: {u.rank} vs {v.rank}")
    return FreeWord(u.rank, u.syllables + v.syllables)


def word_invert(u: FreeWord) -> FreeWord:
    return FreeWord(u.rank, ((g, -e) for g, e in reversed(u.syllables)))


def parse_word(text: str, rank: int) -> FreeWord:
    """Parse a word over generators 1..rank.

    Grammar: a syllable is an atom with an optional exponent.  Atoms are
    ``x`` followed by digits (generator by number), or a single letter
    ``a``..``z`` naming generators 1..26 in alphabetical order; an
    uppercase letter is the inverse of its lowercase generator.  An
    exponent is ``^`` followed by an optional sign and digits.
    Whitespace may separate syllables but is not required.  The empty
    string and the bare atom ``1`` both denote the identity.

    Raises WordSyntaxError (with offset), UnknownGenerator, or
    ExponentZero for an explicit zero exponent.
    """
    i = 0
    n = len(text)
    syllables: list[tuple[int, int]] = []
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        ch = text[i]
        start = i
        inverse = False
        if ch == "1":
            i += 1
            continue
        if ch == "x" and i + 1 < n and text[i + 1].isdigit():
            i += 1
            j = i
            while j < n and text[j].isdigit():
                j += 1
            gen = int(text[i:j])
            i = j
        elif ch.isalpha() and ch.isascii():
            if ch.isupper():
                inverse = True
                ch = ch.lower()
            gen = ord(ch) - ord("a") + 1
            i += 1
        else:
            raise WordSyntaxError(f"unexpected character {ch!r}", i)
        if gen < 1 or gen > rank:
            raise UnknownGenerator(
                f"generator {text[start:i]!r} outside rank {rank}"
            )
        exp = 1
        if i < n and text[i] == "^":
            i += 1
            sign = 1
            if i < n and text[i] in "+-":
                sign = -1 if text[i] == "-" else 1
                i += 1
            if i >= n or not text[i].isdigit():
                raise WordSyntaxError("exponent digits expected after '^'", i)
            j = i
            while j < n and text[j].isdigit():
                j += 1
            exp = sign * int(text[i:j])
            if exp == 0:
                raise ExponentZero(f"zero exponent at offset {i}")
            i = j
        if inverse:
            exp = -exp
        syllables.append((gen, exp))
    return FreeWord(rank, syllables)


@dataclasses.dataclass(frozen=True, init=False)
class FreeEndo:
    """Endomorphism of a free group, stored by generator images."""

    rank: int
    images: tuple[FreeWord, ...]

    def __init__(self, rank: int, images: Iterable[FreeWord]):
        (rank,) = _ints((rank,))
        images = tuple(images)
        if len(images) != rank:
            raise RankMismatch(f"need {rank} images, got {len(images)}")
        for w in images:
            if w.rank != rank:
                raise RankMismatch("image word rank differs from endomorphism rank")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(rank: int) -> "FreeEndo":
        return FreeEndo(rank, tuple(FreeWord.generator(rank, g) for g in range(1, rank + 1)))

    @staticmethod
    def from_strings(images: Iterable[str]) -> "FreeEndo":
        images = list(images)
        rank = len(images)
        return FreeEndo(rank, tuple(parse_word(s, rank) for s in images))

    def apply(self, w: FreeWord) -> FreeWord:
        if w.rank != self.rank:
            raise RankMismatch("word rank differs from endomorphism rank")
        # image(x)^e, by square-and-multiply, once per distinct syllable x^e
        powers = {(g, e): (self.images[g - 1] ** e).syllables for g, e in set(w.syllables)}
        out: list[tuple[int, int]] = []
        for s in w.syllables:
            out.extend(powers[s])
        return FreeWord(self.rank, out)

    def is_identity(self) -> bool:
        return self == FreeEndo.identity(self.rank)

    def __str__(self) -> str:
        pairs = []
        for g, img in enumerate(self.images, start=1):
            pairs.append(f"{_generator_name(g, self.rank)} -> {img}")
        return "; ".join(pairs)


def endo_compose(f: FreeEndo, g: FreeEndo) -> FreeEndo:
    """Composition f after g: (f.g)(w) = f(g(w))."""
    if f.rank != g.rank:
        raise RankMismatch(f"ranks differ: {f.rank} vs {g.rank}")
    return FreeEndo(f.rank, tuple(f.apply(img) for img in g.images))


def endo_power(f: FreeEndo, m: int) -> FreeEndo:
    """m-fold composition of f with itself; m = 0 gives the identity."""
    if m < 0:
        raise ValueError("negative endomorphism power")
    return _power(f, m, endo_compose, FreeEndo.identity(f.rank))


def abelianization_matrix(f: FreeEndo) -> IntMatrix:
    """Induced matrix on Z^rank; column j is the exponent vector of the
    image of generator j."""
    return IntMatrix.from_cols(f.rank, [w.exponent_sums() for w in f.images])


class AutoStatus(enum.Enum):
    PROVEN_AUTO = "proven_auto"
    PROVEN_NOT_AUTO = "proven_not_auto"
    ABELIANIZED_UNIMODULAR_ONLY = "abelianized_unimodular_only"


def check_automorphism(f: FreeEndo, claimed_inverse: FreeEndo | None = None) -> AutoStatus:
    """Decide automorphism status as far as the given data allows.

    With a claimed inverse the answer is definitive: compose both ways
    and compare with the identity.  Without one, a non-unimodular
    abelianization refutes invertibility; otherwise only the abelianized
    evidence is reported.
    """
    if claimed_inverse is not None:
        if claimed_inverse.rank != f.rank:
            raise RankMismatch("inverse rank differs")
        if endo_compose(f, claimed_inverse).is_identity() and endo_compose(
            claimed_inverse, f
        ).is_identity():
            return AutoStatus.PROVEN_AUTO
        return AutoStatus.PROVEN_NOT_AUTO
    if not is_unimodular(abelianization_matrix(f)):
        return AutoStatus.PROVEN_NOT_AUTO
    return AutoStatus.ABELIANIZED_UNIMODULAR_ONLY

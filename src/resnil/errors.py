"""Exception types shared across the package.

Every error raised on bad input derives from ResnilError, so callers
(including the command line front end) can catch one base class and
translate it into a diagnostic instead of a traceback.
"""


class ResnilError(Exception):
    """Base class for all input and capacity errors raised here."""


class ZeroPolynomial(ResnilError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


class NotMonic(ResnilError):
    """The polynomial must have leading coefficient exactly 1."""


class NotSquare(ResnilError):
    """The matrix must be square."""


class SizeCapExceeded(ResnilError):
    """A computed object would exceed the configured size cap."""


class PrimalityUnproven(SizeCapExceeded):
    """A probable prime lies above the range where the primality test
    is a proof."""


class NotUnimodular(ResnilError):
    """The matrix must have determinant +1 or -1."""


class DimensionMismatch(ResnilError):
    """Operands have incompatible shapes or lengths."""


class RankMismatch(ResnilError):
    """A word or image refers to a generator outside the declared rank."""


class WordSyntaxError(ResnilError):
    """Malformed word syntax; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownGenerator(ResnilError):
    """A generator name falls outside the declared rank."""


class ExponentZero(ResnilError):
    """An explicit zero exponent was written; syllables must be nonzero."""


class NotPrime(ResnilError):
    """The modulus p must be a prime number."""


class BadModulus(ResnilError):
    """The modulus must be 0 (exact) or an integer >= 2."""


class Not2x2(ResnilError):
    """This classification applies to 2 x 2 matrices only."""

"""Exact arithmetic for univariate polynomials over the integers.

A polynomial is a dense tuple of coefficients, entry ``i`` holding the
coefficient of ``x**i``.  Everything in this module is exact integer
arithmetic; there is no floating point anywhere.  Every product goes
through one core, ``_conv`` (mod m via ``_mul`` and ``_prod``), every
quotient mod m through ``_divmod``, every quotient over Z through
``_zdivmod`` (``try_exact_div`` and the pseudo-remainders of ``poly_gcd``).
``_power`` is the package's one square-and-multiply.

A primitive polynomial of degree at most 2 is factored in closed form:
a*x^2 + b*x + c splits over Z exactly when b^2 - 4ac is a perfect
square.  Every orbit polynomial of a rank-2 action is of this kind.

A monic polynomial of degree >= 3 with constant term +-1 goes through a
unit front, _factor_unit.  Every polynomial the classifier factors has
this shape, since its roots are products of eigenvalues of a
unimodular matrix.  Its only possible integer roots are 1 and -1, which
linear_root_profile splits off.  The rest has no linear factor, so it
is irreducible at degree 2 or 3, and at degree 4 it splits only into two
monic quadratics with constant terms +-1, found in closed form from
its coefficients.  From degree 5 it takes the Zassenhaus route.

Other polynomials of higher degree follow the classical Zassenhaus
route.  A polynomial that is squarefree modulo one of the primes 3..13
not dividing its leading coefficient is squarefree over Z; only the
others go through Yun's squarefree decomposition, and the first such
prime starts the modular scan of the polynomial itself.  Each squarefree
part gets its distinct-degree pattern modulo 2 and modulo up to 4 small
odd primes; the subset sums of each pattern bound the degrees of its
true factors, and once their intersection is {0, deg} the part is
irreducible (Musser's degree-set test).  Modulo 2 a polynomial is an
int bitmask, bit i the coefficient of x^i: a sum is an xor and the
Frobenius spreads the bits, so the squarefree test and the pattern
there cost a few big-int operations; the odd primes use coefficient
lists.  The scan stops early at an odd prime that leaves at most three
modular factors without shrinking the intersection, and otherwise runs
on even when 2 offers a split, since an odd prime may still prove the
part whole (3 does for x^8 - x - 1).  The split prime is the one with
the fewest modular factors, 2 first among equals.  2 qualifies only
when each of its distinct-degree parts is one irreducible factor, since
equal-degree splitting runs at odd primes only.  The factors are
Hensel-lifted just past twice Mignotte's bound for the coefficients of
a factor of at most half the degree, with the Bezout cofactors lifted
only while another step follows and no lifting at all when p itself is
past that bound.  Subset recombination tries only subsets whose degree
is in the intersection, and multiplies out whichever of a subset and
its complement has at most half the degree of what is left.
This keeps the package dependency free and is fast at the degree range
used here: the classifier factors char(A) and, for its graded audits,
one orbit polynomial P_mu per partition mu of k, or its pieces from
the factors of char(A) (criteria._GradedFactors), of degree at most
n!/((n-len(mu))! prod m_i!), never a characteristic polynomial of
degree n^k.

has_symmetric_galois_group certifies Gal(f) = S_n from the cycle types
of Frobenius elements; _has_integer_root decides the resolvent cubic
of a quartic.  criteria checks an orbit polynomial whose roots such a
group permutes transitively only for squarefreeness.

factor_over_Z checks its result at one integer X, larger than twice
every coefficient of both sides, rather than by expanding the product.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
import random
from typing import Iterable

from .errors import NotMonic, ZeroPolynomial
from .primes import is_prime

__all__ = [
    "IntPoly",
    "FactorizationZ",
    "poly_eval",
    "poly_gcd",
    "squarefree_decomposition",
    "factor_over_Z",
    "squarefree_mod_small_prime",
    "has_symmetric_galois_group",
    "linear_root_profile",
    "power_sums",
    "from_power_sums",
]


def _ints(values: Iterable) -> list[int]:
    """The one integer rule for every value the package stores: ints are
    kept, an integral value of another type (2.0, True) is converted and
    anything else raises TypeError.  All-int input is not converted."""
    out = list(values)
    if not set(map(type, out)) <= {int}:
        for i, v in enumerate(out):
            try:
                out[i] = int(v)
            except (TypeError, ValueError, OverflowError):
                pass
            if type(out[i]) is not int or out[i] != v:
                raise TypeError(f"non-integer value {v!r}")
    return out


@dataclasses.dataclass(frozen=True, init=False)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x^i.

    The zero polynomial is the empty tuple.  Trailing zero coefficients
    are trimmed on construction, so a nonzero polynomial never has a
    zero leading coefficient.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", tuple(_trim(_ints(coeffs))))

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @staticmethod
    def monomial(c: int, k: int) -> "IntPoly":
        return IntPoly((0,) * k + (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other) -> "IntPoly":
        other = _coerce(other)
        return IntPoly(
            a + b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __sub__(self, other) -> "IntPoly":
        other = _coerce(other)
        return IntPoly(
            a - b
            for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        return IntPoly(_conv(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__
    __radd__ = __add__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        return _power(self, e, operator.mul, IntPoly((1,)))

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def content(self) -> int:
        """gcd of the absolute coefficient values (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g

    def primitive_positive(self) -> tuple[int, int, "IntPoly"]:
        """Split off sign and content: p = unit * content * primitive.

        The primitive part has positive leading coefficient and content 1.
        Raises ZeroPolynomial on zero input.
        """
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no primitive part")
        unit = 1 if self.coeffs[-1] > 0 else -1
        cont = self.content()
        if unit * cont == 1:
            return unit, cont, self
        return unit, cont, IntPoly(c // (unit * cont) for c in self.coeffs)

    def shift_up(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def trailing_zeros(self) -> int:
        """Multiplicity of the root 0, i.e. the power of x dividing p."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def shift_down(self, k: int) -> "IntPoly":
        """Divide by x^k; requires the low k coefficients to vanish."""
        assert all(c == 0 for c in self.coeffs[:k])
        return IntPoly(self.coeffs[k:])

    def scale_input(self, b: int) -> "IntPoly":
        """Return p(b*x)."""
        return IntPoly(c * b**i for i, c in enumerate(self.coeffs))

    def sort_key(self) -> tuple:
        return (self.degree(), self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                term = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _power(base, e: int, mul, one):
    # base^e by square-and-multiply, for e >= 0 and any associative mul
    # with unit one, returned only for e = 0: a squaring per bit of e
    # after the first and a product per set bit after the lowest
    out = None
    while e:
        if e & 1:
            out = base if out is None else mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if out is None else out


def _coerce(p) -> IntPoly:
    if isinstance(p, IntPoly):
        return p
    if isinstance(p, int):
        return IntPoly((p,))
    raise TypeError(f"cannot treat {type(p).__name__} as a polynomial")


def poly_eval(p: IntPoly, x: int) -> int:
    """Evaluate p at the integer x by Horner's rule.  Exact."""
    return p.evaluate(x)


def try_exact_div(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """Return q with f = g*q over the integers, or None if no such q exists."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    qr = _zdivmod(f.coeffs, g.coeffs)
    return None if qr is None or qr[1] else IntPoly(qr[0])


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Greatest common divisor in Z[x], normalized to positive leading
    coefficient; the content gcd is included.  gcd(0, 0) = 0.
    """
    if f.is_zero() and g.is_zero():
        return IntPoly()
    if f.is_zero():
        u, c, p = g.primitive_positive()
        return p * c
    if g.is_zero():
        u, c, p = f.primitive_positive()
        return p * c
    cf = f.content()
    cg = g.content()
    ccont = math.gcd(cf, cg)
    a = f.primitive_positive()[2]
    b = g.primitive_positive()[2]
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        # the pseudo-remainder: lc(b)^(deg a - deg b + 1) * a divides
        # exactly by b over Z
        s = b.leading() ** (a.degree() - b.degree() + 1)
        r = IntPoly(_zdivmod([s * c for c in a.coeffs], b.coeffs)[1])
        if r.is_zero():
            a, b = b, r
        else:
            a, b = b, r.primitive_positive()[2]
    prim = a.primitive_positive()[2]
    return prim * ccont


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm over Z.

    Returns [(part, multiplicity), ...] with parts squarefree, pairwise
    coprime, primitive with positive leading coefficient, and
    prod(part^mult) equal to the primitive part of p.  Sign and integer
    content are dropped, matching the unit/content split used by
    factor_over_Z.  Raises ZeroPolynomial on zero input.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    _, _, f = p.primitive_positive()
    if f.degree() < 1:
        return []
    fp = f.derivative()
    g = poly_gcd(f, fp)
    if g.degree() == 0:
        return [(f, 1)]
    c = try_exact_div(f, g)
    d = try_exact_div(fp, g) - c.derivative()
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while c.degree() > 0:
        a = poly_gcd(c, d)
        if a.degree() > 0:
            out.append((a, i))
        c = try_exact_div(c, a)
        d = try_exact_div(d, a) - c.derivative()
        i += 1
    return out


@dataclasses.dataclass(frozen=True)
class FactorizationZ:
    """Complete factorization over Z.

    unit is +1 or -1, content a positive integer, and factors a tuple of
    (irreducible, multiplicity) pairs.  Each irreducible is primitive
    with positive leading coefficient, and the tuple is sorted by degree
    and then lexicographically by coefficients.  expand() reassembles
    the original polynomial exactly.
    """

    unit: int
    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        start = IntPoly.const(self.unit * self.content)
        return math.prod((f**m for f, m in self.factors), start=start)

    def __str__(self) -> str:
        head = []
        if self.unit < 0:
            head.append("-1")
        if self.content != 1:
            head.append(str(self.content))
        body = [f"({f})^{m}" if m > 1 else f"({f})" for f, m in self.factors]
        return " * ".join(head + body) if (head or body) else "1"


# ---------------------------------------------------------------------------
# the arithmetic core.  Over Z/m a polynomial is a coefficient list,
# little-endian, entries in [0, m); m is a prime while factoring mod p
# and a power of it while Hensel lifting


def _conv(a, b) -> list[int]:
    # schoolbook product over Z of two coefficient sequences
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a

def _mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([c % m for c in _conv(a, b)])

def _prod(polys: Iterable[list[int]], m: int) -> list[int]:
    out = [1]
    for a in polys:
        out = _mul(out, a, m)
    return out

def _add(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])

def _sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])

def _divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    # b nonzero with leading coefficient invertible mod m (any b mod a
    # prime, a monic b mod a prime power).  Each step reduces only the
    # coefficient it divides, with no inverse product for a monic b; the
    # remainder is reduced once, at the end
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, m)
    rem = list(a)
    q = [0] * (len(rem) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db] % m
        if inv != 1:
            c = c * inv % m
        if c:
            q[i] = c
            for j in range(db):
                rem[i + j] -= c * b[j]
    return _trim(q), _trim([c % m for c in rem[:db]])

def _zdivmod(a, b) -> tuple[list[int], list[int]] | None:
    # long division over Z by a nonzero b: (q, r) with a = b*q + r and
    # len(r) < len(b), or None at the first quotient coefficient that is
    # not an integer
    db = len(b) - 1
    rem = list(a)
    q = [0] * (len(rem) - db)
    for i in range(len(q) - 1, -1, -1):
        top = rem[i + db]
        if top:
            if top % b[-1]:
                return None
            q[i] = c = top // b[-1]
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    return q, _trim(rem[:db])

def _monic(a: list[int], p: int) -> list[int]:
    # a nonzero mod the prime p
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


# ---------------------------------------------------------------------------
# factoring mod a prime


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else a

def _ppowmod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    def mulmod(a, b):
        return _divmod(_conv(a, b), mod, p)[1]

    return _power(_divmod(base, mod, p)[1], e, mulmod, [1])


def _distinct_degree(h: list[int], p: int) -> list[tuple[list[int], int]]:
    # h monic squarefree mod p; returns (product of irreducibles, degree) pairs
    out = []
    v = h[:]
    w = [0, 1]
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        w = _ppowmod(w, p, v, p)
        g = _pgcd(_sub(w, [0, 1], p), v, p)
        if len(g) > 1:
            out.append((g, d))
            v = _divmod(v, g, p)[0]
            w = _divmod(w, v, p)[1]
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    # g monic, all irreducible factors of degree d; p odd
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        _trim(a)
        if len(a) <= 1:
            continue
        c = _pgcd(a, g, p)
        if 1 < len(c) < len(g):
            split = c
        else:
            split = _pgcd(_sub(_ppowmod(a, e, g, p), [1], p), g, p)
            if not (1 < len(split) < len(g)):
                continue
        rest = _divmod(g, split, p)[0]
        return _equal_degree(split, d, p, rng) + _equal_degree(rest, d, p, rng)


def _squarefree_mod_p(f: IntPoly, p: int) -> bool:
    # f keeps its degree mod p and has no repeated factor there
    if f.leading() % p == 0:
        return False
    df = [i * c for i, c in enumerate(f.coeffs)][1:]
    return len(_pgcd(f.coeffs, df, p)) == 1


def _small_squarefree_prime(f: IntPoly) -> int:
    # the first of the primes 3..13 modulo which f is squarefree, or 0
    return next((q for q in (3, 5, 7, 11, 13) if _squarefree_mod_p(f, q)), 0)


def squarefree_mod_small_prime(f: IntPoly) -> bool:
    """True when f is squarefree modulo one of the primes 3..13 that do
    not divide its leading coefficient, which proves f squarefree over
    Z; False decides nothing."""
    return bool(_small_squarefree_prime(f))


def _degree_set(parts: list[tuple[list[int], int]]) -> int:
    # bit e set iff some product of the modular factors has degree e
    mask = 1
    for g, d in parts:
        for _ in range((len(g) - 1) // d):
            mask |= mask << d
    return mask


# ---------------------------------------------------------------------------
# mod 2 on bitmasks.  A polynomial over F_2 is an int whose bit i is the
# coefficient of x^i: a sum is an xor, and a square spreads the bits


def _bits(coeffs) -> int:
    # the image mod 2 of an integer coefficient sequence
    return sum(1 << i for i, c in enumerate(coeffs) if c & 1)


def _bits_to_list(a: int) -> list[int]:
    return [int(c) for c in reversed(format(a, "b"))]


def _rem2(a: int, b: int) -> int:
    # a mod b over F_2, b nonzero
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _rem2(a, b)
    return a


def _quo2(a: int, b: int) -> int:
    # the quotient of a by b over F_2, b nonzero
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q


def _squarefree2(a: int) -> bool:
    # a of degree >= 1 has no repeated factor over F_2: gcd(a, a') = 1,
    # where a' keeps the bits at odd positions, each moved down one
    evens = (4 ** (a.bit_length() // 2 + 1) - 1) // 3
    return _gcd2(a, a >> 1 & evens) == 1


def _distinct_degree2(h: int) -> list[tuple[int, int]]:
    # h squarefree over F_2; (product of irreducibles, degree) pairs, as
    # _distinct_degree(., 2) gives them.  The Frobenius w -> w^2 puts a
    # zero bit between every two bits of w
    out = []
    v = h
    w = 2
    d = 0
    while v.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        w = _rem2(int("0".join(format(w, "b")), 2), v)
        g = _gcd2(w ^ 2, v)
        if g != 1:
            out.append((g, d))
            v = _quo2(v, g)
            w = _rem2(w, v)
    if v != 1:
        out.append((v, v.bit_length() - 1))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting


def _bezout_mod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    # s*a + t*b = 1 mod p for coprime a, b
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    assert len(r0) == 1, "factors not coprime mod p"
    inv = [pow(r0[0], -1, p)]
    return _mul(s0, inv, p), _mul(t0, inv, p)


def _hensel_pair(f: list[int], g: list[int], h: list[int],
                 s: list[int], t: list[int], p: int, target: int):
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) to modulus >= target.

    g and h monic, deg f = deg g + deg h.  Quadratic iteration; s and t
    are lifted only while another step follows (von zur Gathen and
    Gerhard, Modern Computer Algebra, Algorithm 15.10).
    """
    m = p
    while m < target:
        m2 = m * m
        e = _sub(f, _mul(g, h, m2), m2)
        q, r = _divmod(_mul(s, e, m2), h, m2)
        g = _add(g, _add(_mul(t, e, m2), _mul(q, g, m2), m2), m2)
        h = _add(h, r, m2)
        m = m2
        if m < target:
            # s and t serve only a next step
            b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
            c, d = _divmod(_mul(s, b, m), h, m)
            s = _sub(s, d, m)
            t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h, m


def _hensel_tree(f: list[int], facs: list[list[int]], p: int, target: int) -> list[list[int]]:
    # f monic over Z/target, facs monic mod p with f = prod(facs) mod p
    if target == p:
        return facs
    if len(facs) == 1:
        return [[c % target for c in f]]
    half = len(facs) // 2
    left, right = facs[:half], facs[half:]
    gl, gr = _prod(left, p), _prod(right, p)
    s, t = _bezout_mod_p(gl, gr, p)
    g, h, m = _hensel_pair(f, gl, gr, s, t, p, target)
    g = [c % target for c in g]
    h = [c % target for c in h]
    return _hensel_tree(g, left, p, target) + _hensel_tree(h, right, p, target)


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _squarefree_primes(h: IntPoly, known: int = 0):
    # the odd primes p at which the monic h stays squarefree, in order;
    # ArithmeticError once the skipped ones prove h is not squarefree.
    # A nonzero known is the first odd prime at which h was already found
    # squarefree: it is not tested again, nor are the odd primes below it
    deg = h.degree()
    norm = math.isqrt(sum(c * c for c in h.coeffs)) + 1
    rejected = 1
    for p in filter(is_prime, itertools.count(3, 2)):
        if p == known or p > known and _squarefree_mod_p(h, p):
            yield p
            continue
        # p divides disc(h), and |disc h| <= deg^deg * norm^(2 deg - 1)
        # (Hadamard on the Sylvester matrix of h and h')
        rejected *= p
        if rejected > deg**deg * norm ** (2 * deg - 1):
            raise ArithmeticError(f"{h} is not squarefree")


def _lift_target(h: IntPoly, p: int) -> int:
    # the first power of p past 2 * C(m, m // 2) * ||h||_2, m = deg h // 2:
    # a monic factor of h of degree at most m has every coefficient at
    # most C(m, m // 2) * ||h||_2 in absolute value (Mignotte 1974), so
    # lifted that far it is the symmetric residue of its modular image
    m = h.degree() // 2
    bound = 2 * math.comb(m, m // 2) * (math.isqrt(sum(c * c for c in h.coeffs)) + 1)
    target = p
    while target <= bound:
        target *= p
    return target


def _factor_monic_squarefree(h: IntPoly, known: int = 0) -> list[IntPoly]:
    # known as in _squarefree_primes
    deg = h.degree()
    if deg <= 1:
        return [h]
    # Distinct-degree patterns mod 2, when h stays squarefree there, and
    # at up to 4 odd primes keeping h squarefree: a true factor's degree
    # is a subset sum of the modular degrees at every prime (Musser's
    # degree-set test), so once the intersection is {0, deg} h is
    # irreducible; a single modular factor is the case of one prime.  The
    # scan stops early at an odd prime that leaves at most three modular
    # factors and does not shrink the intersection.  Otherwise split and
    # lift at the prime with the fewest modular factors, 2 first among
    # equals; 2 is a candidate only when its parts need no equal-degree
    # split, each being one irreducible.
    whole = 1 | 1 << deg
    mask = (1 << (deg + 1)) - 1
    tried = []
    h2 = _bits(h.coeffs)
    if _squarefree2(h2):
        parts = [(_bits_to_list(g), d) for g, d in _distinct_degree2(h2)]
        mask = _degree_set(parts)
        if mask == whole:
            return [h]
        if all(len(g) - 1 == d for g, d in parts):
            tried.append((len(parts), 2, parts))
    for odd, p in enumerate(_squarefree_primes(h, known), 1):
        parts = _distinct_degree([c % p for c in h.coeffs], p)
        count = sum((len(g) - 1) // d for g, d in parts)
        tried.append((count, p, parts))
        kept, mask = mask, mask & _degree_set(parts)
        if mask == whole:
            return [h]
        if odd == 4 or count <= 3 and mask == kept:
            break
    _, p, parts = min(tried, key=operator.itemgetter(0))
    if p == 2:
        facs = [g for g, d in parts]
    else:
        rng = random.Random(0xC0FFEE + p)
        facs = [f for g, d in parts for f in _equal_degree(g, d, p, rng)]
    target = _lift_target(h, p)
    lifted = _hensel_tree(list(h.coeffs), facs, p, target)
    # subset recombination with constant-term pruning.  Of a subset and
    # its complement, the side of degree at most deg(rem)/2 is multiplied
    # out and tried: the lift recovers its coefficients
    out: list[IntPoly] = []
    pool = lifted
    rem = h
    c = 1
    while 2 * c <= len(pool):
        h0 = rem.constant()
        for idxs in itertools.combinations(range(len(pool)), c):
            # a true factor's degree is in the degree set
            d = sum(len(pool[i]) - 1 for i in idxs)
            if not mask >> d & 1:
                continue
            side = idxs if 2 * d <= rem.degree() else [
                i for i in range(len(pool)) if i not in idxs]
            t0 = _symmetric(math.prod(pool[i][0] for i in side), target)
            if t0 == 0 or h0 % t0:
                continue
            prod = _prod((pool[i] for i in side), target)
            cand = IntPoly(_symmetric(x, target) for x in prod)
            q = try_exact_div(rem, cand)
            if q is not None:
                break
        else:
            c += 1
            continue
        # the factor of the subset idxs is irreducible, since no smaller
        # subset gave one; the rest stays to be split
        out.append(cand if side is idxs else q)
        rem = q if side is idxs else cand
        pool = [g for i, g in enumerate(pool) if i not in idxs]
    if rem.degree() > 0:
        out.append(rem)
    return out


def _factor_primitive_squarefree(f: IntPoly, known: int = 0) -> list[IntPoly]:
    # f primitive, squarefree, positive leading coefficient, f(0) != 0;
    # known as in _squarefree_primes
    if f.degree() == 1:
        return [f]
    b = f.leading()
    if b == 1:
        return _factor_monic_squarefree(f, known)
    # substitute y = b*x to reach a monic polynomial, factor, map back
    n = f.degree()
    monic = IntPoly([c * b ** (n - 1 - i) for i, c in enumerate(f.coeffs[:-1])] + [1])
    out = []
    for g in _factor_monic_squarefree(monic):
        back = g.scale_input(b)
        out.append(back.primitive_positive()[2])
    assert math.prod(out, start=IntPoly.const(1)) == f, "factor back-substitution failed"
    return out


def _factor_quadratic(f: IntPoly) -> list[tuple[IntPoly, int]]:
    # f primitive of degree 1 or 2, positive leading coefficient.  a*x^2
    # + b*x + c splits over Z exactly when b^2 - 4ac is a square s^2, into
    # the primitive parts of 2a*x + b - s and 2a*x + b + s (Gauss's lemma)
    if f.degree() == 1:
        return [(f, 1)]
    c, b, a = f.coeffs
    disc = b * b - 4 * a * c
    s = math.isqrt(disc) if disc > 0 else 0
    if s * s != disc:
        return [(f, 1)]
    if s == 0:
        return [(IntPoly((b, 2 * a)).primitive_positive()[2], 2)]
    return [(IntPoly((b + t, 2 * a)).primitive_positive()[2], 1) for t in (-s, s)]


def _integer_roots(S: int, T: int) -> tuple[int, int] | None:
    # the integer roots of t^2 - S t + T, or None
    disc = S * S - 4 * T
    r = math.isqrt(disc) if disc >= 0 else -1
    return ((S - r) // 2, (S + r) // 2) if r * r == disc else None


def _factor_zassenhaus(f: IntPoly) -> list[tuple[IntPoly, int]]:
    # f primitive with positive leading coefficient.  f squarefree mod a
    # prime not dividing lc(f) is squarefree over Z, which spares Yun's
    # pseudo-remainder gcds in the common case; the modular scan of f
    # itself then starts at that prime
    known = _small_squarefree_prime(f)
    parts = [(f, 1)] if known else squarefree_decomposition(f)
    counts: dict[IntPoly, int] = {}
    for part, mult in parts:
        v = part.trailing_zeros()
        if v:
            x = IntPoly.x()
            counts[x] = counts.get(x, 0) + v * mult
            part = part.shift_down(v)
        if part.degree() < 1:
            continue
        for irr in _factor_primitive_squarefree(part, known if part is f else 0):
            counts[irr] = counts.get(irr, 0) + mult
    return list(counts.items())


def _factor_quartic(f: IntPoly) -> list[tuple[IntPoly, int]]:
    # f = x^4 + c3 x^3 + c2 x^2 + c1 x + c0 monic, c0 = +-1, no integer
    # root: reducible only as (x^2 + ax + b)(x^2 + cx + d) with bd = c0,
    # b, d in {1, -1}; each such quadratic is irreducible, since its
    # integer roots could only be +-1
    c0, c1, c2, c3, _ = f.coeffs
    if c0 == -1:
        # (b, d) = (1, -1): a + c = c3, c - a = c1, ac = c2
        a, c = (c3 - c1) // 2, (c3 + c1) // 2
        if (c3 + c1) % 2 == 0 and a * c == c2:
            return [(IntPoly((1, a, 1)), 1), (IntPoly((-1, c, 1)), 1)]
        return [(f, 1)]
    # b = d: a + c = c3, ac = c2 - 2b, c1 = b*c3, so a and c are the
    # roots of t^2 - c3 t + c2 - 2b
    for b in (1, -1):
        roots = _integer_roots(c3, c2 - 2 * b)
        if c1 != b * c3 or roots is None:
            continue
        a, c = roots
        if a == c:
            return [(IntPoly((b, a, 1)), 2)]
        return [(IntPoly((b, a, 1)), 1), (IntPoly((b, c, 1)), 1)]
    return [(f, 1)]


def _factor_unit(f: IntPoly) -> list[tuple[IntPoly, int]]:
    # f monic of degree >= 3 with f(0) = +-1: once the roots 1 and -1 are
    # split off, what is left has no linear factor
    m1, m2, g = linear_root_profile(f)
    pairs = [(IntPoly((-r, 1)), m) for r, m in ((1, m1), (-1, m2)) if m]
    d = g.degree()
    if d > 4:
        pairs += _factor_zassenhaus(g)
    elif d == 4:
        pairs += _factor_quartic(g)
    elif d > 0:
        pairs.append((g, 1))
    return pairs


def factor_over_Z(p: IntPoly) -> FactorizationZ:
    """Complete factorization in Z[x]: a primitive part of degree <= 2
    in closed form; a monic one of degree >= 3 with constant term +-1
    through _factor_unit; any other via the Zassenhaus method.

    Raises ZeroPolynomial on zero input.  The reassembled product
    (unit * content * prod factor^mult) equals p coefficient for
    coefficient.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    unit, content, f = p.primitive_positive()
    if f.degree() == 0:
        return FactorizationZ(unit, content, ())
    if f.degree() <= 2:
        pairs = _factor_quadratic(f)
    elif f.is_monic() and abs(f.constant()) == 1:
        pairs = _factor_unit(f)
    else:
        pairs = _factor_zassenhaus(f)
    factors = tuple(sorted(pairs, key=lambda fm: fm[0].sort_key()))
    result = FactorizationZ(unit, content, factors)
    assert _reassembles(result, p), "factorization reassembly failed"
    return result


def _reassembles(result: FactorizationZ, p: IntPoly) -> bool:
    # result.expand() == p, decided at one integer X = 2L + 1, where L
    # bounds the coefficients of both sides (the product's by the
    # product of the 1-norms): two integer polynomials whose
    # coefficients all lie below X/2 in absolute value and that agree
    # at X are equal
    scale = result.unit * result.content
    L = max(
        max(map(abs, p.coeffs)),
        abs(scale) * math.prod(sum(map(abs, f.coeffs)) ** m for f, m in result.factors),
    )
    X = 2 * L + 1
    return p.evaluate(X) == scale * math.prod(f.evaluate(X) ** m for f, m in result.factors)


def has_symmetric_galois_group(f: IntPoly) -> bool:
    """True when the factor patterns of f modulo small primes prove that
    the Galois group G of f is the full symmetric group S_n.

    f must be monic and irreducible over Z, of degree n >= 3.  At a
    prime p not dividing disc f, the degrees of the factors of f mod p
    are the cycle lengths of a Frobenius element of G (Dedekind; van der
    Waerden, Algebra I, section 66).  A pattern 1 + (n - 1) makes G
    2-transitive, hence primitive; a pattern with exactly one part 2 and
    every other part odd has a transposition among its powers; and a
    primitive group with a transposition is S_n (Jordan; Wielandt,
    Finite Permutation Groups, 1964, Thm 13.3).  The first 4n odd primes
    at which f stays squarefree are scanned; False means no certificate,
    not that G is smaller.  ValueError unless f is monic of degree >= 3.
    """
    n = f.degree()
    if n < 3 or not f.is_monic():
        raise ValueError(f"need a monic polynomial of degree >= 3, got {f}")
    primitive = transposition = False
    for p in itertools.islice(_squarefree_primes(f), 4 * n):
        pattern = sorted(
            d
            for g, d in _distinct_degree([c % p for c in f.coeffs], p)
            for _ in range((len(g) - 1) // d)
        )
        primitive |= pattern == [1, n - 1]
        transposition |= pattern.count(2) == 1 and all(d % 2 for d in pattern if d != 2)
        if primitive and transposition:
            return True
    return False


def _has_integer_root(g: IntPoly) -> bool:
    # whether the monic cubic x^3 + a x^2 + b x + r, whose roots lie in
    # (-B, B) (Cauchy), has an integer root, by bisection: it rises on the
    # integers to m1 - 1, falls on m1 + 1 .. m2 and rises from m2 + 1, m1
    # and m2 the floors of (-a -+ isqrt(D))/3 when D = a^2 - 3b > 0
    _, b, a, _ = g.coeffs
    B = 1 + max(map(abs, g.coeffs))
    D = a * a - 3 * b
    m1, m2 = ((-a - math.isqrt(D)) // 3, (-a + math.isqrt(D)) // 3) if D > 0 else (0, 0)
    for lo, hi, sign in ((-B, m1 - 1, 1), (m1, m1, 1), (m1 + 1, m2, -1), (m2 + 1, B, 1)):
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sign * g.evaluate(mid) < 0 else (lo, mid)
        if lo == hi and g.evaluate(lo) == 0:
            return True
    return False


def linear_root_profile(p: IntPoly) -> tuple[int, int, IntPoly]:
    """Multiplicity of the roots 1 and -1 of a monic polynomial.

    Returns (mult of (x-1), mult of (x+1), residual cofactor).  The
    residual is monic and has neither 1 nor -1 as a root.  Raises
    NotMonic unless the leading coefficient is exactly 1.
    """
    if not p.is_monic():
        raise NotMonic(f"leading coefficient is {p.leading()}, need 1")
    m1 = 0
    while p.evaluate(1) == 0:
        p = try_exact_div(p, IntPoly((-1, 1)))
        m1 += 1
    m2 = 0
    while p.evaluate(-1) == 0:
        p = try_exact_div(p, IntPoly((1, 1)))
        m2 += 1
    return m1, m2, p


def power_sums(p: IntPoly, m: int) -> list[int]:
    """Power sums s_1..s_m of the roots of a monic polynomial, by
    Newton's recurrence on its coefficients.

    For p = char(A) these are the traces tr(A^j), j = 1..m.  Raises
    NotMonic unless the leading coefficient is exactly 1.
    """
    if not p.is_monic():
        raise NotMonic(f"leading coefficient is {p.leading()}, need 1")
    n = p.degree()
    # a[i] is the coefficient of x^(n-i)
    a = p.coeffs[::-1]
    out: list[int] = []
    for j in range(1, m + 1):
        s = j * a[j] if j <= n else 0
        for i in range(1, min(j - 1, n) + 1):
            s += a[i] * out[j - i - 1]
        out.append(-s)
    return out


def from_power_sums(sums) -> IntPoly:
    """The monic polynomial of degree len(sums) whose roots have power
    sums sums[0], sums[1], ..., by Newton's identities.

    Every division is exact when the sums come from an integer matrix
    (they are then the traces of its powers); ArithmeticError otherwise.
    """
    a = [1]
    for m in range(1, len(sums) + 1):
        s = sum(map(operator.mul, a, sums[m - 1 :: -1]))
        if s % m:
            raise ArithmeticError(f"Newton identity at degree {m} is not exact")
        a.append(-(s // m))
    return IntPoly(a[::-1])

"""Exact arithmetic for univariate polynomials over the integers.

A polynomial is a dense tuple of coefficients, entry ``i`` holding the
coefficient of ``x**i``.  Everything in this module is exact integer
arithmetic; there is no floating point anywhere.  Every product goes
through one core, ``_conv`` (mod m via ``_mul`` and ``_prod``), every
quotient mod m through ``_divmod``; ``try_exact_div`` divides over Z.

A primitive polynomial of degree at most 2 is factored in closed form:
a*x^2 + b*x + c splits over Z exactly when b^2 - 4ac is a perfect
square.  Every orbit polynomial of a rank-2 action is of this kind.

Higher degrees follow the classical Zassenhaus route.  A polynomial
that is squarefree modulo one of the primes 3..13 not dividing its
leading coefficient is squarefree over Z; only the others go through
Yun's squarefree decomposition.  Each squarefree part gets its
distinct-degree pattern modulo up to 4 small odd primes; the subset
sums of each pattern bound the degrees of its true factors, and once
their intersection is {0, deg} the part is irreducible (Musser's
degree-set test).  Otherwise equal-degree splitting runs at the first
prime with the fewest modular factors only, the factors are Hensel-lifted
to a bound large enough to recover true factor coefficients, and subset
recombination tries only subsets whose degree is in the intersection.
This keeps the package dependency free and is fast at the degree range
used here: the classifier factors char(A) and, for its graded audits,
one orbit polynomial P_mu per partition mu of k
(criteria._GradedFactors), of degree n!/((n-len(mu))! prod m_i!),
never a characteristic polynomial of degree n^k.
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
    "linear_root_profile",
    "power_sums",
    "from_power_sums",
]


@dataclasses.dataclass(frozen=True, init=False)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of x^i.

    The zero polynomial is the empty tuple.  Trailing zero coefficients
    are trimmed on construction, so a nonzero polynomial never has a
    zero leading coefficient.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = []
        for c in coeffs:
            ic = int(c)
            if ic != c:
                raise TypeError(f"non-integer coefficient {c!r}")
            cs.append(ic)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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
        out = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

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
        prim = IntPoly(c // (unit * cont) for c in self.coeffs)
        return unit, cont, prim

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
    if f.is_zero():
        return IntPoly()
    if f.degree() < g.degree():
        return None
    rem = list(f.coeffs)
    gl = g.leading()
    gd = g.degree()
    q = [0] * (f.degree() - gd + 1)
    for i in range(len(q) - 1, -1, -1):
        top = rem[i + gd]
        if top == 0:
            continue
        if top % gl:
            return None
        c = top // gl
        q[i] = c
        for j, gc in enumerate(g.coeffs):
            rem[i + j] -= c * gc
    if any(rem):
        return None
    return IntPoly(q)


def _pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    # prem(f, g): lc(g)^(deg f - deg g + 1) * f reduced mod g, all over Z
    d = f.degree() - g.degree()
    if d < 0:
        return f
    lg = g.leading()
    rem = f
    while not rem.is_zero() and rem.degree() >= g.degree():
        k = rem.degree() - g.degree()
        rem = rem * lg - g.shift_up(k) * rem.leading()
    return rem


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
        r = _pseudo_rem(a, b)
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
    # prime, a monic b mod a prime power)
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    rem = [c % m for c in a]
    q = [0] * (len(rem) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db] * inv % m
        if c:
            q[i] = c
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % m
    return _trim(q), _trim(rem[:db])

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
    out = [1]
    base = _divmod(base, mod, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, p), mod, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), mod, p)[1]
    return out


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


def _degree_set(parts: list[tuple[list[int], int]]) -> int:
    # bit e set iff some product of the modular factors has degree e
    mask = 1
    for g, d in parts:
        for _ in range((len(g) - 1) // d):
            mask |= mask << d
    return mask


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

    g and h monic, deg f = deg g + deg h.  Quadratic iteration.
    """
    m = p
    while m < target:
        m2 = m * m
        e = _sub(f, _mul(g, h, m2), m2)
        q, r = _divmod(_mul(s, e, m2), h, m2)
        g = _add(g, _add(_mul(t, e, m2), _mul(q, g, m2), m2), m2)
        h = _add(h, r, m2)
        b = _sub(_add(_mul(s, g, m2), _mul(t, h, m2), m2), [1], m2)
        c, d = _divmod(_mul(s, b, m2), h, m2)
        s = _sub(s, d, m2)
        t = _sub(t, _add(_mul(t, b, m2), _mul(c, g, m2), m2), m2)
        m = m2
    return g, h, m


def _hensel_tree(f: list[int], facs: list[list[int]], p: int, target: int) -> list[list[int]]:
    # f monic over Z/target, facs monic mod p with f = prod(facs) mod p
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


def _factor_monic_squarefree(h: IntPoly) -> list[IntPoly]:
    deg = h.degree()
    if deg <= 1:
        return [h]
    # Distinct-degree patterns at up to 4 primes keeping h squarefree:
    # a true factor's degree is a subset sum of the modular degrees at
    # every prime (Musser's degree-set test), so once the intersection
    # is {0, deg} h is irreducible; a single modular factor is the case
    # of one prime.  Otherwise split and lift at the first prime with
    # the fewest modular factors.
    whole = 1 | 1 << deg
    mask = (1 << (deg + 1)) - 1
    norm = math.isqrt(sum(c * c for c in h.coeffs)) + 1
    tried = []
    rejected = 1
    for p in filter(is_prime, itertools.count(3, 2)):
        if not _squarefree_mod_p(h, p):
            # p divides disc(h), and |disc h| <= deg^deg * norm^(2 deg - 1)
            # (Hadamard on the Sylvester matrix of h and h')
            rejected *= p
            if rejected > deg**deg * norm ** (2 * deg - 1):
                raise ArithmeticError(f"{h} is not squarefree")
            continue
        parts = _distinct_degree([c % p for c in h.coeffs], p)
        mask &= _degree_set(parts)
        if mask == whole:
            return [h]
        tried.append((sum((len(g) - 1) // d for g, d in parts), p, parts))
        if len(tried) == 4:
            break
    _, p, parts = min(tried, key=operator.itemgetter(0))
    rng = random.Random(0xC0FFEE + p)
    facs = [f for g, d in parts for f in _equal_degree(g, d, p, rng)]
    # lift far enough that true factor coefficients sit in the symmetric range
    bound = 2 * (norm << deg)
    target = p
    while target <= bound:
        target *= p
    lifted = _hensel_tree(list(h.coeffs), facs, p, target)
    # subset recombination with constant-term pruning
    out: list[IntPoly] = []
    pool = lifted
    rem = h
    c = 1
    while 2 * c <= len(pool):
        h0 = rem.constant()
        for idxs in itertools.combinations(range(len(pool)), c):
            # a true factor's degree is in the degree set
            if not mask >> sum(len(pool[i]) - 1 for i in idxs) & 1:
                continue
            t0 = _symmetric(math.prod(pool[i][0] for i in idxs), target)
            if t0 == 0 or h0 % t0:
                continue
            prod = _prod((pool[i] for i in idxs), target)
            cand = IntPoly(_symmetric(x, target) for x in prod)
            q = try_exact_div(rem, cand)
            if q is not None:
                break
        else:
            c += 1
            continue
        out.append(cand)
        rem = q
        pool = [g for i, g in enumerate(pool) if i not in idxs]
    if rem.degree() > 0:
        out.append(rem)
    return out


def _factor_primitive_squarefree(f: IntPoly) -> list[IntPoly]:
    # f primitive, squarefree, positive leading coefficient, f(0) != 0
    if f.degree() == 1:
        return [f]
    b = f.leading()
    if b == 1:
        return _factor_monic_squarefree(f)
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


def _factor_zassenhaus(f: IntPoly) -> list[tuple[IntPoly, int]]:
    # f primitive with positive leading coefficient.  f squarefree mod a
    # prime not dividing lc(f) is squarefree over Z, which spares Yun's
    # pseudo-remainder gcds in the common case
    if any(_squarefree_mod_p(f, q) for q in (3, 5, 7, 11, 13)):
        parts = [(f, 1)]
    else:
        parts = squarefree_decomposition(f)
    counts: dict[IntPoly, int] = {}
    for part, mult in parts:
        v = part.trailing_zeros()
        if v:
            x = IntPoly.x()
            counts[x] = counts.get(x, 0) + v * mult
            part = part.shift_down(v)
        if part.degree() < 1:
            continue
        for irr in _factor_primitive_squarefree(part):
            counts[irr] = counts.get(irr, 0) + mult
    return list(counts.items())


def factor_over_Z(p: IntPoly) -> FactorizationZ:
    """Complete factorization in Z[x]: a primitive part of degree <= 2
    in closed form, a higher one via the Zassenhaus method.

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
    else:
        pairs = _factor_zassenhaus(f)
    factors = tuple(sorted(pairs, key=lambda fm: fm[0].sort_key()))
    result = FactorizationZ(unit, content, factors)
    assert result.expand() == p, "factorization reassembly failed"
    return result


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

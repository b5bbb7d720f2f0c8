"""Primality and prime divisors of integers.

is_prime is a Miller-Rabin test to the 13 prime bases 2..41, exact
below MR_EXACT_BOUND (about 3.3e24); at or above it, a number that
passes every base is not proven prime and is refused.  prime_divisors
splits an integer by trial division to a small bound, then splits each
composite cofactor at a perfect-power root or by Pollard-Brent rho.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import PrimalityUnproven

__all__ = ["MR_EXACT_BOUND", "is_prime", "prime_divisors"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster 2017): below it is_prime is exact
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Miller-Rabin to the bases 2..41, exact for p < MR_EXACT_BOUND.

    From MR_EXACT_BOUND on, False is still exact, but a p that passes
    every base raises PrimalityUnproven instead of being called prime.
    """
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    if p >= MR_EXACT_BOUND:
        raise PrimalityUnproven(
            f"cannot prove {p} prime: Miller-Rabin is exact only below {MR_EXACT_BOUND}"
        )
    return True


_TRIAL_BOUND = 1000


def _pollard_brent(m: int) -> int:
    # a proper divisor of the odd composite m: Pollard's rho with
    # Brent's cycle search and batched gcds (Brent 1980)
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            done = 0
            while done < r and g == 1:
                ys = y
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                done += 128
            r *= 2
        if g == m:
            # the batch overshot: step again one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def _perfect_power_root(m: int) -> Optional[int]:
    # r with r^e = m for a prime e, or None; rho alone would need about
    # sqrt(r) steps to split r^e
    for e in range(2, m.bit_length()):
        if not is_prime(e):
            continue
        # Newton's iteration from above for the integer e-th root
        x = 1 << -(-m.bit_length() // e)
        while True:
            y = ((e - 1) * x + m // x ** (e - 1)) // e
            if y >= x:
                break
            x = y
        if x < 2:
            return None
        if x**e == m:
            return x
    return None


def prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct prime factors of |m|, ascending: trial division to a
    small bound, then is_prime on each cofactor, and a perfect-power
    root or Pollard-Brent rho to split the composite ones.  Raises
    PrimalityUnproven, from is_prime, on a factor at or above
    MR_EXACT_BOUND that passes every base."""
    m = abs(m)
    out = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= m:
        if m % d == 0:
            out.add(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    rest = [m] if m > 1 else []
    while rest:
        c = rest.pop()
        # c has no prime factor below d, so c < d^2 makes it prime
        if c < d * d or is_prime(c):
            out.add(c)
        elif (r := _perfect_power_root(c)) is not None:
            rest.append(r)
        else:
            g = _pollard_brent(c)
            rest += [g, c // g]
    return tuple(sorted(out))

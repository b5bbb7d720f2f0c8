"""Integer polynomial arithmetic and factorization tests."""

import itertools
import math
import random

import pytest

import resnil.intpoly as intpoly
from resnil.criteria import LcsLength, Verdict
from resnil.errors import ZeroPolynomial
from resnil.freegroup import FreeEndo, FreeWord
from resnil.intpoly import (
    FactorizationZ,
    IntPoly,
    factor_over_Z,
    linear_root_profile,
    poly_eval,
    poly_gcd,
    squarefree_decomposition,
    try_exact_div,
)
from resnil.zlinalg import IntMatrix, SubLattice, lattice_contains

from oracles import (
    brute_force_factor,
    frac_divmod,
    frac_gcd,
    library_factor_canonical,
    with_alarm,
)


def rand_poly(rng, max_deg=4, lo=-30, hi=30, nonzero=False):
    deg = rng.randint(0, max_deg)
    cs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    p = IntPoly(cs)
    if nonzero and p.is_zero():
        return IntPoly((1,))
    return p


# each site stores the value it is given; what it keeps, as a function of
# that value
_STORED = {
    "IntPoly": lambda v: IntPoly([1, v]).coeffs[1],
    "IntMatrix": lambda v: IntMatrix.from_rows([[v, 1], [0, 1]]).entries[0],
    "FreeWord": lambda v: FreeWord(2, [(1, v)]).syllables[0][1],
    # shapes and ranks: 2.0 used to be stored, and failed at first use
    "IntMatrix.rows": lambda v: IntMatrix(v, 1, [1, 2]).row(1),
    "IntMatrix.cols": lambda v: IntMatrix(1, v, [1, 2]).col(1),
    "FreeWord.rank": lambda v: FreeWord(v, [(1, 1), (2, 1)]).exponent_sums(),
    "FreeEndo.rank": lambda v: FreeEndo(v, [FreeWord(2, [(2, 1)]), FreeWord(2, ())]).rank,
    "lattice_contains": lambda v: lattice_contains(
        SubLattice.from_generators(IntMatrix.from_rows([[2]])), [v]
    ),
    # a prime 1 is kept as 1 and then refused by the verdict's prime check
    "Verdict": lambda v: Verdict(
        True, False, ((v, True),), LcsLength.OMEGA, ()
    ).residually_p_finite[0][0],
}


def _outcome(store, value):
    # what store(value) keeps, with its type, or the error it raises
    try:
        kept = store(value)
    except Exception as e:
        return type(e), str(e)
    return type(kept), kept


class TestConstruction:
    def test_trailing_zeros_dropped(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0, 0]).coeffs == ()

    def test_zero_polynomial_degree(self):
        z = IntPoly(())
        assert z.is_zero()
        assert z.degree() == -1

    def test_basic_accessors(self):
        p = IntPoly([7, -3, 2])
        assert p.degree() == 2
        assert p.leading() == 2
        assert p.constant() == 7
        assert not p.is_monic()
        assert IntPoly([5, 1]).is_monic()

    def test_float_coefficients_rejected(self):
        # lossy coercion must never pass silently
        with pytest.raises(TypeError):
            IntPoly([1, 0.5])

    def test_integral_floats_accepted(self):
        assert IntPoly([1.0, 2.0]).coeffs == (1, 2)

    @pytest.mark.parametrize("site", sorted(_STORED))
    def test_one_integer_rule(self, site):
        # every stored value goes through intpoly._ints: an integral value
        # of another type acts as its int, anything else is refused,
        # never truncated (1.9 used to be stored as 1 outside IntPoly)
        store = _STORED[site]
        for bad in (1.9, "3", 0.5, float("nan"), None):
            with pytest.raises(TypeError, match="^non-integer value "):
                store(bad)
        for value, as_int in ((2.0, 2), (True, 1)):
            assert _outcome(store, value) == _outcome(store, as_int)

    def test_builders(self):
        assert IntPoly.const(4).coeffs == (4,)
        assert IntPoly.x().coeffs == (0, 1)
        assert IntPoly.monomial(3, 2).coeffs == (0, 0, 3)


class TestArithmetic:
    def test_eval_is_multiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            p = rand_poly(rng)
            q = rand_poly(rng)
            x = rng.randint(-9, 9)
            assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)

    def test_eval_is_additive(self):
        rng = random.Random(12)
        for _ in range(100):
            p = rand_poly(rng)
            q = rand_poly(rng)
            x = rng.randint(-9, 9)
            assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)

    def test_derivative_product_rule(self):
        rng = random.Random(13)
        for _ in range(100):
            p = rand_poly(rng)
            q = rand_poly(rng)
            assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    def test_power_by_repeated_products(self, monkeypatch):
        p = IntPoly([3, -1, 2])
        expect = IntPoly((1,))
        products = []
        mul = IntPoly.__mul__
        monkeypatch.setattr(IntPoly, "__mul__", lambda f, g: products.append(1) or mul(f, g))
        for e in range(41):
            products.clear()
            assert p**e == expect
            # a squaring per bit after the first and a product per set bit
            # after the lowest, no more
            assert len(products) == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0)
            expect = mul(expect, p)

    def test_scale_input(self):
        p = IntPoly([1, 2, 3])
        q = p.scale_input(5)
        for x in range(-4, 5):
            assert q.evaluate(x) == p.evaluate(5 * x)

    def test_shift_and_trailing(self):
        p = IntPoly([0, 0, 3, 1])
        assert p.trailing_zeros() == 2
        assert p.shift_down(2).coeffs == (3, 1)
        assert IntPoly([3, 1]).shift_up(2) == p

    def test_primitive_positive(self):
        sign, content, prim = IntPoly([-6, 0, -9]).primitive_positive()
        assert sign == -1
        assert content == 3
        assert prim.coeffs == (2, 0, 3)
        assert prim.leading() > 0


class TestDivision:
    def test_exact_division_recovers_factor(self):
        rng = random.Random(17)
        for _ in range(150):
            p = rand_poly(rng, nonzero=True)
            q = rand_poly(rng, nonzero=True)
            got = try_exact_div(p * q, q)
            assert got == p

    def test_non_divisor_returns_none(self):
        assert try_exact_div(IntPoly([1, 0, 1]), IntPoly([1, 1])) is None
        assert try_exact_div(IntPoly([1, 2]), IntPoly([0, 0, 1])) is None

    def test_gcd_of_common_multiple(self):
        f = IntPoly([-1, 1])
        g = IntPoly([1, 1])
        h = IntPoly([1, 0, 1])
        d = poly_gcd(f * g, f * h)
        assert d == f

    def test_gcd_symmetric_and_normalized(self):
        rng = random.Random(19)
        for _ in range(60):
            p = rand_poly(rng, max_deg=3, nonzero=True)
            q = rand_poly(rng, max_deg=3, nonzero=True)
            d1 = poly_gcd(p, q)
            d2 = poly_gcd(q, p)
            assert d1 == d2
            if not d1.is_zero():
                assert d1.leading() > 0
                assert try_exact_div(p, d1) is not None
                assert try_exact_div(q, d1) is not None


def rand_division(rng):
    # f = g*q + r for a nonzero g, often non-monic: q = 0 makes g of
    # higher degree than f, r = 0 makes g a divisor, both a zero f
    g = rand_poly(rng, max_deg=4, lo=-6, hi=6, nonzero=True)
    q = rand_poly(rng, max_deg=4) if rng.random() < 0.8 else IntPoly()
    r = rand_poly(rng, max_deg=max(g.degree() - 1, 0)) if rng.random() < 0.5 else IntPoly()
    return g * q + r, g


class TestLongDivisionOverZ:
    # _zdivmod is the one long division over Z, behind try_exact_div and
    # the pseudo-remainders of poly_gcd; each is checked against the
    # same computation over Q

    def test_zdivmod_is_division_over_Q_when_integral(self):
        rng = random.Random(37)
        for _ in range(500):
            f, g = rand_division(rng)
            q, r = frac_divmod(f.coeffs, g.coeffs)
            got = intpoly._zdivmod(f.coeffs, g.coeffs)
            if all(c.denominator == 1 for c in q):
                assert got == (q, list(IntPoly(r).coeffs))
            else:
                assert got is None

    def test_try_exact_div_is_exact_division_over_Q(self):
        rng = random.Random(41)
        for _ in range(500):
            f, g = rand_division(rng)
            q, r = frac_divmod(f.coeffs, g.coeffs)
            exact = not any(r) and all(c.denominator == 1 for c in q)
            assert try_exact_div(f, g) == (IntPoly(q) if exact else None)

    def test_gcd_is_euclid_over_Q_times_content_gcd(self):
        rng = random.Random(43)
        for _ in range(300):
            h = rand_poly(rng, max_deg=2, lo=-4, hi=4, nonzero=True)
            f = h * rand_poly(rng, max_deg=3, lo=-9, hi=9)
            g = h * rand_poly(rng, max_deg=3, lo=-9, hi=9)
            expect = IntPoly(frac_gcd(f.coeffs, g.coeffs)) * math.gcd(f.content(), g.content())
            assert poly_gcd(f, g) == expect

    def test_squarefree_decomposition_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(47)
        for _ in range(150):
            f = rand_poly(rng, max_deg=2, lo=-5, hi=5, nonzero=True)
            for _ in range(rng.randint(1, 3)):
                f = f * rand_poly(rng, max_deg=2, lo=-5, hi=5, nonzero=True) ** rng.randint(1, 3)
            _, pairs = sympy.Poly(f.coeffs[::-1], x).sqf_list()
            expect = [(IntPoly(int(c) for c in P.all_coeffs()[::-1]), m) for P, m in pairs]
            assert sorted(squarefree_decomposition(f), key=str) == sorted(expect, key=str)


class TestSquarefree:
    def test_reassembly(self):
        rng = random.Random(23)
        for _ in range(80):
            p = rand_poly(rng, max_deg=3, lo=-6, hi=6, nonzero=True)
            q = rand_poly(rng, max_deg=2, lo=-6, hi=6, nonzero=True)
            f = p * q * q
            prod = IntPoly((1,))
            for part, mult in squarefree_decomposition(f):
                prod = prod * part ** mult
            # sign and content are dropped by contract
            assert prod == f.primitive_positive()[2]

    def test_parts_are_squarefree(self):
        rng = random.Random(29)
        for _ in range(60):
            f = rand_poly(rng, nonzero=True)
            for part, _ in squarefree_decomposition(f):
                if part.degree() >= 1:
                    assert poly_gcd(part, part.derivative()).degree() == 0

    def test_known_multiplicities(self):
        f = IntPoly([-1, 1]) ** 3 * IntPoly([1, 1])
        dec = squarefree_decomposition(f)
        mults = sorted(m for part, m in dec if part.degree() >= 1)
        assert mults == [1, 3]


class TestFactorization:
    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_over_Z(IntPoly(()))

    def test_known_factorizations(self):
        fac = factor_over_Z(IntPoly([-4, 2, 2]))
        assert fac.unit == 1
        assert fac.content == 2
        assert [(f.coeffs, m) for f, m in fac.factors] == [
            ((-1, 1), 1),
            ((2, 1), 1),
        ]

        fac = factor_over_Z(IntPoly([-1, 0, 0, 0, 1]))
        assert [(f.coeffs, m) for f, m in fac.factors] == [
            ((-1, 1), 1),
            ((1, 1), 1),
            ((1, 0, 1), 1),
        ]

        fac = factor_over_Z(IntPoly([-1, 0, 0, 0, 0, 0, 1]))
        degs = sorted(f.degree() for f, _ in fac.factors)
        assert degs == [1, 1, 2, 2]

    def test_irreducible_stays_whole(self):
        for cs in ([1, 1, 1], [-1, -3, 0, 1], [7, -43, 49]):
            fac = factor_over_Z(IntPoly(cs))
            assert len(fac.factors) == 1
            assert fac.factors[0][1] == 1

    def test_large_leading_coefficient_regression(self):
        # used to corrupt the monicized leading term through a float power
        f = IntPoly([-7, 43, -49])
        fac = factor_over_Z(f)
        assert fac.unit == -1
        assert fac.content == 1
        assert fac.factors == ((IntPoly([7, -43, 49]), 1),)
        assert fac.expand() == f

    def test_reassembly_check_rejects_every_unit_change(self):
        # the check at one integer X is exact: moving any one coefficient
        # of p by 1 either way is caught
        rng = random.Random(37)

        def check():
            for _ in range(80):
                p = rand_poly(rng, nonzero=True) * rand_poly(rng, 3, -5, 5, nonzero=True)
                fac = factor_over_Z(p)
                assert intpoly._reassembles(fac, p)
                for i in range(len(p.coeffs)):
                    for d in (1, -1):
                        cs = list(p.coeffs)
                        cs[i] += d
                        if any(cs):
                            assert not intpoly._reassembles(fac, IntPoly(cs))

        with_alarm(30, check)

    def test_canonical_invariants(self):
        rng = random.Random(31)
        for _ in range(150):
            f = rand_poly(rng, nonzero=True)
            fac = factor_over_Z(f)
            assert fac.expand() == f
            assert fac.unit in (1, -1)
            assert fac.content >= 1
            keys = [f2.sort_key() for f2, _ in fac.factors]
            assert keys == sorted(keys)
            for g, m in fac.factors:
                assert m >= 1
                assert g.leading() > 0
                assert g.content() == 1

    def test_power_multiplicities(self):
        f = IntPoly([1, 1]) ** 4 * IntPoly([2, 0, 1])
        fac = factor_over_Z(f)
        assert dict((g.coeffs, m) for g, m in fac.factors) == {
            (1, 1): 4,
            (2, 0, 1): 1,
        }

    def test_monomial_factor(self):
        fac = factor_over_Z(IntPoly([0, 0, 6, 6]))
        assert fac.expand() == IntPoly([0, 0, 6, 6])
        assert ((IntPoly([0, 1]), 2)) in fac.factors

    def test_oracle_agreement(self):
        rng = random.Random(37)

        def check():
            for _ in range(200):
                deg = rng.randint(1, 4)
                cs = [rng.randint(-50, 50) for _ in range(deg)]
                lead = rng.randint(-50, 50) or 1
                f = IntPoly(cs + [lead])
                assert library_factor_canonical(f) == brute_force_factor(f)

        with_alarm(30, check)


def record_scan(monkeypatch):
    # the (prime, modular degree pattern) of every distinct-degree
    # factorization from here on, in order: mod 2 on bitmasks, the odd
    # primes on coefficient lists
    scanned = []
    real, real2 = intpoly._distinct_degree, intpoly._distinct_degree2

    def distinct_degree(h, p):
        parts = real(h, p)
        scanned.append((p, sorted(d for g, d in parts for _ in range((len(g) - 1) // d))))
        return parts

    def distinct_degree2(h):
        parts = real2(h)
        scanned.append((2, sorted(d for g, d in parts for _ in range((g.bit_length() - 1) // d))))
        return parts

    monkeypatch.setattr(intpoly, "_distinct_degree", distinct_degree)
    monkeypatch.setattr(intpoly, "_distinct_degree2", distinct_degree2)
    return scanned


class TestModularShortcuts:
    def test_degree_sets_prove_irreducible_without_lifting(self, monkeypatch):
        # x^4 - 3x - 3 (Eisenstein at 3): degree patterns (1,3) mod 5
        # and 7, (2,2) mod 11, whose subset sums meet in {0, 4}
        f = IntPoly([-3, -3, 0, 0, 1])
        for p, pattern in ((5, [1, 3]), (7, [1, 3]), (11, [2, 2])):
            parts = intpoly._distinct_degree([c % p for c in f.coeffs], p)
            assert sorted(d for g, d in parts for _ in range((len(g) - 1) // d)) == pattern

        def refuse(*args):
            raise AssertionError("lifted a polynomial the degree sets prove irreducible")

        monkeypatch.setattr(intpoly, "_hensel_tree", refuse)
        assert factor_over_Z(f).factors == ((f, 1),)
        # x^4 - 3x - 3 is x^4 + x + 1 mod 2, irreducible there.  This
        # quintic is not squarefree mod 2, so the odd primes decide: (1,1,
        # 1,2) mod 3 rules out nothing, (2,3) mod 5 and (1,4) mod 7 meet in
        # {0, 5}
        g = IntPoly([-3, -2, -2, 1, -1, 1])
        scanned = record_scan(monkeypatch)
        assert factor_over_Z(g).factors == ((g, 1),)
        assert scanned == [(3, [1, 1, 1, 2]), (5, [2, 3]), (7, [1, 4])]

    def test_p2_alone_proves_whole(self, monkeypatch):
        # x^6 - x - 1 and x^7 + x - 1 are irreducible mod 2
        def refuse(*args):
            raise AssertionError("lifted a polynomial irreducible mod 2")

        monkeypatch.setattr(intpoly, "_hensel_tree", refuse)
        scanned = record_scan(monkeypatch)
        for n, cs in ((6, [-1, -1, 0, 0, 0, 0, 1]), (7, [-1, 1, 0, 0, 0, 0, 0, 1])):
            scanned.clear()
            f = IntPoly(cs)
            assert factor_over_Z(f).factors == ((f, 1),)
            assert scanned == [(2, [n])]

    def test_scan_stops_at_three_modular_factors(self, monkeypatch):
        # x^5 + x - 1 = (x^2 - x + 1)(x^3 + x^2 - 1) is (2,3) mod 2; 3
        # divides its discriminant 3 * 7^2 * 23, and (1,2,2) mod 5 leaves
        # three factors and the same degree set, so the scan stops there.
        # Mod 2 each distinct-degree part is one irreducible and there are
        # only two, so it splits at 2 with no equal-degree step
        scanned = record_scan(monkeypatch)
        split, lifted = [], []
        real_split, real_lift = intpoly._equal_degree, intpoly._hensel_tree

        def equal_degree(g, d, p, rng):
            split.append(p)
            return real_split(g, d, p, rng)

        def hensel_tree(f, facs, p, target):
            lifted.append((p, facs))
            return real_lift(f, facs, p, target)

        monkeypatch.setattr(intpoly, "_equal_degree", equal_degree)
        monkeypatch.setattr(intpoly, "_hensel_tree", hensel_tree)
        f = IntPoly([-1, 1, 0, 0, 0, 1])
        assert factor_over_Z(f).factors == (
            (IntPoly([1, -1, 1]), 1), (IntPoly([-1, 0, 1, 1]), 1))
        assert scanned == [(2, [2, 3]), (5, [1, 2, 2])]
        assert split == []
        # x^2 + x + 1 and x^3 + x^2 + 1 mod 2, lifted at 2 (the tree
        # recurses on each half)
        assert lifted[0] == (2, [[1, 1, 1], [1, 0, 1, 1]])
        assert {p for p, _ in lifted} == {2}

    def test_irreducible_through_recombination(self, monkeypatch):
        # reducible mod every prime, so only recombination shows them whole
        lifts = []
        real = intpoly._hensel_tree

        def counting(*args):
            lifts.append(args)
            return real(*args)

        monkeypatch.setattr(intpoly, "_hensel_tree", counting)
        for cs in ([1, 0, -10, 0, 1], [1, 0, 0, 0, 1]):
            before = len(lifts)
            f = IntPoly(cs)
            assert intpoly._factor_monic_squarefree(f) == [f]
            assert len(lifts) > before

    def test_unit_quartics_irreducible_without_lifting(self, monkeypatch):
        # the same two quartics, monic with constant term 1: the closed
        # form proves them whole
        def refuse(*args):
            raise AssertionError("lifted a quartic the closed form settles")

        monkeypatch.setattr(intpoly, "_hensel_tree", refuse)
        for cs in ([1, 0, -10, 0, 1], [1, 0, 0, 0, 1]):
            f = IntPoly(cs)
            assert factor_over_Z(f).factors == ((f, 1),)

    def test_squarefree_mod_p_skips_yun(self, monkeypatch):
        def refuse(f):
            raise AssertionError("ran Yun on a polynomial squarefree mod 3")

        monkeypatch.setattr(intpoly, "squarefree_decomposition", refuse)
        f = IntPoly([1, -5, 0, 1])
        assert factor_over_Z(f * 6).factors == ((f, 1),)
        # factor_over_Z settles this monic cubic with f(0) = 1 in closed
        # form; the Zassenhaus route must still skip Yun on it
        assert intpoly._factor_zassenhaus(f) == [(f, 1)]

    def test_not_squarefree_mod_small_primes_reaches_yun(self, monkeypatch):
        # (x - 1)(x - 1 - 15015)(x^3 - x - 1), 15015 = 3*5*7*11*13: a
        # double root mod each of those primes, but three distinct simple
        # factors; of degree 5, since quadratics never reach Yun
        calls = []
        real = intpoly.squarefree_decomposition

        def counting(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(intpoly, "squarefree_decomposition", counting)
        a, b, c = IntPoly([-1, 1]), IntPoly([-15016, 1]), IntPoly([-1, -1, 0, 1])
        assert factor_over_Z(a * b * c).factors == ((b, 1), (a, 1), (c, 1))
        assert len(calls) == 1

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(83)

        def check():
            for _ in range(250):
                f = IntPoly((rng.choice([1, -1, 2, -3, 6]),))
                for _ in range(rng.randint(1, 3)):
                    cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                    g = IntPoly(cs + [rng.choice([1, 1, -1, 2, 3, 5])])
                    f = f * g ** rng.choice([1, 1, 2, 3])
                assert str(factor_over_Z(f)) == sympy_factorization(sympy, f)

        with_alarm(30, check)

    def test_prime_scan_ends_on_repeated_factors(self):
        # every prime leaves (x-1)^2 and (x^2+1)^2 non-squarefree; the
        # scan stops once the rejected primes outgrow the discriminant bound
        for cs in ([1, -2, 1], [1, 0, 2, 0, 1]):
            with pytest.raises(ArithmeticError):
                with_alarm(5, lambda: intpoly._factor_monic_squarefree(IntPoly(cs)))


class TestBitmasksModTwo:
    """The mod-2 stage on int bitmasks (bit i the coefficient of x^i)
    agrees with the coefficient-list kernel at p = 2."""

    def test_squarefree_and_distinct_degree_match_lists(self):
        rng = random.Random(89)
        squarefree = 0
        for _ in range(3000):
            deg = rng.randint(1, 40)
            f = IntPoly([rng.randint(-3, 3) for _ in range(deg)] + [rng.choice([1, -1, 3])])
            if rng.random() < 0.2:
                f = f * IntPoly([rng.randint(-2, 2), 1]) ** 2
            h = intpoly._bits(f.coeffs)
            assert intpoly._bits_to_list(h) == [c % 2 for c in f.coeffs]
            assert intpoly._squarefree2(h) == intpoly._squarefree_mod_p(f, 2)
            if intpoly._squarefree2(h):
                squarefree += 1
                parts = [(intpoly._bits_to_list(g), d) for g, d in intpoly._distinct_degree2(h)]
                assert parts == intpoly._distinct_degree([c % 2 for c in f.coeffs], 2)
        assert squarefree > 1000

    def test_sympy_on_unit_products_with_cyclotomic_factors(self, monkeypatch):
        # x^5 + x - 1 = Phi_6 (x^3 + x^2 - 1) is the shape: a cyclotomic
        # factor beside a unit factor, degree 5-16; some of them lift at 2
        sympy = pytest.importorskip("sympy")
        primes = set()
        real = intpoly._hensel_tree

        def hensel_tree(f, facs, p, target):
            primes.add(p)
            return real(f, facs, p, target)

        monkeypatch.setattr(intpoly, "_hensel_tree", hensel_tree)
        x = sympy.Symbol("x")
        cyclotomic = [IntPoly([int(c) for c in sympy.Poly(sympy.cyclotomic_poly(k, x), x)
                               .all_coeffs()[::-1]]) for k in (3, 4, 5, 6, 7, 8, 10, 12)]
        rng = random.Random(97)

        def check():
            count = 0
            while count < 300:
                f = rng.choice(cyclotomic) ** rng.choice([1, 1, 1, 2])
                while f.degree() < 5 or rng.random() < 0.3:
                    d = rng.randint(1, 8)
                    mid = [rng.randint(-3, 3) for _ in range(d - 1)]
                    f = f * IntPoly([rng.choice([1, -1])] + mid + [1])
                if f.degree() <= 16:
                    count += 1
                    assert str(factor_over_Z(f)) == sympy_factorization(sympy, f), f

        with_alarm(60, check)
        assert 2 in primes


def rand_unit_products(seed, count):
    # products of random monic factors of degree 1-5 with constant term
    # +-1, exponents 1-3, total degree 3-12: the shape of the classifier's
    # orbit polynomials
    rng = random.Random(seed)
    while count:
        f = IntPoly((1,))
        while True:
            d, e = rng.randint(1, 5), rng.randint(1, 3)
            if f.degree() + d * e > 12:
                break
            mid = [rng.randint(-4, 4) for _ in range(d - 1)]
            f = f * IntPoly([rng.choice([1, -1])] + mid + [1]) ** e
        if f.degree() >= 3:
            count -= 1
            yield f


def rand_big_factor_products(seed, count):
    # products of degree 9-16, squarefree mod one of 3..13: a random
    # monic of degree 5-12, above half the degree and irreducible in most
    # draws, times x^4 + 1 or x^4 - 10x^2 + 1, which split modulo every
    # prime
    rng = random.Random(seed)
    while count:
        big = IntPoly([rng.choice([1, -1, 2, -3])] + [rng.randint(-3, 3)
                                                      for _ in range(rng.randint(4, 11))] + [1])
        f = big * rng.choice([IntPoly([1, 0, 0, 0, 1]), IntPoly([1, 0, -10, 0, 1])])
        if intpoly.squarefree_mod_small_prime(f):
            count -= 1
            yield f


class TestShortLift:
    """Hensel lifting stops past the Mignotte bound for factors of degree
    at most half, and recombination tries the side of each subset of
    degree at most half the remainder."""

    def test_factors_above_half_the_degree(self, monkeypatch):
        try:
            import sympy
        except ImportError:
            sympy = None
        lifts = []
        real_lift, real_div = intpoly._hensel_tree, intpoly.try_exact_div

        def lift(f, facs, p, target):
            lifts.append((facs, p, target))
            return real_lift(f, facs, p, target)

        def exact_div(rem, cand):
            # every candidate multiplied out is the small side
            assert 2 * cand.degree() <= rem.degree()
            return real_div(rem, cand)

        monkeypatch.setattr(intpoly, "_hensel_tree", lift)
        monkeypatch.setattr(intpoly, "try_exact_div", exact_div)

        def check():
            first_found = 0
            for h in rand_big_factor_products(223, 150):
                lifts.clear()
                out = sorted(intpoly._factor_monic_squarefree(h), key=IntPoly.sort_key)
                assert math.prod(out, start=IntPoly((1,))) == h
                if sympy is not None:
                    assert str(FactorizationZ(1, 1, tuple((g, 1) for g in out))) == \
                        sympy_factorization(sympy, h), h
                facs, p, target = lifts[0]
                # the first power of p past 2 C(m, m // 2) ||h||_2, m = deg h // 2
                m = h.degree() // 2
                bound = 2 * math.comb(m, m // 2) * (math.isqrt(sum(c * c for c in h.coeffs)) + 1)
                assert target == intpoly._lift_target(h, p) and target // p <= bound < target
                # every product of true factors of degree at most half,
                # and so the complement of each larger one, lies within
                # the symmetric range of the target
                for r in range(1, len(out)):
                    for sub in itertools.combinations(out, r):
                        g = math.prod(sub, start=IntPoly((1,)))
                        if 2 * g.degree() <= h.degree():
                            assert 2 * max(map(abs, g.coeffs)) < target, (h, g)
                # a factor above half the degree with fewer modular
                # factors than every other is the first one found, from
                # the complement of its subset
                count = {g: sum(not intpoly._divmod(g.coeffs, u, p)[1] for u in facs) for g in out}
                big = max(out, key=IntPoly.degree)
                first_found += 2 * big.degree() > h.degree() and all(
                    count[big] < count[g] for g in out if g is not big)
            assert first_found >= 30

        with_alarm(60, check)


class TestUnitFront:
    """factor_over_Z on monic polynomials of degree >= 3 with constant
    term +-1: roots 1 and -1 split off, closed forms to degree 4."""

    PINNED = [
        IntPoly([1, 1, 1]) ** 2,
        IntPoly([1, 0, 1]) ** 2,
        IntPoly([1, 0, -10, 0, 1]),
        IntPoly([1, 0, 0, 0, 1]),
        IntPoly([-1, 1]) ** 3 * IntPoly([1, 1]) ** 2,
    ]

    def test_matches_zassenhaus_and_sympy(self):
        try:
            import sympy
        except ImportError:
            sympy = None

        def check():
            for f in itertools.chain(self.PINNED, rand_unit_products(211, 400)):
                ours = factor_over_Z(f)
                old = sorted(intpoly._factor_zassenhaus(f), key=lambda fm: fm[0].sort_key())
                assert list(ours.factors) == old, f
                if sympy is not None:
                    assert str(ours) == sympy_factorization(sympy, f), f

        with_alarm(60, check)

    def test_pinned_factorizations(self):
        expect = [
            ((IntPoly([1, 1, 1]), 2),),
            ((IntPoly([1, 0, 1]), 2),),
            ((self.PINNED[2], 1),),
            ((self.PINNED[3], 1),),
            ((IntPoly([-1, 1]), 3), (IntPoly([1, 1]), 2)),
        ]
        for f, factors in zip(self.PINNED, expect):
            assert factor_over_Z(f).factors == factors

    def test_split_quartics(self):
        # both closed-form cases: b = d = +-1, and (b, d) = (1, -1)
        for b, d in ((1, 1), (-1, -1), (1, -1)):
            for a, c in ((1, 3), (-3, 5), (4, -1)):
                g, h = IntPoly([b, a, 1]), IntPoly([d, c, 1])
                assert set(factor_over_Z(g * h).factors) == {(g, 1), (h, 1)}


def sympy_factorization(sympy, f):
    # str of the FactorizationZ that sympy.factor_list gives for f
    coeff, pairs = sympy.factor_list(sympy.Poly(f.coeffs[::-1], sympy.Symbol("x")))
    factors = sorted(((IntPoly([int(c) for c in P.all_coeffs()[::-1]]), m) for P, m in pairs),
                     key=lambda fm: fm[0].sort_key())
    return str(FactorizationZ(1 if coeff > 0 else -1, abs(int(coeff)), tuple(factors)))


def rand_quadratics(seed, count):
    # random trinomials with coefficients up to 10^40, and products of
    # two random linear factors (equal ones give double roots) times a
    # signed content; a fifth have constant term 0, a third are monic
    rng = random.Random(seed)
    for i in range(count):
        bound = 10 ** rng.choice([1, 2, 3, 6, 12, 20])
        lead = 1 if rng.random() < 0.34 else rng.randint(1, bound)
        if i % 2:
            f = IntPoly([rng.randint(-bound, bound), lead])
            if rng.random() < 0.2:
                f = f * f
            else:
                b = 0 if rng.random() < 0.2 else rng.randint(-bound, bound)
                f = f * IntPoly([b, rng.choice([1, 1, -1, rng.randint(-bound, bound) or 1])])
            yield f * rng.choice([1, 1, -1, 2, -6, 35, 10**20])
        else:
            bound *= bound
            cs = [rng.randint(-bound, bound) for _ in range(2)] + [lead * rng.choice([1, -1])]
            if rng.random() < 0.2:
                cs[0] = 0
            yield IntPoly(cs)


class TestQuadratics:
    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        # x^2, a root at 0, a double root, no real root, 10^40 - x^2
        fixed = [IntPoly(cs) for cs in ([0, 0, 1], [0, 3, 6], [9, -12, 4], [-3, 0, -6],
                                        [10**40, 0, -1])]

        def check():
            split = 0
            for f in itertools.chain(fixed, rand_quadratics(103, 3200)):
                ours = factor_over_Z(f)
                assert str(ours) == sympy_factorization(sympy, f), f
                split += len(ours.factors) > 1 or ours.factors[0][1] > 1
            # both branches of the closed form are exercised
            assert 800 < split < 2400

        with_alarm(60, check)

    def test_monic_squarefree_matches_modular_route(self):
        seen = 0
        for f in rand_quadratics(107, 3000):
            _, _, g = f.primitive_positive()
            if g.degree() != 2 or not g.is_monic() or g.constant() == 0:
                continue
            c, b, _ = g.coeffs
            if b * b == 4 * c:
                continue
            seen += 1
            modular = sorted(intpoly._factor_monic_squarefree(g), key=IntPoly.sort_key)
            assert [h for h, _ in factor_over_Z(g).factors] == modular
        assert seen > 500

    def test_quadratics_skip_the_modular_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a quadratic entered the Zassenhaus route")

        for name in ("_squarefree_mod_p", "squarefree_decomposition", "_factor_primitive_squarefree"):
            monkeypatch.setattr(intpoly, name, refuse)
        for f in rand_quadratics(109, 300):
            assert factor_over_Z(f).expand() == f


def naive_mul(a, b, m):
    n = len(a) + len(b) - 1
    out = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % m
           for k in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def rand_mod_cases(seed, count):
    # (a, b, m) with b's leading coefficient a unit mod m: any nonzero
    # one mod a prime, 1 mod a prime power
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice([3, 5, 7, 101, 3**7, 10007**3])
        a = [rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 14))]
        lead = 1 if m in (3**7, 10007**3) else rng.randrange(1, m)
        b = [rng.randrange(m) for _ in range(rng.randint(0, 7))] + [lead]
        yield a, b, m


class TestCore:
    def test_divmod_is_euclidean_division(self):
        for a, b, m in rand_mod_cases(89, 2400):
            q, r = intpoly._divmod(a, b, m)
            assert len(r) < len(b)
            assert all(0 <= c < m for c in q + r)
            assert (not q or q[-1]) and (not r or r[-1])
            qb = naive_mul(q, b, m)
            back = [(x + y) % m for x, y in itertools.zip_longest(qb, r, fillvalue=0)]
            assert back == naive_mul(a, [1], m)  # a mod m, trimmed

    def test_mul_and_prod_match_reference(self):
        rng = random.Random(97)
        for a, b, m in rand_mod_cases(97, 2400):
            assert intpoly._mul(a, b, m) == naive_mul(a, b, m)
            polys = [a, b] + [[rng.randrange(m) for _ in range(rng.randint(0, 4))]
                              for _ in range(rng.randint(0, 3))]
            ref = [1]
            for g in polys:
                ref = naive_mul(ref, g, m)
            assert intpoly._prod(polys, m) == ref

    def test_powmod_matches_repeated_multiplication(self):
        # every power up to max(70, p^d) by repeated _mul/_divmod
        rng = random.Random(113)
        for p, d in ((3, 1), (3, 4), (5, 3), (7, 2), (7, 4), (101, 1), (101, 2)):
            for _ in range(3):
                mod = [rng.randrange(p) for _ in range(d)] + [1]
                base = [rng.randrange(p) for _ in range(rng.randint(0, 8))]
                step = intpoly._divmod(base, mod, p)[1]
                powers = [[1]]
                while len(powers) <= max(70, p**d):
                    powers.append(intpoly._divmod(intpoly._mul(powers[-1], step, p), mod, p)[1])
                exps = list(range(71)) + [(p**d - 1) // 2, p**d]
                exps += [rng.randrange(p**d) for _ in range(20)]
                for e in exps:
                    assert intpoly._ppowmod(base, e, mod, p) == powers[e]

    def test_intpoly_mul_is_conv(self):
        rng = random.Random(101)
        for _ in range(500):
            p, q = rand_poly(rng, max_deg=8, lo=-10**6, hi=10**6), rand_poly(rng, max_deg=8)
            assert (p * q).coeffs == tuple(intpoly._conv(p.coeffs, q.coeffs))

    def test_every_product_goes_through_conv(self, monkeypatch):
        calls = []
        stage = ["lift"]
        real_conv, real_lift = intpoly._conv, intpoly._hensel_tree

        def conv(a, b):
            calls.append(stage[0])
            return real_conv(a, b)

        def lift(*args):
            out = real_lift(*args)
            stage[0] = "recombination"
            return out

        monkeypatch.setattr(intpoly, "_conv", conv)
        monkeypatch.setattr(intpoly, "_hensel_tree", lift)
        f = IntPoly([1, 0, -10, 0, 1])
        steps = [
            lambda: IntPoly([-1, 1]) * IntPoly([1, 1]),
            lambda: FactorizationZ(1, 2, ((IntPoly([-1, 1]), 2),)).expand(),
            # f is monic with f(0) = 1, which factor_over_Z settles in
            # closed form; the modular route is taken directly
            lambda: intpoly._factor_monic_squarefree(f),
        ]
        for step in steps:
            before = len(calls)
            step()
            assert len(calls) > before
        # x^4 + 1: recombination multiplies out its candidate subsets
        calls.clear()
        intpoly._factor_monic_squarefree(IntPoly([1, 0, 0, 0, 1]))
        assert "recombination" in calls


class TestLinearRootProfile:
    def test_splits_off_roots_at_one(self):
        mult1, multm1, rest = linear_root_profile(
            IntPoly([-1, 1]) ** 2 * IntPoly([1, 1]) * IntPoly([1, 0, 1])
        )
        assert (mult1, multm1) == (2, 1)
        assert rest == IntPoly([1, 0, 1])

    def test_no_unit_roots(self):
        mult1, multm1, rest = linear_root_profile(IntPoly([1, 1, 1]))
        assert (mult1, multm1) == (0, 0)
        assert rest == IntPoly([1, 1, 1])


class TestIntegerRootOfCubic:
    def test_matches_a_scan_of_the_cauchy_range(self):
        rng = random.Random(739)
        found = 0
        for _ in range(20000):
            g = IntPoly([rng.randint(-60, 60) for _ in range(3)] + [1])
            bound = 1 + max(map(abs, g.coeffs))
            want = any(g.evaluate(y) == 0 for y in range(-bound, bound + 1))
            assert intpoly._has_integer_root(g) == want, g
            found += want
        assert found > 100

    def test_large_roots_and_double_roots(self):
        rng = random.Random(743)
        for _ in range(2000):
            r, s = rng.randint(-10**12, 10**12), rng.randint(-10**6, 10**6)
            q = IntPoly([rng.randint(-10**9, 10**9), rng.randint(-10**6, 10**6), 1])
            assert intpoly._has_integer_root(IntPoly([-r, 1]) * q)
            # (x - s)^2 (x - s - 1): roots at both critical runs' ends
            assert intpoly._has_integer_root(IntPoly([-s, 1]) ** 2 * IntPoly([-s - 1, 1]))
        # x^3 - 2 and the resolvent y^3 - 4y - 25 of x^4 - 5x + 1
        assert not intpoly._has_integer_root(IntPoly([-2, 0, 0, 1]))
        assert not intpoly._has_integer_root(IntPoly([-25, -4, 0, 1]))

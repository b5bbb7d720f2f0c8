"""Integer polynomial arithmetic and factorization tests."""

import itertools
import random

import pytest

import resnil.intpoly as intpoly
from resnil.errors import ZeroPolynomial
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

from oracles import brute_force_factor, library_factor_canonical, with_alarm


def rand_poly(rng, max_deg=4, lo=-30, hi=30, nonzero=False):
    deg = rng.randint(0, max_deg)
    cs = [rng.randint(lo, hi) for _ in range(deg + 1)]
    p = IntPoly(cs)
    if nonzero and p.is_zero():
        return IntPoly((1,))
    return p


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
            # a product per set bit and a squaring per further bit, no more
            assert len(products) == (e.bit_length() - 1 + bin(e).count("1") if e else 0)
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
            assert factor_over_Z(f).factors == ((f, 1),)
            assert len(lifts) > before

    def test_squarefree_mod_p_skips_yun(self, monkeypatch):
        def refuse(f):
            raise AssertionError("ran Yun on a polynomial squarefree mod 3")

        monkeypatch.setattr(intpoly, "squarefree_decomposition", refuse)
        f = IntPoly([1, -5, 0, 1])
        assert factor_over_Z(f * 6).factors == ((f, 1),)

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
            lambda: factor_over_Z(f),
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

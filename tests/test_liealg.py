"""Free Lie algebra tests: Lyndon bases, brackets, induced matrices."""

import itertools
import math
import random

import pytest

from resnil.errors import AlphabetMismatch, SizeCapExceeded
from resnil.intpoly import try_exact_div
from resnil.liealg import (
    LieElement,
    bracket_normal_form,
    induced_lie_matrix,
    lyndon_basis,
    lyndon_count,
    witt_dimension,
)
from resnil.zlinalg import IntMatrix, char_poly, determinant, kronecker_power
from resnil.intpoly import factor_over_Z

from oracles import lyndon_words_brute, random_unimodular


def rand_element(rng, n, k, span=3):
    B = lyndon_basis(n, k)
    coords = [0] * len(B.words)
    for _ in range(span):
        coords[rng.randrange(len(coords))] += rng.randint(-3, 3)
    return LieElement(n, k, tuple(coords))


class TestWittDimension:
    def test_known_values(self):
        assert witt_dimension(2, 1) == 2
        assert witt_dimension(2, 2) == 1
        assert witt_dimension(2, 3) == 2
        assert witt_dimension(2, 4) == 3
        assert witt_dimension(2, 5) == 6
        assert witt_dimension(2, 6) == 9
        assert witt_dimension(3, 2) == 3
        assert witt_dimension(1, 1) == 1
        assert witt_dimension(1, 4) == 0

    def test_against_brute_force(self):
        for n in (1, 2, 3):
            for k in range(1, 7):
                assert witt_dimension(n, k) == len(lyndon_words_brute(n, k))

    def test_lyndon_count_by_content(self):
        # Witt's multigraded formula against the Lyndon words of each content
        for n in (1, 2, 3):
            for k in range(1, 7):
                counts = {}
                for w in lyndon_words_brute(n, k):
                    content = tuple(w.count(c) for c in range(1, n + 1))
                    counts[content] = counts.get(content, 0) + 1
                for content in itertools.product(range(k + 1), repeat=n):
                    if sum(content) != k:
                        continue
                    present = tuple(c for c in content if c)
                    assert lyndon_count(present) == counts.get(content, 0)
        with pytest.raises(ValueError):
            lyndon_count((2, 0))

    def test_divisor_sums_match_full_scan(self):
        # the formulas summed over every d in 1..k, with factorials
        def mobius(d):
            primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
            return 0 if any(d % (p * p) == 0 for p in primes) else (-1) ** len(primes)

        def partitions(k, top):
            if k == 0:
                yield ()
            for first in range(min(k, top), 0, -1):
                for rest in partitions(k - first, first):
                    yield (first,) + rest

        for k in range(1, 40):
            divs = [d for d in range(1, k + 1) if k % d == 0]
            for n in range(1, 7):
                assert witt_dimension(n, k) == sum(mobius(d) * n ** (k // d) for d in divs) // k
        for k in range(1, 19):
            for mu in partitions(k, k):
                g = math.gcd(*mu)
                total = sum(
                    mobius(d) * math.factorial(k // d) // math.prod(math.factorial(c // d) for c in mu)
                    for d in range(1, g + 1) if g % d == 0
                )
                assert lyndon_count(mu) == total // k


class TestLyndonBasis:
    def test_words_sorted_and_lyndon(self):
        for n in (2, 3):
            for k in range(1, 6):
                B = lyndon_basis(n, k)
                words = list(B.words)
                assert words == sorted(words)
                assert len(words) == witt_dimension(n, k)
                for w in words:
                    # strictly smaller than every proper suffix
                    assert all(w < w[i:] for i in range(1, len(w)))

    def test_matches_brute_enumeration(self):
        for n in (2, 3):
            for k in range(1, 6):
                assert list(lyndon_basis(n, k).words) == lyndon_words_brute(n, k)

    def test_bracket_strings(self):
        B = lyndon_basis(2, 3)
        assert [B.bracket_string(i) for i in range(2)] == [
            "[x1,[x1,x2]]",
            "[[x1,x2],x2]",
        ]
        B1 = lyndon_basis(2, 1)
        assert B1.bracket_string(0) == "x1"

    def test_dimension_cap(self):
        with pytest.raises(SizeCapExceeded):
            lyndon_basis(3, 8)
        assert len(lyndon_basis(3, 8, witt_cap=1000).words) == 810


class TestBracket:
    def test_generator_bracket_expansion(self):
        x = LieElement.generator(2, 1)
        y = LieElement.generator(2, 2)
        assert bracket_normal_form(x, y).to_assoc() == {(1, 2): 1, (2, 1): -1}

    def test_self_bracket_vanishes(self):
        rng = random.Random(157)
        for _ in range(30):
            n = rng.choice((2, 3))
            k = rng.randint(1, 3)
            a = rand_element(rng, n, k)
            assert bracket_normal_form(a, a).is_zero()

    def test_antisymmetry(self):
        rng = random.Random(163)
        for _ in range(40):
            n = rng.choice((2, 3))
            ka = rng.randint(1, 3)
            kb = rng.randint(1, 3)
            a = rand_element(rng, n, ka)
            b = rand_element(rng, n, kb)
            lhs = bracket_normal_form(a, b)
            rhs = bracket_normal_form(b, a)
            assert lhs.coords == tuple(-c for c in rhs.coords)

    def test_jacobi(self):
        rng = random.Random(167)
        for _ in range(25):
            n = 2
            ks = [rng.randint(1, 2) for _ in range(3)]
            if sum(ks) > 5:
                continue
            a, b, c = (rand_element(rng, n, k) for k in ks)
            t1 = bracket_normal_form(a, bracket_normal_form(b, c))
            t2 = bracket_normal_form(b, bracket_normal_form(c, a))
            t3 = bracket_normal_form(c, bracket_normal_form(a, b))
            total = [x + y + z for x, y, z in zip(t1.coords, t2.coords, t3.coords)]
            assert not any(total)

    def test_bilinearity(self):
        rng = random.Random(173)
        for _ in range(30):
            a = rand_element(rng, 2, 2)
            a2 = rand_element(rng, 2, 2)
            b = rand_element(rng, 2, 1)
            s = LieElement(2, 2, tuple(x + y for x, y in zip(a.coords, a2.coords)))
            lhs = bracket_normal_form(s, b)
            r1 = bracket_normal_form(a, b)
            r2 = bracket_normal_form(a2, b)
            assert lhs.coords == tuple(x + y for x, y in zip(r1.coords, r2.coords))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            bracket_normal_form(
                LieElement.generator(2, 1), LieElement.generator(3, 1)
            )

    def test_basis_expansion_triangular(self):
        # the associative expansion of a basis bracket is supported on
        # words >= its Lyndon word, with coefficient 1 on the word itself
        for n, k in ((2, 3), (2, 4), (3, 3)):
            B = lyndon_basis(n, k)
            for i, w in enumerate(B.words):
                assoc = LieElement.from_word_index(n, k, i).to_assoc()
                assert assoc[w] == 1
                assert all(u >= w for u in assoc)


class TestInducedMatrix:
    def test_identity_action(self):
        for n, k in ((2, 3), (3, 2)):
            E = IntMatrix.identity(n)
            assert induced_lie_matrix(E, k) == IntMatrix.identity(
                witt_dimension(n, k)
            )

    def test_degree_one_is_input(self):
        A = IntMatrix.from_rows([[0, 1], [1, 3]])
        assert induced_lie_matrix(A, 1) == A

    def test_degree_two_rank_two_is_determinant(self):
        rng = random.Random(179)
        for _ in range(25):
            A = random_unimodular(rng, 2)
            M = induced_lie_matrix(A, 2)
            assert (M.rows, M.cols) == (1, 1)
            assert M.get(0, 0) == determinant(A)

    def test_known_second_component(self):
        A = IntMatrix.from_rows([[0, 1], [1, 3]])
        assert induced_lie_matrix(A, 2).to_rows() == [[-1]]

    def test_functoriality(self):
        rng = random.Random(181)
        for n, kmax, reps in ((2, 4, 12), (3, 3, 8)):
            for _ in range(reps):
                A = random_unimodular(rng, n)
                B = random_unimodular(rng, n)
                for k in range(1, kmax + 1):
                    lhs = induced_lie_matrix(A * B, k)
                    rhs = induced_lie_matrix(A, k) * induced_lie_matrix(B, k)
                    assert lhs == rhs

    def test_char_factors_divide_tensor_char(self):
        A = IntMatrix.from_rows([[0, 1], [1, 3]])
        for k in (2, 3):
            lie_fac = factor_over_Z(char_poly(induced_lie_matrix(A, k)))
            big = char_poly(kronecker_power(A, k))
            for f, _ in lie_fac.factors:
                assert try_exact_div(big, f) is not None

    def test_dimension_cap(self):
        with pytest.raises(SizeCapExceeded):
            induced_lie_matrix(IntMatrix.identity(3), 8)

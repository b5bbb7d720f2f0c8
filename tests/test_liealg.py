"""Free Lie algebra tests: Witt dimensions, Lyndon bases, induced matrices."""

import itertools
import math
import random

import pytest

from resnil.errors import SizeCapExceeded
from resnil.intpoly import try_exact_div
from resnil import liealg
from resnil.liealg import (
    induced_lie_matrix,
    lyndon_basis,
    lyndon_count,
    witt_dimension,
)
from resnil.zlinalg import IntMatrix, char_poly, determinant, kronecker_power
from resnil.intpoly import factor_over_Z

from oracles import lyndon_words_brute, mobius_by_trial_division, random_unimodular


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

    def test_mobius_terms_by_trial_division(self):
        # every divisor d of k with mobius(d) != 0, for k <= 10^4
        mu = [0] + [mobius_by_trial_division(d) for d in range(1, 10**4 + 1)]
        for k in range(1, 10**4 + 1):
            divisors = {e for d in range(1, math.isqrt(k) + 1) if k % d == 0 for e in (d, k // d)}
            assert sorted(liealg._mobius_terms(k)) == sorted((d, mu[d]) for d in divisors if mu[d])

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

    def test_dimension_cap(self):
        with pytest.raises(SizeCapExceeded):
            lyndon_basis(3, 8)
        assert len(lyndon_basis(3, 8, witt_cap=1000).words) == 810


class TestBracket:
    def test_basis_expansion_triangular(self):
        # the associative expansion of a basis bracket is supported on
        # words >= its Lyndon word, with coefficient 1 on the word itself;
        # _lyndon_coordinates eliminates against the basis by this
        for n, k in ((2, 3), (2, 4), (3, 3)):
            for w in lyndon_basis(n, k).words:
                assoc = dict(liealg._expand_word(w))
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

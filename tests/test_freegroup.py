"""Free group word and endomorphism tests."""

import random

import pytest

from resnil import freegroup
from resnil.errors import (
    ExponentZero,
    RankMismatch,
    UnknownGenerator,
    WordSyntaxError,
)
from resnil.freegroup import (
    AutoStatus,
    FreeEndo,
    FreeWord,
    abelianization_matrix,
    check_automorphism,
    endo_compose,
    endo_power,
    parse_word,
    word_invert,
    word_multiply,
)
from resnil.zlinalg import IntMatrix

from oracles import with_alarm


def square_and_multiply_count(e):
    # a squaring per bit after the first and a product per set bit after
    # the lowest: none against the identity
    return e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0


def rand_word(rng, rank, syllables=6):
    parts = []
    for _ in range(rng.randint(0, syllables)):
        parts.append((rng.randint(1, rank), rng.choice([-3, -2, -1, 1, 2, 3])))
    return FreeWord(rank, parts)


class TestParsing:
    def test_letter_aliases(self):
        w = parse_word("abA", 2)
        assert w.syllables == ((1, 1), (2, 1), (1, -1))

    def test_numbered_generators(self):
        w = parse_word("x1 x12^-2", 12)
        assert w.syllables == ((1, 1), (12, -2))

    def test_exponents_merge_adjacent_syllables(self):
        assert parse_word("a^2 a^3", 1).syllables == ((1, 5),)
        assert parse_word("a A", 1).is_identity()

    def test_whitespace_optional(self):
        assert parse_word("ab^3", 2) == parse_word("a b^3", 2)

    def test_empty_is_identity(self):
        assert parse_word("", 3).is_identity()
        assert str(FreeWord.identity(3)) == "1"

    def test_round_trip_through_str(self):
        rng = random.Random(113)
        for _ in range(200):
            rank = rng.randint(1, 4)
            w = rand_word(rng, rank)
            assert parse_word(str(w), rank) == w

    def test_syntax_errors(self):
        with pytest.raises(WordSyntaxError) as ei:
            parse_word("a$b", 2)
        assert ei.value.position == 1
        with pytest.raises(WordSyntaxError):
            parse_word("a^", 2)
        with pytest.raises(UnknownGenerator):
            parse_word("c", 2)
        with pytest.raises(UnknownGenerator):
            parse_word("x9", 3)
        with pytest.raises(ExponentZero):
            parse_word("a^0", 2)

    def test_bad_rank(self):
        with pytest.raises(RankMismatch):
            FreeWord(0, ())
        with pytest.raises(RankMismatch):
            FreeWord(2, ((3, 1),))


class TestWordAlgebra:
    def test_reduction_canonical(self):
        w = FreeWord(2, ((1, 2), (1, -2), (2, 1), (2, 2)))
        assert w.syllables == ((2, 3),)

    def test_inverse_law(self):
        rng = random.Random(127)
        for _ in range(150):
            rank = rng.randint(1, 4)
            u = rand_word(rng, rank)
            assert word_multiply(u, word_invert(u)).is_identity()
            assert word_multiply(word_invert(u), u).is_identity()

    def test_associativity(self):
        rng = random.Random(131)
        for _ in range(150):
            rank = rng.randint(1, 4)
            u, v, w = (rand_word(rng, rank) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_reduction_is_order_independent(self):
        # build the same unreduced syllable stream in shuffled
        # association orders; the reduced form must not depend on it
        rng = random.Random(137)
        for _ in range(60):
            rank = rng.randint(1, 3)
            pieces = [rand_word(rng, rank, 2) for _ in range(5)]
            left = FreeWord.identity(rank)
            for p in pieces:
                left = left * p
            right = FreeWord.identity(rank)
            for p in reversed(pieces):
                right = p * right
            assert left == right

    def test_powers_and_length(self):
        u = parse_word("ab", 2)
        assert u ** 3 == parse_word("ababab", 2)
        assert u ** -1 == parse_word("BA", 2)
        assert u ** 0 == FreeWord.identity(2)
        assert parse_word("a^2 B", 2).length() == 3

    def test_power_by_square_and_multiply(self, monkeypatch):
        u = parse_word("a b^2 A c", 3)
        products = []
        mul = FreeWord.__mul__
        monkeypatch.setattr(FreeWord, "__mul__", lambda x, y: products.append(1) or mul(x, y))
        for base, sign in ((u, 1), (u.inverse(), -1)):
            expect = FreeWord.identity(3)
            for e in range(41):
                products.clear()
                assert u ** (sign * e) == expect
                assert len(products) == square_and_multiply_count(e)
                expect = mul(expect, base)

    def test_exponent_sums(self):
        assert parse_word("a b^3 A^2", 2).exponent_sums() == (-1, 3)


class TestEndomorphisms:
    def test_from_strings_and_apply(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        w = f.apply(parse_word("ab", 2))
        assert w == parse_word("b a b^3", 2)

    def test_apply_powers_each_image(self):
        # a syllable x^e maps to image(x)^e by square-and-multiply, so
        # exponents in the billions cost a few products, not e copies
        f = FreeEndo.from_strings(["a b^100000000", "A"])
        w = with_alarm(2, lambda: f.apply(parse_word("b^-1000000000 a^3 b", 2)))
        assert w == FreeWord(2, [(1, 10**9)] + [(1, 1), (2, 10**8)] * 3 + [(1, -1)])

    def test_homomorphism_property(self):
        rng = random.Random(139)
        f = FreeEndo.from_strings(["ab", "b A"])
        for _ in range(100):
            u = rand_word(rng, 2)
            v = rand_word(rng, 2)
            assert f.apply(u * v) == f.apply(u) * f.apply(v)

    def test_identity_endo(self):
        f = FreeEndo.identity(3)
        assert f.is_identity()
        w = parse_word("a b c^2", 3)
        assert f.apply(w) == w

    def test_compose_matches_sequential_application(self):
        rng = random.Random(149)
        f = FreeEndo.from_strings(["b", "a b^3"])
        g = FreeEndo.from_strings(["a B", "b"])
        fg = endo_compose(f, g)
        for _ in range(60):
            w = rand_word(rng, 2)
            assert fg.apply(w) == f.apply(g.apply(w))

    def test_power(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        assert endo_power(f, 1) == f
        assert endo_power(f, 3) == endo_compose(f, endo_compose(f, f))
        assert endo_power(f, 0).is_identity()

    def test_power_by_square_and_multiply(self, monkeypatch):
        # polynomial growth keeps the 40th power small
        f = FreeEndo.from_strings(["a b", "b c", "c"])
        products = []
        monkeypatch.setattr(
            freegroup, "endo_compose", lambda g, h: products.append(1) or endo_compose(g, h)
        )
        expect = FreeEndo.identity(3)
        for e in range(41):
            products.clear()
            assert endo_power(f, e) == expect
            assert len(products) == square_and_multiply_count(e)
            expect = endo_compose(f, expect)


class TestAbelianization:
    def test_columns_are_images(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        A = abelianization_matrix(f)
        assert A.to_rows() == [[0, 1], [1, 3]]
        # column j is the exponent vector of the image of generator j+1
        assert A.col(1) == f.apply(FreeWord.generator(2, 2)).exponent_sums()

    def test_functoriality(self):
        rng = random.Random(151)
        for _ in range(40):
            rank = rng.randint(1, 3)
            f = FreeEndo(
                rank, tuple(rand_word(rng, rank) for _ in range(rank))
            )
            g = FreeEndo(
                rank, tuple(rand_word(rng, rank) for _ in range(rank))
            )
            lhs = abelianization_matrix(endo_compose(f, g))
            rhs = abelianization_matrix(f) * abelianization_matrix(g)
            assert lhs == rhs

    def test_power_compatibility(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        A = abelianization_matrix(f)
        assert abelianization_matrix(endo_power(f, 2)) == A * A


class TestAutomorphismCheck:
    def test_proven_by_inverse(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        inv = FreeEndo.from_strings(["b A^3", "a"])
        assert check_automorphism(f, inv) is AutoStatus.PROVEN_AUTO

    def test_wrong_inverse_rejected(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        wrong = FreeEndo.from_strings(["b", "a"])
        assert check_automorphism(f, wrong) is AutoStatus.PROVEN_NOT_AUTO

    def test_without_inverse_only_unimodularity(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        assert (
            check_automorphism(f) is AutoStatus.ABELIANIZED_UNIMODULAR_ONLY
        )

    def test_non_unimodular_abelianization(self):
        f = FreeEndo.from_strings(["a^2", "b"])
        assert check_automorphism(f) is AutoStatus.PROVEN_NOT_AUTO

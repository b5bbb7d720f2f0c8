"""Exact integer linear algebra tests."""

import math
import random

import pytest

from resnil.errors import (
    BadCompoundOrder,
    DimensionMismatch,
    NotSquare,
    NotUnimodular,
    SizeCapExceeded,
)
from resnil.intpoly import IntPoly, try_exact_div
from resnil.zlinalg import (
    IntMatrix,
    SubLattice,
    char_poly,
    compound_matrix,
    determinant,
    hermite_form,
    is_unimodular,
    kronecker_power,
    lattice_chain,
    lattice_contains,
    smith_form,
)

from oracles import (
    determinantal_divisors,
    laplace_det,
    member_by_elimination,
    random_unimodular,
)


def rand_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


class TestIntMatrix:
    def test_from_rows_and_accessors(self):
        M = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (M.rows, M.cols) == (2, 2)
        assert M.get(1, 0) == 3
        assert M.row(0) == (1, 2)
        assert M.col(1) == (2, 4)
        assert M.trace() == 5
        assert M.to_rows() == [[1, 2], [3, 4]]

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_ring_operations(self):
        A = IntMatrix.from_rows([[1, 2], [3, 4]])
        B = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert (A + B).to_rows() == [[1, 3], [4, 4]]
        assert (A - B).to_rows() == [[1, 1], [2, 4]]
        assert (-A).to_rows() == [[-1, -2], [-3, -4]]
        assert (A * B).to_rows() == [[2, 1], [4, 3]]
        assert (2 * A).to_rows() == [[2, 4], [6, 8]]
        assert A.transpose().to_rows() == [[1, 3], [2, 4]]

    def test_mismatched_product_rejected(self):
        A = IntMatrix.from_rows([[1, 2]])
        with pytest.raises(DimensionMismatch):
            A * A

    def test_apply_matches_product(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, n)
            v = [rng.randint(-5, 5) for _ in range(n)]
            expect = tuple(
                sum(M.get(i, j) * v[j] for j in range(n)) for i in range(n)
            )
            assert M.apply(v) == expect

    def test_power(self):
        A = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert A.power(0) == IntMatrix.identity(2)
        assert A.power(5).to_rows() == [[1, 5], [0, 1]]

    def test_power_by_repeated_products(self, monkeypatch):
        A = IntMatrix.from_rows([[2, -1, 0], [1, 3, 1], [0, 1, -1]])
        expect = IntMatrix.identity(3)
        products = []
        mul = IntMatrix.__mul__
        monkeypatch.setattr(IntMatrix, "__mul__", lambda X, Y: products.append(1) or mul(X, Y))
        for e in range(41):
            products.clear()
            assert A.power(e) == expect
            # a product per set bit and a squaring per further bit, no more
            assert len(products) == (e.bit_length() - 1 + bin(e).count("1") if e else 0)
            expect = mul(expect, A)

    def test_mod_and_minus_identity(self):
        A = IntMatrix.from_rows([[5, -1], [3, 7]])
        assert A.mod(3).to_rows() == [[2, 2], [0, 1]]
        assert A.minus_identity().to_rows() == [[4, -1], [3, 6]]


class TestDeterminant:
    def test_against_laplace(self):
        rng = random.Random(41)
        for _ in range(60):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, n)
            assert determinant(M) == laplace_det(M.to_rows())

    def test_multiplicative(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 3)
            A = rand_matrix(rng, n)
            B = rand_matrix(rng, n)
            assert determinant(A * B) == determinant(A) * determinant(B)

    def test_not_square_rejected(self):
        with pytest.raises(NotSquare):
            determinant(IntMatrix.from_rows([[1, 2]]))

    def test_unimodular_detection(self):
        assert is_unimodular(IntMatrix.from_rows([[0, 1], [1, 3]]))
        assert is_unimodular(IntMatrix.from_rows([[1, 1], [-1, 0]]))
        assert not is_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


class TestCharPoly:
    def test_monic_with_trace_and_det(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(1, 5)
            M = rand_matrix(rng, n, -6, 6)
            p = char_poly(M)
            assert p.degree() == n
            assert p.leading() == 1
            assert p.constant() == (-1) ** n * determinant(M)
            coeff = p.coeffs[n - 1]
            assert coeff == -M.trace()

    def test_cayley_hamilton(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(1, 3)
            M = rand_matrix(rng, n, -5, 5)
            p = char_poly(M)
            acc = IntMatrix.zero(n, n)
            for c in reversed(p.coeffs):
                acc = acc * M + c * IntMatrix.identity(n)
            assert acc == IntMatrix.zero(n, n)

    def test_companion_round_trip(self):
        # companion of x^3 - 4x^2 + 4x - 1
        C = IntMatrix.from_rows([[0, 0, 1], [1, 0, -4], [0, 1, 4]])
        assert char_poly(C) == IntPoly([-1, 4, -4, 1])

    def test_empty_matrix(self):
        assert char_poly(IntMatrix(0, 0, [])) == IntPoly([1])


class TestKroneckerPower:
    def test_first_power_is_input(self):
        rng = random.Random(59)
        M = rand_matrix(rng, 3)
        assert kronecker_power(M, 1) == M

    def test_mixed_product(self):
        rng = random.Random(61)
        for n in (2, 3):
            for _ in range(15):
                A = rand_matrix(rng, n, -4, 4)
                B = rand_matrix(rng, n, -4, 4)
                for k in (2, 3):
                    lhs = kronecker_power(A * B, k)
                    rhs = kronecker_power(A, k) * kronecker_power(B, k)
                    assert lhs == rhs

    def test_det_square_divides_char_of_second_power(self):
        rng = random.Random(67)
        for _ in range(25):
            A = rand_matrix(rng, 2, -5, 5)
            p = char_poly(kronecker_power(A, 2))
            lin = IntPoly([-determinant(A), 1])
            q = try_exact_div(p, lin * lin)
            assert q is not None

    def test_side_cap(self):
        with pytest.raises(SizeCapExceeded):
            kronecker_power(IntMatrix.identity(5), 6)
        M = IntMatrix.identity(2)
        assert kronecker_power(M, 2, side_cap=4).rows == 4
        with pytest.raises(SizeCapExceeded):
            kronecker_power(M, 2, side_cap=3)


class TestCompoundMatrix:
    def test_extreme_orders(self):
        rng = random.Random(71)
        M = rand_matrix(rng, 4)
        assert compound_matrix(M, 1) == M
        C = compound_matrix(M, 4)
        assert (C.rows, C.cols) == (1, 1)
        assert C.get(0, 0) == determinant(M)

    def test_cauchy_binet_multiplicativity(self):
        rng = random.Random(73)
        for n in (3, 4):
            for _ in range(10):
                A = rand_matrix(rng, n, -4, 4)
                B = rand_matrix(rng, n, -4, 4)
                for k in range(1, n + 1):
                    lhs = compound_matrix(A * B, k)
                    rhs = compound_matrix(A, k) * compound_matrix(B, k)
                    assert lhs == rhs

    def test_bad_order_rejected(self):
        M = IntMatrix.identity(3)
        with pytest.raises(BadCompoundOrder):
            compound_matrix(M, 0)
        with pytest.raises(BadCompoundOrder):
            compound_matrix(M, 4)


class TestHermite:
    def test_column_relation_and_unimodularity(self):
        rng = random.Random(79)
        mats = [rand_matrix(rng, rng.randint(1, 4)) for _ in range(40)]
        for M in mats + [IntMatrix.zero(3, 0), IntMatrix.zero(0, 3), IntMatrix.zero(2, 3)]:
            H, U = hermite_form(M)
            assert M * U == H
            assert is_unimodular(U)

    def test_pivot_structure(self):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randint(2, 4)
            M = rand_matrix(rng, n)
            H, _ = hermite_form(M)
            pivots = []
            for j in range(H.cols):
                col = H.col(j)
                idx = next((i for i, x in enumerate(col) if x), None)
                if idx is None:
                    # zero columns trail
                    assert all(not any(H.col(j2)) for j2 in range(j, H.cols))
                    break
                pivots.append((idx, j, col[idx]))
            rows_seen = [r for r, _, _ in pivots]
            assert rows_seen == sorted(rows_seen)
            for r, j, pv in pivots:
                assert pv > 0
                for j2 in range(j):
                    assert 0 <= H.get(r, j2) < pv


class TestSmith:
    def test_reassembly_and_chain(self):
        # every shape, zero rows, zero columns and zero matrices included;
        # d_1 * ... * d_k is the gcd of the k x k minors
        rng = random.Random(89)
        mats = [rand_matrix(rng, rng.randint(1, 4)) for _ in range(60)]
        shapes = [(m, n) for m in range(5) for n in range(5)] + [(2, 6), (6, 3), (6, 6)]
        mats += [
            IntMatrix(m, n, [rng.randint(-lo, lo) for _ in range(m * n)])
            for m, n in shapes
            for lo in (0, 1, 4, 30)
        ]
        # diagonal but not Smith: Smith forms diag(1, 6) and diag(2, 2, 60)
        mats += [
            IntMatrix.from_rows([[2, 0], [0, 3]]),
            IntMatrix.from_rows([[4, 0, 0], [0, 6, 0], [0, 0, 10]]),
        ]
        for M in mats:
            m, n = M.rows, M.cols
            sf = smith_form(M)
            assert (sf.U.rows, sf.U.cols, sf.V.rows, sf.V.cols) == (m, m, n, n)
            assert sf.U * M * sf.V == sf.D
            assert abs(determinant(sf.U)) == 1
            assert abs(determinant(sf.V)) == 1
            ds = sf.elementary_divisors
            assert sf.D == IntMatrix(
                m, n, [ds[i] if i == j else 0 for i in range(m) for j in range(n)]
            )
            assert all(d >= 0 for d in ds)
            for a, b in zip(ds, ds[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0
            assert determinantal_divisors(M) == tuple(
                math.prod(ds[:k]) for k in range(1, len(ds) + 1)
            )

    def test_divisors_invariant_under_unimodular_change(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randint(2, 4)
            M = rand_matrix(rng, n)
            P = random_unimodular(rng, n)
            Q = random_unimodular(rng, n)
            assert (
                smith_form(M).elementary_divisors
                == smith_form(P * M * Q).elementary_divisors
            )


class TestSubLattice:
    def test_membership_against_elimination_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            n = rng.randint(2, 4)
            M = rand_matrix(rng, n, -6, 6)
            L = SubLattice.from_generators(M)
            if L.rank == 0:
                continue
            for _ in range(6):
                if rng.random() < 0.5:
                    cs = [rng.randint(-3, 3) for _ in range(n)]
                    v = tuple(
                        sum(M.get(i, j) * cs[j] for j in range(n))
                        for i in range(n)
                    )
                else:
                    v = tuple(rng.randint(-20, 20) for _ in range(n))
                assert lattice_contains(L, v) == member_by_elimination(L.basis, v)

    def test_canonical_under_generator_change(self):
        rng = random.Random(103)
        for _ in range(25):
            n = rng.randint(2, 4)
            M = rand_matrix(rng, n)
            V = random_unimodular(rng, n)
            assert SubLattice.from_generators(M) == SubLattice.from_generators(M * V)

    def test_full_and_zero(self):
        assert SubLattice.full(3).is_full()
        Z = SubLattice.from_generators(IntMatrix.zero(2, 2))
        assert Z.is_zero()
        assert Z.elementary_divisors() == ()
        assert Z.index_in_ambient() is None

    def test_index_matches_determinant(self):
        rng = random.Random(107)
        for _ in range(30):
            n = rng.randint(1, 4)
            M = rand_matrix(rng, n)
            d = determinant(M)
            L = SubLattice.from_generators(M)
            if d == 0:
                assert L.index_in_ambient() is None
            else:
                assert L.index_in_ambient() == abs(d)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_contains(SubLattice.full(2), (1, 2, 3))


class TestLatticeChain:
    def test_descending_containment(self):
        rng = random.Random(109)
        for _ in range(25):
            n = rng.randint(2, 4)
            A = random_unimodular(rng, n)
            chain = lattice_chain(A, 4)
            for prev, nxt in zip(chain, chain[1:]):
                for j in range(nxt.basis.cols):
                    assert prev.contains(nxt.basis.col(j))

    def test_rank_deficient_displacement(self):
        A = IntMatrix.from_rows([[1, 0], [-2, 1]])
        chain = lattice_chain(A, 3)
        assert chain[0].rank == 1
        assert chain[0].elementary_divisors() == (2,)
        # (A - E)^2 = 0, so the chain hits the zero lattice
        assert chain[1].is_zero()
        assert chain[2].is_zero()

    def test_unipotent_chain_terminates(self):
        A = IntMatrix.from_rows([[1, 1], [0, 1]])
        chain = lattice_chain(A, 3)
        assert chain[0].rank == 1
        assert chain[1].is_zero()

    def test_saturated_chain_stays_full(self):
        # det(A - E) = 1 keeps every entry equal to the whole lattice
        A = IntMatrix.from_rows([[1, 1], [-1, 0]])
        for L in lattice_chain(A, 4):
            assert L.is_full()

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            lattice_chain(IntMatrix.from_rows([[2, 0], [0, 1]]), 2)

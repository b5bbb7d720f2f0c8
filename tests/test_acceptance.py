"""End-to-end acceptance gate.

Each test here checks one headline behavior of the package at full
strength, exact arithmetic only, and prints a single summary line on
success.  Run with ``pytest -v tests/test_acceptance.py`` to see one
pass/fail line per criterion.
"""

import math
import random

from resnil.criteria import (
    LcsLength,
    certainty,
    classify_f2,
    classify_general,
    finite_index_resnil_subgroup,
    mod_p_unipotency,
    tensor_power_audit,
)
from resnil.freegroup import FreeEndo, abelianization_matrix
from resnil.intpoly import IntPoly, factor_over_Z, try_exact_div
from resnil.liealg import induced_lie_matrix, witt_dimension
from resnil.zlinalg import (
    IntMatrix,
    char_poly,
    determinant,
    kronecker_power,
    lattice_chain,
    smith_form,
)
from resnil.cli import JobSpec, run

from oracles import (
    brute_force_factor,
    library_factor_canonical,
    lyndon_words_brute,
    random_unimodular,
)

M = IntMatrix.from_rows


def companion2(det, tr):
    return M([[0, -det], [1, tr]])


def irreducible_factor_set(A):
    return {f.coeffs for f, _ in factor_over_Z(char_poly(A)).factors}


def test_01_flat_manifold_action_has_series_length_omega_squared():
    endo = FreeEndo.from_strings(["b", "a b^3"])
    A = abelianization_matrix(endo)
    assert A.to_rows() == [[0, 1], [1, 3]]
    v = classify_general(endo)
    assert v.residually_nilpotent is False
    assert v.lcs_length is LcsLength.OMEGA_SQUARED
    assert certainty(v.lcs_length) == "proven"
    recs = tensor_power_audit(A, 3)
    assert [r.k for r in recs] == [1, 2, 3]
    assert all(r.af_nilpotent for r in recs)
    print(
        "criterion 1: a->b, b->ab^3 gives [[0,1],[1,3]], not residually "
        "nilpotent, series length omega^2, tensor audit k=1..3 clean"
    )


def test_02_squared_action_becomes_residually_three_finite():
    text, v = run(JobSpec(example="mikhailov", power=2))
    assert "det A = 1; tr A = 11" in text
    assert v.residually_nilpotent is True
    assert v.p_finite_map()[3] is True
    print(
        "criterion 2: squared action has det 1, trace 11, residually "
        "3-finite"
    )


def test_03_braid_action_stops_at_the_fiber():
    A = M([[1, 1], [-1, 0]])
    assert (A.minus_identity()).to_rows() == [[0, 1], [-1, -1]]
    assert determinant(A.minus_identity()) == 1
    v = classify_f2(A)
    assert v.lcs_length is LcsLength.TWO
    assert certainty(v.lcs_length) == "proven"
    assert v.residually_nilpotent is False
    print(
        "criterion 3: [[1,1],[-1,0]] has unit displacement, series "
        "length two"
    )


def test_04_klein_bottle_braid_pair_is_residually_nilpotent():
    pair = [M([[1, 0], [-2, 1]]), M([[-1, 0], [2, 1]])]
    for B in pair:
        assert mod_p_unipotency(B, 2) == 1
    _, v = run(JobSpec(example="klein_p2"))
    assert v.residually_nilpotent is True
    assert v.p_finite_map()[2] is True
    print(
        "criterion 4: both Klein bottle action matrices vanish mod 2 "
        "at the first power; verdict residually nilpotent"
    )


def test_05_rank_two_truth_table():
    cells = 0
    for det in (1, -1):
        for tr in range(-8, 9):
            A = companion2(det, tr)
            v = classify_f2(A)
            formula = (det == 1 and tr not in (1, 3)) or (
                det == -1 and tr % 2 == 0
            )
            assert v.residually_nilpotent is formula, (det, tr)
            assert v.lcs_length in (
                LcsLength.TWO,
                LcsLength.OMEGA,
                LcsLength.OMEGA_SQUARED,
            )
            assert certainty(v.lcs_length) == "proven"
            # the three cases are mutually exclusive by construction of
            # the enum; confirm the assignment is the expected one
            if det == 1 and tr in (1, 3):
                assert v.lcs_length is LcsLength.TWO
            elif det == -1 and tr in (1, -1):
                assert v.lcs_length is LcsLength.TWO
            elif formula:
                assert v.lcs_length is LcsLength.OMEGA
            else:
                assert v.lcs_length is LcsLength.OMEGA_SQUARED
            cells += 1
    assert cells == 34
    print(
        "criterion 5: all 34 (det, tr) cells match the closed formula "
        "and the three-way series split is total and exclusive"
    )


def test_06_lie_component_factors_divide_tensor_power_factors():
    rng = random.Random(20260806)
    checked = 0
    for n, kmax, count in ((2, 4, 100), (3, 3, 20)):
        for _ in range(count):
            A = random_unimodular(rng, n)
            for k in range(1, kmax + 1):
                big = char_poly(kronecker_power(A, k))
                lie = char_poly(induced_lie_matrix(A, k))
                for f, _ in factor_over_Z(lie).factors:
                    assert try_exact_div(big, f) is not None, (
                        A.to_rows(),
                        k,
                        f.coeffs,
                    )
                checked += 1
    assert checked == 100 * 4 + 20 * 3
    print(
        "criterion 6: 100 rank-2 and 20 rank-3 random actions, every "
        "irreducible factor of the Lie component divides the tensor "
        "power characteristic polynomial"
    )


def test_07_displacement_chain_swallows_scaled_basis_vectors():
    rng = random.Random(20260807)
    for _ in range(50):
        n = rng.randint(2, 4)
        A = random_unimodular(rng, n)
        value = char_poly(A).evaluate(1)
        chain = lattice_chain(A, 5)
        for k in range(2, 6):
            L = chain[k - 2]  # entry for exponent k - 1
            scale = value ** (k - 1)
            for i in range(n):
                vec = tuple(scale if j == i else 0 for j in range(n))
                assert L.contains(vec), (A.to_rows(), k, i)
    print(
        "criterion 7: 50 random actions up to rank 4, char(A)(1)^(k-1) "
        "times each basis vector lies in the (A-E)^(k-1) lattice"
    )


def test_08_oracle_equivalences():
    rng = random.Random(20260808)
    for _ in range(500):
        deg = rng.randint(1, 4)
        cs = [rng.randint(-50, 50) for _ in range(deg)]
        lead = rng.randint(-50, 50) or 1
        f = IntPoly(cs + [lead])
        assert library_factor_canonical(f) == brute_force_factor(f)
    for n in (1, 2, 3):
        for k in range(1, 9):
            assert witt_dimension(n, k) == len(lyndon_words_brute(n, k))
    for _ in range(200):
        n = rng.randint(1, 4)
        A = M([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        sf = smith_form(A)
        assert sf.U * A * sf.V == sf.D
    print(
        "criterion 8: factorization agrees with brute force on 500 "
        "random polynomials, Witt dimensions match Lyndon enumeration "
        "for n<=3 k<=8, Smith reassembly exact on 200 random matrices"
    )


def test_09_congruence_certificates_are_consistent():
    rng = random.Random(20260809)
    hits = 0
    for _ in range(200):
        A = random_unimodular(rng, 2)
        for p in (2, 3, 5, 7):
            if mod_p_unipotency(A, p) is None:
                continue
            hits += 1
            recs = tensor_power_audit(A, 4, p=p)
            assert all(r.af_p_finite for r in recs), (A.to_rows(), p)
            assert classify_f2(A).p_finite_proven(p), (A.to_rows(), p)
    assert hits > 0
    print(
        f"criterion 9: 200 random rank-2 actions, {hits} congruence "
        "certificates, every one confirmed by the tensor audit and the "
        "closed-form prime set"
    )


def test_10_every_action_has_a_small_residually_nilpotent_power():
    for det in (1, -1):
        for tr in range(-8, 9):
            A = companion2(det, tr)
            rep = finite_index_resnil_subgroup(A)
            assert rep.sub_verdict.residually_nilpotent is True, (det, tr)
            if det == -1 and tr in (1, -1):
                assert rep.index == 4
                assert rep.power_matrix.trace() == 7
            else:
                assert rep.index in (1, 2)
            assert rep.power_matrix == A.power(rep.index)
    print(
        "criterion 10: every |tr| <= 8 action admits a residually "
        "nilpotent power of index at most 4, index 4 exactly at "
        "det=-1, tr=+-1 with power trace 7"
    )

"""Decision procedure tests: residual nilpotence and p-finiteness."""

import math
import random

import pytest

import resnil.criteria as criteria
import resnil.intpoly as intpoly
from resnil.criteria import (
    ANCHORS,
    AfResult,
    Certainty,
    LcsLength,
    Verdict,
    Witness,
    af_criterion,
    augmentation_power_check,
    classify_f2,
    classify_family,
    classify_general,
    finite_index_resnil_subgroup,
    gamma_omega_is_fiber,
    integer_eigenvalue_criterion,
    is_prime,
    lie_component_audit,
    make_witness,
    mikhailov_module_check,
    mod_p_unipotency,
    tensor_power_audit,
    _GradedFactors,
    _partitions,
)
from resnil.errors import (
    BadModulus,
    DimensionMismatch,
    NotPrime,
    NotUnimodular,
    PrimalityUnproven,
    SizeCapExceeded,
)
from resnil.freegroup import FreeEndo
from resnil.primes import MR_EXACT_BOUND, prime_divisors
from resnil.intpoly import IntPoly, factor_over_Z, from_power_sums, power_sums
from resnil.liealg import (
    induced_lie_matrix,
    lie_power_sums,
    lyndon_count,
    witt_dimension,
)
from resnil.zlinalg import (
    IntMatrix,
    char_poly,
    compound_matrix,
    determinant,
    kronecker_power,
    lattice_chain,
)

from oracles import random_unimodular, with_alarm

M = IntMatrix.from_rows


def companion2(det, tr):
    """2x2 companion matrix with the given determinant and trace."""
    return M([[0, -det], [1, tr]])


def radical(m):
    m = abs(m)
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
        for n in range(-3, 31):
            assert is_prime(n) == (n in primes)


class TestCertainty:
    def test_constructors(self):
        assert Certainty.proven().kind == "proven"
        assert Certainty.up_to_bound(4).bound == 4
        assert Certainty.unknown().bound is None

    def test_rank_ordering(self):
        assert (
            Certainty.proven().rank()
            > Certainty.up_to_bound(3).rank()
            > Certainty.unknown().rank()
        )

    def test_dict_round_trip(self):
        for c in (Certainty.proven(), Certainty.up_to_bound(7), Certainty.unknown()):
            assert Certainty.from_dict(c.to_dict()) == c

    def test_validation(self):
        with pytest.raises(ValueError):
            Certainty("maybe")
        with pytest.raises(ValueError):
            Certainty("up_to_bound")
        with pytest.raises(ValueError):
            Certainty("proven", bound=3)


class TestWitness:
    def test_make_witness_uses_citation_table(self):
        w = make_witness("fiber_stabilization", "det(A-E)=1 is a unit")
        assert w.anchor == ANCHORS["fiber_stabilization"]

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            make_witness("made_up_criterion", "x")

    def test_tampered_anchor_rejected(self):
        with pytest.raises(ValueError):
            Witness("fiber_stabilization", "wrong anchor", "x")

    def test_empty_evidence_rejected(self):
        with pytest.raises(ValueError):
            make_witness("fiber_stabilization", "")


class TestVerdictInvariants:
    def test_value_none_requires_unknown(self):
        with pytest.raises(ValueError):
            Verdict(
                residually_nilpotent=(None, Certainty.proven()),
                p_finite_all_primes=False,
                residually_p_finite=(),
                lcs_length=LcsLength.UNKNOWN,
                lcs_certainty=Certainty.unknown(),
                witnesses=(),
            )

    def test_proven_p_finiteness_forces_proven_nilpotence(self):
        with pytest.raises(ValueError):
            Verdict(
                residually_nilpotent=(False, Certainty.proven()),
                p_finite_all_primes=False,
                residually_p_finite=((3, True, Certainty.proven()),),
                lcs_length=LcsLength.UNKNOWN,
                lcs_certainty=Certainty.unknown(),
                witnesses=(),
            )

    def test_all_primes_flag_needs_proven_nilpotence(self):
        with pytest.raises(ValueError):
            Verdict(
                residually_nilpotent=(None, Certainty.unknown()),
                p_finite_all_primes=True,
                residually_p_finite=(),
                lcs_length=LcsLength.UNKNOWN,
                lcs_certainty=Certainty.unknown(),
                witnesses=(),
            )

    def test_non_prime_entry_rejected(self):
        with pytest.raises(ValueError):
            Verdict(
                residually_nilpotent=(True, Certainty.proven()),
                p_finite_all_primes=False,
                residually_p_finite=((4, True, Certainty.proven()),),
                lcs_length=LcsLength.OMEGA,
                lcs_certainty=Certainty.proven(),
                witnesses=(),
            )

    def test_duplicate_primes_rejected(self):
        with pytest.raises(ValueError):
            Verdict(
                residually_nilpotent=(True, Certainty.proven()),
                p_finite_all_primes=False,
                residually_p_finite=(
                    (3, True, Certainty.proven()),
                    (3, None, Certainty.unknown()),
                ),
                lcs_length=LcsLength.OMEGA,
                lcs_certainty=Certainty.proven(),
                witnesses=(),
            )

    def test_dict_round_trip(self):
        rng = random.Random(191)
        for _ in range(20):
            v = classify_f2(random_unimodular(rng, 2), primes=(2, 5))
            assert Verdict.from_dict(v.to_dict()) == v

    def test_entries_sorted_by_prime(self):
        v = classify_f2(companion2(1, 17), primes=(7, 2))
        ps = [p for p, _, _ in v.residually_p_finite]
        assert ps == sorted(ps)


class TestAfCriterion:
    def test_trace_three_blocks(self):
        # char x^2 - 3x - 1 evaluates to -3 at 1: no unit values
        r = af_criterion(M([[0, 1], [1, 3]]))
        assert r.nilpotent
        assert r.primes == (3,)
        assert not r.all_primes
        assert r.values() == (-3,)

    def test_sixth_root_blocks(self):
        # char x^2 - x + 1 evaluates to 1: a unit value
        r = af_criterion(M([[1, 1], [-1, 0]]))
        assert not r.nilpotent

    def test_identity_gives_every_prime(self):
        r = af_criterion(IntMatrix.identity(2))
        assert r.nilpotent
        assert r.all_primes
        assert r.primes == ()

    def test_split_spectrum(self):
        # char x^2 - 1 = (x-1)(x+1): values 0 and 2
        r = af_criterion(companion2(-1, 0))
        assert r.nilpotent
        assert not r.all_primes
        assert r.primes == (2,)
        assert r.p_finite_for(2)
        assert not r.p_finite_for(3)

    def test_gcd_radical_across_factors(self):
        rng = random.Random(193)
        for _ in range(50):
            A = random_unimodular(rng, rng.choice((2, 3)))
            r = af_criterion(A)
            nonzero = [v for v in r.values() if v]
            if not nonzero:
                assert r.all_primes
            else:
                assert r.primes == radical(math.gcd(*nonzero))

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            af_criterion(M([[2, 0], [0, 1]]))


class TestFiberCriterion:
    def test_known_cases(self):
        assert gamma_omega_is_fiber(M([[1, 1], [-1, 0]]))
        assert gamma_omega_is_fiber(companion2(1, 1))
        assert not gamma_omega_is_fiber(M([[0, 1], [1, 3]]))
        assert not gamma_omega_is_fiber(IntMatrix.identity(3))

    def test_equivalent_to_saturated_chain(self):
        rng = random.Random(197)
        for _ in range(40):
            n = rng.randint(2, 4)
            A = random_unimodular(rng, n)
            chain = lattice_chain(A, 3)
            assert gamma_omega_is_fiber(A) == all(L.is_full() for L in chain)


class TestIntegerEigenvalues:
    def test_nonlinear_factor_gives_none(self):
        assert integer_eigenvalue_criterion(M([[0, 1], [1, 3]])) is None
        assert integer_eigenvalue_criterion(M([[1, 1], [-1, 0]])) is None

    def test_unipotent_spectrum(self):
        assert integer_eigenvalue_criterion(IntMatrix.identity(3)) == (True, False)
        assert integer_eigenvalue_criterion(M([[1, 5], [0, 1]])) == (True, False)

    def test_negative_eigenvalue(self):
        assert integer_eigenvalue_criterion(M([[1, 0], [0, -1]])) == (False, True)
        assert integer_eigenvalue_criterion(companion2(-1, 0)) == (False, True)


class TestModPUnipotency:
    def test_klein_pair_trivial_mod_two(self):
        for rows in ([[1, 0], [-2, 1]], [[-1, 0], [2, 1]]):
            assert mod_p_unipotency(M(rows), 2) == 1

    def test_unipotent_needs_two_steps(self):
        assert mod_p_unipotency(M([[1, 1], [0, 1]]), 2) == 2
        assert mod_p_unipotency(M([[1, 1], [0, 1]]), 7) == 2

    def test_cubic_unipotent_mod_three(self):
        # char x^3 - 3x^2 - 1 is (x-1)^3 mod 3 but irreducible mod 2
        A = M([[0, 0, 1], [1, 0, 0], [0, 1, 3]])
        assert mod_p_unipotency(A, 3) == 3
        assert mod_p_unipotency(A, 2) is None

    def test_never_unipotent(self):
        # char (x-1)(x^2-3x+1): the quadratic factor value at 1 is -1
        A = M([[0, 0, 1], [1, 0, -4], [0, 1, 4]])
        for p in (2, 3, 5, 7, 11):
            assert mod_p_unipotency(A, p) is None

    def test_composite_modulus_rejected(self):
        with pytest.raises(NotPrime):
            mod_p_unipotency(IntMatrix.identity(2), 4)


class TestMikhailovModule:
    def test_trace_three_passes(self):
        assert mikhailov_module_check(M([[0, 1], [1, 3]]))

    def test_identity_passes(self):
        # A - E = 0 has no eigenvalue products at all, so no unit ones
        assert mikhailov_module_check(IntMatrix.identity(2))

    def test_unit_displacement_determinant_fails(self):
        # det(A - E) = -1 makes the top compound value a unit
        assert not mikhailov_module_check(companion2(1, 3))
        assert not mikhailov_module_check(companion2(1, 1))

    def test_zero_and_even_eigenvalues_pass(self):
        # A - E = diag(0, -2): products of eigenvalues are 0 and -2,
        # never a unit
        assert mikhailov_module_check(M([[1, 0], [0, -1]]))

    def test_unit_eigenvalue_in_displacement_fails(self):
        # A - E = E: already the first compound has the eigenvalue 1
        assert not mikhailov_module_check(M([[2, 0], [0, 2]]))

    def test_matches_compound_determinants(self):
        # the roots of P_(1^k)(A - E) are the eigenvalues of the compound
        # C_k(A - E): the check is det(C_k -+ E) != 0 for every k
        def by_compounds(A):
            B = A.minus_identity()
            for k in range(1, A.rows + 1):
                C = compound_matrix(B, k)
                E = IntMatrix.identity(C.rows)
                if determinant(C - E) == 0 or determinant(C + E) == 0:
                    return False
            return True

        rng = random.Random(227)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            lo = rng.choice((1, 2, 9))
            A = IntMatrix(n, n, [rng.randint(-lo, lo) for _ in range(n * n)])
            expect = by_compounds(A)
            assert mikhailov_module_check(A) == expect, A.to_rows()
            seen.add(expect)
        assert seen == {True, False}


class TestAudits:
    def test_tensor_audit_trace_three(self):
        recs = tensor_power_audit(M([[0, 1], [1, 3]]), 3, p=3)
        assert [r.k for r in recs] == [1, 2, 3]
        assert all(r.af_nilpotent for r in recs)
        assert [r.af_p_finite for r in recs] == [True, False, True]

    def test_tensor_audit_without_prime(self):
        recs = tensor_power_audit(M([[1, 1], [-1, 0]]), 4)
        assert [r.af_nilpotent for r in recs] == [False, True, False, True]
        assert all(r.af_p_finite is None for r in recs)

    def test_lie_audit_second_component(self):
        recs = lie_component_audit(M([[0, 1], [1, 3]]), 2, p=2)
        by_k = {r.k: r for r in recs}
        # degree-2 component acts by -1: char x + 1, value 2
        assert by_k[2].af_nilpotent
        assert by_k[2].af_p_finite
        assert by_k[2].af.values() == (2,)

    def test_tensor_pass_implies_lie_pass(self):
        rng = random.Random(199)
        for _ in range(25):
            A = random_unimodular(rng, 2)
            trecs = tensor_power_audit(A, 3)
            lrecs = lie_component_audit(A, 3)
            for t, l in zip(trecs, lrecs):
                assert t.k == l.k
                if t.af_nilpotent:
                    assert l.af_nilpotent

    def test_tensor_audit_cap(self):
        with pytest.raises(SizeCapExceeded):
            tensor_power_audit(IntMatrix.identity(2), 3, side_cap=4)

    def test_cap_messages_name_the_degree(self):
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 3\^2 exceeds cap 8$"):
            tensor_power_audit(IntMatrix.identity(3), 3, side_cap=8)
        # witt_dimension(3, 3) = 8
        with pytest.raises(SizeCapExceeded, match=r"^Witt dimension 8 exceeds cap 7$"):
            lie_component_audit(IntMatrix.identity(3), 3, witt_cap=7)

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            tensor_power_audit(M([[2, 0], [0, 1]]), 2)


class TestAugmentationPower:
    def test_exact_vanishing(self):
        assert augmentation_power_check([M([[1, 1], [0, 1]])], 0) == 2
        assert augmentation_power_check([IntMatrix.identity(3)], 0) == 1

    def test_klein_pair_mod_two(self):
        pair = [M([[1, 0], [-2, 1]]), M([[-1, 0], [2, 1]])]
        assert augmentation_power_check(pair, 2) == 1
        assert augmentation_power_check(pair, 4) == 2

    def test_no_contraction(self):
        assert augmentation_power_check([M([[0, 1], [1, 3]])], 3) is None
        assert augmentation_power_check([M([[0, 1], [1, 3]])], 0) is None

    def test_mixed_pair_contracts_jointly(self):
        # neither matrix alone is trivial mod 2, the pair still is
        pair = [M([[1, 2], [0, 1]]), M([[1, 0], [2, 1]])]
        assert augmentation_power_check(pair, 2) == 1

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            augmentation_power_check([IntMatrix.identity(2)], 1)
        with pytest.raises(BadModulus):
            augmentation_power_check([IntMatrix.identity(2)], -2)

    def test_mismatched_sizes(self):
        with pytest.raises(DimensionMismatch):
            augmentation_power_check(
                [IntMatrix.identity(2), IntMatrix.identity(3)], 0
            )


class TestRankTwoClassification:
    def test_nilpotence_formula_over_trace_table(self):
        for det in (1, -1):
            for tr in range(-8, 9):
                A = companion2(det, tr)
                v = classify_f2(A)
                expect = (det == 1 and tr not in (1, 3)) or (
                    det == -1 and tr % 2 == 0
                )
                assert v.residually_nilpotent == (
                    expect,
                    Certainty.proven(),
                ), (det, tr)

    def test_trichotomy_total_and_exclusive(self):
        for det in (1, -1):
            for tr in range(-8, 9):
                v = classify_f2(companion2(det, tr))
                assert v.lcs_length in (
                    LcsLength.TWO,
                    LcsLength.OMEGA,
                    LcsLength.OMEGA_SQUARED,
                )
                assert v.lcs_certainty == Certainty.proven()

    def test_series_length_cases(self):
        assert classify_f2(companion2(1, 1)).lcs_length is LcsLength.TWO
        assert classify_f2(companion2(1, 3)).lcs_length is LcsLength.TWO
        assert classify_f2(companion2(-1, 1)).lcs_length is LcsLength.TWO
        assert classify_f2(companion2(-1, -1)).lcs_length is LcsLength.TWO
        assert classify_f2(companion2(1, 0)).lcs_length is LcsLength.OMEGA
        assert classify_f2(companion2(-1, 2)).lcs_length is LcsLength.OMEGA
        assert (
            classify_f2(companion2(1, 5)).lcs_length is LcsLength.OMEGA
        )
        assert (
            classify_f2(companion2(-1, 5)).lcs_length is LcsLength.OMEGA_SQUARED
        )
        assert (
            classify_f2(companion2(1, 3)).residually_nilpotent[0] is False
        )

    def test_prime_sets(self):
        # determinant 1: primes dividing trace - 2
        assert classify_f2(companion2(1, 0)).proven_primes() == (2,)
        assert classify_f2(companion2(1, 5)).proven_primes() == (3,)
        assert classify_f2(companion2(1, 8)).proven_primes() == (2, 3)
        # unipotent trace 2: every prime
        v = classify_f2(companion2(1, 2))
        assert v.p_finite_all_primes
        # determinant -1, even trace: 2-finite
        assert classify_f2(companion2(-1, 4)).proven_primes() == (2,)

    def test_requested_prime_without_certificate_stays_unknown(self):
        v = classify_f2(companion2(1, 4), primes=(5,))
        entries = v.p_finite_map()
        assert entries[5][0] is None
        assert entries[5][1] == Certainty.unknown()
        assert entries[2][0] is True

    def test_not_nilpotent_has_no_proven_primes(self):
        for det, tr in ((1, 1), (1, 3), (-1, 5), (-1, -7)):
            v = classify_f2(companion2(det, tr))
            assert v.proven_primes() == ()


class TestVirtualSubgroup:
    def test_index_one_when_already_nilpotent(self):
        rep = finite_index_resnil_subgroup(companion2(1, 0))
        assert rep.index == 1
        assert rep.power_matrix == companion2(1, 0)

    def test_index_two_generic(self):
        rep = finite_index_resnil_subgroup(companion2(1, 1))
        assert rep.index == 2
        assert rep.power_matrix == companion2(1, 1).power(2)
        assert rep.sub_verdict.residually_nilpotent[0] is True

    def test_index_four_cases(self):
        for tr in (1, -1):
            rep = finite_index_resnil_subgroup(companion2(-1, tr))
            assert rep.index == 4
            assert rep.power_matrix.trace() == 7
            assert rep.sub_verdict.proven_primes() == (5,)

    def test_subgroup_always_resnil_on_sweep(self):
        for det in (1, -1):
            for tr in range(-8, 9):
                rep = finite_index_resnil_subgroup(companion2(det, tr))
                assert rep.sub_verdict.residually_nilpotent == (
                    True,
                    Certainty.proven(),
                )
                assert rep.power_matrix == companion2(det, tr).power(rep.index)


class TestClassifyGeneral:
    def test_rank_two_delegates(self):
        rng = random.Random(211)
        for _ in range(20):
            A = random_unimodular(rng, 2)
            g = classify_general(A)
            f = classify_f2(A)
            assert g.residually_nilpotent == f.residually_nilpotent
            assert g.lcs_length == f.lcs_length
            assert g.p_finite_all_primes == f.p_finite_all_primes

    def test_rank_three_fiber(self):
        # char x^3 - 2x^2 + x - 1 takes a unit value at 1
        A = M([[0, 0, 1], [1, 0, -1], [0, 1, 2]])
        v = classify_general(A)
        assert v.residually_nilpotent == (False, Certainty.proven())
        assert v.lcs_length is LcsLength.TWO
        assert "fiber_stabilization" in [w.criterion for w in v.witnesses]

    def test_rank_three_congruence_rescue(self):
        # not decidable from factor values alone, but unipotent mod 3
        A = M([[0, 0, 1], [1, 0, 3], [0, 1, 3]])
        v = classify_general(A)
        assert v.residually_nilpotent == (True, Certainty.proven())
        assert v.p_finite_map()[3] == (True, Certainty.proven())
        assert "congruence_unipotency" in [w.criterion for w in v.witnesses]

    def test_rank_three_open_problem(self):
        # no proven source applies: honest unknown with the open
        # problem surfaced as a witness
        A = M([[0, 0, 1], [1, 0, -4], [0, 1, 4]])
        v = classify_general(A)
        assert v.residually_nilpotent == (None, Certainty.unknown())
        assert "rank_open_problem" in [w.criterion for w in v.witnesses]

    def test_rank_three_unipotent(self):
        A = M([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        v = classify_general(A)
        assert v.residually_nilpotent == (True, Certainty.proven())
        assert v.p_finite_all_primes
        assert v.lcs_length is LcsLength.OMEGA

    def test_rank_three_negative_eigenvalue(self):
        A = M([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        v = classify_general(A)
        assert v.residually_nilpotent == (True, Certainty.proven())
        assert v.p_finite_map()[2] == (True, Certainty.proven())
        assert "integer_spectrum" in [w.criterion for w in v.witnesses]

    def test_endomorphism_input(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        v = classify_general(f)
        assert v.residually_nilpotent == (False, Certainty.proven())
        assert v.lcs_length is LcsLength.OMEGA_SQUARED

    def test_proven_primes_are_the_content_primes(self):
        # (A-E) is nilpotent mod p exactly when p divides every entry of
        # (A-E)^n, so the proven primes are those of its content
        rng = random.Random(239)
        hits = 0
        for i in range(40):
            n = 3 + i % 3
            A = random_unimodular(rng, n)
            if i % 2:
                # unitriangular times a matrix = E mod q: unipotent mod q
                q = rng.choice((2, 3, 5, 7))
                rows = [[int(r == c) for c in range(n)] for r in range(n)]
                for _ in range(4):
                    r, c = rng.sample(range(n), 2)
                    k = q * rng.choice((-2, -1, 1, 2))
                    rows[r] = [x + k * y for x, y in zip(rows[r], rows[c])]
                U = M([[rng.randint(-2, 2) if c > r else int(r == c) for c in range(n)]
                       for r in range(n)])
                A = U * M(rows)
            content = math.gcd(*A.minus_identity().power(n).entries)
            v = classify_general(A, tensor_bound=1)
            if v.p_finite_all_primes:
                continue
            assert v.proven_primes() == radical(content), A.to_rows()
            hits += bool(v.proven_primes())
        assert hits >= 10

    def test_only_content_primes_are_tried(self, monkeypatch):
        # x^3 - 5x + 1 takes -3 at 1, but 3 does not divide every entry
        # of (A-E)^3, so no unipotency certificate is sought for it
        calls = []
        unipotency = criteria.mod_p_unipotency
        monkeypatch.setattr(
            criteria, "mod_p_unipotency", lambda A, p: calls.append(p) or unipotency(A, p)
        )
        A = M([[0, 0, -1], [1, 0, 5], [0, 1, 0]])
        v = classify_general(A, tensor_bound=1)
        assert calls == [] and v.proven_primes() == ()
        v = classify_general(M([[0, 0, 1], [1, 0, 3], [0, 1, 3]]), tensor_bound=1)
        assert calls == [2, 3] and v.proven_primes() == (2, 3)

    def test_unprovable_factor_value_is_not_factored(self):
        # P, the next prime after 7 * psi_13, is too large for a
        # Miller-Rabin proof and is the only factor value at 1; it does
        # not divide every entry of (A-E)^3, so it is never factored
        P = 23219308452759211701733901
        A = M([[0, 0, -1], [1, 0, 2 + P], [0, 1, 0]])
        assert criteria._GradedFactors(A).level(1, lie=False).values() == (-P,)
        with pytest.raises(PrimalityUnproven):
            prime_divisors(P)
        v = with_alarm(10, lambda: classify_general(A))
        assert v.residually_nilpotent == (None, Certainty.unknown())
        assert v.proven_primes() == ()

    def test_every_claim_carries_a_witness_anchor(self):
        rng = random.Random(223)
        for _ in range(15):
            A = random_unimodular(rng, rng.choice((2, 3)))
            v = classify_general(A)
            assert v.witnesses
            for w in v.witnesses:
                assert w.anchor == ANCHORS[w.criterion]
                assert w.evidence


class TestClassifyFamily:
    KLEIN = [M([[1, 0], [-2, 1]]), M([[-1, 0], [2, 1]])]

    def test_klein_pair_proves_two(self):
        v = classify_family(self.KLEIN)
        assert v.residually_nilpotent == (True, Certainty.proven())
        assert v.residually_p_finite == ((2, True, Certainty.proven()),)
        assert not v.p_finite_all_primes
        assert v.lcs_length is LcsLength.UNKNOWN
        assert [(w.criterion, w.evidence) for w in v.witnesses] == [
            ("congruence_unipotency", "matrix 1: (B-E)^1 = 0 mod 2"),
            ("congruence_unipotency", "matrix 2: (B-E)^1 = 0 mod 2"),
            (
                "augmentation_contraction",
                "augmentation power 1 of the family lands in 2 times the "
                "fiber lattice",
            ),
            (
                "p_finite_implies_nilpotent",
                "residual 2-finiteness of the family implies residual "
                "nilpotence",
            ),
        ]

    def test_member_not_unipotent_mod_two_decides_nothing(self):
        v = classify_family([self.KLEIN[0], M([[1, 1], [-1, 0]])], primes=(2,))
        assert v.residually_nilpotent == (None, Certainty.unknown())
        assert v.residually_p_finite == ((2, None, Certainty.unknown()),)
        assert v.witnesses[-1].criterion == "abelian_quotient_evidence"
        assert v.witnesses[-1].evidence == (
            "family certificate incomplete; no conclusion"
        )

    def test_other_requested_primes_stay_unknown(self):
        v = classify_family(self.KLEIN, primes=(5, 2, 3))
        assert v.p_finite_map() == {
            2: (True, Certainty.proven()),
            3: (None, Certainty.unknown()),
            5: (None, Certainty.unknown()),
        }

    def test_non_prime_rejected(self):
        with pytest.raises(NotPrime):
            classify_family(self.KLEIN, primes=(2, 9))


class TestConsistencyAcrossCriteria:
    def test_congruence_certificate_matches_rank_two_primes(self):
        rng = random.Random(227)
        checked = 0
        for _ in range(120):
            A = random_unimodular(rng, 2)
            for p in (2, 3, 5, 7):
                if mod_p_unipotency(A, p) is None:
                    continue
                checked += 1
                recs = tensor_power_audit(A, 4, p=p)
                assert all(r.af_p_finite for r in recs)
                v = classify_f2(A)
                assert v.p_finite_proven(p)
        assert checked > 10

    def test_two_means_not_nilpotent(self):
        rng = random.Random(229)
        for _ in range(60):
            A = random_unimodular(rng, 2)
            v = classify_f2(A)
            if v.lcs_length is LcsLength.TWO:
                assert v.residually_nilpotent[0] is False
            if v.residually_nilpotent[0] is True:
                assert v.lcs_length is LcsLength.OMEGA


def _matrix_path(P, p):
    """Factor values, AF bit and p bit of P = char(Mk), with Mk built."""
    pairs = tuple((g, g.evaluate(1)) for g, _ in factor_over_Z(P).factors)
    vals = [v for _, v in pairs]
    p_bit = not any(vals) or p in radical(math.gcd(*vals))
    return pairs, all(abs(v) != 1 for v in vals), p_bit


class TestAuditsFromPowerSums:
    """The audit records against the char polys of the Kronecker powers
    and induced Lie matrices, which the power-sum char polys of the
    tensor and Lie levels also equal."""

    @pytest.mark.parametrize("n,K,count", [(2, 5, 4), (3, 3, 4), (4, 2, 4), (3, 4, 1)])
    def test_char_polys_and_records_match_matrix_path(self, n, K, count):
        rng = random.Random(4000 + 10 * n + K)
        dets = set()
        for i in range(count):
            A = random_unimodular(rng, n)
            if (determinant(A) == -1) != (i % 2 == 1):
                A = IntMatrix(n, n, [-e for e in A.row(0)] + list(A.entries[n:]))
            dets.add(determinant(A))
            p = (2, 3, 5)[i % 3]
            f = char_poly(A)
            trecs = tensor_power_audit(A, K, p=p)
            lrecs = lie_component_audit(A, K, p=p)
            for k in range(1, K + 1):
                T = char_poly(kronecker_power(A, k))
                assert from_power_sums([t**k for t in power_sums(f, n**k)]) == T
                L = char_poly(induced_lie_matrix(A, k))
                dim = witt_dimension(n, k)
                assert from_power_sums(lie_power_sums(power_sums(f, k * dim), k, dim)) == L
                for rec, P in ((trecs[k - 1], T), (lrecs[k - 1], L)):
                    pairs, nilpotent, p_bit = _matrix_path(P, p)
                    assert rec.k == k
                    assert rec.af.factor_values == pairs
                    assert rec.af_nilpotent == nilpotent
                    assert rec.af_p_finite == p_bit
        assert dets == ({1, -1} if count > 1 else {1})

    def test_inexact_power_sums_rejected(self):
        # 1 and 0 are the power sums of no monic integer quadratic
        with pytest.raises(ArithmeticError):
            from_power_sums([1, 0])

    def test_huge_prime_trace_ends(self):
        # the audits never factor the gcd of their factor values, so a
        # 13-digit prime in tr - 2 costs one trial division, not one per
        # graded component
        p = 1000000000039
        A = companion2(1, 2 - p)

        v, recs = with_alarm(10, lambda: (
            classify_general(A),
            tensor_power_audit(A, 4, p=p) + lie_component_audit(A, 4, p=p),
        ))
        assert v.proven_primes() == (p,)
        assert all("primes" not in vars(r.af) for r in recs)
        assert recs[0].af_p_finite


def _power_sum_path(A, K):
    """char(A^{(x)k}) from tr(A^j)^k and char(A | L_k) from Brandt's
    formula, k = 1..K: the route before orbit types."""
    n = A.rows
    f = char_poly(A)
    out = []
    for k in range(1, K + 1):
        T = from_power_sums([t**k for t in power_sums(f, n**k)])
        dim = witt_dimension(n, k)
        L = from_power_sums(lie_power_sums(power_sums(f, k * dim), k, dim))
        out.append((T, L))
    return out


class TestOrbitTypes:
    """The graded levels from one orbit polynomial P_mu per partition
    mu of k, shared by the tensor and Lie audits."""

    @pytest.mark.parametrize(
        "n,K,count", [(2, 6, 4), (3, 4, 3), (4, 3, 2), (5, 2, 2), (5, 3, 1)]
    )
    def test_records_match_power_sum_path(self, n, K, count):
        rng = random.Random(6000 + 10 * n + K)
        for i in range(count):
            A = random_unimodular(rng, n, steps=8)
            p = (2, 3, 5)[i % 3]
            trecs = tensor_power_audit(A, K, p=p)
            lrecs = lie_component_audit(A, K, p=p)
            for k, (T, L) in enumerate(_power_sum_path(A, K), 1):
                for rec, P in ((trecs[k - 1], T), (lrecs[k - 1], L)):
                    pairs, nilpotent, p_bit = _matrix_path(P, p)
                    assert rec.af.factor_values == pairs
                    assert rec.af_nilpotent == nilpotent
                    assert rec.af_p_finite == p_bit

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degree_identities(self, n):
        # at A = E every P_mu is (x-1)^deg, and the degrees with the
        # tensor and Lyndon multiplicities add up to n^k and the Witt
        # dimension
        graded = _GradedFactors(IntMatrix.identity(n))
        for k in range(1, 8):
            tensor = lie = 0
            for mu in _partitions(k, n):
                P = graded._orbit_poly(mu)
                deg = P.degree()
                symmetry = math.prod(math.factorial(mu.count(c)) for c in set(mu))
                assert deg == math.perm(n, len(mu)) // symmetry
                assert P == IntPoly((-1, 1)) ** deg
                tensor += deg * math.factorial(k) // math.prod(map(math.factorial, mu))
                lie += deg * lyndon_count(mu)
            assert tensor == n**k
            assert lie == witt_dimension(n, k)

    def test_partitions(self):
        assert len(list(_partitions(7, 7))) == 15
        assert list(_partitions(5, 2)) == [(5,), (4, 1), (3, 2)]

    def test_first_orbit_polynomial_is_char_poly(self):
        rng = random.Random(61)
        for n in (2, 3, 4, 5):
            A = random_unimodular(rng, n)
            assert _GradedFactors(A)._orbit_poly((1,)) == char_poly(A)

    def test_inexact_orbit_sums_rejected(self):
        graded = _GradedFactors(IntMatrix.identity(2))
        # t_1^2 - t_2 = -1 is not divisible by 2
        graded._traces = [1, 2, 3, 4]
        with pytest.raises(ArithmeticError):
            graded._orbit_poly((1, 1))

    def test_each_orbit_polynomial_factored_once(self, monkeypatch):
        calls = {"char_poly": 0, "factor_over_Z": []}

        def counting_char_poly(A):
            calls["char_poly"] += 1
            return char_poly(A)

        def counting_factor(P):
            calls["factor_over_Z"].append(P)
            return factor_over_Z(P)

        monkeypatch.setattr(criteria, "char_poly", counting_char_poly)
        monkeypatch.setattr(criteria, "factor_over_Z", counting_factor)
        # x^3 - 5x + 1: not a fiber action, so every stage runs
        A = M([[0, 0, -1], [1, 0, 5], [0, 1, 0]])
        classify_general(A, tensor_bound=3)
        assert calls["char_poly"] == 1
        # (1), (2), (1,1), (3), (2,1), (1,1,1)
        assert len(calls["factor_over_Z"]) == 6
        assert calls["factor_over_Z"][0] == char_poly(A)

    def test_trace_list_grows_geometrically(self, monkeypatch):
        calls = []

        def counting_power_sums(f, m):
            calls.append(m)
            return power_sums(f, m)

        monkeypatch.setattr(criteria, "power_sums", counting_power_sums)
        # rank 1: level k needs k traces, and no audit cap ever trips
        K = 1000
        classify_general(M([[-1]]), tensor_bound=K)
        assert max(calls) >= K
        assert len(calls) <= math.log2(K) + 2

    def test_rank_one_large_bound_ends(self):
        # no cap trips at rank 1; each level costs divisors up to sqrt(k)
        v = with_alarm(5, lambda: classify_general(M([[-1]]), tensor_bound=4000))
        assert isinstance(v, Verdict)

    def test_rank_two_audits_never_enter_zassenhaus(self, monkeypatch):
        # every orbit polynomial of a rank-2 action has degree <= 2
        actions = [M([[2, 1], [1, 1]]), M([[0, 1], [1, 0]])]
        expected = [classify_general(A, tensor_bound=6).to_dict() for A in actions]

        def refuse(*args):
            raise AssertionError("a rank-2 audit entered the Zassenhaus route")

        for name in ("_distinct_degree", "squarefree_decomposition", "_hensel_tree"):
            monkeypatch.setattr(intpoly, name, refuse)
        factored = []
        monkeypatch.setattr(criteria, "factor_over_Z",
                            lambda P: factored.append(P) or factor_over_Z(P))
        for A, want in zip(actions, expected):
            before = len(factored)
            assert classify_general(A, tensor_bound=6).to_dict() == want
            assert len(factored) > before

    def test_caps_checked_before_any_work(self, monkeypatch):
        def refuse(P):
            raise AssertionError("factored before the caps were checked")

        monkeypatch.setattr(criteria, "factor_over_Z", refuse)
        A = M([[0, 1], [1, 3]])
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 2\^3 exceeds cap 4$"):
            tensor_power_audit(A, 3, side_cap=4)
        # witt_dimension(2, k) = 2, 1, 2, 3, 6 for k = 1..5
        with pytest.raises(SizeCapExceeded, match=r"^Witt dimension 6 exceeds cap 5$"):
            lie_component_audit(A, 5, witt_cap=5)
        # tensor caps first, then Lie caps, whatever k trips the Lie cap
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 2\^4 exceeds cap 8$"):
            classify_general(A, tensor_bound=4, side_cap=8, witt_cap=1)
        with pytest.raises(SizeCapExceeded, match=r"^Witt dimension 2 exceeds cap 1$"):
            classify_general(A, tensor_bound=2, witt_cap=1)

    def test_no_cap_is_not_another_audit(self):
        # a missing cap is an error, never a switch to the other audit
        A = M([[0, 1], [1, 3]])
        with pytest.raises(TypeError):
            lie_component_audit(A, 2, witt_cap=None)
        with pytest.raises(TypeError):
            tensor_power_audit(A, 2, side_cap=None)


class TestPrimeExtraction:
    def test_rank_two_power_ends(self):
        # tr - 2 = 2918000611027441 = 54018521^2 stalled trial division
        A = M([[2, 1], [1, 1]]).power(37)
        d = A.trace() - 2
        v = with_alarm(1, lambda: classify_general(A))
        ps = v.proven_primes()
        assert ps == (54018521,)
        for p in ps:
            assert d % p == 0 and is_prime(p)
            while d % p == 0:
                d //= p
        assert abs(d) == 1

    def test_prime_divisors_match_trial_division(self):
        rng = random.Random(37)
        for _ in range(2000):
            m = rng.randrange(-(10**7), 10**7)
            assert prime_divisors(m) == radical(m)
        p, q = 2147483647, 2305843009213693951
        assert prime_divisors(p * q**2 * 12) == (2, 3, p, q)
        assert prime_divisors(1000003 * 1000033) == (1000003, 1000033)
        assert prime_divisors(0) == prime_divisors(1) == ()

    # psi_12 and psi_13: the least strong pseudoprimes to the first 12
    # and 13 prime bases (Sorenson and Webster 2017)
    PSI_12 = 318665857834031151167461
    PSI_13 = 3317044064679887385961981

    def test_strong_pseudoprimes(self):
        assert MR_EXACT_BOUND == self.PSI_13
        assert self.PSI_12 == 399165290221 * 798330580441
        assert not is_prime(self.PSI_12)
        assert prime_divisors(self.PSI_12) == (399165290221, 798330580441)
        # psi_13 passes every base: it is refused, never called prime
        assert self.PSI_13 == 1287836182261 * 2575672364521
        with pytest.raises(PrimalityUnproven, match=f"^cannot prove {self.PSI_13} prime"):
            is_prime(self.PSI_13)
        with pytest.raises(PrimalityUnproven):
            prime_divisors(self.PSI_13)
        with pytest.raises(PrimalityUnproven):
            classify_general(M([[1, 1], [0, 1]]), primes=[self.PSI_13])
        # a composite above the bound is still split
        assert prime_divisors(self.PSI_12 * self.PSI_13 // 2575672364521 * 4) == (
            2, 399165290221, 798330580441, 1287836182261
        )

    def test_rank_two_pseudoprime_trace(self):
        # tr - 2 = psi_12 has no factor below 1000
        v = classify_f2(M([[0, -1], [1, self.PSI_12 + 2]]))
        assert v.proven_primes() == (399165290221, 798330580441)
        # a probable prime above psi_13 is never reported as proven
        with pytest.raises(PrimalityUnproven):
            classify_f2(M([[0, -1], [1, self.PSI_13 + 2]]))
        with pytest.raises(PrimalityUnproven):
            classify_f2(M([[0, -1], [1, 2**89 + 1]]))

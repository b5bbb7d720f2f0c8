"""Decision procedure tests: residual nilpotence and p-finiteness."""

import dataclasses
import hashlib
import math
import random

import pytest

import resnil.criteria as criteria
import resnil.intpoly as intpoly
from resnil.criteria import (
    ANCHORS,
    AfResult,
    LcsLength,
    Verdict,
    Witness,
    af_criterion,
    augmentation_power_check,
    certainty,
    classify_f2,
    classify_family,
    classify_general,
    finite_index_resnil_subgroup,
    gamma_omega_is_fiber,
    integer_eigenvalue_criterion,
    is_prime,
    lie_component_audit,
    mikhailov_module_check,
    mod_p_unipotency,
    tensor_power_audit,
    _GradedFactors,
    _audit_witnesses,
    _dual,
    _level_types,
    _orbit_poly,
    _orbit_sums,
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
from resnil.cli import main
from resnil.intpoly import (
    IntPoly,
    factor_over_Z,
    from_power_sums,
    has_symmetric_galois_group,
    power_sums,
)
from resnil.liealg import (
    induced_lie_matrix,
    lyndon_count,
    witt_dimension,
)
from resnil.zlinalg import (
    IntMatrix,
    char_poly,
    determinant,
    kronecker_power,
    lattice_chain,
)

from oracles import (
    brandt_power_sums,
    compound_by_minors,
    random_unimodular,
    unit_kronecker_product,
    with_alarm,
)

M = IntMatrix.from_rows


def companion2(det, tr):
    """2x2 companion matrix with the given determinant and trace."""
    return M([[0, -det], [1, tr]])


def _block_triangular(rng, n):
    """A random unimodular n x n matrix, block upper triangular with
    random unimodular diagonal blocks of random sizes."""
    rows = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = rng.randint(1, n - start)
        if size == 1:
            block = M([[rng.choice([1, -1])]])
        else:
            block = random_unimodular(rng, size, steps=rng.randint(2, 8))
        for i in range(size):
            rows[start + i][start : start + size] = block.row(i)
            for j in range(start + size, n):
                rows[start + i][j] = rng.randint(-2, 2)
        start += size
    return M(rows)


def _signed_block_action(rng, n):
    """A unimodular n x n block upper triangular action whose diagonal
    blocks are +-1 entries, each sign repeated one to three times, and
    random unimodular blocks of size 2 or 3, with random entries above
    the blocks."""
    blocks = []
    while sum(b.rows for b in blocks) < n:
        room = n - sum(b.rows for b in blocks)
        if room >= 2 and rng.random() < 0.5:
            size = rng.randint(2, min(3, room))
            blocks.append(random_unimodular(rng, size, steps=rng.randint(3, 8)))
        else:
            blocks += [M([[rng.choice([1, -1])]])] * min(rng.randint(1, 3), room)
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    start = 0
    for b in blocks:
        for i in range(b.rows):
            rows[start + i][:start] = [0] * start
            rows[start + i][start : start + b.rows] = b.row(i)
        start += b.rows
    return M(rows)


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

    def test_below_and_above_43_squared(self):
        # below 1849 = 43^2 trial division by the bases decides alone
        for n in range(-3, 5000):
            assert is_prime(n) == (n > 1 and radical(n) == (n,)), n


def _decided():
    # resnil True, lcs omega, p = 3 and 5 proven, p = 2 unknown
    return classify_f2(companion2(1, 17), primes=(2, 3))


def _undecided():
    # resnil and lcs unknown
    return classify_general(M([[0, 0, 1], [1, 0, -4], [0, 1, 4]]), 2, primes=(2,))


def _refused(verdict, path, value):
    """from_dict accepts verdict's document as written and refuses it
    with doc[path...] set to value."""
    doc = verdict.to_dict()
    assert Verdict.from_dict(doc) == verdict
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        Verdict.from_dict(doc)


def _certainty_doc(kind, bound=None):
    return {"kind": kind, "bound": bound}


class TestCertainty:
    def test_certainty_of_each_value(self):
        assert certainty(True) == "proven"
        assert certainty(False) == "proven"
        assert certainty(None) == "unknown"
        for lcs in LcsLength:
            expect = "unknown" if lcs is LcsLength.UNKNOWN else "proven"
            assert certainty(lcs) == expect

    def test_dict_round_trip(self):
        # the certainty objects are written from the values
        doc = _decided().to_dict()
        assert doc["residually_nilpotent"]["certainty"] == _certainty_doc("proven")
        assert doc["lcs_certainty"] == _certainty_doc("proven")
        assert [e["certainty"] for e in doc["residually_p_finite"]] == [
            _certainty_doc("unknown"),
            _certainty_doc("proven"),
            _certainty_doc("proven"),
        ]
        doc = _undecided().to_dict()
        assert doc["residually_nilpotent"]["certainty"] == _certainty_doc("unknown")
        assert doc["lcs_certainty"] == _certainty_doc("unknown")
        for v in (_decided(), _undecided()):
            assert Verdict.from_dict(v.to_dict()) == v
            assert Verdict.from_dict(v.to_dict()).to_dict() == v.to_dict()

    def test_validation(self):
        # a non-null bound, or a kind that is neither proven nor unknown
        v = _decided()
        _refused(v, ["residually_nilpotent", "certainty", "bound"], 3)
        _refused(v, ["residually_p_finite", 1, "certainty", "bound"], 3)
        _refused(v, ["lcs_certainty", "bound"], 3)
        _refused(v, ["residually_nilpotent", "certainty", "kind"], "maybe")
        _refused(v, ["lcs_certainty"], _certainty_doc("up_to_bound", 3))

    def test_verdict_document_with_a_bound_is_refused(self):
        doc = classify_f2(M([[2, 1], [1, 1]]), primes=(5,)).to_dict()
        assert Verdict.from_dict(doc).to_dict() == doc
        doc["residually_p_finite"][0]["certainty"] = {"kind": "up_to_bound", "bound": 3}
        with pytest.raises(ValueError):
            Verdict.from_dict(doc)


class TestWitness:
    def test_anchor_comes_from_citation_table(self):
        for criterion, anchor in ANCHORS.items():
            assert Witness(criterion, "evidence").anchor == anchor

    def test_anchor_is_not_stored(self):
        names = [f.name for f in dataclasses.fields(Witness)]
        assert names == ["criterion", "evidence"]

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            Witness("made_up_criterion", "x")

    def test_tampered_anchor_rejected(self):
        _refused(_decided(), ["witnesses", 0, "anchor"], "wrong anchor")

    def test_empty_evidence_rejected(self):
        with pytest.raises(ValueError):
            Witness("fiber_stabilization", "")


class TestVerdictInvariants:
    def test_value_none_requires_unknown(self):
        # a document whose certainty kind does not fit its value
        v, u = _decided(), _undecided()
        _refused(v, ["residually_nilpotent", "certainty", "kind"], "unknown")
        _refused(u, ["residually_nilpotent", "certainty", "kind"], "proven")
        _refused(v, ["residually_p_finite", 1, "certainty", "kind"], "unknown")
        _refused(v, ["residually_p_finite", 0, "certainty", "kind"], "proven")
        _refused(u, ["lcs_certainty", "kind"], "proven")
        # a known series length under an unknown certainty
        _refused(v, ["lcs_certainty", "kind"], "unknown")

    def test_value_types_checked(self):
        # a claim that is not true, false or null (its certainty works out
        # as proven), a p that is not an int, an all-primes flag that is
        # not a bool
        v = _decided()
        assert v.residually_p_finite[1] == (3, True)
        for value in (1, 0, "yes"):
            _refused(v, ["residually_nilpotent", "value"], value)
            _refused(v, ["residually_p_finite", 1, "value"], value)
        for p in ("3", 3.0, True):
            _refused(v, ["residually_p_finite", 1, "p"], p)
        for flag in (0, 1, "false", None):
            _refused(v, ["p_finite_all_primes"], flag)

    def test_proven_p_finiteness_forces_proven_nilpotence(self):
        with pytest.raises(ValueError):
            Verdict(False, False, ((3, True),), LcsLength.UNKNOWN, ())
        with pytest.raises(ValueError):
            Verdict(None, False, ((3, True),), LcsLength.UNKNOWN, ())

    def test_all_primes_flag_needs_proven_nilpotence(self):
        with pytest.raises(ValueError):
            Verdict(None, True, (), LcsLength.UNKNOWN, ())

    def test_series_length_two_forces_non_nilpotence(self):
        with pytest.raises(ValueError):
            Verdict(None, False, (), LcsLength.TWO, ())
        assert Verdict(False, False, ((2, False),), LcsLength.TWO, ()).proven_primes() == ()

    def test_non_prime_entry_rejected(self):
        with pytest.raises(ValueError):
            Verdict(True, False, ((4, True),), LcsLength.OMEGA, ())

    def test_duplicate_primes_rejected(self):
        with pytest.raises(ValueError):
            Verdict(True, False, ((3, True), (3, None)), LcsLength.OMEGA, ())

    def test_dict_round_trip(self):
        rng = random.Random(191)
        for _ in range(20):
            v = classify_f2(random_unimodular(rng, 2), primes=(2, 5))
            assert Verdict.from_dict(v.to_dict()) == v

    def test_entries_sorted_by_prime(self):
        v = classify_f2(companion2(1, 17), primes=(7, 2))
        ps = [p for p, _ in v.residually_p_finite]
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
                C = compound_by_minors(B, k)
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

    def test_empty_lie_level_has_every_prime(self):
        # L_k = 0 at rank 1 for k >= 2: no factor, so every prime divides
        # all of the (no) values, though A = (-1) is not unipotent
        recs = lie_component_audit(M([[-1]]), 3, p=3)
        assert [r.af.factor_values for r in recs] == [((IntPoly((1, 1)), 2),), (), ()]
        for r in recs[1:]:
            assert r.af.all_primes and r.af_p_finite and r.af_nilpotent

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

    def test_no_search_bound(self):
        # (3 - 1)^l = 2^l: zero mod 2^70 first at l = 70, never mod 3 * 2^70
        assert augmentation_power_check([M([[3]])], 2**70) == 70
        assert augmentation_power_check([M([[3]])], 3 * 2**70) is None

    def test_exact_search_stops_after_n_plus_one_steps(self, monkeypatch):
        passes = []
        from_generators = criteria.SubLattice.from_generators

        def counted(gens):
            passes.append(gens)
            return from_generators(gens)

        monkeypatch.setattr(criteria.SubLattice, "from_generators", counted)
        assert augmentation_power_check([M([[3]])], 0) is None
        assert len(passes) <= 2

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
                assert v.residually_nilpotent is expect, (det, tr)

    def test_trichotomy_total_and_exclusive(self):
        for det in (1, -1):
            for tr in range(-8, 9):
                v = classify_f2(companion2(det, tr))
                assert v.lcs_length in (
                    LcsLength.TWO,
                    LcsLength.OMEGA,
                    LcsLength.OMEGA_SQUARED,
                )
                assert certainty(v.lcs_length) == "proven"

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
            classify_f2(companion2(1, 3)).residually_nilpotent is False
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
        assert entries[5] is None
        assert entries[2] is True

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
        assert rep.sub_verdict.residually_nilpotent is True

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
                assert rep.sub_verdict.residually_nilpotent is True
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
        assert v.residually_nilpotent is False
        assert v.lcs_length is LcsLength.TWO
        assert "fiber_stabilization" in [w.criterion for w in v.witnesses]

    def test_rank_three_congruence_rescue(self):
        # not decidable from factor values alone, but unipotent mod 3
        A = M([[0, 0, 1], [1, 0, 3], [0, 1, 3]])
        v = classify_general(A)
        assert v.residually_nilpotent is True
        assert v.p_finite_map()[3] is True
        assert "congruence_unipotency" in [w.criterion for w in v.witnesses]

    def test_rank_three_open_problem(self):
        # no proven source applies: honest unknown with the open
        # problem surfaced as a witness
        A = M([[0, 0, 1], [1, 0, -4], [0, 1, 4]])
        v = classify_general(A)
        assert v.residually_nilpotent is None
        assert "rank_open_problem" in [w.criterion for w in v.witnesses]

    def test_rank_three_unipotent(self):
        A = M([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        v = classify_general(A)
        assert v.residually_nilpotent is True
        assert v.p_finite_all_primes
        assert v.lcs_length is LcsLength.OMEGA

    def test_rank_three_negative_eigenvalue(self):
        A = M([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        v = classify_general(A)
        assert v.residually_nilpotent is True
        assert v.p_finite_map()[2] is True
        assert "integer_spectrum" in [w.criterion for w in v.witnesses]

    def test_endomorphism_input(self):
        f = FreeEndo.from_strings(["b", "a b^3"])
        v = classify_general(f)
        assert v.residually_nilpotent is False
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
        assert v.residually_nilpotent is None
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

    def test_caps_checked_before_char_poly(self):
        # the 64x64 product is over the side cap at the default K = 3;
        # factoring char(A) before the caps ran past 60 s.  char(A) itself
        # is formed at the unimodularity check, before the caps
        A = M(unit_kronecker_product(range(3, 9)))
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 64\^3 exceeds cap 4096$"):
            with_alarm(5, lambda: classify_general(A))

    def test_caps_checked_before_the_graded_factors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("worked on an input over the caps")

        monkeypatch.setattr(criteria, "_GradedFactors", refuse)
        monkeypatch.setattr(criteria, "classify_f2", refuse)
        # det(A - E) = -3 at rank 20, so no fiber; 20^3 > 4096
        A = companion(IntPoly([-1, -3] + [0] * 18 + [1]))
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 20\^3 exceeds cap 4096$"):
            classify_general(A)
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 2\^13 exceeds cap 4096$"):
            classify_general(M([[2, 1], [1, 1]]), tensor_bound=13)

    def test_non_integral_entries_refused(self):
        # 1.9 used to be stored as 1: a proven verdict about [[1,1],[0,1]]
        with pytest.raises(TypeError, match=r"^non-integer value 1\.9$"):
            classify_general(M([[1.9, 1], [0, 1]]))

    def test_bound_checked_before_the_primes(self):
        with pytest.raises(ValueError, match="^bound K must be at least 1$"):
            classify_general(M([[2, 1], [1, 1]]), tensor_bound=0, primes=[4])
        with pytest.raises(NotPrime):
            classify_general(M([[2, 1], [1, 1]]), primes=[4])

    # every entry point that takes one action matrix, and classify_family
    RANK_ZERO_CALLS = {
        "classify_general": lambda Z0: classify_general(Z0),
        "classify_general_endo": lambda Z0: classify_general(FreeEndo.identity(0)),
        "classify_f2": lambda Z0: classify_f2(Z0),
        "classify_family": lambda Z0: classify_family([Z0]),
        "finite_index_resnil_subgroup": lambda Z0: finite_index_resnil_subgroup(Z0),
        "af_criterion": lambda Z0: af_criterion(Z0),
        "gamma_omega_is_fiber": lambda Z0: gamma_omega_is_fiber(Z0),
        "integer_eigenvalue_criterion": lambda Z0: integer_eigenvalue_criterion(Z0),
        "mod_p_unipotency": lambda Z0: mod_p_unipotency(Z0, 2),
        "mikhailov_module_check": lambda Z0: mikhailov_module_check(Z0),
        "tensor_power_audit": lambda Z0: tensor_power_audit(Z0, 2),
        "lie_component_audit": lambda Z0: lie_component_audit(Z0, 2),
    }

    @pytest.mark.parametrize("entry", RANK_ZERO_CALLS)
    def test_rank_zero_refused(self, entry):
        # the group of a 0x0 action is Z, which is residually nilpotent;
        # the empty det(A - E) = 1 once read as a proven length two
        with pytest.raises(DimensionMismatch, match=r"^matrix is 0x0"):
            self.RANK_ZERO_CALLS[entry](IntMatrix(0, 0, []))

    def test_bounds_follow_the_integer_rule(self):
        # K and the caps read True as 1 and 2.0 as 2; a bound of True
        # used to be reported as "verified up to bound True"
        A = M([[2, 1], [1, 1]])
        v = classify_general(A, tensor_bound=True)
        assert v.to_dict() == classify_general(A, tensor_bound=1).to_dict()
        assert v.witnesses[-1].evidence.endswith("; verified up to bound 1")
        assert (
            classify_general(A, tensor_bound=2.0, side_cap=16.0, witt_cap=8.0).to_dict()
            == classify_general(A, tensor_bound=2).to_dict()
        )
        assert tensor_power_audit(A, True) == tensor_power_audit(A, 1)
        assert lie_component_audit(A, 2.0, witt_cap=2.0) == lie_component_audit(A, 2)
        with pytest.raises(SizeCapExceeded, match=r"^Kronecker power side 2\^1 exceeds cap 1$"):
            tensor_power_audit(A, True, side_cap=True)
        with pytest.raises(SizeCapExceeded, match=r"^Witt dimension 2 exceeds cap 1$"):
            lie_component_audit(A, 1, witt_cap=True)
        for kwargs in ({"tensor_bound": 2.5}, {"side_cap": 2.5}, {"witt_cap": 2.5}):
            with pytest.raises(TypeError, match=r"^non-integer value 2\.5$"):
                classify_general(A, **kwargs)
        with pytest.raises(TypeError, match=r"^non-integer value 2\.5$"):
            tensor_power_audit(A, 2.5)
        with pytest.raises(TypeError, match=r"^non-integer value 2\.5$"):
            lie_component_audit(A, 2, witt_cap=2.5)


class TestClassifyFamily:
    KLEIN = [M([[1, 0], [-2, 1]]), M([[-1, 0], [2, 1]])]

    def test_klein_pair_proves_two(self):
        v = classify_family(self.KLEIN)
        assert v.residually_nilpotent is True
        assert v.residually_p_finite == ((2, True),)
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
        assert v.residually_nilpotent is None
        assert v.residually_p_finite == ((2, None),)
        assert v.witnesses[-1].criterion == "abelian_quotient_evidence"
        assert v.witnesses[-1].evidence == (
            "family certificate incomplete; no conclusion"
        )

    def test_other_requested_primes_stay_unknown(self):
        v = classify_family(self.KLEIN, primes=(5, 2, 3))
        assert v.p_finite_map() == {2: True, 3: None, 5: None}

    def test_non_prime_rejected(self):
        with pytest.raises(NotPrime):
            classify_family(self.KLEIN, primes=(2, 9))

    def test_contraction_makes_every_member_unipotent_mod_two(self):
        # every length-N product of the (B_i - E) vanishing mod 2 makes
        # each B_i - E nilpotent mod 2, so the contraction alone decides
        rng = random.Random(331)
        contracted = 0
        for _ in range(1000):
            n = rng.choice((2, 3))
            mats = [
                M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                for _ in range(rng.randint(1, 3))
            ]
            if augmentation_power_check(mats, 2) is None:
                continue
            contracted += 1
            for B in mats:
                N = mod_p_unipotency(B, 2)
                assert N is not None and N <= n, mats
            assert classify_family(mats).residually_nilpotent is True
        assert contracted >= 50


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
                assert v.residually_nilpotent is False
            if v.residually_nilpotent is True:
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
                assert from_power_sums(brandt_power_sums(power_sums(f, k * dim), k, dim)) == L
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
        L = from_power_sums(brandt_power_sums(power_sums(f, k * dim), k, dim))
        out.append((T, L))
    return out


def _factor_sets_agree(graded, K):
    # irreducibles(mu) is the factor set of P_mu for every mu of k <= K;
    # returns the number of mu of degree above 4 when char(A) is a
    # certified S_n block
    certified = 0
    for k in range(1, K + 1):
        for mu in _partitions(k, graded.n):
            P = _orbit_poly(graded.char, mu)
            assert graded.irreducibles(mu) == tuple(g for g, _ in factor_over_Z(P).factors)
            certified += P.degree() > 4 and _groups(graded).get(graded.char) == "S_n"
    return certified


def _groups(graded):
    # each block's Galois group as _group left it, "?" where it was never asked
    return {f: block.group for f, block in graded._blocks.items()}


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
                P = _orbit_poly(graded.char, mu)
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
            assert _orbit_poly(char_poly(A), (1,)) == char_poly(A)

    def test_inexact_orbit_sums_rejected(self):
        # t_1^2 - t_2 = -1 is not divisible by 2
        with pytest.raises(ArithmeticError):
            _orbit_sums((1, 1), [1, 2, 3, 4], 1)

    def test_each_orbit_polynomial_factored_once(self, monkeypatch, reductions):
        calls = []

        def counting_factor(P):
            calls.append(P)
            return factor_over_Z(P)

        built = []
        piece = _GradedFactors._piece

        def recording_piece(graded, key):
            built.append(key)
            return piece(graded, key)

        monkeypatch.setattr(criteria, "factor_over_Z", counting_factor)
        monkeypatch.setattr(_GradedFactors, "_piece", recording_piece)
        # x^3 - 5x + 1: not a fiber action, so every stage runs
        A = M([[0, 0, -1], [1, 0, 5], [0, 1, 0]])
        classify_general(A, tensor_bound=3)
        factored = calls[:]
        f = char_poly(A)
        # A is reduced once, for det A, det(A - E) and char(A); the one
        # other reduction is _group's Hankel matrix of power sums, for
        # disc f
        s = [3] + power_sums(f, 4)
        assert reductions == [A, M([s[i : i + 3] for i in range(3)])]
        assert A.minus_identity() not in reductions
        # P_(1,1) and P_(1,1,1) come from their duals (1) and (), so only
        # P_(2), P_(3) and P_(2,1) are built, each once
        assert built == [((f, mu),) for mu in [(2,), (3,), (2, 1)]]
        # char(A) first, then every built P_mu but P_(2,1): of degree 6,
        # it is one irreducible, since disc f = 473 is not a square, so
        # the Galois group of the cubic f is S_3
        graded = _GradedFactors(A)
        assert graded.irreducibles((1,)) == (f,)
        skipped = piece(graded, ((f, (2, 1)),))
        assert factored == [f] + [
            piece(graded, key) for key in built if key != ((f, (2, 1)),)
        ]
        assert graded.irreducibles((2, 1)) == (skipped,)
        assert factor_over_Z(skipped).factors == ((skipped, 1),)

    def test_pieces_give_the_factors_of_the_whole(self):
        # block-triangular unimodular A: char(A) has several distinct
        # factors, often repeated; the factors of the pieces of P_mu from
        # those blocks are the factors of P_mu itself
        rng = random.Random(6151)

        def check():
            split = 0
            for _ in range(120):
                A = _block_triangular(rng, rng.randint(2, 5))
                graded = _GradedFactors(A)
                split += len(factor_over_Z(graded.char).factors) > 1
                _factor_sets_agree(graded, 3)
            assert split > 60

        with_alarm(60, check)

    def test_every_route_gives_the_factors_of_the_whole(self, monkeypatch):
        # block-triangular actions with repeated +-1 blocks: each of the
        # four routes (signs only, one nonlinear block, the dual, a
        # combined piece) is taken, and irreducibles(mu) is always the
        # factor set of P_mu built whole
        routes = {"signs": 0, "one block": 0, "dual": 0, "combined": 0}
        local = _GradedFactors._local_factors

        def counting_local(graded, key):
            routes[("signs", "one block")[len(key)] if len(key) < 2 else "combined"] += 1
            return local(graded, key)

        monkeypatch.setattr(_GradedFactors, "_local_factors", counting_local)
        rng = random.Random(6301)

        def check():
            for i in range(100):
                n = 2 + i % 5
                graded = _GradedFactors(_signed_block_action(rng, n))
                for k in range(1, (6 if n == 2 else 4) + 1):
                    for mu in _partitions(k, n):
                        # P_mu with a smaller dual is read from the dual's factors
                        routes["dual"] += sum(_dual(mu, n)) < sum(mu)
                        whole = factor_over_Z(_orbit_poly(graded.char, mu)).factors
                        assert graded.irreducibles(mu) == tuple(g for g, _ in whole)

        with_alarm(60, check)
        assert all(routes.values()), routes

    def test_pieces_stay_small(self, monkeypatch):
        # x^4 - 2x + 1 = (x - 1)(x^3 + x^2 + x - 1): the linear block only
        # signs the roots, and the cubic's local P_(2,1), of degree 6, is
        # one irreducible (its discriminant -44 is not a square), so after
        # char(A) nothing above degree 3 is factored
        factored = []

        def recording(P):
            factored.append(P)
            return factor_over_Z(P)

        monkeypatch.setattr(criteria, "factor_over_Z", recording)
        A = M([[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert char_poly(A) == IntPoly([1, -2, 0, 0, 1])
        with_alarm(10, lambda: classify_general(A, tensor_bound=3))
        assert factored[0] == char_poly(A)
        assert len(factored) > 1 and max(P.degree() for P in factored[1:]) <= 3

    def test_trace_list_grows_geometrically(self, monkeypatch):
        calls = []

        def counting_power_sums(f, m):
            calls.append(m)
            return power_sums(f, m)

        monkeypatch.setattr(criteria, "power_sums", counting_power_sums)
        # rank 2 with the caps lifted: P_(k) of the irreducible block
        # needs 2k traces at level k; every P_(i,j) comes from its dual
        K = 256
        A = M([[2, 1], [1, 1]])
        with_alarm(30, lambda: classify_general(
            A, tensor_bound=K, side_cap=2**K, witt_cap=2**K
        ))
        assert max(calls) >= 2 * K
        assert len(calls) <= math.log2(2 * K) + 2

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


class TestAuditBits:
    """One bit per orbit type: unit_free(mu) tells whether some
    irreducible factor of P_mu has the value +-1 at 1.  A type with a
    smaller dual reads it from the dual's factors g at s = det^(mu_1)."""

    # (rank, K, actions): K up to 7 at ranks 1-2, 4 at rank 3, 3 at rank 4
    CASES = [(1, 7, 2), (2, 7, 30), (3, 4, 20), (4, 3, 12)]

    @staticmethod
    def _actions(n, count, rng):
        if n == 1:
            return [M([[1]]), M([[-1]])]
        return [random_unimodular(rng, n, steps=8) for _ in range(count)]

    def test_bits_match_factored_orbit_polynomials(self):
        rng = random.Random(2501)
        reached = {"s=-1": 0, "empty dual": 0, "det=-1": 0}
        for n, K, count in self.CASES:
            for A in self._actions(n, count, rng):
                graded = _GradedFactors(A)
                f = char_poly(A)
                det = (-1) ** n * f.constant()
                reached["det=-1"] += det == -1
                for k in range(1, K + 1):
                    for mu, _ in _level_types(k, n):
                        factors = factor_over_Z(_orbit_poly(f, mu)).factors
                        assert graded.unit_free(mu) == all(
                            abs(g.evaluate(1)) != 1 for g, _ in factors
                        ), (A, mu)
                        dual = _dual(mu, n)
                        if sum(dual) < sum(mu):
                            reached["empty dual"] += not dual
                            reached["s=-1"] += bool(dual) and det ** mu[0] == -1
        # both dual branches and both determinants are met
        assert all(reached.values()), reached

    def test_witness_bits_match_levels(self):
        rng = random.Random(2502)
        for n, K, count in self.CASES:
            for A in self._actions(n, count, rng):
                tensor, lie = _audit_witnesses(_GradedFactors(A), K)
                graded = _GradedFactors(A)
                for w, is_lie in ((tensor, False), (lie, True)):
                    bits = ", ".join(
                        f"k={k} {'pass' if graded.level(k, is_lie).nilpotent else 'fail'}"
                        for k in range(1, K + 1)
                    )
                    assert bits in w.evidence, (A, w.evidence)

    def test_determinant_minus_one_reads_g_at_minus_one(self):
        # det A = -1: P_(3,1) comes from its dual P_(2) = x^2 - 3x + 1 at
        # s = (-1)^3, so its factor has the value +-g(-1) = +-5 at 1, and
        # level 4 passes although g(1) = -1 is a unit
        A = M([[-1, 1], [1, 0]])
        graded = _GradedFactors(A)
        g = IntPoly((1, -3, 1))
        assert graded.irreducibles((2,)) == (g,)
        assert (g.evaluate(1), g.evaluate(-1)) == (-1, 5)
        assert _dual((3, 1), 2) == (2,)
        assert not graded.unit_free((2,))
        assert graded.unit_free((3, 1))
        tensor, lie = (w.evidence for w in classify_general(A, tensor_bound=4).witnesses[-2:])
        assert tensor == (
            "af-nilpotence on tensor powers: k=1 fail, k=2 fail, k=3 fail, "
            "k=4 pass; verified up to bound 4"
        )
        assert lie == (
            "af-nilpotence on Lie components: k=1 fail, k=2 pass, k=3 fail, "
            "k=4 pass; verified up to bound 4"
        )


def companion(f):
    """The companion matrix of the monic polynomial f, so char(A) = f."""
    n = f.degree()
    return M([[int(i == j + 1) for j in range(n - 1)] + [-f.coeffs[i]] for i in range(n)])


class TestSymmetricGalois:
    """When the Galois group of an irreducible char(A) is S_n, every P_mu
    is a power of one irreducible, so a P_mu that is squarefree is not
    factored."""

    def test_certified_route_matches_factoring(self):
        rng = random.Random(6271)

        def check():
            certified = cases = 0
            while cases < 24:
                n = 3 + cases % 5
                f = IntPoly(
                    [rng.choice([1, -1])] + [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
                )
                if factor_over_Z(f).factors != ((f, 1),):
                    continue
                cases += 1
                # at rank 7 the reference factoring of P_(2,1,1), of degree
                # 105, can take half a minute, so rank 7 stops at k = 3
                certified += _factor_sets_agree(_GradedFactors(companion(f)), 4 if n < 7 else 3)
            assert certified > 0

        with_alarm(60, check)

    @pytest.mark.parametrize(
        "coeffs,group",
        [([-1, -3, 0, 1], "C3"), ([1, 1, 1, 1, 1], "C4"), ([-1, 0, -1, 0, 1], "D4")],
    )
    def test_smaller_groups_are_factored(self, coeffs, group):
        f = IntPoly(coeffs)
        graded = _GradedFactors(companion(f))

        def check():
            assert not has_symmetric_galois_group(f)
            assert _factor_sets_agree(graded, 4) == 0

        with_alarm(10, check)
        if group == "C3":
            # the six roots a_i^2 a_j fall into two Galois orbits
            assert [g.degree() for g in graded.irreducibles((2, 1))] == [3, 3]

    def test_signed_spectrum_factors_only_its_char_poly(self, monkeypatch):
        # the eigenvalues of [[0, -1], [-1, 0]] are 1 and -1: every P_mu
        # follows from signs and duality
        factored = []
        monkeypatch.setattr(criteria, "factor_over_Z",
                            lambda P: factored.append(P) or factor_over_Z(P))
        A = M([[0, -1], [-1, 0]])
        with_alarm(10, lambda: classify_general(A, tensor_bound=6))
        assert factored == [char_poly(A)]

    @staticmethod
    def _refuse(*args):
        raise AssertionError("the prime scan ran")

    def test_square_discriminant_is_not_scanned(self, monkeypatch):
        # disc(x^3 - 3x - 1) = 81 puts its group inside A_3
        monkeypatch.setattr(criteria, "has_symmetric_galois_group", self._refuse)
        f = IntPoly([-1, -3, 0, 1])
        graded = _GradedFactors(companion(f))
        assert with_alarm(10, lambda: _factor_sets_agree(graded, 4)) == 0
        assert _groups(graded) == {f: "A_3"}

    def test_cubic_certified_by_its_discriminant(self, monkeypatch):
        # disc(x^3 - 5x + 1) = 473 is not a square, so its group is S_3
        monkeypatch.setattr(criteria, "has_symmetric_galois_group", self._refuse)
        monkeypatch.setattr(intpoly, "_squarefree_primes", self._refuse)
        f = IntPoly([1, -5, 0, 1])
        graded = _GradedFactors(companion(f))
        P = _orbit_poly(graded.char, (2, 1))
        assert with_alarm(5, lambda: graded.irreducibles((2, 1))) == (P,)
        assert _groups(graded) == {f: "S_n"}
        monkeypatch.undo()
        assert factor_over_Z(P).factors == ((P, 1),)

    @pytest.mark.parametrize("coeffs", [[1, -5, 0, 0, 1], [1, -1, 1, 1]])
    def test_symmetric_groups_are_certified(self, coeffs):
        assert with_alarm(5, lambda: has_symmetric_galois_group(IntPoly(coeffs)))

    def test_certificate_needs_degree_three(self):
        for coeffs in ([1, 1, 1], [1, 1, 0, 2]):
            with pytest.raises(ValueError):
                has_symmetric_galois_group(IntPoly(coeffs))

    @staticmethod
    def _rank_wall(n, argv, capsys):
        # the companion of x^n - 5x + 1, whose Galois group is S_n
        A = companion(IntPoly([1, -5] + [0] * (n - 2) + [1]))
        code = main(["--matrix", str(A.to_rows()).replace(" ", "")] + argv)
        return code, capsys.readouterr().out

    def test_rank_thirteen_ends(self, monkeypatch, capsys):
        # factored, P_(1,1,1), of degree 286, ran past 60 s in
        # recombination
        degrees = []
        monkeypatch.setattr(criteria, "factor_over_Z",
                            lambda P: degrees.append(P.degree()) or factor_over_Z(P))
        code, _ = with_alarm(5, lambda: self._rank_wall(13, ["--cap", "100000"], capsys))
        assert code == 0
        assert max(degrees) <= 13

    def test_rank_twelve_report_unchanged(self, capsys):
        # sha256 of the report as the factoring route printed it, in 6 s
        code, out = with_alarm(5, lambda: self._rank_wall(12, ["--cap", "100000"], capsys))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3dd579b1f8bb9c57cb3822eb9ed3723dba1ac0d3ce8b1d3b8c84b538d91f043c"
        )


def _block_action(rng, blocks):
    """Block upper triangular action whose diagonal blocks are the
    companions of the monic blocks, entries above them seeded in
    {-1, 0, 1}."""
    n = sum(f.degree() for f in blocks)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for f in blocks:
        d = f.degree()
        for r, row in enumerate(companion(f).to_rows()):
            rows[start + r][start:] = row + [rng.randint(-1, 1) for _ in range(n - start - d)]
        start += d
    return M(rows)


def _poly(*coeffs):
    # the monic x^n + c_(n-1) x^(n-1) + ... + c_0 from c_(n-1), ..., c_0
    return IntPoly(list(reversed(coeffs)) + [1])


# unit cubics with group A_3, and unit quartics by group (sympy's
# galois_group)
A3_CUBICS = [_poly(0, -3, -1), _poly(0, -3, 1), _poly(1, -2, -1), _poly(-1, -2, 1)]
QUARTICS = {
    "C4": _poly(-4, -4, 1, 1),
    "V4": _poly(-4, -4, 4, 1),
    "D4": _poly(-4, -4, -4, 1),
    "A4": _poly(-3, 3, 2, 1),
    "S4": _poly(-4, -4, -4, -1),
}
S3, S4, S5, S6 = _poly(0, -5, 1), _poly(0, 0, -5, 1), _poly(0, 0, 0, -5, 1), _poly(0, 0, 0, 0, -5, 1)


class TestGaloisBlocks:
    """Factor sets read from each block's Galois group: the two orbit
    cubics of an A_3 block, and S_4 by the resolvent cubic."""

    def test_cyclic_pair_matches_factoring(self):
        # every degree-6 local piece of weight <= 8 of four A_3 cubics
        pieces = 0
        for f in A3_CUBICS:
            graded = _GradedFactors(companion(f))
            graded.irreducibles((1,))
            for k in range(2, 9):
                for nu in _partitions(k, 3):
                    P = graded._piece(((f, nu),))
                    if P.degree() != 6:
                        continue
                    pair = criteria._cyclic_pair(P, -(-f.constant()) ** k)
                    assert set(pair) == {g for g, _ in factor_over_Z(P).factors}
                    pieces += 1
        assert pieces == 4 * 16
        # a product of two cubics with other constant terms is refused
        P = _poly(0, -5, 1) * _poly(0, -5, -1)
        assert criteria._cyclic_pair(P, 1) is None and criteria._cyclic_pair(P, -1) is None

    def test_cyclic_blocks_factor_no_sextic(self, monkeypatch):
        # through irreducibles, no degree-6 piece reaches factor_over_Z
        degrees = []
        monkeypatch.setattr(criteria, "factor_over_Z",
                            lambda P: degrees.append(P.degree()) or factor_over_Z(P))
        for f in A3_CUBICS:
            graded = _GradedFactors(companion(f))
            assert with_alarm(10, lambda: _factor_sets_agree(graded, 6)) == 0
            assert _groups(graded) == {f: "A_3"}
        monkeypatch.undo()
        assert 6 not in degrees

    def test_resolvent_names_the_quartic_groups(self, monkeypatch):
        monkeypatch.setattr(criteria, "has_symmetric_galois_group", TestSymmetricGalois._refuse)
        for group, f in QUARTICS.items():
            graded = _GradedFactors(companion(f))
            assert (graded._group(f) == "S_n") is (group == "S4"), group

    def test_resolvent_matches_the_prime_scan(self):
        try:
            from sympy import Poly, Symbol
            from sympy.polys.numberfields.galoisgroups import galois_group
        except ImportError:
            galois_group = None
        rng = random.Random(6361)
        groups = set()
        cases = 0
        while cases < 60:
            f = IntPoly([rng.choice([1, -1])] + [rng.randint(-4, 4) for _ in range(3)] + [1])
            if factor_over_Z(f).factors != ((f, 1),):
                continue
            cases += 1
            graded = _GradedFactors(companion(f))
            resolvent = graded._group(f) == "S_n"
            # the scan is sound, so it proves S_4 only where the resolvent does
            assert resolvent or not has_symmetric_galois_group(f), f
            if galois_group is not None:
                name = galois_group(Poly(f.coeffs[::-1], Symbol("x")), by_name=True)[0].name
                groups.add(name)
                assert resolvent == (name == "S4"), (f, name)
        assert galois_group is None or len(groups) > 1

    def test_block_pieces_match_factoring(self):
        # seeded 2- and 3-block actions: irreducibles(mu) is the factor
        # set of P_mu built whole, up to K = 3
        rng = random.Random(6367)
        pool = [S3, _poly(0, -1, -1), S4, _poly(0, 0, -1, -1), S5, A3_CUBICS[0],
                QUARTICS["C4"], QUARTICS["D4"], _poly(0, 5, -1)]

        def check():
            for _ in range(14):
                blocks = rng.sample(pool, rng.choice((2, 2, 3)))
                while sum(f.degree() for f in blocks) > 10:
                    blocks.pop()
                _factor_sets_agree(_GradedFactors(_block_action(rng, blocks)), 3)

        with_alarm(60, check)

    def test_each_group_is_decided_once(self, monkeypatch):
        # over K = 4 of an S_5 and an S_3 block, pieces of degree above 4
        # ask each block's group many times; the Hankel determinant (by
        # its side, the block's degree) and the prime scan run once
        asked, sides, scanned = [], [], []
        group = _GradedFactors._group
        monkeypatch.setattr(_GradedFactors, "_group",
                            lambda graded, f: asked.append(f) or group(graded, f))
        monkeypatch.setattr(criteria, "determinant",
                            lambda H: sides.append(H.rows) or determinant(H))
        monkeypatch.setattr(criteria, "has_symmetric_galois_group",
                            lambda f: scanned.append(f) or has_symmetric_galois_group(f))
        graded = _GradedFactors(_block_action(random.Random(6389), [S5, S3]))
        for k in range(1, 5):
            graded.level(k, lie=False)
        assert asked.count(S5) > 1 and asked.count(S3) > 1
        assert sorted(sides) == [3, 5]
        assert scanned == [S5]
        assert _groups(graded) == {S5: "S_n", S3: "S_n"}

    def test_multiplicity_two_is_not_certified(self):
        graded = _GradedFactors(_block_action(random.Random(6379), [S3, S3, S4]))
        assert {f: block.e for f, block in graded._blocks.items()} == {S3: 2, S4: 1}
        assert graded._group(S3) is None and graded._group(S4) == "S_n"
        assert with_alarm(30, lambda: _factor_sets_agree(graded, 3)) == 0


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

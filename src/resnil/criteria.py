"""Decision procedures for residual nilpotence and residual p-finiteness.

The groups in scope are semidirect products of a finitely generated
free (or free abelian) fiber with Z, acting through an automorphism
whose abelianized matrix A drives every test here.  Each procedure is
exact integer arithmetic; each verdict carries witnesses naming the
criterion used, a citation anchor, and the computed evidence.

Certainty levels keep bounded verification honest: a graded audit that
checked components up to degree K says so in its witness's evidence
("verified up to bound K"), and a verdict's certainties are only proven
or unknown.  "Not residually nilpotent" is only ever asserted from
exact sources (the rank-2 classification, or a unimodular A - E);
failure of a sufficient condition never flips that bit.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Iterable, NamedTuple, Optional

from .errors import (
    BadModulus,
    DimensionMismatch,
    Not2x2,
    NotPrime,
    NotSquare,
    NotUnimodular,
)
from .intpoly import IntPoly, factor_over_Z, from_power_sums, power_sums
from .freegroup import FreeEndo, abelianization_matrix
from .liealg import (
    DEFAULT_WITT_CAP,
    capped_witt_dimension,
    induced_lie_matrix,  # unused here; perfbench/spans.py wraps this name
    lyndon_count,
)
from .primes import is_prime, prime_divisors
from .zlinalg import (
    DEFAULT_SIDE_CAP,
    IntMatrix,
    SubLattice,
    char_poly,
    determinant,
    is_unimodular,
    kronecker_power,  # unused here; perfbench/spans.py wraps this name
    kronecker_side,
)

__all__ = [
    "Certainty",
    "LcsLength",
    "Witness",
    "ANCHORS",
    "make_witness",
    "Verdict",
    "AfResult",
    "AuditRecord",
    "SubgroupReport",
    "af_criterion",
    "gamma_omega_is_fiber",
    "integer_eigenvalue_criterion",
    "mod_p_unipotency",
    "mikhailov_module_check",
    "tensor_power_audit",
    "lie_component_audit",
    "augmentation_power_check",
    "classify_f2",
    "finite_index_resnil_subgroup",
    "classify_general",
    "classify_family",
    "is_prime",
]


# ---------------------------------------------------------------------------
# input checks


def _validated_primes(primes: Iterable[int]) -> tuple[int, ...]:
    out = []
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        out.append(p)
    return tuple(sorted(set(out)))


def _require_square(A: IntMatrix) -> None:
    if not A.is_square():
        raise NotSquare(f"matrix is {A.rows}x{A.cols}")


def _require_unimodular(A: IntMatrix) -> None:
    _require_square(A)
    if not is_unimodular(A):
        raise NotUnimodular(f"determinant {determinant(A)} is not +-1")


# ---------------------------------------------------------------------------
# certainty, witnesses, verdicts

PROVEN = "proven"
UP_TO_BOUND = "up_to_bound"
UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class Certainty:
    """Proof status of a single claim.

    kind "proven" and "unknown" carry no bound; "up_to_bound" records
    the bound that was actually checked.
    """

    kind: str
    bound: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (PROVEN, UP_TO_BOUND, UNKNOWN):
            raise ValueError(f"bad certainty kind {self.kind!r}")
        if self.kind == UP_TO_BOUND:
            if not isinstance(self.bound, int) or self.bound < 1:
                raise ValueError("up_to_bound needs a positive bound")
        elif self.bound is not None:
            raise ValueError(f"{self.kind} certainty carries no bound")

    @staticmethod
    def proven() -> "Certainty":
        return Certainty(PROVEN)

    @staticmethod
    def up_to_bound(k: int) -> "Certainty":
        return Certainty(UP_TO_BOUND, k)

    @staticmethod
    def unknown() -> "Certainty":
        return Certainty(UNKNOWN)

    def rank(self) -> int:
        return {UNKNOWN: 0, UP_TO_BOUND: 1, PROVEN: 2}[self.kind]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "bound": self.bound}

    @staticmethod
    def from_dict(d: dict) -> "Certainty":
        return Certainty(d["kind"], d.get("bound"))

    def __str__(self) -> str:
        if self.kind == UP_TO_BOUND:
            return f"verified up to bound {self.bound}"
        return self.kind


class LcsLength(enum.Enum):
    """Transfinite length of the lower central series, as far as the
    rank-2 classification or a proven residual nilpotence pins it down."""

    TWO = "two"
    OMEGA = "omega"
    OMEGA_SQUARED = "omega_squared"
    UNKNOWN = "unknown"

    def display(self) -> str:
        return {
            LcsLength.TWO: "2",
            LcsLength.OMEGA: "omega",
            LcsLength.OMEGA_SQUARED: "omega^2",
            LcsLength.UNKNOWN: "unknown",
        }[self]


# Fixed citation table: every witness anchor comes from here.  Names
# describe the published result or the computation, nothing else.
ANCHORS = {
    "char_poly_factor_values": (
        "Aschenbrenner-Friedl criterion on factor values of the "
        "characteristic polynomial at 1"
    ),
    "fiber_stabilization": (
        "unimodular displacement A - E makes gamma_2 the fiber and "
        "stops the lower central series"
    ),
    "integer_spectrum": (
        "integer eigenvalue classification for unipotent and "
        "sign-flip actions"
    ),
    "congruence_unipotency": (
        "mod-p unipotent action certificate via the lower p-series"
    ),
    "module_eigenvalue_products": (
        "Mikhailov eigenvalue-product condition for module residual "
        "nilpotence"
    ),
    "tensor_power_audit": "graded tensor-power component audit",
    "lie_component_audit": "graded free Lie component audit",
    "augmentation_contraction": "augmentation ideal power contraction",
    "rank2_classification": (
        "trace and determinant classification of rank-2 fiber actions"
    ),
    "virtual_subgroup": (
        "finite-index residually nilpotent subgroup via monodromy powers"
    ),
    "p_finite_implies_nilpotent": (
        "finite p-groups are nilpotent, so residual p-finiteness "
        "implies residual nilpotence"
    ),
    "rank_open_problem": (
        "the exact classification beyond rank 2 is an open problem"
    ),
    "abelian_quotient_evidence": (
        "abelianized fiber evidence only; quotient behavior does not "
        "decide the full group"
    ),
}


@dataclasses.dataclass(frozen=True)
class Witness:
    criterion: str
    anchor: str
    evidence: str

    def __post_init__(self):
        if self.criterion not in ANCHORS:
            raise ValueError(f"unknown witness criterion {self.criterion!r}")
        if self.anchor != ANCHORS[self.criterion]:
            raise ValueError("witness anchor does not match the citation table")
        if not self.evidence:
            raise ValueError("witness evidence must be nonempty")


def make_witness(criterion: str, evidence: str) -> Witness:
    return Witness(criterion, ANCHORS.get(criterion, ""), evidence)


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Classification result.

    residually_nilpotent is (value, certainty); value None only under
    unknown certainty.  residually_p_finite holds per-prime entries
    (prime, value, certainty), sorted; p_finite_all_primes flags the
    proven "every prime" case.  lcs_length reports the lower central
    series length with its own certainty.
    """

    residually_nilpotent: tuple
    p_finite_all_primes: bool
    residually_p_finite: tuple
    lcs_length: LcsLength
    lcs_certainty: Certainty
    witnesses: tuple

    def __post_init__(self):
        rv, rc = self.residually_nilpotent
        if not isinstance(rc, Certainty):
            raise ValueError("residually_nilpotent needs a Certainty")
        if (rv is None) != (rc.kind == UNKNOWN):
            raise ValueError("value None exactly when certainty is unknown")
        object.__setattr__(self, "residually_nilpotent", (rv, rc))
        entries = tuple(
            sorted(
                ((int(p), v, c) for p, v, c in self.residually_p_finite),
                key=lambda t: t[0],
            )
        )
        for p, v, c in entries:
            if not is_prime(p):
                raise ValueError(f"p-finite entry at non-prime {p}")
            if (v is None) != (c.kind == UNKNOWN):
                raise ValueError("value None exactly when certainty is unknown")
        if len({p for p, _, _ in entries}) != len(entries):
            raise ValueError("duplicate prime entries")
        object.__setattr__(self, "residually_p_finite", entries)
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.p_finite_all_primes and self.residually_nilpotent != (
            True,
            Certainty.proven(),
        ):
            raise ValueError("all-primes flag requires proven residual nilpotence")
        for p, v, c in entries:
            if v is True and c.kind == PROVEN:
                if self.residually_nilpotent != (True, Certainty.proven()):
                    raise ValueError(
                        "proven residual p-finiteness forces proven residual "
                        "nilpotence"
                    )
        if self.lcs_length is LcsLength.TWO and self.residually_nilpotent[0] is not False:
            raise ValueError("series length two forces non residual nilpotence")

    # conveniences -----------------------------------------------------

    def p_finite_map(self) -> dict:
        return {p: (v, c) for p, v, c in self.residually_p_finite}

    def p_finite_proven(self, p: int) -> bool:
        if self.p_finite_all_primes:
            return True
        ent = self.p_finite_map().get(p)
        return ent is not None and ent[0] is True and ent[1].kind == PROVEN

    def proven_primes(self) -> tuple[int, ...]:
        return tuple(
            p
            for p, v, c in self.residually_p_finite
            if v is True and c.kind == PROVEN
        )

    # serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        rv, rc = self.residually_nilpotent
        return {
            "residually_nilpotent": {"value": rv, "certainty": rc.to_dict()},
            "p_finite_all_primes": self.p_finite_all_primes,
            "residually_p_finite": [
                {"p": p, "value": v, "certainty": c.to_dict()}
                for p, v, c in self.residually_p_finite
            ],
            "lcs_length": self.lcs_length.value,
            "lcs_certainty": self.lcs_certainty.to_dict(),
            "witnesses": [
                {"criterion": w.criterion, "anchor": w.anchor, "evidence": w.evidence}
                for w in self.witnesses
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "Verdict":
        rn = d["residually_nilpotent"]
        return Verdict(
            (rn["value"], Certainty.from_dict(rn["certainty"])),
            bool(d["p_finite_all_primes"]),
            tuple(
                (e["p"], e["value"], Certainty.from_dict(e["certainty"]))
                for e in d["residually_p_finite"]
            ),
            LcsLength(d["lcs_length"]),
            Certainty.from_dict(d["lcs_certainty"]),
            tuple(
                Witness(w["criterion"], w["anchor"], w["evidence"])
                for w in d["witnesses"]
            ),
        )


# ---------------------------------------------------------------------------
# individual criteria


@dataclasses.dataclass(frozen=True)
class AfResult:
    """Factor values of char(A) at 1 and what they decide.

    nilpotent: no irreducible factor value is +-1.
    all_primes: every value is 0 (only possible for unipotent A).
    primes: distinct primes dividing every value, i.e. the radical of
    the gcd of the nonzero values; computed on first use, since it
    needs the gcd factored.
    """

    nilpotent: bool
    factor_values: tuple
    all_primes: bool

    @functools.cached_property
    def primes(self) -> tuple[int, ...]:
        return () if self.all_primes else prime_divisors(math.gcd(*self.values()))

    def p_finite_for(self, p: int) -> bool:
        """For a prime p: does p divide every factor value?"""
        return self.all_primes or math.gcd(*self.values()) % p == 0

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.factor_values)


def _factor_values(irreducibles: Iterable[IntPoly]) -> AfResult:
    # the factor-value criterion on a set of monic irreducible factors
    pairs = tuple(
        (g, g.evaluate(1)) for g in sorted(irreducibles, key=IntPoly.sort_key)
    )
    return AfResult(
        all(abs(v) != 1 for _, v in pairs), pairs, not any(v for _, v in pairs)
    )


def _set_partitions(items: tuple):
    # every set partition of items, as a list of blocks
    if not items:
        yield []
        return
    first = items[0]
    for rest in _set_partitions(items[1:]):
        yield [(first,)] + rest
        for i, block in enumerate(rest):
            yield rest[:i] + [(first,) + block] + rest[i + 1 :]


class _OrbitType(NamedTuple):
    terms: tuple
    symmetry: int
    in_lie: bool


@functools.lru_cache(maxsize=512)
def _orbit_type(mu: tuple[int, ...]) -> _OrbitType:
    """Power-sum terms, symmetry and Lie membership of the orbit type
    mu, a partition of k.

    The power sums of P_mu come from the traces t_s = tr(A^s) by Moebius
    inversion on the set partitions pi of the parts (Doubilet 1972):
    p_j(P_mu) = (1/symmetry) * sum over pi of prod over blocks B of
    (-1)^(|B|-1) (|B|-1)! t_(j * sum of mu over B).  terms lists
    (coefficient, block sums) with equal block sums collected;
    symmetry = prod m_i!, m_i the number of parts of each size; in_lie
    tells whether L_k has a Lyndon word of content mu.
    """
    terms: dict[tuple, int] = {}
    for blocks in _set_partitions(tuple(range(len(mu)))):
        coeff = 1
        for B in blocks:
            coeff *= (-1) ** (len(B) - 1) * math.factorial(len(B) - 1)
        sums = tuple(sorted(sum(mu[r] for r in B) for B in blocks))
        terms[sums] = terms.get(sums, 0) + coeff
    symmetry = math.prod(math.factorial(mu.count(c)) for c in set(mu))
    return _OrbitType(
        tuple((c, sums) for sums, c in terms.items() if c),
        symmetry,
        lyndon_count(mu) > 0,
    )


def _partitions(k: int, parts: int, largest: Optional[int] = None):
    # partitions of k into at most `parts` parts, parts non-increasing
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    if parts == 0:
        return
    # a first part below ceil(k / parts) leaves too much for the rest
    for first in range(min(k, largest), -(-k // parts) - 1, -1):
        for rest in _partitions(k - first, parts - 1, first):
            yield (first,) + rest


class _GradedFactors:
    """Irreducible factors of the graded components of the action of A,
    by orbit type.  One instance lives for one classification (or one
    Mikhailov check, built on A - E).

    The roots of char(A^{(x)k}) are the products of k eigenvalues of A.
    Grouped by exponent pattern, a partition mu of k into at most n
    parts, they give one polynomial P_mu per orbit type: its roots are
    the monomials prod_r a_(i_r)^(mu_r) over injective index tuples, up
    to permuting equal parts, so its degree is
    n! / ((n - len(mu))! prod m_i!).  Then
    char(A^{(x)k}) = prod over mu of P_mu^(k! / prod mu_r!) and
    char(A | L_k) = prod over mu of P_mu^lyndon_count(mu) (Witt; see
    Reutenauer, Free Lie Algebras, 1993), so the irreducible factors of
    a level are those of its P_mu.  Each P_mu is factored once, and the
    tensor and Lie levels share it; P_(1) = char(A).
    """

    def __init__(self, A: IntMatrix):
        self.n = A.rows
        self.char = char_poly(A)
        self._traces: list[int] = []
        self._irreducibles: dict[tuple, tuple[IntPoly, ...]] = {}

    def irreducibles(self, mu: tuple[int, ...]) -> tuple[IntPoly, ...]:
        """The distinct monic irreducible factors of P_mu."""
        if mu not in self._irreducibles:
            self._irreducibles[mu] = tuple(
                g for g, _ in factor_over_Z(self._orbit_poly(mu)).factors
            )
        return self._irreducibles[mu]

    def _orbit_poly(self, mu: tuple[int, ...]) -> IntPoly:
        terms, symmetry, _ = _orbit_type(mu)
        degree = math.perm(self.n, len(mu)) // symmetry
        need = degree * sum(mu)
        if len(self._traces) < need:
            # grow geometrically: at rank 1 every level needs one more trace
            self._traces = power_sums(self.char, max(need, 2 * len(self._traces)))
        t = self._traces
        sums = []
        for j in range(1, degree + 1):
            total = sum(c * math.prod(t[j * s - 1] for s in ss) for c, ss in terms)
            if total % symmetry:
                raise ArithmeticError(
                    f"orbit power sum of {mu} at j={j} is not divisible by {symmetry}"
                )
            sums.append(total // symmetry)
        return from_power_sums(sums)

    def level(self, k: int, lie: bool) -> AfResult:
        """Factor values of the tensor level k, or with lie of L_k."""
        found: set[IntPoly] = set()
        for mu in _partitions(k, self.n):
            if not lie or _orbit_type(mu).in_lie:
                found.update(self.irreducibles(mu))
        return _factor_values(found)


def af_criterion(A: IntMatrix) -> AfResult:
    """Residual nilpotence and p-finiteness of the abelian-fiber group
    Z^n by Z read off the irreducible factors of char(A) at 1."""
    _require_unimodular(A)
    return _GradedFactors(A).level(1, lie=False)


def gamma_omega_is_fiber(A: IntMatrix) -> bool:
    """True when A - E is unimodular, which pins gamma_2 = gamma_omega
    to the whole fiber: series length two, not residually nilpotent."""
    _require_unimodular(A)
    return is_unimodular(A.minus_identity())


def _integer_spectrum(irreducibles: tuple[IntPoly, ...]):
    if any(f.degree() > 1 for f in irreducibles):
        return None
    roots = [-f.constant() for f in irreducibles]
    assert all(r in (1, -1) for r in roots)
    return (all(r == 1 for r in roots), any(r == -1 for r in roots))


def integer_eigenvalue_criterion(A: IntMatrix):
    """None when char(A) has a nonlinear irreducible factor; otherwise
    (all_plus_one, has_minus_one).  All eigenvalues +1 gives residual
    p-finiteness for every prime; a -1 gives residual 2-finiteness."""
    _require_unimodular(A)
    return _integer_spectrum(_GradedFactors(A).irreducibles((1,)))


def mod_p_unipotency(A: IntMatrix, p: int) -> Optional[int]:
    """Smallest N <= n with (A - E)^N = 0 mod p, or None.

    A returned N certifies residual p-finiteness (and hence residual
    nilpotence) of the semidirect product, for free or abelian fiber.
    """
    _require_square(A)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    B = A.minus_identity()
    P = B.mod(p)
    for N in range(1, A.rows + 1):
        if not any(P.entries):
            return N
        P = (P * B).mod(p)
    return None


def mikhailov_module_check(A: IntMatrix) -> bool:
    """True when no product of k eigenvalues of A - E equals +-1 for
    any k in 1..n, tested exactly on the orbit polynomials P_(1^k) of
    A - E: their roots are these products (the eigenvalues of the
    compound matrix C_k(A - E)), so neither P(1) nor P(-1) may vanish."""
    _require_square(A)
    graded = _GradedFactors(A.minus_identity())
    for k in range(1, A.rows + 1):
        P = graded._orbit_poly((1,) * k)
        if P.evaluate(1) == 0 or P.evaluate(-1) == 0:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class AuditRecord:
    k: int
    af_nilpotent: bool
    af_p_finite: Optional[bool]
    af: AfResult


# the caps bound n^k and the Witt dimension at every level; the audits
# check them before any work, tensor levels before Lie levels


def _check_tensor_cap(n: int, K: int, side_cap: int) -> None:
    for k in range(1, K + 1):
        kronecker_side(n, k, side_cap)


def _check_lie_cap(n: int, K: int, witt_cap: int) -> None:
    for k in range(1, K + 1):
        capped_witt_dimension(n, k, witt_cap)


def _audit_levels(
    graded: _GradedFactors, K: int, p: Optional[int], lie: bool
) -> list[AuditRecord]:
    out = []
    for k in range(1, K + 1):
        af = graded.level(k, lie)
        out.append(
            AuditRecord(k, af.nilpotent, None if p is None else af.p_finite_for(p), af)
        )
    return out


def _check_audit_input(A: IntMatrix, K: int, p: Optional[int]) -> None:
    _require_unimodular(A)
    if K < 1:
        raise ValueError("bound K must be at least 1")
    if p is not None and not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def tensor_power_audit(
    A: IntMatrix,
    K: int,
    p: Optional[int] = None,
    side_cap: int = DEFAULT_SIDE_CAP,
) -> list[AuditRecord]:
    """Aschenbrenner-Friedl data for the k-fold Kronecker powers of A,
    k = 1..K: the graded tensor components of the fiber action.

    The factors of char(A^{(x)k}) are those of the orbit polynomials
    P_mu over all partitions mu of k (see _GradedFactors), each built
    from the traces tr(A^s) and factored on its own.  The side cap
    still bounds n^k, the degree of char(A^{(x)k}).
    """
    _check_audit_input(A, K, p)
    _check_tensor_cap(A.rows, K, side_cap)
    return _audit_levels(_GradedFactors(A), K, p, lie=False)


def lie_component_audit(
    A: IntMatrix,
    K: int,
    p: Optional[int] = None,
    witt_cap: int = DEFAULT_WITT_CAP,
) -> list[AuditRecord]:
    """Same audit on the degree-k free Lie components; a tensor pass at
    k always implies a Lie pass at k, never the reverse.

    The factors of char(A | L_k) are those of the orbit polynomials
    P_mu over the partitions mu of k that are the content of some
    Lyndon word (see _GradedFactors).  The Witt cap still bounds the
    Witt dimension, the degree of char(A | L_k).
    """
    _check_audit_input(A, K, p)
    _check_lie_cap(A.rows, K, witt_cap)
    return _audit_levels(_GradedFactors(A), K, p, lie=True)


def _cols_matrix(n: int, cols: list) -> IntMatrix:
    return IntMatrix(n, len(cols), [c[i] for i in range(n) for c in cols])


def augmentation_power_check(
    Bs: Iterable[IntMatrix], modulus: int, bound: int = 64
) -> Optional[int]:
    """Smallest N <= bound such that every length-N product of the
    matrices (B_i - E) vanishes, exactly when modulus is 0, entrywise
    mod m when modulus m >= 2.

    Runs a breadth-first closure on the spanned sublattice: V_0 = Z^n,
    V_{l+1} = sum over i of (B_i - E)V_l (plus m Z^n when reducing mod
    m).  The chain is decreasing, so stabilization above the target
    means no N exists and the search stops early.
    """
    mats = list(Bs)
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].rows
    for B in mats:
        if not B.is_square() or B.rows != n:
            raise DimensionMismatch("matrices must be square of equal size")
    if modulus < 0 or modulus == 1:
        raise BadModulus(f"modulus must be 0 or >= 2, got {modulus}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    diffs = [B.minus_identity() for B in mats]
    extra = []
    if modulus:
        extra = [
            tuple(modulus if i == j else 0 for i in range(n)) for j in range(n)
        ]
        target = SubLattice.from_generators(_cols_matrix(n, extra))
    V = SubLattice.full(n)
    for N in range(1, bound + 1):
        gens = [D.apply(V.basis.col(j)) for D in diffs for j in range(V.rank)]
        Vnext = SubLattice.from_generators(_cols_matrix(n, gens + extra))
        if modulus:
            if Vnext == target:
                return N
        elif Vnext.is_zero():
            return N
        if Vnext == V:
            return None
        V = Vnext
    return None


# ---------------------------------------------------------------------------
# classifiers


def _chain_witness() -> Witness:
    return make_witness(
        "p_finite_implies_nilpotent",
        "residual p-finiteness for some prime implies residual nilpotence",
    )


def _verdict(
    resnil: Optional[bool],
    lcs: LcsLength,
    witnesses: Iterable[Witness],
    req: tuple[int, ...],
    proven: Iterable[int] = (),
    all_primes: bool = False,
) -> Verdict:
    """The one place a classifier's verdict is assembled.

    A requested prime is a proven no when resnil is False, a proven yes
    when it is in proven or all_primes is set, and unknown otherwise;
    the primes in proven are reported even when not requested.  Each
    certainty is proven unless its value is unknown.
    """
    if resnil is False:
        values = dict.fromkeys(req, False)
    else:
        values = dict.fromkeys(proven, True)
        for p in req:
            values.setdefault(p, True if all_primes else None)

    def certainty(known: bool) -> Certainty:
        return Certainty.proven() if known else Certainty.unknown()

    return Verdict(
        (resnil, certainty(resnil is not None)),
        all_primes,
        tuple((p, v, certainty(v is not None)) for p, v in values.items()),
        lcs,
        certainty(lcs is not LcsLength.UNKNOWN),
        tuple(witnesses),
    )


def classify_f2(A: IntMatrix, primes: Iterable[int] = ()) -> Verdict:
    """Exact trichotomy for a rank-2 free fiber, decided by det and
    trace alone.

    det=1, tr in {1,3} or det=-1, tr=+-1: series length two, not
    residually nilpotent.  det=1, tr outside {1,3}: length omega,
    residually p-finite for every prime dividing tr-2 (all primes at
    tr=2).  det=-1, tr even: length omega, residually 2-finite.
    det=-1, tr odd, tr != +-1: length omega^2.  All certainties are
    proven; primes beyond the derived set stay unknown because the
    derived set is a lower bound.
    """
    _require_square(A)
    if A.rows != 2:
        raise Not2x2(f"need a 2x2 matrix, got {A.rows}x{A.cols}")
    _require_unimodular(A)
    req = _validated_primes(primes)
    det = determinant(A)
    tr = A.trace()
    dAe = determinant(A.minus_identity())

    if (det == 1 and tr in (1, 3)) or (det == -1 and tr in (1, -1)):
        witnesses = [
            make_witness(
                "rank2_classification",
                f"det={det}, tr={tr}: gamma_2 = gamma_omega is the fiber",
            ),
            make_witness("fiber_stabilization", f"det(A-E)={dAe} is a unit"),
        ]
        return _verdict(False, LcsLength.TWO, witnesses, req)

    if det == 1:
        d = tr - 2
        if d == 0:
            witnesses = [
                make_witness(
                    "rank2_classification",
                    f"det=1, tr=2: tr-2=0, residually p-finite for every prime",
                ),
                _chain_witness(),
            ]
            return _verdict(True, LcsLength.OMEGA, witnesses, req, all_primes=True)
        ps = prime_divisors(d)
        witnesses = [
            make_witness(
                "rank2_classification",
                f"det=1, tr={tr}: residually p-finite for p dividing tr-2={d}",
            ),
            _chain_witness(),
        ]
        return _verdict(True, LcsLength.OMEGA, witnesses, req, proven=ps)

    if tr % 2 == 0:
        witnesses = [
            make_witness(
                "rank2_classification",
                f"det=-1, tr={tr} even: residually 2-finite",
            ),
            _chain_witness(),
        ]
        return _verdict(True, LcsLength.OMEGA, witnesses, req, proven=(2,))

    witnesses = [
        make_witness(
            "rank2_classification",
            f"det=-1, tr={tr} odd with |tr|>1: gamma_omega nontrivial, "
            "gamma_omega^2 trivial",
        )
    ]
    return _verdict(False, LcsLength.OMEGA_SQUARED, witnesses, req)


class SubgroupReport(NamedTuple):
    index: int
    power_matrix: IntMatrix
    sub_verdict: Verdict


def finite_index_resnil_subgroup(A: IntMatrix) -> SubgroupReport:
    """A residually nilpotent subgroup of index 1, 2 or 4, obtained by
    passing to a power of the monodromy.

    Index 1 when the group already is residually nilpotent; index 4
    exactly at det=-1, tr=+-1 (the square still has trace 3); index 2
    otherwise.  The returned verdict classifies the power and is
    always residually nilpotent.
    """
    base = classify_f2(A)
    if base.residually_nilpotent[0] is True:
        return SubgroupReport(1, A, base)
    det = determinant(A)
    tr = A.trace()
    if det == -1 and tr in (1, -1):
        P = A.power(4)
        index = 4
    else:
        P = A.power(2)
        index = 2
    sub = classify_f2(P)
    assert sub.residually_nilpotent[0] is True
    witnesses = sub.witnesses + (
        make_witness(
            "virtual_subgroup",
            f"index {index} subgroup via monodromy power {index}: "
            f"det={determinant(P)}, tr={P.trace()}",
        ),
    )
    return SubgroupReport(index, P, dataclasses.replace(sub, witnesses=witnesses))


def _audit_witnesses(
    graded: _GradedFactors, K: int, side_cap: int, witt_cap: int
) -> list[Witness]:
    _check_tensor_cap(graded.n, K, side_cap)
    _check_lie_cap(graded.n, K, witt_cap)

    def bits(lie: bool) -> str:
        return ", ".join(
            f"k={r.k} {'pass' if r.af_nilpotent else 'fail'}"
            for r in _audit_levels(graded, K, None, lie)
        )

    return [
        make_witness(
            "tensor_power_audit",
            f"af-nilpotence on tensor powers: {bits(False)}; verified up to bound {K}",
        ),
        make_witness(
            "lie_component_audit",
            f"af-nilpotence on Lie components: {bits(True)}; verified up to bound {K}",
        ),
    ]


def classify_general(
    obj,
    tensor_bound: Optional[int] = None,
    primes: Iterable[int] = (),
    side_cap: int = DEFAULT_SIDE_CAP,
    witt_cap: int = DEFAULT_WITT_CAP,
) -> Verdict:
    """Orchestrating classifier for a free fiber of any rank.

    Accepts the abelianized matrix or a free group endomorphism (whose
    abelianized matrix must be unimodular).  Rank 2 is decided exactly
    by classify_f2 and then enriched with graded audits.  Higher ranks
    assemble proven sources only: a unimodular A - E (length two), the
    integer eigenvalue criterion, and mod-p unipotency certificates;
    the factor-value criterion on the abelianized fiber and the graded
    audits are reported as evidence with bounded certainty, never
    flipping the verdict.
    """
    A = abelianization_matrix(obj) if isinstance(obj, FreeEndo) else obj
    _require_unimodular(A)
    req = _validated_primes(primes)
    n = A.rows
    K = tensor_bound if tensor_bound is not None else (4 if n == 2 else 3)
    if K < 1:
        raise ValueError("bound K must be at least 1")

    # char(A) and each orbit polynomial are factored once per call
    graded = _GradedFactors(A)
    if n == 2:
        v = classify_f2(A, primes=req)
        ws = _audit_witnesses(graded, K, side_cap, witt_cap)
        return dataclasses.replace(v, witnesses=v.witnesses + tuple(ws))

    witnesses: list[Witness] = []
    af = graded.level(1, lie=False)
    vals = ", ".join(f"({f}) -> {val}" for f, val in af.factor_values)
    dAe = determinant(A.minus_identity())

    if abs(dAe) == 1:
        witnesses.append(
            make_witness(
                "fiber_stabilization",
                f"det(A-E)={dAe} is a unit: gamma_2 = gamma_omega is the fiber",
            )
        )
        witnesses.append(
            make_witness("char_poly_factor_values", f"factor values at 1: {vals}")
        )
        return _verdict(False, LcsLength.TWO, witnesses, req)

    proven: set[int] = set()
    all_flag = False

    iec = _integer_spectrum(graded.irreducibles((1,)))
    if iec is not None:
        all_plus, has_minus = iec
        if all_plus:
            all_flag = True
            witnesses.append(
                make_witness(
                    "integer_spectrum",
                    "all eigenvalues are +1: residually p-finite for every prime",
                )
            )
        else:
            assert has_minus
            proven.add(2)
            witnesses.append(
                make_witness(
                    "integer_spectrum",
                    "all eigenvalues are +-1 with a -1: residually 2-finite",
                )
            )

    # p has a certificate (A-E)^N = 0 mod p, N <= n, exactly when p divides
    # every entry of (A-E)^n; then char(A) = (x-1)^n mod p, so p divides
    # every factor value at 1 too, and only the gcd of both is factored
    if not all_flag:
        g = math.gcd(*A.minus_identity().power(n).entries, *af.values())
        for p in prime_divisors(g):
            if p in proven:
                continue
            N = mod_p_unipotency(A, p)
            assert N is not None
            proven.add(p)
            witnesses.append(
                make_witness(
                    "congruence_unipotency",
                    f"(A-E)^{N} = 0 mod {p}: residually {p}-finite",
                )
            )

    witnesses.append(
        make_witness("char_poly_factor_values", f"factor values at 1: {vals}")
    )
    if not af.nilpotent:
        witnesses.append(
            make_witness(
                "abelian_quotient_evidence",
                "the abelianized fiber group is not residually nilpotent; "
                "no conclusion for the full group",
            )
        )
    # every proven source above is a residual p-finiteness certificate
    resnil = bool(proven) or all_flag
    if resnil:
        witnesses.append(_chain_witness())

    witnesses.extend(_audit_witnesses(graded, K, side_cap, witt_cap))

    if resnil:
        # a rank-1 fiber (n = 1 reaches this path) keeps its length unknown
        lcs = LcsLength.OMEGA if n >= 2 else LcsLength.UNKNOWN
        return _verdict(True, lcs, witnesses, req, proven, all_flag)
    witnesses.append(
        make_witness(
            "rank_open_problem",
            f"rank {n}: no exact classification applies; "
            "series length left unknown",
        )
    )
    return _verdict(None, LcsLength.UNKNOWN, witnesses, req)


def classify_family(mats: Iterable[IntMatrix], primes: Iterable[int] = ()) -> Verdict:
    """Classifier for a fiber acted on by a family of action matrices,
    from a certificate at the prime 2.

    Every matrix unipotent mod 2 and the family's augmentation powers
    landing in 2 times the fiber lattice prove residual 2-finiteness,
    hence residual nilpotence; otherwise nothing is concluded.
    Requested primes other than 2 are reported unknown.
    """
    req = _validated_primes(primes)
    mats = list(mats)
    witnesses = []
    ns = []
    for i, B in enumerate(mats, 1):
        N = mod_p_unipotency(B, 2)
        ns.append(N)
        if N is not None:
            witnesses.append(
                make_witness(
                    "congruence_unipotency",
                    f"matrix {i}: (B-E)^{N} = 0 mod 2",
                )
            )
    aug = augmentation_power_check(mats, 2)
    if aug is not None:
        witnesses.append(
            make_witness(
                "augmentation_contraction",
                f"augmentation power {aug} of the family lands in 2 times "
                "the fiber lattice",
            )
        )
    if aug is None or any(N is None for N in ns):
        witnesses.append(
            make_witness(
                "abelian_quotient_evidence",
                "family certificate incomplete; no conclusion",
            )
        )
        return _verdict(None, LcsLength.UNKNOWN, witnesses, req)
    witnesses.append(
        make_witness(
            "p_finite_implies_nilpotent",
            "residual 2-finiteness of the family implies residual nilpotence",
        )
    )
    return _verdict(True, LcsLength.UNKNOWN, witnesses, req, proven=(2,))

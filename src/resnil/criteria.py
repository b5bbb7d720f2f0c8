"""Decision procedures for residual nilpotence and residual p-finiteness.

The groups in scope are semidirect products of a finitely generated
free (or free abelian) fiber with Z, acting through an automorphism
whose abelianized matrix A drives every test here.  Each procedure is
exact integer arithmetic; each verdict carries witnesses naming the
criterion used, a citation anchor, and the computed evidence.

Every certainty is proven or unknown.  A graded audit that checked
components up to degree K says so in its witness's evidence ("verified
up to bound K"), never in a certainty.  "Not residually nilpotent" is
only ever asserted from exact sources (the rank-2 classification, or a
unimodular A - E); failure of a sufficient condition never flips that
bit.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import operator
from typing import Iterable, NamedTuple, Optional

from .errors import (
    BadModulus,
    DimensionMismatch,
    Not2x2,
    NotPrime,
    NotSquare,
    NotUnimodular,
    SizeCapExceeded,
)
from .intpoly import (
    IntPoly,
    _has_integer_root,
    _integer_roots,
    _ints,
    factor_over_Z,
    from_power_sums,
    has_symmetric_galois_group,
    power_sums,
    squarefree_mod_small_prime,
)
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
    det_minus_identity,
    determinant,
    kronecker_power,  # unused here; perfbench/spans.py wraps this name
    kronecker_side,
)

__all__ = [
    "LcsLength",
    "Witness",
    "ANCHORS",
    "certainty",
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


class _Checked(tuple):
    """Sorted distinct primes that passed is_prime."""


def _validated_primes(primes: Iterable[int]) -> tuple[int, ...]:
    if type(primes) is _Checked:
        return primes
    out = []
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        out.append(p)
    return _Checked(sorted(set(out)))


def _require_square(A: IntMatrix) -> None:
    # a 0x0 action is refused: its group is Z, and the empty
    # det(A - E) = 1 would read as a unit displacement
    if not A.is_square():
        raise NotSquare(f"matrix is {A.rows}x{A.cols}")
    if not A.rows:
        raise DimensionMismatch("matrix is 0x0: the fiber needs rank at least 1")


def _require_unimodular(A: IntMatrix) -> int:
    """det A, which must be +-1."""
    _require_square(A)
    det = determinant(A)
    if abs(det) != 1:
        raise NotUnimodular(f"determinant {det} is not +-1")
    return det


# ---------------------------------------------------------------------------
# certainty, witnesses, verdicts


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


def certainty(value) -> str:
    """Proof status of a claim, read off its value: every value a
    verdict holds is proven, except an unknown one (None or
    LcsLength.UNKNOWN)."""
    return "unknown" if value is None or value is LcsLength.UNKNOWN else "proven"


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
    evidence: str

    def __post_init__(self):
        if self.criterion not in ANCHORS:
            raise ValueError(f"unknown witness criterion {self.criterion!r}")
        if not self.evidence:
            raise ValueError("witness evidence must be nonempty")

    @property
    def anchor(self) -> str:
        return ANCHORS[self.criterion]


def _certainty_dict(value) -> dict:
    # the JSON shape keeps its "bound" key, always null
    return {"kind": certainty(value), "bound": None}


def _checked(cert: dict, value):
    """value, once its certainty object from a JSON document is the one
    to_dict would write for it."""
    if cert.get("bound") is not None:
        raise ValueError(f"a certainty carries no bound, got {cert['bound']!r}")
    if cert.get("kind") != certainty(value):
        raise ValueError(f"certainty {cert.get('kind')!r} does not fit value {value!r}")
    return value


def _claim(entry: dict):
    """The value of a claim object {"value", "certainty"} from a JSON
    document, once it is true, false or null (by identity, so 1 and 0
    are refused) and its certainty object is the one to_dict would
    write for it."""
    value = entry["value"]
    if not any(value is v for v in (True, False, None)):
        raise ValueError(f"a claim is true, false or null, got {value!r}")
    return _checked(entry["certainty"], value)


def _prime_entry(entry: dict) -> tuple:
    p = entry["p"]
    if type(p) is not int:
        raise ValueError(f"a p-finite entry needs an integer p, got {p!r}")
    return p, _claim(entry)


def _witness_from_dict(w: dict) -> Witness:
    out = Witness(w["criterion"], w["evidence"])
    if w["anchor"] != out.anchor:
        raise ValueError("witness anchor does not match the citation table")
    return out


@dataclasses.dataclass(frozen=True)
class Verdict:
    """Classification result: what the classifier decided, no more.

    residually_nilpotent is True, False or None (unknown).
    residually_p_finite holds per-prime (prime, value) pairs, sorted;
    p_finite_all_primes flags the proven "every prime" case.  lcs_length
    is the lower central series length.  Each claim's certainty is
    certainty(value), and each witness's anchor comes from ANCHORS.
    """

    residually_nilpotent: Optional[bool]
    p_finite_all_primes: bool
    residually_p_finite: tuple
    lcs_length: LcsLength
    witnesses: tuple
    # for callers whose primes already passed is_prime
    _checked: dataclasses.InitVar[bool] = False

    def __post_init__(self, _checked: bool):
        pairs = tuple(self.residually_p_finite)
        primes = _ints(p for p, _ in pairs)
        entries = tuple(sorted(zip(primes, (v for _, v in pairs)), key=lambda t: t[0]))
        for p, _ in () if _checked else entries:
            if not is_prime(p):
                raise ValueError(f"p-finite entry at non-prime {p}")
        if len(dict(entries)) != len(entries):
            raise ValueError("duplicate prime entries")
        object.__setattr__(self, "residually_p_finite", entries)
        object.__setattr__(self, "witnesses", tuple(self.witnesses))
        if self.residually_nilpotent is not True:
            if self.p_finite_all_primes:
                raise ValueError("all-primes flag requires residual nilpotence")
            if self.proven_primes():
                raise ValueError("residual p-finiteness forces residual nilpotence")
        if self.lcs_length is LcsLength.TWO and self.residually_nilpotent is not False:
            raise ValueError("series length two forces non residual nilpotence")

    # conveniences -----------------------------------------------------

    def p_finite_map(self) -> dict:
        return dict(self.residually_p_finite)

    def p_finite_proven(self, p: int) -> bool:
        return self.p_finite_all_primes or self.p_finite_map().get(p) is True

    def proven_primes(self) -> tuple[int, ...]:
        return tuple(p for p, v in self.residually_p_finite if v is True)

    # serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        rv = self.residually_nilpotent
        return {
            "residually_nilpotent": {"value": rv, "certainty": _certainty_dict(rv)},
            "p_finite_all_primes": self.p_finite_all_primes,
            "residually_p_finite": [
                {"p": p, "value": v, "certainty": _certainty_dict(v)}
                for p, v in self.residually_p_finite
            ],
            "lcs_length": self.lcs_length.value,
            "lcs_certainty": _certainty_dict(self.lcs_length),
            "witnesses": [
                {"criterion": w.criterion, "anchor": w.anchor, "evidence": w.evidence}
                for w in self.witnesses
            ],
        }

    @staticmethod
    def from_dict(d: dict) -> "Verdict":
        """The verdict to_dict wrote d from; ValueError when a value has
        the wrong type, or a certainty object or an anchor is not the one
        to_dict would write."""
        all_primes = d["p_finite_all_primes"]
        if not isinstance(all_primes, bool):
            raise ValueError(f"p_finite_all_primes is a bool, got {all_primes!r}")
        return Verdict(
            _claim(d["residually_nilpotent"]),
            all_primes,
            tuple(map(_prime_entry, d["residually_p_finite"])),
            _checked(d["lcs_certainty"], LcsLength(d["lcs_length"])),
            tuple(_witness_from_dict(w) for w in d["witnesses"]),
        )


# ---------------------------------------------------------------------------
# individual criteria


@dataclasses.dataclass(frozen=True)
class AfResult:
    """Factor values of char(A) at 1 and what they decide.

    nilpotent: no irreducible factor value is +-1.
    all_primes: every value is 0: A is unipotent, or the level has no
    factor at all (L_k = 0 at rank 1 for k >= 2).
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


@functools.lru_cache(maxsize=256)
def _level_types(k: int, n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    # (mu, in_lie) over the orbit types of level k at rank n, in
    # _partitions order
    return tuple((mu, _orbit_type(mu).in_lie) for mu in _partitions(k, n))


def _deals(mu: tuple[int, ...], r: int):
    # every way to deal the parts of mu out to r blocks, as r partitions
    sizes = sorted(set(mu), reverse=True)
    per_size = [
        itertools.combinations_with_replacement(range(r), mu.count(c)) for c in sizes
    ]
    for choice in itertools.product(*per_size):
        yield tuple(
            tuple(c for c, dealt in zip(sizes, choice) for _ in range(dealt.count(j)))
            for j in range(r)
        )


def _orbit_sums(mu: tuple[int, ...], t: list[int], m: int) -> list[int]:
    # power sums p_1..p_m of P_mu, given the traces t (t[s-1] = t_s)
    terms, symmetry, _ = _orbit_type(mu)
    sums = []
    for j in range(1, m + 1):
        total = sum(c * math.prod(t[j * s - 1] for s in ss) for c, ss in terms)
        if total % symmetry:
            raise ArithmeticError(
                f"orbit power sum of {mu} at j={j} is not divisible by {symmetry}"
            )
        sums.append(total // symmetry)
    return sums


def _orbit_poly(f: IntPoly, mu: tuple[int, ...]) -> IntPoly:
    # P_mu whole, from the power sums of the roots of f
    degree = math.perm(f.degree(), len(mu)) // _orbit_type(mu).symmetry
    return from_power_sums(_orbit_sums(mu, power_sums(f, degree * sum(mu)), degree))


def _dual(mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    # mu padded to n parts, each part taken from t = mu_1, zeros dropped:
    # a^mu = det^t / a^dual over the same index tuple
    t = mu[0]
    return (t,) * (n - len(mu)) + tuple(t - c for c in reversed(mu) if c != t)


def _cyclic_pair(P: IntPoly, c: int) -> Optional[tuple[IntPoly, IntPoly]]:
    # the sextic P as (x^3 + a x^2 + b x + c)(x^3 + d x^2 + e x + c), both
    # without the root +-1, hence irreducible, or None: b + e = c p1; a, d
    # are the roots of t^2 - p5 t + p4 - c p1; p3 = 2c + a(b + e) + b(d - a)
    # gives b, or for a = d, b and e are the roots of t^2 - (b + e) t + p2 - 2ac
    _, p1, p2, p3, p4, p5, _ = P.coeffs
    s = c * p1
    ad = _integer_roots(p5, p4 - s)
    if ad is None:
        return None
    a, d = ad
    if a != d:
        b, rest = divmod(p3 - 2 * c - a * s, d - a)
        be = None if rest else (b, s - b)
    else:
        be = _integer_roots(s, p2 - 2 * a * c)
    if be is None:
        return None
    pair = IntPoly((c, be[0], a, 1)), IntPoly((c, be[1], d, 1))
    ok = pair[0] * pair[1] == P and all(Q.evaluate(r) for Q in pair for r in (1, -1))
    return pair if ok else None


def _moved(g: IntPoly, s: int, inverted: bool = False) -> IntPoly:
    # the monic polynomial whose roots are s * b, or s / b when inverted,
    # over the roots b of the monic g; s = +-1, and g(0) = +-1 when inverted
    cs = g.coeffs
    if inverted:
        cs = [c * cs[0] for c in reversed(cs)]
    elif s == 1:
        return g
    if s == -1:
        d = len(cs) - 1
        cs = [-c if (d - i) % 2 else c for i, c in enumerate(cs)]
    return IntPoly(cs)


class _Block:
    # a factor f of char(A): its multiplicity e, the power sums of the
    # roots of f^e so far, and its Galois group, "?" until _group decides
    __slots__ = ("e", "sums", "group")

    def __init__(self, e: int):
        self.e, self.sums, self.group = e, [], "?"


class _GradedFactors:
    """Irreducible factors of the graded components of the action of A,
    by orbit type.  One instance lives for one classification.

    The roots of char(A^{(x)k}) are the products of k eigenvalues of A.
    Grouped by exponent pattern, a partition mu of k into at most n
    parts, they give one polynomial P_mu per orbit type: its roots are
    the monomials prod_r a_(i_r)^(mu_r) over injective index tuples, up
    to permuting equal parts, so its degree is
    n! / ((n - len(mu))! prod m_i!).  Then
    char(A^{(x)k}) = prod over mu of P_mu^(k! / prod mu_r!) and
    char(A | L_k) = prod over mu of P_mu^lyndon_count(mu) (Witt; see
    Reutenauer, Free Lie Algebras, 1993), so the irreducible factors of
    a level are those of its P_mu; P_(1) = char(A).  irreducibles(mu)
    takes them from what A fixes and factors only the rest, and needs
    det A = +-1.  The Mikhailov check, on A - E, builds each P_(1^k)
    whole from the power sums of char(A - E) with the module-level
    _orbit_poly and uses no instance.

    Duality: pad mu to n parts, t = mu_1.  Over one index tuple
    a^mu = det^t / a^dual, dual = (t - mu_n, ..., t - mu_1) without
    zeros.  When |dual| < |mu| the factors of P_mu are the reciprocals
    of those of P_dual (monic: their constant terms are +-1) with roots
    times s = det^t; an empty dual gives x - s.  The audits need only
    whether some factor has the value +-1 at 1 (unit_free): the factor
    from g has the value g(s) / g(0) = +-g(s) there, and x - s has 0 or
    2, so such a type is read from P_dual without building its own.

    Signs: otherwise each monomial deals the parts of mu out to the
    blocks f^e of char(A), factored when the instance is made.  A
    linear block is x - r, r = +-1 (a unit polynomial has no other
    integer root); its parts nu multiply the root by r^|nu|, and do not
    fit when len(nu) > e.  A deal to linear blocks only gives x - s, s
    the product of the signs; one that reaches one nonlinear block f
    gives the factors of f's local orbit polynomial, roots times s; only
    one that reaches two or more builds their combined piece (power
    sums: the products of the blocks' orbit power sums) and factors it.
    Factors are kept per (f, nu) key, and every other fact of a block
    in its _Block.

    Galois groups: _group(f) decides once whether a block f, of
    multiplicity 1 and degree n >= 3, has the proven group S_n or A_3.
    disc f = det(s_(i+j)), the Hankel matrix of its power sums, is a
    square exactly when the group lies in A_n: then a cubic has A_3,
    else S_3; a quartic with a non-square disc has S_4 when the
    resolvent cubic y^3 - c2 y^2 + (c1 c3 - 4 c0) y - (c3^2 c0 -
    4 c2 c0 + c1^2) has no integer root (Kappe and Warren, Amer. Math.
    Monthly 96, 1989); above degree 4 has_symmetric_galois_group(f)
    decides a non-square.  It is asked only for a local piece of one
    block, of degree above 4.  S_n permutes its monomials transitively,
    so one squarefree mod one of 3..13 is irreducible; A_3 splits one
    of degree 6 into two cubics with constant term -e3^|nu|,
    e3 = -f(0), read off by _cyclic_pair; factor_over_Z is the fallback.
    """

    def __init__(self, A: IntMatrix):
        self.n = A.rows
        self.char = char_poly(A)
        self._det = (-1) ** self.n * self.char.constant()
        assert abs(self._det) == 1, "orbit factor sets need det A = +-1"
        # char(A) = prod f^e over the blocks f
        self._blocks = {f: _Block(e) for f, e in factor_over_Z(self.char).factors}
        # each block f as its own P_(1), and the empty monomial
        self._local = {((f, (1,)),): (f,) for f in self._blocks}
        self._local[()] = (IntPoly((-1, 1)),)
        self._irreducibles: dict[tuple, tuple[IntPoly, ...]] = {}

    def irreducibles(self, mu: tuple[int, ...]) -> tuple[IntPoly, ...]:
        """The distinct monic irreducible factors of P_mu."""
        if mu not in self._irreducibles:
            dual = _dual(mu, self.n)
            if sum(dual) >= sum(mu):
                found = self._from_deals(mu)
            elif dual:
                s = self._det ** mu[0]
                found = [_moved(g, s, inverted=True) for g in self.irreducibles(dual)]
            else:
                found = [IntPoly((-self._det ** mu[0], 1))]
            self._irreducibles[mu] = tuple(sorted(set(found), key=IntPoly.sort_key))
        return self._irreducibles[mu]

    def _from_deals(self, mu: tuple[int, ...]) -> list[IntPoly]:
        blocks = list(self._blocks.items())
        found = []
        for deal in _deals(mu, len(blocks)):
            s, key = 1, []
            for nu, (f, block) in zip(deal, blocks):
                if len(nu) > block.e * f.degree():
                    break
                if f.degree() == 1:
                    s *= (-f.constant()) ** sum(nu)
                elif nu:
                    key.append((f, nu))
            else:
                found += [_moved(g, s) for g in self._local_factors(tuple(key))]
        return found

    def _local_factors(self, key: tuple) -> tuple[IntPoly, ...]:
        # the factors of the piece whose roots are the products of one
        # local monomial of nu per nonlinear block f, over (f, nu) in key
        if key not in self._local:
            P = self._piece(key)
            (f, nu), *rest = key
            group = None if rest or P.degree() <= 4 else self._group(f)
            found = None
            if group == "S_n" and squarefree_mod_small_prime(P):
                found = (P,)
            elif group == "A_3" and P.degree() == 6:
                found = _cyclic_pair(P, -(-f.constant()) ** sum(nu))
            self._local[key] = found or tuple(g for g, _ in factor_over_Z(P).factors)
        return self._local[key]

    def _piece(self, key: tuple) -> IntPoly:
        degree = math.prod(
            math.perm(self._blocks[f].e * f.degree(), len(nu)) // _orbit_type(nu).symmetry
            for f, nu in key
        )
        sums = [1] * degree
        for f, nu in key:
            t = self._block_sums(f, degree * sum(nu))
            sums = list(map(operator.mul, sums, _orbit_sums(nu, t, degree)))
        return from_power_sums(sums)

    def _block_sums(self, f: IntPoly, need: int) -> list[int]:
        # at least `need` power sums of the roots of f^e; grown
        # geometrically, since each audit level asks for more than the
        # last (deg f more at a quadratic block: 4, 6, ..., 2K)
        block = self._blocks[f]
        if len(block.sums) < need:
            block.sums = [block.e * s for s in power_sums(f, max(need, 2 * len(block.sums)))]
        return block.sums

    def _group(self, f: IntPoly) -> Optional[str]:
        # "S_n" or "A_3" when that is the proven Galois group of the
        # block f, else None
        block = self._blocks[f]
        if block.group == "?":
            n, group = f.degree(), None
            if block.e == 1 and n >= 3:
                s = [n] + self._block_sums(f, 2 * n - 2)
                disc = determinant(IntMatrix.from_rows(s[i : i + n] for i in range(n)))
                square = disc > 0 and math.isqrt(disc) ** 2 == disc
                if n == 3:
                    group = "A_3" if square else "S_n"
                elif n == 4 and not square:
                    c0, c1, c2, c3, _ = f.coeffs
                    r0 = c3 * c3 * c0 - 4 * c2 * c0 + c1 * c1
                    resolvent = IntPoly((-r0, c1 * c3 - 4 * c0, -c2, 1))
                    group = None if _has_integer_root(resolvent) else "S_n"
                elif n > 4 and not square and has_symmetric_galois_group(f):
                    group = "S_n"
            block.group = group
        return block.group

    def unit_free(self, mu: tuple[int, ...]) -> bool:
        """True when no irreducible factor of P_mu has the value +-1 at 1;
        a type read from its dual builds no factor of its own."""
        dual = _dual(mu, self.n)
        if sum(dual) < sum(mu):
            # a factor from g has the value +-g(s) at 1, s = det^(mu_1);
            # an empty dual gives x - s, of value 0 or 2
            at, gs = self._det ** mu[0], (self.irreducibles(dual) if dual else ())
        else:
            at, gs = 1, self.irreducibles(mu)
        return all(abs(g.evaluate(at)) != 1 for g in gs)

    def level(self, k: int, lie: bool) -> AfResult:
        """Factor values of the tensor level k, or with lie of L_k."""
        found: set[IntPoly] = set()
        for mu, in_lie in _level_types(k, self.n):
            if in_lie or not lie:
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
    return abs(det_minus_identity(A)) == 1


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
    _validated_primes((p,))
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
    f = char_poly(A.minus_identity())
    for k in range(1, A.rows + 1):
        P = _orbit_poly(f, (1,) * k)
        if P.evaluate(1) == 0 or P.evaluate(-1) == 0:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class AuditRecord:
    k: int
    af_nilpotent: bool
    af_p_finite: Optional[bool]
    af: AfResult


# the caps bound n^k and the Witt dimension at every level; each is
# checked before char(A) is factored, tensor levels before Lie levels


def _check_tensor_cap(n: int, K: int, side_cap: int) -> None:
    # for n >= 2 some n^k with k <= side_cap passes the cap first; the
    # bound on K itself is what caps rank 1, where n^k stays 1
    (side_cap,) = _ints((side_cap,))
    for k in range(1, min(K, side_cap) + 1):
        kronecker_side(n, k, side_cap)
    if K > side_cap:
        raise SizeCapExceeded(f"tensor bound {K} exceeds cap {side_cap}")


def _check_lie_cap(n: int, K: int, witt_cap: int) -> None:
    (witt_cap,) = _ints((witt_cap,))
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


def _check_audit_input(
    A: IntMatrix, K: int, primes: Iterable[int]
) -> tuple[int, tuple[int, ...]]:
    """K as an int and the requested primes, validated, once A is
    unimodular and K >= 1."""
    _require_unimodular(A)
    (K,) = _ints((K,))
    if K < 1:
        raise ValueError("bound K must be at least 1")
    return K, _validated_primes(primes)


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
    K, _ = _check_audit_input(A, K, () if p is None else (p,))
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
    K, _ = _check_audit_input(A, K, () if p is None else (p,))
    _check_lie_cap(A.rows, K, witt_cap)
    return _audit_levels(_GradedFactors(A), K, p, lie=True)


def augmentation_power_check(Bs: Iterable[IntMatrix], modulus: int) -> Optional[int]:
    """Smallest N such that every length-N product of the matrices
    (B_i - E) vanishes, exactly when modulus is 0, entrywise mod m when
    modulus m >= 2; None when no N exists.

    Runs a breadth-first closure on the spanned sublattice: V_0 = Z^n,
    V_{l+1} = sum over i of (B_i - E)V_l (plus m Z^n when reducing mod
    m).  The chain is decreasing, so stabilization above the target
    means no N exists and the search stops early.  Mod m the chain runs
    from Z^n to m Z^n, each strict step at least doubling the index, so
    n*log2(m) + 1 steps decide; over Z the rational span of V_l is zero
    or stable by step n, so n + 1 steps decide.
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
    diffs = [B.minus_identity() for B in mats]
    extra = []
    if modulus:
        mE = IntMatrix.identity(n) * modulus
        extra = [mE.col(j) for j in range(n)]
        target = SubLattice.from_generators(mE)
    V = SubLattice.full(n)
    steps = n * modulus.bit_length() + 1 if modulus else n + 1
    for N in range(1, steps + 1):
        gens = [D.apply(V.basis.col(j)) for D in diffs for j in range(V.rank)]
        Vnext = SubLattice.from_generators(IntMatrix.from_cols(n, gens + extra))
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
    return Witness(
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
    the primes in proven are reported even when not requested.
    """
    if resnil is False:
        values = dict.fromkeys(req, False)
    else:
        values = dict.fromkeys(proven, True)
        for p in req:
            values.setdefault(p, True if all_primes else None)

    # req passed _validated_primes; proven holds primes by construction
    return Verdict(resnil, all_primes, tuple(values.items()), lcs, witnesses, _checked=True)


def classify_f2(A: IntMatrix, primes: Iterable[int] = ()) -> Verdict:
    """Exact trichotomy for a rank-2 free fiber, decided by det and
    trace alone.

    det(A-E) = +-1 (det=1, tr in {1,3} or det=-1, tr=+-1): series
    length two, not residually nilpotent.  det=1, tr outside {1,3}:
    length omega, residually p-finite for every prime dividing tr-2
    (all primes at tr=2).  det=-1, tr even: length omega, residually
    2-finite.  det=-1, tr odd, tr != +-1: length omega^2.  All
    certainties are proven; primes beyond the derived set stay unknown
    because the derived set is a lower bound.
    """
    _require_square(A)
    if A.rows != 2:
        raise Not2x2(f"need a 2x2 matrix, got {A.rows}x{A.cols}")
    det = _require_unimodular(A)
    req = _validated_primes(primes)
    tr = A.trace()
    dAe = det_minus_identity(A)

    if abs(dAe) == 1:
        witnesses = [
            Witness(
                "rank2_classification",
                f"det={det}, tr={tr}: gamma_2 = gamma_omega is the fiber",
            ),
            Witness("fiber_stabilization", f"det(A-E)={dAe} is a unit"),
        ]
        return _verdict(False, LcsLength.TWO, witnesses, req)

    if det == 1:
        d = tr - 2
        if d == 0:
            witnesses = [
                Witness(
                    "rank2_classification",
                    f"det=1, tr=2: tr-2=0, residually p-finite for every prime",
                ),
                _chain_witness(),
            ]
            return _verdict(True, LcsLength.OMEGA, witnesses, req, all_primes=True)
        ps = prime_divisors(d)
        witnesses = [
            Witness(
                "rank2_classification",
                f"det=1, tr={tr}: residually p-finite for p dividing tr-2={d}",
            ),
            _chain_witness(),
        ]
        return _verdict(True, LcsLength.OMEGA, witnesses, req, proven=ps)

    if tr % 2 == 0:
        witnesses = [
            Witness(
                "rank2_classification",
                f"det=-1, tr={tr} even: residually 2-finite",
            ),
            _chain_witness(),
        ]
        return _verdict(True, LcsLength.OMEGA, witnesses, req, proven=(2,))

    witnesses = [
        Witness(
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
    if base.residually_nilpotent is True:
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
    assert sub.residually_nilpotent is True
    witnesses = sub.witnesses + (
        Witness(
            "virtual_subgroup",
            f"index {index} subgroup via monodromy power {index}: "
            f"det={determinant(P)}, tr={P.trace()}",
        ),
    )
    return SubgroupReport(index, P, dataclasses.replace(sub, witnesses=witnesses, _checked=True))


def _audit_witnesses(graded: _GradedFactors, K: int) -> list[Witness]:
    # one sweep over each level's orbit types sets its tensor and Lie bits
    tensor, lie = [], []
    for k in range(1, K + 1):
        free = [(graded.unit_free(mu), in_lie) for mu, in_lie in _level_types(k, graded.n)]
        tensor.append(f"k={k} {'pass' if all(f for f, _ in free) else 'fail'}")
        lie.append(f"k={k} {'pass' if all(f for f, in_lie in free if in_lie) else 'fail'}")
    return [
        Witness(
            "tensor_power_audit",
            f"af-nilpotence on tensor powers: {', '.join(tensor)}; verified up to bound {K}",
        ),
        Witness(
            "lie_component_audit",
            f"af-nilpotence on Lie components: {', '.join(lie)}; verified up to bound {K}",
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
    audits are reported as witness evidence ("verified up to bound K"),
    never flipping the verdict.
    """
    A = abelianization_matrix(obj) if isinstance(obj, FreeEndo) else obj
    n = A.rows
    K = tensor_bound if tensor_bound is not None else (4 if n == 2 else 3)
    K, req = _check_audit_input(A, K, primes)
    # det(A - E) = +-1, read from char(A), decides rank >= 3 without the
    # caps; any other input meets the caps before char(A) is factored
    dAe = det_minus_identity(A)
    fiber = n != 2 and abs(dAe) == 1
    if not fiber:
        _check_tensor_cap(n, K, side_cap)
        _check_lie_cap(n, K, witt_cap)

    # char(A) and each orbit polynomial are factored once per call
    graded = _GradedFactors(A)
    if n == 2:
        v = classify_f2(A, primes=req)
        witnesses = v.witnesses + tuple(_audit_witnesses(graded, K))
        return dataclasses.replace(v, witnesses=witnesses, _checked=True)

    witnesses: list[Witness] = []
    af = graded.level(1, lie=False)
    vals = ", ".join(f"({f}) -> {val}" for f, val in af.factor_values)
    factor_witness = Witness("char_poly_factor_values", f"factor values at 1: {vals}")

    if fiber:
        witnesses.append(
            Witness(
                "fiber_stabilization",
                f"det(A-E)={dAe} is a unit: gamma_2 = gamma_omega is the fiber",
            )
        )
        witnesses.append(factor_witness)
        return _verdict(False, LcsLength.TWO, witnesses, req)

    proven: set[int] = set()
    all_flag = False

    iec = _integer_spectrum(graded.irreducibles((1,)))
    if iec is not None:
        all_plus, has_minus = iec
        if all_plus:
            all_flag = True
            witnesses.append(
                Witness(
                    "integer_spectrum",
                    "all eigenvalues are +1: residually p-finite for every prime",
                )
            )
        else:
            assert has_minus
            proven.add(2)
            witnesses.append(
                Witness(
                    "integer_spectrum",
                    "all eigenvalues are +-1 with a -1: residually 2-finite",
                )
            )

    # p has a certificate (A-E)^N = 0 mod p, N <= n, exactly when A - E is
    # nilpotent mod p, that is when char(A - E) = char(A)(x + 1) is x^n mod
    # p (Cayley-Hamilton one way): p divides each of its coefficients
    # below the top, found by a Taylor shift of char(A).  Then p divides
    # every factor value at 1 too, and only the gcd of both is factored
    if not all_flag:
        c = list(graded.char.coeffs)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += c[j + 1]
        g = math.gcd(*c[:n], *af.values())
        for p in prime_divisors(g):
            if p in proven:
                continue
            N = mod_p_unipotency(A, p)
            assert N is not None
            proven.add(p)
            witnesses.append(
                Witness(
                    "congruence_unipotency",
                    f"(A-E)^{N} = 0 mod {p}: residually {p}-finite",
                )
            )

    witnesses.append(factor_witness)
    if not af.nilpotent:
        witnesses.append(
            Witness(
                "abelian_quotient_evidence",
                "the abelianized fiber group is not residually nilpotent; "
                "no conclusion for the full group",
            )
        )
    # every proven source above is a residual p-finiteness certificate
    resnil = bool(proven) or all_flag
    if resnil:
        witnesses.append(_chain_witness())

    witnesses.extend(_audit_witnesses(graded, K))

    if resnil:
        # a rank-1 fiber (n = 1 reaches this path) keeps its length unknown
        lcs = LcsLength.OMEGA if n >= 2 else LcsLength.UNKNOWN
        return _verdict(True, lcs, witnesses, req, proven, all_flag)
    witnesses.append(
        Witness(
            "rank_open_problem",
            f"rank {n}: no exact classification applies; "
            "series length left unknown",
        )
    )
    return _verdict(None, LcsLength.UNKNOWN, witnesses, req)


def classify_family(mats: Iterable[IntMatrix], primes: Iterable[int] = ()) -> Verdict:
    """Classifier for a fiber acted on by a family of action matrices,
    from a certificate at the prime 2.

    The family's augmentation powers landing in 2 times the fiber
    lattice prove residual 2-finiteness, hence residual nilpotence;
    otherwise nothing is concluded.  That landing makes every B - E
    nilpotent mod 2, so each matrix also gets its own mod-2 unipotency
    witness.  Requested primes other than 2 are reported unknown.
    """
    req = _validated_primes(primes)
    mats = list(mats)
    witnesses = []
    for i, B in enumerate(mats, 1):
        N = mod_p_unipotency(B, 2)
        if N is not None:
            witnesses.append(
                Witness(
                    "congruence_unipotency",
                    f"matrix {i}: (B-E)^{N} = 0 mod 2",
                )
            )
    aug = augmentation_power_check(mats, 2)
    if aug is None:
        witnesses.append(
            Witness(
                "abelian_quotient_evidence",
                "family certificate incomplete; no conclusion",
            )
        )
        return _verdict(None, LcsLength.UNKNOWN, witnesses, req)
    witnesses.append(
        Witness(
            "augmentation_contraction",
            f"augmentation power {aug} of the family lands in 2 times "
            "the fiber lattice",
        )
    )
    witnesses.append(
        Witness(
            "p_finite_implies_nilpotent",
            "residual 2-finiteness of the family implies residual nilpotence",
        )
    )
    return _verdict(True, LcsLength.UNKNOWN, witnesses, req, proven=(2,))

"""Exact integer linear algebra.

Characteristic polynomials by Hessenberg reduction modulo an odd N
past twice a Hadamard bound on their coefficients, cached on each
matrix, with det M and det(M - E) read from them; Kronecker powers,
column Hermite normal form, Smith normal form with recorded transforms,
and sublattice membership.  No floating point anywhere.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

from .errors import DimensionMismatch, NotSquare, NotUnimodular, SizeCapExceeded
from .intpoly import IntPoly, _ints, _power, _symmetric

__all__ = [
    "IntMatrix",
    "SubLattice",
    "SmithForm",
    "DEFAULT_SIDE_CAP",
    "determinant",
    "det_minus_identity",
    "char_poly",
    "kronecker_power",
    "kronecker_side",
    "hermite_form",
    "smith_form",
    "lattice_chain",
    "lattice_contains",
    "is_unimodular",
]

DEFAULT_SIDE_CAP = 4096


@dataclasses.dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries):
        rows, cols = _ints((rows, cols))
        entries = tuple(_ints(entries))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise DimensionMismatch(
                f"{rows} x {cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @staticmethod
    def from_rows(data) -> "IntMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise DimensionMismatch("ragged rows")
        return IntMatrix(rows, cols, [e for r in data for e in r])

    @staticmethod
    def from_cols(rows: int, cols) -> "IntMatrix":
        """The rows x len(cols) matrix whose column j is cols[j]; rows is
        explicit so that an empty column list still has a shape."""
        cols = list(cols)
        if any(len(c) != rows for c in cols):
            raise DimensionMismatch(f"columns must have length {rows}")
        return IntMatrix(rows, len(cols), [e for r in zip(*cols) for e in r])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [0] * (rows * cols))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix.from_cols(self.cols, [self.row(i) for i in range(self.rows)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def trace(self) -> int:
        if not self.is_square():
            raise NotSquare("trace needs a square matrix")
        return sum(self.entries[i * self.cols + i] for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch in addition")
        return IntMatrix(self.rows, self.cols, map(operator.add, self.entries, other.entries))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols, map(operator.sub, self.entries, other.entries))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (-e for e in self.entries))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols, (e * other for e in self.entries))
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        bcols = [other.col(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            arow = self.row(i)
            for bc in bcols:
                out.append(sum(map(operator.mul, arow, bc)))
        return IntMatrix(self.rows, other.cols, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def apply(self, vec) -> tuple[int, ...]:
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        return tuple(sum(map(operator.mul, self.row(i), vec)) for i in range(self.rows))

    def power(self, k: int) -> "IntMatrix":
        if not self.is_square():
            raise NotSquare("matrix power needs a square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        return _power(self, k, operator.mul, IntMatrix.identity(self.rows))

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (e % m for e in self.entries))

    def minus_identity(self) -> "IntMatrix":
        if not self.is_square():
            raise NotSquare("A - I needs a square matrix")
        return self._minus_identity

    # immutable, so A - E and char(A) are formed once per matrix
    _minus_identity = functools.cached_property(lambda self: self - IntMatrix.identity(self.rows))
    _char_poly = functools.cached_property(lambda self: _hessenberg_char_poly(self))

    def __str__(self) -> str:
        return str(self.to_rows())


def determinant(M: IntMatrix) -> int:
    """det M = (-1)^n char(M)(0), read from the char poly of M."""
    if not M.is_square():
        raise NotSquare("determinant needs a square matrix")
    return (-1) ** M.rows * M._char_poly.constant()


def det_minus_identity(M: IntMatrix) -> int:
    """det(M - E) = (-1)^n char(M)(1), read from the char poly of M, so
    M - E is never reduced."""
    return (-1) ** M.rows * char_poly(M).evaluate(1)


def is_unimodular(M: IntMatrix) -> bool:
    """True iff det M is +1 or -1."""
    if not M.is_square():
        raise NotSquare("unimodularity needs a square matrix")
    return abs(determinant(M)) == 1


def char_poly(M: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M).

    M is reduced to upper Hessenberg form by similarity over Z/N, and
    the char poly of that form comes from the recurrence on its leading
    principal blocks (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.2.9).  The coefficient of x^(n-k) is, up to
    sign, the sum of the principal k-minors of M, and each is at most
    the product of its rows' Euclidean norms (Hadamard), so with r_i =
    ||row_i||_2 every coefficient is at most prod_i (1 + r_i) <
    prod_i (2 + floor(r_i)) in absolute value.  N is odd and past twice
    that product, and the symmetric residues mod N are the coefficients.

    N need not be prime.  Each step pivots on an entry that is a unit
    mod N (a gcd test); a column with nonzero entries but no unit takes
    the next odd N.  That loop ends: at a prime N every nonzero entry is
    a unit.  The coefficient of x^(n-1) is checked against -tr M over Z.
    A matrix of side at most 2 is already Hessenberg, and its recurrence
    runs over Z.  The result is cached on M, so M is reduced once.
    """
    if not M.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    return M._char_poly


def _hessenberg_char_poly(M: IntMatrix) -> IntPoly:
    n = M.rows
    if n < 2:
        return IntPoly([-M.entries[0], 1] if n else [1])
    if n == 2:
        a, b, c, d = M.entries
        return IntPoly([a * d - b * c, -a - d, 1])
    rows = M.to_rows()
    N = 2 * math.prod(2 + math.isqrt(sum(map(operator.mul, r, r))) for r in rows) + 1
    H = _hessenberg_mod(rows, N)
    while H is None:
        N += 2
        H = _hessenberg_mod(rows, N)
    # p[m] = det(x*I - H_m), H_m the leading m x m block of H: expanding
    # along the last column, p[m+1] = (x - h_mm) p[m] - sum over i < m of
    # h_im h_(i+1,i) ... h_(m,m-1) p[i]
    p = [[1]]
    for m in range(n):
        prev = p[-1]
        h = H[m][m]
        acc = [-h * prev[0]] + [a - h * b for a, b in zip(prev, prev[1:])] + [1]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % N
            if not t:
                break
            c = H[i][m] * t
            if c:
                for k, b in enumerate(p[i]):
                    acc[k] -= c * b
        p.append([a % N for a in acc])
    coeffs = [_symmetric(a, N) for a in p[-1]]
    assert -coeffs[n - 1] == sum(r[i] for i, r in enumerate(rows)), "char poly is not tr M"
    return IntPoly(coeffs)


def _hessenberg_mod(rows: list[list[int]], N: int) -> list[list[int]] | None:
    # rows mod N of an upper Hessenberg matrix similar over Z/N to the
    # square matrix of the given rows, or None when a column below the
    # subdiagonal has nonzero entries but none that is a unit mod N
    n = len(rows)
    H = [[e % N for e in r] for r in rows]
    for m in range(1, n - 1):
        col = m - 1
        for piv in range(m, n):
            if math.gcd(H[piv][col], N) == 1:
                break
        else:
            if any(H[i][col] for i in range(m, n)):
                return None
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        # clear H[i][col] below row m: row i minus u times row m, then, for
        # the similarity, column m plus u times column i.  Left of col, rows
        # m on are zero; rm[col:] is read per i, as column steps change rm[m]
        inv = pow(H[m][col], -1, N)
        rm = H[m]
        for i in range(m + 1, n):
            u = H[i][col]
            if u:
                u = u * inv % N
                H[i][col:] = [(x - u * y) % N for x, y in zip(H[i][col:], rm[col:])]
                for row in H:
                    row[m] += u * row[i]
        for row in H:
            row[m] %= N
    return H


def _kron(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    out = []
    for ai in range(A.rows):
        arow = A.row(ai)
        for bi in range(B.rows):
            brow = B.row(bi)
            for a in arow:
                out.extend(a * b for b in brow)
    return IntMatrix(A.rows * B.rows, A.cols * B.cols, out)


def kronecker_side(n: int, k: int, side_cap: int = DEFAULT_SIDE_CAP) -> int:
    """Side n^k of the k-th Kronecker power of an n x n matrix; raises
    SizeCapExceeded past the cap."""
    if n**k > side_cap:
        raise SizeCapExceeded(f"Kronecker power side {n}^{k} exceeds cap {side_cap}")
    return n**k


def kronecker_power(M: IntMatrix, k: int, side_cap: int = DEFAULT_SIDE_CAP) -> IntMatrix:
    """k-fold Kronecker power of a square matrix.

    Raises SizeCapExceeded when the resulting side length n^k would pass
    the cap (default 4096 rows).
    """
    if not M.is_square():
        raise NotSquare("Kronecker power needs a square matrix")
    if k < 1:
        raise ValueError("Kronecker power exponent must be >= 1")
    kronecker_side(M.rows, k, side_cap)
    acc = M
    for _ in range(k - 1):
        acc = _kron(acc, M)
    return acc


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, s, t) with g = s*a + t*b = +-gcd(a, b); (a, 1, 0) when a divides b,
    # so a pivot that divides its column keeps its row (smith_form ends on it)
    if b % a == 0:
        return a, 1, 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _row_hermite(R: list[list[int]], W: list[list[int]]) -> None:
    # R to canonical row Hermite form in place by unimodular row operations,
    # each also applied to W, so W is left-multiplied by the transform
    m = len(R)
    n = len(R[0]) if m else 0
    prow = 0
    for col in range(n):
        if prow == m:
            break
        pivot = next((i for i in range(prow, m) if R[i][col]), None)
        if pivot is None:
            continue
        R[prow], R[pivot] = R[pivot], R[prow]
        W[prow], W[pivot] = W[pivot], W[prow]
        for i in range(prow + 1, m):
            if not R[i][col]:
                continue
            a, b = R[prow][col], R[i][col]
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            for X in (R, W):
                xp, xi = X[prow], X[i]
                X[prow] = [s * x + t * y for x, y in zip(xp, xi)]
                X[i] = [u * y - v * x for x, y in zip(xp, xi)]
        if R[prow][col] < 0:
            R[prow] = [-x for x in R[prow]]
            W[prow] = [-x for x in W[prow]]
        p = R[prow][col]
        for i in range(prow):
            q = R[i][col] // p
            if q:
                R[i] = [x - q * y for x, y in zip(R[i], R[prow])]
                W[i] = [x - q * y for x, y in zip(W[i], W[prow])]
        prow += 1


def hermite_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M * U and U unimodular.  Nonzero columns of
    H come first; the topmost nonzero entry of each (its pivot) is
    positive; pivot rows strictly increase left to right; entries to the
    left of a pivot in the pivot's row are reduced into [0, pivot).
    """
    R, W = M.transpose().to_rows(), IntMatrix.identity(M.cols).to_rows()
    _row_hermite(R, W)
    return IntMatrix.from_cols(M.rows, R), IntMatrix.from_cols(M.cols, W)


@dataclasses.dataclass(frozen=True)
class SubLattice:
    """A sublattice of Z^n held by its canonical column Hermite basis.

    The basis has zero columns trimmed, so rank == basis.cols.  Two
    SubLattice values are equal exactly when they describe the same
    lattice, because the canonical basis is unique.
    """

    ambient_rank: int
    basis: IntMatrix
    rank: int

    @staticmethod
    def from_generators(M: IntMatrix) -> "SubLattice":
        H, _ = hermite_form(M)
        keep = [c for c in map(H.col, range(H.cols)) if any(c)]
        return SubLattice(M.rows, IntMatrix.from_cols(M.rows, keep), len(keep))

    @staticmethod
    def full(n: int) -> "SubLattice":
        return SubLattice(n, IntMatrix.identity(n), n)

    def is_full(self) -> bool:
        return self == SubLattice.full(self.ambient_rank)

    def is_zero(self) -> bool:
        return self.rank == 0

    def contains(self, vec) -> bool:
        return lattice_contains(self, vec)

    def elementary_divisors(self) -> tuple[int, ...]:
        """Smith invariants of the basis matrix (rank many values)."""
        if self.rank == 0:
            return ()
        return smith_form(self.basis).elementary_divisors

    def index_in_ambient(self) -> int | None:
        """Index [Z^n : L] when finite, i.e. when the lattice has full
        rank; None otherwise."""
        if self.rank < self.ambient_rank:
            return None
        return abs(determinant(self.basis))


def lattice_contains(L: SubLattice, vec) -> bool:
    """Exact membership by back-substitution against the Hermite basis."""
    v = _ints(vec)
    if len(v) != L.ambient_rank:
        raise DimensionMismatch(
            f"vector length {len(v)} does not match ambient rank {L.ambient_rank}"
        )
    for j in range(L.rank):
        col = L.basis.col(j)
        p = next(i for i, x in enumerate(col) if x)
        if v[p] % col[p]:
            return False
        c = v[p] // col[p]
        if c:
            for i in range(p, len(v)):
                v[i] -= c * col[i]
    return not any(v)


@dataclasses.dataclass(frozen=True)
class SmithForm:
    """Diagonalization U * M * V = D with U, V unimodular and the
    diagonal entries nonnegative, each dividing the next."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    elementary_divisors: tuple[int, ...]


def smith_form(M: IntMatrix) -> SmithForm:
    """Smith normal form with recorded row and column transforms.

    Alternates row Hermite forms of D and of its transpose until D is
    diagonal (Kannan and Bachem 1979), then, while some d_i does not
    divide d_(i+1), adds column i+1 to column i and repeats.  It ends:
    each pass finishes the first unfinished pivot or strictly lowers it,
    and each added column lowers some d_i and keeps d_1..d_(i-1).
    """
    m, n = M.rows, M.cols
    D, U, Vt = M.to_rows(), IntMatrix.identity(m).to_rows(), IntMatrix.identity(n).to_rows()
    while True:
        _row_hermite(D, U)
        Dt = IntMatrix.from_cols(n, D).to_rows()
        _row_hermite(Dt, Vt)
        D = IntMatrix.from_cols(m, Dt).to_rows()
        if any(D[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        ds = tuple(D[i][i] for i in range(min(m, n)))
        i = next((i for i in range(len(ds) - 1) if math.gcd(ds[i], ds[i + 1]) != ds[i]), None)
        if i is None:
            break
        # add column i+1 to column i; D is diagonal, so one entry changes
        D[i + 1][i] = ds[i + 1]
        Vt[i] = [x + y for x, y in zip(Vt[i], Vt[i + 1])]
    V = IntMatrix.from_cols(n, Vt)
    D, U = IntMatrix(m, n, itertools.chain(*D)), IntMatrix(m, m, itertools.chain(*U))
    return SmithForm(D, U, V, ds)


def lattice_chain(A: IntMatrix, K: int) -> list[SubLattice]:
    """Sublattices (A - I)^j Z^n for j = 1..K, each in canonical form.

    Requires A unimodular; raises NotUnimodular otherwise.  The chain is
    descending: each lattice contains the next.
    """
    if not A.is_square():
        raise NotSquare("lattice chain needs a square matrix")
    if not is_unimodular(A):
        raise NotUnimodular("lattice chain is defined for unimodular actions")
    B = A.minus_identity()
    out = []
    cur = B
    for _ in range(K):
        out.append(SubLattice.from_generators(cur))
        cur = cur * B
    return out

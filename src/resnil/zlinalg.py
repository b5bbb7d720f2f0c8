"""Exact integer linear algebra.

Determinants (fraction-free Bareiss), characteristic polynomials
(Newton's identities on power traces), Kronecker powers, compound
matrices, column Hermite normal form, Smith normal form with recorded
transforms, and sublattice membership.  No floating point anywhere.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator

from .errors import (
    BadCompoundOrder,
    DimensionMismatch,
    NotSquare,
    NotUnimodular,
    SizeCapExceeded,
)
from .intpoly import IntPoly, from_power_sums

__all__ = [
    "IntMatrix",
    "SubLattice",
    "SmithForm",
    "DEFAULT_SIDE_CAP",
    "determinant",
    "char_poly",
    "kronecker_power",
    "kronecker_side",
    "compound_matrix",
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
        entries = tuple(int(e) for e in entries)
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
        return IntMatrix(
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

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
        out = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def mod(self, m: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, (e % m for e in self.entries))

    def minus_identity(self) -> "IntMatrix":
        if not self.is_square():
            raise NotSquare("A - I needs a square matrix")
        return self - IntMatrix.identity(self.rows)

    def __str__(self) -> str:
        return str(self.to_rows())


def determinant(M: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not M.is_square():
        raise NotSquare("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ri = a[i]
            rk = a[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - aik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * a[n - 1][n - 1]


def is_unimodular(M: IntMatrix) -> bool:
    """True iff det M is +1 or -1."""
    if not M.is_square():
        raise NotSquare("unimodularity needs a square matrix")
    return abs(determinant(M)) == 1


def char_poly(M: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(x*I - M).

    Newton's identities on the traces tr(M^j), j = 1..n; a division
    that is not exact raises ArithmeticError.
    """
    if not M.is_square():
        raise NotSquare("characteristic polynomial needs a square matrix")
    traces = []
    N = M
    for j in range(M.rows):
        if j:
            N = N * M
        traces.append(N.trace())
    return from_power_sums(traces)


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


def _submatrix(M: IntMatrix, rows_sel, cols_sel) -> IntMatrix:
    ents = [M.get(i, j) for i in rows_sel for j in cols_sel]
    return IntMatrix(len(rows_sel), len(cols_sel), ents)


def compound_matrix(M: IntMatrix, k: int) -> IntMatrix:
    """k-th compound: minors over k-subsets of rows and columns.

    Subsets are enumerated in lexicographic order on both axes.  The
    eigenvalues of the result are the k-fold products of eigenvalues of
    M, which is what makes this useful for eigenvalue-product tests.
    """
    if not M.is_square():
        raise NotSquare("compound matrix needs a square matrix")
    n = M.rows
    if not 1 <= k <= n:
        raise BadCompoundOrder(f"order {k} outside 1..{n}")
    subs = list(itertools.combinations(range(n), k))
    ents = [determinant(_submatrix(M, S, T)) for S in subs for T in subs]
    return IntMatrix(len(subs), len(subs), ents)


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


def _transposed(R: list[list[int]], cols: int) -> list[list[int]]:
    return [[r[j] for r in R] for j in range(cols)]


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
    H = IntMatrix(M.cols, M.rows, itertools.chain(*R)).transpose()
    U = IntMatrix(M.cols, M.cols, itertools.chain(*W)).transpose()
    return H, U


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
        cols = [H.col(j) for j in range(H.cols)]
        keep = [c for c in cols if any(c)]
        rank = len(keep)
        ents = [keep[j][i] for i in range(M.rows) for j in range(rank)]
        return SubLattice(M.rows, IntMatrix(M.rows, rank, ents), rank)

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
    v = [int(x) for x in vec]
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
        Dt = _transposed(D, n)
        _row_hermite(Dt, Vt)
        D = _transposed(Dt, m)
        if any(D[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        ds = tuple(D[i][i] for i in range(min(m, n)))
        i = next((i for i in range(len(ds) - 1) if math.gcd(ds[i], ds[i + 1]) != ds[i]), None)
        if i is None:
            break
        # add column i+1 to column i; D is diagonal, so one entry changes
        D[i + 1][i] = ds[i + 1]
        Vt[i] = [x + y for x, y in zip(Vt[i], Vt[i + 1])]
    V = IntMatrix(n, n, itertools.chain(*Vt)).transpose()
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

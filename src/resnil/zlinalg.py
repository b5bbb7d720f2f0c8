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
            base = base * base
            k >>= 1
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
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _row_hermite(A: IntMatrix) -> tuple[list[list[int]], list[list[int]]]:
    # canonical row Hermite form R = W * A, W unimodular
    m, n = A.rows, A.cols
    R = A.to_rows()
    W = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    prow = 0
    for col in range(n):
        if prow == m:
            break
        pivot = None
        for i in range(prow, m):
            if R[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != prow:
            R[prow], R[pivot] = R[pivot], R[prow]
            W[prow], W[pivot] = W[pivot], W[prow]
        for i in range(prow + 1, m):
            if not R[i][col]:
                continue
            a, b = R[prow][col], R[i][col]
            g, s, t = _xgcd(a, b)
            u, v = a // g, b // g
            rp, ri = R[prow], R[i]
            R[prow] = [s * x + t * y for x, y in zip(rp, ri)]
            R[i] = [u * y - v * x for x, y in zip(rp, ri)]
            wp, wi = W[prow], W[i]
            W[prow] = [s * x + t * y for x, y in zip(wp, wi)]
            W[i] = [u * y - v * x for x, y in zip(wp, wi)]
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
    return R, W


def hermite_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Canonical column Hermite normal form.

    Returns (H, U) with H = M * U and U unimodular.  Nonzero columns of
    H come first; the topmost nonzero entry of each (its pivot) is
    positive; pivot rows strictly increase left to right; entries to the
    left of a pivot in the pivot's row are reduced into [0, pivot).
    """
    R, W = _row_hermite(M.transpose())
    H = IntMatrix.from_rows(R).transpose()
    U = IntMatrix.from_rows(W).transpose()
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
    """Smith normal form with recorded row and column transforms."""
    m, n = M.rows, M.cols
    A = M.to_rows()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, q):
        A[dst] = [x + q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    for s in range(min(m, n)):
        while True:
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    if A[i][j] and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best != (s, s):
                if best[0] != s:
                    swap_rows(s, best[0])
                if best[1] != s:
                    swap_cols(s, best[1])
            if A[s][s] < 0:
                negate_row(s)
            p = A[s][s]
            clean = True
            for i in range(s + 1, m):
                q = A[i][s] // p
                if q:
                    addmul_row(i, s, -q)
                if A[i][s]:
                    clean = False
            for j in range(s + 1, n):
                q = A[s][j] // p
                if q:
                    addmul_col(j, s, -q)
                if A[s][j]:
                    clean = False
            if not clean:
                continue
            offender = None
            for i in range(s + 1, m):
                for j in range(s + 1, n):
                    if A[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(s, offender, 1)
    divisors = tuple(A[i][i] for i in range(min(m, n)))
    D = IntMatrix(m, n, [A[i][j] if i == j else 0 for i in range(m) for j in range(n)])
    return SmithForm(D, IntMatrix.from_rows(U), IntMatrix.from_rows(V), divisors)


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

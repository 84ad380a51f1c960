"""Exact dense linear algebra over prime fields and over the rationals.

Scalars are plain Python ints reduced into ``[0, p)`` for a prime field
GF(p), or :class:`fractions.Fraction` for the rationals.  Matrices are 2-D
numpy arrays: ``int64`` for prime fields, ``object`` (Fraction entries) for
the rationals.  All arithmetic is exact; there is no floating point anywhere
in the results.

The prime-field elimination uses a blocked (panel) Gauss-Jordan whose
trailing updates run as float64 BLAS matrix products.  This is exact as long
as ``block * (p-1)**2 < 2**53``, which the field constructor enforces.  A
naive per-pivot reference implementation is kept alongside and used both for
the rationals and as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_PANEL = 64  # pivot block width for the BLAS-backed elimination


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field GF(p) for an odd prime p.

    Entries live in numpy int64 arrays, always reduced into ``[0, p)``.
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p <= 3:
            raise ValueError(f"field characteristic must be an odd prime > 3, got {p}")
        if _PANEL * (p - 1) ** 2 >= 2**52:
            raise ValueError(f"prime {p} too large for the blocked exact elimination")
        self.p = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    # -- scalar helpers -----------------------------------------------------
    def of(self, a) -> int:
        if isinstance(a, Fraction):
            return self.of(a.numerator) * self.inv(self.of(a.denominator)) % self.p
        return int(a) % self.p

    def inv(self, a: int) -> int:
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def neg(self, a) -> int:
        return (-int(a)) % self.p

    # -- matrix helpers -----------------------------------------------------
    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def matrix(self, rows) -> np.ndarray:
        m = np.array(rows, dtype=np.int64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return m % self.p


class RationalField:
    """Arbitrary-precision rational numbers; matrices hold Fraction entries."""

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def of(self, a) -> Fraction:
        return Fraction(a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def neg(self, a):
        return -Fraction(a)

    def zeros(self, shape) -> np.ndarray:
        m = np.empty(shape, dtype=object)
        m[...] = Fraction(0)
        return m

    def matrix(self, rows) -> np.ndarray:
        m = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
        for i, row in enumerate(rows):
            for j, a in enumerate(row):
                m[i, j] = Fraction(a)
        return m


QQ = RationalField()
GF32003 = PrimeField(32003)

Field = PrimeField | RationalField


# ---------------------------------------------------------------------------
# elimination kernels
# ---------------------------------------------------------------------------

def _echelon_reference(M: np.ndarray, field: Field, reduced: bool = True):
    """Per-pivot Gauss-Jordan.  Works for any field; oracle for the fast path."""
    A = M.copy()
    nrows, ncols = A.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = None
        for i in range(r, nrows):
            if A[i, c] != 0:
                nz = i
                break
        if nz is None:
            continue
        if nz != r:
            A[[r, nz]] = A[[nz, r]]
        inv = field.inv(A[r, c])
        A[r] = A[r] * inv
        if isinstance(field, PrimeField):
            A[r] %= field.p
        rows = range(nrows) if reduced else range(r + 1, nrows)
        for i in rows:
            if i != r and A[i, c] != 0:
                A[i] = A[i] - A[i, c] * A[r]
                if isinstance(field, PrimeField):
                    A[i] %= field.p
        pivots.append(c)
        r += 1
    return r, A, tuple(pivots)


def _mod_p(X: np.ndarray, p: int) -> np.ndarray:
    """In-place exact reduction of an integer-valued float64 array into [0, p).

    np.floor on x/p can be off by one at the boundary, so the quotient is
    corrected afterwards; exact for |x| < 2**52.
    """
    q = np.floor(X * (1.0 / p))
    X -= q * p
    X[X < 0] += p
    X[X >= p] -= p
    return X


def _dot_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Float64 matrix product reduced mod p, chunking the inner dimension so
    every accumulated dot product stays below 2**52 (exact)."""
    k = A.shape[1]
    step = max(1, int(2**52 // ((p - 1) ** 2)))
    if k <= step:
        return _mod_p(A @ B, p)
    acc = np.zeros((A.shape[0], B.shape[1]))
    for s in range(0, k, step):
        acc += A[:, s : s + step] @ B[s : s + step]
        _mod_p(acc, p)
    return acc


def _echelon_gfp(M: np.ndarray, p: int):
    """Left-looking blocked row echelon over GF(p).

    Column blocks are brought up to date with BLAS float64 products (exact:
    the field constructor bounds p so accumulated dot products stay below
    2**53) and each block is reduced mod p a constant number of times.

    Returns ``(rank, E, pivots, perm)``: E holds the echelon rows (unit
    pivots, zeros below, not reduced above), ``perm`` maps current row
    positions to original row indices.
    """
    A = np.ascontiguousarray(M, dtype=np.float64) % p
    m, ncols = A.shape
    rmax = min(m, ncols)
    perm = np.arange(m)
    F = np.zeros((m, rmax))  # F[i, t]: factor of row i against pivot t
    E = np.zeros((rmax, ncols))  # echelon rows, filled block by block
    chunks: list[tuple[int, int, np.ndarray]] = []  # (start, end, Linv)
    pivots: list[int] = []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        c1 = min(c0 + _PANEL, ncols)
        w = c1 - c0
        raw = A[:, c0:c1].copy()
        # true values of existing pivot rows in this block, chunk by chunk
        UB = np.empty((r, w))
        for s, e, Linv in chunks:
            Y = raw[s:e]
            if s:
                Y = Y - _dot_mod(F[s:e, :s], UB[:s], p)
                _mod_p(Y, p)
            UB[s:e] = _mod_p(Linv @ Y, p)
        E[:r, c0:c1] = UB
        if r == m:
            continue
        # current values of the active rows
        cur = raw[r:]
        if r:
            cur = cur - _dot_mod(F[r:, :r], UB, p)
            _mod_p(cur, p)
        # in-block elimination with lazy reduction (growth <= PANEL * p^2)
        ma = cur.shape[0]
        rr = 0
        invs: list[float] = []
        newpiv_local: list[int] = []
        for c in range(w):
            col = _mod_p(cur[rr:, c].copy(), p)
            cur[rr:, c] = col
            nz = np.nonzero(col)[0]
            if nz.size == 0:
                continue
            i = rr + int(nz[0])
            if i != rr:
                cur[[rr, i]] = cur[[i, rr]]
                g0, g1 = r + rr, r + i
                A[[g0, g1]] = A[[g1, g0]]
                F[[g0, g1]] = F[[g1, g0]]
                perm[[g0, g1]] = perm[[g1, g0]]
            inv = float(pow(int(cur[rr, c]), p - 2, p))
            prow = _mod_p(cur[rr, c:].copy(), p)
            prow = _mod_p(prow * inv, p)
            cur[rr, c:] = prow
            f = cur[rr:, c].copy()  # column already reduced; swaps preserve that
            f[0] = 0.0
            cur[rr:, c + 1 :] -= np.outer(f, prow[1:])
            cur[rr:, c] = 0.0
            cur[rr, c] = 1.0
            F[r + rr :, r + rr] = f
            invs.append(inv)
            newpiv_local.append(c)
            rr += 1
            if rr == ma:
                break
        if rr:
            _mod_p(cur[:rr], p)
            E[r : r + rr, c0:c1] = cur[:rr]
            # inverse of the unit-lower factor block for the new pivot chunk
            Linv = np.zeros((rr, rr))
            for t in range(rr):
                row = np.zeros(rr)
                row[t] = 1.0
                if t:
                    row -= F[r + t, r : r + t] @ Linv[:t]
                    row = _mod_p(row, p)
                Linv[t] = _mod_p(row * invs[t], p)
            chunks.append((r, r + rr, Linv))
            pivots.extend(c0 + c for c in newpiv_local)
            r += rr
    return r, E[:r], pivots, perm


def _reduce_up_gfp(A: np.ndarray, pivots: list[int], p: int):
    """Backward pass turning echelon rows 0..rank-1 of A into RREF.

    Rows are kept lazily unreduced between block passes; one final
    reduction normalizes everything.  Growth stays below 2**45.
    """
    rank = len(pivots)
    t1 = rank
    while t1 > 0:
        t0 = max(0, t1 - _PANEL)
        for t in range(t1 - 1, t0, -1):  # clear within the block, bottom pivots first
            col = pivots[t]
            _mod_p(A[t], p)  # row t is final within the block; normalize before use
            f = _mod_p(A[t0:t, col].copy(), p)
            A[t0:t] -= np.outer(f, A[t])
            A[t0:t, col] = 0.0
        _mod_p(A[t0:t1], p)
        if t0 > 0:
            block_cols = [pivots[t] for t in range(t0, t1)]
            Fb = _mod_p(A[:t0][:, block_cols].copy(), p)
            A[:t0] -= Fb @ A[t0:t1]
            A[:t0][:, block_cols] = 0.0
            if rank * (p - 1) ** 2 >= 2**51:  # keep lazy growth exact at huge ranks
                _mod_p(A[:t0], p)
        t1 = t0
    _mod_p(A[:rank], p)
    return A


def echelon(M: np.ndarray, field: Field, reduced: bool = True):
    """Row echelon form.

    Returns ``(rank, A, pivots)``; with ``reduced=True`` the first ``rank``
    rows of ``A`` are the canonical reduced row echelon basis of the row
    space (unit pivots, zeros above and below each pivot).
    """
    if M.size == 0:
        return 0, M.copy(), ()
    if isinstance(field, PrimeField):
        rank, A, pivots, _ = _echelon_gfp(M, field.p)
        if reduced and rank:
            _reduce_up_gfp(A, pivots, field.p)
        out = np.rint(A).astype(np.int64)
        return rank, out, tuple(pivots)
    return _echelon_reference(M, field, reduced=reduced)


def rref(M: np.ndarray, field: Field):
    """Reduced row echelon form: ``(rank, reduced_matrix, pivots)``."""
    return echelon(M, field, reduced=True)


def rank(M: np.ndarray, field: Field) -> int:
    if M.size == 0:
        return 0
    if isinstance(field, PrimeField):
        return _echelon_gfp(M, field.p)[0]
    return _echelon_reference(M, field, reduced=False)[0]


def matmul_mod(A: np.ndarray, B: np.ndarray, field: Field) -> np.ndarray:
    """Exact matrix product."""
    if isinstance(field, PrimeField):
        acc = _dot_mod(A.astype(np.float64), B.astype(np.float64), field.p)
        return np.rint(acc).astype(np.int64)
    return A @ B


def kernel_basis(M: np.ndarray, field: Field) -> np.ndarray:
    """Canonical basis (RREF rows) of the right kernel {v : M v = 0}.

    One elimination: with the columns of M reversed, the standard kernel
    vector of each free column ends (last nonzero entry, a 1) at that
    column and is zero at every other free column.  Read back in the
    original column order, these vectors start at distinct free columns and
    vanish at each other's leading columns, so, ordered by leading column,
    they already are the reduced row echelon basis of the kernel.
    """
    ncols = M.shape[1]
    if M.size == 0:
        return _identity(ncols, field)
    r, R, pivots = rref(M[:, ::-1], field)
    return np.ascontiguousarray(_complement_rows(R[:r], pivots, ncols, field)[::-1, ::-1])


def _complement_rows(R: np.ndarray, pivots, n: int, field: Field) -> np.ndarray:
    """The rows e_q - sum_i R[i, q] e_{pivots[i]}, one per non-pivot column q.

    For an RREF basis R these span the annihilator of its row space (and,
    read as vectors, the kernel of R), ordered by increasing q.
    """
    piv = list(pivots)
    free = np.setdiff1d(np.arange(n), piv)
    C = field.zeros((free.size, n))
    C[np.arange(free.size), free] = field.of(1)
    if piv:
        C[:, piv] = -R[:, free].T
    if isinstance(field, PrimeField):
        C %= field.p
    return C


def _identity(n: int, field: Field) -> np.ndarray:
    m = field.zeros((n, n))
    one = field.of(1)
    for i in range(n):
        m[i, i] = one
    return m


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of k^n held by its canonical RREF basis.

    Two subspaces are equal iff their basis matrices are identical entry-wise;
    the RREF normalization makes that a complete equality test.
    """

    field: Field
    ambient_dim: int
    basis: np.ndarray  # dim x ambient_dim, reduced row echelon form
    pivots: tuple[int, ...]

    @staticmethod
    def from_rows(rows: np.ndarray, field: Field, ambient_dim: int | None = None) -> "Subspace":
        if ambient_dim is None:
            ambient_dim = rows.shape[1]
        if rows.size == 0:
            return Subspace.zero(ambient_dim, field)
        r, A, pivots = rref(rows, field)
        return Subspace(field, ambient_dim, A[:r], pivots)

    @staticmethod
    def zero(ambient_dim: int, field: Field) -> "Subspace":
        return Subspace(field, ambient_dim, field.zeros((0, ambient_dim)), ())

    @staticmethod
    def full(ambient_dim: int, field: Field) -> "Subspace":
        return Subspace(field, ambient_dim, _identity(ambient_dim, field), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def residual_rows(self, V: np.ndarray) -> np.ndarray:
        """V minus its projection through the pivot coordinates.

        A row of V lies in the subspace iff its residual row is zero.
        """
        if self.dim == 0:
            return V
        proj = matmul_mod(V[:, list(self.pivots)], self.basis, self.field)
        out = V - proj
        if isinstance(self.field, PrimeField):
            out %= self.field.p
        return out

    def contains_rows(self, V: np.ndarray) -> bool:
        if V.size == 0:
            return True
        res = self.residual_rows(V)
        return not np.any(res != 0)

    def contains(self, v: np.ndarray) -> bool:
        if v.shape[-1] != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        return self.contains_rows(v.reshape(1, -1))

    def conditions(self) -> np.ndarray:
        """Matrix C with row space = annihilator: v in subspace iff C @ v = 0."""
        return _complement_rows(self.basis, self.pivots, self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.field)
        cond = np.concatenate([self.conditions(), other.conditions()], axis=0)
        K = kernel_basis(cond, self.field)
        return Subspace(self.field, self.ambient_dim, K, _rref_pivots(K))

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_rows(rows, self.field, self.ambient_dim)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return other.contains_rows(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.shape == other.basis.shape
            and bool(np.all(self.basis == other.basis))
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis.tobytes() if isinstance(self.field, PrimeField) else self.dim))


def _rref_pivots(R: np.ndarray) -> tuple[int, ...]:
    """Pivot columns of a matrix in row echelon form without zero rows."""
    return tuple(int(np.nonzero(row)[0][0]) for row in R)

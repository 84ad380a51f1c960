"""Exact dense linear algebra over prime fields and over the rationals.

Scalars are plain Python ints reduced into ``[0, p)`` for a prime field
GF(p), or :class:`fractions.Fraction` for the rationals.  Matrices are 2-D
numpy arrays: ``int64`` for prime fields, ``object`` (Fraction entries) for
the rationals.  All arithmetic is exact; there is no floating point anywhere
in the results.

The prime-field elimination is a blocked, left-looking Gauss-Jordan on
integer-valued float64 arrays; ``_echelon_gfp`` and ``_reduce_up_gfp`` say
when they reduce mod p and why every step is exact.  It needs
PANEL*(p-1)**2 < 2**52, so the field constructor admits 5 <= p <= 8388593.
A naive per-pivot reference implementation is kept alongside and used both
for the rationals and as a test oracle.

The bulk GF(p) products skip what structure makes zero: the back pass makes
no product for a block that meets no row above (and no inverse for a block
that is already I), a containment residual multiplies only on the non-pivot
columns where the basis is nonzero.  The skipped parts are zero, so every
result is exact.

Before the pivot loop, ``_echelon_gfp`` preselects pivot rows (F4-style):
one row per distinct leading column is already an echelon block, the other
rows are reduced against it by a blocked unit triangular solve, and only
what is left of them is eliminated pivot by pivot.  It does so when the
matrix has at least PANEL distinct leading columns, or at least half as
many as nonzero rows.  The solve reduces after every PANEL-term product
(``_dot_mod`` chunks longer ones), so it is exact up to p = 8388593 too.

Before a GF(p) matrix of at least ``_SMALL_COMPRESS`` cells is eliminated,
``_compress`` drops its zero columns, zero rows and exact repeats of earlier
rows.  This is exact: a repeated or zero row adds nothing to the row space,
and a zero column is zero in every vector of it, so it never holds a pivot
and is a free column of every kernel.  ``echelon`` puts the kept columns
back in place, so rank, pivots, the canonical RREF and kernels are those of
the whole matrix.  Containment tests the rows of V as they are: repeats
among them are rare, and dropping them first saved no time.

``one_blas_thread()`` runs its body on one OpenBLAS thread.  The CLI enters
it once per command: a second thread saves these products no wall time and
spends CPU time spinning.  It restores the previous count on exit, so a
caller in the same process keeps its own setting.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_PANEL = 64  # pivot block width for the BLAS-backed elimination
_SMALL_MOD = 512  # np.remainder beats the floor quotient up to this many entries
_SMALL_COMPRESS = 1 << 16  # matrices with fewer cells go to elimination as they are
_BLOCK_CELLS = 1 << 20  # row comparisons and residuals run this many cells at a time
_BLAS_THREAD_SYMBOLS = (  # (get, set) thread-count pairs, as numpy's OpenBLAS builds name them
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@functools.cache
def _blas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS this process
    loaded, found through ``/proc/self/maps``; None where there is none
    (macOS, MKL, no ``/proc``).  Looked up once, on first use."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
        for path in libs:
            lib = ctypes.CDLL(path)
            for names in _BLAS_THREAD_SYMBOLS:
                get, set_ = (getattr(lib, name, None) for name in names)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    except OSError:  # no /proc, or a library that does not load
        pass
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the previous count,
    also when the body raises.  Does nothing where no OpenBLAS is found."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


class PrimeField:
    """The field GF(p) for a prime 5 <= p <= 8388593.

    The upper end is the largest prime with PANEL*(p-1)**2 < 2**52, which
    keeps the float64 elimination exact.  Entries live in numpy int64
    arrays, always reduced into ``[0, p)``.
    """

    def __init__(self, p: int):
        if not (p > 3 and _PANEL * (p - 1) ** 2 < 2**52 and _is_prime(p)):
            raise ValueError(f"field characteristic must be a prime 5 <= p <= 8388593, got {p}")
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
        m = np.array(rows, dtype=object)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return np.frompyfunc(Fraction, 1, 1)(m)


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

    Small arrays use ``np.remainder`` (exact on any integer-valued float64);
    larger ones a floor quotient, 2-3x faster there, corrected by one where
    np.floor on x/p is off at the boundary (exact for |x| < 2**53).
    """
    if X.size <= _SMALL_MOD:
        return np.remainder(X, p, out=X)
    q = np.floor(X * (1.0 / p))
    X -= q * p
    X[X < 0] += p
    X[X >= p] -= p
    return X


def _dot_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Float64 matrix product reduced mod p, chunking the inner dimension so
    every accumulated dot product stays below 2**52 (exact)."""
    step = max(1, int(2**52 // ((p - 1) ** 2)))
    acc = _mod_p(A[:, :step] @ B[:step], p)
    for s in range(step, A.shape[1], step):
        acc += A[:, s : s + step] @ B[s : s + step]
        _mod_p(acc, p)
    return acc


def _unit_tri_inv(N: np.ndarray, p: int) -> np.ndarray:
    """(I + N)^-1 over GF(p) for strictly triangular N, entries in [0, p),
    at most ``_PANEL`` rows: (I - N)(I + N^2)(I + N^4)... as N is nilpotent,
    ceil(log2 n) squarings, each product exact as n*(p-1)**2 < 2**52."""
    n = N.shape[0]
    S = _mod_p(np.eye(n) - N, p)
    P = N
    k = 2
    while k < n:
        P = _mod_p(P @ P, p)
        S = _mod_p(S + S @ P, p)
        k *= 2
    return S


def _echelon_gfp(M: np.ndarray, p: int):
    """Row echelon over GF(p): preselected pivot rows, then a blocked loop.

    Each nonzero row's leading column is read off ``_PANEL`` columns at a
    time, reducing mod p only the rows whose leading column is not found
    yet.  The first row with each distinct leading column, scaled to a unit
    leading entry, goes to S.  Sorted by leading column, S is already
    echelon, and its columns P (the leading columns) form a unit upper
    triangular U: Faugere's F4 preprocessing (JPAA 139, 1999).  The inverses
    come from one vectorized Fermat power in int64, exact as
    (p-1)**2 < 2**46.

    The other nonzero rows T are reduced against S with no per-pivot loop:
    X = T[:, P] U^-1 by a triangular solve over ``_PANEL``-column blocks,
    then R = T[:, Q] - X S[:, Q] on the columns Q outside P.  This is exact
    up to p = 8388593: a diagonal block of U is inverted by
    ``_unit_tri_inv``, the products over earlier blocks and with S go
    through ``_dot_mod``, and the product with a diagonal inverse sums at
    most PANEL terms of size below (p-1)**2, under 2**52.  Only R goes
    through the pivot loop of :func:`_eliminate`, and its pivots map back
    through Q.  The rows of S and of R's echelon form have distinct leading
    columns and span the row space, so merged by pivot column they are an
    echelon basis of it with its pivot set.  S, X and R are converted from
    M directly; no mod-p copy of all of M is made.

    Preselection runs only when the matrix shows it pays: when there are at
    least ``_PANEL`` distinct leading columns, or at least half as many as
    nonzero rows.  Otherwise all of M goes to :func:`_eliminate`.

    Returns ``(rank, E, pivots)``: E holds the echelon rows (unit pivots,
    zeros below, not reduced above) with entries in [0, p), and ``pivots``
    their pivot columns in increasing order.
    """
    m, n = M.shape
    lead = np.full(m, -1)
    todo = np.arange(m)  # rows whose leading column is not found yet
    for c0 in range(0, n, _PANEL):
        nz = _mod_p(M[todo, c0 : c0 + _PANEL].astype(np.float64), p) != 0
        hit = nz.any(axis=1)
        lead[todo[hit]] = c0 + nz[hit].argmax(axis=1)
        todo = todo[~hit]
        if not todo.size:
            break
    rows = np.flatnonzero(lead >= 0)
    P, first = np.unique(lead[rows], return_index=True)
    k = P.size
    if k < _PANEL and 2 * k < rows.size:
        return _eliminate(M, p)
    S = _mod_p(M[rows[first]].astype(np.float64), p)
    a = S[np.arange(k), P].astype(np.int64)
    inv, e = np.ones(k, dtype=np.int64), p - 2  # inv = a**(p-2), square and multiply
    while e:
        if e & 1:
            inv = inv * a % p
        a = a * a % p
        e >>= 1
    S *= inv[:, None]
    _mod_p(S, p)
    Q = np.setdiff1d(np.arange(n), P)
    others = np.delete(rows, first)
    if not (others.size and Q.size):
        return k, S, P.tolist()
    X = _mod_p(M[np.ix_(others, P)].astype(np.float64), p)  # becomes T[:, P] U^-1
    R = _mod_p(M[np.ix_(others, Q)].astype(np.float64), p)
    for j0 in range(0, k, _PANEL):
        J = P[j0 : j0 + _PANEL]
        Y = X[:, j0 : j0 + _PANEL]
        if j0:
            Y -= _dot_mod(X[:, :j0], S[:j0, J], p)  # in (-p, p), safe for the product below
        N = S[j0 : j0 + _PANEL, J]
        np.fill_diagonal(N, 0.0)
        Y[:] = _mod_p(Y @ _unit_tri_inv(N, p), p)
    R -= _dot_mod(X, S[:, Q], p)  # in (-p, p); _eliminate reduces what it reads
    del X
    _, E2, piv2 = _eliminate(R, p)
    if not piv2:
        return k, S, P.tolist()
    piv2 = Q[piv2]
    pivots = np.sort(np.concatenate([P, piv2]))
    E = np.zeros((pivots.size, n))
    E[np.searchsorted(pivots, P)] = S
    E[np.searchsorted(pivots, piv2)[:, None], Q] = E2
    return pivots.size, E, pivots.tolist()


def _eliminate(M: np.ndarray, p: int):
    """Left-looking blocked row echelon over GF(p), one pivot at a time.

    Each block of ``_PANEL`` columns is brought up to date against earlier
    pivot rows with BLAS products (``_dot_mod``), then eliminated pivot by
    pivot.  A pivot reduces its column once and its scaled row once; the
    rows below only subtract products of two entries in [0, p), so they
    stay within PANEL*(p-1)**2 < 2**52.  The pivot row is scaled unreduced
    when PANEL*p**3 < 2**53 (p <= 52015, so 32003) and reduced first
    otherwise.  The inverse factor ``Linv`` that gives pivot rows their
    values in later blocks is built only when a later block exists.

    Returns ``(rank, E, pivots)`` as :func:`_echelon_gfp` does.
    """
    m, ncols = M.shape
    rmax = min(m, ncols)
    perm = np.arange(m)
    F = np.zeros((m, rmax))  # F[i, t]: factor of row i against pivot t
    E = np.zeros((rmax, ncols))  # echelon rows, filled pivot by pivot
    chunks: list[tuple[int, int, np.ndarray]] = []  # (start, end, Linv)
    pivots: list[int] = []
    scale_unreduced = _PANEL * p**3 < 2**53
    r = 0
    for c0 in range(0, ncols, _PANEL):
        c1 = min(c0 + _PANEL, ncols)
        raw = _mod_p(M[perm, c0:c1].astype(np.float64), p)
        # true values of existing pivot rows in this block, chunk by chunk
        UB = E[:r, c0:c1]
        for s, e, Linv in chunks:
            Y = raw[s:e]
            if s:
                Y = Y - _dot_mod(F[s:e, :s], UB[:s], p)
            UB[s:e] = _mod_p(Linv @ Y, p)
        if r == m:
            continue
        # current values of the active rows, in (-p, p)
        cur = raw[r:]
        if r:
            cur -= _dot_mod(F[r:, :r], UB, p)
        rr = 0
        invs: list[int] = []
        for c in range(c1 - c0):
            col = _mod_p(cur[rr:, c], p)
            nz = np.flatnonzero(col)
            if nz.size == 0:
                continue
            g = r + rr  # row position of the new pivot
            if nz[0]:
                i = int(nz[0])
                cur[[rr, rr + i], c:] = cur[[rr + i, rr], c:]
                F[[g, g + i], :g] = F[[g + i, g], :g]
                perm[[g, g + i]] = perm[[g + i, g]]
            inv = pow(int(col[0]), p - 2, p)
            prow = cur[rr, c:]
            if not scale_unreduced:
                _mod_p(prow, p)
            prow *= inv
            _mod_p(prow, p)
            E[g, c0 + c : c1] = prow
            f = F[g + 1 :, g]
            f[:] = col[1:]
            cur[rr + 1 :, c + 1 :] -= f[:, None] * prow[1:]
            invs.append(inv)
            pivots.append(c0 + c)
            rr += 1
            if g + 1 == m:
                break
        if rr and c1 < ncols:
            # pivot t = inv_t * (row t - sum_s L[t, s] * pivot s), so the
            # pivot rows are (I + D L)^-1 D times their values at block start
            d = np.array(invs, dtype=np.float64)
            N = _mod_p(d[:, None] * F[r : r + rr, r : r + rr], p)
            chunks.append((r, r + rr, _mod_p(_unit_tri_inv(N, p) * d, p)))
        r += rr
    return r, E[:r], pivots


def _reduce_up_gfp(A: np.ndarray, pivots: list[int], p: int):
    """Backward pass turning echelon rows 0..rank-1 of A into RREF.

    Blocks of ``_PANEL`` rows go bottom first.  The block rows B are reduced;
    their pivot columns form a unit upper triangular U and U^-1 B is their
    RREF, which is B itself when U = I.  Unless they are all zero in the
    block's pivot columns, the rows above subtract those entries times it in
    one BLAS product, growing by at most PANEL*(p-1)**2; they are reduced
    after every block once rank*(p-1)**2 could reach 2**51, so entries stay
    below 2**52.  One final reduction normalizes everything.
    """
    rank = len(pivots)
    piv = np.asarray(pivots)
    for t1 in range(rank, 0, -_PANEL):
        t0 = max(0, t1 - _PANEL)
        cols = piv[t0:t1]
        B = _mod_p(A[t0:t1, cols[0] :], p)  # zero left of the first pivot
        N = B[:, cols - cols[0]]
        np.fill_diagonal(N, 0.0)
        if N.any():
            B[:] = _mod_p(_unit_tri_inv(N, p) @ B, p)
        H = _mod_p(A[:t0, cols], p)
        if not H.any():  # the block changes no row above
            continue
        above = A[:t0, cols[0] :]
        above -= H @ B
        if rank * (p - 1) ** 2 >= 2**51:  # keep lazy growth exact at huge ranks
            _mod_p(above, p)
    _mod_p(A[:rank], p)
    return A


def _row_weights(n: int) -> np.ndarray:
    """Fixed int64 weights of n columns: the splitmix64 finalizer of 1..n."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))).view(np.int64)


def _distinct_rows(M: np.ndarray) -> np.ndarray | None:
    """Indices of the nonzero rows of M that repeat no earlier row, in order.

    ``None`` when that is every row.  Rows are grouped by one wrapping int64
    product with fixed weights, and a row is dropped only if it equals its
    group's first row entry for entry, so a hash collision can keep a row
    but never drop one.  Raw entries are compared: a raw zero or repeated
    row is one mod p too, so unreduced input needs no reduction first.
    """
    m = M.shape[0]
    h = M @ _row_weights(M.shape[1])
    _, lead, group = np.unique(h, return_index=True, return_inverse=True)
    first = lead[group]  # the first row with the same hash
    keep = first == np.arange(m)
    later = np.flatnonzero(~keep)
    step = max(1, _BLOCK_CELLS // M.shape[1])
    for s in range(0, later.size, step):  # bounded copies for the comparison
        rows = later[s : s + step]
        keep[rows] = np.any(M[rows] != M[first[rows]], axis=1)
    zero = np.flatnonzero(keep & (h == 0))  # a zero row hashes to 0
    keep[zero] = np.any(M[zero], axis=1)
    return None if keep.all() else np.flatnonzero(keep)


def _compress(M: np.ndarray):
    """M without its zero columns, zero rows and repeated rows: ``(C, cols)``.

    ``cols`` are the kept column indices, or ``None`` when no column is
    dropped; C is M itself, uncopied, when nothing is dropped.  C has the
    row space of M with the zero columns left out.
    """
    if M.size < _SMALL_COMPRESS:
        return M, None
    rows = _distinct_rows(M)
    cols = np.flatnonzero(M.any(axis=0))
    if rows is not None:
        M = M[rows]
    if cols.size == M.shape[1]:
        return M, None
    return M[:, cols], cols


def echelon(M: np.ndarray, field: Field, reduced: bool = True):
    """Row echelon form.

    Returns ``(rank, A, pivots)``; with ``reduced=True`` the first ``rank``
    rows of ``A`` are the canonical reduced row echelon basis of the row
    space (unit pivots, zeros above and below each pivot).  With
    ``reduced=False`` they are an echelon basis with the same pivots.

    Over GF(p) the elimination runs on :func:`_compress` of M: without its
    zero columns, zero rows and repeated rows.  Those rows add nothing to
    the row space and those columns are zero in every vector of it, so the
    kept columns, put back in place with zeros between them, give the same
    rank, pivots and reduced basis.
    """
    if M.size == 0:
        return 0, M.copy(), ()
    if isinstance(field, PrimeField):
        C, cols = _compress(M)
        rank, A, pivots = _echelon_gfp(C, field.p)
        if reduced and rank:
            _reduce_up_gfp(A, pivots, field.p)
        out = np.rint(A).astype(np.int64)
        if cols is not None:
            full = np.zeros((rank, M.shape[1]), dtype=np.int64)
            full[:, cols] = out
            out, pivots = full, cols[pivots].tolist()
        return rank, out, tuple(pivots)
    return _echelon_reference(M, field, reduced=reduced)


def rref(M: np.ndarray, field: Field):
    """Reduced row echelon form: ``(rank, reduced_matrix, pivots)``."""
    return echelon(M, field, reduced=True)


def rank(M: np.ndarray, field: Field) -> int:
    """Rank of M.  Over GF(p) it is the rank of :func:`_compress` of M, which has the same row space."""
    if M.size == 0:
        return 0
    if isinstance(field, PrimeField):
        return _echelon_gfp(_compress(M)[0], field.p)[0]
    return _echelon_reference(M, field, reduced=False)[0]


def matmul_mod(A: np.ndarray, B: np.ndarray, field: Field) -> np.ndarray:
    """Exact matrix product.  Over GF(p) the entries must lie in [0, p);
    a float64 operand is used as it is, without a copy."""
    if isinstance(field, PrimeField):
        acc = _dot_mod(A.astype(np.float64, copy=False), B.astype(np.float64, copy=False), field.p)
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
    np.fill_diagonal(m, field.of(1))
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
    basis: np.ndarray  # dim x ambient_dim, reduced row echelon form
    pivots: tuple[int, ...]

    @staticmethod
    def from_rows(rows: np.ndarray, field: Field) -> "Subspace":
        """The row space of ``rows``, in the ambient space of their width."""
        if rows.size == 0:
            return Subspace.zero(rows.shape[1], field)
        r, A, pivots = rref(rows, field)
        return Subspace(field, A[:r], pivots)

    @staticmethod
    def kernel(M: np.ndarray, field: Field) -> "Subspace":
        """The right kernel {v : M v = 0}, held by its canonical basis (RREF, no zero rows)."""
        K = kernel_basis(M, field)
        pivots = tuple(np.argmax(K != 0, axis=1).tolist()) if K.size else ()
        return Subspace(field, K, pivots)

    @staticmethod
    def zero(ambient_dim: int, field: Field) -> "Subspace":
        return Subspace(field, field.zeros((0, ambient_dim)), ())

    @staticmethod
    def full(ambient_dim: int, field: Field) -> "Subspace":
        return Subspace(field, _identity(ambient_dim, field), tuple(range(ambient_dim)))

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def residual_rows(self, V: np.ndarray) -> np.ndarray:
        """V minus its projection through the pivot coordinates (:func:`_residual`).

        A row of V lies in the subspace iff its residual row is zero.
        """
        return _residual(self.basis, self.pivots, self.field)(V)

    def contains_rows(self, V: np.ndarray) -> bool:
        """Whether every row of V, of width ``ambient_dim``, lies in the subspace.

        The residual's column classes are found once; it is formed
        ``_BLOCK_CELLS`` cells at a time and the answer is False at the first
        block with a nonzero entry.
        """
        if V.shape[-1] != self.ambient_dim:
            raise ValueError("vector dimension mismatch")
        if V.size == 0:
            return True
        residual = _residual(self.basis, self.pivots, self.field)
        step = max(1, _BLOCK_CELLS // V.shape[1])
        return not any(np.any(residual(V[s : s + step])) for s in range(0, V.shape[0], step))

    def contains(self, v: np.ndarray) -> bool:
        return self.contains_rows(v.reshape(1, -1))

    def conditions(self) -> np.ndarray:
        """Matrix C with row space = annihilator: v in subspace iff C @ v = 0."""
        return _complement_rows(self.basis, self.pivots, self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, self.field)
        cond = np.concatenate([self.conditions(), other.conditions()], axis=0)
        return Subspace.kernel(cond, self.field)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        rows = np.concatenate([self.basis, other.basis], axis=0)
        return Subspace.from_rows(rows, self.field)

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


def _residual(basis: np.ndarray, pivots, field: Field):
    """The map from V to V minus the combination of the basis rows given by
    V's pivot entries.

    The RREF basis is the identity on its pivot columns, so the residual is
    zero there, and it is V on the other columns where the basis is zero.
    Only the rest, masked once here, take a product, with the basis on them
    (float64 over GF(p), for ``matmul_mod``); with no such column there is
    no product.  Over GF(p) V's pivot entries are reduced before the
    product and the residual after it, so unreduced rows are exact too.
    """
    piv = list(pivots)
    touched = (basis != 0).any(axis=0)
    touched[piv] = False
    cols = np.flatnonzero(touched)
    B = basis[:, cols]
    gfp = isinstance(field, PrimeField)
    if gfp:
        B = B.astype(np.float64)

    def residual(V: np.ndarray) -> np.ndarray:
        P = V[:, piv]
        out = V.astype(basis.dtype)
        out[:, piv] = field.of(0)
        if cols.size:
            out[:, cols] -= matmul_mod(P % field.p if gfp else P, B, field)
        return np.remainder(out, field.p, out=out) if gfp else out

    return residual

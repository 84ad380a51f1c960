from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect import linalg
from stardefect.linalg import (
    GF32003,
    PrimeField,
    QQ,
    Subspace,
    _compress,
    _echelon_reference,
    echelon,
    kernel_basis,
    matmul_mod,
    rank,
    rref,
)

GF65537 = PrimeField(65537)


def random_matrix(rng, rows, cols, p, lo=0, hi=None):
    return rng.integers(lo, hi if hi is not None else p, size=(rows, cols)) % p


def test_rref_identity():
    I = np.eye(2, dtype=np.int64)
    r, R, piv = rref(I, GF32003)
    assert r == 2
    assert np.array_equal(R, I)
    assert piv == (0, 1)


def test_rref_zero_matrix():
    Z = np.zeros((3, 4), dtype=np.int64)
    r, R, piv = rref(Z, GF32003)
    assert r == 0
    assert piv == ()


def test_rref_dependent_rows_rationals():
    M = QQ.matrix([[1, 2], [2, 4]])
    r, R, piv = rref(M, QQ)
    assert r == 1
    assert R[0, 0] == 1 and R[0, 1] == 2


def test_kernel_of_identity_is_zero():
    K = kernel_basis(np.eye(3, dtype=np.int64), GF32003)
    assert K.shape[0] == 0


def test_kernel_single_row():
    M = GF32003.matrix([[1, 1, 1]])
    K = kernel_basis(M, GF32003)
    assert K.shape[0] == 2
    assert not np.any(matmul_mod(M, K.T, GF32003))


def test_kernel_zero_matrix_full():
    K = kernel_basis(np.zeros((2, 5), dtype=np.int64), GF32003)
    assert K.shape[0] == 5


@pytest.mark.parametrize("field", [PrimeField(7), GF32003, QQ], ids=str)
def test_subspace_kernel_pivots_are_leading_columns(field):
    rng = np.random.default_rng(3)
    shapes = [(0, 4), (2, 0), (3, 3), (4, 7), (6, 5), (2, 9)]
    for rows, cols in shapes:
        M = field.matrix(rng.integers(0, 3, size=(rows, cols)).tolist()) if rows else field.zeros((0, cols))
        S = Subspace.kernel(M, field)
        ref = tuple(_echelon_reference(S.basis, field)[2])
        assert S.pivots == ref and len(ref) == S.dim == cols - rank(M, field)


@pytest.mark.parametrize("field", [GF32003, QQ], ids=str)
def test_an_empty_row_set_keeps_its_width(field):
    # the ambient dimension is read off the rows, also when there are none
    assert Subspace.from_rows(field.zeros((0, 6)), field).ambient_dim == 6
    assert Subspace.kernel(field.zeros((0, 6)), field) == Subspace.full(6, field)


def test_intersect_coordinate_subspaces():
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 0, 0], [0, 1, 0]]), f)
    B = Subspace.from_rows(f.matrix([[0, 1, 0], [0, 0, 1]]), f)
    C = A.intersect(B)
    assert C.dim == 1
    assert np.array_equal(C.basis, f.matrix([[0, 1, 0]]))


def test_intersect_idempotent_and_full():
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 2, 3], [0, 1, 7]]), f)
    assert A.intersect(A) == A
    assert A.intersect(Subspace.full(3, f)) == A


def test_sum_of_complements_is_full():
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 0, 0]]), f)
    B = Subspace.from_rows(f.matrix([[0, 1, 0], [0, 0, 1]]), f)
    assert A.sum(B) == Subspace.full(3, f)


def test_contains():
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 0, 0]]), f)
    assert A.contains(np.array([1, 0, 0]))
    assert A.contains(np.array([5, 0, 0]))
    assert not A.contains(np.array([0, 1, 0]))


def test_rational_contains_takes_an_integer_vector():
    # the basis is nonzero off its pivots (column 1), so the residual takes a
    # product there; an int64 V gets the exact rational residual
    S = Subspace.from_rows(QQ.matrix([[2, 1, 0], [0, 0, 3]]), QQ)
    assert S.contains(np.array([4, 2, 3])) and not S.contains(np.array([1, 0, 0]))
    assert S.residual_rows(np.array([[1, 0, 0]])).tolist() == [[0, Fraction(-1, 2), 0]]


@pytest.mark.parametrize("width", [2, 4])
def test_contains_rows_rejects_a_width_other_than_the_ambient_dimension(width):
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 0, 0]]), f)
    for V in (np.zeros((2, width), dtype=np.int64), np.zeros((0, width), dtype=np.int64)):
        with pytest.raises(ValueError, match="vector dimension mismatch"):
            A.contains_rows(V)
    with pytest.raises(ValueError, match="vector dimension mismatch"):
        A.contains(np.zeros(width, dtype=np.int64))


def test_ambient_mismatch_raises():
    f = GF32003
    A = Subspace.from_rows(f.matrix([[1, 0]]), f)
    B = Subspace.from_rows(f.matrix([[1, 0, 0]]), f)
    with pytest.raises(ValueError):
        A.intersect(B)


def test_bad_prime_rejected():
    assert PrimeField(5).p == 5 and PrimeField(8388593).p == 8388593
    for p in (15, 3, 4, 8388617):  # 8388617 is the prime after 8388593
        with pytest.raises(ValueError, match="5 <= p <= 8388593"):
            PrimeField(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 14), st.integers(1, 14))
def test_blocked_matches_reference_gfp(seed, nrows, ncols):
    rng = np.random.default_rng(seed)
    M = random_matrix(rng, nrows, ncols, 32003)
    r1, R1, p1 = rref(M, GF32003)
    r2, R2, p2 = _echelon_reference(M, GF32003, reduced=True)
    assert r1 == r2 and p1 == p2
    assert np.array_equal(R1[:r1], R2[:r2])


def test_blocked_matches_reference_large():
    rng = np.random.default_rng(7)
    M = random_matrix(rng, 150, 201, 32003)
    M[40:50] = 0  # force some dependent structure
    M[60:90] = M[0:30]
    r1, R1, p1 = rref(M, GF32003)
    r2, R2, p2 = _echelon_reference(M, GF32003, reduced=True)
    assert (r1, p1) == (r2, p2)
    assert np.array_equal(R1[:r1], R2[:r2])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(1, 8))
def test_rank_transpose_invariance(seed, nrows, ncols):
    rng = np.random.default_rng(seed)
    M = random_matrix(rng, nrows, ncols, 32003)
    assert rank(M, GF32003) == rank(M.T.copy(), GF32003)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 9))
def test_rank_nullity(seed, nrows, ncols):
    rng = np.random.default_rng(seed)
    M = random_matrix(rng, nrows, ncols, 32003)
    K = kernel_basis(M, GF32003)
    assert K.shape[0] + rank(M, GF32003) == ncols
    if K.size:
        assert not np.any(matmul_mod(M, K.T, GF32003))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 6))
def test_modular_rank_matches_rational_rank_small_entries(seed, nrows, ncols):
    # small integer entries: no denominator can be divisible by 32003
    rng = np.random.default_rng(seed)
    M = rng.integers(-3, 4, size=(nrows, ncols))
    r_q = rank(QQ.matrix(M.tolist()), QQ)
    r_p = rank(M % 32003, GF32003)
    assert r_q == r_p


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_subspace_canonical_equality(seed):
    # the same span presented via two scrambled generating sets has one basis
    rng = np.random.default_rng(seed)
    f = GF32003
    B = random_matrix(rng, 3, 7, 32003)
    C1 = random_matrix(rng, 5, 3, 32003, lo=0)
    C2 = random_matrix(rng, 6, 3, 32003, lo=0)
    S1 = Subspace.from_rows(matmul_mod(C1, B, f), f)
    S2 = Subspace.from_rows(matmul_mod(C2, B, f), f)
    span = Subspace.from_rows(B, f)
    if S1.dim == span.dim:
        assert S1 == span
    assert span.contains_rows(S1.basis) and span.contains_rows(S2.basis)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_intersection_dimension_formula(seed, n):
    rng = np.random.default_rng(seed)
    f = GF32003
    A = Subspace.from_rows(random_matrix(rng, rng.integers(1, n + 1), n, 32003), f)
    B = Subspace.from_rows(random_matrix(rng, rng.integers(1, n + 1), n, 32003), f)
    inter = A.intersect(B)
    total = A.sum(B)
    assert inter.dim + total.dim == A.dim + B.dim
    assert A.contains_rows(inter.basis) and B.contains_rows(inter.basis)


def _stacked_intersection(A: Subspace, B: Subspace) -> Subspace:
    """Oracle: the kernel of both subspaces' conditions, stacked."""
    return Subspace.kernel(np.concatenate([A.conditions(), B.conditions()]), A.field)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.integers(1, 8),
    st.sampled_from(["random", "zero", "full", "equal", "disjoint"]),
    st.sampled_from([PrimeField(5), GF32003, QQ]),
)
def test_intersect_matches_the_stacked_conditions_oracle(seed, n, kind, field):
    rng = np.random.default_rng(seed)

    def random_subspace():
        return Subspace.from_rows(field.matrix(rng.integers(-3, 4, size=(int(rng.integers(1, n + 1)), n))), field)

    A = random_subspace()
    if kind == "random":
        B = random_subspace()
    elif kind == "zero":
        B = Subspace.zero(n, field)
    elif kind == "full":
        B = Subspace.full(n, field)
    elif kind == "equal":
        B = A
    else:  # the coordinate span of A's non-pivot columns meets A in 0
        free = [q for q in range(n) if q not in A.pivots]
        B = Subspace.from_rows(linalg._identity(n, field)[free], field)
    for X, Y in ((A, B), (B, A)):
        inter = X.intersect(Y)
        oracle = _stacked_intersection(X, Y)
        assert inter == oracle and inter.pivots == oracle.pivots
    expected = {"zero": 0, "full": A.dim, "equal": A.dim, "disjoint": 0}
    if kind in expected:
        assert A.intersect(B).dim == expected[kind]


@pytest.mark.parametrize(
    "A,B",
    [
        (Subspace.zero(3, GF32003), Subspace.zero(4, GF32003)),
        (Subspace.full(3, GF32003), Subspace.zero(4, GF32003)),
        (Subspace.from_rows(GF32003.matrix([[1, 2, 0]]), GF32003), Subspace.full(4, GF32003)),
    ],
)
def test_intersect_rejects_a_width_mismatch(A, B):
    # also where one side is zero, which needs no product
    for X, Y in ((A, B), (B, A)):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            X.intersect(Y)


def test_field_cross_check_dimensions():
    rng = np.random.default_rng(11)
    M = rng.integers(-5, 6, size=(20, 30))
    assert rank(M % 32003, GF32003) == rank(M % 65537, GF65537)


GF7 = PrimeField(7)


def _kernel_oracle(M, field):
    """Kernel RREF by the per-pivot reference elimination only."""
    n = M.shape[1]
    r, R, piv = _echelon_reference(M, field, reduced=True)
    free = [c for c in range(n) if c not in piv]
    K = field.zeros((len(free), n))
    for t, q in enumerate(free):
        K[t, q] = field.of(1)
        for i, c in enumerate(piv):
            K[t, c] = field.of(-R[i, q])
    if not free:
        return K
    kr, KR, _ = _echelon_reference(K, field, reduced=True)
    return KR[:kr]


def _rank_deficient(rng, rows, cols, p):
    """A random matrix of random rank, some columns zeroed out."""
    r = int(rng.integers(0, min(rows, cols) + 1))
    M = random_matrix(rng, rows, r, p) @ random_matrix(rng, r, cols, p) % p
    M[:, rng.random(cols) < 0.2] = 0
    return M


def test_kernel_basis_matches_reference_oracle_gf7():
    rng = np.random.default_rng(2024)
    cases = [np.zeros((3, 5), dtype=np.int64), np.eye(4, dtype=np.int64), random_matrix(rng, 3, 7, 7)]
    cases += [_rank_deficient(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)), 7) for _ in range(400)]
    for M in cases:
        K = kernel_basis(M, GF7)
        expected = _kernel_oracle(M, GF7)
        assert K.shape == expected.shape and np.array_equal(K, expected), M


def test_kernel_basis_matches_reference_oracle_qq():
    rng = np.random.default_rng(5)
    for _ in range(30):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        r = int(rng.integers(0, min(rows, cols) + 1))
        A = rng.integers(-3, 4, size=(rows, r)) @ rng.integers(-3, 4, size=(r, cols))
        M = QQ.matrix(A.tolist())
        K = kernel_basis(M, QQ)
        expected = _kernel_oracle(M, QQ)
        assert K.shape == expected.shape and all(a == b for a, b in zip(K.flat, expected.flat))


def test_conditions_cut_out_the_subspace():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        S = Subspace.from_rows(_rank_deficient(rng, int(rng.integers(1, 8)), n, 7), GF7)
        C = S.conditions()
        assert C.shape == (n - S.dim, n)
        assert _echelon_reference(C, GF7, reduced=False)[0] == n - S.dim
        if S.dim and C.size:
            assert not np.any(C @ S.basis.T % 7)
    S = Subspace.from_rows(QQ.matrix([[1, 2, 3], [2, 4, 7]]), QQ)
    C = S.conditions()
    assert C.shape == (1, 3) and not any(x != 0 for x in (C @ S.basis.T).flat)


def _blocked_cases(rng, p):
    """Matrices that reach each path of the blocked elimination."""
    def low_rank(rows, cols, r):
        return random_matrix(rng, rows, r, p) @ random_matrix(rng, r, cols, p) % p

    tall = low_rank(600, 70, 50)  # columns of more than 512 entries: floor-quotient reduction
    wide = low_rank(150, 210, 120)  # four column blocks, pivots run out in the third
    wide[:, 70:80] = 0
    wide[:, 140:160] = 3 * wide[:, 5:25] % p
    exhausted = low_rank(100, 210, 90)  # no pivot after the second block
    full_rows = random_matrix(rng, 40, 200, p)  # every row a pivot in the first block
    single = low_rank(30, 50, 20)  # one column block: no inverse factor built
    return [tall, wide, exhausted, full_rows, single]


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_blocked_paths_match_reference(p):
    # up to 8388593, the largest admitted prime; the unreduced rows match
    # too, as both eliminations take the first nonzero row at or below the
    # pivot position and swap it up
    field = PrimeField(p)
    for M in _blocked_cases(np.random.default_rng(p), p):
        for reduced in (True, False):
            r0, R0, piv0 = _echelon_reference(M, field, reduced=reduced)
            r, R, piv = echelon(M, field, reduced=reduced)
            assert (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])
        assert rank(M, field) == r0


def test_back_pass_guard_keeps_high_ranks_exact():
    # [U | C] with U unit upper triangular, p - 1 above the diagonal, and C
    # all p - 1 drives every block of the back pass to its worst-case growth;
    # at rank 320 the rows above stay exact only through the reductions that
    # _reduce_up_gfp makes once rank * (p - 1)**2 reaches 2**51
    p, n = 8388593, 320
    field = PrimeField(p)
    U = np.triu(np.full((n, n), p - 1, dtype=np.int64), 1) + np.eye(n, dtype=np.int64)
    M = np.concatenate([U, np.full((n, 8), p - 1, dtype=np.int64)], axis=1)
    r0, R0, piv0 = _echelon_reference(M, field, reduced=True)
    r, R, piv = rref(M, field)
    assert (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])


def _redundant(rng, rows, cols, p):
    """A low-rank matrix with what compression drops and what it must keep.

    Zero columns between the others, zero rows, exact repeats of earlier
    rows, scalar multiples of rows, and unreduced entries up to 3p^2: a row
    equal to another mod p but not as raw integers, and p^2 multiples added
    to random cells.
    """
    r = int(rng.integers(1, min(rows, cols) // 2 + 1))
    M = random_matrix(rng, rows, r, p) @ random_matrix(rng, r, cols, p) % p
    M[:, rng.random(cols) < 0.4] = 0
    src = rng.integers(0, rows, size=rows // 3)
    M[rng.integers(0, rows, size=src.size)] = M[src]  # repeats
    M[rng.integers(0, rows, size=rows // 8)] = 0  # zero rows
    i, j = rng.integers(0, rows, size=2)
    M[i] = 3 * M[j] % p  # a scalar multiple, kept as it is not equal
    k, q = rng.integers(0, rows, size=2)
    M[k] = M[q]
    M[k, int(np.argmax(M[q]))] += p  # equal mod p, unequal raw
    M += p * p * rng.integers(0, 3, size=M.shape) * (rng.random(M.shape) < 0.1)
    return M


def _contains_oracle(S, V, field):
    """Whether every row of V lies in S, by reference ranks."""
    both = np.concatenate([S.basis, V % field.p], axis=0)
    return _echelon_reference(both, field, reduced=False)[0] == S.dim


def _check_against_reference(M, field):
    r0, R0, piv0 = _echelon_reference(M % field.p, field, reduced=True)
    r, R, piv = rref(M, field)
    assert (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])
    r1, E, piv1 = echelon(M, field, reduced=False)
    assert (r1, piv1) == (r0, piv0)
    assert Subspace.from_rows(E[:r1], field) == Subspace.from_rows(R0[:r0], field)
    assert rank(M, field) == r0
    K = kernel_basis(M, field)
    expected = _kernel_oracle(M % field.p, field)
    assert K.shape == expected.shape and np.array_equal(K, expected)
    S = Subspace.from_rows(M, field)
    assert S.contains_rows(M)
    outside = M.copy()
    outside[-1, 0] += 1  # outside S unless e_0 lies in it
    assert S.contains_rows(outside) == _contains_oracle(S, outside, field)
    half = Subspace.from_rows(M[: M.shape[0] // 2], field)
    assert half.contains_rows(M) == _contains_oracle(half, M, field)


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_compressed_elimination_matches_reference(p, monkeypatch):
    # form residuals a few rows at a time
    monkeypatch.setattr(linalg, "_BLOCK_CELLS", 64)
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    last_only = np.zeros((6, 5), dtype=np.int64)
    last_only[:, -1] = random_matrix(rng, 6, 1, p)[:, 0]
    last_only[0, -1] = 1
    # all-zero matrices and one nonzero column compress to width 0 and 1
    cases = [np.zeros((3, 4), dtype=np.int64), np.zeros((300, 300), dtype=np.int64), last_only]
    cases += [_redundant(rng, int(rng.integers(4, 40)), int(rng.integers(2, 30)), p) for _ in range(25)]
    for M in cases:
        _check_against_reference(M, field)


def test_compression_drops_only_redundancy():
    # the only redundancy compression drops is a zero column
    p = 32003
    rng = np.random.default_rng(1)
    M = np.zeros((300, 240), dtype=np.int64)
    M[:100, ::2] = random_matrix(rng, 100, 120, p)
    M[100:200] = M[:100]  # repeats
    M[250] = 2 * M[3] % p  # a scalar multiple
    M[251] = M[4]
    M[251, 0] += p  # equal mod p, unequal raw
    C, cols = _compress(M)
    assert np.array_equal(cols, np.arange(0, 240, 2))
    assert np.array_equal(C, M[:, cols])  # every row stays, zero rows too
    _check_against_reference(M, PrimeField(p))
    same = random_matrix(rng, 300, 240, p) + 1  # no zero column
    assert _compress(same)[0] is same and _compress(same)[1] is None
    small = np.array([[0, 3], [0, 0]])
    assert _compress(small)[1].tolist() == [1]


def _led(rng, p, cols, leads, others, residual_rank):
    """Rows with exactly ``leads`` distinct leading columns and a residual.

    One row leads at each of ``leads`` columns, column 0 among them.  The
    ``others`` rows lead at column 0: each is a combination of those rows
    with a nonzero coefficient on the column-0 row, plus a vector from a
    random space of rank ``residual_rank`` that vanishes at column 0, which
    is what is left after reduction against the leading rows.  The rows are
    shuffled and p^2 multiples added to random cells, zero cells too, so
    entries reach 3p^2 and a raw nonzero can sit left of a leading column.
    """
    L = np.concatenate([[0], np.sort(rng.choice(np.arange(1, cols), leads - 1, replace=False))])
    S = random_matrix(rng, leads, cols, p)
    S[np.arange(cols)[None, :] < L[:, None]] = 0
    S[np.arange(leads), L] = rng.integers(1, p, size=leads)
    C = random_matrix(rng, others, leads, p)
    C[:, 0] = rng.integers(1, p, size=others)
    W = random_matrix(rng, others, residual_rank, p) @ random_matrix(rng, residual_rank, cols, p) % p
    W[:, 0] = 0
    M = np.concatenate([S, (C @ S + W) % p])[rng.permutation(leads + others)]
    return M + p * p * rng.integers(0, 3, size=M.shape) * (rng.random(M.shape) < 0.1)


# (columns, distinct leading columns, other rows, residual rank, preselected)
PRESELECT_CASES = {
    "many-leads": (120, 70, 150, 6, True),  # 70 >= _PANEL, under half the rows
    "many-leads-compressed": (240, 80, 195, 9, True),  # zero columns inserted: compression, then preselection
    "full-coverage": (60, 40, 30, 0, True),  # every other row reduces to zero
    "leads-only": (50, 45, 0, 0, True),  # nothing but leading rows
    "half-rows": (50, 20, 20, 4, True),  # 20 leads, 40 nonzero rows: at the gate
    "under-half-rows": (50, 20, 21, 4, False),  # 20 leads, 41 nonzero rows: the loop
}


@pytest.mark.parametrize("case", sorted(PRESELECT_CASES))
@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_preselected_elimination_matches_reference(p, case, monkeypatch):
    cols, leads, others, residual_rank, preselected = PRESELECT_CASES[case]
    field = PrimeField(p)
    M = _led(np.random.default_rng([p, cols, others]), p, cols, leads, others, residual_rank)
    if case == "many-leads-compressed":
        M = np.insert(M, np.arange(1, cols, 3), 0, axis=1)
        assert _compress(M)[1] is not None
    seen = []
    loop = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda A, q: seen.append(A.shape[0]) or loop(A, q))
    assert rank(M, field) == _echelon_reference(M % p, field, reduced=False)[0] == leads + residual_rank
    # the pivot loop sees only the other rows after preselection, all rows without it
    expected = ([others] if others else []) if preselected else [leads + others]
    assert seen == expected
    _check_against_reference(M, field)


def test_preselection_stays_exact_at_worst_case_growth():
    # 161 leading rows [I | p - 2] and other rows c (their sum) for odd c
    # near p, so the residual is zero; T[:, P] = c, and each residual entry
    # is T[:, Q] minus a sum of 161 odd products near p**2, an odd integer
    # above 2**53 that a plain float64 product rounds to a nonzero residual
    p, k, q = 8388593, 161, 4
    field = PrimeField(p)
    S = np.concatenate([np.eye(k, dtype=np.int64), np.full((k, q), p - 2, dtype=np.int64)], axis=1)
    T = (p - 2 * np.arange(1, 6))[:, None] * S.sum(axis=0) % p
    M = np.concatenate([S, T])
    assert k * (p - 10) * (p - 2) > 2**53
    r0, R0, piv0 = _echelon_reference(M, field, reduced=True)
    r, R, piv = rref(M, field)
    assert r0 == k and (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])
    assert rank(M, field) == k


def _back_pass_case(rng, p, n, extra, pattern):
    """Echelon rows of rank n whose pivot columns set what the back pass meets.

    The pivot columns P are spread among ``extra`` others and each row has a
    random nonzero leading entry, so the elimination only scales the rows
    and ``_reduce_up_gfp`` sees this zero pattern.  Entry (i, P[j]), i < j:
    "identity" zero everywhere (every block is I, every row above zero);
    "blocks-identity" zero inside each back-pass block of ``_PANEL`` rows,
    counted from the bottom, and nonzero across blocks (N = 0, every row
    above hit); "partial" nonzero only in even rows (every other row above
    hit); "full" nonzero everywhere.
    """
    cols = n + extra
    P = np.sort(rng.choice(cols, n, replace=False))
    M = rng.integers(1, p, size=(n, cols))
    M[np.arange(cols)[None, :] < P[:, None]] = 0
    block = (n - 1 - np.arange(n)) // linalg._PANEL
    hit = {
        "identity": np.zeros((n, n), dtype=bool),
        "blocks-identity": block[:, None] != block[None, :],
        "partial": np.repeat((np.arange(n) % 2 == 0)[:, None], n, axis=1),
        "full": np.ones((n, n), dtype=bool),
    }[pattern]
    M[:, P] *= np.triu(hit, 1)
    M[np.arange(n), P] = rng.integers(1, p, size=n)
    return M


@pytest.mark.parametrize("pattern", ["identity", "blocks-identity", "partial", "full"])
@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_back_pass_zero_structure_matches_reference(p, pattern, monkeypatch):
    # rank 200: four back-pass blocks, three with rows above
    field = PrimeField(p)
    M = _back_pass_case(np.random.default_rng([p, len(pattern)]), p, 200, 40, pattern)
    inverses = []
    tri_inv = linalg._unit_tri_inv
    monkeypatch.setattr(linalg, "_unit_tri_inv", lambda N, q: inverses.append(N.shape) or tri_inv(N, q))
    r0, R0, piv0 = _echelon_reference(M, field, reduced=True)
    r, R, piv = rref(M, field)
    assert r == 200 and (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])
    # rows with distinct leading columns are preselected and need no solve, so
    # every inverse is the back pass's, and a block that is I takes none
    assert len(inverses) == (0 if pattern in ("identity", "blocks-identity") else 4)


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_dot_mod_with_zero_rows_and_columns_is_exact(p):
    # k = 150 inner terms: chunked at 8388593 (64 at a time), one product below
    rng = np.random.default_rng(p)
    A = rng.integers(p - 3, p, size=(30, 150)).astype(np.float64)
    B = rng.integers(p - 3, p, size=(150, 20)).astype(np.float64)
    zero_rows, zero_cols = A.copy(), B.copy()
    zero_rows[::3] = 0
    zero_cols[:, 1::4] = 0
    cases = [(A, B), (zero_rows, B), (A, zero_cols), (zero_rows, zero_cols), (0 * A, B), (A, 0 * B)]
    for X, Y in cases:
        expected = (X.astype(np.int64).astype(object) @ Y.astype(np.int64).astype(object)) % p
        out = linalg._dot_mod(X, Y, p)
        assert out.shape == (30, 20) and out.dtype == np.float64
        assert np.array_equal(out.astype(np.int64), expected.astype(np.int64))


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_contains_rows_on_a_coordinate_subspace(p):
    field = PrimeField(p)
    rng = np.random.default_rng([p, 1])
    n = 40
    support = np.sort(rng.choice(n, 15, replace=False))
    S = Subspace.from_rows(np.eye(n, dtype=np.int64)[support], field)
    inside = np.zeros((25, n), dtype=np.int64)
    inside[:, support] = rng.integers(0, 3 * p * p, size=(25, 15))
    outside = inside.copy()
    outside[-1, np.setdiff1d(np.arange(n), support)[0]] = p * p + 1  # 1 mod p off the support
    multiple = inside.copy()
    multiple[0, np.setdiff1d(np.arange(n), support)[-1]] = 2 * p * p  # 0 mod p off the support
    for V in (inside, outside, multiple):
        assert S.contains_rows(V) == _contains_oracle(S, V, field)
    assert S.contains_rows(inside) and not S.contains_rows(outside) and S.contains_rows(multiple)


@pytest.mark.parametrize("p", [5, 32003, 8388593])
def test_contains_rows_on_a_dense_basis_with_unreduced_entries(p):
    # a basis with zero columns (so every column class occurs), and V whose
    # rows lie in it up to p^2 multiples added to cells, entries up to 3p^2
    field = PrimeField(p)
    rng = np.random.default_rng([p, 2])
    n = 50
    G = random_matrix(rng, 12, n, p)
    G[:, rng.random(n) < 0.3] = 0
    S = Subspace.from_rows(G, field)
    V = random_matrix(rng, 30, 12, p) @ G % p
    V += p * p * rng.integers(0, 3, size=V.shape) * (rng.random(V.shape) < 0.2)
    assert S.contains_rows(V) and _contains_oracle(S, V, field)
    for j in range(n):
        W = V.copy()
        W[3, j] += 1
        assert S.contains_rows(W) == _contains_oracle(S, W, field)
    expected = (V - (V[:, list(S.pivots)] % p) @ S.basis) % p
    assert np.array_equal(S.residual_rows(V), expected) and not expected.any()


def test_rational_residual_rows_keep_fraction_entries():
    S = Subspace.from_rows(QQ.matrix([[2, 4, 0, 6, 0], [0, 0, 3, 1, 0]]), QQ)
    V = QQ.matrix([[1, 2, 3, 5, 5], [Fraction(1, 2), 1, 0, Fraction(3, 2), 0]])
    R = S.residual_rows(V)
    assert all(type(x) is Fraction for x in R.flat)
    expected = V - V[:, list(S.pivots)] @ S.basis
    assert R.tolist() == expected.tolist()
    assert R.tolist() == [[0, 0, 0, Fraction(1), 5], [0] * 5]


def test_containment_in_a_basis_of_unit_vectors_makes_no_product(monkeypatch):
    field = GF32003
    calls = []
    product = linalg.matmul_mod
    monkeypatch.setattr(linalg, "matmul_mod", lambda A, B, f: calls.append(B.shape) or product(A, B, f))
    units = Subspace.from_rows(np.eye(30, dtype=np.int64)[::3], field)
    V = np.zeros((20, 30), dtype=np.int64)
    V[:, ::3] = np.arange(200).reshape(20, 10)
    assert units.contains_rows(V) and not units.contains_rows(V + np.eye(20, 30, 1, dtype=np.int64))
    assert calls == []
    dense = Subspace.from_rows(random_matrix(np.random.default_rng(4), 10, 30, field.p), field)
    assert dense.contains_rows(dense.basis[::-1] * 2)
    assert calls == [(10, 20)]


def test_partial_back_pass_guard_keeps_high_ranks_exact():
    # as in test_back_pass_guard_keeps_high_ranks_exact, but only the even
    # rows are p - 1 above the diagonal: every other row above meets each
    # block, so every block makes its product, and the rows that grow stay
    # exact only through the reductions made once rank * (p - 1)**2 >= 2**51
    p, n = 8388593, 320
    field = PrimeField(p)
    U = np.triu(np.full((n, n), p - 1, dtype=np.int64), 1)
    U[1::2] = 0
    U += np.eye(n, dtype=np.int64)
    M = np.concatenate([U, np.full((n, 8), p - 1, dtype=np.int64)], axis=1)
    r0, R0, piv0 = _echelon_reference(M, field, reduced=True)
    r, R, piv = rref(M, field)
    assert (r, piv) == (r0, piv0) and np.array_equal(R[:r], R0[:r0])


def test_one_blas_thread_sets_one_and_restores(monkeypatch):
    counts = [4]  # a stand-in thread count: get reads the last entry, set appends
    monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: (lambda: counts[-1], counts.append))
    with linalg.one_blas_thread():
        assert counts == [4, 1]
    assert counts == [4, 1, 4]
    with pytest.raises(ZeroDivisionError), linalg.one_blas_thread():
        1 / 0
    assert counts == [4, 1, 4, 1, 4]


def test_one_blas_thread_without_openblas_does_nothing(monkeypatch):
    # no symbol pair in the mapped libraries, or no /proc: the lookup finds nothing
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: object())
    assert linalg._blas_thread_calls.__wrapped__() is None
    monkeypatch.undo()

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    monkeypatch.setattr(linalg, "open", no_proc, raising=False)
    assert linalg._blas_thread_calls.__wrapped__() is None
    ran = []
    monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
    with linalg.one_blas_thread():
        ran.append(True)
    assert ran == [True]


def test_elimination_is_exact_on_one_blas_thread(monkeypatch):
    # 300 preselected rows and 200 others with a residual of rank 60: the
    # solve's product with S is 200 x 300 x 300 multiply-adds, past
    # OpenBLAS's threading cut of 2**18, and the back pass clears rank 360
    p = 32003
    field = PrimeField(p)
    M = _led(np.random.default_rng(32003), p, 600, 300, 200, 60)
    shapes, back = [], []
    dot, reduce_up = linalg._dot_mod, linalg._reduce_up_gfp
    monkeypatch.setattr(linalg, "_dot_mod", lambda A, B, q: shapes.append(A.shape + B.shape[1:]) or dot(A, B, q))
    monkeypatch.setattr(linalg, "_reduce_up_gfp", lambda A, piv, q: back.append(len(piv)) or reduce_up(A, piv, q))
    r, R, piv = rref(M, field)
    assert r == 360 and back == [360] and max(m * k * n for m, k, n in shapes) > 2**18
    calls = linalg._blas_thread_calls()
    with linalg.one_blas_thread():
        assert calls is None or calls[0]() == 1
        r1, R1, piv1 = rref(M, field)
        assert rank(M, field) == r
        _check_against_reference(M[::4, :200], field)
    assert (r1, piv1) == (r, piv) and np.array_equal(R1, R)

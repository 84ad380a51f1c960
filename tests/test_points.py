import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect.gradedideal import graded_betti
from stardefect.linalg import GF32003, PrimeField, Subspace, kernel_basis
from stardefect.points import (
    _PointConditions,
    evaluation_matrix,
    generic_double_hf,
    generator_count_check,
    hilbert_function_points,
    ideal_of_points,
    linear_resolution_check,
    make_point_set,
    normalize_point,
    point_linear_forms,
    points_profile,
    power_ideal,
    random_general_lines,
    random_general_points,
    regularity_points,
    sdefect_points,
    sigma_points,
    splitmix64,
    star_points_from_lines,
    symbolic_piece_by_intersection,
    symbolic_power_pieces,
    symbolic_power_points,
    verify_general_points_classification,
)
from stardefect.poly import basis_exponents, basis_size, evaluate, mono_index, parse_form


def pts(*rows, prime=32003):
    return make_point_set(rows, PrimeField(prime))


def test_normalize_point_canonical():
    f = GF32003
    assert normalize_point((0, 0, 5), f) == (0, 0, 1)
    assert normalize_point((2, 4, 6), f) == (1, 2, 3)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), f)


def test_point_set_rejects_duplicates():
    with pytest.raises(ValueError):
        pts((1, 0, 0), (2, 0, 0))


def test_point_linear_forms_examples():
    f = GF32003
    l1, l2 = point_linear_forms((0, 0, 1), f)
    assert (l1.terms, l2.terms) == ({(1, 0, 0): 1}, {(0, 1, 0): 1})
    l1, l2 = point_linear_forms((1, 0, 0), f)
    assert (l1.terms, l2.terms) == ({(0, 1, 0): 1}, {(0, 0, 1): 1})
    l1, l2 = point_linear_forms((1, 1, 1), f)
    # same span as the textbook pair (x0 - x1, x1 - x2)
    from stardefect.gradedideal import GradedIdeal, ideals_equal

    got = GradedIdeal(3, [l1, l2], f)
    want = GradedIdeal(
        3,
        [parse_form("x0 - x1", f, num_vars=3), parse_form("x1 - x2", f, num_vars=3)],
        f,
    )
    assert ideals_equal(got, want)
    assert evaluate(l1, (1, 1, 1)) == 0 and evaluate(l2, (1, 1, 1)) == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_point_linear_forms_vanish_and_generate(seed):
    X = random_general_points(3, seed % 1000 + 1)
    for P in X.points:
        l1, l2 = point_linear_forms(P, X.field)
        assert evaluate(l1, P) == 0 and evaluate(l2, P) == 0
        assert l1.terms != l2.terms


def test_splitmix_determinism():
    a = [next_ for next_, _ in zip(splitmix64(42), range(5))]
    b = [next_ for next_, _ in zip(splitmix64(42), range(5))]
    assert a == b


def test_one_point_ideal():
    X = pts((0, 0, 1))
    I = ideal_of_points(X)
    assert I.min_gens_counts(2) == {1: 2}
    assert regularity_points(X) == 1


def test_four_general_points_complete_intersection_of_conics():
    X = random_general_points(4, 1)
    I = ideal_of_points(X)
    assert I.min_gens_counts(regularity_points(X)) == {2: 2}
    assert sdefect_points(X, 2).total == 0


def test_five_points_resolutions():
    X = random_general_points(5, 1)
    I = ideal_of_points(X)
    assert graded_betti(I, 1, 4).as_dict() == {(0, 2): 1, (0, 3): 2, (1, 4): 2}
    sym = symbolic_power_points(X, 2)
    assert sym.min_gens_counts(8) == {4: 1, 5: 3}


def test_seven_points_symbolic_square_gens():
    X = random_general_points(7, 1)
    sym = symbolic_power_points(X, 2)
    assert sym.min_gens_counts(8) == {6: 7}


def test_eight_points_regularity():
    X = random_general_points(8, 1)
    prof = points_profile(X)
    assert prof.hf[:4] == (1, 3, 6, 8)
    assert prof.regularity == 4
    assert prof.alpha == 3


def test_hilbert_function_generic_values():
    X = random_general_points(5, 2)
    assert hilbert_function_points(X, 2) == 5
    assert ideal_of_points(X).graded_piece(2).dim == 1  # 6 - 5


def test_generic_double_hf():
    assert generic_double_hf(5, 4) == 14
    assert generic_double_hf(9, 7) == 27
    assert generic_double_hf(1, 0) == 1
    with pytest.raises(ValueError):
        generic_double_hf(2, 3)


def test_double_point_hf_matches_formula():
    for s in (1, 3, 4, 5, 6):
        X = random_general_points(s, 1)
        d2 = next(d for d in range(30) if (d + 1) * (d + 2) // 2 >= 3 * s)
        pieces = symbolic_power_pieces(X, 2, d2 + 1)
        for d in range(d2 + 2):
            dim_rd = (d + 1) * (d + 2) // 2
            assert dim_rd - pieces[d].dim == generic_double_hf(s, d)


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 4), st.integers(1, 3))
def test_symbolic_pieces_match_intersection_oracle(seed, s, m):
    # the two internal routes: per-point condition kernels vs subspace intersection
    X = random_general_points(s, seed % 997 + 1)
    reg = regularity_points(X)
    for d in range(m * reg + 1):
        fast = symbolic_power_pieces(X, m, d)[d]
        slow = symbolic_piece_by_intersection(X, m, d)
        assert fast == slow, (s, m, d)


def test_symbolic_power_m1_is_points_ideal():
    # I_X comes from the order-1 conditions; the evaluation kernel is the reference,
    # also above the built pieces, where they come from the generators
    X = random_general_points(6, 3)
    J = symbolic_power_points(X, 1)
    for d in range(regularity_points(X) + 3):
        K = kernel_basis(evaluation_matrix(X, d), X.field)
        assert J.graded_piece(d) == Subspace.from_rows(K, X.field, basis_size(3, d)), d


def test_sdefect_points_known_small_values():
    assert sdefect_points(random_general_points(3, 1), 2).total == 1
    assert sdefect_points(random_general_points(6, 1), 2).total == 3
    assert sdefect_points(random_general_points(1, 1), 3).total == 0


def test_collinear_points_zero_defect():
    X = pts((1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 2))
    for m in (2, 3):
        assert sdefect_points(X, m).total == 0


def test_classification_small():
    rows = verify_general_points_classification(6, seed=1)
    assert all(r["ok"] for r in rows)
    assert [r["sdefect2"] for r in rows[:6]] == [0, 0, 1, 0, 1, 3]


def test_sdefect_invariant_under_coordinate_change():
    X = random_general_points(5, 4)
    base = sdefect_points(X, 2)
    # random invertible substitution: transform the points directly
    p = X.field.p
    rng = np.random.default_rng(11)
    while True:
        A = rng.integers(0, p, (3, 3))
        from stardefect.linalg import rank

        if rank(A % p, X.field) == 3:
            break
    moved = make_point_set([tuple(int(x) for x in (A @ np.array(pt)) % p) for pt in X.points], X.field)
    assert sdefect_points(moved, 2).per_degree == base.per_degree


def test_star_points_from_lines_counts():
    lines = random_general_lines(3, 1)
    assert len(star_points_from_lines(lines)) == 3
    lines5 = random_general_lines(5, 1)
    assert len(star_points_from_lines(lines5)) == 10


def test_star_points_reject_concurrent():
    f = GF32003
    l1 = parse_form("x0", f, num_vars=3)
    l2 = parse_form("x1", f, num_vars=3)
    l3 = parse_form("x0 + x1", f, num_vars=3)
    with pytest.raises(ValueError):
        star_points_from_lines([l1, l2, l3])
    with pytest.raises(ValueError):
        star_points_from_lines([l1, l1.scale(3)])


def test_star_points_sdefect_one():
    lines = random_general_lines(4, 2)
    X = star_points_from_lines(lines)
    assert sdefect_points(X, 2).total == 1


def test_alpha_symbolic_square_inequality():
    for s, seed in [(3, 1), (5, 1), (8, 2), (10, 3)]:
        X = random_general_points(s, seed)
        prof = points_profile(X)
        sym = symbolic_power_points(X, 2)
        a2 = sym.alpha(2 * prof.regularity + 1)
        assert a2 >= prof.alpha + 1


def test_generator_count_bound():
    for s, seed in [(4, 1), (7, 1), (11, 5)]:
        assert generator_count_check(random_general_points(s, seed))


def test_linear_resolution_detection():
    assert linear_resolution_check(random_general_points(6, 1))  # binom(4,2) points
    assert not linear_resolution_check(random_general_points(5, 1))
    assert linear_resolution_check(random_general_points(3, 1))  # binom(3,2) points


def test_square_generator_count_lemma():
    # d gens in the initial degree, none below -> binom(d+1,2) gens of I^2 in degree 2*alpha
    for s, seed in [(7, 1), (9, 1)]:
        X = random_general_points(s, seed)
        prof = points_profile(X)
        I = ideal_of_points(X)
        d = I.min_gens_counts(prof.regularity)[prof.alpha]
        sq = power_ideal(I, 2)
        counts = sq.min_gens_counts(2 * prof.alpha)
        assert counts.get(2 * prof.alpha) == d * (d + 1) // 2


def test_hf_monotone_and_stabilizes():
    X = random_general_points(9, 6)
    s = len(X)
    vals = [hilbert_function_points(X, d) for d in range(sigma_points(X) + 3)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == s == vals[-2]


def test_certificate_travels_with_sample():
    X = random_general_points(5, 9)
    assert X.certificate is not None
    assert X.certificate["hf_points"][:3] == [1, 3, 5]
    assert X.certificate["hf_double_generic"] is True
    assert X.certificate["prime"] == 32003


def test_star_intersection_points_probe():
    # forward direction: binom(a+1,2) points cut out by a generic line
    # arrangement have generic HF, a linear resolution, and square defect 1.
    # A generic sample of the same size has defect > 1, consistent with the
    # converse (defect 1 forcing the line-intersection geometry).
    for s_lines, seed in [(4, 1), (5, 3)]:
        X = star_points_from_lines(random_general_lines(s_lines, seed))
        prof = points_profile(X)
        assert len(X) == s_lines * (s_lines - 1) // 2
        assert prof.is_generic_hf
        assert linear_resolution_check(X)
        assert sdefect_points(X, 2).total == 1
    generic_same_size = random_general_points(6, 8)
    assert linear_resolution_check(generic_same_size)
    assert sdefect_points(generic_same_size, 2).total != 1


def _condition_table_oracle(A, m, d, p):
    """The degree-d condition table, one row (i, j) at a time from degree d - 1."""
    rows = [(i, j) for i in range(m) for j in range(m - i)]
    index = {ij: r for r, ij in enumerate(rows)}
    prev = np.zeros((len(rows), 1), dtype=np.int64)
    prev[index[(0, 0)], 0] = 1
    for e in range(1, d + 1):
        exps = basis_exponents(3, e)
        first_var = np.argmax(exps > 0, axis=1)
        parent = exps.copy()
        parent[np.arange(len(exps)), first_var] -= 1
        parent_idx = np.array([mono_index(tuple(u)) for u in parent.tolist()], dtype=np.int64)
        out = np.zeros((len(rows), len(exps)), dtype=np.int64)
        for v in range(3):
            sel = np.nonzero(first_var == v)[0]
            par = parent_idx[sel]
            a0, a1, a2 = (int(A[v, t]) for t in range(3))
            for r, (i, j) in enumerate(rows):
                acc = prev[r, par] * a2 % p
                if i > 0:
                    acc = (acc + prev[index[(i - 1, j)], par] * a0) % p
                if j > 0:
                    acc = (acc + prev[index[(i, j - 1)], par] * a1) % p
                out[r, sel] = acc
        prev = out
    return prev


@pytest.mark.parametrize("prime", [7, 32003])
def test_point_condition_tables_match_per_row_loop(prime):
    field = PrimeField(prime)
    X = pts((1, 0, 0), (0, 1, 0), (0, 0, 1), (3, 5, 1), (1, 2, 6), prime=prime)
    for pt in X.points:
        for m in (1, 2, 4):
            conds = _PointConditions(pt, m, field)
            for d in range(7):
                assert np.array_equal(conds.table(d), _condition_table_oracle(conds.A, m, d, prime))

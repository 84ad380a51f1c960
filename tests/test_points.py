import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect.cli import verify_general_points
from stardefect.gradedideal import GradedIdeal, graded_betti, sdefect as lab_sdefect
from stardefect.linalg import GF32003, PrimeField, Subspace, kernel_basis, rank
from stardefect.points import (
    _PointConditions,
    generic_double_hf,
    generator_count_check,
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
    splitmix64,
    star_points_from_lines,
    symbolic_piece_by_intersection,
    symbolic_power_pieces,
    symbolic_power_points,
)
from stardefect.poly import HomogPoly, basis_exponents, basis_size, evaluate, mono_index, parse_form, poly_from_vector


def pts(*rows, prime=32003):
    return make_point_set(rows, PrimeField(prime))


def _evaluation_matrix(X, d):
    """Oracle: row per point, the value of each degree-d basis monomial there.

    Built from ``poly.evaluate``, independent of the condition tables.
    """
    monos = [HomogPoly(3, d, {tuple(e): X.field.of(1)}, X.field) for e in basis_exponents(3, d).tolist()]
    return np.array([[evaluate(u, pt) for u in monos] for pt in X.points], dtype=np.int64)


def _hf_oracle(X, d):
    """HF of R/I_X at degree d: the rank of the oracle evaluation matrix."""
    return rank(_evaluation_matrix(X, d), X.field)


def _sigma_oracle(X):
    """Least degree where the oracle Hilbert function reaches |X|."""
    return next(d for d in range(len(X) + 1) if _hf_oracle(X, d) == len(X))


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
    assert sdefect_points(X, [2])[0].total == 0


def test_five_points_resolutions():
    X = random_general_points(5, 1)
    I = ideal_of_points(X)
    assert graded_betti(I, 4).as_dict() == {(0, 2): 1, (0, 3): 2, (1, 4): 2}
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
    assert _hf_oracle(X, 2) == 5
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
        K = kernel_basis(_evaluation_matrix(X, d), X.field)
        assert J.graded_piece(d) == Subspace.from_rows(K, X.field), d


def test_sdefect_points_known_small_values():
    assert sdefect_points(random_general_points(3, 1), [2])[0].total == 1
    assert sdefect_points(random_general_points(6, 1), [2])[0].total == 3
    assert sdefect_points(random_general_points(1, 1), [3])[0].total == 0


def test_collinear_points_zero_defect():
    X = pts((1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 2))
    assert [rep.total for rep in sdefect_points(X, [2, 3])] == [0, 0]


def test_classification_small():
    out = verify_general_points(6, [1], GF32003)
    assert out["ok"] and all(r["ok"] for r in out["rows"])
    assert [r["sdefect2"][0] for r in out["rows"]] == [0, 0, 1, 0, 1, 3]


def test_sdefect_invariant_under_coordinate_change():
    X = random_general_points(5, 4)
    base = sdefect_points(X, [2])[0]
    # random invertible substitution: transform the points directly
    p = X.field.p
    rng = np.random.default_rng(11)
    while True:
        A = rng.integers(0, p, (3, 3))
        from stardefect.linalg import rank

        if rank(A % p, X.field) == 3:
            break
    moved = make_point_set([tuple(int(x) for x in (A @ np.array(pt)) % p) for pt in X.points], X.field)
    assert sdefect_points(moved, [2])[0].per_degree == base.per_degree


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
    assert sdefect_points(X, [2])[0].total == 1


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
    vals = [_hf_oracle(X, d) for d in range(_sigma_oracle(X) + 3)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == s == vals[-2]


def test_points_profile_walks_to_one_past_sigma():
    sets = [random_general_points(s, seed) for s, seed in [(1, 1), (3, 2), (6, 2), (10, 1)]]
    sets.append(pts((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0)))  # collinear: HF 1, 2, 3, 4, 4
    for X in sets:
        sigma = _sigma_oracle(X)
        prof = points_profile(X)
        assert prof.regularity == regularity_points(X) == sigma + 1
        assert prof.hf == tuple(_hf_oracle(X, d) for d in range(sigma + 2))
    assert prof.hf == (1, 2, 3, 4, 4) and prof.alpha == 1 and not prof.is_generic_hf


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
        assert sdefect_points(X, [2])[0].total == 1
    generic_same_size = random_general_points(6, 8)
    assert linear_resolution_check(generic_same_size)
    assert sdefect_points(generic_same_size, [2])[0].total != 1


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


def _direct_kernel(X, m, d):
    """I_X^(m)_d as the kernel of every point's condition table, with no shortcut."""
    tables = [_PointConditions(pt, m, X.field).table(d) for pt in X.points]
    return Subspace.kernel(np.concatenate(tables, axis=0), X.field)


_CEILING_CASES = [(f"random-{s}", lambda s=s: random_general_points(s, s)) for s in range(1, 11)] + [
    ("star-4-lines", lambda: star_points_from_lines(random_general_lines(4, 2))),
    ("star-5-lines", lambda: star_points_from_lines(random_general_lines(5, 3))),
    ("collinear-4", lambda: pts((1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 2))),
    ("collinear-3-plus-1", lambda: pts((1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 0))),
    ("conic-6", lambda: pts(*[(1, t, t * t) for t in range(6)])),  # on x0*x2 = x1^2
    ("one-point", lambda: pts((0, 0, 1))),
]


@pytest.mark.parametrize("name,make", _CEILING_CASES, ids=[c[0] for c in _CEILING_CASES])
def test_symbolic_power_built_through_its_regularity(name, make):
    X = make()
    reg_x = regularity_points(X)
    base = ideal_of_points(X)
    for m in range(1, 5):
        e = len(X) * (m + 1) * m // 2
        J = symbolic_power_points(X, m)
        top = max(J._pieces)
        assert sorted(J._pieces) == list(range(top + 1)), m
        # every built piece, the zero ones inherited without a kernel included
        for d in range(top + 1):
            assert J._pieces[d] == _direct_kernel(X, m, d), (m, d)
        sigma = next(d for d in range(m * reg_x + 1) if basis_size(3, d) - _direct_kernel(X, m, d).dim == e)
        assert top == sigma + 1, m
        # the route with no ceiling: pieces through m*reg(I_X), every m-fold product
        full = GradedIdeal.from_pieces(3, symbolic_power_pieces(X, m, m * reg_x), X.field)
        want = lab_sdefect(full, power_ideal(base, m), m * reg_x + 1)
        assert sdefect_points(X, [m])[0].per_degree == want.per_degree, m


def test_power_ideal_cap_keeps_the_low_products_in_order():
    # I_X of five general points: one conic and two cubics
    I = ideal_of_points(random_general_points(5, 1))
    assert sorted(g.degree for g in I.gens) == [2, 3, 3]
    for m in (1, 2, 3):
        full = power_ideal(I, m).gens
        for k in range(0, 3 * m + 2):
            assert power_ideal(I, m, max_degree=k).gens == [g for g in full if g.degree <= k], (m, k)
        assert power_ideal(I, m, max_degree=2 * m - 1).gens == []


def test_symbolic_power_of_eight_points_skips_zero_and_high_degrees(monkeypatch):
    X = random_general_points(8, 1)
    degree_of_width = {basis_size(3, d): d for d in range(40)}
    kernel = Subspace.kernel
    seen = []

    def counted(M, field):
        seen.append(degree_of_width[M.shape[1]])
        return kernel(M, field)

    monkeypatch.setattr(Subspace, "kernel", staticmethod(counted))
    J = symbolic_power_points(X, 7)
    assert sorted(J._pieces) == list(range(22))
    assert seen == [19, 20, 21]


def _conic_dual_lines(k, field):
    """k lines x0 + t x1 + t^2 x2, no three concurrent (a Vandermonde minor)."""
    return [poly_from_vector(np.array([1, t, t * t], dtype=np.int64), 3, 1, field) for t in range(k)]


_ORACLE_SETS = [(f"general-{s}", lambda prime, s=s: random_general_points(s, s, prime)) for s in range(1, 11)] + [
    ("collinear-4", lambda prime: pts((1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 2), prime=prime)),
    ("star-4-lines", lambda prime: star_points_from_lines(_conic_dual_lines(4, PrimeField(prime)))),
    ("star-5-lines", lambda prime: star_points_from_lines(_conic_dual_lines(5, PrimeField(prime)))),
    (
        "zero-coordinates",
        lambda prime: pts((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 2, 0), (2, 0, 1), prime=prime),
    ),
    ("on-z=0", lambda prime: pts((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 0), prime=prime)),
]


@pytest.mark.parametrize("prime", [5, 32003, 8388593])
@pytest.mark.parametrize("name,make", _ORACLE_SETS, ids=[c[0] for c in _ORACLE_SETS])
def test_points_profile_hf_matches_evaluation_oracle(name, make, prime):
    X = make(prime)
    prof = points_profile(X)
    sigma = _sigma_oracle(X)
    assert prof.hf == tuple(_hf_oracle(X, d) for d in range(sigma + 2))
    assert prof.regularity == sigma + 1 <= len(X)


def _count_calls(monkeypatch, *names):
    """Wrap functions of stardefect.points; returns their call counts."""
    import stardefect.points as points

    calls = dict.fromkeys(names, 0)
    for name in names:
        inner = getattr(points, name)

        def counted(*args, name=name, inner=inner, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(points, name, counted)
    return calls


def test_symbolic_power_points_walks_no_regularity(monkeypatch):
    X = random_general_points(8, 1)
    calls = _count_calls(monkeypatch, "regularity_points", "points_profile")
    assert symbolic_power_points(X, 7).top_gen_degree() == 21
    assert calls == {"regularity_points": 0, "points_profile": 0}


def test_sdefect_points_builds_ideal_and_regularity_once_per_sequence(monkeypatch):
    X = random_general_points(8, 1)
    calls = _count_calls(monkeypatch, "regularity_points", "ideal_of_points", "symbolic_power_points")
    reports = sdefect_points(X, list(range(8)))
    assert [rep.total for rep in reports] == [0, 0, 1, 3, 6, 10, 9, 7]
    assert [rep.degree_bound_used for rep in reports] == [0] + [4 * m + 1 for m in range(1, 8)]
    # I_X serves as I_X^(1), so m = 2..7 build one symbolic power each
    assert calls == {"regularity_points": 1, "ideal_of_points": 1, "symbolic_power_points": 7}


def test_sdefect_points_at_power_zero_builds_nothing(monkeypatch):
    import stardefect.points as points

    X = random_general_points(8, 1)

    def forbidden(*args, **kwargs):
        raise AssertionError("built at m = 0")

    for name in ("regularity_points", "points_profile", "ideal_of_points", "symbolic_power_points", "power_ideal"):
        monkeypatch.setattr(points, name, forbidden)
    reports = sdefect_points(X, [0, 0])
    assert [(rep.per_degree, rep.total, rep.degree_bound_used) for rep in reports] == [({}, 0, 0)] * 2
    assert sdefect_points(X, []) == []


@pytest.mark.parametrize("ms", [[-1], [2, -1], [0, 1, -3]])
def test_sdefect_points_rejects_a_negative_power_before_building(monkeypatch, ms):
    calls = _count_calls(monkeypatch, "regularity_points", "ideal_of_points")
    with pytest.raises(ValueError, match="negative power"):
        sdefect_points(random_general_points(4, 1), ms)
    assert calls == {"regularity_points": 0, "ideal_of_points": 0}

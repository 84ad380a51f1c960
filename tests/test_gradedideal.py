import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect.linalg import GF32003, QQ, PrimeField, Subspace, _echelon_reference
from stardefect.gradedideal import (
    BettiTable,
    FreeModuleLayout,
    GradedIdeal,
    _complete_in_subspace,
    betti_from_weyman,
    check_alternating_sum,
    graded_betti,
    ideals_equal,
    sdefect,
)
from stardefect.monomial import (
    MonomialIdeal,
    module_min_gens,
    sdefect_star_monomial,
    star_monomial,
    symbolic_power_star,
)
from stardefect.poly import HomogPoly, parse_form


def P(text, num_vars=3, field=GF32003):
    return parse_form(text, field, num_vars=num_vars)


def ideal(*texts, num_vars=3, field=GF32003):
    return GradedIdeal(num_vars, [parse_form(t, field, num_vars=num_vars) for t in texts], field)


def monomial_to_ideal(I: MonomialIdeal, field=GF32003) -> GradedIdeal:
    gens = [
        HomogPoly(I.num_vars, sum(m), {m: field.of(1)}, field)
        for m in I.gens
    ]
    return GradedIdeal(I.num_vars, gens, field)


def test_graded_piece_principal_linear():
    J = ideal("x0")
    assert J.graded_piece(2).dim == 3  # x0 * R_1


def test_graded_piece_below_alpha():
    J = ideal("x0*x1 - x2^2")
    assert J.graded_piece(1).dim == 0
    assert J.graded_piece(2).dim == 1
    assert J.graded_piece(3).dim == 3


def test_hilbert_function_zero_ideal():
    J = GradedIdeal(3, [], GF32003)
    assert J.hilbert_function(4) == 15


def test_member():
    g = P("x0*x1 - x2^2")
    J = ideal("x0*x1 - x2^2")
    assert J.member(g)
    assert J.member(P("x0^2*x1 - x0*x2^2"))
    assert not J.member(P("x0^2"))
    assert not ideal("x0^2").member(P("x0"))


def test_ideals_equal_scaling_and_order():
    J = ideal("x0^2", "x1*x2")
    K = ideal("7*x1*x2", "x0^2 + 3*x1*x2")
    assert ideals_equal(J, K)
    assert not ideals_equal(J, ideal("x0^2"))


def test_min_gens_redundant_cube():
    J = ideal("x0^2", "x0^3")
    got = {d: len(v) for d, v in J.min_gens(5).items()}
    assert got == {2: 1}


def test_min_gens_representative_is_lex_first():
    J = ideal("x1^2", "x0^2")
    reps = J.min_gens(3)
    assert [r.terms for r in reps[2]] == [{(2, 0, 0): 1}, {(0, 2, 0): 1}]


def test_sdefect_equal_ideals_zero():
    J = ideal("x0*x1", "x1*x2", "x0*x2")
    rep = sdefect(J, J, 6)
    assert rep.total == 0


def test_sdefect_requires_containment():
    with pytest.raises(ValueError):
        sdefect(ideal("x0^2"), ideal("x1"), 4)


def test_sdefect_matches_monomial_count_star22():
    isym = monomial_to_ideal(symbolic_power_star(2, 2, 2))
    ipow = monomial_to_ideal(star_monomial(2, 2).power(2))
    rep = sdefect(isym, ipow, 5)
    assert rep.total == 1
    assert rep.per_degree == {3: 1}


def test_sdefect_stops_at_top_generator_degree():
    isym = monomial_to_ideal(symbolic_power_star(3, 2, 3))
    ipow = monomial_to_ideal(star_monomial(3, 2).power(3))
    gmax = max(g.degree for g in isym.gens)
    rep = sdefect(isym, ipow, gmax + 3)
    assert rep.degree_bound_used == gmax + 3
    assert rep.total == sdefect_star_monomial(3, 2, 3)
    # the count needs pieces up to the ceiling; containment needs isym at
    # the degrees of the ipow generators
    needed = max([gmax] + [g.degree for g in ipow.gens])
    assert max(isym._pieces) <= needed
    assert max(ipow._pieces) <= gmax


def test_min_gens_stops_at_top_generator_degree():
    J = ideal("x0^2", "x1^3 + x0*x2^2", "x2^4")
    assert J.min_gens_counts(4 + 3) == {2: 1, 3: 1, 4: 1}
    assert max(J._pieces) == 4
    assert GradedIdeal(3, [], GF32003).min_gens(5) == {}


def test_from_pieces_round_trip():
    # Nakayama representatives of a generator-defined ideal's pieces are its min_gens
    J = ideal("x0^2 + x1*x2", "x0*x1^2", "x0^3", "x1^3 - x2^3", "x0*x2^3")
    top = J.top_gen_degree()
    K = GradedIdeal.from_pieces(3, {d: J.graded_piece(d) for d in range(top + 1)}, GF32003)
    assert K.gens == [g for _, reps in sorted(J.min_gens(top).items()) for g in reps]
    assert len(K.gens) == 4  # x0^3 is redundant
    assert all(K.graded_piece(d) == J.graded_piece(d) for d in range(top + 3))


def test_from_pieces_rejects_pieces_of_no_ideal():
    pieces = {0: Subspace.zero(1, GF32003), 1: ideal("x0").graded_piece(1), 2: ideal("x1^2").graded_piece(2)}
    with pytest.raises(ArithmeticError):
        GradedIdeal.from_pieces(3, pieces, GF32003)


def test_sdefect_over_zero_ideal_counts_min_gens():
    J = ideal("x0^2", "x0*x1", "x0^3", "x1^3 + x2^3", "x0*x2^2")
    rep = sdefect(J, GradedIdeal(3, [], GF32003), 6)
    assert rep.per_degree == J.min_gens_counts(6) == {2: 2, 3: 2}


def test_contains_ideal_finds_a_later_non_member():
    J = ideal("x0", "x1^2")
    # mixed degrees; the one non-member is the second generator of degree 2
    assert J.contains_ideal(ideal("x0*x2", "x1^2 + x0*x1", "x0^3", "x0*x2^2 - x1^2*x2"))
    assert not J.contains_ideal(ideal("x0*x2", "x1^2 + x0*x1", "x1*x2", "x0^3"))
    assert not J.contains_ideal(ideal("x1^3", "x0*x2", "x2^2 + x0*x1"))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 3))
def test_sdefect_cross_module_oracle(n, c, m):
    c = min(c, n)
    isym_m = symbolic_power_star(n, c, m)
    ipow_m = star_monomial(n, c).power(m)
    D = max(sum(g) for g in isym_m.gens + ipow_m.gens) + 1
    rep = sdefect(monomial_to_ideal(isym_m), monomial_to_ideal(ipow_m), D)
    assert rep.total == sdefect_star_monomial(n, c, m)
    expected_by_degree = {}
    for g in module_min_gens(isym_m, ipow_m):
        expected_by_degree[sum(g)] = expected_by_degree.get(sum(g), 0) + 1
    assert rep.per_degree == expected_by_degree


def test_koszul_betti():
    J = ideal("x0", "x1")
    t = graded_betti(J, 2, 5)
    assert t.as_dict() == {(0, 1): 2, (1, 2): 1}
    assert check_alternating_sum(J, t, 5)


def test_complete_intersection_conics_betti():
    J = ideal("x0^2 - x1*x2", "x1^2 - x0*x2")
    t = graded_betti(J, 2, 6)
    assert t.as_dict() == {(0, 2): 2, (1, 4): 1}


def test_betti_rationals_small():
    J = ideal("x0", "x1", num_vars=3, field=QQ)
    t = graded_betti(J, 2, 4)
    assert t.as_dict() == {(0, 1): 2, (1, 2): 1}


def test_betti_from_weyman_koszul():
    t = BettiTable.from_dict({(0, 1): 2, (1, 2): 1})
    pred = betti_from_weyman(t)
    assert pred.row(0) == {2: 3}
    assert pred.row(1) == {3: 2}
    assert pred.row(2) == {}


def test_betti_from_weyman_five_points_shape():
    t = BettiTable.from_dict({(0, 2): 1, (0, 3): 2, (1, 4): 2})
    pred = betti_from_weyman(t)
    assert pred.row(0) == {4: 1, 5: 2, 6: 3}
    assert pred.row(1) == {6: 2, 7: 4}
    assert pred.row(2) == {8: 1}


def test_betti_from_weyman_rejects_malformed():
    with pytest.raises(ValueError):
        betti_from_weyman(BettiTable.from_dict({(0, 2): 1, (2, 5): 1}))


def test_weyman_matches_direct_square_for_koszul():
    J = ideal("x0", "x1")
    sq = ideal("x0^2", "x0*x1", "x1^2")
    direct = graded_betti(sq, 2, 6)
    pred = betti_from_weyman(graded_betti(J, 1, 4))
    assert direct == pred
    assert check_alternating_sum(sq, direct, 6)


def test_monomial_star_square_betti_consistency():
    # I = star(2,2): three quadrics x0x1, x0x2, x1x2 in P^2
    J = monomial_to_ideal(star_monomial(2, 2))
    t = graded_betti(J, 2, 6)
    assert t.row(0) == {2: 3}
    assert check_alternating_sum(J, t, 6)
    sq = monomial_to_ideal(star_monomial(2, 2).power(2))
    t2 = graded_betti(sq, 2, 8)
    pred = betti_from_weyman(t)
    assert t2 == pred


def test_piece_cache_inductive_consistency():
    # force both construction routes and compare
    J1 = ideal("x0*x1 - x2^2", "x1^3")
    J2 = ideal("x0*x1 - x2^2", "x1^3")
    for d in range(0, 7):
        J1.graded_piece(d)  # inductive route (ascending)
    for d in (6, 3, 5):
        J2._pieces.pop(d, None)
    assert J1.graded_piece(6) == J2.graded_piece(6)


def test_betti_table_display_and_json():
    t = BettiTable.from_dict({(0, 2): 2, (1, 4): 1})
    s = t.display()
    assert "2" in s and ":" in s
    assert t.to_json() == {"betti": [{"i": 0, "j": 2, "rank": 2}, {"i": 1, "j": 4, "rank": 1}]}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_piece_growth_and_nonnegative_mu(seed):
    # dim J_{d+1} >= dim(R_1 * J_d), and Nakayama counts are never negative
    import numpy as np
    from stardefect.linalg import rank
    from stardefect.poly import basis_size, poly_from_vector

    rng = np.random.default_rng(seed)
    gens = []
    for _ in range(rng.integers(1, 4)):
        d = int(rng.integers(1, 4))
        vec = rng.integers(0, 32003, basis_size(3, d))
        if vec.any():
            gens.append(poly_from_vector(vec, 3, d, GF32003))
    J = GradedIdeal(3, gens, GF32003)
    for d in range(0, 6):
        piece = J.graded_piece(d)
        nxt = J.graded_piece(d + 1)
        if piece.dim:
            shifted = FreeModuleLayout(3, (0,)).shift_rows(piece.basis, d, GF32003)
            assert nxt.dim >= rank(shifted, GF32003)
    for d, reps in J.min_gens(6).items():
        assert len(reps) > 0


def _greedy_completion_oracle(W, k, field):
    """Keep e_q when one rank test says it is independent of W and the rows kept so far."""
    kept = []
    rows = W
    for q in range(k):
        e = field.zeros((1, k))
        e[0, q] = 1
        cand = np.concatenate([rows, e], axis=0)
        if _echelon_reference(cand, field, reduced=False)[0] > _echelon_reference(rows, field, reduced=False)[0]:
            kept.append(q)
            rows = cand
    return kept


def test_complete_in_subspace_matches_greedy_rank_oracle():
    gf7 = PrimeField(7)
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        piece = Subspace.from_rows(rng.integers(0, 7, size=(int(rng.integers(1, n + 1)), n)), gf7)
        k = piece.dim
        # rows of the piece: random combinations of its basis, of random rank
        r = int(rng.integers(0, k + 1))
        coeffs = rng.integers(0, 7, size=(int(rng.integers(0, 2 * k + 1)), r)) @ rng.integers(0, 7, size=(r, k)) % 7
        wrows = coeffs @ piece.basis % 7
        assert _complete_in_subspace(piece, wrows, gf7) == _greedy_completion_oracle(coeffs, k, gf7)

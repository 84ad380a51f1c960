from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect import gradedideal
from stardefect.cli import DESK_SCALE_COLUMNS
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
    multiples,
    sdefect,
)
from stardefect.monomial import (
    MonomialIdeal,
    module_min_gens,
    sdefect_star_monomial,
    star_monomial,
    symbolic_power_star,
)
from stardefect.points import (
    ideal_of_points,
    power_ideal,
    random_general_points,
    regularity_points,
    sdefect_points,
    symbolic_power_pieces,
    symbolic_power_points,
)
from stardefect.poly import (
    HomogPoly,
    basis_size,
    coefficient_vector,
    monomial_basis,
    multiply,
    parse_form,
    poly_from_vector,
)
from stardefect.stargeneral import random_star_config, star_ideal, symbolic_power_star_general


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


def test_from_pieces_rejects_a_zero_piece_above_a_nonzero_one():
    # x0 spans degree 1, so no ideal has a zero piece in degree 2
    pieces = {0: Subspace.zero(1, GF32003), 1: ideal("x0").graded_piece(1), 2: Subspace.zero(6, GF32003)}
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
    t = graded_betti(J, 5)
    assert t.as_dict() == {(0, 1): 2, (1, 2): 1}
    assert check_alternating_sum(J, t, 5)


def test_complete_intersection_conics_betti():
    J = ideal("x0^2 - x1*x2", "x1^2 - x0*x2")
    t = graded_betti(J, 6)
    assert t.as_dict() == {(0, 2): 2, (1, 4): 1}


def test_betti_rationals_small():
    J = ideal("x0", "x1", num_vars=3, field=QQ)
    t = graded_betti(J, 4)
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
    direct = graded_betti(sq, 6)
    pred = betti_from_weyman(graded_betti(J, 4))
    assert direct == pred
    assert check_alternating_sum(sq, direct, 6)


def test_monomial_star_square_betti_consistency():
    # I = star(2,2): three quadrics x0x1, x0x2, x1x2 in P^2
    J = monomial_to_ideal(star_monomial(2, 2))
    t = graded_betti(J, 6)
    assert t.row(0) == {2: 3}
    assert check_alternating_sum(J, t, 6)
    sq = monomial_to_ideal(star_monomial(2, 2).power(2))
    t2 = graded_betti(sq, 8)
    pred = betti_from_weyman(t)
    assert t2 == pred


def test_piece_cache_inductive_consistency():
    # pieces asked for in ascending order and out of order agree
    J1 = ideal("x0*x1 - x2^2", "x1^3")
    J2 = ideal("x0*x1 - x2^2", "x1^3")
    for d in range(0, 7):
        J1.graded_piece(d)  # ascending
    for d in (6, 3, 5):
        J2._pieces.pop(d, None)
    assert J1.graded_piece(6) == J2.graded_piece(6)


def test_betti_table_display_and_json():
    t = BettiTable.from_dict({(0, 2): 2, (1, 4): 1})
    s = t.display()
    assert "2" in s and ":" in s
    assert t.to_json() == {"betti": [{"i": 0, "j": 2, "rank": 2}, {"i": 1, "j": 4, "rank": 1}]}


def _shift_rows(layout: FreeModuleLayout, rows: np.ndarray, j_from: int, field) -> np.ndarray:
    """Reference: elements of degree j_from times every variable, block v holding x_v * rows."""
    nv, k = layout.num_vars, rows.shape[0]
    out = field.zeros((nv * k, layout.piece_dim(j_from + 1)))
    offs_from, offs_to = layout.offsets(j_from), layout.offsets(j_from + 1)
    for comp, a in enumerate(layout.twists):
        if j_from < a:
            continue
        index = {u: i for i, u in enumerate(monomial_basis(nv, j_from + 1 - a))}
        for i, u in enumerate(monomial_basis(nv, j_from - a)):
            for v in range(nv):
                tgt = offs_to[comp] + index[tuple(x + (w == v) for w, x in enumerate(u))]
                out[v * k : (v + 1) * k, tgt] = rows[:, offs_from[comp] + i]
    return out


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
            shifted = _shift_rows(FreeModuleLayout(3, (0,)), piece.basis, d, GF32003)
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


# -- Nakayama steps only where a generator can appear ------------------------

def _shift_walk(layout: FreeModuleLayout, pieces, field, extra=None) -> dict[int, np.ndarray]:
    """Reference: a Nakayama step at every degree of consecutive (d, M_d) pairs, each shifting the previous piece.

    Returns the kept basis rows per degree; ``extra(d)`` is added to the
    shifted rows as in :func:`sdefect`.
    """
    prev = Subspace.zero(0, field)
    out = {}
    for d, piece in pieces:
        if piece.dim:
            rows = _shift_rows(layout, prev.basis, d - 1, field)
            if extra is not None:
                rows = np.concatenate([extra(d), rows], axis=0)
            kept = _complete_in_subspace(piece, rows, field)
            if kept:
                out[d] = piece.basis[kept]
        prev = piece
    return out


def _every_degree_walk(J: GradedIdeal, top: int, extra=None) -> dict[int, np.ndarray]:
    """Reference: the shift walk over J_0..J_top."""
    pieces = ((d, J.graded_piece(d)) for d in range(top + 1))
    return _shift_walk(FreeModuleLayout(J.num_vars, (0,)), pieces, J.field, extra)


def _fresh(J: GradedIdeal) -> GradedIdeal:
    return GradedIdeal(J.num_vars, J.gens, J.field)


def _assert_matches_every_degree_walk(isym: GradedIdeal, ipow: GradedIdeal, bound: int):
    """sdefect counts and min_gens representatives equal the every-degree walk's."""
    top = min(bound, isym.top_gen_degree())
    ref_isym, ref_ipow = _fresh(isym), _fresh(ipow)
    ref_counts = {
        d: len(rows)
        for d, rows in _every_degree_walk(ref_isym, top, lambda d: ref_ipow.graded_piece(d).basis).items()
    }
    assert sdefect(_fresh(isym), _fresh(ipow), bound).per_degree == ref_counts
    ref_gens = _every_degree_walk(ref_isym, top)
    got = _fresh(isym).min_gens(bound)
    assert sorted(got) == sorted(ref_gens)
    for d, reps in got.items():
        assert np.array_equal(np.stack([coefficient_vector(g) for g in reps]), ref_gens[d])


def _desk_scale_grid_cells():
    for n in range(1, 6):
        for c in range(1, n + 1):
            for m in range(1, 4):
                isym = symbolic_power_star(n, c, m)
                ipow = star_monomial(n, c).power(m)
                D = max(sum(g) for g in isym.gens + ipow.gens) + 1
                if basis_size(n + 1, D) <= DESK_SCALE_COLUMNS:
                    yield n, c, m


@pytest.mark.parametrize("n,c,m", list(_desk_scale_grid_cells()))
def test_grid_sdefect_matches_every_degree_walk(n, c, m):
    isym = monomial_to_ideal(symbolic_power_star(n, c, m))
    ipow = monomial_to_ideal(star_monomial(n, c).power(m))
    D = max(g.degree for g in isym.gens + ipow.gens) + 1
    _assert_matches_every_degree_walk(isym, ipow, D)


@pytest.mark.parametrize("degrees,seed", [([1, 1, 1], 3), ([1, 1, 2], 7), ([1, 2, 2], 11), ([1, 1, 1, 1], 5), ([2, 2, 2], 2)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_star_sdefect_matches_every_degree_walk(degrees, seed, m):
    cfg = random_star_config(3, 2, degrees, seed)
    isym = symbolic_power_star_general(cfg, m)
    ipow = power_ideal(star_ideal(cfg), m)
    _assert_matches_every_degree_walk(isym, ipow, max(g.degree for g in isym.gens + ipow.gens))


@pytest.mark.parametrize("s", [6, 8])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_points_sdefect_matches_every_degree_walk(s, m):
    X = random_general_points(s, 1)
    isym = symbolic_power_points(X, m)
    ipow = power_ideal(ideal_of_points(X), m, max_degree=isym.top_gen_degree())
    _assert_matches_every_degree_walk(isym, ipow, isym.top_gen_degree())
    ref = _every_degree_walk(_fresh(isym), isym.top_gen_degree(), lambda d: _fresh(ipow).graded_piece(d).basis)
    assert sdefect_points(X, [m])[0].per_degree == {d: len(rows) for d, rows in ref.items()}


def test_redundant_generators_in_one_degree_match_every_degree_walk():
    # degree 3: x0^3 and x0^2*x1 lie in R_1 J_2, x1^3 + x0*x2^2 does not
    isym = ideal("x0^2", "x0*x1", "x0^2 + x0*x1", "x0^3", "x0^2*x1", "x1^3 + x0*x2^2", "x2^5")
    assert isym.min_gens_counts(6) == {2: 2, 3: 1, 5: 1}
    for ipow in (ideal("x0^2"), ideal("x0^3", "x0*x1^2"), ideal("x0^2", "x0*x1", "x2^5"), GradedIdeal(3, [], GF32003)):
        for bound in range(7):
            _assert_matches_every_degree_walk(isym, ipow, bound)


def test_bound_below_top_generator_degree_matches_every_degree_walk():
    isym = monomial_to_ideal(symbolic_power_star(3, 2, 3))
    ipow = monomial_to_ideal(star_monomial(3, 2).power(3))
    for bound in range(isym.top_gen_degree()):
        _assert_matches_every_degree_walk(isym, ipow, bound)


def test_degree_with_one_generator_in_ipow_and_one_outside_is_counted():
    # both degree-2 generators of isym: x0^2 lies in ipow, x1^2 does not
    for isym in (ideal("x0^2", "x1^2", "x0*x2^2"), ideal("x1^2", "x0^2", "x0*x2^2")):
        ipow = ideal("x0^2", "x0*x2^2")
        assert sdefect(isym, ipow, 3).per_degree == {2: 1}
        _assert_matches_every_degree_walk(isym, ipow, 3)


def _completion_degrees(monkeypatch, num_vars):
    """Degrees at which _complete_in_subspace runs, read off each piece's width."""
    degree_of = {basis_size(num_vars, d): d for d in range(40)}
    seen = []
    real = gradedideal._complete_in_subspace

    def counting(piece, wrows, field):
        seen.append(degree_of[piece.ambient_dim])
        return real(piece, wrows, field)

    monkeypatch.setattr(gradedideal, "_complete_in_subspace", counting)
    return seen


def test_sdefect_completes_only_where_a_generator_is_outside_ipow(monkeypatch):
    isym = monomial_to_ideal(symbolic_power_star(5, 4, 3))
    ipow = monomial_to_ideal(star_monomial(5, 4).power(3))
    seen = _completion_degrees(monkeypatch, 6)
    rep = sdefect(isym, ipow, max(g.degree for g in isym.gens + ipow.gens) + 1)
    assert rep.total == sdefect_star_monomial(5, 4, 3)
    assert seen == [5, 7]


def test_min_gens_completes_only_at_generator_degrees(monkeypatch):
    J = ideal("x0^2 + x1*x2", "x1^5 - x2^5", "x0*x2^4")
    seen = _completion_degrees(monkeypatch, 3)
    assert J.min_gens_counts(8) == {2: 1, 5: 2}
    assert seen == [2, 5]


# -- one construction for ideal pieces ---------------------------------------

def _multiples_reference(num_vars, forms, d, field):
    """Per-form reference: coefficient_vector(u * g) for each basis monomial u of degree d - deg g."""
    rows = [
        coefficient_vector(multiply(HomogPoly(num_vars, d - g.degree, {u: field.of(1)}, field), g))
        for g in forms
        if g.degree <= d
        for u in monomial_basis(num_vars, d - g.degree)
    ]
    return np.stack(rows) if rows else field.zeros((0, basis_size(num_vars, d)))


def _random_form(rng, num_vars, e, field):
    """A form of degree e with one term or many, with nonzero coefficients (fractions over QQ)."""
    monos = monomial_basis(num_vars, e)
    picked = [monos[0]] if rng.integers(2) else list(monos)
    if len(monos) > 1 and rng.integers(2):
        picked = [monos[i] for i in rng.choice(len(monos), size=int(rng.integers(1, len(monos) + 1)), replace=False)]

    def coeff():
        if field == QQ:
            return Fraction(int(rng.integers(1, 50)) * (-1) ** int(rng.integers(2)), int(rng.integers(1, 9)))
        return field.of(int(rng.integers(1, field.p)))

    return HomogPoly(num_vars, e, {m: coeff() for m in picked}, field)


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, PrimeField(8388593), QQ], ids=str)
def test_multiples_matches_per_form_products(field):
    rng = np.random.default_rng(14)
    for _ in range(40):
        nv = int(rng.integers(1, 5))
        d = int(rng.integers(0, 5))
        # mixed degrees in random order, degree 0 and degrees above d included
        forms = [_random_form(rng, nv, int(rng.integers(0, d + 3)), field) for _ in range(int(rng.integers(0, 6)))]
        got = multiples(nv, forms, d, field)
        ref = _multiples_reference(nv, forms, d, field)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_multiples_stacks_row_blocks_in_the_order_of_the_forms():
    # x1, 2, x0 + x2, x2^3: blocks of 3, 6 and 3 rows; the cubic is dropped
    forms = [P("x1"), P("2"), P("x0 + x2"), P("x2^3")]
    got = multiples(3, forms, 2, GF32003)
    assert got.shape == (12, 6)
    ref = np.concatenate([_multiples_reference(3, [g], 2, GF32003) for g in forms[:3]])
    assert np.array_equal(got, ref)
    assert np.array_equal(got[3:9], 2 * np.eye(6, dtype=np.int64))


def _shift_route(J: GradedIdeal, d: int, below: Subspace) -> Subspace:
    """The old construction, kept as an oracle: J_{d-1} times every variable, plus G_d."""
    shifted = _shift_rows(FreeModuleLayout(J.num_vars, (0,)), below.basis, d - 1, J.field)
    new = multiples(J.num_vars, [g for g in J.gens if g.degree == d], d, J.field)
    return Subspace.from_rows(np.concatenate([shifted, new]), J.field)


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, QQ], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_graded_piece_matches_shift_route(field, seed):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 5))
    gens = [_random_form(rng, nv, int(rng.integers(1, 4)), field) for _ in range(int(rng.integers(1, 5)))]
    J = GradedIdeal(nv, gens, field)
    bound = J.top_gen_degree() + 2
    ref = [Subspace.zero(0, field)]
    for d in range(bound + 1):
        ref.append(_shift_route(J, d, ref[-1]))
    ref = ref[1:]
    # every degree up to the bound, each asked of a fresh ideal and out of order
    for d in rng.permutation(bound + 1):
        assert GradedIdeal(nv, gens, field).graded_piece(int(d)) == ref[d]
    # above the pieces installed by from_pieces
    top = J.top_gen_degree()
    K = GradedIdeal.from_pieces(nv, {d: ref[d] for d in range(top + 1)}, field)
    below = ref[top]
    for d in range(top + 1, top + 4):
        below = _shift_route(K, d, below)
        assert K.graded_piece(d) == below


def test_sdefect_and_min_gens_ask_no_piece_below_a_tested_degree(monkeypatch):
    isym = monomial_to_ideal(symbolic_power_star(5, 4, 3))
    ipow = monomial_to_ideal(star_monomial(5, 4).power(3))
    asked = []
    real = isym.graded_piece
    monkeypatch.setattr(isym, "graded_piece", lambda d: asked.append(d) or real(d))
    sdefect(isym, ipow, isym.top_gen_degree() + 1)
    # containment of ipow at its generator degree 9, then the tested degrees 5 and 7
    assert {g.degree for g in ipow.gens} == {9}
    assert asked == [9, 5, 7]
    J = ideal("x0^2 + x1*x2", "x1^5 - x2^5", "x0*x2^4")
    asked.clear()
    real_j = J.graded_piece
    monkeypatch.setattr(J, "graded_piece", lambda d: asked.append(d) or real_j(d))
    assert J.min_gens_counts(8) == {2: 1, 5: 2}
    assert asked == [2, 5]


# -- one Nakayama walk: R_1 M_{d-1} from the multiples of the kept rows ------

def _layout_multiples_reference(layout: FreeModuleLayout, elements, j, field):
    """Per-element reference: for each basis monomial u of degree j - e, u * g component by component."""
    nv = layout.num_vars
    rows = []
    for e, g in elements:
        if e > j:
            continue
        for u in monomial_basis(nv, j - e):
            mono = HomogPoly(nv, j - e, {u: field.of(1)}, field)
            parts = []
            for a, off in zip(layout.twists, layout.offsets(e)):
                if j < a:
                    continue
                comp = poly_from_vector(g[off : off + basis_size(nv, e - a)], nv, e - a, field) if e >= a else None
                if comp is None or comp.is_zero:
                    parts.append(field.zeros((basis_size(nv, j - a),)))
                else:
                    parts.append(coefficient_vector(multiply(mono, comp)))
            rows.append(np.concatenate(parts) if parts else field.zeros((0,)))
    return np.stack(rows) if rows else field.zeros((0, layout.piece_dim(j)))


def _random_element(rng, layout: FreeModuleLayout, e, field):
    """A coefficient row of the degree-e piece; each component a random form or zero."""
    parts = [
        field.zeros((basis_size(layout.num_vars, e - a),))
        if rng.integers(3) == 0
        else coefficient_vector(_random_form(rng, layout.num_vars, e - a, field))
        for a in layout.twists
        if e >= a
    ]
    return np.concatenate(parts) if parts else field.zeros((0,))


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, PrimeField(8388593), QQ], ids=str)
def test_layout_multiples_match_per_element_products(field):
    rng = np.random.default_rng(15)
    for _ in range(40):
        nv = int(rng.integers(1, 4))
        # several twists, unsorted and repeated; elements below a twist, at it and above j
        layout = FreeModuleLayout(nv, tuple(int(a) for a in rng.integers(0, 4, size=int(rng.integers(1, 4)))))
        j = int(rng.integers(0, 6))
        elements = []
        for _ in range(int(rng.integers(0, 5))):
            e = int(rng.integers(0, j + 3))
            elements.append((e, _random_element(rng, layout, e, field)))
        got = layout.multiples(elements, j, field)
        ref = _layout_multiples_reference(layout, elements, j, field)
        assert got.dtype == ref.dtype and got.shape == ref.shape == (len(ref), layout.piece_dim(j))
        assert np.array_equal(got, ref)


def test_layout_multiples_stack_row_blocks_in_the_order_of_the_elements():
    layout = FreeModuleLayout(3, (2, 0))
    rng = np.random.default_rng(3)
    elements = [(e, _random_element(rng, layout, e, GF32003)) for e in (3, 1, 5, 1, 2)]
    got = layout.multiples(elements, 3, GF32003)
    # blocks of 1, 6, 6 and 3 rows; the element of degree 5 > 3 is dropped
    assert got.shape == (16, layout.piece_dim(3))
    blocks = [_layout_multiples_reference(layout, [el], 3, GF32003) for el in elements if el[0] <= 3]
    assert [len(b) for b in blocks] == [1, 6, 6, 3]
    assert np.array_equal(got, np.concatenate(blocks))


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, QQ], ids=str)
def test_layout_multiples_on_the_ring_are_the_multiples_of_forms(field):
    rng = np.random.default_rng(16)
    for _ in range(20):
        nv = int(rng.integers(1, 5))
        d = int(rng.integers(0, 5))
        forms = [_random_form(rng, nv, int(rng.integers(0, d + 3)), field) for _ in range(int(rng.integers(0, 6)))]
        elements = [(g.degree, coefficient_vector(g)) for g in forms]
        assert np.array_equal(FreeModuleLayout(nv, (0,)).multiples(elements, d, field), multiples(nv, forms, d, field))


@pytest.mark.parametrize("s", range(3, 11))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_from_pieces_generators_match_shift_walk(s, m):
    X = random_general_points(s, 1)
    pieces = symbolic_power_pieces(X, m, m * regularity_points(X))
    ref = _shift_walk(FreeModuleLayout(3, (0,)), sorted(pieces.items()), X.field)
    J = GradedIdeal.from_pieces(3, pieces, X.field)
    assert [g.degree for g in J.gens] == [d for d in sorted(ref) for _ in ref[d]]
    for d, rows in ref.items():
        assert np.array_equal(np.stack([coefficient_vector(g) for g in J.gens if g.degree == d]), rows)


def _kernel_shift_walk(source: FreeModuleLayout, images, target: FreeModuleLayout, bound, field):
    """Reference syzygy walk: kernels of the per-element product matrices, each step shifting K_{j-1}."""
    elements = list(zip(source.twists, images))
    kernels = (
        (j, Subspace.kernel(_layout_multiples_reference(target, elements, j, field).T, field))
        for j in range(min(source.twists), bound + 1)
    )
    return _shift_walk(source, kernels, field)


def _kernel_walk(source: FreeModuleLayout, images, target: FreeModuleLayout, bound, field):
    """Representatives (degree, row) and per-degree counts of one level's kernel walk, forming every kernel through the bound."""
    degrees = list(range(min(source.twists), bound + 1))
    steps = gradedideal._kernel_steps(list(zip(source.twists, images)), target, degrees, field, {})
    reps, counts = [], {}
    for j, piece, kept in gradedideal._nakayama(source, steps, field):
        counts[j] = len(kept)
        reps.extend((j, piece.basis[q]) for q in kept)
    return reps, counts


def _assert_kernel_walk_matches(source, images, target, bound, field):
    """Counts and representatives of the kernel walk equal the shift walk's."""
    reps, counts = _kernel_walk(source, images, target, bound, field)
    ref = _kernel_shift_walk(source, images, target, bound, field)
    assert counts == {j: len(rows) for j, rows in ref.items()}
    assert [j for j, _ in reps] == [j for j in sorted(ref) for _ in ref[j]]
    for j, rows in ref.items():
        assert np.array_equal(np.stack([row for i, row in reps if i == j]), rows)
    return reps, counts


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, QQ], ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_graded_betti_matches_shift_walk(field, seed):
    rng = np.random.default_rng(200 + seed)
    # three to five forms of degrees 1..3: most tables have second syzygies
    gens = [_random_form(rng, 3, int(rng.integers(1, 4)), field) for _ in range(int(rng.integers(3, 6)))]
    J = GradedIdeal(3, gens, field)
    bound = J.top_gen_degree() + 3
    by_degree = J.min_gens(bound)
    mins = [g for d in sorted(by_degree) for g in by_degree[d]]
    f0 = FreeModuleLayout(3, tuple(g.degree for g in mins))
    reps1, beta1 = _assert_kernel_walk_matches(f0, [coefficient_vector(g) for g in mins], FreeModuleLayout(3, (0,)), bound, field)
    f1 = FreeModuleLayout(3, tuple(j for j, _ in reps1))
    _, beta2 = _assert_kernel_walk_matches(f1, [row for _, row in reps1], f0, bound, field) if reps1 else (None, {})
    table = graded_betti(J, bound)
    assert table.row(1) == beta1 and table.row(2) == beta2


@pytest.mark.parametrize("square", [False, True], ids=["star", "star-squared"])
def test_kernel_walk_spans_r1_by_multiples_of_kept_representatives(monkeypatch, square):
    # rows handed to the completion at kernel degree j: sum of dim R_{j-e} over the kept
    # representatives (e), not nv * dim K_{j-1} as when the previous kernel was shifted
    cfg = random_star_config(3, 2, [1, 1, 2, 2], 7)
    J = power_ideal(star_ideal(cfg), 2) if square else star_ideal(cfg)
    bound = 2 * cfg.total_degree
    walks = []
    real_steps, real_complete = gradedideal._kernel_steps, gradedideal._complete_in_subspace

    def steps(reps, target, degrees, field, dims):
        # one kernel walk per call, over the free module on the representatives
        walks.append((FreeModuleLayout(3, tuple(e for e, _ in reps)), []))
        return real_steps(reps, target, degrees, field, dims)

    def complete(piece, wrows, field):
        kept = real_complete(piece, wrows, field)
        if walks:
            walks[-1][1].append((piece, wrows.shape[0], kept))
        return kept

    monkeypatch.setattr(gradedideal, "_kernel_steps", steps)
    monkeypatch.setattr(gradedideal, "_complete_in_subspace", complete)
    graded_betti(J, bound)
    assert len(walks) == 2
    shifted = 0
    for source, calls in walks:
        degree_of = {source.piece_dim(j): j for j in range(min(source.twists), bound + 1)}
        assert len(degree_of) == bound + 1 - min(source.twists)
        kept_degrees, dims = [], {}
        for piece, nrows, kept in calls:
            j = degree_of[piece.ambient_dim]
            assert nrows == sum(basis_size(3, j - e) for e in kept_degrees)
            shifted += nrows != 3 * dims.get(j - 1, 0)
            kept_degrees += [j] * len(kept)
            dims[j] = piece.dim
    assert shifted


def _two_level_betti(J: GradedIdeal, homological_bound: int, degree_bound: int) -> BettiTable:
    """Oracle: beta_0 from min_gens as forms and back to rows, then one kernel walk per level, written out."""
    field, nv = J.field, J.num_vars

    def kernel_min_gens(source, images, target):
        elements = list(zip(source.twists, images))
        degrees = range(min(source.twists), degree_bound + 1)
        kernels = ((j, Subspace.kernel(target.multiples(elements, j, field).T, field), None) for j in degrees)
        reps, counts = [], {}
        for j, piece, kept in gradedideal._nakayama(source, kernels, field):
            counts[j] = len(kept)
            reps.extend((j, piece.basis[q]) for q in kept)
        return reps, counts

    by_degree = J.min_gens(degree_bound)
    entries = {(0, d): len(forms) for d, forms in by_degree.items()}
    gens = [g for d in sorted(by_degree) for g in by_degree[d]]
    if homological_bound == 0 or not gens:
        return BettiTable.from_dict(entries)
    f0 = FreeModuleLayout(nv, tuple(g.degree for g in gens))
    reps1, beta1 = kernel_min_gens(f0, [coefficient_vector(g) for g in gens], FreeModuleLayout(nv, (0,)))
    entries.update({(1, j): c for j, c in beta1.items()})
    if homological_bound == 1 or not reps1:
        return BettiTable.from_dict(entries)
    f1 = FreeModuleLayout(nv, tuple(j for j, _ in reps1))
    _, beta2 = kernel_min_gens(f1, [row for _, row in reps1], f0)
    entries.update({(2, j): c for j, c in beta2.items()})
    return BettiTable.from_dict(entries)


@pytest.mark.parametrize("field", [PrimeField(5), GF32003, PrimeField(8388593), QQ], ids=str)
@pytest.mark.parametrize("k", [0, 1, 2])
def test_graded_betti_matches_two_level_oracle(field, k):
    # eight random ideals per rng seed 300 + k; the oracle forms every kernel through the bound
    rng = np.random.default_rng(300 + k)
    for _ in range(8):
        nv = int(rng.integers(2, 5))
        gens = [_random_form(rng, nv, int(rng.integers(1, 3)), field) for _ in range(int(rng.integers(2, 6)))]
        J = GradedIdeal(nv, gens, field)
        bound = J.top_gen_degree() + int(rng.integers(1, 3))
        assert graded_betti(J, bound) == _two_level_betti(_fresh(J), 2, bound)


@pytest.mark.parametrize(
    "nv,c,degrees,m",
    [(3, 2, [1, 1, 2], m) for m in (1, 2, 3)] + [(4, 2, [1, 1, 1, 1], m) for m in (1, 2)] + [(4, 3, [1] * 5, m) for m in (1, 2)],
)
def test_star_graded_betti_matches_two_level_oracle(nv, c, degrees, m):
    # the P^3 stars of codimension three have second syzygies
    cfg = random_star_config(nv, c, degrees, 7)
    J = symbolic_power_star_general(cfg, m)
    bound = m * cfg.total_degree
    assert graded_betti(J, bound) == _two_level_betti(_fresh(J), 2, bound)


def test_graded_betti_stops_at_the_first_level_that_keeps_nothing(monkeypatch):
    # (x0) has no first syzygies, so no second-syzygy walk runs
    J = ideal("x0")
    walks = []
    real = gradedideal._nakayama

    def counting(layout, steps, field):
        walks.append(layout)
        return real(layout, steps, field)

    monkeypatch.setattr(gradedideal, "_nakayama", counting)
    assert graded_betti(J, 6).as_dict() == {(0, 1): 1}
    assert walks == [FreeModuleLayout(3, (0,)), FreeModuleLayout(3, (1,))]


def _level_two_kernel_degrees(monkeypatch, J: GradedIdeal, bound: int) -> tuple[BettiTable, list[int]]:
    """The table of J and the degrees at which graded_betti forms a level-2 (second syzygy) kernel."""
    real = gradedideal._kernel_steps
    levels = []

    def steps(reps, target, degrees, field, dims):
        levels.append(list(degrees))
        return real(reps, target, degrees, field, dims)

    monkeypatch.setattr(gradedideal, "_kernel_steps", steps)
    table = graded_betti(J, bound)
    monkeypatch.setattr(gradedideal, "_kernel_steps", real)
    return table, levels[1] if len(levels) > 1 else []


@pytest.mark.parametrize("nv,degrees", [(3, [1, 1, 1]), (3, [1, 1, 2, 2]), (3, [1, 2, 2, 3]), (4, [1, 1, 2, 2]), (4, [1, 2, 2, 3])])
def test_resolution_thm_forms_level_two_kernels_only_where_beta_2_can_live(monkeypatch, nv, degrees):
    # exactness: the level-1 generators span the first syzygies through the bound, so the
    # second-syzygy kernel in degree j has dimension dim F_j - dim K_j; the square's beta_2
    # sits at 2d, the symbolic square has a length-one resolution
    cfg = random_star_config(nv, 2, degrees, 1)
    d = cfg.total_degree
    square, sq_degrees = _level_two_kernel_degrees(monkeypatch, power_ideal(star_ideal(cfg), 2), 2 * d)
    symbolic, sym_degrees = _level_two_kernel_degrees(monkeypatch, symbolic_power_star_general(cfg, 2), 2 * d)
    assert sq_degrees == [2 * d] and square.row(2)
    assert sym_degrees == [] and not symbolic.row(2)


def test_graded_betti_stops_at_homological_degree_two():
    # the Koszul complex of four variables has beta_3 = 1 at degree 4, which is not computed
    J = ideal("x0", "x1", "x2", "x3", num_vars=5)
    assert graded_betti(J, 6).as_dict() == {(0, 1): 4, (1, 2): 6, (2, 3): 4}

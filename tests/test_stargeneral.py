import pytest

from stardefect.gradedideal import check_alternating_sum, GradedIdeal, ideals_equal, multiples
from stardefect.linalg import GF32003, Subspace
from stardefect.monomial import star_monomial, symbolic_power_star
from stardefect.points import power_ideal, random_general_lines
from stardefect.poly import HomogPoly, parse_form, substitute
from stardefect.stargeneral import (
    CertificationError,
    StarConfig,
    colon_lemma_check,
    predicted_square_betti,
    predicted_symbolic_square_betti,
    random_star_config,
    star_ideal,
    symbolic_power_star_general,
    verify_cube_decomposition_general,
    verify_power_identity,
    verify_resolution_theorems,
    verify_square_decomposition_general,
)


def coordinate_config(n, c):
    f = GF32003
    forms = [HomogPoly.variable(n + 1, j, f) for j in range(n + 1)]
    return StarConfig.build(n + 1, c, forms)


def monomial_to_graded(I, field=GF32003):
    gens = [HomogPoly(I.num_vars, sum(m), {m: field.of(1)}, field) for m in I.gens]
    return GradedIdeal(I.num_vars, gens, field)


def test_certification_rejects_degenerate():
    cases = [
        # concurrent lines: x0 + x1 lies in (x0, x1)
        (3, 2, ["x0", "x1", "x0 + x1"]),
        # quadrics sharing the factor x0 are never part of a regular sequence,
        # so no draw of completing linear forms makes the quotient Artinian
        (3, 1, ["x0*x1", "x0*x2", "x1^2 + x2^2"]),
        (4, 2, ["x0*x1", "x0*x2", "x3^2", "x1^2 + x2^2"]),
    ]
    for num_vars, c, texts in cases:
        forms = [parse_form(t, GF32003, num_vars=num_vars) for t in texts]
        with pytest.raises(CertificationError, match=r"\(0, 1"):
            StarConfig.build(num_vars, c, forms)


def test_certificate_of_coordinate_configuration():
    cfg = coordinate_config(3, 2)
    # every 3-subset of x0..x3 plus one seeded linear form spans R_1
    assert cfg.certificate == [
        {"subset": list(sub), "seed": 0, "degree": 1}
        for sub in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ]
    # c = n: the subset already has nv forms, so no draw is involved
    cfg = coordinate_config(2, 2)
    assert cfg.certificate == [{"subset": [0, 1, 2], "seed": None, "degree": 1}]


def test_certificate_degree_is_subset_degree_minus_c():
    cfg = random_star_config(4, 2, [1, 2, 2, 3], seed=1)
    assert len(cfg.certificate) == 4
    for entry in cfg.certificate:
        assert entry["degree"] == sum(cfg.degrees[i] for i in entry["subset"]) - 2


def test_coordinate_specialization_reproduces_monomial_star():
    cfg = coordinate_config(2, 2)
    assert ideals_equal(star_ideal(cfg), monomial_to_graded(star_monomial(2, 2)))
    lhs = symbolic_power_star_general(cfg, 2)
    assert ideals_equal(lhs, monomial_to_graded(symbolic_power_star(2, 2, 2)))


def test_coordinate_specialization_decompositions():
    assert verify_square_decomposition_general(coordinate_config(3, 2))
    assert verify_cube_decomposition_general(coordinate_config(3, 3))


def test_star_ideal_generator_degrees():
    cfg = random_star_config(3, 2, [2, 2, 2, 2], seed=1)
    I = star_ideal(cfg)
    assert len(I.gens) == 4
    assert all(g.degree == 6 for g in I.gens)
    lines = random_general_lines(5, 1)
    cfg5 = StarConfig.build(3, 2, lines)
    I5 = star_ideal(cfg5)
    assert len(I5.gens) == 5 and all(g.degree == 4 for g in I5.gens)


def test_symbolic_power_m1_is_star_ideal():
    cfg = random_star_config(3, 2, [1, 1, 2], seed=2)
    assert ideals_equal(symbolic_power_star_general(cfg, 1), star_ideal(cfg))


def test_degree_bookkeeping_of_transfer():
    cfg = random_star_config(3, 2, [1, 2, 3], seed=3)
    from stardefect.monomial import uniform_symbolic_power

    source = uniform_symbolic_power(3, 2, 2)
    img = symbolic_power_star_general(cfg, 2)
    degs = sorted(g.degree for g in img.gens)
    expected = sorted(
        sum(e * d for e, d in zip(mono, sorted(cfg.degrees))) for mono in source.gens
    )
    assert degs == expected


def test_square_decomposition_lines_p3():
    cfg = random_star_config(4, 2, [1, 1, 1, 1], seed=3)
    assert verify_square_decomposition_general(cfg)


def test_symbolic_square_is_product_plus_square_for_lines():
    # c=2 lines in the plane: I^(2) = <L1...Ls> + I^2
    lines = random_general_lines(4, 5)
    cfg = StarConfig.build(3, 2, lines)
    from stardefect.poly import multiply, substitute

    F = substitute((1, 1, 1, 1), cfg.forms)
    ic = star_ideal(cfg)
    from itertools import combinations_with_replacement

    sq_gens = [multiply(a, b) for a, b in combinations_with_replacement(ic.gens, 2)]
    rhs = GradedIdeal(3, [F] + sq_gens, GF32003)
    assert ideals_equal(symbolic_power_star_general(cfg, 2), rhs)


def test_colon_lemma_three_lines_and_mixed_degrees():
    lines = random_general_lines(3, 1)
    assert colon_lemma_check(StarConfig.build(3, 2, lines))
    cfg = random_star_config(4, 2, [1, 1, 2, 2], seed=5)
    assert colon_lemma_check(cfg)


def test_colon_lemma_intersects_the_square_piece_with_the_span_of_f(monkeypatch):
    # part (ii) stays independent of the colon kernel: intersect is called on (I^2)_{t+d}
    # with <F>_{t+d} as the other side, so its product is cond(<F>) (I^2)_{t+d}^T, not
    # the colon's cond(I^2) M^T
    cfg = random_star_config(3, 2, [1, 1, 2, 2], 7)
    calls = []
    real = Subspace.intersect

    def intersect(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(Subspace, "intersect", intersect)
    assert colon_lemma_check(cfg)
    i2 = power_ideal(star_ideal(cfg), 2)
    F = substitute((1,) * cfg.s, cfg.forms)
    d = F.degree
    assert len(calls) == star_ideal(cfg, 3).top_gen_degree() + 2
    for t, (target, span) in enumerate(calls):
        assert target == i2.graded_piece(t + d)
        assert span == Subspace.from_rows(multiples(3, [F], t + d, cfg.field), cfg.field)


def test_colon_lemma_monomial_specialization():
    # x0..x3 in P^3, c=2: [I^2 : x0x1x2x3] = I_{3,L}, cross-checked combinatorially
    cfg = coordinate_config(3, 2)
    assert colon_lemma_check(cfg)
    star = star_monomial(3, 2)
    colon = star.power(2).colon((1, 1, 1, 1))
    from stardefect.monomial import uniform_star

    assert colon == uniform_star(4, 3)


def test_predicted_tables_shapes():
    t = predicted_symbolic_square_betti([1, 1, 1, 1])
    assert t.as_dict() == {(0, 4): 1, (0, 6): 4, (1, 7): 4}
    sq = predicted_square_betti([1, 1, 2, 2])
    assert sq.row(2) == {12: 3}
    assert sq.row(0) == {10: 3, 9: 4, 8: 3}


@pytest.mark.parametrize(
    "degrees, table",
    [
        ([1, 1, 1], [[0, 4, 6], [1, 5, 6], [2, 6, 1]]),
        ([1, 2, 2, 3], [[0, 10, 1], [0, 11, 2], [0, 12, 4], [0, 13, 2], [0, 14, 1], [1, 13, 3], [1, 14, 6], [1, 15, 3], [2, 16, 3]]),
    ],
)
def test_predicted_square_betti_is_the_computed_table(degrees, table):
    # the square tables the benchmark's Betti probe expects (perfbench/expected.json)
    assert predicted_square_betti(degrees).as_dict() == {(i, j): r for i, j, r in table}


def test_resolution_theorems_p2_lines():
    for s in (4, 5):
        lines = random_general_lines(s, 1)
        cfg = StarConfig.build(3, 2, lines)
        res = verify_resolution_theorems(cfg)
        assert res["square_ok"] and res["symbolic_ok"]
        assert res["symbolic"].row(0) == {s: 1, 2 * s - 2: s}
        assert res["symbolic"].row(1) == {2 * s - 1: s}


def test_resolution_theorems_p3_mixed():
    cfg = random_star_config(4, 2, [1, 1, 2, 2], seed=5)
    res = verify_resolution_theorems(cfg)
    assert res["square_ok"] and res["symbolic_ok"]
    assert res["symbolic"].as_dict() == {
        (0, 6): 1, (0, 8): 2, (0, 10): 2, (1, 10): 2, (1, 11): 2,
    }
    # alternating-sum identity against the directly computed pieces
    sym = symbolic_power_star_general(cfg, 2)
    assert check_alternating_sum(sym, res["symbolic"], 11)


def test_power_identity_lines():
    lines = random_general_lines(4, 2)
    assert verify_power_identity(lines, 1)
    assert verify_power_identity(lines, 2)


def test_sdefect_bound_for_general_forms():
    # sdefect(I_{c,F}, 2) <= binom(s, c-2) via the decomposition generators
    from math import comb

    from stardefect.gradedideal import sdefect
    from stardefect.points import power_ideal

    cfg = random_star_config(3, 2, [2, 2, 2, 2], seed=9)
    sym = symbolic_power_star_general(cfg, 2)
    sq = power_ideal(star_ideal(cfg), 2)
    D = max(g.degree for g in sym.gens + sq.gens) + 1
    rep = sdefect(sym, sq, D)
    assert rep.total <= comb(4, 0)


def test_square_sdefect_equality_for_linear_stars_p3():
    # planes in P^3 with c=3: the square defect equals binom(s, c-2) exactly
    from math import comb

    from stardefect.gradedideal import sdefect
    from stardefect.points import power_ideal

    cfg = random_star_config(4, 3, [1, 1, 1, 1], seed=11)
    sym = symbolic_power_star_general(cfg, 2)
    sq = power_ideal(star_ideal(cfg), 2)
    D = max(g.degree for g in sym.gens + sq.gens) + 1
    assert sdefect(sym, sq, D).total == comb(4, 1)

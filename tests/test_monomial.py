from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from stardefect.monomial import (
    MonomialIdeal,
    module_min_gens,
    minimalize,
    satisfies_condition_1,
    sdefect_star_monomial,
    star_monomial,
    star_report,
    symbolic_power_star,
    uniform_symbolic_power,
    uniform_symbolic_power_by_intersection,
    verify_cube_decomposition,
    verify_square_decomposition,
    verify_support_decomposition,
)


def test_star_monomial_triangle():
    assert star_monomial(2, 2).gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_star_monomial_principal():
    assert star_monomial(2, 1).gens == ((1, 1, 1),)


def test_star_monomial_counts_and_degrees():
    ideal = star_monomial(3, 2)
    assert len(ideal.gens) == comb(4, 3)
    assert all(sum(g) == 3 for g in ideal.gens)
    for n in range(1, 6):
        for c in range(1, n + 1):
            ideal = star_monomial(n, c)
            assert len(ideal.gens) == comb(n + 1, n - c + 2)
            assert all(sum(g) == n - c + 2 for g in ideal.gens)


def test_condition_examples():
    assert satisfies_condition_1((1, 1, 1), 2, 2)
    assert satisfies_condition_1((2, 2, 0), 2, 2)
    assert not satisfies_condition_1((2, 0, 0), 2, 2)
    # exhaustive check over all 3-subsets
    from itertools import combinations

    e = (1, 1, 1, 1)
    assert satisfies_condition_1(e, 3, 3) == all(
        sum(sub) >= 3 for sub in combinations(e, 3)
    )


def test_symbolic_square_n2c2():
    ideal = symbolic_power_star(2, 2, 2)
    assert set(ideal.gens) == {(1, 1, 1), (2, 2, 0), (2, 0, 2), (0, 2, 2)}


def test_symbolic_power_m1_is_star():
    assert symbolic_power_star(2, 2, 1) == star_monomial(2, 2)


def test_symbolic_square_equals_sum_decomposition_n3c3():
    lhs = symbolic_power_star(3, 3, 2)
    rhs = star_monomial(3, 2).sum(star_monomial(3, 3).power(2))
    assert lhs == rhs


def test_ideal_ops():
    a = MonomialIdeal.make(2, [(1, 0)])
    b = MonomialIdeal.make(2, [(0, 1)])
    assert a.intersect(b).gens == ((1, 1),)
    sq = star_monomial(2, 2).power(2)
    assert set(sq.gens) == {
        (2, 2, 0), (2, 0, 2), (0, 2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2),
    }
    colon = MonomialIdeal.make(2, [(2, 1)]).colon((1, 0))
    assert colon.gens == ((1, 1),)


def test_minimalize_antichain():
    out = minimalize([(2, 0), (1, 0), (1, 1), (3, 2)])
    assert out == ((1, 0),)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _minimal(monos):
    """Minimal generators by the pairwise definition, sorted like MonomialIdeal.gens."""
    distinct = set(monos)
    keep = [m for m in distinct if not any(g != m and _divides(g, m) for g in distinct)]
    return tuple(sorted(keep, key=lambda m: (sum(m), m)))


def _exponent_lists(nv):
    return st.lists(st.tuples(*[st.integers(0, 3)] * nv), max_size=12)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda nv: st.tuples(st.just(nv), _exponent_lists(nv), _exponent_lists(nv))))
@example((2, [], [(0, 0)]))
@example((3, [(1, 0, 2), (1, 0, 2), (0, 0, 0)], [(2, 1, 0), (2, 1, 0)]))
def test_monomial_layer_matches_pairwise_definitions(case):
    nv, a, b = case
    assert minimalize(a) == _minimal(a)
    I, J = MonomialIdeal.make(nv, a), MonomialIdeal.make(nv, b)
    assert I.gens == _minimal(a)
    for m in b:
        assert I.member(m) == any(_divides(g, m) for g in a)
        assert I.colon(m).gens == _minimal([tuple(max(x - y, 0) for x, y in zip(g, m)) for g in a])
    contains = all(any(_divides(g, m) for g in a) for m in b)
    assert I.contains(J) == contains
    assert I.product(J).gens == _minimal([tuple(x + y for x, y in zip(g, h)) for g in a for h in b])
    lcms = [tuple(max(x, y) for x, y in zip(g, h)) for g in a for h in b]
    assert I.intersect(J).gens == _minimal(lcms)
    assert module_min_gens(I, I.intersect(J)) == tuple(
        g for g in I.gens if not any(_divides(l, g) for l in lcms)
    )
    if not contains:
        with pytest.raises(ValueError):
            module_min_gens(I, J)
    # equality and hashing see only (num_vars, gens)
    same = MonomialIdeal.make(nv, a[::-1] + a)
    assert same == I and len({I, same}) == 1
    wider = MonomialIdeal.make(nv + 1, [g + (0,) for g in a])
    assert wider != I and len({I, wider}) == 2


def test_module_min_gens_examples():
    isym = symbolic_power_star(2, 2, 2)
    ipow = star_monomial(2, 2).power(2)
    assert module_min_gens(isym, ipow) == ((1, 1, 1),)
    # m = 1 always gives zero defect
    assert module_min_gens(star_monomial(3, 2), star_monomial(3, 2)) == ()
    assert sdefect_star_monomial(3, 3, 2) == 4  # binom(4, 1)


def test_module_min_gens_containment_enforced():
    with pytest.raises(ValueError):
        module_min_gens(star_monomial(2, 1), star_monomial(2, 2))


def test_square_and_cube_decompositions():
    assert verify_square_decomposition(2, 2)
    assert verify_cube_decomposition(4, 3)
    assert verify_support_decomposition(3, 2, 4)


def test_sdefect_one_iff_c_m_two_small_grid():
    for n in range(1, 5):
        for c in range(1, n + 1):
            for m in range(1, 4):
                got = sdefect_star_monomial(n, c, m)
                assert (got == 1) == (c == 2 and m == 2), (n, c, m, got)


def test_square_sdefect_binomial():
    for n in range(2, 6):
        for c in range(2, n + 1):
            assert sdefect_star_monomial(n, c, 2) == comb(n + 1, c - 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(1, 4), st.integers(1, 4))
def test_symbolic_power_matches_lcm_intersection_oracle(n, c, m):
    c = min(c, n)
    s = n + 1
    fast = uniform_symbolic_power(s, c, m)
    oracle = uniform_symbolic_power_by_intersection(s, c, m)
    assert fast == oracle


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 5), st.integers(1, 4))
def test_symbolic_generators_capped_and_minimal(n, c, m):
    c = min(c, n)
    ideal = symbolic_power_star(n, c, m)
    star = star_monomial(n, c)
    for g in ideal.gens:
        assert max(g) <= m
        # dropping any variable of the support breaks the criterion or minimality
        for i, e in enumerate(g):
            if e > 0:
                smaller = tuple(x - (1 if j == i else 0) for j, x in enumerate(g))
                assert not satisfies_condition_1(smaller, c, m) or not ideal.member(smaller)


def test_report_shape():
    rep = star_report(2, 2, 2)
    assert rep["sdefect"] == 1
    assert rep["new_generators"] == ["x0*x1*x2"]
    assert rep["params"] == {"n": 2, "c": 2, "m": 2}

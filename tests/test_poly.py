from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stardefect.linalg import GF32003, QQ, PrimeField
from stardefect.poly import (
    HomogPoly,
    ParseError,
    coefficient_vector,
    evaluate,
    format_poly,
    mono_index,
    mono_mul,
    monomial_basis,
    multiply,
    parse_form,
    poly_from_vector,
    power,
    product_positions,
    rank_exponents,
    substitute,
    basis_exponents,
    basis_size,
)


def P(text, num_vars=None, field=GF32003):
    return parse_form(text, field, num_vars=num_vars)


def test_monomial_basis_sizes():
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(3, 0) == ((0, 0, 0),)
    assert len(monomial_basis(5, 3)) == 35


def test_monomial_basis_lex_descending():
    b = monomial_basis(3, 2)
    assert b[0] == (2, 0, 0)
    assert b == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 9))
def test_basis_cardinality_closed_form(nv, d):
    assert len(monomial_basis(nv, d)) == comb(d + nv - 1, nv - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 8))
def test_rank_exponents_matches_enumeration(nv, d):
    exps = basis_exponents(nv, d)
    assert np.array_equal(rank_exponents(exps), np.arange(basis_size(nv, d)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 4), st.integers(0, 10**6))
def test_product_positions_match_mono_index(nv, k, e, seed):
    rng = np.random.default_rng(seed)
    a = basis_exponents(nv, k)[rng.integers(0, basis_size(nv, k), size=int(rng.integers(0, 7)))]
    b = basis_exponents(nv, e)[rng.integers(0, basis_size(nv, e), size=int(rng.integers(0, 7)))]
    pos = product_positions(a, b)
    expected = [[mono_index(mono_mul(tuple(x), tuple(y))) for y in b.tolist()] for x in a.tolist()]
    assert pos.shape == (len(a), len(b))
    assert pos.tolist() == expected


def test_simple_products():
    x0, x1 = P("x0", 3), P("x1", 3)
    assert multiply(x0, x1) == P("x0*x1", 3)
    f = P("x0 + x1", 3)
    assert multiply(f, f) == P("x0^2 + 2*x0*x1 + x1^2", 3)


def test_evaluate_ring_hom():
    f = P("x0*x1 - x2^2")
    assert evaluate(f, (1, 1, 1)) == 0
    g = P("x0 + x1")
    h = P("x0 - x1")
    pt = (5, 7, 2)
    assert evaluate(multiply(g, h), pt) == evaluate(g, pt) * evaluate(h, pt) % 32003


def test_substitute_identity_and_square():
    forms = [P("x0", 3), P("x1", 3)]
    assert substitute((1, 1), forms) == P("x0*x1", 3)
    sq = substitute((2,), [P("x0 + x1", 3)])
    assert sq == P("x0^2 + 2*x0*x1 + x1^2", 3)


def test_substitute_three_generic_quadrics_against_direct_product():
    rng = np.random.default_rng(42)
    basis2 = monomial_basis(3, 2)
    quadrics = []
    for _ in range(3):
        v = rng.integers(0, 32003, len(basis2))
        quadrics.append(poly_from_vector(v, 3, 2, GF32003))
    img = substitute((1, 1, 1), quadrics)
    assert img.degree == 6
    # independent oracle: term-by-term double product
    direct = multiply(multiply(quadrics[0], quadrics[1]), quadrics[2])
    assert img == direct


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_substitute_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    forms = [
        poly_from_vector(rng.integers(0, 32003, basis_size(3, 2)), 3, 2, GF32003)
        for _ in range(2)
    ]
    m1 = tuple(rng.integers(0, 3, 2))
    m2 = tuple(rng.integers(0, 3, 2))
    lhs = substitute(tuple(a + b for a, b in zip(m1, m2)), forms)
    rhs = multiply(substitute(m1, forms), substitute(m2, forms))
    assert lhs == rhs


def test_coefficient_vector_positions():
    v = coefficient_vector(P("x0^2", 3))
    assert v[mono_index((2, 0, 0))] == 1 and v.sum() == 1
    z = coefficient_vector(HomogPoly.zero(3, 4, GF32003))
    assert not z.any()
    w = coefficient_vector(P("x0*x1 + 2*x2^2"))
    assert w[mono_index((1, 1, 0))] == 1
    assert w[mono_index((0, 0, 2))] == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 5))
def test_vector_round_trip(seed, nv, d):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 32003, basis_size(nv, d))
    f = poly_from_vector(v, nv, d, GF32003)
    assert np.array_equal(coefficient_vector(f), v)


def test_vector_addition_is_poly_addition():
    f, g = P("x0^2 + x1*x2"), P("3*x1*x2 + x2^2")
    assert np.array_equal(
        coefficient_vector(f + g),
        (coefficient_vector(f) + coefficient_vector(g)) % 32003,
    )


FIELDS = [PrimeField(7), GF32003, PrimeField(8388593), QQ]


def random_form(field, nv, d, rng, nterms=None):
    """A form with nterms random monomials (all of them by default) and
    random nonzero coefficients, built term by term."""
    basis = monomial_basis(nv, d)
    picks = range(len(basis)) if nterms is None else rng.choice(len(basis), nterms, replace=False)
    if field == QQ:
        coeff = lambda: Fraction(int(rng.integers(-50, 50)) or 1, int(rng.integers(1, 9)))
    else:
        coeff = lambda: int(rng.integers(1, field.p))
    return HomogPoly(nv, d, {basis[i]: coeff() for i in picks}, field)


def all_minus_one(field, nv, d):
    return HomogPoly(nv, d, {m: field.of(-1) for m in monomial_basis(nv, d)}, field)


def product_cases(field, rng):
    one = HomogPoly(3, 0, {(0, 0, 0): field.of(1)}, field)
    c = HomogPoly(3, 0, {(0, 0, 0): field.of(5)}, field)
    f = random_form(field, 3, 3, rng)
    return {
        "zero": [(HomogPoly.zero(3, 2, field), f), (f, HomogPoly.zero(3, 4, field)), (HomogPoly.zero(3, 0, field), f)],
        "constants": [(c, c), (one, f), (f, c), (f, one), (one, one)],
        "one-term": [(random_form(field, 3, 2, rng, 1), f), (f, random_form(field, 3, 5, rng, 1))],
        # below and above 256 term pairs: 6 x 10 and 4 x 7; 28 x 10 and 20 x 20
        "small": [(random_form(field, 3, 2, rng), f), (random_form(field, 4, 1, rng), random_form(field, 4, 2, rng, 7))],
        "large": [(random_form(field, 3, 6, rng), f), (random_form(field, 4, 3, rng), random_form(field, 4, 3, rng))],
        # every coefficient p - 1: the largest products, 120 x 45 and 165 x 165 term pairs
        "all-minus-one": [(all_minus_one(field, 3, 14), all_minus_one(field, 3, 8)), (all_minus_one(field, 4, 8), all_minus_one(field, 4, 8))],
    }


@pytest.mark.parametrize("case", ["zero", "constants", "one-term", "small", "large", "all-minus-one"])
@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_multiply_matches_term_by_term_product(field, case):
    rng = np.random.default_rng(5)
    for a, b in product_cases(field, rng)[case]:
        out = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = field.of(out.get(m, 0) + c1 * c2)
        expected = HomogPoly(a.num_vars, a.degree + b.degree, out, field)
        assert multiply(a, b) == expected
        assert np.array_equal(coefficient_vector(multiply(a, b)), coefficient_vector(expected))


@pytest.mark.parametrize("p", [7, 32003, 8388593])
def test_poly_from_vector_reduces_unreduced_entries(p):
    field = PrimeField(p)
    basis = monomial_basis(3, 2)
    v = np.array([-1, p, p + 3, 0, 2 * p, -p - 2], dtype=np.int64)
    f = poly_from_vector(v, 3, 2, field)
    assert f.terms == {basis[0]: p - 1, basis[2]: 3, basis[5]: p - 2}
    assert all(type(c) is int and 0 < c < p for c in f.terms.values())


def test_homogeneity_enforced():
    with pytest.raises(ParseError):
        P("x0^2 + x1")
    with pytest.raises(ValueError):
        HomogPoly(3, 2, {(1, 0, 0): 1}, GF32003)


def test_public_constructor_checks_terms_that_poly_from_vector_trusts():
    # poly_from_vector skips the per-term checks; the public constructor
    # still rejects a malformed term and drops a zero coefficient
    with pytest.raises(ValueError, match="variable count"):
        HomogPoly(3, 2, {(1, 1): 1}, GF32003)
    with pytest.raises(ValueError, match="homogeneity"):
        HomogPoly(3, 2, {(1, 1, 0): 1, (0, 0, 1): 2}, GF32003)
    assert HomogPoly(3, 2, {(1, 1, 0): 0, (0, 2, 0): 5}, GF32003).terms == {(0, 2, 0): 5}
    v = np.array([0, 7, 0, 32003, 2, -1], dtype=np.int64)
    f = poly_from_vector(v, 3, 2, GF32003)
    basis = monomial_basis(3, 2)
    assert f == HomogPoly(3, 2, {m: GF32003.of(c) for m, c in zip(basis, v.tolist())}, GF32003)
    assert f.terms == {basis[1]: 7, basis[4]: 2, basis[5]: 32002}


def test_parser_rational_coefficients():
    f = parse_form("1/2*x0^2 - 3*x0*x1", QQ, num_vars=3)
    assert f.terms[(2, 0, 0)] == Fraction(1, 2)
    assert f.terms[(1, 1, 0)] == Fraction(-3)


def test_parser_y_variables_one_based():
    f = parse_form("y1*y2", GF32003, num_vars=3)
    assert f.terms == {(1, 1, 0): 1}


def test_parser_position_annotated_errors():
    with pytest.raises(ParseError) as e:
        P("x0 + @")
    assert "position 5" in str(e.value)
    with pytest.raises(ParseError):
        P("x0 x1")  # missing '*'
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError):
        P("3*")


def test_format_round_trip():
    for text in ["x0^2 + 2*x0*x1 + x1^2", "31*x0*x1*x2", "x2^3"]:
        f = P(text)
        assert P(format_poly(f)) == f


def test_power():
    f = P("x0 + x1", 2)
    assert power(f, 3) == P("x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3", 2)

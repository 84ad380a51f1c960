"""Monomials, homogeneous polynomials, graded monomial bases, substitution.

A monomial is a tuple of non-negative integer exponents, one per variable.
The monomial order is fixed globally: lexicographic with x0 > x1 > ..., so
``monomial_basis`` enumerations (and hence every coefficient vector and every
echelon basis downstream) are reproducible bit for bit.

``HomogPoly`` is strictly homogeneous: all stored terms share one degree and
zero coefficients are never stored.  Coefficients are plain ints in [0, p)
over a prime field, Fractions over the rationals.

A form crosses to and from its coefficient row in one vectorized step
(``HomogPoly.term_arrays`` with ``rank_exponents``, and ``poly_from_vector``),
and every product of forms is a scatter at ``product_positions``: one path
for every size and for both fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb

import numpy as np

from .linalg import Field

Monomial = tuple[int, ...]


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, d: int) -> tuple[Monomial, ...]:
    """All monomials of degree d in lex order (x0 > x1 > ...), descending."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    if num_vars < 1:
        raise ValueError("need at least one variable")
    out = []
    for combo in combinations_with_replacement(range(num_vars), d):
        e = [0] * num_vars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(out)


@lru_cache(maxsize=None)
def basis_size(num_vars: int, d: int) -> int:
    return comb(d + num_vars - 1, num_vars - 1) if d >= 0 else 0


@lru_cache(maxsize=None)
def _basis_index(num_vars: int, d: int) -> dict[Monomial, int]:
    return {m: i for i, m in enumerate(monomial_basis(num_vars, d))}


def mono_index(m: Monomial) -> int:
    return _basis_index(len(m), sum(m))[m]


@lru_cache(maxsize=None)
def basis_exponents(num_vars: int, d: int) -> np.ndarray:
    """Exponent matrix of the degree-d basis, shape (N_d, num_vars)."""
    arr = np.array(monomial_basis(num_vars, d), dtype=np.int64)
    return arr.reshape(basis_size(num_vars, d), num_vars)


@lru_cache(maxsize=None)
def _binom_table(rows: int, n_max: int) -> np.ndarray:
    """T[k, n] = binom(n, k) for 0 <= k < rows and 0 <= n <= n_max; row k is contiguous."""
    return np.array([[comb(n, k) for n in range(n_max + 1)] for k in range(rows)], dtype=np.int64)


def rank_exponents(exps: np.ndarray) -> np.ndarray:
    """Vectorized lex rank of exponent rows within their own degree's basis.

    Position k adds binom(r - 1 + u, u), where r is the degree left after
    position k and u = v - 1 - k the number of later variables; r - 1 + u
    is never negative, and the term is zero when r = 0.
    """
    exps = np.asarray(exps, dtype=np.int64)
    v = exps.shape[1]
    rem = exps.sum(axis=1)
    T = _binom_table(v, int(rem.max(initial=0)) + v)
    out = np.zeros(len(exps), dtype=np.int64)
    for k in range(v - 1):
        rem -= exps[:, k]
        out += T[v - k - 1][rem + (v - k - 2)]
    return out


def product_positions(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Basis positions of every product a[i] + b[t] of exponent rows.

    ``a`` and ``b`` are exponent arrays of shape (n_a, v) and (n_b, v), each
    of one degree; the result has shape (n_a, n_b) and indexes the basis of
    the sum of the two degrees.  Every product is ranked by one
    ``rank_exponents`` call.
    """
    prods = a[:, None, :] + b[None, :, :]
    return rank_exponents(prods.reshape(-1, a.shape[1])).reshape(a.shape[0], b.shape[0])


@dataclass
class HomogPoly:
    """A homogeneous polynomial: sparse terms over a fixed field."""

    num_vars: int
    degree: int
    terms: dict[Monomial, object]
    field: Field

    def __post_init__(self):
        for m, c in list(self.terms.items()):
            if len(m) != self.num_vars:
                raise ValueError(f"monomial {m} has wrong variable count")
            if sum(m) != self.degree:
                raise ValueError(f"monomial {m} breaks homogeneity (degree {self.degree})")
            if c == 0:
                del self.terms[m]

    @classmethod
    def _trusted(cls, num_vars: int, degree: int, terms: dict, field: Field) -> "HomogPoly":
        """A form whose terms are known to be valid: every monomial has
        ``num_vars`` exponents summing to ``degree``, and no coefficient is
        zero.  The checks of ``__post_init__`` are skipped."""
        f = cls.__new__(cls)
        f.num_vars, f.degree, f.terms, f.field = num_vars, degree, terms, field
        return f

    @staticmethod
    def zero(num_vars: int, degree: int, field: Field) -> "HomogPoly":
        return HomogPoly(num_vars, degree, {}, field)

    @staticmethod
    def variable(num_vars: int, j: int, field: Field) -> "HomogPoly":
        e = [0] * num_vars
        e[j] = 1
        return HomogPoly(num_vars, 1, {tuple(e): field.of(1)}, field)

    @staticmethod
    def from_terms(num_vars, degree, items, field) -> "HomogPoly":
        terms: dict[Monomial, object] = {}
        for m, c in items:
            c = field.of(c)
            if m in terms:
                c = field.of(terms[m] + c)
            if c == 0:
                terms.pop(m, None)
            else:
                terms[m] = c
        return HomogPoly(num_vars, degree, terms, field)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.field == other.field
            and self.terms == other.terms
        )

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if (self.num_vars, self.degree) != (other.num_vars, other.degree):
            raise ValueError("can only add forms of the same degree and variable count")
        items = list(self.terms.items()) + list(other.terms.items())
        return HomogPoly.from_terms(self.num_vars, self.degree, items, self.field)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + other.scale(self.field.neg(self.field.of(1)))

    def scale(self, c) -> "HomogPoly":
        c = self.field.of(c)
        if c == 0:
            return HomogPoly.zero(self.num_vars, self.degree, self.field)
        return HomogPoly(
            self.num_vars,
            self.degree,
            {m: self.field.of(a * c) for m, a in self.terms.items()},
            self.field,
        )

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        return multiply(self, other)

    def term_arrays(self, dtype) -> tuple[np.ndarray, np.ndarray]:
        """Exponent rows, shape (#terms, num_vars), and coefficients of dtype.

        The two arrays list the terms in one order.  This is the only place
        a form's terms become arrays.
        """
        t = len(self.terms)
        exps = np.fromiter(chain.from_iterable(self.terms), np.int64, t * self.num_vars).reshape(t, self.num_vars)
        return exps, np.array(list(self.terms.values()), dtype=dtype)

    def __repr__(self):
        return f"HomogPoly({format_poly(self)!r})"


def multiply(f: HomogPoly, g: HomogPoly) -> HomogPoly:
    """Exact product of homogeneous polynomials, one path for every size.

    The products of all coefficient pairs are reduced by the field (into
    [0, p) over GF(p)) and scattered onto the basis positions of their
    monomials with ``np.add.at``.  An entry sums at most min(#f, #g) of
    them, so over GF(p) every entry stays below min(#f, #g)·p, far inside
    int64; ``poly_from_vector`` reduces the sums.  A degree-0 factor is a
    constant and only scales the other factor, with no scatter; the
    constant 1 returns the other factor itself.
    """
    if f.num_vars != g.num_vars:
        raise ValueError("variable count mismatch")
    if f.field != g.field:
        raise ValueError("field mismatch")
    if g.degree == 0:
        f, g = g, f
    if f.degree == 0:
        c = f.terms.get((0,) * f.num_vars, 0)
        if c == 1:
            return g
        return HomogPoly(g.num_vars, g.degree, {m: g.field.of(c * v) for m, v in g.terms.items()}, g.field)
    nv, d = f.num_vars, f.degree + g.degree
    out = f.field.zeros((basis_size(nv, d),))
    fe, fc = f.term_arrays(out.dtype)
    ge, gc = g.term_arrays(out.dtype)
    np.add.at(out, product_positions(fe, ge), f.field.matrix(np.outer(fc, gc)))
    return poly_from_vector(out, nv, d, f.field)


def power(f: HomogPoly, e: int) -> HomogPoly:
    if e < 0:
        raise ValueError("negative power")
    if e == 0:
        return HomogPoly(f.num_vars, 0, {(0,) * f.num_vars: f.field.of(1)}, f.field)
    out = f
    for _ in range(e - 1):
        out = multiply(out, f)
    return out


def evaluate(f: HomogPoly, point) -> object:
    """Evaluate at a point (ring homomorphism)."""
    acc = f.field.of(0)
    pt = [f.field.of(c) for c in point]
    for m, c in f.terms.items():
        v = c
        for x, e in zip(pt, m):
            if e:
                v = v * x**e
        acc = f.field.of(acc + v)
    return acc


def substitute(m: Monomial, forms: list[HomogPoly]) -> HomogPoly:
    """The image of a source-ring monomial under y_i -> forms[i].

    Returns the product of forms[i]**m[i]; the degree is the weighted sum
    of the source exponents by the form degrees.
    """
    if not forms:
        raise ValueError("empty substitution form list")
    if len(m) != len(forms):
        raise ValueError("monomial length does not match number of forms")
    nv = forms[0].num_vars
    fld = forms[0].field
    for g in forms:
        if g.num_vars != nv or g.field != fld:
            raise ValueError("substitution forms must share ring and field")
    out = HomogPoly(nv, 0, {(0,) * nv: fld.of(1)}, fld)
    for g, e in zip(forms, m):
        if e:
            out = multiply(out, power(g, e))
    return out


def coefficient_vector(f: HomogPoly) -> np.ndarray:
    """Dense coefficient vector of f in the lex monomial basis of its degree."""
    v = f.field.zeros((basis_size(f.num_vars, f.degree),))
    exps, coeffs = f.term_arrays(v.dtype)
    v[rank_exponents(exps)] = coeffs
    return v


def poly_from_vector(v: np.ndarray, num_vars: int, d: int, field: Field) -> HomogPoly:
    """The form with coefficient vector v in the lex basis of degree d.

    The entries are normalized by the field in one step, so any integer
    vector works over GF(p): entries come out reduced into [0, p), and the
    ones divisible by p are dropped.  The terms are basis monomials with
    nonzero coefficients, valid by construction, so they are not checked
    one by one.
    """
    basis = monomial_basis(num_vars, d)
    if len(v) != len(basis):
        raise ValueError("vector length does not match basis size")
    w = field.matrix(v)[0]
    nz = np.flatnonzero(w)
    return HomogPoly._trusted(num_vars, d, dict(zip(map(basis.__getitem__, nz.tolist()), w[nz].tolist())), field)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Rejection of malformed polynomial text, with the offending position."""

    def __init__(self, pos: int, message: str):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


def parse_form(text: str, field: Field, num_vars: int | None = None) -> HomogPoly:
    """Parse a homogeneous form like ``3*x0^2*x1 - x2^3``.

    Variables are ``x0..xn`` (0-based) or ``y1..ys`` (1-based, for the
    source ring of a substitution); coefficients are integers or ``a/b``
    fractions.  The parser is total: any malformed input raises
    :class:`ParseError` carrying the character position.
    """
    terms, letter, max_index = _parse_terms(text)
    offset = 1 if letter == "y" else 0
    nv = num_vars if num_vars is not None else max_index + 1 - offset
    degree = None
    items = []
    for pos, coeff, factors in terms:
        e = [0] * nv
        for fpos, idx, exp in factors:
            i = idx - offset
            if i < 0 or i >= nv:
                raise ParseError(fpos, f"variable index out of range for {nv} variables")
            e[i] += exp
        d = sum(e)
        if degree is None:
            degree = d
        elif d != degree:
            raise ParseError(pos, f"inhomogeneous input: term of degree {d} after degree {degree}")
        items.append((tuple(e), field.of(coeff)))
    if degree is None:
        raise ParseError(0, "empty polynomial")
    return HomogPoly.from_terms(nv, degree, items, field)


def _parse_terms(text: str):
    i, n = 0, len(text)
    terms = []
    letter = None
    max_index = -1

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def read_int(i):
        j = i
        while j < n and text[j].isdigit():
            j += 1
        if j == i:
            raise ParseError(i, "expected a number")
        return int(text[i:j]), j

    i = skip_ws(i)
    if i == n:
        raise ParseError(0, "empty polynomial")
    first = True
    while i < n:
        sign = 1
        i = skip_ws(i)
        if i < n and text[i] in "+-":
            sign = -1 if text[i] == "-" else 1
            i = skip_ws(i + 1)
        elif not first:
            raise ParseError(i, "expected '+' or '-' between terms")
        term_pos = i
        coeff = None
        factors = []
        expect_factor = True
        while True:
            i = skip_ws(i)
            if i < n and text[i].isdigit():
                if not expect_factor:
                    raise ParseError(i, "missing '*' before number")
                num, i = read_int(i)
                if i < n and text[i] == "/":
                    den, i = read_int(i + 1)
                    if den == 0:
                        raise ParseError(i - 1, "zero denominator")
                    val = Fraction(num, den)
                else:
                    val = num
                coeff = val if coeff is None else coeff * val
                expect_factor = False
            elif i < n and text[i] in "xy":
                if not expect_factor:
                    raise ParseError(i, "missing '*' before variable")
                if letter is None:
                    letter = text[i]
                elif text[i] != letter:
                    raise ParseError(i, f"mixed variable letters '{letter}' and '{text[i]}'")
                vpos = i
                idx, i = read_int(i + 1)
                exp = 1
                if i < n and text[i] == "^":
                    exp, i = read_int(i + 1)
                max_index = max(max_index, idx)
                factors.append((vpos, idx, exp))
                expect_factor = False
            else:
                break
            j = skip_ws(i)
            if j < n and text[j] == "*":
                i = skip_ws(j + 1)
                expect_factor = True
            else:
                i = j
                break
        if expect_factor and (coeff is not None or factors):
            raise ParseError(i, "dangling '*'")
        if coeff is None and not factors:
            raise ParseError(term_pos, "expected a term")
        c = (coeff if coeff is not None else 1) * sign
        terms.append((term_pos, c, factors))
        first = False
        i = skip_ws(i)
        if i < n and text[i] not in "+-":
            raise ParseError(i, f"unexpected character {text[i]!r}")
    return terms, letter or "x", max_index


def format_monomial(m: Monomial) -> str:
    """``x0^2*x2`` style text of a monomial; ``1`` for the empty product."""
    return "*".join(f"x{j}^{e}" if e > 1 else f"x{j}" for j, e in enumerate(m) if e) or "1"


def format_poly(f: HomogPoly) -> str:
    """Canonical text form (terms in descending lex order, the basis order)."""
    if f.is_zero:
        return "0"
    parts = []
    for m in sorted(f.terms, reverse=True):
        c = str(f.terms[m])
        if any(m):
            parts.append(format_monomial(m) if c == "1" else f"{c}*{format_monomial(m)}")
        else:
            parts.append(c)
    return " + ".join(parts)

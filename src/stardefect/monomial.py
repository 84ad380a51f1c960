"""Monomial ideal arithmetic and coordinate-hyperplane star configurations.

Everything here is exact integer combinatorics on exponent vectors: minimal
generating sets are antichains under divisibility, membership is divisibility
by some generator, and symbolic powers of uniform (star) ideals come from the
subset-sum criterion on exponents.  The same machinery serves both the
ambient case (s = n+1 coordinate hyperplanes in P^n) and the source ring of
the substitution transfer, where the variable count s may exceed n+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .poly import Monomial, format_monomial


def _rows(monos) -> np.ndarray:
    """Exponent vectors as an int64 array, one monomial per row."""
    return np.array(monos if isinstance(monos, np.ndarray) else list(monos), dtype=np.int64)


def _divisible(gens: np.ndarray, monos: np.ndarray) -> np.ndarray:
    """For each row of ``monos``, whether some row of ``gens`` divides it."""
    return (gens[None, :, :] <= monos[:, None, :]).all(axis=2).any(axis=1)


def minimalize(monos) -> tuple[Monomial, ...]:
    """The unique minimal generating set: drop every multiple of another monomial.

    Distinct monomials of one degree never divide each other, so each degree
    is tested once against the generators kept from the lower degrees.
    """
    arr = _rows(monos)
    if len(arr) == 0:
        return ()
    arr = np.unique(arr, axis=0)
    arr = arr[np.argsort(arr.sum(axis=1), kind="stable")]
    kept = arr[:0]
    for layer in np.split(arr, np.flatnonzero(np.diff(arr.sum(axis=1))) + 1):
        kept = np.concatenate([kept, layer[~_divisible(kept, layer)]])
    return tuple(map(tuple, kept.tolist()))


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators (an antichain), sorted
    by degree and then lexicographically."""

    num_vars: int
    gens: tuple[Monomial, ...]

    @staticmethod
    def make(num_vars: int, monos) -> "MonomialIdeal":
        arr = _rows(monos)
        if len(arr) and (arr.ndim != 2 or arr.shape[1] != num_vars):
            raise ValueError(f"monomials must have {num_vars} exponents, got an array of shape {arr.shape}")
        return MonomialIdeal(num_vars, minimalize(arr))

    @staticmethod
    def zero(num_vars: int) -> "MonomialIdeal":
        return MonomialIdeal(num_vars, ())

    def _array(self) -> np.ndarray:
        return np.array(self.gens, dtype=np.int64).reshape(len(self.gens), self.num_vars)

    def member(self, m: Monomial) -> bool:
        return bool(_divisible(self._array(), _rows([m]))[0])

    def contains(self, other: "MonomialIdeal") -> bool:
        return bool(_divisible(self._array(), other._array()).all())

    def _check(self, other: "MonomialIdeal"):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def _pairs(self, other: "MonomialIdeal", op) -> "MonomialIdeal":
        """The ideal generated by op(a, b) over all generator pairs."""
        self._check(other)
        pairs = op(self._array()[:, None, :], other._array()[None, :, :])
        return MonomialIdeal.make(self.num_vars, pairs.reshape(-1, self.num_vars))

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal.make(self.num_vars, self.gens + other.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self._pairs(other, np.add)

    def power(self, m: int) -> "MonomialIdeal":
        if m < 0:
            raise ValueError("negative power")
        out = MonomialIdeal.make(self.num_vars, [(0,) * self.num_vars])
        for _ in range(m):
            out = out.product(self)
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Generated by the pairwise lcms of the generators."""
        return self._pairs(other, np.maximum)

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The quotient (I : m) = {f : f*m in I}, generator-wise division."""
        return MonomialIdeal.make(self.num_vars, np.maximum(self._array() - _rows(m), 0))


# ---------------------------------------------------------------------------
# uniform (star) ideals
# ---------------------------------------------------------------------------

def uniform_star(s: int, c: int) -> MonomialIdeal:
    """Intersection of all <x_{i1},...,x_{ic}> over c-subsets of s variables.

    Minimally generated by the squarefree monomials in s-c+1 of the s
    variables; there are binom(s, s-c+1) of them.  c = s is allowed (the
    single subset gives the irrelevant maximal ideal).
    """
    if not 1 <= c <= s:
        raise ValueError(f"need 1 <= c <= s, got c={c}, s={s}")
    gens = []
    for subset in combinations(range(s), s - c + 1):
        e = [0] * s
        for i in subset:
            e[i] = 1
        gens.append(tuple(e))
    return MonomialIdeal(s, tuple(sorted(gens, key=lambda m: (sum(m), m))))


def star_monomial(n: int, c: int) -> MonomialIdeal:
    """The coordinate star configuration ideal in n+1 variables."""
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    return uniform_star(n + 1, c)


def satisfies_condition_1(exponents, c: int, m: int) -> bool:
    """Every c-subset of exponents sums to at least m.

    Equivalent to: the c smallest exponents already sum to at least m.
    """
    exps = sorted(exponents)
    if c > len(exps):
        raise ValueError("c exceeds the number of exponents")
    return sum(exps[:c]) >= m


def _criterion_monomials(s: int, c: int, m: int) -> np.ndarray:
    """Exponent vectors in s variables with entries <= m whose c smallest
    entries sum to >= m (the subset-sum criterion), one per row."""
    grid = np.indices((m + 1,) * s).reshape(s, -1).T
    return grid[np.sort(grid, axis=1)[:, :c].sum(axis=1) >= m]


@lru_cache(maxsize=None)
def uniform_symbolic_power(s: int, c: int, m: int) -> MonomialIdeal:
    """Minimal generators of the m-th symbolic power of the uniform star ideal.

    Enumerates exponent vectors with entries <= m (capping any larger
    exponent at m preserves the subset-sum criterion and divides the
    original), keeps those that meet the criterion, and minimalizes.  At
    m = 0 only the zero vector is left: the unit ideal.  Cached: the result
    is a frozen ideal with tuple generators, safe to share.
    """
    if not 1 <= c <= s:
        raise ValueError(f"need 1 <= c <= s, got c={c}, s={s}")
    if m < 0:
        raise ValueError("negative power")
    return MonomialIdeal.make(s, _criterion_monomials(s, c, m))


def symbolic_power_star(n: int, c: int, m: int) -> MonomialIdeal:
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    return uniform_symbolic_power(n + 1, c, m)


def uniform_symbolic_power_by_intersection(s: int, c: int, m: int) -> MonomialIdeal:
    """Oracle route: iterated pairwise-lcm intersection of <x_{i1},..,x_{ic}>^m."""
    if m == 0:
        return MonomialIdeal.make(s, [(0,) * s])
    out = None
    for subset in combinations(range(s), c):
        gens = []
        for e in product(range(m + 1), repeat=c):
            if sum(e) == m:
                v = [0] * s
                for i, ei in zip(subset, e):
                    v[i] = ei
                gens.append(tuple(v))
        piece = MonomialIdeal.make(s, gens)
        out = piece if out is None else out.intersect(piece)
    return out


def support_filtered_ideal(n: int, c: int, m: int) -> MonomialIdeal:
    """The ideal of monomials meeting the subset-sum criterion with support
    of cardinality at least n-c+3 (the complement piece of the symbolic
    power over the ordinary power)."""
    sym = symbolic_power_star(n, c, m)
    good = _criterion_monomials(n + 1, c, m)
    # capping exponents at m is harmless here too: support only shrinks by
    # capping to 0, which cannot happen for entries > m >= 1
    ideal = MonomialIdeal.make(n + 1, good[(good > 0).sum(axis=1) >= n - c + 3])
    if not sym.contains(ideal):
        raise RuntimeError(f"support-filtered ideal not inside I^({m}) for n={n}, c={c}")
    return ideal


def module_min_gens(isym: MonomialIdeal, ipow: MonomialIdeal) -> tuple[Monomial, ...]:
    """Minimal generators of the quotient module isym/ipow.

    These are exactly the minimal generators of isym that are not members of
    ipow: a monomial p lies in ipow + <x0..xn>*isym iff p is in ipow or p/x_i
    is in isym for some variable dividing p, and the latter never holds for a
    minimal generator of isym.
    """
    if not isym.contains(ipow):
        raise ValueError("power ideal is not contained in the symbolic power")
    new = ~_divisible(ipow._array(), isym._array())
    return tuple(g for g, is_new in zip(isym.gens, new) if is_new)


def sdefect_star_monomial(n: int, c: int, m: int) -> int:
    """Symbolic defect of the coordinate star, counted combinatorially."""
    if m == 0:
        return 0
    isym = symbolic_power_star(n, c, m)
    ipow = star_monomial(n, c).power(m)
    return len(module_min_gens(isym, ipow))


# ---------------------------------------------------------------------------
# decomposition checks
# ---------------------------------------------------------------------------

def verify_square_decomposition(n: int, c: int) -> bool:
    """I^(2) = I_{c-1} + I^2 for the coordinate star (needs c >= 2)."""
    if not 2 <= c <= n:
        raise ValueError(f"square decomposition needs 2 <= c <= n, got c={c}, n={n}")
    lhs = symbolic_power_star(n, c, 2)
    rhs = star_monomial(n, c - 1).sum(star_monomial(n, c).power(2))
    return lhs == rhs


def verify_cube_decomposition(n: int, c: int) -> bool:
    """I^(3) = I_{c-2} + I_{c-1}*I_c + I^3 for the coordinate star (needs c >= 3)."""
    if not 3 <= c <= n:
        raise ValueError(f"cube decomposition needs 3 <= c <= n, got c={c}, n={n}")
    lhs = symbolic_power_star(n, c, 3)
    ic = star_monomial(n, c)
    rhs = (
        star_monomial(n, c - 2)
        .sum(star_monomial(n, c - 1).product(ic))
        .sum(ic.power(3))
    )
    return lhs == rhs


def verify_support_decomposition(n: int, c: int, m: int) -> bool:
    """I^(m) = I^m + M where M collects the high-support criterion monomials."""
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    lhs = symbolic_power_star(n, c, m)
    rhs = star_monomial(n, c).power(m).sum(support_filtered_ideal(n, c, m))
    return lhs == rhs


def star_report(n: int, c: int, m: int) -> dict:
    """JSON-ready summary of the symbolic power / power comparison."""
    isym = symbolic_power_star(n, c, m)
    ipow = star_monomial(n, c).power(m)
    new_gens = module_min_gens(isym, ipow)
    return {
        "params": {"n": n, "c": c, "m": m},
        "sym_gens": [format_monomial(g) for g in isym.gens],
        "pow_gens": [format_monomial(g) for g in ipow.gens],
        "sdefect": len(new_gens),
        "new_generators": [format_monomial(g) for g in new_gens],
    }

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
from itertools import combinations, product

import numpy as np

from .poly import Monomial, mono_divides, mono_lcm, mono_mul


def minimalize(monos) -> tuple[Monomial, ...]:
    """The unique minimal generating set: drop every multiple of another monomial."""
    monos = sorted(set(monos), key=lambda m: (sum(m), m))
    if not monos:
        return ()
    arr = np.array(monos, dtype=np.int64)
    keep: list[int] = []
    kept = np.empty((0, arr.shape[1]), dtype=np.int64)
    for i in range(arr.shape[0]):
        if kept.shape[0] == 0 or not np.any(np.all(kept <= arr[i], axis=1)):
            keep.append(i)
            kept = np.vstack([kept, arr[i]])
    return tuple(tuple(int(e) for e in arr[i]) for i in keep)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal held by its minimal generators (an antichain)."""

    num_vars: int
    gens: tuple[Monomial, ...]

    @staticmethod
    def make(num_vars: int, monos) -> "MonomialIdeal":
        monos = list(monos)
        for m in monos:
            if len(m) != num_vars:
                raise ValueError(f"monomial {m} has wrong variable count")
        return MonomialIdeal(num_vars, minimalize(monos))

    @staticmethod
    def zero(num_vars: int) -> "MonomialIdeal":
        return MonomialIdeal(num_vars, ())

    def member(self, m: Monomial) -> bool:
        return any(mono_divides(g, m) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        return all(self.member(g) for g in other.gens)

    def __eq__(self, other):
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.num_vars == other.num_vars and self.gens == other.gens

    def __hash__(self):
        return hash((self.num_vars, self.gens))

    def _check(self, other: "MonomialIdeal"):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def sum(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal.make(self.num_vars, self.gens + other.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal.make(
            self.num_vars, (mono_mul(a, b) for a in self.gens for b in other.gens)
        )

    def power(self, m: int) -> "MonomialIdeal":
        if m < 0:
            raise ValueError("negative power")
        out = MonomialIdeal.make(self.num_vars, [(0,) * self.num_vars])
        for _ in range(m):
            out = out.product(self)
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal.make(
            self.num_vars, (mono_lcm(a, b) for a in self.gens for b in other.gens)
        )

    def colon(self, m: Monomial) -> "MonomialIdeal":
        """The quotient (I : m) = {f : f*m in I}, generator-wise division."""
        out = [tuple(max(e - f, 0) for e, f in zip(g, m)) for g in self.gens]
        return MonomialIdeal.make(self.num_vars, out)


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


def uniform_symbolic_power(s: int, c: int, m: int) -> MonomialIdeal:
    """Minimal generators of the m-th symbolic power of the uniform star ideal.

    Enumerates exponent vectors with entries <= m (capping any larger
    exponent at m preserves the subset-sum criterion and divides the
    original), keeps those whose c smallest entries sum to >= m, and
    minimalizes.
    """
    if not 1 <= c <= s:
        raise ValueError(f"need 1 <= c <= s, got c={c}, s={s}")
    if m < 0:
        raise ValueError("negative power")
    if m == 0:
        return MonomialIdeal.make(s, [(0,) * s])
    grid = np.array(list(product(range(m + 1), repeat=s)), dtype=np.int64)
    small_sum = np.sort(grid, axis=1)[:, :c].sum(axis=1)
    good = grid[small_sum >= m]
    return MonomialIdeal.make(s, (tuple(int(e) for e in row) for row in good))


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
    min_support = n - c + 3
    gens = []
    s = n + 1
    grid = np.array(list(product(range(m + 1), repeat=s)), dtype=np.int64)
    small_sum = np.sort(grid, axis=1)[:, :c].sum(axis=1)
    supp = (grid > 0).sum(axis=1)
    good = grid[(small_sum >= m) & (supp >= min_support)]
    gens = (tuple(int(e) for e in row) for row in good)
    ideal = MonomialIdeal.make(s, gens)
    # capping exponents at m is harmless here too: support only shrinks by
    # capping to 0, which cannot happen for entries > m >= 1
    if not all(sym.member(g) for g in ideal.gens):
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
    return tuple(g for g in isym.gens if not ipow.member(g))


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


def format_monomial(m: Monomial, letter: str = "x") -> str:
    offset = 1 if letter == "y" else 0
    if not any(m):
        return "1"
    parts = []
    for j, e in enumerate(m):
        if e == 1:
            parts.append(f"{letter}{j + offset}")
        elif e > 1:
            parts.append(f"{letter}{j + offset}^{e}")
    return "*".join(parts)


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

"""Finite point schemes in the projective plane.

Interpolation ideals and their symbolic powers are cut out degree by degree
as kernels of per-point vanishing conditions; the Hilbert function of the
points themselves is the rank of the stacked order-1 conditions, whose row
for a point holds the value of each monomial there.  The conditions
for one point are obtained by a linear change of coordinates moving the point
to [0:0:1], where membership in the m-th power of the point ideal reads off
the coefficients whose z0/z1-degree is below m.  This is the
complete-intersection span description of the symbolic power in kernel form,
with no derivatives anywhere, so nothing depends on the characteristic.  A
direct subspace-intersection route is kept alongside as a cross-check
oracle.

Genericity of random samples is never assumed: it is certified a posteriori
by comparing Hilbert functions of the ideal and of its symbolic square with
the generic values, and the certificate travels with the point set.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .gradedideal import GradedIdeal, SdefectReport, graded_betti, multiples, sdefect as lab_sdefect
from .linalg import PrimeField, Subspace, kernel_basis, rank
from .poly import (
    HomogPoly,
    basis_exponents,
    basis_size,
    coefficient_vector,
    multiply,
    poly_from_vector,
    power,
    rank_exponents,
)

RETRY_CAP = 40


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

def splitmix64(seed: int):
    """The splitmix64 stream: 64-bit state, stable across platforms."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield (z ^ (z >> 31)) & mask


def normalize_point(coords, field: PrimeField) -> tuple[int, int, int]:
    c = [field.of(x) for x in coords]
    if all(x == 0 for x in c):
        raise ValueError("projective point cannot be all zero")
    k = next(i for i, x in enumerate(c) if x != 0)
    inv = field.inv(c[k])
    return tuple(x * inv % field.p for x in c)


@dataclass(frozen=True)
class PointSet:
    """Duplicate-free points of P^2 over a prime field, with sampling metadata."""

    points: tuple[tuple[int, int, int], ...]
    field: PrimeField
    seed: int | None = None
    certificate: dict | None = None

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    def __len__(self):
        return len(self.points)


def make_point_set(coord_rows, field: PrimeField) -> PointSet:
    return PointSet(tuple(normalize_point(row, field) for row in coord_rows), field)


def point_linear_forms(point, field: PrimeField) -> tuple[HomogPoly, HomogPoly]:
    """Two canonical independent linear forms vanishing at the point.

    They are the reduced-echelon kernel basis of the evaluation functional,
    so they generate the full point ideal.
    """
    pt = normalize_point(point, field)
    row = field.matrix([list(pt)])
    K = kernel_basis(row, field)
    l1 = poly_from_vector(K[0], 3, 1, field)
    l2 = poly_from_vector(K[1], 3, 1, field)
    return l1, l2


# ---------------------------------------------------------------------------
# interpolation ideals and symbolic powers
# ---------------------------------------------------------------------------

def ideal_of_points(X: PointSet) -> GradedIdeal:
    """The interpolation ideal I_X = I_X^(1), with pieces and generators through reg(I_X).

    The order-1 condition row of a point holds the value of each monomial
    there, so I_X is the kernel of the tables whose rank is HF(R/I_X).
    """
    return symbolic_power_points(X, 1)


def _adapted_frame(point, field: PrimeField) -> np.ndarray:
    """Invertible 3x3 matrix whose last column is the point.

    Substituting x = A z moves the point to [0:0:1], so the point ideal
    becomes <z0, z1> and order-m vanishing is a condition on z-coefficients.
    """
    pt = normalize_point(point, field)
    k = next(i for i, x in enumerate(pt) if x != 0)
    others = [i for i in range(3) if i != k]
    A = field.zeros((3, 3))
    A[others[0], 0] = 1
    A[others[1], 1] = 1
    for i in range(3):
        A[i, 2] = pt[i]
    return A


@lru_cache(maxsize=None)
def _first_var_parents(d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each degree-d monomial: its first variable v and the basis(d-1)
    position of the monomial divided by x_v."""
    exps = basis_exponents(3, d)
    first_var = np.argmax(exps > 0, axis=1)
    parent = exps.copy()
    parent[np.arange(len(exps)), first_var] -= 1
    return first_var, rank_exponents(parent)


class _PointConditions:
    """Vanishing-order conditions for one point, built degree by degree.

    Row (i, j) of the degree-d table holds, for every degree-d x-monomial,
    the coefficient of z0^i z1^j z2^(d-i-j) in its image under x = A z.
    Membership of a form in I_P^m is the vanishing of all rows with
    i + j <= m - 1.  A monomial x_v * u maps to (sum_t A[v, t] z_t) * u(Az),
    so row (i, j) of degree d combines rows (i, j), (i-1, j) and (i, j-1)
    of the parent u in degree d - 1, weighted by A[v, 2], A[v, 0], A[v, 1].
    """

    def __init__(self, point, m: int, field: PrimeField):
        self.field = field
        self.A = _adapted_frame(point, field)
        rows = [(i, j) for i in range(m) for j in range(m - i)]
        index = {ij: r for r, ij in enumerate(rows)}
        zero = len(rows)  # a missing parent row reads the zero row appended below
        self._up_i = np.array([index.get((i - 1, j), zero) for i, j in rows], dtype=np.int64)
        self._up_j = np.array([index.get((i, j - 1), zero) for i, j in rows], dtype=np.int64)
        table0 = field.zeros((len(rows), 1))
        table0[index[(0, 0)], 0] = 1
        self._tables: dict[int, np.ndarray] = {0: table0}

    def table(self, d: int) -> np.ndarray:
        if d in self._tables:
            return self._tables[d]
        prev = self.table(d - 1)
        first_var, parent = _first_var_parents(d)
        # parent columns, plus a zero row for (i-1, j) or (i, j-1) off the table
        P = np.concatenate([prev, self.field.zeros((1, prev.shape[1]))])[:, parent]
        a = self.A[first_var]  # row v of A for each monomial's first variable
        # each product is below p^2, so the sum of three stays exact in int64
        out = (P[:-1] * a[:, 2] + P[self._up_i] * a[:, 0] + P[self._up_j] * a[:, 1]) % self.field.p
        self._tables[d] = out
        return out


@dataclass(frozen=True)
class PointsProfile:
    alpha: int
    regularity: int
    hf: tuple[int, ...]  # HF of R/I_X for degrees 0..sigma+1
    is_generic_hf: bool


def points_profile(X: PointSet) -> PointsProfile:
    """alpha, reg(I_X) and HF(R/I_X) at 0..sigma + 1, one walk of sigma + 2 ranks.

    HF(R/I_X)(d) is the rank of the stacked order-1 condition tables of
    degree d, whose row for a point holds the value of each degree-d
    monomial there.  sigma is the least degree where HF reaches |X|, and
    reg(I_X) = sigma + 1 is the last degree walked.
    """
    s = len(X)
    conds = [_PointConditions(pt, 1, X.field) for pt in X.points]
    hf = []
    while len(hf) < 2 or hf[-2] < s:
        if len(hf) > 3 * s + 4:
            raise RuntimeError("Hilbert function failed to stabilize (duplicate points?)")
        hf.append(rank(np.concatenate([c.table(len(hf)) for c in conds], axis=0), X.field))
    alpha = next(d for d, v in enumerate(hf) if v < basis_size(3, d))
    generic = all(v == min(basis_size(3, d), s) for d, v in enumerate(hf))
    return PointsProfile(alpha, len(hf) - 1, tuple(hf), generic)


def regularity_points(X: PointSet) -> int:
    """reg(I_X) for points in the plane: one past the HF stabilization degree."""
    return points_profile(X).regularity


def _condition_kernels(X: PointSet, m: int) -> Callable[[int], Subspace]:
    """d -> I_X^(m)_d, the kernel of the stacked condition tables of degree d.

    Each degree's kernel is computed at most once.  R is a domain, so
    I_d = 0 forces I_{d-1} = 0: below the highest degree found to hold a
    zero piece, every piece is ``Subspace.zero`` with no elimination.  Asking
    for degrees in decreasing order therefore eliminates only down to the
    first zero piece.
    """
    field = X.field
    conds = [_PointConditions(pt, m, field) for pt in X.points]
    pieces: dict[int, Subspace] = {}
    zero_top = -1  # highest degree known to hold a zero piece

    def piece(d: int) -> Subspace:
        nonlocal zero_top
        if d <= zero_top:
            return Subspace.zero(basis_size(3, d), field)
        if d not in pieces:
            pieces[d] = Subspace.kernel(np.concatenate([c.table(d) for c in conds], axis=0), field)
            if pieces[d].dim == 0:
                zero_top = d
        return pieces[d]

    return piece


def symbolic_power_pieces(X: PointSet, m: int, degree_bound: int) -> dict[int, Subspace]:
    """The pieces I_X^(m)_d for d = 0..degree_bound, keyed by degree.

    Degrees are visited from the top down, so one condition kernel is
    computed per degree down to the first zero piece, and the pieces below
    it are inherited as zero (see :func:`_condition_kernels`).
    """
    piece = _condition_kernels(X, m)
    top_down = [piece(d) for d in range(degree_bound, -1, -1)]
    return dict(enumerate(reversed(top_down)))


def symbolic_power_points(X: PointSet, m: int) -> GradedIdeal:
    """I_X^(m) as a graded ideal, with its pieces through reg(I_X^(m)).

    R/I_X^(m) is one-dimensional Cohen-Macaulay of degree
    e = |X| * binom(m+1, 2), so reg(I_X^(m)) = sigma + 1, where sigma is the
    least degree with HF(R/I_X^(m))(sigma) = e.  sigma is read off the
    pieces themselves; no generic value is assumed.  Minimal generators lie
    in degrees <= reg(I_X^(m)), so the Nakayama generators of these pieces
    (:meth:`GradedIdeal.from_pieces`) generate the whole symbolic power, and
    higher pieces follow from them.

    From the least degree d0 with dim R_d0 > e on, the e condition rows
    leave every piece nonzero.  Below d0 kernels are computed from d0 - 1
    downward only through the first zero piece; the pieces below it are
    inherited as zero.  If HF has not reached e by m * |X|, an
    ArithmeticError is raised.  That ceiling bounds reg(I_X^(m)) with no
    walk of its own: reg(I_X^(m)) <= m * reg(I_X), and reg(I_X) <= |X|
    because HF(R/I_X) rises strictly from 1 until it reaches |X|.  The
    search stops at the first sigma, so the ceiling is only reached when
    that fails.
    """
    if m < 1:
        raise ValueError("symbolic power needs m >= 1")
    e = len(X) * comb(m + 1, 2)
    ceiling = m * len(X)
    piece = _condition_kernels(X, m)
    d0 = next(d for d in range(e + 1) if basis_size(3, d) > e)
    for d in range(d0 - 1, -1, -1):
        if piece(d).dim == 0:
            break
    sigma = next((d for d in range(ceiling + 1) if basis_size(3, d) - piece(d).dim == e), None)
    if sigma is None:
        raise ArithmeticError(f"HF of R/I_X^({m}) does not reach {e} by degree {ceiling}")
    return GradedIdeal.from_pieces(3, {d: piece(d) for d in range(sigma + 2)}, X.field)


def symbolic_piece_by_intersection(X: PointSet, m: int, d: int) -> Subspace:
    """Oracle route: intersect per-point spans of l1^a l2^(m-a) R_{d-m}."""
    field = X.field
    if d < m:
        return Subspace.zero(basis_size(3, d), field)
    out: Subspace | None = None
    for pt in X.points:
        l1, l2 = point_linear_forms(pt, field)
        forms = [multiply(power(l1, a), power(l2, m - a)) for a in range(m + 1)]
        span = Subspace.from_rows(multiples(3, forms, d, field), field)
        out = span if out is None else out.intersect(span)
    return out


def power_ideal(I: GradedIdeal, m: int, max_degree: int | None = None) -> GradedIdeal:
    """I^m generated by the m-fold products of the given generators.

    The products come in ``combinations_with_replacement`` order of the
    generators; each multiplies its (m-1)-fold prefix once, starting from
    the empty product 1.  With ``max_degree`` only the products of degree
    <= max_degree are formed, in the same order: a prefix is dropped once
    its degree plus (factors still to come) * (least generator degree)
    exceeds the bound.  The ideal they generate has the pieces of I^m in
    every degree <= max_degree, and no others are promised.
    """
    if m < 0:
        raise ValueError("negative power")
    cap = float("inf") if max_degree is None else max_degree
    low = min((g.degree for g in I.gens), default=0)
    one = HomogPoly(I.num_vars, 0, {(0,) * I.num_vars: I.field.of(1)}, I.field)
    level = [(0, one)]  # (index of the last factor, product)
    for later in range(m - 1, -1, -1):  # factors still to come after this one
        level = [
            (i, multiply(f, I.gens[i]))
            for last, f in level
            for i in range(last, len(I.gens))
            if f.degree + I.gens[i].degree + later * low <= cap
        ]
    return GradedIdeal(I.num_vars, [f for _, f in level], I.field)


def sdefect_points(X: PointSet, ms: list[int]) -> list[SdefectReport]:
    """Symbolic defects of the point ideal, one report per power in ``ms``.

    Each report carries D = m*reg(I_X) + 1: regularity bounds every generator
    degree in sight, so the per-degree counts are complete and the total is
    exact.  I_X and reg(I_X) are computed once for the whole list, and only
    when some m >= 1 asks for them; I_X serves as I_X^(1).  I_X^(m) is built
    through its own regularity (:func:`symbolic_power_points`), and sdefect
    reads I_X^m only in degrees <= the top generator degree of I_X^(m);
    there the products of degree <= that bound
    (``power_ideal(..., max_degree=...)``) generate the same pieces as I_X^m.
    Every product formed is checked to lie in I_X^(m).
    """
    if any(m < 0 for m in ms):
        raise ValueError("negative power")
    if any(m > 0 for m in ms):
        reg = regularity_points(X)
        base = ideal_of_points(X)
    reports = []
    for m in ms:
        if m == 0:
            reports.append(SdefectReport(per_degree={}, total=0, degree_bound_used=0))
            continue
        isym = base if m == 1 else symbolic_power_points(X, m)
        ipow = power_ideal(base, m, max_degree=isym.top_gen_degree())
        reports.append(lab_sdefect(isym, ipow, m * reg + 1))
    return reports


# ---------------------------------------------------------------------------
# generic points and certification
# ---------------------------------------------------------------------------

def generic_double_hf(s: int, d: int) -> int:
    """Expected HF of R/I_X^(2) for s general double points in the plane.

    s = 2 has no closed form here and is rejected; s = 5 carries the
    exceptional value 14 in degree 4.
    """
    if s < 1:
        raise ValueError("need at least one point")
    if s == 2:
        raise ValueError("no generic formula for s = 2; compute directly")
    if s == 5 and d == 4:
        return 14
    return min(basis_size(3, d), 3 * s)


def _certify_generic(X: PointSet) -> dict | None:
    """Hilbert-function certificates for 'general position', or None on failure."""
    s = len(X)
    # (a) generic HF of the points themselves, read off their profile
    prof = points_profile(X)
    if not prof.is_generic_hf:
        return None
    cert = {"hf_points": list(prof.hf), "hf_generic": True}
    # (b) double points against the interpolation count (skip s = 2: no formula)
    if s != 2:
        d2 = next(d for d in range(3 * s + 4) if basis_size(3, d) >= 3 * s)
        pieces = symbolic_power_pieces(X, 2, d2 + 1)
        hf2 = []
        for d in range(d2 + 2):
            v = basis_size(3, d) - pieces[d].dim
            hf2.append(v)
            if v != generic_double_hf(s, d):
                return None
        cert["hf_double"] = hf2
        cert["hf_double_generic"] = True
    return cert


def random_general_points(s: int, seed: int, prime: int = 32003) -> PointSet:
    """Seeded pseudo-random points certified to be in general position.

    Sampling is deterministic in (s, seed, prime); if a sample fails the
    Hilbert-function certificates the seed is bumped by one and the sample
    is redrawn, up to a retry cap.
    """
    if s < 1:
        raise ValueError("need at least one point")
    field = PrimeField(prime)
    for attempt in range(RETRY_CAP):
        used = seed + attempt
        stream = splitmix64(used)
        pts: list[tuple[int, int, int]] = []
        seen = set()
        draws = 0
        while len(pts) < s:
            coords = tuple(next(stream) % prime for _ in range(3))
            draws += 1
            if draws > 100 * s + 100:
                break
            if all(c == 0 for c in coords):
                continue
            pt = normalize_point(coords, field)
            if pt in seen:
                continue
            seen.add(pt)
            pts.append(pt)
        if len(pts) < s:
            continue
        X = PointSet(tuple(pts), field, seed=used)
        cert = _certify_generic(X)
        if cert is not None:
            cert["seed"] = used
            cert["prime"] = prime
            return PointSet(tuple(pts), field, seed=used, certificate=cert)
    raise RuntimeError(
        f"could not certify {s} general points over GF({prime}) after {RETRY_CAP} attempts"
    )


# ---------------------------------------------------------------------------
# star configurations of points from line arrangements
# ---------------------------------------------------------------------------

def star_points_from_lines(lines: list[HomogPoly]) -> PointSet:
    """Pairwise intersection points of a generic line arrangement.

    Requires every pair independent and no three concurrent (every triple of
    coefficient rows has rank 3).
    """
    if len(lines) < 2:
        raise ValueError("need at least two lines")
    field = lines[0].field
    rows = np.concatenate([coefficient_vector(l).reshape(1, -1) for l in lines], axis=0)
    for i, j in combinations(range(len(lines)), 2):
        if rank(rows[[i, j]], field) != 2:
            raise ValueError(f"lines {i} and {j} are dependent")
    for i, j, k in combinations(range(len(lines)), 3):
        if rank(rows[[i, j, k]], field) != 3:
            raise ValueError(f"lines {i}, {j}, {k} are concurrent")
    pts = []
    for i, j in combinations(range(len(lines)), 2):
        K = kernel_basis(rows[[i, j]], field)
        pts.append(normalize_point(tuple(int(x) for x in K[0]), field))
    return PointSet(tuple(pts), field)


def random_general_lines(s: int, seed: int, prime: int = 32003) -> list[HomogPoly]:
    """Seeded generic line arrangement: pairwise independent, no 3 concurrent."""
    if s < 2:
        raise ValueError("need at least two lines")
    field = PrimeField(prime)
    for attempt in range(RETRY_CAP):
        stream = splitmix64(seed + attempt)
        lines = []
        for _ in range(s):
            coords = [next(stream) % prime for _ in range(3)]
            if all(c == 0 for c in coords):
                break
            lines.append(poly_from_vector(np.array(coords, dtype=np.int64), 3, 1, field))
        if len(lines) < s:
            continue
        try:
            star_points_from_lines(lines)
        except ValueError:
            continue
        return lines
    raise RuntimeError(f"could not sample {s} generic lines after {RETRY_CAP} attempts")


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------

def sdefect2_fits_classification(s: int, total: int) -> bool:
    """Whether sdefect(I_X, 2) = total fits the known split for s general points.

    Expected: 0 exactly for s in {1,2,4}; 1 exactly for s in {3,5,7,8};
    > 1 otherwise (with >= 3 at s = 6 and s = 9).
    """
    if s in (1, 2, 4):
        return total == 0
    if s in (3, 5, 7, 8):
        return total == 1
    return total >= 3 if s in (6, 9) else total > 1


def generator_count_check(X: PointSet) -> bool:
    """At most alpha + 1 minimal generators in the initial degree."""
    prof = points_profile(X)
    I = ideal_of_points(X)
    counts = I.min_gens_counts(prof.regularity)
    return counts.get(prof.alpha, 0) <= prof.alpha + 1


def linear_resolution_check(X: PointSet) -> bool:
    """Linear resolution detected three independent ways, cross-asserted.

    (a) all minimal generators sit in the initial degree alpha and there are
    alpha + 1 of them; (b) |X| = binom(alpha+1, 2) with generic HF; (c) the
    first syzygies are concentrated in degree alpha + 1 with rank alpha.
    The three answers must agree.
    """
    prof = points_profile(X)
    alpha = prof.alpha
    I = ideal_of_points(X)
    counts = I.min_gens_counts(prof.regularity)
    cond_a = counts == {alpha: alpha + 1}
    cond_b = len(X) == comb(alpha + 1, 2) and prof.is_generic_hf
    table = graded_betti(I, prof.regularity + 1)
    cond_c = table.row(0) == {alpha: alpha + 1} and table.row(1) == {alpha + 1: alpha}
    if not (cond_a == cond_b == cond_c):
        raise ArithmeticError(
            f"linear-resolution detections disagree: gens={cond_a}, count/HF={cond_b}, betti={cond_c}"
        )
    return cond_a

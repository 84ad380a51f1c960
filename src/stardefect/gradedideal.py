"""Degree-by-degree linear algebra for homogeneous ideals.

A :class:`GradedIdeal` is a finite generating set together with a lazy cache
of graded pieces, each a canonical :class:`~stardefect.linalg.Subspace` of
coefficient vectors.  Everything downstream -- Hilbert functions, membership,
ideal equality, Nakayama minimal generators, symbolic defect, graded Betti
numbers -- is built on those pieces.  No Groebner bases anywhere: every
question is answered inside finite-dimensional graded slices, so all results
are exact and carry an explicit degree bound.

Syzygies reuse the same Nakayama computation lifted to graded pieces of free
modules, one coefficient column per (generator, monomial) pair.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .linalg import Field, Subspace, echelon
from .poly import (
    HomogPoly,
    basis_exponents,
    basis_size,
    coefficient_vector,
    poly_from_vector,
    product_positions,
    var_shift,
)


@dataclass
class SdefectReport:
    """Per-degree minimal generator counts of the module I^(m)/I^m."""

    per_degree: dict[int, int]
    total: int
    degree_bound_used: int


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers: (homological index i, internal degree j) -> rank."""

    entries: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "BettiTable":
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        return BettiTable(items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.entries)

    def row(self, i: int) -> dict[int, int]:
        return {j: r for (ii, j), r in self.entries if ii == i}

    def degrees(self, i: int) -> list[int]:
        """Degrees in homological position i, with multiplicity, sorted."""
        out: list[int] = []
        for j, r in sorted(self.row(i).items()):
            out.extend([j] * r)
        return out

    def to_json(self) -> dict:
        return {"betti": [{"i": i, "j": j, "rank": r} for (i, j), r in self.entries]}

    def display(self) -> str:
        """Conventional triangular text display (rows indexed by j - i)."""
        if not self.entries:
            return "(zero table)"
        d = self.as_dict()
        imax = max(i for (i, _) in d)
        strips = sorted({j - i for (i, j) in d})
        width = max(len(str(r)) for r in d.values()) + 2
        lines = ["      " + "".join(f"{i:>{width}}" for i in range(imax + 1))]
        for s in strips:
            cells = []
            for i in range(imax + 1):
                r = d.get((i, s + i))
                cells.append(f"{r if r else '.':>{width}}")
            lines.append(f"{s:>5}:" + "".join(cells))
        return "\n".join(lines)


class GradedIdeal:
    """A homogeneous ideal given by finitely many forms, with cached pieces."""

    def __init__(self, num_vars: int, gens: list[HomogPoly], field: Field):
        self.num_vars = num_vars
        self.field = field
        self.gens = []
        for g in gens:
            if g.num_vars != num_vars:
                raise ValueError("generator has wrong variable count")
            if g.field != field:
                raise ValueError("generator field mismatch")
            if not g.is_zero:
                self.gens.append(g)
        self._pieces: dict[int, Subspace] = {}

    @classmethod
    def from_pieces(cls, num_vars: int, pieces: dict[int, Subspace], field: Field) -> "GradedIdeal":
        """The ideal generated by Nakayama representatives of pieces 0..D.

        ``pieces`` maps every degree 0..D to a subspace M_d of R_d.  The
        representatives of degree d complete R_1 M_{d-1} inside M_d, and
        that containment is checked exactly, so the ideal they generate has
        exactly these pieces through D, which are installed in its cache.
        The caller certifies that no generator lies above D.
        """
        ring = FreeModuleLayout(num_vars, (0,))
        gens = [
            poly_from_vector(piece.basis[q], num_vars, d, field)
            for d, piece, kept in _nakayama(ring, pieces.__getitem__, range(len(pieces)), field)
            for q in kept
        ]
        J = cls(num_vars, gens, field)
        J._pieces.update(pieces)
        return J

    def __repr__(self):
        return f"GradedIdeal({self.num_vars} vars, {len(self.gens)} gens, {self.field})"

    # -- graded pieces ------------------------------------------------------

    def graded_piece(self, d: int) -> Subspace:
        """Canonical subspace of R_d spanned by the ideal, of dimension dim J_d."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        if d in self._pieces:
            return self._pieces[d]
        if (d - 1) in self._pieces:
            ring = FreeModuleLayout(self.num_vars, (0,))
            shifted = ring.shift_rows(self._pieces[d - 1].basis, d - 1, self.field)
            new = [g for g in self.gens if g.degree == d]
            stacked = np.concatenate([shifted, multiples(self.num_vars, new, d, self.field)], axis=0)
        else:
            stacked = multiples(self.num_vars, self.gens, d, self.field)
        piece = Subspace.from_rows(stacked, self.field, basis_size(self.num_vars, d))
        self._pieces[d] = piece
        return piece

    def hilbert_function(self, d: int) -> int:
        """dim R_d - dim J_d, the Hilbert function of the quotient ring."""
        return basis_size(self.num_vars, d) - self.graded_piece(d).dim

    def alpha(self, bound: int) -> int | None:
        """Least degree <= bound with a nonzero piece, or None."""
        for d in range(bound + 1):
            if self.graded_piece(d).dim:
                return d
        return None

    def member(self, f: HomogPoly) -> bool:
        if f.is_zero:
            return True
        return self.graded_piece(f.degree).contains(coefficient_vector(f))

    def contains_ideal(self, other: "GradedIdeal") -> bool:
        """Whether every generator of other lies in this ideal, one check per degree."""
        by_degree: dict[int, list[np.ndarray]] = {}
        for g in other.gens:
            by_degree.setdefault(g.degree, []).append(coefficient_vector(g))
        return all(
            self.graded_piece(d).contains_rows(np.stack(vecs))
            for d, vecs in sorted(by_degree.items())
        )

    def top_gen_degree(self) -> int:
        """The largest generator degree, or -1 for the zero ideal.

        No minimal generator of the ideal, or of a quotient module of it,
        lies above this degree: there J_d = R_1 J_{d-1}.
        """
        return max((g.degree for g in self.gens), default=-1)

    # -- minimal generators ---------------------------------------------------

    def min_gens(self, degree_bound: int) -> dict[int, list[HomogPoly]]:
        """Nakayama minimal generators by degree, up to the bound.

        mu_d = dim J_d - dim(R_1 J_{d-1}); the representatives are the
        earliest rows (in lex order of their leading monomials) of the
        canonical piece basis that complete R_1 J_{d-1} inside J_d.  Degrees
        above :meth:`top_gen_degree` are skipped: their count is 0.
        """
        ring = FreeModuleLayout(self.num_vars, (0,))
        degrees = range(min(degree_bound, self.top_gen_degree()) + 1)
        return {
            d: [poly_from_vector(piece.basis[q], self.num_vars, d, self.field) for q in kept]
            for d, piece, kept in _nakayama(ring, self.graded_piece, degrees, self.field)
        }

    def min_gens_counts(self, degree_bound: int) -> dict[int, int]:
        return {d: len(v) for d, v in self.min_gens(degree_bound).items()}


def multiples(num_vars: int, forms: list[HomogPoly], d: int, field: Field) -> np.ndarray:
    """Rows basis(d - deg g) * g for each form g of degree <= d, stacked in order.

    The one place where products of forms become coefficient rows of R_d.
    """
    forms = [g for g in forms if g.degree <= d]
    sizes = [basis_size(num_vars, d - g.degree) for g in forms]
    out = field.zeros((sum(sizes), basis_size(num_vars, d)))
    start = 0
    for g, n in zip(forms, sizes):
        coeffs = np.array(list(g.terms.values()), dtype=out.dtype)
        _place_multiples(out[start : start + n], num_vars, list(g.terms), coeffs, d - g.degree)
        start += n
    return out


def _place_multiples(out: np.ndarray, num_vars: int, exps, coeffs: np.ndarray, k: int, offset: int = 0):
    """Write basis(k)[i] * (sum_t coeffs[t] x^exps[t]) into row i of out.

    ``exps`` are the exponent rows of one degree; the products land in the
    columns of their degree's basis, shifted by offset.  One
    ``product_positions`` call, one fancy-index assignment.
    """
    pos = product_positions(num_vars, k, exps)
    out[np.arange(pos.shape[0])[:, None], offset + pos] = coeffs


def _complete_in_subspace(piece: Subspace, wrows: np.ndarray, field: Field) -> list[int]:
    """Indices of piece basis rows greedily completing span(wrows) to the piece.

    The rows must lie in the piece, which is checked exactly.  With the RREF
    basis B, a vector v of the piece satisfies v = v[pivots] @ B, so in the
    compressed coordinates v[pivots] the basis rows become standard basis
    vectors e_0, ..., e_{k-1}.  Iterating in order (increasing lex position
    of the leading monomials), e_q is kept iff it is independent of
    span(wrows) + span(e_0, ..., e_{q-1}), that is iff no vector of
    span(wrows) ends at column q (has its last nonzero entry there).  The
    end columns of a span are the pivots of an echelon form with the columns
    reversed, so one non-reduced elimination answers every q: the greedy
    completion is a column rank profile.
    """
    if not piece.contains_rows(wrows):
        raise ArithmeticError("rows do not lie in the expected graded piece")
    k = piece.dim
    comp = wrows[:, list(piece.pivots)]
    _, _, pivots = echelon(comp[:, ::-1], field, reduced=False)
    ends = {k - 1 - c for c in pivots}
    return [q for q in range(k) if q not in ends]


def _nakayama(
    layout: FreeModuleLayout,
    piece_at: Callable[[int], Subspace],
    degrees: range,
    field: Field,
    extra: Callable[[int], np.ndarray] | None = None,
) -> Iterator[tuple[int, Subspace, list[int]]]:
    """Nakayama completion of a graded submodule M of a free module, by degree.

    ``piece_at(d)`` is M_d, a subspace of the degree-d piece of ``layout``.
    For each d in the consecutive ``degrees`` with M_d nonzero, the basis
    rows of M_d that greedily complete extra(d) + R_1 M_{d-1} inside M_d
    are kept, and ``(d, M_d, kept)`` is yielded when any is.  With no
    ``extra`` they are minimal generators of M in degree d; with extra(d)
    the basis of a submodule's degree-d piece, they count minimal
    generators of the quotient.  M_{d-1} is zero below the first degree.
    """
    prev = Subspace.zero(layout.piece_dim(degrees.start - 1), field)
    for d in degrees:
        piece = piece_at(d)
        if piece.dim:
            rows = layout.shift_rows(prev.basis, d - 1, field)
            if extra is not None:
                rows = np.concatenate([extra(d), rows], axis=0)
            kept = _complete_in_subspace(piece, rows, field)
            if kept:
                yield d, piece, kept
        prev = piece


def ideals_equal(J: GradedIdeal, K: GradedIdeal) -> bool:
    """Exact ideal equality via mutual generator membership."""
    if J.num_vars != K.num_vars or J.field != K.field:
        raise ValueError("ideals live in different rings")
    return J.contains_ideal(K) and K.contains_ideal(J)


def sdefect(isym: GradedIdeal, ipow: GradedIdeal, degree_bound: int) -> SdefectReport:
    """Minimal generator counts of isym/ipow, degree by degree up to the bound.

    mu_d = dim (isym)_d - dim((ipow)_d + R_1 (isym)_{d-1}).  The module is
    generated by the images of the generators of isym, so mu_d = 0 above
    ``isym.top_gen_degree()``; the loop stops there, and the counts are
    exact through ``degree_bound``, which the report records.  The total is
    the full sdefect whenever the bound reaches that ceiling.
    """
    if isym.num_vars != ipow.num_vars or isym.field != ipow.field:
        raise ValueError("ideals live in different rings")
    if not isym.contains_ideal(ipow):
        raise ValueError("power ideal is not contained in the symbolic power")
    ring = FreeModuleLayout(isym.num_vars, (0,))
    degrees = range(min(degree_bound, isym.top_gen_degree()) + 1)
    steps = _nakayama(ring, isym.graded_piece, degrees, isym.field, extra=lambda d: ipow.graded_piece(d).basis)
    per_degree = {d: len(kept) for d, _, kept in steps}
    return SdefectReport(
        per_degree=per_degree,
        total=sum(per_degree.values()),
        degree_bound_used=degree_bound,
    )


# ---------------------------------------------------------------------------
# free modules and resolutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeModuleLayout:
    """Graded pieces of a twisted free module ⊕_i R(-a_i) as index blocks."""

    num_vars: int
    twists: tuple[int, ...]

    def piece_dim(self, j: int) -> int:
        return sum(basis_size(self.num_vars, j - a) for a in self.twists if j >= a)

    def offsets(self, j: int) -> list[int]:
        out = []
        off = 0
        for a in self.twists:
            out.append(off)
            if j >= a:
                off += basis_size(self.num_vars, j - a)
        return out

    def shift_rows(self, rows: np.ndarray, j_from: int, field: Field) -> np.ndarray:
        """Multiply elements of degree j_from by every variable."""
        nv = self.num_vars
        k = rows.shape[0]
        out = field.zeros((nv * k, self.piece_dim(j_from + 1)))
        offs_from = self.offsets(j_from)
        offs_to = self.offsets(j_from + 1)
        for comp, a in enumerate(self.twists):
            if j_from < a:
                continue
            n = basis_size(nv, j_from - a)
            block = rows[:, offs_from[comp] : offs_from[comp] + n]
            for v in range(nv):
                tgt = offs_to[comp] + var_shift(nv, j_from - a, v)
                out[v * k : (v + 1) * k, tgt] = block
        return out

    def map_matrix(self, images: list[np.ndarray], target: "FreeModuleLayout", j: int, field: Field) -> np.ndarray:
        """Matrix of the map sending generator k to images[k], in degree j.

        images[k] is a coefficient row of the target piece in degree deg_k.
        Columns are indexed by (generator, monomial of degree j - deg_k)
        pairs, the order of :meth:`piece_dim`; rows by the target piece.
        """
        nv = self.num_vars
        out = field.zeros((self.piece_dim(j), target.piece_dim(j)))
        start = 0
        for a, image in zip(self.twists, images):
            if j < a:
                continue
            n = basis_size(nv, j - a)
            for b, off_a, off_j in zip(target.twists, target.offsets(a), target.offsets(j)):
                if a < b:
                    continue
                comp = image[off_a : off_a + basis_size(nv, a - b)]
                nz = np.flatnonzero(comp)
                if nz.size:
                    exps = basis_exponents(nv, a - b)[nz]
                    _place_multiples(out[start : start + n], nv, exps, comp[nz], j - a, off_j)
            start += n
        return out.T.copy()


def graded_betti(J: GradedIdeal, homological_bound: int, degree_bound: int) -> BettiTable:
    """Graded Betti numbers of J up to homological degree <= 2.

    beta_0 from Nakayama minimal generators, beta_1 from minimal generators
    of the syzygy module (kernel of the generator evaluation map on free
    module pieces), beta_2 one level up.  All values are exact within the
    degree bound; the caller certifies the bound covers the table.
    """
    if homological_bound < 0 or homological_bound > 2:
        raise ValueError("homological bound must be 0, 1, or 2")
    field = J.field
    nv = J.num_vars
    entries: dict[tuple[int, int], int] = {}
    by_degree = J.min_gens(degree_bound)
    gens: list[HomogPoly] = []
    for d in sorted(by_degree):
        entries.update({(0, d): len(by_degree[d])})
        gens.extend(by_degree[d])
    if homological_bound == 0 or not gens:
        return BettiTable.from_dict(entries)

    f0 = FreeModuleLayout(nv, tuple(g.degree for g in gens))
    ring = FreeModuleLayout(nv, (0,))
    images0 = [coefficient_vector(g) for g in gens]
    syz_reps, beta1 = _module_min_gens_of_kernel(f0, images0, ring, degree_bound, field)
    entries.update({(1, j): c for j, c in beta1.items()})
    if homological_bound == 1 or not syz_reps:
        return BettiTable.from_dict(entries)

    f1 = FreeModuleLayout(nv, tuple(j for j, _ in syz_reps))
    images1 = [row for _, row in syz_reps]
    _, beta2 = _module_min_gens_of_kernel(f1, images1, f0, degree_bound, field)
    entries.update({(2, j): c for j, c in beta2.items()})
    return BettiTable.from_dict(entries)


def _module_min_gens_of_kernel(
    source: FreeModuleLayout,
    images: list[np.ndarray],
    target: FreeModuleLayout,
    degree_bound: int,
    field: Field,
) -> tuple[list[tuple[int, np.ndarray]], dict[int, int]]:
    """Nakayama minimal generators of ker(source -> target), degree by degree.

    Returns the chosen generator representatives as (degree, basis row of
    the source piece) pairs together with the per-degree counts.
    """
    reps: list[tuple[int, np.ndarray]] = []
    counts: dict[int, int] = {}

    def kernel_at(j: int) -> Subspace:
        return Subspace.kernel(source.map_matrix(images, target, j, field), field)

    degrees = range(min(source.twists, default=0), degree_bound + 1)
    for j, piece, kept in _nakayama(source, kernel_at, degrees, field):
        counts[j] = len(kept)
        reps.extend((j, piece.basis[q]) for q in kept)
    return reps, counts


def betti_from_weyman(resolution: BettiTable) -> BettiTable:
    """Predicted Betti table of I^2 from a length-one resolution of I.

    For a perfect codimension-two generic complete intersection ideal with
    resolution 0 -> F -> G -> I -> 0, the square resolves as
    0 -> Wedge^2 F -> F (x) G -> Sym^2 G -> I^2 -> 0; the prediction is the
    degree bookkeeping of that complex.  The hypothesis is the caller's to
    certify.
    """
    d = resolution.as_dict()
    homs = {i for (i, _) in d}
    if not homs or homs - {0, 1}:
        raise ValueError("input must be a two-step (beta_0, beta_1) table")
    a = resolution.degrees(0)
    b = resolution.degrees(1)
    out: dict[tuple[int, int], int] = {}
    for i in range(len(a)):
        for k in range(i, len(a)):
            key = (0, a[i] + a[k])
            out[key] = out.get(key, 0) + 1
    for ai in a:
        for bk in b:
            key = (1, ai + bk)
            out[key] = out.get(key, 0) + 1
    for i in range(len(b)):
        for k in range(i + 1, len(b)):
            key = (2, b[i] + b[k])
            out[key] = out.get(key, 0) + 1
    return BettiTable.from_dict(out)


def check_alternating_sum(J: GradedIdeal, table: BettiTable, degree_bound: int) -> bool:
    """dim J_d = sum over (i,j) of (-1)^i beta_{i,j} dim R_{d-j} for d <= bound."""
    nv = J.num_vars
    for d in range(degree_bound + 1):
        acc = 0
        for (i, j), r in table.entries:
            if d >= j:
                acc += (-1) ** i * r * basis_size(nv, d - j)
        if acc != J.graded_piece(d).dim:
            return False
    return True

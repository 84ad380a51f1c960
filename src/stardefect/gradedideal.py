"""Degree-by-degree linear algebra for homogeneous ideals.

A :class:`GradedIdeal` is a finite generating set together with a lazy cache
of graded pieces, each a canonical :class:`~stardefect.linalg.Subspace` of
coefficient vectors.  Everything downstream -- Hilbert functions, membership,
ideal equality, Nakayama minimal generators, symbolic defect, graded Betti
numbers -- is built on those pieces.  No Groebner bases anywhere: every
question is answered inside finite-dimensional graded slices, so all results
are exact and carry an explicit degree bound.

Graded Betti numbers run the same Nakayama walk once per homological degree,
on the kernels of maps of free modules (one column per generator and monomial).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
        representatives of degree d complete R_1 M_{d-1}, spanned by the
        degree-d multiples of the representatives kept below d, inside M_d,
        and that containment is checked exactly, so the ideal they generate
        has exactly these pieces through D, which are installed in its
        cache.  The caller certifies that no generator lies above D.
        """
        steps = ((d, pieces[d], None) for d in range(len(pieces)))
        gens = [
            poly_from_vector(piece.basis[q], num_vars, d, field)
            for d, piece, kept in _nakayama(FreeModuleLayout(num_vars, (0,)), steps, field)
            for q in kept
        ]
        J = cls(num_vars, gens, field)
        J._pieces.update(pieces)
        return J

    def __repr__(self):
        return f"GradedIdeal({self.num_vars} vars, {len(self.gens)} gens, {self.field})"

    # -- graded pieces ------------------------------------------------------

    def graded_piece(self, d: int) -> Subspace:
        """Canonical subspace of R_d spanned by the ideal: the span of the
        degree-d multiples of the generators, one elimination."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        if d not in self._pieces:
            rows = multiples(self.num_vars, self.gens, d, self.field)
            self._pieces[d] = Subspace.from_rows(rows, self.field)
        return self._pieces[d]

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

    def _multiples(self, d: int) -> np.ndarray:
        """The rows of G_d, the generators of degree d."""
        return multiples(self.num_vars, [g for g in self.gens if g.degree == d], d, self.field)

    def contains_ideal(self, other: "GradedIdeal") -> bool:
        """Whether every generator of other lies in this ideal, one check per degree."""
        degrees = sorted({g.degree for g in other.gens})
        return all(self.graded_piece(d).contains_rows(other._multiples(d)) for d in degrees)

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
        canonical piece basis that complete R_1 J_{d-1} inside J_d.  With
        G_d the given generators of degree d, J_d = R_1 J_{d-1} + span(G_d),
        so mu_d = 0 where G_d is empty: only the degrees of given generators
        are tested.  The representatives kept below d generate J below d, so
        R_1 J_{d-1} is spanned by their degree-d multiples (:func:`_nakayama`)
        and no J_{d-1} is formed; the result, which depends only on J_d and
        that span, is a walk's over every degree.
        """
        degrees = sorted({g.degree for g in self.gens if g.degree <= degree_bound})
        steps = ((d, self.graded_piece(d), None) for d in degrees)
        return {
            d: [poly_from_vector(piece.basis[q], self.num_vars, d, self.field) for q in kept]
            for d, piece, kept in _nakayama(FreeModuleLayout(self.num_vars, (0,)), steps, self.field)
        }

    def min_gens_counts(self, degree_bound: int) -> dict[int, int]:
        return {d: len(v) for d, v in self.min_gens(degree_bound).items()}


def multiples(num_vars: int, forms: list[HomogPoly], d: int, field: Field) -> np.ndarray:
    """Rows basis(d - deg g) * g for each form g of degree <= d, stacked in order.

    Products of forms become coefficient rows of R_d here, with one
    ``product_positions`` scatter per form degree; the rows of the
    generators of an ideal J span J_d.  :meth:`FreeModuleLayout.multiples`
    places the multiples of coefficient rows of a free module the same way.
    """
    forms = [g for g in forms if g.degree <= d]
    sizes = [basis_size(num_vars, d - g.degree) for g in forms]
    starts = np.cumsum([0] + sizes[:-1])
    out = field.zeros((sum(sizes), basis_size(num_vars, d)))
    for e in sorted({g.degree for g in forms}):
        which = [i for i, g in enumerate(forms) if g.degree == e]
        exps, coeffs = zip(*(forms[i].term_arrays(out.dtype) for i in which))
        rows = np.repeat(starts[which], [len(c) for c in coeffs])
        _place_multiples(out, np.concatenate(exps), np.concatenate(coeffs), d - e, rows)
    return out


def _place_multiples(out: np.ndarray, exps: np.ndarray, coeffs: np.ndarray, k: int, row: np.ndarray, col: int = 0):
    """Write basis(k)[i] * coeffs[t] x^exps[t] into row row[t] + i of out.

    ``row`` holds one start row per term; the terms of one start row have
    distinct exponent rows, all of one degree.  The products land in the
    columns of their degree's basis, shifted by col.  One
    ``product_positions`` call, one fancy-index assignment.
    """
    pos = product_positions(basis_exponents(exps.shape[1], k), exps)
    out[row + np.arange(pos.shape[0])[:, None], col + pos] = coeffs


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
    layout: FreeModuleLayout, steps: Iterable[tuple[int, Subspace, np.ndarray | None]], field: Field
) -> Iterator[tuple[int, Subspace, list[int]]]:
    """Nakayama completion of a graded submodule M of a free module, by degree.

    Each step is ``(d, M_d, N_d)``, in increasing degree, with M_d a piece
    of ``layout`` and N_d None or a basis of the piece of a submodule N of
    M.  At each step the rows spanning R_1 M_{d-1} are checked to lie in
    M_d, also where M_d is zero, and the basis rows of M_d that greedily
    complete N_d + R_1 M_{d-1} inside it are kept; ``(d, M_d, kept)`` is
    yielded when any is: minimal generators of M in degree d, or of M/N.  A
    degree left out is one the caller knows counts 0.  So the rows kept
    below d generate M below d (modulo N), and N_d + R_1 M_{d-1} is spanned
    by N_d and their degree-d multiples (:meth:`FreeModuleLayout.multiples`);
    no M_{d-1} is formed.
    """
    reps: list[tuple[int, np.ndarray]] = []
    for d, piece, sub in steps:
        if piece.dim or reps:
            rows = layout.multiples(reps, d, field)
            if sub is not None:
                rows = np.concatenate([sub, rows])
            kept = _complete_in_subspace(piece, rows, field)
            if kept:
                reps.extend((d, piece.basis[q]) for q in kept)
                yield d, piece, kept


def ideals_equal(J: GradedIdeal, K: GradedIdeal) -> bool:
    """Exact ideal equality via mutual generator membership."""
    if J.num_vars != K.num_vars or J.field != K.field:
        raise ValueError("ideals live in different rings")
    return J.contains_ideal(K) and K.contains_ideal(J)


def sdefect(isym: GradedIdeal, ipow: GradedIdeal, degree_bound: int) -> SdefectReport:
    """Minimal generator counts of isym/ipow, degree by degree up to the bound.

    mu_d = dim (isym)_d - dim((ipow)_d + R_1 (isym)_{d-1}).  With G_d the
    given generators of isym in degree d, (isym)_d = R_1 (isym)_{d-1} +
    span(G_d), so the quotient in degree d is spanned by the images of G_d,
    and mu_d = 0 when G_d is empty or lies in (ipow)_d.  Only the degrees
    <= ``degree_bound`` where some generator of isym is outside ipow are
    tested.  By induction, also across the degrees skipped, (isym)_{d-1} is
    (ipow)_{d-1} plus the multiples of the representatives kept below d, so
    (ipow)_d + R_1 (isym)_{d-1} is spanned by (ipow)_d and their degree-d
    multiples (:func:`_nakayama`); no (isym)_{d-1} is formed, and the
    counts, which depend only on the spans, are a walk's over every degree.
    In particular mu_d = 0 above ``isym.top_gen_degree()``, and the counts
    are exact through ``degree_bound``, which the report records.  The
    total is the full sdefect whenever the bound reaches that ceiling.
    """
    if isym.num_vars != ipow.num_vars or isym.field != ipow.field:
        raise ValueError("ideals live in different rings")
    if not isym.contains_ideal(ipow):
        raise ValueError("power ideal is not contained in the symbolic power")
    degrees = sorted({g.degree for g in isym.gens if g.degree <= degree_bound})
    degrees = [d for d in degrees if not ipow.graded_piece(d).contains_rows(isym._multiples(d))]
    steps = ((d, isym.graded_piece(d), ipow.graded_piece(d).basis) for d in degrees)
    per_degree = {d: len(kept) for d, _, kept in _nakayama(FreeModuleLayout(isym.num_vars, (0,)), steps, isym.field)}
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

    def multiples(self, elements: list[tuple[int, np.ndarray]], j: int, field: Field) -> np.ndarray:
        """Rows basis(j - e) * g for each element (e, g) with e <= j, stacked in order.

        g is a coefficient row of the degree-e piece.  The multiples of each
        component of g land in that component of the degree-j piece, with
        one ``_place_multiples`` per element degree and component.
        """
        nv = self.num_vars
        elements = [(e, g) for e, g in elements if e <= j]
        sizes = [basis_size(nv, j - e) for e, _ in elements]
        starts = np.cumsum([0] + sizes[:-1])
        out = field.zeros((sum(sizes), self.piece_dim(j)))
        for e in sorted({e for e, _ in elements}):
            which = [i for i, (f, _) in enumerate(elements) if f == e]
            block = np.stack([elements[i][1] for i in which])
            for a, off_e, off_j in zip(self.twists, self.offsets(e), self.offsets(j)):
                if e < a:
                    continue
                r, c = np.nonzero(block[:, off_e : off_e + basis_size(nv, e - a)])
                if r.size:
                    exps = basis_exponents(nv, e - a)[c]
                    _place_multiples(out, exps, block[r, off_e + c], j - e, starts[which][r], off_j)
        return out


def graded_betti(J: GradedIdeal, degree_bound: int) -> BettiTable:
    """Graded Betti numbers of J up to homological degree 2, one Nakayama walk per degree.

    Level 0 keeps minimal generators of J among its pieces at its generator
    degrees; level i keeps those of the kernel K of the map from the free
    module F on the rows kept at level i - 1 (:func:`_kernel_steps`), which
    span its image through the bound: K_j is formed only where dim F_j exceeds
    the dimension level i - 1 walked at j (0 if it walked none), else K_j = 0.
    The loop stops at the first level keeping nothing.  All values are exact
    within the degree bound; the caller certifies the bound covers the table.
    """
    pieces = {d: J.graded_piece(d) for d in sorted({g.degree for g in J.gens if g.degree <= degree_bound})}
    walked = {d: piece.dim for d, piece in pieces.items()}
    steps = ((d, piece, None) for d, piece in pieces.items())
    layout = FreeModuleLayout(J.num_vars, (0,))
    entries: dict[tuple[int, int], int] = {}
    for i in range(3):
        reps: list[tuple[int, np.ndarray]] = []
        for d, piece, kept in _nakayama(layout, steps, J.field):
            entries[i, d] = len(kept)
            reps.extend((d, piece.basis[q]) for q in kept)
        if not reps or i == 2:
            break
        target, layout = layout, FreeModuleLayout(J.num_vars, tuple(d for d, _ in reps))
        degrees = [j for j in range(reps[0][0], degree_bound + 1) if layout.piece_dim(j) > walked.get(j, 0)]
        steps = _kernel_steps(reps, target, degrees, J.field, walked := {})
    return BettiTable.from_dict(entries)


def _kernel_steps(
    reps: list[tuple[int, np.ndarray]], target: FreeModuleLayout, degrees: list[int], field: Field, dims: dict[int, int]
) -> Iterator[tuple[int, Subspace, None]]:
    """Steps (j, K_j, None) for j in ``degrees``, recording dims[j] = dim K_j as each is made: K_j is the kernel in
    degree j of the map sending one basis element per (e, g) in ``reps``, by increasing e, to the row g of ``target``."""
    for j in degrees:
        kernel = Subspace.kernel(target.multiples(reps, j, field).T, field)
        dims[j] = kernel.dim
        yield j, kernel, None


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

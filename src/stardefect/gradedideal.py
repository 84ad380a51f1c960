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

from dataclasses import dataclass

import numpy as np

from .linalg import Field, PrimeField, Subspace, _rref_pivots, echelon, kernel_basis, matmul_mod, rank
from .poly import (
    HomogPoly,
    basis_size,
    coefficient_vector,
    poly_from_vector,
    product_positions,
    var_shift,
)


@dataclass
class SdefectReport:
    """Per-degree minimal generator counts of the module I^(m)/I^m."""

    m: int
    per_degree: dict[int, int]
    total: int
    degree_bound_used: int

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "per_degree": {str(d): c for d, c in sorted(self.per_degree.items())},
            "total": self.total,
            "degree_bound_used": self.degree_bound_used,
        }


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

    def __repr__(self):
        return f"GradedIdeal({self.num_vars} vars, {len(self.gens)} gens, {self.field})"

    # -- graded pieces ------------------------------------------------------

    def _gen_rows(self, d: int, only_degree: int | None = None) -> np.ndarray:
        """Rows spanning the degree-d contributions of the generators."""
        nv = self.num_vars
        N = basis_size(nv, d)
        blocks = []
        for g in self.gens:
            if g.degree > d or (only_degree is not None and g.degree != only_degree):
                continue
            rows = self.field.zeros((basis_size(nv, d - g.degree), N))
            _place_multiples(rows, g, d - g.degree)
            blocks.append(rows)
        if not blocks:
            return self.field.zeros((0, N))
        return np.concatenate(blocks, axis=0)

    def graded_piece(self, d: int) -> Subspace:
        """Canonical subspace of R_d spanned by the ideal, of dimension dim J_d."""
        if d < 0:
            raise ValueError("degree must be non-negative")
        if d in self._pieces:
            return self._pieces[d]
        if (d - 1) in self._pieces:
            prev = self._pieces[d - 1]
            ring = FreeModuleLayout(self.num_vars, (0,))
            rows = [ring.shift_rows(prev.basis, d - 1, self.field)] if prev.dim else []
            rows.append(self._gen_rows(d, only_degree=d))
            stacked = np.concatenate(rows, axis=0) if rows else self._gen_rows(d)
        else:
            stacked = self._gen_rows(d)
        piece = Subspace.from_rows(stacked, self.field, basis_size(self.num_vars, d))
        self._pieces[d] = piece
        return piece

    def warm_cache(self, pieces: dict[int, Subspace]):
        """Install externally computed pieces (callers certify correctness).

        Every installed piece must be the degree-d piece of the ideal that
        ``gens`` generates.  Pieces computed later, and the generator-degree
        ceiling of :meth:`min_gens` and :func:`sdefect`, rely on it.
        """
        self._pieces.update(pieces)

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
        out: dict[int, list[HomogPoly]] = {}
        ring = FreeModuleLayout(self.num_vars, (0,))
        for d in range(min(degree_bound, self.top_gen_degree()) + 1):
            piece = self.graded_piece(d)
            if piece.dim == 0:
                continue
            if d == 0:
                wrows = self.field.zeros((0, basis_size(self.num_vars, 0)))
            else:
                prev = self.graded_piece(d - 1)
                wrows = ring.shift_rows(prev.basis, d - 1, self.field)
            kept = _complete_in_subspace(piece, wrows, self.field)
            if kept:
                out[d] = [
                    poly_from_vector(piece.basis[q], self.num_vars, d, self.field)
                    for q in kept
                ]
        return out

    def min_gens_counts(self, degree_bound: int) -> dict[int, int]:
        return {d: len(v) for d, v in self.min_gens(degree_bound).items()}


def _place_multiples(out: np.ndarray, g: HomogPoly, k: int, offset: int = 0):
    """Write basis(k)[i] * g into row i of out, columns shifted by offset.

    The only place where multiples of a form become coefficient rows: one
    ``product_positions`` call, one fancy-index assignment.
    """
    pos = product_positions(g.num_vars, k, list(g.terms))
    rows = np.arange(pos.shape[0])[:, None]
    out[rows, offset + pos] = np.array(list(g.terms.values()), dtype=out.dtype)


def _compress(rows: np.ndarray, piece: Subspace, field: Field, check: bool = True) -> np.ndarray:
    """Coordinates of rows (known to lie in the piece) at its pivot columns.

    With the RREF basis B, a vector v of the subspace satisfies
    v = v[pivots] @ B, so slicing the pivot columns is a linear isomorphism
    onto k^dim.  ``check`` verifies the membership assumption exactly.
    """
    comp = rows[:, list(piece.pivots)]
    if check and rows.size:
        recon = matmul_mod(comp, piece.basis, field)
        if isinstance(field, PrimeField):
            bad = np.any((rows - recon) % field.p != 0)
        else:
            bad = np.any(rows != recon)
        if bad:
            raise ArithmeticError("rows do not lie in the expected graded piece")
    return comp


def _complete_in_subspace(piece: Subspace, wrows: np.ndarray, field: Field) -> list[int]:
    """Indices of piece basis rows greedily completing span(wrows) to the piece.

    Works in the compressed coordinates of the piece, where the basis rows
    become standard basis vectors e_0, ..., e_{k-1}.  Iterating in order
    (increasing lex position of the leading monomials), e_q is kept iff it
    is independent of span(wrows) + span(e_0, ..., e_{q-1}), that is iff no
    vector of span(wrows) ends at column q (has its last nonzero entry
    there).  The end columns of a span are the pivots of an echelon form
    with the columns reversed, so one non-reduced elimination answers every
    q: the greedy completion is a column rank profile.
    """
    k = piece.dim
    comp = _compress(wrows, piece, field)
    _, _, pivots = echelon(comp[:, ::-1], field, reduced=False)
    ends = {k - 1 - c for c in pivots}
    return [q for q in range(k) if q not in ends]


def hilbert_function(J: GradedIdeal, d: int) -> int:
    return J.hilbert_function(d)


def ideals_equal(J: GradedIdeal, K: GradedIdeal) -> bool:
    """Exact ideal equality via mutual generator membership."""
    if J.num_vars != K.num_vars or J.field != K.field:
        raise ValueError("ideals live in different rings")
    return J.contains_ideal(K) and K.contains_ideal(J)


def sdefect(isym: GradedIdeal, ipow: GradedIdeal, degree_bound: int, m: int = 0) -> SdefectReport:
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
    per_degree: dict[int, int] = {}
    ring = FreeModuleLayout(isym.num_vars, (0,))
    for d in range(min(degree_bound, isym.top_gen_degree()) + 1):
        piece = isym.graded_piece(d)
        if piece.dim == 0:
            continue
        blocks = []
        pw = ipow.graded_piece(d)
        if pw.dim:
            blocks.append(pw.basis)
        if d >= 1:
            prev = isym.graded_piece(d - 1)
            if prev.dim:
                blocks.append(ring.shift_rows(prev.basis, d - 1, isym.field))
        if blocks:
            rows = np.concatenate(blocks, axis=0)
            comp = _compress(rows, piece, isym.field)
            w_dim = rank(comp, isym.field)
        else:
            w_dim = 0
        mu = piece.dim - w_dim
        if mu:
            per_degree[d] = mu
    return SdefectReport(
        m=m,
        per_degree=per_degree,
        total=sum(per_degree.values()),
        degree_bound_used=degree_bound,
    )


# ---------------------------------------------------------------------------
# free modules and resolutions
# ---------------------------------------------------------------------------

ModuleElement = tuple[HomogPoly, ...]  # one (possibly zero) form per component


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

    def element_vector(self, elem: ModuleElement, j: int, field: Field) -> np.ndarray:
        v = field.zeros((self.piece_dim(j),))
        offs = self.offsets(j)
        for comp, (g, a) in enumerate(zip(elem, self.twists)):
            if g is None or g.is_zero:
                continue
            if g.degree != j - a:
                raise ValueError("component degree does not match the twist")
            v[offs[comp] : offs[comp] + basis_size(self.num_vars, j - a)] = coefficient_vector(g)
        return v

    def vector_to_element(self, v: np.ndarray, j: int, field: Field) -> ModuleElement:
        offs = self.offsets(j)
        out = []
        for comp, a in enumerate(self.twists):
            if j >= a:
                n = basis_size(self.num_vars, j - a)
                out.append(poly_from_vector(v[offs[comp] : offs[comp] + n], self.num_vars, j - a, field))
            else:
                out.append(HomogPoly.zero(self.num_vars, 0, field))
        return tuple(out)

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

    def map_matrix(self, images: list[ModuleElement], target: "FreeModuleLayout", j: int, field: Field) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Matrix of the map sending generator k to images[k], in degree j.

        Columns are indexed by (generator, monomial of degree j - deg_k)
        pairs; returns the matrix (target piece dim x source piece dim) and
        the column layout as (generator index, local monomial count) blocks.
        """
        nv = self.num_vars
        tgt_dim = target.piece_dim(j)
        cols = []
        layout = []
        tgt_offs = target.offsets(j)
        for k_idx, (a, elem) in enumerate(zip(self.twists, images)):
            if j < a:
                layout.append((k_idx, 0))
                continue
            deg_mono = j - a
            nk = basis_size(nv, deg_mono)
            layout.append((k_idx, nk))
            block = field.zeros((nk, tgt_dim))
            for comp, g in enumerate(elem):
                if g is not None and not g.is_zero:
                    _place_multiples(block, g, deg_mono, tgt_offs[comp])
            cols.append(block)
        if not cols:
            return field.zeros((tgt_dim, 0)), layout
        return np.concatenate(cols, axis=0).T.copy(), layout


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
    images0 = [(g,) for g in gens]
    syz_reps, beta1 = _module_min_gens_of_kernel(f0, images0, ring, degree_bound, field)
    entries.update({(1, j): c for j, c in beta1.items()})
    if homological_bound == 1 or not syz_reps:
        return BettiTable.from_dict(entries)

    f1 = FreeModuleLayout(nv, tuple(j for j, _ in syz_reps))
    images1 = [elem for _, elem in syz_reps]
    _, beta2 = _module_min_gens_of_kernel(f1, images1, f0, degree_bound, field)
    entries.update({(2, j): c for j, c in beta2.items()})
    return BettiTable.from_dict(entries)


def _module_min_gens_of_kernel(
    source: FreeModuleLayout,
    images: list[ModuleElement],
    target: FreeModuleLayout,
    degree_bound: int,
    field: Field,
) -> tuple[list[tuple[int, ModuleElement]], dict[int, int]]:
    """Nakayama minimal generators of ker(source -> target), degree by degree.

    Returns the chosen generator representatives as (degree, element) pairs
    together with the per-degree counts.
    """
    reps: list[tuple[int, ModuleElement]] = []
    counts: dict[int, int] = {}
    prev_kernel: Subspace | None = None
    start = min(source.twists) if source.twists else 0
    for j in range(start, degree_bound + 1):
        if source.piece_dim(j) == 0:
            prev_kernel = None
            continue
        M, _ = source.map_matrix(images, target, j, field)
        K = kernel_basis(M, field)
        piece = Subspace(field, K.shape[1], K, _rref_pivots(K))
        if piece.dim == 0:
            prev_kernel = piece
            continue
        if prev_kernel is not None and prev_kernel.dim:
            wrows = source.shift_rows(prev_kernel.basis, j - 1, field)
        else:
            wrows = field.zeros((0, piece.ambient_dim))
        kept = _complete_in_subspace(piece, wrows, field)
        if kept:
            counts[j] = len(kept)
            for q in kept:
                reps.append((j, source.vector_to_element(piece.basis[q], j, field)))
        prev_kernel = piece
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

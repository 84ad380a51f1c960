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
The walk stops at a regularity it certifies by the Bayer-Stillman criterion,
with ranks in polynomial rings of fewer variables.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .linalg import Field, Subspace, echelon, matmul_mod, rank
from .poly import (
    HomogPoly,
    basis_exponents,
    basis_size,
    coefficient_vector,
    multiply,
    poly_from_vector,
    product_positions,
    rank_exponents,
)


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


@dataclass
class SdefectReport:
    """Per-degree minimal generator counts of the module I^(m)/I^m."""

    per_degree: dict[int, int]
    total: int
    degree_bound_used: int


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers: (homological index i, internal degree j) -> rank.

    ``regularity`` is the certificate ``{"degree": r, "seed": s}`` under
    which :func:`graded_betti` proved the ideal r-regular, or None; it
    takes no part in equality.
    """

    entries: tuple[tuple[tuple[int, int], int], ...]
    regularity: dict | None = dataclass_field(default=None, compare=False)

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int], regularity: dict | None = None) -> "BettiTable":
        items = tuple(sorted((k, v) for k, v in d.items() if v))
        return BettiTable(items, regularity)

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
    span its image through the degrees walked: K_j is formed only where dim
    F_j exceeds the dimension level i - 1 walked at j (0 if it walked none),
    else K_j = 0.  The loop stops at the first level keeping nothing.

    The walk certifies r = reg(J) as it goes (:func:`_until_regular`):
    before level 1 forms K_j for j >= t + 2, t the top generator degree, it
    tries r = j - 2 with :func:`_bayer_stillman`.  On success level i walks
    only through min(bound, r + i), as beta_{i,j}(J) = 0 for j > r + i
    (Eisenbud-Goto, J. Algebra 88, 1984), and the table carries the
    certificate as ``regularity``.  With none, every level walks to the
    bound.  All values are exact within the degree bound; the table is
    complete when the bound reaches r + 2, and otherwise when the caller
    certifies that the bound covers it.
    """
    pieces = {d: J.graded_piece(d) for d in sorted({g.degree for g in J.gens if g.degree <= degree_bound})}
    walked = {d: piece.dim for d, piece in pieces.items()}
    steps = ((d, piece, None) for d, piece in pieces.items())
    layout = FreeModuleLayout(J.num_vars, (0,))
    entries: dict[tuple[int, int], int] = {}
    regularity: dict = {}
    for i in range(3):
        reps: list[tuple[int, np.ndarray]] = []
        for d, piece, kept in _nakayama(layout, steps, J.field):
            entries[i, d] = len(kept)
            reps.extend((d, piece.basis[q]) for q in kept)
        if not reps or i == 2:
            break
        target, layout = layout, FreeModuleLayout(J.num_vars, tuple(d for d, _ in reps))
        last = min(degree_bound, regularity["degree"] + i + 1) if regularity else degree_bound
        degrees = [j for j in range(reps[0][0], last + 1) if layout.piece_dim(j) > walked.get(j, 0)]
        steps = _kernel_steps(reps, target, degrees, J.field, walked := {})
        if i == 0:
            steps = _until_regular(J, reps, layout, degrees, steps, walked, regularity)
    return BettiTable.from_dict(entries, regularity or None)


def _kernel_steps(
    reps: list[tuple[int, np.ndarray]], target: FreeModuleLayout, degrees: list[int], field: Field, dims: dict[int, int]
) -> Iterator[tuple[int, Subspace, None]]:
    """Steps (j, K_j, None) for j in ``degrees``, recording dims[j] = dim K_j as each is made: K_j is the kernel in
    degree j of the map sending one basis element per (e, g) in ``reps``, by increasing e, to the row g of ``target``."""
    for j in degrees:
        kernel = Subspace.kernel(target.multiples(reps, j, field).T, field)
        dims[j] = kernel.dim
        yield j, kernel, None


def _until_regular(
    J: GradedIdeal,
    gens: list[tuple[int, np.ndarray]],
    source: FreeModuleLayout,
    degrees: list[int],
    steps: Iterator[tuple[int, Subspace, None]],
    dims: dict[int, int],
    found: dict,
) -> Iterator[tuple[int, Subspace, None]]:
    """The level-1 ``steps``, one per degree in ``degrees``, until J is certified r-regular.

    ``gens`` are the minimal generators (e, row) of J, ``source`` the free
    module on them, and ``dims`` the kernel dimensions the steps record.
    Before step j >= t + 2 (t the top generator degree) is formed, dim J_d
    = dim F_d - dim K_d is known at d = j - 2 and j - 1, with K_d = 0 where
    it was not formed, and :func:`_bayer_stillman` tries r = j - 2 with
    seed r - t.  On success ``found`` becomes {"degree": r, "seed": r - t},
    dims[r + 2] is read off the certificate for the exactness count of
    level 2, and the walk ends: beta_{1,j} = 0 for j > r + 1.
    """
    nv, t = J.num_vars, J.top_gen_degree()
    steps = iter(steps)
    for j in degrees:
        r = j - 2
        if r >= t:
            hf = [basis_size(nv, d) - source.piece_dim(d) + dims.get(d, 0) for d in (r, r + 1)]
            after = _bayer_stillman(gens, nv, r, hf, r - t, J.field)
            if after is not None:
                dims[r + 2] = source.piece_dim(r + 2) - basis_size(nv, r + 2) + after
                found.update(degree=r, seed=r - t)
                return
        yield next(steps)


def _bayer_stillman(
    gens: list[tuple[int, np.ndarray]], num_vars: int, r: int, hf: list[int], seed: int, field: Field
) -> int | None:
    """HF(R/J)(r + 2) if the Bayer-Stillman criterion proves J r-regular, else None.

    J is generated by ``gens`` (degree, row) in degrees <= r, and ``hf`` is
    [HF(R/J)(r), HF(R/J)(r + 1)].  Criterion (Bayer-Stillman, Invent. Math.
    87, 1987, Thm 1.10, (b) => (a)): if linear forms h_1..h_k satisfy
    ((J, h_<i) : h_i)_r = (J, h_<i)_r for every i and (J, h_1..h_k)_r = R_r,
    then J is r-regular.  The argument below uses nothing about the forms
    or the field, so a failed draw is never wrong.

    Lemma (cf. their Lemma 1.8).  Let I be generated in degrees <= r, h
    linear, (I : h)_r = I_r and (I, h) r-regular.  Then (I : h)_d = I_d for
    all d >= r, and I is r-regular.  Induction on d: let f be of degree
    d + 1 with hf = sum a_k g_k, g_k the generators.  Modulo h, (a_k) is a
    syzygy of degree d + 2 of the images of the g_k in R/(h); these
    generate an r-regular ideal, so their syzygies are generated in
    degrees <= r + 1.  Lifting them, a = sum b_l s_l + h c with
    sum_k s_lk g_k = h u_l, u_l in (I : h) of degree <= r, and b_l of
    positive degree; so f = sum b_l u_l + sum c_k g_k, and each b_l u_l is a
    sum of x_v (I : h)_d = x_v I_d.  Then with M = R/I, N = M/hM and
    K = 0 :_M h, zero from degree r on: H^0_m(M)_d = 0 for d >= r (no
    power of h kills a nonzero element there), and for i >= 1 the sequence
    0 -> (M/K)(-1) -> M -> N -> 0, with H^i(M/K) = H^i(M) and N
    (r - 1)-regular, makes H^i(M)_e -> H^i(M)_{e+1} bijective for
    e >= r - i; as these vanish for e >> 0, M is (r - 1)-regular.  Since
    (J, h_1..h_k) contains R_r and is generated in degrees <= r, it is
    r-regular, and the lemma carries that back to J one form at a time.

    Computed: h_i = x_last - lin, drawn from ``splitmix64(seed)``, so
    R/(h_<=i) is a polynomial ring in one variable fewer, reached by
    substituting x_last -> lin (:func:`_substitution_matrix`), and the
    image of J there is generated by the images of ``gens``.  With HF_i
    the Hilbert function of that ring modulo the image, the colon condition
    is multiplication by h_i injective from degree r, that is HF_i(r + 1)
    = HF_{i-1}(r + 1) - HF_{i-1}(r); the last condition is HF_k(r) = 0.
    In one variable the image is 0 or contains R_r (r >= 1 as J is not
    zero), and h = x passes, so the substitutions stop there.  Injectivity
    holds from r on, so HF_{i-1}(r + 2) = HF_{i-1}(r + 1) + HF_i(r + 2), and
    HF(R/J)(r + 2) is the sum of all HF_i(r + 1).
    """
    stream = splitmix64(seed)
    nv, after = num_vars, hf[1]
    while hf[0] and nv > 1:
        nv -= 1
        lin = poly_from_vector(np.array([field.of(next(stream)) for _ in range(nv)], dtype=object), nv, 1, field)
        gens = [
            (e, row)
            for e in sorted({e for e, _ in gens})
            for row in matmul_mod(np.stack([g for f, g in gens if f == e]), _substitution_matrix(lin, e), field)
        ]
        layout = FreeModuleLayout(nv, (0,))
        down = [basis_size(nv, d) - rank(layout.multiples(gens, d, field), field) for d in (r, r + 1)]
        if down[1] != hf[1] - hf[0]:
            return None
        hf = down
        after += hf[1]
    return after


def _substitution_matrix(lin: HomogPoly, d: int) -> np.ndarray:
    """The map x_n -> lin from degree d in x_0..x_n to degree d in x_0..x_{n-1}, lin a linear form in those.

    The basis monomial m x_n^k goes to m lin^k, the row of m among the
    degree-d multiples of lin^k.
    """
    nv, field = lin.num_vars, lin.field
    out = field.zeros((basis_size(nv + 1, d), basis_size(nv, d)))
    power = HomogPoly(nv, 0, {(0,) * nv: field.of(1)}, field)
    for k in range(d + 1):
        head = basis_exponents(nv, d - k)
        out[rank_exponents(np.column_stack([head, np.full(len(head), k)]))] = multiples(nv, [power], d, field)
        power = multiply(power, lin)
    return out


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

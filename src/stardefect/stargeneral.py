"""Star configurations cut out by arbitrary forms.

The ideal of a star configuration on forms F_1..F_s is generated by the
products of (s-c+1)-subsets, and its symbolic powers transfer from the
uniform monomial case through the substitution y_i -> F_i.  That transfer is
the whole engine here: source-ring generators come from the exponent
criterion in s variables, and pushing them through the substitution yields
generating sets for I^(m) directly, with all comparisons done degree by
degree in the target ring.

The transfer needs every (c+1)-subset of the forms to be a regular sequence,
and :meth:`StarConfig.certify` proves it with one rank check per subset.
The subset is completed by nv-c-1 seeded linear forms to nv forms in nv
variables.  Let D be the sum of the subset degrees minus c.  If the nv forms
span all of R_D, the quotient by them is Artinian; they are then a system of
parameters of the Cohen-Macaulay ring R, hence a regular sequence, and so is
the subset.  Conversely, for a regular subset and general linear forms the
quotient is a complete intersection whose top degree is D-1, so the check
passes.  A failed check only means "draw other linear forms"; after
RETRY_CAP draws the configuration is rejected.  The certificate records, per
subset, its indices, the seed of the linear forms (None when the subset
already has nv forms), and D.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

import numpy as np

from .gradedideal import BettiTable, GradedIdeal, betti_from_weyman, graded_betti, ideals_equal, multiples, splitmix64
from .linalg import Field, PrimeField, Subspace, matmul_mod, rank
from .monomial import uniform_star, uniform_symbolic_power
from .points import RETRY_CAP, power_ideal
from .poly import HomogPoly, basis_size, multiply, poly_from_vector, substitute


class CertificationError(ValueError):
    """A (c+1)-subset of forms could not be certified as a regular sequence."""


@dataclass
class StarConfig:
    """Forms (sorted by degree), codimension, and the regular-sequence certificate."""

    num_vars: int
    c: int
    forms: list[HomogPoly]
    field: Field
    certificate: list[dict] = dataclass_field(default_factory=list)

    @staticmethod
    def build(num_vars: int, c: int, forms: list[HomogPoly]) -> "StarConfig":
        n = num_vars - 1
        s = len(forms)
        if not 1 <= c <= min(n, s):
            raise ValueError(f"need 1 <= c <= min(n, s) = {min(n, s)}, got c={c}")
        field = forms[0].field
        for g in forms:
            if g.num_vars != num_vars or g.field != field:
                raise ValueError("forms must share one ring and field")
            if g.is_zero:
                raise ValueError("zero form in a star configuration")
            if g.degree < 1:
                raise ValueError("star configuration forms need positive degree")
        forms = sorted(forms, key=lambda g: g.degree)
        cfg = StarConfig(num_vars, c, forms, field)
        cfg.certify()
        return cfg

    @property
    def s(self) -> int:
        return len(self.forms)

    @property
    def degrees(self) -> list[int]:
        return [g.degree for g in self.forms]

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)

    def certify(self):
        """Prove every (c+1)-subset of the forms a regular sequence.

        Fills ``certificate`` with one {"subset", "seed", "degree"} entry per
        subset; raises CertificationError when a subset fails for every one
        of RETRY_CAP seeded draws of the completing linear forms.
        """
        nv = self.num_vars
        extra = nv - self.c - 1
        certificate = []
        for subset in combinations(range(self.s), self.c + 1):
            chosen = [self.forms[i] for i in subset]
            D = sum(g.degree for g in chosen) - self.c
            # with no linear forms to add the check does not depend on a draw
            seeds = range(RETRY_CAP) if extra else [None]
            for seed in seeds:
                lins = []
                if extra:
                    stream = splitmix64(seed)
                    for _ in range(extra):
                        vec = np.array([self.field.of(next(stream)) for _ in range(nv)], dtype=object)
                        lins.append(poly_from_vector(vec, nv, 1, self.field))
                rows = multiples(nv, chosen + lins, D, self.field)
                if rank(rows, self.field) == basis_size(nv, D):
                    break
            else:
                raise CertificationError(
                    f"forms {subset} are not certified as a regular sequence: "
                    f"no Artinian completion at degree {D}"
                )
            certificate.append({"subset": list(subset), "seed": seed, "degree": D})
        self.certificate = certificate


def random_star_config(
    num_vars: int, c: int, degrees: list[int], seed: int, prime: int = 32003
) -> StarConfig:
    """Seeded random forms of the given degrees, certified as a star config."""
    if num_vars < 2 or any(e < 1 for e in degrees):
        raise ValueError("need at least two variables and positive form degrees")
    field = PrimeField(prime)
    for attempt in range(RETRY_CAP):
        stream = splitmix64(seed + attempt)
        forms = []
        for e in sorted(degrees):
            n = basis_size(num_vars, e)
            vec = np.array([next(stream) % prime for _ in range(n)], dtype=np.int64)
            if not vec.any():
                break
            forms.append(poly_from_vector(vec, num_vars, e, field))
        if len(forms) < len(degrees):
            continue
        try:
            return StarConfig.build(num_vars, c, forms)
        except CertificationError:
            continue
    raise RuntimeError(f"could not certify a random star configuration after {RETRY_CAP} tries")


def star_ideal(cfg: StarConfig, c: int | None = None) -> GradedIdeal:
    """I_{c,F}: generated by the products of all (s-c+1)-subsets of the forms."""
    c = cfg.c if c is None else c
    if not 1 <= c <= cfg.s:
        raise ValueError(f"codimension {c} out of range")
    gens = []
    for mono in uniform_star(cfg.s, c).gens:
        gens.append(substitute(mono, cfg.forms))
    return GradedIdeal(cfg.num_vars, gens, cfg.field)


def symbolic_power_star_general(cfg: StarConfig, m: int) -> GradedIdeal:
    """I_{c,F}^(m) through the substitution transfer.

    The source-ring generators are the minimal monomial generators of the
    uniform symbolic power in s variables; their images generate the
    symbolic power of the configuration.
    """
    if m < 0:
        raise ValueError("negative power")
    source = uniform_symbolic_power(cfg.s, cfg.c, m)
    gens = [substitute(mono, cfg.forms) for mono in source.gens]
    return GradedIdeal(cfg.num_vars, gens, cfg.field)


def verify_square_decomposition_general(cfg: StarConfig) -> bool:
    """I^(2) = I_{c-1,F} + I_{c,F}^2 as an exact ideal equality."""
    if cfg.c < 2:
        raise ValueError("square decomposition needs c >= 2")
    lhs = symbolic_power_star_general(cfg, 2)
    ic = star_ideal(cfg)
    rhs = GradedIdeal(
        cfg.num_vars,
        star_ideal(cfg, cfg.c - 1).gens + power_ideal(ic, 2).gens,
        cfg.field,
    )
    return ideals_equal(lhs, rhs)


def verify_power_identity(lines: list[HomogPoly], m: int) -> bool:
    """I^(2m) = (I^(2))^m for the codimension-2 star of a line arrangement."""
    cfg = StarConfig.build(3, 2, lines)
    lhs = symbolic_power_star_general(cfg, 2 * m)
    rhs = power_ideal(symbolic_power_star_general(cfg, 2), m)
    return ideals_equal(lhs, rhs)


def verify_cube_decomposition_general(cfg: StarConfig) -> bool:
    """I^(3) = I_{c-2,F} + I_{c-1,F} I_{c,F} + I_{c,F}^3 exactly."""
    if cfg.c < 3:
        raise ValueError("cube decomposition needs c >= 3")
    lhs = symbolic_power_star_general(cfg, 3)
    ic = star_ideal(cfg)
    icm1 = star_ideal(cfg, cfg.c - 1)
    gens = (
        star_ideal(cfg, cfg.c - 2).gens
        + [multiply(f, g) for f in icm1.gens for g in ic.gens]
        + power_ideal(ic, 3).gens
    )
    rhs = GradedIdeal(cfg.num_vars, gens, cfg.field)
    return ideals_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# the codimension-two colon identity and resolutions
# ---------------------------------------------------------------------------

def colon_lemma_check(cfg: StarConfig) -> bool:
    """Both parts of the colon identity for c = 2.

    (i) [I^2 : F] equals I_{3,F}, where F is the product of all forms;
    (ii) I^2 ∩ <F> = F [I^2 : F] as graded pieces, with the intersection
    computed by subspaces.  Part (i) is checked degree-wise: the colon
    pieces equal the I_{3,F} pieces through one degree past every generator
    of I_{3,F}.  That puts each generator g of degree t in the colon piece
    of degree t, so gF lies in I^2: a membership test of gF per generator
    fails only where this check does, and is not run.  The colon piece in
    degree t is the kernel of the conditions of (I^2)_{t+d} on the rows
    basis(t)·F, which also span <F> in degree t + d; both parts read them.
    Part (ii) calls ``(I^2)_{t+d}.intersect(<F>_{t+d})``, whose product is
    cond(<F>) times the basis of (I^2)_{t+d}, never the colon's
    cond(I^2)·M^T, so the intersection stays an independent oracle.
    """
    if cfg.c != 2:
        raise ValueError("the colon identity is a c = 2 statement")
    if cfg.s < 3:
        raise ValueError("need at least three forms")
    field = cfg.field
    nv = cfg.num_vars
    i2 = power_ideal(star_ideal(cfg), 2)
    i3 = star_ideal(cfg, 3)
    F = substitute((1,) * cfg.s, cfg.forms)
    d = F.degree

    # (i) colon pieces equal to I_{3,F} pieces, through max generator degree + 1;
    # (ii) I^2 ∩ <F> = F * [I^2 : F] in degree t + d
    bound = max(g.degree for g in i3.gens) + 1
    for t in range(bound + 1):
        M = multiples(nv, [F], t + d, field)  # basis(t) * F rows
        target = i2.graded_piece(t + d)
        colon_t = Subspace.kernel(matmul_mod(target.conditions(), M.T.copy(), field), field)
        if colon_t != i3.graded_piece(t):
            return False
        inter = target.intersect(Subspace.from_rows(M, field))
        if inter != Subspace.from_rows(matmul_mod(colon_t.basis, M, field), field):
            return False
    return True


def predicted_square_betti(degrees: list[int]) -> BettiTable:
    """Closed-form Betti table of I_{2,F}^2 from the form degrees.

    I_{2,F} is resolved by its Hilbert-Burch complex: one generator of
    degree d - d_i per form, s - 1 syzygies of degree d (d the sum of the
    form degrees), and the square's table is Weyman's complex on it.
    """
    d = sum(degrees)
    hilbert_burch = {(0, d - e): degrees.count(e) for e in degrees} | {(1, d): len(degrees) - 1}
    return betti_from_weyman(BettiTable.from_dict(hilbert_burch))


def predicted_symbolic_square_betti(degrees: list[int]) -> BettiTable:
    """Closed-form Betti table of I_{2,F}^(2) from the form degrees."""
    degrees = sorted(degrees)
    s = len(degrees)
    d = sum(degrees)
    out: dict[tuple[int, int], int] = {(0, d): 1}
    for di in degrees:
        k0 = (0, 2 * d - 2 * di)
        out[k0] = out.get(k0, 0) + 1
        k1 = (1, 2 * d - di)
        out[k1] = out.get(k1, 0) + 1
    return BettiTable.from_dict(out)


def verify_resolution_theorems(cfg: StarConfig) -> dict:
    """Computed vs predicted Betti tables for I^2 and I^(2) at c = 2.

    Returns the four tables and the per-ideal match flags; all comparisons
    are entry-wise exact.  Both tables are computed with degree bound 2d, d
    the sum of the form degrees.  Each is complete by the regularity
    certificate ``graded_betti`` computes (its ``regularity``): a
    Bayer-Stillman check that the ideal is r-regular, after which level i
    is walked through r + i <= 2d.  Without one, 2d is the fallback: it is
    the Taylor ceiling.  In the source ring the generators of the square
    and of the uniform symbolic square of the monomial star ideal have
    exponents at most 2, so every Taylor shift divides (y_1...y_s)^2, of
    weighted degree 2d, and the substitution y_i -> F_i carries the graded
    Betti numbers over (Geramita-Harbourne-Migliore-Nagel).
    """
    if cfg.c != 2:
        raise ValueError("the resolution formulas are c = 2 statements")
    if cfg.num_vars < 3:
        raise ValueError("ambient dimension must be at least 2")
    if cfg.s < cfg.num_vars:
        raise ValueError("need s >= n + 1 forms")
    degrees = cfg.degrees
    d = cfg.total_degree
    i2 = power_ideal(star_ideal(cfg), 2)
    sq_table = graded_betti(i2, 2 * d)
    sq_expected = predicted_square_betti(degrees)
    sym2 = symbolic_power_star_general(cfg, 2)
    sym_table = graded_betti(sym2, 2 * d)
    sym_expected = predicted_symbolic_square_betti(degrees)
    return {
        "square": sq_table,
        "square_expected": sq_expected,
        "square_ok": sq_table == sq_expected,
        "symbolic": sym_table,
        "symbolic_expected": sym_expected,
        "symbolic_ok": sym_table == sym_expected,
    }

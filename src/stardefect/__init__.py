"""stardefect: exact computation of symbolic powers and symbolic defects.

An exact symbolic-algebra engine for star-configuration ideals and finite
point sets in the projective plane: symbolic vs ordinary powers, the
symbolic defect (minimal generator count of their quotient), Hilbert
functions, and graded Betti numbers, all computed degree by degree with
dense exact linear algebra over a prime field (or the rationals).
"""

from .gradedideal import (
    BettiTable,
    GradedIdeal,
    SdefectReport,
    betti_from_weyman,
    check_alternating_sum,
    graded_betti,
    ideals_equal,
    sdefect,
)
from .linalg import GF32003, PrimeField, QQ, RationalField, Subspace, kernel_basis, rank, rref
from .monomial import (
    MonomialIdeal,
    module_min_gens,
    satisfies_condition_1,
    sdefect_star_monomial,
    star_monomial,
    star_report,
    symbolic_power_star,
    uniform_star,
    uniform_symbolic_power,
    verify_cube_decomposition,
    verify_square_decomposition,
    verify_support_decomposition,
)
from .points import (
    PointSet,
    PointsProfile,
    generic_double_hf,
    generator_count_check,
    ideal_of_points,
    linear_resolution_check,
    make_point_set,
    point_linear_forms,
    points_profile,
    power_ideal,
    random_general_lines,
    random_general_points,
    regularity_points,
    sdefect_points,
    star_points_from_lines,
    symbolic_power_points,
    verify_general_points_classification,
    verify_power_identity,
)
from .poly import HomogPoly, Monomial, ParseError, monomial_basis, parse_form, substitute
from .stargeneral import (
    CertificationError,
    StarConfig,
    colon_lemma_check,
    predicted_square_betti,
    predicted_symbolic_square_betti,
    random_star_config,
    star_ideal,
    symbolic_power_star_general,
    verify_cube_decomposition_general,
    verify_resolution_theorems,
    verify_square_decomposition_general,
)

__version__ = "0.1.0"

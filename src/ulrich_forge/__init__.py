"""Exact-arithmetic matrix factorizations of quadratic forms and the
double-cover pipeline built on them: field towers with canonical square
roots, sparse homogeneous polynomials, graded-rank Hilbert values,
Sylvester resultants, Gram diagonalization, Clifford-style block
factorizations, Veronese lifts, and branched-cover certificates.
"""

__version__ = "0.1.0"

from .clifford import (
    DeterminantCertificate,
    MatrixFactorization,
    build_clifford_factorization,
    determinant_certificate,
    verify_clifford,
)
from .cover import (
    BranchSplit,
    CoverProfile,
    KeemCertificate,
    NoWitness,
    check_branch_splitting,
    keem_counterexample_certificate,
    riemann_hurwitz,
)
from .fields import ExtensionNeeded, FieldSpec, Scalar, is_square, sqrt_in_field
from .graded import (
    GradedSystem,
    SmoothnessResult,
    ZeroDimResult,
    find_projective_zero,
    graded_dimension,
    hilbert_value,
    is_smooth_hypersurface,
    is_zero_dimensional,
    jacobian_system,
)
from .poly import NEG_INF, Poly, infer_nvars, monomials_of_degree, parse_poly, random_homogeneous
from .quadform import (
    Diagonalization,
    QuadraticFormRecord,
    SumOfProducts,
    diagonalize,
    gram_from_poly,
    pencil_determinant,
    poly_from_gram,
    record_from_gram,
    sum_of_products,
)
from .resultants import (
    TransversalityResult,
    apply_linear_change,
    certify_transversal,
    is_squarefree_univariate,
    sylvester_resultant,
)
from .veronese import (
    FormDecomposition,
    PresentationReport,
    QuadricLift,
    RankBounds,
    VeroneseMap,
    decompose_form,
    lift_form,
    normalize_plane_decomposition,
    rank_bounds,
    ulrich_presentation,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact bispectral machinery for Jacobi polynomials on the unit circle.

Everything structural runs in rational arithmetic: Verblunsky
coefficients, the monic circle polynomials and their Laurent
companions, the pentadiagonal one-sided recurrence, the Dunkl-type
differential operator and its eigenvalues, the reflection-based algebra
those operators generate, the map down to monic Jacobi polynomials on
[-2, 2], and the trigonometric moment functionals; only the printed
zeros of Phi_n are floats.
"""

from .algebra import (
    big_lambda,
    derive_representation,
    verify_central_extension,
    verify_relations_functional,
    verify_relations_matrix,
    verify_representation_derivation,
    y_eigencheck,
)
from .cmv import (
    BandedOperator,
    build_m1,
    build_m2,
    spectrum,
    verify_gevp_and_five_term,
    verify_reflection_rows,
)
from .dunkl import (
    apply_k,
    lambda_n,
    verify_bispectral,
)
from .laurent import LaurentPoly, Rational
from .moments import (
    MomentSeq,
    determinantal_phi,
    inner_product,
    orthogonality_check,
    sigma,
    toeplitz_delta,
    verify_determinantal_match,
    verify_toeplitz_h,
)
from .opuc import (
    JacobiParams,
    OPUCFamily,
    build_family,
    family_from_verblunsky,
    star,
    verblunsky,
)
from .report import Check, VerificationReport
from .szego import (
    build_p,
    build_q,
    verify_classical_match,
    verify_dep_and_pq_identity,
    verify_recurrence_closure,
    verify_three_term,
    verify_transforms,
)

__version__ = "0.1.0"

__all__ = [
    "BandedOperator",
    "Check",
    "JacobiParams",
    "LaurentPoly",
    "MomentSeq",
    "OPUCFamily",
    "Rational",
    "VerificationReport",
    "apply_k",
    "big_lambda",
    "build_family",
    "build_m1",
    "build_m2",
    "build_p",
    "build_q",
    "derive_representation",
    "determinantal_phi",
    "family_from_verblunsky",
    "inner_product",
    "lambda_n",
    "orthogonality_check",
    "sigma",
    "spectrum",
    "star",
    "toeplitz_delta",
    "verblunsky",
    "verify_bispectral",
    "verify_central_extension",
    "verify_classical_match",
    "verify_dep_and_pq_identity",
    "verify_determinantal_match",
    "verify_gevp_and_five_term",
    "verify_recurrence_closure",
    "verify_reflection_rows",
    "verify_relations_functional",
    "verify_relations_matrix",
    "verify_representation_derivation",
    "verify_three_term",
    "verify_toeplitz_h",
    "verify_transforms",
    "y_eigencheck",
]

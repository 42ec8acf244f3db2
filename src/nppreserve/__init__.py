"""Exact decision procedures for polynomials preserving nonnegative 2x2 matrices.

Membership checks return either a certificate trail or an explicit
nonnegative witness matrix whose image has a negative entry, all in exact
rational arithmetic; a randomized matrix oracle cross-validates the
analytic checkers.
"""

from .cone import (
    Comparison,
    ConeWitness,
    RatioStatus,
    RatioVerdict,
    SeparationCertificate,
    certify_ratio,
    check_ratio,
    ratio_value,
)
from .halfline import (
    CertificateNotFound,
    HalflineVerdict,
    PolyaSzegoCertificate,
    check_nonneg_halfline,
    polya_szego_certificate,
)
from .matrices import (
    Matrix2,
    PosMatrixParams,
    closed_form_image,
    falsify_random,
    horner_matrix_eval,
    posmatrix_generate,
    scramble_similarity,
)
from .polynomial import (
    NEG_INF,
    POS_INF,
    Polynomial,
    cauchy_bound,
    square_free_decompose,
    sturm_count,
)
from .preserver import (
    MembershipStatus,
    MembershipVerdict,
    PreserverClass,
    ScreenVerdict,
    SpectralResult,
    TrailEntry,
    check_circulant2,
    check_p1,
    check_p2,
    check_spectral,
    p3_necessary_screen,
    witness_from_ratio,
    witness_from_spectral,
)
from .cli import ParseError, UnsupportedCoefficient, parse_polynomial

__version__ = "0.1.0"

__all__ = [
    "CertificateNotFound",
    "Comparison",
    "ConeWitness",
    "HalflineVerdict",
    "Matrix2",
    "MembershipStatus",
    "MembershipVerdict",
    "NEG_INF",
    "POS_INF",
    "ParseError",
    "Polynomial",
    "PolyaSzegoCertificate",
    "PosMatrixParams",
    "PreserverClass",
    "RatioStatus",
    "RatioVerdict",
    "ScreenVerdict",
    "SeparationCertificate",
    "SpectralResult",
    "TrailEntry",
    "UnsupportedCoefficient",
    "cauchy_bound",
    "certify_ratio",
    "check_circulant2",
    "check_nonneg_halfline",
    "check_p1",
    "check_p2",
    "check_ratio",
    "check_spectral",
    "closed_form_image",
    "falsify_random",
    "horner_matrix_eval",
    "p3_necessary_screen",
    "parse_polynomial",
    "polya_szego_certificate",
    "posmatrix_generate",
    "ratio_value",
    "scramble_similarity",
    "square_free_decompose",
    "sturm_count",
    "witness_from_ratio",
    "witness_from_spectral",
]

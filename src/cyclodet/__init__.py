"""cyclodet: exact cyclotomic-field linear algebra and identity verification."""

__version__ = "0.1.0"

from .rationals import rational, parse_rational, format_rational
from .cyclotomic import (
    CycloContext,
    CycloElem,
    cyclotomic_polynomial,
    shared_context,
)
from .polynomials import CPoly, partial_fraction_check, row_sum_x_check
from .linalg import CMatrix
from .combinatorics import (
    GuardrailExceeded,
    derangement_count,
    double_factorial,
    factorial,
    signed_derangement_sum,
)
from .identities import IdentityReport, MatrixKind, build_matrix

__all__ = [
    "CMatrix",
    "CPoly",
    "CycloContext",
    "CycloElem",
    "GuardrailExceeded",
    "IdentityReport",
    "MatrixKind",
    "build_matrix",
    "cyclotomic_polynomial",
    "derangement_count",
    "double_factorial",
    "factorial",
    "format_rational",
    "parse_rational",
    "partial_fraction_check",
    "rational",
    "row_sum_x_check",
    "shared_context",
    "signed_derangement_sum",
]

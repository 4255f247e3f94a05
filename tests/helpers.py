"""Random elements and matrices for the property tests, and a Hermitian test."""

from fractions import Fraction

from cyclodet.cyclotomic import CycloContext, CycloElem
from cyclodet.linalg import CMatrix


def random_element(ctx: CycloContext, rng, span: int = 3) -> CycloElem:
    """Small random element (coordinates in [-span, span], denominators in
    1..3)."""
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 3))
              for _ in range(ctx.degree)]
    return ctx.from_coeffs(coeffs)


def random_matrix(ctx: CycloContext, rng, dim: int, span: int = 3) -> CMatrix:
    return CMatrix(ctx, [[random_element(ctx, rng, span) for _ in range(dim)]
                         for _ in range(dim)])


def is_hermitian(m: CMatrix) -> bool:
    if not m.is_square():
        return False
    return all(m[r, c] == m[c, r].conjugate()
               for r in range(m.rows) for c in range(r, m.cols))

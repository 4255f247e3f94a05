"""Constructors and polynomial sums that the library does not need,
random elements and matrices for the property tests, a Hermitian test, a
Horner evaluation, a lift of residue tables onto the twisted-sum kernels,
and the slow reference constructions the fast paths are checked against,
among them the Leibniz expansion over permutations and derangements and the
Fraction recurrence of the spectral determinant."""

import random
from fractions import Fraction
from itertools import permutations, zip_longest
from math import lcm

from cyclodet import cyclotomic, identities, polynomials
from cyclodet.cyclotomic import CycloContext, CycloElem
from cyclodet.linalg import CMatrix
from cyclodet.polynomials import CPoly
from cyclodet.rationals import exact


def zero(ctx: CycloContext) -> CycloElem:
    return ctx.from_rational(0)


def one(ctx: CycloContext) -> CycloElem:
    return ctx.from_rational(1)


def zeta_pow(ctx: CycloContext, e: int) -> CycloElem:
    """zeta^e: the monomial x^(e mod n) reduced mod Phi_n, with no twist."""
    v = [0] * ctx.n
    v[e % ctx.n] = 1
    return CycloElem(ctx, cyclotomic._reduce(ctx, v))


def from_coeffs(ctx: CycloContext, coeffs) -> CycloElem:
    """The element with the given rational coordinates, zero-padded to the
    degree."""
    vals = [exact(c) for c in coeffs]
    den = lcm(*(v.denominator for v in vals))
    num = [v.numerator * (den // v.denominator) for v in vals]
    return CycloElem(ctx, num + [0] * (ctx.degree - len(num)), den)


def conjugate(a: CycloElem) -> CycloElem:
    """Complex conjugation, the automorphism zeta -> zeta^(n-1)."""
    return a.galois(a.ctx.n - 1)


def inv_one_plus_zeta(ctx: CycloContext, u: int) -> CycloElem:
    """1/(1 + zeta^u): the unreduced vector n/(1 + zeta^u) over n, reduced
    once, as ``identities.residue_table`` reduces it."""
    n = ctx.n
    return CycloElem(ctx, cyclotomic._reduce(ctx, cyclotomic._inv_one_plus_zeta_vector(n, u)), n)


def lift_table(table) -> tuple:
    """(ctx, diagonal, vectors, den) of a residue table t of n field
    elements, as the ``galois-*`` rows pass a conjugate table: t[0] as a
    Fraction (None when it is not rational), and t[1..n-1] lifted over one
    denominator, each lift padded with zeros to length n."""
    ctx = table[0].ctx
    den, lifts = cyclotomic._lift(table[1:])
    pad = [0] * (ctx.n - ctx.degree)
    return ctx, table[0].as_rational(), [v + pad for v in lifts], den


def table_block_det(table) -> tuple[Fraction, Fraction]:
    """``identities._spectral_det`` of a residue table of field elements."""
    return identities._spectral_det(*lift_table(table))


def cleared_sums(ctx: CycloContext) -> list[list[CycloElem]]:
    """``polynomials._cleared_sums`` with each coordinate list wrapped as the
    field element it holds: S[s] as its n x-coefficients."""
    return [[CycloElem(ctx, c) for c in total] for total in polynomials._cleared_sums(ctx)]


def table_twisted_sums(table) -> list[CycloElem]:
    """[sum_{r=1..n-1} t[r] * zeta^(-sr) for s = 0..n-1] of a residue table
    of field elements, t[0] skipped: ``polynomials._twisted_vector_sums`` of
    its lifts, one field element per sum."""
    ctx, _, vectors, den = lift_table(table)
    return polynomials._twisted_vector_sums(ctx, vectors, den)


def poly_add(p: CPoly, q: CPoly) -> CPoly:
    """p + q, coefficient by coefficient."""
    return CPoly(p.ctx, [a + b for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=0)])


def poly_shift(p: CPoly, k: int) -> CPoly:
    """x^k * p, for k >= 0."""
    return CPoly(p.ctx, [0] * k + list(p.coeffs))


def random_element(ctx: CycloContext, rng, span: int = 3) -> CycloElem:
    """Small random element (coordinates in [-span, span], denominators in
    1..3)."""
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, 3))
              for _ in range(ctx.degree)]
    return from_coeffs(ctx, coeffs)


def reference_mul(a: CycloElem, b: CycloElem) -> CycloElem:
    """Schoolbook product in Q(zeta_n): the full convolution of the two
    numerators, reduced mod Phi_n by long division from the top degree, with
    no packing and no fold through x^n - 1."""
    ctx = a.ctx
    d = ctx.degree
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a.num):
        for j, bj in enumerate(b.num):
            conv[i + j] += ai * bj
    phi = ctx.phi
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        for i in range(d + 1):
            conv[k - d + i] -= c * phi[i]
    return CycloElem(ctx, conv[:d], a.den * b.den)


def random_matrix(ctx: CycloContext, rng, dim: int, span: int = 3) -> CMatrix:
    return CMatrix(ctx, [[random_element(ctx, rng, span) for _ in range(dim)]
                         for _ in range(dim)])


def non_circulant(n: int) -> CMatrix:
    """A random n x n matrix over Q(zeta_n) that is not circulant."""
    m = random_matrix(cyclotomic.shared_context(n), random.Random(n), n)
    assert m != CMatrix(m.ctx, [[m[0, (c - r) % n] for c in range(n)] for r in range(n)])
    return m


def is_hermitian(m: CMatrix) -> bool:
    if not m.is_square():
        return False
    return all(m[r, c] == conjugate(m[c, r])
               for r in range(m.rows) for c in range(r, m.cols))


def derangements(m: int):
    """Yield the fixed-point-free permutations of 1..m, each exactly once,
    in lexicographic order of image tuples."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    for perm in permutations(range(1, m + 1)):
        if all(img != pos for pos, img in enumerate(perm, start=1)):
            yield perm


def perm_sign(perm: tuple[int, ...]) -> int:
    """Parity via cycle decomposition: (-1)^(m - number of cycles)."""
    m = len(perm)
    seen = [False] * m
    cycles = 0
    for start in range(m):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j] - 1
    return 1 if (m - cycles) % 2 == 0 else -1


def signed_product_sum(matrix: CMatrix, perms) -> CycloElem:
    """Sum over the 1-based permutations ``perms`` of
    sign(p) * prod_j M[j, p(j)]: the Leibniz determinant expansion,
    restricted to ``perms``, with field products."""
    ctx = matrix.ctx
    total = zero(ctx)
    data, cols = matrix.data, matrix.cols
    for perm in perms:
        prod = one(ctx)
        for j, img in enumerate(perm):
            e = data[j * cols + (img - 1)]
            if not e:
                break
            prod = prod * e
        else:
            if perm_sign(perm) == 1:
                total = total + prod
            else:
                total = total - prod
    return total


def leibniz_derangement_sum(m: CMatrix) -> CycloElem:
    """The paper's signed derangement sum term by term: the reference for
    ``combinatorics.signed_derangement_sum``."""
    return signed_product_sum(m, derangements(m.rows))


def perm_expansion_det(m: CMatrix) -> CycloElem:
    """Leibniz determinant: the signed product sum over every permutation."""
    return signed_product_sum(m, permutations(range(1, m.rows + 1)))


def minor_delete(m: CMatrix, j: int) -> CMatrix:
    """m with row j and column j deleted (1-based j)."""
    keep = [r for r in range(m.rows) if r != j - 1]
    return CMatrix(m.ctx, [[m[r, c] for c in keep] for r in keep])


def mm_prime(m: CMatrix) -> CMatrix:
    """Difference matrix m[j][k] - m[j][0] - m[0][k] + m[0][0] over
    j, k >= 1: the leading block of the bordered matrix of ``det_affine``."""
    return CMatrix(m.ctx, [[m[j, k] - m[j, 0] - m[0, k] + m[0, 0] for k in range(1, m.cols)]
                           for j in range(1, m.rows)])


def add_scalar(m: CMatrix, x) -> CMatrix:
    """m with the rational x added to every entry: the det[x + m_jk] shift
    that ``det_affine`` is checked against."""
    shift = m.ctx.from_rational(x)
    return CMatrix(m.ctx, [[m[r, c] + shift for c in range(m.cols)] for r in range(m.rows)])


def _dot(xs, ys, ctx: CycloContext) -> CycloElem:
    """Sum of the products of paired entries, skipping zero factors."""
    acc = zero(ctx)
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


def reference_charpoly(m: CMatrix) -> CPoly:
    """det(x*I - M) by Berkowitz's algorithm over the field: the same
    Toeplitz recursion as ``CMatrix.charpoly`` with field products and sums,
    no lift and no packing."""
    ctx, dim = m.ctx, m.rows
    rows = [[m[r, c] for c in range(dim)] for r in range(dim)]
    poly = [one(ctx)]
    for k in range(dim - 1, -1, -1):
        sub = [r[k + 1:] for r in rows[k + 1:]]
        row, col = rows[k][k + 1:], [r[k] for r in rows[k + 1:]]
        toeplitz = [one(ctx), rows[k][k] * -1]
        for i in range(dim - k - 1):
            if i:
                col = [_dot(r, col, ctx) for r in sub]
            toeplitz.append(_dot(row, col, ctx) * -1)
        poly = [_dot(toeplitz[i::-1], poly, ctx) for i in range(len(poly) + 1)]
    return CPoly(ctx, poly[::-1])


def reference_spectrum_poly(ctx: CycloContext, roots) -> CPoly:
    """prod (x - root) over the rational roots with field operations, one
    shift and one rational scaling per factor: acc * (x - root) =
    x*acc - root*acc.  The reference for ``identities.spectrum_poly``."""
    acc = CPoly(ctx, [1])
    for root in roots:
        acc = poly_add(poly_shift(acc, 1), acc * -root)
    return acc


def fraction_block_det(lams) -> tuple[Fraction, Fraction]:
    """(d0, d1) of the leading block of a circulant from its eigenvalues
    lambda_0..lambda_(n-1), by the Fraction recurrence p <- p*lambda,
    e <- e*lambda + p over lambda_1..lambda_(n-1), then
    d0 = (lambda_0 e + p)/n and d1 = e.  The reference for the integer
    recurrence of ``identities._block_det``."""
    p, e = Fraction(1), Fraction(0)
    for lam in lams[1:]:
        p, e = p * lam, e * lam + p
    return (lams[0] * e + p) / len(lams), e


def evaluate(p: CPoly, point) -> CycloElem:
    """p(point) by Horner's rule, for a rational or field point."""
    acc = zero(p.ctx)
    for c in reversed(p.coeffs):
        acc = acc * point + c
    return acc

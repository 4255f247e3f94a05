"""Factorials, derangement counts and the paper's signed derangement sum.

The signed derangement sum runs as a recursion over column subsets in the
packed int ring of ``CMatrix.charpoly``; its Leibniz reference lives in the
tests.
"""

from __future__ import annotations

from math import factorial, prod

from .cyclotomic import CycloElem, _lift, _pack, _reduce, _unpack


class GuardrailExceeded(ValueError):
    """An exponential-cost operation was asked for beyond its size guardrail."""


SIGNED_SUM_GUARDRAIL = 12  # largest dimension summed unforced: 2^12 * 12 ring products


def double_factorial(k: int) -> int:
    """k!! = k(k-2)(k-4)... down to 1 or 2, with (-1)!! = 1."""
    if k < -1:
        raise ValueError("double factorial requires k >= -1")
    return prod(range(k, 0, -2))


def derangement_count(m: int) -> int:
    """Number of derangements of 1..m via the alternating sum
    m! * sum_k (-1)^k / k!, carried out in integers."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    total = 0
    term = factorial(m)  # m!/k! for k = 0
    for k in range(m + 1):
        total += term if k % 2 == 0 else -term
        term //= k + 1
    return total


def signed_derangement_sum(matrix, force: bool = False):
    """Sum over derangements tau of sign(tau) * prod_i M[i, tau(i)]: the
    Leibniz expansion restricted to fixed-point-free permutations, which for
    a zero-diagonal matrix is the determinant.  The diagonal is never read.

    Rows are filled in order, and dp[S] sums the signed products of the
    partial derangements of rows 0..|S|-1 onto the column set S.  Row i = |S|
    goes to each column j not in S with j != i, adding the inversions
    #{c in S : c > j}, so dp[S | {j}] += (-1)^#{c in S : c > j} dp[S] M[i, j],
    and dp of all columns is the sum: 2^d d ring products for dimension d,
    in place of D(d) d field products.  Every S precedes S | {j} as an int,
    so one pass in increasing order finishes each dp[S] before it is read.
    Dimensions above the guardrail are rejected unless forced.

    It runs in the packed ring of ``CMatrix.charpoly``: each entry is lifted
    over the common denominator D to L_ij = D*m_ij in Z[x]/(x^n - 1) and
    packed by x -> 2^k, a ring map into Z/(2^(kn) - 1), reduced once per
    subset; the sum is unpacked once, reduced mod Phi_n and divided by D^d,
    as the sum over L is D^d times the sum over M.  Only the sum over L
    must fit in the slots.  The l1 norm is submultiplicative
    and folding x^n onto 1 keeps it, so each coordinate is at most
    sum_tau prod_i ||L_(i,tau(i))||_1 <= prod_i sum_(j != i) ||L_ij||_1 = P,
    as expanding the product of the row sums covers every derangement term
    (and more, all nonnegative).  So k - 1 = bitlen(P) makes every
    |coordinate| <= P < 2^(k-1), as ``_unpack`` needs.  At d = 2 the sum is
    -L_01 L_10, which meets P when both entries are monomials.
    """
    if not matrix.is_square():
        raise ValueError("requires a square matrix")
    ctx, dim, n = matrix.ctx, matrix.rows, matrix.ctx.n
    if dim > SIGNED_SUM_GUARDRAIL and not force:
        raise GuardrailExceeded(
            f"signed derangement sum over dimension {dim} exceeds the "
            f"guardrail ({SIGNED_SUM_GUARDRAIL}); pass force=True to override")
    den, lifts = _lift(matrix.data)
    norms = [sum(map(abs, v)) for v in lifts]
    k = prod(sum(norms[i * dim:(i + 1) * dim]) - norms[i * dim + i]
             for i in range(dim)).bit_length() + 1
    modulus = (1 << (k * n)) - 1
    packed = [_pack(v, k) for v in lifts]
    dp = [0] * (1 << dim)
    dp[0] = 1
    for s in range(len(dp) - 1):
        v = dp[s] % modulus
        if not v:
            continue
        i = s.bit_count()
        for j in range(dim):
            bit = 1 << j
            if j != i and not s & bit:
                if (s >> j).bit_count() & 1:
                    dp[s | bit] -= v * packed[i * dim + j]
                else:
                    dp[s | bit] += v * packed[i * dim + j]
    return CycloElem(ctx, _reduce(ctx, _unpack(dp[-1], k, n)), den ** dim)

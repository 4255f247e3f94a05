"""Permutations, derangements, signs and the signed derangement sums.

Permutations are 1-based image tuples: p[j-1] is the image of j.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial, prod


class GuardrailExceeded(ValueError):
    """A factorial-cost operation was asked for beyond its size guardrail."""


SIGNED_SUM_GUARDRAIL = 8  # largest dimension summed unforced: 14,833 derangements


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


def signed_product_sum(matrix, perms):
    """Sum over the 1-based permutations ``perms`` of
    sign(p) * prod_j M[j, p(j)]: the Leibniz determinant expansion,
    restricted to ``perms``."""
    ctx = matrix.ctx
    total = ctx.zero()
    data, cols = matrix.data, matrix.cols
    for perm in perms:
        prod = ctx.one()
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


def signed_derangement_sum(matrix, force: bool = False):
    """Sum over derangements tau of sign(tau) * prod_j M[j, tau(j)].

    This is the restriction of the Leibniz determinant expansion to
    fixed-point-free permutations; for a zero-diagonal matrix it equals the
    determinant.  Cost grows like the derangement count, so dimensions above
    the guardrail are rejected unless forced.
    """
    if not matrix.is_square():
        raise ValueError("requires a square matrix")
    m = matrix.rows
    if m > SIGNED_SUM_GUARDRAIL and not force:
        raise GuardrailExceeded(
            f"signed derangement sum over dimension {m} exceeds the "
            f"guardrail ({SIGNED_SUM_GUARDRAIL}); pass force=True to override")
    return signed_product_sum(matrix, derangements(m))

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from cyclodet.combinatorics import (
    GuardrailExceeded,
    double_factorial,
    factorial,
    signed_derangement_sum,
)
from cyclodet.cyclotomic import shared_context
from cyclodet.identities import _KINDS, DETS, MatrixKind, build_matrix, circulant, residue_table
from cyclodet.linalg import CMatrix

from helpers import (
    derangements,
    from_coeffs,
    leibniz_derangement_sum,
    one,
    perm_sign,
    random_element,
    random_matrix,
    zero,
)


def _identity(ctx, dim):
    return CMatrix(ctx, [[1 if r == c else 0 for c in range(dim)] for r in range(dim)])


def test_derangements_of_two():
    assert list(derangements(2)) == [(2, 1)]


def test_derangements_of_one_empty():
    assert list(derangements(1)) == []


def test_derangements_of_zero():
    # the empty permutation has no fixed point
    assert list(derangements(0)) == [()]


def test_derangements_of_four_by_filter_oracle():
    oracle = [p for p in permutations((1, 2, 3, 4))
              if all(img != pos for pos, img in enumerate(p, start=1))]
    got = list(derangements(4))
    assert len(got) == 9
    assert got == oracle


def test_derangements_lexicographic_order():
    for m in (3, 4, 5):
        seq = list(derangements(m))
        assert seq == sorted(seq)


def _derangement_counts(m):
    """D_0..D_m by the recurrence D_m = (m - 1)(D_(m-1) + D_(m-2))."""
    d = [1, 0]
    for k in range(2, m + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[:m + 1]


@pytest.mark.parametrize("m", range(10))
def test_count_matches_enumeration(m):
    assert sum(1 for _ in derangements(m)) == _derangement_counts(m)[m]


def test_count_examples():
    assert [_derangement_counts(8)[m] for m in (0, 4, 8)] == [1, 9, 14833]


def test_sign_examples():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1)) == -1
    assert perm_sign((2, 3, 1)) == 1


@given(st.permutations(list(range(1, 7))), st.permutations(list(range(1, 7))))
def test_sign_multiplicative(p, q):
    p, q = tuple(p), tuple(q)
    p_after_q = tuple(p[qj - 1] for qj in q)
    assert perm_sign(p_after_q) == perm_sign(p) * perm_sign(q)


def test_double_factorial():
    assert double_factorial(7) == 105
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    with pytest.raises(ValueError):
        factorial(-1)


def test_signed_sum_ratio_matrix():
    ctx = shared_context(3)
    a2 = build_matrix(MatrixKind.A, ctx, 2)
    assert signed_derangement_sum(a2) == Fraction(-1, 3)


def test_signed_sum_equals_det_for_hollow():
    rng = random.Random(5)
    ctx = shared_context(5)
    for _ in range(5):
        dim = rng.randint(2, 5)
        m = random_matrix(ctx, rng, dim)
        hollow = CMatrix(ctx, [[zero(ctx) if i == j else m[i, j]
                                for j in range(dim)] for i in range(dim)])
        assert signed_derangement_sum(hollow) == hollow.det()
    c4 = build_matrix(MatrixKind.C_HOLLOW, ctx, 4)
    assert signed_derangement_sum(c4) == c4.det()


def test_signed_sum_dimension_one():
    ctx = shared_context(3)
    assert signed_derangement_sum(CMatrix(ctx, [[7]])) == 0


def test_signed_sum_guardrail(monkeypatch):
    ctx = shared_context(3)
    big = _identity(ctx, 13)
    with pytest.raises(GuardrailExceeded):
        signed_derangement_sum(big)
    assert isinstance(GuardrailExceeded("x"), ValueError)
    # lower the guardrail to exercise the force flag cheaply
    monkeypatch.setattr("cyclodet.combinatorics.SIGNED_SUM_GUARDRAIL", 3)
    hollow = build_matrix(MatrixKind.C_HOLLOW, shared_context(5), 4)
    with pytest.raises(GuardrailExceeded):
        signed_derangement_sum(hollow)
    assert signed_derangement_sum(hollow, force=True) == hollow.det()


def _hollow(m):
    return CMatrix(m.ctx, [[0 if r == c else m[r, c] for c in range(m.cols)]
                           for r in range(m.rows)])


@lru_cache(maxsize=None)
def _reference(hollow):
    # the Leibniz sum never reads the diagonal, so kinds that differ only
    # there share one reference
    return leibniz_derangement_sum(hollow)


@pytest.mark.parametrize("dim", range(9))
def test_recursion_matches_leibniz_on_every_kind(dim):
    # the leading dim x dim block of each kind at the least odd n >= 3 with
    # n - 1 >= dim; the kinds with a nonzero diagonal must ignore it
    n = max(3, dim + 1 + dim % 2)
    ctx = shared_context(n)
    for kind in _KINDS:
        block = build_matrix(kind, ctx, n - 1)
        m = CMatrix(ctx, [[block[r, c] for c in range(dim)] for r in range(dim)])
        assert signed_derangement_sum(m) == _reference(_hollow(m)), (kind, dim)


@pytest.mark.parametrize("n", [3, 5, 7, 12])
def test_recursion_ignores_a_nonzero_diagonal(n):
    rng = random.Random(n)
    ctx = shared_context(n)
    for dim in range(1, 7):
        m = random_matrix(ctx, rng, dim)
        diagonal = [random_element(ctx, rng) or one(ctx) for _ in range(dim)]
        m = CMatrix(ctx, [[diagonal[r] if r == c else m[r, c] for c in range(dim)]
                          for r in range(dim)])
        assert signed_derangement_sum(m) == leibniz_derangement_sum(m), (n, dim)
        assert signed_derangement_sum(m) == signed_derangement_sum(_hollow(m))


@pytest.mark.parametrize("n", [11, 13])
@pytest.mark.parametrize("name", ["a-det", "c-det"])
def test_recursion_matches_the_closed_form(name, n):
    det = DETS[name]
    ctx = shared_context(n)
    m = circulant(ctx, residue_table(det.kind, ctx), n - 1)
    assert signed_derangement_sum(m) == det.value(n)


@pytest.mark.parametrize("n", [3, 7, 9])
def test_recursion_slot_width_at_the_bound(n):
    # at dimension 2 the sum is -L01 L10; with monomial entries its one
    # nonzero coordinate is the slot bound prod_i sum_(j != i) ||L_ij||_1
    ctx = shared_context(n)
    degree = ctx.degree
    for num01, num10, den01, den10 in [(2 ** 20 - 1, -(2 ** 19 + 1), 3, 5),
                                       (-(2 ** 31), -(2 ** 31), 1, 1),
                                       (1, 1, 1, 1), (7, 9, 2, 4)]:
        e01 = from_coeffs(ctx, [Fraction(num01, den01) if i == degree - 1 else 0
                                for i in range(degree)])
        e10 = from_coeffs(ctx, [Fraction(num10, den10) if i == degree // 2 else 0
                                for i in range(degree)])
        m = CMatrix(ctx, [[5, e01], [e10, -3]])
        assert signed_derangement_sum(m) == e01 * e10 * -1, (n, num01, num10)

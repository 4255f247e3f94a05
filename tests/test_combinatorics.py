import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from cyclodet.combinatorics import (
    GuardrailExceeded,
    derangement_count,
    derangements,
    double_factorial,
    factorial,
    perm_sign,
    signed_derangement_sum,
)
from cyclodet.cyclotomic import shared_context
from cyclodet.identities import MatrixKind, build_matrix
from cyclodet.linalg import CMatrix

from helpers import random_matrix


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


@pytest.mark.parametrize("m", range(10))
def test_count_matches_enumeration(m):
    assert sum(1 for _ in derangements(m)) == derangement_count(m)


def test_count_examples():
    assert derangement_count(0) == 1
    assert derangement_count(4) == 9
    # recurrence oracle D_m = (m-1)(D_{m-1} + D_{m-2})
    d = [1, 0]
    for m in range(2, 9):
        d.append((m - 1) * (d[-1] + d[-2]))
    assert derangement_count(8) == d[8] == 14833


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
        hollow = CMatrix(ctx, [[ctx.zero() if i == j else m[i, j]
                                for j in range(dim)] for i in range(dim)])
        assert signed_derangement_sum(hollow) == hollow.det()
    c4 = build_matrix(MatrixKind.C_HOLLOW, ctx, 4)
    assert signed_derangement_sum(c4) == c4.det()


def test_signed_sum_dimension_one():
    ctx = shared_context(3)
    assert signed_derangement_sum(CMatrix(ctx, [[7]])) == 0


def test_signed_sum_guardrail(monkeypatch):
    ctx = shared_context(3)
    big = _identity(ctx, 11)
    with pytest.raises(GuardrailExceeded):
        signed_derangement_sum(big)
    assert isinstance(GuardrailExceeded("x"), ValueError)
    # lower the guardrail to exercise the force flag cheaply
    monkeypatch.setattr("cyclodet.combinatorics.SIGNED_SUM_GUARDRAIL", 3)
    hollow = build_matrix(MatrixKind.C_HOLLOW, shared_context(5), 4)
    with pytest.raises(GuardrailExceeded):
        signed_derangement_sum(hollow)
    assert signed_derangement_sum(hollow, force=True) == hollow.det()

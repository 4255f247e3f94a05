import random
import re
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from cyclodet import cyclotomic
from cyclodet.cyclotomic import (
    CycloContext,
    CycloElem,
    cyclotomic_polynomial,
    inv_one_minus_zeta,
    shared_context,
)
from helpers import conjugate, from_coeffs, one, reference_mul, zero, zeta_pow


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_poly_div(num, den):
    """Oracle long division for monic den; returns (quotient, remainder)."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            q[k - dd] = c
            for i in range(dd + 1):
                num[k - dd + i] -= c * den[i]
    while num and num[-1] == 0:
        num.pop()
    return q, num


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_cyclotomic_6_by_division_oracle():
    # divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 with the independent oracle
    denom = int_poly_mul(int_poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, r = int_poly_div([-1, 0, 0, 0, 0, 0, 1], denom)
    assert r == []
    assert tuple(q) == cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", [*range(1, 31), 105, 195, 201, 225, 301])
def test_cyclotomic_product_over_divisors(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = int_poly_mul(prod, list(cyclotomic_polynomial(d)))
    target = [-1] + [0] * (n - 1) + [1]
    assert prod == target


@pytest.mark.parametrize("n", range(2, 31))
def test_degree_is_totient(n):
    assert CycloContext(n).degree == totient(n)


def test_context_examples():
    assert CycloContext(3).degree == 2
    assert CycloContext(5).degree == 4
    assert CycloContext(9).degree == 6


def test_context_rejects_small_n():
    with pytest.raises(ValueError):
        CycloContext(1)


def test_zeta_pow_examples():
    c3 = shared_context(3)
    assert zeta_pow(c3, 0) == 1
    assert zeta_pow(c3, 2).coeffs == (Fraction(-1), Fraction(-1))  # -1 - z
    c5 = shared_context(5)
    assert zeta_pow(c5, 7) == zeta_pow(c5, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12])
def test_primitivity(n):
    ctx = shared_context(n)
    for e in range(1, n):
        if gcd(e, n) == 1:
            z = zeta_pow(ctx, e)
            assert prod([z] * n, start=one(ctx)) == 1
            assert z != 1


def test_mul_examples():
    c3 = shared_context(3)
    z = zeta_pow(c3, 1)
    assert (1 - z) * (1 - zeta_pow(c3, 2)) == 3
    a = from_coeffs(c3, [Fraction(2, 5), Fraction(-1, 3)])
    assert a * one(c3) == a
    c5 = shared_context(5)
    assert zeta_pow(c5, 2) * zeta_pow(c5, 3) == 1


def _numerator(ctx, rng, bits):
    """Random mixed-sign coordinates whose largest has exactly ``bits`` bits."""
    top = (1 << bits) - 1
    num = [rng.randint(-top, top) for _ in range(ctx.degree)]
    num[rng.randrange(ctx.degree)] = rng.choice((top, -top))
    return num


@pytest.mark.parametrize("n", [*range(2, 121), 225])
def test_reduce_matches_long_division(n):
    # The division by Phi_n from the top down, where a step reads what the
    # steps above it wrote: monomials x^e for every e < 2n - 1 and sparse
    # vectors of every length d..2n - 2, at dense Phi_n with fill-in (n = 2p),
    # sparse Phi_n (n = 25, 27, 81, 225) and Phi_105, whose coefficients
    # include -2, against the oracle.
    ctx = shared_context(n)
    d = ctx.degree

    def expected(v):
        _, r = int_poly_div(v, ctx.phi)
        return r + [0] * (d - len(r))

    for e in range(2 * n - 1):
        v = [0] * max(e + 1, d)
        v[e] = 1
        assert cyclotomic._reduce(ctx, list(v)) == expected(v), e
    rng = random.Random(n)
    for length in range(d, 2 * n - 1):
        v = [0] * length
        for _ in range(3):
            v[rng.randrange(length)] = rng.randint(-9, 9)
        v[-1] = rng.choice((-1, 1)) * rng.randint(1, 9)
        assert cyclotomic._reduce(ctx, list(v)) == expected(v), v


@pytest.mark.parametrize("n", range(2, 61))
def test_mul_matches_reference(n):
    # The schoolbook convolution, its fold through x^n - 1 and the reduction
    # mod Phi_n at degrees 1..58: zero and unit operands, coefficients of 1,
    # 64, 100, 150, 300, 1,000 and 20,000 bits with mixed signs, unequal
    # operand sizes, over shared and coprime denominators.
    rng = random.Random(n)
    ctx = shared_context(n)
    d = ctx.degree
    widest = [(1 << 64) - 1] * d  # every |c_j| up to d * max|a| * max|b|
    pairs = [
        (zero(ctx).num, _numerator(ctx, rng, 64)),
        (one(ctx).num, _numerator(ctx, rng, 1000)),
        ((one(ctx) * -1).num, _numerator(ctx, rng, 64)),
        (_numerator(ctx, rng, 1), _numerator(ctx, rng, 1)),
        (_numerator(ctx, rng, 64), _numerator(ctx, rng, 64)),
        (widest, [-c for c in widest]),
        (_numerator(ctx, rng, 100), _numerator(ctx, rng, 150)),
        (_numerator(ctx, rng, 100), _numerator(ctx, rng, 300)),
        (_numerator(ctx, rng, 1000), _numerator(ctx, rng, 64)),
        (_numerator(ctx, rng, 1000), _numerator(ctx, rng, 1000)),
        (_numerator(ctx, rng, 20000), _numerator(ctx, rng, 64)),
        (_numerator(ctx, rng, 20000), (one(ctx) * -1).num),
    ]
    for i, (x, y) in enumerate(pairs):
        dens = (6, 6) if i % 2 else (2 ** 5, 3 ** 4 * 7)
        a, b = CycloElem(ctx, x, dens[0]), CycloElem(ctx, y, dens[1])
        assert a * b == reference_mul(a, b)
        assert b * a == reference_mul(a, b)


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2"])
def test_from_rational_rejects_inexact_input(bad):
    ctx = shared_context(3)
    with pytest.raises(TypeError):
        ctx.from_rational(bad)


def test_context_mismatch_rejected():
    a = zeta_pow(shared_context(3), 1)
    b = zeta_pow(shared_context(5), 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_inverse_examples():
    c3 = shared_context(3)
    z = zeta_pow(c3, 1)
    assert (1 - z).inverse() == (1 - zeta_pow(c3, 2)) * Fraction(1, 3)
    assert one(c3).inverse() == 1
    assert z.inverse() == zeta_pow(c3, 2)
    with pytest.raises(ZeroDivisionError):
        zero(c3).inverse()


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_inverse_two_sided_random(n):
    rng = random.Random(n)
    ctx = shared_context(n)
    count = 0
    while count < 200:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(ctx.degree)]
        a = from_coeffs(ctx, coeffs)
        if not a:
            continue
        count += 1
        assert a * a.inverse() == 1
        assert a.inverse() * a == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 47])
def test_inv_one_minus_zeta_matches_norm_inverse(n):
    ctx = shared_context(n)
    for r in range(1, n):
        closed = inv_one_minus_zeta(ctx, r)
        assert closed == (1 - zeta_pow(ctx, r)).inverse()


@pytest.mark.parametrize("n", range(2, 41))
def test_raw_vectors_reduce_to_the_closed_forms(n):
    # The unreduced tables of root-sums: each int vector over n, reduced once,
    # is the public closed form and, by the field product, the inverse.
    ctx = shared_context(n)

    def reduced(vector):
        return CycloElem(ctx, cyclotomic._reduce(ctx, vector), n)

    with pytest.raises(ZeroDivisionError):
        cyclotomic._inv_one_minus_zeta_vector(n, 0)
    for r in range(1, n):
        elem = reduced(cyclotomic._inv_one_minus_zeta_vector(n, r))
        assert elem == inv_one_minus_zeta(ctx, r)
        assert elem * (1 - zeta_pow(ctx, r)) == 1, r
    for u in range(n):
        if 2 * u % n == 0:
            with pytest.raises(ZeroDivisionError):
                cyclotomic._inv_one_plus_zeta_vector(n, u)
            continue
        elem = reduced(cyclotomic._inv_one_plus_zeta_vector(n, u))
        assert elem * (1 + zeta_pow(ctx, u)) == 1, u


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9, 12, 25, 30, 45, 64])
def test_raw_vectors_are_centred(n):
    # every coordinate of n/(1 - zeta^r) is at most n/2 in size, so at most
    # n for n/(1 + zeta^u), the difference of two such vectors
    for r in range(1, n):
        assert max(map(abs, cyclotomic._inv_one_minus_zeta_vector(n, r))) <= n // 2, r
        if 2 * r % n:
            assert max(map(abs, cyclotomic._inv_one_plus_zeta_vector(n, r))) <= n, r


def test_context_builds_no_power_rows():
    # The rows are built on the first reduction at n, never by the context.
    rows = cyclotomic._power_rows
    before = rows.cache_info()
    ctx = CycloContext(997)
    assert rows.cache_info() == before
    zeta_pow(ctx, 1)
    after = rows.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize + 1)
    assert len(rows(997)) == 1  # prime n: the one row x^996


def test_power_rows_of_a_sparse_phi_are_sparse():
    # Phi_81 = x^54 + x^27 + 1: every row x^k, 54 <= k < 81, has one or two terms
    rows = cyclotomic._power_rows(81)
    assert len(rows) == 81 - 54
    assert all(1 <= len(row) <= 2 and all(i < 54 for i, _ in row) for row in rows)


def _random_unit(ctx, rng, bits, den_bits):
    while True:
        a = from_coeffs(ctx, [Fraction(rng.randint(-(1 << bits), 1 << bits),
                                      rng.randint(1, 1 << den_bits))
                             for _ in range(ctx.degree)])
        if a:
            return a


@pytest.mark.parametrize("n", [2, 13, 15, 17, 21, 23, 24, 29, 45, 47])
def test_norm_inverse_two_sided(n):
    # n = 2 has a trivial Galois group; 13, 17, 23, 29 and 47 are prime
    # (large norms); at 45 and 47 the conjugate product tree is deep
    rng = random.Random(100 + n)
    ctx = shared_context(n)
    for _ in range(15):
        a = _random_unit(ctx, rng, 6, 3)
        inv = a.inverse()
        assert a * inv == 1
        assert inv * a == 1


@pytest.mark.parametrize("n", [3, 4, 5, 9, 12, 13, 17])
def test_inverse_makes_phi_n_products(n, monkeypatch):
    # phi(n) - 2 products of the conjugates, then the norm and the scaling
    ctx = shared_context(n)
    a = from_coeffs(ctx, [Fraction(k - 2, 3) for k in range(ctx.degree)])
    calls = []
    mul = CycloElem.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(CycloElem, "__mul__", counting_mul)
    inv = a.inverse()
    monkeypatch.undo()
    assert len(calls) == totient(n)
    assert a * inv == 1


@pytest.mark.parametrize("n", [7, 12])
def test_inverse_large_denominators(n):
    rng = random.Random(n)
    ctx = shared_context(n)
    for _ in range(10):
        a = _random_unit(ctx, rng, 40, 60)
        assert a.den.bit_length() > 60
        assert a * a.inverse() == 1
        assert a.inverse().inverse() == a


@pytest.mark.parametrize("n", [5, 9, 13])
def test_inverse_is_multiplicative(n):
    rng = random.Random(3 * n)
    ctx = shared_context(n)
    for _ in range(10):
        a = _random_unit(ctx, rng, 4, 2)
        b = _random_unit(ctx, rng, 4, 2)
        assert (a * b).inverse() == a.inverse() * b.inverse()


@pytest.mark.parametrize("n", [8, 11, 15])
def test_inverse_commutes_with_galois(n):
    rng = random.Random(5 * n)
    ctx = shared_context(n)
    ts = [t for t in range(1, n) if gcd(t, n) == 1]
    for _ in range(10):
        a = _random_unit(ctx, rng, 5, 3)
        for t in ts:
            assert a.galois(t).inverse() == a.inverse().galois(t)


@pytest.mark.parametrize("n", [2, 7, 12])
def test_inverse_of_rational_element(n):
    ctx = shared_context(n)
    for q in (Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-22, 5),
              Fraction(10**30 + 1, 3**40)):
        inv = ctx.from_rational(q).inverse()
        assert inv == ctx.from_rational(1 / q)
        assert inv.as_rational() == 1 / q


def test_galois_examples():
    c3 = shared_context(3)
    assert zeta_pow(c3, 1).galois(2) == zeta_pow(c3, 2)
    a = from_coeffs(c3, [Fraction(1, 2), Fraction(3)])
    assert a.galois(1) == a
    c5 = shared_context(5)
    assert zeta_pow(c5, 1).galois(2).galois(2) == zeta_pow(c5, 4)
    with pytest.raises(ValueError):
        zeta_pow(shared_context(6), 1).galois(3)


@pytest.mark.parametrize("n", [5, 8, 9])
def test_galois_is_field_homomorphism(n):
    rng = random.Random(7 * n)
    ctx = shared_context(n)
    ts = [t for t in range(1, n) if gcd(t, n) == 1]
    for _ in range(30):
        a = from_coeffs(ctx, [rng.randint(-4, 4) for _ in range(ctx.degree)])
        b = from_coeffs(ctx, [rng.randint(-4, 4) for _ in range(ctx.degree)])
        t = rng.choice(ts)
        assert (a + b).galois(t) == a.galois(t) + b.galois(t)
        assert (a * b).galois(t) == a.galois(t) * b.galois(t)


def test_conjugate():
    c3 = shared_context(3)
    assert conjugate(zeta_pow(c3, 1)) == zeta_pow(c3, 2)
    r = c3.from_rational(Fraction(7, 3))
    assert conjugate(r) == r
    c5 = shared_context(5)
    assert conjugate(1 - zeta_pow(c5, 1)) == 1 - zeta_pow(c5, 4)
    rng = random.Random(11)
    for _ in range(20):
        a = from_coeffs(c5, [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(c5.degree)])
        assert conjugate(conjugate(a)) == a


def test_as_rational():
    c3 = shared_context(3)
    zero_sum = zeta_pow(c3, 0) + zeta_pow(c3, 1) + zeta_pow(c3, 2)
    assert zero_sum.as_rational() == 0
    assert c3.from_rational(Fraction(5, 3)).as_rational() == Fraction(5, 3)
    assert zeta_pow(c3, 1).as_rational() is None


def test_rational_elements_hash_as_their_value():
    # equal values must hash equal, so sets and dicts merge them
    ctx = shared_context(5)
    half = ctx.from_rational(Fraction(1, 2))
    assert one(ctx) == 1 and hash(one(ctx)) == hash(1)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({one(ctx), 1}) == 1
    assert len({half, Fraction(1, 2)}) == 1
    z, z2 = zeta_pow(ctx, 1), zeta_pow(ctx, 2)
    assert len({zero(ctx), 0, one(ctx), z}) == 3
    assert (z2 - z) * 3 in {z2 * 3 - z * 3}


def test_equality_with_a_rational_reads_every_coordinate():
    # the int and Fraction fast path: equal only when the element is that rational
    ctx = shared_context(5)
    z = zeta_pow(ctx, 1)
    assert z + 1 != 1 and 1 != z + 1
    assert z * Fraction(1, 2) + Fraction(1, 2) != Fraction(1, 2)
    assert ctx.from_rational(Fraction(-3, 4)) == Fraction(-3, 4) != Fraction(3, 4)
    assert ctx.from_rational(Fraction(-3, 4)) != Fraction(-3, 2)
    assert ctx.from_rational(7) == 7 and ctx.from_rational(7) != Fraction(7, 2)


def test_rational_elements_equal_across_contexts():
    # a rational value is the same number in every Q(zeta_n)
    one3, one5 = one(shared_context(3)), one(shared_context(5))
    assert one3 == one5 and one3 == 1 and one5 == 1
    assert len({one(shared_context(3)), one(shared_context(5)), 1}) == 1
    half7 = shared_context(7).from_rational(Fraction(1, 2))
    assert half7 == shared_context(4).from_rational(Fraction(1, 2))
    assert half7 != shared_context(4).from_rational(Fraction(1, 3))
    # non-rational elements compare only within one context
    assert zeta_pow(shared_context(3), 1) != zeta_pow(shared_context(6), 1)
    assert zeta_pow(shared_context(3), 1) != one3


def test_as_rational_inverts_embedding():
    rng = random.Random(13)
    ctx = shared_context(7)
    for _ in range(50):
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        assert ctx.from_rational(q).as_rational() == q


def test_mul_zeta_pow_matches_general_mul():
    for n in (5, 7, 12):
        ctx = shared_context(n)
        rng = random.Random(n)
        for _ in range(20):
            a = from_coeffs(ctx, [rng.randint(-3, 3) for _ in range(ctx.degree)])
            e = rng.randrange(-2 * n, 2 * n)
            assert a.mul_zeta_pow(e) == a * zeta_pow(ctx, e)


def test_coeffs_round_trip():
    ctx = shared_context(12)
    coeffs = [Fraction(1, 2), 0, Fraction(-3, 4), 5]
    a = from_coeffs(ctx, coeffs)
    assert a.coeffs == (Fraction(1, 2), Fraction(0), Fraction(-3, 4), Fraction(5))


def test_render():
    c3 = shared_context(3)
    assert zero(c3).render() == "0"
    assert (c3.from_rational(Fraction(-1, 3))).render() == "-1/3"
    assert c3.from_rational(Fraction(14, 4)).render() == "7/2"
    assert c3.from_rational(-5).render() == "-5"
    assert (c3.from_rational(2) + zeta_pow(c3, 1)).render() == "2 + z"
    assert (zeta_pow(c3, 1) * -1).render() == "-z"


def test_only_cyclotomic_reads_the_terms_of_phi():
    # one division by Phi_n: every other module goes through _reduce
    package = Path(cyclotomic.__file__).parent
    pattern = r"\b(_phi_terms|_terms|_divide)\b"
    readers = {p.name for p in package.glob("*.py") if re.search(pattern, p.read_text())}
    assert readers == {"cyclotomic.py"}
    assert not hasattr(CycloContext, "_pow")

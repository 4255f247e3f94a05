import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cyclodet import polynomials
from cyclodet.cyclotomic import (CycloContext, CycloElem, _generators, _pack, _phi_modulus,
                                 shared_context)
from cyclodet.identities import MatrixKind, residue_vectors
from cyclodet.polynomials import CPoly, partial_fraction_check, row_sum_x_check

from helpers import (cleared_sums, from_coeffs, one, poly_add, poly_shift, random_element,
                     table_twisted_sums, zero, zeta_pow)


def test_mul_difference_of_squares():
    ctx = shared_context(3)
    assert CPoly(ctx, [-1, 1]) * CPoly(ctx, [1, 1]) == CPoly(ctx, [-1, 0, 1])


def test_mul_by_zero():
    ctx = shared_context(3)
    p = CPoly(ctx, [1, 2, 3])
    assert p * CPoly(ctx) == CPoly(ctx) == CPoly(ctx) * p
    assert not (p * CPoly(ctx)).coeffs


def test_mul_with_root_coefficients():
    # (1 - z*x)(1 - z^2*x) = 1 + x + x^2 over Q(zeta_3)
    ctx = shared_context(3)
    p = CPoly(ctx, [1, zeta_pow(ctx, 1) * -1])
    q = CPoly(ctx, [1, zeta_pow(ctx, 2) * -1])
    assert p * q == CPoly(ctx, [1, 1, 1])


def test_degree_additivity():
    ctx = shared_context(5)
    rng = random.Random(1)
    for _ in range(20):
        dp, dq = rng.randint(0, 4), rng.randint(0, 4)
        p = CPoly(ctx, [rng.randint(-3, 3) for _ in range(dp)] + [rng.randint(1, 3)])
        q = CPoly(ctx, [rng.randint(-3, 3) for _ in range(dq)] + [rng.randint(1, 3)])
        assert len((p * q).coeffs) == len(p.coeffs) + len(q.coeffs) - 1  # degrees add


def test_scale_and_shift():
    # a constant factor scales every coefficient, and the shift helper the
    # references use is the product by a power of x
    ctx = shared_context(4)
    p = CPoly(ctx, [1, 2])
    assert p * Fraction(1, 2) == Fraction(1, 2) * p == CPoly(ctx, [Fraction(1, 2), 1])
    assert not (p * 0).coeffs
    assert poly_shift(p, 2) == CPoly(ctx, [0, 0, 1, 2]) == p * CPoly(ctx, [0, 0, 1])
    assert poly_shift(p, 0) == p and not poly_shift(CPoly(ctx), 3).coeffs


def test_coefficients_reject_floats():
    ctx = shared_context(3)
    with pytest.raises(TypeError):
        CPoly(ctx, [0.1])


def _direct_product(ctx, exclude=()):
    # the product of (1 - x*zeta^r) over r in 0..n-1 outside exclude, each
    # linear factor multiplied in by CPoly.__mul__
    acc = CPoly(ctx, [1])
    for r in range(ctx.n):
        if r not in exclude:
            acc = acc * CPoly(ctx, [1, zeta_pow(ctx, r) * -1])
    return acc


@pytest.mark.parametrize("n", range(2, 41))
def test_full_product_is_one_minus_x_to_n(n):
    # the factorisation that the partial-fraction expansion rests on
    ctx = shared_context(n)
    target = CPoly(ctx, [1] + [0] * (n - 1) + [-1])
    assert _direct_product(ctx) == target


def test_product_excluding_zero():
    # dividing 1 - x^3 by 1 - x must recover the excluded-0 product
    ctx = shared_context(3)
    candidate = _direct_product(ctx, exclude={0})
    assert candidate * CPoly(ctx, [1, -1]) == _direct_product(ctx)
    assert candidate == CPoly(ctx, [1, 1, 1])


def test_product_excluding_all():
    ctx = shared_context(3)
    assert _direct_product(ctx, exclude={0, 1, 2}) == CPoly(ctx, [1])


def test_partial_fraction_hand_expansion():
    # at n=3, s=0 the cleared left side is (x-1)(2+x) = x^2 + x - 2
    ctx = shared_context(3)
    lhs = CPoly(ctx)
    for r in (1, 2):
        lhs = poly_add(lhs, _direct_partial_product(ctx, r) * zeta_pow(ctx, 0))
    lhs = lhs * CPoly(ctx, [-1, 1])
    assert lhs == CPoly(ctx, [-2, 1, 1])
    assert lhs == poly_add(CPoly(ctx, [1, 1, 1]), CPoly(ctx, [1]) * -3)
    assert CPoly(ctx, cleared_sums(ctx)[0]) == lhs
    assert partial_fraction_check(ctx)[0]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_partial_fraction_all_s(n):
    assert partial_fraction_check(shared_context(n)) == [True] * n


@pytest.mark.parametrize("n", [2, 3, 5])
def test_row_sum_x_all_k_s(n):
    assert row_sum_x_check(shared_context(n)) == [[True] * n] * n


def _direct_partial_product(ctx, r):
    return _direct_product(ctx, exclude={0, r})


def _direct_partial_fraction_term(ctx, r):
    return _direct_partial_product(ctx, r) * CPoly(ctx, [-1, 1])


def _direct_row_sum_x_term(ctx, r):
    numer = CPoly(ctx, [1, zeta_pow(ctx, r)])
    return numer * _direct_partial_fraction_term(ctx, r)


def _direct_twisted_sums(ctx, term):
    # the twisted sums of the table [0, term(ctx, 1), ..., term(ctx, n - 1)]
    # of directly multiplied polynomials, by the field loop _direct_row_sum
    table = [CPoly(ctx)] + [term(ctx, r) for r in range(1, ctx.n)]
    return [_direct_row_sum(ctx, table, 1, s, CPoly(ctx), poly_add) for s in range(ctx.n)]


def _direct_cleared_sums(ctx):
    # the twisted sums of the directly multiplied cleared terms Q_r
    return _direct_twisted_sums(ctx, _direct_partial_fraction_term)


def _assert_cleared_sums_are_direct(ctx):
    # _cleared_sums gives the twisted sums of the directly multiplied Q_r, as
    # n x-coefficients each; and the twisted sums of the directly multiplied
    # row-sum-x summands are S[s] + x*S[s - 1], with S those sums
    cleared = cleared_sums(ctx)
    assert len(cleared) == ctx.n and all(len(c) == ctx.n for c in cleared)
    sums = [CPoly(ctx, coeffs) for coeffs in cleared]
    assert sums == _direct_cleared_sums(ctx)
    direct = _direct_twisted_sums(ctx, _direct_row_sum_x_term)
    for s in range(ctx.n):
        assert direct[s] == poly_add(sums[s], poly_shift(sums[s - 1], 1))


@pytest.mark.parametrize("n", range(2, 10))
def test_tables_equal_direct_products(n):
    _assert_cleared_sums_are_direct(shared_context(n))


def test_cached_tables_from_a_fresh_context():
    ctx = CycloContext(7)
    assert ctx is not shared_context(7)
    assert row_sum_x_check(ctx) == [[True] * 7] * 7
    assert partial_fraction_check(ctx) == [True] * 7
    _assert_cleared_sums_are_direct(ctx)


def _coefficientwise_sums(table):
    # the twisted sums of a table of CPolys, one table_twisted_sums call per
    # x-coefficient table
    ctx = table[0].ctx
    width = max(len(p.coeffs) for p in table)
    columns = [table_twisted_sums([p.coeffs[j] if j < len(p.coeffs) else zero(ctx) for p in table])
               for j in range(width)]
    return [CPoly(ctx, [column[s] for column in columns]) for s in range(ctx.n)]


@pytest.mark.parametrize("n", range(2, 10))
def test_twist_by_one_plus_x_zeta_is_a_shift_of_s(n):
    # for any table t, the twisted sums of (1 + x*zeta^r) t_r, each formed by
    # CPoly.__mul__, are S[s] + x*S[s - 1] with S the twisted sums of t
    ctx = shared_context(n)
    rng = random.Random(100 + n)
    table = [CPoly(ctx, [random_element(ctx, rng) for _ in range(rng.randint(0, 3))])
             for _ in range(n)]
    twisted = [CPoly(ctx, [1, zeta_pow(ctx, r)]) * t for r, t in enumerate(table)]
    sums, direct = _coefficientwise_sums(table), _coefficientwise_sums(twisted)
    for s in range(n):
        assert direct[s] == poly_add(sums[s], poly_shift(sums[s - 1], 1))


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
def test_checks_compare_every_coordinate_of_a_coefficient(monkeypatch, n):
    # zeta more in the x^0 coefficient of every S[s] changes coordinate 1
    # only, and every verdict of both checks must see it
    real = polynomials._cleared_sums

    def shifted(ctx):
        sums = real(ctx)
        for total in sums:
            total[0][1] += 1
        return sums

    monkeypatch.setattr(polynomials, "_cleared_sums", shifted)
    ctx = shared_context(n)
    assert partial_fraction_check(ctx) == [False] * n
    assert row_sum_x_check(ctx) == [[False] * n] * n


def test_each_check_builds_its_own_products(monkeypatch):
    # no state is kept between calls, so what a check builds does not depend
    # on which check ran before it on the same n
    built = []
    real = polynomials._cleared_sums

    def counting(ctx):
        built.append(ctx.n)
        return real(ctx)

    monkeypatch.setattr(polynomials, "_cleared_sums", counting)
    ctx = shared_context(6)
    for check in (row_sum_x_check, row_sum_x_check, partial_fraction_check,
                  partial_fraction_check, row_sum_x_check):
        built.clear()
        check(ctx)
        assert built == [6]


def _direct_row_sum(ctx, table, k, s, start, add=operator.add):
    # the twist as a full field product, not through mul_zeta_pow; the
    # entries may be field elements or CPolys, with the matching zero and sum
    acc = start
    for j in range(1, ctx.n + 1):
        if j != k:
            acc = add(acc, table[(j - k) % ctx.n] * zeta_pow(ctx, -s * (j - k)))
    return acc


def _random_table(ctx, rng, entry, first):
    # random entries after a nonzero t[0] (which must be ignored), with one
    # zero entry when n > 2; random_element mixes denominators 1..3
    table = [first] + [entry() for _ in range(1, ctx.n)]
    if ctx.n > 2:
        table[rng.randrange(1, ctx.n)] *= 0
    return table


@pytest.mark.parametrize("n", range(2, 16))
def test_twisted_sums_match_a_direct_loop(n):
    # entry s is every row k's sum: the reindexing r = (j - k) mod n
    ctx = shared_context(n)
    rng = random.Random(n)
    table = _random_table(ctx, rng, lambda: random_element(ctx, rng),
                          ctx.from_rational(Fraction(5, 7)))
    sums = table_twisted_sums(table)
    assert len(sums) == n
    for k in range(1, n + 1):
        for s in range(n):
            assert sums[s] == _direct_row_sum(ctx, table, k, s, zero(ctx))


@pytest.mark.parametrize("n", range(2, 16))
@pytest.mark.parametrize("bits", [1, 5, 64])
@pytest.mark.parametrize("sign", [1, -1])
def test_twisted_sums_at_the_slot_width(n, bits, sign):
    # every lifted coordinate is sign * (2^bits - 1), so at s = 0 a digit of
    # the sum is (n - 1)(2^bits - 1), as wide as the slot width allows
    ctx = shared_context(n)
    table = [from_coeffs(ctx, [sign * (2 ** bits - 1)] * ctx.degree)] * n
    sums = table_twisted_sums(table)
    for s in range(n):
        assert sums[s] == _direct_row_sum(ctx, table, 1, s, zero(ctx))


@pytest.mark.parametrize("n", range(2, 8))
def test_twisted_sums_of_zero_tables(n):
    ctx = shared_context(n)
    assert table_twisted_sums([zero(ctx)] * n) == [zero(ctx)] * n
    unit = [one(ctx)] + [zero(ctx)] * (n - 1)  # t[0] is skipped
    assert table_twisted_sums(unit) == [zero(ctx)] * n


@pytest.mark.parametrize("n", range(2, 7))
def test_products_equal_their_multiplied_factors(n):
    # the expansion behind the slot bound of _cleared_sums: the x^j
    # coefficient of a product of linear factors is (-1)^j times the sum of
    # the C(m, j) monomials zeta^(r_1 + ... + r_j) over j of the m kept r
    ctx = shared_context(n)
    for size in range(n + 1):
        for exclude in combinations(range(n), size):
            kept = [r for r in range(n) if r not in exclude]
            expanded = [sum((zeta_pow(ctx, sum(rs)) for rs in combinations(kept, j)),
                            zero(ctx)) * (-1) ** j for j in range(len(kept) + 1)]
            assert _direct_product(ctx, exclude=set(exclude)) == CPoly(ctx, expanded)


@pytest.mark.parametrize("n", range(2, 41))
def test_rational_sums_read_the_bound_exactly(n):
    # n - 1 equal vectors b*e_0: S_0 = (n - 1) b is the bound itself and
    # S_s = -b for s > 0, for b across several jumps of the modulus
    ctx = shared_context(n)
    for b in (*range(1, 70), 2 ** 20 + 1, 3 ** 40):
        vectors = [[b] + [0] * (n - 1) for _ in range(n - 1)]
        sums = polynomials._rational_twisted_sums(ctx, vectors)
        assert sums == [(n - 1) * b] + [-b] * (n - 1), b
        assert all(type(t) is int for t in sums), b


def test_rational_sums_refuse_a_table_fixed_by_one_generator_only():
    # zeta + zeta^3 at n = 8 is fixed by sigma_3 but not by sigma_5, so the
    # table of 7 copies passes the first generator and fails the second;
    # its sums are not rational
    ctx = shared_context(8)
    assert _generators(8) == (3, 5)
    vectors = [[0, 1, 0, 1, 0, 0, 0, 0] for _ in range(7)]
    assert polynomials._rational_twisted_sums(ctx, vectors) is None
    sums = polynomials._twisted_vector_sums(ctx, vectors, 1)
    assert sums[0].as_rational() is None


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8, 9, 12, 15, 16])
def test_rational_sums_refuse_a_table_broken_at_any_vector(n):
    # the a table is equivariant; zeta added to any one V_r breaks
    # sigma_t(V_r) = V_(tr) for every generator t, whether the check meets
    # it at V_1 or in the later vectors
    ctx = shared_context(n)
    _, vectors = residue_vectors(MatrixKind.A, n)
    assert polynomials._rational_twisted_sums(ctx, vectors) is not None
    for r in range(1, n):
        broken = [list(v) for v in vectors]
        broken[r - 1][1] += 1
        assert polynomials._rational_twisted_sums(ctx, broken) is None, r


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 25, 30, 105])
def test_phi_modulus_is_the_least_above_twice_the_bound(n):
    # the modulus the read-out takes for each kind's table, and for limits
    # of every size: m = Phi_n(2^j) > limit, and Phi_n(2^(j-1)) is not
    ctx = shared_context(n)
    kinds = [kind for kind in MatrixKind if kind is not MatrixKind.S19 or n % 2]
    bounds = [sum(sum(map(abs, v)) for v in residue_vectors(kind, n)[1]) for kind in kinds]
    for limit in (*(2 * b for b in bounds), 0, 1, 2, 3, 100, 2 ** 64, 2 ** 64 + 1, 3 ** 200):
        j, m = _phi_modulus(ctx, limit)
        assert m == _pack(ctx.phi, j) > limit, limit
        assert j == 1 or _pack(ctx.phi, j - 1) <= limit, limit


def test_kernels_make_no_field_operation(monkeypatch):
    ctx = shared_context(12)
    rng = random.Random(12)
    elements = [random_element(ctx, rng) for _ in range(12)]
    expected = ([_direct_row_sum(ctx, elements, 1, s, zero(ctx)) for s in range(12)],
                _direct_cleared_sums(ctx))

    def refuse(*args):
        raise AssertionError("field operation in a packed kernel")

    for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                 "mul_zeta_pow"):
        monkeypatch.setattr(CycloElem, attr, refuse)
    computed = (table_twisted_sums(elements), cleared_sums(ctx))
    monkeypatch.undo()
    assert computed[0] == expected[0]
    assert [CPoly(ctx, coeffs) for coeffs in computed[1]] == expected[1]


def test_render():
    ctx = shared_context(3)
    assert CPoly(ctx, [0, -4, 0, 1]).render() == "x^3 - 4*x"
    assert CPoly(ctx, [Fraction(2, 3)]).render() == "2/3"
    assert CPoly(ctx).render() == "0"
    # rational coefficients print as p or p/q, and a unit one as a bare power
    assert CPoly(ctx, [-1, Fraction(-6, 4), 0, -1]).render() == "-x^3 - 3/2*x - 1"
    assert CPoly(ctx, [Fraction(1, 2), 1, Fraction(-5)]).render() == "-5*x^2 + x + 1/2"
    assert CPoly(ctx, [0, Fraction(-1, 3), Fraction(1, 2)]).render() == "1/2*x^2 - 1/3*x"
    z = zeta_pow(ctx, 1)
    assert CPoly(ctx, [z, 2]).render() == "2*x + (z)"


def test_context_mismatch():
    p = CPoly(shared_context(3), [1])
    q = CPoly(shared_context(5), [1])
    with pytest.raises(ValueError):
        p * q

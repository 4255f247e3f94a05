import random
from fractions import Fraction
from math import comb

import pytest

from cyclodet import linalg
from cyclodet.cyclotomic import CycloElem, _generators, _pack, _unpack, shared_context
from cyclodet.identities import (MatrixKind, _cyclic_minor, build_matrix, circulant,
                                 coprime_residues, residue_table)
from cyclodet.linalg import CMatrix, _equivariant
from cyclodet.polynomials import CPoly

from helpers import (
    add_scalar,
    evaluate,
    from_coeffs,
    is_hermitian,
    minor_delete,
    mm_prime,
    non_circulant,
    one,
    perm_expansion_det,
    random_element,
    random_matrix,
    reference_charpoly,
    zero,
    zeta_pow,
)


def _identity(ctx, dim):
    return CMatrix(ctx, [[1 if r == c else 0 for c in range(dim)] for r in range(dim)])


def ctx3():
    return shared_context(3)


def ctx5():
    return shared_context(5)


def test_det_identity():
    ctx = ctx3()
    assert _identity(ctx, 2).det() == 1


def test_det_empty_matrix():
    ctx = ctx3()
    assert CMatrix(ctx, []).det() == 1


def test_det_rejects_non_square():
    ctx = ctx3()
    m = CMatrix(ctx, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        m.det()


def test_det_singular_is_zero():
    ctx = ctx3()
    m = CMatrix(ctx, [[1, 2], [2, 4]])
    assert m.det() == 0


def test_det_ratio_matrix_small():
    ctx = ctx3()
    a2 = build_matrix(MatrixKind.A, ctx, 2)
    assert a2.det() == Fraction(-1, 3)
    assert perm_expansion_det(a2) == Fraction(-1, 3)


def test_perm_expansion_matches_det():
    rng = random.Random(0)
    ctx = ctx5()
    for _ in range(10):
        dim = rng.randint(1, 4)
        m = random_matrix(ctx, rng, dim)
        assert perm_expansion_det(m) == m.det()
    zero = CMatrix(ctx, [[0] * 3 for _ in range(3)])
    assert perm_expansion_det(zero) == 0


def _product(a, b):
    return CMatrix(a.ctx, [[sum((a[i, k] * b[k, j] for k in range(a.cols)), zero(a.ctx))
                            for j in range(b.cols)] for i in range(a.rows)])


def test_det_multiplicative():
    rng = random.Random(1)
    ctx = ctx5()
    for _ in range(8):
        a = random_matrix(ctx, rng, 3)
        b = random_matrix(ctx, rng, 3)
        assert _product(a, b).det() == a.det() * b.det()


def test_charpoly_examples():
    ctx = ctx3()
    two_c = build_matrix(MatrixKind.TWO_C, ctx, 3)
    assert two_c.charpoly() == CPoly(ctx, [0, -4, 0, 1])  # x^3 - 4x
    ident = _identity(ctx, 2)
    assert ident.charpoly() == CPoly(ctx, [1, -2, 1])  # (x - 1)^2
    c1 = build_matrix(MatrixKind.C_PLUS_I, ctx, 3)
    assert c1.charpoly() == CPoly(ctx, [0, 1]) * CPoly(ctx, [-1, 1]) * CPoly(ctx, [-2, 1])


def test_charpoly_at_zero_is_signed_det():
    rng = random.Random(2)
    ctx = ctx5()
    for _ in range(10):
        dim = rng.randint(1, 4)
        m = random_matrix(ctx, rng, dim)
        assert m.charpoly().coeffs[0] == m.det() * (-1) ** dim


def _shapes(ctx, rng, dim):
    """A dense, a sparse, an upper and a lower triangular random matrix."""
    dense = random_matrix(ctx, rng, dim)
    sparse = CMatrix(ctx, [[dense[r, c] if rng.random() < 0.3 else 0 for c in range(dim)]
                           for r in range(dim)])
    upper = CMatrix(ctx, [[dense[r, c] if c >= r else 0 for c in range(dim)]
                          for r in range(dim)])
    lower = CMatrix(ctx, [[dense[r, c] if c <= r else 0 for c in range(dim)]
                          for r in range(dim)])
    return dense, sparse, upper, lower


def _shifted(m, c):
    """c*I - M."""
    return CMatrix(m.ctx, [[(c if r == k else 0) - m[r, k] for k in range(m.cols)]
                           for r in range(m.rows)])


@pytest.mark.parametrize("dim", range(7))
def test_charpoly_matches_det_at_rational_points(dim):
    # dim + 1 distinct points pin a polynomial of degree dim
    rng = random.Random(10 + dim)
    ctx = ctx5()
    points = [Fraction(k, 3) for k in rng.sample(range(-20, 21), dim + 1)]
    for m in _shapes(ctx, rng, dim):
        p = m.charpoly()
        assert len(p.coeffs) - 1 == dim and p.coeffs[-1] == 1
        for c in points:
            assert evaluate(p, c) == _shifted(m, c).det()


def _kind_matrices(n):
    """Every kind's full matrix at n and its first cyclic minor (s19 only
    where 1 + zeta^u never vanishes)."""
    ctx = shared_context(n)
    for kind in MatrixKind:
        if kind is MatrixKind.S19 and n % 2 == 0:
            continue
        full = build_matrix(kind, ctx, n)
        yield full
        yield _cyclic_minor(full, 1)


def _no_unpack(*args):
    raise AssertionError("the cyclic ring was taken")


@pytest.mark.parametrize("n", range(2, 16))
def test_charpoly_matches_field_berkowitz_on_every_kind(n, monkeypatch):
    # every kind's matrix and minor is Galois-equivariant, so its charpoly
    # runs in the rational ring Z/Phi_n(2^j) and never unpacks a slot
    matrices = list(_kind_matrices(n))
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_unpack", _no_unpack)
        polys = [m.charpoly() for m in matrices]
    for m, p in zip(matrices, polys):
        assert _equivariant(m)
        assert p == reference_charpoly(m)


def test_generators_generate_the_unit_group():
    # and a cyclic group gets one primitive root; the trivial one at n = 2 none
    for n in range(2, 101):
        gens = _generators(n)
        group = {1}
        while True:
            grown = group | {g * t % n for g in group for t in gens}
            if grown == group:
                break
            group = grown
        units = coprime_residues(n)
        assert sorted(group) == units, n
        cyclic = any(len({pow(t, e, n) for e in range(len(units))}) == len(units) for t in units)
        assert len(gens) == (n > 2) if cyclic else len(gens) >= 2, n


def test_equivariance_refuses_a_table_that_is_not_equivariant():
    # t[1] = zeta: sigma_t(t[1]) = zeta^t, not t[t]
    for n in (5, 8, 9):
        ctx = shared_context(n)
        table = list(residue_table(MatrixKind.C_PLUS_I, ctx))
        table[1] = zeta_pow(ctx, 1)
        for size in (n - 1, n):
            m = circulant(ctx, table, size)
            assert not _equivariant(m)
            assert m.charpoly() == reference_charpoly(m)


def test_equivariance_checks_every_generator():
    # alpha = zeta + zeta^3 at n = 8 is fixed by sigma_3 but sent to -alpha
    # by sigma_5, so alpha*I is refused only by the second generator
    ctx = shared_context(8)
    assert _generators(8) == (3, 5)
    alpha = zeta_pow(ctx, 1) + zeta_pow(ctx, 3)
    assert alpha.galois(3) == alpha and alpha.galois(5) != alpha
    m = CMatrix(ctx, [[alpha if r == c else 0 for c in range(8)] for r in range(8)])
    assert not _equivariant(m)
    assert m.charpoly() == reference_charpoly(m)


def test_equivariance_refuses_a_non_circulant_matrix_and_other_sizes():
    m = non_circulant(5)
    assert not _equivariant(m)
    assert not _equivariant(CMatrix(shared_context(7), [[1] * 5 for _ in range(5)]))
    assert m.charpoly() == reference_charpoly(m)


@pytest.mark.parametrize("n", [2, 3])
def test_rational_ring_reads_coefficients_at_the_bound(n, monkeypatch):
    # c*I with c just below 2^100: the constant coefficient (-c)^d of the
    # charpoly comes within a factor 1 - 2^-48 of the Hadamard bound
    # 2^(k-1), so only a modulus above 2^k reads it back
    c = (1 << 100) - (1 << 50)
    ctx = shared_context(n)
    monkeypatch.setattr(linalg, "_unpack", _no_unpack)
    for dim in (n - 1, n):
        m = CMatrix(ctx, [[c if r == k else 0 for k in range(dim)] for r in range(dim)])
        expected = CPoly(ctx, [comb(dim, i) * (-c) ** (dim - i) for i in range(dim + 1)])
        assert m.charpoly() == expected == reference_charpoly(m)


@pytest.mark.parametrize("n", [5, 9, 10, 12])
def test_charpoly_matches_field_berkowitz_on_random_shapes(n):
    rng = random.Random(n)
    ctx = shared_context(n)
    for dim in (1, 2, 3, 5, 8):
        for m in _shapes(ctx, rng, dim):
            assert m.charpoly() == reference_charpoly(m)
    wide = [random_matrix(ctx, rng, 4, span=10 ** 30) for _ in range(2)]
    for m in wide:
        assert m.charpoly() == reference_charpoly(m)


def test_charpoly_of_empty_and_zero_matrices():
    ctx = ctx5()
    assert CMatrix(ctx, []).charpoly() == CPoly(ctx, [1])
    for dim in (1, 4):
        null = CMatrix(ctx, [[0] * dim for _ in range(dim)])
        assert null.charpoly() == CPoly(ctx, [0] * dim + [1])  # x^dim
    assert CMatrix(ctx, []).matvec([]) == []
    null = CMatrix(ctx, [[0] * 3 for _ in range(2)])
    assert null.matvec([zeta_pow(ctx, 1), 1, Fraction(1, 2)]) == [zero(ctx)] * 2


def test_charpoly_is_division_free(monkeypatch):
    # charpoly runs on packed ints, with no field product and no inverse,
    # and still equals the field Berkowitz on dense, sparse and triangular
    # shapes and on a full a matrix
    rng = random.Random(11)
    ctx = shared_context(12)
    matrices = [*_shapes(ctx, rng, 5), build_matrix(MatrixKind.A, ctx, 11)]

    def forbidden(*args):
        raise AssertionError("a field product or inverse was called")

    with monkeypatch.context() as patch:
        for name in ("__mul__", "__rmul__", "inverse"):
            patch.setattr(CycloElem, name, forbidden)
        polys = [m.charpoly() for m in matrices]
    for m, p in zip(matrices, polys):
        assert p == reference_charpoly(m)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 61])
@pytest.mark.parametrize("count", [1, 2, 7])
def test_pack_unpack_round_trip(k, count):
    # the ring Z/(2^(k*count) - 1) reads back every digit vector with
    # |c_j| < 2^(k-1) from any representative, negative ones included
    edge, inner = (1 << (k - 1)) - 1, max((1 << k >> 2) - 1, 0)  # 2^(k-1) - 1, 2^(k-2) - 1
    m = (1 << (k * count)) - 1
    rng = random.Random(k * 100 + count)
    digits = [[0] * count, [edge] * count, [-edge] * count, [inner] * count, [-inner] * count,
              [rng.randint(-edge, edge) for _ in range(count)],
              [edge if j % 2 else -edge for j in range(count)]]
    for c in digits:
        packed = _pack(c, k)
        for value in (packed, packed % m, packed - m, packed + 3 * m, packed - 5 * m):
            assert _unpack(value, k, count) == c


def test_unpack_folds_high_digits():
    # x^count = 1 in the ring: a digit past the last slot adds onto slot 0
    k = 6
    assert _unpack(_pack([1, -2, 3, 4, -5], k), k, 3) == [1 + 4, -2 - 5, 3]


def test_matvec_coerces_and_checks_entries():
    ctx = ctx5()
    m = CMatrix(ctx, [[1, zeta_pow(ctx, 1)], [Fraction(1, 2), 0]])
    assert m.matvec([2, Fraction(1, 3)]) == [2 + zeta_pow(ctx, 1) * Fraction(1, 3), one(ctx)]
    with pytest.raises(ValueError):
        m.matvec([1, zeta_pow(shared_context(7), 1)])
    with pytest.raises(TypeError):
        m.matvec([1, 0.5])


def test_matvec_identity():
    ctx = ctx3()
    v = [zeta_pow(ctx, 1), one(ctx), zeta_pow(ctx, 2)]
    assert _identity(ctx, 3).matvec(v) == v


def test_matvec_eigen_relation():
    # with entries keyed on row-col, v(s=1) pairs with eigenvalue 2s-n = -1;
    # the transpose (entrywise conjugate here) carries the mirrored label n-2s
    ctx = ctx3()
    a = build_matrix(MatrixKind.A, ctx, 3)
    v1 = [zeta_pow(ctx, -k) for k in range(1, 4)]
    assert a.matvec(v1) == [vk * (-1) for vk in v1]
    transpose = CMatrix(ctx, [[a[c, r] for c in range(3)] for r in range(3)])
    assert transpose.matvec(v1) == [vk * 1 for vk in v1]


def test_matvec_all_ones_in_kernel():
    ctx = ctx3()
    a = build_matrix(MatrixKind.A, ctx, 3)
    ones = [one(ctx)] * 3
    assert a.matvec(ones) == [zero(ctx)] * 3


def test_matvec_shape_mismatch():
    ctx = ctx3()
    with pytest.raises(ValueError):
        _identity(ctx, 2).matvec([one(ctx)])


def test_hermitian_builders():
    c5 = ctx5()
    assert is_hermitian(build_matrix(MatrixKind.A, c5, 5))
    assert is_hermitian(build_matrix(MatrixKind.C_HOLLOW, c5, 5))


def test_hermitian_rejects_generic():
    ctx = ctx3()
    m = CMatrix(ctx, [[1, 2], [3, 4]])
    assert not is_hermitian(m)
    assert not is_hermitian(CMatrix(ctx, [[1, 2, 3], [4, 5, 6]]))


def test_minor_delete_matches_truncated_builder():
    c5 = ctx5()
    full = build_matrix(MatrixKind.A, c5, 5)
    assert minor_delete(full, 5) == build_matrix(MatrixKind.A, c5, 4)


def test_minor_delete_bookkeeping():
    ctx = ctx3()
    m = CMatrix(ctx, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert minor_delete(m, 2) == CMatrix(ctx, [[1, 3], [7, 9]])
    assert minor_delete(minor_delete(m, 1), 1) == CMatrix(ctx, [[9]])


def test_minor_delete_to_empty():
    ctx = ctx3()
    m = CMatrix(ctx, [[5]])
    assert minor_delete(m, 1).det() == 1


def test_mm_prime_examples():
    ctx = ctx3()
    swap = CMatrix(ctx, [[0, 1], [1, 0]])
    assert mm_prime(swap) == CMatrix(ctx, [[-2]])
    const = CMatrix(ctx, [[7] * 3 for _ in range(3)])
    assert mm_prime(const) == CMatrix(ctx, [[0, 0], [0, 0]])


def test_mm_prime_of_ratio_matrix_is_skew():
    c5 = ctx5()
    a4 = build_matrix(MatrixKind.A, c5, 4)
    prime = mm_prime(a4)
    for j in range(prime.rows):
        for k in range(prime.cols):
            assert prime[j, k] + prime[k, j] == 0


def test_det_affine_swap_example():
    ctx = ctx3()
    swap = CMatrix(ctx, [[0, 1], [1, 0]])
    d0, d1 = swap.det_affine()
    assert (d0, d1) == (ctx.from_rational(-1), ctx.from_rational(-2))
    for x in (0, 1, -1, 2, Fraction(1, 2)):
        assert add_scalar(swap, x).det() == d0 + d1 * x


def test_det_affine_matches_direct_evaluation():
    rng = random.Random(3)
    ctx = ctx5()
    for _ in range(5):
        m = random_matrix(ctx, rng, 3)
        d0, d1 = m.det_affine()
        for x in (0, 1, -1, 2, Fraction(1, 2)):
            assert add_scalar(m, x).det() == d0 + d1 * x


def test_det_affine_dimension_one():
    ctx = ctx3()
    m = CMatrix(ctx, [[Fraction(5, 2)]])
    assert m.det_affine() == (ctx.from_rational(Fraction(5, 2)), one(ctx))  # 5/2 + x
    assert CMatrix(ctx, [[0]]).det_affine() == (zero(ctx), one(ctx))
    assert CMatrix(ctx, []).det_affine() == (one(ctx), zero(ctx))


def test_matrix_entries_and_shift_reject_floats():
    ctx = ctx3()
    with pytest.raises(TypeError):
        CMatrix(ctx, [[0.1]])
    d0, d1 = CMatrix(ctx, [[1]]).det_affine()
    with pytest.raises(TypeError):
        d0 + d1 * 0.1  # the det --x evaluation d0 + d1*x


def test_det_affine_ratio_matrix_x_independent():
    c5 = ctx5()
    a4 = build_matrix(MatrixKind.A, c5, 4)
    _, d1 = a4.det_affine()
    assert d1 == 0


def test_det_affine_unit_diagonal_ratio():
    ctx = ctx3()
    b2 = build_matrix(MatrixKind.B, ctx, 2)
    d0, d1 = b2.det_affine()
    assert d0 == Fraction(2, 3)
    assert d1 == 2


def _from_bordered(ctx, block, c, r, corner):
    """The matrix whose det_affine bordered matrix at x = 0 is
    [[block, c], [r, corner]]."""
    dim = len(block) + 1
    top = [corner] + [rk + corner for rk in r]
    rows = [top]
    for j in range(1, dim):
        mj0 = c[j - 1] + corner
        rows.append([mj0] + [block[j - 1][k - 1] + mj0 + top[k] - corner
                             for k in range(1, dim)])
    return CMatrix(ctx, rows)


def _affine_cases(ctx, rng, dim):
    """Dense and sparse random matrices, and the edge cases of the one
    elimination: equal mm_prime rows (singular leading block), a singular
    matrix, a zero first column, and a leading block whose first column is
    zero, so the last row is the first pivot."""
    dense = random_matrix(ctx, rng, dim)
    rows = [[dense[r, c] for c in range(dim)] for r in range(dim)]
    cases = [dense, CMatrix(ctx, [[e if rng.random() < 0.3 else 0 for e in row]
                                  for row in rows])]
    if dim >= 3:
        shift = random_element(ctx, rng)
        cases.append(CMatrix(ctx, [*rows[:2], [e + shift for e in rows[1]], *rows[3:]]))
    cases.append(CMatrix(ctx, [*rows[:-1], [sum((row[k] for row in rows[:-1]), zero(ctx))
                                            for k in range(dim)]]))
    cases.append(CMatrix(ctx, [[0, *row[1:]] for row in rows]))
    if dim >= 2:
        block = [[0, *row[1:dim - 1]] for row in rows[:dim - 1]]
        r = [one(ctx), *rows[-1][1:dim - 1]]
        cases.append(_from_bordered(ctx, block, [row[-1] for row in rows[:-1]], r,
                                    rows[-1][-1]))
    return cases


@pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 12])
@pytest.mark.parametrize("dim", range(1, 8))
def test_det_affine_matches_two_eliminations(n, dim):
    rng = random.Random(100 * n + dim)
    ctx = shared_context(n)
    for m in _affine_cases(ctx, rng, dim):
        d0, d1 = m.det_affine()
        assert d0 == m.det()
        assert d1 == (mm_prime(m).det() if dim > 1 else 1)
        for x in (Fraction(-2), Fraction(1, 3), Fraction(7, 2)):
            assert add_scalar(m, x).det() == d0 + d1 * x
        if dim <= 6:
            assert m.det() == perm_expansion_det(m)


def test_bordered_cases_take_the_last_row_early():
    # the leading block of the last case has a zero first column, so its
    # determinant is 0 while M itself need not be singular
    rng = random.Random(7)
    ctx = ctx5()
    m = _affine_cases(ctx, rng, 4)[-1]
    assert mm_prime(m).det() == 0
    assert m.det_affine() == (m.det(), 0)
    assert m.det() != 0


@pytest.mark.parametrize("dim", [3, 5, 7])
def test_det_affine_is_one_elimination(dim, monkeypatch):
    # an elimination of a nonsingular d x d matrix inverts one pivot per
    # column but the last; two eliminations (M and mm_prime) would make 2d - 3
    rng = random.Random(dim)
    ctx = ctx5()
    m = random_matrix(ctx, rng, dim)
    assert m.det() != 0
    calls = []
    inverse = CycloElem.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(CycloElem, "inverse", counting)
    m.det_affine()
    assert len(calls) == dim - 1


def test_skew_symmetric_odd_dimension_det_zero():
    rng = random.Random(4)
    ctx = ctx5()
    for dim in (1, 3, 5):
        for _ in range(3):
            entries = [[zero(ctx)] * dim for _ in range(dim)]
            for j in range(dim):
                for k in range(j + 1, dim):
                    e = from_coeffs(ctx, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                          for _ in range(ctx.degree)])
                    entries[j][k] = e
                    entries[k][j] = e * -1
            assert CMatrix(ctx, entries).det() == 0

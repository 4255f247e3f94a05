import pickle
import random
from fractions import Fraction

import pytest

from cyclodet import cyclotomic, identities, linalg, polynomials
from cyclodet.cli import _grid_for, main
from cyclodet.cyclotomic import CycloElem, shared_context
from cyclodet.identities import (
    DET_KINDS,
    DETS,
    IDENTITIES,
    DetIdentity,
    IdentityInfo,
    IdentityReport,
    MatrixKind,
    a_det_value,
    b_det_value,
    build_matrix,
    c1_det_value,
    c_det_value,
    circulant,
    first_difference,
    kind_block_det,
    render,
    residue_table,
    residue_vectors,
    run_identity,
    s19_det_value,
    spectrum,
    spectrum_poly,
    tilde_a_det_value,
)
from cyclodet.linalg import CMatrix
from cyclodet.polynomials import CPoly

from helpers import (add_scalar, fraction_block_det, from_coeffs, inv_one_plus_zeta, is_hermitian,
                     minor_delete, non_circulant, random_element, random_matrix,
                     reference_spectrum_poly, table_block_det, zero, zeta_pow)


def test_build_ratio_matrix_entries():
    # rows carry formula(row - col): [[0, -(1+z)/(1-z)], [(1+z)/(1-z), 0]]
    ctx = shared_context(3)
    z = zeta_pow(ctx, 1)
    ratio = (1 + z) * (1 - z).inverse()
    m = build_matrix(MatrixKind.A, ctx, 2)
    assert m[0, 0] == 0 and m[1, 1] == 0
    assert m[1, 0] == ratio
    assert m[0, 1] == ratio * -1
    # the same entry via the defining formula at zeta^2
    assert m[0, 1] == (1 + zeta_pow(ctx, 2)) * (1 - zeta_pow(ctx, 2)).inverse()


def test_build_diagonals():
    ctx = shared_context(5)
    assert all(build_matrix(MatrixKind.B, ctx, 5)[j, j] == 1 for j in range(5))
    assert all(build_matrix(MatrixKind.TILDE_A, ctx, 4)[j, j] == Fraction(1, 2)
               for j in range(4))
    assert all(build_matrix(MatrixKind.C_PLUS_I, ctx, 5)[j, j] == 1 for j in range(5))
    assert all(build_matrix(MatrixKind.S19, ctx, 4)[j, j] == 0 for j in range(4))


def test_build_two_c_doubles_hollow():
    ctx = shared_context(7)
    c = build_matrix(MatrixKind.C_HOLLOW, ctx, 7)
    two_c = build_matrix(MatrixKind.TWO_C, ctx, 7)
    assert all(two_c[j, k] == c[j, k] * 2 for j in range(7) for k in range(7))


def test_build_rejects_bad_size():
    ctx = shared_context(5)
    with pytest.raises(ValueError):
        build_matrix(MatrixKind.A, ctx, 3)


# kind: (entry at residue u as a function of z = zeta^u, diagonal)
ENTRY_FORMULAS = {
    MatrixKind.A: (lambda z: (1 + z) * (1 - z).inverse(), 0),
    MatrixKind.B: (lambda z: (1 + z) * (1 - z).inverse(), 1),
    MatrixKind.C_HOLLOW: (lambda z: (1 - z).inverse(), 0),
    MatrixKind.C_PLUS_I: (lambda z: (1 - z).inverse(), 1),
    MatrixKind.TILDE_A: (lambda z: (1 - z).inverse(), Fraction(1, 2)),
    MatrixKind.S19: (lambda z: (1 - z) * (1 + z).inverse(), 0),
    MatrixKind.TWO_C: (lambda z: 2 * (1 - z).inverse(), 0),
}


@pytest.mark.parametrize("kind", list(MatrixKind))
def test_build_matrix_matches_the_entry_formula(kind):
    # the formula divides through the norm inverse, once per residue u
    entry, diagonal = ENTRY_FORMULAS[kind]
    ns = range(3, 26, 2) if kind is MatrixKind.S19 else range(2, 26)
    for n in ns:
        ctx = shared_context(n)
        at = [None, *(entry(zeta_pow(ctx, u)) for u in range(1, n))]
        for size in (n - 1, n):
            want = CMatrix(ctx, [[diagonal if j == k else at[(j - k) % n]
                                  for k in range(size)] for j in range(size)])
            assert build_matrix(kind, ctx, size) == want, (n, size)


def test_inverted_ratio_kind_undefined_for_even_n():
    ctx = shared_context(4)
    with pytest.raises(ZeroDivisionError):
        build_matrix(MatrixKind.S19, ctx, 4)


def test_inv_one_plus_zeta():
    # the vector of n/(1 + zeta^u) over n, reduced once, is the inverse,
    # periodic in u, and refused exactly where 1 + zeta^u = 0 or u = 0
    for n in range(2, 41):
        ctx = shared_context(n)
        for u in range(n):
            if (2 * u) % n == 0:  # u = 0, or u = n/2 where 1 + zeta^u = 0
                for v in (u, u - n, u + n):
                    with pytest.raises(ZeroDivisionError):
                        inv_one_plus_zeta(ctx, v)
                continue
            closed = inv_one_plus_zeta(ctx, u)
            assert closed == (1 + zeta_pow(ctx, u)).inverse(), (n, u)
            assert inv_one_plus_zeta(ctx, u - n) == closed == inv_one_plus_zeta(ctx, u + n)


def test_tables_and_linear_factors_make_no_field_product(monkeypatch):
    # residue tables, the partial-fraction sums of linear-factor products and
    # spectrum polynomials take closed-form inverses, shifts, twists and
    # rational scalings only
    products = 0
    mul = CycloElem.__mul__

    def counting_mul(a, b):
        nonlocal products
        products += isinstance(b, CycloElem)
        return mul(a, b)

    monkeypatch.setattr(CycloElem, "__mul__", counting_mul)
    ctx = shared_context(5)
    assert zeta_pow(ctx, 1) * zeta_pow(ctx, 1) * 2 == zeta_pow(ctx, 2) * 2 and products == 1
    products = 0
    for n in range(2, 14):
        ctx = shared_context(n)
        for kind in MatrixKind:
            if kind is not MatrixKind.S19 or n % 2:
                residue_table(kind, ctx)
        polynomials._cleared_sums(ctx)
        for kind in (MatrixKind.A, MatrixKind.B, MatrixKind.C_PLUS_I, MatrixKind.TWO_C):
            spectrum_poly(ctx, spectrum(kind, n))
    assert products == 0


def test_spectrum_poly_matches_the_field_expansion():
    # mixed denominators with negative, zero and repeated roots
    ctx = shared_context(6)
    for roots in ([Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 4), Fraction(-2, 3), -3],
                  [0, 0, Fraction(-7, 6)], [Fraction(3, 10), Fraction(-1, 15), 2, 2],
                  [Fraction(-1, 2)] * 5, [7]):
        assert spectrum_poly(ctx, roots) == reference_spectrum_poly(ctx, roots), roots
    assert spectrum_poly(ctx, []) == CPoly(ctx, [1]) == reference_spectrum_poly(ctx, [])
    with pytest.raises(TypeError):
        spectrum_poly(ctx, [0.5])


def test_spectrum_poly_matches_the_field_expansion_on_every_claimed_spectrum():
    # the spectra of the charpoly rows (c1, two-c) and the eigen rows (a, b, c1)
    for n in range(2, 14):
        ctx = shared_context(n)
        kinds = [MatrixKind.C_PLUS_I, MatrixKind.TWO_C]
        if n % 2:
            kinds += [MatrixKind.A, MatrixKind.B]
        for kind in kinds:
            lams = spectrum(kind, n)
            assert spectrum_poly(ctx, lams) == reference_spectrum_poly(ctx, lams), (kind, n)


@pytest.mark.parametrize("kind", list(MatrixKind))
def test_all_builders_hermitian(kind):
    for n in (3, 5, 7):
        ctx = shared_context(n)
        assert is_hermitian(build_matrix(kind, ctx, n))
    if kind is not MatrixKind.S19:
        ctx = shared_context(6)
        assert is_hermitian(build_matrix(kind, ctx, 6))


def test_closed_form_values():
    assert a_det_value(3) == Fraction(-1, 3)
    assert a_det_value(5) == Fraction(9, 5)
    assert a_det_value(7) == Fraction(-225, 7)
    assert tilde_a_det_value(3) == Fraction(-1, 12)
    assert tilde_a_det_value(5) == Fraction(9, 80)
    assert c_det_value(3) == Fraction(-1, 3)
    assert c_det_value(5) == Fraction(4, 5)
    assert c_det_value(7) == Fraction(-36, 7)
    assert b_det_value(3) == Fraction(2, 3)
    assert c1_det_value(3) == Fraction(2, 3)
    assert s19_det_value(3) == -3
    assert s19_det_value(5) == 125
    assert s19_det_value(7) == -16807


@pytest.mark.parametrize("n,expect", [(3, "-1/3"), (5, "9/5"), (7, "-225/7")])
def test_a_det_spot_values(n, expect):
    report = run_identity("a-det", n)
    assert report.passed
    assert report.expected == f"(d0, d1) = ({expect}, 0)"
    assert report.identity == "a-det" and report.n == n


def test_a_det_with_oracle():
    report = run_identity("a-det", 5, oracle=True)
    assert report.passed and report.params["oracle"] is True
    assert "derangement sum 9/5" in report.computed


def test_oracle_cutoff_above_thirteen():
    # the exponential-cost cross-check runs to n = 13 and stays off past it
    # unless forced
    report = run_identity("a-det", 13, oracle=True)
    assert report.passed and report.params["oracle"] is True
    assert "derangement sum" in report.computed
    report = run_identity("a-det", 15, oracle=True)
    assert report.passed and report.params["oracle"] is False
    assert "derangement" not in report.computed


def test_oracle_cutoff_follows_the_guardrail(monkeypatch):
    # the cutoff is the derangement sum's own guardrail, read at call time
    monkeypatch.setattr("cyclodet.combinatorics.SIGNED_SUM_GUARDRAIL", 4)
    assert run_identity("a-det", 5, oracle=True).params["oracle"] is True
    assert run_identity("a-det", 7, oracle=True).params["oracle"] is False
    assert run_identity("a-det", 7, oracle=True, force=True).params["oracle"] is True


def test_a_det_rejects_even():
    with pytest.raises(ValueError):
        run_identity("a-det", 4)


def test_tilde_a_spot_values():
    assert run_identity("tilde-a-det", 3).computed == "-1/12"
    assert run_identity("tilde-a-det", 5).computed == "9/80"
    assert run_identity("tilde-a-det", 5).passed
    # scaling relation to the x-shifted ratio determinant at x = 1
    ctx = shared_context(7)
    shifted = add_scalar(build_matrix(MatrixKind.A, ctx, 6), 1)
    assert shifted.det() == tilde_a_det_value(7) * 2 ** 6


def test_c_det_spot_values():
    assert run_identity("c-det", 3).computed == "-1/3"
    r = run_identity("c-det", 5, oracle=True)
    assert r.passed and "4/5" in r.computed
    assert run_identity("c-det", 7).computed == "-36/7"


def test_b_det_spot_values():
    r3 = run_identity("b-det", 3)
    assert r3.passed and r3.computed == "(d0, d1) = (2/3, 2)"
    # x = 1 evaluation: (n+1) * d0
    ctx = shared_context(3)
    b2 = build_matrix(MatrixKind.B, ctx, 2)
    assert add_scalar(b2, 1).det() == 4 * b_det_value(3)


def test_c1_det_spot_value():
    r = run_identity("c1-det", 3)
    assert r.passed and r.computed == "2/3"


def test_s19_spot_values():
    assert run_identity("s19-det", 3).computed == "-3"
    assert run_identity("s19-det", 5).computed == "125"
    assert run_identity("s19-det", 7).computed == "-16807"
    with pytest.raises(ValueError):
        run_identity("s19-det", 4)


def test_c1_spectrum_small():
    r = run_identity("c1-spectrum", 3)
    assert r.passed
    assert r.computed == "x^3 - 3*x^2 + 2*x"  # x(x-1)(x-2)
    assert run_identity("c1-spectrum", 4).passed


def test_two_c_spectrum_small():
    assert run_identity("two-c-spectrum", 2).computed == "x^2 - 1"
    assert run_identity("two-c-spectrum", 3).computed == "x^3 - 4*x"
    r4 = run_identity("two-c-spectrum", 4)
    assert r4.passed  # (x+3)(x+1)(x-1)(x-3)


def test_two_c_spectrum_labels_are_eigenpairs():
    # the eigen-* verifiers cover a, b and c1; two-c is used as a multiset only
    for n in (2, 3, 4, 5):
        ctx = shared_context(n)
        matrix = build_matrix(MatrixKind.TWO_C, ctx, n)
        for s, lam in zip(range(1, n + 1), spectrum(MatrixKind.TWO_C, n)):
            v = [zeta_pow(ctx, -k * s) for k in range(1, n + 1)]
            assert matrix.matvec(v) == [vk * lam for vk in v]


@pytest.mark.parametrize("kind", [MatrixKind.A, MatrixKind.B, MatrixKind.C_PLUS_I])
def test_eigenpairs_pass(kind):
    for n in (3, 5):
        assert run_identity(f"eigen-{kind.value}", n).passed


@pytest.mark.parametrize("kind", [MatrixKind.A, MatrixKind.B, MatrixKind.C_PLUS_I])
def test_eigenpairs_full_grid(kind):
    for n in range(3, 14, 2):
        assert run_identity(f"eigen-{kind.value}", n).passed, f"n={n}"


def test_eigenpairs_c1_even_n():
    assert run_identity("eigen-c1", 4).passed


def test_eigenpairs_rejections():
    with pytest.raises(KeyError):
        run_identity("eigen-s19", 5)
    with pytest.raises(ValueError):
        run_identity("eigen-a", 4)


def test_eei_small():
    r = run_identity("eei-a", 3)
    assert r.passed
    assert r.expected == "[-1/3, -1/3, -1/3]"
    assert r.computed == "[-1/3, -1/3, -1/3]"
    assert run_identity("eei-b", 5).passed
    assert run_identity("eei-c1", 5).passed
    with pytest.raises(ValueError):
        run_identity("eei-a", 4)
    with pytest.raises(KeyError):
        run_identity("eei-two-c", 5)


def test_root_sums_spot_values():
    # direct sums at n=3: minus half gives (n-1)/2 - s, plus half ((-1)^s n - 1)/2
    ctx = shared_context(3)
    from cyclodet.cyclotomic import inv_one_minus_zeta

    minus_s0 = sum((inv_one_minus_zeta(ctx, r) for r in (1, 2)), zero(ctx))
    assert minus_s0 == 1
    minus_s1 = sum((inv_one_minus_zeta(ctx, r).mul_zeta_pow(-r) for r in (1, 2)),
                   zero(ctx))
    assert minus_s1 == 0
    plus_s1 = sum((inv_one_plus_zeta(ctx, r).mul_zeta_pow(-r) for r in (1, 2)),
                  zero(ctx))
    assert plus_s1 == -2
    assert run_identity("root-sums", 3).passed
    assert run_identity("root-sums", 6).passed  # even n runs the minus half only
    assert run_identity("root-sums", 6).params["checks"] == 6


def test_wrong_root_sums_vector_keeps_expected(monkeypatch):
    good = run_identity("root-sums", 7)
    real = identities._inv_one_minus_zeta_vector

    def wrong(n, r):
        v = real(n, r)
        if r == 2:
            v[3] += 1  # t[2] off by zeta^3/n: zeta^(3 - 2s)/n more in every sum
        return v

    monkeypatch.setattr(identities, "_inv_one_minus_zeta_vector", wrong)
    bad = run_identity("root-sums", 7)
    assert good.passed and not bad.passed
    assert bad.expected == good.expected
    assert bad.computed != good.computed
    assert bad.first_difference == "[0]"


@pytest.mark.parametrize("n", [2, 3, 6, 9, 16, 25])
def test_root_sums_reduce_once_per_sum(monkeypatch, n):
    # a table that is not Galois-equivariant (t[1] off by zeta/n) falls back
    # to the field route, which still reduces each of the n sums of the
    # minus half once and no entry; the plus half keeps the rational route.
    # (Z/2)^x is trivial, so at n = 2 every table is equivariant
    calls = []
    real, vector = cyclotomic._reduce, identities._inv_one_minus_zeta_vector

    def counting(ctx, v):
        calls.append(len(v))
        return real(ctx, v)

    def wrong(n, r):
        v = vector(n, r)
        if r == 1:
            v[1] += 1
        return v

    monkeypatch.setattr(cyclotomic, "_reduce", counting)
    monkeypatch.setattr(polynomials, "_reduce", counting)
    monkeypatch.setattr(identities, "_inv_one_minus_zeta_vector", wrong)
    assert not run_identity("root-sums", n).passed
    assert calls == ([n] * n if n > 2 else [])


def _refuse(*args):
    raise AssertionError("reduced mod Phi_n or unpacked")


def _recording_read_out(monkeypatch):
    """What each ``_rational_twisted_sums`` call returns, in call order."""
    returns, real = [], identities._rational_twisted_sums

    def record(*args):
        returns.append(real(*args))
        return returns[-1]

    monkeypatch.setattr(identities, "_rational_twisted_sums", record)
    return returns


@pytest.mark.parametrize("n", [2, 3, 6, 9, 16, 25])
def test_equivariant_sums_neither_reduce_nor_unpack(monkeypatch, n):
    # every kind's table and both root-sums halves are Galois-equivariant,
    # so each sum is read as one integer mod Phi_n(2^j)
    for module in (cyclotomic, polynomials, identities):
        for name in ("_reduce", "_unpack"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    returns = _recording_read_out(monkeypatch)
    for name in ("root-sums", "row-sums", *DETS):
        if IDENTITIES[name].admits(n):
            returns.clear()
            assert run_identity(name, n).passed, name
            assert returns and all(len(sums) == n and all(isinstance(t, Fraction) for t in sums)
                                   for sums in returns), name
    for kind in DET_KINDS.values():
        if kind is not MatrixKind.S19 or n % 2:  # 1 + zeta^(n/2) = 0 at even n
            d0, d1 = kind_block_det(kind, n)
            assert isinstance(d0, Fraction) and isinstance(d1, Fraction)


def _equivariant_tables(n):
    """The unreduced tables the rational read-out serves at n: every DETS
    kind's (kind a's is also the row-sums table) and both root-sums halves."""
    for kind in dict.fromkeys(det.kind for det in DETS.values()):
        if kind is not MatrixKind.S19 or n % 2:
            yield residue_vectors(kind, n)[1]
    yield [cyclotomic._inv_one_minus_zeta_vector(n, r) for r in range(1, n)]
    if n % 2:
        yield [cyclotomic._inv_one_plus_zeta_vector(n, r) for r in range(1, n)]


@pytest.mark.parametrize("n", [*range(2, 41), 195, 225])
def test_rational_sums_equal_the_reduced_sums_on_every_table(n):
    ctx = shared_context(n)
    for vectors in _equivariant_tables(n):
        got = polynomials._rational_twisted_sums(ctx, vectors, n)
        want = polynomials._twisted_vector_sums(ctx, vectors, 1, n)
        assert got == [coeffs[0].as_rational() for coeffs in want], n


def test_row_sums_spot_values():
    ctx = shared_context(5)
    a = build_matrix(MatrixKind.A, ctx, 5)
    # ratio(zeta^(j-k)) is the entry at row j, col k; weighted column sum
    # at k=1, s=2 equals n - 2s = 1
    k, s = 1, 2
    acc = zero(ctx)
    for j in range(1, 6):
        if j != k:
            acc = acc + a[j - 1, k - 1].mul_zeta_pow(s * (k - j))
    assert acc == 1
    assert run_identity("row-sums", 3).passed
    assert run_identity("row-sums", 4).passed


def test_polynomial_identity_verifiers():
    assert run_identity("partial-fraction", 5).passed
    assert run_identity("row-sum-x", 4).passed


@pytest.mark.parametrize("name,n", [("a-det", 5), ("c-det", 7), ("b-det", 3)])
def test_galois_invariance(name, n):
    report = run_identity(f"galois-{name}", n)
    assert report.passed
    assert report.params["automorphisms"] == n - 1  # prime n here


def test_galois_invariance_rejects_unknown():
    with pytest.raises(KeyError):
        run_identity("galois-s19-det", 5)


@pytest.mark.parametrize("name", ["galois-a-det", "galois-b-det", "galois-c-det"])
def test_galois_dets_are_taken_of_entrywise_images(monkeypatch, name):
    # the table each _spectral_det call was given, rebuilt from its lifts:
    # every padding slot is zero, so the first phi(n) slots over den are
    # the entry
    seen = []
    real = identities._spectral_det

    def spy(ctx, diagonal, vectors, den):
        assert all(not any(v[ctx.degree:]) and len(v) == ctx.n for v in vectors)
        seen.append([diagonal, *(CycloElem(ctx, v[:ctx.degree], den) for v in vectors)])
        return real(ctx, diagonal, vectors, den)

    monkeypatch.setattr(identities, "_spectral_det", spy)
    kind = DETS[name.removeprefix("galois-")].kind
    for n in (3, 5, 7, 9):
        seen.clear()
        assert run_identity(name, n).passed
        table = residue_table(kind, shared_context(n))
        # every residue mapped on its own, one conjugate table per coprime t
        assert seen == [[e.galois(t) for e in table] for t in identities.coprime_residues(n)]


@pytest.mark.parametrize("name", ["galois-a-det", "galois-b-det", "galois-c-det"])
def test_galois_rows_never_get_a_rational_read_out(monkeypatch, name):
    # the zero-padded lifts of the reduced conjugate tables fail the
    # equivariance check, so every galois-* row sums in the cyclic ring, and
    # it still maps every entry of the table by CycloElem.galois
    returns, images, real = _recording_read_out(monkeypatch), [], CycloElem.galois
    monkeypatch.setattr(CycloElem, "galois", lambda e, t: images.append(t) or real(e, t))
    for n in sorted({*IDENTITIES[name].default_grid, *range(3, 40, 2)}):
        returns.clear()
        images.clear()
        assert run_identity(name, n).passed, n
        ts = identities.coprime_residues(n)
        assert returns == [None] * len(ts), n
        assert images == [t for t in ts for _ in range(n)], n


def test_galois_tables_are_refused_at_one_slot(monkeypatch):
    # on the default grids the one-slot comparison of sigma_t(V_1) with V_t
    # refuses every conjugate table before the read-out builds an
    # itemgetter (at n = 21, 33, 35 and 39 some tables agree there and are
    # refused by the full check)
    def refuse(*args):
        raise AssertionError("the full equivariance check ran")

    monkeypatch.setattr(polynomials, "itemgetter", refuse)
    for name in IDENTITIES:
        if name.startswith("galois-"):
            for n in IDENTITIES[name].default_grid:
                assert run_identity(name, n).passed, (name, n)


ODD_3_9, ODD_3_13, ODD_3_25 = (tuple(range(3, hi + 1, 2)) for hi in (9, 13, 25))
TO_12 = tuple(range(2, 13))

# name: (default_grid, odd_only, supports_oracle), in registration order
REGISTRY = {
    "a-det": (ODD_3_25, True, True),
    "c-det": (ODD_3_25, True, True),
    "b-det": (ODD_3_25, True, False),
    "tilde-a-det": (ODD_3_25, True, False),
    "c1-det": (ODD_3_25, True, False),
    "s19-det": (ODD_3_13, True, False),
    "c1-spectrum": (TO_12, False, False),
    "two-c-spectrum": (TO_12, False, False),
    "eigen-a": (ODD_3_13, True, False),
    "eigen-b": (ODD_3_13, True, False),
    "eigen-c1": (ODD_3_13, False, False),
    "eei-a": (ODD_3_13, True, False),
    "eei-b": (ODD_3_13, True, False),
    "eei-c1": (ODD_3_13, True, False),
    "root-sums": (tuple(range(2, 51)), False, False),
    "row-sums": (TO_12, False, False),
    "partial-fraction": (TO_12, False, False),
    "row-sum-x": (TO_12, False, False),
    "galois-a-det": (ODD_3_9, True, False),
    "galois-c-det": (ODD_3_9, True, False),
    "galois-b-det": (ODD_3_9, True, False),
}


def test_registry():
    assert list(IDENTITIES) == list(REGISTRY)
    for name, row in REGISTRY.items():
        info = IDENTITIES[name]
        assert (info.default_grid, info.odd_only, info.supports_oracle) == row, name
    report = run_identity("two-c-spectrum", 6)
    assert report.passed and report.identity == "two-c-spectrum"
    with pytest.raises(KeyError):
        run_identity("nope", 3)


@pytest.mark.parametrize("name", list(REGISTRY))
def test_cli_grid_is_what_run_identity_admits(name):
    grid = _grid_for(IDENTITIES[name], (0, 6))
    for n in range(7):
        try:
            run_identity(name, n)
        except ValueError:
            assert n not in grid, n
        else:
            assert n in grid, n


def test_report_pass_iff_renderings_agree():
    report = run_identity("a-det", 3)
    assert report.passed == (report.expected == report.computed)
    assert report.elapsed_seconds >= 0
    d = report.as_dict()
    assert set(d) == {"identity", "n", "params", "expected", "computed",
                      "passed", "elapsed_seconds"}


def test_wrong_det_claim_keeps_computed_values(monkeypatch):
    good = run_identity("galois-a-det", 5)
    wrong = DETS["a-det"]._replace(value=lambda n: a_det_value(n) + 1)
    monkeypatch.setitem(DETS, "a-det", wrong)
    bad = run_identity("galois-a-det", 5)
    assert good.passed and not bad.passed
    assert bad.expected == "[(14/5, 0), (14/5, 0), (14/5, 0), (14/5, 0)]"
    assert bad.computed == good.computed == "[(9/5, 0), (9/5, 0), (9/5, 0), (9/5, 0)]"


def test_report_as_dict_keeps_field_order_and_values():
    report = IdentityReport(identity="a-det", n=5, params={"size": 4}, expected="9/5",
                            computed="9/5", passed=True, elapsed_seconds=0.25)
    assert list(report.as_dict().items()) == [
        ("identity", "a-det"), ("n", 5), ("params", {"size": 4}), ("expected", "9/5"),
        ("computed", "9/5"), ("passed", True), ("elapsed_seconds", 0.25)]
    report.first_difference = "[1]"
    assert list(report.as_dict().items())[-1] == ("first_difference", "[1]")
    assert list(report.as_dict())[:-1] == list(IdentityReport("x", 2).as_dict())
    report.first_difference = ""  # differs as a whole: kept, only None is left out
    assert report.as_dict()["first_difference"] == ""


def test_report_defaults_share_no_state():
    a, b = IdentityReport("x", 2), IdentityReport("y", 3)
    assert a.as_dict() == {"identity": "x", "n": 2, "params": {}, "expected": "",
                           "computed": "", "passed": False, "elapsed_seconds": 0.0}
    a.params["k"] = 1
    assert b.params == {}
    a.as_dict()["params"]["k"] = 2
    assert a.params == {"k": 1}


def test_report_pickles_and_takes_extra_attributes():
    good = run_identity("a-det", 5, oracle=True)
    bad = IdentityReport("a-det", 5, {"size": 4}, "[1, 2]", "[1, 3]", False, 0.5, "[1]")
    for report in (good, bad):
        report.bench_seconds = (0.1, 0.2)  # as bench/clirun.py sets it
        back = pickle.loads(pickle.dumps(report))
        assert back == report and back.as_dict() == report.as_dict()
        assert back.bench_seconds == (0.1, 0.2)
        assert "bench_seconds" not in back.as_dict()
    assert good != bad
    assert repr(bad) == ("IdentityReport(identity='a-det', n=5, params={'size': 4}, "
                         "expected='[1, 2]', computed='[1, 3]', passed=False, "
                         "elapsed_seconds=0.5, first_difference='[1]')")


def test_registry_rows_keep_their_fields_and_defaults():
    assert DetIdentity._fields == ("kind", "value", "slope", "grid", "oracle", "galois")
    row = DetIdentity(MatrixKind.A, a_det_value, None, (3,))
    assert (row.oracle, row.galois) == (False, False)
    assert IdentityInfo._fields == ("check", "default_grid", "odd_only", "supports_oracle",
                                    "text")
    info = IdentityInfo(len, (2,), False)
    assert info.supports_oracle is False and info.text is render
    with pytest.raises(AttributeError):
        DETS["a-det"].value = c_det_value
    with pytest.raises(AttributeError):
        IDENTITIES["a-det"].extra = 1
    assert DETS["a-det"]._replace(grid=(3,)).grid == (3,) and DETS["a-det"].grid != (3,)


# circulant_block_det: the spectral determinant of a residue table of field
# elements, lifted onto identities._spectral_det by helpers.table_block_det
def test_circulant_block_det_equals_elimination_on_every_det_row():
    for name, det in DETS.items():
        for n in range(3, 16, 2):
            ctx = shared_context(n)
            table = residue_table(det.kind, ctx)
            assert table_block_det(table) == circulant(ctx, table, n - 1).det_affine(), \
                (name, n)


def test_circulant_block_det_of_galois_equivariant_tables():
    # t[u] = g(zeta^u) for g in Q[x] makes every eigenvalue rational; even n
    # and a nonzero diagonal included
    rng = random.Random(15)
    for n in range(2, 14):
        ctx = shared_context(n)
        for _ in range(2):
            g = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(1, n))]
            table = (ctx.from_rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
                     *(sum((zeta_pow(ctx, i * u) * c for i, c in enumerate(g)), zero(ctx))
                       for u in range(1, n)))
            assert table_block_det(table) == circulant(ctx, table, n - 1).det_affine(), \
                (n, g)


@pytest.mark.parametrize("name", list(DETS))
def test_kind_block_det_equals_circulant_block_det_of_the_table(name):
    # 99 and 105 have the largest power-row growth under 150
    kind = DETS[name].kind
    for n in (*range(3, 62, 2), 99, 105):
        assert kind_block_det(kind, n) == table_block_det(residue_table(kind, shared_context(n))), n


def test_residue_table_is_the_scaled_closed_form_inverse():
    # entry u is p/(1 - c*zeta^u) + q, from the field closed forms
    for n in range(2, 41):
        ctx = shared_context(n)
        for kind in MatrixKind:
            if kind is MatrixKind.S19 and n % 2 == 0:
                continue  # 1 + zeta^(n/2) = 0
            c, p, q, diagonal = identities._KINDS[kind]
            inverse = cyclotomic.inv_one_minus_zeta if c == 1 else inv_one_plus_zeta
            want = (ctx.from_rational(diagonal), *(inverse(ctx, u) * p + q for u in range(1, n)))
            assert residue_table(kind, ctx) == want, (kind, n)
            assert residue_vectors(kind, n)[0] == diagonal


def test_block_det_matches_the_fraction_recurrence():
    # rational spectra with mixed denominators, zeros and n = 2 included
    rng = random.Random(30)
    for n in (2, 2, 3, 4, 5, 6, 7, 9, 12, 16):
        for _ in range(6):
            diagonal = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            sums = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 4, 6, 7, 10, 12)))
                    for _ in range(n)]
            lams = [diagonal + t for t in sums]
            got = identities._block_det(diagonal, sums)
            assert got == fraction_block_det(lams), (n, diagonal, sums)


def test_circulant_block_det_rejects_an_irrational_eigenvalue():
    ctx = shared_context(5)
    table = (zero(ctx), zeta_pow(ctx, 1), zero(ctx), zero(ctx), zero(ctx))
    with pytest.raises(ArithmeticError):
        table_block_det(table)
    with pytest.raises(ArithmeticError):  # the eigenvalues sum to 5 zeta
        table_block_det((zeta_pow(ctx, 1), *table[1:]))


def test_wrong_residue_entries_fail_the_det_report(monkeypatch):
    real = identities.residue_vectors

    def wrong(kind, n):
        diagonal, vectors = real(kind, n)
        for v in vectors:
            v[0] += n  # every off-diagonal entry off by 1, over the denominator n
        return diagonal, vectors

    monkeypatch.setattr(identities, "residue_vectors", wrong)
    for name in DETS:
        report = run_identity(name, 5)
        assert not report.passed and report.computed != report.expected, name


def test_kind_block_det_falls_back_on_a_table_that_is_not_equivariant(monkeypatch):
    # Phi_n added to the vector of t[1] changes no field entry, but the
    # unreduced table is no longer equivariant, so the field route runs and
    # finds the same value; zeta added instead makes an eigenvalue irrational
    real = identities.residue_vectors
    extra = []

    def patched(kind, n):
        diagonal, vectors = real(kind, n)
        vectors[0] = [a + b for a, b in zip(vectors[0], extra)]
        return diagonal, vectors

    monkeypatch.setattr(identities, "residue_vectors", patched)
    for name, det in DETS.items():
        for n in (3, 5, 9, 15):
            ctx = shared_context(n)
            extra[:] = [*ctx.phi, *[0] * (n - len(ctx.phi))]
            assert polynomials._rational_twisted_sums(ctx, patched(det.kind, n)[1], n) is None
            assert run_identity(name, n).passed, (name, n)
            extra[:] = [0, 1] + [0] * (n - 2)
            with pytest.raises(ArithmeticError):
                kind_block_det(det.kind, n)


def test_det_rows_run_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated or inverted")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    monkeypatch.setattr(CycloElem, "inverse", refuse)
    rows = [*DETS, *(name for name in IDENTITIES if name.startswith("galois-"))]
    for name in rows:
        for n in IDENTITIES[name].default_grid:
            assert run_identity(name, n).passed, (name, n)
    for kind in DET_KINDS:
        for n in range(2, 10):
            code = 2 if kind == "s19" and n % 2 == 0 else 0  # s19 is undefined at even n
            assert main(["det", "--matrix", kind, "--n", str(n)]) == code, (kind, n)


def _products_by_matvec(m):
    ctx, n = m.ctx, m.cols
    return [m.matvec([zeta_pow(ctx, -k * s) for k in range(1, n + 1)]) for s in range(1, n + 1)]


def _mus_by_matvec(m):
    """mu_s for s = 1..n read off the n products M v(s) of ``matvec``."""
    mus = []
    for s, w in enumerate(_products_by_matvec(m), 1):
        mu = w[0].mul_zeta_pow(s)  # v(s) starts with zeta^-s
        mus.append(mu if all(wk == mu.mul_zeta_pow(-k * s) for k, wk in enumerate(w, 1))
                   else None)
    return mus


def _perturbed_circulant(ctx, rng, row, t):
    """A random circulant with mixed denominators plus zeta^((c+1)t) on
    ``row``, column c: v(s) stays an eigenvector exactly for s != t, as
    sum_c zeta^((c+1)(t-s)) = 0.  With row 0 perturbed, every other row's
    table differs from row 0's; with another row, only that one does."""
    n = ctx.n
    table = [random_element(ctx, rng, 9) for _ in range(n)]
    rows = [[table[(j - c) % n] for c in range(n)] for j in range(n)]
    rows[row] = [e + zeta_pow(ctx, (c + 1) * t) for c, e in enumerate(rows[row])]
    return CMatrix(ctx, rows)


def test_twist_eigenvalues_match_matvec():
    # square matrices, circulant or not, with mixed denominators and
    # nonzero diagonals
    for n in range(2, 10):
        ctx = shared_context(n)
        for m in (non_circulant(n), random_matrix(ctx, random.Random(100 + n), n, span=9)):
            assert len({e.den for e in m.data}) > 1 and any(m[j, j] for j in range(n))
            assert identities._twist_eigenvalues(m) == _mus_by_matvec(m), n
        rng = random.Random(n)
        for row in (0, n - 1):
            m = _perturbed_circulant(ctx, rng, row, n // 2)
            mus = identities._twist_eigenvalues(m)
            assert mus == _mus_by_matvec(m), (n, row)
            assert [mu is None for mu in mus] == [s == n // 2 for s in range(1, n + 1)], (n, row)
        # all-zero trailing rows and an all-zero column n // 2
        top = [[0 if c == n // 2 else random_element(ctx, rng) for c in range(n)]
               for _ in range(n - 2)]
        sparse = CMatrix(ctx, top + [[0] * n] * 2)
        assert identities._twist_eigenvalues(sparse) == _mus_by_matvec(sparse), n
        # another shape is refused
        tall = CMatrix(ctx, [[random_element(ctx, rng) for _ in range(n)] for _ in range(n + 2)])
        for m in (tall, random_matrix(ctx, rng, n + 1), random_matrix(ctx, rng, n - 1)):
            with pytest.raises(ValueError):
                identities._twist_eigenvalues(m)


def test_twist_eigenvalues_of_the_empty_matrix_are_refused():
    with pytest.raises(ValueError):
        identities._twist_eigenvalues(CMatrix(shared_context(3), []))


def test_twist_eigenvalues_at_the_slot_width():
    # every lifted coordinate is +-(2^b - 1), so the digits of row 0's sums
    # (the diagonal is their n-th term) reach n(2^b - 1), and those of the
    # difference rows, whose coordinates reach 2(2^b - 1) with mixed signs,
    # twice that: the bounds the slot width is set by
    edge = (1 << 40) - 1
    for n in range(2, 10):
        ctx = shared_context(n)
        rng = random.Random(n)
        for signs in ([edge], [-edge], [edge, -edge]):
            m = CMatrix(ctx, [[from_coeffs(ctx, [rng.choice(signs) for _ in range(ctx.degree)])
                               for _ in range(n)] for _ in range(n)])
            assert identities._twist_eigenvalues(m) == _mus_by_matvec(m), (n, signs)


def test_circulant_eigenvalues_take_one_pass_with_one_slot(monkeypatch):
    calls = []

    def spy(ctx, vectors, w, den):
        calls.append(w)
        return polynomials._twisted_vector_sums(ctx, vectors, w, den)

    monkeypatch.setattr(identities, "_twisted_vector_sums", spy)
    for kind in MatrixKind:
        for n in range(2, 14):
            if kind is MatrixKind.S19 and n % 2 == 0:
                continue  # 1 + zeta^(n/2) = 0
            m = build_matrix(kind, shared_context(n), n)
            calls.clear()
            mus = identities._twist_eigenvalues(m)
            assert calls == [1], (kind, n)
            assert None not in mus, (kind, n)


def test_eigenpairs_make_no_matvec_call(monkeypatch):
    def forbidden(*args):
        raise AssertionError("matvec was called")

    monkeypatch.setattr(CMatrix, "matvec", forbidden)
    for kind in ("a", "b", "c1"):
        assert run_identity(f"eigen-{kind}", 7).passed


def test_eigenpairs_read_a_non_circulant_matrix(monkeypatch):
    # A plus zeta^((c+1)t) on row 0, column c: v(s) stays an eigenvector for
    # s != t, as sum_k zeta^(k(t-s)) = 0, but not for s = t
    n, t = 5, 2
    ctx = shared_context(n)
    a = build_matrix(MatrixKind.A, ctx, n)
    rows = [[a[r, c] for c in range(n)] for r in range(n)]
    rows[0] = [e + zeta_pow(ctx, (c + 1) * t) for c, e in enumerate(rows[0])]
    m = CMatrix(ctx, rows)
    assert m != a and m[0, 1] != m[1, 2]
    monkeypatch.setattr(identities, "build_matrix", lambda kind, ctx, size: m)
    _, _, (mus, _) = identities._eigenpairs(MatrixKind.A, n)
    by_matvec = []
    for s, w in enumerate(_products_by_matvec(m), 1):
        mu = w[0].mul_zeta_pow(s)
        by_matvec.append(mu if all(wk == mu.mul_zeta_pow(-k * s) for k, wk in enumerate(w, 1))
                         else None)
    assert mus == by_matvec
    lams = spectrum(MatrixKind.A, n)
    assert mus == [None if s == t else lam for s, lam in enumerate(lams, 1)]
    report = run_identity("eigen-a", n)
    assert not report.passed and report.first_difference == f"[0][{t - 1}]"


def test_cyclic_minor_has_the_charpoly_of_the_deleted_minor():
    m = non_circulant(5)
    for j in range(1, 6):
        assert identities._cyclic_minor(m, j).charpoly() == minor_delete(m, j).charpoly()


def test_cyclic_minors_of_a_circulant_are_equal():
    m = build_matrix(MatrixKind.C_PLUS_I, shared_context(7), 7)
    assert len({identities._cyclic_minor(m, j) for j in range(1, 8)}) == 1


def test_eei_computes_every_minor_of_a_non_circulant_matrix(monkeypatch):
    # the charpoly cache must never merge distinct minors
    m = non_circulant(5)
    monkeypatch.setattr(identities, "build_matrix", lambda kind, ctx, size: m)
    _, _, computed = identities._eei(MatrixKind.A, 5)
    assert computed == [minor_delete(m, j).charpoly().coeffs[0] for j in range(1, 6)]
    assert len(set(computed)) == 5
    assert not run_identity("eei-a", 5).passed


@pytest.mark.parametrize("name", ["eigen-a", "eei-a"])
def test_wrong_spectrum_keeps_computed_values(monkeypatch, name):
    good = run_identity(name, 5)
    monkeypatch.setattr(identities, "spectrum",
                        lambda kind, n: [2 * lam for lam in spectrum(kind, n)])
    bad = run_identity(name, 5)
    assert good.passed and not bad.passed
    assert bad.expected != good.expected
    assert bad.computed == good.computed


def test_eigen_report_reads_eigenvalues_off_the_matrix():
    r = run_identity("eigen-a", 3)
    assert r.computed == "([-1, 1, 0], x^3 - x)"


def test_render_of_a_field_element():
    ctx = shared_context(3)
    assert render(ctx.from_rational(Fraction(-1, 3))) == "-1/3"
    assert render(zeta_pow(ctx, 1)) == "z"


def _with_wrong_term(build):
    """The kernel ``build`` of the sums S[s] = sum_r zeta^(-sr) Q_r with Q_2
    off by 1: zeta^(-2s) more in the x^0 coefficient of every S[s]."""
    def wrong(ctx):
        return [[c + zeta_pow(ctx, -2 * s), *rest] for s, (c, *rest) in enumerate(build(ctx))]
    return wrong


def test_wrong_row_sum_x_term_keeps_expected(monkeypatch):
    good = run_identity("row-sum-x", 5)
    monkeypatch.setattr(polynomials, "_cleared_sums",
                        _with_wrong_term(polynomials._cleared_sums))  # Q_2 off by 1
    bad = run_identity("row-sum-x", 5)
    assert good.passed and not bad.passed
    assert bad.expected == good.expected
    assert bad.computed != good.computed
    assert bad.first_difference == "[0][0]"  # every (k, s) has a j with j - k = 2


def test_wrong_partial_fraction_term_keeps_expected(monkeypatch):
    good = run_identity("partial-fraction", 5)
    monkeypatch.setattr(polynomials, "_cleared_sums",
                        _with_wrong_term(polynomials._cleared_sums))  # Q_2 off by 1
    bad = run_identity("partial-fraction", 5)
    assert good.passed and not bad.passed
    assert bad.expected == good.expected
    assert bad.computed != good.computed
    assert bad.first_difference == "[0]"  # every s sums over r = 2


def test_wrong_residue_entry_keeps_row_sums_expected(monkeypatch):
    good = run_identity("row-sums", 5)
    real = identities.residue_vectors

    def wrong(kind, n):
        diagonal, vectors = real(kind, n)
        vectors[1][0] += n  # the entry at j - k = 2 off by 1, over the denominator n
        return diagonal, vectors

    monkeypatch.setattr(identities, "residue_vectors", wrong)
    bad = run_identity("row-sums", 5)
    assert good.passed and not bad.passed
    assert bad.expected == good.expected
    assert bad.computed != good.computed
    assert bad.first_difference == "[0][0]"  # every k has a j with j - k = 2


def test_failing_report_names_the_first_difference(monkeypatch):
    real = polynomials.row_sum_x_check

    def flipped(ctx):
        table = real(ctx)
        table[2][1] = not table[2][1]  # k = 3, s = 1
        return table

    monkeypatch.setattr(polynomials, "row_sum_x_check", flipped)
    report = run_identity("row-sum-x", 4)
    assert not report.passed
    assert report.first_difference == "[2][1]"  # [k-1][s]
    assert report.as_dict()["first_difference"] == "[2][1]"


def test_passing_report_has_no_first_difference():
    report = run_identity("row-sum-x", 4)
    assert report.passed and report.first_difference is None
    assert "first_difference" not in report.as_dict()


def test_first_difference_paths():
    assert first_difference([1, 2, 3], [1, 2, 4]) == "[2]"
    assert first_difference([[1, 2], [3, 4]], [[1, 2], [3, 5]]) == "[1][1]"
    assert first_difference(([1, 2], 7), ([1, 2], 8)) == "[1]"
    assert first_difference([1, 2], [1, 2, 3]) == "[2]"
    assert first_difference(Fraction(1, 3), Fraction(1, 2)) == ""


def test_grid_for_clamps_the_lower_bound(monkeypatch):
    calls = []
    admits = IdentityInfo.admits
    monkeypatch.setattr(IdentityInfo, "admits", lambda self, n: calls.append(n) or admits(self, n))
    assert _grid_for(IDENTITIES["row-sum-x"], (-10**12, 3)) == [2, 3]
    assert _grid_for(IDENTITIES["a-det"], (-10**12, 3)) == [3]
    assert calls == [2, 3, 2, 3]

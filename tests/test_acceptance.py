"""Acceptance suite.

Each criterion runs over its full grid with exact (zero-tolerance)
comparisons and prints one pass/fail line; run with ``pytest -s`` to see the
lines as they complete.  Criterion 13 aggregates the measured wall-clock of
criteria 1-11, first running any of them that has not run in the session,
and splits it in two: the time inside the product's entry
points (``run_identity``, ``kind_block_det``, ``signed_derangement_sum`` and
``charpoly``) and the rest, the reference the product is checked against.
The determinant criteria eliminate, and each also asserts that the spectral
value of ``kind_block_det``, which ``verify`` reports, equals its
elimination result; criterion 14 runs the spectral route alone on odd n up
to 101, and criterion 15 the eigenpair, EEI and spectrum rows, whose
charpoly runs in the rational ring, on odd n 15..25.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from cyclodet.combinatorics import signed_derangement_sum
from cyclodet.cyclotomic import shared_context
from cyclodet.identities import (
    DETS,
    MatrixKind,
    a_det_value,
    b_det_value,
    build_matrix,
    c1_det_value,
    c_det_value,
    kind_block_det,
    run_identity,
    s19_det_value,
    spectrum_poly,
    tilde_a_det_value,
)
from cyclodet.linalg import CMatrix
from cyclodet.polynomials import CPoly

from helpers import (derangements, from_coeffs, is_hermitian, leibniz_derangement_sum,
                     perm_expansion_det, random_matrix, zero)

ODD_3_25 = tuple(range(3, 26, 2))
ELAPSED: dict[int, float] = {}
PRODUCT: dict[int, float] = {}  # the part of ELAPSED spent in the product
_PRODUCT_S = [0.0]  # running time spent in the product's entry points


def _product(fn):
    """fn, with the time of each call added to the product's running time."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _PRODUCT_S[0] += time.perf_counter() - t0
    return timed


run_identity, kind_block_det, signed_derangement_sum, charpoly = map(
    _product, (run_identity, kind_block_det, signed_derangement_sum, CMatrix.charpoly))


@contextmanager
def _timed(criterion: int):
    t0, product0 = time.perf_counter(), _PRODUCT_S[0]
    try:
        yield
    finally:
        ELAPSED[criterion] = time.perf_counter() - t0
        PRODUCT[criterion] = _PRODUCT_S[0] - product0


def _spectral(kind: MatrixKind, n: int):
    """(d0, d1) of the size n-1 ``kind`` block from its spectrum."""
    return kind_block_det(kind, n)


def _line(criterion: int, name: str, ok: bool):
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:02d} {name}: {mark} ({ELAPSED[criterion]:.1f}s)")


def test_criterion_01_ratio_det_affine():
    results, spectral = {}, {}
    with _timed(1):
        for n in ODD_3_25:
            ctx = shared_context(n)
            d0, d1 = build_matrix(MatrixKind.A, ctx, n - 1).det_affine()
            results[n] = (d0.as_rational(), d1.as_rational())
            spectral[n] = _spectral(MatrixKind.A, n)
    ok = all(results[n] == (a_det_value(n), 0) for n in ODD_3_25) and spectral == results
    _line(1, "ratio-matrix affine determinant, odd n 3..25", ok)
    for n in ODD_3_25:
        assert results[n] == (a_det_value(n), 0), f"n={n}: {results[n]}"
        assert spectral[n] == results[n], f"n={n}: spectral {spectral[n]}"
    assert results[3][0] == Fraction(-1, 3)
    assert results[5][0] == Fraction(9, 5)
    assert results[7][0] == Fraction(-225, 7)
    assert ELAPSED[1] < 60, f"criterion 1 took {ELAPSED[1]:.1f}s"


def test_criterion_02_derangement_oracle():
    results = {}
    with _timed(2):
        for n in (3, 5, 7, 9):
            ctx = shared_context(n)
            matrix = build_matrix(MatrixKind.A, ctx, n - 1)
            results[n] = (signed_derangement_sum(matrix), matrix.det(),
                          leibniz_derangement_sum(matrix))
    ok = all(s == d == r == a_det_value(n) for n, (s, d, r) in results.items())
    _line(2, "signed derangement sums equal determinants, n in {3,5,7,9}", ok)
    assert sum(1 for _ in derangements(8)) == 14833
    for n, (oracle_sum, det, reference) in results.items():
        assert oracle_sum == det == a_det_value(n), f"n={n}"
        assert oracle_sum == reference, f"Leibniz n={n}"
    assert ELAPSED[2] < 60, f"criterion 2 took {ELAPSED[2]:.1f}s"


def test_criterion_03_hollow_reciprocal_det():
    results, spectral = {}, {}
    oracle_results, references = {}, {}
    with _timed(3):
        for n in ODD_3_25:
            ctx = shared_context(n)
            matrix = build_matrix(MatrixKind.C_HOLLOW, ctx, n - 1)
            results[n] = matrix.det().as_rational()
            spectral[n] = _spectral(MatrixKind.C_HOLLOW, n)[0]
            if n <= 9:
                oracle_results[n] = signed_derangement_sum(matrix)
                references[n] = leibniz_derangement_sum(matrix)
    ok = all(results[n] == c_det_value(n) for n in ODD_3_25) and spectral == results and \
        all(oracle_results[n] == c_det_value(n) for n in oracle_results) and \
        oracle_results == references
    _line(3, "hollow reciprocal determinant, odd n 3..25 (+oracle to 9)", ok)
    for n in ODD_3_25:
        assert results[n] == c_det_value(n), f"n={n}: {results[n]}"
        assert spectral[n] == results[n], f"n={n}: spectral {spectral[n]}"
    for n, val in oracle_results.items():
        assert val == c_det_value(n), f"oracle n={n}"
        assert val == references[n], f"Leibniz n={n}"
    assert results[5] == Fraction(4, 5)


def test_criterion_04_unit_diagonal_ratio_det():
    results, spectral = {}, {}
    with _timed(4):
        for n in ODD_3_25:
            ctx = shared_context(n)
            d0, d1 = build_matrix(MatrixKind.B, ctx, n - 1).det_affine()
            results[n] = (d0.as_rational(), d1.as_rational())
            spectral[n] = _spectral(MatrixKind.B, n)
    ok = all(results[n] == (b_det_value(n), n * b_det_value(n)) for n in ODD_3_25) and \
        spectral == results
    _line(4, "unit-diagonal ratio affine determinant, odd n 3..25", ok)
    for n in ODD_3_25:
        assert results[n] == (b_det_value(n), n * b_det_value(n)), f"n={n}"
        assert spectral[n] == results[n], f"n={n}: spectral {spectral[n]}"
    assert results[3] == (Fraction(2, 3), Fraction(2))


def test_criterion_05_averaged_matrix_det():
    results, spectral = {}, {}
    with _timed(5):
        for n in ODD_3_25:
            ctx = shared_context(n)
            results[n] = build_matrix(MatrixKind.TILDE_A, ctx, n - 1).det().as_rational()
            spectral[n] = _spectral(MatrixKind.TILDE_A, n)[0]
    ok = all(results[n] == tilde_a_det_value(n) for n in ODD_3_25) and spectral == results
    _line(5, "averaged-matrix determinant, odd n 3..25", ok)
    for n in ODD_3_25:
        assert results[n] == tilde_a_det_value(n), f"n={n}: {results[n]}"
        assert spectral[n] == results[n], f"n={n}: spectral {spectral[n]}"
    assert results[3] == Fraction(-1, 12)


def test_criterion_06_unit_reciprocal_spectrum_and_det():
    spec_ok = {}
    det_results, spectral = {}, {}
    with _timed(6):
        for n in range(2, 13):
            ctx = shared_context(n)
            target = spectrum_poly(ctx, [Fraction(2 * s - n + 1, 2)
                                         for s in range(1, n + 1)])
            spec_ok[n] = charpoly(build_matrix(MatrixKind.C_PLUS_I, ctx, n)) == target
        for n in ODD_3_25:
            ctx = shared_context(n)
            det_results[n] = build_matrix(MatrixKind.C_PLUS_I, ctx, n - 1).det().as_rational()
            spectral[n] = _spectral(MatrixKind.C_PLUS_I, n)[0]
    ok = all(spec_ok.values()) and \
        all(det_results[n] == c1_det_value(n) for n in ODD_3_25) and spectral == det_results
    _line(6, "unit-reciprocal spectrum (n 2..12) and determinant (odd 3..25)", ok)
    assert all(spec_ok.values())
    for n in ODD_3_25:
        assert det_results[n] == c1_det_value(n), f"n={n}"
        assert spectral[n] == det_results[n], f"n={n}: spectral {spectral[n]}"
    assert det_results[3] == Fraction(2, 3)


def test_criterion_07_doubled_reciprocal_spectrum():
    results = {}
    with _timed(7):
        for n in range(2, 13):
            ctx = shared_context(n)
            target = spectrum_poly(ctx, [2 * s - n - 1 for s in range(1, n + 1)])
            results[n] = (charpoly(build_matrix(MatrixKind.TWO_C, ctx, n)), target)
    ok = all(got == want for got, want in results.values())
    _line(7, "doubled reciprocal spectrum, n 2..12", ok)
    for n, (got, want) in results.items():
        assert got == want, f"n={n}"
    ctx3 = shared_context(3)
    assert results[3][0] == CPoly(ctx3, [0, -4, 0, 1])  # x^3 - 4x


def test_criterion_08_rational_function_identities():
    with _timed(8):
        pf = {n: run_identity("partial-fraction", n).passed for n in range(2, 13)}
        rsx = {n: run_identity("row-sum-x", n).passed for n in range(2, 13)}
        rs = {n: run_identity("root-sums", n).passed for n in range(2, 51)}
        row = {n: run_identity("row-sums", n).passed for n in range(2, 13)}
    ok = all(pf.values()) and all(rsx.values()) and all(rs.values()) and all(row.values())
    _line(8, "partial fractions, x-weighted row sums, root sums (to n=50)", ok)
    assert all(pf.values()), pf
    assert all(rsx.values()), rsx
    assert all(rs.values()), rs
    assert all(row.values()), row


def test_criterion_09_eigenvector_minor_identity():
    results = {}
    with _timed(9):
        for kind in (MatrixKind.A, MatrixKind.B, MatrixKind.C_PLUS_I):
            for n in range(3, 14, 2):
                results[(kind.value, n)] = run_identity(f"eei-{kind.value}", n).passed
    ok = all(results.values())
    _line(9, "eigenvector-eigenvalue identity, 3 kinds, odd n 3..13", ok)
    assert all(results.values()), results
    assert ELAPSED[9] < 300, f"criterion 9 took {ELAPSED[9]:.1f}s"


def test_criterion_10_inverted_ratio_det():
    results, spectral = {}, {}
    with _timed(10):
        for n in range(3, 14, 2):
            ctx = shared_context(n)
            results[n] = build_matrix(MatrixKind.S19, ctx, n - 1).det().as_rational()
            spectral[n] = _spectral(MatrixKind.S19, n)[0]
    ok = all(results[n] == s19_det_value(n) for n in results) and spectral == results
    _line(10, "inverted-ratio determinant, odd n 3..13", ok)
    for n, val in results.items():
        assert val == s19_det_value(n), f"n={n}: {val}"
        assert spectral[n] == val, f"n={n}: spectral {spectral[n]}"
    assert results[5] == 125


def test_criterion_11_galois_invariance():
    results = {}
    with _timed(11):
        for name in ("a-det", "c-det", "b-det"):
            for n in (3, 5, 7, 9):
                results[(name, n)] = run_identity(f"galois-{name}", n).passed
    ok = all(results.values())
    _line(11, "values invariant under all automorphisms, odd n 3..9", ok)
    assert all(results.values()), results


def test_criterion_12_property_suites():
    rng = random.Random(2024)
    ctx5 = shared_context(5)
    with _timed(12):
        perm_ok = True
        for _ in range(100):
            m = random_matrix(ctx5, rng, rng.randint(1, 5), span=2)
            perm_ok = perm_ok and perm_expansion_det(m) == m.det()

        skew_ok = True
        for _ in range(50):
            dim = rng.choice((1, 3, 5))
            entries = [[zero(ctx5)] * dim for _ in range(dim)]
            for j in range(dim):
                for k in range(j + 1, dim):
                    e = from_coeffs(ctx5, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                           for _ in range(ctx5.degree)])
                    entries[j][k] = e
                    entries[k][j] = e * -1
            skew_ok = skew_ok and CMatrix(ctx5, entries).det() == 0

        charpoly_ok = True
        for _ in range(50):
            dim = rng.randint(1, 4)
            m = random_matrix(ctx5, rng, dim, span=2)
            charpoly_ok = charpoly_ok and \
                m.charpoly().coeffs[0] == m.det() * (-1) ** dim

        hermitian_ok = True
        for kind in MatrixKind:
            for n in (3, 5, 7, 9):
                ctx = shared_context(n)
                hermitian_ok = hermitian_ok and \
                    is_hermitian(build_matrix(kind, ctx, n)) and \
                    is_hermitian(build_matrix(kind, ctx, n - 1))
    ok = perm_ok and skew_ok and charpoly_ok and hermitian_ok
    _line(12, "property suites (oracle dets, skew, charpoly, Hermitian)", ok)
    assert perm_ok and skew_ok and charpoly_ok and hermitian_ok


def test_criterion_13_performance():
    # a criterion of 1-11 that has not run in this session (under -k 13, say)
    # runs here first, so the sum always covers the same grid
    for k in range(1, 12):
        if k not in ELAPSED:
            prefix = f"test_criterion_{k:02d}_"
            next(f for name, f in globals().items() if name.startswith(prefix))()
    total = sum(ELAPSED[k] for k in range(1, 12))
    product = sum(PRODUCT[k] for k in range(1, 12))

    # reported, not asserted: the derangement sum's subset recursion
    # against elimination at n=9
    ctx = shared_context(9)
    matrix = build_matrix(MatrixKind.A, ctx, 8)
    t0 = time.perf_counter()
    oracle_value = signed_derangement_sum(matrix)
    t_oracle = time.perf_counter() - t0
    t0 = time.perf_counter()
    det_value = matrix.det()
    t_det = time.perf_counter() - t0
    ratio = t_det / t_oracle if t_oracle else float("inf")

    ELAPSED[13] = total
    ok = total < 600 and oracle_value == det_value
    _line(13, "criteria 1-11 wall clock under 10 minutes", ok)
    print(f"    criteria 1-11 total: {total:.1f}s")
    print(f"    criteria 1-11 product entry points: {product:.2f}s")
    print(f"    criteria 1-11 reference: {total - product:.2f}s")
    print(f"    bench n=9: derangement sum {t_oracle:.3f}s, "
          f"elimination {t_det:.3f}s, derangement sum x{ratio:.1f} faster")
    assert oracle_value == det_value
    assert total < 600, f"criteria 1-11 took {total:.1f}s"


def test_criterion_14_spectral_dets_to_101():
    results = {}
    with _timed(14):
        for name in DETS:
            for n in range(27, 102, 2):
                results[(name, n)] = run_identity(name, n).passed
    ok = all(results.values())
    _line(14, "every determinant row from its spectrum, odd n 27..101", ok)
    assert all(results.values()), [key for key, passed in results.items() if not passed]
    assert ELAPSED[14] < 30, f"criterion 14 took {ELAPSED[14]:.1f}s"


def test_criterion_15_spectra_and_eei_to_25():
    names = ("eigen-a", "eigen-b", "eigen-c1", "eei-a", "eei-b", "eei-c1",
             "c1-spectrum", "two-c-spectrum")
    results = {}
    with _timed(15):
        for name in names:
            for n in range(15, 26, 2):
                results[(name, n)] = run_identity(name, n).passed
    ok = all(results.values())
    _line(15, "eigenpair, EEI and spectrum rows by the rational charpoly, odd n 15..25", ok)
    assert all(results.values()), [key for key, passed in results.items() if not passed]
    assert ELAPSED[15] < 30, f"criterion 15 took {ELAPSED[15]:.1f}s"

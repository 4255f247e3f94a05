"""Matrix builders and the identity registry.

Every matrix here is circulant, so a kind at n is its residue table t:
t[u] is the entry at u = (j - k) mod n and t[0] the diagonal.  A kind's
off-diagonal entries are first int vectors in Z[x]/(x^n - 1), never reduced
(``residue_vectors``); ``residue_table`` reduces each once into a field
element.  ``circulant`` expands a table; ``build_matrix`` expands a kind's
and keeps it, with the vectors, in the matrix, for ``CMatrix.charpoly``
and ``_twist_eigenvalues`` to read.  ``_spectral_det`` reads the
determinant of the leading block off the twisted sums of a table of int
vectors, the eigenvalues of the circulant: a kind's (``kind_block_det``),
each sum one integer mod Phi_n(2^j) (``polynomials._rational_twisted_sums``),
or the lifted conjugate tables of the ``galois-*`` rows.  A sum stays the
int den * lambda_s up to the comparison: ``_block_det`` takes the ints
over one denominator, and ``root-sums`` and ``row-sums`` compare them
with closed forms times n, reading them over n only in the report.  Each
identity is one row of ``IDENTITIES``; its check computes both sides in
exact arithmetic and only returns them as two exact values, the claim
(``expected``) and what it actually computed (``computed``).
``run_identity`` is the one entry point: it rejects an n the row does not
admit, times the check and builds the report, which passes exactly when
the two values are equal and renders both for output.

A note on eigenvalue labels: with entries keyed on row minus column, the
vector v(s) = (zeta^-s, zeta^-2s, ..., zeta^-ns) pairs with eigenvalue 2s-n
for the zero-diagonal ratio matrix (and the mirrored label n-2s belongs to
its transpose).  The eigenvalue *multiset* is mirror-symmetric, so spectrum
and determinant claims are unaffected; eigenpair checks here use the labels
that hold exactly for the built matrices and cross-check the multiset via
the characteristic polynomial.
"""

from __future__ import annotations

import time
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from . import combinatorics
from .combinatorics import double_factorial, factorial, signed_derangement_sum
from .cyclotomic import (CycloContext, CycloElem, _entry, _inv_one_minus_zeta_vector,
                         _inv_one_plus_zeta_vector, _lift, _reduce, shared_context)
from .linalg import CMatrix, _circulant
from . import polynomials
from .polynomials import CPoly, _rational_twisted_sums, _twisted_vector_sums
from .rationals import exact, format_rational


class MatrixKind(Enum):
    A = "a"                  # (1+zeta^u)/(1-zeta^u) off-diagonal, 0 diagonal
    B = "b"                  # same ratio, 1 diagonal
    C_HOLLOW = "c"           # 1/(1-zeta^u) off-diagonal, 0 diagonal
    C_PLUS_I = "c1"          # 1/(1-zeta^u) off-diagonal, 1 diagonal
    TILDE_A = "tilde-a"      # 1/(1-zeta^u) off-diagonal, 1/2 diagonal
    S19 = "s19"              # (1-zeta^u)/(1+zeta^u) off-diagonal, 0 diagonal
    TWO_C = "two-c"          # 2/(1-zeta^u) off-diagonal, 0 diagonal


# {kind: (c, p, q, diagonal)}: the off-diagonal entry at residue u is
# p/(1 - c*zeta^u) + q, so (1 + y)/(1 - y) = 2/(1 - y) - 1 and
# (1 - y)/(1 + y) = 2/(1 + y) - 1 for y = zeta^u
_KINDS = {
    MatrixKind.A: (1, 2, -1, Fraction(0)),
    MatrixKind.B: (1, 2, -1, Fraction(1)),
    MatrixKind.C_HOLLOW: (1, 1, 0, Fraction(0)),
    MatrixKind.C_PLUS_I: (1, 1, 0, Fraction(1)),
    MatrixKind.TILDE_A: (1, 1, 0, Fraction(1, 2)),
    MatrixKind.S19: (-1, 2, -1, Fraction(0)),
    MatrixKind.TWO_C: (1, 2, 0, Fraction(0)),
}


def residue_vectors(kind: MatrixKind, n: int) -> tuple[Fraction, list[list[int]]]:
    """(diagonal, vectors): the ``kind`` matrix at n as its rational diagonal
    and, for u = 1..n-1, vectors[u - 1], the n int coordinates of n times
    the entry at u = (j - k) mod n in Z[x]/(x^n - 1), never reduced mod
    Phi_n.  The entry p/(1 - c*zeta^u) + q is p*V_c(n, u) + q*n*e_0 over the
    denominator n, with V_c the vector of n/(1 - zeta^u) (c = 1) or of
    n/(1 + zeta^u) (c = -1); the vector builders are module globals looked
    up at each call, so a patched one is seen."""
    c, p, q, diagonal = _KINDS[kind]
    vector = _inv_one_minus_zeta_vector if c == 1 else _inv_one_plus_zeta_vector
    vectors = []
    for u in range(1, n):
        v = vector(n, u)
        if p != 1:
            v = [p * a for a in v]
        v[0] += q * n
        vectors.append(v)
    return diagonal, vectors


def residue_table(kind: MatrixKind, ctx: CycloContext) -> tuple[CycloElem, ...]:
    """The ``kind`` matrix at n as its residue table t: t[u] is the entry at
    u = (j - k) mod n for u = 0..n-1, so t[0] is the diagonal.  Each entry
    u >= 1 is its vector of ``residue_vectors`` over n, reduced once, with
    no field product or sum."""
    return _reduced_table(ctx, *residue_vectors(kind, ctx.n))


def _reduced_table(ctx: CycloContext, diagonal: Fraction, vectors) -> tuple[CycloElem, ...]:
    """The residue table of the diagonal and the vectors of
    ``residue_vectors``, each vector over n reduced once, on a copy."""
    n = ctx.n
    return (ctx.from_rational(diagonal), *(CycloElem(ctx, _reduce(ctx, v[:]), n) for v in vectors))


def circulant(ctx: CycloContext, table, size: int) -> CMatrix:
    """Row j, column k holds table[(j - k) mod n]: the circulant of a residue
    table or its leading block; size must be n-1 or n, as the identities use.
    The n entries are coerced once and expanded through the cached index of
    ``linalg._circulant``."""
    return _circulant(ctx, [_entry(ctx, e) for e in table], size)


def _block_det(diagonal: Fraction, sums: list[int], den: int) -> tuple[Fraction, Fraction]:
    """(d0, d1) with det[x + m_jk] = d0 + d1*x for every x, m being the
    leading (n-1) x (n-1) block of the circulant C of a residue table t with
    the rational diagonal t[0] and rational twisted sums N_s/den, given as
    the n ints N_s: read off the spectrum of C, with no matrix.

    C is circulant by construction: row j, column k holds t[(j - k) mod n].
    So the vector w(s) = (zeta^(sk))_k is an eigenvector with eigenvalue
    lambda_s = sum_u t[u] zeta^(-su) = t[0] + N_s/den, for s = 0..n-1;
    lambda_0, the row sum, belongs to the all-ones vector.  The caller
    raises ArithmeticError for a lambda_s that is not rational
    (``_spectral_det``): the values are exact or absent, never rounded.

    The adjugate of C is a polynomial in C (Cayley-Hamilton), so it is
    circulant too and its diagonal entries are equal.  Their sum is the sum
    of the principal (n-1)-minors of C, e_{n-1}(lambda), so
    det(m) = adj(C)_{n-1,n-1} = e_{n-1}(lambda)/n.  Adding x to every entry
    adds xJ, J the all-ones matrix, to C; J = n times the projection onto
    the all-ones vector and shares the eigenvectors w(s), so it moves only
    lambda_0, by nx.  With e = e_{n-2}(lambda_1..lambda_{n-1}) and
    p = prod_{s>=1} lambda_s, det[x + m_jk] = ((lambda_0 + nx) e + p)/n,
    so d1 = e and d0 = (lambda_0 e + p)/n.  e and p are the two lowest
    coefficients of prod_{s>=1} (z + lambda_s), the only ones kept.

    The product runs on ints: with t[0] = b/q in lowest terms and D = q*den,
    lambda_s = (b*den + q*N_s)/D = a_s/D.  After k factors, P_k = D^k p_k and
    E_k = D^(k-1) e_k satisfy P_(k+1) = P_k a and E_(k+1) = E_k a + P_k,
    since D^k (e_k lambda + p_k) = D^(k-1) e_k * D lambda + D^k p_k.  So
    after the n - 1 factors p = P/D^(n-1) and e = E/D^(n-2), and
    d0 = (a_0 E + P)/(n D^(n-1)), d1 = E/D^(n-2): two divisions in all.
    """
    n = len(sums)
    q = diagonal.denominator
    base = diagonal.numerator * den
    a = [base + q * t for t in sums]
    den *= q
    p, e = 1, 0  # z^0 and z^1 coefficients of the product, scaled
    for a_s in a[1:]:
        p, e = p * a_s, e * a_s + p
    return Fraction(a[0] * e + p, n * den ** (n - 1)), Fraction(e, den ** (n - 2))


def _vector_sums(ctx: CycloContext, vectors) -> list:
    """The n twisted sums N_s = den * lambda_s of the int vectors ``vectors``
    of length n, den times the entries: ints from ``_rational_twisted_sums``
    when the table is Galois-equivariant, as every kind's is; else each sum
    of ``_twisted_vector_sums`` over 1 as its int coordinate 0 when it is
    rational and as a field element when it is not, so any other table (a
    patched vector, a ``galois-*`` row's conjugate lifts) is summed exactly."""
    sums = _rational_twisted_sums(ctx, vectors)
    if sums is None:
        sums = [e if any(e.num[1:]) else e.num[0] for e in _twisted_vector_sums(ctx, vectors, 1)]
    return sums


def _spectral_det(ctx: CycloContext, diagonal, vectors, den: int) -> tuple[Fraction, Fraction]:
    """(d0, d1) with det[x + m_jk] = d0 + d1*x for every x, m being the
    leading (n-1) x (n-1) block of the circulant of the residue table with
    t[0] = ``diagonal`` and t[u] = vectors[u - 1] / den: ``_block_det``
    after one ``_vector_sums`` pass.  The n eigenvalues sum to n*t[0], as
    the twisted sums of each t[r] cancel over s, so a diagonal that is not
    rational (None) raises ArithmeticError, as a field element sum does."""
    sums = _vector_sums(ctx, vectors)
    if diagonal is None or CycloElem in map(type, sums):
        raise ArithmeticError("an eigenvalue of the circulant is not rational")
    return _block_det(diagonal, sums, den)


def kind_block_det(kind: MatrixKind, n: int) -> tuple[Fraction, Fraction]:
    """``_spectral_det`` of the unreduced ``residue_vectors`` of ``kind`` at
    n.  They are Galois-equivariant (sigma_t of the entry at u is the entry
    at t*u), so neither an entry nor a sum is reduced mod Phi_n."""
    diagonal, vectors = residue_vectors(kind, n)
    return _spectral_det(shared_context(n), diagonal, vectors, n)


def build_matrix(kind: MatrixKind, ctx: CycloContext, size: int) -> CMatrix:
    """The size x size ``kind`` matrix over ctx (size n - 1 or n): its
    residue table expanded.  ``residue_vectors`` runs once, and the matrix
    keeps the reduced table next to the unreduced vectors it came from
    (``linalg._circulant``), so ``CMatrix.charpoly``, ``_cyclic_minor`` and
    ``_twist_eigenvalues`` read the n table entries, not the d^2 matrix
    entries."""
    diagonal, vectors = residue_vectors(kind, ctx.n)
    return _circulant(ctx, _reduced_table(ctx, diagonal, vectors), size, vectors)


def coprime_residues(n: int) -> list[int]:
    return [t for t in range(1, n) if gcd(t, n) == 1]


# -- closed-form target values ---------------------------------------------


def a_det_value(n: int) -> Fraction:
    """Determinant of the zero-diagonal ratio matrix at size n-1 (odd n)."""
    return Fraction((-1) ** ((n - 1) // 2) * double_factorial(n - 2) ** 2, n)


def tilde_a_det_value(n: int) -> Fraction:
    return a_det_value(n) / 2 ** (n - 1)


def c_det_value(n: int) -> Fraction:
    return Fraction((-1) ** ((n - 1) // 2) * factorial((n - 1) // 2) ** 2, n)


def b_det_value(n: int) -> Fraction:
    return Fraction((-1) ** ((n + 1) // 2) * double_factorial(n - 1) ** 2,
                    n * (n - 1))


def c1_det_value(n: int) -> Fraction:
    return Fraction((-1) ** ((n + 1) // 2) * (n + 1) * double_factorial(n - 1) ** 2,
                    n * (n - 1) * 2 ** (n - 1))


def s19_det_value(n: int) -> Fraction:
    return Fraction((-1) ** ((n - 1) // 2) * n ** (n - 2))


def spectrum(kind: MatrixKind, n: int) -> list[Fraction]:
    """The exact eigenvalue of v(s) = (zeta^-s, zeta^-2s, ..., zeta^-ns) for
    the built n x n ``kind`` matrix, listed for s = 1..n: 2s-n (0 at s = n)
    for a, 2s-n+1 (1 at s = n) for b, (2s-n+1)/2 for c1 and 2s-n-1 for
    two-c.  Each component of v(s) has squared modulus 1/n."""
    if kind is MatrixKind.C_PLUS_I:
        return [Fraction(2 * s - n + 1, 2) for s in range(1, n + 1)]
    if kind is MatrixKind.TWO_C:
        return [Fraction(2 * s - n - 1) for s in range(1, n + 1)]
    if kind in (MatrixKind.A, MatrixKind.B):
        shift = int(kind is MatrixKind.B)
        return [Fraction(2 * s - n + shift) for s in range(1, n)] + [Fraction(shift)]
    raise ValueError(f"no spectrum claim for kind {kind}")


def spectrum_poly(ctx: CycloContext, roots) -> CPoly:
    """prod (x - root) over the m rational roots, expanded over the ints
    and built once, with no field operation.  With d the lcm of the
    denominators and a_i = d*root_i, prod (y - a_i) = sum_j c_j y^j has int
    coefficients, and y = d*x gives prod (x - root_i) = d^-m prod (y - a_i),
    so the coefficient of x^j is c_j / d^(m-j), built as a field element
    with no Fraction."""
    roots = [exact(r) for r in roots]
    d = lcm(*(r.denominator for r in roots))
    coeffs = [1]  # lowest degree first
    for r in roots:
        a = r.numerator * (d // r.denominator)
        coeffs = [low - a * c for low, c in zip([0, *coeffs], [*coeffs, 0])]  # times (y - a)
    m, zeros = len(roots), [0] * (ctx.degree - 1)
    return CPoly(ctx, [CycloElem(ctx, [c, *zeros], d ** (m - j)) for j, c in enumerate(coeffs)])


# -- reports ----------------------------------------------------------------


class IdentityReport:
    """The outcome of one identity at one n.  A plain class rather than a
    dataclass, which would import ``dataclasses`` and ``inspect`` into every
    process; it pickles from the ``--jobs`` workers by its ``__dict__`` and
    takes extra attributes, which ``as_dict`` leaves out."""

    _fields = ("identity", "n", "params", "expected", "computed", "passed",
               "elapsed_seconds", "first_difference")

    def __init__(self, identity: str, n: int, params: dict | None = None,
                 expected: str = "", computed: str = "", passed: bool = False,
                 elapsed_seconds: float = 0.0, first_difference: str | None = None):
        self.identity = identity
        self.n = n
        self.params = {} if params is None else params
        self.expected = expected
        self.computed = computed
        self.passed = passed
        self.elapsed_seconds = elapsed_seconds
        self.first_difference = first_difference  # set on a failing report only

    def as_dict(self) -> dict:
        """The ``_fields`` in order, without a None first_difference; params
        is copied, so the dict shares no mutable state with the report."""
        d = {name: getattr(self, name) for name in self._fields}
        d["params"] = dict(self.params)
        if d["first_difference"] is None:
            del d["first_difference"]
        return d

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"IdentityReport({inner})"


def first_difference(expected, computed) -> str:
    """Index path, like [2][1], of the first entry where two unequal values
    differ, descending through lists and tuples while both sides are
    sequences; "" when they differ as a whole."""
    path = ""
    while isinstance(expected, (list, tuple)) and isinstance(computed, (list, tuple)):
        for i, (a, b) in enumerate(zip(expected, computed)):
            if a != b:
                path += f"[{i}]"
                expected, computed = a, b
                break
        else:  # equal up to the shorter length
            if len(expected) != len(computed):
                path += f"[{min(len(expected), len(computed))}]"
            break
    return path


def render(value, den: int = 1) -> str:
    """Exact text of a report value: a rational as p/q, a field element or a
    polynomial in canonical form, a tuple as (...) and a list as [...].  An
    int or a field element is read over ``den``, an int by one gcd.  A
    sequence renders each distinct element object once (``row-sums`` holds
    n references to one row), and an int, a bool or a Fraction inline."""
    if isinstance(value, (tuple, list)):
        texts = {}  # id -> text, for the elements, which outlive the dict
        for v in value:
            if id(v) not in texts:
                kind = type(v)
                if kind is int:
                    g = gcd(v, den)
                    text = str(v // g) if g == den else f"{v // g}/{den // g}"
                elif kind is bool:
                    text = str(v)
                elif kind is Fraction:
                    text = format_rational(v)
                else:
                    text = render(v, den)
                texts[id(v)] = text
        inner = ", ".join([texts[id(v)] for v in value])
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    if isinstance(value, CycloElem) and den != 1:
        value = CycloElem(value.ctx, value.num, value.den * den)
    if isinstance(value, (CPoly, CycloElem)):
        return value.render()
    if value is None or isinstance(value, bool):
        return str(value)
    if type(value) is int:
        g = gcd(value, den)
        return str(value // g) if g == den else f"{value // g}/{den // g}"
    return format_rational(value)


# -- determinant identities --------------------------------------------------


def _odd_range(a: int, b: int) -> tuple[int, ...]:
    return tuple(n for n in range(a, b + 1) if n % 2 == 1)


class DetIdentity(namedtuple("DetIdentity", "kind value slope grid oracle galois",
                             defaults=(False, False))):
    """det of the ``kind`` matrix at size n-1 (odd n) equals ``value(n)``.
    With a ``slope`` the claim is the affine split det[x + m_jk] = d0 + d1*x
    with (d0, d1) = (value(n), slope(n)); ``None`` means a plain det.
    ``oracle`` rows (zero diagonal) can cross-check the signed derangement
    sum; ``galois`` rows also get a galois-<name> root-independence check."""

    __slots__ = ()

    def claim(self, n: int):
        """value(n), or the pair (value(n), slope(n)) for an affine row."""
        return self.value(n) if self.slope is None else (self.value(n), self.slope(n))

    def split(self, d0, d1):
        """What ``claim`` states of the affine split (d0, d1): d0, or
        (d0, d1) on an affine row."""
        return d0 if self.slope is None else (d0, d1)

    def text(self, values) -> str:
        """Renders [det] or [det, derangement sum] as a det report line."""
        head = render(values[0]) if self.slope is None else f"(d0, d1) = {render(values[0])}"
        return head if len(values) == 1 else f"{head}; derangement sum {render(values[1])}"


DETS: dict[str, DetIdentity] = {
    # independent of x: the affine split is (closed form, 0)
    "a-det": DetIdentity(MatrixKind.A, a_det_value, lambda n: 0,
                         _odd_range(3, 25), oracle=True, galois=True),
    "c-det": DetIdentity(MatrixKind.C_HOLLOW, c_det_value, None,
                         _odd_range(3, 25), oracle=True, galois=True),
    # det[x + entries] = (nx + 1) d0
    "b-det": DetIdentity(MatrixKind.B, b_det_value, lambda n: n * b_det_value(n),
                         _odd_range(3, 25), galois=True),
    "tilde-a-det": DetIdentity(MatrixKind.TILDE_A, tilde_a_det_value, None,
                               _odd_range(3, 25)),
    "c1-det": DetIdentity(MatrixKind.C_PLUS_I, c1_det_value, None, _odd_range(3, 25)),
    # the algebraic image of the tangent determinant det[tan(pi (j-k)/n)]
    "s19-det": DetIdentity(MatrixKind.S19, s19_det_value, None, _odd_range(3, 13)),
}

# the kinds with a determinant identity, in MatrixKind order
DET_KINDS = {k.value: k for k in MatrixKind if any(d.kind is k for d in DETS.values())}


def _det(name: str, n: int, oracle: bool = False, force: bool = False):
    """The ``DETS[name]`` closed form at odd n, computed from the spectrum of
    the kind's circulant by ``kind_block_det``, with no matrix, no
    elimination and no field operation.  With ``oracle`` on a row that
    supports it, also recovers the value from the paper's signed derangement
    sum over the block expanded from ``residue_table``, at sizes up to
    ``combinatorics.SIGNED_SUM_GUARDRAIL`` unless forced: a zero diagonal
    restricts the Leibniz expansion to derangements."""
    det = DETS[name]
    run_oracle = det.oracle and oracle and \
        (n - 1 <= combinatorics.SIGNED_SUM_GUARDRAIL or force)
    expected = [det.claim(n)]
    computed = [det.split(*kind_block_det(det.kind, n))]
    if run_oracle:
        ctx = shared_context(n)
        block = circulant(ctx, residue_table(det.kind, ctx), n - 1)
        expected.append(det.value(n))
        computed.append(signed_derangement_sum(block, force=force))
    params = {"size": n - 1, "oracle": run_oracle} if det.oracle else {"size": n - 1}
    return params, expected, computed


# -- spectra -----------------------------------------------------------------


def _charpoly(kind: MatrixKind, n: int):
    """charpoly of the ``kind`` matrix at size n equals the product of
    (x - lambda) over ``spectrum(kind, n)``; for c1 that is
    prod_{s=1..n} (x - (s - (n-1)/2)), for two-c prod (x - (2s - n - 1))."""
    ctx = shared_context(n)
    target = spectrum_poly(ctx, spectrum(kind, n))
    return {"size": n}, target, build_matrix(kind, ctx, n).charpoly()


# -- eigenpairs and the eigenvector-eigenvalue identity ----------------------


def _row_tables(matrix: CMatrix) -> list[list[CycloElem]]:
    """The distinct row-relative tables of an n x n matrix M over Q(zeta_n),
    row 0's first: r_k = [m_(k, (k+u) mod n) for u = 1..n], row k read from
    the entry after its diagonal round to the diagonal.  A circulant has
    exactly one; another shape raises ValueError."""
    n = matrix.ctx.n
    if matrix.rows != n or matrix.cols != n:
        raise ValueError(f"row tables need {n} x {n} entries, got {matrix.rows} x {matrix.cols}")
    data, tables = matrix.data, []
    for k in range(n):
        table = [data[k * n + (k + u) % n] for u in range(1, n + 1)]
        if table not in tables:
            tables.append(table)
    return tables


def _twist_eigenvalues(matrix: CMatrix) -> list[CycloElem | None]:
    """[mu_s for s = 1..n]: mu_s is the eigenvalue of
    v(s) = (zeta^-s, zeta^-2s, ..., zeta^-ns) when M v(s) = mu_s v(s), and
    None when v(s) is not an eigenvector, for any n x n matrix M over
    Q(zeta_n); another shape raises ValueError.

    With 0-based indices and r_k[u] = m_(k, (k+u) mod n), row k read from
    its diagonal, (M v(s))_k = sum_c m_kc zeta^(-(c+1)s), and with
    c = (k + u) mod n that is zeta^(-(k+1)s) U_k(s) = v(s)_k U_k(s) for
    U_k(s) = sum_(u=0..n-1) r_k[u] zeta^(-us).  Every v(s)_k is a unit, so
    v(s) is an eigenvector exactly when U_k(s) = U_0(s) for every k, and
    then mu_s = U_0(s).

    A kind's n x n circulant (``build_matrix``) keeps its residue table t
    and the unreduced vectors V_u = n * t[u], and its one row table is
    r_0[u] = t[-u mod n], so mu_s = t[0] + N_s/n for the twisted sums N_s of
    V_(-r mod n) at r = 1..n-1: one ``_rational_twisted_sums`` pass, the
    ints read mod Phi_n(2^j), as the det rows read their eigenvalues.  Every
    other matrix, and a table that pass refuses, takes the route that holds
    for any matrix: rows with the same table have the same U_k, so each
    distinct table of ``_row_tables`` takes one ``_twisted_vector_sums``
    pass over its lifts, the diagonal at r = n, where the twist is
    zeta^(-sn) = 1.
    """
    ctx, n = matrix.ctx, matrix.ctx.n
    table = matrix._table
    if table is not None and matrix.rows == n:
        sums = _rational_twisted_sums(ctx, table[1][::-1])
        if sums is not None:
            diagonal, zeros = table[0][0], [0] * (ctx.degree - 1)
            b, q = diagonal.num[0], diagonal.den  # t[0] = b/q
            return [CycloElem(ctx, [b * n + q * sums[s], *zeros], q * n) for s in (*range(1, n), 0)]
    first, *others = [_twisted_vector_sums(ctx, lifts, den)
                      for den, lifts in map(_lift, _row_tables(matrix))]
    return [first[s] if all(u[s] == first[s] for u in others) else None
            for s in (*range(1, n), 0)]


def _eigenpairs(kind: MatrixKind, n: int):
    """For every s = 1..n reads mu_s, the eigenvalue of v(s) or None when
    v(s) is not an eigenvector, and compares the list with the labels of
    ``spectrum``, and compares charpoly(M) with the product over the
    spectrum (the multiset cross-check).  ``_twist_eigenvalues`` reads every
    mu_s off one twisted-sum pass and holds for any matrix, so a matrix
    that is not circulant fails the check rather than being assumed away."""
    lams = spectrum(kind, n)
    ctx = shared_context(n)
    matrix = build_matrix(kind, ctx, n)
    return ({"size": n}, (lams, spectrum_poly(ctx, lams)),
            (_twist_eigenvalues(matrix), matrix.charpoly()))


def _cyclic_minor(matrix: CMatrix, j: int) -> CMatrix:
    """The j-th principal minor with rows and columns listed cyclically from
    j + 1: P M_j P^T for a cyclic shift P, so it has the charpoly of M with
    row and column j deleted; for a circulant matrix it is the same for
    every j.  The minor of a kind's n x n circulant is its leading
    (n - 1) x (n - 1) block, built from the residue table it keeps and
    keeping that table, as ``build_matrix`` at size n - 1 would."""
    n, table = matrix.rows, matrix._table
    if table is not None and n == matrix.ctx.n:
        return _circulant(matrix.ctx, table[0], n - 1, table[1])
    keep = [i % n for i in range(j, j + n - 1)]  # rows j+1, ..., n, 1, ..., j-1
    return CMatrix(matrix.ctx, [[matrix[r, c] for c in keep] for r in keep])


def _eei(kind: MatrixKind, n: int):
    """Eigenvector-eigenvalue identity at the zero eigenvalue: for every
    j = 1..n, charpoly of the j-th principal minor evaluated at 0 equals
    (1/n) prod (0 - lambda) over the nonzero eigenvalues, 1/n being the
    squared modulus of every component of the zero-eigenvalue eigenvector.
    The minor is ``_cyclic_minor(M, j)`` = P M_j P^T.  Every cyclic minor of
    a circulant (one table in ``_row_tables``) is the first, so it costs one
    minor and one charpoly, and any other matrix n of each."""
    others = spectrum(kind, n)
    others.remove(Fraction(0))  # exactly one zero eigenvalue for odd n
    target = Fraction(1, n)
    for lam in others:
        target *= -lam
    matrix = build_matrix(kind, shared_context(n), n)
    minors = 1 if len(_row_tables(matrix)) == 1 else n
    # p_{M_j}(0), which a monic charpoly keeps as its x^0 coefficient
    computed = [_cyclic_minor(matrix, j).charpoly().coeffs[0] for j in range(1, minors + 1)]
    return {"size": n}, [target] * n, computed * (n // minors)


# -- root sums and row sums ---------------------------------------------------


def _root_sums(n: int):
    """Weighted sums over the nontrivial n-th roots:
    sum_{0<r<n} zeta^(-rs)/(1 - zeta^r) = (n-1)/2 - s for every s, and for
    odd n also sum_{0<r<n} zeta^(-rs)/(1 + zeta^r) = ((-1)^s n - 1)/2.
    Each table entry stays the Galois-equivariant int vector of
    n/(1 -+ zeta^r) in Z[x]/(x^n - 1), so ``_vector_sums`` reads each sum of
    a half, times n, as one int mod Phi_n(2^j), compared with n times the
    closed form and read over n in the report.  The vector builders are
    module globals looked up at each call, so a patched one is seen."""
    ctx = shared_context(n)
    expected = [n * (n - 1) // 2 - n * s for s in range(n)]
    computed = _vector_sums(ctx, [_inv_one_minus_zeta_vector(n, r) for r in range(1, n)])
    if n % 2 == 1:
        expected += [n * ((-1) ** s * n - 1) // 2 for s in range(n)]
        computed = computed + _vector_sums(ctx, [_inv_one_plus_zeta_vector(n, r)
                                                 for r in range(1, n)])
    return {"checks": len(computed)}, expected, computed


def _row_sums(n: int):
    """For every k and s: sum_{j != k} ratio(zeta^(j-k)) zeta^(s(k-j))
    equals n - 2s for 0 < s < n and 0 for s = 0 (independently of k): as j
    runs over j != k, r = (j - k) mod n runs over 1..n-1 once each, so every
    row's sum is twisted sum s of the table.  The table stays the unreduced
    ``residue_vectors``, and ``_vector_sums`` reads each of the n sums as
    one integer mod Phi_n(2^j), n times the sum, compared with n(n - 2s)
    and read over n in the report."""
    _, vectors = residue_vectors(MatrixKind.A, n)
    expected = [[0 if s == 0 else n * (n - 2 * s) for s in range(n)]] * n
    computed = [_vector_sums(shared_context(n), vectors)] * n  # every row k is the k-free sum
    return {"checks": n * n}, expected, computed


def _partial_fraction(n: int):
    """Cross-multiplied partial-fraction expansion holds for every s."""
    computed = polynomials.partial_fraction_check(shared_context(n))
    return {"checks": n}, [True] * n, computed


def _row_sum_x(n: int):
    """Cross-multiplied x-weighted row-sum identity holds for every k, s."""
    computed = polynomials.row_sum_x_check(shared_context(n))
    return {"checks": n * n}, [[True] * n] * n, computed


# -- root independence --------------------------------------------------------


def _galois(name: str, n: int):
    """Recomputes the ``DETS[name]`` determinant from the residue table mapped
    entry by entry through each automorphism zeta -> zeta^t (t coprime to
    n); all primitive-root choices must yield the identical value.  The map
    takes lambda_s to the eigenvalue of index s*t of the conjugate table, so
    the row checks ``galois`` on every entry, and the spectrum of each
    conjugate, against the one claim.  Lifts of reduced entries, padded to
    length n, are in general not equivariant, so they sum in the cyclic ring."""
    det = DETS[name]
    ctx = shared_context(n)
    ts = coprime_residues(n)
    table = residue_table(det.kind, ctx)
    pad = [0] * (n - ctx.degree)
    computed = []
    for t in ts:
        diagonal, *entries = [e.galois(t) for e in table]
        den, lifts = _lift(entries)
        d0, d1 = _spectral_det(ctx, diagonal.as_rational(), [v + pad for v in lifts], den)
        computed.append(det.split(d0, d1))
    return {"automorphisms": len(ts)}, [det.claim(n)] * len(ts), computed


# -- registry -----------------------------------------------------------------


class IdentityInfo(namedtuple("IdentityInfo",
                              "check default_grid odd_only supports_oracle text over_n",
                              defaults=(False, render, False))):
    """One identity: ``check(n)``, or ``check(n, oracle, force)`` on an
    oracle row, returns (params, expected, computed) with the two sides as
    exact values, and ``text`` renders them for the report.  An ``over_n``
    row's values are n times the sums it checks, and ``text`` gets den=n."""

    __slots__ = ()

    def admits(self, n: int) -> bool:
        """Odd n >= 3 for an odd-only identity, any n >= 2 otherwise."""
        return n >= 3 and n % 2 == 1 if self.odd_only else n >= 2


_ODD_3_13, _TO_12 = _odd_range(3, 13), tuple(range(2, 13))

IDENTITIES: dict[str, IdentityInfo] = {
    **{name: IdentityInfo(partial(_det, name), det.grid, True, det.oracle, det.text)
       for name, det in DETS.items()},
    "c1-spectrum": IdentityInfo(partial(_charpoly, MatrixKind.C_PLUS_I), _TO_12, False),
    "two-c-spectrum": IdentityInfo(partial(_charpoly, MatrixKind.TWO_C), _TO_12, False),
    "eigen-a": IdentityInfo(partial(_eigenpairs, MatrixKind.A), _ODD_3_13, True),
    "eigen-b": IdentityInfo(partial(_eigenpairs, MatrixKind.B), _ODD_3_13, True),
    "eigen-c1": IdentityInfo(partial(_eigenpairs, MatrixKind.C_PLUS_I), _ODD_3_13, False),
    "eei-a": IdentityInfo(partial(_eei, MatrixKind.A), _ODD_3_13, True),
    "eei-b": IdentityInfo(partial(_eei, MatrixKind.B), _ODD_3_13, True),
    "eei-c1": IdentityInfo(partial(_eei, MatrixKind.C_PLUS_I), _ODD_3_13, True),
    "root-sums": IdentityInfo(_root_sums, tuple(range(2, 51)), False, over_n=True),
    "row-sums": IdentityInfo(_row_sums, _TO_12, False, over_n=True),
    "partial-fraction": IdentityInfo(_partial_fraction, _TO_12, False),
    "row-sum-x": IdentityInfo(_row_sum_x, _TO_12, False),
    **{f"galois-{name}": IdentityInfo(partial(_galois, name), _odd_range(3, 9), True)
       for name, det in DETS.items() if det.galois},
}


def run_identity(name: str, n: int, oracle: bool = False, force: bool = False) -> IdentityReport:
    """Checks identity ``name`` at n and reports it: rejects an n the
    identity does not admit, times the check, passes exactly when the two
    exact values are equal and renders both for output; a failing report
    also names the ``first_difference`` between them."""
    info = IDENTITIES[name]
    if not info.admits(n):
        raise ValueError(f"requires odd n >= 3, got {n}" if info.odd_only else "requires n >= 2")
    t0 = time.perf_counter()
    params, expected, computed = \
        info.check(n, oracle, force) if info.supports_oracle else info.check(n)
    passed = expected == computed
    text = partial(info.text, den=n) if info.over_n else info.text
    return IdentityReport(
        identity=name, n=n, params=params,
        expected=text(expected), computed=text(computed),
        passed=passed,
        elapsed_seconds=time.perf_counter() - t0,
        first_difference=None if passed else first_difference(expected, computed),
    )

"""Exact dense linear algebra over Q(zeta_n).

Determinants use one Gaussian elimination with exact field division (first
nonzero pivot down the column, sign tracked through row swaps), which also
yields the determinant of the leading (d-1)x(d-1) block.  The affine split
det[x + m_jk] = d0 + d1*x is one elimination of a bordered matrix whose
leading block is the difference matrix m_jk - m_j0 - m_0k + m_00.  No
library path eliminates: it reads circulant truncations off their spectrum
(``identities.circulant_block_det``), and elimination is the direct API and
the tests' reference for that route.  The characteristic polynomial uses
Berkowitz's algorithm, which is division-free, so it runs on plain ints:
each entry is lifted over one common denominator and packed into one int of
the ring Z/(2^(kn) - 1), with x -> 2^k.  The matrix-vector product is a
plain loop of field operations.
"""

from __future__ import annotations

from math import isqrt, prod
from operator import mul

from .cyclotomic import CycloContext, CycloElem, _entry, _lift, _pack, _reduce, _unpack
from .polynomials import CPoly


class CMatrix:
    """Row-major dense matrix of CycloElem sharing one context."""

    __slots__ = ("ctx", "rows", "cols", "data")

    def __init__(self, ctx: CycloContext, rows_of_entries):
        data: list[CycloElem] = []
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0]) if rows else 0
        for row in rows_of_entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            data.extend(_entry(ctx, e) for e in row)
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)

    def __getitem__(self, rc) -> CycloElem:
        r, c = rc
        return self.data[r * self.cols + c]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (self.ctx.n, self.rows, self.cols, self.data) == \
            (other.ctx.n, other.rows, other.cols, other.data)

    def __hash__(self):
        return hash((self.ctx.n, self.rows, self.cols, self.data))

    def __repr__(self):
        return f"CMatrix({self.rows}x{self.cols}, n={self.ctx.n})"

    # ------------------------------------------------------------------

    def det(self) -> CycloElem:
        """Exact determinant; the empty matrix has determinant 1."""
        if not self.is_square():
            raise ValueError("determinant requires a square matrix")
        dim = self.rows
        if dim == 0:
            return self.ctx.from_rational(1)
        return _eliminate([list(self.data[r * dim:(r + 1) * dim]) for r in range(dim)], self.ctx)[0]

    def charpoly(self) -> CPoly:
        """Monic characteristic polynomial det(x*I - M) by Berkowitz's
        division-free algorithm (Inf. Process. Lett. 18, 1984), on ints.

        For each trailing submatrix [[a, R], [C, A]], of dimension d, the
        charpoly is the lower-triangular Toeplitz matrix with first column
        1, -a, -R*C, -R*A*C, ..., -R*A^(d-2)*C times the charpoly of A:
        products and sums only, so it runs in any commutative ring.  It runs
        in Z/(2^(kn) - 1), one int per entry: each entry is lifted over the
        common denominator D to L_jk = D*m_jk in Z[x]/(x^n - 1) and packed
        by x -> 2^k, a ring map since x^n -> 2^(kn) = 1.  Coefficient i
        (from the top) is then c_i(L) = D^i c_i(M), reduced once per dot
        product and unpacked once, then reduced mod Phi_n and divided by D^i.

        Only c_i(L) must fit in the slots: the packing is a ring map, so the
        intermediate values may wrap.  A coordinate of f in Z[x]/(x^n - 1)
        is (1/n) sum_w f(w) w^(-j) over the n-th roots w, so it is at most
        max_w |c_i(L(w))|.  c_i is a signed sum of principal i x i minors,
        and Hadamard bounds each by the product of its rows' 2-norms, at
        most r_j = sqrt(sum_k ||L_jk||_1^2) for row j, as |w| = 1.  So
        |c_i(L(w))| <= e_i(r) <= prod_j (1 + r_j) <= prod_j (2 + isqrt(r_j^2))
        = P < 2^bitlen(P), and k - 1 = bitlen(P) makes every |coordinate|
        < 2^(k-1), as ``_unpack`` needs.

        The slots are padded to the worst case.  For the full c1 matrix at
        n = 13 they are 100 bits for 85-bit coordinates (the l1 row-sum
        bound would take 123 bits and 0.033 s against 0.023 s, and the field
        Berkowitz took 0.17 s).  At n = 29 they are 307 bits for 272, and
        this runs at about 0.75x the speed of the field Berkowitz; every
        charpoly that the identities take is at n <= 13.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial requires a square matrix")
        ctx, dim, n = self.ctx, self.rows, self.ctx.n
        den, lifts = _lift(self.data)
        norms = [sum(map(abs, v)) for v in lifts]
        k = prod(2 + isqrt(sum(x * x for x in norms[j * dim:(j + 1) * dim]))
                 for j in range(dim)).bit_length() + 1
        modulus = (1 << (k * n)) - 1
        packed = [_pack(v, k) for v in lifts]
        m = [packed[j * dim:(j + 1) * dim] for j in range(dim)]
        poly = [1]  # charpoly of the empty trailing submatrix, highest first
        for c in range(dim - 1, -1, -1):
            sub = [r[c + 1:] for r in m[c + 1:]]  # A
            row, col = m[c][c + 1:], [r[c] for r in m[c + 1:]]
            toeplitz = [1, -m[c][c]]
            for i in range(dim - c - 1):
                if i:
                    col = [sum(map(mul, r, col)) % modulus for r in sub]
                toeplitz.append(-sum(map(mul, row, col)) % modulus)
            poly = [sum(map(mul, toeplitz[i::-1], poly)) % modulus for i in range(len(poly) + 1)]
        return CPoly(ctx, [CycloElem(ctx, _reduce(ctx, _unpack(p, k, n)), den ** i)
                           for i, p in enumerate(poly)][::-1])

    def matvec(self, vec) -> list[CycloElem]:
        """M v by field products and sums, sharing no packed-ring code with
        ``identities.twisted_products``, which the tests check against it."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match columns")
        ctx, cols = self.ctx, self.cols
        vec = [_entry(ctx, e) for e in vec]
        zero = ctx.from_rational(0)
        return [sum(map(mul, self.data[r * cols:(r + 1) * cols], vec), zero)
                for r in range(self.rows)]

    def det_affine(self) -> tuple[CycloElem, CycloElem]:
        """(d0, d1) with det[x + m_jk] = d0 + d1*x for every x, by one
        elimination.

        Subtract row 0 of M + xJ (J all ones) from the other rows, then
        column 0 from the other columns, and move index 0 last by the same
        permutation of rows and columns, which keeps the sign.  That gives
        the bordered matrix T = [[mm', c], [r, m00 + x]] with mm' the
        difference matrix m_jk - m_j0 - m_0k + m00 over j, k >= 1,
        c_j = m_j0 - m00 and r_k = m_0k - m00.  Only the corner holds x, so
        det T is linear in it: d0 = det(T at x = 0) = det(M) and
        d1 = det(mm'), the leading block, both read off the one elimination
        of T by ``_eliminate``.
        """
        if not self.is_square():
            raise ValueError("requires a square matrix")
        dim = self.rows
        if dim < 2:  # det[] = 1 and det[x + m00] = m00 + x
            return self.det(), self.ctx.from_rational(dim)
        m00 = self[0, 0]
        bordered = []
        for j in range(1, dim):
            mj0 = self[j, 0]
            bordered.append([self[j, k] - mj0 - self[0, k] + m00 for k in range(1, dim)]
                            + [mj0 - m00])
        bordered.append([self[0, k] - m00 for k in range(1, dim)] + [m00])
        return _eliminate(bordered, self.ctx)


def _eliminate(a: list[list[CycloElem]], ctx: CycloContext) -> tuple[CycloElem, CycloElem]:
    """(det A, det of the leading (d-1)x(d-1) block of A) for the d x d row
    lists ``a`` (d >= 1, overwritten) by one Gaussian elimination.

    Each column pivots on the first nonzero entry at or below the diagonal,
    so while the pivots come from rows 0..d-2 the steps on those rows are
    the elimination of the leading block, and the signed product of the
    first d-1 pivots is its determinant.  A column before the last takes the
    last row as pivot, or finds none, only when every block row at or below
    the diagonal is zero there; then the block's own elimination finds no
    pivot, so the block is singular and its determinant is 0.
    """
    dim = len(a)
    acc, zero = ctx.from_rational(1), ctx.from_rational(0)
    negate = False
    leading = None  # the block's determinant, once known
    for col in range(dim):
        if col == dim - 1 and leading is None:
            leading = acc * -1 if negate else acc
        pivot_row = next((r for r in range(col, dim) if a[r][col]), None)
        if pivot_row is None:
            return zero, zero if leading is None else leading
        if pivot_row == dim - 1 and leading is None:
            leading = zero
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            negate = not negate
        pivot = a[col][col]
        acc = acc * pivot
        if col == dim - 1:
            break
        pivot_inv = pivot.inverse()
        top = a[col]
        for r in range(col + 1, dim):
            lead = a[r][col]
            if lead:
                f = lead * pivot_inv
                row = a[r]
                for c in range(col + 1, dim):
                    row[c] = row[c] - f * top[c]
    return (acc * -1 if negate else acc), leading


"""Exact dense linear algebra over Q(zeta_n).

Determinants use one Gaussian elimination with exact field division (first
nonzero pivot down the column, sign tracked through row swaps), which also
yields the determinant of the leading (d-1)x(d-1) block.  The affine split
det[x + m_jk] = d0 + d1*x is one elimination of a bordered matrix whose
leading block is the difference matrix m_jk - m_j0 - m_0k + m_00.  No
library path eliminates: it reads circulant truncations off their spectrum
(``identities.circulant_block_det``), and elimination is the direct API and
the tests' reference for that route.  The characteristic polynomial uses
Berkowitz's algorithm, which is division-free: it needs only field products
and sums.
"""

from __future__ import annotations

from .cyclotomic import CycloContext, CycloElem
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
            for e in row:
                if not isinstance(e, CycloElem):
                    e = ctx.from_rational(e)
                elif e.ctx.n != ctx.n:
                    raise ValueError("entry from a different context")
                data.append(e)
        self.ctx = ctx
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)

    def __getitem__(self, rc) -> CycloElem:
        r, c = rc
        return self.data[r * self.cols + c]

    def row_lists(self) -> list[list[CycloElem]]:
        return [list(self.data[r * self.cols:(r + 1) * self.cols]) for r in range(self.rows)]

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
        if self.rows == 0:
            return self.ctx.one()
        return _eliminate(self.row_lists(), self.ctx)[0]

    def charpoly(self) -> CPoly:
        """Monic characteristic polynomial det(x*I - M) by Berkowitz's
        division-free algorithm (Inf. Process. Lett. 18, 1984).  For each
        trailing submatrix [[a, R], [C, A]], of dimension d, the charpoly is
        the lower-triangular Toeplitz matrix with first column 1, -a, -R*C,
        -R*A*C, ..., -R*A^(d-2)*C times the charpoly of A: matrix-vector
        products only, with no inverse and no pivoting."""
        if not self.is_square():
            raise ValueError("characteristic polynomial requires a square matrix")
        ctx = self.ctx
        dim = self.rows
        m = self.row_lists()
        poly = [ctx.one()]  # charpoly of the empty trailing submatrix, highest first
        for k in range(dim - 1, -1, -1):
            sub = [r[k + 1:] for r in m[k + 1:]]  # A
            row, col = m[k][k + 1:], [r[k] for r in m[k + 1:]]
            toeplitz = [ctx.one(), -m[k][k]]
            for i in range(dim - k - 1):
                if i:
                    col = [_dot(r, col, ctx) for r in sub]
                toeplitz.append(-_dot(row, col, ctx))
            poly = [_dot(toeplitz[i::-1], poly, ctx) for i in range(len(poly) + 1)]
        return CPoly(ctx, poly[::-1])

    def matvec(self, vec) -> list[CycloElem]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match columns")
        return [_dot(row, vec, self.ctx) for row in self.row_lists()]

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
    acc = ctx.one()
    negate = False
    leading = None  # the block's determinant, once known
    for col in range(dim):
        if col == dim - 1 and leading is None:
            leading = -acc if negate else acc
        pivot_row = next((r for r in range(col, dim) if a[r][col]), None)
        if pivot_row is None:
            return ctx.zero(), ctx.zero() if leading is None else leading
        if pivot_row == dim - 1 and leading is None:
            leading = ctx.zero()
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
    return (-acc if negate else acc), leading


def _dot(xs, ys, ctx: CycloContext) -> CycloElem:
    """Sum of the products of paired entries, skipping zero factors."""
    acc = ctx.zero()
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


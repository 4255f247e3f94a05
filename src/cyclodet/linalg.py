"""Exact dense linear algebra over Q(zeta_n).

Determinants use one Gaussian elimination with exact field division (first
nonzero pivot down the column, sign tracked through row swaps), which also
yields the determinant of the leading (d-1)x(d-1) block.  The affine split
det[x + m_jk] = d0 + d1*x is one elimination of a bordered matrix whose
leading block is the difference matrix m_jk - m_j0 - m_0k + m_00.  No
library path eliminates: it reads circulant truncations off their spectrum
(``identities._spectral_det``), and elimination is the direct API and
the tests' reference for that route.  The characteristic polynomial uses
Berkowitz's algorithm, which is division-free, so it runs on plain ints:
each entry is lifted over one common denominator D and packed into one int
of a ring of ints.  The matrix-vector product is a plain loop of field
operations.

Which ring depends on a property of the input that ``_equivariant`` proves.
Label the rows and columns of a d x d matrix M by i (d = n) or i + 1
(d = n - 1), so that t*label mod n permutes the labels for every t coprime
to n.  If sigma_t(M[a][b]) = M[ta][tb] for each t of a generating set of
(Z/n)^x, then sigma_t(M) = P_t M P_t^T for the permutation matrix P_t, so
sigma_t fixes every coefficient of det(x*I - M); fixed by the whole Galois
group, they are rational.  The lift L = D*M has entries in Z[zeta], so each
c_i(L) = D^i c_i(M) is then an integer N_i, and the Hadamard bound of
``charpoly`` gives |N_i| <= P < 2^(k-1).  zeta -> 2^j is a ring map
Z[zeta] -> Z/Phi_n(2^j), as Phi_n(zeta) = 0, so with the least j for which
m = Phi_n(2^j) > 2^k the loop runs mod m, one small int per entry, and N_i
is the residue of c_i(L) in (-m/2, m/2).  Every kind's circulant and its
cyclic minors pass the check (sigma_t of the entry at u is the entry at
t*u); any other matrix runs in Z/(2^(kn) - 1), with x -> 2^k, and each
coefficient is unpacked into its n coordinates.

Those circulants and minors are also Toeplitz: entry (r, k) depends only
on r - k.  In the rational ring, a matrix whose slot index (``_slots``) is
Toeplitz gets each Berkowitz matvec A*col as one product of two packed ints
(``_toeplitz_berkowitz``; the slot width is proved in ``charpoly``).  Every
other matrix keeps the dense loop: one that is not Toeplitz has no symbol
to pack, and the cyclic ring serves only matrices that no ``verify`` row
builds, whose kn-bit residues would make each slot over 2kn bits wide.

A kind's circulant (``identities.build_matrix``) and its cyclic minor keep
the kind's residue table in ``_table``: the n reduced entries t[u], with
M[a][b] = t[(a - b) mod n], and the unreduced int vectors V_u = n*t[u] in
Z[x]/(x^n - 1) they were reduced from.  There ``charpoly`` needs neither
the slot index nor a sigma_t of any entry.  sigma_t acts on Z[x]/(x^n - 1)
as the slot permutation x^i -> x^(ti), a ring map that commutes with the
reduction mod Phi_n, so sigma_t(V_u) = V_(tu mod n) as vectors gives
sigma_t(t[u]) = t[tu]; t[0] is rational; and then
sigma_t(M[a][b]) = t[t(a - b)] = M[ta][tb] with either labelling, the
check above.  That is n - 1 tuple comparisons per generator
(``polynomials._equivariant_vectors``, which ``_rational_twisted_sums``
runs too), and the diagonals are s(v) = t[v mod n].  A table whose vectors
fail it, and every matrix built by ``CMatrix(...)`` or
``identities.circulant``, take the slot route, the tests' reference.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt, prod
from operator import itemgetter, mul

from .cyclotomic import (CycloContext, CycloElem, _entry, _generators, _lift, _pack, _phi_modulus,
                         _reduce, _unpack)
from .polynomials import CPoly, _equivariant_vectors


class CMatrix:
    """Row-major dense matrix of CycloElem sharing one context.  A kind's
    circulant (``identities.build_matrix``) and its cyclic minor also keep
    the kind's residue table in ``_table`` (see ``_circulant``); every other
    matrix has None there."""

    __slots__ = ("ctx", "rows", "cols", "data", "_table")

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
        self._table = None

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
        products and sums only, so it runs in any commutative ring.  Each
        entry is lifted over the common denominator D to L_jk = D*m_jk, an
        int vector over 1, zeta, ..., and coefficient i (from the top) is
        c_i(L) = D^i c_i(M), reduced once per dot product.  Each distinct
        entry value is lifted, measured and packed once (a circulant holds
        n of them), and the d^2 slots of ``_slots`` index those results.

        The bound.  A coordinate of f in Z[x]/(x^n - 1) is
        (1/n) sum_w f(w) w^(-j) over the n-th roots w, so it is at most
        max_w |c_i(L(w))|.  c_i is a signed sum of principal i x i minors,
        and Hadamard bounds each by the product of its rows' 2-norms, at
        most r_j = sqrt(sum_k ||L_jk||_1^2) for row j, as |w| = 1.  So
        |c_i(L(w))| <= e_i(r) <= prod_j (1 + r_j) <= prod_j (2 + isqrt(r_j^2))
        = P < 2^bitlen(P), and k - 1 = bitlen(P).  For the full c1 matrix at
        n = 13 that is 100 bits for 85-bit coordinates; the l1 row-sum bound
        would take 123.

        The rational ring, when ``_equivariant`` holds.  sigma_t(M) is then
        P_t M P_t^T for a permutation P_t, so sigma_t(c_i(M)) = c_i(M) for
        each generator t, and c_i(M) is rational; c_i(L) is a rational
        algebraic integer N_i, with |N_i| <= P < 2^(k-1).  zeta -> 2^j is
        a ring map Z[zeta] -> Z/m for m = Phi_n(2^j), so the loop runs mod
        the least such m > 2^k on ``_pack(lift, j)`` and reads N_i as the
        residue of c_i(L) in (-m/2, m/2), which holds every |N| < 2^(k-1).
        For the full a matrix, best of 10-20 runs, this takes 0.8-1.3 ms
        against 3.4-3.8 ms in the cyclic ring at n = 11, and 21-32 ms
        against 1.6 s at n = 25.

        A kind's table (see the module docstring), when its vectors pass
        ``_equivariant_vectors``: the matrix is rational and Toeplitz with
        s(v) = t[v mod n], and row r of the d x d block holds t[(r - k) mod n]
        for k < d, so every t[u] at d = n and every one but t[r + 1] at
        d = n - 1; the row norms of the bound are read off the n lifts.
        Those are the lifts of the reduced entries, not the vectors V_u:
        the bound holds for any lift over one denominator, and the vectors,
        over n, widen the ring where t[u] is over a proper divisor of n
        (the a matrix at n = 25: k = 260 bits against 212, t[u] being over
        5), while at n = 13, 15 and 21 they save only 6-8% of k.

        The Toeplitz matvec, in the rational ring.  When row r of the slot
        index from column 1 equals row r - 1 up to its last column,
        M[r][k] = s(r - k), and so does every trailing block: A[r][k] =
        s(r - k) at size m.  Pack s(-(m-1)), ..., s(m-1) (slots 0..2m-2)
        and col (slots 0..m-1) in W-bit slots, every residue first reduced
        into [0, modulus).  Slot m - 1 + r of their product is then
        sum_k s(r - k) col[k] = (A*col)[r], if no slot carries.  None does:
        a slot of the product sums at most m products of two residues, each
        in [0, (modulus - 1)^2], and m <= d - 1 for the d x d matrix M, so
        the slot lies in [0, (d - 1)(modulus - 1)^2], below 2^W for
        W = bitlen((d - 1)(modulus - 1)^2).  Nothing is negative, so there
        is no borrow either, and W-bit masks read each slot exactly.  -J
        reaches the bound: every residue is modulus - 1, and the first
        product on the (d-1)-block holds the bound in each slot it reads.
        The dense loop is kept for every other matrix.

        Otherwise the loop runs in Z/(2^(kn) - 1), packing by x -> 2^k, a
        ring map from Z[x]/(x^n - 1) since x^n -> 2^(kn) = 1, and each
        c_i(L) is unpacked once, reduced mod Phi_n and divided by D^i.  Only
        c_i(L) must fit in the slots, as the packing is a ring map, and the
        bound makes every |coordinate| < 2^(k-1), as ``_unpack`` needs.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial requires a square matrix")
        ctx, dim, n = self.ctx, self.rows, self.ctx.n
        table = self._table
        if table is not None and _equivariant_vectors(n, table[1]):
            entries, where = table[0], None  # rational and Toeplitz, with s(v) = t[v mod n]
        else:
            entries, where = _slots(self)
        den, lifts = _lift(entries)
        norms = [sum(map(abs, v)) ** 2 for v in lifts]
        if where is None:  # row r holds every t[u], or every t[u] but t[r + 1] at d = n - 1
            total = sum(norms)
            row_norms = [total - norms[(r + 1) % n] * (dim < n) for r in range(dim)]
        else:
            row_norms = [sum(map(norms.__getitem__, where[r * dim:(r + 1) * dim]))
                         for r in range(dim)]
        k = prod(2 + isqrt(w) for w in row_norms).bit_length() + 1
        rational = where is None or _equivariant(self, entries, where)
        if rational:
            j, modulus = _phi_modulus(ctx, 1 << k)
            packed = [_pack(v, j) % modulus for v in lifts]
        else:
            modulus = (1 << (k * n)) - 1
            packed = [_pack(v, k) for v in lifts]
        if where is None:
            poly = _toeplitz_berkowitz([packed[v % n] for v in range(1 - dim, dim)], modulus)
        elif rational and all(where[r * dim + 1:(r + 1) * dim] == where[(r - 1) * dim:r * dim - 1]
                              for r in range(1, dim)):
            # s(-(d-1)), ..., s(d-1) of M[r][k] = s(r - k): row 0 backwards, then column 0
            poly = _toeplitz_berkowitz(
                list(map(packed.__getitem__, where[dim - 1:0:-1] + where[::dim])), modulus)
        else:
            poly = _dense_berkowitz(
                [list(map(packed.__getitem__, where[r * dim:(r + 1) * dim])) for r in range(dim)],
                modulus)
        if rational:
            half, zeros = modulus >> 1, [0] * (ctx.degree - 1)
            return CPoly(ctx, [CycloElem(ctx, [p - modulus if p > half else p, *zeros], den ** i)
                               for i, p in enumerate(poly)][::-1])
        return CPoly(ctx, [CycloElem(ctx, _reduce(ctx, _unpack(p, k, n)), den ** i)
                           for i, p in enumerate(poly)][::-1])

    def matvec(self, vec) -> list[CycloElem]:
        """M v by field products and sums, sharing no packed-ring code with
        ``identities._twist_eigenvalues``, which the tests check against the
        eigenvalues read off the products M v(s)."""
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


@lru_cache(maxsize=None)
def _circulant_index(n: int, size: int) -> tuple[int, ...]:
    """(j - k) mod n for row j, column k of a size x size block, row-major."""
    return tuple((j - k) % n for j in range(size) for k in range(size))


def _circulant(ctx: CycloContext, table, size: int, vectors=None) -> CMatrix:
    """The leading size x size block (size n - 1 or n) of the circulant with
    row j, column k holding table[(j - k) mod n], for the n field elements
    ``table`` of ctx: each entry is the table's object, read through the
    cached index, with no coercion.  Given ``vectors``, the unreduced int
    vectors of n * table[u] for u = 1..n-1 that the table was reduced from
    (``identities.residue_vectors``), the matrix keeps (table, vectors) as
    its ``_table``."""
    n = ctx.n
    if size not in (n - 1, n):
        raise ValueError(f"size must be {n - 1} or {n}")
    matrix = object.__new__(CMatrix)
    matrix.ctx, matrix.rows, matrix.cols = ctx, size, size
    matrix.data = tuple(map(table.__getitem__, _circulant_index(n, size)))
    matrix._table = None if vectors is None else (table, vectors)
    return matrix


def _slots(matrix: CMatrix) -> tuple[list[CycloElem], list[int]]:
    """(entries, where): the distinct entry values of the matrix, each once,
    and the slot in ``entries`` of each of its d^2 entries, row-major.
    Entries are grouped by object first, so a circulant's d^2 entries cost
    one dict lookup each and its n distinct objects one value key each."""
    keys = list(map(id, matrix.data))
    entries, by_value, slot = [], {}, {}
    for key, e in dict(zip(keys, matrix.data)).items():
        value = (e.num, e.den)
        if value not in by_value:
            by_value[value] = len(entries)
            entries.append(e)
        slot[key] = by_value[value]
    return entries, list(map(slot.__getitem__, keys))


@lru_cache(maxsize=None)
def _label_permutation(n: int, dim: int, t: int) -> itemgetter:
    """Picks, from a row-major list of d^2 values, the value at
    (t*a, t*b) for each position (a, b), with the labels of the module
    docstring (i, or i + 1 at dimension n - 1)."""
    shift = n - dim
    index = [t * (i + shift) % n - shift for i in range(dim)]  # the index of label t*label
    return itemgetter(*[ta * dim + tb for ta in index for tb in index])


def _equivariant(matrix: CMatrix, entries: list[CycloElem], where: list[int]) -> bool:
    """Whether sigma_t(M[a][b]) = M[ta][tb] for each t of ``_generators(n)``,
    with the labels of the module docstring, so that the charpoly is
    rational; ``entries`` and ``where`` are the slot index of ``_slots``.
    sigma_t of each distinct entry is computed once, as
    ``CycloElem.galois`` does, by the slot permutation k -> kt mod n of its
    integer numerator and one reduction (sigma_t keeps the content of the
    numerator, so the image has the same denominator), and its slot is
    found by value.  The check is then one comparison of the d^2 image
    slots with the slot list under the label permutation."""
    ctx, dim, n = matrix.ctx, matrix.rows, matrix.ctx.n
    if not matrix.is_square() or dim not in (n, n - 1):
        return False
    slot = {(e.num, e.den): i for i, e in enumerate(entries)}
    for t in _generators(n):
        images = []  # the slot of sigma_t(entries[i])
        for e in entries:
            v = [0] * n
            for s, c in enumerate(e.num):
                v[s * t % n] = c
            image = slot.get((tuple(_reduce(ctx, v)), e.den))
            if image is None:
                return False
            images.append(image)
        if tuple(map(images.__getitem__, where)) != _label_permutation(n, dim, t)(where):
            return False
    return True


def _dense_berkowitz(m: list[list[int]], modulus: int) -> list[int]:
    """The charpoly coefficients mod modulus, highest first, of the d x d
    matrix of residues m (its rows) by Berkowitz's loop (see
    ``CMatrix.charpoly``): per trailing block, the first column of its
    lower-triangular Toeplitz factor, times the charpoly so far."""
    dim, poly = len(m), [1]  # charpoly of the empty trailing submatrix
    for c in range(dim - 1, -1, -1):
        sub = [r[c + 1:] for r in m[c + 1:]]
        row, col, toeplitz = m[c][c + 1:], [r[c] for r in m[c + 1:]], [1, -m[c][c]]
        for i in range(dim - c - 1):
            if i:
                col = [sum(map(mul, r, col)) % modulus for r in sub]
            toeplitz.append(-sum(map(mul, row, col)) % modulus)
        poly = [sum(map(mul, toeplitz[i::-1], poly)) % modulus for i in range(len(poly) + 1)]
    return poly


def _toeplitz_berkowitz(diagonals: list[int], modulus: int) -> list[int]:
    """``_dense_berkowitz`` of the d x d Toeplitz matrix M[r][k] = s(r - k)
    given as its 2d - 1 residues s(-(d-1)), ..., s(d-1) in [0, modulus):
    each matvec is one ``_toeplitz_matvec`` product with W-bit slots
    (see ``CMatrix.charpoly`` for W)."""
    dim, poly = (len(diagonals) + 1) // 2, [1]
    width = ((dim - 1) * (modulus - 1) ** 2).bit_length()
    for c in range(dim - 1, -1, -1):
        size = dim - c - 1  # of the trailing block A
        symbol = _pack(diagonals[c + 1:dim + size - 1], width)
        row, col = diagonals[c:dim - 1][::-1], diagonals[dim:dim + size]
        toeplitz = [1, -diagonals[dim - 1]]
        for i in range(size):
            if i:
                col = _toeplitz_matvec(symbol, col, width, modulus)
            toeplitz.append(-sum(map(mul, row, col)) % modulus)
        poly = [sum(map(mul, toeplitz[i::-1], poly)) % modulus for i in range(len(poly) + 1)]
    return poly


def _toeplitz_matvec(symbol: int, col: list[int], width: int, modulus: int) -> list[int]:
    """A*col mod modulus for the m x m Toeplitz A with A[r][k] = s(r - k), by
    one product of packed ints: ``symbol`` holds s(-(m-1)), ..., s(m-1) in
    ``width``-bit slots 0..2m-2, and every residue, of A and of col, lies in
    [0, modulus).  Slot m - 1 + r of symbol * col is
    sum_k s(r - k) col[k] = (A*col)[r] (see ``CMatrix.charpoly`` for why
    no slot carries)."""
    m, mask = len(col), (1 << width) - 1
    p = symbol * _pack(col, width) >> width * (m - 1)
    return [(p >> width * r & mask) % modulus for r in range(m)]


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


"""Dense univariate polynomials over Q(zeta_n).

These carry the indeterminate x of the rational-function identities and the
characteristic polynomials.  Coefficients are stored lowest degree first and
trimmed, so the zero polynomial is the empty tuple and equality is structural.

The ``partial-fraction`` and ``row-sum-x`` checks share one residue table,
the cleared terms Q_r = (x - 1) P_r with
P_r = prod_{r' not in {0, r}} (1 - x*zeta^r'), built by multiplying out
linear factors and never by dividing 1 - x^n (that would assume the
factorisation under test).  Each check makes one ``twisted_sums`` call over
Q, all n twisted sums in one pass, and covers every s, or every (k, s), of
one n: ``row-sum-x`` reads its left side off those sums as S[s] + x*S[s - 1].

Both kernels run on plain ints, in the ring Z/(2^(k*w*n) - 1) that
``charpoly`` also uses: x -> 2^k and zeta -> 2^(k*w), so a twist by zeta^m
is a rotation by k*w*m bits (``cyclotomic._rotate``) and a linear factor
(1 - x*zeta^r) is one rotate-and-subtract, with no field operation.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycloContext, CycloElem, _entry, _lift, _pack, _reduce, _rotate, _unpack
from .rationals import format_rational


class CPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloContext, coeffs=()):
        self.ctx = ctx
        vals = [_entry(ctx, c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self.coeffs = tuple(vals)

    @classmethod
    def zero(cls, ctx: CycloContext) -> CPoly:
        return cls(ctx)

    @classmethod
    def one(cls, ctx: CycloContext) -> CPoly:
        return cls(ctx, [ctx.one()])

    @classmethod
    def x_pow(cls, ctx: CycloContext, k: int) -> CPoly:
        """x^k for k >= 0."""
        return cls.one(ctx).shift(k)

    def _check(self, other: CPoly):
        if self.ctx.n != other.ctx.n:
            raise ValueError("polynomials from different contexts")

    def __add__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return CPoly(self.ctx, out)

    def __sub__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        self._check(other)
        out = list(self.coeffs) + [self.ctx.zero()] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] = out[i] - c
        return CPoly(self.ctx, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloElem)):
            return self.scale(other)
        if not isinstance(other, CPoly):
            return NotImplemented
        self._check(other)
        if not self.coeffs or not other.coeffs:
            return CPoly.zero(self.ctx)
        zero = self.ctx.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return CPoly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, factor) -> CPoly:
        """Multiply by a constant; a rational one scales the coordinates
        without a field product."""
        return CPoly(self.ctx, [c * factor for c in self.coeffs])

    def shift(self, k: int) -> CPoly:
        """Multiply by x^k, k >= 0; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"x^{k} is not a polynomial")
        if not self.coeffs:
            return self
        return CPoly(self.ctx, [self.ctx.zero()] * k + list(self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.ctx.n == other.ctx.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.n, self.coeffs))

    def render(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            q = c.as_rational()
            xpart = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            if q is None:
                body = f"({c.render()})"
                body = body + ("*" + xpart if xpart else "")
                sign = "+"
            else:
                sign = "+" if q > 0 else "-"
                mag = abs(q)
                if xpart and mag == 1:
                    body = xpart
                else:
                    body = format_rational(mag) + ("*" + xpart if xpart else "")
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        return f"CPoly({self.render()!r}, n={self.ctx.n})"


def geometric_sum(ctx: CycloContext) -> CPoly:
    """1 + x + ... + x^(n-1)."""
    return CPoly(ctx, [ctx.one()] * ctx.n)


def prod_one_minus_x_zeta(ctx: CycloContext, exclude=frozenset()) -> CPoly:
    """Product of (1 - x*zeta^r) over r in 0..n-1 outside ``exclude``.

    With nothing excluded this is 1 - x^n, since the zeta^r run over all
    n-th roots of unity.  It is built in the packed ring of ``twisted_sums``
    with x-width w = m + 1 and k = m + 2 for m kept factors (that docstring
    proves the slots hold the product): each factor is one rotate-and-subtract
    acc - acc * 2^(k + r*k*w), and the product is unpacked once.
    """
    n = ctx.n
    exclude = set(exclude)
    for r in exclude:
        if not 0 <= r < n:
            raise ValueError("excluded residues must lie in 0..n-1")
    kept = [r for r in range(n) if r not in exclude]
    k, w = len(kept) + 2, len(kept) + 1
    modulus = (1 << (k * w * n)) - 1
    acc = 1
    for r in kept:
        acc = (acc - _rotate(acc, k + r * k * w, modulus)) % modulus  # acc * (1 - x*zeta^r)
    return CPoly(ctx, _x_coefficients(ctx, acc, k, w, 1))


def twisted_sums(table) -> list:
    """The n twisted sums [sum_{r=1..n-1} t[r] * zeta^(-sr) for s = 0..n-1]
    of a residue table t of field elements or CPolys (coefficient by
    coefficient in x); t[0] is skipped, and an entry from a context of
    another order than n = len(t) raises ValueError.

    Every row sum sum_{j=1..n, j != k} t[(j - k) mod n] * zeta^(-s(j - k))
    equals entry s: as j runs over j != k, r = (j - k) mod n runs over
    1..n-1 once each, and zeta^(-s(j - k)) = zeta^(-sr) as zeta^n = 1.

    The sums run in the ring Z/(2^(k*w*n) - 1), w the x-width (the longest
    t[r], at least 1; w = 1 for field elements).  Each t[r] is lifted once
    over the common denominator D into Z[x, zeta]/(zeta^n - 1) of x-degree
    < w, with slot u*w + j holding the coordinate of zeta^u * x^j, and
    packed by x -> 2^k, zeta -> 2^(k*w): a ring map, since
    zeta^n -> 2^(k*w*n) = 1.  A twist by zeta^(-sr) is then a rotation by
    k*w*((-sr) mod n) bits, so each s sums n - 1 rotated ints, unpacks once
    and reduces each x-coefficient mod Phi_n once; Phi_n divides
    zeta^n - 1, so that reduction is a ring map too, and it must stay, as
    the identities hold only at a primitive zeta.

    Only the final digits must fit in the slots: the packing is a ring map,
    so intermediate values may wrap, and ``_unpack`` reads back every digit
    vector with all |digits| < 2^(k-1).
    - Twisted sums: a rotation permutes the slots of one x-power, so each
      digit of a sum is a sum of at most n - 1 lifted coordinates, each at
      most B in absolute value: |digit| <= (n - 1) B < 2^(bitlen(B) +
      bitlen(n - 1)) = 2^(k-1) for k = bitlen(B) + bitlen(n - 1) + 1.
      The x-slot may index the rows of a matrix instead of the powers of
      x (``identities.twisted_products``); the proof is unchanged.
    - Products (``prod_one_minus_x_zeta``), of m kept factors with k = m + 2
      and w = m + 1: a product of at most m factors has x-degree at most
      m < w, so the shift by x (times 2^k) never moves a digit into the
      next zeta block.  The coefficient of x^j is (-1)^j times the sum of
      the C(m, j) monomials zeta^(r_1 + ... + r_j), so each digit is at
      most C(m, j) <= 2^m < 2^(k-1) in absolute value.
    """
    n = len(table)
    terms = table[1:]
    if any(t.ctx.n != n for t in terms):
        raise ValueError("table entry from a context of another order")
    ctx = terms[0].ctx
    polys = isinstance(terms[0], CPoly)
    rows = [t.coeffs if polys else (t,) for t in terms]
    w = max(1, *map(len, rows))
    den, lifts = _lift([c for row in rows for c in row])
    bound = max((abs(v) for lift in lifts for v in lift), default=0)
    k = bound.bit_length() + (n - 1).bit_length() + 1
    modulus = (1 << (k * w * n)) - 1
    coords = iter(lifts)
    packed = []
    for r, row in enumerate(rows, 1):
        slots = [0] * (ctx.degree * w)
        for j in range(len(row)):
            slots[j::w] = next(coords)
        if any(slots):
            packed.append((r, _pack(slots, k) % modulus))
    sums = []
    for s in range(n):
        total = sum(_rotate(p, k * w * (-s * r % n), modulus) for r, p in packed)
        coeffs = _x_coefficients(ctx, total, k, w, den)
        sums.append(CPoly(ctx, coeffs) if polys else coeffs[0])
    return sums


def _x_coefficients(ctx: CycloContext, value: int, k: int, w: int, den: int) -> list[CycloElem]:
    """The coefficients c_0..c_(w-1) of x^0..x^(w-1), as field elements over
    the denominator ``den``, of a value packed as in ``twisted_sums``."""
    digits = _unpack(value, k, ctx.n * w)
    return [CycloElem(ctx, _reduce(ctx, digits[j::w]), den) for j in range(w)]


def _partial_fraction_tables(ctx: CycloContext) -> tuple[tuple[CPoly, ...], tuple[CPoly, ...]]:
    """(Q, R) for the partial-fraction identity cleared of x^n - 1: the residue
    table of Q_r = (x - 1) P_r with P_r = prod_{r' not in {0, r}} (1 - x*zeta^r'),
    r = 1..n-1, at index r (index 0 holds 0), and the right sides
    R[s] = sum_j x^j - n*x^s."""
    n = ctx.n
    products = (prod_one_minus_x_zeta(ctx, exclude={0, r}) for r in range(1, n))
    cleared = tuple(p.shift(1) - p for p in products)  # (x - 1) P_r
    rights = tuple(geometric_sum(ctx) - CPoly.x_pow(ctx, s).scale(n) for s in range(n))
    return (CPoly.zero(ctx), *cleared), rights


def partial_fraction_check(ctx: CycloContext) -> list[bool]:
    """Whether the exact polynomial form of the expansion
    sum_{0<r<n} zeta^(-rs)/(1 - x*zeta^r) = (sum_j x^j - n*x^s)/(x^n - 1)
    holds, for s = 0..n-1.

    Both sides are multiplied by x^n - 1; the left side becomes
    sum_{0<r<n} zeta^(-rs) * (x-1) * prod_{0<r'<n, r'!=r} (1 - x*zeta^r').
    The cleared summands and right sides are built once, and one
    ``twisted_sums`` call gives the left side for every s.
    """
    cleared, rights = _partial_fraction_tables(ctx)
    return [total == right for total, right in zip(twisted_sums(cleared), rights)]


def row_sum_x_check(ctx: CycloContext) -> list[list[bool]]:
    """Whether the exact polynomial form of the x-weighted row-sum identity
    sum_{j!=k} (1 + x*zeta^(j-k))/(1 - x*zeta^(j-k)) * zeta^(s(k-j))
      = 1 + 2*(sum_j x^j - n*x^s)/(x^n - 1) - n*[s == 0]
    holds, as the n x n table indexed [k-1][s] for k = 1..n, s = 0..n-1.

    Cleared of x^n - 1, the summand at j - k = r is (1 + x*zeta^r) Q_r with
    Q_r the partial-fraction table, and the right side is
    (1 - n*[s == 0])(x^n - 1) + 2*(sum_j x^j - n*x^s).  With S the twisted
    sums of Q, the left side is S[s] + x*S[s - 1]: zeta^(-sr) * zeta^r =
    zeta^(-(s-1)r), and zeta^n = 1 makes S[-1] = S[n - 1].
    """
    n = ctx.n
    cleared, rights = _partial_fraction_tables(ctx)
    sums = twisted_sums(cleared)
    x_n_minus_1 = CPoly.x_pow(ctx, n) - CPoly.one(ctx)
    row = [sums[s] + sums[s - 1].shift(1)
           == x_n_minus_1.scale(1 - (n if s == 0 else 0)) + right.scale(2)
           for s, right in enumerate(rights)]
    return [list(row) for _ in range(n)]  # every row is the k-free sum

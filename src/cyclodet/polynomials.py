"""Dense univariate polynomials over Q(zeta_n).

These carry the indeterminate x of the rational-function identities and the
characteristic polynomials.  Coefficients are stored lowest degree first and
trimmed, so the zero polynomial is the empty tuple and equality is structural.

The ``partial-fraction`` and ``row-sum-x`` checks share one residue table,
the cleared terms Q_r = (x - 1) P_r with
P_r = prod_{r' not in {0, r}} (1 - x*zeta^r'), built by multiplying out
linear factors, each as a shift by x plus a twist by zeta^r, so with no field
product and never by dividing 1 - x^n (that would assume the factorisation
under test).  Each check makes one ``twisted_sums`` call over Q, all n twisted
sums in one pass over Z[x]/(x^n - 1), and covers every s, or every (k, s), of
one n: ``row-sum-x`` reads its left side off those sums as S[s] + x*S[s - 1].
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycloContext, CycloElem, _lift, _reduce
from .rationals import format_rational


class CPoly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloContext, coeffs=()):
        self.ctx = ctx
        vals = []
        for c in coeffs:
            if isinstance(c, CycloElem):
                if c.ctx.n != ctx.n:
                    raise ValueError("coefficient from a different context")
                vals.append(c)
            else:
                vals.append(ctx.from_rational(c))
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
    def x(cls, ctx: CycloContext) -> CPoly:
        return cls(ctx, [ctx.zero(), ctx.one()])

    @classmethod
    def x_pow(cls, ctx: CycloContext, k: int) -> CPoly:
        """x^k for k >= 0."""
        return cls.one(ctx).shift(k)

    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __neg__(self):
        return CPoly(self.ctx, [-c for c in self.coeffs])

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

    def mul_zeta_pow(self, e: int) -> CPoly:
        """Multiply by zeta^e, coefficient by coefficient."""
        return CPoly(self.ctx, [c.mul_zeta_pow(e) for c in self.coeffs])

    def shift(self, k: int) -> CPoly:
        """Multiply by x^k, k >= 0; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"x^{k} is not a polynomial")
        if not self.coeffs:
            return self
        return CPoly(self.ctx, [self.ctx.zero()] * k + list(self.coeffs))

    def evaluate(self, point) -> CycloElem:
        if not isinstance(point, CycloElem):
            point = self.ctx.from_rational(point)
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

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
    n-th roots of unity.
    """
    exclude = set(exclude)
    for r in exclude:
        if not 0 <= r < ctx.n:
            raise ValueError("excluded residues must lie in 0..n-1")
    acc = CPoly.one(ctx)
    for r in range(ctx.n):
        if r not in exclude:
            acc = acc - acc.shift(1).mul_zeta_pow(r)  # acc * (1 - x*zeta^r)
    return acc


def twisted_sums(table) -> list:
    """The n twisted sums [sum_{r=1..n-1} t[r] * zeta^(-sr) for s = 0..n-1]
    of a residue table t of field elements or CPolys (coefficient by
    coefficient in x); t[0] is skipped, and an entry from a context of
    another order than n = len(t) raises ValueError.

    Phi_n divides x^n - 1, so reducing Z[x]/(x^n - 1) modulo Phi_n is a ring
    map.  Each t[r] is lifted once over the common denominator; there a twist
    by zeta^(-sr) is a rotation, so each s adds n - 1 rotations and reduces.

    Every row sum sum_{j=1..n, j != k} t[(j - k) mod n] * zeta^(-s(j - k))
    equals entry s: as j runs over j != k, r = (j - k) mod n runs over
    1..n-1 once each, and zeta^(-s(j - k)) = zeta^(-sr) as zeta^n = 1.
    """
    n = len(table)
    terms = table[1:]
    if any(t.ctx.n != n for t in terms):
        raise ValueError("table entry from a context of another order")
    ctx = terms[0].ctx
    if not isinstance(terms[0], CPoly):
        return _twisted_element_sums(ctx, terms)
    width = max(len(p.coeffs) for p in terms)
    padded = [p.coeffs + (ctx.zero(),) * (width - len(p.coeffs)) for p in terms]
    columns = [_twisted_element_sums(ctx, column) for column in zip(*padded)]
    return [CPoly(ctx, [column[s] for column in columns]) for s in range(n)]


def _twisted_element_sums(ctx: CycloContext, terms) -> list[CycloElem]:
    """``twisted_sums`` of the field elements terms = t[1..n-1]."""
    n, d = ctx.n, ctx.degree
    den, lifted = _lift(terms)
    lifts = [(r, lift + [0] * (n - d)) for r, lift in enumerate(lifted, 1) if any(lift)]
    sums = []
    for s in range(n):
        acc = [0] * n
        for r, lift in lifts:
            m = s * r % n  # the rotation by -sr: acc[i] += lift[(i + sr) mod n]
            acc = [a + b for a, b in zip(acc, lift[m:] + lift[:m])]
        sums.append(CycloElem(ctx, _reduce(ctx, acc), den))
    return sums


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

"""Exact arithmetic in the cyclotomic field Q(zeta_n).

The field is modelled as Q[x]/Phi_n(x) with zeta the residue class of x, so
"a primitive n-th root of unity" has one canonical representation and every
conjugate root is reachable through the Galois maps.  Elements are stored as
an integer coordinate vector over the basis 1, zeta, ..., zeta^(d-1) together
with one shared positive denominator, kept in lowest terms; the observable
coordinates are Fractions (see ``CycloElem.coeffs``).  Inverses go through
the field norm N(a) = prod_t sigma_t(a), a product of Galois conjugates that
stays in integer arithmetic (see ``CycloElem.inverse``).

A product multiplies the numerators as integer polynomials by the
schoolbook convolution.  The 2d - 1 coefficients are folded into
Z[x]/(x^n - 1), where x^(n+i) = x^i, and each power x^d..x^(n-1) left is
replaced by its power row, x^k mod Phi_n kept as its nonzero terms: one
dense row for prime n, and rows of a few terms where Phi_n is sparse.  The
rows are built once per n, on first use.  A long division builds Phi_n
itself.  Twists by zeta^e and Galois maps are permutations in
Z[x]/(x^n - 1) followed by the same reduction.

Packing k-bit slots into one int, x -> 2^k, maps Z[x]/(x^n - 1) into the
ring of ints Z/(2^(kn) - 1), where x^n -> 2^(kn) = 1 and a twist by x^m is
a rotation by km bits (``_pack``, ``_rotate``, ``_unpack``, and ``_lift``
to put the elements over one denominator).  That ring serves
``CMatrix.charpoly`` and the twisted sums of ``identities._vector_sums``;
with w x-slots per power of zeta it also serves the partial-fraction sums
of ``polynomials._cleared_sums`` and the row tables of
``identities._twist_eigenvalues``.  A Galois-equivariant input (checked on
the generating set ``_generators(n)`` of (Z/n)^x) has rational results, and
those are read in Z/Phi_n(2^j) by zeta -> 2^j instead (``_phi_modulus``):
by ``CMatrix.charpoly`` and ``polynomials._rational_twisted_sums``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul

from .rationals import exact, format_rational


def _divide(v: list[int], terms, d: int) -> None:
    """Divide sum_k v[k] x^k in place by a monic polynomial of degree d whose
    nonzero coefficients below x^d are the pairs (i - d, c_i) of ``terms``:
    afterwards v[:d] is the remainder and v[d:] the quotient.

    Step k, from the top degree down to d, takes q = v[k] as the quotient
    coefficient of x^(k-d) and subtracts q * x^(k-d) times the terms of the
    divisor below x^d.  It reads v[k] only after every higher step has written to
    it, and it writes only below k, so each step sees its final dividend.
    """
    for k in range(len(v) - 1, d - 1, -1):
        q = v[k]
        if q:
            for o, c in terms:
                v[k + o] -= q * c


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (dense, lowest degree first, monic).

    Computed by exact division of x^n - 1 by Phi_m for each proper divisor
    m of n; a nonzero remainder raises ArithmeticError.
    """
    if n < 1:
        raise ValueError("n must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for m in range(1, n):
        if n % m == 0:
            phi = cyclotomic_polynomial(m)
            d = len(phi) - 1
            _divide(poly, [(i - d, c) for i, c in enumerate(phi[:d]) if c], d)
            if any(poly[:d]):
                raise ArithmeticError("inexact polynomial division")
            del poly[:d]
    return tuple(poly)


def _pack(coeffs, k: int) -> int:
    """sum_j coeffs[j] * 2^(kj) by Horner's rule: the evaluation at x = 2^k
    of the integer polynomial with those (signed) coefficients."""
    p = 0
    for c in reversed(coeffs):
        p = (p << k) + c
    return p


def _unpack(value: int, k: int, count: int) -> list[int]:
    """The signed digits c_0..c_(count-1) with value = sum_j c_j 2^(kj)
    mod 2^(k*count) - 1, for every |c_j| < 2^(k-1).

    With m = 2^(k*count) - 1 and the bias B = sum_j 2^(k-1) 2^(kj), the
    integer T = sum_j (c_j + 2^(k-1)) 2^(kj) has every digit in
    [1, 2^k - 1], so 1 <= T <= m, and T = value + B mod m.  So T is the
    representative of value + B in [1, m], and its k-bit digits less
    2^(k-1) are the c_j.  The bound is on the c_j, not on value, which may
    be any representative mod m, so the reduction cannot be skipped.
    """
    m = (1 << (k * count)) - 1
    half = 1 << (k - 1)
    t = (value + m // ((1 << k) - 1) * half - 1) % m + 1
    mask = (1 << k) - 1
    return [((t >> s) & mask) - half for s in range(0, k * count, k)]


def _rotate(p: int, shift: int, m: int) -> int:
    """p * 2^shift mod m for m = 2^W - 1, 0 <= p < m and 0 <= shift < W:
    the W-bit word p rotated left by shift bits, as 2^W = 1 mod m."""
    return ((p << shift) & m) | (p >> (m.bit_length() - shift))


def _lift(elems) -> tuple[int, list[list[int]]]:
    """(D, lifts): D the lcm of the denominators of the field elements
    ``elems``, and each lift the integer coordinates of D * e, so that
    e = lift / D with every lift over the one denominator."""
    den = lcm(*(e.den for e in elems))
    return den, [[v * (den // e.den) for v in e.num] for e in elems]


def _entry(ctx: CycloContext, e) -> CycloElem:
    """e as an element of ``ctx``: an int or Fraction is coerced, and an
    element of another context raises ValueError."""
    if not isinstance(e, CycloElem):
        return ctx.from_rational(e)
    if e.ctx.n != ctx.n:
        raise ValueError("element from a different context")
    return e


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row k - d, for d <= k < n: x^k mod Phi_n as its nonzero pairs
    (i, c_i), i < d.  x^d = -(the terms of Phi_n below x^d), and each next
    row is x times the last, its x^d term replaced the same way."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    row, rows = [-c for c in phi[:d]], []
    for _ in range(d, n):
        rows.append(tuple((i, c) for i, c in enumerate(row) if c))
        top = row.pop()
        row.insert(0, 0)
        if top:
            row = [a - top * c for a, c in zip(row, phi)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _generators(n: int) -> tuple[int, ...]:
    """A generating set of (Z/n)^x: the units in order of descending
    multiplicative order (ties in increasing order), each kept when the ones
    before it do not generate it.  So a cyclic group gets one primitive root,
    and the trivial group at n = 2 the empty set."""
    powers = {}  # unit t -> its powers 1, t, t^2, ... up to the order of t
    for t in range(2, n):
        if gcd(t, n) == 1:
            row, x = [1], t
            while x != 1:
                row.append(x)
                x = x * t % n
            powers[t] = row
    group, gens = {1}, []
    for t in sorted(powers, key=lambda t: -len(powers[t])):
        if t not in group:
            gens.append(t)
            group = {g * p % n for g in group for p in powers[t]}  # the group times <t>
    return tuple(gens)


def _phi_modulus(ctx: CycloContext, limit: int) -> tuple[int, int]:
    """(j, m): the least j >= 1 with m = Phi_n(2^j) > limit >= 0.  No smaller
    j needs testing below the start: Phi_n(x) = prod |x - w| <= (x + 1)^d
    over the d primitive roots w, so Phi_n(2^j) < 2^((j+1)d) <= limit
    whenever (j + 1) d <= bitlen(limit) - 1."""
    j = max(1, (limit.bit_length() - 1) // ctx.degree)
    while (m := _pack(ctx.phi, j)) <= limit:
        j += 1
    return j, m


def _reduce(ctx: CycloContext, v: list[int]) -> list[int]:
    """Coordinates mod Phi_n of sum_k v[k] x^k, for d <= len(v) < 2n; the
    list v is used as scratch space and returned.

    Phi_n divides x^n - 1, so reducing first mod x^n - 1 is exact: x^(n+i)
    folds onto x^i.  Then each v[k] with d <= k < n adds v[k] times its
    power row (``_power_rows``) to v[:d].  Every row lies below x^d, so no
    step writes to a v[k] with k >= d: each is read once, with its final
    value, and the order of the steps does not matter.  A step costs the
    nonzero terms of its row: for prime n there is one step, at x^(n-1),
    and every row of Phi_81 = x^54 + x^27 + 1 has one or two terms.
    """
    n, d = ctx.n, ctx.degree
    for k in range(n, len(v)):
        c = v[k]
        if c:
            v[k - n] += c
    for c, row in zip(v[d:n], _power_rows(n)):
        if c:
            for i, a in row:
                v[i] += c * a
    del v[d:]
    return v


class CycloContext:
    """Precomputed data for Q(zeta_n): Phi_n and its degree.  Immutable and
    shareable."""

    __slots__ = ("n", "phi", "degree")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("cyclotomic context requires n >= 2")
        self.n = n
        self.phi = cyclotomic_polynomial(n)
        self.degree = len(self.phi) - 1

    def __eq__(self, other):
        return isinstance(other, CycloContext) and other.n == self.n

    def __hash__(self):
        return hash(("CycloContext", self.n))

    def __repr__(self):
        return f"CycloContext(n={self.n})"

    def from_rational(self, value) -> CycloElem:
        q = exact(value)
        num = [0] * self.degree
        num[0] = q.numerator
        return CycloElem(self, num, q.denominator)


@lru_cache(maxsize=None)
def shared_context(n: int) -> CycloContext:
    """Cached context; verifier code reuses these across calls."""
    return CycloContext(n)


class CycloElem:
    """Immutable element of Q(zeta_n) in canonical coordinates.

    Internally an integer vector plus one shared positive denominator with
    content gcd 1 (zero is the all-zero vector over denominator 1), so
    equality is structural.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycloContext, num, den: int = 1):
        self.ctx = ctx
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = gcd(den, *num)
        if g > 1:
            den //= g
            num = [v // g for v in num]
        if not any(num):
            den = 1
        self.num = tuple(num)
        self.den = den

    # -- scalar coercion -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloElem):
            if other.ctx.n != self.ctx.n:
                raise ValueError("elements from different cyclotomic contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [a * ma + b * mb for a, b in zip(self.num, other.num)]
        return CycloElem(self.ctx, num, da * ma)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        num = [a * ma - b * mb for a, b in zip(self.num, other.num)]
        return CycloElem(self.ctx, num, da * ma)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        """Product in Q(zeta_n).

        The numerators are multiplied as integer polynomials by the
        schoolbook convolution; the 2d - 1 coefficients are then folded into
        Z[x]/(x^n - 1) and divided by Phi_n (``_reduce``).
        """
        if isinstance(other, (int, Fraction)):
            num = [v * other.numerator for v in self.num]
            return CycloElem(self.ctx, num, self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        a, b = self.num, other.num
        conv = [0] * (2 * ctx.degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return CycloElem(ctx, _reduce(ctx, conv), self.den * other.den)

    __rmul__ = __mul__

    def mul_zeta_pow(self, e: int) -> CycloElem:
        """Fast product with zeta^e: a rotation in Z[x]/(x^n - 1), then
        reduction mod Phi_n."""
        ctx = self.ctx
        n = ctx.n
        e %= n
        if e == 0:
            return self
        v = list(self.num) + [0] * (n - ctx.degree)
        return CycloElem(ctx, _reduce(ctx, v[n - e:] + v[:n - e]), self.den)

    def inverse(self) -> CycloElem:
        """Multiplicative inverse through the field norm.

        With x the integer numerator (self = x / den), the product conj of
        the conjugates sigma_t(x) over t != 1 makes N(x) = x * conj a
        rational, so self^-1 = conj * den / N(x).  The phi(n) - 1 conjugates
        are multiplied in order, in phi(n) - 2 products: with the norm and
        the scaling, phi(n) calls of ``__mul__`` in all (n >= 3).  Only
        integer ``galois`` and ``__mul__`` are used; a non-rational N(x)
        means the arithmetic went wrong and raises ArithmeticError.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        n = ctx.n
        x = CycloElem(ctx, self.num)
        conjugates = [x.galois(t) for t in range(2, n) if gcd(t, n) == 1]
        conj = reduce(mul, conjugates) if conjugates else ctx.from_rational(1)
        norm = (x * conj).as_rational()
        if norm is None:
            raise ArithmeticError("norm of a field element is not rational")
        return conj * Fraction(self.den, norm)

    # -- field automorphisms ----------------------------------------------

    def galois(self, t: int) -> CycloElem:
        """Image under the automorphism zeta -> zeta^t (t coprime to n)."""
        ctx = self.ctx
        n = ctx.n
        t %= n
        if gcd(t, n) != 1:
            raise ValueError(f"{t} is not coprime to {n}")
        v = [0] * n
        for k, c in enumerate(self.num):
            v[k * t % n] = c
        return CycloElem(ctx, _reduce(ctx, v), self.den)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(v, den) for v in self.num)

    def as_rational(self):
        """The Fraction value when all higher coordinates vanish, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):  # an int is its own numerator, over 1
            return self.num[0] == other.numerator and self.den == other.denominator \
                and not any(self.num[1:])
        if not isinstance(other, CycloElem):
            return NotImplemented
        if self.ctx.n != other.ctx.n:
            # rationals lie in every Q(zeta_n): compare them by value
            q = self.as_rational()
            return q is not None and q == other.as_rational()
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # rational elements hash as the Fraction they compare equal to
        q = self.as_rational()
        return hash(q) if q is not None else hash((self.ctx.n, self.num, self.den))

    def render(self, symbol: str = "z") -> str:
        """Human-readable "c0 + c1*z + ..." with zero terms dropped."""
        if not any(self.num[1:]):  # rational, and already in lowest terms
            return str(self.num[0]) if self.den == 1 else f"{self.num[0]}/{self.den}"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                var = symbol if k == 1 else f"{symbol}^{k}"
                body = var if mag == 1 else f"{format_rational(mag)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        if not parts:
            return "0"
        return " ".join(parts)

    def __repr__(self):
        return f"CycloElem({self.render()!r}, n={self.ctx.n})"


def _inv_one_minus_zeta_vector(n: int, r: int) -> list[int]:
    """n/(1 - zeta^r) in Z[x]/(x^n - 1), as n int coordinates of size at
    most n/2, for r not divisible by n.

    y = zeta^r has order m = n/gcd(n, r) > 1, so sum_{i<m} y^i = 0 and
    (1 - y) * sum_{i<m} (i+1) y^i = sum_{i<m} y^i - m y^m = -m.  Adding
    c = floor((m+1)/2) times that zero sum centres the weights:
    n/(1 - y) = (n/m) sum_{i<m} (c - i - 1) y^i, with |c - i - 1| <= m/2 at
    the m distinct slots r*i mod n.  One pass, where
    ``(1 - zeta^r).inverse()`` takes phi(n) products; the two are
    cross-checked in the tests.
    """
    r %= n
    if r == 0:
        raise ZeroDivisionError("1 - zeta^0 is zero")
    g = gcd(n, r)
    m, c = n // g, (n // g + 1) // 2
    v = [0] * n
    for i in range(m):
        v[r * i % n] = g * (c - i - 1)
    return v


def _inv_one_plus_zeta_vector(n: int, u: int) -> list[int]:
    """n/(1 + zeta^u) in Z[x]/(x^n - 1), as n int coordinates, for 2u not
    divisible by n.

    With y = zeta^u, 1/(1 + y) = (1 - y)/(1 - y^2), and y^2 = zeta^(2u) is
    an n-th root of unity other than 1 exactly when 2u is not divisible by
    n: the vector of ``_inv_one_minus_zeta_vector`` at r = 2u, less its
    rotation by u, for odd and even n alike.  So this raises
    ZeroDivisionError exactly when 2u = 0 mod n, which covers zeta^u = -1
    (u = n/2 for even n) and u = 0.
    """
    u %= n
    v = _inv_one_minus_zeta_vector(n, 2 * u)
    return [a - b for a, b in zip(v, v[n - u:] + v[:n - u])]


def inv_one_minus_zeta(ctx: CycloContext, r: int) -> CycloElem:
    """Closed form for 1/(1 - zeta^r), r not divisible by n: the vector of
    ``_inv_one_minus_zeta_vector`` over n, reduced once."""
    return CycloElem(ctx, _reduce(ctx, _inv_one_minus_zeta_vector(ctx.n, r)), ctx.n)


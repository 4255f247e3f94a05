"""Polynomials in x over Q(zeta_n), and the x-polynomial identity checks.

``CPoly`` is the value type of the characteristic polynomials and the
spectrum polynomials that the spectrum, eigen and EEI rows compare.  Its
coefficients are stored lowest degree first and trimmed, so the zero
polynomial is the empty tuple and equality is structural.  It has no sum
and no shift; its product ``__mul__`` has no library caller and stays only
as the tests' reference, because the benchmark's tracer wraps it by name
(``tests/test_bench_contract.py`` guards that).

The ``partial-fraction`` and ``row-sum-x`` checks share one kernel,
``_cleared_sums``: the twisted sums S[s] = sum_{0<r<n} zeta^(-sr) Q_r of
the cleared terms Q_r = (x - 1) P_r with
P_r = prod_{r' not in {0, r}} (1 - x*zeta^r'), built by multiplying out
linear factors and never by dividing 1 - x^n (that would assume the
factorisation under test).  One pass covers every s, or every (k, s), of
one n: ``row-sum-x`` reads its left side as S[s] + x*S[s - 1].

The twisted sums of a table of int vectors (``_twisted_vector_sums``) and
``_cleared_sums`` run on plain ints, in the ring Z/(2^(k*w*n) - 1) that
``charpoly`` also uses: x -> 2^k and zeta -> 2^(k*w), so a twist by zeta^m
is a rotation by k*w*m bits (``cyclotomic._rotate``) and a linear factor
(1 - x*zeta^r) is one rotate-and-subtract, with no field operation.  A
table has w = 1; only ``_cleared_sums`` uses w = n x-slots.
Both kernels end in the one shift-and-sum loop, ``_rotated_sums``, which
unpacks each sum and reduces it mod Phi_n once, into int coordinate lists:
``partial_fraction_check`` compares those with [a, 0, ..., 0], and only
``_twisted_vector_sums`` and ``row_sum_x_check`` make field elements of them.

A table of unreduced vectors that is Galois-equivariant (every kind's
table in ``identities``, and both halves of ``root-sums``) has integer
sums N_s = den * lambda_s, and ``_rational_twisted_sums`` returns each as
one small integer read mod Phi_n(2^j), with no unpack, no reduction and no
field element; any other table (the lifted conjugate tables of the
``galois-*`` rows, the row tables of ``identities._twist_eigenvalues``),
and ``_cleared_sums``, keep the cyclic ring.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter, lshift, mod

from .cyclotomic import (CycloContext, CycloElem, _entry, _generators, _pack, _phi_modulus,
                         _reduce, _rotate, _unpack)


class CPoly:
    """The value of ``CMatrix.charpoly`` and ``identities.spectrum_poly``."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CycloContext, coeffs=()):
        self.ctx = ctx
        vals = [_entry(ctx, c) for c in coeffs]
        while vals and not vals[-1]:
            vals.pop()
        self.coeffs = tuple(vals)

    def __mul__(self, other):
        """Product by a constant, or the schoolbook product over the field:
        the tests' reference (see the module docstring)."""
        if isinstance(other, (int, Fraction, CycloElem)):
            return CPoly(self.ctx, [c * other for c in self.coeffs])
        if not isinstance(other, CPoly):
            return NotImplemented
        if self.ctx.n != other.ctx.n:
            raise ValueError("polynomials from different contexts")
        if not self.coeffs or not other.coeffs:
            return CPoly(self.ctx)
        zero = self.ctx.from_rational(0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return CPoly(self.ctx, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return self.ctx.n == other.ctx.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.n, self.coeffs))

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if any(c.num[1:]):
                body = f"({c.render()})"
                body = body + ("*" + xpart if xpart else "")
                sign = "+"
            else:  # rational, and already in lowest terms
                p, den = c.num[0], c.den
                sign = "+" if p > 0 else "-"
                body = str(abs(p)) if den == 1 else f"{abs(p)}/{den}"
                if xpart:
                    body = xpart if body == "1" else f"{body}*{xpart}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"CPoly({self.render()!r}, n={self.ctx.n})"


def _twisted_vector_sums(ctx: CycloContext, vectors, den: int) -> list[CycloElem]:
    """The twisted sums sum_r zeta^(-sr) t_r for s = 0..n-1, of
    t_r = vectors[r - 1] / den for r = 1..n - 1, or 1..n: zeta^(-sn) = 1,
    so a vector at r = n adds the same term to every sum.  Each vector
    holds the int coordinates of den * t_r in Z[zeta]/(zeta^n - 1), slot u
    for zeta^u, and may have any length up to n: the d coordinates of a
    lifted field element (``identities._twist_eigenvalues``), or all n of
    an element never reduced mod Phi_n or of a lift padded with zeros
    (``identities._vector_sums``).  Each is packed once by zeta -> 2^k: a
    ring map, since zeta^n -> 2^(k*n) = 1.

    Only the final digits must fit in the slots: the packing is a ring map,
    so intermediate values may wrap, and ``_unpack`` reads back every digit
    vector with all |digits| < 2^(k-1).  A rotation permutes the slots, so
    each digit of a sum is a sum of at most n coordinates, each at most B
    in absolute value: |digit| <= n B < 2^(bitlen(B) + bitlen(n - 1)) =
    2^(k-1) for k = bitlen(B) + bitlen(n - 1) + 1, as n <= 2^bitlen(n - 1)
    for n >= 2.
    """
    n = ctx.n
    bound = max((max(max(v), -min(v)) for v in vectors), default=0)
    k = bound.bit_length() + (n - 1).bit_length() + 1
    packed = [(r, _pack(v, k)) for r, v in enumerate(vectors, 1) if any(v)]
    return [CycloElem(ctx, coords, den) for [coords] in _rotated_sums(ctx, packed, k, 1)]


def _rational_twisted_sums(ctx: CycloContext, vectors) -> list[int] | None:
    """The twisted sums N_s = sum_{r=1..n-1} zeta^(-sr) V_r for s = 0..n-1,
    as ints, of the n - 1 int vectors V_r = vectors[r - 1]
    of length n in Z[x]/(x^n - 1), never reduced mod Phi_n, when the table
    is Galois-equivariant; None when it is not.  For vectors that hold den
    times the entries t_r, N_s = den * lambda_s.

    Equivariant means sigma_t(V_r) = V_(tr mod n) as vectors, for each t of
    ``_generators(n)``, where sigma_t is the slot permutation x^i -> x^(ti):
    a ring map that commutes with the reduction mod Phi_n.  The check first
    compares one slot per t, x^t of V_t with x^1 of V_1, which refuses the
    padded lifts of the ``galois-*`` rows before any tuple is built; then
    it takes one ``itemgetter`` per vector and generator.  When it holds:
    - Substituting r' = tr, sigma_t(N_s) = sum_r zeta^(-tsr) V_(tr)(zeta) =
      N_s for N_s = den * lambda_s.  Fixed by a generating set, N_s is fixed
      by the Galois group, so it is rational; it lies in Z[zeta], so it is
      an integer.
    - Under every embedding |zeta| = 1, so |N_s| <= bound = sum_r ||V_r||_1.
    - zeta -> 2^j is a ring map Z[zeta] -> Z/m for m = Phi_n(2^j), and
      x -> 2^j from Z[x]/(x^n - 1) factors through it, as Phi_n divides
      x^n - 1.  So with the least j >= 1 for which m > 2 * bound, V_r is
      packed as ``_pack(v, j) % m``, each s sums the packed V_r shifted by
      j*(-sr mod n) bits, and N_s is the residue of that total in
      (-m/2, m/2).  No sum is unpacked, reduced mod Phi_n or made a
      ``CycloElem``.
    """
    n = ctx.n
    gens = _generators(n)
    for t in gens:
        if vectors[t - 1][t] != vectors[0][1]:  # sigma_t(V_1) and V_t differ at x^t
            return None
    rows = list(map(tuple, vectors))
    for t in gens:
        image = itemgetter(*[t * i % n for i in range(n)])  # V -> sigma_t^-1(V)
        if any(image(rows[t * r % n - 1]) != row for r, row in enumerate(rows, 1)):
            return None
    bound = sum(sum(map(abs, v)) for v in vectors)
    j, m = _phi_modulus(ctx, 2 * bound)
    packed = [_pack(v, j) % m for v in vectors]
    moduli, half, sums = [j * n] * (n - 1), m >> 1, []
    for s in range(n):
        step = j * (n - s)  # j*(-sr mod n) = step*r mod j*n, for r = 1..n-1
        total = sum(map(lshift, packed, map(mod, range(step, step * n, step), moduli))) % m
        sums.append(total - m if total > half else total)
    return sums


def _rotated_sums(ctx: CycloContext, packed, k: int, w: int) -> list[list[list[int]]]:
    """For s = 0..n-1, the x-coefficients c_0..c_(w-1), as int coordinate
    lists, of sum_r zeta^(-sr) t_r, for the pairs (r, t_r) of ``packed`` with t_r
    packed by x -> 2^k and zeta -> 2^(k*w), slot u*w + j holding the
    coordinate of zeta^u * x^j (w = 1 for ``_twisted_vector_sums``, n for
    ``_cleared_sums``).  Each s shifts every t_r once, by k*w*(-sr mod n)
    bits, and sums the shifted ints: a shift is the twist by zeta^(-sr)
    mod 2^(k*w*n) - 1, and ``_unpack`` takes any representative, so
    neither a t_r nor a sum is reduced before it.  Each sum is unpacked
    once and each x-coefficient reduced mod Phi_n once.
    Phi_n divides zeta^n - 1, so that reduction is a ring map too, and it
    must stay, as the identities hold only at a primitive zeta.  The callers
    prove that every digit of a sum fits its slot.
    """
    n = ctx.n
    rs = [r for r, _ in packed]
    ps = [p for _, p in packed]
    sums = []
    for s in range(n):
        total = sum(map(lshift, ps, [k * w * (-s * r % n) for r in rs]))
        digits = _unpack(total, k, n * w)
        sums.append([_reduce(ctx, digits[j::w]) for j in range(w)])
    return sums


def _cleared_sums(ctx: CycloContext) -> list[list[list[int]]]:
    """S[s] = sum_{0<r<n} zeta^(-sr) Q_r for s = 0..n-1, each as its n
    x-coefficients, each its d int coordinates mod Phi_n, for
    Q_r = (x - 1) prod_{0<r'<n, r'!=r} (1 - x*zeta^r').

    Each Q_r is built packed, with w = n and k = n + bitlen(n - 1): a factor
    1 - x*zeta^r' is one rotate-and-subtract acc - acc * 2^(k + r'*k*w), and
    so is x - 1.  ``_rotated_sums`` takes the packed Q_r as they are.  Only
    the final digits must fit their slots (see ``_twisted_vector_sums``):
    - Q_r has n - 1 linear factors, so x-degree n - 1 < w: a shift by x
      never moves a digit into the next zeta block.
    - With Q_r = (x - 1) P_r, the x^j coefficient of P_r is (-1)^j times a
      sum of C(n - 2, j) monomials zeta^(r_1 + ... + r_j): its digits have
      sign (-1)^j and size at most C(n - 2, j).  That of Q_r is the x^(j-1)
      coefficient of P_r less the x^j one, so its digits are at most
      C(n - 2, j - 1) + C(n - 2, j) = C(n - 1, j) <= 2^(n-1).
    - A rotation permutes the zeta blocks of one x-power, so a digit of
      S[s] sums n - 1 of those: at most (n - 1) 2^(n-1) <
      2^(bitlen(n - 1) + n - 1) = 2^(k-1), the bound ``_unpack`` needs.
    """
    n = ctx.n
    k, w = n + (n - 1).bit_length(), n
    modulus = (1 << (k * w * n)) - 1
    packed = []
    for r in range(1, n):
        acc = 1
        for u in range(1, n):
            if u != r:  # acc * (1 - x*zeta^u)
                acc = (acc - _rotate(acc, k + u * k * w, modulus)) % modulus
        packed.append((r, (_rotate(acc, k, modulus) - acc) % modulus))  # (x - 1) P_r
    return _rotated_sums(ctx, packed, k, w)


def partial_fraction_check(ctx: CycloContext) -> list[bool]:
    """Whether the exact polynomial form of the expansion
    sum_{0<r<n} zeta^(-rs)/(1 - x*zeta^r) = (sum_j x^j - n*x^s)/(x^n - 1)
    holds, for s = 0..n-1.

    Both sides are multiplied by x^n - 1.  The left side becomes
    S[s] = sum_{0<r<n} zeta^(-rs) Q_r, every s from one ``_cleared_sums``
    pass, and the right side has the coordinates [1 - n*[j == s], 0, ..., 0]
    at x^j for j = 0..n-1.
    """
    n = ctx.n
    zeros = [0] * (ctx.degree - 1)
    return [all(c == [1 - n * (j == s), *zeros] for j, c in enumerate(total))
            for s, total in enumerate(_cleared_sums(ctx))]


def row_sum_x_check(ctx: CycloContext) -> list[list[bool]]:
    """Whether the exact polynomial form of the x-weighted row-sum identity
    sum_{j!=k} (1 + x*zeta^(j-k))/(1 - x*zeta^(j-k)) * zeta^(s(k-j))
      = 1 + 2*(sum_j x^j - n*x^s)/(x^n - 1) - n*[s == 0]
    holds, as the n x n table indexed [k-1][s] for k = 1..n, s = 0..n-1.

    Cleared of x^n - 1, the summand at j - k = r is (1 + x*zeta^r) Q_r with
    Q_r the partial-fraction term, and the right side is
    (1 - n*[s == 0])(x^n - 1) + 2*(sum_j x^j - n*x^s).  With S the sums of
    ``_cleared_sums``, the left side is S[s] + x*S[s - 1]:
    zeta^(-sr) * zeta^r = zeta^(-(s-1)r), and zeta^n = 1 makes
    S[-1] = S[n - 1].  The left side is added in the field, and both sides
    are compared coefficient by coefficient, at x^0..x^n.
    """
    n = ctx.n
    sums = [[CycloElem(ctx, c) for c in total] for total in _cleared_sums(ctx)]
    row = []
    for s in range(n):
        c = 1 - n * (s == 0)
        right = [2 * (1 - n * (j == s)) - c * (j == 0) for j in range(n)] + [c]
        left = [a + b for a, b in zip([*sums[s], 0], [0, *sums[s - 1]])]
        row.append(left == right)
    return [list(row) for _ in range(n)]  # every row is the k-free sum

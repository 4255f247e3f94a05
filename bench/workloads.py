"""The benchmark's workloads and its own correctness checks.

A task is (identity, n, oracle).  The grids are smaller than the library's
acceptance grids so that one pass takes a few seconds and a run can repeat
it, but each keeps the mix of layers that the workload is meant to stress.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Every registered identity and whether the CLI restricts it to odd n >= 3
# (otherwise n >= 2).  Kept here, not read from the library, so that a task
# the CLI drops shows up as a failure.
IDENTITIES = {
    "a-det": True, "b-det": True, "c-det": True, "c1-det": True,
    "tilde-a-det": True, "s19-det": True,
    "c1-spectrum": False, "two-c-spectrum": False,
    "eigen-a": True, "eigen-b": True, "eigen-c1": False,
    "eei-a": True, "eei-b": True, "eei-c1": True,
    "root-sums": False, "row-sums": False,
    "partial-fraction": False, "row-sum-x": False,
    "galois-a-det": True, "galois-c-det": True, "galois-b-det": True,
}

CLI_JOBS = 2
CLI_MAX_N = 9


def _odd(lo: int, hi: int) -> range:
    return range(lo | 1, hi + 1, 2)


def _det_grid():
    # Prime n (11, 13, 17: field degree n-1) next to composite n (9, 15:
    # degree 6, 8); at n = 17 the Euclid inverse dominates.  The derangement
    # oracle runs at n <= 7: at n = 9 its 14,833-term sums would take most
    # of a pass.
    for name in ("a-det", "b-det", "c-det", "c1-det", "tilde-a-det"):
        for n in _odd(3, 17):
            yield name, n, name in ("a-det", "c-det") and n <= 7
    for n in _odd(3, 13):
        yield "s19-det", n, False


def _spectrum_eei():
    # charpoly and matrix products only; no inverse, so this is the control
    # workload for changes to the inverse.
    for name in ("eigen-a", "eigen-b"):
        for n in _odd(3, 11):
            yield name, n, False
    for n in range(2, 12):
        yield "eigen-c1", n, False
    for name in ("eei-a", "eei-b", "eei-c1"):
        for n in _odd(3, 9):
            yield name, n, False
    for name in ("c1-spectrum", "two-c-spectrum"):
        for n in range(2, 12):
            yield name, n, False


def _sums_poly():
    # No matrices and no inverse: many small field operations and CPoly
    # products with shared sub-products, where per-call overhead shows.
    for n in range(2, 41):
        yield "root-sums", n, False
    for name in ("row-sums", "partial-fraction"):
        for n in range(2, 13):
            yield name, n, False
    for n in range(2, 12):
        yield "row-sum-x", n, False


IN_PROCESS = {
    "det-grid": _det_grid,
    "spectrum-eei": _spectrum_eei,
    "sums-poly": _sums_poly,
}
WORKLOADS = (*IN_PROCESS, "cli-all")


def tasks_for(workload: str, seed: int, max_n: int | None = None) -> list[tuple]:
    """The workload's tasks, in an order permuted by ``seed``."""
    tasks = [t for t in IN_PROCESS[workload]() if max_n is None or t[1] <= max_n]
    random.Random(seed).shuffle(tasks)
    return tasks


def cli_range(max_n: int | None = None) -> tuple[int, int]:
    return 3, CLI_MAX_N if max_n is None else min(CLI_MAX_N, max_n)


def cli_expected_tasks(lo: int, hi: int) -> set[tuple[str, int]]:
    """The (identity, n) pairs `verify --identity all --n lo..hi` must report."""
    return {(name, n) for name, odd in IDENTITIES.items()
            for n in range(max(lo, 3 if odd else 2), hi + 1)
            if not odd or n % 2}


# -- closed forms, written from the README formulas --------------------------


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def det_closed_form(name: str, n: int, oracle: bool) -> str:
    """The `computed` text a correct determinant verifier reports."""
    h = (n - 1) // 2
    a = Fraction(_sign(h) * _double_factorial(n - 2) ** 2, n)
    if name == "a-det":
        text = f"(d0, d1) = ({_fmt(a)}, 0)"
        return text + f"; derangement sum {_fmt(a)}" if oracle else text
    if name == "c-det":
        c = Fraction(_sign(h) * _factorial(h) ** 2, n)
        return _fmt(c) + (f"; derangement sum {_fmt(c)}" if oracle else "")
    if name == "b-det":
        d0 = Fraction(_sign(h + 1) * _double_factorial(n - 1) ** 2, n * (n - 1))
        return f"(d0, d1) = ({_fmt(d0)}, {_fmt(n * d0)})"
    if name == "c1-det":
        return _fmt(Fraction(_sign(h + 1) * (n + 1) * _double_factorial(n - 1) ** 2,
                             n * (n - 1) * 2 ** (n - 1)))
    if name == "tilde-a-det":
        return _fmt(a / 2 ** (n - 1))
    if name == "s19-det":
        return _fmt(Fraction(_sign(h) * n ** (n - 2)))
    raise KeyError(name)

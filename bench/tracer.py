"""Per-layer tracing that lives outside the library.

The traced passes replace public functions of each cyclodet module with
wrappers that record, per span name: call count, total time and self time.
Self time is a span's duration minus the time of the wrapped calls nested
inside it, so every open span keeps an accumulator for its children on a
stack.  Total time counts only the outermost span of a name, so a wrapped
function that reaches itself again (``__rsub__`` calling ``__sub__``) is not
counted twice.

Nothing here runs in an untraced pass: importing this module patches nothing,
and ``install`` is called only by the traced entry points.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """Span records keyed by name: [calls, total_s, self_s, open depth]."""

    def __init__(self):
        self.records: dict[str, list] = {}
        self.max_in_bits = 0
        self._stack: list[float] = []

    def _record(self, name: str) -> list:
        return self.records.setdefault(name, [0, 0.0, 0.0, 0])

    def wrap(self, name: str, fn):
        """A wrapper of fn that records its calls under ``name``."""
        rec = self._record(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            rec[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                rec[3] -= 1
                rec[0] += 1
                rec[2] += dt - child
                if not rec[3]:
                    rec[1] += dt
                if stack:
                    stack[-1] += dt

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap the public functions of every traced cyclodet module, for the
        rest of the process."""
        from cyclodet import cli, combinatorics, cyclotomic, identities, linalg, polynomials

        elem = cyclotomic.CycloElem
        span = {}  # one wrapper per original function, shared by its aliases

        def wrap_attr(owner, attr, name):
            fn = getattr(owner, attr)
            if id(fn) not in span:
                span[id(fn)] = self.wrap(name, fn)
            setattr(owner, attr, span[id(fn)])

        # __rmul__/__radd__ are the same functions as __mul__/__add__, so the
        # aliases must be patched too or reflected calls escape the trace.
        for attr in ("__mul__", "__rmul__"):
            wrap_attr(elem, attr, "cyclotomic.mul")
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__"):
            wrap_attr(elem, attr, "cyclotomic.addsub")
        wrap_attr(elem, "mul_zeta_pow", "cyclotomic.mul_zeta_pow")
        wrap_attr(elem, "galois", "cyclotomic.galois")
        elem.inverse = self._wrap_inverse(elem.inverse)
        # identities imported inv_one_minus_zeta by name, so patch it there too.
        wrap_attr(cyclotomic, "inv_one_minus_zeta", "cyclotomic.inv_one_minus_zeta")
        identities.inv_one_minus_zeta = cyclotomic.inv_one_minus_zeta

        wrap_attr(linalg.CMatrix, "det", "linalg.det")
        wrap_attr(linalg.CMatrix, "det_affine", "linalg.det_affine")
        wrap_attr(linalg.CMatrix, "charpoly", "linalg.charpoly")
        wrap_attr(linalg.CMatrix, "matvec", "linalg.matvec")

        for attr in ("__mul__", "__rmul__"):
            wrap_attr(polynomials.CPoly, attr, "polynomials.cpoly_mul")
        wrap_attr(polynomials, "partial_fraction_check", "polynomials.check")
        wrap_attr(polynomials, "row_sum_x_check", "polynomials.check")

        wrap_attr(combinatorics, "signed_derangement_sum", "combinatorics.derangement_sum")
        identities.signed_derangement_sum = combinatorics.signed_derangement_sum

        wrap_attr(identities, "build_matrix", "identities.build_matrix")
        run = self._wrap_run_identity(identities.run_identity)
        identities.run_identity = cli.run_identity = run

    def _wrap_inverse(self, fn):
        timed = self.wrap("cyclotomic.inverse", fn)

        def inverse(elem):
            bits = max(elem.den.bit_length(), *(abs(v).bit_length() for v in elem.num))
            if bits > self.max_in_bits:
                self.max_in_bits = bits
            return timed(elem)

        return inverse

    def _wrap_run_identity(self, fn):
        """One span per identity, named identities.<identity>."""
        spans = {}

        def run_identity(name, *args, **kwargs):
            if name not in spans:
                spans[name] = self.wrap(f"identities.{name}", fn)
            return spans[name](name, *args, **kwargs)

        return run_identity

    def reset(self) -> None:
        for rec in self.records.values():
            rec[:] = [0, 0.0, 0.0, 0]
        self.max_in_bits = 0

    def snapshot(self) -> dict:
        """Plain-data copy: {"spans": {name: [calls, total_s, self_s]},
        "max_in_bits": int}."""
        return {"spans": {k: rec[:3] for k, rec in self.records.items() if rec[0]},
                "max_in_bits": self.max_in_bits}


def merge(snapshots) -> dict:
    """Sum span records and take the largest max_in_bits."""
    spans: dict[str, list] = {}
    bits = 0
    for snap in snapshots:
        bits = max(bits, snap["max_in_bits"])
        for name, (calls, total, self_s) in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
    return {"spans": spans, "max_in_bits": bits}

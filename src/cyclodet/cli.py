"""Batch command-line front end.

Subcommands:
  verify  run identity verifiers over a range of n and emit a report
  det     print one exact determinant

Exit codes: 0 success, 1 a verification failed, 2 usage or guardrail error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing, nullcontext

from . import __version__
from .combinatorics import GuardrailExceeded
from .identities import (
    DET_KINDS,
    IDENTITIES,
    kind_block_det,
    run_identity,
)
from .rationals import format_rational, parse_integer, parse_rational

REPORT_FIELDS = ("identity", "n", "params", "expected", "computed",
                 "passed", "elapsed_seconds", "tool_version")

class UsageError(Exception):
    pass


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    try:
        a = parse_integer(lo)
        b = parse_integer(hi) if dots else a
    except ValueError:
        raise UsageError(f"bad n range {text!r}; expected N or A..B") from None
    if a > b:
        raise UsageError(f"empty n range {text!r}")
    return a, b


def _grid_for(info, n_range) -> list[int]:
    if n_range is None:
        return list(info.default_grid)
    a, b = n_range
    # no identity admits n < 2, so a very negative lower bound costs nothing
    return [n for n in range(max(a, 2), b + 1) if info.admits(n)]


def _forked_map(fn, tasks, jobs):
    """Yield ``fn(task)`` for each task, in task order.

    With ``jobs`` > 1, and where the platform can fork, ``jobs`` children
    are forked at once: child i runs ``tasks[i::jobs]`` and pickles each
    result, or the exception a task raised, down its own pipe, so task t is
    read from child t % jobs and results stream in order.  A child that ends
    without sending a result is an error naming the task.  However the
    caller leaves (close the generator when it stops early), the pipes are
    closed and every child is killed and reaped.  Elsewhere the tasks run
    serially through ``map``, and ``pickle`` is not imported.  The CLI runs
    no threads, so forking it is safe; the children inherit whatever the
    caller installed, such as a wrapper around ``fn``."""
    if jobs == 1 or not hasattr(os, "fork"):
        yield from map(fn, tasks)
        return
    import pickle
    import signal

    pids, readers = [], []
    try:
        for i in range(jobs):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, tasks[i::jobs], w, readers, i)
            finally:
                os.close(w)  # so a child's exit is EOF here
            pids.append(pid)
        for t, task in enumerate(tasks):
            try:
                ok, value = pickle.load(readers[t % jobs])
            except EOFError:
                raise RuntimeError(f"worker {pids[t % jobs]} ended without "
                                   f"a result for task {task!r}") from None
            if not ok:
                raise value
            yield value
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fn, tasks, fd, readers, index):
    """A forked child's whole life: move to its own CPU, run the tasks,
    pickle each result (or the exception that stops the run) to fd, and
    leave by ``os._exit``, so the stdout and file buffers inherited from the
    parent are not flushed twice and no exception gets back into the
    parent's code."""
    import pickle

    code = 1
    try:
        _spread(index)
        for reader in readers:  # the parent's ends: an orphan's write fails, not blocks
            reader.close()
        with open(fd, "wb") as out:
            for task in tasks:
                try:
                    result = True, fn(task)
                except Exception as exc:
                    result = False, exc
                pickle.dump(result, out)
                out.flush()
                if not result[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _spread(index: int) -> None:
    """Move this process to the index-th CPU it may run on, then allow it
    every one of them again.  The scheduler often starts a forked child on
    the CPU a sibling already runs on, and the two share it until a timer
    tick (4 ms at 250 Hz) lets an idle CPU take one over: a first task that
    took 0.8 ms read about 5 ms in a fifth to a half of the runs on a
    2-vCPU VM.  The first move is made at once, and since the child's CPU
    stays in the restored mask it stays put until the load says otherwise."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    except OSError:  # a mask the platform will not set only costs the move
        pass


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_task(task):
    name, n, oracle, force = task
    return run_identity(name, n, oracle=oracle, force=force)


def _dict_with_version(report) -> dict:
    d = report.as_dict()
    d["tool_version"] = __version__
    return d


def _summary(reports) -> dict:
    passed = sum(r.passed for r in reports)
    return {"total": len(reports), "passed": passed, "failed": len(reports) - passed}


def _summary_line(reports) -> str:
    return "summary: " + " ".join(f"{key}={count}" for key, count in _summary(reports).items())


def _emit_reports(reports, fmt: str, out):
    if fmt == "text":
        lines = [_text_line(r) for r in reports]
        lines.append(_summary_line(reports))
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        import json

        doc = {
            "reports": [_dict_with_version(r) for r in reports],
            "summary": _summary(reports),
        }
        payload = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        import csv
        import io
        import json

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            d = _dict_with_version(r)
            writer.writerow([
                d["identity"], d["n"], json.dumps(d["params"], sort_keys=True),
                d["expected"], d["computed"],
                "true" if d["passed"] else "false",
                repr(d["elapsed_seconds"]), d["tool_version"],
            ])
        payload = buf.getvalue()
    else:
        raise UsageError(f"unknown format {fmt!r}")
    out.write(payload)


def _text_line(r) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    detail = f"expected {r.expected}" if r.passed else \
        f"expected {r.expected} | computed {r.computed}"
    if r.first_difference:
        detail += f" | first differs at {r.first_difference}"
    return f"{verdict} {r.identity} n={r.n} {detail} ({r.elapsed_seconds:.3f}s)"


def cmd_verify(args) -> int:
    if args.identity == "all":
        names = list(IDENTITIES)
    elif args.identity in IDENTITIES:
        names = [args.identity]
    else:
        raise UsageError(
            f"unknown identity {args.identity!r}; known: all, " + ", ".join(IDENTITIES))
    if args.jobs < 0:
        raise UsageError(f"--jobs must be 0 or more, got {args.jobs}")
    n_range = _parse_n_range(args.n) if args.n else None
    tasks = []
    for name in names:
        info = IDENTITIES[name]
        for n in _grid_for(info, n_range):
            tasks.append((name, n, args.oracle and info.supports_oracle, args.force))
    if not tasks:
        raise UsageError(f"n range {n_range[0]}..{n_range[1]} leaves no admissible n")
    tasks.sort(key=lambda t: (t[0], t[1]))
    # every worker is forked at once, so never more than tasks
    jobs = min(args.jobs or min(_usable_cpus(), 8), len(tasks))
    # an unwritable --out is a usage error before any check runs
    try:
        out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    reports = []
    stream = sys.stderr if args.format != "text" or args.out else sys.stdout
    with out as fh, closing(_forked_map(_run_task, tasks, jobs)) as results:
        for report in results:
            reports.append(report)
            print(_text_line(report), file=stream, flush=True)
        if args.format != "text" or args.out:
            _emit_reports(reports, args.format, fh)
        else:
            print(_summary_line(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_det(args) -> int:
    kind = DET_KINDS.get(args.matrix)
    if kind is None:
        raise UsageError(f"unknown matrix kind {args.matrix!r}; "
                         "known: " + ", ".join(DET_KINDS))
    try:
        n = parse_integer(args.n)
        x = parse_rational(args.x)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from None
    if n < 2:
        raise UsageError("n must be at least 2")
    try:
        d0, d1 = kind_block_det(kind, n)  # det[x + m_jk] = d0 + d1*x
    except ZeroDivisionError:
        raise UsageError(
            f"matrix kind {args.matrix!r} is undefined for n={n}") from None
    print(format_rational(d0 + d1 * x))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclodet",
        description="Exact verification of root-of-unity matrix identities.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity verifiers over a range of n")
    p_verify.add_argument("--identity", required=True,
                          help="identity name or 'all'")
    p_verify.add_argument("--n", default=None,
                          help="inclusive range a..b (or single N) of integers "
                               "in ASCII digits with an optional sign; "
                               "defaults to the identity's acceptance grid; "
                               "a negative bound needs the form --n=-3..5")
    p_verify.add_argument("--oracle", action="store_true",
                          help="also run derangement-sum cross-checks where supported")
    p_verify.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_verify.add_argument("--out", default=None, help="write the report to a file")
    p_verify.add_argument("--force", action="store_true",
                          help="run --oracle above its guardrail of dimension 12 "
                               "(2^d*d ring products at dimension d)")
    p_verify.add_argument("--jobs", type=int, default=0,
                          help="worker processes; 0 = one per CPU core "
                               "(capped at 8), 1 = serial")
    p_verify.set_defaults(func=cmd_verify)

    p_det = sub.add_parser("det", help="print one exact determinant")
    p_det.add_argument("--matrix", required=True,
                       help="matrix kind: " + "|".join(DET_KINDS))
    p_det.add_argument("--n", required=True,
                       help="integer n >= 2 (ASCII digits, optional sign)")
    p_det.add_argument("--x", default="0",
                       help="rational shift added to every entry (p/q); default 0")
    p_det.set_defaults(func=cmd_det)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, GuardrailExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

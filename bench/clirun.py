"""The cyclodet CLI with a speed sampler, and optionally per-layer tracing,
in every process that runs a task.

    python3 bench/clirun.py [--trace] verify --identity all --n 3..9 --jobs 2 ...

Runs ``cyclodet.cli.main`` with ``cli._run_task`` wrapped.  The first task a
process runs starts a speed Sampler (speed.py) there; each task is timed and
its raw and scaled seconds go back on its report, and with --trace so does
the tracer's snapshot of that task.  The pool workers must be forked from
this process to inherit the wrapper.  Prints one JSON line on stdout:
{"tasks": [[identity, n, raw_s, scaled_s], ...], "trace": merged trace or
null}; a report that comes back without its timing is an error (exit 3).
"""

import json
import os
import sys
import time

from cyclodet import cli
from speed import Sampler
from tracer import Tracer, merge


def main(argv) -> int:
    traced = argv[:1] == ["--trace"]
    if traced:
        argv = argv[1:]
        tracer = Tracer()
        tracer.install()
    run_task = cli._run_task
    samplers: dict[int, Sampler] = {}

    def timed_task(task):
        sampler = samplers.get(os.getpid())
        if sampler is None:
            sampler = samplers[os.getpid()] = Sampler()
            sampler.start()
        if traced:
            tracer.reset()
        t0 = time.perf_counter()
        report = run_task(task)
        t1 = time.perf_counter()
        sampler.mark()
        report.bench_seconds = (sampler.raw(t0, t1), sampler.scaled(t0, t1))
        if traced:
            report.layer_trace = tracer.snapshot()
        return report

    # The pool pickles the task function by name, so the wrapper takes the
    # original's name and is found under it in the (forked) workers.
    timed_task.__module__ = run_task.__module__
    timed_task.__qualname__ = run_task.__qualname__
    cli._run_task = timed_task

    reports = []
    emit = cli._emit_reports

    def emit_reports(batch, fmt, out_path):
        reports.extend(batch)
        return emit(batch, fmt, out_path)

    cli._emit_reports = emit_reports
    code = cli.main(argv)
    if not reports or any(not hasattr(r, "bench_seconds") for r in reports) or \
            traced and any(not hasattr(r, "layer_trace") for r in reports):
        print("error: a task came back without its timing or trace", file=sys.stderr)
        return 3
    print(json.dumps({
        "tasks": [[r.identity, r.n, *r.bench_seconds] for r in reports],
        "trace": merge([r.layer_trace for r in reports]) if traced else None,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

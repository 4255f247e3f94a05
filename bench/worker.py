"""One pass of a workload in a fresh interpreter.

Reads one JSON object from stdin:
  {"spawned": t, "tasks": [[identity, n, oracle], ...], "contexts": [n, ...],
   "traced": bool}
where t is ``time.monotonic()`` read by the parent just before it started
this process (the clock is system-wide, so the difference is the set-up time
including interpreter start).  Set-up imports cyclodet and builds the
CycloContext of every n in the tasks and in "contexts"; a speed probe
(speed.py) follows it, for the parent to scale the set-up time with.  Writes
one JSON object to stdout.  With no tasks it only measures set-up.

The tasks run under a speed Sampler; each task's time is reported raw and
scaled to the reference speed, both without the sampler's probes.
"""

import json
import resource
import sys
import time

from speed import Sampler, probe


def main() -> int:
    job = json.load(sys.stdin)
    import cyclodet
    from cyclodet import identities
    from cyclodet.cyclotomic import shared_context

    for n in sorted({t[1] for t in job["tasks"]} | set(job["contexts"])):
        shared_context(n)
    out = {"setup_s": time.monotonic() - job["spawned"], "version": cyclodet.__version__}
    out["setup_probe"] = probe()
    if not job["tasks"]:
        print(json.dumps(out))
        return 0

    tracer = None
    if job["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = Sampler()
    sampler.start()
    spans = []
    clock = time.perf_counter
    for name, n, oracle in job["tasks"]:
        t0 = clock()
        try:
            report = identities.run_identity(name, n, oracle=oracle)
        except Exception as exc:  # a task that raises counts as failed
            spans.append(([name, n, oracle, False, f"{type(exc).__name__}: {exc}"], t0, clock()))
        else:
            spans.append(([name, n, oracle, report.passed, report.computed], t0, clock()))
    sampler.stop()
    # Each row ends with its raw and its scaled seconds.
    results = [row + [sampler.raw(t0, t1), sampler.scaled(t0, t1)] for row, t0, t1 in spans]
    out["raw_wall_s"] = sum(r[5] for r in results)
    out["wall_s"] = sum(r[6] for r in results)
    out["tasks"] = results
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

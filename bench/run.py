#!/usr/bin/env python3
"""Layered benchmark of cyclodet.

    python3 bench/run.py --workload det-grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from src/.
A run repeats passes of the workload until --seconds are used (at least
three passes).  Every pass is a fresh interpreter, so every pass pays and
measures set-up.  The in-process workloads run their tasks serially through
``identities.run_identity`` in a task order permuted by --seed; cli-all runs
``cyclodet verify --identity all`` with a process pool, in the CLI's order.

Times are scaled to a reference machine speed (bench/speed.py): a speed
sampler interrupts the process that runs the tasks every 25 ms for a short
probe of fixed pure-Python work, and each task's time is integrated at the
speed the probes around it measured; set-up is scaled by probes just before
and after it.  So a slow phase of the host does not read as a slow program.
Each task's time is the median over passes of its scaled time.  The raw
times are kept in the record.

--trace 0 reports the end-to-end metrics (medians over passes).  --trace 1
alternates untraced passes with traced ones, in which bench/tracer.py wraps
the public functions of each module, and reports the per-layer metrics; the
call counts of all traced passes must agree exactly.

Every result is checked: a task fails when its report does not pass, when it
raises, or (det-grid) when its computed value differs from the closed form
that workloads.py derives on its own.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
records the seed, the machine and the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from speed import probe, scale
from workloads import (CLI_JOBS, IN_PROCESS, WORKLOADS, cli_expected_tasks, cli_range,
                       det_closed_form, tasks_for)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the metrics to report
SPAN_FIELDS = ("calls", "total_s", "self_s")
MIN_PASSES = 3
SETUPS_PER_PASS = 3
RUN_LIMIT_S = 170  # a run, hung passes included, ends within this


class BenchError(Exception):
    pass


def _child_env() -> dict:
    path = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_worker(job: dict, env: dict, timeout: float) -> dict:
    """Run bench/worker.py on ``job``; returns its JSON output, with the
    set-up time scaled by the probes just before the worker starts and just
    after its set-up."""
    before = probe()
    job = dict(job, spawned=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except BaseException as exc:
        _kill_group(proc)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    out = json.loads(out.splitlines()[-1])
    out["raw_setup_s"] = out["setup_s"]
    out["setup_s"] = scale(out["setup_s"], before, out["setup_probe"])
    return out


def _run_cli(argv_prefix: list, cli_args: list, env: dict, tmp: Path, timeout: float) -> dict:
    """Run one CLI process to completion; wall clock, exit code, peak RSS
    (the largest of the CLI and its reaped workers) and captured output."""
    stdout_path, stderr_path = tmp / "stdout", tmp / "stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv_prefix, *cli_args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss,
            "stdout": stdout_path.read_text(), "stderr": stderr_path.read_text()}


# -- passes --------------------------------------------------------------------


class Workload:
    """Runs passes of one workload and checks their results."""

    def __init__(self, name: str, seed: int, max_n: int | None, tmp: Path):
        self.name = name
        self.env = _child_env()
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        self.raw_setup_samples: list[float] = []
        if name in IN_PROCESS:
            self.tasks = tasks_for(name, seed, max_n)
            self.contexts = sorted({n for _, n, _ in self.tasks})
        else:
            self.lo, self.hi = cli_range(max_n)
            self.tasks = []
            self.contexts = list(range(self.lo, self.hi + 1))
        self.version = None

    def _timeout(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def run_pass(self, traced: bool) -> dict:
        if not traced:
            # Set-up is short, so an untraced pass samples it several times
            # in processes that stop after set-up.
            for _ in range(SETUPS_PER_PASS):
                job = {"tasks": [], "contexts": self.contexts, "traced": False}
                self._add_setup(_run_worker(job, self.env, self._timeout()))
        if self.name in IN_PROCESS:
            return self._in_process_pass(traced)
        return self._cli_pass(traced)

    def _add_setup(self, out: dict) -> None:
        self.setup_samples.append(out["setup_s"])
        self.raw_setup_samples.append(out["raw_setup_s"])

    def _in_process_pass(self, traced: bool) -> dict:
        job = {"tasks": self.tasks, "contexts": [], "traced": traced}
        out = _run_worker(job, self.env, self._timeout())
        if not traced:
            self._add_setup(out)
        self.version = out["version"]
        self.attempted += len(self.tasks)
        if len(out["tasks"]) != len(self.tasks):
            raise BenchError("worker returned a different number of tasks")
        for (name, n, oracle, passed, computed, *_), task in zip(out["tasks"], self.tasks):
            if [name, n, oracle] != list(task):
                raise BenchError(f"worker returned {name} n={n} in place of {task}")
            if not passed:
                self._fail(f"{name} n={n}: report not passed: {computed}")
            elif self.name == "det-grid" and computed != det_closed_form(name, n, oracle):
                self._fail(f"{name} n={n}: computed {computed!r}, closed form "
                           f"{det_closed_form(name, n, oracle)!r}")
        return {"wall_s": out["wall_s"], "raw_wall_s": out["raw_wall_s"],
                "task_s": {tuple(t[:3]): (t[5], t[6]) for t in out["tasks"]},
                "peak_rss_mb": out["rss_kb"] / 1024, "trace": out.get("trace")}

    def _cli_pass(self, traced: bool) -> dict:
        report_path = self.tmp / "report.json"
        report_path.unlink(missing_ok=True)
        args = ["verify", "--identity", "all", "--n", f"{self.lo}..{self.hi}",
                "--jobs", str(CLI_JOBS), "--format", "json", "--out", str(report_path)]
        prefix = [str(BENCH / "clirun.py")] + (["--trace"] if traced else [])
        run = _run_cli(prefix, args, self.env, self.tmp, self._timeout())
        expected = cli_expected_tasks(self.lo, self.hi)
        self.attempted += len(expected)
        if run["code"] not in (0, 1):
            raise BenchError(f"cli exited with {run['code']}: {run['stderr'].strip()[-2000:]}")
        try:
            report_bytes = report_path.stat().st_size
            doc = json.loads(report_path.read_text())
            reports = doc["reports"]
        except (OSError, ValueError, KeyError) as exc:
            raise BenchError(f"cli wrote no readable report: {exc}") from None
        passed = {(r["identity"], r["n"]) for r in reports if r["passed"] is True}
        self.version = reports[0]["tool_version"] if reports else None
        bad = sorted(expected - passed)
        for name, n in bad:
            self._fail(f"{name} n={n}: missing or not passed")
        if not bad and (run["code"] != 0 or len(reports) != len(expected)):
            self._fail(f"cli exit code {run['code']} with {len(reports)} reports "
                       f"for {len(expected)} tasks")
        try:
            out = json.loads(run["stdout"].splitlines()[-1])
            task_s = {(name, n): (raw, scaled) for name, n, raw, scaled in out["tasks"]}
        except (IndexError, ValueError, KeyError, TypeError) as exc:
            raise BenchError(f"cli printed no task timings: {exc}") from None
        # The CLI's wall clock, scaled by the speed its pool workers saw.
        factor = sum(t[1] for t in task_s.values()) / sum(t[0] for t in task_s.values())
        busy = sum(r["elapsed_seconds"] for r in reports)
        return {"wall_s": factor * run["wall_s"], "raw_wall_s": run["wall_s"],
                "task_s": task_s, "peak_rss_mb": run["rss_kb"] / 1024,
                "busy_s": factor * busy, "pool_efficiency": busy / (CLI_JOBS * run["wall_s"]),
                "report_bytes": report_bytes, "trace": out["trace"]}


def run_passes(workload: Workload, seconds: float, trace: bool):
    """Untraced passes (and with ``trace`` every second and third pass
    traced) until the next pass would overrun ``seconds``."""
    plain, traced = [], []
    durations = []
    start = time.monotonic()
    while True:
        is_traced = trace and len(durations) % 3 != 0
        t0 = time.monotonic()
        result = workload.run_pass(is_traced)
        durations.append(time.monotonic() - t0)
        (traced if is_traced else plain).append(result)
        if len(durations) >= MIN_PASSES and \
                time.monotonic() - start + max(durations[-3:]) > seconds:
            return plain, traced


# -- metrics -------------------------------------------------------------------


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def pass_times(passes) -> dict:
    """wall_s and slowest_task_s of a set of passes.  Each task's time is
    the median of its scaled times over the passes; wall_s sums them, except
    on cli-all, where it is the median of the scaled wall clock of the CLI
    (a pool's wall clock is not a sum of task times)."""
    tasks = {task: statistics.median(p["task_s"][task][1] for p in passes)
             for task in passes[0]["task_s"]}
    wall = _median(passes, "wall_s") if "busy_s" in passes[0] else sum(tasks.values())
    return {"wall_s": wall, "slowest_task_s": max(tasks.values())}


def end_to_end(workload: Workload, plain, names) -> dict:
    metrics = {}
    times = pass_times(plain)
    for name in names:
        if name == "setup_s":
            metrics[name] = statistics.median(workload.setup_samples)
        elif name in times:
            metrics[name] = times[name]
        elif name in plain[0]:
            metrics[name] = _median(plain, name)
        else:
            raise BenchError(f"no measurement for end-to-end metric {name}")
    return metrics


def repeat_errors(snaps) -> list[str]:
    """Call counts and max_in_bits that differ between traced passes."""
    first = snaps[0]
    errors = []
    for snap in snaps[1:]:
        if snap["max_in_bits"] != first["max_in_bits"]:
            errors.append(f"max_in_bits {first['max_in_bits']} != {snap['max_in_bits']}")
        for span in sorted(set(first["spans"]) | set(snap["spans"])):
            calls = [s["spans"].get(span, [0])[0] for s in (first, snap)]
            if calls[0] != calls[1]:
                errors.append(f"{span}.calls {calls[0]} != {calls[1]}")
    return errors


def per_layer(workload: Workload, plain, traced, names) -> dict:
    """Span metrics are medians over the traced passes (counts repeat
    exactly), with span times scaled like their pass; cli.* come from the
    untraced passes and are 0 on workloads that do not run the CLI."""
    snaps = [p["trace"] for p in traced]
    factors = [p["wall_s"] / p["raw_wall_s"] for p in traced]
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in SPAN_FIELDS:
            idx = SPAN_FIELDS.index(field)
            values = [s["spans"].get(span, [0, 0.0, 0.0])[idx] * f
                      for s, f in zip(snaps, factors)]
            metrics[name] = snaps[0]["spans"].get(span, [0])[0] if field == "calls" \
                else statistics.median(values)
        elif name == "cyclotomic.inverse.max_in_bits":
            metrics[name] = snaps[0]["max_in_bits"]
        elif span == "cli":
            metrics[name] = _median(plain, field) if field in plain[0] else 0
        elif name == "trace.overhead_frac":
            metrics[name] = pass_times(traced)["wall_s"] / pass_times(plain)["wall_s"] - 1
        else:
            raise BenchError(f"no measurement for per-layer metric {name}")
    return metrics


def machine_record() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-n", type=int, default=None,
                        help="drop tasks above this n (for the self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "cyclodet" / "__init__.py").is_file():
        print(f"error: no cyclodet sources under {SRC}", file=sys.stderr)
        return 2
    table = {m["name"]: m["unit"] for m in
             json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]}

    unrepeated = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        workload = Workload(args.workload, args.seed, args.max_n, Path(tmp))
        try:
            plain, traced = run_passes(workload, args.seconds, bool(args.trace))
            if args.trace:
                unrepeated = repeat_errors([p["trace"] for p in traced])
                metrics = per_layer(workload, plain, traced, table)
            else:
                metrics = end_to_end(workload, plain, table)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for line in workload.failures[:20]:
                print(f"  {line}", file=sys.stderr)
            return 1

    failed = workload.failed
    failed_frac = failed / workload.attempted
    for name, unit in table.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_frac':<40} {failed_frac:>14.6g} ratio")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "max_n": args.max_n,
        "tasks_per_pass": len(workload.tasks) if workload.tasks
        else len(cli_expected_tasks(workload.lo, workload.hi)),
        "untraced_passes": len(plain), "traced_passes": len(traced),
        "setup_samples": len(workload.setup_samples),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "pass_raw_wall_s": [round(p["raw_wall_s"], 4) for p in plain],
        "raw_setup_s": statistics.median(workload.raw_setup_samples),
        "task_order": [f"{name}:{n}" for name, n, _ in workload.tasks],
        "failed_frac": failed_frac, "failures": workload.failures[:20],
        "unrepeated_counts": unrepeated,
        "cyclodet_version": workload.version, "machine": machine_record(),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not unrepeated,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

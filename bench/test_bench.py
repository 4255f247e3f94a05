"""Self-test of the benchmark on tiny grids (n <= 5).

    python3 -m pytest bench/test_bench.py

Checks that every metric of BENCHMARK.json is printed with its unit, that no
task fails, that call counts repeat exactly between two traced runs, and
that the workloads separate the layers as the benchmark claims.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest

from speed import Sampler, scale
from workloads import WORKLOADS, det_closed_form

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--max-n", "5"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@lru_cache(maxsize=None)
def result(workload, trace, attempt=0):
    """Final line and record of one run; ``attempt`` asks for another run."""
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def _calls(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k.endswith(".max_in_bits")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit_and_no_failures(workload, trace, table):
    res, record = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert record["failed_frac"] == 0 and record["failures"] == []
    assert record["seed"] == 7 and record["machine"]["nproc"] >= 1
    assert record["cyclodet_version"]
    want = {m["name"]: m["unit"] for m in SPEC[table]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_call_counts_repeat_between_traced_runs(workload):
    first, _ = result(workload, 1)
    second, _ = result(workload, 1, attempt=1)
    assert _calls(first["metrics"]) == _calls(second["metrics"])
    assert any(_calls(first["metrics"]).values())


def test_workloads_separate_the_layers():
    def calls(workload, name):
        return result(workload, 1)[0]["metrics"][name]["value"]

    assert calls("det-grid", "cyclotomic.inverse.calls") > 0
    assert calls("spectrum-eei", "cyclotomic.inverse.calls") == 0
    assert calls("sums-poly", "cyclotomic.inverse.calls") == 0
    assert calls("det-grid", "linalg.charpoly.calls") == 0
    assert calls("sums-poly", "linalg.charpoly.calls") == 0
    assert calls("spectrum-eei", "linalg.charpoly.calls") > 0
    assert calls("cli-all", "cyclotomic.galois.calls") > 0


def test_seed_permutes_task_order():
    orders = [result("det-grid", 0)[1]["task_order"]]
    for seed in (8, 8):
        proc = _run("det-grid", 0, seed=seed)
        orders.append(json.loads(proc.stdout.splitlines()[-2])["record"]["task_order"])
    assert orders[1] == orders[2] != orders[0]
    assert sorted(orders[0]) == sorted(orders[1])


def test_closed_forms_match_the_readme_examples():
    assert det_closed_form("a-det", 3, False) == "(d0, d1) = (-1/3, 0)"
    assert det_closed_form("a-det", 7, True) == \
        "(d0, d1) = (-225/7, 0); derangement sum -225/7"
    # cyclodet det --matrix b --n 3 --x 1 prints 8/3 = (3x + 1) d0 at x = 1
    assert det_closed_form("b-det", 3, False) == "(d0, d1) = (2/3, 2)"


def test_sampler_integrates_work_at_the_probed_speed():
    sampler = Sampler()
    # probes at [0, 1], [3, 4] and [6, 7]; the CPU runs at half speed
    # (slowness 2) around the middle probe
    sampler.starts, sampler.ends, sampler.slowness = [0, 3, 6], [1, 4, 7], [1, 2, 1]
    assert sampler.raw(0.5, 6.5) == pytest.approx(4.0)
    # 1 s of the gap before the middle probe and the 2 s gap after it, both
    # at mean slowness 1.5; the last 0.5 s is inside a probe
    assert sampler.scaled(2.0, 6.5) == pytest.approx(1 / 1.5 + 2 / 1.5)
    assert sampler.scaled(0.5, 3.5) == pytest.approx(2 / 1.5)
    assert scale(3.0, 1.0, 2.0) == pytest.approx(2.0)


def test_fails_without_the_sources():
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("det-grid", 0, cwd=tmp)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

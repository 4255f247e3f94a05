import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import closing, contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from cyclodet import __version__, cyclotomic, linalg
from cyclodet.cli import REPORT_FIELDS, _forked_map, _spread, build_parser, main
from cyclodet.cyclotomic import CycloElem, shared_context
from cyclodet.identities import (DET_KINDS, DETS, IdentityReport, MatrixKind, a_det_value,
                                 build_matrix, c_det_value)
from cyclodet.linalg import CMatrix
from cyclodet.polynomials import CPoly
from cyclodet.rationals import format_rational

from helpers import add_scalar


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_det_ratio_matrix(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "a", "--n", "3")
    assert code == 0 and out.strip() == "-1/3"


def test_det_unit_diagonal_with_shift(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "b", "--n", "3", "--x", "1")
    assert code == 0 and out.strip() == "8/3"


def test_det_inverted_ratio(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "s19", "--n", "5")
    assert code == 0 and out.strip() == "125"


def test_det_hollow_reciprocal(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "c", "--n", "7")
    assert code == 0 and out.strip() == "-36/7"


def test_det_averaged_matrix(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "tilde-a", "--n", "3")
    assert code == 0 and out.strip() == "-1/12"


def test_det_unit_reciprocal(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "c1", "--n", "3")
    assert code == 0 and out.strip() == "2/3"


@pytest.mark.parametrize("kind", list(DET_KINDS))
def test_det_equals_elimination_of_the_shifted_block(capsys, kind):
    # the spectral route against the reference elimination, both parities
    for n in range(2, 14):
        if kind == "s19" and n % 2 == 0:
            continue  # undefined: 1 + zeta^(n/2) = 0
        ctx = shared_context(n)
        block = build_matrix(DET_KINDS[kind], ctx, n - 1)
        for x in (None, "1", "-7/3"):
            shift = ["--x=" + x] if x else []
            code, out, _ = run(capsys, "det", "--matrix", kind, "--n", str(n), *shift)
            want = add_scalar(block, Fraction(x or 0)).det().as_rational()
            assert code == 0 and out == format_rational(want) + "\n", (n, x)


def test_det_at_large_n(capsys):
    for kind, value in (("a", a_det_value), ("c", c_det_value)):
        code, out, _ = run(capsys, "det", "--matrix", kind, "--n", "101")
        assert code == 0 and out == format_rational(value(101)) + "\n", kind


def test_det_rejects_bad_kind(capsys):
    code, _, err = run(capsys, "det", "--matrix", "q", "--n", "3")
    assert code == 2 and "unknown matrix kind" in err


def test_det_accepts_exactly_the_table_kinds(capsys):
    table_kinds = {d.kind for d in DETS.values()}
    for kind in MatrixKind:
        code, out, err = run(capsys, "det", "--matrix", kind.value, "--n", "3")
        assert (code == 0) == (kind in table_kinds), (kind, out, err)
    code, _, err = run(capsys, "det", "--matrix", "two-c", "--n", "3")
    assert code == 2
    assert err.strip() == ("error: unknown matrix kind 'two-c'; "
                           "known: a, b, c, c1, tilde-a, s19")


def test_det_rejects_bad_n(capsys):
    code, _, _ = run(capsys, "det", "--matrix", "a", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("text", ["1_0", "\u0663", "\uff15", "5.0", "abc"])
def test_det_n_takes_ascii_digits_only(capsys, text):
    # int() would read the first three as 10, 3 and 5
    code, out, err = run(capsys, "det", "--matrix", "a", "--n", text)
    assert code == 2 and out == ""
    assert err == f"error: not an integer literal: {text!r}\n"


def test_det_n_ignores_outer_whitespace(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "a", "--n", " 5 ")
    assert code == 0 and out == format_rational(a_det_value(5)) + "\n"


def test_det_rejects_even_n_for_inverted_ratio(capsys):
    code, _, err = run(capsys, "det", "--matrix", "s19", "--n", "4")
    assert code == 2 and "undefined" in err


def test_det_rejects_bad_x(capsys):
    code, _, _ = run(capsys, "det", "--matrix", "a", "--n", "3", "--x", "0.5")
    assert code == 2


def test_det_rejects_non_ascii_digit_shift(capsys):
    code, _, err = run(capsys, "det", "--matrix", "a", "--n", "3", "--x", "\u0663")
    assert code == 2 and "not a rational literal" in err


def test_det_negative_shift_in_the_equals_form(capsys):
    code, out, _ = run(capsys, "det", "--matrix", "c", "--n", "3", "--x=-1/2")
    assert code == 0 and out.strip() == "1/6"
    # argparse reads a separate -1/2 as an option
    code, out, err = run(capsys, "det", "--matrix", "c", "--n", "3", "--x", "-1/2")
    assert code == 2 and out == "" and "argument --x: expected one argument" in err


def test_det_rejects_zero_denominator_shift(capsys):
    code, _, err = run(capsys, "det", "--matrix", "a", "--n", "3", "--x", "1/0")
    assert code == 2
    assert "zero denominator" in err


def test_verify_range(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "a-det", "--n", "3..11")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 5  # odd n only
    assert out.splitlines()[-1] == "summary: total=5 passed=5 failed=0"


def test_verify_single_n(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "two-c-spectrum", "--n", "4")
    assert code == 0 and "n=4" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "nonsense")
    assert code == 2 and "unknown identity" in err


def test_verify_empty_range(capsys):
    code, _, err = run(capsys, "verify", "--identity", "a-det", "--n", "4..4")
    assert code == 2 and "no admissible n" in err


def test_verify_all_on_an_even_n(capsys):
    # a range that no odd-n identity admits still runs those that admit it
    code, out, _ = run(capsys, "verify", "--identity", "all", "--n", "4", "--jobs", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7
    assert all(l.startswith("PASS") and " n=4 " in l for l in lines)


def test_verify_bad_range(capsys):
    code, _, _ = run(capsys, "verify", "--identity", "a-det", "--n", "9..3")
    assert code == 2


@pytest.mark.parametrize("text", ["1_0..1_1", "1_1", "\u0663..\u0664", "\u0663", "3..\u0665"])
def test_verify_n_takes_ascii_digits_only(capsys, text):
    # int() would run 1_0..1_1 as n = 10..11 and \u0663..\u0664 as n = 3..4
    code, out, err = run(capsys, "verify", "--identity", "a-det", "--n", text, "--jobs", "1")
    assert code == 2 and out == ""
    assert err == f"error: bad n range {text!r}; expected N or A..B\n"


@pytest.mark.parametrize("text", [" 5 ", " 5 .. 5 "])
def test_verify_n_ignores_outer_whitespace(capsys, text):
    code, out, _ = run(capsys, "verify", "--identity", "a-det", "--n", text, "--jobs", "1")
    assert code == 0
    assert [l.split()[2] for l in out.splitlines() if l.startswith("PASS")] == ["n=5"]


def test_verify_rejects_negative_jobs(capsys):
    code, out, err = run(capsys, "verify", "--identity", "a-det", "--n", "3..5",
                         "--jobs", "-5")
    assert code == 2 and "--jobs" in err
    assert "PASS" not in out


def _record_jobs(monkeypatch):
    """Patch the fan-out with one that records its worker count and runs
    the tasks inline instead of forking; return the list of counts."""
    sizes = []

    def inline(fn, tasks, jobs):
        sizes.append(jobs)
        yield from map(fn, tasks)

    monkeypatch.setattr("cyclodet.cli._forked_map", inline)
    return sizes


def test_verify_pool_is_no_larger_than_the_task_count(capsys, monkeypatch):
    # every worker is forked at once, so record the count through a fake
    # fan-out that runs the tasks inline instead of forking any
    sizes = _record_jobs(monkeypatch)
    code, out, _ = run(capsys, "verify", "--identity", "row-sums", "--n", "2..3",
                       "--jobs", "500")
    assert code == 0 and out.count("PASS") == 2
    assert sizes == [2]


@pytest.mark.parametrize("usable, jobs", [(1, 1), (3, 3), (16, 8)])
def test_verify_jobs_0_counts_the_cpus_this_process_may_use(capsys, monkeypatch,
                                                            usable, jobs):
    # the affinity mask, not the machine's count, and at most 8
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    sizes = _record_jobs(monkeypatch)
    code, out, _ = run(capsys, "verify", "--identity", "row-sums", "--n", "2..20",
                       "--jobs", "0")
    assert code == 0 and out.count("PASS") == 19
    assert sizes == [jobs]


def test_verify_negative_lower_bound_in_the_equals_form(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "row-sums", "--n=-3..3",
                       "--format", "json", "--jobs", "1")
    assert code == 0
    assert [r["n"] for r in json.loads(out)["reports"]] == [2, 3]


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake(task):
        name, n, _, _ = task
        return IdentityReport(identity=name, n=n, expected="1", computed="2",
                              passed=False)

    monkeypatch.setattr("cyclodet.cli._run_task", fake)
    code, out, _ = run(capsys, "verify", "--identity", "a-det", "--n", "3..3")
    assert code == 1 and "FAIL" in out


def test_failure_line_names_the_first_difference(capsys, monkeypatch):
    def fake(task):
        name, n, _, _ = task
        return IdentityReport(identity=name, n=n, expected="[1, 2]", computed="[1, 3]",
                              passed=False, first_difference="[1]")

    monkeypatch.setattr("cyclodet.cli._run_task", fake)
    code, out, _ = run(capsys, "verify", "--identity", "a-det", "--n", "3..3")
    assert code == 1
    assert "expected [1, 2] | computed [1, 3] | first differs at [1]" in out


def test_verify_json_round_trip(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--identity", "a-det", "--n", "3..7",
                       "--oracle", "--format", "json", "--out", str(out_file))
    assert code == 0
    assert err.count("PASS") == 3  # progress stream
    doc = json.loads(out_file.read_text())
    assert doc["summary"] == {"total": 3, "passed": 3, "failed": 0}
    assert len(doc["reports"]) == 3
    for rep in doc["reports"]:
        assert set(rep) == set(REPORT_FIELDS)
        assert rep["tool_version"] == __version__
        assert rep["passed"] is True
        assert rep["params"]["oracle"] is True
    assert [r["n"] for r in doc["reports"]] == [3, 5, 7]


@pytest.mark.parametrize("where", ["missing/r.json", "."])
def test_verify_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, where):
    def refuse(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr("cyclodet.cli.run_identity", refuse)
    code, out, err = run(capsys, "verify", "--identity", "row-sums", "--n", "3",
                         "--format", "json", "--jobs", "1", "--out", str(tmp_path / where))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_json_to_stdout(capsys):
    code, out, err = run(capsys, "verify", "--identity", "b-det", "--n", "3..5",
                         "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 2
    assert "PASS" in err


def test_verify_csv(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "--identity", "c1-det", "--n", "3..7",
                     "--format", "csv", "--out", str(out_file))
    assert code == 0
    with open(out_file, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(REPORT_FIELDS)
    assert len(rows) == 4
    assert all(row[5] == "true" for row in rows[1:])


def test_formats_agree_on_verdicts(tmp_path, capsys):
    args = ("verify", "--identity", "root-sums", "--n", "2..6")
    code_text, out_text, _ = run(capsys, *args)
    json_file = tmp_path / "r.json"
    code_json, _, _ = run(capsys, *args, "--format", "json", "--out", str(json_file))
    csv_file = tmp_path / "r.csv"
    code_csv, _, _ = run(capsys, *args, "--format", "csv", "--out", str(csv_file))
    assert code_text == code_json == code_csv == 0
    text_verdicts = [l.split()[0] for l in out_text.splitlines() if " n=" in l]
    doc = json.loads(json_file.read_text())
    json_verdicts = ["PASS" if r["passed"] else "FAIL" for r in doc["reports"]]
    with open(csv_file, newline="") as fh:
        csv_verdicts = ["PASS" if row[5] == "true" else "FAIL"
                        for row in list(csv.reader(fh))[1:]]
    assert text_verdicts == json_verdicts == csv_verdicts == ["PASS"] * 5


def _strip_timing(text):
    return [line.rsplit(" (", 1)[0] for line in text.splitlines()]


def test_verify_parallel_matches_serial(capsys):
    args = ("verify", "--identity", "eigen-a", "--n", "3..9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert _strip_timing(out1) == _strip_timing(out2)


def _square_unless_three(task):
    if task == 3:
        raise ValueError("task 3 raised")
    return task * task


def _exit_on_three(task):
    if task == 3:
        os._exit(7)
    return task * task


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in this (main) thread after ``seconds``; forked
    children inherit the handler but not the timer."""
    def expire(*_):
        raise TimeoutError("the fan-out hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out forks")
@pytest.mark.parametrize("fn, error", [(_square_unless_three, ValueError),
                                       (_exit_on_three, RuntimeError)])
def test_forked_map_raises_for_a_failed_task_and_leaves_no_child(fn, error):
    # a task that raises comes back as its exception; a child that dies
    # without a result is an error naming the task, not a hang
    results = []
    with _time_limit(30), pytest.raises(error, match="task 3"):
        for result in _forked_map(fn, list(range(8)), 3):
            results.append(result)
    assert results == [0, 1, 4]
    _assert_no_child_left()


def _square_or_sleep_on_two(task):
    if task == 2:
        time.sleep(60)
    return task * task


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the fan-out forks")
def test_forked_map_streams_and_kills_its_children_when_the_caller_stops_early():
    # child 0 runs tasks 0 and 2: result 0 must arrive while task 2 still
    # runs, and closing the generator must kill that child, not wait for it
    results = _forked_map(_square_or_sleep_on_two, [0, 1, 2, 3], 2)
    with _time_limit(10), closing(results):
        assert next(results) == 0
    _assert_no_child_left()


def test_spread_visits_the_index_th_usable_cpu_then_restores_the_mask(monkeypatch):
    calls = []
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
    monkeypatch.setattr("os.sched_setaffinity", lambda pid, mask: calls.append(set(mask)),
                        raising=False)
    _spread(4)  # wraps round the three usable CPUs 2, 5, 7
    assert calls == [{5}, {2, 5, 7}]


def test_spread_ignores_a_mask_the_platform_refuses(monkeypatch):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr("os.sched_setaffinity", refuse, raising=False)
    _spread(1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
def test_spread_leaves_this_process_its_mask():
    before = os.sched_getaffinity(0)
    _spread(1)
    assert os.sched_getaffinity(0) == before


def test_verify_jobs_3_matches_serial_on_a_task_count_that_is_not_a_multiple(capsys):
    args = ("verify", "--identity", "row-sums", "--n", "2..9")  # 8 tasks
    code1, out1, _ = run(capsys, *args, "--jobs", "1")
    code3, out3, _ = run(capsys, *args, "--jobs", "3")
    assert code1 == code3 == 0 and out1.count("PASS") == 8
    assert _strip_timing(out1) == _strip_timing(out3)


def test_verify_json_to_stdout_with_forked_workers_is_one_document():
    # a whole process, so that whatever the children write to the inherited
    # stdout shows up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-B", "-m", "cyclodet.cli", "verify", "--identity", "b-det",
         "--n", "3..9", "--format", "json", "--jobs", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)  # raises on anything after the document
    assert [r["n"] for r in doc["reports"]] == [3, 5, 7, 9]
    assert result.stderr.count("PASS") == 4


# sha256 of the --format json report of `verify --identity all --n 2..13
# --oracle` (168 reports) with every elapsed_seconds removed: it pins each
# report's fields, their order and their values, serial or pooled; recompute
# it only for an intended change to what a report says
ALL_2_13_ORACLE_DIGEST = "c45b0fd3f6dcb8355678d965d9590a9cefd879cd0ff268e84c5c2ee6f4205af8"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_all_json_is_unchanged(capsys, jobs):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--n", "2..13", "--oracle",
                       "--format", "json", "--jobs", jobs)
    doc = json.loads(out)
    for report in doc["reports"]:
        del report["elapsed_seconds"]
    assert code == 0 and doc["summary"] == {"total": 168, "passed": 168, "failed": 0}
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == ALL_2_13_ORACLE_DIGEST


def test_verify_all_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "all", "--n", "3..9",
                       "--jobs", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 105
    assert all(l.startswith("PASS") for l in lines)
    # deterministic ordering: sorted by identity then n
    keys = [(l.split()[1], int(l.split()[2].removeprefix("n="))) for l in lines]
    assert keys == sorted(keys)


def test_verify_default_grid(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "galois-a-det")
    assert code == 0
    assert len([l for l in out.splitlines() if l.startswith("PASS")]) == 4  # 3,5,7,9


def test_no_cli_path_runs_the_tests_references(capsys, monkeypatch):
    # the field product, difference, twist and inverse, elimination, matvec,
    # the CPoly product and the closed-form inverse are references the tests
    # check the packed routes against: every CLI path runs with them refused
    def refuse(*args):
        raise AssertionError("a CLI path ran a test reference")

    for owner, names in ((CycloElem, ("__mul__", "__rmul__", "__sub__", "__rsub__",
                                      "mul_zeta_pow", "inverse")),
                         (CMatrix, ("det", "det_affine", "matvec")),
                         (CPoly, ("__mul__", "__rmul__")),
                         (linalg, ("_eliminate",)),
                         (cyclotomic, ("inv_one_minus_zeta",))):
        for name in names:
            monkeypatch.setattr(owner, name, refuse)
    code, out, _ = run(capsys, "verify", "--identity", "all", "--oracle", "--jobs", "1")
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert code == 0 and len(lines) == 218 and all(l.startswith("PASS") for l in lines)
    for kind in DET_KINDS:
        for n in (3, 9, 25):
            assert main(["det", "--matrix", kind, "--n", str(n), "--x", "1/2"]) == 0, (kind, n)


def test_readme_python_examples_run():
    # every python block of README.md, each in a fresh namespace
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_bench_subcommand_is_gone(capsys):
    assert main(["bench", "--n", "7"]) == 2
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert "bench" not in sub.choices


def test_usage_error_exit_code(capsys):
    assert main(["verify"]) == 2  # missing --identity
    assert main(["nonsense"]) == 2

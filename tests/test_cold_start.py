"""Cold start: importing cyclodet, or running ``det`` or ``verify``, serial
or with forked workers, loads no module that the run does not execute.
Each probe is compared with a bare interpreter in the same environment, so
a site hook that loads one of these modules anyway does not fail the test."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "csv")


@functools.cache
def loaded_modules(code: str) -> frozenset[str]:
    """sys.modules after running code in a fresh interpreter with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = f"{code}\nimport sys; print(*sorted(sys.modules))"
    # -B: write no bytecode into src/
    result = subprocess.run([sys.executable, "-B", "-c", probe], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return frozenset(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", [
    "import cyclodet, cyclodet.identities, cyclodet.cli",
    "from cyclodet.cli import main; main(['det', '--matrix', 'a', '--n', '25'])",
    "from cyclodet.cli import main; main(['verify', '--identity', 'a-det', '--n', '3..9', "
    "'--jobs', '1'])",
    "from cyclodet.cli import main; main(['verify', '--identity', 'a-det', '--n', '3..9', "
    "'--jobs', '1', '--format', 'json'])",
    "from cyclodet.cli import main; main(['verify', '--identity', 'a-det', '--n', '3..9', "
    "'--jobs', '2'])",
])
def test_a_run_imports_only_what_it_executes(code):
    added = loaded_modules(code) - loaded_modules("pass")
    assert "cyclodet.cli" in added  # the probe did import the package
    forbidden = UNUSED
    # only the json and csv report formats serialise with json
    if "--format" not in code:
        forbidden += ("json",)
    # only forked workers pickle
    if "'--jobs', '2'" in code:
        assert "pickle" in added  # the probe did fork
    else:
        forbidden += ("pickle",)
    unused = {m for m in added if any(m == u or m.startswith(u + ".") for u in forbidden)}
    assert not unused

"""The benchmark's tracer (``bench/tracer.py``) wraps library methods by
name, so a deleted or renamed method would crash every traced pass.  This
guard fails instead."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    code = "import sys; sys.path[:0] = ['bench', 'src']; from tracer import Tracer; Tracer().install()"
    # -B: write no bytecode into bench/
    result = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr

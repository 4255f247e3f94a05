"""The benchmark's tracer (``bench/tracer.py``) wraps library methods by
name, so a deleted or renamed method would crash every traced pass, and a
call path that goes round a wrapped name would zero its per-layer rows.
These guards fail instead."""

import json
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


def test_traced_rows_record_the_layer_spans():
    # the per-layer rows of spectrum-eei, det-grid and sums-poly read these
    # spans; a rename or an unwrapped call path would silently zero them
    code = """
import json, sys
sys.path[:0] = ['bench', 'src']
from tracer import Tracer
tracer = Tracer()
tracer.install()
from cyclodet import identities
for name in ('eigen-a', 'eei-a', 'a-det', 'partial-fraction', 'row-sum-x', 'root-sums'):
    assert identities.run_identity(name, 5, oracle=True).passed, name
print(json.dumps(tracer.snapshot()['spans']))
"""
    result = subprocess.run([sys.executable, "-B", "-c", code], cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    spans = json.loads(result.stdout)
    for name in ("linalg.charpoly", "identities.build_matrix", "combinatorics.derangement_sum",
                 "polynomials.check"):
        assert spans.get(name, [0])[0] > 0, name

"""The benchmark still runs against the library.

perfbench's tracer wraps public qschur functions by name and fails on a
wrapper that escapes or on a span group that stays empty, so renaming or
moving a function in src/ can break the benchmark without breaking any
other test.
"""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke_run_passes(tmp_path):
    root = Path(__file__).resolve().parents[1]
    # the traced rounds write their spans under the working directory
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--smoke"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "smoke ok"

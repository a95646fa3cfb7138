"""The benchmark's own tests pass against this tree.

`bench/tests/test_bench.py` checks, among other things, that every name the
benchmark traces still exists in the program, so a refactor that renames
or removes one fails here.  The test only runs it; it changes nothing under
`bench/` (no bytecode is written there either).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tests" / "test_bench.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]

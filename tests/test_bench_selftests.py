"""The benchmark harness's self-tests, run inside the suite, so that a
library change breaking a call the benchmark makes fails here and not
first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_self_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "Ran 0 tests" not in proc.stderr

"""The benchmark's own smoke test, run as tier-1: it fails when a name the
benchmark calls in the package (`overflow.contains`, `plan.placements`, the
tracer's targets and others) changes.  It writes only under `.bench_out/`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke_test.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

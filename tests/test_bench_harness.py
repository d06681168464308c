"""The benchmark harness in bench/ runs against this source tree, so a change
under src/ that breaks it (say, deleting a name that bench/tracer.py wraps)
must fail here, not only when the benchmark is next run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    # every case of the self-test: the workloads' checks catch perturbed
    # outputs, the tracer reports absent names, run.py fails without a program
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

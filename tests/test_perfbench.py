"""The benchmark harness in ``perfbench/`` reaches into the library by name
(solver class names, ``baselines.build_penalized_solvers``, ``Trace.states``);
its self-check runs every workload at toy sizes and fails on a broken link."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_check():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

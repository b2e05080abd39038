"""The benchmark's self-test runs against the source tree.

perfbench/spans.py wraps library functions by name and signature, so a
rename there fails here and not only in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                            cwd=ROOT, env=env, capture_output=True, text=True,
                            timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr

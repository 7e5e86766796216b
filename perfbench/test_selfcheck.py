"""The benchmark's own test: ``python -m pytest perfbench``.

Runs every workload at reduced size, traced and untraced, through the
output check, and shows the check rejects an output with one insert
dropped or one stable moved backwards.
"""

import os
import subprocess
import sys


def test_self_check():
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    result = subprocess.run(
        [sys.executable, run, "--self-check"],
        capture_output=True, text=True, timeout=170,
    )
    assert result.returncode == 0, result.stdout + result.stderr

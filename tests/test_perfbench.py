"""The benchmark's `fidelity` workload at smoke size, as part of every test run.

Its checks run outside the timed region: exhaustive search must equal the
brute-force oracle and its own self-comparison, and the relaxed solver's
edit must never score above the exhaustive optimum.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fidelity_smoke_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "fidelity", "--smoke", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0, result

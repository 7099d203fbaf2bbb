"""The benchmark's four workloads at smoke size, as part of every test run.

Their checks run outside the timed region. On `fidelity`, exhaustive search
must equal the brute-force oracle and its own self-comparison, and the
relaxed solver's edit must never score above the exhaustive optimum. On
`train`, trained weights must be finite, the reported accuracy must equal a
recomputed one, and repeats must train byte-identical weights. On
`explain-ref` (4x4 grid) and `explain-wide` (7x7 grid), each greedy
explanation's first edit must be the oracle's best edit, and replaying its
edits must reproduce its recorded trajectory.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def assert_smoke_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--smoke", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0, result


def test_fidelity_smoke_is_correct():
    assert_smoke_correct("fidelity")


def test_train_smoke_is_correct():
    assert_smoke_correct("train")


def test_explain_ref_smoke_is_correct():
    assert_smoke_correct("explain-ref")


def test_explain_wide_smoke_is_correct():
    assert_smoke_correct("explain-wide")

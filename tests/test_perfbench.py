"""The benchmark's four workloads at smoke size, as part of every test run.

Their checks run outside the timed region. On `fidelity`, exhaustive search
must equal the brute-force oracle and its own self-comparison, and the
relaxed solver's edit must never score above the exhaustive optimum. On
`train`, trained weights must be finite, the reported accuracy must equal a
recomputed one, and repeats must train byte-identical weights. On
`explain-ref` (4x4 grid) and `explain-wide` (7x7 grid), each greedy
explanation's first edit must be the oracle's best edit, and replaying its
edits must reproduce its recorded trajectory.

The explain workloads also run traced: their per-layer counts must show
that greedy search ran under the tracer and that its hook counted the
committed edits, one per greedy step, so a tracer hook that no longer fits
its function's signature fails here.  Greedy's steps are `EditProblem`
methods, which the tracer does not wrap, so `search.steps_per_pair` (calls
of `best_edit_exhaustive` per greedy call) reads 0 on these workloads.
`fidelity` runs traced too, with the tracer wrapped around the public
functions the relaxed solver calls at every step, and so does `train`, whose
traced run also times every reference layer alone, forward and back, through
`forward_layers` and `backward_layers` on a stack of that one layer.

The runs share one copy of `perfbench/` (without its `out/`), `src/` and
`BENCHMARK.json` in a temporary directory, so they write their outputs
there: the checkout's `perfbench/out` stays as it is, and two test runs
in one checkout do not write to the same files.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """A directory holding copies of `perfbench/` (without `out/`), `src/` and `BENCHMARK.json`."""
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("out", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, name), root / name, ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def assert_smoke_correct(root, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--smoke", "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] > 0, result
    return result["metrics"]


def test_fidelity_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "fidelity")


def test_fidelity_traced_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "fidelity", trace=1)


def test_train_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "train")


def test_train_traced_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "train", trace=1)


def test_explain_ref_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "explain-ref")


def test_explain_wide_smoke_is_correct(bench_copy):
    assert_smoke_correct(bench_copy, "explain-wide")


@pytest.mark.parametrize("workload", ["explain-ref", "explain-wide"])
def test_explain_traced_smoke_counts_greedy_steps(bench_copy, workload):
    metrics = assert_smoke_correct(bench_copy, workload, trace=1)
    assert metrics["search.greedy_counterfactual.calls"]["value"] > 0, metrics["search.greedy_counterfactual.calls"]
    assert metrics["search.committed_edits"]["value"] > 0, metrics["search.committed_edits"]

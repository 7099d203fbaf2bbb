"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size in both modes and checks that each metric
BENCHMARK.json names is printed with its unit, that the oracle check rejects
a deliberately wrong edit, and that the benchmark fails without a result
when the cfedit sources are missing. Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings

import common
import run

RUN = os.path.join(common.BENCH_DIR, "run.py")


def _bench(args, cwd=common.ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_every_metric_printed_with_unit():
    spec = run.load_spec()
    for mode, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            proc = _bench(["--workload", w["name"], "--seed", "3", "--seconds", "0.5", "--trace", str(mode), "--smoke"])
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{w['name']} trace={mode}: metrics differ from BENCHMARK.json"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)


def test_oracle_rejects_wrong_edit():
    common.import_cfedit()
    import checks
    from cfedit import data, grids, network, search

    import workloads

    model = workloads.load_frozen("ref")
    ds = data.gen_shapes(40, size=28, seed=3, split="bench")
    preds = network.predict_batch(model, ds.images)
    q = 0
    d = int(next(k for k in range(len(ds)) if preds[k] != preds[q]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = search.greedy_counterfactual(model, ds.images[q], ds.images[d], int(preds[d]))
    F = network.forward_features(model, ds.images[q])
    F2 = network.forward_features(model, ds.images[d])
    oracle = checks.oracle_best_edit(model, F, F2, int(preds[d]))
    assert checks.check_first_edit(result, oracle, F.w) == []

    _, _, i2, j2 = result.edits.edits[0]
    used = {(r, c) for r, c, _, _ in result.edits}
    r, c = next(divmod(k, F.w) for k in range(F.cells) if divmod(k, F.w) not in used)
    wrong = (r, c, i2, j2)
    bad = search.ExplanationResult(
        grids.EditList((wrong,) + result.edits.edits[1:], F.h, F.w),
        result.trajectory,
        result.status,
        result.query_class,
        result.target_class,
    )
    assert checks.check_first_edit(bad, oracle, F.w), "oracle accepted a wrong first edit"
    assert checks.check_explanation(
        model, bad, F, F2, result.query_class, result.target_class, "query-and-distractor-cells", F.cells
    ), "trajectory check accepted a wrong edit"


def test_fails_without_sources():
    bare = os.path.join(common.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        common.BENCH_DIR,
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

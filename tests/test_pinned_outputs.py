"""What `batch-explain` writes, pinned on every BLAS kernel.

Each case runs `cli.main` in-process on a frozen benchmark model, into a
temporary directory, and hashes what it wrote into one sha256: every
raster's bytes and every record with its `trajectory` removed, each under
its file name.  The trajectory holds log-probabilities whose last bits
depend on the BLAS kernel; the edits, statuses, classes, rectangles,
configs and rasters do not, and this projection was found equal under the
SkylakeX, Haswell and SandyBridge kernels.  So one digest per run holds on
every kernel, and a change that moves a chosen edit, a status or a pixel
fails here, whatever kernel runs it.

A change that moves these outputs on purpose updates `DIGESTS` and says
which outputs moved and why.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from cfedit.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# the sha256 of each run's projection (see `run_digest`)
DIGESTS = {
    "ref-exhaustive": "f87d560016643c0e8b55db9559247eab5b845090e59837a0dc4f10db0fae17dd",
    "wide-exhaustive": "a77ba1a0017ca4d7337b73d275b307803d6aba58e4a3de35d9b8f33cf7d71adb",
    "ref-relaxed": "94759bb744b3696fc73a4591b2d7af7d16253d7431e2b87ec56f2423113f4a0c",
}

RUNS = {
    "ref-exhaustive": ("ref", ["--pairs", "40"]),
    "wide-exhaustive": ("wide", ["--shapes-size", "42", "--pairs", "20"]),
    "ref-relaxed": ("ref", ["--pairs", "20", "--strategy", "relaxed"]),
}


def frozen_model_path(name):
    """The directory of a frozen benchmark model, after checking its digest."""
    spec = importlib.util.spec_from_file_location("perfbench_common", os.path.join(BENCH, "common.py"))
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    path = common.model_path(name)
    assert common.model_digest(path) == common.expected_digests()[name]
    return path


def run_digest(out_dir) -> str:
    """One sha256 over every file in `out_dir`, by name: a raster's bytes,
    a record's JSON without its `trajectory`, keys sorted."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            record = json.loads(data)
            del record["trajectory"]
            data = json.dumps(record, sort_keys=True).encode()
        else:
            assert name.endswith(".pgm"), name
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("run", list(RUNS))
def test_batch_explain_writes_its_pinned_outputs(run, tmp_path, capsys):
    model, flags = RUNS[run]
    out = tmp_path / run
    argv = ["batch-explain", "--shapes-count", "200", "--seed", "3", "--model", frozen_model_path(model)]
    assert main([*argv, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(os.listdir(out)) == 4 * int(flags[flags.index("--pairs") + 1])  # a record and three rasters per pair
    assert run_digest(out) == DIGESTS[run]

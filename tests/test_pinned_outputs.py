"""What the CLI writes, pinned on every BLAS kernel.

Each case runs `cli.main` in-process on a frozen benchmark model (or, for
`train`, from scratch), into a temporary directory, and hashes what it
wrote into one sha256.  The last bits of a log-probability depend on the
BLAS kernel, and so do trained weights; edits, statuses, classes,
rectangles, configs, rasters, counts and accuracies do not.  So each case
hashes a projection that drops what the kernel moves, and each projection
was found equal under the SkylakeX, Haswell and SandyBridge kernels:

- `batch-explain`, `explain` and `render`: every raster's bytes and every
  record with its `trajectory` removed, each under its file name;
- `evaluate` over the `ref` records: the whole report, which holds edit
  counts only;
- relaxed `fidelity`: the whole report, with each sample's `prob_ratio`
  and the `mean_prob_ratio` rounded to 9 decimals (the kernels moved them
  by up to 7e-15);
- `train`: `manifest.json` whole, without `weights.bin`.

One digest per run then holds on every kernel, and a change that moves a
chosen edit, a status, a match, a step count, an accuracy or a pixel fails
here, whatever kernel runs it.

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

# the sha256 of each run's projection (see the module docstring)
DIGESTS = {
    "ref-exhaustive": "f87d560016643c0e8b55db9559247eab5b845090e59837a0dc4f10db0fae17dd",
    "wide-exhaustive": "a77ba1a0017ca4d7337b73d275b307803d6aba58e4a3de35d9b8f33cf7d71adb",
    "ref-relaxed": "94759bb744b3696fc73a4591b2d7af7d16253d7431e2b87ec56f2423113f4a0c",
    "explain": "7e04aad9e6595d37c9e40a085e65f28376d3c2ba7b9cb291cccc8bb939a8c0d6",
    "render": "92146ff93bef58c214f71be3b631c4bdb0bc3db7638b131eb43a7e582b1e373b",
    "evaluate": "d528f8bc183425c82388e1903faf0663d657265357e5ed4a0d3ea21fa3d6a331",
    "fidelity-ref": "8279f13798ddec48c8e188c7ac2bafcb93e74a79fb8a6f22802f197f503e126d",
    "fidelity-wide": "28fbe1766fe8d6d7fbe349c281854cc801265fa29b21a246e05b4b891a861e37",
    "train": "40ea4d2b81e055014e283e56db46cb675201888f2e38281098f998fc5ab488d0",
}

# the dataset of every run: 200 shapes of seed 3
SHAPES = ["--shapes-count", "200", "--seed", "3"]

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


@pytest.fixture(scope="module")
def batch_explain(tmp_path_factory):
    """The output directory of a `RUNS` entry, each run once per module."""
    outs = {}

    def run(name):
        if name not in outs:
            model, flags = RUNS[name]
            out = tmp_path_factory.mktemp("batch-explain") / name
            argv = ["batch-explain", *SHAPES, "--model", frozen_model_path(model)]
            assert main([*argv, *flags, "--out", str(out)]) == 0
            outs[name] = out
        return outs[name]

    return run


@pytest.mark.parametrize("run", list(RUNS))
def test_batch_explain_writes_its_pinned_outputs(run, batch_explain):
    flags = RUNS[run][1]
    out = batch_explain(run)
    assert len(os.listdir(out)) == 4 * int(flags[flags.index("--pairs") + 1])  # a record and three rasters per pair
    assert run_digest(out) == DIGESTS[run]


def test_explain_writes_its_pinned_outputs(tmp_path):
    argv = ["explain", *SHAPES, "--model", frozen_model_path("ref"), "--query-index", "3", "--distractor-class", "1"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(os.listdir(tmp_path)) == 4
    assert run_digest(tmp_path) == DIGESTS["explain"]


def test_render_writes_its_pinned_outputs(tmp_path, batch_explain):
    record = batch_explain("ref-exhaustive") / "pair_0000.json"
    argv = ["render", *SHAPES, "--model", frozen_model_path("ref"), "--record", str(record)]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert len(os.listdir(tmp_path)) == 4
    assert run_digest(tmp_path) == DIGESTS["render"]


def test_evaluate_writes_its_pinned_report(tmp_path, batch_explain):
    report = tmp_path / "report.json"
    assert main(["evaluate", "--records", str(batch_explain("ref-exhaustive")), "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == DIGESTS["evaluate"]


@pytest.mark.parametrize("model, flags", [("ref", []), ("wide", ["--shapes-size", "42"])], ids=["ref", "wide"])
def test_relaxed_fidelity_writes_its_pinned_report(model, flags, tmp_path):
    report = tmp_path / "fidelity.json"
    argv = ["fidelity", *SHAPES, *flags, "--model", frozen_model_path(model), "--instances", "20"]
    assert main([*argv, "--strategy", "relaxed", "--out", str(report)]) == 0
    payload = json.loads(report.read_bytes())
    for sample in payload["samples"]:
        sample["prob_ratio"] = round(sample["prob_ratio"], 9)
    payload["extras"]["mean_prob_ratio"] = round(payload["extras"]["mean_prob_ratio"], 9)
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[f"fidelity-{model}"]


def test_train_writes_its_pinned_manifest(tmp_path):
    assert main(["train", *SHAPES, "--epochs", "2", "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["manifest.json", "weights.bin"]
    assert hashlib.sha256((tmp_path / "manifest.json").read_bytes()).hexdigest() == DIGESTS["train"]

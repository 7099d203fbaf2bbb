import argparse
import contextlib
import filecmp
import io
import json
import os
import shutil
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfedit.cli import CHOICES, DEFAULTS, MINIMUM, _search_config, main, resolve_config
from cfedit.data import gen_shapes
from cfedit.errors import CfeditError, is_number
from cfedit.network import TrainConfig, load_model, save_model
from cfedit.relaxed import RelaxOptConfig

from conftest import identity_feature_model, tree_bytes, write_idx
from test_network import log_softmax_in_extractor, relu_first


def run_ok(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out)


def run_err(argv, capsys):
    assert main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return json.loads(lines[0][len("error: ") :])


@pytest.fixture(scope="session")
def cli_model(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("model") / "bundle")
    rc = main(
        [
            "train",
            "--dataset", "shapes",
            "--shapes-count", "600",
            "--epochs", "15",
            "--learning-rate", "0.05",
            "--seed", "0",
            "--out", out,
        ]
    )
    assert rc == 0
    return out


BATCH_ARGS = ["--dataset", "shapes", "--shapes-count", "600", "--seed", "0"]


class TestTrain:
    def test_artifacts_written(self, cli_model):
        assert os.path.exists(os.path.join(cli_model, "manifest.json"))
        assert os.path.exists(os.path.join(cli_model, "weights.bin"))
        manifest = json.load(open(os.path.join(cli_model, "manifest.json")))
        assert manifest["metrics"]["test_accuracy"] >= 0.9


class TestExplainPipeline:
    def test_batch_explain_then_evaluate(self, cli_model, tmp_path, capsys):
        records = str(tmp_path / "records")
        summary = run_ok(
            ["batch-explain", *BATCH_ARGS, "--model", cli_model,
             "--pairs", "6", "--no-rasters", "--out", records],
            capsys,
        )
        assert summary["pairs"] == 6
        names = sorted(f for f in os.listdir(records) if f.endswith(".json"))
        assert len(names) == 6
        report_path = str(tmp_path / "report.json")
        summary = run_ok(
            ["evaluate", "--records", records, "--out", report_path], capsys
        )
        report = json.load(open(report_path))
        assert summary["count"] == 6
        assert report["extras"]["flip_rate"] >= 0.0

    def test_explain_same_image_zero_edits(self, cli_model, tmp_path, capsys):
        # query == distractor: the query already carries the target class
        out = str(tmp_path / "one")
        summary = run_ok(
            ["explain", *BATCH_ARGS, "--model", cli_model,
             "--query-index", "3", "--distractor-index", "3", "--out", out],
            capsys,
        )
        assert summary == {"edits": 0, "status": "flipped"}

    def test_explain_by_distractor_class(self, cli_model, tmp_path, capsys):
        out = str(tmp_path / "bycls")
        summary = run_ok(
            ["explain", *BATCH_ARGS, "--model", cli_model,
             "--query-index", "0", "--distractor-class", "1", "--out", out],
            capsys,
        )
        assert summary["status"] in ("flipped", "exhausted")
        record = json.load(open(os.path.join(out, "explanation.json")))
        assert record["run_config"]["seed"] == 0

    def test_explain_relaxed_records_its_config(self, cli_model, tmp_path, capsys):
        out = str(tmp_path / "relaxed")
        run_ok(
            ["explain", *BATCH_ARGS, "--model", cli_model, "--query-index", "0",
             "--distractor-index", "1", "--strategy", "relaxed", "--relax-steps", "20",
             "--out", out],
            capsys,
        )
        config = json.load(open(os.path.join(out, "explanation.json")))["config"]
        assert config["strategy"] == "relaxed"
        assert config["relax"]["max_steps"] == 20

    def test_render_from_record(self, cli_model, tmp_path, capsys):
        src = str(tmp_path / "src")
        run_ok(
            ["explain", *BATCH_ARGS, "--model", cli_model,
             "--query-index", "0", "--distractor-index", "1", "--out", src],
            capsys,
        )
        out = str(tmp_path / "rerender")
        run_ok(
            ["render", *BATCH_ARGS, "--model", cli_model,
             "--record", os.path.join(src, "explanation.json"), "--out", out],
            capsys,
        )
        rasters = [f for f in os.listdir(out) if f.endswith(".pgm")]
        assert rasters

    def test_render_carries_the_source_config(self, cli_model, tmp_path, capsys):
        src = str(tmp_path / "src")
        run_ok(["explain", *BATCH_ARGS, "--model", cli_model, "--query-index", "0", "--distractor-index", "1",
                "--strategy", "relaxed", "--relax-steps", "20", "--max-edits", "2", "--out", src], capsys)
        out = str(tmp_path / "rerender")
        run_ok(["render", *BATCH_ARGS, "--model", cli_model,
                "--record", os.path.join(src, "explanation.json"), "--out", out], capsys)
        source = json.load(open(os.path.join(src, "explanation.json")))
        rendered = json.load(open(os.path.join(out, "explanation.json")))
        assert source["config"]["strategy"] == "relaxed" and source["config"]["max_edits"] == 2
        assert rendered["config"] == source["config"]
        assert rendered["edits"] == source["edits"] and rendered["trajectory"] == source["trajectory"]

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    def test_render_refuses_to_overwrite_its_record(self, cli_model, tmp_path, capsys, spelling):
        src = tmp_path / "src"
        run_ok(["explain", *BATCH_ARGS, "--model", cli_model, "--query-index", "0", "--distractor-index", "1",
                "--out", str(src)], capsys)
        before = tree_bytes(src)
        out = {"same": str(src), "dotted": str(src / ".." / "src"), "symlink": str(tmp_path / "link")}[spelling]
        if spelling == "symlink":
            os.symlink(src, out)
        capsys.readouterr()
        rc = main(["render", *BATCH_ARGS, "--model", cli_model,
                   "--record", str(src / "explanation.json"), "--out", out])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "CfeditError" and "overwrite the record it reads" in err["message"]
        assert tree_bytes(src) == before


class TestDeterminism:
    def test_identical_seeds_identical_artifacts(self, cli_model, tmp_path, capsys):
        dirs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            run_ok(
                ["batch-explain", *BATCH_ARGS, "--model", cli_model,
                 "--pairs", "2", "--out", out],
                capsys,
            )
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1]))
        match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        assert not mismatch and not errors


class TestRewrites:
    def test_evaluate_report_among_its_records(self, cli_model, tmp_path, capsys):
        records = str(tmp_path / "records")
        run_ok(["batch-explain", *BATCH_ARGS, "--model", cli_model, "--pairs", "3", "--no-rasters",
                "--out", records], capsys)
        report_path = os.path.join(records, "report.json")
        reports = []
        for _ in range(2):
            assert run_ok(["evaluate", "--records", records, "--out", report_path], capsys)["count"] == 3
            with open(report_path, "rb") as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]

    @staticmethod
    def run_commands(out, config, capsys):
        """Every command, each writing into `out`, under the config file `config`."""
        data = ["--dataset", "shapes", "--shapes-count", "200", "--seed", "0", "--config", config]
        model, records, one = (os.path.join(out, name) for name in ("model", "records", "one"))
        run_ok(["train", *data, "--learning-rate", "0.05", "--out", model], capsys)
        run_ok(["batch-explain", *data, "--model", model, "--pairs", "4", "--out", records], capsys)
        run_ok(["explain", *data, "--model", model, "--query-index", "0", "--distractor-index", "1",
                "--out", one], capsys)
        run_ok(["render", *data, "--model", model, "--record", os.path.join(records, "pair_0000.json"),
                "--out", one], capsys)
        run_ok(["evaluate", "--config", config, "--records", records,
                "--out", os.path.join(records, "report.json")], capsys)
        run_ok(["fidelity", *data, "--model", model, "--instances", "3",
                "--out", os.path.join(out, "fidelity.json")], capsys)

    def test_rerun_into_written_paths_matches_a_fresh_run(self, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps({"epochs": 4}))
        # a shorter run config in every record and report, and at most one edit per record
        second.write_text(json.dumps({"epochs": 3, "max_edits": 1}))
        rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
        self.run_commands(str(rerun), str(first), capsys)
        before = tree_bytes(rerun)
        self.run_commands(str(rerun), str(second), capsys)
        self.run_commands(str(fresh), str(second), capsys)
        after = tree_bytes(rerun)
        assert after == tree_bytes(fresh)
        assert sorted(after) == sorted(before)
        shrunk = {path.name for path in after if len(after[path]) < len(before[path])}
        assert {"pair_0000.json", "explanation.json", "report.json", "fidelity.json"} <= shrunk


class TestFidelity:
    def test_exhaustive_self_comparison(self, cli_model, tmp_path, capsys):
        report_path = str(tmp_path / "fid.json")
        extras = run_ok(
            ["fidelity", *BATCH_ARGS, "--model", cli_model,
             "--instances", "5", "--strategy", "exhaustive", "--out", report_path],
            capsys,
        )
        assert extras["match_rate"] == 1.0
        assert json.load(open(report_path))["extras"]["match_rate"] == 1.0

    def test_relaxed_report_counts_solver_work(self, cli_model, tmp_path, capsys):
        report_path = str(tmp_path / "fid.json")
        extras = run_ok(
            ["fidelity", *BATCH_ARGS, "--model", cli_model, "--instances", "6",
             "--strategy", "relaxed", "--relax-steps", "20", "--out", report_path],
            capsys,
        )
        samples = json.load(open(report_path))["samples"]
        assert len(samples) == 6
        assert all(1 <= s["steps"] <= 20 and (s["converged"] or s["steps"] == 20) for s in samples)
        assert extras["mean_steps"] == sum(s["steps"] for s in samples) / 6
        assert extras["converged_rate"] == sum(s["converged"] for s in samples) / 6

    @pytest.mark.parametrize("flag", [["--max-edits", "3"], ["--exclusion-policy", "query-cells-only"]])
    def test_greedy_search_flags_rejected(self, cli_model, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["fidelity", *BATCH_ARGS, "--model", cli_model, *flag, "--out", str(tmp_path / "fid.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# config-file values: every JSON kind, integers past int64, NaN and infinities, and the listed choices
config_values = (
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats() | st.text(max_size=4)
    | st.sampled_from([v for values in CHOICES.values() for v in values]) | st.lists(st.integers(), max_size=2)
)



def config_value(key):
    """A value of `key`'s kind (choices, integers past int64, any float) three times in four, any value otherwise."""
    default = DEFAULTS[key]
    if key in CHOICES:
        typed = st.sampled_from(CHOICES[key])
    elif type(default) is float:
        typed = st.floats()
    else:
        typed = st.integers(-2, 2**70) | (st.none() if default is None else st.nothing())
    return st.integers(0, 3).flatmap(lambda kind: typed if kind else config_values)


config_files = (
    st.fixed_dictionaries({}, optional={key: config_value(key) for key in DEFAULTS})
    | st.dictionaries(st.sampled_from(sorted(DEFAULTS) + ["unknown"]), config_values, max_size=4)
    | config_values
)


class TestNonFiniteScores:
    """Scores that overflow end in one stderr line, the typed error's, with
    none of numpy's floating-point warnings before it, and no artifact."""

    @staticmethod
    def one_error_line(argv, capsys):
        capsys.readouterr()
        settings = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        lines = capsys.readouterr().err.strip().splitlines()
        assert [str(w.message) for w in caught] == []
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
        assert np.geterr() == settings  # library callers keep numpy's settings
        return json.loads(lines[0][len("error: "):])

    @pytest.mark.parametrize("command", ["explain", "batch-explain", "fidelity"])
    def test_overflowing_head(self, cli_model, tmp_path, capsys, command):
        # these weights load, but the head's values overflow to inf and NaN on every image
        model = load_model(cli_model)
        for layer in (model.head[1], model.head[3]):
            layer.weights["weight"] *= 1e160
        bundle = str(tmp_path / "model")
        save_model(model, bundle)
        args = {
            "explain": ["--query-index", "0", "--distractor-index", "5"],
            "batch-explain": ["--pairs", "2"],
            "fidelity": ["--instances", "3"],
        }[command]
        out = tmp_path / "out"
        err = self.one_error_line([command, *BATCH_ARGS, "--model", bundle, *args, "--out", str(out)], capsys)
        assert err["type"] == "FormatError" and "non-finite" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("count", ["40", "200"])
    def test_diverging_training_writes_no_bundle(self, tmp_path, capsys, count):
        # with 40 shapes the one update is the last, which only the accuracy pass checks
        out = tmp_path / "bundle"
        argv = ["train", "--dataset", "shapes", "--shapes-count", count, "--epochs", "1",
                "--learning-rate", "1e200", "--seed", "0", "--out", str(out)]
        err = self.one_error_line(argv, capsys)
        assert err["type"] == "TrainingError" and "non-finite" in err["message"]
        assert not out.exists()


class TestConfigFileProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(config_files)
    def test_config_file_resolves_or_raises_typed_error(self, file_cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(file_cfg, fh)
            try:
                cfg = resolve_config(argparse.Namespace(config=path))
            except CfeditError:
                return
        assert set(cfg) == set(DEFAULTS)
        for key, value in file_cfg.items():
            assert json.dumps(cfg[key]) == json.dumps(value)
        for key in CHOICES:
            assert cfg[key] in CHOICES[key]
        for key, least in MINIMUM.items():
            assert cfg[key] >= least
        # the run configs built from a resolved config construct or raise a typed error
        for build in (
            lambda: _search_config(cfg),
            lambda: TrainConfig(cfg["learning_rate"], cfg["batch_size"], cfg["epochs"], cfg["seed"]),
        ):
            try:
                build()
            except CfeditError:
                pass


# the files a small run reads, by name: each one's path in the run's directory,
# and the commands that read it
RUN_INPUTS = {
    "config": ("config.json", ("train", "explain", "batch-explain", "fidelity", "render", "evaluate")),
    "manifest": ("model/manifest.json", ("explain", "batch-explain", "fidelity", "render")),
    "weights": ("model/weights.bin", ("explain", "batch-explain", "fidelity", "render")),
    "idx-images": ("images.idx", ("train", "explain", "batch-explain", "fidelity")),
    "idx-labels": ("labels.idx", ("train", "explain", "batch-explain", "fidelity")),
    "record": ("records/explanation.json", ("render", "evaluate")),
}
JSON_INPUTS = ("config", "manifest", "record")
# every count and size of the run is small; a mutation may lower one, never raise it
SMALL_RUN = {
    "shapes_count": 40, "pairs": 2, "instances": 2, "epochs": 1, "batch_size": 16,
    "relax_steps": 5, "max_edits": 3, "strategy": "relaxed", "seed": 3,
}


def grows(old, new) -> bool:
    """Whether any number of the JSON value `old` is larger at the same place in `new`."""
    if isinstance(old, dict) and isinstance(new, dict):
        return any(grows(v, new[k]) for k, v in old.items() if k in new)
    if isinstance(old, list) and isinstance(new, list):
        return any(grows(a, b) for a, b in zip(old, new))
    return is_number(old) and is_number(new) and new > old


def raises_a_count(name, old: bytes, new: bytes) -> bool:
    """Whether `new`, a mutation of the run input `name`, raises a count or size that `old` holds."""
    if name.startswith("idx"):  # byte 3 of the header counts the dimensions, a big-endian word each

        def dims(blob):
            return [int.from_bytes(blob[k : k + 4], "big") for k in range(4, 4 + 4 * old[3], 4)]

        return new[3:4] > old[3:4] or any(b > a for a, b in zip(dims(old), dims(new)))
    if name not in JSON_INPUTS:
        return False
    try:
        parsed = json.loads(new)
    except ValueError:
        return False
    old = json.loads(old)
    if name == "config" and isinstance(parsed, dict):  # a key the file loses takes its default
        old, parsed = {**DEFAULTS, **old}, {**DEFAULTS, **parsed}
    return grows(old, parsed)


@pytest.fixture(scope="module")
def small_run(cli_model, tmp_path_factory):
    """The directory of a small run's inputs (see RUN_INPUTS): a config, a
    model bundle, an IDX pair and an explanation record."""
    root = tmp_path_factory.mktemp("run")
    shutil.copytree(cli_model, root / "model")
    (root / "config.json").write_text(json.dumps(SMALL_RUN))
    ds = gen_shapes(12, seed=4, split="idx")
    write_idx(str(root / "images.idx"), str(root / "labels.idx"), ds.images, ds.labels)
    argv = ["explain", "--config", str(root / "config.json"), "--model", str(root / "model"),
            "--query-index", "0", "--distractor-index", "1", "--out", str(root / "records")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return root


class TestMalformedInputsProperty:
    """Byte mutations of every file a run reads: the run succeeds, or it ends
    in exit code 2 with one `error: {...}` line on stderr.  `cli.main` runs
    in-process, and no mutation raises a count or size."""

    @pytest.mark.parametrize("name", sorted(RUN_INPUTS))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, small_run, name, data):
        path, commands = RUN_INPUTS[name]
        old = (small_run / path).read_bytes()
        if name in JSON_INPUTS:  # often a digit lowered, so that the file still parses
            digits = [k for k, c in enumerate(old) if c in b"0123456789"]
            lowered = st.sampled_from(digits).flatmap(  # by 0 to all of it; a leading 0 does not parse
                lambda k: st.tuples(st.just(k), st.integers(0, old[k] - ord("0")).map(lambda by: old[k] - by))
            )
            edit = lowered | st.tuples(st.integers(0, len(old) - 1), st.integers(0, 255))
        else:  # the first 16 bytes (an IDX file's header) as often as the rest
            edit = st.tuples(st.integers(0, 15) | st.integers(0, len(old) - 1), st.integers(0, 255))
        new = bytearray(old)
        for k, value in data.draw(st.lists(edit, min_size=1, max_size=3)):
            new[k] = value
        if data.draw(st.integers(0, 7)) == 0:  # cut short
            new = new[: data.draw(st.integers(0, len(new)))]
        new = bytes(new)
        assume(not raises_a_count(name, old, new))
        command = data.draw(st.sampled_from(commands))
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(small_run, tmp, dirs_exist_ok=True)
            here = {key: os.path.join(tmp, rel) for key, (rel, _) in RUN_INPUTS.items()}
            with open(here[name], "wb") as fh:
                fh.write(new)
            model = ["--model", os.path.dirname(here["manifest"])]
            args = {
                "train": [],
                "explain": [*model, "--query-index", "0", "--distractor-index", "1"],
                "batch-explain": [*model, "--no-rasters"],
                "fidelity": model,
                "render": [*model, "--record", here["record"]],
                "evaluate": ["--records", os.path.dirname(here["record"])],
            }[command]
            if name.startswith("idx"):
                args += ["--dataset", "idx", "--idx-images", here["idx-images"], "--idx-labels", here["idx-labels"]]
            argv = [command, "--config", here["config"], *args, "--out", os.path.join(tmp, "out")]
            stderr = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
        lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
        assert (rc, lines) == (0, []) or rc == 2 and len(lines) == 1 and lines[0].startswith("error: {"), (rc, lines)


class TestConfigAndErrors:
    def test_relaxed_defaults_are_the_solver_defaults(self):
        opt = RelaxOptConfig()
        assert (DEFAULTS["relax_lr"], DEFAULTS["relax_steps"]) == (opt.learning_rate, opt.max_steps)

    def test_config_file_applies_and_flags_override(self, cli_model, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"shapes_count": 600, "pairs": 1}))
        out = str(tmp_path / "cfgout")
        summary = run_ok(
            ["batch-explain", "--config", str(cfg_path), "--seed", "0",
             "--model", cli_model, "--pairs", "2", "--no-rasters", "--out", out],
            capsys,
        )
        assert summary["pairs"] == 2  # flag wins over file value

    def test_unknown_config_key(self, cli_model, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"learning_rat": 0.1}))
        err = run_err(
            ["batch-explain", "--config", str(cfg_path), "--model", cli_model,
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert "unknown config keys" in err["message"]

    @pytest.mark.parametrize(
        "argv, file_cfg, field",
        [
            (["fidelity", "--relax-lr", "-1"], None, "learning_rate"),
            (["explain", "--max-edits", "0"], None, "max_edits"),
            (["batch-explain"], {"exclusion_policy": "bogus"}, "exclusion_policy"),
            (["explain"], {"max_edits": "3"}, "max_edits"),
            (["batch-explain"], {"strategy": "bogus"}, "strategy"),
            (["batch-explain"], {"pairs": "3"}, "pairs"),
            (["fidelity"], {"relax_steps": 2.5}, "relax_steps"),
            (["batch-explain"], [["pairs", 3]], "JSON object"),
            (["train", "--batch-size", "0"], None, "batch_size"),
            (["train", "--batch-size", "-4"], None, "batch_size"),
            (["train", "--learning-rate", "0"], None, "learning_rate"),
            (["train"], {"epochs": "2"}, "epochs"),
            (["batch-explain", "--seed", "-1"], None, "seed"),
            (["train"], {"seed": -3}, "seed"),
            (["batch-explain", "--pairs", "-1"], None, "pairs"),
            (["batch-explain"], {"pairs": 0}, "pairs"),
            (["fidelity", "--instances", "0"], None, "instances"),
            (["batch-explain", "--shapes-size", "-4"], None, "shapes_size"),
            (["batch-explain"], {"shapes_size": -4}, "shapes_size"),
            (["train", "--learning-rate", "inf"], None, "learning_rate"),
            (["train"], {"learning_rate": float("inf")}, "learning_rate"),
            (["explain", "--strategy", "relaxed", "--relax-lr", "inf"], None, "learning_rate"),
            (["fidelity", "--strategy", "relaxed", "--relax-lr", "inf"], None, "learning_rate"),
            (["fidelity"], {"relax_lr": float("inf")}, "learning_rate"),
            (["fidelity", "--relax-lr", "nan"], None, "learning_rate"),
        ],
        ids=[
            "relax-lr", "max-edits-zero", "exclusion-policy", "max-edits-string", "strategy",
            "pairs-string", "relax-steps-float", "config-not-object", "batch-size-zero",
            "batch-size-negative", "learning-rate-zero", "epochs-string", "seed-negative",
            "seed-negative-in-file", "pairs-negative", "pairs-zero", "instances-zero",
            "shapes-size-negative", "shapes-size-negative-in-file", "learning-rate-inf",
            "learning-rate-infinity-in-file", "explain-relax-lr-inf", "fidelity-relax-lr-inf",
            "relax-lr-infinity-in-file", "relax-lr-nan",
        ],
    )
    def test_bad_config_value_is_one_error_line(self, cli_model, tmp_path, capsys, argv, file_cfg, field):
        argv = argv + ["--dataset", "shapes", "--shapes-count", "40", "--out", str(tmp_path / "out")]
        if argv[0] != "train":
            argv += ["--model", cli_model]
        if argv[0] == "explain":
            argv += ["--query-index", "0", "--distractor-index", "1"]
        if file_cfg is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(file_cfg))
            argv += ["--config", str(cfg_path)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "FormatError"
        assert field in err["message"]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_json_not_utf8_is_one_error_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_bytes(b"\x80{}")
        (bad / "cfg.json").write_bytes(b"\x80{}")
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--records", str(bad), "--config", str(bad / "cfg.json"), "--out", str(out)]
        else:
            argv = ["explain", "--dataset", "shapes", "--shapes-count", "40", "--model", str(bad),
                    "--query-index", "0", "--distractor-index", "1", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert json.loads(lines[0][len("error: "):])["type"] == "FormatError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "query, distractor",
        [("999", "1"), ("-1", "1"), ("0", "40")],
        ids=["query-999", "query-negative", "distractor-past-end"],
    )
    def test_index_outside_dataset(self, cli_model, tmp_path, capsys, query, distractor):
        out = tmp_path / "x"
        capsys.readouterr()
        rc = main(
            ["explain", "--dataset", "shapes", "--shapes-count", "40", "--model", cli_model,
             "--query-index", query, "--distractor-index", distractor, "--out", str(out)]
        )
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "FormatError" and "40 images" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("field", ["query_index", "distractor_index"])
    def test_render_record_index_outside_dataset(self, cli_model, tmp_path, capsys, field):
        args = ["--dataset", "shapes", "--shapes-count", "40", "--model", cli_model]
        src = tmp_path / "src"
        run_ok(["explain", *args, "--query-index", "0", "--distractor-index", "1",
                "--out", str(src)], capsys)
        record_path = src / "explanation.json"
        record = json.loads(record_path.read_text())
        record[field] = 40
        record_path.write_text(json.dumps(record))
        err = run_err(["render", *args, "--record", str(record_path), "--out", str(tmp_path / "r")],
                      capsys)
        assert err["type"] == "FormatError" and field in err["message"]
        assert not (tmp_path / "r").exists()

    def test_render_record_grid_unlike_model(self, cli_model, tmp_path, capsys):
        # a 7x7 record, as a 42x42 model writes, rendered with this 4x4 model
        args = [*BATCH_ARGS, "--model", cli_model]
        src = tmp_path / "src"
        run_ok(["explain", *args, "--query-index", "0", "--distractor-index", "1",
                "--out", str(src)], capsys)
        record_path = src / "explanation.json"
        record = json.loads(record_path.read_text())
        record["grid"] = {"h": 7, "w": 7}
        record_path.write_text(json.dumps(record))
        err = run_err(["render", *args, "--record", str(record_path), "--out", str(tmp_path / "r")],
                      capsys)
        assert err["type"] == "FormatError"
        assert "7x7" in err["message"] and "4x4" in err["message"]
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag", ["--test-idx-images", "--test-idx-labels"])
    def test_train_with_half_an_idx_test_set(self, tmp_path, capsys, flag):
        out = tmp_path / "bundle"
        capsys.readouterr()
        rc = main(["train", "--dataset", "shapes", "--shapes-count", "40", "--epochs", "1",
                   flag, str(tmp_path / "nonexistent"), "--out", str(out)])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "CfeditError"
        assert "--test-idx-images" in err["message"] and "--test-idx-labels" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["training", "test"])
    def test_train_on_an_empty_idx_set(self, tmp_path, capsys, empty):
        # a valid IDX header that counts 0 images: an accuracy over it would be NaN
        ds = gen_shapes(40, seed=0, split="idx")
        for name in ("training", "test"):
            images, labels = (ds.images[:0], ds.labels[:0]) if name == empty else (ds.images, ds.labels)
            write_idx(str(tmp_path / f"{name}.images"), str(tmp_path / f"{name}.labels"), images, labels)
        out = tmp_path / "bundle"
        capsys.readouterr()
        err = run_err(["train", "--dataset", "idx", "--epochs", "1",
                       "--idx-images", str(tmp_path / "training.images"),
                       "--idx-labels", str(tmp_path / "training.labels"),
                       "--test-idx-images", str(tmp_path / "test.images"),
                       "--test-idx-labels", str(tmp_path / "test.labels"), "--out", str(out)], capsys)
        assert err["type"] == "ShapeError" and empty in err["message"] and "empty" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["batch-explain", "fidelity"])
    def test_pairs_from_an_empty_idx_set(self, cli_model, tmp_path, capsys, command):
        # drawing a query from 0 images used to end in numpy's "high <= 0" traceback
        ds = gen_shapes(40, seed=0, split="idx")
        write_idx(str(tmp_path / "images"), str(tmp_path / "labels"), ds.images[:0], ds.labels[:0])
        out = tmp_path / "out"
        capsys.readouterr()
        err = run_err([command, "--dataset", "idx", "--idx-images", str(tmp_path / "images"),
                       "--idx-labels", str(tmp_path / "labels"), "--model", cli_model, "--out", str(out)], capsys)
        assert err["type"] == "ShapeError" and "dataset" in err["message"] and "empty" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["batch-explain", "fidelity"])
    def test_pairs_from_a_one_class_idx_set(self, cli_model, tmp_path, capsys, command):
        # batch-explain used to exit 0 with no pairs and no --out, which a following evaluate could not read
        ds = gen_shapes(40, seed=0, split="idx")
        write_idx(str(tmp_path / "images"), str(tmp_path / "labels"), ds.images[:1], ds.labels[:1])
        out = tmp_path / "out"
        capsys.readouterr()
        err = run_err([command, "--dataset", "idx", "--idx-images", str(tmp_path / "images"),
                       "--idx-labels", str(tmp_path / "labels"), "--model", cli_model, "--out", str(out)], capsys)
        assert err["type"] == "ShapeError" and "for every image:" in err["message"]
        assert not out.exists()

    def test_both_distractor_flags_rejected(self, cli_model, tmp_path, capsys):
        err = run_err(
            ["explain", *BATCH_ARGS, "--model", cli_model, "--query-index", "0",
             "--distractor-index", "1", "--distractor-class", "2",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert "exactly one" in err["message"]

    @pytest.mark.parametrize("defect", ["nan-weight", "inf-weight", "stride-0", "log-softmax-in-extractor"])
    @pytest.mark.parametrize("command", ["explain", "batch-explain", "fidelity", "render"])
    def test_broken_model_is_one_error_line(self, cli_model, tmp_path, capsys, defect, command):
        # a NaN bias used to load and write a trajectory of NaN, which is not JSON
        model = tmp_path / "model"
        shutil.copytree(cli_model, model)
        if defect in ("stride-0", "log-softmax-in-extractor"):
            manifest = json.loads((model / "manifest.json").read_text())
            if defect == "stride-0":
                manifest["extractor"][0]["stride"] = 0
            else:  # it keeps the extractor's grid, but has no receptive field to render
                log_softmax_in_extractor(manifest)
            (model / "manifest.json").write_text(json.dumps(manifest))
        else:
            blob = (model / "weights.bin").read_bytes()
            value = float("nan") if defect == "nan-weight" else float("inf")
            (model / "weights.bin").write_bytes(blob[:-8] + struct.pack("<d", value))
        args = {
            "explain": ["--query-index", "0", "--distractor-index", "5"],
            "batch-explain": [],
            "fidelity": ["--instances", "2"],
            "render": ["--record", str(tmp_path / "explanation.json")],
        }[command]
        out = tmp_path / "out"
        err = run_err([command, *BATCH_ARGS, "--model", str(model), *args, "--out", str(out)], capsys)
        if defect == "stride-0":
            assert err["type"] == "ShapeError" and "stride" in err["message"]
        elif defect == "log-softmax-in-extractor":
            assert err["type"] == "UnsupportedLayerError" and "'log-softmax'" in err["message"]
        else:
            assert err["type"] == "FormatError" and "'head.3.bias'" in err["message"]
        assert not out.exists()

    def test_missing_model_machine_readable_error(self, tmp_path, capsys):
        err = run_err(
            ["explain", *BATCH_ARGS, "--model", str(tmp_path / "nope"),
             "--query-index", "0", "--distractor-index", "1",
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert err["type"] and err["message"]

    def test_empty_records_dir(self, tmp_path, capsys):
        records = tmp_path / "empty"
        records.mkdir()
        err = run_err(
            ["evaluate", "--records", str(records), "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert "no records" in err["message"]

    def test_record_without_query_class(self, tmp_path, capsys):
        records = tmp_path / "records"
        records.mkdir()
        record = {
            "record_version": 1,
            "grid": {"h": 2, "w": 2},
            "edits": [],
            "trajectory": [[-0.1, -2.0]],
            "status": "flipped",
            "target_class": 1,
        }
        (records / "pair_0000.json").write_text(json.dumps(record))
        err = run_err(
            ["evaluate", "--records", str(records), "--out", str(tmp_path / "r.json")],
            capsys,
        )
        assert err["type"] == "FormatError"
        assert "query_class" in err["message"]

    @pytest.mark.parametrize("command", ["evaluate", "render"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("edits", [{"source": [1, 0]}]),
            ("grid", {"w": 2}),
            ("grid", [2, 2]),
            ("edits", 5),
            ("edits", [{"cell": ["a", 1], "source": [1, 0]}]),
            ("trajectory", [[-0.1, -2.0, 0.0], [-1.0, -0.5]]),
            ("edits", [{"cell": [0.7, True], "source": [1, 0]}]),
            ("edits", [{"cell": [0, 1], "source": [1.0, 0]}]),
            ("query_class", "x"),
            ("query_class", 0.0),
            ("target_class", -1),
            ("target_class", None),
            ("record_version", True),
            ("grid", {"h": -3, "w": 2}),
            ("grid", {"h": 2.0, "w": 2}),
            ("trajectory", [[-0.1, -2.0], [-1.0, 10**400]]),
            (None, 5),
            (None, None),
            ("trajectory", [["-0.1", "-2.0"], ["-1.0", "-0.5"]]),
            ("edits", [{"cell": [0, 0, 1], "source": [1]}]),
            ("edits", [{"cell": [1], "source": [1, 1, 0]}]),
            ("edits", [{"cell": "01", "source": [1, 0]}]),
            ("query_id", [5]),
            ("distractor_id", {"a": 1}),
            ("query_id", 5),
            ("trajectory", [[-0.1, -2.0], [-1.0, float("nan")]]),
            ("trajectory", [[-0.1, -2.0], [float("inf"), -0.5]]),
            ("trajectory", [[-0.1, float("-inf")], [-1.0, -0.5]]),
            ("trajectory", [[-0.1, -2.0], [0.5, -0.5]]),
            ("trajectory", [[-0.1, -2.0], [-1.0, -10**400]]),
        ],
        ids=[
            "edit-without-cell", "grid-without-h", "grid-not-object", "edits-not-list",
            "cell-not-integer", "trajectory-not-pairs", "cell-fraction-and-bool", "source-float",
            "query-class-string", "query-class-float", "target-class-negative", "target-class-null",
            "version-bool", "grid-negative-h", "grid-float-h", "trajectory-int-overflow", "record-int",
            "record-null", "trajectory-numeric-strings", "cell-lengths-cancel-3-1", "cell-lengths-cancel-1-3",
            "cell-string", "query-id-list", "distractor-id-object", "query-id-int",
            "trajectory-nan", "trajectory-inf", "trajectory-minus-inf", "trajectory-positive",
            "trajectory-negative-int-overflow",
        ],
    )
    def test_malformed_record_is_one_error_line(self, cli_model, tmp_path, capsys, command, field, value):
        # the model's 4x4 grid, so that `render` meets no error but the record's own
        record = {
            "record_version": 1,
            "grid": {"h": 4, "w": 4},
            "edits": [{"cell": [0, 1], "source": [1, 0]}],
            "trajectory": [[-0.1, -2.0], [-1.0, -0.5]],
            "status": "flipped",
            "query_class": 0,
            "target_class": 1,
            "query_index": 0,
            "distractor_index": 1,
        }
        if field is None:  # the value replaces the whole record
            record = value
        else:
            record[field] = value
        records = tmp_path / "records"
        records.mkdir()
        (records / "pair_0000.json").write_text(json.dumps(record))
        out = tmp_path / "out"
        if command == "evaluate":
            argv = ["evaluate", "--records", str(records), "--out", str(out)]
        else:
            argv = ["render", *BATCH_ARGS, "--model", cli_model,
                    "--record", str(records / "pair_0000.json"), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert json.loads(lines[0][len("error: "):])["type"] == "FormatError"
        assert not out.exists()

    @pytest.mark.parametrize("size", ["8", "20"])
    def test_image_size_unlike_model_input(self, cli_model, tmp_path, capsys, size):
        out = tmp_path / "x"
        capsys.readouterr()
        rc = main(
            ["explain", "--dataset", "shapes", "--shapes-count", "40", "--shapes-size", size,
             "--model", cli_model, "--query-index", "0", "--distractor-index", "1", "--out", str(out)]
        )
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "ShapeError" and "model input" in err["message"]
        assert not out.exists()

    def test_manifest_non_integer_layer_field(self, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        save_model(identity_feature_model(2, 2, 1, 2), bundle)
        manifest_path = os.path.join(bundle, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["head"][1]["units"] = "2"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        err = run_err(
            ["explain", *BATCH_ARGS, "--model", bundle, "--query-index", "0",
             "--distractor-index", "1", "--out", str(tmp_path / "x")],
            capsys,
        )
        assert err["type"] == "FormatError"
        assert "units" in err["message"]

    def test_manifest_head_of_another_form(self, tmp_path, capsys):
        bundle = str(tmp_path / "bundle")
        save_model(identity_feature_model(2, 2, 1, 2), bundle)
        manifest_path = os.path.join(bundle, "manifest.json")
        manifest = json.load(open(manifest_path))
        relu_first(manifest)  # relu -> flatten -> dense -> log-softmax
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        rc = main(
            ["explain", *BATCH_ARGS, "--model", bundle, "--query-index", "0",
             "--distractor-index", "1", "--out", str(tmp_path / "x")]
        )
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "UnsupportedLayerError" and "flatten -> dense" in err["message"]

    @pytest.mark.parametrize("command", ["batch-explain", "fidelity"])
    def test_dataset_too_large_to_allocate(self, cli_model, tmp_path, capsys, command):
        # 10^12 28x28 images are 5.57 PiB, beyond any 48-bit address space, so
        # numpy refuses the allocation before anything is mapped or written
        out = tmp_path / "out"
        argv = [command, "--model", cli_model, "--dataset", "shapes", "--shapes-count", str(10**12), "--out", str(out)]
        err = run_err(argv, capsys)
        assert err["type"] == "MemoryError" and "5.57 PiB" in err["message"]
        assert not out.exists()

    def test_manifest_weight_shape_overflowing_int64(self, tmp_path, capsys):
        # 2**32 * 2**32 values wrap to 0 in int64, which an empty blob would match
        bundle = str(tmp_path / "bundle")
        save_model(identity_feature_model(2, 2, 1, 2), bundle)
        manifest_path = os.path.join(bundle, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["weights"].append({"name": "extra", "shape": [2**32, 2**32]})
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        capsys.readouterr()
        rc = main(["fidelity", *BATCH_ARGS, "--model", bundle, "--out", str(tmp_path / "f.json")])
        lines = capsys.readouterr().err.strip().splitlines()
        assert rc == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        err = json.loads(lines[0][len("error: "):])
        assert err["type"] == "FormatError" and f"declares {2**64 + 12}" in err["message"]

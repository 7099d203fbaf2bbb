"""Command-line surface.

Subcommands: train, explain, batch-explain, evaluate, fidelity, render.
Every command takes --seed and --config (JSON file; explicit flags override
file values).  All randomness flows from named substreams of the run seed, so
identical invocations produce bit-identical artifacts.  Failures exit nonzero
after printing one machine-readable `error: {...}` line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .data import Dataset, gen_shapes, load_idx, read_json, write_json
from .errors import CfeditError, FormatError, ShapeError, is_number
from .metrics import avg_edit_count, relaxation_fidelity
from .network import (
    ModelBundle,
    TrainConfig,
    forward_feature_pair,
    load_model,
    predict_batch,
    reference_extractor_specs,
    reference_head_specs,
    save_model,
    train,
)
from .relaxed import RelaxOptConfig
from .render import (
    read_explanation,
    receptive_field_map,
    render_explanation,
    write_explanation,
)
from .rng import substream
from .search import EXCLUSION_POLICIES, SearchConfig, greedy_counterfactual


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p.add_argument("--config", help="JSON config file; flags override its values")


def _add_dataset_args(p):
    p.add_argument("--dataset", choices=CHOICES["dataset"], default=None)
    p.add_argument("--idx-images")
    p.add_argument("--idx-labels")
    p.add_argument("--shapes-count", type=int, default=None)
    p.add_argument("--shapes-size", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="cfedit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model bundle on a dataset")
    _add_common(p)
    _add_dataset_args(p)
    p.add_argument("--test-idx-images")
    p.add_argument("--test-idx-labels")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--out", required=True, help="output model directory")

    p = sub.add_parser("explain", help="counterfactual explanation for one query/distractor pair")
    _add_common(p)
    _add_dataset_args(p)
    _add_search_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--query-index", type=int, required=True)
    p.add_argument("--distractor-index", type=int, default=None)
    p.add_argument("--distractor-class", type=int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("batch-explain", help="explanations for sampled query/distractor pairs")
    _add_common(p)
    _add_dataset_args(p)
    _add_search_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--no-rasters", action="store_true", help="write records only")
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="edit-count metrics over a directory of records")
    _add_common(p)
    p.add_argument("--records", required=True, help="directory of explanation records")
    p.add_argument("--out", required=True, help="output report JSON")

    p = sub.add_parser("fidelity", help="relaxed vs exhaustive best-edit fidelity")
    _add_common(p)
    _add_dataset_args(p)
    _add_solver_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--out", required=True, help="output report JSON")

    p = sub.add_parser("render", help="re-render rasters from an explanation record")
    _add_common(p)
    _add_dataset_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--record", required=True)
    p.add_argument("--out", required=True)
    return parser


def _add_solver_args(p):
    p.add_argument("--strategy", choices=CHOICES["strategy"], default=None)
    p.add_argument("--relax-lr", type=float, default=None)
    p.add_argument("--relax-steps", type=int, default=None)


def _add_search_args(p):
    _add_solver_args(p)
    p.add_argument("--max-edits", type=int, default=None)
    p.add_argument("--exclusion-policy", choices=CHOICES["exclusion_policy"], default=None)


DEFAULTS = {
    "seed": 0,
    "dataset": "shapes",
    "shapes_count": 400,
    "shapes_size": 28,
    "epochs": TrainConfig().epochs,
    "learning_rate": TrainConfig().learning_rate,
    "batch_size": TrainConfig().batch_size,
    "strategy": "exhaustive",
    "max_edits": SearchConfig().max_edits,
    "exclusion_policy": SearchConfig().exclusion_policy,
    "relax_lr": RelaxOptConfig().learning_rate,
    "relax_steps": RelaxOptConfig().max_steps,
    "pairs": 50,
    "instances": 100,
}

CHOICES = {
    "dataset": ("shapes", "idx"),
    "strategy": ("exhaustive", "relaxed"),
    "exclusion_policy": EXCLUSION_POLICIES,
}

# smallest accepted value of numeric keys, checked before any data is built
MINIMUM = {"seed": 0, "shapes_size": 1, "pairs": 1, "instances": 1}


def resolve_config(args) -> dict:
    """DEFAULTS < config file < explicit flags.  Values of numeric keys must be
    numbers (integers where the default is one), at least their MINIMUM, and
    keys in CHOICES must take one of their listed values."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        file_cfg = read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise FormatError(f"{args.config}: config must be a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise CfeditError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in DEFAULTS:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    for key, default in DEFAULTS.items():
        if key in CHOICES and cfg[key] not in CHOICES[key]:
            raise FormatError(f"config {key} must be one of {list(CHOICES[key])}, got {cfg[key]!r}")
        if type(default) in (int, float) and not is_number(cfg[key], integer=type(default) is int):
            kind = "an integer" if type(default) is int else "a number"
            raise FormatError(f"config {key} must be {kind}, got {cfg[key]!r}")
        if key in MINIMUM and cfg[key] < MINIMUM[key]:
            raise FormatError(f"config {key} must be at least {MINIMUM[key]}, got {cfg[key]!r}")
    return cfg


def _load_dataset(args, cfg, split="data") -> Dataset:
    if cfg["dataset"] == "idx":
        if not (args.idx_images and args.idx_labels):
            raise CfeditError("idx dataset requires --idx-images and --idx-labels")
        return load_idx(args.idx_images, args.idx_labels, split=split)
    return gen_shapes(cfg["shapes_count"], size=cfg["shapes_size"], seed=cfg["seed"], split=split)


def _relax_opt(cfg) -> RelaxOptConfig:
    return RelaxOptConfig(learning_rate=cfg["relax_lr"], max_steps=cfg["relax_steps"])


def _search_config(cfg) -> SearchConfig:
    relax = _relax_opt(cfg)
    return SearchConfig(
        exclusion_policy=cfg["exclusion_policy"],
        max_edits=cfg["max_edits"],
        relax=relax if cfg["strategy"] == "relaxed" else None,
    )


def _receptive_fields(model: ModelBundle):
    return receptive_field_map([ly.spec for ly in model.extractor], *model.input_shape[:2])


def _checked_index(dataset: Dataset, index, what: str) -> int:
    if not (is_number(index, integer=True) and 0 <= index < len(dataset)):
        raise FormatError(f"{what} {index!r} is outside the dataset's {len(dataset)} images")
    return int(index)


def _sample_pairs(preds, count, rng) -> list[tuple[int, int]]:
    """Up to `count` (query, distractor) pairs predicted differently; 20 draws
    per pair at most.  A draw makes no pair only when every image has one
    predicted class, so an empty dataset, or one predicted as a single
    class, has no pair to draw: ShapeError."""
    if not len(preds):
        raise ShapeError("the dataset is empty: no (query, distractor) pair to draw")
    pairs = []
    for _ in range(count * 20):
        if len(pairs) == count:
            break
        q = int(rng.integers(len(preds)))
        others = np.flatnonzero(preds != preds[q])
        if len(others):
            pairs.append((q, int(others[rng.integers(len(others))])))
    if not pairs:
        raise ShapeError(f"the model predicts class {preds[0]} for every image: no (query, distractor) pair to draw")
    return pairs


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    tc = TrainConfig(
        learning_rate=cfg["learning_rate"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
    )
    if bool(args.test_idx_images) != bool(args.test_idx_labels):
        raise CfeditError("an idx test set requires both --test-idx-images and --test-idx-labels")
    dataset = _load_dataset(args, cfg, split="train")
    test_images = test_labels = None
    if args.test_idx_images:
        test = load_idx(args.test_idx_images, args.test_idx_labels, split="test")
        test_images, test_labels = test.images, test.labels
    elif cfg["dataset"] == "shapes":
        test = gen_shapes(
            max(cfg["shapes_count"] // 4, 40), size=cfg["shapes_size"], seed=cfg["seed"], split="test"
        )
        test_images, test_labels = test.images, test.labels
    model = train(
        reference_extractor_specs(),
        reference_head_specs(dataset.class_count),
        dataset.images,
        dataset.labels,
        tc,
        test_images=test_images,
        test_labels=test_labels,
        class_count=dataset.class_count,
    )
    save_model(model, args.out)
    print(json.dumps({"model": args.out, "metrics": model.metrics}, sort_keys=True))
    return 0


def _explain_one(
    model, dataset, cfg, sc, rf, query_index, distractor_index, target_class, out_dir, prefix, rasters=True
):
    """Explain one pair toward `target_class`, the distractor's predicted class."""
    result = greedy_counterfactual(
        model,
        dataset.images[query_index],
        dataset.images[distractor_index],
        target_class,
        sc,
        query_id=dataset.ids[query_index],
        distractor_id=dataset.ids[distractor_index],
    )
    renders = None
    if rasters:
        renders = render_explanation(
            dataset.images[query_index], dataset.images[distractor_index], result, rf
        )
    extra = {
        "query_index": int(query_index),
        "distractor_index": int(distractor_index),
        "run_config": cfg,
    }
    write_explanation(result, renders, out_dir, rf, rf, sc, prefix=prefix, extra=extra)
    return result


def cmd_explain(args) -> int:
    cfg = resolve_config(args)
    sc = _search_config(cfg)
    model = load_model(args.model)
    dataset = _load_dataset(args, cfg)
    if (args.distractor_index is None) == (args.distractor_class is None):
        raise CfeditError("give exactly one of --distractor-index / --distractor-class")
    q_index = _checked_index(dataset, args.query_index, "query index")
    if args.distractor_index is not None:
        d_index = _checked_index(dataset, args.distractor_index, "distractor index")
        target = int(predict_batch(model, dataset.images[d_index][None])[0])
    else:
        preds = predict_batch(model, dataset.images)
        candidates = np.flatnonzero(preds == args.distractor_class)
        if not len(candidates):
            raise CfeditError(f"no image predicted as class {args.distractor_class}")
        d_index = int(candidates[substream(cfg["seed"], "distractor-pick").integers(len(candidates))])
        target = args.distractor_class
    rf = _receptive_fields(model)
    result = _explain_one(model, dataset, cfg, sc, rf, q_index, d_index, target, args.out, "explanation")
    print(json.dumps({"status": result.status, "edits": result.edit_count}, sort_keys=True))
    return 0


def cmd_batch_explain(args) -> int:
    cfg = resolve_config(args)
    sc = _search_config(cfg)
    model = load_model(args.model)
    dataset = _load_dataset(args, cfg)
    preds = predict_batch(model, dataset.images)
    pairs = _sample_pairs(preds, cfg["pairs"], substream(cfg["seed"], "pairs"))
    rf = _receptive_fields(model)
    statuses = []
    for k, (q, d) in enumerate(pairs):
        prefix = f"pair_{k:04d}"
        result = _explain_one(
            model, dataset, cfg, sc, rf, q, d, int(preds[d]), args.out, prefix, not args.no_rasters
        )
        statuses.append(result.status)
    print(json.dumps({"pairs": len(pairs), "flipped": statuses.count("flipped")}, sort_keys=True))
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    # the report may be written among the records; a rerun must not read it as one
    report_path = os.path.realpath(args.out)
    paths = sorted(os.path.join(args.records, f) for f in os.listdir(args.records) if f.endswith(".json"))
    results = [read_explanation(p)[0] for p in paths if os.path.realpath(p) != report_path]
    if not results:
        raise CfeditError(f"no records found in {args.records}")
    report = avg_edit_count(results)
    payload = asdict(report)
    payload["run_config"] = cfg
    write_json(args.out, payload)
    print(json.dumps({"value": report.value, "count": report.count}, sort_keys=True))
    return 0


def cmd_fidelity(args) -> int:
    cfg = resolve_config(args)
    opt = _relax_opt(cfg)
    model = load_model(args.model)
    dataset = _load_dataset(args, cfg)
    preds = predict_batch(model, dataset.images)
    instances = []
    for q, d in _sample_pairs(preds, cfg["instances"], substream(cfg["seed"], "fidelity")):
        F, F2 = forward_feature_pair(model, dataset.images[q], dataset.images[d])
        instances.append((F, F2, int(preds[d]), (), ()))
    report = relaxation_fidelity(model, instances, opt, use_relaxed=cfg["strategy"] == "relaxed")
    payload = asdict(report)
    payload["run_config"] = cfg
    write_json(args.out, payload)
    print(json.dumps(report.extras, sort_keys=True))
    return 0


def cmd_render(args) -> int:
    prefix = os.path.splitext(os.path.basename(args.record))[0]
    if os.path.realpath(os.path.join(args.out, f"{prefix}.json")) == os.path.realpath(args.record):
        raise CfeditError(f"render would overwrite the record it reads, {args.record}; choose another --out")
    cfg = resolve_config(args)
    model = load_model(args.model)
    dataset = _load_dataset(args, cfg)
    result, record = read_explanation(args.record)
    h, w, _ = model.feature_shape
    if (result.edits.h, result.edits.w) != (h, w):
        raise FormatError(
            f"record grid {result.edits.h}x{result.edits.w} does not match the model's {h}x{w} feature grid"
        )
    if "query_index" not in record or "distractor_index" not in record:
        raise CfeditError("record carries no dataset indices; cannot re-render")
    q_index = _checked_index(dataset, record["query_index"], "record query_index")
    d_index = _checked_index(dataset, record["distractor_index"], "record distractor_index")
    rf = _receptive_fields(model)
    renders = render_explanation(dataset.images[q_index], dataset.images[d_index], result, rf)
    extra = {"query_index": q_index, "distractor_index": d_index, "run_config": cfg}
    if "config" in record:
        extra["config"] = record["config"]  # the source record's search config, unchanged
    write_explanation(result, renders, args.out, rf, rf, None, prefix=prefix, extra=extra)
    print(json.dumps({"rendered": prefix}, sort_keys=True))
    return 0


COMMANDS = {
    "train": cmd_train,
    "explain": cmd_explain,
    "batch-explain": cmd_batch_explain,
    "evaluate": cmd_evaluate,
    "fidelity": cmd_fidelity,
    "render": cmd_render,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numbers that overflow end in a typed error, not in numpy's warnings on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command](args)
    except (CfeditError, OSError, MemoryError) as exc:
        # numpy's failed allocation (a dataset too large to hold) is a private MemoryError subclass
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print("error: " + json.dumps({"type": kind, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

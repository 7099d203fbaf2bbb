"""The benchmark's workloads: what one operation is, its inputs and its checks.

Each workload builds a pool of operations from the run seed in `setup`, runs
one of them per `run_op` call (the timed part), and checks and scores results
outside the timed region. The closed loop in run.py cycles through the pool,
so every operation runs at least once and repeats must reproduce exactly.

A workload calls cfedit through module attributes (`network.train`, not a
name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import time

import numpy as np

from cfedit import cli, data, metrics, network, relaxed, render, search
from cfedit.rng import substream

import checks
import common


def load_frozen(name: str):
    """load_model on a frozen bundle, after checking its digest."""
    path = common.model_path(name)
    want = common.expected_digests()[name]
    got = common.model_digest(path)
    if got != want:
        raise ValueError(f"frozen model {name!r} has digest {got}, expected {want}")
    return network.load_model(path)


def stratified_pairs(preds, count, rng):
    """`count` (query, distractor) index pairs of differently predicted images.

    Pair k takes its classes from the k-th ordered class pair, cycling, and
    its images at random within those classes. Most of the variance in edit
    count lies between class pairs, so fixing their mix keeps the work per
    run the same from seed to seed.
    """
    by_class = {int(c): np.flatnonzero(preds == c) for c in np.unique(preds)}
    combos = [(a, b) for a in by_class for b in by_class if a != b]
    if not combos:
        raise ValueError("the model predicts a single class on every image")
    pairs = []
    for k in range(count):
        a, b = combos[k % len(combos)]
        pairs.append((int(rng.choice(by_class[a])), int(rng.choice(by_class[b]))))
    return pairs


class Workload:
    name = ""
    items_per_op = 1  # items one operation completes (images for train)

    def __init__(self, seed: int):
        self.seed = seed
        self.out_dir = os.path.join(common.OUT_DIR, self.name)
        self.pool = []

    def prepare(self):
        """One-off work before the set-ups: a clean output directory."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def setup(self):
        raise NotImplementedError

    def run_op(self, k: int):
        raise NotImplementedError

    def fingerprint(self, k: int, out) -> bytes:
        """Bytes that every repeat of operation k must reproduce."""
        raise NotImplementedError

    def check(self, k: int, out) -> list:
        raise NotImplementedError

    def quality(self, outs: dict) -> tuple[float, float]:
        """(goal_rate, goal_cost) over the first result of every pool operation."""
        raise NotImplementedError

    def extra_traced(self, outs: dict) -> list:
        """Work the traced run adds once after its traced pass; returns problems."""
        return []


class Train(Workload):
    """network.train from scratch, one epoch over a fresh slice of shapes.

    Jobs are short (2 steps of 64) so that a run holds enough of them for a
    90th percentile.
    """

    name = "train"

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.jobs = 2 if smoke else 32
        self.items_per_op = 64 if smoke else 128
        self.trace_ops = 1 if smoke else 3
        self.specs = (network.reference_extractor_specs(), network.reference_head_specs(4))

    def setup(self):
        n = self.items_per_op
        ds = data.gen_shapes(n * self.jobs, size=28, seed=self.seed, split="train")
        self.slices = [(ds.images[k * n : (k + 1) * n], ds.labels[k * n : (k + 1) * n]) for k in range(self.jobs)]
        self.class_count = ds.class_count
        self.pool = list(range(self.jobs))
        self.fits = {}  # pool index -> (accuracy, loss) of its first result

    def run_op(self, k):
        images, labels = self.slices[k]
        config = network.TrainConfig(learning_rate=0.05, epochs=1, seed=self.seed * self.jobs + k)
        return network.train(*self.specs, images, labels, config, class_count=self.class_count)

    def fingerprint(self, k, model):
        h = hashlib.sha256()
        for layer in model.extractor + model.head:
            for name in sorted(layer.weights):
                h.update(layer.weights[name].tobytes())
        return h.digest()

    def _fit(self, k, model):
        """(accuracy, mean true-class probability, mean log-loss) of a trained
        model on its own slice, in training-sized batches so the check does
        not raise peak memory."""
        images, labels = self.slices[k]
        layers = model.extractor + model.head
        out = np.concatenate(
            [network.forward_layers(layers, images[lo : lo + 64, ..., None]) for lo in range(0, len(images), 64)]
        )
        true = out[np.arange(len(labels)), labels]
        return float(np.mean(np.argmax(out, axis=1) == labels)), float(np.mean(np.exp(true))), -float(np.mean(true))

    def check(self, k, model):
        problems = []
        if not all(np.all(np.isfinite(w)) for ly in model.extractor + model.head for w in ly.weights.values()):
            problems.append("trained weights are not finite")
        acc, _, loss = self.fits[k] = self._fit(k, model)
        if abs(acc - model.metrics["train_accuracy"]) > 1e-12:
            problems.append(f"reported train accuracy {model.metrics['train_accuracy']} != recomputed {acc}")
        if not 0 < loss < np.log(self.class_count) * 2:
            problems.append(f"training loss {loss} is outside (0, 2 ln classes)")
        return problems

    def quality(self, outs):
        """Mean true-class probability and mean log-loss. After two steps the
        argmax accuracy sits near chance and jumps from seed to seed, so the
        probability is the steadier rate; accuracy is still checked."""
        fits = [self.fits.get(k) or self._fit(k, outs[k]) for k in sorted(outs)]
        return float(np.mean([p for _, p, _ in fits])), float(np.mean([l for _, _, l in fits]))


class Explain(Workload):
    """The per-pair work of `cfedit batch-explain`, replayed through the API."""

    exclusion_policy = "query-and-distractor-cells"

    def __init__(self, seed, smoke, name, model_name, dataset_count, pairs, trace_ops, cli_pairs):
        self.name = name
        super().__init__(seed)
        self.model_name = model_name
        self.dataset_count = 40 if smoke else dataset_count
        self.pairs = 3 if smoke else pairs
        self.trace_ops = min(trace_ops, 2) if smoke else trace_ops
        self.cli_pairs = min(cli_pairs, 2) if smoke else cli_pairs
        self.config = search.SearchConfig(exclusion_policy=self.exclusion_policy)
        self.records = os.path.join(self.out_dir, "records")

    def setup(self):
        self.model = load_frozen(self.model_name)
        self.size = self.model.input_shape[0]
        self.ds = data.gen_shapes(self.dataset_count, size=self.size, seed=self.seed, split="bench")
        preds = network.predict_batch(self.model, self.ds.images)
        self.pool = stratified_pairs(preds, self.pairs, substream(self.seed, "perfbench-pairs"))
        self.specs = [ly.spec for ly in self.model.extractor]

    def run_op(self, k):
        q, d = self.pool[k]
        model, ds = self.model, self.ds
        target = int(network.predict_batch(model, ds.images[d][None])[0])
        result = search.greedy_counterfactual(
            model, ds.images[q], ds.images[d], target, self.config, query_id=ds.ids[q], distractor_id=ds.ids[d]
        )
        rf = render.receptive_field_map(self.specs, self.size, self.size)
        renders = render.render_explanation(ds.images[q], ds.images[d], result, rf)
        extra = {"query_index": q, "distractor_index": d}
        paths = render.write_explanation(
            result, renders, self.records, rf, rf, self.config, prefix=f"pair_{k:04d}", extra=extra
        )
        return result, paths["record"]

    def fingerprint(self, k, out):
        with open(out[1], "rb") as fh:
            return fh.read()

    def check(self, k, out):
        result = out[0]
        q, d = self.pool[k]
        F = network.forward_features(self.model, self.ds.images[q])
        F2 = network.forward_features(self.model, self.ds.images[d])
        query_class = network.head_logprobs(self.model, F).argmax()
        target = network.head_logprobs(self.model, F2).argmax()
        problems = checks.check_explanation(
            self.model, result, F, F2, query_class, target, self.exclusion_policy, F.cells
        )
        oracle = checks.oracle_best_edit(self.model, F, F2, target)
        return problems + checks.check_first_edit(result, oracle, F.w)

    def quality(self, outs):
        results = [render.read_explanation(outs[k][1])[0] for k in sorted(outs)]
        report = metrics.avg_edit_count(results)
        return report.extras["flip_rate"], report.value

    def extra_traced(self, outs):
        """Edit counts over the written records, then batch-explain through
        cli.main in-process on the frozen model (explain-ref only)."""
        self.quality(outs)
        if not self.cli_pairs:
            return []
        argv = [
            "batch-explain", "--dataset", "shapes", "--shapes-count", str(self.dataset_count),
            "--model", common.model_path(self.model_name), "--pairs", str(self.cli_pairs),
            "--no-rasters", "--seed", str(self.seed), "--out", os.path.join(self.out_dir, "cli"),
        ]
        with open(os.path.join(self.out_dir, "cli.stdout"), "w") as fh, contextlib.redirect_stdout(fh):
            code = cli.main(argv)
        return [] if code == 0 else [f"cli.main {' '.join(argv)} exited with {code}"]


class Fidelity(Workload):
    """metrics.relaxation_fidelity: the relaxed solver against exhaustive search.

    One operation scores a group of 4 instances, from 4 different class
    pairs. A single instance takes either the solver's full 300 steps or
    stops early, so single-instance times fall into two clusters and their
    median jumps between them from seed to seed; the time of a group does not.
    """

    name = "fidelity"

    def __init__(self, seed, smoke):
        super().__init__(seed)
        self.items_per_op = 2 if smoke else 4
        self.instances = 2 if smoke else 144
        self.trace_ops = 1 if smoke else 6
        self.dataset_count = 40 if smoke else 400
        self.opt = relaxed.RelaxOptConfig()

    def setup(self):
        self.model = load_frozen("ref")
        ds = data.gen_shapes(self.dataset_count, size=28, seed=self.seed, split="bench")
        preds = network.predict_batch(self.model, ds.images)
        instances = [
            (
                network.forward_features(self.model, ds.images[q]),
                network.forward_features(self.model, ds.images[d]),
                int(preds[d]),
                (),
                (),
            )
            for q, d in stratified_pairs(preds, self.instances, substream(self.seed, "perfbench-fidelity"))
        ]
        g = self.items_per_op
        self.pool = [instances[k : k + g] for k in range(0, len(instances), g)]

    def run_op(self, k):
        return metrics.relaxation_fidelity(self.model, self.pool[k], self.opt)

    def fingerprint(self, k, report):
        return repr([(s["match"], s["prob_ratio"]) for s in report.samples]).encode()

    def check(self, k, report):
        problems = []
        for n, (F, F2, target, _, _) in enumerate(self.pool[k]):
            got = search.best_edit_exhaustive(self.model, F, F2, target)
            oracle = checks.oracle_best_edit(self.model, F, F2, target)
            if got[:2] != oracle[:2]:
                problems.append(f"instance {n}: exhaustive best edit {got[:2]} differs from oracle {oracle[:2]}")
        calibration = metrics.relaxation_fidelity(self.model, self.pool[k], self.opt, use_relaxed=False)
        return problems + checks.check_fidelity(report, calibration)

    def quality(self, outs):
        samples = [s for k in sorted(outs) for s in outs[k].samples]
        match = float(np.mean([s["match"] for s in samples]))
        return match, 1.0 / float(np.mean([s["prob_ratio"] for s in samples]))


WORKLOADS = {
    "train": Train,
    "explain-ref": lambda seed, smoke: Explain(seed, smoke, "explain-ref", "ref", 400, 384, 192, 10),
    "explain-wide": lambda seed, smoke: Explain(seed, smoke, "explain-wide", "wide", 300, 120, 24, 0),
    "fidelity": Fidelity,
}


def layer_times(seed: int, reps: int, batch: int = 64) -> dict:
    """Median ms of one forward_layers / backward_layers call per reference layer.

    The layers are freshly initialised; each layer's input is the previous
    layer's output on `batch` shapes, as in a training step.
    """
    specs = network.reference_extractor_specs() + network.reference_head_specs(4)
    rng = substream(seed, "perfbench-layers")
    x = data.gen_shapes(batch, size=28, seed=seed, split="layers").images[..., None]
    geom = x.shape[1:]
    out = {}
    for k, spec in enumerate(specs, 1):
        layer, geom = network.init_layer(spec, geom, rng)
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            y, caches = network.forward_layers([layer], x, keep_caches=True)
            fwd.append(time.perf_counter() - t0)
            g = np.full_like(y, 1.0 / y.size)
            t0 = time.perf_counter()
            network.backward_layers([layer], caches, g)
            bwd.append(time.perf_counter() - t0)
        out[f"network.L{k}_{spec.kind}.fwd_ms"] = 1000 * float(np.median(fwd))
        out[f"network.L{k}_{spec.kind}.bwd_ms"] = 1000 * float(np.median(bwd))
        x = y
    return out

"""Acceptance gate: the ten headline requirements, one test and one
printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the criterion lines.
Criteria 1-3 are defined on the MNIST IDX files, which cannot be downloaded
in this environment; those tests skip unless the files are provided (see
conftest.mnist_paths_or_skip) and are accompanied by surrogate-dataset
analogues with thresholds pinned to measured-feasible values.
"""

import filecmp
import itertools
import json
import os
import time

import numpy as np
import pytest

from cfedit.cli import main as cli_main
from cfedit.errors import FormatError
from cfedit.grids import FeatureGrid
from cfedit.metrics import (
    agreement_cross_class,
    agreement_same_class,
    avg_edit_count,
    relaxation_fidelity,
)
from cfedit.network import (
    TrainConfig,
    forward_features,
    forward_layers,
    head_logprobs,
    load_model,
    predict_batch,
    reference_extractor_specs,
    reference_head_specs,
    save_model,
    tail_gradient,
    train,
)
from cfedit.relaxed import MASK_LOGIT
from cfedit.render import receptive_field_map, write_explanation, read_explanation
from cfedit.search import EditProblem, ExplanationResult, best_edit_exhaustive, greedy_counterfactual
from cfedit.data import gen_shapes, load_idx

from conftest import (
    brute_force_best_edit,
    identity_feature_model,
    min_edit_oracle,
    mnist_paths_or_skip,
    objective_one,
    one_hot,
    pack_logits,
    random_grid,
    relaxed_first_dense,
    transformed,
    unpack,
)


def report(criterion, label, passed, detail):
    line = f"criterion {criterion} ({label}): {'PASS' if passed else 'FAIL'} - {detail}"
    print("\n" + line)
    assert passed, line


def skip_line(criterion, label, reason):
    print(f"\ncriterion {criterion} ({label}): SKIP - {reason}")
    pytest.skip(reason)


def mnist_datasets():
    paths = mnist_paths_or_skip()
    train_ds = load_idx(paths["train_images"], paths["train_labels"], split="train")
    test_ds = load_idx(paths["test_images"], paths["test_labels"], split="test")
    return train_ds, test_ds


_MNIST_MODEL = {}


def mnist_model():
    if "model" not in _MNIST_MODEL:
        train_ds, test_ds = mnist_datasets()
        t0 = time.time()
        model = train(
            reference_extractor_specs(),
            reference_head_specs(10),
            train_ds.images,
            train_ds.labels,
            TrainConfig(seed=0),
            test_images=test_ds.images,
            test_labels=test_ds.labels,
            class_count=10,
        )
        _MNIST_MODEL["model"] = (model, test_ds, time.time() - t0)
    return _MNIST_MODEL["model"]


def sample_flip_pairs(model, images, count, rng):
    preds = predict_batch(model, images)
    pairs = []
    while len(pairs) < count:
        q, d = rng.integers(len(images), size=2)
        if preds[q] != preds[d]:
            pairs.append((int(q), int(d), int(preds[d])))
    return pairs


class TestCriterion1Training:
    def test_mnist(self):
        try:
            model, test_ds, elapsed = mnist_model()
        except pytest.skip.Exception:
            skip_line(1, "training reproduction", "MNIST IDX files unavailable")
        acc = model.metrics["test_accuracy"]
        ok = acc >= 0.97 and elapsed <= 20 * 60 and model.feature_shape == (4, 4, 20)
        report(
            1, "training reproduction",
            ok, f"test accuracy {acc:.4f} (>=0.97), {elapsed:.0f}s (<=1200s), features {model.feature_shape}",
        )

    def test_surrogate(self, digits_model):
        acc = digits_model.metrics["test_accuracy"]
        ok = acc >= 0.97 and digits_model.feature_shape == (4, 4, 20)
        report(
            1, "training reproduction, surrogate digits",
            ok, f"test accuracy {acc:.4f} (>=0.97), features {digits_model.feature_shape} (4x4x20)",
        )


    def test_shapes(self, shapes_model):
        # Measured on 400 held-out shapes: test accuracy 0.9475, 0.935, 0.9625,
        # 0.9425, 0.9375 and 0.95 on seeds 1 to 6.  On seed 1 the bound leaves
        # a margin of 0.0475; the lowest measured value is 0.035 above it.
        held_out = gen_shapes(400, size=28, seed=1, split="test")
        acc = float(np.mean(predict_batch(shapes_model, held_out.images) == held_out.labels))
        ok = acc >= 0.90 and shapes_model.feature_shape == (4, 4, 20)
        report(
            1, "training reproduction, shapes",
            ok, f"held-out accuracy {acc:.4f} (>=0.90), features {shapes_model.feature_shape} (4x4x20)",
        )

class TestCriterion2EditCounts:
    def run_pairs(self, model, images, count, seed):
        rng = np.random.default_rng(seed)
        t0 = time.time()
        results = []
        for q, d, target in sample_flip_pairs(model, images, count, rng):
            results.append(greedy_counterfactual(model, images[q][..., None], images[d][..., None], target))
        return avg_edit_count(results), time.time() - t0

    def test_mnist(self):
        try:
            model, test_ds, _ = mnist_model()
        except pytest.skip.Exception:
            skip_line(2, "edit-count reproduction", "MNIST IDX files unavailable")
        rep, elapsed = self.run_pairs(model, test_ds.images, 500, seed=1)
        ok = 1.9 <= rep.value <= 3.4 and rep.extras["flip_rate"] >= 0.95 and elapsed <= 15 * 60
        report(
            2, "edit-count reproduction",
            ok, f"mean {rep.value:.2f} (in [1.9, 3.4]), flip rate {rep.extras['flip_rate']:.3f} (>=0.95), {elapsed:.0f}s",
        )

    def test_surrogate(self, digits_model, digits_surrogate):
        images = np.concatenate(
            [digits_surrogate["train_images"], digits_surrogate["test_images"]]
        )
        rep, elapsed = self.run_pairs(digits_model, images, 500, seed=2)
        ok = 1.5 <= rep.value <= 4.5 and rep.extras["flip_rate"] >= 0.95 and elapsed <= 15 * 60
        report(
            2, "edit-count reproduction, surrogate digits",
            ok, f"mean {rep.value:.2f} (in [1.5, 4.5]), flip rate {rep.extras['flip_rate']:.3f} (>=0.95), {elapsed:.0f}s",
        )

    def test_shapes(self, shapes_model):
        # Measured on 200 pairs of held-out shapes: mean edits 4.49, 4.29 and
        # 4.69 and flip rate 0.995, 0.98 and 0.99 on seeds 2, 5 and 6.  On
        # seed 2 the bounds leave margins of 0.69 edits on either side and
        # 0.045 of flip rate.
        images = gen_shapes(400, size=28, seed=2, split="edit-test").images
        rep, elapsed = self.run_pairs(shapes_model, images, 200, seed=2)
        ok = 3.8 <= rep.value <= 5.2 and rep.extras["flip_rate"] >= 0.95
        report(
            2, "edit-count reproduction, shapes",
            ok, f"mean {rep.value:.2f} (in [3.8, 5.2]), flip rate {rep.extras['flip_rate']:.3f} (>=0.95), {elapsed:.1f}s",
        )


class TestCriterion3RelaxationFidelity:
    def instances(self, model, images, count, seed):
        rng = np.random.default_rng(seed)
        instances = []
        for q, d, target in sample_flip_pairs(model, images, count, rng):
            F = forward_features(model, images[q][..., None])
            F2 = forward_features(model, images[d][..., None])
            instances.append((F, F2, target, (), ()))
        return instances

    def run_fidelity(self, model, images, count, seed):
        return relaxation_fidelity(model, self.instances(model, images, count, seed))

    def test_mnist(self):
        try:
            model, test_ds, _ = mnist_model()
        except pytest.skip.Exception:
            skip_line(3, "relaxation fidelity", "MNIST IDX files unavailable")
        rep = self.run_fidelity(model, test_ds.images, 500, seed=3)
        match, ratio = rep.extras["match_rate"], rep.extras["mean_prob_ratio"]
        ok = match >= 0.70 and ratio >= 0.85
        report(
            3, "relaxation fidelity",
            ok, f"match rate {match:.3f} (>=0.70), prob ratio {ratio:.3f} (>=0.85) on 500 instances",
        )

    def test_surrogate(self, digits_model, digits_surrogate):
        images = np.concatenate(
            [digits_surrogate["train_images"], digits_surrogate["test_images"]]
        )
        rep = self.run_fidelity(digits_model, images, 500, seed=4)
        match, ratio = rep.extras["match_rate"], rep.extras["mean_prob_ratio"]
        ok = match >= 0.55 and ratio >= 0.70
        report(
            3, "relaxation fidelity, surrogate digits",
            ok, f"match rate {match:.3f} (>=0.55), prob ratio {ratio:.3f} (>=0.70) on 500 instances",
        )

    def test_shapes(self, shapes_model):
        # Measured with the solver's default settings: match 0.82, ratio
        # 0.986, 31.2 steps per call.  Bounds leave margins of 0.07, 0.036
        # and 13.8 steps.  The steps bound catches a return to plain gradient
        # ascent, which uses the whole 60-step budget (and 257 of 300 steps
        # with a 300-step budget) here.
        images = gen_shapes(200, size=28, seed=3, split="fidelity-test").images
        instances = self.instances(shapes_model, images, 100, seed=3)
        rep = relaxation_fidelity(shapes_model, instances)
        match, ratio = rep.extras["match_rate"], rep.extras["mean_prob_ratio"]
        steps = rep.extras["mean_steps"]
        ok = match >= 0.75 and ratio >= 0.95 and steps <= 45
        report(
            3, "relaxation fidelity, shapes",
            ok, f"match rate {match:.3f} (>=0.75), prob ratio {ratio:.3f} (>=0.95), "
            f"{steps:.1f} steps per call (<=45) on 100 instances",
        )


class TestCriterion4OracleEquivalence:
    def test_exhaustive_and_greedy_match_oracles(self):
        rng = np.random.default_rng(40)
        mismatches = 0
        for k in range(200):
            d = int(rng.integers(1, 5))
            model = identity_feature_model(3, 3, d, 3, seed=1000 + k, linear=bool(k % 2))
            F = random_grid(rng, 3, 3, d)
            F2 = random_grid(rng, 3, 3, d)
            target = int(rng.integers(3))
            got = best_edit_exhaustive(model, F, F2, target)
            want = brute_force_best_edit(model, F, F2, target)
            if got[:2] != want[:2] or abs(got[2] - want[2]) > 1e-9:
                mismatches += 1

        greedy_checked = 0
        rng2 = np.random.default_rng(41)
        for k in range(80):
            model = identity_feature_model(2, 2, 1, 2, seed=2000 + k, linear=bool(k % 2))
            query = rng2.normal(size=(2, 2, 1))
            distractor = rng2.normal(size=(2, 2, 1)) * 2
            F = FeatureGrid.from_array(query)
            F2 = FeatureGrid.from_array(distractor)
            target = 1 - int(head_logprobs(model, F).argmax())
            result = greedy_counterfactual(model, query, distractor, target)
            if result.status != "flipped" or not (1 <= result.edit_count <= 2):
                continue
            size, flips = min_edit_oracle(model, F, F2, target)
            if size != result.edit_count or len(flips) != 1:
                continue
            greedy_set = frozenset((i * 2 + j, i2 * 2 + j2) for (i, j, i2, j2) in result.edits)
            if greedy_set != flips[0]:
                mismatches += 1
            greedy_checked += 1

        ok = mismatches == 0 and greedy_checked >= 3
        report(
            4, "oracle equivalence",
            ok, f"200 exhaustive instances, {greedy_checked} unique-minimum greedy instances, {mismatches} mismatches",
        )


class TestCriterion5GradientSuite:
    def test_finite_differences(self):
        rng = np.random.default_rng(50)
        eps = 1e-5
        worst = 0.0
        for k in range(50):
            model = identity_feature_model(2, 2, 2, 3, seed=3000 + k, linear=bool(k % 2))
            F = random_grid(rng, 2, 2, 2)
            F2 = random_grid(rng, 2, 2, 2)
            target = int(rng.integers(3))

            # the grid gradient the relaxed solver forms: `tail_gradient` at the
            # unedited grid's first dense output, mapped back through W^T
            W = model.mlp[0][0]
            z0 = EditProblem(model, F.values, F2.values, target).z0[None]
            grad = (tail_gradient(model, one_hot(model, [target]), z0) @ W.T).reshape(4, 2)
            fd = np.zeros_like(grad)
            for i in range(4):
                for c in range(2):
                    up = F.values.copy()
                    dn = F.values.copy()
                    up[i, c] += eps
                    dn[i, c] -= eps
                    fd[i, c] = (
                        head_logprobs(model, FeatureGrid(2, 2, 2, up))[target]
                        - head_logprobs(model, FeatureGrid(2, 2, 2, dn))[target]
                    ) / (2 * eps)
            worst = max(worst, np.abs(fd - grad).max() / max(np.abs(fd).max(), 1e-12))

            alpha = rng.normal(size=4) * 0.5
            M = rng.normal(size=(4, 4)) * 0.5

            _, dalpha, dM, _, _ = objective_one(model, F, F2, target, alpha, M)

            def obj(al, mm):
                return objective_one(model, F, F2, target, al, mm)[0]

            fd_a = np.zeros(4)
            for i in range(4):
                up, dn = alpha.copy(), alpha.copy()
                up[i] += eps
                dn[i] -= eps
                fd_a[i] = (obj(up, M) - obj(dn, M)) / (2 * eps)
            worst = max(worst, np.abs(fd_a - dalpha).max() / max(np.abs(fd_a).max(), 1e-12))

            fd_M = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    up, dn = M.copy(), M.copy()
                    up[i, j] += eps
                    dn[i, j] -= eps
                    fd_M[i, j] = (obj(alpha, up) - obj(alpha, dn)) / (2 * eps)
            worst = max(worst, np.abs(fd_M - dM).max() / max(np.abs(fd_M).max(), 1e-12))

        ok = worst <= 1e-4
        report(
            5, "gradient suite",
            ok, f"worst relative error {worst:.2e} (<=1e-4) on 50 instances, step 1e-5",
        )


class TestCriterion6TransformationIdentities:
    """The paper's edit (1 - a) o F + a o (P @ F2), built explicitly here,
    against the first dense outputs the searches form without building it:
    exhaustive search's z0 + (F2[j] - F[i]) . W_i (`EditProblem`) and the
    relaxed solver's z0 + (a o (P @ F2 - F)) . W (`_objective_gradient`)."""

    def test_identity_replacement_affine(self):
        rng = np.random.default_rng(60)
        failures = 0
        models = {}  # (h, w, d) -> the model of that feature geometry
        relaxed = {}  # (h, w, d) -> the relaxed instances of that geometry, with their z
        for k in range(1000):
            h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            n = h * w
            geometry = (h, w, d)
            if geometry not in models:
                models[geometry] = identity_feature_model(h, w, d, 3, seed=6000 + len(models), linear=False)
            model = models[geometry]
            weight, bias = model.mlp[0]
            F = random_grid(rng, h, w, d)
            F2 = random_grid(rng, h, w, d)
            perm = rng.permutation(n)  # alignment row i selects source cell perm[i]
            target = int(rng.integers(3))
            i = k % n
            j = int(perm[i])

            # a no-op edit leaves the scored row at z0, bitwise, with the
            # contraction computed per row and stored by the first step
            noop = F2.values.copy()
            noop[j] = F.values[i]
            problem = EditProblem(model, F.values, FeatureGrid(h, w, d, noop).values, target)
            rows = [problem.contraction_rows([i])[0, j] + problem.z0]
            problem.step()
            rows.append(problem.contraction_rows([i])[0, j] + problem.z0)
            if not all(np.array_equal(z, problem.z0) for z in rows):
                failures += 1
                continue

            # a one-hot gate and alignment row: the relaxed z, the scored row
            # (computed and stored) and the explicit row copy agree
            problem = EditProblem(model, F.values, F2.values, target)
            X = np.full((1, n + 1, n), MASK_LOGIT)
            X[0, 0, i] = X[0, 1 + i, j] = 0.0
            z, _ = relaxed_first_dense(model, F.values[None], F2.values[None], problem.z0[None], [target], X)
            copied = transformed(F.values, F2.values, np.eye(n)[i], np.eye(n)[perm])
            want = [problem.contraction_rows([i])[0, j] + problem.z0]
            problem.step()
            want += [problem.contraction_rows([i])[0, j] + problem.z0, copied.reshape(-1) @ weight + bias]
            if not all(np.allclose(z[0], v, rtol=0, atol=1e-12) for v in want):
                failures += 1
                continue

            # relaxed gates and alignments: z is the explicit affine grid's first dense output
            X = pack_logits(np.log(rng.dirichlet(np.ones(n))), np.log(rng.dirichlet(np.ones(n), size=n)))[None]
            z, S = relaxed_first_dense(model, F.values[None], F2.values[None], problem.z0[None], [target], X)
            gate, align = unpack(S[0])
            expected = transformed(F.values, F2.values, gate, align).reshape(-1) @ weight + bias
            if not np.allclose(z[0], expected, rtol=0, atol=1e-12):
                failures += 1
                continue
            relaxed.setdefault(geometry, []).append((F.values, F2.values, problem.z0, target, X[0], z[0]))

        # a stack of same-shape instances, as the relaxed solver passes them, equals the per-instance z
        for geometry, group in relaxed.items():
            Fs, F2s, z0s, targets, Xs, zs = zip(*group)
            stacked, _ = relaxed_first_dense(
                models[geometry], np.stack(Fs), np.stack(F2s), np.stack(z0s), list(targets), np.stack(Xs)
            )
            failures += int((np.abs(stacked - np.stack(zs)) > 1e-12).any(axis=1).sum())
        ok = failures == 0
        report(
            6, "transformation identities",
            ok, f"{failures} failures over 1000 random instances at 1e-12 "
            f"(no-op edits bitwise at z0, one-hot gates against the scored row and a row copy, "
            f"relaxed ones against the explicit transform and stacked in {len(relaxed)} shape groups)",
        )


class TestCriterion7ReceptiveFieldSoundness:
    def check(self, model, label):
        rf = receptive_field_map(reference_extractor_specs(), 28, 28)
        rng = np.random.default_rng(70)
        worst = 0.0
        for _ in range(100):
            img = rng.uniform(0, 1, (28, 28, 1))
            base = forward_layers(model.extractor, img[None])[0]
            masked = np.zeros((16, 28, 28, 1))
            for cell in range(16):
                t, l, b, r = rf.rect(cell // 4, cell % 4)
                masked[cell, t : b + 1, l : r + 1] = img[t : b + 1, l : r + 1]
            acts = forward_layers(model.extractor, masked)
            for cell in range(16):
                diff = np.abs(acts[cell, cell // 4, cell % 4] - base[cell // 4, cell % 4]).max()
                worst = max(worst, diff)
        ok = worst <= 1e-12
        report(
            7, label,
            ok, f"max activation change {worst:.2e} (<=1e-12) over 100 images x 16 cells",
        )

    def test_out_of_rectangle_pixels_are_inert(self, digits_model):
        self.check(digits_model, "receptive-field soundness")

    def test_shapes(self, shapes_model):
        self.check(shapes_model, "receptive-field soundness, shapes")


class TestCriterion8AgreementOrdering:
    def agreement(self, model, images, classes, distractors, seed):
        """Same-class and cross-class agreement over 20 queries, each with
        `distractors` distractors of one other class and one distractor from
        each of `distractors` other classes."""
        preds = predict_batch(model, images)
        rng = np.random.default_rng(seed)
        same_samples, cross_samples = [], []
        for q in rng.choice(len(images), 20, replace=False):
            c = int(preds[q])
            eligible = [t for t in range(classes) if t != c and (preds == t).sum() >= distractors]
            t_cls = int(eligible[rng.integers(len(eligible))])
            pool = np.flatnonzero(preds == t_cls)
            picks = pool[rng.choice(len(pool), distractors, replace=False)]
            same_samples.append(
                (images[q][..., None], t_cls, [images[d][..., None] for d in picks])
            )
            cls_choices = rng.choice([t for t in range(classes) if t != c], distractors, replace=False)
            pairs = []
            for t2 in cls_choices:
                pool = np.flatnonzero(preds == int(t2))
                d = int(pool[rng.integers(len(pool))])
                pairs.append((images[d][..., None], int(t2)))
            cross_samples.append((images[q][..., None], pairs))
        same = agreement_same_class(model, same_samples).value
        cross = agreement_cross_class(model, cross_samples).value
        return same, cross

    def test_same_class_exceeds_cross_class(self, digits_model, digits_surrogate):
        images = np.concatenate(
            [digits_surrogate["train_images"], digits_surrogate["test_images"]]
        )
        same, cross = self.agreement(digits_model, images, 10, 5, seed=80)
        ok = same > cross
        report(
            8, "agreement ordering",
            ok, f"same-class {same:.3f} > cross-class {cross:.3f} on 20 queries x 5 distractors",
        )

    def test_shapes(self, shapes_model):
        # Shapes has 4 classes, so each side has 3 distractors per query.
        # Measured: same-class 0.883, 0.883 and 0.900 against cross-class
        # 0.650, 0.500 and 0.717 on seeds 80, 81 and 82; the ordering holds
        # on seed 80 by a margin of 0.233.
        images = gen_shapes(400, size=28, seed=80, split="agreement-test").images
        same, cross = self.agreement(shapes_model, images, 4, 3, seed=80)
        ok = same > cross
        report(
            8, "agreement ordering, shapes",
            ok, f"same-class {same:.3f} > cross-class {cross:.3f} on 20 queries x 3 distractors",
        )


class TestCriterion9Determinism:
    PIPE_ARGS = ["--dataset", "shapes", "--shapes-count", "300", "--seed", "0"]

    def run_pipeline(self, base):
        model_dir = os.path.join(base, "model")
        records = os.path.join(base, "records")
        report_path = os.path.join(base, "report.json")
        assert cli_main(["train", *self.PIPE_ARGS, "--epochs", "5",
                         "--learning-rate", "0.05", "--out", model_dir]) == 0
        assert cli_main(["batch-explain", *self.PIPE_ARGS, "--model", model_dir,
                         "--pairs", "3", "--out", records]) == 0
        assert cli_main(["evaluate", "--records", records, "--out", report_path]) == 0
        files = {}
        for root, _, names in os.walk(base):
            for name in names:
                p = os.path.join(root, name)
                files[os.path.relpath(p, base)] = p
        return files

    def test_identical_runs_bit_identical_artifacts(self, tmp_path):
        a = self.run_pipeline(str(tmp_path / "a"))
        b = self.run_pipeline(str(tmp_path / "b"))
        diffs = []
        if sorted(a) != sorted(b):
            diffs.append("file sets differ")
        else:
            for rel in sorted(a):
                if open(a[rel], "rb").read() != open(b[rel], "rb").read():
                    diffs.append(rel)
        ok = not diffs and len(a) > 5
        report(
            9, "pipeline determinism",
            ok, f"{len(a)} artifacts (model, records, rasters, report) bit-identical" if ok else f"differences: {diffs}",
        )


class TestCriterion10FormatRoundTrips:
    def check(self, model, tmp_path, label):
        problems = []

        model_dir = str(tmp_path / "model")
        save_model(model, model_dir)
        back = load_model(model_dir)
        for la, lb in zip(model.extractor + model.head, back.extractor + back.head):
            for name in la.weights:
                if not np.array_equal(la.weights[name], lb.weights[name]):
                    problems.append(f"weights differ: {name}")

        rng = np.random.default_rng(100)
        quads = tuple((int(c) // 4, int(c) % 4, int(s) // 4, int(s) % 4)
                      for c, s in zip(rng.permutation(16)[:3], rng.integers(0, 16, 3)))
        from cfedit.grids import EditList
        result = ExplanationResult(
            EditList(quads, 4, 4),
            tuple((float(x), float(y)) for x, y in rng.normal(size=(4, 2))),
            "flipped", 1, 2, "q", "d",
        )
        paths = write_explanation(result, None, str(tmp_path / "rec"))
        if read_explanation(paths["record"])[0] != result:
            problems.append("explanation record round trip")

        # malformed fixtures -> typed errors
        bad = tmp_path / "badmodel"
        bad.mkdir()
        (bad / "manifest.json").write_text(json.dumps({"format_version": 99}))
        (bad / "weights.bin").write_bytes(b"")
        try:
            load_model(str(bad))
            problems.append("bad model version accepted")
        except FormatError:
            pass

        truncated = tmp_path / "truncated"
        save_model(model, str(truncated))
        blob = open(truncated / "weights.bin", "rb").read()
        open(truncated / "weights.bin", "wb").write(blob[:100])
        try:
            load_model(str(truncated))
            problems.append("truncated weights accepted")
        except FormatError:
            pass

        rec = json.load(open(paths["record"]))
        rec["record_version"] = 42
        json.dump(rec, open(paths["record"], "w"))
        try:
            read_explanation(paths["record"])
            problems.append("bad record version accepted")
        except FormatError:
            pass

        ok = not problems
        report(
            10, label,
            ok, "model and record round trips bit-exact; malformed fixtures raise typed errors"
            if ok else f"problems: {problems}",
        )

    def test_round_trips_and_typed_errors(self, digits_model, tmp_path):
        self.check(digits_model, tmp_path, "format round-trips")

    def test_shapes(self, shapes_model, tmp_path):
        self.check(shapes_model, tmp_path, "format round-trips, shapes")

import importlib
import os
import tracemalloc

import numpy as np
import pytest

from cfedit import relaxed, search
from cfedit.errors import BoundsError, ExhaustedError, ShapeError
from cfedit.grids import EditList
from cfedit.metrics import (
    agreement_cross_class,
    agreement_same_class,
    avg_edit_count,
    relaxation_fidelity,
)
from cfedit.data import gen_shapes
from cfedit.network import LayerSpec, forward_feature_pair, predict_batch
from cfedit.relaxed import RelaxOptConfig
from cfedit.search import ExplanationResult, best_edit_exhaustive

import test_search
from conftest import identity_feature_model, make_model, random_grid, solve_relaxed


def result_with(n_edits, status="flipped"):
    quads = tuple((k // 2, k % 2, k // 2, k % 2) for k in range(n_edits))
    traj = tuple((0.0, 0.0) for _ in range(n_edits + 1))
    return ExplanationResult(EditList(quads, 2, 2), traj, status, 0, 1, "q", "d")


class TestAvgEditCount:
    def test_all_single_edits(self):
        report = avg_edit_count([result_with(1) for _ in range(5)])
        assert report.value == 1.0
        assert report.extras["flip_rate"] == 1.0

    def test_arithmetic(self):
        report = avg_edit_count([result_with(1), result_with(2), result_with(3)])
        assert report.value == 2.0
        assert report.extras["median"] == 2.0
        assert report.extras["histogram"] == {"1": 1, "2": 1, "3": 1}

    def test_exhausted_excluded_from_mean(self):
        report = avg_edit_count([result_with(1), result_with(4, status="exhausted")])
        assert report.value == 1.0
        assert report.extras["flip_rate"] == 0.5

    def test_zero_flipped_degenerate(self):
        report = avg_edit_count([result_with(2, status="exhausted")])
        assert report.value is None
        assert report.extras["flip_rate"] == 0.0

    def test_order_invariance(self):
        results = [result_with(k % 3 + 1, "flipped" if k % 4 else "exhausted") for k in range(12)]
        a = avg_edit_count(results)
        b = avg_edit_count(list(reversed(results)))
        assert (a.value, a.extras["flip_rate"]) == (b.value, b.extras["flip_rate"])


class TestAgreement:
    def test_identical_distractors_agree_fully(self):
        model = identity_feature_model(2, 2, 1, 3, seed=1)
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 2, 1))
        d = rng.normal(size=(2, 2, 1))
        report = agreement_same_class(model, [(q, 2, [d, d.copy()])])
        assert report.value == 1.0

    def test_dominant_cell_head_forces_agreement(self):
        # class-2 logit depends only on query cell 0: every distractor picks cell 0
        model = identity_feature_model(2, 2, 1, 3, seed=2)
        W = model.head[1].weights["weight"]
        W[...] = 0.0
        W[0, 2] = 5.0
        model.head[1].weights["bias"][...] = 0.0
        rng = np.random.default_rng(1)
        q = np.full((2, 2, 1), -1.0)
        distractors = [rng.uniform(1, 2, (2, 2, 1)) for _ in range(4)]
        report = agreement_same_class(model, [(q, 2, distractors)])
        assert report.value == 1.0

    def test_too_few_distractors_skipped(self):
        model = identity_feature_model(2, 2, 1, 3, seed=3)
        rng = np.random.default_rng(2)
        q = rng.normal(size=(2, 2, 1))
        d = rng.normal(size=(2, 2, 1))
        report = agreement_same_class(model, [(q, 1, [d]), (q, 1, [d, d])])
        assert report.extras["skipped"] == 1

    def test_cross_class_needs_two_classes(self):
        model = identity_feature_model(2, 2, 1, 3, seed=4)
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 2, 1))
        d = rng.normal(size=(2, 2, 1))
        with pytest.raises(ShapeError, match="2 classes"):
            agreement_cross_class(model, [(q, [(d, 1), (d, 1)])])

    def test_disjoint_per_class_cells_give_zero(self):
        # class 1 looks only at cell 0, class 2 only at cell 3
        model = identity_feature_model(2, 2, 1, 3, seed=5)
        W = model.head[1].weights["weight"]
        W[...] = 0.0
        W[0, 1] = 5.0
        W[3, 2] = 5.0
        model.head[1].weights["bias"][...] = 0.0
        q = np.full((2, 2, 1), -1.0)
        d = np.full((2, 2, 1), 2.0)
        report = agreement_cross_class(model, [(q, [(d, 1), (d, 2)])])
        assert report.value == 0.0


class TestRelaxationFidelity:
    def test_self_comparison_is_exact(self):
        rng = np.random.default_rng(5)
        model = identity_feature_model(2, 2, 2, 3, seed=6)
        instances = [
            (random_grid(rng, 2, 2, 2), random_grid(rng, 2, 2, 2), 1, (), ()) for _ in range(5)
        ]
        report = relaxation_fidelity(model, instances, use_relaxed=False)
        assert report.extras["match_rate"] == 1.0
        assert report.extras["mean_prob_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_single_candidate_forced_match(self):
        rng = np.random.default_rng(6)
        model = identity_feature_model(2, 2, 2, 3, seed=7)
        instances = [
            (random_grid(rng, 2, 2, 2), random_grid(rng, 2, 2, 2), 1, (0, 1, 2), (0, 1, 3))
            for _ in range(3)
        ]
        report = relaxation_fidelity(model, instances)
        assert report.extras["match_rate"] == 1.0
        assert report.extras["mean_prob_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_matched_edits_score_as_exhaustive_search_does(self, monkeypatch):
        # both strategies score an edit through one row scorer, so a matched
        # edit's probability ratio is exactly 1 (the benchmark's seed-1 pool on `ref`)
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
        wl = importlib.import_module("workloads").WORKLOADS["fidelity"](1, False)
        wl.setup()
        instances = [inst for group in wl.pool for inst in group]
        report = relaxation_fidelity(wl.model, instances, wl.opt)
        solved = solve_relaxed(wl.model, instances, wl.opt)
        matched = 0
        for inst, sample, (i, j2, score, *_) in zip(instances, report.samples, solved):
            if sample["match"]:
                matched += 1
                assert sample["prob_ratio"] == 1.0
                assert best_edit_exhaustive(wl.model, *inst[:3]) == (i, j2, score)
        assert matched >= 100

    @pytest.mark.parametrize(
        "seed, max_steps, pinned",
        [
            (1, None, (4544, 136, 108)),
            (2, None, (4553, 136, 114)),
            (3, None, (4466, 136, 104)),
            # in 10 steps no problem meets the stop test, so every edit is
            # rounded from the logits after the last step
            (1, 10, (1440, 0, 54)),
            (2, 10, (1440, 0, 60)),
            (3, 10, (1440, 0, 54)),
        ],
    )
    def test_relaxed_work_on_the_fidelity_pool(self, monkeypatch, seed, max_steps, pinned):
        # the benchmark's pool for this seed on `ref`, in its 4-instance groups,
        # under its budget (None) or `max_steps`: the solver's steps, its
        # converged solves and its matches are pinned
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
        wl = importlib.import_module("workloads").WORKLOADS["fidelity"](seed, False)
        wl.setup()
        assert [len(group) for group in wl.pool] == [4] * 36
        opt = wl.opt if max_steps is None else RelaxOptConfig(max_steps=max_steps)
        samples = [s for group in wl.pool for s in relaxation_fidelity(wl.model, group, opt).samples]
        work = sum(s["steps"] for s in samples), sum(s["converged"] for s in samples), sum(s["match"] for s in samples)
        assert work == pinned
        # the pool solved in one call, where problems leave the stack at other
        # times than in their groups, gives every group's output
        problems = [search.EditProblem(wl.model, F.values, F2.values, *posed) for group in wl.pool for F, F2, *posed in group]

        def solve(chunk):
            solved = relaxed.best_pair_edits(wl.model, chunk, opt)
            return [(i, j2, lp.tobytes(), steps, conv) for i, j2, lp, steps, conv in solved]

        assert solve(problems) == [edit for k in range(0, len(problems), 4) for edit in solve(problems[k : k + 4])]

    @pytest.mark.parametrize(
        "excluded, error", [(([16], ()), BoundsError), (((), [-1]), BoundsError), ((range(16), ()), ExhaustedError)]
    )
    def test_every_instance_is_checked_before_any_is_solved(self, excluded, error, monkeypatch):
        # 455 problems of a 4x4x20 grid fill a relaxed chunk; the bad one sits in the second chunk
        model = make_model(
            [LayerSpec("conv2d", out_channels=20, kernel_size=1)],
            [LayerSpec("flatten"), LayerSpec("dense", units=3), LayerSpec("log-softmax")],
            (4, 4, 20),
            3,
        )
        assert relaxed._CHUNK_VALUES // (16 * (16 + 20)) == 455
        rng = np.random.default_rng(40)
        instances = [(random_grid(rng, 4, 4, 20), random_grid(rng, 4, 4, 20), 1, (), ()) for _ in range(3)] * 200
        instances[500] = instances[500][:3] + excluded
        solved = []  # the strategies that ran a step
        evaluate, step = relaxed._objective_gradient, search.EditProblem.step

        def relaxed_spy(*args):
            solved.append("relaxed")
            return evaluate(*args)

        def exhaustive_spy(self):
            solved.append("exhaustive")
            return step(self)

        monkeypatch.setattr(relaxed, "_objective_gradient", relaxed_spy)
        monkeypatch.setattr(search.EditProblem, "step", exhaustive_spy)
        opt = RelaxOptConfig(max_steps=2)
        for use_relaxed in (True, False):
            with pytest.raises(error):
                relaxation_fidelity(model, instances, opt, use_relaxed)
        assert solved == []
        relaxation_fidelity(model, instances[:3], opt)
        assert set(solved) == {"relaxed", "exhaustive"}  # the spies see the steps of a solve

    @pytest.mark.parametrize("use_relaxed, limit", [(False, 8), (True, 25)])
    def test_no_problem_outlives_its_step(self, use_relaxed, limit):
        # a stepped problem stores its 7x7 contraction and bound, about 1 MB;
        # kept to the end, they grow the peak by that much per instance
        model = test_search.TestGreedyContraction.frozen_model("wide")
        ds = gen_shapes(120, size=42, seed=1, split="bench")
        preds = predict_batch(model, ds.images)
        instances = [
            (*forward_feature_pair(model, ds.images[q], ds.images[d]), int(preds[d]), (), ())
            for q, d in zip(range(0, 120, 2), range(1, 120, 2))
            if preds[q] != preds[d]
        ]
        assert len(instances) >= 30
        tracemalloc.start()
        try:
            relaxation_fidelity(model, instances, RelaxOptConfig(max_steps=2), use_relaxed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit << 20, (len(instances), peak)

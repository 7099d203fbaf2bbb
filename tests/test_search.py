import importlib
import importlib.util
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfedit import metrics, network, search
from cfedit.data import gen_shapes
from cfedit.errors import BoundsError, ExhaustedError, FormatError, ShapeError
from cfedit.grids import FeatureGrid
from cfedit.metrics import relaxation_fidelity
from cfedit.network import LayerSpec, forward_features, head_logprobs, load_model, predict_batch
from cfedit.relaxed import RelaxOptConfig
from cfedit.search import (
    EditProblem,
    ExplanationResult,
    SearchConfig,
    best_edit_exhaustive,
    greedy_counterfactual,
)

from conftest import (
    brute_force_best_edit,
    brute_force_scores,
    candidate_scores,
    identity_feature_model,
    make_model,
    min_edit_oracle,
    random_grid,
    relaxed_replay,
    single_edit,
    solve_exhaustive,
    solve_relaxed,
)


class TestBestEditExhaustive:
    def test_identical_grids_tie_break(self):
        model = identity_feature_model(2, 2, 2, 3, seed=1)
        F = FeatureGrid(2, 2, 2, np.ones((4, 2)))  # all cells equal: every edit is a no-op
        i, j2, _ = best_edit_exhaustive(model, F, F, 1)
        assert (i, j2) == (0, 0)

    def test_hand_built_linear_head(self):
        # weight +1 on cell 0 channel 0 for class 1; only the (0, 0) edit helps
        model = identity_feature_model(2, 2, 1, 2, seed=0)
        model.head[1].weights["weight"][...] = 0.0
        model.head[1].weights["bias"][...] = 0.0
        model.head[1].weights["weight"][0, 1] = 1.0
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        F2 = FeatureGrid(2, 2, 1, np.array([[9.0], [0.0], [0.0], [0.0]]))
        i, j2, score = best_edit_exhaustive(model, F, F2, 1)
        assert (i, j2) == (0, 0)
        assert score == pytest.approx(head_logprobs(model, single_edit(F, F2, 0, 0))[1], abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for k in range(30):
            model = identity_feature_model(3, 3, 2, 3, seed=200 + k, linear=bool(k % 2))
            F = random_grid(rng, 3, 3, 2)
            F2 = random_grid(rng, 3, 3, 2)
            target = int(rng.integers(3))
            got = best_edit_exhaustive(model, F, F2, target)
            want = brute_force_best_edit(model, F, F2, target)
            assert got[:2] == want[:2]
            assert got[2] == pytest.approx(want[2], abs=1e-9)

    def test_respects_exclusions(self):
        rng = np.random.default_rng(5)
        model = identity_feature_model(2, 2, 2, 3, seed=3)
        F = random_grid(rng, 2, 2, 2)
        F2 = random_grid(rng, 2, 2, 2)
        i0, j0, _ = best_edit_exhaustive(model, F, F2, 1)
        i1, j1, _ = solve_exhaustive(model, F, F2, 1, excluded_query=[i0], excluded_source=[j0])
        assert i1 != i0 and j1 != j0
        want = brute_force_best_edit(model, F, F2, 1, excluded_query=[i0], excluded_source=[j0])
        assert (i1, j1) == want[:2]

    def test_all_excluded_raises(self):
        model = identity_feature_model(2, 2, 1, 2)
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        with pytest.raises(ExhaustedError):
            solve_exhaustive(model, F, F, 1, excluded_query=range(4))


def relaxed_single_problem(model, F, F2, target, excluded_query=(), excluded_source=()):
    """The relaxed solver on one problem, called as solve_exhaustive is."""
    problem = (F, F2, target, excluded_query, excluded_source)
    return solve_relaxed(model, [problem], RelaxOptConfig(max_steps=5))[0]


@pytest.mark.parametrize(
    "solver",
    [solve_exhaustive, relaxed_single_problem],
    ids=["exhaustive", "relaxed"],
)
class TestSolverEdgeCases:
    def test_all_source_cells_excluded_raises(self, solver):
        rng = np.random.default_rng(3)
        model = identity_feature_model(2, 2, 1, 2)
        F, F2 = random_grid(rng, 2, 2, 1), random_grid(rng, 2, 2, 1)
        with pytest.raises(ExhaustedError):
            solver(model, F, F2, 1, excluded_source=range(4))

    @pytest.mark.parametrize("other", [(2, 3, 1), (2, 2, 2)], ids=["grid-size", "depth"])
    def test_mismatched_geometry_raises(self, solver, other):
        rng = np.random.default_rng(5)
        model = identity_feature_model(2, 2, 1, 2)
        F = random_grid(rng, 2, 2, 1)
        G = random_grid(rng, *other)
        with pytest.raises(ShapeError, match="head input"):
            solver(model, F, G, 1)
        with pytest.raises(ShapeError, match="head input"):
            solver(model, G, F, 1)

    @pytest.mark.parametrize("target", [-1, 2, 99, 1.0])
    def test_target_class_out_of_range_raises(self, solver, target):
        rng = np.random.default_rng(6)
        model = identity_feature_model(2, 2, 1, 2)
        F, F2 = random_grid(rng, 2, 2, 1), random_grid(rng, 2, 2, 1)
        with pytest.raises(BoundsError, match="target class"):
            solver(model, F, F2, target)

    @pytest.mark.parametrize(
        "excluded",
        [{"excluded_query": [4]}, {"excluded_query": [-1]}, {"excluded_source": [0, 99]}, {"excluded_source": [-4]}],
    )
    def test_excluded_cell_out_of_range_raises(self, solver, excluded):
        rng = np.random.default_rng(7)
        model = identity_feature_model(2, 2, 1, 2)
        F, F2 = random_grid(rng, 2, 2, 1), random_grid(rng, 2, 2, 1)
        with pytest.raises(BoundsError, match="excluded cells"):
            solver(model, F, F2, 1, **excluded)


class TestEditProblem:
    def test_masks(self):
        rng = np.random.default_rng(8)
        model = identity_feature_model(2, 2, 1, 2)
        F, F2 = random_grid(rng, 2, 2, 1), random_grid(rng, 2, 2, 1)
        problem = EditProblem(model, F.values, F2.values, 1, [0, 2], [3])
        assert problem.open_q.tolist() == [False, True, False, True]
        assert problem.open_s.tolist() == [True, True, True, False]


def unreachable(*args, **kwargs):
    raise AssertionError("a problem was posed")


class TestGridHandOff:
    """Greedy poses its problem on the two (hw, d) arrays of one checked pair
    pass; `EditProblem` checks their shape, and the public solvers check
    their grids' geometry before posing any problem."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", [0, 1], ids=["query", "distractor"])
    def test_non_finite_pixel_raises_before_any_scoring(self, monkeypatch, value, which):
        model = identity_feature_model(2, 2, 1, 2)
        images = [np.zeros((2, 2, 1)), np.ones((2, 2, 1))]
        images[which][1, 0, 0] = value
        monkeypatch.setattr(search, "EditProblem", unreachable)
        with pytest.raises(ShapeError, match="grid values must be finite"):
            network._feature_pair(model, *images)
        for config in (SearchConfig(), SearchConfig(relax=RelaxOptConfig(max_steps=5))):
            with pytest.raises(ShapeError, match="grid values must be finite"):
                greedy_counterfactual(model, *images, 1, config)

    @pytest.mark.parametrize("shapes", [
        ((4, 2), (4, 1)), ((4, 1), (4, 2)), ((6, 1), (6, 1)), ((4, 1), (6, 1)), ((2, 2, 1), (2, 2, 1)), ((4,), (4,)),
    ])
    def test_arrays_of_another_shape_raise(self, shapes):
        model = identity_feature_model(2, 2, 1, 2)
        F, F2 = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ShapeError, match="head input"):
            EditProblem(model, F, F2, 1)

    @pytest.mark.parametrize("other", [(2, 3, 1), (2, 2, 2)], ids=["grid-size", "depth"])
    def test_grids_of_another_geometry_raise(self, monkeypatch, other):
        rng = np.random.default_rng(5)
        model = identity_feature_model(2, 2, 1, 2)
        F, G = random_grid(rng, 2, 2, 1), random_grid(rng, *other)
        for pair in ((F, G), (G, F)):
            with pytest.raises(ShapeError, match="head input"):
                best_edit_exhaustive(model, *pair, 1)
            with monkeypatch.context() as mp:
                # every instance is checked before any is solved
                mp.setattr(search.EditProblem, "step", unreachable)
                mp.setattr(metrics, "best_pair_edits", unreachable)
                with pytest.raises(ShapeError, match="head input"):
                    relaxation_fidelity(model, [(F, F, 1, (), ()), (*pair, 1, (), ())])


class TestSearchConfigJson:
    @pytest.mark.parametrize("config, expected", [
        (SearchConfig(), {"exclusion_policy": "query-and-distractor-cells", "max_edits": None, "strategy": "exhaustive"}),
        (
            SearchConfig("query-cells-only", 3, RelaxOptConfig(learning_rate=0.5, max_steps=7)),
            {
                "exclusion_policy": "query-cells-only",
                "max_edits": 3,
                "relax": {"learning_rate": 0.5, "max_steps": 7},
                "strategy": "relaxed",
            },
        ),
    ], ids=["exhaustive", "relaxed"])
    def test_each_call_returns_an_equal_independent_dict(self, config, expected):
        first = config.to_json()
        assert first == expected
        # mutate everything a caller could reach, the nested relax dict included
        first["exclusion_policy"] = "changed"
        first["extra"] = 1
        del first["strategy"]
        if "relax" in first:
            first["relax"]["max_steps"] = -1
            first["relax"]["extra"] = 1
        second = config.to_json()
        assert second == expected and second is not first
        assert config.to_json() == expected


class TestGreedy:
    def _images_for(self, model, F, F2):
        return F.values.reshape(F.h, F.w, F.d), F2.values.reshape(F2.h, F2.w, F2.d)

    def test_query_already_target_class(self):
        model = identity_feature_model(2, 2, 1, 2, seed=2)
        rng = np.random.default_rng(1)
        img = rng.normal(size=(2, 2, 1))
        target = head_logprobs(model, forward_features(model, img)).argmax()
        result = greedy_counterfactual(model, img, img, target)
        assert result.status == "flipped"
        assert result.edit_count == 0
        assert len(result.trajectory) == 1

    def test_two_edit_synthetic_instance(self):
        # class-1 logit = cell0 + cell3 values; both must be overwritten to flip
        model = identity_feature_model(2, 2, 1, 2, seed=0)
        model.head[1].weights["weight"][...] = 0.0
        model.head[1].weights["bias"][...] = 0.0
        model.head[1].weights["weight"][0, 1] = 1.0
        model.head[1].weights["weight"][3, 1] = 1.0
        query = np.full((2, 2, 1), -1.0)
        distractor = np.full((2, 2, 1), 0.5)  # one edit: 0.5 - 1 < 0; two edits: 1 > 0
        result = greedy_counterfactual(model, query, distractor, 1)
        assert result.status == "flipped"
        assert result.edit_count == 2
        assert sorted((i, j) for (i, j, _, _) in result.edits) == [(0, 0), (1, 1)]
        size, flips = min_edit_oracle(model, forward_features(model, query), forward_features(model, distractor), 1)
        assert size == 2

    def test_trajectory_and_status_invariants(self, shapes_model):
        rng = np.random.default_rng(3)
        imgs = gen_shapes(80, size=28, seed=1, split="search-test").images
        preds = predict_batch(shapes_model, imgs)
        done = 0
        for _ in range(10):
            q, d = rng.integers(80, size=2)
            if preds[q] == preds[d]:
                continue
            result = greedy_counterfactual(shapes_model, imgs[q], imgs[d], int(preds[d]))
            assert len(result.trajectory) == result.edit_count + 1
            cells = result.edits.query_cells()
            assert len(cells) == len(set(cells))
            if result.status == "flipped":
                assert result.trajectory[-1][1] >= result.trajectory[-1][0]
            done += 1
        assert done >= 5

    def test_greedy_step_reproducibility(self):
        # each recorded step must be the argmax over the candidates at its state
        rng = np.random.default_rng(8)
        model = identity_feature_model(3, 3, 2, 3, seed=17, linear=False)
        query = rng.normal(size=(3, 3, 2))
        distractor = rng.normal(size=(3, 3, 2))
        F2 = forward_features(model, distractor)
        lp_q = head_logprobs(model, forward_features(model, query))
        target = int(np.argsort(lp_q)[0])
        result = greedy_counterfactual(model, query, distractor, target)
        state = forward_features(model, query)
        ex_q, ex_s = [], []
        for (i, j, i2, j2) in result.edits:
            cell, src = i * 3 + j, i2 * 3 + j2
            bi, bj, _ = solve_exhaustive(model, state, F2, target, ex_q, ex_s)
            assert (bi, bj) == (cell, src)
            state = single_edit(state, F2, cell, src)
            ex_q.append(cell)
            ex_s.append(src)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        model = identity_feature_model(3, 3, 2, 3, seed=21)
        query = rng.normal(size=(3, 3, 2))
        distractor = rng.normal(size=(3, 3, 2))
        r1 = greedy_counterfactual(model, query, distractor, 2)
        r2 = greedy_counterfactual(model, query, distractor, 2)
        assert r1 == r2

    def test_exclusion_policy_query_only_allows_source_reuse(self):
        model = identity_feature_model(2, 2, 1, 2, seed=0)
        model.head[1].weights["weight"][...] = 0.0
        model.head[1].weights["bias"][...] = 0.0
        model.head[1].weights["weight"][0, 1] = 1.0
        model.head[1].weights["weight"][3, 1] = 1.0
        query = np.full((2, 2, 1), -1.0)
        distractor = np.full((2, 2, 1), -1.0)
        distractor[0, 0, 0] = 0.6  # single good source cell; one edit is not enough
        cfg = SearchConfig(exclusion_policy="query-cells-only")
        result = greedy_counterfactual(model, query, distractor, 1, cfg)
        assert result.status == "flipped"
        sources = result.edits.source_cells()
        assert sources == [0, 0]  # best source reused under the relaxed policy

    def test_max_edits_exhausts(self):
        rng = np.random.default_rng(14)
        model = identity_feature_model(3, 3, 1, 2, seed=33)
        model.head[1].weights["weight"][...] = 0.0  # head ignores input: never flips
        model.head[1].weights["bias"][...] = np.array([1.0, 0.0])
        query = rng.normal(size=(3, 3, 1))
        distractor = rng.normal(size=(3, 3, 1))
        result = greedy_counterfactual(model, query, distractor, 1, SearchConfig(max_edits=3))
        assert result.status == "exhausted"
        assert result.edit_count == 3


class TestGreedyRelaxed:
    def test_first_edit_and_trajectory_replay(self):
        rng = np.random.default_rng(21)
        model = identity_feature_model(3, 3, 2, 3, seed=41, linear=False)
        query = rng.normal(size=(3, 3, 2))
        distractor = rng.normal(size=(3, 3, 2))
        F = forward_features(model, query)
        F2 = forward_features(model, distractor)
        lp_q = head_logprobs(model, F)
        query_class = lp_q.argmax()
        target = int(np.argsort(lp_q)[0])
        opt = RelaxOptConfig(max_steps=60)
        result = greedy_counterfactual(model, query, distractor, target, SearchConfig(relax=opt))
        assert result.edit_count >= 1
        i, j2, *_ = solve_relaxed(model, [(F, F2, target, (), ())], opt)[0]
        assert result.edits.edits[0] == (i // 3, i % 3, j2 // 3, j2 % 3)
        edits, trajectory, status = relaxed_replay(model, query, distractor, target, "query-and-distractor-cells", opt)
        assert (result.edits.edits, result.status) == (edits, status)
        assert result.trajectory[0] == trajectory[0] == (lp_q[query_class], lp_q[target])
        np.testing.assert_allclose(result.trajectory, trajectory, rtol=1e-12, atol=0)


class TestGreedyVsMinimumOracle:
    def test_first_edits_match_unique_minimum(self):
        rng = np.random.default_rng(77)
        checked = 0
        for k in range(60):
            model = identity_feature_model(2, 2, 1, 2, seed=300 + k, linear=bool(k % 2))
            query = rng.normal(size=(2, 2, 1))
            distractor = rng.normal(size=(2, 2, 1)) * 2
            F = forward_features(model, query)
            F2 = forward_features(model, distractor)
            pred = head_logprobs(model, F).argmax()
            target = 1 - pred
            result = greedy_counterfactual(model, query, distractor, target)
            if result.status != "flipped" or not (1 <= result.edit_count <= 2):
                continue
            size, flips = min_edit_oracle(model, F, F2, target)
            minimal = [f for f in flips]
            if size != result.edit_count or len(minimal) != 1:
                continue
            greedy_set = frozenset(
                (i * 2 + j, i2 * 2 + j2) for (i, j, i2, j2) in result.edits
            )
            assert greedy_set == minimal[0]
            checked += 1
        assert checked >= 3


class TestCandidateScoresEquivalence:
    """Factored scoring against a per-grid brute force, on heads of the one
    form: each is followed by dense(classes) -> log-softmax."""

    HEADS = {
        "factored": [LayerSpec("flatten"), LayerSpec("dense", units=8), LayerSpec("relu")],
        "linear": [LayerSpec("flatten"), LayerSpec("dense", units=8)],
        "deep": [
            LayerSpec("flatten"),
            LayerSpec("dense", units=8),
            LayerSpec("relu"),
            LayerSpec("dense", units=6),
            LayerSpec("relu"),
        ],
    }

    @staticmethod
    def grids(rng, h, w, d):
        """Random pairs plus pairs with duplicated, all-zero and shared rows,
        so that exact ties occur among the candidates."""
        n = h * w
        F, F2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        dupF, dupF2 = F.copy(), F2.copy()
        dupF[1::2] = dupF[0]
        dupF[2] = 0.0
        dupF2[::3] = 0.0
        dupF2[1] = dupF[0]  # no-op edits (i, 1) for every i holding dupF[0]
        dupF2[4:] = dupF2[3]
        same = np.tile(rng.normal(size=d), (n, 1))  # every edit is a no-op
        zero = np.zeros((n, d))
        pairs = [(F, F2), (dupF, dupF2), (same, same), (zero, dupF2), (dupF, zero)]
        return [(FeatureGrid(h, w, d, a), FeatureGrid(h, w, d, b)) for a, b in pairs]

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("block_values", [None, 1, 300])
    def test_matches_per_grid_brute_force(self, head, block_values, monkeypatch):
        if block_values is not None:  # several blocks of query cells, uneven last block
            monkeypatch.setattr(search, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(90)
        h, w, d, classes = 2, 3, 2, 3
        n = h * w
        exclusions = [((), ()), ((0, 2), (1,)), ((1, 3, 5), (0, 3))]
        ties = 0
        for k in range(4):
            model = make_model(
                [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
                self.HEADS[head] + [LayerSpec("dense", units=classes), LayerSpec("log-softmax")],
                (h, w, d),
                classes,
                seed=500 + k,
            )
            for F, F2 in self.grids(rng, h, w, d):
                target = int(rng.integers(classes))
                want = brute_force_scores(model, F, F2, target)
                np.testing.assert_allclose(
                    candidate_scores(model, F, F2, target, range(n)), want, rtol=0, atol=1e-12
                )
                for ex_q, ex_s in exclusions:
                    i, j2, score = solve_exhaustive(model, F, F2, target, ex_q, ex_s)
                    bi, bj, bscore = brute_force_best_edit(model, F, F2, target, ex_q, ex_s)
                    assert (i, j2) == (bi, bj)
                    assert score == pytest.approx(bscore, abs=1e-12)
                    allowed = want[np.setdiff1d(range(n), ex_q)][:, np.setdiff1d(range(n), ex_s)]
                    ties += int(np.sum(allowed == allowed.max()) > 1)
        assert ties > 0

    @pytest.mark.parametrize("head", sorted(HEADS))
    def test_no_op_edits_score_bit_identically(self, head):
        # every source row also sits in some query cell; copying it there is a no-op
        rng = np.random.default_rng(91)
        h, w, d = 3, 3, 20
        n = h * w
        model = make_model(
            [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
            self.HEADS[head] + [LayerSpec("dense", units=3), LayerSpec("log-softmax")],
            (h, w, d),
            3,
            seed=7,
        )
        values = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        F, F2 = FeatureGrid(h, w, d, values), FeatureGrid(h, w, d, values[perm])
        scores = candidate_scores(model, F, F2, 0, range(n))
        assert np.unique(scores[perm, np.arange(n)]).size == 1

    @pytest.mark.parametrize("head", sorted(HEADS))
    @pytest.mark.parametrize("block_values", [None, 1, 300])
    @pytest.mark.parametrize("h, w", [(3, 3), (7, 7)])
    def test_row_subsets_match_all_rows_bit_for_bit(self, head, block_values, h, w, monkeypatch):
        if block_values is not None:
            monkeypatch.setattr(search, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(92)
        d, classes = 4, 5
        n = h * w
        model = make_model(
            [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
            self.HEADS[head] + [LayerSpec("dense", units=classes), LayerSpec("log-softmax")],
            (h, w, d),
            classes,
            seed=11,
        )
        subsets = [[], [0], [n // 2], [n - 1], [0, n - 1], list(range(1, n))]
        subsets += [sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False)) for _ in range(6)]
        for F, F2 in self.grids(rng, h, w, d):
            target = int(rng.integers(classes))
            full = candidate_scores(model, F, F2, target, range(n))
            assert np.all(np.isfinite(full))
            for rows in subsets:
                part = candidate_scores(model, F, F2, target, rows)
                closed = np.setdiff1d(range(n), rows)
                assert np.array_equal(part[rows], full[rows]), rows
                assert np.all(part[closed] == -np.inf), rows


class TestGreedyContraction:
    """Greedy's carried state (first-dense pre-activation, once-per-pair edit
    contraction, committed row's scored logits) against a per-step replay
    that computes every step from scratch on an edited grid."""

    @staticmethod
    def replay(model, query, distractor, target, policy):
        """Exhaustive greedy computed per grid: `best_edit_exhaustive` on the
        edited grid, then the head run on the next one."""
        F, F2 = forward_features(model, query), forward_features(model, distractor)
        lp = head_logprobs(model, F)
        query_class = lp.argmax()
        trajectory = [(lp[query_class], lp[target])]
        quads, ex_q, ex_s = [], [], []
        state, status = F, "flipped" if query_class == target else "exhausted"
        while status == "exhausted" and len(quads) < F.cells:
            i, j2, _ = solve_exhaustive(model, state, F2, target, ex_q, ex_s)
            state = single_edit(state, F2, i, j2)
            quads.append((i // F.w, i % F.w, j2 // F.w, j2 % F.w))
            ex_q.append(i)
            if policy == "query-and-distractor-cells":
                ex_s.append(j2)
            lp = head_logprobs(model, state)
            trajectory.append((lp[query_class], lp[target]))
            if lp.argmax() == target:
                status = "flipped"
        return tuple(quads), tuple(trajectory), status

    @pytest.mark.parametrize("head", sorted(TestCandidateScoresEquivalence.HEADS))
    @pytest.mark.parametrize("block_values", [None, 1, 300])
    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    def test_matches_per_step_replay_and_its_own_scores(self, head, block_values, policy, monkeypatch):
        self.check_replay(head, block_values, policy, monkeypatch)

    @pytest.mark.parametrize("head", sorted(TestCandidateScoresEquivalence.HEADS))
    @pytest.mark.parametrize("block_values", [None, 1, 300])
    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    def test_bounded_greedy_matches_per_step_replay_and_its_own_scores(self, head, block_values, policy, monkeypatch):
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 1)  # the bound and the cut, below their crossover
        self.check_replay(head, block_values, policy, monkeypatch)

    def check_replay(self, head, block_values, policy, monkeypatch):
        if block_values is not None:  # 1 and 300 leave no room for the contraction
            monkeypatch.setattr(search, "_BLOCK_VALUES", block_values)
        seen = []  # (problem, contraction stored, chosen edit's score) per step
        step = search.EditProblem.step

        def spy(self):
            got = step(self)
            seen.append((id(self), self.contraction is not None, got[2][self.target]))
            return got

        monkeypatch.setattr(search.EditProblem, "step", spy)
        rng = np.random.default_rng(93)
        h, w, d, classes = 3, 3, 2, 4
        steps = 0
        for k in range(3):
            model = make_model(
                [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
                TestCandidateScoresEquivalence.HEADS[head]
                + [LayerSpec("dense", units=classes), LayerSpec("log-softmax")],
                (h, w, d),
                classes,
                seed=600 + k,
            )
            for F, F2 in TestCandidateScoresEquivalence.grids(rng, h, w, d):
                query, distractor = F.values.reshape(h, w, d), F2.values.reshape(h, w, d)
                lp = head_logprobs(model, forward_features(model, query))
                for target in np.argsort(lp)[:2]:  # the least likely classes take the most steps
                    target = int(target)
                    del seen[:]
                    got = greedy_counterfactual(model, query, distractor, target, SearchConfig(policy))
                    steps_seen = seen[:]  # the replay's best_edit_exhaustive steps come after
                    edits, trajectory, status = self.replay(model, query, distractor, target, policy)
                    assert (got.edits.edits, got.status) == (edits, status)
                    np.testing.assert_allclose(got.trajectory, trajectory, rtol=1e-12, atol=0)
                    assert got.trajectory[0] == trajectory[0]  # the unedited grid's one-grid pass
                    # every step solves the pair's one problem
                    assert len(steps_seen) == got.edit_count and len({s[0] for s in steps_seen}) <= 1
                    assert [s[1] for s in steps_seen] == [block_values is None] * got.edit_count
                    # each entry is the committed candidate's scored row
                    assert [b for _, b in got.trajectory[1:]] == [s[2] for s in steps_seen]
                    steps += got.edit_count
        assert steps >= 30

    @staticmethod
    def frozen_model(name):
        """A frozen benchmark model, after checking its digest."""
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
        spec = importlib.util.spec_from_file_location("perfbench_common", os.path.join(bench, "common.py"))
        common = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(common)
        path = common.model_path(name)
        assert common.model_digest(path) == common.expected_digests()[name]
        return load_model(path)

    @pytest.mark.parametrize("name, size", [("ref", 28), ("wide", 42)])
    def test_frozen_models_match_per_step_replay(self, name, size):
        model = self.frozen_model(name)
        ds = gen_shapes(160, size=size, seed=5, split="bench")
        preds = predict_batch(model, ds.images)
        rng = np.random.default_rng(95)
        classes = np.unique(preds)
        assert len(classes) >= 3
        edits = 0
        for a, b in itertools.permutations(classes, 2):  # every ordered class pair, three times
            for _ in range(3):
                q = int(rng.choice(np.flatnonzero(preds == a)))
                d = int(rng.choice(np.flatnonzero(preds == b)))
                got = greedy_counterfactual(model, ds.images[q], ds.images[d], int(b))
                want = self.replay(model, ds.images[q], ds.images[d], int(b), "query-and-distractor-cells")
                assert (got.query_class, got.target_class) == (a, b)
                assert (got.edits.edits, got.status) == (want[0], want[2])
                np.testing.assert_allclose(got.trajectory, want[1], rtol=1e-12, atol=0)
                edits += got.edit_count
        assert edits >= 3 * len(classes) * (len(classes) - 1)

    def test_contraction_fits_one_block(self, monkeypatch):
        rng = np.random.default_rng(94)
        h, w, d, units = 3, 3, 2, 8
        model = make_model(
            [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
            TestCandidateScoresEquivalence.HEADS["factored"] + [LayerSpec("dense", units=3), LayerSpec("log-softmax")],
            (h, w, d),
            3,
        )
        F, F2 = random_grid(rng, h, w, d), random_grid(rng, h, w, d)
        n = h * w
        monkeypatch.setattr(search, "_BLOCK_VALUES", n * n * (d + units))
        problem = EditProblem(model, F.values, F2.values, 0)
        assert problem.contraction is None  # until the first step
        stepped = problem.step()
        C = problem.contraction
        assert C.shape == (n, n, units) and C.size <= search._BLOCK_VALUES
        W = model.head[1].weights["weight"].reshape(n, d, units)
        naive = np.array([[(F2.values[j] - F.values[i]) @ W[i] for j in range(n)] for i in range(n)])
        np.testing.assert_allclose(C, naive, rtol=0, atol=1e-12)
        unstored = EditProblem(model, F.values, F2.values, 0)  # a problem the relaxed solver alone reads
        for q in ([0], [n - 1], [1, 4, 5], list(range(n))):  # the blocks the per-step path computes
            assert C[q].tobytes() == unstored.contraction_rows(np.array(q)).tobytes()
        monkeypatch.setattr(search, "_BLOCK_VALUES", n * n * (d + units) - 1)
        problem = EditProblem(model, F.values, F2.values, 0)
        again = problem.step()
        assert problem.contraction is None
        assert again[:2] == stepped[:2] and again[2].tobytes() == stepped[2].tobytes()


class TestGreedyRelaxedCarry:
    """Greedy's relaxed strategy, which solves every step on the unedited grid
    and its problem's z0, against the per-grid reference that solves each step
    on the edited grid (`conftest.relaxed_replay`)."""

    @pytest.mark.parametrize("head", sorted(TestCandidateScoresEquivalence.HEADS))
    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    def test_matches_per_step_replay_and_its_own_scores(self, head, policy, monkeypatch):
        scored = []  # the problem's scored row of each committed edit
        solve = search.best_pair_edits

        def spy(model, problems, opt):
            got = solve(model, problems, opt)
            scored.extend(lp for _, _, lp, _, _ in got)
            return got

        monkeypatch.setattr(search, "best_pair_edits", spy)
        rng = np.random.default_rng(96)
        h, w, d, classes = 3, 3, 2, 4
        opt = RelaxOptConfig(max_steps=30)
        steps = 0
        for k in range(2):
            model = make_model(
                [LayerSpec("conv2d", out_channels=d, kernel_size=1)],
                TestCandidateScoresEquivalence.HEADS[head]
                + [LayerSpec("dense", units=classes), LayerSpec("log-softmax")],
                (h, w, d),
                classes,
                seed=700 + k,
            )
            for F, F2 in TestCandidateScoresEquivalence.grids(rng, h, w, d)[:2]:
                query, distractor = F.values.reshape(h, w, d), F2.values.reshape(h, w, d)
                lp = head_logprobs(model, forward_features(model, query))
                query_class = lp.argmax()
                for target in np.argsort(lp)[:2]:
                    target = int(target)
                    del scored[:]
                    got = greedy_counterfactual(model, query, distractor, target, SearchConfig(policy, relax=opt))
                    rows = scored[:]
                    edits, trajectory, status = relaxed_replay(model, query, distractor, target, policy, opt)
                    assert (got.edits.edits, got.status) == (edits, status)
                    np.testing.assert_allclose(got.trajectory, trajectory, rtol=1e-12, atol=0)
                    assert got.trajectory[0] == trajectory[0]
                    assert got.trajectory[1:] == tuple((lp[query_class], lp[target]) for lp in rows)
                    steps += got.edit_count
        assert steps >= 20


@pytest.mark.parametrize("target", [-1, 99])
def test_frozen_model_refuses_a_target_class_out_of_range(target):
    model = TestGreedyContraction.frozen_model("ref")
    ds = gen_shapes(4, size=28, seed=8, split="bench")
    query, distractor = ds.images[0], ds.images[1]
    for config in (SearchConfig(), SearchConfig(relax=RelaxOptConfig(max_steps=5))):
        with pytest.raises(BoundsError, match="target class"):
            greedy_counterfactual(model, query, distractor, target, config)
    F, F2 = forward_features(model, query), forward_features(model, distractor)
    for use_relaxed in (True, False):
        with pytest.raises(BoundsError, match="target class"):
            relaxation_fidelity(model, [(F, F2, target, [], [])], use_relaxed=use_relaxed)


@pytest.mark.parametrize("name, size, count", [("ref", 28, 400), ("wide", 42, 300)])
def test_unedited_logprobs_equal_the_one_grid_pass(name, size, count):
    """A problem's log-probabilities, computed from its z0, are the bits of
    `head_logprobs` on the query grid, on consecutive image pairs of the
    seed 1-3 bench pools."""
    model = TestGreedyContraction.frozen_model(name)
    for seed in (1, 2, 3):
        images = gen_shapes(count, size=size, seed=seed, split="bench").images
        for k in range(0, count, 2):
            F, F2 = forward_features(model, images[k]), forward_features(model, images[k + 1])
            assert EditProblem(model, F.values, F2.values, 0).logprobs.tobytes() == head_logprobs(model, F).tobytes()


# the overflows that make these heads non-finite warn
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteHead:
    """A head whose scores are not finite raises FormatError through every
    search entry point, before any edit is recorded."""

    @pytest.mark.parametrize("name, size", [("ref", 28), ("wide", 42)])
    @pytest.mark.parametrize("layer, param, index, value", [(1, "weight", (0, 0), np.nan), (3, "bias", 0, np.inf)])
    def test_frozen_models(self, name, size, layer, param, index, value):
        model = TestGreedyContraction.frozen_model(name)
        model.head[layer].weights[param][index] = value
        ds = gen_shapes(4, size=size, seed=8, split="bench")
        query, distractor = ds.images[0], ds.images[1]
        for config in (SearchConfig(), SearchConfig(relax=RelaxOptConfig(max_steps=5))):
            with pytest.raises(FormatError, match="non-finite"):
                greedy_counterfactual(model, query, distractor, 1, config)
        F, F2 = forward_features(model, query), forward_features(model, distractor)
        with pytest.raises(FormatError, match="non-finite"):
            best_edit_exhaustive(model, F, F2, 1)
        for use_relaxed in (True, False):
            with pytest.raises(FormatError, match="non-finite"):
                relaxation_fidelity(model, [(F, F2, 1, [], [])], RelaxOptConfig(max_steps=5), use_relaxed)

    def test_edits_that_overflow(self):
        # the unedited grid scores finitely, but every edit's logits overflow to inf
        model = identity_feature_model(2, 2, 1, 3, seed=1)
        model.head[1].weights["weight"][:] = 1e200
        F = FeatureGrid(2, 2, 1, np.zeros((4, 1)))
        F2 = FeatureGrid(2, 2, 1, np.full((4, 1), 1e200))
        problem = EditProblem(model, F.values, F2.values, 1)
        assert np.isfinite(problem.logprobs).all()
        with pytest.raises(FormatError, match="non-finite"):
            problem.step()
        with pytest.raises(FormatError, match="non-finite"):
            problem.edit_logprobs(0, 0)
        query, distractor = F.values.reshape(2, 2, 1), F2.values.reshape(2, 2, 1)
        for config in (SearchConfig(), SearchConfig(relax=RelaxOptConfig(max_steps=5))):
            with pytest.raises(FormatError, match="non-finite"):
                greedy_counterfactual(model, query, distractor, 1, config)


def bound_grids(rng, h, w, d, kind):
    """A grid pair whose scores stress the bound: random, with every F2 row
    the same (each cell's interval is a point, so the bound is as tight as
    rounding lets it be), with duplicated and all-zero rows, or with F2 rows
    copied from F (no-op edits)."""
    n = h * w
    F, F2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if kind == "point":
        F2[:] = F2[0]
    elif kind == "dup-zero":
        F[1::2] = F[0]
        F[2] = 0.0
        F2[::3] = 0.0
        F2[4:] = F2[3]
    elif kind == "no-op":
        F2[: n // 2] = F[rng.permutation(n)[: n // 2]]
    return FeatureGrid(h, w, d, F), FeatureGrid(h, w, d, F2)


def bound_model(seed, h, w, d, tail, first_units, scale):
    """flatten -> dense(first_units) -> tail -> log-softmax, with weights
    scaled by `scale`; the class count is the last dense layer's units."""
    specs = [LayerSpec("flatten"), LayerSpec("dense", units=first_units)]
    classes = first_units
    for layer in tail:
        if layer == "relu":
            specs.append(LayerSpec("relu"))
        else:
            specs.append(LayerSpec("dense", units=layer))
            classes = layer
    model = make_model(
        [LayerSpec("conv2d", out_channels=d, kernel_size=1)], specs + [LayerSpec("log-softmax")], (h, w, d), classes, seed
    )
    for layer in model.head:
        for v in layer.weights.values():
            v *= scale
    return model, classes


class TestRowBound:
    """The interval bound on each query cell's best score, and the cut that
    scores only the cells whose bound reaches the leader."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 10**6),
        tail=st.lists(st.one_of(st.just("relu"), st.integers(2, 6)), max_size=4),
        first_units=st.integers(2, 7),
        scale=st.sampled_from([0.3, 1.0, 4.0, 30.0]),
        kind=st.sampled_from(["random", "point", "dup-zero", "no-op"]),
        drift=st.sampled_from([0.0, 1e-13, 0.5]),
        stored=st.booleans(),
    )
    def test_bound_is_above_every_score_of_its_cell(self, seed, tail, first_units, scale, kind, drift, stored):
        rng = np.random.default_rng(seed)
        h, w, d = 2, 3, 3
        n = h * w
        model, classes = bound_model(seed, h, w, d, tail, first_units, scale)
        F, F2 = bound_grids(rng, h, w, d, kind)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_BOUND_CANDIDATES", 1)
            if not stored:
                mp.setattr(search, "_BLOCK_VALUES", 1)  # no room for the contraction
            z0 = EditProblem(model, F.values, F2.values, 0).z0
            z0 = z0 + drift * rng.normal(size=z0.shape)  # as committed edits leave it
            i, j = np.divmod(np.arange(n * n), n)
            for target in range(classes):
                problem = EditProblem(model, F.values, F2.values, target)
                problem._prepare()
                assert problem.bound is not None and (problem.contraction is not None) == stored
                problem.z0 = z0
                scores = np.concatenate([b for _, b, _, _ in problem.blocks(np.arange(n))])
                assert np.all(np.isfinite(scores))
                bounds = problem.bound.sums(problem.z0)
                if bounds is None:  # logits this large keep every cell
                    assert list(problem.rows_to_score(np.arange(n))) == list(range(n))
                    continue
                sums, margin = bounds
                assert np.all(np.log(sums) <= -scores.max(axis=1) + margin), (np.log(sums), scores.max(axis=1))
                # the leader's single-edit logits stay within the margin of the
                # scorer's (a sum that overflows keeps every cell)
                z = problem._pair_logits(i, j)
                with np.errstate(over="ignore"):
                    pair_sums = np.exp(z - z[:, target : target + 1]).sum(axis=1)
                finite = np.isfinite(pair_sums)
                assert np.all(np.abs(np.log(pair_sums[finite]) + scores[i, j][finite]) <= margin)

    @staticmethod
    def tied_model():
        """A head whose first dense layer applies one weight block to every
        cell, so that query cells holding the same values score the same."""
        model = identity_feature_model(3, 3, 2, 3, seed=4, linear=False)
        W = model.head[1].weights["weight"].reshape(9, 2, -1)
        W[:] = W[0]
        return model

    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    @pytest.mark.parametrize("block_rows", [None, 1, 2])
    def test_exact_ties_across_cells_go_to_the_smallest_cell(self, policy, block_rows, monkeypatch):
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 1)
        model = self.tied_model()
        if block_rows is not None:  # the tied cells span blocks, and the contraction is not stored
            monkeypatch.setattr(search, "_BLOCK_VALUES", block_rows * 9 * (2 + model.mlp[0][0].shape[1]))
        rng = np.random.default_rng(6)
        f, g = rng.normal(size=2), rng.normal(size=2)
        F2 = FeatureGrid(3, 3, 2, rng.normal(size=(9, 2)))
        kinds = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0], dtype=bool)
        F = FeatureGrid(3, 3, 2, np.where(kinds[:, None], f, g))
        for target in range(3):
            # the cells of whichever kind scores better tie with each other
            full = candidate_scores(model, F, F2, target, range(9))
            best_cells = [i for i in range(9) if full[i].max() == full.max()]
            assert best_cells in ([1, 3, 4, 6], [0, 2, 5, 7, 8])
            ex_q, ex_s = [], []
            for _ in range(3):
                allowed = full.copy()
                allowed[ex_q] = -np.inf
                allowed[:, ex_s] = -np.inf
                tied = [i for i in range(9) if allowed[i].max() == allowed.max()]
                assert len(tied) >= 2
                problem = EditProblem(model, F.values, F2.values, target, ex_q, ex_s)
                problem._prepare()
                assert min(problem.block_rows, 9) == (block_rows or 9) and (problem.contraction is None) == bool(block_rows)
                # the leader comes from the last of the tied cells, not the first
                problem.row_sources[tied[-1]] = np.argmax(allowed[tied[-1]])
                i, j2, lp = problem.step()
                assert (i, j2, lp[target]) == (tied[0], np.argmax(allowed[tied[0]]), allowed.max())
                # a fresh problem, whose first leader is the edit of the cell with the largest bound
                got = solve_exhaustive(model, F, F2, target, ex_q, ex_s)
                assert got == (tied[0], np.argmax(allowed[tied[0]]), allowed.max())
                ex_q.append(got[0])
                if policy == "query-and-distractor-cells":
                    ex_s.append(got[1])

    def test_leader_beaten_by_1e12_from_a_lower_bound_cell(self, monkeypatch):
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 1)
        model = self.tied_model()
        rng = np.random.default_rng(7)
        values = rng.normal(size=(9, 2))
        F2 = FeatureGrid(3, 3, 2, rng.normal(size=(9, 2)))
        target, a, b = 0, 2, 6
        values[b] = values[a]
        # nudge cell b until its best edit beats cell a's by about 1e-12
        for eps in 10.0 ** -np.arange(4, 17, 0.25):
            for sign in (1.0, -1.0):
                nudged = values.copy()
                nudged[b, 0] += sign * eps
                F = FeatureGrid(3, 3, 2, nudged)
                full = candidate_scores(model, F, F2, target, range(9))
                gap = full[b].max() - full[a].max()
                if 0 < gap <= 2e-12 and full[b].max() == full.max():
                    break
            else:
                continue
            break
        assert 0 < gap <= 2e-12 and full[b].max() == full.max()
        problem = EditProblem(model, F.values, F2.values, target)
        problem._prepare()
        _, margin = problem.bound.sums(problem.z0)
        # cell a has the largest bound, so its best edit is the leader; cell
        # b's bound is exactly its best score, below a's
        sums = np.full(9, np.inf)
        sums[a] = np.exp(-full[a].max()) / 2
        sums[b] = np.exp(-full[b].max())
        monkeypatch.setattr(problem.bound, "sums", lambda z0: (sums, margin))
        kept = problem.rows_to_score(np.arange(9))
        assert list(kept) == [a, b]
        i, j2, lp = problem.step()
        assert (i, j2) == (b, int(np.argmax(full[b]))) and lp[target] == full.max()

    @pytest.mark.parametrize("name, size", [("ref", 28), ("wide", 42)])
    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    def test_bounded_greedy_matches_every_cell_greedy_bit_for_bit(self, name, size, policy, monkeypatch):
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 1)  # the 4x4 grid too
        model = TestGreedyContraction.frozen_model(name)
        ds = gen_shapes(120, size=size, seed=8, split="bench")
        preds = predict_batch(model, ds.images)
        rng = np.random.default_rng(96)
        classes = np.unique(preds)
        pairs = [
            (int(rng.choice(np.flatnonzero(preds == a))), int(rng.choice(np.flatnonzero(preds == b))), int(b))
            for a, b in itertools.permutations(classes, 2)
        ]
        rows = {"scored": 0, "open": 0}
        blocks = search.EditProblem.blocks

        def counting(self, scored):
            rows["scored"] += len(scored)
            return blocks(self, scored)

        def run():
            config = SearchConfig(policy)
            return [greedy_counterfactual(model, ds.images[q], ds.images[d], t, config) for q, d, t in pairs]

        monkeypatch.setattr(search.EditProblem, "blocks", counting)
        bounded = run()
        pruned, rows["scored"] = rows["scored"], 0
        monkeypatch.setattr(search.EditProblem, "rows_to_score", lambda self, open_rows: open_rows)
        every = run()
        assert bounded == every
        assert pruned < rows["scored"]

    @pytest.mark.parametrize("policy", ["query-and-distractor-cells", "query-cells-only"])
    @pytest.mark.parametrize("stored", [True, False])
    def test_bounding_stops_after_a_step_that_cuts_nothing(self, policy, stored, monkeypatch):
        h, w, d = 4, 4, 3
        n = h * w
        if not stored:
            monkeypatch.setattr(search, "_BLOCK_VALUES", 300)  # no room for the contraction
        seen = []  # [bounded, contraction stored] per greedy step
        step, rows_to_score = search.EditProblem.step, search.EditProblem.rows_to_score

        def stepping(self):
            seen.append([False, None])
            got = step(self)
            seen[-1][1] = self.contraction is not None
            return got

        def bounding(self, rows):
            seen[-1][0] = True
            return rows_to_score(self, rows)

        monkeypatch.setattr(search.EditProblem, "step", stepping)
        monkeypatch.setattr(search.EditProblem, "rows_to_score", bounding)
        config, steps = SearchConfig(policy), 0
        for seed in range(6):
            # random weights, dense(50) -> relu -> dense(10): the bound keeps every cell
            head = [LayerSpec("flatten"), LayerSpec("dense", units=50), LayerSpec("relu"), LayerSpec("dense", units=10)]
            conv = LayerSpec("conv2d", out_channels=d, kernel_size=1)
            model = make_model([conv], head + [LayerSpec("log-softmax")], (h, w, d), 10, seed)
            query, distractor = np.random.default_rng(seed).normal(size=(2, h, w, d))
            target = int(np.argmin(head_logprobs(model, forward_features(model, query))))
            runs = []
            for candidates in (1, n * n + 1):  # bounded, then every open cell scored
                monkeypatch.setattr(search, "_BOUND_CANDIDATES", candidates)
                del seen[:]
                runs.append((greedy_counterfactual(model, query, distractor, target, config), seen[:]))
            (bounded, bounded_seen), (every, every_seen) = runs
            assert bounded == every
            assert [b for b, _ in bounded_seen] == [True] + [False] * (bounded.edit_count - 1)
            assert not any(b for b, _ in every_seen)
            assert {c for _, c in bounded_seen + every_seen} == {stored}
            steps += bounded.edit_count
        assert steps >= 20

    def test_rows_scored_per_open_row_on_the_wide_pool(self, monkeypatch):
        bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
        monkeypatch.syspath_prepend(bench)
        workloads = importlib.import_module("workloads")
        wl = workloads.WORKLOADS["explain-wide"](1, False)
        wl.setup()
        rows = {"scored": 0, "open": 0}
        blocks, step = search.EditProblem.blocks, search.EditProblem.step

        def counting(self, scored):
            rows["scored"] += len(scored)
            return blocks(self, scored)

        def opening(self):
            rows["open"] += int(self.open_q.sum())
            return step(self)

        monkeypatch.setattr(search.EditProblem, "blocks", counting)
        monkeypatch.setattr(search.EditProblem, "step", opening)
        for q, d in wl.pool[:20]:
            target = int(predict_batch(wl.model, wl.ds.images[d][None])[0])
            greedy_counterfactual(wl.model, wl.ds.images[q], wl.ds.images[d], target, wl.config)
        assert rows["open"] > 0 and rows["scored"] / rows["open"] <= 0.5, rows

    def test_source_major_contraction_has_the_same_bits(self, monkeypatch):
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 1)
        rng = np.random.default_rng(97)
        model = identity_feature_model(3, 3, 2, 3, seed=8, linear=False)
        F, F2 = random_grid(rng, 3, 3, 2), random_grid(rng, 3, 3, 2)
        bounded = EditProblem(model, F.values, F2.values, 0)
        bounded._prepare()
        monkeypatch.setattr(search, "_BOUND_CANDIDATES", 82)  # above 3x3's 81 candidates
        plain = EditProblem(model, F.values, F2.values, 0)
        plain._prepare()
        assert plain.bound is None
        assert bounded.contraction.shape == plain.contraction.shape == (9, 9, 8)
        assert not bounded.contraction.flags.c_contiguous and plain.contraction.flags.c_contiguous
        assert bounded.contraction.tobytes() == plain.contraction.tobytes()
        for q in ([0], [8], [1, 4, 5], list(range(9))):
            assert bounded.contraction_rows(q).tobytes() == plain.contraction_rows(q).tobytes()

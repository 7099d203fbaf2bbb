import numpy as np
import pytest

from cfedit.data import AnnotationSet, Keypoint, write_raster
from cfedit.errors import FormatError, ShapeError
from cfedit.grids import EditList, FeatureGrid
from cfedit.metrics import (
    agreement_cross_class,
    agreement_same_class,
    avg_edit_count,
    pick_distractor_class_nearest,
    pick_distractor_class_random,
    pick_distractor_image_nearest_keypoints,
    pick_distractor_image_random,
    region_annotation_hit_rate,
    relaxation_fidelity,
)
from cfedit.render import ReceptiveFieldMap
from cfedit.search import ExplanationResult

from conftest import identity_feature_model, random_grid


def result_with(n_edits, status="flipped", qid="q", did="d"):
    quads = tuple((k // 2, k % 2, k // 2, k % 2) for k in range(n_edits))
    traj = tuple((0.0, 0.0) for _ in range(n_edits + 1))
    return ExplanationResult(EditList(quads, 2, 2), traj, status, 0, 1, qid, did)


class TestAvgEditCount:
    def test_all_single_edits(self):
        report = avg_edit_count([result_with(1) for _ in range(5)])
        assert report.value == 1.0
        assert report.extras["flip_rate"] == 1.0

    def test_arithmetic(self):
        report = avg_edit_count([result_with(1), result_with(2), result_with(3)])
        assert report.value == 2.0
        assert report.extras["median"] == 2.0
        assert report.extras["histogram"] == {1: 1, 2: 1, 3: 1}

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


class TestAnnotationHitRate:
    def rf(self):
        return ReceptiveFieldMap(2, 2, 4, 4, 0, 8, 8)

    def annotations(self, mask_value):
        anns = AnnotationSet()
        mask = np.full((8, 8), mask_value, dtype=bool)
        anns.add("q", mask, [Keypoint("center", 1.5, 1.5, True)])
        anns.add("d", mask, [Keypoint("center", 1.5, 1.5, True)])
        return anns

    def test_full_mask_rate_one(self):
        report = region_annotation_hit_rate(
            [result_with(2)], self.annotations(True), self.rf(), self.rf()
        )
        assert report.extras["seg_query"] == 1.0
        assert report.extras["seg_distractor"] == 1.0

    def test_empty_mask_rate_zero(self):
        report = region_annotation_hit_rate(
            [result_with(2)], self.annotations(False), self.rf(), self.rf()
        )
        assert report.extras["seg_query"] == 0.0

    def test_keypoints_at_cell_centers(self):
        anns = AnnotationSet()
        mask = np.ones((8, 8), dtype=bool)
        # keypoints exactly at the rect centers of cells (0,0) and (0,1)
        kps = [Keypoint("a", 1.5, 1.5, True), Keypoint("b", 5.5, 1.5, True)]
        anns.add("q", mask, kps)
        anns.add("d", mask, kps)
        report = region_annotation_hit_rate(
            [result_with(2)], anns, self.rf(), self.rf(), radius=0.0
        )
        assert report.extras["kp_query"] == 1.0
        assert report.extras["kp_distractor"] == 1.0
        assert report.extras["same_keypoint"] == 1.0

    def test_missing_annotation_skipped(self):
        anns = self.annotations(True)
        results = [result_with(1), result_with(1, qid="unknown")]
        report = region_annotation_hit_rate(results, anns, self.rf(), self.rf())
        assert report.extras["skipped_results"] == 1
        assert report.count == 1

    def test_rates_in_unit_interval(self):
        report = region_annotation_hit_rate(
            [result_with(2)], self.annotations(True), self.rf(), self.rf()
        )
        for key in ("seg_query", "seg_distractor", "kp_query", "kp_distractor", "same_keypoint"):
            assert 0.0 <= report.extras[key] <= 1.0


class TestAnnotationIO:
    def test_round_trip(self, tmp_path):
        anns = AnnotationSet()
        rng = np.random.default_rng(7)
        mask = rng.random((6, 6)) > 0.5
        anns.add("img-0", mask, [Keypoint("beak", 2.0, 3.0, True), Keypoint("tail", 0.0, 0.0, False)])
        path = str(tmp_path / "annotations.json")
        anns.save(path)
        back = AnnotationSet.load(path)
        np.testing.assert_array_equal(back["img-0"].mask, mask)
        assert back["img-0"].keypoints == anns["img-0"].keypoints

    @pytest.mark.parametrize(
        "index",
        [
            '{"annotation_version": 1}',
            '[{"annotation_version": 1, "images": {}}]',
            '{"annotation_version": 1, "images": []}',
            '{"annotation_version": 1, "images": {"a": {"keypoints": []}}}',
            '{"annotation_version": 1, "images": {"a": {"mask": "m.pgm", "keypoints": [["p", 1.0, 2.0]]}}}',
            '{"annotation_version": 1, "images": {"a": {"mask": "m.pgm", "keypoints": [["p", "x", 2, 1]]}}}',
            '{"annotation_version": 1, "images": {"a": {"mask": "m.pgm", "keypoints": 3}}}',
            '{"annotation_version": 1, "images": {"a": [1, 2]}}',
            '{"annotation_version": 1, "images": {',
        ],
        ids=[
            "no-images", "top-level-list", "images-not-object", "no-mask", "short-keypoint",
            "non-numeric-keypoint", "keypoints-not-list", "entry-not-object", "invalid-json",
        ],
    )
    def test_malformed_index_raises_format_error(self, tmp_path, index):
        write_raster(str(tmp_path / "m.pgm"), np.ones((4, 4)))
        path = tmp_path / "annotations.json"
        path.write_text(index)
        with pytest.raises(FormatError):
            AnnotationSet.load(str(path))

    def test_visible_keypoint_bounds_checked(self):
        anns = AnnotationSet()
        with pytest.raises(ShapeError):
            anns.add("x", np.ones((4, 4), dtype=bool), [Keypoint("p", 9.0, 0.0, True)])


class TestDistractorSelection:
    def test_random_class_excludes_query_class(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            assert pick_distractor_class_random(5, 3, rng) != 3

    def test_nearest_attribute_class(self):
        attrs = {0: [0.0, 0.0], 1: [1.0, 0.0], 2: [5.0, 5.0]}
        assert pick_distractor_class_nearest(attrs, 0) == 1
        assert pick_distractor_class_nearest(attrs, 2) == 1

    def test_random_image_from_pool(self):
        rng = np.random.default_rng(9)
        assert pick_distractor_image_random([4, 7, 9], rng) in (4, 7, 9)
        with pytest.raises(ShapeError):
            pick_distractor_image_random([], rng)

    def test_nearest_keypoint_image(self):
        anns = AnnotationSet()
        anns.add("q", np.ones((8, 8), dtype=bool), [Keypoint("p", 2.0, 2.0, True)])
        anns.add("near", np.ones((8, 8), dtype=bool), [Keypoint("p", 2.5, 2.0, True)])
        anns.add("far", np.ones((8, 8), dtype=bool), [Keypoint("p", 7.0, 7.0, True)])
        assert pick_distractor_image_nearest_keypoints(anns, "q", ["near", "far"]) == "near"

import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfedit import render
from cfedit.data import write_rasters
from cfedit.errors import CfeditError, FormatError, ShapeError, UnsupportedLayerError
from cfedit.grids import EditList
from cfedit.network import LayerSpec, forward_features, output_geometry, reference_extractor_specs
from cfedit.render import (
    ReceptiveFieldMap,
    intensity_map,
    read_explanation,
    receptive_field_map,
    render_composite,
    render_heatmap,
    result_to_record,
    write_explanation,
)
from cfedit.search import ExplanationResult, SearchConfig

from conftest import json_containers, make_model, read_raster


def grid_shape(specs, size):
    """The (rows, cols) of the feature grid that `specs` make of a size x size image."""
    geom = (size, size, 1)
    for spec in specs:
        geom = output_geometry(spec, geom)
    return geom[:2]


class TestReceptiveField:
    def test_identity_extractor_single_pixel(self):
        assert receptive_field_map([], 8, 8).rect(3, 5) == (3, 5, 3, 5)

    def test_single_3x3_conv(self):
        specs = [LayerSpec("conv2d", out_channels=2, kernel_size=3)]
        rf = receptive_field_map(specs, 8, 8)
        assert rf.rect(0, 0) == (0, 0, 2, 2)
        assert rf.rect(2, 3) == (2, 3, 4, 5)

    def test_conv_pool_recurrence(self):
        specs = [
            LayerSpec("conv2d", out_channels=2, kernel_size=3),
            LayerSpec("relu"),
            LayerSpec("maxpool2d", window=2, stride=2),
        ]
        rf = receptive_field_map(specs, 8, 8)
        assert (rf.field, rf.stride, rf.offset) == (4, 2, 0)
        assert rf.rect(0, 0) == (0, 0, 3, 3)
        assert rf.rect(1, 1) == (2, 2, 5, 5)

    def test_reference_extractor_geometry(self):
        rf = receptive_field_map(reference_extractor_specs(), 28, 28)
        assert grid_shape(reference_extractor_specs(), 28) == (4, 4)
        assert rf.rect(3, 3) == (12, 12, 27, 27)  # the grid's last cell ends on the image's edge
        assert rf.stride == 4
        assert rf.field == 16

    def test_dense_layer_rejected(self):
        with pytest.raises(UnsupportedLayerError):
            receptive_field_map([LayerSpec("dense", units=3)], 8, 8)

    def test_perturbation_soundness_reference_extractor(self):
        # zeroing pixels outside a cell's predicted rectangle must not change
        # that cell's activation
        model = make_model(
            reference_extractor_specs(),
            [LayerSpec("flatten"), LayerSpec("dense", units=3), LayerSpec("log-softmax")],
            (28, 28, 1),
            3,
            seed=5,
        )
        rf = receptive_field_map(reference_extractor_specs(), 28, 28)
        rng = np.random.default_rng(0)
        for _ in range(5):
            img = rng.uniform(0, 1, (28, 28, 1))
            base = forward_features(model, img)
            for row in range(4):
                for col in range(4):
                    t, l, b, r = rf.rect(row, col)
                    masked = np.zeros_like(img)
                    masked[t : b + 1, l : r + 1] = img[t : b + 1, l : r + 1]
                    F = forward_features(model, masked)
                    np.testing.assert_allclose(
                        F.values[row * 4 + col], base.values[row * 4 + col], atol=1e-12
                    )


class TestHeatmap:
    def rf(self):
        return ReceptiveFieldMap(4, 4, 0, 8, 8)

    def test_empty_cells_leave_image_unchanged(self):
        img = np.random.default_rng(0).uniform(0, 1, (8, 8))
        out = render_heatmap(img, [], self.rf())
        np.testing.assert_array_equal(out, img)

    def test_overlap_takes_max(self):
        rf = ReceptiveFieldMap(6, 2, 0, 8, 8)  # overlapping fields
        half = intensity_map(rf, [((0, 0), 0.5)])
        full = intensity_map(rf, [((0, 1), 1.0)])
        amap = intensity_map(rf, [((0, 0), 0.5), ((0, 1), 1.0)])
        overlap = (half > 0) & (full > 0)
        assert overlap.any() and (half[overlap] != full[overlap]).any()
        np.testing.assert_array_equal(amap, np.maximum(half, full))

    def test_color_image_rejected(self):
        with pytest.raises(ShapeError):
            render_heatmap(np.zeros((8, 8, 3)), [], self.rf())

    def test_weight_out_of_range(self):
        with pytest.raises(ShapeError):
            intensity_map(self.rf(), [((0, 0), 1.5)])

    def test_soft_mode_peaks_at_center(self):
        amap = intensity_map(self.rf(), [((0, 0), 1.0)])
        assert amap.max() <= 1.0
        inside = amap[0:4, 0:4]
        assert inside.max() > 0.5
        assert amap[7, 7] == 0.0

    def test_deterministic(self):
        img = np.random.default_rng(1).uniform(0, 1, (8, 8))
        a = render_heatmap(img, [((1, 1), 0.7)], self.rf())
        b = render_heatmap(img, [((1, 1), 0.7)], self.rf())
        np.testing.assert_array_equal(a, b)


class TestFalloffCache:
    """`intensity_map` scales one cached falloff patch per rectangle size; it
    must give the bits of the per-call formula it replaced."""

    @staticmethod
    def per_call(rf, row, col, weight):
        out = np.zeros((rf.image_h, rf.image_w))
        t, l, b, r = rf.rect(row, col)
        cy, cx = (t + b) / 2.0, (l + r) / 2.0
        ry, rx = (b - t) / 2.0 + 0.5, (r - l) / 2.0 + 0.5
        ys = np.arange(t, b + 1)[:, None]
        xs = np.arange(l, r + 1)[None, :]
        dist = np.sqrt(((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2)
        patch = weight * np.clip(1.0 - dist, 0.0, 1.0)
        region = out[t : b + 1, l : r + 1]
        np.maximum(region, patch, out=region)
        return out

    PADDED = [LayerSpec("conv2d", out_channels=2, kernel_size=5, padding=2), LayerSpec("maxpool2d", window=2),
              LayerSpec("conv2d", out_channels=2, kernel_size=3, padding=1)]

    @pytest.mark.parametrize("specs, size, grid", [
        (reference_extractor_specs(), 28, (4, 4)),
        (reference_extractor_specs(), 42, (7, 7)),
        (PADDED, 12, (6, 6)),
    ])
    def test_matches_per_call_formula_bitwise(self, specs, size, grid):
        rf = receptive_field_map(specs, size, size)
        assert grid_shape(specs, size) == grid
        sizes = set()
        for row in range(grid[0]):
            for col in range(grid[1]):
                t, l, b, r = rf.rect(row, col)
                sizes.add((b - t + 1, r - l + 1))
                for weight in (1.0, 0.5):
                    got = intensity_map(rf, [((row, col), weight)])
                    assert got.tobytes() == self.per_call(rf, row, col, weight).tobytes(), (row, col, weight)
        if specs is self.PADDED:  # edge rectangles are clipped to the image
            assert len(sizes) > 1 and (rf.field, rf.field) in sizes

    def test_cached_patch_rejects_writes(self):
        patch = render._unit_falloff(5, 7)
        assert patch.shape == (5, 7) and render._unit_falloff(5, 7) is patch
        with pytest.raises(ValueError):
            patch[2, 3] = 0.0
        with pytest.raises(ValueError):
            patch *= 0.5
        assert patch[2, 3] == 1.0


class TestComposite:
    def rf(self):
        return ReceptiveFieldMap(4, 4, 0, 8, 8)

    def test_identical_images_same_cell_unchanged(self):
        # blending an image onto itself: with matching cells the aligned patch
        # is the very patch it overwrites
        img = np.random.default_rng(2).uniform(0, 1, (8, 8))
        for cell in ((0, 0), (1, 1)):
            out = img.copy()
            render_composite(out, img, cell + cell, self.rf())
            np.testing.assert_allclose(out, img, atol=1e-12)

    def test_zero_alpha_leaves_query_unchanged(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(0, 1, (8, 8))
        d = rng.uniform(0, 1, (8, 8))
        rf_zero = ReceptiveFieldMap(4, 4, 0, 8, 8)
        alpha = intensity_map(rf_zero, [])
        assert alpha.max() == 0.0  # no cells highlighted -> no blending anywhere
        out = q.copy()
        render_composite(out, q, (0, 0, 0, 0), rf_zero)
        np.testing.assert_allclose(out, q, atol=1e-12)

    def test_blend_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(0, 1, (8, 8))
        d = rng.uniform(0, 1, (8, 8))
        edit = (1, 0, 0, 1)  # query cell (1,0) <- distractor cell (0,1)
        out = q.copy()
        render_composite(out, d, edit, self.rf())
        alpha = intensity_map(self.rf(), [((0, 1), 1.0)])
        cy_q, cx_q = self.rf().rect_center(1, 0)
        cy_d, cx_d = self.rf().rect_center(0, 1)
        dy, dx = int(round(cy_q - cy_d)), int(round(cx_q - cx_d))
        expected = q.copy()
        for y in range(8):
            for x in range(8):
                ty, tx = y + dy, x + dx
                if 0 <= ty < 8 and 0 <= tx < 8 and alpha[y, x] > 0:
                    a = alpha[y, x]
                    expected[ty, tx] = (1 - a) * q[ty, tx] + a * d[y, x]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_geometry_mismatch(self):
        with pytest.raises(ShapeError):
            render_composite(np.zeros((8, 8)), np.zeros((6, 6)), (0, 0, 0, 0), self.rf())

    @staticmethod
    def whole_image(q, d, edit, rf):
        """The composite as a blend of the whole query with a shifted
        whole-image intensity map, zero outside the distractor rectangle."""
        i, j, i2, j2 = edit
        alpha = intensity_map(rf, [((i2, j2), 1.0)])
        cy_q, cx_q = rf.rect_center(i, j)
        cy_d, cx_d = rf.rect_center(i2, j2)
        dy, dx = int(round(cy_q - cy_d)), int(round(cx_q - cx_d))
        out = q.copy()
        h, w = alpha.shape
        dst_t, dst_l = max(dy, 0), max(dx, 0)
        dst_b, dst_r = min(dy + h, q.shape[0]), min(dx + w, q.shape[1])
        if dst_t < dst_b and dst_l < dst_r:
            a = alpha[dst_t - dy : dst_b - dy, dst_l - dx : dst_r - dx]
            window = (slice(dst_t, dst_b), slice(dst_l, dst_r))
            out[window] = (1.0 - a) * q[window] + a * d[dst_t - dy : dst_b - dy, dst_l - dx : dst_r - dx]
        return out

    @pytest.mark.parametrize("specs, size", [
        (reference_extractor_specs(), 28),
        (reference_extractor_specs(), 42),
        (TestFalloffCache.PADDED, 12),
    ])
    def test_clipped_rectangle_blend_matches_whole_image_blend_bitwise(self, specs, size):
        # every (query cell, distractor cell) pair, so that clipped edge
        # rectangles and windows shifted past the border both occur
        rf = receptive_field_map(specs, size, size)
        rng = np.random.default_rng(10)
        q, d = rng.uniform(0, 1, (size, size)), rng.uniform(0, 1, (size, size))
        rows, cols = grid_shape(specs, size)
        cells = [(row, col) for row in range(rows) for col in range(cols)]
        for cell in cells:
            for source in cells:
                edit = cell + source
                got = q.copy()
                render_composite(got, d, edit, rf)
                assert got.tobytes() == self.whole_image(q, d, edit, rf).tobytes(), edit
        edits = [cells[k] + cells[-1 - k] for k in range(len(cells))]
        result = ExplanationResult(EditList(tuple(edits), rows, cols), ((0.0, 0.0),) * (len(edits) + 1), "exhausted", 0, 1)
        want = q
        for edit in edits:
            want = self.whole_image(want, d, edit, rf)
        assert render.render_explanation(q, d, result, rf).composite.tobytes() == want.tobytes()


class TestRasterIO:
    def test_pgm_round_trip(self, tmp_path):
        img = np.round(np.random.default_rng(4).uniform(0, 1, (5, 7)) * 255) / 255
        path = str(tmp_path / "x.pgm")
        write_rasters([path], [img])
        np.testing.assert_allclose(read_raster(path), img, atol=1e-12)

    def test_whitespace_valued_leading_pixels_round_trip(self, tmp_path):
        # pixel bytes 9-13 and 32 are ASCII whitespace; they follow the header directly
        img = (np.array([32, 9, 10, 11, 12, 13, 32, 0]) / 255).reshape(2, 4)
        path = str(tmp_path / "x.pgm")
        write_rasters([path], [img])
        np.testing.assert_array_equal(read_raster(path), img)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"JUNK\n2 2\n255\n aaaa")
        with pytest.raises(FormatError):
            read_raster(str(path))

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            write_rasters([str(tmp_path / "y.pgm")], [np.full((2, 2), 1.5)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        img = np.full((2, 2), 0.5)
        img[1, 0] = bad
        path = tmp_path / "n.pgm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any cast could warn
            with pytest.raises(ShapeError):
                write_rasters([str(path)], [img])
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 1)])
    def test_channel_axis_rejected(self, tmp_path, shape):
        with pytest.raises(ShapeError):
            write_rasters([str(tmp_path / "z.pgm")], [np.zeros(shape)])

    def test_each_raster_goes_to_its_path(self, tmp_path):
        rasters = [np.full((2, 3), v / 255) for v in (0, 7, 255)]
        paths = [str(tmp_path / f"{k}.pgm") for k in range(3)]
        write_rasters(paths, rasters)
        for path, raster in zip(paths, rasters):
            np.testing.assert_array_equal(read_raster(path), raster)


def sample_result(n_edits=2):
    quads = tuple((k, k, k, 3 - k) for k in range(n_edits))
    traj = tuple((-0.1 * (k + 1), -2.0 + 0.5 * k) for k in range(n_edits + 1))
    return ExplanationResult(
        EditList(quads, 4, 4), traj, "flipped" if n_edits else "flipped", 3, 7, "q-1", "d-9"
    )


class TestRecords:
    def test_round_trip_random_results(self, tmp_path):
        rng = np.random.default_rng(6)
        for k in range(50):
            n = int(rng.integers(0, 5))
            cells = rng.permutation(16)[:n]
            sources = rng.integers(0, 16, size=n)
            quads = tuple((c // 4, c % 4, s // 4, s % 4) for c, s in zip(cells, sources))
            traj = tuple((float(x), float(y)) for x, y in rng.normal(size=(n + 1, 2)))
            result = ExplanationResult(
                EditList(quads, 4, 4), traj, "flipped" if k % 2 else "exhausted", 1, 2, f"q{k}", f"d{k}"
            )
            paths = write_explanation(result, None, str(tmp_path), prefix=f"r{k}")
            back, _ = read_explanation(paths["record"])
            assert back == result

    def test_empty_edit_list_record(self, tmp_path):
        result = sample_result(0)
        paths = write_explanation(result, None, str(tmp_path))
        back, record = read_explanation(paths["record"])
        assert back.status == "flipped"
        assert back.edit_count == 0

    # the second of the three rasters holds a NaN, or has another shape
    @pytest.mark.parametrize("bad", [np.array([[0.5, np.nan], [0.5, 0.5]]), np.full((2, 3), 0.5)])
    def test_a_bad_raster_leaves_no_file_of_the_pair(self, tmp_path, bad):
        good = np.full((2, 2), 0.5)
        with pytest.raises(ShapeError):
            write_explanation(sample_result(1), render.RenderedExplanation(good, bad, good), str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_trajectory_entries_carry_both_logprobs(self):
        record = result_to_record(sample_result(3))
        assert len(record["trajectory"]) == 4
        for entry in record["trajectory"]:
            assert len(entry) == 2

    def test_record_carries_rects_and_config(self, tmp_path):
        rf = ReceptiveFieldMap(16, 4, 0, 28, 28)
        record = result_to_record(sample_result(1), rf, rf, SearchConfig())
        assert record["edits"][0]["cell_rect"] == list(rf.rect(0, 0))
        assert record["config"]["strategy"] == "exhaustive"

    def test_unknown_version_rejected(self, tmp_path):
        paths = write_explanation(sample_result(1), None, str(tmp_path))
        record = json.loads(open(paths["record"]).read())
        record["record_version"] = 42
        with open(paths["record"], "w") as fh:
            json.dump(record, fh)
        with pytest.raises(FormatError, match="record_version"):
            read_explanation(paths["record"])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    json_containers,
    max_leaves=6,
)
# places a mutation may hit; () is the whole record
RECORD_PATHS = (
    (), ("record_version",), ("grid",), ("grid", "h"), ("grid", "w"), ("edits",), ("edits", 0),
    ("edits", 0, "cell"), ("edits", 0, "cell", 1), ("edits", 1, "source"), ("trajectory",),
    ("trajectory", 0), ("trajectory", 2, 1), ("status",), ("query_class",), ("target_class",),
    ("query_id",),
)


def mutate(record, path, value, delete):
    """`record` with the entry at `path` replaced by `value` or deleted; the
    record unchanged where an earlier mutation removed the path."""
    if not path:
        return value
    try:
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return record


@st.composite
def mutated_record_bytes(draw):
    """A valid two-edit record's file after 1-3 structural mutations, and
    sometimes a truncation or a splice of arbitrary bytes."""
    record = result_to_record(sample_result(2))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(RECORD_PATHS))
        record = mutate(record, path, draw(JSON_VALUES), delete=bool(path) and draw(st.booleans()))
    raw = json.dumps(record).encode()
    if draw(st.booleans()):
        i = draw(st.integers(0, len(raw)))
        j = draw(st.integers(i, len(raw)))
        raw = raw[:i] + draw(st.binary(max_size=4)) + raw[j:]
    return raw


class TestRecordProperties:
    @settings(
        max_examples=400, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(mutated_record_bytes())
    def test_loads_or_raises_typed_error(self, tmp_path, raw):
        path = tmp_path / "record.json"
        path.write_bytes(raw)
        try:
            result, _ = read_explanation(str(path))
        except CfeditError:
            return
        assert len(result.trajectory) == len(result.edits) + 1

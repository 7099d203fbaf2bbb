import io
import json
import os
import stat
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfedit import data
from cfedit.data import (
    DEFAULT_GRAMMAR,
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    gen_shapes,
    load_idx,
    write_file,
    write_json,
)
from cfedit.errors import CfeditError, FormatError, ShapeError
from cfedit.grids import EditList
from cfedit.metrics import avg_edit_count
from cfedit.network import (
    LayerSpec,
    TrainConfig,
    predict_batch,
    reference_head_specs,
    save_model,
    train,
)
from cfedit.render import RenderedExplanation, write_explanation
from cfedit.rng import substream
from cfedit.search import ExplanationResult

from conftest import identity_feature_model, tree_bytes, write_idx


def write_pair(tmp_path, images, labels, *, img_header=None, lbl_header=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ip = tmp_path / "images.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(
        (img_header or struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols)) + images.tobytes()
    )
    lp.write_bytes((lbl_header or struct.pack(">II", IDX_LABELS_MAGIC, len(labels))) + labels.tobytes())
    return str(ip), str(lp)


class TestIdx:
    def test_hand_built_fixture(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        labels = np.array([3, 9], dtype=np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels))
        assert ds.images.shape == (2, 3, 4)
        np.testing.assert_allclose(ds.images, images / 255.0, atol=1e-15)
        assert ds.labels.tolist() == [3, 9]
        assert ds.class_count == 10

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.uniform(0, 1, (5, 6, 6))
        images = np.round(images * 255) / 255
        labels = rng.integers(0, 10, 5)
        ip, lp = str(tmp_path / "i.idx"), str(tmp_path / "l.idx")
        write_idx(ip, lp, images, labels)
        ds = load_idx(ip, lp)
        np.testing.assert_allclose(ds.images, images, atol=1e-12)
        assert ds.labels.tolist() == labels.tolist()

    def test_bad_image_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_pair(
            tmp_path, images, [0], img_header=struct.pack(">IIII", 0xDEAD, 1, 2, 2)
        )
        with pytest.raises(FormatError, match="bad magic"):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_pair(
            tmp_path, images, [0], lbl_header=struct.pack(">II", 0xBEEF, 1)
        )
        with pytest.raises(FormatError, match="bad magic"):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip = tmp_path / "i.idx"
        lp = tmp_path / "l.idx"
        ip.write_bytes(struct.pack(">IIII", IDX_IMAGES_MAGIC, 2, 2, 2) + b"\x00" * 5)
        lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 2) + b"\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(str(ip), str(lp))

    def test_truncated_header(self, tmp_path):
        ip = tmp_path / "i.idx"
        lp = tmp_path / "l.idx"
        ip.write_bytes(b"\x00\x00")
        lp.write_bytes(struct.pack(">II", IDX_LABELS_MAGIC, 0))
        with pytest.raises(FormatError, match="truncated header"):
            load_idx(str(ip), str(lp))

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = write_pair(tmp_path, images, [0])  # 1 label, 2 images
        with pytest.raises(FormatError, match="does not match"):
            load_idx(ip, lp)


def idx_header(magic, fields):
    """Arbitrary bytes, or `fields` + 1 big-endian words that usually start
    with `magic` and hold small or arbitrary counts."""
    word = st.integers(0, 2**32 - 1)
    words = st.tuples(st.one_of(st.just(magic), word), *[st.one_of(st.integers(0, 4), word)] * fields)
    packed = words.map(lambda t: struct.pack(f">{len(t)}I", *t))
    return st.one_of(st.binary(max_size=4 * (fields + 1) + 2), packed)


class TestIdxProperties:
    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        idx_header(IDX_IMAGES_MAGIC, 3), st.binary(max_size=80),
        idx_header(IDX_LABELS_MAGIC, 1), st.binary(max_size=12),
    )
    def test_loads_or_raises_typed_error(self, tmp_path, img_header, img_body, lbl_header, lbl_body):
        ip, lp = tmp_path / "images.idx", tmp_path / "labels.idx"
        ip.write_bytes(img_header + img_body)
        lp.write_bytes(lbl_header + lbl_body)
        try:
            ds = load_idx(str(ip), str(lp))
        except CfeditError:
            return
        assert ds.images.ndim == 3 and len(ds.images) == len(ds.labels)
        assert ds.images.min(initial=0.0) >= 0.0 and ds.images.max(initial=1.0) <= 1.0


class TestDataset:
    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 4, 4)), np.zeros(3, dtype=int), 2)

    def test_label_range(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((2, 4, 4)), np.array([0, 5]), 2)


def render_shape(size, shape, cx, cy, radius):
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    if shape == "circle":
        mask = np.hypot(ys - cy, xs - cx) <= radius
    else:  # square
        mask = (np.abs(ys - cy) <= radius) & (np.abs(xs - cx) <= radius)
    return mask.astype(np.float64)


def shapes_one_at_a_time(count, size, seed, split):
    """The shapes dataset drawn and rendered one image at a time, with
    numpy's own `uniform` and `normal`: the reference `gen_shapes` keeps."""
    rng = substream(seed, f"shapes-{split}")
    images = np.zeros((count, size, size))
    labels = np.zeros(count, dtype=int)
    for k in range(count):
        cls = int(rng.integers(len(DEFAULT_GRAMMAR)))
        spec = DEFAULT_GRAMMAR[cls]
        cx = data._POSITIONS[spec["position"]] * size + rng.uniform(-1.5, 1.5)
        cy = 0.5 * size + rng.uniform(-1.5, 1.5)
        radius = size * rng.uniform(0.12, 0.18)
        img = render_shape(size, spec["shape"], cx, cy, radius)
        images[k] = np.clip(img + rng.normal(0, data.NOISE_STD, img.shape), 0.0, 1.0)
        labels[k] = cls
    return Dataset(images, labels, len(DEFAULT_GRAMMAR), split=split, ids=[f"{split}-{k}" for k in range(count)])


BLOCK = data._SHAPE_VALUES // 28**2  # images per block at 28x28


class TestShapes:
    @pytest.mark.parametrize(
        "count, size, seed, split",
        [
            (1, 1, 0, "shapes"),
            (3, 2, 5, "shapes"),
            (BLOCK - 1, 28, 1, "bench"),
            (BLOCK, 28, 9, "train"),
            (BLOCK + 1, 28, 9, "shapes"),
            (2 * BLOCK, 28, 0, "layers"),
            (2 * BLOCK + 1, 28, 0, "shapes"),
            (300, 17, 4, "train"),
            (300, 42, 2, "bench"),
            (60, 14, 3, "test"),
        ],
    )
    def test_matches_the_per_image_reference(self, count, size, seed, split):
        got, want = gen_shapes(count, size=size, seed=seed, split=split), shapes_one_at_a_time(count, size, seed, split)
        assert got.images.shape == (count, size, size)
        assert got.images.tobytes() == want.images.tobytes()
        assert got.labels.tolist() == want.labels.tolist()
        assert got.ids == want.ids and got.class_count == want.class_count == len(DEFAULT_GRAMMAR)

    @pytest.mark.parametrize("block", [1, 2, 7])
    @pytest.mark.parametrize("size", [1, 2, 17, 28, 42])
    def test_every_block_size_gives_the_same_bytes(self, block, size):
        want = shapes_one_at_a_time(15, size, 4, "shapes").images.tobytes()
        with mock.patch.object(data, "_SHAPE_VALUES", block * size * size):
            assert gen_shapes(15, size=size, seed=4).images.tobytes() == want

    def test_scratch_memory_is_bounded(self):
        tracemalloc.start()
        try:
            images = gen_shapes(2048, size=28, seed=1).images
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= images.nbytes + (4 << 20), peak - images.nbytes

    def test_deterministic_per_seed(self):
        a = gen_shapes(30, seed=7)
        b = gen_shapes(30, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = gen_shapes(30, seed=8)
        assert not np.array_equal(a.images, c.images)

    def test_value_range_and_shapes(self):
        ds = gen_shapes(10, size=16, seed=0)
        assert ds.images.shape == (10, 16, 16)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.class_count == len(DEFAULT_GRAMMAR)

    def test_count_positive(self):
        for count, size in ((0, 28), (-1, 28), (1, 0), (1, -1)):
            with pytest.raises(ShapeError, match="must be positive"):
                gen_shapes(count, size=size)

    def test_separable_by_small_model(self):
        train_ds = gen_shapes(600, size=14, seed=0, split="train")
        test_ds = gen_shapes(100, size=14, seed=1, split="test")
        extractor = [
            LayerSpec("conv2d", out_channels=6, kernel_size=3),
            LayerSpec("relu"),
            LayerSpec("maxpool2d", window=2, stride=2),
        ]
        model = train(
            extractor,
            reference_head_specs(train_ds.class_count),
            train_ds.images[..., None],
            train_ds.labels,
            TrainConfig(learning_rate=0.05, epochs=20, batch_size=16, seed=0),
            class_count=train_ds.class_count,
        )
        preds = predict_batch(model, test_ds.images[..., None])
        assert (preds == test_ds.labels).mean() >= 0.9


def write_artifacts(out, size):
    """A record with its three rasters, a report and a model bundle, each
    longer the larger `size` is; returns the raster.  The report's edit-count
    histogram runs from 1 to `size` + 9 edits, past 10, where the numeric and
    the string order of its keys part."""
    quads = tuple((k, k, k, 0) for k in range(size))
    result = ExplanationResult(
        EditList(quads, 4, 4), [(-0.25 * k, -1.5) for k in range(size + 1)], "flipped", 0, 1, "q", "d"
    )
    raster = np.linspace(0, 1, 9 * size * size).reshape(3 * size, 3 * size)
    write_explanation(result, RenderedExplanation(raster, raster, raster), out)
    counts = [
        ExplanationResult(EditList(tuple((k, 0, k, 0) for k in range(n)), n, 1), [(0.0, 0.0)] * (n + 1), "flipped", 0, 1)
        for n in range(1, size + 10)
    ]
    write_json(os.path.join(out, "report.json"), avg_edit_count([result] * size + counts).to_json())
    save_model(identity_feature_model(2, 2, size, size), os.path.join(out, "model"))
    return raster


class TestFileWriter:
    def test_shorter_artifacts_overwrite_longer_ones(self, tmp_path):
        over, fresh = tmp_path / "over", tmp_path / "fresh"
        write_artifacts(str(over), 3)
        longer = tree_bytes(over)
        write_artifacts(str(over), 1)
        write_artifacts(str(fresh), 1)
        shorter = tree_bytes(fresh)
        assert tree_bytes(over) == shorter
        assert sorted(shorter) == sorted(longer) and len(shorter) == 7
        assert all(len(shorter[name]) < len(longer[name]) for name in shorter)

    def test_json_and_rasters_are_exactly_their_encodings(self, tmp_path):
        raster = write_artifacts(str(tmp_path), 2)
        files = tree_bytes(tmp_path)
        h, w = raster.shape
        pgm = b"P5\n%d %d\n255\n" % (w, h) + np.round(raster * 255).astype(np.uint8).tobytes()
        assert sorted(p.suffix for p in files) == [".bin"] + [".json"] * 3 + [".pgm"] * 3
        for name, blob in files.items():
            if name.suffix == ".json":
                assert blob == json.dumps(json.loads(blob), sort_keys=True).encode("ascii"), name
            elif name.suffix == ".pgm":
                assert blob == pgm, name

    def test_only_a_longer_file_is_cut(self, tmp_path, monkeypatch):
        path, cuts, ftruncate = tmp_path / "f", [], os.ftruncate
        monkeypatch.setattr(os, "ftruncate", lambda fd, length: (cuts.append(length), ftruncate(fd, length))[1])
        write_file(str(path), b"abcdef")
        write_file(str(path), b"uvwxyz")
        assert cuts == [] and path.read_bytes() == b"uvwxyz"
        write_file(str(path), b"abc")
        assert cuts == [3] and path.read_bytes() == b"abc"

    def test_missing_file_is_created_under_the_umask(self, tmp_path):
        old = os.umask(0o007)
        try:
            write_file(str(tmp_path / "new"), b"abc")
            open(tmp_path / "opened", "wb").close()
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "new").st_mode)
        assert mode == 0o660 == stat.S_IMODE(os.stat(tmp_path / "opened").st_mode)
        assert (tmp_path / "new").read_bytes() == b"abc"

    def test_payload_larger_than_a_buffer(self, tmp_path):
        path = tmp_path / "big"
        payloads = [np.random.default_rng(k).bytes(n * io.DEFAULT_BUFFER_SIZE + 3) for k, n in ((0, 9), (1, 5))]
        for payload in payloads:
            write_file(str(path), payload)
            assert path.read_bytes() == payload

    def test_pipe_is_written_and_not_cut(self, tmp_path):
        path = str(tmp_path / "fifo")
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_file(path, b"abc")
            assert os.read(reader, 16) == b"abc"
        finally:
            os.close(reader)

"""Dataset ingestion and file formats: IDX digit files, the file writer,
PGM rasters, and a synthetic shapes generator.

The IDX parser reads the standard big-endian container used to distribute
handwritten-digit datasets.  The shapes generator renders labeled images of
simple shapes from a small class grammar; it is separable by the reference
CNN by construction and fully deterministic per seed, so it backs the
desk-scale experiments and the test suite.  Both sources yield grayscale
(N, H, W) images, so every raster written is a single-channel PGM.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError
from .rng import substream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray  # (N, H, W), values in [0, 1]
    labels: np.ndarray  # (N,) ints
    class_count: int
    split: str = ""
    ids: list = field(default_factory=list)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.images) != len(self.labels):
            raise ShapeError(
                f"image count {len(self.images)} != label count {len(self.labels)}"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ShapeError("labels must lie in [0, class_count)")
        if not self.ids:
            self.ids = [f"{self.split or 'img'}-{k}" for k in range(len(self.images))]

    def __len__(self):
        return len(self.images)


def _read_idx(path: str, magic: int, dims: int, what: str):
    """(the header's `dims` counts, the uint8 body of that shape) of the IDX
    file at `path`, after checking its magic, header and body lengths; any
    bytes past the body are ignored."""
    size = 4 * (dims + 1)
    with open(path, "rb") as fh:
        header = fh.read(size)
        if len(header) < size:
            raise FormatError(f"{path}: truncated header at byte {len(header)}")
        got, *counts = struct.unpack(f">{dims + 1}I", header)
        if got != magic:
            raise FormatError(f"{path}: bad magic 0x{got:08x} at byte 0 (want 0x{magic:08x})")
        body = fh.read()
    expected = math.prod(counts)
    if len(body) < expected:
        raise FormatError(f"{path}: truncated {what} data at byte {size + len(body)}")
    return counts, np.frombuffer(body[:expected], dtype=np.uint8).reshape(counts)


def load_idx(images_path: str, labels_path: str, split: str = "") -> Dataset:
    """Parse a big-endian IDX image/label file pair; bytes scaled to [0, 1]."""
    (count, _, _), images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "pixel")
    (label_count,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")
    if count != label_count:
        raise FormatError(f"image count {count} does not match label count {label_count}")
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(int), 10, split=split)


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def write_file(path: str, payload: bytes):
    """Make `payload` the whole content of the file at `path`, in place.

    Every file cfedit writes goes through here.  The file is opened without
    O_TRUNC (created with mode 0o666 less the umask, as `open` does), written
    through its descriptor with no buffer between, and then cut at the end of
    the payload.  Truncating a file that holds
    data to zero frees its blocks and, on ext4, starts writeback at close,
    which costs several times the write itself when a run overwrites earlier
    output; an interrupted write may leave old bytes past the new ones.
    Devices and pipes are not cut, as `open` ignores O_TRUNC for them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(payload)
        while view:  # a write may take only part of the payload
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(payload))
    finally:
        os.close(fd)


def write_json(path: str, obj):
    """Write `obj` as indented, key-sorted JSON, ASCII-only as `json.dump`
    writes it: the form of every record, report and manifest."""
    write_file(path, json.dumps(obj, indent=1, sort_keys=True).encode("ascii"))


# ---------------------------------------------------------------------------
# rasters: binary PGM (P5), maxval 255
# ---------------------------------------------------------------------------

def write_raster(path: str, raster: np.ndarray):
    arr = np.asarray(raster, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"raster must be HxW grayscale, got shape {arr.shape}")
    # negated, so that NaN fails too
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ShapeError("raster values must be finite and lie in [0, 1]")
    data = np.round(arr * 255.0).astype(np.uint8)
    h, w = arr.shape
    write_file(path, b"P5\n%d %d\n255\n" % (w, h) + data.tobytes())


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------

DEFAULT_GRAMMAR = (
    {"shape": "circle", "position": "left"},
    {"shape": "circle", "position": "right"},
    {"shape": "square", "position": "left"},
    {"shape": "square", "position": "right"},
)

_POSITIONS = {"left": 0.3, "right": 0.7}
NOISE_STD = 0.05  # std of the Gaussian pixel noise added before clipping to [0, 1]


def _render_shape(size: int, shape: str, cx: float, cy: float, radius: float) -> np.ndarray:
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    if shape == "circle":
        mask = np.hypot(ys - cy, xs - cx) <= radius
    else:  # square
        mask = (np.abs(ys - cy) <= radius) & (np.abs(xs - cx) <= radius)
    return mask.astype(np.float64)


def gen_shapes(count: int, size: int = 28, seed: int = 0, split: str = "shapes") -> Dataset:
    """Labeled images of simple shapes; class = one DEFAULT_GRAMMAR entry.

    Positions and radii jitter within the class cell; a deterministic seeded
    generator drives everything, so identical seeds give identical datasets.
    """
    if count <= 0:
        raise ShapeError("count must be positive")
    if size <= 0:
        raise ShapeError("size must be positive")
    rng = substream(seed, f"shapes-{split}")
    images = np.zeros((count, size, size))
    labels = np.zeros(count, dtype=int)
    for k in range(count):
        cls = int(rng.integers(len(DEFAULT_GRAMMAR)))
        spec = DEFAULT_GRAMMAR[cls]
        cx = _POSITIONS[spec["position"]] * size + rng.uniform(-1.5, 1.5)
        cy = 0.5 * size + rng.uniform(-1.5, 1.5)
        radius = size * rng.uniform(0.12, 0.18)
        img = _render_shape(size, spec["shape"], cx, cy, radius)
        images[k] = np.clip(img + rng.normal(0, NOISE_STD, img.shape), 0.0, 1.0)
        labels[k] = cls
    ids = [f"{split}-{k}" for k in range(count)]
    return Dataset(images, labels, len(DEFAULT_GRAMMAR), split=split, ids=ids)

"""Dataset ingestion and file formats: IDX digit files, the file writer and
JSON reader, PGM rasters, and a synthetic shapes generator.

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
    the payload if the file was longer.  Truncating a file that holds
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
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(payload):
            os.ftruncate(fd, len(payload))
    finally:
        os.close(fd)


def write_json(path: str, obj):
    """Write `obj` as key-sorted JSON on one line, ASCII-only as `json.dump`
    writes it: the form of every record, report and manifest.  With no
    indent, `json.dumps` runs its C encoder."""
    write_file(path, json.dumps(obj, sort_keys=True).encode("ascii"))


def read_json(path: str):
    """The JSON value in the file at `path`: every record, manifest and config
    cfedit reads.  Bad JSON, or bytes that are not UTF-8, raise FormatError
    naming the path; OSError passes through."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# rasters: binary PGM (P5), maxval 255
# ---------------------------------------------------------------------------

def write_rasters(paths, rasters):
    """Write each of `rasters`, HxW grayscale arrays of one shape with values
    in [0, 1], to the path at the same place in `paths`.  All of them are
    checked and quantized before the first file is written, so a bad one
    leaves no file behind."""
    arrs = [np.asarray(r, dtype=np.float64) for r in rasters]
    shape = arrs[0].shape
    if len(shape) != 2 or any(a.shape != shape for a in arrs):
        raise ShapeError(f"rasters must be HxW grayscale of one shape, got shapes {[a.shape for a in arrs]}")
    stack = np.stack(arrs)
    # negated, so that NaN fails too
    if not np.all((stack >= 0) & (stack <= 1)):
        raise ShapeError("raster values must be finite and lie in [0, 1]")
    data = np.round(stack * 255.0).astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (shape[1], shape[0])
    for path, plane in zip(paths, data):
        write_file(path, header + plane.tobytes())


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

# Cap on the float64 values of the distance scratch that one block of images
# is rendered with (64 KB).  A block holds as many whole images as fit, and at
# least one: 10 at 28x28, 4 at 42x42.  A scratch of 256 42x42 images (3.6 MB)
# raised perfbench's explain-wide peak RSS by 1.7 MB.
_SHAPE_VALUES = 1 << 13

# per class: the centre's x as a fraction of the size, and whether the shape
# is a circle (Euclidean distance to the centre) or a square (Chebyshev)
_CLASS_X = np.array([_POSITIONS[spec["position"]] for spec in DEFAULT_GRAMMAR])
_CLASS_ROUND = np.array([spec["shape"] == "circle" for spec in DEFAULT_GRAMMAR])


def gen_shapes(count: int, size: int = 28, seed: int = 0, split: str = "shapes") -> Dataset:
    """Labeled images of simple shapes; class = one DEFAULT_GRAMMAR entry.

    Positions and radii jitter within the class cell; a deterministic seeded
    generator drives everything, so identical seeds give identical datasets.
    Each image draws its class, three uniform jitters and its standard-normal
    noise in stream order, one image after another: the normal sampler
    rejects a varying number of words, so no draw can be batched across
    images.  numpy's `uniform(lo, hi)` is `lo + (hi - lo) * random()` and
    `normal(0, s)` is `0 + s * z`, and the jitters and noise are formed from
    the draws the same way.  The images are then scaled, given their shapes
    and clipped a block at a time.
    """
    if count <= 0:
        raise ShapeError("count must be positive")
    if size <= 0:
        raise ShapeError("size must be positive")
    rng = substream(seed, f"shapes-{split}")
    images = np.empty((count, size, size))  # first: its size names a failed allocation
    labels = np.empty(count, dtype=int)
    u = np.empty((count, 3))
    for k in range(count):
        labels[k] = rng.integers(len(DEFAULT_GRAMMAR))
        rng.random(out=u[k])
        rng.standard_normal(out=images[k])
    cx = _CLASS_X[labels] * size + (-1.5 + 3.0 * u[:, 0])
    cy = 0.5 * size + (-1.5 + 3.0 * u[:, 1])
    radius = size * (0.12 + (0.18 - 0.12) * u[:, 2])
    axis = np.arange(size)
    step = max(1, _SHAPE_VALUES // (size * size))
    scratch = np.empty((min(count, step), size, size))
    for lo in range(0, count, step):
        b = slice(lo, lo + step)
        block = images[b]
        dy = np.abs(axis[:, None] - cy[b, None, None])
        dx = np.abs(axis - cx[b, None, None])
        r = radius[b, None, None]
        dist = np.maximum(dy, dx, out=scratch[: len(block)])
        # hypot(dy, dx) >= max(dy, dx), so a circle lies inside its square
        # and only the pixels there need the Euclidean distance
        np.hypot(dy, dx, out=dist, where=(dist <= r) & _CLASS_ROUND[labels[b], None, None])
        block *= NOISE_STD
        block += dist <= r
        np.clip(block, 0.0, 1.0, out=block)
    return Dataset(images, labels, len(DEFAULT_GRAMMAR), split=split)

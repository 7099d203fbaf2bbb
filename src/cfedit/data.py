"""Dataset ingestion and file formats: IDX digit files, PGM/PPM rasters,
annotations, and a synthetic shapes generator.

The IDX parser reads the standard big-endian container used to distribute
handwritten-digit datasets.  Annotations are per-image segmentation masks
(stored as PGM rasters) and named keypoints.  The shapes generator renders
labeled images of simple shapes from a small class grammar; it is separable
by the reference CNN by construction and fully deterministic per seed, so it
backs the desk-scale experiments and the test suite.
"""

from __future__ import annotations

import json
import os
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ShapeError
from .rng import substream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray  # (N, H, W) or (N, H, W, C), values in [0, 1]
    labels: np.ndarray  # (N,) ints
    class_count: int
    split: str = ""
    ids: list = field(default_factory=list)
    annotations: AnnotationSet | None = None

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

    def indices_of_class(self, cls: int):
        return np.flatnonzero(self.labels == cls)


def load_idx(images_path: str, labels_path: str, split: str = "") -> Dataset:
    """Parse a big-endian IDX image/label file pair; bytes scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise FormatError(f"{images_path}: truncated header at byte {len(header)}")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(
                f"{images_path}: bad magic 0x{magic:08x} at byte 0 (want 0x{IDX_IMAGES_MAGIC:08x})"
            )
        body = fh.read()
    expected = count * rows * cols
    if len(body) < expected:
        raise FormatError(f"{images_path}: truncated pixel data at byte {16 + len(body)}")
    images = np.frombuffer(body[:expected], dtype=np.uint8).reshape(count, rows, cols)

    with open(labels_path, "rb") as fh:
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{labels_path}: truncated header at byte {len(header)}")
        magic, label_count = struct.unpack(">II", header)
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(
                f"{labels_path}: bad magic 0x{magic:08x} at byte 0 (want 0x{IDX_LABELS_MAGIC:08x})"
            )
        body = fh.read()
    if len(body) < label_count:
        raise FormatError(f"{labels_path}: truncated label data at byte {8 + len(body)}")
    labels = np.frombuffer(body[:label_count], dtype=np.uint8)

    if count != label_count:
        raise FormatError(f"image count {count} does not match label count {label_count}")
    return Dataset(images.astype(np.float64) / 255.0, labels.astype(int), 10, split=split)


def write_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray):
    """Inverse of load_idx, for fixtures and exports."""
    imgs = np.asarray(images)
    if imgs.ndim == 4 and imgs.shape[3] == 1:
        imgs = imgs[..., 0]
    data = np.round(np.clip(imgs, 0, 1) * 255.0).astype(np.uint8)
    n, rows, cols = data.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(data.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# rasters: binary PGM (P5) / PPM (P6), maxval 255
# ---------------------------------------------------------------------------

def write_raster(path: str, raster: np.ndarray):
    arr = np.asarray(raster, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if np.any(arr < 0) or np.any(arr > 1):
        raise ShapeError("raster values must lie in [0, 1]")
    data = np.round(arr * 255.0).astype(np.uint8)
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ShapeError(f"raster must be HxW or HxWx3, got shape {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


_RASTER_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_raster(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    # exactly one whitespace byte ends the header; pixel bytes may look like whitespace
    header = _RASTER_HEADER.match(blob)
    if header is None:
        raise FormatError(f"{path}: not a binary PGM/PPM file")
    magic = header.group(1)
    w, h, maxval = (int(v) for v in header.group(2, 3, 4))
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    channels = 3 if magic == b"P6" else 1
    data = np.frombuffer(blob[header.end() : header.end() + h * w * channels], dtype=np.uint8)
    if data.size != h * w * channels:
        raise FormatError(f"{path}: truncated pixel data")
    arr = data.reshape((h, w, 3) if channels == 3 else (h, w)).astype(np.float64) / 255.0
    return arr


# ---------------------------------------------------------------------------
# annotations: segmentation masks and named keypoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Keypoint:
    name: str
    x: float
    y: float
    visible: bool


@dataclass
class ImageAnnotation:
    mask: np.ndarray  # (H, W) bool segmentation
    keypoints: list = field(default_factory=list)


@dataclass
class AnnotationSet:
    """Per-image segmentation masks and named keypoints, keyed by image id."""

    entries: dict = field(default_factory=dict)

    def __contains__(self, image_id):
        return image_id in self.entries

    def __getitem__(self, image_id) -> ImageAnnotation:
        return self.entries[image_id]

    def add(self, image_id: str, mask: np.ndarray, keypoints=()):
        mask = np.asarray(mask, dtype=bool)
        for kp in keypoints:
            if kp.visible and not (0 <= kp.y < mask.shape[0] and 0 <= kp.x < mask.shape[1]):
                raise ShapeError(f"visible keypoint {kp.name!r} at ({kp.x}, {kp.y}) outside image")
        self.entries[image_id] = ImageAnnotation(mask, list(keypoints))

    def save(self, path: str):
        """Index JSON plus one PGM mask per image, in path's directory."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        index = {}
        for image_id, ann in sorted(self.entries.items()):
            mask_name = f"mask_{image_id}.pgm"
            write_raster(os.path.join(os.path.dirname(path) or ".", mask_name), ann.mask.astype(float))
            index[image_id] = {
                "mask": mask_name,
                "keypoints": [[k.name, k.x, k.y, k.visible] for k in ann.keypoints],
            }
        with open(path, "w") as fh:
            json.dump({"annotation_version": 1, "images": index}, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "AnnotationSet":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("annotation_version") != 1:
            raise FormatError(f"{path}: unsupported annotation_version")
        if not isinstance(data.get("images"), dict):
            raise FormatError(f"{path}: 'images' must be an object")
        out = cls()
        base = os.path.dirname(path) or "."
        for image_id, entry in data["images"].items():
            try:
                mask_path = os.path.join(base, entry["mask"])
                kps = [Keypoint(n, float(x), float(y), bool(v)) for n, x, y, v in entry["keypoints"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: malformed entry for {image_id!r}: {exc!r}") from exc
            out.add(image_id, read_raster(mask_path) > 0.5, kps)
        return out


# ---------------------------------------------------------------------------
# synthetic shapes
# ---------------------------------------------------------------------------

DEFAULT_GRAMMAR = (
    {"shape": "circle", "position": "left"},
    {"shape": "circle", "position": "right"},
    {"shape": "square", "position": "left"},
    {"shape": "square", "position": "right"},
)

_POSITIONS = {"left": 0.3, "right": 0.7, "center": 0.5}


def _render_shape(size: int, shape: str, cx: float, cy: float, radius: float) -> np.ndarray:
    ys = np.arange(size)[:, None]
    xs = np.arange(size)[None, :]
    if shape == "circle":
        mask = np.hypot(ys - cy, xs - cx) <= radius
    elif shape == "square":
        mask = (np.abs(ys - cy) <= radius) & (np.abs(xs - cx) <= radius)
    elif shape == "triangle":
        # upright triangle: widens linearly from apex at cy - radius
        t = (ys - (cy - radius)) / (2 * radius)
        mask = (t >= 0) & (t <= 1) & (np.abs(xs - cx) <= t * radius)
    else:
        raise ShapeError(f"unknown shape {shape!r}")
    return mask.astype(np.float64)


def gen_shapes(
    count: int,
    size: int = 28,
    grammar=DEFAULT_GRAMMAR,
    seed: int = 0,
    noise: float = 0.05,
    with_annotations: bool = False,
    split: str = "shapes",
) -> Dataset:
    """Labeled images of simple shapes; class = one grammar entry.

    Positions and radii jitter within the class cell; a deterministic seeded
    generator drives everything, so identical seeds give identical datasets.
    """
    if count <= 0:
        raise ShapeError("count must be positive")
    rng = substream(seed, f"shapes-{split}")
    images = np.zeros((count, size, size))
    labels = np.zeros(count, dtype=int)
    annotations = AnnotationSet() if with_annotations else None
    ids = [f"{split}-{k}" for k in range(count)]
    for k in range(count):
        cls = int(rng.integers(len(grammar)))
        spec = grammar[cls]
        cx = _POSITIONS[spec.get("position", "center")] * size + rng.uniform(-1.5, 1.5)
        cy = 0.5 * size + rng.uniform(-1.5, 1.5)
        radius = size * rng.uniform(0.12, 0.18)
        img = _render_shape(size, spec["shape"], cx, cy, radius)
        img = np.clip(img + rng.normal(0, noise, img.shape), 0.0, 1.0)
        images[k] = img
        labels[k] = cls
        if with_annotations:
            kps = [
                Keypoint("center", float(np.clip(cx, 0, size - 1)), float(np.clip(cy, 0, size - 1)), True),
                Keypoint("top", float(np.clip(cx, 0, size - 1)), float(np.clip(cy - radius, 0, size - 1)), True),
            ]
            annotations.add(ids[k], _render_shape(size, spec["shape"], cx, cy, radius) > 0.5, kps)
    return Dataset(images, labels, len(grammar), split=split, ids=ids, annotations=annotations)

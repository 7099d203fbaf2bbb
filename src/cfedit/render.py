"""Receptive-field geometry, highlight rendering, composites, and record I/O.

Feature cells are mapped back to input-pixel rectangles via the standard
layer-by-layer receptive-field recurrence.  Highlights overlay those
rectangles on the grayscale image with a soft radial falloff, blending
toward white.  The falloff depends only on a clipped rectangle's height and
width, so it is computed once per size, kept in a small cache of read-only
patches, and scaled by each highlight's weight.  The composite view pastes
the distractor's highlighted patch onto the query, center-aligned, using
highlight intensity as per-pixel alpha.  Explanation records are versioned
JSON with stable key order; records and rasters are written through the
file writer in `data`.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .data import read_json, write_json, write_rasters
from .errors import FormatError, ShapeError, is_number
from .grids import EditList
from .search import ExplanationResult, SearchConfig

RECORD_VERSION = 1


# ---------------------------------------------------------------------------
# receptive fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceptiveFieldMap:
    """Per-cell input rectangles for one extractor on one input size."""

    field: int  # unclipped field size (pixels, square)
    stride: int  # input-pixel step between adjacent cells
    offset: int  # unclipped start of cell (0,0)'s field (may be negative with padding)
    image_h: int
    image_w: int

    def __post_init__(self):
        object.__setattr__(self, "_rects", {})  # the nonempty rectangles computed so far, by cell

    def rect(self, row: int, col: int) -> tuple[int, int, int, int]:
        """Clipped (top, left, bottom, right), bounds inclusive, computed once per cell."""
        rect = self._rects.get((row, col))
        if rect is None:
            top, left = self.offset + row * self.stride, self.offset + col * self.stride
            bottom, right = min(top + self.field, self.image_h) - 1, min(left + self.field, self.image_w) - 1
            top, left = max(top, 0), max(left, 0)
            if top > bottom or left > right:
                raise ShapeError(f"cell ({row}, {col}) has an empty clipped receptive field")
            rect = self._rects[row, col] = (top, left, bottom, right)
        return rect

    def rect_center(self, row: int, col: int) -> tuple[float, float]:
        t, l, b, r = self.rect(row, col)
        return ((t + b) / 2.0, (l + r) / 2.0)


def receptive_field_map(extractor_specs, image_h: int, image_w: int) -> ReceptiveFieldMap:
    """Run the field/jump recurrence over conv/pool/relu layers; any other
    kind has no window, and `LayerSpec.window_geometry` raises
    UnsupportedLayerError naming it."""
    field, jump, offset = 1, 1, 0
    for spec in extractor_specs:
        if spec.kind == "relu":
            continue
        k, s, p = spec.window_geometry()
        field += (k - 1) * jump
        offset -= p * jump
        jump *= s
    return ReceptiveFieldMap(field, jump, offset, image_h, image_w)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _unit_falloff(height: int, width: int) -> np.ndarray:
    """Read-only `clip(1 - dist, 0, 1)` over a height x width rectangle,
    `dist` the elliptical distance from its center scaled to reach 1 half a
    pixel past its edges.  A rectangle's offsets from its center are exact
    half-integers, so the falloff of every rectangle of this size is this
    one, bit for bit."""
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    ry, rx = (height - 1) / 2.0 + 0.5, (width - 1) / 2.0 + 0.5
    ys = np.arange(height)[:, None]
    xs = np.arange(width)[None, :]
    dist = np.sqrt(((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2)
    patch = np.clip(1.0 - dist, 0.0, 1.0)
    patch.setflags(write=False)
    return patch


def intensity_map(rf: ReceptiveFieldMap, cells) -> np.ndarray:
    """Per-pixel highlight intensity in [0,1] for weighted cells: a radial
    falloff from each rectangle's center, scaled by its weight; overlaps take
    the max.  `cells` is an iterable of ((row, col), weight)."""
    out = np.zeros((rf.image_h, rf.image_w))
    for (row, col), weight in cells:
        if not (0.0 <= weight <= 1.0):
            raise ShapeError(f"cell weight {weight} outside [0, 1]")
        t, l, b, r = rf.rect(row, col)
        patch = weight * _unit_falloff(b - t + 1, r - l + 1)
        region = out[t : b + 1, l : r + 1]
        np.maximum(region, patch, out=region)
    return out


def render_heatmap(image: np.ndarray, cells, rf: ReceptiveFieldMap) -> np.ndarray:
    """Grayscale image with its highlighted receptive-field rectangles
    blended toward white; geometry preserved."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError(f"image must be HxW grayscale, got shape {img.shape}")
    alpha = intensity_map(rf, cells)
    return (1.0 - alpha) * img + alpha


def render_composite(composite: np.ndarray, distractor: np.ndarray, edits, rf: ReceptiveFieldMap):
    """Paste the distractor's highlighted patch of each edit of `edits`, in
    order, onto `composite`, a float64 array of the query's shape, in place;
    the distractor is checked once.

    Query and distractor share the receptive fields `rf`.  The two
    receptive-field rectangle centers are aligned; the highlight
    intensity over the distractor is the per-pixel alpha.  Source pixels that
    fall outside either image are skipped.  Only the distractor rectangle,
    moved and clipped to the query, is blended, with the cached falloff of
    its size as alpha; alpha is zero everywhere else.
    """
    dimg = np.asarray(distractor, dtype=np.float64)
    if composite.shape != dimg.shape:
        raise ShapeError(f"query shape {composite.shape} != distractor shape {dimg.shape}")
    for i, j, i2, j2 in edits:
        cy_q, cx_q = rf.rect_center(i, j)
        t, l, b, r = rf.rect(i2, j2)
        dy = int(round(cy_q - (t + b) / 2.0))
        dx = int(round(cx_q - (l + r) / 2.0))
        # destination rows [dst_t, dst_b) and columns [dst_l, dst_r) in the query
        dst_t, dst_l = max(t + dy, 0), max(l + dx, 0)
        dst_b, dst_r = min(b + 1 + dy, dimg.shape[0]), min(r + 1 + dx, dimg.shape[1])
        if dst_t < dst_b and dst_l < dst_r:
            a = _unit_falloff(b - t + 1, r - l + 1)[dst_t - dy - t : dst_b - dy - t, dst_l - dx - l : dst_r - dx - l]
            region = composite[dst_t:dst_b, dst_l:dst_r]
            region[...] = (1.0 - a) * region + a * dimg[dst_t - dy : dst_b - dy, dst_l - dx : dst_r - dx]


@dataclass(frozen=True)
class RenderedExplanation:
    query_heatmap: np.ndarray
    distractor_heatmap: np.ndarray
    composite: np.ndarray


def render_explanation(
    query_image, distractor_image, result: ExplanationResult, rf: ReceptiveFieldMap
) -> RenderedExplanation:
    """Standard renders for one result: per-edit weights decay with rank."""
    n = max(len(result.edits), 1)
    weights = [1.0 - 0.5 * k / n for k in range(len(result.edits))]
    q_cells = [((i, j), wt) for (i, j, _, _), wt in zip(result.edits, weights)]
    d_cells = [((i2, j2), wt) for (_, _, i2, j2), wt in zip(result.edits, weights)]
    qh = render_heatmap(query_image, q_cells, rf)
    dh = render_heatmap(distractor_image, d_cells, rf)
    comp = np.array(query_image, dtype=np.float64)
    render_composite(comp, distractor_image, result.edits, rf)
    return RenderedExplanation(qh, dh, comp)


# ---------------------------------------------------------------------------
# explanation records
# ---------------------------------------------------------------------------

def result_to_record(
    result: ExplanationResult,
    rf_query: ReceptiveFieldMap | None = None,
    rf_distractor: ReceptiveFieldMap | None = None,
    config: SearchConfig | None = None,
    extra: dict | None = None,
) -> dict:
    edits = []
    for (i, j, i2, j2) in result.edits:
        entry = {"cell": [i, j], "source": [i2, j2]}
        if rf_query is not None:
            entry["cell_rect"] = list(rf_query.rect(i, j))
        if rf_distractor is not None:
            entry["source_rect"] = list(rf_distractor.rect(i2, j2))
        edits.append(entry)
    record = {
        "record_version": RECORD_VERSION,
        "query_id": result.query_id,
        "distractor_id": result.distractor_id,
        "query_class": result.query_class,
        "target_class": result.target_class,
        "status": result.status,
        "grid": {"h": result.edits.h, "w": result.edits.w},
        "edits": edits,
        "trajectory": [[a, b] for a, b in result.trajectory],
    }
    if config is not None:
        record["config"] = config.to_json()
    if extra:
        record.update(extra)
    return record


def record_to_result(record: dict) -> ExplanationResult:
    if not isinstance(record, dict):
        raise FormatError(f"record must be a JSON object, got {type(record).__name__}")
    required = ("record_version", "grid", "edits", "trajectory", "status", "query_class", "target_class")
    for key in required:
        if key not in record:
            raise FormatError(f"record missing field {key!r}")
    version = record["record_version"]
    if not (is_number(version, integer=True) and version == RECORD_VERSION):
        raise FormatError(f"unsupported record_version {version!r}")
    for key in ("query_class", "target_class"):
        if not (is_number(record[key], integer=True) and record[key] >= 0):
            raise FormatError(f"record {key} must be a nonnegative integer, got {record[key]!r}")
    g = record["grid"]
    if not (isinstance(g, dict) and all(is_number(g.get(k), integer=True) and g[k] > 0 for k in "hw")):
        raise FormatError(f"record grid must hold positive integers h and w, got {g!r}")
    # every log-probability the search writes is finite and at most 0; json reads NaN and Infinity too
    trajectory = record["trajectory"]
    if not (isinstance(trajectory, list) and all(
        isinstance(e, list) and len(e) == 2 and all(is_number(v) and -np.inf < v <= 0 for v in e) for e in trajectory
    )):
        raise FormatError("record trajectory must be a list of pairs of finite log-probabilities, each at most 0")
    edits = record["edits"]
    if not (isinstance(edits, list) and all(
        isinstance(e, dict) and all(isinstance(e.get(k), list) and len(e[k]) == 2 for k in ("cell", "source"))
        for e in edits
    )):
        raise FormatError("record edits must be a list of objects, each with a 2-element cell and source")
    ids = [record.get(key, "") for key in ("query_id", "distractor_id")]
    if not all(isinstance(v, str) for v in ids):
        raise FormatError(f"record query_id and distractor_id must be strings, got {ids!r}")
    try:
        return ExplanationResult(
            EditList(tuple(tuple(e["cell"] + e["source"]) for e in edits), g["h"], g["w"]),
            tuple((a, b) for a, b in trajectory),
            record["status"],
            record["query_class"],
            record["target_class"],
            *ids,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed record: {exc!r}") from exc


def write_explanation(
    result: ExplanationResult,
    renders: RenderedExplanation | None,
    out_dir: str,
    rf_query: ReceptiveFieldMap | None = None,
    rf_distractor: ReceptiveFieldMap | None = None,
    config: SearchConfig | None = None,
    prefix: str = "explanation",
    extra: dict | None = None,
) -> dict:
    """Write PGM rasters, checked together before any file is written, then
    the record JSON; returns {name: path}."""
    if not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    record = result_to_record(result, rf_query, rf_distractor, config, extra)
    paths = {"record": os.path.join(out_dir, f"{prefix}.json")}
    if renders is not None:
        names = ("query_heatmap", "distractor_heatmap", "composite")
        paths.update((name, os.path.join(out_dir, f"{prefix}_{name}.pgm")) for name in names)
        write_rasters([paths[name] for name in names], [getattr(renders, name) for name in names])
    write_json(paths["record"], record)
    return paths


def read_explanation(record_path: str) -> tuple[ExplanationResult, dict]:
    try:
        record = read_json(record_path)
    except OSError as exc:
        raise FormatError(f"{record_path}: {exc}") from exc
    return record_to_result(record), record

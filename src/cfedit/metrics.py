"""Quantitative analysis of explanations.

Covers the measurement procedures used to audit the search: edit-count
statistics, agreement of the selected query cell across distractors (same
class vs cross class), fidelity of the relaxed solver against exhaustive
search, and hit rates of selected regions against segmentation masks and
keypoint annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import AnnotationSet
from .errors import ShapeError
from .network import ModelBundle, forward_features
from .relaxed import RelaxOptConfig, best_edit_relaxed
from .render import ReceptiveFieldMap
from .search import best_edit_exhaustive


@dataclass
class MetricReport:
    name: str
    value: float | None
    count: int
    samples: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "count": self.count,
            "samples": self.samples,
            "extras": self.extras,
        }


# ---------------------------------------------------------------------------
# edit-count statistics
# ---------------------------------------------------------------------------

def avg_edit_count(results) -> MetricReport:
    results = list(results)
    if not results:
        raise ShapeError("no results supplied")
    flipped = [r.edit_count for r in results if r.status == "flipped"]
    flip_rate = len(flipped) / len(results)
    extras = {"flip_rate": flip_rate, "exhausted": len(results) - len(flipped)}
    if not flipped:
        return MetricReport("avg_edit_count", None, len(results), extras=extras)
    counts = np.array(flipped)
    hist = {}
    for c in counts:
        hist[int(c)] = hist.get(int(c), 0) + 1
    extras.update({"median": float(np.median(counts)), "histogram": hist})
    return MetricReport(
        "avg_edit_count",
        float(counts.mean()),
        len(results),
        samples=[r.edit_count if r.status == "flipped" else None for r in results],
        extras=extras,
    )


# ---------------------------------------------------------------------------
# query-cell agreement across distractors
# ---------------------------------------------------------------------------

def _agreement(model: ModelBundle, queries) -> tuple[int, int, list]:
    """Pairwise agreement of the best edit's query cell across each query's
    distractors.  `queries` holds (query_image, [(distractor_image,
    target_class)]) entries, or None for a skipped query.  Returns the agreeing
    and total pair counts and each query's rate (None where skipped)."""
    agree = total = 0
    per_query = []
    for entry in queries:
        if entry is None:
            per_query.append(None)
            continue
        query_image, distractors = entry
        F = forward_features(model, query_image)
        cells = [
            best_edit_exhaustive(model, F, forward_features(model, d), c)[0] for d, c in distractors
        ]
        pairs = [(a, b) for k, a in enumerate(cells) for b in cells[k + 1 :]]
        hits = sum(a == b for a, b in pairs)
        agree += hits
        total += len(pairs)
        per_query.append(hits / len(pairs))
    return agree, total, per_query


def agreement_same_class(model: ModelBundle, samples) -> MetricReport:
    """Agreement of the selected query cell across same-class distractors.

    `samples` is a list of (query_image, target_class, [distractor_images]).
    Queries with fewer than 2 distractors are skipped with a note.
    """
    queries = [
        (q, [(d, target_class) for d in distractors]) if len(distractors) >= 2 else None
        for q, target_class, distractors in samples
    ]
    agree, total, per_query = _agreement(model, queries)
    if total == 0:
        raise ShapeError("no query had at least 2 usable distractors")
    return MetricReport(
        "agreement_same_class",
        agree / total,
        len(samples),
        samples=per_query,
        extras={"pairs": total, "skipped": per_query.count(None)},
    )


def agreement_cross_class(model: ModelBundle, samples) -> MetricReport:
    """As agreement_same_class, with distractors drawn from different classes.

    `samples` is a list of (query_image, [(distractor_image, target_class)]);
    each query's distractors must span at least 2 classes.
    """
    if any(len({c for _, c in distractors}) < 2 for _, distractors in samples):
        raise ShapeError("cross-class agreement needs distractors from at least 2 classes")
    agree, total, per_query = _agreement(model, samples)
    if total == 0:
        raise ShapeError("no usable queries supplied")
    return MetricReport(
        "agreement_cross_class", agree / total, len(samples), samples=per_query, extras={"pairs": total}
    )


# ---------------------------------------------------------------------------
# relaxed-vs-exhaustive fidelity
# ---------------------------------------------------------------------------

def relaxation_fidelity(
    model: ModelBundle, instances, opt: RelaxOptConfig = RelaxOptConfig(), use_relaxed=True
) -> MetricReport:
    """Exact-match rate and discrete probability ratio of the relaxed solver
    against exhaustive search.

    `instances` is a list of (F, F2, target_class, excluded_query,
    excluded_source).  `use_relaxed=False` self-compares exhaustive search
    (a calibration identity).
    """
    matches = []
    ratios = []
    for F, F2, target_class, exq, exs in instances:
        ei, ej, escore = best_edit_exhaustive(model, F, F2, target_class, exq, exs)
        if use_relaxed:
            ri, rj, rscore, _ = best_edit_relaxed(model, F, F2, target_class, exq, exs, opt)
        else:
            ri, rj, rscore = ei, ej, escore
        matches.append((ri, rj) == (ei, ej))
        ratios.append(float(np.exp(rscore - escore)))
    if not matches:
        raise ShapeError("no instances supplied")
    return MetricReport(
        "relaxation_fidelity",
        float(np.mean(matches)),
        len(matches),
        samples=[{"match": bool(m), "prob_ratio": r} for m, r in zip(matches, ratios)],
        extras={"match_rate": float(np.mean(matches)), "mean_prob_ratio": float(np.mean(ratios))},
    )


# ---------------------------------------------------------------------------
# annotation hit rates
# ---------------------------------------------------------------------------

def _nearest_keypoint(kps, cy, cx):
    best = None
    best_d = np.inf
    for kp in kps:
        if not kp.visible:
            continue
        dist = np.hypot(kp.y - cy, kp.x - cx)
        if dist < best_d:
            best, best_d = kp, dist
    return best, best_d


def region_annotation_hit_rate(
    results,
    annotations: AnnotationSet,
    rf_query: ReceptiveFieldMap,
    rf_distractor: ReceptiveFieldMap,
    radius: float | None = None,
) -> MetricReport:
    """Segmentation and keypoint hit rates of selected cells.

    Rates reported: rectangle-center-in-mask for query and distractor cells,
    center-within-`radius`-of-a-visible-keypoint for both, and the fraction of
    edits whose query and distractor rectangles are nearest to the same
    keypoint name.  Default radius: half the receptive-field stride.
    """
    if radius is None:
        radius = rf_query.stride / 2.0
    skipped = 0
    per_edit = []
    for result in results:
        if result.query_id not in annotations or result.distractor_id not in annotations:
            skipped += 1
            continue
        ann_q = annotations[result.query_id]
        ann_d = annotations[result.distractor_id]
        for (i, j, i2, j2) in result.edits:
            cy_q, cx_q = rf_query.rect_center(i, j)
            cy_d, cx_d = rf_distractor.rect_center(i2, j2)
            nq, dq = _nearest_keypoint(ann_q.keypoints, cy_q, cx_q)
            nd, dd = _nearest_keypoint(ann_d.keypoints, cy_d, cx_d)
            per_edit.append(
                {
                    "query_id": result.query_id,
                    "distractor_id": result.distractor_id,
                    "seg_query": bool(ann_q.mask[int(round(cy_q)), int(round(cx_q))]),
                    "seg_distractor": bool(ann_d.mask[int(round(cy_d)), int(round(cx_d))]),
                    "kp_query": nq is not None and dq <= radius,
                    "kp_distractor": nd is not None and dd <= radius,
                    "same_keypoint": nq is not None and nd is not None and nq.name == nd.name,
                }
            )
    if not per_edit:
        raise ShapeError("no edits with annotations available")
    rates = ("seg_query", "seg_distractor", "kp_query", "kp_distractor", "same_keypoint")
    extras = {key: float(np.mean([row[key] for row in per_edit])) for key in rates}
    extras.update(radius=radius, skipped_results=skipped)
    return MetricReport(
        "region_annotation_hit_rate", extras["seg_query"], len(per_edit), samples=per_edit, extras=extras
    )


# ---------------------------------------------------------------------------
# distractor selection policies
# ---------------------------------------------------------------------------

def pick_distractor_class_random(class_count: int, query_class: int, rng) -> int:
    choices = [c for c in range(class_count) if c != query_class]
    return int(rng.choice(choices))

def pick_distractor_class_nearest(attributes: dict, query_class: int) -> int:
    """Class whose mean attribute vector is nearest to the query class's."""
    ref = np.asarray(attributes[query_class], dtype=np.float64)
    best, best_d = None, np.inf
    for cls in sorted(attributes):
        if cls == query_class:
            continue
        dist = float(np.linalg.norm(np.asarray(attributes[cls], dtype=np.float64) - ref))
        if dist < best_d:
            best, best_d = cls, dist
    if best is None:
        raise ShapeError("attribute table needs at least 2 classes")
    return best


def pick_distractor_image_random(candidate_indices, rng) -> int:
    candidates = list(candidate_indices)
    if not candidates:
        raise ShapeError("no candidate distractor images")
    return int(rng.choice(candidates))


def pick_distractor_image_nearest_keypoints(
    annotations: AnnotationSet, query_id: str, candidate_ids
) -> str:
    """Candidate whose visible keypoints are closest to the query's, by mean
    distance over shared keypoint names."""
    q = {k.name: (k.y, k.x) for k in annotations[query_id].keypoints if k.visible}
    best, best_d = None, np.inf
    for cid in candidate_ids:
        c = {k.name: (k.y, k.x) for k in annotations[cid].keypoints if k.visible}
        shared = sorted(set(q) & set(c))
        if not shared:
            continue
        dist = float(np.mean([np.hypot(q[n][0] - c[n][0], q[n][1] - c[n][1]) for n in shared]))
        if dist < best_d:
            best, best_d = cid, dist
    if best is None:
        raise ShapeError("no candidate shares visible keypoints with the query")
    return best

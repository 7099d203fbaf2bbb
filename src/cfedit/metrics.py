"""Quantitative analysis of explanations.

Covers the measurement procedures used to audit the search: edit-count
statistics, agreement of the selected query cell across distractors (same
class vs cross class), and fidelity of the relaxed solver against exhaustive
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .network import ModelBundle, forward_features
from .relaxed import RelaxOptConfig, best_pair_edits
from .search import EditProblem, best_edit_exhaustive


@dataclass
class MetricReport:
    name: str
    value: float | None
    count: int
    samples: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


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
    hist = {}  # keyed by str(count), as JSON keys are strings: the report reloads to itself
    for c in counts:
        hist[str(c)] = hist.get(str(c), 0) + 1
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
    excluded_source), each posed as one `search.EditProblem`, all of them
    checked before any is solved.  The relaxed solver runs the problems as
    lockstep batches in one `best_pair_edits` call, which stores nothing on
    them; then exhaustive search steps each problem once, and drops it, with
    the contraction and bound its step stored.  Each relaxed sample also
    holds the solver's step count and whether its last step met the stop
    test.  `use_relaxed=False` self-compares exhaustive search (a
    calibration identity).
    """
    problems = [EditProblem(model, *model.check_grids(F, F2), *posed) for F, F2, *posed in instances]
    if not problems:
        raise ShapeError("no instances supplied")
    solved = best_pair_edits(model, problems, opt) if use_relaxed else [None] * len(problems)
    samples = []
    for k, relaxed_edit in enumerate(solved):
        problem, problems[k] = problems[k], None
        ei, ej, elp = problem.step()
        ri, rj, rlp, *work = relaxed_edit or (ei, ej, elp)
        t = problem.target
        sample = {"match": (ri, rj) == (ei, ej), "prob_ratio": float(np.exp(rlp[t] - elp[t]))}
        if work:
            steps, converged = work
            sample.update(steps=steps, converged=converged)
        samples.append(sample)
    match_rate = float(np.mean([s["match"] for s in samples]))
    extras = {"match_rate": match_rate, "mean_prob_ratio": float(np.mean([s["prob_ratio"] for s in samples]))}
    if use_relaxed:
        extras["mean_steps"] = float(np.mean([s["steps"] for s in samples]))
        extras["converged_rate"] = float(np.mean([s["converged"] for s in samples]))
    return MetricReport("relaxation_fidelity", match_rate, len(samples), samples=samples, extras=extras)

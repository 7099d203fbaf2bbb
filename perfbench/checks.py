"""Output checks run outside the timed region.

Each check returns a list of problem strings; an empty list means the output
is correct. The brute-force oracle is kept here, independent of
`search.candidate_scores`: it builds every singly-edited grid one at a time
and scores it with `head_logprobs`.
"""

from __future__ import annotations

import numpy as np

from cfedit import grids, network

# Scores within this distance of the best count as tied; among tied edits the
# search must pick the smallest (query cell, source cell), as the oracle does.
TIE_TOL = 1e-12


def oracle_best_edit(model, F, F2, target_class, excluded_query=(), excluded_source=()):
    """(query cell, source cell, score) of the best single edit, by brute force."""
    n = F.cells
    scores = np.full((n, n), -np.inf)
    for i in range(n):
        if i in excluded_query:
            continue
        for j in range(n):
            if j in excluded_source:
                continue
            values = F.values.copy()
            values[i] = F2.values[j]
            edited = grids.FeatureGrid(F.h, F.w, F.d, values)
            scores[i, j] = network.head_logprobs(model, edited)[target_class]
    best = scores.max()
    tol = TIE_TOL * max(1.0, abs(best))
    i, j = divmod(int(np.flatnonzero(scores >= best - tol)[0]), n)
    return i, j, float(scores[i, j])


def check_first_edit(result, oracle, w):
    """The result's first edit must be the oracle's best edit."""
    if not len(result.edits):
        return ["no edit was committed; the oracle expects one"]
    i, j, i2, j2 = result.edits.edits[0]
    got = (i * w + j, i2 * w + j2)
    if got != oracle[:2]:
        return [f"first edit {got} differs from oracle best edit {oracle[:2]} (score {oracle[2]!r})"]
    return []


def check_explanation(model, result, F, F2, query_class, target_class, exclusion_policy, max_edits):
    """Trajectory and status invariants of one greedy explanation.

    The edits are replayed one at a time on F, independently of the search,
    and every replayed state must match the recorded trajectory.
    """
    problems = []
    traj = result.trajectory
    if len(traj) != result.edit_count + 1:
        problems.append(f"trajectory has {len(traj)} entries for {result.edit_count} edits")
    if (result.query_class, result.target_class) != (query_class, target_class):
        problems.append(
            f"classes ({result.query_class}, {result.target_class}) != ({query_class}, {target_class})"
        )
    sources = result.edits.source_cells()
    if exclusion_policy == "query-and-distractor-cells" and len(set(sources)) != len(sources):
        problems.append("a source cell was used twice under query-and-distractor-cells")
    values = F.values.copy()
    states = [network.head_logprobs(model, F)]
    for q, s in zip(result.edits.query_cells(), sources):
        values[q] = F2.values[s]
        states.append(network.head_logprobs(model, grids.FeatureGrid(F.h, F.w, F.d, values)))
    for k, (lp, (a, b)) in enumerate(zip(states, traj)):
        if abs(lp[query_class] - a) > 1e-9 or abs(lp[target_class] - b) > 1e-9 or a > 0 or b > 0:
            problems.append(f"trajectory step {k} is {(a, b)}, replay gives {(lp[query_class], lp[target_class])}")
    reached = [lp.argmax() == target_class for lp in states]
    if result.status == "flipped" and not (reached[-1] and not any(reached[:-1])):
        problems.append(f"status flipped but the target is reached at steps {reached}")
    elif result.status == "exhausted" and (any(reached) or result.edit_count != max_edits):
        problems.append(f"status exhausted after {result.edit_count} of {max_edits} edits, reached {reached}")
    elif result.status not in ("flipped", "exhausted"):
        problems.append(f"unknown status {result.status!r}")
    return problems


# The relaxed solver scores its edit on one grid and exhaustive search scores
# a batch, so the same edit can differ in the last bits of its log-probability.
RATIO_TOL = 1e-9


def check_fidelity(report, calibration):
    """Relaxed-vs-exhaustive samples and the exhaustive self-comparison of
    the same instances."""
    problems = []
    if calibration.value != 1.0 or any(s["prob_ratio"] != 1.0 for s in calibration.samples):
        problems.append(f"exhaustive self-comparison gave match rate {calibration.value}")
    for k, sample in enumerate(report.samples):
        ratio = sample["prob_ratio"]
        if not (0.0 < ratio <= 1.0 + RATIO_TOL):
            problems.append(f"instance {k}: relaxed edit beats the exhaustive optimum: prob ratio {ratio!r}")
        if sample["match"] and abs(ratio - 1.0) > RATIO_TOL:
            problems.append(f"instance {k}: matching edit has prob ratio {ratio!r}")
    return problems

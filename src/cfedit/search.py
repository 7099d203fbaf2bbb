"""Best-edit search over cell pairs and the greedy sequential edit loop.

One search step tries every non-excluded (query cell, distractor cell) pair,
scores the edited grid by the decision head's log-probability for the target
class, and keeps the best pair (ties broken by smallest query index, then
smallest source index).  The greedy loop repeats this on the evolving grid,
excluding already-used cells, until the model's decision flips to the target
class or the candidate budget runs out.

Scoring all (hw)^2 single edits does not build the edited grids when the head
begins flatten -> dense: an edit changes one cell, so its pre-activation in
that first dense layer is the unedited one plus the cell's difference times
that cell's block of the weight, and only the rest of the head runs per
candidate.  Heads with any other first layer fall back to building the edited
grids and running the whole head.  Either way only the query cells still open
are scored, and of the final log-softmax only the target class is computed,
bit-identical to that column of the full output.  Both paths work through a
fixed number of values per block of query cells, so memory stays bounded as
the grid grows.

A greedy step only changes the query cell it then closes, so the query cells
still open keep their unedited values at every step of a pair.  For a head
that begins flatten -> dense, greedy carries its state from one exhaustive
step to the next instead of rebuilding the edited grid: the current grid's
pre-activation z0 in that first dense layer, and the edit contraction of all
query cells, computed once per pair and kept only when its hw·hw·units
values, and the differences they are made from, fit in one block (larger
grids compute each block's rows, and each committed edit's one row, per
step).  Committing edit (i, j) adds its contraction row to z0, which equals
the pre-activation of that scored candidate bit for bit, because IEEE
addition commutes.  Each scored block keeps the head logits of its best
candidate, so a trajectory entry is the full log-softmax of the committed
candidate's scored row: its target entry is the score that chose the edit,
bit for bit, and no per-step edited grid or one-grid head pass is built.
Other heads, and the relaxed strategy, still apply each edit to a grid and
run the head on it.  Query and distractor go through the extractor as one
two-image batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError, is_number
from .grids import EditList, FeatureGrid, open_cells, single_edit
from .network import (
    ModelBundle,
    _forward_owned,
    _log_softmax,
    forward_feature_pair,
    forward_layers,
    head_logprobs,
)
from .relaxed import RelaxOptConfig, best_edits_relaxed

# float64 values one block of query cells may hold in candidate_scores (16 MB);
# only open query cells are scored, and only the target class's log-probability
# is kept
_BLOCK_VALUES = 1 << 21


@dataclass(frozen=True)
class SearchConfig:
    exclusion_policy: str = "query-and-distractor-cells"  # or "query-cells-only"
    max_edits: int | None = None  # default: hw
    relax: RelaxOptConfig | None = None  # None: exhaustive search

    def __post_init__(self):
        if self.exclusion_policy not in ("query-cells-only", "query-and-distractor-cells"):
            raise FormatError(f"unknown exclusion policy {self.exclusion_policy!r}")
        max_edits = self.max_edits
        if not (max_edits is None or is_number(max_edits, integer=True) and max_edits > 0):
            raise FormatError(f"max_edits must be a positive integer, got {max_edits!r}")

    def to_json(self) -> dict:
        out = {
            "exclusion_policy": self.exclusion_policy,
            "max_edits": self.max_edits,
            "strategy": "exhaustive" if self.relax is None else "relaxed",
        }
        if self.relax is not None:
            out["relax"] = self.relax.to_json()
        return out


@dataclass(frozen=True)
class ExplanationResult:
    """Ordered edits, the log-prob trajectory around them, and how the loop ended."""

    edits: EditList
    trajectory: tuple  # (len(edits)+1) pairs of (logp_original_class, logp_target_class)
    status: str  # "flipped" | "exhausted"
    query_class: int
    target_class: int
    query_id: str = ""
    distractor_id: str = ""

    def __post_init__(self):
        traj = tuple((float(a), float(b)) for a, b in self.trajectory)
        if len(traj) != len(self.edits) + 1:
            raise ShapeError("trajectory must have one entry per edit plus the pre-edit state")
        if self.status not in ("flipped", "exhausted"):
            raise ShapeError(f"unknown status {self.status!r}")
        object.__setattr__(self, "trajectory", traj)

    @property
    def edit_count(self) -> int:
        return len(self.edits)


def best_edit_exhaustive(
    model: ModelBundle,
    F: FeatureGrid,
    F2: FeatureGrid,
    target_class: int,
    excluded_query=(),
    excluded_source=(),
    carry=None,
) -> tuple[int, int, float]:
    """Single edit maximizing the target-class log-probability over all
    non-excluded (query cell, source cell) pairs. Returns (i, j2, score).
    `carry` is passed on to `candidate_scores`."""
    open_q, open_s = open_cells(F.cells, excluded_query, excluded_source)
    scores = candidate_scores(model, F, F2, target_class, np.flatnonzero(open_q), carry, open_s)
    flat = int(np.argmax(scores))  # first occurrence: smallest i, then smallest j2
    i, j2 = divmod(flat, F.cells)
    return i, j2, float(scores[i, j2])


def candidate_scores(
    model: ModelBundle, F: FeatureGrid, F2: FeatureGrid, target_class: int, rows, carry=None, sources=None
) -> np.ndarray:
    """Target-class log-probability of every single edit of the query cells
    `rows` (indices, ascending), as an (hw, hw) array indexed by (query cell,
    source cell); every other row, and every source column outside the
    boolean mask `sources` (None: all), is -inf.

    When the head begins flatten -> dense with weight W and bias b, the first
    dense output of edit (i, j) is z0 + (F2[j] - F[i]) . W_i, where
    z0 = vec(F) . W + b and W_i is the (d, units) block of W for cell i; only
    the layers after that dense layer run on the candidates.  The difference
    is taken before the product, so no-op edits (F2[j] == F[i]) and identical
    source rows score bit-identically.  Any other head is scored by building
    the edited grids and running the whole head.  Both paths end in the
    target column of the log-softmax, and a row's scores do not depend on
    which other rows are scored with it.

    `carry`, a `_Carry` of the grid pair, supplies z0 and the contraction in
    place of F's (F's rows `rows` must equal the carry's query grid's), and
    gets the head logits of the best candidate scored here, found under the
    same tie rule as `best_edit_exhaustive`.  None computes z0 here and the
    contraction one block at a time.
    """
    model.check_grids(F, F2)
    n, d = F.values.shape
    head = model.head
    if _begins_dense(head):
        state = _Carry(model, F, F2, store=False) if carry is None else carry
        per_cell = n * (d + state.W.shape[2])

        def logits(q):
            z = state.contraction_rows(F, F2, q)  # a fresh array, so the head runs in place on it
            z += state.z0
            return _forward_owned(head[2:-1], z.reshape(len(q) * n, -1))

    else:
        per_cell = n * n * d

        def logits(q):
            grids = np.broadcast_to(F.values, (len(q), n, n, d)).copy()
            grids[np.arange(len(q))[:, None], np.arange(n), q[:, None], :] = F2.values
            return forward_layers(head[:-1], grids.reshape(len(q) * n, F.h, F.w, d))

    step = max(1, _BLOCK_VALUES // per_cell)
    rows = np.asarray(rows, dtype=int)
    out = np.full((n, n), -np.inf)
    best = None
    for lo in range(0, len(rows), step):
        q = rows[lo : lo + step]
        z = logits(q)
        block = _log_softmax(z, target_class).reshape(len(q), n)
        if sources is not None:
            block[:, ~sources] = -np.inf
        out[q] = block
        if carry is not None:
            k = int(np.argmax(block))  # blocks come in row order, so a later block must beat it strictly
            if best is None or block.flat[k] > best[0]:
                best = (block.flat[k], z[k : k + 1].copy())
    if carry is not None:
        carry.best_logits = None if best is None else best[1]
    return out


def _begins_dense(head) -> bool:
    return head[0].spec.kind == "flatten" and head[1].spec.kind == "dense"


def _contract(F, F2, W, q):
    """(F2[j] - F[i]) . W_i for the query cells i in `q`, as (len(q), hw, units)."""
    return np.matmul(F2.values[None] - F.values[q, None, :], W[q])


class _Carry:
    """What greedy carries between the exhaustive steps of one pair, for a
    head that begins flatten -> dense: the current grid's pre-activation z0
    in that dense layer, the edit contraction (F2[j] - F[i]) . W_i of the
    query grid F when it is stored, and the (1, classes) head logits of the
    best candidate the last scoring saw."""

    def __init__(self, model: ModelBundle, F: FeatureGrid, F2: FeatureGrid, store: bool):
        weight, bias = model.head[1].weights["weight"], model.head[1].weights["bias"]
        n, d = F.values.shape
        self.W = weight.reshape(n, d, -1)
        self.z0 = F.values.reshape(-1) @ weight + bias
        # the (hw, hw, units) contraction is kept only when it, and the
        # differences it is made from, fit in one block of `_BLOCK_VALUES`
        fits = n * n * (d + weight.shape[1]) <= _BLOCK_VALUES
        self.contraction = _contract(F, F2, self.W, np.arange(n)) if store and fits else None
        self.best_logits = None

    def contraction_rows(self, F, F2, q):
        """The contraction of the query cells `q` as a new (len(q), hw, units) array."""
        return _contract(F, F2, self.W, q) if self.contraction is None else self.contraction[q]

    def commit(self, F, F2, i: int, j2: int) -> np.ndarray:
        """Apply edit (i, j2), the best candidate of the last scoring, to z0,
        and return the edited grid's log-probabilities from its scored row."""
        self.z0 = self.z0 + self.contraction_rows(F, F2, [i])[0, j2]
        return _log_softmax(self.best_logits)[0]


def greedy_counterfactual(
    model: ModelBundle,
    query_image: np.ndarray,
    distractor_image: np.ndarray,
    target_class: int,
    config: SearchConfig = SearchConfig(),
    query_id: str = "",
    distractor_id: str = "",
) -> ExplanationResult:
    """Edit f(query) toward f(distractor) until the decision flips to
    `target_class` (Greedy Sequential Search)."""
    F, F2 = forward_feature_pair(model, query_image, distractor_image)
    lp = head_logprobs(model, F)
    query_class = int(lp.argmax())
    distractor_class = head_logprobs(model, F2).argmax()
    if distractor_class != target_class:
        warnings.warn(
            f"distractor is predicted as class {distractor_class}, "
            f"not the requested target class {target_class}",
            stacklevel=2,
        )

    h, w = F.h, F.w
    # every step closes its query cell, so no run can outlast the cell count
    max_edits = min(config.max_edits or F.cells, F.cells)
    excluded_q: list[int] = []
    excluded_s: list[int] = []
    quads = []
    trajectory = [(lp[query_class], lp[target_class])]
    # open query cells keep their unedited values, so a carry scores every step on F
    carry = _Carry(model, F, F2, store=True) if config.relax is None and _begins_dense(model.head) else None
    current = F
    status = "flipped" if query_class == target_class else "exhausted"
    while status == "exhausted" and len(quads) < max_edits:
        step = (current, F2, target_class, excluded_q, excluded_s)
        if config.relax is None:
            i, j2, _ = best_edit_exhaustive(model, *step, carry=carry)
        else:
            i, j2, *_ = best_edits_relaxed(model, [step], config.relax)[0]
        quads.append((i // w, i % w, j2 // w, j2 % w))
        excluded_q.append(i)
        if config.exclusion_policy == "query-and-distractor-cells":
            excluded_s.append(j2)
        if carry is None:
            current = single_edit(current, F2, i, j2)
            lp = head_logprobs(model, current)
        else:
            lp = carry.commit(F, F2, i, j2)
        trajectory.append((lp[query_class], lp[target_class]))
        if lp.argmax() == target_class:
            status = "flipped"

    return ExplanationResult(
        EditList(tuple(quads), h, w),
        tuple(trajectory),
        status,
        query_class,
        target_class,
        query_id,
        distractor_id,
    )

"""Best-edit search over cell pairs and the greedy sequential edit loop.

One search step tries every non-excluded (query cell, distractor cell) pair,
scores the edited grid by the decision head's log-probability for the target
class, and keeps the best pair (ties broken by smallest query index, then
smallest source index).  The greedy loop repeats this on the evolving grid,
excluding already-used cells, until the model's decision flips to the target
class or the candidate budget runs out.

The head is flatten -> dense -> (dense | relu)* -> log-softmax, the one form
`ModelBundle` accepts, read here only as the bundle's parsed `mlp`.  Scoring
all (hw)^2 single edits builds no edited grid: an edit changes one cell, so
its pre-activation in the first dense layer is the unedited one plus the
cell's difference times that cell's block of the weight, and only the tail
of `mlp` after it runs per candidate (`EditProblem.logits`, the scorer of
both strategies).  Only the query cells still open are scored, and of the
final log-softmax only the target class is kept, bit-identical to that
column of the full output.  Scoring works through a fixed number of values
per block of query cells, so memory stays bounded as the grid grows.

Each search poses best-edit problems (`EditProblem`): a grid pair, its
target class and the masks of its open query and source cells, checked once
when built, and solved exhaustively by `EditProblem.step` or through the
relaxation by `relaxed.best_pair_edits`.  Greedy takes the query class from
the problem's unedited log-probabilities and the target class from its
caller, and runs no head pass on the distractor.

A greedy step only changes the query cell it then closes, so the query cells
still open keep their unedited values at every step of a pair, and greedy
poses one problem per pair, whose state it carries from one step to the next
instead of rebuilding the edited grid: the current grid's pre-activation z0
in that first dense layer, and the edit contraction of all query cells,
computed at the first step and kept only when its hw·hw·units values, and
the differences they are made from, fit in one block (larger grids compute
each block's rows, and each committed edit's one row, per step).
Committing edit (i, j) adds its contraction row to z0, which equals the
pre-activation of that scored candidate bit for bit, because IEEE addition
commutes, and closes its cells.  The log-softmax works on class columns, so
a row's value does not depend on its block, and a trajectory entry is the
committed candidate's row of its scored block, z - lse: its target entry is
the score that chose the edit, bit for bit, and no per-step edited grid or
one-grid head pass is built.  The relaxed strategy solves the same problem
(`relaxed.best_pair_edits` on the unedited grid, its z0 and its open masks)
and commits its edit's scored row the same way.  Query and distractor go
through the extractor as one two-image batch.

Most query cells cannot hold a step's best edit, and a step skips them
exactly (interval bound propagation, Gowal et al. 2018).  At its first step,
a problem reduces the contraction to its minimum and maximum over all
source cells, per query cell and unit.  At each step, z0 plus those
extremes is carried through the rest of the head as an interval: relu is
monotone, each dense weight acts through its positive and negative parts,
and the last dense layer's difference weights W[:, c] - W[:, target] give
lower bounds D_c of each logit difference.  So ub = -log(sum_c exp(D_c)),
with D_target = 0, is at least the score of every edit of that cell.  The
leader is a score some open candidate reaches: the best of the edits each
cell took when it was last scored, where that source is still open, or at
the first step the best edit of the cell with the largest bound.
Only the cells whose ub reaches the leader less a margin tau are scored, in
ascending order and block by block, and the step's argmax runs over those
blocks without an (hw, hw) array.  tau is the float64 rounding error these
computations can make, from the dot-product error
bound gamma_k (Higham 2002, ch. 3) over the magnitudes the step sees (|z0|
plus the largest |C|, |W| and |b|); it is about 1.6e-13 of G, the bound on
|logit| those magnitudes give, about 1e-11 on a 7x7 shapes model.  Every
cell that could reach or tie the best is scored.  Where a cell's scores do
not depend on which other cells are scored, as with SkylakeX OpenBLAS on
the tests' heads but not with Haswell (ROADMAP item 4), the chosen edit,
the tie rule, the trajectory and the records are what scoring every open
cell gives, bit for bit.  The bound is skipped below `_BOUND_CANDIDATES`
candidates per step, where scoring every open cell costs less than
bounding, and for the rest of a problem after a step whose bound keeps
every open cell, as it does on random weights.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BoundsError, ExhaustedError, FormatError, ShapeError, is_number
from .grids import EditList, FeatureGrid
from .network import ModelBundle, _finite, _log_softmax, _mlp_forward, _shift_lse, forward_feature_pair
from .relaxed import RelaxOptConfig, best_pair_edits

# float64 values one block of scored query cells may hold (16 MB);
# only open query cells are scored, and only the target class's log-probability
# is kept
_BLOCK_VALUES = 1 << 21
# candidates per step (hw * hw) from which greedy bounds each open query
# cell's best score and scores only the cells that can still reach the
# leader; below it, scoring every open cell costs less than the bound.
# Measured crossover, greedy time with the bound over without it, on the
# reference architecture trained on shapes: 1.35 at 4x4 (256 candidates),
# 1.13 at 5x5 (625), 0.99 at 6x6 (1296), 0.82 at 7x7 (2401)
_BOUND_CANDIDATES = 1250


# whether a committed edit closes its query cell only, or its source cell too
EXCLUSION_POLICIES = ("query-cells-only", "query-and-distractor-cells")


@dataclass(frozen=True)
class SearchConfig:
    exclusion_policy: str = "query-and-distractor-cells"
    max_edits: int | None = None  # default: hw
    relax: RelaxOptConfig | None = None  # None: exhaustive search

    def __post_init__(self):
        if self.exclusion_policy not in EXCLUSION_POLICIES:
            raise FormatError(f"unknown exclusion policy {self.exclusion_policy!r}")
        max_edits = self.max_edits
        if not (max_edits is None or is_number(max_edits, integer=True) and max_edits > 0):
            raise FormatError(f"max_edits must be a positive integer, got {max_edits!r}")

    def to_json(self) -> dict:
        """The fields, with no `relax` key for exhaustive search, and the strategy."""
        out = {k: v for k, v in asdict(self).items() if k != "relax" or v is not None}
        out["strategy"] = "relaxed" if "relax" in out else "exhaustive"
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
    model: ModelBundle, F: FeatureGrid, F2: FeatureGrid, target_class: int
) -> tuple[int, int, float]:
    """Single edit maximizing the target-class log-probability over all
    (query cell, source cell) pairs. Returns (i, j2, score)."""
    i, j2, lp = EditProblem(model, F, F2, target_class).step()
    return i, j2, float(lp[target_class])


class EditProblem:
    """One best-edit problem: the single-cell edits of the grid pair (F, F2)
    toward the target class, over the query and source cells that the
    boolean masks `open_q` and `open_s` leave open.  Edit (i, j) copies F2's
    cell j into F's cell i; its first dense output is z0 + C[i, j], with
    z0 = F.flat . W + b and the contraction C[i, j] = (F2[j] - F[i]) . W_i
    (W_i: cell i's (d, units) block of W), the difference taken first so
    that no-op edits and identical source rows score bit-identically.

    Building it checks the class, the grids' geometry and the excluded
    cells, raises ExhaustedError when either mask is empty, and computes
    `logprobs`, the unedited grid's log-probabilities, from z0 (FormatError
    unless finite).  `step` solves it exhaustively and
    `relaxed.best_pair_edits` through the relaxation, both scoring with
    `logits`; greedy `commit`s each step's edit, which moves z0 to the edited
    grid's and closes its cells.

    The first `step` stores the contraction when it fits, and on a grid of
    at least `_BOUND_CANDIDATES` candidates sets up the interval bound on
    each query cell's best score and the source cell each cell's best edit
    took when last scored (-1 before), from which each step picks the cells
    it scores (`rows_to_score`), until a step whose bound keeps every open
    cell.  A problem only the relaxed solver reads computes neither.  The
    scorer, the bound's set-up and `commit` read the contraction only
    through `contraction_rows`, stored or not."""

    def __init__(
        self, model: ModelBundle, F: FeatureGrid, F2: FeatureGrid, target: int, excluded_query=(), excluded_source=()
    ):
        model.check_class(target)
        model.check_grids(F, F2)
        (weight, bias), *tail = model.mlp
        self.F, self.F2, self.tail, self.target = F, F2, tuple(tail), target
        n, d = F.values.shape
        self.W = weight.reshape(n, d, -1)
        self.open_q, self.open_s = masks = np.ones((2, n), dtype=bool)
        for mask, cells in zip(masks, (list(excluded_query), list(excluded_source))):
            if not all(0 <= c < n for c in cells):
                raise BoundsError(f"excluded cells {cells} reach outside [0, {n})")
            mask[cells] = False
        if not (self.open_q.any() and self.open_s.any()):
            raise ExhaustedError("all candidate edits are excluded")
        self.z0 = F.values.reshape(-1) @ weight + bias
        # `_mlp_forward` overwrites its input, so it runs on a copy of z0
        self.logprobs = _finite(_log_softmax(_mlp_forward(self.tail, self.z0[None].copy()))[0])
        # query cells whose contraction, and the differences it is made from, fit in
        # one block of `_BLOCK_VALUES`; the first step keeps the whole contraction if all do
        self.block_rows = max(1, _BLOCK_VALUES // (n * (d + weight.shape[1])))
        self.contraction = self.bound = self.row_sources = None
        self.prepared = False

    def contraction_rows(self, q):
        """The contraction (F2[j] - F[i]) . W_i of the query cells i in `q`, as
        a (len(q), hw, units) array: a new one when `q` lists cells, a view
        of the stored contraction when `q` is a slice and it is stored."""
        if self.contraction is not None:
            return self.contraction[q]
        return np.matmul(self.F2.values[None] - self.F.values[q, None, :], self.W[q])

    def logits(self, q):
        """Head logits of the edits (q[k], j), as row k * hw + j of (len(q) * hw, classes)."""
        z = self.contraction_rows(q)  # a fresh array, so the tail runs in place on it
        z += self.z0
        return _mlp_forward(self.tail, z.reshape(len(q) * self.F.cells, -1))

    def edit_logprobs(self, i: int, j: int) -> np.ndarray:
        """The (classes,) log-probabilities of edit (i, j), from cell i's block."""
        z, lse = _shift_lse(self.logits([i]))
        return _finite(z[j] - lse[j])

    def _prepare(self):
        """The first step's set-up: the stored contraction, and the bound from
        the contraction's extremes over the source cells, block by block."""
        n, d, units = self.W.shape
        bounded = n * n >= _BOUND_CANDIDATES
        if n * n * (d + units) <= _BLOCK_VALUES:  # then block_rows >= n
            # source-major when bounded, so that its extremes over the source
            # cells reduce over the outermost axis; the products are the same
            out = np.empty((n, n, units)).transpose(1, 0, 2) if bounded else None
            self.contraction = np.matmul(self.F2.values[None] - self.F.values[:, None, :], self.W, out=out)
        if bounded:
            cmin, cmax = np.empty((n, units)), np.empty((n, units))
            for lo in range(0, n, self.block_rows):
                rows = slice(lo, lo + self.block_rows)
                C = self.contraction_rows(rows)
                C.min(axis=1, out=cmin[rows])
                C.max(axis=1, out=cmax[rows])
            self.bound = _RowBound(self.tail, cmin, cmax, self._pair_error(), self.target)
            self.row_sources = np.full(n, -1)
        self.prepared = True

    def _pair_error(self) -> float:
        """How far `_pair_logits`'s contraction values may lie from the
        scorer's: none when stored, else twice the gamma_d error bound of a
        length-d product of the differences, whose largest terms come from
        F2's extremes per channel."""
        if self.contraction is not None:
            return 0.0
        F, F2v = self.F, self.F2.values
        spread = np.maximum(F2v.max(axis=0) - F.values, F.values - F2v.min(axis=0))
        largest = np.einsum("ic,ick->ik", spread, np.abs(self.W)).max()
        return 2 * _gamma(F.values.shape[1]) * largest * (1 + 4 * _UNIT_ROUNDOFF)

    def blocks(self, rows):
        """Score the edits of the query cells `rows` (ascending) one block at
        a time.  Yields the block's cells q, their (len(q), hw) target-class
        log-probabilities, with the closed source columns at -inf, and the
        `_shift_lse` (z, lse) of their len(q) * hw rows, from which any
        row's log-softmax is z - lse."""
        for lo in range(0, len(rows), self.block_rows):
            q = rows[lo : lo + self.block_rows]
            z, lse = _shift_lse(self.logits(q))
            block = (z[:, self.target] - lse).reshape(len(q), -1)
            block[:, ~self.open_s] = -np.inf
            yield q, block, z, lse

    def step(self) -> tuple[int, int, np.ndarray]:
        """The best edit (i, j2) over the open query and source cells, ties
        going to the smallest i, then the smallest j2, and its full
        log-probabilities.  Bounded, it scores only the rows `rows_to_score`
        keeps, and stops bounding for good once the bound keeps them all.
        Raises FormatError when the best edit's scores are not finite."""
        if not self.prepared:
            self._prepare()
        rows = np.flatnonzero(self.open_q)
        if self.bound is not None:
            kept = self.rows_to_score(rows)
            if len(kept) == len(rows):
                self.bound = self.row_sources = None
            rows = kept
        # a head whose scores overflow to NaN may leave this edit in place
        best, (i, j2, lp) = -np.inf, (-1, -1, None)
        for q, block, z, lse in self.blocks(rows):
            if self.row_sources is not None:
                self.row_sources[q] = block.argmax(axis=1)
            k = int(np.argmax(block))  # blocks come in row order, so a later block must beat it strictly
            if block.flat[k] > best:
                r, j2 = divmod(k, block.shape[1])
                best, i, lp = block.flat[k], int(q[r]), z[k] - lse[k]
        return i, j2, _finite(lp)

    def _pair_logits(self, i, j):
        """Head logits of the edits (i[k], j[k]), as (len(i), classes), within
        `_RowBound`'s edit deviation of the scorer's."""
        if self.contraction is not None:
            z = self.contraction[i, j]
        else:
            z = np.matmul((self.F2.values[j] - self.F.values[i])[:, None, :], self.W[i])[:, 0]
        z += self.z0
        return _mlp_forward(self.tail, z)

    def rows_to_score(self, rows):
        """The query cells of `rows` (ascending) whose bound reaches the
        leader, less the rounding margin.  Every cell left out scores below
        the leader, which some candidate over the open sources reaches, so
        the best edit and its ties are kept.

        The leader is the best of the edits each cell took when last scored,
        where that source is still open; at the first step, the best edit of
        the cell with the largest bound.  Bounds and leader are compared as
        sums S = sum_c exp(logit_c - logit_target), of which a score is -log,
        so no logarithm is taken."""
        bounds = self.bound.sums(self.z0)
        if bounds is None:
            return rows
        ub_sums, margin = bounds[0][rows], bounds[1]
        js = self.row_sources[rows]
        seen = js >= 0
        seen[seen] = self.open_s[js[seen]]
        if seen.any():
            z = self._pair_logits(rows[seen], js[seen])
        else:
            top = rows[[np.argmin(ub_sums)]]
            z = self.logits(top)[self.open_s]
        z -= z[:, self.target : self.target + 1]
        np.exp(z, out=z)
        lead = z.sum(axis=1).min()
        return rows[ub_sums <= lead * math.exp(margin)]

    def commit(self, i: int, j2: int, close_source: bool):
        """Apply edit (i, j2): add its contraction row to z0, which then
        equals the first dense output its row was scored from, bit for bit,
        as IEEE addition commutes, and close query cell i, and source cell
        j2 if `close_source`."""
        self.z0 = self.z0 + self.contraction_rows(slice(i, i + 1))[0, j2]
        self.open_q[i] = False
        if close_source:
            self.open_s[j2] = False


_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
# greedy scores every open cell of a step whose logit differences may reach
# this: exp(700) is finite, with room for a sum of classes
_EXP_CAP = 700.0


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of a
    float64 sum of k + 1 terms, or of a length-k dot product, in any order."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


class _RowBound:
    """Upper bounds on the best score of each query cell of a pair, for a
    head flatten -> dense -> (dense | relu)* -> log-softmax, as lower bounds
    of the sums S = sum_c exp(logit_c - logit_target) whose -log is a score.

    Over all source cells j, edit (i, j)'s first dense output z0 + C[i, j]
    lies in [z0 + cmin[i], z0 + cmax[i]], the contraction's extremes over j,
    and since rounding is monotone the scorer's computed sums lie in the
    computed ends.  The interval [lo | hi] is carried through the head's
    remaining layers as one (hw, 2 units) array: relu is monotone, and a
    dense weight acts through its positive and negative parts, each end
    then widened by the rounding error of both the scorer's product and this
    one.  At the last dense layer (an identity stands in when the head does
    not end in one) the difference weights W[:, c] - W[:, t] give lower
    bounds D_c of logit_c - logit_t, with D_t = 0, so sum_c exp(D_c) is at
    most every sum of the cell, and -log of it at least every score, but
    for rounding, which the margin covers.  `pair_error` bounds how far the
    leader's first dense outputs may lie from the scorer's.
    """

    def __init__(self, tail, cmin, cmax, pair_error: float, target: int):
        self.ends = np.stack([cmin, cmax], axis=1)  # (hw, 2, units)
        self._x = np.empty_like(self.ends)
        self.c_abs = max(-cmin.min(), cmax.max(), 0.0)  # the largest |C[i, j, k]|
        self.pair_error = pair_error
        tail = list(tail)
        last = tail.pop() if tail and tail[-1] is not None else None
        # per layer after the first dense one: None for relu, and for dense the
        # block weight [[W+, W-], [W-, W+]], bias [b | b], fan-in, largest
        # column 1-norm of |W| and largest |b|
        self.layers = []
        size = cmin.shape[1]
        for layer in tail:
            if layer is not None:
                w, b = layer
                pos, neg = np.maximum(w, 0.0), np.minimum(w, 0.0)
                block = np.block([[pos, neg], [neg, pos]])
                layer = (block, np.concatenate([b, b]), w.shape[0], _col_norm(w), float(np.abs(b).max()))
                size = w.shape[1]
            self.layers.append(layer)
        # without a last dense layer the logits are the interval itself
        last_w, last_b = last or (np.eye(size), np.zeros(size))
        self.last_shape = last_w.shape
        self.last_norm, self.last_bmax = _col_norm(last_w), float(np.abs(last_b).max())
        # the block weight and bias that map [lo | hi] to lower bounds of logit_c - logit_target
        w = last_w - last_w[:, target : target + 1]
        self.diff_w = np.concatenate([np.maximum(w, 0.0), np.minimum(w, 0.0)])
        self.diff_b = last_b - last_b[target]

    def sums(self, z0):
        """(the bound sum of every query cell, the margin): each cell's
        scores are at most -log of its bound sum plus the margin, and the
        leader's -log sum lies within the margin of a computed score.  None
        when a logit may reach _EXP_CAP / 2, where an exp could overflow."""
        # `a` bounds |x| entering each dense layer after the first, and `dev`
        # how far the leader's x may lie from the scorer's
        a = (np.abs(z0).max() + self.c_abs) * (1 + 2 * _UNIT_ROUNDOFF)
        dev = self.pair_error + 2 * _UNIT_ROUNDOFF * a
        x = np.add(self.ends, z0, out=self._x).reshape(len(self.ends), -1)
        for layer in self.layers:
            if layer is None:
                np.maximum(x, 0.0, out=x)
                continue
            block, bias, fan_in, norm, bmax = layer
            a = a * norm + bmax
            dev = dev * norm + 2 * _gamma(fan_in + 1) * a
            e = 2 * _gamma(2 * fan_in + 1) * a  # the scorer's product's error plus this one's
            a = (a + 2 * e) * (1 + 2 * _UNIT_ROUNDOFF)
            x = x @ block + bias
            half = x.shape[1] // 2
            x[:, :half] -= e
            x[:, half:] += e
        margin, G = self._margin(a, dev)
        if 2 * G >= _EXP_CAP:
            return None
        D = x @ self.diff_w
        D += self.diff_b
        np.exp(D, out=D)
        return D.sum(axis=1), margin

    def _margin(self, a: float, dev: float) -> tuple[float, float]:
        """(how far a computed score may lie above -log of its cell's
        computed bound sum, and the leader's -log sum from the score it
        stands for; G), given the bound `a` on |x| entering the last dense
        layer and the leader's deviation `dev` there.

        G = a max_c |W_c|_1 + max|b| bounds every |logit|, so logit
        differences are at most 2G.  D's ends lie within 5 gamma_{2k+1} G of
        the exact lower bounds of the scorer's computed differences (the
        scorer's product, the rounded difference weights and this product),
        and -log of the sum moves by no more than D does.  The leader's
        logits lie within dev_L = dev max_c |W_c|_1 + 2 gamma_{k+1} G of the
        scorer's, which moves a log-sum-exp by at most 2 dev_L.  Each of the
        three log-sum-exps (the scorer's, the bound's, the leader's, the
        last two without their log) is within u (6G + C + 5 ln C + 4) of its
        exact value: the shift, exp and log each err by an ulp or so
        relative to their values, and the class sum by gamma_C.  Scaling the
        leader's sum adds 2u.  The total is doubled for the second-order
        terms it drops.
        """
        fan_in, classes = self.last_shape
        G = a * self.last_norm + self.last_bmax
        dev_logits = dev * self.last_norm + 2 * _gamma(fan_in + 1) * G
        lse = _UNIT_ROUNDOFF * (6 * G + classes + 5 * math.log(classes) + 4)
        margin = 2 * (5 * _gamma(2 * fan_in + 1) * G + 2 * dev_logits + 3 * lse + 2 * _UNIT_ROUNDOFF)
        return margin, G


def _col_norm(w) -> float:
    """The largest column 1-norm of |w|: sum_k |x_k w_kj| <= max|x| times it."""
    return float(np.abs(w).sum(axis=0).max())


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
    `target_class` (Greedy Sequential Search).  The target is the caller's
    and need not be the distractor's predicted class."""
    F, F2 = forward_feature_pair(model, query_image, distractor_image)
    # open query cells keep their unedited values, so one problem serves every step
    problem = EditProblem(model, F, F2, target_class)
    lp = problem.logprobs
    query_class = int(lp.argmax())

    h, w = F.h, F.w
    # every step closes its query cell, so no run can outlast the cell count
    max_edits = min(config.max_edits or F.cells, F.cells)
    close_source = config.exclusion_policy == "query-and-distractor-cells"
    quads = []
    trajectory = [(lp[query_class], lp[target_class])]
    status = "flipped" if query_class == target_class else "exhausted"
    while status == "exhausted" and len(quads) < max_edits:
        if config.relax is None:
            i, j2, lp = problem.step()
        else:
            i, j2, lp, *_ = best_pair_edits(model, [problem], config.relax)[0]
        problem.commit(i, j2, close_source)
        quads.append((i // w, i % w, j2 // w, j2 % w))
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

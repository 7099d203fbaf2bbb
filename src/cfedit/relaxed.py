"""Continuous relaxation of the best-edit problem.

The binary gate and permutation alignment are relaxed to a simplex vector and
a row-stochastic matrix, both parameterized through softmax so the constraints
hold by construction.  Adam (Kingma & Ba, ICLR 2015) ascends the
target-class log-probability of the blended grid minus entropy penalties that
sharpen the distributions; the result is rounded back to a single discrete
edit whose score is re-evaluated exactly.

Problems are solved in lockstep batches: the gates, alignments, blends,
entropies, gradients and Adam moments of B problems are stacked along a
leading axis, and each step runs the head forward and backward once over the
(B, h, w, d) stack.  Each problem's logits are packed into one (n+1, n)
array, the gate logits in row 0 over the n alignment rows; every row is a
softmax of its own, so one softmax, one entropy pass, one softmax chain rule
and one Adam update cover both.  The head pass is
`network.head_gradient_pass`, built once per chunk: its one-hot output
gradient is made once, and it runs the head (flatten -> dense -> (dense |
relu)* -> log-softmax, the one form a bundle has) forward and backward over
the bundle's parsed `mlp`, the (weight, bias) pair of each dense layer and
a None for each relu.  A problem that meets the stop test is frozen, not
removed: its logits stop moving and its trajectory ends.  The blend itself is
`grids.blend`, the transform's only implementation, on stacks whose shapes
`ascent_steps` checks once per chunk; greedy search's relaxed step is
`best_edits_relaxed` on a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FormatError, is_number
from .grids import blend, check_edit_shapes, open_cells, single_edit
from .network import ModelBundle, head_gradient_pass, head_logprobs

MASK_LOGIT = -1e9
# Adam's moment decays and denominator guard; RelaxOptConfig.learning_rate is its step size
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# weights of the gate entropy and of the gate-weighted alignment entropies in the objective
ENTROPY_WEIGHT_GATE = 0.1
ENTROPY_WEIGHT_ALIGN = 0.1


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    x = np.asarray(logits, dtype=np.float64)
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class RelaxOptConfig:
    learning_rate: float = 0.3
    # with Adam, instances that sharpen do so in about 30 steps; the rest sit at a
    # mixed gate whose rounding no longer changes, so more steps only cost time
    max_steps: int = 60
    sharpness_stop: ClassVar[float] = 0.95  # stop once the gate and its row's alignment both reach it

    def __post_init__(self):
        if not (is_number(self.learning_rate) and 0 < self.learning_rate < np.inf):
            raise FormatError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        if not (is_number(self.max_steps, integer=True) and self.max_steps > 0):
            raise FormatError(f"max_steps must be a positive integer, got {self.max_steps!r}")

    def to_json(self) -> dict:
        return {"learning_rate": self.learning_rate, "max_steps": self.max_steps}


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, n) stacks, as a (B,) vector.

    Each row is a (1, n) by (n, 1) product, which rounds as the 1-d dot
    product `x[b] @ y[b]` does whatever B is (np.einsum rounds differently)."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _objective_and_grads(head_pass, F, F2, targets, X):
    """The objective and its analytic gradients for a stack of B problems.

    objective = g_target(blend) - w_a * H(a) - w_P * sum_i a_i * H(p_i)
    where a = softmax(alpha), p_i = softmax(M[i]), H(p) = -sum p ln p with
    0 ln 0 = 0, and w_a, w_P are ENTROPY_WEIGHT_GATE and ENTROPY_WEIGHT_ALIGN:
    each row's alignment entropy is weighted by its gate mass.

    F and F2 are (B, n, d) float64 grid values, `targets` the B target classes
    and `head_pass` is `network.head_gradient_pass` for them; `ascent_steps`
    has checked their shapes.  X is the (B, n+1, n) packed logits: row 0 the
    gate logits alpha, rows 1..n the alignment logits M.  Every row is a
    softmax of its own, so one softmax, one entropy pass and one chain rule
    cover both.  Returns the (B,) objectives, their gradient w.r.t. X, and
    S = softmax(X), packed as X is (gate a in row 0, alignment P in rows
    1..n).
    """
    S = softmax(X)
    a, P = S[:, 0], S[:, 1:]
    blended, PF2 = blend(F, F2, a, P)
    gate = a[:, :, None]

    lp, G = head_pass(blended)  # G: (B, n, d)

    log_S = np.log(np.where(S > 0, S, 1.0))
    H = -(S * log_S).sum(axis=-1)  # (B, n+1): the gate's entropy, then each alignment row's
    H_rows = H[:, 1:]
    objective = (
        lp[np.arange(len(lp)), targets] - ENTROPY_WEIGHT_GATE * H[:, 0] - ENTROPY_WEIGHT_ALIGN * _dots(a, H_rows)
    )

    dS = np.empty_like(S)
    # d objective / d a
    da = dS[:, 0]
    (G * (PF2 - F)).sum(axis=-1, out=da)
    da += ENTROPY_WEIGHT_GATE * (log_S[:, 0] + 1.0)
    da -= ENTROPY_WEIGHT_ALIGN * H_rows
    # d objective / d P
    dP = dS[:, 1:]
    np.multiply(gate, G @ F2.transpose(0, 2, 1), out=dP)
    dP += ENTROPY_WEIGHT_ALIGN * gate * (log_S[:, 1:] + 1.0)

    # chain through softmax: for y = softmax(x), J^T g = y * (g - y.g), row by row;
    # the gate row's y.g is a row dot product, as in the objective
    ydots = (S * dS).sum(axis=-1, keepdims=True)
    ydots[:, 0, 0] = _dots(a, da)
    return objective, S * (dS - ydots), S


def ascent_steps(model: ModelBundle, F, F2, targets, X, opt: RelaxOptConfig):
    """Bias-corrected Adam ascent on B problems in lockstep: the (B, n+1, n)
    packed logits X (see `_objective_and_grads`) are updated in place.

    F and F2 are (B, n, d) float64 grid values and `targets` the B target
    classes; their shapes are checked here, once, and every step blends them
    unchecked.  Yields (objectives, S, live) at each iterate before stepping
    from it, at most `opt.max_steps` times, where S = softmax(X) holds the
    gates in row 0 and the alignments in rows 1..n.  `live` is a (B,)
    boolean array, all True at first: a consumer freezes a problem by
    clearing its entry, after which its logits stay exactly where they are,
    and the ascent ends once no problem is live.  A logit whose gradient is
    always exactly zero (a closed cell at MASK_LOGIT) keeps zero moments and
    so never moves.
    """
    check_edit_shapes(F.shape, F2.shape, X[:, 0].shape, X[:, 1:].shape)
    head_pass = head_gradient_pass(model, targets)
    live = np.ones(len(X), dtype=bool)
    moving = live[:, None, None]  # a view: clearing an entry of `live` freezes that problem
    m, v = np.zeros_like(X), np.zeros_like(X)
    for t in range(1, opt.max_steps + 1):
        obj, dX, S = _objective_and_grads(head_pass, F, F2, targets, X)
        yield obj, S, live
        if not live.any():
            return
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * dX
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * dX * dX
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        np.add(X, opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS), out=X, where=moving)


# float64 values (n² alignment logits and n·d grid values per problem) one
# lockstep chunk of problems may hold in each of its stacked arrays (2 MB);
# the packed logits, n² + n per problem, fit as d >= 1
_CHUNK_VALUES = 1 << 18


def best_edits_relaxed(model: ModelBundle, problems, opt: RelaxOptConfig = RelaxOptConfig()) -> list:
    """Relaxed best edits of many problems, solved in lockstep batches.

    `problems` is a list of (F, F2, target_class, excluded_query,
    excluded_source).  They are split into chunks of at most
    `_CHUNK_VALUES` // (n² + n·d) problems, and at least one; every
    chunk runs through one Adam ascent, one head forward and backward over
    the whole stack per step.  A problem that meets the stop test is frozen
    there and its trajectory ends, while the rest of its chunk goes on.

    Returns, per problem and in order, (query cell, source cell, discrete
    score, per-step objective values, converged), where converged means the
    last step met the stop test.  Each edit, score and step count is the one
    the problem gets when solved alone; the objectives may differ in their
    last bits, as a batched product rounds differently from a one-row one.
    """
    problems = list(problems)
    for F, F2, target, *_ in problems:
        model.check_grids(F, F2)
        model.check_class(target)
    n = model.h * model.w
    size = max(1, _CHUNK_VALUES // (n * (n + model.d)))
    edits = []
    for lo in range(0, len(problems), size):
        edits += _solve_chunk(model, problems[lo : lo + size], opt)
    return edits


def _solve_chunk(model: ModelBundle, problems, opt: RelaxOptConfig) -> list:
    """best_edits_relaxed on problems that run as one lockstep batch."""
    n = model.h * model.w
    masks = [open_cells(n, exq, exs) for _, _, _, exq, exs in problems]
    # packed logits, the gate row over the alignment rows, in C order (a softmax
    # over the rows of another layout rounds differently); excluded cells get
    # zero mass, hence zero gradient, so their logits stay put
    X = np.full((len(problems), n + 1, n), MASK_LOGIT)
    for x, (open_q, open_s) in zip(X, masks):
        x[0, open_q] = 0.0
        x[1:, open_s] = 0.0
    Fv = np.stack([p[0].values for p in problems])
    F2v = np.stack([p[1].values for p in problems])
    targets = np.array([p[2] for p in problems])
    rows = np.arange(len(problems))
    objectives = []  # one (B,) array per step; a frozen problem's entries past its last step are unused
    steps = np.zeros(len(problems), dtype=int)
    for obj, S, live in ascent_steps(model, Fv, F2v, targets, X, opt):
        objectives.append(obj)
        steps += live
        # a problem stops once its gate's largest entry and that cell's alignment row are both sharp
        a = S[:, 0]
        sharp = a.max(axis=1) >= opt.sharpness_stop
        if sharp.any():
            sharp &= S[rows, 1 + a.argmax(axis=1)].max(axis=1) >= opt.sharpness_stop
            live &= ~sharp

    # `live` now marks the problems that never met the stop test
    objectives = np.array(objectives)
    S = softmax(X)
    cells = S[:, 0].argmax(axis=1)
    sources = S[rows, 1 + cells].argmax(axis=1)
    edits = []
    for b, (F, F2, target, _, _) in enumerate(problems):
        i, j2 = int(cells[b]), int(sources[b])
        score = head_logprobs(model, single_edit(F, F2, i, j2))[target]
        edits.append((i, j2, float(score), objectives[: steps[b], b].tolist(), not live[b]))
    return edits


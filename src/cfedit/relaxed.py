"""Continuous relaxation of the best-edit problem.

The binary gate and permutation alignment are relaxed to a simplex vector and
a row-stochastic matrix, both parameterized through softmax so the constraints
hold by construction.  Adam (Kingma & Ba, ICLR 2015) ascends the
target-class log-probability of the relaxed edit minus entropy penalties that
sharpen the distributions; the result is rounded back to a single discrete
edit, which `search.EditProblem` scores as exhaustive search scores it, so
an edit both strategies choose gets the same score bit for bit.  The
problems are `search.EditProblem`s, which their callers build and check.

The solver works in the head's first dense layer space, as exhaustive search
does: the relaxed grid (1 - a) o F + a o (P @ F2) is F plus the delta
a o (P @ F2 - F), so its first dense output is z0 + delta.flat . W, with z0
the unedited grid's (`EditProblem.z0`).  Each step forms the delta in d-space,
contracts it with W, runs the head's layers after that one forward and
backward (`network.tail_gradient_pass`) and maps the gradient back through
W^T.  A closed query cell has a gate of exactly 0, so its delta adds
nothing: a greedy problem is solved on the unedited grid and its carried z0.

Problems are solved in lockstep batches, stacked along a leading axis.  Each
problem's logits are packed into one (n+1, n) array, the gate logits in row
0 over the n alignment rows; every row is a softmax of its own, so one
softmax, one entropy pass, one softmax chain rule and one Adam update cover
both.  Each chunk of problems is one loop in `best_pair_edits`: a step
evaluates the objective, applies the stop test and takes the Adam update
beside it.  A problem that meets the stop test is frozen, not removed: its
logits stop moving and its trajectory ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FormatError, is_number
from .network import ModelBundle, tail_gradient_pass

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


def _objective_and_grads(tail_pass, W, F, F2, z0, targets, X):
    """The objective and its analytic gradients for a stack of B problems.

    objective = g_target(z) - w_a * H(a) - w_P * sum_i a_i * H(p_i)
    where z = z0 + (a o (P @ F2 - F)).flat . W, a = softmax(alpha),
    p_i = softmax(M[i]), H(p) = -sum p ln p with 0 ln 0 = 0, and w_a, w_P
    are ENTROPY_WEIGHT_GATE and ENTROPY_WEIGHT_ALIGN: each row's alignment
    entropy is weighted by its gate mass.

    F and F2 are (B, n, d) float64 grid values, z0 their (B, units) first
    dense outputs, W that layer's (n d, units) weight, and `tail_pass` is
    `network.tail_gradient_pass` for the B `targets`.  X is the (B, n+1, n)
    packed logits: row 0 the gate logits alpha, rows 1..n the alignment
    logits M.  Returns the (B,) objectives, their gradient w.r.t. X, and
    S = softmax(X), packed as X is.
    """
    S = softmax(X)
    a, P = S[:, 0], S[:, 1:]
    gate = a[:, :, None]
    delta = P @ F2 - F  # each cell's aligned distractor row less its own
    z = (gate * delta).reshape(len(X), -1) @ W
    z += z0
    lp, g = tail_pass(z)
    G = (g @ W.T).reshape(F.shape)  # the gradient w.r.t. the relaxed grid

    log_S = np.log(np.where(S > 0, S, 1.0))
    H = -(S * log_S).sum(axis=-1)  # (B, n+1): the gate's entropy, then each alignment row's
    H_rows = H[:, 1:]
    objective = (
        lp[np.arange(len(lp)), targets] - ENTROPY_WEIGHT_GATE * H[:, 0] - ENTROPY_WEIGHT_ALIGN * _dots(a, H_rows)
    )

    dS = np.empty_like(S)
    # d objective / d a
    da = dS[:, 0]
    (G * delta).sum(axis=-1, out=da)
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


# float64 values (n² alignment logits and n·d grid values per problem) one
# lockstep chunk of problems may hold in each of its stacked arrays (2 MB);
# the packed logits, n² + n per problem, fit as d >= 1
_CHUNK_VALUES = 1 << 18


def best_pair_edits(model: ModelBundle, problems, opt: RelaxOptConfig) -> list:
    """Relaxed best edits of `search.EditProblem`s: each one's grids, z0,
    target class and open query and source masks are read, not changed.

    They are split into chunks of at most `_CHUNK_VALUES` // (n² + n·d)
    problems, and at least one.  Each chunk runs one bias-corrected Adam
    ascent on its stacked packed logits (see `_objective_and_grads`), at most
    `opt.max_steps` steps: a step evaluates every problem, ends the
    trajectory of each one that meets the stop test, and moves the logits of
    the rest.  A frozen problem's logits stay exactly where they are, and the
    ascent ends once none is live.  A logit whose gradient is always exactly
    zero (a closed cell at MASK_LOGIT) keeps zero moments and so never moves.

    Returns, per problem and in order, (query cell, source cell, the edit's
    log-probabilities from `EditProblem.edit_logprobs`, per-step objective
    values, converged), where converged means the last step met the stop
    test.  Each edit, score and step count is the one the problem gets when
    solved alone; the objectives may differ in their last bits, as a batched
    product rounds differently from a one-row one.
    """
    n = model.h * model.w
    size = max(1, _CHUNK_VALUES // (n * (n + model.d)))
    W = model.mlp[0][0]
    edits = []
    for lo in range(0, len(problems), size):
        chunk = problems[lo : lo + size]
        # packed logits, the gate row over the alignment rows, in C order (a softmax
        # over the rows of another layout rounds differently); closed cells get
        # zero mass, hence zero gradient, so their logits stay put
        X = np.full((len(chunk), n + 1, n), MASK_LOGIT)
        for x, p in zip(X, chunk):
            x[0, p.open_q] = 0.0
            x[1:, p.open_s] = 0.0
        F = np.stack([p.F.values for p in chunk])
        F2 = np.stack([p.F2.values for p in chunk])
        z0 = np.stack([p.z0 for p in chunk])
        targets = np.array([p.target for p in chunk])
        tail_pass = tail_gradient_pass(model, targets)
        rows = np.arange(len(chunk))
        objectives = []  # one (B,) array per step; a frozen problem's entries past its last step are unused
        steps = np.zeros(len(chunk), dtype=int)
        live = np.ones(len(chunk), dtype=bool)
        m, v = np.zeros_like(X), np.zeros_like(X)
        for t in range(1, opt.max_steps + 1):
            obj, dX, S = _objective_and_grads(tail_pass, W, F, F2, z0, targets, X)
            objectives.append(obj)
            steps += live
            # a problem stops once its gate's largest entry and that cell's alignment row are both sharp
            a = S[:, 0]
            sharp = a.max(axis=1) >= opt.sharpness_stop
            if sharp.any():
                sharp &= S[rows, 1 + a.argmax(axis=1)].max(axis=1) >= opt.sharpness_stop
                live &= ~sharp
            if not live.any():
                break
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * dX
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * dX * dX
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            np.add(X, opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS), out=X, where=live[:, None, None])

        # `live` now marks the problems that never met the stop test
        objectives = np.array(objectives)
        S = softmax(X)
        cells = S[:, 0].argmax(axis=1)
        sources = S[rows, 1 + cells].argmax(axis=1)
        for b, p in enumerate(chunk):
            i, j2 = int(cells[b]), int(sources[b])
            edits.append((i, j2, p.edit_logprobs(i, j2), objectives[: steps[b], b].tolist(), not live[b]))
    return edits

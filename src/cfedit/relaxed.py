"""Continuous relaxation of the best-edit problem.

The binary gate and permutation alignment are relaxed to a simplex vector and
a row-stochastic matrix, both parameterized through softmax so the constraints
hold by construction.  Adam (Kingma & Ba, ICLR 2015) ascends the
target-class log-probability of the relaxed edit minus entropy penalties that
sharpen the distributions, stepping on the objective's gradient alone
(its value is never formed); the result is rounded back to a single
discrete edit, which `search.EditProblem` scores as exhaustive search
scores it, so an edit both strategies choose gets the same score bit for
bit.

The solver works in the head's first dense layer space, as exhaustive search
does: the relaxed grid (1 - a) o F + a o (P @ F2) is F plus the delta
a o (P @ F2 - F), so its first dense output is z0 + delta.flat . W, with z0
the unedited grid's (`EditProblem.z0`).  Each step forms the delta in d-space,
contracts it with W, runs the head's layers after that one forward and
backward (`network.tail_gradient`, from the problems' one-hot target rows)
and maps the gradient back through W^T.  A closed query cell has a gate of
exactly 0, so its delta adds nothing: a greedy problem is solved on the
unedited grid and its carried z0.

Problems are solved in lockstep batches, stacked along a leading axis.  Each
problem's logits are packed into one (n+1, n) array, the gate logits in row
0 over the n alignment rows; every row is a softmax of its own, so one
softmax, one softmax chain rule, one multiply by the entropy weight and
one Adam update (`_adam_step`, on unscaled moments) cover both.  Each
chunk of problems is one loop in `best_pair_edits`: a step takes the
gradient, rounds and removes the problems that meet the stop test, and
takes the Adam update on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, is_number
from .network import ModelBundle, tail_gradient

MASK_LOGIT = -1e9
# Adam's moment decays and denominator guard; RelaxOptConfig.learning_rate is its step size
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# weight of the gate entropy and of the gate-weighted alignment entropies in the objective
ENTROPY_WEIGHT = 0.1
# a problem stops once its gate and that cell's alignment row both reach it
SHARPNESS_STOP = 0.95


@dataclass(frozen=True)
class RelaxOptConfig:
    learning_rate: float = 0.3
    # with Adam, instances that sharpen do so in about 30 steps; the rest sit at a
    # mixed gate whose rounding no longer changes, so more steps only cost time
    max_steps: int = 60

    def __post_init__(self):
        if not (is_number(self.learning_rate) and 0 < self.learning_rate < np.inf):
            raise FormatError(f"learning_rate must be a positive finite number, got {self.learning_rate!r}")
        if not (is_number(self.max_steps, integer=True) and self.max_steps > 0):
            raise FormatError(f"max_steps must be a positive integer, got {self.max_steps!r}")


def _row_dots(x, y):
    """Each row's dot product of the (..., k) stacks x and y, as (..., 1, 1)
    matmul products: one dot per row, whatever the stack's size."""
    return x[..., None, :] @ y[..., :, None]


def _objective_gradient(model, WT, F, F2, F2T, z0, onehot, X):
    """The gradient of the relaxed objective for a stack of B problems.

    objective = g_target(z) - w * (H(a) + sum_i a_i * H(p_i))
    where z = z0 + (a o (P @ F2 - F)).flat . W, a = softmax(alpha),
    p_i = softmax(M[i]), H(p) = -sum p ln p with 0 ln 0 = 0, and w is
    ENTROPY_WEIGHT: each row's alignment entropy is weighted by its gate
    mass.

    W is the (n d, units) weight of `model`'s first dense layer, F and F2
    (B, n, d) float64 grid values, z0 their (B, units) first dense outputs
    and `onehot` the (B, classes) one-hot rows of their target classes,
    which `network.tail_gradient` reads; WT and F2T are contiguous
    transposes of W and F2 (faster to multiply than transposed views).
    X is the (B, n+1, n) packed logits: row 0 the gate logits alpha, rows
    1..n the alignment logits M.  Returns the gradient w.r.t. X and S, both
    packed as X is.  Its row sums (sum p ln p, G . delta and the chain
    rule's S . dX) are `_row_dots`, so each row's bits are its own, whatever
    B, and one multiply by ENTROPY_WEIGHT weights both entropy terms.
    """
    # one softmax gives S and log S; a closed cell's log S stays finite (about
    # MASK_LOGIT) with S exactly 0, so its terms below are exactly 0
    dX = X - X.max(axis=-1, keepdims=True)
    S = np.exp(dX)
    total = S.sum(axis=-1, keepdims=True)
    S /= total
    dX -= np.log(total)  # log S, on which the gradient is assembled
    gate, P = S[:, 0, :, None], S[:, 1:]  # the gate as a column, and the alignment
    delta = P @ F2
    delta -= F  # each cell's aligned distractor row less its own
    z = (gate * delta).reshape(len(X), -1) @ model.mlp[0][0] + z0
    G = (tail_gradient(model, onehot, z) @ WT).reshape(F.shape)  # the gradient w.r.t. the relaxed grid

    # d objective / d a = w (ln a + 1) + G . delta + w sum_j p_ij ln p_ij and
    # d objective / d P = a_i (G @ F2^T + w (ln p_ij + 1)); each row's + 1 (times
    # w, or a_i w) is a constant over the row, which the chain rule cancels
    dX *= ENTROPY_WEIGHT  # w ln a in row 0, w ln p_ij below
    da = dX[:, 0]
    da += _row_dots(G, delta)[..., 0, 0]
    da += _row_dots(P, dX[:, 1:])[..., 0, 0]
    dP = dX[:, 1:]
    dP += G @ F2T
    dP *= gate
    # chain through softmax: for y = softmax(x), J^T g = y * (g - y.g), row by row,
    # the same for g + c as for g, since y sums to 1
    dX -= _row_dots(S, dX)[..., 0]
    dX *= S
    return dX, S


def _adam_step(g, m, v, t: int, learning_rate: float) -> np.ndarray:
    """Adam's step t (Kingma & Ba, ICLR 2015) for the gradient g, formed on
    g's buffer and returned; the moments m and v are updated in place.

    They are kept unscaled (m <- beta1 m + g, v <- beta2 v + g^2), the paper's
    m_t / (1 - beta1) and v_t / (1 - beta2), so those factors fold into the
    step size and ε beside the bias corrections (§2).  A logit whose every
    gradient was exactly 0 keeps m = 0 and takes a step of exactly 0.
    """
    m *= ADAM_BETA1
    m += g
    g *= g
    v *= ADAM_BETA2
    v += g
    c = ((1.0 - ADAM_BETA2**t) / (1.0 - ADAM_BETA2)) ** 0.5
    np.sqrt(v, out=g)
    g += ADAM_EPS * c
    np.divide(m, g, out=g)
    g *= learning_rate * c * (1.0 - ADAM_BETA1) / (1.0 - ADAM_BETA1**t)
    return g


# float64 values (n² alignment logits and n·d grid values per problem) a chunk
# may hold in each stacked array (2 MB): F, F2, F2T, the packed logits (n² + n,
# which fit as d >= 1), their Adam moments, each step's gradient, S and temporaries
_CHUNK_VALUES = 1 << 18


def best_pair_edits(model: ModelBundle, problems, opt: RelaxOptConfig) -> list:
    """Relaxed best edits of `search.EditProblem`s: each one's grids, z0,
    target class and open query and source masks are read, not changed.

    They are split into chunks of at most `_CHUNK_VALUES` // (n² + n·d)
    problems, and at least one.  Each chunk runs one bias-corrected Adam
    ascent on its stacked packed logits (see `_objective_gradient`), at most
    `opt.max_steps` steps: a step takes the gradient of every problem still
    stacked; each one that meets the stop test is rounded from that step's
    S and leaves the stacks, its one-hot target row too, and the rest move.
    A problem that never meets it is rounded from its logits after the last
    step: each row's softmax is monotone, so its argmax is the logits' (but
    where exp rounds two distinct logits to one value).  A closed cell's
    logit (MASK_LOGIT) gets exactly zero gradient, hence zero moments, so
    it never moves.

    Returns, per problem and in order, (query cell, source cell, the edit's
    log-probabilities from `EditProblem.edit_logprobs`, steps, converged):
    the steps that took its gradient, and whether the last met the stop
    test.  On the pinned pools these match each problem's solo solve, but
    a stack's first-dense product rows may differ in their last bits from
    one-row products, by BLAS kernel (ROADMAP item 4).
    """
    h, w, d = model.feature_shape
    n = h * w
    size = max(1, _CHUNK_VALUES // (n * (n + d)))
    WT = np.ascontiguousarray(model.mlp[0][0].T)
    edits = [None] * len(problems)

    def round_edits(ids, packed, steps, converged):  # from S or X: the gate's argmax, then its cell's alignment argmax
        for k, s in zip(ids, packed):
            i = int(s[0].argmax())
            j2 = int(s[1 + i].argmax())
            edits[k] = (i, j2, problems[k].edit_logprobs(i, j2), steps, converged)

    for lo in range(0, len(problems), size):
        chunk = problems[lo : lo + size]
        # packed logits in C order (a softmax over another layout's rows rounds differently);
        # closed cells get zero mass, hence zero gradient, so their logits stay put
        X = np.full((len(chunk), n + 1, n), MASK_LOGIT)
        for x, p in zip(X, chunk):
            x[0, p.open_q] = 0.0
            x[1:, p.open_s] = 0.0
        F = np.stack([p.F.values for p in chunk])
        F2 = np.stack([p.F2.values for p in chunk])
        F2T = np.ascontiguousarray(F2.transpose(0, 2, 1))
        z0 = np.stack([p.z0 for p in chunk])
        onehot = np.eye(model.class_count)[[p.target for p in chunk]]
        ids = np.arange(lo, lo + len(chunk))  # the problem each stacked row holds
        m, v = np.zeros_like(X), np.zeros_like(X)
        for t in range(1, opt.max_steps + 1):
            dX, S = _objective_gradient(model, WT, F, F2, F2T, z0, onehot, X)
            # a problem stops once its gate's largest entry and that cell's alignment row are both sharp
            a = S[:, 0]
            if a.max() >= SHARPNESS_STOP:  # one call for the many steps where no gate is
                sharp = a.max(axis=1) >= SHARPNESS_STOP
                sharp &= S[np.arange(len(S)), 1 + a.argmax(axis=1)].max(axis=1) >= SHARPNESS_STOP
                if sharp.any():
                    round_edits(ids[sharp], S[sharp], t, True)
                    if sharp.all():
                        break
                    live = (X, dX, m, v, F, F2, F2T, z0, onehot, ids)
                    X, dX, m, v, F, F2, F2T, z0, onehot, ids = (x[~sharp] for x in live)
            X += _adam_step(dX, m, v, t, opt.learning_rate)
        else:  # out of steps: the problems left are rounded from their updated logits
            round_edits(ids, X, opt.max_steps, False)
    return edits

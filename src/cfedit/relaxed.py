"""Continuous relaxation of the best-edit problem.

The binary gate and permutation alignment are relaxed to a simplex vector and
a row-stochastic matrix, both parameterized through softmax so the constraints
hold by construction.  Adam (Kingma & Ba, ICLR 2015) ascends the
target-class log-probability of the blended grid minus entropy penalties that
sharpen the distributions; the result is rounded back to a single discrete
edit whose score is re-evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import FormatError, is_number
from .grids import FeatureGrid, open_cells, single_edit
from .network import ModelBundle, head_input_gradient, head_logprobs

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
        if not (is_number(self.learning_rate) and self.learning_rate > 0):
            raise FormatError(f"learning_rate must be a positive number, got {self.learning_rate!r}")
        if not (is_number(self.max_steps, integer=True) and self.max_steps > 0):
            raise FormatError(f"max_steps must be a positive integer, got {self.max_steps!r}")

    def to_json(self) -> dict:
        return {"learning_rate": self.learning_rate, "max_steps": self.max_steps}


def relaxed_objective_and_grads(
    model: ModelBundle,
    F: FeatureGrid,
    F2: FeatureGrid,
    target_class: int,
    alpha: np.ndarray,
    M: np.ndarray,
    opt: RelaxOptConfig,
):
    """Objective value and its analytic gradients w.r.t. the logits (alpha, M).

    objective = g_target(blend) - w_a * H(a) - w_P * sum_i a_i * H(p_i)
    where a = softmax(alpha), p_i = softmax(M[i]), H(p) = -sum p ln p with
    0 ln 0 = 0, and w_a, w_P are ENTROPY_WEIGHT_GATE and ENTROPY_WEIGHT_ALIGN:
    each row's alignment entropy is weighted by its gate mass.  `opt` is not
    read: every weight in the objective is a module constant.
    """
    a = softmax(alpha)
    P = softmax(M)
    PF2 = P @ F2.values
    blended = FeatureGrid(F.h, F.w, F.d, (1.0 - a[:, None]) * F.values + a[:, None] * PF2)

    lp, G = head_input_gradient(model, blended, target_class)  # G: (n, d)

    log_a = np.log(np.where(a > 0, a, 1.0))
    log_P = np.log(np.where(P > 0, P, 1.0))
    H_a = float(-(a * log_a).sum())
    H_rows = -(P * log_P).sum(axis=1)
    objective = lp[target_class] - ENTROPY_WEIGHT_GATE * H_a - ENTROPY_WEIGHT_ALIGN * float(a @ H_rows)

    # d objective / d a
    da = (G * (PF2 - F.values)).sum(axis=1)
    da += ENTROPY_WEIGHT_GATE * (log_a + 1.0)
    da -= ENTROPY_WEIGHT_ALIGN * H_rows
    # d objective / d P
    dP = a[:, None] * (G @ F2.values.T)
    dP += ENTROPY_WEIGHT_ALIGN * a[:, None] * (log_P + 1.0)

    # chain through softmax: for y = softmax(x), J^T g = y * (g - y.g)
    dalpha = a * (da - float(a @ da))
    dM = P * (dP - (P * dP).sum(axis=1, keepdims=True))
    return objective, dalpha, dM, a, P


def ascent_steps(
    model: ModelBundle,
    F: FeatureGrid,
    F2: FeatureGrid,
    target_class: int,
    alpha: np.ndarray,
    M: np.ndarray,
    opt: RelaxOptConfig,
):
    """Bias-corrected Adam ascent on the logits `alpha` and `M`, updated in place.

    Yields (objective, a, P) at each iterate before stepping from it, at most
    `opt.max_steps` times.  A logit whose gradient is always exactly zero (a
    closed cell at MASK_LOGIT) keeps zero moments and so never moves.
    """
    moments = [(np.zeros_like(x), np.zeros_like(x)) for x in (alpha, M)]
    for t in range(1, opt.max_steps + 1):
        obj, dalpha, dM, a, P = relaxed_objective_and_grads(model, F, F2, target_class, alpha, M, opt)
        yield obj, a, P
        for x, g, (m, v) in zip((alpha, M), (dalpha, dM), moments):
            m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            x += opt.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def best_edit_relaxed(
    model: ModelBundle,
    F: FeatureGrid,
    F2: FeatureGrid,
    target_class: int,
    excluded_query=(),
    excluded_source=(),
    opt: RelaxOptConfig = RelaxOptConfig(),
) -> tuple[int, int, float, list]:
    """Relaxed best-edit: optimize the soft gate/alignment, round by argmax.

    Returns (query cell, source cell, discrete score, per-step objective values).
    The score is the target-class log-probability of the *discrete* rounded
    edit, so this drops into the greedy loop interchangeably with the
    exhaustive search.
    """
    model.check_grids(F, F2)
    open_q, open_s = open_cells(F.cells, excluded_query, excluded_source)
    # excluded cells get zero mass, hence zero gradient, so their logits stay put
    alpha = np.where(open_q, 0.0, MASK_LOGIT)
    M = np.zeros((F.cells, F.cells))
    M[:, ~open_s] = MASK_LOGIT
    trajectory = []
    for obj, a, P in ascent_steps(model, F, F2, target_class, alpha, M, opt):
        trajectory.append(obj)
        i_star = int(np.argmax(a))
        if a[i_star] >= opt.sharpness_stop and P[i_star].max() >= opt.sharpness_stop:
            break

    a = softmax(alpha)
    P = softmax(M)
    i = int(np.argmax(a))
    j2 = int(np.argmax(P[i]))
    score = head_logprobs(model, single_edit(F, F2, i, j2))[target_class]
    return i, j2, float(score), trajectory

"""Counterfactual visual explanations for CNN classifiers.

Given a trained classifier split into a spatial feature extractor and a
decision head, this package finds the minimal sequence of feature-cell edits
(copying cells from a distractor image into a query image) that flips the
model's decision to the distractor's class, and renders those edits back to
pixel space via receptive fields.
"""

from .grids import EditList, FeatureGrid, apply_edits
from .network import (
    LayerSpec,
    ModelBundle,
    TrainConfig,
    forward_features,
    head_logprobs,
    load_model,
    reference_extractor_specs,
    reference_head_specs,
    save_model,
    train,
)
from .relaxed import RelaxOptConfig, softmax
from .search import ExplanationResult, SearchConfig, best_edit_exhaustive, greedy_counterfactual

__all__ = [
    "EditList",
    "ExplanationResult",
    "FeatureGrid",
    "LayerSpec",
    "ModelBundle",
    "RelaxOptConfig",
    "SearchConfig",
    "TrainConfig",
    "apply_edits",
    "best_edit_exhaustive",
    "forward_features",
    "greedy_counterfactual",
    "head_logprobs",
    "load_model",
    "reference_extractor_specs",
    "reference_head_specs",
    "save_model",
    "softmax",
    "train",
]

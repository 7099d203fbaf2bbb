"""Counterfactual visual explanations for CNN classifiers.

Given a trained classifier split into a spatial feature extractor and a
decision head, this package finds the minimal sequence of feature-cell edits
(copying cells from a distractor image into a query image) that flips the
model's decision to the distractor's class, and renders those edits back to
pixel space via receptive fields.

The API is `cfedit.<module>.<name>`; importing a module loads only the
modules at or below its layer, and importing the package loads none.
"""

"""Exception types shared across the package, and the number check that
config validation uses before raising them."""

import numbers


class CfeditError(Exception):
    """Base class for all package errors."""


class ShapeError(CfeditError):
    """Dimension mismatch between grids, gates, alignments, or layers."""


class BoundsError(CfeditError):
    """Cell index or coordinate outside the valid grid range, or a class index
    outside the head's classes."""


class UnsupportedLayerError(CfeditError):
    """Layer kind not in the fixed vocabulary, or not usable in this context."""


class TrainingError(CfeditError):
    """Training diverged (non-finite loss)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class FormatError(CfeditError):
    """Malformed model bundle, IDX file, record, or config."""


class ExhaustedError(CfeditError):
    """No candidate edits remain."""


def is_number(value, integer: bool = False) -> bool:
    """True for a real number (an integer when `integer`) that is not a bool."""
    if type(value) is int or (type(value) is float and not integer):  # the common cases, without the ABC checks
        return True
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)

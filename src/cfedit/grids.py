"""Spatial feature grids and the edit lists that change them.

A feature map of geometry h x w x d is stored as an hw x d matrix, row-major
over cells (cell i = row * w + col).  Edits replace whole rows of the query
grid with rows of a distractor grid, controlled by a gate vector over query
cells and an alignment matrix selecting source cells:

    edited = (1 - a) o F  +  a o (P @ F')

where `o` broadcasts the gate across the d channels.  Neither search builds
an edited grid: both work in the head's first dense layer space of a
`search.EditProblem`, where an edit adds its delta's contraction to the
unedited grid's output, and the cells they may still use are its masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, FormatError, ShapeError, is_number


@dataclass(frozen=True)
class FeatureGrid:
    """h x w x d spatial feature map stored as an hw x d matrix."""

    h: int
    w: int
    d: int
    values: np.ndarray

    def __post_init__(self):
        if self.h <= 0 or self.w <= 0 or self.d <= 0:
            raise ShapeError(f"grid geometry must be positive, got {self.h}x{self.w}x{self.d}")
        vals = np.array(self.values, dtype=np.float64)
        vals.setflags(write=False)
        if vals.shape != (self.h * self.w, self.d):
            raise ShapeError(
                f"values shape {vals.shape} does not match hw x d = "
                f"({self.h * self.w}, {self.d})"
            )
        if not np.all(np.isfinite(vals)):
            raise ShapeError("grid values must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def cells(self) -> int:
        return self.h * self.w

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "FeatureGrid":
        """Build from an (h, w, d) array."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeError(f"expected 3-d array, got shape {arr.shape}")
        h, w, d = arr.shape
        return cls(h, w, d, arr.reshape(h * w, d))


@dataclass(frozen=True)
class EditList:
    """Ordered cell replacements as (query row, query col, source row, source col)."""

    edits: tuple
    h: int
    w: int

    def __post_init__(self):
        # one pass: integer coordinates, both cells in the grid, no query cell twice
        norm, seen = [], set()
        for e in self.edits:
            if not all([is_number(v, integer=True) for v in e]):
                raise FormatError(f"edit {e!r} has a cell coordinate that is not an integer")
            i, j, i2, j2 = e = tuple(map(int, e))
            for r, c in (i, j), (i2, j2):
                if not (0 <= r < self.h and 0 <= c < self.w):
                    raise BoundsError(f"cell ({r}, {c}) outside {self.h}x{self.w} grid")
            if (i, j) in seen:
                raise BoundsError(f"query cell ({i}, {j}) edited twice")
            seen.add((i, j))
            norm.append(e)
        object.__setattr__(self, "edits", tuple(norm))

    def __len__(self):
        return len(self.edits)

    def __iter__(self):
        return iter(self.edits)

    def query_cells(self) -> list[int]:
        return [i * self.w + j for (i, j, _, _) in self.edits]

    def source_cells(self) -> list[int]:
        return [i2 * self.w + j2 for (_, _, i2, j2) in self.edits]


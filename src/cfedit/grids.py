"""Spatial feature grids and the feature-space edit transformation.

A feature map of geometry h x w x d is stored as an hw x d matrix, row-major
over cells (cell i = row * w + col).  Edits replace whole rows of the query
grid with rows of a distractor grid, controlled by a gate vector over query
cells and an alignment matrix selecting source cells:

    edited = (1 - a) o F  +  a o (P @ F')

where `o` broadcasts the gate across the d channels.  Both the discrete form
(binary gate, permutation alignment) and the relaxed form (simplex gate,
row-stochastic alignment) are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ExhaustedError, FormatError, ModeError, ShapeError, is_number

SIMPLEX_TOL = 1e-6


def _frozen(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


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
        vals = _frozen(self.values)
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
class GateVector:
    """Per-cell replacement gate: binary, or a point on the simplex."""

    weights: np.ndarray
    mode: str  # "discrete" | "relaxed"

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 1:
            raise ShapeError(f"gate must be a vector, got shape {w.shape}")
        if self.mode == "discrete":
            if not np.all((w == 0.0) | (w == 1.0)):
                raise ModeError("discrete gate entries must be exactly 0 or 1")
        elif self.mode == "relaxed":
            if np.any(w < 0) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
                raise ModeError("relaxed gate must be nonnegative and sum to 1")
        else:
            raise ModeError(f"unknown gate mode {self.mode!r}")
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return self.weights.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "GateVector":
        return cls(np.zeros(n), "discrete")


@dataclass(frozen=True)
class AlignmentMatrix:
    """Source-cell selection: a permutation, or a row-stochastic matrix."""

    entries: np.ndarray
    mode: str  # "permutation" | "row-stochastic"

    def __post_init__(self):
        m = _frozen(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"alignment must be square, got shape {m.shape}")
        if self.mode == "permutation":
            binary = np.all((m == 0.0) | (m == 1.0))
            if not (binary and np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)):
                raise ModeError("permutation mode requires a 0/1 matrix with one 1 per row and column")
        elif self.mode == "row-stochastic":
            if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > SIMPLEX_TOL):
                raise ModeError("row-stochastic mode requires nonnegative rows summing to 1")
        else:
            raise ModeError(f"unknown alignment mode {self.mode!r}")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_source_map(cls, sources: np.ndarray) -> "AlignmentMatrix":
        """Permutation whose row i selects source cell sources[i]."""
        n = len(sources)
        m = np.zeros((n, n))
        m[np.arange(n), sources] = 1.0
        return cls(m, "permutation")

@dataclass(frozen=True)
class EditList:
    """Ordered cell replacements as (query row, query col, source row, source col)."""

    edits: tuple
    h: int
    w: int

    def __post_init__(self):
        for e in self.edits:
            if not all(is_number(v, integer=True) for v in e):
                raise FormatError(f"edit {e!r} has a cell coordinate that is not an integer")
        norm = tuple(tuple(int(v) for v in e) for e in self.edits)
        seen = set()
        for (i, j, i2, j2) in norm:
            for (r, c) in ((i, j), (i2, j2)):
                if not (0 <= r < self.h and 0 <= c < self.w):
                    raise BoundsError(f"cell ({r}, {c}) outside {self.h}x{self.w} grid")
            if (i, j) in seen:
                raise BoundsError(f"query cell ({i}, {j}) edited twice")
            seen.add((i, j))
        object.__setattr__(self, "edits", norm)

    def __len__(self):
        return len(self.edits)

    def __iter__(self):
        return iter(self.edits)

    def query_cells(self) -> list[int]:
        return [i * self.w + j for (i, j, _, _) in self.edits]

    def source_cells(self) -> list[int]:
        return [i2 * self.w + j2 for (_, _, i2, j2) in self.edits]


def _check_pair(F: FeatureGrid, F2: FeatureGrid):
    for dim in ("h", "w", "d"):
        if getattr(F, dim) != getattr(F2, dim):
            raise ShapeError(
                f"grid {dim} mismatch: {getattr(F, dim)} vs {getattr(F2, dim)}"
            )


def apply_edits(F: FeatureGrid, F2: FeatureGrid, a: GateVector, P: AlignmentMatrix) -> FeatureGrid:
    """Edited grid (1 - a) o F + a o (P @ F2); inputs are left untouched."""
    _check_pair(F, F2)
    n = F.cells
    if len(a) != n:
        raise ShapeError(f"gate length {len(a)} does not match cell count {n}")
    if P.n != n:
        raise ShapeError(f"alignment size {P.n} does not match cell count {n}")
    w = a.weights[:, None]
    out = (1.0 - w) * F.values + w * (P.entries @ F2.values)
    return FeatureGrid(F.h, F.w, F.d, out)


def single_edit(F: FeatureGrid, F2: FeatureGrid, i: int, j2: int) -> FeatureGrid:
    """F with row i replaced by row j2 of F2."""
    _check_pair(F, F2)
    n = F.cells
    if not (0 <= i < n):
        raise BoundsError(f"query cell {i} outside [0, {n})")
    if not (0 <= j2 < n):
        raise BoundsError(f"source cell {j2} outside [0, {n})")
    out = F.values.copy()
    out[i] = F2.values[j2]
    return FeatureGrid(F.h, F.w, F.d, out)


def open_cells(n: int, excluded_query=(), excluded_source=()) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the query and source cells a best-edit search may
    still use; raises ExhaustedError when either is empty."""
    open_q = np.ones(n, dtype=bool)
    open_s = np.ones(n, dtype=bool)
    open_q[list(excluded_query)] = False
    open_s[list(excluded_source)] = False
    if not (open_q.any() and open_s.any()):
        raise ExhaustedError("all candidate edits are excluded")
    return open_q, open_s


import numpy as np
import pytest

from cfedit.errors import BoundsError, FormatError, ShapeError
from cfedit.grids import EditList, FeatureGrid


class TestTypes:
    def test_grid_shape_checked(self):
        with pytest.raises(ShapeError):
            FeatureGrid(2, 2, 1, np.zeros((3, 1)))

    def test_grid_rejects_nonfinite(self):
        with pytest.raises(ShapeError):
            FeatureGrid(1, 2, 1, np.array([[np.nan], [0.0]]))

    def test_cell_index_bijection(self):
        # row-major numbering: cell row * w + col holds array position (row, col)
        arr = np.arange(3 * 4, dtype=float).reshape(3, 4, 1)
        F = FeatureGrid.from_array(arr)
        quads = tuple((row, col, 2 - row, 3 - col) for row in range(3) for col in range(4))
        edits = EditList(quads, 3, 4)
        assert edits.query_cells() == list(range(12))
        assert edits.source_cells() == list(range(11, -1, -1))
        for (row, col, _, _), i in zip(quads, edits.query_cells()):
            assert F.values[i, 0] == arr[row, col, 0]

    def test_edit_list_rejects_duplicate_query_cell(self):
        with pytest.raises(BoundsError):
            EditList(((0, 0, 1, 1), (0, 0, 0, 1)), 2, 2)

    def test_edit_list_bounds(self):
        with pytest.raises(BoundsError):
            EditList(((0, 2, 0, 0),), 2, 2)

    @pytest.mark.parametrize("edit", [(0.7, True, 0, 0), (0, 1, 1.0, 0), (0, 1, "1", 0)])
    def test_edit_list_rejects_non_integer_cells(self, edit):
        with pytest.raises(FormatError):
            EditList((edit,), 2, 2)


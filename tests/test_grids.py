import numpy as np
import pytest

from cfedit.errors import BoundsError, FormatError, ShapeError
from cfedit.grids import EditList, FeatureGrid, apply_edits


def source_map(sources):
    """Permutation alignment whose row i selects source cell sources[i]."""
    n = len(sources)
    P = np.zeros((n, n))
    P[np.arange(n), sources] = 1.0
    return P


IDENTITY_4 = source_map(np.arange(4))  # each cell its own source


def grid_2x2():
    F = FeatureGrid(2, 2, 1, np.array([[1.0], [2.0], [3.0], [4.0]]))
    F2 = FeatureGrid(2, 2, 1, np.array([[5.0], [6.0], [7.0], [8.0]]))
    return F, F2


def scalar_loop_edit(F, F2, a, P):
    """Independent oracle: per-cell, per-channel scalar evaluation."""
    out = np.zeros_like(F.values)
    for i in range(F.cells):
        for c in range(F.d):
            mixed = sum(P[i, j] * F2.values[j, c] for j in range(F.cells))
            out[i, c] = (1 - a[i]) * F.values[i, c] + a[i] * mixed
    return out


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


def edited(F, F2, a, P):
    """The edited values of grids F, F2 under gate `a` and alignment `P`."""
    return apply_edits(F.values, F2.values, a, P)[0]


class TestApplyEdits:
    def test_closed_gate_is_identity(self):
        F, F2 = grid_2x2()
        np.testing.assert_array_equal(edited(F, F2, np.zeros(4), IDENTITY_4), F.values)

    def test_full_gate_identity_alignment_is_replacement(self):
        F, F2 = grid_2x2()
        np.testing.assert_array_equal(edited(F, F2, np.ones(4), IDENTITY_4), F2.values)

    def test_hand_case_cell0_from_cell3(self):
        # one-hot gate at cell 0, alignment row 0 <- cell 3; oracle value [8,2,3,4]
        F, F2 = grid_2x2()
        a = np.eye(4)[0]
        P = source_map(np.array([3, 1, 2, 0]))
        out, aligned = apply_edits(F.values, F2.values, a, P)
        np.testing.assert_array_equal(out, [[8.0], [2.0], [3.0], [4.0]])
        np.testing.assert_array_equal(out, scalar_loop_edit(F, F2, a, P))
        np.testing.assert_array_equal(aligned, [[8.0], [6.0], [7.0], [5.0]])

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h, w, d = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 4)
            F = FeatureGrid(h, w, d, rng.normal(size=(h * w, d)))
            F2 = FeatureGrid(h, w, d, rng.normal(size=(h * w, d)))
            a = (rng.random(h * w) < 0.5).astype(float)
            P = source_map(rng.permutation(h * w))
            np.testing.assert_allclose(edited(F, F2, a, P), scalar_loop_edit(F, F2, a, P), atol=1e-12)

    def test_stack_equals_each_instance(self):
        rng = np.random.default_rng(9)
        F, F2 = rng.normal(size=(2, 5, 6, 3))
        a = rng.dirichlet(np.ones(6), size=5)
        P = rng.dirichlet(np.ones(6), size=(5, 6))
        out, aligned = apply_edits(F, F2, a, P)
        for b in range(5):
            one, one_aligned = apply_edits(F[b], F2[b], a[b], P[b])
            np.testing.assert_allclose(out[b], one, rtol=0, atol=1e-12)
            np.testing.assert_allclose(aligned[b], one_aligned, rtol=0, atol=1e-12)

    def test_grid_shapes_checked(self):
        with pytest.raises(ShapeError, match="grid stacks"):
            apply_edits(np.zeros((4, 1)), np.zeros((4, 2)), np.zeros(4), IDENTITY_4)
        with pytest.raises(ShapeError, match="grid stacks"):
            apply_edits(np.zeros(4), np.zeros(4), np.zeros(4), IDENTITY_4)

    def test_gate_and_alignment_shapes_checked(self):
        F, F2 = grid_2x2()
        with pytest.raises(ShapeError, match="gate"):
            edited(F, F2, np.zeros(3), IDENTITY_4)
        with pytest.raises(ShapeError, match="alignment"):
            edited(F, F2, np.zeros(4), IDENTITY_4[:3])
        with pytest.raises(ShapeError, match="alignment"):
            edited(F, F2, np.zeros(4), IDENTITY_4[None])

    def test_inputs_unmodified(self):
        F, F2 = grid_2x2()
        before = F.values.copy()
        edited(F, F2, np.ones(4), IDENTITY_4)
        np.testing.assert_array_equal(F.values, before)

    def test_idempotent_discrete(self):
        rng = np.random.default_rng(3)
        F, F2 = rng.normal(size=(2, 6, 2))
        a = (rng.random(6) < 0.5).astype(float)
        P = source_map(rng.permutation(6))
        once, _ = apply_edits(F, F2, a, P)
        twice, _ = apply_edits(once, F2, a, P)
        np.testing.assert_array_equal(once, twice)

    def test_affine_in_relaxed_gate(self):
        rng = np.random.default_rng(5)
        F, F2 = rng.normal(size=(2, 4, 3))
        P = np.full((4, 4), 0.25)
        w1 = rng.dirichlet(np.ones(4))
        w2 = rng.dirichlet(np.ones(4))
        mid, _ = apply_edits(F, F2, (w1 + w2) / 2, P)
        avg = (apply_edits(F, F2, w1, P)[0] + apply_edits(F, F2, w2, P)[0]) / 2
        np.testing.assert_allclose(mid, avg, atol=1e-9)

    def test_rows_changed_equals_gate_l1_norm(self):
        rng = np.random.default_rng(11)
        F, F2 = rng.normal(size=(2, 9, 2))
        a = (rng.random(9) < 0.4).astype(float)
        P = source_map(rng.permutation(9))
        out, _ = apply_edits(F, F2, a, P)
        changed = np.any(out != F, axis=1).sum()
        assert changed <= a.sum()  # equality unless a source row equals the query row
        assert changed == a.sum()  # continuous random values never collide


class TestOneHotEdit:
    """A one-hot gate with a permutation alignment copies one distractor row."""

    def test_self_copy_is_identity(self):
        F, _ = grid_2x2()
        np.testing.assert_array_equal(edited(F, F, np.eye(4)[2], IDENTITY_4), F.values)

    def test_hand_case(self):
        F, F2 = grid_2x2()
        out = edited(F, F2, np.eye(4)[0], source_map([3, 1, 2, 0]))
        np.testing.assert_array_equal(out, [[8.0], [2.0], [3.0], [4.0]])

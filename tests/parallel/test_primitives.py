import numpy as np

from repro.parallel.primitives import ragged_gather_indices


class TestRaggedGather:
    def test_simple_csr(self):
        offsets = np.asarray([0, 2, 2, 5])
        edge_idx, rows = ragged_gather_indices(offsets, np.asarray([0, 2]))
        assert np.array_equal(edge_idx, [0, 1, 2, 3, 4])
        assert np.array_equal(rows, [0, 0, 1, 1, 1])

    def test_empty_rows(self):
        offsets = np.asarray([0, 0, 0])
        edge_idx, rows = ragged_gather_indices(offsets, np.asarray([0, 1]))
        assert edge_idx.size == 0
        assert rows.size == 0

    def test_subset_of_rows(self):
        offsets = np.asarray([0, 3, 4, 6])
        edge_idx, rows = ragged_gather_indices(offsets, np.asarray([2]))
        assert np.array_equal(edge_idx, [4, 5])
        assert np.array_equal(rows, [0, 0])

    def test_repeated_rows_allowed(self):
        offsets = np.asarray([0, 2])
        edge_idx, rows = ragged_gather_indices(offsets, np.asarray([0, 0]))
        assert np.array_equal(edge_idx, [0, 1, 0, 1])
        assert np.array_equal(rows, [0, 0, 1, 1])

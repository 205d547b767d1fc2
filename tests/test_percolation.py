"""Percolation: flood-fill clusters vs universal-cover BFS, winding cases
with known answers, sweep determinism."""

import numpy as np
import pytest

from mixlab.algebraic import grid_satisfies_pattern, ledrappier_system, sample_configuration, torus_kernel
from mixlab.percolation import clusters, percolation_sweep
from mixlab.rng import mix

from conftest import bfs_cover_clusters, partitions_equal

SYS = ledrappier_system()


def _kernel_samples(w, h, count):
    kernel = torus_kernel(SYS, w, h)
    assert kernel.dim > 0
    return [sample_configuration(kernel, seed) for seed in range(count)]


def _assert_matches_bfs(grid, connectivity, bit):
    rep = clusters(grid, connectivity, bit)
    labels, wrap_h, wrap_v = bfs_cover_clusters(grid, connectivity, bit)
    assert partitions_equal(rep.labels, labels)
    assert (rep.wraps_horizontal, rep.wraps_vertical) == (wrap_h, wrap_v)
    sizes = np.unique(labels[labels >= 0], return_counts=True)[1]
    assert rep.cluster_count == len(sizes)
    assert rep.largest == (int(sizes.max()) if len(sizes) else 0)
    assert rep.target_cells == int((grid == bit).sum())


class TestClustersMatchBFS:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("w,h", [(9, 9), (12, 12), (6, 9), (15, 6)])
    def test_kernel_samples(self, w, h, connectivity, bit):
        for grid in _kernel_samples(w, h, 4):
            assert grid_satisfies_pattern(SYS.pattern, grid)
            _assert_matches_bfs(grid, connectivity, bit)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_grids(self, connectivity):
        rng = np.random.default_rng(7)
        for h, w in [(5, 7), (10, 10), (16, 9)]:
            for density in (0.3, 0.5, 0.7):
                grid = (rng.random((h, w)) < density).astype(np.uint8)
                for bit in (0, 1):
                    _assert_matches_bfs(grid, connectivity, bit)

    def test_full_grid_wraps_both_ways(self):
        grid = np.zeros((6, 8), dtype=np.uint8)
        rep = clusters(grid, 4, 0)
        assert rep.cluster_count == 1 and rep.largest == 48
        assert rep.wraps_horizontal and rep.wraps_vertical
        assert clusters(grid, 4, 1).cluster_count == 0

    def test_invalid_arguments(self):
        grid = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            clusters(grid, 6, 0)
        with pytest.raises(ValueError):
            clusters(grid, 4, 2)


def _summary(cells, h, w, connectivity):
    """(cluster count, largest, target cells, wrap h, wrap v) of the bit-0
    cells at (x, y) in `cells` on an h x w grid of ones."""
    grid = np.ones((h, w), dtype=np.uint8)
    for x, y in cells:
        grid[y, x] = 0
    rep = clusters(grid, connectivity, 0)
    return (rep.cluster_count, rep.largest, rep.target_cells,
            rep.wraps_horizontal, rep.wraps_vertical)


class TestWindingCases:
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_row_stripe_wraps_horizontally_only(self, connectivity):
        row = [(x, 2) for x in range(8)]
        assert _summary(row, 6, 8, connectivity) == (1, 8, 8, True, False)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_column_stripe_wraps_vertically_only(self, connectivity):
        column = [(3, y) for y in range(6)]
        assert _summary(column, 6, 8, connectivity) == (1, 6, 6, False, True)

    def test_diagonal(self):
        diagonal = [(i, i) for i in range(7)]
        assert _summary(diagonal, 7, 7, 4) == (7, 1, 7, False, False)
        assert _summary(diagonal, 7, 7, 8) == (1, 7, 7, True, True)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_block_across_both_seams_does_not_wrap(self, connectivity):
        corners = [(0, 0), (7, 0), (0, 5), (7, 5)]
        assert _summary(corners, 6, 8, connectivity) == (1, 4, 4, False, False)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_ring_does_not_wrap(self, connectivity):
        ring = [(x, y) for x in range(2, 5) for y in range(2, 5) if (x, y) != (3, 3)]
        assert _summary(ring, 7, 7, connectivity) == (1, 8, 8, False, False)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_band_of_class_2_1_wraps_both_ways(self, connectivity):
        band = [((2 * y + t) % 9, y) for y in range(9) for t in range(3)]
        assert _summary(band, 9, 9, connectivity) == (1, 27, 27, True, True)


class TestSweep:
    def test_same_seed_same_rows(self):
        a = percolation_sweep(SYS, [9, 12], 3, 4, seed=11)
        b = percolation_sweep(SYS, [9, 12], 3, 4, seed=11)
        assert [r.__dict__ for r in a] == [r.__dict__ for r in b]
        assert [(r.size, r.bit) for r in a] == [(9, 0), (9, 1), (12, 0), (12, 1)]
        for r in a:
            assert r.samples == 3 and r.seed == 11
            assert 0.0 <= r.wrap_fraction <= 1.0
            assert 0.0 <= r.largest_fraction_mean <= 1.0

    def test_rows_follow_sample_clusters(self):
        rows = percolation_sweep(SYS, [9], 1, 8, seed=5)
        kernel = torus_kernel(SYS, 9, 9)
        grid = sample_configuration(kernel, mix(5, "sweep", 9, 0))
        for row in rows:
            rep = clusters(grid, 8, row.bit)
            total = rep.target_cells
            assert row.wrap_fraction == float(rep.wraps_horizontal or rep.wraps_vertical)
            assert row.largest_fraction_mean == (rep.largest / total if total else 0.0)
            assert row.stderr == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [7], 2, 4, seed=0)
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [9], 0, 4, seed=0)

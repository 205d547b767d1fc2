"""Percolation: union-find clusters vs universal-cover BFS, sweep determinism."""

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
    assert rep.total_target_cells() == int((grid == bit).sum())


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
            total = rep.total_target_cells()
            assert row.wrap_fraction == float(rep.wraps_horizontal or rep.wraps_vertical)
            assert row.largest_fraction_mean == (rep.largest / total if total else 0.0)
            assert row.stderr == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [7], 2, 4, seed=0)
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [9], 0, 4, seed=0)

"""Percolation: array-labelled clusters vs universal-cover BFS (degenerate
shapes included), winding cases with known answers, sweep determinism and
bounds."""

import numpy as np
import pytest

from mixlab import algebraic, percolation
from mixlab.algebraic import (LEDRAPPIER_PATTERN, MAX_TORUS_SIDE, _draw_coefficients,
                              grid_satisfies_pattern, sample_configuration, torus_kernel)
from mixlab.percolation import MAX_SWEEP_SAMPLES, clusters, percolation_sweep
from mixlab.rng import mix

from conftest import bfs_cover_clusters, partitions_equal, reference_percolation_sweep

SYS = LEDRAPPIER_PATTERN


def _kernel_samples(w, h, count):
    kernel = torus_kernel(SYS, w, h)
    assert kernel.dim > 0
    return [sample_configuration(kernel, seed) for seed in range(count)]


def _assert_discovery_order(roots, labels):
    """Each cell of a BFS cluster holds the flat index of the cluster's
    first row-major cell."""
    flat, found = roots.ravel(), labels.ravel()
    for label in np.unique(found[found >= 0]):
        cells = np.flatnonzero(found == label)
        assert np.all(flat[cells] == cells[0])


def _assert_matches_bfs(grid, connectivity, bit):
    reports = clusters(grid, connectivity)
    rep = reports[bit]
    assert rep.roots is reports[1 - bit].roots and rep.roots.shape == grid.shape
    labels, wrap_h, wrap_v = bfs_cover_clusters(grid, connectivity, bit)
    assert partitions_equal(np.where(grid == bit, rep.roots, -1), labels)
    _assert_discovery_order(rep.roots, labels)
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
            assert grid_satisfies_pattern(SYS, grid)
            _assert_matches_bfs(grid, connectivity, bit)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_random_grids(self, connectivity):
        rng = np.random.default_rng(7)
        for h, w in [(5, 7), (10, 10), (16, 9)]:
            for density in (0.3, 0.5, 0.7):
                grid = (rng.random((h, w)) < density).astype(np.uint8)
                for bit in (0, 1):
                    _assert_matches_bfs(grid, connectivity, bit)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("h,w", [(1, 1), (1, 2), (2, 1), (1, 6), (6, 1),
                                     (2, 2), (2, 3), (3, 2)])
    def test_degenerate_shapes(self, h, w, connectivity):
        # Every 0/1 grid of the shape.  Here seam edges can be self-loops
        # (a side of 1) or double a box edge (a side of 2).
        for code in range(1 << (h * w)):
            grid = ((code >> np.arange(h * w)) & 1).astype(np.uint8).reshape(h, w)
            for bit in (0, 1):
                _assert_matches_bfs(grid, connectivity, bit)

    def test_eight_connected_diagonals_across_both_seams(self):
        # All four corners are target cells, so the corner-to-corner
        # diagonal wraps both seams at once.
        rng = np.random.default_rng(11)
        for h, w in [(3, 3), (4, 7), (9, 5), (12, 12), (17, 10)]:
            for density in (0.35, 0.5, 0.65):
                for bit in (0, 1):
                    grid = (rng.random((h, w)) < density).astype(np.uint8)
                    grid[[0, 0, -1, -1], [0, -1, 0, -1]] = bit
                    _assert_matches_bfs(grid, 8, bit)

    def test_ledrappier_sample_at_129(self):
        grid = _kernel_samples(129, 129, 1)[0]
        for connectivity in (4, 8):
            for bit in (0, 1):
                _assert_matches_bfs(grid, connectivity, bit)

    def test_full_grid_wraps_both_ways(self):
        grid = np.zeros((6, 8), dtype=np.uint8)
        rep = clusters(grid, 4)[0]
        assert rep.cluster_count == 1 and rep.largest == 48
        assert rep.wraps_horizontal and rep.wraps_vertical
        assert clusters(grid, 4)[1].cluster_count == 0

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_complement_swaps_the_reports(self, connectivity):
        # clusters(1 - g) is clusters(g) with the bit-0 and bit-1 reports
        # swapped, roots included.
        rng = np.random.default_rng(13)
        grids = _kernel_samples(9, 9, 3) + _kernel_samples(15, 6, 3)
        grids += [(rng.random((h, w)) < density).astype(np.uint8)
                  for h, w in [(1, 1), (2, 3), (7, 5), (16, 9)] for density in (0.3, 0.7)]
        for grid in grids:
            zeros, ones = clusters(grid, connectivity)
            flipped = clusters(1 - grid, connectivity)
            for rep, mirror in ((zeros, flipped[1]), (ones, flipped[0])):
                assert mirror.target_bit == 1 - rep.target_bit
                for name in ("cluster_count", "target_cells", "largest",
                             "wraps_horizontal", "wraps_vertical"):
                    assert getattr(mirror, name) == getattr(rep, name), name
                assert np.array_equal(mirror.roots, rep.roots)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_wrap_flags_belong_to_the_winding_bit(self, connectivity):
        # Isolated zeros in a sea of ones: the ones wind both ways, the
        # zeros neither way.
        grid = np.ones((8, 10), dtype=np.uint8)
        grid[[1, 1, 4, 6], [2, 7, 4, 8]] = 0
        zeros, ones = clusters(grid, connectivity)
        assert (zeros.target_bit, zeros.cluster_count, zeros.largest) == (0, 4, 1)
        assert not zeros.wraps_horizontal and not zeros.wraps_vertical
        assert (ones.target_bit, ones.cluster_count, ones.largest) == (1, 1, 76)
        assert ones.wraps_horizontal and ones.wraps_vertical

    def test_invalid_arguments(self):
        grid = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(ValueError):
            clusters(grid, 6)


def _summary(cells, h, w, connectivity):
    """(cluster count, largest, target cells, wrap h, wrap v) of the bit-0
    cells at (x, y) in `cells` on an h x w grid of ones."""
    grid = np.ones((h, w), dtype=np.uint8)
    for x, y in cells:
        grid[y, x] = 0
    rep = clusters(grid, connectivity)[0]
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

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_self_loop_and_double_edge_wrap(self, connectivity):
        # On a 1 x 1 torus each step is a self-loop that winds once; on a
        # 2 x 2 torus a row pair is joined by a box edge and a seam edge.
        assert _summary([(0, 0)], 1, 1, connectivity) == (1, 1, 1, True, True)
        assert _summary([(0, 0), (1, 0)], 2, 2, connectivity) == (1, 2, 2, True, False)

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
            rep = clusters(grid, 8)[row.bit]
            total = rep.target_cells
            assert row.wrap_fraction == float(rep.wraps_horizontal or rep.wraps_vertical)
            assert row.largest_fraction_mean == (rep.largest / total if total else 0.0)
            assert row.stderr == 0.0

    # Side -> kernel dimension of the Ledrappier torus.
    DIMS = {11: 0, 9: 4, 18: 8, 12: 16, 31: 40}

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("size", list(DIMS), ids=[f"dim{d}" for d in DIMS.values()])
    def test_rows_match_per_sample_reference(self, size, connectivity):
        assert torus_kernel(SYS, size, size).dim == self.DIMS[size]
        for samples in range(1, 7):
            seed = 1000 * size + 10 * samples + connectivity
            rows = percolation_sweep(SYS, [size], samples, connectivity, seed)
            expected = reference_percolation_sweep(SYS, [size], samples, connectivity, seed)
            assert [r.__dict__ for r in rows] == [r.__dict__ for r in expected]

    def test_sweep_over_sizes_matches_per_sample_reference(self):
        sizes = list(self.DIMS)
        assert [r.__dict__ for r in percolation_sweep(SYS, sizes, 6, 8, seed=77)] == \
            [r.__dict__ for r in reference_percolation_sweep(SYS, sizes, 6, 8, 77)]

    def test_each_distinct_vector_is_checked_and_labelled_once(self, monkeypatch):
        checked, labelled = [], []
        check, label = percolation.grid_satisfies_pattern, percolation.clusters
        monkeypatch.setattr(percolation, "grid_satisfies_pattern",
                            lambda pattern, grid: checked.append(grid.copy()) or check(pattern, grid))
        monkeypatch.setattr(percolation, "clusters",
                            lambda grid, conn: labelled.append(grid.copy()) or label(grid, conn))
        sizes, samples, seed = list(self.DIMS), 6, 4
        percolation_sweep(SYS, sizes, samples, 4, seed)
        expected = []
        for n in sizes:
            kernel = torus_kernel(SYS, n, n)
            first = {}  # vector -> its first sample
            for s in range(samples):
                first.setdefault(_draw_coefficients(kernel, mix(seed, "sweep", n, s)), s)
            expected += [sample_configuration(kernel, mix(seed, "sweep", n, s))
                         for s in first.values()]
            # Dimension 0 has one vector, dimension 4 repeats one here, and
            # the larger kernels draw six distinct vectors.
            assert len(first) == {0: 1, 4: 5}.get(self.DIMS[n], samples)
        assert len(checked) == len(labelled) == len(expected)
        for a, b, grid in zip(checked, labelled, expected):
            assert np.array_equal(a, grid) and np.array_equal(b, grid)

    def test_dimension_0_draws_build_no_stream(self, monkeypatch):
        # A 22 x 22 Ledrappier torus has one configuration, all zeros: its
        # samples read no random bit, so no substream is built for them.
        kernel = torus_kernel(SYS, 22, 22)
        assert kernel.dim == 0
        expected = [r.__dict__ for r in reference_percolation_sweep(SYS, [22], 3, 4, 5)]

        def no_stream(*args):
            raise AssertionError("a substream was built")
        monkeypatch.setattr(algebraic, "substream", no_stream)
        assert not sample_configuration(kernel, 9).any()
        assert [r.__dict__ for r in percolation_sweep(SYS, [22], 3, 4, seed=5)] == expected

    def test_violating_configuration_raises(self, monkeypatch):
        monkeypatch.setattr(percolation, "grid_satisfies_pattern", lambda pattern, grid: False)
        with pytest.raises(AssertionError, match="violates the defining relation"):
            percolation_sweep(SYS, [11], 2, 4, seed=0)

    @pytest.mark.parametrize("sizes,samples", [
        ([9, MAX_TORUS_SIDE + 1], 2),
        ([9], MAX_SWEEP_SAMPLES + 1),
    ])
    def test_bounds_are_checked_before_any_kernel(self, monkeypatch, sizes, samples):
        def no_kernel(*args):
            raise AssertionError("a kernel was built")
        monkeypatch.setattr(percolation, "torus_kernel", no_kernel)
        with pytest.raises(ValueError, match="must lie in"):
            percolation_sweep(SYS, sizes, samples, 4, seed=0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [7], 2, 4, seed=0)
        with pytest.raises(ValueError):
            percolation_sweep(SYS, [9], 0, 4, seed=0)
        for sizes in ([], [9, 12, 9]):
            with pytest.raises(ValueError, match="one or more distinct lattice sizes"):
                percolation_sweep(SYS, sizes, 2, 4, seed=0)

"""SVG builders emit well-formed documents; the heatmap, grid and cluster
writers write the bytes of their per-cell reference loops, also when their
lines end before, on and after a block boundary."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import (BLOCK_ROW_COUNTS, reference_cluster_svg, reference_grid_svg,
                      reference_heatmap_svg)

from mixlab.percolation import clusters
from mixlab.svg import cluster_svg, grid_svg, heatmap_svg

NS = "{http://www.w3.org/2000/svg}"


def _parse(text):
    root = ET.fromstring(text)
    assert root.tag == NS + "svg"
    return root


def test_grid_svg_parses():
    grid = [[0, 1, 1], [1, 0, 0]]
    root = _parse(grid_svg(grid, title="size=3 seed=0"))
    assert root.get("width") == "36" and root.get("height") == "24"
    assert root.find(NS + "title").text == "size=3 seed=0"
    assert len(root.findall(NS + "rect")) == 1 + 3  # background plus the 1 bits


def test_cluster_svg_parses():
    grid = [[0, 0, 1], [1, 0, 1]]
    labels = [[0, 0, -1], [-1, 0, -1]]
    root = _parse(cluster_svg(grid, labels, target_bit=0, title="clusters"))
    assert len(root.findall(NS + "rect")) == 1 + 3


def test_heatmap_svg_parses():
    field = [[0.5, None], [None, 0.25]]
    root = _parse(heatmap_svg(field, x_label="z", y_label="w", title="defects"))
    assert len(root.findall(NS + "rect")) == 1 + 2
    assert [t.text for t in root.findall(NS + "text")] == ["z (max 0.5)", "w"]


def test_nan_cells_render_blank():
    field = np.array([[0.5, np.nan], [np.nan, 0.25]])
    same = heatmap_svg(field, x_label="z", y_label="w", title="defects") == \
        heatmap_svg([[0.5, None], [None, 0.25]], x_label="z", y_label="w", title="defects")
    assert same


def test_empty_inputs_parse():
    _parse(grid_svg([]))
    _parse(heatmap_svg([]))


# ---------------------------------------------------------------------------
# The array heatmap writes the bytes of the per-cell loop

def _lists(field):
    """A float array as nested lists with None for NaN."""
    return [[None if v != v else v for v in row] for row in np.asarray(field).tolist()]


HEATMAP_FIELDS = {
    "empty list": [],
    "empty array": np.empty((0, 0)),
    "one empty row": [[]],
    "all NaN": np.full((4, 4), np.nan),
    "all zero": np.zeros((3, 5)),
    "zeros and blanks": [[0.0, None], [None, 0.0]],
    "negative zero first": [[-0.0, 0.0, None]],
    "non-square": np.arange(12, dtype=float).reshape(3, 4) / 7,
    "tall": np.linspace(0.0, 2.0, 14).reshape(7, 2),
    "ties at the max": [[0.25, 0.5, None], [0.5, 0.125, 0.5]],
    "ints": [[1, None, 3], [2, 0, None]],
    "negative values": [[-1.0, -2.0, None], [-0.5, 0.5, -0.25]],
    "huge values": [[1e300, 3e299, None], [1e-300, 0.0, 1e300]],
}


@pytest.mark.parametrize("name", sorted(HEATMAP_FIELDS))
def test_heatmap_matches_cell_loop(name):
    field = HEATMAP_FIELDS[name]
    expected = reference_heatmap_svg(_lists(field) if isinstance(field, np.ndarray) else field,
                                     x_label="z", y_label="w", title=name)
    # outside the assert: a failed == of long strings is diffed for minutes
    same = heatmap_svg(field, x_label="z", y_label="w", title=name) == expected
    assert same
    if isinstance(field, np.ndarray):
        same = heatmap_svg(_lists(field), x_label="z", y_label="w", title=name) == expected
        assert same


@pytest.mark.parametrize("seed", range(6))
def test_heatmap_matches_cell_loop_on_random_fields(seed):
    gen = np.random.default_rng(seed)
    h, w = gen.integers(1, 40, size=2)
    field = gen.choice([0.0, 0.1, 0.3, 1 / 3, 0.7, 0.9], size=(h, w)) * gen.random((h, w)) ** seed
    field[gen.random((h, w)) < 0.3] = np.nan
    same = heatmap_svg(field) == reference_heatmap_svg(_lists(field))
    assert same


# ---------------------------------------------------------------------------
# The array grid and cluster writers write the bytes of the per-cell loops

BIT_GRIDS = {
    "empty list": [],
    "empty array": np.empty((0, 0), dtype=np.uint8),
    "one empty row": [[]],
    "one cell, 0": [[0]],
    "one cell, 1": [[1]],
    "all 0": np.zeros((4, 6), dtype=np.uint8),
    "all 1": np.ones((5, 3), dtype=np.uint8),
    "wide": np.array([[0, 1, 1, 0, 1, 0, 0, 1]] * 2, dtype=np.uint8),
    "tall": np.array([[1], [0], [1], [1], [0]], dtype=np.uint8),
    "non-square": (np.arange(35).reshape(5, 7) % 3 == 0).astype(np.uint8),
}


def _nested(a):
    return np.asarray(a).tolist()


@pytest.mark.parametrize("name", sorted(BIT_GRIDS))
def test_grid_svg_matches_cell_loop(name):
    grid = BIT_GRIDS[name]
    expected = reference_grid_svg(_nested(grid), title=name)
    same = grid_svg(grid, title=name) == expected
    assert same
    same = grid_svg(_nested(grid), title=name) == expected
    assert same


@pytest.mark.parametrize("name", sorted(BIT_GRIDS))
@pytest.mark.parametrize("target_bit", [0, 1])
def test_cluster_svg_matches_cell_loop_on_cluster_labels(name, target_bit):
    grid = np.asarray(BIT_GRIDS[name], dtype=np.uint8)
    if grid.size == 0:
        grid = grid.reshape(len(grid), 0)
    labels = clusters(grid, 4)[target_bit].roots if grid.size else np.full(grid.shape, -1)
    expected = reference_cluster_svg(_nested(grid), _nested(labels), target_bit, title=name)
    same = cluster_svg(grid, labels, target_bit, title=name) == expected
    assert same
    same = cluster_svg(_nested(grid), _nested(labels), target_bit, title=name) == expected
    assert same


LABELLED = {
    # First met: 5, then 2, then 0; numeric order would colour 0 first.
    "first-seen order is not numeric": ([[1, 1, 0], [1, 1, 1]], [[5, 2, -1], [0, 5, 2]]),
    # Target cells labelled -1 get a colour like any other label.
    "-1 on target cells": ([[0, 0, 1], [0, 1, 0]], [[-1, 3, 9], [3, 9, -1]]),
    "one label": ([[0, 0], [0, 0]], [[7, 7], [7, 7]]),
    "no target cells": ([[1, 1], [1, 1]], [[0, 0], [0, 0]]),
    "many labels": (np.zeros((20, 20), dtype=np.uint8),
                    (np.arange(400).reshape(20, 20) * 7919) % 401 - 3),
}


@pytest.mark.parametrize("name", sorted(LABELLED))
def test_cluster_svg_matches_cell_loop_on_given_labels(name):
    grid, labels = LABELLED[name]
    expected = reference_cluster_svg(_nested(grid), _nested(labels), 0, title=name)
    same = cluster_svg(np.asarray(grid), np.asarray(labels), 0, title=name) == expected
    assert same
    same = cluster_svg(grid, labels, 0, title=name) == expected
    assert same


@pytest.mark.parametrize("seed", range(6))
def test_grid_writers_match_cell_loops_on_random_grids(seed):
    gen = np.random.default_rng(seed)
    h, w = (int(v) for v in gen.integers(1, 40, size=2))
    grid = (gen.random((h, w)) < gen.random()).astype(np.uint8)
    same = grid_svg(grid) == reference_grid_svg(_nested(grid))
    assert same
    for target_bit in (0, 1):
        labels = gen.integers(-1, 12, size=(h, w))
        same = cluster_svg(grid, labels, target_bit) == \
            reference_cluster_svg(_nested(grid), _nested(labels), target_bit)
        assert same
        labels = clusters(grid, int(gen.choice([4, 8])))[target_bit].roots
        same = cluster_svg(grid, labels, target_bit) == \
            reference_cluster_svg(_nested(grid), _nested(labels), target_bit)
        assert same


@pytest.mark.parametrize("cells", BLOCK_ROW_COUNTS)
def test_writers_match_cell_loops_at_block_boundaries(small_blocks, cells):
    # Exactly `cells` drawn cells in a 4 x 5 grid: one <rect> line each.
    gen = np.random.default_rng(cells)
    drawn = np.zeros(20, dtype=bool)
    drawn[gen.permutation(20)[:cells]] = True
    drawn = drawn.reshape(4, 5)
    grid = drawn.astype(np.uint8)
    labels = gen.integers(-1, 6, size=grid.shape)
    field = np.where(drawn, gen.choice([0.1, 0.5, 0.9], size=grid.shape), np.nan)
    same = grid_svg(grid) == reference_grid_svg(_nested(grid))
    assert same
    same = cluster_svg(grid, labels, 1) == reference_cluster_svg(_nested(grid), _nested(labels), 1)
    assert same
    same = cluster_svg(1 - grid, labels, 0) == \
        reference_cluster_svg(_nested(1 - grid), _nested(labels), 0)
    assert same
    same = heatmap_svg(field, title="t") == reference_heatmap_svg(_lists(field), title="t")
    assert same

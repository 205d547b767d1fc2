"""SVG builders emit well-formed documents; the heatmap writes the bytes of
the per-cell reference loop."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import reference_heatmap_svg

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
    assert heatmap_svg(field, x_label="z", y_label="w", title="defects") == \
        heatmap_svg([[0.5, None], [None, 0.25]], x_label="z", y_label="w", title="defects")


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
    assert heatmap_svg(field, x_label="z", y_label="w", title=name) == expected
    if isinstance(field, np.ndarray):
        assert heatmap_svg(_lists(field), x_label="z", y_label="w", title=name) == expected


@pytest.mark.parametrize("seed", range(6))
def test_heatmap_matches_cell_loop_on_random_fields(seed):
    gen = np.random.default_rng(seed)
    h, w = gen.integers(1, 40, size=2)
    field = gen.choice([0.0, 0.1, 0.3, 1 / 3, 0.7, 0.9], size=(h, w)) * gen.random((h, w)) ** seed
    field[gen.random((h, w)) < 0.3] = np.nan
    assert heatmap_svg(field) == reference_heatmap_svg(_lists(field))

"""SVG builders emit well-formed documents."""

import xml.etree.ElementTree as ET

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


def test_empty_inputs_parse():
    _parse(grid_svg([]))
    _parse(heatmap_svg([]))

"""Minimal deterministic SVG builders for grids and heatmaps.

Each picture is one `<rect>` line per drawn cell.  A line is a column
head, a row middle and a fill tail, each formatted once per distinct value,
and the lines are joined a block of rows at a time (`text.join_rows`)
together with the document's header and footer: no object array or list
of pieces the size of the picture is built, and the text is not copied
after its join.
"""

from __future__ import annotations

import numpy as np

from .text import classes, join_rows

DARK = "#1b1b1f"
LIGHT = "#f4f1e8"
# Side in pixels of one grid cell.
CELL = 12


def _header(width: int, height: int, title: str = "") -> list[str]:
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if title:
        lines.append(f"<title>{title}</title>")
    return lines


def _grid(field, dtype=None) -> np.ndarray:
    """`field` ([row][column]) as a 2-D array; an empty list is 0 x 0."""
    values = np.asarray(field, dtype=dtype)
    return values.reshape(len(field), 0) if values.size == 0 else values


def _rects(lines: list[str], rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int],
           cell: int, margin: int, tails: np.ndarray, which: np.ndarray, foot: str) -> str:
    """The opening `lines`, one `<rect>` line per (row, column) cell in the
    order given, then `foot`, in one join (`text.join_rows`).  A cell's line
    is a column head and a row middle, each formatted once per column or
    row, then its tail `tails[which]`."""
    h, w = shape
    heads = np.array([f'<rect x="{margin + i * cell}" y="' for i in range(w)], dtype=object)
    middles = np.array([f'{j * cell}" width="{cell}" height="{cell}" ' for j in range(h)],
                       dtype=object)
    return join_rows("\n".join(lines) + "\n", [(heads, cols), (middles, rows), (tails, which)],
                     foot)


def grid_svg(grid, title: str = "") -> str:
    """Bit grid (2-D array or nested lists) as filled squares; bit 0 dark,
    bit 1 light, one light `<rect>` per nonzero cell in row-major order."""
    values = _grid(grid)
    h, w = values.shape
    rows, cols = np.nonzero(values)
    lines = _header(w * CELL, h * CELL, title)
    lines.append(f'<rect width="{w * CELL}" height="{h * CELL}" fill="{DARK}"/>')
    fill = np.array([f'fill="{LIGHT}"/>\n'], dtype=object)
    return _rects(lines, rows, cols, (h, w), CELL, 0, fill, np.zeros(rows.size, dtype=np.intp),
                  "</svg>\n")


def _palette_color(k: int) -> str:
    # Deterministic well-spread hues via the golden-angle walk.
    hue = (k * 137) % 360
    return f"hsl({hue},70%,55%)"


def cluster_svg(grid, labels, target_bit: int, title: str = "") -> str:
    """Grid with same-bit clusters tinted by label; other cells stay flat.
    Cells of `target_bit` are drawn in row-major order, each label in the
    palette colour of its rank in the order labels are first met."""
    values = _grid(grid)
    h, w = values.shape
    rows, cols = np.nonzero(values == target_bit)
    _, first, inverse = np.unique(_grid(labels)[rows, cols], return_index=True,
                                  return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    tails = np.array([f'fill="{_palette_color(k)}"/>\n' for k in range(first.size)],
                     dtype=object)
    lines = _header(w * CELL, h * CELL, title)
    base = DARK if target_bit == 1 else LIGHT
    lines.append(f'<rect width="{w * CELL}" height="{h * CELL}" fill="{base}"/>')
    return _rects(lines, rows, cols, (h, w), CELL, 0, tails, rank[inverse.ravel()], "</svg>\n")


def heatmap_svg(field, x_label: str = "x", y_label: str = "y", title: str = "") -> str:
    """Scalar field (2-D float array or nested lists, [row][column]) as a
    grayscale-to-red heatmap; NaN cells, like None list entries, stay blank.
    A value v is drawn in rgb(r, gb, gb): t = min(1, v / vmax) with vmax the
    first largest value in row-major order, r = int(40 + 215 t), gb =
    int(40 + 180 (1 - t)).  Each colour tail is formatted once per distinct
    colour."""
    values = _grid(field, dtype=float)
    h, w = values.shape
    cell, margin = 6, 18
    rows, cols = np.nonzero(~np.isnan(values))
    vals = values[rows, cols]
    vmax = float(vals[np.flatnonzero(vals == vals.max())[0]]) if vals.size else 0.0
    ratio = vals / vmax if vmax != 0 else np.zeros_like(vals)
    t = np.where(ratio < 1.0, ratio, 1.0)  # min(1.0, ratio), NaN included
    r = (40 + 215 * t).astype(np.int64)  # truncated toward zero, as by int()
    gb = (40 + 180 * (1 - t)).astype(np.int64)
    gb_lo = int(gb.min(initial=0))
    span = int(gb.max(initial=0)) - gb_lo + 1
    which, member = classes(r * span + gb - gb_lo)
    tails = np.array([f'fill="rgb({a},{b},{b})"/>\n'
                      for a, b in zip(r[member].tolist(), gb[member].tolist())], dtype=object)
    lines = _header(w * cell + margin, h * cell + margin, title)
    lines.append(f'<rect width="{w * cell + margin}" height="{h * cell + margin}" fill="#ffffff"/>')
    foot = (f'<text x="{margin + (w * cell) // 2}" y="{h * cell + 14}" font-size="10" '
            f'text-anchor="middle">{x_label} (max {vmax:.6g})</text>\n'
            f'<text x="10" y="{(h * cell) // 2}" font-size="10" text-anchor="middle" '
            f'transform="rotate(-90 10 {(h * cell) // 2})">{y_label}</text>\n</svg>\n')
    return _rects(lines, rows, cols, (h, w), cell, margin, tails, which, foot)

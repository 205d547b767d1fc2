"""Minimal deterministic SVG builders for grids and heatmaps."""

from __future__ import annotations

from typing import Optional, Sequence

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


def grid_svg(grid, title: str = "") -> str:
    """Bit grid as filled squares; bit 0 dark, bit 1 light."""
    h = len(grid)
    w = len(grid[0]) if h else 0
    lines = _header(w * CELL, h * CELL, title)
    lines.append(f'<rect width="{w * CELL}" height="{h * CELL}" fill="{DARK}"/>')
    for j in range(h):
        for i in range(w):
            if grid[j][i]:
                lines.append(
                    f'<rect x="{i * CELL}" y="{j * CELL}" width="{CELL}" height="{CELL}" '
                    f'fill="{LIGHT}"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _palette_color(k: int) -> str:
    # Deterministic well-spread hues via the golden-angle walk.
    hue = (k * 137) % 360
    return f"hsl({hue},70%,55%)"


def cluster_svg(grid, labels, target_bit: int, title: str = "") -> str:
    """Grid with same-bit clusters tinted by label; other cells stay flat."""
    h = len(grid)
    w = len(grid[0]) if h else 0
    lines = _header(w * CELL, h * CELL, title)
    base = DARK if target_bit == 1 else LIGHT
    lines.append(f'<rect width="{w * CELL}" height="{h * CELL}" fill="{base}"/>')
    order: dict[int, int] = {}
    for j in range(h):
        for i in range(w):
            if grid[j][i] != target_bit:
                continue
            lab = labels[j][i]
            if lab not in order:
                order[lab] = len(order)
            lines.append(
                f'<rect x="{i * CELL}" y="{j * CELL}" width="{CELL}" height="{CELL}" '
                f'fill="{_palette_color(order[lab])}"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def heatmap_svg(field: Sequence[Sequence[Optional[float]]],
                x_label: str = "x", y_label: str = "y", title: str = "") -> str:
    """Scalar field as a grayscale-to-red heatmap; None cells render blank."""
    h = len(field)
    w = len(field[0]) if h else 0
    cell, margin = 6, 18
    vals = [v for row in field for v in row if v is not None]
    vmax = max(vals) if vals else 0.0
    lines = _header(w * cell + margin, h * cell + margin, title)
    lines.append(f'<rect width="{w * cell + margin}" height="{h * cell + margin}" fill="#ffffff"/>')
    for j in range(h):
        for i in range(w):
            v = field[j][i]
            if v is None:
                continue
            t = 0.0 if vmax == 0 else min(1.0, v / vmax)
            r = int(40 + 215 * t)
            gb = int(40 + 180 * (1 - t))
            lines.append(
                f'<rect x="{margin + i * cell}" y="{j * cell}" width="{cell}" height="{cell}" '
                f'fill="rgb({r},{gb},{gb})"/>'
            )
    lines.append(
        f'<text x="{margin + (w * cell) // 2}" y="{h * cell + 14}" font-size="10" '
        f'text-anchor="middle">{x_label} (max {vmax:.6g})</text>'
    )
    lines.append(
        f'<text x="10" y="{(h * cell) // 2}" font-size="10" text-anchor="middle" '
        f'transform="rotate(-90 10 {(h * cell) // 2})">{y_label}</text>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"

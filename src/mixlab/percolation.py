"""Thread and cluster analysis of sampled lattice configurations.

Connected components of equal-valued cells under 4- or 8-connectivity on the
torus, labelled on arrays in one pass for both bit values: components of the
open box come from pointer jumping over the edges that do not wrap, and a
small union-find joins them across the seam edges that do.  Each call reads
both edge sets off the grid itself, the box edges as the equal pairs of
shifted views and the seam edges from index ranges of the border, so no
table is kept per shape.  The union-find's nodes keep their position in the
universal cover, so a seam edge that closes a cycle with a nonzero
displacement winds around the torus, the standard finite-volume proxy for
an infinite thread.  Every component has one colour, so the one labelling
yields a report per bit value, and both reports share its root array: each
cell holds the flat index of its cluster's first row-major cell.  A sweep
labels each distinct configuration of a size once: a sample is fixed by its
coefficient vector over the kernel basis, so samples that repeat a vector
share one build, check and labelling.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebraic import (MAX_TORUS_SIDE, RelationPattern, TorusKernel, _build_configuration,
                        _draw_coefficients, grid_satisfies_pattern, torus_kernel)
from .rng import mix


@dataclass
class ClusterReport:
    """Cluster statistics of one bit value on a torus grid.

    `roots` is the (h, w) view of the labelling both bits' reports share:
    each cell holds the flat index of its cluster's first row-major cell,
    cells of the other bit included.
    """

    target_bit: int
    cluster_count: int
    target_cells: int
    largest: int
    wraps_horizontal: bool
    wraps_vertical: bool
    roots: np.ndarray = field(repr=False)


def _box_roots(parent: np.ndarray, ru: np.ndarray, rv: np.ndarray) -> np.ndarray:
    """Map each cell to the smallest flat index of its component under the
    edges (ru, rv), starting from `parent`, a forest in which every cell
    points at its tree's smallest cell.

    Each round keeps only the roots of the live edges' ends, hooks the
    larger root of each to the smaller with `np.minimum.at`, jumps pointers
    among the hooked roots until each reaches a root, then points every
    cell, and so every old root, at its root again.
    """
    while True:
        ru, rv = parent[ru], parent[rv]
        live = ru != rv
        if not live.any():
            return parent
        # Edges whose ends share a root stay joined; only live ones hook.
        ru, rv = ru[live], rv[live]
        hooked = np.maximum(ru, rv)
        np.minimum.at(parent, hooked, np.minimum(ru, rv))
        while True:
            up = parent[hooked]
            jumped = parent[up]
            if (jumped == up).all():
                break
            parent[hooked] = jumped
        parent = parent[parent]


def clusters(grid: np.ndarray, connectivity: int = 4) -> tuple[ClusterReport, ClusterReport]:
    """(report for bit 0, report for bit 1) of the clusters with torus
    wraparound, from one labelling that joins every pair of equal-valued
    neighbours, so that each component has one colour.

    Components of the open box come from row runs and `_box_roots` over the
    equal neighbours one row down (and, with 8-connectivity, one row down
    and one column across).  They are joined across the O(w+h) seam edges
    in a union-find whose nodes keep their cover offset (dx, dy), in tori,
    from their set's root.  A seam edge inside one set closes a
    cycle winding dx times horizontally and dy times vertically.  The
    fundamental cycles of this spanning forest generate each cluster's
    winding lattice, so a bit's horizontal / vertical wrap flag is set exactly
    when one of its clusters winds in x / y.  Each set keeps its smallest
    root, its first row-major cell, which every cell of the set then holds.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    h, w = grid.shape
    n = h * w
    flat = np.asarray(grid).ravel()
    g = flat.reshape(h, w)
    # Each run of equal values along a row starts as one tree rooted at its
    # first cell, so the row steps inside the box need no hooking.
    index = np.arange(n)
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = flat[1:] != flat[:-1]
    run_start[::w or 1] = True
    runs = np.maximum.accumulate(np.where(run_start, index, 0))
    # The other joined box edges, from their upper end u: a cell of the top
    # h - 1 rows has the same flat index there as in the grid.
    down = np.flatnonzero(g[:-1] == g[1:])
    box_u, box_v = down, down + w
    if connectivity == 8:
        right, left = np.zeros((2, *g[1:].shape), dtype=bool)
        np.equal(g[:-1, :-1], g[1:, 1:], out=right[:, :-1])
        np.equal(g[:-1, 1:], g[1:, :-1], out=left[:, 1:])
        right, left = np.flatnonzero(right), np.flatnonzero(left)
        box_u = np.concatenate((down, right, left))
        box_v = np.concatenate((box_v, right + w + 1, left + w - 1))
        del down, right, left  # freed before `_box_roots` allocates its own
    roots = _box_roots(runs, box_u, box_v)
    # The seam edges, from a border cell to the copy of its neighbour (kx, ky)
    # tori away, as (u, v, code) with code = 3 (kx + 1) + ky + 1: rightward
    # from the last column, downward from the bottom row and, with
    # 8-connectivity, both diagonals from each, each corner a piece of its own.
    top, bottom, first = index[:w], index[n - w:], index[::w or 1]
    last = first + w - 1
    seams = [(last, first, 7), (bottom, top, 5)]
    if connectivity == 8:
        seams += [(last[:-1], first[1:], 7), (bottom[:-1], top[1:], 5),
                  (first[:-1], last[1:], 1), (bottom[1:], top[:-1], 5),
                  (bottom[-1:], top[:1], 8), (bottom[:1], top[-1:], 2)]
    seam_u = np.concatenate([u for u, _, _ in seams])
    seam_v = np.concatenate([v for _, v, _ in seams])
    seam_code = np.repeat([code for _, _, code in seams], [len(u) for u, _, _ in seams])
    up: dict[int, tuple[int, int, int]] = {}  # node -> (parent, dx, dy)

    def find(node: int) -> tuple[int, int, int]:
        """Root of `node` and its offset from it, compressing the path."""
        path = []
        while node in up:
            path.append(node)
            node = up[node][0]
        dx = dy = 0
        for step in reversed(path):
            _, ox, oy = up[step]
            dx, dy = dx + ox, dy + oy
            up[step] = (node, dx, dy)
        return node, dx, dy

    # Seam edges between the same two box components with the same step are
    # one edge to the union-find: box components carry no offset.
    keep = flat[seam_u] == flat[seam_v]
    keys = (roots[seam_u[keep]] * n + roots[seam_v[keep]]) * 9 + seam_code[keep]
    winds_h, winds_v = set(), set()  # the bits of the clusters that wind in x / y
    for key in set(keys.tolist()):
        pair, code = divmod(key, 9)
        a, b = divmod(pair, n)
        ra, ax, ay = find(a)
        rb, bx, by = find(b)
        # The copy of b reached from a lies at ra + (ax + kx, ay + ky), and b
        # itself at rb + (bx, by): dx, dy is the offset of rb from ra.
        dx, dy = ax + code // 3 - 1 - bx, ay + code % 3 - 1 - by
        if ra == rb:
            if dx:
                winds_h.add(int(flat[ra]))
            if dy:
                winds_v.add(int(flat[ra]))
        elif ra < rb:
            up[rb] = (ra, dx, dy)
        else:
            up[ra] = (rb, -dx, -dy)
    if up:
        merged = index.copy()
        nodes = list(up)
        merged[nodes] = [find(node)[0] for node in nodes]
        roots = merged[roots]
    sizes = np.bincount(roots, minlength=n)
    is_root = roots == index
    shared = roots.reshape(h, w)

    def report(bit: int) -> ClusterReport:
        cells = flat == bit
        first = is_root & cells
        return ClusterReport(
            target_bit=bit, cluster_count=int(np.count_nonzero(first)),
            target_cells=int(np.count_nonzero(cells)), largest=int(sizes[first].max(initial=0)),
            wraps_horizontal=bit in winds_h, wraps_vertical=bit in winds_v,
            roots=shared,
        )

    return report(0), report(1)


# A distinct sample costs a draw and one labelling, 0.6-0.9 ms at side 65
# (0.9-1.4 ms with 8-connectivity) on a 2-vCPU Xeon VM, and a repeated one
# only its draw, so a size of that scale stays under 20 s.
MAX_SWEEP_SAMPLES = 10_000

# Each size builds its own kernel (2 ms at side 257, 6-12 ms at 1023), so
# kernels take under a second of a 64-size sweep.  Labelling costs more:
# 0.1-0.2 s per sample at 1023 (0.3 s with 8-connectivity), and
# `percolate --sizes 1023 --samples 2` runs in 0.6 s with a peak resident
# set of 104 MB (0.8-0.9 s and 184 MB with 8-connectivity) on the same VM.
MAX_SWEEP_SIZES = 64


@dataclass
class SweepRow:
    size: int
    bit: int
    wrap_fraction: float
    largest_fraction_mean: float
    stderr: float
    samples: int
    seed: int


def percolation_sweep(pattern: RelationPattern, sizes: Sequence[int],
                      samples_per_size: int, connectivity: int, seed: int) -> list[SweepRow]:
    """Wrap fractions and largest-cluster fractions over sampled kernel
    configurations, per lattice size and bit value.

    Fully seed-deterministic: sample s of size n uses the substream keyed by
    (seed, n, s), and per-size aggregation runs in fixed sample order.  A
    sample is fixed by its coefficient vector, so a size draws every
    sample's vector first and builds, checks and labels one configuration
    per distinct vector; a kernel of dimension 0 labels one all-zero grid.
    """
    if len(sizes) > MAX_SWEEP_SIZES:
        raise ValueError(f"a sweep takes at most {MAX_SWEEP_SIZES} lattice sizes")
    if not sizes or len(set(sizes)) < len(sizes):
        raise ValueError("a sweep takes one or more distinct lattice sizes")
    if not all(8 <= s <= MAX_TORUS_SIDE for s in sizes):
        raise ValueError(f"lattice sizes must lie in 8..{MAX_TORUS_SIDE}")
    if not 1 <= samples_per_size <= MAX_SWEEP_SAMPLES:
        raise ValueError(f"samples per size must lie in 1..{MAX_SWEEP_SAMPLES}")
    rows: list[SweepRow] = []

    def analyze(kernel: TorusKernel, combo: int) -> tuple[dict, dict]:
        config = _build_configuration(kernel, combo)
        if not grid_satisfies_pattern(pattern, config):
            raise AssertionError("sampled configuration violates the defining relation")
        # A bit with no cells has largest 0, so its fraction is 0.0.
        return tuple({"wrap": rep.wraps_horizontal or rep.wraps_vertical,
                      "largest_fraction": rep.largest / max(rep.target_cells, 1)}
                     for rep in clusters(config, connectivity))

    for size in sizes:
        kernel = torus_kernel(pattern, size, size)
        combos = [_draw_coefficients(kernel, mix(seed, "sweep", size, s))
                  for s in range(samples_per_size)]
        labelled = {combo: analyze(kernel, combo) for combo in dict.fromkeys(combos)}
        results = [labelled[combo] for combo in combos]
        for bit in (0, 1):
            wraps = [res[bit]["wrap"] for res in results]
            fracs = [res[bit]["largest_fraction"] for res in results]
            n = len(fracs)
            mean = sum(fracs) / n
            var = sum((f - mean) ** 2 for f in fracs) / (n - 1) if n > 1 else 0.0
            rows.append(SweepRow(
                size=size, bit=bit,
                wrap_fraction=sum(wraps) / n,
                largest_fraction_mean=mean,
                stderr=math.sqrt(var / n) if n > 1 else 0.0,
                samples=n, seed=seed,
            ))
    return rows


def sweep_to_csv(rows: Iterable[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["size", "bit", "wrap_fraction", "largest_fraction_mean",
                     "stderr", "samples", "seed"])
    for r in rows:
        writer.writerow([r.size, r.bit, f"{r.wrap_fraction:.12g}",
                         f"{r.largest_fraction_mean:.12g}", f"{r.stderr:.12g}",
                         r.samples, r.seed])
    return buf.getvalue()

"""Thread and cluster analysis of sampled lattice configurations.

Connected components of equal-valued cells under 4- or 8-connectivity on the
torus, labelled on arrays in one pass for both bit values: components of the
open box come from pointer jumping over the edges that do not wrap, and a
small union-find joins them across the seam edges that do.  Its nodes keep
their position in the universal cover, so a seam edge that closes a cycle
with a nonzero displacement winds around the torus, the standard
finite-volume proxy for an infinite thread.  Every component has one colour,
so the one labelling yields a report per bit value, and both reports share
its root array: each cell holds the flat index of its cluster's first
row-major cell.  A sweep labels each distinct configuration of a size once:
a sample is fixed by its coefficient vector over the kernel basis, so
samples that repeat a vector share one build, check and labelling.
"""

from __future__ import annotations

import csv
import functools
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


# One step per undirected edge, per connectivity: the forward half of the
# neighbourhood (dy >= 0), so each edge is listed once from its lower end.
_STEPS = {
    4: ((1, 0), (0, 1)),
    8: ((1, 0), (0, 1), (1, 1), (-1, 1)),
}


# Sweeps label many grids of one shape; an entry holds about one int64 pair
# per edge, so only the last few shapes are kept.
@functools.lru_cache(maxsize=4)
def _torus_edges(h: int, w: int, connectivity: int) -> tuple[np.ndarray, ...]:
    """Every edge of the h x w torus graph, as flat cell indices: (u, v) of
    the edges inside the open box except the row steps (`clusters` joins
    those by runs), then (u, v, code) of the seam edges that wrap, from a
    cell to the copy of its neighbour (kx, ky) tori away, with
    code = 3 (kx + 1) + ky + 1."""
    ys, xs = np.indices((h, w)).reshape(2, -1)
    cell = ys * w + xs
    box_u, box_v, seam_u, seam_v, seam_code = [], [], [], [], []
    for dx, dy in _STEPS[connectivity]:
        kx, nx = np.divmod(xs + dx, w)
        ky, ny = np.divmod(ys + dy, h)
        nbr = ny * w + nx
        wraps = (kx != 0) | (ky != 0)
        inside = ~wraps & (dy != 0)
        box_u.append(cell[inside])
        box_v.append(nbr[inside])
        seam_u.append(cell[wraps])
        seam_v.append(nbr[wraps])
        seam_code.append((3 * (kx + 1) + ky + 1)[wraps])
    edges = tuple(np.concatenate(a) for a in (box_u, box_v, seam_u, seam_v, seam_code))
    for a in edges:
        a.flags.writeable = False  # shared by every call for this shape
    return edges


def _box_roots(parent: np.ndarray, joined: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Map each cell to the smallest flat index of its component under the
    edges (u, v) where `joined` is set, starting from `parent`, a forest in
    which every cell points at its tree's smallest cell.

    Each round hooks the larger root of every edge to the smaller one with
    `np.minimum.at`, jumps pointers among the hooked roots until each
    reaches a root, then points every cell at its root again.
    """
    u, v = u[joined], v[joined]
    while True:
        ru, rv = parent[u], parent[v]
        live = ru != rv
        if not live.any():
            return parent
        # Edges whose ends share a root stay joined; only live ones hook.
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
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

    Components of the open box (`_box_roots`) are joined across the O(w+h)
    seam edges in a union-find whose nodes keep their cover offset (dx, dy),
    in tori, from their set's root.  A seam edge inside one set closes a
    cycle winding dx times horizontally and dy times vertically.  The
    fundamental cycles of this spanning forest generate each cluster's
    winding lattice, so a bit's horizontal / vertical wrap flag is set exactly
    when one of its clusters winds in x / y.  Each set keeps its smallest
    root, its first row-major cell, which every cell of the set then holds.
    """
    if connectivity not in _STEPS:
        raise ValueError("connectivity must be 4 or 8")
    h, w = grid.shape
    n = h * w
    box_u, box_v, seam_u, seam_v, seam_code = _torus_edges(h, w, connectivity)
    flat = np.asarray(grid).ravel()
    # Each run of equal values along a row starts as one tree rooted at its
    # first cell, so the row steps inside the box need no hooking.
    run_start = np.ones(n, dtype=bool)
    run_start[1:] = flat[1:] != flat[:-1]
    run_start[::w or 1] = True
    runs = np.maximum.accumulate(np.where(run_start, np.arange(n), 0))
    roots = _box_roots(runs, flat[box_u] == flat[box_v], box_u, box_v)
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
        merged = np.arange(n)
        nodes = list(up)
        merged[nodes] = [find(node)[0] for node in nodes]
        roots = merged[roots]
    sizes = np.bincount(roots, minlength=n)
    is_root = roots == np.arange(n)
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


# A distinct sample costs a draw and one labelling, 0.6-1.0 ms at side 65
# (1.0-1.5 ms with 8-connectivity) on a 2-vCPU Xeon VM, and a repeated one
# only its draw, so a size of that scale stays under 20 s.
MAX_SWEEP_SAMPLES = 10_000

# Each size builds its own kernel (0.01 s at side 257, 0.2-0.3 s and
# 120 MB of basis at 1023), so 64 sizes take under a second of kernel
# time at side 257 and under 20 s at 1023.
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

"""Thread and cluster analysis of sampled lattice configurations.

Connected components of a chosen bit value under 4- or 8-connectivity on the
torus, found by one flood fill in the universal cover: each cell records the
cover position at which the fill first reaches it, and reaching it again at
a different position closes a cycle that winds around the torus, the
standard finite-volume proxy for an infinite thread.  The analyzer is
bit-symmetric; sweeps always report both bit values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .algebraic import (AlgebraicSystem, TorusKernel, grid_satisfies_pattern,
                        sample_configuration, torus_kernel)
from .rng import mix


@dataclass
class ClusterReport:
    """Cluster statistics of one bit value on a torus grid.

    `labels` numbers the clusters 0, 1, ... in the order the fill discovers
    them (row-major order of each cluster's first cell); other cells are -1.
    """

    target_bit: int
    cluster_count: int
    target_cells: int
    largest: int
    wraps_horizontal: bool
    wraps_vertical: bool
    labels: np.ndarray = field(repr=False)


# Cover steps to every neighbour, both directions, per connectivity.
_STEPS = {
    4: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    8: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)),
}


def clusters(grid: np.ndarray, connectivity: int = 4, target_bit: int = 0) -> ClusterReport:
    """Clusters of `target_bit` cells with torus wraparound, by flood fill.

    Each cell keeps the universal-cover position (x, y) at which the fill
    first reached it.  Reaching it again from a neighbour at another cover
    position closes a winding cycle; the horizontal / vertical wrap flag is
    set when the two positions differ in x / y.
    """
    if connectivity not in _STEPS:
        raise ValueError("connectivity must be 4 or 8")
    if target_bit not in (0, 1):
        raise ValueError("target bit must be 0 or 1")
    h, w = grid.shape
    steps = _STEPS[connectivity]
    target = (grid == target_bit).ravel().tolist()
    labels = [-1] * (w * h)
    cover_x = [0] * (w * h)
    cover_y = [0] * (w * h)
    sizes: list[int] = []
    wrap_h = wrap_v = False
    for start, is_target in enumerate(target):
        if not is_target or labels[start] >= 0:
            continue
        label = len(sizes)
        labels[start] = label
        cover_y[start], cover_x[start] = divmod(start, w)
        stack = [start]
        size = 0
        while stack:
            cell = stack.pop()
            size += 1
            x, y = cover_x[cell], cover_y[cell]
            for dx, dy in steps:
                nx, ny = x + dx, y + dy
                n = (ny % h) * w + nx % w
                if not target[n]:
                    continue
                if labels[n] < 0:
                    labels[n] = label
                    cover_x[n], cover_y[n] = nx, ny
                    stack.append(n)
                else:
                    wrap_h = wrap_h or cover_x[n] != nx
                    wrap_v = wrap_v or cover_y[n] != ny
        sizes.append(size)
    return ClusterReport(
        target_bit=target_bit, cluster_count=len(sizes), target_cells=sum(sizes),
        largest=max(sizes, default=0), wraps_horizontal=wrap_h, wraps_vertical=wrap_v,
        labels=np.array(labels, dtype=np.int64).reshape(h, w),
    )


@dataclass
class SweepRow:
    size: int
    bit: int
    wrap_fraction: float
    largest_fraction_mean: float
    stderr: float
    samples: int
    seed: int


def percolation_sweep(system: AlgebraicSystem, sizes: Sequence[int],
                      samples_per_size: int, connectivity: int, seed: int) -> list[SweepRow]:
    """Wrap fractions and largest-cluster fractions over sampled kernel
    configurations, per lattice size and bit value.

    Fully seed-deterministic: sample s of size n uses the substream keyed by
    (seed, n, s), and per-size aggregation runs in fixed sample order.
    """
    if any(s < 8 for s in sizes):
        raise ValueError("lattice sizes must be at least 8")
    if samples_per_size < 1:
        raise ValueError("need at least one sample per size")
    rows: list[SweepRow] = []

    def analyze(kernel: TorusKernel, s_idx: int) -> tuple[dict, dict]:
        config = sample_configuration(kernel, mix(seed, "sweep", kernel.width, s_idx))
        if not grid_satisfies_pattern(system.pattern, config):
            raise AssertionError("sampled configuration violates the defining relation")
        out = {}
        for bit in (0, 1):
            rep = clusters(config, connectivity, bit)
            total = rep.target_cells
            out[bit] = {
                "wrap": rep.wraps_horizontal or rep.wraps_vertical,
                "largest_fraction": rep.largest / total if total else 0.0,
            }
        return out[0], out[1]

    for size in sizes:
        kernel = torus_kernel(system, size, size)
        results = [analyze(kernel, s) for s in range(samples_per_size)]
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

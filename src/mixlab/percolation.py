"""Thread and cluster analysis of sampled lattice configurations.

Connected components of a chosen bit value under 4- or 8-connectivity on the
torus, with wraparound detection: a cluster wraps when union-find discovers
two lifts of one cell whose universal-cover displacements disagree, the
standard finite-volume proxy for an infinite thread.  The analyzer is
bit-symmetric; sweeps always report both bit values.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebraic import (AlgebraicSystem, TorusKernel, grid_satisfies_pattern,
                        sample_configuration, torus_kernel)
from .rng import mix


class OffsetUnionFind:
    """Union-find tracking each node's displacement to its parent in the
    universal cover; contradictory displacements mark winding clusters."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.off = [(0, 0)] * n  # displacement of node relative to its parent

    def locate(self, x: int) -> tuple[int, int, int]:
        """Root of x and the displacement of x relative to the root,
        compressing the path as it goes."""
        root = x
        ox, oy = 0, 0
        while self.parent[root] != root:
            dx, dy = self.off[root]
            ox, oy = ox + dx, oy + dy
            root = self.parent[root]
        # Path compression with offset rewrite.
        node = x
        nox, noy = ox, oy
        while self.parent[node] != node:
            dx, dy = self.off[node]
            nxt = self.parent[node]
            self.off[node] = (nox, noy)
            self.parent[node] = root
            nox, noy = nox - dx, noy - dy
            node = nxt
        return root, ox, oy

    def union(self, a: int, b: int, dab: tuple[int, int]) -> Optional[tuple[int, int]]:
        """Join with the constraint pos(a) - pos(b) = dab.

        Returns None on a fresh merge; on an already-joined pair returns the
        mismatch vector (zero when consistent, nonzero when the pair closes
        a cycle that winds around the torus).
        """
        ra, xa, ya = self.locate(a)
        rb, xb, yb = self.locate(b)
        if ra == rb:
            mx = xa - xb - dab[0]
            my = ya - yb - dab[1]
            return (mx, my)
        # pos(a) = root_a + (xa, ya); want root_b expressed under root_a.
        if self.rank[ra] < self.rank[rb]:
            # attach ra under rb: off[ra] = pos(ra) - pos(rb)
            self.parent[ra] = rb
            self.off[ra] = (dab[0] + xb - xa, dab[1] + yb - ya)
        else:
            self.parent[rb] = ra
            self.off[rb] = (-dab[0] + xa - xb, -dab[1] + ya - yb)
            if self.rank[ra] == self.rank[rb]:
                self.rank[ra] += 1
        return None


@dataclass
class ClusterReport:
    """Cluster statistics of one bit value on a torus grid."""

    target_bit: int
    cluster_count: int
    size_histogram: dict[int, int]
    largest: int
    wraps_horizontal: bool
    wraps_vertical: bool
    labels: Optional[np.ndarray] = field(default=None, repr=False)

    def total_target_cells(self) -> int:
        return sum(size * count for size, count in self.size_histogram.items())


_STEPS_4 = ((1, 0), (0, 1))
_STEPS_8 = ((1, 0), (0, 1), (1, 1), (1, -1))


def clusters(grid: np.ndarray, connectivity: int = 4, target_bit: int = 0) -> ClusterReport:
    """Union-find clustering of same-bit neighbours with torus wraparound.

    Wrap flags are true iff some cluster contains two universal-cover lifts
    of one cell separated horizontally / vertically.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    if target_bit not in (0, 1):
        raise ValueError("target bit must be 0 or 1")
    h, w = grid.shape
    steps = _STEPS_4 if connectivity == 4 else _STEPS_8
    uf = OffsetUnionFind(w * h)
    target = grid == target_bit
    wraps: dict[int, list[bool]] = {}
    for j in range(h):
        for i in range(w):
            if not target[j, i]:
                continue
            a = j * w + i
            for di, dj in steps:
                ni, nj = (i + di) % w, (j + dj) % h
                if not target[nj, ni]:
                    continue
                b = nj * w + ni
                # displacement of b minus a in the cover is the raw step
                mismatch = uf.union(b, a, (di, dj))
                if mismatch and mismatch != (0, 0):
                    root, _, _ = uf.locate(a)
                    flags = wraps.setdefault(root, [False, False])
                    if mismatch[0]:
                        flags[0] = True
                    if mismatch[1]:
                        flags[1] = True
    sizes: dict[int, int] = {}
    labels = np.full((h, w), -1, dtype=np.int64)
    wrap_h = wrap_v = False
    final_flags: dict[int, list[bool]] = {}
    for old_root, flags in wraps.items():
        root, _, _ = uf.locate(old_root)
        acc = final_flags.setdefault(root, [False, False])
        acc[0] |= flags[0]
        acc[1] |= flags[1]
    for j in range(h):
        for i in range(w):
            if not target[j, i]:
                continue
            root, _, _ = uf.locate(j * w + i)
            labels[j, i] = root
            sizes[root] = sizes.get(root, 0) + 1
    histogram: dict[int, int] = {}
    for root, size in sizes.items():
        histogram[size] = histogram.get(size, 0) + 1
        flags = final_flags.get(root)
        if flags:
            wrap_h |= flags[0]
            wrap_v |= flags[1]
    return ClusterReport(
        target_bit=target_bit, cluster_count=len(sizes), size_histogram=histogram,
        largest=max(sizes.values()) if sizes else 0,
        wraps_horizontal=wrap_h, wraps_vertical=wrap_v, labels=labels,
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
            total = rep.total_target_cells()
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

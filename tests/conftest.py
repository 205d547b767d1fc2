"""Shared independent oracles and fixtures for the test suite.

The oracles deliberately avoid the library's fast paths: measures come from
raw enumeration of window configurations, plane site functionals from the
window method, a pattern's square-freeness from trial division by every
square that fits (`reference_square_free`), random separated shift tuples
from one scalar draw per coordinate (`reference_random_separated_shifts`),
intersections of shifted events from one merge of their
(site, bit) requirements into a `CylinderConstraint` per entry, the row
powers u^n from a numpy byte-spread Frobenius, torus kernels from a per-bit
row step with a dense transfer-matrix power, from the bit-by-bit
elimination of the unit states' columns and from exhaustive
enumeration, Monte Carlo hit counts from an int32 matrix product over the
same draws, cluster structure from breadth-first search in the universal
cover, percolation sweeps from one draw and labelling per sample
(`reference_percolation_sweep`), joining members one intersection measure
per entry (`reference_joining_member`, which the synthetic oracles inherit
from `PerEntryMember`), the joining calculus from explicit index loops
over Fractions (validation's message in `reference_joining_error`), and
mean-zero norms from `np.kron` powers of the basis
(`reference_restricted_norm`).

The fixtures are what only tests need: GF(2) matrix helpers (`bit_matrix`,
`transpose`, `mat_vec`, `mat_add`), readers for the grid writers' round trips
(`grid_from_json`, `grid_from_pbm`), a triple-correlation oracle with planted
spikes (`SyntheticTripleOracle`), example joinings and operators
(`product_tensor`, `diagonal_tensor`, `group_sum_tensor`,
`averaging_operator`), and operator evaluation on cell functions (`apply`,
`image`, `pair`, `adjoint_of`, `adjoint_maps_mean_zero`).

The array paths of the word statistics have loop references here too: the
sliding-count correlation grid (`reference_correlation_grid`), the
csv.writer deviation CSV (`reference_scan_rows_to_csv`), the RLE scan
(`reference_rle_runs`) and word.json from ``json.dumps`` of its dict
(`reference_word_json`), the admissible pairs as a list
(`admissible_pairs`), the per-cell heatmap loop (`reference_heatmap_svg`,
`reference_dev_heatmap_svg`), and the Birkhoff frequency of one shift tuple
along a word (`word_intersection_measure`), the point values the rank-one
correlation grid must equal.  So do the torus render writers: the per-cell
grid and cluster SVG loops (`reference_grid_svg`, `reference_cluster_svg`)
and grid.json and grid.pbm joined character by character
(`reference_grid_to_json`, `reference_grid_to_pbm`).  The `small_blocks`
fixture cuts the block of `text.join_rows` to `SMALL_BLOCK` rows, so that
these exports can be checked at the row counts `BLOCK_ROW_COUNTS` around
its boundaries.  `bench_module` loads a module of the benchmark's
`mixbench/` read-only, by file.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import itertools
import json
import math
import sys
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mixlab import gf2, text
from mixlab.algebraic import (CylinderConstraint, _relations, _run_rows, grid_satisfies_pattern,
                              relation_space, sample_configuration, site_add, torus_kernel)
from mixlab.correlations import MAX_SCAN_BOX, admissible_mask
from mixlab.gf2 import BitMatrix, BitVector
from mixlab.joinings import (FLOAT_TOL, JoiningTensor, MarkovOperator, _mean_zero_onb,
                             uniform_partition)
from mixlab.measure import MeasureValue
from mixlab.percolation import SweepRow, clusters
from mixlab.rng import mix, substream
from mixlab.svg import CELL as SVG_CELL, DARK as SVG_DARK, LIGHT as SVG_LIGHT
from mixlab.svg import _header as svg_header

BENCH = Path(__file__).resolve().parent.parent / "mixbench"


def bench_module(monkeypatch, name):
    """mixbench/`name`.py, loaded by file under `name`, the name its
    siblings import it by, for the length of one test."""
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# GF(2) matrices

def bit_matrix(rows, cols):
    """BitMatrix from rows given as ints or as 0/1 lists (bit j = column j)."""
    packed = []
    for row in rows:
        if isinstance(row, int):
            packed.append(row)
        else:
            acc = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("matrix entries must be 0 or 1")
                acc |= v << j
            packed.append(acc)
    return BitMatrix(len(packed), cols, tuple(packed))


def transpose(m):
    out = [0] * m.cols
    for i, row in enumerate(m.data):
        while row:
            low = row & -row
            j = low.bit_length() - 1
            out[j] |= 1 << i
            row ^= low
    return BitMatrix(m.cols, m.rows, tuple(out))


def mat_vec(m, v):
    if v.length != m.cols:
        raise ValueError("vector length must equal column count")
    bits = 0
    for i, row in enumerate(m.data):
        bits |= ((row & v.bits).bit_count() & 1) << i
    return BitVector(m.rows, bits)


def mat_add(a, b):
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return BitMatrix(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.data, b.data)))


# ---------------------------------------------------------------------------
# Plane and torus oracles

def merge_site_bits(pairs):
    """Combine (site, bit) requirements; None signals a contradiction
    (the event is empty and has measure exactly 0)."""
    seen = {}
    for site, bit in pairs:
        site = tuple(site) if isinstance(site, (list, tuple)) else site
        if site in seen:
            if seen[site] != bit:
                return None
        else:
            seen[site] = bit
    return CylinderConstraint(tuple(seen.keys()), tuple(seen.values()))


def merge_events(events, shifts):
    """The intersection of the events shifted by `shifts` as one constraint,
    sites in first-seen order, or None on a contradiction."""
    pairs = []
    for ev, sh in zip(events, shifts):
        for s, b in zip(ev.sites, ev.bits):
            pairs.append((site_add(s, sh), b))
    return merge_site_bits(pairs)


# _SPREAD[b] has bit 2i set for every bit i set in the byte b.
_SPREAD = np.array([sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)],
                   dtype="<u2")


def reference_frobenius(p):
    """p(x)^2 = p(x^2) over GF(2), one numpy table lookup per byte."""
    raw = np.frombuffer(p.to_bytes((p.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return int.from_bytes(_SPREAD[raw].tobytes(), "little")


def reference_u_power(n, depth, taps):
    """u^n mod chi by square-and-multiply with `reference_frobenius`,
    reducing every coefficient at or above `depth` and copying the list."""
    def reduce(poly):
        for d in range(len(poly) - 1, depth - 1, -1):
            for m, s in taps:
                poly[d - m] ^= poly[d] << s
        return poly[:depth]

    acc = reduce([1] + [0] * (depth - 1))
    for bit in bin(n)[2:]:
        square = [0] * max(2 * depth - 1, 0)
        square[::2] = map(reference_frobenius, acc)
        acc = reduce(square)
        if bit == "1":
            acc = reduce([0] + acc)
    return acc


def enumerate_window_group(support, i0, i1, j0, j1):
    """All bit assignments of the box satisfying every stencil translate
    whose support lies fully inside; brute force over 2^(w*h) grids."""
    w = i1 - i0 + 1
    h = j1 - j0 + 1
    assert w * h <= 16, "enumeration oracle limited to 16 cells"
    support = sorted(support)
    translates = []
    for cj in range(j0, j1 + 1):
        for ci in range(i0, i1 + 1):
            cells = [(ci + pi, cj + pj) for pi, pj in support]
            if all(i0 <= x <= i1 and j0 <= y <= j1 for x, y in cells):
                translates.append([(y - j0) * w + (x - i0) for x, y in cells])
    valid = []
    for cfg in range(1 << (w * h)):
        if all(
            sum((cfg >> pos) & 1 for pos in tr) % 2 == 0 for tr in translates
        ):
            valid.append(cfg)
    return valid, w, h


def enumeration_measure(support, sites, bits):
    """Plane cylinder measure by counting matching window configurations."""
    xs = [s[0] for s in sites]
    ys = [s[1] for s in sites]
    i0, i1 = min(xs), max(xs)
    j0, j1 = min(ys), max(ys)
    valid, w, h = enumerate_window_group(support, i0, i1, j0, j1)
    hits = 0
    for cfg in valid:
        if all(((cfg >> ((y - j0) * w + (x - i0))) & 1) == b
               for (x, y), b in zip(sites, bits)):
            hits += 1
    return Fraction(hits, len(valid))


def enumeration_relations(support, sites):
    """All GF(2) dependencies among the site coordinates over the window
    group, by testing every coefficient vector against every configuration."""
    xs = [s[0] for s in sites]
    ys = [s[1] for s in sites]
    valid, w, h = enumerate_window_group(support, min(xs), max(xs), min(ys), max(ys))
    i0, j0 = min(xs), min(ys)
    positions = [((y - j0) * w + (x - i0)) for x, y in sites]
    rels = []
    for coeffs in range(1, 1 << len(sites)):
        ok = True
        for cfg in valid:
            parity = 0
            for t, pos in enumerate(positions):
                if (coeffs >> t) & 1:
                    parity ^= (cfg >> pos) & 1
            if parity:
                ok = False
                break
        if ok:
            rels.append(coeffs)
    return rels


def pattern_rows_and_top(pattern):
    """(lowest row, highest row, scan-order last cell) of the support, the
    last cell taken row-major: highest j, then highest i."""
    ys = [p[1] for p in pattern.support]
    return min(ys), max(ys), max(pattern.support, key=lambda p: (p[1], p[0]))


def reference_transfer(pattern):
    """(shear, depth, rest) of the row recurrence, from its definition: a
    support whose top row holds two or more cells is sheared by
    (i, j) -> (i, j + (row span + 1) i); the (sheared) top row's one cell
    is the topmost, depth is the row span, and rest lists every other
    cell's (column offset, rows below) from the topmost, sorted."""
    j_lo, j_hi, _ = pattern_rows_and_top(pattern)
    tops = [p for p in pattern.support if p[1] == j_hi]
    shear = 0 if len(tops) == 1 else j_hi - j_lo + 1
    cells = {(i, j + shear * i) for i, j in pattern.support}
    top_row = max(j for _, j in cells)
    (top,) = [c for c in cells if c[1] == top_row]
    rest = sorted((i - top[0], top[1] - j) for i, j in cells - {top})
    return shear, top_row - min(j for _, j in cells), tuple(rest)


def reference_window_masks(pattern, sites):
    """Generator masks of the site functionals by the window method.

    The restriction of the configuration group to the bounding box of the
    sites, dilated by the pattern's extent, is parameterized by free cells:
    in scan order (row by row, left to right) a cell whose stencil translate
    with that cell on top fits in the box is solved from the translate, any
    other cell is a new generator.  Returns (mask per site, generator count).
    """
    i_lo = min(p[0] for p in pattern.support)
    i_hi = max(p[0] for p in pattern.support)
    j_lo, j_hi, (ti, tj) = pattern_rows_and_top(pattern)
    xs = [s[0] for s in sites]
    ys = [s[1] for s in sites]
    i0, i1 = min(xs) - (i_hi - i_lo), max(xs) + (i_hi - i_lo)
    j0, j1 = min(ys) - (j_hi - j_lo), max(ys) + (j_hi - j_lo)
    w = i1 - i0 + 1
    rest = sorted(p for p in pattern.support if p != (ti, tj))
    rows = {}
    gen = 0
    for y in range(j0, j1 + 1):
        row = [0] * w
        for x in range(i0, i1 + 1):
            cells = [(x + pi - ti, y + pj - tj) for pi, pj in rest]
            if all(i0 <= cx <= i1 and j0 <= cy <= j1 for cx, cy in cells):
                m = 0
                for cx, cy in cells:
                    m ^= row[cx - i0] if cy == y else rows[cy][cx - i0]
                row[x - i0] = m
            else:
                row[x - i0] = 1 << gen
                gen += 1
        rows[y] = row
    return [rows[y][x - i0] for x, y in sites], gen


def reference_peel(normals, sites):
    """How many sites the peel leaves, from its definition: while some
    normal has exactly one maximiser of <normal, site> among the sites
    left, drop it, rescanning every site each time."""
    left = set(sites)
    while left:
        for a, b in normals:
            top = max(a * x + b * y for x, y in left)
            tops = [(x, y) for x, y in left if a * x + b * y == top]
            if len(tops) == 1:
                left.remove(tops[0])
                break
        else:
            break
    return len(left)


def reference_square_free(support):
    """Whether the polynomial of `support`, shifted to nonnegative
    exponents, has no square factor g^2 with g not a constant, by trial
    division of it by g(x^2, y^2) = g^2 for every g whose square fits in
    its degrees.  A g divisible by x or y cannot divide twice, so g is
    taken from the box [0, deg_x f / 2] x [0, deg_y f / 2].  Polynomials are
    sets of cells; division peels the leading cell, highest j then i."""
    i0 = min(i for i, _ in support)
    j0 = min(j for _, j in support)
    f = frozenset((i - i0, j - j0) for i, j in support)
    box = [(i, j) for i in range(max(i for i, _ in f) // 2 + 1)
           for j in range(max(j for _, j in f) // 2 + 1)]

    def divides(d, rest):
        rest = set(rest)
        li, lj = max(d, key=lambda c: (c[1], c[0]))
        while rest:
            ti, tj = max(rest, key=lambda c: (c[1], c[0]))
            if ti < li or tj < lj:
                return False
            rest ^= {(i + ti - li, j + tj - lj) for i, j in d}
        return True

    for n in range(1, len(box) + 1):
        for g in itertools.combinations(box, n):
            if g != ((0, 0),) and divides({(2 * i, 2 * j) for i, j in g}, f):
                return False
    return True


def reference_random_separated_shifts(seed, count, k, min_gap, box, dim=2):
    """`correlations.random_separated_shifts` drawing one scalar
    `integers` per coordinate, with its bounds and its separation rule."""
    if not 0 <= box <= MAX_SCAN_BOX:
        raise ValueError(f"box radius must lie in 0..{MAX_SCAN_BOX}")
    if k >= 1 and min_gap > box:
        raise ValueError(f"min gap {min_gap} exceeds the box radius {box}: "
                         "no shift in the box is that far from the origin")
    gen = substream(seed, "separated", k, min_gap, box, dim)
    produced = attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("cannot satisfy separation constraints in the box")
        pts = [(0,) * dim] + [tuple(int(gen.integers(-box, box + 1)) for _ in range(dim))
                              for _ in range(k)]
        if dim == 2 and not any(x % 2 for p in pts for x in p):
            pts[-1] = (pts[-1][0] + 1, pts[-1][1])
        if pts[-1][0] > box or any(max(abs(x - y) for x, y in zip(p, q)) < min_gap
                                   for p, q in itertools.combinations(pts, 2)):
            continue
        yield tuple(pts) if dim == 2 else tuple(p for (p,) in pts)
        produced += 1


def reference_next_row(pattern, w, history):
    """New torus row from the last `depth` rows (each a w-bit int), one bit
    at a time: bit i solves the stencil translate whose topmost cell sits
    at column i of the new row."""
    j_lo, _, (ti, tj) = pattern_rows_and_top(pattern)
    out = 0
    for i in range(w):
        v = 0
        for pi, pj in pattern.support:
            if (pi, pj) == (ti, tj):
                continue
            v ^= (history[pj - j_lo] >> ((i - ti + pi) % w)) & 1
        out |= v << i
    return out


def reference_transfer_matrix(pattern, w):
    """Transfer matrix built column by column from `reference_next_row`:
    column k is the image of the k-th unit state."""
    j_lo, j_hi, _ = pattern_rows_and_top(pattern)
    depth = j_hi - j_lo
    n = depth * w
    wmask = (1 << w) - 1
    cols = []
    for k in range(n):
        history = [((1 << k) >> (b * w)) & wmask for b in range(depth)]
        new = reference_next_row(pattern, w, history)
        cols.append(((1 << k) >> w) | (new << ((depth - 1) * w)))
    return transpose(BitMatrix(n, n, tuple(cols)))


def reference_torus_basis(pattern, w, h):
    """Torus kernel basis from the fixed states of the reference transfer
    matrix's h-th power, expanded row by row with the per-bit step."""
    t = reference_transfer_matrix(pattern, w)
    depth = t.rows // w
    fixed = gf2.nullspace(mat_add(gf2.mat_pow(t, h), BitMatrix.identity(t.rows)))
    wmask = (1 << w) - 1
    basis = []
    for state in fixed:
        history = [(state.bits >> (b * w)) & wmask for b in range(depth)]
        bits = 0
        for j in range(h):
            new = reference_next_row(pattern, w, history)
            bits |= new << (j * w)
            history = history[1:] + [new]
        basis.append(bits)
    return tuple(basis)


def row_rotations(x, w, rows):
    """`x`, then `x` with each of its `rows` w-bit rows rotated left by 1,
    2, ...: each step moves the low w - 1 bits of every row up by one and
    wraps the top bit to the bottom."""
    rep = sum(1 << (j * w) for j in range(rows))
    keep = ((1 << (rows * w)) - 1) ^ (rep << (w - 1))
    while True:
        yield x
        x = ((x & keep) << 1) | ((x >> (w - 1)) & rep)


def reference_elimination_torus_basis(pattern, w, h):
    """Torus kernel basis by eliminating the columns T^h e + e of the unit
    states bit by bit (`_relations`), each basis configuration the XOR, over
    its state's set bits, of the unit runs: the run from bit i of block b
    is block b's run from bit 0 with every row rotated left by i.  The rows
    come from `_run_rows`, so this checks the kernel's algebra at sides
    where the dense transfer matrix of `reference_torus_basis` is too slow.
    """
    j_lo, _, (ti, tj) = pattern_rows_and_top(pattern)
    depth = tj - j_lo
    taps = [(pj - j_lo, (pi - ti) % w) for pi, pj in pattern.support if (pi, pj) != (ti, tj)]
    lattices, columns = [], []
    for b in range(depth):
        rows = _run_rows([int(k == b) for k in range(depth)], taps, w, h)
        lattices.append(sum(r << (j * w) for j, r in enumerate(rows[depth:])))
        image = sum(r << (k * w) for k, r in enumerate(rows[h:]))
        columns.extend(col ^ (1 << k) for k, col in
                       zip(range(b * w, (b + 1) * w), row_rotations(image, w, depth)))
    states = _relations(columns)
    vecs = [0] * len(states)
    for b, lattice in enumerate(lattices):
        for k, rotated in zip(range(b * w, (b + 1) * w), row_rotations(lattice, w, h)):
            for r, state in enumerate(states):
                if state >> k & 1:
                    vecs[r] ^= rotated
    return tuple(vecs)


def reference_default_torus(pattern, c):
    """Side of the torus `default_torus_for` should pick: among the first
    24 sizes from max(12, 4 x diameter) on that are not powers of two, the
    first whose torus gives the sites the plane rank, with the rank taken by
    dense elimination."""
    sites = list(c.sites)
    xs, ys = [s[0] for s in sites], [s[1] for s in sites]
    size = max(12, 4 * max(max(xs) - min(xs), max(ys) - min(ys)))
    plane_rank = len(sites) - len(relation_space(pattern, sites))
    tried = 0
    while tried < 24:
        if size & (size - 1):
            tried += 1
            kernel = torus_kernel(pattern, size, size)
            masks = tuple(kernel.site_mask(s) for s in sites)
            if gf2.rank(BitMatrix(len(masks), max(kernel.dim, 1), masks)) == plane_rank:
                return size
        size += 1
    return None


def reference_mc_hits(kernel, c, n, seed, chunk=8192):
    """Hit count of `mc_cylinder_measure` from the same draws, by an int32
    product of the sampled combinations with the generators-by-sites 0/1
    matrix: chunk k draws (count, dim) int8 bits from substream (seed, "mc",
    k), and a torus of dimension 0 gives every site the value 0."""
    sites = list(c.sites)
    site_mat = np.zeros((max(kernel.dim, 1), len(sites)), dtype=np.int32)
    for col, site in enumerate(sites):
        m = kernel.site_mask(site)
        for g in range(kernel.dim):
            site_mat[g, col] = (m >> g) & 1
    target = np.asarray(c.bits, dtype=np.int32)
    hits = 0
    for k, start in enumerate(range(0, n, chunk)):
        count = min(chunk, n - start)
        if kernel.dim == 0:
            vals = np.zeros((count, len(sites)), dtype=np.int32)
        else:
            combos = substream(seed, "mc", k).integers(0, 2, size=(count, kernel.dim),
                                                       dtype=np.int8)
            vals = (combos.astype(np.int32) @ site_mat) & 1
        hits += int(np.count_nonzero(np.all(vals == target, axis=1)))
    return hits


def kernel_dimension_bruteforce(pattern, w, h):
    """Exhaustive kernel dimension for tiny tori (2^(w*h) enumeration)."""
    if w * h > 20:
        raise ValueError("brute force limited to w*h <= 20")
    support = sorted(pattern.support)
    count = 0
    for cfg in range(1 << (w * h)):
        ok = True
        for j in range(h):
            for i in range(w):
                s = 0
                for pi, pj in support:
                    s ^= (cfg >> (((j + pj) % h) * w + ((i + pi) % w))) & 1
                if s:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count.bit_length() - 1  # count is a power of two


def reference_grid_to_json(grid):
    """grid.json's dict with each row joined character by character."""
    h, w = grid.shape
    rows = ["".join("1" if v else "0" for v in grid[j]) for j in range(h)]
    return {"width": int(w), "height": int(h), "rows": rows}


def reference_grid_to_pbm(grid):
    """grid.pbm written pixel by pixel, one joined line per row."""
    h, w = grid.shape
    lines = ["P1", "# bit 0 = dark, bit 1 = light", f"{w} {h}"]
    for j in range(h):
        lines.append(" ".join("0" if v else "1" for v in grid[j]))
    return "\n".join(lines) + "\n"


def grid_from_json(obj: dict) -> np.ndarray:
    w, h = int(obj["width"]), int(obj["height"])
    rows = obj["rows"]
    if len(rows) != h or any(len(r) != w for r in rows):
        raise ValueError("grid JSON rows do not match declared dimensions")
    return np.array([[1 if ch == "1" else 0 for ch in r] for r in rows], dtype=np.uint8)


def grid_from_pbm(text: str) -> np.ndarray:
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P1":
        raise ValueError("only plain PBM (P1) is supported")
    w, h = int(tokens[1]), int(tokens[2])
    vals = [int(t) for t in tokens[3:]]
    if len(vals) != w * h:
        raise ValueError("PBM payload does not match dimensions")
    return 1 - np.array(vals, dtype=np.uint8).reshape(h, w)


def bfs_cover_clusters(grid: np.ndarray, connectivity: int, target_bit: int):
    """Cluster labels plus per-axis wrap flags via universal-cover BFS."""
    h, w = grid.shape
    if connectivity == 4:
        steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    else:
        steps = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    labels = np.full((h, w), -1, dtype=np.int64)
    wrap_h = wrap_v = False
    next_label = 0
    for sj in range(h):
        for si in range(w):
            if grid[sj, si] != target_bit or labels[sj, si] >= 0:
                continue
            lift = {(si, sj): (0, 0)}
            labels[sj, si] = next_label
            queue = deque([(si, sj, 0, 0)])
            while queue:
                i, j, lx, ly = queue.popleft()
                for di, dj in steps:
                    ni, nj = (i + di) % w, (j + dj) % h
                    if grid[nj, ni] != target_bit:
                        continue
                    nlift = (lx + di, ly + dj)
                    if (ni, nj) in lift:
                        ox, oy = lift[(ni, nj)]
                        if ox != nlift[0]:
                            wrap_h = True
                        if oy != nlift[1]:
                            wrap_v = True
                    else:
                        lift[(ni, nj)] = nlift
                        labels[nj, ni] = next_label
                        queue.append((ni, nj, nlift[0], nlift[1]))
            next_label += 1
    return labels, wrap_h, wrap_v


def partitions_equal(labels_a: np.ndarray, labels_b: np.ndarray) -> bool:
    """Same partition up to relabelling (both use -1 for non-target)."""
    if labels_a.shape != labels_b.shape:
        return False
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for x, y in zip(labels_a.ravel().tolist(), labels_b.ravel().tolist()):
        if (x < 0) != (y < 0):
            return False
        if x < 0:
            continue
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def reference_percolation_sweep(pattern, sizes, samples_per_size, connectivity, seed):
    """`percolation_sweep`'s rows with every sample drawn, checked and
    labelled on its own: sample s of size n is
    `sample_configuration(kernel, mix(seed, "sweep", n, s))`, and each
    size's sums run in sample order."""
    rows = []
    for size in sizes:
        kernel = torus_kernel(pattern, size, size)
        reports = []
        for s in range(samples_per_size):
            grid = sample_configuration(kernel, mix(seed, "sweep", size, s))
            assert grid_satisfies_pattern(pattern, grid)
            reports.append(clusters(grid, connectivity))
        for bit in (0, 1):
            wraps = [rep[bit].wraps_horizontal or rep[bit].wraps_vertical for rep in reports]
            fracs = [rep[bit].largest / max(rep[bit].target_cells, 1) for rep in reports]
            n = len(fracs)
            mean = sum(fracs) / n
            var = sum((f - mean) ** 2 for f in fracs) / (n - 1) if n > 1 else 0.0
            rows.append(SweepRow(size=size, bit=bit, wrap_fraction=sum(wraps) / n,
                                 largest_fraction_mean=mean,
                                 stderr=math.sqrt(var / n) if n > 1 else 0.0,
                                 samples=n, seed=seed))
    return rows


# ---------------------------------------------------------------------------
# Correlation oracles

class SyntheticTripleOracle:
    """Product-valued triple-correlation oracle with planted spikes.

    `spikes` maps (z, w) to an additive deviation from the product; all
    measures are floats.  Useful as ground truth for scan tests.
    """

    def __init__(self, event_values: dict, spikes: dict | None = None):
        self.event_values = dict(event_values)
        self.spikes = dict(spikes or {})

    def event_measure(self, event) -> MeasureValue:
        return MeasureValue.of_estimate(self.event_values[event], 0.0, 1)

    def intersection_measure(self, shifts, events) -> MeasureValue:
        prod = 1.0
        for e in events:
            prod *= self.event_values[e]
        if len(shifts) == 3 and shifts[0] == 0:
            prod += self.spikes.get((shifts[1], shifts[2]), 0.0)
        return MeasureValue.of_estimate(prod, 0.0, 1)

    def correlation_grid(self, events, pairs):
        return [self.intersection_measure((0, z, w), events).estimate
                for z, w in np.asarray(pairs).tolist()]


def reference_joining_member(oracle, shifts, cells):
    """The entries of a joining member one at a time, as `limit_joining` once
    measured them: entry (i_1, ..., i_k) is the oracle's
    `intersection_measure` of cells[i_1], ..., cells[i_k] at `shifts`, in
    index order.  Returns ((num, den), exact): integer numerators over the
    lcm of the denominators when every entry is exact, floats over 1
    otherwise."""
    values = [oracle.intersection_measure(shifts, [cells[i] for i in idx])
              for idx in itertools.product(range(len(cells)), repeat=len(shifts))]
    if not all(v.is_exact for v in values):
        return (np.array([v.as_float() for v in values]), 1), False
    ratios = [v.exact.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return (np.array([p * (den // q) for p, q in ratios], dtype=object), den), True


class PerEntryMember:
    """Base of synthetic oracles that define only `intersection_measure`:
    `joining_member` measures each entry on its own
    (`reference_joining_member`)."""

    def joining_member(self, shifts, cells):
        return reference_joining_member(self, shifts, cells)


def admissible_pairs(epsilon, h):
    """The admissible (z, w) pairs of `admissible_mask` as a list of tuples,
    row-major."""
    return [tuple(p) for p in np.argwhere(admissible_mask(epsilon, h)).tolist()]


def reference_correlation_grid(word, events, pairs):
    """Triple correlations of a symbolic word by sliding conjunctions: for
    each (z, w), the count of i < n - max(z, w) with a[i] b[i+z] c[i+w],
    over n - max(z, w)."""
    a, b, c = (np.isin(word.symbols, sorted(e)) for e in events)
    n = word.length
    out = []
    for z, w in pairs:
        m = n - max(z, w)
        count = int(np.count_nonzero(a[:m] & b[z:z + m] & c[w:w + m]))
        out.append(count / m)
    return out


def reference_scan_rows_to_csv(rows):
    """The deviation-scan CSV written with csv.writer from (z, w,
    correlation, product, defect) tuples."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["z", "w", "correlation", "product", "defect"])
    for z, w, corr, prod, defect in rows:
        writer.writerow([z, w, f"{corr:.12g}", f"{prod:.12g}", f"{defect:.12g}"])
    return buf.getvalue()


def reference_rle_runs(symbols):
    """[symbol, run length] of each maximal run, scanning symbol by symbol."""
    runs = []
    start = 0
    for i in range(1, len(symbols) + 1):
        if i == len(symbols) or symbols[i] != symbols[start]:
            runs.append([int(symbols[start]), i - start])
            start = i
    return runs


def reference_word_json(word):
    """word.json as ``json.dumps`` of the run-length dict with sorted keys,
    plus a newline."""
    obj = {"stage": word.stage, "height": word.height, "length": word.length,
           "runs": reference_rle_runs(word.symbols)}
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


def word_intersection_measure(word, shifts, events):
    """Birkhoff frequency of the translated events along a symbolic word:
    shifts are normalized by subtracting the smallest (the reading is
    stationary), and the share of the m = n - max offset starting positions
    where every event holds at its offset is the estimate, with m samples."""
    base = min(shifts)
    offs = [s - base for s in shifts]
    n = word.length
    m = n - max(offs)
    if m < 1:
        raise ValueError("shifts too large for word length")
    acc = np.ones(m, dtype=bool)
    for off, ev in zip(offs, events):
        acc &= np.isin(word.symbols, sorted(ev))[off:off + m]
    return MeasureValue(estimate=int(np.count_nonzero(acc)) / m, samples=m)


# ---------------------------------------------------------------------------
# Block joins

# A block of 4 rows, and the row counts around its boundaries at which every
# export joined a block at a time is checked against its reference.
SMALL_BLOCK = 4
BLOCK_ROW_COUNTS = (0, 1, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2)


@pytest.fixture
def small_blocks(monkeypatch):
    """`text.BLOCK_ROWS` cut to `SMALL_BLOCK` for one test."""
    monkeypatch.setattr(text, "BLOCK_ROWS", SMALL_BLOCK)


# ---------------------------------------------------------------------------
# SVG

def reference_heatmap_svg(field, x_label="x", y_label="y", title=""):
    """The heatmap written cell by cell from nested lists in which None is
    a blank cell."""
    h = len(field)
    w = len(field[0]) if h else 0
    cell, margin = 6, 18
    vals = [v for row in field for v in row if v is not None]
    vmax = max(vals) if vals else 0.0
    lines = svg_header(w * cell + margin, h * cell + margin, title)
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


def reference_grid_svg(grid, title=""):
    """The bit grid written cell by cell from nested lists: one light
    `<rect>` per true cell, row-major."""
    h = len(grid)
    w = len(grid[0]) if h else 0
    lines = svg_header(w * SVG_CELL, h * SVG_CELL, title)
    lines.append(f'<rect width="{w * SVG_CELL}" height="{h * SVG_CELL}" fill="{SVG_DARK}"/>')
    for j in range(h):
        for i in range(w):
            if grid[j][i]:
                lines.append(
                    f'<rect x="{i * SVG_CELL}" y="{j * SVG_CELL}" width="{SVG_CELL}" '
                    f'height="{SVG_CELL}" fill="{SVG_LIGHT}"/>'
                )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_cluster_svg(grid, labels, target_bit, title=""):
    """The cluster picture written cell by cell from nested lists, each
    label numbered by a dict in the order its first target cell is met."""
    h = len(grid)
    w = len(grid[0]) if h else 0
    lines = svg_header(w * SVG_CELL, h * SVG_CELL, title)
    base = SVG_DARK if target_bit == 1 else SVG_LIGHT
    lines.append(f'<rect width="{w * SVG_CELL}" height="{h * SVG_CELL}" fill="{base}"/>')
    order = {}
    for j in range(h):
        for i in range(w):
            if grid[j][i] != target_bit:
                continue
            lab = labels[j][i]
            if lab not in order:
                order[lab] = len(order)
            lines.append(
                f'<rect x="{i * SVG_CELL}" y="{j * SVG_CELL}" width="{SVG_CELL}" '
                f'height="{SVG_CELL}" fill="hsl({(order[lab] * 137) % 360},70%,55%)"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def reference_dev_heatmap_svg(scan):
    """The deviation heatmap through `reference_heatmap_svg`: row w, column
    z, None off the admissible grid."""
    size = scan.h + 1
    field = [[None] * size for _ in range(size)]
    for (z, w), d in zip(scan.pairs.tolist(), scan.defect.tolist()):
        field[w][z] = d
    return reference_heatmap_svg(field, x_label="z", y_label="w",
                                 title=f"defect field, eps={scan.epsilon}, h={scan.h}")


# ---------------------------------------------------------------------------
# Joining calculus

def _ravel(idx, d):
    r = 0
    for i in idx:
        r = r * d + i
    return r


def _wprod(weights, idx):
    p = Fraction(1)
    for i in idx:
        p *= weights[i]
    return p


def reference_marginal(t, axes):
    """Flat entries of the marginal of joining tensor `t` on `axes`, kept in
    the order given, one tensor entry at a time."""
    d = t.dims
    out = [Fraction(0) if t.exact else 0.0] * (d ** len(axes))
    for idx in itertools.product(range(d), repeat=t.order):
        out[_ravel([idx[a] for a in axes], d)] += t.entries[_ravel(idx, d)]
    return out


def reference_classify(t):
    """(is_product, largest m with every m-marginal product) of exact tensor
    `t`, from loop marginals, levels checked from m = 2 upwards."""
    d, n = t.dims, t.order

    def product(axes):
        flat = list(t.entries) if len(axes) == n else reference_marginal(t, axes)
        return all(v == _wprod(t.weights, idx)
                   for v, idx in zip(flat, itertools.product(range(d), repeat=len(axes))))

    if product(tuple(range(n))):
        return True, n
    max_m = 1
    for m in range(2, n):
        if not all(product(axes) for axes in itertools.combinations(range(n), m)):
            break
        max_m = m
    return False, max_m


def reference_joining_error(order, weights, entries):
    """The `JoiningError` text that validation gives the exact flat
    `entries`, or None for a joining: the sign, the total, then each axis's
    marginal, axis by axis and cell by cell, summed as Fractions one entry
    at a time."""
    d = len(weights)
    if any(e < 0 for e in entries):
        return "tensor entries must be nonnegative"
    total = sum(entries, Fraction(0))
    if total != 1:
        return f"tensor mass is {total}, not 1"
    for axis in range(order):
        marg = [Fraction(0)] * d
        for idx, e in zip(itertools.product(range(d), repeat=order), entries):
            marg[idx[axis]] += e
        for cell in range(d):
            if marg[cell] != weights[cell]:
                return f"axis {axis} marginal {marg[cell]} != weight {weights[cell]}"
    return None


def reference_restricted_norm(p):
    """Norm of operator `p` on the mean-zero tensor subspace, its basis the
    source_order-fold `np.kron` power of the one-cell mean-zero basis."""
    u1 = _mean_zero_onb(p.weights)
    u = u1
    for _ in range(p.source_order - 1):
        u = np.kron(u, u1)
    w_out = np.sqrt(np.array([float(x) for x in p.weights]))
    num, den = p.scaled
    m = (w_out[:, None] * (num / den).astype(float)) @ u
    return float(np.linalg.svd(m, compute_uv=False)[0])


def reference_pair_compose(p):
    """Matrix of the operator of source order 2k-1 that pairs two copies of
    `p`, one entry at a time: row `out`, column A_1..A_{2k-1} holds
    sum_i w_i p[i][A_1..A_k] p[i][A_{k+1}..A_{2k-1} out] / w_out."""
    d = p.dims
    k = p.source_order
    w = p.weights
    rows = []
    for out_cell in range(d):
        row = []
        for idx in itertools.product(range(d), repeat=2 * k - 1):
            left = _ravel(idx[:k], d)
            right = _ravel(idx[k:] + (out_cell,), d)
            acc = sum(w[i] * p.matrix[i][left] * p.matrix[i][right] for i in range(d))
            row.append(acc / w[out_cell])
        rows.append(tuple(row))
    return tuple(rows)


def reference_raise_order(p3):
    """Flat entries of nu(A1..A6) = <P3(A1 A2 A3), P3(A4 A5 A6)>."""
    d = p3.dims
    w = p3.weights
    entries = []
    for idx in itertools.product(range(d), repeat=6):
        left = _ravel(idx[:3], d)
        right = _ravel(idx[3:], d)
        entries.append(sum(w[i] * p3.matrix[i][left] * p3.matrix[i][right]
                           for i in range(d)))
    return entries


def reference_lower_order(t):
    """Flat entries of nu2(a1, a2, b1, b2) = sum over the remaining p cells B
    of nu(a1, a2, B) nu(b1, b2, B) / w_B."""
    d = t.dims
    p = t.order - 2
    entries = []
    for a1, a2, b1, b2 in itertools.product(range(d), repeat=4):
        acc = Fraction(0) if t.exact else 0.0
        for rest in itertools.product(range(d), repeat=p):
            acc += (t.entries[_ravel((a1, a2) + rest, d)]
                    * t.entries[_ravel((b1, b2) + rest, d)] / _wprod(t.weights, rest))
        entries.append(acc)
    return entries


def _cell_products(weights, order):
    """w[i1] * ... * w[i_order] for every cell tuple, in row-major order."""
    return tuple(_wprod(weights, idx)
                 for idx in itertools.product(range(len(weights)), repeat=order))


def product_tensor(partition, order):
    return JoiningTensor(order, partition.weights, _cell_products(partition.weights, order))


def diagonal_tensor(partition, order):
    d = partition.cells
    entries = tuple(partition.weights[idx[0]] if len(set(idx)) == 1 else Fraction(0)
                    for idx in itertools.product(range(d), repeat=order))
    return JoiningTensor(order, partition.weights, entries)


def group_sum_tensor(d, q, order=3):
    """nu(i1..ik) = q[(i1+...+ik) mod d] / d^(k-1): pairwise independent for
    uniform masses, nontrivial unless q is uniform."""
    if len(q) != d or sum(q) != 1 or any(x < 0 for x in q):
        raise ValueError("q must be a probability vector of length d")
    denom = d ** (order - 1)
    entries = tuple(Fraction(q[sum(idx) % d], denom)
                    for idx in itertools.product(range(d), repeat=order))
    return JoiningTensor(order, uniform_partition(d).weights, entries)


def averaging_operator(partition, source_order):
    """P(f1 x ... x fk) = (integral f1)...(integral fk) * constant."""
    row = _cell_products(partition.weights, source_order)
    return MarkovOperator(source_order, partition.weights, (row,) * partition.cells)


def apply(p, f):
    """P(f) for a tensor function f, a flat list over d**source_order cells."""
    zero = Fraction(0) if p.exact else 0.0
    return [sum((row[pos] * x for pos, x in enumerate(f) if x), zero) for row in p.matrix]


def image(p, cells):
    """P(e_cells) for the indicator of one cell tuple: one column of the matrix."""
    col = _ravel(cells, p.dims)
    return [row[col] for row in p.matrix]


def pair(p, out_cell, cells):
    """<e_out_cell, P(e_cells)> in the mass-weighted inner product."""
    return p.weights[out_cell] * p.matrix[out_cell][_ravel(cells, p.dims)]


def as_array(x):
    """The public entries of tensor `x` as a (dims,)*order array, or the
    matrix of operator `x`: Fractions when exact, floats otherwise."""
    dtype = object if x.exact else float
    if isinstance(x, JoiningTensor):
        return np.array(x.entries, dtype=dtype).reshape((x.dims,) * x.order)
    return np.array(x.matrix, dtype=dtype)


def adjoint_of(p, g):
    """P* g as a flat tensor function over d**source_order cells."""
    dtype = object if p.exact else float
    w = np.array(p.weights, dtype=dtype)
    grid = np.array(_cell_products(p.weights, p.source_order), dtype=dtype)
    return (w * np.asarray(g)) @ as_array(p) / grid


def adjoint_maps_mean_zero(p):
    """Exact check that P* sends mean-zero functions into tensors all of
    whose one-axis partial integrals vanish."""
    d, k = p.dims, p.source_order
    w = np.array(p.weights, dtype=object if p.exact else float)
    slack = 0 if p.exact else FLOAT_TOL * d ** k
    for m in range(d - 1):
        g = [int(i == m) - p.weights[m] for i in range(d)]  # e_m minus its integral
        img = adjoint_of(p, g).reshape((d,) * k)
        for axis in range(k):
            if (abs(np.moveaxis(img, axis, -1) @ w) > slack).any():
                return False
    return True


@pytest.fixture(scope="session")
def ledrappier_support():
    return [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]

"""Algebraic GF(2) dynamical systems: harmonic-configuration groups on the
plane and on finite tori, with exact Haar cylinder measures.

The flagship system is Ledrappier's: configurations in {0,1}^(Z^2) where the
value at every site equals the mod-2 sum of its four lattice neighbours,
i.e. the 5-point stencil {(0,0),(1,0),(-1,0),(0,1),(0,-1)} sums to zero
everywhere.  The Haar measure of a cylinder event is 2^(-r) where r is the
rank of the constrained coordinate functionals on the group, or 0 when the
prescribed bits violate a linear relation.

Exact measures come from one row-transfer kernel.  For a pattern with a
single topmost cell, a configuration's rows obey a linear recurrence over
GF(2)[x, x^-1] (characteristic polynomial chi(t) from the stencil taps), so
Haar measure projects onto `depth` consecutive free rows as the uniform
measure and the functional at site (a, b0+n) is x^a t^n mod chi(t), computed
by square-and-multiply (Laurent-polynomial view of Ledrappier 1978 and of
Schmidt, Dynamical Systems of Algebraic Origin, 1995).  Other patterns are
sheared first so that one cell is topmost.  Relations among the sites come
from one elimination of these masks, with no window and no scale limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import gf2
from .gf2 import BitMatrix, BitVector
from .measure import MeasureValue
from .rng import random_bits, substream

Site = Union[int, tuple[int, int]]

# Exact plane masks grow with the extent of a constellation, not with its
# site count; past this many generator cells (8 MB per mask) it is refused
# before any memory is taken.
MAX_GENERATORS = 1 << 26

class UnsupportedPatternError(RuntimeError):
    """The relation pattern does not admit the requested kernel algorithm."""


@dataclass(frozen=True)
class RelationPattern:
    """Finite GF(2) stencil on Z^2; configurations must sum to 0 mod 2 on
    every translate of the support."""

    support: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not self.support:
            raise ValueError("pattern support must be nonempty")
        for p in self.support:
            if not (isinstance(p, tuple) and len(p) == 2):
                raise ValueError("pattern offsets must be (i, j) pairs")

    @property
    def j_range(self) -> tuple[int, int]:
        ys = [p[1] for p in self.support]
        return min(ys), max(ys)

    def top_offset(self) -> tuple[int, int]:
        """Scan-order maximum of the support (row-major, j then i)."""
        return max(self.support, key=lambda p: (p[1], p[0]))

    def is_propagating(self) -> bool:
        """True when the topmost support row holds a single cell, so a new
        lattice row is determined by the previous ones."""
        _, jmax = self.j_range
        return sum(1 for p in self.support if p[1] == jmax) == 1


LEDRAPPIER_PATTERN = RelationPattern(
    frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})
)


@dataclass(frozen=True)
class AlgebraicSystem:
    """The Z^2 shift action on the group of pattern-harmonic configurations."""

    pattern: RelationPattern = LEDRAPPIER_PATTERN


def ledrappier_system() -> AlgebraicSystem:
    return AlgebraicSystem(LEDRAPPIER_PATTERN)


def site_add(site: Site, shift: Site) -> Site:
    if isinstance(site, int):
        if not isinstance(shift, int):
            raise TypeError("1-d site shifted by non-integer")
        return site + shift
    return (site[0] + shift[0], site[1] + shift[1])


@dataclass(frozen=True)
class CylinderConstraint:
    """Finite set of (site, bit) requirements; sites pairwise distinct.

    Sites are ints (events on Z, Bernoulli systems) or (i, j) pairs (events
    on Z^2, algebraic systems).
    """

    sites: tuple[Site, ...]
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.sites) != len(self.bits):
            raise ValueError("sites and bits must have equal length")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("sites must be pairwise distinct")
        for b in self.bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
        dims = set()
        for s in self.sites:
            if isinstance(s, int):
                dims.add(1)
            elif (isinstance(s, tuple) and len(s) == 2
                  and all(isinstance(x, int) for x in s)):
                dims.add(2)
            else:
                raise ValueError(f"site {s!r} is neither an int nor an (i, j) pair")
        if len(dims) > 1:
            raise ValueError("sites must share one dimension")

    def to_json(self) -> dict:
        sites = [list(s) if isinstance(s, tuple) else s for s in self.sites]
        return {"sites": sites, "bits": list(self.bits)}

    @classmethod
    def from_json(cls, obj: dict) -> "CylinderConstraint":
        if not isinstance(obj, dict) or "sites" not in obj or "bits" not in obj:
            raise ValueError("constellation JSON needs 'sites' and 'bits'")
        sites = []
        for s in obj["sites"]:
            if isinstance(s, int):
                sites.append(s)
            elif isinstance(s, (list, tuple)) and len(s) == 2:
                sites.append((int(s[0]), int(s[1])))
            else:
                raise ValueError(f"bad site {s!r}")
        return cls(tuple(sites), tuple(int(b) for b in obj["bits"]))


def merge_site_bits(pairs: Iterable[tuple[Site, int]]) -> Optional[CylinderConstraint]:
    """Combine (site, bit) requirements; None signals a contradiction
    (the event is empty and has measure exactly 0)."""
    seen: dict[Site, int] = {}
    for site, bit in pairs:
        site = tuple(site) if isinstance(site, (list, tuple)) else site
        if site in seen:
            if seen[site] != bit:
                return None
        else:
            seen[site] = bit
    return CylinderConstraint(tuple(seen.keys()), tuple(seen.values()))


def merge_events(events: Sequence[CylinderConstraint],
                 shifts: Sequence[Site]) -> Optional[CylinderConstraint]:
    pairs = []
    for ev, sh in zip(events, shifts):
        for s, b in zip(ev.sites, ev.bits):
            pairs.append((site_add(s, sh), b))
    return merge_site_bits(pairs)


# ---------------------------------------------------------------------------
# Exact plane functionals: the row-transfer kernel

# _SPREAD[b] has bit 2i set for every bit i set in the byte b.
_SPREAD = np.array([sum(((b >> i) & 1) << (2 * i) for i in range(8)) for b in range(256)],
                   dtype="<u2")


def _frobenius(p: int) -> int:
    """p(x)^2 = p(x^2) over GF(2): coefficient bit i moves to bit 2i."""
    raw = np.frombuffer(p.to_bytes((p.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return int.from_bytes(_SPREAD[raw].tobytes(), "little")


def _u_power(n: int, depth: int, taps: Sequence[tuple[int, int]]) -> list[int]:
    """Coefficients of u^0 .. u^(depth-1) in u^n mod chi, by square-and-multiply:
    squaring is Frobenius, and reducing u^d, d >= depth, XORs one shifted
    coefficient per tap (m, s) of u^depth = sum of x^s u^(depth-m)."""
    def reduce(poly: list[int]) -> list[int]:
        for d in range(len(poly) - 1, depth - 1, -1):
            for m, s in taps:
                poly[d - m] ^= poly[d] << s
        return poly[:depth]

    acc = reduce([1] + [0] * (depth - 1))
    for bit in bin(n)[2:]:
        square = [0] * max(2 * depth - 1, 0)
        square[::2] = map(_frobenius, acc)
        acc = reduce(square)
        if bit == "1":
            acc = reduce([0] + acc)
    return acc


def _window_masks(pattern: RelationPattern,
                  sites: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Generator masks of the coordinate functionals at `sites`.

    A pattern without a single topmost cell is sheared first by
    (i, j) -> (i, j + m*i), m = row span + 1, an automorphism of Z^2 after
    which the highest of its rightmost cells is the only topmost one.  The
    generators are the cells of the `depth` free rows from the lowest site
    row b0 up.  The functional at (a, b0+n) is x^a t^n mod chi(t), with
    chi(t) = t^depth - sum of x^(pi-ti) t^(depth-tj+pj) over the stencil
    cells other than the topmost (ti, tj); its t^k coefficient is free row
    k's polynomial.  In u = x^e t every coefficient of chi is a polynomial,
    and t^n = x^(-e n) u^n.  Block k of a mask holds row k, all sites'
    row-k polynomials shifted alike to nonnegative exponents.  Returns
    (mask per site, generator count).
    """
    if not pattern.is_propagating():
        j_lo, j_hi = pattern.j_range
        shear = j_hi - j_lo + 1
        pattern = RelationPattern(frozenset((i, j + shear * i) for i, j in pattern.support))
        sites = [(i, j + shear * i) for i, j in sites]
    ti, tj = pattern.top_offset()
    depth = tj - pattern.j_range[0]
    rest = [(pi - ti, tj - pj) for pi, pj in pattern.support if (pi, pj) != (ti, tj)]
    e = max([0] + [-(d // m) for d, m in rest])
    taps = [(m, d + e * m) for d, m in rest]
    a0 = min(a for a, _ in sites)
    b0 = min(b for _, b in sites)
    top = max(b for _, b in sites) - b0
    # u^n has coefficients of degree at most n times the largest tap shift.
    stride = max(a for a, _ in sites) - a0 + top * (e + max([0] + [s for _, s in taps])) + 1
    if depth * stride > MAX_GENERATORS:
        raise ValueError(f"constellation spans {depth * stride} generator cells, "
                         f"more than {MAX_GENERATORS}")
    powers: dict[int, list[int]] = {}
    masks = []
    for a, b in sites:
        n = b - b0
        if n not in powers:
            powers[n] = _u_power(n, depth, taps)
        base = a - a0 + e * (top - n)
        masks.append(sum(c << (base + k * stride) for k, c in enumerate(powers[n])))
    return masks, depth * stride


def _relations(masks: Sequence[int]) -> list[int]:
    """Basis of the site dependencies {v : XOR of masks[s] over v is 0}.

    Each mask is reduced against row pivots keyed by their lowest set bit,
    carrying a tag of the sites it combines; a mask that reduces to 0 leaves
    its tag.  That tag is its own site plus earlier independent sites, so
    the basis is the reduced echelon form by highest bit, ascending: what
    `gf2.nullspace` returns for the site matrix.
    """
    pivots: dict[int, tuple[int, int]] = {}
    found = []
    for s, m in enumerate(masks):
        tag = 1 << s
        while m:
            low = (m & -m).bit_length()
            if low not in pivots:
                pivots[low] = (m, tag)
                break
            m ^= pivots[low][0]
            tag ^= pivots[low][1]
        else:
            found.append(tag)
    return found


def _normalized_2d_sites(c: CylinderConstraint) -> list[tuple[int, int]]:
    sites = []
    for s in c.sites:
        if isinstance(s, int):
            raise ValueError("algebraic constraints need (i, j) sites")
        sites.append(s)
    return sites


def relation_space(system: AlgebraicSystem,
                   sites: Sequence[tuple[int, int]]) -> list[BitVector]:
    """Basis of GF(2) dependencies among the coordinate functionals at
    `sites` that hold identically on the configuration group.

    Vectors are indexed by the order of `sites`.  The basis is the reduced
    echelon form by highest bit, ascending, of the dependencies among the
    row-transfer masks (`_window_masks`), found in one elimination.
    """
    sites = [tuple(s) for s in sites]
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    if not sites:
        return []
    masks, _ = _window_masks(system.pattern, sites)
    return [BitVector(len(sites), v) for v in _relations(masks)]


def _measure_from_relations(relations: Sequence[BitVector], bits: Sequence[int]) -> MeasureValue:
    b = BitVector.from_bits(bits).bits
    if any((v.bits & b).bit_count() & 1 for v in relations):
        return MeasureValue.of_exact(0, method="window")
    return MeasureValue.of_exact(Fraction(1, 1 << (len(bits) - len(relations))), method="window")


def cylinder_measure(system: AlgebraicSystem, c: CylinderConstraint) -> MeasureValue:
    """Exact Haar measure of the cylinder event prescribed by `c`.

    With R the relations among the site functionals (`relation_space`), the
    measure is 0 when some relation has odd parity on the bits and
    2^-(k - |R|) otherwise, k the number of sites.  Exact at every scale;
    meta["method"] is "window".
    """
    return _measure_from_relations(relation_space(system, _normalized_2d_sites(c)), c.bits)


# ---------------------------------------------------------------------------
# Finite torus kernels

@dataclass(frozen=True)
class TorusKernel:
    """Basis of the pattern-harmonic subgroup of a w x h torus.

    Basis elements are configurations flattened row-major: bit j*width + i
    is the value at site (i, j).
    """

    width: int
    height: int
    basis: tuple[BitVector, ...]
    pattern: RelationPattern = LEDRAPPIER_PATTERN

    @property
    def dim(self) -> int:
        return len(self.basis)

    def site_bit_index(self, site: tuple[int, int]) -> int:
        i, j = site[0] % self.width, site[1] % self.height
        return j * self.width + i

    def site_mask(self, site: tuple[int, int]) -> int:
        """Generator mask of the coordinate functional at `site`."""
        idx = self.site_bit_index(site)
        m = 0
        for g, vec in enumerate(self.basis):
            m |= ((vec.bits >> idx) & 1) << g
        return m


def _row_taps(pattern: RelationPattern, w: int) -> tuple[int, list[tuple[int, int]]]:
    """Depth and (block, shift) taps of the row step on width w.

    The new row r[y] is the XOR over taps of rotr(r[y-depth+block], shift),
    where rotr(x, s) has bit i equal to bit (i + s) mod w of x: one tap per
    stencil cell other than the unique topmost one.
    """
    if not pattern.is_propagating():
        raise UnsupportedPatternError(
            "transfer kernel needs a pattern with a single topmost cell"
        )
    ti, tj = pattern.top_offset()
    j_lo, j_hi = pattern.j_range
    depth = j_hi - j_lo
    if depth == 0:
        raise UnsupportedPatternError("pattern must span at least two rows")
    taps = [(pj - j_lo, (pi - ti) % w)
            for pi, pj in pattern.support if (pi, pj) != (ti, tj)]
    return depth, taps


def transfer_matrix(pattern: RelationPattern, w: int) -> BitMatrix:
    """Row-to-row transfer map on `depth` stacked rows of width w.

    State (r[y-depth], ..., r[y-1]) maps to (r[y-depth+1], ..., r[y]); the
    new row is solved from the unique topmost stencil cell.
    """
    depth, taps = _row_taps(pattern, w)
    rows = [1 << (w + k) for k in range((depth - 1) * w)]
    for i in range(w):
        acc = 0
        for block, shift in taps:
            acc ^= 1 << (block * w + (i + shift) % w)
        rows.append(acc)
    return BitMatrix(depth * w, depth * w, tuple(rows))


def torus_kernel(system: AlgebraicSystem, w: int, h: int) -> TorusKernel:
    """Harmonic configurations of the w x h torus via the transfer matrix.

    Configurations correspond to fixed points of the h-th transfer power.
    Each fixed state is expanded into h lattice rows, every row a w-bit int;
    one row step is the XOR over the stencil taps of a whole earlier row
    rotated by the tap's shift (see `_row_taps`), masked to w bits once.
    """
    if w < 3 or h < 3:
        raise ValueError("torus dimensions must be at least 3")
    pattern = system.pattern
    depth, taps = _row_taps(pattern, w)
    t = transfer_matrix(pattern, w)
    fixed = gf2.nullspace(gf2.mat_add(gf2.mat_pow(t, h), BitMatrix.identity(t.rows)))
    wmask = (1 << w) - 1
    basis = []
    for state in fixed:
        history = [(state.bits >> (b * w)) & wmask for b in range(depth)]
        bits = 0
        for j in range(h):
            new = 0
            for block, shift in taps:
                row = history[block]
                new ^= (row >> shift) | (row << (w - shift))
            new &= wmask
            bits |= new << (j * w)
            history = history[1:]
            history.append(new)
        basis.append(BitVector(w * h, bits))
    return TorusKernel(w, h, tuple(basis), pattern)


def sample_configuration(kernel: TorusKernel, seed: int) -> np.ndarray:
    """Uniform sample from the kernel subgroup; (height, width) uint8 array,
    deterministic for a given seed."""
    gen = substream(seed, "config")
    combo = random_bits(gen, kernel.dim)
    bits = 0
    while combo:
        low = combo & -combo
        bits ^= kernel.basis[low.bit_length() - 1].bits
        combo ^= low
    n = kernel.width * kernel.height
    raw = bits.to_bytes((n + 7) // 8, "little")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n]
    return arr.reshape(kernel.height, kernel.width)


def grid_satisfies_pattern(pattern: RelationPattern, grid: np.ndarray) -> bool:
    """Check the defining relation at every site (with wraparound)."""
    acc = np.zeros_like(grid)
    for pi, pj in pattern.support:
        acc ^= np.roll(grid, shift=(-pj, -pi), axis=(0, 1))
    return not acc.any()


_MC_CHUNK = 8192


def mc_cylinder_measure(kernel: TorusKernel, c: CylinderConstraint,
                        n: int, seed: int) -> MeasureValue:
    """Monte-Carlo estimate of the cylinder probability on the torus.

    Deterministic for a given seed: samples are drawn in fixed-size chunks
    from substreams keyed by (seed, chunk index) and reduced in order.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    sites = _normalized_2d_sites(c)
    wrapped = [(x % kernel.width, y % kernel.height) for x, y in sites]
    if len(set(wrapped)) != len(wrapped):
        raise ValueError("constellation does not embed in the torus")
    if not sites:
        return MeasureValue.of_estimate(1.0, 0.0, n)
    dim = kernel.dim
    masks = [kernel.site_mask(s) for s in sites]
    site_mat = np.zeros((max(dim, 1), len(sites)), dtype=np.int32)
    for col, m in enumerate(masks):
        while m:
            low = m & -m
            site_mat[low.bit_length() - 1, col] = 1
            m ^= low
    target = np.asarray(c.bits, dtype=np.int32)
    hits = 0
    done = 0
    chunk_idx = 0
    while done < n:
        count = min(_MC_CHUNK, n - done)
        gen = substream(seed, "mc", chunk_idx)
        if dim == 0:
            vals = np.zeros((count, len(sites)), dtype=np.int32)
        else:
            combos = gen.integers(0, 2, size=(count, dim), dtype=np.int8)
            vals = (combos.astype(np.int32) @ site_mat) & 1
        hits += int(np.count_nonzero(np.all(vals == target, axis=1)))
        done += count
        chunk_idx += 1
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return MeasureValue.of_estimate(p, stderr, n, torus=[kernel.width, kernel.height], seed=seed)


# default_torus_for starts at this size and tries this many sizes.
_TORUS_MIN_SIZE = 12
_TORUS_TRIES = 24


def default_torus_for(system: AlgebraicSystem, c: CylinderConstraint) -> TorusKernel:
    """Pick a torus suitable for Monte-Carlo estimation of `c`.

    Power-of-two sizes carry extra wrapped relations, so the default has an
    odd factor and at least 4x the constellation diameter; the choice is
    validated by matching the evaluation rank at the sites against the
    plane rank, bumping the size until they agree.
    """
    sites = _normalized_2d_sites(c)
    if sites:
        xs = [s[0] for s in sites]
        ys = [s[1] for s in sites]
        diam = max(max(xs) - min(xs), max(ys) - min(ys))
    else:
        diam = 1
    size = max(_TORUS_MIN_SIZE, 4 * diam)
    plane_rank = len(sites) - len(relation_space(system, sites))
    last = None
    for _ in range(_TORUS_TRIES):
        if size & (size - 1) == 0:  # pure power of two
            size += 1
            continue
        kernel = torus_kernel(system, size, size)
        last = kernel
        if not sites:
            return kernel
        tmasks = [kernel.site_mask(s) for s in sites]
        trank = gf2.rank(BitMatrix(len(tmasks), max(kernel.dim, 1),
                                   tuple(tmasks)))
        if trank == plane_rank:
            return kernel
        size += 1
    raise RuntimeError(
        f"no torus up to size {size} matches the plane rank for {c}; last dim {last.dim if last else '?'}"
    )


# ---------------------------------------------------------------------------
# Bernoulli shift on Z (Haar measure on {0,1}^Z)

def bernoulli_cylinder_measure(pairs: Iterable[tuple[Site, int]]) -> MeasureValue:
    """Exact measure of the cylinder of the full 2-shift given by (site, bit)
    requirements: 2^(-#distinct sites), or 0 when one site is required to
    take both values."""
    bits: dict[Site, int] = {}
    for site, bit in pairs:
        if bits.setdefault(site, bit) != bit:
            return MeasureValue.of_exact(0)
    return MeasureValue.of_exact(Fraction(1, 1 << len(bits)))


# ---------------------------------------------------------------------------
# Correlation oracles

class LedrappierOracle:
    """Exact k-fold correlation oracle for an algebraic plane system.

    Relations are kept per merged site tuple for the oracle's lifetime: a
    joining tensor asks for the same sites once per cell combination.
    """

    def __init__(self, system: Optional[AlgebraicSystem] = None):
        self.system = system or ledrappier_system()
        self._by_sites: dict[tuple, list[BitVector]] = {}

    def _relation_space(self, sites: list[tuple[int, int]]) -> list[BitVector]:
        key = tuple(sites)
        rels = self._by_sites.get(key)
        if rels is None:
            rels = self._by_sites[key] = relation_space(self.system, sites)
        return rels

    def _measure(self, c: CylinderConstraint) -> MeasureValue:
        return _measure_from_relations(self._relation_space(_normalized_2d_sites(c)), c.bits)

    def event_measure(self, event: CylinderConstraint) -> MeasureValue:
        return self._measure(event)

    def intersection_measure(self, shifts: Sequence[Site],
                             events: Sequence[CylinderConstraint]) -> MeasureValue:
        merged = merge_events(events, shifts)
        if merged is None:
            return MeasureValue.of_exact(0, contradiction=True)
        return self._measure(merged)

    def relation_certificate(self, shifts: Sequence[Site],
                             events: Sequence[CylinderConstraint]) -> dict:
        """Explicit GF(2) relations among the merged constellation sites."""
        merged = merge_events(events, shifts)
        if merged is None:
            return {"sites": [], "relations": [], "contradiction": True}
        sites = _normalized_2d_sites(merged)
        rels = self._relation_space(sites)
        return {
            "sites": [list(s) for s in sites],
            "relations": [v.to_list() for v in rels],
        }


class BernoulliOracle:
    """Exact oracle for the full 2-shift; supports negative shifts."""

    def event_measure(self, event: CylinderConstraint) -> MeasureValue:
        return bernoulli_cylinder_measure(zip(event.sites, event.bits))

    def intersection_measure(self, shifts: Sequence[int],
                             events: Sequence[CylinderConstraint]) -> MeasureValue:
        pairs = []
        for ev, sh in zip(events, shifts):
            if not isinstance(sh, int):
                raise TypeError(f"Bernoulli shifts are integers, got {sh!r}")
            for s, b in zip(ev.sites, ev.bits):
                if not isinstance(s, int):
                    raise TypeError(f"Bernoulli events live on Z sites, got {s!r}")
                pairs.append((s + sh, b))
        return bernoulli_cylinder_measure(pairs)


# ---------------------------------------------------------------------------
# Grid export

def grid_to_json(grid: np.ndarray) -> dict:
    h, w = grid.shape
    rows = ["".join("1" if v else "0" for v in grid[j]) for j in range(h)]
    return {"width": int(w), "height": int(h), "rows": rows}


def grid_to_pbm(grid: np.ndarray) -> str:
    """Plain PBM; configuration bit 0 renders dark (PBM 1 = black)."""
    h, w = grid.shape
    lines = [f"P1", f"# bit 0 = dark, bit 1 = light", f"{w} {h}"]
    for j in range(h):
        lines.append(" ".join("0" if v else "1" for v in grid[j]))
    return "\n".join(lines) + "\n"

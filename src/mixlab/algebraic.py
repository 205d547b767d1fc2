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
by square-and-multiply from the longest binary prefix of n already computed
(Laurent-polynomial view of Ledrappier 1978 and of Schmidt, Dynamical
Systems of Algebraic Origin, 1995).  Other patterns are sheared first so
that one cell is topmost.  Each pattern derives its shear and recurrence
once (`RelationPattern.transfer`).  Relations among the sites come from one
elimination of these masks, with no window and no scale limit.
Squaring is Frobenius, p(x)^2 = p(x^2): two byte-translate tables spread
each byte's nibbles into the bytes of the square.

Before any mask is built the sites are peeled (`_peel`) by the edge normals
of the pattern's Newton polygon (`RelationPattern.normals`).  Sites T carry
a relation exactly when the polynomial sum of u^s over T lies in the ideal
(f) of the pattern's polynomial f (the ideal view of Schmidt, 1995).  For
an edge normal nu, initial forms multiply (Ostrowski 1921) and in_nu(f) has
two or more terms, so every relation's support has two or more sites at its
maximum of <nu, s>.  A site that is the only such site among the remaining
ones is therefore in no relation and is dropped, again and again; when no
site is left, the relation space is {0} and no mask is built.

The peel, the masks and the elimination all run on the sites' normal form
(`_normal_form`): the sites translated by their first site and, when the
pattern is square-free (`RelationPattern.square_free`), halved while every
coordinate difference is even.  A monomial is a unit of the Laurent ring,
and over GF(2) g(x^2, y^2) = g(x, y)^2, which a square-free f divides only
when f divides g; so the normal form has the relations of the sites, in
the same order.  Ledrappier's 5-point stencil at every dyadic scale 2^n
has the stencil itself as normal form: one elimination for the family.

`LedrappierOracle` keeps one cache for its lifetime: the nonempty
relations of every normal form it met.  A measure merges the shifted
(site, bit) requirements of its events on each call, and the row powers
u^n of a mask build live only for that call.  A joining member's entries
that share a plan are decided together, as arrays over their index grid,
and the relations of all its plans come from those of the member's shifted
sites, through the same elimination (`_relations`) run on their parts
outside the plan (`_member`).  Beyond the oracle only the exact values are
kept: one shared `MeasureValue` per rank.

Torus kernels run the same recurrence (`RelationPattern.transfer`) on
rows that wrap around, once per row block.  The step commutes with
rotating rows, so a state of `depth` rows is a vector over
GF(2)[x]/(x^w - 1) and T^h + I is a depth x depth matrix over that ring
(the additive cellular-automaton view of Martin, Odlyzko and Wolfram,
1984).  The fixed states come from a Hermite basis over GF(2)[x], found
by polynomial Euclid with no elimination of state bits, and each basis
configuration is the previous one rotated, XOR a few fixed ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Collection, Iterable, Optional, Sequence, Union

import numpy as np

from .gf2 import MAX_DIM, DimensionError
from .measure import MeasureValue
from .rng import random_bits, substream

Site = Union[int, tuple[int, int]]

# Exact plane masks grow with the extent of a constellation, not with its
# site count; past this many generator cells (8 MB per mask) it is refused
# before any memory is taken.  The cap is checked on the extents of the
# sites as given, before their normal form and the peel, so a constellation
# is refused whether or not it peels or halves to a small normal form.
MAX_GENERATORS = 1 << 26

# A torus kernel's explicit basis holds dim x side^2 bits: at side 1023
# (dim 964) about 120 MB, built in 0.2-0.3 s (0.04-0.05 s at 513, 0.01 s
# at 257, on one 2.0 GHz Xeon core).  At twice this side the basis alone
# would pass a gigabyte, so a larger side is refused.
MAX_TORUS_SIDE = 1024

# Monte Carlo time grows linearly with the sample count: per million
# samples, 0.05-0.06 s for 3-5 sites that read 40-44 generators of the
# 33 x 33 kernel (dimension 44), 0.09 s for 15 sites, on a 2-vCPU Xeon VM.
# This keeps a run there under 10 s; one whose sites read no generator
# draws no sample.
MAX_MC_SAMPLES = 10 ** 8

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

    @functools.cached_property
    def transfer(self) -> tuple[int, int, tuple[tuple[int, int], ...]]:
        """The row recurrence: (shear, depth, rest).

        When the topmost row of the support holds one cell, a new lattice
        row is determined by the rows below it and the shear is 0.
        Otherwise the support is sheared by (i, j) -> (i, j + shear*i),
        shear = row span + 1, an automorphism of Z^2 after which the highest
        of its rightmost cells is the only topmost one.  `depth` is the
        number of rows below that cell in the (sheared) support, and `rest`
        holds every other cell's (column offset, rows below) relative to
        it, sorted.
        """
        ys = [j for _, j in self.support]
        top = max(ys)
        shear = 0 if ys.count(top) == 1 else top - min(ys) + 1
        cells = [(i, j + shear * i) for i, j in self.support]
        ti, tj = max(cells, key=lambda p: (p[1], p[0]))
        rest = tuple(sorted((i - ti, tj - j) for i, j in cells if (i, j) != (ti, tj)))
        return shear, tj - min(j for _, j in cells), rest

    @functools.cached_property
    def row_taps(self) -> tuple[int, tuple[tuple[int, int], ...], int]:
        """The recurrence in u = x^e t: (e, taps, reach).  e >= 0 is the
        least exponent that makes every coefficient of chi a polynomial,
        taps the pairs (m, s) with u^depth = sum of x^s u^(depth-m), and
        u^n has coefficients of degree at most n times reach, e plus the
        largest tap shift."""
        rest = self.transfer[2]
        e = max([0] + [-(d // m) for d, m in rest])
        taps = tuple((m, d + e * m) for d, m in rest)
        return e, taps, e + max([0] + [s for _, s in taps])

    @functools.cached_property
    def normals(self) -> tuple[tuple[int, int], ...]:
        """Outward primitive normals of the edges of the support's convex
        hull (its Newton polygon), counterclockwise: the two normals of a
        segment, none for one cell.  Along each, two or more cells of the
        support reach the maximum of <normal, cell>.

        The hull is Andrew's monotone chain, collinear cells dropped; edge
        (dx, dy) of the counterclockwise hull has outward normal (dy, -dx).
        """
        cells = sorted(self.support)

        def chain(points):  # one half of the hull, without its last point
            out: list[tuple[int, int]] = []
            for x, y in points:
                while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (y - out[-2][1])
                                         - (out[-1][1] - out[-2][1]) * (x - out[-2][0])) <= 0:
                    out.pop()
                out.append((x, y))
            return out[:-1]

        hull = chain(cells) + chain(cells[::-1])
        normals = []
        for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
            g = math.gcd(x1 - x0, y1 - y0)
            normals.append(((y1 - y0) // g, (x0 - x1) // g))
        return tuple(normals)

    @functools.cached_property
    def square_free(self) -> bool:
        """A sound certificate that the pattern's polynomial f, shifted to
        nonnegative exponents, has no square factor over GF(2).

        True when, with f read as a polynomial in y over GF(2)[x], or with
        x and y swapped, gcd(f, df/dy) over GF(2)(x)[y] has degree 0 in y
        and the content c(x) has gcd(c, c') = 1 (`_certified`).  Sound: if
        p^2 divides f = p^2 h and p has positive degree in y, then p
        divides df/dy = p^2 dh/dy (characteristic 2); if p lies in
        GF(2)[x], p^2 divides c, so p divides c'.  It holds for the default
        and the corner pattern and fails for (1 + x + y)^2 = 1 + x^2 + y^2;
        on the supports of a 3 x 3 box it misses no square-free one.
        """
        i0 = min(i for i, _ in self.support)
        j0 = min(j for _, j in self.support)
        cells = [(i - i0, j - j0) for i, j in self.support]
        return any(_certified([sum(1 << c[1 - axis] for c in cells if c[axis] == d)
                               for d in range(max(c[axis] for c in cells) + 1)])
                   for axis in (1, 0))


# Polynomials over GF(2) as ints, bit i the coefficient of x^i.

def _pdivmod(a: int, b: int) -> tuple[int, int]:
    q, db = 0, b.bit_length()
    while (s := a.bit_length() - db) >= 0:
        q ^= 1 << s
        a ^= b << s
    return q, a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _pmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def _certified(f: list[int]) -> bool:
    """f = sum of f[j] y^j, coefficients in GF(2)[x] and f[-1] nonzero:
    True when the content c = gcd of the f[j] has gcd(c, c') = 1 and
    gcd(f, df/dy) over GF(2)(x)[y] has degree 0, found by Euclid on
    primitive pseudo-remainders."""
    c = functools.reduce(_pgcd, f)
    if _pgcd(c, (c >> 1) & ((1 << 2 * c.bit_length()) - 1) // 3) != 1:  # c' keeps odd powers
        return False
    a, b = f, [v if j & 1 else 0 for j, v in enumerate(f)][1:]
    while b and not b[-1]:
        b.pop()
    while b:
        while len(a) >= len(b):  # a <- lc(b) a - lc(a) y^s b: its top term cancels
            s, la, lb = len(a) - len(b), a[-1], b[-1]
            a = [_pmul(lb, v) ^ (_pmul(la, b[j - s]) if j >= s else 0) for j, v in enumerate(a)]
            while a and not a[-1]:
                a.pop()
        if a:
            g = functools.reduce(_pgcd, a)
            a = [_pdivmod(v, g)[0] for v in a]
        a, b = b, a
    return len(a) == 1


LEDRAPPIER_PATTERN = RelationPattern(
    frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})
)


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
            if type(s) is int:
                sites.append(s)
            elif isinstance(s, list) and len(s) == 2 and all(type(x) is int for x in s):
                sites.append(tuple(s))
            else:
                raise ValueError(f"bad site {s!r}: sites are JSON integers or pairs of them")
        if not all(type(b) is int for b in obj["bits"]):
            raise ValueError("bits must be JSON integers")
        return cls(tuple(sites), tuple(obj["bits"]))


# ---------------------------------------------------------------------------
# Exact plane functionals: the row-transfer kernel

def _spread_nibble(v: int) -> int:
    return sum(((v >> i) & 1) << (2 * i) for i in range(4))


# Byte b's two bytes under Frobenius: its low and its high nibble with bit i
# moved to bit 2i.
_SPREAD_LOW = bytes(_spread_nibble(b & 15) for b in range(256))
_SPREAD_HIGH = bytes(_spread_nibble(b >> 4) for b in range(256))


def _frobenius(p: int) -> int:
    """p(x)^2 = p(x^2) over GF(2): coefficient bit i moves to bit 2i."""
    raw = p.to_bytes((p.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(raw))
    out[0::2] = raw.translate(_SPREAD_LOW)
    out[1::2] = raw.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _reduce(poly: list[int], depth: int, taps: Sequence[tuple[int, int]]) -> list[int]:
    """`poly` in u reduced mod chi in place: each coefficient u^d, d >= depth,
    XORs one shifted copy per tap (m, s) of u^depth = sum of x^s u^(depth-m)."""
    for d in range(len(poly) - 1, depth - 1, -1):
        c = poly[d]
        if c:
            for m, s in taps:
                poly[d - m] ^= c << s
    del poly[depth:]
    return poly


def _u_power(n: int, depth: int, taps: Sequence[tuple[int, int]], cache: dict) -> list[int]:
    """Coefficients of u^0 .. u^(depth-1) in u^n mod chi, up a prefix ladder.

    The binary prefixes of n are n >> k.  Starting from the longest one that
    `cache` holds (u^0 when it holds none), each further bit of n squares
    (Frobenius, coefficient by coefficient) and, for a 1, multiplies by u,
    and every u^(n >> j) passed on the way goes into `cache`.  So the cache
    holds every prefix of every power in it, and u^(2^s) after u^(2^(s-1))
    costs one squaring.
    """
    k = 0
    while (n >> k) not in cache:
        if not n >> k:
            cache[0] = _reduce([1] + [0] * (depth - 1), depth, taps)
            break
        k += 1
    acc = cache[n >> k]
    for j in range(k - 1, -1, -1):
        square = [0] * max(2 * depth - 1, 0)
        square[::2] = map(_frobenius, acc)
        acc = _reduce(square, depth, taps)
        if n >> j & 1:
            acc = _reduce([0] + acc, depth, taps)
        cache[n >> j] = acc
    return acc


def _frame(pattern: RelationPattern, sites: Sequence[tuple[int, int]]
           ) -> tuple[Sequence[tuple[int, int]], int, int, int, int]:
    """The frame of `_window_masks`: `sites` sheared as the pattern's
    `transfer` says, their lowest column a0 and row b0, their row span
    `top` and the stride of one free row's block.  A frame of more than
    `MAX_GENERATORS` generator cells is refused, from the sites' extents
    alone."""
    shear, depth, _ = pattern.transfer
    if shear:
        sites = [(i, j + shear * i) for i, j in sites]
    xs, ys = zip(*sites)
    a0, b0 = min(xs), min(ys)
    top = max(ys) - b0
    stride = max(xs) - a0 + top * pattern.row_taps[2] + 1
    if depth * stride > MAX_GENERATORS:
        raise ValueError(f"constellation spans {depth * stride} generator cells, "
                         f"more than {MAX_GENERATORS}")
    return sites, a0, b0, top, stride


def _window_masks(pattern: RelationPattern, sites: Sequence[tuple[int, int]]
                  ) -> tuple[list[int], int]:
    """Generator masks of the coordinate functionals at `sites`.

    The sites are sheared as the pattern's `transfer` says, and its
    recurrence (depth, rest) runs on them (`_frame`).  The generators are
    the cells of the `depth` free rows from the lowest site row b0 up.  The
    functional at (a, b0+n) is x^a t^n mod chi(t), with chi(t) = t^depth -
    sum of x^d t^(depth-m) over the pairs (d, m) of `rest`; its t^k
    coefficient is free row k's polynomial.  In u = x^e t every
    coefficient of chi is a polynomial (`RelationPattern.row_taps`), and
    t^n = x^(-e n) u^n.  Block k of a mask holds row k, all sites' row-k
    polynomials shifted alike to nonnegative exponents.  Returns (mask per
    site, generator count).

    The u^n come from `_u_power`'s prefix ladder over one dict for the
    call, keyed by n, so the sites of a call share prefixes.  No power
    outlives the call: the caller's memo keeps the relations instead.
    """
    depth = pattern.transfer[1]
    e, taps, _ = pattern.row_taps
    sites, a0, b0, top, stride = _frame(pattern, sites)
    cache: dict = {}
    masks = []
    for a, b in sites:
        n = b - b0
        coeffs = _u_power(n, depth, taps, cache)
        base = a - a0 + e * (top - n)
        masks.append(sum(c << (base + k * stride) for k, c in enumerate(coeffs)))
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


def _plane_sites(sites: Collection[Site]) -> list[tuple[int, int]]:
    if any(isinstance(s, int) for s in sites):
        raise ValueError("algebraic constraints need (i, j) sites")
    return list(sites)


def _peel(normals: Sequence[tuple[int, int]], sites: Sequence[tuple[int, int]]) -> int:
    """How many of `sites` are left after dropping, again and again, a
    site that is the only maximiser of <nu, s> among the sites left, for
    some normal nu in `normals`.  Dropping only shrinks the set, and a
    site that is the only maximiser stays one in every smaller set that
    holds it, so what is left does not depend on the order of the drops.

    The normals take turns until each in a row has dropped nothing.  A
    normal sorts the sites by <nu, s>, descending, only when its first turn
    comes, and keeps a pointer to its first site left and one to its
    second; it drops the first while the two differ in value.  Both
    pointers only move forward, so for e normals and n sites the peel costs
    at most e sorts, O(e n log n), and O(e n) steps after them.  Sites in
    general position are all dropped on the first normal's turn, so the
    other normals are never sorted.  At the largest tuple of a default
    scan, order 16 in box 4096 (17 sites), the peel took 0.018 ms where the
    masks and their elimination took 1.7-1.9 ms; 17 five-site events (85
    sites), which do not peel, took 0.06 ms against 2.3-4.1 ms (2-vCPU Xeon
    VM).
    """
    n = left = len(sites)
    alive = [True] * n
    heads: list = [None] * len(normals)
    r = stable = 0
    while stable < len(normals):
        if heads[r] is None:
            a, b = normals[r]
            value = [a * x + b * y for x, y in sites]
            order = sorted(range(n), key=value.__getitem__, reverse=True)
            heads[r] = [order, [value[k] for k in order], 0, 1]
        order, value, p, q = heads[r]
        stable += 1
        while True:
            while not alive[order[p]]:
                p += 1
            q = max(q, p + 1)
            while q < n and not alive[order[q]]:
                q += 1
            if q < n and value[q] == value[p]:
                break
            alive[order[p]] = False
            left -= 1
            if not left:
                return 0
            stable = 1
        heads[r][2:] = p, q
        r = (r + 1) % len(normals)
    return left


def _normal_form(pattern: RelationPattern, sites: tuple[tuple[int, int], ...]
                 ) -> tuple[tuple[int, int], ...]:
    """`sites` translated by their first site and, when the pattern is
    `square_free`, divided by 2^v, 2^v the largest power of two dividing
    every coordinate difference: sites whose relations are those of
    `sites`, in the same order (`relation_space`)."""
    x0, y0 = sites[0]
    if x0 or y0:
        sites = tuple([(x - x0, y - y0) for x, y in sites])
    if pattern.square_free:
        g = math.gcd(*itertools.chain.from_iterable(sites))
        v = (g & -g).bit_length() - 1
        if v > 0:
            sites = tuple([(x >> v, y >> v) for x, y in sites])
    return sites


def relation_space(pattern: RelationPattern, sites: Sequence[tuple[int, int]],
                   memo: Optional[dict] = None) -> list[int]:
    """Basis of GF(2) dependencies among the coordinate functionals at
    `sites` that hold identically on the pattern's configuration group.

    Each relation is an int whose bit k is set when site k (in the order of
    `sites`) takes part.  The basis is the reduced echelon form by highest
    bit, ascending, of the dependencies among the row-transfer masks
    (`_window_masks`), found in one elimination.

    The generator cap is checked first, on the sites as given (`_frame`).
    The relations are then those of the sites' normal form
    (`_normal_form`).  `memo`, when given, keeps every nonempty basis by
    normal form; an empty one is not kept, as a set that peels empty is
    settled again by its peel.  A normal form the memo does not hold is
    peeled, and only one that survives the peel has its masks built and
    eliminated.  The reduced echelon form of a space in a
    fixed site order is unique, so the basis is the same list whichever
    sites with those relations it was found on.

    A relation is a polynomial g = sum of u^s over its sites that lies in
    the ideal (f) of the pattern's polynomial f, in the Laurent ring
    GF(2)[x^+-1, y^+-1] (Schmidt, Dynamical Systems of Algebraic Origin,
    1995).  A monomial is a unit there, so translated sites have the
    relations of the sites.  Over GF(2), g(x^2, y^2) = g(x, y)^2.  When f
    is square-free (`RelationPattern.square_free`) it is a product of
    distinct primes, each of which divides g once it divides g^2, so f
    divides g^2 only when it divides g: sites 2S have the relations of S,
    and the normal form halves as long as every coordinate difference is
    even.  A pattern with a square factor is only translated: the squared
    pattern 1 + x^2 + y^2 relates {0, (2, 0), (0, 2)} but not {0, (1, 0),
    (0, 1)}.

    When the peel by the pattern's edge normals leaves no site (`_peel`),
    the basis is empty and no mask is built.  For an edge normal nu,
    in_nu(h f) = in_nu(h) in_nu(f) (Ostrowski 1921) and in_nu(f) has two or
    more terms, so the support of every relation has two or more
    maximisers of <nu, s>.  A site that is the only maximiser among a
    superset of that support would be the support's only one too, so it is
    in no relation among the superset, and the peel drops only such sites.
    Translation and halving keep every <nu, s> in its order, so the peel of
    the normal form is the peel of the sites.
    """
    sites = tuple(map(tuple, sites))
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be distinct")
    if not sites:
        return []
    _frame(pattern, sites)  # the generator cap, on the sites as given
    key = _normal_form(pattern, sites)
    found = None if memo is None else memo.get(key)
    if found is None:
        found = _relations(_window_masks(pattern, key)[0]) if _peel(pattern.normals, key) else []
        if found and memo is not None:
            memo[key] = found
    return found


# Exact measures are immutable, so every result of one value is one object.
_WINDOW_ZERO = MeasureValue.of_exact(0, method="window")
_CONTRADICTION = MeasureValue.of_exact(0, contradiction=True)


@functools.lru_cache(maxsize=256)
def _window_value(r: int) -> MeasureValue:
    """The shared measure 2^(-r) of a cylinder of rank r."""
    return MeasureValue.of_exact(Fraction(1, 1 << r), method="window")


def _measure_from_relations(relations: Sequence[int], bits: Collection[int]) -> MeasureValue:
    b = sum(bit << k for k, bit in enumerate(bits))
    if any((v & b).bit_count() & 1 for v in relations):
        return _WINDOW_ZERO
    return _window_value(len(bits) - len(relations))


def cylinder_measure(pattern: RelationPattern, c: CylinderConstraint) -> MeasureValue:
    """Exact Haar measure of the cylinder event prescribed by `c`.

    With R the relations among the site functionals (`relation_space`), the
    measure is 0 when some relation has odd parity on the bits and
    2^-(k - |R|) otherwise, k the number of sites.  Exact at every scale;
    meta["method"] is "window".
    """
    return _measure_from_relations(relation_space(pattern, _plane_sites(c.sites)), c.bits)


# ---------------------------------------------------------------------------
# Finite torus kernels

@dataclass(frozen=True)
class TorusKernel:
    """Basis of the pattern-harmonic subgroup of a w x h torus.

    Each basis element is a configuration as an int of width * height bits,
    flattened row-major: bit j*width + i is the value at site (i, j).
    """

    width: int
    height: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def site_mask(self, site: tuple[int, int]) -> int:
        """Generator mask of the coordinate functional at `site`: bit g is
        the value of basis element g there."""
        idx = site[1] % self.height * self.width + site[0] % self.width
        m = 0
        for g, vec in enumerate(self.basis):
            m |= ((vec >> idx) & 1) << g
        return m


def _run_rows(history: list[int], taps: Sequence[tuple[int, int]], w: int, n: int) -> list[int]:
    """`history` (`depth` rows, oldest first, each a w-bit int) and the next
    n rows: new row j is the XOR over taps (block, shift) of rotr(row j +
    block, shift), rotr(x, s) having bit i equal to bit (i + s) mod w of x.
    """
    wmask = (1 << w) - 1
    rows = list(history)
    for j in range(n):
        new = 0
        for block, shift in taps:
            row = rows[j + block]
            new ^= (row >> shift) | (row << (w - shift))
        rows.append(new & wmask)
    return rows


def _reduce_rows(rows: Iterable[list[int]], pivot: list[int], col: int) -> None:
    """XOR shifted copies of `pivot` into each row until its entry `col` has
    lower degree than pivot[col] (polynomials over GF(2) as ints)."""
    d = pivot[col].bit_length()
    terms = [(i, p) for i, p in enumerate(pivot) if p]
    for row in rows:
        while (n := row[col].bit_length()) >= d:
            for i, p in terms:
                row[i] ^= p << (n - d)


def _hermite_kernel(m: Sequence[Sequence[int]], w: int) -> list[list[int]]:
    """Hermite basis h_0 .. h_(depth-1) of the states s in GF(2)[x]^depth
    with m s = 0 mod x^w - 1: h_b has component b equal to d_b, a divisor
    of x^w - 1, components above b equal to 0, and each component c below
    b of degree less than deg d_c.

    The rows (m e_b | e_b) and ((x^w - 1) e_k | 0) generate the pairs
    (m s + (x^w - 1) t | s).  Euclid on the image columns, one at a time,
    leaves `depth` rows of image 0, a basis of the states; Euclid on their
    state columns from the last down makes it triangular, and each row's
    lower components are then reduced by the rows below it.  Components
    are kept as unbounded ints, since Euclid's cofactors grow past w bits.
    """
    depth = len(m)
    rows = [[m[k][b] for k in range(depth)] + [int(c == b) for c in range(depth)]
            for b in range(depth)]
    rows += [[((1 << w) | 1) * (k == j) for k in range(depth)] + [0] * depth
             for j in range(depth)]
    pivots = {}
    for col in [*range(depth), *range(2 * depth - 1, depth - 1, -1)]:
        live = sorted((r for r in rows if r[col]), key=lambda r: r[col].bit_length())
        while len(live) > 1:
            _reduce_rows(live[1:], live[0], col)
            live = sorted((r for r in live if r[col]), key=lambda r: r[col].bit_length())
        pivots[col] = live[0]
        rows = [r for r in rows if r is not live[0]]
    basis = [pivots[depth + b][depth:] for b in range(depth)]
    for b, row in enumerate(basis):
        for c in range(b - 1, -1, -1):
            _reduce_rows([row], basis[c], c)
    return basis


def torus_kernel(pattern: RelationPattern, w: int, h: int) -> TorusKernel:
    """Harmonic configurations of the w x h torus via the row recurrence.

    A configuration is the h rows that follow a state of `depth` rows that
    h row steps (T^h, `_run_rows`) bring back.  The step commutes with
    rotating rows, so a state is a vector s over GF(2)[x]/(x^w - 1), row b
    the polynomial s_b (bit i the coefficient of x^i); rotating every row
    left by one multiplies a state, and its configuration, by x; and
    T^h + I is a depth x depth matrix M whose column b is the last `depth`
    rows of the run from the unit state e_b, plus e_b.

    With h_b the Hermite basis of {s : M s = 0 mod x^w - 1}
    (`_hermite_kernel`), the basis is the reduced echelon form by highest
    state bit b*w + p, ascending: the state with pivot (b, p),
    deg d_b <= p < w, is x^p e_b + NF(x^p e_b), NF the normal form mod the
    h_c; at p = deg d_b it is h_b.  NF at p + 1 is x times NF at p, with
    h_c XORed in, c from b down, wherever component c reaches degree
    deg d_c.  So each basis configuration is the one before rotated, XOR
    the configurations of the h_c used, each from one run.  A side above
    `MAX_TORUS_SIDE` or a state wider than `gf2.MAX_DIM` bits is refused
    before any row is built.
    """
    if w < 3 or h < 3:
        raise ValueError("torus dimensions must be at least 3")
    if max(w, h) > MAX_TORUS_SIDE:
        raise DimensionError(f"torus side {max(w, h)} exceeds the cap {MAX_TORUS_SIDE}")
    shear, depth, rest = pattern.transfer
    if shear:
        raise UnsupportedPatternError("transfer kernel needs a pattern with a single topmost cell")
    if depth == 0:
        raise UnsupportedPatternError("pattern must span at least two rows")
    if depth * w > MAX_DIM:
        raise DimensionError(f"torus state of {depth * w} bits exceeds the cap {MAX_DIM}")
    taps = [(depth - m, d % w) for d, m in rest]
    runs = [_run_rows([int(k == b) for k in range(depth)], taps, w, h) for b in range(depth)]
    hermite = _hermite_kernel([[runs[b][h + k] ^ (k == b) for b in range(depth)]
                               for k in range(depth)], w)
    degs = [row[b].bit_length() - 1 for b, row in enumerate(hermite)]

    def configuration(state: list[int]) -> int:  # row j in bits j*w ..
        return sum(r << (j * w) for j, r in enumerate(_run_rows(state, taps, w, h)[depth:]))

    # h_c = (x^w - 1) e_c, when d_c has degree w, has configuration 0, and
    # every other h_c has components of degree < w.
    h_configs = [configuration(row) if d < w else 0 for row, d in zip(hermite, degs)]
    rep = ((1 << (w * h)) - 1) // ((1 << w) - 1)  # bit 0 of every row
    keep = ((1 << (w * h)) - 1) ^ (rep << (w - 1))
    vecs = []
    for b, d in enumerate(degs):
        nf = hermite[b][:b + 1]  # NF(x^d e_b) = h_b - x^d e_b
        nf[b] ^= 1 << d
        v = h_configs[b]  # configuration of x^p e_b + NF(x^p e_b)
        for p in range(d, w):
            if p > d:  # every row rotated left by one
                v = ((v & keep) << 1) | ((v >> (w - 1)) & rep)
                nf = [q << 1 for q in nf]
                for c in range(b, -1, -1):
                    if nf[c] >> degs[c] & 1:
                        nf = [q ^ r for q, r in zip(nf, hermite[c])]
                        v ^= h_configs[c]
            vecs.append(v)
    return TorusKernel(w, h, tuple(vecs))


def _draw_coefficients(kernel: TorusKernel, seed: int) -> int:
    """The coefficient vector that `sample_configuration(kernel, seed)`
    combines: bit g set when basis element g takes part.  It fixes the
    sample, so samples with equal vectors are one configuration.  A
    dimension-0 kernel has only the zero vector and builds no stream."""
    return random_bits(substream(seed, "config"), kernel.dim) if kernel.dim else 0


def _build_configuration(kernel: TorusKernel, combo: int) -> np.ndarray:
    """The (height, width) uint8 grid of the XOR of the basis elements set
    in `combo`."""
    bits = 0
    while combo:
        low = combo & -combo
        bits ^= kernel.basis[low.bit_length() - 1]
        combo ^= low
    n = kernel.width * kernel.height
    raw = bits.to_bytes((n + 7) // 8, "little")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n]
    return arr.reshape(kernel.height, kernel.width)


def sample_configuration(kernel: TorusKernel, seed: int) -> np.ndarray:
    """Uniform sample from the kernel subgroup; (height, width) uint8 array,
    deterministic for a given seed."""
    return _build_configuration(kernel, _draw_coefficients(kernel, seed))


def grid_satisfies_pattern(pattern: RelationPattern, grid: np.ndarray) -> bool:
    """Check the defining relation at every site (with wraparound): the
    grid tiled 2 x 2 holds every wrapped translate as one slice, taken at
    the offsets mod (h, w)."""
    h, w = grid.shape
    tiled = np.tile(grid, (2, 2))
    acc = np.zeros_like(grid)
    for pi, pj in pattern.support:
        acc ^= tiled[pj % h:pj % h + h, pi % w:pi % w + w]
    return not acc.any()


_MC_CHUNK = 8192


def _mc_draw(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """(count, dim) uint8 array whose top bits are the values that
    `gen.integers(0, 2, size=(count, dim), dtype=np.int8)` would draw.

    That call maps each byte of the generator's raw 64-bit words, taken
    little-endian and in order, to its top bit (Lemire's method on a range
    of two, with no rejection), so the raw words carry the same bits at a
    fraction of the cost; `tests/test_algebraic.py` pins the identity."""
    raw = gen.bit_generator.random_raw(-(-count * dim // 8))
    return raw.astype("<u8", copy=False).view(np.uint8)[:count * dim].reshape(count, dim)


def mc_cylinder_measure(kernel: TorusKernel, c: CylinderConstraint,
                        n: int, seed: int) -> MeasureValue:
    """Monte-Carlo estimate of the cylinder probability on the torus.

    Each sample is a uniform 0/1 combination of the kernel's generators,
    one byte's top bit per generator (`_mc_draw`), and its value at a site
    is the top bit of the XOR of the bytes at the generators in the site's
    mask; a sample hits when every site takes its required bit.  Only the
    generators that some site's mask reads are gathered from each chunk,
    one row per generator.  When no site reads any, every sample takes the
    value 0 at every site, so no chunk is drawn.
    Deterministic for a given seed: samples are drawn in fixed-size chunks
    from substreams keyed by (seed, chunk index).
    """
    if not 1 <= n <= MAX_MC_SAMPLES:
        raise ValueError(f"sample count must lie in 1..{MAX_MC_SAMPLES}")
    sites = _plane_sites(c.sites)
    wrapped = [(x % kernel.width, y % kernel.height) for x, y in sites]
    if len(set(wrapped)) != len(wrapped):
        raise ValueError("constellation does not embed in the torus")
    if not sites:
        return MeasureValue.of_estimate(1.0, 0.0, n)
    masks = [kernel.site_mask(s) for s in sites]
    read = functools.reduce(int.__or__, masks)
    used = [g for g in range(read.bit_length()) if read >> g & 1]
    site_rows = [[r for r, g in enumerate(used) if m >> g & 1] for m in masks]
    if not used:
        hits = 0 if any(c.bits) else n
    else:
        hits = 0
        for chunk_idx, start in enumerate(range(0, n, _MC_CHUNK)):
            count = min(_MC_CHUNK, n - start)
            by_gen = _mc_draw(substream(seed, "mc", chunk_idx), count, kernel.dim).T[used]
            hit = np.ones(count, dtype=bool)
            for rows, bit in zip(site_rows, c.bits):
                hit &= (np.bitwise_xor.reduce(by_gen[rows], axis=0) >> 7) == bit
            hits += int(np.count_nonzero(hit))
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
    return MeasureValue.of_estimate(p, stderr, n, torus=[kernel.width, kernel.height], seed=seed)


# default_torus_for starts at this size and tries this many sizes, not
# counting the powers of two it skips.
_TORUS_MIN_SIZE = 12
_TORUS_TRIES = 24


def default_torus_for(pattern: RelationPattern, c: CylinderConstraint) -> TorusKernel:
    """Pick a torus suitable for Monte-Carlo estimation of `c`.

    Power-of-two sizes carry extra wrapped relations, so the default has an
    odd factor and at least 4x the constellation diameter; the choice is
    validated by matching the evaluation rank at the sites against the
    plane rank, bumping the size until they agree; `ValueError` when
    `_TORUS_TRIES` sizes all fail.  Skipped powers of two use up no try.
    """
    sites = _plane_sites(c.sites)
    diam = max((max(axis) - min(axis) for axis in zip(*sites)), default=0)
    size = max(_TORUS_MIN_SIZE, 4 * diam)
    plane_rank = len(sites) - len(relation_space(pattern, sites))
    last = None
    for _ in range(_TORUS_TRIES):
        if size & (size - 1) == 0:  # pure power of two
            size += 1
        kernel = last = torus_kernel(pattern, size, size)
        tmasks = [kernel.site_mask(s) for s in sites]
        if len(sites) - len(_relations(tmasks)) == plane_rank:
            return kernel
        size += 1
    raise ValueError(
        f"no torus up to size {last.width if last else size} matches the plane rank for {c}; "
        f"last dim {last.dim if last else '?'}"
    )


# ---------------------------------------------------------------------------
# Bernoulli shift on Z (Haar measure on {0,1}^Z)

def _requirements(pairs: Iterable[tuple[Site, int]]) -> Optional[dict[Site, int]]:
    """The bit that (site, bit) requirements demand at each distinct site,
    the sites in first-seen order, or None when one site is required to
    take both values."""
    bits: dict[Site, int] = {}
    for site, bit in pairs:
        if bits.setdefault(site, bit) != bit:
            return None
    return bits


def bernoulli_cylinder_measure(pairs: Iterable[tuple[Site, int]]) -> MeasureValue:
    """Exact measure of the cylinder of the full 2-shift given by (site, bit)
    requirements: 2^(-#distinct sites), or 0 when one site is required to
    take both values."""
    bits = _requirements(pairs)
    return MeasureValue.of_exact(0 if bits is None else Fraction(1, 1 << len(bits)))


# ---------------------------------------------------------------------------
# Correlation oracles

def _member(shifts: Sequence[Site], cells: Sequence[CylinderConstraint],
            relations_of: Callable[[list], list[int]]) -> tuple[np.ndarray, int]:
    """The d^k entries of a joining member: entry (i_1, ..., i_k) is the
    measure of the intersection of cells[i_j] shifted by shifts[j], for d
    cells and k shifts.  Returns (num, den), num the flat Python-int
    numerators in index order over den, a power of two.

    Cells with equal sites form a class.  The member's union holds each
    class's sites at each shift, in first-seen order, and its relations are
    asked for once (`relations_of`, at most one elimination, and only when
    some entry is consistent).  The entries whose cells have one class at
    each position share one plan: the union sites those classes read, in
    the order first read, with the union's relations supported on them.
    These are the combinations of the union's relations whose sites
    outside the plan cancel: `_relations` on the relations' outside parts
    names each combination by a tag, and the plan relation is the XOR of
    the union relations its tag names.  Over a plan's index grid, the bit
    each plan site demands is taken from the first position that reads the
    site.  An entry is 0 where a later position demands the other bit there
    (a contradiction) or where a relation of the plan has odd parity on the
    bits; every other entry is 2^-(sites - relations).  With one class the
    union is the one plan, and it keeps every relation.
    """
    k = len(shifts)
    classes: dict[tuple, list[int]] = {}
    for i, ev in enumerate(cells):
        classes.setdefault(ev.sites, []).append(i)
    # demand[sites][q, c]: the bit that the class's c-th cell demands at its q-th site
    demand = {sites: np.array([cells[i].bits for i in m], dtype=np.uint8)
              .reshape(len(m), len(sites)).T for sites, m in classes.items()}
    union: dict[Site, int] = {}
    # reads[j][sites]: the union index of each site of that class at shift j,
    # and its demands shaped along axis j of the index grid; along[j][sites]:
    # its cells along axis j, which place a plan's entries in the member
    reads: list[dict] = []
    along: list[dict] = []
    for j, sh in enumerate(shifts):
        reads.append({})
        along.append({})
        for sites, m in classes.items():
            shape = tuple(len(m) if a == j else 1 for a in range(k))
            reads[j][sites] = ([union.setdefault(site_add(s, sh), len(union)) for s in sites],
                               demand[sites].reshape((len(sites),) + shape))
            if len(classes) > 1:
                along[j][sites] = np.array(m).reshape(shape)
    relations: Optional[list[int]] = None
    exponent = np.full((len(cells),) * k, -1)  # entry 2^-exponent; -1 for 0
    for combo in itertools.product(classes, repeat=k):
        shape = tuple(len(classes[sites]) for sites in combo)
        plan: dict[int, int] = {}  # union index -> plan site, in first-read order
        positions = [[plan.setdefault(u, len(plan)) for u in reads[j][sites][0]]
                     for j, sites in enumerate(combo)]
        n = len(plan)
        bits = np.empty((n,) + shape, dtype=np.uint8)
        clash = np.False_
        read = 0
        for j, (sites, pos) in enumerate(zip(combo, positions)):
            for p, column in zip(pos, reads[j][sites][1]):
                if p < read:
                    clash = clash | (bits[p] != column)
                else:
                    bits[p] = column
                    read += 1
        if clash.all():
            block = np.full(shape, -1)
        else:
            if relations is None:
                relations = relations_of(list(union))
            outside = ~sum(1 << u for u in plan)
            own = [functools.reduce(operator.xor,
                                    (v for i, v in enumerate(relations) if t >> i & 1))
                   for t in _relations([v & outside for v in relations])]
            rows = np.array([[v >> u & 1 for u in plan] for v in own],
                            dtype=np.int64).reshape(len(own), n)
            odd = (rows @ bits.reshape(n, math.prod(shape)) & 1).any(axis=0).reshape(shape)
            block = np.where(clash | odd, -1, n - len(own))
        if len(classes) == 1:  # one plan holds every entry
            exponent = block
        else:
            exponent[tuple(along[j][sites] for j, sites in enumerate(combo))] = block
    top = max(int(exponent.max()), 0)
    num = [1 << (top - e) if e >= 0 else 0 for e in exponent.ravel().tolist()]
    return np.array(num, dtype=object), 1 << top


class LedrappierOracle:
    """Exact k-fold correlation oracle for the plane system of `pattern`.

    Its one cache is the memo of relations by normal form
    (`relation_space`'s `memo`), which the measures, the certificates and
    the joining members all read: every scale of a dyadic family has one
    normal form, so the family costs one elimination.  The memo keeps only
    nonempty bases; a site set that peels empty, as every random separated
    tuple of one-site events does, is settled by its peel on each call and
    leaves nothing behind.  A measure or a certificate merges the shifted
    (site, bit) requirements of its events (`_requirements`); two
    different bits at one site make a contradiction of measure 0.  An
    event's own measure is its intersection at the zero shift.  A joining
    member (`joining_member`) decides all its entries at once, from the
    relations of the member's shifted sites (`_member`).
    """

    def __init__(self, pattern: RelationPattern = LEDRAPPIER_PATTERN):
        self.pattern = pattern
        self._memo: dict[tuple, list[int]] = {}

    @staticmethod
    def _merged(shifts: Sequence[Site], events: Sequence[CylinderConstraint]
                ) -> Optional[dict[Site, int]]:
        return _requirements((site_add(s, sh), b) for ev, sh in zip(events, shifts)
                             for s, b in zip(ev.sites, ev.bits))

    def _relations_of(self, sites: Collection[Site]) -> list[int]:
        return relation_space(self.pattern, _plane_sites(sites), self._memo)

    def event_measure(self, event: CylinderConstraint) -> MeasureValue:
        _plane_sites(event.sites)  # a Z site is refused before it is shifted
        return self.intersection_measure(((0, 0),), (event,))

    def intersection_measure(self, shifts: Sequence[Site],
                             events: Sequence[CylinderConstraint]) -> MeasureValue:
        bits = self._merged(shifts, events)
        if bits is None:
            return _CONTRADICTION
        return _measure_from_relations(self._relations_of(bits), bits.values())

    def joining_member(self, shifts: Sequence[Site], cells: Sequence[CylinderConstraint]
                       ) -> tuple[np.ndarray, int]:
        """Every entry of the joining member of `cells` at `shifts` at once
        (`_member`), from the relations of the member's shifted sites."""
        return _member(shifts, cells, self._relations_of)

    def relation_certificate(self, shifts: Sequence[Site],
                             events: Sequence[CylinderConstraint]) -> dict:
        """Explicit GF(2) relations among the merged constellation sites."""
        bits = self._merged(shifts, events)
        if bits is None:
            return {"sites": [], "relations": [], "contradiction": True}
        return {
            "sites": [list(s) for s in bits],
            "relations": [[v >> k & 1 for k in range(len(bits))]
                          for v in self._relations_of(bits)],
        }


def _z_sites(event: CylinderConstraint) -> tuple[int, ...]:
    for s in event.sites:
        if not isinstance(s, int):
            raise TypeError(f"Bernoulli events live on Z sites, got {s!r}")
    return event.sites


def _z_shift(shift) -> int:
    if not isinstance(shift, int):
        raise TypeError(f"Bernoulli shifts are integers, got {shift!r}")
    return shift


class BernoulliOracle:
    """Exact oracle for the full 2-shift; supports negative shifts."""

    def event_measure(self, event: CylinderConstraint) -> MeasureValue:
        return bernoulli_cylinder_measure(zip(event.sites, event.bits))

    def intersection_measure(self, shifts: Sequence[int],
                             events: Sequence[CylinderConstraint]) -> MeasureValue:
        pairs = []
        for ev, sh in zip(events, shifts):
            sh = _z_shift(sh)
            pairs.extend((s + sh, b) for s, b in zip(_z_sites(ev), ev.bits))
        return bernoulli_cylinder_measure(pairs)

    def joining_member(self, shifts: Sequence[int], cells: Sequence[CylinderConstraint]
                       ) -> tuple[np.ndarray, int]:
        """Every entry of the joining member of `cells` at `shifts` at once
        (`_member`): the full shift has no relations."""
        for sh in shifts:
            _z_shift(sh)
        for ev in cells:
            _z_sites(ev)
        return _member(shifts, cells, lambda sites: [])

    def correlation_grid(self, events: Sequence[CylinderConstraint],
                         pairs: np.ndarray) -> np.ndarray:
        """Measures of the intersections of events[0], events[1] shifted by
        z and events[2] shifted by w, for an (N, 2) array of (z, w) pairs;
        each float equals `intersection_measure((0, z, w), events)`.

        The shifted sites of two events can meet only where their shifts
        differ (by z, w or w - z) by a difference of their sites.  So a pair
        whose |z|, |w| and |w - z| all exceed the largest difference between
        the sites of two events is far: no shifted sites meet, and every far
        pair has one measure.  `_sorted_grid` runs on the near pairs and on
        one far pair, whose value every far pair takes.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        sites = [_z_sites(ev) for ev in events if ev.sites]
        reach = max((max(a) - min(b) for a, b in itertools.permutations(sites, 2)), default=-1)
        z, w = pairs[:, 0], pairs[:, 1]
        near = (np.abs(z) <= reach) | (np.abs(w) <= reach) | (np.abs(w - z) <= reach)
        rows = np.flatnonzero(near)
        slot = np.full(len(pairs), rows.size)  # every far pair reads the one far value
        slot[rows] = np.arange(rows.size)
        return _sorted_grid(events, pairs[np.append(rows, np.flatnonzero(~near)[:1])])[slot]


def _sorted_grid(events: Sequence[CylinderConstraint], pairs: np.ndarray) -> np.ndarray:
    """`BernoulliOracle.correlation_grid` of an (N, 2) int64 array of pairs,
    each pair's keys sorted.

    A requirement (site s, bit v) of an event shifted by t is the key
    2 (s + t) + v.  Sorted per pair, keys of one site sit side by side: a
    site with two different keys must take both bits (measure 0); otherwise
    the measure is 2^(-number of distinct sites).  Sites are renumbered
    first, in order, with every gap wider than the span of the shifts cut
    to span + 1: shifted sites coincide exactly as before, and sites of any
    size give keys that fit in int64.
    """
    shifts = (np.zeros(len(pairs), dtype=np.int64), pairs[:, 0], pairs[:, 1])
    span = int(pairs.max(initial=0)) - int(pairs.min(initial=0))
    rank: dict[int, int] = {}
    pos, last = 0, None
    for s in sorted({s for ev in events for s in _z_sites(ev)}):
        if last is not None:
            pos += min(s - last, span + 1)
        rank[s], last = pos, s
    keys = [2 * (rank[s] + t) + v
            for ev, t in zip(events, shifts) for s, v in zip(ev.sites, ev.bits)]
    if not keys:
        return np.ones(len(pairs))
    keys = np.sort(np.stack(keys, axis=1), axis=1)
    new_site = (keys[:, 1:] >> 1) != (keys[:, :-1] >> 1)
    clash = (~new_site & (keys[:, 1:] != keys[:, :-1])).any(axis=1)
    distinct = 1 + np.count_nonzero(new_site, axis=1)
    return np.where(clash, 0.0, np.ldexp(1.0, -distinct))


# ---------------------------------------------------------------------------
# Grid export

def grid_to_json(grid: np.ndarray) -> dict:
    """Rows as strings of "0"/"1", cut from one character array."""
    h, w = grid.shape
    text = np.where(grid != 0, ord("1"), ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return {"width": int(w), "height": int(h), "rows": [text[j * w:(j + 1) * w] for j in range(h)]}


def grid_to_pbm(grid: np.ndarray) -> str:
    """Plain PBM; configuration bit 0 renders dark (PBM 1 = black).  The
    pixel rows are one character array: pixels at even columns, spaces
    between them and a newline in the last column."""
    h, w = grid.shape
    chars = np.full((h, max(2 * w, 1)), ord(" "), dtype=np.uint8)
    chars[:, 0:2 * w:2] = np.where(grid != 0, ord("0"), ord("1"))
    chars[:, -1] = ord("\n")
    return f"P1\n# bit 0 = dark, bit 1 = light\n{w} {h}\n" + chars.tobytes().decode("ascii")

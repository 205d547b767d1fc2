"""k-fold correlation scans and deviation-from-mixing statistics.

A correlation oracle returns the measure of an intersection of translated
events.  A mixing scan samples shift families and compares exact (rational)
intersection measures against the product of the single-event measures; it
refuses estimates.  A deviation scan reads the measures as floats and
collects the statistics dev(h) = |Der| / h over the admissible grid
Q = {(z, w) in [0,h]^2 : |z|, |w|, |z-w| > eps*h}.  It runs on arrays: Q
is a boolean mask, the oracle's `correlation_grid` returns the correlation
of every pair of Q in one call, and `DevScan` keeps the pairs, correlations
and defects as aligned arrays that the CSV and heatmap exports read.

Scans provide evidence and exact witnesses only; no scan proves a mixing
property.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Protocol, Sequence

import numpy as np

from .algebraic import Site
from .measure import MeasureValue, format_fraction
from .rng import substream
from .text import classes, join_rows
from . import svg as svgmod


class CorrelationOracle(Protocol):
    """What scans and limits ask of an oracle.  `event_measure` and
    `intersection_measure` give one measure each, which a mixing scan takes
    only when exact (a deviation scan reads `correlation_grid` instead, as
    floats).  `joining_member` gives every entry of a joining member at
    once, for `limit_joining`: entry (i_1, ..., i_k) is the measure of the
    intersection of cells[i_j] shifted by shifts[j], returned exactly as
    (num, den): num the Python-int numerators, flat in index order, over the
    common denominator den."""

    def event_measure(self, event) -> MeasureValue: ...

    def intersection_measure(self, shifts: Sequence[Site], events: Sequence) -> MeasureValue: ...

    def joining_member(self, shifts: Sequence[Site],
                       cells: Sequence) -> tuple[np.ndarray, int]: ...


class OracleCapabilityError(RuntimeError):
    """The oracle cannot evaluate the requested constellation."""


@dataclass(frozen=True)
class Constellation:
    """Shift tuple plus one event per shift; first shift conventionally zero.

    A single event (degenerate correlation of order 0) is allowed so the
    intersection measure reduces to the event's own measure.
    """

    shifts: tuple[Site, ...]
    events: tuple

    def __post_init__(self):
        if len(self.shifts) != len(self.events):
            raise ValueError("shifts and events must have equal length")
        if not self.shifts:
            raise ValueError("constellation needs at least one event")

    def to_json(self) -> dict:
        return {
            "shifts": [list(s) if isinstance(s, tuple) else s for s in self.shifts],
            "events": [e.to_json() if hasattr(e, "to_json") else e for e in self.events],
        }


def kfold_correlation(oracle: CorrelationOracle, c: Constellation) -> MeasureValue:
    """Measure of the intersection of the translated events."""
    try:
        return oracle.intersection_measure(c.shifts, c.events)
    except (TypeError, ValueError) as exc:
        raise OracleCapabilityError(f"oracle cannot evaluate constellation: {exc}") from exc


def _exact(value: MeasureValue) -> Fraction:
    """The exact measure of `value`; an estimate is refused."""
    if value.exact is None:
        raise OracleCapabilityError("mixing scans take exact measures, not estimates")
    return value.exact


@dataclass
class ScanRow:
    constellation: Constellation
    correlation: Fraction
    defect: Fraction
    certificate: Optional[dict] = None


@dataclass
class MixDefect:
    """Result of a mixing-defect scan at one correlation order."""

    order: int
    scanned: int
    product: Fraction
    max_abs_defect: Fraction
    argmax: Optional[Constellation]
    certificate: Optional[dict] = None
    rows: list[ScanRow] = field(default_factory=list)


# A tuple costs at most one elimination of its k+1 shifted events, and none
# when they peel empty, as random tuples of one-site events do.  An exact
# oracle keeps only nonempty relations, and the scan its rows: 10,000
# order-2 tuples in a box of 4096 take 0.5 s and peak 12 MB above the
# interpreter with mixlab loaded (7.3 MB by tracemalloc; 2-vCPU Xeon VM).
MAX_SCAN_ORDER = 16
MAX_SCAN_BUDGET = 10_000


def mix_defect_scan(oracle: CorrelationOracle, events: Sequence,
                    shift_tuples: Iterable[Sequence[Site]], budget: int) -> MixDefect:
    """Scan shift tuples, tracking max |correlation - product of measures|.

    The k+1 `events` fix the order k; each tuple from the generator gives their
    shifts.  Every measure must be exact: an estimate is refused with
    `OracleCapabilityError`.  Every nonzero defect is accompanied by the
    oracle's relation certificate when it can produce one.  The intersection
    measure is also checked against the smallest single-event measure, which
    every scan must satisfy.  Each distinct event is measured once.
    """
    k = len(events) - 1
    if not 1 <= k <= MAX_SCAN_ORDER:
        raise ValueError(f"order k must lie in 1..{MAX_SCAN_ORDER}")
    if not 1 <= budget <= MAX_SCAN_BUDGET:
        raise ValueError(f"budget must lie in 1..{MAX_SCAN_BUDGET}")
    measured = {e: _exact(oracle.event_measure(e)) for e in dict.fromkeys(events)}
    singles = [measured[e] for e in events]
    prod = math.prod(singles, start=Fraction(1))
    min_single = min(singles)
    best = Fraction(0)
    argmax = None
    cert = None
    rows: list[ScanRow] = []
    scanned = 0
    for shifts in shift_tuples:
        if scanned >= budget:
            break
        scanned += 1
        c = Constellation(tuple(shifts), tuple(events))
        corr = _exact(kfold_correlation(oracle, c))
        if corr > min_single:
            raise AssertionError(
                f"intersection measure {corr} exceeds smallest event measure {min_single}"
            )
        d = abs(corr - prod)
        row = ScanRow(c, corr, d)
        if d != 0 and hasattr(oracle, "relation_certificate"):
            row.certificate = oracle.relation_certificate(c.shifts, c.events)
        rows.append(row)
        if d > best:
            best = d
            argmax = c
            cert = row.certificate
    return MixDefect(order=k, scanned=scanned, product=prod, max_abs_defect=best,
                     argmax=argmax, certificate=cert, rows=rows)


# ---------------------------------------------------------------------------
# Shift families

# At scale n the 5-point constellation spans 2^(n+1) + 1 columns and as many
# rows, and under the default pattern (depth 2, u^n of degree at most 3n)
# each of its 2 free rows holds 2^(n+1) + 3 * 2^(n+1) + 1 cells: 2^(n+4) + 2
# generator cells in all.  Past this scale that is more than
# algebraic.MAX_GENERATORS = 2^26 cells: no member could be measured, so its
# 2^n-bit shifts are never built.  The cap reads the extents of the
# constellation as given, not those of its normal form (the stencil itself
# at every scale, whose masks are the only ones built), so the bound stays.
MAX_DYADIC_SCALE = 21
# No row power outlives a call.  A tuple takes 0.07-0.08 ms at this box at
# order 4 and 0.24-0.31 ms at order 16 with one-site events, which peel
# empty, and 0.72-0.74 ms and 2.8-2.9 ms with the 5-point stencil as every
# event, whose masks hold u^n of up to 4 KB (CPU time, 2-vCPU Xeon VM).
MAX_SCAN_BOX = 4096


def ledrappier_dyadic_shifts(n: int) -> tuple[tuple[int, int], ...]:
    """The 5-point constellation at dyadic scale 2^n."""
    s = 1 << n
    return ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))


def dyadic_family(scales: range) -> Iterator[tuple[tuple[int, int], ...]]:
    """The 5-point constellations at an ascending range of scales, checked
    against 0..`MAX_DYADIC_SCALE` before any is built."""
    if scales and not 0 <= scales[0] <= scales[-1] <= MAX_DYADIC_SCALE:
        raise ValueError(f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}")
    return map(ledrappier_dyadic_shifts, scales)


def random_separated_shifts(seed: int, count: int, k: int, min_gap: int,
                            box: int, dim: int = 2) -> Iterator[tuple[Site, ...]]:
    """Random shift tuples in the box [-box, box]^dim, with pairwise
    Chebyshev separation >= min_gap.

    On Z^2 at least one pairwise difference coordinate is odd, so the tuple
    admits no dyadic rescaling.  The origin is one of the points, so every
    difference is even exactly when every coordinate is; such a draw has
    its last point moved one step along the first axis, the only move that
    can leave the box, before the box and the separation are checked, and
    a draw that fails either is drawn again.  Raises `ValueError` before
    the first draw when `box` lies outside 0..`MAX_SCAN_BOX` or `min_gap`
    exceeds it (no shift in the box is that far from the origin), or when
    1000 draws per tuple find no tuple.
    """
    if not 0 <= box <= MAX_SCAN_BOX:
        raise ValueError(f"box radius must lie in 0..{MAX_SCAN_BOX}")
    if k >= 1 and min_gap > box:
        raise ValueError(f"min gap {min_gap} exceeds the box radius {box}: "
                         "no shift in the box is that far from the origin")
    gen = substream(seed, "separated", k, min_gap, box, dim)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError("cannot satisfy separation constraints in the box")
        # One draw per attempt: the stream of k * dim scalar draws, in order.
        pts = [(0,) * dim] + list(map(tuple, gen.integers(-box, box + 1, size=(k, dim)).tolist()))
        if dim == 2 and not any(x % 2 for p in pts for x in p):
            pts[-1] = (pts[-1][0] + 1, pts[-1][1])
        if pts[-1][0] > box or any(max(abs(x - y) for x, y in zip(p, q)) < min_gap
                                   for p, q in itertools.combinations(pts, 2)):
            continue
        yield tuple(pts) if dim == 2 else tuple(p for (p,) in pts)
        produced += 1


# ---------------------------------------------------------------------------
# Deviation statistics

@dataclass
class DevScan:
    """Outcome of a deviation scan over the admissible (z, w) grid.

    `pairs` is the (q_size, 2) int array of admissible (z, w) in row-major
    order; `correlation` and `defect` are float arrays aligned with it, and
    `product` is the product of the three event measures.
    """

    epsilon: float
    h: int
    q_size: int
    der_pairs: list[tuple[int, int]]
    dev: Fraction
    dev_h2: Fraction
    pairs: np.ndarray
    correlation: np.ndarray
    product: float
    defect: np.ndarray

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "h": self.h,
            "q_size": self.q_size,
            "der_pairs": [list(p) for p in self.der_pairs],
            "dev": format_fraction(self.dev),
            "dev_value": float(self.dev),
            "dev_h2": format_fraction(self.dev_h2),
        }


def admissible_mask(epsilon: float, h: int) -> np.ndarray:
    """Boolean (h+1, h+1) array indexed [z, w]: True where |z|, |w| and
    |z-w| all exceed eps*h."""
    z, w = np.indices((h + 1, h + 1))
    cut = epsilon * h
    return (z > cut) & (w > cut) & (np.abs(z - w) > cut)


# (h+1)^2 grid cells: past this h the grid, dev.csv and heatmap pass tens of MB.
# One `scan dev --system rankone --h 1024 --epsilon 0.1` on a 10^6-symbol
# stage-1 word takes 0.8 s (Chacon) to 1.3-1.5 s (staircase) in `main` and
# peaks at 201 MB on a 2-vCPU Xeon VM, writing a 36-39 MB dev.csv and a 47 MB
# heatmap.  The heatmap sets the peak: it holds its text twice, as blocks and
# as their join, where the scan alone peaks at 82 MB.
MAX_DEV_H = 1024


def dev_scan(oracle: CorrelationOracle, a, b, c, epsilon: float, h: int) -> DevScan:
    """Count (z, w) pairs whose triple correlation strays from the product.

    dev = |Der| / h as printed in the defining formula; the h^2-normalized
    variant is reported alongside since the intended normalization is
    ambiguous.  Membership is decided purely by the oracle's point values,
    which its `correlation_grid(events, pairs)` returns for the whole
    admissible grid at once; each distinct event is measured once.
    """
    if not 0 < epsilon < Fraction(1, 3):
        raise ValueError("epsilon must lie in (0, 1/3)")
    if not 1 <= h <= MAX_DEV_H:
        raise ValueError(f"h must lie in 1..{MAX_DEV_H}")
    pairs = np.argwhere(admissible_mask(epsilon, h))
    singles = {e: oracle.event_measure(e) for e in dict.fromkeys((a, b, c))}
    prod_f = math.prod(singles[e].as_float() for e in (a, b, c))
    try:
        values = np.asarray(oracle.correlation_grid((a, b, c), pairs), dtype=float)
    except TypeError as exc:
        raise OracleCapabilityError(f"oracle cannot evaluate constellation: {exc}") from exc
    defects = np.abs(values - prod_f)
    der = list(map(tuple, pairs[defects > epsilon].tolist()))
    return DevScan(epsilon=epsilon, h=h, q_size=len(pairs), der_pairs=der,
                   dev=Fraction(len(der), h), dev_h2=Fraction(len(der), h * h),
                   pairs=pairs, correlation=values, product=prod_f, defect=defects)


# ---------------------------------------------------------------------------
# Exports

def scan_rows_to_csv(scan: DevScan) -> str:
    """One CSV line per admissible pair: z, w, correlation, product and
    defect, the floats as %.12g (the bytes csv.writer writes for them).

    The defect is |correlation - product|, so the line tail is formatted
    once per distinct correlation (distinct by bit pattern, so -0.0 and 0.0
    stay apart), and each label once per value of z or w; the lines are
    joined with the header a block of rows at a time (`text.join_rows`).
    """
    prod = f"{scan.product:.12g}"
    corr = np.ascontiguousarray(scan.correlation, dtype=np.float64)
    which, member = classes(corr.view(np.uint64))
    tails = np.array([f"{c:.12g},{prod},{d:.12g}\n" for c, d in zip(
        corr[member].tolist(), scan.defect[member].tolist())], dtype=object)
    labels = np.array([f"{i}," for i in range(scan.h + 1)], dtype=object)
    return join_rows("z,w,correlation,product,defect\n",
                     [(labels, scan.pairs[:, 0]), (labels, scan.pairs[:, 1]),
                      (tails, which)], "")


def mix_rows_to_csv(result: MixDefect) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["shifts", "correlation", "product", "defect", "has_certificate"])
    prod = format_fraction(result.product)
    for row in result.rows:
        writer.writerow([json.dumps(row.constellation.shifts), format_fraction(row.correlation),
                         prod, format_fraction(row.defect),
                         int(bool(row.certificate and row.certificate.get("relations")))])
    return buf.getvalue()


def dev_heatmap_svg(scan: DevScan) -> str:
    """SVG heatmap of the (z, w) defect field: row w, column z, NaN (blank) off Q."""
    size = scan.h + 1
    field = np.full((size, size), np.nan)
    field[scan.pairs[:, 1], scan.pairs[:, 0]] = scan.defect
    return svgmod.heatmap_svg(field, x_label="z", y_label="w",
                              title=f"defect field, eps={scan.epsilon}, h={scan.h}")

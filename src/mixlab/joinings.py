"""Finite-partition joining tensors and the Markov intertwining calculus.

A joining tensor of order n records the limiting intersection measures of n
translated partition cells: a nonnegative tensor summing to 1 whose one-axis
marginals are the cell masses.  The associated Markov operator P pairs as
<A0, P(A1 x ... x Ak)> = nu(A0 x A1 x ... x Ak) on cell indicators, in the
mass-weighted inner product.

From an operator of source order k a new one of source order 2k-1 is defined
by <P'(A1...A_{2k-1}), A_{2k}> = <P(A1...Ak), P(A_{k+1}...A_{2k})>; iterating
pairs order-2 operators up to order 5 and yields the quantitative chain of
mean-zero norms that forces trivial pairwise-independent self-joinings when
the top operator vanishes.  Order-raising builds an order-6 tensor from a
source-3 operator; order-lowering contracts an order-(p+2) tensor with
product (p+1)-marginals down to order 4.

Every operation works on one scaled view, `scaled`: a pair (num, den) with
entry == num / den, num of shape (d,)*order for a tensor and d x d**k for an
operator.  Values are exact: num holds Python ints over their least common
denominator den, so sums and products are integer arithmetic with no gcd
per step, and marginals are compared with product masses by
cross-multiplying.  The checks of a tensor (validation and classification)
run on an int64 copy of its numerators whenever den * wden**order < 2**63,
wden the common denominator of the cell masses: nonnegative entries summing
to den bound every marginal by den and every mass product by wden**m, so no
compared value overflows.  Past that bound they run on the Python ints.
`lower_order` contracts in int64 under its own bound, computed before the
product.  Results pass (num, den) on as Python ints, reduced by one gcd;
tensor JSON (fraction strings, and `"exact": true` or no such key) is read
and written from it, and the public `entries` and `matrix` tuples of
Fractions are built on first read.

Function spaces here are finite-dimensional cell-indicator spaces; only
tensor-level properties (marginals, independence classes) are claimed for
infinite systems.

Note: "mean-zero subspace" always refers to functions orthogonal to the
constants, never to a configuration group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .correlations import CorrelationOracle, OracleCapabilityError
from .measure import format_fraction, parse_fraction

# (num, den): values num / den, num an array of Python ints.
Scaled = tuple[np.ndarray, int]

# Consecutive equal members after which a correlation family has stabilized.
STABLE_MEMBERS = 3
# Additive slack in the chain inequalities, for the float singular values.
CHAIN_DELTA = 1e-9
# A member's d^order entries are decided together, per plan, from one
# elimination of its shifted sites: three 2-cell order-16 members (65,536
# entries each) take 0.12-0.13 s on a 2-vCPU Xeon VM, where one intersection
# measure per entry took 3.1 s.  Two site classes give 2^order plans: three
# members of {a: 0}, {a: 1, b: 0}, {a: 1, b: 1} take 0.03-0.05 s at order 8,
# 0.16-0.26 s at order 10 and 1.1-1.2 s at order 12 (3^12 entries each).
MAX_JOINING_ORDER = 16
# A member's or a tensor file's d^order entries are refused past this cap,
# before any grid is built or any entry parsed.  Classification walks levels
# of C(order, m) d^m marginals, (d + 1)^order entries in all, so at the cap
# the costliest case is 2 cells at order 16: a member of class M(1, 16) takes
# 0.06 s to measure, and `joining --tensor` on it 1.2 s and 180 MB peak, on
# a 2-vCPU Xeon VM.  The cap admits 2 cells at every order up to
# MAX_JOINING_ORDER.
MAX_JOINING_ENTRIES = 1 << 16


class JoiningError(ValueError):
    """Tensor violates a joining invariant."""


def _check_entries(d: int, order: int) -> None:
    """Refuse d >= 2 cells at `order` >= 1 when d**order passes
    `MAX_JOINING_ENTRIES`; past the cap's bit length no order fits, so the
    power is never taken there."""
    if d >= 2 and order >= 1 and (order >= MAX_JOINING_ENTRIES.bit_length()
                                  or d ** order > MAX_JOINING_ENTRIES):
        raise ValueError(f"a joining of {d} cells at order {order} has {d}^{order} "
                         f"entries, more than the cap {MAX_JOINING_ENTRIES}")


class NonStabilizingError(RuntimeError):
    """Correlation family did not stabilize; carries the observed trace."""

    def __init__(self, message: str, trace: list):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class Partition:
    """Finite measurable partition: positive cell masses summing to 1."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("partition needs at least two cells")
        if any(w <= 0 for w in self.weights):
            raise ValueError("cell masses must be positive")
        if sum(self.weights) != 1:
            raise ValueError("cell masses must sum to exactly 1")

    @property
    def cells(self) -> int:
        return len(self.weights)


def uniform_partition(d: int) -> Partition:
    return Partition(tuple(Fraction(1, d) for _ in range(d)))


def _scaled(values: Sequence) -> Scaled:
    """Rational `values` as (num, den), flat: integer numerators over their
    least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return np.array([p * (den // q) for p, q in ratios], dtype=object), den


def _parsed(texts: Sequence[str]) -> Scaled:
    """Entry strings as (num, den), flat; each distinct string is parsed
    and scaled once, in first-seen order."""
    distinct = dict.fromkeys(texts)
    num, den = _scaled([parse_fraction(s) for s in distinct])
    scaled = dict(zip(distinct, num.tolist()))
    return np.array([scaled[s] for s in texts], dtype=object), den


def _reduced(num: np.ndarray, den: int) -> Scaled:
    """(num, den) over the least common denominator of its values."""
    g = math.gcd(den, *num.ravel().tolist())
    return (num // g, den // g) if g > 1 else (num, den)


def _format(num: np.ndarray, den: int) -> list[str]:
    """format_fraction(Fraction(x, den)) for every x of num, flat; each
    distinct numerator is written once."""
    flat = num.ravel().tolist()
    texts = {}
    for x in set(flat):
        g = math.gcd(x, den)
        texts[x] = str(x // g) if g == den else f"{x // g}/{den // g}"
    return [texts[x] for x in flat]


def _brief(x: Fraction) -> str:
    """format_fraction(x) when its terms take 192 bits together (at most 59
    digits), else their bit lengths, so that a refusal stays short (str() of
    an int past 4,300 digits raises)."""
    n, d = abs(x.numerator).bit_length(), x.denominator.bit_length()
    return format_fraction(x) if n + d <= 192 else f"a {n}-bit/{d}-bit fraction"


def _values(num: np.ndarray, den: int) -> list[Fraction]:
    return [Fraction(x, den) for x in num.ravel().tolist()]


def _inverse_masses(x: Union["JoiningTensor", "LinearOperator"]) -> Scaled:
    """(inv, den) with 1 / w_i == inv[i] / den, over the lcm of the mass
    numerators."""
    w, wden = _scaled(x.weights)
    lcm = math.lcm(*w.tolist())
    return np.array([wden * (lcm // wi) for wi in w.tolist()], dtype=object), lcm


def _fixed_width(num: np.ndarray, bound: int) -> np.ndarray:
    """An int64 copy of the integer array `num` when `bound`, a bound on
    the magnitude of every value the caller computes from it, is below
    2**63; `num` itself otherwise."""
    return num.astype(np.int64) if bound < 1 << 63 else num


def _mass_grid(masses: np.ndarray, order: int) -> np.ndarray:
    """Products masses[i1] * ... * masses[i_order] as a (d,)*order array."""
    grid = masses
    for _ in range(order - 1):
        grid = np.multiply.outer(grid, masses)
    return grid


def _same(x: "JoiningTensor", y: "JoiningTensor") -> bool:
    """Equal entries."""
    (a, da), (b, db) = x.scaled, y.scaled
    return not (a * db != b * da).any()


class JoiningTensor:
    """Order-n tensor over partition cells; entries >= 0, total mass 1,
    every one-axis marginal equal to the `dims` = len(weights) cell masses.
    Built from flat `entries` or `scaled` (num, den) of any shape; validated once."""

    def __init__(self, order: int, weights: tuple[Fraction, ...],
                 entries: Sequence[Fraction] = (), *, scaled: Optional[Scaled] = None):
        if scaled is None:
            self.entries = tuple(entries)
            scaled = _scaled(self.entries)
        else:
            scaled = _reduced(*scaled)
        self.order, self.dims, self.weights = order, len(weights), weights
        self.scaled = scaled
        self.__post_init__()

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The values, flat in index order."""
        return tuple(_values(*self.scaled))

    @cached_property
    def classification(self) -> "Classification":
        return _classify(self)

    @cached_property
    def _checked(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(num, masses, wden) as the marginal checks compare them: int64
        copies when den * M**order < 2**63, M the largest of wden and the
        mass numerators (wden itself for masses in [0, 1]), Python ints
        otherwise.  Read only once the entries are known to be nonnegative
        and to sum to den: then every marginal is at most den and every mass
        product at most M**m, so under the bound no marginal, product or
        cross-multiple of them overflows."""
        (num, den), (w, wden) = self.scaled, _scaled(self.weights)
        bound = den * max(wden, *map(abs, w.tolist())) ** self.order
        return _fixed_width(num, bound), _fixed_width(w, bound), wden

    def __post_init__(self):
        """Check the joining invariants and shape `scaled` as (dims,)*order.

        The sign and the total are checked on the Python ints.  The one-axis
        marginals are then stacked and compared with the cell masses in one
        comparison, on `_checked`'s int64 copy when it fits; a failure names
        the first axis, and the first cell on it, whose marginal differs."""
        if self.order < 1:
            raise JoiningError("tensor order must be at least 1")
        if self.dims < 2:
            raise JoiningError("a tensor needs at least two cells")
        num, den = self.scaled
        n = num.size
        # dims >= 2, so past n's bit length no order fits: refused before the power.
        if self.order > n.bit_length() or n != self.dims ** self.order:
            raise JoiningError("entry count does not match dims**order")
        a = num.reshape((self.dims,) * self.order)
        self.scaled = a, den
        flat = a.ravel().tolist()
        low, total = min(flat), sum(flat)
        if low < 0:
            raise JoiningError("tensor entries must be nonnegative")
        if total != den:
            raise JoiningError(f"tensor mass is {_brief(Fraction(total, den))}, not 1")
        c, w, wden = self._checked
        margs = np.empty((self.order, self.dims), dtype=c.dtype)
        for axis in range(self.order):
            margs[axis] = c.sum(axis=tuple(x for x in range(self.order) if x != axis))
        bad = margs * wden != w * den
        if bad.any():
            axis, cell = np.argwhere(bad)[0].tolist()
            got = Fraction(margs[axis].tolist()[cell], den)
            raise JoiningError(f"axis {axis} marginal {_brief(got)}"
                               f" != weight {_brief(self.weights[cell])}")

    def to_json(self) -> dict:
        num, den = self.scaled
        return {
            "order": self.order,
            "dims": self.dims,
            "weights": [format_fraction(w) for w in self.weights],
            "entries": _format(num, den),
            "exact": True,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JoiningTensor":
        if not isinstance(obj, dict) or not {"order", "dims", "weights", "entries"} <= obj.keys():
            raise JoiningError("tensor JSON needs 'order', 'dims', 'weights' and 'entries'")
        order, dims = obj["order"], obj["dims"]
        if type(order) is not int or type(dims) is not int:
            raise JoiningError("tensor 'order' and 'dims' must be integers")
        if obj.get("exact", True) is not True:
            raise JoiningError("tensor 'exact' must be true: entries are exact fractions")
        _check_entries(dims, order)
        weights = tuple(parse_fraction(str(w)) for w in obj["weights"])
        if len(weights) != dims:
            raise JoiningError("need one cell mass per cell")
        return cls(order, weights, scaled=_parsed([str(e) for e in obj["entries"]]))


def parity_tensor(order: int) -> JoiningTensor:
    """Uniform measure on even-parity bit strings: the classical nontrivial
    self-joining whose every (order-1)-marginal is product."""
    if order < 2:
        raise ValueError("parity tensor needs order >= 2")
    mass = Fraction(1, 1 << (order - 1))
    entries = tuple(mass if sum(idx) % 2 == 0 else Fraction(0)
                    for idx in itertools.product((0, 1), repeat=order))
    return JoiningTensor(order, (Fraction(1, 2), Fraction(1, 2)), entries)


def marginal(t: JoiningTensor, axes: Sequence[int]) -> Union[JoiningTensor, list[Fraction]]:
    """Sum out the complementary axes; order = len(axes), axes kept in the
    order given.

    A single kept axis returns the cell masses as a plain list.
    """
    axes = list(axes)
    if not axes or len(axes) >= t.order:
        raise ValueError("axes must be a nonempty proper subset")
    if len(set(axes)) != len(axes) or any(not 0 <= a < t.order for a in axes):
        raise ValueError("axes must be distinct and in range")
    a, den = t.scaled
    # The sum keeps `axes` in ascending order; put them in the order given.
    ranks = sorted(axes)
    kept = a.sum(axis=tuple(x for x in range(t.order) if x not in axes)) \
        .transpose([ranks.index(x) for x in axes])
    if len(axes) == 1:
        return _values(kept, den)
    return JoiningTensor(len(axes), t.weights, scaled=(kept, den))


@dataclass(frozen=True)
class Classification:
    order: int
    is_product: bool
    max_product_marginal_order: int

    @property
    def label(self) -> str:
        if self.is_product:
            return "product"
        return f"M({self.max_product_marginal_order},{self.order})"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "is_product": self.is_product,
            "max_product_marginal_order": self.max_product_marginal_order,
            "class": self.label,
        }


def classify(t: JoiningTensor) -> Classification:
    """is_product plus the largest m with every m-marginal product; computed
    once per tensor."""
    return t.classification


def _classify(t: JoiningTensor) -> Classification:
    """The class of a validated tensor, level by level from the top.

    Each level's marginals are stacked and compared with the mass grid in
    one comparison, on the tensor's `_checked` numerators: an int64 copy
    when den * wden**order < 2**63, Python ints otherwise."""
    Partition(t.weights)  # product masses need a genuine partition
    n = t.order
    c, w, wden = t._checked
    den = t.scaled[1]

    def product(margs: np.ndarray, m: int) -> bool:
        # marg / den == grid / wden**m, cross-multiplied; margs holds the
        # level's marginals along a leading axis, or is the tensor itself
        return not (margs * wden ** m != _mass_grid(w, m) * den).any()

    if product(c, n):
        return Classification(n, is_product=True, max_product_marginal_order=n)
    # Marginals of a product are product, so the answer is the first level,
    # from the top, whose marginals are all product.  Each m-marginal sums
    # one axis of an (m+1)-marginal of the level above.
    level = {tuple(range(n)): c}
    for m in range(n - 1, 1, -1):
        below = {}
        margs = np.empty((math.comb(n, m),) + (t.dims,) * m, dtype=c.dtype)
        for i, axes in enumerate(itertools.combinations(range(n), m)):
            extra = next(x for x in range(n) if x not in axes)
            parent = tuple(sorted(axes + (extra,)))
            margs[i] = level[parent].sum(axis=parent.index(extra))
            below[axes] = margs[i]
        level = below
        if product(margs, m):
            return Classification(n, is_product=False, max_product_marginal_order=m)
    return Classification(n, is_product=False, max_product_marginal_order=1)


# ---------------------------------------------------------------------------
# Markov operators

class LinearOperator:
    """Linear map from cell functions of `source_order` tensor arguments to
    cell functions; no positivity or normalization is assumed.  Built from
    the `matrix` rows or from `scaled` (num, den) of shape d x d**k."""

    def __init__(self, source_order: int, weights: tuple[Fraction, ...],
                 matrix: Sequence[Sequence[Fraction]] = (), *,
                 scaled: Optional[Scaled] = None):
        if scaled is None:
            self.matrix = tuple(tuple(row) for row in matrix)
            width = len(weights) ** source_order
            if len(self.matrix) != len(weights) or any(len(r) != width for r in self.matrix):
                raise ValueError("operator needs one row per cell, dims**source_order wide")
            num, den = _scaled([x for row in self.matrix for x in row])
            scaled = num.reshape(len(weights), width), den
        else:
            scaled = _reduced(*scaled)
        self.source_order, self.weights = source_order, weights
        self.scaled = scaled
        self.__post_init__()

    @property
    def dims(self) -> int:
        return len(self.weights)

    @cached_property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """d rows of d**source_order values."""
        num, den = self.scaled
        return tuple(tuple(_values(row, den)) for row in num)

    def __post_init__(self):
        """Nothing to check for a general linear operator."""


class MarkovOperator(LinearOperator):
    """Linear operator that is nonnegative and constants-preserving."""

    def __post_init__(self):
        a, den = self.scaled
        if (a < 0).any():
            raise ValueError("operator entries must be nonnegative")
        if (a.sum(axis=1) != den).any():
            raise ValueError("operator must preserve constants")


def markov_from_joining(t: JoiningTensor) -> MarkovOperator:
    """Operator pairing as the tensor: <A0, P(A1 x ... x Ak)> = nu(A0,...,Ak)."""
    if t.order < 2:
        raise ValueError("need a tensor of order at least 2")
    if any(w == 0 for w in t.weights):
        raise ValueError("degenerate cell masses")
    a, den = t.scaled
    inv, inv_den = _inverse_masses(t)
    rows = a.reshape(t.dims, -1) * inv[:, None]
    return MarkovOperator(t.order - 1, t.weights, scaled=(rows, den * inv_den))


def _pairing(p: LinearOperator) -> Scaled:
    """<P(e_a), P(e_b)> for every pair of source cell tuples a, b:
    a d**k x d**k array over one denominator."""
    m, den = p.scaled
    w, wden = _scaled(p.weights)
    return (w[:, None] * m).T @ m, wden * den * den


def pair_compose(p: LinearOperator) -> LinearOperator:
    """Operator of source order 2k-1 defined by pairing two copies of p:
    <P'(A_1 ... A_{2k-1}), A_{2k}> = <P(A_1...A_k), P(A_{k+1}...A_{2k})>.
    It takes P2 to P3 and P3 to P5.

    The result need not be Markov: its rows sum to 1 only when the adjoint
    of p fixes the constants, as it does for an operator that comes from a
    joining.  Nothing is validated; the pairing identity is algebraic."""
    d, k = p.dims, p.source_order
    # Split the right-hand tuple into A_{k+1}...A_{2k-1} and the output cell
    # A_{2k}, which becomes the row.
    paired, den = _pairing(p)
    paired = paired.reshape(d ** k, d ** (k - 1), d)
    inv, inv_den = _inverse_masses(p)
    rows = np.moveaxis(paired, 2, 0).reshape(d, -1) * inv[:, None]
    return LinearOperator(2 * k - 1, p.weights, scaled=(rows, den * inv_den))


# ---------------------------------------------------------------------------
# Mean-zero geometry

def _mean_zero_onb(weights: Sequence[Fraction]) -> np.ndarray:
    """Columns: an orthonormal basis (weighted inner product) of the
    mean-zero subspace; shape d x (d-1)."""
    d = len(weights)
    w = np.array([float(x) for x in weights])
    cand = []
    for m in range(d - 1):
        v = np.zeros(d)
        v[m] = 1.0
        v -= w[m]  # subtract the integral: orthogonal to constants
        cand.append(v)
    basis = []
    for v in cand:
        for u in basis:
            v = v - np.dot(w * u, v) * u
        norm = float(np.sqrt(np.dot(w * v, v)))
        if norm > 1e-14:
            basis.append(v / norm)
    return np.stack(basis, axis=1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices by broadcasting: the same products."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def mean_zero_restricted_norm(p: LinearOperator, u: Optional[np.ndarray] = None) -> float:
    """Operator norm of p restricted to the mean-zero tensor subspace.

    `u` holds an orthonormal basis of that subspace as columns: the
    (source_order)-fold Kronecker power of `_mean_zero_onb(p.weights)`, which
    is built here when not given."""
    if u is None:
        u = u1 = _mean_zero_onb(p.weights)
        for _ in range(p.source_order - 1):
            u = _kron(u, u1)
    w_out = np.sqrt(np.array([float(x) for x in p.weights]))
    num, den = p.scaled
    m = (w_out[:, None] * (num / den).astype(float)) @ u
    return float(np.linalg.svd(m, compute_uv=False)[0])


@dataclass(frozen=True)
class ChainReport:
    """Mean-zero norms of the operator ladder and the quantitative chain."""

    dims: int
    norm_p2: float
    norm_p3: float
    norm_p5: float
    constant_p2: float
    constant_p3: float

    def to_json(self) -> dict:
        return {
            "dims": self.dims,
            "norms": {"p2": self.norm_p2, "p3": self.norm_p3, "p5": self.norm_p5},
            "constants": {"p2_step": self.constant_p2, "p3_step": self.constant_p3},
            "inequalities": {
                "p2_sq_le_c_p3": self.holds_p2(),
                "p3_sq_le_c_p5": self.holds_p3(),
            },
            "delta": CHAIN_DELTA,
        }

    def holds_p2(self) -> bool:
        return self.norm_p2 ** 2 <= self.constant_p2 * self.norm_p3 + CHAIN_DELTA

    def holds_p3(self) -> bool:
        return self.norm_p3 ** 2 <= self.constant_p3 * self.norm_p5 + CHAIN_DELTA


def chain_check(p2: LinearOperator, p3: LinearOperator) -> ChainReport:
    """Norms of P5, P3, P2 on mean-zero tensor subspaces and the chain
    ||P3|H3||^2 <= c3 ||P5|H5|| and ||P2|H2||^2 <= c2 ||P3|H3||.

    `p3` is `pair_compose(p2)`, composed once by the caller, which may also
    raise it; P5 is `pair_compose(p3)`.  The one-cell mean-zero basis is
    built once, and its Kronecker powers 2, 3 and 5 serve the three norms.

    The constants come from expanding the extremal tensor in the simple
    orthonormal basis of the mean-zero subspace and applying the defining
    pairings term by term: c_k = (d-1)^k for the step ending at order k+...
    in particular a vanishing P5 on mean-zero forces P2 = 0 on mean-zero.
    """
    if p2.source_order != 2 or p3.source_order != 3:
        raise ValueError("chain check starts from source-order-2 and -3 operators")
    d = p2.dims
    p5 = pair_compose(p3)
    u1 = _mean_zero_onb(p2.weights)
    u2 = _kron(u1, u1)
    u3 = _kron(u2, u1)
    n2 = mean_zero_restricted_norm(p2, u2)
    n3 = mean_zero_restricted_norm(p3, u3)
    n5 = mean_zero_restricted_norm(p5, _kron(_kron(u3, u1), u1))
    return ChainReport(dims=d, norm_p2=n2, norm_p3=n3, norm_p5=n5,
                       constant_p2=float((d - 1) ** 2),
                       constant_p3=float((d - 1) ** 3))


# ---------------------------------------------------------------------------
# Order raising and lowering

def tensor_report(t: JoiningTensor) -> dict:
    cls = classify(t)
    return {
        "order": t.order,
        "nonnegative": True,
        "normalized": True,
        "marginals_product_order": t.order - 1,
        # a product tensor has max_product_marginal_order == order
        "marginals_product": cls.max_product_marginal_order >= t.order - 1,
        "class": cls.label,
    }


def raise_order(p3: LinearOperator) -> tuple[JoiningTensor, dict]:
    """Order-6 tensor nu5(A1 x ... x A6) = <P3(A1 A2 A3), P3(A4 A5 A6)>.

    For a genuine pairwise-independent self-joining source the result is a
    joining with product 5-marginals, as reported; a source whose pairings
    are not a joining raises `JoiningError`.
    """
    if p3.source_order != 3:
        raise ValueError("raise_order needs a source-order-3 operator")
    paired, den = _pairing(p3)
    t = JoiningTensor(6, p3.weights, scaled=(paired, den))
    return t, tensor_report(t)


def lower_order(t: JoiningTensor) -> tuple[JoiningTensor, dict]:
    """Order-4 tensor nu2(A1 x A2 x A1' x A2') = <P(A1 A2), P(A1' A2')>
    where <P(A1 A2), B1 x ... x Bp> = nu(A1, A2, B1, ..., Bp).

    Valid for tensors of order p+2 whose (p+1)-marginals are product.
    """
    if t.order < 3:
        raise ValueError("lower_order needs a tensor of order at least 3")
    cls = classify(t)
    p = t.order - 2
    if not cls.is_product and cls.max_product_marginal_order < p + 1:
        raise JoiningError(
            f"tensor of class {cls.label} lacks product {p + 1}-marginals"
        )
    d = t.dims
    a, den = t.scaled
    inv, inv_den = _inverse_masses(t)
    # Each product of two entries and a grid value is at most den * den *
    # max(inv)**p, and so is each sum of them, since every row of entries
    # sums to at most den.
    bound = den * den * max(inv.tolist()) ** p
    flat = _fixed_width(a.reshape(d * d, d ** p), bound)
    grid = _fixed_width(_mass_grid(inv, p).ravel(), bound)
    paired = ((flat * grid) @ flat.T).astype(a.dtype, copy=False)
    out = JoiningTensor(4, t.weights, scaled=(paired, den * den * inv_den ** p))
    return out, tensor_report(out)


# ---------------------------------------------------------------------------
# Limits of correlation families

def limit_joining(oracle: CorrelationOracle, partition: Partition,
                  cell_events: Sequence, family: Iterable[Sequence]) -> JoiningTensor:
    """Tensor of limiting intersection measures over all cell combinations.

    The first member's length is the order.  Walks the family, asking the
    oracle once per member for all its entries (`joining_member`, as exact
    (num, den) with num flat); returns once `STABLE_MEMBERS` consecutive
    members are equal.
    An oracle's `TypeError` or `ValueError` becomes `OracleCapabilityError`,
    as in `kfold_correlation`.  Every member is validated as a joining,
    since the correlations of a partition at any fixed shifts form one; an
    oracle that yields anything else raises `JoiningError` at that member.
    `NonStabilizingError`, carrying the observed trace, is raised only when
    the family of genuine joinings is exhausted without stabilizing.  An
    order outside 2..`MAX_JOINING_ORDER`, a member of more than
    `MAX_JOINING_ENTRIES` entries, or a member of another length, is refused
    before it is measured.
    """
    if len(cell_events) != partition.cells:
        raise ValueError("one event per partition cell required")
    trace: list[JoiningTensor] = []
    run = 0
    for shifts in family:
        shifts = tuple(shifts)
        order = trace[0].order if trace else len(shifts)
        if not 2 <= order <= MAX_JOINING_ORDER:
            raise ValueError(f"joining order must lie in 2..{MAX_JOINING_ORDER}")
        _check_entries(partition.cells, order)
        if len(shifts) != order:
            raise ValueError(f"family member has {len(shifts)} shifts, need {order}")
        try:
            scaled = oracle.joining_member(shifts, tuple(cell_events))
        except (TypeError, ValueError) as exc:
            raise OracleCapabilityError(f"oracle cannot evaluate constellation: {exc}") from exc
        tensor = JoiningTensor(order, partition.weights, scaled=scaled)
        if trace and _same(trace[-1], tensor):
            run += 1
        else:
            run = 1
        trace.append(tensor)
        if run >= STABLE_MEMBERS:
            return tensor
    raise NonStabilizingError(
        f"correlation family did not stabilize ({run} consecutive matches, "
        f"needed {STABLE_MEMBERS})", trace)

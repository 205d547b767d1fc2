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

Function spaces here are finite-dimensional cell-indicator spaces; only
tensor-level properties (marginals, independence classes) are claimed for
infinite systems, while full diagonal invariance is asserted only on finite
permutation models where it is exactly checkable.

Note: "mean-zero subspace" always refers to functions orthogonal to the
constants, never to a configuration group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .correlations import Constellation, CorrelationOracle, kfold_correlation
from .measure import format_fraction, parse_fraction

Number = Union[Fraction, float]

DEFAULT_FLOAT_TOL = 1e-9


class JoiningError(ValueError):
    """Tensor violates a joining invariant."""


class JoiningDiagnosticError(RuntimeError):
    """A constructed tensor is not a joining (flags non-joining input)."""


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


def _indices(d: int, order: int):
    return itertools.product(range(d), repeat=order)


def _ravel(idx: Sequence[int], d: int) -> int:
    r = 0
    for i in idx:
        r = r * d + i
    return r


def _wprod(weights: Sequence[Fraction], idx: Sequence[int]) -> Fraction:
    p = Fraction(1)
    for i in idx:
        p *= weights[i]
    return p


@dataclass(frozen=True)
class JoiningTensor:
    """Order-n tensor over partition cells; entries >= 0, total mass 1,
    every one-axis marginal equal to the cell masses."""

    order: int
    dims: int
    weights: tuple[Fraction, ...]
    entries: tuple[Number, ...]
    exact: bool = True
    tol: float = DEFAULT_FLOAT_TOL

    def __post_init__(self):
        if self.order < 1:
            raise JoiningError("tensor order must be at least 1")
        if len(self.entries) != self.dims ** self.order:
            raise JoiningError("entry count does not match dims**order")
        zero = 0 if self.exact else -self.tol
        if any(e < zero for e in self.entries):
            raise JoiningError("tensor entries must be nonnegative")
        total = sum(self.entries)
        if self.exact:
            if total != 1:
                raise JoiningError(f"tensor mass is {total}, not 1")
        elif abs(total - 1.0) > self.tol * len(self.entries):
            raise JoiningError(f"tensor mass {total} deviates from 1")
        for axis in range(self.order):
            marg = self.axis_marginal(axis)
            for cell in range(self.dims):
                if self.exact:
                    if marg[cell] != self.weights[cell]:
                        raise JoiningError(
                            f"axis {axis} marginal {marg[cell]} != weight {self.weights[cell]}"
                        )
                elif abs(float(marg[cell]) - float(self.weights[cell])) > self.tol * len(self.entries):
                    raise JoiningError("estimated marginal deviates from the cell masses")

    def entry(self, idx: Sequence[int]) -> Number:
        return self.entries[_ravel(idx, self.dims)]

    def axis_marginal(self, axis: int) -> list[Number]:
        out = [Fraction(0) if self.exact else 0.0] * self.dims
        for idx in _indices(self.dims, self.order):
            out[idx[axis]] += self.entries[_ravel(idx, self.dims)]
        return out

    def to_json(self) -> dict:
        if self.exact:
            entries = [format_fraction(Fraction(e)) for e in self.entries]
        else:
            entries = [float(e) for e in self.entries]
        return {
            "order": self.order,
            "dims": self.dims,
            "weights": [format_fraction(w) for w in self.weights],
            "entries": entries,
            "exact": self.exact,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JoiningTensor":
        exact = bool(obj.get("exact", True))
        if exact:
            entries = tuple(parse_fraction(str(e)) for e in obj["entries"])
        else:
            entries = tuple(float(e) for e in obj["entries"])
        return cls(
            order=int(obj["order"]),
            dims=int(obj["dims"]),
            weights=tuple(parse_fraction(str(w)) for w in obj["weights"]),
            entries=entries,
            exact=exact,
        )


def product_tensor(partition: Partition, order: int) -> JoiningTensor:
    d = partition.cells
    entries = tuple(_wprod(partition.weights, idx) for idx in _indices(d, order))
    return JoiningTensor(order, d, partition.weights, entries)


def parity_tensor(order: int) -> JoiningTensor:
    """Uniform measure on even-parity bit strings: the classical nontrivial
    self-joining whose every (order-1)-marginal is product."""
    if order < 2:
        raise ValueError("parity tensor needs order >= 2")
    mass = Fraction(1, 1 << (order - 1))
    entries = tuple(mass if sum(idx) % 2 == 0 else Fraction(0)
                    for idx in _indices(2, order))
    return JoiningTensor(order, 2, (Fraction(1, 2), Fraction(1, 2)), entries)


def diagonal_tensor(partition: Partition, order: int) -> JoiningTensor:
    d = partition.cells
    entries = tuple(partition.weights[idx[0]] if len(set(idx)) == 1 else Fraction(0)
                    for idx in _indices(d, order))
    return JoiningTensor(order, d, partition.weights, entries)


def group_sum_tensor(d: int, q: Sequence[Fraction], order: int = 3) -> JoiningTensor:
    """nu(i1..ik) = q[(i1+...+ik) mod d] / d^(k-1): pairwise independent for
    uniform masses, nontrivial unless q is uniform."""
    if len(q) != d or sum(q) != 1 or any(x < 0 for x in q):
        raise ValueError("q must be a probability vector of length d")
    denom = d ** (order - 1)
    entries = tuple(Fraction(q[sum(idx) % d], denom) for idx in _indices(d, order))
    return JoiningTensor(order, d, uniform_partition(d).weights, entries)


def marginal(t: JoiningTensor, axes: Sequence[int]) -> Union[JoiningTensor, list[Number]]:
    """Sum out the complementary axes; order = len(axes).

    A single kept axis returns the cell masses as a plain list.
    """
    axes = list(axes)
    if not axes or len(axes) >= t.order:
        raise ValueError("axes must be a nonempty proper subset")
    if len(set(axes)) != len(axes) or any(not 0 <= a < t.order for a in axes):
        raise ValueError("axes must be distinct and in range")
    d = t.dims
    m = len(axes)
    zero = Fraction(0) if t.exact else 0.0
    out = [zero] * (d ** m)
    for idx in _indices(d, t.order):
        sub = tuple(idx[a] for a in axes)
        out[_ravel(sub, d)] += t.entries[_ravel(idx, d)]
    if m == 1:
        return out
    return JoiningTensor(m, d, t.weights, tuple(out), exact=t.exact, tol=t.tol)


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


def _tensors_close(a: JoiningTensor, b: JoiningTensor, tol: float) -> bool:
    if a.exact and b.exact:
        return a.entries == b.entries
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(a.entries, b.entries))


def classify(t: JoiningTensor) -> Classification:
    """is_product plus the largest m with every m-marginal product."""
    part = Partition(t.weights)
    prod_full = product_tensor(part, t.order)
    is_product = _tensors_close(t, prod_full, t.tol)
    max_m = 1
    for m in range(2, t.order):
        prod_m = product_tensor(part, m)
        ok = True
        for axes in itertools.combinations(range(t.order), m):
            sub = marginal(t, axes)
            if not _tensors_close(sub, prod_m, t.tol):
                ok = False
                break
        if ok:
            max_m = m
        else:
            break
    if is_product:
        max_m = t.order
    return Classification(order=t.order, is_product=is_product,
                          max_product_marginal_order=max_m)


# ---------------------------------------------------------------------------
# Markov operators

@dataclass(frozen=True)
class LinearOperator:
    """Linear map from cell functions of `source_order` tensor arguments to
    cell functions; no positivity or normalization is assumed."""

    source_order: int
    weights: tuple[Fraction, ...]
    matrix: tuple[tuple[Number, ...], ...]  # d rows, d**source_order columns
    exact: bool = True
    tol: float = DEFAULT_FLOAT_TOL

    @property
    def dims(self) -> int:
        return len(self.weights)

    def apply(self, tensor_function: Sequence[Number]) -> list[Number]:
        support = [(pos, f) for pos, f in enumerate(tensor_function) if f]
        zero = Fraction(0) if self.exact else 0.0
        out = []
        for row in self.matrix:
            acc = zero
            for pos, f in support:
                acc += row[pos] * f
            out.append(acc)
        return out

    def pair(self, out_function: Sequence[Number],
             tensor_function: Sequence[Number]) -> Number:
        """<out_function, P(tensor_function)> in the weighted inner product."""
        img = self.apply(tensor_function)
        return sum(w * g * y for w, g, y in zip(self.weights, out_function, img))

    def adjoint_of(self, g: Sequence[Number]) -> list[Number]:
        """P* g as a tensor function over d**source_order cells."""
        d = self.dims
        out = []
        for pos, idx in enumerate(_indices(d, self.source_order)):
            wj = _wprod(self.weights, idx)
            out.append(sum(self.weights[i] * self.matrix[i][pos] * g[i] for i in range(d)) / wj)
        return out

    def dense(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.matrix], dtype=float)


@dataclass(frozen=True)
class MarkovOperator(LinearOperator):
    """Linear operator that is nonnegative and constants-preserving."""

    def __post_init__(self):
        d = len(self.weights)
        if len(self.matrix) != d:
            raise ValueError("operator must have one row per cell")
        width = d ** self.source_order
        zero = 0 if self.exact else -self.tol
        for row in self.matrix:
            if len(row) != width:
                raise ValueError("row width must be dims**source_order")
            if any(x < zero for x in row):
                raise ValueError("operator entries must be nonnegative")
            total = sum(row)
            if self.exact:
                if total != 1:
                    raise ValueError("operator must preserve constants")
            elif abs(total - 1.0) > self.tol * width:
                raise ValueError("operator must preserve constants")


def markov_from_joining(t: JoiningTensor) -> MarkovOperator:
    """Operator pairing as the tensor: <A0, P(A1 x ... x Ak)> = nu(A0,...,Ak)."""
    if t.order < 2:
        raise ValueError("need a tensor of order at least 2")
    if any(w == 0 for w in t.weights):
        raise ValueError("degenerate cell masses")
    d = t.dims
    k = t.order - 1
    rows = []
    for i in range(d):
        row = []
        for idx in _indices(d, k):
            row.append(t.entry((i,) + idx) / t.weights[i])
        rows.append(tuple(row))
    return MarkovOperator(source_order=k, weights=t.weights, matrix=tuple(rows),
                          exact=t.exact, tol=t.tol)


def averaging_operator(partition: Partition, source_order: int) -> MarkovOperator:
    """P(f1 x ... x fk) = (integral f1)...(integral fk) * constant."""
    d = partition.cells
    rows = []
    for _ in range(d):
        rows.append(tuple(_wprod(partition.weights, idx)
                          for idx in _indices(d, source_order)))
    return MarkovOperator(source_order, partition.weights, tuple(rows))


def pair_compose(p: LinearOperator) -> LinearOperator:
    """Operator of source order 2k-1 defined by pairing two copies of p:
    <P'(A_1 ... A_{2k-1}), A_{2k}> = <P(A_1...A_k), P(A_{k+1}...A_{2k})>.
    It takes P2 to P3 and P3 to P5.

    The result need not be Markov: its rows sum to 1 only when the adjoint
    of p fixes the constants, as it does for an operator that comes from a
    joining.  Nothing is validated; the pairing identity is algebraic."""
    d = p.dims
    k = p.source_order
    w = p.weights
    out_order = 2 * k - 1
    columns = list(_indices(d, k))
    col_pos = {idx: pos for pos, idx in enumerate(columns)}
    rows = []
    for out_cell in range(d):
        row = []
        for idx in _indices(d, out_order):
            left = idx[:k]
            right = idx[k:] + (out_cell,)
            acc = sum(w[i] * p.matrix[i][col_pos[left]] * p.matrix[i][col_pos[right]]
                      for i in range(d))
            row.append(acc / w[out_cell])
        rows.append(tuple(row))
    return LinearOperator(out_order, w, tuple(rows), exact=p.exact, tol=p.tol)


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


def mean_zero_restricted_norm(p: LinearOperator) -> float:
    """Operator norm of p restricted to the mean-zero tensor subspace."""
    d = p.dims
    u1 = _mean_zero_onb(p.weights)
    u = u1
    for _ in range(p.source_order - 1):
        u = np.kron(u, u1)
    w_out = np.sqrt(np.array([float(x) for x in p.weights]))
    m = (w_out[:, None] * p.dense()) @ u
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def adjoint_maps_mean_zero(p: LinearOperator) -> bool:
    """Exact check that P* sends mean-zero functions into tensors all of
    whose one-axis partial integrals vanish."""
    d = p.dims
    k = p.source_order
    for m in range(d - 1):
        g = [Fraction(0)] * d
        g[m] = Fraction(1)
        mean = sum(p.weights[i] * g[i] for i in range(d))
        g = [x - mean for x in g]
        img = p.adjoint_of(g)
        for axis in range(k):
            for rest in _indices(d, k - 1):
                total = Fraction(0) if p.exact else 0.0
                for ja in range(d):
                    idx = rest[:axis] + (ja,) + rest[axis:]
                    total += p.weights[ja] * img[_ravel(idx, d)]
                if p.exact and total != 0:
                    return False
                if not p.exact and abs(float(total)) > p.tol * d ** k:
                    return False
    return True


@dataclass(frozen=True)
class ChainReport:
    """Mean-zero norms of the operator ladder and the quantitative chain."""

    dims: int
    norm_p2: float
    norm_p3: float
    norm_p5: float
    constant_p2: float
    constant_p3: float
    delta: float

    def to_json(self) -> dict:
        return {
            "dims": self.dims,
            "norms": {"p2": self.norm_p2, "p3": self.norm_p3, "p5": self.norm_p5},
            "constants": {"p2_step": self.constant_p2, "p3_step": self.constant_p3},
            "inequalities": {
                "p2_sq_le_c_p3": self.holds_p2(),
                "p3_sq_le_c_p5": self.holds_p3(),
            },
            "delta": self.delta,
        }

    def holds_p2(self) -> bool:
        return self.norm_p2 ** 2 <= self.constant_p2 * self.norm_p3 + self.delta

    def holds_p3(self) -> bool:
        return self.norm_p3 ** 2 <= self.constant_p3 * self.norm_p5 + self.delta


def chain_check(p2: LinearOperator, delta: float = 1e-9) -> ChainReport:
    """Norms of P5, P3, P2 on mean-zero tensor subspaces and the chain
    ||P3|H3||^2 <= c3 ||P5|H5|| and ||P2|H2||^2 <= c2 ||P3|H3||.

    The constants come from expanding the extremal tensor in the simple
    orthonormal basis of the mean-zero subspace and applying the defining
    pairings term by term: c_k = (d-1)^k for the step ending at order k+...
    in particular a vanishing P5 on mean-zero forces P2 = 0 on mean-zero.
    """
    if p2.source_order != 2:
        raise ValueError("chain check starts from a source-order-2 operator")
    d = p2.dims
    p3 = pair_compose(p2)
    p5 = pair_compose(p3)
    n2 = mean_zero_restricted_norm(p2)
    n3 = mean_zero_restricted_norm(p3)
    n5 = mean_zero_restricted_norm(p5)
    return ChainReport(dims=d, norm_p2=n2, norm_p3=n3, norm_p5=n5,
                       constant_p2=float((d - 1) ** 2),
                       constant_p3=float((d - 1) ** 3), delta=delta)


# ---------------------------------------------------------------------------
# Order raising and lowering

def tensor_report(t: JoiningTensor, product_marginal_order: int) -> dict:
    cls = classify(t)
    return {
        "order": t.order,
        "nonnegative": True,
        "normalized": True,
        "marginals_product_order": product_marginal_order,
        "marginals_product": cls.max_product_marginal_order >= product_marginal_order
        or cls.is_product,
        "class": cls.label,
    }


def _build_joining(order: int, d: int, weights, entries, exact: bool, tol: float,
                   what: str) -> JoiningTensor:
    zero = 0 if exact else -tol
    bad = [i for i, e in enumerate(entries) if e < zero]
    if bad:
        raise JoiningDiagnosticError(
            f"{what} produced negative entries at positions {bad[:5]}; "
            "the source operator does not come from a joining"
        )
    return JoiningTensor(order, d, weights, tuple(entries), exact=exact, tol=tol)


def raise_order(p3: LinearOperator) -> tuple[JoiningTensor, dict]:
    """Order-6 tensor nu5(A1 x ... x A6) = <P3(A1 A2 A3), P3(A4 A5 A6)>.

    For a genuine pairwise-independent self-joining source the result is
    nonnegative, normalized, and has product 5-marginals; all three are
    checked and reported.
    """
    if p3.source_order != 3:
        raise ValueError("raise_order needs a source-order-3 operator")
    d = p3.dims
    w = p3.weights
    columns = list(_indices(d, 3))
    col_pos = {idx: pos for pos, idx in enumerate(columns)}
    entries = []
    for idx in _indices(d, 6):
        left = idx[:3]
        right = idx[3:]
        entries.append(sum(w[i] * p3.matrix[i][col_pos[left]] * p3.matrix[i][col_pos[right]]
                           for i in range(d)))
    t = _build_joining(6, d, w, entries, p3.exact, p3.tol, "raise_order")
    return t, tensor_report(t, 5)


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
    entries = []
    for a1, a2, b1, b2 in _indices(d, 4):
        acc = Fraction(0) if t.exact else 0.0
        for rest in _indices(d, p):
            acc += t.entry((a1, a2) + rest) * t.entry((b1, b2) + rest) / _wprod(t.weights, rest)
        entries.append(acc)
    out = _build_joining(4, d, t.weights, entries, t.exact, t.tol, "lower_order")
    return out, tensor_report(out, 3)


# ---------------------------------------------------------------------------
# Finite permutation models

@dataclass(frozen=True)
class FinitePermutationSystem:
    """Permutation of a finite set carrying a labelled partition."""

    perm: tuple[int, ...]
    cell_of: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("not a permutation")
        if len(self.cell_of) != n:
            raise ValueError("cell labels must cover every point")

    @property
    def size(self) -> int:
        return len(self.perm)

    @property
    def cells(self) -> int:
        return max(self.cell_of) + 1

    def partition(self) -> Partition:
        counts = [0] * self.cells
        for c in self.cell_of:
            counts[c] += 1
        if any(c == 0 for c in counts):
            raise ValueError("every cell must be nonempty")
        return Partition(tuple(Fraction(c, self.size) for c in counts))

    def koopman_cell_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Permutation matrix of the induced cell map.

        The partition is refined enough when the map is well defined: every
        cell is carried into a single cell.  Only a cell that the permutation
        splits across two or more cells is rejected; the cell map need not
        determine the permutation itself."""
        image: dict[int, int] = {}
        for x in range(self.size):
            c = self.cell_of[x]
            c2 = self.cell_of[self.perm[x]]
            if image.setdefault(c, c2) != c2:
                raise ValueError(
                    "partition is not refined enough to express the permutation"
                )
        d = self.cells
        rows = []
        for out_cell in range(d):
            rows.append(tuple(Fraction(1) if image[c] == out_cell else Fraction(0)
                              for c in range(d)))
        return tuple(rows)


def intertwining_residual(system: FinitePermutationSystem, p2: LinearOperator) -> float:
    """||T P2 - P2 (T x T)|| in the mass-weighted operator norm; exactly 0
    for joinings invariant under the diagonal action."""
    if p2.source_order != 2:
        raise ValueError("intertwining check needs a source-order-2 operator")
    part = system.partition()
    if part.weights != p2.weights:
        raise ValueError("operator masses do not match the partition")
    tmat = system.koopman_cell_matrix()
    d = part.cells
    columns = list(_indices(d, 2))
    col_pos = {idx: pos for pos, idx in enumerate(columns)}
    # T P2
    left = [[sum(tmat[i][m] * p2.matrix[m][c] for m in range(d))
             for c in range(d * d)] for i in range(d)]
    # P2 (T x T)
    right = [[sum(p2.matrix[i][col_pos[(m1, m2)]] * tmat[m1][j1] * tmat[m2][j2]
                  for m1 in range(d) for m2 in range(d))
              for (j1, j2) in columns] for i in range(d)]
    residual = [[left[i][c] - right[i][c] for c in range(d * d)] for i in range(d)]
    if all(x == 0 for row in residual for x in row):
        return 0.0
    w_out = np.sqrt(np.array([float(x) for x in part.weights]))
    w_in = np.sqrt(np.array([float(_wprod(part.weights, idx)) for idx in columns]))
    dense = np.array([[float(x) for x in row] for row in residual])
    scaled = w_out[:, None] * dense / w_in[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Limits of correlation families

def limit_joining(oracle: CorrelationOracle, partition: Partition,
                  cell_events: Sequence, family: Iterable[Sequence],
                  order: int, stable: int = 3, tol: float = DEFAULT_FLOAT_TOL) -> JoiningTensor:
    """Tensor of limiting intersection measures over all cell combinations.

    Walks the shift family, recomputing the full tensor per member; returns
    once `stable` consecutive members agree (exactly for exact oracles,
    within `tol` otherwise).  Every member is validated as a joining, since
    the correlations of a partition at any fixed shifts form one; an oracle
    that yields anything else raises `JoiningError` at that member.
    `NonStabilizingError`, carrying the observed trace, is raised only when
    the family of genuine joinings is exhausted without stabilizing.
    """
    if len(cell_events) != partition.cells:
        raise ValueError("one event per partition cell required")
    if order < 2:
        raise ValueError("joining order must be at least 2")
    d = partition.cells
    trace: list[JoiningTensor] = []
    run = 0
    for shifts in family:
        shifts = tuple(shifts)
        if len(shifts) != order:
            raise ValueError(f"family member has {len(shifts)} shifts, need {order}")
        exact = True
        entries: list[Number] = []
        for idx in _indices(d, order):
            mv = kfold_correlation(
                oracle, Constellation(shifts, tuple(cell_events[i] for i in idx)))
            if mv.is_exact:
                entries.append(mv.exact)
            else:
                exact = False
                entries.append(mv.as_float())
        tensor = JoiningTensor(order, d, partition.weights, tuple(entries),
                               exact=exact, tol=tol)
        if trace and _tensors_close(trace[-1], tensor, tol):
            run += 1
        else:
            run = 1
        trace.append(tensor)
        if run >= stable:
            return tensor
    raise NonStabilizingError(
        f"correlation family did not stabilize ({run} consecutive matches, "
        f"needed {stable})", trace)

"""The torus size cap and a dense GF(2) elimination that the library itself
does not run.

The library keeps GF(2) vectors as plain ints (bit j = coordinate j) and
imports only `MAX_DIM` and `DimensionError` from here.  `BitMatrix` with
`_rref`, `rank`, `nullspace`, `solve_affine`, `mat_mul` and `mat_pow`, and
`BitVector`, the validated vector type of `nullspace` and `solve_affine`,
are the independent reference the tests check the row-transfer kernels
against (`mixbench/tracing.py` wraps them by name); the library's one
elimination is `algebraic._relations`.  Values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Cap on torus state bits (depth rows of a width given on the command line),
# checked by `torus_kernel` before any row is built, and on `BitMatrix` sides.
MAX_DIM = 1 << 16


class DimensionError(ValueError):
    """A requested matrix dimension exceeds MAX_DIM."""


def _check_dim(n: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    if n > MAX_DIM:
        raise DimensionError(f"{what} {n} exceeds the cap {MAX_DIM}")


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2); bits beyond `length` are zero."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits set beyond declared length")


@dataclass(frozen=True)
class BitMatrix:
    """Row-major packed GF(2) matrix; data[i] holds row i as a bit set."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.rows, "row count")
        _check_dim(self.cols, "column count")
        if len(self.data) != self.rows:
            raise ValueError("row data does not match declared row count")
        for r in self.data:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits set beyond declared column count")

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def is_square(self) -> bool:
        return self.rows == self.cols


def _rref(rows: list[int], cols: int) -> tuple[int, list[int]]:
    """In-place reduced row echelon form.

    Pivots on the first set bit per column, no column permutations; returns
    (rank, pivot_columns).  Deterministic for a given input.
    """
    pivots: list[int] = []
    r = 0
    n = len(rows)
    for j in range(cols):
        mask = 1 << j
        pivot = -1
        for i in range(r, n):
            if rows[i] & mask:
                pivot = i
                break
        if pivot < 0:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        for i in range(n):
            if i != r and rows[i] & mask:
                rows[i] ^= prow
        pivots.append(j)
        r += 1
        if r == n:
            break
    return r, pivots


def rank(m: BitMatrix) -> int:
    work = list(m.data)
    r, _ = _rref(work, m.cols)
    return r


def nullspace(m: BitMatrix) -> list[BitVector]:
    """Basis of {v : m @ v = 0}, one vector per free column, ascending."""
    work = list(m.data)
    r, pivots = _rref(work, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        bits = 1 << free
        for k, p in enumerate(pivots):
            if (work[k] >> free) & 1:
                bits |= 1 << p
        basis.append(BitVector(m.cols, bits))
    return basis


def solve_affine(m: BitMatrix, b: BitVector) -> Optional[tuple[BitVector, list[BitVector]]]:
    """Solve m @ x = b.

    Returns None iff the system is inconsistent, otherwise a particular
    solution together with a nullspace basis describing all solutions.
    """
    if b.length != m.rows:
        raise ValueError("right-hand side length must equal row count")
    aug_col = 1 << m.cols
    work = [m.data[i] | (aug_col if (b.bits >> i) & 1 else 0) for i in range(m.rows)]
    # Pivot search is restricted to the coefficient columns.
    _, pivots = _rref(work, m.cols)
    for row in work:
        if row == aug_col:
            return None
    xbits = 0
    for k, p in enumerate(pivots):
        if work[k] & aug_col:
            xbits |= 1 << p
    return BitVector(m.cols, xbits), nullspace(m)


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    bdata = b.data
    out = []
    for row in a.data:
        acc = 0
        while row:
            low = row & -row
            acc ^= bdata[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def mat_pow(m: BitMatrix, e: int) -> BitMatrix:
    """m**e by square-and-multiply; mat_pow(m, 0) is the identity."""
    if not m.is_square():
        raise ValueError("matrix power requires a square matrix")
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = BitMatrix.identity(m.rows)
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base_needed = e > 1
        e >>= 1
        if base_needed:
            base = mat_mul(base, base)
    return result

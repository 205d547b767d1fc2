"""GF(2) linear algebra: frozen examples plus randomized invariants."""

import random

import pytest
from conftest import bit_matrix, mat_vec, transpose

from mixlab import gf2
from mixlab.gf2 import BitMatrix, BitVector, DimensionError


def brute_force_rank(rows, cols):
    """Span size by enumerating all 2^len(rows) XOR combinations."""
    span = set()
    for combo in range(1 << len(rows)):
        acc = 0
        for i, r in enumerate(rows):
            if (combo >> i) & 1:
                acc ^= r
        span.add(acc)
    return len(span).bit_length() - 1


def test_rank_identity():
    assert gf2.rank(BitMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert gf2.rank(BitMatrix(3, 3, (0,) * 3)) == 0


def test_rank_dependent_rows_matches_enumeration():
    rows = [0b011, 0b110, 0b101]  # {110, 011, 101} msb-first in the docs
    m = bit_matrix(rows, 3)
    assert brute_force_rank(rows, 3) == 2
    assert gf2.rank(m) == 2


def test_nullspace_identity_empty():
    assert gf2.nullspace(BitMatrix.identity(4)) == []


def test_nullspace_zero_matrix_full():
    basis = gf2.nullspace(BitMatrix(2, 2, (0,) * 2))
    assert len(basis) == 2


def test_nullspace_matches_enumeration():
    # rows {110, 011} over 3 columns: kernel {111}
    m = bit_matrix([[1, 1, 0], [0, 1, 1]], 3)
    expected = {
        v for v in range(8)
        if all((bin(row & v).count("1") % 2) == 0 for row in m.data)
    } - {0}
    basis = gf2.nullspace(m)
    assert {b.bits for b in basis} == expected == {0b111}


def test_solve_affine_identity():
    sol = gf2.solve_affine(BitMatrix.identity(3), BitVector(3, 0b101))
    assert sol is not None
    x, basis = sol
    assert x == BitVector(3, 0b101) and basis == []


def test_solve_affine_underdetermined():
    # single equation x0 + x1 = 1 over 2 unknowns: solutions {10, 01}
    m = bit_matrix([[1, 1]], 2)
    sol = gf2.solve_affine(m, BitVector(1, 1))
    assert sol is not None
    x, basis = sol
    solutions = {x.bits ^ combo for combo in [0] + [b.bits for b in basis]}
    enumerated = {v for v in range(4) if bin(v & 0b11).count("1") % 2 == 1}
    assert solutions == enumerated


def test_solve_affine_inconsistent():
    m = bit_matrix([[1, 0], [1, 0]], 2)
    assert gf2.solve_affine(m, BitVector(2, 0b01)) is None


def test_mat_pow_zero_exponent_is_identity():
    m = bit_matrix([[0, 1], [1, 1]], 2)
    assert gf2.mat_pow(m, 0) == BitMatrix.identity(2)


def test_mat_pow_identity_huge_exponent():
    assert gf2.mat_pow(BitMatrix.identity(5), 10 ** 9) == BitMatrix.identity(5)


def test_mat_pow_matches_iterated_multiplication():
    m = bit_matrix([[0, 1], [1, 1]], 2)
    acc = BitMatrix.identity(2)
    for e in range(1, 9):
        acc = gf2.mat_mul(acc, m)
        assert gf2.mat_pow(m, e) == acc


def test_dimension_cap():
    with pytest.raises(DimensionError):
        BitMatrix(1, gf2.MAX_DIM + 1, (0,))


def _random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def test_rank_nullity_and_kernel_membership():
    rng = random.Random(101)
    for _ in range(30):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = _random_matrix(rng, rows, cols)
        basis = gf2.nullspace(m)
        assert gf2.rank(m) + len(basis) == cols
        for v in basis:
            assert mat_vec(m, v).bits == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(202)
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        assert gf2.rank(m) == gf2.rank(transpose(m))


def test_mat_pow_additivity():
    rng = random.Random(303)
    for _ in range(15):
        n = rng.randint(1, 6)
        m = _random_matrix(rng, n, n)
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        assert gf2.mat_pow(m, a + b) == gf2.mat_mul(gf2.mat_pow(m, a), gf2.mat_pow(m, b))


def test_rank_invariant_under_row_operations():
    rng = random.Random(404)
    for _ in range(20):
        rows, cols = rng.randint(2, 10), rng.randint(1, 10)
        m = _random_matrix(rng, rows, cols)
        r = gf2.rank(m)
        shuffled = list(m.data)
        rng.shuffle(shuffled)
        i, j = rng.randrange(rows), rng.randrange(rows)
        if i != j:
            shuffled[i] ^= shuffled[j]
        assert gf2.rank(BitMatrix(rows, cols, tuple(shuffled))) == r


def test_solve_affine_random_consistency():
    rng = random.Random(505)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = _random_matrix(rng, rows, cols)
        x = BitVector(cols, rng.getrandbits(cols))
        b = mat_vec(m, x)
        sol = gf2.solve_affine(m, b)
        assert sol is not None
        particular, _ = sol
        assert mat_vec(m, particular) == b


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(2, 0b100)
    with pytest.raises(ValueError):
        BitVector(-1, 0)

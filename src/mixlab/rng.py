"""Deterministic seeded substreams.

Every random quantity in the package is derived from one explicit 64-bit
seed.  Independent pieces of work draw from substreams keyed by
(seed, labels...), so results are reproducible bit for bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

Part = Union[int, str, bytes]


def _to_bytes(x: Part) -> bytes:
    if isinstance(x, bytes):
        return x
    if isinstance(x, int):
        return (x & _MASK64).to_bytes(8, "little")
    return str(x).encode("utf-8")


def mix(seed: int, *parts: Part) -> int:
    """FNV-1a mix of a base seed with labels into a 64-bit substream key.

    Stable across processes and platforms, unlike the salted built-in hash.
    """
    h = _FNV_OFFSET
    for b in _to_bytes(seed):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    for p in parts:
        for b in _to_bytes(p):
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def substream(seed: int, *parts: Part) -> np.random.Generator:
    """A numpy Generator deterministically derived from seed and labels."""
    return np.random.Generator(np.random.PCG64(mix(seed, *parts)))


def random_bits(gen: np.random.Generator, n: int) -> int:
    """n random bits packed into an int, drawn from the generator."""
    nbytes = (n + 7) // 8
    raw = int.from_bytes(gen.bytes(nbytes), "little")
    return raw & ((1 << n) - 1)

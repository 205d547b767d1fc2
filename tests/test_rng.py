"""Seeded substreams: pinned keys, bit draws, reproducible draws and pinned
draw outputs."""

import numpy as np
import pytest

from mixlab.algebraic import _mc_draw
from mixlab.correlations import random_separated_shifts
from mixlab.rng import mix, random_bits, substream


@pytest.mark.parametrize("args,key", [
    ((0,), 0xA8C7F832281A39C5),
    ((0, "config"), 0x61BFBB5C4DF804C7),
    ((5, "mc", 0), 0x956ADCDFCAA66A5C),
    ((2 ** 64 - 1, "mc", 3), 0xA4D8784E5A60640A),
    ((-1, "sweep", 65, 2), 0x9B78B238813D72E8),
    ((12345, b"\x00\xff", "separated"), 0x3D2021117D0D5058),
])
def test_mix_is_pinned(args, key):
    # Every seeded artifact derives its draws from these keys: a change to
    # the derivation fails here before it moves every seeded digest.
    assert mix(*args) == key


def test_mix_reads_ints_modulo_2_to_64():
    assert mix(-1, "mc", 3) == mix(2 ** 64 - 1, "mc", 3)


def test_random_bits_range():
    gen = substream(7, "bits")
    assert random_bits(gen, 0) == 0
    for n in (1, 7, 8, 9, 64, 65, 1000):
        for _ in range(20):
            assert 0 <= random_bits(gen, n) < 1 << n


def test_equal_keys_give_equal_draws():
    a, b = substream(3, "mc", 4), substream(3, "mc", 4)
    assert np.array_equal(a.integers(0, 1 << 30, size=64), b.integers(0, 1 << 30, size=64))
    assert random_bits(a, 200) == random_bits(b, 200)
    assert not np.array_equal(substream(3, "mc", 4).integers(0, 1 << 30, size=64),
                              substream(3, "mc", 5).integers(0, 1 << 30, size=64))


# numpy promises PCG64's raw stream for a fixed seed, but not the methods of
# `Generator` built on it, and every seeded artifact rests on these three
# draws.  Recorded with numpy 2.4.6: if an upgrade moves one, the failing
# test names the draw that moved before the pool digests fail.
@pytest.mark.parametrize("seed,bits", [
    (0, 0x7F59E74F08AD72835553E2FF8),
    (7, 0x9598E073D502A06F22F26310E),
    (2 ** 64 - 1, 0x492B6B89F3E3C1CE06F84BE7D),
])
def test_config_bits_are_pinned(seed, bits):
    assert random_bits(substream(seed, "config"), 100) == bits


@pytest.mark.parametrize("seed,raw", [
    (0, "3978d5331e419d386c405f919fad850ab1532fe78175727f2ab41ccad0b873f3"),
    (7, "8d220fcad583bafde75aa0787d6ff0b617cbaded6faaa8be1870941e50ea6c9c"),
    (2 ** 64 - 1, "b77fc6a5c47a48d6d4ba6c888fcc8d665d0fccf90a8c62229b6de15ff0c37b7e"),
])
def test_mc_draw_is_pinned(seed, raw):
    draw = _mc_draw(substream(seed, "mc", 0), 4, 8)
    assert draw.shape == (4, 8) and draw.tobytes().hex() == raw


@pytest.mark.parametrize("seed,shifts", [
    (0, ((0, 0), (-24, -5), (77, 31), (-65, -8))),
    (7, ((0, 0), (-51, 7), (87, -19), (28, -85))),
    (2 ** 64 - 1, ((0, 0), (17, 28), (33, -45), (-25, -63))),
])
def test_separated_shifts_are_pinned(seed, shifts):
    assert next(random_separated_shifts(seed, 1, 3, 4, 100)) == shifts

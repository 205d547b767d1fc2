"""Cutting-and-stacking rank-one transformations realized as symbolic words.

A spec lists, per stage, the number of columns the tower is cut into and the
spacer counts placed on top of each column.  Reading the orbit of a point
through the stage-K tower yields a word over the stage-K level alphabet plus
a spacer symbol; correlations are estimated as Birkhoff frequencies along
that word.

Measures here are point estimates with their sample counts, never exact,
and carry no standard error; the spacer symbols carry measure, so reported
frequencies are relative to the full normalized space including spacers.

`WordOracle.correlation_grid` counts every (z, w) of a grid at once as a
float32 matrix product over the positions where the first event occurs.
Rank-one words repeat few windows (their complexity is low), so the
positions are grouped by their exact windows and each group enters the
product once, weighted by its size: O(n + (h/64) R log R + D (h+1)^2) for R
positions with D distinct windows per block, in place of R (h+1)^2.  Inside
each block the float32 sums stay integers below 2^24, so every count is
exact and every value is one correctly rounded division.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .measure import MeasureValue
from .text import classes, join_rows

SPACER = -1

# Rows of WordOracle.correlation_grid keyed and grouped at once.  A block's
# weighted counts are at most its row count, below 2^24, so its float32
# products stay exact.  Its keys take at most 32,768 x 2 x 17 uint64 (8.9 MB)
# at h = 1024.
_KEY_BLOCK = 1 << 15

# Distinct windows per float32 product: 2,048 x 1,025 float32 (8.4 MB) per
# event at h = 1024.
_GRAM_BLOCK = 2048

# Longest word `generate_word` builds: 256 MB of int32 symbols, and the
# expansion holds at most a few such blocks at once.
MAX_WORD_LENGTH = 1 << 26

# Most stages a preset builds.  The staircase preset holds about stages^2 / 2
# spacer counts and tower heights of about log10(stages!) digits: at 1000
# stages `rankone` takes 0.23 s and 56 MB on a 2-vCPU Xeon VM and writes a
# 3.6 MB rankone.json, and past about 1550 its heights pass CPython's
# 4300-digit int-to-str limit.
MAX_STAGES = 1000


@dataclass(frozen=True)
class RankOneSpec:
    """Cut counts and spacer arrays, one row per stage.

    Tower heights follow h_{n+1} = r_n h_n + sum_i s_{n,i} with h_0 = 1.
    """

    cuts: tuple[int, ...]
    spacers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.cuts) != len(self.spacers):
            raise ValueError("one spacer row per stage required")
        for r, row in zip(self.cuts, self.spacers):
            if r < 2:
                raise ValueError("each stage must cut into at least 2 columns")
            if len(row) != r:
                raise ValueError("spacer row length must equal the cut count")
            if any(s < 0 for s in row):
                raise ValueError("spacer counts must be nonnegative")

    @property
    def stages(self) -> int:
        return len(self.cuts)

    def to_json(self) -> dict:
        return {"cuts": list(self.cuts), "spacers": [list(r) for r in self.spacers]}

    @classmethod
    def from_json(cls, obj: dict) -> "RankOneSpec":
        cuts = tuple(obj["cuts"])
        spacers = tuple(tuple(row) for row in obj["spacers"])
        if not all(type(v) is int for row in (cuts, *spacers) for v in row):
            raise ValueError("cuts and spacers must be JSON integers")
        return cls(cuts, spacers)


def staircase_spec(stages: int) -> RankOneSpec:
    """The standard mixing staircase: r_n = n + 2, spacers 0, 1, ..., r_n - 1."""
    cuts = tuple(n + 2 for n in range(stages))
    spacers = tuple(tuple(range(r)) for r in cuts)
    return RankOneSpec(cuts, spacers)


def chacon_spec(stages: int) -> RankOneSpec:
    """Three columns, one spacer over the middle column."""
    return RankOneSpec((3,) * stages, ((0, 1, 0),) * stages)


def doubling_spec(stages: int) -> RankOneSpec:
    return RankOneSpec((2,) * stages, ((0, 0),) * stages)


def single_spacer_spec(stages: int) -> RankOneSpec:
    """Two columns with one spacer on the second: heights 2 h + 1."""
    return RankOneSpec((2,) * stages, ((0, 1),) * stages)


PRESETS = {
    "staircase": staircase_spec,
    "chacon": chacon_spec,
    "doubling": doubling_spec,
    "single_spacer": single_spacer_spec,
}


def preset_spec(name: str, stages: int) -> RankOneSpec:
    """The named preset with `stages` stages; the count is checked against
    `MAX_STAGES` before any stage is built."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    if not 0 <= stages <= MAX_STAGES:
        raise ValueError(f"stages must lie in 0..{MAX_STAGES}")
    return PRESETS[name](stages)


def tower_heights(spec: RankOneSpec) -> list[int]:
    """h_0 = 1 and h_{n+1} = r_n h_n + sum of the stage-n spacers."""
    heights = [1]
    for r, row in zip(spec.cuts, spec.spacers):
        heights.append(r * heights[-1] + sum(row))
    return heights


@dataclass(frozen=True)
class SymbolicWord:
    """Prefix of the tower reading over stage-K level symbols (spacer = -1)."""

    stage: int
    height: int
    symbols: np.ndarray

    @property
    def length(self) -> int:
        return int(self.symbols.shape[0])

    def to_rle_json(self) -> str:
        """word.json: the bytes of ``json.dumps`` of {"height", "length",
        "runs", "stage"} with sorted keys plus a newline, where `runs` holds
        [symbol, length] per maximal run.  Each distinct run is formatted
        once (grouped by `text.classes`), with its ", " separator, and the runs
        are joined with the rest a block at a time (`text.join_rows`)."""
        sym = self.symbols
        starts = np.flatnonzero(sym[1:] != sym[:-1]) + 1
        if sym.size:
            starts = np.concatenate(([0], starts))
        lengths = np.diff(np.append(starts, sym.size))
        # Run lengths lie in 1..length, so a key names one (symbol, length).
        which, rep = classes(sym[starts].astype(np.int64) * (sym.size + 1) + lengths)
        texts = np.array([f", [{s}, {n}]" for s, n in zip(
            sym[starts[rep]].tolist(), lengths[rep].tolist())], dtype=object)
        head = f'{{"height": {self.height}, "length": {self.length}, "runs": ['
        if which.size:
            head += texts[which[0]][2:]
        return join_rows(head, [(texts, which[1:])], f'], "stage": {self.stage}}}\n')


def generate_word(spec: RankOneSpec, stage: int, max_length: int) -> SymbolicWord:
    """Deterministic concatenation expansion of the stage-`stage` block.

    Expands through later stages until the block covers `max_length`
    symbols, then truncates; a stage's expansion stops as soon as its first
    `max_length` symbols are built.  Rejects lengths above
    `MAX_WORD_LENGTH` before any allocation, lengths below the stage height
    and lengths the spec's stages cannot reach.
    """
    if max_length > MAX_WORD_LENGTH:
        raise ValueError(f"word length {max_length} exceeds the cap {MAX_WORD_LENGTH}")
    heights = tower_heights(spec)
    if not 0 <= stage <= spec.stages:
        raise ValueError(f"stage must be within 0..{spec.stages}")
    h_k = heights[stage]
    if max_length < h_k:
        raise ValueError(f"max_length {max_length} is below the stage height {h_k}")
    block = np.arange(h_k, dtype=np.int32)
    for n in range(stage, spec.stages):
        if block.shape[0] >= max_length:
            break
        parts, size = [], 0
        for s in spec.spacers[n]:
            if size >= max_length:
                break
            parts.append(block)
            size += block.shape[0]
            spacer = min(s, max_length)
            parts.append(np.full(spacer, SPACER, dtype=np.int32))
            size += spacer
        block = np.concatenate(parts)
    if block.shape[0] < max_length:
        raise ValueError(
            f"spec stages reach only {block.shape[0]} symbols; add stages for {max_length}"
        )
    return SymbolicWord(stage=stage, height=h_k, symbols=block[:max_length].copy())


def _indicator(word: SymbolicWord, levels: frozenset) -> np.ndarray:
    # "sort" compares element by element for small level sets, where the
    # default takes the table path over the whole symbol range.
    return np.isin(word.symbols, np.array(sorted(levels), dtype=np.int32), kind="sort")


def _packed(ind: np.ndarray, words: int) -> np.ndarray:
    """`ind` as little-endian uint64 words, bit i of the array being ind[i],
    zero-padded to `words` words."""
    out = np.zeros(8 * words, dtype=np.uint8)
    bits = np.packbits(ind, bitorder="little")
    out[:bits.size] = bits
    return out.view("<u8")


def _distinct_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One copy of each distinct row of `key` and how often it occurs
    (float32).  Rows are ranked column by column (`text.classes`; this beats
    np.lexsort over the key columns): the column ranks combine in mixed
    radix, re-ranked before the radix passes 2^62."""
    ids, radix = np.zeros(len(key), dtype=np.int64), 1
    for col in key.T:
        rank, members = classes(col)
        if radix * len(members) > 1 << 62:
            ids, seen = classes(ids)
            radix = len(seen)
        ids, radix = ids * len(members) + rank, radix * len(members)
    ids, rep = classes(ids)
    return key[rep], np.bincount(ids, minlength=len(rep)).astype(np.float32)


class WordOracle:
    """Correlation oracle over a symbolic word: Birkhoff frequencies along
    it, as point values with their sample counts and no standard error.
    Events are frozensets of level symbols.
    """

    def __init__(self, word: SymbolicWord):
        self.word = word

    def event_measure(self, event: frozenset) -> MeasureValue:
        n = self.word.length
        count = int(np.count_nonzero(_indicator(self.word, event)))
        return MeasureValue(estimate=count / n, samples=n)

    def correlation_grid(self, events: Sequence[frozenset],
                         pairs: np.ndarray) -> np.ndarray:
        """Point estimates for an (N, 2) array of (z, w) pairs with
        0 <= z, w < n: the share of i < n - max(z, w) with a[i] b[i+z] c[i+w].

        The counts for every (z, w) in [0, h]^2 form the matrix B^T C, where
        B and C hold one row per position p with a[p] = 1: b[p..p+h] and
        c[p..p+h], zero past the end of the word (so terms with i + z or
        i + w >= n drop out).  Rank-one words repeat few windows, so each
        distinct row is multiplied once.  Over blocks of _KEY_BLOCK rows, a
        row's key is its b-window and its c-window, ceil((h+1)/64) uint64
        words each, cut from the packed indicators; `_distinct_rows` groups
        equal keys by sorting, and each distinct key's windows enter the
        float32 product once, weighted by its multiplicity.  Every partial
        sum is an integer of at most _KEY_BLOCK < 2^24, which float32 holds
        exactly in any summation order, and the blocks add up in int64.
        Each value is then one correctly rounded division, as count / m is
        in Python.  With R rows and D distinct keys in a block, the block
        costs O((h/64) R log R + D (h+1)^2) in place of R (h+1)^2.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.word.length
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("grid shifts must lie in [0, word length)")
        h = int(pairs.max()) if pairs.size else 0
        ind = {e: _indicator(self.word, e) for e in set(events)}
        cols = -(-(h + 1) // 64)
        sides = [_packed(ind[e], n // 64 + cols + 1) for e in dict.fromkeys(events[1:])]
        tail = np.uint64((1 << (h + 1 - 64 * (cols - 1))) - 1)
        rows = np.flatnonzero(ind[events[0]])
        counts = np.zeros((h + 1, h + 1), dtype=np.int64)
        for lo in range(0, rows.size, _KEY_BLOCK):
            block = rows[lo:lo + _KEY_BLOCK]
            q, r = block >> 6, (block & 63).astype(np.uint64)
            key = np.empty((block.size, len(sides) * cols), dtype="<u8")
            for k, bits in enumerate(sides):
                low = bits[q]
                for j in range(cols):
                    high = bits[q + j + 1]
                    # (high << 1) << (63 - r) is high << (64 - r), and 0 at r = 0.
                    key[:, k * cols + j] = (low >> r) | ((high << 1) << (63 - r))
                    low = high
            key[:, cols - 1::cols] &= tail  # bits past h would split equal windows
            key, mult = _distinct_rows(key)
            for g in range(0, len(key), _GRAM_BLOCK):
                # b's windows, then c's when c differs from b.
                wins = [np.unpackbits(key[g:g + _GRAM_BLOCK, k:k + cols].view(np.uint8), axis=1,
                                      count=h + 1, bitorder="little").astype(np.float32)
                        for k in range(0, key.shape[1], cols)]
                counts += ((wins[0].T * mult[g:g + _GRAM_BLOCK]) @ wins[-1]).astype(np.int64)
        z, w = pairs[:, 0], pairs[:, 1]
        return counts[z, w] / (n - np.maximum(z, w))

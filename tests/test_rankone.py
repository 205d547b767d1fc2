"""Rank-one words: tower heights, word generation, RLE output, correlation grid."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import (
    BLOCK_ROW_COUNTS,
    reference_correlation_grid,
    reference_rle_runs,
    reference_word_json,
    word_intersection_measure,
)

from mixlab import rankone
from mixlab.rankone import (
    MAX_WORD_LENGTH,
    PRESETS,
    SPACER,
    RankOneSpec,
    SymbolicWord,
    WordOracle,
    chacon_spec,
    generate_word,
    preset_spec,
    staircase_spec,
    tower_heights,
)


class TestTowerHeights:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_recurrence(self, name):
        spec = preset_spec(name, 6)
        heights = tower_heights(spec)
        assert heights[0] == 1 and len(heights) == spec.stages + 1
        for n, (r, row) in enumerate(zip(spec.cuts, spec.spacers)):
            assert heights[n + 1] == r * heights[n] + sum(row)

    @pytest.mark.parametrize("name,expected", [
        ("staircase", [1, 3, 12, 54]),
        ("chacon", [1, 4, 13, 40]),
        ("doubling", [1, 2, 4, 8]),
        ("single_spacer", [1, 3, 7, 15]),
    ])
    def test_known_values(self, name, expected):
        assert tower_heights(preset_spec(name, 3)) == expected


class TestGenerateWord:
    def test_rejects_bad_stage(self):
        spec = chacon_spec(3)
        for stage in (-1, spec.stages + 1):
            with pytest.raises(ValueError, match="stage"):
                generate_word(spec, stage, 100)

    def test_rejects_length_below_stage_height(self):
        with pytest.raises(ValueError, match="below the stage height"):
            generate_word(chacon_spec(3), 2, 12)  # stage-2 height is 13

    def test_rejects_unreachable_length(self):
        with pytest.raises(ValueError, match="reach only 40"):
            generate_word(chacon_spec(3), 0, 41)

    def test_rejects_length_past_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            generate_word(staircase_spec(12), 1, MAX_WORD_LENGTH + 1)

    def test_expansion_stops_at_the_requested_length(self):
        # Stage 2 ends in a spacer of 10^7 symbols (40 MB as int32); only
        # the first 10 symbols of the word are built.
        spec = RankOneSpec((2, 2), ((0, 0), (0, 10 ** 7)))
        tracemalloc.start()
        try:
            word = generate_word(spec, 1, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word.symbols.tolist() == [0, 1, 0, 1] + [SPACER] * 6
        assert peak < 1 << 20

    def test_word_is_block_concatenation(self):
        word = generate_word(chacon_spec(3), 1, 40)
        assert word.height == 4 and word.length == 40
        block = list(range(4))
        stage2 = block + block + [SPACER] + block
        assert word.symbols.tolist() == stage2 + stage2 + [SPACER] + stage2


def test_rle_runs_reexpand_to_symbols():
    word = generate_word(staircase_spec(5), 1, 500)
    rle = json.loads(word.to_rle_json())
    assert (rle["stage"], rle["height"], rle["length"]) == (1, 3, 500)
    expanded = [sym for sym, count in rle["runs"] for _ in range(count)]
    assert expanded == word.symbols.tolist()
    assert all(a[0] != b[0] for a, b in zip(rle["runs"], rle["runs"][1:]))


@pytest.mark.parametrize("name,stages", [("staircase", 10), ("chacon", 12),
                                         ("single_spacer", 17)])
def test_rle_matches_loop(name, stages):
    word = generate_word(preset_spec(name, stages), 1, 5000)
    assert json.loads(word.to_rle_json())["runs"] == reference_rle_runs(word.symbols)


@pytest.mark.parametrize("symbols", [[], [7], [2, 2, 2], [0, 1, 1, SPACER, SPACER, 0]])
def test_rle_edge_words(symbols):
    word = SymbolicWord(stage=0, height=1, symbols=np.array(symbols, dtype=np.int32))
    assert json.loads(word.to_rle_json())["runs"] == reference_rle_runs(word.symbols)


WORD_JSON_CASES = {
    "empty": SymbolicWord(stage=0, height=1, symbols=np.array([], dtype=np.int32)),
    "single symbol": SymbolicWord(stage=0, height=1, symbols=np.array([0], dtype=np.int32)),
    "all spacers": SymbolicWord(stage=2, height=5, symbols=np.full(37, SPACER, dtype=np.int32)),
    # [1, 1] and [0, 1001] would share a key if keys were symbol * 1000 + length
    "long runs": SymbolicWord(stage=1, height=3, symbols=np.repeat(
        np.array([0, SPACER, 2, 0, 1, SPACER, 1, 0], dtype=np.int32),
        [1, 10, 123, 9, 4567, 10, 1, 1001]).copy()),
    "extreme symbols": SymbolicWord(stage=7, height=10 ** 60, symbols=np.array(
        [2 ** 31 - 1, 2 ** 31 - 1, -2 ** 31, SPACER, 0], dtype=np.int32)),
}


@pytest.mark.parametrize("name", sorted(WORD_JSON_CASES))
def test_word_json_matches_json_dumps(name):
    word = WORD_JSON_CASES[name]
    # outside the assert: a failed == of long strings is diffed for minutes
    same = word.to_rle_json() == reference_word_json(word)
    assert same


@pytest.mark.parametrize("runs", BLOCK_ROW_COUNTS)
def test_word_json_matches_json_dumps_at_block_boundaries(small_blocks, runs):
    # Exactly `runs` maximal runs (neighbours differ), some of them equal.
    gen = np.random.default_rng(runs)
    symbols = np.repeat(np.arange(runs) % 3 - 1, gen.integers(1, 4, runs)).astype(np.int32)
    word = SymbolicWord(stage=1, height=3, symbols=symbols)
    assert len(reference_rle_runs(symbols)) == runs
    same = word.to_rle_json() == reference_word_json(word)
    assert same


@pytest.mark.parametrize("name,stages,stage,length", [
    ("staircase", 10, 1, 30000), ("chacon", 12, 2, 20000), ("single_spacer", 17, 3, 10000),
    ("doubling", 14, 1, 16384), ("staircase", 12, 3, 100000),
])
def test_preset_word_json_matches_json_dumps(name, stages, stage, length):
    word = generate_word(preset_spec(name, stages), stage, length)
    same = word.to_rle_json() == reference_word_json(word)
    assert same


def test_event_measure_is_a_point_value_without_stderr():
    word = generate_word(chacon_spec(8), 1, 5000)
    for event in (frozenset({0}), frozenset({1, SPACER}), frozenset({99})):
        mv = WordOracle(word).event_measure(event)
        count = int(np.isin(word.symbols, sorted(event)).sum())
        assert (mv.estimate, mv.stderr, mv.samples) == (count / 5000, None, 5000)


@pytest.mark.parametrize("levels", [set(), {0}, {SPACER}, {0, 2, 5}, {1, SPACER, 7, 99}])
def test_indicator_matches_isin(levels):
    word = generate_word(staircase_spec(10), 2, 20000)
    assert np.array_equal(rankone._indicator(word, frozenset(levels)),
                          np.isin(word.symbols, sorted(levels)))


GRID_EVENTS = {
    "same": (frozenset({0}),) * 3,
    "distinct": (frozenset({0}), frozenset({1, SPACER}), frozenset({SPACER, 2})),
    "absent": (frozenset({99}), frozenset({0}), frozenset({1})),  # no row: R = 0
    # Rows with equal b-windows can differ in their c-windows.
    "apart": (frozenset({0}), frozenset({1}), frozenset({SPACER})),
}

# Stage-0 words with one stage of 3,000 columns over random gaps of 0-3
# spacers: every window of a position of level 0 is distinct (D = R), and the
# 3,000 distinct windows need two float32 products of _GRAM_BLOCK rows.
_GAPS = tuple(np.random.default_rng(5).integers(0, 4, 3000).tolist())
NO_REPEAT = RankOneSpec((len(_GAPS),), (_GAPS,))


def _grid_word(name, stages, length):
    if name == "no_repeat":
        return generate_word(NO_REPEAT, 0, length)
    return generate_word(preset_spec(name, stages), 1, length)


def _windows(word, event, rows, h):
    """Rows of the (h + 1)-window of `event`'s indicator, zero past the end."""
    ind = np.concatenate([np.isin(word.symbols, sorted(event)), np.zeros(h, dtype=bool)])
    return np.lib.stride_tricks.sliding_window_view(ind, h + 1)[rows]


KEY_EDGES = [("single_spacer", 17, 5000, h) for h in (63, 64, 65, 127, 128)]
NO_REPEAT_CASE = ("no_repeat", 1, len(_GAPS) + sum(_GAPS), 64)


@pytest.mark.parametrize("events", sorted(GRID_EVENTS))
@pytest.mark.parametrize("name,stages,length,h", [
    ("staircase", 10, 12000, 120),
    ("chacon", 12, 6000, 80),
    ("single_spacer", 17, 4000, 100),
    ("chacon", 12, 130, 120),       # shifts reach the end of the word
    ("chacon", 12, 160000, 40),     # 35,556 rows: more than one _KEY_BLOCK
    *KEY_EDGES,                     # h + 1 around one and two 64-bit key words
    NO_REPEAT_CASE,
])
def test_correlation_grid_matches_sliding_counts(name, stages, length, h, events):
    word = _grid_word(name, stages, length)
    pairs = [(z, w) for z in range(h + 1) for w in range(h + 1)]
    grid = WordOracle(word).correlation_grid(GRID_EVENTS[events], np.array(pairs))
    assert grid.tolist() == reference_correlation_grid(word, GRID_EVENTS[events], pairs)


@pytest.mark.parametrize("events", ["same", "distinct", "apart"])
@pytest.mark.parametrize("name,stages,length,h", [*KEY_EDGES, NO_REPEAT_CASE])
def test_each_distinct_window_pair_is_multiplied_once(monkeypatch, name, stages, length, h,
                                                      events):
    """The product sees each distinct (b-window, c-window) once, weighted by
    how many rows share it."""
    seen = []
    group = rankone._distinct_rows
    monkeypatch.setattr(rankone, "_distinct_rows", lambda key: seen.append(group(key)) or seen[-1])
    word = _grid_word(name, stages, length)
    a, b, c = GRID_EVENTS[events]
    WordOracle(word).correlation_grid((a, b, c), np.array([[h, h]]))
    rows = np.flatnonzero(np.isin(word.symbols, sorted(a)))
    _, mult = np.unique(np.hstack([_windows(word, b, rows, h), _windows(word, c, rows, h)]),
                        axis=0, return_counts=True)
    assert len(seen) == 1
    assert sorted(seen[0][1].tolist()) == sorted(mult.tolist())
    if name == "no_repeat":
        assert len(mult) == len(rows) == len(_GAPS)


@pytest.mark.parametrize("seed", range(3))
def test_distinct_rows_of_wide_keys_match_unique(monkeypatch, seed):
    """Keys of many wide random columns push the mixed radix past 2^62, so
    the row ids are re-ranked; the rows and counts are still np.unique's."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 1 << 63, size=(2000, 9), dtype=np.uint64)
    rows[:, 0] %= 3  # a narrow column among the wide ones
    key = rows[rng.integers(0, len(rows), size=5000)]
    calls = []
    rank = rankone.classes
    monkeypatch.setattr(rankone, "classes", lambda v: calls.append(len(v)) or rank(v))
    got, counts = rankone._distinct_rows(key)
    assert len(calls) > key.shape[1] + 1  # one per column, one at the end, and re-ranks
    want, want_counts = np.unique(key, axis=0, return_counts=True)
    assert sorted(zip(map(tuple, got.tolist()), counts.tolist())) == \
        list(zip(map(tuple, want.tolist()), want_counts.tolist()))


def test_correlation_grid_rejects_shifts_past_the_word():
    oracle = WordOracle(generate_word(chacon_spec(3), 1, 40))
    with pytest.raises(ValueError, match="grid shifts"):
        oracle.correlation_grid((frozenset({0}),) * 3, np.array([[0, 40]]))


def test_correlation_grid_matches_intersection_measure():
    word = generate_word(staircase_spec(6), 1, 3000)
    oracle = WordOracle(word)
    events = [frozenset({0}), frozenset({1, SPACER}), frozenset({0, 2})]
    pairs = [(z, w) for z in range(6) for w in range(6)]
    grid = oracle.correlation_grid(events, pairs)
    for (z, w), value in zip(pairs, grid):
        mv = word_intersection_measure(word, (0, z, w), events)
        assert value == mv.estimate, (z, w)
    assert np.count_nonzero(grid) > 0


def test_spec_validation_and_json_round_trip():
    spec = RankOneSpec((2, 3), ((0, 1), (1, 0, 2)))
    assert RankOneSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        RankOneSpec((1,), ((0,),))
    with pytest.raises(ValueError):
        RankOneSpec((2,), ((0, -1),))
    with pytest.raises(ValueError, match="one spacer row per stage required"):
        RankOneSpec((2, 3), ((0, 1),))
    with pytest.raises(ValueError, match="spacer row length must equal the cut count"):
        RankOneSpec((3,), ((0, 1),))
    with pytest.raises(ValueError, match="unknown preset 'bogus'"):
        preset_spec("bogus", 3)


def test_negative_shifts_match_their_nonnegative_translate():
    spec = staircase_spec(8)
    word = generate_word(spec, 1, 20000)
    events = (frozenset({0}),) * 3
    for m in tower_heights(spec)[1:4]:
        back = word_intersection_measure(word, (0, -m, -3 * m), events)
        ahead = word_intersection_measure(word, (3 * m, 2 * m, 0), events)
        assert (back.estimate, back.samples) == (ahead.estimate, ahead.samples)
        assert 0.0 < back.estimate < 1.0

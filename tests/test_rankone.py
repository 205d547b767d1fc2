"""Rank-one words: tower heights, word generation, RLE output, correlation grid."""

import numpy as np
import pytest

from mixlab.rankone import (
    PRESETS,
    SPACER,
    RankOneSpec,
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

    def test_word_is_block_concatenation(self):
        word = generate_word(chacon_spec(3), 1, 40)
        assert word.height == 4 and word.length == 40
        block = list(range(4))
        stage2 = block + block + [SPACER] + block
        assert word.symbols.tolist() == stage2 + stage2 + [SPACER] + stage2


def test_rle_runs_reexpand_to_symbols():
    word = generate_word(staircase_spec(5), 1, 500)
    rle = word.to_rle_json()
    assert (rle["stage"], rle["height"], rle["length"]) == (1, 3, 500)
    expanded = [sym for sym, count in rle["runs"] for _ in range(count)]
    assert expanded == word.symbols.tolist()
    assert all(a[0] != b[0] for a, b in zip(rle["runs"], rle["runs"][1:]))


def test_correlation_grid_matches_intersection_measure():
    word = generate_word(staircase_spec(6), 1, 3000)
    oracle = WordOracle(word, seed=5)
    events = [frozenset({0}), frozenset({1, SPACER}), frozenset({0, 2})]
    pairs = [(z, w) for z in range(6) for w in range(6)]
    grid = oracle.correlation_grid(events, pairs)
    for (z, w), value in zip(pairs, grid):
        mv = oracle.intersection_measure((0, z, w), events)
        assert value == mv.estimate, (z, w)
    assert np.count_nonzero(grid) > 0


def test_spec_validation_and_json_round_trip():
    spec = RankOneSpec((2, 3), ((0, 1), (1, 0, 2)))
    assert RankOneSpec.from_json(spec.to_json()) == spec
    with pytest.raises(ValueError):
        RankOneSpec((1,), ((0,),))
    with pytest.raises(ValueError):
        RankOneSpec((2,), ((0, -1),))


def test_negative_shifts_match_their_nonnegative_translate():
    spec = staircase_spec(8)
    oracle = WordOracle(generate_word(spec, 1, 20000), seed=3)
    events = (frozenset({0}),) * 3
    for m in tower_heights(spec)[1:4]:
        back = oracle.intersection_measure((0, -m, -3 * m), events)
        ahead = oracle.intersection_measure((3 * m, 2 * m, 0), events)
        assert (back.estimate, back.stderr, back.samples) == \
            (ahead.estimate, ahead.stderr, ahead.samples)
        assert 0.0 < back.estimate < 1.0 and back.stderr > 0.0

"""Block joins: `join_rows` writes the pieces of every row in order between
its head and tail, and holds nothing the size of the text but the text."""

import tracemalloc

import numpy as np
import pytest
from conftest import BLOCK_ROW_COUNTS

from mixlab.text import classes, join_rows


def _loop(head, columns, tail):
    n = len(columns[0][1])
    return head + "".join(table[index[r]] for r in range(n) for table, index in columns) + tail


def _columns(rows, seed):
    gen = np.random.default_rng(seed)
    labels = np.array([f"{i}," for i in range(7)], dtype=object)
    tails = np.array(["a\n", "bb\n", "\n"], dtype=object)
    return [(labels, gen.integers(0, 7, rows)), (labels, gen.integers(0, 7, rows)),
            (tails, gen.integers(0, 3, rows))]


@pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
def test_join_matches_loop_at_block_boundaries(small_blocks, rows):
    columns = _columns(rows, rows)
    assert join_rows("head\n", columns, "tail\n") == _loop("head\n", columns, "tail\n")
    assert join_rows("", columns[2:], "") == _loop("", columns[2:], "")


def test_join_holds_no_array_the_size_of_the_text():
    # 200,000 rows of 3 pieces and about 8 characters: an object array or
    # list of every piece would take 48 bytes a row beside the text's 8.
    columns = _columns(200_000, 1)
    tracemalloc.start()
    try:
        text = join_rows("z,w\n", columns, "")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    same = text == _loop("z,w\n", columns, "")  # a failed == of 1.6 MB strings diffs them
    assert same
    assert peak < 2 * len(text) + (1 << 19)


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.int64),
    np.array([7]),
    np.array([3, 1, 3, 3, 0, 1]),
    np.array([2 ** 64 - 1, 0, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64),
    np.array([0.0, -0.0, 0.5, 0.0]).view(np.uint64),  # -0.0 and 0.0 stay apart
    np.random.default_rng(0).integers(-50, 50, 10_000),
])
def test_classes_rank_as_unique_and_name_a_member_of_each(values):
    _, inverse = np.unique(values, return_inverse=True)
    rank, member = classes(values)
    assert rank.tolist() == inverse.ravel().tolist()
    assert values[member].tolist() == np.unique(values).tolist()

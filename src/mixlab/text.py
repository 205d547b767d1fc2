"""Large text artifacts joined a block of rows at a time.

dev.csv, the SVGs and word.json are one line (or run) per row, and each
line is a few pieces taken from small tables of distinct strings, one per
class of equal values (`classes`).  Joining them a block of rows at a time
keeps every object array and list at block size, so the text itself is the
largest thing an export holds: the block strings, then the one final join
that also takes the header and footer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Rows per block: a block's pieces are one (BLOCK_ROWS, columns) object
# array of references into the tables, 48 KB for three columns.
BLOCK_ROWS = 2048


def classes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among the distinct values, and for each rank the
    index of one value of it.  Sorts, then searches: np.unique with
    return_index and return_inverse argsorts, which costs more."""
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    rank = np.searchsorted(ordered[first], values)
    member = np.empty(np.count_nonzero(first), dtype=np.intp)
    member[rank] = np.arange(rank.size)  # any value of a rank will do: they are equal
    return rank, member


def join_rows(head: str, columns: Sequence[tuple[np.ndarray, np.ndarray]], tail: str) -> str:
    """`head`, then for each row r the pieces table[index[r]] of every
    (table, index) column in order, then `tail`, as one string.  Each
    table is an object array of strings; every index has one entry per row."""
    n = len(columns[0][1])
    block = np.empty((min(n, BLOCK_ROWS), len(columns)), dtype=object)
    chunks = [head]
    for lo in range(0, n, BLOCK_ROWS):
        part = block[:min(BLOCK_ROWS, n - lo)]
        for k, (table, index) in enumerate(columns):
            part[:, k] = table[index[lo:lo + BLOCK_ROWS]]
        chunks.append("".join(part.ravel().tolist()))
    chunks.append(tail)
    return "".join(chunks)

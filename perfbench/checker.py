"""The benchmark's own output checks, independent of ``pils``.

Each check raises ``CheckError`` naming the first defect it meets.  Grids
are sequences of rows of symbols 1..n; a block is a triple of row, column
and symbol index sets (1-based).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

Grid = Sequence[Sequence[int]]


class CheckError(Exception):
    pass


def check_latin(grid: Grid) -> None:
    n = len(grid)
    full = set(range(1, n + 1))
    for r, row in enumerate(grid, start=1):
        if len(row) != n or set(row) != full:
            raise CheckError(f"row {r} is not a permutation of 1..{n}")
    for c in range(n):
        if {row[c] for row in grid} != full:
            raise CheckError(f"column {c + 1} is not a permutation of 1..{n}")


def check_blocks(grid: Grid, parts: Sequence[int], blocks) -> None:
    """The blocks are pairwise disjoint subsquares whose orders are the
    partition's parts (as a multiset)."""
    if Counter(len(rows) for rows, _, _ in blocks) != Counter(parts):
        raise CheckError("block orders do not match the partition")
    seen: list[set[int]] = [set(), set(), set()]
    for b, (rows, cols, syms) in enumerate(blocks, start=1):
        h = len(rows)
        if not len(cols) == len(syms) == h:
            raise CheckError(f"block {b} is not square")
        for used, index in zip(seen, (rows, cols, syms)):
            if used & set(index):
                raise CheckError(f"block {b} overlaps an earlier block")
            used.update(index)
        want = set(syms)
        for r in rows:
            if {grid[r - 1][c - 1] for c in cols} != want:
                raise CheckError(f"block {b} is not a subsquare in row {r}")
        for c in cols:
            if {grid[r - 1][c - 1] for r in rows} != want:
                raise CheckError(f"block {b} is not a subsquare in column {c}")


def check_realization(grid: Grid, parts: Sequence[int], blocks) -> None:
    if len(grid) != sum(parts):
        raise CheckError(f"order {len(grid)} differs from {sum(parts)}")
    check_latin(grid)
    check_blocks(grid, parts, blocks)


def normal_form_blocks(parts: Sequence[int]) -> list[tuple[range, ...]]:
    """Block i on consecutive rows, columns and symbols, in part order."""
    blocks = []
    start = 1
    for h in parts:
        span = range(start, start + h)
        blocks.append((span, span, span))
        start += h
    return blocks


def blocks_from_cli(payload_blocks) -> list[tuple[range, ...]]:
    """``pils construct`` writes each block as inclusive [first, last]
    ranges of rows, columns and symbols."""
    return [tuple(range(b[key][0], b[key][1] + 1)
                  for key in ("rows", "cols", "symbols"))
            for b in payload_blocks]


def reduce_counts(grid: Grid, rows: Sequence[int], cols: Sequence[int],
                  syms: Sequence[int]) -> list[list[Counter]]:
    """The outline of ``grid`` modulo consecutive row, column and symbol
    classes: cell (i, j) counts the symbol classes in block (i, j)."""
    def class_of(parts: Sequence[int]) -> list[int]:
        return [i for i, h in enumerate(parts) for _ in range(h)]

    row_class, col_class, sym_class = (class_of(p) for p in (rows, cols, syms))
    cells = [[Counter() for _ in cols] for _ in rows]
    for r, line in enumerate(grid):
        out = cells[row_class[r]]
        for c, v in enumerate(line):
            out[col_class[c]][sym_class[v - 1]] += 1
    return cells


def check_roundtrip(original: Grid, lifted: Grid, rows, cols, syms) -> None:
    """The lifted square is latin and reduces, cell by cell, to the same
    outline as the original square."""
    if len(lifted) != len(original):
        raise CheckError("lifted square has the wrong order")
    check_latin(lifted)
    want = reduce_counts(original, rows, cols, syms)
    got = reduce_counts(lifted, rows, cols, syms)
    for i, (want_row, got_row) in enumerate(zip(want, got), start=1):
        for j, (a, b) in enumerate(zip(want_row, got_row), start=1):
            if a != b:
                raise CheckError(f"outline cell ({i},{j}) differs")


def check_outline_cells(original: Grid, outline_cells, rows, cols, syms,
                        ) -> None:
    """``outline_cells[i][j]`` lists symbol classes 1..k of the program's
    reduction; compare them with the checker's own reduction."""
    want = reduce_counts(original, rows, cols, syms)
    for i, (want_row, got_row) in enumerate(zip(want, outline_cells), start=1):
        for j, (a, cell) in enumerate(zip(want_row, got_row), start=1):
            if a != Counter(s - 1 for s in cell):
                raise CheckError(f"reduced cell ({i},{j}) differs")


def existence(parts: Sequence[int]) -> str | None:
    """"yes"/"no" where the published characterizations decide, else None.

    Covers k <= 4 parts, one or two distinct sizes, and three equal largest
    parts (Heinrich; Kuhl, Schroeder and others).
    """
    h = sorted(parts, reverse=True)
    k = len(h)
    if k == 1:
        return "yes"
    if k == 2:
        return "no"
    if k == 3:
        return "yes" if h[0] == h[2] else "no"
    if h[0] == h[2]:
        return "yes"
    if k == 4:
        return "yes" if h[1] == h[3] and h[0] <= 2 * h[3] else "no"
    sizes = sorted(set(h), reverse=True)
    if len(sizes) == 2:
        a, b = sizes
        return "yes" if h.count(a) >= 3 or a <= (k - 2) * b else "no"
    return None


def check_oracle(parts: Sequence[int], status: str, grid: Grid | None) -> None:
    """An oracle verdict agrees with the characterization where it decides
    (an exhaustive "none" stands where it does not); a found square is a
    normal-form realization."""
    want = existence(parts)
    if status == "found":
        if want == "no":
            raise CheckError("oracle found a square where none exists")
        check_realization(grid, parts, normal_form_blocks(parts))
    elif status == "none":
        if want == "yes":
            raise CheckError("oracle reports none where a realization exists")
    else:
        raise CheckError(f"unknown oracle status {status!r}")

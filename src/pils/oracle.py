"""Exhaustive ground truth for small orders.

The searcher fixes the diagonal blocks to canonical content (any realization
can have its blocks' interiors swapped for any other latin squares on the
same lines, so this loses nothing), then fills the remaining cells in up to
two passes, each starting from those blocks alone:

1. A row-major pass with bitmask forward checking: each free cell in turn
   takes the symbols its row and column still lack.  It is stopped after 8
   nodes per free cell.  Most small partitions are settled within that cap,
   at the least cost per node.
2. When the first pass neither found a square nor exhausted the space, a
   propagating pass.  After placing s at (r, c) it checks lines: every open
   cell of row r and of column c keeps a candidate, row r and column c can
   each still place every symbol they lack, and every row and column
   lacking s keeps an open cell that can take s.  It then branches on the
   most constrained cell it just checked, and refutes in thousands of nodes
   what the first pass would need millions for.

Verdicts are three-valued so that "none" is only ever reported after a full
exhaustion.  The node budget and the reported node count cover both passes.
"""

from __future__ import annotations

import sys

from .core import (LatinSquare, Partition, PreconditionError, Record,
                   verify_realization)

DEFAULT_BUDGET = 10 ** 8

# Frames of the recursion limit left to the search's callers (and to a
# signal handler or tracer running beneath its deepest call); the rest
# bounds the search's depth, one frame per free cell.
_CALLER_FRAMES = 50


class OracleResult(Record):
    """A search's outcome; ``status`` is "found", "none" or
    "budget-exceeded"."""

    def __init__(self, status: str, square: LatinSquare | None, nodes: int):
        self.__dict__.update(status=status, square=square, nodes=nodes)

    def __bool__(self) -> bool:
        return self.status == "found"


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, parts non-increasing, lexicographically sorted."""
    if n < 1:
        raise PreconditionError("n must be positive")
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], remaining: int, cap: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(1, min(cap, remaining) + 1):
            prefix.append(part)
            grow(prefix, remaining - part, part)
            prefix.pop()

    grow([], n, n)
    out.sort()
    return [Partition(p) for p in out]


def find_realization_bruteforce(partition: Partition,
                                budget: int = DEFAULT_BUDGET,
                                symmetry: bool = True) -> OracleResult:
    """Search for a normal-form realization of the partition.

    "found" comes with the square, "none" is exhaustive, and
    "budget-exceeded" keeps the two distinguishable.  ``symmetry`` enables
    the block-swap reduction; disabling it searches the raw space (slower,
    used to cross-check the reduction itself).
    """
    if not partition.is_non_increasing():
        raise PreconditionError("oracle expects non-increasing parts")
    if partition.k == 0:
        raise PreconditionError("the oracle searches non-empty partitions")
    if budget < 1:
        raise PreconditionError(f"node budget {budget} must be at least 1")
    parts = partition.parts
    n = partition.n
    k = partition.k
    # each pass takes one Python frame per free cell, and there are fewer
    # free cells than n^2
    room = sys.getrecursionlimit() - _CALLER_FRAMES
    free_cells = n * n - sum(p * p for p in parts) if n * n > room else 0
    if free_cells > room:
        raise PreconditionError(
            f"{free_cells} free cells exceed the search's recursion depth "
            f"of {room}")
    if k == 1:
        square = LatinSquare([[(x + y) % n + 1 for y in range(n)]
                              for x in range(n)])
        return OracleResult("found", square, 0)

    # Symmetry cut: the first free cell of row 1, (1, h1 + 1), may be pinned
    # to the first symbol of the first block of each size occurring among
    # blocks 3..k (equal-size blocks can be swapped wholesale, and a block's
    # symbols can be cycled while its canonical diagonal content is restored
    # by row and column cycles inside the block, none of which touches row
    # 1).  It is the first free cell in row-major order, and both passes
    # branch on it first.
    pin = (1 << n) - 1
    if symmetry and k >= 3:
        pin = 0
        seen_sizes = set()
        start = parts[0] + parts[1]
        for p in parts[2:]:
            if p not in seen_sizes:
                seen_sizes.add(p)
                pin |= 1 << start
            start += p

    try:
        grid, row_used, col_used = _diagonal_blocks(parts)
        try:
            filled, nodes = _row_major(grid, row_used, col_used, pin, budget)
        except _OutOfNodes as cut:
            if cut.nodes > budget:
                raise
            # the capped pass gave up with its grid and masks half filled
            grid, row_used, col_used = _diagonal_blocks(parts)
            filled, nodes = _propagating(grid, row_used, col_used, pin,
                                         cut.nodes, budget)
    except _OutOfNodes as cut:
        return OracleResult("budget-exceeded", None, cut.nodes)
    if not filled:
        return OracleResult("none", None, nodes)
    square = LatinSquare(grid)
    verify_realization(square, partition)
    return OracleResult("found", square, nodes)


class _OutOfNodes(Exception):
    """A pass tried more nodes than its limit; ``nodes`` is the count."""

    def __init__(self, nodes: int):
        super().__init__(nodes)
        self.nodes = nodes


def _diagonal_blocks(parts: tuple[int, ...]
                     ) -> tuple[list[list[int]], list[int], list[int]]:
    """The grid holding only the canonical diagonal blocks (0 elsewhere),
    with the symbol masks of its rows and of its columns (bit s - 1 for
    symbol s)."""
    n = sum(parts)
    grid = [[0] * n for _ in range(n)]
    row_used = [0] * n
    col_used = [0] * n
    base = 0
    for h in parts:
        for x in range(h):
            for y in range(h):
                sym = base + (x + y) % h + 1
                grid[base + x][base + y] = sym
                row_used[base + x] |= 1 << (sym - 1)
                col_used[base + y] |= 1 << (sym - 1)
        base += h
    return grid, row_used, col_used


def _row_major(grid: list[list[int]], row_used: list[int],
               col_used: list[int], pin: int,
               limit: int) -> tuple[bool, int]:
    """Fill the free cells of ``grid`` in row-major order, each with the
    symbols its row and column still lack, the first with symbols in
    ``pin`` only.  Returns whether it filled them and the nodes it tried;
    raises ``_OutOfNodes`` on trying more than ``limit`` or than 8 per free
    cell."""
    n = len(grid)
    full = (1 << n) - 1
    free = [(r, c) for r in range(n) for c in range(n) if grid[r][c] == 0]
    total = len(free)
    limit = min(limit, 8 * total)
    nodes = 0

    def fill(idx: int) -> bool:
        nonlocal nodes
        if idx == total:
            return True
        r, c = free[idx]
        cand = full & ~row_used[r] & ~col_used[c]
        if idx == 0:
            cand &= pin
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if nodes > limit:
                raise _OutOfNodes(nodes)
            sym = bit.bit_length()
            grid[r][c] = sym
            row_used[r] |= bit
            col_used[c] |= bit
            if fill(idx + 1):
                return True
            grid[r][c] = 0
            row_used[r] ^= bit
            col_used[c] ^= bit
        return False

    return fill(0), nodes


def _propagating(grid: list[list[int]], row_used: list[int],
                 col_used: list[int], pin: int, nodes: int,
                 limit: int) -> tuple[bool, int]:
    """Fill the free cells of ``grid``, checking the lines through each
    placement and branching on the most constrained cell among those it
    checked; the first cell in row-major order comes first, with symbols
    in ``pin`` only.  Counts on from ``nodes``; returns and raises as
    ``_row_major`` does."""
    n = len(grid)
    full = (1 << n) - 1
    row_open = [0] * n  # the open columns of each row
    col_open = [0] * n  # the open rows of each column
    sym_rows = [0] * n  # the rows holding each symbol (index s - 1)
    sym_cols = [0] * n  # the columns holding each symbol
    for r, row in enumerate(grid):
        for c, sym in enumerate(row):
            if sym:
                sym_rows[sym - 1] |= 1 << r
                sym_cols[sym - 1] |= 1 << c
            else:
                row_open[r] |= 1 << c
                col_open[c] |= 1 << r

    def first_open() -> tuple[int, int]:
        return next((r, (cols & -cols).bit_length() - 1)
                    for r, cols in enumerate(row_open) if cols)

    def check(r: int, c: int, s: int) -> tuple[int, int] | None:
        """The cell to branch on after symbol index s went to (r, c), or
        None if some line can no longer be completed."""
        best = None
        fewest = n + 1
        for held, opens, cross_used, in_row in (
                (row_used[r], row_open[r], col_used, True),
                (col_used[c], col_open[c], row_used, False)):
            missing = full & ~held
            reach = 0
            while opens:
                low = opens & -opens
                opens ^= low
                j = low.bit_length() - 1
                cand = missing & ~cross_used[j]
                if not cand:
                    return None
                reach |= cand
                size = cand.bit_count()
                if size < fewest:
                    fewest = size
                    best = (r, j) if in_row else (j, c)
            if reach != missing:
                return None
        # every row lacking s needs an open cell in a column lacking s, and
        # every column lacking s one in a row lacking s
        for lacking, opens, held in (
                (full & ~sym_rows[s], row_open, sym_cols[s]),
                (full & ~sym_cols[s], col_open, sym_rows[s])):
            while lacking:
                low = lacking & -lacking
                lacking ^= low
                if not opens[low.bit_length() - 1] & ~held:
                    return None
        return best if best is not None else first_open()

    def fill(r: int, c: int, left: int, allowed: int) -> bool:
        nonlocal nodes
        cand = allowed & ~row_used[r] & ~col_used[c]
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if nodes > limit:
                raise _OutOfNodes(nodes)
            s = bit.bit_length() - 1
            grid[r][c] = s + 1
            row_used[r] |= bit
            col_used[c] |= bit
            row_open[r] ^= 1 << c
            col_open[c] ^= 1 << r
            sym_rows[s] |= 1 << r
            sym_cols[s] |= 1 << c
            if left == 1:
                return True
            nxt = check(r, c, s)
            if nxt is not None and fill(*nxt, left - 1, full):
                return True
            grid[r][c] = 0
            row_used[r] ^= bit
            col_used[c] ^= bit
            row_open[r] ^= 1 << c
            col_open[c] ^= 1 << r
            sym_rows[s] ^= 1 << r
            sym_cols[s] ^= 1 << c
        return False

    left = sum(cols.bit_count() for cols in row_open)
    return fill(*first_open(), left, pin), nodes

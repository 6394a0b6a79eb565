"""Exhaustive ground truth for small orders.

The searcher fixes the diagonal blocks to canonical content (any realization
can have its blocks' interiors swapped for any other latin squares on the
same lines, so this loses nothing), then fills the remaining cells row-major
with bitmask forward checking.  Verdicts are three-valued so that "none" is
only ever reported after a full exhaustion.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .core import LatinSquare, Partition, PreconditionError, verify_realization

DEFAULT_BUDGET = 10 ** 8

# Frames of the recursion limit left to the search's callers (and to a
# signal handler or tracer running beneath its deepest call); the rest
# bounds the search's depth, one frame per free cell.
_CALLER_FRAMES = 50


@dataclass(frozen=True)
class OracleResult:
    status: str  # "found" | "none" | "budget-exceeded"
    square: LatinSquare | None
    nodes: int

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
    if budget < 1:
        raise PreconditionError(f"node budget {budget} must be at least 1")
    parts = partition.parts
    n = partition.n
    k = partition.k
    # fill() below takes one Python frame per free cell, and there are
    # fewer free cells than n^2
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

    grid = [[0] * n for _ in range(n)]
    full = (1 << n) - 1
    row_used = [0] * n
    col_used = [0] * n
    starts = [0]
    for p in parts:
        starts.append(starts[-1] + p)
    for b in range(k):
        base = starts[b]
        h = parts[b]
        for x in range(h):
            for y in range(h):
                sym = base + (x + y) % h + 1
                grid[base + x][base + y] = sym
                row_used[base + x] |= 1 << (sym - 1)
                col_used[base + y] |= 1 << (sym - 1)

    free = [(r, c) for r in range(n) for c in range(n) if grid[r][c] == 0]

    # Symmetry cut: the first free cell of row 1 may be pinned to the first
    # symbol of the first block of each size occurring among blocks 3..k
    # (equal-size blocks can be swapped wholesale, and a block's symbols can
    # be cycled while its canonical diagonal content is restored by row and
    # column cycles inside the block, none of which touches row 1).
    first_cell_mask = full
    if symmetry and k >= 3 and free and free[0] == (0, starts[1]):
        allowed = 0
        seen_sizes = set()
        for b in range(2, k):
            if parts[b] not in seen_sizes:
                seen_sizes.add(parts[b])
                allowed |= 1 << starts[b]
        first_cell_mask = allowed

    nodes = 0
    total = len(free)

    def fill(idx: int) -> bool:
        nonlocal nodes
        if idx == total:
            return True
        r, c = free[idx]
        cand = full & ~row_used[r] & ~col_used[c]
        if idx == 0:
            cand &= first_cell_mask
        while cand:
            bit = cand & -cand
            cand ^= bit
            nodes += 1
            if nodes > budget:
                raise _Budget
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

    try:
        ok = fill(0)
    except _Budget:
        return OracleResult("budget-exceeded", None, nodes)
    if not ok:
        return OracleResult("none", None, nodes)
    square = LatinSquare(grid)
    verify_realization(square, partition)
    return OracleResult("found", square, nodes)


class _Budget(Exception):
    pass

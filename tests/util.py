"""Shared helpers: seeded random latin squares and partitions, and the
odd-tail seed's grid of classes."""

from __future__ import annotations

import random

from pils import LatinSquare, Partition
from pils.circulant import _odd_r_classes, odd_r_seed_labels


def random_latin_square(n: int, rng: random.Random) -> LatinSquare:
    """Random square: row-wise backtracking with restarts at small orders,
    a scrambled cyclic square beyond (plain backtracking stalls there)."""
    if n > 30:
        return _scrambled_cyclic(n, rng)
    while True:
        got = _backtrack_square(n, rng, step_limit=200_000)
        if got is not None:
            return got


def _backtrack_square(n: int, rng: random.Random,
                      step_limit: int) -> LatinSquare | None:
    grid: list[list[int]] = []
    col_used = [0] * n
    steps = 0
    for _ in range(n):
        row = [0] * n

        def fill(c: int, used: int) -> bool:
            nonlocal steps
            if c == n:
                return True
            options = [s for s in range(1, n + 1)
                       if not (used >> (s - 1)) & 1
                       and not (col_used[c] >> (s - 1)) & 1]
            rng.shuffle(options)
            for s in options:
                steps += 1
                if steps > step_limit:
                    return False
                row[c] = s
                if fill(c + 1, used | (1 << (s - 1))):
                    return True
            row[c] = 0
            return False

        if not fill(0, 0):
            return None
        for c, s in enumerate(row):
            col_used[c] |= 1 << (s - 1)
        grid.append(row)
    return LatinSquare(grid)


def _scrambled_cyclic(n: int, rng: random.Random) -> LatinSquare:
    rows = list(range(n))
    cols = list(range(n))
    syms = list(range(1, n + 1))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    return LatinSquare([[syms[(rows[i] + cols[j]) % n] for j in range(n)]
                        for i in range(n)])


def random_partition(n: int, rng: random.Random) -> Partition:
    parts = []
    left = n
    while left:
        p = rng.randint(1, left)
        parts.append(p)
        left -= p
    return Partition(parts)


def odd_r_labels(partition: Partition) -> list[list[int]]:
    """The n x n label grid that ``odd_r_outline`` amalgamates: the grid of
    ``odd_r_seed_labels`` with labels 1..3h grouped by h into classes 1, 2,
    3 and its tail labels into classes 4..k, so its 3h x 3h corner is the
    3 x 3 block pattern of the outline.  Rows and columns are units."""
    classes = _odd_r_classes(partition)
    return [list(map(classes.__getitem__, row))
            for row in odd_r_seed_labels(partition)]


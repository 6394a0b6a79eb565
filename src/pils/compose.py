"""Outline arrays and the blow-up step.

An outline array is a k x k array of symbol multisets whose row symbol
counts and column symbol counts agree with its cell sizes F(i,j) = |O(i,j)|:
symbol l occurs F(i,l) times in row i and F(l,j) times in column j.  An
outline square associated to a partition (h1..hk) is exactly an outline
array with F(i,j) = hi*hj.  An outline array is a plain grid (a list of
rows) of ``{symbol: count}`` maps, the form
:class:`~pils.core.OutlineRectangle` stores; every operation here adds,
scales or merges those counts into fresh maps and never changes a map it
was given.

The operations here are the ones the induction needs: cellwise sums, the
add-on array built from small one-big-block realizations, the induction step
that adds it to an outline square, and the blow-up that grows the three
leading classes of an outline square from h1 to g.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Counts,
    GridError,
    InternalError,
    OutlineRectangle,
    Partition,
    PreconditionError,
    _amalgamate_labels,
    validate_outline,
)

Grid = Sequence[Sequence[Counts]]


def validate_outline_array(array: Grid) -> list[str]:
    """Check the row and column count conditions against the cell sizes.

    Returns human-readable violations; empty means the grid is an outline
    array for the frequency array of its own cell sizes.  Raises
    :class:`GridError` for a grid that is not square, a symbol outside [k]
    or a count that is not a non-negative int.
    """
    k = len(array)
    if any(len(row) != k for row in array):
        raise GridError("outline array must be square")
    sizes = [[0] * k for _ in range(k)]
    row_counts = [[0] * (k + 1) for _ in range(k)]
    col_counts = [[0] * (k + 1) for _ in range(k)]
    for row, counts, row_sizes in zip(array, row_counts, sizes):
        for j, (cell, col) in enumerate(zip(row, col_counts)):
            for s, c in cell.items():
                if type(c) is not int or c < 0:
                    raise GridError(f"count of symbol {s!r} is {c!r}, not a "
                                    "non-negative int")
                if type(s) is not int or not 1 <= s <= k:
                    raise GridError(f"cell symbol outside [{k}]: {s!r}")
                counts[s] += c
                col[s] += c
                row_sizes[j] += c
    problems = []
    for i in range(1, k + 1):
        for l in range(1, k + 1):
            got, want = row_counts[i - 1][l], sizes[i - 1][l - 1]
            if got != want:
                problems.append(
                    f"row {i}: symbol {l} occurs {got}, F({i},{l})={want}")
    for j in range(1, k + 1):
        for l in range(1, k + 1):
            got, want = col_counts[j - 1][l], sizes[l - 1][j - 1]
            if got != want:
                problems.append(
                    f"column {j}: symbol {l} occurs {got}, F({l},{j})={want}")
    return problems


def array_from_outline_square(outline: OutlineRectangle) -> list[list[Counts]]:
    """The body of an outline square: its cells with the diagonal emptied.

    Each diagonal cell holds exactly the h_i^2 copies of its own symbol, so
    the body is still an outline array; the other cells are the outline's
    own (unchanged) maps.
    """
    if not outline.is_square_form():
        raise PreconditionError("outline is not an outline square")
    cells = [list(row) for row in outline.counts]
    for i, row in enumerate(cells):
        row[i] = {}
    return cells


def square_from_array(array: Grid, partition: Partition) -> OutlineRectangle:
    """Restore diagonal cells h_i^2 {i} and reinterpret as an outline square."""
    k = partition.k
    if len(array) != k:
        raise PreconditionError("partition order does not match the array")
    cells = []
    for i, row in enumerate(array, start=1):
        if len(row) != k:
            raise GridError("outline array must be square")
        if any(row[i - 1].values()):
            raise PreconditionError(f"diagonal cell ({i},{i}) is not empty")
        row = list(row)
        row[i - 1] = {i: partition.part(i) ** 2}
        cells.append(row)
    outline = OutlineRectangle(partition, partition, partition, cells)
    bad = validate_outline(outline)
    if bad:
        raise InternalError(
            f"array plus diagonal is not an outline square: {bad[0]}")
    return outline


def sum_outline_arrays(first: Grid, second: Grid, copies: int = 1,
                       ) -> list[list[Counts]]:
    """Cellwise multiset union of ``first`` and ``copies`` copies of
    ``second``; realizes the sum of the frequency arrays."""
    if len(first) != len(second):
        raise PreconditionError(
            f"order mismatch: {len(first)} vs {len(second)}")
    if copies < 0:
        raise PreconditionError("copies must be non-negative")
    cells = [[dict(c) for c in row] for row in first]
    if copies:
        _add_arrays(cells, second, copies)
    return cells


def _add_arrays(cells: list[list[Counts]], other: Grid, copies: int,
                ) -> None:
    """Add ``copies`` times ``other``'s counts into the working count maps
    ``cells``."""
    for row, other_row in zip(cells, other):
        for cell, add in zip(row, other_row):
            for s, c in add.items():
                cell[s] = cell.get(s, 0) + c * copies


# ---------------------------------------------------------------------------
# Add-on arrays


def _deal_round_robin(items: Sequence[int], groups: int) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(groups)]
    for idx, item in enumerate(items):
        out[idx % groups].append(item)
    return out


def _addon_bound_holds(m: int, h_m: int, tail: Sequence[int]) -> bool:
    """The add-on bound sum(h_{m+2..k}) <= (m-1)h_m + (m-2)h_{m+1}, where
    ``tail`` is (h_{m+1}, ..., h_k)."""
    return sum(tail[1:]) <= (m - 1) * h_m + (m - 2) * tail[0]


def add_on_outline(m: int, tail: Sequence[int], h_m: int,
                   ) -> list[list[Counts]]:
    """The add-on outline array of order k = m + len(tail).

    Its frequency array is h_m + h_{m+1} on off-diagonal cells of the leading
    m x m corner, h_j on cells (i <= m, j > m) and transposed, and zero
    elsewhere.  Built as the sum of h_m + h_{m+1} arrays, each obtained from
    a realization with m singleton blocks and one block holding a share of
    the tail symbol multiset.  Equal shares give equal arrays, so each
    distinct share is built (and validated) once and added with its
    multiplicity.
    """
    if m < 3:
        raise PreconditionError("add-on arrays need m >= 3")
    if not tail:
        raise PreconditionError("tail must contain at least h_{m+1}")
    tail = [int(h) for h in tail]
    h_m1 = tail[0]
    if h_m < h_m1 or any(a < b for a, b in zip(tail, tail[1:])):
        raise PreconditionError("tail must be non-increasing and at most h_m")
    if not _addon_bound_holds(m, h_m, tail):
        raise PreconditionError(
            "tail too heavy: sum of parts beyond m+1 exceeds "
            "(m-1)h_m + (m-2)h_{m+1}")
    k = m + len(tail)
    group_count = h_m + h_m1
    symbols: list[int] = []
    for offset, h in enumerate(tail):
        symbols.extend([m + 1 + offset] * h)
    # distinct shares in order of first occurrence, so every cell's symbols
    # keep the order a share-by-share sum gives them
    multiplicity: dict[tuple[int, ...], int] = {}
    for share in _deal_round_robin(symbols, group_count):
        if len(share) > m - 1:
            raise InternalError("round-robin share exceeded m - 1 symbols")
        key = tuple(share)
        multiplicity[key] = multiplicity.get(key, 0) + 1

    total: list[list[Counts]] = [[{} for _ in range(k)] for _ in range(k)]
    for share, copies in multiplicity.items():
        _add_arrays(total, _one_share_array(m, k, share), copies)
    return total


def _one_share_array(m: int, k: int, share: Sequence[int],
                     ) -> list[list[Counts]]:
    """Outline array of one share: a realization with an order-s block and m
    singletons, amalgamated so the singletons land on classes 1..m and the
    block rows split among the share's tail classes, with the diagonal and
    the block-on-block corner emptied."""
    from .base import ls_one_big

    s = len(share)
    square, _ = ls_one_big(s, m)
    # The realization has the order-s block first: rows/cols/symbols [s],
    # then m singletons.  Class map: square index -> array class (index 0
    # unused).
    klass = [0] + sorted(share) + list(range(1, m + 1))
    cells = _amalgamate_labels(square.grid, klass, klass, klass, (k, k))
    for i, row in enumerate(cells):
        row[i] = {}
        if i >= m:  # the block-on-block corner
            row[m:] = [{} for _ in range(m, k)]
    bad = validate_outline_array(cells)
    if bad:
        raise InternalError(f"share array invalid: {bad[0]}")
    return cells


def add_on_step(outline: OutlineRectangle, target: Partition, level: int,
                ) -> OutlineRectangle:
    """One step of the induction: from an outline square for
    (h_{l+1}^{l+1} h_{l+2} .. h_k) to one for ``target`` = (h_l^l h_{l+1}
    .. h_k), l = ``level``, by adding (h_l - h_{l+1}) add-on arrays to its
    off-diagonal body.  The combined cells are normalized once, by the
    outline square :func:`square_from_array` builds, whose check also
    catches a combined cell of the wrong size."""
    parts = target.parts
    copies = parts[level - 1] - parts[level]
    body = array_from_outline_square(outline)
    addon = add_on_outline(level, parts[level:], parts[level - 1])
    combined = sum_outline_arrays(body, addon, copies)
    return square_from_array(combined, target)


# ---------------------------------------------------------------------------
# Blow-up


def blow_up(outline: OutlineRectangle, g: int, beta1: int, beta2: int,
            ) -> OutlineRectangle:
    """Grow the three leading classes of an outline square from h1 to g.

    The input must be an outline square for (h1,h1,h1,h4..hk) with diagonal
    cells h_i^2 {i}, at least beta1 copies of 1, 2, 3 in cells (2,3), (3,1),
    (1,2) and beta2 copies of 1, 2, 3 in (3,2), (1,3), (2,1).  Output is an
    outline square for (g,g,g,h4..hk) with the diagonal condition restored.

    The new off-diagonal volume r(g - h1), r = h4 + ... + hk, is split
    between the two cyclic orientations of the leading 3 x 3 corner:
    p = min(r(g - h1), g^2 - h1^2 + beta1) goes to the beta1 orientation
    and q = r(g - h1) - p to the beta2 one, and each is dealt over the tail
    classes in order, class j taking at most h_j(g - h1) of it.
    """
    if not outline.is_square_form():
        raise PreconditionError("blow-up expects an outline square")
    seed = outline.row_partition
    if seed.k < 4 or not (seed.part(1) == seed.part(2) == seed.part(3)):
        raise PreconditionError(
            "blow-up expects three equal leading classes and a tail")
    h1 = seed.part(1)
    k = seed.k
    counts = outline.counts
    for i in range(1, k + 1):
        h = seed.part(i)
        if counts[i - 1][i - 1] != {i: h * h}:
            raise PreconditionError(
                f"diagonal cell ({i},{i}) must be {h}^2 copies of {i}")
    for sym, (i, j) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
        if counts[i - 1][j - 1].get(sym, 0) < beta1:
            raise PreconditionError(
                f"cell ({i},{j}) lacks beta1 = {beta1} copies of {sym}")
    for sym, (i, j) in ((1, (3, 2)), (2, (1, 3)), (3, (2, 1))):
        if counts[i - 1][j - 1].get(sym, 0) < beta2:
            raise PreconditionError(
                f"cell ({i},{j}) lacks beta2 = {beta2} copies of {sym}")

    tail = seed.parts[3:]
    if g < h1:
        raise PreconditionError(f"g = {g} below the seed block size {h1}")
    if beta1 < 0 or beta2 < 0:
        raise PreconditionError("beta values must be non-negative")
    volume = sum(tail) * (g - h1)
    grown = g * g - h1 * h1
    room = 2 * grown + beta1 + beta2
    if volume > room:
        raise PreconditionError(
            f"blow-up infeasible: r(g-h1) = {volume} exceeds "
            f"2(g^2-h1^2)+beta1+beta2 = {room}")
    p = min(volume, grown + beta1)
    q = volume - p
    if q > grown + beta2:
        raise InternalError("blow-up split out of range despite feasibility")
    p_parts = []
    left = p
    for h in tail:
        take = min(h * (g - h1), left)
        p_parts.append(take)
        left -= take
    if left:
        raise InternalError("could not distribute p over the tail")
    q_parts = [h * (g - h1) - pp for h, pp in zip(tail, p_parts)]
    d1 = p - grown
    d2 = q - grown
    s1 = {m + 4: c for m, c in enumerate(p_parts)}
    s2 = {m + 4: c for m, c in enumerate(q_parts)}

    cells = [[dict(c) for c in row] for row in counts]

    def add(i: int, j: int, change: Counts) -> None:
        cell = cells[i - 1][j - 1]
        for sym, cnt in change.items():
            left = cell.get(sym, 0) + cnt
            if left < 0:
                raise InternalError(
                    f"blow-up needs to remove symbol {sym} from cell "
                    f"({i},{j}), which has too few copies; beta guarantee "
                    "misreported")
            cell[sym] = left

    for i in range(1, 4):
        cells[i - 1][i - 1] = {i: g * g}
    for (i, j), sym in (((1, 2), 3), ((2, 3), 1), ((3, 1), 2)):
        add(i, j, {**s1, sym: -d1})
    for (i, j), sym in (((2, 1), 3), ((3, 2), 1), ((1, 3), 2)):
        add(i, j, {**s2, sym: -d2})
    for j, pj, qj in zip(range(4, k + 1), p_parts, q_parts):
        add(1, j, {3: pj, 2: qj})
        add(2, j, {1: pj, 3: qj})
        add(3, j, {2: pj, 1: qj})
        add(j, 1, {2: pj, 3: qj})
        add(j, 2, {3: pj, 1: qj})
        add(j, 3, {1: pj, 2: qj})

    new_partition = Partition((g, g, g) + tail)
    result = OutlineRectangle(new_partition, new_partition, new_partition,
                              cells)
    bad = validate_outline(result)
    if bad:
        raise InternalError(f"blow-up produced an invalid outline: {bad[0]}")
    return result

"""Lifting outline rectangles back into latin squares.

A reduction of a latin square modulo (P, Q, R) is an outline rectangle, and
every outline rectangle arises this way.  The classical existence statement
gives no algorithm, so this module supplies one.  First every row class,
then every column class, is cut into power-of-two blocks, largest first.
Each cut is an exact-degree subgraph extraction, a transport problem with
one left vertex per cross class or block, so none is larger than the
outline: a greedy fill, then breadth-first augmenting paths for what it
left short.  Then every column class is split into units, then every row
class (on the transpose), then every symbol class.  A line class of even
size p is a multigraph on (cross class) x (symbol class) whose every
degree is a multiple of p, so an Euler partition halves it exactly.  The
row blocks of the last line phase, over unit columns, are halved on their
count maps only while they have more than ``_FLAT_ROWS`` rows; then each
is listed flat, one entry per symbol class copy.  Once every line is a
singleton, each symbol class is an r-regular bipartite graph on rows x
columns.  An outline cell (I, J) that holds one class l only, with p_I =
q_J = r_l, holds every copy of l in its row and column classes, so its
r_l x r_l cells are then a whole component of the class: a pure block,
written directly as the cyclic square on l's symbols.  Every diagonal
cell of a construction's outline square is one.  One kernel,
:func:`_factors`, splits each flat row block and the rest of each class
into r factors (König): an even r by one pairing walk, :func:`_pair_walk`,
on the flat list of each edge's right vertex (the walk only pairs edges;
it finds an odd degree from the edges left open), down to r = 2, whose two
halves are the factors; an odd r first by one perfect matching.
:func:`_write_class` puts symbol i on factor i.  On a valid outline
rectangle no extraction, halving or matching can fail; any failure is an
internal invariant violation.

A grid of labels whose every row and column holds label l exactly r_l
times spells out an outline with unit rows and columns, so only the symbol
phase is left; :func:`lift_labels_to_realization` runs it alone.  The
engine takes that route when its last outline step is the odd-tail
circulant seed of size h1: the seed is built as such a grid over the
symbol partition (1^{3h}, h4, ..., hk), finer than the classes, whose 3h
leading labels are single symbols.  Amalgamating it into the outline
square only for :func:`lift` to cut and halve every line class back down
to units, and to split symbols 1..3h out of classes 1-3 again, would redo,
cell by cell, what the seed had already done.

Splits are performed in a fixed order (row cuts, column cuts, column
halvings, row halvings, then pure blocks and symbols, lowest index first)
with deterministic solvers that read cells in symbol order, so lifting is
a pure function of its input.

Every cell is the outline's own ``{symbol: count}`` map, which is the
sparse multiplicity row the extraction takes (symbol l is right vertex l;
vertex 0 is an unused placeholder), so a cut or a count-map halving
neither expands a cell to h_i * h_j entries nor recounts one; only the
last halvings, at most ``_FLAT_ROWS`` entries per cell, list them.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain
from operator import add
from typing import Iterator, Sequence

from .core import (
    InternalError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PreconditionError,
    SubsquareCertificate,
    RealizationError,
    _amalgamate_labels,
    _check_labels,
    _group_map,
    # unused here; perfbench's alias-rebinding test asserts this name
    reduce as core_reduce,
    validate_outline,
    verify_realization,
)


class ExtractionInfeasible(InternalError):
    """No sub-multigraph meets the degree targets.

    ``left_set`` is a set of left vertices (1-based) whose demand exceeds the
    capacity of the edges leaving it, witnessing a violated cut.
    ``right_set`` (also 1-based) is the set of right vertices on the source
    side of that cut: those reachable from the rows left short in the
    residual network of a maximum extraction.
    """

    def __init__(self, message: str, left_set: frozenset[int],
                 right_set: frozenset[int]):
        super().__init__(message)
        self.left_set = left_set
        self.right_set = right_set


# ---------------------------------------------------------------------------
# Transport by augmenting paths


def _solve_extraction(mult_rows: Sequence[dict[int, int]], left_targets:
                      Sequence[int], right_targets: Sequence[int],
                      ) -> list[dict[int, int]]:
    """Exact-degree extraction on sparse multiplicity rows.

    ``mult_rows[i]`` maps right vertex (0-based) to multiplicity.  Returns
    rows of the extracted sub-multigraph in the same shape, or raises
    :class:`ExtractionInfeasible` with a violated cut.

    Each row first takes what it can in right-vertex order, as much of each
    entry as both ends still want.  Each row left short then gets
    breadth-first augmenting paths: a path steps forward along an entry
    not yet taken in full and back through an entry taken, and ends at a
    right vertex that still wants more.  A row that finds no path never
    finds one later, so once every row has been tried the extraction is a
    maximum flow; if it falls short, the vertices reachable from the short
    rows are the source side of a minimum cut.
    """
    nl = len(left_targets)
    need = sum(left_targets)
    if need != sum(right_targets):
        raise PreconditionError(
            f"target sums differ: {need} vs {sum(right_targets)}")
    if need == 0:
        return [dict() for _ in range(nl)]

    order = [sorted(j for j, m in row.items() if m > 0) for row in mult_rows]
    room = list(right_targets)  # what each right vertex still wants
    short = []  # what each row still wants
    taken: list[dict[int, int]] = []
    for row, js, want in zip(mult_rows, order, left_targets):
        got = {}
        for j in js:
            if not want:
                break
            m = min(row[j], want, room[j])
            if m > 0:
                got[j] = m
                room[j] -= m
                want -= m
        taken.append(got)
        short.append(want)
    if not any(short):
        return taken

    holders: list[list[int]] = [[] for _ in room]  # rows with an entry at j
    for i, js in enumerate(order):
        for j in js:
            holders[j].append(i)

    def search(starts: list[int]) -> tuple[dict[int, int], dict[int, int],
                                           int]:
        """Breadth first from the rows ``starts``: ``reached_by[j]`` is the
        row whose forward step reached right vertex j, ``via[x]`` the right
        vertex row x was reached back through (-1 for a start), and the
        last item the first right vertex reached that still wants more, or
        -1 if none is reachable."""
        reached_by: dict[int, int] = {}
        via = dict.fromkeys(starts, -1)
        for x in starts:  # the loop reaches appended rows
            row, got = mult_rows[x], taken[x]
            for j in order[x]:
                if j in reached_by or got.get(j, 0) == row[j]:
                    continue
                reached_by[j] = x
                if room[j]:
                    return reached_by, via, j
                for y in holders[j]:
                    if y not in via and taken[y].get(j):
                        via[y] = j
                        starts.append(y)
        return reached_by, via, -1

    for i in range(nl):
        while short[i]:
            reached_by, via, end = search([i])
            if end < 0:
                break
            # the path back from ``end`` to row i, and what it can carry
            amount = min(short[i], room[end])
            j = end
            while True:
                x = reached_by[j]
                amount = min(amount, mult_rows[x][j] - taken[x].get(j, 0))
                if x == i:
                    break
                j = via[x]
                amount = min(amount, taken[x][j])
            j = end
            while True:
                x = reached_by[j]
                got = taken[x]
                got[j] = got.get(j, 0) + amount
                if x == i:
                    break
                j = via[x]
                got[j] -= amount
                if not got[j]:
                    del got[j]
            room[end] -= amount
            short[i] -= amount
    if any(short):
        # no right vertex that wants more is reachable from the short rows
        reached_by, via, _ = search([i for i in range(nl) if short[i]])
        left_set = frozenset(i + 1 for i in via)
        right_set = frozenset(j + 1 for j in reached_by)
        raise ExtractionInfeasible(
            f"degree targets infeasible: flow {need - sum(short)} < demand "
            f"{need}; violated cut isolates left vertices {sorted(left_set)}",
            left_set, right_set)
    return taken


# ---------------------------------------------------------------------------
# Splits on outline rectangles


def _shared(cell: dict[int, int], singles: Sequence[dict[int, int]],
            ) -> dict[int, int]:
    """``cell``, or the shared map in ``singles`` if it holds one symbol once.

    Count maps are never changed in place, so the n^2 single-symbol cells
    left after all line splits can share one map per symbol; ``singles[s]``
    is ``{s: 1}``.
    """
    if len(cell) == 1:
        for s, m in cell.items():
            if m == 1:
                return singles[s]
    return cell


def _row_extraction(row_cells: Sequence[dict[int, int]], a: int,
                    col_parts: Sequence[int], sym_parts: Sequence[int],
                    singles: Sequence[dict[int, int]],
                    ) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Split ``a`` units off one row-class; returns (unit cells, rest cells).

    Cells are count maps without zero counts, as outlines store them.
    """
    taken = _solve_extraction(row_cells, [a * q for q in col_parts],
                              [0] + [a * r for r in sym_parts])
    unit_cells: list[dict[int, int]] = []
    rest_cells: list[dict[int, int]] = []
    for cell, got in zip(row_cells, taken):
        rest = dict(cell)
        for s, m in got.items():
            left = rest[s] - m
            if left:
                rest[s] = left
            else:
                del rest[s]
        unit_cells.append(_shared(got, singles))
        rest_cells.append(_shared(rest, singles))
    return unit_cells, rest_cells


# ---------------------------------------------------------------------------
# Full lift


def _pair_walk(right: Sequence[int], n: int,
               ) -> tuple[list[int] | None, list[int] | None, list[int]]:
    """Split a bipartite multigraph of even degrees into two halves, each
    with half of every vertex's degree (Gabow 1976; Alon 2003).

    Edges are numbered so that pair q, edges 2q and 2q + 1, leaves one left
    vertex; ``right[e]`` is the right vertex of edge e, in [0, n).  One pass
    in edge order pairs consecutive edges at each right vertex, holding one
    open edge per vertex.  Following the pairs alternately walks the graph
    as closed trails, each starting at the lowest unwalked pair by walking
    edge 2q from left to right.

    Returns ``(first, second, odd)``: for every pair q, ``first[q]`` is
    the right vertex of its edge walked from left to right and
    ``second[q]`` that of its edge walked back, so each half lists its
    right vertices grouped by left vertex as ``right`` does, at half the
    length; ``odd`` is -1.  A right vertex of odd degree keeps an edge
    open; then no walk is made, both halves are None and ``odd`` is the
    lowest such vertex, and the callers raise.
    """
    partner = [0] * len(right)
    open_edge = [-1] * n
    for e, v in enumerate(right):
        f = open_edge[v]
        if f < 0:
            open_edge[v] = e
        else:
            partner[e] = f
            partner[f] = e
            open_edge[v] = -1
    if max(open_edge) >= 0:
        return None, None, next(v for v, f in enumerate(open_edge) if f >= 0)
    first = [-1] * (len(right) >> 1)
    second = first[:]
    for q, v in enumerate(first):
        if v >= 0:
            continue
        # edge e is walked left to right, to v; its partner at v is walked
        # back, and the other edge of that partner's pair p is walked next
        start = e = q << 1
        v = right[e]
        while True:
            e = partner[e] ^ 1
            p = e >> 1
            second[p] = v
            v = first[p] = right[e]
            if e == start:
                break
    return first, second, -1


def _halve(cells: Sequence[dict[int, int]], singles: Sequence[dict[int, int]],
           ) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Split a line class of even size into two classes of half its size.

    The class is a multigraph on (cell index) x (symbol) whose every degree
    is a multiple of its size, so every degree is even.  Each half takes
    ``m // 2`` of every entry.  The entries with odd ``m`` leave one
    residual edge each, and every vertex of that residual graph still has
    even degree; :func:`_pair_walk` splits it, with a cell's residual edges
    in symbol order, into the edges walked from cell to symbol (first
    half) and back (second half).  A cell or symbol left with an odd
    residual degree raises :class:`InternalError`.
    """
    first: list[dict[int, int] | None] = []
    second: list[dict[int, int] | None] = []
    # residual edges, flat and grouped by cell in symbol order; every cell
    # has an even number, so edge e's cell partner is e ^ 1, and pair q is
    # edges 2q and 2q + 1.  ``spans`` lists (cell, its first pair).
    edge_sym: list[int] = []
    spans: list[tuple[int, int]] = []
    for c, cell in enumerate(cells):
        if len(cell) == 1:
            (s, m), = cell.items()
            if not m & 1:
                # untouched by the walk below, so both halves share one map
                half = singles[s] if m == 2 else {s: m >> 1}
                first.append(half)
                second.append(half)
                continue
        half = None
        odd = []
        for s, m in cell.items():
            if m > 1:
                if half is None:
                    half = {}
                half[s] = m >> 1
            if m & 1:
                odd.append(s)
        if not odd:
            first.append(half)
            second.append(half)
            continue
        if len(odd) & 1:
            raise InternalError(
                f"cell {c} of a line class being halved has odd residual "
                f"degree; the outline being lifted is corrupt")
        odd.sort()
        first.append(half)
        second.append(half and dict(half))
        spans.append((c, len(edge_sym) >> 1))
        edge_sym += odd
    out, back, bad = _pair_walk(edge_sym, len(singles))
    if out is None:
        raise InternalError(
            f"symbol {bad} of a line class being halved has odd "
            f"residual degree; the outline being lifted is corrupt")
    spans.append((len(cells), len(out)))
    for (c, lo), (_, hi) in zip(spans, spans[1:]):
        a = first[c]
        if a is None:
            if hi - lo == 1:
                first[c] = singles[out[lo]]
                second[c] = singles[back[lo]]
                continue
            a = first[c] = {}
            b = second[c] = {}
        else:
            b = second[c]
        for s in out[lo:hi]:
            a[s] = a.get(s, 0) + 1
        for s in back[lo:hi]:
            b[s] = b.get(s, 0) + 1
    return first, second


def _halvings(cells: Sequence[dict[int, int]], p: int, stop: int,
              singles: Sequence[dict[int, int]],
              ) -> Iterator[Sequence[dict[int, int]]]:
    """Yield the blocks of ``min(p, stop)`` rows that halving a row class of
    size ``p``, a power of two, on its count maps makes, first half first."""
    if p <= stop:
        yield cells
        return
    for half in _halve(cells, singles):
        yield from _halvings(half, p >> 1, stop, singles)


def _cut_rows_to_blocks(rows: Sequence[Sequence[dict[int, int]]],
                        row_parts: Sequence[int], col_parts: Sequence[int],
                        sym_parts: Sequence[int],
                        singles: Sequence[dict[int, int]],
                        ) -> tuple[list[Sequence[dict[int, int]]], list[int]]:
    """Cut every row class into power-of-two blocks, largest first; returns
    the blocks' cells and sizes.

    A class of size p takes popcount(p) - 1 extractions, each on one cell
    per column class, so none is larger than the outline.
    """
    cells: list[Sequence[dict[int, int]]] = []
    parts: list[int] = []
    for row, p in zip(rows, row_parts):
        while p & (p - 1):
            a = 1 << (p.bit_length() - 1)
            block, row = _row_extraction(row, a, col_parts, sym_parts,
                                         singles)
            cells.append(block)
            parts.append(a)
            p -= a
        cells.append(row)
        parts.append(p)
    return cells, parts


def _split_rows_to_units(rows: Sequence[Sequence[dict[int, int]]],
                         row_parts: Sequence[int],
                         singles: Sequence[dict[int, int]],
                         ) -> list[Sequence[dict[int, int]]]:
    """Halve every row class, each a power of two, down to unit rows."""
    return [unit for row, p in zip(rows, row_parts)
            for unit in _halvings(row, p, 1, singles)]


# A row block of at most this many rows finishes the last line phase on a
# flat list; a larger one halves its count maps first, which skip the
# entries held an even number of times.  On the order-1000 build (200^3
# 100^3 50^2; 2 cores, Python 3.11, fastest of five runs, in two sets)
# that phase took 0.79-0.87 s with 8, 1.08-1.13 s with count maps down to
# single rows and 1.28-1.59 s with every block flat.
_FLAT_ROWS = 8


def _split_rows_to_labels(rows: Sequence[Sequence[dict[int, int]]],
                          row_parts: Sequence[int],
                          singles: Sequence[dict[int, int]],
                          ) -> list[list[int]]:
    """Halve every row class, each a power of two, down to unit rows, when
    every column is a unit; returns the grid of symbol classes.

    A block of more than ``_FLAT_ROWS`` rows is halved by :func:`_halve`.
    Each smaller one lists, cell by cell in symbol order, every symbol
    class its cells hold, so that cell c of a block of p rows owns entries
    ``c*p .. c*p + p - 1``, and :func:`_factors` splits that flat list into
    label rows (:func:`_label_block`).
    """
    labels: list[list[int]] = []
    n = len(singles)
    for row, p in zip(rows, row_parts):
        for block in _halvings(row, p, _FLAT_ROWS, singles):
            _label_block(block, min(p, _FLAT_ROWS), n, labels)
    return labels


def _label_block(cells: Sequence[dict[int, int]], p: int, n: int,
                 labels: list[list[int]]) -> None:
    """Append the ``p`` label rows of a row block of size ``p``, a power of
    two, over unit columns to ``labels``; symbol classes are ids below n."""
    flat: list[int] = []
    for cell in cells:
        for s in cell if len(cell) == 1 else sorted(cell):
            m = cell[s]
            if m == 1:
                flat.append(s)
            else:
                flat += [s] * m
    if len(flat) != p * len(cells):
        raise InternalError(
            f"a row block of {p} rows has a cell of another size; the "
            f"outline being lifted is corrupt")
    labels += _factors(flat, p, n)


def _factors(cells: list[int], r: int, n: int) -> list[list[int]]:
    """Split a class into r factors (König): r lists of one right vertex
    per left vertex, each with 1/r of every right vertex's degree.

    ``cells`` lists the r right vertices, ids in [0, n), of each left
    vertex in turn.  An even r is halved by :func:`_pair_walk`, the half
    walked out first, and at r = 2 the two halves are the factors; an odd
    r > 1 first takes one :func:`_perfect_matching`, which needs every
    right degree to be r.  A right vertex of odd degree raises;
    :func:`_write_class` checks its classes first, so only a row block's
    symbol class can.
    """
    if r & 1:
        if r == 1:
            return [cells]
        rows = [cells[i:i + r] for i in range(0, len(cells), r)]
        match = _perfect_matching(rows, n)
        for row, j in zip(rows, match):
            row.remove(j)
        return [match, *_factors(list(chain.from_iterable(rows)), r - 1, n)]
    first, second, odd = _pair_walk(cells, n)
    if first is None:
        raise InternalError(
            f"symbol {odd} of a row block being halved has odd degree; the "
            f"outline being lifted is corrupt")
    if r == 2:
        return [first, second]
    return _factors(first, r >> 1, n) + _factors(second, r >> 1, n)


def _perfect_matching(adj: list[list[int]], n: int) -> list[int]:
    """One perfect matching of a regular bipartite graph, rows to columns.

    ``adj[i]`` lists the columns of row i, ids in [0, n); a graph whose
    rows are a subset of a grid's has as many columns in use as rows, and
    ``n`` need only bound their ids.  A greedy pass matches each row in
    turn to the free column with the fewest rows still to come (the first
    such in ``adj`` order), so the columns that later rows could still take
    stay free; breadth-first augmenting paths then match the rows it left.
    On the structured classes of the circulant seeds, the first free column
    instead left searches about eight times wider.
    """
    rows = len(adj)
    match_row = [-1] * rows
    match_col = [-1] * n
    # every column of a regular graph has the rows' degree
    to_come = [len(adj[0])] * n
    for i, row in enumerate(adj):
        best = -1
        fewest = n
        for j in row:
            left = to_come[j] - 1
            to_come[j] = left
            if left < fewest and match_col[j] < 0:
                best = j
                fewest = left
        if best >= 0:
            match_row[i] = best
            match_col[best] = i
    # one search per row the greedy pass left: a column is seen in the
    # current search when it holds that search's stamp, and each row the
    # search reaches is reached once, through (parent_row, parent_col)
    seen = [0] * n
    parent_row = [0] * rows
    parent_col = [0] * rows
    stamp = 0
    for i in range(rows):
        if match_row[i] >= 0:
            continue
        stamp += 1
        queue = [i]
        free_col = -1
        last_row = -1
        for x in queue:  # breadth first: the loop reaches appended rows
            for j in adj[x]:
                if seen[j] == stamp:
                    continue
                seen[j] = stamp
                y = match_col[j]
                if y < 0:
                    free_col = j
                    last_row = x
                    break
                parent_row[y] = x
                parent_col[y] = j
                queue.append(y)
            if free_col >= 0:
                break
        if free_col < 0:
            raise InternalError(
                "no perfect matching in a regular bipartite graph; the "
                "outline being lifted is corrupt")
        x, j = last_row, free_col
        while True:
            match_row[x] = j
            match_col[j] = x
            if x == i:
                break
            x, j = parent_row[x], parent_col[x]
    return match_row


def _write_class(cells: list[int], l: int, symbols: Sequence[int],
                 out: list[list[int]]) -> None:
    """Write class ``l`` into the rows ``out``, ``symbols[i]`` on factor i
    of :func:`_factors`: row ``out[i]`` holds the class in the columns
    ``cells[i*r:(i+1)*r]``, r = len(symbols), and every column it holds
    must hold it r times."""
    r = len(symbols)
    for side, wrong in (("rows", len(cells) != r * len(out)),
                        # distinct columns suffice for r = 1, and are cheaper
                        ("columns", len(set(cells)) != len(cells) if r == 1
                         else set(Counter(cells).values()) != {r})):
        if wrong:
            raise InternalError(
                f"class {l} did not resolve to a transversal" if r == 1 else
                f"class {l} is not {r}-regular on its {side}; the outline "
                f"being lifted is corrupt")
    for sym, factor in zip(symbols, _factors(cells, r, len(out[0]))):
        for row, j in zip(out, factor):
            row[j] = sym


def _split_symbols_to_units(labels: list[list[int]],
                            sym_parts: Sequence[int],
                            blocks: Sequence[tuple[int, int, int]] = (),
                            ) -> list[list[int]]:
    """Resolve each symbol class into final symbols (:func:`_write_class`).

    ``blocks`` lists pure blocks as (l, x, y): the r_l x r_l block of cells
    labelled l whose first cell is (x, y), 0-based, and which holds every
    cell of class l in its rows and columns.  Each is written as the cyclic
    square ``base + (x + y) mod r_l + 1`` over l's symbols, and class l is
    split only on its other rows, which are r_l-regular on the columns
    outside its blocks.
    """
    n = len(labels)
    grid = [[0] * n for _ in range(n)]
    first = list(accumulate(sym_parts, initial=0))
    pure: list[list[int]] = [[] for _ in first]  # first rows of the blocks
    for l, x0, y0 in blocks:
        r = sym_parts[l - 1]
        cyclic = list(range(first[l - 1] + 1, first[l] + 1)) * 2
        for x in range(r):
            grid[x0 + x][y0:y0 + r] = cyclic[x:x + r]
        pure[l].append(x0)
    # every class flat: row i's columns of class l are
    # ``flats[l][i * r_l:(i + 1) * r_l]``, as the lengths after each row
    # check, so a class costs one list, not one per row
    parts = [0, *sym_parts]
    flats: list[list[int] | None] = [[] for _ in first]
    adds = [flat.append for flat in flats]
    held = [0] * len(first)
    cols = list(range(n))  # one int object per column for all the lists
    for row in labels:
        for j, l in zip(cols, row):
            adds[l](j)
        held = list(map(add, held, parts))
        if list(map(len, flats)) != held:
            l = next(l for l, flat in enumerate(flats)
                     if len(flat) != held[l])
            raise InternalError(
                f"class {l} is not {parts[l]}-regular on its rows; the "
                f"outline being lifted is corrupt")
    del adds
    for l, r in enumerate(sym_parts, start=1):
        cells, out = flats[l], grid
        flats[l] = None  # consumed
        if pure[l]:
            # a pure block's rows hold class l only inside the block
            kept_cells: list[int] = []
            out = []
            lo = 0
            for x0 in sorted(pure[l]) + [n]:
                kept_cells += cells[lo * r:x0 * r]
                out += grid[lo:x0]
                lo = x0 + r
            if not out:
                continue
            cells = kept_cells
        _write_class(cells, l, range(first[l - 1] + 1, first[l] + 1), out)
    return grid


def _pure_blocks(outline: OutlineRectangle) -> list[tuple[int, int, int]]:
    """The blocks (l, x, y) of :func:`_split_symbols_to_units` that the
    lift of ``outline`` makes: one per cell (I, J) holding a single class l,
    where p_I = q_J = r_l.

    Such a cell holds r_l^2 = p_I * r_l copies of l, which is every copy in
    row class I (and likewise in column class J), so once the lines are
    units its r_l x r_l cells are a component of class l.
    """
    r_parts = outline.sym_partition.parts
    blocks = []
    x = 0
    for p, row in zip(outline.row_partition.parts, outline.counts):
        y = 0
        for q, cell in zip(outline.col_partition.parts, row):
            if p == q and len(cell) == 1:
                l = next(iter(cell))
                if r_parts[l - 1] == p:
                    blocks.append((l, x, y))
            y += q
        x += p
    return blocks


def lift(outline: OutlineRectangle) -> LatinSquare:
    """A latin square whose reduction modulo (P, Q, R) is ``outline``.

    Cuts the row classes, then the column classes, into power-of-two
    blocks; halves the columns to singletons, then the rows (by
    transposing); then writes the pure blocks (:func:`_pure_blocks`) and
    splits the rest of every symbol class.  The result is deterministic,
    and the round trip is exact: the output's amalgamation equals the
    input cellwise.
    """
    bad = validate_outline(outline)
    if bad:
        raise PreconditionError(f"not an outline rectangle: {bad[0]}")
    p_parts, q_parts, r_parts = (outline.row_partition.parts,
                                 outline.col_partition.parts,
                                 outline.sym_partition.parts)
    # cells are count maps, replaced and never changed in place, so those a
    # split leaves holding one symbol once share the maps in ``singles``
    singles = [{s: 1} for s in range(len(r_parts) + 1)]
    cells, row_blocks = _cut_rows_to_blocks(outline.counts, p_parts, q_parts,
                                            r_parts, singles)
    cells, col_blocks = _cut_rows_to_blocks(list(zip(*cells)), q_parts,
                                            row_blocks, r_parts, singles)
    cells = _split_rows_to_units(cells, col_blocks, singles)
    labels = _split_rows_to_labels(list(zip(*cells)), row_blocks, singles)
    del cells
    grid = _split_symbols_to_units(labels, r_parts, _pure_blocks(outline))
    square = LatinSquare(grid)
    got = _amalgamate_labels(grid, _group_map(p_parts), _group_map(q_parts),
                             _group_map(r_parts), outline.shape)
    if any(tuple(mine) != row for mine, row in zip(got, outline.counts)):
        raise InternalError("lift round trip failed to reproduce the outline")
    return square


def lift_to_realization(outline: OutlineRectangle, partition: Partition,
                        ) -> tuple[LatinSquare, SubsquareCertificate]:
    """Lift an outline square with diagonal cells h_i^2 {i} to a realization.

    The diagonal condition forces every symbol-class-i occurrence in row
    class i into the diagonal cell, so the lifted square carries block i as a
    subsquare on rows, columns and symbols P[i]; the lift writes it as the
    cyclic square on them.  The certificate is returned alongside and
    re-verified.
    """
    if (outline.row_partition != partition or
            outline.col_partition != partition or
            outline.sym_partition != partition):
        raise PreconditionError(
            "outline is not an outline square for the requested partition")
    for i in range(1, partition.k + 1):
        h = partition.part(i)
        if outline.counts[i - 1][i - 1] != {i: h * h}:
            raise RealizationError(
                f"diagonal cell ({i},{i}) must hold {h * h} copies of symbol "
                f"{i}", block=i, cell=(i, i))
    square = lift(outline)
    certificate = verify_realization(square, partition, normal_form=True)
    return square, certificate


def lift_labels_to_realization(labels: list[list[int]], partition: Partition,
                               ) -> tuple[LatinSquare, SubsquareCertificate]:
    """:func:`lift_to_realization` of the outline square with unit rows and
    columns whose cell (i, j) holds ``labels[i-1][j-1]`` once, without
    building it: only the symbol phase of :func:`lift` runs.

    The labels 1..L are read off the grid's first row as a partition that
    must split the parts of ``partition`` into consecutive labels: label l
    stands for r_l symbols, and the labels of part i for its h_i symbols.
    So a grid of class labels (r_l = h_l) and a finer one both lift; a
    label held once per line takes one symbol, in the transversal write.
    The grid is a construction's output, so a grid whose lines do not hold
    each label l exactly r_l times (the outline conditions), or whose
    diagonal block i holds a label of another part, raises
    :class:`InternalError` before any symbol is placed.  A diagonal block
    holding one label is written as the cyclic square on its symbols.  The
    round trip, :func:`lift`'s last check, is here that every cell's symbol
    lies in its label's class.
    """
    held = Counter(labels[0])
    label_parts = [held[l] for l in range(1, len(held) + 1)]
    # the labels of part i run up to the label whose symbols end where the
    # part's do
    ends = list(accumulate(partition.parts))
    last_label = {s: l for l, s in enumerate(accumulate(label_parts),
                                             start=1)}
    if sorted(held) != list(range(1, len(held) + 1)) or \
            sum(label_parts) != ends[-1] or \
            any(end not in last_label for end in ends):
        raise InternalError(
            f"the label grid's first row does not split {partition} into "
            f"consecutive labels")
    _check_labels(labels, Partition(label_parts))
    blocks = []
    lo = 0
    a = 1
    for i, (h, end) in enumerate(zip(partition.parts, ends), start=1):
        b = last_label[end]
        for row in labels[lo:lo + h]:
            seg = row[lo:lo + h]
            if min(seg) < a or max(seg) > b:
                raise InternalError(
                    f"diagonal block {i} of the label grid holds another "
                    f"label")
        if a == b:
            blocks.append((a, lo, lo))
        lo += h
        a = b + 1
    grid = _split_symbols_to_units(labels, label_parts, blocks)
    class_of = _group_map(label_parts)
    for row, want in zip(grid, labels):
        if list(map(class_of.__getitem__, row)) != want:
            raise InternalError(
                "a symbol left its class in the symbol phase; the label "
                "grid being lifted is corrupt")
    square = LatinSquare(grid)
    certificate = verify_realization(square, partition, normal_form=True)
    return square, certificate

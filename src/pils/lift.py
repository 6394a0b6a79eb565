"""Lifting outline rectangles back into latin squares.

A reduction of a latin square modulo (P, Q, R) is an outline rectangle, and
every outline rectangle arises this way.  The classical existence statement
gives no algorithm, so this module supplies one.  First every row class,
then every column class, is cut into power-of-two blocks, largest first.
Each cut is an exact-degree subgraph extraction, solved as a feasible-flow
problem with one left vertex per cross class or block, so no flow solve is
larger than the outline.  Then every column class is split into units,
then every row class (on the transpose), then every symbol class.  A line
class of even size p is a multigraph on (cross class) x (symbol class)
whose every degree is a multiple of p, so an Euler partition halves it
exactly.  Once every line is a singleton, each symbol class is an r-regular
bipartite graph on rows x columns.  An outline cell (I, J) that holds one
class l only, with p_I = q_J = r_l, holds every copy of l in its row and
column classes, so its r_l x r_l cells are then a whole component of the
class: a pure block, written directly as the cyclic square on l's symbols.
Every diagonal cell of a construction's outline square is one.  The rest
of each class is halved the same way, into two (r/2)-regular classes, down
to transversals; an odd degree first gives one symbol a perfect matching.
Both halvings run one pairing walk, :func:`_pair_walk`, on the flat list of
each edge's right vertex.  On a valid outline rectangle no extraction,
halving or matching can fail; any failure is an internal invariant
violation.

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
sparse multiplicity row the flow solver takes (symbol l is right vertex l;
vertex 0 is an unused placeholder), so a split neither expands a cell to
h_i * h_j entries nor recounts one.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import accumulate, chain
from operator import add
from typing import Sequence

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
    side of that cut: those reachable from the source in the residual
    network of a maximum flow.
    """

    def __init__(self, message: str, left_set: frozenset[int],
                 right_set: frozenset[int]):
        super().__init__(message)
        self.left_set = left_set
        self.right_set = right_set


# ---------------------------------------------------------------------------
# Max flow (Dinic, deterministic adjacency order)


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        e = len(self.to)
        self.adj[u].append(e)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(e + 1)
        self.to.append(u)
        self.cap.append(0)
        return e

    def max_flow(self, s: int, t: int) -> int:
        to, cap, adj = self.to, self.cap, self.adj
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                lu = level[u] + 1
                for e in adj[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = lu
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n
            nodes = [s]
            edges: list[int] = []
            while nodes:
                u = nodes[-1]
                if u == t:
                    aug = min(cap[e] for e in edges)
                    total += aug
                    retreat = 0
                    for idx, e in enumerate(edges):
                        cap[e] -= aug
                        cap[e ^ 1] += aug
                        if cap[e] == 0 and retreat == 0:
                            retreat = idx + 1
                    del edges[retreat - 1:]
                    del nodes[retreat:]
                    continue
                advanced = False
                lu = level[u] + 1
                row = adj[u]
                while it[u] < len(row):
                    e = row[it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == lu:
                        nodes.append(v)
                        edges.append(e)
                        advanced = True
                        break
                    it[u] += 1
                if not advanced:
                    level[u] = -1
                    nodes.pop()
                    if edges:
                        edges.pop()

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _solve_extraction(mult_rows: Sequence[dict[int, int]], left_targets:
                      Sequence[int], right_targets: Sequence[int],
                      ) -> list[dict[int, int]]:
    """Exact-degree extraction on sparse multiplicity rows.

    ``mult_rows[i]`` maps right vertex (0-based) to multiplicity.  Returns
    rows of the extracted sub-multigraph in the same shape, or raises
    :class:`ExtractionInfeasible` with a violated cut.
    """
    nl, nr = len(left_targets), len(right_targets)
    need = sum(left_targets)
    if need != sum(right_targets):
        raise PreconditionError(
            f"target sums differ: {need} vs {sum(right_targets)}")
    if need == 0:
        return [dict() for _ in range(nl)]

    source = nl + nr
    sink = source + 1
    net = _Dinic(sink + 1)
    for i, t in enumerate(left_targets):
        net.add_edge(source, i, t)
    mid_edges: list[list[tuple[int, int]]] = []
    for i, row in enumerate(mult_rows):
        here = []
        for j in sorted(row):
            m = row[j]
            if m > 0:
                here.append((j, net.add_edge(i, nl + j, m)))
        mid_edges.append(here)
    for j, t in enumerate(right_targets):
        net.add_edge(nl + j, sink, t)
    flow = net.max_flow(source, sink)
    if flow != need:
        reach = net.reachable(source)
        left_set = frozenset(i + 1 for i in range(nl) if i in reach)
        right_set = frozenset(j + 1 for j in range(nr) if nl + j in reach)
        raise ExtractionInfeasible(
            f"degree targets infeasible: flow {flow} < demand {need}; "
            f"violated cut isolates left vertices {sorted(left_set)}",
            left_set, right_set)
    out: list[dict[int, int]] = []
    for i, here in enumerate(mid_edges):
        taken = {}
        for j, e in here:
            used = mult_rows[i][j] - net.cap[e]
            if used:
                taken[j] = used
        out.append(taken)
    return out


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


class _LiftState:
    """Mutable working copy of an outline during the line splits.

    Each cell is a ``{symbol: count}`` map without zero counts, starting
    from the outline's stored maps.  Cells are replaced, never changed in
    place; cells a split leaves holding one symbol once are the shared maps
    in ``singles``.
    """

    __slots__ = ("row_parts", "col_parts", "sym_parts", "singles", "cells")

    def __init__(self, outline: OutlineRectangle):
        self.row_parts = list(outline.row_partition.parts)
        self.col_parts = list(outline.col_partition.parts)
        self.sym_parts = list(outline.sym_partition.parts)
        self.singles = [{s: 1} for s in range(len(self.sym_parts) + 1)]
        self.cells = [list(row) for row in outline.counts]

    def transpose(self) -> None:
        self.row_parts, self.col_parts = self.col_parts, self.row_parts
        self.cells = [list(col) for col in zip(*self.cells)]


def _pair_walk(right: Sequence[int], n: int,
               ) -> tuple[list[int] | None, list[int]]:
    """Split a bipartite multigraph of even degrees into two halves, each
    with half of every vertex's degree (Gabow 1976; Alon 2003).

    Edges are numbered so that pair q, edges 2q and 2q + 1, leaves one left
    vertex; ``right[e]`` is the right vertex of edge e, in [0, n).  One pass
    in edge order pairs consecutive edges at each right vertex, holding one
    open edge per vertex.  Following the pairs alternately walks the graph
    as closed trails, each starting at the lowest unwalked pair by walking
    edge 2q from left to right.

    Returns ``(back, pairs)``: ``pairs[v]`` is the number of pairs at right
    vertex v, and ``back`` lists, for every pair q, its edge walked back,
    from right to left; the other, ``back[q] ^ 1``, is walked from left to
    right.  (The edges walked back are the stored partners, so the list
    adds no int objects.)  A right vertex of odd degree has ``pairs[v]`` =
    -1, and then no walk is made and ``back`` is None; the callers raise.
    """
    partner = [0] * len(right)
    open_edge = [-1] * n
    pairs = [0] * n
    for e, v in enumerate(right):
        f = open_edge[v]
        if f < 0:
            open_edge[v] = e
        else:
            partner[e] = f
            partner[f] = e
            open_edge[v] = -1
            pairs[v] += 1
    if max(open_edge) >= 0:
        for v, f in enumerate(open_edge):
            if f >= 0:
                pairs[v] = -1
        return None, pairs
    back = [-1] * (len(right) >> 1)
    for q, f in enumerate(back):
        if f >= 0:
            continue
        # edge e is walked left to right; its right partner f is walked
        # back, and the left partner of f is walked next
        start = e = q << 1
        while True:
            f = partner[e]
            back[f >> 1] = f
            e = f ^ 1
            if e == start:
                break
    return back, pairs


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
    back, pairs = _pair_walk(edge_sym, len(singles))
    if back is None:
        raise InternalError(
            f"symbol {pairs.index(-1)} of a line class being halved has odd "
            f"residual degree; the outline being lifted is corrupt")
    spans.append((len(cells), len(back)))
    for (c, lo), (_, hi) in zip(spans, spans[1:]):
        a = first[c]
        if a is None:
            if hi - lo == 1:
                e = back[lo]
                first[c] = singles[edge_sym[e ^ 1]]
                second[c] = singles[edge_sym[e]]
                continue
            a = first[c] = {}
            b = second[c] = {}
        else:
            b = second[c]
        for e in back[lo:hi]:
            s = edge_sym[e ^ 1]
            a[s] = a.get(s, 0) + 1
            s = edge_sym[e]
            b[s] = b.get(s, 0) + 1
    return first, second


def _split_class(cells: Sequence[dict[int, int]], p: int,
                 singles: Sequence[dict[int, int]],
                 out: list[Sequence[dict[int, int]]]) -> None:
    """Append the ``p`` unit rows of a row class of size ``p``, a power of
    two, to ``out``, halving it down to units."""
    if p == 1:
        out.append(cells)
        return
    for half in _halve(cells, singles):
        _split_class(half, p >> 1, singles, out)


def _cut_rows_to_blocks(state: _LiftState) -> None:
    """Cut every row class into power-of-two blocks, largest first.

    A class of size p takes popcount(p) - 1 flow solves, each on one cell
    per column class, so no solve is larger than the outline.
    """
    cells: list[Sequence[dict[int, int]]] = []
    parts: list[int] = []
    for row, p in zip(state.cells, state.row_parts):
        while p & (p - 1):
            a = 1 << (p.bit_length() - 1)
            block, row = _row_extraction(row, a, state.col_parts,
                                         state.sym_parts, state.singles)
            cells.append(block)
            parts.append(a)
            p -= a
        cells.append(row)
        parts.append(p)
    state.cells = cells
    state.row_parts = parts


def _split_rows_to_units(state: _LiftState) -> None:
    """Halve every row class, each a power of two, down to unit rows."""
    cells: list[Sequence[dict[int, int]]] = []
    for row, p in zip(state.cells, state.row_parts):
        _split_class(row, p, state.singles, cells)
    state.cells = cells
    state.row_parts = [1] * len(cells)


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


def _peel_class(adj: list[list[int]], l: int, symbols: Sequence[int],
                out: list[list[int]]) -> None:
    """Write the cells of class ``l`` into ``out`` as transversals, one per
    entry of ``symbols``.

    ``adj[i]`` lists the columns of row ``out[i]`` whose cell holds the
    class; it is consumed.  ``out`` may be some of a grid's rows, with the
    columns the class holds there.  The class must be an r-regular
    bipartite graph on those rows x columns, r = len(symbols).  An odd
    r > 1 gives ``symbols[0]`` one perfect matching and goes on with the
    rest; an even r is halved by :func:`_halve_class`.  So a class costs
    one matching per odd degree met on the way down, and none when r is a
    power of two.
    """
    r = len(symbols)
    n = len(out[0])
    if r > 1 and r & 1:
        sym = symbols[0]
        match = _perfect_matching(adj, n)
        for i, j in enumerate(match):
            out[i][j] = sym
            adj[i].remove(j)
        symbols = symbols[1:]
        r -= 1
    if set(map(len, adj)) != {r}:
        raise InternalError(
            f"class {l} did not resolve to a transversal" if r == 1 else
            f"class {l} is not {r}-regular on its rows; the outline being "
            f"lifted is corrupt")
    cells = list(chain.from_iterable(adj))
    if r == 1:
        _write_transversal(cells, l, symbols[0], out)
    else:
        _halve_class(cells, n, l, symbols, out)


def _write_transversal(cells: list[int], l: int, sym: int,
                       out: list[list[int]]) -> None:
    """Write ``sym`` into column ``cells[i]`` of ``out[i]`` for every row,
    the columns of a class of degree 1; they must be distinct."""
    if len(set(cells)) != len(cells):
        raise InternalError(f"class {l} did not resolve to a transversal")
    for row, j in zip(out, cells):
        row[j] = sym


def _halve_class(cells: list[int], n: int, l: int, symbols: Sequence[int],
                 out: list[list[int]]) -> None:
    """:func:`_peel_class` for an even degree r = len(symbols), with the
    class flat: row ``out[i]`` holds the columns ``cells[i*r:(i+1)*r]``, ids
    in [0, n).

    :func:`_pair_walk` splits the class into two (r/2)-regular halves, the
    cells walked from row to column and those walked back, which take the
    first and second halves of ``symbols``; a class of degree 2 writes both
    straight into ``out``.  Every column the class holds must hold it r
    times, which the walk's pair counts show.
    """
    r = len(symbols)
    h = r >> 1
    back, pairs = _pair_walk(cells, n)
    if back is None or not set(pairs) <= {0, h}:
        raise InternalError(
            f"class {l} is not {r}-regular on its columns; the outline "
            f"being lifted is corrupt")
    if h == 1:
        a, b = symbols
        for row, e in zip(out, back):
            row[cells[e ^ 1]] = a
            row[cells[e]] = b
        return
    first = [cells[e ^ 1] for e in back]
    second = [cells[e] for e in back]
    del back, pairs  # free the walk's lists before the halves recurse
    for half, part in ((first, symbols[:h]), (second, symbols[h:])):
        if h & 1:
            _peel_class([half[i:i + h] for i in range(0, len(half), h)], l,
                        part, out)
        else:
            _halve_class(half, n, l, part, out)


def _split_symbols_to_units(labels: list[list[int]],
                            sym_parts: Sequence[int],
                            blocks: Sequence[tuple[int, int, int]] = (),
                            ) -> list[list[int]]:
    """Resolve each symbol class into final symbols by Euler halving, with
    one perfect matching per odd degree (see :func:`_peel_class`).

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
        symbols = range(first[l - 1] + 1, first[l] + 1)
        if r == 1:
            _write_transversal(cells, l, symbols[0], out)
        elif r & 1:
            _peel_class([cells[i:i + r] for i in range(0, len(cells), r)], l,
                        symbols, out)
        else:
            _halve_class(cells, n, l, symbols, out)
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
    state = _LiftState(outline)
    _cut_rows_to_blocks(state)
    state.transpose()
    _cut_rows_to_blocks(state)
    _split_rows_to_units(state)
    state.transpose()
    _split_rows_to_units(state)
    # every cell is a one-symbol map now, and min reads its symbol
    labels = [list(map(min, row)) for row in state.cells]
    del state
    grid = _split_symbols_to_units(labels, outline.sym_partition.parts,
                                   _pure_blocks(outline))
    square = LatinSquare(grid)
    got = _amalgamate_labels(
        grid, _group_map(outline.row_partition.parts),
        _group_map(outline.col_partition.parts),
        _group_map(outline.sym_partition.parts), outline.shape)
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

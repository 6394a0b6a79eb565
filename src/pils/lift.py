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
bipartite graph on rows x columns.  It is halved the same way, into two
(r/2)-regular classes, down to transversals; an odd degree first gives one
symbol a perfect matching.  Both halvings run one pairing walk,
:func:`_pair_walk`.  On a valid outline rectangle no extraction, halving
or matching can fail; any failure is an internal invariant violation.

A grid of class labels whose every row and column holds class l exactly
r_l times spells out an outline with unit rows and columns, so only the
symbol phase is left; :func:`lift_labels_to_realization` runs it alone.
The engine takes that route when its last outline step is the odd-tail
circulant seed of size h1: the seed is built as such a grid, and
amalgamating it into the outline square only for :func:`lift` to cut and
halve every line class back down to units would redo, cell by cell, what
the seed had already done.

Splits are performed in a fixed order (row cuts, column cuts, column
halvings, row halvings, then symbols, lowest index first) with
deterministic solvers that read cells in symbol order, so lifting is a
pure function of its input.

Every cell is the outline's own ``{symbol: count}`` map, which is the
sparse multiplicity row the flow solver takes (symbol l is right vertex l;
vertex 0 is an unused placeholder), so a split neither expands a cell to
h_i * h_j entries nor recounts one.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Sequence

from .core import (
    InternalError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PreconditionError,
    SubsquareCertificate,
    RealizationError,
    _check_labels,
    _group_map,
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


def _pair_walk(at: Sequence[Sequence[int]]) -> list[int]:
    """Split a bipartite multigraph of even degrees into two halves, each
    with half of every vertex's degree (Gabow 1976; Alon 2003).

    Every vertex must have even degree; the callers check it.  Edges are
    numbered so that pair q, edges 2q and 2q + 1, leaves one left vertex.
    ``at[v]`` lists the edges at right vertex v in increasing order, and
    consecutive edges there are paired too.  Following the pairs
    alternately walks the graph as closed trails, each starting at the
    lowest unwalked pair by walking edge 2q from left to right.  Returns
    ``back``: for every pair q, its edge walked back, from right to left;
    the other, ``back[q] ^ 1``, is walked from left to right.  (The edges
    walked back are the stored partners, so the list adds no int objects.)
    """
    # every right degree is even, so no pair of consecutive edges in
    # right-vertex order straddles two vertices
    by_right = list(chain.from_iterable(at))
    partner = [0] * len(by_right)
    for e, f in zip(by_right[::2], by_right[1::2]):
        partner[e] = f
        partner[f] = e
    back = [-1] * (len(by_right) >> 1)
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
    return back


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
    at: list[list[int]] = [[] for _ in singles]
    for e, s in enumerate(edge_sym):
        at[s].append(e)
    for s, edges in enumerate(at):
        if len(edges) & 1:
            raise InternalError(
                f"symbol {s} of a line class being halved has odd residual "
                f"degree; the outline being lifted is corrupt")
    back = _pair_walk(at)
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

    A greedy pass matches each row in turn to the free column with the
    fewest rows still to come (the first such in ``adj`` order), so the
    columns that later rows could still take stay free; breadth-first
    augmenting paths then match the rows it left.  On the structured
    classes of the circulant seeds, the first free column instead left
    searches about eight times wider.
    """
    match_row = [-1] * n
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
    for i in range(n):
        if match_row[i] >= 0:
            continue
        parent: dict[int, tuple[int, int]] = {}
        seen = [False] * n
        queue = deque([i])
        free_col = -1
        last_row = -1
        while queue and free_col < 0:
            x = queue.popleft()
            for j in adj[x]:
                if seen[j]:
                    continue
                seen[j] = True
                y = match_col[j]
                if y < 0:
                    free_col = j
                    last_row = x
                    break
                parent[y] = (x, j)
                queue.append(y)
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
            x, j = parent[x]
    return match_row


def _peel_class(adj: list[list[int]], l: int, symbols: Sequence[int],
                out: list[list[int]]) -> None:
    """Write the cells of class ``l`` into ``out`` as transversals, one per
    entry of ``symbols``.

    ``adj[i]`` lists the columns of row i whose cell holds the class; it is
    consumed.  The class must be an r-regular bipartite graph on rows x
    columns, r = len(symbols).  An odd r > 1 gives ``symbols[0]`` one
    perfect matching and goes on with the rest; an even r is halved by
    :func:`_halve_class`.  So a class costs one matching per odd degree met
    on the way down, and none when r is a power of two.
    """
    r = len(symbols)
    if r > 1 and r & 1:
        sym = symbols[0]
        match = _perfect_matching(adj, len(adj))
        for i, j in enumerate(match):
            out[i][j] = sym
            adj[i].remove(j)
        symbols = symbols[1:]
        r -= 1
    if r == 1:
        if set(map(len, adj)) != {1} or \
                len(set(chain.from_iterable(adj))) != len(adj):
            raise InternalError(
                f"class {l} did not resolve to a transversal")
        sym = symbols[0]
        for row, (j,) in zip(out, adj):
            row[j] = sym
        return
    if set(map(len, adj)) != {r}:
        raise InternalError(
            f"class {l} is not {r}-regular on its rows; the outline being "
            f"lifted is corrupt")
    _halve_class(list(chain.from_iterable(adj)), len(adj), l, symbols, out)


def _halve_class(cells: list[int], n: int, l: int, symbols: Sequence[int],
                 out: list[list[int]]) -> None:
    """:func:`_peel_class` for an even degree r = len(symbols), with the
    class flat: row i holds the columns ``cells[i*r:(i+1)*r]``.

    :func:`_pair_walk` splits the class into two (r/2)-regular halves, the
    cells walked from row to column and those walked back, which take the
    first and second halves of ``symbols``; a class of degree 2 writes both
    straight into ``out``.
    """
    r = len(symbols)
    at: list[list[int]] = [[] for _ in range(n)]
    for e, j in enumerate(cells):
        at[j].append(e)
    if set(map(len, at)) != {r}:
        raise InternalError(
            f"class {l} is not {r}-regular on its columns; the outline "
            f"being lifted is corrupt")
    back = _pair_walk(at)
    h = r >> 1
    if h == 1:
        a, b = symbols
        for row, e in zip(out, back):
            row[cells[e ^ 1]] = a
            row[cells[e]] = b
        return
    first = [cells[e ^ 1] for e in back]
    second = [cells[e] for e in back]
    del at, back  # free the walk's lists before the halves recurse
    for half, part in ((first, symbols[:h]), (second, symbols[h:])):
        if h & 1:
            _peel_class([half[i:i + h] for i in range(0, len(half), h)], l,
                        part, out)
        else:
            _halve_class(half, n, l, part, out)


def _split_symbols_to_units(labels: list[list[int]],
                            sym_parts: Sequence[int]) -> list[list[int]]:
    """Resolve each symbol class into final symbols by Euler halving, with
    one perfect matching per odd degree (see :func:`_peel_class`)."""
    n = len(labels)
    cols = list(range(n))  # one int object per column for all the lists
    adjs = [[[] for _ in cols] for _ in range(len(sym_parts) + 1)]
    for i, row in enumerate(labels):
        for j, l in zip(cols, row):
            adjs[l][i].append(j)
    grid = [[0] * n for _ in range(n)]
    base = 0
    for l, r in enumerate(sym_parts, start=1):
        _peel_class(adjs[l], l, range(base + 1, base + r + 1), grid)
        base += r
    return grid


def lift(outline: OutlineRectangle) -> LatinSquare:
    """A latin square whose reduction modulo (P, Q, R) is ``outline``.

    Cuts the row classes, then the column classes, into power-of-two
    blocks; halves the columns to singletons, then the rows (by
    transposing); then splits all symbols.  The result is deterministic,
    and the round trip is exact: the output's reduction equals the input
    cellwise.
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
    labels = [[next(iter(cell)) for cell in row] for row in state.cells]
    grid = _split_symbols_to_units(labels, state.sym_parts)
    square = LatinSquare(grid)
    check = core_reduce(square, outline.row_partition, outline.col_partition,
                        outline.sym_partition)
    if check.counts != outline.counts:
        raise InternalError("lift round trip failed to reproduce the outline")
    return square


def lift_to_realization(outline: OutlineRectangle, partition: Partition,
                        ) -> tuple[LatinSquare, SubsquareCertificate]:
    """Lift an outline square with diagonal cells h_i^2 {i} to a realization.

    The diagonal condition forces every symbol-class-i occurrence in row
    class i into the diagonal cell, so the lifted square carries block i as a
    subsquare on rows, columns and symbols P[i]; the certificate is returned
    alongside and re-verified.
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

    The grid is a construction's output, so a grid whose lines do not hold
    each label l exactly h_l times (the outline conditions), or whose
    diagonal block i holds a label other than i, raises
    :class:`InternalError` before any symbol is placed.  The round trip,
    :func:`lift`'s last check, is here that every cell's symbol lies in its
    label's class.
    """
    _check_labels(labels, partition)
    lo = 0
    for i, h in enumerate(partition.parts, start=1):
        own = [i] * h
        if any(row[lo:lo + h] != own for row in labels[lo:lo + h]):
            raise InternalError(
                f"diagonal block {i} of the label grid holds another label")
        lo += h
    grid = _split_symbols_to_units(labels, partition.parts)
    class_of = _group_map(partition.parts)
    for row, want in zip(grid, labels):
        if list(map(class_of.__getitem__, row)) != want:
            raise InternalError(
                "a symbol left its class in the symbol phase; the label "
                "grid being lifted is corrupt")
    square = LatinSquare(grid)
    certificate = verify_realization(square, partition, normal_form=True)
    return square, certificate

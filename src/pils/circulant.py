"""Prolonged back-circulant outline rectangles and the derived outline squares.

The primary construction prolongs an odd-order back-circulant square along a
chosen set of constant-difference transversals, amalgamates selected symbol
groups, then repairs the would-be subsquare cells with four-cell intercalate
trades.  On top of it sit the two outline-square constructors used by the
engine: one for odd tail sum r (a direct amalgamation) and one for even r
(a longer route through a substitution corner and two larger trades).

All ring arithmetic lives on the representatives [t] = {1..t} of Z_t.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Sequence

from .core import (
    Counts,
    InternalError,
    OutlineRectangle,
    Partition,
    PreconditionError,
    Record,
    _amalgamate,
    _amalgamate_labels,
    _check_labels,
    _group_map,
    is_latin,
    validate_outline,
)
from .lift import _write_class


def mod_rep(x: int, t: int) -> int:
    """Representative of x in {1..t}."""
    return (x - 1) % t + 1


def mod_add(x: int, y: int, t: int) -> int:
    return (x + y - 1) % t + 1


def mod_sub(x: int, y: int, t: int) -> int:
    return (x - y - 1) % t + 1


def mod_mul(x: int, y: int, t: int) -> int:
    return (x * y - 1) % t + 1


class CirculantParams(Record):
    """Validated difference structure for the prolongation.

    ``d`` lists the h1 chosen differences: the first h1 - 2*h2 are free (in
    neither difference class), the rest enumerate the odd class D2.  D1 holds
    the even offsets around 0 plus t itself; cells on those diagonals stay
    inside their own symbol block and need no trade.
    """

    def __init__(self, partition: Partition, t: int, d1: frozenset[int],
                 d2: frozenset[int], d: tuple[int, ...]):
        self.__dict__.update(partition=partition, t=t, d1=d1, d2=d2, d=d)

    @property
    def free_count(self) -> int:
        return self.partition.part(1) - 2 * self.partition.part(2)

    def v_multiset(self) -> Counter:
        h1 = self.partition.part(1)
        out: Counter = Counter()
        for i in range(2, self.partition.k + 1):
            out[h1 + i - 1] += self.partition.part(i)
        return out


def circulant_params(partition: Partition) -> CirculantParams:
    parts = partition.parts
    if len(parts) < 2:
        raise PreconditionError("prolongation needs at least two parts")
    h1, h2 = parts[0], parts[1]
    tail = parts[1:]
    if any(a < b for a, b in zip(tail, tail[1:])):
        raise PreconditionError("parts after the first must be non-increasing")
    t = partition.n - h1
    if t % 2 == 0:
        raise PreconditionError(f"t = n - h1 = {t} must be odd")
    if 4 * h2 > t + 1:
        raise PreconditionError(f"h2 = {h2} exceeds (t+1)/4 with t = {t}")
    if not 2 * h2 <= h1 <= t + 1 - 2 * h2:
        raise PreconditionError(
            f"h1 = {h1} outside [2*h2, t+1-2*h2] = [{2 * h2}, {t + 1 - 2 * h2}]")
    d1 = frozenset({t}
                   | {t - e for e in range(2, 2 * h2 - 1, 2)}
                   | set(range(2, 2 * h2 - 1, 2)))
    d2 = frozenset({t - e for e in range(1, 2 * h2, 2)}
                   | set(range(1, 2 * h2, 2)))
    if len(d1) != 2 * h2 - 1 or len(d2) != 2 * h2 or (d1 & d2):
        raise InternalError("difference classes malformed")
    pool = sorted(set(range(1, t + 1)) - d1 - d2)
    free = pool[: h1 - 2 * h2]
    if len(free) < h1 - 2 * h2:
        raise InternalError("not enough free differences despite preconditions")
    d = tuple(free) + tuple(sorted(d2))
    return CirculantParams(partition, t, d1, d2, d)


class TripleSet(Record):
    """Triples (row, column, symbol) attached to one free difference.

    Row and column coordinates each exhaust the non-subsquare indices, the
    symbol multiset equals V, cell (row, column) holds the set's index, and
    row/column against the index line give the symbol.
    """

    def __init__(self, index: int, triples: tuple[tuple[int, int, int], ...]):
        self.__dict__.update(index=index, triples=triples)


def build_circulant_outline(partition: Partition,
                            ) -> tuple[OutlineRectangle, list[TripleSet]]:
    """The prolonged, amalgamated and traded outline rectangle.

    Output is associated to ((1^n), (1^n), (1^h1, h2, ..., hk)) and lifts to
    a realization in normal form: the leading h1 x h1 corner is a subsquare
    on [h1] and every later block is constant on its own group symbol.  It
    is the label grid of :func:`_circulant_labels` with each label held
    once per cell, validated as an outline rectangle.
    """
    labels, sym_partition = _circulant_labels(partition)
    ones = Partition([1] * partition.n)
    singles = [{v: 1} for v in range(sym_partition.k + 1)]
    outline = OutlineRectangle(
        ones, ones, sym_partition,
        [[singles[v] for v in row] for row in labels])
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"circulant outline invalid: {bad[0]}")
    return outline, _triple_sets(partition)


def _circulant_labels(partition: Partition,
                      ) -> tuple[list[list[int]], Partition]:
    """The n x n label grid of :func:`build_circulant_outline` and its
    symbol partition (1^h1, h2, ..., hk).

    The grid is checked by :func:`_check_labels`, the outline conditions of
    its singleton outline, so callers amalgamate straight from it.
    """
    params = circulant_params(partition)
    parts = partition.parts
    h1, t = parts[0], params.t
    k = partition.k
    n = partition.n
    inv2 = (t + 1) // 2

    grid = [[0] * n for _ in range(n)]
    corner = list(range(1, h1 + 1)) * 2
    for x in range(h1):
        grid[x][:h1] = corner[x:x + h1]
    # cell (i, j) of the body holds ((i + j) * inv2 - 1) % t + 1 + h1, a
    # function of (i + j) mod t, so row i is a window of the doubled
    # sequence; the cell on difference j - i = d[idx - 1] goes to the
    # prolongation instead
    body = [(s * inv2 - 1) % t + 1 + h1 for s in range(t)] * 2
    for i in range(1, t + 1):
        gi = grid[h1 + i - 1]
        s = (i + 1) % t
        gi[h1:] = body[s:s + t]
        for idx, dv in enumerate(params.d, start=1):
            c = h1 + (i + dv - 1) % t
            b = gi[c]
            gi[c] = idx
            grid[idx - 1][c] = b
            gi[idx - 1] = b
    if not is_latin(grid):
        raise InternalError("prolonged square is not latin")

    # Symbol amalgamation: singles stay, the last 2*h2 subsquare symbols
    # collapse to a working label 0, each tail block to h1 + i - 1.  The
    # h1 x h1 corner keeps its back-circulant symbols: no later step writes
    # into it, and its rows and columns hold only tail symbols outside it.
    singles = h1 - 2 * parts[1]
    label_of = [0] * (n + 1)
    for v in range(1, singles + 1):
        label_of[v] = v
    for v in range(singles + 1, h1 + 1):
        label_of[v] = 0
    pos = h1
    for i in range(2, k + 1):
        for _ in range(parts[i - 1]):
            pos += 1
            label_of[pos] = h1 + i - 1
    labels = grid  # relabelled in place
    for x, row in enumerate(labels):
        lo = h1 if x < h1 else 0
        row[lo:] = map(label_of.__getitem__, row[lo:])

    # Four-cell trades put each block's own group symbol onto the odd
    # difference cells inside the block (and their transposes).
    touched: set[tuple[int, int]] = set()

    def swap(rr: int, cc: int, old: int, new: int) -> None:
        cell = (rr + h1 - 1, cc + h1 - 1)
        if cell in touched:
            raise InternalError(f"trade cell {cell} touched twice")
        touched.add(cell)
        if labels[cell[0]][cell[1]] != old:
            raise InternalError(
                f"trade expected label {old} at {cell}, found "
                f"{labels[cell[0]][cell[1]]}")
        labels[cell[0]][cell[1]] = new

    prefix = 0
    for i in range(2, k + 1):
        hi = parts[i - 1]
        sym = h1 + i - 1
        for a in range(1, hi + 1):
            for b in range(a + 1, hi + 1):
                if (b - a) % 2 == 0:
                    continue
                x1 = prefix + a
                y1 = prefix + b
                x2 = mod_sub(prefix + 1, a, t)
                y2 = mod_sub(prefix + 2 * hi + 1, b, t)
                for rr, cc in ((y1, x1), (y2, x2), (x1, y1), (x2, y2)):
                    swap(rr, cc, 0, sym)
                for rr, cc in ((y2, x1), (y1, x2), (x1, y2), (x2, y1)):
                    swap(rr, cc, sym, 0)
        prefix += hi

    # Resolve the 0 class, which lies on the body rows and columns only,
    # back into singletons h1-2*h2+1 .. h1 (the corner holds each once per
    # line already): the lift's _write_class puts one on each factor of its
    # kernel, _factors, as it does for a symbol class (the only lifting
    # step the outline still owes its symbol partition).
    body_rows = labels[h1:]
    cells = [j for row in body_rows for j, v in enumerate(row) if v == 0]
    _write_class(cells, 0, range(singles + 1, h1 + 1), body_rows)

    sym_partition = Partition([1] * h1 + list(parts[1:]))
    _check_labels(labels, sym_partition)
    return labels, sym_partition


def _triple_sets(partition: Partition, count: int | None = None,
                 ) -> list[TripleSet]:
    """The triple sets of the circulant rectangle for ``partition``, one
    per free difference, or the first ``count`` of them.

    The set of free difference d holds (h1 + a, h1 + b, z) for every a in
    [t], with b = a + d and z the label of the body cell (a, b): the group
    symbol of the tail block that the back-circulant symbol (a + b) / 2
    falls in.
    """
    params = circulant_params(partition)
    h1, t = partition.part(1), params.t
    inv2 = (t + 1) // 2
    label = [h1 + g for g in _group_map(partition.parts[1:])]
    triple_sets = []
    for idx, dv in enumerate(params.d[:params.free_count][:count], start=1):
        triples = []
        for a in range(1, t + 1):
            b = (a + dv - 1) % t + 1
            z = label[((a + b) * inv2 - 1) % t + 1]
            triples.append((h1 + a, h1 + b, z))
        triple_sets.append(TripleSet(idx, tuple(triples)))
    return triple_sets


def check_circulant_properties(outline: OutlineRectangle,
                               triple_sets: Sequence[TripleSet],
                               partition: Partition) -> list[str]:
    """Literal re-check of the two construction guarantees; [] when clean."""
    problems = []
    h1 = partition.part(1)
    n = partition.n
    for x in range(1, h1 + 1):
        for y in range(1, h1 + 1):
            s = outline.cell(x, y)[0]
            if not 1 <= s <= h1:
                problems.append(f"corner cell ({x},{y}) leaves [h1]: {s}")
    prefix = h1
    for i in range(2, partition.k + 1):
        hi = partition.part(i)
        sym = h1 + i - 1
        for x in range(prefix + 1, prefix + hi + 1):
            for y in range(prefix + 1, prefix + hi + 1):
                if outline.cell(x, y) != (sym,):
                    problems.append(
                        f"block {i} cell ({x},{y}) holds "
                        f"{outline.cell(x, y)}, wanted ({sym},)")
        prefix += hi

    params = circulant_params(partition)
    want_v = params.v_multiset()
    seen_pairs: set[tuple[int, int]] = set()
    for ts in triple_sets:
        xs = {x for x, _, _ in ts.triples}
        ys = {y for _, y, _ in ts.triples}
        outer = set(range(h1 + 1, n + 1))
        if xs != outer or ys != outer:
            problems.append(f"triple set {ts.index} misses rows or columns")
        if Counter(z for _, _, z in ts.triples) != want_v:
            problems.append(f"triple set {ts.index} has wrong symbol multiset")
        for x, y, z in ts.triples:
            if (x, y) in seen_pairs:
                problems.append(f"pair ({x},{y}) repeated across triple sets")
            seen_pairs.add((x, y))
            if outline.cell(x, y) != (ts.index,):
                problems.append(
                    f"cell ({x},{y}) holds {outline.cell(x, y)}, wanted "
                    f"({ts.index},)")
            if outline.cell(x, ts.index) != (z,):
                problems.append(f"cell ({x},{ts.index}) not ({z},)")
            if outline.cell(ts.index, y) != (z,):
                problems.append(f"cell ({ts.index},{y}) not ({z},)")
    return problems


# ---------------------------------------------------------------------------
# Outline squares with three equal leading classes


def odd_r_outline(partition: Partition) -> OutlineRectangle:
    """Outline square for (h,h,h,h4..hk) with odd tail sum.

    Diagonal cells carry h_i^2 copies of their own symbol, and the leading
    3 x 3 corner is the symmetric pattern with h^2 copies of 3, 2, 1 on the
    cells (1,2)/(2,1), (1,3)/(3,1), (2,3)/(3,2) respectively, so both
    orientations offer beta = h^2 to a later blow-up.  It is the
    amalgamation of the grid of :func:`odd_r_seed_labels` along the
    partition's blocks, its labels grouped into classes by
    :func:`_odd_r_classes`.
    """
    labels = odd_r_seed_labels(partition)
    groups = _group_map(partition.parts)
    k = partition.k
    cells = _amalgamate_labels(labels, groups, groups,
                               _odd_r_classes(partition), (k, k))
    outline = OutlineRectangle(partition, partition, partition, cells)
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"odd-r outline invalid: {bad[0]}")
    for i in range(1, k + 1):
        if outline.counts[i - 1][i - 1] != {i: partition.part(i) ** 2}:
            raise InternalError(f"odd-r diagonal cell ({i},{i}) wrong")
    return outline


def _odd_r_classes(partition: Partition) -> list[int]:
    """The class of each label of :func:`odd_r_seed_labels` (index 0
    unused): labels 1..3h in h-groups onto classes 1, 2, 3, then the
    circulant's tail labels 3h + 1 .. onto classes 4..k."""
    h = partition.part(1)
    return [0] + [(v - 1) // h + 1 for v in range(1, 3 * h + 1)] + \
        list(range(4, partition.k + 1))


def odd_r_seed_labels(partition: Partition) -> list[list[int]]:
    """The seed of :func:`odd_r_outline` as an n x n label grid over the
    symbol partition (1^{3h}, h4, ..., hk), finer than its classes.

    It is the label grid of the circulant rectangle for (3h, h4, ..., hk),
    whose 3h x 3h corner is a latin subsquare on labels 1..3h, with that
    corner rewritten as the nine cyclic blocks of the outline's corner
    pattern: block (a, b) of class c holds (c - 1) h + (x + y) mod h + 1 in
    its cell (x, y), so each corner line still holds 1..3h once.  Rows and
    columns are units, and labels 1..3h are held once per line, so a caller
    that needs no outline square lifts only the tail labels' symbols.

    The odd tail sum, the non-increasing tail and the window on h4 and 3h
    are the preconditions of :func:`circulant_params` on (3h, h4, ..., hk),
    checked before any grid is built.
    """
    parts = partition.parts
    if len(parts) < 4:
        raise PreconditionError("need three equal leading parts and a tail")
    h = parts[0]
    if not (parts[0] == parts[1] == parts[2]):
        raise PreconditionError("first three parts must be equal")

    labels, _ = _circulant_labels(Partition((3 * h,) + parts[3:]))
    cyclic = [list(range(c * h + 1, c * h + h + 1)) * 2 for c in range(3)]
    corner = ((1, 3, 2), (3, 2, 1), (2, 1, 3))
    for x in range(3 * h):
        a, y = divmod(x, h)
        labels[x][:3 * h] = [v for c in corner[a]
                             for v in cyclic[c - 1][y:y + h]]
    return labels


def even_r_outline(partition: Partition,
                   ) -> tuple[OutlineRectangle, int, int]:
    """Outline square for (h,h,h,h4..hk) with even tail sum, plus betas.

    One cyclic orientation of the corner carries exactly h^2 spare copies
    (beta1); the other offers at least h(h-1) - 2(hk - 1) after two trades
    route the final block's stray symbols through it (actual count returned
    as beta2).  The first trade works on row 1, column 3 and symbol 2; the
    second is the same trade run on the transposed array with row 2 and
    symbol 1, its moves transposed back.
    """
    parts = partition.parts
    if len(parts) < 4:
        raise PreconditionError("need three equal leading parts and a tail")
    h = parts[0]
    k = len(parts)
    tail = parts[3:]
    hk = parts[-1]
    r = sum(tail)
    h4 = tail[0]
    if not (parts[0] == parts[1] == parts[2]):
        raise PreconditionError("first three parts must be equal")
    if h < 2:
        raise PreconditionError("leading part must be at least 2")
    if any(a < b for a, b in zip(tail, tail[1:])):
        raise PreconditionError("tail must be non-increasing")
    if r % 2 == 1:
        raise PreconditionError(f"tail sum r = {r} must be even")
    if 4 * h4 > r - 2:
        raise PreconditionError(f"h4 = {h4} exceeds (r-2)/4")
    if not 2 * h4 + 2 <= 3 * h + 1 <= r + 1 - 2 * h4:
        raise PreconditionError(
            f"3*h1+1 = {3 * h + 1} outside [2*h4+2, r+1-2*h4]")
    if h * (h - 1) < 2 * (hk - 1):
        raise PreconditionError(
            f"h1(h1-1) = {h * (h - 1)} below 2(hk-1) = {2 * (hk - 1)}")

    circ_tail = list(tail[:-1])
    if hk >= 2:
        circ_tail.append(hk - 1)
    if not circ_tail:
        raise PreconditionError("tail too short for the even construction")
    circ = Partition([3 * h + 1] + circ_tail)
    labels, circ_syms = _circulant_labels(circ)
    triple_sets = _triple_sets(circ, 2)
    if len(triple_sets) < 2:
        raise InternalError("even construction needs two free differences")
    R = r + 3  # the extra row/column carrying the widowed subsquare line

    # [3h] falls into the groups {1} + [4, h+2], {2} + [h+3, 2h+1] and
    # {3} + [2h+2, 3h]: lines 1 and 2 anchor the first two (they carry the
    # triple structure), and the three owners of the groups make the 2<->3
    # row, 1<->3 column and 1<->2 symbol swaps.  3h + 1 goes to ``last``,
    # and the lines and symbols after it move down to 4, 5, ...
    group = [0, 0, 1, 2] + [(x - 4) // (h - 1) for x in range(4, 3 * h + 1)]

    def class_map(owners: tuple[int, int, int], last: int, size: int,
                  ) -> list[int]:
        return ([0] + [owners[group[x]] for x in range(1, 3 * h + 1)]
                + [last] + list(range(4, size - 3 * h + 3)))

    row_map = class_map((1, 3, 2), R, partition.n)
    col_map = class_map((3, 2, 1), R, partition.n)
    sym_map = class_map((2, 1, 3), k, circ_syms.k)
    cells = _amalgamate_labels(labels, row_map, col_map, sym_map, (R, R))

    corner_idx = (1, 2, 3, R)
    for i in corner_idx:
        for j in corner_idx:
            if any(s not in (1, 2, 3, k) for s in cells[i - 1][j - 1]):
                raise InternalError(
                    f"corner cell ({i},{j}) holds a non-corner symbol")
    hh1 = h * (h - 1)
    substitution = {
        (1, 1): {1: h * h}, (1, 2): {3: h * h},
        (1, 3): {2: hh1, k: h}, (1, R): {2: h},
        (2, 1): {3: hh1, k: h}, (2, 2): {2: h * h},
        (2, 3): {1: h * h}, (2, R): {3: h},
        (3, 1): {2: h * h}, (3, 2): {1: hh1, k: h},
        (3, 3): {3: h * h}, (3, R): {1: h},
        (R, 1): {3: h}, (R, 2): {1: h}, (R, 3): {2: h}, (R, R): {k: 1},
    }
    for (i, j), content in substitution.items():
        cells[i - 1][j - 1] = content

    t1, t2 = ([(row_map[x], col_map[y], sym_map[z]) for x, y, z in ts.triples]
              for ts in triple_sets[:2])
    block_k_lines = set(range(r - hk + 4, r + 3))  # proper lines of the block

    def trade(work: Sequence[Sequence[Counts]],
              triples: list[tuple[int, int, int]], filler: int, start: int,
              ) -> list[tuple[int, int, int, int]]:
        """One repair trade of ``work`` along row ``start`` and column 3,
        paid in symbol ``filler``: its moves as (row, column, symbol
        removed, symbol added).  ``work`` is only read."""
        for x, y, z in triples:
            if work[x - 1][y - 1] != {filler: 1}:
                raise InternalError(
                    f"triple cell ({x},{y}) of the symbol-{filler} trade "
                    f"is not {{{filler}}}")
            if z not in work[start - 1][y - 1] or z not in work[x - 1][2]:
                raise InternalError("triple lines lost their symbol")
        a_cols = [R - i for i in range(1, hk)]
        b_cols = [c for c in range(4, r + 3)
                  if work[R - 1][c - 1] == {k: 1}]
        if len(b_cols) != hk - 1:
            raise InternalError(
                f"expected {hk - 1} stray block symbols on the widowed line, "
                f"found {len(b_cols)}")
        c_rows = []
        d_syms = []
        for a in a_cols:
            inner = [x for x in range(4, r + 3) if x not in block_k_lines
                     and work[x - 1][a - 1] == {k: 1}]
            if len(inner) != 1 or inner[0] > r + 3 - hk:
                raise InternalError("stray block symbol not unique in line")
            c_rows.append(inner[0])
            dcell = work[R - 1][a - 1]
            d = next(iter(dcell), 0)
            if dcell != {d: 1} or d < 4 or d == k:
                raise InternalError(f"unexpected widowed-line cell at {a}")
            d_syms.append(d)

        by_col = {y: (x, y, z) for x, y, z in triples}
        by_row = {x: (x, y, z) for x, y, z in triples}
        if len(by_col) != len(triples) or len(by_row) != len(triples):
            raise InternalError("triple coordinates are not transversal")
        cover: list[tuple[int, int, int]] = []
        in_cover: set[tuple[int, int, int]] = set()

        def take(tr: tuple[int, int, int]) -> None:
            if tr not in in_cover:
                in_cover.add(tr)
                cover.append(tr)

        for col in a_cols + b_cols:
            take(by_col[col])
        for row in c_rows:
            take(by_row[row])
        need = Counter(d_syms)
        need.subtract(Counter(z for _, _, z in cover))
        for tr in triples:
            if all(cnt <= 0 for cnt in need.values()):
                break
            if need[tr[2]] > 0 and tr not in in_cover:
                take(tr)
                need[tr[2]] -= 1
        if any(cnt > 0 for cnt in need.values()):
            raise InternalError("cover cannot supply the displaced symbols")
        if len(cover) > 4 * (hk - 1):
            raise InternalError(f"cover size {len(cover)} exceeds 4(hk-1)")

        moves = []
        for x, y, z in cover:
            moves += [(x, y, filler, z), (x, 3, z, filler),
                      (start, y, z, filler), (start, 3, filler, z)]
        for a, c, d in zip(a_cols, c_rows, d_syms):
            moves += [(R, a, d, k), (c, 3, filler, k), (c, a, k, filler),
                      (start, a, filler, d), (R, 3, filler, d),
                      (start, 3, d, filler), (start, 3, k, filler)]
        for b in b_cols:
            moves += [(R, b, k, filler), (start, b, filler, k)]
        return moves

    # both trades read the cells before either one's moves are applied; with
    # hk = 1 they only check their triples and move nothing
    moves = trade(cells, t1, 2, 1)
    mirrored = trade(list(zip(*cells)), [(y, x, z) for x, y, z in t2], 1, 2)
    moves += [(cc, rr, remove, add) for rr, cc, remove, add in mirrored]
    delta: dict[tuple[int, int], Counter] = defaultdict(Counter)
    for rr, cc, remove, add in moves:
        delta[(rr, cc)][remove] -= 1
        delta[(rr, cc)][add] += 1

    for (rr, cc), change in delta.items():
        if sum(change.values()) != 0:
            raise InternalError(f"trade changes cell ({rr},{cc}) size")
        cell = cells[rr - 1][cc - 1]
        for s, d in sorted(change.items()):
            left = cell.get(s, 0) + d
            if left < 0:
                raise InternalError(
                    f"trade removes symbol {s} from cell ({rr},{cc}) more "
                    "often than it occurs")
            cell[s] = left

    # Final row and column amalgamation to the target partition.
    line_map = _group_map((1, 1, 1) + tail[:-1] + (hk - 1,)) + [k]
    final = _amalgamate(cells, line_map, line_map, range(k + 1), (k, k))

    outline = OutlineRectangle(partition, partition, partition, final)
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"even-r outline invalid: {bad[0]}")
    counts = outline.counts
    for i in range(1, k + 1):
        if counts[i - 1][i - 1] != {i: partition.part(i) ** 2}:
            raise InternalError(f"even-r diagonal cell ({i},{i}) wrong")
    for sym, (i, j) in ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))):
        if counts[i - 1][j - 1] != {sym: h * h}:
            raise InternalError(f"even-r corner cell ({i},{j}) wrong")
    beta1 = h * h
    beta2 = min(counts[0][2].get(2, 0), counts[1][0].get(3, 0),
                counts[2][1].get(1, 0))
    if beta2 < h * (h - 1) - 2 * (hk - 1):
        raise InternalError("even-r beta2 fell below its guarantee")
    return outline, beta1, beta2

"""Constructive base cases for the engine's recursion.

Everything here is classical: idempotent squares of every order except 2,
uniform realizations built over an idempotent pattern, realizations with one
block of order s and m singletons built by prolonging a square of order m
along s + 1 disjoint transversals, and a verified search fallback for the
two-size partitions the main pipeline cannot reach.  For m != 2 (mod 4) the
transversal-rich square is a group table: the cyclic one for odd m, and for
m = 0 (mod 4) the addition table of Z_2^a x Z_o, whose transversals are the
symbol classes of an orthogonal mate.  For m = 2 (mod 4) it is the
idempotent square, whose diagonal is one transversal and around which a
most-constrained-row search packs the others; where that packing gets stuck
(high s at small m) the outline square is completed directly instead.  The
searches are deterministic, and every call of the completion solver, from
``ls_one_big`` (also inside the add-on share arrays) as well as from the
two-size fallback, is recorded in ``completion_invocations`` for audit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .compose import _addon_bound_holds, add_on_step
from .core import (
    InternalError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PreconditionError,
    SubsquareCertificate,
    validate_outline,
    verify_realization,
)
from .lift import lift_to_realization

# Every use of the completion solver, for auditing which inputs reach it.
completion_invocations: list[tuple[int, ...]] = []

# Nodes the completion solver may visit before it gives up.
_COMPLETION_NODES = 5_000_000
# Nodes each transversal search of the packing may visit.  The hardest
# transversal at n <= 30 takes about 13k; a hopeless search at m <= 50
# gives up within about 1.5 s.
_TRANSVERSAL_NODES = 200_000


def idempotent_square(n: int) -> LatinSquare:
    """A latin square with cell (i, i) = i; exists for every n except 2.

    Odd orders come from the back-circulant formula; even orders prolong the
    odd square one below along an off-diagonal constant-difference
    transversal, which leaves the diagonal intact and puts n at (n, n).
    """
    if n < 1:
        raise PreconditionError("order must be positive")
    if n == 2:
        raise PreconditionError("no idempotent square of order 2 exists")
    if n == 1:
        return LatinSquare([[1]])
    if n % 2 == 1:
        inv2 = (n + 1) // 2
        return LatinSquare([[((i + j) * inv2 - 1) % n + 1 for j in range(1, n + 1)]
                            for i in range(1, n + 1)])
    m = n - 1
    inv2 = (m + 1) // 2
    base = [[((i + j) * inv2 - 1) % m + 1 for j in range(1, m + 1)]
            for i in range(1, m + 1)]
    grid = [row + [0] for row in base]
    grid.append([0] * n)
    for i in range(1, m + 1):
        j = (i - 2) % m + 1  # the difference-1 diagonal avoids (i, i)
        v = base[i - 1][j - 1]
        grid[i - 1][j - 1] = n
        grid[i - 1][m] = v
        grid[m][j - 1] = v
    grid[m][m] = n
    return LatinSquare(grid)


def ls_uniform(a: int, k: int) -> tuple[LatinSquare, SubsquareCertificate]:
    """A realization of (a^k) in normal form; exists exactly when k != 2."""
    if a < 1 or k < 1:
        raise PreconditionError("a and k must be positive")
    if k == 2:
        raise PreconditionError(
            "no latin square splits into exactly two disjoint subsquares")
    idem = idempotent_square(k)
    n = a * k
    grid = [[0] * n for _ in range(n)]
    for bi in range(k):
        for bj in range(k):
            sym_base = (idem.grid[bi][bj] - 1) * a
            for x in range(a):
                row = grid[bi * a + x]
                for y in range(a):
                    row[bj * a + y] = sym_base + (x + y) % a + 1
    square = LatinSquare(grid)
    partition = Partition([a] * k)
    return square, verify_realization(square, partition)


def _uniform_outline(a: int, k: int) -> OutlineRectangle:
    """The outline square of :func:`ls_uniform`'s (a^k) realization: cell
    (i, j) holds symbol idem(i, j) a*a times, idem idempotent of order k."""
    idem = idempotent_square(k).grid
    uniform = Partition([a] * k)
    outline = OutlineRectangle(uniform, uniform, uniform,
                               [[{s: a * a} for s in row] for row in idem])
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"uniform outline invalid: {bad[0]}")
    return outline


# ---------------------------------------------------------------------------
# Group-table MOLS and transversal-rich squares


def _mols(m: int) -> tuple[list[list[int]], list[list[int]]]:
    """A pair of MOLS(m) for m != 2 (mod 4), 0-based symbols.

    With m = 2^a * o, o odd, index i is the pair (i // o, i % o) of
    Z_2^a x Z_o.  The first square is the group's addition table; the mate
    adds y to theta(x), where theta multiplies the Z_2^a part by X modulo
    X^a + X + 1 and doubles the Z_o part.  That polynomial vanishes at
    neither 0 nor 1, so theta and theta - 1 are both bijections and the two
    squares are orthogonal.
    """
    a, o = 0, m
    while o % 2 == 0:
        a, o = a + 1, o // 2
    if a == 1:
        raise PreconditionError(f"no direct-product mate for order {m}")
    top = 1 << a

    def times_x(x: int) -> int:
        x <<= 1
        return x ^ (top | 3) if x & top else x

    first = [[(i // o ^ j // o) * o + (i + j) % o for j in range(m)]
             for i in range(m)]
    second = [[(times_x(i // o) ^ j // o) * o + (2 * i + j) % o
               for j in range(m)] for i in range(m)]
    return first, second


def _pack_transversals(grid: Sequence[Sequence[int]], count: int,
                       ) -> list[list[int]] | None:
    """The main diagonal and ``count - 1`` more transversals of ``grid``, all
    pairwise cell-disjoint; the diagonal must hold distinct symbols.

    Each transversal is a column list indexed by row (0-based).  They are
    found one at a time and never revised, each by its own search of at most
    :data:`_TRANSVERSAL_NODES` nodes; None when a search is exhausted or
    runs out.
    """
    m = len(grid)
    # clear[v][r]: every column but the one holding symbol v + 1 in row r
    clear = [[0] * m for _ in range(m)]
    for r, row in enumerate(grid):
        for c, v in enumerate(row):
            clear[v - 1][r] = ~(1 << c)
    free = [((1 << m) - 1) ^ (1 << r) for r in range(m)]  # cells still open
    found = [list(range(m))]
    while len(found) < count:
        columns = _next_transversal(grid, clear, free)
        if columns is None:
            return None
        for r, c in enumerate(columns):
            free[r] ^= 1 << c
        found.append(columns)
    return found


def _next_transversal(grid: Sequence[Sequence[int]], clear: list[list[int]],
                      free: list[int]) -> list[int] | None:
    """A transversal inside the open cells ``free`` (a column mask per row).

    Deterministic backtracking that always branches on the most constrained
    row: the fewest columns that are open, untaken and of an unused symbol,
    ties to the lowest row.  Columns are tried in increasing order.
    """
    columns = [-1] * len(grid)
    rows = list(range(len(grid)))  # the rows still open, increasing
    masks = list(free)  # per open row, the columns it may still take
    # per branching: open rows and their masks before it, the index of its
    # row among them, and the columns not yet tried
    stack: list[tuple[list[int], list[int], int, int]] = []
    nodes = 0
    while rows:
        counts = [mask.bit_count() for mask in masks]
        i = counts.index(min(counts))
        stack.append((rows, masks, i, masks[i]))
        while True:  # the next untried column, backtracking as needed
            if not stack:
                return None
            rows, masks, i, options = stack[-1]
            if options:
                break
            stack.pop()
        nodes += 1
        if nodes > _TRANSVERSAL_NODES:
            return None
        low = options & -options
        stack[-1] = (rows, masks, i, options ^ low)
        r = rows[i]
        c = low.bit_length() - 1
        columns[r] = c
        keep, symbol = ~low, clear[grid[r][c] - 1]
        rows = rows[:i] + rows[i + 1:]
        masks = [mask & keep & symbol[row]
                 for row, mask in zip(rows, masks[:i] + masks[i + 1:])]
    return columns


def _transversal_square(m: int, count: int,
                        ) -> tuple[list[list[int]], list[list[int]]] | None:
    """A square of order m with ``count`` disjoint transversals, the first of
    which is the main diagonal (with distinct symbols)."""
    if count > m:
        return None
    if m % 2 == 1:
        grid = [[(i + j) % m + 1 for j in range(m)] for i in range(m)]
        # constant-difference diagonals; difference 0 is the main diagonal
        return grid, [[(r + d) % m for r in range(m)] for d in range(count)]
    if m % 4 == 0:
        first, second = _mols(m)
        grid = [[v + 1 for v in row] for row in first]
        transversals: list[list[int]] = [[-1] * m for _ in range(count)]
        for i in range(m):
            for j in range(m):
                level = second[i][j]
                if level < count:
                    transversals[level][i] = j
        return _diagonalize(grid, transversals)
    # m = 2 mod 4: no direct-product mate; the idempotent square's diagonal
    # is the first transversal, and the rest are packed around it
    grid = [list(row) for row in idempotent_square(m).grid]
    found = _pack_transversals(grid, count)
    return None if found is None else (grid, found)


def _diagonalize(grid: list[list[int]],
                 transversals: list[list[int]],
                 ) -> tuple[list[list[int]], list[list[int]]]:
    """Permute columns so the first transversal becomes the main diagonal."""
    m = len(grid)
    first = transversals[0]
    new_to_old = [0] * m
    for r, c in enumerate(first):
        new_to_old[r] = c
    old_to_new = [0] * m
    for new, old in enumerate(new_to_old):
        old_to_new[old] = new
    out = [[grid[r][new_to_old[c]] for c in range(m)] for r in range(m)]
    moved = [[old_to_new[c] for c in t] for t in transversals]
    return out, moved


@lru_cache(maxsize=512)
def ls_one_big(s: int, m: int) -> tuple[LatinSquare, SubsquareCertificate]:
    """A realization of (s, 1^m): one order-s block plus m singletons.

    Normal form with the block first, on rows, columns and symbols [s].
    Exists whenever s <= m - 1; built by prolonging a square of order m with
    s + 1 disjoint transversals: a group table for m != 2 (mod 4), else the
    idempotent square with transversals packed into it.  Where the packing
    gets stuck the outline square is completed directly, which raises
    _CompletionBudget if its search runs out.  Results are cached; they are
    immutable values.
    """
    if s < 0 or m < 1:
        raise PreconditionError("need s >= 0 and m >= 1")
    if s == 0:
        square = idempotent_square(m)
        return square, verify_realization(square, Partition([1] * m))
    if m < 3:
        raise PreconditionError("one-big-block realizations need m >= 3")
    if s > m - 1:
        raise PreconditionError(
            f"s = {s} exceeds m - 1 = {m - 1}; no such realization exists")
    if s == 1:
        square = idempotent_square(m + 1)
        return square, verify_realization(square, Partition([1] * (m + 1)))

    partition = Partition([s] + [1] * m)
    got = _transversal_square(m, s + 1)
    if got is not None:
        square = _embed_block(got[0], got[1], s)
        return square, verify_realization(square, partition)
    outline = _complete_outline_square(partition)
    return lift_to_realization(outline, partition)


def _embed_block(m_grid: list[list[int]], transversals: list[list[int]],
                 s: int) -> LatinSquare:
    """Prolong along s off-diagonal transversals to embed an order-s block."""
    m = len(m_grid)
    # Relabel so the diagonal reads s+1 .. s+m, other symbols following.
    relabel = [0] * (m + 1)
    for i in range(m):
        relabel[m_grid[i][i]] = s + i + 1
    base = [[relabel[v] for v in row] for row in m_grid]
    n = s + m
    grid = [[0] * n for _ in range(n)]
    for x in range(s):
        for y in range(s):
            grid[x][y] = (x + y) % s + 1
    for i in range(m):
        for j in range(m):
            grid[s + i][s + j] = base[i][j]
    for c in range(1, s + 1):
        for i, j in enumerate(transversals[c]):
            v = base[i][j]
            grid[s + i][s + j] = c
            grid[s + i][c - 1] = v
            grid[c - 1][s + j] = v
    return LatinSquare(grid)


# ---------------------------------------------------------------------------
# Outline-square completion (the last-resort constructive search)


def _complete_outline_square(partition: Partition) -> OutlineRectangle:
    """Fill c(i,j,l) meeting all outline-square equations, diagonal fixed.

    Symbols are processed largest class first; each symbol's placement is a
    capacitated transportation problem enumerated cell by cell (row-major,
    fair share first), and exhaustion of one symbol's choices backtracks
    chronologically into the previous symbol.  Raises _CompletionBudget
    after :data:`_COMPLETION_NODES` nodes.
    """
    completion_invocations.append(partition.parts)
    parts = partition.parts
    k = partition.k
    rem = [[parts[i] * parts[j] if i != j else 0 for j in range(k)]
           for i in range(k)]
    nodes = 0
    node_budget = _COMPLETION_NODES

    def symbol_solutions(l: int, later: tuple[int, ...],
                         ) -> Iterator[list[tuple[int, int, int]]]:
        """All placements of symbol l against current capacities.

        ``later`` lists the symbols still to come: whatever they cannot
        absorb of a cell must be placed now, which bounds each value from
        below and prunes dead branches immediately.
        """
        nonlocal nodes
        hl = parts[l]
        later_set = set(later)
        later_sum = sum(parts[x] for x in later)
        cells = [(i, j) for i in range(k) for j in range(k)
                 if i != j and i != l and j != l]
        row_rem = [parts[i] * hl if i != l else 0 for i in range(k)]
        col_rem = [parts[j] * hl if j != l else 0 for j in range(k)]
        future_max = {}
        for i, j in cells:
            s = later_sum
            if i in later_set:
                s -= parts[i]
            if j in later_set:
                s -= parts[j]
            future_max[(i, j)] = min(parts[i], parts[j]) * s
        # capacity still ahead of each cell in its own row / column
        row_ahead = [0] * len(cells)
        col_ahead = [0] * len(cells)
        row_acc = [0] * k
        col_acc = [0] * k
        for idx in range(len(cells) - 1, -1, -1):
            i, j = cells[idx]
            row_ahead[idx] = row_acc[i]
            col_ahead[idx] = col_acc[j]
            row_acc[i] += rem[i][j]
            col_acc[j] += rem[i][j]

        def values(idx: int) -> list[int]:
            """The counts cell ``idx`` may take now, fair share first."""
            i, j = cells[idx]
            cap = rem[i][j]
            hi = min(cap, row_rem[i], col_rem[j])
            lo = max(0, row_rem[i] - row_ahead[idx],
                     col_rem[j] - col_ahead[idx],
                     cap - future_max[(i, j)])
            if lo > hi:
                return []
            # proportional share first: greedy extremes starve the symbols
            # still to come, so spread each line's demand over its capacity
            fair = hi
            if cap + row_ahead[idx]:
                fair = min(fair, round(row_rem[i] * cap
                                       / (cap + row_ahead[idx])))
            if cap + col_ahead[idx]:
                fair = min(fair, round(col_rem[j] * cap
                                       / (cap + col_ahead[idx])))
            fair = max(lo, min(hi, fair))
            order = [fair]
            step = 1
            while len(order) < hi - lo + 1:
                if fair + step <= hi:
                    order.append(fair + step)
                if fair - step >= lo:
                    order.append(fair - step)
                step += 1
            return order

        def complete() -> bool:
            return all(v == 0 for v in row_rem) and \
                all(v == 0 for v in col_rem)

        if not cells:
            if complete():
                yield []
            return
        # depth-first over the cells in order, one frame per open cell:
        # [its values, how many were tried].  An explicit stack, because a
        # symbol can spread over more cells than Python allows nested calls
        placed: list[tuple[int, int, int]] = []
        stack = [[values(0), 0]]
        while stack:
            frame = stack[-1]
            idx = len(stack) - 1
            i, j = cells[idx]
            choices, pos = frame
            if pos:
                v = choices[pos - 1]
                row_rem[i] += v
                col_rem[j] += v
                if v:
                    placed.pop()
            if pos == len(choices):
                stack.pop()
                continue
            v = choices[pos]
            frame[1] = pos + 1
            nodes += 1
            if nodes > node_budget:
                raise _CompletionBudget(partition, node_budget, placed)
            row_rem[i] -= v
            col_rem[j] -= v
            if v:
                placed.append((i, j, v))
            if idx + 1 < len(cells):
                stack.append([values(idx + 1), 0])
            elif complete():
                yield list(placed)

    order = sorted(range(k), key=lambda l: (-parts[l], l))
    chosen: list[list[tuple[int, int, int]]] = []
    gens: list[Iterator] = []
    level = 0
    while level < k:
        if level == len(gens):
            gens.append(symbol_solutions(order[level],
                                         tuple(order[level + 1:])))
        try:
            placement = next(gens[level])
        except StopIteration:
            gens.pop()
            if not chosen:
                raise InternalError(
                    f"outline completion exhausted for {partition}; "
                    f"partial assignment depth {level}")
            for i, j, v in chosen.pop():
                rem[i][j] += v
            level -= 1
            continue
        for i, j, v in placement:
            rem[i][j] -= v
        chosen.append(placement)
        level += 1

    cells: list[list[dict[int, int]]] = [[{} for _ in range(k)]
                                         for _ in range(k)]
    for i in range(k):
        cells[i][i][i + 1] = parts[i] * parts[i]
    for l, placement in zip(order, chosen):
        for i, j, v in placement:
            cells[i][j][l + 1] = v
    outline = OutlineRectangle(partition, partition, partition, cells)
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"completed outline invalid: {bad[0]}")
    return outline


class _CompletionBudget(RuntimeError):
    """The completion search ran out of nodes: whether the outline square
    can be completed is left unknown, which is not a defect."""

    def __init__(self, partition: Partition, budget: int, partial):
        super().__init__(
            f"outline completion for {partition} exceeded its budget of "
            f"{budget:,} nodes; partial assignment of size {len(partial)}")
        self.partial = list(partial)


def two_size_fallback(partition: Partition,
                      ) -> tuple[LatinSquare, SubsquareCertificate]:
    """Realize a^u b^v with u >= 3 when the circulant pipeline cannot.

    Callers run the pipeline first; this does not.  Uniform inputs delegate
    to ls_uniform.  Otherwise a single add-on step over the uniform base
    (b^k), whose own bound is the complement of the pipeline's hypothesis at
    level u; the outline-completion search only handles the residue where
    the pipeline's hypothesis holds but its seed parameters land out of
    range.
    """
    parts = partition.parts
    if not partition.is_non_increasing():
        raise PreconditionError("fallback expects non-increasing parts")
    if partition.k == 2:
        raise PreconditionError(
            "no latin square splits into exactly two disjoint subsquares")
    sizes = sorted(set(parts), reverse=True)
    if len(sizes) > 2:
        raise PreconditionError("fallback handles at most two distinct sizes")
    if len(sizes) == 1:
        return ls_uniform(sizes[0], partition.k)
    if parts.count(sizes[0]) < 3:
        raise PreconditionError(
            "fallback needs at least three parts of the larger size")
    return lift_to_realization(_two_size_outline(partition), partition)


def _two_size_outline(partition: Partition) -> OutlineRectangle:
    """An outline square for a^u b^v (u >= 3, a > b): the add-on step at
    level u over the uniform base when its bound allows it, otherwise the
    completion search."""
    parts = partition.parts
    a, b = parts[0], parts[-1]
    u = parts.count(a)
    if not _addon_bound_holds(u, a, parts[u:]):
        return _complete_outline_square(partition)
    return add_on_step(_uniform_outline(b, partition.k), partition, u)

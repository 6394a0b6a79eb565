"""Constructive base cases for the engine's recursion.

Everything here is classical: idempotent squares of every order except 2,
uniform realizations built over an idempotent pattern, realizations with one
block of order s and m singletons written in closed form from a partial
orthomorphism of Z_m, and a verified search fallback for the two-size
partitions the main pipeline cannot reach.  The one-big squares need no
search.  The outline-completion solver is reached only from the two-size
fallback, when the add-on bound fails; it is deterministic, and every call
is recorded in ``completion_invocations`` for audit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

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

# Every use of the completion solver, for auditing which inputs reach it:
# only the two-size fallback calls it.
completion_invocations: list[tuple[int, ...]] = []

# Nodes the completion solver may visit before it gives up.
_COMPLETION_NODES = 5_000_000


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
# One-big squares in closed form


@lru_cache(maxsize=512)
def ls_one_big(s: int, m: int) -> tuple[LatinSquare, SubsquareCertificate]:
    """A realization of (s, 1^m): one order-s block plus m singletons.

    Normal form with the block first, on rows, columns and symbols [s].
    Exists whenever s <= m - 1, and is written cell by cell with no search.
    Index the singletons' rows, columns and symbols by Z_m (singleton i on
    row, column and symbol s + 1 + i) and let k = m - s.  The pairs
    (t, b_t), t < k, of :func:`_orthomorphism_pairs` have distinct t, b_t
    and b_t - t, so singleton cell (i, i + t) holds singleton i + b_t; the
    pair (0, 0) makes the diagonal idempotent.  The s differences d >= k
    are left over: cell (i, i + d) holds small symbol d - k + 1.  Block row
    r holds singleton j + c_r in singleton column j, and block column r
    singleton i + e_r in singleton row i, where c_r and e_r are the r-th
    residues that are no b_t - t and no b_t.  The block is the cyclic
    square.  Results are cached; they are immutable values.
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
    k = m - s
    b = _orthomorphism_pairs(m, k)
    e = sorted(set(range(m)).difference(b))
    c = sorted(set(range(m)).difference((bt - t) % m
                                        for t, bt in enumerate(b)))
    # singleton symbols by residue, twice over, so that i + x needs no mod
    ring = list(range(s + 1, s + m + 1)) * 2
    grid = [[(x + y) % s + 1 for y in range(s)] + ring[cr:cr + m]
            for x, cr in enumerate(c)]
    # singleton row i by difference d = column - row: singleton i + b_d for
    # d < k, then the small symbols 1..s
    small = list(range(1, s + 1))
    for i in range(m):
        by_difference = [ring[i + bt] for bt in b] + small
        grid.append([ring[i + er] for er in e]
                    + by_difference[m - i:] + by_difference[:m - i])
    square = LatinSquare(grid)
    return square, verify_realization(square, Partition([s] + [1] * m))


def _orthomorphism_pairs(m: int, k: int) -> list[int]:
    """b_0 .. b_{k-1} for k <= m - 1 such that the t, the b_t and the
    b_t - t are each pairwise distinct mod m, with b_0 = 0: a partial
    orthomorphism of Z_m.  b_t = 2t mod m for odd m; for even m the b_t
    run over the even residues while 2t < m (differences t), then the odd
    ones (differences t + 1)."""
    if m % 2:
        return [2 * t % m for t in range(k)]
    return [2 * t if 2 * t < m else 2 * t + 1 - m for t in range(k)]


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

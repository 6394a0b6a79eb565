"""Core types and checks for latin squares with prescribed disjoint subsquares.

A realization of an integer partition (h1 >= h2 >= ... >= hk) is a latin
square of order n = sum(hi) carrying pairwise disjoint subsquares of orders
h1, ..., hk.  This module holds the value types shared by the whole package
(partitions, squares, outline rectangles, certificates), the verification
routines for them, the reduction (amalgamation) of a square modulo a
partition triple, and the existence predicate assembled from the known
characterizations.

Conventions: rows, columns and symbols are 1-based everywhere in the public
API.  An outline cell is stored as a ``{symbol: count}`` map without zero
counts, the form in which the outline conditions are stated; ``cell(i, j)``
and ``.cells`` spell the same multisets out as sorted tuples for reading.
The outline arrays of :mod:`pils.compose` are plain grids of such maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence


class PartitionError(ValueError):
    """Raised for malformed partitions (non-positive parts, bad sums)."""


class GridError(ValueError):
    """Raised for malformed grid input: not square, or symbols out of range."""


class PreconditionError(ValueError):
    """Raised when an operation's stated precondition does not hold."""


class RealizationError(ValueError):
    """Raised when a square fails a realization check.

    Attributes carry the first offending location so callers can report it:
    ``block`` is the 1-based block index (or None for latinness failures) and
    ``cell`` the offending (row, column) pair when one exists.
    """

    def __init__(self, message: str, *, block: int | None = None,
                 cell: tuple[int, int] | None = None):
        super().__init__(message)
        self.block = block
        self.cell = cell


class InternalError(RuntimeError):
    """A construction violated an invariant its theory guarantees.

    Any occurrence is a bug in this package (or a genuine gap in the
    underlying construction), never a user error.
    """


# ---------------------------------------------------------------------------
# Partitions


@dataclass(frozen=True)
class Partition:
    """An ordered list of positive parts.

    The raw constructor preserves the given order; reductions are order
    sensitive, e.g. the row partition (1,1,1,2,2,1,1) of a 9x9 square.  Use
    :meth:`sorted` for the usual non-increasing normal form.
    """

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        parts = tuple(int(p) for p in parts)
        if any(p < 1 for p in parts):
            raise PartitionError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def sorted(cls, parts: Iterable[int]) -> "Partition":
        return cls(sorted(parts, reverse=True))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """Size of part i (1-based)."""
        return self.parts[i - 1]

    def block(self, i: int) -> range:
        """The 1-based index range covered by part i.

        Part i covers the h_i consecutive indices following the first
        i-1 parts, so the blocks partition [n].
        """
        lo = sum(self.parts[: i - 1])
        return range(lo + 1, lo + self.parts[i - 1] + 1)

    def block_of(self, x: int) -> int:
        """The 1-based part index whose block contains x."""
        if not 1 <= x <= self.n:
            raise PartitionError(f"{x} outside [{self.n}]")
        acc = 0
        for i, p in enumerate(self.parts, start=1):
            acc += p
            if x <= acc:
                return i
        raise AssertionError("unreachable")

    def is_non_increasing(self) -> bool:
        return all(a >= b for a, b in zip(self.parts, self.parts[1:]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def _group_map(parts: Sequence[int]) -> list[int]:
    """1-based lookup: value x -> 1-based group index under the partition;
    index 0 is unused."""
    out = [0]
    for g, p in enumerate(parts, start=1):
        out.extend([g] * p)
    return out


# ---------------------------------------------------------------------------
# Latin squares


def is_latin(grid: Sequence[Sequence[int]]) -> bool:
    """Whether each symbol of [n] occurs exactly once per row and column.

    Malformed input (non-square shape, entries outside [n]) raises
    :class:`GridError` rather than returning False.
    """
    n = len(grid)
    if n == 0:
        raise GridError("empty grid")
    full = frozenset(range(1, n + 1))
    rows_full = True
    for r, row in enumerate(grid, start=1):
        if len(row) != n:
            raise GridError(f"row {r} has length {len(row)}, expected {n}")
        held = set(row) if set(map(type, row)) == {int} else None
        if held is None or not held <= full:
            # name the first bad cell; an int subclass such as bool passes
            for c, v in enumerate(row, start=1):
                if not isinstance(v, int) or not 1 <= v <= n:
                    raise GridError(
                        f"cell ({r},{c}) holds {v!r}, expected 1..{n}")
            held = set(row)
        if len(held) != n:
            rows_full = False
    if not rows_full:
        return False
    # every entry lies in [n], so a line holds all of [n] iff n distinct
    return all(len(set(col)) == n for col in zip(*grid))


@dataclass(frozen=True)
class LatinSquare:
    """An order-n latin square over symbols [n]."""

    order: int
    grid: tuple[tuple[int, ...], ...]

    def __init__(self, grid: Sequence[Sequence[int]]):
        if not is_latin(grid):
            raise GridError("grid is not a latin square")
        object.__setattr__(self, "order", len(grid))
        object.__setattr__(self, "grid", tuple(tuple(row) for row in grid))

    def cell(self, r: int, c: int) -> int:
        return self.grid[r - 1][c - 1]

    def __str__(self) -> str:
        w = len(str(self.order))
        return "\n".join(" ".join(f"{v:>{w}}" for v in row) for row in self.grid)


@dataclass(frozen=True)
class SubsquareBlock:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    symbols: tuple[int, ...]


@dataclass(frozen=True)
class SubsquareCertificate:
    """Row, column and symbol sets witnessing pairwise disjoint subsquares."""

    blocks: tuple[SubsquareBlock, ...]

    @classmethod
    def diagonal(cls, partition: Partition) -> "SubsquareCertificate":
        """The normal-form certificate: block i on rows/cols/symbols P[i]."""
        blocks = tuple(
            SubsquareBlock(tuple(partition.block(i)), tuple(partition.block(i)),
                           tuple(partition.block(i)))
            for i in range(1, partition.k + 1))
        return cls(blocks)


def verify_subsquares(square: LatinSquare,
                      certificate: SubsquareCertificate) -> None:
    """Check that the certificate's blocks are pairwise disjoint subsquares.

    No coverage requirement: suitable for incomplete latin squares whose
    blocks need not partition the lines.  Raises :class:`RealizationError`
    naming the first offending block and cell.
    """
    grid = square.grid
    seen_rows: set[int] = set()
    seen_cols: set[int] = set()
    seen_syms: set[int] = set()
    for i, blk in enumerate(certificate.blocks, start=1):
        h = len(blk.rows)
        if not len(blk.cols) == len(blk.symbols) == h:
            raise RealizationError(
                f"block {i} has sizes {h}x{len(blk.cols)} on "
                f"{len(blk.symbols)} symbols", block=i)
        for label, seen, vals in (("row", seen_rows, blk.rows),
                                  ("column", seen_cols, blk.cols),
                                  ("symbol", seen_syms, blk.symbols)):
            dup = seen.intersection(vals)
            if dup:
                raise RealizationError(
                    f"block {i} reuses {label} {min(dup)}", block=i)
            seen.update(vals)

        symset = set(blk.symbols)
        # each block row read from the grid once
        rows = [grid[r - 1] for r in blk.rows]
        for r, row in zip(blk.rows, rows):
            row_syms = [row[c - 1] for c in blk.cols]
            if not symset.issuperset(row_syms):
                c, v = next((c, v) for c, v in zip(blk.cols, row_syms)
                            if v not in symset)
                raise RealizationError(
                    f"block {i} is not a subsquare: cell ({r},{c}) holds "
                    f"{v}, outside its symbol set", block=i, cell=(r, c))
            if len(set(row_syms)) != h:
                raise RealizationError(
                    f"block {i} repeats a symbol in row {r}", block=i,
                    cell=(r, blk.cols[0]))
        for c in blk.cols:
            col_syms = {row[c - 1] for row in rows}
            if len(col_syms) != h:
                raise RealizationError(
                    f"block {i} repeats a symbol in column {c}", block=i,
                    cell=(blk.rows[0], c))


def verify_realization(square: LatinSquare, partition: Partition,
                       normal_form: bool = True,
                       certificate: SubsquareCertificate | None = None,
                       ) -> SubsquareCertificate:
    """Check that ``square`` realizes ``partition`` and return the certificate.

    With ``normal_form`` the subsquares must sit on the main diagonal in part
    order, block i occupying rows, columns and symbols P[i].  Otherwise a
    caller-supplied certificate fixes the geometry and is checked as given.

    Raises :class:`RealizationError` naming the first offending block and
    cell on failure.
    """
    if partition.n != square.order:
        raise PreconditionError(
            f"partition sums to {partition.n}, square has order {square.order}")
    if normal_form:
        certificate = SubsquareCertificate.diagonal(partition)
    elif certificate is None:
        raise PreconditionError("certificate required when normal_form is unset")
    if len(certificate.blocks) != partition.k:
        raise RealizationError(
            f"certificate has {len(certificate.blocks)} blocks, partition has "
            f"{partition.k}")
    for i, blk in enumerate(certificate.blocks, start=1):
        h = partition.part(i)
        if not len(blk.rows) == len(blk.cols) == len(blk.symbols) == h:
            raise RealizationError(
                f"block {i} has sizes {len(blk.rows)}x{len(blk.cols)} on "
                f"{len(blk.symbols)} symbols, expected {h}", block=i)
    verify_subsquares(square, certificate)
    return certificate


# ---------------------------------------------------------------------------
# Outline rectangles

Multiset = tuple[int, ...]
Counts = dict[int, int]


def _count_cells(cells: Sequence[Sequence[Counts | Iterable[int]]], t: int,
                 ) -> tuple[tuple[Counts, ...], ...]:
    """The stored form of an outline's cells: fresh count maps without zero
    counts.  Each cell is given as a count map or as an iterable of symbols;
    symbols must lie in [t] and counts must be non-negative ints.  A cell
    holding one symbol once is the one shared map for that symbol, so the
    n^2 singleton cells of a fine outline cost a pointer each; stored maps
    are never changed, which makes the sharing safe."""
    singles = [{s: 1} for s in range(t + 1)]  # index 0 unused
    out = []
    for row in cells:
        out_row = []
        for cell in row:
            if not isinstance(cell, dict):
                symbols = cell
                cell = {}
                for s in symbols:
                    cell[s] = cell.get(s, 0) + 1
            counts = {}
            for s, c in cell.items():
                if type(c) is not int or c < 0:
                    raise GridError(f"count of symbol {s!r} is {c!r}, not a "
                                    "non-negative int")
                if type(s) is not int or not 1 <= s <= t:
                    raise GridError(f"cell symbol outside [{t}]: {s!r}")
                if c:
                    counts[s] = c
            if len(counts) == 1:
                (s, c), = counts.items()
                if c == 1:
                    counts = singles[s]
            out_row.append(counts)
        out.append(tuple(out_row))
    return tuple(out)


def _expand(cell: Counts) -> Multiset:
    """A count map spelled out as the sorted tuple of its symbols."""
    return tuple(s for s in sorted(cell) for _ in range(cell[s]))


def _amalgamate(counts: Sequence[Sequence[Counts]], row_map: Sequence[int],
                col_map: Sequence[int], sym_map: Sequence[int],
                shape: tuple[int, int]) -> list[list[Counts]]:
    """Merge count cells along 1-based index maps: cell (i, j) is added into
    cell (row_map[i], col_map[j]) of a ``shape`` array, each symbol s
    relabelled sym_map[s]."""
    out: list[list[Counts]] = [[{} for _ in range(shape[1])]
                               for _ in range(shape[0])]
    for i, row in enumerate(counts, start=1):
        target = out[row_map[i] - 1]
        for j, cell in enumerate(row, start=1):
            merged = target[col_map[j] - 1]
            for s, c in cell.items():
                s = sym_map[s]
                merged[s] = merged.get(s, 0) + c
    return out


def _amalgamate_labels(labels: Sequence[Sequence[int]],
                       row_map: Sequence[int], col_map: Sequence[int],
                       sym_map: Sequence[int], shape: tuple[int, int],
                       ) -> list[list[Counts]]:
    """:func:`_amalgamate` of the singleton outline whose cell (i, j) holds
    ``labels[i-1][j-1]`` once, without building it.

    Cells are counted one by one in row-major order, so every cell lists
    its symbols in the order :func:`_amalgamate` would.
    """
    out: list[list[Counts]] = [[{} for _ in range(shape[1])]
                               for _ in range(shape[0])]
    cols = col_map[1:]
    for i, row in enumerate(labels, start=1):
        target = out[row_map[i] - 1]
        for J, v in zip(cols, row):
            cell = target[J - 1]
            s = sym_map[v]
            cell[s] = cell.get(s, 0) + 1
    return out


def _check_labels(labels: Sequence[Sequence[int]],
                  sym_partition: Partition) -> None:
    """Raise :class:`InternalError` unless every row and every column of
    ``labels`` holds each label l exactly r_l times.

    These are the outline conditions (:func:`validate_outline`) of the
    outline with singleton rows and columns whose cell (i, j) holds
    ``labels[i-1][j-1]`` once.
    """
    expected = [l for l, r in enumerate(sym_partition.parts, start=1)
                for _ in range(r)]
    for name, lines in (("row", labels), ("column", zip(*labels))):
        for x, line in enumerate(lines, start=1):
            if sorted(line) != expected:
                raise InternalError(
                    f"label {name} {x} does not hold each class label "
                    f"its part's number of times")


@dataclass(frozen=True)
class OutlineRectangle:
    """A u x v array of symbol multisets tagged with partitions (P, Q, R).

    The defining conditions (checked by :func:`validate_outline`):

    * cell (i,j) holds p_i * q_j symbols;
    * symbol l occurs p_i * r_l times in row i;
    * symbol l occurs q_j * r_l times in column j.

    ``counts[i-1][j-1]`` stores cell (i,j) as a ``{symbol: count}`` map
    without zero counts; the maps must not be changed.  The constructor
    takes each cell as such a map or as an iterable of symbols.
    """

    row_partition: Partition
    col_partition: Partition
    sym_partition: Partition
    counts: tuple[tuple[Counts, ...], ...]

    def __init__(self, row_partition: Partition, col_partition: Partition,
                 sym_partition: Partition,
                 cells: Sequence[Sequence[Counts | Iterable[int]]]):
        if row_partition.n != col_partition.n or row_partition.n != sym_partition.n:
            raise PartitionError(
                f"partition sums differ: {row_partition.n}, {col_partition.n}, "
                f"{sym_partition.n}")
        u, v = row_partition.k, col_partition.k
        if len(cells) != u or any(len(row) != v for row in cells):
            raise GridError(f"cell array is not {u}x{v}")
        object.__setattr__(self, "row_partition", row_partition)
        object.__setattr__(self, "col_partition", col_partition)
        object.__setattr__(self, "sym_partition", sym_partition)
        object.__setattr__(self, "counts",
                           _count_cells(cells, sym_partition.k))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_partition.k, self.col_partition.k)

    @property
    def cells(self) -> tuple[tuple[Multiset, ...], ...]:
        """Every cell as a sorted tuple of symbols (a read-only view)."""
        return tuple(tuple(_expand(c) for c in row) for row in self.counts)

    def cell(self, i: int, j: int) -> Multiset:
        return _expand(self.counts[i - 1][j - 1])

    def is_square_form(self) -> bool:
        return (self.row_partition == self.col_partition ==
                self.sym_partition)


@dataclass(frozen=True)
class OutlineViolation:
    kind: Literal["cell-size", "row-count", "col-count"]
    where: tuple[int, ...]
    symbol: int | None
    expected: int
    actual: int


def validate_outline(outline: OutlineRectangle) -> list[OutlineViolation]:
    """Every violated outline condition, with location and both counts.

    An empty report means the array is a valid outline rectangle for its
    partition triple.
    """
    p_parts, q_parts, r_parts = (outline.row_partition.parts,
                                 outline.col_partition.parts,
                                 outline.sym_partition.parts)
    t = len(r_parts)
    violations: list[OutlineViolation] = []
    col_counts = [[0] * (t + 1) for _ in q_parts]
    for i, (row, h_i) in enumerate(zip(outline.counts, p_parts), start=1):
        row_counts = [0] * (t + 1)
        for j, (cell, col, h_j) in enumerate(
                zip(row, col_counts, q_parts), start=1):
            size = sum(cell.values())
            if size != h_i * h_j:
                violations.append(OutlineViolation(
                    "cell-size", (i, j), None, h_i * h_j, size))
            for s, c in cell.items():
                row_counts[s] += c
                col[s] += c
        for l, h_l in enumerate(r_parts, start=1):
            if row_counts[l] != h_i * h_l:
                violations.append(OutlineViolation(
                    "row-count", (i,), l, h_i * h_l, row_counts[l]))
    for j, (col, h_j) in enumerate(zip(col_counts, q_parts), start=1):
        for l, h_l in enumerate(r_parts, start=1):
            if col[l] != h_j * h_l:
                violations.append(OutlineViolation(
                    "col-count", (j,), l, h_j * h_l, col[l]))
    return violations


def reduce(square: LatinSquare, row_partition: Partition,
           col_partition: Partition, sym_partition: Partition,
           ) -> OutlineRectangle:
    """Amalgamate a latin square modulo (P, Q, R) into an outline rectangle.

    Rows are merged along P's blocks, columns along Q's, and every symbol is
    replaced by the index of the R-block containing it.  The output always
    satisfies the outline conditions; that is asserted here because every
    caller relies on it.
    """
    n = square.order
    for name, part in (("row", row_partition), ("column", col_partition),
                       ("symbol", sym_partition)):
        if part.n != n:
            raise PartitionError(
                f"{name} partition sums to {part.n}, square has order {n}")
    cells = _amalgamate_labels(
        square.grid, _group_map(row_partition.parts),
        _group_map(col_partition.parts), _group_map(sym_partition.parts),
        (row_partition.k, col_partition.k))
    outline = OutlineRectangle(row_partition, col_partition, sym_partition,
                               cells)
    bad = validate_outline(outline)
    if bad:
        raise InternalError(f"reduction is not an outline rectangle: {bad[0]}")
    return outline


# ---------------------------------------------------------------------------
# Existence predicate

Verdict = Literal["yes", "no", "unknown"]


@dataclass(frozen=True)
class Existence:
    verdict: Verdict
    reason: str
    detail: str

    def __bool__(self) -> bool:
        return self.verdict == "yes"


def exists(partition: Partition) -> Existence:
    """Decide existence of a realization where the known results apply.

    Decides every partition with at most four parts, every single-size and
    two-size partition, and every partition whose three largest parts agree,
    and rejects the rest when 2*h1 + h2 > n (a necessary condition);
    everything else is honestly Unknown.  The reason tag is machine readable.
    """
    if not partition.is_non_increasing():
        raise PreconditionError("exists() expects non-increasing parts")
    h = partition.parts
    k = partition.k

    if k == 0:
        raise PreconditionError("existence is about non-empty partitions")
    if k == 1:
        return Existence("yes", "one-part",
                         "a latin square of any order is its own subsquare")
    if k == 2:
        return Existence("no", "two-parts",
                         "no latin square has exactly two disjoint subsquares "
                         "covering it")
    if k == 3:
        if h[0] == h[2]:
            return Existence("yes", "three-parts", "three equal parts")
        return Existence("no", "three-parts",
                         "three parts require all three equal")
    if k == 4:
        if h[0] == h[2]:
            return Existence("yes", "four-parts", "three largest parts equal")
        if h[1] == h[3] and h[0] <= 2 * h[3]:
            return Existence("yes", "four-parts",
                             "three smallest parts equal and h1 <= 2*h4")
        return Existence("no", "four-parts",
                         "outside the four-part characterization")

    sizes = sorted(set(h), reverse=True)
    if len(sizes) == 1:
        return Existence("yes", "uniform-sizes",
                         f"k = {k} equal parts and k != 2")
    if len(sizes) == 2:
        a, b = sizes
        u = h.count(a)
        if u >= 3:
            return Existence("yes", "two-sizes", f"{u} >= 3 parts of the "
                             "larger size")
        if a <= (k - 2) * b:
            return Existence("yes", "two-sizes",
                             f"{a} <= (k-2)*{b} with {u} large parts")
        return Existence("no", "two-sizes",
                         f"{u} < 3 large parts and {a} > (k-2)*{b}")
    if h[0] == h[2]:
        return Existence("yes", "three-equal-largest",
                         "three or more equal largest parts always admit a "
                         "realization")
    if 2 * h[0] + h[1] > partition.n:
        # the h1 x h2 cells in block 1's rows and block 2's columns hold no
        # symbol of either block, so each such column needs h1 of the others
        return Existence("no", "two-blocks-bound",
                         f"2*h1 + h2 = {2 * h[0] + h[1]} exceeds n = "
                         f"{partition.n}")
    return Existence("unknown", "uncharacterized",
                     "no applicable existence result")

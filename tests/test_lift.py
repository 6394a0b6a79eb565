import importlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pils import (
    ExtractionInfeasible,
    InternalError,
    OutlineRectangle,
    Partition,
    PreconditionError,
    RealizationError,
    construct_main,
    is_latin,
    lift,
    lift_labels_to_realization,
    lift_to_realization,
    odd_r_outline,
    reduce,
    validate_outline,
    verify_realization,
)
from pils.circulant import _circulant_labels, odd_r_labels, odd_r_seed_labels
from pils.lift import (
    _halve,
    _pair_walk,
    _peel_class,
    _perfect_matching,
    _row_extraction,
    _solve_extraction,
    _split_symbols_to_units,
)
from reference import (
    REDUCTION_COLS,
    REDUCTION_ROWS,
    REDUCTION_SYMS,
    REFERENCE_OUTLINE_CELLS,
)
from util import random_latin_square, random_partition


def reference_outline() -> OutlineRectangle:
    return OutlineRectangle(Partition(REDUCTION_ROWS),
                            Partition(REDUCTION_COLS),
                            Partition(REDUCTION_SYMS),
                            REFERENCE_OUTLINE_CELLS)


@st.composite
def compositions(draw, n: int) -> Partition:
    """An ordered partition of n, cut wherever a drawn flag is set."""
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    parts = [1]
    for cut in cuts:
        if cut:
            parts.append(1)
        else:
            parts[-1] += 1
    return Partition(parts)


@st.composite
def even_line_classes(draw):
    """(size p, cross parts, symbol parts, cells) of a line class of even
    size p: the sum of p unit lines, each spreading the symbol parts over
    cells of the cross parts' sizes."""
    p = draw(st.sampled_from([2, 4, 6, 8]), label="p")
    cross = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5),
                 label="cross")
    syms = draw(compositions(sum(cross)), label="syms").parts
    rng = draw(st.randoms(use_true_random=False))
    cells = [Counter() for _ in cross]
    for _ in range(p):
        line = [l for l, r in enumerate(syms, start=1) for _ in range(r)]
        rng.shuffle(line)
        for cell, q in zip(cells, cross):
            cell.update(line[:q])
            del line[:q]
    return p, cross, syms, [dict(cell) for cell in cells]


def all_subgraph_degrees(mult):
    """Exhaustive oracle: every achievable (left degrees, right degrees).

    Row by row: ``reach`` maps each achievable vector of right degrees to
    the left-degree prefixes achievable with it; a row takes 0..m of each
    of its edges.
    """
    reach = {(0,) * len(mult[0]): {()}}
    for row in mult:
        grown = {}
        for took in itertools.product(*[range(m + 1) for m in row]):
            degree = sum(took)
            for right, lefts in reach.items():
                key = tuple(r + t for r, t in zip(right, took))
                grown.setdefault(key, set()).update(
                    left + (degree,) for left in lefts)
        reach = grown
    return {(left, right) for right, lefts in reach.items()
            for left in lefts}


def extract(mult, left, right):
    """:func:`_solve_extraction` on a dense multiplicity matrix (0-based
    right vertices), its result made dense again."""
    rows = [{j: m for j, m in enumerate(row) if m} for row in mult]
    taken = _solve_extraction(rows, left, right)
    return [[got.get(j, 0) for j in range(len(row))]
            for got, row in zip(taken, mult)]


def degrees(mult):
    """(left degrees, right degrees) of a dense multiplicity matrix."""
    return (tuple(map(sum, mult)), tuple(map(sum, zip(*mult))))


class TestExtraction:
    def test_regular_case(self):
        sub = extract([[2, 2], [2, 2]], [2, 2], [2, 2])
        assert degrees(sub) == ((2, 2), (2, 2))
        assert all(0 <= m <= 2 for row in sub for m in row)

    def test_zero_targets(self):
        assert extract([[1, 0], [0, 1]], [0, 0], [0, 0]) == [[0, 0], [0, 0]]

    def test_identity_against_exhaustive_oracle(self):
        mult = [[1, 0], [0, 1]]
        achievable = all_subgraph_degrees(mult)
        assert ((1, 1), (1, 1)) in achievable
        assert extract(mult, [1, 1], [1, 1]) == [[1, 0], [0, 1]]
        # (2,0)/(1,1) is not achievable: left vertex 1 has one edge
        assert ((2, 0), (1, 1)) not in achievable
        with pytest.raises(ExtractionInfeasible):
            extract(mult, [2, 0], [1, 1])
        with pytest.raises(PreconditionError, match="target sums differ"):
            extract(mult, [1, 0], [1, 1])

    def test_infeasible_with_clean_preconditions(self):
        mult = [[1, 0], [0, 1]]
        assert ((0, 1), (1, 0)) not in all_subgraph_degrees(mult)
        with pytest.raises(ExtractionInfeasible) as info:
            extract(mult, [0, 1], [1, 0])
        assert 2 in info.value.left_set

    def test_infeasible_unit_targets_give_one_based_cut(self):
        # left vertices 1 and 2 both need right vertex 1, which takes one
        mult = [[1, 0, 0], [1, 0, 0], [0, 1, 1]]
        with pytest.raises(ExtractionInfeasible) as info:
            extract(mult, [1, 1, 1], [1, 1, 1])
        assert info.value.left_set == {1, 2}
        assert info.value.right_set == {1}

    def test_random_extractions_match_targets(self):
        rng = random.Random(11)
        for _ in range(40):
            nl, nr = rng.randint(1, 4), rng.randint(1, 4)
            mult = [[rng.randint(0, 3) for _ in range(nr)]
                    for _ in range(nl)]
            left, right = rng.choice(sorted(all_subgraph_degrees(mult)))
            sub = extract(mult, list(left), list(right))
            assert degrees(sub) == (left, right)
            assert all(0 <= m <= c for row, sub_row in zip(mult, sub)
                       for c, m in zip(row, sub_row))


def cut_row(outline: OutlineRectangle, i: int, a: int) -> OutlineRectangle:
    """``outline`` with row class i cut into classes of sizes (a, p_i - a)
    by :func:`_row_extraction`, the cut the lift makes."""
    P = outline.row_partition
    singles = [{s: 1} for s in range(outline.sym_partition.k + 1)]
    unit, rest = _row_extraction(
        outline.counts[i - 1], a, outline.col_partition.parts,
        outline.sym_partition.parts, singles)
    parts = P.parts[:i - 1] + (a, P.part(i) - a) + P.parts[i:]
    cells = outline.counts[:i - 1] + (unit, rest) + outline.counts[i:]
    return OutlineRectangle(Partition(parts), outline.col_partition,
                            outline.sym_partition, cells)


class TestSplits:
    def test_split_row_on_reference_outline(self):
        out = cut_row(reference_outline(), 4, 1)
        assert out.row_partition.parts == (1, 1, 1, 1, 1, 2, 1, 1)
        assert validate_outline(out) == []

    def test_split_single_cell_outline(self):
        two = Partition([2])
        out = cut_row(OutlineRectangle(two, two, two, [[(1, 1, 1, 1)]]), 1, 1)
        assert out.row_partition.parts == (1, 1)
        assert out.cell(1, 1) == (1, 1) and out.cell(2, 1) == (1, 1)
        assert validate_outline(out) == []

    def test_split_column_transposes(self):
        # the lift cuts column classes as the rows of its transposed cells
        outline = reference_outline()
        cols = [list(col) for col in zip(*outline.counts)]
        singles = [{s: 1} for s in range(outline.sym_partition.k + 1)]
        unit, rest = _row_extraction(cols[0], 1, outline.row_partition.parts,
                                     outline.sym_partition.parts, singles)
        Q = Partition((1, 2) + outline.col_partition.parts[1:])
        cells = [list(row) for row in zip(unit, rest, *cols[1:])]
        out = OutlineRectangle(outline.row_partition, Q,
                               outline.sym_partition, cells)
        assert out.col_partition.parts == (1, 2, 2, 2, 1, 1)
        assert validate_outline(out) == []

    def test_split_symbol_forced_two_by_two(self):
        # a symbol class of size 2 on unit rows and columns, split by the
        # lift's symbol phase
        grid = _split_symbols_to_units([[1, 1], [1, 1]], (2,))
        assert is_latin(grid)

    def test_symbol_phase_checks_each_row_of_a_class(self):
        # label 1 twice in row 1 and not in row 2: the class lists hold
        # each row's columns in turn, so a row off its degree is refused
        with pytest.raises(InternalError,
                           match="class 1 is not 1-regular on its rows"):
            _split_symbols_to_units([[1, 1], [2, 2]], (1, 1))

    def test_every_split_output_validates(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 10)
            sq = random_latin_square(n, rng)
            outline = reduce(sq, random_partition(n, rng),
                             random_partition(n, rng),
                             random_partition(n, rng))
            P = outline.row_partition
            splittable = [i for i in range(1, P.k + 1) if P.part(i) > 1]
            if splittable:
                i = rng.choice(splittable)
                out = cut_row(outline, i, rng.randint(1, P.part(i) - 1))
                assert validate_outline(out) == []


class TestLift:
    def test_reference_outline_lifts(self):
        outline = reference_outline()
        square = lift(outline)
        assert square.order == 9
        again = reduce(square, outline.row_partition, outline.col_partition,
                       outline.sym_partition)
        assert again.cells == outline.cells

    def test_identity_lift(self):
        rng = random.Random(3)
        sq = random_latin_square(6, rng)
        ones = Partition([1] * 6)
        outline = reduce(sq, ones, ones, ones)
        assert lift(outline).grid == sq.grid

    def test_single_cell_lift(self):
        whole = Partition([5])
        outline = OutlineRectangle(whole, whole, whole, [[(1,) * 25]])
        assert lift(outline).order == 5

    def test_pure_cells_are_written_as_cyclic_squares(self):
        # every cell holds one class l, with p_I = q_J = r_l = 2: each is a
        # whole component of its class, written as (x + y) mod 2 on l's
        # symbols
        P = Partition([2, 2, 2])
        cells = [[(i,) * 4 if i == j else (6 - i - j,) * 4 for j in (1, 2, 3)]
                 for i in (1, 2, 3)]
        square = lift(OutlineRectangle(P, P, P, cells))
        for I in range(3):
            for J in range(3):
                base = 2 * (cells[I][J][0] - 1)
                assert [list(row[2 * J:2 * J + 2])
                        for row in square.grid[2 * I:2 * I + 2]] == \
                    [[base + 1, base + 2], [base + 2, base + 1]]
        whole = Partition([5])
        outline = OutlineRectangle(whole, whole, whole, [[(1,) * 25]])
        assert lift(outline).grid == tuple(
            tuple((x + y) % 5 + 1 for y in range(5)) for x in range(5))

    def test_round_trip_check_catches_a_misplaced_symbol(self, monkeypatch):
        # a symbol phase that swaps symbols 1 and 2 still gives a latin
        # square, but one whose amalgamation is not the outline
        lift_module = importlib.import_module("pils.lift")
        split = lift_module._split_symbols_to_units

        def swapped(*args):
            return [[{1: 2, 2: 1}.get(v, v) for v in row]
                    for row in split(*args)]

        monkeypatch.setattr(lift_module, "_split_symbols_to_units", swapped)
        ones = Partition([1, 1, 1])
        outline = reduce(random_latin_square(3, random.Random(1)), ones,
                         ones, Partition([1, 2]))
        with pytest.raises(InternalError, match="round trip failed"):
            lift(outline)

    def test_lift_is_deterministic(self):
        outline = reference_outline()
        assert lift(outline).grid == lift(outline).grid

    def test_round_trip_small(self):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randint(1, 12)
            sq = random_latin_square(n, rng)
            P, Q, R = (random_partition(n, rng) for _ in range(3))
            outline = reduce(sq, P, Q, R)
            assert reduce(lift(outline), P, Q, R).cells == outline.cells

    def test_class_of_31_takes_popcount_minus_one_solves(self, monkeypatch):
        lift_module = importlib.import_module("pils.lift")
        solve = lift_module._solve_extraction
        calls = []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(lift_module, "_solve_extraction", counting)
        outline = reduce(random_latin_square(31, random.Random(31)),
                         Partition([31]), Partition([16, 8, 4, 2, 1]),
                         Partition([8, 8, 8, 7]))
        lift(outline)
        # the column classes are powers of two and are halved without a
        # solve; 31 = 16 + 8 + 4 + 2 + 1 cuts off four blocks
        assert len(calls) <= 4

    def test_flow_solves_stay_outline_sized(self, monkeypatch):
        lift_module = importlib.import_module("pils.lift")
        solve = lift_module._solve_extraction
        lefts = []

        def recording(mult_rows, *args):
            lefts.append(len(mult_rows))
            return solve(mult_rows, *args)

        monkeypatch.setattr(lift_module, "_solve_extraction", recording)
        # no part is a power of two: 37 = 32 + 4 + 1, 35 = 32 + 2 + 1,
        # 24 = 16 + 8; 45 = 32 + 8 + 4 + 1, 28 = 16 + 8 + 4, 23 = 16 + 4 + 2
        # + 1
        P, Q, R = (Partition([37, 35, 24]), Partition([45, 28, 23]),
                   Partition([41, 30, 25]))
        outline = reduce(random_latin_square(96, random.Random(96)), P, Q, R)
        lift(outline)
        popcounts = [bin(p).count("1") for p in P.parts + Q.parts]
        # one cut per block but the last of each class; each row cut has a
        # left vertex per column class, each column cut one per row block
        assert len(lefts) == sum(popcounts) - P.k - Q.k
        assert max(lefts) <= sum(popcounts)
        assert set(lefts) == {Q.k, sum(popcounts[:P.k])}

    def test_lift_ignores_count_map_order(self):
        outline = reduce(random_latin_square(31, random.Random(32)),
                         Partition([31]), Partition([16, 8, 4, 2, 1]),
                         Partition([8, 8, 8, 7]))
        reordered = OutlineRectangle(
            outline.row_partition, outline.col_partition,
            outline.sym_partition,
            [[dict(reversed(cell.items())) for cell in row]
             for row in outline.counts])
        assert lift(outline).grid == lift(reordered).grid

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        rng = data.draw(st.randoms(use_true_random=False))
        sq = random_latin_square(n, rng)
        P, Q, R = (data.draw(compositions(n), label=name) for name in "PQR")
        outline = reduce(sq, P, Q, R)
        assert OutlineRectangle(P, Q, R, outline.counts) == outline
        assert reduce(lift(outline), P, Q, R).cells == outline.cells
        splittable = [i for i in range(1, P.k + 1) if P.part(i) > 1]
        if splittable:
            i = data.draw(st.sampled_from(splittable), label="row")
            a = data.draw(st.integers(1, P.part(i) - 1), label="a")
            assert validate_outline(cut_row(outline, i, a)) == []


class TestHalve:
    @settings(max_examples=200, deadline=None)
    @given(case=even_line_classes())
    def test_halves_carry_half_of_every_degree(self, case):
        p, cross, syms, cells = case
        singles = [{s: 1} for s in range(len(syms) + 1)]
        halves = _halve(cells, singles)
        for half in halves:
            assert all(m > 0 for cell in half for m in cell.values())
            assert [sum(cell.values()) for cell in half] == \
                [p // 2 * q for q in cross]
            assert [sum(cell.get(l, 0) for cell in half)
                    for l in range(1, len(syms) + 1)] == \
                [p // 2 * r for r in syms]
        for cell, a, b in zip(cells, *halves):
            assert Counter(a) + Counter(b) == Counter(cell)

    def test_cell_with_odd_residual_degree_raises(self):
        singles = [{s: 1} for s in range(4)]
        with pytest.raises(InternalError, match="cell 1 .*odd residual"):
            _halve([{1: 2}, {1: 1, 2: 1, 3: 3}], singles)

    def test_symbol_with_odd_residual_degree_raises(self):
        # each cell has two odd entries; symbols 2 and 3 have one each
        singles = [{s: 1} for s in range(4)]
        with pytest.raises(InternalError, match="symbol 2 .*odd residual"):
            _halve([{1: 1, 2: 1}, {1: 1, 3: 1}], singles)


def bucket_pair_walk(right, n):
    """The pairing walk as it was written with a bucket list per right
    vertex: edges at a vertex listed in increasing order and paired
    consecutively, then the same walk."""
    at = [[] for _ in range(n)]
    for e, v in enumerate(right):
        at[v].append(e)
    by_right = [e for edges in at for e in edges]
    partner = [0] * len(right)
    for e, f in zip(by_right[::2], by_right[1::2]):
        partner[e] = f
        partner[f] = e
    back = [-1] * (len(right) // 2)
    for q in range(len(back)):
        if back[q] >= 0:
            continue
        start = e = 2 * q
        while True:
            f = partner[e]
            back[f // 2] = f
            e = f ^ 1
            if e == start:
                break
    return back


@st.composite
def even_multigraphs(draw):
    """(n, right) of a bipartite multigraph whose right vertices, in
    [0, n), all have even degree: a drawn list of vertices, doubled and
    shuffled; edges 2q and 2q + 1 share a left vertex."""
    n = draw(st.integers(1, 12), label="n")
    drawn = draw(st.lists(st.integers(0, n - 1), max_size=40), label="drawn")
    rng = draw(st.randoms(use_true_random=False))
    right = drawn * 2
    rng.shuffle(right)
    return n, right


class TestPairWalk:
    @settings(max_examples=200, deadline=None)
    @given(case=even_multigraphs())
    def test_same_walk_as_bucket_lists(self, case):
        n, right = case
        back, pairs = _pair_walk(right, n)
        assert back == bucket_pair_walk(right, n)
        assert pairs == [right.count(v) // 2 for v in range(n)]
        # one edge of every pair is walked back, half of each vertex's
        assert [back[q] // 2 for q in range(len(back))] == \
            list(range(len(back)))
        assert Counter(right[e] for e in back) == \
            Counter({v: c // 2 for v, c in Counter(right).items()})

    def test_odd_vertices_stop_the_walk(self):
        back, pairs = _pair_walk([0, 1, 1, 2], 3)
        assert back is None and pairs == [-1, 1, -1]


@st.composite
def regular_classes(draw):
    """(n, r, adj) of a random r-regular simple bipartite graph on n rows
    and n columns: r distinct cyclic shifts under random row and column
    permutations, each row's columns ascending."""
    n = draw(st.integers(1, 40), label="n")
    r = draw(st.integers(1, n), label="r")
    rng = draw(st.randoms(use_true_random=False))
    shifts = rng.sample(range(n), r)
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for s in shifts:
            adj[rows[i]].append(cols[(i + s) % n])
    return n, r, [sorted(row) for row in adj]


class TestPeelClass:
    # r = 3 sits before r = 2 so that the earlier ids keep their cases
    @pytest.mark.parametrize("symbols, message", [
        ((1,), "did not resolve to a transversal"),
        ((1, 2, 3), "no perfect matching"),
        ((1, 2), "class 1 is not 2-regular on its rows"),
    ])
    def test_irregular_class_raises(self, symbols, message):
        # row 1 holds class 1 twice, row 2 not at all
        with pytest.raises(InternalError, match=message):
            _peel_class([[0, 1], []], 1, symbols, [[0, 0], [0, 0]])

    def test_irregular_columns_raise(self):
        # all three rows hold class 1 in the same columns (0 and 1, then 0
        # alone): every row has the degree, but no column has it
        out = [[0] * 3 for _ in range(3)]
        with pytest.raises(InternalError,
                           match="class 1 is not 2-regular on its columns"):
            _peel_class([[0, 1] for _ in out], 1, (1, 2), out)
        with pytest.raises(InternalError,
                           match="did not resolve to a transversal"):
            _peel_class([[0] for _ in out], 1, (1,), out)

    def test_repeated_column_fails_the_column_check(self):
        # both rows hold class 1 twice in column 0: every degree is even,
        # but column 0 has degree 4 and column 1 none
        out = [[0, 0], [0, 0]]
        with pytest.raises(InternalError,
                           match="class 1 is not 2-regular on its columns"):
            _peel_class([[0, 0], [0, 0]], 1, (1, 2), out)

    @settings(max_examples=200, deadline=None)
    @given(case=regular_classes())
    def test_halving_writes_transversals(self, case):
        n, r, adj = case
        lift_module = importlib.import_module("pils.lift")
        matching = lift_module._perfect_matching
        calls = []

        def counted(*args):
            calls.append(args)
            return matching(*args)

        outs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lift_module, "_perfect_matching", counted)
            for _ in range(2):
                out = [[0] * n for _ in range(n)]
                _peel_class([list(row) for row in adj], 1,
                            range(1, r + 1), out)
                outs.append((out, len(calls)))
                calls.clear()
        (out, matchings), again = outs
        assert again == (out, matchings)
        for i, row in enumerate(out):
            assert [j for j, v in enumerate(row) if v] == adj[i]
        for v in range(1, r + 1):
            cells = [(i, j) for i, row in enumerate(out)
                     for j, x in enumerate(row) if x == v]
            assert sorted(i for i, _ in cells) == list(range(n))
            assert sorted(j for _, j in cells) == list(range(n))
        # one matching per odd degree on the way down: none for a power
        # of two, at most r/2 otherwise
        if r & (r - 1) == 0:
            assert matchings == 0
        else:
            assert 2 * matchings <= r


class TestPerfectMatching:
    @pytest.mark.parametrize("n", [200, 257])
    @pytest.mark.parametrize("r", [3, 5, 9, 31])
    def test_band_graphs(self, n, r):
        # row i is joined to columns i .. i + r - 1 (mod n)
        adj = [[(i + d) % n for d in range(r)] for i in range(n)]
        match = _perfect_matching(adj, n)
        assert sorted(match) == list(range(n))
        assert all(j in row for j, row in zip(match, adj))

    def test_non_regular_graph_raises(self):
        # rows 1 and 2 can only take column 0
        with pytest.raises(InternalError, match="no perfect matching"):
            _perfect_matching([[0, 1], [0], [0]], 3)


# an odd-tail seed of size h1 with no add-on step after it: construct_main
# lifts it from its label grid
LABEL_ROUTE = Partition((3, 3, 3, 2, 2, 2) + (1,) * 7)


class TestLiftLabelsToRealization:
    def test_round_trip_of_the_odd_seed(self):
        labels = odd_r_labels(LABEL_ROUTE)
        square, cert = lift_labels_to_realization(labels, LABEL_ROUTE)
        verify_realization(square, LABEL_ROUTE)
        ones = Partition([1] * LABEL_ROUTE.n)
        assert reduce(square, ones, ones, LABEL_ROUTE).cells == tuple(
            tuple((l,) for l in row) for row in labels)
        # and it amalgamates to the seed's outline square
        assert reduce(square, LABEL_ROUTE, LABEL_ROUTE, LABEL_ROUTE).counts \
            == odd_r_outline(LABEL_ROUTE).counts

    @pytest.mark.parametrize("parts", [
        LABEL_ROUTE.parts,
        (34, 34, 34, 29, 24, 22, 22, 20, 18, 18, 18, 16, 16, 16, 10),
    ])
    def test_seed_symbols_are_kept(self, parts):
        # both are lifted from the seed's label grid; labels 1..3h of the
        # circulant seed are single symbols, and outside the 3h x 3h corner
        # the square holds them where the seed does
        P = Partition(parts)
        h = P.part(1)
        seed, _, _ = _circulant_labels(Partition((3 * h,) + P.parts[3:]))
        grid = construct_main(P)[0].grid
        kept = [(x, y) for x, row in enumerate(seed) for y, v in enumerate(row)
                if v <= 3 * h and max(x, y) >= 3 * h]
        # the corner's lines hold them only inside it, the others once each
        assert len(kept) == 3 * h * (P.n - 3 * h)
        assert all(grid[x][y] == seed[x][y] for x, y in kept)

    def test_the_seed_grid_lifts_over_its_finer_labels(self):
        labels = odd_r_seed_labels(LABEL_ROUTE)
        square, _ = lift_labels_to_realization(labels, LABEL_ROUTE)
        assert square.grid == construct_main(LABEL_ROUTE)[0].grid
        # labels 1..3h are single symbols, so the corner is kept as is
        assert [list(row[:9]) for row in square.grid[:9]] == \
            [row[:9] for row in labels[:9]]
        # its labels do not split (3^6, 1^4) into consecutive labels: the
        # cut after symbol 12 falls inside label 11, symbols 12 and 13
        with pytest.raises(InternalError, match="consecutive labels"):
            lift_labels_to_realization(labels,
                                       Partition((3,) * 6 + (1,) * 4))

    def test_swapped_labels_raise_before_the_symbol_phase(self, monkeypatch):
        lift_module = importlib.import_module("pils.lift")
        calls = []
        monkeypatch.setattr(lift_module, "_split_symbols_to_units",
                            lambda *args: calls.append(args))
        labels = odd_r_labels(LABEL_ROUTE)
        row = labels[-1]
        j = next(j for j, v in enumerate(row) if v != row[0])
        row[0], row[j] = row[j], row[0]
        with pytest.raises(InternalError, match="label column 1 "):
            lift_labels_to_realization(labels, LABEL_ROUTE)
        assert calls == []

    def test_foreign_label_on_diagonal_raises(self):
        # an intercalate swap keeps every line's labels, and moves label y
        # into diagonal block 1
        labels = odd_r_labels(LABEL_ROUTE)
        h = LABEL_ROUTE.part(1)
        n = LABEL_ROUTE.n
        a, b, c, d = next(
            (a, b, c, d) for a in range(h) for b in range(h)
            for d in range(h, n) for c in range(h, n)
            if labels[c][b] == labels[a][d] and labels[c][d] == 1)
        y = labels[a][d]
        labels[a][b] = labels[c][d] = y
        labels[a][d] = labels[c][b] = 1
        with pytest.raises(InternalError, match="diagonal block 1 "):
            lift_labels_to_realization(labels, LABEL_ROUTE)


class TestLiftToRealization:
    def test_hand_built_three_blocks(self):
        # diagonal 4 copies of i, off-diagonal 4 copies of the third symbol
        P = Partition([2, 2, 2])
        cells = [[(i,) * 4 if i == j else (6 - i - j,) * 4 for j in (1, 2, 3)]
                 for i in (1, 2, 3)]
        square, cert = lift_to_realization(
            OutlineRectangle(P, P, P, cells), P)
        verify_realization(square, P)

    def test_single_block(self):
        whole = Partition([4])
        outline = OutlineRectangle(whole, whole, whole, [[(1,) * 16]])
        square, cert = lift_to_realization(outline, whole)
        assert square.order == 4 and len(cert.blocks) == 1

    def test_foreign_symbol_on_diagonal_rejected(self):
        P = Partition([2, 2, 2])
        cells = [[(i,) * 4 if i == j else (6 - i - j,) * 4 for j in (1, 2, 3)]
                 for i in (1, 2, 3)]
        cells[0][0] = (1, 1, 1, 2)
        cells[0][1] = (1, 3, 3, 3)
        with pytest.raises(RealizationError):
            lift_to_realization(OutlineRectangle(P, P, P, cells), P)

import hashlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pils import (
    GridError,
    Partition,
    PreconditionError,
    add_on_outline,
    blow_up,
    ls_uniform,
    odd_r_outline,
    reduce,
    sum_outline_arrays,
    validate_outline,
)
from pils.compose import (
    _one_share_array,
    array_from_outline_square,
    square_from_array,
    validate_outline_array,
)
from pils.core import _amalgamate


@st.composite
def addon_inputs(draw):
    """(m, tail, h_m) within the add-on bound."""
    m = draw(st.integers(3, 7))
    h_m = draw(st.integers(1, 4))
    tail = sorted(draw(st.lists(st.integers(1, h_m), min_size=1,
                                max_size=6)), reverse=True)
    assume(sum(tail[1:]) <= (m - 1) * h_m + (m - 2) * tail[0])
    return m, tail, h_m


def empty_array(k):
    return [[{} for _ in range(k)] for _ in range(k)]


def sizes(array, i, j):
    """F(i, j): the size of cell (i, j) of a grid (1-based)."""
    return sum(array[i - 1][j - 1].values())


def merge(array, groups):
    """:func:`_amalgamate` of a grid along ``groups``, a set partition of
    its classes listed by smallest member: class x becomes the (1-based)
    index of its group on all three axes."""
    relabel = [0] * (len(array) + 1)
    for g, members in enumerate(groups, start=1):
        for x in members:
            relabel[x] = g
    return _amalgamate(array, relabel, relabel, relabel, (len(groups),) * 2)


def frozen(array):
    """A deep copy of a grid's cells, dict order included."""
    return [[list(cell.items()) for cell in row] for row in array]


class TestSumAndAmalgamate:
    def test_empty_is_identity(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        arr = reduce(sq, P, P, P).counts
        before = frozen(arr)
        assert sum_outline_arrays(arr, empty_array(3)) == \
            [list(row) for row in arr]
        assert frozen(arr) == before

    def test_doubling(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        arr = reduce(sq, P, P, P).counts
        before = frozen(arr)
        double = sum_outline_arrays(arr, arr)
        assert double == sum_outline_arrays(empty_array(3), arr, 2)
        assert validate_outline_array(double) == []
        assert frozen(arr) == before

    def test_zeroed_diagonal_plus_diagonal_array(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        outline = reduce(sq, P, P, P)
        body = array_from_outline_square(outline)
        assert all(body[i][i] == {} for i in range(3))
        assert outline.cell(1, 1) == (1,) * 4
        diag = [[{i: 4} if i == j else {} for j in (1, 2, 3)]
                for i in (1, 2, 3)]
        total = sum_outline_arrays(body, diag)
        for i in range(1, 4):
            for j in range(1, 4):
                assert sizes(total, i, j) == 4
        assert validate_outline_array(total) == []
        assert total == [list(row) for row in outline.counts]

    def test_order_mismatch(self):
        with pytest.raises(PreconditionError):
            sum_outline_arrays(empty_array(2), empty_array(3))

    def test_amalgamate_singletons_is_identity(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        arr = reduce(sq, P, P, P).counts
        out = merge(arr, [[1], [2], [3]])
        assert out == [list(row) for row in arr]

    def test_amalgamate_everything(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        arr = reduce(sq, P, P, P).counts
        out = merge(arr, [[1, 2, 3]])
        assert out == [[{1: 36}]]

    def test_amalgamate_revalidates_against_summed_frequency(self):
        from reference import REFERENCE_PARTITION, REFERENCE_SQUARE
        from pils import LatinSquare

        P = Partition(REFERENCE_PARTITION)
        sq = LatinSquare(REFERENCE_SQUARE)
        arr = reduce(sq, P, P, P).counts
        groups = [[1], [2, 3], [4], [5]]
        out = merge(arr, groups)
        assert len(out) == 4
        assert validate_outline_array(out) == []
        assert sizes(out, 2, 2) == sum(sizes(arr, x, y) for x in (2, 3)
                                       for y in (2, 3))

    def test_sum_commutes_with_amalgamation(self):
        rng = random.Random(23)
        from util import random_latin_square

        P = Partition([2, 2, 1, 1])
        arrays = []
        for _ in range(2):
            sq = random_latin_square(6, rng)
            arrays.append(reduce(sq, P, P, P).counts)
        groups = [[1, 2], [3], [4]]
        a, b = arrays
        first = merge(sum_outline_arrays(a, b), groups)
        second = sum_outline_arrays(merge(a, groups), merge(b, groups))
        assert first == second


class TestValidateAndScale:
    def test_non_square_grid_rejected(self):
        with pytest.raises(GridError):
            validate_outline_array([[{}, {}], [{}]])

    @pytest.mark.parametrize("symbol", [0, 3, -1, "1", 1.0])
    def test_symbol_outside_k_rejected(self, symbol):
        grid = empty_array(2)
        grid[0][1] = {symbol: 1}
        with pytest.raises(GridError):
            validate_outline_array(grid)

    @pytest.mark.parametrize("count", [-1, 1.0, "2", True, None])
    def test_bad_count_rejected(self, count):
        grid = empty_array(2)
        grid[1][0] = {1: count}
        with pytest.raises(GridError):
            validate_outline_array(grid)

    def test_violations_are_reported(self):
        sq, _ = ls_uniform(2, 3)
        P = Partition([2, 2, 2])
        grid = [list(row) for row in reduce(sq, P, P, P).counts]
        assert validate_outline_array(grid) == []
        grid[0][0] = {2: 4}  # symbol 1 moved out of row 1 and column 1
        problems = validate_outline_array(grid)
        assert "row 1: symbol 1 occurs 0, F(1,1)=4" in problems
        assert "column 1: symbol 2 occurs 8, F(2,1)=4" in problems

    def test_scale_by_zero_is_empty(self):
        arr = add_on_outline(3, [2, 2, 1], 2)
        before = frozen(arr)
        assert sum_outline_arrays(empty_array(6), arr, 0) == empty_array(6)
        assert frozen(arr) == before

    def test_scale_negative_rejected(self):
        with pytest.raises(PreconditionError):
            sum_outline_arrays(empty_array(2), empty_array(2), -1)


class TestAddOn:
    def test_small_case(self):
        # m = 3, parts beyond the corner: 2, 2, 1
        arr = add_on_outline(3, [2, 2, 1], 2)
        assert validate_outline_array(arr) == []
        for i in range(1, 4):
            for j in range(1, 4):
                assert sizes(arr, i, j) == (0 if i == j else 4)
        assert sizes(arr, 1, 4) == 2 and sizes(arr, 1, 5) == 2
        assert sizes(arr, 1, 6) == 1
        assert sizes(arr, 4, 1) == 2 and sizes(arr, 6, 2) == 1
        assert sizes(arr, 4, 5) == 0

    def test_single_symbol_tail(self):
        arr = add_on_outline(3, [2], 3)
        assert len(arr) == 4 and all(len(row) == 4 for row in arr)
        for i in range(1, 4):
            for j in range(1, 4):
                assert sizes(arr, i, j) == (0 if i == j else 5)
            assert sizes(arr, i, 4) == 2 and sizes(arr, 4, i) == 2

    def test_mostly_empty_shares(self):
        # a single tail symbol leaves most shares empty; those contribute
        # the reduction of a plain idempotent square, diagonal dropped
        arr = add_on_outline(3, [1], 3)
        assert validate_outline_array(arr) == []
        assert sizes(arr, 1, 2) == 4 and sizes(arr, 1, 4) == 1
        assert sizes(arr, 4, 4) == 0

    def test_too_heavy_tail_rejected(self):
        with pytest.raises(PreconditionError):
            add_on_outline(3, [3, 3, 3, 3, 3], 3)

    def test_m_below_three_rejected(self):
        with pytest.raises(PreconditionError):
            add_on_outline(2, [1], 1)

    @settings(max_examples=60, deadline=None)
    @given(args=addon_inputs())
    def test_equals_the_share_by_share_sum(self, args):
        # the reference builds one array per round-robin share, repeats
        # included, and sums them cellwise in dealing order
        m, tail, h_m = args
        k = m + len(tail)
        groups = h_m + tail[0]
        symbols = [m + 1 + offset
                   for offset, h in enumerate(tail) for _ in range(h)]
        total = empty_array(k)
        for g in range(groups):
            share = symbols[g::groups]
            total = sum_outline_arrays(total, _one_share_array(m, k, share))
        assert frozen(add_on_outline(m, tail, h_m)) == frozen(total)


class TestBlowUp:
    def test_identity_when_g_equals_h1(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        out = blow_up(outline, 2, 4, 4)
        assert out.cells == outline.cells

    def test_grow_to_three(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        out = blow_up(outline, 3, 4, 4)
        assert out.row_partition.parts == (3, 3, 3, 2, 2, 1, 1, 1, 1, 1)
        assert validate_outline(out) == []
        for i in (1, 2, 3):
            assert out.cell(i, i) == (i,) * 9

    def test_infeasible_growth_rejected(self):
        # r = 11: growing 2 -> 3 needs 11 units but only 2(9-4) = 10 exist
        # once the spare beta copies are withheld
        P = Partition([2, 2, 2] + [1] * 11)
        outline = odd_r_outline(P)
        with pytest.raises(PreconditionError):
            blow_up(outline, 3, 0, 0)

    def test_square_from_array_round_trip(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        arr = array_from_outline_square(outline)
        back = square_from_array(arr, P)
        assert back.cells == outline.cells
        assert back.counts == outline.counts

    def test_square_from_array_needs_an_empty_diagonal(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        with pytest.raises(PreconditionError):
            square_from_array(outline.counts, P)
        with pytest.raises(PreconditionError):
            square_from_array(array_from_outline_square(outline),
                              Partition([5, 5, 5]))


# sha256 over every add-on array and every add-on step outline that
# construct_main builds at n <= 24 (each cell as its ``list(items())``, so
# dict order is pinned too)
ADD_ON_DIGEST = \
    "7d813920b277a867843e0e0ea85b05c02907d9c02449a881afe8bb72e15b3175"


def test_add_on_steps_are_pinned(monkeypatch):
    from pils import base, compose, engine
    from pils.oracle import enumerate_partitions

    digest = hashlib.sha256()
    built = {"arrays": 0, "steps": 0}
    add_on_outline_ = compose.add_on_outline
    add_on_step_ = compose.add_on_step

    def traced_outline(m, tail, h_m):
        array = add_on_outline_(m, tail, h_m)
        built["arrays"] += 1
        digest.update(repr(("array", m, list(tail), h_m,
                            frozen(array))).encode())
        return array

    def traced_step(outline, target, level):
        out = add_on_step_(outline, target, level)
        built["steps"] += 1
        digest.update(repr(("step", target.parts, level,
                            frozen(out.counts))).encode())
        return out

    monkeypatch.setattr(compose, "add_on_outline", traced_outline)
    monkeypatch.setattr(engine, "add_on_step", traced_step)
    monkeypatch.setattr(base, "add_on_step", traced_step)
    for n in range(3, 25):
        for P in enumerate_partitions(n):
            if P.k >= 3 and P.part(1) == P.part(3):
                engine.construct_main(P)
    assert built == {"arrays": 756, "steps": 756}
    assert digest.hexdigest() == ADD_ON_DIGEST

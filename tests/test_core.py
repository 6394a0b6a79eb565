import copy
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pils import (
    GridError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PartitionError,
    PreconditionError,
    RealizationError,
    enumerate_partitions,
    exists,
    is_latin,
    reduce,
    validate_outline,
    verify_realization,
)
from pils.circulant import CirculantParams, TripleSet, _circulant_labels
from pils.core import (
    Existence,
    OutlineViolation,
    SubsquareBlock,
    SubsquareCertificate,
    _amalgamate,
    _amalgamate_labels,
)
from pils.engine import ConstructionTrace
from pils.oracle import OracleResult
from reference import (
    REDUCTION_COLS,
    REDUCTION_ROWS,
    REDUCTION_SYMS,
    REFERENCE_OUTLINE_CELLS,
    REFERENCE_PARTITION,
    REFERENCE_SQUARE,
)
from util import random_latin_square, random_partition


def in_order(cells):
    """Every cell's (symbol, count) pairs in dict order."""
    return [[list(cell.items()) for cell in row] for row in cells]


class TestPartition:
    def test_blocks_partition_the_ground_set(self):
        p = Partition([3, 2, 2, 1, 1])
        assert p.n == 9 and p.k == 5
        covered = [x for i in range(1, 6) for x in p.block(i)]
        assert covered == list(range(1, 10))
        assert list(p.block(2)) == [4, 5]
        assert p.block_of(5) == 2

    @pytest.mark.parametrize("i", [-1, 0, 4])
    def test_part_and_block_reject_an_index_outside_one_to_k(self, i):
        # a negative or zero index must not wrap round to a later part
        p = Partition((3, 2, 1))
        for get in (p.part, p.block):
            with pytest.raises(PartitionError,
                               match=rf"part {i} outside \[3\]"):
                get(i)
        assert [p.part(j) for j in (1, 2, 3)] == [3, 2, 1]
        assert p.block(3) == range(6, 7)

    def test_raw_constructor_preserves_order(self):
        p = Partition([1, 3, 2])
        assert p.parts == (1, 3, 2)
        assert not p.is_non_increasing()
        assert Partition.sorted([1, 3, 2]).parts == (3, 2, 1)

    def test_rejects_bad_parts(self):
        with pytest.raises(PartitionError):
            Partition([2, 0])
        with pytest.raises(PartitionError):
            Partition([-1])

    @pytest.mark.parametrize("part", [2.7, 2.0, "3", None])
    def test_rejects_parts_that_are_not_integers(self, part):
        # an int() conversion would truncate 2.7 to 2 and parse "3"
        with pytest.raises(PartitionError, match=re.escape(repr(part))):
            Partition([3, part])

    def test_int_subclasses_become_plain_ints(self):
        parts = Partition([3, True]).parts
        assert parts == (3, 1) and type(parts[1]) is int

    def test_empty_partition_is_the_zero_object(self):
        p = Partition([])
        assert p.n == 0 and p.k == 0


_BLOCK = SubsquareBlock((1,), (2,), (3,))

# Each record's constructor, its fields in order, and its repr; the reprs
# are those the records printed when they were generated dataclasses.
RECORDS = [
    pytest.param(
        lambda: Partition([2, 1]), {"parts": (2, 1)},
        "Partition(parts=(2, 1))", id="Partition"),
    pytest.param(
        lambda: LatinSquare([[1, 2], [2, 1]]),
        {"order": 2, "grid": ((1, 2), (2, 1))},
        "LatinSquare(order=2, grid=((1, 2), (2, 1)))", id="LatinSquare"),
    pytest.param(
        lambda: SubsquareBlock((1,), (2,), (3,)),
        {"rows": (1,), "cols": (2,), "symbols": (3,)},
        "SubsquareBlock(rows=(1,), cols=(2,), symbols=(3,))",
        id="SubsquareBlock"),
    pytest.param(
        lambda: SubsquareCertificate((_BLOCK,)), {"blocks": (_BLOCK,)},
        "SubsquareCertificate(blocks=(SubsquareBlock(rows=(1,), cols=(2,), "
        "symbols=(3,)),))", id="SubsquareCertificate"),
    pytest.param(
        lambda: OutlineRectangle(Partition([1, 1]), Partition([1, 1]),
                                 Partition([2]), [[[1], [1]], [[1], [1]]]),
        {"row_partition": Partition([1, 1]), "col_partition": Partition([1, 1]),
         "sym_partition": Partition([2]),
         "counts": (({1: 1}, {1: 1}), ({1: 1}, {1: 1}))},
        "OutlineRectangle(row_partition=Partition(parts=(1, 1)), "
        "col_partition=Partition(parts=(1, 1)), "
        "sym_partition=Partition(parts=(2,)), "
        "counts=(({1: 1}, {1: 1}), ({1: 1}, {1: 1})))", id="OutlineRectangle"),
    pytest.param(
        lambda: OutlineViolation("row-count", (2,), 3, 4, 5),
        {"kind": "row-count", "where": (2,), "symbol": 3, "expected": 4,
         "actual": 5},
        "OutlineViolation(kind='row-count', where=(2,), symbol=3, expected=4, "
        "actual=5)", id="OutlineViolation"),
    pytest.param(
        lambda: Existence("yes", "one-part", "x"),
        {"verdict": "yes", "reason": "one-part", "detail": "x"},
        "Existence(verdict='yes', reason='one-part', detail='x')",
        id="Existence"),
    pytest.param(
        lambda: CirculantParams(Partition([2, 1]), 3, frozenset({2}),
                                frozenset({1}), (1, 2)),
        {"partition": Partition([2, 1]), "t": 3, "d1": frozenset({2}),
         "d2": frozenset({1}), "d": (1, 2)},
        "CirculantParams(partition=Partition(parts=(2, 1)), t=3, "
        "d1=frozenset({2}), d2=frozenset({1}), d=(1, 2))",
        id="CirculantParams"),
    pytest.param(
        lambda: TripleSet(1, ((1, 2, 3),)),
        {"index": 1, "triples": ((1, 2, 3),)},
        "TripleSet(index=1, triples=((1, 2, 3),))", id="TripleSet"),
    pytest.param(
        lambda: OracleResult("budget-exceeded", None, 51),
        {"status": "budget-exceeded", "square": None, "nodes": 51},
        "OracleResult(status='budget-exceeded', square=None, nodes=51)",
        id="OracleResult"),
    pytest.param(
        lambda: ConstructionTrace((3, 3, 3), [{"op": "base"}]),
        {"partition": (3, 3, 3), "steps": [{"op": "base"}]},
        "ConstructionTrace(partition=(3, 3, 3), steps=[{'op': 'base'}])",
        id="ConstructionTrace"),
]


class TestRecords:
    @pytest.mark.parametrize("make, fields, text", RECORDS)
    def test_fields_equality_and_repr(self, make, fields, text):
        record = make()
        assert {f: getattr(record, f) for f in fields} == fields
        assert record == make() and not record != make()
        assert repr(record) == text
        others = [p.values[0]() for p in RECORDS if p.values[0] is not make]
        assert len(others) == 10
        assert all(record != other for other in others)

    @pytest.mark.parametrize("make, fields, text", RECORDS)
    def test_hash_is_the_hash_of_the_fields(self, make, fields, text):
        try:
            expected = hash(tuple(fields.values()))
        except TypeError:  # a field holds a dict or a list
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == expected

    @pytest.mark.parametrize("make, fields, text", RECORDS[:-1])
    def test_fields_are_frozen(self, make, fields, text):
        record = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert {f: getattr(record, f) for f in fields} == fields

    @pytest.mark.parametrize("make, fields, text", RECORDS)
    def test_pickle_and_deepcopy_round_trip(self, make, fields, text):
        record = make()
        for copied in (pickle.loads(pickle.dumps(record)),
                       copy.deepcopy(record)):
            assert copied == record and repr(copied) == text
            assert type(copied) is type(record)

    def test_trace_is_mutable_and_unhashable(self):
        trace = ConstructionTrace((3, 3, 3))
        assert ConstructionTrace.__hash__ is None
        assert trace == ConstructionTrace((3, 3, 3))
        trace.add("base", route="uniform")
        assert trace.steps == [{"op": "base", "route": "uniform"}]
        assert trace != ConstructionTrace((3, 3, 3))
        assert trace == ConstructionTrace((3, 3, 3),
                                          [{"op": "base", "route": "uniform"}])


class TestIsLatin:
    def test_reference_square(self):
        assert is_latin(REFERENCE_SQUARE)

    def test_order_one(self):
        assert is_latin([[1]])

    def test_repeated_symbol(self):
        assert not is_latin([[1, 2], [1, 2]])

    def test_malformed_is_an_error_not_false(self):
        with pytest.raises(GridError):
            is_latin([[1, 2], [2]])
        with pytest.raises(GridError):
            is_latin([[1, 3], [3, 1]])


class TestVerifyRealization:
    def test_reference_square_normal_form(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        cert = verify_realization(sq, Partition(REFERENCE_PARTITION))
        assert [blk.symbols for blk in cert.blocks] == [
            (1, 2, 3), (4, 5), (6, 7), (8,), (9,)]

    def test_whole_square_is_one_block(self):
        sq = LatinSquare([[(x + y) % 4 + 1 for y in range(4)]
                          for x in range(4)])
        cert = verify_realization(sq, Partition([4]))
        assert len(cert.blocks) == 1

    def test_wrong_partition_reports_block(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        with pytest.raises(RealizationError) as info:
            verify_realization(sq, Partition([3, 3, 1, 1, 1]))
        assert info.value.block == 2

    def test_mutation_is_caught(self):
        grid = [list(row) for row in REFERENCE_SQUARE]
        # swap two cells inside block 2's rows, leaving the grid latin
        grid[3][5], grid[3][7] = grid[3][7], grid[3][5]
        grid[7][5], grid[7][7] = grid[7][7], grid[7][5]
        assert is_latin(grid)
        with pytest.raises(RealizationError):
            verify_realization(LatinSquare(grid),
                               Partition(REFERENCE_PARTITION))


class TestReduce:
    def test_reference_reduction(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        outline = reduce(sq, Partition(REDUCTION_ROWS),
                         Partition(REDUCTION_COLS), Partition(REDUCTION_SYMS))
        assert [list(row) for row in outline.cells] == [
            list(row) for row in REFERENCE_OUTLINE_CELLS]

    def test_singleton_partitions_embed_the_square(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        ones = Partition([1] * 9)
        outline = reduce(sq, ones, ones, ones)
        for r in range(1, 10):
            for c in range(1, 10):
                assert outline.cell(r, c) == (sq.cell(r, c),)

    def test_everything_amalgamates(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        whole = Partition([9])
        outline = reduce(sq, whole, whole, whole)
        assert outline.cell(1, 1) == (1,) * 81

    def test_sum_mismatch(self):
        sq = LatinSquare(REFERENCE_SQUARE)
        with pytest.raises(PartitionError):
            reduce(sq, Partition([8]), Partition([9]), Partition([9]))

    def test_reduction_always_validates(self):
        rng = random.Random(20260808)
        for _ in range(25):
            n = rng.randint(1, 12)
            sq = random_latin_square(n, rng)
            outline = reduce(sq, random_partition(n, rng),
                             random_partition(n, rng),
                             random_partition(n, rng))
            assert validate_outline(outline) == []


    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), rng=st.randoms(use_true_random=False))
    def test_reduction_amalgamates_the_singleton_outline(self, n, rng):
        sq = random_latin_square(n, rng)
        P, Q, R = (random_partition(n, rng) for _ in range(3))
        singles = [[{v: 1} for v in row] for row in sq.grid]
        want = _amalgamate(singles,
                           *([0] + [part.block_of(x) for x in range(1, n + 1)]
                             for part in (P, Q, R)),
                           (P.k, Q.k))
        assert in_order(reduce(sq, P, Q, R).counts) == in_order(want)


class TestAmalgamateLabels:
    def test_amalgamation_matches_the_singleton_outline(self):
        rng = random.Random(5)
        labels, syms = _circulant_labels(Partition([5, 2, 1, 1, 1, 1, 1, 1, 1]))
        n = len(labels)
        row_map = [0] + [rng.randint(1, 4) for _ in range(n)]
        col_map = [0] + [rng.randint(1, 3) for _ in range(n)]
        sym_map = [0] + [rng.randint(1, 5) for _ in range(syms.k)]
        singles = [[{v: 1} for v in row] for row in labels]
        got = _amalgamate_labels(labels, row_map, col_map, sym_map, (4, 3))
        want = _amalgamate(singles, row_map, col_map, sym_map, (4, 3))
        # equal cells, each listing its symbols in the same order
        assert in_order(got) == in_order(want)

    def test_symbols_may_map_above_the_map_length(self):
        # the add-on shares map a square's symbols onto class ids up to k,
        # beyond the square's own order
        rng = random.Random(6)
        n = 6
        labels = [[rng.randint(1, n) for _ in range(n)] for _ in range(n)]
        index = [0] + [rng.randint(1, 3 * n) for _ in range(n)]
        assert max(index) > len(index) - 1
        singles = [[{v: 1} for v in row] for row in labels]
        shape = (3 * n, 3 * n)
        got = _amalgamate_labels(labels, index, index, index, shape)
        want = _amalgamate(singles, index, index, index, shape)
        assert in_order(got) == in_order(want)


class TestValidateOutline:
    def _reference_outline(self):
        return OutlineRectangle(Partition(REDUCTION_ROWS),
                                Partition(REDUCTION_COLS),
                                Partition(REDUCTION_SYMS),
                                REFERENCE_OUTLINE_CELLS)

    def test_reference_outline_valid(self):
        assert validate_outline(self._reference_outline()) == []

    def test_constructed_violation(self):
        cells = [list(row) for row in REFERENCE_OUTLINE_CELLS]
        cells[0][3] = (5,)  # swap the symbol 7 in cell (1,4) for a 5
        bad = validate_outline(OutlineRectangle(
            Partition(REDUCTION_ROWS), Partition(REDUCTION_COLS),
            Partition(REDUCTION_SYMS), cells))
        kinds = {(v.kind, v.where) for v in bad}
        assert ("row-count", (1,)) in kinds
        assert ("col-count", (4,)) in kinds

    def test_cell_size_violation(self):
        cells = [list(row) for row in REFERENCE_OUTLINE_CELLS]
        cells[0][0] = (1, 1)
        bad = validate_outline(OutlineRectangle(
            Partition(REDUCTION_ROWS), Partition(REDUCTION_COLS),
            Partition(REDUCTION_SYMS), cells))
        assert any(v.kind == "cell-size" and v.where == (1, 1) for v in bad)

    def test_empty_outline_is_valid(self):
        empty = Partition([])
        assert validate_outline(OutlineRectangle(empty, empty, empty, [])) \
            == []

    @staticmethod
    def _violations_by_definition(outline):
        """The outline conditions checked one by one, reading part sizes
        through Partition.part(), in validate_outline's report order."""
        P, Q, R = (outline.row_partition, outline.col_partition,
                   outline.sym_partition)
        out = []
        for i in range(1, P.k + 1):
            for j in range(1, Q.k + 1):
                size = len(outline.cell(i, j))
                if size != P.part(i) * Q.part(j):
                    out.append(OutlineViolation(
                        "cell-size", (i, j), None, P.part(i) * Q.part(j),
                        size))
            for l in range(1, R.k + 1):
                got = sum(outline.cell(i, j).count(l)
                          for j in range(1, Q.k + 1))
                if got != P.part(i) * R.part(l):
                    out.append(OutlineViolation(
                        "row-count", (i,), l, P.part(i) * R.part(l), got))
        for j in range(1, Q.k + 1):
            for l in range(1, R.k + 1):
                got = sum(outline.cell(i, j).count(l)
                          for i in range(1, P.k + 1))
                if got != Q.part(j) * R.part(l):
                    out.append(OutlineViolation(
                        "col-count", (j,), l, Q.part(j) * R.part(l), got))
        return out

    @pytest.mark.parametrize("edits, kinds", [
        # one more symbol in cell (1,1): its size, row 1 and column 1
        ({(1, 1): (1, 1, 1, 2)}, {"cell-size", "row-count", "col-count"}),
        # symbols 2 and 3 swapped between cells (5,4) and (5,5) of one row
        ({(5, 4): (1, 3), (5, 5): (1, 2)}, {"col-count"}),
        # symbols 7 and 4 swapped between cells (1,4) and (2,4) of one column
        ({(1, 4): (4,), (2, 4): (7,)}, {"row-count"}),
    ], ids=["cell-size", "col-count", "row-count"])
    def test_violations_match_the_definition(self, edits, kinds):
        cells = [list(row) for row in REFERENCE_OUTLINE_CELLS]
        for (i, j), cell in edits.items():
            cells[i - 1][j - 1] = cell
        outline = OutlineRectangle(
            Partition(REDUCTION_ROWS), Partition(REDUCTION_COLS),
            Partition(REDUCTION_SYMS), cells)
        bad = validate_outline(outline)
        assert bad == self._violations_by_definition(outline)
        assert {v.kind for v in bad} == kinds

    def test_random_corruptions_match_the_definition(self):
        rng = random.Random(16)
        for _ in range(50):
            cells = [list(row) for row in REFERENCE_OUTLINE_CELLS]
            for _ in range(rng.randint(1, 4)):
                i, j = rng.randrange(7), rng.randrange(5)
                cells[i][j] = tuple(rng.randint(1, 7)
                                    for _ in range(rng.randint(0, 7)))
            outline = OutlineRectangle(
                Partition(REDUCTION_ROWS), Partition(REDUCTION_COLS),
                Partition(REDUCTION_SYMS), cells)
            assert validate_outline(outline) == \
                self._violations_by_definition(outline)


class TestOutlineStorage:
    def _partitions(self):
        return (Partition(REDUCTION_ROWS), Partition(REDUCTION_COLS),
                Partition(REDUCTION_SYMS))

    def _count_maps(self):
        maps = []
        for row in REFERENCE_OUTLINE_CELLS:
            maps.append([])
            for cell in row:
                counts = {}
                for s in cell:
                    counts[s] = counts.get(s, 0) + 1
                maps[-1].append(counts)
        return maps

    def test_tuples_and_count_maps_agree(self):
        from_tuples = OutlineRectangle(*self._partitions(),
                                       REFERENCE_OUTLINE_CELLS)
        from_counts = OutlineRectangle(*self._partitions(), self._count_maps())
        assert from_tuples == from_counts
        assert from_tuples.cells == from_counts.cells == tuple(
            tuple(row) for row in REFERENCE_OUTLINE_CELLS)
        assert from_counts.counts[3][0] == {4: 2, 5: 2, 6: 1, 7: 1}

    def test_zero_counts_are_dropped(self):
        maps = self._count_maps()
        maps[0][0] = {1: 3, 2: 0, 7: 0}
        outline = OutlineRectangle(*self._partitions(), maps)
        assert outline.counts[0][0] == {1: 3}
        assert outline == OutlineRectangle(*self._partitions(),
                                           REFERENCE_OUTLINE_CELLS)

    @pytest.mark.parametrize("cell", [
        {1: -1, 2: 4},     # negative count
        {1: 3.0},          # float count
        {1: "3"},          # string count
        {1: True, 2: 2},   # bool count
        {8: 3},            # symbol outside [7]
        {0: 3},            # symbol outside [7]
        (1, 1, 8),         # symbol outside [7], given as a tuple
    ])
    def test_malformed_cells_rejected(self, cell):
        maps = self._count_maps()
        maps[0][0] = cell
        with pytest.raises(GridError):
            OutlineRectangle(*self._partitions(), maps)


class TestExists:
    @pytest.mark.parametrize("parts,verdict", [
        ((1, 1), "no"),
        ((4, 2, 2, 2), "yes"),
        ((7, 7, 1, 1, 1, 1, 1), "no"),
        ((5, 5, 5, 4, 3, 3, 1), "yes"),
        ((5, 3, 2, 2, 1), "unknown"),
        ((7,), "yes"),
        ((3, 3, 3), "yes"),
        ((4, 3, 2), "no"),
        ((2, 2, 2, 2, 2), "yes"),
        ((3, 1, 1, 1), "no"),
        ((2, 1, 1, 1), "yes"),
        ((9, 1, 1, 1, 1, 1, 1, 1, 1), "no"),
    ])
    def test_verdicts(self, parts, verdict):
        assert exists(Partition(parts)).verdict == verdict

    def test_reason_tags_are_stable(self):
        assert exists(Partition([1, 1])).reason == "two-parts"
        assert exists(Partition([2, 2, 2])).reason == "three-parts"
        assert exists(Partition([3, 3, 3, 3, 3])).reason == "uniform-sizes"
        assert exists(Partition([3, 3, 3, 1, 1])).reason == "two-sizes"
        assert exists(Partition([4, 4, 4, 3, 1])).reason == "three-equal-largest"

    def test_two_blocks_bound(self):
        # the h1 x h2 cells in block 1's rows and block 2's columns hold no
        # symbol of either block, so 2*h1 + h2 <= n is necessary
        breakers = [P for n in range(1, 15) for P in enumerate_partitions(n)
                    if P.k >= 2 and 2 * P.part(1) + P.part(2) > n]
        assert len(breakers) > 100
        assert {exists(P).verdict for P in breakers} == {"no"}
        # one that no family decides
        assert exists(Partition([5, 3, 2, 1, 1])).reason == "two-blocks-bound"
        assert exists(Partition([5, 3, 2, 2, 1])).verdict == "unknown"

    def test_requires_sorted(self):
        with pytest.raises(PreconditionError):
            exists(Partition([1, 2]))

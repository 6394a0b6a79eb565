import hashlib
import random

import pytest

from pils import (
    InternalError,
    Partition,
    PreconditionError,
    build_circulant_outline,
    even_r_outline,
    is_latin,
    odd_r_outline,
    validate_outline,
)
from pils.core import _amalgamate_labels, _check_labels, _group_map
from pils.engine import attempt_pipeline
from pils.oracle import enumerate_partitions
from pils import circulant
from pils.circulant import (
    _circulant_labels,
    check_circulant_properties,
    circulant_params,
    mod_add,
    mod_mul,
    mod_rep,
    mod_sub,
)
from util import odd_r_labels


class TestBackCirculant:
    def test_order_five_table_is_latin_with_transversal_diagonals(self):
        # cell (i, j) of the order-t back-circulant square, the prolonged
        # square's body, is (i + j) * (t+1)/2 in Z_t
        t = 5
        grid = [[mod_mul(mod_add(i, j, t), (t + 1) // 2, t)
                 for j in range(1, t + 1)] for i in range(1, t + 1)]
        assert is_latin(grid)
        for d in range(1, t + 1):
            cells = [(i, mod_sub(i, d, t)) for i in range(1, t + 1)]
            assert {j for _, j in cells} == set(range(1, t + 1))
            assert {grid[i - 1][j - 1] for i, j in cells} == set(range(1, t + 1))


class TestBuildCirculant:
    def test_two_one_to_the_five(self):
        P = Partition([2, 1, 1, 1, 1, 1])
        outline, triples = build_circulant_outline(P)
        assert validate_outline(outline) == []
        assert triples == []
        assert check_circulant_properties(outline, triples, P) == []

    def test_three_one_to_the_five(self):
        P = Partition([3, 1, 1, 1, 1, 1])
        outline, triples = build_circulant_outline(P)
        assert len(triples) == 1 and len(triples[0].triples) == 5
        assert check_circulant_properties(outline, triples, P) == []

    def test_singleton_cells_share_one_map_per_symbol(self):
        outline, _ = build_circulant_outline(Partition([3, 1, 1, 1, 1, 1]))
        maps = {id(cell) for row in outline.counts for cell in row}
        assert len(maps) <= outline.sym_partition.k

    def test_even_t_rejected(self):
        with pytest.raises(PreconditionError):
            build_circulant_outline(Partition([2, 1, 1, 1, 1]))

    def test_window_preconditions(self):
        # h2 above (t+1)/4
        with pytest.raises(PreconditionError):
            build_circulant_outline(Partition([4, 2, 2, 1]))

    def test_difference_equations_match_closed_forms(self):
        # the four cell values and four differences used to justify the
        # trades, re-derived from the definitions on random admissible data
        rng = random.Random(17)
        for _ in range(200):
            h2 = rng.randint(1, 4)
            t = rng.choice(range(4 * h2 - 1, 8 * h2 + 13, 2))
            hi = rng.randint(2, h2) if h2 > 1 else None
            if hi is None:
                continue
            prefix = rng.randint(0, t - 2 * hi - 1)
            a = rng.randint(1, hi - 1)
            b = rng.randint(a + 1, hi)
            if (b - a) % 2 == 0:
                continue
            inv2 = (t + 1) // 2
            x1, y1 = prefix + a, prefix + b
            x2 = mod_sub(prefix + 1, a, t)
            y2 = mod_sub(prefix + 2 * hi + 1, b, t)
            mul = lambda u, v: mod_mul(mod_add(u, v, t), inv2, t)
            assert mul(x1, y1) == mod_add(prefix + (a + b - 1) // 2, inv2, t)
            assert mul(x2, y2) == mod_add(prefix + hi - (a + b - 1) // 2,
                                          inv2, t)
            assert mul(x2, y1) == mod_rep(prefix + 1 + (b - a - 1) // 2, t)
            assert mul(x1, y2) == mod_rep(prefix + hi - (b - a - 1) // 2, t)
            assert mod_sub(y1, x1, t) == mod_rep(b - a, t)
            assert mod_sub(y2, x2, t) == mod_rep(2 * hi - (b - a), t)
            assert mod_sub(y1, x2, t) == mod_rep(a + b - 1, t)
            assert mod_sub(y2, x1, t) == mod_rep(2 * hi + 1 - (a + b), t)

    def test_free_differences_are_smallest_available(self):
        params = circulant_params(Partition([3, 1, 1, 1, 1, 1]))
        assert params.d[0] == 2  # pool is {2, 3}; D1 = {5}, D2 = {1, 4}


class TestLabels:
    def test_two_labels_swapped_within_a_row_are_caught(self):
        labels, syms = _circulant_labels(Partition([3, 1, 1, 1, 1, 1]))
        _check_labels(labels, syms)
        row = labels[0]
        j = next(j for j, v in enumerate(row) if v != row[0])
        row[0], row[j] = row[j], row[0]
        # the row keeps its labels; column 1 loses one and gains another
        with pytest.raises(InternalError, match="column 1 "):
            _check_labels(labels, syms)

    @pytest.mark.parametrize("parts", [
        (66, 15, 13, 13, 12, 11, 11, 11, 9),
        (103, 16, 16, 15, 15, 15, 14, 14, 14, 10, 8),
        (12, 6, 6, 5, 4, 4, 3, 3, 2),  # h1 = 2 * h2: no singles
    ])
    def test_corner_keeps_its_symbols_and_only_the_body_is_factored(
            self, parts, monkeypatch):
        real = circulant._write_class
        calls = []

        def write_class(cells, l, symbols, out):
            calls.append((len(cells), len(out)))
            real(cells, l, symbols, out)

        monkeypatch.setattr(circulant, "_write_class", write_class)
        labels, _ = _circulant_labels(Partition(parts))
        n, h1, h2 = sum(parts), parts[0], parts[1]
        assert all(labels[x][y] == (x + y) % h1 + 1
                   for x in range(h1) for y in range(h1))
        # label 0 is factored once, on its 2 * h2 cells in each body row
        assert calls == [((n - h1) * 2 * h2, n - h1)]


class TestOddROutline:
    def test_spec_instance(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        assert validate_outline(outline) == []
        hh = 4
        assert outline.cell(1, 2) == (3,) * hh
        assert outline.cell(2, 1) == (3,) * hh
        assert outline.cell(1, 3) == (2,) * hh
        assert outline.cell(2, 3) == (1,) * hh
        for i in range(1, 11):
            h = P.part(i)
            assert outline.cell(i, i) == (i,) * (h * h)

    def test_even_tail_sum_rejected(self):
        with pytest.raises(PreconditionError):
            odd_r_outline(Partition([1, 1, 1, 1, 1, 1, 1]))

    def test_beta_capacity(self):
        # both cyclic orientations offer h1^2 spare copies
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        outline = odd_r_outline(P)
        assert outline.cell(2, 3).count(1) == 4
        assert outline.cell(3, 2).count(1) == 4

    # the pinned odd-tail cases of TestPinnedOutputs
    @pytest.mark.parametrize("parts", [
        (2, 2, 2, 2, 2, 1, 1, 1, 1, 1),
        (22, 22, 22, 15, 13, 13, 12, 11, 11, 11, 9),
        (34, 34, 34, 29, 24, 22, 22, 20, 18, 18, 18, 16, 16, 16, 10),
    ])
    def test_outline_amalgamates_the_label_grid(self, parts):
        P = Partition(parts)
        labels = odd_r_labels(P)
        # unit lines: each holds class l h_l times, and block i holds i
        _check_labels(labels, P)
        for i in range(1, P.k + 1):
            block = P.block(i)
            assert {labels[x - 1][y - 1] for x in block for y in block} == {i}
        groups = _group_map(parts)
        cells = _amalgamate_labels(labels, groups, groups, range(P.k + 1),
                                   (P.k, P.k))
        # each cell's symbols in the same order, too
        assert [[list(c.items()) for c in row] for row in cells] == \
            [[list(c.items()) for c in row] for row in odd_r_outline(P).counts]


class TestEvenROutline:
    def test_spec_instance(self):
        P = Partition([3, 3, 3, 2, 2, 2, 2, 2, 2, 2])
        outline, beta1, beta2 = even_r_outline(P)
        assert validate_outline(outline) == []
        assert beta1 == 9
        assert outline.cell(1, 2) == (3,) * 9
        assert outline.cell(1, 3).count(2) >= 6 - 2
        assert beta2 >= 6 - 2

    def test_leading_part_one_rejected(self):
        with pytest.raises(PreconditionError):
            even_r_outline(Partition([1, 1, 1, 2, 2]))

    def test_odd_tail_sum_rejected(self):
        with pytest.raises(PreconditionError):
            even_r_outline(Partition([3, 3, 3, 2, 2, 1]))

    def test_last_part_one(self):
        # hk = 1 needs no trades at all
        P = Partition([2, 2, 2, 2] + [1] * 10)
        outline, beta1, beta2 = even_r_outline(P)
        assert validate_outline(outline) == []
        assert beta1 == 4 and beta2 >= 2

    def test_stated_window_boundary_is_rejected_by_the_difference_pool(self):
        # 3h+1 = r+1-2h4 passes this constructor's own precondition but
        # leaves the prolongation one free difference short; the rejection
        # must be a clean precondition error, not a corrupt outline
        with pytest.raises(PreconditionError):
            even_r_outline(Partition([2, 2, 2, 2] + [1] * 8))

    def test_trade_conservation(self):
        # the trade batch keeps every cell size and line count
        P = Partition([3, 3, 3, 2, 2, 2, 2, 2, 2, 2])
        outline, _, _ = even_r_outline(P)
        assert validate_outline(outline) == []

    def test_diagonal_and_corner(self):
        P = Partition([3, 3, 3, 2, 2, 2, 2, 2, 2, 2])
        outline, _, _ = even_r_outline(P)
        for i in range(1, 11):
            h = P.part(i)
            assert outline.cell(i, i) == (i,) * (h * h)
        assert outline.cell(2, 3) == (1,) * 9
        assert outline.cell(3, 1) == (2,) * 9


def outline_digest(outline, extra) -> str:
    """sha256 over an outline's partitions, its cells as sorted
    ``(symbol, count)`` lists, and ``extra``."""
    digest = hashlib.sha256()
    digest.update(repr((outline.row_partition.parts,
                        outline.col_partition.parts,
                        outline.sym_partition.parts)).encode())
    for row in outline.counts:
        digest.update(repr([sorted(cell.items()) for cell in row]).encode())
    digest.update(repr(extra).encode())
    return digest.hexdigest()


def circulant_digest(parts) -> str:
    outline, triple_sets = build_circulant_outline(Partition(parts))
    return outline_digest(outline, [(ts.index, ts.triples)
                                    for ts in triple_sets])


def odd_r_digest(parts) -> str:
    return outline_digest(odd_r_outline(Partition(parts)), ())


def even_r_digest(parts) -> str:
    outline, beta1, beta2 = even_r_outline(Partition(parts))
    return outline_digest(outline, (beta1, beta2))


class TestPinnedOutputs:
    # the seeds the engine builds for the large benchmark strata at n = 161
    # (odd tail), 240 (even tail) and 331 (odd tail), the circulant
    # rectangles beneath the first two, and small instances; a change that
    # alters any of these outlines on purpose re-pins its digest
    @pytest.mark.parametrize("build, parts, expected", [
        (circulant_digest, (3, 1, 1, 1, 1, 1),
         "65a39392e2f7e8e75209e490e48b0314328d76d18502ba691e29927a992b8b9a"),
        (circulant_digest, (66, 15, 13, 13, 12, 11, 11, 11, 9),
         "33180c789feff589b0e2892109e9a5571646bc494a0dbdefff37ba1c32e4ae8c"),
        (circulant_digest, (103, 16, 16, 15, 15, 15, 14, 14, 14, 10, 8),
         "37f15e17d4b108b17c8707aa51823af20546e8f60b327b4dc73b3790c386892e"),
        (odd_r_digest, (2, 2, 2, 2, 2, 1, 1, 1, 1, 1),
         "ec734ba94b5af36fd01335371d90c1ff8cac6a2859cb9b71cc6ca121ce76ed1d"),
        (odd_r_digest, (22, 22, 22, 15, 13, 13, 12, 11, 11, 11, 9),
         "8cf1dbb6d9b064f2e586f634e3b510c8c58b2912ab8fb840b8c7aff16a8edf36"),
        (odd_r_digest, (34, 34, 34, 29, 24, 22, 22, 20, 18, 18, 18, 16, 16,
                        16, 10),
         "6464e4091721bae008ae21f539c916381f9f7c479cb6b86aaf55a45aa40b49af"),
        (even_r_digest, (3, 3, 3, 2, 2, 2, 2, 2, 2, 2),
         "63ac2854b1ed7476a07a1acaaa22022c9ada98215a0abe61300187f98e3fde70"),
        (even_r_digest, (2, 2, 2, 2) + (1,) * 10,
         "4676b1e7fde0b6578e554c5f479c0b6b22d3d84a6acadbafff3065c4c675f37c"),
        (even_r_digest, (34, 34, 34, 16, 16, 15, 15, 15, 14, 14, 14, 10, 9),
         "30ad30d096593378262191795f77fa39b155ce0f1ad1f1f494d727c58f24c370"),
    ])
    def test_outline_digest(self, build, parts, expected):
        assert build(parts) == expected


# sha256 over every seed outline and pipeline outline at n <= 30 with three
# equal leading parts (each cell as its ``list(items())``, so dict order is
# pinned too), or over the fact that the call was rejected
SEED_DIGEST = \
    "a936e6f56d60ce1aa1ac4c06a7a23e326d5af3eb43873c421ca86172e039915c"


def test_seed_outlines_are_pinned():
    digest = hashlib.sha256()
    built = {"odd": 0, "even": 0, "pipeline": 0, "rejected": 0}

    def odd(P):
        return odd_r_outline(P), ()

    def even(P):
        outline, beta1, beta2 = even_r_outline(P)
        return outline, (beta1, beta2)

    def pipeline(P):
        return attempt_pipeline(P)

    for n in range(3, 31):
        for P in enumerate_partitions(n):
            if P.k < 3 or P.part(1) != P.part(3):
                continue
            for name, build in (("odd", odd), ("even", even),
                                ("pipeline", pipeline)):
                try:
                    outline, extra = build(P)
                except PreconditionError:
                    built["rejected"] += 1
                    digest.update(repr((name, P.parts, "rejected")).encode())
                    continue
                built[name] += 1
                cells = [[list(c.items()) for c in row]
                         for row in outline.counts]
                digest.update(repr((name, P.parts, cells, extra)).encode())
    assert built == {"odd": 279, "even": 202, "pipeline": 871,
                     "rejected": 4303}
    assert digest.hexdigest() == SEED_DIGEST

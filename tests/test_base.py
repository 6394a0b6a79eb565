import hashlib

import pytest

from pils import (
    Partition,
    PreconditionError,
    idempotent_square,
    is_latin,
    ls_one_big,
    ls_uniform,
    two_size_fallback,
    validate_outline,
    verify_realization,
)
from pils import base
from pils.base import _mols, _pack_transversals, _transversal_square


class TestIdempotent:
    def test_order_one(self):
        assert idempotent_square(1).grid == ((1,),)

    def test_order_three(self):
        sq = idempotent_square(3)
        assert [sq.cell(i, i) for i in (1, 2, 3)] == [1, 2, 3]

    def test_order_two_impossible(self):
        with pytest.raises(PreconditionError):
            idempotent_square(2)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 12, 25, 48])
    def test_diagonal_law(self, n):
        sq = idempotent_square(n)
        assert all(sq.cell(i, i) == i for i in range(1, n + 1))

    def test_diagonal_law_up_to_200(self):
        for n in range(3, 201):
            sq = idempotent_square(n)
            assert all(sq.cell(i, i) == i for i in range(1, n + 1))


class TestUniform:
    def test_two_cubed(self):
        sq, cert = ls_uniform(2, 3)
        assert sq.order == 6
        verify_realization(sq, Partition([2, 2, 2]))

    def test_a_one_reduces_to_idempotent(self):
        sq, _ = ls_uniform(1, 5)
        assert sq.grid == idempotent_square(5).grid

    def test_two_blocks_impossible(self):
        with pytest.raises(PreconditionError):
            ls_uniform(3, 2)

    def test_single_block(self):
        sq, cert = ls_uniform(4, 1)
        assert sq.order == 4 and len(cert.blocks) == 1


class TestOneBig:
    def test_degenerate_sizes(self):
        sq, _ = ls_one_big(0, 5)
        assert sq.grid == idempotent_square(5).grid
        sq, _ = ls_one_big(1, 5)
        assert sq.grid == idempotent_square(6).grid

    def test_two_five(self):
        sq, cert = ls_one_big(2, 5)
        assert sq.order == 7
        verify_realization(sq, Partition([2, 1, 1, 1, 1, 1]))
        assert cert.blocks[0].symbols == (1, 2)

    def test_block_too_large(self):
        with pytest.raises(PreconditionError):
            ls_one_big(5, 5)

    def test_oracle_concordance_small(self):
        from pils import find_realization_bruteforce

        for m in range(3, 9):
            for s in range(2, 9 - m + 1):
                partition = Partition([s] + [1] * m)
                if s <= m - 1:
                    sq, _ = ls_one_big(s, m)
                    verify_realization(sq, partition)
                    assert find_realization_bruteforce(partition).status == \
                        "found"
                else:
                    with pytest.raises(PreconditionError):
                        ls_one_big(s, m)
                    assert find_realization_bruteforce(partition).status == \
                        "none"


class TestTransversalMachinery:
    @pytest.mark.parametrize("m", [*range(4, 65, 4), 256, 9, 15])
    def test_mols_orthogonal(self, m):
        a, b = _mols(m)
        assert is_latin([[v + 1 for v in row] for row in a])
        assert is_latin([[v + 1 for v in row] for row in b])
        pairs = {(a[i][j], b[i][j]) for i in range(m) for j in range(m)}
        assert len(pairs) == m * m

    def test_mols_rejects_order_two_mod_four(self):
        with pytest.raises(PreconditionError):
            _mols(10)

    @pytest.mark.parametrize("m", range(4, 33, 4))
    def test_full_transversal_set(self, m):
        grid, transversals = _transversal_square(m, m)
        assert is_latin(grid)
        assert len(transversals) == m
        assert transversals[0] == list(range(m))
        cells = {(r, c) for t in transversals for r, c in enumerate(t)}
        assert len(cells) == m * m
        for t in transversals:
            assert sorted(t) == list(range(m))
            assert len({grid[r][c] for r, c in enumerate(t)}) == m

    @pytest.mark.parametrize("m", [32, 36, 60])
    def test_one_big_where_mols_changed(self, m):
        sq, _ = ls_one_big(m - 1, m)
        verify_realization(sq, Partition([m - 1] + [1] * m))

    @pytest.mark.parametrize("m,count", [(6, 3), (10, 6), (14, 10),
                                         (18, 13), (22, 9), (26, 5)])
    def test_packing_in_idempotent_square(self, m, count):
        grid = [list(row) for row in idempotent_square(m).grid]
        found = _pack_transversals(grid, count)
        assert found is not None and len(found) == count
        assert found[0] == list(range(m))
        for t in found:
            assert sorted(t) == list(range(m))
            assert len({grid[r][c] for r, c in enumerate(t)}) == m
        for t in found[1:]:
            assert all(c != r for r, c in enumerate(t))
        cells = {(r, c) for t in found for r, c in enumerate(t)}
        assert len(cells) == m * count
        assert _pack_transversals(grid, count) == found

    def test_packing_gives_up_where_stuck(self):
        grid = [list(row) for row in idempotent_square(6).grid]
        assert _pack_transversals(grid, 4) is None
        assert _transversal_square(6, 4) is None

    def test_diagonalized_square_has_transversal_diagonal(self):
        for m in (5, 8, 10):
            got = _transversal_square(m, 3)
            assert got is not None
            grid, transversals = got
            assert transversals[0] == list(range(m))
            assert len({grid[i][i] for i in range(m)}) == m


def test_one_big_family_up_to_order_30():
    # the corner where the transversal packing gets stuck and the outline
    # completion takes over: m = 2 (mod 4) with s at least this
    corner = {6: 3, 10: 6, 14: 10}
    ls_one_big.cache_clear()  # count every completion, not cache hits
    before = len(base.completion_invocations)
    completed = set()
    try:
        for m in range(3, 29):
            for s in range(2, min(m - 1, 30 - m) + 1):
                partition = Partition([s] + [1] * m)
                square, _ = ls_one_big(s, m)
                verify_realization(square, partition)
                if len(base.completion_invocations) > before:
                    before = len(base.completion_invocations)
                    completed.add((s, m))
    finally:
        ls_one_big.cache_clear()
    assert all(m % 4 == 2 and s >= corner.get(m, m) for s, m in completed)


# sha256 over the completed outlines' counts: a change to the completion's
# value order or pruning re-pins it on purpose
COMPLETION_DIGEST = \
    "46874dbc69a55d7fbb1cf88448ca988c5785ebf516477fba0ddde8874f908ec4"


def test_completion_outlines_are_pinned():
    digest = hashlib.sha256()
    for parts in ((3,) + (1,) * 6, (6,) + (1,) * 10, (10,) + (1,) * 14,
                  (2, 2, 2) + (1,) * 8):
        outline = base._complete_outline_square(Partition(parts))
        digest.update(repr(outline.counts).encode())
    assert digest.hexdigest() == COMPLETION_DIGEST


def test_completion_of_many_classes_ends_honestly(monkeypatch):
    # a symbol of (5, 1^38) spreads over 38 * 37 cells, more than Python's
    # default recursion limit: the search ends in an outline or a budget
    # report, never a RecursionError
    monkeypatch.setattr(base, "_COMPLETION_NODES", 20_000)
    partition = Partition([5] + [1] * 38)
    try:
        outline = base._complete_outline_square(partition)
    except base._CompletionBudget as exc:
        assert "20,000 nodes" in str(exc)
    else:
        assert validate_outline(outline) == []


class TestTwoSizeFallback:
    @pytest.mark.parametrize("parts", [
        (3, 3, 3, 1, 1, 1),      # one add-on step over (1^6)
        (2, 2, 2) + (1,) * 8,    # past the add-on bound: completion search
    ], ids=["add-on", "completion"])
    def test_two_routes(self, parts):
        P = Partition(parts)
        sq, cert = two_size_fallback(P)
        verify_realization(sq, P)

    def test_uniform_delegates(self):
        sq, cert = two_size_fallback(Partition([2, 2, 2, 2]))
        verify_realization(sq, Partition([2, 2, 2, 2]))

    def test_two_parts_rejected(self):
        with pytest.raises(PreconditionError):
            two_size_fallback(Partition([4, 4]))

    def test_three_sizes_rejected(self):
        with pytest.raises(PreconditionError):
            two_size_fallback(Partition([3, 2, 1]))

    def test_large_block_count(self):
        P = Partition([6, 6, 6, 6, 2, 2, 2, 2, 2, 2, 2, 2, 2])
        sq, cert = two_size_fallback(P)
        verify_realization(sq, P)

    def test_completion_invocations_recorded(self):
        from pils.base import _complete_outline_square, completion_invocations

        before = len(completion_invocations)
        outline = _complete_outline_square(Partition([2, 2, 2, 1, 1]))
        assert len(completion_invocations) == before + 1
        assert completion_invocations[-1] == (2, 2, 2, 1, 1)
        from pils import validate_outline

        assert validate_outline(outline) == []

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
        # s = 1 is the closed form too: its 1-block and its singletons make
        # it an idempotent square of order m + 1
        sq, _ = ls_one_big(1, 5)
        assert sq.order == 6 and is_latin(sq.grid)
        assert all(sq.cell(i, i) == i for i in range(1, 7))

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


def singleton_diagonal(square, s: int, m: int, d: int) -> list[int]:
    """The symbols on cells (i, i + d), i in Z_m, of the singleton grid of
    an (s, 1^m) square in normal form."""
    return [square.cell(s + 1 + i, s + 1 + (i + d) % m) for i in range(m)]


class TestTransversalMachinery:
    """The transversals that the closed form prolongs along.

    ls_one_big(s, m) cuts its singleton grid into the m diagonals
    (i, i + d): for d < k = m - s a transversal of the singletons, the
    others one small symbol each; the pairs (t, b_t) that fill the first
    kind are a partial orthomorphism of Z_m.
    """

    @pytest.mark.parametrize("m", [*range(4, 65, 4), 256, 9, 15])
    def test_mols_orthogonal(self, m):
        # the pairs give two orthogonal latin rectangles x + t and x + b_t
        # on rows x in Z_m and columns t < k, with k = m - 1, or k = m for
        # odd m, where b_t = 2t is a full orthomorphism and the rectangles
        # are a pair of orthogonal latin squares
        k = m if m % 2 else m - 1
        b = base._orthomorphism_pairs(m, k)
        a = [[(x + t) % m for t in range(k)] for x in range(m)]
        o = [[(x + bt) % m for bt in b] for x in range(m)]
        for rect in (a, o):
            assert all(len(set(row)) == k for row in rect)
            assert all(len({row[t] for row in rect}) == m for t in range(k))
        pairs = {(a[x][t], o[x][t]) for x in range(m) for t in range(k)}
        assert len(pairs) == m * k
        # the second rectangle is the singleton grid of (1, 1^m) read by
        # difference
        sq, _ = ls_one_big(1, m)
        for t in range(m - 1):
            assert singleton_diagonal(sq, 1, m, t) == \
                [2 + o[x][t] for x in range(m)], t

    @pytest.mark.parametrize("m", range(4, 33, 4))
    def test_full_transversal_set(self, m):
        for s in range(1, m):
            sq, _ = ls_one_big(s, m)
            k = m - s
            for d in range(m):
                symbols = singleton_diagonal(sq, s, m, d)
                if d < k:
                    assert sorted(symbols) == list(range(s + 1, s + m + 1))
                else:
                    assert symbols == [d - k + 1] * m, (s, d)

    @pytest.mark.parametrize("m", [32, 36, 60])
    def test_one_big_where_mols_changed(self, m):
        sq, _ = ls_one_big(m - 1, m)
        verify_realization(sq, Partition([m - 1] + [1] * m))

    @pytest.mark.parametrize("m,count", [(6, 3), (10, 6), (14, 10),
                                         (18, 13), (22, 9), (26, 5)])
    def test_packing_in_idempotent_square(self, m, count):
        # m = 2 (mod 4), where disjoint transversals once had to be searched
        # for: (count - 1, 1^m) packs its small symbols on count - 1
        # off-diagonal diagonals beside the idempotent main one
        s = count - 1
        sq, _ = ls_one_big(s, m)
        assert singleton_diagonal(sq, s, m, 0) == \
            list(range(s + 1, s + m + 1))
        small = [d for d in range(1, m)
                 if singleton_diagonal(sq, s, m, d)[0] <= s]
        assert small == list(range(m - s, m))
        for c, d in enumerate(small, 1):
            assert singleton_diagonal(sq, s, m, d) == [c] * m
        ls_one_big.cache_clear()
        assert ls_one_big(s, m)[0].grid == sq.grid

    def test_packing_gives_up_where_stuck(self):
        # (3, 1^6) and (4, 1^6) are where the packing got stuck and the
        # outline completion took over; the closed form needs neither
        ls_one_big.cache_clear()  # build cold
        before = len(base.completion_invocations)
        for s in (3, 4):
            sq, _ = ls_one_big(s, 6)
            verify_realization(sq, Partition([s] + [1] * 6))
        assert len(base.completion_invocations) == before

    def test_diagonalized_square_has_transversal_diagonal(self):
        # the pair (0, 0) puts singleton i on (i, i)
        for m in (5, 8, 10):
            sq, _ = ls_one_big(3, m)
            assert singleton_diagonal(sq, 3, m, 0) == list(range(4, m + 4))


def test_pairs_are_a_partial_orthomorphism():
    # for every k <= m - 1 the t, the b_t and the b_t - t are each pairwise
    # distinct mod m, and (0, 0) is among the pairs
    for m in range(2, 101):
        for k in range(1, m):
            b = base._orthomorphism_pairs(m, k)
            assert len(b) == k and b[0] == 0, (m, k)
            assert all(0 <= bt < m for bt in b), (m, k)
            assert len(set(b)) == k, (m, k)
            assert len({(bt - t) % m for t, bt in enumerate(b)}) == k, (m, k)


def test_one_big_family_up_to_order_30():
    # every (s, 1^m) is written in closed form: none reaches the outline
    # completion, whose one caller is the two-size fallback
    ls_one_big.cache_clear()  # count every build, not cache hits
    before = len(base.completion_invocations)
    try:
        for m in range(3, 29):
            for s in range(1, min(m - 1, 30 - m) + 1):
                partition = Partition([s] + [1] * m)
                square, _ = ls_one_big(s, m)
                verify_realization(square, partition)
    finally:
        ls_one_big.cache_clear()
    assert len(base.completion_invocations) == before


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

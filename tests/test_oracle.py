import sys

import pytest

from pils import Partition, PreconditionError, verify_realization
from pils import oracle
from pils.oracle import enumerate_partitions, find_realization_bruteforce


class TestEnumeratePartitions:
    def test_small_counts(self):
        assert len(enumerate_partitions(4)) == 5
        assert len(enumerate_partitions(9)) == 30
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_counts_match_recurrence(self):
        # p(n) via Euler's pentagonal-free DP on largest part
        limit = 12
        table = [[0] * (limit + 1) for _ in range(limit + 1)]
        for cap in range(limit + 1):
            table[cap][0] = 1
        for cap in range(1, limit + 1):
            for n in range(1, limit + 1):
                table[cap][n] = table[cap - 1][n]
                if n >= cap:
                    table[cap][n] += table[cap][n - cap]
        for n in range(1, limit + 1):
            assert len(enumerate_partitions(n)) == table[n][n]

    def test_sorted_lexicographically(self):
        parts = [p.parts for p in enumerate_partitions(6)]
        assert parts == sorted(parts)
        assert all(Partition(p).is_non_increasing() for p in parts)


class TestBruteforce:
    def test_all_singletons(self):
        result = find_realization_bruteforce(Partition([1, 1, 1]))
        assert result.status == "found"
        verify_realization(result.square, Partition([1, 1, 1]))

    def test_exhaustive_none(self):
        assert find_realization_bruteforce(Partition([2, 2, 1, 1])).status == \
            "none"
        assert find_realization_bruteforce(Partition([2, 1, 1])).status == \
            "none"

    def test_budget_exceeded_is_distinct(self):
        result = find_realization_bruteforce(Partition([3, 3, 3]), budget=3)
        assert result.status == "budget-exceeded"

    @pytest.mark.parametrize("parts, budget", [((3, 3, 3), -1),
                                               ((2, 2, 1, 1), 0),
                                               ((1,), 0)])
    def test_budget_below_one_is_rejected(self, parts, budget):
        with pytest.raises(PreconditionError, match="budget"):
            find_realization_bruteforce(Partition(parts), budget=budget)

    @pytest.mark.parametrize("parts", [(1,) * 1000, (1,) * 2000, (1,) * 40,
                                       (2,) * 30])
    def test_beyond_the_recursion_depth_is_rejected(self, parts):
        with pytest.raises(PreconditionError, match="recursion depth"):
            find_realization_bruteforce(Partition(parts))

    @pytest.mark.parametrize("room, status", [(72, "found"),
                                              (71, "rejected")])
    def test_depth_bound_follows_the_recursion_limit(self, room, status,
                                                     monkeypatch):
        # 1^9 has 72 free cells; the search may go as deep as the recursion
        # limit less the frames kept for its callers
        monkeypatch.setattr(oracle, "_CALLER_FRAMES",
                            sys.getrecursionlimit() - room)
        try:
            result = find_realization_bruteforce(Partition([1] * 9)).status
        except PreconditionError:
            result = "rejected"
        assert result == status

    def test_every_small_partition_is_searched(self):
        for n in range(1, 10):
            for partition in enumerate_partitions(n):
                result = find_realization_bruteforce(partition, budget=50)
                assert result.status in ("found", "none", "budget-exceeded")

    def test_found_squares_verify(self):
        for parts in [(2, 2, 2), (2, 1, 1, 1), (2, 2, 2, 1), (3, 1, 1, 1, 1)]:
            result = find_realization_bruteforce(Partition(parts))
            assert result.status == "found"
            verify_realization(result.square, Partition(parts))

    def test_symmetry_cut_preserves_verdicts(self):
        # the block-swap reduction must never flip an existence verdict
        for n in range(1, 9):
            for partition in enumerate_partitions(n):
                fast = find_realization_bruteforce(partition)
                raw = find_realization_bruteforce(partition, symmetry=False)
                assert fast.status == raw.status, partition
                assert fast.nodes <= raw.nodes or fast.status == "found"

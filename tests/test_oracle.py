import sys

import pytest

from pils import Partition, PreconditionError, verify_realization
from pils import oracle
from pils.oracle import enumerate_partitions, find_realization_bruteforce

# Ground truth for every partition of n <= 9, by order.  (3,2,1,1,1),
# (3,2,1,1,1,1) and (3,2,2,1,1) are the partitions exists() leaves unknown.
FOUND = {
    (1,), (2,), (1, 1, 1), (3,), (1, 1, 1, 1), (4,), (1, 1, 1, 1, 1),
    (2, 1, 1, 1), (5,), (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 2), (6,),
    (1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 2, 2, 1),
    (3, 1, 1, 1, 1), (7,), (1, 1, 1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1, 1), (2, 2, 2, 1, 1), (2, 2, 2, 2), (3, 1, 1, 1, 1, 1),
    (3, 2, 1, 1, 1), (8,), (1, 1, 1, 1, 1, 1, 1, 1, 1),
    (2, 1, 1, 1, 1, 1, 1, 1), (2, 2, 1, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1),
    (2, 2, 2, 2, 1), (3, 1, 1, 1, 1, 1, 1), (3, 2, 1, 1, 1, 1),
    (3, 2, 2, 1, 1), (3, 2, 2, 2), (3, 3, 1, 1, 1), (3, 3, 3),
    (4, 1, 1, 1, 1, 1), (9,),
}
NONE = {
    (1, 1), (2, 1), (2, 1, 1), (2, 2), (3, 1), (2, 2, 1), (3, 1, 1), (3, 2),
    (4, 1), (2, 2, 1, 1), (3, 1, 1, 1), (3, 2, 1), (3, 3), (4, 1, 1), (4, 2),
    (5, 1), (3, 2, 1, 1), (3, 2, 2), (3, 3, 1), (4, 1, 1, 1), (4, 2, 1),
    (4, 3), (5, 1, 1), (5, 2), (6, 1), (3, 2, 2, 1), (3, 3, 1, 1), (3, 3, 2),
    (4, 1, 1, 1, 1), (4, 2, 1, 1), (4, 2, 2), (4, 3, 1), (4, 4), (5, 1, 1, 1),
    (5, 2, 1), (5, 3), (6, 1, 1), (6, 2), (7, 1), (3, 3, 2, 1),
    (4, 2, 1, 1, 1), (4, 2, 2, 1), (4, 3, 1, 1), (4, 3, 2), (4, 4, 1),
    (5, 1, 1, 1, 1), (5, 2, 1, 1), (5, 2, 2), (5, 3, 1), (5, 4), (6, 1, 1, 1),
    (6, 2, 1), (6, 3), (7, 1, 1), (7, 2), (8, 1),
}


def free_cells(parts):
    return sum(parts) ** 2 - sum(p * p for p in parts)


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

    def test_empty_partition_is_rejected_before_the_search(self):
        with pytest.raises(PreconditionError, match="non-empty"):
            find_realization_bruteforce(Partition(()))

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

    @pytest.mark.parametrize("parts, room, status", [
        pytest.param((1,) * 9, 72, "found", id="72-found"),
        pytest.param((1,) * 9, 71, "rejected", id="71-rejected"),
        pytest.param((2, 2, 2, 1, 1, 1), 66, "found", id="222111-66-found"),
        pytest.param((2, 2, 2, 1, 1, 1), 65, "rejected",
                     id="222111-65-rejected"),
    ])
    def test_depth_bound_follows_the_recursion_limit(self, parts, room, status,
                                                     monkeypatch):
        # 1^9 has 72 free cells and is found by the row-major pass; 2^3 1^3
        # has 66 and is found by the propagating pass.  The search may go as
        # deep as the recursion limit less the frames kept for its callers
        monkeypatch.setattr(oracle, "_CALLER_FRAMES",
                            sys.getrecursionlimit() - room)
        try:
            result = find_realization_bruteforce(Partition(parts)).status
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

    @pytest.mark.parametrize("symmetry", [True, False])
    def test_verdicts_up_to_order_nine(self, symmetry):
        verdicts = {**dict.fromkeys(FOUND, "found"),
                    **dict.fromkeys(NONE, "none")}
        assert len(FOUND) == 40 and len(NONE) == 56 and len(verdicts) == 96
        for n in range(1, 10):
            for partition in enumerate_partitions(n):
                result = find_realization_bruteforce(partition,
                                                     symmetry=symmetry)
                assert result.status == verdicts[partition.parts], partition
                if result.status == "found":
                    verify_realization(result.square, partition)

    def test_line_checks_refute_within_a_small_budget(self):
        # the row-major pass alone needs 1,618,270 nodes for this "none"
        result = find_realization_bruteforce(Partition([3, 3, 2, 1]),
                                             budget=20_000)
        assert result.status == "none"
        assert result.nodes > 8 * free_cells((3, 3, 2, 1))

    @pytest.mark.parametrize("parts", [(2, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1),
                                       (2,) + (1,) * 7])
    def test_second_pass_squares_are_in_normal_form(self, parts):
        # more nodes than the row-major pass's cap: found by the second
        # pass, which must start from the blocks alone
        result = find_realization_bruteforce(Partition(parts))
        assert result.status == "found"
        assert result.nodes > 8 * free_cells(parts)
        verify_realization(result.square, Partition(parts), normal_form=True)

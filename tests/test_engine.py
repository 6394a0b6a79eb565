import importlib

import pytest
from hypothesis import given, settings, strategies as st

from pils import (
    InternalError,
    Partition,
    PreconditionError,
    construct_ils,
    construct_m_equal,
    construct_main,
    select_t,
    verify_realization,
    verify_subsquares,
)
from pils.oracle import enumerate_partitions


class TestSelectT:
    def test_first_branch_takes_h1(self):
        # 3*5 = 15 <= 21 + 1 - 4 = 18
        assert select_t(5, 2, 1, 21) == 5
        assert select_t(5, 2, 1, 22, parity="even") == 5

    def test_interval_branch_satisfies_proof_inequalities(self):
        # 3*h1 too large for the window: the largest admissible value is used
        h1, h4, hk, r = 10, 3, 2, 27
        t = select_t(h1, h4, hk, r)
        assert 3 * h1 > r + 1 - 2 * h4
        assert 2 * h4 <= 3 * t <= r + 1 - 2 * h4
        assert 0 <= r * (h1 - t) <= 2 * h1 * h1
        assert t <= h1

    def test_even_branch_inequalities(self):
        h1, h4, hk, r = 11, 10, 9, 46
        t = select_t(h1, h4, hk, r)
        assert 2 * h4 + 2 <= 3 * t + 1 <= r + 1 - 2 * h4
        assert 0 <= r * (h1 - t) <= 2 * h1 * h1 - t - 2 * (hk - 1)
        assert t * (t - 1) >= 2 * (hk - 1)
        assert t >= hk - 1  # trade-capacity preference

    def test_parity_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            select_t(5, 2, 1, 21, parity="even")


class TestConstructMEqual:
    def test_odd_route(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        sq, cert, trace = construct_m_equal(P, m=3)
        verify_realization(sq, P)
        assert trace.steps[0]["op"] == "circulant-pipeline"
        assert trace.steps[0]["parity"] == "odd"

    def test_even_route(self):
        P = Partition([3, 3, 3, 2, 2, 2, 2, 2, 2, 2])
        sq, cert, trace = construct_m_equal(P, m=3)
        verify_realization(sq, P)
        assert trace.steps[0]["parity"] == "even"

    def test_hypothesis_violation(self):
        with pytest.raises(PreconditionError):
            construct_m_equal(Partition([3, 3, 3, 2, 1]), m=3)

    def test_m_defaults_to_first_admissible(self):
        P = Partition([2, 2, 2, 2, 2, 1, 1, 1, 1, 1])
        sq, cert, trace = construct_m_equal(P)
        assert trace.steps[0]["m"] == 3

    def test_three_distinct_sizes(self):
        P = Partition([3, 3, 3, 2, 2, 2, 1, 1, 1, 1, 1])
        sq, cert, _ = construct_m_equal(P, m=3)
        verify_realization(sq, P)


@st.composite
def main_partitions(draw, max_order: int = 40) -> Partition:
    """A non-increasing partition of order at most ``max_order`` whose
    largest part occurs at least three times."""
    h = draw(st.integers(1, max_order // 3), label="h1")
    m = draw(st.integers(3, max_order // h), label="m")
    room = max_order - m * h
    tail = []
    while room and draw(st.booleans()):
        part = draw(st.integers(1, min(h, room)))
        tail.append(part)
        room -= part
    return Partition([h] * m + sorted(tail, reverse=True))


class TestConstructMain:
    @pytest.mark.parametrize("parts", [
        (3, 3, 3, 2, 1),
        (2, 2, 2),
        (5, 5, 5, 4, 3, 3, 1),
        (1, 1, 1),
        (4, 4, 4, 4),
        (2, 2, 2, 2, 2, 1, 1, 1, 1, 1),
        (6, 6, 6, 1),
        (3, 3, 3, 3, 2, 2, 1),
    ])
    def test_realizes(self, parts):
        P = Partition(parts)
        sq, cert, _ = construct_main(P)
        assert sq.order == P.n
        verify_realization(sq, P)

    @settings(max_examples=150, deadline=None)
    @given(P=main_partitions())
    def test_random_partitions_realize_deterministically(self, P):
        sq, _, _ = construct_main(P)
        verify_realization(sq, P)
        assert construct_main(P)[0].grid == sq.grid

    def test_requires_three_equal_largest(self):
        with pytest.raises(PreconditionError):
            construct_main(Partition([3, 2, 2, 1]))

    def test_deterministic_and_trace_replays(self):
        P = Partition([4, 4, 4, 3, 2, 1])
        sq1, _, tr1 = construct_main(P)
        sq2, _, tr2 = construct_main(P)
        assert sq1.grid == sq2.grid
        assert tr1.to_json() == tr2.to_json()

    def test_trace_records_branches(self):
        _, _, trace = construct_main(Partition([5, 5, 5, 4, 3, 3, 1]))
        ops = [s["op"] for s in trace.steps]
        assert ops[0] in ("uniform-base", "rebuild")
        assert "add-on" in ops

    @pytest.mark.parametrize("parts", [
        (4, 4, 4, 3, 2, 1),            # uniform base, then three add-ons
        (4, 4, 4, 2) + (1,) * 10,      # rebuild, then one add-on
    ])
    def test_lifts_once(self, parts, monkeypatch):
        lift_module = importlib.import_module("pils.lift")
        original = lift_module.lift
        calls = []

        def counting(outline):
            calls.append(outline)
            return original(outline)

        monkeypatch.setattr(lift_module, "lift", counting)
        P = Partition(parts)
        sq, _, _ = construct_main(P)
        verify_realization(sq, P)
        assert len(calls) == 1

    @pytest.mark.parametrize("parts, line_phases", [
        # odd tail, t = h1, no add-on step: only the symbols are lifted
        ((3, 3, 3, 2, 2, 2) + (1,) * 7, False),
        # even tail
        ((3, 3, 3, 2, 2, 2) + (1,) * 8, True),
        # odd tail with t < h1: the seed is blown up
        ((3, 3, 3, 2, 2, 2) + (1,) * 5, True),
    ])
    def test_line_phases_run_off_the_label_route(self, parts, line_phases,
                                                 monkeypatch):
        lift_module = importlib.import_module("pils.lift")
        calls = {"_cut_rows_to_blocks": 0, "_split_rows_to_units": 0}
        for name in calls:
            def counting(state, _name=name, _original=getattr(lift_module,
                                                              name)):
                calls[_name] += 1
                return _original(state)
            monkeypatch.setattr(lift_module, name, counting)
        P = Partition(parts)
        sq, _, trace = construct_main(P)
        verify_realization(sq, P)
        inner = trace.steps[0]["inner"][0]
        assert (inner["parity"] == "odd" and inner["t"] == P.part(1)) \
            == (not line_phases)
        assert all(calls.values()) == line_phases
        assert any(calls.values()) == line_phases

    def test_defect_in_rebuild_is_not_swallowed(self, monkeypatch):
        engine = importlib.import_module("pils.engine")

        def broken(partition, m, labels=False):
            raise InternalError("injected")

        monkeypatch.setattr(engine, "_m_equal_outline", broken)
        with pytest.raises(InternalError, match="injected"):
            construct_main(Partition((4, 4, 4, 2) + (1,) * 10))


def test_diagonal_blocks_are_cyclic():
    # each diagonal block is a whole component of its class once the lines
    # are units, and the lift writes it as the cyclic square on its symbols
    built = 0
    for n in range(3, 19):
        for P in enumerate_partitions(n):
            if P.k < 3 or P.part(1) != P.part(3):
                continue
            grid = construct_main(P)[0].grid
            lo = 0
            for h in P.parts:
                assert [list(row[lo:lo + h]) for row in grid[lo:lo + h]] == \
                    [[lo + (x + y) % h + 1 for y in range(h)]
                     for x in range(h)], (P, h)
                lo += h
            built += 1
    assert built == 153


class TestConstructIls:
    def test_gap_of_eight(self):
        sq, cert = construct_ils(20, [3, 2, 1])
        assert sq.order == 20
        assert sorted(len(b.rows) for b in cert.blocks) == [1, 2, 3]
        verify_subsquares(sq, cert)

    def test_exact_bound(self):
        # n = 2*h1 + sum exactly: zero padding beyond the tripled block
        sq, cert = construct_ils(12, [3, 2, 1])
        assert sq.order == 12
        verify_subsquares(sq, cert)

    def test_below_bound_rejected(self):
        with pytest.raises(PreconditionError):
            construct_ils(11, [3, 2, 1])

    def test_single_order(self):
        sq, cert = construct_ils(10, [2])
        assert sq.order == 10 and len(cert.blocks) == 1
        verify_subsquares(sq, cert)

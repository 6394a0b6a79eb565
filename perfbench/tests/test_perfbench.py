"""Tests of the benchmark's own parts: inputs, checker and span recorder."""

import os
import signal
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import calibrate  # noqa: E402
import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.requests_for(workload, 7, 2)
    assert first == workloads.requests_for(workload, 7, 2)
    assert first != workloads.requests_for(workload, 8, 2)


def test_sweep_draws_proportionally_without_repeats():
    requests = workloads.sweep_requests(workloads.pass_rng("sweep", 1, 0))
    drawn = [parts for _, parts in requests]
    assert len(set(drawn)) == len(drawn)
    assert all(len(p) >= 3 and p[0] == p[2] and sum(p) <= 30 for p in drawn)
    family = sum(len(workloads.three_equal_largest(n)) for n in range(31))
    assert family == 1885


def test_search_keeps_the_budget_exhausting_partitions():
    failing = {workloads.one_big_parts(s, m)
               for s, m in workloads.BUDGET_EXHAUSTING}
    seen = set()
    for seed in range(4):
        requests = workloads.requests_for("search", seed, 0)
        constructs = [parts for kind, parts in requests if kind == "construct"]
        assert len(set(constructs)) == len(constructs) == 2 + 2 + 40
        assert workloads.one_big_parts(2, 22) in constructs
        assert len(failing.intersection(constructs)) == 2
        seen.update(failing.intersection(constructs))
        oracle = [parts for kind, parts in requests if kind == "oracle"]
        assert len(oracle) == 96
    assert seen == failing


def test_large_strata_hit_their_orders():
    for seed in range(5):
        requests = workloads.large_requests(workloads.pass_rng("large", seed, 0))
        orders = sorted(sum(parts) for _, parts in requests)
        assert orders == sorted(order for _, order, _ in workloads.LARGE_STRATA)
        for _, parts in requests:
            assert parts[0] == parts[2] and list(parts) == sorted(parts)[::-1]


def test_random_latin_squares_are_latin():
    rng = workloads.pass_rng("roundtrip", 3, 0)
    for n in (5, 12, 20):
        checker.check_latin(workloads.random_latin_square(rng, n))


def _cyclic_with_blocks():
    """(3, 3, 3): a cyclic square of order 3 blown up by 3."""
    parts = (3, 3, 3)
    grid = [[3 * ((r // 3 + c // 3) % 3) + (r + c) % 3 + 1 for c in range(9)]
            for r in range(9)]
    blocks = [(range(1 + 3 * i, 4 + 3 * i), range(1 + 3 * j, 4 + 3 * j),
               range(1 + 3 * ((i + j) % 3), 4 + 3 * ((i + j) % 3)))
              for i, j in ((0, 0), (1, 1), (2, 2))]
    return parts, grid, blocks


def test_checker_accepts_a_realization():
    parts, grid, blocks = _cyclic_with_blocks()
    checker.check_realization(grid, parts, blocks)


def test_checker_rejects_one_transposed_pair_of_cells():
    parts, grid, blocks = _cyclic_with_blocks()
    grid[0][0], grid[0][1] = grid[0][1], grid[0][0]
    with pytest.raises(checker.CheckError):
        checker.check_realization(grid, parts, blocks)


def test_checker_rejects_an_overlapping_block():
    parts, grid, blocks = _cyclic_with_blocks()
    blocks[1] = (blocks[0][0], blocks[1][1], blocks[1][2])
    with pytest.raises(checker.CheckError, match="overlaps"):
        checker.check_realization(grid, parts, blocks)


def test_checker_compares_reductions_cell_by_cell():
    _, grid, _ = _cyclic_with_blocks()
    rows, cols, syms = (4, 5), (2, 7), (3, 3, 3)
    checker.check_roundtrip(grid, grid, rows, cols, syms)
    other = [row[:] for row in grid]
    other[0], other[5] = other[5], other[0]  # still latin, other outline
    with pytest.raises(checker.CheckError, match="outline cell"):
        checker.check_roundtrip(grid, other, rows, cols, syms)


def test_existence_rules_on_small_cases():
    assert checker.existence((3, 3, 2, 1)) == "no"
    assert checker.existence((2, 1, 1, 1)) == "yes"
    assert checker.existence((3, 3, 3, 2, 1)) == "yes"
    assert checker.existence((4, 3, 2, 1, 1)) is None


def test_self_time_on_a_hand_built_span_tree():
    # request [0, 10] > a [1, 7] > (b [2, 4], c [5, 6]); request > b [8, 9]
    tree = [
        ("request", -1, 0.0, 10.0),
        ("a", 0, 1.0, 7.0),
        ("b", 1, 2.0, 4.0),
        ("c", 1, 5.0, 6.0),
        ("b", 0, 8.0, 9.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"request": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)
    assert spans.total_times(tree)["b"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_counts_failures():
    recorder = spans.SpanRecorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = recorder.wrap("inner", inner)
    outer_w = recorder.wrap("outer", lambda x: inner_w(x) + 1)
    assert outer_w(1) == 2
    with pytest.raises(ValueError):
        outer_w(-1)
    assert recorder.calls == {"outer": 2, "inner": 2}
    assert recorder.failed == {"outer": 1, "inner": 1}
    parents = [(name, parent) for name, parent, _, _ in recorder.spans]
    assert parents == [("outer", -1), ("inner", 0), ("outer", -1), ("inner", 2)]


def test_install_rebinds_every_alias_and_restores_them():
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib
    pils = importlib.import_module("pils")
    mod = {name: importlib.import_module(f"pils.{name}")
           for name in ("core", "lift", "engine", "cli", "base")}
    original_reduce = mod["core"].reduce
    recorder = spans.SpanRecorder()
    names = recorder.install()
    try:
        assert {"core.reduce", "lift.lift", "engine.construct_main",
                "base.ls_one_big"} <= set(names)
        aliases = [mod["core"].reduce, mod["engine"].reduce_square,
                   mod["lift"].core_reduce, mod["cli"].reduce_square,
                   pils.reduce]
        assert all(a is aliases[0] and a.__wrapped__ is original_reduce
                   for a in aliases)
        assert mod["cli"].construct_main is mod["engine"].construct_main
        assert mod["base"].lift_to_realization is mod["lift"].lift_to_realization
        assert hasattr(pils.lift, "__wrapped__")  # the function, not the module
        assert hasattr(mod["cli"].lift, "__wrapped__")
        pils.ls_one_big(2, 4)
        assert recorder.calls["base.ls_one_big"] == 1
        assert recorder.calls["lift.lift"] + recorder.calls["core.is_latin"] >= 1
    finally:
        recorder.uninstall()
    assert mod["engine"].reduce_square is original_reduce
    assert pils.reduce is original_reduce


def test_reference_is_fixed_work():
    assert calibrate.reference() == calibrate.reference()


def test_scale_uses_the_samples_around_a_request():
    # reference samples every 0.1 s; the host runs at half speed after t = 5
    times = [0.1 * i for i in range(100)]
    nominal = calibrate.REFERENCE_S
    durations = [nominal if t < 5 else 2 * nominal for t in times]
    scale = calibrate.scale_from
    assert scale(times, durations, 1.0, 1.05) == pytest.approx(1.0)
    assert scale(times, durations, 8.0, 8.2) == pytest.approx(0.5)
    # a request past the last sample takes the nearest ones
    assert scale(times, durations, 20.0, 20.1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        scale(times[:2], durations[:2], 0.0, 0.1)


def test_sampler_takes_samples_and_counts_their_time():
    with calibrate.Sampler() as sampler:
        deadline = time.perf_counter() + 3.5 * calibrate.SAMPLE_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.durations) >= 2
    assert sampler.stolen == pytest.approx(sum(sampler.durations))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/worker.py WORKLOAD SEED PASS_INDEX TRACE [SPANS_PATH]

Builds the pass's inputs, runs its requests one after another (a closed
loop with one client), times each request, checks each output outside the
timed region, and prints one JSON object as its last line.  Request times
are given raw and in reference seconds (``calibrate.py``), from reference
samples taken through the pass.  With TRACE = 1 the public functions of
every ``pils`` module are wrapped first and the per-layer table of the pass
is included; the spans go to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def import_pils(root: str):
    """Import ``pils`` from ``root/src``, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pils = importlib.import_module("pils")
    if not os.path.abspath(pils.__file__).startswith(src + os.sep):
        raise ImportError(f"pils imported from {pils.__file__}, not {src}")
    return pils


class Pass:
    """Runs prepared requests against the live module attributes, so that
    a traced pass calls the wrappers."""

    def __init__(self, pils):
        self.pils = pils
        self.cli = importlib.import_module("pils.cli")
        self.core = importlib.import_module("pils.core")
        self.lift = importlib.import_module("pils.lift")
        self.oracle = importlib.import_module("pils.oracle")

    def prepare(self, request):
        """Convert a request's inputs to ``pils`` values, untimed."""
        kind = request[0]
        if kind == "construct":
            return (kind, request[1],
                    ["construct", workloads.parts_text(request[1])])
        if kind == "roundtrip":
            _, grid, rows, cols, syms = request
            P = self.pils.Partition
            return (kind, request, (self.pils.LatinSquare(grid), P(rows),
                                    P(cols), P(syms)))
        if kind == "oracle":
            return (kind, request[1], self.pils.Partition(request[1]))
        raise ValueError(f"unknown request kind {kind!r}")

    def run(self, prepared):
        """The timed call: returns what the check needs."""
        kind, _, arg = prepared
        if kind == "construct":
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(arg)
            return code, out.getvalue()
        if kind == "roundtrip":
            outline = self.core.reduce(*arg)
            return outline, self.lift.lift(outline)
        return self.oracle.find_realization_bruteforce(arg)

    def check(self, prepared, result) -> int:
        """Raise RequestFailed on a failure the program reported and any
        other exception on a wrong output; return the order of the square
        emitted (0 if none)."""
        kind, request, _ = prepared
        if kind == "construct":
            code, text = result
            if code != 0:
                raise RequestFailed(f"exit code {code}")
            payload = json.loads(text)
            if sorted(payload["partition"]) != sorted(request):
                raise checker.CheckError("output names another partition")
            checker.check_realization(
                payload["square"], request,
                checker.blocks_from_cli(payload["blocks"]))
            return len(payload["square"])
        if kind == "roundtrip":
            _, grid, rows, cols, syms = request
            outline, lifted = result
            checker.check_outline_cells(grid, outline.cells, rows, cols, syms)
            checker.check_roundtrip(grid, lifted.grid, rows, cols, syms)
            return len(grid)
        if result.status == "budget-exceeded":
            raise RequestFailed("oracle budget exceeded")
        grid = result.square.grid if result.status == "found" else None
        checker.check_oracle(request, result.status, grid)
        return len(grid) if grid is not None else 0


def label(prepared) -> str:
    kind, request, _ = prepared
    if kind == "roundtrip":
        return f"roundtrip n={len(request[1])}"
    return f"{kind} {workloads.parts_text(request)}"


class RequestFailed(Exception):
    """The program reported a failure (raised or a nonzero exit code)."""


def _count_trace_steps(counts, result) -> None:
    ops = [step["op"] for step in result[2].steps]
    counts["engine.add_on_steps"] += ops.count("add-on")
    counts["engine.rebuilds"] += ops.count("rebuild")


def _count_lift_cells(counts, square) -> None:
    counts["lift.lift.cells"] += square.order ** 2


def _count_oracle_nodes(counts, result) -> None:
    counts["oracle.nodes"] += result.nodes


# counters read from return values at the layer boundary
ON_RESULT = {
    "lift.lift": _count_lift_cells,
    "engine.construct_main": _count_trace_steps,
    "oracle.find_realization_bruteforce": _count_oracle_nodes,
}

COUNTERS = ("lift.lift.cells", "engine.add_on_steps", "engine.rebuilds",
            "oracle.nodes")


def layer_table(recorder, wrapped: list[str], emitted: int,
                completions: int) -> dict:
    """Self time, calls and failures of every wrapped function, the
    counters, and the derived ratios of one traced pass (all but the
    overhead ratio, which needs the untraced pass)."""
    own = spans.self_times(recorder.spans)
    table = {}
    for name in wrapped:
        table[f"{name}.self_s"] = own.get(name, 0.0)
        table[f"{name}.calls"] = recorder.calls.get(name, 0)
        table[f"{name}.failed"] = recorder.failed.get(name, 0)
    table.update({name: recorder.counts.get(name, 0) for name in COUNTERS})
    table["lift.lifts_per_square"] = (recorder.calls.get("lift.lift", 0)
                                      / max(emitted, 1))
    table["base.completion_searches"] = completions
    oracle_s = spans.total_times(recorder.spans).get(
        "oracle.find_realization_bruteforce", 0.0)
    table["oracle.nodes_per_s"] = (table["oracle.nodes"] / oracle_s
                                   if oracle_s else 0.0)
    table["trace.unattributed_s"] = own.get(spans.ROOT, 0.0)
    return table


def main(argv: list[str]) -> int:
    workload, seed, pass_index, trace = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None
    root = os.getcwd()
    pils = import_pils(root)
    requests = workloads.requests_for(workload, int(seed), int(pass_index))
    runner = Pass(pils)
    prepared = [runner.prepare(r) for r in requests]

    recorder = None
    base = importlib.import_module("pils.base")
    completions_before = len(base.completion_invocations)
    if trace == "1":
        recorder = spans.SpanRecorder()
        wrapped = recorder.install(ON_RESULT)

    timed = []  # (start, stop, busy) per request
    cells = emitted = failed = wrong = 0
    errors = []
    with calibrate.Sampler() as sampler:
        for item in prepared:
            # a collection owed by the previous request's garbage would
            # land in this one's time: start each request with none owed
            gc.collect()
            root_span = recorder.begin() if recorder else None
            stolen = sampler.stolen
            start = perf_counter()
            try:
                result = runner.run(item)
            except Exception as exc:  # the program raised: a failed request
                result, failure = None, exc
            else:
                failure = None
            stop = perf_counter()
            if recorder:
                recorder.end(root_span, spans.ROOT, start, stop)
            # the reference samples taken inside the request are not its time
            busy = stop - start - (sampler.stolen - stolen)
            timed.append((start, stop, busy))
            try:
                if failure is not None:
                    raise RequestFailed(f"raised {failure!r}")
                order = runner.check(item, result)
            except RequestFailed as exc:
                failed += 1
                errors.append(f"{label(item)}: {exc}")
                continue
            except Exception as exc:  # the output did not check, however
                failed += 1
                wrong += 1
                errors.append(f"{label(item)}: wrong output: {exc!r}")
                continue
            if order:
                emitted += 1
                cells += order * order

    raw = [busy for _, _, busy in timed]
    latencies = [busy * sampler.scale(start, stop)
                 for start, stop, busy in timed]
    out = {
        "latencies": latencies,
        "wall_s": sum(latencies),
        "raw_latencies": raw,
        "raw_wall_s": sum(raw),
        "reference_ms": 1e3 * statistics.median(sampler.durations),
        "cells": cells,
        "emitted": emitted,
        "attempted": len(prepared),
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if recorder:
        recorder.uninstall()
        completions = len(base.completion_invocations) - completions_before
        out["layers"] = layer_table(recorder, wrapped, emitted, completions)
        out["spans"] = len(recorder.spans)
        if spans_path:
            recorder.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

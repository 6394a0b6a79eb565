"""Benchmark runner: one workload, one seed, a fixed time budget.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Runs passes of the workload one after another, each in a fresh worker
process (``worker.py``), until the time budget is spent, and prints the
metrics named in ``BENCHMARK.json``: the end-to-end ones with ``--trace 0``,
the per-layer ones with ``--trace 1``.  A traced run pairs each traced pass
with an untraced pass over the same inputs to give the tracing overhead.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 21
SETUP_PER_PASS = 2
WORKER_TIMEOUT_S = 150
SPANS_DIR = ".perfbench"

# The reference is timed after the import, so that its own imports cannot
# shorten the one being measured.
SETUP_SNIPPET = (
    "import sys; from time import perf_counter; "
    "sys.path.insert(0, 'src'); start = perf_counter(); "
    "import pils, pils.cli; took = perf_counter() - start; "
    "sys.path.insert(0, {here!r}); import calibrate; "
    "reference = calibrate.reference_time(15); "
    "print(took * calibrate.REFERENCE_S / reference, took)"
)


class BenchError(Exception):
    pass


def run_child(argv: list[str], env: dict | None = None) -> str:
    """Run a child to completion and return its last line of output."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv[1:3])} failed "
                         f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return lines[-1]


def measure_setup() -> tuple[float, float]:
    """Import time of ``pils`` and ``pils.cli`` in a fresh interpreter, in
    reference seconds and raw.

    Bytecode caching is on, as for an installed command, whatever the
    caller's environment says: the first sample writes ``__pycache__`` and
    the rest read it."""
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    line = run_child([sys.executable, "-c",
                      SETUP_SNIPPET.format(here=HERE)], env=env)
    scaled, raw = line.split()
    return float(scaled), float(raw)


def run_pass(workload: str, seed: int, index: int, traced: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            str(seed), str(index), "1" if traced else "0"]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        argv.append(os.path.join(
            SPANS_DIR, f"spans-{workload}-{seed}-{index}.jsonl"))
    return json.loads(run_child(argv))


def run_passes(workload: str, seed: int, seconds: float, traced: bool,
               ) -> tuple[list[tuple[dict, dict | None]],
                          list[tuple[float, float]]]:
    """(untraced, traced-or-None) per pass until the budget is spent, and
    the set-up samples.  A pass starts only if the median pass so far
    still fits.  SETUP_PER_PASS set-up samples are taken before each pass,
    so that they spread over the run like the passes, and more at the end
    up to SETUP_SAMPLES (untraced runs only)."""
    started = perf_counter()
    durations: list[float] = []
    done = []
    setup: list[tuple[float, float]] = []
    index = 0
    while True:
        if not traced:
            setup.extend(measure_setup() for _ in range(SETUP_PER_PASS))
        begin = perf_counter()
        plain = run_pass(workload, seed, index, traced=False)
        traced_out = run_pass(workload, seed, index, True) if traced else None
        done.append((plain, traced_out))
        durations.append(perf_counter() - begin)
        index += 1
        elapsed = perf_counter() - started
        if elapsed + statistics.median(durations) > seconds:
            break
    while not traced and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    return done, setup


def end_to_end(passes: list[dict], setup: list[tuple[float, float]]):
    """End-to-end metrics, the sample count behind each, and the figures
    printed beside them that BENCHMARK.json does not gate: the raw times
    among them."""
    latencies = [x for p in passes for x in p["latencies"]]
    raw_latencies = [x for p in passes for x in p["raw_latencies"]]
    n = len(passes)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), n),
        "latency_p50_ms": (statistics.median(latencies) * 1e3,
                           len(latencies)),
        "cells_per_s": (statistics.median(p["cells"] / p["wall_s"]
                                          for p in passes), n),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        n),
        "setup_s": (statistics.median(s for s, _ in setup), len(setup)),
    }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    extra = [f"fail_ratio = {failed / attempted:.6g} ({failed} of "
             f"{attempted} requests)"]
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        extra.append(f"latency_p90_ms = {p90 * 1e3:.6g} ms "
                     f"(n={len(latencies)} requests)")
    raw_wall = statistics.median(p["raw_wall_s"] for p in passes)
    raw_rate = statistics.median(p["cells"] / p["raw_wall_s"] for p in passes)
    reference_ms = statistics.median(p["reference_ms"] for p in passes)
    extra += [
        f"raw wall_s = {raw_wall:.6g} s (n={n} passes)",
        f"raw latency_p50_ms = "
        f"{statistics.median(raw_latencies) * 1e3:.6g} ms",
        f"raw cells_per_s = {raw_rate:.6g} 1/s",
        f"raw setup_s = {statistics.median(r for _, r in setup):.6g} s",
        f"reference() = {reference_ms:.4g} ms per call "
        f"(nominal {calibrate.REFERENCE_S * 1e3:g} ms)",
    ]
    return metrics, extra


def per_layer(pairs: list[tuple[dict, dict]], wanted: list[str]):
    """Median over traced passes of each wanted layer metric, plus the
    tracing overhead against the untraced pass over the same inputs."""
    tables = [dict(traced["layers"], **{
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"]})
        for plain, traced in pairs]
    n = len(pairs)
    metrics = {name: (statistics.median(t[name] for t in tables), n)
               for name in wanted}
    traced_wall = statistics.median(traced["wall_s"] for _, traced in pairs)
    # spans are raw times, so their share is of the raw wall time
    raw_wall = statistics.median(traced["raw_wall_s"] for _, traced in pairs)
    share = statistics.median(
        t["trace.unattributed_s"] for t in tables) / raw_wall
    extra = [f"traced wall_s = {traced_wall:.6g} s (n={n} passes)",
             f"raw traced wall_s = {raw_wall:.6g} s",
             f"unattributed share of raw traced wall_s = {share:.3%}",
             f"spans per pass = "
             f"{statistics.median(t['spans'] for _, t in pairs):.0f}"]
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join("src", "pils", "__init__.py")):
            raise BenchError("no src/pils here: run from a checkout's root")
        traced = bool(args.trace)
        pairs, setup = run_passes(args.workload, args.seed, args.seconds,
                                  traced)
        plain = [p for p, _ in pairs]
        if traced:
            wanted = spec["per_layer"]
            metrics, extra = per_layer(pairs, [m["name"] for m in wanted])
        else:
            metrics, extra = end_to_end(plain, setup)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in plain)
    failed = sum(p["failed"] for p in plain)
    wrong = sum(p["wrong"] for p in plain)
    if traced:
        attempted += sum(t["attempted"] for _, t in pairs)
        failed += sum(t["failed"] for _, t in pairs)
        wrong += sum(t["wrong"] for _, t in pairs)
    for p in plain:
        for error in p["errors"]:
            print(f"# {args.workload} pass failure: {error}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{'traced' if traced else 'untraced'}")
    result = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        value, samples = metrics[name]
        result[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit} (n={samples})")
    for line in extra:
        print(line)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

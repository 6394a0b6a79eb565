"""Host-speed reference for the benchmark's timings.

The hosts this benchmark runs on share their processors with other work,
and their speed drifts: a fixed piece of Python code can take 1.7 times as
long from one second to the next, and each processor drifts on its own.
Raw times then differ between runs by more than any change worth
measuring.  So a pass samples a fixed reference workload, in its own
process and on its own thread, every ``SAMPLE_INTERVAL_S`` from a timer
signal, and scales each request's time by how fast the reference ran
around it.  The gated timings are *reference seconds*: how long the
request would take on a host where ``reference()`` takes ``REFERENCE_S``.

The reference is the benchmark's own code and never calls ``pils``, so a
change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

# the nominal duration of one reference() call: a scale factor of 1 means
# the host ran the reference in exactly this long
REFERENCE_S = 0.0015
SAMPLE_INTERVAL_S = 0.1
# reference samples taken this close to a request calibrate it
WINDOW_S = 1.0
MIN_SAMPLES = 3

_SQUARE_ORDER = 10
_SQUARE_ROUNDS = 9
_SQUARE_SEED = 20251001
_BOARD_ORDER = 6


def reference() -> int:
    """A fixed piece of work shaped like the program's, in two halves of
    about equal time: shuffling and checking a small latin square (lists of
    lists of small ints, sets, dicts keyed by tuples, a seeded generator),
    and a backtracking search through recursive generators, like the
    program's transversal, completion and oracle searches.  Code of the two
    kinds slows by different amounts when the host is busy; the mix tracks
    both."""
    return _shuffle_square() + sum(_place(_BOARD_ORDER, 0, set(), set(), 0))


def _shuffle_square() -> int:
    n = _SQUARE_ORDER
    rng = random.Random(_SQUARE_SEED)
    grid = [[(r + c) % n for c in range(n)] for r in range(n)]
    seen: dict[tuple[int, int], int] = {}
    broken = 0
    for _ in range(_SQUARE_ROUNDS):
        rows = rng.sample(range(n), n)
        cols = rng.sample(range(n), n)
        syms = rng.sample(range(n), n)
        grid = [[syms[grid[rows[r]][cols[c]]] for c in range(n)]
                for r in range(n)]
        full = set(range(n))
        broken += sum(set(row) != full for row in grid)
        broken += sum({row[c] for row in grid} != full for c in range(n))
        for r, row in enumerate(grid):
            for c, s in enumerate(row):
                seen[(r, s)] = seen.get((r, s), 0) + c
    return broken + sum(seen.values())


def _place(n: int, row: int, cols: set[int], diagonals: set[int],
           acc: int):
    """Yield, for every way to put one piece per row and column of an n by
    n board with no two on one anti-diagonal, the sum of its columns."""
    if row == n:
        yield acc
        return
    for c in range(n):
        if c in cols or row + c in diagonals:
            continue
        cols.add(c)
        diagonals.add(row + c)
        yield from _place(n, row + 1, cols, diagonals, acc + c)
        cols.discard(c)
        diagonals.discard(row + c)


class Sampler:
    """Times ``reference()`` from a SIGALRM handler while it is active.

    The handler runs on the main thread between bytecodes, so the samples
    see the same processor as the code they calibrate.  ``stolen`` sums the
    handler's time, so that a caller can take it out of a request's time.
    Use as a context manager, on the main thread of a process that sets no
    other interval timer.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        stop = perf_counter()
        self.times.append((start + stop) / 2)
        self.durations.append(stop - start)
        self.stolen += stop - start

    def __enter__(self) -> "Sampler":
        reference()  # warm the code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, stop: float) -> float:
        """REFERENCE_S over the median reference time taken within WINDOW_S
        of [start, stop], widened to the MIN_SAMPLES nearest samples."""
        return scale_from(self.times, self.durations, start, stop)


def scale_from(times: list[float], durations: list[float], start: float,
               stop: float) -> float:
    if len(times) < MIN_SAMPLES:
        raise ValueError(f"only {len(times)} reference samples")
    lo = bisect.bisect_left(times, start - WINDOW_S)
    hi = bisect.bisect_right(times, stop + WINDOW_S)
    while hi - lo < MIN_SAMPLES:
        # widen towards the nearer side that has samples left
        before = times[lo - 1] if lo > 0 else None
        after = times[hi] if hi < len(times) else None
        if after is None or (before is not None
                             and start - before <= after - stop):
            lo -= 1
        else:
            hi += 1
    return REFERENCE_S / statistics.median(durations[lo:hi])


def reference_time(calls: int) -> float:
    """Median time of ``calls`` reference() calls, after one to warm up."""
    reference()
    samples = []
    for _ in range(calls):
        start = perf_counter()
        reference()
        samples.append(perf_counter() - start)
    return statistics.median(samples)

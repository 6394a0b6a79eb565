"""Seeded inputs for the benchmark's workloads.

Nothing here imports ``pils``: the program under test receives only the
inputs generated below.  Every generator takes a ``random.Random`` built by
``pass_rng`` from the run's seed, the workload name and the pass index, so
the same seed always yields the same inputs, and two passes of one run draw
different samples.

A request is a plain tuple whose first item names its kind:

* ``("construct", parts)``: ``pils construct "<parts>"`` through the CLI;
* ``("roundtrip", grid, rows, cols, syms)``: ``reduce`` then ``lift``;
* ``("oracle", parts)``: ``find_realization_bruteforce``.
"""

from __future__ import annotations

import random
from functools import lru_cache

WORKLOADS = ("sweep", "large", "roundtrip", "search")

# Share of each order's three-equal-largest partitions drawn into one sweep
# pass (proportional allocation keeps every pass's mix of orders the same;
# short passes give the per-pass median more samples in a run).
SWEEP_SHARE = 0.05
SWEEP_MAX_ORDER = 30

# One-big partitions (s, 1^m) whose outline-completion search runs out of
# its node budget today (exit 70 after about 14 s).  Every search pass holds
# the first and one of the other two; they count as failures.
BUDGET_EXHAUSTING = ((2, 22), (2, 26), (3, 26))
SEARCH_MAX_ORDER = 30
SEARCH_NO_SEARCH_SAMPLE = 40
ORACLE_MAX_ORDER = 9

ROUNDTRIP_ORDERS = (20, 30, 40, 50, 60)
ROUNDTRIP_CLASSES = tuple(range(3, 11))
ROUNDTRIP_PER_ORDER = len(ROUNDTRIP_CLASSES)


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


@lru_cache(maxsize=None)
def partitions(n: int, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most ``cap``, non-increasing."""
    cap = n if cap is None else min(cap, n)
    if n == 0:
        return ((),)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def three_equal_largest(n: int) -> list[tuple[int, ...]]:
    return [p for p in partitions(n) if len(p) >= 3 and p[0] == p[2]]


def one_big(max_order: int) -> list[tuple[int, int]]:
    """In-scope (s, 1^m): 2 <= s <= m - 1, s + m <= max_order."""
    return [(s, m) for m in range(3, max_order) for s in range(2, m)
            if s + m <= max_order]


def parts_text(parts) -> str:
    return ",".join(str(p) for p in parts)


def one_big_parts(s: int, m: int) -> tuple[int, ...]:
    return (s,) + (1,) * m


# ---------------------------------------------------------------------------
# sweep


def sweep_requests(rng: random.Random) -> list[tuple]:
    """A proportional sample of each order's three-equal-largest partitions."""
    requests = []
    for n in range(3, SWEEP_MAX_ORDER + 1):
        family = three_equal_largest(n)
        take = max(1, round(SWEEP_SHARE * len(family)))
        requests.extend(("construct", p) for p in rng.sample(family, take))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# large


def _tail(rng: random.Random, total: int, count: int, cap: int,
          ) -> tuple[int, ...]:
    """``count`` parts in [1, cap] summing to ``total``, non-increasing."""
    if not count <= total <= count * cap:
        raise ValueError(f"cannot split {total} into {count} parts <= {cap}")
    parts = [1] * count
    left = total - count
    while left:
        i = rng.randrange(count)
        if parts[i] < cap:
            parts[i] += 1
            left -= 1
    return tuple(sorted(parts, reverse=True))


def _rebuild_partition(rng: random.Random, n: int, h1_choices, tail_count: int,
                       ) -> tuple[int, ...]:
    """h1^3 plus a tail long enough that (m-1)(h1+h4) < tail sum at m = 3,
    so the engine rebuilds the whole partition through one circulant
    pipeline and one lift."""
    h1 = rng.choice(h1_choices)
    r = n - 3 * h1
    cap = min(h1 - 1, (r - 1) // 2 - h1)
    return (h1,) * 3 + _tail(rng, r, tail_count, cap)


def _add_on_partition(rng: random.Random, n: int, h1_choices,
                      ) -> tuple[int, ...]:
    """h1^3 plus a short tail of three sizes below h1: the hypothesis fails
    at m = 3, so the engine walks an add-on chain (several lifts)."""
    h1 = rng.choice(h1_choices)
    r = n - 3 * h1
    sizes = sorted(rng.sample(range(h1 // 4, h1 // 2 + 1), 3), reverse=True)
    # three sizes summing to r: scale the draw, then fix the sum
    scale = r / sum(sizes)
    tail = [max(1, round(s * scale)) for s in sizes]
    tail[-1] += r - sum(tail)
    return (h1,) * 3 + tuple(sorted(tail, reverse=True))


# (name, order, generator) strata: one request of each per pass, so every
# pass mixes orders and routes the same way whatever the seed.  Their times
# do not overlap, and there is an odd number of them, so that the median
# request of a run is always the middle stratum's (a rebuild, whose time
# varies less with the draw than the add-on chain's).
LARGE_STRATA = (
    ("rebuild-odd-tail", 161,
     lambda rng: _rebuild_partition(rng, 161, (20, 22, 24), 8)),
    ("rebuild-odd-tail-mid", 201,
     lambda rng: _rebuild_partition(rng, 201, (24, 26, 28), 10)),
    ("rebuild-even-tail", 240,
     lambda rng: _rebuild_partition(rng, 240, (30, 32, 34), 10)),
    ("add-on-chain", 250,
     lambda rng: _add_on_partition(rng, 250, (58, 60, 62))),
    ("rebuild-odd-tail-long", 331,
     lambda rng: _rebuild_partition(rng, 331, (30, 32, 34), 12)),
)


def large_requests(rng: random.Random) -> list[tuple]:
    requests = [("construct", make(rng)) for _, _, make in LARGE_STRATA]
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# roundtrip


def random_composition(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """n split into k positive parts in random order."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    bounds = [0] + cuts + [n]
    return tuple(bounds[i + 1] - bounds[i] for i in range(k))


def random_latin_square(rng: random.Random, n: int) -> list[list[int]]:
    """A latin square of order n over 1..n.

    Starts from a cyclic square under random row, column and symbol
    permutations, then takes Jacobson-Matthews steps, which leave the
    isotopy class of the cyclic group.
    """
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    syms = rng.sample(range(1, n + 1), n)
    grid = [[syms[(rows[i] + cols[j]) % n] for j in range(n)]
            for i in range(n)]
    return _jacobson_matthews(rng, grid, steps=2 * n)


def _jacobson_matthews(rng: random.Random, grid: list[list[int]], steps: int,
                       ) -> list[list[int]]:
    """Jacobson-Matthews moves on the incidence cube of a latin square.

    The cube holds +1 at (r, c, s) when cell (r, c) holds s; an improper
    state carries one -1 entry.  The walk stops only on a proper square.
    """
    n = len(grid)
    cube: dict[tuple[int, int, int], int] = {}
    for r in range(n):
        for c in range(n):
            cube[(r, c, grid[r][c] - 1)] = 1
    # line lookups: for fixed (r, c) the symbols with nonzero entries, etc.
    by_rc = {(r, c): {grid[r][c] - 1} for r in range(n) for c in range(n)}
    by_rs = {(r, grid[r][c] - 1): {c} for r in range(n) for c in range(n)}
    by_cs = {(c, grid[r][c] - 1): {r} for r in range(n) for c in range(n)}

    def add(r: int, c: int, s: int, delta: int) -> None:
        v = cube.get((r, c, s), 0) + delta
        if v:
            cube[(r, c, s)] = v
            by_rc.setdefault((r, c), set()).add(s)
            by_rs.setdefault((r, s), set()).add(c)
            by_cs.setdefault((c, s), set()).add(r)
        else:
            del cube[(r, c, s)]
            by_rc[(r, c)].discard(s)
            by_rs[(r, s)].discard(c)
            by_cs[(c, s)].discard(r)

    improper = None
    done = 0
    while done < steps or improper is not None:
        if improper is None:
            while True:
                r, c, s = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if (r, c, s) not in cube:
                    break
            s1 = next(iter(by_rc[(r, c)]))
            c1 = next(iter(by_rs[(r, s)]))
            r1 = next(iter(by_cs[(c, s)]))
        else:
            # each line through the -1 entry holds two +1 entries
            r, c, s = improper
            s1 = rng.choice([x for x in by_rc[(r, c)] if cube[(r, c, x)] == 1])
            c1 = rng.choice([x for x in by_rs[(r, s)] if cube[(r, x, s)] == 1])
            r1 = rng.choice([x for x in by_cs[(c, s)] if cube[(x, c, s)] == 1])
        add(r, c, s, 1)
        add(r, c1, s1, 1)
        add(r1, c, s1, 1)
        add(r1, c1, s, 1)
        add(r, c, s1, -1)
        add(r, c1, s, -1)
        add(r1, c, s, -1)
        add(r1, c1, s1, -1)
        improper = (r1, c1, s1) if cube.get((r1, c1, s1)) == -1 else None
        done += 1
    out = [[0] * n for _ in range(n)]
    for (r, c, s), v in cube.items():
        out[r][c] = s + 1
    return out


def roundtrip_requests(rng: random.Random) -> list[tuple]:
    """Random squares under three pairwise distinct random partitions.

    Each order gets ROUNDTRIP_PER_ORDER requests, and each of rows, columns
    and symbols takes every class count in ROUNDTRIP_CLASSES once among
    them, so every pass carries the same mix of sizes and class counts.
    """
    requests = []
    for n in ROUNDTRIP_ORDERS:
        counts = [rng.sample(ROUNDTRIP_CLASSES, ROUNDTRIP_PER_ORDER)
                  for _ in range(3)]
        for k_rows, k_cols, k_syms in zip(*counts):
            grid = random_latin_square(rng, n)
            while True:
                rows, cols, syms = (random_composition(rng, n, k)
                                    for k in (k_rows, k_cols, k_syms))
                if len({rows, cols, syms}) == 3:
                    break
            requests.append(("roundtrip", grid, rows, cols, syms))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# search


def search_requests(rng: random.Random, seed: int) -> list[tuple]:
    """One-big constructions and the exhaustive oracle.

    Every pass holds (2, 1^22) and one of the other two budget-exhausting
    partitions (by seed parity), one other m = 2 (mod 4) partition from each
    of two bands of m (these run the outline-completion search), a sample
    of the other in-scope one-big partitions (built from transversals, no
    search), and the oracle over every partition of n <= 9.  A fixed number
    of budget failures and one draw per band keep the multi-second searches
    from piling into one pass.
    """
    population = one_big(SEARCH_MAX_ORDER)
    failing = [BUDGET_EXHAUSTING[0], BUDGET_EXHAUSTING[1 + seed % 2]]
    searching = [(s, m) for s, m in population
                 if m % 4 == 2 and (s, m) not in BUDGET_EXHAUSTING]
    # m >= 18 is left to the budget failures: a few of its completions take
    # 2 to 6 s against under 1 s for the rest, and one in a pass would
    # swing the pass's time and memory by a fifth
    bands = ((6, 10), (14,))
    drawn = [rng.choice([(s, m) for s, m in searching if m in band])
             for band in bands]
    # a systematic sample, in order of size, keeps the pass's sum of n^2
    # (and so cells_per_s) nearly the same whatever the seed
    no_search = sorted(((s, m) for s, m in population if m % 4 != 2),
                       key=lambda sm: (sm[0] + sm[1], sm[0]))
    step = len(no_search) / SEARCH_NO_SEARCH_SAMPLE
    offset = rng.random() * step
    sampled = [no_search[int(offset + i * step)]
               for i in range(SEARCH_NO_SEARCH_SAMPLE)]
    constructs = [("construct", one_big_parts(s, m))
                  for s, m in failing + drawn + sampled]
    rng.shuffle(constructs)
    # The oracle calls take microseconds to a second and hold the median
    # request.  They keep a fixed order and are spread evenly between the
    # constructions, so that the median samples the whole pass rather than
    # one moment of it.
    oracle = [("oracle", p) for n in range(1, ORACLE_MAX_ORDER + 1)
              for p in partitions(n)]
    requests = []
    for i, construct in enumerate(constructs):
        share = slice(i * len(oracle) // len(constructs),
                      (i + 1) * len(oracle) // len(constructs))
        requests.extend(oracle[share])
        requests.append(construct)
    return requests


def requests_for(workload: str, seed: int, pass_index: int) -> list[tuple]:
    rng = pass_rng(workload, seed, pass_index)
    if workload == "sweep":
        return sweep_requests(rng)
    if workload == "large":
        return large_requests(rng)
    if workload == "roundtrip":
        return roundtrip_requests(rng)
    if workload == "search":
        return search_requests(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")

"""Top-level constructions: the combined circulant pipeline, the induction
over partitions with three or more equal largest parts, and incomplete latin
squares inside the 2*h1 order gap.

Every construction returns the square, its certificate, and a replayable
trace of the branches taken; every output is re-verified before return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

from .base import _two_size_outline, _uniform_outline, ls_uniform
from .circulant import even_r_outline, odd_r_outline, odd_r_seed_labels
from .compose import add_on_step, blow_up
from .core import (
    InternalError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PreconditionError,
    SubsquareCertificate,
    # unused here; perfbench's alias-rebinding test asserts this name
    reduce as reduce_square,
    verify_subsquares,
)
from .lift import lift_labels_to_realization, lift_to_realization


@dataclass
class ConstructionTrace:
    """Ordered record of construction steps; replaying the same input
    reproduces the identical square, so the trace doubles as a receipt."""

    partition: tuple[int, ...]
    steps: list[dict] = field(default_factory=list)

    def add(self, op: str, **params) -> None:
        self.steps.append({"op": op, **params})

    def to_json(self) -> str:
        return json.dumps({"partition": list(self.partition),
                           "steps": self.steps}, sort_keys=True)


def select_t(h1: int, h4: int, hk: int, r: int,
             parity: str | None = None) -> int:
    """The seed block size for the circulant-plus-blow-up route.

    Chooses h1 itself when the interval allows, otherwise the largest
    integer satisfying every inequality of the relevant parity: the seed
    window 2*h4 <= 3t <= r+1-2*h4 (shifted by one for even r), the blow-up
    budget r(h1-t) bounded by the available surplus, and for even r the
    trade budget t(t-1) >= 2(hk-1).
    """
    if not (h1 >= h4 >= hk >= 1):
        raise PreconditionError("need h1 >= h4 >= hk >= 1")
    if r < 1:
        raise PreconditionError("tail sum must be positive")
    want = "odd" if r % 2 else "even"
    if parity is not None and parity != want:
        raise PreconditionError(f"r = {r} is {want}, not {parity}")

    if r % 2:
        def ok(t: int) -> bool:
            return (2 * h4 <= 3 * t <= r + 1 - 2 * h4
                    and 0 <= r * (h1 - t) <= 2 * h1 * h1
                    and 1 <= t <= h1)

        if ok(h1):
            return h1
        hi = (r + 1 - 2 * h4) // 3
        for t in range(min(hi, h1), 0, -1):
            if ok(t):
                return t
        raise PreconditionError(
            f"no odd-parity seed size for h1={h1}, h4={h4}, r={r}")

    def ok_even(t: int) -> bool:
        return (2 * h4 + 2 <= 3 * t + 1 <= r + 1 - 2 * h4
                and 0 <= r * (h1 - t) <= 2 * h1 * h1 - t - 2 * (hk - 1)
                and t * (t - 1) >= 2 * (hk - 1)
                and 2 <= t <= h1)

    def constructible(t: int) -> bool:
        # strictly inside the window (the boundary starves the difference
        # pool) and large enough to absorb the final block's trade
        return 3 * t + 1 <= r - 2 * h4 and t >= hk - 1

    candidates = []
    if 3 * h1 <= r - 2 * h4:
        candidates.append(h1)
    hi = (r - 2 * h4) // 3
    candidates.extend(range(min(hi, h1), 1, -1))
    for t in candidates:
        if ok_even(t) and constructible(t):
            return t
    for t in candidates:
        if ok_even(t):
            return t
    raise PreconditionError(
        f"no even-parity seed size for h1={h1}, h4={h4}, hk={hk}, r={r}")


def attempt_pipeline(partition: Partition, labels: bool = False,
                     ) -> tuple[OutlineRectangle | list[list[int]], dict]:
    """Circulant seed and blow-up to h1: an outline square for the
    partition, not yet lifted, and the seed parameters.  Raises
    PreconditionError when the partition's parameters fall outside the seed
    constructions.

    With ``labels``, an odd-tail seed of size t = h1 is the partition itself
    and its blow-up the identity, so its label grid over the symbol
    partition (1^{3h}, h4, ..., hk) (:func:`odd_r_seed_labels`, whose
    amalgamation the outline square is) is returned instead.
    """
    parts = partition.parts
    if len(parts) < 4:
        raise PreconditionError("pipeline needs a tail beyond three classes")
    if not (parts[0] == parts[1] == parts[2]):
        raise PreconditionError("pipeline needs three equal leading parts")
    h1 = parts[0]
    tail = parts[3:]
    r = sum(tail)
    t = select_t(h1, tail[0], parts[-1], r)
    seed = Partition((t, t, t) + tail)
    if r % 2:
        beta1 = beta2 = t * t
        parity = "odd"
        if labels and t == h1:
            built = odd_r_seed_labels(seed)
        else:
            built = blow_up(odd_r_outline(seed), h1, beta1, beta2)
    else:
        outline, beta1, beta2 = even_r_outline(seed)
        parity = "even"
        built = blow_up(outline, h1, beta1, beta2)
    info = {"t": t, "parity": parity, "beta1": beta1, "beta2": beta2,
            "g": h1}
    return built, info


def construct_m_equal(partition: Partition, m: int | None = None,
                      ) -> tuple[LatinSquare, SubsquareCertificate,
                                 ConstructionTrace]:
    """Realize (h1^m h_{m+1} .. h_k) under (m-1)(h1+h_{m+1}) < sum of tail.

    With m unspecified the smallest m in [3, run of equal leading parts]
    whose hypothesis holds is used.  Partitions with at most two distinct
    sizes fall back to the two-size constructor when the circulant
    parameters are out of range.  The chosen route's outline square is
    lifted once; uniform inputs return ls_uniform's square itself.
    """
    outline, trace = _m_equal_outline(partition, m)
    if outline is None:
        square, certificate = ls_uniform(partition.part(1), partition.k)
    else:
        square, certificate = lift_to_realization(outline, partition)
    return square, certificate, trace


def _rebuild_hypothesis(parts: Sequence[int], level: int) -> bool:
    """The rebuild hypothesis (l-1)(h_l + h_{l+1}) < sum(h_{l+1..k}) at
    level l, false when no part follows h_l."""
    if level >= len(parts):
        return False
    return ((level - 1) * (parts[level - 1] + parts[level])
            < sum(parts[level:]))


def _m_equal_outline(partition: Partition, m: int | None,
                     labels: bool = False,
                     ) -> tuple[OutlineRectangle | list[list[int]] | None,
                                ConstructionTrace]:
    """construct_m_equal's checks and route choice, stopping at the outline
    square; None for uniform inputs, which need no lift.  ``labels`` is
    passed on to :func:`attempt_pipeline`."""
    parts = partition.parts
    if not partition.is_non_increasing():
        raise PreconditionError("partition must be sorted non-increasing")
    k = partition.k
    run = 1
    while run < k and parts[run] == parts[0]:
        run += 1
    if run < 3:
        raise PreconditionError("needs at least three equal largest parts")

    if m is not None:
        if not 3 <= m <= run:
            raise PreconditionError(
                f"m = {m} outside [3, {run}] for {partition}")
        if not _rebuild_hypothesis(parts, m):
            raise PreconditionError(
                f"hypothesis fails at m = {m}: ({m}-1)(h1+h_m+1) >= tail sum")
        chosen = m
    else:
        chosen = next((mm for mm in range(3, run + 1)
                       if _rebuild_hypothesis(parts, mm)), None)
        if chosen is None:
            raise PreconditionError(
                f"hypothesis fails for every m in [3, {run}] on {partition}")

    trace = ConstructionTrace(parts)
    distinct = len(set(parts))
    if distinct == 1:
        trace.add("uniform", a=parts[0], k=k)
        return None, trace
    try:
        outline, info = attempt_pipeline(partition, labels)
        trace.add("circulant-pipeline", m=chosen, **info)
        return outline, trace
    except PreconditionError as exc:
        if distinct <= 2:
            outline = _two_size_outline(partition)
            trace.add("two-size-fallback", m=chosen, reason=str(exc))
            return outline, trace
        raise InternalError(
            f"pipeline rejected a three-size partition {partition}: {exc}"
        ) from exc


def construct_main(partition: Partition,
                   ) -> tuple[LatinSquare, SubsquareCertificate,
                              ConstructionTrace]:
    """Realize any (h_m^m h_{m+1} .. h_k) with m >= 3 equal largest parts.

    Downward induction on outline squares over the levels l = k - 1, ...,
    m.  It begins at the last level whose rebuild hypothesis holds, rebuilt
    outright through the circulant pipeline (the steps before it would be
    discarded), or at the uniform base (h_k^k) when no level's holds; each
    later level adds (h_l - h_{l+1}) add-on arrays to the previous outline
    square.  Steps whose source and target partitions coincide are
    skipped.  Only the final outline square becomes a latin square: lift
    once at the end.  When the rebuild is the last step and its seed is the
    odd-tail one of size h1, the square is lifted from the seed's label
    grid, whose rows and columns are already units: only its symbols are
    split.
    """
    parts = partition.parts
    if not partition.is_non_increasing():
        raise PreconditionError("partition must be sorted non-increasing")
    k = partition.k
    m = 1
    while m < k and parts[m] == parts[0]:
        m += 1
    if m < 3:
        raise PreconditionError(
            f"{partition} lacks three equal largest parts")

    trace = ConstructionTrace(parts)
    if m == k:
        square, certificate = ls_uniform(parts[0], k)
        trace.add("uniform", a=parts[0], k=k)
        return square, certificate, trace

    def level_partition(level: int) -> Partition:
        return Partition((parts[level - 1],) * level + parts[level:])

    # the last level of the chain whose rebuild hypothesis holds, else k
    start = next((level for level in range(m, k)
                  if parts[level - 1] > parts[level]
                  and _rebuild_hypothesis(parts, level)), k)
    if start == k:
        outline = _uniform_outline(parts[k - 1], k)
        trace.add("uniform-base", a=parts[k - 1], k=k)
    else:
        # everything above the last rebuild is discarded by it, so begin
        # there outright; when no add-on step follows (start == m), an odd
        # seed of size h1 comes back as its label grid, and only its symbols
        # are lifted
        outline, inner = _m_equal_outline(level_partition(start), start,
                                          labels=start == m)
        trace.add("rebuild", level=start, inner=inner.steps)
        if isinstance(outline, list):
            square, certificate = lift_labels_to_realization(outline,
                                                             partition)
            return square, certificate, trace

    # every later level with distinct parts fails the rebuild hypothesis,
    # which implies the add-on bound, so its add-on step applies
    for level in range(start - 1, m - 1, -1):
        if parts[level - 1] == parts[level]:
            # same multiset of parts: the previous outline already works
            trace.add("skip-equal", level=level)
            continue
        outline = add_on_step(outline, level_partition(level), level)
        trace.add("add-on", level=level,
                  copies=parts[level - 1] - parts[level])
    square, certificate = lift_to_realization(outline, partition)
    return square, certificate, trace


def construct_ils(n: int, orders: Sequence[int],
                  ) -> tuple[LatinSquare, SubsquareCertificate]:
    """An order-n latin square with disjoint subsquares of the given orders,
    for any n at least 2*h1 plus the orders' sum."""
    wanted = sorted((int(h) for h in orders), reverse=True)
    if not wanted or any(h < 1 for h in wanted):
        raise PreconditionError("orders must be positive")
    h1, hk = wanted[0], wanted[-1]
    total = sum(wanted)
    if n < 2 * h1 + total:
        raise PreconditionError(
            f"n = {n} below the bound 2*h1 + sum = {2 * h1 + total}")
    gap = n - 2 * h1 - total
    q, leftover = divmod(gap, hk)
    padded = [h1, h1] + wanted + [hk] * q
    if leftover:
        padded.append(leftover)
    partition = Partition.sorted(padded)
    square, certificate, _ = construct_main(partition)

    remaining = list(certificate.blocks)
    chosen = []
    for h in wanted:
        idx = next(i for i, blk in enumerate(remaining)
                   if len(blk.rows) == h)
        chosen.append(remaining.pop(idx))
    restricted = SubsquareCertificate(tuple(chosen))
    verify_subsquares(square, restricted)
    return square, restricted

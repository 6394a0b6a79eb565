"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Time budgets are asserted where the criterion states one.
"""

import hashlib
import json
import random
import time
from contextlib import contextmanager

import pytest

from pils import (
    Partition,
    PreconditionError,
    construct_ils,
    construct_main,
    exists,
    ls_one_big,
    ls_uniform,
    reduce,
    lift,
    select_t,
    verify_realization,
    verify_subsquares,
)
from pils.circulant import build_circulant_outline, check_circulant_properties
from pils.cli import main, outline_from_json
from pils.oracle import enumerate_partitions, find_realization_bruteforce
from reference import REFERENCE_OUTLINE_CELLS, REFERENCE_SQUARE
from util import random_latin_square, random_partition

# sha256 over the squares of criteria 2 and 4, in order, and over the traces
# of criterion 2; a change that alters any square or trace on purpose re-pins
# these and says why
SWEEP_DIGEST = \
    "dccfcf6ef79cd8f0e46dd9a4e911f4b16a08cf54ee66e5b7d219dede2427a8c6"
SWEEP_TRACE_DIGEST = \
    "b2780af26489feb33a36c7a3e3d4d2fdb962d256fbe7feba6b61a92011290f8a"
ROUND_TRIP_DIGEST = \
    "d4300ad540ad8c962230e8b42bddfa111c606ab461c0e2405d9fb9e3e70426c9"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {number} ({name}): PASS")


def test_criterion_1_oracle_concordance():
    with criterion(1, "oracle concordance n <= 9"):
        start = time.monotonic()
        seen = 0
        unknowns = []
        for n in range(1, 10):
            for partition in enumerate_partitions(n):
                seen += 1
                verdict = exists(partition)
                result = find_realization_bruteforce(partition)
                assert result.status != "budget-exceeded", partition
                if verdict.verdict == "yes":
                    assert result.status == "found", partition
                elif verdict.verdict == "no":
                    assert result.status == "none", partition
                else:
                    unknowns.append((partition.parts, result.status))
        assert seen == 96
        assert time.monotonic() - start < 600
        # the undecided families, logged for review with their ground truth
        print(f"  undecided at n <= 9: {unknowns}")


def test_criterion_2_three_equal_largest_sweep():
    with criterion(2, "construct_main sweep n <= 30"):
        start = time.monotonic()
        built = 0
        digest = hashlib.sha256()
        trace_digest = hashlib.sha256()
        for n in range(3, 31):
            for partition in enumerate_partitions(n):
                parts = partition.parts
                if partition.k < 3 or parts[0] != parts[2]:
                    continue
                square, certificate, trace = construct_main(partition)
                verify_realization(square, partition)
                digest.update(repr((partition.parts, square.grid)).encode())
                trace_digest.update(trace.to_json().encode())
                built += 1
        assert built == 1885
        # golden hash: a refactor must leave every square byte-identical
        assert digest.hexdigest() == SWEEP_DIGEST
        assert trace_digest.hexdigest() == SWEEP_TRACE_DIGEST
        assert time.monotonic() - start < 900


def test_criterion_3_reference_example(tmp_path, capsys):
    with criterion(3, "reference example round trip"):
        grid_path = tmp_path / "square.txt"
        grid_path.write_text("\n".join(
            " ".join(str(v) for v in row) for row in REFERENCE_SQUARE))
        assert main(["verify", str(grid_path), "3,2,2,1,1"]) == 0
        capsys.readouterr()

        assert main(["reduce", str(grid_path), "1,1,1,2,2,1,1", "3,2,2,1,1",
                     "3,1,1,1,1,1,1"]) == 0
        outline_json = capsys.readouterr().out
        outline = outline_from_json(json.loads(outline_json))
        assert [list(r) for r in outline.cells] == [
            list(r) for r in REFERENCE_OUTLINE_CELLS]

        outline_path = tmp_path / "outline.json"
        outline_path.write_text(outline_json)
        assert main(["lift", str(outline_path)]) == 0
        lifted_text = capsys.readouterr().out
        lifted_path = tmp_path / "lifted.txt"
        lifted_path.write_text(lifted_text)
        assert main(["reduce", str(lifted_path), "1,1,1,2,2,1,1", "3,2,2,1,1",
                     "3,1,1,1,1,1,1"]) == 0
        again = outline_from_json(json.loads(capsys.readouterr().out))
        assert again.cells == outline.cells


def test_criterion_4_lift_round_trip():
    with criterion(4, "100 random reduce/lift round trips"):
        rng = random.Random(20260808)
        digest = hashlib.sha256()
        for _ in range(100):
            n = rng.randint(1, 20)
            square = random_latin_square(n, rng)
            P, Q, R = (random_partition(n, rng) for _ in range(3))
            outline = reduce(square, P, Q, R)
            lifted = lift(outline)
            assert reduce(lifted, P, Q, R).cells == outline.cells
            digest.update(repr(lifted.grid).encode())
        assert digest.hexdigest() == ROUND_TRIP_DIGEST


def test_criterion_5_circulant_property_audit():
    with criterion(5, "50 circulant property audits"):
        rng = random.Random(5150)
        done = 0
        while done < 50:
            h2 = rng.randint(1, 4)
            t = 4 * h2 - 1 + 2 * rng.randint(0, 8)
            h1 = rng.randint(2 * h2, t + 1 - 2 * h2)
            tail = [h2]
            remaining = t - h2
            cur = h2
            while remaining:
                p = rng.randint(1, min(cur, remaining))
                tail.append(p)
                cur = p
                remaining -= p
            partition = Partition([h1] + tail)
            outline, triples = build_circulant_outline(partition)
            assert check_circulant_properties(outline, triples, partition) \
                == []
            done += 1


def test_criterion_6_seed_size_inequalities():
    with criterion(6, "seed-size inequalities, 1000 per parity"):
        rng = random.Random(66)
        for parity in ("odd", "even"):
            for _ in range(1000):
                h4 = rng.randint(2, 12)
                hk = rng.randint(1, h4 - 1)
                h1 = rng.randint(max(3, h4), h4 + 20)
                low = max(2 * (h1 + h4) + 1, 4 * h4 + 3)
                r = low + rng.randint(0, 40)
                if parity == "odd":
                    r += (r % 2 == 0)
                else:
                    r += (r % 2 == 1)
                t = select_t(h1, h4, hk, r, parity=parity)
                assert 1 <= t <= h1
                if parity == "odd":
                    assert 2 * h4 <= 3 * t <= r + 1 - 2 * h4
                    assert 0 <= r * (h1 - t) <= 2 * h1 * h1
                else:
                    assert 2 * h4 + 2 <= 3 * t + 1 <= r + 1 - 2 * h4
                    assert 0 <= r * (h1 - t) <= \
                        2 * h1 * h1 - t - 2 * (hk - 1)
                    assert t * (t - 1) >= 2 * (hk - 1)


def test_criterion_7_base_case_verdicts():
    with criterion(7, "base-case constructions and rejections"):
        for a in range(1, 6):
            for k in range(1, 9):
                if k == 2:
                    with pytest.raises(PreconditionError):
                        ls_uniform(a, k)
                    continue
                square, _ = ls_uniform(a, k)
                verify_realization(square, Partition([a] * k))
        for m in range(3, 14):
            for s in range(0, m):
                if s + m > 14:
                    continue
                square, _ = ls_one_big(s, m)
                expected = Partition([s] + [1] * m) if s >= 2 else \
                    Partition([1] * (m + s))
                verify_realization(square, expected)
            with pytest.raises(PreconditionError):
                ls_one_big(m, m)


def test_criterion_8_incomplete_squares():
    with criterion(8, "incomplete latin squares, 20 samples"):
        rng = random.Random(88)
        for _ in range(20):
            k = rng.randint(1, 6)
            orders = sorted((rng.randint(1, 6) for _ in range(k)),
                            reverse=True)
            n = 2 * orders[0] + sum(orders) + rng.randint(0, 15)
            square, certificate = construct_ils(n, orders)
            assert square.order == n
            assert len(certificate.blocks) == k
            assert sorted((len(b.rows) for b in certificate.blocks),
                          reverse=True) == orders
            verify_subsquares(square, certificate)


def test_criterion_9_scale():
    with criterion(9, "scale: order 80 under 10s, order 500 under 120s"):
        start = time.monotonic()
        partition = Partition([10, 10, 10, 9, 8, 7, 6, 5, 5, 4, 3, 2, 1])
        square, _, _ = construct_main(partition)
        verify_realization(square, partition)
        took = time.monotonic() - start
        assert square.order == 80
        assert took < 10, f"order-80 took {took:.1f}s"

        start = time.monotonic()
        partition = Partition([100, 100, 100, 50, 50, 50, 25, 25])
        square, _, _ = construct_main(partition)
        verify_realization(square, partition)
        took = time.monotonic() - start
        assert square.order == 500
        assert took < 120, f"order-500 took {took:.1f}s"

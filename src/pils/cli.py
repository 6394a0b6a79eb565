"""Command-line front end.

Exit codes are a contract for shell harnesses: 0 success/exists, 1 proven
nonexistent, 2 unknown or inconclusive (including a construction search
that ran out of its node budget), 3 out of constructive scope, 64 usage
errors, 70 internal construction failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .core import (
    GridError,
    InternalError,
    LatinSquare,
    OutlineRectangle,
    Partition,
    PreconditionError,
    RealizationError,
    SubsquareCertificate,
    exists,
    reduce as reduce_square,
    verify_realization,
)
from .base import _CompletionBudget, ls_uniform
from .engine import construct_ils, construct_main, construct_one_big
from .lift import lift
from .oracle import DEFAULT_BUDGET, find_realization_bruteforce

EX_OK = 0
EX_NONEXISTENT = 1
EX_UNKNOWN = 2
EX_OUT_OF_SCOPE = 3
EX_USAGE = 64
EX_INTERNAL = 70


MAX_ORDER = 2000


def _parse_int(text: str) -> int:
    """A non-negative integer in ASCII decimal digits; ``int`` alone also
    takes ``3_0``, ``+3``, surrounding space and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


def parse_partition(text: str) -> Partition:
    """Accept "3,3,3,2,1" or "3^3 2 1" (whitespace-insensitive).

    Orders above :data:`MAX_ORDER` are rejected before any list is built,
    so an exponent such as ``1^100000000`` costs nothing.
    """
    parts: list[int] = []
    order = 0
    for token in text.replace(",", " ").split():
        base, caret, exp = token.partition("^")
        part, copies = _parse_int(base), _parse_int(exp) if caret else 1
        if part < 1 or copies < 1:
            raise ValueError(f"{token!r}: parts and exponents must be positive")
        order += part * copies
        if order > MAX_ORDER:
            raise ValueError(f"order above the limit {MAX_ORDER}")
        parts.extend([part] * copies)
    if not parts:
        raise ValueError("empty partition")
    return Partition(parts)


def read_grid(path: str) -> LatinSquare:
    """Read a grid of whitespace- or comma-separated integers, skipping blank
    lines.  A file with more than :data:`MAX_ORDER` rows or columns is
    rejected with ValueError as soon as it shows that, before the rest is
    read or any latin check runs."""
    rows: list[list[int]] = []
    with open(path) as fh:
        for line in fh:
            values = line.replace(",", " ").split()
            if not values:
                continue
            if len(rows) == MAX_ORDER or len(values) > MAX_ORDER:
                raise ValueError(f"grid order above the limit {MAX_ORDER}")
            rows.append([_parse_int(v) for v in values])
    return LatinSquare(rows)


def outline_to_json(outline: OutlineRectangle) -> dict:
    return {"rows": list(outline.row_partition.parts),
            "cols": list(outline.col_partition.parts),
            "syms": list(outline.sym_partition.parts),
            "cells": [[{str(s): cell[s] for s in sorted(cell)} for cell in row]
                      for row in outline.counts]}


def outline_from_json(data) -> OutlineRectangle:
    """The inverse of :func:`outline_to_json`; raises ValueError on input of
    another shape or of an order above :data:`MAX_ORDER` (the outline's
    constructor checks symbols and counts)."""
    if not isinstance(data, dict) or not all(
            isinstance(data.get(key), list)
            for key in ("rows", "cols", "syms", "cells")):
        raise ValueError("outline JSON needs lists rows, cols, syms, cells")
    for key in ("rows", "cols", "syms"):
        if not all(type(p) is int for p in data[key]):
            raise ValueError(f"outline JSON {key} must list integers")
    if sum(data["rows"]) > MAX_ORDER:
        raise ValueError(f"order above the limit {MAX_ORDER}")
    if not all(isinstance(row, list) and
               all(isinstance(cell, dict) for cell in row)
               for row in data["cells"]):
        raise ValueError("outline JSON cells must be rows of "
                         "{symbol: count} objects")
    cells = [[{_parse_int(s): cnt for s, cnt in cell.items()} for cell in row]
             for row in data["cells"]]
    return OutlineRectangle(Partition(data["rows"]), Partition(data["cols"]),
                            Partition(data["syms"]), cells)


def square_json(square: LatinSquare, partition: Partition,
                certificate: SubsquareCertificate,
                trace=None) -> dict:
    blocks = [{"rows": [blk.rows[0], blk.rows[-1]],
               "cols": [blk.cols[0], blk.cols[-1]],
               "symbols": [blk.symbols[0], blk.symbols[-1]]}
              for blk in certificate.blocks]
    out = {"order": square.order,
           "partition": list(partition.parts),
           "square": square.grid,  # json writes the tuples as lists
           "blocks": blocks}
    if trace is not None:
        out["trace"] = json.loads(trace.to_json())
    return out


def _cmd_exists(args) -> int:
    partition = Partition.sorted(parse_partition(args.partition).parts)
    result = exists(partition)
    print(f"{result.verdict} [{result.reason}] {result.detail}")
    return {"yes": EX_OK, "no": EX_NONEXISTENT,
            "unknown": EX_UNKNOWN}[result.verdict]


def _construct_dispatch(partition: Partition):
    parts = partition.parts
    k = partition.k
    verdict = exists(partition)
    if verdict.verdict == "no":
        return None, verdict
    if k >= 3 and parts[0] == parts[2]:
        square, certificate, trace = construct_main(partition)
        return (square, certificate, trace), verdict
    if len(set(parts)) == 1 and k != 2:
        square, certificate = ls_uniform(parts[0], k)
        return (square, certificate, None), verdict
    if parts[0] >= 1 and all(p == 1 for p in parts[1:]) and k >= 4 \
            and parts[0] <= k - 2:
        return construct_one_big(parts[0], k - 1), verdict
    return None, verdict


def _cmd_construct(args) -> int:
    partition = Partition.sorted(parse_partition(args.partition).parts)
    started = time.monotonic()
    built, verdict = _construct_dispatch(partition)
    if built is None:
        if verdict.verdict == "no":
            print(f"no realization exists: {verdict.detail}", file=sys.stderr)
            return EX_NONEXISTENT
        print(f"partition {partition} is outside this tool's constructive "
              "scope", file=sys.stderr)
        return EX_OUT_OF_SCOPE
    square, certificate, trace = built
    try:
        verify_realization(square, partition, normal_form=False,
                           certificate=certificate)
    except RealizationError as exc:
        raise InternalError(
            f"construction produced an invalid square: {exc}") from exc
    if args.verbose:
        steps = len(trace.steps) if trace is not None else 0
        print(f"built and re-verified order {square.order} in "
              f"{time.monotonic() - started:.2f}s ({steps} trace steps)",
              file=sys.stderr)
    if args.format == "csv":
        for row in square.grid:
            print(",".join(str(v) for v in row))
    else:
        payload = square_json(square, partition, certificate,
                              trace if args.trace else None)
        print(json.dumps(payload))
    return EX_OK


def _cmd_verify(args) -> int:
    partition = Partition(parse_partition(args.partition).parts)
    try:
        square = read_grid(args.file)
        verify_realization(square, partition)
    except (GridError, RealizationError, PreconditionError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EX_NONEXISTENT
    print(f"valid realization of {partition}")
    return EX_OK


def _cmd_reduce(args) -> int:
    partitions = [parse_partition(text)
                  for text in (args.rows, args.cols, args.syms)]
    outline = reduce_square(read_grid(args.file), *partitions)
    print(json.dumps(outline_to_json(outline)))
    return EX_OK


def _cmd_lift(args) -> int:
    with open(args.file) as fh:
        outline = outline_from_json(json.load(fh))
    square = lift(outline)
    for row in square.grid:
        print(" ".join(str(v) for v in row))
    return EX_OK


def _cmd_oracle(args) -> int:
    partition = Partition.sorted(parse_partition(args.partition).parts)
    result = find_realization_bruteforce(partition, budget=args.budget)
    if result.status == "found":
        print(f"found ({result.nodes} nodes)")
        for row in result.square.grid:
            print(" ".join(str(v) for v in row))
        return EX_OK
    if result.status == "none":
        print(f"none ({result.nodes} nodes, exhaustive)")
        return EX_NONEXISTENT
    print(f"budget-exceeded ({result.nodes} nodes)")
    return EX_UNKNOWN


def _cmd_ils(args) -> int:
    orders = parse_partition(args.partition)
    if args.n > MAX_ORDER:
        raise ValueError(f"order above the limit {MAX_ORDER}")
    square, certificate = construct_ils(args.n, orders.parts)
    blocks = [{"rows": list(blk.rows), "cols": list(blk.cols),
               "symbols": list(blk.symbols)} for blk in certificate.blocks]
    print(json.dumps({"order": square.order,
                      "orders": sorted(orders.parts, reverse=True),
                      "square": square.grid,  # json writes the tuples as lists
                      "blocks": blocks}))
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pils",
        description="construct and verify latin squares with prescribed "
                    "disjoint subsquares")
    parser.add_argument("--verbose", action="store_true")
    # --verbose is accepted after the command too; there it has no default,
    # so leaving it out keeps what the top level parsed
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("exists", help="decide whether a realization exists")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("construct", help="build and verify a realization")
    p.add_argument("partition")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a grid file against a partition")
    p.add_argument("file")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="amalgamate a grid modulo partitions")
    p.add_argument("file")
    p.add_argument("rows")
    p.add_argument("cols")
    p.add_argument("syms")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lift", help="lift an outline JSON file to a square")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("oracle", help="exhaustive search for small orders")
    p.add_argument("partition")
    p.add_argument("--budget", type=_parse_int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ils", help="incomplete latin square of side n")
    p.add_argument("n", type=_parse_int)
    p.add_argument("partition")
    p.set_defaults(func=_cmd_ils)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.  May be called repeatedly
    in one process: the parser is built on the first call and reused, and
    every call parses into a fresh namespace."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except _CompletionBudget as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EX_UNKNOWN
    except InternalError as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EX_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pils import cli
from pils.cli import (
    build_parser,
    main,
    outline_from_json,
    outline_to_json,
    parse_partition,
)
from reference import (
    REDUCTION_COLS,
    REDUCTION_ROWS,
    REDUCTION_SYMS,
    REFERENCE_OUTLINE_CELLS,
    REFERENCE_SQUARE,
)


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this one has loaded both already
    code = ("import sys; before = set(sys.modules); import pils, pils.cli; "
            "print(sorted(({'dataclasses', 'inspect'} - before) "
            "& set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("\n".join(" ".join(str(v) for v in row)
                              for row in REFERENCE_SQUARE) + "\n")
    return str(path)


class TestParsing:
    def test_comma_notation(self):
        assert parse_partition("3,3,3,2,1").parts == (3, 3, 3, 2, 1)

    def test_exponent_notation(self):
        assert parse_partition("3^3 2 1").parts == (3, 3, 3, 2, 1)
        assert parse_partition(" 2^2,1^3 ").parts == (2, 2, 1, 1, 1)

    def test_garbage_is_usage_error(self, capsys):
        assert main(["exists", "3,x"]) == 64

    @pytest.mark.parametrize("text", ["3,3,3,2^-1", "3^0 2", "0,1", "-1^3"])
    def test_non_positive_part_or_exponent_is_usage_error(self, text, capsys):
        assert main(["exists", text]) == 64

    @pytest.mark.parametrize("text", ["3_0", "+3", "\u0663", "1^1_0",
                                      "3,3,3,2,1\u0661", "1^+2"])
    def test_non_ascii_decimal_integer_is_usage_error(self, text, capsys):
        assert main(["construct", text]) == 64
        assert "not a decimal integer" in capsys.readouterr().err

    def test_order_cap(self, capsys):
        assert main(["exists", "1^2000"]) == 0
        assert main(["exists", "1^2001"]) == 64
        assert main(["exists", "1000,1000,1"]) == 64

    def test_exponent_bomb_is_rejected_before_expansion(self):
        with pytest.raises(ValueError, match="limit"):
            parse_partition("1^100000000")


class TestExists:
    def test_exit_codes(self, capsys):
        assert main(["exists", "1,1"]) == 1
        assert "no" in capsys.readouterr().out
        assert main(["exists", "2^3"]) == 0
        assert "yes" in capsys.readouterr().out
        assert main(["exists", "5,3,2,2,1"]) == 2
        assert "unknown" in capsys.readouterr().out


class TestConstruct:
    def test_json_output_and_dogfood(self, capsys, tmp_path):
        assert main(["construct", "3,3,3,2,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 12
        assert len(payload["blocks"]) == 5
        path = tmp_path / "emitted.txt"
        path.write_text("\n".join(" ".join(str(v) for v in row)
                                  for row in payload["square"]))
        assert main(["verify", str(path), "3,3,3,2,1"]) == 0

    def test_nonexistent(self, capsys):
        assert main(["construct", "2,2"]) == 1

    def test_uniform(self, capsys):
        assert main(["construct", "4^3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 12

    def test_out_of_scope(self, capsys):
        # exists (k=4 characterization) but no constructor covers it
        assert main(["construct", "4,2,2,2"]) == 3

    def test_unknown_is_out_of_scope(self, capsys):
        assert main(["construct", "5,3,2,2,1"]) == 3

    def test_exhausted_completion_budget_is_inconclusive(self, capsys,
                                                         monkeypatch):
        # (2^3, 1^8): the pipeline rejects its rebuild and the add-on bound
        # fails, so the two-size fallback runs the outline completion; one
        # node cannot complete it
        from pils import base

        monkeypatch.setattr(base, "_COMPLETION_NODES", 1)
        assert main(["construct", "2,2,2,1^8"]) == 2
        err = capsys.readouterr().err
        assert "budget of 1 nodes" in err and "internal" not in err

    def test_csv_round_trip(self, capsys, tmp_path):
        assert main(["construct", "2^3", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "grid.csv"
        path.write_text(text)
        assert main(["verify", str(path), "2^3"]) == 0

    def test_trace_included(self, capsys):
        assert main(["construct", "3,3,3,2,1", "--trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["steps"]

    def test_one_big_route(self, capsys, monkeypatch):
        # every (s, 1^m) goes to ls_one_big's closed form, never through
        # construct_main
        from pils import engine

        calls = []

        def counting(name):
            func = getattr(engine, name)

            def wrapper(*args):
                calls.append(name)
                return func(*args)
            return wrapper

        for name in ("construct_main", "ls_one_big"):
            monkeypatch.setattr(engine, name, counting(name))
        pairs = [(s, m) for m in range(3, 19) for s in range(2, m)]
        pairs += [(7, 34), (21, 30), (5, 38), (2, 46)]
        for s, m in pairs:
            calls.clear()
            assert main(["construct", f"{s},1^{m}"]) == 0, (s, m)
            assert calls == ["ls_one_big"], (s, m)


class TestVerbose:
    @pytest.mark.parametrize("argv", [
        ["--verbose", "construct", "3^3"],
        ["construct", "--verbose", "3^3"],
        ["construct", "3^3", "--verbose"],
    ], ids=["before-command", "after-command", "after-partition"])
    def test_either_position_turns_verbose_on(self, argv, capsys):
        assert build_parser().parse_args(argv).verbose is True
        assert main(argv + ["--format", "csv"]) == 0
        assert "built and re-verified" in capsys.readouterr().err

    def test_off_by_default(self, capsys):
        assert build_parser().parse_args(["construct", "3^3"]).verbose is False
        assert main(["construct", "3^3", "--format", "csv"]) == 0
        assert capsys.readouterr().err == ""


class TestParserReuse:
    """main() builds its parser once per process; no call may see another
    call's flags."""

    def test_built_once(self, monkeypatch, capsys):
        calls = []

        def counting_build_parser():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        assert main(["exists", "2^3"]) == 0
        assert main(["construct", "2^3", "--format", "csv"]) == 0
        assert main(["exists", "3,x"]) == 64
        assert calls == [1]

    def test_trace_does_not_leak(self, capsys):
        assert main(["construct", "3,3,3,2,1", "--trace"]) == 0
        assert "trace" in json.loads(capsys.readouterr().out)
        assert main(["construct", "3,3,3,2,1"]) == 0
        assert "trace" not in json.loads(capsys.readouterr().out)

    def test_format_does_not_leak(self, capsys):
        assert main(["construct", "2^3", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[0].count(",") == 5
        assert main(["construct", "2^3"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 6

    def test_verbose_does_not_leak(self, capsys):
        assert main(["--verbose", "construct", "2^3"]) == 0
        assert "built and re-verified" in capsys.readouterr().err
        assert main(["construct", "2^3"]) == 0
        assert capsys.readouterr().err == ""

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["construct"]) == 64
        assert main(["construct", "2^3", "--format", "bogus"]) == 64
        capsys.readouterr()
        assert main(["construct", "2^3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["order"] == 6
        assert captured.err == ""


class TestVerify:
    def test_reference_square(self, grid_file, capsys):
        assert main(["verify", grid_file, "3,2,2,1,1"]) == 0

    def test_wrong_partition(self, grid_file, capsys):
        assert main(["verify", grid_file, "3,3,1,1,1"]) == 1

    def test_non_latin_grid(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 2\n")
        assert main(["verify", str(path), "1,1"]) == 1

    @pytest.mark.parametrize("text", ["1\n" * 2001, " ".join(["1"] * 2001)],
                             ids=["2001-rows", "2001-columns"])
    def test_grid_above_order_cap_is_usage_error(self, text, tmp_path,
                                                 capsys):
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main(["verify", str(path), "2000"]) == 64
        assert "limit 2000" in capsys.readouterr().err


    @pytest.mark.parametrize("cell", ["1_0", "+1", "\u0661"])
    def test_grid_cell_must_be_a_decimal_integer(self, cell, tmp_path,
                                                 capsys):
        path = tmp_path / "grid.txt"
        path.write_text(f"{cell} 2\n2 1\n")
        assert main(["verify", str(path), "1,1"]) == 64
        assert "not a decimal integer" in capsys.readouterr().err


class TestReduceLift:
    def test_reduce_matches_reference(self, grid_file, capsys):
        assert main(["reduce", grid_file, "1,1,1,2,2,1,1", "3,2,2,1,1",
                     "3,1,1,1,1,1,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        outline = outline_from_json(payload)
        assert [list(r) for r in outline.cells] == [
            list(r) for r in REFERENCE_OUTLINE_CELLS]

    def test_lift_round_trip(self, grid_file, capsys, tmp_path):
        assert main(["reduce", grid_file, "1,1,1,2,2,1,1", "3,2,2,1,1",
                     "3,1,1,1,1,1,1"]) == 0
        outline_json = capsys.readouterr().out
        path = tmp_path / "outline.json"
        path.write_text(outline_json)
        assert main(["lift", str(path)]) == 0
        grid_text = capsys.readouterr().out
        lifted = tmp_path / "lifted.txt"
        lifted.write_text(grid_text)
        assert main(["reduce", str(lifted), "1,1,1,2,2,1,1", "3,2,2,1,1",
                     "3,1,1,1,1,1,1"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(outline_json)

    @pytest.mark.parametrize("text", ["1\n" * 2001, " ".join(["1"] * 2001)],
                             ids=["2001-rows", "2001-columns"])
    def test_reduce_grid_above_order_cap_is_usage_error(self, text, tmp_path,
                                                        capsys):
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert main(["reduce", str(path), "2000", "2000", "2000"]) == 64
        assert "limit 2000" in capsys.readouterr().err

    def test_reduce_parses_partitions_before_reading(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.txt")
        assert main(["reduce", missing, "3,2,2,1,1", "0,1", "9"]) == 64
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"rows": [2], "cols": [2], "syms": [2], "cells": [[{"1": "4"}]]},
        {"rows": [2], "cols": [2], "syms": [2], "cells": [[[1, 1, 1, 1]]]},
        {"rows": [2], "cols": [2], "syms": [2]},
        {"rows": [2], "cols": [2], "syms": [2],
         "cells": [[{"1": 4, "2": -1}]]},
        {"rows": [2001], "cols": [2001], "syms": [2001],
         "cells": [[{"1": 2001 * 2001}]]},
        {"rows": [2], "cols": [2], "syms": [2], "cells": [[{"+1": 4}]]},
        {"rows": [2], "cols": [2], "syms": [2], "cells": [[{"\u0661": 4}]]},
    ], ids=["string-count", "list-cell", "no-cells", "negative-count",
            "order-2001", "signed-symbol", "non-ascii-symbol"])
    def test_malformed_outline_json_is_usage_error(self, data, tmp_path,
                                                   capsys):
        path = tmp_path / "outline.json"
        path.write_text(json.dumps(data))
        assert main(["lift", str(path)]) == 64
        assert "error:" in capsys.readouterr().err

    def test_outline_json_round_trip(self, grid_file, capsys):
        from pils import LatinSquare, Partition, reduce as reduce_square

        outline = reduce_square(LatinSquare(REFERENCE_SQUARE),
                                Partition(REDUCTION_ROWS),
                                Partition(REDUCTION_COLS),
                                Partition(REDUCTION_SYMS))
        data = json.loads(json.dumps(outline_to_json(outline)))
        assert outline_from_json(data).cells == outline.cells


class TestOracleCommand:
    def test_found(self, capsys):
        assert main(["oracle", "1,1,1"]) == 0
        assert "found" in capsys.readouterr().out

    def test_none(self, capsys):
        assert main(["oracle", "2,1,1"]) == 1
        assert "exhaustive" in capsys.readouterr().out

    def test_budget(self, capsys):
        assert main(["oracle", "3,3,3", "--budget", "2"]) == 2

    def test_none_within_a_small_budget(self, capsys):
        assert main(["oracle", "3,3,2,1", "--budget", "20000"]) == 1
        assert re.fullmatch(r"none \(\d+ nodes, exhaustive\)\n",
                            capsys.readouterr().out)

    @pytest.mark.parametrize("partition", ["1^1000", "1^2000"])
    def test_beyond_the_search_depth_is_usage_error(self, partition, capsys):
        assert main(["oracle", partition]) == 64
        assert "recursion depth" in capsys.readouterr().err

    @pytest.mark.parametrize("partition, budget", [("3,3,3", "-1"),
                                                   ("2,2,1,1", "0")])
    def test_budget_below_one_is_usage_error(self, partition, budget, capsys):
        assert main(["oracle", partition, "--budget", budget]) == 64
        assert "budget" in capsys.readouterr().err


    def test_budget_must_be_a_decimal_integer(self, capsys):
        assert main(["oracle", "3,3,3", "--budget", "1_0"]) == 64
        assert "budget" in capsys.readouterr().err


class TestIlsCommand:
    def test_basic(self, capsys):
        assert main(["ils", "20", "3,2,1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 20
        assert len(payload["blocks"]) == 3

    def test_below_bound(self, capsys):
        assert main(["ils", "11", "3,2,1"]) == 64

    def test_order_cap(self, capsys):
        assert main(["ils", "2001", "3,2,1"]) == 64

    @pytest.mark.parametrize("n", ["2_0", "+20", "\u0662\u0660"])
    def test_order_must_be_a_decimal_integer(self, n, capsys):
        assert main(["ils", n, "3,2,1"]) == 64

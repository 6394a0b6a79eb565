"""Every name the benchmark harness reads from ``pils`` still resolves.

The harness wraps each public function defined in a ``pils`` module and
reports ``<module>.<function>.<self_s|calls|failed>`` for the per-layer
names listed in BENCHMARK.json; a name whose function is gone or moved
fails only a traced benchmark run.  The harness also reads a few
attributes directly.  This test reads BENCHMARK.json and changes nothing.
"""

import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
FUNCTION_METRIC = re.compile(r"(\w+)\.(\w+)\.(self_s|calls|failed)")


def function_names():
    names = []
    for metric in json.loads(SPEC.read_text())["per_layer"]:
        match = FUNCTION_METRIC.fullmatch(metric["name"])
        if match:
            names.append(match.group(1, 2))
    return sorted(set(names))


def test_the_per_layer_list_names_functions():
    assert len(function_names()) >= 10


@pytest.mark.parametrize("module, function", function_names(),
                         ids=".".join)
def test_per_layer_name_is_a_public_function_of_its_module(module, function):
    mod = importlib.import_module(f"pils.{module}")
    value = getattr(mod, function)
    assert not function.startswith("_")
    # the harness wraps plain functions and lru_cache'd ones
    assert inspect.isfunction(value) or hasattr(value, "cache_info")
    assert value.__module__ == mod.__name__


@pytest.mark.parametrize("alias, target", [
    ("engine.reduce_square", "core.reduce"),
    ("lift.core_reduce", "core.reduce"),
    ("cli.reduce_square", "core.reduce"),
    ("cli.construct_main", "engine.construct_main"),
    ("base.lift_to_realization", "lift.lift_to_realization"),
])
def test_alias_is_the_function_it_names(alias, target):
    def resolve(name):
        module, attr = name.split(".")
        return getattr(importlib.import_module(f"pils.{module}"), attr)

    assert resolve(alias) is resolve(target)


def test_attributes_read_directly():
    from pils import LatinSquare, OutlineRectangle, Partition, base, reduce

    assert isinstance(base.completion_invocations, list)
    ones = Partition([1, 1])
    outline = reduce(LatinSquare([[1, 2], [2, 1]]), ones, ones, ones)
    assert isinstance(OutlineRectangle.cells, property)
    assert outline.cells == (((1,), (2,)), ((2,), (1,)))

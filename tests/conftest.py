import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# allow running the suite from a fresh checkout without installing
sys.path.insert(0, str(TESTS.parent / "src"))
sys.path.insert(0, str(TESTS))


def pytest_runtest_teardown(item, nextitem):
    # tests here leave base.ls_one_big's cache warm; a test that runs after
    # them elsewhere may count the work a cold call does, so it starts cold.
    # Clearing it after every test instead slows this suite by a third.
    if nextitem is None or TESTS not in Path(nextitem.path).parents:
        from pils import base
        base.ls_one_big.cache_clear()

"""The no-regression rule of tools/bench_pairs.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def verdict(bench_pairs, parent, change, better="lower", bound=0.25):
    runs = [{side: {"metrics": {"m": {"value": v}}} for side, v in
             (("parent", p), ("change", c))} for p, c in zip(parent, change)]
    metric = {"name": "m", "unit": "s", "better": better, "bound": bound}
    return bench_pairs.summarize(runs, [metric])["m"]["no_regression"]


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
# quartiles 0.625 and 1.375 around a median of 1: an IQR of 0.75 against
# a bound of 0.25
WIDE = [0.5, 0.6, 0.6, 0.7, 1.0, 1.0, 1.3, 1.4, 1.4, 1.5]


@pytest.mark.parametrize("better, parent, change, want", [
    # within the bound: 20% slower against a bound of 25%
    ("lower", STEADY, [1.2 * x for x in STEADY], True),
    # past it: 30% slower
    ("lower", STEADY, [1.3 * x for x in STEADY], False),
    # higher is better: 20% and 30% fewer
    ("higher", STEADY, [0.8 * x for x in STEADY], True),
    ("higher", STEADY, [0.7 * x for x in STEADY], False),
    # the parent spreads wider than the bound: even an equal change is
    # unresolved ...
    ("lower", WIDE, WIDE, "unresolved"),
    ("higher", WIDE, [1.1 * x for x in WIDE], "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", WIDE, [0.4] * 10, True),
    ("higher", WIDE, [1.6] * 10, True),
])
def test_no_regression_outcomes(bench_pairs, better, parent, change, want):
    assert verdict(bench_pairs, parent, change, better) is want

"""The no-regression rule of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import sys
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


def test_in_process_summary(bench_pairs):
    # ten paired solves: the change 10% faster on eight, slower on one and
    # tied on one, which counts for neither side; one pair printed another
    # document
    pairs = ([(0.010, 0.009, True)] * 8
             + [(0.010, 0.012, True), (0.020, 0.020, False)])
    summary = bench_pairs.summarize_in_process(pairs)
    assert summary["pairs"] == 10 and summary["change_wins"] == 8
    assert summary["ratio"]["median"] == pytest.approx(0.9)
    assert summary["ratio"]["q1"] == pytest.approx(0.9)
    assert summary["ratio"]["q3"] == pytest.approx(0.9)
    assert summary["parent_median_s"] == pytest.approx(0.010)
    assert summary["change_median_s"] == pytest.approx(0.009)
    assert summary["same_document"] == 9


def test_in_process_pairs_load_both_trees(bench_pairs):
    # the same tree on both sides, under two package names: every matrix
    # of a two-matrix corpus is solved by each, to the same document
    root = TOOL.parent.parent
    try:
        pairs = bench_pairs.in_process({"parent": root, "change": root}, ["qq_split"], [1], 2)
        assert sys.modules["jnf_parent.cli"] is not sys.modules["jnf_change.cli"]
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] in (
                "jnf_parent", "jnf_change", "bench_pairs_corpus")]:
            del sys.modules[name]
    assert [(p > 0, c > 0, same) for p, c, same in pairs["qq_split"]] == [(True, True, True)] * 2


def test_corpus_size_is_what_perfbench_draws(bench_pairs, monkeypatch):
    # read from the script's source, it follows perfbench/run.py when that
    # changes its corpus size
    perfbench = TOOL.parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    loaded = set(sys.modules)
    try:
        run = bench_pairs.load_module(perfbench / "run.py", "bench_pairs_run")
    finally:
        for name in set(sys.modules) - loaded:
            del sys.modules[name]
    assert bench_pairs.corpus_size(perfbench.parent) == run.CORPUS_SIZE

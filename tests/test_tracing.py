"""The traced benchmark's recorder (perfbench/tracing.py) still finds what
it wraps: a rename in jnf would otherwise zero a span silently."""

import sys
from pathlib import Path

import jnf.cli
from jnf.cli import EXIT_OK, JobConfig
from jnf.io import format_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_rational_job(fixture_m6, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    mat = tmp_path / "m6.txt"
    mat.write_text(format_matrix(fixture_m6) + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = jnf.cli.run(JobConfig(input_path=str(mat), form="rational",
                                        output="json"))
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    metrics = tracer.layer_metrics(1)
    assert metrics["jordan_linear.collect_cycles.calls"][0] > 0
    # (x^2 - 2)^2 (x - 2)^2, as the ground-truth factors
    charpoly_ops, q_adic_ops, b_bits = tracing.op_counts(
        fixture_m6, [(("-2", "0", "1"), 2), (("-2", "1"), 2)])
    assert charpoly_ops > 0 and q_adic_ops > 0 and b_bits > 0

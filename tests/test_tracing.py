"""The traced benchmark's recorder (perfbench/tracing.py) still finds what
it wraps: a rename in jnf would otherwise zero a span silently.  One job
per route: Faddeev over QQ, and the hinted Hessenberg route over GF(7)
that the fp_hessenberg workload runs.  The op counts of every workload's
seed-1 warm-up matrix are pinned, as the benchmark computes them."""

import sys
from pathlib import Path

import pytest

import jnf.cli
from conftest import conjugate_random, normal_form, rng_for
from jnf.cli import EXIT_OK, JobConfig
from jnf.fields import PrimeField
from jnf.io import field_from_tag, format_matrix, parse_matrix
from jnf.poly import Poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def traced_metrics(tracing, config):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = jnf.cli.run(config)
    finally:
        tracer.uninstall()
    assert code == EXIT_OK
    return tracer.layer_metrics(1)


def assert_accepts_counted(metrics):
    # every chain a solve takes passes the counted accept callback: a chain
    # routed around it would read as a ratio of 0 in the benchmark
    assert 0 < metrics["jordan_rational.accept_ratio"][0] <= 1


def test_traced_rational_job(tracing, fixture_m6, tmp_path):
    mat = tmp_path / "m6.txt"
    mat.write_text(format_matrix(fixture_m6) + "\n")
    metrics = traced_metrics(tracing, JobConfig(input_path=str(mat), form="rational",
                                                output="json"))
    assert metrics["jordan_linear.collect_cycles.calls"][0] > 0
    assert_accepts_counted(metrics)
    # (x^2 - 2)^2 (x - 2)^2, as the ground-truth factors
    charpoly_ops, q_adic_ops, b_bits = tracing.op_counts(
        fixture_m6, [(("-2", "0", "1"), 2), (("-2", "1"), 2)])
    assert charpoly_ops > 0 and q_adic_ops > 0 and b_bits > 0


def test_traced_prime_field_job(tracing, tmp_path):
    # (x^2 + 1)^3 (x - 3)^2 over GF(7), hinted: Rabin's test, Hessenberg and
    # the comatrix block
    f = PrimeField(7)
    a = conjugate_random(rng_for("traced-gf7"), normal_form(
        f, [(Poly.from_ints(f, [1, 0, 1]), [2, 1]), (Poly.from_ints(f, [4, 1]), [2])]))
    mat, hints = tmp_path / "m.txt", tmp_path / "m.hint"
    mat.write_text(format_matrix(a) + "\n")
    hints.write_text("3 : 1 0 1\n2 : 4 1\n")
    metrics = traced_metrics(tracing, JobConfig(
        input_path=str(mat), field_spec="fp:7", form="rational",
        factors_path=str(hints), output="json"))
    for name in ("charpoly.hessenberg_charpoly", "factor.factor_charpoly",
                 "matrix.matpoly_div_q", "jordan_rational.extract_q_cycles",
                 "jordan_rational.convert_cycle_to_rational",
                 "jordan_linear.collect_cycles", "decomposition.assemble"):
        assert metrics[f"{name}.calls"][0] > 0, name
    assert_accepts_counted(metrics)
    charpoly_ops, q_adic_ops, b_bits = tracing.op_counts(
        a, [(("1", "0", "1"), 3), (("4", "1"), 2)])
    assert charpoly_ops > 0 and q_adic_ops > 0 and b_bits > 0


OP_COUNTS = {"qq_split": (123184, 0, 14),
             "qq_rational": (304460, 256608, 29),
             "fp_hessenberg": (2172495, 787176, 3)}


@pytest.mark.parametrize("name", OP_COUNTS)
def test_op_counts_of_the_warm_up_matrix(tracing, tmp_path, name):
    # charpoly.field_ops, jordan_rational.q_adic_blocks.field_ops and
    # charpoly.b_max_bits, with the factors fed as perfbench/run.py feeds them
    import corpus
    w = corpus.WORKLOADS[name]
    (mat, _, truth), _ = corpus.generate(tmp_path, w, 1, 0)
    mults = {}
    for coeffs, k, count in truth:
        mults[tuple(coeffs)] = mults.get(tuple(coeffs), 0) + k * count
    a = parse_matrix(mat.read_text(), field_from_tag(w.field_spec))
    assert tracing.op_counts(a, list(mults.items())) == OP_COUNTS[name]

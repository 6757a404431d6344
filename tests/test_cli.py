import json
import sys
import time
from pathlib import Path

import pytest

from conftest import conjugate_random, make_fixture_m6, normal_form, rng_for
from jnf import factor, jordan_rational
from jnf.charpoly import hessenberg_charpoly
from jnf.cli import (EXIT_INTERNAL, EXIT_NEEDS_FACTORIZATION, EXIT_OK, EXIT_PARSE,
                     EXIT_UNSUPPORTED_FIELD, JobConfig, main, run)
from jnf.errors import ParseError
from jnf.fields import QQ
from jnf.factor import factor_charpoly, parse_factor_hints
from jnf.io import emit_json, format_matrix, parse_json, parse_matrix
from jnf.jordan_rational import BLOCK_COLUMNS
from jnf.matrix import Matrix, mat_mul, rank
from jnf.poly import Poly


FIXTURE_A = "3 3\n3 -1 1\n2 0 1\n1 -1 2\n"


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text(FIXTURE_A)
    return str(path)


@pytest.fixture
def m6_file(tmp_path):
    path = tmp_path / "m6.txt"
    path.write_text(format_matrix(make_fixture_m6()) + "\n")
    return str(path)


def test_split_pretty(a_file, capsys):
    assert main([a_file, "--form", "split", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "form: split" in out
    assert "verify: A*P == P*J" in out
    assert "k=2" in out and "k=1" in out


def test_rational_json_m6(m6_file, capsys):
    assert main([m6_file, "--output", "json", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    json_text = out[:out.rindex("}") + 1]
    doc = json.loads(json_text)
    assert doc["form"] == "rational"
    assert doc["n"] == 6
    dec = parse_json(json_text)
    a = make_fixture_m6()
    assert mat_mul(a, dec.p) == mat_mul(dec.p, dec.j)
    assert rank(dec.p) == 6


def test_pseudo_form(m6_file, capsys):
    assert main([m6_file, "--form", "pseudo", "--output", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["form"] == "pseudo_rational"
    # single-1 coupling sits above the first companion block
    assert doc["J"][0][3] == "1"
    assert doc["J"][1][2] == "0"


def test_defaults_are_job_configs(a_file, capsys, monkeypatch):
    # the parser adds no default of its own: absent flags leave JobConfig's
    import jnf.cli
    seen = []
    monkeypatch.setattr(jnf.cli, "run", lambda config: seen.append(config) or (EXIT_OK, ""))
    assert main([a_file]) == EXIT_OK
    assert seen == [JobConfig(input_path=a_file)]


def test_orientation_flags(a_file, capsys):
    assert main([a_file, "--form", "split", "--upper", "--output", "json"]) == EXIT_OK
    upper = json.loads(capsys.readouterr().out)["J"]
    assert upper[0][1] == "1" and upper[1][0] == "0"
    assert main([a_file, "--form", "split", "--lower", "--output", "json"]) == EXIT_OK
    lower = json.loads(capsys.readouterr().out)["J"]
    assert lower[1][0] == "1" and lower[0][1] == "0"


def test_deterministic_output(m6_file, capsys):
    main([m6_file, "--output", "json"])
    first = capsys.readouterr().out
    main([m6_file, "--output", "json"])
    assert capsys.readouterr().out == first


def test_split_needs_factorization(m6_file, capsys):
    # the 6x6 has irreducible quadratic factors; split form must refuse
    assert main([m6_file, "--form", "split"]) == EXIT_NEEDS_FACTORIZATION
    err = capsys.readouterr().err
    assert "hint-file syntax" in err


def test_needs_factorization_residual_hint(tmp_path, capsys):
    # companion matrix of x^3 - 2
    path = tmp_path / "c.txt"
    path.write_text("3 3\n0 0 2\n1 0 0\n0 1 0\n")
    assert main([str(path)]) == EXIT_NEEDS_FACTORIZATION
    err = capsys.readouterr().err
    assert "1 : -2 0 0 1" in err


def test_factor_hint_file(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("3 3\n0 0 2\n1 0 0\n0 1 0\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("1 : -2 0 0 1\n")
    assert main([str(path), "--factors", str(hints), "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k=1" in out


def test_bad_hint_rejected(a_file, tmp_path, capsys):
    hints = tmp_path / "hints.txt"
    hints.write_text("3 : -1 1\n")
    assert main([a_file, "--factors", str(hints)]) == EXIT_PARSE


def test_hint_multiplicity_past_the_degree(a_file, tmp_path, capsys, monkeypatch):
    def refuse(factors):
        raise AssertionError("product formed for a hint of the wrong degree")

    monkeypatch.setattr(factor, "int_product", refuse)
    hints = tmp_path / "hints.txt"
    hints.write_text("1000000 : -1 1\n")
    assert main([a_file, "--factors", str(hints)]) == EXIT_PARSE
    assert "do not multiply back" in capsys.readouterr().err


def test_prime_field_cli(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n1 1\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("2 : -1 1\n")
    assert main([str(path), "--field", "fp:5", "--factors", str(hints),
                 "--form", "split", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k=2" in out


def test_finite_field_without_hint(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n1 1\n")
    assert main([str(path), "--field", "fp:5"]) == EXIT_NEEDS_FACTORIZATION


def test_parse_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main([missing]) == EXIT_PARSE
    bad = tmp_path / "bad.txt"
    bad.write_text("2 3\n1 2 3\n4 5 6\n")   # non-square
    assert main([str(bad)]) == EXIT_PARSE
    garbled = tmp_path / "g.txt"
    garbled.write_text("1 1\nx\n")
    assert main([str(garbled)]) == EXIT_PARSE


@pytest.mark.parametrize("which", ["matrix", "hints"])
def test_non_utf8_file_names_the_file(a_file, tmp_path, capsys, which):
    # exited 2 with the bare codec error, naming neither file nor stage
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 1\n\xff\n")
    argv = [str(bad)] if which == "matrix" else [a_file, "--factors", str(bad)]
    assert main(argv) == EXIT_PARSE
    assert f"error: cannot read {bad}: 'utf-8' codec" in capsys.readouterr().err


def test_value_error_is_internal(a_file, capsys, monkeypatch):
    # only the library's own checks raise a bare ValueError; the CLI checks
    # every user input before it, so one reaching main is a fault
    import jnf.cli

    def fail(a):
        raise ValueError("matrix must be square")
    monkeypatch.setattr(jnf.cli, "hessenberg_charpoly", fail)
    assert main([a_file]) == EXIT_INTERNAL
    assert "internal error: matrix must be square" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("form", "bad"), ("output", "xml")])
def test_run_refuses_unknown_config_values(tmp_path, field, value):
    # before the matrix is read: an unknown form exited 3 on a matrix that
    # needed factoring, and an unknown output printed pretty
    config = JobConfig(input_path=str(tmp_path / "missing.txt"), **{field: value})
    with pytest.raises(ParseError, match=f"unknown {field} '{value}'"):
        run(config)
    path = tmp_path / "c.txt"
    path.write_text("3 3\n0 0 2\n1 0 0\n0 1 0\n")     # x^3 - 2, stuck
    config.input_path = str(path)
    with pytest.raises(ParseError, match=f"unknown {field} '{value}'"):
        run(config)


def test_unsupported_field(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    assert main([str(path), "--field", "fp:4"]) == EXIT_UNSUPPORTED_FIELD


def test_max_n_guard(a_file, capsys, monkeypatch):
    monkeypatch.setenv("JNF_MAX_N", "2")
    assert main([a_file]) == EXIT_PARSE
    assert "JNF_MAX_N" in capsys.readouterr().err
    monkeypatch.setenv("JNF_MAX_N", "3")
    assert main([a_file, "--form", "split"]) == EXIT_OK


@pytest.mark.parametrize("value", ["abc", "", "2.5", "0", "-3"])
def test_max_n_must_be_a_positive_integer(a_file, capsys, monkeypatch, value):
    # a bad value exits 2 with a message naming the variable, not a bare
    # "invalid literal for int()"
    monkeypatch.setenv("JNF_MAX_N", value)
    assert main([a_file]) == EXIT_PARSE
    assert f"JNF_MAX_N must be a positive integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("matrix, field, hint, message", [
    # reducible x^2 - 1: exited 5 ("cycle collection exhausted the stack")
    ("2 2\n1 0\n0 -1\n", "q", "1 : -1 0 1\n", "rational root"),
    # reducible x^2 - 1: returned a "rational" form built on it, exit 0
    ("2 2\n0 1\n1 0\n", "q", "1 : -1 0 1\n", "rational root"),
    # x^2 - 1 over F_5: Rabin's test rejects it
    ("2 2\n1 0\n0 4\n", "fp:5", "1 : 4 0 1\n", "not irreducible"),
    # x^2 - 1 over F_5: returned a "rational" form built on it, exit 0
    ("2 2\n0 1\n1 0\n", "fp:5", "1 : 4 0 1\n", "not irreducible"),
    ("2 2\n1 0\n0 1\n", "q", "1 : 1 -2 1\n", "not squarefree"),
    ("2 2\n1 0\n0 1\n", "q", "1 : -1 1\n1 : -1 1\n", "not coprime"),
    # over F_p, factors that pass Rabin's test must be distinct
    ("2 2\n1 0\n0 1\n", "fp:5", "1 : 4 1\n1 : 4 1\n", "not coprime"),
    # the constant 1 passed every check, and the cycle stage exited 2 with
    # "not enough values to unpack"
    ("2 2\n1 0\n0 1\n", "q", "2 : -1 1\n1 : 1\n", "'1 : 1' has degree 0"),
    ("2 2\n1 0\n0 1\n", "fp:7", "2 : 6 1\n1 : 1\n", "'1 : 1' has degree 0"),
    # a non-monic factor was named as Poly(['2', '0', '2'])
    ("2 2\n1 0\n0 1\n", "q", "1 : 2 0 2\n", "'1 : 2 0 2' is not monic"),
])
def test_misleading_hint_rejected(tmp_path, capsys, matrix, field, hint, message):
    path = tmp_path / "m.txt"
    path.write_text(matrix)
    hints = tmp_path / "hints.txt"
    hints.write_text(hint)
    assert main([str(path), "--field", field, "--factors", str(hints)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert message in err
    assert "hinted factor '1 : " in err


def test_constant_hint_rejected_on_split_form(tmp_path, capsys):
    # exited 3, printing the residual "1 : 1" as if P needed factoring
    path = tmp_path / "m.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("2 : -1 1\n1 : 1\n")
    assert main([str(path), "--form", "split", "--factors", str(hints)]) == EXIT_PARSE
    assert "hinted factor '1 : 1' has degree 0" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["rational", "pseudo"])
@pytest.mark.parametrize("pieces, code", [
    # the reducible hint's two halves carry different cycles: collection
    # fails, and the hint is blamed
    ([([-2, 0, 1], [3, 1]), ([-3, 0, 1], [2, 2])], EXIT_PARSE),
    # cycles of the quartic's own companion blocks are collected as if it
    # were irreducible, and the certificate holds
    ([([6, 0, -5, 0, 1], [2, 1])], EXIT_OK),
])
def test_reducible_hint_past_the_root_test(tmp_path, capsys, pieces, code, form):
    # x^4 - 5x^2 + 6 = (x^2 - 2)(x^2 - 3) has no rational root, so the hint
    # checks take it as asserted irreducible
    a = conjugate_random(rng_for(f"reducible-hint-{code}"), normal_form(
        QQ, [(Poly.from_ints(QQ, q), ls) for q, ls in pieces]))
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(a) + "\n")
    hints = tmp_path / "hints.txt"
    hints.write_text(f"{a.rows // 4} : 6 0 -5 0 1\n")
    assert main([str(path), "--form", form, "--factors", str(hints)]) == code
    if code == EXIT_PARSE:
        assert (f"hinted factor '{a.rows // 4} : 6 0 -5 0 1' is not irreducible"
                in capsys.readouterr().err)


def test_reducible_hint_blamed_only_at_full_width(tmp_path, capsys, monkeypatch):
    # over QQ as over F_p, a factor that runs short on a probe block of
    # s < n columns is retried on a wider one; only at s = n, V = I, does
    # the shortfall blame the hint
    a = conjugate_random(rng_for("reducible-hint-2"), normal_form(
        QQ, [(Poly.from_ints(QQ, [-2, 0, 1]), [3, 1]),
             (Poly.from_ints(QQ, [-3, 0, 1]), [2, 2])]))
    widths = []

    def block(a, p, s, orig=jordan_rational.comatrix_block):
        widths.append(s)
        return orig(a, p, s)
    monkeypatch.setattr(jordan_rational, "comatrix_block", block)
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(a) + "\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("4 : 6 0 -5 0 1\n")
    assert main([str(path), "--factors", str(hints)]) == EXIT_PARSE
    assert "hinted factor '4 : 6 0 -5 0 1' is not irreducible" in capsys.readouterr().err
    assert widths == [BLOCK_COLUMNS, 2 * BLOCK_COLUMNS, a.rows] and a.rows == 16


def stuck_octic(path):
    """Write the companions of x^2 + c*2^4086 for c = 15, 77, 221, 437 to
    ``path`` and return the integer coefficients of their product: entries
    within MAX_ENTRY_BITS, no rational root, so the product is stuck whole
    at degree 8, and its coefficients have more digits than CPython
    converts to a string by default."""
    n = 8
    rows = [[0] * n for _ in range(n)]
    expect = [1]
    for k, c in enumerate([15, 77, 221, 437]):
        rows[2 * k][2 * k + 1], rows[2 * k + 1][2 * k] = -c << 4086, 1
        expect = [x + y for x, y in
                  zip([0, 0] + expect, [(c << 4086) * x for x in expect] + [0, 0])]
    path.write_text(f"{n} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    return expect


def test_big_residual_prints(tmp_path, capsys):
    # the residual of the stuck octic made this exit 1 with a traceback
    path = tmp_path / "m.txt"
    expect = stuck_octic(path)
    assert main([str(path)]) == EXIT_NEEDS_FACTORIZATION
    err = capsys.readouterr().err
    assert "stuck on degree-8 factor" in err
    line = err.split("unfactored part (hint-file syntax):\n")[1].splitlines()[0]
    mult, coeffs = line.split(" : ")
    assert mult == "1" and max(map(len, coeffs.split())) > 4300
    assert list(map(QQ.parse, coeffs.split())) == expect
    # and the line reads back as a hint, to the same polynomial, which the
    # hint checks take (their factor order compares every digit)
    p = hessenberg_charpoly(parse_matrix(path.read_text(), QQ))
    hint = parse_factor_hints(line, p)
    assert hint == [(Poly.from_ints(QQ, expect), 1)]
    assert factor_charpoly(p, hint=hint).factors == hint


def test_dense_random_matrix_stuck_quickly(tmp_path, capsys):
    # a dense 24 x 24 matrix with 4-bit entries and no rational eigenvalue:
    # exit 3 on its irreducible charpoly, which Hessenberg on Fractions
    # took 11.7 s to reach
    rng = rng_for("dense-24-cli")
    n = 24
    path = tmp_path / "m.txt"
    path.write_text(f"{n} {n}\n" + "".join(
        " ".join(str(rng.randint(-8, 7)) for _ in range(n)) + "\n" for _ in range(n)))
    start = time.perf_counter()
    assert main([str(path)]) == EXIT_NEEDS_FACTORIZATION
    assert time.perf_counter() - start < 2.0
    assert "stuck on degree-" in capsys.readouterr().err


def test_many_rational_eigenvalues_split(tmp_path, capsys):
    # upper triangular, diagonal k/7 for k = 1..40, small integers above:
    # 40 distinct rational eigenvalues, which the divisor enumeration gave
    # up on (about 1.2e9 candidates)
    rng = rng_for("forty-sevenths")
    n = 40
    rows = [["0"] * i + [f"{i + 1}/7"] + [str(rng.randint(-3, 3)) for _ in range(n - i - 1)]
            for i in range(n)]
    path = tmp_path / "m.txt"
    path.write_text(f"{n} {n}\n" + "".join(" ".join(r) + "\n" for r in rows))
    assert main([str(path), "--form", "split", "--output", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [b["cycle_length"] for b in doc["blocks"]] == [1] * n
    assert sorted(QQ.parse(doc["J"][i][i]) for i in range(n)) == [
        QQ.fraction(k, 7) for k in range(1, n + 1)]


def test_hinted_quadratic_with_a_rational_root_refused(tmp_path, capsys):
    # diag(a, -a), a = 30030^3 / (17 19 23)^5, hinted as the one factor
    # x^2 - a^2: its 2 * 7^6 * 11^3 divisors u/v were too many to search,
    # so the hint was trusted until cycle collection ran short at s = n
    a = QQ.fraction(30030 ** 3, (17 * 19 * 23) ** 5)
    text = QQ.fmt(a)
    square = QQ.fmt(QQ.neg(QQ.mul(a, a)))
    path = tmp_path / "m.txt"
    path.write_text(f"2 2\n{text} 0\n0 -{text}\n")
    hints = tmp_path / "hints.txt"
    hints.write_text(f"1 : {square} 0 1\n")
    assert main([str(path), "--factors", str(hints)]) == EXIT_PARSE
    err = capsys.readouterr().err
    root = err.split("it has the rational root ")[1].split()[0]
    assert root in (text, f"-{text}")


def test_oversized_hint_coefficient_rejected(tmp_path, capsys):
    # 10^30000000 took 48 s of CPU to form, then exited 2 with CPython's
    # digit-limit message; the hint bound refuses it from the token
    path = tmp_path / "m.txt"
    path.write_text("1 1\n1\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("# x - 1\n1 : 1e30000000 1\n")
    start = time.perf_counter()
    assert main([str(path), "--factors", str(hints)]) == EXIT_PARSE
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "hint line 2, coefficient 1 exceeds" in err
    assert "Exceeds the limit" not in err


def test_oversized_entry_rejected_at_parse(tmp_path, capsys):
    # 10^200000 is a 664k-bit entry; the root search used to try to factor it
    path = tmp_path / "m.txt"
    path.write_text("1 1\n1e200000\n")
    assert main([str(path)]) == EXIT_PARSE
    assert "row 1, column 1" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["json", "pretty"])
def test_big_entries_print(tmp_path, capsys, output):
    # 4096-bit entries above a diagonal of 0, 1, 2: the transform's entries
    # have more decimal digits than CPython converts to a string by default,
    # which made this solved input exit 2 with CPython's message
    rng = rng_for("cli-big-entries")
    n = 5
    rows = [[i % 3 if i == j else rng.getrandbits(4096) if j > i else 0
             for j in range(n)] for i in range(n)]
    path = tmp_path / "m.txt"
    path.write_text(f"{n} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    assert main([str(path), "--form", "split", "--output", output]) == EXIT_OK
    out = capsys.readouterr().out
    longest = max(map(len, out.replace('"', " ").split()))
    assert longest > 4300
    if output == "json":
        # read back past the digit limit too: P and J round-trip, and they
        # are a certified transform of the input
        dec = parse_json(out)
        assert emit_json(dec) + "\n" == out
        a = Matrix(QQ, [[QQ.from_int(x) for x in row] for row in rows])
        assert mat_mul(a, dec.p) == mat_mul(dec.p, dec.j)
        assert rank(dec.p) == n
        assert sorted(b.cycle_length for b in dec.blocks) == [1, 2, 2]



def test_run_lifts_a_once(tmp_path, capsys, monkeypatch):
    # A's integer model is lifted once per solve and kept on the matrix:
    # the bounded images of P, every matrix Horner, the powers of e*A for
    # the quadratic factor and the certificate all read it
    import jnf.cli
    a = conjugate_random(rng_for("lift-once"), normal_form(
        QQ, [(Poly.from_ints(QQ, [-2, 0, 1]), [3, 1]),
             (Poly.x_minus(QQ, QQ.fraction(1, 2)), [2, 1])]))
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(a) + "\n")
    hints = tmp_path / "hints.txt"
    hints.write_text("4 : -2 0 1\n3 : -1/2 1\n")
    parsed, lifted = [], []
    monkeypatch.setattr(jnf.cli, "parse_matrix",
                        lambda *args: parsed.append(parse_matrix(*args)) or parsed[-1])
    lift = type(QQ).lift
    monkeypatch.setattr(type(QQ), "lift", lambda self, rows: lifted.append(rows) or lift(self, rows))
    assert main([str(path), "--factors", str(hints), "--verify"]) == EXIT_OK
    assert "verify: A*P == P*J" in capsys.readouterr().out
    assert sum(rows is parsed[0].data for rows in lifted) == 1


def test_every_value_crosses_the_text_boundary(tmp_path, capsys, default_digit_limit):
    # at CPython's default digit limit every value prints and reads back in
    # full, in both output modes and in every message, and the limit is as
    # it was after each run: only fields lifts it, for one conversion
    limit = default_digit_limit

    def jnf(*argv):
        code = main([str(arg) for arg in argv])
        assert sys.get_int_max_str_digits() == limit
        return code, capsys.readouterr()

    assert [path.name for path in sorted(Path(factor.__file__).parent.glob("*.py"))
            if "set_int_max_str_digits" in path.read_text()] == ["fields.py"]

    # 4000-bit numerators over distinct odd 4090-bit denominators: the
    # factor's coefficients are past the limit, and the pretty output
    # exited 2 with CPython's message where json exited 0
    rng = rng_for("digit-limit-2x2")
    dens = [rng.getrandbits(4088) << 1 | 1 << 4089 | 1 for _ in range(4)]
    assert len(set(dens)) == 4
    path = tmp_path / "m.txt"
    path.write_text("2 2\n" + "".join(
        f"{rng.getrandbits(4000)}/{dens[2 * i]} {rng.getrandbits(4000)}/{dens[2 * i + 1]}\n"
        for i in range(2)))
    code, pretty = jnf(path)
    assert code == EXIT_OK
    code, out = jnf(path, "--output", "json")
    assert code == EXIT_OK
    doc = json.loads(out.out)
    coeffs = doc["blocks"][0]["factor"]
    assert max(map(len, coeffs)) > limit
    line = next(ln for ln in pretty.out.splitlines() if ln.startswith("  ["))
    assert line.split("]")[0].lstrip(" [").split() == coeffs
    dec = parse_json(out.out)
    assert emit_json(dec) + "\n" == out.out
    back = parse_json(emit_json(dec))
    assert (back.p, back.j) == (dec.p, dec.j)
    assert sys.get_int_max_str_digits() == limit

    # the residual at exit 3 reads back as a hint, to the same polynomial
    expect = stuck_octic(path)
    code, stuck = jnf(path)
    assert code == EXIT_NEEDS_FACTORIZATION
    residual = stuck.err.split("(hint-file syntax):\n")[1].splitlines()[0]
    p = hessenberg_charpoly(parse_matrix(path.read_text(), QQ))
    assert parse_factor_hints(residual, p) == [(Poly.from_ints(QQ, expect), 1)]
    assert sys.get_int_max_str_digits() == limit

    # error messages: a non-monic hint past the limit exited 2 with
    # CPython's message instead of naming the factor
    path.write_text("4 4\n" + "".join(
        " ".join(str(rng.getrandbits(4090)) for _ in range(4)) + "\n" for _ in range(4)))
    hints = tmp_path / "hints.txt"
    hints.write_text(f"1 : {'7' * 4500} 2\n")
    code, refused = jnf(path, "--factors", hints)
    assert code == EXIT_PARSE
    assert f"error: hinted factor '1 : {'7' * 4500} 2' is not monic" in refused.err
    path.write_text(f"1 1\n1{'0' * 5000}\n")
    code, refused = jnf(path)
    assert code == EXIT_PARSE
    assert "row 1, column 1 exceeds" in refused.err


def test_small_values_never_lift_the_digit_limit(a_file, capsys, monkeypatch):
    # the limit is lifted only on the fallback path, past it
    lifts = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", lifts.append)
    assert main([a_file, "--output", "json"]) == EXIT_OK
    assert main([a_file, "--form", "split", "--verify"]) == EXIT_OK
    assert lifts == []


def _exit(capsys, *argv):
    """(exit code, stderr, seconds) of one jnf run."""
    start = time.perf_counter()
    code = main([str(arg) for arg in argv])
    return code, capsys.readouterr().err, time.perf_counter() - start


@pytest.mark.parametrize("field, other", [("q", "1e2"), ("fp:7", "x")])
def test_an_entry_is_read_on_its_own(tmp_path, capsys, digit_limit, field, other):
    # a 3001-digit entry next to 1 was read, and next to 1e2 (over QQ) or
    # x (over GF(7)) refused: the same entry, refused either way
    path = tmp_path / "m.txt"
    answers = []
    for neighbour in ("1", other):
        path.write_text(f"2 2\n{'0' * 3000}1 {neighbour}\n0 1\n")
        code, err, _ = _exit(capsys, path, "--field", field)
        answers.append((code, "row 1, column 1 exceeds 4096 bits" in err))
    assert answers == [(EXIT_PARSE, True)] * 2


@pytest.mark.parametrize("b", [1, 1287836182261])
def test_modulus_past_the_proved_range(tmp_path, capsys, digit_limit, b):
    # psi_13 = 1287836182261 * 2575672364521 passes is_prime: over it the
    # first matrix exited 0 and the second, whose b is a factor, exited 5
    psi13 = 3317044064679887385961981
    path, hints = tmp_path / "m.txt", tmp_path / "hints.txt"
    path.write_text(f"2 2\n1 {b}\n0 1\n")
    hints.write_text(f"2 : {psi13 - 1} 1\n")
    for p in (psi13, 2**127 - 1):
        code, err, _ = _exit(capsys, path, "--field", f"fp:{p}", "--factors", hints)
        assert code == EXIT_UNSUPPORTED_FIELD
        assert f"p must be below {psi13}" in err


def test_long_counts_and_moduli_refused_quickly(a_file, tmp_path, capsys, digit_limit):
    # each judged by its length before int() runs: with the limit lifted a
    # 1 MB header took 22 s, and a 2917-digit prime spent 27 s in is_prime
    for digits in (4000, 5000):
        code, err, seconds = _exit(capsys, a_file, "--field", "fp:" + "7" * digits)
        assert (code, seconds < 0.1) == (EXIT_PARSE, True)
        assert "field modulus: not an integer" in err
    path, hints = tmp_path / "m.txt", tmp_path / "hints.txt"
    path.write_text("1" * 10**6 + " 1\n1\n")
    hints.write_text("1" * 10**6 + " : -1 1\n")
    for argv in ([path], [a_file, "--factors", hints]):
        code, err, seconds = _exit(capsys, *argv)
        assert (code, seconds < 0.5) == (EXIT_PARSE, True)
        assert "not an integer of at most 20 characters" in err


def test_refused_text_is_quoted_short(tmp_path, capsys):
    # each message echoed the whole megabyte: name the place, quote a prefix
    path = tmp_path / "m.txt"
    for text, argv, place in (
            ("1 1\n" + "x" * 10**6 + "\n", [], "row 1, column 1: bad rational 'xxx"),
            ("1 2\n" + "1" * 10**6 + "\n", [], "expected 2 entries in row 1: '111"),
            ("1 1\n1\n", ["--field", "fp:" + "1" * 10**6], "field modulus: not an integer")):
        path.write_text(text)
        code, err, _ = _exit(capsys, path, *argv)
        assert code == EXIT_PARSE
        assert place in err and len(err) < 200, err[:300]

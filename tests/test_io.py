import json
import sys
import time

import pytest

from conftest import (conjugate_random, make_fixture_m6, never_lowered,
                      normal_form, rand_matrix, rng_for)
from dataclasses import replace

from jnf.charpoly import char_data
from jnf.errors import ParseError, UnsupportedFieldError
from jnf.factor import factor_charpoly
from jnf.fields import QQ, PrimeField
from jnf.io import (MAX_ENTRY_BITS, emit_json, field_from_tag, field_tag,
                    format_matrix, parse_json, parse_matrix)
from jnf.jordan_rational import decompose
from jnf.matrix import Matrix
from jnf.poly import Poly


def test_parse_matrix_basic():
    m = parse_matrix("2 3\n1 2 3\n4 -5/2 6\n", QQ)
    assert m.rows == 2 and m.cols == 3
    assert m.data[1][1] == QQ.fraction(-5, 2)


def test_parse_matrix_prime_field():
    m = parse_matrix("2 2\n8 1\n3 1/2\n", PrimeField(5))
    assert m.data[0][0] == 3
    assert m.data[1][1] == 3  # 1/2 = 3 mod 5


def test_parse_matrix_errors():
    with pytest.raises(ParseError):
        parse_matrix("", QQ)
    with pytest.raises(ParseError):
        parse_matrix("not a header\n1 1\n", QQ)
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 2\n", QQ)           # missing row
    with pytest.raises(ParseError):
        parse_matrix("1 2\n1\n", QQ)             # short row
    with pytest.raises(ParseError):
        parse_matrix("0 0\n", QQ)


@pytest.mark.parametrize("token", [
    str(2**MAX_ENTRY_BITS),                  # numerator one bit too long
    f"1/{2**MAX_ENTRY_BITS}",                # denominator one bit too long
    "1e200000", "-3.5e-200000",              # refused before 10^200000 is built
    f"1e{MAX_ENTRY_BITS + 1}",
])
def test_parse_matrix_caps_entry_size(token):
    with pytest.raises(ParseError, match="row 2, column 1"):
        parse_matrix(f"2 2\n1 2\n{token} 4\n", QQ)


@pytest.mark.parametrize("token", ["1e_", "1e_5", "1e5_", "1/0", "x"])
def test_parse_matrix_names_bad_literal(token):
    for field in (QQ, PrimeField(7)):
        with pytest.raises(ParseError, match="row 2, column 1: bad"):
            parse_matrix(f"2 2\n1 2\n{token} 4\n", field)


def test_parse_matrix_accepts_entries_at_the_cap():
    top = 2**MAX_ENTRY_BITS - 1
    m = parse_matrix(f"1 2\n{top} -1/{top}\n", QQ)
    assert m.data[0] == [QQ.from_int(top), QQ.fraction(-1, top)]
    # over F_p the cap applies to the residue, not to the written integer
    assert parse_matrix(f"1 1\n{2**MAX_ENTRY_BITS}\n", PrimeField(7)).data == [[2]]


def test_parse_matrix_plain_and_string_parsed_tokens():
    # plain [-+]digits and a/b tokens are read with int(); every other
    # token keeps the string parser, so the accepted set is unchanged:
    # Fraction refuses a signed denominator, and takes +1/2, -0 and 1_000
    for token in ("1/-2", "1/+2"):
        with pytest.raises(ParseError, match="row 1, column 2: bad"):
            parse_matrix(f"1 2\n1 {token}\n", QQ)
    m = parse_matrix("1 5\n+1/2 -0 1_000 -12/18 007\n", QQ)
    assert m.data == [[QQ.fraction(1, 2), QQ.zero, QQ.from_int(1000),
                       QQ.fraction(-2, 3), QQ.from_int(7)]]
    with pytest.raises(ParseError, match=f"row 1, column 1 exceeds {MAX_ENTRY_BITS}"):
        parse_matrix(f"1 1\n-{2**MAX_ENTRY_BITS}\n", QQ)


def test_parse_matrix_row_errors_name_the_column():
    # a row is read in one pass; a row that fails is read again entry by
    # entry, so the error still names the first bad column
    for field in (QQ, PrimeField(7)):
        with pytest.raises(ParseError, match="row 2, column 3: bad"):
            parse_matrix("2 3\n1 2 3\n4 5/6 x\n", field)
    big = 2**MAX_ENTRY_BITS
    with pytest.raises(ParseError, match=f"row 1, column 2 exceeds {MAX_ENTRY_BITS}"):
        parse_matrix(f"1 3\n1 {big} x\n", QQ)
    assert parse_matrix(f"1 3\n1 {big} 3/2\n", PrimeField(7)).data == [[1, 2, 5]]


def test_long_tokens_refused_from_their_digits():
    # the value of a token of a million digits is never formed: no token
    # longer than parse_bounded's digit bound takes the one-pass read, so
    # every one is refused by its digits before its value is formed
    for field in (QQ, PrimeField(7)):
        for token in ("1" * 10**6, "0" * 10**6 + "1", f"1/{'1' * 10**6}"):
            start = time.perf_counter()
            with pytest.raises(ParseError, match=f"row 1, column 2 exceeds {MAX_ENTRY_BITS}"):
                parse_matrix(f"1 2\n1 {token}\n", field)
            assert time.perf_counter() - start < 0.1


# (token, QQ, GF(7)): the value a 1 x 1 matrix file with that entry reads
# as, or "bad" (the field cannot parse it) or "exceeds" (refused by the
# size cap).  Only tokens with an "e" or "E" are checked for an exponent.
EDGE_TOKENS = [
    ('0', '0', '0'),
    ('-0', '0', '0'),
    ('+0', '0', '0'),
    ('7', '7', '0'),
    ('-7', '-7', '0'),
    ('+7', '7', '0'),
    ('007', '7', '0'),
    ('1_000', '1000', '6'),
    ('1__0', 'bad', 'bad'),
    ('_1', 'bad', 'bad'),
    ('1_', 'bad', 'bad'),
    ('1/2', '1/2', '4'),
    ('-1/2', '-1/2', '3'),
    ('+1/2', '1/2', '4'),
    ('1/-2', 'bad', '3'),
    ('1/+2', 'bad', '4'),
    ('1/0', 'bad', 'bad'),
    ('0/5', '0', '0'),
    ('1/2/3', 'bad', 'bad'),
    ('1/', 'bad', 'bad'),
    ('/2', 'bad', 'bad'),
    ('1/2_0', '1/20', '6'),
    ('1.5', '3/2', 'bad'),
    ('-.5', '-1/2', 'bad'),
    ('.5', '1/2', 'bad'),
    ('5.', '5', 'bad'),
    ('1.2.3', 'bad', 'bad'),
    ('1e3', '1000', 'bad'),
    ('1e-3', '1/1000', 'bad'),
    ('1e+3', '1000', 'bad'),
    ('-1.5e2', '-150', 'bad'),
    ('1e', 'bad', 'bad'),
    ('1e_', 'bad', 'bad'),
    ('1e_5', 'bad', 'bad'),
    ('1e5_', 'bad', 'bad'),
    ('1e1_0', '10000000000', 'bad'),
    ('1.5/2', 'bad', 'bad'),
    ('\u0661\u0662', '12', '5'),              # Arabic-Indic digits
    ('x', 'bad', 'bad'),
    ('--1', 'bad', 'bad'),
    ('0x10', 'bad', 'bad'),
    ('1e4096', 'exceeds', 'bad'),
    ('1e4097', 'exceeds', 'exceeds'),
    ('1E5', '100000', 'bad'),
    ('1_0e2', '1000', 'bad'),
    # at the digit bound for MAX_ENTRY_BITS, 2 * (4096 * 30103 // 100000
    # + 1) + 10 = 2478 digits, and one past it
    pytest.param("0" * 2477 + "1", "1", "1", id="zeros-at-digit-bound"),
    pytest.param("0" * 2478 + "1", "exceeds", "exceeds", id="zeros-past-digit-bound"),
    pytest.param("1" * 2478, "exceeds", "0", id="ones-at-digit-bound"),
    pytest.param("1" * 2479, "exceeds", "exceeds", id="ones-past-digit-bound"),
    pytest.param("1/" + "0" * 2476 + "1", "1", "1", id="fraction-at-digit-bound"),
    pytest.param("1/" + "0" * 2477 + "1", "exceeds", "exceeds", id="fraction-past-digit-bound"),
]


@pytest.mark.parametrize("token, qq, gf7", EDGE_TOKENS)
def test_parse_entry_accepts_and_refuses(token, qq, gf7):
    # each entry is read or refused on its own: alone, next to 1, next to
    # 1e2 (a row read entry by entry over QQ) and next to x (a row that
    # fails, which names the token's column only when the token is refused)
    for field, expect in ((QQ, qq), (PrimeField(7), gf7)):
        for row in ([token], [token, "1"], [token, "1e2"], [token, "x"]):
            try:
                got = str(parse_matrix(f"1 {len(row)}\n{' '.join(row)}\n", field).data[0][0])
            except ParseError as exc:
                if "row 1, column 2" in str(exc):
                    assert expect not in ("bad", "exceeds"), (field, row[1:])
                    continue
                got = "exceeds" if "exceeds" in str(exc) else "bad"
                assert "row 1, column 1" in str(exc)
            assert got == expect, (field, row[1:])


# (token, its value, or the ParseError it gets, in a 1 x 2 row)
QQ_TOKENS = [
    ("2/4", "1/2"), ("-0", "0"), ("+7/21", "1/3"), ("007", "7"), ("0/5", "0"),
    ("5/0", "entry at row 1, column 1: bad rational '5/0'"),
    ("1e2", "100"), ("1_000", "1000"),
    ("\u0661\u0662/\u0664", "3"),                  # Arabic-Indic 12/4
    pytest.param("0" * 2477 + "7", "7", id="2478-digit"),
    pytest.param("0" * 2478 + "7", f"entry at row 1, column 1 exceeds {MAX_ENTRY_BITS} bits "
                 "in numerator or denominator", id="2479-digit"),
    pytest.param("7" * 2478, f"entry at row 1, column 1 exceeds {MAX_ENTRY_BITS} bits "
                 "in numerator or denominator", id="2478-digit-past-the-bits"),
]


@pytest.mark.parametrize("token, want", QQ_TOKENS)
def test_qq_tokens_read_alike_on_both_routes(token, want):
    # next to 1 a plain token is read in the row's one pass, with int() and
    # one gcd and no Fraction; next to 1e0 the row goes entry by entry
    # through Fraction: both routes give the same value, or the same error
    got = []
    for other in ("1", "1e0"):
        try:
            m = parse_matrix(f"1 2\n{token} {other}\n", QQ)
        except ParseError as exc:
            got.append(str(exc))
        else:
            assert never_lowered(m)
            got.append(str(m.data[0][0]))
    assert got == [want, want]


def test_format_and_emit_read_the_integer_model(default_digit_limit):
    # a P held in the integer model prints as the same P lowered to
    # Fractions, entry by entry as str(Fraction) prints it, past CPython's
    # digit limit too, and with a negative denominator
    a = make_fixture_m6()
    dec = decompose(a, factor_charpoly(char_data(a).p), "rational")
    rng = rng_for("format-model")
    big = 10**4400 + 7
    for den in (1, 6, -6, 3 * big):
        rows = [[rng.choice([0, 1, -1]) * rng.randrange(1, 10**4400) * rng.choice([1, 2, 3])
                 for _ in range(6)] for _ in range(6)]
        held = Matrix.from_lifted(QQ, rows, den)
        lowered = Matrix(QQ, QQ.lower(rows, den))
        assert QQ.fmt_rows(rows, den) == [[QQ.fmt(x) for x in row] for row in lowered.data]
        assert format_matrix(held) == format_matrix(lowered)
        assert emit_json(replace(dec, p=held)) == emit_json(replace(dec, p=lowered))
        assert never_lowered(held)
        assert sys.get_int_max_str_digits() == default_digit_limit


def test_format_parse_roundtrip():
    rng = rng_for("io-roundtrip")
    for _ in range(10):
        m = rand_matrix(rng, QQ, rng.randint(1, 4))
        assert parse_matrix(format_matrix(m), QQ) == m
    half = Matrix(QQ, [[QQ.fraction(1, 2), QQ.fraction(-7, 3)]])
    assert parse_matrix(format_matrix(half), QQ) == half


def test_field_tags():
    assert field_tag(QQ) == "Q"
    assert field_tag(PrimeField(7)) == "Fp:7"
    assert field_from_tag("Q") == field_from_tag("q") == QQ
    # the documents' spelling and the CLI's, in any case
    assert field_from_tag("Fp:7") == field_from_tag("fp:7") == PrimeField(7)
    assert field_from_tag("FP:7") == PrimeField(7)
    for tag in ("R", "Fp:x", "fp:", "Fp:7.5", "Qp:7"):
        with pytest.raises(ParseError):
            field_from_tag(tag)
    with pytest.raises(UnsupportedFieldError):
        field_from_tag("Fp:8")


def test_json_roundtrip_m6():
    a = make_fixture_m6()
    dec = decompose(a, factor_charpoly(char_data(a).p), "rational")
    text = emit_json(dec)
    back = parse_json(text)
    assert back.p == dec.p
    assert back.j == dec.j
    assert back.form == dec.form
    assert [(tuple(b.factor.coeffs), b.cycle_length, b.offset) for b in back.blocks] \
        == [(tuple(b.factor.coeffs), b.cycle_length, b.offset) for b in dec.blocks]
    # byte-for-byte deterministic
    assert emit_json(parse_json(text)) == text


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_emit_json_matches_json_dumps(field):
    # the document as json.dumps(..., indent=2) writes it, on fractions,
    # negative entries and several blocks
    if field is QQ:
        a = make_fixture_m6()
        fc = factor_charpoly(char_data(a).p)
    else:
        pieces = [(Poly.from_ints(field, [1, 0, 1]), [2, 1]),
                  (Poly.x_minus(field, 3), [1])]
        a = conjugate_random(rng_for("emit-json"), normal_form(field, pieces))
        fc = factor_charpoly(char_data(a).p,
                             hint=[(q, sum(ls)) for q, ls in pieces])
    dec = decompose(a, fc, "rational")
    f = dec.field
    doc = {
        "form": dec.form, "field": field_tag(f), "n": dec.j.rows,
        "blocks": [{"factor": [f.fmt(c) for c in blk.factor.coeffs],
                    "cycle_length": blk.cycle_length, "offset": blk.offset}
                   for blk in dec.blocks],
        "P": [[f.fmt(x) for x in row] for row in dec.p.data],
        "J": [[f.fmt(x) for x in row] for row in dec.j.data],
    }
    assert emit_json(dec) == json.dumps(doc, sort_keys=True, indent=2)


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_json("{not json")
    with pytest.raises(ParseError):
        parse_json('{"form": "rational"}')
    # "Fp:x" let int()'s ValueError out, and a number where an entry's
    # string belongs an AttributeError
    a = make_fixture_m6()
    dec = decompose(a, factor_charpoly(char_data(a).p), "rational")
    doc = json.loads(emit_json(dec))
    for key, value in (("field", "Fp:x"), ("P", [[1]])):
        with pytest.raises(ParseError):
            parse_json(json.dumps({**doc, key: value}))



# (case, the emitted document broken that way); each case escaped as an
# error other than ParseError, or was accepted
MALFORMED = {
    "ragged P": lambda doc: {**doc, "P": [doc["P"][0][:-1]] + doc["P"][1:]},
    "ragged J": lambda doc: {**doc, "J": doc["J"][:-1] + [doc["J"][-1] + ["0"]]},
    "cycle_length x": lambda doc: {**doc, "blocks": [{**doc["blocks"][0], "cycle_length": "x"}]},
    "unknown form": lambda doc: {**doc, "form": "jordan"},
    # each read back before the shapes were checked against n
    "n 99": lambda doc: {**doc, "n": 99},
    "P with 2 rows": lambda doc: {**doc, "P": doc["P"][:2]},
    "P with 2 columns": lambda doc: {**doc, "P": [row[:2] for row in doc["P"]]},
    "J with 2 columns": lambda doc: {**doc, "J": [row[:2] for row in doc["J"]]},
    # the document of [[5]] read back with n true, as bool is an int
    "n true": lambda doc: {"field": "Q", "form": "split", "n": True, "P": [["1"]],
                           "J": [["5"]], "blocks": [{"factor": ["-5", "1"],
                                                     "cycle_length": 1, "offset": 0}]},
}


# (case, the edit to the first block of the m6 document, a quadratic
# factor's cycle of length 2 at offset 0 in n = 6); each read back before
# the blocks were checked against n
OUTSIDE = {
    "cycle_length 99": {"cycle_length": 99},
    "cycle_length 0": {"cycle_length": 0},
    "offset -1": {"offset": -1},
    "offset n": {"offset": 6},
    "runs past n": {"offset": 4},
    # each read back as the integer 1, as bool is an int
    "cycle_length true": {"cycle_length": True},
    "offset true": {"offset": True},
}
MALFORMED.update({case: lambda doc, edit=edit: {**doc, "blocks": [
    {**doc["blocks"][0], **edit}, *doc["blocks"][1:]]} for case, edit in OUTSIDE.items()})


@pytest.mark.parametrize("case", [*MALFORMED, "5000-digit integer"])
def test_parse_json_refuses_malformed_documents(case, default_digit_limit):
    a = make_fixture_m6()
    text = emit_json(decompose(a, factor_charpoly(char_data(a).p), "rational"))
    if case in MALFORMED:
        bad = json.dumps(MALFORMED[case](json.loads(text)))
    else:                       # an integer past CPython's default limit
        bad = text.replace('"offset": 0', '"offset": 1' + "0" * 4999, 1)
        assert bad != text
    with pytest.raises(ParseError, match="bad "):
        parse_json(bad)


def test_parse_json_refuses_a_5000_digit_offset(digit_limit):
    # at CPython's default limit json refuses the integer; with the limit
    # lifted it reads it, and the block check refuses the offset without
    # quoting its digits
    a = make_fixture_m6()
    text = emit_json(decompose(a, factor_charpoly(char_data(a).p), "rational"))
    bad = text.replace('"offset": 0', '"offset": 1' + "0" * 4999, 1)
    assert bad != text
    with pytest.raises(ParseError, match="bad ") as err:
        parse_json(bad)
    assert len(str(err.value)) < 200

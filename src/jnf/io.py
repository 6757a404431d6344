"""Text and JSON serialization: matrix files, pretty printing, and the
stable-key JSON document for decompositions.  Numbers in matrix files,
hint files and field tags are read here only, bounded before conversion."""

import json
import re
from contextlib import suppress
from operator import index

from .decomposition import CycleBlock, JordanDecomposition
from .errors import ParseError
from .fields import PrimeField, QQ, quote
from .matrix import Matrix
from .poly import Poly


# Largest bit length accepted for the numerator or the denominator of an
# input entry.  The entries of B carry about n times the input bits, so
# inputs anywhere near this size would not finish; rejecting them here also
# keeps the rational-root search from factoring them.
MAX_ENTRY_BITS = 4096

# a decimal exponent, which the rational parser raises 10 to
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*$")


def _digits(bits):
    """The most digits of an entry within ``bits`` bits: numerator, denominator, 10 more."""
    return 2 * (bits * 30103 // 100000 + 1) + 10


def _fits(x, bits=MAX_ENTRY_BITS):
    """Whether x's numerator and denominator have at most ``bits`` bits."""
    return x.numerator.bit_length() <= bits and x.denominator.bit_length() <= bits


def parse_bounded(field, token, bits, where):
    """The value of ``token``, refused with an error naming ``where`` when
    its numerator or denominator has more than ``bits`` bits: from the
    token's digits and exponent before any value is formed, so the work is
    linear in the bound."""
    exp = _EXPONENT.search(token) if "e" in token or "E" in token else None
    if sum(map(str.isdigit, token)) <= _digits(bits) and (not exp or (
            len(exp.group(1)) <= 10 and int(exp.group(1).replace("_", "")) <= bits)):
        try:
            x = field.parse(token)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if _fits(x, bits):
            return x
    raise ParseError(f"{where} exceeds {bits} bits in numerator or denominator")


def parse_int(token, where, chars=20):
    """int(token) for a count (20 characters hold any 64-bit integer) or the
    modulus; a longer token, or not an integer, is refused naming ``where``."""
    if len(token) <= chars:
        with suppress(ValueError):
            return int(token)
    raise ParseError(f"{where}: not an integer of at most {chars} characters: {quote(token)}")


def _parse_row(field, line, tokens, row):
    """The entries of one row, the ``tokens`` of ``line``, each read or
    refused on its own as ``parse_bounded`` reads it.  The row is parsed in
    one pass over ``field.parse`` when no token is longer than the digits
    ``parse_bounded`` accepts and none can make it raise 10 to a huge
    exponent: over F_p (which reads no exponents) or without exponents over
    QQ.  Only over QQ do its values then need the bit bound checked (p has
    at most 82 bits).  Any other row, and a row that fails, goes entry by
    entry, which names the column and bounds the work."""
    most = _digits(MAX_ENTRY_BITS)
    short = len(line) <= most or max(map(len, tokens)) <= most
    if short and (field.char or not any("e" in t or "E" in t for t in tokens)):
        try:
            values = list(map(field.parse, tokens))
        except ParseError:
            pass
        else:
            if field.char or all(map(_fits, values)):
                return values
    return [parse_bounded(field, t, MAX_ENTRY_BITS, f"entry at row {row}, column {j}")
            for j, t in enumerate(tokens, 1)]


def parse_matrix(text, field):
    """Matrix text format: first line ``rows cols``, then one row per line,
    entries whitespace separated, rationals as ``a/b`` or integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("first line must be 'rows cols'")
    rows, cols = (parse_int(t, "first line 'rows cols'") for t in header)
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if len(lines) - 1 != rows:
        raise ParseError(f"expected {rows} rows, got {len(lines) - 1}")
    data = []
    for i, ln in enumerate(lines[1:], 1):
        tokens = ln.split()
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries in row {i}: {quote(ln)}")
        data.append(_parse_row(field, ln, tokens, i))
    return Matrix(field, data)


def format_matrix(m):
    """Column-aligned text rendering (including the header line)."""
    f = m.field
    cells = [[f.fmt(x) for x in row] for row in m.data]
    widths = [max(len(cells[r][c]) for r in range(m.rows)) for c in range(m.cols)]
    lines = [f"{m.rows} {m.cols}"]
    for row in cells:
        lines.append(" ".join(s.rjust(w) for s, w in zip(row, widths)))
    return "\n".join(lines)


def field_tag(field):
    return "Q" if field.char == 0 else f"Fp:{field.char}"


def field_from_tag(tag):
    """The field a document's tag or the CLI's ``--field`` names: ``Q`` or
    ``Fp:<p>``, in any case, p in at most an entry's digits.  A p that is
    not a prime below ``fields.PSI13`` is refused as an unsupported field."""
    spec = tag.lower()
    if spec == "q":
        return QQ
    if not spec.startswith("fp:"):
        raise ParseError(f"unknown field {quote(tag)}; use 'q' or 'fp:<p>'")
    return PrimeField(parse_int(spec[3:], "field modulus", _digits(MAX_ENTRY_BITS)))


def _layout(items, indent, brackets="[]"):
    """Encoded JSON items in a list (or, with brackets "{}", an object),
    laid out as json.dumps(..., indent=2) lays it out with the items at
    ``indent`` spaces."""
    pad = "\n" + " " * indent
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def emit_json(dec):
    """Stable-key JSON document for a decomposition; deterministic bytes,
    those of json.dumps(doc, sort_keys=True, indent=2).  An indent sends
    json to its pure-Python encoder, so the layout is written here."""
    f = dec.field

    def strings(values, indent):
        # field strings hold only digits, '-' and '/': nothing to escape
        sep = '",\n' + " " * indent + '"'
        return _layout(['"' + sep.join(map(f.fmt, values)) + '"'], indent)

    def matrix(m):
        return _layout([strings(row, 6) for row in m.data], 4)

    blocks = _layout([_layout([f'"cycle_length": {blk.cycle_length}',
                               f'"factor": {strings(blk.factor.coeffs, 8)}',
                               f'"offset": {blk.offset}'], 6, "{}")
                      for blk in dec.blocks], 4)
    # the other members through json's C encoder (no indent), one a line
    rest = json.dumps({"field": field_tag(f), "form": dec.form, "n": dec.j.rows},
                      sort_keys=True, separators=(",\n  ", ": "))[1:-1]
    return _layout([f'"J": {matrix(dec.j)}', f'"P": {matrix(dec.p)}',
                    f'"blocks": {blocks}', rest], 2, "{}")


def parse_json(text):
    """Inverse of emit_json; reproduces P and J entrywise, with as many
    digits as emit_json writes."""
    try:
        doc = json.loads(text)
    except ValueError as exc:       # an integer past CPython's digit limit too
        raise ParseError(f"bad JSON: {exc}") from exc
    try:
        field = field_from_tag(doc["field"])
        p, j = (Matrix(field, [[field.parse(x) for x in row] for row in doc[k]])
                for k in "PJ")
        blocks = [CycleBlock(Poly(field, [field.parse(c) for c in blk["factor"]]),
                             index(blk["cycle_length"]), index(blk["offset"]))
                  for blk in doc["blocks"]]
        if doc["form"] not in JordanDecomposition.FORMS:
            raise ValueError("unknown form")
        if not all(0 <= b.offset < b.offset + b.cycle_length * b.factor.degree <= j.rows
                   for b in blocks):
            raise ValueError(f"a block is empty or runs outside n = {j.rows}")
        return JordanDecomposition(p=p, j=j, form=doc["form"], blocks=blocks, field=field)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ParseError(f"bad decomposition document: {exc}") from exc

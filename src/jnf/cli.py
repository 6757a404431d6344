"""Command-line driver: read a matrix, compute the requested normal form,
emit the result, optionally verify."""

import argparse
import os
import sys
from dataclasses import dataclass

from .charpoly import hessenberg_charpoly
from .errors import (InternalConsistencyError, InvalidHintError, JnfError,
                     NeedsFactorizationError, ParseError, UnsupportedFieldError)
from .factor import factor_charpoly, format_factor_hint, parse_factor_hints
from .io import emit_json, field_from_tag, format_matrix, parse_matrix
from .jordan_rational import assemble_pseudo_rational, rational_jordan, split_jordan

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NEEDS_FACTORIZATION = 3
EXIT_UNSUPPORTED_FIELD = 4
EXIT_INTERNAL = 5

DEFAULT_MAX_N = 512


@dataclass
class JobConfig:
    input_path: str
    field_spec: str = "q"
    form: str = "rational"
    factors_path: str = None
    output: str = "pretty"
    verify: bool = False
    orientation: str = None      # None: the form's own (see decompose)


def _max_n():
    """The largest accepted matrix size: JNF_MAX_N, a positive integer."""
    raw = os.environ.get("JNF_MAX_N", str(DEFAULT_MAX_N))
    try:
        if int(raw) >= 1:
            return int(raw)
    except ValueError:
        pass
    raise ParseError(f"JNF_MAX_N must be a positive integer, got {raw!r}")


def _read(path):
    """The text of the file at ``path``; one that cannot be read, or is not
    UTF-8, is a parse error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def run(config):
    """Execute one job; returns (exit_code, report_text)."""
    solve = {"split": split_jordan, "pseudo": assemble_pseudo_rational,
             "rational": rational_jordan}.get(config.form)
    if solve is None:
        raise ParseError(f"unknown form {config.form!r}")
    if config.output not in ("pretty", "json"):
        raise ParseError(f"unknown output {config.output!r}")
    field = field_from_tag(config.field_spec)
    a = parse_matrix(_read(config.input_path), field)
    if not a.is_square:
        raise ParseError("input matrix must be square")
    max_n = _max_n()
    if a.rows > max_n:
        raise ParseError(f"matrix size {a.rows} exceeds JNF_MAX_N={max_n}")

    p = hessenberg_charpoly(a)
    hint = None
    if config.factors_path:
        hint = parse_factor_hints(_read(config.factors_path), p)
    factorization = factor_charpoly(p, hint=hint)
    dec = solve(a, factorization, charpoly=p, orientation=config.orientation)

    lines = []
    if config.output == "json":
        lines.append(emit_json(dec))
    else:
        lines.append(f"form: {dec.form}")
        lines.append(f"field: {field!r}")
        lines.append("blocks (factor coefficients low->high, cycle length, offset):")
        for blk in dec.blocks:
            coeffs = " ".join(field.fmt(c) for c in blk.factor.coeffs)
            lines.append(f"  [{coeffs}]  k={blk.cycle_length}  offset={blk.offset}")
        lines.append("P =")
        lines.append(format_matrix(dec.p))
        lines.append("J =")
        lines.append(format_matrix(dec.j))
    if config.verify:
        # A*P == P*J was certified by assemble; this adds the charpoly check
        if hessenberg_charpoly(dec.j) != p:
            raise InternalConsistencyError(
                "verification failed: charpoly(J) != charpoly(A)")
        lines.append("verify: A*P == P*J and charpoly(J) == charpoly(A): exact")
    return EXIT_OK, "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jnf",
        description="Exact Jordan and rational Jordan normal forms.",
        argument_default=argparse.SUPPRESS)     # JobConfig holds the defaults
    parser.add_argument("input_path", metavar="input",
                        help="matrix file ('rows cols' header, then rows)")
    parser.add_argument("--field", dest="field_spec",
                        help="coefficient field: q (default) or fp:<prime>")
    parser.add_argument("--form", choices=["split", "pseudo", "rational"])
    parser.add_argument("--factors", dest="factors_path",
                        help="factor hint file for the characteristic polynomial")
    parser.add_argument("--output", choices=["pretty", "json"])
    parser.add_argument("--verify", action="store_true",
                        help="also check charpoly(J) == charpoly(A); "
                             "A*P == P*J is always checked")
    orient = parser.add_mutually_exclusive_group()
    orient.add_argument("--upper", action="store_const", const="upper",
                        dest="orientation",
                        help="couplings/1s above the diagonal")
    orient.add_argument("--lower", action="store_const", const="lower",
                        dest="orientation",
                        help="couplings/1s below the diagonal")
    return parser


def main(argv=None):
    config = JobConfig(**vars(build_parser().parse_args(argv)))
    try:
        code, report = run(config)
    except NeedsFactorizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.residual is not None:
            print("unfactored part (hint-file syntax):", file=sys.stderr)
            print(format_factor_hint(exc.residual, exc.multiplicity), file=sys.stderr)
        return EXIT_NEEDS_FACTORIZATION
    except UnsupportedFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED_FIELD
    except (ParseError, InvalidHintError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (JnfError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Golden outputs: the SHA-256 of ``--output json`` for a few fixed-seed
conjugated normal forms.  A kernel change that claims byte-identical output
must leave every digest as it is; a change that means to alter the output
updates the digests and says why."""

import hashlib

import pytest

from conftest import conjugate_random, normal_form, rng_for
from jnf.cli import EXIT_OK, JobConfig, run
from jnf.fields import QQ, PrimeField
from jnf.io import format_matrix
from jnf.poly import Poly

GF7 = PrimeField(7)
GF2 = PrimeField(2)
GF3 = PrimeField(3)
GFBIG = PrimeField(2**61 - 1)


def lin(f, num, den=1):
    return Poly.x_minus(f, f.div(f.from_int(num), f.from_int(den)))


# name -> (field spec, form, [(factor, [cycle lengths])], hinted)
CASES = {
    # eigenvalues with denominators 1, 2 and 3 share one Taylor expansion
    "qq_split": ("q", "split",
                 [(lin(QQ, 2), [3, 1]), (lin(QQ, -1), [2, 2]),
                  (lin(QQ, 1, 2), [2]), (lin(QQ, -2, 3), [1])], False),
    # entries k/30: B's coefficients sit over growing powers of 30
    "qq_split_den30": ("q", "split",
                       [(lin(QQ, 7, 30), [3, 1]), (lin(QQ, -1, 30), [2]),
                        (lin(QQ, 1, 3), [2, 1])], False),
    # one quadratic factor found without hints, next to linear ones
    "qq_rational": ("q", "rational",
                    [(Poly.from_ints(QQ, [-2, 0, 1]), [2, 1]),
                     (lin(QQ, 1), [2]), (lin(QQ, -1, 3), [1])], False),
    # n = 10 > 7 takes the Hessenberg route; x^2 + 1 is irreducible mod 7
    "gf7_hessenberg": ("fp:7", "rational",
                       [(Poly.from_ints(GF7, [1, 0, 1]), [2, 1]),
                        (lin(GF7, 3), [2, 1]), (lin(GF7, 5), [1])], True),
}
# the pseudo-rational form on the same pieces, each case conjugated by its
# own seed: single-1 couplings and no binomial conversion
CASES["gf7_hessenberg_pseudo"] = ("fp:7", "pseudo") + CASES["gf7_hessenberg"][2:]
CASES["qq_rational_pseudo"] = ("q", "pseudo") + CASES["qq_rational"][2:]
# deep stacks: one factor whose longest cycle sets 4 to 8 levels of the
# reduce/collect/shift loop, more than any case above
CASES["gf7_deep_split"] = ("fp:7", "split", [(lin(GF7, 3), [8, 4, 2, 1, 1])], True)
CASES["qq_deep_split"] = ("q", "split", [(lin(QQ, 1, 2), [6, 3, 2, 1])], False)
CASES["gf7_deep_rational"] = ("fp:7", "rational",
                              [(Poly.from_ints(GF7, [1, 0, 1]), [4, 2]),
                               (lin(GF7, 2), [1])], True)
# deep stacks where the packed echelon's slots are widest (past 8 bytes)
# and narrowest (p = 2)
CASES["gfbig_deep_split"] = ("fp:2305843009213693951", "split",
                             [(lin(GFBIG, 3), [8, 4, 2, 1, 1]),
                              (lin(GFBIG, -5), [2, 1])], True)
CASES["gf2_deep_rational"] = ("fp:2", "rational",
                              [(Poly.from_ints(GF2, [1, 1, 1]), [3, 1]),
                               (lin(GF2, 1), [4, 2, 1])], True)
# a cubic factor: the rational conversion at d = 3, with C(2, 1) = 2 and
# C(3, m) in its recurrences; over GF(3) those binomials are 0 and p <= d
CASES["qq_cubic_rational"] = ("q", "rational",
                              [(Poly.from_ints(QQ, [-2, 0, 0, 1]), [3, 1])], True)
CASES["qq_cubic_pseudo"] = ("q", "pseudo") + CASES["qq_cubic_rational"][2:]
CASES["gf3_cubic_rational"] = ("fp:3", "rational",
                               [(Poly.from_ints(GF3, [-1, -1, 0, 1]), [3, 2])], True)

DIGESTS = {
    "qq_split": "e6464a7049f166655ee59f05353126a45419a47a61bab2d94543df8f9391b91e",
    "qq_split_den30": "b58b01f5902309a973796e74db8a66d278df5b4560acc67fb7281392e4a03c49",
    "qq_rational": "ada759313f171f270d07099f93e5dd9ac70f9b2e968d8045f5e5aa2102395f8d",
    "gf7_hessenberg": "a75ae3cf02c179ecd2811c0a1aed114d6106ca9735ee0cd1daaceea09b548a4b",
    "gf7_hessenberg_pseudo": "cf11773d5ce2b9233fbc99a0fa4230ee63915fe0b262a1a258a3eee58cc30c1c",
    "qq_rational_pseudo": "204cc8b35023e5a3350f48f5090fabdd3a9488fa8c953229b793f838448d0b74",
    "gf7_deep_split": "c5a2a7eccceac8db7f67dfe51649dcd686cd69a6cee0c37b8e672f9861eb3853",
    "qq_deep_split": "d2b103e40fb0bd7730f50e9ccd7c24d0f93a81a87b7702b41f4bfab0c534ad11",
    "gf7_deep_rational": "ca0819c2426acaecd6de7a80a2df35f86b04082e18da0c559fce537c57d656f7",
    "gfbig_deep_split": "9dea17f176576abbac25b17b89cf990cddf841717525e1c72481e362fc41c1f1",
    "gf2_deep_rational": "1941b2c874a83685b260f192612a01f4400ac8b6f83136f6afb5d086e114df42",
    "qq_cubic_rational": "09190aaf7fba34d90c2ece950a9d85ed909b24744a3c9bd5eba3ebf1743b152e",
    "qq_cubic_pseudo": "53acfd77ad0606b8a2be9c40e1f57ced0ed0abff888fafa79983bbc5dff7fba5",
    "gf3_cubic_rational": "50f16d14e944388c0644008bddace6cf40d4c14e2dc7dd0278e8d7af0c46005b",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_is_unchanged(name, tmp_path):
    spec, form, pieces, hinted = CASES[name]
    field = pieces[0][0].field
    a = conjugate_random(rng_for(f"golden-{name}"), normal_form(field, pieces))
    mat = tmp_path / "a.txt"
    mat.write_text(format_matrix(a) + "\n")
    hints = None
    if hinted:
        hints = tmp_path / "a.hint"
        hints.write_text("".join(
            f"{sum(ls)} : " + " ".join(field.fmt(c) for c in q.coeffs) + "\n"
            for q, ls in pieces))
    code, report = run(JobConfig(input_path=str(mat), field_spec=spec, form=form,
                                 factors_path=str(hints) if hints else None,
                                 output="json"))
    assert code == EXIT_OK
    assert hashlib.sha256(report.encode()).hexdigest() == DIGESTS[name]

"""Golden outputs: two SHA-256 digests of ``--output json`` for a few
fixed-seed conjugated normal forms, one of the whole document and one of
its form, field, blocks and J.  A kernel change that claims byte-identical
output must leave every digest as it is; a change that means to alter the
output updates the digests and says why.  The second digest leaves out
only the transform P, which depends on the cycle vectors found, not on A
alone: no correct change moves it."""

import hashlib
import json

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
# hinted quadratics with non-integral coefficients: the Q-adic expansion
# runs in the x = y/s transform with s = 2 and s = 15, next to a linear
# factor with s = 4
CASES["qq_fraction_quadratics"] = (
    "q", "rational",
    [(Poly(QQ, [QQ.one, QQ.fraction(1, 2), QQ.one]), [2, 1]),
     (Poly(QQ, [QQ.fraction(-2, 3), QQ.fraction(1, 5), QQ.one]), [2]),
     (lin(QQ, -3, 4), [2, 1])], True)
CASES["qq_fraction_quadratics_pseudo"] = (
    ("q", "pseudo") + CASES["qq_fraction_quadratics"][2:])

# name -> (digest of the document, digest of its form, field, blocks and J).
# Over every field P comes from the chains of the probe block B(lambda)*V;
# its document digest differs from the one of all of B where a factor has
# more cycle vectors at the bottom than the first block has columns
# (multiplicity > BLOCK_COLUMNS): the gf2, gf3, gf7, gfbig and qq deep
# cases.
DIGESTS = {
    "gf2_deep_rational": (
        "122f4d182eef0627b4748bdd9bdc1ab4d8fdfb7859c361b0f22182c118338a06",
        "80ad290dff506929aa7eab73df9af8689baf6e38ec0b254010f4ac1467d148af"),
    "gf3_cubic_rational": (
        "b67bfbf6934801f88d95ca6b80c2f8f0302a1c700e7385ae48669ed4533684ef",
        "b68aab577fbd708525717cd6340ce471506e70839d2b50602aaf90ec5a4323b4"),
    "gf7_deep_rational": (
        "31e38d1aa61e8f082eebbf271852b1a8a896f75f2ed0e61f72f8b827333c1118",
        "4d645c17e12ed48e10d7949013e90791032a94aa93847bd6a59a7471f96f8b56"),
    "gf7_deep_split": (
        "24180f1d91ee980d8a93b20df80d638790e8b7c8e9303bb319f9b694d063e1c2",
        "093343f8d701239b2797e11bd7c933942261b2d89374b077e620ccf099ec574b"),
    "gf7_hessenberg": (
        "a75ae3cf02c179ecd2811c0a1aed114d6106ca9735ee0cd1daaceea09b548a4b",
        "31dc7893d0810fc3f80da716e874caaac9ed0438a4ddc6b9c09db10cd7c89c90"),
    "gf7_hessenberg_pseudo": (
        "cf11773d5ce2b9233fbc99a0fa4230ee63915fe0b262a1a258a3eee58cc30c1c",
        "828f926d92f569a56fcb549e16746d0b014cb838a8f9a990ee22848c13aac0eb"),
    "gfbig_deep_split": (
        "f7d81acba13a27781072121fcca00de7c3f154a26191af4cc0b1003ddee4bf13",
        "8d78846016b40481496da2a4bde69d4388a89813a83ad7393952a1c39baf71d7"),
    "qq_cubic_pseudo": (
        "53acfd77ad0606b8a2be9c40e1f57ced0ed0abff888fafa79983bbc5dff7fba5",
        "13b8c3438d089906e0c79aeadc1cb82d350301bbf974acdee915b29cc145f8ad"),
    "qq_cubic_rational": (
        "09190aaf7fba34d90c2ece950a9d85ed909b24744a3c9bd5eba3ebf1743b152e",
        "f7856bd54b1139b37d8ca6f8cbe20e8c4b5b361018875864b2eabd87e32d9b21"),
    "qq_deep_split": (
        "cdc99b5cc5ac6032aeee97354a450ea74623f141f8eee516dcf1f72e523c70a2",
        "e339fe781067a0ba5b4b1ca763fad5a16b5472b6d2e58e35867841e5109f39d9"),
    "qq_fraction_quadratics": (
        "cd262ff072b7f1cdb2d43b90e1b282db6dd4412e8326dfba31e753e6ca7368f4",
        "8f385a9e234817aa43c837248c3147ac8d41b0908528a25340c551a580ad90d8"),
    "qq_fraction_quadratics_pseudo": (
        "4839b6dda7364a6d7cc45ed496ad9ae7f03804f743882ba2fdf1d13f42b96daa",
        "8f7734880d9d851f6b2fd591d840790da6b0f9579711591b09ec7f74eed09ed5"),
    "qq_rational": (
        "ada759313f171f270d07099f93e5dd9ac70f9b2e968d8045f5e5aa2102395f8d",
        "f7ad637c21899edd8e055b2d594b8ca044385ff36cc69d02693255370cc464ce"),
    "qq_rational_pseudo": (
        "204cc8b35023e5a3350f48f5090fabdd3a9488fa8c953229b793f838448d0b74",
        "d44b4b3affc42bd09362f9cf99c45db0ab4d24deb35e83c72d887a9356402929"),
    "qq_split": (
        "e6464a7049f166655ee59f05353126a45419a47a61bab2d94543df8f9391b91e",
        "fac38602eb440c441d5485d244b02dd24170535e1f8ecfb8c833205cad2945ae"),
    "qq_split_den30": (
        "b58b01f5902309a973796e74db8a66d278df5b4560acc67fb7281392e4a03c49",
        "5bfa8fdb5bb10021a6e0923fc3429ada9f15a21452d9d8dde7bc4c905a0f6eb6"),
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
    doc = json.loads(report)
    structure = json.dumps({k: doc[k] for k in ("form", "field", "blocks", "J")},
                           sort_keys=True)
    assert (hashlib.sha256(report.encode()).hexdigest(),
            hashlib.sha256(structure.encode()).hexdigest()) == DIGESTS[name]

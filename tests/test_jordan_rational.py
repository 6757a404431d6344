import pytest

from conftest import (block_diagonal_part, block_multiset, conjugate_random,
                      cycle_vectors, mat_sub, matpoly_add, matpoly_mul_poly,
                      matpoly_sub, mul_vector, never_lowered, poly_pow,
                      random_normal_form, rng_for, transposed)
from jnf import factor
from jnf.charpoly import char_data
from jnf.decomposition import JordanDecomposition, verify
from jnf.errors import InternalConsistencyError, InvalidHintError
from jnf.factor import FactoredCharPoly, factor_charpoly
from jnf.fields import QQ
from jnf.jordan_rational import (convert_cycle_to_rational, decompose,
                                 extract_q_cycles, q_adic_blocks)
from jnf.matrix import MatPoly, Matrix, mat_mul, matpoly_div_q, poly_at_matrix
from jnf.poly import Poly


X2M2 = Poly.from_ints(QQ, [-2, 0, 1])


def qi(*ints):
    return [QQ.from_int(k) for k in ints]


def test_q_adic_blocks_m6(fixture_m6):
    cd = char_data(fixture_m6)
    c_blocks = q_adic_blocks(fixture_m6, cd.b, X2M2, 2)
    assert len(c_blocks) == 2
    # chain relations re-checked here, independently of the constructor
    qa = poly_at_matrix(X2M2, fixture_m6)
    for t in range(2):
        assert mat_mul(qa, c_blocks[0][t]).is_zero()
        assert mat_mul(qa, c_blocks[1][t]) == c_blocks[0][t]
    # B - (C_0 + C_1*Q) is divisible by Q^2
    recon = matpoly_add(MatPoly(QQ, c_blocks[0]),
                        matpoly_mul_poly(MatPoly(QQ, c_blocks[1]), X2M2))
    (rem,), = matpoly_div_q(matpoly_sub(cd.b, recon), [(poly_pow(X2M2, 2), 1)])
    assert all(m.is_zero() for m in rem)
    # every C_k has lambda-degree below deg Q
    for c_k in c_blocks:
        assert len(c_k) == 2


def test_extract_q_cycles_m6(fixture_m6):
    cd = char_data(fixture_m6)
    cycles = extract_q_cycles(fixture_m6, X2M2, 2,
                              q_adic_blocks(fixture_m6, transposed(cd.b), X2M2, 2))
    assert [len(cy) for cy in cycles] == [2]
    (w0, aw0), (w1, aw1) = cycle_vectors(QQ, cycles[0])
    qa = poly_at_matrix(X2M2, fixture_m6)
    assert mul_vector(qa, w1) == w0
    assert all(QQ.is_zero(x) for x in mul_vector(qa, w0))
    # each group really holds the A^i images
    assert aw0 == mul_vector(fixture_m6, w0)
    assert aw1 == mul_vector(fixture_m6, w1)


def test_pseudo_rational_m6_entrywise(fixture_m6):
    dec = decompose(fixture_m6, factor_charpoly(char_data(fixture_m6).p),
                    "pseudo_rational")
    assert dec.form == "pseudo_rational"
    assert dec.j == Matrix.from_ints(QQ, [
        [0, 2, 0, 1, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 2],
    ])
    assert verify(fixture_m6, dec)


def test_rational_m6_entrywise(fixture_m6):
    dec = decompose(fixture_m6, factor_charpoly(char_data(fixture_m6).p), "rational")
    assert dec.form == "rational"
    # identity coupling replaces the single-1 coupling
    assert dec.j == Matrix.from_ints(QQ, [
        [0, 2, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [0, 0, 0, 2, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 2],
    ])
    assert verify(fixture_m6, dec)


def test_rational_conversion_known_vectors(fixture_m6):
    cd = char_data(fixture_m6)
    cycle = extract_q_cycles(fixture_m6, X2M2, 2,
                             q_adic_blocks(fixture_m6, transposed(cd.b), X2M2, 2))[0]
    groups = cycle_vectors(QQ, convert_cycle_to_rational(fixture_m6, X2M2, cycle))
    v00, v01 = groups[0]
    v10, v11 = groups[1]
    assert v00 == cycle_vectors(QQ, cycle)[0][0]
    assert mul_vector(fixture_m6, v00) == v01
    # defining relations of the rational block (upper coupling):
    # A v_{1,0} = v_{1,1} + v_{0,0} and A v_{1,1} = 2 v_{1,0} + v_{0,1}
    two = QQ.from_int(2)
    assert mul_vector(fixture_m6, v10) == [QQ.add(x, y) for x, y in zip(v11, v00)]
    assert mul_vector(fixture_m6, v11) == [
        QQ.add(QQ.mul(two, x), y) for x, y in zip(v10, v01)]


def test_lower_orientation_m6(fixture_m6):
    dec = decompose(fixture_m6, factor_charpoly(char_data(fixture_m6).p), "rational",
                    orientation="lower")
    assert dec.j == Matrix.from_ints(QQ, [
        [0, 2, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 2, 0, 0],
        [0, 1, 1, 0, 0, 0],
        [0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 2],
    ])
    assert verify(fixture_m6, dec)


def test_certificate_lifts_p_once(fixture_m6, monkeypatch):
    # A*P, P*J and the rank of P all read the integer model assemble builds
    # P and J in: neither is ever lifted, nor lowered to Fractions
    lifted = []
    lift = type(QQ).lift
    monkeypatch.setattr(type(QQ), "lift", lambda self, rows: lifted.append(rows) or lift(self, rows))
    dec = decompose(fixture_m6, factor_charpoly(char_data(fixture_m6).p), "rational")
    assert never_lowered(dec.p) and never_lowered(dec.j)
    monkeypatch.undo()
    assert lifted and QQ.lower(*dec.p.lifted()) not in lifted


def test_verify_cross_multiplies_unequal_denominators(monkeypatch):
    # A over 2, J over 1 (eigenvalues +-1): A*P and P*J are integer rows
    # over different denominators, compared as rows_a*den_b == rows_b*den_a
    # with nothing lowered; a wrong J is still refused
    a = Matrix(QQ, [[QQ.zero, QQ.fraction(1, 2)], [QQ.from_int(2), QQ.zero]])
    dec = decompose(a, factor_charpoly(char_data(a).p), "split")
    assert a.lifted()[1] == 2 and dec.j.lifted()[1] == 1
    lowered = []
    lower = type(QQ).lower
    monkeypatch.setattr(type(QQ), "lower",
                        lambda self, rows, den: lowered.append(rows) or lower(self, rows, den))
    assert verify(a, dec)
    assert not lowered
    assert dec.j == Matrix.from_ints(QQ, [[1, 0], [0, -1]])
    bad = JordanDecomposition(p=dec.p, j=Matrix.from_lifted(QQ, [[-1, 0], [0, 1]], 1),
                              form=dec.form, blocks=dec.blocks, field=QQ)
    with pytest.raises(InternalConsistencyError, match="A\\*P != P\\*J"):
        verify(a, bad)


def test_commutation_rational_vs_pseudo(fixture_m6):
    fc = factor_charpoly(char_data(fixture_m6).p)
    rat = decompose(fixture_m6, fc, "rational")
    d = block_diagonal_part(rat)
    n = mat_sub(rat.j, d)
    assert mat_mul(d, n) == mat_mul(n, d)
    pseudo = decompose(fixture_m6, fc, "pseudo_rational")
    dp = block_diagonal_part(pseudo)
    np_ = mat_sub(pseudo.j, dp)
    assert mat_mul(dp, np_) != mat_mul(np_, dp)


def test_wrong_factorization_rejected(fixture_m6):
    cd = char_data(fixture_m6)
    bad = factor_charpoly(poly_pow(Poly.from_ints(QQ, [-1, 1]), 6))
    with pytest.raises(InvalidHintError):
        decompose(fixture_m6, bad, "rational", charpoly=cd.p)


def test_factorization_degree_checked_before_the_product(fixture_m6, monkeypatch):
    def refuse(factors):
        raise AssertionError("product formed for a factorization of the wrong degree")

    monkeypatch.setattr(factor, "int_product", refuse)
    bad = FactoredCharPoly([(Poly.from_ints(QQ, [-1, 1]), 10 ** 6)], QQ)
    with pytest.raises(InvalidHintError, match="does not reproduce"):
        decompose(fixture_m6, bad, "rational")


@pytest.mark.parametrize("form, orientation", [
    ("pseudo", None), ("split", "sideways"), ("rational", "")])
def test_decompose_refuses_unknown_form_and_orientation(fixture_m6, form, orientation):
    # "pseudo" was laid out as a form of that name, and any orientation
    # but "upper" as "lower"
    with pytest.raises(ValueError, match="unknown (form|orientation)"):
        decompose(fixture_m6, factor_charpoly(char_data(fixture_m6).p), form, orientation)


@pytest.mark.parametrize("irreducibility, error, message", [
    ("computed", InternalConsistencyError, "the cycles of factor '1 : -1 0 1'"),
    ("asserted", InvalidHintError, "hinted factor '1 : -1 0 1' is not irreducible"),
])
def test_reducible_factor_falls_short(irreducibility, error, message):
    # x^2 - 1 taken as one irreducible factor of diag(1, -1): neither
    # eigenvector spans a group of two, so no cycle covers the multiplicity.
    # Over QQ V is all of B, so there is no retry: a computed factorization
    # this wrong is a fault, an asserted one a bad hint
    a = Matrix.from_ints(QQ, [[1, 0], [0, -1]])
    bad = FactoredCharPoly([(Poly.from_ints(QQ, [-1, 0, 1]), 1)], QQ,
                           irreducibility=irreducibility)
    with pytest.raises(error, match=message) as exc:
        decompose(a, bad, "rational")
    assert "cover multiplicity 0 of 1" in str(exc.value)


def hint_from_truth(truth):
    """The exact factorization [(factor, multiplicity)] encoded in the
    ground-truth block multiset; avoids the hint-only degree-4 splits two
    equal-multiplicity quadratics would otherwise require."""
    mults = {}
    for (coeffs, k), count in truth.items():
        mults[coeffs] = mults.get(coeffs, 0) + k * count
    return [(Poly(QQ, list(coeffs)), m) for coeffs, m in mults.items()]


def test_mixed_factors_random_recovery():
    rng = rng_for("rational-random")
    for _ in range(20):
        j, truth = random_normal_form(rng, QQ, n_max=7)
        a = conjugate_random(rng, j)
        fc = factor_charpoly(char_data(a).p, hint=hint_from_truth(truth))
        dec = decompose(a, fc, "rational")
        assert block_multiset(dec) == truth
        assert verify(a, dec)


def test_pseudo_random_verifies():
    rng = rng_for("pseudo-random")
    for _ in range(10):
        j, truth = random_normal_form(rng, QQ, n_max=6)
        a = conjugate_random(rng, j)
        fc = factor_charpoly(char_data(a).p, hint=hint_from_truth(truth))
        dec = decompose(a, fc, "pseudo_rational")
        assert block_multiset(dec) == truth
        assert verify(a, dec)

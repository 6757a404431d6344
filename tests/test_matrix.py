import pytest

from conftest import (adjugate_oracle, columns, det, det_oracle, horner_eval,
                      identity, kernel_basis, lambda_i_minus, mat_add,
                      mat_inverse, mat_neg, mat_pow, mat_scale, mat_sub,
                      matpoly_reconstruct_q_adic, matpoly_reconstruct_shifts,
                      hstack, mul_vector, poly_at_matrix_oracle, poly_monic,
                      rand_matrix, rand_poly, rng_for, rref, trace, vstack,
                      SingularMatrixError)
from jnf.errors import NonMonicDivisorError
from jnf.fields import QQ, PrimeField
from jnf.matrix import (MatPoly, Matrix, horner_shift, matpoly_div_q,
                        poly_at_matrix, rank)
from jnf.poly import Poly


def M(rows):
    return Matrix.from_ints(QQ, rows)


def test_basic_ops():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert mat_add(a, b) == M([[1, 3], [4, 4]])
    assert mat_sub(a, b) == M([[1, 1], [2, 4]])
    assert mat_neg(a) == M([[-1, -2], [-3, -4]])
    assert mat_scale(a, QQ.from_int(2)) == M([[2, 4], [6, 8]])
    assert a * b == M([[2, 1], [4, 3]])
    assert trace(a) == QQ.from_int(5)
    assert mul_vector(a, [QQ.one, QQ.zero]) == [QQ.one, QQ.from_int(3)]
    assert mat_pow(a, 2) == a * a
    assert hstack(a, b) == M([[1, 2, 0, 1], [3, 4, 1, 0]])
    assert vstack(a, b).rows == 4


def test_from_columns_roundtrip():
    a = M([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_columns(QQ, columns(a), rows=2) == a


def test_prime_field_entries_must_be_residues():
    # 200 is no residue mod 7: in a product it would carry into the next
    # slot ([1, 2, 0, 0] for the first row of its square)
    f = PrimeField(7)
    for rows in ([[200, 0, 0, 0]] * 4, [[0, 7]], [[-1, 0]]):
        with pytest.raises(ValueError, match=r"residues in \[0, 7\)"):
            Matrix(f, rows)
    m = Matrix.from_ints(f, [[200, 0, 0, 0]] * 4)
    assert (m * m).data[0] == [2, 0, 0, 0]


def test_held_matrices_compare_as_values():
    # matrices held in the integer model compare their integers when they
    # share a denominator, and their values otherwise; a lift is kept
    half = Matrix(QQ, [[QQ.fraction(1, 2), QQ.one]])
    for other, equal in ((Matrix.from_lifted(QQ, [[1, 2]], 2), True),
                         (Matrix.from_lifted(QQ, [[2, 4]], 4), True),
                         (Matrix.from_lifted(QQ, [[1, 3]], 2), False),
                         (Matrix.from_lifted(QQ, [[1, 2]], 1), False)):
        for _ in range(2):
            assert (half == other) == (other == half) == equal
            assert half.lifted() is half.lifted()
    f = PrimeField(7)
    a = Matrix(f, [[3, 5], [6, 1]])
    assert a * a == Matrix(f, [[4, 6], [3, 3]]) != a * Matrix(f, [[1, 0], [0, 2]])
    assert Matrix.from_lifted(f, [[3]], 2) == Matrix(f, [[5]]) != Matrix.from_lifted(f, [[5]], 2)


def row_equivalent(a, r):
    """Same row space: rank(A) = rank(R) = rank([A; R])."""
    return rank(a) == rank(r) == rank(vstack(a, r))


def test_rref_known():
    a = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    reduced, rk, pivots = rref(a)
    assert rk == 2
    assert [c for _, c in pivots] == [0, 1]
    assert reduced == M([[1, 0, -1], [0, 1, 2], [0, 0, 0]])
    assert row_equivalent(a, reduced)


@pytest.mark.parametrize("field", [QQ, PrimeField(11)])
def test_rref_properties_random(field):
    rng = rng_for(f"rref-{field.char}")
    for _ in range(20):
        a = rand_matrix(rng, field, rng.randint(1, 5))
        reduced, rk, pivots = rref(a)
        assert row_equivalent(a, reduced)
        assert len(pivots) == rk
        for r, c in pivots:
            assert reduced.data[r][c] == field.one
            col = reduced.column(c)
            assert all(field.is_zero(x) for i, x in enumerate(col) if i != r)


def test_det_against_oracle():
    rng = rng_for("det")
    for _ in range(20):
        a = rand_matrix(rng, QQ, rng.randint(1, 4))
        assert det(a) == det_oracle(a)
    assert det(M([[1, 2], [2, 4]])) == QQ.zero


def test_inverse():
    a = M([[2, 1], [1, 1]])
    inv = mat_inverse(a)
    assert a * inv == identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        mat_inverse(M([[1, 2], [2, 4]]))


def test_adjugate_oracle_identity():
    # sanity check on the test oracle itself: A * adj(A) = det(A) * I
    rng = rng_for("adjugate")
    for _ in range(10):
        a = rand_matrix(rng, QQ, 3)
        assert a * adjugate_oracle(a) == mat_scale(identity(QQ, 3), det_oracle(a))


def test_kernel_basis():
    a = M([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert all(QQ.is_zero(x) for x in mul_vector(a, v))
    assert kernel_basis(identity(QQ, 3)) == []


def test_matpoly_lambda_i_minus():
    a = M([[1, 2], [3, 4]])
    mp = lambda_i_minus(a)
    assert mp.degree == 1
    assert mp.coeffs[0] == mat_neg(a)
    assert mp.coeffs[1] == identity(QQ, 2)


def test_horner_eval_matches_direct():
    rng = rng_for("horner-eval")
    for _ in range(10):
        coeffs = [rand_matrix(rng, QQ, 2) for _ in range(4)]
        mp = MatPoly(QQ, coeffs)
        x = QQ.fraction(rng.randint(-5, 5), rng.randint(1, 4))
        direct = Matrix.zeros(QQ, 2, 2)
        xk = QQ.one
        for c in coeffs:
            direct = mat_add(direct, mat_scale(c, xk))
            xk = QQ.mul(xk, x)
        assert horner_eval(mp, x) == direct


def test_horner_shift_reconstructs():
    rng = rng_for("horner-shift")
    for _ in range(10):
        mp = MatPoly(QQ, [rand_matrix(rng, QQ, 2) for _ in range(5)])
        a = QQ.from_int(rng.randint(-3, 3))
        shifts, = horner_shift(mp, [(a, mp.degree + 1)])
        assert matpoly_reconstruct_shifts(shifts, a, QQ) == mp


def test_matpoly_div_q():
    rng = rng_for("matpoly-div")
    for _ in range(10):
        mp = MatPoly(QQ, [rand_matrix(rng, QQ, 2) for _ in range(6)])
        q = poly_monic(rand_poly(rng, QQ, 2))
        c_blocks, = matpoly_div_q(mp, [(q, 3)])
        assert matpoly_reconstruct_q_adic(c_blocks, q, QQ) == mp
        assert all(len(c) == q.degree for c in c_blocks)
    with pytest.raises(NonMonicDivisorError):
        matpoly_div_q(mp, [(Poly.from_ints(QQ, [1, 2]), 1)])


def test_poly_at_matrix():
    a = M([[0, 1], [0, 0]])
    p = Poly.from_ints(QQ, [1, 2, 1])  # (x+1)^2
    assert poly_at_matrix(p, a) == M([[1, 2], [0, 1]])
    # Cayley-Hamilton by hand for a 2x2
    b = M([[1, 2], [3, 4]])
    char = Poly.from_ints(QQ, [-2, -5, 1])  # x^2 - 5x - 2
    assert poly_at_matrix(char, b).is_zero()


def test_poly_at_matrix_matches_oracle():
    # denominators in both A and p; non-monic, constant and zero p
    q = QQ.fraction
    a = Matrix(QQ, [[q(1, 2), q(-3), q(0)], [q(2, 3), q(5, 4), q(1)],
                    [q(-7, 6), q(0), q(3, 5)]])
    for coeffs in ([q(3, 2), q(-1, 5), q(0), q(2, 7)], [q(-5, 3)], []):
        p = Poly(QQ, coeffs)
        assert poly_at_matrix(p, a) == poly_at_matrix_oracle(p, a)
    assert poly_at_matrix(Poly(QQ, [q(-5, 3)]), a) == mat_scale(
        identity(QQ, 3), q(-5, 3))
    assert poly_at_matrix(Poly.zero(QQ), a) == Matrix.zeros(QQ, 3, 3)
    rng = rng_for("poly-at-matrix")
    for _ in range(10):
        n = rng.randint(1, 4)
        a = Matrix(QQ, [[q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                        for _ in range(n)])
        p = Poly(QQ, [q(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 5))])
        assert poly_at_matrix(p, a) == poly_at_matrix_oracle(p, a)


def test_poly_at_matrix_gf7_unreduced_residues():
    f = PrimeField(7)
    rng = rng_for("poly-at-matrix-gf7")
    for _ in range(10):
        a = rand_matrix(rng, f, rng.randint(1, 5))
        p = Poly.from_ints(f, [rng.randint(0, 6) for _ in range(rng.randint(0, 5))])
        got = poly_at_matrix(p, a)
        assert got.data == poly_at_matrix_oracle(p, a).data
        assert all(0 <= x < 7 for row in got.data for x in row)
    # Cayley-Hamilton: x^2 - 5x - 2 is the charpoly of [[1, 2], [3, 4]]; the
    # last diagonal addition reaches 7 on the diagonal and reduces it, so
    # the integer model holds rows that are all zero
    a = Matrix.from_ints(f, [[1, 2], [3, 4]])
    got = poly_at_matrix(Poly.from_ints(f, [-2, -5, 1]), a)
    rows, _ = got.lifted()
    assert rows == [[0, 0], [0, 0]]
    assert got.is_zero()
    assert got.data == [[0, 0], [0, 0]]

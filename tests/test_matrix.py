import pytest

from conftest import (adjugate_oracle, columns, det, det_oracle, horner_eval,
                      kernel_basis, lambda_i_minus, mat_inverse, mat_pow,
                      matpoly_reconstruct_q_adic, matpoly_reconstruct_shifts,
                      rand_matrix, rand_poly, rng_for, rref, trace, vstack)
from jnf.errors import NonMonicDivisorError, SingularMatrixError
from jnf.fields import QQ, PrimeField
from jnf.matrix import (MatPoly, Matrix, ReducedStack, horner_shift,
                        matpoly_div_q, poly_at_matrix, rank)
from jnf.poly import Poly


def M(rows):
    return Matrix.from_ints(QQ, rows)


def test_basic_ops():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a + b == M([[1, 3], [4, 4]])
    assert a - b == M([[1, 1], [2, 4]])
    assert -a == M([[-1, -2], [-3, -4]])
    assert a.scale(QQ.from_int(2)) == M([[2, 4], [6, 8]])
    assert a * b == M([[2, 1], [4, 3]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    assert trace(a) == QQ.from_int(5)
    assert a.mul_vector([QQ.one, QQ.zero]) == [QQ.one, QQ.from_int(3)]
    assert mat_pow(a, 2) == a * a
    assert a.hstack(b).cols == 4
    assert vstack(a, b).rows == 4


def test_from_columns_roundtrip():
    a = M([[1, 2, 3], [4, 5, 6]])
    assert Matrix.from_columns(QQ, columns(a), rows=2) == a


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
    assert a * inv == Matrix.identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        mat_inverse(M([[1, 2], [2, 4]]))


def test_adjugate_oracle_identity():
    # sanity check on the test oracle itself: A * adj(A) = det(A) * I
    rng = rng_for("adjugate")
    for _ in range(10):
        a = rand_matrix(rng, QQ, 3)
        assert a * adjugate_oracle(a) == Matrix.identity(QQ, 3).scale(det_oracle(a))


def test_kernel_basis():
    a = M([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(a)
    assert len(basis) == 2
    for v in basis:
        assert all(QQ.is_zero(x) for x in a.mul_vector(v))
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_matpoly_lambda_i_minus():
    a = M([[1, 2], [3, 4]])
    mp = lambda_i_minus(a)
    assert mp.degree == 1
    assert mp.coeff(0) == -a
    assert mp.coeff(1) == Matrix.identity(QQ, 2)


def test_horner_eval_matches_direct():
    rng = rng_for("horner-eval")
    for _ in range(10):
        coeffs = [rand_matrix(rng, QQ, 2) for _ in range(4)]
        mp = MatPoly(QQ, coeffs)
        x = QQ.fraction(rng.randint(-5, 5), rng.randint(1, 4))
        direct = Matrix.zeros(QQ, 2, 2)
        xk = QQ.one
        for c in coeffs:
            direct = direct + c.scale(xk)
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
        q = rand_poly(rng, QQ, 2).monic()
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


def test_reduced_stack_roundtrip_and_reduce():
    b0 = M([[1, 0, 2], [0, 1, 0]])
    b1 = M([[0, 0, 0], [1, 0, 2]])
    st = ReducedStack.from_blocks([b0, b1])
    assert st.num_chains == 3
    assert st.blocks() == [b0, b1]
    assert st.chain_segments(2) == [[QQ.from_int(2), QQ.zero],
                                    [QQ.zero, QQ.from_int(2)]]
    reduced, top = st.reduce()
    # chains 0 and 1 pivot in the top block; chain 2 is dependent on 0 there
    assert top == [0, 1]
    assert len(reduced.chain_rows[2]) == 4


def test_reduced_stack_shift_and_cut():
    b0 = M([[1, 0], [0, 1]])
    b1 = M([[0, 3], [4, 0]])
    st = ReducedStack.from_blocks([b0, b1])
    st.shift_down(0)
    segs = st.chain_segments(0)
    assert segs[0] == [QQ.zero, QQ.zero]
    assert segs[1] == [QQ.one, QQ.zero]   # old top segment moved down
    st.shift_down(1)
    assert st.blocks()[0].is_zero()
    st.cut_top()
    assert st.levels == 1
    assert st.blocks()[0] == M([[1, 0], [0, 1]])
    # single-level shift retires the chain
    st.shift_down(0)
    assert st.num_chains == 1


def test_reduced_stack_drop_zero_chains():
    st = ReducedStack.from_blocks([M([[1, 0], [0, 0]])])
    st.drop_zero_chains()
    assert st.num_chains == 1
    assert st.chain_segments(0) == [[QQ.one, QQ.zero]]

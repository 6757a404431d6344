import pytest

from conftest import rand_poly, rng_for
from jnf.errors import (FieldMismatchError, NonMonicDivisorError,
                        UnsupportedFieldError)
from jnf.fields import QQ, PrimeField
from jnf.poly import (Poly, poly_derivative, poly_euclid_div, poly_gcd,
                      squarefree_decomposition)


def P(*ints):
    return Poly.from_ints(QQ, list(ints))


def test_zero_poly_degree_sentinel():
    z = Poly.zero(QQ)
    assert z.degree is None
    assert z.is_zero
    assert Poly.from_ints(QQ, [0, 0]).degree is None


def test_euclid_div_linear():
    # x^2 - 2 = (x + 1)(x - 1) - 1
    q, r = poly_euclid_div(P(-2, 0, 1), P(-1, 1))
    assert q == P(1, 1)
    assert r == P(-1)


def test_euclid_div_repeated_factor_exact():
    # (x-2)^2 (x^2-2)^2 is divisible by x^2-2
    p = P(-2, 1).pow(2) * P(-2, 0, 1).pow(2)
    q, r = poly_euclid_div(p, P(-2, 0, 1))
    assert r.is_zero
    assert q * P(-2, 0, 1) == p


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_euclid_div_reconstructs_random(field):
    rng = rng_for(f"euclid-{field.char}")
    for _ in range(25):
        a = rand_poly(rng, field, 7)
        b = rand_poly(rng, field, 3).monic()
        q, r = poly_euclid_div(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_euclid_div_errors():
    with pytest.raises(NonMonicDivisorError):
        poly_euclid_div(P(1, 1), P(1, 2))
    with pytest.raises(NonMonicDivisorError):
        poly_euclid_div(P(1, 1), Poly.zero(QQ))
    with pytest.raises(FieldMismatchError):
        poly_euclid_div(P(1, 1), Poly.from_ints(PrimeField(5), [1, 1]))


def test_derivative_basic():
    assert poly_derivative(P(0, 0, 0, 1)) == P(0, 0, 3)
    assert poly_derivative(P(5)).is_zero
    f3 = PrimeField(3)
    # over F_3 the x^3 term is annihilated
    assert poly_derivative(Poly.from_ints(f3, [0, 1, 0, 1])) == Poly.from_ints(f3, [1])


def test_derivative_linear_and_product_rule():
    rng = rng_for("derivative")
    for _ in range(20):
        a, b = rand_poly(rng, QQ, 5), rand_poly(rng, QQ, 4)
        assert poly_derivative(a + b) == poly_derivative(a) + poly_derivative(b)
        assert (poly_derivative(a * b)
                == poly_derivative(a) * b + a * poly_derivative(b))


def test_squarefree_decomposition_examples():
    p = P(-2, 1).pow(2) * P(-2, 0, 1).pow(2)
    parts = squarefree_decomposition(p)
    assert [(part.coeffs, m) for part, m in parts] == [
        ((P(-2, 1) * P(-2, 0, 1)).coeffs, 2)]
    assert squarefree_decomposition(P(-2, 0, 1)) == [(P(-2, 0, 1), 1)]
    assert squarefree_decomposition(P(-1, 1).pow(3)) == [(P(-1, 1), 3)]


def test_squarefree_reconstructs_random():
    rng = rng_for("squarefree")
    for _ in range(15):
        p = rand_poly(rng, QQ, 2).monic() * rand_poly(rng, QQ, 1).pow(rng.randint(1, 3))
        parts = squarefree_decomposition(p)
        prod = Poly.one(QQ)
        for part, m in parts:
            prod = prod * part.pow(m)
        assert prod == p.monic()
        # parts pairwise coprime and squarefree
        for i, (pi, _) in enumerate(parts):
            assert poly_gcd(pi, poly_derivative(pi)).degree == 0
            for pj, _ in parts[i + 1:]:
                assert poly_gcd(pi, pj).degree == 0


def test_squarefree_small_characteristic_rejected():
    f3 = PrimeField(3)
    with pytest.raises(UnsupportedFieldError):
        squarefree_decomposition(Poly.from_ints(f3, [0, 1, 0, 0, 1]))


import pytest

from conftest import (from_sympy, poly_add, poly_derivative, poly_divmod,
                      poly_gcd_oracle, poly_monic, poly_mul, poly_one, poly_pow,
                      rand_poly, rng_for, squarefree_oracle, to_sympy)
from jnf.errors import InternalConsistencyError, UnsupportedFieldError
from jnf.fields import QQ, PrimeField
from jnf.poly import (Poly, int_product, int_quo, int_rem, monic_poly, poly_gcd,
                      squarefree_decomposition)


def P(*ints):
    return Poly.from_ints(QQ, list(ints))


def test_zero_poly_degree_sentinel():
    z = Poly.zero(QQ)
    assert z.degree is None
    assert z.is_zero
    assert Poly.from_ints(QQ, [0, 0]).degree is None


# the oracles of conftest that the kernels are checked against

def test_euclid_div_linear():
    # x^2 - 2 = (x + 1)(x - 1) - 1
    q, r = poly_divmod(P(-2, 0, 1), P(-1, 1))
    assert q == P(1, 1)
    assert r == P(-1)


def test_euclid_div_repeated_factor_exact():
    # (x-2)^2 (x^2-2)^2 is divisible by x^2-2
    p = poly_mul(poly_pow(P(-2, 1), 2), poly_pow(P(-2, 0, 1), 2))
    q, r = poly_divmod(p, P(-2, 0, 1))
    assert r.is_zero
    assert poly_mul(q, P(-2, 0, 1)) == p


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_euclid_div_reconstructs_random(field):
    # against int_rem too: over F_p the Euclidean remainder, over Z a
    # pseudo-remainder, a nonzero multiple of it
    rng = rng_for(f"euclid-{field.char}")
    for _ in range(25):
        a = rand_poly(rng, field, 7)
        b = poly_monic(rand_poly(rng, field, 3))
        q, r = poly_divmod(a, b)
        assert poly_add(poly_mul(q, b), r) == a
        assert r.is_zero or r.degree < b.degree
        (ai, bi), _ = field.lift([a.coeffs, b.coeffs])
        ri = int_rem(ai, bi, field.char)
        assert poly_monic(r) == (monic_poly(field, ri) if ri else Poly.zero(field))


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
        assert poly_derivative(poly_add(a, b)) == poly_add(poly_derivative(a),
                                                           poly_derivative(b))
        assert (poly_derivative(poly_mul(a, b))
                == poly_add(poly_mul(poly_derivative(a), b),
                            poly_mul(a, poly_derivative(b))))


def lowered(parts, field=QQ):
    return [(monic_poly(field, part), m) for part, m in parts]


def test_squarefree_decomposition_examples():
    p = poly_mul(poly_pow(P(-2, 1), 2), poly_pow(P(-2, 0, 1), 2))
    assert lowered(squarefree_decomposition(p)) == [(poly_mul(P(-2, 1), P(-2, 0, 1)), 2)]
    assert lowered(squarefree_decomposition(P(-2, 0, 1))) == [(P(-2, 0, 1), 1)]
    assert lowered(squarefree_decomposition(poly_pow(P(-1, 1), 3))) == [(P(-1, 1), 3)]
    # parts come out primitive with a positive leading coefficient
    assert squarefree_decomposition(poly_mul(poly_pow(P(1, 2), 2), P(3))) == [([1, 2], 2)]


def test_squarefree_reconstructs_random():
    rng = rng_for("squarefree")
    for _ in range(15):
        p = poly_mul(poly_monic(rand_poly(rng, QQ, 2)),
                     poly_pow(rand_poly(rng, QQ, 1), rng.randint(1, 3)))
        parts = lowered(squarefree_decomposition(p))
        assert parts == squarefree_oracle(p)
        assert poly_mul(*(poly_pow(part, m) for part, m in parts)) == poly_monic(p)
        # parts pairwise coprime and squarefree
        for i, (pi, _) in enumerate(parts):
            assert poly_gcd(pi, poly_derivative(pi)).degree == 0
            for pj, _ in parts[i + 1:]:
                assert poly_gcd(pi, pj).degree == 0


def test_squarefree_small_characteristic_rejected():
    f3 = PrimeField(3)
    with pytest.raises(UnsupportedFieldError):
        squarefree_decomposition(Poly.from_ints(f3, [0, 1, 0, 0, 1]))


def test_squarefree_over_prime_field_matches_oracle():
    f = PrimeField(101)
    rng = rng_for("squarefree-gf101")
    for _ in range(15):
        p = poly_mul(rand_poly(rng, f, 3), poly_pow(rand_poly(rng, f, 2), rng.randint(1, 3)))
        assert lowered(squarefree_decomposition(p), f) == squarefree_oracle(p)


def test_squarefree_edge_cases():
    assert squarefree_decomposition(P(5)) == []
    with pytest.raises(ValueError):
        squarefree_decomposition(Poly.zero(QQ))
    x = P(0, 1)
    for k in (1, 2, 7):
        assert lowered(squarefree_decomposition(poly_pow(x, k))) == [(x, k)]
    third = Poly.x_minus(QQ, QQ.fraction(1, 3))
    assert lowered(squarefree_decomposition(poly_pow(third, 16))) == [(third, 16)]
    # large denominators: (x - a)^2 (x^2 + b) with 80-bit a and b
    a, b = QQ.fraction(3**50, 2**80 + 1), QQ.fraction(7**30, 5**40)
    p = poly_mul(poly_pow(Poly.x_minus(QQ, a), 2), Poly(QQ, [b, QQ.zero, QQ.one]))
    assert lowered(squarefree_decomposition(p)) == squarefree_oracle(p) == [
        (Poly(QQ, [b, QQ.zero, QQ.one]), 1), (Poly.x_minus(QQ, a), 2)]


def sympy_sqf(p):
    _, parts = to_sympy(p).sqf_list()
    return sorted((from_sympy(q).coeffs, m) for q, m in parts)


def random_product(rng, deg_max, bits, mults):
    """(x - r)^m and random integer factors q^m with ``bits``-bit
    coefficients, m drawn from ``mults``; the root 0 sometimes."""
    p = poly_one(QQ)
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(1, deg_max)
        q = Poly.from_ints(QQ, [rng.randint(-2**bits, 2**bits) for _ in range(d)]
                           + [rng.randint(1, 2**bits)])
        p = poly_mul(p, poly_pow(q, rng.choice(mults)))
    if rng.random() < 0.5:
        r = QQ.fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = poly_mul(p, poly_pow(Poly.x_minus(QQ, r), rng.choice(mults)))
    return p


def test_squarefree_matches_sympy_and_oracle():
    rng = rng_for("squarefree-sympy")
    for _ in range(20):
        p = random_product(rng, 4, rng.choice([3, 30, 100]), [1, 2, 3, 4])
        ours = lowered(squarefree_decomposition(p))
        assert sorted((q.coeffs, m) for q, m in ours) == sympy_sqf(p)
        assert ours == squarefree_oracle(p)


def test_squarefree_degree_40_big_coefficients():
    # a degree-38 factor with 24-bit coefficients times (x - 5/3)^2: the gcd
    # runs the whole remainder sequence.  A guard against unbounded work,
    # without a timing assertion (the PRS takes about 1/50 of the time of
    # the Euclidean Yun on Fractions here)
    rng = rng_for("squarefree-deg40")
    q = Poly.from_ints(QQ, [rng.randint(-2**24, 2**24) for _ in range(38)]
                       + [rng.randint(1, 2**24)])
    p = poly_monic(poly_mul(q, poly_pow(Poly.x_minus(QQ, QQ.fraction(5, 3)), 2)))
    assert p.degree == 40
    parts = lowered(squarefree_decomposition(p))
    assert [m for _, m in parts] == [1, 2]
    assert sorted((q.coeffs, m) for q, m in parts) == sympy_sqf(p)


def test_int_quo_exact_and_inexact():
    # (2x + 1)(3x - 2) / (2x + 1) over Z, and by x - 2 over GF(7)
    assert int_quo([-2, -1, 6], [1, 2]) == [-2, 3]
    assert int_quo([], [1, 2]) == []
    assert int_quo([2, 4, 1], [5, 1], 7) == [6, 1]     # x^2 + 4x + 2 = (x + 5)(x + 6)
    for a, b, p in (([-2, -1, 6], [1, 3], 0),    # a remainder is left
                    ([1, 0, 3], [0, 2], 0),      # integral steps, remainder 1
                    ([1, 1], [0, 2], 0),         # a step is not integral
                    ([1], [0, 1], 0),            # divisor of higher degree
                    ([1, 0, 1], [1, 1], 7)):
        with pytest.raises(InternalConsistencyError):
            int_quo(a, b, p)


@pytest.mark.parametrize("field", [QQ, PrimeField(13)])
def test_int_gcd_matches_oracle(field):
    rng = rng_for(f"int-gcd-{field.char}")
    for _ in range(25):
        c = rand_poly(rng, field, rng.randint(0, 3))
        a, b = poly_mul(rand_poly(rng, field, 4), c), poly_mul(rand_poly(rng, field, 3), c)
        assert poly_gcd(a, b) == poly_gcd_oracle(a, b)
    zero = Poly.zero(field)
    assert poly_gcd(zero, zero).is_zero
    a = rand_poly(rng, field, 3)
    assert poly_gcd(a, zero) == poly_gcd(zero, a) == poly_monic(a)


def test_int_product_matches_convolution():
    rng = rng_for("int-product")
    for _ in range(30):
        bits = rng.choice([1, 8, 64])
        factors = [([rng.randint(-2**bits, 2**bits) for _ in range(rng.randint(1, 4))]
                    + [rng.choice([-1, 1]) * rng.randint(1, 2**bits)], rng.randint(0, 3))
                   for _ in range(rng.randint(0, 3))]
        want = [1]
        for a, m in factors:
            for _ in range(m):
                out = [0] * (len(want) + len(a) - 1)
                for i, x in enumerate(want):
                    for j, y in enumerate(a):
                        out[i + j] += x * y
                want = out
        assert int_product(factors) == want

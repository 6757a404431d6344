import itertools
import math
import time

import pytest

from conftest import (IRREDUCIBLE_QUADRATICS, from_sympy, poly_divmod, poly_mul,
                      poly_one, poly_pow, rng_for, to_sympy)
from jnf import factor
from jnf.errors import InvalidHintError, NeedsFactorizationError, ParseError
from jnf.factor import (_is_irreducible_mod_p, canonical_factor_order, factor_charpoly,
                        format_factor_hint, hint_bits, parse_factor_hints)
from jnf.fields import QQ, PrimeField
from jnf.poly import Poly


def P(*ints):
    return Poly.from_ints(QQ, list(ints))


def as_ints(factored):
    return [(tuple(q.coeffs), m) for q, m in factored.factors]


def test_linear_roots_integer():
    # (x-1)(x-2)^2
    p = poly_mul(P(-1, 1), poly_pow(P(-2, 1), 2))
    fc = factor_charpoly(p)
    assert fc.irreducibility == "computed"
    assert as_ints(fc) == [((QQ.from_int(-2), QQ.one), 2),
                           ((QQ.from_int(-1), QQ.one), 1)]
    assert fc.product() == p


def test_fractional_root():
    # (x - 1/2)(x + 3)
    p = poly_mul(Poly(QQ, [QQ.fraction(-1, 2), QQ.one]), P(3, 1))
    fc = factor_charpoly(p)
    coeff_sets = {tuple(QQ.fmt(c) for c in q.coeffs) for q, _ in fc.factors}
    assert coeff_sets == {("-1/2", "1"), ("3", "1")}


def test_irreducible_quadratic_kept_whole():
    p = poly_mul(poly_pow(P(-2, 0, 1), 2), poly_pow(P(-2, 1), 2))
    fc = factor_charpoly(p)
    assert as_ints(fc) == [
        (tuple(QQ.from_int(k) for k in (-2, 0, 1)), 2),
        ((QQ.from_int(-2), QQ.one), 2),
    ]


def test_reducible_quadratic_is_split():
    fc = factor_charpoly(poly_mul(P(-2, 0, 1), P(6, -5, 1)))  # second = (x-2)(x-3)
    degs = sorted((q.degree, m) for q, m in fc.factors)
    assert degs == [(1, 1), (1, 1), (2, 1)]


def test_cubic_irreducible_needs_hint():
    p = P(-2, 0, 0, 1)  # x^3 - 2
    with pytest.raises(NeedsFactorizationError) as exc:
        factor_charpoly(p)
    assert exc.value.residual == p


def test_needs_factorization_residual_excludes_found_roots():
    p = poly_mul(P(-1, 1), P(-2, 0, 0, 1))
    with pytest.raises(NeedsFactorizationError) as exc:
        factor_charpoly(p)
    assert exc.value.residual == P(-2, 0, 0, 1)


def test_roots_with_large_common_denominator():
    # prod (x - k/30): the search over y = lcm*x took 17.5 s; candidates
    # u/v with u | c_0 and v | c_n of the primitive polynomial take ms
    roots = [QQ.fraction(k, 30) for k in range(1, 9)]
    p = poly_mul(*(Poly.x_minus(QQ, r) for r in roots))
    start = time.perf_counter()
    fc = factor_charpoly(p)
    assert time.perf_counter() - start < 1.0
    assert sorted(QQ.neg(q.coeffs[0]) for q, _ in fc.factors) == roots
    assert all(q.degree == 1 and m == 1 for q, m in fc.factors)


def test_roots_of_highly_composite_constant():
    # (x - N)(x - 1), N the product of the primes below 200: 2 * 2^46
    # divisors u/v, which the divisor enumeration refused
    n = math.prod(q for q in range(2, 200) if all(q % d for d in range(2, q)))
    start = time.perf_counter()
    fc = factor_charpoly(poly_mul(P(-n, 1), P(-1, 1)))
    assert time.perf_counter() - start < 1.0
    assert sorted(QQ.neg(q.coeffs[0]) for q, _ in fc.factors) == [1, n]


def test_roots_when_the_small_primes_are_bad():
    # prod (x - i/30030), i = 1..16: 2, 3, 5, 7, 11 and 13 divide the
    # leading coefficient, so p = 17 is the first prime the search can use,
    # and it has all 16 roots
    roots = [QQ.fraction(i, 30030) for i in range(1, 17)]
    fc = factor_charpoly(poly_mul(*(Poly.x_minus(QQ, r) for r in roots)))
    assert sorted(QQ.neg(q.coeffs[0]) for q, _ in fc.factors) == roots
    assert all(q.degree == 1 and m == 1 for q, m in fc.factors)


def test_many_small_rational_roots():
    # 40 distinct roots u/v with |u| <= 50 and v <= 40, which gave the
    # divisor enumeration far too many candidates
    rng = rng_for("forty-roots")
    roots = set()
    while len(roots) < 40:
        roots.add(QQ.fraction(rng.randint(-50, 50), rng.randint(1, 40)))
    roots = sorted(roots)
    fc = factor_charpoly(poly_mul(*(Poly.x_minus(QQ, r) for r in roots)))
    assert sorted(QQ.neg(q.coeffs[0]) for q, _ in fc.factors) == roots
    assert all(q.degree == 1 and m == 1 for q, m in fc.factors)


def test_quadratic_with_many_divisors_kept_whole():
    # 17^5 19^5 23^5 x^2 + (2*3*5*7*11*13)^3: 2 * 4^6 * 6^3 divisors u/v,
    # and no rational root, so the quadratic is irreducible
    lead = (17 * 19 * 23) ** 5
    p = Poly(QQ, [QQ.fraction((2 * 3 * 5 * 7 * 11 * 13) ** 3, lead), QQ.zero, QQ.one])
    assert as_ints(factor_charpoly(p)) == [(tuple(p.coeffs), 1)]
    fc = factor_charpoly(poly_mul(p, p, P(-1, 1)))
    assert as_ints(fc) == [(tuple(p.coeffs), 2), ((QQ.from_int(-1), QQ.one), 1)]


def test_root_zero_beside_a_quadratic_with_many_divisors():
    # x q (x - 1)^2, q = x^2 + 30030^3 / (17 19 23)^5: the part x q of
    # multiplicity 1 splits into x and q
    lead = (17 * 19 * 23) ** 5
    q = Poly(QQ, [QQ.fraction((2 * 3 * 5 * 7 * 11 * 13) ** 3, lead), QQ.zero, QQ.one])
    fc = factor_charpoly(poly_mul(q, P(0, 1), poly_pow(P(-1, 1), 2)))
    assert as_ints(fc) == [(tuple(q.coeffs), 1), ((QQ.from_int(-1), QQ.one), 2),
                           ((QQ.zero, QQ.one), 1)]
    assert fc.product() == poly_mul(q, P(0, 1), poly_pow(P(-1, 1), 2))


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_matches_brute_force(p):
    f = PrimeField(p)
    monic = {d: [Poly(f, list(c) + [1]) for c in itertools.product(range(p), repeat=d)]
             for d in range(1, 6)}
    for d in range(2, 6):
        for q in monic[d]:
            reducible = any(poly_divmod(q, r)[1].is_zero
                            for k in range(1, d // 2 + 1) for r in monic[k])
            assert _is_irreducible_mod_p(q) == (not reducible), q


@pytest.mark.parametrize("p", [101, 2**31 - 1, 2**61 - 1])
def test_rabin_matches_sympy(p):
    # random monic polynomials of degree 2..8; residues this wide size
    # int_product's Kronecker digits from p^2 times the degree
    import sympy

    f = PrimeField(p)
    rng = rng_for(f"rabin-sympy-{p}")
    x = sympy.Symbol("x")
    seen = set()
    for _ in range(20):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 8))] + [1]
        want = sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible
        assert _is_irreducible_mod_p(Poly.from_ints(f, coeffs)) == want, coeffs
        seen.add(want)
    assert seen == {True, False}


def test_prime_field_hint_must_be_irreducible():
    f5 = PrimeField(5)
    q = Poly.from_ints(f5, [2, 0, 1])              # x^2 + 2: irreducible mod 5
    assert factor_charpoly(q, hint=[(q, 1)]).irreducibility == "asserted"
    r = Poly.from_ints(f5, [1, 0, 0, 0, 1])        # x^4 + 1 = (x^2 + 2)(x^2 + 3)
    with pytest.raises(InvalidHintError, match="not irreducible"):
        factor_charpoly(r, hint=[(r, 1)])


def test_hint_validated_by_multiply_back():
    p = poly_mul(P(-2, 0, 0, 1), P(-1, 1))
    hint = [(P(-2, 0, 0, 1), 1), (P(-1, 1), 1)]
    fc = factor_charpoly(p, hint=hint)
    assert fc.irreducibility == "asserted"
    assert fc.product() == p
    with pytest.raises(InvalidHintError):
        factor_charpoly(p, hint=[(P(-2, 0, 0, 1), 1), (P(-2, 1), 1)])
    with pytest.raises(InvalidHintError):
        factor_charpoly(p, hint=[(P(-2, 0, 0, 2), 1), (P(-1, 1), 1)])
    with pytest.raises(InvalidHintError):
        factor_charpoly(p, hint=[(P(-2, 0, 0, 1), 0), (P(-1, 1), 1)])


def test_hint_degree_checked_before_the_product(monkeypatch):
    # (x - 1)^(10^6) would have about 10^12 bits of Kronecker digits
    def refuse(factors):
        raise AssertionError("product formed for a hint of the wrong degree")

    monkeypatch.setattr(factor, "int_product", refuse)
    with pytest.raises(InvalidHintError, match="do not multiply back"):
        factor_charpoly(P(-1, 1), hint=[(P(-1, 1), 10 ** 6)])


def test_prime_field_is_hint_only():
    f5 = PrimeField(5)
    p = Poly.from_ints(f5, [1, 0, 1])  # x^2 + 1 = (x-2)(x-3) over F_5
    with pytest.raises(NeedsFactorizationError):
        factor_charpoly(p)
    hint = [(Poly.from_ints(f5, [-2, 1]), 1), (Poly.from_ints(f5, [-3, 1]), 1)]
    fc = factor_charpoly(p, hint=hint)
    assert fc.irreducibility == "asserted"
    # degree 1 goes through without a hint
    assert factor_charpoly(Poly.from_ints(f5, [3, 1])).irreducibility == "computed"


def test_canonical_order():
    factors = [(P(-2, 1), 2), (P(-2, 0, 1), 2), (P(-1, 1), 3)]
    ordered = canonical_factor_order(QQ, factors)
    assert [(q.degree, m) for q, m in ordered] == [(2, 2), (1, 3), (1, 2)]
    # ties broken deterministically by coefficient text
    tied = canonical_factor_order(QQ, [(P(-3, 1), 1), (P(-1, 1), 1)])
    assert [QQ.fmt(q.coeffs[0]) for q, _ in tied] == ["-1", "-3"]


def test_random_products_refactor():
    rng = rng_for("factor-random")
    quads = [Poly.from_ints(QQ, c) for c in IRREDUCIBLE_QUADRATICS]
    for _ in range(20):
        expected = {}
        p = poly_one(QQ)
        for root in rng.sample(range(-4, 5), rng.randint(1, 3)):
            m = rng.randint(1, 2)
            q = Poly.x_minus(QQ, QQ.from_int(root))
            expected[tuple(q.coeffs)] = m
            p = poly_mul(p, poly_pow(q, m))
        # quadratic multiplicities kept distinct: two coprime quadratics in
        # one squarefree part would need a degree-4 split, which is hint-only
        chosen = rng.sample(quads, rng.randint(0, 2))
        for q, m in zip(chosen, rng.sample([1, 2, 3], len(chosen))):
            expected[tuple(q.coeffs)] = m
            p = poly_mul(p, poly_pow(q, m))
        fc = factor_charpoly(p)
        assert {tuple(q.coeffs): m for q, m in fc.factors} == expected
        assert fc.product() == p


def random_monic_product(rng):
    """A monic product of powers (multiplicities up to 4) of linear factors
    (the root 0, small roots, roots whose numerator and denominator have up
    to 200 bits), quadratics with coefficients of up to 8 bits, reducible or
    not, and x^3 - 2."""
    p = poly_one(QQ)
    for _ in range(rng.randint(2, 5)):
        kind = rng.random()
        if kind < 0.1:
            q = P(0, 1)
        elif kind < 0.25:
            q = Poly.x_minus(QQ, QQ.fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elif kind < 0.6:
            q = Poly.x_minus(QQ, QQ.fraction(rng.choice([-1, 1]) * rng.getrandbits(200),
                                             rng.getrandbits(200) | 1))
        elif kind < 0.9:
            bits = rng.choice([2, 8])
            q = Poly(QQ, [QQ.fraction(rng.randint(-2**bits, 2**bits),
                                      rng.randint(1, 2**bits)) for _ in range(2)]
                     + [QQ.one])
        else:
            q = P(-2, 0, 0, 1)
        p = poly_mul(p, poly_pow(q, rng.randint(1, 4)))
    return p


def test_factor_matches_sympy():
    # every part whose irrational factors have total degree <= 2 comes out
    # as sympy's factors; otherwise the part of least multiplicity that is
    # stuck is the residual, the product of its irrational factors
    rng = rng_for("factor-sympy")
    for _ in range(30):
        p = random_monic_product(rng)
        _, parts = to_sympy(p).factor_list()
        want = {(tuple(from_sympy(q).coeffs), m) for q, m in parts}
        stuck = {}
        for q, m in parts:
            if q.degree() > 1:
                stuck[m] = poly_mul(stuck.get(m, P(1)), from_sympy(q))
        stuck = {m: q for m, q in stuck.items() if q.degree > 2}
        if stuck:
            with pytest.raises(NeedsFactorizationError, match="stuck") as exc:
                factor_charpoly(p)
            m = min(stuck)
            assert (exc.value.residual, exc.value.multiplicity) == (stuck[m], m)
        else:
            fc = factor_charpoly(p)
            assert {(tuple(q.coeffs), m) for q, m in fc.factors} == want
            assert fc.product() == p


def test_hint_parse_roundtrip():
    text = "# comment\n2 : -2 0 1\n1 : -1/2 1\n"
    hints = [(P(-2, 0, 1), 2), (Poly(QQ, [QQ.fraction(-1, 2), QQ.one]), 1)]
    p = poly_mul(poly_pow(hints[0][0], 2), hints[1][0])
    assert parse_factor_hints(text, p) == hints
    rendered = "\n".join(format_factor_hint(q, m) for q, m in hints)
    assert parse_factor_hints(rendered, p) == hints


def test_hint_parse_errors():
    p = P(-2, 0, 1)
    with pytest.raises(ParseError):
        parse_factor_hints("2 -2 0 1", p)
    with pytest.raises(ParseError):
        parse_factor_hints("x : 1 1", p)
    with pytest.raises(ParseError):
        parse_factor_hints("2 :", p)
    with pytest.raises(ParseError, match="hint line 1, coefficient 1: bad"):
        parse_factor_hints("2 : a b", p)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(2**61 - 1)],
                         ids=["QQ", "GF7", "GF(2^61-1)"])
def test_hint_coefficients_bounded_by_the_charpoly(field):
    # hint_bits(p) covers every coefficient of every monic factor of p, so
    # the factors' own lines parse; a token past it is refused before its
    # value is formed, naming the line: 10^30000000 took 48 s of CPU to
    # form before CPython's digit limit refused it
    rng = rng_for(f"hint-bits-{field.char}")
    for _ in range(10):
        factors = [(Poly(field, [field.from_int(rng.randint(-10**6, 10**6)),
                                 field.fraction(rng.randint(-99, 99), rng.randint(1, 99))
                                 if not field.char else field.from_int(rng.randint(0, 9)),
                                 field.one]), rng.randint(1, 2)) for _ in range(2)]
        p = poly_mul(*(poly_pow(q, m) for q, m in factors))
        text = "".join(format_factor_hint(q, m) + "\n" for q, m in factors)
        assert parse_factor_hints(text, p) == factors
    bits = hint_bits(p)
    # over F_p the residue is checked, and 2^(bits + 1) reduces to one
    for token in ([] if field.char else [str(2 ** (bits + 1))]) + [
            "1e30000000", "1" * 10**6]:
        start = time.perf_counter()
        with pytest.raises(ParseError,
                           match=f"hint line 2, coefficient 2 exceeds {bits} bits"):
            parse_factor_hints(f"1 : 1 1\n1 : 2 {token} 1\n", p)
        assert time.perf_counter() - start < 0.1


def test_hint_errors_name_the_factor_in_hint_syntax():
    # a non-monic factor was printed as Poly([...]), unlike every other
    # hint error; a rational root past CPython's digit limit (4300 by
    # default) made its message raise instead
    p = P(-1, 0, 1)
    for text, name in (("1 : 2 0 2", "1 : 2 0 2"), ("1 : 0", "1 : 0")):
        with pytest.raises(InvalidHintError, match=f"hinted factor '{name}' is not monic"):
            factor_charpoly(p, hint=parse_factor_hints(text, p))
    r = 10 ** 5000 + 1
    p = P(-r * r, 0, 1)
    with pytest.raises(InvalidHintError, match="it has the rational root") as exc:
        factor_charpoly(p, hint=[(p, 1)])
    root = QQ.fmt(QQ.from_int(r))
    assert str(exc.value).split()[-1] in (root, f"-{root}")

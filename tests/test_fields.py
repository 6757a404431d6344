import copy

import pytest

from jnf.errors import FieldMismatchError, ParseError, UnsupportedFieldError
from jnf.factor import factor_charpoly
from jnf.fields import QQ, CountingField, PrimeField, is_prime
from jnf.poly import Poly


def test_rational_canonical_zero():
    assert QQ.add(QQ.fraction(1, 2), QQ.fraction(-1, 2)) == QQ.zero
    assert QQ.fmt(QQ.zero) == "0"


def test_rational_reduction():
    x = QQ.fraction(6, 4)
    assert (x.numerator, x.denominator) == (3, 2)
    assert QQ.fmt(QQ.fraction(-6, 4)) == "-3/2"
    assert QQ.fmt(QQ.fraction(8, 4)) == "2"


def test_rational_field_axioms():
    a = QQ.fraction(7, 3)
    assert QQ.add(a, QQ.neg(a)) == QQ.zero
    assert QQ.mul(a, QQ.inv(a)) == QQ.one
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_rational_parse():
    assert QQ.parse("3/4") == QQ.fraction(3, 4)
    assert QQ.parse("-7") == QQ.from_int(-7)
    with pytest.raises(ParseError):
        QQ.parse("x")
    with pytest.raises(ParseError):
        QQ.parse("1/0")


def test_prime_field_requires_prime():
    with pytest.raises(UnsupportedFieldError):
        PrimeField(6)
    with pytest.raises(UnsupportedFieldError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(1009)


def test_prime_field_axioms():
    f5 = PrimeField(5)
    for a in range(5):
        assert f5.add(a, f5.neg(a)) == 0
        if a:
            assert f5.mul(a, f5.inv(a)) == 1
    assert f5.from_int(-3) == 2
    assert f5.parse("7") == 2
    assert f5.parse("1/2") == f5.mul(1, f5.inv(2))


def test_field_equality_and_mismatch():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert QQ != PrimeField(5)
    with pytest.raises(FieldMismatchError):
        QQ.check_same(PrimeField(5))
    assert CountingField(QQ) == QQ


def test_counting_field_counts():
    cf = CountingField(QQ)
    cf.add(cf.one, cf.one)
    cf.mul(cf.one, cf.one)
    cf.mul(cf.one, cf.one)
    assert cf.counts["add"] == 1
    assert cf.counts["mul"] == 2
    assert cf.total == 3


def test_counting_field_is_its_base_elsewhere():
    # what the view does not define is the base field's, ``fraction`` and
    # ``p`` included, so the factorization runs on it as on the base
    cf = CountingField(QQ)
    assert (cf.char, cf.zero, cf.one) == (0, QQ.zero, QQ.one)
    assert CountingField(PrimeField(7)).p == 7
    coeffs = [-6, 10, 1, -7, 1, 1]      # (x - 1)^2 (x + 3) (x^2 - 2)
    got = factor_charpoly(Poly.from_ints(cf, coeffs))
    want = factor_charpoly(Poly.from_ints(QQ, coeffs))
    assert got.factors == want.factors


def test_counting_field_missing_attribute():
    with pytest.raises(AttributeError):
        CountingField(QQ).no_such_attribute
    # a copy starts without ``base``; looking it up must not recurse
    cf = CountingField(PrimeField(5))
    twin = copy.copy(cf)
    assert twin.base is cf.base and twin == cf and twin.char == 5


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(45):
        assert is_prime(n) == (n in primes)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_base_41():
    # 399165290221 * 798330580441 is a strong pseudoprime to every prime
    # base up to 37, the least one; base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)

"""Dense univariate polynomials over an exact field, and the integer kernels
that factorization runs on.

Coefficients are stored lowest degree first (the same convention the matrix
polynomials use).  The zero polynomial has an empty coefficient list and its
degree is the sentinel ``None``; callers never see ``-1`` arithmetic.

``Poly`` makes one ``Field`` call per term, which over QQ is one Fraction
operation.  Gcds, exact quotients and products therefore run on coefficient
lists in the field's integer model instead (``Field.lift``): over QQ a
polynomial is a list of integers, over F_p a list of residues.

- ``int_gcd``: over Z a primitive PRS (Collins 1967): pseudo-remainders,
  each made primitive by dividing out its content, so each remainder is
  the primitive part of a subresultant and no larger.  Over F_p, Euclid on
  residues.
- ``int_quo``: the exact quotient.  Over Z each step checks that the
  leading coefficient divides; over F_p it multiplies by the inverse of
  the divisor's leading coefficient.  A quotient that leaves a remainder
  raises instead of truncating.
- ``int_product``: the product of powers of polynomials by Kronecker
  substitution, one big-int product per factor.

Over QQ an integer list stands for a polynomial up to a nonzero scalar,
which is all a gcd or a squarefree part depends on.  ``lift_poly`` makes a
polynomial primitive with a positive leading coefficient (monic over F_p),
and ``monic_poly`` lowers a list to the monic ``Poly`` it stands for, so
results are the same monic polynomials as over the field's own arithmetic.
``squarefree_decomposition`` runs Yun's algorithm on these kernels.
"""

import math
from itertools import zip_longest

from .errors import (InternalConsistencyError, NonMonicDivisorError,
                     UnsupportedFieldError)


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = list(coeffs)

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(k) for k in ints])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def x_minus(cls, field, a):
        """The monic linear polynomial x - a."""
        return cls(field, [field.neg(a), field.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({[self.field.fmt(c) for c in self.coeffs]})"

    def __add__(self, other):
        self.field.check_same(other.field)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.add(self.coeff(k), other.coeff(k)) for k in range(n)])

    def __sub__(self, other):
        self.field.check_same(other.field)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, [f.sub(self.coeff(k), other.coeff(k)) for k in range(n)])

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self.field.check_same(other.field)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly(f, out)


def poly_euclid_div(a, b):
    """Euclidean division of ``a`` by a monic ``b``; no coefficient division.

    Returns (quotient, remainder) with a = quotient*b + remainder and
    deg(remainder) < deg(b).
    """
    a.field.check_same(b.field)
    if b.is_zero or not b.is_monic:
        raise NonMonicDivisorError("divisor must be monic and nonzero")
    f = a.field
    d = b.degree
    rem = list(a.coeffs)
    if len(rem) <= d:
        return Poly.zero(f), Poly(f, rem)
    quot = [f.zero] * (len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if f.is_zero(c):
            continue
        quot[k - d] = c
        for j in range(d + 1):
            rem[k - d + j] = f.sub(rem[k - d + j], f.mul(c, b.coeffs[j]))
    return Poly(f, quot), Poly(f, rem[:d])


def poly_derivative(p):
    f = p.field
    out = []
    for k in range(1, len(p.coeffs)):
        out.append(f.mul(f.from_int(k), p.coeffs[k]))
    return Poly(f, out)


def poly_gcd(a, b):
    """Monic gcd, by ``int_gcd`` on the lifted coefficients."""
    f = a.field
    f.check_same(b.field)
    g = int_gcd(lift_poly(a), lift_poly(b), f.char)
    return monic_poly(f, g) if g else Poly.zero(f)


def squarefree_decomposition(p):
    """Yun's algorithm on the lifted coefficients of ``p``: [(part,
    multiplicity), ...], each part squarefree, in the integer model of
    ``lift_poly`` (``monic_poly`` lowers it), pairwise coprime, and the
    product of part^multiplicity is p up to a scalar.

    With g = gcd(p, p'), w = p/g and y = p'/g, each step takes
    z = y - w', h = gcd(w, z) (the part of the current multiplicity),
    w <- w/h and y <- z/h.  Over Z, w and y carry the same scalar factor
    at every step, so z is right up to that factor; every quotient is
    exact and integral, since each divisor is primitive (Gauss's lemma).

    Valid in characteristic 0 or characteristic > deg(p); anything smaller
    can make derivatives vanish and is rejected.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    char = p.field.char
    if 0 < char <= p.degree:
        raise UnsupportedFieldError(
            f"squarefree decomposition needs characteristic 0 or > {p.degree}")
    a = lift_poly(p)
    if len(a) < 2:
        return []
    da = _derivative(a, char)
    g = int_gcd(a, da, char)
    if len(g) == 1:
        return [(a, 1)]
    w, y = int_quo(a, g, char), int_quo(da, g, char)
    out = []
    i = 1
    while len(w) > 1:
        z = _reduced([u - v for u, v in zip_longest(y, _derivative(w, char),
                                                     fillvalue=0)], char)
        h = int_gcd(w, z, char)
        if len(h) > 1:
            out.append((h, i))
        w, y = int_quo(w, h, char), int_quo(z, h, char)
        i += 1
    return out


# -- kernels on integer-model coefficient lists; p = 0 means Z -------------

def lift_poly(poly):
    """The coefficients of ``poly`` in the integer model, up to a scalar:
    primitive integers with a positive leading coefficient over QQ, a monic
    list of residues over F_p; [] for the zero polynomial."""
    f = poly.field
    (ints,), _ = f.lift([poly.coeffs])
    return _normal(ints, f.char)


def monic_poly(field, a):
    """The monic ``Poly`` over ``field`` that the nonzero integer-model
    list ``a`` stands for."""
    return Poly(field, field.lower([a], a[-1])[0])


def _normal(a, p):
    """``a`` times the unit that makes it primitive with a positive leading
    coefficient (Z) or monic (F_p)."""
    if not a:
        return a
    if p:
        inv = pow(a[-1], -1, p)
        return [x * inv % p for x in a]
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [x // g for x in a]


def _reduced(a, p):
    """``a`` reduced modulo p (when p > 0) without its leading zeros."""
    if p:
        a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _derivative(a, p):
    return _reduced([k * x for k, x in enumerate(a)][1:], p)


def _remainder(a, b, p):
    """A remainder of ``a`` by the nonzero ``b``, normalized: over F_p the
    Euclidean one; over Z a pseudo-remainder, each step scaling the rest
    by lead(b) over its gcd with the top coefficient.  Over F_p the rows
    are reduced once, at the end."""
    r, d, lead = list(a), len(b) - 1, b[-1]
    low = b[:-1]
    inv = pow(lead, -1, p) if p else None
    while len(r) > d:
        top = r.pop()
        if p:
            s, c = 1, top * inv % p
        else:
            g = math.gcd(top, lead)
            s, c = lead // g, top // g
        if s != 1:
            r = [x * s for x in r]
        if c:
            k = len(r) - d
            r[k:] = [x - c * y for x, y in zip(r[k:], low)]
    return _normal(_reduced(r, p), p)


def int_gcd(a, b, p=0):
    """The gcd of two integer-model lists, normalized as by ``lift_poly``;
    [] when both are zero.  Over Z a primitive PRS, over F_p Euclid."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _normal(a, p), _normal(b, p)
    while b:
        a, b = b, _remainder(a, b, p)
    return a


def int_quo(a, b, p=0):
    """a/b for integer-model lists, b nonzero, where b divides a; over Z
    the quotient must be integral.  Raises InternalConsistencyError when a
    step or the remainder is not exact."""
    r, d, lead = list(a), len(b) - 1, b[-1]
    low = b[:-1]
    inv = pow(lead, -1, p) if p else None
    out = []
    while len(r) > d:
        top = r.pop()
        if p:
            c, rest = top * inv % p, 0
        else:
            c, rest = divmod(top, lead)
        if rest:
            break
        out.append(c)
        if c:
            k = len(r) - d
            r[k:] = [x - c * y for x, y in zip(r[k:], low)]
    else:
        if not _reduced(r, p):
            return out[::-1]
    raise InternalConsistencyError("inexact polynomial division")


def int_product(factors):
    """The product of a^m over [(a, m), ...], nonzero integer lists, by
    Kronecker substitution: each a is evaluated at x = 2^w, the values are
    multiplied, and the product's coefficients are read back as signed
    w-bit digits.  No coefficient exceeds the product of the 1-norms of the
    a^m, which w holds with a sign bit to spare."""
    w = math.prod(sum(map(abs, a)) ** m for a, m in factors).bit_length() + 1
    value = 1
    for a, m in factors:
        at = 0
        for x in reversed(a):
            at = (at << w) + x
        value *= at ** m
    mask, half = (1 << w) - 1, 1 << (w - 1)
    out = []
    for _ in range(sum((len(a) - 1) * m for a, m in factors) + 1):
        x = value & mask
        if x >= half:
            x -= 1 << w
        out.append(x)
        value = (value - x) >> w
    return out

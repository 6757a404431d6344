"""Dense univariate polynomials over an exact field: ``Poly``, a value, and
the kernels on integer coefficient lists that all polynomial arithmetic
runs on.

Coefficients are stored lowest degree first (the same convention the matrix
polynomials use).  The zero polynomial has an empty coefficient list and its
degree is the sentinel ``None``; callers never see ``-1`` arithmetic.

``Poly`` holds field elements and has no arithmetic of its own.  Products,
remainders, quotients and gcds run on coefficient lists in the field's
integer model (``Field.lift``): over QQ a polynomial is a list of
integers, over F_p a list of residues.

- ``int_rem``: a remainder, not normalized.  Over F_p the Euclidean one;
  over Z a pseudo-remainder, a nonzero multiple of it.
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
- ``int_sub`` and ``int_derivative``, reduced modulo p over F_p.

Over QQ an integer list stands for a polynomial up to a nonzero scalar,
which is all a gcd or a squarefree part depends on.  ``lift_poly`` makes a
polynomial primitive with a positive leading coefficient (monic over F_p),
and ``monic_poly`` lowers a list to the monic ``Poly`` it stands for, so
results are the same monic polynomials as over the field's own arithmetic.
``squarefree_decomposition`` runs Yun's algorithm on these kernels, and
``factor`` runs Rabin's test and the hint checks on them.
"""

import math
from itertools import zip_longest

from .errors import InternalConsistencyError, UnsupportedFieldError


class Poly:
    """A polynomial as a value: its field and its coefficients, lowest
    degree first, with no trailing zeros.  It has no arithmetic; the
    kernels below work on its ``lift_poly`` list."""

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
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self):
        return f"Poly({[self.field.fmt(c) for c in self.coeffs]})"


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
    da = int_derivative(a, char)
    g = int_gcd(a, da, char)
    if len(g) == 1:
        return [(a, 1)]
    w, y = int_quo(a, g, char), int_quo(da, g, char)
    out = []
    i = 1
    while len(w) > 1:
        z = int_sub(y, int_derivative(w, char), char)
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


def int_derivative(a, p=0):
    return _reduced([k * x for k, x in enumerate(a)][1:], p)


def int_sub(a, b, p=0):
    return _reduced([x - y for x, y in zip_longest(a, b, fillvalue=0)], p)


def int_rem(a, b, p=0):
    """A remainder of ``a`` by the nonzero ``b``: over F_p the Euclidean
    one, in residues; over Z a pseudo-remainder, each step scaling the
    rest by lead(b) over its gcd with the top coefficient.  ``a`` may hold
    any integers; over F_p they are reduced once, at the end."""
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
    return _reduced(r, p)


def int_gcd(a, b, p=0):
    """The gcd of two integer-model lists, normalized as by ``lift_poly``;
    [] when both are zero.  Over Z a primitive PRS, over F_p Euclid."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _normal(a, p), _normal(b, p)
    while b:
        a, b = b, _normal(int_rem(a, b, p), p)
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

"""Dense univariate polynomials over an exact field.

Coefficients are stored lowest degree first (the same convention the matrix
polynomials use).  The zero polynomial has an empty coefficient list and its
degree is the sentinel ``None``; callers never see ``-1`` arithmetic.
"""

from .errors import NonMonicDivisorError, UnsupportedFieldError


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

    def scale(self, c):
        f = self.field
        return Poly(f, [f.mul(c, a) for a in self.coeffs])

    def pow(self, k):
        result = Poly.one(self.field)
        for _ in range(k):
            result = result * self
        return result

    def monic(self):
        if self.is_zero:
            return self
        inv = self.field.inv(self.leading)
        return self.scale(inv)


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
    """Monic gcd by the Euclidean algorithm."""
    a.field.check_same(b.field)
    while not b.is_zero:
        _, r = poly_euclid_div(a, b.monic())
        a, b = b, r
    return a.monic() if not a.is_zero else a


def squarefree_decomposition(p):
    """Yun's algorithm; returns [(part, multiplicity), ...].

    Valid in characteristic 0 or characteristic > deg(p); anything smaller
    can make derivatives vanish and is rejected.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    f = p.field
    if 0 < f.char <= p.degree:
        raise UnsupportedFieldError(
            f"squarefree decomposition needs characteristic 0 or > {p.degree}")
    p = p.monic()
    if p.degree == 0:
        return []
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    w, _ = poly_euclid_div(p, g)
    y, _ = poly_euclid_div(dp, g)
    out = []
    i = 1
    while w.degree > 0:
        z = y - poly_derivative(w)
        h = poly_gcd(w, z)
        if h.degree > 0:
            out.append((h, i))
        w, _ = poly_euclid_div(w, h)
        y, _ = poly_euclid_div(z, h)
        i += 1
    return out


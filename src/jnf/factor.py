"""Factorization of characteristic polynomials.

The built-in path handles what the Jordan machinery needs over the
rationals: squarefree decomposition, rational roots, and quadratics split
by discriminant.  Anything harder (degree >= 3 irreducible parts, finite
fields) must come in through factor hints.  Hinted factors are checked to
be squarefree, pairwise coprime and, over QQ, free of rational roots beyond
degree 1; the rest of their irreducibility is trusted and recorded as
"asserted".
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InternalConsistencyError, InvalidHintError,
                     NeedsFactorizationError, ParseError)
from .poly import (Poly, poly_derivative, poly_euclid_div, poly_gcd,
                   squarefree_decomposition)

# Trial division gives up past this bound; bigger constants need hints.
_TRIAL_LIMIT = 1_000_000


@dataclass
class FactoredCharPoly:
    """Monic irreducible factors with multiplicities; product recomputable."""

    factors: list  # [(Poly monic irreducible, multiplicity), ...]
    field: object
    irreducibility: str = "computed"  # or "asserted" when built from hints

    @property
    def field_characteristic(self):
        return self.field.char

    def product(self):
        acc = Poly.one(self.field)
        for q, m in self.factors:
            acc = acc * q.pow(m)
        return acc

    def total_degree(self):
        return sum(q.degree * m for q, m in self.factors)

    @contextmanager
    def blame(self, q, mult):
        """Cycle collection for the factor q: when q came from a hint, a
        failed invariant means the hint was wrong (a reducible factor), so
        it is reported as an invalid hint naming q."""
        try:
            yield
        except InternalConsistencyError as exc:
            if self.irreducibility != "asserted":
                raise
            raise InvalidHintError(
                f"hinted factor '{format_factor_hint(q, mult)}' is not "
                f"irreducible (cycle collection failed: {exc})") from exc


def _factor_int(n):
    """Trial-division factorization; raises ValueError when stuck."""
    from .fields import is_prime

    n = abs(n)
    out = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        if d * d > n or is_prime(n):
            out[n] = out.get(n, 0) + 1
        else:
            raise ValueError(f"cannot factor composite cofactor {n}")
    return out


def _divisors(n):
    divs = [1]
    for p, e in _factor_int(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _rational_roots(part):
    """All rational roots of a monic squarefree rational polynomial."""
    f = part.field
    fracs = [Fraction(int(c.numerator), int(c.denominator)) for c in part.coeffs]
    lcm = 1
    for c in fracs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    deg = part.degree
    # y = lcm*x turns the poly into a monic integer polynomial in y
    const = int(fracs[0] * lcm**deg)
    roots = []
    if const == 0:
        roots.append(f.zero)
        const_poly, _ = poly_euclid_div(part, Poly.x_minus(f, f.zero))
        return roots + _rational_roots(const_poly)
    try:
        divs = _divisors(const)
    except ValueError as exc:
        raise NeedsFactorizationError(
            f"constant term too large to factor: {exc}", residual=part) from exc
    for d in divs:
        for s in (d, -d):
            cand = f.fraction(s, lcm)
            if f.is_zero(part.eval_at(cand)):
                roots.append(cand)
    return roots


def _is_square(x):
    num, den = x.numerator, x.denominator
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _split_squarefree_part(part, mult):
    """Factor one monic squarefree part over Q into irreducibles."""
    f = part.field
    factors = []
    for r in _rational_roots(part):
        factors.append((Poly.x_minus(f, r), mult))
        part, rem = poly_euclid_div(part, Poly.x_minus(f, r))
        assert rem.is_zero
    if part.degree == 0:
        return factors
    if part.degree == 1:
        factors.append((part.monic(), mult))
        return factors
    if part.degree == 2:
        # no rational roots survived, so the discriminant cannot be a square
        b, c = part.coeffs[1], part.coeffs[0]
        disc = f.sub(f.mul(b, b), f.mul(f.from_int(4), c))
        if _is_square(Fraction(disc.numerator, disc.denominator)) is not None:
            raise NeedsFactorizationError(
                "quadratic with square discriminant escaped root extraction",
                residual=part, multiplicity=mult)
        factors.append((part.monic(), mult))
        return factors
    raise NeedsFactorizationError(
        f"stuck on degree-{part.degree} factor; supply a hint file",
        residual=part.monic(), multiplicity=mult)


def _coeff_sort_token(field, c):
    return field.fmt(c)


def canonical_factor_order(field, factors):
    """Deterministic block order: degree desc, multiplicity desc, then by
    coefficient text."""
    return sorted(
        factors,
        key=lambda fm: (-fm[0].degree, -fm[1],
                        tuple(_coeff_sort_token(field, c) for c in fm[0].coeffs)))


def factor_charpoly(p, hint=None):
    """Factor a monic characteristic polynomial, optionally from hints.

    ``hint`` is a list of (monic Poly, multiplicity) pairs covering p
    completely; its product must reconstruct p exactly.
    """
    if p.is_zero or not p.is_monic or p.degree < 1:
        raise ValueError("characteristic polynomial must be monic of degree >= 1")
    f = p.field
    if hint is not None:
        prod = Poly.one(f)
        for q, m in hint:
            if q.is_zero or not q.is_monic:
                raise InvalidHintError(f"hinted factor {q!r} is not monic")
            if m < 1:
                raise InvalidHintError("hint multiplicities must be positive")
            prod = prod * q.pow(m)
        if prod != p:
            raise InvalidHintError("hinted factors do not multiply back to the polynomial")
        _check_hinted_factors(hint)
        return FactoredCharPoly(canonical_factor_order(f, list(hint)), f,
                                irreducibility="asserted")
    if f.char > 0:
        if p.degree == 1:
            return FactoredCharPoly([(p, 1)], f)
        raise NeedsFactorizationError(
            "finite-field factorization is hint-only; supply a hint file",
            residual=p)
    factors = []
    for part, mult in squarefree_decomposition(p):
        factors.extend(_split_squarefree_part(part, mult))
    out = FactoredCharPoly(canonical_factor_order(f, factors), f)
    assert out.total_degree() == p.degree
    return out


def _check_hinted_factors(hint):
    """Reject hinted factors that are not squarefree, not pairwise coprime,
    or (over QQ, degree >= 2) have a rational root."""
    for i, (q, m) in enumerate(hint):
        name = f"hinted factor '{format_factor_hint(q, m)}'"
        if poly_gcd(q, poly_derivative(q)).degree > 0:
            raise InvalidHintError(f"{name} is not squarefree")
        for r, k in hint[:i]:
            if poly_gcd(q, r).degree > 0:
                raise InvalidHintError(
                    f"{name} is not coprime to '{format_factor_hint(r, k)}'")
        if q.field.char == 0 and q.degree >= 2:
            try:
                roots = _rational_roots(q)
            except NeedsFactorizationError:
                roots = []    # constant term too large to search; trusted
            if roots:
                raise InvalidHintError(
                    f"{name} is reducible: it has the rational root {roots[0]}")


def parse_factor_hints(text, field):
    """Parse the hint-file format: one ``mult : c0 c1 ... cd`` line per
    factor, coefficients lowest degree first, ``#`` starts a comment line."""
    factors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"hint line {lineno}: missing ':'")
        mult_part, _, coeff_part = line.partition(":")
        try:
            mult = int(mult_part.strip())
        except ValueError as exc:
            raise ParseError(f"hint line {lineno}: bad multiplicity") from exc
        tokens = coeff_part.split()
        if not tokens:
            raise ParseError(f"hint line {lineno}: no coefficients")
        coeffs = [field.parse(t) for t in tokens]
        factors.append((Poly(field, coeffs), mult))
    return factors


def format_factor_hint(poly, mult):
    """Render one factor in hint-file syntax."""
    f = poly.field
    return f"{mult} : " + " ".join(f.fmt(c) for c in poly.coeffs)

"""Factorization of characteristic polynomials.

The built-in path handles what the Jordan machinery needs over the
rationals: squarefree decomposition, rational roots, and the quadratics
left once the roots are out.  Anything harder (irreducible parts of
degree >= 3, finite fields) must come in through factor hints.  Hinted
factors must be monic of degree >= 1 with a positive multiplicity
(``check_factors``, which the drivers apply to any factorization they are
given), must multiply back to P, and are checked to be squarefree and
pairwise coprime; over F_p each is proved irreducible by Rabin's test,
over QQ each of degree >= 2 must have no rational root, and the rest of
its irreducibility is trusted and recorded as "asserted".

All of it runs on integer coefficient lists, the kernels of ``poly``.  P
is lifted once to a primitive integer polynomial, Yun's algorithm splits
it into squarefree parts by primitive PRS gcds and exact quotients over Z,
and the rational roots u/v of each part, from one p-adic search with no
limit, are divided out as integer factors v x - u.  Only the factors are
lowered to monic ``Poly``s, and a monic polynomial does not depend on the
scalar the integer lists carry, so the factors are exactly those that
arithmetic on Fractions gives.  A hinted factorization is multiplied back
with one ``int_product``; a hinted factor over QQ is squarefree when its
list is coprime to its derivative's, and Rabin's test works on the
residue list of q, each product one ``int_product`` and one ``int_rem``.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

from .errors import InvalidHintError, NeedsFactorizationError, ParseError
from .fields import is_prime
from .io import parse_bounded, parse_int
from .poly import (Poly, int_derivative, int_gcd, int_product, int_quo,
                   int_rem, int_sub, lift_poly, monic_poly, poly_gcd,
                   squarefree_decomposition)

@dataclass
class FactoredCharPoly:
    """Monic irreducible factors with multiplicities, and their product."""

    factors: list  # [(Poly monic irreducible, multiplicity), ...]
    field: object
    irreducibility: str = "computed"  # or "asserted" when built from hints
    _product: object = dataclass_field(default=None, init=False, repr=False,
                                       compare=False)

    def product(self):
        """The product of the q^m, formed on the first call and kept: one
        ``int_product`` of the lifted factors, over the product of their
        denominators."""
        if self._product is None:
            f = self.field
            lifted = [(f.lift([q.coeffs]), m) for q, m in self.factors]
            ints = int_product([(qi, m) for ((qi,), _), m in lifted])
            den = math.prod(d ** m for (_, d), m in lifted)
            self._product = Poly(f, f.lower([ints], den)[0])
        return self._product

    def total_degree(self):
        return sum(q.degree * m for q, m in self.factors)


def _rational_roots(ints):
    """All rational roots of a squarefree polynomial over Q, given by its
    integer coefficients ``ints`` up to a scalar, as pairs (u, v) in lowest
    terms with v > 0, by Loos's p-adic search (SIAM J. Comput. 12, 1983).

    With the root 0 divided out, f = c_0 + ... + c_m x^m is primitive, and
    a root u/v has u | c_0 and v | c_m, so c_m u/v is an integer of size at
    most |c_m c_0|.  Modulo the smallest prime p that does not divide c_m
    and keeps f squarefree, every root of f (found by evaluating f at
    0, ..., p - 1) is simple, so Newton's iteration lifts each to the one
    p-adic root above it, modulo M = p^(2^k) > 2 |c_m c_0|.  A rational
    root u/v lifts u/v mod p, so c_m R as a symmetric residue mod M is
    c_m u/v: each lift R gives one candidate, kept when f vanishes on it.

    The work is polynomial in m and the bits b of the coefficients, with no
    limit to give up at: a bad prime divides c_m disc(f), which is nonzero
    and has O(m (b + log m)) bits, so at most that many primes are tried,
    one gcd mod p each; then p evaluations, and O(log b) Newton steps on
    O(b)-bit residues for each of the at most m roots mod p.
    """
    low = next(k for k, c in enumerate(ints) if c)
    roots = [(0, 1)] if low else []
    content = math.gcd(*ints)
    f = [c // content for c in ints[low:]]
    if len(f) == 1:
        return roots
    lead, df = f[-1], int_derivative(f)
    p = next(p for p in itertools.count(2) if lead % p and is_prime(p)
             and len(int_gcd(f, int_derivative(f, p), p)) == 1)
    lifts = [r for r in range(p) if not _eval_mod(f, r, p)]
    bound, mod = 2 * abs(lead * f[0]), p
    while mod <= bound:
        mod *= mod
        lifts = [(r - _eval_mod(f, r, mod) * pow(_eval_mod(df, r, mod), -1, mod)) % mod
                 for r in lifts]
    for r in lifts:
        s = lead * r % mod
        root = Fraction(s - mod if 2 * s > mod else s, lead)
        if not _eval_scaled(f, root.numerator, root.denominator):
            roots.append((root.numerator, root.denominator))
    return roots


def _eval_mod(ints, x, mod):
    """P(x) mod ``mod`` for P = ints[0] + ints[1] x + ... + ints[n] x^n."""
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % mod
    return acc


def _eval_scaled(ints, u, v):
    """v^n P(u/v) for P = ints[0] + ints[1] x + ... + ints[n] x^n."""
    acc, scale = 0, 1
    for c in reversed(ints):
        acc = acc * u + c * scale
        scale *= v
    return acc


def _split_squarefree_part(field, part, mult):
    """Factor one squarefree part over Q, integer coefficients up to a
    scalar, into monic irreducibles: each rational root u/v is divided out
    as the integer factor v x - u."""
    factors = []
    for u, v in _rational_roots(part):
        factors.append((Poly(field, [field.fraction(-u, v), field.one]), mult))
        part = int_quo(part, [-u, v])
    if len(part) == 1:
        return factors
    rest = monic_poly(field, part)
    if rest.degree <= 2:
        # every rational root is gone, so a quadratic left is irreducible
        factors.append((rest, mult))
        return factors
    raise NeedsFactorizationError(
        f"stuck on degree-{rest.degree} factor; supply a hint file",
        residual=rest, multiplicity=mult)


def canonical_factor_order(field, factors):
    """Deterministic block order: degree desc, multiplicity desc, then by
    coefficient text, every digit of it."""
    return sorted(factors, key=lambda fm: (-fm[0].degree, -fm[1],
                                           tuple(map(field.fmt, fm[0].coeffs))))


def factor_charpoly(p, hint=None):
    """Factor a monic characteristic polynomial, optionally from hints.

    ``hint`` is a list of (monic Poly, multiplicity) pairs covering p
    completely; its product must reconstruct p exactly.
    """
    if p.is_zero or not p.is_monic or p.degree < 1:
        raise ValueError("characteristic polynomial must be monic of degree >= 1")
    f = p.field
    if hint is not None:
        check_factors(hint)
        out = FactoredCharPoly(canonical_factor_order(f, list(hint)), f,
                               irreducibility="asserted")
        # degrees first, so a huge multiplicity never reaches the product
        if out.total_degree() != p.degree or out.product() != p:
            raise InvalidHintError("hinted factors do not multiply back to the polynomial")
        _check_hinted_factors(hint)
        return out
    if f.char > 0:
        if p.degree == 1:
            return FactoredCharPoly([(p, 1)], f)
        raise NeedsFactorizationError(
            "finite-field factorization is hint-only; supply a hint file",
            residual=p)
    factors = []
    for part, mult in squarefree_decomposition(p):
        factors.extend(_split_squarefree_part(f, part, mult))
    out = FactoredCharPoly(canonical_factor_order(f, factors), f)
    assert out.total_degree() == p.degree
    return out


def check_factors(factors):
    """Refuse a factor list no driver can use: each factor must be monic of
    degree >= 1 and each multiplicity >= 1.  Shared by the hint path of
    ``factor_charpoly`` and the drivers' own check of a factorization."""
    for q, m in factors:
        if q.is_zero or not q.is_monic:
            raise InvalidHintError(
                f"hinted factor '{format_factor_hint(q, m)}' is not monic")
        if q.degree < 1:
            raise InvalidHintError(
                f"hinted factor '{format_factor_hint(q, m)}' has degree 0")
        if m < 1:
            raise InvalidHintError("hint multiplicities must be positive")


def _check_hinted_factors(hint):
    """Reject reducible hinted factors and factors that are not squarefree or
    not pairwise coprime.  Over F_p, Rabin's test proves each factor
    irreducible, hence squarefree, so coprime means distinct.  Over QQ, gcds
    check squarefree and coprime, and a factor of degree >= 2 must have no
    rational root."""
    for i, (q, m) in enumerate(hint):
        name = f"hinted factor '{format_factor_hint(q, m)}'"
        if q.field.char:
            if q.degree > 1 and not _is_irreducible_mod_p(q):
                raise InvalidHintError(
                    f"{name} is not irreducible over GF({q.field.char}) (Rabin's test)")
            clash = next(((r, k) for r, k in hint[:i] if r == q), None)
        else:
            ints = lift_poly(q)
            if len(int_gcd(ints, int_derivative(ints))) > 1:
                raise InvalidHintError(f"{name} is not squarefree")
            clash = next(((r, k) for r, k in hint[:i]
                          if poly_gcd(q, r).degree > 0), None)
        if clash is not None:
            raise InvalidHintError(
                f"{name} is not coprime to '{format_factor_hint(*clash)}'")
        if q.field.char == 0 and q.degree > 1:
            roots = _rational_roots(ints)
            if roots:
                raise InvalidHintError(
                    f"{name} is reducible: it has the rational root "
                    f"{q.field.fmt(q.field.fraction(*roots[0]))}")


def _is_irreducible_mod_p(q):
    """Rabin's test for a monic q of degree d >= 2 over F_p: q is
    irreducible exactly when x^(p^d) = x mod q and
    gcd(x^(p^(d/r)) - x, q) = 1 for each prime r dividing d.  It runs on
    residue lists.  The powers x^(p^k) mod q come from k repeated p-th
    powers, by squaring; each product is one ``int_product`` and one
    ``int_rem`` by q."""
    p, d = q.field.char, q.degree
    qi = lift_poly(q)
    if not qi[0]:
        return False      # x divides q; otherwise x is a unit mod q
    x = [0, 1]
    frobenius = [x]                  # x^(p^k) mod q for k = 0, 1, ..., d
    for _ in range(d):
        acc, base, e = [1], frobenius[-1], p
        while e:
            if e & 1:
                acc = int_rem(int_product([(acc, 1), (base, 1)]), qi, p)
            base = int_rem(int_product([(base, 2)]), qi, p)
            e >>= 1
        frobenius.append(acc)
    return frobenius[d] == x and all(
        len(int_gcd(int_sub(frobenius[d // r], x, p), qi, p)) == 1
        for r in range(2, d + 1) if not d % r and is_prime(r))


def hint_bits(p):
    """The most bits a coefficient of a monic factor of p can need in its
    numerator or denominator: those of p over F_p.  Over QQ a monic factor
    is g/lc(g) for an integer factor g of P~ = ``lift_poly(p)`` (Gauss's
    lemma), and |g_i| <= 2^n * sqrt(n + 1) * max|P~_i| (Mignotte)."""
    if p.field.char:
        return p.field.char.bit_length()
    n = p.degree
    return n + (n + 1).bit_length() + max(map(abs, lift_poly(p))).bit_length()


def parse_factor_hints(text, p):
    """Parse the hint-file format for the characteristic polynomial p: one
    ``mult : c0 c1 ... cd`` line per factor, coefficients lowest degree
    first, ``#`` starts a comment line.  A long multiplicity, and a
    coefficient past ``hint_bits(p)``, is refused before its value is formed."""
    field, bits = p.field, hint_bits(p)
    factors = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"hint line {lineno}: missing ':'")
        mult_part, _, coeff_part = line.partition(":")
        mult = parse_int(mult_part.strip(), f"hint line {lineno}, multiplicity")
        tokens = coeff_part.split()
        if not tokens:
            raise ParseError(f"hint line {lineno}: no coefficients")
        coeffs = [parse_bounded(field, t, bits, f"hint line {lineno}, coefficient {j}")
                  for j, t in enumerate(tokens, 1)]
        factors.append((Poly(field, coeffs), mult))
    return factors


def format_factor_hint(poly, mult):
    """Render one factor in hint-file syntax, every digit of it."""
    return f"{mult} : " + " ".join(map(poly.field.fmt, poly.coeffs or [poly.field.zero]))

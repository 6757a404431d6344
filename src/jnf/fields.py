"""Exact coefficient fields and the bulk arithmetic kernels built on them.

Field elements are plain canonical values (``Fraction``/``mpq`` for the
rationals, ints in ``[0, p)`` for F_p), falsy exactly when zero; a ``Field``
object supplies the arithmetic.  Keeping elements raw instead of wrapped
makes loops over them considerably cheaper.

Kernel layer.  Everything matrix-sized goes through a few bulk methods:
``matmul``, row reduction (``rref`` and ``rank``, fraction-free) and
``expand``, the repeated synthetic division of a whole matrix polynomial by
monic polynomials (Taylor shifts when they are linear, Q-adic expansion
otherwise).  They run on the field's integer model: ``lift`` writes a block
of values as integers over one common denominator (rationals) or as
residues over 1 (F_p), and ``lower`` turns integers over a denominator back
into field elements.  Over QQ the inner loops therefore multiply Python ints
instead of normalising a Fraction per operation.  ``int_matmul``,
``int_rref`` and ``exact_div`` let a computation stay in the model across
many steps (Faddeev, matrix Horner, the stacked reductions of cycle
collection).

Over F_p the product packs rows: each row of the right factor becomes one
Python int, its entries in fixed-width slots (the row evaluated at 2^w,
Kronecker substitution), so a row of the product is one C-level sum of
small-times-big products, read back slot by slot and reduced modulo p once
per entry.  The slot width is the narrowest that holds the largest possible
dot product of the actual entries; when no 64-bit slot holds it (at n = 32,
primes above about 2^29), the product takes one dot product per entry.

``expand`` is linear in the matrix coefficients, so it runs the synthetic
division on the identity, on rows as wide as the number of coefficients,
once per divisor, stacks the resulting transition matrices and applies them
to all the data with a single ``int_matmul``: one call expands a matrix
polynomial at every linear factor of a characteristic polynomial, lifting
its coefficients once.
"""

import math
import struct
from fractions import Fraction
from operator import mul

from .errors import FieldMismatchError, ParseError, UnsupportedFieldError

try:  # gmpy2 rationals are drop-in compatible and much faster
    from gmpy2 import mpq as _ratio
except ImportError:  # pragma: no cover
    _ratio = Fraction


# Packed-row slots for the F_p product, narrowest first: struct codes of
# unsigned integers and their sizes in bytes.
_SLOTS = [("B", 1), ("H", 2), ("I", 4), ("Q", 8)]


def _slot(bound):
    """The narrowest (struct code, bytes) whose unsigned slots hold every
    value up to ``bound``, or None when no slot is wide enough."""
    return next(((code, size) for code, size in _SLOTS
                 if bound < 1 << (8 * size)), None)


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3e24, probabilistic beyond."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface; subclasses define the arithmetic."""

    char = 0

    @property
    def key(self):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def check_same(self, other):
        if self != other:
            raise FieldMismatchError(f"cannot mix {self!r} and {other!r}")

    def is_zero(self, a):
        return a == self.zero

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sum(self, values):
        acc = self.zero
        for v in values:
            acc = self.add(acc, v)
        return acc

    # -- kernel layer; matrices are lists of rows of field elements --------

    def matmul(self, a, b):
        """The product of matrices ``a`` and ``b``."""
        ai, da = self.lift(a)
        bi, db = self.lift(b)
        return self.lower(self.int_matmul(ai, bi), da * db)

    def int_rref(self, rows):
        """Fraction-free Gauss-Jordan on rows of the integer model; returns
        (rows, [(row, column) of each pivot]).  Each pivot row divided by
        its pivot value is a row of the reduced row echelon form; the rows
        after the last pivot are zero.

        A row is replaced by pv*row - e*pivot_row (made primitive again over
        QQ).  The RREF is unique, so the result does not depend on how the
        rows were scaled, on the way or on entry: a row stands for every
        nonzero multiple of itself, and its denominator plays no part.
        """
        data = self._primitive_rows(rows)
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            pr = next((i for i in range(r, nrows) if data[i][c]), None)
            if pr is None:
                continue
            data[pr], data[r] = data[r], data[pr]
            prow = data[r]
            pv = prow[c]
            for i in range(nrows):
                e = data[i][c]
                if e and i != r:
                    data[i] = self._combine(pv, data[i], e, prow)
            pivots.append((r, c))
            r += 1
        return data, pivots

    def rref(self, rows):
        """Reduced row echelon form with pivots normalised to 1; returns
        (rows, rank, [(row, column) of each pivot]): ``int_rref`` on the
        lifted rows, each pivot row divided by its pivot once at the end."""
        data, pivots = self.int_rref(self.lift(rows)[0])
        ncols = len(rows[0]) if rows else 0
        out = [self.lower([data[i]], data[i][c])[0] for i, c in pivots]
        out += [[self.zero] * ncols for _ in range(len(rows) - len(pivots))]
        return out, len(pivots), pivots

    def rank(self, rows):
        """Rank by fraction-free forward elimination; each step drops the
        pivot column and the rows that became zero."""
        data = [row for row in self._primitive_rows(self.lift(rows)[0]) if any(row)]
        rk = 0
        while data:
            pr = next((i for i, row in enumerate(data) if row[0]), None)
            if pr is None:
                data = [row[1:] for row in data]
                continue
            prow = data.pop(pr)
            pv, tail = prow[0], prow[1:]
            rk += 1
            rest = []
            for row in data:
                row = self._combine(pv, row[1:], row[0], tail) if row[0] else row[1:]
                if any(row):
                    rest.append(row)
            data = rest
        return rk

    def expand(self, coeffs, divisors):
        """For each ``(q, count)`` in ``divisors``, the first ``count``
        coefficients C_0, C_1, ... of the q-adic expansion
        sum_t C_t(x) q(x)^t of the matrix polynomial sum_k coeffs[k] x^k,
        i.e. the remainders of ``count`` repeated divisions by the monic q.

        ``coeffs`` holds at least one flat list of entries per coefficient,
        lowest degree first; each q is monic of degree d, lowest degree
        first.  Returns, per divisor, ``count`` lists of d flat entry lists.

        With s the common denominator of q, substitute x = y/s: for M of
        nominal degree N, M^(y) = s^N M(y/s) is integral and
        q^(y) = s^d q(y/s) is monic and integral, and dividing M^ by q^
        gives the same transform of the quotient (at degree N - d) and
        s^N R(y/s) as remainder.  So the quotient stays in the integer model
        through all divisions and only the remainders become field elements.

        Every remainder entry is a fixed combination of the N + 1 entries at
        the same position in the coefficients, so each division runs on the
        identity (row k standing for coeffs[k]).  The remainder rows of all
        divisors stack into one transition matrix W, each row with its own
        denominator, so divisors with different s share it; the
        coefficients are lifted once and one product W * coeffs gives every
        remainder.
        """
        top = len(coeffs) - 1
        weights, dens, shapes = [], [], []
        for q, count in divisors:
            q_rows, q_dens, live = self._division_rows(q, count, top)
            weights += q_rows
            dens += q_dens
            shapes.append((len(q) - 1, live))
        width = len(coeffs[0])
        data, den = self.lift(coeffs)
        # only the integer model is used from here on; a list the caller
        # built for this call is freed here (over QQ, where lift copies)
        del coeffs
        product = self.int_matmul(weights, data)
        del data

        def lowered():
            # each product row is dropped as soon as it is lowered
            for i, sj in enumerate(dens):
                row, product[i] = product[i], None
                yield self.lower([row], den * sj)[0]

        rows = lowered()
        zero_row = [self.zero] * width
        return [[[next(rows) for _ in range(k)] + [zero_row] * (d - k)
                 for k in live] for d, live in shapes]

    def _division_rows(self, q, count, top):
        """``count`` divisions by q run on the identity of size top + 1 in
        the x = y/s transform.  Returns (remainder rows, their denominators
        s^(top - j), how many rows each division left): fewer than deg q
        once the quotient runs short, the missing rows being zero."""
        d = len(q) - 1
        (qi,), s = self.lift([q])
        qhat = [(j, qi[j] * s ** (d - j - 1)) for j in range(d) if qi[j]]
        rem = [[0] * (top + 1) for _ in range(top + 1)]
        for k, row in enumerate(rem):
            row[k] = s ** (top - k)
        weights, dens, live = [], [], []
        for _ in range(count):
            quot = []
            for k in range(top, d - 1, -1):
                lead = rem[k]
                quot.append(lead)
                for j, c in qhat:
                    rem[k - d + j] = self._sub_mul(rem[k - d + j], c, lead)
            n_live = min(d, len(rem))
            weights += rem[:n_live]
            dens += [s ** (top - j) for j in range(n_live)]
            live.append(n_live)
            rem = quot[::-1]
            top -= d
        return weights, dens, live


class Rationals(Field):
    """Arbitrary-precision reduced fractions."""

    char = 0

    def __init__(self):
        self.zero = _ratio(0)
        self.one = _ratio(1)

    @property
    def key(self):
        return ("Q",)

    def __repr__(self):
        return "QQ"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / _ratio(a)

    def from_int(self, k):
        return _ratio(k)

    def fraction(self, num, den=1):
        return _ratio(num, den)

    def parse(self, token):
        try:
            f = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {token!r}") from exc
        return _ratio(f.numerator, f.denominator)

    def fmt(self, a):
        return str(a)

    # -- integer model: integers over one common denominator --------------

    def lift(self, rows):
        """(integer rows, den) with rows == integer rows / den."""
        den = math.lcm(*(x.denominator for row in rows for x in row))
        return [[x.numerator * (den // x.denominator) for x in row]
                for row in rows], den

    def lower(self, rows, den):
        zero = self.zero
        return [[_ratio(x, den) if x else zero for x in row] for row in rows]

    def int_matmul(self, a, b):
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]

    def exact_div(self, x, k):
        """x/k where k divides x."""
        return x // k

    def _primitive_rows(self, rows):
        """Each integer row scaled to coprime integers; row scaling changes
        neither the RREF nor the rank."""
        return [_primitive(row) for row in rows]

    def _combine(self, pv, row, e, prow):
        g = math.gcd(pv, e)
        pv, e = pv // g, e // g
        return _primitive([pv * x - e * y for x, y in zip(row, prow)])

    def _sub_mul(self, row, c, lead):
        return [x - c * y for x, y in zip(row, lead)]


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


class PrimeField(Field):
    """Integers modulo a prime p; residues kept in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise UnsupportedFieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    @property
    def key(self):
        return ("Fp", self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def from_int(self, k):
        return k % self.p

    def parse(self, token):
        if "/" in token:
            num, _, den = token.partition("/")
            try:
                return self.div(int(num) % self.p, int(den) % self.p)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad F_{self.p} element {token!r}") from exc
        try:
            return int(token) % self.p
        except ValueError as exc:
            raise ParseError(f"bad F_{self.p} element {token!r}") from exc

    def fmt(self, a):
        return str(a)

    # -- integer model: residues over 1, reduced once per combined entry --

    def lift(self, rows):
        # residues are their own integer model: the rows are shared, not
        # copied, so callers only read what lift returns
        return rows, 1

    def lower(self, rows, den):
        p = self.p
        inv = pow(den, -1, p)
        return [[x * inv % p for x in row] for row in rows]

    def matmul(self, a, b):
        # residues are their own integer model, and the product is reduced
        return self.int_matmul(a, b)

    def int_matmul(self, a, b):
        """Product of matrices of nonnegative integers (residues, possibly
        unreduced), reduced modulo p.  With more than one column, each row
        of ``b`` is packed into one int (Kronecker substitution), so a row
        of the product is one sum."""
        p = self.p
        width = len(b[0]) if b else 0
        slot = None
        if width > 1 and a:
            # the slots hold the entries of b and every dot product
            slot = _slot(len(b) * max(max(map(max, a)), 1) * max(map(max, b)))
        if slot is None:
            cols = list(zip(*b))
            return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
        code, size = slot
        size *= width
        slots = struct.Struct(f"<{width}{code}")
        packed = [int.from_bytes(slots.pack(*row), "little") for row in b]
        return [[x % p for x in slots.unpack(sum(map(mul, row, packed))
                                             .to_bytes(size, "little"))]
                for row in a]

    def exact_div(self, x, k):
        return x * pow(k, -1, self.p) % self.p

    def _primitive_rows(self, rows):
        # the kernels replace rows and never write into one
        return list(rows)

    def _combine(self, pv, row, e, prow):
        p = self.p
        return [(pv * x - e * y) % p for x, y in zip(row, prow)]

    def _sub_mul(self, row, c, lead):
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, lead)]


class CountingField(Field):
    """Wraps a field and counts operations; used by the complexity checks.

    Scalar operations count one each.  Kernels delegate to the base field
    and count the operations they stand for: a length-k dot product is k
    mul + k add, an elimination step or a division step on a row of length
    w is w mul + w add.  ``expand`` runs the generic algorithm on this
    field, so it counts its division steps on the identity and its product.
    """

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.zero = base.zero
        self.one = base.one
        self.counts = {"add": 0, "sub": 0, "mul": 0, "inv": 0, "neg": 0}

    @property
    def key(self):
        return self.base.key

    def __repr__(self):
        return f"Counting({self.base!r})"

    @property
    def total(self):
        return sum(self.counts.values())

    def add(self, a, b):
        self.counts["add"] += 1
        return self.base.add(a, b)

    def sub(self, a, b):
        self.counts["sub"] += 1
        return self.base.sub(a, b)

    def mul(self, a, b):
        self.counts["mul"] += 1
        return self.base.mul(a, b)

    def neg(self, a):
        self.counts["neg"] += 1
        return self.base.neg(a)

    def inv(self, a):
        self.counts["inv"] += 1
        return self.base.inv(a)

    def from_int(self, k):
        return self.base.from_int(k)

    def parse(self, token):
        return self.base.parse(token)

    def fmt(self, a):
        return self.base.fmt(a)

    def _count(self, mul_add, inv=0):
        self.counts["mul"] += mul_add
        self.counts["add"] += mul_add
        self.counts["inv"] += inv

    def lift(self, rows):
        return self.base.lift(rows)

    def lower(self, rows, den):
        return self.base.lower(rows, den)

    def int_matmul(self, a, b):
        self._count(len(a) * len(b) * (len(b[0]) if b else 0))
        return self.base.int_matmul(a, b)

    def exact_div(self, x, k):
        self._count(1, inv=1)
        return self.base.exact_div(x, k)

    def int_rref(self, rows):
        out, pivots = self.base.int_rref(rows)
        rk = len(pivots)
        self._count(rk * len(rows) * (len(rows[0]) if rows else 0), inv=rk)
        return out, pivots

    def rank(self, rows):
        rk = self.base.rank(rows)
        self._count(rk * len(rows) * (len(rows[0]) if rows else 0))
        return rk

    def _sub_mul(self, row, c, lead):
        self._count(len(row))
        return self.base._sub_mul(row, c, lead)


QQ = Rationals()

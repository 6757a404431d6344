"""Exact coefficient fields and the bulk arithmetic kernels built on them.

Field elements are plain canonical values (``Fraction`` for the
rationals, ints in ``[0, p)`` for F_p), falsy exactly when zero; a ``Field``
object supplies the arithmetic.  Keeping elements raw instead of wrapped
makes loops over them considerably cheaper.

Kernel layer.  Everything matrix-sized goes through a few bulk methods:
``matmul``, row reduction (``echelon``, which ``rank`` also counts on) and
``expand``, the expansion of a whole matrix polynomial in powers of monic
polynomials (Taylor shifts when they are linear, Q-adic expansion
otherwise).  They run on the field's integer model: ``lift`` writes a block
of values as integers over one common denominator (rationals) or as
residues over 1 (F_p), and ``lower`` turns integers over a denominator back
into field elements.  Over QQ the inner loops therefore multiply Python ints
instead of normalising a Fraction per operation.  ``int_matmul``,
``echelon``, ``expand`` and ``exact_div`` take and return the model, so a
computation stays in it across many steps: Faddeev and matrix Horner, the
expansions of B(lambda) and the stacked reductions of cycle collection.
Blocks with different denominators are brought to one by ``common_den``
and ``int_scale``.
Over F_p every kernel takes and returns residues in [0, p).

One product kernel, ``_PackedOperator``, serves both fields and both entry
points: ``int_matmul`` applies B once to the rows of A, and ``int_operator``
prepares M (R = M^T) for the matrix Horner steps X_k = A*X_{k-1} + c_k*V
and the powers of e*A in cycle collection.  Each row x becomes x*R + c*v,
each row of R and V packed into one int in fixed-width slots (Kronecker
substitution): one C-level sum of k small-times-big products, read back
slot by slot.  The slot is the narrowest that holds the largest possible
sum: 1, 2, 4 or 8 bytes (packed with ``struct``), or as many as needed
beyond that.  Over F_p that bound is (k + 1)*(p - 1)^2 with V given and
k*(p - 1)^2 without, from p alone; the slots are unsigned, each reduced
modulo p as it is read.  Over QQ a slot holds +-(k*max|x|*max|R| +
|c|*max|V|) and +-max|R|, +-max|V| (both taken once), biased by half its
range, which the sum starts from and the read subtracts, so no slot
borrows from its neighbour.  A prepared operator packs once per slot
width.  Slots wider than 8 bytes and than 3 bytes per term (at n = 16,
entries of about 190 bits on both sides; over F_p at k = 4, p above 2^47),
and products with one column, take one dot product per entry instead,
adding c*v and reducing modulo p.  Over QQ, when A has much larger entries
than B, the product is taken as (B^T A^T)^T: the packed side holds them.

``expand`` is linear in the matrix coefficients, so it builds one
transition matrix W for all divisors and applies it to all the data with a
single ``int_matmul``: one call expands a matrix polynomial at every factor
of a characteristic polynomial.  Column k of W holds the digits of x^k at
every q in one list; those of x^(k+1) are them shifted by one place within
each q, with one step of the field-generic row kernel ``sub_mul`` for all.

One echelon kernel does all row reduction.  An echelon holds its pivot
rows in reduced row echelon form (RREF) and takes rows one at a time: a row
is reduced against the pivots, becomes a new pivot if anything is left, and
its pivot column is cleared from the other pivots.  Over QQ a row is a
primitive integer list that keeps its pivot value.  Over F_p a row is one
int, a residue per slot, packed as in the product and column 0 lowest;
pivot rows are normalized to 1 and fully reduced.  A row is eliminated
against every pivot at once with no reduction between steps (slot c,
holding e, gets p - e times the pivot row, which adds less than p^2 to each
slot) and then one Barrett step reduces all slots together (``_barrett``):
r - p*(((r*m) >> s) & mask), with m = ceil(2^s/p).  With at most ``width``
pivots a slot never exceeds bound = p + width*p^2, which s = bits(bound) +
bits(p) makes exact, and the slots are wide enough for bound*m.  (The
product reads its slots with ``% p`` instead: the wider slots would cost
its big multiplications more than that.)  An echelon is kept across edits:
``shift`` turns the chain rows of one level of cycle collection into those
of the next, and ``save``/``restore`` undo a refused insertion.

Text.  This module alone knows CPython's limit on the digits of an int
converted from or to a string: ``fmt`` and ``parse`` convert with it and,
only where that raises, once more with it lifted (``_unlimited``), so a
value of any size prints and reads back in full.  Bounding the work on
untrusted text is the caller's (``io``'s readers).
"""

import math
import struct
import sys
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import mul

from .errors import FieldMismatchError, ParseError, UnsupportedFieldError

# CPython's int/str digit limit, 0 for none (and before 3.10.7)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)

# psi_13, the least strong pseudoprime to the bases up to 41 (Sorenson, Webster 2017)
PSI13 = 3317044064679887385961981


# Packed-row slot widths in bytes that struct packs, and their codes
# (unsigned integers); _ROUND_UP[k] is the narrowest of them with k bytes.
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_ROUND_UP = (1, 1, 2, 4, 4, 8, 8, 8, 8)

# A packed product pays per slot byte (in its big multiplications and to
# pack and read the slots), a dot product per term: past the struct widths
# and above this many slot bytes per term, dot products measured faster
# (n = 8 to 32).
_SLOT_BYTES_PER_TERM = 3


def _slot_bytes(bound):
    """Bytes per slot for unsigned values up to ``bound``: the narrowest
    struct width that holds them, else exactly as many bytes as needed."""
    size = (bound.bit_length() + 7) // 8
    return _ROUND_UP[size] if size <= 8 else size


@lru_cache(maxsize=64)
def _packer(size, width):
    """(pack, unpack) for rows of ``width`` nonnegative ints in slots of
    ``size`` bytes: pack turns each of some rows into one int (the row
    evaluated at 2^(8*size)), unpack reads each of some such ints back into
    its slots."""
    nbytes = size * width
    code = _STRUCT_CODES.get(size)
    if code:
        slots = struct.Struct(f"<{width}{code}")
        return ((lambda rows: [int.from_bytes(slots.pack(*row), "little")
                               for row in rows]),
                lambda values: map(slots.unpack, map(
                    int.to_bytes, values, repeat(nbytes), repeat("little"))))
    # wider slots: struct cuts the bytes, int.from_bytes reads each slot
    slots = struct.Struct("<" + f"{size}s" * width)
    return ((lambda rows: [int.from_bytes(
                b"".join([x.to_bytes(size, "little") for x in row]), "little")
                           for row in rows]),
            lambda values: (map(int.from_bytes, cut, repeat("little"))
                            for cut in map(slots.unpack, map(
                                int.to_bytes, values, repeat(nbytes), repeat("little")))))


def _barrett(p, ncols, bound):
    """(size, reduce) for rows of ``ncols`` slots of ``size`` bytes holding
    values up to ``bound``: reduce(r) takes every slot of the packed row r
    to its residue mod p with one Barrett step (see the module docstring)."""
    s = bound.bit_length() + p.bit_length()
    m = -(-(1 << s) // p)
    size = _slot_bytes(bound * m)
    w = 8 * size
    # the quotient's bits of every slot, after the shift by s
    mask = ((1 << (w * ncols)) - 1) // ((1 << w) - 1) * ((1 << (w - s)) - 1)
    return size, lambda r: r - p * (((r * m) >> s) & mask)


def _unlimited(convert, x):
    """convert(x) with CPython's digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(x)
    finally:
        sys.set_int_max_str_digits(limit)


def quote(text):
    """repr(text) of at most its first 40 characters, for messages."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def is_prime(n):
    """Miller-Rabin to the 13 prime bases up to 41: a proof for n < PSI13 (3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
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

    def fmt(self, a):
        try:
            return str(a)
        except ValueError:          # past CPython's digit limit
            return _unlimited(str, a)

    # -- kernel layer; matrices are lists of rows of field elements --------

    def matmul(self, a, b):
        """The product of matrices ``a`` and ``b``."""
        ai, da = self.lift(a)
        bi, db = self.lift(b)
        return self.lower(self.int_matmul(ai, bi), da * db)

    def int_matmul(self, a, b):
        """a*b in the integer model: b's operator applied once to a's rows."""
        if not b or len(b[0]) < 2:      # one column: dot products, no operator
            return _dot(self.char, b, (), a, 0)
        if self.char:
            return _PackedOperator(self.char, b)(a)
        hi_a, hi_b = map(_max_abs, (a, b))
        if len(a) > 1 and hi_a.bit_length() > 2 * hi_b.bit_length():
            # pack the factor with the larger entries: (B^T A^T)^T
            return [list(row) for row in zip(*_PackedOperator(
                0, list(zip(*a)), hi=hi_a)(list(zip(*b)), hi_x=hi_b))]
        return _PackedOperator(0, b, hi=hi_b)(a, hi_x=hi_a)

    def int_operator(self, m, vs=()):
        """M prepared as op(cols, c=0): [M*x_j + c*v_j] for the columns x_j of
        ``cols`` and v_j of ``vs``, in the integer model, no denominator."""
        op = _PackedOperator(self.char, list(zip(*m)), vs)
        op.at = lru_cache(maxsize=None)(op.at)     # pack each slot width once
        return op

    def echelon(self, ncols, width, count=None):
        """An empty echelon (see the module docstring) for integer-model
        rows of ``ncols`` columns that will hold at most ``width`` pivots;
        ``count``, if given, is called as in ``_Echelon``."""
        raise NotImplementedError

    def expand(self, rows, dens, divisors):
        """For each ``(q, count)`` in ``divisors``, the first ``count``
        coefficients C_0, C_1, ... of the q-adic expansion
        sum_t C_t(x) q(x)^t of the matrix polynomial sum_k M_k x^k,
        i.e. the remainders of ``count`` repeated divisions by the monic q.

        The M_k are given in the integer model: ``rows[k]`` is the flat
        integer row of M_k's entries and ``dens[k]`` its denominator, at
        least one of them, lowest degree first; each q is monic of degree d
        (field elements, lowest degree first).  Returns, per divisor,
        ``count`` lists of d (flat integer row, denominator) pairs.

        With s the common denominator of q, substitute x = y/s: for M of
        nominal degree N, M^(y) = s^N M(y/s) = sum_k s^(N - k) M_k y^k is
        integral and q^(y) = s^d q(y/s) is monic and integral, so the
        q^-adic digits of every y^k are integral, and digit t of
        M^ is s^(N - t*d) C_t(y/s).  Its coefficient j comes out as integers
        over s^(N - t*d - j) times the denominator of the M_k.

        Every digit is linear in the M_k, so the expansion is one transition
        matrix W applied to all the data: column k of W holds the digits of
        y^k at every divisor, the divisors in turn, each row with its own
        denominator, so divisors with different s share it, and one product
        W * rows gives every remainder.

        The digits of y^k are one flat list, lowest first.  Those of y^(k+1)
        are y times each digit, whose top coefficient c gives
        c*y^d = c*q^ - c*(q^ - y^d): the list shifted by one place within
        each divisor carries c into the next digit, and one step of the row
        kernel, for all divisors together, subtracts c*q^_j from the digit's
        coefficient j.  Column k is scaled by s^(N - k) for the transform,
        and by the data's ``common_den`` factor, where that is not 1; rows
        past the polynomial's degree are zero, over 1.
        """
        den, scales = self.common_den(dens)
        top = len(scales) - 1
        digits, src, qh, w_dens, segs = [], [], [], [], []
        for q, count in divisors:
            d, start, size = len(q) - 1, len(digits), count * (len(q) - 1)
            (qi,), s = self.lift([q])
            segs.append((start, start + size, s))
            digits += [1] + [0] * (size - 1) if size else []
            # position i takes c*q^_j, c the top coefficient of its digit
            src += [start + i - i % d + d - 1 for i in range(size)]
            qh += [qi[j] * s ** (d - j - 1) for j in range(d)] * count
            w_dens += [s ** max(top - i, 0) for i in range(size)]
        starts = [a for a, b, _ in segs if 0 < a < b]
        cols = [digits]
        for _ in range(top):
            lead = list(map(mul, map(digits.__getitem__, src), qh))
            digits = ([0] + digits)[:len(lead)]
            for a in starts:
                digits[a] = 0
            digits = self.sub_mul(digits, 1, lead)
            cols.append(digits)
        for k, scale in enumerate(scales):
            xs = [scale * s ** (top - k) for _, _, s in segs]
            if any(x != 1 for x in xs):
                cols[k] = [y for (a, b, _), x in zip(segs, xs)
                           for y in self.int_scale([cols[k][a:b]], x)[0]]
        weights = list(zip(*cols))
        remainders = zip(self.int_matmul(weights, rows), [den * s for s in w_dens])
        return [[[next(remainders) for _ in range(len(q) - 1)] for _ in range(count)]
                for q, count in divisors]


def _max_abs(rows):
    return max(map(abs, chain.from_iterable(rows)), default=0)


def _dot(p, rows, vs, xs, c):
    """[x*R + c*v for x, v in zip(xs, vs)], one dot product per entry, mod p if p."""
    cols = list(zip(*rows))
    if c:
        xs = [[sum(map(mul, x, col), c * y) for col, y in zip(cols, v)]
              for x, v in zip(xs, vs)]
        return [[y % p for y in x] for x in xs] if p else xs
    if p:
        return [[sum(map(mul, x, col)) % p for col in cols] for x in xs]
    return [[sum(map(mul, x, col)) for col in cols] for x in xs]


class _PackedOperator:
    """op(xs, c=0): [x*R + c*v for x, v in zip(xs, vs)] over F_p or QQ (p = 0),
    as the module docstring sets out; ``hi``, ``hi_x``: max|R|, max|x| if known."""

    def __init__(self, p, rows, vs=(), hi=None):
        self.p, self.rows, self.vs = p, rows, vs
        if p:
            self.size = self._fit((len(rows) + bool(vs)) * (p - 1) ** 2)
        else:
            self.hi = _max_abs(rows) if hi is None else hi
            self.hi_v = _max_abs(vs)

    def __call__(self, xs, c=0, hi_x=None):
        if self.p:
            size = self.size
        else:
            hi, hi_v, k = self.hi, self.hi_v, len(self.rows)
            hi_x = _max_abs(xs) if hi_x is None else hi_x
            size = self._fit(max(k * hi_x * hi + abs(c) * hi_v, hi, hi_v) << 1)
        return (self._packed(xs, c, size) if size
                else _dot(self.p, self.rows, self.vs, xs, c))

    def _fit(self, bound):
        """Slot bytes for sums up to ``bound``; 0 past the crossover."""
        size = _slot_bytes(bound)
        return size if size <= max(8, _SLOT_BYTES_PER_TERM * len(self.rows)) else 0

    def _packed(self, xs, c, size):
        rows, vs, bias, half, unpack = self.at(size)
        sums = ([sum(map(mul, x, rows), bias + c * v) for x, v in zip(xs, vs)] if c
                else [sum(map(mul, x, rows), bias) for x in xs])
        p = self.p
        return ([[y % p for y in col] for col in unpack(sums)] if p else
                [[y - half for y in col] for col in unpack(sums)])

    def at(self, size):
        """R's and V's rows in ``size``-byte slots, the bias, half, unpacker."""
        width = len(self.rows[0])
        pack, unpack = _packer(size, width)
        half = 0 if self.p else 1 << (8 * size - 1)
        bias = half and pack([[half] * width])[0]
        rows, vs = ([v - bias for v in pack([x + half for x in row] for row in m)]
                    if half else pack(m) for m in (self.rows, self.vs))
        return rows, vs, bias, half, unpack


class Rationals(Field):
    """Arbitrary-precision reduced fractions."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

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
        return 1 / Fraction(a)

    def from_int(self, k):
        return Fraction(k)

    def fraction(self, num, den=1):
        return Fraction(num, den)

    def parse(self, token):
        # ASCII [-+]digits and [-+]digits/digits are read with int(); the
        # rest (signed denominators, underscores, decimals, exponents,
        # non-ASCII digits) goes to Fraction, which decides what is valid
        num, slash, den = token.partition("/")
        digits = num[1:] if num[:1] in ("+", "-") else num
        try:
            if token.isascii() and digits.isdigit() and (not slash or den.isdigit()):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            if _digit_limit():      # the value may be past the digit limit
                return _unlimited(self.parse, token)
            raise ParseError(f"bad rational {quote(token)}") from exc

    # -- integer model: integers over one common denominator --------------

    def lift(self, rows):
        """(integer rows, den) with rows == integer rows / den."""
        den = math.lcm(*{x.denominator for row in rows for x in row})
        if den == 1:
            return [[x.numerator for x in row] for row in rows], 1
        return [[x.numerator * (den // x.denominator) for x in row]
                for row in rows], den

    def lower(self, rows, den):
        zero = self.zero
        return [[Fraction(x, den) if x else zero for x in row] for row in rows]

    def common_den(self, dens):
        """(D, [D / den for den in dens]): integers over den times D / den
        are over D."""
        den = math.lcm(*dens)
        return den, [den // d for d in dens]

    def int_scale(self, rows, k):
        """The integer rows times k, as new rows (reduced over F_p)."""
        return [[x * k for x in row] for row in rows]

    def exact_div(self, x, k):
        """x/k where k divides x."""
        return x // k

    def echelon(self, ncols, width, count=None):
        return _RowEchelon(ncols, count)

    def sub_mul(self, row, c, lead):
        """row - c*lead, entrywise (reduced over F_p): the row kernel, on
        field elements or on the integer model."""
        return [x - c * y for x, y in zip(row, lead)]


def _primitive(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(pv, row, e, prow):
    """pv*row - e*prow over their gcd, made primitive: row with the column
    where prow holds pv and row holds e cleared."""
    g = math.gcd(pv, e)
    pv, e = pv // g, e // g
    return _primitive([pv * x - e * y for x, y in zip(row, prow)])


class _Echelon:
    """Pivot rows in reduced row echelon form, taken one row at a time.

    ``cols`` are the pivot columns in increasing order and ``rows`` their
    rows in the field's own format.  ``count``, if given, is called after
    each insertion with w times the elimination steps it ran on rows of w
    columns (``CountingField``).
    """

    def __init__(self, ncols, count):
        self.ncols = ncols
        self.cols, self.rows = [], []
        self._count = count

    def __len__(self):
        return len(self.cols)

    def insert(self, row):
        """Add a row of the integer model (over F_p, residues in [0, p));
        True if it was independent of the pivots, and is now one of them."""
        return self._insert(self._load(row))

    def pivot_rows(self, stop=None):
        """[(column, integer row)] for the pivots left of column ``stop``
        (all by default), in column order; a row divided by the value in
        its pivot column is a row of the RREF."""
        k = len(self.cols) if stop is None else bisect_left(self.cols, stop)
        return list(zip(self.cols[:k], self._lists(self.rows[:k])))

    def shift(self, n):
        """One level of cycle collection: pivot rows left of column n lose
        their last n columns, the others (zero there) their first n, and the
        result is reduced again.  The cut rows stay in RREF, so only the
        truncated ones are inserted anew."""
        k = bisect_left(self.cols, n)
        top = self.rows[:k]
        self.ncols -= n
        self.cols = [c - n for c in self.cols[k:]]
        self.rows = self._cut(self.rows[k:], n)
        for row in top:
            self._insert(self._truncated(row))

    def save(self):
        return self.ncols, list(self.cols), list(self.rows)

    def restore(self, state):
        """Back to the pivots of ``save``; each state is restored once."""
        self.ncols, self.cols, self.rows = state


class _RowEchelon(_Echelon):
    """The echelon over QQ: primitive integer lists, each pivot row keeping
    its pivot value (fraction-free)."""

    def _load(self, row):
        return _primitive(row)

    def _lists(self, rows):
        return rows

    def _cut(self, rows, n):
        return [row[n:] for row in rows]

    def _truncated(self, row):
        return row[:self.ncols]

    def _insert(self, row):
        cols, rows = self.cols, self.rows
        steps = 0
        for c, prow in zip(cols, rows):
            e = row[c]
            if e:
                row = _combine(prow[c], row, e, prow)
                steps += 1
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            pv = row[lead]
            k = bisect_left(cols, lead)
            # only pivot rows left of the new pivot can be nonzero under it
            for i in range(k):
                e = rows[i][lead]
                if e:
                    rows[i] = _combine(pv, rows[i], e, row)
                    steps += 1
            cols.insert(k, lead)
            rows.insert(k, row)
        if steps and self._count:
            self._count(steps * self.ncols)
        return lead is not None


class _PackedEchelon(_Echelon):
    """The echelon over F_p: each row one int of residues in slots of
    ``8*size`` bits, column 0 lowest (see the module docstring)."""

    def __init__(self, p, ncols, width, count):
        super().__init__(ncols, count)
        self.p = p
        self.size, self._reduce = _barrett(
            p, ncols, p + max(min(width, ncols), 1) * p * p)
        self.w = 8 * self.size
        self._slot = (1 << self.w) - 1

    def _load(self, row):
        return _packer(self.size, self.ncols)[0]([row])[0]

    def _lists(self, rows):
        return list(map(list, _packer(self.size, self.ncols)[1](rows)))

    def _cut(self, rows, n):
        cut = n * self.w
        return [r >> cut for r in rows]

    def _truncated(self, r):
        return r & ((1 << self.ncols * self.w) - 1)

    def _insert(self, r):
        p, w, slot, reduce = self.p, self.w, self._slot, self._reduce
        cols, rows = self.cols, self.rows
        steps = 0
        if r and cols:
            # pivot rows are zero in each other's pivot columns, so every
            # multiplier comes from the row as given
            slots = tuple(next(_packer(self.size, self.ncols)[1]([r])))
            live = [(p - slots[c], prow) for c, prow in zip(cols, rows) if slots[c]]
            if live:
                steps = len(live)
                r = reduce(sum([k * prow for k, prow in live], r))
        if r:
            lead = ((r & -r).bit_length() - 1) // w
            v = (r >> (lead * w)) & slot
            if v != 1:
                r = reduce(r * pow(v, -1, p))
            k = bisect_left(cols, lead)
            shift = lead * w
            for i in range(k):
                e = (rows[i] >> shift) & slot
                if e:
                    rows[i] = reduce(rows[i] + (p - e) * r)
                    steps += 1
            cols.insert(k, lead)
            rows.insert(k, r)
        if steps and self._count:
            self._count(steps * self.ncols)
        return r != 0


class PrimeField(Field):
    """Integers modulo a prime p < PSI13 (proved by is_prime); residues in [0, p)."""

    def __init__(self, p):
        if p >= PSI13:
            raise UnsupportedFieldError(f"p must be below {PSI13}, is_prime's proved range")
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
        try:
            if "/" not in token:
                return int(token) % self.p
            num, _, den = token.partition("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        except (ValueError, ZeroDivisionError) as exc:
            if _digit_limit():      # the value may be past the digit limit
                return _unlimited(self.parse, token)
            raise ParseError(f"bad F_{self.p} element {quote(token)}") from exc

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

    def common_den(self, dens):
        p = self.p
        return 1, [pow(d, -1, p) for d in dens]

    def int_scale(self, rows, k):
        p = self.p
        return [[x * k % p for x in row] for row in rows]

    def exact_div(self, x, k):
        return x * pow(k, -1, self.p) % self.p

    def echelon(self, ncols, width, count=None):
        return _PackedEchelon(self.p, ncols, width, count)

    def sub_mul(self, row, c, lead):
        p = self.p
        return [(x - c * y) % p for x, y in zip(row, lead)]


class CountingField(Field):
    """Wraps a field and counts operations; used by the complexity checks.

    Scalar operations count one each.  Kernels delegate to the base field
    and count the operations they stand for: a length-k dot product is k
    mul + k add, an elimination step or a ``sub_mul`` on a row of length w
    is w mul + w add.  The echelon counts each elimination step that runs,
    whether or not the base field packs its rows.  ``expand`` runs the
    generic algorithm on this field, so it counts the digit recurrence, one
    ``sub_mul`` on the digits of every divisor per power of x, and its product.
    ``int_operator`` counts a product per application and a mul and an add
    per entry of c*v.  Everything else, defined neither here nor on
    ``Field``, is the base field's, uncounted.
    """

    def __init__(self, base):
        self.base = base
        self.counts = {"add": 0, "sub": 0, "mul": 0, "inv": 0, "neg": 0}

    def __getattr__(self, name):
        # reached only for what neither this class nor Field defines; ``base``
        # itself is missing only on a half-built copy, where it must not recurse
        if name == "base":
            raise AttributeError(name)
        return getattr(self.base, name)

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

    def _count(self, mul_add, inv=0):
        self.counts["mul"] += mul_add
        self.counts["add"] += mul_add
        self.counts["inv"] += inv

    def int_matmul(self, a, b):
        self._count(len(a) * len(b) * (len(b[0]) if b else 0))
        return self.base.int_matmul(a, b)

    def int_operator(self, m, vs=()):
        op = self.base.int_operator(m, vs)
        terms = len(m) * len(m[0]) if m else 0

        def counted(cols, c=0):
            self._count(len(cols) * (terms + (len(m) if c else 0)))
            return op(cols, c)
        return counted

    def exact_div(self, x, k):
        self._count(1, inv=1)
        return self.base.exact_div(x, k)

    def echelon(self, ncols, width, count=None):
        return self.base.echelon(ncols, width, self._count)

    def sub_mul(self, row, c, lead):
        self._count(len(row))
        return self.base.sub_mul(row, c, lead)


QQ = Rationals()

"""Dense exact matrices, matrix-coefficient polynomials, and the one
matrix Horner loop.

Products, row reduction and the Q-adic expansion of matrix polynomials
are the field's bulk kernels (see ``fields``); this module only shapes the
data for them.  One ``matpoly_div_q`` call expands a matrix polynomial at
every divisor at once; Taylor shifts are its linear-divisor case.
``matrix_horner`` computes X_k = A*X_{k-1} + c_k*V on a block V of columns
in the integer model, as columns: the comatrix block (B(lambda)*V)^T over
every field, all of B at V = I, and a scalar polynomial at a matrix.
"""

from itertools import chain

from .errors import FieldMismatchError, NonMonicDivisorError
from .poly import Poly


class Matrix:
    """A dense matrix of field elements, ``data`` being its list of rows;
    over F_p these are residues in [0, p), which the kernels rely on, so
    other integers are refused (``from_ints`` reduces plain integers).

    A matrix built by ``from_lifted`` is held in the field's integer model
    instead, and lowered to field elements when ``data`` is first read;
    kernels read either form through ``lifted``.
    """

    __slots__ = ("field", "rows", "cols", "data", "_lifted")

    def __init__(self, field, data):
        self.field = field
        self._lifted = None
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
        p = field.char
        if p and self.cols and not (0 <= min(map(min, self.data))
                                    and max(map(max, self.data)) < p):
            raise ValueError(f"entries over F_{p} must be residues in [0, {p})")

    @classmethod
    def from_lifted(cls, field, rows, den):
        """The matrix of integer ``rows`` over ``den`` in the field's
        integer model, held as such; the rows are not copied."""
        m = cls.__new__(cls)
        m.field, m._lifted = field, (rows, den)
        m.rows, m.cols = len(rows), len(rows[0]) if rows else 0
        return m

    def __getattr__(self, name):
        # reached only for an unset slot: the data of a matrix held in the
        # integer model, lowered once on first read
        if name != "data" or self._lifted is None:
            raise AttributeError(name)
        rows, den = self._lifted
        self.data = self.field.lower(rows, den)
        self._lifted = None
        return self.data

    def lifted(self):
        """(integer rows, den), lifted once and kept: callers only read them,
        and in-place writes to ``data`` come before the first call."""
        if self._lifted is None:
            self._lifted = self.field.lift(self.data)
        return self._lifted

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        if not columns:
            return cls.zeros(field, rows or 0, 0)
        return cls(field, zip(*columns, strict=True))

    def transposed(self):
        rows, den = self.lifted()
        return Matrix.from_lifted(self.field, [list(col) for col in zip(*rows)], den)

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        if not (isinstance(other, Matrix) and self.field == other.field):
            return False
        mine, theirs = self._lifted, other._lifted    # same den: equal iff integers are
        return (mine[0] == theirs[0] if mine and theirs and mine[1] == theirs[1]
                else self.data == other.data)

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def column(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return not any(map(any, self._lifted[0] if self._lifted else self.data))

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        self.field.check_same(other.field)

    def __mul__(self, other):
        return mat_mul(self, other)


def mat_mul(a, b):
    """Classical O(n^3) exact product."""
    a._check(b)
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    (ai, da), (bi, db) = a.lifted(), b.lifted()
    return Matrix.from_lifted(a.field, a.field.int_matmul(ai, bi), da * db)


def rank(m):
    """The pivots of one echelon of ``m``'s integer model, lifted once."""
    ints, _ = m.lifted()
    basis = m.field.echelon(m.cols, m.rows)
    for row in ints:
        basis.insert(row)
    return len(basis)


class MatPoly:
    """Polynomial with matrix coefficients of one shape, lowest degree
    first: all of B(lambda) (square), or a block of it as (B(lambda)*V)^T."""

    __slots__ = ("field", "coeffs", "rows", "cols")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        # remember the shape before trimming so an identically zero
        # polynomial still knows its coefficient shape
        self.rows, self.cols = (coeffs[0].rows, coeffs[0].cols) if coeffs else (0, 0)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs
        for c in coeffs:
            if (c.rows, c.cols) != (self.rows, self.cols):
                raise ValueError("coefficients must be of equal shape")
            if c.field != field:
                raise FieldMismatchError("coefficient field mismatch")

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, MatPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"MatPoly(degree={self.degree}, shape={self.rows}x{self.cols})"


def matpoly_div_q(mp, divisors):
    """Q-adic coefficients of mp at several divisors in one expansion: for
    each (q, count) in ``divisors``, [C_0, ..., C_{count-1}] with
    mp = sum_k C_k * q^k + q^count * (rest), each C_k the list of its
    deg(q) coefficient matrices, lowest degree first.

    They are the q-adic digits of mp, all taken by the field's ``expand``
    kernel in one product with the digits of the powers of lambda; no
    coefficient division happens since every q is monic.  The matrices are
    held in the integer model, in mp's coefficient shape (s x n for the
    comatrix block (B*V)^T, a chain in each row).
    """
    f = mp.field
    for q, count in divisors:
        if q.is_zero or not q.is_monic:
            raise NonMonicDivisorError("divisor must be monic and nonzero")
        f.check_same(q.field)
        if count < 1:
            raise ValueError("multiplicity must be >= 1")
    h, w = mp.rows, mp.cols
    lifted = [m.lifted() for m in mp.coeffs] or [([[0] * w] * h, 1)]
    rems = f.expand([list(chain.from_iterable(rows)) for rows, _ in lifted],
                    [den for _, den in lifted],
                    [(q.coeffs, count) for q, count in divisors])
    return [[[Matrix.from_lifted(f, [r[i * w:(i + 1) * w] for i in range(h)], den)
              for r, den in rem] for rem in per_divisor] for per_divisor in rems]


def horner_shift(mp, points):
    """Taylor coefficients at several points in one expansion: for each
    (a, count) in ``points``, [M(a), M^1(a), ..., M^{count-1}(a)], the
    Q-adic coefficients of mp for Q = lambda - a (see ``matpoly_div_q``).

    No derivatives or factorials are involved, so this is valid in any
    characteristic.
    """
    f = mp.field
    expansions = matpoly_div_q(
        mp, [(Poly.x_minus(f, a), count) for a, count in points])
    return [[c_k[0] for c_k in blocks] for blocks in expansions]


def matrix_horner(a, coeffs, v):
    """[X_0^T, ..., X_m^T] for the polynomial with ``coeffs`` c_0..c_m (field
    elements, lowest degree first, c_m nonzero) on the block V (a list of
    columns): X_0 = c_m*V and X_k = A*X_{k-1} + c_{m-k}*V, so X_m = p(A)*V,
    each X_k as its s columns, an s x n matrix in the integer model.  It runs on
    A' = d*A, d the common denominator of A (1 over F_p), as
    X'_k = A'*X'_{k-1} + d^k*c_{m-k}*V with X'_k = d^k*X_k: the scaled
    coefficients are integers over some e (e = 1 for the charpoly of A,
    since d^k*p_{n-k} is a coefficient of that of A'), and no Fraction is
    formed.  A' is prepared once by the field's ``int_operator``, and each
    step applies it to the columns with c*V in the same sum."""
    f = a.field
    m = len(coeffs) - 1
    ai, d = a.lifted()
    (cs,), e = f.lift([[c * d ** (m - j) for j, c in enumerate(coeffs)]])
    vi, e_v = f.lift(v)
    op = f.int_operator(ai, vi)
    xs = [vi if cs[-1] == 1 else f.int_scale(vi, cs[-1])]
    for c in reversed(cs[:-1]):
        xs.append(op(xs[-1], c))
    return [Matrix.from_lifted(f, x, e * e_v * d ** k) for k, x in enumerate(xs)]


def identity_columns(field, n):
    return [[field.one if i == j else field.zero for i in range(n)] for j in range(n)]


def poly_at_matrix(p, a):
    """p(A) by matrix Horner from p's leading coefficient, held in the
    integer model."""
    p.field.check_same(a.field)
    if p.is_zero:
        return Matrix.zeros(a.field, a.rows, a.rows)
    return matrix_horner(a, p.coeffs, identity_columns(a.field, a.rows))[-1].transposed()

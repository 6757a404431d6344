"""Dense exact matrices, matrix-coefficient polynomials, and the
column-tracking reduction stack used by the cycle-collection algorithms.

Products, row reduction and the synthetic division of matrix polynomials
are the field's bulk kernels (see ``fields``); this module only shapes the
data for them.  Column reduction is realized everywhere as row reduction of
the transpose by one fraction-free elimination kernel: ``int_rref`` in the
stack, or ``rank`` where only the rank is needed.  One ``matpoly_div_q``
call expands a matrix polynomial at every divisor at once; Taylor shifts
are its linear-divisor case.
"""

from itertools import chain

from .errors import (FieldMismatchError, InternalConsistencyError,
                     NonMonicDivisorError)
from .poly import Poly


class Matrix:
    """A dense matrix of field elements, ``data`` being its list of rows.

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
        """(integer rows, den) in the field's integer model; shared with
        the matrix, so callers only read them."""
        return self._lifted or self.field.lift(self.data)

    @classmethod
    def from_ints(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        if not columns:
            return cls.zeros(field, rows or 0, 0)
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.fmt(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def __getitem__(self, rc):
        return self.data[rc[0]][rc[1]]

    def column(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        if self._lifted:
            return self.field.int_is_zero(self._lifted[0])
        return not any(map(any, self.data))

    def _check(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        self.field.check_same(other.field)

    def __add__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(f, [[f.add(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        f = self.field
        return Matrix(f, [[f.sub(a, b) for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        f = self.field
        return Matrix(f, [[f.neg(x) for x in row] for row in self.data])

    def scale(self, c):
        f = self.field
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.data])

    def __mul__(self, other):
        return mat_mul(self, other)

    def mul_vector(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [row[0] for row in self.field.matmul(self.data, [[x] for x in v])]

    def transpose(self):
        return Matrix(self.field, [self.column(j) for j in range(self.cols)])

    def hstack(self, *others):
        """This matrix with ``others`` to its right, held in the integer
        model over one denominator."""
        for other in others:
            self._check(other)
            if self.rows != other.rows:
                raise ValueError("shape mismatch")
        f = self.field
        parts, den = f.to_common([m.lifted() for m in (self, *others)])
        return Matrix.from_lifted(
            f, [list(chain.from_iterable(row)) for row in zip(*parts)], den)


def mat_mul(a, b):
    """Classical O(n^3) exact product."""
    a._check(b)
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    return Matrix(a.field, a.field.matmul(a.data, b.data))


def rank(m):
    return m.field.rank(m.data)


class MatPoly:
    """Polynomial with square matrix coefficients, lowest degree first."""

    __slots__ = ("field", "coeffs", "size")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        # remember the size before trimming so an identically zero
        # polynomial still knows its coefficient shape
        size = coeffs[0].rows if coeffs else 0
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.field = field
        self.coeffs = coeffs
        self.size = size
        for c in coeffs:
            if not c.is_square or c.rows != self.size:
                raise ValueError("coefficients must be square of equal size")
            if c.field != field:
                raise FieldMismatchError("coefficient field mismatch")

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, k):
        if k < len(self.coeffs):
            return self.coeffs[k]
        return Matrix.zeros(self.field, self.size, self.size)

    def __eq__(self, other):
        return (isinstance(other, MatPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"MatPoly(degree={self.degree}, size={self.size})"


def matpoly_div_q(mp, divisors):
    """Q-adic coefficients of mp at several divisors in one expansion: for
    each (q, count) in ``divisors``, [C_0, ..., C_{count-1}] with
    mp = sum_k C_k * q^k + q^count * (rest), each C_k the list of its
    deg(q) coefficient matrices, lowest degree first.

    They are the remainders of ``count`` iterated divisions by the monic q,
    all taken by the field's ``expand`` kernel in one product; no
    coefficient division happens since every q is monic.  The matrices are
    held in the integer model.
    """
    f = mp.field
    for q, count in divisors:
        if q.is_zero or not q.is_monic:
            raise NonMonicDivisorError("divisor must be monic and nonzero")
        f.check_same(q.field)
        if count < 1:
            raise ValueError("multiplicity must be >= 1")
    n = mp.size
    lifted = [m.lifted() for m in mp.coeffs] or [([[0] * n] * n, 1)]
    rems = f.expand([list(chain.from_iterable(rows)) for rows, _ in lifted],
                    [den for _, den in lifted],
                    [(q.coeffs, count) for q, count in divisors])
    return [[[Matrix.from_lifted(f, [r[i * n:(i + 1) * n] for i in range(n)], den)
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


def poly_at_matrix(p, a):
    """Evaluate a scalar polynomial at a square matrix (matrix Horner)."""
    p.field.check_same(a.field)
    f = a.field
    acc = Matrix.zeros(f, a.rows, a.rows)
    ident = Matrix.identity(f, a.rows)
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, a) + ident.scale(c)
    return acc


class ReducedStack:
    """Blocks stacked one under another, columns aligned.

    Internally each column chain is one row of the chain matrix (the
    transpose of the stacked picture): row j = (s_0 | s_1 | ... | s_{L-1})
    where s_t is the chain's segment in block t, block 0 on top.  Every
    elementary operation acts on whole rows, so it hits all blocks at once,
    which is what preserves the inter-block chain relations.

    Rows stay in the field's integer model: ``chain_rows[j]`` is a row of
    integers and ``dens[j]`` its denominator; after ``reduce`` a row's
    denominator is its pivot value.  Reduction, shifts, cuts and dropping
    zero chains act on the integers (none of them depends on a row's
    scale), and a row becomes field elements only when it is read through
    ``chain_segments`` or ``blocks``.
    """

    def __init__(self, field, seg_len, levels, chain_rows, dens):
        self.field = field
        self.seg_len = seg_len
        self.levels = levels
        self.chain_rows = list(chain_rows)
        self.dens = list(dens)
        for r in self.chain_rows:
            if len(r) != seg_len * levels:
                raise ValueError("bad chain row length")

    @classmethod
    def from_blocks(cls, blocks):
        """Build from matrices [block_0, ..., block_{L-1}], block 0 on top.
        Chains are the aligned columns, taken from the blocks' integer
        model once the blocks are over one denominator."""
        if not blocks:
            raise ValueError("empty stack")
        field = blocks[0].field
        seg_len = blocks[0].rows
        width = blocks[0].cols
        for b in blocks:
            if b.rows != seg_len or b.cols != width or b.field != field:
                raise ValueError("blocks must agree in shape and field")
        parts, den = field.to_common([b.lifted() for b in blocks])
        columns = [list(zip(*rows)) for rows in parts]
        chains = [list(chain.from_iterable(cols[j] for cols in columns))
                  for j in range(width)]
        return cls(field, seg_len, len(blocks), chains, [den] * width)

    @property
    def num_chains(self):
        return len(self.chain_rows)

    def _lowered(self, idx):
        return self.field.lower([self.chain_rows[idx]], self.dens[idx])[0]

    def chain_segments(self, idx):
        """Segments [s_0, ..., s_{L-1}] of one chain."""
        n = self.seg_len
        row = self._lowered(idx)
        return [row[t * n:(t + 1) * n] for t in range(self.levels)]

    def blocks(self):
        """The stacked-matrix view: list of L matrices, block 0 first."""
        n = self.seg_len
        rows = [self._lowered(idx) for idx in range(self.num_chains)]
        out = []
        for t in range(self.levels):
            cols = [row[t * n:(t + 1) * n] for row in rows]
            out.append(Matrix.from_columns(self.field, cols, rows=n))
        return out

    def reduce(self):
        """Row-reduce the chain matrix (full RREF, pivots scanned left to
        right so the top block is reduced first).  Returns (new stack,
        indices of chains whose pivot lies in the top block)."""
        if not self.chain_rows:
            return self, []
        rows, pivots = self.field.int_rref(self.chain_rows)
        dens = [rows[i][c] for i, c in pivots] + [1] * (len(rows) - len(pivots))
        new = ReducedStack(self.field, self.seg_len, self.levels, rows, dens)
        top = [r for r, c in pivots if c < self.seg_len]
        return new, top

    def shift_down(self, idx):
        """Move chain ``idx`` one block lower: the deepest segment drops
        off and a zero segment enters on top.  A single-level chain is
        retired (removed)."""
        n = self.seg_len
        if self.levels == 1:
            del self.chain_rows[idx]
            del self.dens[idx]
            return
        row = self.chain_rows[idx]
        self.chain_rows[idx] = [0] * n + row[:(self.levels - 1) * n]

    def drop_zero_chains(self):
        kept = [(r, den) for r, den in zip(self.chain_rows, self.dens) if any(r)]
        self.chain_rows = [r for r, _ in kept]
        self.dens = [den for _, den in kept]

    def cut_top(self):
        """Remove the (all-zero) top block; the chain length shrinks by 1."""
        n = self.seg_len
        for row in self.chain_rows:
            if any(row[:n]):
                raise InternalConsistencyError("cut_top with nonzero top segment")
        self.chain_rows = [row[n:] for row in self.chain_rows]
        self.levels -= 1

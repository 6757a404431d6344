import functools
import math
import random
import sys

import pytest

from jnf.decomposition import companion, cycle_block_matrix
from jnf.errors import InternalConsistencyError, JnfError
from jnf.fields import QQ
from jnf.matrix import MatPoly, Matrix, mat_mul, rank
from jnf.poly import Poly


class SingularMatrixError(JnfError):
    """``mat_inverse`` was asked to invert a singular matrix."""


@pytest.fixture
def default_digit_limit():
    """CPython's default limit on the digits of an int/str conversion for
    the test, whatever the interpreter started with; restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


@pytest.fixture(params=["default", "lifted"])
def digit_limit(request):
    """The test runs at CPython's default digit limit and with the limit
    lifted (0), the setting a user controls; restored after it."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(
            sys.int_info.default_max_str_digits if request.param == "default" else 0)
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def fixture_a():
    """3x3 test matrix: eigenvalues 2 (mult 2) and 1."""
    return Matrix.from_ints(QQ, [[3, -1, 1], [2, 0, 1], [1, -1, 2]])


@pytest.fixture
def fixture_b():
    """3x3 test matrix: single eigenvalue 1 with cycles of lengths 2 and 1."""
    return Matrix.from_ints(QQ, [[3, 2, -2], [-1, 0, 1], [1, 1, 0]])


def make_fixture_m6():
    q = QQ.fraction
    return Matrix(QQ, [
        [q(1), q(-2), q(4), q(-2), q(5), q(-4)],
        [q(0), q(1), q(5, 2), q(-7, 2), q(2), q(-5, 2)],
        [q(1), q(-5, 2), q(2), q(-1, 2), q(5, 2), q(-3)],
        [q(0), q(-1), q(9, 2), q(-7, 2), q(3), q(-7, 2)],
        [q(0), q(0), q(2), q(-2), q(3), q(-1)],
        [q(1), q(-3, 2), q(-1, 2), q(1), q(3, 2), q(1, 2)],
    ])


@pytest.fixture
def fixture_m6():
    """6x6 matrix with characteristic polynomial (x-2)^2 (x^2-2)^2."""
    return make_fixture_m6()


def charpoly_oracle(a):
    """det(xI - A) by recursive cofactor expansion over the polynomial ring;
    independent of both Faddeev and Hessenberg."""
    f = a.field
    n = a.rows
    entries = [[Poly(f, [f.neg(a.data[i][j])]) for j in range(n)] for i in range(n)]
    for i in range(n):
        entries[i][i] = poly_add(entries[i][i], Poly(f, [f.zero, f.one]))

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        acc = Poly.zero(f)
        r = rows[0]
        for k, c in enumerate(cols):
            term = poly_mul(entries[r][c], det(rows[1:], cols[:k] + cols[k + 1:]))
            acc = poly_add(acc, term) if k % 2 == 0 else poly_sub(acc, term)
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def det_oracle(a):
    """Determinant by cofactor expansion (scalar entries)."""
    f = a.field

    def det(rows, cols):
        if len(cols) == 1:
            return a.data[rows[0]][cols[0]]
        acc = f.zero
        r = rows[0]
        for k, c in enumerate(cols):
            term = f.mul(a.data[r][c], det(rows[1:], cols[:k] + cols[k + 1:]))
            acc = f.add(acc, term) if k % 2 == 0 else f.sub(acc, term)
        return acc

    return det(tuple(range(a.rows)), tuple(range(a.cols)))


def adjugate_oracle(a):
    """Classical adjugate from signed cofactors."""
    f = a.field
    n = a.rows
    out = Matrix.zeros(f, n, n)
    rows = tuple(range(n))
    for i in range(n):
        for j in range(n):
            sub = Matrix(f, [[a.data[r][c] for c in rows if c != j]
                             for r in rows if r != i])
            cof = det_oracle(sub) if n > 1 else f.one
            out.data[j][i] = cof if (i + j) % 2 == 0 else f.neg(cof)
    return out


def det(m):
    """Determinant by fraction-full Gaussian elimination."""
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    f = m.field
    data = [list(row) for row in m.data]
    n = m.rows
    sign_flip = False
    acc = f.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if not f.is_zero(data[i][c]):
                pr = i
                break
        if pr is None:
            return f.zero
        if pr != c:
            data[pr], data[c] = data[c], data[pr]
            sign_flip = not sign_flip
        piv = data[c][c]
        acc = f.mul(acc, piv)
        inv = f.inv(piv)
        for i in range(c + 1, n):
            if f.is_zero(data[i][c]):
                continue
            factor = f.neg(f.mul(inv, data[i][c]))
            data[i] = [f.add(x, f.mul(factor, y)) for x, y in zip(data[i], data[c])]
    return f.neg(acc) if sign_flip else acc


def rref(m):
    """Reduced row echelon form with pivots normalized to 1: (reduced,
    rank, pivots) with pivots the (row, column) of each pivot.  It is the
    field's echelon after inserting every lifted row, each pivot row
    divided by its pivot once at the end."""
    f = m.field
    basis = f.echelon(m.cols, m.rows)
    for row in f.lift(m.data)[0]:
        basis.insert(row)
    pivots = basis.pivot_rows()
    out = [f.lower([row], row[c])[0] for c, row in pivots]
    out += [[f.zero] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(f, out), len(pivots), [(i, c) for i, (c, _) in enumerate(pivots)]


def kernel_basis(m):
    """Basis of the right null space as a list of column vectors."""
    f = m.field
    reduced, _, pivots = rref(m)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivot_cols):
        v = [f.zero] * m.cols
        v[fc] = f.one
        for r, c in pivots:
            v[c] = f.neg(reduced.data[r][fc])
        basis.append(v)
    return basis


def columns(m):
    return [m.column(j) for j in range(m.cols)]


def vstack(a, b):
    if a.cols != b.cols:
        raise ValueError("shape mismatch")
    return Matrix(a.field, a.data + b.data)


def hstack(*blocks):
    """The matrices side by side, the first on the left."""
    if len({b.rows for b in blocks}) != 1:
        raise ValueError("shape mismatch")
    return Matrix(blocks[0].field,
                  [sum(rows, []) for rows in zip(*(b.data for b in blocks))])


def trace(m):
    if not m.is_square:
        raise ValueError("trace of non-square matrix")
    return functools.reduce(m.field.add, (m.data[i][i] for i in range(m.rows)),
                            m.field.zero)


def identity(field, n):
    z, o = field.zero, field.one
    return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])


def mul_vector(m, v):
    """The matrix ``m`` times the column vector ``v``, as a list."""
    if len(v) != m.cols:
        raise ValueError("shape mismatch")
    return [row[0] for row in m.field.matmul(m.data, [[x] for x in v])]


def _entrywise(op, *mats):
    f = mats[0].field
    for m in mats[1:]:
        f.check_same(m.field)
        if (m.rows, m.cols) != (mats[0].rows, mats[0].cols):
            raise ValueError("shape mismatch")
    return Matrix(f, [[op(*xs) for xs in zip(*rows)]
                      for rows in zip(*(m.data for m in mats))])


def mat_add(a, b):
    return _entrywise(a.field.add, a, b)


def mat_sub(a, b):
    return _entrywise(a.field.sub, a, b)


def mat_neg(a):
    return _entrywise(a.field.neg, a)


def mat_scale(a, c):
    """c * A for a field element c."""
    return _entrywise(lambda x: a.field.mul(c, x), a)


def mat_pow(m, k):
    if not m.is_square:
        raise ValueError("power of non-square matrix")
    acc = identity(m.field, m.rows)
    for _ in range(k):
        acc = mat_mul(acc, m)
    return acc


def poly_eval(p, a):
    """p(a) for a scalar a, by Horner."""
    f = p.field
    acc = f.zero
    for c in reversed(p.coeffs):
        acc = f.add(f.mul(acc, a), c)
    return acc


def poly_at_matrix_oracle(p, a):
    """p(A) by matrix Horner on field elements, one entrywise step at a
    time."""
    f = a.field
    acc = Matrix.zeros(f, a.rows, a.rows)
    ident = identity(f, a.rows)
    for c in reversed(p.coeffs):
        acc = mat_add(mat_mul(acc, a), mat_scale(ident, c))
    return acc


def lambda_i_minus(a):
    """The degree-1 matrix polynomial lambda*I - A."""
    return MatPoly(a.field, [mat_neg(a), identity(a.field, a.rows)])


def transposed(mp):
    """mp with every coefficient transposed: all of B(lambda) as the cycle
    engine reads it, B^T with a chain in each row, the shape of the comatrix
    block (B*V)^T at V = I."""
    return MatPoly(mp.field, [m.transposed() for m in mp.coeffs])


def matpoly_add(x, y):
    x.field.check_same(y.field)
    zero = Matrix.zeros(x.field, max(x.rows, y.rows), max(x.cols, y.cols))
    n = max(len(x.coeffs), len(y.coeffs))
    return MatPoly(x.field, [mat_add(x.coeffs[k] if k < len(x.coeffs) else zero,
                                     y.coeffs[k] if k < len(y.coeffs) else zero)
                             for k in range(n)])


def matpoly_sub(x, y):
    return matpoly_add(x, MatPoly(y.field, [mat_neg(m) for m in y.coeffs]))


def matpoly_mul_poly(mp, p):
    """Multiply by a scalar polynomial, entrywise."""
    mp.field.check_same(p.field)
    if mp.is_zero or p.is_zero:
        return MatPoly(mp.field, [])
    f = mp.field
    out = [Matrix.zeros(f, mp.rows, mp.cols)
           for _ in range(len(mp.coeffs) + len(p.coeffs) - 1)]
    for i, m in enumerate(mp.coeffs):
        for j, c in enumerate(p.coeffs):
            if not f.is_zero(c):
                out[i + j] = mat_add(out[i + j], mat_scale(m, c))
    return MatPoly(f, out)


def matpoly_mul(x, y):
    x.field.check_same(y.field)
    if x.is_zero or y.is_zero:
        return MatPoly(x.field, [])
    out = [Matrix.zeros(x.field, x.rows, y.cols)
           for _ in range(len(x.coeffs) + len(y.coeffs) - 1)]
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = mat_add(out[i + j], mat_mul(a, b))
    return MatPoly(x.field, out)


def block_diagonal_part(dec):
    """The companion block-diagonal D of J (the N = J - D part carries the
    couplings)."""
    f = dec.field
    n = dec.j.rows
    d_mat = Matrix.zeros(f, n, n)
    for blk in dec.blocks:
        comp = companion(blk.factor)
        d = blk.factor.degree
        for g in range(blk.cycle_length):
            base = blk.offset + g * d
            for r in range(d):
                for c in range(d):
                    d_mat.data[base + r][base + c] = comp.data[r][c]
    return d_mat


def expand_cycle(segs, a, q):
    """The groups [w_j, A*w_j, ..., A^{d-1}*w_j] of a Q(A)-cycle given
    w_0 first; the irreducibility of Q guarantees (and the rank check
    enforces) that the k*d vectors are independent."""
    groups = []
    for w in segs:
        group = [w]
        for _ in range(q.degree - 1):
            group.append(mul_vector(a, group[-1]))
        groups.append(group)
    flat = [v for group in groups for v in group]
    if rank(Matrix(a.field, flat)) != len(flat):
        raise InternalConsistencyError("expanded cycle vectors are dependent")
    return groups


def mat_inverse(m):
    """Exact inverse via Gauss-Jordan on [m | I]."""
    if not m.is_square:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    reduced, _, pivots = rref(hstack(m, identity(m.field, n)))
    # invertible iff every pivot of the augmented reduction stays in the
    # left half (the identity half always completes the rank)
    if [c for _, c in pivots[:n]] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return Matrix(m.field, [row[n:] for row in reduced.data])


def horner_eval(mp, a):
    """Evaluate a matrix polynomial at a scalar by Horner."""
    if mp.is_zero:
        raise ValueError("cannot size the value of an empty matrix polynomial")
    acc = mp.coeffs[-1]
    for k in range(len(mp.coeffs) - 2, -1, -1):
        acc = mat_add(mat_scale(acc, a), mp.coeffs[k])
    return acc


def matpoly_reconstruct_shifts(shifts, a, field):
    """Rebuild sum_k shifts[k] * (lambda - a)^k."""
    return matpoly_reconstruct_q_adic(
        [[m] for m in shifts], Poly.x_minus(field, a), field)


def matpoly_reconstruct_q_adic(c_blocks, q, field):
    """Rebuild sum_k c_blocks[k] * q^k, each C_k given by its coefficient
    matrices."""
    acc = MatPoly(field, [])
    power = poly_one(field)
    for c in c_blocks:
        acc = matpoly_add(acc, matpoly_mul_poly(MatPoly(field, c), power))
        power = poly_mul(power, q)
    return acc


def rand_matrix(rng, field, n, lo=-5, hi=5):
    return Matrix.from_ints(
        field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def rand_poly(rng, field, deg, lo=-4, hi=4):
    coeffs = [rng.randint(lo, hi) for _ in range(deg)] + [rng.choice([1, 1, 2, -3])]
    return Poly.from_ints(field, coeffs)


def random_unimodular(rng, field, n, steps=None):
    """Integer matrix with determinant +-1, built from elementary ops."""
    u = identity(field, n)
    steps = steps if steps is not None else 3 * n
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        kind = rng.random()
        if kind < 0.7:
            c = field.from_int(rng.choice([-2, -1, 1, 2]))
            u.data[i] = [field.add(x, field.mul(c, y))
                         for x, y in zip(u.data[i], u.data[j])]
        else:
            u.data[i], u.data[j] = u.data[j], u.data[i]
    return u


IRREDUCIBLE_QUADRATICS = [
    [-2, 0, 1],    # x^2 - 2
    [-3, 0, 1],    # x^2 - 3
    [1, 0, 1],     # x^2 + 1
    [1, 1, 1],     # x^2 + x + 1
    [-6, 0, 1],    # x^2 - 6
    [3, -1, 1],    # x^2 - x + 3
]


def random_normal_form(rng, field, n_max=10):
    """Ground-truth rational normal form with mixed linear and quadratic
    factors.  Returns (matrix J, multiset {(factor coeff tuple, k): count})."""
    linear_pool = list(range(-4, 6))
    rng.shuffle(linear_pool)
    quad_pool = list(IRREDUCIBLE_QUADRATICS)
    rng.shuffle(quad_pool)
    budget = rng.randint(2, n_max)
    pieces = []       # (factor Poly, [cycle lengths])
    while budget > 0:
        use_quad = quad_pool and (budget >= 2 and rng.random() < 0.5)
        if use_quad:
            q = Poly.from_ints(field, quad_pool.pop())
            d = 2
        elif linear_pool:
            q = Poly.x_minus(field, field.from_int(linear_pool.pop()))
            d = 1
        else:
            break
        lengths = []
        while budget >= d and (not lengths or rng.random() < 0.5):
            k = rng.randint(1, budget // d)
            lengths.append(k)
            budget -= k * d
        if lengths:
            pieces.append((q, lengths))
    if not pieces:
        lam = field.from_int(linear_pool.pop())
        pieces = [(Poly.x_minus(field, lam), [1])]
    multiset = {}
    for q, lengths in pieces:
        for k in lengths:
            key = (tuple(q.coeffs), k)
            multiset[key] = multiset.get(key, 0) + 1
    return normal_form(field, pieces), multiset


def normal_form(field, pieces):
    """Block-diagonal rational normal form from [(factor Poly, [cycle
    lengths])], blocks in the order given."""
    n = sum(q.degree * k for q, ls in pieces for k in ls)
    j = Matrix.zeros(field, n, n)
    offset = 0
    for q, lengths in pieces:
        for k in lengths:
            blk = cycle_block_matrix(q, k, "rational", "upper")
            for r in range(blk.rows):
                for c in range(blk.cols):
                    j.data[offset + r][offset + c] = blk.data[r][c]
            offset += blk.rows
    return j


def conjugate_random(rng, j):
    u = random_unimodular(rng, j.field, j.rows)
    return mat_mul(mat_mul(u, j), mat_inverse(u))


def block_multiset(dec):
    out = {}
    for blk in dec.blocks:
        key = (tuple(blk.factor.coeffs), blk.cycle_length)
        out[key] = out.get(key, 0) + 1
    return out


def rng_for(name):
    return random.Random(f"jnf::{name}")


def division_rows_oracle(f, q, count, scales):
    """``count`` divisions by the monic q (field elements) of the identity
    of size len(scales) = top + 1, one scalar operation at a time on lists,
    in the x = y/s transform of ``Field.expand`` (s the common denominator
    of q, 1 over F_p): row k of the identity is scaled by
    scales[k] * s^(top - k), q's coefficient j by s^(d - j).  Returns
    (remainder rows, their denominators s^(top - j), how many rows each
    division left)."""
    d = len(q) - 1
    top = len(scales) - 1
    s = math.lcm(*(int(c.denominator) for c in q))
    qhat = [f.mul(c, f.from_int(s ** (d - j))) for j, c in enumerate(q)]
    rem = [[f.mul(f.from_int(scales[k]), f.from_int(s ** (top - k))) if j == k
            else f.zero for j in range(top + 1)] for k in range(top + 1)]
    weights, dens, live = [], [], []
    for _ in range(count):
        quot = []
        for k in range(top, d - 1, -1):
            lead = rem[k]
            quot.append(lead)
            for j in range(d):
                rem[k - d + j] = [f.sub(x, f.mul(qhat[j], y))
                                  for x, y in zip(rem[k - d + j], lead)]
        weights += rem[:d]
        dens += [s ** (top - j) for j in range(min(d, len(rem)))]
        live.append(min(d, len(rem)))
        rem = quot[::-1]
        top -= d
    return weights, dens, live


# -- polynomial arithmetic on field elements, one Field call per term ------

def poly_one(field):
    return Poly(field, [field.one])


def _coeff(p, k):
    return p.coeffs[k] if k < len(p.coeffs) else p.field.zero


def _termwise(op, a, b):
    a.field.check_same(b.field)
    n = max(len(a.coeffs), len(b.coeffs))
    return Poly(a.field, [op(_coeff(a, k), _coeff(b, k)) for k in range(n)])


def poly_add(a, b):
    return _termwise(a.field.add, a, b)


def poly_sub(a, b):
    return _termwise(a.field.sub, a, b)


def poly_mul(*factors):
    """The product of the polynomials, by schoolbook convolution."""
    f = factors[0].field
    out = poly_one(f)
    for p in factors:
        f.check_same(p.field)
        if out.is_zero or p.is_zero:
            return Poly.zero(f)
        acc = [f.zero] * (len(out.coeffs) + len(p.coeffs) - 1)
        for i, a in enumerate(out.coeffs):
            for j, b in enumerate(p.coeffs):
                acc[i + j] = f.add(acc[i + j], f.mul(a, b))
        out = Poly(f, acc)
    return out


def poly_divmod(a, b):
    """Euclidean division by a nonzero b: (quotient, remainder) with
    a = quotient*b + remainder and deg(remainder) < deg(b)."""
    a.field.check_same(b.field)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    f = a.field
    d, inv = b.degree, f.inv(b.coeffs[-1])
    rem = list(a.coeffs)
    quot = [f.zero] * max(len(rem) - d, 0)
    for k in range(len(rem) - 1, d - 1, -1):
        c = f.mul(rem[k], inv)
        quot[k - d] = c
        for j in range(d + 1):
            rem[k - d + j] = f.sub(rem[k - d + j], f.mul(c, b.coeffs[j]))
    return Poly(f, quot), Poly(f, rem[:d])


def poly_derivative(p):
    f = p.field
    return Poly(f, [f.mul(f.from_int(k), c) for k, c in enumerate(p.coeffs)][1:])


def poly_pow(p, k):
    """p^k by repeated multiplication."""
    return poly_mul(p, *[p] * (k - 1)) if k else poly_one(p.field)


def poly_monic(p):
    """p over its leading coefficient; the zero polynomial stays zero."""
    if p.is_zero:
        return p
    f = p.field
    inv = f.inv(p.coeffs[-1])
    return Poly(f, [f.mul(inv, c) for c in p.coeffs])


def poly_gcd_oracle(a, b):
    """Monic gcd by the Euclidean algorithm on field elements."""
    a.field.check_same(b.field)
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def squarefree_oracle(p):
    """Yun's algorithm on field elements with ``poly_gcd_oracle``:
    [(monic part, multiplicity), ...]."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    p = poly_monic(p)
    if p.degree == 0:
        return []
    dp = poly_derivative(p)
    g = poly_gcd_oracle(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    w, _ = poly_divmod(p, g)
    y, _ = poly_divmod(dp, g)
    out = []
    i = 1
    while w.degree > 0:
        z = poly_sub(y, poly_derivative(w))
        h = poly_gcd_oracle(w, z)
        if h.degree > 0:
            out.append((h, i))
        w, _ = poly_divmod(w, h)
        y, _ = poly_divmod(z, h)
        i += 1
    return out


def to_sympy(p):
    """A QQ ``Poly`` as a sympy Poly in x over QQ (tests only)."""
    import sympy

    return sympy.Poly([sympy.Rational(int(c.numerator), int(c.denominator))
                       for c in reversed(p.coeffs)], sympy.Symbol("x"), domain="QQ")


def from_sympy(q):
    """The monic QQ ``Poly`` of a sympy Poly over QQ (tests only)."""
    return Poly(QQ, [QQ.fraction(int(c.p), int(c.q))
                     for c in reversed(q.monic().all_coeffs())])

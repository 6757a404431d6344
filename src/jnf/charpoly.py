"""Characteristic polynomial P and comatrix polynomial B of lambda*I - A.

One route for every field.  Hessenberg reduction and the minor recurrence
give P (``hessenberg_charpoly``; over QQ from images mod large primes).
Matrix Horner on P builds B(lambda)*V for a block V of s columns
(``comatrix_block``): (lambda*I - A)*B*V = P*V, so the columns of B*V
satisfy the chain relations that cycle collection reads, and s generic
columns carry every cycle once s reaches the number of cycles of a factor;
the block travels as those columns, (B*V)^T, from Horner to echelon.
The solve starts at a few columns and doubles them when a factor runs short;
at s = n, V = I and the block is all of B.  ``faddeev`` and ``char_data``
(P with all of B) are the reference that op counts and tests compare with.
"""

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import InternalConsistencyError, UnsupportedFieldError
from .fields import PrimeField, is_prime
from .matrix import Matrix, MatPoly, identity_columns, matrix_horner
from .poly import Poly, int_product

# The probe block's entries come from this 64-bit linear congruential
# generator (Knuth's MMIX constants), so they are the same on every platform
# and Python version.
_LCG = (6364136223846793005, 1442695040888963407, (1 << 64) - 1)
_SEED = 0x6A6E66

_IMAGE_FIELDS = []     # GF(q) for the primes q < 2^80, largest first, as needed


@dataclass
class CharData:
    p: Poly          # monic, degree n, increasing powers
    b: MatPoly       # degree n-1, leading coefficient I; None when not built


def faddeev(a):
    """Trace recurrence: A_k = A*B_{k-1}, p_k = -tr(A_k)/k, B_k = A_k + p_k*I.

    Over QQ it runs on A' = d*A (d the common denominator of A), where
    p'_k = d^k*p_k and B'_k = d^k*B_k are integral and the division by k is
    exact; p_k become field elements on the way out, B_k only when read.
    """
    if not a.is_square:
        raise ValueError("matrix must be square")
    f = a.field
    n = a.rows
    if 0 < f.char <= n:
        raise UnsupportedFieldError(
            f"Faddeev needs characteristic 0 or > {n}; use the Hessenberg route")
    ai, d = f.lift(a.data)
    bs = [Matrix.from_lifted(f, [[int(i == j) for j in range(n)] for i in range(n)], 1)]
    p_desc = [f.one]
    dk = 1
    for k in range(1, n + 1):
        x = f.int_matmul(ai, x) if k > 1 else f.int_scale(ai, 1)
        dk *= d
        c = f.exact_div(-sum(x[i][i] for i in range(n)), k)
        for i, row in enumerate(x):     # add takes the integer model too
            row[i] = f.add(row[i], c)
        p_desc.append(f.lower([[c]], dk)[0][0])
        bs.append(Matrix.from_lifted(f, x, dk))
    if not bs.pop().is_zero():
        raise InternalConsistencyError("Faddeev terminal matrix B_n is nonzero")
    return CharData(p=Poly(f, p_desc[::-1]), b=MatPoly(f, bs[::-1]))


def hessenberg_reduce(a):
    """Similarity reduction to upper Hessenberg form, exact arithmetic.

    Zero pivots are handled by searching the column below and applying the
    swap to rows and columns alike.  Step j clears column j below the
    subdiagonal with the row kernel ``sub_mul``; the inverse column
    operations commute, so column j + 1 takes all of them in one product.
    """
    if not a.is_square:
        raise ValueError("matrix must be square")
    f = a.field
    n = a.rows
    h = [list(row) for row in a.data]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = f.inv(h[j + 1][j])
        ms = [(i, f.mul(h[i][j], inv)) for i in range(j + 2, n) if h[i][j]]
        if not ms:
            continue
        # rows below j + 1 are zero left of column j, and cleared in it
        for i, m in ms:
            h[i][j:] = [f.zero] + f.sub_mul(h[i][j + 1:], m, h[j + 1][j + 1:])
        take = itemgetter(j + 1, *(i for i, _ in ms))
        cols = f.matmul(list(map(take, h)), [[f.one]] + [[m] for _, m in ms])
        for row, (x,) in zip(h, cols):
            row[j + 1] = x
    return Matrix(f, h)


def hessenberg_charpoly(a):
    """P of A: ``_charpoly_image`` over F_p.  Over QQ, C(x) = charpoly(d*A) =
    d^n*P(x/d), d the common denominator of A, is integral, and Hadamard's
    inequality on its principal minors bounds its coefficients by B = max_k
    min(e_k(r), e_k(c)): e_k elementary symmetric, r_i and c_i the ceilings
    of the row and column 2-norms of d*A.  So C is exact, in symmetric
    residues, once the product of its images' primes exceeds 2B + 1."""
    f = a.field
    if f.char:
        return Poly(f, _charpoly_image(a))
    ai, d = a.lifted()
    # e_k(r) and e_k(c): the coefficients of prod (1 + r_i*x), prod (1 + c_i*x)
    es = [int_product([([1, math.isqrt(s - 1) + 1 if s else 0], 1)
                       for s in (sum(x * x for x in v) for v in vs)])
          for vs in (ai, zip(*ai))]
    bound = max(map(min, *es))
    c, m, i = [0] * (a.rows + 1), 1, 0
    while m <= 2 * bound + 1:
        if i == len(_IMAGE_FIELDS):
            top = _IMAGE_FIELDS[-1].p - 2 if i else (1 << 80) - 1
            _IMAGE_FIELDS.append(PrimeField(next(
                q for q in range(top, 0, -2) if is_prime(q))))
        q = _IMAGE_FIELDS[i]
        image = _charpoly_image(Matrix(q, [[x % q.p for x in row] for row in ai]))
        t = pow(m, -1, q.p)             # c = image mod q, and still c mod m
        c = [r + m * ((x - r) * t % q.p) for r, x in zip(c, image)]
        m, i = m * q.p, i + 1
    c = [x - m if 2 * x > m else x for x in c]
    return Poly(f, f.lower([[x * d ** k for k, x in enumerate(c)]], d ** a.rows)[0])


def _charpoly_image(a):
    """P over F_p as residues, lowest degree first: Hessenberg reduction,
    then the three-term recurrence for the charpoly P_k of H's leading
    k x k block, x*P_{k-1} - sum_m c_m*P_{k-m}, with the row kernel."""
    f = a.field
    h = hessenberg_reduce(a).data
    minors = [[1]]
    for k in range(1, a.rows + 1):
        prev = minors[-1]
        p_k = f.sub_mul([0] + prev, h[k - 1][k - 1], prev + [0])
        sub = 1                     # running product of subdiagonal entries
        for m in range(2, k + 1):
            sub = f.mul(sub, h[k - m + 1][k - m])
            if not sub:             # so are all the c_m from here on
                break
            c = f.mul(h[k - m][k - 1], sub)
            if c:
                p_m = minors[k - m]
                p_k = f.sub_mul(p_k, c, p_m + [0] * (k + 1 - len(p_m)))
        minors.append(p_k)
    return minors[-1]


def probe_block(f, n, s):
    """V as its s columns of length n: the identity at s = n, else the first
    s columns of a fixed pseudo-random sequence, the same for every s: its
    top 31 bits over F_p, its top 3 over QQ (small integers for Horner)."""
    if s >= n:
        return identity_columns(f, n)
    mul, inc, mask = _LCG
    shift = 33 if f.char else 61
    x = _SEED
    cols = []
    for _ in range(s):
        col = []
        for _ in range(n):
            x = (x * mul + inc) & mask
            col.append(f.from_int(x >> shift))
        cols.append(col)
    return cols


def comatrix_block(a, p, s):
    """B(lambda)*V for the probe block V of s columns (``probe_block``) as
    ``matrix_horner`` makes it, (B*V)^T with s x n coefficients: from the top
    of p, X_0 = V and X_k = A*X_{k-1} + p_{n-k}*V, so (lambda*I - A)*B*V = P*V
    holds coefficientwise by construction except for the constant term,
    A*X_{n-1} + p_0*V = P(A)*V.  That one is checked: Q-adic digits of B*V
    form Q(A)-chains because it is zero (see ``q_adic_blocks``)."""
    n = a.rows
    if p.degree != n or not p.is_monic:
        raise ValueError("p must be the monic characteristic polynomial")
    xs = matrix_horner(a, p.coeffs, probe_block(a.field, n, s))
    if not xs.pop().is_zero():
        raise InternalConsistencyError(
            "P(A)*V != 0: the supplied polynomial does not annihilate A")
    return MatPoly(a.field, xs[::-1])


def comatrix_from_charpoly(a, p):
    """All of B(lambda): the comatrix block at V = I, transposed back."""
    return MatPoly(a.field, [m.transposed() for m in comatrix_block(a, p, a.rows).coeffs])


def char_data(a):
    """P and all of B: Faddeev's over QQ, Hessenberg's and V = I over F_p."""
    if a.field.char == 0:
        return faddeev(a)
    p = hessenberg_charpoly(a)
    return CharData(p=p, b=comatrix_from_charpoly(a, p))

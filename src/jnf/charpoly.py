"""Characteristic polynomial P and comatrix polynomial B of lambda*I - A.

Two routes: the trace recurrence (characteristic 0 or > n), or Hessenberg
reduction for P followed by matrix Horner for B.  Both produce the same
``CharData`` and satisfy (lambda*I - A) * B(lambda) = P(lambda) * I exactly.
"""

from dataclasses import dataclass
from operator import itemgetter

from .errors import InternalConsistencyError, UnsupportedFieldError
from .matrix import Matrix, MatPoly, matrix_horner
from .poly import Poly


@dataclass
class CharData:
    p: Poly          # monic, degree n, increasing powers
    b: MatPoly       # degree n-1, leading coefficient I
    method: str      # "faddeev" or "hessenberg_horner"


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

    def coeff(k, a_k, _dk):
        return f.exact_div(-sum(a_k[i][i] for i in range(n)), k)

    cs, d, bs = matrix_horner(a, 1, 1, n, coeff)
    if not bs.pop().is_zero():
        raise InternalConsistencyError("Faddeev terminal matrix B_n is nonzero")
    p_desc = [f.one] + [f.lower([[c]], d ** k)[0][0] for k, c in enumerate(cs, 1)]
    return CharData(p=Poly(f, list(reversed(p_desc))), b=MatPoly(f, bs[::-1]),
                    method="faddeev")


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
    """Characteristic polynomial via Hessenberg + the three-term minor
    recurrence; works over any field.  The charpoly P_k of the leading
    k x k block is x*P_{k-1} - sum_m c_m*P_{k-m}, built on coefficient
    lists (lowest degree first) with the row kernel ``sub_mul``."""
    f = a.field
    n = a.rows
    h = hessenberg_reduce(a).data
    minors = [[f.one]]
    for k in range(1, n + 1):
        prev = minors[-1]
        p_k = f.sub_mul([f.zero] + prev, h[k - 1][k - 1], prev + [f.zero])
        sub = f.one                 # running product of subdiagonal entries
        for m in range(2, k + 1):
            sub = f.mul(sub, h[k - m + 1][k - m])
            if not sub:             # so are all the c_m from here on
                break
            c = f.mul(h[k - m][k - 1], sub)
            if c:
                p_m = minors[k - m]
                p_k = f.sub_mul(p_k, c, p_m + [f.zero] * (k + 1 - len(p_m)))
        minors.append(p_k)
    return Poly(f, minors[n])


def comatrix_from_charpoly(a, p):
    """Matrix Horner: B_0 = I, B_k = A*B_{k-1} + p_k*I (coefficients of p
    from the top), so (lambda*I - A) * B = P * I holds coefficientwise by
    construction except for the constant term, A*B_{n-1} + p_0*I = P(A).
    That one is checked: it is zero exactly when P annihilates A."""
    f = a.field
    n = a.rows
    if p.degree != n or not p.is_monic:
        raise ValueError("p must be the monic characteristic polynomial")
    (pi,), e = f.lift([p.coeffs])
    _, _, bs = matrix_horner(a, e, e, n, lambda k, _, dk: dk * pi[n - k])
    if not bs.pop().is_zero():
        raise InternalConsistencyError(
            "P(A) != 0: the supplied polynomial does not annihilate A")
    return MatPoly(f, bs[::-1])


def char_data(a):
    """Method dispatch: Faddeev when the characteristic allows it, else
    Hessenberg + Horner comatrix."""
    f = a.field
    if f.char == 0 or f.char > a.rows:
        return faddeev(a)
    p = hessenberg_charpoly(a)
    b = comatrix_from_charpoly(a, p)
    return CharData(p=p, b=b, method="hessenberg_horner")

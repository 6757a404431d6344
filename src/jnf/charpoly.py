"""Characteristic polynomial P and comatrix polynomial B of lambda*I - A.

Two routes: the trace recurrence (characteristic 0 or > n), or Hessenberg
reduction for P followed by matrix Horner for B.  Both produce the same
``CharData`` and satisfy (lambda*I - A) * B(lambda) = P(lambda) * I exactly.
"""

from dataclasses import dataclass

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
    swap to rows and columns alike.
    """
    if not a.is_square:
        raise ValueError("matrix must be square")
    f = a.field
    n = a.rows
    h = [list(row) for row in a.data]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if not f.is_zero(h[i][j]):
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = f.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if f.is_zero(h[i][j]):
                continue
            m = f.mul(h[i][j], inv)
            neg_m = f.neg(m)
            h[i] = [f.add(x, f.mul(neg_m, y)) for x, y in zip(h[i], h[j + 1])]
            for row in h:
                row[j + 1] = f.add(row[j + 1], f.mul(m, row[i]))
    return Matrix(f, h)


def hessenberg_charpoly(a):
    """Characteristic polynomial via Hessenberg + the three-term minor
    recurrence; works over any field."""
    f = a.field
    n = a.rows
    h = hessenberg_reduce(a).data
    minors = [Poly.one(f)]          # charpoly of the k x k leading block
    for k in range(1, n + 1):
        p_k = minors[k - 1] * Poly.x_minus(f, h[k - 1][k - 1])
        sub = f.one                 # running product of subdiagonal entries
        for m in range(2, k + 1):
            sub = f.mul(sub, h[k - m + 1][k - m])
            coeff = f.mul(h[k - m][k - 1], sub)
            if not f.is_zero(coeff):
                p_k = p_k - minors[k - m].scale(coeff)
        minors.append(p_k)
    return minors[n]


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

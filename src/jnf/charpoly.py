"""Characteristic polynomial P and comatrix polynomial B of lambda*I - A.

Two routes: the trace recurrence (characteristic 0 or > n), or Hessenberg
reduction for P followed by matrix Horner for B.  Both produce the same
``CharData`` and satisfy (lambda*I - A) * B(lambda) = P(lambda) * I exactly.
"""

from dataclasses import dataclass

from .errors import InternalConsistencyError, UnsupportedFieldError
from .matrix import Matrix, MatPoly
from .poly import Poly


@dataclass
class CharData:
    p: Poly          # monic, degree n, increasing powers
    b: MatPoly       # degree n-1, leading coefficient I
    method: str      # "faddeev" or "hessenberg_horner"


def _matrix_horner(a, e, coeff):
    """B_0 = I, B_k = A*B_{k-1} + c_k*I for k = 1..n, in the field's integer
    model: with A = A'/d, the integral B'_0 = e*I and
    B'_k = A'*B'_{k-1} + c'_k*I stand for B_k = B'_k/(e*d^k), where
    ``coeff(k, A'*B'_{k-1}, d^k)`` returns c'_k = e*d^k*c_k.

    Returns ([c'_1, ..., c'_n], d, B as a MatPoly in lambda, B_n == 0);
    B_n = P(A) for P = lambda^n + c_1*lambda^(n-1) + ... + c_n.  B's
    coefficients stay in the integer model (B'_k over e*d^k) until read.
    """
    f = a.field
    n = a.rows
    ai, d = f.lift(a.data)
    b = [[e if i == j else 0 for j in range(n)] for i in range(n)]
    b_desc = [Matrix.from_lifted(f, b, e)]
    cs = []
    dk = 1
    for k in range(1, n + 1):
        b = f.int_matmul(ai, b)
        dk *= d
        c = coeff(k, b, dk)
        for i in range(n):
            b[i][i] += c
        cs.append(c)
        if k < n:
            b_desc.append(Matrix.from_lifted(f, b, e * dk))
    return cs, d, MatPoly(f, list(reversed(b_desc))), f.int_is_zero(b)


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

    cs, d, b, vanishes = _matrix_horner(a, 1, coeff)
    if not vanishes:
        raise InternalConsistencyError("Faddeev terminal matrix B_n is nonzero")
    p_desc = [f.one] + [f.lower([[c]], d ** k)[0][0] for k, c in enumerate(cs, 1)]
    return CharData(p=Poly(f, list(reversed(p_desc))), b=b, method="faddeev")


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
    _, _, b, vanishes = _matrix_horner(a, e, lambda k, _, dk: dk * pi[n - k])
    if not vanishes:
        raise InternalConsistencyError(
            "P(A) != 0: the supplied polynomial does not annihilate A")
    return b


def char_data(a):
    """Method dispatch: Faddeev when the characteristic allows it, else
    Hessenberg + Horner comatrix."""
    f = a.field
    if f.char == 0 or f.char > a.rows:
        return faddeev(a)
    p = hessenberg_charpoly(a)
    b = comatrix_from_charpoly(a, p)
    return CharData(p=p, b=b, method="hessenberg_horner")

"""``decompose``, the one driver of the split, pseudo-rational and rational
forms, and the rational Jordan cycles of irreducible factors Q of degree d.

A block B(lambda)*V of B(lambda), held as its columns (B*V)^T, is
expanded at every factor in one ``matpoly_div_q`` call, and every factor,
linear ones as d = 1, hands its Q-adic digits as they come to the one
extractor, ``jordan_linear.extract_q_cycles``; their Q(A)-chain
needs no check (see ``q_adic_blocks``).  The driver counts the
multiplicity a factor's cycles cover.  V starts with BLOCK_COLUMNS
columns; the factors it falls short on are expanded again from a block of
twice as many, up to V = I, where a shortfall is a reducible hinted factor
or, for a computed factorization, an internal fault.  The pseudo-rational
form is assembled from those cycles as they come; the rational form first
converts each cycle of a factor of degree >= 2: its new vectors are worked
out in coordinates over the cycle's own basis and mapped out with one
product.  The certificate A*P = P*J in ``assemble`` checks the result.
"""

from math import comb

from .charpoly import comatrix_block, hessenberg_charpoly
from .decomposition import JordanDecomposition, assemble, cycle_block_matrix
from .errors import (InternalConsistencyError, InvalidHintError,
                     NeedsFactorizationError)
from .factor import check_factors, format_factor_hint
from .jordan_linear import extract_q_cycles
from .matrix import matpoly_div_q

# Columns of the first probe block V.  s random columns carry the c cycles
# of a factor of degree d unless their images in the top of its primary
# part, c-dimensional over F_{p^d}, fail to span it: over F_p for s >= c
# that happens with probability about p^(d*(c-1-s)), and it costs one more
# block of twice the columns.  4 measured fastest on fp_hessenberg (GF(7),
# n = 32, three cycles per factor) against 3, 5, 6 and 8; see CHANGES.md.
BLOCK_COLUMNS = 4


def q_adic_blocks(a, b, q_poly, mult):
    """[C_0, ..., C_{mult-1}]: b expanded in increasing powers of Q, its
    Q-adic digits, each C_k the list of its deg(Q) coefficient matrices.
    ``extract_q_cycles`` reads chains off their rows, so b is B(lambda)^T.

    They form the Q(A)-chain Q(A)*C_0 = 0 and Q(A)*C_{k+1} = C_k whenever
    (lambda*I - A)*B = P*I and Q^mult divides P, Q irreducible or not:
    with Q(lambda) - Q(A) = (lambda*I - A)*D(lambda),
    Q(A)*B = Q*B - D*P = Q*B mod Q^mult, and comparing Q-adic digits gives
    both relations, which hold for the rows of the transposes too, and
    for a block B*V with (lambda*I - A)*B*V = P*V.  Both conditions are
    checked upstream (matrix Horner checks P(A)*V = 0, and the
    factorization multiplies back to P), so the chain is not checked again.
    """
    c_blocks, = matpoly_div_q(b, [(q_poly, mult)])
    return c_blocks


def convert_cycle_to_rational(a, q_poly, groups):
    """One cycle in the rational-form basis: groups [v_{j,0..d-1}] with
    A*v_{j,l-1} = v_{j,l} + v_{j-1,l-1}.

    ``groups`` is the cycle as the extractor returns it, the
    pseudo-rational basis u_{j,l} = A^l*w_j.  Over that basis A is the
    pseudo-rational block and Q(A) a shift by d, so the new vectors are
    worked out there, as the columns of T: v_{0,l} = e_l,
    v_{j,l} = A*v_{j,l-1} - v_{j-1,l-1}, and v_{j,0} the shift-by-d
    preimage of the sum over m >= 1 and i of C(i+m, m)*q_{i+m}*v_{j-m,i}.
    T is block upper triangular, so the preimage always exists.  The
    vectors themselves are then U*T, one product in the integer model.
    """
    f = a.field
    d = q_poly.degree
    k = len(groups)
    size = k * d
    q = q_poly.coeffs
    # A over the basis, transposed: matmul([v], block_t) is [A*v]
    block_t = list(zip(*cycle_block_matrix(q_poly, k, "pseudo_rational", "upper").data))
    # weights[m][i] = C(i+m, m)*q_{i+m}, the weight of v_{j-m,i} in v_{j,0}
    weights = [[f.mul(f.from_int(comb(i + m, m)), q[i + m]) if i + m <= d else f.zero
                for i in range(d)] for m in range(k)]
    # the columns of T, v_{j,l} at j*d + l
    t = [[f.one if i == l else f.zero for i in range(size)] for l in range(d)]
    for j in range(1, k):
        row = [w for m in range(j, 0, -1) for w in weights[m]]
        t.append([f.zero] * d + f.matmul([row], t)[0][:-d])
        for l in range(1, d):
            t.append([f.sub(x, y) for x, y in
                      zip(f.matmul([t[-1]], block_t)[0], t[(j - 1) * d + l - 1])])
    u, den = f.one_den([v for group in groups for v in group])
    ti, dt = f.lift(t)
    vectors = [(v, dt * den) for v in f.int_matmul(ti, u)]
    return [vectors[j * d:(j + 1) * d] for j in range(k)]


def decompose(a, factorization, form, orientation=None, charpoly=None):
    """The one solve entry point, for ``cli.run`` and library callers:
    ``form`` is one of ``JordanDecomposition.FORMS``.  The factorization is
    checked, B*V expanded at every factor, each factor's cycles taken from
    the one extractor (converted to the rational basis for the rational
    form if the factor has degree >= 2), then assembled and certified.
    ``orientation`` None is the form's own: "lower" for the split form (the
    classical subdiagonal display), "upper" for the companion-block display
    of the other two.  Any other form or orientation raises ValueError.

    The check refuses factors that are not monic of degree >= 1 or have a
    multiplicity below 1 (``check_factors``), a non-linear factor for the
    split form, and factors whose product is not P, each before any cycle
    work.  ``charpoly`` is P, ``hessenberg_charpoly(a)`` when not given.
    B*V comes from ``comatrix_block`` with V of s columns, from
    BLOCK_COLUMNS on.  A factor whose cycles cover other than its
    multiplicity while s < n is retried with s doubled.  At s = n that
    means an asserted factor is reducible, an invalid hint naming the
    factor, and a computed one an internal fault.
    """
    if form not in JordanDecomposition.FORMS:
        raise ValueError(f"unknown form {form!r}")
    if orientation not in (None, "upper", "lower"):
        raise ValueError(f"unknown orientation {orientation!r}")
    check_factors(factorization.factors)
    if form == "split":
        for q, _ in factorization.factors:
            if q.degree != 1:
                raise NeedsFactorizationError(
                    "split Jordan form needs a fully split characteristic "
                    f"polynomial; stuck on a degree-{q.degree} factor",
                    residual=q)
    p = charpoly if charpoly is not None else hessenberg_charpoly(a)
    if factorization.total_degree() != p.degree or factorization.product() != p:
        raise InvalidHintError(
            "factorization does not reproduce the characteristic polynomial")
    n = a.rows
    found = [None] * len(factorization.factors)
    pending = list(enumerate(factorization.factors))
    s = min(BLOCK_COLUMNS, n)
    while pending:
        expansions = matpoly_div_q(comatrix_block(a, p, s),
                                   [factor for _, factor in pending])
        short = []
        for (i, (q_poly, mult)), c_blocks in zip(pending, expansions):
            cycles = extract_q_cycles(a, q_poly, mult, c_blocks)
            covered = sum(map(len, cycles))
            if covered != mult:
                if s < n:
                    short.append((i, (q_poly, mult)))
                    continue
                hint = format_factor_hint(q_poly, mult)
                if factorization.irreducibility == "asserted":
                    raise InvalidHintError(
                        f"hinted factor '{hint}' is not irreducible (its cycles "
                        f"cover multiplicity {covered} of {mult})")
                raise InternalConsistencyError(
                    f"the cycles of factor '{hint}' cover multiplicity "
                    f"{covered} of {mult}")
            if form == "rational" and q_poly.degree > 1:
                cycles = [convert_cycle_to_rational(a, q_poly, groups)
                          for groups in cycles]
            found[i] = (q_poly, cycles)
        pending, s = short, min(2 * s, n)
    orientation = orientation or ("lower" if form == "split" else "upper")
    return assemble(a, found, form=form, orientation=orientation)

"""Rational Jordan cycles for irreducible factors Q of any degree d.

B(lambda) is expanded once per solve at every factor (``matpoly_div_q``).
For d >= 2 the Q(A)-chain C_k = Q(A)*C_{k+1} between its Q-adic
coefficients is checked; then every factor, linear ones as d = 1, goes
through the one extractor of ``jordan_linear``.  The pseudo-rational form
is assembled from those cycles as they come; the rational form first
converts each cycle of a factor of degree >= 2 by the binomial
recurrences.
"""

from .charpoly import char_data
from .decomposition import assemble, cycle_block_matrix
from .errors import InternalConsistencyError, InvalidHintError
from .jordan_linear import cycle_groups
from .matrix import Matrix, matpoly_div_q, poly_at_matrix
from .poly import binomial


def _check_chain(a, q_poly, c_blocks):
    """Q(A)*C_0 = 0 and C_k = Q(A)*C_{k+1} for the Q-adic coefficients of
    B; a failure means Q is not a factor of the characteristic polynomial
    as given, or not irreducible."""
    f = a.field
    d = q_poly.degree
    # Q(A) times every C_k coefficient at once, in the integer model: they
    # sit side by side, the one for C_k's lambda^t at column offset
    # (k*d + t)*n, so C_k's columns start at k*d*n
    first, *rest = [m for c_k in c_blocks for m in c_k]
    coeffs, den = first.hstack(*rest).lifted()
    qa_rows, qa_den = poly_at_matrix(q_poly, a).lifted()
    (product, coeffs), _ = f.to_common(
        [(f.int_matmul(qa_rows, coeffs), qa_den * den), (coeffs, den)])
    step = d * a.rows
    if any(any(row[:step]) for row in product):
        raise InternalConsistencyError("Q(A)*C_0 != 0; bad factorization input")
    if [row[step:] for row in product] != [row[:-step] for row in coeffs]:
        raise InternalConsistencyError("C_k != Q(A)*C_{k+1}")


def q_adic_blocks(a, b, q_poly, mult):
    """[C_0, ..., C_{mult-1}]: B(lambda) expanded in increasing powers of Q
    by iterated euclidean division, with the Q(A)-chain between the C_k
    checked; each C_k is the list of its deg(Q) coefficient matrices."""
    c_blocks, = matpoly_div_q(b, [(q_poly, mult)])
    _check_chain(a, q_poly, c_blocks)
    return c_blocks


def extract_q_cycles(a, q_poly, mult, c_blocks):
    """Q(A)-Jordan cycles of the factor Q from its Q-adic coefficients,
    each a list of groups [w_j, A*w_j, ..., A^{d-1}*w_j] with
    Q(A)*w_j = w_{j-1} and Q(A)*w_0 = 0."""
    stack_blocks = [first.hstack(*rest) if rest else first
                    for first, *rest in c_blocks]
    return cycle_groups(a, q_poly.degree, mult, stack_blocks)


def convert_cycle_to_rational(a, q_poly, groups):
    """Binomial-recurrence conversion of one cycle to rational-form basis.

    ``groups`` is the cycle as the extractor returns it, the
    pseudo-rational basis [w_j, A*w_j, ..., A^{d-1}*w_j] per link.  Works
    in coordinates over that basis, where Q(A) is a shift of d indices, so
    its 'inversion' is the opposite shift and no linear system is solved.
    Returns groups [v_{j,0..d-1}] for j.
    """
    f = a.field
    d = q_poly.degree
    k = len(groups)
    if k == 1:
        return groups
    basis = [v for group in groups for v in group]   # u_{j,l} at j*d+l
    jb = cycle_block_matrix(q_poly, k, "pseudo_rational", "upper")
    size = k * d
    zero_vec = [f.zero] * size

    def e(i):
        v = list(zero_vec)
        v[i] = f.one
        return v

    def add_scaled(target, coeff, src):
        return [f.add(t, f.mul(coeff, s)) for t, s in zip(target, src)]

    coords = {}
    for l in range(d):
        coords[(0, l)] = e(l)
    for j in range(1, k):
        rhs = list(zero_vec)
        for l in range(1, d + 1):
            q_l = f.one if l == d else q_poly.coeffs[l]
            if f.is_zero(q_l):
                continue
            for m in range(1, min(l, j) + 1):
                c = f.mul(q_l, binomial(f, l, m))
                rhs = add_scaled(rhs, c, coords[(j - m, l - m)])
        if any(not f.is_zero(x) for x in rhs[(k - 1) * d:]):
            raise InternalConsistencyError(
                "Q(A)-preimage escapes the cycle space")
        coords[(j, 0)] = [f.zero] * d + rhs[:(k - 1) * d]
        power = coords[(j, 0)]
        for l in range(1, d):
            power = jb.mul_vector(power)       # coords of A^l v_{j,0}
            v = list(power)
            for m in range(1, min(l, j) + 1):
                c = f.neg(binomial(f, l, m))
                v = add_scaled(v, c, coords[(j - m, l - m)])
            coords[(j, l)] = v
    u = Matrix.from_columns(f, basis, rows=a.rows)
    ambient = {key: u.mul_vector(vec) for key, vec in coords.items()}
    # defining relation A*v_{j,l-1} = v_{j,l} + v_{j-1,l-1}
    for j in range(1, k):
        for l in range(1, d):
            lhs = a.mul_vector(ambient[(j, l - 1)])
            rhs = [f.add(x, y) for x, y in zip(ambient[(j, l)],
                                              ambient[(j - 1, l - 1)])]
            if lhs != rhs:
                raise InternalConsistencyError("rational conversion relation failed")
    return [[ambient[(j, l)] for l in range(d)] for j in range(k)]


def decompose(a, b, factorization, form, orientation):
    """The driver of all three forms: B expanded once at every factor, each
    factor's cycles from the one extractor (converted to the rational basis
    when ``form`` is "rational" and the factor has degree >= 2), then
    assembled and certified."""
    expansions = matpoly_div_q(b, factorization.factors)
    factor_cycles = []
    for (q_poly, mult), c_blocks in zip(factorization.factors, expansions):
        with factorization.blame(q_poly, mult):
            if q_poly.degree > 1:
                _check_chain(a, q_poly, c_blocks)
            cycles = extract_q_cycles(a, q_poly, mult, c_blocks)
            if form == "rational" and q_poly.degree > 1:
                cycles = [convert_cycle_to_rational(a, q_poly, groups)
                          for groups in cycles]
        factor_cycles.append((q_poly, cycles))
    return assemble(a, factor_cycles, form=form, orientation=orientation)


def assemble_pseudo_rational(a, factorization, orientation="upper", chardata=None):
    """Pseudo-rational form: companion diagonal, single-1 couplings."""
    cd = chardata if chardata is not None else char_data(a)
    _check_factorization(cd, factorization)
    return decompose(a, cd.b, factorization, "pseudo_rational", orientation)


def rational_jordan(a, factorization, orientation="upper", chardata=None):
    """End-to-end rational Jordan normal form driver."""
    cd = chardata if chardata is not None else char_data(a)
    _check_factorization(cd, factorization)
    return decompose(a, cd.b, factorization, "rational", orientation)


def _check_factorization(cd, factorization):
    if factorization.product() != cd.p:
        raise InvalidHintError(
            "factorization does not reproduce the characteristic polynomial")

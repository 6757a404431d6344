"""Rational Jordan cycles for irreducible factors Q of any degree d.

B(lambda) is expanded once per solve at every factor (``matpoly_div_q``),
and every factor, linear ones as d = 1, goes through the one extractor of
``jordan_linear``; the Q(A)-chain between the Q-adic coefficients needs no
check (see ``q_adic_blocks``).  The pseudo-rational form is assembled from
those cycles as they come; the rational form first converts each cycle of
a factor of degree >= 2: its new vectors are worked out in coordinates over
the cycle's own basis and mapped out with one product.  The certificate
A*P = P*J in ``assemble`` checks the result.
"""

from math import comb

from .charpoly import char_data
from .decomposition import assemble, cycle_block_matrix
from .errors import InvalidHintError
from .jordan_linear import cycle_groups
from .matrix import matpoly_div_q


def q_adic_blocks(a, b, q_poly, mult):
    """[C_0, ..., C_{mult-1}]: B(lambda) expanded in increasing powers of Q
    by iterated euclidean division, each C_k the list of its deg(Q)
    coefficient matrices.

    They form the Q(A)-chain Q(A)*C_0 = 0 and Q(A)*C_{k+1} = C_k whenever
    (lambda*I - A)*B = P*I and Q^mult divides P, Q irreducible or not:
    with Q(lambda) - Q(A) = (lambda*I - A)*D(lambda),
    Q(A)*B = Q*B - D*P = Q*B mod Q^mult, and comparing Q-adic digits gives
    both relations.  Both conditions are checked upstream (Faddeev checks
    B_n = 0 and matrix Horner P(A) = 0, and the factorization multiplies
    back to P), so the chain is not checked again.
    """
    c_blocks, = matpoly_div_q(b, [(q_poly, mult)])
    return c_blocks


def extract_q_cycles(a, q_poly, mult, c_blocks):
    """Q(A)-Jordan cycles of the factor Q from its Q-adic coefficients,
    each a list of groups [w_j, A*w_j, ..., A^{d-1}*w_j] with
    Q(A)*w_j = w_{j-1} and Q(A)*w_0 = 0."""
    stack_blocks = [first.hstack(*rest) if rest else first
                    for first, *rest in c_blocks]
    return cycle_groups(a, q_poly.degree, mult, stack_blocks)


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
    vectors themselves are then U*T, one product.
    """
    f = a.field
    d = q_poly.degree
    k = len(groups)
    size = k * d
    q = q_poly.coeffs
    # A over the basis, as the rows of its transpose: [v] times a_t is A*v
    a_t = cycle_block_matrix(q_poly, k, "pseudo_rational", "upper").transpose().data
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
                      zip(f.matmul([t[-1]], a_t)[0], t[(j - 1) * d + l - 1])])
    vectors = f.matmul(t, [v for group in groups for v in group])
    return [vectors[j * d:(j + 1) * d] for j in range(k)]


def decompose(a, b, factorization, form, orientation):
    """The driver of all three forms: B expanded once at every factor, each
    factor's cycles from the one extractor (converted to the rational basis
    when ``form`` is "rational" and the factor has degree >= 2), then
    assembled and certified."""
    expansions = matpoly_div_q(b, factorization.factors)
    factor_cycles = []
    for (q_poly, mult), c_blocks in zip(factorization.factors, expansions):
        with factorization.blame(q_poly, mult):
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

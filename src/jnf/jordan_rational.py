"""Rational Jordan cycles for irreducible factors Q of degree d >= 1.

For each factor the comatrix polynomial is expanded Q-adically; the C_k
coefficient matrices feed the same stacked reduce/shift engine as the
linear case, but with Q(A) playing the role of A - lambda*I and with the
strengthened independence test against all A^i-images of collected cycles.
The pseudo-rational form is assembled from those cycles and then converted
to the true rational Jordan form by the binomial recurrences.
"""

from dataclasses import dataclass

from .charpoly import char_data
from .decomposition import assemble, cycle_block_matrix
from .errors import InternalConsistencyError, InvalidHintError
from .jordan_linear import collect_cycles, extract_cycles, linear_taylor_blocks
from .matrix import Matrix, matpoly_div_q, poly_at_matrix, rank
from .poly import binomial


@dataclass
class QAdicData:
    factor: object       # monic irreducible Poly Q, degree d
    multiplicity: int    # q
    degree: int          # d
    c_blocks: list       # [C_0, ..., C_{q-1}] MatPolys of lambda-degree < d
    qa: Matrix           # Q(A)


@dataclass
class RationalCycle:
    factor: object
    q_cycle: list        # [w_{k-1}, ..., w_0]; Q(A)*w_t = w_{t-1}
    expanded: list       # grid[j][i] = A^i * w_j, j = 0..k-1, i = 0..d-1

    def __len__(self):
        return len(self.q_cycle)

    def chain(self):
        """w_0 first."""
        return list(reversed(self.q_cycle))


def q_adic_blocks(a, b, q_poly, mult):
    """Expand B(lambda) in increasing powers of Q by iterated euclidean
    division and validate the Q(A)-chain between the C_k."""
    f = a.field
    d = q_poly.degree
    qa = poly_at_matrix(q_poly, a)
    c_blocks = matpoly_div_q(b, q_poly, mult)
    # Q(A) times every C_k coefficient at once, in the integer model: they
    # sit side by side, the one for C_k's lambda^t at column offset
    # (k*d + t)*n, so C_k's columns start at k*d*n
    first, *rest = [c.coeff(t) for c in c_blocks for t in range(d)]
    coeffs, den = first.hstack(*rest).lifted()
    qa_rows, qa_den = qa.lifted()
    (product, coeffs), _ = f.to_common(
        [(f.int_matmul(qa_rows, coeffs), qa_den * den), (coeffs, den)])
    step = d * a.rows
    if any(any(row[:step]) for row in product):
        raise InternalConsistencyError("Q(A)*C_0 != 0; bad factorization input")
    if [row[step:] for row in product] != [row[:-step] for row in coeffs]:
        raise InternalConsistencyError("C_k != Q(A)*C_{k+1}")
    return QAdicData(factor=q_poly, multiplicity=mult, degree=d,
                     c_blocks=c_blocks, qa=qa)


def _power_grid(f, a_t, vectors, d):
    """[[w, A*w, ..., A^{d-1}*w] for w in vectors], given the rows of A's
    transpose: each power of A takes one product for all the vectors."""
    powers = [vectors]
    for _ in range(d - 1):
        powers.append(f.matmul(powers[-1], a_t))
    return [list(images) for images in zip(*powers)]


def expand_cycle(segs, a, q_poly, grid=None):
    """Grid of A^i-images of a Q(A)-cycle given end-vector first (built
    here unless ``grid`` already holds it); the irreducibility of Q
    guarantees (and the rank check enforces) that the k*d expanded vectors
    are independent."""
    f = a.field
    if grid is None:
        grid = _power_grid(f, a.transpose().data, segs, q_poly.degree)
    flat = [v for row in grid for v in row]
    if rank(Matrix(f, flat)) != len(flat):
        raise InternalConsistencyError("expanded cycle vectors are dependent")
    return RationalCycle(factor=q_poly,
                         q_cycle=list(reversed(segs)), expanded=grid)


def extract_q_cycles(a, data):
    """Collect Q(A)-Jordan cycles from the C_k candidate columns."""
    f = a.field
    d = data.degree
    a_t = a.transpose().data
    stack_blocks = [c_k.coeff(0).hstack(*[c_k.coeff(t) for t in range(1, d)])
                    for c_k in data.c_blocks]
    collected_expanded = []
    grids = []           # the grid of each accepted chain, in order

    def accept(segs):
        grid = _power_grid(f, a_t, segs, d)
        flat = [v for row in grid for v in row]
        cand = collected_expanded + flat
        if rank(Matrix(f, cand)) != len(cand):
            return False
        collected_expanded.extend(flat)
        grids.append(grid)
        return True

    chains = collect_cycles(stack_blocks, data.multiplicity, accept)
    return [expand_cycle(segs, a, data.factor, grid)
            for segs, grid in zip(chains, grids)]


def _pseudo_groups(cycle):
    """Groups for assembly: group j = (w_j, A*w_j, ..., A^{d-1}*w_j)."""
    return [list(row) for row in cycle.expanded]


def pseudo_cycle_matrix(q_poly, k):
    """Matrix of A on one pseudo-rational cycle basis (companion blocks
    plus single-1 top-right couplings)."""
    return cycle_block_matrix(q_poly, k, "pseudo_rational", "upper")


def convert_cycle_to_rational(a, q_poly, cycle):
    """Binomial-recurrence conversion of one cycle to rational-form basis.

    Works in coordinates over the pseudo-rational cycle basis, where Q(A)
    is a shift of d indices, so its 'inversion' is the opposite shift and
    no linear system is solved.  Returns groups [v_{j,0..d-1}] for j.
    """
    f = a.field
    d = q_poly.degree
    k = len(cycle)
    if k == 1:
        return _pseudo_groups(cycle)
    basis = [v for row in cycle.expanded for v in row]   # u_{j,l} at j*d+l
    jb = pseudo_cycle_matrix(q_poly, k)
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


def _factor_cycle_groups(a, cd, factorization, form):
    """Per-factor cycle groups for the requested form."""
    taylor = None
    factor_cycles = []
    for i, (q_poly, mult) in enumerate(factorization.factors):
        if q_poly.degree == 1 and taylor is None:
            # one expansion for every linear factor; the factors come in
            # decreasing degree, so the Q-adic data is no longer held
            taylor = linear_taylor_blocks(cd.b, factorization.factors)
        with factorization.blame(q_poly, mult):
            if q_poly.degree == 1:
                lam, blocks = taylor.pop(i)
                structure = extract_cycles(a, lam, mult, blocks)
                groups = [[[v] for v in cy.chain()] for cy in structure.cycles]
            else:
                data = q_adic_blocks(a, cd.b, q_poly, mult)
                cycles = extract_q_cycles(a, data)
                if form == "rational":
                    groups = [convert_cycle_to_rational(a, q_poly, cy)
                              for cy in cycles]
                else:
                    groups = [_pseudo_groups(cy) for cy in cycles]
        factor_cycles.append((q_poly, groups))
    return factor_cycles


def assemble_pseudo_rational(a, factorization, orientation="upper", chardata=None):
    """Pseudo-rational form: companion diagonal, single-1 couplings."""
    cd = chardata if chardata is not None else char_data(a)
    _check_factorization(cd, factorization)
    factor_cycles = _factor_cycle_groups(a, cd, factorization, "pseudo_rational")
    return assemble(a, factor_cycles, form="pseudo_rational", orientation=orientation)


def rational_jordan(a, factorization, orientation="upper", chardata=None):
    """End-to-end rational Jordan normal form driver."""
    cd = chardata if chardata is not None else char_data(a)
    _check_factorization(cd, factorization)
    factor_cycles = _factor_cycle_groups(a, cd, factorization, "rational")
    return assemble(a, factor_cycles, form="rational", orientation=orientation)


def _check_factorization(cd, factorization):
    if factorization.product() != cd.p:
        raise InvalidHintError(
            "factorization does not reproduce the characteristic polynomial")

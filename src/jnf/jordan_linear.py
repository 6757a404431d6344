"""The cycle engine every factor runs through; the drivers of all three
forms, the split one included, are in ``jordan_rational``.

For a factor Q of degree d the input is its Q-adic digits C_k of
(B(lambda)*V)^T, each the list of its d lambda-coefficients, as
``matpoly_div_q`` returns them.  Row j of coefficient i in every digit
(column j of B*V) is one chain, held
as one integer row; one loop keeps these chain rows in one echelon across
all levels, reads the candidate chains off the rows that pivot in the top
digit, shifts those one digit down and cuts the top digit from the rest,
so each level reduces only the shifted rows.  V has s columns (V = I
gives all of B), so there are s*d chains, and too few of them for a
factor show as cycles that cover less than its multiplicity, which the
caller counts.  ``extract_q_cycles``
gets a candidate as integer segments over its pivot, and accepts it when
the socle of its cycle, the span of w_0 and its A^i-images, is independent
of the socles of the cycles taken so far, tested by inserting them into
one echelon.  A linear factor lambda - lam is the d = 1 case: its digits
are the Taylor coefficients of (B*V)^T at lam, and a chain's images are the
chain itself.  A cycle is returned as its list of groups, group j holding
(w_j, A*w_j, ..., A^{d-1}*w_j), which is what ``assemble`` takes.
"""

from itertools import chain

from .matrix import horner_shift
from .poly import Poly


def taylor_blocks(b, lam, mult):
    """[B(lam), B^1(lam), ..., B^{mult-1}(lam)], the Taylor coefficients
    from one ``horner_shift``; no derivatives or factorials, so valid in
    any characteristic."""
    return horner_shift(b, [(lam, mult)])[0]


def collect_cycles(digits, total_needed, accept):
    """The stacked reduce/collect/shift loop.

    ``digits`` are a factor's Q-adic digits [C_0, ..., C_{L-1}] of (B*V)^T
    as ``matpoly_div_q`` returns them, each the list of its d coefficient
    matrices (s x n), with chain relations between consecutive digits.
    Chain (i, j) is row j of coefficient i in every digit, concatenated
    into one integer row (s_0 | s_1 | ... | s_{L-1}) over one denominator, so
    each row operation hits all digits alike and keeps the relations; the
    chains come i-major, j-minor.  The rows live in one echelon, in
    reduced row echelon form; those with their pivot in the top segment
    are the candidates.  ``accept`` sees each candidate's integer segments
    [v_0, ..., v_{L-1}], the chain times its pivot (the first nonzero entry
    of v_0; 1 over F_p), and must return True, keeping the chain, only for
    chains independent of everything kept so far.  Then each candidate
    moves one segment down (its deepest segment drops off) and the
    all-zero top segment of every other row is cut; those stay in RREF,
    and only the moved rows are reduced again for the next level.  The
    loop stops once the accepted chains cover ``total_needed`` or the rows
    run out; the caller compares what they cover with what it needs.
    """
    first = digits[0][0]
    f, n, d = first.field, first.cols, len(digits[0])
    level = len(digits)
    lifted = [m.lifted() for digit in digits for m in digit]
    _, scales = f.common_den([den for _, den in lifted])
    # parts[t*d + i] is coefficient i of digit t over the common denominator
    parts = [rows if k == 1 else f.int_scale(rows, k)
             for (rows, _), k in zip(lifted, scales)]
    stack = f.echelon(level * n, d * first.rows)
    for i in range(d):
        for row in zip(*parts[i::d]):
            stack.insert(list(chain.from_iterable(row)))
    total = 0
    while total < total_needed and len(stack):
        for _, row in stack.pivot_rows(n):
            if accept([row[t:t + n] for t in range(0, level * n, n)]):
                total += level
        if total >= total_needed:
            break
        stack.shift(n)
        level -= 1


def extract_q_cycles(a, q_poly, mult, c_blocks):
    """The Q(A)-Jordan cycles of the factor Q of multiplicity ``mult`` from
    its Q-adic digits ``c_blocks`` of (B*V)^T (``matpoly_div_q``), in
    discovery order, each a list of groups [w_j, A*w_j, ..., A^{d-1}*w_j]
    with Q(A)*w_j = w_{j-1}, Q(A)*w_0 = 0 and w_0's group first.
    Collection stops once the cycles cover ``mult`` or the chains run out;
    whether they cover exactly ``mult`` is for the caller to judge (see
    ``jordan_rational.decompose``).

    A candidate chain w_0, ..., w_{k-1} (Q(A)*w_j = w_{j-1}, Q(A)*w_0 = 0)
    is taken when the d vectors of w_0's group are independent of the
    groups of w_0 of every cycle taken before; only then is its whole grid
    built.  That is enough for the cycles to span a direct sum.  If w_0's
    group is independent, w_0's minimal polynomial is Q itself, even for a
    reducible asserted Q, so the cycle Z spans all k*d dimensions (apply
    Q(A)^j to a relation whose top link is j).  The span W of the cycles
    taken is A-invariant, so if Z meets W, Z and W share a nonzero
    A-invariant subspace on which Q(A) is nilpotent, hence a nonzero
    vector of ker Q(A).  In Z that vector lies in w_0's group; in W, whose
    cycles each meet ker Q(A) in their own group of w_0, it lies in the
    span of those groups.  So Z meets W exactly when the groups are
    dependent.  For d = 1 a group is the vector itself and no product is
    made.  The test runs on the integer model, with A' = e*A for A, e its
    common denominator: independence does not depend on scale.  Only an
    accepted grid is lowered, power k over pivot*e^k.
    """
    f = a.field
    d = q_poly.degree
    e, op = 1, None
    if d > 1:
        ai, e = a.lifted()
        op = f.int_operator(ai)
    socle = f.echelon(a.rows, a.rows)
    cycles = []

    def powers(vectors):       # [vectors, A'*vectors, ..., A'^{d-1}*vectors]
        out = [vectors]
        for _ in range(d - 1):
            out.append(op(out[-1]))
        return out

    def accept(segs):
        bottom = powers(segs[:1])
        saved = socle.save()
        if not all(socle.insert(ws[0]) for ws in bottom):
            socle.restore(saved)
            return False
        pivot = next(filter(None, segs[0]))
        grid = [f.lower(w + ws, pivot * e ** k)
                for k, (w, ws) in enumerate(zip(bottom, powers(segs[1:])))]
        cycles.append([list(group) for group in zip(*grid)])
        return True

    collect_cycles(c_blocks, mult, accept)
    return cycles


def extract_cycles(a, lam, mult, blocks):
    """Jordan cycles of the eigenvalue ``lam`` from its Taylor blocks
    [B(lam), ..., B^{mult-1}(lam)] of (B*V)^T: ``extract_q_cycles`` at
    lambda - lam, each cycle a list of one-vector groups [[v_0], ...,
    [v_{k-1}]] with v_0 the eigenvector."""
    return extract_q_cycles(a, Poly.x_minus(a.field, lam), mult,
                            [[b] for b in blocks])

"""Fixed-seed property run across fields, forms and charpoly routes.

Inputs are random rational normal forms over QQ, GF(5) and GF(7),
conjugated by random unimodular matrices.  Over GF(p) the matrices are
larger than p, so the Hessenberg + Horner route runs, and the quadratic
factors are drawn from those irreducible mod p.  Each case checks the block
multiset of every applicable form against the ground truth, that the three
drivers agree on split inputs, and, at every factor of degree >= 2, the
Q(A)-chain and the relations of the rational conversion.  Over every field
a solve makes one attempt per probe block B(lambda)*V, each with one
expansion; the number of attempts is checked against an oracle of when
V's columns generate each primary component.  A second generator, over
QQ, GF(2) and GF(7), gives a factor more cycles than the first block has
columns, so that the block doubles, up to n for scalar matrices.
Over GF(p) with p > n, the Hessenberg + Horner route must give Faddeev's
P and B.
"""

import functools
import random

import pytest

from conftest import (IRREDUCIBLE_QUADRATICS, block_multiset,
                      conjugate_random, hstack, mul_vector, normal_form,
                      poly_divmod, poly_pow, transposed)
from jnf import jordan_linear, jordan_rational
from jnf.charpoly import (char_data, comatrix_from_charpoly, faddeev,
                          hessenberg_charpoly, probe_block)
from jnf.factor import factor_charpoly
from jnf.fields import QQ, Field, PrimeField
from jnf.jordan_rational import (BLOCK_COLUMNS, assemble_pseudo_rational,
                                 convert_cycle_to_rational, extract_q_cycles,
                                 q_adic_blocks, rational_jordan, split_jordan)
from jnf.matrix import Matrix, mat_mul, poly_at_matrix, rank
from jnf.poly import Poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def irreducible_quadratics(p):
    """Monic x^2 + b*x + c with no root mod p, lowest degree first."""
    return [[c, b, 1] for b in range(p) for c in range(p)
            if all((x * x + b * x + c) % p for x in range(p))]


FIELDS = {
    "QQ": (QQ, list(range(-3, 4)), IRREDUCIBLE_QUADRATICS, 2),
    "GF5": (PrimeField(5), list(range(5)), irreducible_quadratics(5), 6),
    "GF7": (PrimeField(7), list(range(7)), irreducible_quadratics(7), 8),
}


@st.composite
def cases(draw):
    """(matrix, ground-truth pieces [(factor, [cycle lengths])], n)."""
    f, roots, quads, n_min = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    pool = [Poly.x_minus(f, f.from_int(r)) for r in roots]
    if draw(st.booleans()):
        pool += [Poly.from_ints(f, q) for q in quads]
    blocks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                     st.integers(1, 3)), min_size=1, max_size=4))
    lengths = {}
    n = 0
    for i, k in blocks:
        if n + pool[i].degree * k <= n_min + 4:
            lengths.setdefault(i, []).append(k)
            n += pool[i].degree * k
    while n < n_min:                    # pad with eigenvalue pool[0]
        lengths.setdefault(0, []).append(1)
        n += 1
    pieces = [(pool[i], ls) for i, ls in lengths.items()]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return conjugate_random(rng, normal_form(f, pieces)), pieces


def truth(pieces):
    out = {}
    for q, ls in pieces:
        for k in ls:
            out[(tuple(q.coeffs), k)] = out.get((tuple(q.coeffs), k), 0) + 1
    return out


def check_chain_and_conversion(a, b, q, mult):
    """The invariants no solve checks, as its certificate covers them: the
    Q(A)-chain Q(A)*C_0 = 0, Q(A)*C_{k+1} = C_k of the Q-adic coefficients
    of B, from those of b = B^T, and A*v_{j,l-1} = v_{j,l} + v_{j-1,l-1} in
    every converted cycle, for l = 1..d."""
    f = a.field
    c_blocks = q_adic_blocks(a, b, q, mult)
    cols = [[c.transposed() for c in c_k] for c_k in c_blocks]
    qa = poly_at_matrix(q, a)
    assert all(mat_mul(qa, c).is_zero() for c in cols[0])
    for c_k, c_next in zip(cols, cols[1:]):
        assert [mat_mul(qa, c) for c in c_next] == c_k
    zero = [[f.zero] * a.rows] * q.degree
    for cycle in extract_q_cycles(a, q, mult, c_blocks):
        groups = convert_cycle_to_rational(a, q, cycle)
        for prev, group in zip([zero] + groups, groups):
            # v_{j,d} stands for -sum_i q_i*v_{j,i}: the companion column
            last = [f.neg(functools.reduce(f.add, map(f.mul, q.coeffs, xs)))
                    for xs in zip(*group)]
            for l, image in enumerate(group[1:] + [last], 1):
                assert mul_vector(a, group[l - 1]) == [
                    f.add(x, y) for x, y in zip(image, prev[l - 1])]


def block_sizes(n):
    """The column counts of the probe blocks a solve may try, in order."""
    sizes = [min(BLOCK_COLUMNS, n)]
    while sizes[-1] < n:
        sizes.append(min(2 * sizes[-1], n))
    return sizes


def expected_attempts(a, p, factors):
    """Attempts of a solve, from when V's columns generate each primary
    component: the projections of V onto the Q-primary part generate it as
    an F[A]-module exactly when (P/Q^m)(A) times the Krylov matrix
    [V, A*V, ..., A^(n-1)*V] has rank m*deg(Q).  That is what cycle
    collection needs; each attempt retries only the factors short so far."""
    f, n = a.field, a.rows
    first = 0
    for q, m in factors:
        proj = poly_at_matrix(poly_divmod(p, poly_pow(q, m))[0], a)
        for i, s in enumerate(block_sizes(n)):
            krylov = [Matrix(f, zip(*probe_block(f, n, s)))]
            for _ in range(n - 1):
                krylov.append(mat_mul(a, krylov[-1]))
            if rank(mat_mul(proj, hstack(*krylov))) == m * q.degree:
                first = max(first, i)
                break
    return first + 1


def solve_counted(a, pieces, orientation):
    """The decompositions of every applicable driver on the solve path, and
    per driver (expansions, attempts), an attempt being one probe block."""
    p = hessenberg_charpoly(a)
    fc = factor_charpoly(p, hint=[(q, sum(ls)) for q, ls in pieces])
    drivers = [assemble_pseudo_rational, rational_jordan]
    if all(q.degree == 1 for q, _ in pieces):
        drivers.insert(0, split_jordan)
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        def expand(self, *args, orig=Field.expand):
            counts[-1][0] += 1
            return orig(self, *args)

        def block(a, charpoly, s, orig=jordan_rational.comatrix_block):
            counts[-1][1] += 1
            return orig(a, charpoly, s)
        mp.setattr(Field, "expand", expand)
        mp.setattr(jordan_rational, "comatrix_block", block)
        decs = []
        for solve in drivers:
            counts.append([0, 0])
            decs.append(solve(a, fc, orientation=orientation, charpoly=p))
    attempts = expected_attempts(a, p, fc.factors)
    assert counts == [[attempts, attempts]] * len(drivers)
    return decs, fc, attempts


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=80)
@hypothesis.given(cases(), st.sampled_from(["upper", "lower"]))
def test_every_form_recovers_the_blocks(case, orientation):
    a, pieces = case
    decs, fc, _ = solve_counted(a, pieces, orientation)
    split = len(decs) == 3
    for dec in decs:
        assert block_multiset(dec) == truth(pieces)
    for q, mult in fc.factors:
        if q.degree > 1:
            check_chain_and_conversion(a, transposed(char_data(a).b), q, mult)
    if split:
        # d = 1 everywhere: the pseudo and rational couplings are the
        # split form's identity, so all three give the same answer
        for dec in decs[1:]:
            assert (dec.p, dec.j, dec.blocks) == (decs[0].p, decs[0].j, decs[0].blocks)


@st.composite
def many_cycles(draw):
    """(matrix, pieces) over GF(2), GF(7) or QQ with a factor of more cycles
    than BLOCK_COLUMNS: a scalar or zero matrix (n cycles, so the block
    doubles up to V = I), or halving patterns such as [8, 4, 2, 1, 1]."""
    f = draw(st.sampled_from([PrimeField(2), PrimeField(7), QQ]))
    roots = range(f.char) if f.char else range(-3, 4)
    lam = Poly.x_minus(f, f.from_int(draw(st.sampled_from(roots))))
    kind = draw(st.sampled_from(["scalar", "zero", "halving"]))
    if kind == "halving":
        top = draw(st.sampled_from([4, 8]))
        lengths = [top >> i for i in range(top.bit_length())] + [1] * draw(
            st.integers(0, 2))
        pieces = [(lam, lengths)]
        if draw(st.booleans()):
            other = Poly.x_minus(f, f.from_int(draw(st.sampled_from(roots))))
            if other != lam:
                pieces.append((other, [2, 1]))
    else:
        n = draw(st.integers(2 * BLOCK_COLUMNS + 1, 4 * BLOCK_COLUMNS))
        pieces = [(Poly.x_minus(f, f.zero) if kind == "zero" else lam, [1] * n)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return conjugate_random(rng, normal_form(f, pieces)), pieces


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=30)
@hypothesis.given(many_cycles(), st.sampled_from(["upper", "lower"]))
def test_blocks_double_until_every_cycle_is_found(case, orientation):
    a, pieces = case
    decs, _, attempts = solve_counted(a, pieces, orientation)
    for dec in decs:
        assert block_multiset(dec) == truth(pieces)
    most = max(len(ls) for _, ls in pieces)
    # fewer columns than cycles cannot carry them all; n cycles need V = I
    assert attempts >= 1 + sum(s < most for s in block_sizes(a.rows))
    if most == a.rows:
        assert attempts == len(block_sizes(a.rows)) > 2


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=60)
@hypothesis.given(st.sampled_from([11, 13, 101, 2**31 - 1, 2**61 - 1]),
                  st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_hessenberg_horner_route_agrees_with_faddeev(p, n, seed):
    # over GF(p) with p > n both routes apply: Hessenberg + the minor
    # recurrence, then matrix Horner on P, give Faddeev's P and B; the
    # entries are sparse, so zero pivots and subdiagonals occur
    f = PrimeField(p)
    rng = random.Random(seed)
    a = Matrix(f, [[rng.randrange(p) if rng.random() < 0.4 else 0
                    for _ in range(n)] for _ in range(n)])
    cd = faddeev(a)
    p_h = hessenberg_charpoly(a)
    assert p_h == cd.p
    assert comatrix_from_charpoly(a, p_h) == cd.b


def accept_decisions(a, c_blocks, q, mult):
    """[(candidate segments, taken)] in the order cycle collection offered
    them, for the factor q with Q-adic coefficients ``c_blocks``."""
    decisions = []
    with pytest.MonkeyPatch.context() as mp:
        def collect(blocks, total, accept, orig=jordan_linear.collect_cycles):
            def recorded(segs):
                decisions.append((segs, accept(segs)))
                return decisions[-1][1]
            return orig(blocks, total, recorded)
        mp.setattr(jordan_linear, "collect_cycles", collect)
        extract_q_cycles(a, q, mult, c_blocks)
    return decisions


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
@hypothesis.given(st.one_of(cases(), many_cycles()))
def test_accept_refuses_exactly_the_overlapping_chains(case):
    # acceptance tests only the socle, the group of w_0; the oracle tests
    # the whole grid of the candidate's cycle against every vector taken
    a, pieces = case
    f = a.field
    b = transposed(char_data(a).b)
    for q, ls in pieces:
        mult = sum(ls)
        taken = []
        for segs, ok in accept_decisions(a, q_adic_blocks(a, b, q, mult), q, mult):
            grid = []
            for w in segs:
                grid.append(w)
                for _ in range(q.degree - 1):
                    grid.append(mul_vector(a, grid[-1]))
            independent = rank(Matrix(f, taken + grid)) == len(taken) + len(grid)
            assert ok == independent
            if ok:
                taken += grid
        assert len(taken) == mult * q.degree

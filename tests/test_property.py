"""Fixed-seed property run across fields, forms and charpoly routes.

Inputs are random rational normal forms over QQ, GF(5) and GF(7),
conjugated by random unimodular matrices.  Over GF(p) the matrices are
larger than p, so the Hessenberg + Horner route runs, and the quadratic
factors are drawn from those irreducible mod p.  Each case checks the block
multiset of every applicable form against the ground truth, that the three
drivers agree on split inputs, that a solve expands B exactly once, and,
at every factor of degree >= 2, the Q(A)-chain and the relations of the
rational conversion.
Over GF(p) with p > n, the Hessenberg + Horner route must give Faddeev's
P and B.
"""

import functools
import random

import pytest

from conftest import (IRREDUCIBLE_QUADRATICS, block_multiset,
                      conjugate_random, mul_vector, normal_form)
from jnf.charpoly import (char_data, comatrix_from_charpoly, faddeev,
                          hessenberg_charpoly)
from jnf.factor import factor_charpoly
from jnf.fields import QQ, Field, PrimeField
from jnf.jordan_linear import split_jordan
from jnf.jordan_rational import (assemble_pseudo_rational,
                                 convert_cycle_to_rational, extract_q_cycles,
                                 q_adic_blocks, rational_jordan)
from jnf.matrix import Matrix, mat_mul, poly_at_matrix
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
    Q(A)-chain Q(A)*C_0 = 0, Q(A)*C_{k+1} = C_k of the Q-adic coefficients,
    and A*v_{j,l-1} = v_{j,l} + v_{j-1,l-1} in every converted cycle, for
    l = 1..d."""
    f = a.field
    c_blocks = q_adic_blocks(a, b, q, mult)
    qa = poly_at_matrix(q, a)
    assert all(mat_mul(qa, c).is_zero() for c in c_blocks[0])
    for c_k, c_next in zip(c_blocks, c_blocks[1:]):
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


@hypothesis.settings(derandomize=True, database=None, deadline=None,
                     max_examples=80)
@hypothesis.given(cases(), st.sampled_from(["upper", "lower"]))
def test_every_form_recovers_the_blocks(case, orientation):
    a, pieces = case
    f = a.field
    cd = char_data(a)
    assert cd.method == ("faddeev" if f.char == 0 else "hessenberg_horner")
    fc = factor_charpoly(cd.p, hint=[(q, sum(ls)) for q, ls in pieces])
    drivers = [assemble_pseudo_rational, rational_jordan]
    split = all(q.degree == 1 for q, _ in pieces)
    if split:
        drivers.insert(0, split_jordan)
    expansions = []
    with pytest.MonkeyPatch.context() as mp:
        def counted(self, *args, orig=Field.expand):
            expansions[-1] += 1
            return orig(self, *args)
        mp.setattr(Field, "expand", counted)
        decs = []
        for solve in drivers:
            expansions.append(0)
            decs.append(solve(a, fc, orientation=orientation, chardata=cd))
    assert expansions == [1] * len(drivers)
    for dec in decs:
        assert block_multiset(dec) == truth(pieces)
    for q, mult in fc.factors:
        if q.degree > 1:
            check_chain_and_conversion(a, cd.b, q, mult)
    if split:
        # d = 1 everywhere: the pseudo and rational couplings are the
        # split form's identity, so all three give the same answer
        for dec in decs[1:]:
            assert (dec.p, dec.j, dec.blocks) == (decs[0].p, decs[0].j, decs[0].blocks)


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

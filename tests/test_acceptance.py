"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

The random suites are generated once per session and shared between the
criteria that reference them.  Every comparison is exact; there are no
tolerances anywhere.
"""

import time

import pytest

from conftest import (block_diagonal_part, block_multiset, charpoly_oracle,
                      conjugate_random, expand_cycle, hstack, identity,
                      kernel_basis, lambda_i_minus, make_fixture_m6, mat_pow,
                      mat_scale, mat_sub, matpoly_mul, mul_vector, normal_form,
                      poly_derivative, poly_divmod, poly_eval, poly_mul,
                      poly_pow, random_normal_form, rng_for, trace,
                      transposed)
from jnf.charpoly import char_data, faddeev, hessenberg_charpoly
from jnf.decomposition import cycle_block_matrix, verify
from jnf.factor import factor_charpoly
from jnf.fields import QQ, CountingField, PrimeField
from jnf.jordan_linear import extract_cycles, taylor_blocks
from jnf.jordan_rational import (assemble_pseudo_rational,
                                 convert_cycle_to_rational, extract_q_cycles,
                                 q_adic_blocks, rational_jordan, split_jordan)
from jnf.matrix import MatPoly, Matrix, mat_mul, poly_at_matrix, rank
from jnf.poly import Poly

X2M2 = Poly.from_ints(QQ, [-2, 0, 1])


@pytest.fixture
def run_criterion(capsys):
    """Runs one criterion body and emits a pass/fail line on the real
    stdout, bypassing capture."""
    def runner(num, fn):
        def report(ok):
            with capsys.disabled():
                status = "PASS" if ok else "FAIL"
                print(f"[acceptance] criterion {num}: {status}", flush=True)
        try:
            fn()
        except BaseException:
            report(False)
            raise
        report(True)
    return runner


def rand_matrix(rng, field, n, lo=-5, hi=5):
    return Matrix.from_ints(
        field, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def check_comatrix_identity(a, cd):
    ident = identity(a.field, a.rows)
    lhs = matpoly_mul(lambda_i_minus(a), cd.b)
    rhs = MatPoly(a.field, [mat_scale(ident, c) for c in cd.p.coeffs])
    assert lhs == rhs


def integer_roots(p):
    """Roots of a monic integer-coefficient polynomial with multiplicities.

    Rational roots of such a polynomial are integers dividing the constant
    term, so an integer scan finds them all (bounded, enough for the random
    suites here)."""
    f = p.field
    found = []
    for t in range(-40, 41):
        lam = f.from_int(t)
        if not f.is_zero(poly_eval(p, lam)):
            continue
        mult = 0
        q = p
        while True:
            quot, rem = poly_divmod(q, Poly.x_minus(f, lam))
            if not rem.is_zero:
                break
            q = quot
            mult += 1
        found.append((lam, mult))
    return found


def field_roots(p):
    """All roots over a small prime field, with multiplicities."""
    f = p.field
    found = []
    for t in range(f.char):
        lam = f.from_int(t)
        if not f.is_zero(poly_eval(p, lam)):
            continue
        mult = 0
        q = p
        while True:
            quot, rem = poly_divmod(q, Poly.x_minus(f, lam))
            if not rem.is_zero:
                break
            q = quot
            mult += 1
        found.append((lam, mult))
    return found


@pytest.fixture(scope="module")
def suite4():
    """200 random matrices (100 over Q, 100 over F_7) with their char data."""
    cases = []
    rng = rng_for("acceptance-suite4")
    for field in (QQ, PrimeField(7)):
        for _ in range(100):
            a = rand_matrix(rng, field, rng.randint(1, 5))
            cases.append((a, char_data(a)))
    return cases


@pytest.fixture(scope="module")
def suite5():
    """100 conjugated ground-truth normal forms with their rational and
    pseudo-rational decompositions."""
    cases = []
    rng = rng_for("acceptance-suite5")
    for _ in range(100):
        j, truth = random_normal_form(rng, QQ, n_max=10)
        a = conjugate_random(rng, j)
        cd = char_data(a)
        mults = {}
        for (coeffs, k), count in truth.items():
            mults[coeffs] = mults.get(coeffs, 0) + k * count
        hint = [(Poly(QQ, list(coeffs)), m) for coeffs, m in mults.items()]
        fc = factor_charpoly(cd.p, hint=hint)
        rat = rational_jordan(a, fc, charpoly=cd.p)
        pseudo = assemble_pseudo_rational(a, fc, charpoly=cd.p)
        cases.append((a, cd, truth, rat, pseudo))
    return cases


def test_criterion_1_fixture_a(fixture_a, run_criterion):
    def check():
        start = time.perf_counter()
        cd = char_data(fixture_a)
        assert cd.p == Poly.from_ints(QQ, [-4, 8, -5, 1])  # roots {1, 2, 2}
        dec = split_jordan(fixture_a, factor_charpoly(cd.p), charpoly=cd.p)
        assert dec.j == Matrix.from_ints(QQ, [[2, 0, 0], [1, 2, 0], [0, 0, 1]])
        assert mat_mul(fixture_a, dec.p) == mat_mul(dec.p, dec.j)
        assert rank(dec.p) == 3
        assert time.perf_counter() - start < 1.0
    run_criterion(1, check)


def test_criterion_2_fixture_b(fixture_b, run_criterion):
    def check():
        cd = char_data(fixture_b)
        assert cd.p == Poly.from_ints(QQ, [-1, 3, -3, 1])  # (x-1)^3
        dec = split_jordan(fixture_b, factor_charpoly(cd.p), charpoly=cd.p)
        one = (QQ.from_int(-1), QQ.one)
        assert sorted((tuple(b.factor.coeffs), b.cycle_length)
                      for b in dec.blocks) == [(one, 1), (one, 2)]
        assert verify(fixture_b, dec)
    run_criterion(2, check)


def test_criterion_3_fixture_m6(run_criterion):
    def check():
        a = make_fixture_m6()
        cd = char_data(a)
        # (a) charpoly = (x-2)^2 (x^2-2)^2 exactly
        expect_p = poly_mul(poly_pow(Poly.from_ints(QQ, [-2, 1]), 2), poly_pow(X2M2, 2))
        assert cd.p == expect_p
        fc = factor_charpoly(cd.p)

        # (b) pseudo-rational J entrywise
        pseudo = assemble_pseudo_rational(a, fc, charpoly=cd.p)
        assert pseudo.j == Matrix.from_ints(QQ, [
            [0, 2, 0, 1, 0, 0],
            [1, 0, 0, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 2],
        ])
        assert verify(a, pseudo)

        # (c) Q(A)-cycle pair, up to generator choice: both the computed and
        # the reference pair satisfy the chain relations and span the same
        # 4-dimensional expanded space
        qa = poly_at_matrix(X2M2, a)
        cycles = extract_q_cycles(a, X2M2, 2, q_adic_blocks(a, transposed(cd.b), X2M2, 2))
        assert len(cycles) == 1 and len(cycles[0]) == 2
        (w0, _), (w1, _) = cycles[0]
        assert mul_vector(qa, w1) == w0
        assert all(QQ.is_zero(x) for x in mul_vector(qa, w0))
        # reference pair: Q(A) maps (0,0,0,-1,-1,-1) to (1,0,0,-1,-1,-1),
        # which Q(A) kills
        ref1 = [QQ.from_int(k) for k in (0, 0, 0, -1, -1, -1)]
        ref0 = [QQ.from_int(k) for k in (1, 0, 0, -1, -1, -1)]
        assert mul_vector(qa, ref1) == ref0
        assert all(QQ.is_zero(x) for x in mul_vector(qa, ref0))
        ours = [w0, mul_vector(a, w0), w1, mul_vector(a, w1)]
        refs = [ref0, mul_vector(a, ref0), ref1, mul_vector(a, ref1)]
        assert rank(Matrix.from_columns(QQ, ours, rows=6)) == 4
        assert rank(Matrix.from_columns(QQ, ours + refs, rows=6)) == 4

        # (d) rational conversion from the reference generator pair
        v00 = [QQ.from_int(k) for k in (4, 24, 12, 32, 8, -4)]
        w10 = [QQ.from_int(k) for k in (0, 4, -4, 8, 4, -4)]
        assert mul_vector(qa, w10) == v00
        groups = convert_cycle_to_rational(a, X2M2,
                                           expand_cycle([v00, w10], a, X2M2))
        v01 = groups[0][1]
        v10, v11 = groups[1]
        assert groups[0][0] == v00
        assert v01 == mul_vector(a, v00)
        assert v10 == [QQ.from_int(k) for k in (-8, -32, 0, -48, -16, 16)]
        assert v11 == [QQ.from_int(k) for k in (4, 40, -4, 64, 24, -20)]
        two = QQ.from_int(2)
        assert mul_vector(a, v11) == [QQ.add(QQ.mul(two, x), y)
                                     for x, y in zip(v10, v01)]
    run_criterion(3, check)


def test_criterion_4_identity_oracle_suite(suite4, run_criterion):
    def check():
        assert len(suite4) == 200
        for a, cd in suite4:
            f = a.field
            oracle = charpoly_oracle(a)
            assert hessenberg_charpoly(a) == oracle
            if f.char == 0 or f.char > a.rows:
                assert faddeev(a).p == oracle
            assert cd.p == oracle
            check_comatrix_identity(a, cd)                    # Eq. (1)
            traces = [trace(m) for m in cd.b.coeffs]
            assert Poly(f, traces) == poly_derivative(cd.p)   # trace identity
            assert poly_at_matrix(cd.p, a).is_zero()          # Cayley-Hamilton
    run_criterion(4, check)


def test_criterion_5_round_trip(suite5, run_criterion):
    def check():
        assert len(suite5) == 100
        for a, _, truth, rat, _ in suite5:
            assert block_multiset(rat) == truth
            assert mat_mul(a, rat.p) == mat_mul(rat.p, rat.j)
            assert rank(rat.p) == a.rows
    run_criterion(5, check)


def test_criterion_6_theorem2_ranks(suite4, suite5, run_criterion):
    def check():
        def rank_equalities(a, cd, lam, mult):
            f = a.field
            bn = taylor_blocks(cd.b, lam, mult)[mult - 1]
            shifted = mat_sub(a, mat_scale(identity(f, a.rows), lam))
            kernel_cols = kernel_basis(mat_pow(shifted, mult))
            k_mat = Matrix.from_columns(f, kernel_cols, rows=a.rows)
            r_b = rank(bn)
            r_k = len(kernel_cols)
            assert r_b == r_k == mult
            if r_k:
                assert rank(hstack(bn, k_mat)) == r_k
        checked = 0
        for a, cd in suite4:
            roots = (field_roots(cd.p) if a.field.char else integer_roots(cd.p))
            for lam, mult in roots:
                rank_equalities(a, cd, lam, mult)
                checked += 1
        for a, cd, truth, _, _ in suite5:
            for (coeffs, _k), _count in truth.items():
                if len(coeffs) != 2:
                    continue
                lam = QQ.neg(coeffs[0])
                mult = sum(k * c for (cf, k), c in truth.items() if cf == coeffs)
                rank_equalities(a, cd, lam, mult)
                checked += 1
        assert checked > 100
    run_criterion(6, check)


def test_criterion_7_commutation(suite5, run_criterion):
    def check():
        for _a, _cd, _truth, rat, pseudo in suite5:
            d = block_diagonal_part(rat)
            n = mat_sub(rat.j, d)
            assert mat_mul(d, n) == mat_mul(n, d)
            dp = block_diagonal_part(pseudo)
            np_ = mat_sub(pseudo.j, dp)
            # a single-1 coupling exists exactly when some cycle couples
            # companion blocks of degree >= 2; D = lambda*I on linear blocks
            # always commutes, so that is the honest failure condition
            has_coupling = any(b.factor.degree >= 2 and b.cycle_length >= 2
                               for b in pseudo.blocks)
            commutes = mat_mul(dp, np_) == mat_mul(np_, dp)
            assert commutes == (not has_coupling)
    run_criterion(7, check)


def test_criterion_8_op_count_scaling(run_criterion):
    def check():
        counts = {}
        for n in (8, 16, 32):
            a_plain = cycle_block_matrix(X2M2, n // 2, "rational", "upper")
            cd = char_data(a_plain)
            cf = CountingField(QQ)
            a = Matrix(cf, a_plain.data)
            b = MatPoly(cf, [Matrix(cf, m.data) for m in cd.b.coeffs])
            q = Poly(cf, list(X2M2.coeffs))
            q_adic_blocks(a, b, q, n // 2)
            counts[n] = cf.total
        assert counts[8] > 0
        assert counts[16] <= 24 * counts[8]
        assert counts[32] <= 24 * counts[16]
    run_criterion(8, check)


def halving_cycles(n):
    """Cycle lengths n/2, n/4, ..., 1, 1 (n a power of two), which sum to n."""
    lengths = [n // 2]
    while lengths[-1] > 1:
        lengths.append(lengths[-1] // 2)
    return lengths + [1]


@pytest.mark.parametrize("f", [PrimeField(7), QQ], ids=["GF7", "QQ"])
def test_cycle_collection_op_count_scaling(f):
    # one eigenvalue of multiplicity n: cycle collection works on n chain
    # rows of n blocks, the case that broke the O(n^4) bound (about 30x per
    # doubling while each level reduced the whole stack again)
    counts = {}
    lam = f.from_int(3)
    for n in (16, 32):
        a = conjugate_random(rng_for(f"op-scaling-{f.char}-{n}"),
                             normal_form(f, [(Poly.x_minus(f, lam), halving_cycles(n))]))
        blocks = taylor_blocks(transposed(char_data(a).b), lam, n)
        cf = CountingField(f)
        cycles = extract_cycles(Matrix(cf, a.data), lam, n,
                                [Matrix(cf, b.data) for b in blocks])
        assert sorted(map(len, cycles), reverse=True) == halving_cycles(n)
        counts[n] = cf.total
    assert 0 < counts[16] and counts[32] <= 20 * counts[16]

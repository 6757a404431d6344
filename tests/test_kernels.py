"""The field kernels (``matmul``, ``echelon``, ``rank``, ``expand``) against
per-operation oracles written here with the scalar field methods only."""

import math
import random

import pytest

from conftest import (conjugate_random, division_rows_oracle, mat_add, mat_scale,
                      mul_vector, normal_form, rng_for, rref)
from jnf import fields, jordan_linear
from jnf.charpoly import char_data, hessenberg_charpoly, probe_block
from jnf.decomposition import cycle_block_matrix
from jnf.factor import FactoredCharPoly, factor_charpoly
from jnf.fields import QQ, CountingField, PrimeField, Rationals, _slot_bytes, is_prime
from jnf.jordan_linear import collect_cycles, extract_q_cycles, split_jordan
from jnf.jordan_rational import q_adic_blocks, rational_jordan
from jnf.matrix import MatPoly, Matrix, horner_shift, matrix_horner, poly_at_matrix
from jnf.poly import Poly

# 2^31 - 1 puts the packed product's dot bound on both sides of 64 bits
FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2**31 - 1),
          PrimeField(2**61 - 1)]
IDS = ["QQ", "GF2", "GF7", "GF(2^31-1)", "GF(2^61-1)"]


def oracle_matmul(f, a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0]) if b else 0):
            acc = f.zero
            for k, x in enumerate(row):
                acc = f.add(acc, f.mul(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def oracle_rref(f, rows):
    data = [list(r) for r in rows]
    ncols = len(data[0]) if data else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(data)) if not f.is_zero(data[i][c])), None)
        if pr is None:
            continue
        data[pr], data[r] = data[r], data[pr]
        inv = f.inv(data[r][c])
        data[r] = [f.mul(inv, x) for x in data[r]]
        for i in range(len(data)):
            if i != r and not f.is_zero(data[i][c]):
                e = f.neg(data[i][c])
                data[i] = [f.add(x, f.mul(e, y)) for x, y in zip(data[i], data[r])]
        pivots.append((r, c))
        r += 1
    return data, r, pivots


def oracle_expand(f, coeffs, q, count):
    """Repeated synthetic division, one field operation at a time."""
    d = len(q) - 1
    cur = [list(c) for c in coeffs]
    width = len(coeffs[0])
    out = []
    for _ in range(count):
        quot = []
        for k in range(len(cur) - 1, d - 1, -1):
            lead = cur[k]
            quot.append(lead)
            for j in range(d):
                cur[k - d + j] = [f.sub(x, f.mul(q[j], y))
                                  for x, y in zip(cur[k - d + j], lead)]
        out.append([cur[j] if j < len(cur) else [f.zero] * width for j in range(d)])
        cur = quot[::-1]
    return out


def expand_lowered(f, coeffs, divisors):
    """``Field.expand`` on rows of field elements, each coefficient lifted
    on its own (so their denominators differ) and every remainder lowered."""
    lifted = [f.lift([c]) for c in coeffs]
    out = f.expand([rows[0] for rows, _ in lifted], [den for _, den in lifted],
                   divisors)
    return [[[f.lower([row], den)[0] for row, den in rem] for rem in per]
            for per in out]


def elem(rng, f, big=False):
    """Mixed entries: zeros, small ints, and (over QQ) fractions with
    negative and, with ``big``, 100-bit numerators."""
    kind = rng.random()
    if kind < 0.25:
        return f.zero
    if f.char or kind < 0.5:
        return f.from_int(rng.randint(-9, 9))
    top = 2**100 if big else 30
    return QQ.fraction(rng.randint(-top, top), rng.randint(1, 40))


def rand_rows(rng, f, rows, cols, big=False):
    return [[elem(rng, f, big) for _ in range(cols)] for _ in range(rows)]


def deficient(rng, f, rows, cols, rank):
    """A rows x cols matrix of rank at most ``rank``."""
    left = rand_rows(rng, f, rows, rank)
    right = rand_rows(rng, f, rank, cols)
    return oracle_matmul(f, left, right) if rank else [[f.zero] * cols] * rows


def shapes(rng, f):
    yield [[f.from_int(3)]]                       # 1 x 1
    yield [[f.zero]]
    yield [[f.zero] * 4 for _ in range(3)]        # zero
    yield [[], []]                                # no columns
    yield []                                      # no rows
    for _ in range(12):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        yield rand_rows(rng, f, r, c, big=rng.random() < 0.5)
        yield deficient(rng, f, r, c, rng.randint(0, min(r, c)))


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_matmul_matches_oracle(f):
    rng = rng_for(f"kernel-matmul-{f.char}")
    for a in shapes(rng, f):
        cols = rng.randint(1, 4)
        b = rand_rows(rng, f, len(a[0]) if a else 0, cols, big=True)
        expect = oracle_matmul(f, a, b) if b else [[] for _ in a]
        assert f.matmul(a, b) == expect


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_operator_matches_oracle(f):
    # M*x and M*x + c*v on the integer model (``int_operator``), M prepared
    # once and applied repeatedly; over F_p also at entries p - 1, where the
    # slots fill up
    rng = rng_for(f"kernel-operator-{f.char}")
    for trial in range(12):
        rows, cols, s = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 4)
        m = rand_rows(rng, f, rows, cols, big=True)
        xs = rand_rows(rng, f, s, cols, big=True)
        vs = rand_rows(rng, f, s, rows, big=True)
        c = elem(rng, f, big=True)
        if f.char and trial % 3 == 0:
            top = f.char - 1
            m = [[top] * cols for _ in range(rows)]
            xs, vs, c = [[top] * cols] * s, [[top] * rows] * s, top
        # the integer model (over QQ, M, the columns and c each scaled to
        # integers), compared as field elements over 1
        (mi, _), (xi, _), (vi, _) = f.lift(m), f.lift(xs), f.lift(vs)
        ci = f.lift([[c]])[0][0][0]
        mxi = f.lower(oracle_matmul(f, mi, list(zip(*xi))), 1) if s else []
        int_op = f.int_operator(mi, vi)
        want = [list(col) for col in zip(*mxi)]
        for _ in range(2):
            assert f.lower(int_op(xi), 1) == want
            assert f.lower(int_op(xi, ci), 1) == [
                [f.add(y, f.from_int(ci * z)) for y, z in zip(col, v)]
                for col, v in zip(want, vi)]
        # over QQ the slots widen with the entries of the columns: wide
        # columns after narrow ones, then narrow ones again
        for k in ([] if f.char else [2**300, 1]):
            assert f.lower(int_op([[k * x for x in col] for col in xi]), 1) == [
                [f.mul(f.from_int(k), y) for y in col] for col in want]
        cf = CountingField(f)
        cf.int_operator(mi, vi)(xi, ci)
        # a mul and an add per term: rows*cols of them per column, and
        # rows more for c*v
        assert cf.total == 2 * s * rows * (cols + bool(ci))


def operator_oracle(m, xs, c=0, vs=()):
    """[M*x + c*v] for integer M and columns x, v, entry by entry."""
    vs = vs or [[0] * len(m) for _ in xs]
    return [[sum(r * y for r, y in zip(row, x)) + c * z for row, z in zip(m, v)]
            for x, v in zip(xs, vs)]


def spy_packs(monkeypatch):
    """The slot width of every packing of an operator's rows from here on."""
    packs, packer = [], fields._packer

    def spy(size, width):
        packs.append(size)
        return packer(size, width)
    monkeypatch.setattr(fields, "_packer", spy)
    return packs


def test_qq_operator_slots_hold_m_and_v():
    # the slots hold the packed entries of M and V themselves, not only
    # n*max|x|*max|M| + |c|*max|V|: all-zero columns against |M| = 2^40
    # (that bound alone is 0), and columns where c*V alone sets the width
    rng = rng_for("kernel-operator-slot-bound")
    n = 5
    big_m = [[rng.randint(-2**40, 2**40) for _ in range(n)] for _ in range(n)]
    big_m[0][0] = -2**40
    small_m = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    small_v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
    big_v = [[rng.randint(-2**60, 2**60) for _ in range(n)] for _ in range(3)]
    zeros = [[0] * n for _ in range(3)]
    ones = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(3)]
    for m, vs, xs, c in ((big_m, small_v, zeros, 0), (big_m, small_v, zeros, 7),
                         (small_m, big_v, zeros, 0), (small_m, big_v, ones, -5),
                         (small_m, small_v, ones, 2**50)):
        op = QQ.int_operator(m, vs)
        assert op(xs, c) == operator_oracle(m, xs, c, vs)
        assert op(xs) == operator_oracle(m, xs)


def test_qq_operator_walks_every_slot_width(monkeypatch):
    # one prepared operator, its columns widening from 1-byte slots through
    # 2, 4, 8 and 10 bytes into dot products (past max(8, 3*4) = 12 bytes),
    # then narrow again: M^T is packed once per width, and every result
    # matches the oracle
    rng = rng_for("kernel-operator-widths")
    n = 4
    m = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
    m[0][0] = 1
    vs = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(2)]
    packs, sizes = spy_packs(monkeypatch), []
    packed = fields._PackedOperator._packed
    monkeypatch.setattr(fields._PackedOperator, "_packed",
                        lambda self, xs, c, size: sizes.append(size)
                        or packed(self, xs, c, size))
    op = QQ.int_operator(m, vs)
    for hi, size in ((31, 1), (1000, 2), (2**20, 4), (2**40, 8), (2**70, 10),
                     (2**100, None), (5, 1)):
        xs = [[hi] + [rng.randint(-hi, hi) for _ in range(n - 1)] for _ in range(2)]
        c = rng.randint(-3, 3)
        sizes.clear()
        assert op(xs, c) == operator_oracle(m, xs, c, vs)
        assert sizes == ([size] if size else []), hi
    assert packs == [1, 2, 4, 8, 10]


def test_matrix_horner_packs_once_per_slot_width(monkeypatch):
    # a whole n = 16 matrix Horner over QQ: the entries of X_k grow, the
    # slots widen, and A'^T is packed once per width, never per step
    rng = rng_for("kernel-horner-packs")
    pieces = [(Poly.from_ints(QQ, [-2, 0, 1]), [2, 1]),
              (Poly.x_minus(QQ, QQ.fraction(1, 2)), [3, 2]),
              (Poly.x_minus(QQ, QQ.from_int(-3)), [3, 2])]
    a = conjugate_random(rng, normal_form(QQ, pieces))
    p = hessenberg_charpoly(a)
    v = probe_block(QQ, a.rows, 4)
    packs = spy_packs(monkeypatch)
    xs = matrix_horner(a, p.coeffs, v)
    monkeypatch.undo()
    assert a.rows == 16 and 1 < len(packs) == len(set(packs))
    # X_0 = c_n*V and X_k = A*X_{k-1} + c_{n-k}*V, column by column
    cs, a_t = p.coeffs, list(zip(*a.data))
    want = [[QQ.mul(cs[-1], y) for y in col] for col in v]
    for k, x in enumerate(xs):
        assert [list(col) for col in zip(*x.data)] == want
        if k < a.rows:
            want = [[QQ.add(y, QQ.mul(cs[-2 - k], z)) for y, z in zip(col, v_col)]
                    for col, v_col in zip(oracle_matmul(QQ, want, a_t), v)]
    assert not any(map(any, want))


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_rref_and_rank_match_oracle(f):
    rng = rng_for(f"kernel-rref-{f.char}")
    for rows in shapes(rng, f):
        expect = oracle_rref(f, rows)
        reduced, rk, pivots = rref(Matrix(f, rows))
        assert (reduced.data, rk, pivots) == expect
        assert f.rank(rows) == expect[1]


def test_rref_large_mixed_rationals():
    rng = rng_for("kernel-rref-big")
    for _ in range(10):
        rows = deficient(rng, QQ, 6, 8, 4)
        rows = [[QQ.mul(x, QQ.fraction(-(2**80) - 1, 3)) for x in r] for r in rows]
        reduced, rk, pivots = rref(Matrix(QQ, rows))
        assert (reduced.data, rk, pivots) == oracle_rref(QQ, rows)
        assert QQ.rank(rows) <= 4


# GF(2^61 - 1) puts the echelon's slots past 8 bytes
ECHELON_FIELDS = [QQ, PrimeField(2), PrimeField(7), PrimeField(2**61 - 1)]
ECHELON_IDS = ["QQ", "GF2", "GF7", "GF(2^61-1)"]


def normalized(f, pivot_rows):
    return [f.lower([row], row[c])[0] for c, row in pivot_rows]


def oracle_pivot_rows(f, rows):
    reduced, rk, _ = oracle_rref(f, rows)
    return reduced[:rk]


@pytest.mark.parametrize("f", ECHELON_FIELDS, ids=ECHELON_IDS)
def test_echelon_at_the_lazy_bound(f):
    # k pivot rows, each a unit vector with p - 1 in every free column, and
    # a probe with 1 under every pivot: eliminating it against all k =
    # width pivots at once adds (p - 1)^2 to each free slot per pivot, and
    # its free entries (-k) are within k of p - 1, so every free slot ends
    # near p - 1 + k*(p - 1)^2 before the one reduction.  The probe reduces
    # to zero; inserted first instead, it is cleared from every pivot row.
    # With a bound for fewer pivots, k = 40 overflows the slots of all three
    # primes.
    k, free = 40, 3
    minus_one, minus_k = f.neg(f.one), f.from_int(-k)
    pivots = [[f.one if j == i else f.zero for j in range(k)] + [minus_one] * free
              for i in range(k)]
    probe = [f.one] * k + [minus_k] * free
    for order in (pivots + [probe], [probe] + pivots):
        basis = f.echelon(k + free, k)
        inserted = [basis.insert(row) for row in f.lift(order)[0]]
        assert inserted.count(False) == 1 and len(basis) == k
        got, expect = basis.pivot_rows(), oracle_pivot_rows(f, order)
        assert normalized(f, got) == expect
        if f.char:      # F_p pivot rows are normalized and fully reduced
            assert [row for _, row in got] == expect
    assert f.rank(pivots + [probe]) == k


@pytest.mark.parametrize("f", ECHELON_FIELDS, ids=ECHELON_IDS)
def test_echelon_restores_a_refused_candidate(f):
    # a candidate whose first vector is independent and whose second is not
    # is refused, and the basis is back to what it was, still usable
    rng = rng_for(f"kernel-echelon-restore-{f.char}")
    for _ in range(6):
        ncols = rng.randint(3, 7)
        held = deficient(rng, f, 4, ncols, rng.randint(1, ncols - 2))
        basis = f.echelon(ncols, ncols)
        for row in f.lift(held)[0]:
            basis.insert(row)
        before = basis.pivot_rows()
        fresh = rand_rows(rng, f, 1, ncols)[0]
        while f.rank(held + [fresh]) == len(before):
            fresh = rand_rows(rng, f, 1, ncols)[0]
        both = oracle_matmul(f, [[f.one, f.from_int(2)]], [fresh, held[0]])[0]
        saved = basis.save()
        assert [basis.insert(row) for row in f.lift([fresh, both])[0]] == [True, False]
        basis.restore(saved)
        assert basis.pivot_rows() == before
        assert basis.insert(f.lift([both])[0][0])
        assert normalized(f, basis.pivot_rows()) == oracle_pivot_rows(f, held + [both])


@pytest.mark.parametrize("f", ECHELON_FIELDS, ids=ECHELON_IDS)
def test_echelon_shift_matches_rref(f):
    # shift(n): rows pivoting left of n lose their last n columns, the rest
    # their first n, and the result is the RREF of those rows
    rng = rng_for(f"kernel-echelon-shift-{f.char}")
    for _ in range(12):
        n, levels = rng.randint(1, 3), rng.randint(2, 4)
        rows = rand_rows(rng, f, rng.randint(1, 6), n * levels, big=True)
        basis = f.echelon(n * levels, len(rows))
        for row in f.lift(rows)[0]:
            basis.insert(row)
        for level in range(levels, 1, -1):
            expect = oracle_pivot_rows(f, rows)
            assert normalized(f, basis.pivot_rows()) == expect
            rows = [row[:-n] if any(row[:n]) else row[n:] for row in expect]
            basis.shift(n)
        assert normalized(f, basis.pivot_rows()) == oracle_pivot_rows(f, rows)


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_expand_matches_oracle(f):
    rng = rng_for(f"kernel-expand-{f.char}")
    for _ in range(10):
        width = rng.randint(1, 5)
        coeffs = rand_rows(rng, f, rng.randint(1, 7), width, big=True)
        d = rng.randint(1, 3)
        q = [elem(rng, f) for _ in range(d)] + [f.one]
        count = rng.randint(1, 5)
        assert expand_lowered(f, coeffs, [(q, count)]) == [
            oracle_expand(f, coeffs, q, count)]
    # top < d - 1: fewer coefficients than the divisor's degree, from the
    # start (one or two of them) or after one division (five of them)
    q = [f.from_int(2), f.zero, f.from_int(-1), f.one]
    if f == QQ:
        q[0] = QQ.fraction(2, 3)
    for ncoeffs in (1, 2, 5):
        coeffs = rand_rows(rng, f, ncoeffs, 3, big=True)
        assert expand_lowered(f, coeffs, [(q, 3)]) == [oracle_expand(f, coeffs, q, 3)]


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_expand_many_divisors_matches_oracle(f):
    # one product for several divisors: linear and quadratic ones with
    # different denominators over QQ, a divisor given twice, count 1,
    # enough divisions that the quotient runs short, and a constant divisor,
    # whose digits have no coefficients
    rng = rng_for(f"kernel-expand-many-{f.char}")
    for _ in range(6):
        coeffs = rand_rows(rng, f, rng.randint(1, 8), rng.randint(1, 4), big=True)
        lin = [elem(rng, f, big=True), f.one]
        quad = [elem(rng, f), elem(rng, f), f.one]
        divisors = [(lin, rng.randint(1, 4)), (quad, rng.randint(1, 5)),
                    ([elem(rng, f), f.one], 1), (lin, rng.randint(1, 3)),
                    ([elem(rng, f) for _ in range(3)] + [f.one], 1), ([f.one], 2)]
        got = expand_lowered(f, coeffs, divisors)
        assert got == [oracle_expand(f, coeffs, q, count) for q, count in divisors]
    assert expand_lowered(f, [[f.one]], []) == []


def check_digit_rows(f, q, count, scales):
    """``_digit_rows`` against the identity division of
    ``division_rows_oracle``: the oracle's integers and denominators
    wherever it has rows, zero rows over 1 past the polynomial's degree.
    Returns (rows, denominators, whether the quotient ran short)."""
    d = len(q) - 1
    rows, dens = f._digit_rows(q, count, scales)
    want, want_dens, live = division_rows_oracle(f, q, count, scales)
    assert all(x.denominator == 1 for row in want for x in row)
    found = iter(zip([[x.numerator for x in row] for row in want], want_dens))
    zero = ([0] * len(scales), 1)
    assert list(zip(rows, dens)) == [next(found) if j < k else zero
                                     for k in live for j in range(d)]
    return rows, dens, live[-1] < d


def division_cases(rng, f, coeff, scale):
    """(q, count, scales): divisors of degree 1 to 3, count the degree or
    two more, and N + 1 coefficients so that the last division gets d rows,
    one or none (the quotient ran short), or a random number."""
    for d in (1, 2, 3):
        for count in (d, d + 2):
            for size in (count * d, (count - 1) * d + 1, (count - 1) * d,
                         rng.randint(1, 12)):
                if size >= 1:
                    yield ([coeff() for _ in range(d)] + [f.one], count,
                           [scale() for _ in range(size)])


@pytest.mark.parametrize("p", [2, 7, 2**61 - 1])
def test_prime_division_rows_match_the_list_algorithm(p):
    # the digit recurrence of expand against the identity division on
    # lists, one scalar operation at a time
    f = PrimeField(p)
    rng = rng_for(f"kernel-division-rows-{p}")
    short = 0
    for q, count, scales in division_cases(rng, f, lambda: rng.randrange(p),
                                           lambda: rng.randrange(1, p)):
        q[rng.randrange(len(q) - 1)] = p - 1
        rows, dens, ran_short = check_digit_rows(f, q, count, scales)
        short += ran_short
        assert dens == [1] * len(rows)
        assert all(0 <= x < p for row in rows for x in row)
    assert short >= 5


def test_rational_digit_rows_match_the_list_algorithm():
    # over QQ with non-integral divisors (s > 1) and scales other than 1:
    # numerators and denominators exactly as the identity division in the
    # x = y/s transform gives them
    rng = rng_for("kernel-rational-digit-rows")
    short = 0
    for q, count, scales in division_cases(
            rng, QQ, lambda: QQ.fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 10])),
            lambda: rng.randint(1, 60)):
        q[rng.randrange(len(q) - 1)] = QQ.fraction(rng.choice([-1, 1]),
                                                    rng.choice([2, 3, 5, 12]))
        assert math.lcm(*(c.denominator for c in q)) > 1
        short += check_digit_rows(QQ, q, count, scales)[2]
    assert short >= 5


@pytest.mark.parametrize("p", [2, 7, 2**31 - 1, 2**61 - 1])
def test_prime_kernels_return_residues(p):
    # every F_p kernel takes residues in [0, p) and returns them:
    # int_matmul (packed and dot), int_scale, matrix Horner (comatrix,
    # Faddeev where p > n, and Q(A)) and expand
    f = PrimeField(p)
    rng = rng_for(f"kernel-residues-{p}")

    def residues(rows):
        return all(0 <= x < p for row in rows for x in row)
    top = [[p - 1] * 6 for _ in range(6)]
    a = top + [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
    assert residues(f.int_matmul(a, top)) and residues(f.int_matmul(a, [[p - 1]] * 6))
    assert residues(f.int_scale(a, p - 1))
    m = Matrix(f, [[rng.randrange(p) for _ in range(5)] for _ in range(5)])
    m.data[0] = [p - 1] * 5
    cd = char_data(m)
    mats = [c.lifted()[0] for c in cd.b.coeffs]
    q = Poly(f, [p - 1, rng.randrange(p), 1])
    mats.append(poly_at_matrix(q, m).lifted()[0])
    assert all(map(residues, mats))
    rems = f.expand([sum(rows, []) for rows in mats[:-1]], [1] * len(cd.b.coeffs),
                    [(q.coeffs, 2), ([p - 1, 1], 3)])
    assert all(residues([row]) for per in rems for rem in per for row, _ in rem)


def test_taylor_shifts_at_non_integer_point():
    rng = rng_for("kernel-taylor-3/2")
    a = QQ.fraction(-3, 2)
    for _ in range(5):
        mp = MatPoly(QQ, [Matrix(QQ, rand_rows(rng, QQ, 3, 3, big=True))
                          for _ in range(6)])
        shifts, = horner_shift(mp, [(a, 4)])
        # per-op Horner, one shift at a time
        cur = mp.coeffs
        for got in shifts:
            carry = cur[-1]
            quot = []
            for k in range(len(cur) - 2, -1, -1):
                quot.append(carry)
                carry = mat_add(cur[k], mat_scale(carry, a))
            assert got == carry
            cur = quot[::-1]


@pytest.mark.parametrize("f", FIELDS, ids=IDS)
def test_lift_lower_round_trip(f):
    rng = rng_for(f"kernel-lift-{f.char}")
    rows = rand_rows(rng, f, 4, 5, big=True)
    ints, den = f.lift(rows)
    assert all(isinstance(x, int) for row in ints for x in row)
    assert f.lower(ints, den) == rows


def test_prime_field_delayed_reduction_big_intermediates():
    # with p = 2^61 - 1 every product is ~122 bits before the one reduction
    f = PrimeField(2**61 - 1)
    rng = random.Random(7)
    a = [[rng.randrange(f.p) for _ in range(8)] for _ in range(8)]
    b = [[rng.randrange(f.p) for _ in range(8)] for _ in range(8)]
    got = f.matmul(a, b)
    assert got == oracle_matmul(f, a, b)
    assert all(0 <= x < f.p for row in got for x in row)


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


# (slot bits, k, max a, max b): the dot bound k * max a * max b is 2^bits - 1
# (the widest value a slot of that width holds) or 2^bits (one too many)
BOUNDARIES = [
    (8, 3, 5, 17), (8, 4, 8, 8),
    (16, 3, 5, 17 * 257), (16, 4, 2**7, 2**7),
    (32, 15, 17 * 257, 65537), (32, 4, 2**15, 2**15),
    (64, 15, 17 * 257 * 641, 65537 * 6700417), (64, 16, 2**30, 2**30),
]


@pytest.mark.parametrize("bits, k, hi_a, hi_b", BOUNDARIES)
def test_prime_matmul_at_slot_boundaries(bits, k, hi_a, hi_b):
    bound = k * hi_a * hi_b
    size = _slot_bytes(bound)
    if bound < 2**bits:
        assert size * 8 == bits
    else:
        # one past 8 bytes is a 9-byte slot, no longer a dot product
        assert size * 8 == (2 * bits if bits < 64 else 72)
    # the product sizes its slots from p > hi_b, not from these entries;
    # test_matmul_at_slot_boundaries puts k*(p - 1)^2 at the slot edges
    f = PrimeField(next_prime(hi_b + 1))
    rng = rng_for(f"kernel-slots-{bits}-{bound}")
    # row 0 of a and column 0 of b reach k * hi_a * hi_b exactly
    a = [[hi_a] * k] + [[rng.randint(0, hi_a) for _ in range(k)] for _ in range(2)]
    b = [[hi_b] + [rng.randint(0, hi_b) for _ in range(3)] for _ in range(k)]
    assert f.int_matmul(a, b) == oracle_matmul(f, a, b)


def spy_paths(monkeypatch):
    """Record which path (packed or dot) the product kernel takes."""
    taken = []
    for owner, path in ((fields._PackedOperator, "_packed"), (fields, "_dot")):
        orig = getattr(owner, path)

        def spy(*args, orig=orig, path=path):
            taken.append(path)
            return orig(*args)
        monkeypatch.setattr(owner, path, spy)
    return taken


def largest_divisor(bound, limit=40):
    return next(k for k in range(limit, 0, -1) if bound % k == 0)


# a QQ slot of s bytes holds |x| < 2^(8s - 1) (biased by half its range),
# an F_p slot x < 2^(8s)
SLOT_FIELDS = [QQ, PrimeField(7), PrimeField(2**61 - 1)]
SLOT_IDS = ["QQ", "GF7", "GF(2^61-1)"]


def prime_at_slot_edge(size, k, over):
    """The largest prime p with k*(p - 1)^2 below 2^(8*size), the bound a
    slot of ``size`` bytes holds, or with ``over`` the smallest above it."""
    p = math.isqrt((2 ** (8 * size) - 1) // k) + 1
    if over:
        return next_prime(p + 1)
    while not is_prime(p):
        p -= 1
    return p


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
@pytest.mark.parametrize("size", [1, 2, 4, 8, 12])
@pytest.mark.parametrize("over", [False, True], ids=["fits", "one-over"])
def test_matmul_at_slot_boundaries(f, size, over, monkeypatch):
    # the dot bound is the largest value a slot of ``size`` bytes holds, or
    # just past it, and row 0 of the product reaches it.  Over QQ it is
    # k * max|a| * max|b|, exactly at the edge (row 1 reaches its
    # negative).  Over F_p it is k*(p - 1)^2 whatever the entries, so each
    # case takes the prime nearest the edge on its side, at k = 5 terms:
    # GF(7) itself fits one byte, and a 12-byte slot is covered.
    wider = {1: 2, 2: 4, 4: 8, 8: 9, 12: 13}[size]
    if f.char:
        k = 5
        f = PrimeField(prime_at_slot_edge(size, k, over))
        hi = f.p - 1
        bound = k * hi * hi
        assert (bound >= 2 ** (8 * size)) == over
        assert _slot_bytes(bound) == (wider if over else size)
        rng = rng_for(f"kernel-slots-{f.p}")
        a = [[hi] * k] + [[rng.randrange(f.p) for _ in range(k)] for _ in range(2)]
        b = [[hi] + [rng.randrange(f.p) for _ in range(3)] for _ in range(k)]
    else:
        bound = 2 ** (8 * size - 1) - 1 + over
        k = largest_divisor(bound)
        hi = bound // k
        assert _slot_bytes(bound << 1) == (wider if over else size)
        rng = rng_for(f"kernel-slots-0-{size}-{over}")
        a = [[1] * k, [-1] * k, [rng.randint(-1, 1) for _ in range(k)]]
        b = [[hi] + [rng.randint(-hi, hi) for _ in range(3)] for _ in range(k)]
    taken = spy_paths(monkeypatch)
    got = f.int_matmul(a, b)
    assert taken == ["_packed"]
    assert got == oracle_matmul(f, a, b)
    assert got[0][0] == bound % (f.p if f.char else bound + 1)


def signed_cases(rng, f):
    """(name, a, b) products with all-negative, mixed-sign and zero
    factors (the largest residues stand in for negatives over F_p), and
    with one column."""
    if f.char:
        def neg():
            return f.p - 1 - rng.randrange(min(9, f.p))

        def mixed():
            return rng.randrange(f.p)
    else:
        def neg():
            return -rng.randint(1, 2**70)

        def mixed():
            return rng.randint(-2**70, 2**70)
    for k in (1, 5):
        yield "negative", [[neg() for _ in range(k)] for _ in range(4)], [
            [neg() for _ in range(6)] for _ in range(k)]
        yield "mixed", [[mixed() for _ in range(k)] for _ in range(4)], [
            [mixed() for _ in range(6)] for _ in range(k)]
        yield "negative times mixed", [[neg() for _ in range(k)] for _ in range(3)], [
            [mixed() for _ in range(5)] for _ in range(k)]
        yield "zero left", [[0] * k for _ in range(3)], [[mixed() for _ in range(4)]
                                                       for _ in range(k)]
        yield "zero right", [[mixed() for _ in range(k)] for _ in range(3)], [
            [0] * 4 for _ in range(k)]
        yield "one column", [[mixed() for _ in range(k)] for _ in range(4)], [
            [neg()] for _ in range(k)]


@pytest.mark.parametrize("f", SLOT_FIELDS, ids=SLOT_IDS)
def test_matmul_signs_zeros_and_one_column(f):
    rng = rng_for(f"kernel-signs-{f.char}")
    for name, a, b in signed_cases(rng, f):
        assert f.int_matmul(a, b) == oracle_matmul(f, a, b), name


@pytest.mark.parametrize("f", SLOT_FIELDS, ids=SLOT_IDS)
def test_matmul_both_sides_of_the_dot_crossover(f, monkeypatch):
    # k terms: slots up to max(8, 3 * k) bytes are packed, wider ones take
    # a dot product per entry.  Over QQ, at k = 4, entries up to 2^46 a
    # side give 12-byte slots, up to 2^47 13-byte ones.  Over F_p the slot
    # holds k*(p - 1)^2 whatever the entries: at k = 4, p below 2^47 fits
    # 12 bytes and p above it does not; GF(7) packs at every k, and
    # GF(2^61 - 1) needs 16 bytes, packed from k = 6 on.
    rng = rng_for(f"kernel-crossover-{f.char}")
    if not f.char:
        cases = [(f, 4, 2 ** bits, path)
                 for bits, path in ((46, "_packed"), (47, "_dot"), (200, "_dot"))]
    elif f.p == 7:
        cases = [(f, 4, 6, "_packed"), (f, 64, 6, "_packed")] + [
            (PrimeField(p), 4, p - 1, path)
            for p, path in ((prime_at_slot_edge(12, 4, False), "_packed"),
                            (prime_at_slot_edge(12, 4, True), "_dot"))]
    else:
        cases = [(f, k, f.p - 1, path)
                 for k, path in ((4, "_dot"), (5, "_dot"), (6, "_packed"))]
    for field, k, hi, path in cases:
        lo = 0 if field.char else -hi
        a = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(5)]
        b = [[rng.randint(lo, hi) for _ in range(6)] for _ in range(k)]
        a[0][0] = b[0][0] = hi
        taken = spy_paths(monkeypatch)
        got = field.int_matmul(a, b)
        assert taken == [path], (field, k)
        monkeypatch.undo()
        assert got == oracle_matmul(field, a, b)


@pytest.mark.parametrize("k, packed", [(4, False), (5, False), (6, True)])
def test_prime_operator_takes_the_matmul_crossover(k, packed, monkeypatch):
    # int_operator crosses over to dot products where int_matmul does:
    # over GF(2^61 - 1) its slots hold (k + 1)*(p - 1)^2 with V given,
    # 16 bytes, past max(8, 3*k) at k = 4 and 5; the largest residues
    # reach that bound.  Packed, the operator packs once and the product
    # once.
    f = PrimeField(2**61 - 1)
    rng = rng_for(f"kernel-operator-crossover-{k}")
    top = f.p - 1
    m = [[top] * k] + [[rng.randrange(f.p) for _ in range(k)] for _ in range(k - 1)]
    xs = [[top] * k] + [[rng.randrange(f.p) for _ in range(k)] for _ in range(2)]
    vs = [[top] * k] + [[rng.randrange(f.p) for _ in range(k)] for _ in range(2)]
    packs = spy_packs(monkeypatch)
    op = f.int_operator(m, vs)
    for c in (top, 0):
        want = [[y % f.p for y in col] for col in operator_oracle(m, xs, c, vs)]
        assert op(xs, c) == want
    # M times the columns as one product, the same path
    assert f.int_matmul(m, [list(row) for row in zip(*xs)]) == [
        list(row) for row in zip(*want)]
    assert packs == ([16, 16] if packed else [])


def test_matmul_packs_the_factor_with_larger_entries(monkeypatch):
    # big-by-small products run as (B^T A^T)^T, so the big entries are the
    # packed ones; the result is the same product
    rng = rng_for("kernel-flip")
    a = [[rng.randint(-2**60, 2**60) for _ in range(6)] for _ in range(5)]
    b = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(6)]
    shapes = []
    orig = fields._PackedOperator._packed

    def packed(self, xs, c, size):
        shapes.append((len(xs), len(self.rows), len(self.rows[0])))
        return orig(self, xs, c, size)
    monkeypatch.setattr(fields._PackedOperator, "_packed", packed)
    assert QQ.int_matmul(a, b) == oracle_matmul(QQ, a, b)
    assert shapes == [(4, 6, 5)]


@pytest.mark.parametrize("p", [2, 11, 251, 65521, 2**31 - 1, 2**61 - 1])
def test_prime_matmul_unreduced_inputs(p):
    # inputs are residues in [0, p), and so is the product: the largest
    # residue p - 1 in both factors reaches the slot bound k*(p - 1)^2,
    # and nothing comes back unreduced
    f = PrimeField(p)
    rng = rng_for(f"kernel-unreduced-{p}")
    for _ in range(10):
        k, w = rng.randint(1, 8), rng.randint(2, 8)
        a = [[rng.randrange(p) for _ in range(k)] for _ in range(rng.randint(1, 5))]
        b = [[rng.randrange(p) for _ in range(w)] for _ in range(k)]
        a[0] = [p - 1] * k
        for row in b:
            row[0] = p - 1
        got = f.int_matmul(a, b)
        assert got == oracle_matmul(f, a, b)
        assert got[0][0] == k * (p - 1) ** 2 % p
        assert all(0 <= x < p for row in got for x in row)


@pytest.mark.parametrize("p", [7, 2**61 - 1])
def test_prime_matmul_narrow_shapes(p):
    f = PrimeField(p)
    rng = rng_for(f"kernel-narrow-{p}")
    a = rand_rows(rng, f, 4, 5)
    v = [elem(rng, f) for _ in range(5)]
    got = mul_vector(Matrix(f, a), v)
    assert got == [row[0] for row in oracle_matmul(f, a, [[x] for x in v])]
    assert f.int_matmul(a, [[] for _ in range(5)]) == [[] for _ in range(4)]
    assert f.int_matmul([[], []], []) == [[], []]
    assert f.int_matmul([], rand_rows(rng, f, 3, 2)) == []


@pytest.mark.parametrize("f", [QQ, PrimeField(101), PrimeField(5)],
                         ids=["QQ", "GF101", "GF5"])
def test_counting_field_counts_char_data_and_q_adic(f):
    # GF(5) has characteristic <= n, so it takes the Hessenberg route
    q = Poly.from_ints(f, [-2, 0, 1])
    a = cycle_block_matrix(q, 3, "rational", "upper")
    plain = char_data(a)
    totals = []
    for _ in range(2):
        cf = CountingField(f)
        counted = char_data(Matrix(cf, a.data))
        assert counted.p.coeffs == plain.p.coeffs
        assert counted.b.coeffs == plain.b.coeffs
        charpoly_ops = cf.total
        cf = CountingField(f)
        b = MatPoly(cf, [Matrix(cf, m.data) for m in plain.b.coeffs])
        q_adic_blocks(Matrix(cf, a.data), b, Poly(cf, q.coeffs), 3)
        totals.append((charpoly_ops, cf.total))
    assert totals[0] == totals[1]
    assert totals[0][0] > 0 and totals[0][1] > 0


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_reduced_stack_matches_rref(f):
    # collect_cycles keeps integer chain rows; with every candidate refused
    # it runs every level without raising, and each level's candidates,
    # lowered over their pivots, must be the top-block rows of the RREF of a
    # field-element replay of shift, drop and cut.  Digits of d = 2
    # coefficients, the left and right halves of the blocks, hold the same
    # chains and give the same candidates.
    rng = rng_for(f"kernel-stack-{f.char}")
    for _ in range(12):
        n, width, levels = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        blocks = [Matrix(f, rand_rows(rng, f, n, width, big=True)
                         if rng.random() < 0.5 else
                         deficient(rng, f, n, width, rng.randint(0, min(n, width))))
                  for _ in range(levels)]
        for b in blocks:                       # a zero chain, often not last
            for row in b.data:
                row[0] = f.zero
        seen = []

        def refuse(segs):
            # integer segments over the pivot, the first nonzero entry
            pivot = next(filter(None, segs[0]))
            seen.append(f.lower(segs, pivot))
            return False

        assert collect_cycles([[b] for b in blocks], 1, refuse) is None
        if width % 2 == 0:
            whole, seen = seen, []
            half = width // 2
            collect_cycles([[Matrix(f, [row[:half] for row in b.data]),
                             Matrix(f, [row[half:] for row in b.data])]
                            for b in blocks], 1, refuse)
            assert seen == whole
        expect = []
        chains = (sum((b.column(j) for b in blocks), []) for j in range(width))
        held = [c for c in chains if any(c)]
        while held:
            reduced, _, pivots = rref(Matrix(f, held))
            top = [r for r, c in pivots if c < n]
            level = len(held[0]) // n
            expect += [[reduced.data[r][t * n:(t + 1) * n] for t in range(level)]
                       for r in top]
            # shift the top chains down (retired at the last level), drop
            # the zero chains, cut the top segment
            shifted = [[f.zero] * n + row[:-n] if i in top else row
                       for i, row in enumerate(reduced.data)]
            kept = [row for row in shifted if any(row)]
            assert not any(any(row[:n]) for row in kept)
            held = [row[n:] for row in kept]
        assert seen == expect


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_counting_field_counts_cycle_collection(f):
    # linear factors (Taylor blocks) and a quadratic one (Q-adic blocks)
    # both run collect_cycles, and with it every kernel, on the counting
    # field; GF(7) at n = 8 takes the Hessenberg route
    quad = Poly.from_ints(f, [1, 0, 1] if f.char else [-2, 0, 1])
    pieces = [(quad, [2]), (Poly.x_minus(f, f.from_int(2)), [2, 1]),
              (Poly.x_minus(f, f.from_int(-1)), [1])]
    a = conjugate_random(rng_for(f"kernel-count-cycles-{f.char}"),
                         normal_form(f, pieces))
    plain = rational_jordan(a, FactoredCharPoly(
        [(q, sum(ls)) for q, ls in pieces], f))
    counts = []
    for _ in range(2):
        cf = CountingField(f)
        a_c = Matrix(cf, a.data)
        cd = char_data(a_c)
        before = cf.total
        dec = rational_jordan(a_c, FactoredCharPoly(
            [(Poly(cf, q.coeffs), sum(ls)) for q, ls in pieces], cf), charpoly=cd.p)
        counts.append(cf.total - before)
        assert dec.p.data == plain.p.data and dec.j.data == plain.j.data
    assert counts[0] == counts[1] > 0


def test_b_stays_in_the_integer_model_through_a_solve(monkeypatch):
    # B (n coefficients of n^2 entries), its Taylor and Q-adic coefficients
    # and the stacked chains are never lowered to field elements and lifted
    # back: what a solve lowers is the chains it reads, P's certificate
    # products and P's coefficients, O(n^2) entries in all
    lowered = []
    for cls in (Rationals, PrimeField):
        def lower(self, rows, den, orig=cls.lower):
            lowered.append(sum(map(len, rows)))
            return orig(self, rows, den)
        monkeypatch.setattr(cls, "lower", lower)
    gf7 = PrimeField(7)
    split_pieces = [(Poly.x_minus(QQ, QQ.fraction(1, 2)), [3, 2]),
                    (Poly.x_minus(QQ, QQ.fraction(-2, 3)), [2, 1]),
                    (Poly.x_minus(QQ, QQ.from_int(3)), [2, 1, 1])]
    rational_pieces = [(Poly.from_ints(gf7, [1, 0, 1]), [2, 1]),
                       (Poly.x_minus(gf7, gf7.from_int(3)), [3, 1]),
                       (Poly.x_minus(gf7, gf7.from_int(5)), [2])]
    for f, pieces, solve in ((QQ, split_pieces, split_jordan),
                             (gf7, rational_pieces, rational_jordan)):
        a = conjugate_random(rng_for(f"kernel-no-round-trip-{f.char}"),
                             normal_form(f, pieces))
        hint = [(q, sum(ls)) for q, ls in pieces]
        factors = (factor_charpoly(char_data(a).p) if f.char == 0
                   else FactoredCharPoly(hint, f))
        lowered.clear()
        solve(a, factors)
        assert sum(lowered) <= 6 * a.rows ** 2, (f, sum(lowered) / a.rows ** 2)


@pytest.mark.parametrize("f", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_extraction_lowers_only_the_accepted_cycles(f, monkeypatch):
    # candidates, their socle groups and the powers of A stay in the
    # integer model: inside extract_q_cycles ``lower`` sees the vectors of
    # the accepted cycles once each, k*d*n entries for a cycle of length k,
    # however many candidates were refused on the way
    quad = Poly.from_ints(f, [1, 0, 1] if f.char else [-2, 0, 1])
    pieces = [(quad, [2, 1]), (Poly.x_minus(f, f.from_int(3)), [2, 1, 1])]
    a = conjugate_random(rng_for(f"kernel-lower-accepted-{f.char}"),
                         normal_form(f, pieces))
    b = char_data(a).b
    lowered = []
    for cls in (Rationals, PrimeField):
        def lower(self, rows, den, orig=cls.lower):
            lowered.append(sum(map(len, rows)))
            return orig(self, rows, den)
        monkeypatch.setattr(cls, "lower", lower)
    offered = []

    def collect(blocks, total, accept, orig=collect_cycles):
        def counted(segs):
            offered.append(accept(segs))
            return offered[-1]
        return orig(blocks, total, counted)
    monkeypatch.setattr(jordan_linear, "collect_cycles", collect)
    for q, ls in pieces:
        c_blocks = q_adic_blocks(a, b, q, sum(ls))
        lowered.clear()
        offered.clear()
        cycles = extract_q_cycles(a, q, sum(ls), c_blocks)
        assert sorted(map(len, cycles)) == sorted(ls)
        assert not all(offered)                # some candidates were refused
        assert sum(lowered) == sum(ls) * q.degree * a.rows

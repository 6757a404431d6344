import pytest

from conftest import (block_multiset, conjugate_random, horner_eval,
                      mat_inverse, matpoly_reconstruct_shifts, mul_vector,
                      rng_for, random_unimodular, transposed)
from jnf.charpoly import char_data, hessenberg_charpoly
from jnf.errors import InvalidHintError, NeedsFactorizationError
from jnf.factor import FactoredCharPoly, factor_charpoly
from jnf import jordan_linear
from jnf.fields import QQ, PrimeField
from jnf.jordan_linear import extract_cycles, taylor_blocks
from jnf.jordan_rational import assemble_pseudo_rational, rational_jordan, split_jordan
from jnf.matrix import Matrix, mat_mul, rank
from jnf.poly import Poly


def test_taylor_blocks_reconstruct(fixture_a):
    cd = char_data(fixture_a)
    lam = QQ.from_int(2)
    blocks = taylor_blocks(cd.b, lam, 3)
    assert blocks[0] == horner_eval(cd.b, lam)
    assert matpoly_reconstruct_shifts(blocks, lam, QQ) == cd.b


def test_fixture_a_cycle_structure(fixture_a):
    cd = char_data(fixture_a)
    cycles = extract_cycles(fixture_a, QQ.from_int(2), 2,
                            taylor_blocks(transposed(cd.b), QQ.from_int(2), 2))
    assert sorted(len(cy) for cy in cycles) == [2]
    # v_0 is an eigenvector, A*v_1 = 2*v_1 + v_0
    two = QQ.from_int(2)
    (v0,), (v1,) = cycles[0]
    assert mul_vector(fixture_a, v0) == [QQ.mul(two, x) for x in v0]
    assert mul_vector(fixture_a, v1) == [QQ.add(QQ.mul(two, x), y)
                                      for x, y in zip(v1, v0)]


def test_fixture_a_split_form(fixture_a):
    dec = split_jordan(fixture_a, factor_charpoly(char_data(fixture_a).p))
    assert dec.form == "split"
    # J = diag(J_2(2), J_1(1)) with subdiagonal 1s in the default orientation
    assert dec.j == Matrix.from_ints(QQ, [[2, 0, 0], [1, 2, 0], [0, 0, 1]])
    assert mat_mul(fixture_a, dec.p) == mat_mul(dec.p, dec.j)
    assert rank(dec.p) == 3


def test_fixture_a_upper_orientation(fixture_a):
    dec = split_jordan(fixture_a, factor_charpoly(char_data(fixture_a).p),
                       orientation="upper")
    assert dec.j == Matrix.from_ints(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 1]])
    assert mat_mul(fixture_a, dec.p) == mat_mul(dec.p, dec.j)


def test_fixture_b_cycle_lengths(fixture_b):
    dec = split_jordan(fixture_b, factor_charpoly(char_data(fixture_b).p))
    assert sorted(b.cycle_length for b in dec.blocks) == [1, 2]
    assert all(tuple(b.factor.coeffs) == (QQ.from_int(-1), QQ.one)
               for b in dec.blocks)
    assert mat_mul(fixture_b, dec.p) == mat_mul(dec.p, dec.j)


def test_derogatory_matrix():
    # diag(2, 2) has two length-1 cycles for the same eigenvalue
    a = Matrix.from_ints(QQ, [[2, 0], [0, 2]])
    dec = split_jordan(a, factor_charpoly(char_data(a).p))
    assert sorted(b.cycle_length for b in dec.blocks) == [1, 1]
    assert dec.j == a


def test_accept_refuses_a_chain_overlapping_an_earlier_cycle(monkeypatch):
    # J_2(2) + J_1(2): after the length-2 cycle (v_0, v_1) is taken, its
    # chain moves one level down and is offered again with top segment v_0,
    # inside the cycle taken; acceptance refuses it on the socle alone
    a = conjugate_random(rng_for("accept-overlap"), Matrix.from_ints(
        QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 2]]))
    two = QQ.from_int(2)
    offered = []

    def collect(blocks, total, accept, orig=jordan_linear.collect_cycles):
        def recorded(segs):
            offered.append((segs, accept(segs)))
            return offered[-1][1]
        return orig(blocks, total, recorded)
    monkeypatch.setattr(jordan_linear, "collect_cycles", collect)
    cycles = extract_cycles(a, two, 3, taylor_blocks(transposed(char_data(a).b), two, 3))
    assert sorted(map(len, cycles)) == [1, 2]
    (v0,), _ = next(cy for cy in cycles if len(cy) == 2)
    refused = [segs for segs, ok in offered if not ok]
    assert refused
    assert all(rank(Matrix(QQ, [v0, segs[0]])) == 1 for segs in refused)


def test_single_full_cycle():
    # J_3(5) conjugated: one cycle of length 3
    rng = rng_for("full-cycle")
    j = Matrix.from_ints(QQ, [[5, 1, 0], [0, 5, 1], [0, 0, 5]])
    a = conjugate_random(rng, j)
    dec = split_jordan(a, factor_charpoly(char_data(a).p))
    assert [b.cycle_length for b in dec.blocks] == [3]


def test_nilpotent():
    a = Matrix.from_ints(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    dec = split_jordan(a, factor_charpoly(char_data(a).p))
    assert [b.cycle_length for b in dec.blocks] == [3]
    assert dec.j == a


def test_non_split_factor_rejected(fixture_m6):
    cd = char_data(fixture_m6)
    with pytest.raises(NeedsFactorizationError):
        split_jordan(fixture_m6, factor_charpoly(cd.p), charpoly=cd.p)


def test_block_multiset_recovered_random():
    rng = rng_for("split-random")
    for _ in range(25):
        n = rng.randint(2, 6)
        # build a ground-truth Jordan matrix from a few eigenvalues
        lams = rng.sample(range(-3, 4), rng.randint(1, min(3, n)))
        truth = {}
        j = Matrix.zeros(QQ, n, n)
        pos = 0
        for i, lam in enumerate(lams):
            remaining = n - pos - (len(lams) - 1 - i)
            k = rng.randint(1, remaining) if i < len(lams) - 1 else remaining
            key = ((QQ.from_int(-lam), QQ.one), k)
            truth[key] = truth.get(key, 0) + 1
            for t in range(k):
                j.data[pos + t][pos + t] = QQ.from_int(lam)
                if t:
                    j.data[pos + t][pos + t - 1] = QQ.one
            pos += k
        a = conjugate_random(rng, j)
        dec = split_jordan(a, factor_charpoly(char_data(a).p))
        assert block_multiset(dec) == truth
        assert mat_mul(a, dec.p) == mat_mul(dec.p, dec.j)


def test_split_over_prime_field():
    f3 = PrimeField(3)
    # char 3 <= n, where Faddeev's division by k fails; charpoly (x-1)^2 (x-2)
    j = Matrix.from_ints(f3, [[1, 0, 0], [1, 1, 0], [0, 0, 2]])
    rng = rng_for("split-f3")
    u = random_unimodular(rng, f3, 3)
    a = mat_mul(mat_mul(u, j), mat_inverse(u))
    hint = [(Poly.from_ints(f3, [-1, 1]), 2), (Poly.from_ints(f3, [-2, 1]), 1)]
    dec = split_jordan(a, factor_charpoly(hessenberg_charpoly(a), hint=hint))
    assert sorted(b.cycle_length for b in dec.blocks) == [1, 2]
    assert mat_mul(a, dec.p) == mat_mul(dec.p, dec.j)


def test_split_checks_the_factorization():
    # P = (x - 2)^2 (x - 3); (x - 2)(x - 3)^2 has the right degree, and
    # reached the certificate as "A*P != P*J" (exit 5)
    a = Matrix.from_ints(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    x = [Poly.from_ints(QQ, [-r, 1]) for r in (2, 3)]
    with pytest.raises(InvalidHintError, match="does not reproduce"):
        split_jordan(a, FactoredCharPoly([(x[0], 1), (x[1], 2)], QQ))
    assert split_jordan(a, FactoredCharPoly([(x[0], 2), (x[1], 1)], QQ)).j.rows == 3


@pytest.mark.parametrize("driver", [split_jordan, assemble_pseudo_rational,
                                    rational_jordan])
def test_drivers_refuse_a_constant_factor(driver):
    # the constant 1 multiplies back to P, and the cycle stage failed on it
    a = Matrix.from_ints(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    factors = [(Poly.from_ints(QQ, [-2, 1]), 2), (Poly.from_ints(QQ, [-3, 1]), 1),
               (Poly.from_ints(QQ, [1]), 1)]
    with pytest.raises(InvalidHintError, match="'1 : 1' has degree 0"):
        driver(a, FactoredCharPoly(factors, QQ))


@pytest.mark.parametrize("driver, default, other", [
    (split_jordan, "lower", "upper"),
    (assemble_pseudo_rational, "upper", "lower"),
    (rational_jordan, "upper", "lower")])
def test_drivers_default_to_their_form_orientation(driver, default, other):
    # the Jordan block of 2 is where the two orientations differ
    a = Matrix.from_ints(QQ, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    fc = factor_charpoly(hessenberg_charpoly(a))
    got, named = driver(a, fc), driver(a, fc, orientation=default)
    assert (got.p, got.j, got.blocks) == (named.p, named.j, named.blocks)
    assert got.j != driver(a, fc, orientation=other).j

import sys
import time

import pytest

from conftest import (adjugate_oracle, charpoly_oracle, det_oracle,
                      horner_eval, identity, lambda_i_minus, make_fixture_m6,
                      mat_scale, mat_sub, matpoly_mul, poly_derivative,
                      rand_matrix, rng_for, trace)
from jnf import charpoly, jordan_rational
from jnf.charpoly import (char_data, comatrix_block, comatrix_from_charpoly,
                          faddeev, hessenberg_charpoly, hessenberg_reduce,
                          probe_block)
from jnf.cli import EXIT_OK, JobConfig, run
from jnf.errors import InternalConsistencyError, UnsupportedFieldError
from jnf.fields import QQ, CountingField, PrimeField, is_prime
from jnf.jordan_rational import BLOCK_COLUMNS
from jnf.matrix import MatPoly, Matrix, mat_mul, poly_at_matrix
from jnf.poly import Poly


def check_comatrix_identity(a, cd):
    """(lambda*I - A) * B(lambda) = P(lambda) * I, exactly."""
    f = a.field
    ident = identity(f, a.rows)
    lhs = matpoly_mul(lambda_i_minus(a), cd.b)
    rhs = MatPoly(f, [mat_scale(ident, c) for c in cd.p.coeffs])
    assert lhs == rhs


def test_faddeev_known_3x3(fixture_a):
    cd = faddeev(fixture_a)
    assert cd.p == Poly.from_ints(QQ, [-4, 8, -5, 1])
    assert cd.b.degree == 2
    assert cd.b.coeffs[2] == identity(QQ, 3)
    # B(lambda) = lambda^2 I + lambda (A - 5I) + (A^2 - 5A + 8I)
    assert cd.b.coeffs[1] == mat_sub(fixture_a,
                                   mat_scale(identity(QQ, 3), QQ.from_int(5)))
    assert cd.b.coeffs[0] == poly_at_matrix(Poly.from_ints(QQ, [8, -5, 1]), fixture_a)
    check_comatrix_identity(fixture_a, cd)


def test_faddeev_matches_cofactor_oracle():
    rng = rng_for("faddeev-oracle")
    for _ in range(15):
        a = rand_matrix(rng, QQ, rng.randint(1, 4))
        assert faddeev(a).p == charpoly_oracle(a)


def test_faddeev_m6_charpoly():
    cd = faddeev(make_fixture_m6())
    assert cd.p == Poly.from_ints(QQ, [16, -16, -12, 16, 0, -4, 1])
    check_comatrix_identity(make_fixture_m6(), cd)


def test_comatrix_evaluates_to_adjugate():
    # B(x0) = adj(x0*I - A) at any scalar x0
    rng = rng_for("comatrix-adjugate")
    for _ in range(8):
        a = rand_matrix(rng, QQ, 3)
        cd = faddeev(a)
        x0 = QQ.from_int(rng.randint(-6, 6))
        shifted = mat_sub(mat_scale(identity(QQ, 3), x0), a)
        assert horner_eval(cd.b, x0) == adjugate_oracle(shifted)


def test_trace_of_b_is_derivative():
    rng = rng_for("trace-derivative")
    for _ in range(10):
        a = rand_matrix(rng, QQ, rng.randint(1, 5))
        cd = faddeev(a)
        traces = [trace(m) for m in cd.b.coeffs]
        assert Poly(QQ, traces) == poly_derivative(cd.p)


def test_cayley_hamilton():
    rng = rng_for("cayley-hamilton")
    for _ in range(10):
        a = rand_matrix(rng, QQ, rng.randint(1, 5))
        assert poly_at_matrix(faddeev(a).p, a).is_zero()


def test_constant_term_is_signed_det():
    rng = rng_for("p0-det")
    for _ in range(10):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, QQ, n)
        p0 = faddeev(a).p.coeffs[0]
        expect = det_oracle(a) if n % 2 == 0 else QQ.neg(det_oracle(a))
        assert p0 == expect


def test_faddeev_rejects_small_characteristic():
    f3 = PrimeField(3)
    a = identity(f3, 3)
    with pytest.raises(UnsupportedFieldError):
        faddeev(a)


def test_hessenberg_reduce_is_similarity():
    rng = rng_for("hessenberg")
    for _ in range(10):
        a = rand_matrix(rng, QQ, rng.randint(2, 5))
        h = hessenberg_reduce(a)
        for i in range(h.rows):
            for j in range(i - 1):
                assert QQ.is_zero(h.data[i][j])
        assert charpoly_oracle(h) == charpoly_oracle(a)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7)])
def test_hessenberg_charpoly_matches_oracle(field):
    rng = rng_for(f"hessenberg-charpoly-{field.char}")
    for _ in range(12):
        a = rand_matrix(rng, field, rng.randint(1, 5))
        assert hessenberg_charpoly(a) == charpoly_oracle(a)


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("den", [1, 30, 2**20])
def test_qq_charpoly_from_several_images(bits, den, monkeypatch):
    # entries of ``bits`` bits over denominators dividing ``den``: the
    # coefficients of charpoly(d*A) outgrow one 80-bit prime
    rng = rng_for(f"qq-images-{bits}-{den}")
    images = []

    def image(a, orig=charpoly._charpoly_image):
        images.append(a.field)
        return orig(a)
    monkeypatch.setattr(charpoly, "_charpoly_image", image)
    for _ in range(3):
        n = rng.randint(3, 6)
        a = Matrix(QQ, [[QQ.fraction(rng.randint(-2**bits, 2**bits), rng.randint(1, den))
                         for _ in range(n)] for _ in range(n)])
        images.clear()
        assert hessenberg_charpoly(a) == faddeev(a).p
        assert len(images) >= 2 and len(set(images)) == len(images)


def sylvester_hadamard(k):
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


@pytest.mark.parametrize("scale", [1, 8])
def test_qq_charpoly_at_the_hadamard_bound(scale):
    # scale*H for the 16 x 16 Sylvester Hadamard matrix H, whose rows meet
    # Hadamard's inequality with equality: charpoly (x^2 - 16*scale^2)^8,
    # with det = 16^8 at scale 1 and det = 2^80, the bound itself, at 8
    h = sylvester_hadamard(4)
    a = Matrix.from_ints(QQ, [[scale * x for x in row] for row in h])
    p = hessenberg_charpoly(a)
    assert p == faddeev(a).p
    assert p.coeffs[0] == (16 * scale**2) ** 8


def test_qq_charpoly_crt_stops_past_twice_the_bound(monkeypatch):
    # 8*H has det 2^80, the bound B.  Images modulo the primes just above
    # 2^40 reach a product M in (B, 2B + 1] after two: stopping there would
    # read det as B - M < 0, so a third image is needed
    primes = []
    q = (1 << 40) + 1
    while len(primes) < 3:
        if is_prime(q):
            primes.append(q)
        q += 2
    assert (1 << 80) < primes[0] * primes[1] <= (1 << 81) + 1
    images = []

    def image(a, orig=charpoly._charpoly_image):
        images.append(a.field.p)
        return orig(a)
    monkeypatch.setattr(charpoly, "_charpoly_image", image)
    monkeypatch.setattr(charpoly, "_IMAGE_FIELDS", [PrimeField(q) for q in primes])
    a = Matrix.from_ints(QQ, [[8 * x for x in row] for row in sylvester_hadamard(4)])
    assert hessenberg_charpoly(a) == faddeev(a).p
    assert images == primes


def test_qq_charpoly_image_primes():
    # the image primes are the largest primes below 2^80, in order, with
    # none skipped; is_prime is a proof there, as 2^80 < 3.3e24
    rng = rng_for("qq-image-primes")
    a = Matrix.from_ints(QQ, [[rng.randint(-2**256, 2**256) for _ in range(4)]
                              for _ in range(4)])
    assert hessenberg_charpoly(a) == faddeev(a).p
    primes = [f.p for f in charpoly._IMAGE_FIELDS]
    assert len(primes) >= 5
    for top, q in zip([1 << 80] + primes, primes):
        assert is_prime(q) and q < top < 3 * 10**24
        assert not any(is_prime(x) for x in range(q + 2, top, 2))


def test_qq_charpoly_dense_random_24():
    # a dense 24 x 24 matrix with 4-bit entries: on Fractions, Hessenberg's
    # minor recurrence took about 8 s on such a matrix, the common
    # denominator of H growing to thousands of bits
    rng = rng_for("dense-24")
    a = rand_matrix(rng, QQ, 24, lo=-8, hi=7)
    start = time.perf_counter()
    p = hessenberg_charpoly(a)
    assert time.perf_counter() - start < 1.0
    assert p == faddeev(a).p


def test_methods_agree():
    rng = rng_for("method-agreement")
    for _ in range(10):
        a = rand_matrix(rng, QQ, rng.randint(1, 5))
        cd = faddeev(a)
        assert hessenberg_charpoly(a) == cd.p
        assert comatrix_from_charpoly(a, cd.p) == cd.b


def test_comatrix_rejects_wrong_poly():
    a = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    with pytest.raises(InternalConsistencyError):
        comatrix_from_charpoly(a, Poly.from_ints(QQ, [1, 1, 1]))
    with pytest.raises(ValueError):
        comatrix_from_charpoly(a, Poly.from_ints(QQ, [1, 1]))


@pytest.mark.parametrize("spec", ["q", "fp:3", "fp:101"])
def test_every_field_takes_one_route(spec, tmp_path, monkeypatch):
    # a solve gets P from Hessenberg and B*V from the probe blocks, over QQ
    # as over F_p, small or large characteristic: the full-B routes are
    # never called, and the block starts at BLOCK_COLUMNS columns and
    # doubles up to n for a scalar matrix, whose n cycles need V = I
    def refuse(*args):
        raise AssertionError("a full-B route ran in a solve")
    full_b = (charpoly.faddeev, charpoly.char_data, charpoly.comatrix_from_charpoly)
    for name, module in list(sys.modules.items()):
        if name == "jnf" or name.startswith("jnf."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in full_b):
                    monkeypatch.setattr(module, attr, refuse)
    widths = []

    def block(a, p, s, orig=jordan_rational.comatrix_block):
        widths.append(s)
        return orig(a, p, s)
    monkeypatch.setattr(jordan_rational, "comatrix_block", block)
    n = 2 * BLOCK_COLUMNS + 1
    path = tmp_path / "a.txt"
    path.write_text(f"{n} {n}\n" + "".join(
        " ".join("2" if i == j else "0" for j in range(n)) + "\n" for i in range(n)))
    hints = tmp_path / "a.hint"
    hints.write_text(f"{n} : -2 1\n")
    code, _ = run(JobConfig(input_path=str(path), field_spec=spec, form="split",
                            factors_path=str(hints)))
    assert code == EXIT_OK
    assert widths == [BLOCK_COLUMNS, 2 * BLOCK_COLUMNS, n]


def test_char_data_small_char_random():
    f2 = PrimeField(2)
    rng = rng_for("char-data-f2")
    for _ in range(10):
        a = rand_matrix(rng, f2, rng.randint(1, 4), lo=0, hi=1)
        cd = char_data(a)
        assert cd.p == charpoly_oracle(a)
        check_comatrix_identity(a, cd)


def test_char_data_gf11_2x2_unreduced_diagonal():
    # the next product sizes its slots from (p - 1)^2, so matrix Horner's
    # diagonal addition must reduce: left unreduced (entries up to 2p - 2),
    # it overflowed the slots on 2 of 200 such inputs
    f = PrimeField(11)
    rng = rng_for("char-data-gf11-2x2")
    for _ in range(200):
        a = rand_matrix(rng, f, 2, lo=0, hi=10)
        check_comatrix_identity(a, char_data(a))


@pytest.mark.parametrize("field", [PrimeField(11), PrimeField(101),
                                   PrimeField(2**61 - 1)])
def test_methods_agree_over_prime_fields(field):
    # p > n, so both routes apply: Faddeev against Hessenberg + matrix Horner
    rng = rng_for(f"method-agreement-{field.char}")
    for _ in range(10):
        a = rand_matrix(rng, field, rng.randint(1, 8), lo=0, hi=field.char - 1)
        cd = faddeev(a)
        p = hessenberg_charpoly(a)
        assert p == cd.p
        assert comatrix_from_charpoly(a, p) == cd.b
        check_comatrix_identity(a, cd)


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7), PrimeField(2**61 - 1)])
def test_comatrix_block_is_b_times_v(field):
    # the block comes as its columns, (B*V)^T with s x n coefficients:
    # (lambda*I - A)*B*V = P*V for the probe block V, and B*V is all of B
    # times V; at s = n, V = I and the block is B^T
    rng = rng_for(f"comatrix-block-{field.char}")
    for _ in range(8):
        n = rng.randint(1, 9)
        a = rand_matrix(rng, field, n, lo=0, hi=field.char - 1)
        p = hessenberg_charpoly(a)
        b = comatrix_from_charpoly(a, p)
        for s in sorted({1, min(3, n), n}):
            v = Matrix(field, zip(*probe_block(field, n, s)))
            bv_t = comatrix_block(a, p, s)
            assert (bv_t.rows, bv_t.cols) == (s, n)
            assert bv_t == MatPoly(field, [Matrix(field, zip(*mat_mul(m, v).data))
                                           for m in b.coeffs])
            bv = MatPoly(field, [Matrix(field, zip(*m.data)) for m in bv_t.coeffs])
            assert matpoly_mul(lambda_i_minus(a), bv) == MatPoly(
                field, [mat_scale(v, c) for c in p.coeffs])
        assert probe_block(field, n, n) == [list(row) for row in identity(field, n).data]
    with pytest.raises(InternalConsistencyError):
        comatrix_block(Matrix.from_ints(field, [[1, 1], [0, 1]]),
                       Poly.from_ints(field, [1, 1, 1]), 1)


def test_probe_block_is_fixed():
    # the same V on every platform and Python version, and the first s
    # columns of any wider block; over QQ the entries are the top 3 bits of
    # the same sequence
    f = PrimeField(2**61 - 1)
    assert probe_block(f, 2, 1) == [[1261238573, 2070216803]]
    assert probe_block(QQ, 2, 1) == [[1261238573 >> 28, 2070216803 >> 28]]
    for field, top in ((PrimeField(2), 2), (PrimeField(7), 7), (QQ, 8)):
        wide = probe_block(field, 12, 8)
        assert probe_block(field, 12, 4) == wide[:4]
        assert all(0 <= x < top for col in wide for x in col)


@pytest.mark.parametrize("den", [1, 30, 2**20])
def test_comatrix_block_over_qq_is_faddeev_b_times_v(den):
    # the block Horner in the integer model on d*A: coefficient by
    # coefficient Faddeev's B times the probe block, transposed, at 1,
    # BLOCK_COLUMNS and n columns, for entries over denominators that make
    # d large
    rng = rng_for(f"comatrix-block-qq-{den}")
    for _ in range(4):
        n = rng.randint(BLOCK_COLUMNS + 1, 8)
        a = Matrix(QQ, [[QQ.fraction(rng.randint(-9, 9), den) for _ in range(n)]
                        for _ in range(n)])
        cd = faddeev(a)
        assert hessenberg_charpoly(a) == cd.p
        for s in (1, BLOCK_COLUMNS, n):
            v = Matrix(QQ, zip(*probe_block(QQ, n, s)))
            bv_t = comatrix_block(a, cd.p, s)
            assert len(bv_t.coeffs) == n and (bv_t.rows, bv_t.cols) == (s, n)
            for got, full in zip(bv_t.coeffs, cd.b.coeffs):
                assert got == Matrix(QQ, zip(*mat_mul(full, v).data))


def test_block_horner_op_count_is_a_share_of_the_full_horner():
    # GF(7) at n = 64: the block Horner at BLOCK_COLUMNS makes about
    # BLOCK_COLUMNS/n of the counted ops of the Horner for all of B
    f = PrimeField(7)
    n = 64
    a = rand_matrix(rng_for("block-horner-ops"), f, n, lo=0, hi=6)
    p = hessenberg_charpoly(a)
    counts = {}
    for s in (BLOCK_COLUMNS, n):
        cf = CountingField(f)
        comatrix_block(Matrix(cf, a.data), Poly(cf, p.coeffs), s)
        counts[s] = cf.total
    assert counts[BLOCK_COLUMNS] / counts[n] == pytest.approx(BLOCK_COLUMNS / n, rel=0.02)


"""Seeded corpus of conjugated normal forms for the benchmark workloads.

Each matrix is a known rational Jordan form J conjugated by a random
unimodular U, so A = U J U^-1 has the block multiset of J as ground truth.
U is a product of elementary operations applied to J as similarities, which
keeps generation exact and O(n) per step.  The generator does its own
arithmetic (``fractions.Fraction`` for QQ, ints mod p for F_p) and never
imports jnf, so the ground truth is independent of the program under test.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# x^2 - 2, x^2 - 3, x^2 + 1, x^2 + x + 1, x^2 - 6, x^2 - x + 3 over QQ,
# lowest degree first.
IRREDUCIBLE_QUADRATICS = [
    (-2, 0, 1), (-3, 0, 1), (1, 0, 1), (1, 1, 1), (-6, 0, 1), (3, -1, 1),
]


# Elementary operations per dimension in the conjugator.  The unit tests use
# 3; at 2 the per-matrix solve time varies far less across a seed's corpus
# (entry growth compounds along chains of operations), which keeps the
# per-run medians steady, while entries of B still reach about 20 bits over
# QQ.
CONJUGATION_STEPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    p: int               # 0 for QQ
    form: str
    hints: bool

    @property
    def field_spec(self):
        return "q" if self.p == 0 else f"fp:{self.p}"


WORKLOADS = {
    w.name: w for w in (
        Workload("qq_split", n=16, p=0, form="split", hints=False),
        Workload("qq_rational", n=20, p=0, form="rational", hints=True),
        Workload("fp_hessenberg", n=32, p=7, form="rational", hints=True),
    )
}


def _pieces(rng, w):
    """[(factor coeffs lowest first, [cycle lengths])] for one matrix."""
    if w.name == "qq_split":
        # three eigenvalues from the integers and halves in [-3, 3]
        lams = rng.sample([Fraction(k, 2) for k in range(-6, 7)], 3)
        patterns = [[3, 2, 1], [3, 2], [2, 2, 1]]
        rng.shuffle(patterns)
        return [((-lam, Fraction(1)), ls) for lam, ls in zip(lams, patterns)]
    if w.name == "qq_rational":
        q1, q2 = rng.sample(IRREDUCIBLE_QUADRATICS, 2)
        lam = Fraction(rng.randint(-4, 5))
        return [(tuple(map(Fraction, q1)), [3, 2]),
                (tuple(map(Fraction, q2)), [2, 1]),
                ((-lam, Fraction(1)), [2, 1, 1])]
    if w.name == "fp_hessenberg":
        p = w.p
        lams = rng.sample(range(p), 3)
        patterns = [[4, 2, 1], [3, 2, 2], [3, 2, 1]]
        rng.shuffle(patterns)
        return [((1, 0, 1), [3, 2, 1])] + [
            (((-lam) % p, 1), ls) for lam, ls in zip(lams, patterns)]
    raise ValueError(f"unknown workload {w.name!r}")


def _normal_form(pieces, n, zero, one, neg):
    """Block diagonal J: per cycle, companion blocks of the factor on the
    diagonal and identity couplings above them."""
    j = [[zero] * n for _ in range(n)]
    off = 0
    for coeffs, lengths in pieces:
        d = len(coeffs) - 1
        for k in lengths:
            for g in range(k):
                base = off + g * d
                for i in range(1, d):
                    j[base + i][base + i - 1] = one
                for i in range(d):
                    j[base + i][base + d - 1] = neg(coeffs[i])
                if g + 1 < k:
                    for i in range(d):
                        j[base + i][base + d + i] = one
            off += k * d
    if off != n:
        raise ValueError(f"pieces fill {off} of {n} dimensions")
    return j


def _conjugate(rng, a, steps, add, mul, neg, const):
    """A <- E A E^-1 for ``steps`` random elementary E (row i += c*row j, or
    a swap), the kind of unimodular conjugator the unit tests use."""
    n = len(a)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if rng.random() < 0.7:
            c = const(rng.choice([-2, -1, 1, 2]))
            a[i] = [add(x, mul(c, y)) for x, y in zip(a[i], a[j])]
            nc = neg(c)
            for row in a:
                row[j] = add(row[j], mul(nc, row[i]))
        else:
            a[i], a[j] = a[j], a[i]
            for row in a:
                row[i], row[j] = row[j], row[i]
    return a


def make_matrix(rng, w):
    """One (matrix rows, pieces) pair for workload ``w``."""
    pieces = _pieces(rng, w)
    if w.p == 0:
        ops = (lambda x, y: x + y, lambda x, y: x * y, lambda x: -x, Fraction)
        zero, one = Fraction(0), Fraction(1)
    else:
        p = w.p
        ops = (lambda x, y: (x + y) % p, lambda x, y: x * y % p,
               lambda x: -x % p, lambda c: c % p)
        zero, one = 0, 1
    j = _normal_form(pieces, w.n, zero, one, ops[2])
    return _conjugate(rng, j, CONJUGATION_STEPS * w.n, *ops), pieces


def truth_key(pieces):
    """Ground-truth block multiset as sorted [factor text, length, count]."""
    counts = {}
    for coeffs, lengths in pieces:
        text = tuple(str(c) for c in coeffs)
        for k in lengths:
            counts[(text, k)] = counts.get((text, k), 0) + 1
    return sorted([list(t), k, c] for (t, k), c in counts.items())


def write_job(directory, stem, rows, pieces, with_hints):
    """Write the matrix file, the hint file if used, and the truth file;
    returns (matrix path, hint path or None, truth)."""
    n = len(rows)
    mat = directory / f"{stem}.mat"
    mat.write_text(f"{n} {n}\n" + "".join(
        " ".join(str(x) for x in row) + "\n" for row in rows))
    hint = None
    if with_hints:
        hint = directory / f"{stem}.hint"
        hint.write_text("".join(
            f"{sum(ls)} : " + " ".join(str(c) for c in coeffs) + "\n"
            for coeffs, ls in pieces))
    truth = truth_key(pieces)
    (directory / f"{stem}.truth.json").write_text(json.dumps(truth) + "\n")
    return mat, hint, truth


def generate(directory, workload, seed, count):
    """Warm-up job plus ``count`` timed jobs, all drawn from ``seed``.
    Returns (warm-up job, [timed jobs]), each a write_job tuple."""
    rng = random.Random(f"perfbench::{workload.name}::{seed}")
    jobs = []
    for i in range(count + 1):
        rows, pieces = make_matrix(rng, workload)
        stem = "warmup" if i == 0 else f"m{i:03d}"
        jobs.append(write_job(directory, stem, rows, pieces, workload.hints))
    return jobs[0], jobs[1:]

"""Assembly of transformation matrix P and normal form J from cycles, and
the certificate every result carries.

A cycle arrives as an ordered list of *groups*, as the one cycle extractor
returns it for every factor; group j holds the d column vectors
(w_j, A*w_j, ..., A^{d-1}*w_j) attached to the j-th link of a Q(A)-Jordan
chain, and a linear factor is the case d = 1, one vector per group.  The
per-cycle block is companion matrices of the factor on the diagonal plus a
coupling block between consecutive links: a single top-right 1 for the
pseudo-rational form, the identity for the rational (and split) forms.
``assemble`` builds P and J in the field's integer model, as the vectors
come, and ends with ``verify``: A*P = P*J exactly and P nonsingular.
"""

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .matrix import Matrix, mat_mul, rank


@dataclass(frozen=True)
class CycleBlock:
    factor: object       # monic Poly
    cycle_length: int
    offset: int          # starting column in P / row in J


@dataclass
class JordanDecomposition:
    FORMS = ("split", "pseudo_rational", "rational")
    p: Matrix
    j: Matrix
    form: str            # one of FORMS
    blocks: list         # [CycleBlock, ...] in layout order
    field: object


def cycle_block_matrix(q, k, form, orientation):
    """The k*d x k*d block of J for one cycle of length k, over q's common
    denominator s: companion matrices of q on the diagonal (subdiagonal 1s,
    last column -q_0..-q_{d-1}), and between consecutive links the coupling,
    above the diagonal for "upper" and below it for "lower"."""
    f = q.field
    d = q.degree
    (qi,), s = f.lift([q.coeffs])
    neg = f.int_scale([qi], -1)[0]
    j = [[0] * (k * d) for _ in range(k * d)]
    for i, row in enumerate(j):
        g, r = i - i % d, i % d
        if r:
            row[g + r - 1] = s
        row[g + d - 1] = neg[r]
    # the coupling: a top-right 1 (pseudo-rational) or the identity
    ones = [(0, d - 1)] if form == "pseudo_rational" else [(r, r) for r in range(d)]
    dr, dc = (0, d) if orientation == "upper" else (d, 0)
    for g in range(0, (k - 1) * d, d):
        for r, c in ones:
            j[g + dr + r][g + dc + c] = s
    return Matrix.from_lifted(f, j, s)


def assemble(a, factor_cycles, form, orientation):
    """Build P and J from per-factor cycle groups and certify them with
    ``verify``.

    ``factor_cycles``: ordered [(factor, cycles)], each cycle a list of
    groups, each group a list of column vectors as the extractor gives
    them.  Cycles are laid out per factor by decreasing length (ties keep
    discovery order); ``orientation`` "upper" keeps group order (coupling
    above the diagonal), "lower" reverses it.
    """
    f = a.field
    n = a.rows
    columns, j_rows, blocks = [], [], []
    for factor, cycles in factor_cycles:
        d = factor.degree
        for cycle in sorted(cycles, key=lambda cy: -len(cy)):
            k = len(cycle)
            offset = len(columns)
            blocks.append(CycleBlock(factor=factor, cycle_length=k, offset=offset))
            groups = cycle if orientation == "upper" else list(reversed(cycle))
            for group in groups:
                if len(group) != d:
                    raise InternalConsistencyError("group size does not match factor degree")
                columns.extend(group)
            jb, s = cycle_block_matrix(factor, k, form, orientation).lifted()
            j_rows += [([0] * offset + row + [0] * (n - offset - k * d), s) for row in jb]
    if len(columns) != n:
        raise InternalConsistencyError(
            f"collected {len(columns)} basis vectors for dimension {n}")
    p_cols, dp = f.one_den(columns)
    dec = JordanDecomposition(p=Matrix.from_lifted(f, [list(r) for r in zip(*p_cols)], dp),
                              j=Matrix.from_lifted(f, *f.one_den(j_rows)),
                              form=form, blocks=blocks, field=f)
    verify(a, dec)
    return dec


def verify(a, dec):
    """Exact checks A*P = P*J and P nonsingular; returns True or raises."""
    if mat_mul(a, dec.p) != mat_mul(dec.p, dec.j):
        raise InternalConsistencyError("A*P != P*J")
    if rank(dec.p) != dec.p.rows:
        raise InternalConsistencyError("P is singular")
    return True

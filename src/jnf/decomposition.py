"""Assembly of transformation matrix P and normal form J from cycles, and
the certificate every result carries.

A cycle arrives as an ordered list of *groups*, as the one cycle extractor
returns it for every factor; group j holds the d column vectors
(w_j, A*w_j, ..., A^{d-1}*w_j) attached to the j-th link of a Q(A)-Jordan
chain, and a linear factor is the case d = 1, one vector per group.  The
per-cycle block is companion matrices of the factor on the diagonal plus a
coupling block between consecutive links: a single top-right 1 for the
pseudo-rational form, the identity for the rational (and split) forms.
``assemble`` ends with ``verify``: A*P = P*J exactly and P nonsingular.
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


def companion(q):
    """Companion matrix of a monic polynomial: subdiagonal 1s, last column
    the negated low-order coefficients."""
    f = q.field
    d = q.degree
    m = Matrix.zeros(f, d, d)
    for i in range(1, d):
        m.data[i][i - 1] = f.one
    for i in range(d):
        m.data[i][d - 1] = f.neg(q.coeffs[i])
    return m


def cycle_block_matrix(q, k, form, orientation):
    """The k*d x k*d block of J for one cycle of length k, by rows: the
    companion rows on the diagonal, and between consecutive links the
    coupling, above the diagonal for "upper" and below it for "lower"."""
    f = q.field
    d = q.degree
    comp = companion(q).data
    j = Matrix.zeros(f, k * d, k * d)
    for i, row in enumerate(j.data):
        g = i - i % d
        row[g:g + d] = comp[i % d]
    # the coupling: a top-right 1 (pseudo-rational) or the identity
    ones = [(0, d - 1)] if form == "pseudo_rational" else [(r, r) for r in range(d)]
    dr, dc = (0, d) if orientation == "upper" else (d, 0)
    for g in range(0, (k - 1) * d, d):
        for r, c in ones:
            j.data[g + dr + r][g + dc + c] = f.one
    return j


def assemble(a, factor_cycles, form, orientation):
    """Build P and J from per-factor cycle groups and certify them with
    ``verify``.

    ``factor_cycles``: ordered [(factor, cycles)], each cycle a list of
    groups, each group a list of column vectors.  Cycles are laid out per
    factor by decreasing length (ties keep discovery order); ``orientation``
    "upper" keeps group order (coupling above the diagonal), "lower"
    reverses it.
    """
    f = a.field
    n = a.rows
    columns = []
    blocks = []
    j = Matrix.zeros(f, n, n)
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
            jb = cycle_block_matrix(factor, k, form, orientation)
            for r, row in enumerate(jb.data):
                j.data[offset + r][offset:offset + k * d] = row
    if len(columns) != n:
        raise InternalConsistencyError(
            f"collected {len(columns)} basis vectors for dimension {n}")
    dec = JordanDecomposition(p=Matrix.from_columns(f, columns, rows=n), j=j,
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

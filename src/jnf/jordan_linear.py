"""Jordan cycles for linear factors (lambda - lam)^mult of the
characteristic polynomial, via Taylor shifts of B(lambda) and the stacked
reduce/shift collection loop.
"""

from dataclasses import dataclass

from .decomposition import assemble
from .errors import InternalConsistencyError, NeedsFactorizationError
from .matrix import Matrix, ReducedStack, rank, horner_shift
from .poly import Poly


@dataclass
class JordanCycle:
    eigenvalue: object
    vectors: list        # [v_{k-1}, ..., v_0]; v_0 is the eigenvector

    def __len__(self):
        return len(self.vectors)

    def chain(self):
        """Vectors ordered v_0 first (the order the stack produced them)."""
        return list(reversed(self.vectors))


@dataclass
class EigenStructure:
    eigenvalue: object
    multiplicity: int
    cycles: list         # [JordanCycle, ...] in discovery order


def taylor_blocks(b, lam, mult):
    """[B(lam), B^1(lam), ..., B^{mult-1}(lam)] by iterated Horner shifts;
    no derivatives or factorials, so valid in any characteristic."""
    return horner_shift(b, [(lam, mult)])[0]


def linear_taylor_blocks(b, factors):
    """Taylor blocks of B at the root of every linear factor in
    ``factors`` [(q, mult), ...], in their order, from one expansion of B:
    {q's index: (eigenvalue, blocks)}."""
    f = b.field
    linear = [(i, f.neg(q.coeffs[0]), mult)
              for i, (q, mult) in enumerate(factors) if q.degree == 1]
    expansions = horner_shift(b, [(lam, mult) for _, lam, mult in linear])
    return {i: (lam, blocks)
            for (i, lam, _), blocks in zip(linear, expansions)}


def collect_cycles(blocks, total_needed, accept, enforce_single_top=False):
    """Generic stacked reduce/collect/shift loop.

    ``blocks`` are the stack blocks (block 0 on top, chain relations between
    consecutive blocks).  ``accept`` sees a candidate chain [v_0, ..., v_{L-1}]
    and must return True only for chains independent of everything collected
    so far.  Returns the accepted chains, each ordered v_0 first.
    """
    stack = ReducedStack.from_blocks(blocks)
    collected = []
    total = 0
    first_pass = True
    while total < total_needed and stack.levels >= 1:
        stack, top_idx = stack.reduce()
        if enforce_single_top and first_pass and len(top_idx) > 1:
            # one full-length cycle already fills the characteristic space
            raise InternalConsistencyError(
                "more than one full-length chain survived the first reduction")
        first_pass = False
        level = stack.levels
        for idx in top_idx:
            segs = stack.chain_segments(idx)
            if accept(segs):
                if total + level > total_needed:
                    raise InternalConsistencyError(
                        "independent cycles exceed the factor multiplicity")
                collected.append(segs)
                total += level
        if total >= total_needed:
            break
        for idx in sorted(top_idx, reverse=True):
            stack.shift_down(idx)
        stack.drop_zero_chains()
        stack.cut_top()
    if total != total_needed:
        raise InternalConsistencyError(
            "cycle collection exhausted the stack before reaching the multiplicity")
    return collected


def extract_cycles(a, lam, mult, blocks):
    """Collect Jordan cycles for one eigenvalue from its Taylor blocks."""
    f = a.field
    accepted_vectors = []

    def accept(segs):
        cand = accepted_vectors + segs
        if rank(Matrix(f, cand)) != len(cand):
            return False
        accepted_vectors.extend(segs)
        return True

    chains = collect_cycles(blocks, mult, accept, enforce_single_top=True)
    cycles = [JordanCycle(eigenvalue=lam, vectors=list(reversed(segs)))
              for segs in chains]
    return EigenStructure(eigenvalue=lam, multiplicity=mult, cycles=cycles)


def assemble_split_jordan(a, structures, orientation="lower"):
    """P from all cycle vectors, J block diagonal with the eigenvalue on the
    diagonal and the 1s on the sub- (or super-) diagonal of each block."""
    f = a.field
    factor_cycles = []
    for st in structures:
        groups_per_cycle = [[[v] for v in cy.chain()] for cy in st.cycles]
        factor_cycles.append((Poly.x_minus(f, st.eigenvalue), groups_per_cycle))
    return assemble(a, factor_cycles, form="split", orientation=orientation)


def split_jordan(a, factorization, orientation="lower", chardata=None):
    """Split-field Jordan form driver; every factor must be linear."""
    from .charpoly import char_data

    cd = chardata if chardata is not None else char_data(a)
    for q, _ in factorization.factors:
        if q.degree != 1:
            raise NeedsFactorizationError(
                "split Jordan form needs a fully split characteristic polynomial; "
                f"stuck on a degree-{q.degree} factor",
                residual=q)
    taylor = linear_taylor_blocks(cd.b, factorization.factors)
    structures = []
    for i, (q, mult) in enumerate(factorization.factors):
        lam, blocks = taylor.pop(i)
        with factorization.blame(q, mult):
            structures.append(extract_cycles(a, lam, mult, blocks))
    return assemble_split_jordan(a, structures, orientation=orientation)

"""Span recorder and op-count pass for the traced benchmark run.

The recorder wraps public functions of the jnf modules from the outside.
jnf binds names with ``from .matrix import mat_mul, rank``, so each wrapper
is rebound in every jnf module namespace that holds the original function,
``matrix`` itself included (``poly_at_matrix`` calls ``mat_mul`` there).
Spans stay in memory until ``write_spans``.  Only the traced run imports
this module, after putting jnf on ``sys.path``.
"""

import functools
import json
import sys
import time

import jnf.cli
from jnf.charpoly import char_data
from jnf.fields import CountingField
from jnf.jordan_rational import q_adic_blocks
from jnf.matrix import MatPoly, Matrix
from jnf.poly import Poly

# module -> wrapped public functions; span and metric names are
# "<module>.<function>"
WRAPPED = {
    "io": ["parse_matrix", "emit_json"],
    "charpoly": ["char_data", "faddeev", "hessenberg_charpoly",
                 "comatrix_from_charpoly"],
    "factor": ["factor_charpoly"],
    "jordan_linear": ["taylor_blocks", "extract_cycles", "collect_cycles"],
    "jordan_rational": ["q_adic_blocks", "extract_q_cycles",
                        "convert_cycle_to_rational"],
    "decomposition": ["assemble"],
    "matrix": ["mat_mul", "rank", "horner_shift", "matpoly_div_q",
               "poly_at_matrix"],
}
SPAN_NAMES = [f"{m}.{fn}" for m, fns in WRAPPED.items() for fn in fns]
ROOT = "cli.run"

# the caller of collect_cycles decides whose accept ratio a chain counts for
_ACCEPT_OWNER = {"jordan_linear.extract_cycles": "jordan_linear",
                 "jordan_rational.extract_q_cycles": "jordan_rational"}


class Tracer:
    """Records (name, start, end, parent, job, self_s) spans; ``parent`` is
    the index of the enclosing span or None, ``self_s`` the span minus the
    child spans it covers."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []       # open spans: [index, name, child seconds]
        self._restore = []     # (module, attribute, original)
        # owner -> [candidate chains, accepted chains]
        self.accepts = {owner: [0, 0] for owner in _ACCEPT_OWNER.values()}

    def _wrap(self, name, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [len(spans), name, 0.0]
            spans.append(None)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                spans[frame[0]] = (name, start, end, parent, self.job,
                                   end - start - frame[2])
        return wrapper

    def _counting_collect(self, fn):
        """collect_cycles with its ``accept`` callback counted."""

        @functools.wraps(fn)
        def collect(blocks, total_needed, accept, *args, **kwargs):
            tally = self.accepts[_ACCEPT_OWNER[self._stack[-2][1]]]

            def counted(segs):
                ok = accept(segs)
                tally[0] += 1
                tally[1] += bool(ok)
                return ok
            return fn(blocks, total_needed, counted, *args, **kwargs)
        return collect

    def install(self):
        """Rebind every wrapped function, and ``cli.run`` as the job's root
        span, in all loaded jnf modules."""
        targets = [(ROOT, jnf.cli.run)]
        for mod, fns in WRAPPED.items():
            module = sys.modules[f"jnf.{mod}"]
            targets += [(f"{mod}.{fn}", getattr(module, fn)) for fn in fns]
        modules = [m for name, m in sys.modules.items()
                   if name == "jnf" or name.startswith("jnf.")]
        for name, orig in targets:
            inner = orig
            if name == "jordan_linear.collect_cycles":
                inner = self._counting_collect(orig)
            wrapper = self._wrap(name, inner)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def layer_metrics(self, jobs):
        """Per-matrix calls, inclusive and self seconds of every wrapped
        function, certificate seconds and accept ratios."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        incl = dict.fromkeys(SPAN_NAMES, 0.0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        cert = 0.0
        for name, start, end, parent, _, own in self.spans:
            if name == ROOT:
                continue
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += own
            if (name in ("matrix.rank", "matrix.mat_mul") and parent is not None
                    and self.spans[parent][0] == "decomposition.assemble"):
                cert += end - start
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / jobs, "calls/matrix")
            out[f"{name}.s"] = (incl[name] / jobs, "s/matrix")
            out[f"{name}.self_s"] = (self_s[name] / jobs, "s/matrix")
        out["decomposition.certificate_s"] = (cert / jobs, "s/matrix")
        for owner, (cand, acc) in self.accepts.items():
            # a workload whose factors never reach this engine reports 0
            out[f"{owner}.accept_ratio"] = (acc / cand if cand else 0.0, "ratio")
        return out

    def write_spans(self, path):
        keys = ("name", "start", "end", "parent", "job", "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def max_bits(values):
    """Largest numerator or denominator bit length among field elements
    (F_p residues are ints, whose denominator is 1)."""
    return max(max(abs(int(x.numerator)).bit_length(),
                   int(x.denominator).bit_length()) for x in values)


def op_counts(a, factors):
    """Exact field-op counts of char_data and of q_adic_blocks over every
    factor of degree >= 2, each on its own CountingField over the base field
    of ``a``.  ``factors`` is [(coefficients, multiplicity)] from the ground
    truth, because factor_charpoly needs ``Rationals.fraction``, which
    CountingField lacks.  Returns (charpoly ops, q-adic ops, B max bits)."""
    base = a.field
    plain = char_data(a)
    cf = CountingField(base)
    counted = char_data(Matrix(cf, a.data))
    if counted.p.coeffs != plain.p.coeffs or counted.b.coeffs != plain.b.coeffs:
        raise RuntimeError("char_data differs on CountingField")
    charpoly_ops = cf.total

    cf = CountingField(base)
    a_c = Matrix(cf, a.data)
    b_c = MatPoly(cf, [Matrix(cf, m.data) for m in plain.b.coeffs])
    for coeffs, mult in factors:
        if len(coeffs) > 2:
            q_adic_blocks(a_c, b_c, Poly(cf, [base.parse(c) for c in coeffs]), mult)
    b_bits = max_bits(x for m in plain.b.coeffs for row in m.data for x in row)
    return charpoly_ops, cf.total, b_bits

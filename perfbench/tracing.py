"""Spans and counters around the public functions of each nckit layer.

Nothing under ``src/`` is edited: ``install`` replaces each traced
function by a wrapper in every module that binds it (``from .star import
star`` binds the function in gauge, forms, scalar, expr and suites, and
the package attribute ``nckit.star`` is the function too), and patches the
``CRat`` and ``Poly`` operators on their classes.

Spans stay in memory as ``[name, start, end, parent, case, hook_s]`` rows
and are written out once, when the pass ends.  A span's self time is its
duration minus the time its direct children cover, where a child covers
its own duration plus the bookkeeping its wrapper did after it returned
(``hook_s``), so tracing cost is not charged to the caller.  Counters are
kept per case and dropped with its spans when the case is censored.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# module -> functions that get a span; the span is named "<layer>.<function>"
SPANS = {
    "nckit.star": ("star", "star_exp"),
    "nckit.forms": ("move_left", "form_mul", "d"),
    "nckit.gauge": ("field_strength", "covariance_defect", "invariance_witness",
                    "action_density"),
    "nckit.scalar": ("phase_subalgebra_defects",),
    "nckit.planewave": ("build_ansatz", "effective_action", "pw_substitute"),
    "nckit.grid": ("grid_star", "cross_validate_symbolic"),
    "nckit.expr": ("parse_expression", "evaluate"),
    "nckit.cli": ("main",),
}

COUNTERS = ("rationals.mul_calls", "rationals.add_calls",
            "rationals.max_coeff_bits", "poly.mul.term_pairs",
            "star.term_pairs", "star.max_out_terms",
            "grid.grid_star.bytes_computed")

_MAX_COUNTERS = ("rationals.max_coeff_bits", "star.max_out_terms")

# complex128 arrays grid_star produces: 8 n^2 per first-axis frequency
# plus 8 n^2 around the loop (see the kernel in nckit/grid.py)
_GRID_BYTES_PER = 16 * 8


def _coeff_bits(poly) -> int:
    top = 0
    for c in poly._terms.values():
        for q in (c.re, c.im):
            top = max(top, q.numerator.bit_length(), q.denominator.bit_length())
    return top


class Tracer:
    """Spans and counters of one pass; ``case`` tags each span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.pairs: set = set()
        self._case_counts = dict.fromkeys(COUNTERS, 0)
        self._case_pairs: set = set()
        self._case_first_span = 0
        self._theta_ids: dict = {}

    # -- case boundaries ----------------------------------------------------------

    def begin_case(self, cid) -> None:
        self.case = cid
        self.stack.clear()
        self._case_first_span = len(self.spans)
        self._case_counts = dict.fromkeys(COUNTERS, 0)
        self._case_pairs = set()

    def end_case(self, keep: bool) -> None:
        """Merge the case's counters, or drop them and its spans."""
        if keep:
            for key, v in self._case_counts.items():
                if key in _MAX_COUNTERS:
                    self.counts[key] = max(self.counts[key], v)
                else:
                    self.counts[key] += v
            self.pairs |= self._case_pairs
        else:
            del self.spans[self._case_first_span:]
        self.case = None
        self.stack.clear()

    # -- wrappers -------------------------------------------------------------------

    def span(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.case, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, out)
                rec[5] = perf_counter() - rec[2]
            return out

        return wrapped

    def counter(self, key, fn):
        @functools.wraps(fn)
        def wrapped(a, b):
            self._case_counts[key] += 1
            return fn(a, b)

        return wrapped

    # -- hooks: counts measured where the work happens ------------------------------

    def _bump_max(self, key, value):
        if value > self._case_counts[key]:
            self._case_counts[key] = value

    def star_hook(self, args, out):
        f, g, ctx = args[0], args[1], args[2]
        self._bump_max("star.max_out_terms", len(out))
        self._bump_max("rationals.max_coeff_bits", _coeff_bits(out))
        theta = ctx.theta
        if theta.is_zero():
            return
        tid = self._theta_ids.setdefault(theta, len(self._theta_ids))
        cutoff = ctx.eps_cutoff
        gx = [(eg[1:4], eg[4]) for eg in g._terms]
        pairs = self._case_pairs
        n = 0
        for ef in f._terms:
            fx, fe = ef[1:4], ef[4]
            for gxe, ge in gx:
                if cutoff is None or fe + ge <= cutoff:
                    n += 1
                    pairs.add((tid, fx, gxe))
        self._case_counts["star.term_pairs"] += n

    def poly_mul_hook(self, args, out):
        if out is NotImplemented:
            return
        a, b = args
        pairs = len(a._terms) * (len(b._terms) if hasattr(b, "_terms") else 1)
        self._case_counts["poly.mul.term_pairs"] += pairs
        self._bump_max("rationals.max_coeff_bits", _coeff_bits(out))

    def grid_star_hook(self, args, out):
        n = args[0].n
        self._case_counts["grid.grid_star.bytes_computed"] += (
            _GRID_BYTES_PER * (n ** 3 + n ** 2))

    # -- installation -----------------------------------------------------------------

    def install(self, caller) -> None:
        """Wrap in every nckit module and in ``caller``, the module that
        calls into nckit through names it imported."""
        from nckit.poly import BasePoly
        from nckit.rationals import CRat

        modules = [m for name, m in list(sys.modules.items())
                   if name == "nckit" or name.startswith("nckit.")]
        modules.append(caller)
        hooks = {"star.star": self.star_hook,
                 "grid.grid_star": self.grid_star_hook}
        for modname, names in SPANS.items():
            module = sys.modules[modname]
            layer = modname.split(".", 1)[1]
            for fname in names:
                orig = vars(module)[fname]
                name = f"{layer}.{fname}"
                wrapped = self.span(name, orig, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

        mul = self.counter("rationals.mul_calls", CRat.__mul__)
        CRat.__mul__ = CRat.__rmul__ = mul
        add = self.counter("rationals.add_calls", CRat.__add__)
        CRat.__add__ = CRat.__radd__ = add
        CRat.__sub__ = self.counter("rationals.add_calls", CRat.__sub__)
        pmul = self.span("poly.mul", BasePoly.__mul__, self.poly_mul_hook)
        BasePoly.__mul__ = BasePoly.__rmul__ = pmul

    # -- results ------------------------------------------------------------------------

    def layer_stats(self) -> dict:
        """{span name: [calls, self seconds]} over the kept spans."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1] + rec[5]
        stats: dict = {}
        for rec, cov in zip(self.spans, covered):
            entry = stats.setdefault(rec[0], [0, 0.0])
            entry[0] += 1
            entry[1] += rec[2] - rec[1] - cov
        return stats

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, case, hook in self.spans:
                fh.write(json.dumps([name, start, end, parent, case]) + "\n")

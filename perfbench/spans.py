"""Span recorder for the traced run.

The library stays untouched: each layer's public functions are wrapped from
the outside by rebinding the name in every lct3 module that binds it, and
methods on their class.  `polynomials` is not wrapped, because its hot
arithmetic would distort the timings; its time shows up as self time of the
`ideals` spans.
"""

from __future__ import annotations

import functools
import gzip
import json
from collections import defaultdict
from time import perf_counter
from types import ModuleType

# Wrapped functions, as <module>.<function>.  Methods are <module>.<Class>.<method>
# and report under <module>.<method>.
FUNCTIONS = (
    "zerodim.zero_dim_report",
    "zerodim.radical_zero_dim",
    "ideals.eliminate",
    "ideals.saturate",
    "ideals.ideal_quotient",
    "ideals.ideal_intersect",
    "ideals.ideal_product",
    "envelopes.envelope",
    "envelopes.classify",
    "envelopes.generator_degrees",
    "points.graded_piece",
    "points.general_points",
    "points.symbolic_power",
    "multiplier.multiplier_ideal",
    "multiplier.jumping_numbers",
    "multiplier.membership_by_valuation",
    "newton.monomial_mi",
    "verify.cross_check",
    "cli.load_arrangement",
    "cli.classification_doc",
    "cli.ideal_generators",
)
METHODS = (
    "ideals.Ideal.groebner",
    "ideals.Ideal.contains",
    "linalg.RatMatrix.rref",
)
ROOT = "cli.main"  # the span the runner opens around each op


def _coeff_bits(basis) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for g in basis
            for c in g.terms.values()
        ),
        default=0,
    )


def _groebner_counts(args):
    fresh = args[0]._gb is None  # the basis is computed, not read from cache
    if not fresh:
        return lambda basis: {"computed": 0}
    return lambda basis: {
        "computed": 1,
        "max_basis": len(basis),
        "max_coeff_bits": _coeff_bits(basis),
    }


# name -> (args -> (result -> {count: value})), recorded beside the span
COUNTERS = {
    "linalg.rref": lambda args: lambda out: {"cells": args[0].rows * args[0].cols},
    "ideals.ideal_product": lambda args: lambda out: {"out_generators": len(out.generators)},
    "ideals.groebner": _groebner_counts,
}
# each count metric and how its values fold over the run
COUNTS = {
    "linalg.rref.cells": sum,
    "ideals.ideal_product.out_generators": sum,
    "ideals.groebner.computed": sum,
    "ideals.groebner.max_basis": max,
    "ideals.groebner.max_coeff_bits": max,
}


def _method_name(path):
    module, _, method = path.split(".")
    return f"{module}.{method}"


def span_names():
    return list(FUNCTIONS) + [_method_name(m) for m in METHODS] + [ROOT]


class Recorder:
    """Spans kept in memory as (name, start, end, parent, op) rows and
    written out when the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.op = "setup"
        self._patches = []

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _count(self, name, values):
        for suffix, value in values.items():
            key = f"{name}.{suffix}"
            old = self.counts.get(key)
            self.counts[key] = value if old is None else COUNTS[key]((old, value))

    # -- installing the wrappers ------------------------------------------

    def _wrap(self, name, fn):
        span, count, counter = self.span, self._count, COUNTERS.get(name)
        if counter is None:

            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)

        else:

            def traced(*args, **kwargs):
                after = counter(args)
                result = span(name, fn, *args, **kwargs)
                count(name, after(result))
                return result

        return functools.wraps(fn)(traced)

    def install(self, lct3):
        """Wrap every listed function in every lct3 module that binds it."""
        modules = [lct3] + [m for m in vars(lct3).values() if isinstance(m, ModuleType)]
        for path in FUNCTIONS:
            module, fn = path.split(".")
            original = getattr(getattr(lct3, module), fn)
            wrapper = self._wrap(path, original)
            for m in modules:
                if vars(m).get(fn) is original:
                    self._patch(m, fn, wrapper)
        for path in METHODS:
            module, cls_name, method = path.split(".")
            cls = getattr(getattr(lct3, module), cls_name)
            self._patch(cls, method, self._wrap(_method_name(path), vars(cls)[method]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the spans --------------------------------------------------

    def self_times(self):
        """Each span's duration minus the time its children cover.  Spans
        nest strictly (one thread), so children never overlap."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self):
        """<layer>.<function>.{calls,s,self_s} plus the recorded counts.
        Inclusive time counts a recursive call once: only spans with no
        ancestor of the same name add to `.s`."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, parent, op), self_s in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        return out

    def op_balance(self):
        """Largest |sum of self times - root duration| over the ops."""
        per_op = defaultdict(float)
        roots = {}
        for (name, start, end, parent, op), s in zip(self.spans, self.self_times()):
            per_op[op] += s
            if parent < 0 and name == ROOT:
                roots[op] = end - start
        return max((abs(per_op[op] - wall) for op, wall in roots.items()), default=0.0)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], a, b, p, op] for n, a, b, p, op in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))

"""Spans around the public functions of each porosity_lab module.

The program itself carries no tracing, so the traced run wraps functions
from outside: every module namespace that binds a wrapped function (through
``from .x import name``) gets the wrapper, and ``uninstall`` puts the
originals back.  Spans are kept in memory as (name, start, end, parent,
op id) and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; calls in one thread nest, so
the children never overlap.  Size counters are taken from each call's
arguments and result after the op, outside every span, so no traced time
pays for them.
"""

from __future__ import annotations

import time
from fractions import Fraction

MODULES = ("cli", "rational", "tailset", "blowup", "membership", "ideal_core")


def _bits(x) -> int:
    if type(x) is Fraction:
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


def _block_bits(b) -> int:
    return _bits(b.x) if hasattr(b, "x") else max(_bits(b.lo), _bits(b.hi))


# reported counter -> (unit, how calls combine: "sum" per pass or "max")
COUNTERS = {
    "tailset.porosity_profile.probes": ("count", "sum"),
    "tailset.expand.blocks_out": ("count", "sum"),
    "tailset.expand.max_bits": ("bits", "max"),
    "tailset.merge_blocks.blocks_in": ("count", "sum"),
    "blowup.blow_up_chain.components_out": ("count", "sum"),
    "rational.max_bits": ("bits", "max"),
    "cli.report_bytes": ("B", "sum"),
}

# the four engines also feed membership.definite_ratio
_VERDICT = (
    ("membership.verdicts", lambda args, result: 1),
    ("membership.definite", lambda args, result: result.kind == "definite"),
)

# layer.function -> (whether .calls is reported, counters measured from
# (args, result)); every entry reports .self_s
TRACED = {
    "cli.main": (False, ()),
    "rational.format_rational": (True, (("rational.max_bits", lambda a, r: _bits(a[0])),)),
    "rational.parse_rational": (True, (("rational.max_bits", lambda a, r: _bits(r)),)),
    "tailset.family_from_json": (False, ()),
    "tailset.expand": (True, (
        ("tailset.expand.blocks_out", lambda a, r: len(r.blocks)),
        ("tailset.expand.max_bits", lambda a, r: max(map(_block_bits, r.blocks), default=0)),
    )),
    "tailset.merge_blocks": (True, (("tailset.merge_blocks.blocks_in", lambda a, r: len(a[0])),)),
    "tailset.lambda_gap": (True, ()),
    "tailset.porosity_profile": (False, (("tailset.porosity_profile.probes", lambda a, r: len(r.samples)),)),
    "blowup.blow_up_chain": (True, (("blowup.blow_up_chain.components_out", lambda a, r: len(r.blocks)),)),
    "blowup.cc1_components": (False, ()),
    "blowup.find_covering_blowup": (False, ()),
    "membership.is_sp": (False, _VERDICT),
    "membership.test_csp": (False, _VERDICT),
    "membership.test_i_csp": (False, _VERDICT),
    "membership.test_ihat_sp": (False, _VERDICT),
    "membership.decompose_csp": (False, ()),
    "membership.reproduce_example": (False, ()),
    "ideal_core.ideal_report": (True, ()),
    "ideal_core.check_theorem_istar_eq_ihat": (False, ()),
    "ideal_core.check_prime_iff_maximal": (False, ()),
}

# merge_blocks is fed generators; the wrapper makes a tuple of them inside
# the span, so the generators' work stays in merge_blocks and can be counted
_MATERIALISE = {"tailset.merge_blocks"}


class Tracer:
    """Span store plus the size counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op_id = -1
        self.counts = {}  # counter name -> summed or largest value
        self.pending = []  # (counters, args, result) of the current op
        self._saved = []

    def add(self, key, value):
        if COUNTERS.get(key, (None, "sum"))[1] == "max":
            self.counts[key] = max(self.counts.get(key, 0), value)
        else:
            self.counts[key] = self.counts.get(key, 0) + value

    def flush(self):
        """Take the counters of the calls made since the last flush; call it
        between ops, outside the timed region."""
        for counters, args, result in self.pending:
            for key, measure in counters:
                self.add(key, measure(args, result))
        self.pending.clear()

    def _wrap(self, name, fn, counters):
        spans, stack, pending = self.spans, self.stack, self.pending
        clock = time.perf_counter
        materialise = name in _MATERIALISE

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                if materialise:
                    args = (tuple(args[0]),) + args[1:]
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters:
                pending.append((counters, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict):
        """Wrap every traced function in every module that binds it."""
        for full, (_, counters) in TRACED.items():
            home, attr = full.split(".")
            original = getattr(modules[home], attr)
            wrapped = self._wrap(full, original, counters)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self) -> dict:
        """Summed self time and call count per traced function."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            s, c = totals.get(name, (0.0, 0))
            totals[name] = (s + (end - start - inner), c + 1)
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict:
    """The per-layer metrics, per pass over the workload's op list."""
    totals = tracer.self_times()
    out = {}
    for name, (report_calls, _) in TRACED.items():
        self_s, calls = totals.get(name, (0.0, 0))
        if report_calls:
            out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    for key, (unit, combine) in COUNTERS.items():
        value = tracer.counts.get(key, 0)
        out[key] = (value / passes if combine == "sum" else value, unit)
    verdicts = tracer.counts.get("membership.verdicts", 0)
    definite = tracer.counts.get("membership.definite", 0)
    out["membership.definite_ratio"] = (definite / verdicts if verdicts else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out

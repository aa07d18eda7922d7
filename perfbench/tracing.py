"""Per-layer tracing of calls into limfuse, installed from the benchmark.

The tracer replaces each public function or method of a layer with a
wrapper. A module-level function is replaced on every module that binds it
(`limfuse.cli` and `limfuse.induction.fused`, for example, hold their own
references), so no call path escapes. Methods are replaced on their
defining class, under every alias such as `__radd__ = __add__`.

Wrappers come in three kinds:
* span: one span per call (name, start, end, parent, operation id), kept in
  memory and written out when the run ends;
* aggregate: the hottest calls (RatFunc arithmetic, FusionElement
  construction, GradeMap composition, cached lookups) keep a call count and
  self time but no span;
* count: call count only, so their time stays with the caller.

A span's self time is its duration minus the time of the wrapped calls it
made. Every wrapper passes straight through while the tracer is paused, so
the benchmark's own output checks are never counted.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

# (metric, unit) in report order. Sources are defined in Tracer.metrics.
LAYER_METRICS = [
    ("exact.ratfunc_new", "count"),
    ("exact.poly_gcd_calls", "count"),
    ("exact.ratfunc_self_s", "s"),
    ("exact.format_calls", "count"),
    ("catdata.weight_calls", "count"),
    ("catdata.weight_computed", "count"),
    ("catdata.weight_hit_ratio", "ratio"),
    ("catdata.fusion_calls", "count"),
    ("catdata.fusion_hit_ratio", "ratio"),
    ("catdata.param_chain_calls", "count"),
    ("catdata.weight_self_s", "s"),
    ("catdata.fusion_self_s", "s"),
    ("fusion.monodromy_calls", "count"),
    ("fusion.exponents", "count"),
    ("fusion.monodromy_self_s", "s"),
    ("fusion.scan_calls", "count"),
    ("fusion.scan_self_s", "s"),
    ("fusion.ring_mul_calls", "count"),
    ("fusion.element_new", "count"),
    ("fusion.element_self_s", "s"),
    ("induction.locality_calls", "count"),
    ("induction.locality_repeat_ratio", "ratio"),
    ("induction.locality_fallbacks", "count"),
    ("induction.locality_self_s", "s"),
    ("induction.restrict_calls", "count"),
    ("induction.restrict_self_s", "s"),
    ("induction.summand_calls", "count"),
    ("induction.oracle_calls", "count"),
    ("induction.frobenius_self_s", "s"),
    ("induction.min_weight_self_s", "s"),
    ("dirlim.validate_calls", "count"),
    ("dirlim.validate_per_limit", "ratio"),
    ("dirlim.validate_self_s", "s"),
    ("dirlim.limit_self_s", "s"),
    ("dirlim.compose_calls", "count"),
    ("dirlim.compose_self_s", "s"),
    ("dirlim.rref_calls", "count"),
    ("dirlim.rref_cells", "count"),
    ("dirlim.rref_max_cols", "count"),
    ("dirlim.rref_self_s", "s"),
    ("dirlim.maps_per_cover", "ratio"),
    ("dirlim.universal_self_s", "s"),
    ("dirlim.kernel_self_s", "s"),
    ("dirlim.tensor_self_s", "s"),
    ("dirlim.qmap_self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]

_RATFUNC_OPS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__pow__", "substitute", "eval")
_PARAM_WEIGHTS = ("virasoro_weight", "super_weight", "verma_weight", "osp_weight")


def _weight_hit(tr, args, kwargs):
    cat, x = args[0], args[1]
    if x in cat.__dict__.get("_weight_cache", ()):
        tr.counts["catdata.weight_hits"] += 1


def _fusion_hit(tr, args, kwargs):
    cat, x, y = args[0], args[1], args[2]
    if (x, y) in cat.__dict__.get("_fusion_cache", ()):
        tr.counts["catdata.fusion_hits"] += 1


def _locality_seen(tr, args, kwargs):
    seen = tr.locality_seen.setdefault(args[0], set())
    if args[1] in seen:
        tr.counts["induction.locality_repeats"] += 1
    seen.add(args[1])


def _locality_fallback(tr, result, args):
    if result.exponent_family is None:
        tr.counts["induction.locality_fallbacks"] += 1


def _exponents(tr, result, args):
    tr.counts["fusion.exponents"] += len(result.entries)


def _rref_cells(tr, args, kwargs):
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tr.counts["dirlim.rref_cells"] += len(args[0]) * ncols
    tr.counts["dirlim.rref_max_cols"] = max(tr.counts["dirlim.rref_max_cols"], ncols)


def plan():
    """(owner, attribute, wrapper name, self-time group, kind, pre, post).

    The owner is a module (the function is replaced on every binding) or a
    class (the method is replaced on the class). Names double as call
    counters; groups sum self time into the per-layer `*_self_s` metrics.
    """
    # import_module: package attributes such as limfuse.fusion.monodromy
    # name the re-exported function, not the submodule
    def mod(name):
        return importlib.import_module(f"limfuse.{name}")
    cli, category, params = mod("cli"), mod("catdata.category"), mod("catdata.params")
    graded, inclusion, linalg = mod("dirlim.graded"), mod("dirlim.inclusion"), mod("dirlim.linalg")
    system, tensor, poly, ratfunc = mod("dirlim.system"), mod("dirlim.tensor"), mod("exact.poly"), mod("exact.ratfunc")
    element, monodromy, ring = mod("fusion.element"), mod("fusion.monodromy"), mod("fusion.ring")
    algebra, frobenius, fused = mod("induction.algebra"), mod("induction.frobenius"), mod("induction.fused")
    induced, locality = mod("induction.induced"), mod("induction.locality")

    RatFunc = ratfunc.RatFunc
    out = [(RatFunc, op, f"exact.RatFunc.{op}", "exact.ratfunc", AGGREGATE, None, None) for op in _RATFUNC_OPS]
    out += [
        (poly.Poly, "gcd", "exact.Poly.gcd", None, COUNT, None, None),
        (ratfunc, "format_ratfunc", "exact.format_ratfunc", "exact.format", AGGREGATE, None, None),
        (category.CategorySpec, "weight_of", "catdata.weight_of", "catdata.weight", AGGREGATE, _weight_hit, None),
        (category.CategorySpec, "fusion_of", "catdata.fusion_of", "catdata.fusion", AGGREGATE, _fusion_hit, None),
        (params, "param_chain", "catdata.param_chain", "catdata.weight", AGGREGATE, None, None),
    ]
    out += [(params, f, f"catdata.{f}", "catdata.weight", AGGREGATE, None, None) for f in _PARAM_WEIGHTS]
    out += [
        (monodromy, "monodromy", "fusion.monodromy", "fusion.monodromy", SPAN, None, _exponents),
        (monodromy, "mueger_scan", "fusion.mueger_scan", "fusion.scan", SPAN, None, None),
        (monodromy, "is_transparent", "fusion.is_transparent", "fusion.scan", AGGREGATE, None, None),
        (ring, "ring_mul", "fusion.ring_mul", "fusion.ring", AGGREGATE, None, None),
        (element.FusionElement, "__init__", "fusion.FusionElement.__init__", "fusion.element", AGGREGATE, None, None),
        (element.FusionElement, "__add__", "fusion.FusionElement.__add__", "fusion.element", AGGREGATE, None, None),
        (element.FusionElement, "scale", "fusion.FusionElement.scale", "fusion.element", AGGREGATE, None, None),
        (element.FusionElement, "filtered", "fusion.FusionElement.filtered", "fusion.element", AGGREGATE, None, None),
        (locality, "locality", "induction.locality", "induction.locality", SPAN, _locality_seen, _locality_fallback),
        (fused, "restrict_truncated", "induction.restrict_truncated", "induction.restrict", SPAN, None, None),
        (fused, "restriction_oracle_check", "induction.oracle", "induction.oracle", SPAN, None, None),
        (fused, "induced_fusion", "induction.induced_fusion", "induction.fused", SPAN, None, None),
        (frobenius, "frobenius_dim", "induction.frobenius_dim", "induction.frobenius", SPAN, None, None),
        (induced, "induce", "induction.induce", "induction.induce", AGGREGATE, None, None),
        (induced, "min_weight_summand", "induction.min_weight_summand", "induction.min_weight", SPAN, None, None),
        (algebra.AlgebraObject, "summand", "induction.summand", "induction.summand", AGGREGATE, None, None),
        (system, "validate_system", "dirlim.validate_system", "dirlim.validate", SPAN, None, None),
        (system, "direct_limit", "dirlim.direct_limit", "dirlim.limit", SPAN, None, None),
        (system, "universal_map", "dirlim.universal_map", "dirlim.universal", SPAN, None, None),
        (system, "kernel_of_leg", "dirlim.kernel_of_leg", "dirlim.kernel", SPAN, None, None),
        (system, "kernel_union", "dirlim.kernel_union", "dirlim.kernel", SPAN, None, None),
        (graded.GradeMap, "__matmul__", "dirlim.GradeMap.__matmul__", "dirlim.compose", AGGREGATE, None, None),
        (graded.GradeMap, "tensor", "dirlim.GradeMap.tensor", "dirlim.tensor", AGGREGATE, None, None),
        (graded.GradedSpace, "tensor", "dirlim.GradedSpace.tensor", "dirlim.tensor", AGGREGATE, None, None),
        (linalg, "rref", "dirlim.rref", "dirlim.rref", AGGREGATE, _rref_cells, None),
        (tensor, "tensor_system", "dirlim.tensor_system", "dirlim.tensor", SPAN, None, None),
        (tensor, "fubini_compare", "dirlim.fubini_compare", "dirlim.fubini", SPAN, None, None),
        (inclusion, "inclusion_system", "dirlim.inclusion_system", "dirlim.inclusion", SPAN, None, None),
        (inclusion, "q_map", "dirlim.q_map", "dirlim.qmap", SPAN, None, None),
        (cli, "main", "cli.main", "cli", SPAN, None, None),
    ]
    return out


class Tracer:
    """Holds the wrappers' counts, self times and spans for one traced run."""

    def __init__(self):
        self.active = False
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list = []
        self.locality_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.ops = 0
        self.overhead_ratio = 0.0
        self._stack: list = []  # [child seconds] per open timed call
        self._current = 0  # innermost open span id
        self._root = 0
        self._next_id = 1
        self._patches: list = []
        self._originals: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Replace every planned callable by its wrapper; wrappers are built
        on the first call and reused after an uninstall."""
        if not self._patches:
            for owner, attr, name, group, kind, pre, post in plan():
                fn = owner.__dict__[attr]
                wrapper = self._wrap(fn, name, group, kind, pre, post)
                self._originals.append(fn)
                if isinstance(owner, type):
                    targets = [(owner, alias) for alias, value in vars(owner).items() if value is fn]
                else:
                    targets = [(mod, alias) for mod in _limfuse_modules()
                               for alias, value in vars(mod).items() if value is fn]
                self._patches += [(o, a, fn, wrapper) for o, a in targets]
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def unwrapped_bindings(self) -> list[str]:
        """Module or class attributes that still hold an original callable."""
        out = []
        originals = {id(fn) for fn in self._originals}
        for mod in _limfuse_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    out.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    out += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(value).items() if id(v) in originals]
        return out

    def _wrap(self, fn, name, group, kind, pre, post):
        tr = self
        calls = self.calls
        if kind == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tr.active:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        clock = time.perf_counter
        self_s = self.self_s
        span = kind == SPAN

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if pre is not None:
                pre(tr, args, kwargs)
            stack = tr._stack
            frame = [0.0]
            parent = tr._current
            if span:
                sid = tr._current = tr._next_id
                tr._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[group] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    tr._current = parent
                    tr.spans.append((sid, name, t0, t1, parent, tr._root))
            if post is not None:
                post(tr, result, args)
            return result
        return timed

    # -- operations ---------------------------------------------------------

    def begin_op(self, label: str):
        """Open the root span of one operation; its id tags all its spans."""
        self._root = self._current = self._next_id
        self._next_id += 1
        self._op_label = label
        self._op_start = time.perf_counter()
        self.active = True

    def end_op(self):
        self.active = False
        self.spans.append((self._root, self._op_label, self._op_start, time.perf_counter(), 0, self._root))
        self._current = self._root = 0
        self.ops += 1

    def add_counts(self, counts: dict):
        self.counts.update(counts)

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, n, s = self.counts, self.calls, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0
        weight_calls = n["catdata.weight_of"]
        fusion_calls = n["catdata.fusion_of"]
        limits = n["dirlim.direct_limit"]
        values = {
            "exact.ratfunc_new": n["exact.RatFunc.__init__"],
            "exact.poly_gcd_calls": n["exact.Poly.gcd"],
            "exact.ratfunc_self_s": s["exact.ratfunc"],
            "exact.format_calls": n["exact.format_ratfunc"],
            "catdata.weight_calls": weight_calls,
            "catdata.weight_computed": sum(n[f"catdata.{f}"] for f in _PARAM_WEIGHTS),
            "catdata.weight_hit_ratio": ratio(c["catdata.weight_hits"], weight_calls),
            "catdata.fusion_calls": fusion_calls,
            "catdata.fusion_hit_ratio": ratio(c["catdata.fusion_hits"], fusion_calls),
            "catdata.param_chain_calls": n["catdata.param_chain"],
            "catdata.weight_self_s": s["catdata.weight"],
            "catdata.fusion_self_s": s["catdata.fusion"],
            "fusion.monodromy_calls": n["fusion.monodromy"],
            "fusion.exponents": c["fusion.exponents"],
            "fusion.monodromy_self_s": s["fusion.monodromy"],
            "fusion.scan_calls": n["fusion.mueger_scan"],
            "fusion.scan_self_s": s["fusion.scan"],
            "fusion.ring_mul_calls": n["fusion.ring_mul"],
            "fusion.element_new": n["fusion.FusionElement.__init__"],
            "fusion.element_self_s": s["fusion.element"],
            "induction.locality_calls": n["induction.locality"],
            "induction.locality_repeat_ratio": ratio(c["induction.locality_repeats"], n["induction.locality"]),
            "induction.locality_fallbacks": c["induction.locality_fallbacks"],
            "induction.locality_self_s": s["induction.locality"],
            "induction.restrict_calls": n["induction.restrict_truncated"],
            "induction.restrict_self_s": s["induction.restrict"],
            "induction.summand_calls": n["induction.summand"],
            "induction.oracle_calls": n["induction.oracle"],
            "induction.frobenius_self_s": s["induction.frobenius"],
            "induction.min_weight_self_s": s["induction.min_weight"],
            "dirlim.validate_calls": n["dirlim.validate_system"],
            "dirlim.validate_per_limit": ratio(n["dirlim.validate_system"], limits),
            "dirlim.validate_self_s": s["dirlim.validate"],
            "dirlim.limit_self_s": s["dirlim.limit"],
            "dirlim.compose_calls": n["dirlim.GradeMap.__matmul__"],
            "dirlim.compose_self_s": s["dirlim.compose"],
            "dirlim.rref_calls": n["dirlim.rref"],
            "dirlim.rref_cells": c["dirlim.rref_cells"],
            "dirlim.rref_max_cols": c["dirlim.rref_max_cols"],
            "dirlim.rref_self_s": s["dirlim.rref"],
            "dirlim.maps_per_cover": ratio(c["dirlim.stored_maps"], c["dirlim.covers"]),
            "dirlim.universal_self_s": s["dirlim.universal"],
            "dirlim.kernel_self_s": s["dirlim.kernel"],
            "dirlim.tensor_self_s": s["dirlim.tensor"],
            "dirlim.qmap_self_s": s["dirlim.qmap"],
            "cli.calls": n["cli.main"],
            "cli.self_s": s["cli"],
            "cli.out_bytes": c["cli.out_bytes"],
            "trace.ops": self.ops,
            "trace.spans": len(self.spans),
            "trace.overhead_ratio": self.overhead_ratio,
        }
        assert list(values) == [m for m, _ in LAYER_METRICS]
        return values

    def write_spans(self, path: str):
        """Spans as [id, name, start, end, parent, operation], times in
        seconds from the first span."""
        t0 = min((sp[2] for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump([[i, nm, a - t0, b - t0, p, r] for i, nm, a, b, p, r in self.spans], fh)


def _limfuse_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "limfuse" or name.startswith("limfuse."))]

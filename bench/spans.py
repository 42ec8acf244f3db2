"""Spans around calls into nppreserve's modules, recorded from outside.

The tracer rebinds the public functions of each module (and the few
internal stages the per-layer metrics name) in every ``nppreserve``
namespace that holds them, so a call between modules passes through a
wrapper that records a span: name, start, end, parent span and phase.
Spans stay in memory and are written out when the run ends.  A target that
a later version of the program no longer has is skipped, and the metrics
built on it are left out of the report.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter

# (module, attribute, span name); "Class.method" patches the class.
SPANS = [
    ("polynomial", "square_free_decompose", "polynomial.sqfree"),
    ("polynomial", "sturm_count", "polynomial.sturm"),
    ("polynomial", "SturmChain.__init__", "polynomial.sturm"),
    ("polynomial", "SturmChain.count_roots", "polynomial.sturm"),
    ("halfline", "check_nonneg_halfline", "halfline.decide"),
    ("halfline", "polya_szego_certificate", "halfline.cert"),
    ("halfline", "polyroots", "halfline.roots"),
    ("preserver", "check_spectral", "preserver.spectral"),
    ("preserver", "check_p2", "preserver.p2"),
    ("cone", "check_ratio", "cone.ratio"),
    ("cone", "_scan_grid", "cone.grid"),
    ("cone", "certify_ratio", "cone.bernstein"),
    ("matrices", "falsify_random", "matrices.falsify"),
    ("matrices", "horner_matrix_eval", "matrices.horner"),
    ("cli", "parse_polynomial", "cli.parse"),
]


def _on_spectral(count, result):
    if not result.member:
        count["spectral_rejects"] += 1


def _on_ratio(count, result):
    if result.status.value == "fails":
        count["route_grid"] += 1
    elif result.status.value == "holds":
        count["route_bernstein" if isinstance(result.certificate, tuple) else "route_fast"] += 1


def _on_grid(count, result):
    for key in ("grid_levels", "grid_exact_checks"):
        count[key] += result[1].get(key, 0)


def _on_bernstein(count, result):
    for key in ("boxes_processed", "boxes_certified"):
        count[key] += result.budget_spent.get(key, 0)


HOOKS = {
    "preserver.spectral": _on_spectral,
    "cone.ratio": _on_ratio,
    "cone.grid": _on_grid,
    "cone.bernstein": _on_bernstein,
}


def _program_modules():
    return [m for name, m in sys.modules.items() if name == "nppreserve" or name.startswith("nppreserve.")]


def rebind(module: str, attribute: str, make):
    """Replace module.attribute by make(original) wherever nppreserve binds it.

    Returns a function that undoes the replacement, or None when the target
    does not exist.
    """
    owner = sys.modules.get(f"nppreserve.{module}")
    cls_name, _, method = attribute.rpartition(".")
    if cls_name:
        cls = getattr(owner, cls_name, None)
        original = cls.__dict__.get(method) if cls is not None else None
        if original is None:
            return None
        setattr(cls, method, make(original))
        return lambda: setattr(cls, method, original)
    original = getattr(owner, attribute, None)
    if original is None:
        return None
    replacement = make(original)
    bound = [m for m in _program_modules() if getattr(m, attribute, None) is original]
    for m in bound:
        setattr(m, attribute, replacement)

    def undo():
        for m in bound:
            setattr(m, attribute, original)

    return undo


class Tracer:
    """Span recorder; use ``with tracer.active(phase):`` around traced work."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, phase, ok]
        self.counts = {}  # phase -> Counter
        self.traced = set()  # span names whose target exists
        self.phase = "setup"
        self._stack = []
        self._undo = []

    def _make(self, name, hook=None, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                span = [name, clock(), 0, stack[-1] if stack else -1, self.phase, True]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[5] = False
                    raise
                finally:
                    span[2] = clock()
                    stack.pop()
                if hook is not None:
                    hook(self.counts.setdefault(self.phase, Counter()), result)
                if counter:
                    self.counts.setdefault(self.phase, Counter())[counter] += 1
                return result

            return traced

        return make

    def _count_calls(self, key):
        def make(fn):
            def counted(*args, **kwargs):
                self.counts.setdefault(self.phase, Counter())[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def install(self):
        for module, attribute, name in SPANS:
            counter = "sturm_chains" if attribute == "SturmChain.__init__" else None
            undo = rebind(module, attribute, self._make(name, HOOKS.get(name), counter))
            if undo is not None:
                self.traced.add(name)
                self._undo.append(undo)
        undo = rebind("matrices", "_TrialRandom", self._count_calls("trials"))
        if undo is not None:
            self.traced.add("matrices.trials")
            self._undo.append(undo)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    @contextlib.contextmanager
    def active(self, phase):
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def totals(self, phase):
        """Per span name: calls, inclusive ns, self ns, failed calls."""
        child = [0] * len(self.spans)
        for name, start, end, parent, ph, ok in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own, failed = Counter(), Counter(), Counter(), Counter()
        for i, (name, start, end, parent, ph, ok) in enumerate(self.spans):
            if ph != phase:
                continue
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]
            failed[name] += not ok
        return calls, incl, own, failed

    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        phases = sorted({s[4] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        pindex = {p: i for i, p in enumerate(phases)}
        doc = dict(meta, clock="perf_counter_ns", names=names, phases=phases,
                   fields=["name", "start_ns", "end_ns", "parent", "phase", "ok"],
                   spans=[[index[n], s, e, p, pindex[ph], int(ok)] for n, s, e, p, ph, ok in self.spans])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def ms(ns):
    return ns / 1e6


# name -> (unit, span names it needs, value from one pass); see the README for
# the end-to-end metric and workload each should move.
LAYER = {
    "polynomial.sqfree_calls": ("count", ["polynomial.sqfree"], lambda t: t.calls["polynomial.sqfree"]),
    "polynomial.sqfree_ms": ("ms", ["polynomial.sqfree"], lambda t: ms(t.own["polynomial.sqfree"])),
    "polynomial.sturm_chains": ("count", ["polynomial.sturm"], lambda t: t.count["sturm_chains"]),
    "polynomial.sturm_ms": ("ms", ["polynomial.sturm"], lambda t: ms(t.own["polynomial.sturm"])),
    "halfline.decide_calls": ("count", ["halfline.decide"], lambda t: t.calls["halfline.decide"]),
    "halfline.decide_calls_per_op": ("count/op", ["halfline.decide"], lambda t: t.calls["halfline.decide"] / t.ops),
    "halfline.decide_ms": ("ms", ["halfline.decide"], lambda t: ms(t.own["halfline.decide"])),
    "halfline.cert_ms": ("ms", ["halfline.cert"], lambda t: ms(t.own["halfline.cert"])),
    "halfline.roots_ms": ("ms", ["halfline.roots"], lambda t: ms(t.incl["halfline.roots"])),
    "halfline.cert_failed": ("count", ["halfline.cert"], lambda t: t.failed["halfline.cert"]),
    "preserver.spectral_ms": ("ms", ["preserver.spectral"], lambda t: ms(t.incl["preserver.spectral"])),
    "preserver.spectral_rejects": ("count", ["preserver.spectral"], lambda t: t.count["spectral_rejects"]),
    "preserver.p2_self_ms": ("ms", ["preserver.p2"], lambda t: ms(t.own["preserver.p2"])),
    "cone.ratio_calls": ("count", ["cone.ratio"], lambda t: t.calls["cone.ratio"]),
    "cone.ratio_ms": ("ms", ["cone.ratio"], lambda t: ms(t.incl["cone.ratio"])),
    "cone.route_fast": ("count", ["cone.ratio"], lambda t: t.count["route_fast"]),
    "cone.route_grid": ("count", ["cone.ratio"], lambda t: t.count["route_grid"]),
    "cone.route_bernstein": ("count", ["cone.ratio"], lambda t: t.count["route_bernstein"]),
    "cone.route_unknown": ("count", ["cone.ratio"], lambda t: t.calls["cone.ratio"] - t.count["route_fast"]
                           - t.count["route_grid"] - t.count["route_bernstein"]),
    "cone.grid_ms": ("ms", ["cone.grid"], lambda t: ms(t.incl["cone.grid"])),
    "cone.grid_levels": ("count", ["cone.grid"], lambda t: t.count["grid_levels"]),
    "cone.grid_exact_checks": ("count", ["cone.grid"], lambda t: t.count["grid_exact_checks"]),
    "cone.bernstein_ms": ("ms", ["cone.bernstein"], lambda t: ms(t.incl["cone.bernstein"])),
    "cone.boxes_processed": ("count", ["cone.bernstein"], lambda t: t.count["boxes_processed"]),
    "cone.boxes_certified": ("count", ["cone.bernstein"], lambda t: t.count["boxes_certified"]),
    "cone.box_yield": ("ratio", ["cone.bernstein"],
                       lambda t: t.count["boxes_certified"] / max(t.count["boxes_processed"], 1)),
    "matrices.trials": ("count", ["matrices.trials"], lambda t: t.count["trials"]),
    "matrices.horner_ms": ("ms", ["matrices.horner"], lambda t: ms(t.incl["matrices.horner"])),
    "matrices.sample_ms": ("ms", ["matrices.falsify"], lambda t: ms(t.own["matrices.falsify"])),
    "matrices.trial_us": ("us", ["matrices.falsify", "matrices.trials"],
                          lambda t: t.incl["matrices.falsify"] / 1e3 / max(t.count["trials"], 1)),
}


class _Pass:
    def __init__(self, tracer, phase, ops):
        self.calls, self.incl, self.own, self.failed = tracer.totals(phase)
        self.count = tracer.counts.get(phase, Counter())
        self.ops = ops


def layer_metrics(tracer, phases, ops):
    """Per-layer metrics: the median over the traced passes of each pass's total."""
    passes = [_Pass(tracer, phase, ops) for phase in phases]
    out = {}
    for name, (unit, needs, value) in LAYER.items():
        if all(n in tracer.traced for n in needs):
            out[name] = {"value": statistics.median(value(p) for p in passes), "unit": unit}
    return out


def peak_alloc(run_pass):
    """Largest tracemalloc peak of a single check_ratio call during run_pass(),
    in MiB."""
    peak = [0]

    def make(fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    undo = rebind("cone", "check_ratio", make)
    try:
        run_pass()
    finally:
        undo()
    return peak[0] / 2**20

"""Spans around the calls into cmcal's layers, and the per-layer metrics.

The tracer replaces public cmcal functions where their callers look them up
(a module global of the calling module, a class attribute, or the package
attribute the benchmark itself calls) with a wrapper that records one span
per call: name, start, end, parent span and the operation it belongs to.
Spans stay in memory and are written out when the run ends.  Nothing inside
``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

# Layer boundaries: (object path, attribute, span name).  The first part of a
# span name is the layer.  ``noise.exact_apply`` is ``calibration.apply`` as
# the noise module calls it to corrupt a distribution exactly: that work
# belongs to exact corruption, a noise-layer cost, and is kept apart from the
# mitigation ``calibration.apply`` so that each can be seen moving.
SITES = (
    ("cmcal.bench", "generate_architecture", "topology.arch"),
    ("cmcal", "generate_architecture", "topology.arch"),
    ("cmcal.strategies", "greedy_patch_plan", "topology.plan"),
    ("cmcal", "greedy_patch_plan", "topology.plan"),
    ("cmcal.noise.NoiseModel", "corrupted", "noise.corrupt"),
    ("cmcal.noise.NoiseModel", "marginal_after_noise", "noise.marginal"),
    ("cmcal.noise", "sample_distribution", "noise.sample"),
    ("cmcal.strategies", "sample_distribution", "noise.sample"),
    ("cmcal.noise", "apply_channels", "noise.exact_apply"),
    ("cmcal.strategies", "apply", "calibration.apply"),
    ("cmcal.bench", "apply", "calibration.apply"),
    ("cmcal.strategies", "assemble_for_measured", "calibration.assemble"),
    ("cmcal.bench", "assemble_for_measured", "calibration.assemble"),
    ("cmcal.strategies", "invert", "calibration.invert"),
    ("cmcal.bench", "invert", "calibration.invert"),
    ("cmcal.calibration.Distribution", "from_counts", "calibration.from_counts"),
    ("cmcal", "estimate_matrix", "calibration.estimate"),
    ("cmcal", "normalized_partial_trace", "calibration.estimate"),
    ("cmcal.strategies", "run_bare", "strategies.bare"),
    ("cmcal.strategies", "run_cmc", "strategies.cmc"),
    ("cmcal.strategies", "run_jigsaw", "strategies.jigsaw"),
    ("cmcal.strategies", "run_aim", "strategies.aim"),
    ("cmcal.strategies", "run_sim", "strategies.sim"),
    ("cmcal.bench", "one_norm", "bench.metrics"),
    ("cmcal.bench", "success_probability", "bench.metrics"),
    ("cmcal", "run_experiment", "bench.run_experiment"),
    ("cmcal.bench.CalibrationStore", "mitigate", "bench.mitigate"),
    ("cmcal.bench.CalibrationStore", "save", "bench.store_save"),
    ("cmcal.bench.CalibrationStore", "load", "bench.store_load"),
)

LAYERS = ("topology", "noise", "calibration", "strategies", "bench")


def _plan_attrs(args, kwargs, plan):
    return {"circuits": sum(1 << len(group[0]) for group in plan.groups)}


def _corrupt_attrs(args, kwargs, dist):
    return {"support": len(dist.entries)}


def _apply_attrs(args, kwargs, dist):
    cal, observed = args[0], args[1]
    return {
        "support_in": len(observed.entries),
        "support_out": len(dist.entries),
        "factors": len(cal.factors),
    }


ATTRS = {
    "topology.plan": _plan_attrs,
    "noise.corrupt": _corrupt_attrs,
    "calibration.apply": _apply_attrs,
}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None

    def doc(self):
        return {
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def _resolve(path):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """In-memory span recorder.  ``op`` is the index of the operation being
    measured, or None during set-up and checks."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, func, name):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for path, attr, name in SITES:
            owner = _resolve(path)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.doc()) + "\n")


def _per(total, count):
    return total / count if count else 0.0


def layer_metrics(tracer, ops, setups, measured_s, store_bytes, ops_per_s):
    """Per-layer metrics from the spans of a traced run.

    Times and calls of the measured phase are per operation; set-up figures
    are per set-up; plan figures are per planning call in any phase.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    measured = [
        (span, span.end - span.start, span.end - span.start - child[i])
        for i, span in enumerate(spans)
        if span.op is not None
    ]
    setup = [span for span in spans if span.op is None]

    def total(name):
        return sum(d for s, d, _ in measured if s.name == name)

    def calls(name):
        return sum(1 for s, _, _ in measured if s.name == name)

    def mean_attr(name, key, pool):
        vals = [s.attrs[key] for s in pool if s.name == name]
        return statistics.fmean(vals) if vals else 0.0

    plans = [s for s in spans if s.name == "topology.plan"]
    m = {}
    m["topology.plan_ms"] = (
        1e3 * _per(sum(s.end - s.start for s in plans), len(plans)), "ms")
    m["topology.plan_calls"] = (_per(calls("topology.plan"), ops), "calls/op")
    m["topology.circuits"] = (mean_attr("topology.plan", "circuits", plans), "count")
    m["noise.corrupt_s"] = (_per(total("noise.corrupt"), ops), "s/op")
    m["noise.corrupt_calls"] = (_per(calls("noise.corrupt"), ops), "calls/op")
    m["noise.corrupt_support"] = (
        mean_attr("noise.corrupt", "support", [s for s, _, _ in measured]), "entries")
    m["noise.sample_s"] = (_per(total("noise.sample"), ops), "s/op")
    m["noise.sample_calls"] = (_per(calls("noise.sample"), ops), "calls/op")
    m["noise.marginal_s"] = (_per(total("noise.marginal"), ops), "s/op")
    m["noise.marginal_calls"] = (_per(calls("noise.marginal"), ops), "calls/op")
    applies = [s for s, _, _ in measured if s.name == "calibration.apply"]
    m["calibration.apply_s"] = (_per(total("calibration.apply"), ops), "s/op")
    m["calibration.apply_calls"] = (_per(len(applies), ops), "calls/op")
    m["calibration.apply_support_in"] = (
        mean_attr("calibration.apply", "support_in", applies), "entries")
    m["calibration.apply_support_out"] = (
        mean_attr("calibration.apply", "support_out", applies), "entries")
    m["calibration.factors"] = (mean_attr("calibration.apply", "factors", applies), "count")
    m["calibration.assemble_s"] = (_per(total("calibration.assemble"), ops), "s/op")
    m["calibration.invert_s"] = (_per(total("calibration.invert"), ops), "s/op")
    m["calibration.from_counts_s"] = (_per(total("calibration.from_counts"), ops), "s/op")
    m["calibration.estimate_s"] = (
        _per(sum(s.end - s.start for s in setup if s.name == "calibration.estimate"),
             setups), "s")
    for method in ("bare", "cmc", "jigsaw", "aim", "sim"):
        durs = [d for s, d, _ in measured if s.name == f"strategies.{method}"]
        m[f"strategies.{method}_ms"] = (1e3 * statistics.median(durs) if durs else 0.0, "ms")
    m["bench.metrics_ms"] = (1e3 * _per(total("bench.metrics"), ops), "ms/op")
    for kind in ("save", "load"):
        durs = [s.end - s.start for s in spans if s.name == f"bench.store_{kind}"]
        m[f"bench.store_{kind}_ms"] = (1e3 * _per(sum(durs), len(durs)), "ms")
    m["bench.store_bytes"] = (store_bytes, "bytes")
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span, _, own in measured:
        self_by_layer[span.name.split(".")[0]] += own
    for layer, own in self_by_layer.items():
        m[f"self.{layer}_pct"] = (100.0 * _per(own, measured_s), "%")
    m["self.other_pct"] = (100.0 * _per(measured_s - sum(self_by_layer.values()), measured_s), "%")
    m["trace.spans"] = (len(spans), "count")
    m["trace.ops_per_s"] = (ops_per_s, "1/s")
    return m

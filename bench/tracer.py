"""Per-layer tracing of matmeasure from outside the package.

The tracer wraps the public functions of each layer and rebinds every
reference to them: the defining module, each ``matmeasure`` module that
imported the name (``measures.bipartite_max_flow``,
``reconstruction.lp_distance``, ``profiles.hausdorff_distance``, ...) and
the package namespace.  Methods are wrapped on their class.  Nothing inside
``src/`` changes.

Spans are aggregated per (function, parent function) instead of kept one by
one, because a single op can make tens of thousands of flow solves.  Self
time is a span's duration minus the time spent in its traced children,
wrapper bookkeeping included, so tracer overhead is not charged to a caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (layer metric name, module, attribute) of each traced function.
FUNCTIONS = (
    ("flows.max_flow", "matmeasure.flows", "bipartite_max_flow"),
    ("measures.lp_distance", "matmeasure.measures", "lp_distance"),
    ("measures.lp_feasible", "matmeasure.measures", "lp_feasible"),
    ("measures.hausdorff", "matmeasure.measures", "hausdorff_distance"),
    ("matrices.orbit_measures", "matmeasure.matrices", "orbit_measures"),
    ("matrices.norm_inf_to_1", "matmeasure.matrices", "norm_inf_to_1"),
    ("profiles.sample_profile", "matmeasure.profiles", "sample_profile"),
    ("profiles.exact_orbit_profile", "matmeasure.profiles", "exact_orbit_profile"),
    ("profiles.one_profile_distance", "matmeasure.profiles", "one_profile_distance"),
    ("profiles.action_distance", "matmeasure.profiles", "action_distance"),
    ("reconstruction.reconstruct", "matmeasure.reconstruction", "reconstruct"),
    ("reconstruction.min_pairwise_lp", "matmeasure.reconstruction", "min_pairwise_lp"),
    ("reconstruction.switching_witness", "matmeasure.reconstruction", "switching_witness"),
    ("graph_props.row_sums_from_measure", "matmeasure.graph_props", "row_sums_from_measure"),
    ("graph_props.jacobi_eigh", "matmeasure.graph_props", "jacobi_eigh"),
    ("graph_props.hom_star", "matmeasure.graph_props", "hom_star"),
    ("graph_props.hom_cycle", "matmeasure.graph_props", "hom_cycle"),
    ("fileio.load_measured", "matmeasure.fileio", "load_measured"),
    ("cli.main", "matmeasure.cli", "main"),
)
# (layer metric name, module, class, method) of each traced method.
METHODS = (
    ("measures.point_measure", "matmeasure.measures", "WeightedPointMeasure", "__init__"),
    ("measures.measure_set", "matmeasure.measures", "MeasureSet", "from_measures"),
    ("reconstruction.orbit_size", "matmeasure.reconstruction", "MeasureOracle", "orbit_size"),
    ("reconstruction.orbit_supports", "matmeasure.reconstruction", "MeasureOracle",
     "orbit_supports"),
)
SPAN_NAMES = tuple(t[0] for t in FUNCTIONS) + tuple(t[0] for t in METHODS)
FLOW = "flows.max_flow"
PROFILE_CALLERS = ("profiles.one_profile_distance", "profiles.action_distance")

# Derived layer metrics and their units, besides <span>.calls and <span>.self_s.
DERIVED_UNITS = {
    "flows.max_flow.edges": "count",
    "flows.max_flow.us_per_call": "us",
    "measures.lp_distance.flows_per_call": "1/call",
    "measures.lp_distance.zero_hits": "count",
    "measures.hausdorff.pair_ratio": "ratio",
    "measures.measure_set.kept_ratio": "ratio",
    "profiles.hausdorff_terms_per_op": "1/op",
    "reconstruction.min_pairwise_lp.lp_calls": "count",
    "reconstruction.oracle_queries": "count",
}


class _Agg:
    __slots__ = ("calls", "total", "self_time", "no_flow")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.no_flow = 0  # calls that made no flow solve


class Tracer:
    """Context manager that traces the layers while it is active."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], _Agg] = defaultdict(_Agg)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func, before=None, after=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            # The parent's child time runs from here to after the ``after``
            # hook, so the wrapper's own work is in nobody's self time.
            outer = clock()
            parent = stack[-1] if stack else None
            frame = [name, 0.0, 0]  # name, child time, flow solves below
            stack.append(frame)
            try:
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    agg = spans[(name, parent[0] if parent else None)]
                    agg.calls += 1
                    agg.total += elapsed
                    agg.self_time += elapsed - frame[1]
                    if frame[2] == 0:
                        agg.no_flow += 1
                    if parent is not None:
                        parent[2] += frame[2] + (name == FLOW)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                if parent is not None:
                    parent[1] += clock() - outer

        return traced

    # Hooks that count the work a call was given.  An ``after`` hook is in no
    # span's self time; a ``before`` hook is in the caller's.
    def _count_edges(self, args, kwargs, result):
        allowed = args[2] if len(args) > 2 else kwargs["allowed"]
        self.counters["flow_edges"] += int(np.count_nonzero(allowed))

    def _count_pairs(self, args, kwargs, result):
        x = args[0] if args else kwargs["x"]
        y = args[1] if len(args) > 1 else kwargs["y"]
        self.counters["hausdorff_pairs"] += len(x) * len(y)

    def _materialize(self, args, kwargs):
        # Build the input measures before the span opens, so that the work of
        # a generator argument is charged to the caller, not to the dedup.
        if len(args) > 1:
            measures = list(args[1])
            args = (args[0], measures) + tuple(args[2:])
        else:
            measures = kwargs["measures"] = list(kwargs["measures"])
        self.counters["measure_set_inputs"] += len(measures)
        return args, kwargs

    def _count_kept(self, args, kwargs, result):
        self.counters["measure_set_kept"] += len(result)

    def __enter__(self) -> "Tracer":
        hooks = {
            "flows.max_flow": (None, self._count_edges),
            "measures.hausdorff": (None, self._count_pairs),
            "measures.measure_set": (self._materialize, self._count_kept),
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "matmeasure" or name.startswith("matmeasure.")]
        for name, module_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue  # the layer no longer has this function: it reports 0
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)
        for name, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            descriptor = getattr(cls, "__dict__", {}).get(attr)
            if descriptor is None:
                continue
            before, after = hooks.get(name, (None, None))
            if isinstance(descriptor, classmethod):
                wrapped = classmethod(self._wrap(name, descriptor.__func__, before, after))
            else:
                wrapped = self._wrap(name, descriptor, before, after)
            self._undo.append((cls, attr, descriptor))
            setattr(cls, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _calls(self, name: str, parent: str | None = ...) -> int:
        return sum(agg.calls for (span, caller), agg in self.spans.items()
                   if span == name and (parent is ... or caller == parent))

    def metrics(self, dist_ops: int) -> dict[str, float]:
        """Layer metrics of everything traced so far."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self._calls(name)
            out[f"{name}.self_s"] = sum(agg.self_time for (span, _), agg in self.spans.items()
                                        if span == name)
        flow_calls = out["flows.max_flow.calls"]
        flow_time = sum(agg.total for (span, _), agg in self.spans.items()
                        if span == "flows.max_flow")
        lp_calls = out["measures.lp_distance.calls"]
        pairs = self.counters["hausdorff_pairs"]
        inputs = self.counters["measure_set_inputs"]
        out["flows.max_flow.edges"] = self.counters["flow_edges"]
        out["flows.max_flow.us_per_call"] = 1e6 * flow_time / flow_calls if flow_calls else 0.0
        out["measures.lp_distance.flows_per_call"] = (
            self._calls("flows.max_flow", "measures.lp_distance") / lp_calls if lp_calls else 0.0)
        out["measures.lp_distance.zero_hits"] = sum(
            agg.no_flow for (span, _), agg in self.spans.items() if span == "measures.lp_distance")
        out["measures.hausdorff.pair_ratio"] = (
            self._calls("measures.lp_distance", "measures.hausdorff") / pairs if pairs else 0.0)
        out["measures.measure_set.kept_ratio"] = (
            self.counters["measure_set_kept"] / inputs if inputs else 0.0)
        terms = sum(self._calls("measures.hausdorff", caller) for caller in PROFILE_CALLERS)
        out["profiles.hausdorff_terms_per_op"] = terms / dist_ops if dist_ops else 0.0
        out["reconstruction.min_pairwise_lp.lp_calls"] = self._calls(
            "measures.lp_distance", "reconstruction.min_pairwise_lp")
        out["reconstruction.oracle_queries"] = (out["reconstruction.orbit_size.calls"]
                                                + out["reconstruction.orbit_supports.calls"])
        return out


def metric_units() -> dict[str, str]:
    """Unit of every metric that ``Tracer.metrics`` reports."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units

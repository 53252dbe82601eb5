"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each ``sparse2dc`` module.
Many modules bind imported names directly (``from .potential import
mad_exact``), so a wrapper is bound in every module that holds the function,
not only in the defining one; :meth:`Tracer.install` then fails if any
module still holds an unwrapped original.

Each wrapped call is a span.  Its self time is its duration minus the time
covered by wrapped calls inside it.  Hot leaf calls (Graph construction,
the distance-2 neighborhood, validation, max-flow, ...) are kept only as a
call count plus summed time; other spans are also recorded one by one,
tagged with the operation that caused them.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from sparse2dc import coloring, discharging, flow, graph, io, matching, potential, reductions, verify

#: (layer, module or class, attribute, leaf).  A leaf keeps no span records.
TARGETS = (
    ("graph.build", graph.Graph, "__init__", True),
    ("graph.runs", graph, "degree_two_runs", True),
    ("graph.d2", graph, "two_distance_neighborhood", True),
    ("graph.d2", graph, "d_star", True),
    ("graph.square", graph, "square", True),
    ("io.parse", io, "autodetect", False),
    ("potential.mad", potential, "mad_exact", False),
    ("potential.rho_star", potential, "rho_star", False),
    ("flow.maxflow", flow.FlowNetwork, "max_flow", True),
    ("coloring.validate", coloring, "is_valid_2distance", True),
    ("coloring.chi2", coloring, "chi2_exact", False),
    ("coloring.search", coloring, "color_2distance", False),
    ("coloring.available", coloring, "available_colors", True),
    ("matching", matching, "maximum_bipartite_matching", True),
    ("reductions.solve", reductions, "constructive_color", False),
    ("reductions.detect", reductions, "detect_configuration", False),
    ("reductions.apply", reductions, "apply_reduction", False),
    ("reductions.extend", reductions, "extend_coloring", False),
    ("reductions.classify", reductions, "classify_vertices", False),
    ("discharging.run", discharging, "run_discharge", False),
    ("verify.hunt", verify, "hunt", False),
    ("verify.gen", verify, "random_capped_instance", False),
    ("verify.gen", verify, "random_hub_instance", False),
    ("verify.gen", verify, "random_tree_instance", False),
)

#: Span records kept per run; later spans still count in the aggregates.
SPAN_CAP = 200_000

#: Generators whose candidates pass an exact density filter; their accept
#: ratio is instances returned over ``mad_exact`` calls made inside them.
FILTERED_GENERATORS = ("random_capped_instance", "random_hub_instance")

_TIMED_LAYERS = sorted({t[0] for t in TARGETS} - {"graph.square"})
#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    [(f"{layer}.{what}", unit) for layer in _TIMED_LAYERS
     for what, unit in (("calls", "count"), ("self_s", "s"))]
    + [("graph.square.self_s", "s"), ("io.parse.bytes", "bytes"),
       ("potential.mad.rounds", "count"), ("flow.nodes", "count"),
       ("flow.arcs", "count"), ("coloring.validate.vertices", "count"),
       ("reductions.steps_per_solve", "count"), ("reductions.splices", "count"),
       ("verify.hunt.findings", "count"), ("verify.gen.accept_ratio", "ratio")]
    + [(f"reductions.fired.{kind}", "count") for kind in reductions.KINDS]
    + [("trace.overhead_ratio", "ratio")]
)

#: Counters the per-layer table predicts to be non-zero, and zero, per
#: workload; a traced run that disagrees fails, so a missed binding shows.
EXPECT_NONZERO = {
    "large-solve": (
        "graph.build.calls", "graph.runs.calls", "graph.d2.calls", "io.parse.calls",
        "potential.mad.calls", "flow.maxflow.calls", "coloring.validate.calls",
        "coloring.available.calls", "reductions.solve.calls", "reductions.detect.calls",
        "reductions.apply.calls", "reductions.extend.calls", "reductions.fired.DegreeOne",
    ),
    "hunt-stream": (
        "graph.build.calls", "graph.runs.calls", "graph.d2.calls", "potential.mad.calls",
        "flow.maxflow.calls", "coloring.validate.calls", "reductions.solve.calls",
        "reductions.detect.calls", "reductions.apply.calls", "reductions.extend.calls",
        "reductions.classify.calls", "discharging.run.calls", "verify.hunt.calls",
        "verify.gen.calls",
    ),
    "exact-oracles": (
        "graph.build.calls", "graph.square.self_s", "io.parse.calls", "potential.mad.calls",
        "potential.mad.rounds", "potential.rho_star.calls", "flow.maxflow.calls",
        "coloring.chi2.calls",
    ),
}
EXPECT_ZERO = {
    "large-solve": ("discharging.", "verify."),
    "hunt-stream": ("io.",),
    "exact-oracles": ("reductions.", "discharging.", "verify."),
}


class KindLog:
    """Records the configuration kind of every applied reduction.

    Always installed, traced or not, because the kinds fired are part of
    the answer digest; it adds one call per reduction step, each of which
    rebuilds the graph.
    """

    def __init__(self):
        self.kinds: list[str] = []
        original = reductions.apply_reduction

        def apply_reduction(g, cfg, *args, **kwargs):
            self.kinds.append(cfg.kind)
            return original(g, cfg, *args, **kwargs)

        reductions.apply_reduction = apply_reduction


def _holders(target):
    """Every sparse2dc module attribute name bound to ``target``."""
    for name, module in list(sys.modules.items()):
        if name == "sparse2dc" or name.startswith("sparse2dc."):
            for attr, value in vars(module).items():
                if value is target:
                    yield module, attr


class Tracer:
    """Aggregated per-layer counters plus span records, by rebinding."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()
        self.spans: list[list] = []
        self.op = -1
        self._child = [0.0]
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._gen_depth = 0

    def install(self) -> None:
        for layer, owner, attr, leaf in TARGETS:
            if isinstance(owner, type):
                original = vars(owner)[attr]
                self._bind(owner, attr, self._wrap(layer, attr, original, leaf))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, attr, original, leaf)
            for module, name in list(_holders(original)):
                self._bind(module, name, wrapper)
            for _, name in _holders(original):
                raise RuntimeError(f"{name} still unwrapped after install")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _bind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer, attr, fn, leaf):
        calls, self_s, extra, child, spans, opened = (
            self.calls, self.self_s, self.extra, self._child, self.spans, self._open)
        before, after = self._hooks(layer, attr)
        tracer = self

        def traced(*args, **kwargs):
            token = before(args) if before else None
            record = not leaf and len(spans) < SPAN_CAP
            if record:
                opened.append(len(spans))
                spans.append([layer, tracer.op, opened[-2] if len(opened) > 1 else -1, 0.0, 0.0])
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                inner = child.pop()
                child[-1] += end - start
                calls[layer] += 1
                self_s[layer] += end - start - inner
                if record:
                    span = spans[opened.pop()]
                    span[3], span[4] = start, end
                if after:
                    after(args, token)
            if layer == "reductions.apply":
                extra["reductions.splices"] += len(result.recorded.get("splices", ()))
            elif layer == "verify.hunt":
                extra["verify.hunt.findings"] += len(result.findings)
            elif attr in FILTERED_GENERATORS:
                extra["verify.gen.accepted"] += 1
            return result

        return traced

    def _hooks(self, layer, attr):
        """(before, after) callbacks that read sizes from the arguments."""
        extra, calls = self.extra, self.calls
        if layer == "io.parse":
            return lambda args: extra.update({"io.parse.bytes": len(args[0])}), None
        if layer == "flow.maxflow":
            def count_network(args):
                net = args[0]
                extra["flow.nodes"] += net.size
                extra["flow.arcs"] += len(net.to) // 2
            return count_network, None
        if layer == "coloring.validate":
            return lambda args: extra.update({"coloring.validate.vertices": args[0].n}), None
        if layer == "potential.mad":
            def start_mad(args):
                if self._gen_depth:
                    extra["verify.gen.mad_calls"] += 1
                return calls["flow.maxflow"]
            def end_mad(args, before):
                extra["potential.mad.rounds"] += calls["flow.maxflow"] - before
            return start_mad, end_mad
        if attr in FILTERED_GENERATORS:
            def enter(args):
                self._gen_depth += 1
            def leave(args, token):
                self._gen_depth -= 1
            return enter, leave
        return None, None

    def metrics(self, passes: int, kinds: list[str]) -> dict[str, float]:
        """Every per-layer metric as an average over ``passes`` traced passes
        (``trace.overhead_ratio`` is filled in by the caller)."""
        values: dict[str, float] = {}
        for name, _unit in LAYER_METRICS:
            layer, _, what = name.rpartition(".")
            if what == "calls":
                values[name] = self.calls[layer] / passes
            elif what == "self_s":
                values[name] = self.self_s[layer] / passes
            else:
                values[name] = self.extra[name] / passes
        solves = self.calls["reductions.solve"]
        values["reductions.steps_per_solve"] = (
            self.calls["reductions.apply"] / solves if solves else 0.0)
        attempts = self.extra["verify.gen.mad_calls"]
        values["verify.gen.accept_ratio"] = (
            self.extra["verify.gen.accepted"] / attempts if attempts else 0.0)
        fired = Counter(kinds)
        for kind in reductions.KINDS:
            values[f"reductions.fired.{kind}"] = fired[kind] / passes
        values["trace.overhead_ratio"] = 0.0
        return values


def expectation_errors(workload: str, values: dict[str, float]) -> list[str]:
    """Predicted non-zero counters that read zero, and the reverse."""
    errors = [f"{name} is zero" for name in EXPECT_NONZERO[workload] if not values[name]]
    for prefix in EXPECT_ZERO[workload]:
        errors += [f"{name} = {value} is not zero" for name, value in values.items()
                   if name.startswith(prefix) and value]
    return errors

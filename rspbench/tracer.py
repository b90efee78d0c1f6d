"""Outside-in tracer for the rsp_sim layers.

The tracer changes no program file. It wraps every public function of each
traced module, and the constructors of ``FockState`` and ``DensityOperator``,
in a span recorder. ``protocol`` and ``analysis`` import ``apply``,
``herald``, ``project``, ``expectation`` and ``tensor`` by name, so patching
only the defining module would miss the pipeline's calls: every module-level
binding of a traced function in every loaded ``rsp_sim`` module is replaced,
and all are restored on exit.

Spans are kept in memory as ``[name, parent, start, end, op]`` and written
out at the end; a span's self time is its duration minus the part of it that
its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("fock", "elements", "measurement", "protocol", "analysis",
          "config", "scenarios", "cli")
TRACED_CLASSES = (("fock", "FockState"), ("fock", "DensityOperator"))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to its own interval.

    ``spans`` is a sequence of ``(parent, start, end)``; ``parent`` is the
    index of the enclosing span, or -1 for a root.
    """
    children = defaultdict(list)
    for i, (parent, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _apply_kets(tracer, args, kwargs, result):
    tracer.counts["elements.apply.kets_out"] += len(result.amps)


def _herald_kets(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    tracer.counts["measurement.herald.kets_in"] += len(state.amps)
    tracer.counts["measurement.herald.kets_kept"] += len(result[1].amps)


def _shared_n(tracer, args, kwargs):
    tracer.shared_n.add(args[0] if args else kwargs["n"])


def _rendered_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.bytes_out"] += len(result.encode("utf-8"))


# Counters recorded at the same boundaries as the spans: on entry, so that a
# call that raises still counts its argument, or on a successful return.
ON_ENTRY = {
    "protocol.shared_state": _shared_n,
}
ON_RETURN = {
    "elements.apply": _apply_kets,
    "measurement.herald": _herald_kets,
    "cli.render_csv": _rendered_bytes,
    "cli.render_json": _rendered_bytes,
}


class Tracer:
    """Records spans around calls into the rsp_sim layers.

    Use as a context manager; call ``begin_op`` / ``end_op`` around each
    operation so that its spans share an operation id.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.ops = 0
        self.op_seconds = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.shared_n: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rsp_sim.{layer}")
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "rsp_sim" or name.startswith("rsp_sim.")]
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for layer, name in TRACED_CLASSES:
            cls = getattr(importlib.import_module(f"rsp_sim.{layer}"), name)
            self._patch(cls, "__init__", self._wrap(f"{layer}.{name}", cls.__init__))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        on_entry, on_return = ON_ENTRY.get(name), ON_RETURN.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_entry is not None:
                on_entry(self, args, kwargs)
            span = [index, stack[-1] if stack else -1, clock(), 0.0, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    # operations -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.shared_n = set()

    def end_op(self, seconds: float) -> None:
        """Close the current operation, which took ``seconds`` of wall time."""
        self.ops += 1
        self.op_seconds += seconds
        self.counts["protocol.shared_state.distinct"] += len(self.shared_n)
        self.op = -1

    # results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per-name call counts and self seconds, counters and operation
        totals, as plain sums that add across workers."""
        own = self_times([(s[1], s[2], s[3]) for s in self.spans])
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            name = self.names[span[0]]
            calls[name] += 1
            self_s[name] += seconds
        return {"ops": self.ops, "op_seconds": self.op_seconds,
                "calls": dict(calls), "self_s": dict(self_s),
                "counts": dict(self.counts)}

    def span_rows(self) -> list[list]:
        """Spans as ``[op, parent, name, start, end]`` rows for writing out."""
        return [[s[4], s[1], self.names[s[0]], s[2], s[3]] for s in self.spans]


def merge_totals(parts) -> dict:
    merged = {"ops": 0, "op_seconds": 0.0, "calls": defaultdict(int),
              "self_s": defaultdict(float), "counts": defaultdict(float)}
    for part in parts:
        merged["ops"] += part["ops"]
        merged["op_seconds"] += part["op_seconds"]
        for key in ("calls", "self_s", "counts"):
            for name, value in part[key].items():
                merged[key][name] += value
    return merged


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per operation unless it is a ratio."""
    ops = max(totals["ops"], 1)
    calls, self_s, counts = totals["calls"], totals["self_s"], totals["counts"]

    def ms(*names):
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names) / ops, "ms"

    def per_op(value, unit="count"):
        return value / ops, unit

    def ratio(num, den):
        return (num / den if den else 0.0), "1"

    metrics = {
        "elements.apply.self_ms": ms("elements.apply"),
        "elements.apply.calls": per_op(calls.get("elements.apply", 0)),
        "elements.apply.kets_out": per_op(counts.get("elements.apply.kets_out", 0)),
        "measurement.herald.keep_ratio": ratio(
            counts.get("measurement.herald.kets_kept", 0),
            counts.get("measurement.herald.kets_in", 0)),
        "measurement.herald.self_ms": ms("measurement.herald"),
        "measurement.condition_on_povm.self_ms": ms("measurement.condition_on_povm"),
        "measurement.project.self_ms": ms("measurement.project"),
        "protocol.shared_state.calls": per_op(calls.get("protocol.shared_state", 0)),
        "protocol.shared_state.distinct_ratio": ratio(
            counts.get("protocol.shared_state.distinct", 0),
            calls.get("protocol.shared_state", 0)),
        "protocol.shared_state.self_ms": ms("protocol.shared_state"),
    }
    for name in ("FockState", "make_fock", "tensor", "superpose", "expectation",
                 "operator_distance"):
        metrics[f"fock.{name}.calls"] = per_op(calls.get(f"fock.{name}", 0))
        metrics[f"fock.{name}.self_ms"] = ms(f"fock.{name}")
    metrics.update({
        "analysis.count_table.per_correlation": ratio(
            calls.get("analysis.count_table", 0), calls.get("analysis.correlation", 0)),
        "analysis.fit_fringe.self_ms": ms("analysis.fit_fringe"),
        "analysis.sample.self_ms": ms("analysis.sample_counts",
                                      "analysis.sample_count_table",
                                      "analysis.sample_fringe_scan"),
        "config.load_config.self_ms": ms("config.load_config"),
        "scenarios.run_scenario.self_ms": ms("scenarios.run_scenario"),
        "cli.render.self_ms": ms("cli.render_csv", "cli.render_json"),
        "cli.bytes_out": per_op(counts.get("cli.bytes_out", 0), "B"),
    })
    wall = totals["op_seconds"]
    for layer in LAYERS:
        layer_self = sum(s for n, s in self_s.items() if n.startswith(layer + "."))
        metrics[f"{layer}.share"] = ratio(layer_self, wall)
    return metrics

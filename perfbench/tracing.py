"""In-memory spans around diffcap's layers, and the per-layer numbers from them.

The traced run rebinds module attributes of the imported ``diffcap`` package
(and wraps the caller-supplied ``d_upper``) so that every call into a layer
opens a span.  Nothing under ``src/`` changes and nothing outside the
benchmark process sees the wrappers; ``uninstall`` puts the originals back.

Calls that happen once per grid step (a step of the stepper, a forcing
evaluation, a state combination) would cost more to record one by one than
they take, so they go into aggregate spans: one record per parent span and
name, holding the summed busy time and the call count.  Calls in one thread
nest strictly, so siblings never overlap and an aggregate's busy time is
time its parent did not spend itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: layer names; a span's layer is the part of its name before the first dot
LAYERS = ("bench", "quadrature", "diffusive", "steppers", "oracle", "analysis", "cli")

#: what ``layer_metrics`` reports, with units
UNITS = {
    "steppers.ns_per_node_step": "ns",
    "steppers.ns_per_node_step.n_low": "ns",
    "steppers.ns_per_node_step.n_mid": "ns",
    "steppers.ns_per_node_step.n_high": "ns",
    "steppers.forcing_calls_per_step": "1/step",
    "steppers.forcing_s": "s",
    "steppers.assembly_s": "s",
    "quadrature.rule_s": "s",
    "quadrature.rule_calls_per_request": "1/request",
    "diffusive.grid_s": "s",
    "diffusive.build_system_s": "s",
    "diffusive.build_system_calls_per_request": "1/request",
    "oracle.quad_calls_per_point": "1/point",
    "oracle.brute_force_s": "s",
    "oracle.reference_quadrature_s": "s",
    "analysis.self_s": "s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "count", "busy",
                 "aggregate", "attrs", "children", "in_steppers")

    def __init__(self, id, name, start, parent, request, aggregate=False):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.count = 0
        self.busy = 0.0
        self.aggregate = aggregate
        self.attrs = None
        self.children = None
        self.in_steppers = name.startswith("steppers.")

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, "count": self.count,
                "busy": self.busy, "aggregate": self.aggregate, "attrs": self.attrs}


class Tracer:
    """Spans of the requests of one run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[tuple[Span, float]] = []
        self.request: str | None = None
        #: (request, counter, name of the innermost open span) -> count
        self.counts: dict[tuple[str, str, str], int] = defaultdict(int)

    def begin(self, name: str) -> Span:
        now = perf_counter()
        parent = self.stack[-1][0].id if self.stack else None
        span = Span(len(self.spans), name, now, parent, self.request)
        self.spans.append(span)
        self.stack.append((span, now))
        return span

    def begin_aggregate(self, name: str) -> Span:
        parent = self.stack[-1][0]
        if parent.children is None:
            parent.children = {}
        span = parent.children.get(name)
        now = perf_counter()
        if span is None:
            span = Span(len(self.spans), name, now, parent.id, self.request, aggregate=True)
            self.spans.append(span)
            parent.children[name] = span
        self.stack.append((span, now))
        return span

    def end(self) -> None:
        span, started = self.stack.pop()
        now = perf_counter()
        span.end = now
        span.busy += now - started
        span.count += 1

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.request, name, self.stack[-1][0].name)] += n

    def write(self, path: Path) -> None:
        """One JSON object per line: the spans, then the counters."""
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.record()) + "\n")
            for (request, name, within), n in self.counts.items():
                fh.write(json.dumps({"counter": name, "request": request, "within": within,
                                     "count": n}) + "\n")


# --- self time ----------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's busy time minus the part of it its children cover.

    A plain child covers its [start, end] interval; an aggregate child
    covers its busy time, which lies in gaps between its plain siblings.
    """
    plain: dict[int, list[tuple[float, float]]] = defaultdict(list)
    summed: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is None:
            continue
        if span.aggregate:
            summed[span.parent] += span.busy
        else:
            plain[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        inside = covered(plain[span.id], span.start, span.end) if span.id in plain else 0.0
        out[span.id] = span.busy - inside - summed.get(span.id, 0.0)
    return out


# --- instrumentation ----------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _aggregated(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        if tracer.request is None:
            return fn(*args, **kwargs)
        tracer.begin_aggregate(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _stepped(tracer: Tracer, fn):
    """iter_solution with every resumption timed as one ``steppers.step`` call."""

    def wrapper(problem, rule, grid, *args, **kwargs):
        gen = fn(problem, rule, grid, *args, **kwargs)
        if tracer.request is None:
            yield from gen
            return
        k_star = kwargs.get("k_star", args[1] if len(args) > 1 else None)
        first = True
        while True:
            span = tracer.begin_aggregate("steppers.step")
            try:
                state = next(gen)
            except StopIteration:
                return
            finally:
                tracer.end()
            if span.attrs is None:
                span.attrs = {"N": grid.n_steps, "K": k_star or rule.npoints, "steps": 0}
            if not first:
                span.attrs["steps"] += 1
            first = False
            yield state

    return wrapper


def _forcing(tracer: Tracer, d_upper):
    """d_upper timed and counted when the stepper calls it; the oracles'
    calls pass straight through and stay in their own span's self time."""

    def wrapper(t):
        stack = tracer.stack
        if not stack or not stack[-1][0].in_steppers:
            return d_upper(t)
        tracer.begin_aggregate("steppers.forcing")
        try:
            return d_upper(t)
        finally:
            tracer.end()

    return wrapper


class _CountingIntegrate:
    """Stands in for ``scipy.integrate`` inside the oracle module."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._tracer = tracer
        self._module = module

    def quad(self, *args, **kwargs):
        if self._tracer.request is not None:
            self._tracer.count("oracle.quad_calls")
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer, lib) -> list[tuple[object, str, object]]:
    """Rebind the layer entry points of ``lib``; returns what ``uninstall`` needs."""
    saved: list[tuple[object, str, object]] = []

    def rebind(module, attr, make):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def span(name):
        return lambda fn: _spanned(tracer, name, fn)

    def make_problem(fn):
        inner = _spanned(tracer, "oracle.make_problem", fn)

        def wrapper(*args, **kwargs):
            problem = inner(*args, **kwargs)
            if tracer.request is None:
                return problem
            return dataclasses.replace(problem, d_upper=_forcing(tracer, problem.d_upper))

        return wrapper

    q, d, s, o, a, c = lib.quadrature, lib.diffusive, lib.steppers, lib.oracle, lib.analysis, lib.cli
    for module in (q, a, c):
        rebind(module, "gauss_laguerre_rule", span("quadrature.gauss_laguerre_rule"))
    for module in (s, c):
        rebind(module, "truncate_rule", span("quadrature.truncate_rule"))
    for module, attr in ((d, "uniform_grid"), (a, "uniform_grid"), (c, "uniform_grid"),
                         (c, "graded_grid")):
        rebind(module, attr, span("diffusive.grid"))
    for module in (s, a, c):
        rebind(module, "build_system", span("diffusive.build_system"))
    for module in (s, c):
        rebind(module, "evaluate_derivative", span("steppers.evaluate_derivative"))
    for module in (s, a):
        rebind(module, "iter_solution", lambda fn: _stepped(tracer, fn))
        for attr in ("quadrature_coefficients", "state_combination"):
            rebind(module, attr, lambda fn: _aggregated(tracer, "steppers.assembly", fn))
    for module in (o, c):
        rebind(module, "make_problem", make_problem)
    rebind(c, "corpus_function", span("oracle.corpus_function"))
    for module in (a, c):
        rebind(module, "brute_force_caputo", span("oracle.brute_force_caputo"))
    rebind(a, "reference_quadrature", span("oracle.reference_quadrature"))
    rebind(o, "integrate", lambda module: _CountingIntegrate(tracer, module))
    for module in (a, c):
        rebind(module, "decompose_error", span("analysis.decompose_error"))
    rebind(c, "fit_rate", span("analysis.fit_rate"))
    for attr in ("main", "parse_config", "run"):
        rebind(c, attr, span(f"cli.{attr}"))
    return saved


def uninstall(saved: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer: Tracer, requests: dict[str, dict]) -> tuple[dict, dict]:
    """Per-layer numbers over the traced requests.

    ``requests`` maps request id to {"ok": bool, "points": grid points with
    t > a of a successful request}.  Returns (metrics, layer self-time shares).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    n_req = len(requests)
    ok = {rid for rid, info in requests.items() if info["ok"]}
    busy = defaultdict(float)
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    rule_busy = rule_calls = 0.0
    calls_ok = defaultdict(int)
    stepping = []  # (N, stepping self seconds, node steps, steps) per iter_solution call
    for span in spans:
        if span.name == "quadrature.gauss_laguerre_rule":
            rule_busy += span.busy
            rule_calls += span.count
        if span.request not in requests:
            continue
        busy[span.name] += span.busy
        self_sum[span.name] += selfs[span.id]
        calls[span.name] += span.count
        layer_self[span.name.split(".", 1)[0]] += selfs[span.id]
        if span.request in ok:
            calls_ok[span.name] += span.count
            if span.name == "steppers.step":
                parent = by_id[span.parent]
                own = selfs[span.id]
                if parent.name == "steppers.evaluate_derivative":
                    own += selfs[parent.id]
                attrs = span.attrs
                stepping.append((attrs["N"], own, attrs["steps"] * 2 * attrs["K"], attrs["steps"]))

    def per_request(value: float) -> float:
        return value / n_req if n_req else math.nan

    def ns_per_node_step(group) -> float:
        node_steps = sum(g[2] for g in group)
        return 1e9 * sum(g[1] for g in group) / node_steps if node_steps else 0.0

    stepping.sort(key=lambda g: g[0])
    third = len(stepping) / 3.0
    buckets = [stepping[round(i * third):round((i + 1) * third)] for i in range(3)]
    steps = sum(g[3] for g in stepping)
    points = sum(info["points"] for rid, info in requests.items() if rid in ok)
    quad_ok = sum(n for (rid, name, _), n in tracer.counts.items()
                  if name == "oracle.quad_calls" and rid in ok)
    metrics = {
        "steppers.ns_per_node_step": ns_per_node_step(stepping),
        "steppers.ns_per_node_step.n_low": ns_per_node_step(buckets[0]),
        "steppers.ns_per_node_step.n_mid": ns_per_node_step(buckets[1]),
        "steppers.ns_per_node_step.n_high": ns_per_node_step(buckets[2]),
        "steppers.forcing_calls_per_step": calls_ok["steppers.forcing"] / steps if steps else 0.0,
        "steppers.forcing_s": per_request(busy["steppers.forcing"]),
        "steppers.assembly_s": per_request(self_sum["steppers.assembly"]),
        "quadrature.rule_s": rule_busy / rule_calls if rule_calls else 0.0,
        "quadrature.rule_calls_per_request": per_request(calls["quadrature.gauss_laguerre_rule"]),
        "diffusive.grid_s": per_request(busy["diffusive.grid"]),
        "diffusive.build_system_s": per_request(busy["diffusive.build_system"]),
        "diffusive.build_system_calls_per_request": per_request(calls["diffusive.build_system"]),
        "oracle.quad_calls_per_point": quad_ok / points if points else 0.0,
        "oracle.brute_force_s": per_request(busy["oracle.brute_force_caputo"]),
        "oracle.reference_quadrature_s": per_request(busy["oracle.reference_quadrature"]),
        "analysis.self_s": per_request(self_sum["analysis.decompose_error"]),
        "cli.parse_s": per_request(self_sum["cli.main"] + self_sum["cli.parse_config"]),
        "cli.self_s": per_request(self_sum["cli.run"]),
    }
    total = busy["bench.request"]
    shares = {layer: layer_self[layer] / total if total else 0.0 for layer in LAYERS}
    return metrics, shares

"""Spans around the calls into each layer, and the per-layer breakdown.

The benchmark wraps public entry points of one engine (and its
planner, pipeline, standing queries, store and service) with
:meth:`Tracer.wrap`; nothing inside ``repro`` is changed.  Spans are
kept in memory and written out at the end of the run.

Self time.  The measured phase is one root span.  Each instant of it
is charged to the deepest span open at that instant (ties go to the
one opened last), so self times of all spans sum to the root's wall
time exactly, even when the service's event loop and its executor
thread overlap.  A span's self time is then split further with what
its result reports about work no wrapper can see:

* ``pipeline.execute`` -> prefilter and BFS stage time (``database``);
  the evaluate stage: in process mode the operator seconds the
  workers report, divided by the pool size (``operators``), and the
  rest (``dispatch``: publish, pickle, wait and gather), otherwise all
  of it (``operators``, as
  warm kernels such as cached-vector dot products run outside any
  operator hook); what is left (``pipeline``: validation, context
  set-up and cold builds that no stage records);
* ``streaming.tick`` -> operator seconds (``operators``), the rest
  ``streaming``.

The ``pipeline`` layer's self time is reported as
``pipeline.unaccounted_ms``: ``engine.evaluate`` wall time minus
planning and the stages.  ``plan_cache`` and ``linalg`` run inside
operators and have no self time of their own; they are reported by
counters.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import re
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: layers with self time, in report order
LAYERS = (
    "bench", "service", "planner", "pipeline", "database",
    "operators", "dispatch", "streaming", "store",
)

#: operator names reported as ``operators.<name>_ms`` (build_* summed)
OPERATOR_METRICS = (
    "build", "forward_sweep", "backward_sweep", "ktimes_sweep",
    "ktimes_core", "bfs_prune", "posterior_collapse", "ladder_extend",
)

#: operators that belong to the filter stages, not the evaluate stage
_FILTER_OPERATORS = ("prefilter", "bfs_prune")

_NODES = re.compile(r"(\d+) R-tree nodes")
_SPARSE = re.compile(r"(\d+) sparse products")
_COUNTERS = re.compile(r"(incremental|fallback|multi)=(\d+)")

#: depth of a span opened with no parent in its context, such as an
#: evaluation on the service's executor thread: one below the spans
#: the root's context opens (the service's request spans), so the
#: evaluation, not the request awaiting it, owns the time
DETACHED_DEPTH = 2


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "depth",
                 "thread", "info")

    def __init__(self, name, layer, start, parent, depth, thread):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.depth = depth
        self.thread = thread
        self.info: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def operator_seconds(plan) -> Dict[str, float]:
    """``{operator name: seconds}`` of one executed plan."""
    out: Dict[str, float] = {}
    for name, stats in (plan.operator_seconds or {}).items():
        seconds = getattr(stats, "seconds", None)
        if seconds is None:  # (calls, seconds) pair
            seconds = stats[1]
        out[name] = out.get(name, 0.0) + float(seconds)
    return out


def plan_summary(plan) -> Dict[str, Any]:
    """The facts about one executed plan the report needs."""
    stages = {stage.name: stage for stage in plan.stages}
    info: Dict[str, Any] = {
        "ops": operator_seconds(plan),
        "workers": max(1, plan.max_workers),
        "degradations": len(plan.degradations),
        "backends": [group.backend for group in plan.groups],
    }
    for name in ("prefilter", "bfs", "evaluate"):
        stage = stages.get(name)
        if stage is not None:
            info[name] = (
                stage.elapsed_seconds,
                stage.candidates_in,
                stage.candidates_out,
                stage.detail,
            )
    if "streaming" in stages:
        match = _SPARSE.search(stages["streaming"].detail)
        info["sparse_products"] = int(match.group(1)) if match else 0
        info["counters"] = {
            key: int(value)
            for key, value in _COUNTERS.findall(
                stages["evaluate"].detail
            )
        }
    elif "evaluate" in stages:
        detail = stages["evaluate"].detail
        info["mode"] = (
            "process"
            if detail.startswith(("process", "store-scatter"))
            else "thread" if detail.startswith("thread") else "serial"
        )
    if plan.store_stats:
        info["store_stats"] = dict(plan.store_stats)
    return info


class Tracer:
    """In-memory spans around wrapped entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str, layer: str) -> Span:
        parent = self._current.get()
        depth = parent.depth + 1 if parent is not None else DETACHED_DEPTH
        span = Span(name, layer, 0.0, parent, depth,
                    threading.get_ident())
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    def root(self, name: str = "bench") -> Span:
        """Open the measured phase's root span in this context."""
        span = Span(name, "bench", time.perf_counter(), None, 0,
                    threading.get_ident())
        self._current.set(span)
        return span

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        layer: str,
        on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a traced instance attribute."""
        inner = getattr(owner, attribute)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            token = tracer._current.set(span)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attribute, traced)

    def wrap_async(
        self,
        owner: Any,
        attribute: str,
        name: str,
        layer: str,
        on_result: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> None:
        """Like :meth:`wrap` for a coroutine method."""
        inner = getattr(owner, attribute)
        tracer = self

        @functools.wraps(inner)
        async def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            token = tracer._current.set(span)
            try:
                result = await inner(*args, **kwargs)
            finally:
                tracer._current.reset(token)
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        setattr(owner, attribute, traced)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self, root: Span) -> Dict[str, float]:
        """Seconds per layer; they sum to ``root.seconds``."""
        spans = [
            s for s in self.spans
            if s is not root and s.end > root.start and s.start < root.end
        ]
        spans.append(root)
        events = []
        for span in spans:
            events.append((max(span.start, root.start), 1, span))
            events.append((min(span.end, root.end), 0, span))
        events.sort(key=lambda event: (event[0], event[1]))
        owned: Dict[Span, float] = defaultdict(float)
        active: set = set()
        previous = root.start
        for moment, kind, span in events:
            if active and moment > previous:
                owner = max(active, key=lambda s: (s.depth, s.start))
                owned[owner] += moment - previous
            previous = max(previous, moment)
            if kind:
                active.add(span)
            else:
                active.discard(span)
        layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        for span, seconds in owned.items():
            remaining = seconds
            for layer, amount in _derived_children(span):
                share = min(max(amount, 0.0), remaining)
                layers[layer] += share
                remaining -= share
            layers[span.layer] += remaining
        return layers

    def dump(self, path: str, root: Span) -> None:
        """Write every span of the phase as JSON lines."""
        index = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for n, span in enumerate(self.spans):
                if span.end < root.start or span.start > root.end:
                    continue
                record = {
                    "id": n,
                    "name": span.name,
                    "layer": span.layer,
                    "start_ms": (span.start - root.start) * 1e3,
                    "end_ms": (span.end - root.start) * 1e3,
                    "parent": index.get(id(span.parent)),
                    "thread": span.thread,
                }
                if span.info:
                    record["info"] = span.info
                handle.write(json.dumps(record, default=str) + "\n")


def _derived_children(span: Span):
    """``(layer, seconds)`` of work inside ``span`` that has no span."""
    info = span.info or {}
    if span.name == "pipeline.execute":
        filters = sum(
            info[stage][0] for stage in ("prefilter", "bfs")
            if stage in info
        )
        yield "database", filters
        evaluate = info.get("evaluate", (0.0,))[0]
        if info.get("mode") != "process":
            # kernels ran in this process (inline or on the thread
            # pool); warm dot products run outside any operator hook
            yield "operators", evaluate
            return
        kernels = min(_worker_wall(info), evaluate)
        yield "operators", kernels
        yield "dispatch", evaluate - kernels
    elif span.name == "streaming.tick":
        yield "operators", sum(info.get("ops", {}).values())


def _worker_wall(info: Dict[str, Any]) -> float:
    """Wall seconds the pool workers spent in kernels, at best.

    Workers report operator seconds summed over all of them; spread
    over the pool, that is the shortest wall time they could take.
    """
    kernels = sum(
        seconds for name, seconds in info["ops"].items()
        if name not in _FILTER_OPERATORS
    )
    return kernels / info["workers"]


def wrapper_cost_seconds(samples: int = 20000) -> float:
    """Seconds one traced call adds over an untraced call.

    Measured on a no-op so the estimate holds for any wrapped method;
    ``trace.overhead_frac`` is spans recorded times this, over the
    traced wall time.
    """
    class Probe:
        def noop(self):
            return None

    plain = Probe()
    traced = Probe()
    tracer = Tracer()
    tracer.wrap(traced, "noop", "probe", "bench")
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(samples):
            plain.noop()
        base = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(samples):
            traced.noop()
        best = min(best, (time.perf_counter() - started - base) / samples)
    return max(best, 0.0)


def layer_report(
    tracer: Tracer, root: Span, operations: int
) -> Dict[str, float]:
    """Every per-layer metric derivable from the spans of one phase.

    ``operations`` is the workload's count of user-visible operations
    (queries, requests or ticks); per-operation means divide by it.
    """
    spans = [
        s for s in tracer.spans
        if s is not root and s.start >= root.start and s.end <= root.end
    ]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: Dict[str, float] = {}

    layers = tracer.self_times(root)
    wall = root.seconds
    for layer in LAYERS:
        key = (
            "pipeline.unaccounted_ms" if layer == "pipeline"
            else f"self.{layer}_ms"
        )
        out[key] = layers[layer] * 1e3
    out["trace.wall_ms"] = wall * 1e3
    out["trace.spans"] = float(len(spans))
    out["trace.overhead_frac"] = (
        len(spans) * wrapper_cost_seconds() / wall if wall > 0 else 0.0
    )

    def mean_ms(name: str) -> float:
        group = by_name.get(name, [])
        return (
            sum(s.seconds for s in group) / len(group) * 1e3
            if group else 0.0
        )

    out["planner.plan_ms"] = mean_ms("planner.plan")
    out["service.admit_ms"] = mean_ms("service.admit")
    out["store.write_ms"] = mean_ms("store.write")
    out["store.snapshots"] = float(len(by_name.get("store.snapshot", [])))
    out["store.snapshot_s"] = mean_ms("store.snapshot") / 1e3

    evaluates = by_name.get("engine.evaluate", [])
    ratios = [
        s.info["predicted"] / s.seconds
        for s in evaluates
        if s.info and s.info.get("predicted") and s.seconds > 0
    ]
    out["planner.predict_ratio"] = (
        sorted(ratios)[len(ratios) // 2] if ratios else 0.0
    )
    errors = sorted(abs(math.log(ratio)) for ratio in ratios)
    out["planner.predict_log_error"] = (
        errors[len(errors) // 2] if errors else 0.0
    )

    executes = [s for s in by_name.get("pipeline.execute", []) if s.info]
    ticks = [s for s in by_name.get("streaming.tick", []) if s.info]
    n_exec = len(executes)

    def stage_mean(stage: str) -> float:
        rows = [s.info[stage] for s in executes if stage in s.info]
        return sum(r[0] for r in rows) / len(rows) * 1e3 if rows else 0.0

    def keep(stage: str) -> float:
        rows = [s.info[stage] for s in executes if stage in s.info]
        entering = sum(r[1] for r in rows)
        return sum(r[2] for r in rows) / entering if entering else 0.0

    out["pipeline.prefilter_ms"] = stage_mean("prefilter")
    out["pipeline.prefilter_keep"] = keep("prefilter")
    out["pipeline.bfs_ms"] = stage_mean("bfs")
    out["pipeline.bfs_keep"] = keep("bfs")
    out["pipeline.evaluate_ms"] = stage_mean("evaluate")
    nodes = [
        int(m.group(1))
        for s in executes if "prefilter" in s.info
        for m in [_NODES.search(s.info["prefilter"][3])] if m
    ]
    out["database.rtree_nodes"] = (
        sum(nodes) / len(nodes) if nodes else 0.0
    )
    plans = executes + ticks
    for metric in OPERATOR_METRICS:
        total = sum(
            seconds
            for s in plans
            for name, seconds in s.info["ops"].items()
            if name == metric or (metric == "build"
                                  and name.startswith("build_"))
        )
        out[f"operators.{metric}_ms"] = (
            total / len(plans) * 1e3 if plans else 0.0
        )

    modes = [s.info.get("mode") for s in executes]
    for mode in ("serial", "thread", "process"):
        out[f"dispatch.mode_share.{mode}"] = (
            modes.count(mode) / n_exec if n_exec else 0.0
        )
    transport = [
        s.info["evaluate"][0] - _worker_wall(s.info)
        for s in executes
        if s.info.get("mode") == "process" and "evaluate" in s.info
    ]
    out["dispatch.transport_ms"] = (
        sum(transport) / len(transport) * 1e3 if transport else 0.0
    )
    out["dispatch.degradations"] = float(
        sum(s.info["degradations"] for s in plans)
    )

    n_ticks = len(ticks)
    for counter in ("incremental", "fallback", "multi"):
        out[f"streaming.{counter}"] = (
            sum(s.info["counters"].get(counter, 0) for s in ticks)
            / n_ticks if n_ticks else 0.0
        )
    out["streaming.sparse_products"] = (
        sum(s.info["sparse_products"] for s in ticks) / n_ticks
        if n_ticks else 0.0
    )

    backends = [b for s in executes for b in s.info["backends"]]
    out["linalg.native_share"] = (
        backends.count("native") / len(backends) if backends else 0.0
    )

    stores = [s.info["store_stats"] for s in executes
              if "store_stats" in s.info]
    for key, metric in (("fresh_attaches", "store.fresh_attaches"),
                        ("parent_fallbacks", "store.parent_fallbacks")):
        out[metric] = float(sum(stats.get(key, 0) for stats in stores))
    out["trace.operations"] = float(operations)
    return out

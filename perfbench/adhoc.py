"""``adhoc``: one client, closed loop, distinct windows.

The client calls ``QueryEngine.evaluate`` back to back with default
options over an in-RAM database of 4 Table I chains.  Every query gets
a fresh seeded window, so the 256-entry plan cache keeps missing:
planning, R-tree and BFS filtering, matrix builds, sweeps and the
dispatch the planner picks on its own do the work.

The query mix repeats in cycles of :data:`CYCLE` queries (55% exists,
30% k-times, 15% for-all).  Within a cycle, widths, durations and
start times are stratified over their ranges, so the share of cheap
and costly windows is the same for every seed; only region positions
and order vary.  The loop runs whole cycles until ``--seconds`` have
passed.  Sampled answers are checked against the reference engine
after timing ends.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from common import (
    DURATIONS,
    STARTS,
    WIDTHS,
    Outcome,
    build_database,
    make_query,
    make_table_one_inputs,
    nproc,
    percentile,
    reference_engine,
    shutdown_and_account,
    stratified,
)

#: one cycle of the query mix: 55% exists, 30% k-times, 15% for-all.
#: For-all queries evaluate the complement of their region, so each
#: costs several times any other query; with more than 10% of them
#: the p90 falls inside their group instead of on the edge between
#: groups, where it would read the single slowest other query.
CYCLE = ("exists",) * 11 + ("ktimes",) * 6 + ("forall",) * 3
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 5
#: every CHECK_EVERY-th query's answer is checked against the reference
CHECK_EVERY = 12


def make_cycle(rng) -> List:
    """One cycle of queries, windows stratified per query type."""
    queries = []
    for kind in ("exists", "ktimes", "forall"):
        n = CYCLE.count(kind)
        widths = stratified(rng, WIDTHS[0], WIDTHS[1], n)
        durations = stratified(rng, DURATIONS[0], DURATIONS[1], n)
        starts = stratified(rng, STARTS[0], STARTS[1], n)
        for width, duration, start in zip(widths, durations, starts):
            queries.append(make_query(kind, width, duration, start, rng))
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def run(seed: int, seconds: float, tracer=None, scratch=None) -> Outcome:
    from repro import QueryEngine
    from repro.exec import dispatch

    from tracer import layer_report, plan_summary

    outcome = Outcome()
    rng = np.random.default_rng(seed)
    inputs = make_table_one_inputs(seed)
    # the longest k-times window: the planner sends it to the process
    # pool, so the pool's workers fork during set-up, from a parent of
    # the same size in every run
    probe = make_query("ktimes", 200, DURATIONS[1], STARTS[1], rng)
    outcome.mark("inputs")

    engine = None
    sampled = []  # (query, answer) pairs checked after timing
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            dispatch.shutdown()
        started = time.perf_counter()
        engine = QueryEngine(build_database(inputs))
        dispatch.prewarm(nproc())
        first = engine.evaluate(probe)
        outcome.setup_samples.append(time.perf_counter() - started)
        outcome.attempted += 1
        sampled.append((probe, first.values))

    outcome.mark("setup")
    root = None
    if tracer is not None:
        def on_evaluate(span, _args, result):
            if result.plan is not None:
                span.info = {"predicted": result.plan.estimated_seconds()}

        def on_execute(span, args, _result):
            span.info = plan_summary(args[0])

        tracer.wrap(engine, "evaluate", "engine.evaluate", "pipeline",
                    on_evaluate)
        tracer.wrap(engine.planner, "plan_window", "planner.plan",
                    "planner")
        tracer.wrap(engine.pipeline, "execute", "pipeline.execute",
                    "pipeline", on_execute)
        root = outcome.spans_root = tracer.root()

    stats = engine.plan_cache.stats
    before = (stats.hits, stats.misses, stats.evictions,
              stats.total_constructions)
    latencies: List[float] = []
    by_kind: dict = {}
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for query in make_cycle(rng):
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                result = engine.evaluate(query)
            except Exception as exc:  # counted, the loop keeps going
                outcome.fail(f"evaluate: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            by_kind.setdefault(type(query).__name__, []).append(
                latencies[-1]
            )
            if len(latencies) % CHECK_EVERY == 1:
                sampled.append((query, result.values))
    wall = time.perf_counter() - started
    if root is not None:
        root.end = time.perf_counter()
    after = (stats.hits, stats.misses, stats.evictions,
             stats.total_constructions)

    shutdown_and_account(outcome)
    outcome.mark("measure")
    oracle, oracle_options = reference_engine(build_database(inputs))
    references = {}
    for query, values in sampled:
        if id(query) not in references:
            references[id(query)] = oracle.evaluate(
                query, options=oracle_options
            ).values
        outcome.check(f"{type(query).__name__} {query.window}", values,
                      references[id(query)])
    outcome.mark("checks")

    outcome.end_to_end.update({
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p90_ms": percentile(latencies, 90) * 1e3,
        "throughput_per_s": len(latencies) / sum(latencies),
    })
    outcome.extra.update({
        "adhoc.queries": float(len(latencies)),
        "adhoc.wall_s": wall,
        "adhoc.checked": float(len(sampled) - SETUP_REPEATS),
    })
    for kind, values in sorted(by_kind.items()):
        outcome.extra[f"adhoc.{kind}_p50_ms"] = percentile(values, 50) * 1e3
        outcome.extra[f"adhoc.{kind}_p90_ms"] = percentile(values, 90) * 1e3
    if tracer is not None:
        hits, misses = after[0] - before[0], after[1] - before[1]
        outcome.extra.update(layer_report(tracer, root, len(latencies)))
        outcome.extra.update({
            "plan_cache.hit_rate": hits / (hits + misses)
            if hits + misses else 0.0,
            "plan_cache.evictions": float(after[2] - before[2]),
            "plan_cache.builds": float(after[3] - before[3]),
        })
    return outcome

"""``dashboard``: open loop of arrivals and bursts through the service.

One asyncio process submits requests through ``QueryService.submit``
on behalf of :data:`TENANTS` tenants.  Each request is drawn Zipf-style
from :data:`HOT` hot windows (exists and k-times) over the same in-RAM
data as ``adhoc``; the plan cache is warmed before timing starts, so
admission pricing, queueing in the broker, fusion and demultiplexing
dominate and matrix builds do almost nothing.

Requests come in short blocks: Poisson arrivals at a fixed offered
rate, or a burst of :data:`BURST` requests all due at once.  The run
repeats :data:`CYCLE` (the reference rate, a burst, a rate near the
latency limit, a burst) and each block drains before the next starts.
Latency is timed from each request's due time, so a stalled generator
shows up as latency; how late the generator itself ran is reported
apart.  A failed or refused request counts as missing the latency
limit.

``query_p50_ms`` and ``query_p90_ms`` are read at the reference rate,
where the service is mostly idle, over the requests of every cycle;
``throughput_per_s`` is the rate at which the service clears the
bursts: requests answered over the time from each burst's due time
to its last answer.  No offered rate caps it.  A burst is admitted
whole before the broker drains it, so it fuses into one evaluation
per hot window whatever the timing; in a Poisson flood the number of
fused evaluations, and with it the capacity, would vary with timing.
The sustained rate -- where a line fitted through log p90 against
offered rate crosses :data:`P90_LIMIT_S`, per cycle, median over
cycles -- is reported too (``dashboard.sustained_rps``); near
saturation, queueing turns a 20% slower machine into a far larger
swing in it, too large for a bounded metric on a shared box.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List

import numpy as np

from common import (
    Outcome,
    build_database,
    make_query,
    make_table_one_inputs,
    median,
    nproc,
    percentile,
    reference_engine,
    shutdown_and_account,
    typical_low,
)

TENANTS = 4
#: hot window kinds, hottest first (Zipf rank order)
HOT = ("exists", "ktimes", "exists", "exists", "ktimes", "exists",
       "exists", "ktimes", "exists", "exists", "ktimes", "exists",
       "exists", "ktimes", "exists", "exists")
ZIPF_S = 1.1
#: region widths of the hot windows, narrowest (hottest) first
HOT_WIDTHS = (20, 200)
#: widest move of one Table I transition (``make_line_chain``)
MAX_STEP = 40
#: latencies are read at this rate, where the service is mostly idle:
#: queueing would multiply any slowdown of the machine into them
REFERENCE_RATE = 10.0
#: requests of one burst, all due at once; the service clears about
#: 300 a second, so a burst keeps it busy for about a second
BURST = 300
#: one cycle of blocks: Poisson arrivals ``(requests per second,
#: seconds)`` or a burst.  The run repeats the cycle, so every block
#: is sampled across the whole run and a slow spell of the machine
#: hits all blocks alike; two bursts a cycle give the capacity about
#: 30% of the measured time.
CYCLE = ((REFERENCE_RATE, 4.0), BURST, (60.0, 0.5), BURST)
#: wall seconds of one cycle, the drains after each block included
CYCLE_SECONDS = 7.0
P90_LIMIT_S = 0.250
SETUP_REPEATS = 5
#: every CHECK_EVERY-th answered request for one of the CHECKED_RANKS
#: hottest windows (70% of the traffic, both kinds) is checked; the
#: unfiltered reference costs about a second per window
CHECK_EVERY = 5
CHECKED_RANKS = 5


def make_hot_windows(rng, inputs) -> List:
    """The hot windows in Zipf rank order.

    Kinds follow :data:`HOT`.  Widths grow with rank over
    :data:`HOT_WIDTHS` and durations and start times follow a fixed
    pattern; the seed places the regions, each where a typical number
    of objects can reach it by the window's end, so each rank costs
    about the same for every seed.  The windows are narrower and
    earlier than ``adhoc``'s, so the reference rate stays well below
    saturation.
    """
    positions = np.array([
        obj.initial.distribution.support()[0] for obj in inputs.objects
    ])
    widths = np.linspace(HOT_WIDTHS[0], HOT_WIDTHS[1], len(HOT)).round()
    windows = []
    for rank, kind in enumerate(HOT):
        width, duration = int(widths[rank]), 2 + rank % 5
        start = 3 + (7 * rank) % 10
        reach = MAX_STEP * (start + duration) // 2
        low = typical_low(rng, width, reach, positions)
        windows.append(make_query(kind, width, duration, start, rng, low))
    return windows


def block_rate(block) -> float:
    """Offered rate of a :data:`CYCLE` block; a burst's is infinite."""
    return float("inf") if block == BURST else float(block[0])


def schedule(rng, block, n_windows: int):
    """``(due offset, window index, tenant)`` of one block.

    Each window gets its Zipf share of the block's requests, rounded
    by largest remainder, in seeded order: the mix of cheap and costly
    windows is then the same for every seed, and only the arrival
    times and the order vary.
    """
    dues = []
    if block == BURST:
        dues = [0.0] * BURST
    else:
        rate, seconds = block
        due = float(rng.exponential(1.0 / rate))
        while due < seconds:
            dues.append(due)
            due += float(rng.exponential(1.0 / rate))
    weights = 1.0 / np.arange(1, n_windows + 1) ** ZIPF_S
    shares = len(dues) * weights / weights.sum()
    counts = np.floor(shares).astype(int)
    short = len(dues) - int(counts.sum())
    counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
    windows = rng.permutation(np.repeat(np.arange(n_windows), counts))
    return [
        (due, int(window), f"tenant-{n % TENANTS}")
        for n, (due, window) in enumerate(zip(dues, windows))
    ]


class Phase:
    """Latencies (seconds; ``inf`` for a failure) of one offered rate."""

    def __init__(self, rate: float) -> None:
        self.rate = rate
        self.latencies: List[float] = []
        self.late: List[float] = []
        self.busy: List[float] = []  # evaluation seconds / group size
        self.started = self.finished = 0.0  # loop time of the block

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)

    def answered(self) -> int:
        return sum(1 for x in self.latencies if np.isfinite(x))


def sustained_rate(phases: List[Phase]) -> float:
    """Offered rate at which p90 reaches :data:`P90_LIMIT_S`.

    The line through ``log p90`` at the two Poisson rates,
    solved for the limit, so the estimate is continuous in both p90s.
    A phase with a failed request has an infinite p90; without both
    points the rate is NaN.
    """
    points = [
        (phase.rate, np.log(phase.p(90)))
        for phase in phases
        if np.isfinite(phase.rate) and np.isfinite(phase.p(90))
    ]
    if len(points) < 2:
        return float("nan")
    (x0, y0), (x1, y1) = points
    slope = (y1 - y0) / (x1 - x0)
    return float(x0 + (np.log(P90_LIMIT_S) - y0) / slope)


async def drive(service, queries, phase: Phase, plan, outcome: Outcome,
                answered: List, sampled: List, refusals: Dict) -> None:
    """Send one phase's requests on schedule; wait for every answer."""
    from repro import AdmissionRejected

    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.02
    phase.started = origin

    async def one(due: float, index: int, tenant: str) -> None:
        outcome.attempted += 1
        try:
            result = await service.submit(queries[index], tenant=tenant)
        except AdmissionRejected as exc:
            reason = getattr(exc, "reason", "unknown")
            refusals[reason] = refusals.get(reason, 0) + 1
            outcome.fail(f"refused ({reason}): {exc}")
            phase.latencies.append(float("inf"))
            return
        except Exception as exc:  # counted, the loop keeps going
            outcome.fail(f"submit: {type(exc).__name__}: {exc}")
            phase.latencies.append(float("inf"))
            return
        phase.finished = loop.time()
        phase.latencies.append(phase.finished - due)
        phase.busy.append(result.elapsed_seconds)
        answered.append(index)
        if len(answered) % CHECK_EVERY == 1 and index < CHECKED_RANKS:
            sampled.append((index, result.values))

    tasks = []
    for offset, index, tenant in plan:
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late.append(max(0.0, loop.time() - due))
        tasks.append(loop.create_task(one(due, index, tenant)))
    await asyncio.gather(*tasks)


def run(seed: int, seconds: float, tracer=None, scratch=None) -> Outcome:
    from repro import QueryEngine, QueryService
    from repro.exec import dispatch

    from tracer import layer_report, plan_summary

    outcome = Outcome()
    rng = np.random.default_rng(seed)
    inputs = make_table_one_inputs(seed)
    queries = make_hot_windows(rng, inputs)
    cycles = max(1, round(seconds / CYCLE_SECONDS))
    blocks = [
        (cycle, index, schedule(rng, block, len(queries)))
        for cycle in range(cycles)
        for index, block in enumerate(CYCLE)
    ]
    outcome.mark("inputs")

    by_cycle = [[Phase(block_rate(block)) for block in CYCLE]
                for _ in range(cycles)]
    sampled: List = []
    refusals: Dict[str, int] = {}
    report: Dict[str, float] = {}

    async def session(measure: bool) -> None:
        started = time.perf_counter()
        engine = QueryEngine(build_database(inputs))
        dispatch.prewarm(nproc())
        service = QueryService(engine)
        await service.start()
        try:
            first = await service.submit(queries[0], tenant="tenant-0")
            outcome.setup_samples.append(time.perf_counter() - started)
            outcome.attempted += 1
            sampled.append((0, first.values))
            if not measure:
                return
            for query in queries:  # warm every hot window
                await service.submit(query, tenant="tenant-0")
            await measure_phases(engine, service)
        finally:
            await service.stop()

    async def measure_phases(engine, service) -> None:
        root = None
        evaluated: Dict[int, tuple] = {}
        waits: List[float] = []
        if tracer is not None:
            def on_evaluate(span, _args, result):
                if result.plan is not None:
                    span.info = {
                        "predicted": result.plan.estimated_seconds()
                    }
                    # fused callers get shallow plan copies that share
                    # the stage list: it identifies the evaluation
                    evaluated[id(result.plan.stages)] = (
                        result.plan.stages, span.seconds
                    )

            def on_execute(span, args, _result):
                span.info = plan_summary(args[0])

            def on_submit(span, _args, result):
                if result.plan is not None:
                    entry = evaluated.get(id(result.plan.stages))
                    if entry is not None:
                        waits.append(span.seconds - entry[1])

            tracer.wrap(engine, "evaluate", "engine.evaluate",
                        "pipeline", on_evaluate)
            tracer.wrap(engine.planner, "plan_window", "planner.plan",
                        "planner")
            tracer.wrap(engine.planner, "estimate_seconds",
                        "service.admit", "service")
            tracer.wrap(engine.pipeline, "execute", "pipeline.execute",
                        "pipeline", on_execute)
            tracer.wrap_async(service, "submit", "service.submit",
                              "service", on_submit)
            root = outcome.spans_root = tracer.root()
        evaluations = service.evaluations
        answered: List[int] = []
        for cycle, index, plan in blocks:  # each drains before the next
            await drive(service, queries, by_cycle[cycle][index], plan,
                        outcome, answered, sampled, refusals)
        if root is not None:
            root.end = time.perf_counter()
            report.update(layer_report(tracer, root, len(answered)))
            report["service.queue_wait_ms"] = (
                sum(waits) / len(waits) * 1e3 if waits else 0.0
            )
            report["service.requests_per_eval"] = len(answered) / max(
                1, service.evaluations - evaluations
            )

    for repeat in range(SETUP_REPEATS):
        if repeat:
            dispatch.shutdown()
        asyncio.run(session(measure=repeat == SETUP_REPEATS - 1))

    shutdown_and_account(outcome)
    outcome.mark("setup_and_measure")
    oracle, oracle_options = reference_engine(build_database(inputs))
    answers_by_window: Dict[int, Dict] = {}
    for index, values in sampled:
        if index not in answers_by_window:
            answers_by_window[index] = oracle.evaluate(
                queries[index], options=oracle_options
            ).values
        outcome.check(f"hot window {index}", values,
                      answers_by_window[index])
    outcome.mark("checks")

    pooled: Dict[float, Phase] = {}  # by offered rate
    for phases in by_cycle:
        for phase in phases:
            merged = pooled.setdefault(phase.rate, Phase(phase.rate))
            merged.latencies += phase.latencies
            merged.late += phase.late
            merged.busy += phase.busy
    reference, bursts = pooled[REFERENCE_RATE], pooled[float("inf")]
    outcome.end_to_end.update({
        "query_p50_ms": reference.p(50) * 1e3,
        "query_p90_ms": reference.p(90) * 1e3,
        "throughput_per_s": bursts.answered() / sum(
            phase.finished - phase.started
            for phases in by_cycle for phase in phases
            if phase.rate == float("inf")
        ),
    })
    # a burst is due at once by design: lateness matters where latency
    # is read
    late = [
        x for phase in pooled.values() if np.isfinite(phase.rate)
        for x in phase.late
    ]
    outcome.extra.update(report)
    outcome.extra.update({
        "loadgen.late_ms": sum(late) / len(late) * 1e3 if late else 0.0,
        "loadgen.late_max_ms": max(late, default=0.0) * 1e3,
        "dashboard.checked": float(len(sampled)),
        "dashboard.cycles": float(cycles),
        "dashboard.sustained_rps": median(
            rate for rate in map(sustained_rate, by_cycle)
            if np.isfinite(rate)
        ),
    })
    for reason in ("backlog", "tenant-budget", "deadline"):
        outcome.extra[f"service.rejected.{reason}"] = float(
            refusals.get(reason, 0)
        )
    for phase in pooled.values():
        if phase is reference:  # its figures are the end-to-end ones
            continue
        tag = ("dashboard.burst" if phase is bursts
               else f"dashboard.rate{phase.rate:g}")
        outcome.extra[f"{tag}.requests"] = float(len(phase.latencies))
        outcome.extra[f"{tag}.p50_ms"] = phase.p(50) * 1e3
        outcome.extra[f"{tag}.p90_ms"] = phase.p(90) * 1e3
        outcome.extra[f"{tag}.busy_ms"] = (
            sum(phase.busy) / len(phase.busy) * 1e3 if phase.busy else 0.0
        )
    return outcome

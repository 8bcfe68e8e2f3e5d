"""``ingest``: a live feed into a ``ShardedTrajectoryStore``.

The only workload with writes.  Each step:

1. applies one scripted tick of arrivals, re-sightings and departures
   through the store's mutation API -- each write is journalled and
   fsynced before the call returns, and is timed on its own;
2. ticks :data:`N_STANDING` standing exists queries (standing k-times
   queries reject multi-observation objects, so none are used);
3. every :data:`SCATTER_EVERY`-th step, runs an exists query with
   ``dispatch="process"`` and ``max_workers=nproc``: a store scatter
   over slab shards plus the journal overlay in the parent.

``REPRO_STORE_RAM_CAP`` is set below the total slab bytes, so the slab
cache is smaller than the data, and ``REPRO_STORE_AUTOSNAPSHOT`` is
lowered so the journal is folded into a new snapshot several times a
run (snapshot folds run inside standing ticks).  Arrivals equal
departures, so the live set levels off.

Sampled standing and scatter answers are recorded during the run.
Once the pool is shut down and peak memory read, a shadow in-RAM
database is generated from the same seed and fed the same script; at
each sampled step the recorded answers are compared with a
from-scratch evaluation on it.  The store is then reopened from disk
and every acknowledged write must be there.

``query_p50_ms``/``query_p90_ms`` are scatter latencies;
``throughput_per_s`` is steps per second of step time (writes,
standing ticks, scatters and the snapshot folds inside them).
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from common import (
    PARITY_TOL,
    Outcome,
    nproc,
    percentile,
    shutdown_and_account,
)

N_STATES = 5_000
N_OBJECTS = 500
N_CHAINS = 4
#: writes per step: arrivals and departures balance; one object in 20
#: leaves per step, so ages settle around 20 steps
ARRIVALS, RESIGHTINGS, DEPARTURES = 25, 10, 25
#: untimed steps before the measured phase (see the pre-roll below)
PREROLL = 30
#: the script has PREROLL steps plus this many per second of
#: ``--seconds``, about three times what the measured phase uses; a
#: build fast enough to use the whole script up ends the measured
#: phase early and says so on stderr
SCRIPT_STEPS_PER_S = 12.0
WINDOW_LEAD = 8
WINDOW_DURATION = 5
N_STANDING = 2
SCATTER_EVERY = 2
SCATTER_WIDTH = 150
#: the slab cache holds at most this many bytes (below the slab total)
RAM_CAP = "32k"
#: journal records that trigger a snapshot fold
AUTOSNAPSHOT = 320
SHARDS_PER_CHAIN = 2
SETUP_REPEATS = 5
#: every CHECK_EVERY-th scatter answer is checked, and the standing
#: answers of one step in CHECK_EVERY * SCATTER_EVERY
CHECK_EVERY = 6
#: bytes of one observed state: its int64 index and float64 weight
BYTES_PER_STATE = 16

JOURNAL = "journal.jsonl"  # the store's journal file name


class CompactScript:
    """The write script, each pdf kept as its support and weights.

    The generated script holds a dense ``N_STATES`` vector for every
    arrival and re-sighting, several times the memory of the store
    itself.  Kept sparse, and rebuilt one step at a time just before
    the step runs, it inflates neither this process nor the pool
    workers forked from it.  The rebuilt vectors are bit-identical.
    """

    def __init__(self, events) -> None:
        def sparse(distribution):
            support = np.flatnonzero(distribution.vector)
            return support, distribution.vector[support]

        self.steps = [
            (
                [(obj.object_id, obj.chain_id, obj.initial.time,
                  sparse(obj.initial.distribution))
                 for obj in tick.arrivals],
                [(object_id, obs.time, sparse(obs.distribution))
                 for object_id, obs in tick.resightings],
                tuple(tick.departures),
            )
            for tick in events
        ]

    def events(self, step: int):
        from repro import Observation, StateDistribution, UncertainObject
        from repro.workloads.monitoring import TickEvents

        def dense(pair):
            return StateDistribution.from_support(N_STATES, *pair)

        arrivals, resightings, departures = self.steps[step]
        return TickEvents(
            tick=step,
            arrivals=tuple(
                UncertainObject.with_distribution(
                    object_id, dense(pdf), time=time, chain_id=chain_id
                )
                for object_id, chain_id, time, pdf in arrivals
            ),
            resightings=tuple(
                (object_id, Observation(time, dense(pdf)))
                for object_id, time, pdf in resightings
            ),
            departures=departures,
        )


def release_freed_memory() -> None:
    """Hand freed memory back to the OS and restart this process's
    peak-RSS count from what it holds now (Linux), so ``peak_rss_mb``
    leaves the generation of the dense script out."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def tree_bytes(path: Path) -> int:
    return sum(
        entry.stat().st_size for entry in path.rglob("*") if entry.is_file()
    )


def run(seed: int, seconds: float, tracer=None, scratch=None) -> Outcome:
    os.environ["REPRO_STORE_RAM_CAP"] = RAM_CAP
    os.environ["REPRO_STORE_AUTOSNAPSHOT"] = str(AUTOSNAPSHOT)
    from repro import (
        PlanOptions,
        PSTExistsQuery,
        QueryEngine,
        SpatioTemporalWindow,
    )
    from repro.exec import dispatch
    from repro.store import ShardedTrajectoryStore
    from repro.store.slabs import global_pool, ram_cap_bytes
    from repro.workloads.monitoring import (
        MonitoringConfig,
        make_monitoring_workload,
    )

    from tracer import layer_report, plan_summary

    outcome = Outcome()
    rng = np.random.default_rng(seed)
    max_steps = PREROLL + math.ceil(seconds * SCRIPT_STEPS_PER_S)
    config = MonitoringConfig(
        n_objects=N_OBJECTS, n_states=N_STATES, n_chains=N_CHAINS,
        n_ticks=max_steps, window_lead=WINDOW_LEAD,
        window_duration=WINDOW_DURATION,
        arrivals_per_tick=ARRIVALS, resightings_per_tick=RESIGHTINGS,
        departures_per_tick=DEPARTURES, seed=seed,
    )
    workload = make_monitoring_workload(config)
    initial = workload.database  # tick 0, which every store starts from
    script = CompactScript(workload.events)
    del workload
    release_freed_memory()
    standing_windows = [
        SpatioTemporalWindow.from_ranges(
            low, low + SCATTER_WIDTH - 1, WINDOW_LEAD,
            WINDOW_LEAD + WINDOW_DURATION - 1,
        )
        for low in rng.integers(0, N_STATES - SCATTER_WIDTH, N_STANDING)
    ]
    scatter_lows = rng.integers(0, N_STATES - SCATTER_WIDTH, max_steps)

    def scatter_query(step: int):
        low = int(scatter_lows[step])
        start = WINDOW_LEAD + step
        return PSTExistsQuery(SpatioTemporalWindow.from_ranges(
            low, low + SCATTER_WIDTH - 1, start,
            start + WINDOW_DURATION - 1,
        ))

    scatter_options = PlanOptions(dispatch="process", max_workers=nproc())
    #: ``(step, label, query, answer)`` checked after the run; step -1
    #: is the tick-0 state the store is created from
    sampled: List[Tuple[int, str, object, Dict]] = []

    base = Path(scratch) / f"ingest-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    outcome.mark("inputs")
    store = engine = standing = None
    path = None
    for repeat in range(SETUP_REPEATS):
        if store is not None:
            dispatch.shutdown()
            global_pool().forget(path)
            shutil.rmtree(path)
        path = base / f"store-{repeat}"
        started = time.perf_counter()
        store = ShardedTrajectoryStore.create(
            path, initial, shards_per_chain=SHARDS_PER_CHAIN
        )
        engine = QueryEngine(store)
        standing = [
            engine.watch(PSTExistsQuery(window))
            for window in standing_windows
        ]
        dispatch.prewarm(nproc())
        first = engine.evaluate(scatter_query(0), options=scatter_options)
        outcome.setup_samples.append(time.perf_counter() - started)
        outcome.attempted += 1
        sampled.append((-1, "setup scatter", scatter_query(0),
                        first.values))
    slab_bytes = tree_bytes(path / f"snapshot-{store.generation:06d}")
    if ram_cap_bytes() >= slab_bytes:
        raise RuntimeError(
            f"RAM cap {RAM_CAP} does not undercut {slab_bytes} slab bytes"
        )

    journal = path / JOURNAL
    writes: List[float] = []
    ticks: List[float] = []
    scatters: List[float] = []
    steps: List[float] = []
    amp = {"written": 0, "user": 0, "generation": store.generation}

    def write(events) -> None:
        """One tick of the script through the store; each write timed."""
        operations = (
            [(store.add, (obj,), obj.initial) for obj in events.arrivals]
            + [(store.append_observation, (oid, obs), obs)
               for oid, obs in events.resightings]
            + [(store.remove, (oid,), None) for oid in events.departures]
        )
        for call, args, observation in operations:
            size = journal.stat().st_size if journal.exists() else 0
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                call(*args)
            except Exception as exc:  # counted, the feed keeps going
                outcome.fail(f"write: {type(exc).__name__}: {exc}")
                continue
            writes.append(time.perf_counter() - t0)
            amp["written"] += max(0, journal.stat().st_size - size)
            if observation is not None:
                amp["user"] += (
                    BYTES_PER_STATE
                    * observation.distribution.support_size()
                )

    def tick_standing() -> List:
        results = []
        for query in standing:
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                results.append(query.tick())
            except Exception as exc:
                outcome.fail(f"tick: {type(exc).__name__}: {exc}")
                continue
            ticks.append(time.perf_counter() - t0)
        return results

    def count_snapshot() -> None:
        if store.generation != amp["generation"]:
            amp["generation"] = store.generation
            amp["written"] += tree_bytes(
                path / f"snapshot-{store.generation:06d}"
            )

    outcome.mark("setup")
    # pre-roll: random departures make object ages geometric; these
    # steps bring the age mix, and so the query horizons, close to
    # their steady state before timing starts
    for step in range(PREROLL):
        write(script.events(step))
        tick_standing()
        count_snapshot()
    del writes[:], ticks[:]
    amp.update(written=0, user=0)

    outcome.mark("preroll")
    root = None
    if tracer is not None:
        def on_evaluate(span, _args, result):
            if result.plan is not None:
                span.info = {"predicted": result.plan.estimated_seconds(),
                             "overlay": len(store.overlay_object_ids())}

        def on_execute(span, args, _result):
            span.info = plan_summary(args[0])

        def on_tick(span, _args, result):
            span.info = plan_summary(result.plan)

        tracer.wrap(engine, "evaluate", "engine.evaluate", "pipeline",
                    on_evaluate)
        tracer.wrap(engine.planner, "plan_window", "planner.plan",
                    "planner")
        tracer.wrap(engine.pipeline, "execute", "pipeline.execute",
                    "pipeline", on_execute)
        for query in standing:
            tracer.wrap(query, "tick", "streaming.tick", "streaming",
                        on_tick)
        for method in ("add", "append_observation", "remove"):
            tracer.wrap(store, method, "store.write", "store")
        tracer.wrap(store, "snapshot", "store.snapshot", "store")
        root = outcome.spans_root = tracer.root()

    pool_before = global_pool().stats()
    busy = 0.0
    step = PREROLL
    while busy < seconds and step < max_steps:
        events = script.events(step)
        step_started = time.perf_counter()
        write(events)
        results = tick_standing()
        scattered = None
        if step % SCATTER_EVERY == 0:
            query = scatter_query(step)
            outcome.attempted += 1
            t0 = time.perf_counter()
            try:
                scattered = engine.evaluate(query, options=scatter_options)
            except Exception as exc:
                outcome.fail(f"scatter: {type(exc).__name__}: {exc}")
            else:
                scatters.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - step_started
        steps.append(elapsed)
        busy += elapsed

        # untimed: snapshot bytes and the answers to check later
        count_snapshot()
        if scattered is not None and len(scatters) % CHECK_EVERY == 1:
            sampled.append((step, f"scatter step {step}", query,
                            scattered.values))
        if step % (CHECK_EVERY * SCATTER_EVERY) == 1:
            for result in results:
                sampled.append((step, f"standing step {step}",
                                PSTExistsQuery(result.query.window),
                                result.values))
        step += 1
    if root is not None:
        root.end = time.perf_counter()
    pool_after = global_pool().stats()
    if busy < seconds:
        print(f"perfbench: ingest used up its {max_steps}-step script "
              f"after {busy:.1f} of {seconds:g} s", file=sys.stderr)
    outcome.extra["ingest.measured_s"] = busy

    outcome.mark("measure")
    shutdown_and_account(outcome, str(path))
    outcome.mark("shutdown")
    # the oracle: a shadow generated from the same seed, fed the same
    # script up to the last step (a shorter script is a prefix of the
    # longer one), checked at every sampled step
    shadow_workload = make_monitoring_workload(
        dataclasses.replace(config, n_ticks=step)
    )
    shadow = shadow_workload.database
    shadow_engine = QueryEngine(shadow, backend="scipy")
    shadow_options = PlanOptions(dispatch="serial", backend="scipy")
    applied = -1
    for at, label, query, values in sampled:
        while applied < at:
            applied += 1
            shadow_workload.apply(applied)
        outcome.check(label, values, shadow_engine.evaluate(
            query, options=shadow_options).values)
    while applied < step - 1:
        applied += 1
        shadow_workload.apply(applied)
    reopened = ShardedTrajectoryStore(path)
    lost = durability_errors(reopened, shadow)
    outcome.attempted += 1
    if lost:
        outcome.fail(f"reopened store lost writes: {lost[:3]}")
    outcome.mark("checks")
    global_pool().forget(base)
    shutil.rmtree(base, ignore_errors=True)

    outcome.end_to_end.update({
        "query_p50_ms": percentile(scatters, 50) * 1e3,
        "query_p90_ms": percentile(scatters, 90) * 1e3,
        "throughput_per_s": len(steps) / sum(steps),
    })
    outcome.extra.update({
        "ingest.steps": float(len(steps)),
        "ingest.scatters": float(len(scatters)),
        "ingest.write_p50_ms": percentile(writes, 50) * 1e3,
        "ingest.write_amp": (
            amp["written"] / amp["user"] if amp["user"] else 0.0
        ),
        "ingest.tick_p50_ms": percentile(ticks, 50) * 1e3,
        "ingest.tick_p90_ms": percentile(ticks, 90) * 1e3,
        "ingest.generations": float(store.generation),
        "ingest.slab_bytes": float(slab_bytes),
    })
    if tracer is not None:
        outcome.extra.update(layer_report(tracer, root, len(steps)))
        overlays = [
            s.info["overlay"] for s in tracer.spans
            if s.name == "engine.evaluate" and s.info
            and s.start >= root.start
        ]
        outcome.extra["store.overlay_objects"] = (
            sum(overlays) / len(overlays) if overlays else 0.0
        )
        outcome.extra["store.slab_evictions"] = float(
            pool_after["evictions"] - pool_before["evictions"]
        )
    return outcome


def durability_errors(reopened, shadow) -> List[str]:
    """Objects whose acknowledged state the reopened store lacks."""
    errors = []
    if set(reopened.object_ids) != set(shadow.object_ids):
        missing = set(shadow.object_ids) - set(reopened.object_ids)
        extra = set(reopened.object_ids) - set(shadow.object_ids)
        errors.append(f"ids differ: {len(missing)} missing, "
                      f"{len(extra)} extra")
        return errors
    for obj in shadow:
        got = reopened.get(obj.object_id).observations
        want = obj.observations
        if got.times != want.times:
            errors.append(f"{obj.object_id}: observed at {got.times}, "
                          f"acknowledged {want.times}")
            continue
        for a, b in zip(got, want):
            delta = float(np.max(np.abs(
                a.distribution.vector - b.distribution.vector
            )))
            # slab round trips may renormalise a pdf in its last bits
            if not delta <= PARITY_TOL:
                errors.append(f"{obj.object_id} at t={a.time}: "
                              f"|delta| {delta:.3g}")
    return errors

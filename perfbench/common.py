"""Helpers shared by the three workloads: fingerprint, statistics,
answer checks, resource accounting and the result record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: answers must agree with the reference to this absolute tolerance
PARITY_TOL = 1e-12


def nproc() -> int:
    """CPUs this process may run on (what the pool is sized from)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fingerprint() -> Dict[str, object]:
    """What a result depends on besides the code: comparable runs match.

    Read after the workload set its own ``REPRO_*`` variables, so the
    store knobs the ingest workload lowers are part of it.
    """
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_vendor = "unknown"
    from repro.core.planner import CostModel

    env = {
        key: value
        for key, value in sorted(os.environ.items())
        if key.startswith("REPRO_")
        or key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS")
    }
    env.setdefault("REPRO_COSTMODEL_PATH", CostModel.calibration_path())
    return {
        "nproc": nproc(),
        "numba": has_numba,
        "blas": blas_vendor,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "env": env,
    }


def steal_seconds() -> float:
    """CPU seconds the hypervisor has run other guests instead of this
    machine, since boot (``steal`` in ``/proc/stat``); 0 off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            steal = int(handle.readline().split()[8])
        return steal / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty."""
    data = list(values)
    if not data:
        return float("nan")
    return float(np.percentile(np.asarray(data, dtype=float), q))


def median(values: Iterable[float]) -> float:
    data = list(values)
    return float(statistics.median(data)) if data else float("nan")


def max_abs_delta(got: Dict, want: Dict) -> float:
    """Largest per-object difference; ``inf`` when the id sets differ.

    Values are probabilities or k-times count distributions; a
    distribution of another length is a mismatch.
    """
    if set(got) != set(want):
        return float("inf")
    worst = 0.0
    for object_id, expected in want.items():
        a = np.atleast_1d(np.asarray(got[object_id], dtype=float))
        b = np.atleast_1d(np.asarray(expected, dtype=float))
        if a.shape != b.shape:
            return float("inf")
        if a.size:
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def peak_rss_parts_mb() -> Tuple[float, float]:
    """``(this process, largest reaped child)`` peak RSS in MB."""
    scale = (1024.0 if sys.platform != "darwin" else 1.0) / 1e6
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale,
    )


@dataclass
class Outcome:
    """What one workload run measured.

    ``end_to_end`` holds the bounded metrics, ``extra`` every other
    number (per-layer metrics, secondary workload figures, clean-up
    accounting, phase times), ``errors`` one line per failed or wrong
    operation.
    """

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    setup_samples: List[float] = field(default_factory=list)
    spans_root: Optional[object] = None
    _last_mark: float = field(default_factory=time.perf_counter)

    def mark(self, phase: str) -> None:
        """Record the wall seconds since the previous mark under ``phase``."""
        now = time.perf_counter()
        self.extra[f"bench.{phase}_s"] = now - self._last_mark
        self._last_mark = now

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, label: str, got: Dict, want: Dict) -> bool:
        """Compare one answer against its reference; count a mismatch."""
        delta = max_abs_delta(got, want)
        if not delta <= PARITY_TOL:
            self.fail(f"{label}: max |delta| {delta:.3g} > {PARITY_TOL}")
            return False
        return True


def shutdown_and_account(outcome: Outcome, store_path: Optional[str] = None):
    """Stop the pool, then record peak memory and what the pool left.

    Called when the measured phase ends and before any reference
    evaluation, so ``peak_rss_mb`` covers the program under test, not
    the oracle.  The pool workers have been reaped by then, so the
    largest of them counts in ``RUSAGE_CHILDREN``.  ``memory_stats``
    is read after :func:`repro.exec.dispatch.shutdown`, so live
    segments of this session count as leaked, not as in use.
    """
    from repro.exec import dispatch

    dispatch.shutdown()
    parent, worker = peak_rss_parts_mb()
    outcome.end_to_end["peak_rss_mb"] = parent + worker
    outcome.extra["bench.parent_rss_mb"] = parent
    outcome.extra["bench.worker_rss_mb"] = worker
    stats = dispatch.memory_stats()
    outcome.extra["dispatch.shm_segments"] = float(stats["segments"])
    outcome.extra["dispatch.orphan_bytes"] = float(stats["orphan_bytes"])
    if store_path is not None:
        from repro.store import store_health

        health = store_health(store_path)
        outcome.extra["store.stale_snapshot_bytes"] = float(
            health["stale_snapshot_bytes"]
        )


# ----------------------------------------------------------------------
# the in-RAM data of the adhoc and dashboard workloads
# ----------------------------------------------------------------------
#: Table I sizes: 4 chains (object classes) over one state space
N_STATES = 20_000
N_OBJECTS = 3_000
N_CHAINS = 4
WIDTHS = (20, 400)  # query region width in states, inclusive
DURATIONS = (2, 8)  # query window length in timestamps, inclusive
STARTS = (5, 25)  # first query timestamp (objects are observed at 0)


@dataclass
class TableOneInputs:
    """Seeded chains and objects; the database is built from them.

    Chains are kept as transition matrices: every database gets its
    own :class:`~repro.MarkovChain`, so no derived artefact cached on
    a chain object carries over from one set-up to the next.
    """

    chains: Dict[str, object]
    objects: List[object]


def make_table_one_inputs(seed: int) -> TableOneInputs:
    """4 Table I chains and ``N_OBJECTS`` objects spread over them."""
    from repro.database.objects import UncertainObject
    from repro.workloads.synthetic import (
        make_line_chain,
        make_object_distribution,
    )

    rng = np.random.default_rng(seed)
    chains = {
        f"class-{index}": make_line_chain(N_STATES, rng=rng).matrix
        for index in range(N_CHAINS)
    }
    objects = [
        UncertainObject.with_distribution(
            f"obj-{index}",
            make_object_distribution(N_STATES, 5, rng),
            chain_id=f"class-{index % N_CHAINS}",
        )
        for index in range(N_OBJECTS)
    ]
    return TableOneInputs(chains, objects)


def build_database(inputs: TableOneInputs):
    """A fresh in-RAM database (its R-trees are built on first use)."""
    from repro import MarkovChain
    from repro.core.state_space import LineStateSpace
    from repro.database.uncertain_db import TrajectoryDatabase

    database = TrajectoryDatabase(N_STATES, LineStateSpace(N_STATES))
    for chain_id, matrix in inputs.chains.items():
        database.register_chain(chain_id, MarkovChain(matrix.copy()))
    for obj in inputs.objects:
        database.add(obj)
    return database


def reference_engine(database):
    """The oracle: in RAM, serial, filters off, scipy backend."""
    from repro import PlanOptions, QueryEngine

    engine = QueryEngine(database, backend="scipy")
    options = PlanOptions(
        dispatch="serial", prefilter=False, bfs_prune=False,
        backend="scipy",
    )
    return engine, options


def stratified(rng, low: int, high: int, n: int) -> List[int]:
    """``n`` integers covering ``[low, high]`` evenly, in seeded order.

    One draw per equal-width stratum keeps the mix of cheap and costly
    windows the same from seed to seed; only positions and order vary.
    """
    edges = np.linspace(low, high + 1, n + 1)
    values = [
        int(min(high, np.floor(edges[i] + rng.random()
                               * (edges[i + 1] - edges[i]))))
        for i in range(n)
    ]
    rng.shuffle(values)
    return values


def typical_low(rng, width: int, margin: int, positions: np.ndarray,
                draws: int = 7) -> int:
    """A seeded region start whose neighbourhood holds a typical number
    of objects.

    Of ``draws`` seeded starts, the one with the median count of
    object ``positions`` within ``margin`` states of the region, so a
    window's candidate set, and with it its cost, varies less from
    seed to seed than one uniform draw would make it.
    """
    lows = rng.integers(0, N_STATES - width, draws)
    counts = [
        int(np.count_nonzero((positions >= low - margin)
                             & (positions < low + width + margin)))
        for low in lows
    ]
    return int(lows[np.argsort(counts, kind="stable")[draws // 2]])


def make_query(kind: str, width: int, duration: int, start: int, rng,
               low: Optional[int] = None):
    """One PST query of ``kind``; the region starts at ``low``, or at a
    seeded position when ``low`` is None."""
    from repro import (
        PSTExistsQuery,
        PSTForAllQuery,
        PSTKTimesQuery,
        SpatioTemporalWindow,
    )

    if low is None:
        low = int(rng.integers(0, N_STATES - width))
    window = SpatioTemporalWindow.from_ranges(
        low, low + width - 1, start, start + duration - 1
    )
    return {
        "exists": PSTExistsQuery,
        "ktimes": PSTKTimesQuery,
        "forall": PSTForAllQuery,
    }[kind](window)

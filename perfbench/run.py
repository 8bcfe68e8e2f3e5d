#!/usr/bin/env python3
"""The repository benchmark: adhoc, dashboard and ingest workloads.

Run from the repository root::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --compare old.json new.json

Each workload runs in a fresh child process (so a leak cannot slow the
next run unnoticed, and ``resource_tracker`` warnings the pool leaves
on stderr can be counted).  The child drives ``repro`` through its
public API only, from inputs generated from ``--seed``, measures for
``--seconds`` and checks the answers it received.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from spans the benchmark records around each
layer's entry points) with ``--trace 1``.  The exit code is non-zero
when any answer was wrong or any operation failed.

Metric names and units come from ``BENCHMARK.json`` at the repository
root.  ``--out FILE`` also writes the full record, with the machine
fingerprint; ``--compare`` refuses to compare records whose
fingerprints differ.  See ``perfbench/README.md`` for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("adhoc", "dashboard", "ingest")

#: the metric tables (name, unit, bound) the run reports against
BENCHMARK = ROOT / "BENCHMARK.json"


def child_timeout(seconds: float) -> float:
    """Seconds a workload child may take: set-up, checks and clean-up
    take up to about a minute on top of the measured ``seconds``."""
    return 90.0 + 3.0 * seconds


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record here")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# child: one workload in a fresh process
# ----------------------------------------------------------------------
def run_child(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    import importlib

    from common import fingerprint, median, steal_seconds
    from tracer import Tracer

    module = importlib.import_module(args.workload)
    tracer = Tracer() if args.trace else None
    OUT_DIR.mkdir(exist_ok=True)
    steal = steal_seconds()
    outcome = module.run(args.seed, args.seconds, tracer=tracer,
                         scratch=OUT_DIR)
    metrics = dict(outcome.end_to_end)
    metrics["setup_s"] = median(outcome.setup_samples)
    extra = dict(outcome.extra)
    extra["bench.steal_s"] = steal_seconds() - steal
    extra["bench.failed_frac"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0
    )
    if tracer is not None and outcome.spans_root is not None:
        tracer.dump(
            str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"),
            outcome.spans_root,
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "end_to_end": metrics,
        "extra": extra,
        "setup_samples": outcome.setup_samples,
    }
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# parent
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, workload: str) -> Dict:
    """Run one workload in a child; return its record (or raise)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(
        command, cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    timeout = child_timeout(args.seconds)
    try:
        stdout, stderr = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload} did not finish in {timeout:.0f} s")
    finally:
        # the pool's workers and resource tracker share the group
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    warnings = sum(
        1 for line in stderr.splitlines() if "resource_tracker" in line
    )
    if stderr.strip():
        sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} exited with {child.returncode}"
        )
    record = json.loads(lines[-1])
    record["extra"]["dispatch.tracker_warnings"] = float(warnings)
    return record


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    table = json.loads(BENCHMARK.read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in table}


def result_line(record: Dict, trace: int) -> Dict:
    """The last stdout line: exactly the metrics of this run kind."""
    units = metric_units("per_layer" if trace else "end_to_end")
    source = record["extra"] if trace else record["end_to_end"]
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    return {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def print_record(record: Dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    print("fingerprint " + json.dumps(record["fingerprint"],
                                      sort_keys=True))
    units = metric_units("per_layer")
    for name, unit in metric_units("end_to_end").items():
        print(f"  {name:<34} {record['end_to_end'][name]:14.4f} {unit}")
    for name in sorted(record["extra"]):
        unit = units.get(name, "")
        print(f"  {name:<34} {record['extra'][name]:14.4f} {unit}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def compare(paths: List[str]) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in paths)
    if old["fingerprint"] != new["fingerprint"]:
        print("refusing to compare: fingerprints differ", file=sys.stderr)
        for key in sorted(set(old["fingerprint"]) | set(new["fingerprint"])):
            a, b = old["fingerprint"].get(key), new["fingerprint"].get(key)
            if a != b:
                print(f"  {key}: {a!r} != {b!r}", file=sys.stderr)
        return 3
    if old["workload"] != new["workload"]:
        print("refusing to compare: workloads differ", file=sys.stderr)
        return 3
    for name, unit in metric_units("end_to_end").items():
        a, b = old["end_to_end"][name], new["end_to_end"][name]
        ratio = b / a if a else float("nan")
        print(f"{name:<20} {a:12.4f} -> {b:12.4f} {unit:<4} x{ratio:.3f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if not BENCHMARK.is_file():
        print(f"perfbench: {BENCHMARK} is missing", file=sys.stderr)
        return 2
    if args.compare:
        return compare(args.compare)
    if args.child:
        return run_child(args)
    # a caller that times this process out sends SIGTERM: leave through
    # spawn()'s finally, which kills the child's process group
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        started = time.perf_counter()
        try:
            record = spawn(args, workload)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        record["run_s"] = time.perf_counter() - started
        print_record(record)
        records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(
            records[0] if len(records) == 1 else records, indent=1
        ))
    if len(records) == 1:
        print(json.dumps(result_line(records[0], args.trace)))
    failed = sum(record["failed"] for record in records)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""dirframes benchmark: end-to-end recovery metrics and a traced per-layer run.

    python3 perfbench/run.py --workload mosaic-tv --seed 0 --seconds 30 --trace 0

Run from anywhere; it measures the package under this checkout's ``src/``
in one process with every BLAS pool pinned to one thread.  The workloads
are described in ``workloads.py``.

``--trace 0`` times the workload untraced.  ``setup_s`` is the median of
several cold set-ups, each in a fresh interpreter.  The cases are then
solved in full passes until the next pass would overrun ``--seconds``
(at least one pass), and every pass after the first must reproduce the
first one's images byte for byte.

``--trace 1`` alternates an untraced and a traced pass, each with its own
set-up, and reports per-layer figures (``layers.py``) from the traced ones.
The traced images and iteration counts must equal the untraced ones.

Every solve goes through the gate in ``workloads.check``.  Human-readable
lines, starting with the environment record, come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import env  # pins BLAS threads before numpy loads

env.require_package()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, traced  # noqa: E402

SIZE = 256
SETUP_PROBES = 9

# name -> (unit, better)
END_TO_END = {
    "solve_s": ("s", "lower"),
    "iter_ms": ("ms", "lower"),
    "iterations": ("count", "lower"),
    "psnr_db": ("dB", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


@dataclass
class Tally:
    """Solves attempted and failed so far, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, reasons):
        self.failed += 1
        self.problems.extend(reasons)


def _solve_cases(cases, tally):
    """Run each case once; returns wall seconds by case label, and raw results."""
    walls, raws = {}, []
    for case in cases:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            raws.append((case, case.run()))
        except Exception as exc:  # a solve that raises is a failed solve, not a crash
            tally.fail([f"{case.label}: raised {exc!r}"])
        walls[case.label] = time.perf_counter() - t0
    return walls, raws


def _collect(workload, raws, tally):
    """Outcomes of the solves that returned; failed gates go into ``tally``."""
    outcomes = {}
    for case, raw in raws:
        try:
            outcome = case.collect(raw)
        except (OSError, ValueError, KeyError) as exc:
            tally.fail([f"{case.label}: unreadable result {exc!r}"])
            continue
        reasons = workloads.check(outcome, workload.floor_db)
        if reasons:
            tally.fail(reasons)
        else:
            outcomes[outcome.label] = outcome
    return outcomes


def _compare(reference, outcomes, tally, what):
    for label, o in outcomes.items():
        ref = reference.get(label)
        if ref is not None and (o.iterations != ref.iterations or o.image.tobytes() != ref.image.tobytes()):
            tally.fail([f"{label}: {what} gave {o.iterations} iterations / different image bytes "
                        f"vs {ref.iterations}"])


def _probe_setup(name, seed, size, work):
    probe = env.ROOT / "perfbench" / "setup_probe.py"
    times = []
    for i in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(probe), name, str(seed), str(size), str(work / f"probe-{i}")],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def measure(workload, seed, seconds, size, work):
    """Untraced run: the end-to-end metrics."""
    tally = Tally()
    setup_s = _probe_setup(workload.name, seed, size, work)
    start = time.perf_counter()
    cases = workload.setup(seed, size, work / "run")
    walls, first, per_iteration = defaultdict(list), None, []
    while True:
        t_pass = time.perf_counter()
        pass_walls, raws = _solve_cases(cases, tally)
        for label, wall in pass_walls.items():
            walls[label].append(wall)
        outcomes = _collect(workload, raws, tally)
        tally.problems += workload.finish(work / "run", list(outcomes.values()))
        per_iteration += [pass_walls[label] / o.iterations for label, o in outcomes.items()]
        if first is None:
            first = outcomes
        else:
            _compare(first, outcomes, tally, "a repeated pass")
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            break
    iterations = sum(o.iterations for o in first.values())
    all_walls = [w for ws in walls.values() for w in ws]
    metrics = {
        "solve_s": statistics.median(all_walls),
        "iter_ms": 1e3 * statistics.median(per_iteration) if per_iteration else 0.0,
        "iterations": iterations,
        "psnr_db": statistics.fmean(o.psnr for o in first.values()) if first else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [f"solve_s is the median of {len(all_walls)} solves ({len(all_walls) // len(cases)} passes "
             f"of {len(cases)}; too few for a higher percentile); iter_ms the median of their wall / iterations; "
             f"setup_s the median of {SETUP_PROBES} cold set-ups"]
    for label, o in first.items():
        notes.append(f"  {label:<20} {o.iterations:4d} iterations {o.psnr:8.4f} dB "
                     f"median {statistics.median(walls[label]):.3f} s")
    return metrics, tally, notes, []


def trace(workload, seed, seconds, size, work):
    """Untraced and traced passes in turn: the per-layer metrics."""
    tally = Tally()
    tracers, plain_s, traced_s = [], 0.0, 0.0
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        cases = workload.setup(seed, size, work / "untraced")
        walls, raws = _solve_cases(cases, tally)
        plain = _collect(workload, raws, tally)
        tally.problems += workload.finish(work / "untraced", list(plain.values()))
        plain_s += sum(walls.values())

        tracer = Tracer()
        with traced(tracer):
            cases = workload.setup(seed, size, work / "traced")
            walls, raws = _solve_cases(cases, tally)
        outcomes = _collect(workload, raws, tally)
        _compare(plain, outcomes, tally, "the traced run")
        tracers.append(tracer)
        traced_s += sum(walls.values())
        now = time.perf_counter()
        if now - start + (now - t_pair) > seconds:
            break
    metrics = layers.layer_metrics(tracers)
    bench, disagreement = layers.kernel_bench()
    metrics.update(bench)
    if disagreement > 1e-12:
        tally.problems.append(f"compiled kernels disagree with the numpy twins by {disagreement:.3g}")
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    notes = [f"{len(tracers)} traced passes; self-time share of solve wall (first pass):"]
    notes += layers.share_lines(tracers[0])
    return metrics, tally, notes, tracers


def run(workload_name, seed, seconds, trace_on, size=SIZE):
    """Run one workload; returns (result, notes, tracers, tally)."""
    workload = workloads.WORKLOADS[workload_name]
    work = env.ROOT / ".bench_work" / f"{workload_name}-{seed}-{trace_on}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        step = trace if trace_on else measure
        metrics, tally, notes, tracers = step(workload, seed, seconds, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    spec = layers.PER_LAYER if trace_on else END_TO_END
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]} for name in spec},
    }
    return result, notes, tracers, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not 0 <= args.seed < 2**62:
        parser.error("--seed must be in [0, 2^62)")

    print("env " + json.dumps(env.describe(args.seed), sort_keys=True))
    result, notes, _, tally = run(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print(line)
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

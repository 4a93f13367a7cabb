#!/usr/bin/env python3
"""Interleaved before/after runs of the benchmark, recorded as BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload mosaic-tv --seed 5 --pairs 10 --out BENCH_5.json

``--parent`` and ``--change`` are two checkouts (each with ``src/`` and
``perfbench/``).  Each pair runs ``perfbench/run.py --trace 0`` once in
each checkout, one after the other, and the side that runs first alternates
from pair to pair so that a drift in machine speed hits both sides alike.

The record in ``--out`` is keyed by workload, then seed, then side.  Each
side holds the per-pair ``iter_ms`` and ``solve_s`` with their min, median
and quartiles, the other end-to-end metrics per pair, and the ``failed``
counts.  Beside the sides, ``verdict`` holds for each of those two timed
metrics the pairs the change won (a tie counts for neither side), the
parent's interquartile range, the gap between the two medians, and whether
the claim rule holds: at least 10 pairs run, at least 9 of every 10 pairs
won, and a median gap larger than the parent's IQR.  One verdict line per
timed metric is printed.

``regression`` holds, for every end-to-end metric in ``BENCHMARK.json``, the
median of each side, the change's relative move against the parent (signed
so that positive is worse, by the metric's ``better``), the metric's
``bound`` and whether the move is worse than that bound.  It also holds the
parent's own spread, its interquartile range over its median.  When that
spread is wider than the bound, the runs cannot tell a move of the bound's
size from noise, so the metric is ``unresolved`` unless every change run
beats every parent run.  One line per metric is printed, flagged
``unresolved`` or ``WORSE`` when it is.

Each run also records what it cost the machine: its user and system CPU
seconds and its minor page faults, as the deltas of
``resource.getrusage(RUSAGE_CHILDREN)`` across the run.  They count the
whole run, its cold set-up probes (the run's own children) included, and
they are totals over the run's fixed length, not per iteration.  They are
printed on the pair line, and each side holds them per pair under
``rusage`` with their medians.

The record is written after every pair, so a series cut short keeps the
pairs it finished.  A run that exits with an error or prints no result is
listed under ``failed_runs`` (pair, side, error and the end of its stderr),
its pair is dropped, and the series goes on.
Running the script again for another workload or seed adds to the file.
The record also holds ``OPENBLAS_NUM_THREADS`` as the benchmark sets it.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TIMED = ("iter_ms", "solve_s")
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _run(checkout, workload, seed, seconds):
    """One benchmark run: ``(env, result)``, or ``(None, failure)`` when the
    run exits with an error or its output holds no result."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"user_s": after.ru_utime - before.ru_utime,
             "sys_s": after.ru_stime - before.ru_stime,
             "minflt": after.ru_minflt - before.ru_minflt}
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        error = f"exit code {done.returncode}"
    else:
        try:
            env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
            return env, {**json.loads(lines[-1]), "rusage": usage}
        except (ValueError, StopIteration, IndexError) as exc:
            error = f"no result in its output ({type(exc).__name__})"
    return None, {"error": error, "stderr": done.stderr[-2000:]}


def _summary(runs):
    side = {"pairs": len(runs), "failed": [r["failed"] for r in runs]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        side[name] = {"per_pair": values}
        if name in TIMED:
            side[name].update(min=min(values), median=statistics.median(values))
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                side[name]["quartiles"] = [q1, q3]
    side["rusage"] = {}
    for name in runs[0]["rusage"]:
        values = [r["rusage"][name] for r in runs]
        side["rusage"][name] = {"per_pair": values, "median": statistics.median(values)}
    return side


def _verdict(parent, change):
    """The claim rule on one lower-is-better metric, from the per-pair values."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = statistics.median(parent) - statistics.median(change)
    return {"wins": wins, "pairs": len(parent), "parent_iqr": q3 - q1, "median_gap": gap,
            "claim_holds": len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gap > q3 - q1}


def _regression(parent, change, spec):
    """The change's median move on one end-to-end metric, positive when
    worse, and whether the parent's own spread leaves it unresolved."""
    p, c = statistics.median(parent), statistics.median(change)
    lower = spec["better"] == "lower"
    worse = (c - p) / p if lower else (p - c) / p
    spread = None
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        spread = (q3 - q1) / p
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    return {"parent_median": p, "change_median": c, "worse_frac": worse,
            "bound": spec["bound"], "worse_than_bound": worse > spec["bound"],
            "parent_spread": spread, "change_beats_every_parent_run": beats_all,
            "unresolved": spread is not None and spread > spec["bound"] and not beats_all}


def _entry(runs, failures):
    """The record of one workload and seed, from the pairs finished so far."""
    entry = {"failed_runs": failures}
    if not runs["parent"]:
        return entry
    entry.update({side: _summary(runs[side]) for side in SIDES})
    if len(runs["parent"]) > 1:
        entry["verdict"] = {name: _verdict(entry["parent"][name]["per_pair"],
                                           entry["change"][name]["per_pair"]) for name in TIMED}
    entry["regression"] = {
        spec["name"]: _regression(entry["parent"][spec["name"]]["per_pair"],
                                  entry["change"][spec["name"]]["per_pair"], spec)
        for spec in json.loads(SPEC.read_text())["end_to_end"]}
    return entry


def _print_entry(workload, seed, entry):
    for name, v in entry.get("verdict", {}).items():
        print(f"verdict {workload} seed {seed} {name}: "
              f"{v['wins']}/{v['pairs']} won, median {entry['parent'][name]['median']:.4g} "
              f"-> {entry['change'][name]['median']:.4g}, gap {v['median_gap']:.4g} "
              f"vs parent IQR {v['parent_iqr']:.4g}: "
              f"claim {'holds' if v['claim_holds'] else 'fails'}", flush=True)
    for name, v in entry.get("regression", {}).items():
        status = ("unresolved" if v["unresolved"]
                  else "WORSE" if v["worse_than_bound"] else "within bound")
        spread = "n/a" if v["parent_spread"] is None else f"{100 * v['parent_spread']:.1f}%"
        print(f"regression {workload} seed {seed} {name}: median "
              f"{v['parent_median']:.4g} -> {v['change_median']:.4g}, "
              f"{100 * v['worse_frac']:+.1f}% (+ is worse), bound {100 * v['bound']:.0f}%, "
              f"parent spread {spread}: {status}", flush=True)
    if entry["failed_runs"]:
        print(f"{len(entry['failed_runs'])} failed runs, their pairs dropped", flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    record["command"] = f"perfbench/run.py --seconds {args.seconds:g} --trace 0"
    seeds = record["workloads"].setdefault(args.workload, {})
    runs = {side: [] for side in SIDES}
    failures = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            env, result = _run(checkouts[side], args.workload, args.seed, args.seconds)
            if env is None:
                failures.append({"pair": i, "side": side, **result})
                print(f"pair {i} {side}: run failed ({result['error']})", flush=True)
                break
            record["OPENBLAS_NUM_THREADS"] = env["threads"]["OPENBLAS_NUM_THREADS"]
            pair[side] = result
            usage = result["rusage"]
            print(f"pair {i} {side}: iter_ms {result['metrics']['iter_ms']['value']:.3f} "
                  f"failed {result['failed']} user {usage['user_s']:.2f} s "
                  f"sys {usage['sys_s']:.2f} s minflt {usage['minflt']}", flush=True)
        if len(pair) == len(SIDES):
            for side in SIDES:
                runs[side].append(pair[side])
        seeds[str(args.seed)] = _entry(runs, failures)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    _print_entry(args.workload, args.seed, seeds[str(args.seed)])
    return 0 if runs["parent"] else 1


if __name__ == "__main__":
    sys.exit(main())

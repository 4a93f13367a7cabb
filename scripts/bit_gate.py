#!/usr/bin/env python3
"""Bit-for-bit comparison of two checkouts on every benchmark case.

    python3 scripts/bit_gate.py --parent DIR --change DIR --seed 0

``--parent`` and ``--change`` are two checkouts, each with ``src/`` and
``perfbench/``.  For each checkout, every workload in
``perfbench/workloads.py`` and the headline command-line run go to a child
interpreter of their own.  The child puts the checkout's ``perfbench/`` and
``src/`` first on the path, and ``perfbench/env.py`` pins every BLAS pool to
one thread before numpy loads.  The child builds the workload's cases from
``--seed`` at ``--size`` pixels a side, as the benchmark does, and records
for each case:

* the image bytes (for a command-line case, the PGM it wrote) and the
  iteration count;
* ``residuals`` and ``psnr_history`` of a library solve, or the
  ``.report.json`` of a command-line one with its path field
  ``observation`` dropped;
* ``op_norm_sq``, and every ``objective_terms`` value, as ``float.hex``.

The headline run drives every command of the command line:

* ``dirframes sense`` on the block mosaic at rate 0.4 and noise 0.1, in
  both sensing modes, each followed by ``dirframes recover`` with rdadcf-8
  and the seam term, in both fidelity modes;
* ``report`` over those recover runs, with and without ``--average``;
* ``design`` and ``decompose`` of the block mosaic for every frame family
  at M = 8, and ``verify --out`` for every family at M = 4 and 8.

It records each command's exit code and the sha256 of every file it
writes: observations and sidecars, PGMs, ``.report.json`` files, CSVs,
JSON files and manifests.  A manifest is hashed with its
``wall_clock_seconds`` dropped, as that is the one field a rerun changes.

The script prints every field whose value differs between the two
checkouts, and every field that only one of them has, and exits 1 if there
is any; otherwise it prints the number of fields compared and exits 0.  It
reads ``perfbench/`` and writes only into a temporary directory.
"""

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEADLINE = "headline"
SENSE_SEED_OFFSET = 100


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _hex(values):
    return [float(v).hex() for v in values]


def _fields(prefix, values):
    """``values`` flattened to one field per key, floats as ``float.hex``."""
    def exact(v):
        return _hex(v) if isinstance(v, list) else float(v).hex() if isinstance(v, float) else v
    return {f"{prefix}.{k}": exact(v) for k, v in values.items()}


def _library_case(solver, case):
    x, report = case.run()
    return {
        "image": _digest(x.tobytes()),
        "iterations": report.iterations,
        "residuals": _hex(report.residuals),
        "psnr_history": _hex(report.psnr_history),
        "op_norm_sq": float(report.op_norm_sq).hex(),
        **_fields("objective_terms", solver.objective_terms(case.problem, x)),
    }


def _cli_case(solver, case):
    case.run()
    outcome = case.collect(None)
    report = json.loads(Path(f"{case.out}.report.json").read_text())
    report.pop("observation")
    return {
        "image": _digest(Path(case.out).read_bytes()),
        "iterations": report["iterations"],
        **_fields("report", report),
        **_fields("objective_terms", solver.objective_terms(outcome.problem, outcome.image)),
    }


def _file_fields(path):
    """The digest of the file at ``path``, or of every file under it, with
    each manifest's ``wall_clock_seconds`` dropped."""
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    record = {}
    for p in files:
        data = p.read_bytes()
        if p.name.endswith("manifest.json"):
            manifest = json.loads(data)
            manifest.pop("wall_clock_seconds")
            data = json.dumps(manifest, sort_keys=True).encode()
        record[str(p)] = _digest(data)
    return record


def _headline(seed, size, work):
    """The headline command-line runs, with paths relative to ``work`` so
    that the files of two checkouts can be compared byte for byte."""
    from dirframes import cli, frames, imagegrid, sensing, solver

    os.chdir(work)
    imagegrid.write_pgm(imagegrid.block_mosaic(size, seed=seed), "truth.pgm")
    runs = []  # (argv, the files and directories it writes)
    for mode in (sensing.SCRAMBLED_HADAMARD, sensing.COMPLEX_NOISELET):
        obs = f"obs-{mode}.bin"
        runs.append((["sense", "--image", "truth.pgm", "--rate", "0.4", "--sigma", "0.1",
                      "--seed", str(seed + SENSE_SEED_OFFSET), "--mode", mode, "--out", obs],
                     [obs, f"{obs}.json", f"{obs}.manifest.json"]))
        for fidelity in (solver.FIDELITY_L2BALL, solver.FIDELITY_EQUALITY):
            out = f"runs/rec-{mode}-{fidelity}.pgm"
            runs.append((["recover", "--obs", obs, "--family", "rdadcf", "--size", "8",
                          "--fidelity", fidelity, "--truth", "truth.pgm", "--out", out],
                         [out, f"{out}.report.json", f"{out}.manifest.json"]))
    runs.append((["report", "--runs", "runs", "--out", "report.csv"], ["report.csv"]))
    runs.append((["report", "--runs", "runs", "--out", "average.csv", "--average"],
                 ["average.csv"]))
    for family in frames.FRAME_FAMILIES:
        runs.append((["design", "--family", family, "--size", "8", "--out", f"design-{family}"],
                     [f"design-{family}"]))
        runs.append((["decompose", "--image", "truth.pgm", "--family", family, "--size", "8",
                      "--out", f"decompose-{family}"], [f"decompose-{family}"]))
        for M in (4, 8):
            out = f"verify-{family}-{M}.json"
            runs.append((["verify", "--family", family, "--size", str(M), "--out", out], [out]))

    Path("runs").mkdir()
    record = {}
    for argv, paths in runs:
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        record[f"{paths[0]}/exit"] = code
        for path in paths:
            if Path(path).exists():
                record.update(_file_fields(path))
    return record


def _child(checkout, part, seed, size, work, out):
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    import env  # pins BLAS threads before numpy loads

    env.require_package()
    if part == HEADLINE:
        record = _headline(seed, size, work)
    else:
        import workloads
        from dirframes import solver

        record = {}
        for case in workloads.WORKLOADS[part].setup(seed, size, Path(work)):
            run = _library_case if isinstance(case, workloads.LibrarySolve) else _cli_case
            for field, value in run(solver, case).items():
                record[f"{case.label}/{field}"] = value
    Path(out).write_text(json.dumps({f"{part}/{k}": v for k, v in record.items()}))


def _parts(checkout):
    """The workload names of a checkout, read in a child so that numpy and
    the package load from that checkout only."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import env; env.require_package(); "
            "import workloads; print(' '.join(workloads.WORKLOADS))")
    done = subprocess.run([sys.executable, "-c", code, str(Path(checkout) / "perfbench")],
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bit_gate: cannot read the workloads of {checkout}")
    return done.stdout.split() + [HEADLINE]


def _record(checkout, seed, size, tmp):
    record = {}
    for part in _parts(checkout):
        work = Path(tempfile.mkdtemp(prefix=f"{part}-", dir=tmp))
        out = work / "record.json"
        done = subprocess.run([sys.executable, __file__, "--child", str(checkout),
                               "--part", part, "--seed", str(seed), "--size", str(size),
                               "--work", str(work), "--out", str(out)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"bit_gate: {part} failed in {checkout} (exit {done.returncode})")
        record.update(json.loads(out.read_text()))
    return record


def _differences(parent, change):
    lines = []
    for key in sorted(set(parent) | set(change)):
        if key not in change:
            lines.append(f"{key}: only in the parent")
        elif key not in parent:
            lines.append(f"{key}: only in the change")
        elif parent[key] != change[key]:
            a, b = parent[key], change[key]
            if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
                where = [i for i, (u, v) in enumerate(zip(a, b)) if u != v]
                lines.append(f"{key}: {len(where)} of {len(a)} entries differ, first at {where[0]}: "
                             f"{a[where[0]]} != {b[where[0]]}")
            elif isinstance(a, list) and isinstance(b, list):
                lines.append(f"{key}: {len(a)} != {len(b)} entries")
            else:
                lines.append(f"{key}: {a} != {b}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--change", help="checkout of the change")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=256, help="image side, as in the benchmark")
    p.add_argument("--child", help=argparse.SUPPRESS)
    p.add_argument("--part", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        _child(args.child, args.part, args.seed, args.size, args.work, args.out)
        return 0
    if not (args.parent and args.change):
        p.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="bit-gate-") as tmp:
        parent = _record(Path(args.parent).resolve(), args.seed, args.size, tmp)
        change = _record(Path(args.change).resolve(), args.seed, args.size, tmp)
    lines = _differences(parent, change)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} differences at seed {args.seed}")
        return 1
    print(f"no difference in {len(parent)} fields at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
design     build a frame family and write its matrices/metadata to a directory
verify     run the numeric invariant suite for a family (or check a matrix CSV)
decompose  analyze an image and write per-subband coefficient planes + energies
sense      measure an image into a binary observation container
recover    solve the recovery problem for an observation and write the image
report     aggregate recover reports into a summary CSV

Exit codes: 0 success, 1 invariant failure, 2 bad arguments, 3 I/O failure,
4 solver divergence.  Every artifact-producing command writes a JSON manifest
next to its outputs; all randomness flows from explicit seeds, so re-running
a command reproduces its artifacts byte-for-byte at any BLAS thread count,
except ``recover`` and ``decompose`` with the pyramid family at M <= 16,
whose frame product a different thread count can round differently.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import operator
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, frames, imagegrid, sensing, solver, transforms

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SOLVER = 4

_INVARIANT_TOL = 1e-10
_ATOM_TOL = 1e-12
_SIDEDNESS_LIMIT = 0.15
_RANK_RTOL = 1e-8
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _CliError(Exception):
    """Error carrying an explicit exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# small I/O helpers


def _read(load, path):
    """``load(path)``, with a malformed file's ``ValueError`` as an I/O error."""
    try:
        return load(path)
    except ValueError as exc:
        raise _CliError(EXIT_IO, f"{path}: {exc}") from exc


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        return "unknown"


@functools.cache
def _blas_core():
    # the CPU kernel set that numpy's OpenBLAS picked at load (DYNAMIC_ARCH),
    # looked up through numpy's extension module, which links the library;
    # None where no *_get_corename* is exported
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        corename = getattr(lib, name, None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _write_manifest(path, args, inputs, outputs, t0):
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    _write_json(
        path,
        {
            "command": args.command,
            "version": __version__,
            # what decides the output bytes besides the parameters
            "environment": {
                "numpy": np.__version__,
                "blas": _blas_name(),
                "blas_core": _blas_core(),
                "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            },
            "parameters": params,
            "inputs": list(inputs),
            "outputs": list(outputs),
            "wall_clock_seconds": round(time.perf_counter() - t0, 3),
        },
    )


# ---------------------------------------------------------------------------
# design


def cmd_design(args):
    t0 = time.perf_counter()
    op = frames.build_frame(args.family, args.size)
    # every file's content, by name, before any output, as the analysis
    # matrix may refuse the size: a matrix for a CSV, a record for JSON
    files = {
        f"{args.family}_{args.size}_analysis.csv": op.analysis,
        "subbands.json": {
            "family": op.family,
            "block_size": op.block_size,
            "n_out": op.n_out,
            "subbands": [dataclasses.asdict(s) for s in op.subbands],
        },
    }
    for tm in op.transforms:
        ent = tm.entries
        parts = {"_real": ent.real, "_imag": ent.imag} if np.iscomplexobj(ent) else {"": ent}
        for suffix, entries in parts.items():
            files[f"{tm.kind}_{args.size}{suffix}.csv"] = entries
    if args.family == "rdadcf":
        gamma = transforms.extract_gamma(op.transforms[1], transforms.build_dst(args.size))
        files["givens.json"] = transforms.factor_givens(gamma).to_json_dict()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".csv"):
            transforms.matrix_to_csv(content, out / name)
        else:
            _write_json(out / name, content)
    _write_manifest(out / "manifest.json", args, [], list(files), t0)
    print(f"wrote {len(files)} files to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


_COMPARE = {"<": operator.lt, ">": operator.gt, "==": operator.eq}


def _check(name, value, cmp, limit):
    """One check of the verify report: ``value cmp limit``."""
    ok = _COMPARE[cmp](value, limit)
    return {"name": name, "value": value, "limit": f"{cmp} {limit:g}", "pass": bool(ok)}


def _rank(matrix):
    sv = np.linalg.svd(matrix, compute_uv=False)
    return int(np.count_nonzero(sv > _RANK_RTOL * sv[0]))


def _verify_family(family, M):
    """The family's invariant checks, as (name, value, cmp, limit), in report order."""
    op = frames.build_frame(family, M)

    if family == "pyramid":
        rng = np.random.Generator(np.random.Philox(key=[0, 0x9F2A]))
        blocks = rng.standard_normal((64, M, M))
        rt = float(np.max(np.abs(op.synthesize_blocks(op.analyze_blocks(blocks)) - blocks)))
        return [
            ("round_trip_residual", rt, "<", _INVARIANT_TOL),
            ("inner_parseval_residual", op.inner.parseval_residual(), "<", _INVARIANT_TOL),
        ]
    checks = [("parseval_residual", op.parseval_residual(), "<", _INVARIANT_TOL)]
    if family not in ("dadcf", "rdadcf"):
        return checks

    p = 1 if family == "dadcf" else 2
    mixed = [s for s in op.subbands if s.branch == "mixed"]
    checks.append(("directional_count", len(mixed), "==", 2 * (M - p) ** 2))

    cos_tm, sin_tm = op.transforms
    Fc, Fs = cos_tm.entries, sin_tm.entries
    sidedness = max(
        min(r, 1.0 - r)
        for r in (frames.analyticity_ratio(Fc[k], Fs[k]) for k in range(p, M))
    )
    checks.append(("analyticity_max_sidedness", sidedness, "<", _SIDEDNESS_LIMIT))

    if family == "dadcf":
        worst = 0.0
        for s in mixed:
            ref = frames.directional_cosine_atom(M, s.k_v, s.k_h, s.orientation)
            worst = max(worst, float(np.max(np.abs(frames.atom(op, s.index) - ref))))
        checks.append(("mixed_atom_identity", worst, "<", _ATOM_TOL))
        return checks

    # rdadcf-specific structure
    dst = transforms.build_dst(M)
    rdst = sin_tm
    ones = np.ones(M)
    target = np.zeros(M)
    target[0] = np.sqrt(M)
    regularity = float(np.max(np.abs(rdst.entries @ ones - target)))
    checks.append(("regularity_residual", regularity, "<", _INVARIANT_TOL))
    row_res = max(
        float(np.max(np.abs(rdst.entries[0] - np.sqrt(1.0 / M)))),
        float(np.max(np.abs(rdst.entries[1] - dst.entries[0]))),
        max(
            float(np.max(np.abs(rdst.entries[2 * l] - dst.entries[2 * l])))
            for l in range(1, M // 2)
        ),
    )
    checks.append(("row_structure_residual", row_res, "<", _INVARIANT_TOL))
    checks.append(("orthogonality_residual", rdst.gram_residual(), "<", _INVARIANT_TOL))

    steps = transforms.rdst_design_steps(M)
    alt = np.sqrt(1.0 / M) * np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    v = steps[0].null_vector
    null_res = min(float(np.max(np.abs(v - alt))), float(np.max(np.abs(v + alt))))
    checks.append(("first_null_vector_residual", null_res, "<", _INVARIANT_TOL))

    modified = transforms.build_modified_dst(M)
    checks.append(("modified_sine_rank", _rank(modified), "==", M - 1))
    checks.append(("first_zeroed_rank", _rank(steps[0].zeroed), "==", M - 1))

    if M == 4:
        gram = modified @ modified.T
        checks.append(("gram_fixture_01", abs(abs(gram[0, 1]) - 0.92388), "<", 5e-4))
        checks.append(("gram_fixture_03", abs(abs(gram[0, 3]) - 0.38268), "<", 5e-4))

    cond = transforms.redesign_conditioning(M)
    max_offdiag = max(c["max_offdiag"] for c in cond)
    checks.append(("conditioning_max_offdiag", max_offdiag, "<", 0.5 + 1e-9))
    min_diag = min(c["min_updated_diag"] for c in cond)
    checks.append(("conditioning_min_updated_diag", min_diag, ">", 1.0 - 1e-9))

    gamma = transforms.extract_gamma(rdst, dst)
    cascade = transforms.factor_givens(gamma)
    checks.append(("givens_rotation_count", len(cascade.rotations), "==", M * (M - 2) // 8))

    k = np.arange(1, M, 2)
    closed = np.sqrt(2.0) / (np.sqrt(M) * np.sin(np.pi * k / (2 * M)))
    dc_res = float(np.max(np.abs(dst.entries[k] @ ones - closed)))
    checks.append(("sine_row_dc_closed_form", dc_res, "<", _INVARIANT_TOL))
    return checks


def cmd_verify(args):
    if args.matrix_csv:
        try:
            A = transforms.matrix_from_csv(args.matrix_csv)
            res = float(np.max(np.abs(A.T @ A - np.eye(A.shape[1]))))
            checks = [_check("parseval_residual", res, "<", _INVARIANT_TOL)]
        except ValueError as exc:
            checks = [
                {"name": "load_matrix", "value": str(exc), "limit": "parseable CSV", "pass": False}
            ]
        report = {"matrix_csv": args.matrix_csv}
    elif args.family and args.size:
        checks = [_check(*c) for c in _verify_family(args.family, args.size)]
        report = {"family": args.family, "size": args.size}
    else:
        raise _CliError(EXIT_USAGE, "verify needs --family and --size, or --matrix-csv")

    report.update({"version": __version__, "checks": checks})
    report["pass"] = all(c["pass"] for c in checks)
    if args.out:
        _write_json(args.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["pass"]:
        failing = ", ".join(c["name"] for c in checks if not c["pass"])
        print(f"failing invariants: {failing}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose


def _plane_mosaic(planes, rows, cols):
    n = planes.shape[0]
    gw = int(np.ceil(np.sqrt(n)))
    gh = int(np.ceil(n / gw))
    peak = float(np.abs(planes).max())
    if peak <= 0.0:
        peak = 1.0
    tiles = np.zeros((gh * rows, gw * cols))
    for i in range(n):
        a, b = divmod(i, gw)
        tiles[a * rows : (a + 1) * rows, b * cols : (b + 1) * cols] = (
            np.abs(planes[i]).reshape(rows, cols) / peak
        )
    return tiles


def cmd_decompose(args):
    t0 = time.perf_counter()
    img = _read(imagegrid.read_pgm, args.image)
    op = frames.build_frame(args.family, args.size)
    blocks = imagegrid.to_blocks(img, args.size)
    rows, cols = img.shape[0] // args.size, img.shape[1] // args.size
    coeffs = op.analyze_blocks(blocks)  # (L, n_out)
    planes = np.ascontiguousarray(coeffs.T)  # one raster plane per subband

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    transforms.matrix_to_csv(planes, out / "coefficients.csv")
    imagegrid.write_pgm(_plane_mosaic(planes, rows, cols), out / "mosaic.pgm")

    energies = (planes**2).sum(axis=1)
    total = float(energies.sum())

    # DC leakage: analyze the per-block-mean field and measure how much of it
    # lands outside the nominal DC subbands (k_v = k_h = 0, non-mixed).
    means = blocks.mean(axis=(1, 2))
    flat = np.ascontiguousarray(np.broadcast_to(means[:, None, None], blocks.shape))
    dc_energy = (op.analyze_blocks(flat) ** 2).sum(axis=0)
    dc_idx = [
        s.index
        for s in op.subbands
        if s.branch != "mixed" and s.k_v == 0 and s.k_h == 0
    ]
    dc_total = float(dc_energy.sum())
    leak = float(dc_total - dc_energy[dc_idx].sum())

    _write_json(
        out / "energy.json",
        {
            "family": args.family,
            "size": args.size,
            "image": str(args.image),
            "plane_shape": [rows, cols],
            "total_energy": total,
            "dc_leakage": {
                "lowpass_indices": dc_idx,
                "mean_field_energy": dc_total,
                "leak_energy": leak,
                "leak_fraction": leak / dc_total if dc_total else 0.0,
            },
            "subbands": [
                dict(dataclasses.asdict(s), energy=float(e), fraction=float(e / total) if total else 0.0)
                for s, e in zip(op.subbands, energies)
            ],
        },
    )
    _write_manifest(
        out / "manifest.json",
        args,
        [str(args.image)],
        ["coefficients.csv", "mosaic.pgm", "energy.json"],
        t0,
    )
    print(f"decomposed {args.image} into {planes.shape[0]} planes at {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sense / recover / report


def cmd_sense(args):
    t0 = time.perf_counter()
    img = _read(imagegrid.read_pgm, args.image)
    obs = sensing.sense_image(
        img, args.rate, args.sigma, args.seed, mode=args.mode, seed_noise=args.seed_noise
    )
    sensing.save_observation(obs, args.out)
    _write_manifest(
        args.out + ".manifest.json",
        args,
        [str(args.image)],
        [args.out, args.out + ".json"],
        t0,
    )
    print(f"{obs.measurement_count} measurements ({args.mode}) -> {args.out}")
    return EXIT_OK


def _load_config(path):
    # malformed JSON and text that is not UTF-8 both raise ValueError
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise _CliError(EXIT_USAGE, f"{path}: config must be a JSON object")
    allowed = {"gamma1", "gamma2", "stop_tol", "max_iters"}
    unknown = set(raw) - allowed
    if unknown:
        raise _CliError(EXIT_USAGE, f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        # abs() <= max also rejects nan, and ints too large for a float
        if not (_is_number(value) and abs(value) <= sys.float_info.max):
            raise _CliError(EXIT_USAGE,
                            f"{path}: config {key} must be a finite number, got {value!r}")
    return solver.SolverConfig(**raw)


def cmd_recover(args):
    t0 = time.perf_counter()
    obs = _read(sensing.load_observation, args.obs)
    op = frames.build_frame(args.family, args.size)
    config = _load_config(args.config) if args.config else solver.SolverConfig()
    truth = _read(imagegrid.read_pgm, args.truth) if args.truth else None
    if truth is not None:
        solver.check_image_shape(truth, (obs.height, obs.width), "truth image")

    epsilon = args.epsilon
    if args.epsilon_oracle:
        if truth is None:
            raise _CliError(EXIT_USAGE, "--epsilon-oracle requires --truth")
        meas = obs.operator()
        epsilon = solver._norm(meas.forward(truth.reshape(-1, order="F")) - obs.y)

    problem = solver.ProblemSpec(
        frame=op,
        observation=obs,
        rho=0.0 if args.problem == 1 else 1.0,
        epsilon=epsilon,
        fidelity_mode=args.fidelity,
    )
    x, rep = solver.solve(problem, config, truth=truth)
    imagegrid.write_pgm(x, args.out)

    summary = rep.to_json_dict()
    summary.update(
        {
            "family": args.family,
            "size": args.size,
            "problem": args.problem,
            "fidelity": args.fidelity,
            "rate": obs.rate,
            "sigma": obs.sigma,
            "seed": obs.seed,
            "mode": obs.mode,
            "observation": str(args.obs),
            "image": Path(args.truth).stem if args.truth else Path(args.obs).stem,
        }
    )
    if truth is not None:
        summary["psnr"] = imagegrid.psnr(truth, x)
        summary["baseline_psnr"] = imagegrid.psnr(truth, sensing.pseudo_inverse_estimate(obs))
    _write_json(args.out + ".report.json", summary)
    _write_manifest(
        args.out + ".manifest.json",
        args,
        [str(args.obs)] + ([str(args.truth)] if args.truth else []),
        [args.out, args.out + ".report.json"],
        t0,
    )
    line = f"{rep.iterations} iterations ({rep.stop_reason})"
    if truth is not None:
        line += f", PSNR {summary['psnr']:.2f} dB (baseline {summary['baseline_psnr']:.2f} dB)"
    print(line)
    return EXIT_OK


_REPORT_FIELDS = (
    "image",
    "family",
    "size",
    "rate",
    "problem",
    "seed",
    "psnr",
    "baseline_psnr",
    "iterations",
    "stop_reason",
)


def _load_report(path):
    # malformed JSON and text that is not UTF-8 both raise ValueError
    d = _read(lambda p: json.loads(p.read_text()), path)
    ok = (
        isinstance(d, dict)
        and _is_number(d.get("iterations"))
        and isinstance(d["iterations"], int)
        and all(d.get(k) is None or _is_number(d[k]) for k in ("psnr", "baseline_psnr"))
        and not any(isinstance(d.get(k), (list, dict)) for k in _REPORT_FIELDS)
    )
    if not ok:
        raise _CliError(
            EXIT_IO,
            f"{path}: not a recover report (a JSON object with an integer 'iterations', "
            f"numeric or null PSNRs and scalar fields)",
        )
    return d


def cmd_report(args):
    run_dir = Path(args.runs)
    paths = sorted(run_dir.glob("*.report.json"))
    if not paths:
        raise _CliError(EXIT_IO, f"no *.report.json files under {run_dir}")
    rows = []
    for path in paths:
        d = _load_report(path)
        rows.append({k: d.get(k) for k in _REPORT_FIELDS})
    rows.sort(key=lambda r: tuple(str(r[k]) for k in _REPORT_FIELDS[:6]))

    if args.average:
        grouped = {}
        for r in rows:
            grouped.setdefault(tuple(r[k] for k in _REPORT_FIELDS[:5]), []).append(r)
        rows = []
        for key, members in sorted(grouped.items(), key=lambda kv: tuple(map(str, kv[0]))):
            psnrs = [m["psnr"] for m in members if m["psnr"] is not None]
            base = [m["baseline_psnr"] for m in members if m["baseline_psnr"] is not None]
            rows.append(
                dict(
                    zip(_REPORT_FIELDS[:5], key),
                    seed=f"mean-of-{len(members)}",
                    psnr=float(np.mean(psnrs)) if psnrs else None,
                    baseline_psnr=float(np.mean(base)) if base else None,
                    iterations=int(np.mean([m["iterations"] for m in members])),
                    stop_reason="",
                )
            )

    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    with open(args.out, "w") as fh:
        fh.write(",".join(_REPORT_FIELDS) + "\n")
        for r in rows:
            fh.write(",".join(fmt(r[k]) for k in _REPORT_FIELDS) + "\n")
    print(f"{len(rows)} rows -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser():
    p = argparse.ArgumentParser(
        prog="dirframes",
        description="Directional block frames: design, verification, and compressive recovery.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    frame = argparse.ArgumentParser(add_help=False)  # the flags that pick a frame
    frame.add_argument("--family", required=True, choices=frames.FRAME_FAMILIES)
    frame.add_argument("--size", required=True, type=int, help="block size M (power of two)")

    d = sub.add_parser("design", parents=[frame], help="write frame matrices and metadata")
    d.add_argument("--out", required=True, help="output directory")
    d.set_defaults(func=cmd_design)

    v = sub.add_parser("verify", help="run the numeric invariant suite")
    v.add_argument("--family", choices=frames.FRAME_FAMILIES)
    v.add_argument("--size", type=int)
    v.add_argument("--matrix-csv", dest="matrix_csv", help="check a matrix CSV on disk instead")
    v.add_argument("--out", help="also write the JSON report here")
    v.set_defaults(func=cmd_verify)

    dc = sub.add_parser("decompose", parents=[frame], help="write per-subband coefficient planes")
    dc.add_argument("--image", required=True, help="input PGM image")
    dc.add_argument("--out", required=True, help="output directory")
    dc.set_defaults(func=cmd_decompose)

    s = sub.add_parser("sense", help="measure an image")
    s.add_argument("--image", required=True, help="input PGM image")
    s.add_argument("--rate", required=True, type=float, help="sampling rate in (0, 1]")
    s.add_argument("--sigma", type=float, default=0.0, help="measurement noise level")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--seed-noise", dest="seed_noise", type=int, default=None)
    s.add_argument(
        "--mode",
        choices=(sensing.SCRAMBLED_HADAMARD, sensing.COMPLEX_NOISELET),
        default=sensing.SCRAMBLED_HADAMARD,
    )
    s.add_argument("--out", required=True, help="output observation file")
    s.set_defaults(func=cmd_sense)

    r = sub.add_parser("recover", parents=[frame], help="recover an image from an observation")
    r.add_argument("--obs", required=True, help="observation file from `sense`")
    r.add_argument("--problem", type=int, choices=(1, 2), default=2,
                   help="1: frame sparsity only; 2: adds the boundary-difference term")
    r.add_argument("--fidelity", choices=(solver.FIDELITY_L2BALL, solver.FIDELITY_EQUALITY),
                   default=solver.FIDELITY_L2BALL)
    r.add_argument("--epsilon", type=float, default=None,
                   help="data-fidelity radius (default sigma * sqrt(m))")
    r.add_argument("--epsilon-oracle", dest="epsilon_oracle", action="store_true",
                   help="set the radius from the truth image residual (needs --truth)")
    r.add_argument("--config", help="JSON file with solver settings")
    r.add_argument("--truth", help="reference PGM for PSNR reporting")
    r.add_argument("--out", required=True, help="output PGM path")
    r.set_defaults(func=cmd_recover)

    rp = sub.add_parser("report", help="aggregate recover reports into a CSV")
    rp.add_argument("--runs", required=True, help="directory containing *.report.json")
    rp.add_argument("--out", required=True, help="output CSV path")
    rp.add_argument("--average", action="store_true", help="average PSNR across seeds")
    rp.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except solver.DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer figures from traced passes, and standalone kernel timings.

Every figure is per pass (one set-up plus one solve of each of the
workload's cases).  Counts come from the first traced pass and repeat
exactly; times are averaged over the traced passes.  ``self_ms`` excludes
the time of wrapped callees; ``solver.gate.ms`` and ``transforms.build_ms``
are inclusive.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

import numpy as np

from dirframes import backend

FRAME_TAGS = ("rdadcf-8", "dht-8", "pyramid-8", "rdadcf-32")
KERNELS = ("fwht", "noiselet", "noiselet_adjoint")
KERNEL_N = 1 << 16   # one 256 x 256 image
KERNEL_REPEATS = 15

# name -> (unit, better)
PER_LAYER = {
    "backend.fwht.calls": ("count", "lower"),
    "backend.fwht.self_ms": ("ms", "lower"),
    "backend.fwht.gops": ("GOP/s", "higher"),
    "backend.fwht.bytes_computed": ("B", "lower"),
    "backend.noiselet.calls": ("count", "lower"),
    "backend.noiselet.self_ms": ("ms", "lower"),
    "backend.noiselet_adjoint.calls": ("count", "lower"),
    "backend.noiselet_adjoint.self_ms": ("ms", "lower"),
    **{f"backend.{k}.bench_ms": ("ms", "lower") for k in KERNELS},
    "sensing.calls": ("count", "lower"),
    "sensing.forward.self_ms": ("ms", "lower"),
    "sensing.adjoint.self_ms": ("ms", "lower"),
    "frames.calls": ("count", "lower"),
    "frames.analyze.self_ms": ("ms", "lower"),
    "frames.adjoint.self_ms": ("ms", "lower"),
    **{f"frames.{t}.{op}_ms": ("ms", "lower") for t in FRAME_TAGS for op in ("analyze", "adjoint")},
    "transforms.build_ms": ("ms", "lower"),
    "solver.gate.ms": ("ms", "lower"),
    "solver.gate.passes": ("count", "lower"),
    "solver.gate.share": ("ratio", "lower"),
    "solver.prox_l12.self_ms": ("ms", "lower"),
    "solver.diff.apply_ms": ("ms", "lower"),
    "solver.diff.adjoint_ms": ("ms", "lower"),
    "solver.prox_l1.self_ms": ("ms", "lower"),
    "solver.project_ball.self_ms": ("ms", "lower"),
    "solver.self_ms": ("ms", "lower"),
    "imagegrid.psnr.self_ms": ("ms", "lower"),
    "cli.io_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# span name -> metric holding its self time
_SELF_MS = {
    "backend.fwht": "backend.fwht.self_ms",
    "backend.noiselet": "backend.noiselet.self_ms",
    "backend.noiselet_adjoint": "backend.noiselet_adjoint.self_ms",
    "sensing.forward": "sensing.forward.self_ms",
    "sensing.adjoint": "sensing.adjoint.self_ms",
    "frames.analyze": "frames.analyze.self_ms",
    "frames.adjoint": "frames.adjoint.self_ms",
    "solver.diff.apply": "solver.diff.apply_ms",
    "solver.diff.adjoint": "solver.diff.adjoint_ms",
    "solver.prox_l1": "solver.prox_l1.self_ms",
    "solver.prox_l12": "solver.prox_l12.self_ms",
    "solver.project_ball": "solver.project_ball.self_ms",
    "solver.solve": "solver.self_ms",
    "imagegrid.psnr": "imagegrid.psnr.self_ms",
    "cli.main": "cli.io_ms",
}
# span name -> metric holding its inclusive time
_INCLUSIVE_MS = {"transforms.build": "transforms.build_ms", "solver.gate": "solver.gate.ms"}
# span name -> metric counting its calls
_CALLS = {
    "backend.fwht": "backend.fwht.calls",
    "backend.noiselet": "backend.noiselet.calls",
    "backend.noiselet_adjoint": "backend.noiselet_adjoint.calls",
    "sensing.forward": "sensing.calls",
    "sensing.adjoint": "sensing.calls",
    "frames.analyze": "frames.calls",
    "frames.adjoint": "frames.calls",
}
COUNTS = {name for name, (unit, _) in PER_LAYER.items() if unit == "count"}


def _pass_figures(tracer):
    fig = defaultdict(float)
    in_gate = tracer.under("solver.gate")
    in_solve = tracer.under("solver.solve")
    fwht_ops = solve_passes = 0.0
    for i, (span, own) in enumerate(zip(tracer.spans, tracer.self_times())):
        name = span.name
        if name in _SELF_MS:
            fig[_SELF_MS[name]] += own * 1e3
        if name in _INCLUSIVE_MS:
            fig[_INCLUSIVE_MS[name]] += span.duration * 1e3
        if name in _CALLS:
            fig[_CALLS[name]] += 1
        if name.startswith("frames."):
            fig[f"frames.{span.detail}.{name[len('frames.'):]}_ms"] += own * 1e3
        elif name == "backend.fwht":
            # n log2 n add/subtracts; each of the log2 n stages reads and
            # writes the whole float64 vector once
            fwht_ops += span.detail * math.log2(span.detail)
        elif name == "sensing.forward" and in_solve[i]:
            # one forward measurement per operator pass, in the gate or a step
            solve_passes += 1
            fig["solver.gate.passes"] += in_gate[i]
    fig["backend.fwht.bytes_computed"] = 16.0 * fwht_ops
    fwht_s = fig["backend.fwht.self_ms"] / 1e3
    fig["backend.fwht.gops"] = fwht_ops / fwht_s / 1e9 if fwht_s else 0.0
    fig["solver.gate.share"] = fig["solver.gate.passes"] / solve_passes if solve_passes else 0.0
    return fig


def layer_metrics(tracers):
    """Per-pass layer figures: counts from the first pass, the rest averaged."""
    figures = [_pass_figures(t) for t in tracers]
    out = {}
    for name in PER_LAYER:
        if name in COUNTS:
            out[name] = int(figures[0][name])
        else:
            out[name] = statistics.fmean(f[name] for f in figures)
    return out


def kernel_bench():
    """Median standalone kernel times at n = 2^16 (``backend.<k>.bench_ms``).

    When the compiled extension is active, also returns the worst relative
    disagreement with the numpy twins, which must stay at rounding level.
    """
    from dirframes import _kernels_py

    rng = np.random.Generator(np.random.Philox(key=[0, 0xBE7C]))
    x = rng.standard_normal(KERNEL_N)
    z = x + 1j * rng.standard_normal(KERNEL_N)
    inputs = {"fwht": x, "noiselet": z, "noiselet_adjoint": z}
    out, disagreement = {}, 0.0
    for name in KERNELS:
        fn, arg = getattr(backend, name), inputs[name]
        times = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            fn(arg)
            times.append(time.perf_counter() - t0)
        out[f"backend.{name}.bench_ms"] = statistics.median(times) * 1e3
        if backend.HAVE_COMPILED:
            ref = fn(arg, impl=_kernels_py)
            disagreement = max(disagreement, float(np.max(np.abs(fn(arg) - ref)) / np.max(np.abs(ref))))
    return out, disagreement


def share_lines(tracer):
    """Each span name's self time as a share of the solves' wall time."""
    roots = {i for i, s in enumerate(tracer.spans)
             if s.parent is None and s.name in ("solver.solve", "cli.main")}
    wall = sum(tracer.spans[i].duration for i in roots)
    shares = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.root in roots:
            shares[span.name] += own
    lines = [f"  {name:<28} {t / wall:7.1%}" for name, t in sorted(shares.items(), key=lambda kv: -kv[1])]
    lines.append(f"  {'(sum of self times)':<28} {sum(shares.values()) / wall:7.1%} of {wall:.3f} s")
    return lines

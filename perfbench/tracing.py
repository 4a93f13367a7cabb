"""Spans around the public entry points of each dirframes layer.

:func:`traced` swaps each name listed in ``_targets`` for a wrapper that records
a span (name, start, end, parent, root) and calls the original, then puts
the originals back.  The program itself is not changed: the wrappers sit on
the module and class attributes that callers look up at call time, and they
pass arguments and results through untouched, so a traced solve is
byte-identical to an untraced one.

A span's root is the outermost span it runs under (a ``solver.solve`` or a
``cli.main`` call), which serves as the solve id.  Self time is a span's
duration minus the durations of its direct children, so the self times of
one root's tree add up to the root's wall time.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    detail: object      # frame "<family>-<M>" or kernel vector length
    parent: int | None  # index into Tracer.spans
    root: int
    start: float
    end: float = math.nan

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, detail, fn, args, kwargs):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        root = index if parent is None else self.spans[parent].root
        span = Span(name, detail, parent, root, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def self_times(self):
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def under(self, name):
        """Per span: whether it is, or runs inside, a span called ``name``."""
        flags = []
        for s in self.spans:
            flags.append(s.name == name or (s.parent is not None and flags[s.parent]))
        return flags


def _length(args):
    return len(args[0])


def _frame(args):
    op = args[0]
    return f"{op.family}-{op.block_size}"


def _targets():
    from dirframes import cli, frames, sensing, solver

    return [
        (sensing, "fwht", "backend.fwht", _length),
        (sensing, "noiselet", "backend.noiselet", _length),
        (sensing, "noiselet_adjoint", "backend.noiselet_adjoint", _length),
        (sensing.MeasurementOperator, "forward", "sensing.forward", None),
        (sensing.MeasurementOperator, "adjoint", "sensing.adjoint", None),
        (frames, "build_frame", "transforms.build", None),
        (frames.FrameOperator, "analyze_blocks", "frames.analyze", _frame),
        (frames.FrameOperator, "adjoint_blocks", "frames.adjoint", _frame),
        (solver.DiffOperator, "apply", "solver.diff.apply", None),
        (solver.DiffOperator, "adjoint", "solver.diff.adjoint", None),
        (solver, "prox_l1", "solver.prox_l1", None),
        (solver, "prox_l12", "solver.prox_l12", None),
        (solver, "project_ball", "solver.project_ball", None),
        (solver, "estimate_operator_norm_sq", "solver.gate", None),
        (solver, "psnr", "imagegrid.psnr", None),
        (solver, "solve", "solver.solve", None),
        (cli, "main", "cli.main", None),
    ]


def _wrap(tracer, name, detail, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, detail(args) if detail else None, fn, args, kwargs)

    return wrapper


@contextmanager
def traced(tracer):
    """Record spans into ``tracer`` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, detail in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, name, detail, original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

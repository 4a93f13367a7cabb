"""The benchmark's workloads and the correctness gate every solve must pass.

Every input derives from one seed: the test image uses ``seed`` and the
sensing operator and noise use ``seed + 100``.  That is the pairing the
criterion-8 acceptance runs use, so seed 0 reproduces the headline solve
(block mosaic, rdadcf M=8, rate 0.4: 120 iterations, 30.97 dB).

Why these three:

* ``mosaic-tv`` is the criterion-8a/b traffic and the headline solve.  It
  runs every layer: fwht sensing, frame analyze/adjoint, the seam-difference
  operator with ``prox_l12``, ``prox_l1``, the ball projection and the
  step-size gate.
* ``texture-l1`` is the criterion-8c traffic (rho = 0).  It bypasses the
  difference operator and ``prox_l12``, so the frame layer's share rises, and
  it covers the pyramid's left-inverse family and M = 32 blocks.
* ``noiselet-cli`` drives the ``dirframes`` command line with complex
  noiselet sensing.  It bypasses fwht, and it is the only workload that
  exercises observation files, PGM I/O and report aggregation.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dirframes import cli, frames, imagegrid, sensing, solver

SIGMA = 0.1
SENSE_SEED_OFFSET = 100
# a converged solve sits on the data ball; the primal-dual iterate may end a
# hair outside it (measured: at most 3e-4 * eps at 256 x 256)
GAP_TOL = 1e-3


@dataclass
class Outcome:
    """A finished solve, as the correctness gate sees it."""

    label: str
    image: np.ndarray
    iterations: int
    stop_reason: str
    psnr: float
    problem: solver.ProblemSpec
    truth: np.ndarray
    gap_slack: float = 0.0


@dataclass
class LibrarySolve:
    """One ``solver.solve`` call on inputs built in memory."""

    label: str
    problem: solver.ProblemSpec
    truth: np.ndarray

    def run(self):
        return solver.solve(self.problem, solver.SolverConfig(), truth=self.truth)

    def collect(self, raw):
        x, report = raw
        return Outcome(self.label, x, report.iterations, report.stop_reason,
                       report.final_psnr, self.problem, self.truth)


@dataclass
class CliRecover:
    """One ``dirframes recover`` command; its files are read back afterwards."""

    label: str
    argv: list
    obs: Path
    out: Path
    truth: np.ndarray

    def run(self):
        code = _cli(self.argv)
        if code != 0:
            raise RuntimeError(f"recover exited with code {code}")

    def collect(self, raw):
        report = json.loads(Path(f"{self.out}.report.json").read_text())
        image = imagegrid.read_pgm(self.out)
        problem = solver.ProblemSpec(frame=frames.build_frame("rdadcf", 8),
                                     observation=sensing.load_observation(self.obs), rho=1.0)
        # the PGM holds x rounded to 8 bits, and Phi has orthonormal rows, so
        # the gap can grow by at most ||q - x|| <= sqrt(n) / 510
        slack = np.sqrt(image.size) * 0.5 / 255.0
        return Outcome(self.label, image, report["iterations"], report["stop_reason"],
                       report["psnr"], problem, self.truth, slack)


def _cli(argv):
    # the commands print progress lines; keep stdout for the benchmark's result
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(argv)


class Workload:
    """A named set of cases built from one seed.

    ``setup`` builds the inputs and returns the cases; ``finish`` checks
    whatever a pass leaves besides its solves and returns the problems.
    """

    name = None
    floor_db = None  # PSNR gain every solve must make over the pseudo-inverse

    def setup(self, seed, size, work):
        raise NotImplementedError

    def finish(self, work, outcomes):
        return []


class MosaicTV(Workload):
    name = "mosaic-tv"
    floor_db = 15.0
    rates = (0.3, 0.4, 0.5, 0.6)

    def setup(self, seed, size, work):
        frame = frames.build_frame("rdadcf", 8)
        truth = imagegrid.block_mosaic(size, seed=seed)
        cases = []
        for rate in self.rates:
            obs = sensing.sense_image(truth, rate, SIGMA, seed=seed + SENSE_SEED_OFFSET)
            problem = solver.ProblemSpec(frame=frame, observation=obs, rho=1.0)
            cases.append(LibrarySolve(f"rdadcf-8@{rate}", problem, truth))
        return cases


class TextureL1(Workload):
    name = "texture-l1"
    floor_db = 8.0
    rate = 0.5
    families = (("rdadcf", 8), ("dht", 8), ("pyramid", 8), ("rdadcf", 32))

    def setup(self, seed, size, work):
        truth = imagegrid.oriented_texture(size, seed=seed)
        obs = sensing.sense_image(truth, self.rate, SIGMA, seed=seed + SENSE_SEED_OFFSET)
        cases = []
        for family, M in self.families:
            problem = solver.ProblemSpec(frame=frames.build_frame(family, M), observation=obs, rho=0.0)
            cases.append(LibrarySolve(f"{family}-{M}@{self.rate}", problem, truth))
        return cases


class NoiseletCli(Workload):
    name = "noiselet-cli"
    floor_db = 15.0
    rates = (0.4, 0.5)

    def setup(self, seed, size, work):
        work.mkdir(parents=True, exist_ok=True)
        truth_path = work / "truth.pgm"
        imagegrid.write_pgm(imagegrid.block_mosaic(size, seed=seed), truth_path)
        truth = imagegrid.read_pgm(truth_path)
        cases = []
        for rate in self.rates:
            obs = work / f"obs-{rate}.bin"
            code = _cli(["sense", "--image", str(truth_path), "--rate", str(rate),
                         "--sigma", str(SIGMA), "--seed", str(seed + SENSE_SEED_OFFSET),
                         "--mode", sensing.COMPLEX_NOISELET, "--out", str(obs)])
            if code != 0:
                raise RuntimeError(f"sense exited with code {code}")
            out = work / f"rec-{rate}.pgm"
            argv = ["recover", "--obs", str(obs), "--family", "rdadcf", "--size", "8",
                    "--truth", str(truth_path), "--out", str(out)]
            cases.append(CliRecover(f"recover@{rate}", argv, obs, out, truth))
        return cases

    def finish(self, work, outcomes):
        """Aggregate the pass's reports and check the table against them."""
        table = work / "table.csv"
        code = _cli(["report", "--runs", str(work), "--out", str(table)])
        if code != 0:
            return [f"report exited with code {code}"]
        with open(table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        got = sorted(int(r["iterations"]) for r in rows)
        want = sorted(o.iterations for o in outcomes)
        if got != want:
            return [f"report table iterations {got} != recover reports {want}"]
        return []


WORKLOADS = {w.name: w for w in (MosaicTV(), TextureL1(), NoiseletCli())}


def check(outcome, floor_db):
    """Reasons the solve counts as failed; empty when it passes."""
    problems = []
    if outcome.stop_reason != "tolerance":
        problems.append(f"stopped on {outcome.stop_reason!r}")
    x = outcome.image
    if x.min() < 0.0 or x.max() > 1.0:
        problems.append(f"left [0, 1]: [{x.min():.3g}, {x.max():.3g}]")
    eps = outcome.problem.resolved_epsilon()
    gap = solver.objective_terms(outcome.problem, x)["fidelity_gap"]
    if gap > GAP_TOL * eps + outcome.gap_slack:
        problems.append(f"fidelity gap {gap:.3g} > {GAP_TOL:g} * eps ({eps:.3g})")
    base = imagegrid.psnr(outcome.truth, sensing.pseudo_inverse_estimate(outcome.problem.observation))
    if outcome.psnr - base < floor_db:
        problems.append(f"PSNR {outcome.psnr:.2f} dB is {outcome.psnr - base:.2f} dB over "
                        f"the pseudo-inverse, floor {floor_db} dB")
    return [f"{outcome.label}: {p}" for p in problems]

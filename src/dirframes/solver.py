"""Primal-dual splitting recovery of images from compressive measurements.

Solves

    min_x  ||F B x||_1  +  rho * ||W D x||_{1,2}  +  i_[0,1](x)  +  G_y(Phi x)

where F B is the block-frame analysis of the image, D is the forward-difference
operator and the weight W keeps only block-boundary pixels (discouraging
blocking artifacts), and the data term G_y is either the indicator of the l2
ball ||u - y|| <= eps or of the point {y}.  rho = 0 drops the difference
term (Problem 1), rho = 1 keeps it (Problem 2).

The iteration is a Chambolle-Pock-style primal-dual loop (Chambolle & Pock,
J. Math. Imaging Vis. 40, 2011; Condat, JOTA 158, 2013): a gradient step on
the primal followed by the box projection, then dual ascent steps through the
conjugate proxes in closed form.  The l1 dual is clipped to [-1, 1], the
l1,2 dual is scaled pixel by pixel into the ball of radius rho, and the data
dual is the shrink u * max(0, 1 - gamma * eps / ||u||) of u = z + gamma *
(Phi xb - y).  Equality is the ball of radius 0, whose factor is exactly 1.
Every norm that decides an output byte (the data step, the fidelity gap and
the loop's residual) is numpy's own loop, ``_norm``, not a BLAS call, so no
norm makes the bytes depend on the BLAS thread count.

The primal iterate, its gradient and the extrapolated point are kept as the
(L, M, M) stack of blocks in raster order that ``FrameOperator.analyze_blocks``
and ``adjoint_blocks`` read and write, so the frame needs no layout change.
The two other operators are built once per solve from one map of stack
positions.  Sensing reads the column-major image vector, so it alone is
relabeled, with ``in_order``: its vectorization and scrambling permutation
fold into one gather, and its adjoint into one gather through the inverse
index.  ``DiffOperator`` reads the stack natively and forms ``W D`` only on
the block ring, where W is 1 (K = L (4M - 4) pixels, 28 of 64 at M = 8), so
the l1,2 dual runs on (2, K) ring pairs and never on the zeros W would
make.  It holds one index table and one buffer of its length (1.8 MB
together at 256 x 256, M = 8): the pair's columns are the ring pixels
grouped as vertical-only, both, horizontal-only, neither, so the formed
differences are two ranges; its apply is one gather through the table,
and its adjoint one ``np.bincount`` scatter through the same table, the
exact transpose.  The loop makes no layout
copy: the truth image is converted once, for the PSNR trace, and the
result once, on return.  Every step is a permutation of the image-ordered
computation or the same elementwise arithmetic, so the image bytes are
unchanged; residuals and PSNRs are sums taken in another order and move
only by rounding.

Each term f_i(K_i x) of L = [F B; Phi; W D] is defined once, as a record
from ``_terms``: its certified bound on ||K_i||^2, its zero dual, its dual
step, its adjoint K_i^T z_i and its value f_i(K_i u).  ``solve`` gates on
the sum of the bounds, sums the adjoints in the order of the records
(frame, data, seams) and runs the steps in reverse, and ``objective_terms``
reads the values.  The dual steps are ``dual_l1``, ``dual_l12`` and
``dual_data``.  The frame's step goes last: ``_frame_step`` runs the
analysis, ``dual_l1`` and the adjoint one chunk of ``frame.chunk`` blocks
at a time.  Each chunk's analysis goes into one chunk-sized buffer that
the term record holds for the solve, its dual over its rows of z1, and its
adjoint ``A^T z1`` over its blocks of the extrapolated point, where the
next iteration's gradient starts, through the frame methods' ``out=``.  For
M <= 16 the frame step then makes no array and copies none.  The other
two steps reuse their operator's fresh output as the accumulator.  Their
adjoints are made at the start of the next iteration, one at a time,
each added and freed before the next: with the sensing passes in their
operator's held workspace (see ``sensing``) and the seam passes in the
buffer that ``DiffOperator`` holds, the heap then stays flat across
iterations instead of growing and trimming, which cost a 256 x 256
noiselet solve about 530 minor page faults per iteration.  (Steps that
return their adjoints at once keep two (L, M, M) arrays alive across the
frame's step, and 256 x 256 mosaic solves at rates 0.5 and 0.6 then paid
95-160 faults per iteration.)  The frame applies a whole stack in the
same chunks, so the step gives the bytes of whole-stack calls (see
``frames``).

Step sizes must satisfy gamma1 * gamma2 * ||L||^2 <= 1.  Since L^T L is the
sum of the terms' Gram operators, ||L||^2 <= ||F||^2 + ||Phi||^2 +
||W D||^2 = 1 + 1 + 8 [rho > 0]: every frame family has ||F||^2 = 1 (the
pyramid too, whose A^T A is the mean-removal projector plus 11^T / M^4),
Phi has orthonormal rows, and each masked forward difference has norm^2 at
most 4.  That certified upper bound, the sum of the records' bounds, is the
gate; ``estimate_operator_norm_sq`` stays as a diagnostic that approaches
||L||^2 from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import iadd

import numpy as np

from .imagegrid import _as_real, _stack_positions, from_blocks, psnr, to_blocks
from .sensing import Observation  # noqa: F401  (type of ProblemSpec.observation)

__all__ = [
    "prox_l1",
    "prox_l12",
    "project_ball",
    "dual_l1",
    "dual_l12",
    "dual_data",
    "DiffOperator",
    "SolverConfig",
    "ProblemSpec",
    "ConvergenceReport",
    "DivergenceError",
    "solve",
    "check_image_shape",
    "objective_terms",
    "FIDELITY_L2BALL",
    "FIDELITY_EQUALITY",
]

FIDELITY_L2BALL = "l2ball"
FIDELITY_EQUALITY = "equality"


# the residual may grow at most this factor over this many iterations
_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 100


class DivergenceError(RuntimeError):
    """Raised when the residual is not finite or grows ~10x over a
    100-iteration window."""


# ---------------------------------------------------------------------------
# proximity operators


def prox_l1(v, gamma):
    """Soft thresholding: prox of gamma * ||.||_1."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def prox_l12(v, gamma):
    """Group soft thresholding on contiguous pairs: prox of gamma * ||.||_{1,2}."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    if v.size % 2:
        raise ValueError(f"length {v.size} does not divide into pairs")
    g = v.reshape(-1, 2)
    norms = np.linalg.norm(g, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, np.maximum(1.0 - gamma / norms, 0.0), 0.0)
    return (g * scale[:, None]).reshape(v.shape)


def project_ball(v, center, radius):
    """Projection onto the l2 ball of given center and radius: the reference
    that the tests compare ``dual_data``'s closed form against."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    d = v - center
    nd = float(np.linalg.norm(d))
    if nd <= radius:
        return v.copy()
    return center + d * (radius / nd)


# ---------------------------------------------------------------------------
# dual updates: prox of gamma * f* at z + gamma * a, in closed form
#
# The l12 and data steps take the fresh output ``a`` of their operator and
# return it, overwritten with the update; the l1 step writes its update
# over its dual ``z``, which the frame step holds in place, so that its
# ``a`` can be one chunk's buffer.  By the Moreau identity
# prox_{gamma f*}(v) = v - gamma * prox_{f / gamma}(v / gamma), the l1 and
# l1,2 updates are the projections onto the conjugates' domains (the unit box
# and the radius-rho pixel disks), and the data update is the same identity
# for the ball ||v - y|| <= r written out.


def _norm(v):
    """||v|| of a vector by numpy's own loop: no BLAS call, whose threads may
    round it differently, and no temporary."""
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def dual_l1(z, a, gamma):
    """l1 dual step: clip(z + gamma * a, -1, 1), computed in ``z`` (``a``
    is overwritten with gamma * a)."""
    a *= gamma
    z += a
    return np.clip(z, -1.0, 1.0, out=z)


def dual_l12(z, a, gamma, rho):
    """l1,2 dual step on stacked (2, ...) pairs, such as the (2, K) ring
    pairs of ``DiffOperator.apply``: t = z + gamma * a scaled pixel by pixel
    into the disk of radius rho, computed in ``a``."""
    a *= gamma
    a += z
    scale = np.sqrt(a[0] ** 2 + a[1] ** 2)
    np.maximum(scale, rho, out=scale)
    np.divide(rho, scale, out=scale)
    a *= scale
    return a


def dual_data(z, a, gamma, y, radius):
    """Data dual step for the ball ||v - y|| <= radius, computed in ``a``:
    with t = z + gamma * a, t - gamma * P(t / gamma) is u - P_0(u) for
    u = t - gamma * y and P_0 the projection onto the ball of radius
    gamma * radius around 0, so u * (1 - gamma * radius / ||u||) when
    ||u|| > gamma * radius, else 0.  Radius 0 is equality, v = y: the
    factor is then exactly 1."""
    a *= gamma
    a += z
    a -= gamma * y
    norm = _norm(a)
    a *= 1.0 - gamma * radius / norm if norm > gamma * radius else 0.0
    return a


# ---------------------------------------------------------------------------
# difference operator with block-boundary weighting


class DiffOperator:
    """Forward differences on the block ring (replicate boundary, last difference 0).

    The ring is the one-pixel edge of every M x M block, the pixels that the
    block-boundary weight W keeps: K = L (4M - 4) of them for L blocks (all
    pixels when M <= 2).  W is 0 strictly inside a block, so those
    differences are never formed.

    The operator reads the (L, M, M) block stack of an (H, W) image, as the
    frame does, and nothing else: its one index table, ``_into``, is built
    once from the stack positions of the image's pixels.  ``apply(u)``
    returns the (2, K) stacked pair ``u[down] - u[self]`` (vertical) and
    ``u[right] - u[self]`` (horizontal).  Its columns are the ring pixels
    grouped as vertical-only, both, horizontal-only, neither (by which
    differences are formed: none on the image's last row is vertical, none
    on its last column horizontal), in row-major image order within each
    group, so the formed vertical differences are one range of columns and
    the horizontal ones another; the rest are exactly 0.  ``_into`` lists
    the stack positions each formed difference reads, in four segments:
    ``down`` and ``self`` of the vertical range, ``right`` and ``self`` of
    the horizontal one.  ``apply`` gathers through it and subtracts the
    segments; ``adjoint(z)``, its exact transpose as an (L, M, M) stack,
    writes the ranges of z and their negatives in the same layout and
    ``np.bincount`` sums each pixel's entries in segment order,
    ``(((0 + zv[up]) - zv[self]) + zh[left]) - zh[self]``.  Both passes
    run in one buffer of the table's length that the operator holds (with
    the table, 1.8 MB at 256 x 256, M = 8), so one operator is not safe
    for concurrent calls from several threads.
    """

    def __init__(self, shape, block_size):
        H, W = shape
        M = block_size
        if H % M or W % M:
            raise ValueError(f"shape {shape} not a multiple of block size {M}")
        self.shape = (H, W)
        self.block_size = M
        self.n = H * W
        self.stack_shape = (self.n // (M * M), M, M)
        tile = np.ones((M, M), dtype=bool)
        tile[1 : M - 1, 1 : M - 1] = False
        ring = np.tile(tile, (H // M, W // M))
        self.ring_size = int(np.count_nonzero(ring))
        pixels = _stack_positions(M, H // M, W // M)
        at = pixels[ring]
        down = np.vstack((pixels[1:], pixels[-1:]))[ring]
        right = np.hstack((pixels[:, 1:], pixels[:, -1:]))[ring]
        v, h = down != at, right != at
        # vertical-only, both, horizontal-only, neither
        group = np.argsort(2 * ~v + (v == h), kind="stable")
        at, down, right = at[group], down[group], right[group]
        nv, nh, first_h = (int(np.count_nonzero(c)) for c in (v, h, v & ~h))
        self._ranges = vert, horz = slice(0, nv), slice(first_h, first_h + nh)
        self._into = np.concatenate((down[vert], at[vert], right[horz], at[horz]))
        # the (end, start) segments of _into that each range reads
        self._segments = ((slice(0, nv), slice(nv, 2 * nv)),
                          (slice(2 * nv, 2 * nv + nh), slice(2 * nv + nh, None)))
        self._weights = np.empty(self._into.size)

    def apply(self, u):
        u = _as_real(u, "the block stack")
        if u.shape != self.stack_shape:
            raise ValueError(f"expected the {self.stack_shape} block stack, got {u.shape}")
        w = np.take(u.reshape(-1), self._into, out=self._weights, mode="clip")
        out = np.zeros((2, self.ring_size))
        for row, cols, (end, start) in zip(out, self._ranges, self._segments):
            np.subtract(w[end], w[start], out=row[cols])
        return out

    def adjoint(self, z):
        z = _as_real(z, "seam differences")
        if z.shape != (2, self.ring_size):
            raise ValueError(f"expected (2, {self.ring_size}), got {z.shape}")
        w = self._weights
        for row, cols, (end, start) in zip(z, self._ranges, self._segments):
            w[end] = row[cols]
            np.negative(row[cols], out=w[start])
        return np.bincount(self._into, w, minlength=self.n).reshape(self.stack_shape)


# ---------------------------------------------------------------------------
# problem/config/report containers


@dataclass
class SolverConfig:
    gamma1: float = 0.01
    gamma2: float | None = None       # defaults to 1 / (12 * gamma1)
    stop_tol: float = 0.01
    max_iters: int = 3000

    def resolved_gamma2(self):
        return 1.0 / (12.0 * self.gamma1) if self.gamma2 is None else self.gamma2


@dataclass
class ProblemSpec:
    frame: object
    observation: Observation
    rho: float = 1.0
    epsilon: float | None = None      # defaults to sigma * sqrt(m)
    fidelity_mode: str = FIDELITY_L2BALL

    def resolved_epsilon(self):
        if self.epsilon is not None:
            return float(self.epsilon)
        return float(self.observation.sigma) * np.sqrt(self.observation.measurement_count)


@dataclass
class ConvergenceReport:
    iterations: int
    residuals: np.ndarray
    op_norm_sq: float
    gamma1: float
    gamma2: float
    epsilon: float
    stop_reason: str
    psnr_history: np.ndarray | None = None
    final_psnr: float | None = None

    def to_json_dict(self):
        d = {
            "iterations": self.iterations,
            "op_norm_sq": self.op_norm_sq,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "epsilon": self.epsilon,
            "stop_reason": self.stop_reason,
            "final_residual": float(self.residuals[-1]) if self.iterations else None,
            "final_psnr": self.final_psnr,
        }
        if self.psnr_history is not None:
            d["psnr_history"] = [float(p) for p in self.psnr_history]
        d["residuals"] = [float(r) for r in self.residuals]
        return d


# ---------------------------------------------------------------------------
# core loop


def estimate_operator_norm_sq(apply_all, adjoint_all, shape, iters=30, seed=0):
    """Power iteration for ||L||^2 = lambda_max(L^T L) of a stacked operator.

    A diagnostic: the estimate approaches ||L||^2 from below, so it cannot
    certify a step-size pair.  ``solve`` gates on the closed-form bound.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x9E37]))
    v = rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        u = adjoint_all(apply_all(v))
        lam = float(np.linalg.norm(u.reshape(-1)))
        if lam == 0.0:
            return 0.0
        v = u / lam
    return lam


def _divergence_guard(residuals):
    """Raise :class:`DivergenceError` when the latest increment is not finite
    or grew ``_DIVERGENCE_FACTOR``-fold over the last ``_DIVERGENCE_WINDOW``
    iterations (a zero reference never counts)."""
    if not np.isfinite(residuals[-1]):
        raise DivergenceError(f"residual {residuals[-1]} at iteration {len(residuals)}")
    if len(residuals) <= _DIVERGENCE_WINDOW:
        return
    ref = residuals[-_DIVERGENCE_WINDOW - 1]
    if ref > 0.0 and residuals[-1] > _DIVERGENCE_FACTOR * ref:
        raise DivergenceError(
            f"residual grew from {ref:.3g} to {residuals[-1]:.3g} "
            f"over {_DIVERGENCE_WINDOW} iterations"
        )


def check_image_shape(image, shape, what):
    """The image as float64, or ``ValueError`` naming it (``what``) and both
    shapes when it does not have the observation's ``shape``."""
    image = np.asarray(image, dtype=np.float64)
    if image.shape != tuple(shape):
        raise ValueError(
            f"{what} shape {image.shape} does not match the observation's {tuple(shape)}"
        )
    return image


def _frame_step(frame, coeffs, z1, xb, gamma):
    """The l1 dual step and the frame adjoint of its result, one chunk of
    blocks at a time (``frame.chunk``): ``z1 <- dual_l1(z1, A xb, gamma)``
    in place and returned, and xb overwritten with ``A^T z1``.  Each
    chunk's analysis is written into ``coeffs``, a contiguous float64
    (frame.chunk, n_out) array that the caller holds, its dual into its
    rows of z1 and its adjoint into its blocks of xb, so for M <= 16 no
    array is made."""
    step = frame.chunk
    for start in range(0, xb.shape[0], step):
        chunk = slice(start, start + step)
        blocks = xb[chunk]
        a = frame.analyze_blocks(blocks, out=coeffs[:len(blocks)])
        frame.adjoint_blocks(dual_l1(z1[chunk], a, gamma), out=blocks)
    return z1


@dataclass(frozen=True)
class _Term:
    """One term f(K x) of the objective on the (L, M, M) block stack:
    ``bound`` certifies ||K||^2, ``dual_shape`` is the shape of its zero
    dual, ``step(z, xb, gamma)`` returns the dual step's z, ``adjoint(z,
    xb)`` returns K^T z (the frame's step leaves it in xb, which the
    frame's ``adjoint`` hands back), and ``value(u)`` is f(K u), under the
    ``name`` that ``objective_terms`` reports."""

    name: str
    bound: float
    dual_shape: tuple
    step: object
    adjoint: object
    value: object


def _terms(problem):
    """The problem's terms in the order their adjoints are summed: the frame,
    the data (whose value is the fidelity gap), and the seams when rho > 0.
    Sensing and the seam differences both read the block stack, through
    one map of stack positions.  Raises ``ValueError`` on a problem outside
    its domain, so ``solve`` and ``objective_terms`` accept the same ones."""
    obs, frame = problem.observation, problem.frame
    M = frame.block_size
    if obs.height % M or obs.width % M:
        raise ValueError(f"image {obs.height}x{obs.width} not a multiple of block size {M}")
    if problem.fidelity_mode not in (FIDELITY_L2BALL, FIDELITY_EQUALITY):
        raise ValueError(f"unknown fidelity mode {problem.fidelity_mode!r}")
    for field in ("rho", "epsilon"):
        if isinstance(getattr(problem, field), (bool, np.bool_)):
            raise ValueError(f"{field} must be a number, not a boolean")
    rho, eps = float(problem.rho), problem.resolved_epsilon()
    for field, value in (("rho", rho), ("epsilon", eps)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{field} must be a finite number >= 0, got {value}")
    # equality is the ball of radius 0
    radius = eps if problem.fidelity_mode == FIDELITY_L2BALL else 0.0
    stack = (obs.n // (M * M), M, M)
    order = _stack_positions(M, obs.height // M, obs.width // M).ravel(order="F")
    meas = obs.operator().in_order(order)
    y = np.asarray(obs.y, dtype=np.float64)

    def fidelity_gap(u):
        return max(0.0, _norm(meas.forward(u.reshape(-1)) - y) - radius)

    # the frame step's one chunk of coefficients: made per solve, never
    # cached on the frame, which several solves may share
    coeffs = np.empty((frame.chunk, frame.n_out))
    terms = [
        _Term("l1", 1.0, (stack[0], frame.n_out), partial(_frame_step, frame, coeffs),
              lambda z, xb: xb,
              lambda u: float(np.abs(frame.analyze_blocks(u).ravel()).sum())),
        _Term("fidelity_gap", 1.0, (obs.measurement_count,),
              lambda z, xb, gamma: dual_data(z, meas.forward(xb.reshape(-1)), gamma, y, radius),
              lambda z, xb: meas.adjoint(z).reshape(stack), fidelity_gap),
    ]
    if rho > 0:
        diff = DiffOperator((obs.height, obs.width), M)

        def ring_norm(u):
            d = diff.apply(u)
            return float(np.sqrt(d[0] ** 2 + d[1] ** 2).sum())

        terms.append(_Term("l12", 8.0, (2, diff.ring_size),
                           lambda z, xb, gamma: dual_l12(z, diff.apply(xb), gamma, rho),
                           lambda z, xb: diff.adjoint(z), ring_norm))
    return terms


def solve(problem, config=None, truth=None):
    """Run the primal-dual loop; returns (image, ConvergenceReport).

    The primal iterate starts from the clipped pseudo-inverse estimate and
    dual variables start at zero; with fixed seeds the run is reproducible
    bit-for-bit.  ``truth`` (optional reference image of the observation's
    shape, else ``ValueError``) enables the PSNR trace.  Raises
    ``ValueError`` on a parameter outside its domain, and
    :class:`DivergenceError` if the residual is not finite or grows 10x over
    a 100-iteration window.
    """
    if config is None:
        config = SolverConfig()
    for field in ("gamma1", "gamma2", "stop_tol", "max_iters"):
        if isinstance(getattr(config, field), (bool, np.bool_)):
            raise ValueError(f"{field} must be a number, not a boolean")
    g1 = float(config.gamma1)
    g2 = float(config.resolved_gamma2())
    if not (np.isfinite(g1) and np.isfinite(g2)):
        raise ValueError(f"step sizes must be finite, got gamma1={g1}, gamma2={g2}")
    if g1 <= 0 or g2 <= 0:
        raise ValueError("step sizes must be positive")
    stop_tol = float(config.stop_tol)
    if not (np.isfinite(stop_tol) and stop_tol >= 0):
        raise ValueError(f"stop_tol must be a finite number >= 0, got {stop_tol}")
    max_iters = config.max_iters
    if not (float(max_iters).is_integer() and max_iters >= 1):
        raise ValueError(f"max_iters must be a whole number >= 1, got {max_iters!r}")

    # the iterate is the (L, M, M) block stack that the frame reads and writes
    terms = _terms(problem)
    obs = problem.observation
    M = problem.frame.block_size
    H, W = obs.height, obs.width
    L = (H // M) * (W // M)
    if truth is not None:
        truth = check_image_shape(truth, (H, W), "truth image")
        # psnr is a mean over pixels, so it reads the truth in block order too
        truth = to_blocks(truth, M).reshape(L, M * M)

    # certified bound on ||L||^2; see the module docstring
    op_norm_sq = sum(term.bound for term in terms)
    if g1 * g2 * op_norm_sq > 1.0 + 1e-9:
        raise ValueError(
            f"step sizes violate gamma1*gamma2*||L||^2 <= 1 "
            f"(got {g1 * g2 * op_norm_sq:.6f})"
        )

    x = np.clip(terms[1].adjoint(obs.y, None), 0.0, 1.0)  # Phi^T y, by the data term
    duals = [np.zeros(term.dual_shape) for term in terms]
    xb = np.zeros_like(x)  # A^T z1 for the zero z1, where the frame's adjoint reads it

    residuals = []
    psnr_history = [] if truth is not None else None
    stop_reason = "max-iters"

    for it in range(int(max_iters)):
        # K_i^T z_i summed in record order into the frame's, which its step
        # left in xb; the others are made and freed one at a time
        grad = reduce(iadd, (term.adjoint(z, xb) for term, z in zip(terms, duals)))
        grad *= g1
        x_new = np.subtract(x, grad, out=grad)
        np.clip(x_new, 0.0, 1.0, out=x_new)
        xb = 2.0 * x_new
        xb -= x

        # the dual steps are independent; the frame's goes last because
        # it overwrites xb with the next iteration's A^T z1
        for i in reversed(range(len(terms))):
            duals[i] = terms[i].step(duals[i], xb, g2)

        res = _norm(np.subtract(x_new, x, out=x).reshape(-1))
        residuals.append(res)
        if psnr_history is not None:
            psnr_history.append(psnr(truth, x_new.reshape(L, M * M)))
        x = x_new
        # the first primal step is a no-op (duals start at zero), so the
        # increment test only counts from the second iteration onwards
        if it > 0 and res <= stop_tol:
            stop_reason = "tolerance"
            break
        _divergence_guard(residuals)

    report = ConvergenceReport(
        iterations=len(residuals),
        residuals=np.array(residuals),
        op_norm_sq=op_norm_sq,
        gamma1=g1,
        gamma2=g2,
        epsilon=problem.resolved_epsilon(),
        stop_reason=stop_reason,
        psnr_history=np.array(psnr_history) if psnr_history is not None else None,
        final_psnr=psnr_history[-1] if psnr_history else None,
    )
    return from_blocks(x, W), report


def objective_terms(problem, x):
    """Evaluate the objective pieces at an image (for oracle comparisons).

    Returns a dict with the l1 analysis term, the weighted difference term,
    the data-fidelity gap max(0, ||Phi x - y|| - radius) (the radius is eps
    in ball mode and 0 in equality mode, where the gap is the residual
    norm) and the box violation.  All but the box violation are the values
    of the term records that ``solve`` runs.  An image not of the
    observation's shape, or a problem that ``solve`` rejects, raises
    ``ValueError``.
    """
    obs = problem.observation
    x = check_image_shape(x, (obs.height, obs.width), "scored image")
    terms = _terms(problem)
    blocks = to_blocks(x, problem.frame.block_size)
    values = {term.name: term.value(blocks) for term in terms}
    l1, l12 = values["l1"], values.get("l12", 0.0)
    return {"l1": l1, "l12": l12, "objective": l1 + float(problem.rho) * l12,
            "fidelity_gap": values["fidelity_gap"],
            "box_violation": float(max(0.0, -x.min(), x.max() - 1.0))}

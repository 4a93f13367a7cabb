"""Primal-dual splitting recovery of images from compressive measurements.

Solves

    min_x  ||F B x||_1  +  rho * ||W D x||_{1,2}  +  i_[0,1](x)  +  G_y(Phi x)

where F B is the block-frame analysis of the image, D is the masked
forward-difference operator (the weight W keeps only block-boundary pixels,
discouraging blocking artifacts), and the data term G_y is either the
indicator of the l2 ball ||u - y|| <= eps or of the point {y}.  rho = 0 drops
the difference term (Problem 1), rho = 1 keeps it (Problem 2).

The iteration is a Chambolle-Pock-style primal-dual loop (Chambolle & Pock,
J. Math. Imaging Vis. 40, 2011; Condat, JOTA 158, 2013): a gradient step on
the primal followed by the box projection, then dual ascent steps through the
conjugate proxes in closed form.  The l1 dual is clipped to [-1, 1], the
l1,2 dual is scaled pixel by pixel into the ball of radius rho, and the data
dual goes through the Moreau identity with the ball projection.

The primal iterate, its gradient and the extrapolated point are kept as the
(L, M, M) stack of blocks in raster order that ``FrameOperator.analyze_blocks``
and ``adjoint_blocks`` read and write, so the frame needs no layout change.
The measurement operator is relabeled once, with ``in_order``, to read that
stack directly: its column-major vectorization and its scrambling permutation
become one gather.  Only two conversions stay in the loop, and only for
rho > 0: one ``from_blocks`` before ``DiffOperator.apply`` and one
``to_blocks`` after ``DiffOperator.adjoint``.  The difference operator stays
image-ordered because its shifts cross block boundaries: rewritten on
(r, c, M, M) views its inner loops are only M wide, and its adjoint took
1.2 ms against 0.57 ms on a 256 x 256 image.  The truth image is converted
once, for the PSNR trace, and the result once, on return.  Every step is a
permutation of the image-ordered computation or the same elementwise
arithmetic, so the image bytes are unchanged; residuals and PSNRs are sums
taken in another order and move only by rounding.

The three dual steps are ``dual_l1``, ``dual_l12`` and ``dual_data``.  Each
reuses its operator's fresh output as the accumulator.

Step sizes must satisfy gamma1 * gamma2 * ||L||^2 <= 1 for the stacked
operator L = [F B; W D; Phi].  Since L^T L is the sum of the blocks' Gram
operators, ||L||^2 <= ||F||^2 + ||W D||^2 + ||Phi||^2 = 1 + 8 [rho > 0] + 1:
every frame family has ||F||^2 = 1 (the pyramid too, whose A^T A is the
mean-removal projector plus 11^T / M^4), Phi has orthonormal rows, and each
masked forward difference has norm^2 at most 4.  That certified upper bound
is the gate; ``estimate_operator_norm_sq`` stays as a diagnostic that
approaches ||L||^2 from below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .imagegrid import BlockGrid, from_blocks, psnr, to_blocks
from .sensing import Observation  # noqa: F401  (type of ProblemSpec.observation)

__all__ = [
    "prox_l1",
    "prox_l12",
    "prox_box01",
    "project_ball",
    "project_point",
    "dual_l1",
    "dual_l12",
    "dual_data",
    "DiffOperator",
    "SolverConfig",
    "ProblemSpec",
    "ConvergenceReport",
    "DivergenceError",
    "solve",
    "check_truth_shape",
    "objective_terms",
    "FIDELITY_L2BALL",
    "FIDELITY_EQUALITY",
]

FIDELITY_L2BALL = "l2ball"
FIDELITY_EQUALITY = "equality"


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


def prox_l12(v, gamma, group_size=2):
    """Group soft thresholding on contiguous groups: prox of gamma * ||.||_{1,2}."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    v = np.asarray(v, dtype=np.float64)
    if v.size % group_size:
        raise ValueError(f"length {v.size} not divisible by group size {group_size}")
    g = v.reshape(-1, group_size)
    norms = np.linalg.norm(g, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > 0.0, np.maximum(1.0 - gamma / norms, 0.0), 0.0)
    return (g * scale[:, None]).reshape(v.shape)


def prox_box01(v):
    """Projection onto [0, 1]^n."""
    return np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0)


def project_ball(v, center, radius):
    """Projection onto the l2 ball of given center and radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    v = np.asarray(v, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    d = v - center
    nd = float(np.linalg.norm(d))
    if nd <= radius:
        return v.copy()
    return center + d * (radius / nd)


def project_point(v, point):
    """Projection onto the single point {point} (equality data fidelity)."""
    v = np.asarray(v, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if v.shape != point.shape:
        raise ValueError("shape mismatch")
    return point.copy()


# ---------------------------------------------------------------------------
# dual updates: prox of gamma * f* at z + gamma * a, in closed form
#
# Each takes the fresh output ``a`` of its operator and returns it,
# overwritten with the update.  By the Moreau identity
# prox_{gamma f*}(v) = v - gamma * prox_{f / gamma}(v / gamma), the l1 and
# l1,2 updates are the projections onto the conjugates' domains (the unit box
# and the radius-rho pixel disks), and the data update goes through the
# projection onto the data set.


def dual_l1(z, a, gamma):
    """l1 dual step: clip(z + gamma * a, -1, 1), computed in ``a``."""
    a *= gamma
    a += z
    return np.clip(a, -1.0, 1.0, out=a)


def dual_l12(z, a, gamma, rho):
    """l1,2 dual step on stacked (2, H, W) pairs: t = z + gamma * a scaled
    pixel by pixel into the disk of radius rho, computed in ``a``."""
    a *= gamma
    a += z
    scale = np.sqrt(a[0] ** 2 + a[1] ** 2)
    np.maximum(scale, rho, out=scale)
    np.divide(rho, scale, out=scale)
    a *= scale
    return a


def dual_data(z, a, gamma, y, eps, mode):
    """Data dual step: t - gamma * P(t / gamma) with t = z + gamma * a and P
    the projection onto the ball ||u - y|| <= eps (or onto {y})."""
    a *= gamma
    a += z
    if mode == FIDELITY_L2BALL:
        return a - gamma * project_ball(a / gamma, y, eps)
    return a - gamma * y


# ---------------------------------------------------------------------------
# difference operator with block-boundary weighting


class DiffOperator:
    """Masked forward differences (replicate boundary, last difference 0).

    ``apply`` returns the stacked (vertical, horizontal) difference images,
    each multiplied by the block-boundary mask: pixels strictly inside a
    block (1 <= m, n <= M-2 locally) are zeroed, the one-pixel ring at each
    block edge passes through.  ``adjoint`` is the exact transpose.
    """

    def __init__(self, shape, block_size):
        H, W = shape
        M = block_size
        if H % M or W % M:
            raise ValueError(f"shape {shape} not a multiple of block size {M}")
        self.shape = (H, W)
        self.block_size = M
        tile = np.ones((M, M))
        if M > 2:
            tile[1 : M - 1, 1 : M - 1] = 0.0
        self.mask = np.tile(tile, (H // M, W // M))

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.shape:
            raise ValueError(f"expected {self.shape} image, got {x.shape}")
        H, W = self.shape
        out = np.zeros((2, H, W))
        out[0, : H - 1, :] = x[1:, :] - x[: H - 1, :]
        out[1, :, : W - 1] = x[:, 1:] - x[:, : W - 1]
        out *= self.mask
        return out

    def adjoint(self, z):
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (2, *self.shape):
            raise ValueError(f"expected (2, {self.shape[0]}, {self.shape[1]}), got {z.shape}")
        H, W = self.shape
        zm = z * self.mask  # the mask broadcasts over the stacked pair
        zv, zh = zm[0], zm[1]
        out = np.zeros((H, W))
        out[1:, :] += zv[: H - 1, :]
        out[: H - 1, :] -= zv[: H - 1, :]
        out[:, 1:] += zh[:, : W - 1]
        out[:, : W - 1] -= zh[:, : W - 1]
        return out


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

    def to_json_dict(self):
        return {
            "gamma1": self.gamma1,
            "gamma2": self.resolved_gamma2(),
            "stop_tol": self.stop_tol,
            "max_iters": self.max_iters,
        }


@dataclass
class ProblemSpec:
    frame: object
    observation: Observation
    rho: float = 1.0
    epsilon: float | None = None      # defaults to sigma * sqrt(m)
    fidelity_mode: str = FIDELITY_L2BALL
    measurement: object | None = None  # rebuilt from the observation if None

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


def _divergence_guard(residuals, window=100, factor=10.0):
    """Raise :class:`DivergenceError` when the latest increment is not finite
    or grew ``factor``-fold over the last ``window`` iterations (a zero
    reference never counts)."""
    if not np.isfinite(residuals[-1]):
        raise DivergenceError(f"residual {residuals[-1]} at iteration {len(residuals)}")
    if len(residuals) <= window:
        return
    ref = residuals[-window - 1]
    if ref > 0.0 and residuals[-1] > factor * ref:
        raise DivergenceError(
            f"residual grew from {ref:.3g} to {residuals[-1]:.3g} "
            f"over {window} iterations"
        )


def _block_order(M, r, c):
    """Index q with q[j] = position, in the raveled (r*c, M, M) block stack,
    of the pixel at column-major index j: the image of stack positions, read
    column-major.  ``u[q]`` is the column-major vector of the image whose
    blocks are u."""
    positions = np.arange(r * c * M * M).reshape(r * c, M, M)
    return from_blocks(BlockGrid(M, r, c, positions)).ravel(order="F")


def check_truth_shape(truth, shape):
    """The reference image as float64, or ``ValueError`` naming both shapes
    when it does not have the observation's ``shape``."""
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != tuple(shape):
        raise ValueError(
            f"truth image shape {truth.shape} does not match the observation's {tuple(shape)}"
        )
    return truth


def solve(problem, config=None, truth=None):
    """Run the primal-dual loop; returns (image, ConvergenceReport).

    The primal iterate starts from the clipped pseudo-inverse estimate and
    dual variables start at zero; with fixed seeds the run is reproducible
    bit-for-bit.  ``truth`` (optional reference image of the observation's
    shape, else ``ValueError``) enables the PSNR trace.  Raises :class:`DivergenceError` if the residual is not finite or
    grows 10x over a 100-iteration window.
    """
    if config is None:
        config = SolverConfig()
    obs = problem.observation
    frame = problem.frame
    M = frame.block_size
    H, W = obs.height, obs.width
    if H % M or W % M:
        raise ValueError(f"image {H}x{W} not a multiple of block size {M}")
    if problem.fidelity_mode not in (FIDELITY_L2BALL, FIDELITY_EQUALITY):
        raise ValueError(f"unknown fidelity mode {problem.fidelity_mode!r}")
    rho = float(problem.rho)
    if rho < 0:
        raise ValueError("rho must be >= 0")
    meas = problem.measurement if problem.measurement is not None else obs.operator()
    y = np.asarray(obs.y, dtype=np.float64)
    eps = problem.resolved_epsilon()
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {eps}")
    g1 = float(config.gamma1)
    g2 = float(config.resolved_gamma2())
    if g1 <= 0 or g2 <= 0:
        raise ValueError("step sizes must be positive")

    r, c = H // M, W // M
    L = r * c
    if truth is not None:
        truth = check_truth_shape(truth, (H, W))
        # psnr is a mean over pixels, so it reads the truth in block order too
        truth = to_blocks(truth, M).blocks.reshape(L, M * M)

    # the iterate is the (L, M, M) block stack that the frame reads and writes
    meas = meas.in_order(_block_order(M, r, c))

    use_tv = rho > 0
    diff = DiffOperator((H, W), M) if use_tv else None

    # certified bound on ||L||^2; see the module docstring
    op_norm_sq = 2.0 + (8.0 if use_tv else 0.0)
    if g1 * g2 * op_norm_sq > 1.0 + 1e-9:
        raise ValueError(
            f"step sizes violate gamma1*gamma2*||L||^2 <= 1 "
            f"(got {g1 * g2 * op_norm_sq:.6f})"
        )

    x = np.clip(meas.adjoint(y).reshape(L, M, M), 0.0, 1.0)
    z1 = np.zeros((L, frame.n_out))
    z2 = np.zeros((2, H, W)) if use_tv else None
    z3 = np.zeros(obs.measurement_count)

    residuals = []
    psnr_history = [] if truth is not None else None
    stop_reason = "max-iters"

    for it in range(int(config.max_iters)):
        grad = frame.adjoint_blocks(z1)
        grad += meas.adjoint(z3).reshape(L, M, M)
        if use_tv:
            grad += to_blocks(diff.adjoint(z2), M).blocks
        grad *= g1
        x_new = np.subtract(x, grad, out=grad)
        np.clip(x_new, 0.0, 1.0, out=x_new)
        xb = 2.0 * x_new
        xb -= x

        z1 = dual_l1(z1, frame.analyze_blocks(xb), g2)
        if use_tv:
            z2 = dual_l12(z2, diff.apply(from_blocks(BlockGrid(M, r, c, xb))), g2, rho)
        z3 = dual_data(z3, meas.forward(xb.reshape(-1)), g2, y, eps, problem.fidelity_mode)

        res = float(np.linalg.norm(np.subtract(x_new, x, out=x)))
        residuals.append(res)
        if psnr_history is not None:
            psnr_history.append(psnr(truth, x_new.reshape(L, M * M)))
        x = x_new
        # the first primal step is a no-op (duals start at zero), so the
        # increment test only counts from the second iteration onwards
        if it > 0 and res <= config.stop_tol:
            stop_reason = "tolerance"
            break
        _divergence_guard(residuals)

    report = ConvergenceReport(
        iterations=len(residuals),
        residuals=np.array(residuals),
        op_norm_sq=op_norm_sq,
        gamma1=g1,
        gamma2=g2,
        epsilon=eps,
        stop_reason=stop_reason,
        psnr_history=np.array(psnr_history) if psnr_history is not None else None,
        final_psnr=psnr_history[-1] if psnr_history else None,
    )
    return from_blocks(BlockGrid(M, r, c, x)), report


def objective_terms(problem, x):
    """Evaluate the objective pieces at an image (for oracle comparisons).

    Returns a dict with the l1 analysis term, the weighted difference term,
    the data-fidelity gap max(0, ||Phi x - y|| - eps) (distance past the
    constraint for the ball mode; plain residual norm for equality mode) and
    the box violation.
    """
    obs = problem.observation
    frame = problem.frame
    M = frame.block_size
    H, W = obs.height, obs.width
    x = np.asarray(x, dtype=np.float64)
    coeffs = frame.analyze_blocks(to_blocks(x, M).blocks).ravel()
    l1 = float(np.abs(coeffs).sum())
    rho = float(problem.rho)
    l12 = 0.0
    if rho > 0:
        z = DiffOperator((H, W), M).apply(x)
        l12 = float(np.sqrt(z[0] ** 2 + z[1] ** 2).sum())
    meas = problem.measurement if problem.measurement is not None else obs.operator()
    resid = float(np.linalg.norm(meas.forward(x.reshape(-1, order="F")) - obs.y))
    if problem.fidelity_mode == FIDELITY_L2BALL:
        gap = max(0.0, resid - problem.resolved_epsilon())
    else:
        gap = resid
    box = float(max(0.0, -x.min(), x.max() - 1.0))
    return {
        "l1": l1,
        "l12": l12,
        "objective": l1 + rho * l12,
        "fidelity_gap": gap,
        "box_violation": box,
    }

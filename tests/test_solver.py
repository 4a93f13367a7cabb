"""Unit tests for proximal operators, the difference operator, and the solver."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirframes import frames as fr
from dirframes import imagegrid as ig
from dirframes import sensing as sn
from dirframes import solver as sv

import oracles


def _rng(key):
    return np.random.Generator(np.random.Philox(key=[key, 0x501E]))


# ---------------------------------------------------------------------------
# proximal operators: closed forms and the variational-inequality oracle
#
# p = prox_{gamma g}(v) must minimize g(u) + ||u - v||^2 / (2 gamma); we check
# it beats a cloud of random candidates.


def _check_prox_optimal(prox_value, v, gamma, g, candidates, tol=1e-3):
    best = g(prox_value) + float(np.sum((prox_value - v) ** 2)) / (2 * gamma)
    for z in candidates:
        other = g(z) + float(np.sum((z - v) ** 2)) / (2 * gamma)
        assert best <= other + tol


def _candidates(rng, p, count=200):
    out = []
    for scale in (1e-3, 1e-1, 1.0):
        out.extend(p + scale * rng.standard_normal((count // 4, p.size)).reshape(-1, *p.shape)[: count // 4])
    out.extend(rng.standard_normal((count - len(out), *p.shape)))
    return out


def test_prox_l1_closed_form():
    v = np.array([3.0, -0.4, 0.0, 1.0, -2.5])
    np.testing.assert_allclose(sv.prox_l1(v, 1.0), [2.0, 0.0, 0.0, 0.0, -1.5])
    np.testing.assert_allclose(sv.prox_l1(v, 0.0), v)


def test_prox_l1_variational():
    rng = _rng(1)
    v = rng.standard_normal(40)
    gamma = 0.7
    p = sv.prox_l1(v, gamma)
    _check_prox_optimal(p, v, gamma, lambda u: float(np.sum(np.abs(u))), _candidates(rng, p))


def test_prox_l12_closed_form():
    # one group above threshold, one below, one exactly zero
    v = np.array([3.0, 4.0, 0.1, 0.1, 0.0, 0.0])
    out = sv.prox_l12(v, 1.0)
    np.testing.assert_allclose(out[:2], (1.0 - 1.0 / 5.0) * v[:2])
    np.testing.assert_allclose(out[2:], 0.0)


def test_prox_l12_variational():
    rng = _rng(2)
    v = rng.standard_normal(40)
    gamma = 0.45

    def g(u):
        return float(np.sum(np.linalg.norm(u.reshape(-1, 2), axis=1)))

    p = sv.prox_l12(v, gamma)
    _check_prox_optimal(p, v, gamma, g, _candidates(rng, p))


def test_prox_box01_is_projection():
    rng = _rng(3)
    v = rng.standard_normal(50) * 2.0
    p = oracles.prox_box01(v)
    assert p.min() >= 0.0 and p.max() <= 1.0
    for z in rng.random((200, 50)):
        assert np.sum((p - v) ** 2) <= np.sum((z - v) ** 2) + 1e-9


def test_project_ball():
    rng = _rng(4)
    center = rng.standard_normal(30)
    v = center + 5.0 * rng.standard_normal(30)
    p = sv.project_ball(v, center, 2.0)
    np.testing.assert_allclose(np.linalg.norm(p - center), 2.0, rtol=1e-12)
    # interior points are untouched
    w = center + 0.5 * rng.standard_normal(30) * (1.0 / 30)
    np.testing.assert_array_equal(sv.project_ball(w, center, 2.0), w)
    # distance optimality against feasible candidates
    for _ in range(200):
        u = rng.standard_normal(30)
        z = center + 2.0 * u / max(np.linalg.norm(u), 1.0)
        assert np.sum((p - v) ** 2) <= np.sum((z - v) ** 2) + 1e-9


def test_project_ball_zero_radius_and_point():
    v = np.array([1.0, 2.0])
    c = np.array([0.5, 0.5])
    np.testing.assert_array_equal(sv.project_ball(v, c, 0.0), c)
    np.testing.assert_array_equal(oracles.project_point(v, c), c)


# ---------------------------------------------------------------------------
# finite-difference operator


class _MaskedDiff:
    """Reference: masked forward differences on the (H, W) image
    (replicate boundary, last difference 0).

    ``apply`` returns the stacked (vertical, horizontal) difference images,
    each multiplied by the block-boundary mask: pixels strictly inside a
    block (1 <= m, n <= M-2 locally) are zeroed, the one-pixel ring at each
    block edge passes through.  ``adjoint`` is the exact transpose.
    ``sv.DiffOperator`` keeps only the ring entries of the same arithmetic.
    """

    def __init__(self, shape, block_size):
        H, W = shape
        M = block_size
        self.shape = (H, W)
        tile = np.ones((M, M))
        if M > 2:
            tile[1 : M - 1, 1 : M - 1] = 0.0
        self.mask = np.tile(tile, (H // M, W // M))

    def apply(self, x):
        H, W = self.shape
        out = np.zeros((2, H, W))
        out[0, : H - 1, :] = x[1:, :] - x[: H - 1, :]
        out[1, :, : W - 1] = x[:, 1:] - x[:, : W - 1]
        out *= self.mask
        return out

    def adjoint(self, z):
        H, W = self.shape
        zm = z * self.mask  # the mask broadcasts over the stacked pair
        zv, zh = zm[0], zm[1]
        out = np.zeros((H, W))
        out[1:, :] += zv[: H - 1, :]
        out[: H - 1, :] -= zv[: H - 1, :]
        out[:, 1:] += zh[:, : W - 1]
        out[:, : W - 1] -= zh[:, : W - 1]
        return out


RING_SHAPES = [((4, 6), 2), ((16, 8), 4), ((24, 16), 8), ((64, 32), 8), ((32, 64), 32),
               ((64, 64), 32)]


def _ring_columns(shape, ring):
    """The documented column order of the (2, K) pair: the ring pixels
    (row-major) grouped as vertical-only, both, horizontal-only, neither,
    by which differences are formed, row-major within each group."""
    H, W = shape
    rows, cols = np.nonzero(ring)
    v, h = rows < H - 1, cols < W - 1
    key = np.where(v, np.where(h, 1, 0), np.where(h, 2, 3))
    return np.argsort(key, kind="stable")


@pytest.mark.parametrize("shape, M", RING_SHAPES)
def test_ring_diff_matches_masked_oracle(shape, M):
    # bit for bit on the block stack: the ring operator is the masked one
    # restricted to the ring, in the documented column order
    H, W = shape
    d = sv.DiffOperator(shape, M)
    oracle = _MaskedDiff(shape, M)
    ring = oracle.mask.astype(bool)
    assert d.ring_size == int(ring.sum())
    columns = _ring_columns(shape, ring)
    rng = _rng(30 + M)
    x = rng.standard_normal(shape)
    want_apply = oracle.apply(x)[:, ring][:, columns]
    u = ig.to_blocks(x, M)
    assert d.apply(u).tobytes() == want_apply.tobytes()
    # random values, and random signed zeros: the sums start from +0 as the
    # oracle's do, so no pixel comes out as -0 where the oracle has +0
    values = rng.standard_normal((2, d.ring_size))
    signed_zeros = np.copysign(0.0, rng.standard_normal((2, d.ring_size)))
    for z in (values, signed_zeros):
        full = np.zeros((2, H, W))
        on_ring = np.empty_like(z)
        on_ring[:, columns] = z
        full[:, ring] = on_ring
        want_adjoint = ig.to_blocks(oracle.adjoint(full), M)
        assert d.adjoint(z).tobytes() == want_adjoint.tobytes()


def test_diff_reads_only_the_block_stack():
    d = sv.DiffOperator((16, 32), 8)
    assert d.stack_shape == (8, 8, 8)
    for wrong in (np.zeros((16, 32)), np.zeros(16 * 32), np.zeros((8, 64))):
        with pytest.raises(ValueError, match="block stack"):
            d.apply(wrong)
    assert d.adjoint(np.zeros((2, d.ring_size))).shape == (8, 8, 8)


def test_diff_rejects_complex_input():
    # a float64 cast would keep only the real part, with a ComplexWarning
    d = sv.DiffOperator((16, 32), 8)
    with pytest.raises(ValueError, match="real"):
        d.apply(np.zeros(d.stack_shape) + 1j)
    with pytest.raises(ValueError, match="real"):
        d.adjoint(np.zeros((2, d.ring_size), dtype=np.complex128))


def test_diff_adjoint_identity():
    d = sv.DiffOperator((24, 16), 8)
    rng = _rng(5)
    x = ig.to_blocks(rng.standard_normal((24, 16)), 8)
    z = rng.standard_normal(d.apply(x).shape)
    lhs = float(np.sum(d.apply(x) * z))
    rhs = float(np.sum(x * d.adjoint(z)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_diff_constant_image_maps_to_zero():
    d = sv.DiffOperator((16, 16), 8)
    u = ig.to_blocks(np.full((16, 16), 0.3), 8)
    np.testing.assert_allclose(d.apply(u), 0.0, atol=1e-15)


def test_diff_sees_only_block_seams():
    # gradients strictly inside a block are masked; jumps across block
    # boundaries are kept
    d = sv.DiffOperator((16, 16), 8)
    inside = np.zeros((16, 16))
    inside[3:5, 2:6] = 1.0          # fully interior to the top-left block
    np.testing.assert_allclose(d.apply(ig.to_blocks(inside, 8)), 0.0, atol=1e-15)
    tiles = np.zeros((16, 16))
    tiles[:8, :] = 1.0              # seam between block rows
    out = d.apply(ig.to_blocks(tiles, 8))
    assert np.abs(out).sum() > 0


def test_diff_detects_mosaic_seams():
    img = ig.block_mosaic(32, seed=1)
    d = sv.DiffOperator((32, 32), 8)
    assert np.abs(d.apply(ig.to_blocks(img, 8))).sum() > 0.01


# ---------------------------------------------------------------------------
# operator norm estimation


def test_operator_norm_estimate_matches_dense():
    rng = _rng(6)
    A = rng.standard_normal((12, 9))

    def fwd(x):
        return [A @ x.reshape(-1)]

    def adj(parts):
        return (A.T @ parts[0]).reshape(3, 3)

    est = sv.estimate_operator_norm_sq(fwd, adj, (3, 3), iters=200)
    want = float(np.linalg.svd(A, compute_uv=False)[0] ** 2)
    np.testing.assert_allclose(est, want, rtol=1e-3)


def _stacked_operator(problem):
    """(apply, adjoint, shape) of L = [F B; W D; Phi] for a problem, in the
    argument form of ``estimate_operator_norm_sq``."""
    obs = problem.observation
    frame = problem.frame
    M = frame.block_size
    H, W = obs.height, obs.width
    meas = obs.operator()
    diff = sv.DiffOperator((H, W), M) if problem.rho > 0 else None

    def apply(x):
        parts = [
            frame.analyze_blocks(ig.to_blocks(x, M)),
            meas.forward(x.reshape(-1, order="F")),
        ]
        if diff is not None:
            parts.append(diff.apply(ig.to_blocks(x, M)))
        return parts

    def adjoint(parts):
        out = ig.from_blocks(frame.adjoint_blocks(parts[0]), W)
        out = out + meas.adjoint(parts[1]).reshape(H, W, order="F")
        if diff is not None:
            out = out + ig.from_blocks(diff.adjoint(parts[2]), W)
        return out

    return apply, adjoint, (H, W)


def _gate_problem(family, rho):
    img = ig.block_mosaic(32, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=1)
    return sv.ProblemSpec(frame=fr.build_frame(family, 8), observation=obs, rho=rho)


def test_solver_operator_norms_frozen():
    # analysis-only stack has a tight-frame norm of ~2; adding the seam
    # difference operator raises it to ~8.66.  The solver's certified bounds
    # (2 and 10) must sit at or above the 30-step estimates, up to the gate's
    # own 1e-9 slack.
    for rho, want in ((0.0, 2.0), (1.0, 8.662)):
        prob = _gate_problem("rdadcf", rho)
        est = sv.estimate_operator_norm_sq(*_stacked_operator(prob))
        np.testing.assert_allclose(est, want, atol=0.02 if rho == 0 else 0.05)
        _, rep = sv.solve(prob, sv.SolverConfig(max_iters=1))
        assert rep.op_norm_sq == 2.0 + 8.0 * rho
        assert est <= rep.op_norm_sq + 1e-9


@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_certified_bound_covers_long_estimate(family, rho):
    # the power iteration approaches ||L||^2 from below, so after 3000 steps
    # it is as close as it gets; the 1e-9 slack is the gate's own
    prob = _gate_problem(family, rho)
    est = sv.estimate_operator_norm_sq(*_stacked_operator(prob), iters=3000)
    _, rep = sv.solve(prob, sv.SolverConfig(max_iters=1))
    assert est <= rep.op_norm_sq + 1e-9


def test_gate_rejects_pair_that_passes_short_estimate():
    # 1 / (0.01 * 8.7) clears the 30-step estimate (~8.66) but not ||L||^2
    # itself (~8.76 after 3000 steps), so a certified gate must refuse it
    prob = _gate_problem("rdadcf", 1.0)
    with pytest.raises(ValueError):
        sv.solve(prob, sv.SolverConfig(gamma1=0.01, gamma2=1.0 / (0.01 * 8.7)))


# ---------------------------------------------------------------------------
# solver configuration and behavior


def test_config_default_step_sizes():
    cfg = sv.SolverConfig()
    np.testing.assert_allclose(cfg.resolved_gamma2(), 1.0 / (12 * 0.01))
    cfg2 = sv.SolverConfig(gamma1=0.02, gamma2=3.0)
    assert cfg2.resolved_gamma2() == 3.0


def test_solve_rejects_bad_step_sizes():
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=1.0)
    with pytest.raises(ValueError):
        sv.solve(prob, sv.SolverConfig(gamma1=1.0, gamma2=1.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value, message", [
    ("max_iters", -5, "max_iters"), ("max_iters", 0, "max_iters"),
    ("max_iters", 2.7, "max_iters"), ("max_iters", NAN, "max_iters"),
    ("max_iters", INF, "max_iters"), ("stop_tol", -1.0, "stop_tol"),
    ("stop_tol", NAN, "stop_tol"), ("stop_tol", INF, "stop_tol"),
    ("gamma1", NAN, "step sizes"), ("gamma1", INF, "step sizes"),
    ("gamma2", NAN, "step sizes"), ("gamma2", INF, "step sizes"),
])
def test_solve_rejects_bad_config(field, value, message):
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    with pytest.raises(ValueError, match=message):
        sv.solve(prob, sv.SolverConfig(**{field: value}))


@pytest.mark.parametrize("field", ["gamma1", "gamma2", "stop_tol", "max_iters"])
@pytest.mark.parametrize("value", [True, False, np.True_], ids=["true", "false", "numpy-true"])
def test_solve_rejects_boolean_config(field, value):
    # a boolean is not a number of iterations or a step size, as
    # `recover --config` already holds
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    with pytest.raises(ValueError, match=field):
        sv.solve(prob, sv.SolverConfig(**{field: value}))


@pytest.mark.parametrize("rho", [-1.0, NAN, INF])
def test_solve_rejects_bad_rho(rho):
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=rho)
    with pytest.raises(ValueError, match="rho"):
        sv.solve(prob)


def test_solve_accepts_whole_float_iteration_count():
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    _, rep = sv.solve(prob, sv.SolverConfig(max_iters=3.0, stop_tol=0.0))
    assert rep.iterations == 3


@pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
def test_solve_rejects_bad_epsilon(epsilon):
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, epsilon=epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        sv.solve(prob)


_BAD_PROBLEMS = {
    "mode-bogus": ({"fidelity_mode": "bogus"}, "fidelity mode"),
    "rho-negative": ({"rho": -1.0}, "rho"),
    "rho-nan": ({"rho": NAN}, "rho"),
    "rho-inf": ({"rho": INF}, "rho"),
    "rho-true": ({"rho": True}, "rho"),
    "rho-numpy-true": ({"rho": np.True_}, "rho"),
    "epsilon-negative": ({"epsilon": -1.0}, "epsilon"),
    "epsilon-nan": ({"epsilon": NAN}, "epsilon"),
    "epsilon-true": ({"epsilon": True}, "epsilon"),
}


@pytest.mark.parametrize("entry", ["solve", "objective_terms"])
@pytest.mark.parametrize("case", list(_BAD_PROBLEMS))
def test_bad_problem_rejected_by_both_entry_points(case, entry):
    # solve and objective_terms check a problem in one place, so neither
    # scores a problem that the other rejects: an unknown mode is not the
    # radius-0 ball, and a boolean is not a weight or a radius
    fields, name = _BAD_PROBLEMS[case]
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, **fields)
    with pytest.raises(ValueError, match=name):
        if entry == "solve":
            sv.solve(prob, sv.SolverConfig(max_iters=3, stop_tol=0.0))
        else:
            sv.objective_terms(prob, img)


def test_solve_nan_measurement_diverges_at_once():
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    y = np.array(obs.y)
    y[3] = np.nan
    obs = sn.Observation(y, 16, 16, obs.rate, obs.seed, obs.seed_noise, 0.0, obs.mode)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    with pytest.raises(sv.DivergenceError, match="at iteration 1$"):
        sv.solve(prob)


def test_resolved_epsilon():
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.1, seed=3)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    np.testing.assert_allclose(
        prob.resolved_epsilon(), 0.1 * np.sqrt(obs.measurement_count)
    )
    prob2 = sv.ProblemSpec(
        frame=fr.build_frame("rdadcf", 8), observation=obs, epsilon=0.25
    )
    assert prob2.resolved_epsilon() == 0.25


def test_solve_deterministic():
    img = ig.oriented_texture(32, seed=1)
    obs = sn.sense_image(img, 0.5, 0.05, seed=4)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=1.0)
    cfg = sv.SolverConfig(max_iters=60, stop_tol=0.0)
    x1, r1 = sv.solve(prob, cfg, truth=img)
    x2, r2 = sv.solve(prob, cfg, truth=img)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(r1.residuals, r2.residuals)


def test_solve_report_contents():
    img = ig.oriented_texture(32, seed=2)
    obs = sn.sense_image(img, 0.6, 0.05, seed=5)
    prob = sv.ProblemSpec(frame=fr.build_frame("dadcf", 8), observation=obs, rho=0.0)
    x, rep = sv.solve(prob, sv.SolverConfig(max_iters=50, stop_tol=0.0), truth=img)
    assert rep.iterations == 50 and rep.stop_reason == "max-iters"
    assert rep.residuals.shape == (50,)
    assert rep.psnr_history.shape == (50,)
    assert rep.final_psnr == rep.psnr_history[-1]
    assert x.shape == img.shape and x.min() >= 0.0 and x.max() <= 1.0
    d = rep.to_json_dict()
    assert d["iterations"] == 50 and d["stop_reason"] == "max-iters"
    # without truth there is no PSNR tracking
    _, rep2 = sv.solve(prob, sv.SolverConfig(max_iters=5, stop_tol=0.0))
    assert rep2.psnr_history is None and rep2.final_psnr is None


def test_solve_stops_on_tolerance():
    img = ig.block_mosaic(32, seed=2)
    obs = sn.sense_image(img, 0.6, 0.05, seed=6)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=1.0)
    x, rep = sv.solve(prob, sv.SolverConfig(stop_tol=0.01), truth=img)
    assert rep.stop_reason == "tolerance"
    assert 1 < rep.iterations < 3000


def test_solve_fixed_point_objective():
    # the iterate settles: running twice as long leaves the objective alone
    img = ig.oriented_texture(16, seed=3)
    obs = sn.sense_image(img, 0.6, 0.05, seed=7)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 4), observation=obs, rho=1.0)
    x_a, _ = sv.solve(prob, sv.SolverConfig(max_iters=3000, stop_tol=0.0))
    x_b, _ = sv.solve(prob, sv.SolverConfig(max_iters=6000, stop_tol=0.0))
    obj_a = sv.objective_terms(prob, x_a)["objective"]
    obj_b = sv.objective_terms(prob, x_b)["objective"]
    np.testing.assert_allclose(obj_a, obj_b, rtol=1e-6)
    np.testing.assert_allclose(x_a, x_b, atol=1e-6)


def test_equality_fidelity_full_sampling():
    img = ig.oriented_texture(32, seed=4)
    obs = sn.sense_image(img, 1.0, 0.0, seed=8)
    prob = sv.ProblemSpec(
        frame=fr.build_frame("rdadcf", 8),
        observation=obs,
        rho=0.0,
        fidelity_mode=sv.FIDELITY_EQUALITY,
    )
    x, rep = sv.solve(prob, sv.SolverConfig(max_iters=300, stop_tol=0.0), truth=img)
    assert rep.final_psnr > 45.0


def test_objective_terms():
    img = ig.block_mosaic(16, seed=1)
    obs = sn.sense_image(img, 1.0, 0.0, seed=9)
    op = fr.build_frame("rdadcf", 8)
    prob = sv.ProblemSpec(frame=op, observation=obs, rho=1.0)
    terms = sv.objective_terms(prob, img)
    co = op.analyze_blocks(ig.to_blocks(img, 8))
    np.testing.assert_allclose(terms["l1"], float(np.abs(co).sum()), rtol=1e-12)
    assert terms["box_violation"] == 0.0
    # noiseless full sampling: the truth is feasible
    assert terms["fidelity_gap"] <= 1e-10
    assert terms["objective"] >= terms["l1"]


def test_objective_terms_rejects_image_of_wrong_shape():
    # 16 x 64 has the observation's pixel count but not its shape
    obs = sn.sense_image(ig.block_mosaic(32, seed=1), 0.5, 0.0, seed=9)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    with pytest.raises(ValueError, match=r"\(16, 64\).*\(32, 32\)") as info:
        sv.objective_terms(prob, np.zeros((16, 64)))
    # the scored image is the solve's result, not a truth image
    assert "truth" not in str(info.value)


def test_divergence_guard():
    sv._divergence_guard([1.0] * 50)                      # short history: fine
    sv._divergence_guard([0.0] + [5.0] * 101)             # zero reference: fine
    with pytest.raises(sv.DivergenceError):
        sv._divergence_guard([0.1] * 101 + [1.1])
    with pytest.raises(sv.DivergenceError):
        sv._divergence_guard([0.1, float("nan")])         # non-finite: at once


def test_solve_rejects_truth_of_wrong_shape():
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.0, seed=2)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs)
    with pytest.raises(ValueError, match=r"\(8, 8\).*\(16, 16\)"):
        sv.solve(prob, truth=np.zeros((8, 8)))


# ---------------------------------------------------------------------------
# dual updates against the primal proxes, through the Moreau identity
# prox_{g f*}(v) = v - g prox_{f/g}(v / g), v = z + g a


@pytest.mark.parametrize("gamma", [0.3, 1.0, 8.3])
def test_dual_l1_moreau(gamma):
    rng = _rng(20)
    z = np.clip(rng.standard_normal((6, 11)), -1.0, 1.0)
    a = 3.0 * rng.standard_normal((6, 11))
    v = z + gamma * a
    want = v - gamma * sv.prox_l1(v / gamma, 1.0 / gamma)
    got = sv.dual_l1(z, a.copy(), gamma)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.abs(got).max() <= 1.0


@pytest.mark.parametrize("gamma, rho", [(0.3, 1.0), (1.0, 0.5), (8.3, 2.0)])
def test_dual_l12_moreau(gamma, rho):
    rng = _rng(21)
    z = 0.4 * rng.standard_normal((2, 5, 7))
    a = 3.0 * rng.standard_normal((2, 5, 7))
    v = z + gamma * a
    # prox_l12 groups contiguous pairs: put each pixel's (vertical,
    # horizontal) pair side by side
    pairs = np.moveaxis(v, 0, -1).reshape(-1)
    prox = np.moveaxis(sv.prox_l12(pairs / gamma, rho / gamma).reshape(5, 7, 2), -1, 0)
    want = v - gamma * prox
    got = sv.dual_l12(z, a.copy(), gamma, rho)
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.sqrt(got[0] ** 2 + got[1] ** 2).max() <= rho * (1 + 1e-12)


@pytest.mark.parametrize("radius", [0.0, 0.5, 100.0])
@pytest.mark.parametrize("gamma", [0.3, 8.3])
def test_dual_data_moreau(gamma, radius):
    rng = _rng(22)
    y = rng.standard_normal(9)
    z = rng.standard_normal(9)
    a = rng.standard_normal(9)
    v = z + gamma * a
    # the closed form against the Moreau identity around the projection
    if radius:
        proj = sv.project_ball(v / gamma, y, radius)
    else:
        proj = oracles.project_point(v / gamma, y)
    got = sv.dual_data(z, a.copy(), gamma, y, radius)
    np.testing.assert_allclose(got, v - gamma * proj, atol=1e-12)
    if not radius:
        # equality is the ball of radius 0, whose factor is exactly 1
        assert got.tobytes() == (gamma * a + z - gamma * y).tobytes()


# ---------------------------------------------------------------------------
# the block-major loop against an image-order copy of it


def _image_order_solve(problem, iters):
    """The primal-dual loop with the iterate kept as an (H, W) image: the
    frame reads it through to_blocks/from_blocks and sensing through the
    column-major vectorization.  Same arithmetic as ``solve``, in the layout
    the loop used before it kept block stacks."""
    obs = problem.observation
    frame = problem.frame
    M = frame.block_size
    H, W = obs.height, obs.width
    r, c = H // M, W // M
    meas = obs.operator()
    y = np.asarray(obs.y)
    eps = problem.resolved_epsilon()
    g1 = 0.01
    g2 = 1.0 / (12.0 * g1)
    rho = problem.rho
    diff = _MaskedDiff((H, W), M) if rho > 0 else None

    def A1(x):
        return frame.analyze_blocks(ig.to_blocks(x, M)).ravel()

    def A1t(z):
        return ig.from_blocks(frame.adjoint_blocks(z.reshape(r * c, -1)), W)

    def A3(x):
        return meas.forward(x.reshape(-1, order="F"))

    def A3t(v):
        return meas.adjoint(v).reshape(H, W, order="F")

    x = np.clip(A3t(y), 0.0, 1.0)
    z1 = np.zeros(r * c * frame.n_out)
    z2 = np.zeros((2, H, W))
    z3 = np.zeros(obs.measurement_count)
    residuals = []
    for _ in range(iters):
        grad = A1t(z1) + A3t(z3)
        if diff is not None:
            grad += diff.adjoint(z2)
        x_new = np.clip(x - g1 * grad, 0.0, 1.0)
        xb = 2.0 * x_new - x
        z1 = np.clip(z1 + g2 * A1(xb), -1.0, 1.0)
        if diff is not None:
            t2 = z2 + g2 * diff.apply(xb)
            z2 = t2 * (rho / np.maximum(np.sqrt(t2[0] ** 2 + t2[1] ** 2), rho))
        z3 = sv.dual_data(z3, A3(xb), g2, y, eps)
        residuals.append(float(np.linalg.norm(x_new - x)))
        x = x_new
    return x, np.array(residuals)


@pytest.mark.parametrize("mode, shape", [(sn.SCRAMBLED_HADAMARD, (32, 64)),
                                         (sn.COMPLEX_NOISELET, (64, 32))])
@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize("M", [4, 8, 32])
@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_block_major_loop_matches_image_order(family, M, rho, mode, shape):
    img = ig.oriented_texture(64, seed=5)[: shape[0], : shape[1]]
    obs = sn.sense_image(img, 0.4, 0.05, seed=9, mode=mode)
    prob = sv.ProblemSpec(frame=fr.build_frame(family, M), observation=obs, rho=rho)
    want, want_res = _image_order_solve(prob, 25)
    got, rep = sv.solve(prob, sv.SolverConfig(max_iters=25, stop_tol=0.0), truth=img)
    assert got.shape == shape
    assert got.tobytes() == want.tobytes()
    # the increments are sums over the pixels taken in another order
    np.testing.assert_allclose(rep.residuals, want_res, rtol=1e-12)
    np.testing.assert_allclose(rep.psnr_history[-1], ig.psnr(img, got), rtol=1e-12)


def test_block_order_senses_the_image():
    # u[positions] is the image whose blocks are u; raveled column by column,
    # it is the column-major vector that sensing reads
    H, W, M = 16, 32, 4
    img = np.arange(H * W, dtype=float).reshape(H, W)
    positions = ig._stack_positions(M, H // M, W // M)
    u = ig.to_blocks(img, M).reshape(-1)
    np.testing.assert_array_equal(u[positions], img)
    np.testing.assert_array_equal(u[positions.ravel(order="F")], img.reshape(-1, order="F"))


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_solve_derives_ring_indices_once(monkeypatch, rho):
    # a rho > 0 solve builds its seam operator on the block stack once, with
    # no relabeling afterwards
    calls = {"init": 0}
    init = sv.DiffOperator.__init__

    def counted(*args):
        calls["init"] += 1
        return init(*args)

    monkeypatch.setattr(sv.DiffOperator, "__init__", counted)
    img = ig.block_mosaic(32, seed=3)
    obs = sn.sense_image(img, 0.5, 0.05, seed=10)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=rho)
    _, rep = sv.solve(prob, sv.SolverConfig(max_iters=5, stop_tol=0.0))
    assert rep.iterations == 5
    assert calls == {"init": int(rho > 0)}


def test_solve_derives_stack_map_once():
    # a rho > 0 solve and the scoring of its result share one evaluation of
    # the layout map, and every caller gets it read-only
    ig._stack_positions.cache_clear()
    img = ig.block_mosaic(32, seed=3)
    obs = sn.sense_image(img, 0.5, 0.05, seed=10)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=1.0)
    x, _ = sv.solve(prob, sv.SolverConfig(max_iters=3, stop_tol=0.0))
    sv.objective_terms(prob, x)
    info = ig._stack_positions.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert not ig._stack_positions(8, 4, 4).flags.writeable


_FRAME_STEP_FRAMES = {}


@pytest.mark.parametrize("multiple", [0.5, 1, 2.5, 4])
@pytest.mark.parametrize("M", [4, 8, 16, 32])
@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_frame_step_matches_whole_stack(family, M, multiple):
    # the chunked analysis, l1 dual step and adjoint give the whole-stack
    # bytes, for stacks shorter than one chunk, equal to it, two and a half
    # chunks (a short last chunk) and four chunks
    key = (family, M)
    if key not in _FRAME_STEP_FRAMES:
        _FRAME_STEP_FRAMES[key] = fr.build_frame(family, M)
    frame = _FRAME_STEP_FRAMES[key]
    chunk = frame.chunk
    assert chunk & (chunk - 1) == 0
    assert chunk * frame.n_out <= fr._FRAME_CHUNK_FLOATS < 2 * chunk * frame.n_out
    L = int(chunk * multiple)
    rng = _rng(L * M)
    xb = rng.standard_normal((L, M, M))
    z1 = rng.uniform(-1.0, 1.0, (L, frame.n_out))
    want_z1 = sv.dual_l1(z1.copy(), frame.analyze_blocks(xb), 0.7)
    want = frame.adjoint_blocks(want_z1)
    # whatever the held buffer holds beforehand
    coeffs = np.full((chunk, frame.n_out), np.nan)
    assert sv._frame_step(frame, coeffs, z1, xb, 0.7) is z1
    assert z1.tobytes() == want_z1.tobytes()
    assert xb.tobytes() == want.tobytes()


def test_frame_chunk_floor_is_one_block():
    assert fr._frame_chunk(fr._FRAME_CHUNK_FLOATS) == 1
    assert fr._frame_chunk(4 * fr._FRAME_CHUNK_FLOATS) == 1


@pytest.mark.parametrize("rho", [0.0, 1.0])
@pytest.mark.parametrize("iters", [1, 30])
def test_solve_converts_layout_only_at_the_ends(monkeypatch, rho, iters):
    # one to_blocks for the truth and one from_blocks for the result,
    # however many iterations run
    calls = {"to_blocks": 0, "from_blocks": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(sv, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(sv, name, counted)
    img = ig.block_mosaic(32, seed=3)
    obs = sn.sense_image(img, 0.5, 0.05, seed=10)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=rho)
    _, rep = sv.solve(prob, sv.SolverConfig(max_iters=iters, stop_tol=0.0), truth=img)
    assert rep.iterations == iters
    assert calls == {"to_blocks": 1, "from_blocks": 1}


# ---------------------------------------------------------------------------
# the loop's heap stays flat
#
# A solve's set-up allocates fresh arrays, but its iterations reuse freed
# heap memory and the operators' held workspaces, so they take (almost) no
# new pages from the kernel.  Differencing the minor faults of a warm long
# and a warm short solve cancels the set-up.  Each case runs in a fresh
# interpreter at one BLAS thread (as the benchmark runs) that, like
# `dirframes recover`, senses, builds the frame and solves.
#
# The figure depends on the C library's allocator.  glibc raises its mmap
# and trim thresholds to the largest block freed so far, so whether a fresh
# temporary faults in again on every iteration depends on what the process
# allocated before.  On glibc 2.36 the loop reads -2 to 2 faults per
# iteration.  A 0.9 MB temporary made afresh by every seam adjoint (an
# unbuffered `bincount`) read 110 to 130 in one of the four cases and about
# 0 in the others, and which case moved with the BLAS thread count.
#
# So the second test pins the thresholds (mmap threshold 32 KiB, no trim
# threshold, no top pad): every fresh array of 32 KiB or more is then mapped
# anew, and the count is the pages of the loop's fresh temporaries, the same
# in every run: 1089 and 1139 at rates 0.4 and 0.6 in both modes (numpy
# 2.4), 1481 and 1531 with the frame step's chunks made afresh and copied
# into z1 and xb, 1704 and 1754 with a fresh weights array in every seam
# adjoint, and 1741 and 1762 with the data step projecting through
# ``project_ball``.  One more image-sized temporary (128 pages at 256x256)
# per iteration breaks its bound too (1218 and 1268).

_FAULTS_PER_ITERATION = """
import resource, sys
from dirframes import frames as fr, imagegrid as ig, sensing as sn, solver as sv
mode, rate, long, short = sys.argv[1], float(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
truth = ig.block_mosaic(256, seed=0)
obs = sn.sense_image(truth, rate, 0.1, seed=17, mode=mode)
problem = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=1.0)

def faults(iters):
    config = sv.SolverConfig(max_iters=iters, stop_tol=0.0)
    sv.solve(problem, config, truth=truth)   # warm-up of the same length
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, report = sv.solve(problem, config, truth=truth)
    assert report.iterations == iters
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print((faults(long) - faults(short)) / (long - short))
"""

_PINNED_MALLOC = ("glibc.malloc.mmap_threshold=32768:glibc.malloc.trim_threshold=0:"
                  "glibc.malloc.top_pad=0")

HEAP_CASES = pytest.mark.parametrize("mode, rate", [
    (mode, rate) for mode in (sn.SCRAMBLED_HADAMARD, sn.COMPLEX_NOISELET) for rate in (0.4, 0.6)])


def _child(script, *args, threads=1, **env_vars):
    """The stdout of ``script`` run with ``args`` in a fresh interpreter
    that imports this checkout's package, with every BLAS pool at
    ``threads`` threads and ``env_vars`` set."""
    package_root = str(Path(sv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             str(threads)), **env_vars)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True).stdout


def _faults_per_iteration(mode, rate, long, short, malloc_tunables=None):
    resource = pytest.importorskip("resource")
    if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
        pytest.skip("no minor-fault count on this platform")
    tunables = {"GLIBC_TUNABLES": malloc_tunables} if malloc_tunables else {}
    return float(_child(_FAULTS_PER_ITERATION, mode, str(rate), str(long), str(short),
                        **tunables))


@HEAP_CASES
def test_loop_takes_no_new_pages(mode, rate):
    assert _faults_per_iteration(mode, rate, 150, 50) <= 20


@HEAP_CASES
def test_loop_makes_no_new_large_temporaries(mode, rate):
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the pinned allocator settings are glibc tunables")
    assert _faults_per_iteration(mode, rate, 30, 10, _PINNED_MALLOC) <= 1200


# ---------------------------------------------------------------------------
# the bytes do not depend on the BLAS thread count
#
# Every norm that decides a byte is numpy's own reduction, and the frame
# products of these families round the same at any thread count.  The
# pyramid is left out: its 129-row frame product rounds differently at two
# threads (ROADMAP item 2's second cause).  At 256 x 256 the vectors are
# long enough for OpenBLAS to thread them.

_SOLVE_DIGESTS = """
import hashlib, json, sys
from dirframes import frames as fr, imagegrid as ig, sensing as sn, solver as sv
truth = ig.block_mosaic(256, seed=0)
obs = sn.sense_image(truth, 0.4, 0.1, seed=17, mode=sys.argv[1])
config = sv.SolverConfig(max_iters=60, stop_tol=0.0)
digests = {}
for family in sys.argv[2:]:
    problem = sv.ProblemSpec(frame=fr.build_frame(family, 8), observation=obs, rho=1.0)
    x, report = sv.solve(problem, config)
    digests[family] = [hashlib.sha256(a.tobytes()).hexdigest() for a in (x, report.residuals)]
print(json.dumps(digests))
"""


@pytest.mark.parametrize("mode", [sn.SCRAMBLED_HADAMARD, sn.COMPLEX_NOISELET])
def test_solve_bytes_do_not_depend_on_blas_threads(mode):
    families = [family for family in fr.FRAME_FAMILIES if family != "pyramid"]
    one, two = (json.loads(_child(_SOLVE_DIGESTS, mode, *families, threads=t)) for t in (1, 2))
    assert [family for family in families if one[family] != two[family]] == []

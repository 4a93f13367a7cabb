"""Acceptance suite: one pass/fail line per criterion.

Runs the full set of numeric acceptance checks at their stated tolerances and
prints a single verdict line for each (``pytest -s`` shows them).  The
recovery experiments (criterion 8) run at desk scale: 256 x 256 images,
8 x 8 blocks, noise level 0.1, three seeds averaged.
"""

import time

import numpy as np
import pytest

from dirframes import backend
from dirframes import frames as fr
from dirframes import imagegrid as ig
from dirframes import sensing as sn
from dirframes import solver as sv
from dirframes import transforms as tf

import oracles


def _verdict(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. tight-frame property


def test_criterion_1_parseval():
    t0 = time.perf_counter()
    worst = 0.0
    for M in (4, 8, 16, 32):
        for family in ("dadcf", "rdadcf"):
            worst = max(worst, fr.build_frame(family, M).parseval_residual())
    wall = time.perf_counter() - t0
    ok = worst < 1e-10 and wall < 5.0
    _verdict("1 (parseval tightness)", ok,
             f"max |F^T F - I| = {worst:.3e} over M in 4..32, {wall:.2f}s")


# ---------------------------------------------------------------------------
# 2. redesigned sine transform structure


def test_criterion_2_regular_sine_structure():
    t0 = time.perf_counter()
    worst_reg = worst_struct = worst_orth = worst_null = 0.0
    for M in (4, 8, 16, 32):
        t = tf.build_rdst(M)
        dst = tf.build_dst(M)
        n = np.arange(M)
        want = np.zeros(M)
        want[0] = np.sqrt(M)
        worst_reg = max(worst_reg, float(np.max(np.abs(t.entries @ np.ones(M) - want))))
        rows = [np.abs(t.entries[0] - np.sqrt(1.0 / M)).max(),
                np.abs(t.entries[1] - np.sqrt(1.0 / M) * (-1.0) ** n).max()]
        rows += [np.abs(t.entries[2 * l] - dst.entries[2 * l]).max()
                 for l in range(1, M // 2)]
        worst_struct = max(worst_struct, float(max(rows)))
        worst_orth = max(worst_orth, t.gram_residual())
        v = tf.rdst_design_steps(M)[0].null_vector
        alt = np.sqrt(1.0 / M) * (-1.0) ** n
        worst_null = max(worst_null, float(min(np.abs(v - alt).max(), np.abs(v + alt).max())))
    wall = time.perf_counter() - t0
    ok = max(worst_reg, worst_struct, worst_orth, worst_null) < 1e-10 and wall < 1.0
    _verdict("2 (regular sine structure)", ok,
             f"regularity {worst_reg:.2e}, rows {worst_struct:.2e}, "
             f"orthogonality {worst_orth:.2e}, null vector {worst_null:.2e}, {wall:.2f}s")


# ---------------------------------------------------------------------------
# 3. fixed numeric fixtures


def test_criterion_3_fixtures():
    S = tf.build_modified_dst(4)
    G = S @ S.T
    g1 = abs(abs(G[0, 1]) - 0.9239)
    g3 = abs(abs(G[0, 3]) - 0.3827)
    sv_mod = np.linalg.svd(S, compute_uv=False)
    rank_mod = int(np.count_nonzero(sv_mod > 1e-8 * sv_mod[0]))
    z = tf.rdst_design_steps(4)[0].zeroed
    sv_z = np.linalg.svd(z, compute_uv=False)
    rank_z = int(np.count_nonzero(sv_z > 1e-8 * sv_z[0]))
    gamma = tf.extract_gamma(tf.build_rdst(8), tf.build_dst(8))
    count = len(tf.factor_givens(gamma).rotations)
    ok = g1 < 5e-4 and g3 < 5e-4 and rank_mod == 3 and rank_z == 3 and count == 6
    _verdict("3 (numeric fixtures)", ok,
             f"gram offsets {g1:.1e}/{g3:.1e}, ranks {rank_mod}/{rank_z} (want 3/3), "
             f"rotation count {count} (want 6)")


# ---------------------------------------------------------------------------
# 4. closed-form atoms


def test_criterion_4_atom_identities():
    worst_mixed = 0.0
    for M in (4, 8):
        op = fr.build_frame("dadcf", M)
        for s in op.subbands:
            if s.branch != "mixed":
                continue
            a = fr.atom(op, s.index)
            want = fr.directional_cosine_atom(M, s.k_v, s.k_h, s.orientation)
            worst_mixed = max(worst_mixed, float(np.abs(a - want).max()))
    worst_pair = 0.0
    for M in (4, 8):
        h = tf.build_dht(M).entries
        m = np.arange(M)
        for kv in range(M):
            for kh in range(M):
                B = np.outer(h[kv], h[kh])
                B2 = np.outer(h[(M - kv) % M], h[(M - kh) % M])
                pv = 2 * np.pi * kv * m / M
                ph = 2 * np.pi * kh * m / M
                cw = np.cos(pv[:, None] - ph[None, :]) / M
                sw = np.sin(pv[:, None] + ph[None, :]) / M
                worst_pair = max(worst_pair, float(np.abs((B + B2) / 2 - cw).max()))
                worst_pair = max(worst_pair, float(np.abs((B - B2) / 2 - sw).max()))
    ok = worst_mixed < 1e-12 and worst_pair < 1e-12
    _verdict("4 (closed-form atoms)", ok,
             f"directional cosine {worst_mixed:.2e}, cas pairs {worst_pair:.2e}")


# ---------------------------------------------------------------------------
# 5. redesign conditioning bounds


def test_criterion_5_conditioning_bounds():
    worst_off = 0.0
    worst_diag = np.inf
    for M in (4, 8, 16):
        for rec in tf.redesign_conditioning(M):
            worst_off = max(worst_off, rec["max_offdiag"])
            worst_diag = min(worst_diag, rec["min_updated_diag"])
    ok = worst_off <= 0.5 + 1e-9 and worst_diag >= 1.0 - 1e-9
    _verdict("5 (conditioning bounds)", ok,
             f"max off-diagonal {worst_off:.4f} (<= 0.5), "
             f"min updated diagonal {worst_diag:.9f} (>= 1)")


# ---------------------------------------------------------------------------
# 6. pyramid invertibility and flat-field leakage


def test_criterion_6_pyramid():
    op = fr.build_frame("pyramid", 8)
    rng = np.random.Generator(np.random.Philox(key=[0, 0xACC6]))
    blocks = rng.standard_normal((1000, 8, 8))
    rt = float(np.abs(op.synthesize_blocks(op.analyze_blocks(blocks)) - blocks).max())
    count = (256 // 8) ** 2 * op.n_out
    count_ok = count == 2 * 256**2 + (256 // 8) ** 2

    # flat-field leakage on the zoneplate: analyze the per-block-mean field
    # and sum the energy outside the nominal lowpass outputs
    def leak_energy(frame):
        blocks = ig.to_blocks(oracles.zoneplate(256), 8)
        means = blocks.mean(axis=(1, 2))
        flat = np.ascontiguousarray(np.broadcast_to(means[:, None, None], blocks.shape))
        e = (frame.analyze_blocks(flat) ** 2).sum(axis=0)
        keep = [s.index for s in frame.subbands
                if s.branch != "mixed" and s.k_v == 0 and s.k_h == 0]
        return float(e.sum() - e[keep].sum())

    e_plain = leak_energy(fr.build_frame("dadcf", 8))
    e_pyr = leak_energy(op)
    drop_ok = e_plain > 1e3 and e_pyr <= 1e-4 * e_plain   # >= 40 dB
    ok = rt < 1e-10 and count_ok and drop_ok
    _verdict("6 (pyramid)", ok,
             f"round trip {rt:.2e}, coefficient count {count}, "
             f"flat-field leak {e_plain:.3g} -> {e_pyr:.3g}")


# ---------------------------------------------------------------------------
# 7. solver building blocks


def _prox_gap(prox_value, v, gamma, g, rng, count=200):
    base = g(prox_value) + float(np.sum((prox_value - v) ** 2)) / (2 * gamma)
    worst = 0.0
    for _ in range(count):
        z = prox_value + rng.standard_normal(v.shape) * rng.choice([1e-3, 0.1, 1.0])
        other = g(z) + float(np.sum((z - v) ** 2)) / (2 * gamma)
        worst = max(worst, base - other)
    return worst


def test_criterion_7_solver_blocks():
    rng = np.random.Generator(np.random.Philox(key=[0, 0xACC7]))
    v = rng.standard_normal(60)
    gamma = 0.6
    gaps = [
        _prox_gap(sv.prox_l1(v, gamma), v, gamma,
                  lambda u: float(np.abs(u).sum()), rng),
        _prox_gap(sv.prox_l12(v, gamma), v, gamma,
                  lambda u: float(np.linalg.norm(u.reshape(-1, 2), axis=1).sum()), rng),
        _prox_gap(oracles.prox_box01(v), v, 1.0,
                  lambda u: 0.0 if (u.min() >= -1e-12 and u.max() <= 1 + 1e-12) else np.inf,
                  rng),
    ]
    prox_ok = max(gaps) < 1e-3

    # adjointness of every operator entering the solver
    worst_adj = 0.0
    op = fr.build_frame("rdadcf", 8)
    x = rng.standard_normal((4, 8, 8))
    z = rng.standard_normal((4, op.n_out))
    worst_adj = max(worst_adj, abs(float(np.sum(op.analyze_blocks(x) * z))
                                   - float(np.sum(x * op.adjoint_blocks(z)))))
    d = sv.DiffOperator((16, 16), 8)
    xi = ig.to_blocks(rng.standard_normal((16, 16)), 8)
    zi = rng.standard_normal(d.apply(xi).shape)
    worst_adj = max(worst_adj, abs(float(np.sum(d.apply(xi) * zi))
                                   - float(np.sum(xi * d.adjoint(zi)))))
    mop = sn.MeasurementOperator(256, 0.5, seed=1)
    xv = rng.standard_normal(256)
    yv = rng.standard_normal(mop.m)
    worst_adj = max(worst_adj, abs(float(mop.forward(xv) @ yv) - float(xv @ mop.adjoint(yv))))
    adj_ok = worst_adj < 1e-10

    # full-sampling noiseless recovery
    img = ig.oriented_texture(64, seed=0)
    obs = sn.sense_image(img, 1.0, 0.0, seed=5)
    prob = sv.ProblemSpec(frame=fr.build_frame("rdadcf", 8), observation=obs, rho=0.0,
                          fidelity_mode=sv.FIDELITY_EQUALITY)
    _, rep = sv.solve(prob, sv.SolverConfig(stop_tol=0.0, max_iters=500), truth=img)
    rec_ok = rep.final_psnr > 60.0 and rep.iterations <= 500

    ok = prox_ok and adj_ok and rec_ok
    _verdict("7 (solver blocks)", ok,
             f"prox gap {max(gaps):.1e}, adjoint gap {worst_adj:.1e}, "
             f"lossless recovery {rep.final_psnr:.1f} dB in {rep.iterations} iters")


# ---------------------------------------------------------------------------
# 8. recovery experiments (desk scale)

RATES = (0.3, 0.4, 0.5, 0.6)
SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def recovery_runs():
    """All criterion-8 solves, shared across the four verdicts."""
    t0 = time.perf_counter()
    rd = fr.build_frame("rdadcf", 8)
    dh = fr.build_frame("dht", 8)
    cfg = sv.SolverConfig()
    mosaic = {}   # (seed, rate) -> dict(pinv=, psnr=)
    for seed in SEEDS:
        img = ig.block_mosaic(256, seed=seed)
        for rate in RATES:
            obs = sn.sense_image(img, rate, 0.1, seed=100 + seed)
            pinv = ig.psnr(img, sn.pseudo_inverse_estimate(obs))
            _, rep = sv.solve(sv.ProblemSpec(frame=rd, observation=obs, rho=1.0),
                              cfg, truth=img)
            mosaic[seed, rate] = {"pinv": pinv, "psnr": rep.final_psnr}
    texture = {}  # (seed, family) -> psnr  (p = 0.5, sparsity-only problem)
    for seed in SEEDS:
        img = ig.oriented_texture(256, seed=seed)
        obs = sn.sense_image(img, 0.5, 0.1, seed=100 + seed)
        for name, op in (("rdadcf", rd), ("dht", dh)):
            _, rep = sv.solve(sv.ProblemSpec(frame=op, observation=obs, rho=0.0),
                              cfg, truth=img)
            texture[seed, name] = rep.final_psnr
    wall = time.perf_counter() - t0
    assert wall < 600.0, f"experiment batch took {wall:.0f}s"
    return mosaic, texture


def test_criterion_8a_gap_over_baseline(recovery_runs):
    mosaic, _ = recovery_runs
    gaps = {}
    for rate in (0.4, 0.5, 0.6):
        gaps[rate] = float(np.mean([mosaic[s, rate]["psnr"] - mosaic[s, rate]["pinv"]
                                    for s in SEEDS]))
    ok = all(g >= 15.0 for g in gaps.values())
    detail = ", ".join(f"p={r}: +{g:.1f} dB" for r, g in gaps.items())
    _verdict("8a (recovery gap >= 15 dB)", ok, detail)


def test_criterion_8b_monotone_in_rate(recovery_runs):
    mosaic, _ = recovery_runs
    ok = True
    for s in SEEDS:
        series = [mosaic[s, r]["psnr"] for r in RATES]
        ok = ok and all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    means = [float(np.mean([mosaic[s, r]["psnr"] for s in SEEDS])) for r in RATES]
    _verdict("8b (monotone in sampling rate)", ok,
             "mean PSNR " + " -> ".join(f"{m:.1f}" for m in means))


def test_criterion_8c_beats_cas_frame(recovery_runs):
    _, texture = recovery_runs
    rd = float(np.mean([texture[s, "rdadcf"] for s in SEEDS]))
    dh = float(np.mean([texture[s, "dht"] for s in SEEDS]))
    ok = rd >= dh + 0.5
    _verdict("8c (directional vs cas frame)", ok,
             f"rdadcf {rd:.2f} dB vs dht {dh:.2f} dB (margin {rd - dh:+.2f})")


def test_criterion_8d_baseline_window(recovery_runs):
    mosaic, _ = recovery_runs
    base = float(np.mean([mosaic[s, 0.3]["pinv"] for s in SEEDS]))
    ok = 8.0 <= base <= 13.0
    _verdict("8d (baseline in 8-13 dB window)", ok, f"pinv at p=0.3: {base:.2f} dB")


# ---------------------------------------------------------------------------
# 9. fast paths equal dense paths


# the 1-D designs each family is built from, named here independently of
# the frame's own ``transforms``
_ONE_D = {
    "dadcf": (tf.build_dct, tf.build_dst),
    "rdadcf": (tf.build_dct, tf.build_rdst),
    "pyramid": (tf.build_dct, tf.build_dst),
    "dct": (tf.build_dct,),
    "dht": (tf.build_dht,),
    "dft": (tf.build_dft,),
}


def _kron_analysis(op):
    """Analysis matrix built row by row from the subband table: the
    column-major vector of the separable atom F[k_v] F[k_h]^T is
    kron(F[k_h], F[k_v])."""
    M = op.block_size
    F = [build(M).entries for build in _ONE_D[op.family]]
    rows = []
    for s in op.subbands:
        if s.branch == "lowpass":
            row = np.full(M * M, 1.0 / (M * M))
        elif len(F) == 1:  # separable; the dft's "sin" rows are imaginary parts
            w = np.kron(F[0][s.k_h], F[0][s.k_v])
            row = w.real if s.branch == "cos" else w.imag
        else:
            c = np.kron(F[0][s.k_h], F[0][s.k_v])
            sn = np.kron(F[1][s.k_h], F[1][s.k_v])
            if s.branch == "mixed":
                row = (c + s.orientation * sn) / 2.0
            else:
                row = (c if s.branch == "cos" else sn) / np.sqrt(2.0)
            if op.family == "pyramid":  # detail of the mean-removed block
                row = row - row.mean()
        rows.append(row)
    return np.array(rows)


def test_criterion_9_fast_equals_dense():
    rng = np.random.Generator(np.random.Philox(key=[0, 0xACC9]))
    worst_frame = 0.0
    for family in fr.FRAME_FAMILIES:
        for M in (4, 8):
            op = fr.build_frame(family, M)
            dense = _kron_analysis(op)
            blocks = rng.standard_normal((6, M, M))
            vecs = blocks.transpose(0, 2, 1).reshape(6, M * M)   # column-major vectors
            worst_frame = max(
                worst_frame,
                float(np.abs(op.analysis - dense).max()),
                float(np.abs(op.analyze_blocks(blocks) - vecs @ dense.T).max()),
            )

    def dense_hadamard(n):
        H = np.array([[1.0]])
        while H.shape[0] < n:
            H = np.block([[H, H], [H, -H]])
        return H

    worst_fwht = 0.0
    for n in (8, 64, 256):
        x = rng.standard_normal(n)
        worst_fwht = max(worst_fwht,
                         float(np.abs(backend.fwht(x) - dense_hadamard(n) @ x).max()))
    ok = worst_frame < 1e-12 and worst_fwht < 1e-10
    _verdict("9 (fast equals dense)", ok,
             f"separable-vs-kronecker {worst_frame:.2e}, butterfly-vs-dense {worst_fwht:.2e}")

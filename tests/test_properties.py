"""Property tests: adjointness over the operator grid, input readers against
arbitrary and mutated bytes, and solves of random small problems.

Hypothesis runs derandomized with a bounded example count and no example
database, so tier-1 stays deterministic and fast.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dirframes import cli
from dirframes import frames as fr
from dirframes import imagegrid as ig
from dirframes import sensing as sn
from dirframes import solver as sv

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

MODES = (sn.SCRAMBLED_HADAMARD, sn.COMPLEX_NOISELET)


GRID = [(family, M, mode) for family in fr.FRAME_FAMILIES for M in (4, 8, 16, 32) for mode in MODES]
ADJOINT = settings(PROPERTY, max_examples=4)


@st.composite
def _shapes(draw, M):
    """Non-square (H, W) with power-of-two sides that are multiples of M,
    at most 2^13 pixels."""
    low = M.bit_length() - 1
    a = draw(st.integers(low, 13 - low))
    b = draw(st.integers(low, 13 - a).filter(lambda b: b != a))
    return 1 << a, 1 << b


def _adjoint_gap(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs))


@pytest.mark.parametrize("M", (4, 8, 16, 32))
@pytest.mark.parametrize("mode", MODES)
@ADJOINT
@given(data=st.data())
def test_relabeled_sensing_is_adjoint(M, mode, data):
    H, W = data.draw(_shapes(M))
    seed = data.draw(st.integers(0, 2**32 - 1))
    order = ig._stack_positions(M, H // M, W // M).ravel(order="F")
    op = sn.MeasurementOperator(H * W, 0.4, seed, mode).in_order(order)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xA1]))
    u = rng.standard_normal(H * W)
    y = rng.standard_normal(op.m)
    assert _adjoint_gap(float(op.forward(u) @ y), float(u @ op.adjoint(y))) < 1e-10


@pytest.mark.parametrize("family, M, mode", GRID)
@ADJOINT
@given(data=st.data())
def test_stacked_block_operator_is_adjoint(family, M, mode, data):
    # L = [F; Phi_q; W D] on block stacks, as ``solve`` applies it
    H, W = data.draw(_shapes(M))
    rho = data.draw(st.sampled_from((0.0, 1.0)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    frame = fr.build_frame(family, M)
    r, c = H // M, W // M
    order = ig._stack_positions(M, r, c).ravel(order="F")
    meas = sn.MeasurementOperator(H * W, 0.4, seed, mode).in_order(order)
    diff = sv.DiffOperator((H, W), M)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xA2]))
    u = rng.standard_normal((r * c, M, M))
    parts = [rng.standard_normal((r * c, frame.n_out)), rng.standard_normal(meas.m),
             rng.standard_normal(diff.apply(u).shape)]
    lhs = float(np.sum(frame.analyze_blocks(u) * parts[0])) + float(meas.forward(u.ravel()) @ parts[1])
    back = frame.adjoint_blocks(parts[0]) + meas.adjoint(parts[1]).reshape(u.shape)
    if rho > 0:
        lhs += float(np.sum(diff.apply(u) * parts[2]))
        back += diff.adjoint(parts[2])
    assert _adjoint_gap(lhs, float(np.sum(u * back))) < 1e-10


@PROPERTY
@given(st.one_of(
    st.binary(max_size=64),
    # a plausible header followed by arbitrary bytes reaches the payload checks
    st.tuples(st.sampled_from((b"P5", b"P2", b"P6")), st.integers(-2, 6), st.integers(-2, 6),
              st.sampled_from((255, 0, 65535)), st.binary(max_size=64))
    .map(lambda t: b"%s %d %d %d\n" % t[:4] + t[4]),
    st.lists(st.integers(-1, 256) | st.just(10**400), min_size=3, max_size=5)
    .map(lambda v: b"P2 2 2 255\n" + b" ".join(b"%d" % i for i in v)),
))
def test_read_pgm_raises_value_error_or_reads_unit_range(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    path.write_bytes(data)
    try:
        img = ig.read_pgm(path)
    except ValueError:
        return
    assert img.ndim == 2 and img.size > 0
    assert img.min() >= 0.0 and img.max() <= 1.0


_FIELDS = ("magic", "height", "width", "n", "rate", "seed", "seed_noise", "sigma", "mode", "m")
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from((0.0, 0.4, 1.0, 1.5))
_VALUES = {
    "magic": st.binary(min_size=8, max_size=8),
    "height": st.integers(0, 2**32 - 1) | st.integers(0, 64),
    "width": st.integers(0, 2**32 - 1) | st.integers(0, 64),
    "n": st.integers(0, 2**64 - 1) | st.integers(0, 4096),
    "rate": _FLOATS,
    "seed": st.integers(0, 2**64 - 1),
    "seed_noise": st.integers(0, 2**64 - 1),
    "sigma": _FLOATS,
    "mode": st.integers(0, 255),
    "m": st.integers(0, 2**64 - 1) | st.integers(0, 4096),
}


@PROPERTY
@given(st.data())
def test_mutated_header_loads_or_exits_3(tmp_path_factory, capsys, data):
    tmp = tmp_path_factory.mktemp("obs")
    img = ig.block_mosaic(16, seed=0)
    obs = sn.sense_image(img, 0.5, 0.1, seed=3)
    good = tmp / "good.bin"
    sn.save_observation(obs, good)
    raw = good.read_bytes()
    head = list(sn._HEADER.unpack(raw[: sn._HEADER.size]))
    for field in data.draw(st.sets(st.sampled_from(_FIELDS), min_size=1, max_size=3)):
        head[_FIELDS.index(field)] = data.draw(_VALUES[field], label=field)
    bad = tmp / "bad.bin"
    bad.write_bytes(sn._HEADER.pack(*head) + raw[sn._HEADER.size:])
    try:
        sn.load_observation(bad)
    except ValueError:
        code = cli.main(["recover", "--obs", str(bad), "--family", "rdadcf", "--size", "8",
                         "--out", str(tmp / "x.pgm")])
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# solves of random problems: every family and block size the shapes allow,
# square and non-square images up to 64 x 64, both sensing and both fidelity
# modes, with and without the seam term

SOLVE_GRID = [(family, M) for family in fr.FRAME_FAMILIES for M in (2, 4, 8, 32)
              if M >= 4 or family != "rdadcf"]
SETUPS = list(itertools.product(MODES, (sv.FIDELITY_L2BALL, sv.FIDELITY_EQUALITY),
                                (0.0, 1.0), (0.05, 1.0)))
SOLVE = settings(PROPERTY, max_examples=5)


def _finite(values):
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


@pytest.mark.parametrize("family, M", SOLVE_GRID)
@SOLVE
@given(data=st.data())
def test_solve_of_random_problem(family, M, data):
    frame = fr.build_frame(family, M)
    low = M.bit_length() - 1
    H, W = (1 << data.draw(st.integers(low, 6)) for _ in range(2))
    # derandomized draws repeat from one frame to the next, so each frame
    # starts the (mode, fidelity, rho, rate) setups at its own place
    k = SOLVE_GRID.index((family, M)) % len(SETUPS)
    mode, fidelity, rho, rate = data.draw(st.sampled_from(SETUPS[k:] + SETUPS[:k]))
    sigma = data.draw(st.sampled_from((0.0, 0.1)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    img = np.random.Generator(np.random.Philox(key=[seed, 0xA3])).random((H, W))
    if rate * H * W < 0.5:
        # fewer than one measurement rounds to none
        with pytest.raises(ValueError, match="no measurements"):
            sn.sense_image(img, rate, sigma, seed, mode=mode)
        return
    obs = sn.sense_image(img, rate, sigma, seed, mode=mode)
    prob = sv.ProblemSpec(frame=frame, observation=obs, rho=rho,
                          fidelity_mode=fidelity)
    config = sv.SolverConfig(max_iters=20, stop_tol=0.0)
    x, rep = sv.solve(prob, config, truth=img)
    assert x.shape == (H, W) and x.min() >= 0.0 and x.max() <= 1.0
    assert rep.iterations == 20
    assert _finite(rep.residuals) and _finite(rep.psnr_history)
    assert _finite([rep.op_norm_sq, rep.epsilon, rep.final_psnr])
    terms = sv.objective_terms(prob, x)
    assert _finite(list(terms.values())) and terms["box_violation"] == 0.0
    again, rep_again = sv.solve(prob, config, truth=img)
    assert again.tobytes() == x.tobytes()
    assert rep_again.residuals.tobytes() == rep.residuals.tobytes()
    assert rep_again.psnr_history.tobytes() == rep.psnr_history.tobytes()
    assert sv.objective_terms(prob, again) == terms

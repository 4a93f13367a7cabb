"""Unit tests for the measurement kernels, operators, and observation I/O."""

import warnings

import numpy as np
import pytest

from dirframes import backend, sensing

import oracles


def _dense_hadamard(n):
    # Sylvester recursion, unnormalized
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def _dense_noiselet(n):
    # Kronecker power of the unitary butterfly stage
    W = np.array([[0.5 - 0.5j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 - 0.5j]])
    N = np.array([[1.0 + 0.0j]])
    while N.shape[0] < n:
        N = np.kron(W, N)
    return N


# ---------------------------------------------------------------------------
# kernels against dense oracles


# every value of log2(n) mod 4, so the radix-16 kernel's leftover group is covered
@pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
def test_fwht_matches_dense(n):
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAD0]))
    x = rng.standard_normal(n)
    np.testing.assert_allclose(backend.fwht(x), _dense_hadamard(n) @ x, atol=1e-10)


@pytest.mark.parametrize("n", (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
def test_noiselet_matches_dense(n):
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAD1]))
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    N = _dense_noiselet(n)
    np.testing.assert_allclose(backend.noiselet(z), N @ z, atol=1e-12)
    np.testing.assert_allclose(backend.noiselet_adjoint(z), N.conj().T @ z, atol=1e-12)


def test_kernels_accept_strided_input():
    n = 512
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAD3]))
    x = rng.standard_normal(3 * n)
    z = x + 1j * rng.standard_normal(3 * n)
    xs, zs = x[::3], z[1::3]
    assert not xs.flags.c_contiguous and not zs.flags.c_contiguous
    before = z.copy()
    N = _dense_noiselet(n)
    np.testing.assert_allclose(backend.fwht(xs), _dense_hadamard(n) @ xs, atol=1e-10)
    np.testing.assert_allclose(backend.noiselet(zs), N @ zs, atol=1e-12)
    np.testing.assert_allclose(backend.noiselet_adjoint(zs), N.conj().T @ zs, atol=1e-12)
    np.testing.assert_array_equal(z, before)


def test_noiselet_unitary_round_trip():
    rng = np.random.Generator(np.random.Philox(key=[9, 0xAD2]))
    z = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    w = backend.noiselet(z)
    np.testing.assert_allclose(np.linalg.norm(w), np.linalg.norm(z), rtol=1e-12)
    np.testing.assert_allclose(backend.noiselet_adjoint(w), z, atol=1e-12)


def test_noiselet_rows_conjugate_paired():
    n = 32
    N = _dense_noiselet(n)
    for k in range(n):
        np.testing.assert_allclose(N[k].conj(), N[n - 1 - k], atol=1e-13)


def test_kernels_reject_bad_length():
    for bad in (np.zeros(3), np.zeros(0), np.zeros(12)):
        with pytest.raises(ValueError):
            backend.fwht(bad)
        with pytest.raises(ValueError):
            backend.noiselet(bad)


def test_fwht_rejects_complex_input():
    # a float64 cast would keep only the real part, with a ComplexWarning
    z = np.ones(16) + 1j
    with pytest.raises(ValueError, match="real input"):
        backend.fwht(z)
    with pytest.raises(ValueError, match="real input"):
        backend.fwht(z, np.empty(16))
    with pytest.raises(ValueError, match="real input"):
        backend.fwht(list(z))


KERNELS = (("fwht", np.float64), ("noiselet", np.complex128),
           ("noiselet_adjoint", np.complex128))


@pytest.mark.parametrize("name, dtype", KERNELS, ids=[k for k, _ in KERNELS])
@pytest.mark.parametrize("n", [2**k for k in range(1, 19)])
def test_kernel_with_scratch_matches_call_without(name, dtype, n):
    # the same passes, written into the two given vectors: the same bytes,
    # and the call without a scratch leaves its input as it was
    rng = np.random.Generator(np.random.Philox(key=[n, 0xADE]))
    x = rng.standard_normal(n)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(n)
    before = x.copy()
    kernel = getattr(backend, name)
    fresh = kernel(x)
    assert x.tobytes() == before.tobytes()
    work, scratch = x.copy(), np.empty(n, dtype=dtype)
    held = kernel(work, scratch)
    assert held is work or held is scratch
    assert held.tobytes() == fresh.tobytes()


# the lengths of the stack rows that a noiselet-mode pass runs are n / 2
@pytest.mark.parametrize("h", [2**k for k in range(1, 19)])
def test_fwht_of_a_stack_transforms_each_row(h):
    # each row of a (2, h) call, with or without a scratch, is bit-equal to
    # the 1-D transform of that row
    rng = np.random.Generator(np.random.Philox(key=[h, 0xAE5]))
    x = rng.standard_normal((2, h))
    want = [backend.fwht(row).tobytes() for row in x]
    for got in (backend.fwht(x), backend.fwht(x.copy(), np.empty((2, h)))):
        assert got.shape == (2, h)
        assert [row.tobytes() for row in got] == want


_POWERS = {"fwht": backend._HADAMARD, "noiselet": backend._NOISELET,
           "noiselet_adjoint": backend._NOISELET_ADJOINT}


# every log2(n) mod 4, the split passes above 2^15, and the lengths that
# 1024^2 sensing runs: fwht at 2^20 and the half-length noiselets at 2^19
@pytest.mark.parametrize("name, dtype", KERNELS, ids=[k for k, _ in KERNELS])
@pytest.mark.parametrize("n", [2**k for k in range(1, 21)])
def test_kernel_bytes_match_rotating_write(name, dtype, n):
    # same groups in the same order: the bytes of the rotating-write
    # butterfly, with and without a scratch, on an input centred at 0 and
    # one offset from it.  The one exception is complex n = 32, whose first
    # pass is a 2-row zgemm that OpenBLAS rounds differently from the
    # rotating write's 2-column one (28-29 of 32 entries, by up to 1.9e-15)
    rng = np.random.Generator(np.random.Philox(key=[n, 0xADF]))
    x = rng.standard_normal(n)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(n)
    kernel = getattr(backend, name)
    for v in (x, x + 3.0):
        want = oracles.butterfly(v.astype(dtype), _POWERS[name], np.empty(n, dtype))
        for got in (kernel(v), kernel(v.astype(dtype), np.empty(n, dtype))):
            if n == 32 and dtype is np.complex128:
                np.testing.assert_allclose(got, want, rtol=0, atol=2e-15)
            else:
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, dtype", KERNELS, ids=[k for k, _ in KERNELS])
def test_kernel_rejects_bad_scratch(name, dtype):
    kernel = getattr(backend, name)
    x = np.zeros(16, dtype=dtype)
    other = np.complex128 if dtype is np.float64 else np.float64
    wide = np.zeros(32, dtype=dtype)
    for bad in (np.zeros(8, dtype=dtype), np.zeros((16, 1), dtype=dtype),
                np.zeros(16, dtype=other), wide[::2], x):
        with pytest.raises(ValueError, match="scratch"):
            kernel(x, bad)


# ---------------------------------------------------------------------------
# measurement operator


MODES = (sensing.SCRAMBLED_HADAMARD, sensing.COMPLEX_NOISELET)
# n = 2 leaves a length-1 inner noiselet; 8 and 512 are odd powers of two
OPERATOR_SIZES = (2, 8, 256, 512)


def _mode_and_size(sizes, kept):
    # the case at each test's original size keeps its original id, e.g. [complex-noiselet]
    return [pytest.param(mode, n, id=mode if n == kept else f"{mode}-{n}")
            for mode in MODES for n in sizes]


def _full(op):
    # the rate-1 operator of the same seed and mode: its sample indices are
    # arange(n) and its permutation and signs do not depend on the rate, so
    # its forward is the full n x n transform and its adjoint the inverse
    return sensing.MeasurementOperator(op.n, 1.0, op.seed, op.mode)


def _dense_matrix(op):
    # the full transform applied to the unit basis, one column per vector
    full = _full(op)
    return np.stack([full.forward(e) for e in np.eye(op.n)], axis=1)


def _dense_operator(op):
    # the real noiselet-mode transform built from the full n-point dense
    # noiselet, independent of the operator's half-length evaluation
    if op.mode == sensing.SCRAMBLED_HADAMARD:
        return _dense_matrix(op)
    first = _dense_noiselet(op.n)[: op.n // 2]
    out = np.empty((op.n, op.n))
    out[0::2] = np.sqrt(2.0) * first.real
    out[1::2] = np.sqrt(2.0) * first.imag
    return out


@pytest.mark.parametrize("mode, n", _mode_and_size(OPERATOR_SIZES, kept=256))
def test_operator_rows_orthonormal(mode, n):
    op = sensing.MeasurementOperator(n, rate=0.4, seed=3, mode=mode)
    D = _dense_matrix(op)
    G = D @ D.T
    np.testing.assert_allclose(G, np.eye(n), atol=1e-10)


@pytest.mark.parametrize("mode, n", _mode_and_size(OPERATOR_SIZES, kept=256))
def test_operator_forward_matches_dense(mode, n):
    op = sensing.MeasurementOperator(n, rate=0.3, seed=1, mode=mode)
    rng = np.random.Generator(np.random.Philox(key=[4, 0xAD5]))
    x = rng.standard_normal(n)
    sub = _dense_operator(op)[op.sample_indices]
    np.testing.assert_allclose(op.forward(x), sub @ x, atol=1e-12)
    y = rng.standard_normal(op.m)
    np.testing.assert_allclose(op.adjoint(y), sub.T @ y, atol=1e-12)


@pytest.mark.parametrize("mode, n", _mode_and_size(OPERATOR_SIZES + (1024,), kept=1024))
def test_operator_adjoint_identity(mode, n):
    op = sensing.MeasurementOperator(n, rate=0.5, seed=7, mode=mode)
    rng = np.random.Generator(np.random.Philox(key=[5, 0xAD6]))
    x = rng.standard_normal(n)
    y = rng.standard_normal(op.m)
    np.testing.assert_allclose(
        float(op.forward(x) @ y), float(x @ op.adjoint(y)), rtol=1e-12
    )


def test_operator_full_transform_round_trip():
    rng = np.random.Generator(np.random.Philox(key=[6, 0xAD7]))
    x = rng.standard_normal(512)
    for mode in MODES:
        op = sensing.MeasurementOperator(512, rate=1.0, seed=2, mode=mode)
        np.testing.assert_allclose(op.adjoint(op.forward(x)), x, atol=1e-12,
                                   err_msg=mode)


@pytest.mark.parametrize("mode, n", _mode_and_size(OPERATOR_SIZES + (2**14,), kept=512))
def test_operator_in_order_is_gather_then_operator(mode, n):
    op = sensing.MeasurementOperator(n, rate=0.4, seed=13, mode=mode)
    rng = np.random.Generator(np.random.Philox(key=[n, 0xADC]))
    q = rng.permutation(n)
    relabeled = op.in_order(q)
    u = rng.standard_normal(n)
    y = rng.standard_normal(op.m)
    # bit for bit: the composite gather changes no arithmetic
    assert relabeled.forward(u).tobytes() == op.forward(u[q]).tobytes()
    back = relabeled.adjoint(y)
    assert back[q].tobytes() == op.adjoint(y).tobytes()
    full = _full(op)
    full_relabeled = full.in_order(q)
    assert full_relabeled.forward(u).tobytes() == full.forward(u[q]).tobytes()
    assert full_relabeled.adjoint(u)[q].tobytes() == full.adjoint(u).tobytes()
    # relabeling composes, and the identity order changes nothing
    p = rng.permutation(n)
    assert relabeled.in_order(p).forward(u).tobytes() == op.forward(u[p][q]).tobytes()
    assert op.in_order(np.arange(n)).forward(u).tobytes() == op.forward(u).tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_operator_rejects_complex_input(mode):
    # both directions are real maps; a float64 cast would drop the imaginary part
    op = sensing.MeasurementOperator(16, rate=0.5, seed=1, mode=mode)
    with pytest.raises(ValueError, match="real"):
        op.forward(np.ones(op.n) + 1j)
    with pytest.raises(ValueError, match="real"):
        op.adjoint(np.ones(op.m, dtype=np.complex128))


def test_operator_rejects_length_past_ceiling():
    # checked before anything n-sized is built
    with pytest.raises(ValueError, match="exceeds the limit"):
        sensing.MeasurementOperator(2 * sensing.MAX_SIGNAL_LENGTH, rate=1e-6, seed=1)


def test_operator_in_order_rejects_non_permutation():
    op = sensing.MeasurementOperator(16, rate=0.5, seed=1)
    huge = np.arange(16)
    huge[3] = 2**40  # rejected before bincount could allocate 8 TiB for it
    for q in (np.zeros(16, int), np.arange(8), np.arange(16.0), np.arange(1, 17),
              np.arange(-1, 15), huge):
        with pytest.raises(ValueError):
            op.in_order(q)


# the noiselet mode runs the real butterfly, not the complex definition, so
# it is checked to NOISELET_TOL (worst seen: 2.7e-15 at n = 2^16); 512 and
# 2048 are odd powers of two, whose butterfly ends in the 45-degree turn
NOISELET_TOL = 1e-14


@pytest.mark.parametrize("mode, n", _mode_and_size((512, 1024, 2048), kept=1024))
def test_operator_matches_seeded_definition(mode, n):
    # forward against the operator's definition from its Philox streams:
    # sign flip, then permutation, then the scaled fwht, bit for bit; or the
    # half-length noiselet of a x0 + b x1; then the sampled rows
    op = sensing.MeasurementOperator(n, rate=0.3, seed=21, mode=mode)
    x = np.random.Generator(np.random.Philox(key=[n, 0xADD])).standard_normal(n)
    if mode == sensing.SCRAMBLED_HADAMARD:
        perm = np.random.Generator(np.random.Philox(key=[21, 1])).permutation(n)
        signs = np.where(np.random.Generator(np.random.Philox(key=[21, 2])).random(n) < 0.5,
                         -1.0, 1.0)
        full = backend.fwht((x * signs)[perm]) * (1.0 / np.sqrt(n))
        assert op.forward(x).tobytes() == full[op.sample_indices].tobytes()
    else:
        a, b = 0.5 - 0.5j, 0.5 + 0.5j
        full = np.sqrt(2.0) * backend.noiselet(a * x[: n // 2] + b * x[n // 2:]).view(np.float64)
        np.testing.assert_allclose(op.forward(x), full[op.sample_indices],
                                   rtol=0, atol=NOISELET_TOL)


def _check_noiselet_adjoint(n):
    # the adjoint against its definition: the measurements embedded at the
    # sampled rows, read as pairs w = z[0::2] + i z[1::2], give
    # sqrt(2) * [Re(b u); Re(a u)] with u = N_h^H w
    op = sensing.MeasurementOperator(n, rate=0.3, seed=21, mode=sensing.COMPLEX_NOISELET)
    y = np.random.Generator(np.random.Philox(key=[n, 0xADE])).standard_normal(op.m)
    z = np.zeros(n)
    z[op.sample_indices] = y
    u = backend.noiselet_adjoint(z[0::2] + 1j * z[1::2])
    a, b = 0.5 - 0.5j, 0.5 + 0.5j
    want = np.sqrt(2.0) * np.concatenate(((b * u).real, (a * u).real))
    np.testing.assert_allclose(op.adjoint(y), want, rtol=0, atol=NOISELET_TOL)


def test_noiselet_adjoint_matches_definition():
    _check_noiselet_adjoint(1024)


@pytest.mark.parametrize("n", (512, 2048))
def test_noiselet_adjoint_matches_definition_at_odd_log2(n):
    _check_noiselet_adjoint(n)


@pytest.mark.parametrize("h", [2**k for k in range(1, 16)])
def test_noiselet_is_a_hadamard_between_diagonals(h):
    # N_h = a^k D H_h D with D = diag(i^popcount(j)) and k = log2 h, since
    # the stage [[a, b], [b, a]] is a diag(1, i) H_2 diag(1, i) (b = i a):
    # the identity that lets the noiselet mode run the real butterfly
    rng = np.random.Generator(np.random.Philox(key=[h, 0xAE4]))
    c = rng.standard_normal(h) + 1j * rng.standard_normal(h)
    d = np.array([1, 1j, -1, -1j])[np.bitwise_count(np.arange(h)) % 4]
    dc = d * c
    hdc = backend.fwht(dc.real) + 1j * backend.fwht(dc.imag)
    want = (0.5 - 0.5j) ** (h.bit_length() - 1) * d * hdc
    np.testing.assert_allclose(backend.noiselet(c), want, rtol=0, atol=NOISELET_TOL)


def test_operator_measurement_count():
    op = sensing.MeasurementOperator(1024, rate=0.3, seed=0)
    assert op.m == round(0.3 * 1024)
    assert op.sample_indices.shape == (op.m,)
    assert len(np.unique(op.sample_indices)) == op.m


def test_operator_seed_determinism():
    a = sensing.MeasurementOperator(256, 0.5, seed=11)
    b = sensing.MeasurementOperator(256, 0.5, seed=11)
    c = sensing.MeasurementOperator(256, 0.5, seed=12)
    np.testing.assert_array_equal(a.sample_indices, b.sample_indices)
    assert not np.array_equal(a.sample_indices, c.sample_indices)


@pytest.mark.parametrize("mode", MODES)
def test_seeds_of_two_to_the_63_or_more_keep_their_streams(mode):
    # the Philox key is a uint64 pair, so a seed of 2^63 or more is not
    # rounded through float64 onto a lower seed's streams, with a cast warning
    x = np.random.Generator(np.random.Philox(key=[256, 0xADD])).standard_normal(256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, lower in ((2**64 - 1, 0), (2**63 + 1, 2**63)):
            a = sensing.MeasurementOperator(256, 0.5, seed=seed, mode=mode)
            b = sensing.MeasurementOperator(256, 0.5, seed=lower, mode=mode)
            assert a.forward(x).tobytes() != b.forward(x).tobytes()
            assert not np.array_equal(a.sample_indices, b.sample_indices)
            noise = [sensing.add_noise(np.zeros(16), 1.0, s) for s in (seed, lower)]
            assert noise[0].tobytes() != noise[1].tobytes()


# ---------------------------------------------------------------------------
# sensing, noise, container I/O


def test_sense_image_noise_statistics():
    rng = np.random.Generator(np.random.Philox(key=[8, 0xAD8]))
    img = rng.random((64, 64))
    obs = sensing.sense_image(img, 0.5, sigma=0.1, seed=4)
    clean = obs.operator().forward(img.reshape(-1, order="F"))
    noise = obs.y - clean
    assert abs(float(np.std(noise)) - 0.1) < 0.01
    # determinism: same seeds give the same bytes
    again = sensing.sense_image(img, 0.5, sigma=0.1, seed=4)
    np.testing.assert_array_equal(obs.y, again.y)


def test_sense_image_noiseless():
    img = np.linspace(0, 1, 256).reshape(16, 16)
    obs = sensing.sense_image(img, 1.0, sigma=0.0, seed=5)
    est = sensing.pseudo_inverse_estimate(obs)
    np.testing.assert_allclose(est, img, atol=1e-10)


def test_pseudo_inverse_is_least_norm():
    rng = np.random.Generator(np.random.Philox(key=[10, 0xAD9]))
    img = rng.random((16, 16))
    obs = sensing.sense_image(img, 0.5, sigma=0.0, seed=6)
    est = sensing.pseudo_inverse_estimate(obs)
    # consistency: re-measuring the estimate reproduces the observation
    back = obs.operator().forward(est.reshape(-1, order="F"))
    np.testing.assert_allclose(back, obs.y, atol=1e-10)


def test_observation_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=[11, 0xADA]))
    img = rng.random((32, 32))
    obs = sensing.sense_image(img, 0.4, sigma=0.05, seed=7, mode=sensing.COMPLEX_NOISELET)
    path = tmp_path / "obs.bin"
    sensing.save_observation(obs, path)
    back = sensing.load_observation(path)
    np.testing.assert_array_equal(back.y, obs.y)
    assert (back.height, back.width) == (32, 32)
    assert back.rate == obs.rate and back.seed == obs.seed
    assert back.sigma == obs.sigma and back.mode == obs.mode
    assert back.seed_noise == obs.seed_noise


def test_load_observation_rejects_corruption(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=[12, 0xADB]))
    img = rng.random((16, 16))
    obs = sensing.sense_image(img, 0.5, sigma=0.0, seed=8)
    path = tmp_path / "obs.bin"
    sensing.save_observation(obs, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        sensing.load_observation(bad)


def test_sense_image_argument_checks():
    img = np.zeros((16, 16))
    with pytest.raises(ValueError):
        sensing.sense_image(img, 0.0, sigma=0.0, seed=0)
    with pytest.raises(ValueError):
        sensing.sense_image(img, 1.5, sigma=0.0, seed=0)
    with pytest.raises(ValueError):
        sensing.sense_image(img, 0.001, sigma=0.0, seed=0)   # m = 0
    with pytest.raises(ValueError):
        sensing.sense_image(img, 0.5, sigma=0.0, seed=0, mode="fourier")
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            sensing.sense_image(img, 0.5, sigma=sigma, seed=0)


def test_sense_image_checks_noise_seed_range():
    # the noise seed is stored as a uint64, like the operator's seed
    img = np.zeros((16, 16))
    for seed_noise in (-1, 2**64):
        with pytest.raises(ValueError, match="seed_noise"):
            sensing.sense_image(img, 0.5, sigma=0.1, seed=0, seed_noise=seed_noise)
    for seed_noise in (0, 2**64 - 1):
        obs = sensing.sense_image(img, 0.5, sigma=0.1, seed=0, seed_noise=seed_noise)
        assert obs.seed_noise == seed_noise


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_add_noise_checks_seed_range(sigma):
    # checked before the sigma = 0 shortcut, so a bad seed fails at any sigma
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must fit in uint64"):
            sensing.add_noise(np.zeros(4), sigma, seed)
    for seed in (0, 2**64 - 1):
        assert sensing.add_noise(np.zeros(4), sigma, seed).shape == (4,)


# ---------------------------------------------------------------------------
# the operator's held workspace


# 2^16 runs the fixed-order kernel's split passes, whose strided views
# numpy would copy silently if it could not hand them to BLAS
@pytest.mark.parametrize("mode, n", _mode_and_size((2**14, 2**16), kept=2**14))
def test_operator_calls_allocate_only_their_result(mode, n):
    # each pass runs in the operator's workspace: once warm, forward
    # allocates its m measurements and adjoint its n values, and little else
    tracemalloc = pytest.importorskip("tracemalloc")
    op = sensing.MeasurementOperator(n, rate=0.4, seed=3, mode=mode)
    op = op.in_order(np.random.Generator(np.random.Philox(key=[n, 0xAE0])).permutation(n))
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAE1]))
    x = rng.standard_normal(n)
    y = rng.standard_normal(op.m)
    op.forward(x)
    op.adjoint(y)
    tracemalloc.start()
    try:
        for call, arg, result in ((op.forward, x, op.m), (op.adjoint, y, n)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call(arg)
            peak = tracemalloc.get_traced_memory()[1] - base
            del out
            assert peak <= 8 * result + 4096, (call.__name__, peak, 8 * result)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", MODES)
def test_operator_results_do_not_alias(mode):
    # every result is a fresh array, never a view of the workspace that the
    # next call overwrites
    n = 256
    op = sensing.MeasurementOperator(n, rate=0.5, seed=4, mode=mode)
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAE2]))
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    y, w = rng.standard_normal(op.m), rng.standard_normal(op.m)
    full = _full(op)
    for call, first, second in ((full.forward, u, v), (full.adjoint, u, v),
                                (op.forward, u, v), (op.adjoint, y, w)):
        a = call(first)
        kept = a.copy()
        b = call(second)
        assert not np.shares_memory(a, b), call.__name__
        assert not np.shares_memory(a, call.__self__._work), call.__name__
        assert a.tobytes() == kept.tobytes(), call.__name__


@pytest.mark.parametrize("mode", MODES)
def test_relabeled_copy_has_its_own_workspace(mode):
    # calls alternating between an operator and its in_order copy give the
    # bytes that each gives when called alone
    n = 512
    op = sensing.MeasurementOperator(n, rate=0.4, seed=5, mode=mode)
    rng = np.random.Generator(np.random.Philox(key=[n, 0xAE3]))
    q = rng.permutation(n)
    relabeled = op.in_order(q)
    full = _full(op)
    pairs = ((op, full), (relabeled, full.in_order(q)))
    u = rng.standard_normal((3, n))
    y = rng.standard_normal((3, op.m))

    def calls(pair, i):
        o, f = pair
        return [o.forward(u[i]), o.adjoint(y[i]), f.forward(u[i]), f.adjoint(u[i])]

    alone = [calls(pair, i) for pair in pairs for i in range(3)]
    interleaved = [[], []]
    for i in range(3):
        for side, pair in enumerate(pairs):
            interleaved[side].append(calls(pair, i))
    for want, got in zip(alone, interleaved[0] + interleaved[1]):
        assert [a.tobytes() for a in want] == [a.tobytes() for a in got]

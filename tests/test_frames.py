"""Unit tests for the block frame operators."""

import numpy as np
import pytest

from dirframes import frames as fr
from dirframes import transforms as tf

TWO_BRANCH = ("dadcf", "rdadcf")


def _rand_blocks(M, count, key):
    rng = np.random.Generator(np.random.Philox(key=[key, 0xF4A3]))
    return rng.standard_normal((count, M, M))


# ---------------------------------------------------------------------------
# tightness, shapes, adjointness


# the pyramid is exactly invertible but deliberately not tight (its synthesis
# is a left inverse, not the transpose), so it is excluded here
TIGHT_FAMILIES = ("dadcf", "rdadcf", "dct", "dft", "dht")


@pytest.mark.parametrize("family", TIGHT_FAMILIES)
@pytest.mark.parametrize("M", (4, 8, 16))
def test_parseval_residual(family, M):
    op = fr.build_frame(family, M)
    assert op.parseval_residual() < 1e-10


@pytest.mark.parametrize("family, M, n_out", [
    ("dadcf", 8, 128),
    ("rdadcf", 8, 128),
    ("pyramid", 8, 129),
    ("dct", 8, 64),
    ("dft", 8, 128),
    ("dadcf", 4, 32),
    ("rdadcf", 4, 32),
    ("pyramid", 4, 33),
])
def test_output_counts(family, M, n_out):
    op = fr.build_frame(family, M)
    assert op.n_out == n_out
    assert op.analysis.shape == (n_out, M * M)
    assert len(op.subbands) == n_out
    # the methods take stacks only: a single block or coefficient vector
    # is refused
    with pytest.raises(ValueError):
        op.analyze_blocks(np.zeros((M, M)))
    for method in (op.adjoint_blocks, op.synthesize_blocks):
        with pytest.raises(ValueError):
            method(np.zeros(n_out))


@pytest.mark.parametrize("family, M, directional", [
    ("dadcf", 8, 98),     # 2 (M-1)^2
    ("rdadcf", 8, 72),    # 2 (M-2)^2
    ("dadcf", 4, 18),
    ("rdadcf", 4, 8),
])
def test_directional_output_count(family, M, directional):
    op = fr.build_frame(family, M)
    mixed = [s for s in op.subbands if s.branch == "mixed"]
    assert len(mixed) == directional
    orients = {s.orientation for s in mixed}
    assert orients == {-1, 1}


# every block size the benchmark solves; the M = 8 cases keep the bare
# family id
FAMILY_SIZES = [
    pytest.param(family, M, id=family if M == 8 else f"{family}-{M}")
    for family in fr.FRAME_FAMILIES
    for M in (4, 8, 16, 32)
]


@pytest.mark.parametrize("family, M", FAMILY_SIZES)
def test_adjoint_identity(family, M):
    op = fr.build_frame(family, M)
    x = _rand_blocks(M, 5, 1)
    z = np.random.Generator(np.random.Philox(key=[2, 0xF4A3])).standard_normal(
        (5, op.n_out)
    )
    lhs = float(np.sum(op.analyze_blocks(x) * z))
    rhs = float(np.sum(x * op.adjoint_blocks(z)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


@pytest.mark.parametrize("family, M", FAMILY_SIZES)
def test_public_apply_equals_separable(family, M):
    # M <= 16 applies the cached matrix, larger blocks the separable hooks;
    # at M = 32 no dense matrix may be built (8 MB to 17 MB per frame)
    op = fr.build_frame(family, M)
    x = _rand_blocks(M, 6, 4)
    z = np.random.Generator(np.random.Philox(key=[5, 0xF4A3])).standard_normal(
        (6, op.n_out)
    )
    np.testing.assert_allclose(op.analyze_blocks(x), op._analyze(x), rtol=0, atol=1e-12)
    np.testing.assert_allclose(op.adjoint_blocks(z), op._adjoint(z), rtol=0, atol=1e-12)
    if M > 16:
        assert op._analysis is None and op._gemm is None
    else:
        assert op._gemm is not None


# synthesis is the pseudo-inverse: the round trip at every benchmark size;
# equality with numpy's pseudo-inverse of the analysis matrix at M in {4, 8};
# and, where the product applies (M <= 16), the round trip with every
# family's separable adjoint hook refused
SYNTHESIS_CASES = (
    [pytest.param(*case.values, "round-trip", id=case.id) for case in FAMILY_SIZES]
    + [pytest.param(family, M, "pinv", id=f"{family}-{M}-pinv")
       for family in fr.FRAME_FAMILIES for M in (4, 8)]
    + [pytest.param(family, M, "no-hooks", id=f"{family}-{M}-no-hooks")
       for family in fr.FRAME_FAMILIES for M in (4, 8, 16)]
)


@pytest.mark.parametrize("family, M, check", SYNTHESIS_CASES)
def test_synthesis_inverts_analysis(family, M, check, monkeypatch):
    op = fr.build_frame(family, M)
    if check == "pinv":
        c = np.random.Generator(np.random.Philox(key=[M, 0xF4A5])).standard_normal(
            (7, op.n_out)
        )
        # the analysis matrix's columns are column-major block vectors
        got = op.synthesize_blocks(c).transpose(0, 2, 1).reshape(7, M * M)
        want = (np.linalg.pinv(op.analysis) @ c.T).T
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        return
    if check == "no-hooks":
        def refuse(self, coeffs):
            raise AssertionError("separable adjoint hook called")

        for cls in (fr.FrameOperator, *_subclasses(fr.FrameOperator)):
            if "_adjoint" in vars(cls):
                monkeypatch.setattr(cls, "_adjoint", refuse)
    x = _rand_blocks(M, 7, 3)
    back = op.synthesize_blocks(op.analyze_blocks(x))
    np.testing.assert_allclose(back, x, atol=1e-12)


def test_build_frame_rejects_unknown_family():
    with pytest.raises(ValueError):
        fr.build_frame("wavelet", 8)
    # the regularity-constrained sine transform needs M >= 4
    with pytest.raises(ValueError, match="rdadcf"):
        fr.build_frame("rdadcf", 2)


@pytest.mark.parametrize("family, kinds", [
    ("dadcf", (tf.DCT, tf.DST)),
    ("rdadcf", (tf.DCT, tf.RDST)),
    ("pyramid", (tf.DCT, tf.DST)),
    ("dct", (tf.DCT,)),
    ("dht", (tf.DHT,)),
    ("dft", (tf.DFT,)),
])
def test_frame_records_its_transforms(family, kinds):
    op = fr.build_frame(family, 8)
    assert tuple(t.kind for t in op.transforms) == kinds
    assert all(t.size == 8 for t in op.transforms)


@pytest.mark.parametrize("family, M", FAMILY_SIZES)
def test_out_gives_the_bytes_of_the_call_without_it(family, M):
    # stacks of one block, one chunk and one chunk more (a short last
    # chunk); the out's prior contents do not matter
    op = fr.build_frame(family, M)
    rng = np.random.Generator(np.random.Philox(key=[M, 0xF4A4]))
    for count in (1, op.chunk, op.chunk + 1):
        x = rng.standard_normal((count, M, M))
        z = rng.standard_normal((count, op.n_out))
        for method, arg in ((op.analyze_blocks, x), (op.adjoint_blocks, z)):
            want = method(arg)
            out = np.full(want.shape, np.nan)
            assert method(arg, out=out) is out
            assert out.tobytes() == want.tobytes(), (method.__name__, count)


@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_frame_methods_reject_complex_input(family):
    # a float64 cast would keep only the real part, with a ComplexWarning
    op = fr.build_frame(family, 8)
    x, z = _rand_blocks(8, 2, 7), np.ones((2, op.n_out))
    for method, arg in ((op.analyze_blocks, x), (op.adjoint_blocks, z),
                        (op.synthesize_blocks, z)):
        for bad in (arg + 1j, (arg + 0j).tolist()):
            with pytest.raises(ValueError, match="real"):
                method(bad)


@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_out_must_fit_and_stand_apart(family):
    op = fr.build_frame(family, 8)
    L, n_out = 3, op.n_out
    x, z = _rand_blocks(8, L, 6), np.ones((L, n_out))
    shared = np.zeros(L * (64 + n_out))
    for method, arg, shape in ((op.analyze_blocks, x, (L, n_out)),
                               (op.adjoint_blocks, z, (L, 8, 8))):
        size = int(np.prod(shape))
        bad = (np.empty(shape[1:]), np.empty((L + 1,) + shape[1:]),
               np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.complex128),
               np.empty(shape, order="F"), np.empty((2 * L,) + shape[1:])[::2],
               np.empty(size).tolist())
        for out in bad:
            with pytest.raises(ValueError, match="out"):
                method(arg, out=out)
        # an out over the input's own memory, by one entry or from its start
        inside = shared[:arg.size].reshape(arg.shape)
        inside[...] = arg
        with pytest.raises(ValueError, match="out"):
            method(inside, out=shared[arg.size - 1:][:size].reshape(shape))
        with pytest.raises(ValueError, match="out"):
            method(inside, out=shared[:size].reshape(shape))


# ---------------------------------------------------------------------------
# the tracing contract: the benchmark wraps the public methods on the base
# class, so no family may override them and building the dense matrix must
# not go through them

PUBLIC_METHODS = ("analyze_blocks", "adjoint_blocks", "synthesize_blocks")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_families_do_not_override_public_methods():
    classes = list(_subclasses(fr.FrameOperator))
    assert {type(fr.build_frame(f, 8)) for f in fr.FRAME_FAMILIES} <= set(classes)
    for cls in classes:
        assert not set(PUBLIC_METHODS) & set(vars(cls)), cls.__name__


@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_analysis_matrix_bypasses_public_methods(family, monkeypatch):
    def refuse(self, *args):
        raise AssertionError("public frame method called")

    for name in PUBLIC_METHODS:
        monkeypatch.setattr(fr.FrameOperator, name, refuse)
    op = fr.build_frame(family, 4)
    assert op.analysis.shape == (op.n_out, 16)


# ---------------------------------------------------------------------------
# atoms


def _expected_atom(family, M, s):
    # the atom of subband s worked out from the 1-D transform rows: the outer
    # product of row k_v (down the block) and row k_h (across it)
    if family == "pyramid":
        if s.branch == "lowpass":
            return np.full((M, M), 1.0 / M)
        a = _expected_atom("dadcf", M, s)
        return a - a.mean()
    if family == "dft":
        U = tf.build_dft(M).entries
        z = np.outer(U[s.k_v], U[s.k_h])
        return z.real if s.branch == "cos" else z.imag
    if family in ("dct", "dht"):
        F = (tf.build_dct if family == "dct" else tf.build_dht)(M).entries
        return np.outer(F[s.k_v], F[s.k_h])
    Fc = tf.build_dct(M).entries
    Fs = (tf.build_dst if family == "dadcf" else tf.build_rdst)(M).entries
    c = np.outer(Fc[s.k_v], Fc[s.k_h])
    sn = np.outer(Fs[s.k_v], Fs[s.k_h])
    if s.branch == "mixed":
        return c + s.orientation * sn
    return c if s.branch == "cos" else sn


@pytest.mark.parametrize("family, M", [pytest.param(f, 8, id=f) for f in TWO_BRANCH]
                         + [pytest.param(f, 4, id=f"{f}-4") for f in fr.FRAME_FAMILIES])
def test_atom_norms(family, M):
    # an atom is its analysis row, column-major, times the documented scale:
    # 2 for mixed outputs, M for the pyramid's lowpass, sqrt(2) for the other
    # outputs of the two-branch families and the pyramid, 1 for the
    # separable baselines; the two-branch atoms then have norm 1 or sqrt(2).
    # The scaled atom must also match the one built from the 1-D rows.
    op = fr.build_frame(family, M)
    for s in op.subbands:
        a = fr.atom(op, s.index)
        scale = 1.0
        if family in ("dadcf", "rdadcf", "pyramid"):
            scale = {"mixed": 2.0, "lowpass": M}.get(s.branch, np.sqrt(2.0))
        np.testing.assert_array_equal(a, op.analysis[s.index].reshape(M, M, order="F") * scale)
        np.testing.assert_allclose(a, _expected_atom(family, M, s), atol=1e-12)
        if family in TWO_BRANCH:
            norm = np.linalg.norm(a)
            want = np.sqrt(2.0) if s.branch == "mixed" else 1.0
            np.testing.assert_allclose(norm, want, atol=1e-12)


@pytest.mark.parametrize("M", (4, 8))
def test_mixed_atoms_match_cosine_closed_form(M):
    # every directional atom of the plain two-branch frame is the closed-form
    # oriented cosine wave
    op = fr.build_frame("dadcf", M)
    for s in op.subbands:
        if s.branch != "mixed":
            continue
        a = fr.atom(op, s.index)
        want = fr.directional_cosine_atom(M, s.k_v, s.k_h, s.orientation)
        np.testing.assert_allclose(a, want, atol=1e-12)


@pytest.mark.parametrize("M", (4, 8))
def test_rdadcf_even_pair_atoms_match_cosine_closed_form(M):
    # the redesigned frame keeps the pure sine rows at even indices, so its
    # even/even directional atoms still equal the oriented cosine wave
    op = fr.build_frame("rdadcf", M)
    for s in op.subbands:
        if s.branch != "mixed" or s.k_v % 2 or s.k_h % 2:
            continue
        a = fr.atom(op, s.index)
        want = fr.directional_cosine_atom(M, s.k_v, s.k_h, s.orientation)
        np.testing.assert_allclose(a, want, atol=1e-12)


@pytest.mark.parametrize("M", (4, 8))
def test_dht_pair_identity(M):
    # paired cas basis images combine into one-orientation waves:
    #   (B + B') / 2 = cos(phi_v - phi_h) / M,  (B - B') / 2 = sin(phi_v + phi_h) / M
    h = tf.build_dht(M).entries
    m = np.arange(M)
    for kv in range(M):
        for kh in range(M):
            kv2, kh2 = (M - kv) % M, (M - kh) % M
            B = np.outer(h[kv], h[kh])
            B2 = np.outer(h[kv2], h[kh2])
            pv = 2.0 * np.pi * kv * m / M
            ph = 2.0 * np.pi * kh * m / M
            cos_wave = np.cos(pv[:, None] - ph[None, :]) / M
            sin_wave = np.sin(pv[:, None] + ph[None, :]) / M
            np.testing.assert_allclose((B + B2) / 2.0, cos_wave, atol=1e-12)
            np.testing.assert_allclose((B - B2) / 2.0, sin_wave, atol=1e-12)


# ---------------------------------------------------------------------------
# spectral one-sidedness


def test_analyticity_ratio_real_pair_is_half():
    # a transform pair with identical rows has a perfectly two-sided spectrum
    row = tf.build_dct(8).entries[3]
    np.testing.assert_allclose(fr.analyticity_ratio(row, row), 0.5, atol=1e-9)


@pytest.mark.parametrize("family, M, worst", [
    ("dadcf", 8, 0.1158),
    ("rdadcf", 8, 0.1192),
    ("rdadcf", 4, 0.1415),
])
def test_directional_rows_are_one_sided(family, M, worst):
    op = fr.build_frame(family, M)
    p = 1 if family == "dadcf" else 2
    cos_rows, sin_rows = (t.entries for t in op.transforms)
    sidedness = []
    for k in range(p, M):
        r = fr.analyticity_ratio(cos_rows[k], sin_rows[k])
        sidedness.append(min(r, 1.0 - r))
    measured = max(sidedness)
    assert measured < 0.15
    np.testing.assert_allclose(measured, worst, atol=5e-3)


# ---------------------------------------------------------------------------
# pyramid specifics


def test_pyramid_exact_round_trip_many_blocks():
    op = fr.build_frame("pyramid", 8)
    x = _rand_blocks(8, 1000, 9)
    back = op.synthesize_blocks(op.analyze_blocks(x))
    np.testing.assert_allclose(back, x, atol=1e-10)


def test_pyramid_coefficient_count_256():
    # N=256, M=8: (N/M)^2 blocks, each 2 M^2 + 1 outputs
    op = fr.build_frame("pyramid", 8)
    blocks = (256 // 8) ** 2
    total = blocks * op.n_out
    assert total == 2 * 256**2 + (256 // 8) ** 2 == 132096


def test_pyramid_constant_block_hits_lowpass_only():
    op = fr.build_frame("pyramid", 8)
    co = op.analyze_blocks(np.ones((1, 8, 8)))[0]
    low = [s.index for s in op.subbands if s.branch == "lowpass"]
    assert len(low) == 1
    rest = np.delete(co, low[0])
    np.testing.assert_allclose(co[low[0]], 1.0, atol=1e-12)  # block mean
    np.testing.assert_allclose(rest, 0.0, atol=1e-10)


def test_rdadcf_constant_block_two_coefficients():
    # regularity: a flat block excites only the two lowpass rows
    op = fr.build_frame("rdadcf", 8)
    co = op.analyze_blocks(np.full((1, 8, 8), 0.7))[0]
    hot = np.flatnonzero(np.abs(co) > 1e-10)
    assert len(hot) == 2
    hot_bands = [op.subbands[i] for i in hot]
    assert all(s.k_v == 0 and s.k_h == 0 for s in hot_bands)


def test_dadcf_constant_block_leaks():
    # the plain sine branch has no flat row, so a constant block spreads
    op = fr.build_frame("dadcf", 8)
    co = op.analyze_blocks(np.full((1, 8, 8), 0.7))[0]
    hot = np.flatnonzero(np.abs(co) > 1e-10)
    assert len(hot) > 2

"""Unit tests for the 1-D transform builders and the odd-row redesign."""

import numpy as np
import pytest

from dirframes import transforms as tf

import oracles

SIZES = (4, 8, 16, 32)


# ---------------------------------------------------------------------------
# cosine / sine bases


@pytest.mark.parametrize("M", SIZES)
def test_dct_orthonormal(M):
    t = tf.build_dct(M)
    assert t.gram_residual() < 1e-12
    # first row is the flat lowpass row
    np.testing.assert_allclose(t.entries[0], np.full(M, np.sqrt(1.0 / M)), atol=1e-14)


def test_dct_entries_explicit():
    # spot values computed from the half-sample cosine definition
    t = tf.build_dct(4)
    np.testing.assert_allclose(t.entries[1, 0], np.sqrt(0.5) * np.cos(np.pi / 8), atol=1e-14)
    np.testing.assert_allclose(t.entries[2, 1], np.sqrt(0.5) * np.cos(3 * np.pi / 4), atol=1e-14)
    np.testing.assert_allclose(t.entries[3, 3], np.sqrt(0.5) * np.cos(21 * np.pi / 8), atol=1e-14)


@pytest.mark.parametrize("M", SIZES)
def test_dst_orthonormal_and_rows(M):
    t = tf.build_dst(M)
    assert t.gram_residual() < 1e-12
    n = np.arange(M)
    # row 0 alternates sign with constant magnitude
    np.testing.assert_allclose(t.entries[0], np.sqrt(1.0 / M) * (-1.0) ** n, atol=1e-14)
    for k in range(1, M):
        np.testing.assert_allclose(
            t.entries[k],
            np.sqrt(2.0 / M) * np.sin(np.pi * k * (n + 0.5) / M),
            atol=1e-13,
        )


def _dst_from_dct(dct):
    """The sine matrix from the cosine one by sign flips and a row map.

    Columns are negated at odd positions, then row k of the result is taken
    from row M-k of the sign-flipped DCT (row 0 from row 0): index negation
    modulo M.
    """
    M = dct.size
    signs = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    flipped = dct.entries * signs[None, :]
    rows = np.empty_like(flipped)
    rows[0] = flipped[0]
    for k in range(1, M):
        rows[k] = flipped[M - k]
    return tf.TransformMatrix(M, tf.DST, rows)


@pytest.mark.parametrize("M", SIZES)
def test_dst_from_dct_permutation(M):
    dct = tf.build_dct(M)
    dst = _dst_from_dct(dct)
    np.testing.assert_allclose(dst.entries, tf.build_dst(M).entries, atol=1e-12)


@pytest.mark.parametrize("M", SIZES)
def test_sine_row_dc_closed_form(M):
    # row-sum of the sine rows: sqrt(2/M)/sin(pi k / 2M) for odd k, 0 for even
    dst = tf.build_dst(M)
    ones = np.ones(M)
    for k in range(1, M):
        got = float(dst.entries[k] @ ones)
        if k % 2:
            want = np.sqrt(2.0 / M) / np.sin(np.pi * k / (2 * M))
        else:
            want = 0.0
        np.testing.assert_allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------------------
# modified sine matrix


@pytest.mark.parametrize("M", SIZES)
def test_modified_dst_constant_row_and_rank(M):
    S = tf.build_modified_dst(M)
    np.testing.assert_allclose(S[0], np.full(M, np.sqrt(1.0 / M)), atol=1e-14)
    sv = np.linalg.svd(S, compute_uv=False)
    assert sv[M - 2] > 1e-8 * sv[0]      # rank M-1 ...
    assert sv[M - 1] < 1e-10 * sv[0]     # ... exactly


def test_modified_dst_gram_fixture_m4():
    S = tf.build_modified_dst(4)
    G = S @ S.T
    np.testing.assert_allclose(abs(G[0, 1]), 0.9238795325112868, atol=5e-4)
    np.testing.assert_allclose(abs(G[0, 3]), 0.3826834323650896, atol=5e-4)
    np.testing.assert_allclose(G[0, 2], 0.0, atol=1e-12)


@pytest.mark.parametrize("M", SIZES)
def test_constant_row_lives_in_odd_sine_span(M):
    # the flat row's projections onto the odd sine rows carry all its energy
    S = tf.build_modified_dst(M)
    dst = tf.build_dst(M)
    total = sum(float(S[0] @ dst.entries[2 * l + 1]) ** 2 for l in range(M // 2))
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# redesigned sine transform


@pytest.mark.parametrize("M", SIZES)
def test_rdst_orthonormal_and_regular(M):
    t = tf.build_rdst(M)
    assert t.gram_residual() < 1e-10
    reg = t.entries @ np.ones(M)
    want = np.zeros(M)
    want[0] = np.sqrt(M)
    np.testing.assert_allclose(reg, want, atol=1e-10)


@pytest.mark.parametrize("M", SIZES)
def test_rdst_row_structure(M):
    t = tf.build_rdst(M)
    dst = tf.build_dst(M)
    n = np.arange(M)
    np.testing.assert_allclose(t.entries[0], np.full(M, np.sqrt(1.0 / M)), atol=1e-10)
    np.testing.assert_allclose(t.entries[1], np.sqrt(1.0 / M) * (-1.0) ** n, atol=1e-10)
    for l in range(1, M // 2):
        np.testing.assert_allclose(t.entries[2 * l], dst.entries[2 * l], atol=1e-10)


@pytest.mark.parametrize("M", SIZES)
def test_design_steps_order_and_null_vectors(M):
    steps = tf.rdst_design_steps(M)
    assert [s.row for s in steps] == [2 * k + 1 for k in range(M // 2)]
    n = np.arange(M)
    # the first null direction is the alternating-sign row
    np.testing.assert_allclose(
        steps[0].null_vector, np.sqrt(1.0 / M) * (-1.0) ** n, atol=1e-10
    )
    for s in steps:
        np.testing.assert_allclose(np.linalg.norm(s.null_vector), 1.0, atol=1e-12)
        # sign convention: first visible entry positive
        nz = np.flatnonzero(np.abs(s.null_vector) > 1e-8)
        assert s.null_vector[nz[0]] > 0
        # the installed row really annihilates the zeroed subspace
        np.testing.assert_allclose(s.zeroed @ s.null_vector, 0.0, atol=1e-10)


def test_rdst_deterministic():
    a = tf.build_rdst(8).entries
    b = tf.build_rdst(8).entries
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "M, max_offdiag", [(4, 0.448), (8, 0.388), (16, 0.374)]
)
def test_redesign_conditioning_bounds(M, max_offdiag):
    records = tf.redesign_conditioning(M)
    assert len(records) == M // 2
    worst = max(r["max_offdiag"] for r in records)
    assert worst <= 0.5 + 1e-9
    np.testing.assert_allclose(worst, max_offdiag, atol=5e-3)
    for r in records:
        assert r["min_updated_diag"] >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# mixing matrix and its rotation factorization


@pytest.mark.parametrize("M", (4, 8, 16))
def test_extract_gamma_orthogonal_rotation(M):
    gamma = tf.extract_gamma(tf.build_rdst(M), tf.build_dst(M))
    h = M // 2
    assert gamma.shape == (h, h)
    np.testing.assert_allclose(gamma @ gamma.T, np.eye(h), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(gamma), 1.0, atol=1e-10)


def test_extract_gamma_rejects_wrong_kinds():
    dct = tf.build_dct(8)
    dst = tf.build_dst(8)
    with pytest.raises(ValueError):
        tf.extract_gamma(dct, dst)


@pytest.mark.parametrize("M, count", [(4, 1), (8, 6), (16, 28)])
def test_givens_factor_count_and_compose(M, count):
    gamma = tf.extract_gamma(tf.build_rdst(M), tf.build_dst(M))
    cascade = tf.factor_givens(gamma)
    assert len(cascade.rotations) == count
    assert count == M * (M - 2) // 8
    np.testing.assert_allclose(oracles.compose(cascade), gamma, atol=1e-12)
    d = cascade.to_json_dict()
    assert d["size"] == M // 2 and len(d["rotations"]) == count


@pytest.mark.parametrize("M", (4, 8, 16))
def test_factor_givens_random_rotation(M):
    rng = np.random.Generator(np.random.Philox(key=[M, 0x61BE]))
    q, _ = np.linalg.qr(rng.standard_normal((M, M)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    cascade = tf.factor_givens(q)
    np.testing.assert_allclose(oracles.compose(cascade), q, atol=1e-10)


# ---------------------------------------------------------------------------
# other bases, CSV round trip, argument checking


def test_dft_unitary_and_dht_orthonormal():
    f = tf.build_dft(8)
    assert f.entries.dtype == np.complex128
    assert f.gram_residual() < 1e-12
    # -sin(0) is -0.0, and ``design`` writes the imaginary part's sign bits
    assert np.all(np.signbit(f.entries.imag[0])) and np.all(np.signbit(f.entries.imag[:, 0]))
    h = tf.build_dht(8)
    assert h.gram_residual() < 1e-12
    # cas rows: (cos + sin)(2 pi k n / M) / sqrt(M)
    k, n = 2, np.arange(8)
    ang = 2.0 * np.pi * k * n / 8
    np.testing.assert_allclose(
        h.entries[k], (np.cos(ang) + np.sin(ang)) / np.sqrt(8), atol=1e-13
    )


_T = 0.5


@pytest.mark.parametrize("kind, entries", [
    # every kind is checked, not only those of the builders
    ("custom", np.array([[1.0, 1e-6], [0.0, 1.0]])),
    # F F^T = I, but F F^H = I only for a unitary F
    ("dft", np.array([[np.cosh(_T), 1j * np.sinh(_T)], [-1j * np.sinh(_T), np.cosh(_T)]])),
], ids=["real", "complex"])
def test_transform_matrix_rejects_rows_that_are_not_orthonormal(kind, entries):
    with pytest.raises(ValueError, match=f"{kind} rows not orthonormal"):
        tf.TransformMatrix(2, kind, entries)


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=[0, 0xC54]))
    a = rng.standard_normal((5, 7))
    path = tmp_path / "m.csv"
    tf.matrix_to_csv(a, path)
    b = tf.matrix_from_csv(path)
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-15)


@pytest.mark.parametrize("bad", (0, 3, 6, -8))
def test_builders_reject_non_power_of_two(bad):
    for builder in (tf.build_dct, tf.build_dst, tf.build_modified_dst, tf.build_rdst):
        with pytest.raises(ValueError):
            builder(bad)

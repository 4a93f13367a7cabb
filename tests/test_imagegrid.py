"""Unit tests for image/block plumbing, PGM I/O, and test-image generators."""

import numpy as np
import pytest

from dirframes import imagegrid as ig


def _rand_image(h, w, key=0):
    rng = np.random.Generator(np.random.Philox(key=[key, 0x1347]))
    return rng.random((h, w))


# ---------------------------------------------------------------------------
# block views and vectorization


@pytest.mark.parametrize("h, w, M", [(16, 16, 4), (24, 40, 8), (8, 8, 8)])
def test_block_round_trip(h, w, M):
    img = _rand_image(h, w)
    grid = ig.to_blocks(img, M)
    assert grid.blocks.shape == (h // M * (w // M), M, M)
    np.testing.assert_array_equal(ig.from_blocks(grid), img)


def test_to_blocks_raster_order():
    img = np.arange(16.0).reshape(4, 4)
    grid = ig.to_blocks(img, 2)
    np.testing.assert_array_equal(grid.blocks[0], [[0, 1], [4, 5]])
    np.testing.assert_array_equal(grid.blocks[1], [[2, 3], [6, 7]])
    np.testing.assert_array_equal(grid.blocks[2], [[8, 9], [12, 13]])


def test_to_blocks_rejects_misaligned():
    with pytest.raises(ValueError):
        ig.to_blocks(_rand_image(10, 8), 4)


# ---------------------------------------------------------------------------
# psnr


def test_psnr_known_value():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.1)
    np.testing.assert_allclose(ig.psnr(a, b), 20.0, atol=1e-12)


def test_psnr_identical_caps():
    a = _rand_image(8, 8)
    assert ig.psnr(a, a) == ig.PSNR_CAP_DB == 300.0


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        ig.psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# generators


def test_zoneplate_values():
    z = ig.zoneplate(64)
    assert z.shape == (64, 64)
    assert z.min() >= 0.0 and z.max() <= 1.0
    np.testing.assert_allclose(z[0, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(
        z[3, 5], 0.5 * (1.0 + np.cos(np.pi * 34 / 64)), atol=1e-12
    )


def test_oriented_texture_basic():
    img = ig.oriented_texture(128, seed=0)
    assert img.shape == (128, 128)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert 0.29 <= img.mean() <= 0.36
    np.testing.assert_array_equal(img, ig.oriented_texture(128, seed=0))
    assert not np.array_equal(img, ig.oriented_texture(128, seed=1))
    with pytest.raises(ValueError):
        ig.oriented_texture(8)


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_block_mosaic_tiles_are_constant(seed):
    img = ig.block_mosaic(128, seed=seed)
    assert img.shape == (128, 128)
    assert 0.0 < img.min() and img.max() < 1.0
    grid = ig.to_blocks(img, 8)
    spread = grid.blocks.max(axis=(1, 2)) - grid.blocks.min(axis=(1, 2))
    np.testing.assert_allclose(spread, 0.0, atol=1e-15)
    # second moment sits where the raw least-norm baseline lands in its window
    assert 0.06 <= float(np.mean(img**2)) <= 0.13


def test_block_mosaic_deterministic_and_checked():
    np.testing.assert_array_equal(ig.block_mosaic(64, seed=7), ig.block_mosaic(64, seed=7))
    with pytest.raises(ValueError):
        ig.block_mosaic(60)
    with pytest.raises(ValueError):
        ig.block_mosaic(8, block=8)


# ---------------------------------------------------------------------------
# PGM I/O


def test_pgm_round_trip_exact_for_quantized(tmp_path):
    img = np.round(_rand_image(16, 24, key=2) * 255.0) / 255.0
    path = tmp_path / "img.pgm"
    ig.write_pgm(img, path)
    back = ig.read_pgm(path)
    np.testing.assert_allclose(back, img, atol=1e-12)


def test_pgm_quantization_error_bounded(tmp_path):
    img = _rand_image(16, 16, key=3)
    path = tmp_path / "img.pgm"
    ig.write_pgm(img, path)
    back = ig.read_pgm(path)
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12


def test_read_pgm_ascii_and_comments(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P2\n# comment line\n2 2\n255\n0 128\n255 64\n")
    img = ig.read_pgm(path)
    np.testing.assert_allclose(img, np.array([[0, 128], [255, 64]]) / 255.0)


def test_read_pgm_rejects_bad_files(tmp_path):
    bad_maxval = tmp_path / "m.pgm"
    bad_maxval.write_bytes(b"P5\n2 2\n65535\n\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        ig.read_pgm(bad_maxval)
    truncated = tmp_path / "t.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(ValueError):
        ig.read_pgm(truncated)
    magic = tmp_path / "x.pgm"
    magic.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError):
        ig.read_pgm(magic)


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(ValueError):
        ig.write_pgm(np.full((4, 4), 1.5), tmp_path / "bad.pgm")

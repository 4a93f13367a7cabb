"""Image/block plumbing: block stacks, PGM I/O, PSNR, test images.

Conventions: images are 2-D float64 arrays with values in [0, 1].  A block is
vectorized column-major (entry M*n + m holds pixel (m, n)); blocks are
concatenated in raster order (left-to-right, top-to-bottom).  The blocks of
an image are a plain (L, M, M) array, the stack: ``to_blocks`` cuts an image
into one and ``from_blocks`` puts it back, given the image's width.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "to_blocks",
    "from_blocks",
    "psnr",
    "PSNR_CAP_DB",
    "oriented_texture",
    "block_mosaic",
    "read_pgm",
    "write_pgm",
]

PSNR_CAP_DB = 300.0

_MOSAIC_TILE = 8  # side of the constant tiles of ``block_mosaic``


def _as_real(v, what):
    """``v`` as a float64 array; ``ValueError`` for complex values, whose
    imaginary part a float64 cast would drop with only a warning."""
    if np.iscomplexobj(v):
        raise ValueError(f"{what} must be real, got complex values")
    return np.asarray(v, dtype=np.float64)


def _check_image(img):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expected a non-empty 2-D image")
    return img


def to_blocks(img, M):
    """The raster-ordered (L, M, M) stack of the M x M blocks of an image."""
    img = _check_image(img)
    H, W = img.shape
    if H % M or W % M:
        raise ValueError(f"image {H}x{W} is not a multiple of block size {M}")
    r, c = H // M, W // M
    blocks = img.reshape(r, M, c, M).transpose(0, 2, 1, 3).reshape(r * c, M, M)
    return np.ascontiguousarray(blocks)


def from_blocks(blocks, width):
    """The image ``width`` pixels wide whose ``to_blocks`` stack is
    ``blocks``; ``ValueError`` when the stack does not tile such an image."""
    if blocks.ndim != 3 or not blocks.shape[1] == blocks.shape[2] > 0:
        raise ValueError(f"expected an (L, M, M) stack of blocks, got {blocks.shape}")
    L, M = blocks.shape[:2]
    c = width // M
    if width <= 0 or width % M or L % c:
        raise ValueError(f"{L} blocks of {M}x{M} do not tile an image {width} wide")
    r = L // c
    return blocks.reshape(r, c, M, M).transpose(0, 2, 1, 3).reshape(r * M, c * M)


@functools.lru_cache(maxsize=4)
def _stack_positions(M, rows, cols):
    """Image-shaped map of the block stack: entry (i, j) is the position of
    pixel (i, j) in the raveled (rows*cols, M, M) stack, so that
    ``blocks.reshape(-1)[_stack_positions(M, rows, cols)]`` is the image.

    Memoized for the last few layouts, since a solve and the scoring of
    its result ask for the same one several times, and read-only, since
    every caller gets the same array."""
    stack = np.arange(rows * cols * M * M).reshape(rows * cols, M, M)
    positions = from_blocks(stack, cols * M)
    positions.setflags(write=False)
    return positions


def psnr(reference, estimate):
    """10 log10(1 / MSE) for unit-range images, capped at 300 dB."""
    a = _check_image(reference)
    b = _check_image(estimate)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def oriented_texture(N, seed=0):
    """Synthetic cloth-like test image: oblique gratings in smooth regions.

    Four quadrant-ish regions carry sinusoidal gratings at distinct oblique
    angles and frequencies over a dark smooth background, loosely mimicking
    the striped textures of classic benchmark photographs.  Deterministic for
    a given seed; values in [0, 1], mean around 0.35.
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x7E57]))
    r = np.arange(N)[:, None].astype(np.float64)
    c = np.arange(N)[None, :].astype(np.float64)
    base = 0.32 + 0.06 * np.cos(2.0 * np.pi * r / N) * np.sin(2.0 * np.pi * c / N)
    img = base.copy()
    angles = np.deg2rad(np.array([32.0, 63.0, 117.0, 151.0]) + rng.uniform(-6, 6, 4))
    freqs = np.array([0.18, 0.24, 0.15, 0.21]) * (1.0 + rng.uniform(-0.1, 0.1, 4))
    phases = rng.uniform(0, 2 * np.pi, 4)
    centers = [(0.27, 0.27), (0.27, 0.73), (0.73, 0.27), (0.73, 0.73)]
    for (cr, cc), ang, f, ph in zip(centers, angles, freqs, phases):
        u = np.cos(ang) * c + np.sin(ang) * r
        stripe = np.cos(2.0 * np.pi * f * u + ph)
        d2 = ((r / N - cr) ** 2 + (c / N - cc) ** 2) / 0.05
        window = np.exp(-d2)
        img += 0.20 * window * stripe
    return np.clip(img, 0.0, 1.0)


def block_mosaic(N, seed=0):
    """Synthetic cartoon test image: a grid of constant tiles.

    Every 8 x 8 tile carries a single constant value taken from a smooth
    diagonal ramp, with a handful of tile-aligned rectangles shifted up or
    down for large-scale structure.  Because each tile is exactly constant,
    the image is as compressible as block transforms with a flat lowpass row
    allow.  Deterministic for a given seed; values stay inside (0, 1).
    """
    if N < 2 * _MOSAIC_TILE or N % _MOSAIC_TILE:
        raise ValueError(f"N must be a multiple of {_MOSAIC_TILE} >= {2 * _MOSAIC_TILE}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x6B5A]))
    nb = N // _MOSAIC_TILE
    br = np.arange(nb)[:, None] / nb
    bc = np.arange(nb)[None, :] / nb
    vals = 0.30 + 0.06 * np.cos(2.0 * np.pi * (0.9 * br + 0.6 * bc))
    for _ in range(6):
        r0, c0 = rng.integers(0, max(nb - 4, 1), 2)
        h, w = rng.integers(2, max(3, nb // 3), 2)
        vals[r0 : r0 + h, c0 : c0 + w] += rng.uniform(-0.18, 0.18)
    vals = np.clip(vals, 0.02, 0.98)
    return np.repeat(np.repeat(vals, _MOSAIC_TILE, axis=0), _MOSAIC_TILE, axis=1)




def read_pgm(path):
    """Read an 8-bit PGM image (binary P5 or ASCII P2), mapped to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    # header tokens with '#' comments skipped; P5 payload starts after maxval
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise ValueError(f"truncated PGM header in {path}")
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 255:
        raise ValueError(f"only maxval 255 supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise ValueError(f"bad dimensions {width}x{height}")
    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        raw = data[pos : pos + width * height]
        if len(raw) != width * height:
            raise ValueError(f"truncated P5 payload in {path}")
        pix = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    elif magic == b"P2":
        vals = data[pos:].split()
        if len(vals) != width * height:
            raise ValueError(f"expected {width * height} samples, got {len(vals)}")
        samples = [int(v) for v in vals]
        # range first: an int past float range would raise OverflowError
        if min(samples) < 0 or max(samples) > 255:
            raise ValueError("P2 sample out of range")
        pix = np.array(samples, dtype=np.float64)
    else:
        raise ValueError(f"unsupported magic {magic!r}")
    return (pix / 255.0).reshape(height, width)


def write_pgm(img, path):
    """Write a [0, 1] image as binary 8-bit PGM (round-half-up quantization).

    Raises ``ValueError`` for a value outside [0, 1] or not finite."""
    img = _check_image(img)
    if not np.all(np.isfinite(img)):
        raise ValueError("image values must be finite")
    if img.min() < -1e-9 or img.max() > 1 + 1e-9:
        raise ValueError("image values must lie in [0, 1]")
    q = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    H, W = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{W} {H}\n255\n".encode("ascii"))
        fh.write(q.tobytes())

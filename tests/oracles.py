"""Reference computations that the package no longer runs, kept as oracles:
the projections behind the solver's closed-form dual steps, the
rotating-write butterfly whose bytes the fixed-order kernel keeps, the
recomposition of a Givens cascade and the zoneplate test image."""

import math

import numpy as np


def prox_box01(v):
    """Projection onto [0, 1]^n."""
    return np.clip(np.asarray(v, dtype=np.float64), 0.0, 1.0)


def project_point(v, point):
    """Projection onto the single point {point} (equality data fidelity)."""
    v = np.asarray(v, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    if v.shape != point.shape:
        raise ValueError("shape mismatch")
    return point.copy()


def butterfly(x, powers, scratch):
    """The radix-16 butterfly with every group's product written transposed.

    Each pass applies the group on the low bits of the index and, by writing
    the result transposed, rotates those bits to the top; after every bit
    has been through one group, the index order is back where it started.
    Same arguments, overwrites and result as ``_kernels_py.butterfly``.
    """
    bits = x.shape[0].bit_length() - 1
    src, dst = x, scratch
    while bits:
        s = min(4, bits)
        np.matmul(powers[1 << s], src.reshape(-1, 1 << s).T, out=dst.reshape(1 << s, -1))
        src, dst = dst, src
        bits -= s
    return src


def compose(cascade):
    """The matrix a ``transforms.GivensCascade`` factors: diag(signs) @ R_1 @
    R_2 @ ... in stored order, where R_t rotates plane ``rotations[t][0]`` by
    ``rotations[t][1]`` radians."""
    out = np.eye(cascade.size)
    for (i, j), theta in reversed(cascade.rotations):
        c, s = math.cos(theta), math.sin(theta)
        ri = c * out[i] - s * out[j]
        rj = s * out[i] + c * out[j]
        out[i], out[j] = ri, rj
    return cascade.signs[:, None] * out


def zoneplate(N):
    """Concentric chirp test image: pixel (r, c) = (1 + cos(pi (r^2 + c^2) / N)) / 2."""
    if N < 1:
        raise ValueError("N must be positive")
    r = np.arange(N)[:, None].astype(np.float64)
    c = np.arange(N)[None, :].astype(np.float64)
    img = 0.5 * (1.0 + np.cos(np.pi * (r * r + c * c) / N))
    return np.clip(img, 0.0, 1.0)

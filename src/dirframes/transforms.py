"""One-dimensional block transform designs.

Builds the orthonormal cosine/sine transform family used by the block frames:

* ``build_dct`` -- orthonormal DCT-II.
* ``build_dst`` -- its sine companion with the alternating row placed first,
  so that row k carries discrete frequency k for k >= 1.
* ``build_modified_dst`` -- the sine matrix with the alternating row replaced
  by a constant row; rank M-1 by construction, so a plain array.
* ``build_rdst`` -- the regularity-constrained sine transform: odd rows are
  redesigned one at a time as null vectors of the remaining rows (SVD), which
  restores orthogonality while keeping the constant row, so the transform
  annihilates constant blocks everywhere except its first coefficient.
* ``build_dft`` / ``build_dht`` -- unitary Fourier (complex entries) and
  Hartley (cas) transforms.
* ``extract_gamma`` / ``factor_givens`` -- the orthogonal mixing matrix that
  maps the plain sine transform onto the redesigned one, and its plane
  rotation factorization.

Every transform is returned as an immutable :class:`TransformMatrix`: one
read-only matrix, float64 for the real kinds and complex128 for the DFT,
whose rows are checked to be orthonormal, max |F F^H - I| <= 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DCT",
    "DST",
    "RDST",
    "DFT",
    "DHT",
    "TransformMatrix",
    "DesignStep",
    "GivensCascade",
    "build_dct",
    "build_dst",
    "build_modified_dst",
    "build_rdst",
    "rdst_design_steps",
    "redesign_conditioning",
    "build_dft",
    "build_dht",
    "extract_gamma",
    "factor_givens",
    "matrix_to_csv",
    "matrix_from_csv",
]

DCT = "dct"
DST = "dst"
RDST = "rdst"
DFT = "dft"
DHT = "dht"

_GRAM_TOL = 1e-10
# relative singular-value threshold for the null vector in the redesign loop
_NULLSPACE_RTOL = 1e-8


def _require_pow2(M, minimum=2):
    if M < minimum or M & (M - 1):
        raise ValueError(f"size must be a power of two >= {minimum}, got {M}")


@dataclass(frozen=True)
class TransformMatrix:
    """An M x M transform with orthonormal rows, else ``ValueError``.

    ``entries`` is read-only: complex128 when given complex values (the
    DFT), float64 otherwise."""

    size: int
    kind: str
    entries: np.ndarray

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.entries) else np.float64
        ent = np.asarray(self.entries, dtype=dtype)
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)
        if ent.shape != (self.size, self.size):
            raise ValueError("entries shape does not match declared size")
        res = self.gram_residual()
        if res > _GRAM_TOL:
            raise ValueError(f"{self.kind} rows not orthonormal (residual {res:.3g})")

    def gram_residual(self):
        """max |F F^H - I| over the rows; for a real F, ``conj`` returns F
        itself, so this is the product F F^T."""
        g = self.entries @ self.entries.conj().T
        return float(np.max(np.abs(g - np.eye(self.size))))


def build_dct(M):
    """Orthonormal DCT-II: entry (k, n) = a_k sqrt(2/M) cos(pi k (n+1/2) / M)."""
    _require_pow2(M)
    k = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    ent = np.sqrt(2.0 / M) * np.cos(np.pi * k * (n + 0.5) / M)
    ent[0] /= np.sqrt(2.0)
    return TransformMatrix(M, DCT, ent)


def build_dst(M):
    """Sine companion of the DCT with its alternating row first.

    Row 0 is sqrt(1/M) * (-1)^n (frequency M); row k >= 1 is
    sqrt(2/M) sin(pi k (n+1/2) / M).  Orthonormal.
    """
    _require_pow2(M)
    k = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    ent = np.sqrt(2.0 / M) * np.sin(np.pi * k * (n + 0.5) / M)
    ent[0] = np.sqrt(1.0 / M) * np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    return TransformMatrix(M, DST, ent)


def build_modified_dst(M):
    """Sine matrix with the alternating row replaced by a constant row.

    The constant row is linearly dependent on the odd-indexed sine rows, so
    the matrix has rank M-1; it is the starting point of the redesign loop.
    Not a transform, so a fresh float64 array.
    """
    _require_pow2(M, minimum=4)
    ent = np.array(build_dst(M).entries)
    ent[0] = np.sqrt(1.0 / M)
    return ent


@dataclass(frozen=True)
class DesignStep:
    """One pass of the odd-row redesign loop."""

    step: int
    row: int
    zeroed: np.ndarray        # matrix with the target row set to zero
    null_vector: np.ndarray   # unit right-singular vector of the zero singular value
    installed: np.ndarray     # matrix after installing the null vector


def rdst_design_steps(M):
    """Run the odd-row redesign loop, returning every intermediate step.

    Starting from the modified sine matrix, for k = 0 .. M/2 - 1 row 2k+1 is
    zeroed, the (unique) unit null vector of the remaining rows is found by
    SVD, its sign is fixed so its first nonzero entry is positive, and it is
    installed as the new row 2k+1.
    """
    _require_pow2(M, minimum=4)
    S = build_modified_dst(M)
    steps = []
    for k in range(M // 2):
        row = 2 * k + 1
        zeroed = S.copy()
        zeroed[row] = 0.0
        _, sv, vh = np.linalg.svd(zeroed)
        if sv[-1] > _NULLSPACE_RTOL * sv[0]:
            raise ValueError(
                f"redesign step {k}: no null direction found "
                f"(smallest singular value {sv[-1]:.3g}); rank assumption violated"
            )
        v = vh[-1]
        nz = np.flatnonzero(np.abs(v) > 1e-8)
        if v[nz[0]] < 0:
            v = -v
        S[row] = v
        steps.append(DesignStep(k, row, zeroed, v.copy(), S.copy()))
    return steps


def build_rdst(M):
    """Regularity-constrained sine transform (orthonormal, constant row first).

    Satisfies F @ ones = (sqrt(M), 0, ..., 0): constant blocks excite only the
    first coefficient.  Deterministic: repeated builds are bit-identical.
    """
    steps = rdst_design_steps(M)
    return TransformMatrix(M, RDST, steps[-1].installed)


def redesign_conditioning(M):
    """Gram-of-inverse bounds for each intermediate redesign matrix.

    For every step's installed matrix S, with T = S^{-1}, reports the largest
    off-diagonal magnitude of T^T T and the smallest diagonal entry of T^T T
    over the rows redesigned so far.  The design keeps the off-diagonals at
    or below 0.5 and the updated diagonals at or above 1.
    """
    out = []
    updated = []
    for st in rdst_design_steps(M):
        updated.append(st.row)
        T = np.linalg.inv(st.installed)
        G = T.T @ T
        off = G - np.diag(np.diag(G))
        out.append(
            {
                "step": st.step,
                "max_offdiag": float(np.max(np.abs(off))),
                "min_updated_diag": float(min(G[r, r] for r in updated)),
            }
        )
    return out


def build_dft(M):
    """Unitary DFT, entry (k, n) = exp(-2j pi k n / M) / sqrt(M).

    The parts are set one by one: ``re + 1j * im`` would turn the -0.0
    imaginary entries into +0.0."""
    _require_pow2(M)
    k = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    phase = 2.0 * np.pi * k * n / M
    ent = np.empty((M, M), dtype=np.complex128)
    ent.real = np.cos(phase) / np.sqrt(M)
    ent.imag = -np.sin(phase) / np.sqrt(M)
    return TransformMatrix(M, DFT, ent)


def build_dht(M):
    """Orthonormal Hartley transform, entry (k, n) = cas(2 pi k n / M) / sqrt(M)."""
    _require_pow2(M)
    k = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    phase = 2.0 * np.pi * k * n / M
    ent = (np.cos(phase) + np.sin(phase)) / np.sqrt(M)
    return TransformMatrix(M, DHT, ent)


def extract_gamma(rdst, dst):
    """Recover the orthogonal mixing matrix between the two sine designs.

    The redesigned transform keeps the even-indexed rows of ``dst`` (at output
    positions 1, 2, 4, 6, ...) and replaces the span of the odd-indexed rows:
    rows [0, 3, 5, ...] of ``rdst`` equal Gamma @ dst[1::2] for an orthogonal
    (M/2) x (M/2) Gamma, which this function solves for and validates.
    """
    if rdst.kind != RDST or dst.kind != DST:
        raise ValueError("extract_gamma expects (rdst, dst) TransformMatrix inputs")
    if rdst.size != dst.size:
        raise ValueError("size mismatch")
    M = rdst.size
    odd = dst.entries[1::2]
    odd_positions = [0] + [2 * l + 1 for l in range(1, M // 2)]
    target = rdst.entries[odd_positions]
    gamma, *_ = np.linalg.lstsq(odd.T, target.T, rcond=None)
    gamma = gamma.T
    # rebuild the full matrix and check the factorization is consistent
    rebuilt = np.empty_like(rdst.entries)
    even = dst.entries[0::2]
    rebuilt[1] = even[0]
    for l in range(1, M // 2):
        rebuilt[2 * l] = even[l]
    mixed = gamma @ odd
    rebuilt[0] = mixed[0]
    for l in range(1, M // 2):
        rebuilt[2 * l + 1] = mixed[l]
    residual = float(np.max(np.abs(rebuilt - rdst.entries)))
    if residual > 1e-8:
        raise ValueError(f"inconsistent inputs: reconstruction residual {residual:.3g}")
    gram = float(np.max(np.abs(gamma @ gamma.T - np.eye(M // 2))))
    if gram > _GRAM_TOL:
        raise ValueError(f"extracted mixing matrix not orthogonal (residual {gram:.3g})")
    return gamma


@dataclass(frozen=True)
class GivensCascade:
    """Plane-rotation factorization of an orthogonal matrix.

    The factored matrix is diag(signs) @ R_1 @ R_2 @ ... in stored order,
    where R_t rotates plane ``rotations[t][0]`` by ``rotations[t][1]``
    radians.  A determinant of -1 is absorbed by ``signs`` (last entry -1).
    """

    size: int
    rotations: tuple = field(default_factory=tuple)  # ((i, j), angle), i < j
    signs: np.ndarray = None

    def to_json_dict(self):
        return {
            "size": self.size,
            "rotations": [
                {"plane": [int(i), int(j)], "angle": float(t)}
                for (i, j), t in self.rotations
            ],
            "signs": [float(s) for s in self.signs],
        }


def factor_givens(Q):
    """Factor an orthogonal matrix into n(n-1)/2 plane rotations.

    Entries below the diagonal are eliminated column by column; zero-angle
    rotations are kept so the count is always n(n-1)/2.  Recomposition
    reproduces the input to ~1e-10.
    """
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("expected a square matrix")
    n = Q.shape[0]
    if float(np.max(np.abs(Q @ Q.T - np.eye(n)))) > 1e-8:
        raise ValueError("matrix is not orthogonal")
    signs = np.ones(n)
    A = Q.copy()
    if np.linalg.det(A) < 0:
        signs[-1] = -1.0
        A[-1] = -A[-1]
    rotations = []
    for j in range(n - 1):
        for i in range(j + 1, n):
            theta = math.atan2(A[i, j], A[j, j])
            c, s = math.cos(theta), math.sin(theta)
            rj = c * A[j] + s * A[i]
            ri = -s * A[j] + c * A[i]
            A[j], A[i] = rj, ri
            rotations.append(((j, i), theta))
    return GivensCascade(n, tuple(rotations), signs)


def matrix_to_csv(arr, path):
    """Write a 2-D array as CSV with 17 significant digits (lossless float64)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array")
    with open(path, "w") as fh:
        for row in arr:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def matrix_from_csv(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"no data in {path}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows in {path}")
    return np.array(rows, dtype=np.float64)

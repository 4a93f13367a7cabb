"""Seeded compressive measurement operators and the observation container.

The default operator is a scrambled Hadamard ensemble: a seeded random sign
flip and permutation followed by the fast Walsh-Hadamard transform, row
subsampled without replacement.  A complex noiselet mode (Coifman butterfly
recursion) is available behind a flag; its conjugate-symmetric rows are
re-assembled into an exactly orthonormal real transform by interleaving
sqrt(2) * real / imaginary parts of the first half of the output, so both
modes expose the same interface and invariants (orthonormal rows, exact
pseudo-inverse by the adjoint).

Only half of the noiselet's output is ever used, and only half of its
adjoint's input is nonzero, so that mode runs one half-length noiselet per
pass.  The n-point noiselet is the Kronecker power of the unitary stage
W = [[a, b], [b, a]] with a = (1 - i)/2, b = (1 + i)/2, hence
N_n = W ⊗ N_h with h = n/2.  Split x into halves x0 = x[:h], x1 = x[h:]:

    N_n x = [N_h (a x0 + b x1);  N_h (b x0 + a x1)],

so the kept first half is N_h (a x0 + b x1).  Its input is formed with
real arithmetic as (x0 + x1)/2 + i (x1 - x0)/2, the same bits as the
complex products, since halving a normal number is exact.  The adjoint is
N_n^H = W^H ⊗ N_h^H with W^H = [[b, a], [a, b]] (conj(a) = b), so on an
input whose second half is zero, N_n^H [w; 0] = [b u; a u] with
u = N_h^H w.  Its real part is
Re(b u) = (Re u - Im u)/2 and Re(a u) = (Re u + Im u)/2.  The results equal
the full-length computation up to rounding: a few ulp, at most 1.8e-15 on a
unit-variance input at n = 2^16.

An operator can read its input in any fixed order: ``in_order(q)`` returns
the operator whose ``forward(u)`` is ``forward(u[q])`` and whose adjoint
returns its output in that order too.  Every pass starts with one gather,
``_gather``: the scrambling permutation in Hadamard mode (with the sign flip
carried in gathered order, as (x * s)[p] = x[p] * s[p]), the identity in
noiselet mode.  Every adjoint ends with one gather through the inverse
index, ``_scatter``, which moves the same values as the scatter
``out[_gather] = v`` at about half its cost.  Relabeling composes q into
the gather, ``q[_gather]``, and inverts that afresh.  The solver relabels
its operator once, by the block-stack positions of the column-major image
vector, so it senses its stack of blocks with no layout copy; it is the
only operator the solver relabels.  The results are bit-identical to
gathering first and then applying the operator, because each step is a
permutation or the same multiply.  ``forward`` applies the scale
(1/sqrt(n), or sqrt(2) for noiselets) to the m kept rows only.

Each operator holds one (2, n) float64 workspace, and every pass runs in
it: the gather writes into one row, the butterfly goes back and forth
between the two, and only the result is a new array (m values from
``forward``, n from ``adjoint``), never a view of the workspace.  A solve
calls its operator twice per iteration, so this keeps those calls from
creating and freeing n-length temporaries.  ``in_order`` gives the copy a
workspace of its own, but one operator is not safe for concurrent calls:
two threads calling it at once would share the workspace.

Signal lengths are capped at ``MAX_SIGNAL_LENGTH`` = 2^26 (an 8192 x 8192
image), where the two held indices take 1 GiB and the workspace another
GiB: a header may not ask for more.

Randomness is counter-based (Philox) with one stream per purpose, keyed as
the uint64 pair (seed, stream-id): permutation 1, sign flips 2, sampling
mask 3, noise 4.
"""

from __future__ import annotations

import copy
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .backend import fwht, noiselet, noiselet_adjoint

__all__ = [
    "MAX_SIGNAL_LENGTH",
    "SCRAMBLED_HADAMARD",
    "COMPLEX_NOISELET",
    "MeasurementOperator",
    "Observation",
    "sense_image",
    "add_noise",
    "pseudo_inverse_estimate",
    "save_observation",
    "load_observation",
]

SCRAMBLED_HADAMARD = "scrambled-hadamard"
COMPLEX_NOISELET = "complex-noiselet"

MAX_SIGNAL_LENGTH = 2**26

_MODE_CODES = {SCRAMBLED_HADAMARD: 0, COMPLEX_NOISELET: 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}

_STREAM_PERM = 1
_STREAM_SIGN = 2
_STREAM_MASK = 3
_STREAM_NOISE = 4

_SQRT2 = np.sqrt(2.0)

_MAGIC = b"DFOBS001"
_HEADER = struct.Struct("<8sIIQdQQdB7xQ")


def _stream(seed, stream_id):
    # a uint64 key: a plain list holding an int of 2^63 or more becomes
    # float64 and loses the seed's low bits
    key = np.array([int(seed), int(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_seed(seed, name="seed"):
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"{name} must fit in uint64")


def _measurement_count(n, rate):
    """Rows kept at a sampling rate: rate * n rounded half up."""
    return int(np.floor(rate * n + 0.5))


class MeasurementOperator:
    """Row-subsampled orthonormal fast transform, reproducible from a seed.

    Every pass first gathers its input through one index, ``_gather``: the
    scrambling permutation in Hadamard mode, the identity in noiselet mode,
    composed with any input order set by :meth:`in_order`.  Every adjoint
    pass ends with a gather through its inverse, ``_scatter``.  The passes
    run in the operator's workspace, so an operator must not be called
    from two threads at once.
    """

    def __init__(self, n, rate, seed, mode=SCRAMBLED_HADAMARD):
        if n < 2 or n & (n - 1):
            raise ValueError(f"signal length must be a power of two, got {n}")
        if n > MAX_SIGNAL_LENGTH:
            raise ValueError(f"signal length {n} exceeds the limit of {MAX_SIGNAL_LENGTH}")
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate must be in (0, 1], got {rate}")
        if mode not in _MODE_CODES:
            raise ValueError(f"unknown mode {mode!r}")
        _check_seed(seed)
        self.n = int(n)
        self.rate = float(rate)
        self.seed = int(seed)
        self.mode = mode
        self.m = _measurement_count(self.n, rate)
        if self.m == 0:
            raise ValueError(f"sampling rate {rate} gives no measurements of {self.n} samples")
        self.sample_indices = np.sort(
            _stream(seed, _STREAM_MASK).permutation(self.n)[: self.m]
        )
        if mode == SCRAMBLED_HADAMARD:
            # (x * signs)[perm] = x[perm] * signs[perm]: the sign flip rides
            # on the gather, in gathered order
            perm = _stream(seed, _STREAM_PERM).permutation(self.n)
            signs = np.where(_stream(seed, _STREAM_SIGN).random(self.n) < 0.5, -1.0, 1.0)
            self._signs = signs[perm]
            self._scale = 1.0 / np.sqrt(self.n)
        else:
            perm = np.arange(self.n)
            self._scale = _SQRT2
        self._set_gather(perm)

    def in_order(self, q):
        """The same operator on inputs stored in another order.

        ``q`` is a permutation of range(n).  The result's ``forward(u)``
        equals ``self.forward(u[q])`` and its ``adjoint(y)`` is the matching
        relabeling, ``out[q] = self.adjoint(y)``, both bit for bit: the
        gathers compose into ``q[_gather]``, whose inverse is the new
        ``_scatter``, and every other step is unchanged.
        """
        q = np.asarray(q)
        if q.shape != (self.n,) or q.dtype.kind not in "iu":
            raise ValueError(f"expected a length-{self.n} integer index, got {q.dtype} {q.shape}")
        q = q.astype(np.intp, copy=False)
        if q.min() < 0 or not np.all(np.bincount(q, minlength=self.n) == 1):
            raise ValueError("input order must be a permutation of range(n)")
        op = copy.copy(self)
        op._set_gather(q[self._gather])
        return op

    def _set_gather(self, gather):
        """Hold the input gather and its inverse, ``_scatter``, through
        which the adjoint gathers its output, and a fresh workspace, so
        that no two operators share one."""
        self._gather = gather
        self._scatter = np.empty_like(gather)
        self._scatter[gather] = np.arange(self.n)
        self._work = np.empty((2, self.n))

    def _check(self, v, length):
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (length,):
            raise ValueError(f"expected length-{length} vector, got {v.shape}")
        return v

    def _transform(self, x):
        """The full transform of x before its scale, as a view of the
        workspace: the callers copy out the rows they keep."""
        w = self._work
        if self.mode == SCRAMBLED_HADAMARD:
            # mode="clip" lets take write straight into its output; every
            # index is in range, so nothing is clipped
            v = np.take(x, self._gather, out=w[0], mode="clip")
            v *= self._signs
            return fwht(v, w[1])
        # a x0 + b x1 = (x0 + x1)/2 + i (x1 - x0)/2, formed in w[0] viewed
        # as the interleaved (real, imag) pairs: the same bits as the
        # complex products, with no complex temporaries
        half = self.n // 2
        v = np.take(x, self._gather, out=w[1], mode="clip")
        np.add(v[:half], v[half:], out=w[0, 0::2])
        np.subtract(v[half:], v[:half], out=w[0, 1::2])
        w[0] *= 0.5
        # the complex memory layout is the interleaved (real, imag) output
        return noiselet(w[0].view(np.complex128), w[1].view(np.complex128)).view(np.float64)

    def _inverse(self):
        """Transpose of the full transform of the workspace's first row, in
        input order: one gather through ``_scatter``, the inverse of the
        forward gather, into a fresh vector.  A gather through the inverse
        of a permutation moves the same values as the scatter
        ``out[_gather] = v``, so the bytes are the same."""
        w = self._work
        if self.mode == SCRAMBLED_HADAMARD:
            v = fwht(w[0], w[1])
            v *= self._scale
            v *= self._signs
        else:
            # Re(b u) = (Re u - Im u)/2 and Re(a u) = (Re u + Im u)/2,
            # written to whichever row does not hold u
            half = self.n // 2
            u = noiselet_adjoint(w[0].view(np.complex128), w[1].view(np.complex128))
            v = w[0] if np.may_share_memory(u, w[1]) else w[1]
            np.subtract(u.real, u.imag, out=v[:half])
            np.add(u.real, u.imag, out=v[half:])
            v *= 0.5 * _SQRT2
        return v[self._scatter]

    def full_transform(self, x):
        """Apply the full n x n orthonormal transform.

        Noiselet mode returns sqrt(2) * (Re, Im) of the first half of N_n x,
        interleaved.  Because N_n = W ⊗ N_h (h = n/2), that half is
        N_h (a x[:h] + b x[h:]): one h-point noiselet, not an n-point one.
        """
        return self._transform(self._check(x, self.n)) * self._scale

    def full_inverse(self, z):
        """Inverse (= transpose) of :meth:`full_transform`.

        Noiselet mode reads the interleaved pairs as w = z[0::2] + i z[1::2]
        and returns sqrt(2) * Re(N_n^H [w; 0]).  Because N_n^H = W^H ⊗ N_h^H
        and W^H = [[b, a], [a, b]], that is sqrt(2) * [Re(b u); Re(a u)] with
        u = N_h^H w: one h-point adjoint, not an n-point one.
        """
        self._work[0] = self._check(z, self.n)
        return self._inverse()

    def forward(self, x):
        """Subsampled measurements: transform then keep the masked rows."""
        y = self._transform(self._check(x, self.n))[self.sample_indices]
        y *= self._scale
        return y

    def adjoint(self, y):
        """Transpose of :meth:`forward`; equals the Moore-Penrose pseudo-inverse
        applied to y because the kept rows are orthonormal."""
        y = self._check(y, self.m)
        z = self._work[0]
        z.fill(0.0)
        z[self.sample_indices] = y
        return self._inverse()

    def dense_matrix(self):
        """Materialize the full transform (tests/verification; n <= 4096)."""
        if self.n > 4096:
            raise ValueError("dense matrix limited to n <= 4096")
        eye = np.eye(self.n)
        return np.stack([self.full_transform(eye[i]) for i in range(self.n)], axis=1)


@dataclass(frozen=True)
class Observation:
    """Measurements plus everything needed to rebuild the operator."""

    y: np.ndarray
    height: int
    width: int
    rate: float
    seed: int
    seed_noise: int
    sigma: float
    mode: str

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.height * self.width

    @property
    def measurement_count(self):
        return self.y.size

    def operator(self):
        return MeasurementOperator(self.n, self.rate, self.seed, self.mode)


def add_noise(y, sigma, seed, stream_id=_STREAM_NOISE):
    """Add white Gaussian noise; sigma = 0 returns the input unchanged.

    Raises ``ValueError`` unless sigma is finite and >= 0 and the seed is in
    [0, 2^64), whatever sigma is.
    """
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    _check_seed(seed)
    if sigma == 0:
        return y.copy()
    return y + sigma * _stream(seed, stream_id).standard_normal(y.size)


def sense_image(img, rate, sigma, seed, mode=SCRAMBLED_HADAMARD, seed_noise=None):
    """Measure a [0,1] image: y = mask(transform(vec(img))) + noise."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    H, W = img.shape
    n = H * W
    op = MeasurementOperator(n, rate, seed, mode)
    seed_noise = seed if seed_noise is None else seed_noise
    _check_seed(seed_noise, "seed_noise")
    clean = op.forward(img.reshape(-1, order="F"))
    y = add_noise(clean, sigma, seed_noise)
    return Observation(y, H, W, rate, int(seed), int(seed_noise), float(sigma), mode)


def pseudo_inverse_estimate(obs):
    """Least-norm estimate transform^T mask^T y, reshaped to the image grid."""
    op = obs.operator()
    x = op.adjoint(np.asarray(obs.y, dtype=np.float64))
    return x.reshape(obs.height, obs.width, order="F")


def save_observation(obs, path):
    """Binary container (fixed little-endian header + float64 payload) and a
    JSON sidecar at path + ".json"."""
    header = _HEADER.pack(
        _MAGIC,
        obs.height,
        obs.width,
        obs.n,
        obs.rate,
        obs.seed,
        obs.seed_noise,
        obs.sigma,
        _MODE_CODES[obs.mode],
        obs.measurement_count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(obs.y, dtype="<f8").tobytes())
    sidecar = {
        "format": _MAGIC.decode("ascii"),
        "height": obs.height,
        "width": obs.width,
        "n": obs.n,
        "rate": obs.rate,
        "seed": obs.seed,
        "seed_noise": obs.seed_noise,
        "sigma": obs.sigma,
        "mode": obs.mode,
        "measurement_count": obs.measurement_count,
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_observation(path):
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"truncated observation header in {path}")
        magic, height, width, n, rate, seed, seed_noise, sigma, mode_code, m = (
            _HEADER.unpack(head)
        )
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if mode_code not in _MODE_NAMES:
            raise ValueError(f"unknown mode code {mode_code} in {path}")
        if height * width != n:
            raise ValueError("inconsistent dimensions in header")
        if n < 2 or n & (n - 1):
            raise ValueError(
                f"signal length {n} = {height} x {width} is not a power of two >= 2 in {path}"
            )
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sampling rate {rate} out of (0, 1] in {path}")
        if not (np.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"noise level {sigma} is not a finite number >= 0 in {path}")
        if m != _measurement_count(n, rate):
            raise ValueError(
                f"header count {m} does not match rate {rate} of {n} samples in {path}"
            )
        # size the read by the file, not by the header's count
        if os.fstat(fh.fileno()).st_size - _HEADER.size < 8 * m:
            raise ValueError(f"truncated payload in {path}")
        if n > MAX_SIGNAL_LENGTH:
            raise ValueError(
                f"signal length {n} = {height} x {width} exceeds the limit of "
                f"{MAX_SIGNAL_LENGTH} in {path}"
            )
        payload = fh.read(8 * m)
        if len(payload) != 8 * m:
            raise ValueError(f"truncated payload in {path}")
    y = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"non-finite measurement in {path}")
    return Observation(y, height, width, rate, seed, seed_noise, sigma, _MODE_NAMES[mode_code])

"""Seeded compressive measurement operators and the observation container.

The default operator is a scrambled Hadamard ensemble: a seeded random sign
flip and permutation followed by the fast Walsh-Hadamard transform, row
subsampled without replacement.  A complex noiselet mode (Coifman butterfly
recursion) is available behind a flag; its conjugate-symmetric rows are
re-assembled into an exactly orthonormal real transform by interleaving
sqrt(2) * real / imaginary parts of the first half of the output, so both
modes expose the same interface and invariants (orthonormal rows, exact
pseudo-inverse by the adjoint), and both run the real Walsh-Hadamard
butterfly.

Only half of the noiselet's output is ever used, and only half of its
adjoint's input is nonzero.  The n-point noiselet is the Kronecker power of
the unitary stage W = [[a, b], [b, a]] with a = (1 - i)/2, b = (1 + i)/2,
hence N_n = W ⊗ N_h with h = n/2.  Split x into halves x0 = x[:h],
x1 = x[h:]: the kept first half is N_h (a x0 + b x1) = N_h (a c) with
c = x0 + i x1, since b = i a.

No pass runs the complex butterfly.  W = a D1 H2 D1 with D1 = diag(1, i)
and H2 the 2-point Hadamard stage, so its Kronecker power is

    N_h = a^k D H_h D,   D = diag(i^popcount(j)),   k = log2 h,

and the kept half is a^r D H_h D c with r = log2 n.  A power of i only
swaps and signs the (Re, Im) pair of an entry, so D c is a signed gather of
x: the workspace holds the real parts in [0, h) and the imaginary parts in
[h, n), ``_gather`` reads each from x0 or x1 and ``_signs`` holds their
signs.  H_h is then ``fwht`` over the low k bits, which transforms the real
and the imaginary parts apart.  The factor a^r = 2^(-r/2) e^(-i pi r/4) is
a power of i when r is even.  When r is odd it also holds one 45-degree
turn, e^(-i pi/4) (P + i Q) = (U - i V)/sqrt(2) with U = P + Q and
V = P - Q, which is the Hadamard stage on the (Re, Im) pair: so the
butterfly is ``fwht`` of the workspace as a (2, h) stack of rows when r is
even and of the whole n-vector, the top stage included, when r is odd.
The second D and the power of i are another signed gather, of the m kept
rows only: ``_rows`` says where each kept real or imaginary part is read and
``_row_signs`` its sign, with the turn's -V folded in.  What is left of
sqrt(2) a^r is one scale, 1/sqrt(h) or 1/sqrt(n): one over the square root
of the butterfly's row length.  The adjoint runs the same steps transposed:
the signed kept rows, the butterfly (its own transpose), the scale and the
input signs, and a gather back.  These results equal the complex
definition, ``backend.noiselet`` of a c, up to rounding: at most 2.7e-15
for n = 2 to 2^18 on a unit-variance input.  At n = 2^16, against the
complex butterfly, ``forward`` went from 0.66-0.68 to 0.42 ms and
``adjoint`` from 0.68-0.70 to 0.43-0.45 ms (min of 60 calls of a relabeled
operator, three alternating runs a side, one BLAS thread, on a shared
2-core x86-64 VM).

The tables are built once per operator from ``np.bitwise_count`` and one
8-entry sign table ``_SIGNS``: the sign of component t of i^p (u + i v),
which is u or v as p + t is even or odd, is ``_SIGNS[4 t + p]``.

So both modes run one path.  A pass gathers its input through ``_gather``
(the scrambling permutation in Hadamard mode, with the sign flip carried in
gathered order, as (x * s)[p] = x[p] * s[p]), multiplies by ``_signs``,
runs one ``fwht`` and keeps ``_rows`` times ``_row_signs`` (all 1 in
Hadamard mode, where ``_rows`` is ``sample_indices``) times the scale.  The
adjoint places the signed measurements at ``_rows``, runs one ``fwht``,
multiplies by the scale and the signs and ends with one gather through the
inverse index, ``_scatter``, which moves the same values as the scatter
``out[_gather] = v`` at about half its cost.

An operator can read its input in any fixed order: ``in_order(q)`` returns
the operator whose ``forward(u)`` is ``forward(u[q])`` and whose adjoint
returns its output in that order too.  Relabeling composes q into the
gather, ``q[_gather]``, and inverts that afresh.  The solver relabels its
operator once, by the block-stack positions of the column-major image
vector, so it senses its stack of blocks with no layout copy; it is the
only operator the solver relabels.  The results are bit-identical to
gathering first and then applying the operator, because each step is a
permutation or the same multiply.

Each operator holds one (2, n) float64 workspace, and every pass runs in
it: the gather writes into one row, the butterfly goes back and forth
between the two, and only the result is a new array (m values from
``forward``, n from ``adjoint``), never a view of the workspace.  A solve
calls its operator twice per iteration, so this keeps those calls from
creating and freeing n-length temporaries.  ``in_order`` gives the copy a
workspace of its own, but one operator is not safe for concurrent calls:
two threads calling it at once would share the workspace.

At rate 1, ``sample_indices`` is ``arange(n)``, so ``forward`` is the full
n x n orthonormal transform and ``adjoint`` its inverse; the permutation
and sign streams do not depend on the rate, so a rate-1 operator with the
same seed and mode is the full transform behind any rate's rows.

Signal lengths are capped at ``MAX_SIGNAL_LENGTH`` = 2^26 (an 8192 x 8192
image), where the two held indices take 1 GiB, the signs 512 MiB and the
workspace another GiB: a header may not ask for more.

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

# the noiselets are the definitions that noiselet mode computes without them;
# they stay module attributes, which perfbench/tracing.py wraps
from .backend import fwht, noiselet, noiselet_adjoint  # noqa: F401

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

# _SIGNS[4 t + p] is the sign of component t (0 real, 1 imaginary) of
# i^p (u + iv), whose component t is u or v as p + t is even or odd
_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0])

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


def _turn(j, t, p, h):
    """Where component t of i^p (u_j + i v_j) is read, with u held at [0, h)
    and v at [h, 2h) of one vector, and its sign.  t and p (in 0..3) are
    uint8, so that no n-length temporary is wider than a byte."""
    rows = np.multiply((p + t) & 1, h, dtype=np.intp)
    rows += j
    return rows, _SIGNS.take(p + 4 * t)


def _noiselet_tables(n, sample_indices):
    """The kept half of the noiselet as a signed gather, a real butterfly
    and a signed gather of the kept rows (see the module docstring):
    ``(gather, signs, rows, row_signs, shape)``."""
    h = n // 2
    bits = n.bit_length() - 1
    j = np.arange(h)
    gather, signs = _turn(j, np.arange(2, dtype=np.uint8)[:, None], np.bitwise_count(j) & 3, h)
    # kept row s is component s & 1 of entry s >> 1, turned by the second D
    # and the power of i in a^bits, i^popcount(j) (-i)^(bits // 2)
    j, t = sample_indices >> 1, (sample_indices & 1).astype(np.uint8)
    q = np.bitwise_count(j)
    q += 3 * (bits >> 1)
    q &= 3
    rows, row_signs = _turn(j, t, q, h)
    shape = (2, h)
    if bits & 1:
        # the top stage's (U, V) turned by 45 degrees is U - iV
        row_signs[rows >= h] *= -1.0
        shape = (n,)
    return gather.ravel(), signs.ravel(), rows, row_signs, shape


class MeasurementOperator:
    """Row-subsampled orthonormal fast transform, reproducible from a seed.

    Every pass first gathers its input through one index, ``_gather``: the
    scrambling permutation in Hadamard mode, the signed gather of D c in
    noiselet mode, composed with any input order set by :meth:`in_order`.  Every
    adjoint pass ends with a gather through its inverse, ``_scatter``.  The
    passes run in the operator's workspace, so an operator must not be
    called from two threads at once.
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
            # on the gather, in gathered order, held once for both passes
            perm = _stream(seed, _STREAM_PERM).permutation(self.n)
            self._signs = np.where(
                _stream(seed, _STREAM_SIGN).random(self.n) < 0.5, -1.0, 1.0)[perm]
            self._rows, self._row_signs, self._shape = self.sample_indices, 1.0, (self.n,)
        else:
            perm, self._signs, self._rows, self._row_signs, self._shape = (
                _noiselet_tables(self.n, self.sample_indices))
        self._scale = 1.0 / np.sqrt(self._shape[-1])
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
        # the range first, as bincount allocates up to the largest entry
        in_range = q.min() >= 0 and q.max() < self.n
        if not (in_range and np.all(np.bincount(q, minlength=self.n) == 1)):
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
        if np.iscomplexobj(v):
            raise ValueError(f"expected a real length-{length} vector, got complex values")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (length,):
            raise ValueError(f"expected length-{length} vector, got {v.shape}")
        return v

    def _butterfly(self):
        """``fwht`` of the workspace's first row, as ``_shape`` rows, in the
        workspace: the result is a flat view of one of its two rows."""
        w = self._work
        return fwht(w[0].reshape(self._shape), w[1].reshape(self._shape)).reshape(-1)

    def forward(self, x):
        """Subsampled measurements: transform then keep the masked rows."""
        x = self._check(x, self.n)
        # mode="clip" lets take write straight into its output; every index
        # is in range, so nothing is clipped
        np.take(x, self._gather, out=self._work[0], mode="clip")
        self._work[0] *= self._signs
        y = self._butterfly()[self._rows]
        y *= self._row_signs
        y *= self._scale
        return y

    def adjoint(self, y):
        """Transpose of :meth:`forward`; equals the Moore-Penrose pseudo-inverse
        applied to y because the kept rows are orthonormal.

        The signed rows are formed in the workspace's second row, which the
        butterfly then overwrites.  The output is one gather through
        ``_scatter``, the inverse of the forward gather, into a fresh
        vector: it moves the same values as the scatter ``out[_gather] = v``
        at about half its cost."""
        y = self._check(y, self.m)
        z, signed = self._work[0], self._work[1, :self.m]
        np.multiply(y, self._row_signs, out=signed)
        z.fill(0.0)
        z[self._rows] = signed
        v = self._butterfly()
        v *= self._scale
        v *= self._signs
        return v[self._scatter]


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


def add_noise(y, sigma, seed):
    """Add white Gaussian noise from the seed's noise stream; sigma = 0
    returns the input unchanged.

    Raises ``ValueError`` unless sigma is finite and >= 0 and the seed is in
    [0, 2^64), whatever sigma is.
    """
    y = np.asarray(y, dtype=np.float64)
    if not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    _check_seed(seed)
    if sigma == 0:
        return y.copy()
    return y + sigma * _stream(seed, _STREAM_NOISE).standard_normal(y.size)


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

"""The sensing transforms: Walsh-Hadamard and noiselet butterflies.

All three are Kronecker powers of a 2x2 stage, applied by the one numpy
kernel in ``_kernels_py``: radix-16 groups of stages from the low index bits
up, the short leftover group on top, each group as matrix products.  The
float64 ``fwht`` keeps the index order fixed, each group one batched
``np.matmul`` along its own bits, and no BLAS call writes more than
``_kernels_py._CALL_FLOATS`` = 2^15 entries, which keeps dgemm on
OpenBLAS's small-matrix kernels; the complex noiselets write each group's
product transposed, rotating its bits to the top, because zgemm has no
small-matrix win there.  The choice is by dtype alone.  For float64 the
fixed order gives the bytes of the rotating write at every n tested; for
complex128 it does not (at n = 32 it moves 29 of 32 noiselet entries by up
to 1.9e-15), so the noiselets' bytes depend on their layout.  The per-pass
timings are in ``_kernels_py``.  ``backend_name`` and ``HAVE_COMPILED``
stay for callers that record which kernel made a result; there is only
this one, so they always read ``"python"`` and ``False``.

Each transform takes an optional ``scratch`` vector of the input's length
and dtype.  With one, the scratch and the input are both overwritten (or
the input's contiguous cast to the transform's dtype, when it is not one
already) and the result is whichever of the two holds it, so a caller with
held buffers makes no array per call.  Without one, the input is copied and
a scratch allocated, and the call goes down the same path: the result is
fresh and the input untouched.
"""

import numpy as np

from ._kernels_py import butterfly, kron_powers

HAVE_COMPILED = False

_A = 0.5 - 0.5j
_B = 0.5 + 0.5j
_HADAMARD = kron_powers(np.array([[1.0, 1.0], [1.0, -1.0]]))
# conj(a) = b, so the adjoint's stage is the forward stage with a and b swapped
_NOISELET = kron_powers(np.array([[_A, _B], [_B, _A]]))
_NOISELET_ADJOINT = kron_powers(np.array([[_B, _A], [_A, _B]]))


def backend_name():
    return "python"


def _apply(x, dtype, powers, scratch):
    """``butterfly`` on x cast to ``dtype``, in ``scratch`` or in a fresh pair."""
    x = np.array(x, dtype=dtype) if scratch is None else np.ascontiguousarray(x, dtype=dtype)
    n = x.shape[0] if x.ndim == 1 else 0
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got shape {x.shape}")
    if scratch is None:
        scratch = np.empty_like(x)
    elif (scratch.shape != x.shape or scratch.dtype != dtype
          or not scratch.flags.c_contiguous or np.may_share_memory(x, scratch)):
        raise ValueError(
            f"scratch must be a contiguous {np.dtype(dtype)} vector of shape {x.shape} "
            f"apart from the input, got {scratch.dtype} {scratch.shape}"
        )
    return butterfly(x, powers, scratch)


def fwht(x, scratch=None):
    """Unnormalized Walsh-Hadamard transform of a power-of-two vector."""
    return _apply(x, np.float64, _HADAMARD, scratch)


def noiselet(x, scratch=None):
    """Unitary Coifman-butterfly transform (complex output)."""
    return _apply(x, np.complex128, _NOISELET, scratch)


def noiselet_adjoint(x, scratch=None):
    """Conjugate transpose of :func:`noiselet`."""
    return _apply(x, np.complex128, _NOISELET_ADJOINT, scratch)

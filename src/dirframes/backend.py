"""The sensing transforms: Walsh-Hadamard and noiselet butterflies.

All three are Kronecker powers of a 2x2 stage, applied by the one numpy
kernel in ``_kernels_py``.  ``backend_name`` and ``HAVE_COMPILED`` stay for
callers that record which kernel made a result; there is only this one, so
they always read ``"python"`` and ``False``.
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


def _as_pow2(x, dtype):
    x = np.asarray(x, dtype=dtype)
    n = x.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    return x


def fwht(x):
    """Unnormalized Walsh-Hadamard transform of a power-of-two vector."""
    return butterfly(_as_pow2(x, np.float64), _HADAMARD)


def noiselet(x):
    """Unitary Coifman-butterfly transform (complex output)."""
    return butterfly(_as_pow2(x, np.complex128), _NOISELET)


def noiselet_adjoint(x):
    """Conjugate transpose of :func:`noiselet`."""
    return butterfly(_as_pow2(x, np.complex128), _NOISELET_ADJOINT)

"""The butterfly kernel behind the Walsh-Hadamard and noiselet transforms.

Each transform of length n = 2^k is the k-fold Kronecker power of one 2x2
stage matrix W: stage j mixes the entry pairs whose indices differ in bit j.
Stages on different bits commute, so any group of s <= 4 of them is one
(2^s x 2^s) matrix, the s-fold Kronecker power of W.  ``butterfly`` applies
the low s bits' group as a single matrix product and, by writing the result
transposed, rotates those bits to the top of the index; after every bit has
been through one group, the index order is back where it started.  A radix-16
group reads and writes memory once where four radix-2 stages do it four times.

The passes run back and forth between the input and one scratch vector of
the same length, each product written with ``np.matmul(..., out=)``, so a
transform creates no array: a run of calls on held buffers leaves the heap
as it found it.  The product is the same BLAS call with or without ``out``,
so the values do not depend on where they are written.
"""

import numpy as np

RADIX_BITS = 4


def kron_powers(stage):
    """``{2**s: stage ⊗ ... ⊗ stage (s factors)}`` for s = 1 .. RADIX_BITS."""
    powers = {2: np.asarray(stage)}
    for s in range(2, RADIX_BITS + 1):
        powers[1 << s] = np.kron(powers[2], powers[1 << (s - 1)])
    return powers


def butterfly(x, powers, scratch):
    """Apply the Kronecker power of a 2x2 stage to a power-of-two vector.

    ``powers`` is ``kron_powers(stage)``.  ``x`` and ``scratch`` are
    C-contiguous vectors of one length and dtype that do not overlap; both
    are overwritten, and the one that holds the result is returned.
    """
    n = x.shape[0]
    bits = n.bit_length() - 1
    src, dst = x, scratch
    while bits:
        s = min(RADIX_BITS, bits)
        np.matmul(powers[1 << s], src.reshape(-1, 1 << s).T, out=dst.reshape(1 << s, -1))
        src, dst = dst, src
        bits -= s
    return src

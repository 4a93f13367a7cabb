"""The butterfly kernel behind the Walsh-Hadamard and noiselet transforms.

Each transform of length n = 2^k is the k-fold Kronecker power of one 2x2
stage matrix W: stage j mixes the entry pairs whose indices differ in bit j.
Stages on different bits commute, so any group of s <= 4 of them is one
(2^s x 2^s) matrix H, the s-fold Kronecker power of W.  ``butterfly``
applies the groups from the low bits up, four bits at a time with the short
leftover group on top, each as matrix products.  A radix-16 group reads
and writes memory once where four radix-2 stages do it four times.

How a group's products are laid out depends on the dtype, chosen in one
place, ``_PASSES``:

* float64 (``fwht``): the index order stays fixed.  The group on bits
  [b, b + s) is H applied along the middle axis of the (A, 2^s, 2^b) view,
  one batched ``np.matmul`` with H on the left; the lowest group is
  ``(B, ., 2^s) @ H.T``.  No BLAS call writes more than ``_CALL_FLOATS``
  = 2^15 entries (a wider group is split into column slices of the same
  view), which keeps every call on OpenBLAS's small-matrix path.
* complex128 (the noiselets): each product is written transposed, which
  rotates the group's bits to the top of the index; after every bit has
  been through one group, the index order is back where it started.

The two layouts apply the same groups in the same order and differ in
where the products are written.  For float64 the bytes match: the fixed
order gives those of the rotating write at every n tested, 2 to 2^18.  For
complex128 they do not: run in the fixed order, the noiselets at n = 32
differ from the rotating write in 29 of 32 entries, by up to 1.9e-15
(every other n tested matched), so the noiselets' bytes depend on their
layout.  Min over 40 interleaved rounds, in ms per pass at n = 2^16, one
BLAS thread, OpenBLAS ``SkylakeX`` kernels on a shared 2-core VM, two
rounds:

    dtype       bits     rotating write   fixed order
    float64     0-3      0.077-0.097      0.073-0.098
    float64     4-7      0.076-0.097      0.045-0.075
    float64     8-11     0.076-0.099      0.038-0.061
    float64     12-15    0.077-0.098      0.044-0.076
    complex128  0-3      0.256-0.362      0.212-0.314
    complex128  4-7      0.256-0.354      0.291-0.466
    complex128  8-11     0.258-0.364      0.274-0.372
    complex128  12-15    0.257-0.356      0.258-0.363

So fixed order wins for dgemm, whose small-matrix kernels it reaches, and
not for zgemm, whose middle passes it slows.  Whole transforms, min of 40,
rotating write -> fixed order: float64 at 2^15 0.185-0.208 -> 0.138-0.148
ms, at 2^16 0.393-0.434 -> 0.279-0.322 ms, at 2^18 1.83-2.38 -> 1.33-1.53
ms; complex128 at 2^15 0.600 -> 0.644 ms, at 2^16 1.34 -> 1.54 ms, at 2^18
6.66 -> 6.56 ms.

The passes run back and forth between the input and one scratch vector of
the same length, each product written with ``np.matmul(..., out=)``, so a
transform creates no array: a run of calls on held buffers leaves the heap
as it found it.  The product is the same BLAS call with or without ``out``,
so the values do not depend on where they are written.
"""

import numpy as np

RADIX_BITS = 4

# the most entries one fixed-order BLAS call writes (256 KiB of float64);
# see the module docstring
_CALL_FLOATS = 2**15


def kron_powers(stage):
    """``{2**s: stage ⊗ ... ⊗ stage (s factors)}`` for s = 1 .. RADIX_BITS."""
    powers = {2: np.asarray(stage)}
    for s in range(2, RADIX_BITS + 1):
        powers[1 << s] = np.kron(powers[2], powers[1 << (s - 1)])
    return powers


def _rotating_pass(h, src, dst, low):
    # the group on the low bits of the rotated index, written transposed
    r = h.shape[0]
    np.matmul(h, src.reshape(-1, r).T, out=dst.reshape(r, -1))


def _fixed_pass(h, src, dst, low):
    # the group on bits [low, low + s) along its own axis, in fixed index order
    r = h.shape[0]
    if low == 0:
        rows = min(src.shape[0], _CALL_FLOATS) // r
        np.matmul(src.reshape(-1, rows, r), h.T, out=dst.reshape(-1, rows, r))
    else:
        # (A, S / cols, r, cols) with S = 2^low: each matrix a column slice
        cols = min(1 << low, _CALL_FLOATS // r)
        shape = (-1, r, (1 << low) // cols, cols)
        np.matmul(h, src.reshape(shape).transpose(0, 2, 1, 3),
                  out=dst.reshape(shape).transpose(0, 2, 1, 3))


_PASSES = {np.dtype(np.float64): _fixed_pass, np.dtype(np.complex128): _rotating_pass}


def butterfly(x, powers, scratch):
    """Apply the Kronecker power of a 2x2 stage to a power-of-two vector.

    ``powers`` is ``kron_powers(stage)``.  ``x`` and ``scratch`` are
    C-contiguous float64 or complex128 vectors of one length and dtype that
    do not overlap; both are overwritten, and the one that holds the result
    is returned.
    """
    bits = x.shape[0].bit_length() - 1
    run = _PASSES[x.dtype]
    src, dst = x, scratch
    for low in range(0, bits, RADIX_BITS):
        run(powers[1 << min(RADIX_BITS, bits - low)], src, dst, low)
        src, dst = dst, src
    return src

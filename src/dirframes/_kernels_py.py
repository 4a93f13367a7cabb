"""The butterfly kernel behind the Walsh-Hadamard and noiselet transforms.

Each transform of length n = 2^k is the k-fold Kronecker power of one 2x2
stage matrix W: stage j mixes the entry pairs whose indices differ in bit j.
Stages on different bits commute, so any group of s <= 4 of them is one
(2^s x 2^s) matrix H, the s-fold Kronecker power of W.  ``butterfly``
applies the groups from the low bits up, four bits at a time with the short
leftover group on top, each as matrix products.  A radix-16 group reads
and writes memory once where four radix-2 stages do it four times.

Both dtypes, float64 (``fwht``) and complex128 (the noiselets), run one
layout, in which the index order stays fixed.  The group on bits
[b, b + s) is H applied along the middle axis of the (A, 2^s, 2^b) view,
one batched ``np.matmul`` with H on the left; the lowest group is
``(B, ., 2^s) @ H.T``.  No BLAS call writes more than ``_CALL_FLOATS`` =
2^15 entries (a wider group is split into column slices of the same view).
The cap stays for dgemm: it keeps every float64 call on OpenBLAS's
small-matrix kernels, and the fixed order took ``fwht`` at 2^16 from
0.39-0.43 to 0.28-0.32 ms (min of 40, one BLAS thread, OpenBLAS
``SkylakeX`` kernels on a shared 2-core VM) against the older layout,
which wrote each product transposed so that the group's bits rotated to
the top of the index.

That rotating write is kept as the byte reference in ``tests/oracles.py``,
and the fixed order gives its bytes at every n tested, 2 to 2^20, for both
dtypes, with one exception: complex n = 32, where the lowest group is a
2-row zgemm, which OpenBLAS rounds differently from the rotating write's
2-column one in 28-29 of 32 entries, by up to 1.9e-15.  No workload runs
n = 32.  On complex128 the rotating write is faster alone at 2^15 and
slower at 2^19 (min of 9 interleaved rounds of 50 and of 3 calls, two runs:
0.502-0.507 against 0.534-0.616 ms at 2^15, 15.9-16.0 against 14.1-14.2
ms at 2^19), but no end-to-end run tells the two apart: 12 interleaved
pairs of the noiselet-cli benchmark (seed 27) split 6-6, with median
``iter_ms`` 4.52 ms for the rotating write against 4.65 ms for the fixed
order, a gap below the rotating write's own interquartile range of 0.24
ms, so one layout serves both dtypes.

A stack of rows, a C-contiguous ``(r, 2^k)`` array, is transformed row by
row in the same passes: each group's view runs over the whole stack, and a
group's matrices never cross a row, so every row sees the BLAS calls that
it would see alone, and its bytes.  Sensing uses ``fwht`` only, in both of
its modes; the noiselet mode runs it on the (2, n/2) stack of real and
imaginary parts.  The complex noiselets are no longer on any sensing path.

The passes run back and forth between the input and one scratch array of
the same shape, each product written with ``np.matmul(..., out=)``, so a
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


def _fixed_pass(h, src, dst, low):
    # the group on bits [low, low + s) of each row, in fixed index order;
    # every reshape runs over the whole C-contiguous stack, whose rows are
    # whole 2^low-aligned runs of the index, so each row sees the calls
    # that it would see alone
    r = h.shape[0]
    if low == 0:
        rows = min(src.shape[-1], _CALL_FLOATS) // r
        np.matmul(src.reshape(-1, rows, r), h.T, out=dst.reshape(-1, rows, r))
    else:
        # (A, S / cols, r, cols) with S = 2^low: each matrix a column slice
        cols = min(1 << low, _CALL_FLOATS // r)
        shape = (-1, r, (1 << low) // cols, cols)
        np.matmul(h, src.reshape(shape).transpose(0, 2, 1, 3),
                  out=dst.reshape(shape).transpose(0, 2, 1, 3))


def butterfly(x, powers, scratch):
    """Apply the Kronecker power of a 2x2 stage to each power-of-two row.

    ``powers`` is ``kron_powers(stage)``.  ``x`` and ``scratch`` are
    C-contiguous float64 or complex128 arrays of one shape and dtype that
    do not overlap: a vector, or an ``(r, 2^k)`` stack whose rows are
    transformed one by one.  Both are overwritten, and the one that holds
    the result is returned.
    """
    bits = x.shape[-1].bit_length() - 1
    src, dst = x, scratch
    for low in range(0, bits, RADIX_BITS):
        _fixed_pass(powers[1 << min(RADIX_BITS, bits - low)], src, dst, low)
        src, dst = dst, src
    return src

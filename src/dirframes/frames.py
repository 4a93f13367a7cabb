"""Block frame operators built from the 1-D transform designs.

A frame operator maps a stack of M x M blocks to a stack of coefficient
vectors.  Four families are provided:

* ``dadcf`` -- the directional analytic frame: a cosine branch and a sine
  branch are applied separably, coefficients with k_v = 0 or k_h = 0 are kept
  per branch (scaled by 1/sqrt(2)) and the remaining (k_v, k_h) pairs are
  mixed by the butterfly (c +/- s)/2, producing two oriented coefficients per
  frequency pair.  The resulting 2M^2 x M^2 operator F satisfies F^T F = I.
* ``rdadcf`` -- same construction with the regularity-constrained sine
  transform; rows with k_v or k_h in {0, 1} are non-directional and kept
  scaled, pairs with k_v, k_h >= 2 are mixed.
* ``pyramid`` -- the block mean is split off as a separate lowpass
  coefficient and the ``dadcf`` operator is applied to the mean-removed
  block.  It is not tight: A^T A = P + Q/M^2, where P removes the block
  mean and Q = 11^T/M^2 keeps it.
* separable baselines -- plain 2-D DCT/DHT (orthonormal) and the unitary DFT
  realized as a real operator by stacking real and imaginary parts (the
  stack is Parseval as-is because the transform is unitary).

``build_frame(family, M)`` builds every family, by the names in
``FRAME_FAMILIES``.  ``atom(op, index)`` returns one output's atom as a plain
(M, M) grid; ``op.subbands[index]`` is the record that describes it.

Coefficient ordering (two-branch families): scaled cosine coefficients in
raster (k_v, k_h) order, then scaled sine, then +1-oriented mixed outputs,
then -1-oriented, each raster ordered.  ``subbands`` records the mapping,
as plain dataclasses; ``dirframes design`` writes them to ``subbands.json``.

Synthesis is the pseudo-inverse (A^T A)^-1 A^T, which for the Parseval
families is the adjoint and for the pyramid the adjoint with the mean
coefficient first scaled by M^2 (the inverse of Q/M^2 on the constants).
So ``synthesize_blocks`` runs the adjoint's path.

Each family is defined once, by its separable block operator.  The dense
analysis matrix (``FrameOperator.analysis``) is that operator applied to the
column-major unit basis, and ``transforms`` holds the 1-D designs the
operator is built from: (DCT, sine companion) for the two-branch families
and the pyramid, the single DCT, DHT or DFT for the separable baselines.
Each design is one matrix, real but for the DFT's, which is complex.

How a frame is applied depends on its block size, and nothing else.  For
M <= 16 ``analyze_blocks`` and ``adjoint_blocks`` are a matrix product (one
per chunk, below) with the analysis matrix whose columns are in row-major
block order, ``blocks.reshape(L, M*M) @ A_r.T`` and ``(coeffs @ A_r).reshape(L, M, M)``.
``A_r`` is the analysis matrix with its columns permuted, built on the
first apply and cached on the frame, so both come from one ``_analyze``
pass on one basis.  For M > 16 the separable hooks run.  At small M the
separable path's cost is not arithmetic but numpy's batched M x M products
over every block plus several fresh image-sized temporaries per call; the
product allocates only its output.
At M = 32 the matrix would be 2048 x 1024 (16.8 MB for the two-branch
families) and the product does 8x the separable arithmetic, so large blocks
stay separable.
Round-robin medians in ms of one call on a 256 x 256 image (all blocks), one
BLAS thread, shared 2-core Xeon VM, two rounds:

    frame       analyze / adjoint, separable   analyze / adjoint, product
    rdadcf-4    2.24-2.71 / 1.50-1.78          0.12-0.16 / 0.14-0.16
    rdadcf-8    1.28-1.46 / 1.03-1.23          0.34-0.40 / 0.35-0.41
    pyramid-8   1.50-1.70 / 1.21-1.43          0.39 / 0.34-0.35
    dht-8       0.30-0.31 / 0.13-0.16          0.15-0.17 / 0.16
    rdadcf-16   1.09-1.11 / 1.06-1.17          1.12-1.34 / 1.14-1.40
    rdadcf-32   1.04-1.18 / 1.24-1.37          5.43-6.07 / 5.17-5.87

M = 16 is the break-even size: in full 256 x 256 solves (rho = 0, 200
iterations, four interleaved runs) the product gave 6.1-7.3 ms per
iteration against 7.9-9.0 separable for pyramid-16, and 6.1-8.1 against
5.4-6.8 for rdadcf-16.

Analysis and adjoint run over a stack one chunk of ``FrameOperator.chunk``
blocks at a time, so a block's coefficients do not depend on how long a
stack it came in, only on its place in a chunk.  BLAS does not keep a
row's bytes across product lengths: under OpenBLAS 0.3.31 (Haswell
kernels, 2-core VM) with one thread a 4-chunk analysis product rounded 20
pyramid-16 coefficients differently from four 1-chunk products, and with
two threads 160 at pyramid-8 and 85 at pyramid-16, by up to 1.3e-15.  Chunking every
call makes the solver's chunked frame step give the bytes of whole-stack
calls whatever the BLAS kernels and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transforms import (
    DCT,
    DFT,
    DHT,
    build_dct,
    build_dft,
    build_dht,
    build_dst,
    build_rdst,
)

__all__ = [
    "Subband",
    "FrameOperator",
    "build_frame",
    "FRAME_FAMILIES",
    "atom",
    "directional_cosine_atom",
    "analyticity_ratio",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# largest block size whose analysis and adjoint are applied as one matrix
# product; see the module docstring
_GEMM_MAX_BLOCK = 16

# coefficients per chunk of analysis and adjoint: 2^15 floats (256 KiB) keep
# a chunk's coefficients in cache from the solver's analysis to its adjoint
_FRAME_CHUNK_FLOATS = 2**15

# frequency samples over [-pi, pi) on which ``analyticity_ratio`` is taken
_SPECTRUM_GRID = 1024


def _frame_chunk(n_out):
    """Blocks per chunk: the largest power of two whose coefficients fit in
    ``_FRAME_CHUNK_FLOATS`` floats, and at least 1.  A power of two, so that
    chunks tile every stack of a power-of-two image (H W is a power of two,
    so H, W, M and L are)."""
    return 1 << max((_FRAME_CHUNK_FLOATS // n_out).bit_length() - 1, 0)

FRAME_FAMILIES = ("dadcf", "rdadcf", "pyramid", "dct", "dft", "dht")


@dataclass(frozen=True)
class Subband:
    index: int
    branch: str               # "cos" | "sin" | "mixed" | "lowpass"
    k_v: int
    k_h: int
    orientation: int | None   # +1 | -1 for mixed outputs, else None


def _flat(M, k_v, k_h):
    # column-major index of coefficient (k_v, k_h) in a vectorized block
    return M * k_h + k_v


def _vec_blocks(mats):
    # (L, M, M) coefficient matrices -> (L, M*M) column-major vectors
    L, M = mats.shape[0], mats.shape[1]
    return mats.transpose(0, 2, 1).reshape(L, M * M)


def _unvec_blocks(vecs, M):
    L = vecs.shape[0]
    return vecs.reshape(L, M, M).transpose(0, 2, 1)


class FrameOperator:
    """Base interface: block analysis, true adjoint, and synthesis.

    ``analyze_blocks`` takes an (L, M, M) stack and returns (L, n_out)
    coefficients; ``adjoint_blocks`` and ``synthesize_blocks`` map (L, n_out)
    coefficients back to an (L, M, M) stack.  Synthesis is the
    pseudo-inverse: the adjoint of the coefficients after the private
    ``_pinv_coeffs`` hook, which only the pyramid overrides.  A family
    implements the private ``_analyze`` / ``_adjoint`` hooks; the public
    methods live here only.  For M <= 16 all three apply the matrix of
    ``_analyze`` instead of the hooks, ``chunk`` blocks at a time (see the
    module docstring).

    ``analyze_blocks`` and ``adjoint_blocks`` take an optional ``out``, a
    writeable C-contiguous float64 array of the result's shape that does
    not overlap the input (else ``ValueError``).  Each chunk's product is
    written straight into its rows of ``out``, or of a fresh array without
    one, and that array is returned: the same BLAS call either way, so the
    same bytes.  For M > 16 the hooks' fresh results are copied in.
    """

    def __init__(self, family, block_size, n_out, subbands, transforms):
        self.family = family  # the name ``build_frame`` takes
        self.block_size = block_size
        self.n_out = n_out
        self.subbands = tuple(subbands)
        self.transforms = tuple(transforms)  # the 1-D TransformMatrix designs
        self.chunk = _frame_chunk(n_out)  # blocks per analysis/adjoint product
        self._analysis = None
        self._gemm = None

    # -- public API --------------------------------------------------------

    @property
    def analysis(self):
        """Dense analysis matrix (n_out x M^2), built on first use.

        Column j is the operator applied to the block whose column-major
        vector is the j-th unit vector, so the matrix and the fast path
        share one definition.  It goes through ``_analyze`` rather than
        ``analyze_blocks`` so that building it is not counted as an
        analysis call.  It is limited to M^2 <= 4096 (M <= 64), and
        raises ``ValueError`` beyond.
        """
        if self._analysis is None:
            M = self.block_size
            if M * M > 4096:
                raise ValueError(f"dense analysis matrix limited to M^2 <= 4096, got M = {M}")
            basis = np.eye(M * M).reshape(M * M, M, M).transpose(0, 2, 1)
            a = np.ascontiguousarray(self._analyze(basis).T)
            a.setflags(write=False)
            self._analysis = a
        return self._analysis

    def analyze_blocks(self, blocks, out=None):
        return self._by_chunk(self._analyze_chunk, self._as_stack(blocks), (self.n_out,), out)

    def adjoint_blocks(self, coeffs, out=None):
        M = self.block_size
        return self._by_chunk(self._adjoint_chunk, self._as_coeffs(coeffs), (M, M), out)

    def synthesize_blocks(self, coeffs):
        """The pseudo-inverse (A^T A)^-1 A^T: the adjoint of the coefficients
        after the family's ``_pinv_coeffs`` scaling."""
        return self.adjoint_blocks(self._pinv_coeffs(self._as_coeffs(coeffs)))

    def parseval_residual(self):
        """max |A^T A - I| over the dense analysis matrix."""
        a = self.analysis
        g = a.T @ a
        return float(np.max(np.abs(g - np.eye(self.block_size**2))))

    # -- internals ---------------------------------------------------------

    def _gemm_matrix(self):
        # the analysis matrix with its columns in row-major block order, so
        # that a C-ordered (L, M, M) stack reshapes to (L, M^2) as a view:
        # column M*m + n is the analysis column M*n + m of pixel (m, n)
        if self._gemm is None:
            M = self.block_size
            columns = np.arange(M * M).reshape(M, M).T.ravel()
            self._gemm = np.ascontiguousarray(self.analysis[:, columns])
            self._gemm.setflags(write=False)
        return self._gemm

    def _by_chunk(self, apply, x, shape, out):
        # apply to x one chunk of rows at a time, each written into its rows
        # of ``out`` or of a fresh array of the result's shape
        want = (len(x),) + shape
        if out is None:
            out = np.empty(want)
        elif (not isinstance(out, np.ndarray) or out.shape != want or out.dtype != np.float64
              or not (out.flags.c_contiguous and out.flags.writeable)
              or np.may_share_memory(out, x)):
            raise ValueError(f"out must be a writeable contiguous float64 array of shape "
                             f"{want} apart from the input")
        for start in range(0, len(x), self.chunk):
            apply(x[start:start + self.chunk], out[start:start + self.chunk])
        return out

    def _analyze_chunk(self, blocks, out):
        M = self.block_size
        if M <= _GEMM_MAX_BLOCK:
            np.matmul(blocks.reshape(-1, M * M), self._gemm_matrix().T, out=out)
        else:
            out[...] = self._analyze(blocks)

    def _adjoint_chunk(self, coeffs, out):
        M = self.block_size
        if M <= _GEMM_MAX_BLOCK:
            np.matmul(coeffs, self._gemm_matrix(), out=out.reshape(-1, M * M))
        else:
            out[...] = self._adjoint(coeffs)

    def _as_stack(self, blocks):
        blocks = np.asarray(blocks, dtype=np.float64)
        M = self.block_size
        if blocks.ndim != 3 or blocks.shape[1:] != (M, M):
            raise ValueError(f"expected (L, {M}, {M}) stack, got {blocks.shape}")
        return blocks

    def _as_coeffs(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim != 2 or coeffs.shape[1] != self.n_out:
            raise ValueError(f"expected (L, {self.n_out}) coefficients, got {coeffs.shape}")
        return coeffs

    def _pinv_coeffs(self, coeffs):
        # a Parseval frame's pseudo-inverse is its adjoint
        return coeffs

    def _analyze(self, blocks):
        raise NotImplementedError

    def _adjoint(self, coeffs):
        raise NotImplementedError


class _TwoBranchFrame(FrameOperator):
    """Cosine branch + sine branch with scaled and butterfly-mixed outputs."""

    def __init__(self, family, cos_tm, sin_tm, min_paired_k):
        M = cos_tm.size
        self._Fc = cos_tm.entries
        self._Fs = sin_tm.entries
        scaled = [
            (kv, kh)
            for kv in range(M)
            for kh in range(M)
            if kv < min_paired_k or kh < min_paired_k
        ]
        paired = [
            (kv, kh)
            for kv in range(min_paired_k, M)
            for kh in range(min_paired_k, M)
        ]
        n_s, n_p = len(scaled), len(paired)
        assert 2 * n_s + 2 * n_p == 2 * M * M, "subband bookkeeping is off"
        self._n_s, self._n_p = n_s, n_p
        self._scaled_idx = np.array([_flat(M, kv, kh) for kv, kh in scaled])
        self._pair_idx = np.array([_flat(M, kv, kh) for kv, kh in paired])
        subbands = []
        for branch in ("cos", "sin"):
            for kv, kh in scaled:
                subbands.append(Subband(len(subbands), branch, kv, kh, None))
        for orient in (1, -1):
            for kv, kh in paired:
                subbands.append(Subband(len(subbands), "mixed", kv, kh, orient))
        super().__init__(family, M, 2 * M * M, subbands, (cos_tm, sin_tm))

    def _branch_coeffs(self, blocks):
        c = _vec_blocks(self._Fc @ blocks @ self._Fc.T)
        s = _vec_blocks(self._Fs @ blocks @ self._Fs.T)
        return c, s

    def _analyze(self, blocks):
        c, s = self._branch_coeffs(blocks)
        n_s, n_p = self._n_s, self._n_p
        out = np.empty((blocks.shape[0], self.n_out))
        out[:, :n_s] = c[:, self._scaled_idx] * _INV_SQRT2
        out[:, n_s : 2 * n_s] = s[:, self._scaled_idx] * _INV_SQRT2
        cp = c[:, self._pair_idx]
        sp = s[:, self._pair_idx]
        out[:, 2 * n_s : 2 * n_s + n_p] = 0.5 * (cp + sp)
        out[:, 2 * n_s + n_p :] = 0.5 * (cp - sp)
        return out

    def _adjoint(self, coeffs):
        M = self.block_size
        n_s, n_p = self._n_s, self._n_p
        L = coeffs.shape[0]
        c = np.zeros((L, M * M))
        s = np.zeros((L, M * M))
        c[:, self._scaled_idx] = coeffs[:, :n_s] * _INV_SQRT2
        s[:, self._scaled_idx] = coeffs[:, n_s : 2 * n_s] * _INV_SQRT2
        zp = coeffs[:, 2 * n_s : 2 * n_s + n_p]
        zm = coeffs[:, 2 * n_s + n_p :]
        c[:, self._pair_idx] = 0.5 * (zp + zm)
        s[:, self._pair_idx] = 0.5 * (zp - zm)
        C = _unvec_blocks(c, M)
        S = _unvec_blocks(s, M)
        return self._Fc.T @ C @ self._Fc + self._Fs.T @ S @ self._Fs


class _SeparableFrame(FrameOperator):
    """Plain separable orthonormal transform (DCT or DHT)."""

    def __init__(self, family, tm):
        M = tm.size
        self._F = tm.entries
        subbands = [
            Subband(i, "cos", i % M, i // M, None) for i in range(M * M)
        ]
        super().__init__(family, M, M * M, subbands, (tm,))

    def _analyze(self, blocks):
        return _vec_blocks(self._F @ blocks @ self._F.T)

    def _adjoint(self, coeffs):
        C = _unvec_blocks(coeffs, self.block_size)
        return self._F.T @ C @ self._F


class _ComplexSeparableFrame(FrameOperator):
    """Unitary DFT as a real operator: real rows stacked over imaginary rows."""

    def __init__(self, tm):
        M = tm.size
        self._U = tm.entries
        subbands = [Subband(i, "cos", i % M, i // M, None) for i in range(M * M)]
        subbands += [
            Subband(M * M + i, "sin", i % M, i // M, None) for i in range(M * M)
        ]
        super().__init__("dft", M, 2 * M * M, subbands, (tm,))

    def _analyze(self, blocks):
        Z = self._U @ blocks.astype(np.complex128) @ self._U.T
        return np.concatenate([_vec_blocks(Z.real), _vec_blocks(Z.imag)], axis=1)

    def _adjoint(self, coeffs):
        M = self.block_size
        w = coeffs[:, : M * M] + 1j * coeffs[:, M * M :]
        W = _unvec_blocks(w, M)
        X = self._U.conj().T @ W @ self._U.conj()
        return np.ascontiguousarray(X.real)


class _PyramidFrame(FrameOperator):
    """Lowpass block mean + directional analysis of the mean-removed block."""

    def __init__(self, inner):
        M = inner.block_size
        self.inner = inner
        subbands = [Subband(0, "lowpass", 0, 0, None)]
        for s in inner.subbands:
            subbands.append(Subband(s.index + 1, s.branch, s.k_v, s.k_h, s.orientation))
        super().__init__("pyramid", M, inner.n_out + 1, subbands, inner.transforms)

    def _analyze(self, blocks):
        mean = blocks.mean(axis=(1, 2))
        detail = self.inner._analyze(blocks - mean[:, None, None])
        return np.concatenate([mean[:, None], detail], axis=1)

    def _pinv_coeffs(self, coeffs):
        # A^T A = P + Q/M^2, with P the mean removal and Q = 11^T/M^2, so
        # (A^T A)^-1 A^T c is A^T c with the mean coefficient scaled by M^2
        coeffs = coeffs.copy()
        coeffs[:, 0] *= self.block_size**2
        return coeffs

    def _adjoint(self, coeffs):
        # the analysis of the detail part includes the mean removal
        M = self.block_size
        w = self.inner._adjoint(coeffs[:, 1:])
        w -= w.mean(axis=(1, 2))[:, None, None]
        return w + coeffs[:, 0][:, None, None] / (M * M)


def build_frame(family, M):
    """Build the frame of a family in ``FRAME_FAMILIES`` with M x M blocks.

    dadcf pairs the DCT with its sine companion; rdadcf (M >= 4) the DCT
    with the regularity-constrained sine transform; pyramid splits off the
    block mean ahead of a dadcf frame; dct, dht and dft are the separable
    baselines.  Raises ``ValueError`` for an unknown family or rdadcf with
    M < 4.
    """
    if family in ("dadcf", "pyramid"):
        frame = _TwoBranchFrame("dadcf", build_dct(M), build_dst(M), 1)
        return frame if family == "dadcf" else _PyramidFrame(frame)
    if family == "rdadcf":
        if M < 4:
            raise ValueError("rdadcf requires block size >= 4")
        return _TwoBranchFrame("rdadcf", build_dct(M), build_rdst(M), 2)
    if family == DFT:
        return _ComplexSeparableFrame(build_dft(M))
    if family in (DCT, DHT):
        return _SeparableFrame(family, build_dct(M) if family == DCT else build_dht(M))
    raise ValueError(f"unknown frame family {family!r}")


def atom(op, index):
    """Return the atom of one output coefficient: its analysis row as an
    M x M grid (column-major), times a scale that depends on its branch.

    For the two-branch families and the pyramid, scaled (non-mixed) outputs
    are returned at unit norm (analysis row times sqrt(2)); mixed outputs as
    the plain branch-atom combination c +/- s (analysis row times 2, norm
    sqrt(2)), which for the dadcf family equals (2/M) cos(theta_v -/+
    theta_h) entrywise; the pyramid's lowpass output as the flat block 1/M
    (analysis row times M).  Separable-family atoms are the raw analysis
    rows.  ``op.subbands[index]`` describes the atom.
    """
    if not 0 <= index < op.n_out:
        raise ValueError(f"index {index} out of range for {op.n_out} outputs")
    M = op.block_size
    scale = 1.0
    if op.family in ("dadcf", "rdadcf", "pyramid"):
        scale = {"mixed": 2.0, "lowpass": M}.get(op.subbands[index].branch, np.sqrt(2.0))
    return op.analysis[index].reshape(M, M, order="F") * scale


def directional_cosine_atom(M, k_v, k_h, orientation):
    """Closed form of a dadcf mixed atom: (2/M) cos(theta_v -/+ theta_h).

    theta_v = pi k_v (m + 1/2) / M down the rows, theta_h likewise across the
    columns; orientation +1 takes the difference of the angles (one diagonal
    direction), -1 their sum (the mirrored direction).
    """
    m = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    tv = np.pi * k_v * (m + 0.5) / M
    th = np.pi * k_h * (n + 0.5) / M
    return (2.0 / M) * np.cos(tv - orientation * th)


def analyticity_ratio(cos_row, sin_row):
    """Fraction of the energy of H + jG living at negative frequencies.

    H and G are the DTFTs of the two rows.  Evaluated on a half-bin-offset
    uniform grid (no sample at omega = 0 or -pi), so a real pair (sin_row =
    0) gives exactly 0.5; a one-sided pair gives a small ratio.
    """
    h = np.asarray(cos_row, dtype=np.float64)
    g = np.asarray(sin_row, dtype=np.float64)
    if h.shape != g.shape or h.ndim != 1:
        raise ValueError("rows must be 1-D and the same length")
    omega = -np.pi + 2.0 * np.pi * (np.arange(_SPECTRUM_GRID) + 0.5) / _SPECTRUM_GRID
    n = np.arange(h.size)
    U = np.exp(-1j * omega[:, None] * n[None, :]) @ (h + 1j * g)
    energy = np.abs(U) ** 2
    total = float(energy.sum())
    if total == 0.0:
        raise ValueError("zero-energy input")
    return float(energy[omega < 0].sum()) / total
